//! Pieces every workload shares: the run context, seeding, timed set-up
//! of the trees, the join-counter aggregate, and the in-process listeners.

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use amdj_core::serve::transport::{serve_listener, TransportOptions, TransportStats};
use amdj_core::serve::Server;
use amdj_core::JoinStats;
use amdj_datagen::Dataset;
use amdj_rtree::{RTree, RTreeParams};

use crate::report::{Report, Tally};
use crate::stats::median;
use crate::trace::Tracer;

/// The page budget of the paper's 512 KB node buffer at 4 KB pages.
pub const BUFFER_PAGES: usize = 512 * 1024 / 4096;

/// Everything a workload run reads and writes.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// Records spans in traced runs; disabled otherwise.
    pub tracer: Tracer,
    /// Never records: traced runs alternate between the two tracers so
    /// the tracing overhead is measured inside one run.
    pub untraced: Tracer,
    pub report: Report,
    pub tally: Tally,
}

impl Ctx {
    /// The tracer for window round `round`: every other round is traced
    /// in a traced run, none in an untraced one.
    pub fn tracer_for(&self, round: usize) -> &Tracer {
        if round.is_multiple_of(2) {
            &self.tracer
        } else {
            &self.untraced
        }
    }
}

/// SplitMix64: a small deterministic generator for seeds and request
/// mixes, so the benchmark's inputs follow from `--seed` alone.
pub struct Mix(u64);

impl Mix {
    pub fn new(seed: u64) -> Mix {
        Mix(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The data seed of input set `index` under run seed `seed`.
pub fn data_seed(seed: u64, index: u64) -> u64 {
    Mix::new(seed.wrapping_mul(1_000_003).wrapping_add(index)).next_u64()
}

/// Two trees built from generated data, with the set-up times.
pub struct Built {
    pub r: RTree<2>,
    pub s: RTree<2>,
    pub gen_s: f64,
    pub load_s: f64,
}

/// Generates a data set pair and bulk-loads both trees at the paper's
/// configuration (4 KB pages, 512 KB buffer), inside spans.
pub fn build(tracer: &Tracer, request: u64, gen: impl FnOnce() -> (Dataset, Dataset)) -> Built {
    tracer.span("bench.setup", None, request, |p| {
        let t = Instant::now();
        let (a, b) = tracer.span("datagen.generate", p, request, |_| gen());
        let gen_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let (r, s) = tracer.span("rtree.bulk_load", p, request, |_| {
            (
                RTree::bulk_load(RTreeParams::paper_defaults(), a),
                RTree::bulk_load(RTreeParams::paper_defaults(), b),
            )
        });
        let load_s = t.elapsed().as_secs_f64();
        r.reset_stats();
        s.reset_stats();
        Built {
            r,
            s,
            gen_s,
            load_s,
        }
    })
}

/// Trees over the same data with a node buffer that holds every page —
/// the buffer ablation.
pub fn build_whole_buffer_twin(gen: impl FnOnce() -> (Dataset, Dataset)) -> (RTree<2>, RTree<2>) {
    let (a, b) = gen();
    let params = |n: usize| RTreeParams {
        buffer_bytes: (n / 50 + 64) * 4096,
        ..RTreeParams::paper_defaults()
    };
    (
        RTree::bulk_load(params(a.len()), a),
        RTree::bulk_load(params(b.len()), b),
    )
}

/// Median wall time of `reps` calls of `f`, seconds.
pub fn median_wall(reps: usize, mut f: impl FnMut()) -> f64 {
    let walls: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&walls)
}

/// Per-query join counters, summed over the queries of a run.
#[derive(Default)]
pub struct JoinAgg {
    pub queries: u64,
    pub sum: JoinStats,
    pub io_s: Vec<f64>,
    pub wall_s: Vec<f64>,
}

impl JoinAgg {
    pub fn add(&mut self, st: &JoinStats, wall_s: f64) {
        self.queries += 1;
        self.sum.absorb_worker(st);
        self.sum.node_requests += st.node_requests;
        self.sum.barrier_idle_ns += st.barrier_idle_ns;
        self.sum.results += st.results;
        self.sum.stages += st.stages;
        self.io_s.push(st.io_seconds);
        self.wall_s.push(wall_s);
    }

    fn per_query(&self, v: u64) -> f64 {
        v as f64 / self.queries.max(1) as f64
    }

    /// Sets the rtree, storage, engine and estimate counters.
    pub fn fill(&self, rep: &mut Report) {
        let s = &self.sum;
        let fetches = s.buffer_hits + s.buffer_misses;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        rep.set(
            "rtree.node_requests_per_query",
            self.per_query(s.node_requests),
        );
        rep.set("rtree.buffer_hit_rate", ratio(s.buffer_hits, fetches));
        rep.set(
            "rtree.buffer_misses_per_query",
            self.per_query(s.buffer_misses),
        );
        rep.set(
            "rtree.buffer_evictions_per_query",
            self.per_query(s.buffer_evictions),
        );
        rep.set(
            "storage.mainq_insertions_per_query",
            self.per_query(s.mainq_insertions),
        );
        rep.set(
            "storage.queue_page_writes_per_query",
            self.per_query(s.queue_page_writes),
        );
        rep.set(
            "storage.queue_page_reads_per_query",
            self.per_query(s.queue_page_reads),
        );
        rep.set("storage.modeled_io_p50_s", median(&self.io_s));
        rep.set("engine.join_p50_ms", median(&self.wall_s) * 1e3);
        rep.set("engine.real_dist_per_query", self.per_query(s.real_dist));
        rep.set("engine.axis_dist_per_query", self.per_query(s.axis_dist));
        rep.set(
            "engine.dist_per_result",
            ratio(s.real_dist + s.axis_dist, s.results),
        );
        let expansions = s.stage1_expansions + s.stage2_expansions;
        rep.set("engine.expansions_per_query", self.per_query(expansions));
        rep.set(
            "engine.prefilter_reject_ratio",
            ratio(s.quantized_rejects, s.quantized_rejects + s.real_dist),
        );
        rep.set("estimate.stages_per_query", self.per_query(s.stages as u64));
        rep.set(
            "estimate.comp_replays_per_query",
            self.per_query(s.comp_replays),
        );
        rep.set(
            "estimate.stage2_expansion_share",
            ratio(s.stage2_expansions, expansions),
        );
    }

    /// Sets the parallel-engine counters from the `threads: 2` queries.
    pub fn fill_parallel(&self, rep: &mut Report) {
        let s = &self.sum;
        rep.set(
            "engine.barrier_idle_ms_per_query",
            self.per_query(s.barrier_idle_ns) * 1e-6,
        );
        rep.set(
            "engine.steal_hit_ratio",
            if s.steal_attempts == 0 {
                0.0
            } else {
                s.pairs_stolen as f64 / s.steal_attempts as f64
            },
        );
    }
}

/// Runs one `serve_listener` per server on ephemeral localhost ports
/// while `client` runs, then stops them and waits for each. Returns the
/// client's value, every transport's counters, and the seconds spent
/// binding the listeners.
pub fn with_listeners<T>(
    servers: &[Server<'_, 2>],
    client: impl FnOnce(&[SocketAddr]) -> T,
) -> Result<(T, Vec<TransportStats>, f64), String> {
    let started = Instant::now();
    let mut listeners = Vec::new();
    let mut addrs = Vec::new();
    for _ in servers {
        let l = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        addrs.push(l.local_addr().map_err(|e| format!("local addr: {e}"))?);
        listeners.push(l);
    }
    let bind_s = started.elapsed().as_secs_f64();
    let stop = AtomicBool::new(false);
    let opts = TransportOptions::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = servers
            .iter()
            .zip(listeners)
            .map(|(server, l)| {
                let (opts, stop) = (&opts, &stop);
                scope.spawn(move || serve_listener(server, l, opts, stop))
            })
            .collect();
        let out = client(&addrs);
        stop.store(true, Ordering::SeqCst);
        let mut stats = Vec::new();
        for h in handles {
            stats.push(
                h.join()
                    .map_err(|_| "listener thread panicked".to_string())?
                    .map_err(|e| format!("listener: {e}"))?,
            );
        }
        Ok((out, stats, bind_s))
    })
}

/// Sets `self.<layer>_ms_per_op` from the tracer's self times.
pub fn fill_self_times(ctx: &mut Ctx, ops: u64) {
    let by_layer = ctx.tracer.self_seconds_by_layer();
    for (layer, metric) in [
        ("bench", "self.bench_ms_per_op"),
        ("datagen", "self.datagen_ms_per_op"),
        ("rtree", "self.rtree_ms_per_op"),
        ("engine", "self.engine_ms_per_op"),
        ("serve", "self.serve_ms_per_op"),
        ("transport", "self.transport_ms_per_op"),
    ] {
        let s = by_layer.get(layer).copied().unwrap_or(0.0);
        ctx.report.set(metric, s * 1e3 / ops.max(1) as f64);
    }
}

/// A regime guard: the property a workload exists for. A lost guard
/// ends the run with an error instead of a result.
pub fn guard(holds: bool, what: &str) -> Result<(), String> {
    if holds {
        Ok(())
    } else {
        Err(format!("regime guard failed: {what}"))
    }
}

/// A behaviour the seed code shows on a workload and later changes may
/// legitimately remove: printed, never fatal.
pub fn expect_seed_behaviour(holds: bool, what: &str) {
    println!(
        "seed-code behaviour {}: {what}",
        if holds { "holds" } else { "NOT SEEN" }
    );
}
