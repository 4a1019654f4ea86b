//! `paper-kdj`: the paper's regime. One closed-loop client calls the
//! one-shot AM-KDJ library entry point (single-threaded) on TIGER-like
//! Arizona streets × hydro data at scale 0.53 (336k × 101k objects,
//! ~4.3k pages ≈ 17 MB against the 512 KB node buffer and the 512 KB
//! main-queue memory), with k from the paper's sweep.
//!
//! Each run builds [`GEOGRAPHIES`] independent data sets from the seed
//! and rotates queries over them, so one run's figures average over
//! several geographies instead of resting on one draw. Geography `g`
//! always asks for the same k, so a run makes one reference call per
//! geography.

use std::time::Instant;

use amdj_core::serve::{ServeOptions, Server};
use amdj_core::{am_kdj, b_kdj, par_am_kdj, AmKdjOptions, JoinConfig, JoinOutput, ResultPair};
use amdj_datagen::tiger;
use amdj_rtree::RTree;

use crate::common::{
    build, build_whole_buffer_twin, data_seed, expect_seed_behaviour, fill_self_times, guard,
    median_wall, with_listeners, Built, Ctx, JoinAgg,
};
use crate::report::{same_pairs, say, with_peak_rss};
use crate::stats::{median, tail};
use crate::wire::{parse_reply, Conn};

/// Workload scale relative to the paper's Arizona cardinalities.
pub const SCALE: f64 = 0.53;
/// Independent data sets per run.
pub const GEOGRAPHIES: usize = 4;
/// The paper's k sweep (§5.2).
pub const K_SWEEP: [usize; 4] = [100, 1_000, 10_000, 100_000];
/// Geographies the traced run ablates (buffer, queue memory, threads,
/// exact join) on the window's own queries.
const ABLATED: usize = 2;

struct Geo {
    built: Built,
    seed: u64,
    k: usize,
    reference: Vec<ResultPair>,
    /// Window latencies of this geography's queries, seconds.
    walls: Vec<f64>,
}

fn generate(seed: u64) -> (amdj_datagen::Dataset, amdj_datagen::Dataset) {
    tiger::arizona_workload(SCALE, seed)
}

fn am(r: &RTree<2>, s: &RTree<2>, k: usize, cfg: &JoinConfig) -> JoinOutput {
    am_kdj(r, s, k, cfg, &AmKdjOptions::default())
}

pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let cfg = JoinConfig::default();
    let mut geos = Vec::new();
    let mut setups = Vec::new();
    for g in 0..GEOGRAPHIES {
        let seed = data_seed(ctx.seed, g as u64);
        let built = build(&ctx.tracer, g as u64, || generate(seed));
        setups.push(built.gen_s + built.load_s);
        let k = K_SWEEP[(g + ctx.seed as usize) % K_SWEEP.len()];
        geos.push(Geo {
            built,
            seed,
            k,
            reference: Vec::new(),
            walls: Vec::new(),
        });
    }
    // The serial library call each query is checked against, made
    // outside the timed window and outside set-up; it also warms the
    // node buffer the way every later query finds it.
    for geo in &mut geos {
        let out = am(&geo.built.r, &geo.built.s, geo.k, &cfg);
        geo.reference = out.results;
    }

    let mut agg = JoinAgg::default();
    let mut traced_lat = Vec::new();
    let mut untraced_lat = Vec::new();
    let mut busy = 0.0;
    let mut lost = None;
    let (ops, peak_mb) = with_peak_rss(|| {
        let mut i = 0usize;
        while busy < ctx.seconds {
            let g = i % GEOGRAPHIES;
            let round = i / GEOGRAPHIES;
            let tracer = ctx.tracer_for(round);
            let geo = &mut geos[g];
            let t = Instant::now();
            let out = tracer.span("bench.query", None, i as u64, |p| {
                tracer.span("engine.am_kdj", p, i as u64, |_| {
                    am(&geo.built.r, &geo.built.s, geo.k, &cfg)
                })
            });
            let wall = t.elapsed().as_secs_f64();
            busy += wall;
            geo.walls.push(wall);
            if tracer.enabled() {
                traced_lat.push(wall);
            } else {
                untraced_lat.push(wall);
            }
            let ok = same_pairs(&out.results, &geo.reference);
            ctx.tally.record(ok, &|| {
                format!("query {i} (k {}) differs from the serial call", geo.k)
            });
            let st = &out.stats;
            if lost.is_none() && (st.buffer_misses == 0 || st.queue_page_writes == 0) {
                lost = Some(format!(
                    "paper-kdj query {i} had {} buffer misses and {} queue page writes; both must be > 0",
                    st.buffer_misses, st.queue_page_writes
                ));
            }
            agg.add(st, wall);
            i += 1;
        }
        i as u64
    });
    guard(lost.is_none(), lost.as_deref().unwrap_or(""))?;
    let stage1_only = agg.sum.stages as u64 == agg.queries;
    expect_seed_behaviour(
        stage1_only,
        "paper-kdj: Eq. 3 overshoots, every AM-KDJ query runs one stage",
    );

    let lat: Vec<f64> = geos.iter().flat_map(|g| g.walls.iter().copied()).collect();
    let setup_s = median(&setups);
    let p50_ms = median(&lat) * 1e3;
    let ops_per_s = ops as f64 / busy;
    ctx.report.set("setup_s", setup_s);
    ctx.report.set("p50_ms", p50_ms);
    ctx.report.set("peak_rss_mb", peak_mb);
    println!(
        "paper-kdj: {} objects x {} objects per geography, {GEOGRAPHIES} geographies, closed loop, 1 client, {ops} queries",
        geos[0].built.r.len(),
        geos[0].built.s.len()
    );
    say(
        "setup_s",
        setup_s,
        "s",
        "median of per-geography generate + bulk load",
    );
    say("kdj_p50_ms", p50_ms, "ms", "");
    match tail(&lat) {
        Some((p, v)) => say(
            "kdj_tail_ms",
            v * 1e3,
            "ms",
            &format!("p{p} of {} samples", lat.len()),
        ),
        None => println!("kdj_tail_ms = n/a ({} samples; a tail needs 11)", lat.len()),
    }
    say("queries_per_s", ops_per_s, "1/s", "1 closed-loop client");
    say("error_rate", ctx.tally.error_rate(), "ratio", "");
    say("peak_rss_mb", peak_mb, "MB", "");
    say(
        "modeled_io_p50_s",
        median(&agg.io_s),
        "s",
        "JoinStats::io_seconds",
    );

    if ctx.tracer.enabled() {
        attribute(ctx, &geos, &cfg, &agg, ops)?;
        let overhead = (median(&traced_lat) - median(&untraced_lat)) * 1e3;
        ctx.report.set("trace.overhead_ms", overhead);
    }
    Ok(())
}

/// The traced run's per-layer attribution, on the window's own queries.
fn attribute(
    ctx: &mut Ctx,
    geos: &[Geo],
    cfg: &JoinConfig,
    agg: &JoinAgg,
    ops: u64,
) -> Result<(), String> {
    let gen_s: Vec<f64> = geos.iter().map(|g| g.built.gen_s).collect();
    let load_s: Vec<f64> = geos.iter().map(|g| g.built.load_s).collect();
    ctx.report.set("datagen.gen_s", median(&gen_s));
    ctx.report.set("rtree.bulk_load_s", median(&load_s));
    agg.fill(&mut ctx.report);

    // Ablations from outside: the same queries with a buffer that holds
    // both trees, with unbounded queue memory, on two threads, and with
    // the exact join.
    let unbounded = JoinConfig {
        queue_mem_bytes: usize::MAX,
        ..cfg.clone()
    };
    let (mut base, mut big_buf, mut big_q) = (0.0, 0.0, 0.0);
    let (mut seq, mut par, mut exact) = (0.0, 0.0, 0.0);
    let (mut am_real, mut b_real) = (0u64, 0u64);
    let mut par_agg = JoinAgg::default();
    for (g, geo) in geos.iter().take(ABLATED).enumerate() {
        let (r, s, k) = (&geo.built.r, &geo.built.s, geo.k);
        let tr = &ctx.tracer;
        let g = g as u64;
        base += median(&geo.walls);
        let (br, bs) = build_whole_buffer_twin(|| generate(geo.seed));
        am(&br, &bs, k, cfg); // fills the big buffer
        big_buf += tr.span("engine.ablate_buffer", None, g, |_| {
            median_wall(2, || {
                am(&br, &bs, k, cfg);
            })
        });
        drop((br, bs));
        big_q += tr.span("engine.ablate_queue", None, g, |_| {
            median_wall(2, || {
                am(r, s, k, &unbounded);
            })
        });
        let t = Instant::now();
        let out = tr.span("engine.am_kdj", None, g, |_| am(r, s, k, cfg));
        seq += t.elapsed().as_secs_f64();
        am_real += out.stats.real_dist;
        let t = Instant::now();
        let out = tr.span("engine.par_am_kdj", None, g, |_| {
            par_am_kdj(r, s, k, cfg, &AmKdjOptions::default(), 2)
        });
        let wall = t.elapsed().as_secs_f64();
        par += wall;
        par_agg.add(&out.stats, wall);
        let t = Instant::now();
        let out = tr.span("engine.b_kdj", None, g, |_| b_kdj(r, s, k, cfg));
        exact += t.elapsed().as_secs_f64();
        b_real += out.stats.real_dist;
    }
    ctx.report
        .set("rtree.buffer_wall_share", 1.0 - big_buf / base);
    ctx.report
        .set("storage.spill_wall_share", 1.0 - big_q / base);
    ctx.report.set("engine.threads2_wall_ratio", par / seq);
    ctx.report.set("engine.am_over_b_wall_ratio", seq / exact);
    ctx.report.set(
        "engine.b_over_am_real_dist_ratio",
        b_real as f64 / am_real.max(1) as f64,
    );
    par_agg.fill_parallel(&mut ctx.report);
    say(
        "threads2_over_sequential_wall",
        par / seq,
        "ratio",
        "AM-KDJ, 2 threads vs 1, same queries",
    );
    say("am_over_b_kdj_wall", seq / exact, "ratio", "same queries");
    say(
        "b_over_am_kdj_real_dist",
        b_real as f64 / am_real.max(1) as f64,
        "ratio",
        "same queries",
    );

    // The serve layer does no work in this workload: the same query
    // through the in-process request seam and over TCP shows how little.
    let geo = &geos[0];
    let server = Server::new(&geo.built.r, &geo.built.s, ServeOptions::default());
    let line = format!("{{\"op\":\"kdj\",\"id\":\"p0\",\"k\":{}}}", geo.k);
    let direct = median(&geo.walls);
    let ((handle, tcp, ok), tstats, _) = with_listeners(std::slice::from_ref(&server), |addrs| {
        // Alternate the in-process and TCP paths so drift hits both.
        let (mut handle, mut tcp, mut ok) = (Vec::new(), Vec::new(), true);
        for _ in 0..3 {
            let t = Instant::now();
            let (resp, _) = ctx.tracer.span("serve.handle_line", None, 0, |_| {
                server.handle_line(line.as_bytes())
            });
            handle.push(t.elapsed().as_secs_f64());
            ok &= same_pairs(&parse_reply(&resp.encode()).results, &geo.reference);
            let t = Instant::now();
            let resp = Conn::connect(addrs[0]).and_then(|mut c| {
                ctx.tracer
                    .span("transport.request", None, 0, |_| c.request(&line))
            });
            tcp.push(t.elapsed().as_secs_f64());
            ok &= resp.is_ok_and(|l| same_pairs(&parse_reply(&l).results, &geo.reference));
        }
        (median(&handle), median(&tcp), ok)
    })?;
    ctx.tally.record(ok, &|| {
        "a kdj request through the server differed from the serial call".to_string()
    });
    let waits: Vec<f64> = server
        .query_reports()
        .iter()
        .map(|r| r.queue_wait_ns as f64 * 1e-6)
        .collect();
    ctx.report.set("serve.handle_p50_ms", handle * 1e3);
    ctx.report
        .set("serve.overhead_p50_ms", (handle - direct) * 1e3);
    ctx.report.set("serve.queue_wait_p50_ms", median(&waits));
    ctx.report.set(
        "serve.admission_rejections",
        server.admission_rejections() as f64,
    );
    ctx.report
        .set("serve.report_rows", server.query_reports().len() as f64);
    ctx.report.set("serve.cursor_slowdown", 0.0);
    ctx.report
        .set("transport.overhead_p50_ms", (tcp - handle) * 1e3);
    ctx.report
        .set("transport.accepted", tstats[0].accepted as f64);
    ctx.report
        .set("transport.cap_rejects", tstats[0].rejected as f64);
    fill_self_times(ctx, ops);
    Ok(())
}
