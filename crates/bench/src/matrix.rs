//! The `amdj bench` matrix: every kdj/idj algorithm (sequential and
//! parallel at several thread counts) over one deterministic generated
//! workload, then a serve section of concurrent mixed queries over a
//! real TCP listener. Each row is its labels plus the data the run
//! already produced: a one-shot row carries its join's [`JoinStats`], a
//! serve row the server's own [`QueryReport`], and both are written by
//! the serve codec's encoders, so a new counter is one edit there.

use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicBool, Ordering};

use amdj_core::engine::{self, JoinKind, JoinRequest, Policy};
use amdj_core::serve::{
    codec::{encode_stats, QueryReport, QuerySpec, Request, Response},
    transport::{serve_listener, TransportOptions},
    ServeOptions, Server,
};
use amdj_core::{
    am_kdj, b_kdj, hs_kdj, sj_sort, write_checkpoint, AmIdj, AmIdjOptions, AmKdjOptions,
    Checkpointed, HsIdj, JoinConfig, JoinOutput, JoinStats, PauseCtl, ResultPair,
};
use amdj_datagen::{clustered_points, uniform_points, unit_universe};
use amdj_rtree::{RTree, RTreeParams};

use crate::{reset, run_join};

/// Bumped whenever rows or fields change shape: 2 added the sjsort kdj
/// row and the hs idj row; 3 the scheduler counters; 4 the buffer
/// hit/miss totals with their per-worker breakdowns; 5 the am-ckpt
/// checkpoint-overhead row and `checkpoints_written`; 8 the serve
/// section; 9 moved it onto the TCP transport; 6, 7 and 10–12 added and
/// later removed the prefilter, partitioning and steal ablations; 13
/// removed the one-thread kdj par rows; 14 writes each one-shot row's
/// `JoinStats` and each serve row's `QueryReport` through the codec's
/// encoders under their field names (`real_dist`, `node_requests`, …),
/// drops the derived `buffer_hit_rate`, and moves the serve section's
/// constants (`transport`, `connections`, `admission_rejections`) into
/// its header.
const SCHEMA_VERSION: u32 = 14;

/// Queries in the serve section.
const SERVE_QUERIES: usize = 144;
/// Client connections the serve section spreads them over.
const SERVE_CONNS: usize = 16;

/// One one-shot row: its labels and its join's counters.
/// `checkpoints_written` is non-zero only on the `am-ckpt` row.
struct Run {
    op: &'static str,
    algo: &'static str,
    threads: usize,
    wall_time_s: f64,
    checkpoints_written: u64,
    stats: JoinStats,
}

/// One serve row: its labels and the server's report of the query.
/// `k` is a cursor's `take`; the wall time runs from the client's first
/// request to its last response.
struct ServeRun {
    threads: usize,
    k: usize,
    wall_time_s: f64,
    report: QueryReport,
}

/// A finished matrix over `n` points per side at base `k`.
pub struct Matrix {
    n: usize,
    k: usize,
    seed: u64,
    runs: Vec<Run>,
    serve: Vec<ServeRun>,
    admission_rejections: u64,
}

impl Matrix {
    /// Rows in both sections.
    pub fn rows(&self) -> usize {
        self.runs.len() + self.serve.len()
    }

    /// The matrix as a JSON document, one row per line.
    pub fn to_json(&self) -> String {
        let Matrix { n, k, seed, .. } = self;
        let runs: Vec<String> = self
            .runs
            .iter()
            .map(|run| {
                format!(
                    "    {{ \"op\": \"{}\", \"algo\": \"{}\", \"threads\": {}, \"k\": {k}, \"wall_time_s\": {:.6}, \"checkpoints_written\": {}, \"stats\": {} }}",
                    run.op,
                    run.algo,
                    run.threads,
                    run.wall_time_s,
                    run.checkpoints_written,
                    encode_stats(&run.stats)
                )
            })
            .collect();
        let serve: Vec<String> = self
            .serve
            .iter()
            .map(|run| {
                format!(
                    "      {{ \"op\": \"serve\", \"threads\": {}, \"k\": {}, \"wall_time_s\": {:.6}, \"report\": {} }}",
                    run.threads,
                    run.k,
                    run.wall_time_s,
                    run.report.encode()
                )
            })
            .collect();
        format!(
            "{{\n  \"schema_version\": {SCHEMA_VERSION},\n  \"workload\": {{ \"n\": {n}, \"k\": {k}, \"seed\": {seed}, \"r\": \"uniform\", \"s\": \"clustered\" }},\n  \"runs\": [\n{}\n  ],\n  \"serve\": {{\n    \"transport\": \"tcp\", \"connections\": {SERVE_CONNS}, \"admission_rejections\": {},\n    \"runs\": [\n{}\n    ]\n  }}\n}}\n",
            runs.join(",\n"),
            self.admission_rejections,
            serve.join(",\n")
        )
    }
}

/// Runs the matrix on `n` uniform × `n` clustered points (seeds `seed`
/// and `seed + 1`) at base `k`. The serve section asserts every wire
/// response bit-identical to its serial one-shot equivalent.
pub fn run(n: usize, k: usize, seed: u64, cfg: &JoinConfig) -> Matrix {
    let a = uniform_points(n, unit_universe(), seed);
    let b = clustered_points(n, 16, 0.02, unit_universe(), seed + 1);
    let r = RTree::bulk_load(RTreeParams::paper_defaults(), a);
    let s = RTree::bulk_load(RTreeParams::paper_defaults(), b);
    let thread_counts = [1usize, 2, 4, 8];
    let mut runs = Vec::new();
    // Set by the checkpoint-overhead run, harvested (and reset) per row.
    let ckpt_written = std::cell::Cell::new(0u64);
    // Every row starts on cold buffers: a row after a multi-thread row
    // would otherwise inherit an LRU state that depends on that row's
    // thread schedule, and its one-thread counters would not repeat.
    let mut record = |op, algo, threads, run: &mut dyn FnMut() -> JoinOutput| {
        reset(&r, &s);
        let start = std::time::Instant::now();
        let out = run();
        runs.push(Run {
            op,
            algo,
            threads,
            wall_time_s: start.elapsed().as_secs_f64(),
            checkpoints_written: ckpt_written.take(),
            stats: out.stats,
        });
    };
    record("kdj", "hs", 1, &mut || hs_kdj(&r, &s, k, cfg));
    record("kdj", "b", 1, &mut || b_kdj(&r, &s, k, cfg));
    // The am row's work sets the am-ckpt row's pause interval below.
    let mut am_work = 0;
    record("kdj", "am", 1, &mut || {
        let out = am_kdj(&r, &s, k, cfg, &AmKdjOptions::default());
        let st = &out.stats;
        am_work = st.stage1_expansions + st.stage2_expansions + st.comp_replays;
        out
    });
    // SJ-SORT gets the paper's favorable oracle: the true k-th distance
    // (taken from an uncounted B-KDJ run before the measured one starts).
    let oracle_dmax = b_kdj(&r, &s, k, cfg).results.last().map_or(0.0, |p| p.dist);
    record("kdj", "sjsort", 1, &mut || {
        sj_sort(&r, &s, k, oracle_dmax, cfg)
    });
    let (exact, aggressive) = (Policy::Exact, Policy::default());
    let kdj = |policy| JoinKind::Kdj { k, policy };
    // One-thread par rows would run exactly the b and am rows' code.
    for &t in &thread_counts[1..] {
        record("kdj", "par", t, &mut || {
            run_join(&r, &s, kdj(exact), t, cfg)
        });
    }
    for &t in &thread_counts[1..] {
        record("kdj", "par-am", t, &mut || {
            run_join(&r, &s, kdj(aggressive), t, cfg)
        });
    }
    // The checkpoint-overhead rows: the same join as an "am" row, run as
    // a sequence of one-thread episodes that each pause after a quarter
    // of that row's expansions and replays, then serialize and write a
    // snapshot. Their stats sum every episode's. Comparing their wall
    // time against "am" prices checkpointing; ci.sh pins their work to
    // the uninterrupted rows'.
    let ckpt_path =
        std::env::temp_dir().join(format!("amdj-bench-ckpt-{}.snap", std::process::id()));
    let episodes = |kind: JoinKind, work: u64| {
        let mut resume = None;
        let mut written = 0u64;
        let mut stats = JoinStats::default();
        loop {
            let ctl = PauseCtl::every((work / 4).max(1));
            let req = JoinRequest {
                resume: resume.take(),
                ..JoinRequest::new(kind.clone(), 1)
            };
            match engine::run(&r, &s, req, cfg, Some(&ctl))
                .expect("fresh or self-produced snapshot is always valid")
            {
                Checkpointed::Done(mut out) => {
                    stats.absorb_episode(&out.stats);
                    out.stats = stats;
                    ckpt_written.set(written);
                    return out;
                }
                Checkpointed::Suspended(snap, episode) => {
                    stats.absorb_episode(&episode);
                    write_checkpoint(&ckpt_path, snap.as_ref()).expect("checkpoint write");
                    written += 1;
                    resume = Some(*snap);
                }
            }
        }
    };
    record("kdj", "am-ckpt", 1, &mut || {
        episodes(kdj(aggressive), am_work)
    });
    record("idj", "hs", 1, &mut || {
        let mut cursor = HsIdj::new(&r, &s, cfg);
        let results = std::iter::from_fn(|| cursor.next()).take(k).collect();
        JoinOutput {
            results,
            stats: cursor.stats(),
        }
    });
    // The take-bounded cursor: the same join as the one-thread par-am
    // row, and its work sets the idj am-ckpt row's pause interval.
    let mut idj_work = 0;
    record("idj", "am", 1, &mut || {
        let mut cursor = AmIdj::with_take(&r, &s, cfg, AmIdjOptions::default(), k);
        let results = std::iter::from_fn(|| cursor.next()).collect();
        let stats = cursor.stats();
        idj_work = stats.stage1_expansions + stats.stage2_expansions + stats.comp_replays;
        JoinOutput { results, stats }
    });
    let incremental = JoinKind::Idj {
        take: k,
        opts: AmIdjOptions::default(),
        window: None,
    };
    record("idj", "am-ckpt", 1, &mut || {
        episodes(incremental.clone(), idj_work)
    });
    let _ = std::fs::remove_file(&ckpt_path);
    for t in thread_counts {
        record("idj", "par-am", t, &mut || {
            run_join(&r, &s, incremental.clone(), t, cfg)
        });
    }
    let (serve, admission_rejections) = run_serve(&r, &s, k, cfg);
    Matrix {
        n,
        k,
        seed,
        runs,
        serve,
        admission_rejections,
    }
}

/// One serve-section query.
enum ServeKind {
    Kdj { k: usize, spec: QuerySpec },
    Idj { take: usize, batch: usize },
}

/// The deterministic tail of a Results line: everything from
/// `"results":` on, which leaves out the contention-dependent
/// `queue_wait_ns`. Distances print in shortest round-trip form, so
/// equal tails mean bit-identical results.
fn results_suffix(line: &str) -> &str {
    let at = line
        .find("\"results\":")
        .unwrap_or_else(|| panic!("bench serve: no results in {line}"));
    &line[at..]
}

/// The Results line a serial run of `results` encodes to.
fn results_line(results: &[ResultPair]) -> String {
    Response::Results {
        id: String::new(),
        op: "kdj",
        results: results.to_vec(),
        done: true,
        delivered_total: 0,
        queue_wait_ns: 0,
    }
    .encode()
}

/// The serve section: 144 concurrent mixed queries — one-shot KDJ at
/// several knob settings plus pull-driven IDJ cursors — driven over a
/// real TCP listener in front of one `serve::Server`, 16 client
/// connections each carrying its share of the queries serially. Every
/// response's results are asserted bit-identical to the serial one-shot
/// equivalent before its row is recorded. Returns the rows and the
/// section's admission rejections.
fn run_serve(r: &RTree<2>, s: &RTree<2>, k: usize, cfg: &JoinConfig) -> (Vec<ServeRun>, u64) {
    let cells: Vec<(String, ServeKind)> = (0..SERVE_QUERIES)
        .map(|i| {
            let kind = match i % 4 {
                0 => ServeKind::Kdj {
                    k: (k / (1 + i % 3)).max(1),
                    spec: QuerySpec::default(),
                },
                1 => ServeKind::Kdj {
                    k: (k / 2).max(1),
                    spec: QuerySpec {
                        aggressive: false,
                        threads: 2,
                    },
                },
                2 => ServeKind::Idj {
                    take: k.max(3),
                    batch: (k / 3).max(1),
                },
                _ => ServeKind::Kdj {
                    k: (k / 4).max(1),
                    spec: QuerySpec {
                        threads: 2,
                        ..QuerySpec::default()
                    },
                },
            };
            (format!("q{i:03}"), kind)
        })
        .collect();
    // Serial expectations through `engine::run` and the standalone cursor.
    let expected: Vec<Vec<ResultPair>> = cells
        .iter()
        .map(|(_, kind)| match kind {
            ServeKind::Kdj { k, spec } => {
                let policy = if spec.aggressive {
                    Policy::default()
                } else {
                    Policy::Exact
                };
                let kind = JoinKind::Kdj { k: *k, policy };
                run_join(r, s, kind, (spec.threads as usize).max(1), cfg).results
            }
            ServeKind::Idj { take, .. } => {
                let mut cursor = AmIdj::new(r, s, cfg, AmIdjOptions::default());
                std::iter::from_fn(|| cursor.next()).take(*take).collect()
            }
        })
        .collect();
    let server = Server::new(
        r,
        s,
        ServeOptions {
            base_config: cfg.clone(),
            ..ServeOptions::default()
        },
    );
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bench serve bind");
    let addr = listener.local_addr().expect("bench serve local addr");
    let topts = TransportOptions::default();
    let stop = AtomicBool::new(false);
    let mut walls = vec![0.0; cells.len()];
    std::thread::scope(|scope| {
        let lh = scope.spawn(|| serve_listener(&server, listener, &topts, &stop));
        let clients: Vec<_> = (0..SERVE_CONNS)
            .map(|c| {
                let (cells, expected) = (&cells, &expected);
                scope.spawn(move || {
                    let stream = std::net::TcpStream::connect(addr).expect("bench serve connect");
                    stream.set_nodelay(true).expect("bench serve nodelay");
                    let mut reader =
                        std::io::BufReader::new(stream.try_clone().expect("bench serve clone"));
                    let mut stream = stream;
                    let mut request = |req: Request| -> String {
                        stream
                            .write_all(req.encode().as_bytes())
                            .and_then(|()| stream.write_all(b"\n"))
                            .expect("bench serve write");
                        let mut resp = String::new();
                        reader.read_line(&mut resp).expect("bench serve read");
                        assert!(
                            resp.contains("\"ok\":true"),
                            "bench serve request failed: {resp}"
                        );
                        resp
                    };
                    let same = |id: &str, resp: &str, want: &[ResultPair]| {
                        assert_eq!(
                            results_suffix(resp.trim_end()),
                            results_suffix(&results_line(want)),
                            "serve query {id} diverged from its serial equivalent over the wire"
                        );
                    };
                    let mut timed = Vec::new();
                    for (i, ((id, kind), want)) in cells.iter().zip(expected).enumerate() {
                        if i % SERVE_CONNS != c {
                            continue;
                        }
                        let start = std::time::Instant::now();
                        match kind {
                            ServeKind::Kdj { k, spec } => {
                                let resp = request(Request::Kdj {
                                    id: id.clone(),
                                    k: *k as u64,
                                    spec: spec.clone(),
                                });
                                same(id, &resp, want);
                            }
                            ServeKind::Idj { take, batch } => {
                                request(Request::IdjOpen {
                                    id: id.clone(),
                                    take: *take as u64,
                                    spec: QuerySpec::default(),
                                });
                                // Each pull delivers the serial stream's next window.
                                for window in want.chunks(*batch) {
                                    let resp = request(Request::IdjPull {
                                        id: id.clone(),
                                        n: *batch as u64,
                                    });
                                    same(id, &resp, window);
                                }
                                request(Request::IdjClose { id: id.clone() });
                            }
                        }
                        timed.push((i, start.elapsed().as_secs_f64()));
                    }
                    timed
                })
            })
            .collect();
        for h in clients {
            for (i, wall) in h.join().expect("bench serve client panicked") {
                walls[i] = wall;
            }
        }
        stop.store(true, Ordering::SeqCst);
        lh.join()
            .expect("bench serve listener panicked")
            .expect("bench serve transport");
    });
    let reports = server.query_reports();
    let rows = cells
        .iter()
        .zip(walls)
        .map(|((id, kind), wall)| {
            let (op, k, threads) = match kind {
                ServeKind::Kdj { k, spec } => ("kdj", *k, (spec.threads as usize).max(1)),
                ServeKind::Idj { take, .. } => ("idj", *take, 1),
            };
            let report = reports
                .iter()
                .find(|r| r.id == *id && r.op == op)
                .expect("every serve query leaves a report")
                .clone();
            ServeRun {
                threads,
                k,
                wall_time_s: wall,
                report,
            }
        })
        .collect();
    (rows, server.admission_rejections())
}
