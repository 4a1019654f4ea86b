//! Concurrency proofs for the serve-mode [`Server`]: N concurrent mixed
//! KDJ/IDJ queries over one shared tree pair must each return the exact
//! result stream its serial one-shot equivalent returns — bit for bit —
//! and the per-query buffer attribution must account for every fetch.
//!
//! The attribution invariant is the sharp one: each query's
//! `buffer_hits`/`buffer_misses` combine the coordinating handler
//! thread's deltas (the engine's `Baseline`), its workers' deltas
//! (worker spans), and — for cursors — every suspended episode's stats
//! (which ride `Checkpointed::Suspended`). Summing the per-query rows
//! must therefore reproduce the shared buffer's global counter deltas
//! exactly: nothing double-counted, nothing dropped.

use amdj_core::serve::{
    codec::{QuerySpec, Response},
    ServeError, ServeOptions, Server,
};
use amdj_core::{
    am_kdj, b_kdj, par_am_kdj, par_b_kdj, AmIdj, AmIdjOptions, AmKdjOptions, JoinConfig, ResultPair,
};
use amdj_datagen::{clustered_points, uniform_points, unit_universe};
use amdj_rtree::RTree;
use amdj_tests::build_trees;

/// One concurrent query of the mixed workload.
enum Kind {
    Kdj { k: usize, spec: QuerySpec },
    Idj { take: usize, batch: usize },
}

/// The deterministic mixed workload: a cycle of aggressive sequential
/// KDJ, exact 2-thread KDJ, pull-driven IDJ cursors, and aggressive
/// 2-thread KDJ, with varying k.
fn cells(n_queries: usize, k: usize) -> Vec<(String, Kind)> {
    (0..n_queries)
        .map(|i| {
            let kind = match i % 4 {
                0 => Kind::Kdj {
                    k: (k / (1 + i % 3)).max(1),
                    spec: QuerySpec::default(),
                },
                1 => Kind::Kdj {
                    k: (k / 2).max(1),
                    spec: QuerySpec {
                        aggressive: false,
                        threads: 2,
                        ..QuerySpec::default()
                    },
                },
                2 => Kind::Idj {
                    take: k.max(3),
                    batch: (k / 3).max(1),
                },
                _ => Kind::Kdj {
                    k: (k / 4).max(1),
                    spec: QuerySpec {
                        threads: 2,
                        ..QuerySpec::default()
                    },
                },
            };
            (format!("q{i:02}"), kind)
        })
        .collect()
}

/// The serial one-shot equivalent of one query, through the ordinary
/// library entry points: its result stream and its stage count.
fn serial(r: &RTree<2>, s: &RTree<2>, cfg: &JoinConfig, kind: &Kind) -> (Vec<ResultPair>, u32) {
    match kind {
        Kind::Kdj { k, spec } => {
            let mut c = cfg.clone();
            if let Some(steal) = spec.steal {
                c.steal = steal;
            }
            // Mirror the server's `config_for`: 0 keeps the base
            // config's partitioning, nonzero overrides it.
            if spec.partitions > 0 {
                c.partitions = (spec.partitions > 1).then_some(spec.partitions as usize);
            }
            let t = (spec.threads as usize).max(1);
            let out = match (spec.aggressive, t > 1) {
                (true, false) => am_kdj(r, s, *k, &c, &AmKdjOptions::default()),
                (true, true) => par_am_kdj(r, s, *k, &c, &AmKdjOptions::default(), t),
                (false, false) => b_kdj(r, s, *k, &c),
                (false, true) => par_b_kdj(r, s, *k, &c, t),
            };
            (out.results, out.stats.stages)
        }
        Kind::Idj { take, .. } => {
            let mut cursor = AmIdj::new(r, s, cfg, AmIdjOptions::default());
            let mut out = Vec::with_capacity(*take);
            while out.len() < *take {
                match cursor.next() {
                    Some(p) => out.push(p),
                    None => break,
                }
            }
            (out, cursor.stats().stages)
        }
    }
}

fn assert_identical(label: &str, want: &[ResultPair], got: &[ResultPair]) {
    assert_eq!(want.len(), got.len(), "{label}: result count");
    for (i, (a, b)) in want.iter().zip(got.iter()).enumerate() {
        assert_eq!(
            a.dist.to_bits(),
            b.dist.to_bits(),
            "{label}: rank {i} distance"
        );
        assert_eq!((a.r, a.s), (b.r, b.s), "{label}: rank {i} ids");
    }
}

/// Runs `n_queries` concurrent mixed queries through one server and
/// checks bit-identity against serial plus the counter-sum invariant.
fn run_mixed(n_queries: usize) {
    let a = uniform_points(600, unit_universe(), 11);
    let b = clustered_points(600, 16, 0.02, unit_universe(), 12);
    let (r, s) = build_trees(&a, &b);
    let cfg = JoinConfig::default();
    let cells = cells(n_queries, 60);
    // Serial expectations first: their buffer traffic must not land in
    // the window the global-counter delta is measured over.
    let (expected, expected_stages): (Vec<Vec<ResultPair>>, Vec<u32>) = cells
        .iter()
        .map(|(_, kind)| serial(&r, &s, &cfg, kind))
        .unzip();
    let hits_before = r.buffer_hits() + s.buffer_hits();
    let misses_before = r.buffer_misses() + s.buffer_misses();
    let evictions_before = r.buffer_evictions() + s.buffer_evictions();
    let server = Server::new(
        &r,
        &s,
        ServeOptions {
            base_config: cfg.clone(),
            ..ServeOptions::default()
        },
    );
    let measured: Vec<Vec<ResultPair>> = std::thread::scope(|scope| {
        let handles: Vec<_> = cells
            .iter()
            .map(|(id, kind)| {
                let server = &server;
                scope.spawn(move || match kind {
                    Kind::Kdj { k, spec } => server.kdj(id, *k, spec).expect("admitted").0.results,
                    Kind::Idj { take, batch } => {
                        server
                            .idj_open(id, *take, QuerySpec::default())
                            .expect("cursor opens");
                        let mut out = Vec::with_capacity(*take);
                        loop {
                            let pull = server.idj_pull(id, *batch).expect("pull");
                            out.extend(pull.results);
                            if pull.done || out.len() >= *take {
                                break;
                            }
                        }
                        server.idj_close(id).expect("cursor closes");
                        out
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("query panicked"))
            .collect()
    });
    for (((id, _), got), want) in cells.iter().zip(&measured).zip(&expected) {
        assert_identical(id, want, got);
    }
    // The counter-sum invariant: per-query attribution reproduces the
    // shared buffer's global deltas exactly.
    let reports = server.query_reports();
    assert_eq!(reports.len(), cells.len(), "one report per query");
    let sum_hits: u64 = reports.iter().map(|rep| rep.buffer_hits).sum();
    let sum_misses: u64 = reports.iter().map(|rep| rep.buffer_misses).sum();
    let sum_evictions: u64 = reports.iter().map(|rep| rep.buffer_evictions).sum();
    let global_hits = r.buffer_hits() + s.buffer_hits() - hits_before;
    let global_misses = r.buffer_misses() + s.buffer_misses() - misses_before;
    let global_evictions = r.buffer_evictions() + s.buffer_evictions() - evictions_before;
    assert_eq!(
        sum_hits, global_hits,
        "per-query hits sum to the global delta"
    );
    assert_eq!(
        sum_misses, global_misses,
        "per-query misses sum to the global delta"
    );
    assert_eq!(
        sum_evictions, global_evictions,
        "per-query evictions sum to the global delta"
    );
    // Every report delivered what its query's serial equivalent did, in
    // as many stages: a one-thread kdj runs the serial join itself, a
    // two-thread one may or may not owe a stage two, and a cursor —
    // however its episodes were cut — stays within one stage of the
    // direct `AmIdj`.
    for (((id, kind), want), &stages) in cells.iter().zip(&expected).zip(&expected_stages) {
        let rep = reports
            .iter()
            .find(|rep| rep.id == *id)
            .expect("report exists");
        assert_eq!(rep.results, want.len() as u64, "{id}: reported results");
        match kind {
            Kind::Kdj { spec, .. } if spec.threads <= 1 => {
                assert_eq!(rep.stages, stages, "{id}: reported stages")
            }
            Kind::Kdj { .. } => assert!(
                (1..=2).contains(&rep.stages),
                "{id}: reported stages {}",
                rep.stages
            ),
            Kind::Idj { .. } => assert!(
                (1..=stages + 1).contains(&rep.stages),
                "{id}: cursor reported stage {} (direct: {stages})",
                rep.stages
            ),
        }
    }
}

#[test]
fn two_concurrent_queries_bit_identical_and_attributed() {
    run_mixed(2);
}

#[test]
fn eight_concurrent_queries_bit_identical_and_attributed() {
    run_mixed(8);
}

#[test]
fn thirty_two_concurrent_queries_bit_identical_and_attributed() {
    run_mixed(32);
}

/// Per-query `threads`/`partitions` come straight off the wire as
/// arbitrary u64s; the engine spawns exactly `threads` OS threads, so
/// out-of-range values must be structured rejections at every
/// join-bearing entry point — never a million `thread::spawn`s.
#[test]
fn wire_thread_and_partition_caps_are_enforced() {
    let a = uniform_points(200, unit_universe(), 31);
    let b = clustered_points(200, 8, 0.02, unit_universe(), 32);
    let (r, s) = build_trees(&a, &b);
    let server = Server::new(&r, &s, ServeOptions::default());
    let max_threads = server.options().max_threads;
    let max_partitions = server.options().max_partitions;

    let over_threads = QuerySpec {
        threads: max_threads + 1,
        ..QuerySpec::default()
    };
    let err = server.kdj("t", 5, &over_threads).expect_err("over cap");
    assert!(
        matches!(
            err,
            ServeError::SpecOutOfRange {
                knob: "threads",
                ..
            }
        ),
        "kdj rejects over-cap threads, got {err}"
    );
    let err = server
        .idj_open("t", 5, over_threads.clone())
        .expect_err("over cap");
    assert!(
        matches!(
            err,
            ServeError::SpecOutOfRange {
                knob: "threads",
                ..
            }
        ),
        "idj_open rejects over-cap threads, got {err}"
    );
    let err = server
        .idj_resume("t", &[], 0, over_threads)
        .expect_err("over cap");
    assert!(
        matches!(
            err,
            ServeError::SpecOutOfRange {
                knob: "threads",
                ..
            }
        ),
        "idj_resume rejects the spec before touching the snapshot, got {err}"
    );

    let over_parts = QuerySpec {
        partitions: max_partitions + 1,
        ..QuerySpec::default()
    };
    let err = server.kdj("p", 5, &over_parts).expect_err("over cap");
    assert!(
        matches!(
            err,
            ServeError::SpecOutOfRange {
                knob: "partitions",
                ..
            }
        ),
        "kdj rejects over-cap partitions, got {err}"
    );

    // Through the wire seam the rejection is a structured error line,
    // not a panic that would abort the serve thread scope.
    let line = format!(
        "{{\"op\":\"kdj\",\"id\":\"w\",\"k\":5,\"threads\":{}}}",
        u64::MAX
    );
    let (resp, stop) = server.handle_line(line.as_bytes());
    assert!(!stop);
    assert!(
        resp.encode().contains("\"ok\":false"),
        "wire rejection is structured: {}",
        resp.encode()
    );

    // In-range specs still run.
    server
        .kdj(
            "ok",
            5,
            &QuerySpec {
                threads: 2,
                partitions: 2,
                ..QuerySpec::default()
            },
        )
        .expect("in-range spec runs");
}

/// A reused kdj id must accumulate its queries' buffer deltas in its
/// report row; replacing them would break the rows-sum-to-global-
/// deltas invariant the serve stats advertise.
#[test]
fn reused_kdj_id_accumulates_attribution() {
    let a = uniform_points(300, unit_universe(), 41);
    let b = clustered_points(300, 8, 0.02, unit_universe(), 42);
    let (r, s) = build_trees(&a, &b);
    let server = Server::new(&r, &s, ServeOptions::default());
    let (_, rep1) = server
        .kdj("dup", 20, &QuerySpec::default())
        .expect("first query");
    let (_, rep2) = server
        .kdj("dup", 35, &QuerySpec::default())
        .expect("second query");
    let reports = server.query_reports();
    assert_eq!(reports.len(), 1, "one row per id+op");
    let row = &reports[0];
    assert_eq!(row.buffer_hits, rep1.buffer_hits + rep2.buffer_hits);
    assert_eq!(row.buffer_misses, rep1.buffer_misses + rep2.buffer_misses);
    assert_eq!(row.results, rep1.results + rep2.results);
    assert_eq!(
        row.stages,
        rep1.stages.max(rep2.stages),
        "stages is a maximum, not a counter"
    );
    assert_eq!(
        row.queue_wait_ns,
        rep1.queue_wait_ns + rep2.queue_wait_ns,
        "waits are per-request deltas and sum"
    );
}

/// Pulls a u64 field off an encoded wire line.
fn wire_field_u64(line: &str, name: &str) -> u64 {
    let pat = format!("\"{name}\":");
    let at = line
        .find(&pat)
        .unwrap_or_else(|| panic!("no {name} in {line}"));
    let rest = &line[at + pat.len()..];
    let end = rest.find([',', '}']).expect("field terminated");
    rest[..end].parse().expect("u64 field")
}

/// Regression: `idj_pull` wire responses used to hard-code
/// `queue_wait_ns: 0`, hiding real admission queueing from clients
/// even while the per-query stats log recorded it. A pull that
/// demonstrably waited for the budget must report a nonzero cumulative
/// wait on its own wire response.
#[test]
fn contended_wire_pull_reports_nonzero_queue_wait() {
    let a = uniform_points(600, unit_universe(), 51);
    let b = clustered_points(600, 16, 0.02, unit_universe(), 52);
    let (r, s) = build_trees(&a, &b);
    let cfg = JoinConfig::default();
    // One admission slot and a waiting line: while any query executes,
    // a pull must queue.
    let server = Server::new(
        &r,
        &s,
        ServeOptions {
            mem_budget_bytes: cfg.queue_mem_bytes as u64,
            max_waiting: 8,
            base_config: cfg.clone(),
            ..ServeOptions::default()
        },
    );
    server
        .idj_open("c", 60, QuerySpec::default())
        .expect("opens");
    // The cursor's wire wait is cumulative across its pulls, so one
    // contended round suffices; rounds guard against the holder
    // finishing before the pull even asks for admission.
    for round in 0..10 {
        let waited = std::thread::scope(|scope| {
            let server = &server;
            let holder = scope.spawn(move || {
                let id = format!("holder{round}");
                server
                    .kdj(&id, 200, &QuerySpec::default())
                    .expect("holder admitted");
            });
            // Only pull once the holder demonstrably occupies the slot.
            loop {
                let Response::Stats { mem_in_use, .. } = server.stats() else {
                    panic!("stats() returns Stats");
                };
                if mem_in_use > 0 {
                    break;
                }
                if holder.is_finished() {
                    return 0; // raced past us: retry the round
                }
                std::thread::yield_now();
            }
            let (resp, stop) = server.handle_line(b"{\"op\":\"idj_pull\",\"id\":\"c\",\"n\":3}");
            assert!(!stop);
            let line = resp.encode();
            assert!(line.contains("\"ok\":true"), "pull succeeded: {line}");
            wire_field_u64(&line, "queue_wait_ns")
        });
        if waited > 0 {
            return;
        }
    }
    panic!("ten contended pulls never reported a nonzero queue_wait_ns on the wire");
}

/// Regression: `config_for` used to overwrite the server's configured
/// `base_config.partitions` with the wire default (0) whenever a
/// request omitted the knob, silently demoting a partition-configured
/// server to monolithic plans. A spec-silent query must inherit the
/// base config's partitioning; explicit wire values must still
/// override in both directions.
#[test]
fn wire_default_partitions_preserve_partitioned_base_config() {
    let a = uniform_points(400, unit_universe(), 61);
    let b = clustered_points(400, 8, 0.02, unit_universe(), 62);
    let (r, s) = build_trees(&a, &b);
    let cfg = JoinConfig {
        partitions: Some(2),
        ..JoinConfig::default()
    };
    let server = Server::new(
        &r,
        &s,
        ServeOptions {
            base_config: cfg.clone(),
            ..ServeOptions::default()
        },
    );
    // A request that says nothing about partitions (the codec default)
    // must run the base config's partitioned plan.
    let (out, _) = server
        .kdj("silent", 30, &QuerySpec::default())
        .expect("spec-silent query runs");
    assert!(
        out.stats.partition_pairs_total > 0,
        "the server-configured partitioned plan survived wire defaults"
    );
    // An explicit `partitions: 1` is a real opt-out into monolithic…
    let (out, _) = server
        .kdj(
            "mono",
            30,
            &QuerySpec {
                partitions: 1,
                ..QuerySpec::default()
            },
        )
        .expect("explicit monolithic query runs");
    assert_eq!(
        out.stats.partition_pairs_total, 0,
        "explicit partitions=1 overrides the partitioned base config"
    );
    // …and an explicit fan-out overrides the base config's own.
    let (out, _) = server
        .kdj(
            "wide",
            30,
            &QuerySpec {
                partitions: 3,
                ..QuerySpec::default()
            },
        )
        .expect("explicit partitioned query runs");
    assert!(
        out.stats.partition_pairs_total > 0,
        "explicit partitions=3 repartitions"
    );
}
