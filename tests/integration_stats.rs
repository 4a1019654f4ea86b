//! Statistics plausibility across algorithms: the relations the paper's
//! figures rely on must hold on real workloads.

use amdj_core::{
    am_kdj, b_kdj, hs_kdj, sj_sort, within_join, AmIdj, AmIdjOptions, AmKdjOptions, JoinConfig,
    JoinStats,
};
use amdj_datagen::tiger::{self, Geography};
use amdj_datagen::Dataset;
use amdj_geom::{Point, Rect};
use amdj_rtree::{RTree, RTreeParams};
use amdj_tests::{assert_same_distances, build_paper_trees, build_trees};

fn workload() -> (Dataset, Dataset) {
    let geo = Geography::arizona_like(55);
    (geo.streets(3000), geo.hydro(1000))
}

#[test]
fn bkdj_beats_hs_on_distance_computations() {
    // Figure 10(a): far fewer distance computations. The advantage needs
    // realistic fanout (~100 entries/node, the paper's 4 KB pages): with
    // toy fanout the Cartesian child product is too small to matter.
    let (a, b) = workload();
    let (r, s) = build_paper_trees(&a, &b);
    let k = 100;
    let hs = hs_kdj(&r, &s, k, &JoinConfig::unbounded());
    let bk = b_kdj(&r, &s, k, &JoinConfig::unbounded());
    assert_same_distances(&bk.results, &hs.results, "answers agree");
    assert!(
        (bk.stats.real_dist as f64) < 0.5 * hs.stats.real_dist as f64,
        "B-KDJ {} vs HS-KDJ {}",
        bk.stats.real_dist,
        hs.stats.real_dist
    );
    // A point grid at toy fanout: the advantage shrinks, but B-KDJ still
    // computes fewer distances for the same answer.
    let grid = |dx: f64, dy: f64| -> Dataset {
        (0..18 * 18)
            .map(|i| {
                let p = Point::new([(i % 18) as f64 + dx, (i / 18) as f64 + dy]);
                (Rect::from_point(p), i as u64)
            })
            .collect()
    };
    let (r, s) = build_trees(&grid(0.0, 0.0), &grid(0.21, 0.37));
    let k = 10;
    let hs = hs_kdj(&r, &s, k, &JoinConfig::unbounded());
    let bk = b_kdj(&r, &s, k, &JoinConfig::unbounded());
    assert_same_distances(&bk.results, &hs.results, "toy fanout: answers agree");
    assert!(
        bk.stats.real_dist < hs.stats.real_dist,
        "toy fanout: B-KDJ {} vs HS-KDJ {}",
        bk.stats.real_dist,
        hs.stats.real_dist
    );
}

#[test]
fn amkdj_no_worse_than_bkdj() {
    // §5.6: AM-KDJ with the default estimate never needs more queue
    // insertions than B-KDJ (the estimate tends to overestimate); with an
    // eDmax overestimated on purpose, it needs no more distance
    // computations either.
    let (a, b) = workload();
    let (r, s) = build_trees(&a, &b);
    for k in [10, 300] {
        let bk = b_kdj(&r, &s, k, &JoinConfig::unbounded());
        let dmax = bk.results.last().unwrap().dist;
        let over = AmKdjOptions {
            edmax_override: Some(dmax * 1.5),
        };
        for (name, opts) in [("estimated", AmKdjOptions::default()), ("1.5×Dmax", over)] {
            let am = am_kdj(&r, &s, k, &JoinConfig::unbounded(), &opts);
            assert_same_distances(&am.results, &bk.results, "answers agree");
            assert!(
                am.stats.mainq_insertions <= bk.stats.mainq_insertions,
                "k={k} {name}: AM {} vs B {} insertions",
                am.stats.mainq_insertions,
                bk.stats.mainq_insertions
            );
            if opts.edmax_override.is_some() {
                assert!(
                    am.stats.real_dist <= bk.stats.real_dist,
                    "k={k} {name}: AM {} vs B {} distances",
                    am.stats.real_dist,
                    bk.stats.real_dist
                );
            }
        }
    }
}

#[test]
fn node_requests_dominate_disk_reads() {
    let (a, b) = workload();
    let (r, s) = build_trees(&a, &b);
    let out = b_kdj(&r, &s, 200, &JoinConfig::unbounded());
    assert!(out.stats.node_requests >= out.stats.node_disk_reads);
    assert!(out.stats.node_disk_reads > 0);
}

/// The node-request ledger. Every node a join requests is one side of a
/// node-pair expansion (stage one or two) or of a compensation replay,
/// which fetches its parked pair's two nodes again; the only other
/// requests are a few fixed setup reads of the two roots. On trees of
/// equal height every expanded pair is ⟨node, node⟩, so each expansion
/// and each replay requests exactly two nodes.
#[test]
fn node_requests_ledger() {
    let grid = |n: usize, dx: f64, dy: f64| -> Vec<(Rect<2>, u64)> {
        (0..n * n)
            .map(|i| {
                let x = (i % n) as f64 + dx + (i as f64 * 0.000137).sin() * 0.01;
                let y = (i / n) as f64 + dy + (i as f64 * 0.000271).cos() * 0.01;
                (Rect::from_point(Point::new([x, y])), i as u64)
            })
            .collect()
    };
    let (r, s) = build_trees(&grid(30, 0.0, 0.0), &grid(30, 0.31, 0.17));
    assert_eq!(r.height(), s.height(), "the ledger assumes equal heights");
    let sides =
        |st: &JoinStats| 2 * (st.stage1_expansions + st.stage2_expansions + st.comp_replays);
    // Setup reads: the root pair's bounds and the Eq. 3 estimator's.
    const SETUP: u64 = 4;
    let cfg = JoinConfig::unbounded();
    let k = 300;
    let bk = b_kdj(&r, &s, k, &cfg);
    assert_eq!(bk.stats.node_requests, sides(&bk.stats) + SETUP, "B-KDJ");
    let dmax = bk.results.last().unwrap().dist;
    let mut replayed = false;
    for (name, edmax) in [("exact", dmax), ("over", 1.5 * dmax), ("under", 0.2 * dmax)] {
        let am = am_kdj(
            &r,
            &s,
            k,
            &cfg,
            &AmKdjOptions {
                edmax_override: Some(edmax),
            },
        );
        assert_same_distances(&am.results, &bk.results, name);
        assert_eq!(
            am.stats.node_requests,
            sides(&am.stats) + SETUP,
            "AM-KDJ {name}: {:?}",
            am.stats
        );
        replayed |= am.stats.comp_replays > 0;
    }
    assert!(
        replayed,
        "an underestimate must replay compensation entries"
    );

    // A small first-stage target makes the cursor cross stages.
    let opts = AmIdjOptions {
        initial_k: 16,
        growth: 2.0,
        ..AmIdjOptions::default()
    };
    let mut cursor = AmIdj::new(&r, &s, &cfg, opts);
    let streamed = std::iter::from_fn(|| cursor.next()).take(k).count();
    assert_eq!(streamed, k);
    let st = cursor.stats();
    assert!(st.comp_replays > 0, "AM-IDJ must cross a stage: {st:?}");
    // The incremental join also reads both root bounds for its largest
    // possible distance.
    assert_eq!(st.node_requests, sides(&st) + SETUP + 2, "AM-IDJ: {st:?}");
}

#[test]
fn axis_distances_bound_real_distances() {
    // Every real distance computation is gated by an axis check first.
    let (a, b) = workload();
    let (r, s) = build_trees(&a, &b);
    let out = b_kdj(&r, &s, 150, &JoinConfig::unbounded());
    assert!(out.stats.axis_dist >= out.stats.real_dist);
}

/// §3.2's axis choice must still pay at a zero cutoff, where every
/// axis's sweeping index is 0: the right-hand limit ranks the axes, so a
/// distance-0 `within` join must compute fewer real distances than the
/// same join swept on axis 0 (37,591 on this workload), with the same
/// answer.
#[test]
fn zero_cutoff_axis_choice_saves_real_distances() {
    let (a, b) = tiger::arizona_workload(0.01, 2000);
    let (r, s) = build_paper_trees(&a, &b);
    let join = |optimize_axis| {
        let cfg = JoinConfig {
            optimize_axis,
            ..JoinConfig::unbounded()
        };
        let mut out = within_join(&r, &s, 0.0, &cfg);
        out.results.sort_by_key(|p| (p.r, p.s));
        out
    };
    let (on, off) = (join(true), join(false));
    assert!(!on.results.is_empty(), "the workload has distance-0 pairs");
    assert_eq!(on.results, off.results, "same result set");
    assert!(
        on.stats.real_dist < off.stats.real_dist,
        "axis selection on {} vs off {}",
        on.stats.real_dist,
        off.stats.real_dist
    );
}

#[test]
fn underestimated_edmax_bounded_by_twice_bkdj() {
    // §5.6: even badly underestimated, AM-KDJ's work is bounded by about
    // twice B-KDJ (each child pair examined at most once per stage).
    let (a, b) = workload();
    let (r, s) = build_trees(&a, &b);
    let k = 200;
    let bk = b_kdj(&r, &s, k, &JoinConfig::unbounded());
    let dmax = bk.results.last().unwrap().dist;
    let am = am_kdj(
        &r,
        &s,
        k,
        &JoinConfig::unbounded(),
        &AmKdjOptions {
            edmax_override: Some(0.1 * dmax),
        },
    );
    assert_same_distances(&am.results, &bk.results, "answers agree");
    assert_eq!(am.stats.stages, 2, "an underestimate runs compensation");
    assert!(
        am.stats.real_dist <= 2 * bk.stats.real_dist + 1000,
        "AM {} vs 2×B {}",
        am.stats.real_dist,
        2 * bk.stats.real_dist
    );
}

#[test]
fn sjsort_oracle_run_is_competitive_on_distances() {
    // Figure 10(a): AM-KDJ is almost identical to SJ-SORT in distance
    // computations; both are far below HS-KDJ.
    let (a, b) = workload();
    let (r, s) = build_trees(&a, &b);
    let k = 100;
    let bk = b_kdj(&r, &s, k, &JoinConfig::unbounded());
    let dmax = bk.results.last().unwrap().dist;
    let sj = sj_sort(&r, &s, k, dmax, &JoinConfig::unbounded());
    let hs = hs_kdj(&r, &s, k, &JoinConfig::unbounded());
    assert!(sj.stats.real_dist < hs.stats.real_dist);
    assert_same_distances(&sj.results, &bk.results, "answers agree");
}

#[test]
fn results_count_matches_stats() {
    let (a, b) = workload();
    let (r, s) = build_trees(&a, &b);
    let out = am_kdj(
        &r,
        &s,
        77,
        &JoinConfig::unbounded(),
        &AmKdjOptions::default(),
    );
    assert_eq!(out.stats.results, out.results.len() as u64);
    assert_eq!(out.results.len(), 77);
}

/// Modeled I/O is priced from transfer counts, not accumulated in a
/// float: identical queries on the same warm trees report identical
/// counters and bit-identical `io_seconds`, however much I/O the trees'
/// disks saw before them.
#[test]
fn repeated_queries_report_identical_stats() {
    let (a, b) = workload();
    // Paper pages and disk cost, but a four-page buffer, so warm queries
    // still miss and pay modeled tree I/O.
    let params = RTreeParams {
        buffer_bytes: 4 * 4096,
        ..RTreeParams::paper_defaults()
    };
    let r = RTree::bulk_load(params.clone(), a);
    let s = RTree::bulk_load(params, b);
    let cfg = JoinConfig::default();
    let run = || {
        let st = am_kdj(&r, &s, 200, &cfg, &AmKdjOptions::default()).stats;
        JoinStats {
            cpu_seconds: 0.0,
            ..st
        }
    };
    run(); // warm the buffers
    let first = run();
    assert!(first.node_disk_reads > 0, "{first:?}");
    assert!(first.io_seconds > 0.0, "{first:?}");
    for i in 1..4 {
        let st = run();
        assert_eq!(
            st.io_seconds.to_bits(),
            first.io_seconds.to_bits(),
            "run {i}: {} s vs {} s",
            st.io_seconds,
            first.io_seconds
        );
        assert_eq!(st, first, "run {i}");
    }
}
