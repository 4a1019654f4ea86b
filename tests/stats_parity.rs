//! Worker-stats accounting: on one thread, the parallel backend must do
//! exactly the work the sequential backend does — same distance
//! computations, same queue insertions, same expansions, same node
//! accesses — because a single worker receives the whole frontier (one
//! root pair) and every unit of work happens in exactly one place. Any
//! drift means a parallel path double-counts (e.g. re-counting a pooled
//! stage-two seed that was already counted when it first entered a queue)
//! or silently skips work.
//!
//! Excluded from the parity set: `bound_tightenings` (the sequential
//! backend has no shared bound to publish into), wall-clock and modeled
//! I/O times, `node_disk_reads` (buffer state carries across the runs),
//! and — for the incremental join only — `distq_insertions` (the parallel
//! cursor owns a merge-side distance queue the sequential cursor does not
//! have).
//!
//! The one-thread parity tests run against the work-stealing path, so
//! they also pin its claim protocol: a lone worker claims the single root
//! seed and replays the sequential join counter for counter, stealing
//! nothing.

use amdj_core::{
    am_kdj, b_kdj, par_am_idj, par_am_kdj, par_b_kdj, AmIdj, AmIdjOptions, AmKdjOptions,
    JoinConfig, JoinStats,
};
use amdj_geom::{Point, Rect};
use amdj_rtree::{RTree, RTreeParams};

/// Tie-free dataset: irrational-ish strides keep every pair distance
/// distinct, so sequential and single-worker-parallel traversal orders
/// coincide exactly and the counter comparison is meaningful.
fn scatter(n: usize, sx: f64, sy: f64, phase: f64) -> Vec<(Rect<2>, u64)> {
    (0..n * n)
        .map(|i| {
            let x = (i % n) as f64 * sx + (i as f64 * 0.0137 + phase).sin();
            let y = (i / n) as f64 * sy + (i as f64 * 0.0271 + phase).cos();
            (Rect::from_point(Point::new([x, y])), i as u64)
        })
        .collect()
}

fn trees(a: &[(Rect<2>, u64)], b: &[(Rect<2>, u64)]) -> (RTree<2>, RTree<2>) {
    (
        RTree::bulk_load(RTreeParams::for_tests(), a.to_vec()),
        RTree::bulk_load(RTreeParams::for_tests(), b.to_vec()),
    )
}

fn assert_parity(label: &str, seq: &JoinStats, par: &JoinStats, with_distq: bool) {
    assert_eq!(seq.results, par.results, "{label}: results");
    assert_eq!(seq.stages, par.stages, "{label}: stages");
    assert_eq!(seq.real_dist, par.real_dist, "{label}: real_dist");
    assert_eq!(seq.axis_dist, par.axis_dist, "{label}: axis_dist");
    assert_eq!(
        seq.mainq_insertions, par.mainq_insertions,
        "{label}: mainq_insertions"
    );
    if with_distq {
        assert_eq!(
            seq.distq_insertions, par.distq_insertions,
            "{label}: distq_insertions"
        );
    }
    assert_eq!(
        seq.compq_insertions, par.compq_insertions,
        "{label}: compq_insertions"
    );
    assert_eq!(seq.comp_replays, par.comp_replays, "{label}: comp_replays");
    assert_eq!(
        seq.stage1_expansions, par.stage1_expansions,
        "{label}: stage1_expansions"
    );
    assert_eq!(
        seq.stage2_expansions, par.stage2_expansions,
        "{label}: stage2_expansions"
    );
    assert_eq!(
        seq.node_requests, par.node_requests,
        "{label}: node_requests"
    );
}

#[test]
fn exact_policy_one_thread_equals_sequential() {
    let a = scatter(13, 1.618, 2.414, 0.0);
    let b = scatter(13, 1.732, 2.236, 0.37);
    let (r, s) = trees(&a, &b);
    for k in [1, 17, 90, 300] {
        let seq = b_kdj(&r, &s, k, &JoinConfig::unbounded());
        let par = par_b_kdj(&r, &s, k, &JoinConfig::unbounded(), 1);
        assert_eq!(seq.results, par.results, "k={k}: results must be identical");
        assert_parity(&format!("b_kdj k={k}"), &seq.stats, &par.stats, true);
        // One worker, one root seed: there is no one to steal from.
        assert_eq!(par.stats.pairs_stolen, 0, "k={k}: pairs_stolen");
    }
}

#[test]
fn aggressive_policy_one_thread_equals_sequential() {
    let a = scatter(12, 1.618, 2.414, 0.1);
    let b = scatter(12, 1.732, 2.236, 0.73);
    let (r, s) = trees(&a, &b);
    let k = 80;
    let exact = b_kdj(&r, &s, k, &JoinConfig::unbounded());
    let dmax = exact.results.last().unwrap().dist;
    // The estimator path plus adversarial overrides: the under-estimates
    // force the pooled stage-two redistribution, where the uncounted
    // re-seeding discipline is what keeps the counters honest.
    let mut variants = vec![("estimated".to_string(), AmKdjOptions::default())];
    for factor in [0.0, 0.2, 0.7, 1.5] {
        variants.push((
            format!("{factor}×Dmax"),
            AmKdjOptions {
                edmax_override: Some(dmax * factor),
            },
        ));
    }
    for (name, opts) in variants {
        let seq = am_kdj(&r, &s, k, &JoinConfig::unbounded(), &opts);
        let par = par_am_kdj(&r, &s, k, &JoinConfig::unbounded(), &opts, 1);
        assert_eq!(seq.results, par.results, "{name}: results");
        assert_parity(&format!("am_kdj {name}"), &seq.stats, &par.stats, true);
        assert_eq!(par.stats.pairs_stolen, 0, "{name}: pairs_stolen");
    }
}

#[test]
fn incremental_one_thread_equals_sequential_cursor() {
    let a = scatter(10, 1.618, 2.414, 0.2);
    let b = scatter(10, 1.732, 2.236, 0.51);
    let (r, s) = trees(&a, &b);
    let opts = AmIdjOptions {
        initial_k: 16,
        growth: 2.0,
        ..AmIdjOptions::default()
    };
    for take in [1, 40, 200] {
        let mut cursor = AmIdj::new(&r, &s, &JoinConfig::unbounded(), opts.clone());
        let mut seq_results = Vec::new();
        while seq_results.len() < take {
            match cursor.next() {
                Some(p) => seq_results.push(p),
                None => break,
            }
        }
        let seq = cursor.stats();
        let par = par_am_idj(&r, &s, take, &JoinConfig::unbounded(), &opts, 1);
        assert_eq!(seq_results, par.results, "take={take}: results");
        assert_parity(&format!("am_idj take={take}"), &seq, &par.stats, false);
    }
}

#[test]
fn multi_thread_workers_sum_to_all_work() {
    // Across thread counts the totals cannot be compared exactly (the
    // shared bound changes how much work each worker does), but the
    // accounting identities must hold: every real distance was preceded
    // by an axis distance, and all per-stage expansion counters are
    // consistent with the recorded stage count.
    let a = scatter(12, 1.618, 2.414, 0.3);
    let b = scatter(12, 1.732, 2.236, 0.19);
    let (r, s) = trees(&a, &b);
    for threads in [2, 4, 8] {
        let out = par_am_kdj(
            &r,
            &s,
            60,
            &JoinConfig::unbounded(),
            &AmKdjOptions {
                edmax_override: Some(0.5),
            },
            threads,
        );
        let st = out.stats;
        assert_eq!(st.results, 60, "threads={threads}");
        assert!(st.axis_dist >= st.real_dist, "threads={threads}");
        assert!(st.stage1_expansions > 0, "threads={threads}");
        if st.stages == 1 {
            assert_eq!(st.stage2_expansions, 0, "threads={threads}");
        }
    }
}
