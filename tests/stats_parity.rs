//! Worker-stats accounting: every one-thread entry point must do exactly
//! the paper's sequential work — same distance computations, same queue
//! insertions and spill pages, same expansions, same node accesses —
//! because a single worker receives the whole frontier (one root pair)
//! and every unit of work happens in exactly one place. Any drift means
//! a path double-counts (e.g. re-counting a pooled stage-two seed that
//! was already counted when it first entered a queue) or silently does
//! extra work.
//!
//! Excluded from the parity set: wall-clock and modeled I/O times,
//! `node_disk_reads` (buffer state carries across the runs), and — for
//! the incremental join only — `bound_tightenings` (the claim-round
//! cursor publishes into a shared bound the standalone cursor does not
//! have). The standalone cursor is given the same `take` as the
//! claim-round join, so both bound themselves with the same `take`
//! queue and count the same distance-queue insertions.
//!
//! The tests pin the claim protocol too: a lone worker claims the single
//! root seed, steals nothing, and stops at its `k`-th result even when
//! the k-th distance is tied — the k-distance tests' self-join inputs put
//! `k` inside the distance-0 group, under a spilling queue budget. The
//! incremental test has no tied input: the claim-round cursor's lone
//! worker still walks the tie group past `take`, so it picks other tied
//! pairs than the standalone cursor (an open ROADMAP item).

use amdj_core::serve::codec::Response;
use amdj_core::serve::{ServeOptions, Server};
use amdj_core::{
    am_kdj, b_kdj, par_am_idj, par_am_kdj, AmIdj, AmIdjOptions, AmKdjOptions, JoinConfig, JoinStats,
};
use amdj_geom::{Point, Rect};
use amdj_rtree::{RTree, RTreeParams};
use amdj_tests::{exact, run_join};

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

/// A spilling queue budget: the tie inputs' main queues page out.
fn spilling() -> JoinConfig {
    let mut cfg = JoinConfig::with_queue_memory(4 * 1024);
    cfg.queue_cost.page_size = 1024;
    cfg
}

/// Asserts both runs spilled and read back the same queue pages.
fn assert_spill_parity(label: &str, seq: &JoinStats, par: &JoinStats) {
    assert!(seq.queue_page_writes > 0, "{label}: the queue must spill");
    assert_eq!(
        seq.queue_page_reads, par.queue_page_reads,
        "{label}: queue_page_reads"
    );
    assert_eq!(
        seq.queue_page_writes, par.queue_page_writes,
        "{label}: queue_page_writes"
    );
}

/// The serve layer's `{"op":"kdj","threads":1}` answer on `r × s`.
fn serve_kdj(r: &RTree<2>, s: &RTree<2>, k: usize, cfg: &JoinConfig) -> Vec<amdj_core::ResultPair> {
    let opts = ServeOptions {
        base_config: cfg.clone(),
        ..ServeOptions::default()
    };
    let server = Server::new(r, s, opts);
    let line = format!(r#"{{"op":"kdj","id":"t","k":{k},"threads":1}}"#);
    match server.handle_line(line.as_bytes()).0 {
        Response::Results { results, .. } => results,
        other => panic!("kdj over serve failed: {other:?}"),
    }
}

fn assert_parity(label: &str, seq: &JoinStats, par: &JoinStats, kdj: bool) {
    assert_eq!(seq.results, par.results, "{label}: results");
    assert_eq!(seq.stages, par.stages, "{label}: stages");
    assert_eq!(seq.real_dist, par.real_dist, "{label}: real_dist");
    assert_eq!(seq.axis_dist, par.axis_dist, "{label}: axis_dist");
    assert_eq!(
        seq.mainq_insertions, par.mainq_insertions,
        "{label}: mainq_insertions"
    );
    assert_eq!(
        seq.distq_insertions, par.distq_insertions,
        "{label}: distq_insertions"
    );
    if kdj {
        assert_eq!(
            seq.bound_tightenings, par.bound_tightenings,
            "{label}: bound_tightenings"
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
        let par = run_join(&r, &s, exact(k), 1, &JoinConfig::unbounded());
        assert_eq!(seq.results, par.results, "k={k}: results must be identical");
        assert_parity(&format!("b_kdj k={k}"), &seq.stats, &par.stats, true);
        // One worker, one root seed: there is no one to steal from.
        assert_eq!(par.stats.pairs_stolen, 0, "k={k}: pairs_stolen");
    }
    // A self-join: k sits inside the distance-0 tie group.
    let (r, s) = trees(&a, &a);
    for k in [17, 90] {
        let seq = b_kdj(&r, &s, k, &spilling());
        let par = run_join(&r, &s, exact(k), 1, &spilling());
        let label = format!("tied b_kdj k={k}");
        assert_eq!(seq.results, par.results, "{label}: results");
        assert_parity(&label, &seq.stats, &par.stats, true);
        assert_spill_parity(&label, &seq.stats, &par.stats);
        assert_eq!(par.stats.pairs_stolen, 0, "{label}: pairs_stolen");
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
    // A self-join: k sits inside the distance-0 tie group. The server's
    // one-thread kdj must give the library's answer too.
    let (r, s) = trees(&a, &a);
    for k in [17, 80] {
        let seq = am_kdj(&r, &s, k, &spilling(), &AmKdjOptions::default());
        let par = par_am_kdj(&r, &s, k, &spilling(), &AmKdjOptions::default(), 1);
        let label = format!("tied am_kdj k={k}");
        assert_eq!(seq.results, par.results, "{label}: results");
        assert_parity(&label, &seq.stats, &par.stats, true);
        assert_spill_parity(&label, &seq.stats, &par.stats);
        assert_eq!(par.stats.pairs_stolen, 0, "{label}: pairs_stolen");
        assert_eq!(
            serve_kdj(&r, &s, k, &spilling()),
            seq.results,
            "{label}: serve"
        );
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
        let mut cursor = AmIdj::with_take(&r, &s, &JoinConfig::unbounded(), opts.clone(), take);
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
