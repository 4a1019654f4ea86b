//! Empty-input regression: every join entry point — one-thread,
//! parallel, incremental — must return a clean empty result when either
//! input tree is empty (or `k`/`take` is zero), never panic.

use amdj_core::{
    am_kdj, b_kdj, hs_kdj, par_am_idj, par_am_kdj, AmIdjOptions, AmKdjOptions, JoinConfig,
    ResultPair,
};
use amdj_geom::Rect;
use amdj_rtree::{RTree, RTreeParams};
use amdj_tests::{cursor_take, exact, run_join};

fn tree(pts: &[(f64, f64)]) -> RTree<2> {
    let items: Vec<(Rect<2>, u64)> = pts
        .iter()
        .enumerate()
        .map(|(i, &(x, y))| (Rect::new([x, y], [x, y]), i as u64))
        .collect();
    RTree::bulk_load(RTreeParams::for_tests(), items)
}

fn empty() -> RTree<2> {
    tree(&[])
}

fn some_points() -> RTree<2> {
    tree(&[(0.0, 0.0), (1.0, 2.0), (3.0, 1.0), (4.0, 4.0), (2.0, 3.0)])
}

fn assert_empty(label: &str, results: &[ResultPair]) {
    assert!(results.is_empty(), "{label}: expected no results");
}

#[test]
fn kdj_entry_points_handle_empty_inputs() {
    let cfg = JoinConfig::unbounded();
    for (label, r, s) in [
        ("empty×full", empty(), some_points()),
        ("full×empty", some_points(), empty()),
        ("empty×empty", empty(), empty()),
    ] {
        assert_empty(label, &b_kdj(&r, &s, 3, &cfg).results);
        assert_empty(
            label,
            &am_kdj(&r, &s, 3, &cfg, &AmKdjOptions::default()).results,
        );
        assert_empty(label, &hs_kdj(&r, &s, 3, &cfg).results);
        assert_empty(label, &run_join(&r, &s, exact(3), 2, &cfg).results);
        assert_empty(
            label,
            &par_am_kdj(&r, &s, 3, &cfg, &AmKdjOptions::default(), 2).results,
        );
    }
}

#[test]
fn idj_entry_points_handle_empty_inputs() {
    let cfg = JoinConfig::unbounded();
    let opts = AmIdjOptions::default();
    for (label, r, s) in [
        ("empty×full", empty(), some_points()),
        ("full×empty", some_points(), empty()),
        ("empty×empty", empty(), empty()),
    ] {
        assert_empty(label, &cursor_take(&r, &s, 4, &cfg, &opts));
        assert_empty(label, &par_am_idj(&r, &s, 4, &cfg, &opts, 2).results);
    }
}

#[test]
fn zero_k_and_zero_take_return_cleanly() {
    let cfg = JoinConfig::unbounded();
    let (r, s) = (some_points(), some_points());
    assert_empty("k=0 b", &b_kdj(&r, &s, 0, &cfg).results);
    assert_empty(
        "k=0 am",
        &am_kdj(&r, &s, 0, &cfg, &AmKdjOptions::default()).results,
    );
    assert_empty(
        "take=0 idj",
        &cursor_take(&r, &s, 0, &cfg, &AmIdjOptions::default()),
    );
}
