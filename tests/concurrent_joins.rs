//! Concurrency end-to-end validation. The policy × backend parity
//! properties live in `engine_matrix.rs`; this suite keeps what the
//! matrix cannot express: the shared bound's monotonicity under racing
//! publishers, unrelated joins sharing trees across threads, and the
//! degenerate more-threads-than-work shape.

use amdj_core::{b_kdj, hs_kdj, JoinConfig, MinBound, ResultPair};
use amdj_geom::Rect;
use amdj_rtree::{RTree, RTreeParams};
use amdj_tests::{exact, run_join};

fn trees(a: &[(Rect<2>, u64)], b: &[(Rect<2>, u64)]) -> (RTree<2>, RTree<2>) {
    (
        RTree::bulk_load(RTreeParams::for_tests(), a.to_vec()),
        RTree::bulk_load(RTreeParams::for_tests(), b.to_vec()),
    )
}

fn canonical(mut v: Vec<ResultPair>) -> Vec<ResultPair> {
    v.sort_by(|a, b| {
        a.dist
            .total_cmp(&b.dist)
            .then_with(|| a.r.cmp(&b.r))
            .then_with(|| a.s.cmp(&b.s))
    });
    v
}

/// The shared pruning bound must be monotone non-increasing no matter how
/// many threads race on it: every published value is only accepted if it
/// tightens, so a sampled history can never loosen.
#[test]
fn shared_bound_never_loosens() {
    let bound = MinBound::new(f64::INFINITY);
    let observed = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let bound = &bound;
                scope.spawn(move || {
                    let mut history = Vec::new();
                    // Deterministic pseudo-random publish sequence per thread.
                    let mut x = 0x9e3779b97f4a7c15u64.wrapping_mul(t as u64 + 1);
                    for _ in 0..10_000 {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let v = (x % 1_000_000) as f64 / 10.0;
                        bound.tighten(v);
                        history.push(bound.get());
                    }
                    history
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("publisher panicked"))
            .collect::<Vec<_>>()
    });
    for history in &observed {
        for w in history.windows(2) {
            assert!(w[1] <= w[0], "bound loosened from {} to {}", w[0], w[1]);
        }
    }
    // All threads drew from the same value range; the final bound is the
    // global minimum any of them could have published.
    let min_published = observed
        .iter()
        .map(|h| *h.last().unwrap())
        .fold(f64::INFINITY, f64::min);
    assert_eq!(bound.get(), min_published);
    assert!(!bound.tighten(bound.get()), "equal value must not tighten");
    assert!(!bound.tighten(f64::NAN), "NaN must be ignored");
}

#[test]
fn two_joins_share_trees_across_threads() {
    let a: Vec<(Rect<2>, u64)> = (0..400)
        .map(|i| {
            let x = (i % 20) as f64 * 3.7;
            let y = (i / 20) as f64 * 2.9;
            (Rect::new([x, y], [x + 1.0, y + 1.0]), i as u64)
        })
        .collect();
    let b: Vec<(Rect<2>, u64)> = (0..400)
        .map(|i| {
            let x = (i % 20) as f64 * 3.7 + 1.3;
            let y = (i / 20) as f64 * 2.9 + 0.7;
            (Rect::new([x, y], [x + 0.8, y + 0.8]), i as u64)
        })
        .collect();
    let (r, s) = trees(&a, &b);
    let want_b = b_kdj(&r, &s, 60, &JoinConfig::unbounded());
    let want_h = hs_kdj(&r, &s, 60, &JoinConfig::unbounded());
    // Two different algorithms traverse the same trees at the same time,
    // each owning only `&RTree` — the tentpole's end-to-end smoke test.
    let (got_b, got_h) = std::thread::scope(|scope| {
        let hb = scope.spawn(|| b_kdj(&r, &s, 60, &JoinConfig::unbounded()));
        let hh = scope.spawn(|| hs_kdj(&r, &s, 60, &JoinConfig::unbounded()));
        (
            hb.join().expect("b_kdj panicked"),
            hh.join().expect("hs_kdj panicked"),
        )
    });
    assert_eq!(
        canonical(want_b.results.clone()),
        canonical(got_b.results),
        "b_kdj under concurrency"
    );
    assert_eq!(
        canonical(want_h.results),
        canonical(got_h.results),
        "hs_kdj under concurrency"
    );
}

#[test]
fn par_bkdj_more_threads_than_work() {
    let a: Vec<(Rect<2>, u64)> = (0..3)
        .map(|i| (Rect::new([i as f64, 0.0], [i as f64 + 0.5, 0.5]), i as u64))
        .collect();
    let (r, s) = trees(&a, &a);
    let out = run_join(&r, &s, exact(9), 16, &JoinConfig::unbounded());
    assert_eq!(out.results.len(), 9);
    assert!(out.results.windows(2).all(|w| w[0].dist <= w[1].dist));
}
