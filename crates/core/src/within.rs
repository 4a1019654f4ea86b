//! The ε-distance join: every pair within a fixed distance — the `within`
//! predicate the paper's §1 contrasts with the k-distance join. Exposed as
//! a first-class operation so the library covers the whole
//! distance-join family, and because it is the building block a user
//! reaches for when a cutoff distance *is* known.

use amdj_rtree::RTree;

use crate::sjsort::visit;
use crate::stats::Baseline;
use crate::{JoinConfig, JoinOutput, JoinStats, ResultPair};

/// Returns every ⟨R, S⟩ pair with distance at most `dmax` (boundary
/// inclusive), ascending by distance, using the sync-traversal spatial
/// join with the optimized plane sweep.
///
/// ```
/// use amdj_core::{within_join, JoinConfig};
/// use amdj_geom::{Point, Rect};
/// use amdj_rtree::{RTree, RTreeParams};
///
/// let line = |y: f64| -> Vec<(Rect<2>, u64)> {
///     (0..20).map(|i| (Rect::from_point(Point::new([i as f64, y])), i)).collect()
/// };
/// let mut r = RTree::bulk_load(RTreeParams::for_tests(), line(0.0));
/// let mut s = RTree::bulk_load(RTreeParams::for_tests(), line(0.3));
/// let out = within_join(&r, &s, 0.3, &JoinConfig::unbounded());
/// assert_eq!(out.results.len(), 20, "each point pairs with its opposite");
/// ```
pub fn within_join<const D: usize>(
    r: &RTree<D>,
    s: &RTree<D>,
    dmax: f64,
    cfg: &JoinConfig,
) -> JoinOutput {
    assert!(
        dmax >= 0.0 && dmax.is_finite(),
        "within_join needs a finite cutoff"
    );
    let baseline = Baseline::capture(r, s);
    let mut stats = JoinStats {
        stages: 1,
        ..JoinStats::default()
    };
    let mut results: Vec<ResultPair> = Vec::new();
    if let (Some(rp), Some(sp)) = (r.root_page(), s.root_page()) {
        let mut out = |dist: f64, a: u64, b: u64| results.push(ResultPair { r: a, s: b, dist });
        let mut scratch = crate::engine::sweep::SweepScratch::new();
        visit(r, s, rp, sp, dmax, cfg, &mut out, &mut stats, &mut scratch);
    }
    results.sort_unstable_by(|a, b| {
        a.dist
            .total_cmp(&b.dist)
            .then_with(|| a.r.cmp(&b.r))
            .then_with(|| a.s.cmp(&b.s))
    });
    stats.results = results.len() as u64;
    stats.mainq_insertions = stats.results;
    baseline.finish(r, s, &mut stats);
    JoinOutput { results, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bruteforce;
    use amdj_geom::{Point, Rect};
    use amdj_rtree::RTreeParams;

    fn grid(n: usize, dx: f64, dy: f64) -> Vec<(Rect<2>, u64)> {
        (0..n * n)
            .map(|i| {
                let p = Point::new([(i % n) as f64 + dx, (i / n) as f64 + dy]);
                (Rect::from_point(p), i as u64)
            })
            .collect()
    }

    #[test]
    fn matches_brute_force() {
        let a = grid(10, 0.0, 0.0);
        let b = grid(10, 0.35, 0.2);
        let r = amdj_rtree::RTree::bulk_load(RTreeParams::for_tests(), a.clone());
        let s = amdj_rtree::RTree::bulk_load(RTreeParams::for_tests(), b.clone());
        for d in [0.0, 0.41, 1.0, 2.5] {
            let got = within_join(&r, &s, d, &JoinConfig::unbounded());
            let mut want = bruteforce::pairs_within(&a, &b, d);
            want.sort_by(|x, y| {
                x.dist
                    .total_cmp(&y.dist)
                    .then_with(|| x.r.cmp(&y.r))
                    .then_with(|| x.s.cmp(&y.s))
            });
            assert_eq!(got.results.len(), want.len(), "d = {d}");
            for (g, w) in got.results.iter().zip(want.iter()) {
                assert_eq!((g.r, g.s), (w.r, w.s), "d = {d}");
                assert!((g.dist - w.dist).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn zero_distance_finds_touching_pairs() {
        let a = vec![(Rect::new([0.0, 0.0], [1.0, 1.0]), 0u64)];
        let b = vec![
            (Rect::new([1.0, 0.0], [2.0, 1.0]), 0u64), // touching
            (Rect::new([3.0, 0.0], [4.0, 1.0]), 1u64), // apart
            (Rect::new([0.5, 0.5], [0.7, 0.7]), 2u64), // contained
        ];
        let r = amdj_rtree::RTree::bulk_load(RTreeParams::for_tests(), a);
        let s = amdj_rtree::RTree::bulk_load(RTreeParams::for_tests(), b);
        let out = within_join(&r, &s, 0.0, &JoinConfig::unbounded());
        let ids: Vec<u64> = out.results.iter().map(|p| p.s).collect();
        assert_eq!(ids.len(), 2);
        assert!(ids.contains(&0) && ids.contains(&2));
    }

    #[test]
    fn empty_inputs_and_stats() {
        let r: amdj_rtree::RTree<2> = amdj_rtree::RTree::new(RTreeParams::for_tests());
        let s = amdj_rtree::RTree::bulk_load(RTreeParams::for_tests(), grid(3, 0.0, 0.0));
        let out = within_join(&r, &s, 5.0, &JoinConfig::unbounded());
        assert!(out.results.is_empty());
        assert_eq!(out.stats.results, 0);
    }

    #[test]
    fn agrees_with_kdj_prefix() {
        // The within-join at the k-th distance must contain the k-distance
        // join's results as a prefix (ties aside, counts must cover k).
        let a = grid(9, 0.0, 0.0);
        let b = grid(9, 0.45, 0.3);
        let r = amdj_rtree::RTree::bulk_load(RTreeParams::for_tests(), a.clone());
        let s = amdj_rtree::RTree::bulk_load(RTreeParams::for_tests(), b.clone());
        let k = 60;
        let kdj = crate::b_kdj(&r, &s, k, &JoinConfig::unbounded());
        let dmax = kdj.results.last().unwrap().dist;
        let wj = within_join(&r, &s, dmax, &JoinConfig::unbounded());
        assert!(wj.results.len() >= k);
        for (g, w) in wj.results.iter().zip(kdj.results.iter()) {
            assert!((g.dist - w.dist).abs() < 1e-12);
        }
    }
}
