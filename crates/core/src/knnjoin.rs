//! The k-nearest-neighbours join: for *every* object of R, its `k`
//! closest objects of S. This is the other join of the distance-join
//! family (the paper's related-work §2.2 cites the multi-step k-NN work
//! it builds on); it completes the crate's coverage of distance-based
//! join operations.
//!
//! The implementation runs one best-first (Hjaltason–Samet) k-NN search
//! per R-object against the S index. With a warm node buffer and R
//! iterated in index order (so consecutive queries touch the same S
//! subtrees), this is a strong baseline; block-based variants would share
//! more work but change no results.

use amdj_rtree::RTree;
use amdj_storage::PageId;

use crate::stats::Baseline;
use crate::{JoinStats, ResultPair};

/// Result of a [`knn_join`]: for each R-object (in index order), its `k`
/// nearest S-objects ascending by distance.
#[derive(Clone, Debug)]
pub struct KnnJoinOutput {
    /// One entry per R-object: `(r_id, neighbours)`.
    pub groups: Vec<(u64, Vec<ResultPair>)>,
    /// Work counters (node accesses cover both trees; `results` counts
    /// every emitted neighbour pair).
    pub stats: JoinStats,
}

/// For every object in `r`, finds its `k` nearest objects in `s`.
///
/// ```
/// use amdj_core::knn_join;
/// use amdj_geom::{Point, Rect};
/// use amdj_rtree::{RTree, RTreeParams};
///
/// let pts = |off: f64| -> Vec<(Rect<2>, u64)> {
///     (0..25).map(|i| {
///         let p = Point::new([(i % 5) as f64 + off, (i / 5) as f64]);
///         (Rect::from_point(p), i)
///     }).collect()
/// };
/// let mut r = RTree::bulk_load(RTreeParams::for_tests(), pts(0.0));
/// let mut s = RTree::bulk_load(RTreeParams::for_tests(), pts(0.1));
/// let out = knn_join(&r, &s, 2);
/// assert_eq!(out.groups.len(), 25);
/// for (rid, nn) in &out.groups {
///     assert_eq!(nn[0].s, *rid, "the shifted twin is the nearest");
/// }
/// ```
pub fn knn_join<const D: usize>(r: &RTree<D>, s: &RTree<D>, k: usize) -> KnnJoinOutput {
    let baseline = Baseline::capture(r, s);
    let mut stats = JoinStats {
        stages: 1,
        ..JoinStats::default()
    };
    let mut groups = Vec::with_capacity(r.len() as usize);
    if k > 0 && !r.is_empty() && !s.is_empty() {
        // Walk R's leaves in index order for S-buffer locality.
        let mut stack = vec![r.root_page().expect("non-empty")];
        let mut leaves: Vec<(u64, amdj_geom::Rect<D>)> = Vec::new();
        while let Some(pid) = stack.pop() {
            let node = r.fetch(pid);
            if node.is_leaf() {
                for e in &node.entries {
                    leaves.push((e.child, e.mbr));
                }
            } else {
                for e in &node.entries {
                    stack.push(PageId(e.child));
                }
            }
        }
        for (rid, mbr) in leaves {
            let neighbors = s.nearest_neighbors_rect(&mbr, k);
            let pairs: Vec<ResultPair> = neighbors
                .into_iter()
                .map(|n| {
                    stats.real_dist += 1;
                    ResultPair {
                        r: rid,
                        s: n.oid,
                        dist: n.dist,
                    }
                })
                .collect();
            stats.results += pairs.len() as u64;
            groups.push((rid, pairs));
        }
        groups.sort_by_key(|&(rid, _)| rid);
    }
    baseline.finish(r, s, &mut stats);
    KnnJoinOutput { groups, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn every_object_gets_its_neighbours() {
        let a = grid(8, 0.0, 0.0);
        let b = grid(8, 0.3, 0.4);
        let r = amdj_rtree::RTree::bulk_load(RTreeParams::for_tests(), a.clone());
        let s = amdj_rtree::RTree::bulk_load(RTreeParams::for_tests(), b.clone());
        let k = 3;
        let out = knn_join(&r, &s, k);
        assert_eq!(out.groups.len(), 64);
        assert_eq!(out.stats.results, 64 * 3);
        for (rid, pairs) in &out.groups {
            assert_eq!(pairs.len(), k);
            assert!(pairs.windows(2).all(|w| w[0].dist <= w[1].dist));
            // Verify against a scan (point objects: center distance ==
            // MBR distance).
            let rm = a[*rid as usize].0;
            let mut want: Vec<f64> = b.iter().map(|(sm, _)| rm.min_dist(sm)).collect();
            want.sort_unstable_by(f64::total_cmp);
            for (p, w) in pairs.iter().zip(want.iter()) {
                assert!((p.dist - w).abs() < 1e-9, "r = {rid}");
            }
        }
    }

    #[test]
    fn groups_are_in_r_id_order() {
        let a = grid(5, 0.0, 0.0);
        let b = grid(5, 0.1, 0.1);
        let r = amdj_rtree::RTree::bulk_load(RTreeParams::for_tests(), a);
        let s = amdj_rtree::RTree::bulk_load(RTreeParams::for_tests(), b);
        let out = knn_join(&r, &s, 1);
        let ids: Vec<u64> = out.groups.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, (0..25).collect::<Vec<u64>>());
    }

    #[test]
    fn k_exceeding_s_size() {
        let a = grid(3, 0.0, 0.0);
        let b = grid(2, 0.5, 0.5);
        let r = amdj_rtree::RTree::bulk_load(RTreeParams::for_tests(), a);
        let s = amdj_rtree::RTree::bulk_load(RTreeParams::for_tests(), b);
        let out = knn_join(&r, &s, 10);
        for (_, pairs) in &out.groups {
            assert_eq!(pairs.len(), 4, "only 4 S-objects exist");
        }
    }

    #[test]
    fn degenerate_inputs() {
        let empty: amdj_rtree::RTree<2> = amdj_rtree::RTree::new(RTreeParams::for_tests());
        let s = amdj_rtree::RTree::bulk_load(RTreeParams::for_tests(), grid(3, 0.0, 0.0));
        assert!(knn_join(&empty, &s, 3).groups.is_empty());
        let r = amdj_rtree::RTree::bulk_load(RTreeParams::for_tests(), grid(3, 0.0, 0.0));
        assert!(knn_join(&r, &s, 0).groups.is_empty());
    }
}
