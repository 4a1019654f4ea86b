//! The Hjaltason–Samet baseline (§2): incremental distance join with
//! *uni-directional* node expansion.
//!
//! When a ⟨node, node⟩ pair is dequeued, only one node is expanded — its
//! children are paired with the *whole* other node. This bounds the pairs
//! generated per step by the fanout, but re-visits nodes repeatedly and
//! cannot use the plane-sweep pruning of §3; it is the "previous work" the
//! paper improves on. We expand the node with the larger MBR area (of the
//! policies studied in the original paper, the one that worked best).
//!
//! `HsIdj` is the incremental cursor (HS-IDJ); [`hs_kdj`] adds a distance
//! queue and a stopping cardinality (HS-KDJ). Following this paper's
//! footnote 1, only object-pair distances enter the distance queue — the
//! original's max-distance entries for node pairs can double-count a
//! witness and are also ineffective, as the footnote observes.

use amdj_rtree::RTree;
use amdj_storage::PageId;

use crate::mainq::MainQueue;
use crate::stats::Baseline;
use crate::{
    DistanceQueue, Estimator, ItemRef, JoinConfig, JoinOutput, JoinStats, Pair, ResultPair,
};

/// The HS-IDJ cursor: yields pairs in ascending distance order, one per
/// [`next`](HsIdj::next) call.
pub struct HsIdj<'a, const D: usize> {
    r: &'a RTree<D>,
    s: &'a RTree<D>,
    mainq: MainQueue<D>,
    distq: Option<DistanceQueue>,
    counters: JoinStats,
    baseline: Baseline,
}

impl<'a, const D: usize> HsIdj<'a, D> {
    /// Starts an incremental join (no distance queue, no k).
    pub fn new(r: &'a RTree<D>, s: &'a RTree<D>, cfg: &JoinConfig) -> Self {
        Self::build(r, s, cfg, None)
    }

    fn build(
        r: &'a RTree<D>,
        s: &'a RTree<D>,
        cfg: &JoinConfig,
        distq: Option<DistanceQueue>,
    ) -> Self {
        let est = Estimator::from_trees(r, s);
        let mut mainq = MainQueue::new(cfg, est.as_ref());
        if let (Some(rb), Some(sb), Some(rp), Some(sp)) =
            (r.bounds(), s.bounds(), r.root_page(), s.root_page())
        {
            mainq.push(Pair {
                dist: rb.min_dist(&sb),
                a: ItemRef::Node {
                    page: rp.0,
                    level: r.height() - 1,
                },
                b: ItemRef::Node {
                    page: sp.0,
                    level: s.height() - 1,
                },
                a_mbr: rb,
                b_mbr: sb,
            });
        }
        HsIdj {
            r,
            s,
            mainq,
            distq,
            counters: JoinStats {
                stages: 1,
                ..JoinStats::default()
            },
            baseline: Baseline::capture(r, s),
        }
    }

    /// Produces the next nearest pair, or `None` when exhausted.
    #[allow(clippy::should_implement_trait)] // deliberate cursor API; &mut borrows preclude Iterator
    pub fn next(&mut self) -> Option<ResultPair> {
        let started = std::time::Instant::now();
        let out = self.step();
        self.counters.cpu_seconds += started.elapsed().as_secs_f64();
        out
    }

    fn step(&mut self) -> Option<ResultPair> {
        while let Some(pair) = self.mainq.pop() {
            if pair.is_result() {
                let (ItemRef::Object { oid: a }, ItemRef::Object { oid: b }) = (pair.a, pair.b)
                else {
                    unreachable!("is_result checked")
                };
                self.counters.results += 1;
                return Some(ResultPair {
                    r: a,
                    s: b,
                    dist: pair.dist,
                });
            }
            self.expand(pair);
        }
        None
    }

    /// Uni-directional expansion: pair one node's children with the other
    /// side unchanged.
    fn expand(&mut self, pair: Pair<D>) {
        let expand_left = pair.opens_left();
        let (tree, side, other_ref, other_mbr) = if expand_left {
            (self.r, pair.a, pair.b, pair.b_mbr)
        } else {
            (self.s, pair.b, pair.a, pair.a_mbr)
        };
        let ItemRef::Node { page, .. } = side else {
            unreachable!("results never expand")
        };
        let node = tree.fetch(PageId(page));
        for e in &node.entries {
            self.counters.real_dist += 1;
            let d = e.mbr.min_dist(&other_mbr);
            let qdmax = self
                .distq
                .as_ref()
                .map_or(f64::INFINITY, DistanceQueue::qdmax);
            if d > qdmax {
                continue;
            }
            let child_ref = if node.is_leaf() {
                ItemRef::Object { oid: e.child }
            } else {
                ItemRef::Node {
                    page: e.child,
                    level: node.level - 1,
                }
            };
            let new_pair = if expand_left {
                Pair {
                    dist: d,
                    a: child_ref,
                    b: other_ref,
                    a_mbr: e.mbr,
                    b_mbr: other_mbr,
                }
            } else {
                Pair {
                    dist: d,
                    a: other_ref,
                    b: child_ref,
                    a_mbr: other_mbr,
                    b_mbr: e.mbr,
                }
            };
            let is_result = new_pair.is_result();
            self.mainq.push(new_pair);
            if is_result {
                if let Some(dq) = &mut self.distq {
                    dq.insert(d);
                }
            }
        }
    }

    /// A snapshot of the work done so far (idempotent; callable between
    /// [`next`](HsIdj::next) calls).
    pub fn stats(&self) -> JoinStats {
        let mut st = self.counters;
        st.distq_insertions = self.distq.as_ref().map_or(0, DistanceQueue::insertions);
        self.mainq.account(&mut st);
        // Single-threaded cursor: every fetch since construction happened
        // on this thread.
        self.baseline.delta(self.r, self.s, &mut st);
        st
    }
}

/// HS-KDJ: the k-distance join of \[13\] — `HsIdj` plus a distance queue
/// whose `qDmax` gates main-queue insertions.
pub fn hs_kdj<const D: usize>(
    r: &RTree<D>,
    s: &RTree<D>,
    k: usize,
    cfg: &JoinConfig,
) -> JoinOutput {
    let mut cursor = HsIdj::build(r, s, cfg, Some(DistanceQueue::new(k)));
    let mut results = Vec::with_capacity(k);
    while results.len() < k {
        match cursor.next() {
            Some(p) => results.push(p),
            None => break,
        }
    }
    let stats = cursor.stats();
    JoinOutput { results, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bruteforce;
    use amdj_geom::{Point, Rect};
    use amdj_rtree::RTreeParams;

    fn grid(n: usize, offset: f64) -> Vec<(Rect<2>, u64)> {
        (0..n * n)
            .map(|i| {
                let p = Point::new([(i % n) as f64 + offset, (i / n) as f64 + offset * 0.5]);
                (Rect::from_point(p), i as u64)
            })
            .collect()
    }

    #[test]
    fn hs_kdj_matches_brute_force() {
        let a = grid(12, 0.0);
        let b = grid(12, 0.31);
        let r = amdj_rtree::RTree::bulk_load(RTreeParams::for_tests(), a.clone());
        let s = amdj_rtree::RTree::bulk_load(RTreeParams::for_tests(), b.clone());
        for k in [1, 7, 50, 200] {
            let out = hs_kdj(&r, &s, k, &JoinConfig::unbounded());
            let want = bruteforce::k_closest_pairs(&a, &b, k);
            assert_eq!(out.results.len(), k);
            for (got, exp) in out.results.iter().zip(want.iter()) {
                assert!((got.dist - exp.dist).abs() < 1e-9, "k={k}");
            }
        }
    }

    #[test]
    fn hs_idj_streams_in_order() {
        let a = grid(8, 0.0);
        let b = grid(8, 0.4);
        let r = amdj_rtree::RTree::bulk_load(RTreeParams::for_tests(), a.clone());
        let s = amdj_rtree::RTree::bulk_load(RTreeParams::for_tests(), b.clone());
        let mut cursor = HsIdj::new(&r, &s, &JoinConfig::unbounded());
        let mut prev = -1.0;
        for _ in 0..100 {
            let p = cursor.next().expect("plenty of pairs");
            assert!(p.dist >= prev);
            prev = p.dist;
        }
        let st = cursor.stats();
        assert_eq!(st.results, 100);
        assert!(st.node_requests > 0);
        assert!(st.mainq_insertions > 0);
    }

    #[test]
    fn hs_idj_exhausts_completely() {
        let a = grid(3, 0.0);
        let b = grid(3, 0.2);
        let r = amdj_rtree::RTree::bulk_load(RTreeParams::for_tests(), a.clone());
        let s = amdj_rtree::RTree::bulk_load(RTreeParams::for_tests(), b.clone());
        let mut cursor = HsIdj::new(&r, &s, &JoinConfig::unbounded());
        let mut n = 0;
        while cursor.next().is_some() {
            n += 1;
        }
        assert_eq!(n, 81, "9×9 object pairs total");
        assert!(cursor.next().is_none(), "stays exhausted");
    }

    #[test]
    fn empty_inputs() {
        let r: amdj_rtree::RTree<2> = amdj_rtree::RTree::new(RTreeParams::for_tests());
        let s = amdj_rtree::RTree::bulk_load(RTreeParams::for_tests(), grid(3, 0.0));
        let out = hs_kdj(&r, &s, 5, &JoinConfig::unbounded());
        assert!(out.results.is_empty());
    }

    #[test]
    fn k_zero() {
        let g = grid(3, 0.0);
        let r = amdj_rtree::RTree::bulk_load(RTreeParams::for_tests(), g.clone());
        let s = amdj_rtree::RTree::bulk_load(RTreeParams::for_tests(), g);
        let out = hs_kdj(&r, &s, 0, &JoinConfig::unbounded());
        assert!(out.results.is_empty());
    }
}
