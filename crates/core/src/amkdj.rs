//! AM-KDJ (§4.1, Algorithms 2 and 3): the adaptive multi-stage k-distance
//! join. Stage one prunes *aggressively* on an estimated maximum distance
//! `eDmax`; every skipped child pair is recoverable through per-anchor
//! marks kept with the pair in the compensation queue, so stage two can
//! finish the join exactly if the estimate was too small.
//!
//! One erratum is handled (see DESIGN.md): Algorithm 2 line 9 terminates
//! stage one when the dequeued distance is *smaller* than `eDmax`, and
//! emits object pairs before that check. Taken literally, both break the
//! algorithm (the first dequeued pairs are the closest, and an emitted
//! object pair beyond `eDmax` may be preceded by pruned pairs). We
//! terminate when the dequeued distance *exceeds* `eDmax`, checking before
//! emission — the reading consistent with §4.1's condition (3) and §5.6.
//!
//! A one-line call of [`engine::run`]: AM-KDJ is the aggressive pruning
//! policy run by one worker.

use crate::engine::{self, JoinKind, JoinRequest, Policy};
use crate::{AmKdjOptions, JoinConfig, JoinOutput};
use amdj_rtree::RTree;

/// The AM-KDJ k-distance join. `opts.edmax_override` replaces the
/// Equation (3) estimate (Figure 14's sweep).
///
/// ```
/// use amdj_core::{am_kdj, AmKdjOptions, JoinConfig};
/// use amdj_geom::{Point, Rect};
/// use amdj_rtree::{RTree, RTreeParams};
///
/// let pts = |off: f64| -> Vec<(Rect<2>, u64)> {
///     (0..64).map(|i| {
///         let p = Point::new([(i % 8) as f64 + off, (i / 8) as f64]);
///         (Rect::from_point(p), i)
///     }).collect()
/// };
/// let mut r = RTree::bulk_load(RTreeParams::for_tests(), pts(0.0));
/// let mut s = RTree::bulk_load(RTreeParams::for_tests(), pts(0.25));
/// let out = am_kdj(&r, &s, 5, &JoinConfig::unbounded(), &AmKdjOptions::default());
/// assert_eq!(out.results.len(), 5);
/// assert!(out.results.iter().all(|p| p.dist == 0.25));
/// ```
pub fn am_kdj<const D: usize>(
    r: &RTree<D>,
    s: &RTree<D>,
    k: usize,
    cfg: &JoinConfig,
    opts: &AmKdjOptions,
) -> JoinOutput {
    let policy = Policy::Aggressive {
        edmax_override: opts.edmax_override,
    };
    engine::run_to_end(r, s, JoinRequest::new(JoinKind::Kdj { k, policy }, 1), cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{b_kdj, bruteforce};
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

    fn trees(
        a: &[(Rect<2>, u64)],
        b: &[(Rect<2>, u64)],
    ) -> (amdj_rtree::RTree<2>, amdj_rtree::RTree<2>) {
        (
            amdj_rtree::RTree::bulk_load(RTreeParams::for_tests(), a.to_vec()),
            amdj_rtree::RTree::bulk_load(RTreeParams::for_tests(), b.to_vec()),
        )
    }

    fn check(a: &[(Rect<2>, u64)], b: &[(Rect<2>, u64)], k: usize, opts: &AmKdjOptions) {
        let (r, s) = trees(a, b);
        let out = am_kdj(&r, &s, k, &JoinConfig::unbounded(), opts);
        let want = bruteforce::k_closest_pairs(a, b, k);
        assert_eq!(out.results.len(), want.len());
        for (i, (got, exp)) in out.results.iter().zip(want.iter()).enumerate() {
            assert!(
                (got.dist - exp.dist).abs() < 1e-9,
                "rank {i}: got {} want {} (opts {opts:?})",
                got.dist,
                exp.dist
            );
        }
        assert!(out.results.windows(2).all(|w| w[0].dist <= w[1].dist));
    }

    #[test]
    fn matches_brute_force_with_estimated_edmax() {
        let a = grid(13, 0.0, 0.0);
        let b = grid(13, 0.29, 0.37);
        for k in [1, 10, 100, 250] {
            check(&a, &b, k, &AmKdjOptions::default());
        }
    }

    #[test]
    fn underestimated_edmax_compensates_correctly() {
        let a = grid(12, 0.0, 0.0);
        let b = grid(12, 0.31, 0.17);
        let true_dmax = bruteforce::dmax_for_k(&a, &b, 100).unwrap();
        for factor in [0.01, 0.1, 0.5, 0.9] {
            check(
                &a,
                &b,
                100,
                &AmKdjOptions {
                    edmax_override: Some(true_dmax * factor),
                },
            );
        }
    }

    #[test]
    fn overestimated_edmax_still_exact() {
        let a = grid(12, 0.0, 0.0);
        let b = grid(12, 0.31, 0.17);
        let true_dmax = bruteforce::dmax_for_k(&a, &b, 100).unwrap();
        for factor in [1.0, 2.0, 10.0] {
            check(
                &a,
                &b,
                100,
                &AmKdjOptions {
                    edmax_override: Some(true_dmax * factor),
                },
            );
        }
    }

    #[test]
    fn zero_edmax_forces_full_compensation() {
        let a = grid(9, 0.0, 0.0);
        let b = grid(9, 0.4, 0.4);
        check(
            &a,
            &b,
            30,
            &AmKdjOptions {
                edmax_override: Some(0.0),
            },
        );
    }

    #[test]
    fn compensation_stage_is_recorded() {
        let a = grid(10, 0.0, 0.0);
        let b = grid(10, 0.3, 0.3);
        let (r, s) = trees(&a, &b);
        let dmax = bruteforce::dmax_for_k(&a, &b, 80).unwrap();
        let out = am_kdj(
            &r,
            &s,
            80,
            &JoinConfig::unbounded(),
            &AmKdjOptions {
                edmax_override: Some(dmax * 0.2),
            },
        );
        assert_eq!(
            out.stats.stages, 2,
            "underestimate must trigger compensation"
        );
        assert_eq!(out.results.len(), 80);
    }

    #[test]
    fn no_worse_than_bkdj_when_overestimated() {
        // §5.6: with eDmax ≥ Dmax, AM-KDJ needs no more distance
        // computations or queue insertions than B-KDJ.
        let a = grid(15, 0.0, 0.0);
        let b = grid(15, 0.23, 0.41);
        let (r, s) = trees(&a, &b);
        let k = 50;
        let dmax = bruteforce::dmax_for_k(&a, &b, k).unwrap();
        let am = am_kdj(
            &r,
            &s,
            k,
            &JoinConfig::unbounded(),
            &AmKdjOptions {
                edmax_override: Some(dmax * 1.5),
            },
        );
        let bk = b_kdj(&r, &s, k, &JoinConfig::unbounded());
        assert!(am.stats.real_dist <= bk.stats.real_dist);
        assert!(am.stats.mainq_insertions <= bk.stats.mainq_insertions);
    }

    #[test]
    fn tight_memory_budget_still_exact() {
        let a = grid(11, 0.0, 0.0);
        let b = grid(11, 0.37, 0.21);
        let mut cfg = JoinConfig::with_queue_memory(4096);
        cfg.queue_cost.page_size = 1024;
        let (r, s) = trees(&a, &b);
        let out = am_kdj(&r, &s, 150, &cfg, &AmKdjOptions::default());
        let want = bruteforce::k_closest_pairs(&a, &b, 150);
        for (got, exp) in out.results.iter().zip(want.iter()) {
            assert!((got.dist - exp.dist).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_tree_gives_empty_result() {
        let r: amdj_rtree::RTree<2> = amdj_rtree::RTree::new(RTreeParams::for_tests());
        let s = amdj_rtree::RTree::bulk_load(RTreeParams::for_tests(), grid(3, 0.0, 0.0));
        let out = am_kdj(
            &r,
            &s,
            5,
            &JoinConfig::unbounded(),
            &AmKdjOptions::default(),
        );
        assert!(out.results.is_empty());
    }
}
