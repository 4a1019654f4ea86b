//! B-KDJ (§3, Algorithm 1): k-distance join with bidirectional node
//! expansion and the optimized plane sweep.
//!
//! A one-line call of [`engine::run`]: B-KDJ is the exact pruning policy
//! run by one worker — the only cutoff is the proven `qDmax`, so stage
//! one finishes the join outright.

use crate::engine::{self, JoinKind, JoinRequest, Policy};
use crate::{JoinConfig, JoinOutput};
use amdj_rtree::RTree;

/// The B-KDJ k-distance join (Algorithm 1): returns the `k` nearest pairs
/// in ascending distance order.
pub fn b_kdj<const D: usize>(r: &RTree<D>, s: &RTree<D>, k: usize, cfg: &JoinConfig) -> JoinOutput {
    let kind = JoinKind::Kdj {
        k,
        policy: Policy::Exact,
    };
    engine::run_to_end(r, s, JoinRequest::new(kind, 1), cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bruteforce;
    use amdj_geom::{Point, Rect};
    use amdj_rtree::RTreeParams;

    fn pts(coords: &[(f64, f64)]) -> Vec<(Rect<2>, u64)> {
        coords
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| (Rect::from_point(Point::new([x, y])), i as u64))
            .collect()
    }

    fn grid(n: usize, dx: f64, dy: f64) -> Vec<(Rect<2>, u64)> {
        (0..n * n)
            .map(|i| {
                let p = Point::new([(i % n) as f64 + dx, (i / n) as f64 + dy]);
                (Rect::from_point(p), i as u64)
            })
            .collect()
    }

    fn check_against_brute(a: &[(Rect<2>, u64)], b: &[(Rect<2>, u64)], k: usize, cfg: &JoinConfig) {
        let r = amdj_rtree::RTree::bulk_load(RTreeParams::for_tests(), a.to_vec());
        let s = amdj_rtree::RTree::bulk_load(RTreeParams::for_tests(), b.to_vec());
        let out = b_kdj(&r, &s, k, cfg);
        let want = bruteforce::k_closest_pairs(a, b, k);
        assert_eq!(out.results.len(), want.len(), "k={k}");
        for (i, (got, exp)) in out.results.iter().zip(want.iter()).enumerate() {
            assert!(
                (got.dist - exp.dist).abs() < 1e-9,
                "k={k} rank {i}: got {} want {}",
                got.dist,
                exp.dist
            );
        }
        assert!(out.results.windows(2).all(|w| w[0].dist <= w[1].dist));
    }

    #[test]
    fn matches_brute_force_on_grids() {
        let a = grid(13, 0.0, 0.0);
        let b = grid(13, 0.27, 0.41);
        for k in [1, 5, 64, 300] {
            check_against_brute(&a, &b, k, &JoinConfig::unbounded());
        }
    }

    #[test]
    fn matches_brute_force_without_sweep_optimizations() {
        let a = grid(10, 0.0, 0.0);
        let b = grid(10, 0.5, 0.1);
        let cfg = JoinConfig {
            optimize_axis: false,
            optimize_direction: false,
            ..JoinConfig::unbounded()
        };
        for k in [3, 40] {
            check_against_brute(&a, &b, k, &cfg);
        }
    }

    #[test]
    fn matches_brute_force_with_tight_queue_memory() {
        let a = grid(11, 0.0, 0.0);
        let b = grid(11, 0.33, 0.15);
        let mut cfg = JoinConfig::with_queue_memory(4 * 1024);
        cfg.queue_cost.page_size = 1024;
        for k in [10, 120] {
            check_against_brute(&a, &b, k, &cfg);
        }
    }

    #[test]
    fn k_larger_than_pair_count() {
        let a = pts(&[(0.0, 0.0), (5.0, 0.0)]);
        let b = pts(&[(1.0, 0.0)]);
        let r = amdj_rtree::RTree::bulk_load(RTreeParams::for_tests(), a);
        let s = amdj_rtree::RTree::bulk_load(RTreeParams::for_tests(), b);
        let out = b_kdj(&r, &s, 100, &JoinConfig::unbounded());
        assert_eq!(out.results.len(), 2);
    }

    #[test]
    fn stats_are_populated() {
        let a = grid(10, 0.0, 0.0);
        let b = grid(10, 0.4, 0.4);
        let r = amdj_rtree::RTree::bulk_load(RTreeParams::for_tests(), a);
        let s = amdj_rtree::RTree::bulk_load(RTreeParams::for_tests(), b);
        let out = b_kdj(&r, &s, 20, &JoinConfig::unbounded());
        let st = out.stats;
        assert_eq!(st.results, 20);
        assert!(st.real_dist > 0);
        assert!(
            st.axis_dist >= st.real_dist,
            "every real dist was preceded by an axis dist"
        );
        assert!(st.mainq_insertions > 0);
        assert!(st.node_requests >= st.node_disk_reads);
        assert!(st.cpu_seconds > 0.0);
    }

    #[test]
    fn prunes_against_uni_directional_baseline() {
        // The headline claim of §3: far fewer distance computations than
        // uni-directional expansion for the same answer.
        let a = grid(18, 0.0, 0.0);
        let b = grid(18, 0.21, 0.37);
        let r = amdj_rtree::RTree::bulk_load(RTreeParams::for_tests(), a.clone());
        let s = amdj_rtree::RTree::bulk_load(RTreeParams::for_tests(), b.clone());
        let k = 10;
        let bout = b_kdj(&r, &s, k, &JoinConfig::unbounded());
        let hout = crate::hs_kdj(&r, &s, k, &JoinConfig::unbounded());
        assert!(
            bout.stats.real_dist < hout.stats.real_dist,
            "B-KDJ {} vs HS-KDJ {}",
            bout.stats.real_dist,
            hout.stats.real_dist
        );
    }

    #[test]
    fn rect_objects_not_points() {
        let a: Vec<(Rect<2>, u64)> = (0..60)
            .map(|i| {
                let x = (i % 10) as f64;
                let y = (i / 10) as f64;
                (Rect::new([x, y], [x + 0.8, y + 0.3]), i)
            })
            .collect();
        let b: Vec<(Rect<2>, u64)> = (0..60)
            .map(|i| {
                let x = (i % 10) as f64 + 0.15;
                let y = (i / 10) as f64 + 0.55;
                (Rect::new([x, y], [x + 0.4, y + 0.6]), i)
            })
            .collect();
        check_against_brute(&a, &b, 25, &JoinConfig::unbounded());
    }

    #[test]
    fn identical_datasets_many_zero_distances() {
        let a = grid(7, 0.0, 0.0);
        let r = amdj_rtree::RTree::bulk_load(RTreeParams::for_tests(), a.clone());
        let s = amdj_rtree::RTree::bulk_load(RTreeParams::for_tests(), a.clone());
        let out = b_kdj(&r, &s, 49, &JoinConfig::unbounded());
        assert_eq!(out.results.len(), 49);
        assert!(out.results.iter().all(|p| p.dist == 0.0));
    }
}
