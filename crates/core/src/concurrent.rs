//! Parallel k-distance and incremental joins (§6 of DESIGN.md): the two
//! `par_*` calls the benchmark under `perfbench/` imports, and the tests
//! of [`engine::run`] at several worker counts.
//!
//! The frontier is split across workers by a breadth-first expansion of
//! the node-pair space, and every worker — exact or aggressive — clamps
//! its cutoffs to and publishes into a shared lock-free
//! [`MinBound`](crate::MinBound), so one worker's progress tightens every
//! other worker's pruning. See `engine::backend` for the partitioning and
//! exactness arguments. One thread runs exactly what [`crate::b_kdj`] and
//! [`crate::am_kdj`] run.

use crate::engine::{self, JoinKind, JoinRequest, Policy};
use crate::{AmIdjOptions, AmKdjOptions, JoinConfig, JoinOutput};
use amdj_rtree::RTree;

/// [`engine::run`] for an aggressive k-distance join on `threads` workers
/// (`0` = available parallelism). Kept only because `perfbench/` imports
/// it; new code builds a [`JoinRequest`].
pub fn par_am_kdj<const D: usize>(
    r: &RTree<D>,
    s: &RTree<D>,
    k: usize,
    cfg: &JoinConfig,
    opts: &AmKdjOptions,
    threads: usize,
) -> JoinOutput {
    let policy = Policy::Aggressive {
        edmax_override: opts.edmax_override,
    };
    let kind = JoinKind::Kdj { k, policy };
    engine::run_to_end(r, s, JoinRequest::new(kind, threads), cfg)
}

/// [`engine::run`] for the incremental join's first `take` pairs on
/// `threads` workers (`0` = available parallelism). Kept only because
/// `perfbench/` imports it; new code builds a [`JoinRequest`].
pub fn par_am_idj<const D: usize>(
    r: &RTree<D>,
    s: &RTree<D>,
    take: usize,
    cfg: &JoinConfig,
    opts: &AmIdjOptions,
    threads: usize,
) -> JoinOutput {
    let kind = JoinKind::Idj {
        take,
        opts: opts.clone(),
        window: None,
    };
    engine::run_to_end(r, s, JoinRequest::new(kind, threads), cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{b_kdj, bruteforce};
    use amdj_geom::{Point, Rect};
    use amdj_rtree::RTreeParams;

    /// One uninterrupted [`engine::run`] of `kind` on `threads` workers.
    fn run(
        r: &RTree<2>,
        s: &RTree<2>,
        kind: JoinKind,
        cfg: &JoinConfig,
        threads: usize,
    ) -> JoinOutput {
        engine::run(r, s, JoinRequest::new(kind, threads), cfg, None)
            .expect("a fresh join has no snapshot to refuse")
            .done()
            .expect("a join without a pause control finishes")
    }

    fn exact(k: usize) -> JoinKind {
        JoinKind::Kdj {
            k,
            policy: Policy::Exact,
        }
    }

    fn aggressive(k: usize, edmax_override: Option<f64>) -> JoinKind {
        JoinKind::Kdj {
            k,
            policy: Policy::Aggressive { edmax_override },
        }
    }

    fn idj(take: usize) -> JoinKind {
        JoinKind::Idj {
            take,
            opts: AmIdjOptions::default(),
            window: None,
        }
    }

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

    #[test]
    fn matches_brute_force_across_thread_counts() {
        let a = grid(13, 0.0, 0.0);
        let b = grid(13, 0.27, 0.41);
        let (r, s) = trees(&a, &b);
        for threads in [1, 2, 3, 8] {
            for k in [1, 5, 64, 300] {
                let out = run(&r, &s, exact(k), &JoinConfig::unbounded(), threads);
                let want = bruteforce::k_closest_pairs(&a, &b, k);
                assert_eq!(out.results.len(), want.len(), "threads={threads} k={k}");
                for (i, (got, exp)) in out.results.iter().zip(want.iter()).enumerate() {
                    assert!(
                        (got.dist - exp.dist).abs() < 1e-9,
                        "threads={threads} k={k} rank {i}: got {} want {}",
                        got.dist,
                        exp.dist
                    );
                }
                assert!(out.results.windows(2).all(|w| w[0].dist <= w[1].dist));
            }
        }
    }

    #[test]
    fn agrees_with_sequential_b_kdj() {
        // Irrational-ish offsets keep pair distances tie-free, so the
        // sequential order is already canonical and the comparison exact.
        let a: Vec<(Rect<2>, u64)> = (0..150)
            .map(|i| {
                let x = (i % 15) as f64 * 1.618 + (i as f64 * 0.0137).sin();
                let y = (i / 15) as f64 * 2.414 + (i as f64 * 0.0271).cos();
                (Rect::from_point(Point::new([x, y])), i as u64)
            })
            .collect();
        let b: Vec<(Rect<2>, u64)> = (0..150)
            .map(|i| {
                let x = (i % 15) as f64 * 1.732 + 0.37;
                let y = (i / 15) as f64 * 2.236 + 0.89;
                (Rect::from_point(Point::new([x, y])), i as u64)
            })
            .collect();
        let (r, s) = trees(&a, &b);
        for k in [1, 17, 80] {
            let seq = b_kdj(&r, &s, k, &JoinConfig::unbounded());
            let par = run(&r, &s, exact(k), &JoinConfig::unbounded(), 4);
            assert_eq!(seq.results.len(), par.results.len(), "k={k}");
            for (x, y) in seq.results.iter().zip(par.results.iter()) {
                assert_eq!((x.r, x.s), (y.r, y.s), "k={k}");
                assert_eq!(x.dist.to_bits(), y.dist.to_bits(), "k={k}");
            }
        }
    }

    #[test]
    fn zero_threads_means_auto() {
        let a = grid(6, 0.0, 0.0);
        let b = grid(6, 0.4, 0.2);
        let (r, s) = trees(&a, &b);
        let out = run(&r, &s, exact(10), &JoinConfig::unbounded(), 0);
        assert_eq!(out.results.len(), 10);
    }

    #[test]
    fn empty_inputs_and_zero_k() {
        let a = grid(4, 0.0, 0.0);
        let empty: Vec<(Rect<2>, u64)> = Vec::new();
        let (r, s) = trees(&a, &empty);
        assert!(run(&r, &s, exact(5), &JoinConfig::unbounded(), 2)
            .results
            .is_empty());
        let (r, s) = trees(&a, &a);
        assert!(run(&r, &s, exact(0), &JoinConfig::unbounded(), 2)
            .results
            .is_empty());
    }

    #[test]
    fn k_larger_than_pair_count() {
        let a = grid(3, 0.0, 0.0);
        let b = grid(3, 0.5, 0.5);
        let (r, s) = trees(&a, &b);
        let out = run(&r, &s, exact(1000), &JoinConfig::unbounded(), 4);
        assert_eq!(out.results.len(), 81);
    }

    #[test]
    fn works_with_tight_queue_memory() {
        let a = grid(11, 0.0, 0.0);
        let b = grid(11, 0.33, 0.15);
        let (r, s) = trees(&a, &b);
        let mut cfg = JoinConfig::with_queue_memory(4 * 1024);
        cfg.queue_cost.page_size = 1024;
        let out = run(&r, &s, exact(50), &JoinConfig::unbounded(), 3);
        let tight = run(&r, &s, exact(50), &cfg, 3);
        for (x, y) in out.results.iter().zip(tight.results.iter()) {
            assert!((x.dist - y.dist).abs() < 1e-12);
        }
    }

    #[test]
    fn stats_aggregate_across_workers() {
        let a = grid(12, 0.0, 0.0);
        let b = grid(12, 0.21, 0.37);
        let (r, s) = trees(&a, &b);
        let out = run(&r, &s, exact(25), &JoinConfig::unbounded(), 4);
        let st = out.stats;
        assert_eq!(st.results, 25);
        assert!(st.real_dist > 0);
        assert!(st.mainq_insertions > 0);
        assert!(st.stage1_expansions > 0);
        assert!(st.node_requests >= st.node_disk_reads);
        assert!(st.cpu_seconds > 0.0);
    }

    #[test]
    fn per_worker_buffer_counters_attribute_traffic() {
        let a = grid(12, 0.0, 0.0);
        let b = grid(12, 0.21, 0.37);
        let (r, s) = trees(&a, &b);
        let st = run(&r, &s, exact(25), &JoinConfig::unbounded(), 4).stats;
        assert!(
            st.buffer_hits + st.buffer_misses > 0,
            "a join that touches nodes must see buffer traffic"
        );
        let worker_hits: u64 = st.buffer_hits_by_worker.iter().sum();
        let worker_misses: u64 = st.buffer_misses_by_worker.iter().sum();
        // Totals = workers + the coordinating thread (frontier seeding).
        assert!(worker_hits <= st.buffer_hits);
        assert!(worker_misses <= st.buffer_misses);
        assert!(
            worker_hits + worker_misses > 0,
            "workers do the traversal, so some slot must be nonzero"
        );
        for w in 4..crate::MAX_TRACKED_WORKERS {
            assert_eq!(st.buffer_hits_by_worker[w], 0, "only 4 workers ran");
            assert_eq!(st.buffer_misses_by_worker[w], 0);
        }
        // A one-thread join is one worker: slot 0 carries its traversal.
        let one = b_kdj(&r, &s, 25, &JoinConfig::unbounded()).stats;
        assert!(one.buffer_hits_by_worker[0] + one.buffer_misses_by_worker[0] > 0);
        assert!(one.buffer_hits_by_worker[1..].iter().all(|&h| h == 0));
        assert!(one.buffer_misses_by_worker[1..].iter().all(|&m| m == 0));
    }

    #[test]
    fn independent_joins_share_trees_concurrently() {
        // The thread-safety smoke test: two unrelated joins run at the
        // same time against the same pair of trees, each through &RTree.
        let a = grid(10, 0.0, 0.0);
        let b = grid(10, 0.4, 0.4);
        let (r, s) = trees(&a, &b);
        let expected = b_kdj(&r, &s, 30, &JoinConfig::unbounded());
        let (out1, out2) = std::thread::scope(|scope| {
            let h1 = scope.spawn(|| b_kdj(&r, &s, 30, &JoinConfig::unbounded()));
            let h2 = scope.spawn(|| crate::hs_kdj(&r, &s, 30, &JoinConfig::unbounded()));
            (
                h1.join().expect("join 1 panicked"),
                h2.join().expect("join 2 panicked"),
            )
        });
        assert_eq!(out1.results.len(), 30);
        assert_eq!(out2.results.len(), 30);
        for (x, y) in expected.results.iter().zip(out1.results.iter()) {
            assert!((x.dist - y.dist).abs() < 1e-12);
        }
        for (x, y) in expected.results.iter().zip(out2.results.iter()) {
            assert!((x.dist - y.dist).abs() < 1e-12);
        }
    }

    #[test]
    fn par_am_kdj_matches_brute_force() {
        let a = grid(12, 0.0, 0.0);
        let b = grid(12, 0.31, 0.17);
        let (r, s) = trees(&a, &b);
        for threads in [1, 3, 8] {
            for k in [1, 20, 150] {
                let out = run(
                    &r,
                    &s,
                    aggressive(k, None),
                    &JoinConfig::unbounded(),
                    threads,
                );
                let want = bruteforce::k_closest_pairs(&a, &b, k);
                assert_eq!(out.results.len(), want.len(), "threads={threads} k={k}");
                for (i, (got, exp)) in out.results.iter().zip(want.iter()).enumerate() {
                    assert!(
                        (got.dist - exp.dist).abs() < 1e-9,
                        "threads={threads} k={k} rank {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn par_am_kdj_underestimated_edmax_compensates() {
        let a = grid(11, 0.0, 0.0);
        let b = grid(11, 0.31, 0.17);
        let (r, s) = trees(&a, &b);
        let k = 80;
        let true_dmax = bruteforce::dmax_for_k(&a, &b, k).unwrap();
        let want = bruteforce::k_closest_pairs(&a, &b, k);
        for factor in [0.0, 0.05, 0.4, 0.9] {
            let out = run(
                &r,
                &s,
                aggressive(k, Some(true_dmax * factor)),
                &JoinConfig::unbounded(),
                4,
            );
            assert_eq!(out.results.len(), k, "factor={factor}");
            for (i, (got, exp)) in out.results.iter().zip(want.iter()).enumerate() {
                assert!(
                    (got.dist - exp.dist).abs() < 1e-9,
                    "factor={factor} rank {i}"
                );
            }
            assert_eq!(out.stats.stages, 2, "underestimate must compensate");
            assert!(out.stats.stage2_expansions + out.stats.comp_replays > 0);
        }
    }

    #[test]
    fn par_am_idj_matches_brute_force() {
        let a = grid(10, 0.0, 0.0);
        let b = grid(10, 0.33, 0.21);
        let (r, s) = trees(&a, &b);
        for threads in [1, 2, 4] {
            for take in [1, 25, 200] {
                let out = run(&r, &s, idj(take), &JoinConfig::unbounded(), threads);
                let want = bruteforce::k_closest_pairs(&a, &b, take);
                assert_eq!(
                    out.results.len(),
                    want.len(),
                    "threads={threads} take={take}"
                );
                for (i, (got, exp)) in out.results.iter().zip(want.iter()).enumerate() {
                    assert!(
                        (got.dist - exp.dist).abs() < 1e-9,
                        "threads={threads} take={take} rank {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn par_am_idj_exhausts_small_product() {
        let a = grid(4, 0.0, 0.0);
        let b = grid(4, 0.3, 0.3);
        let (r, s) = trees(&a, &b);
        let out = run(&r, &s, idj(1000), &JoinConfig::unbounded(), 3);
        assert_eq!(out.results.len(), 256, "all 16×16 pairs");
        assert!(out.results.windows(2).all(|w| w[0].dist <= w[1].dist));
    }
}
