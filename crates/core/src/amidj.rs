//! AM-IDJ (§4.2): the adaptive multi-stage *incremental* distance join.
//!
//! Adapter over the unified engine: the cursor wraps the engine's
//! [`StageDriver`], which owns the stage loop (`k₁ < k₂ < …`, the §4.3.2
//! eDmax corrections, and per-stage compensation) and is shared with the
//! parallel incremental backend. A cursor opened
//! [`with_take`](AmIdj::with_take) knows its k and bounds itself with
//! §4.1's distance queue; it is then the same join as a one-worker
//! [`par_am_idj`](crate::par_am_idj), counter for counter on tie-free
//! data.

use amdj_rtree::RTree;

use crate::engine::StageDriver;
use crate::stats::Baseline;
use crate::{AmIdjOptions, JoinConfig, JoinStats, ResultPair};

/// The AM-IDJ cursor: call [`next`](AmIdj::next) repeatedly; stages are
/// managed internally.
///
/// ```
/// use amdj_core::{AmIdj, AmIdjOptions, JoinConfig};
/// use amdj_geom::{Point, Rect};
/// use amdj_rtree::{RTree, RTreeParams};
///
/// let pts = |off: f64| -> Vec<(Rect<2>, u64)> {
///     (0..49).map(|i| {
///         let p = Point::new([(i % 7) as f64 + off, (i / 7) as f64]);
///         (Rect::from_point(p), i)
///     }).collect()
/// };
/// let mut r = RTree::bulk_load(RTreeParams::for_tests(), pts(0.0));
/// let mut s = RTree::bulk_load(RTreeParams::for_tests(), pts(0.4));
/// let mut cursor = AmIdj::new(&r, &s, &JoinConfig::unbounded(), AmIdjOptions::default());
/// let mut prev = 0.0;
/// for _ in 0..20 {
///     let pair = cursor.next().expect("plenty of pairs");
///     assert!(pair.dist >= prev);     // ascending stream
///     prev = pair.dist;
/// }
/// ```
pub struct AmIdj<'a, const D: usize> {
    r: &'a RTree<D>,
    s: &'a RTree<D>,
    driver: StageDriver<'a, D>,
    take: Option<usize>,
    baseline: Baseline,
}

impl<'a, const D: usize> AmIdj<'a, D> {
    /// Starts an incremental join over two indexes.
    pub fn new(r: &'a RTree<D>, s: &'a RTree<D>, cfg: &JoinConfig, opts: AmIdjOptions) -> Self {
        Self::start(r, s, cfg, opts, None)
    }

    /// Starts an incremental join that yields at most `take` pairs. Every
    /// object pair it queues enters a `take`-bounded distance queue, and
    /// the cursor clamps its cutoffs to that queue's `qDmax`: the pairs
    /// it yields are [`new`](Self::new)'s first `take`, for less work.
    pub fn with_take(
        r: &'a RTree<D>,
        s: &'a RTree<D>,
        cfg: &JoinConfig,
        opts: AmIdjOptions,
        take: usize,
    ) -> Self {
        Self::start(r, s, cfg, opts, Some(take))
    }

    fn start(
        r: &'a RTree<D>,
        s: &'a RTree<D>,
        cfg: &JoinConfig,
        opts: AmIdjOptions,
        take: Option<usize>,
    ) -> Self {
        // Captured before the driver's setup reads (the estimator and the
        // largest possible distance both touch the roots), so the cursor's
        // node counters cover the same window the parallel backend's
        // whole-join baseline does: one-worker runs then report identical
        // node_requests either way.
        let baseline = Baseline::capture(r, s);
        AmIdj {
            r,
            s,
            driver: StageDriver::standalone(r, s, cfg, opts, take),
            take,
            baseline,
        }
    }

    /// The stage currently executing (1-based).
    pub fn stage(&self) -> u32 {
        self.driver.stage()
    }

    /// The cutoff currently in force.
    pub fn current_edmax(&self) -> f64 {
        self.driver.current_edmax()
    }

    /// Produces the next nearest pair, advancing stages as needed;
    /// `None` when every pair (or the `take`) has been produced.
    #[allow(clippy::should_implement_trait)] // deliberate cursor API; &mut borrows preclude Iterator
    pub fn next(&mut self) -> Option<ResultPair> {
        if self.take.is_some_and(|t| self.driver.emitted() >= t as u64) {
            return None;
        }
        self.driver.next()
    }

    /// A snapshot of the work done so far.
    pub fn stats(&self) -> JoinStats {
        let mut st = self.driver.stats();
        self.baseline.delta(self.r, self.s, &mut st);
        st
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bruteforce;
    use crate::{Correction, EdmaxPolicy};
    use amdj_geom::{Point, Rect};
    use amdj_rtree::RTreeParams;

    fn grid(n: usize, dx: f64, dy: f64) -> Vec<(Rect<2>, u64)> {
        (0..n * n)
            .map(|i| {
                let p = Point::new([(i % n) as f64 + dx, (i / n) as f64 + dy]);
                (Rect::from_point(Point::new([p[0], p[1]])), i as u64)
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

    fn check_stream(a: &[(Rect<2>, u64)], b: &[(Rect<2>, u64)], take: usize, opts: AmIdjOptions) {
        let (r, s) = trees(a, b);
        let mut cursor = AmIdj::new(&r, &s, &JoinConfig::unbounded(), opts);
        let want = bruteforce::k_closest_pairs(a, b, take);
        let mut got = Vec::new();
        for _ in 0..take {
            match cursor.next() {
                Some(p) => got.push(p),
                None => break,
            }
        }
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
            assert!(
                (g.dist - w.dist).abs() < 1e-9,
                "rank {i}: got {} want {}",
                g.dist,
                w.dist
            );
        }
        assert!(got.windows(2).all(|w| w[0].dist <= w[1].dist));
    }

    #[test]
    fn streams_match_brute_force() {
        let a = grid(12, 0.0, 0.0);
        let b = grid(12, 0.29, 0.41);
        check_stream(&a, &b, 300, AmIdjOptions::default());
    }

    #[test]
    fn tiny_initial_k_forces_many_stages() {
        let a = grid(10, 0.0, 0.0);
        let b = grid(10, 0.33, 0.21);
        let opts = AmIdjOptions {
            initial_k: 1,
            growth: 1.5,
            ..AmIdjOptions::default()
        };
        let (r, s) = trees(&a, &b);
        let mut cursor = AmIdj::new(&r, &s, &JoinConfig::unbounded(), opts);
        let want = bruteforce::k_closest_pairs(&a, &b, 200);
        for (i, w) in want.iter().enumerate() {
            let g = cursor.next().unwrap_or_else(|| panic!("exhausted at {i}"));
            assert!((g.dist - w.dist).abs() < 1e-9, "rank {i}");
        }
        assert!(cursor.stage() > 1, "must have advanced stages");
    }

    #[test]
    fn schedule_policy_with_real_dmax() {
        let a = grid(10, 0.0, 0.0);
        let b = grid(10, 0.4, 0.3);
        let d30 = bruteforce::dmax_for_k(&a, &b, 30).unwrap();
        let d60 = bruteforce::dmax_for_k(&a, &b, 60).unwrap();
        let d90 = bruteforce::dmax_for_k(&a, &b, 90).unwrap();
        let opts = AmIdjOptions {
            initial_k: 30,
            growth: 2.0,
            edmax: EdmaxPolicy::Schedule(vec![d30, d60, d90]),
        };
        check_stream(&a, &b, 90, opts);
    }

    #[test]
    fn a_take_bounds_the_work_not_the_stream() {
        let a = grid(12, 0.0, 0.0);
        let b = grid(12, 0.29, 0.41);
        let (r, s) = trees(&a, &b);
        let cfg = JoinConfig::unbounded();
        let take = 150;
        let mut open = AmIdj::new(&r, &s, &cfg, AmIdjOptions::default());
        let mut bounded = AmIdj::with_take(&r, &s, &cfg, AmIdjOptions::default(), take);
        let want: Vec<_> = (0..take).map_while(|_| open.next()).collect();
        let got: Vec<_> = std::iter::from_fn(|| bounded.next()).collect();
        assert_eq!(got.len(), take, "a take-bounded cursor stops at its take");
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.dist.to_bits(), w.dist.to_bits(), "rank {i}");
        }
        let (st, unbounded) = (bounded.stats(), open.stats());
        assert!(
            st.distq_insertions >= take as u64,
            "every queued pair is counted"
        );
        assert!(st.real_dist <= unbounded.real_dist);
        assert!(st.mainq_insertions < unbounded.mainq_insertions);
    }

    #[test]
    fn exhausts_the_full_cartesian_product() {
        let a = grid(4, 0.0, 0.0);
        let b = grid(4, 0.3, 0.3);
        let (r, s) = trees(&a, &b);
        let mut cursor = AmIdj::new(&r, &s, &JoinConfig::unbounded(), AmIdjOptions::default());
        let mut n = 0;
        let mut prev = -1.0;
        while let Some(p) = cursor.next() {
            assert!(p.dist >= prev);
            prev = p.dist;
            n += 1;
        }
        assert_eq!(n, 256, "all 16×16 pairs stream out");
        assert!(cursor.next().is_none());
    }

    #[test]
    fn underestimating_schedule_still_exact() {
        // Schedule far below the real distances: every stage compensates.
        let a = grid(9, 0.0, 0.0);
        let b = grid(9, 0.37, 0.19);
        let opts = AmIdjOptions {
            initial_k: 8,
            growth: 2.0,
            edmax: EdmaxPolicy::Schedule(vec![1e-6, 2e-6, 4e-6]),
        };
        check_stream(&a, &b, 120, opts);
    }

    #[test]
    fn stats_accumulate() {
        let a = grid(8, 0.0, 0.0);
        let b = grid(8, 0.5, 0.5);
        let (r, s) = trees(&a, &b);
        let mut cursor = AmIdj::new(&r, &s, &JoinConfig::unbounded(), AmIdjOptions::default());
        for _ in 0..40 {
            cursor.next().unwrap();
        }
        let st = cursor.stats();
        assert_eq!(st.results, 40);
        assert!(st.real_dist > 0);
        assert!(st.node_requests > 0);
        assert!(st.cpu_seconds > 0.0);
    }

    #[test]
    fn empty_side_yields_nothing() {
        let r: amdj_rtree::RTree<2> = amdj_rtree::RTree::new(RTreeParams::for_tests());
        let s = amdj_rtree::RTree::bulk_load(RTreeParams::for_tests(), grid(3, 0.0, 0.0));
        let mut cursor = AmIdj::new(&r, &s, &JoinConfig::unbounded(), AmIdjOptions::default());
        assert!(cursor.next().is_none());
    }

    #[test]
    fn min_of_both_correction_still_exact() {
        let a = grid(9, 0.0, 0.0);
        let b = grid(9, 0.21, 0.43);
        let opts = AmIdjOptions {
            initial_k: 4,
            growth: 2.0,
            edmax: EdmaxPolicy::Estimated(Correction::MinOfBoth),
        };
        check_stream(&a, &b, 150, opts);
    }
}
