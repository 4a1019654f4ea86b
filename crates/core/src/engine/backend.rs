//! Execution backends: how many expansion drivers run, and how their
//! stages hand work to each other.
//!
//! [`Sequential`] runs one [`ExpansionDriver`] (or one
//! [`StageDriver`](super::stage::StageDriver)) to completion.
//! [`Parallel`] runs the claim-round scheduler of the
//! [`steal`](super::steal) module: the frontier is dealt round-robin into
//! per-worker ascending deques that workers claim prefixes of, and
//! drained workers steal the tail half of a loaded peer's claimable
//! prefix instead of idling at the stage barrier
//! ([`JoinStats::barrier_idle_ns`] measures what idle time remains). The
//! path is the checkpointable one — a fired
//! [`PauseCtl`](super::checkpoint::PauseCtl) drains every worker into one
//! canonical frontier snapshot (DESIGN.md §9).
//!
//! # Exactness of the parallel backend
//!
//! Bidirectional expansion replaces a node pair by the cross product of
//! its children pairs, so every object pair descends from *exactly one*
//! pair of any frontier cut through the expansion DAG. The frontier here
//! is built by expanding node pairs with an infinite pruning cutoff
//! (nothing is dropped) until there are enough pairs to feed every
//! worker; partitioning that frontier therefore partitions the
//! object-pair space. Each worker computes the exact k nearest pairs of
//! its partition, and the global k nearest pairs — each living in exactly
//! one partition, at local rank ≤ k — all survive into the merge, which
//! sorts by `(dist, r, s)` and truncates to `k`.
//!
//! # The shared bound
//!
//! Every worker — under either policy — publishes its `qDmax` into the
//! shared [`MinBound`] whenever it tightens, and clamps its own cutoffs
//! to the shared value. The clamp is sound because each published value
//! is the k-th smallest of k *real pair distances* of distinct pairs —
//! any such value upper-bounds the global `Dmax(k)`, so a pair beyond the
//! shared bound can never be among the global k nearest. The bound is
//! monotone non-increasing (CAS-min), so a stale read is merely a
//! *larger* bound: reads can be `Relaxed` and correctness never depends
//! on timing.
//!
//! Under the aggressive policy, each worker parks its skipped-pair
//! bookkeeping in a *per-worker* compensation queue (no contention). When
//! every worker has finished its aggressive stage, the leftovers — parked
//! compensation entries and unprocessed main-queue pairs — are pooled,
//! pruned against the now-tight shared bound, redistributed round-robin,
//! and replayed by a second parallel stage whose cutoffs are exact
//! (`min(qDmax, shared)`), preserving the no-false-dismissals guarantee.
//! The stage-two workers' distance queues are pre-seeded (uncounted) with
//! the pooled k smallest stage-one distances, so their `qDmax` starts
//! tight instead of at infinity.
//!
//! [`JoinStats::barrier_idle_ns`]: crate::JoinStats::barrier_idle_ns
//! [`MinBound`]: super::bound::MinBound

use amdj_rtree::RTree;

use crate::stats::Baseline;
use crate::{
    AmIdjOptions, Estimator, ItemRef, JoinConfig, JoinOutput, JoinStats, Pair, ResultPair,
};

use super::driver::ExpansionDriver;
use super::policy::PruningPolicy;
use super::stage::StageDriver;
use super::steal::{self, TestSchedule};
use super::sweep::{MarkMode, SweepScratch, SweepSink};

/// How a join executes: one driver, or a fleet of frontier-partitioned
/// workers. Backends own thread management, work distribution between
/// stages, and stats aggregation; all join logic lives in the drivers.
pub trait ExecBackend {
    /// Runs a k-distance join under `policy`: the `k` nearest pairs in
    /// canonical `(dist, r, s)` order.
    fn run_kdj<const D: usize, P: PruningPolicy>(
        &self,
        r: &RTree<D>,
        s: &RTree<D>,
        k: usize,
        cfg: &JoinConfig,
        policy: &P,
    ) -> JoinOutput;

    /// Runs the incremental distance join, materializing its first `take`
    /// pairs.
    fn run_idj<const D: usize>(
        &self,
        r: &RTree<D>,
        s: &RTree<D>,
        take: usize,
        cfg: &JoinConfig,
        opts: &AmIdjOptions,
    ) -> JoinOutput;
}

/// One driver, one thread: the paper's sequential algorithms.
#[derive(Clone, Copy, Debug, Default)]
pub struct Sequential;

impl ExecBackend for Sequential {
    fn run_kdj<const D: usize, P: PruningPolicy>(
        &self,
        r: &RTree<D>,
        s: &RTree<D>,
        k: usize,
        cfg: &JoinConfig,
        policy: &P,
    ) -> JoinOutput {
        let baseline = Baseline::capture(r, s);
        let est = Estimator::from_trees(r, s);
        let edmax0 = policy.initial_edmax(est.as_ref(), k);
        let mut drv = ExpansionDriver::new(r, s, cfg, k, est.as_ref(), P::AGGRESSIVE, edmax0, None);
        if k > 0 {
            drv.seed_roots();
        }
        drv.run_stage_one();
        if P::AGGRESSIVE && drv.needs_stage_two() {
            drv.stats.stages = 2;
            drv.run_stage_two();
        }
        let (results, mut stats, queue_io) = drv.finish();
        stats.results = results.len() as u64;
        baseline.finish(r, s, &mut stats, queue_io);
        JoinOutput { results, stats }
    }

    fn run_idj<const D: usize>(
        &self,
        r: &RTree<D>,
        s: &RTree<D>,
        take: usize,
        cfg: &JoinConfig,
        opts: &AmIdjOptions,
    ) -> JoinOutput {
        let mut cursor = StageDriver::new(r, s, cfg, opts.clone());
        let mut results = Vec::with_capacity(take.min(1 << 20));
        while results.len() < take {
            let Some(pair) = cursor.next() else { break };
            results.push(pair);
        }
        let stats = cursor.stats();
        JoinOutput { results, stats }
    }
}

/// Frontier-partitioned workers sharing the CAS-min
/// [`MinBound`](super::bound::MinBound), with pooled compensation queues
/// between the stages. `threads == 0` uses
/// [`std::thread::available_parallelism`]. Workers steal from each other
/// (see the module docs).
#[derive(Clone, Copy, Debug, Default)]
pub struct Parallel {
    /// Worker count; `0` resolves to the machine's available parallelism.
    pub threads: usize,
    /// Deterministic schedule perturbation for the claim/steal protocol —
    /// test-only machinery; leave `None` in production use.
    pub schedule: Option<TestSchedule>,
}

impl Parallel {
    /// A backend with `threads` workers and no schedule perturbation.
    pub fn new(threads: usize) -> Self {
        Parallel {
            threads,
            schedule: None,
        }
    }
}

impl ExecBackend for Parallel {
    fn run_kdj<const D: usize, P: PruningPolicy>(
        &self,
        r: &RTree<D>,
        s: &RTree<D>,
        k: usize,
        cfg: &JoinConfig,
        policy: &P,
    ) -> JoinOutput {
        let threads = resolve_threads(self.threads);
        steal::run_kdj::<D, P>(r, s, k, cfg, policy, threads, self.schedule)
    }

    fn run_idj<const D: usize>(
        &self,
        r: &RTree<D>,
        s: &RTree<D>,
        take: usize,
        cfg: &JoinConfig,
        opts: &AmIdjOptions,
    ) -> JoinOutput {
        let threads = resolve_threads(self.threads);
        steal::run_idj(r, s, take, cfg, opts, threads, self.schedule)
    }
}

/// Collects every swept pair, pruning nothing — used to split frontier
/// pairs without losing any descendant.
struct CollectAll<const D: usize> {
    pairs: Vec<Pair<D>>,
}

impl<const D: usize> SweepSink<D> for CollectAll<D> {
    fn axis_cutoff(&self) -> f64 {
        f64::INFINITY
    }
    fn real_cutoff(&self) -> f64 {
        f64::INFINITY
    }
    fn emit(&mut self, pair: Pair<D>) {
        self.pairs.push(pair);
    }
}

/// Sum over workers of `last_finish − own_finish`: the idle time a stage
/// barrier imposed on the workers that finished early.
pub(crate) fn barrier_idle(finish_ns: &[u64]) -> u64 {
    let max = finish_ns.iter().copied().max().unwrap_or(0);
    finish_ns.iter().map(|&ns| max - ns).sum()
}

/// Expands the root pair breadth-first (coarsest node pairs first, no
/// pruning) until at least `target` pairs exist or only object pairs
/// remain.
pub(crate) fn seed_frontier<const D: usize>(
    r: &RTree<D>,
    s: &RTree<D>,
    cfg: &JoinConfig,
    target: usize,
    stats: &mut JoinStats,
) -> Vec<Pair<D>> {
    let (Some(rb), Some(sb), Some(rp), Some(sp)) =
        (r.bounds(), s.bounds(), r.root_page(), s.root_page())
    else {
        return Vec::new();
    };
    let mut frontier = vec![Pair {
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
    }];
    let mut scratch = SweepScratch::new();
    while frontier.len() < target {
        // Split the coarsest remaining node pair so the frontier stays
        // balanced; stop once only object pairs are left.
        let Some(idx) = frontier
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.is_result())
            .max_by_key(|(_, p)| pair_level(p))
            .map(|(i, _)| i)
        else {
            break;
        };
        let pair = frontier.swap_remove(idx);
        scratch.expand(r, s, &pair, f64::INFINITY, cfg);
        let mut sink = CollectAll { pairs: Vec::new() };
        scratch.sweep(&mut sink, stats, MarkMode::None);
        frontier.append(&mut sink.pairs);
    }
    frontier
}

fn pair_level<const D: usize>(p: &Pair<D>) -> u32 {
    let side = |i: ItemRef| match i {
        ItemRef::Node { level, .. } => level + 1,
        ItemRef::Object { .. } => 0,
    };
    side(p.a).max(side(p.b))
}

pub(crate) fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    }
}

/// Sorts results into the canonical `(dist, r, s)` order all parallel
/// backends merge with.
pub(crate) fn sort_canonical(results: &mut [ResultPair]) {
    results.sort_unstable_by(|a, b| {
        a.dist
            .total_cmp(&b.dist)
            .then_with(|| a.r.cmp(&b.r))
            .then_with(|| a.s.cmp(&b.s))
    });
}
