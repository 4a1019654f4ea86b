//! The frontier helpers of the claim-round runner
//! ([`steal`](super::steal)) and the exactness arguments behind it.
//!
//! Every k-distance and incremental join runs the runner's claim rounds:
//! the frontier is dealt round-robin into per-worker ascending deques that
//! workers claim prefixes of, and drained workers steal the tail half of
//! a loaded peer's claimable prefix instead of idling at the stage barrier
//! ([`JoinStats::barrier_idle_ns`] measures what idle time remains). The
//! path is the checkpointable one — a fired
//! [`PauseCtl`](super::checkpoint::PauseCtl) drains every worker into one
//! canonical frontier snapshot (DESIGN.md §9). One worker is the paper's
//! sequential join.
//!
//! # Exactness with several workers
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
//! on timing. A lone worker's clamp is its own `qDmax`.
//!
//! Under the aggressive policy, each worker parks its skipped-pair
//! bookkeeping in a *per-worker* compensation queue (no contention). When
//! every worker has finished its aggressive stage, the leftovers — parked
//! compensation entries and unprocessed main-queue pairs — are pooled,
//! pruned against the now-tight shared bound, redistributed round-robin,
//! and replayed by a second stage whose cutoffs are exact
//! (`min(qDmax, shared)`), preserving the no-false-dismissals guarantee.
//! The stage-two workers' distance queues are pre-seeded (uncounted) with
//! the pooled k smallest stage-one distances, so their `qDmax` starts
//! tight instead of at infinity.
//!
//! [`JoinStats::barrier_idle_ns`]: crate::JoinStats::barrier_idle_ns
//! [`MinBound`]: super::bound::MinBound

use amdj_rtree::RTree;

use crate::{ItemRef, JoinConfig, JoinStats, Pair, ResultPair};

use super::expand::root_pair;
use super::sweep::{MarkMode, SweepScratch, SweepSink};

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
    let Some(root) = root_pair(r, s) else {
        return Vec::new();
    };
    let mut frontier = vec![root];
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

/// Sorts results into the canonical `(dist, r, s)` order the runner
/// merges with.
pub(crate) fn sort_canonical(results: &mut [ResultPair]) {
    results.sort_unstable_by(|a, b| {
        a.dist
            .total_cmp(&b.dist)
            .then_with(|| a.r.cmp(&b.r))
            .then_with(|| a.s.cmp(&b.s))
    });
}
