//! A one-worker incremental join held between pulls: the live state of a
//! serve cursor.
//!
//! The paper's AM-IDJ is a cursor. Its stage loop, its queues and its
//! compensation state carry over from one `next()` to the next, and so
//! they do here: [`LiveIdj`] keeps a `take`-bounded [`StageDriver`] and
//! every result it produced, and a pull pumps that driver on the calling
//! thread until the window it asks for is stable. Nothing is drained or
//! re-inserted between pulls. A snapshot is cut only when the cursor
//! must leave memory ([`suspend`](LiveIdj::suspend)), through the same
//! [`Cut`] the claim-round runner suspends into, and a cursor goes back
//! to a live driver from any incremental snapshot
//! ([`resume`](LiveIdj::resume)).
//!
//! # Stable-prefix rule
//!
//! The driver emits results in ascending distance, ties in queue order,
//! while a client is owed the canonical `(dist, r, s)` order. The
//! smallest key of the driver's queues lower-bounds every pair it can
//! still produce: a node pair's key lower-bounds its descendants, a
//! parked compensation entry's key every pair its replay can recover.
//! So every result *strictly* below that key is final (strictly, because
//! an equal-distance pair with smaller ids would sort earlier), and the
//! stable prefix can be sorted canonically and handed out.

use amdj_rtree::RTree;

use crate::stats::Baseline;
use crate::{AmIdjOptions, JoinConfig, JoinStats, ResultPair};

use super::backend::sort_canonical;
use super::checkpoint::Checkpointed;
use super::snapshot::{EngineSnapshot, SnapshotKind};
use super::stage::{StageDriver, Step};

/// A one-worker incremental join over two borrowed trees, with every
/// result it produced so far.
pub(crate) struct LiveIdj<'t, const D: usize> {
    r: &'t RTree<D>,
    s: &'t RTree<D>,
    take: usize,
    driver: StageDriver<'t, D>,
    /// Every result produced, ascending by distance. The first `sorted`
    /// are stable and in canonical order.
    results: Vec<ResultPair>,
    sorted: usize,
    /// The driver stopped at its `take` bound: nothing it still holds can
    /// make the `take`, so every result is final.
    over: bool,
}

impl<const D: usize> std::fmt::Debug for LiveIdj<'_, D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveIdj")
            .field("take", &self.take)
            .field("results", &self.results.len())
            .field("stage", &self.driver.stage())
            .finish_non_exhaustive()
    }
}

impl<'t, const D: usize> LiveIdj<'t, D> {
    /// A fresh join for the first `take` pairs, seeded with the root pair.
    pub(crate) fn start(
        r: &'t RTree<D>,
        s: &'t RTree<D>,
        cfg: &JoinConfig,
        opts: &AmIdjOptions,
        take: usize,
    ) -> Self {
        let driver = StageDriver::standalone(r, s, cfg, opts.clone(), Some(take));
        Self::with(r, s, take, driver, Vec::new())
    }

    /// Goes on from an incremental snapshot's cut. Its results come back
    /// as produced, and everything else re-enters the driver uncounted.
    /// A snapshot of another join kind is not accepted by the callers.
    pub(crate) fn resume(
        r: &'t RTree<D>,
        s: &'t RTree<D>,
        cfg: &JoinConfig,
        opts: &AmIdjOptions,
        mut snap: EngineSnapshot<D>,
    ) -> Self {
        let SnapshotKind::Idj { take } = snap.kind else {
            unreachable!("callers resume incremental snapshots only")
        };
        let take = take as usize;
        let driver = StageDriver::restored(r, s, cfg, opts.clone(), take, &mut snap);
        Self::with(r, s, take, driver, snap.results)
    }

    fn with(
        r: &'t RTree<D>,
        s: &'t RTree<D>,
        take: usize,
        driver: StageDriver<'t, D>,
        results: Vec<ResultPair>,
    ) -> Self {
        LiveIdj {
            r,
            s,
            take,
            driver,
            results,
            sorted: 0,
            over: false,
        }
    }

    /// How many results are final: those strictly below the driver's
    /// smallest pending key, or all of them once nothing pending can
    /// make the `take`.
    fn stable(&mut self) -> usize {
        match self.driver.peek_key() {
            Some(key) if !self.over => self.results.partition_point(|p| p.dist < key),
            _ => self.results.len(),
        }
    }

    /// Pumps the driver until the first `want` results are stable (or
    /// nothing more can be), and returns how many are stable, at most
    /// `take`. The stable prefix is then in canonical order. The driver
    /// stops before any work once its smallest key passes the `want`-th
    /// result, so a later pull goes on exactly where an uninterrupted
    /// join would.
    pub(crate) fn pump(&mut self, want: usize) -> usize {
        let want = want.min(self.take);
        let mut stable = self.stable();
        while stable < want && !self.over {
            let limit = self.results.get(want - 1).map_or(f64::INFINITY, |p| p.dist);
            match self.driver.next_step(limit, |_| false) {
                Step::Pair(pair) => {
                    // The tail is ascending (a restored tail included), so
                    // this is an append but for restored results above it.
                    let at = self.results.partition_point(|p| p.dist <= pair.dist);
                    self.results.insert(at, pair);
                }
                // With no pause control and no hold, only the limit or
                // the `take` bound stops the driver: past the limit the
                // window is stable, past the bound every result is.
                _ => self.over = self.stable() < want,
            }
            stable = self.stable();
        }
        if stable > self.sorted {
            sort_canonical(&mut self.results[self.sorted..stable]);
            self.sorted = stable;
        }
        stable.min(self.take)
    }

    /// Whether the join owes nothing more: `take` results are stable, or
    /// nothing pending can make the `take`.
    pub(crate) fn finished(&mut self) -> bool {
        self.over || self.driver.peek_key().is_none() || self.stable() >= self.take
    }

    /// The stable results the last [`pump`](Self::pump) reported, at most
    /// `take`, in canonical order.
    pub(crate) fn stable_prefix(&self) -> &[ResultPair] {
        &self.results[..self.sorted.min(self.take)]
    }

    /// Gives up the results; the driver is dropped with its queues.
    pub(crate) fn into_results(self) -> Vec<ResultPair> {
        self.results
    }

    /// Bytes the driver's main queue holds resident (heap and spill
    /// pages).
    pub(crate) fn queue_bytes(&self) -> u64 {
        self.driver.queue_bytes()
    }

    /// The driver's work so far (tree and buffer deltas are the caller's
    /// to attribute).
    pub(crate) fn stats(&self) -> JoinStats {
        self.driver.stats()
    }

    /// Cuts the join into a snapshot through the runner's path: the driver
    /// drains everything at or below its `take` bound, the results join
    /// the cut, and the cut gathers its distance evidence. Returns the
    /// snapshot and the driver's work.
    pub(crate) fn suspend(self) -> (EngineSnapshot<D>, JoinStats) {
        let baseline = Baseline::capture(self.r, self.s);
        let (mut cut, stats) = self.driver.suspend();
        cut.results = self.results;
        let bound = cut.gather_evidence(self.take);
        let kind = SnapshotKind::Idj {
            take: self.take as u64,
        };
        match cut.suspend(self.r, self.s, kind, bound, baseline, stats) {
            Checkpointed::Suspended(snap, stats) => (*snap, stats),
            Checkpointed::Done(_) => unreachable!("a cut always suspends"),
        }
    }
}
