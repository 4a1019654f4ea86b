//! The expansion core: the one machine under both engine drivers.
//!
//! AM-KDJ, B-KDJ and AM-IDJ run the same loop (§4.1, Algorithms 2–3;
//! §4.2): take the nearest key from the main or the compensation queue,
//! expand a node pair with the optimized plane sweep, park what the
//! cutoff skipped, and replay parked entries in a later stage.
//! [`ExpansionCore`] does each of these once. The two drivers hold one
//! and keep only their stage policy: one compensation stage under a
//! proven `qDmax` ([`ExpansionDriver`](super::driver::ExpansionDriver)),
//! or an `eDmax` re-estimated every stage
//! ([`StageDriver`](super::stage::StageDriver)). Their emissions do
//! different work, so each passes a closure that builds its own sink
//! over the core's main queue, and every sweep stays monomorphized.

use amdj_rtree::RTree;

use crate::mainq::MainQueue;
use crate::{Estimator, ItemRef, JoinConfig, JoinStats, Pair, ResultPair};

use super::checkpoint::PauseCtl;
use super::sweep::{CompEntry, CompQueue, MarkMode, SweepScratch, SweepSink};

/// The pair of root nodes, the starting point of every traversal; `None`
/// when either tree is empty.
pub(crate) fn root_pair<const D: usize>(r: &RTree<D>, s: &RTree<D>) -> Option<Pair<D>> {
    let (rb, sb) = (r.bounds()?, s.bounds()?);
    let (rp, sp) = (r.root_page()?, s.root_page()?);
    Some(Pair {
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
    })
}

pub(crate) fn to_result<const D: usize>(pair: &Pair<D>) -> ResultPair {
    let (ItemRef::Object { oid: a }, ItemRef::Object { oid: b }) = (pair.a, pair.b) else {
        panic!("not an object pair")
    };
    ResultPair {
        r: a,
        s: b,
        dist: pair.dist,
    }
}

/// The trees, the queues, the sweep scratch, the pause control and the
/// work counters of one expansion loop. A driver reads and seeds the
/// queues directly and leaves every expansion, replay and cut to the
/// core.
pub(crate) struct ExpansionCore<'x, const D: usize> {
    r: &'x RTree<D>,
    s: &'x RTree<D>,
    cfg: JoinConfig,
    scratch: SweepScratch<D>,
    pub(super) mainq: MainQueue<D>,
    pub(super) compq: CompQueue<D>,
    /// Cooperative pause signal of a resumable join: checked at the
    /// drivers' loop tops, ticked once per expansion or replay.
    pub(super) pause: Option<&'x PauseCtl>,
    /// The loop's own counters. `stages` is the stage running now and
    /// decides which expansion counter an expansion lands in.
    pub(super) stats: JoinStats,
}

impl<'x, const D: usize> ExpansionCore<'x, D> {
    pub(crate) fn new(
        r: &'x RTree<D>,
        s: &'x RTree<D>,
        cfg: &JoinConfig,
        est: Option<&Estimator<D>>,
        pause: Option<&'x PauseCtl>,
    ) -> Self {
        ExpansionCore {
            r,
            s,
            cfg: cfg.clone(),
            scratch: SweepScratch::new(),
            mainq: MainQueue::new(cfg, est),
            compq: CompQueue::new(),
            pause,
            stats: JoinStats {
                stages: 1,
                ..JoinStats::default()
            },
        }
    }

    /// Whether the pause control has fired.
    pub(crate) fn paused(&self) -> bool {
        self.pause.is_some_and(|p| p.should_pause())
    }

    /// Counts one expansion or replay toward the pause budget.
    fn tick(&self) {
        if let Some(p) = self.pause {
            p.note_expansion();
        }
    }

    /// The smallest key of the merged queues and whether it is the main
    /// queue's (Algorithm 3's merge: the main queue wins ties). `None`
    /// when both are empty.
    pub(crate) fn next_key(&mut self) -> Option<(f64, bool)> {
        match (self.mainq.peek_min(), self.compq.peek_key()) {
            (None, None) => None,
            (Some(m), None) => Some((m, true)),
            (None, Some(c)) => Some((c, false)),
            (Some(m), Some(c)) => Some((m.min(c), m <= c)),
        }
    }

    /// Expands the node pair `pair`: fetches both sides, chooses the
    /// sweep setup under `cutoff`, and sweeps into the sink `sink` builds
    /// over the main queue, counting the expansion and ticking the pause
    /// control. A recording `mode` parks the expansion when the sweep
    /// left pairs unexamined or rejected. Every such pair lies strictly
    /// beyond `cutoff`, so the park key does too; otherwise the entry
    /// would come back in the same stage without progress.
    pub(crate) fn expand<'m, K: SweepSink<D>>(
        &'m mut self,
        pair: &Pair<D>,
        cutoff: f64,
        mode: MarkMode,
        sink: impl FnOnce(&'m mut MainQueue<D>) -> K,
    ) {
        self.scratch.expand(self.r, self.s, pair, cutoff, &self.cfg);
        if self.stats.stages == 1 {
            self.stats.stage1_expansions += 1;
        } else {
            self.stats.stage2_expansions += 1;
        }
        self.tick();
        let mut sink = sink(&mut self.mainq);
        self.scratch.sweep(&mut sink, &mut self.stats, mode);
        if mode != MarkMode::None && !self.scratch.marks_exhausted() {
            let entry = self.scratch.park(pair.dist.max(cutoff.next_up()), pair);
            self.compq.push(entry, &mut self.stats);
        }
    }

    /// Replays the parked entry at the head of the compensation queue:
    /// sweeps the child pairs its expansion skipped into the sink `sink`
    /// builds, and ticks the pause control. With `repark`, an entry that
    /// still holds skipped pairs parks again at that key; without it the
    /// entry is spent (a proven cutoff dismisses what it still holds).
    pub(crate) fn replay<'m, K: SweepSink<D>>(
        &'m mut self,
        repark: Option<f64>,
        sink: impl FnOnce(&'m mut MainQueue<D>) -> K,
    ) {
        let mut entry = self.compq.pop().expect("replay needs a parked entry");
        self.tick();
        let mut sink = sink(&mut self.mainq);
        let (r, s) = (self.r, self.s);
        let exhausted = self
            .scratch
            .compensate(r, s, &mut entry, &mut sink, &mut self.stats);
        if let Some(key) = repark.filter(|_| !exhausted) {
            entry.key = key;
            self.compq.push(entry, &mut self.stats);
        }
    }

    /// Drains the queues for a cut at `bound`: the main queue's pairs and
    /// the parked entries keyed at or below it, each ascending. Anything
    /// keyed strictly above lies outside the answer: the bound is a
    /// published `qDmax`, the k-th of k real distinct-pair distances, and
    /// a key lower-bounds every pair its item can still produce. The
    /// comparisons are `<=`, since a strict `<` would dismiss work
    /// exactly at the bound.
    pub(crate) fn drain(&mut self, bound: f64) -> (Vec<Pair<D>>, Vec<CompEntry<D>>) {
        let mut frontier = Vec::new();
        while let Some(pair) = self.mainq.pop() {
            if pair.dist > bound {
                break;
            }
            frontier.push(pair);
        }
        let mut comps = self.compq.drain_sorted();
        comps.retain(|e| e.key <= bound);
        (frontier, comps)
    }

    /// The work so far: the loop's own counters plus its main queue's
    /// insertions, page transfers and modeled I/O.
    pub(crate) fn stats(&self) -> JoinStats {
        let mut st = self.stats;
        self.mainq.account(&mut st);
        st
    }
}
