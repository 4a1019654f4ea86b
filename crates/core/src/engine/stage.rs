//! The incremental join's stage policy (§4.2–4.3) over the shared
//! [`ExpansionCore`]: the machinery behind AM-IDJ, used by the
//! sequential cursor ([`crate::AmIdj`]) and the parallel incremental
//! join workers.
//!
//! The paper's AM-IDJ knows no stopping cardinality, so it has no
//! distance queue and no `qDmax`; each stage prunes on an estimated
//! `eDmax_i` alone and streams out every pair closer than it. When the
//! consumer wants more, the next stage raises the estimate (§4.3.2's
//! corrections) and *compensates*: the per-anchor marks kept with every
//! expanded pair let stage `i+1` examine exactly the child pairs stages
//! `1..i` skipped.
//!
//! A driver given a `take` knows its k, and then keeps §4.1's distance
//! queue after all: every object pair it queues is a real pair, produced
//! by exactly one expansion or replay, so the `take`-th smallest of their
//! distances bounds the `take`-th result, and the driver clamps its
//! cutoffs (and stops) there.

use amdj_rtree::RTree;

use crate::mainq::MainQueue;
use crate::{
    AmIdjOptions, Correction, DistanceQueue, EdmaxPolicy, Estimator, JoinConfig, JoinStats, Pair,
    ResultPair,
};

use super::bound::MinBound;
use super::checkpoint::PauseCtl;
use super::expand::{root_pair, to_result, ExpansionCore};
use super::snapshot::EngineSnapshot;
use super::steal::Cut;
use super::sweep::{CompEntry, MarkMode, SweepSink};

/// Sink for incremental sweeps: the stage's clamped `eDmax` is the only
/// cutoff (§4.2), for both the axis and the real distance. Both are
/// frozen for the whole sweep, so every scan finds its window with one
/// walk over the sort keys (the one-sided key test, exact for partners
/// at or after the anchor:
/// [`SweepSide::reach`](super::sweep::SweepSide::reach)) before it
/// computes any distance. Every object pair it queues enters the
/// driver's `take` queue, if it has one.
struct IdjSink<'x, const D: usize> {
    mainq: &'x mut MainQueue<D>,
    distq: Option<&'x mut DistanceQueue>,
    edmax: f64,
}

impl<const D: usize> SweepSink<D> for IdjSink<'_, D> {
    fn axis_cutoff(&self) -> f64 {
        self.edmax
    }
    fn real_cutoff(&self) -> f64 {
        self.edmax
    }
    fn fixed_axis_cutoff(&self) -> Option<f64> {
        Some(self.edmax)
    }
    fn emit(&mut self, pair: Pair<D>) {
        if let Some(distq) = self.distq.as_mut().filter(|_| pair.is_result()) {
            distq.insert(pair.dist);
        }
        self.mainq.push(pair);
    }
}

/// One incremental expansion loop: stages `k₁ < k₂ < …`, each pruning on
/// its own `eDmax_i`, with full per-anchor skip bookkeeping so later
/// stages compensate exactly. Drive it with [`next`](Self::next).
///
/// Where the k-distance driver owes a *single* compensation stage (its
/// `qDmax` eventually becomes exact), the incremental loop re-estimates
/// and compensates once per stage, indefinitely. Both run on the same
/// expansion core.
pub struct StageDriver<'a, const D: usize> {
    core: ExpansionCore<'a, D>,
    opts: AmIdjOptions,
    est: Option<Estimator<D>>,
    /// A global pruning bound shared with sibling cursors (parallel
    /// incremental join): cutoffs are clamped to it, the driver publishes
    /// its `take` queue's `qDmax` into it, and the owning worker stops
    /// consuming once the stream passes it. `None` when standalone.
    shared: Option<&'a MinBound>,
    /// §4.1's distance queue over the object pairs this driver queued,
    /// bounded to the join's `take`; `None` when no `take` is known.
    distq: Option<DistanceQueue>,
    edmax: f64,
    k_target: u64,
    emitted: u64,
    last_dist: f64,
    /// Upper bound on any possible pair distance — the terminal `eDmax`.
    max_possible: f64,
}

/// One advance of the stage loop, pause-aware (the resumable incremental
/// join drives the cursor through this instead of
/// [`StageDriver::next`]).
pub(crate) enum Step {
    /// The next nearest pair.
    Pair(ResultPair),
    /// Every pair has been produced, or everything still queued lies
    /// beyond the step's limit or the driver's bound.
    Done,
    /// The pause control fired; suspend the cursor.
    Paused,
    /// Everything queued lies beyond the stage cutoff, but the caller's
    /// `hold` reported work it could still hand over at or below that
    /// cutoff: the stage is not exhausted, so it was not advanced.
    Held,
}

impl<'a, const D: usize> StageDriver<'a, D> {
    /// Starts an incremental join over two indexes, seeded with the root
    /// pair.
    pub fn new(r: &'a RTree<D>, s: &'a RTree<D>, cfg: &JoinConfig, opts: AmIdjOptions) -> Self {
        Self::standalone(r, s, cfg, opts, None)
    }

    /// [`new`](Self::new), with a distance queue bounded to the first
    /// `take` pairs when `take` is given.
    pub(crate) fn standalone(
        r: &'a RTree<D>,
        s: &'a RTree<D>,
        cfg: &JoinConfig,
        opts: AmIdjOptions,
        take: Option<usize>,
    ) -> Self {
        let mut cursor = Self::build(r, s, cfg, opts, take, None, None);
        cursor.push_seeds(root_pair(r, s).into_iter().collect(), true);
        cursor
    }

    /// A standalone `take`-bounded cursor that goes on from a snapshot's
    /// cut. Its stage-loop scalars, parked entries, distance evidence and
    /// frontier all re-enter uncounted, since each was counted before the
    /// suspension; the frontier re-enters in the order its queue would
    /// have served it.
    pub(crate) fn restored(
        r: &'a RTree<D>,
        s: &'a RTree<D>,
        cfg: &JoinConfig,
        opts: AmIdjOptions,
        take: usize,
        snap: &mut EngineSnapshot<D>,
    ) -> Self {
        let mut cursor = Self::build(r, s, cfg, opts, Some(take), None, None);
        cursor.restore_state(
            snap.stage,
            snap.edmax,
            snap.k_target,
            snap.emitted,
            snap.last_dist,
        );
        cursor.seed_comps(std::mem::take(&mut snap.comps));
        cursor.seed_dists(&snap.dists);
        cursor.push_seeds(std::mem::take(&mut snap.frontier), false);
        cursor
    }

    /// Starts an empty cursor for one worker of the parallel incremental
    /// join, clamping its cutoffs to a bound shared with sibling cursors.
    /// Claim rounds feed it its share of the frontier
    /// ([`push_seeds`](Self::push_seeds)). Only
    /// [`next_step`](Self::next_step) observes the pause control.
    pub(crate) fn worker(
        r: &'a RTree<D>,
        s: &'a RTree<D>,
        cfg: &JoinConfig,
        opts: AmIdjOptions,
        take: usize,
        shared: &'a MinBound,
        pause: Option<&'a PauseCtl>,
    ) -> Self {
        Self::build(r, s, cfg, opts, Some(take), Some(shared), pause)
    }

    fn build(
        r: &'a RTree<D>,
        s: &'a RTree<D>,
        cfg: &JoinConfig,
        opts: AmIdjOptions,
        take: Option<usize>,
        shared: Option<&'a MinBound>,
        pause: Option<&'a PauseCtl>,
    ) -> Self {
        assert!(opts.growth > 1.0, "stage growth must exceed 1");
        assert!(opts.initial_k >= 1, "initial k must be at least 1");
        let est = Estimator::from_trees(r, s);
        let core = ExpansionCore::new(r, s, cfg, est.as_ref(), pause);
        let max_possible = match (r.bounds(), s.bounds()) {
            (Some(rb), Some(sb)) => rb.max_dist(&sb),
            _ => 0.0,
        };
        let edmax = match &opts.edmax {
            EdmaxPolicy::Estimated(_) => est
                .map(|e| e.initial(opts.initial_k))
                .unwrap_or(max_possible),
            EdmaxPolicy::Schedule(v) => v.first().copied().unwrap_or(max_possible),
        };
        let k_target = opts.initial_k;
        StageDriver {
            core,
            opts,
            est,
            shared,
            distq: take.map(DistanceQueue::new),
            edmax,
            k_target,
            emitted: 0,
            last_dist: 0.0,
            max_possible,
        }
    }

    /// Overwrites the stage-loop scalars from a snapshot's canonical
    /// merge. All of these steer heuristics (stage numbering, `k_target`
    /// growth, corrections) — none affect which pairs are ultimately
    /// producible, so the merged values only need to be plausible, not
    /// per-worker exact.
    pub(crate) fn restore_state(
        &mut self,
        stage: u32,
        edmax: f64,
        k_target: u64,
        emitted: u64,
        last_dist: f64,
    ) {
        self.core.stats.stages = stage.max(1);
        self.edmax = edmax.min(self.max_possible);
        self.k_target = k_target.max(1);
        self.emitted = emitted;
        self.last_dist = last_dist;
    }

    /// Re-seeds parked compensation entries from a snapshot, uncounted:
    /// each entry was counted when it was first parked, before the
    /// suspension.
    pub(crate) fn seed_comps(&mut self, comps: Vec<CompEntry<D>>) {
        for entry in comps {
            self.core.compq.seed(entry);
        }
    }

    /// Pre-seeds the `take` queue, uncounted, with distance evidence that
    /// was counted before (a snapshot's, or the runner's seed frontier's).
    pub(crate) fn seed_dists(&mut self, dists: &[f64]) {
        if let Some(distq) = &mut self.distq {
            for &d in dists {
                distq.seed(d);
            }
        }
    }

    /// The stage currently executing (1-based).
    pub fn stage(&self) -> u32 {
        self.core.stats.stages
    }

    /// The cutoff currently in force.
    pub fn current_edmax(&self) -> f64 {
        self.edmax
    }

    /// Results produced so far (restored ones included).
    pub(crate) fn emitted(&self) -> u64 {
        self.emitted
    }

    /// The proven bound on the `take`-th result: the shared bound or the
    /// driver's own `qDmax`, whichever is tighter; `+∞` without either.
    fn bound(&self) -> f64 {
        let own = self.distq.as_ref().map_or(f64::INFINITY, |q| q.qdmax());
        self.shared.map_or(own, |b| b.clamp(own))
    }

    /// The stage cutoff clamped to the proven bound: pairs beyond it
    /// cannot make the `take`, so sweeping past it is wasted work.
    /// Everything skipped stays recoverable through the
    /// `MarkMode::Full` bookkeeping.
    pub(crate) fn clamped_edmax(&self) -> f64 {
        self.edmax.min(self.bound())
    }

    /// Publishes the `take` queue's `qDmax` into the shared bound.
    fn publish(&mut self) {
        if let (Some(shared), Some(distq)) = (self.shared, &self.distq) {
            let q = distq.qdmax();
            if q.is_finite() && shared.tighten(q) {
                self.core.stats.bound_tightenings += 1;
            }
        }
    }

    /// Injects frontier pairs into the main queue. `counted` seeds are
    /// fresh queue work: under the work-stealing backend seeds wait in
    /// the shared pool (never in any cursor's queue) until exactly one
    /// worker claims them here, so the push is each seed's first — and
    /// only — main-queue insertion. A restored snapshot's frontier was
    /// counted before the suspension and re-enters uncounted, in the
    /// order its queue would have served it.
    pub(crate) fn push_seeds(&mut self, seeds: Vec<Pair<D>>, counted: bool) {
        for pair in seeds {
            if counted {
                self.core.mainq.push(pair);
            } else {
                self.core.mainq.unpop(pair);
            }
        }
    }

    /// A lower bound on the distance of every future emission (`None` when
    /// exhausted). Lets a caller stop before the driver does the work of
    /// producing a pair it does not want.
    pub(crate) fn peek_key(&mut self) -> Option<f64> {
        self.core.next_key().map(|(key, _)| key)
    }

    /// Produces the next nearest pair, advancing stages as needed;
    /// `None` when every pair has been produced (or, with a `take`, once
    /// nothing left can make it).
    #[allow(clippy::should_implement_trait)] // deliberate cursor API; &mut borrows preclude Iterator
    pub fn next(&mut self) -> Option<ResultPair> {
        match self.next_step(f64::INFINITY, |_| false) {
            Step::Pair(p) => Some(p),
            Step::Done | Step::Paused | Step::Held => None,
        }
    }

    /// Pause-aware advance: like [`next`](Self::next), but distinguishes
    /// exhaustion from a fired pause control so the resumable backend can
    /// suspend the cursor instead of discarding it. It also ends with
    /// [`Step::Done`] once every queued key exceeds `limit`, before any
    /// work on them: a caller that wants nothing past `limit` stops there
    /// and can go on later from the same state.
    ///
    /// `hold(cutoff)` is consulted whenever the queues hold nothing at or
    /// below the stage cutoff (clamped to the proven bound): `true` means
    /// the caller still owns unclaimed work at or below `cutoff`, so the
    /// stage is not exhausted and the step returns [`Step::Held`] instead
    /// of advancing. A worker cursor's queues are only its claimed share
    /// of the frontier; the stage is done only when the pool agrees.
    pub(crate) fn next_step(&mut self, limit: f64, hold: impl Fn(f64) -> bool) -> Step {
        let started = std::time::Instant::now();
        let out = self.step(limit, hold);
        self.core.stats.cpu_seconds += started.elapsed().as_secs_f64();
        out
    }

    fn step(&mut self, limit: f64, hold: impl Fn(f64) -> bool) -> Step {
        loop {
            if self.core.paused() {
                return Step::Paused;
            }
            let Some((key, from_main)) = self.core.next_key() else {
                return Step::Done;
            };
            if key > limit.min(self.bound()) {
                // `key` lower-bounds every pair this cursor can still
                // produce, so nothing left here is wanted. Stop now —
                // advancing stages cannot help, because the sweep cutoff
                // stays clamped to the proven bound and the parked
                // entries would never clear.
                return Step::Done;
            }
            if key > self.edmax {
                // Everything still queued lies beyond the stage cutoff:
                // start the next stage with a larger eDmax — unless
                // unclaimed work below the cutoff remains elsewhere.
                if hold(self.clamped_edmax()) {
                    return Step::Held;
                }
                self.advance_stage();
                continue;
            }
            let edmax = self.clamped_edmax();
            let distq = self.distq.as_mut();
            if !from_main {
                // Pairs the replay leaves unexamined all lie strictly
                // beyond the current cutoff: they park for a later stage.
                let repark = self.edmax.next_up();
                self.core.replay(Some(repark), |mainq| IdjSink {
                    mainq,
                    distq,
                    edmax,
                });
                self.publish();
                continue;
            }
            let pair = self.core.mainq.pop().expect("peeked");
            if pair.is_result() {
                self.emitted += 1;
                self.last_dist = pair.dist;
                self.core.stats.results += 1;
                return Step::Pair(to_result(&pair));
            }
            self.core
                .expand(&pair, edmax, MarkMode::Full, |mainq| IdjSink {
                    mainq,
                    distq,
                    edmax,
                });
            self.publish();
        }
    }

    fn advance_stage(&mut self) {
        self.core.stats.stages += 1;
        let stage_idx = self.core.stats.stages as usize - 1; // 0-based
        self.k_target =
            ((self.k_target as f64 * self.opts.growth).ceil() as u64).max(self.emitted + 1);
        let mut next = match &self.opts.edmax {
            EdmaxPolicy::Estimated(corr) => self.correct(*corr),
            EdmaxPolicy::Schedule(v) => v.get(stage_idx).copied().unwrap_or(f64::NEG_INFINITY),
        };
        if next <= self.edmax {
            // The schedule or correction failed to grow the cutoff (ties,
            // a zero-distance result prefix, or an exhausted schedule):
            // fall back to the estimator's safe correction, which is
            // strictly positive whenever more pairs are wanted.
            next = next.max(self.correct(Correction::MaxOfBoth));
        }
        if next <= self.edmax {
            // Last resort: geometric growth (or the whole space when no
            // scale is known yet).
            next = if self.edmax > 0.0 {
                self.edmax * 2f64.powf(1.0 / D as f64)
            } else {
                self.max_possible
            };
        }
        // Strict growth is required for progress; never exceed the space.
        self.edmax = next.min(self.max_possible).max(self.edmax.next_up());
    }

    fn correct(&self, corr: Correction) -> f64 {
        match self.est {
            Some(e) => e.corrected(self.k_target, self.emitted, self.last_dist, corr),
            None => self.max_possible,
        }
    }

    /// Consumes a paused cursor, draining its queues into owned data for
    /// an [`EngineSnapshot`](super::snapshot::EngineSnapshot): everything
    /// at or below the proven bound ([`ExpansionCore::drain`]; the bound
    /// is a real distance of the `take`-th best candidate). A cursor
    /// without a `take` keeps everything.
    pub(super) fn suspend(mut self) -> (Cut<D>, JoinStats) {
        let (frontier, comps) = self.core.drain(self.bound());
        let stats = self.stats();
        let cut = Cut {
            stage: stats.stages,
            edmax: self.edmax,
            k_target: self.k_target,
            last_dist: self.last_dist,
            frontier,
            comps,
            ..Cut::default()
        };
        (cut, stats)
    }

    /// Bytes the main queue holds resident: its in-memory heap plus its
    /// live spill pages.
    pub(crate) fn queue_bytes(&self) -> u64 {
        self.core.mainq.resident_bytes()
    }

    /// The work this cursor did so far: its own counters plus its main
    /// and distance queues' insertions, page transfers and modeled I/O.
    /// Tree and buffer deltas are not included — the trees may be shared
    /// with concurrent cursors, so attributing them is the owner's job
    /// (the parallel backend's, or [`crate::AmIdj`]'s own baseline).
    pub fn stats(&self) -> JoinStats {
        let mut st = self.core.stats();
        st.distq_insertions += self.distq.as_ref().map_or(0, |q| q.insertions());
        st
    }
}
