//! The incremental stage loop (§4.2–4.3): the machinery behind AM-IDJ,
//! shared by the sequential cursor ([`crate::AmIdj`]) and the parallel
//! incremental join workers.
//!
//! No stopping cardinality is known, so there is no distance queue and no
//! `qDmax`; each stage prunes on an estimated `eDmax_i` alone and streams
//! out every pair closer than it. When the consumer wants more, the next
//! stage raises the estimate (§4.3.2's corrections) and *compensates*:
//! the per-anchor marks kept with every expanded pair let stage `i+1`
//! examine exactly the child pairs stages `1..i` skipped.

use amdj_rtree::{AccessStats, RTree};

use crate::mainq::MainQueue;
use crate::{
    AmIdjOptions, Correction, EdmaxPolicy, Estimator, JoinConfig, JoinStats, Pair, ResultPair,
};

use super::bound::MinBound;
use super::checkpoint::PauseCtl;
use super::driver::{push_roots, to_result};
use super::sweep::{CompEntry, CompQueue, MarkMode, SweepScratch, SweepSink};

/// Sink for incremental sweeps: the stage's `eDmax` is the only cutoff
/// (§4.2), for both the axis and the real distance. Both are frozen for
/// the whole sweep, so leaf–leaf expansions take the batched kernel.
struct IdjSink<'x, const D: usize> {
    mainq: &'x mut MainQueue<D>,
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
        self.mainq.push(pair);
    }
}

/// One incremental expansion loop: stages `k₁ < k₂ < …`, each pruning on
/// its own `eDmax_i`, with full per-anchor skip bookkeeping so later
/// stages compensate exactly. Drive it with [`next`](Self::next).
///
/// This is the engine's third moving part next to the pruning policies
/// and backends: where the k-distance driver owes a *single* compensation
/// stage (its `qDmax` eventually becomes exact), the incremental loop
/// re-estimates and compensates once per stage, indefinitely.
pub struct StageDriver<'a, const D: usize> {
    r: &'a RTree<D>,
    s: &'a RTree<D>,
    cfg: JoinConfig,
    opts: AmIdjOptions,
    est: Option<Estimator<D>>,
    mainq: MainQueue<D>,
    compq: CompQueue<D>,
    scratch: SweepScratch<D>,
    /// A global pruning bound shared with sibling cursors (parallel
    /// incremental join): cutoffs are clamped to it, and the owning worker
    /// stops consuming once the stream passes it. `None` when standalone.
    shared: Option<&'a MinBound>,
    edmax: f64,
    k_target: u64,
    emitted: u64,
    last_dist: f64,
    /// Upper bound on any possible pair distance — the terminal `eDmax`.
    max_possible: f64,
    counters: JoinStats,
    r_acc0: AccessStats,
    s_acc0: AccessStats,
    r_io0: f64,
    s_io0: f64,
    buf0: (u64, u64, u64),
    /// Cooperative pause signal of a resumable join; checked once per
    /// step-loop iteration, ticked per expansion/compensation.
    pause: Option<&'a PauseCtl>,
}

/// One advance of the stage loop, pause-aware (the resumable incremental
/// join drives the cursor through this instead of
/// [`StageDriver::next`]).
pub(crate) enum Step {
    /// The next nearest pair.
    Pair(ResultPair),
    /// Every pair has been produced (or provably passed the shared
    /// bound).
    Done,
    /// The pause control fired; suspend the cursor.
    Paused,
    /// Everything queued lies beyond the stage cutoff, but the caller's
    /// `hold` reported work it could still hand over at or below that
    /// cutoff: the stage is not exhausted, so it was not advanced.
    Held,
}

/// Everything a paused incremental cursor owes the snapshot: its pruned
/// frontier and compensation entries plus the stage-loop scalars.
pub(crate) struct IdjSuspend<const D: usize> {
    pub(crate) frontier: Vec<Pair<D>>,
    pub(crate) comps: Vec<CompEntry<D>>,
    pub(crate) stage: u32,
    pub(crate) edmax: f64,
    pub(crate) k_target: u64,
    pub(crate) last_dist: f64,
}

impl<'a, const D: usize> StageDriver<'a, D> {
    /// Starts an incremental join over two indexes, seeded with the root
    /// pair.
    pub fn new(r: &'a RTree<D>, s: &'a RTree<D>, cfg: &JoinConfig, opts: AmIdjOptions) -> Self {
        Self::build(r, s, cfg, opts, None, None)
    }

    /// Starts a cursor over one partition of the pair space (`seeds`),
    /// clamping its cutoffs to a bound shared with sibling cursors — the
    /// building block of the parallel incremental backend.
    pub(crate) fn with_seeds(
        r: &'a RTree<D>,
        s: &'a RTree<D>,
        cfg: &JoinConfig,
        opts: AmIdjOptions,
        seeds: Vec<Pair<D>>,
        shared: &'a MinBound,
    ) -> Self {
        Self::build(r, s, cfg, opts, Some(seeds), Some(shared))
    }

    fn build(
        r: &'a RTree<D>,
        s: &'a RTree<D>,
        cfg: &JoinConfig,
        opts: AmIdjOptions,
        seeds: Option<Vec<Pair<D>>>,
        shared: Option<&'a MinBound>,
    ) -> Self {
        assert!(opts.growth > 1.0, "stage growth must exceed 1");
        assert!(opts.initial_k >= 1, "initial k must be at least 1");
        // Capture the access baseline before any setup reads (the
        // estimator and `max_possible` both touch the roots), so the
        // cursor's node counters cover the same window the parallel
        // backend's whole-join baseline does — single-worker runs then
        // report identical node_requests either way.
        let (r_acc0, s_acc0) = (r.access_stats(), s.access_stats());
        let (r_io0, s_io0) = (r.disk_stats().io_seconds, s.disk_stats().io_seconds);
        let buf0 = amdj_rtree::thread_buffer_stats();
        let est = Estimator::from_trees(r, s);
        let mut mainq = MainQueue::new(cfg, est.as_ref());
        match seeds {
            Some(seeds) => {
                for pair in seeds {
                    mainq.push(pair);
                }
            }
            None => push_roots(r, s, &mut mainq),
        }
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
            r,
            s,
            cfg: cfg.clone(),
            opts,
            est,
            mainq,
            compq: CompQueue::new(),
            scratch: SweepScratch::new(),
            shared,
            edmax,
            k_target,
            emitted: 0,
            last_dist: 0.0,
            max_possible,
            counters: JoinStats {
                stages: 1,
                ..JoinStats::default()
            },
            r_acc0,
            s_acc0,
            r_io0,
            s_io0,
            buf0,
            pause: None,
        }
    }

    /// Attaches the pause control of a resumable join. Only
    /// [`next_step`](Self::next_step) observes it.
    pub(crate) fn set_pause(&mut self, pause: Option<&'a PauseCtl>) {
        self.pause = pause;
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
        self.counters.stages = stage.max(1);
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
            self.compq.seed(entry);
        }
    }

    /// The stage currently executing (1-based).
    pub fn stage(&self) -> u32 {
        self.counters.stages
    }

    /// The cutoff currently in force.
    pub fn current_edmax(&self) -> f64 {
        self.edmax
    }

    /// The stage cutoff clamped to the shared bound (if any): pairs beyond
    /// the shared bound cannot matter globally, so sweeping past it is
    /// wasted work. Everything skipped stays recoverable through the
    /// `MarkMode::Full` bookkeeping.
    pub(crate) fn clamped_edmax(&self) -> f64 {
        match self.shared {
            Some(b) => b.clamp(self.edmax),
            None => self.edmax,
        }
    }

    /// Injects claimed or stolen frontier seeds into the cursor. Counted
    /// as fresh queue work: under the work-stealing backend seeds wait in
    /// the shared pool (never in any cursor's queue) until exactly one
    /// worker claims them here, so the push below is each seed's first —
    /// and only — main-queue insertion.
    pub(crate) fn push_seeds(&mut self, seeds: Vec<Pair<D>>) {
        for pair in seeds {
            self.mainq.push(pair);
        }
    }

    /// A lower bound on the distance of every future emission (`None` when
    /// exhausted). Lets the parallel backend stop a worker before it does
    /// the work of producing a pair that is already beyond the shared
    /// bound.
    pub(crate) fn peek_key(&mut self) -> Option<f64> {
        match (self.mainq.peek_min(), self.compq.peek_key()) {
            (None, None) => None,
            (Some(m), None) => Some(m),
            (None, Some(c)) => Some(c),
            (Some(m), Some(c)) => Some(m.min(c)),
        }
    }

    /// Produces the next nearest pair, advancing stages as needed;
    /// `None` when every pair has been produced.
    #[allow(clippy::should_implement_trait)] // deliberate cursor API; &mut borrows preclude Iterator
    pub fn next(&mut self) -> Option<ResultPair> {
        match self.next_step(|_| false) {
            Step::Pair(p) => Some(p),
            Step::Done | Step::Paused | Step::Held => None,
        }
    }

    /// Pause-aware advance: like [`next`](Self::next), but distinguishes
    /// exhaustion from a fired pause control so the resumable backend can
    /// suspend the cursor instead of discarding it.
    ///
    /// `hold(cutoff)` is consulted whenever the queues hold nothing at or
    /// below the stage cutoff (clamped to the shared bound): `true` means
    /// the caller still owns unclaimed work at or below `cutoff`, so the
    /// stage is not exhausted and the step returns [`Step::Held`] instead
    /// of advancing. A worker cursor's queues are only its claimed share
    /// of the frontier; the stage is done only when the pool agrees.
    pub(crate) fn next_step(&mut self, hold: impl Fn(f64) -> bool) -> Step {
        let started = std::time::Instant::now();
        let out = self.step(hold);
        self.counters.cpu_seconds += started.elapsed().as_secs_f64();
        out
    }

    fn step(&mut self, hold: impl Fn(f64) -> bool) -> Step {
        loop {
            if self.pause.is_some_and(|p| p.should_pause()) {
                return Step::Paused;
            }
            let main_key = self.mainq.peek_min();
            let comp_key = self.compq.peek_key();
            let (take_main, key) = match (main_key, comp_key) {
                (None, None) => return Step::Done,
                (Some(m), None) => (true, m),
                (None, Some(c)) => (false, c),
                (Some(m), Some(c)) => (m <= c, m.min(c)),
            };
            if self.shared.is_some_and(|b| key > b.get()) {
                // Worker cursor: `key` lower-bounds every pair this cursor
                // can still produce, and the shared bound only tightens, so
                // nothing left here can enter the global result set. Stop
                // now — advancing stages cannot help, because the sweep
                // cutoff stays clamped to the shared bound and the parked
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
            if take_main {
                let pair = self.mainq.pop().expect("peeked");
                if pair.is_result() {
                    self.emitted += 1;
                    self.last_dist = pair.dist;
                    self.counters.results += 1;
                    return Step::Pair(to_result(&pair));
                }
                let cutoff = self.clamped_edmax();
                self.scratch
                    .expand(self.r, self.s, &pair, cutoff, &self.cfg);
                if self.counters.stages == 1 {
                    self.counters.stage1_expansions += 1;
                } else {
                    self.counters.stage2_expansions += 1;
                }
                if let Some(p) = self.pause {
                    p.note_expansion();
                }
                let mut sink = IdjSink {
                    mainq: &mut self.mainq,
                    edmax: cutoff,
                };
                self.scratch
                    .sweep(&mut sink, &mut self.counters, MarkMode::Full);
                if !self.scratch.marks_exhausted() {
                    // Every unexamined child pair lies *strictly* beyond
                    // the cutoff, so the park key must exceed it strictly
                    // or the entry would be re-processed in this same stage
                    // without progress.
                    let entry = self.scratch.park(pair.dist.max(cutoff.next_up()));
                    self.compq.push(entry, &mut self.counters);
                }
            } else {
                let mut entry = self.compq.pop().expect("peeked");
                let cutoff = self.clamped_edmax();
                let mut sink = IdjSink {
                    mainq: &mut self.mainq,
                    edmax: cutoff,
                };
                self.scratch
                    .compensate(&mut entry, &mut sink, &mut self.counters);
                if let Some(p) = self.pause {
                    p.note_expansion();
                }
                if !entry
                    .marks
                    .exhausted(entry.left.entries.len(), entry.right.entries.len())
                {
                    // Unexamined pairs now all lie strictly beyond the
                    // current cutoff: park for a later stage.
                    entry.key = self.edmax.next_up();
                    self.compq.push(entry, &mut self.counters);
                }
            }
        }
    }

    fn advance_stage(&mut self) {
        self.counters.stages += 1;
        let stage_idx = self.counters.stages as usize - 1; // 0-based
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
    /// an [`EngineSnapshot`](super::snapshot::EngineSnapshot).
    ///
    /// The main queue pops in ascending distance order, so the drain can
    /// stop at the first pair beyond the shared bound — everything after
    /// it is provably outside the global result set (the bound is a real
    /// published distance of the `take`-th best candidate). Parked
    /// compensation entries whose key exceeds the bound are dropped on
    /// the same argument: the key lower-bounds every pair their marks can
    /// still recover. Standalone cursors (no shared bound) keep
    /// everything.
    pub(crate) fn suspend(mut self) -> (IdjSuspend<D>, JoinStats, f64) {
        let bound = self.shared.map_or(f64::INFINITY, |b| b.get());
        let mut frontier = Vec::new();
        while let Some(pair) = self.mainq.pop() {
            if pair.dist > bound {
                break;
            }
            frontier.push(pair);
        }
        let mut comps = self.compq.drain_sorted();
        comps.retain(|c| c.key <= bound);
        let mut stats = self.counters;
        let queue_io = self.mainq.account(&mut stats);
        (
            IdjSuspend {
                frontier,
                comps,
                stage: stats.stages,
                edmax: self.edmax,
                k_target: self.k_target,
                last_dist: self.last_dist,
            },
            stats,
            queue_io,
        )
    }

    /// Consumes the cursor, folding its queue work into the returned
    /// counters (plus the queue's modeled I/O seconds). Unlike
    /// [`stats`](Self::stats) this reports no tree access deltas — those
    /// counters are shared across concurrent cursors, so attribution is
    /// the parallel backend's job.
    pub(crate) fn finish_worker(self) -> (JoinStats, f64) {
        let mut st = self.counters;
        let io = self.mainq.account(&mut st);
        (st, io)
    }

    /// A snapshot of the work done so far.
    pub fn stats(&self) -> JoinStats {
        let mut st = self.counters;
        st.mainq_insertions = self.mainq.insertions();
        let (ra, sa) = (self.r.access_stats(), self.s.access_stats());
        st.node_requests =
            (ra.requests - self.r_acc0.requests) + (sa.requests - self.s_acc0.requests);
        st.node_disk_reads =
            (ra.disk_reads - self.r_acc0.disk_reads) + (sa.disk_reads - self.s_acc0.disk_reads);
        let qd = self.mainq.disk_stats();
        st.queue_page_reads = qd.pages_read;
        st.queue_page_writes = qd.pages_written;
        st.io_seconds = (self.r.disk_stats().io_seconds - self.r_io0)
            + (self.s.disk_stats().io_seconds - self.s_io0)
            + qd.io_seconds;
        // Only valid standalone: a parallel worker's cursor reports no
        // tree/buffer deltas (see `finish_worker`), so this snapshot path
        // may assume every fetch since `buf0` happened on this thread.
        let (h, m, e) = amdj_rtree::thread_buffer_stats();
        st.buffer_hits = h - self.buf0.0;
        st.buffer_misses = m - self.buf0.1;
        st.buffer_evictions = e - self.buf0.2;
        st
    }
}
