//! The expansion driver: the single owner of the main-queue loop, node
//! expansion, plane sweep, and stage/compensation bookkeeping that every
//! k-distance join variant shares.
//!
//! The driver is deliberately *runtime*-flagged on aggressiveness rather
//! than generic over the policy: the exact path is the aggressive path
//! with the ratchet, park, and early-termination steps disabled, and a
//! branch on a bool the CPU predicts perfectly is cheaper to maintain
//! than two monomorphized loops. The [`PruningPolicy`] trait supplies the
//! flag and the initial cutoff; the [`ExecBackend`] decides how many
//! drivers run and how their stages hand work to each other.
//!
//! # Why stage two's early break never fires sequentially
//!
//! [`run_stage_two`](ExpansionDriver::run_stage_two) breaks when the next
//! merged key exceeds the clamped `qDmax`. In a sequential join this is
//! provably dead code: while fewer than `k` results are out and the
//! distance queue holds `k` entries, each retained distance belongs to a
//! distinct emitted object pair that was either already popped (a result)
//! or still sits in the main queue with distance ≤ `qDmax` — so at least
//! `k − results` result pairs are pending and the main queue's minimum is
//! ≤ `qDmax`. The break exists for *parallel* stage-two workers, whose
//! distance queue is pre-seeded from the pooled stage-one queues: their
//! clamped `qDmax` upper-bounds the global k-th answer distance, so any
//! larger key cannot contribute to the merged answer.
//!
//! [`PruningPolicy`]: super::policy::PruningPolicy
//! [`ExecBackend`]: super::backend::ExecBackend

use amdj_rtree::RTree;

use crate::mainq::MainQueue;
use crate::{DistanceQueue, Estimator, ItemRef, JoinConfig, JoinStats, Pair, ResultPair};

use super::bound::MinBound;
use super::checkpoint::PauseCtl;
use super::sweep::{CompEntry, CompQueue, MarkMode, SweepScratch, SweepSink};

/// The engine's one sweep sink. `axis` selects the cutoff shape:
/// `Some(eDmax)` freezes the axis cutoff for the whole sweep (aggressive
/// stage one, which also unlocks the lane window search), `None` keeps
/// it live at the clamped `qDmax` (exact sweeps and compensation). The
/// real cutoff is always the live `qDmax`, clamped by the shared bound
/// when one exists; emitted results publish the new `qDmax` back into the
/// shared bound.
pub(crate) struct EngineSink<'x, const D: usize> {
    pub(crate) mainq: &'x mut MainQueue<D>,
    pub(crate) distq: &'x mut DistanceQueue,
    pub(crate) axis: Option<f64>,
    pub(crate) shared: Option<&'x MinBound>,
    pub(crate) tightenings: &'x mut u64,
}

impl<const D: usize> EngineSink<'_, D> {
    fn qdmax(&self) -> f64 {
        let q = self.distq.qdmax();
        match self.shared {
            Some(bound) => bound.clamp(q),
            None => q,
        }
    }
}

impl<const D: usize> SweepSink<D> for EngineSink<'_, D> {
    fn axis_cutoff(&self) -> f64 {
        self.axis.unwrap_or_else(|| self.qdmax())
    }
    fn real_cutoff(&self) -> f64 {
        self.qdmax()
    }
    fn fixed_axis_cutoff(&self) -> Option<f64> {
        self.axis
    }
    fn emit(&mut self, pair: Pair<D>) {
        let is_result = pair.is_result();
        let dist = pair.dist;
        self.mainq.push(pair);
        if is_result {
            self.distq.insert(dist);
            if let Some(bound) = self.shared {
                let q = self.distq.qdmax();
                if q.is_finite() && bound.tighten(q) {
                    *self.tightenings += 1;
                }
            }
        }
    }
}

/// Pushes the pair of root nodes, the starting point of every traversal.
/// No-op when either tree is empty.
pub(crate) fn push_roots<const D: usize>(r: &RTree<D>, s: &RTree<D>, mainq: &mut MainQueue<D>) {
    if let (Some(rb), Some(sb), Some(rp), Some(sp)) =
        (r.bounds(), s.bounds(), r.root_page(), s.root_page())
    {
        mainq.push(Pair {
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
        });
    }
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

/// What a stage-one driver hands back to a parallel backend: its results,
/// the prunable remainder of its frontier, its parked compensation
/// entries, and the distances its queue retained (pooled into the global
/// bound and into stage-two workers' queues). Suspended drivers (a fired
/// [`PauseCtl`]) come back through the same shape with `suspended` set
/// and their whole sub-bound frontier in `leftovers`.
pub(crate) struct StageOnePool<const D: usize> {
    pub(crate) results: Vec<ResultPair>,
    pub(crate) leftovers: Vec<Pair<D>>,
    pub(crate) comps: Vec<CompEntry<D>>,
    pub(crate) dists: Vec<f64>,
    pub(crate) stats: JoinStats,
    pub(crate) queue_io: f64,
    /// The driver's final (ratcheted) `eDmax`; `+∞` under exact pruning.
    pub(crate) edmax: f64,
    /// Whether the driver stopped on a fired pause rather than running
    /// out of claimable work.
    pub(crate) suspended: bool,
}

/// One expansion loop over one frontier: queues, sweep scratch, cutoffs,
/// and the two paper stages. Sequential backends run one driver to
/// completion; parallel backends run one per worker against a shared
/// [`MinBound`].
pub(crate) struct ExpansionDriver<'x, const D: usize> {
    r: &'x RTree<D>,
    s: &'x RTree<D>,
    cfg: &'x JoinConfig,
    k: usize,
    aggressive: bool,
    edmax: f64,
    shared: Option<&'x MinBound>,
    mainq: MainQueue<D>,
    distq: DistanceQueue,
    compq: CompQueue<D>,
    scratch: SweepScratch<D>,
    results: Vec<ResultPair>,
    pub(crate) stats: JoinStats,
    tightenings: u64,
    /// Cooperative pause signal of a resumable join; checked at the loop
    /// tops, ticked once per expansion or compensation replay.
    pause: Option<&'x PauseCtl>,
    suspended: bool,
}

impl<'x, const D: usize> ExpansionDriver<'x, D> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        r: &'x RTree<D>,
        s: &'x RTree<D>,
        cfg: &'x JoinConfig,
        k: usize,
        est: Option<&Estimator<D>>,
        aggressive: bool,
        edmax: f64,
        shared: Option<&'x MinBound>,
    ) -> Self {
        ExpansionDriver {
            r,
            s,
            cfg,
            k,
            aggressive,
            edmax,
            shared,
            mainq: MainQueue::new(cfg, est),
            distq: DistanceQueue::new(k),
            compq: CompQueue::new(),
            scratch: SweepScratch::new(),
            results: Vec::with_capacity(k.min(1 << 20)),
            stats: JoinStats {
                stages: 1,
                ..JoinStats::default()
            },
            tightenings: 0,
            pause: None,
            suspended: false,
        }
    }

    /// Attaches the pause control of a resumable join.
    pub(crate) fn set_pause(&mut self, pause: Option<&'x PauseCtl>) {
        self.pause = pause;
    }

    /// Whether the last stage loop stopped on a fired pause.
    pub(crate) fn suspended(&self) -> bool {
        self.suspended
    }

    fn pause_fired(&self) -> bool {
        self.pause.is_some_and(|p| p.should_pause())
    }

    fn note_expansion(&self) {
        if let Some(p) = self.pause {
            p.note_expansion();
        }
    }

    /// Seeds the driver with the root pair (sequential start).
    pub(crate) fn seed_roots(&mut self) {
        push_roots(self.r, self.s, &mut self.mainq);
    }

    /// Seeds the driver with a frontier partition. Counted as fresh queue
    /// work: these pairs enter a main queue for the first time after the
    /// (uncounted) frontier split.
    pub(crate) fn seed_counted(&mut self, pairs: Vec<Pair<D>>) {
        for pair in pairs {
            let is_result = pair.is_result();
            let dist = pair.dist;
            self.mainq.push(pair);
            if is_result {
                self.distq.insert(dist);
            }
        }
    }

    /// Seeds a resumed stage-one driver with snapshot frontier pairs.
    /// Uncounted, and — unlike [`seed_counted`](Self::seed_counted) —
    /// *without* distance-queue insertion: a snapshot result-pair's
    /// distance already lives in the snapshot's `dists` evidence, and
    /// inserting it again would double-count that pair once the pools
    /// merge, yielding an unsoundly tight bound.
    pub(crate) fn seed_resumed(&mut self, pairs: Vec<Pair<D>>) {
        for pair in pairs {
            self.mainq.unpop(pair);
        }
    }

    /// Seeds a stage-two driver with pooled stage-one work. *Not*
    /// counted: every pair, compensation entry, and retained distance was
    /// already counted by the worker that first enqueued it — re-counting
    /// here would make parallel insertion totals diverge from the
    /// sequential join's.
    pub(crate) fn seed_replayed(
        &mut self,
        pairs: Vec<Pair<D>>,
        comps: Vec<CompEntry<D>>,
        dists: &[f64],
    ) {
        for pair in pairs {
            self.mainq.unpop(pair);
        }
        for entry in comps {
            self.compq.seed(entry);
        }
        for &d in dists {
            self.distq.seed(d);
        }
    }

    /// The live pruning bound: `qDmax`, clamped by the shared bound when
    /// running under a parallel backend.
    fn cutoff(&self) -> f64 {
        let q = self.distq.qdmax();
        match self.shared {
            Some(bound) => bound.clamp(q),
            None => q,
        }
    }

    /// The largest frontier key this driver's stage one would still
    /// process — the work-stealing claim predicate. The aggressive policy
    /// refuses seeds beyond its (ratcheted) `eDmax`: stage one could not
    /// emit their results anyway, and leaving them in the pool lets the
    /// backend route them straight to stage two instead of shuffling them
    /// through a worker that would only unpop them.
    pub(crate) fn stage_one_claim_bound(&self) -> f64 {
        if self.aggressive {
            self.edmax
        } else {
            self.cutoff()
        }
    }

    /// The work-stealing claim predicate of stage two: the clamped
    /// `qDmax`, beyond which no pair or compensation entry can contribute
    /// to the merged answer.
    pub(crate) fn stage_two_claim_bound(&self) -> f64 {
        self.cutoff()
    }

    /// Stage one. Exact (`aggressive == false`): Algorithm 1's loop, the
    /// only cutoff the proven `qDmax`. Aggressive: Algorithm 2 — ratchet
    /// `eDmax` down once `qDmax` catches up, terminate when the dequeued
    /// distance exceeds `eDmax` (erratum fixed, see `amkdj`), sweep with
    /// suffix marks, and park any expansion that skipped work.
    pub(crate) fn run_stage_one(&mut self) {
        self.stage_one_loop(false);
    }

    /// Stage one under the work-stealing backend. Identical to
    /// [`run_stage_one`](Self::run_stage_one) except that reaching `k`
    /// results does not stop the loop while queued keys can still beat the
    /// cutoff: with dynamically claimed seeds a worker's first `k`
    /// emissions are not necessarily its partition's top `k` (a later
    /// steal may hold closer pairs), so the ascending-prefix argument that
    /// justifies stopping at `k` no longer applies. Surplus results are
    /// harmless — the backend's canonical merge sorts and truncates.
    pub(crate) fn run_stage_one_stealing(&mut self) {
        self.stage_one_loop(true);
    }

    fn stage_one_loop(&mut self, past_k: bool) {
        loop {
            if self.pause_fired() {
                self.suspended = true;
                break;
            }
            if self.results.len() >= self.k {
                if !past_k {
                    break;
                }
                match self.mainq.peek_min() {
                    Some(key) if key <= self.cutoff() => {}
                    _ => break,
                }
            }
            let Some(pair) = self.mainq.pop() else { break };
            if self.aggressive {
                // Algorithm 2 line 8: an overestimated eDmax is detected
                // and tightened; from here on the stage is exact.
                let q = self.cutoff();
                if q <= self.edmax {
                    self.edmax = q;
                }
                // Condition (3): results beyond eDmax cannot be emitted
                // safely — put the pair back and move to compensation.
                if pair.dist > self.edmax {
                    self.mainq.unpop(pair);
                    break;
                }
            }
            if pair.is_result() {
                self.results.push(to_result(&pair));
                continue;
            }
            if self.aggressive {
                self.scratch
                    .expand(self.r, self.s, &pair, self.edmax, self.cfg);
                self.stats.stage1_expansions += 1;
                self.note_expansion();
                let mut sink = EngineSink {
                    mainq: &mut self.mainq,
                    distq: &mut self.distq,
                    axis: Some(self.edmax),
                    shared: self.shared,
                    tightenings: &mut self.tightenings,
                };
                self.scratch
                    .sweep(&mut sink, &mut self.stats, MarkMode::Suffix);
                if !self.scratch.marks_exhausted() {
                    let entry = self.scratch.park(pair.dist.max(self.edmax.next_up()));
                    self.compq.push(entry, &mut self.stats);
                }
            } else {
                let cutoff = self.cutoff();
                self.scratch.expand(self.r, self.s, &pair, cutoff, self.cfg);
                self.stats.stage1_expansions += 1;
                self.note_expansion();
                let mut sink = EngineSink {
                    mainq: &mut self.mainq,
                    distq: &mut self.distq,
                    axis: None,
                    shared: self.shared,
                    tightenings: &mut self.tightenings,
                };
                self.scratch
                    .sweep(&mut sink, &mut self.stats, MarkMode::None);
            }
        }
    }

    /// Whether a sequential aggressive join owes a compensation stage.
    pub(crate) fn needs_stage_two(&self) -> bool {
        self.results.len() < self.k && (self.compq.len() > 0 || !self.mainq.is_empty())
    }

    /// Stage two (Algorithm 3): merge the main and compensation queues by
    /// key; fresh pairs expand exactly (B-KDJ behaviour), parked entries
    /// replay exactly the child pairs stage one skipped. `qDmax` is exact
    /// here, so nothing needs parking again.
    pub(crate) fn run_stage_two(&mut self) {
        self.stage_two_loop(false);
    }

    /// Stage two under the work-stealing backend: the `k`-results stop is
    /// lifted for the same reason as in
    /// [`run_stage_one_stealing`](Self::run_stage_one_stealing); the
    /// `key > cutoff` break alone terminates the loop, and it is sound
    /// because the clamped `qDmax` upper-bounds the global k-th answer
    /// distance (module docs).
    pub(crate) fn run_stage_two_stealing(&mut self) {
        self.stage_two_loop(true);
    }

    fn stage_two_loop(&mut self, past_k: bool) {
        loop {
            if self.pause_fired() {
                self.suspended = true;
                break;
            }
            if !past_k && self.results.len() >= self.k {
                break;
            }
            let main_key = self.mainq.peek_min();
            let comp_key = self.compq.peek_key();
            let (take_main, key) = match (main_key, comp_key) {
                (None, None) => break,
                (Some(m), None) => (true, m),
                (None, Some(c)) => (false, c),
                (Some(m), Some(c)) => (m <= c, m.min(c)),
            };
            // Dead sequentially, load-bearing for parallel stage-two
            // workers — see the module docs.
            if key > self.cutoff() {
                break;
            }
            if take_main {
                let pair = self.mainq.pop().expect("peeked");
                if pair.is_result() {
                    self.results.push(to_result(&pair));
                    continue;
                }
                let cutoff = self.cutoff();
                self.scratch.expand(self.r, self.s, &pair, cutoff, self.cfg);
                self.stats.stage2_expansions += 1;
                self.note_expansion();
                let mut sink = EngineSink {
                    mainq: &mut self.mainq,
                    distq: &mut self.distq,
                    axis: None,
                    shared: self.shared,
                    tightenings: &mut self.tightenings,
                };
                self.scratch
                    .sweep(&mut sink, &mut self.stats, MarkMode::None);
            } else {
                let mut entry = self.compq.pop().expect("peeked");
                let mut sink = EngineSink {
                    mainq: &mut self.mainq,
                    distq: &mut self.distq,
                    axis: None,
                    shared: self.shared,
                    tightenings: &mut self.tightenings,
                };
                self.scratch
                    .compensate(&mut entry, &mut sink, &mut self.stats);
                self.note_expansion();
            }
        }
    }

    /// Finalizes per-driver accounting and returns the results.
    pub(crate) fn finish(mut self) -> (Vec<ResultPair>, JoinStats, f64) {
        self.stats.bound_tightenings = self.tightenings;
        self.stats.distq_insertions = self.distq.insertions();
        let queue_io = self.mainq.account(&mut self.stats);
        (self.results, self.stats, queue_io)
    }

    /// Finalizes a stage-one worker for pooling. With `drain_leftovers`
    /// (aggressive policy, or any suspended driver), the remaining
    /// frontier below the shared bound and the surviving compensation
    /// entries come along; anything at a key strictly above the bound is
    /// provably outside the answer (the shared bound only ever holds
    /// published `qDmax` values — the k-th of k real distinct-pair
    /// distances). The retain comparisons are `<=` — a strict `<` would
    /// falsely dismiss work exactly at the bound.
    pub(crate) fn into_pool(mut self, drain_leftovers: bool) -> StageOnePool<D> {
        let mut leftovers = Vec::new();
        let mut comps = Vec::new();
        if drain_leftovers {
            let bound = self.shared.map_or(f64::INFINITY, |b| b.get());
            while let Some(pair) = self.mainq.pop() {
                if pair.dist > bound {
                    break;
                }
                leftovers.push(pair);
            }
            comps = self.compq.drain_sorted();
            comps.retain(|e| e.key <= bound);
        }
        self.stats.bound_tightenings = self.tightenings;
        self.stats.distq_insertions = self.distq.insertions();
        let dists = self.distq.retained();
        let queue_io = self.mainq.account(&mut self.stats);
        StageOnePool {
            results: self.results,
            leftovers,
            comps,
            dists,
            stats: self.stats,
            queue_io,
            edmax: self.edmax,
            suspended: self.suspended,
        }
    }
}
