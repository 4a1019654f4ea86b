//! The expansion driver: the single owner of the main-queue loop, node
//! expansion, plane sweep, and stage/compensation bookkeeping that every
//! k-distance join variant shares.
//!
//! The driver is deliberately *runtime*-flagged on aggressiveness rather
//! than generic over the policy: the exact path is the aggressive path
//! with the ratchet, park, and early-termination steps disabled, and a
//! branch on a bool the CPU predicts perfectly is cheaper to maintain
//! than two monomorphized loops. The [`PruningPolicy`] trait supplies the
//! flag and the initial cutoff; the claim-round runner of the
//! [`steal`](super::steal) module decides how many drivers run and how
//! their stages hand work to each other.
//!
//! # When a driver stops
//!
//! A driver of a fleet cannot stop at its `k`-th result: a seed it
//! claims later may hold closer pairs, so it keeps consuming while the
//! queue minimum beats the shared bound. A *lone* driver (one worker) has
//! already claimed everything it will ever see before its first pop, so
//! its first `k` emissions are the answer — it gets a result
//! [`quota`](ExpansionDriver::set_quota) and stops there, doing exactly
//! the paper's sequential work.
//!
//! [`PruningPolicy`]: super::policy::PruningPolicy

use amdj_rtree::RTree;

use crate::mainq::MainQueue;
use crate::{DistanceQueue, Estimator, ItemRef, JoinConfig, JoinStats, Pair, ResultPair};

use super::bound::MinBound;
use super::checkpoint::PauseCtl;
use super::sweep::{CompEntry, CompQueue, MarkMode, SweepScratch, SweepSink};

/// The engine's one sweep sink. `axis` selects the cutoff shape:
/// `Some(eDmax)` freezes the axis cutoff for the whole sweep (aggressive
/// stage one, whose scans then find each window with one walk over the
/// sort keys before any distance), `None` keeps it live at the clamped
/// `qDmax` (exact sweeps and compensation), tested partner by partner
/// inside the distance loop. Both use the same one-sided key test,
/// which is exact ([`SweepSide::reach`](super::sweep::SweepSide::reach)). The
/// real cutoff is always the live `qDmax`, clamped by the shared bound;
/// emitted results publish the new `qDmax` back into the shared bound.
pub(crate) struct EngineSink<'x, const D: usize> {
    pub(crate) mainq: &'x mut MainQueue<D>,
    pub(crate) distq: &'x mut DistanceQueue,
    pub(crate) axis: Option<f64>,
    pub(crate) shared: &'x MinBound,
    pub(crate) tightenings: &'x mut u64,
}

impl<const D: usize> EngineSink<'_, D> {
    fn qdmax(&self) -> f64 {
        self.shared.clamp(self.distq.qdmax())
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
            let q = self.distq.qdmax();
            if q.is_finite() && self.shared.tighten(q) {
                *self.tightenings += 1;
            }
        }
    }
}

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

/// What a driver hands back to the claim-round runner: its results,
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
    /// The driver's final (ratcheted) `eDmax`; `+∞` under exact pruning.
    pub(crate) edmax: f64,
    /// Whether the driver stopped on a fired pause rather than running
    /// out of claimable work.
    pub(crate) suspended: bool,
}

/// One expansion loop over one frontier: queues, sweep scratch, cutoffs,
/// and the two paper stages. The claim-round runner runs one per worker
/// against a shared [`MinBound`].
pub(crate) struct ExpansionDriver<'x, const D: usize> {
    r: &'x RTree<D>,
    s: &'x RTree<D>,
    cfg: &'x JoinConfig,
    k: usize,
    aggressive: bool,
    edmax: f64,
    shared: &'x MinBound,
    /// The results a lone driver owes before it stops (module docs);
    /// `None` in a fleet.
    quota: Option<usize>,
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
        shared: &'x MinBound,
    ) -> Self {
        ExpansionDriver {
            r,
            s,
            cfg,
            k,
            aggressive,
            edmax,
            shared,
            quota: None,
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

    /// Makes this a lone driver that stops once it holds `quota` results:
    /// nothing can reach a lone worker after its claims, so its first
    /// emissions are the answer (module docs).
    pub(crate) fn set_quota(&mut self, quota: usize) {
        self.quota = Some(quota);
    }

    /// Whether a lone driver holds every result it owes. Its leftovers and
    /// parked entries then owe the answer nothing.
    pub(crate) fn quota_met(&self) -> bool {
        self.quota.is_some_and(|q| self.results.len() >= q)
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
    /// here would make a one-thread run's insertion totals diverge from
    /// the paper's single-driver join.
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

    /// The live pruning bound: `qDmax`, clamped by the shared bound.
    fn cutoff(&self) -> f64 {
        self.shared.clamp(self.distq.qdmax())
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
    ///
    /// A lone driver stops at its quota. A fleet driver keeps consuming
    /// past `k` results while queued keys can still beat the cutoff: a
    /// later steal may hold closer pairs, so its first `k` emissions are
    /// not necessarily its share's top `k`. Surplus results are harmless —
    /// the runner's canonical merge sorts and truncates.
    pub(crate) fn run_stage_one(&mut self) {
        loop {
            if self.pause_fired() {
                self.suspended = true;
                break;
            }
            if self.quota_met() {
                break;
            }
            if self.quota.is_none() && self.results.len() >= self.k {
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
                    let entry = self
                        .scratch
                        .park(pair.dist.max(self.edmax.next_up()), &pair);
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

    /// Stage two (Algorithm 3): merge the main and compensation queues by
    /// key; fresh pairs expand exactly (B-KDJ behaviour), parked entries
    /// replay exactly the child pairs stage one skipped. `qDmax` is exact
    /// here, so nothing needs parking again. A lone driver stops at its
    /// quota; a fleet driver stops once the next key exceeds the clamped
    /// `qDmax`, which upper-bounds the global k-th answer distance.
    pub(crate) fn run_stage_two(&mut self) {
        loop {
            if self.pause_fired() {
                self.suspended = true;
                break;
            }
            if self.quota_met() {
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
                    .compensate(self.r, self.s, &mut entry, &mut sink, &mut self.stats);
                self.note_expansion();
            }
        }
    }

    /// Hands stage one's results and retained distances to the runner
    /// while the driver keeps its queues and counters for stage two; its
    /// stats come back with stage two's [`into_pool`](Self::into_pool).
    pub(crate) fn take_stage_one(&mut self) -> StageOnePool<D> {
        StageOnePool {
            results: std::mem::take(&mut self.results),
            leftovers: Vec::new(),
            comps: Vec::new(),
            dists: self.distq.retained(),
            stats: JoinStats::default(),
            edmax: self.edmax,
            suspended: false,
        }
    }

    /// Finalizes a worker for pooling. With `drain_leftovers`
    /// (aggressive policy short of a lone quota, or any suspended
    /// driver), the remaining
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
            let bound = self.shared.get();
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
        self.mainq.account(&mut self.stats);
        StageOnePool {
            results: self.results,
            leftovers,
            comps,
            dists,
            stats: self.stats,
            edmax: self.edmax,
            suspended: self.suspended,
        }
    }
}
