//! The k-distance joins' stage policy (AM-KDJ and B-KDJ) over the
//! shared [`ExpansionCore`]: the distance queue behind `qDmax`, the
//! `eDmax` ratchet and early termination of aggressive stage one, and
//! the single compensation stage under the proven `qDmax`. The core does
//! every expansion, replay and cut.
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

use crate::mainq::MainQueue;
use crate::{DistanceQueue, JoinStats, Pair, ResultPair};

use super::bound::MinBound;
use super::expand::{to_result, ExpansionCore};
use super::sweep::{CompEntry, MarkMode, SweepSink};

/// The engine's one sweep sink. `axis` selects the cutoff shape:
/// `Some(eDmax)` freezes the axis cutoff for the whole sweep (aggressive
/// stage one, whose scans then find each window with one walk over the
/// sort keys before any distance), `None` keeps it live at the clamped
/// `qDmax` (exact sweeps and compensation), tested partner by partner
/// inside the distance loop. Both use the same one-sided key test,
/// which is exact ([`SweepSide::reach`](super::sweep::SweepSide::reach)). The
/// real cutoff is always the live `qDmax`, clamped by the shared bound;
/// emitted results publish the new `qDmax` back into the shared bound.
struct EngineSink<'x, const D: usize> {
    mainq: &'x mut MainQueue<D>,
    distq: &'x mut DistanceQueue,
    axis: Option<f64>,
    shared: &'x MinBound,
    tightenings: &'x mut u64,
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

/// What a driver hands back to the claim-round runner: its results,
/// the prunable remainder of its frontier, its parked compensation
/// entries, and the distances its queue retained (pooled into the global
/// bound and into stage-two workers' queues). Suspended drivers (a fired
/// [`PauseCtl`](super::checkpoint::PauseCtl)) come back through the same
/// shape with `suspended` set and their whole sub-bound frontier in
/// `leftovers`.
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

/// The k-distance joins' stage policy over one [`ExpansionCore`]: the
/// distance queue behind `qDmax`, the (ratcheted) `eDmax` of aggressive
/// stage one, the results, and the two paper stages. The claim-round
/// runner runs one per worker against a shared [`MinBound`].
pub(crate) struct ExpansionDriver<'x, const D: usize> {
    core: ExpansionCore<'x, D>,
    k: usize,
    aggressive: bool,
    edmax: f64,
    shared: &'x MinBound,
    /// The results a lone driver owes before it stops (module docs);
    /// `None` in a fleet.
    quota: Option<usize>,
    distq: DistanceQueue,
    results: Vec<ResultPair>,
    tightenings: u64,
    suspended: bool,
}

impl<'x, const D: usize> ExpansionDriver<'x, D> {
    pub(crate) fn new(
        core: ExpansionCore<'x, D>,
        k: usize,
        aggressive: bool,
        edmax: f64,
        shared: &'x MinBound,
    ) -> Self {
        ExpansionDriver {
            core,
            k,
            aggressive,
            edmax,
            shared,
            quota: None,
            distq: DistanceQueue::new(k),
            results: Vec::with_capacity(k.min(1 << 20)),
            tightenings: 0,
            suspended: false,
        }
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

    /// The counters the claim rounds add to (pairs stolen, steal
    /// attempts).
    pub(crate) fn stats_mut(&mut self) -> &mut JoinStats {
        &mut self.core.stats
    }

    /// Whether a stage loop stops at its top: the pause fired (which
    /// suspends the driver) or a lone quota is met.
    fn halted(&mut self) -> bool {
        if self.core.paused() {
            self.suspended = true;
        }
        self.suspended || self.quota_met()
    }

    /// Seeds the driver with a frontier partition. Counted as fresh queue
    /// work: these pairs enter a main queue for the first time after the
    /// (uncounted) frontier split.
    pub(crate) fn seed_counted(&mut self, pairs: Vec<Pair<D>>) {
        for pair in pairs {
            let is_result = pair.is_result();
            let dist = pair.dist;
            self.core.mainq.push(pair);
            if is_result {
                self.distq.insert(dist);
            }
        }
    }

    /// Seeds the driver with work an earlier stage or episode already
    /// counted: pooled stage-one work for stage two, or snapshot frontier
    /// pairs for a resumed stage one. *Not* counted — re-counting would
    /// make a one-thread run's insertion totals diverge from the paper's
    /// single-driver join — and, unlike
    /// [`seed_counted`](Self::seed_counted), *without* distance-queue
    /// insertion: a seeded result pair's distance already lives in the
    /// pooled or saved evidence ([`seed_dists`](Self::seed_dists)), and
    /// inserting it again would double-count that pair, yielding an
    /// unsoundly tight bound.
    pub(crate) fn seed_replayed(&mut self, pairs: Vec<Pair<D>>, comps: Vec<CompEntry<D>>) {
        for pair in pairs {
            self.core.mainq.unpop(pair);
        }
        for entry in comps {
            self.core.compq.seed(entry);
        }
    }

    /// Seeds the distance queue with evidence counted before: the pooled
    /// stage-one distances of a stage-two driver, or a snapshot's
    /// evidence for a resumed stage one. Uncounted.
    pub(crate) fn seed_dists(&mut self, dists: &[f64]) {
        for &d in dists {
            self.distq.seed(d);
        }
    }

    /// The live pruning bound: `qDmax`, clamped by the shared bound.
    fn cutoff(&self) -> f64 {
        self.shared.clamp(self.distq.qdmax())
    }

    /// The largest frontier key this driver would still process — the
    /// work-stealing claim predicate. Exact stages claim up to the clamped
    /// `qDmax`, beyond which nothing can contribute to the merged answer.
    /// Aggressive stage one refuses seeds beyond its (ratcheted) `eDmax`:
    /// it could not emit their results anyway, and leaving them in the
    /// pool lets the runner route them straight to stage two instead of
    /// shuffling them through a worker that would only unpop them.
    pub(crate) fn claim_bound(&self) -> f64 {
        if self.aggressive {
            self.edmax
        } else {
            self.cutoff()
        }
    }

    /// Expands `pair` through the core into an [`EngineSink`] whose axis
    /// cutoff is `axis` (see there).
    fn expand(&mut self, pair: &Pair<D>, cutoff: f64, mode: MarkMode, axis: Option<f64>) {
        let (distq, shared, tightenings) = (&mut self.distq, self.shared, &mut self.tightenings);
        self.core.expand(pair, cutoff, mode, |mainq| EngineSink {
            mainq,
            distq,
            axis,
            shared,
            tightenings,
        });
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
        while !self.halted() {
            if self.quota.is_none() && self.results.len() >= self.k {
                match self.core.mainq.peek_min() {
                    Some(key) if key <= self.cutoff() => {}
                    _ => break,
                }
            }
            let Some(pair) = self.core.mainq.pop() else {
                break;
            };
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
                    self.core.mainq.unpop(pair);
                    break;
                }
            }
            if pair.is_result() {
                self.results.push(to_result(&pair));
            } else if self.aggressive {
                self.expand(&pair, self.edmax, MarkMode::Suffix, Some(self.edmax));
            } else {
                self.expand(&pair, self.cutoff(), MarkMode::None, None);
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
        self.aggressive = false;
        self.core.stats.stages = 2;
        while !self.halted() {
            let Some((key, from_main)) = self.core.next_key() else {
                break;
            };
            if key > self.cutoff() {
                break;
            }
            if !from_main {
                let (distq, shared, tightenings) =
                    (&mut self.distq, self.shared, &mut self.tightenings);
                self.core.replay(None, |mainq| EngineSink {
                    mainq,
                    distq,
                    axis: None,
                    shared,
                    tightenings,
                });
                continue;
            }
            let pair = self.core.mainq.pop().expect("peeked");
            if pair.is_result() {
                self.results.push(to_result(&pair));
            } else {
                self.expand(&pair, self.cutoff(), MarkMode::None, None);
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
    /// driver), the remaining frontier and the surviving compensation
    /// entries at or below the shared bound come along
    /// ([`ExpansionCore::drain`]).
    pub(crate) fn into_pool(mut self, drain_leftovers: bool) -> StageOnePool<D> {
        let (leftovers, comps) = if drain_leftovers {
            self.core.drain(self.shared.get())
        } else {
            (Vec::new(), Vec::new())
        };
        let mut stats = self.core.stats();
        stats.bound_tightenings = self.tightenings;
        stats.distq_insertions = self.distq.insertions();
        StageOnePool {
            results: self.results,
            leftovers,
            comps,
            dists: self.distq.retained(),
            stats,
            edmax: self.edmax,
            suspended: self.suspended,
        }
    }
}
