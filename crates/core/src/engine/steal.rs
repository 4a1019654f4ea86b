//! The engine's one k-distance and incremental join runner: claim rounds
//! with work stealing over a round-robin split, at any worker count.
//! Every join [`run`](super::run) starts — `b_kdj`, `am_kdj`, the
//! `par_*` joins, resumed joins and the server's queries — runs here; one
//! worker *is* the paper's sequential join.
//!
//! A statically partitioned frontier lets a drained worker idle at the
//! stage barrier — on skewed frontiers (a clustered partition next to a
//! uniform one) that idle time dominates wall clock. Here the frontier
//! lives in a [`StealPool`]: one deque per worker, dealt round-robin from
//! the key-sorted batch ([`round_robin`]) so each stays ascending by key.
//! A worker repeatedly *claims* a prefix of its own deque and runs its
//! driver over it; once its deque holds nothing below its claim bound it
//! scans the peers (most-loaded first) and steals the *tail* half of a
//! victim's claimable prefix — the victim keeps the near pairs it is
//! about to process, the thief takes the far ones. The same path is the
//! checkpointable one: a fired pause drains every worker into one
//! canonical frontier snapshot.
//!
//! # Why dynamic claiming stays exact
//!
//! Any cut of the expansion DAG partitions the object-pair space, and
//! stealing only ever re-partitions the frontier — every seed is still
//! processed by exactly one worker. Two things do change:
//!
//! * **Past-`k` processing.** A stolen seed can arrive *after* a
//!   worker's `k`-th emission and still hold closer pairs, so a fleet
//!   worker keeps consuming while its queue minimum beats the cutoff;
//!   surplus results are sorted away by the canonical merge. A lone
//!   worker claims its whole deque up front, so nothing can reach it
//!   after its `k`-th emission: it stops there, and once it holds `k`
//!   results it owes stage two nothing — every leftover, parked entry
//!   and unclaimed seed lies at or beyond its `k`-th result. Short of
//!   `k`, a fresh lone worker carries its driver into stage two instead
//!   of draining its queues into a new one.
//! * **Dropped seeds must be justified per worker.** A worker exits only
//!   after its own claim *and* a full steal scan over every peer found
//!   nothing at or below its bound; the pool only ever shrinks, so the
//!   exit is race-free. Seeds left in the pool were therefore rejected
//!   against *every* worker's exit bound. For exact stage one, stage two,
//!   and the incremental join that bound clamps to a published `qDmax` —
//!   the k-th smallest of k real pair distances, hence an upper bound on
//!   the global `Dmax(k)` — so the seeds are provably outside the answer.
//!   For aggressive stage one the bound is the (ratcheted) `eDmax`,
//!   which proves nothing; unclaimed seeds are routed to stage two as
//!   [`Work::Unclaimed`] items instead of being dropped.
//!
//! # Counter discipline
//!
//! Pool seeds are counted as main-queue insertions when a worker claims
//! them (its driver's `seed_counted` / `push_seeds`) — each seed is
//! claimed exactly once, so each is counted exactly once. Stage-two items
//! know their history: [`Work::Fresh`] and [`Work::Comp`] were counted by
//! the stage-one worker that first enqueued them and re-enter uncounted;
//! [`Work::Unclaimed`] seeds never entered any queue and are counted on
//! entry, exactly as stage one would have. On one thread the frontier is
//! a single root seed and the claim protocol degenerates to "take it",
//! so the runner does the paper's sequential work counter for counter —
//! ties at the `k`-th distance included (`tests/stats_parity.rs`).
//!
//! # Schedule perturbation
//!
//! Thread timing cannot be controlled from a test, so [`TestSchedule`]
//! injects it deterministically: before every claim a worker consults a
//! splitmix64 hash of `(seed, worker, step)` to decide whether to stall
//! (a yield loop) and whether to *force* a steal attempt ahead of its own
//! deque. Tests sweep the seed to drive pathological interleavings —
//! thieves racing the victim's first claim, stalls straddling the bound
//! ratchet — while every decision stays reproducible.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use amdj_rtree::RTree;

use crate::stats::{Baseline, WorkerBufferSpan};
use crate::{
    AmIdjOptions, DistanceQueue, Estimator, JoinConfig, JoinOutput, JoinStats, Pair, ResultPair,
};

use super::backend::{seed_frontier, sort_canonical};
use super::bound::MinBound;
use super::checkpoint::{Checkpointed, PauseCtl};
use super::driver::{ExpansionDriver, StageOnePool};
use super::expand::ExpansionCore;
use super::policy::PruningPolicy;
use super::snapshot::{EngineSnapshot, SnapshotKind, TreePrint};
use super::stage::{StageDriver, Step};
use super::sweep::CompEntry;

/// Deterministic schedule perturbation for the work-stealing backend.
///
/// Attached to a [`JoinRequest`](super::JoinRequest) it makes workers
/// stall and steal at points derived purely from `seed`, the worker
/// index, and the worker's claim-step counter — so a test failure
/// reproduces from its seed. The default (`one_in` fields zero) perturbs
/// nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TestSchedule {
    /// Seed every stall/steal decision derives from.
    pub seed: u64,
    /// Stall before roughly one in this many claim points (`0` = never).
    pub stall_one_in: u32,
    /// `yield_now` iterations per stall.
    pub stall_spins: u32,
    /// Force a steal attempt (probing peers before the worker's own
    /// deque) at roughly one in this many claim points (`0` = never).
    pub force_steal_one_in: u32,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl TestSchedule {
    /// Whether a decision taken roughly `one_in` times (`0` = never)
    /// fires at `(worker, step)`; `salt` tells the decisions apart.
    fn fires(&self, one_in: u32, worker: usize, step: u64, salt: u64) -> bool {
        let hash = splitmix64(
            self.seed
                ^ (worker as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                ^ step.wrapping_mul(0xbf58_476d_1ce4_e5b9)
                ^ salt,
        );
        one_in != 0 && hash.is_multiple_of(one_in as u64)
    }
}

/// One deque of pending work per worker, each kept ascending by key.
///
/// The per-deque `Mutex` is uncontended in the common case (a worker
/// claiming its own deque); the mirrored lengths let thieves rank victims
/// and skip empty deques without locking. Nothing is ever pushed back
/// into a pool, so a worker that observes "no claimable work anywhere"
/// may exit for good.
struct StealPool<T> {
    deques: Vec<Mutex<VecDeque<T>>>,
    lens: Vec<AtomicUsize>,
    key: fn(&T) -> f64,
}

impl<T> StealPool<T> {
    fn new(buckets: Vec<Vec<T>>, key: fn(&T) -> f64) -> Self {
        let lens = buckets.iter().map(|b| AtomicUsize::new(b.len())).collect();
        StealPool {
            deques: buckets
                .into_iter()
                .map(|b| Mutex::new(VecDeque::from(b)))
                .collect(),
            lens,
            key,
        }
    }

    /// Takes the front of worker `w`'s claimable prefix (keys ≤ `bound`):
    /// all of it when `all`, else half (rounded up), leaving the rest
    /// stealable. Returns ascending items.
    fn claim_own(&self, w: usize, bound: f64, all: bool) -> Vec<T> {
        if self.lens[w].load(Ordering::Relaxed) == 0 {
            return Vec::new();
        }
        let mut dq = self.deques[w].lock().unwrap();
        let p = dq.partition_point(|t| (self.key)(t) <= bound);
        let n = if all { p } else { p.div_ceil(2) };
        let out: Vec<T> = dq.drain(..n).collect();
        self.lens[w].store(dq.len(), Ordering::Relaxed);
        out
    }

    /// Scans every peer, most-loaded first, and takes the *tail* half of
    /// the first non-empty claimable prefix found — the victim keeps the
    /// near work it is about to claim itself. Returns the stolen items
    /// (ascending) and the number of deques probed (locked); an empty
    /// result means a full scan found nothing at or below `bound`.
    fn steal(&self, thief: usize, bound: f64) -> (Vec<T>, u64) {
        let mut attempts = 0u64;
        let mut order: Vec<usize> = (0..self.deques.len()).filter(|&i| i != thief).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(self.lens[i].load(Ordering::Relaxed)));
        for v in order {
            // Racy reads are fine: the pool only shrinks, so an observed
            // zero stays zero.
            if self.lens[v].load(Ordering::Relaxed) == 0 {
                continue;
            }
            attempts += 1;
            let mut dq = self.deques[v].lock().unwrap();
            let p = dq.partition_point(|t| (self.key)(t) <= bound);
            if p == 0 {
                continue;
            }
            let n = p.div_ceil(2);
            let out: Vec<T> = dq.drain(p - n..p).collect();
            self.lens[v].store(dq.len(), Ordering::Relaxed);
            return (out, attempts);
        }
        (Vec::new(), attempts)
    }

    /// Whether any worker could still claim an item keyed at or below
    /// `bound`, from its own deque or by stealing. Deques are ascending,
    /// so their fronts decide.
    fn has_claimable(&self, bound: f64) -> bool {
        (0..self.deques.len()).any(|v| {
            self.lens[v].load(Ordering::Relaxed) != 0
                && self.deques[v]
                    .lock()
                    .expect("steal-pool deque poisoned")
                    .front()
                    .is_some_and(|t| (self.key)(t) <= bound)
        })
    }

    /// Everything no worker claimed, in worker order.
    fn into_remaining(self) -> Vec<T> {
        self.deques
            .into_iter()
            .flat_map(|m| m.into_inner().unwrap())
            .collect()
    }
}

/// Splits `items` (sorted ascending by key) into exactly `buckets`
/// per-worker shares by dealing them round-robin: bucket `i % buckets`
/// gets item `i`, so every share stays ascending. One bucket hands the
/// batch over unchanged, so a lone worker sees the sequential join's
/// order; it returns early so a resumed one-thread episode does not copy
/// its whole frontier.
fn round_robin<T>(items: Vec<T>, buckets: usize) -> Vec<Vec<T>> {
    if buckets <= 1 {
        return vec![items];
    }
    let mut out: Vec<Vec<T>> = (0..buckets).map(|_| Vec::new()).collect();
    for (i, item) in items.into_iter().enumerate() {
        out[i % buckets].push(item);
    }
    out
}

/// One worker's side of the claim protocol: its pool and index, its
/// schedule perturbation with the claim-step counter that drives it, and
/// the steal counters it reports.
struct Claims<'p, T> {
    pool: &'p StealPool<T>,
    w: usize,
    schedule: Option<TestSchedule>,
    step: u64,
    stolen: u64,
    attempts: u64,
}

impl<'p, T> Claims<'p, T> {
    fn new(pool: &'p StealPool<T>, w: usize, schedule: Option<TestSchedule>) -> Self {
        Claims {
            pool,
            w,
            schedule,
            step: 0,
            stolen: 0,
            attempts: 0,
        }
    }

    /// One claim round: the worker's own deque first (all of its
    /// claimable prefix with `all_own`), then a full steal scan. The
    /// schedule may stall the worker first and, with `may_force`, force
    /// the steal scan ahead of the own deque; a forced round falls back
    /// to own work, so a forced decision can never fabricate an early
    /// exit. The claim bound is read after the stall, so a stall can
    /// straddle a bound ratchet. `None` means both the own claim and a
    /// scan of every peer found nothing at or below the bound: since the
    /// pool only shrinks, the worker may exit.
    fn round(
        &mut self,
        bound: impl FnOnce() -> f64,
        all_own: bool,
        may_force: bool,
    ) -> Option<Vec<T>> {
        self.step += 1;
        let (w, step) = (self.w, self.step);
        let forced = self.schedule.is_some_and(|sch| {
            if sch.fires(sch.stall_one_in, w, step, 1) {
                for _ in 0..sch.stall_spins {
                    std::thread::yield_now();
                }
            }
            may_force && sch.fires(sch.force_steal_one_in, w, step, 2)
        });
        let bound = bound();
        let own = || Some(self.pool.claim_own(self.w, bound, all_own)).filter(|c| !c.is_empty());
        if !forced {
            if let Some(claimed) = own() {
                return Some(claimed);
            }
        }
        let (loot, probes) = self.pool.steal(self.w, bound);
        self.attempts += probes;
        if !loot.is_empty() {
            self.stolen += loot.len() as u64;
            return Some(loot);
        }
        if forced {
            own()
        } else {
            None
        }
    }

    /// Adds the pairs stolen and the steal attempts to `stats`.
    fn account(&self, stats: &mut JoinStats) {
        stats.pairs_stolen += self.stolen;
        stats.steal_attempts += self.attempts;
    }
}

/// Sum over workers of `last_finish − own_finish`: the idle time a stage
/// barrier imposed on the workers that finished early.
fn barrier_idle(finish_ns: &[u64]) -> u64 {
    let max = finish_ns.iter().copied().max().unwrap_or(0);
    finish_ns.iter().map(|&ns| max - ns).sum()
}

/// Runs one worker per input — worker `w` gets `inputs[w]` — and returns
/// their outputs in worker order with the stage barrier's idle time
/// ([`barrier_idle`]). Each worker's buffer traffic lands in its
/// [`WorkerBufferSpan`] slot of the stats `stats_of` points at. A lone
/// worker runs on the calling thread: a one-thread join then allocates
/// and fetches exactly where its caller would, with no thread to spawn
/// (a spawned thread allocates from a fresh allocator arena, which cost
/// paper-scale AM-KDJ about a fifth of its wall time).
fn run_workers<I: Send, T: Send>(
    inputs: Vec<I>,
    work: impl Fn(usize, I) -> T + Sync,
    stats_of: fn(&mut T) -> &mut JoinStats,
) -> (Vec<T>, u64) {
    let t0 = std::time::Instant::now();
    let run = |w: usize, input: I, on_caller: bool| {
        let span = WorkerBufferSpan::begin(w);
        let mut out = work(w, input);
        span.record(stats_of(&mut out), on_caller);
        (out, t0.elapsed().as_nanos() as u64)
    };
    let done: Vec<(T, u64)> = if inputs.len() == 1 {
        inputs
            .into_iter()
            .map(|input| run(0, input, true))
            .collect()
    } else {
        std::thread::scope(|scope| {
            let run = &run;
            let handles: Vec<_> = inputs
                .into_iter()
                .enumerate()
                .map(|(w, input)| scope.spawn(move || run(w, input, false)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        })
    };
    let finishes: Vec<u64> = done.iter().map(|(_, ns)| *ns).collect();
    (
        done.into_iter().map(|(out, _)| out).collect(),
        barrier_idle(&finishes),
    )
}

/// The frontier is oversplit to `8×` threads: dynamic balancing thrives
/// on fine granularity, and a claim moves a whole prefix at once so
/// per-seed overhead stays small.
/// One thread keeps the single root seed, so the lone worker runs the
/// paper's sequential join.
fn frontier_target(threads: usize) -> usize {
    if threads == 1 {
        1
    } else {
        threads * 8
    }
}

/// What every k-distance worker of one episode shares: the trees, `k`,
/// the queue configuration and estimator, the shared bound, the schedule
/// perturbation and the pause control, and whether the worker is alone.
struct Crew<'x, const D: usize> {
    r: &'x RTree<D>,
    s: &'x RTree<D>,
    k: usize,
    cfg: &'x JoinConfig,
    est: Option<&'x Estimator<D>>,
    shared: &'x MinBound,
    schedule: Option<TestSchedule>,
    pause: Option<&'x PauseCtl>,
    lone: bool,
}

impl<'x, const D: usize> Crew<'x, D> {
    fn driver(&self, aggressive: bool, edmax: f64) -> ExpansionDriver<'x, D> {
        let core = ExpansionCore::new(self.r, self.s, self.cfg, self.est, self.pause);
        ExpansionDriver::new(core, self.k, aggressive, edmax, self.shared)
    }

    /// One stage-one worker: an [`ExpansionDriver`] fed by claim rounds. The
    /// claim bound is the driver's own stage-one predicate — the clamped
    /// `qDmax` for exact policies, the ratcheted `eDmax` for aggressive ones
    /// (seeds beyond it could not be emitted in stage one anyway; leaving
    /// them unclaimed routes them straight to stage two).
    ///
    /// A `lone` worker claims its whole claimable deque in one round and
    /// stops at `k` results (module docs); it drains nothing for stage two
    /// once it holds them. Short of `k` under the aggressive policy, a fresh
    /// lone worker hands back its driver instead of draining it: stage two
    /// goes on over the same queues, as in the paper's single-driver join.
    ///
    /// `evidence` marks a run resumed from a snapshot and holds the
    /// snapshot's distance evidence. Claims then enter through
    /// [`ExpansionDriver::seed_replayed`]: uncounted (each pair was
    /// counted when first enqueued, before the suspension) and without
    /// distance-queue insertion (a resumed result pair's distance already
    /// lives in the evidence). The distance queue starts from the
    /// evidence instead, uncounted, so `qDmax` and the `eDmax` ratchet
    /// pick up where the suspended episode left them. The worker hands
    /// back only the distances it added ([`own_dists`]), so the runner's
    /// pool holds no seed twice. A fired `pause` suspends the driver, and
    /// [`ExpansionDriver::into_pool`] then drains its whole sub-bound
    /// frontier for the snapshot regardless of policy.
    fn stage_one<P: PruningPolicy>(
        &self,
        pool: &StealPool<Pair<D>>,
        w: usize,
        edmax0: f64,
        evidence: Option<&[f64]>,
    ) -> (StageOnePool<D>, Option<ExpansionDriver<'x, D>>) {
        let lone = self.lone;
        let mut drv = self.driver(P::AGGRESSIVE, edmax0);
        if lone {
            drv.set_quota(self.k);
        }
        drv.seed_dists(evidence.unwrap_or_default());
        let mut claims = Claims::new(pool, w, self.schedule);
        while !drv.suspended() {
            let Some(claimed) = claims.round(|| drv.claim_bound(), lone, true) else {
                break;
            };
            if evidence.is_some() {
                drv.seed_replayed(claimed, Vec::new());
            } else {
                drv.seed_counted(claimed);
            }
            drv.run_stage_one();
        }
        claims.account(drv.stats_mut());
        let resumed = evidence.is_some();
        if lone && P::AGGRESSIVE && !resumed && !drv.quota_met() && !drv.suspended() {
            return (drv.take_stage_one(), Some(drv));
        }
        let drain = (P::AGGRESSIVE && !drv.quota_met()) || drv.suspended();
        let mut out = drv.into_pool(drain);
        out.dists = own_dists(out.dists, evidence.unwrap_or_default());
        (out, None)
    }

    /// One stage-two worker: exact cutoffs, distance queue pre-seeded
    /// (uncounted) with the pooled stage-one distances. The *first* claim
    /// takes the worker's entire own deque — the paper's stage two starts
    /// from everything stage one left at once, and doing the same is what
    /// keeps one-thread runs counter-identical — later claims (after steals)
    /// use the exact `qDmax`-clamped bound. A lone worker's `quota` is the
    /// results stage one still owes; it stops there. A `carried` stage-one
    /// driver goes on over its own queues, whose distance queue already
    /// holds the seed slice's distances.
    ///
    /// Returns through [`StageOnePool`]: a normally finished worker comes
    /// back with empty `leftovers`/`comps`, a suspended one (fired `pause`)
    /// drains its sub-bound remainder for the snapshot, and its `dists`
    /// are then only the distances it added ([`own_dists`]): a stage-two
    /// cut pools them with the seed slice, as stage one does.
    fn stage_two(
        &self,
        pool: &StealPool<Work<D>>,
        w: usize,
        dists: &[f64],
        quota: Option<usize>,
        carried: Option<ExpansionDriver<'x, D>>,
    ) -> StageOnePool<D> {
        // A carried driver owes its own queues a stage two even when the pool
        // holds nothing for it.
        let carrying = carried.is_some();
        let mut drv = carried.unwrap_or_else(|| {
            let mut drv = self.driver(false, f64::INFINITY);
            drv.seed_dists(dists);
            drv
        });
        if let Some(q) = quota {
            drv.set_quota(q);
        }
        let mut claims = Claims::new(pool, w, self.schedule);
        let mut first = true;
        while !drv.suspended() {
            let bound = || {
                if first {
                    f64::INFINITY
                } else {
                    drv.claim_bound()
                }
            };
            let claimed = claims.round(bound, first, !first);
            if claimed.is_none() && !(first && carrying) {
                break;
            }
            first = false;
            let mut fresh = Vec::new();
            let mut unclaimed = Vec::new();
            let mut comps = Vec::new();
            for item in claimed.into_iter().flatten() {
                match item {
                    Work::Fresh(p) => fresh.push(p),
                    Work::Unclaimed(p) => unclaimed.push(p),
                    Work::Comp(e) => comps.push(e),
                }
            }
            drv.seed_replayed(fresh, comps);
            drv.seed_counted(unclaimed);
            drv.run_stage_two();
        }
        claims.account(drv.stats_mut());
        let suspended = drv.suspended();
        let mut out = drv.into_pool(suspended);
        if suspended {
            out.dists = own_dists(out.dists, dists);
        }
        out
    }
}

/// The distances a worker seeded with `seeds` added itself: its
/// `retained` distances minus one copy of each seed value they hold. Both
/// are multisets, so with one worker the seeds plus these are exactly
/// the uninterrupted distance queue's distances.
fn own_dists(mut retained: Vec<f64>, seeds: &[f64]) -> Vec<f64> {
    if seeds.is_empty() {
        return retained;
    }
    let mut seeds = seeds.to_vec();
    seeds.sort_unstable_by(f64::total_cmp);
    retained.sort_unstable_by(f64::total_cmp);
    let mut seeds = seeds.into_iter().peekable();
    retained.retain(|d| {
        while seeds.next_if(|s| s.total_cmp(d).is_lt()).is_some() {}
        seeds.next_if(|s| s.total_cmp(d).is_eq()).is_none()
    });
    retained
}

/// A stage-two work item, keyed for the pool's ascending deques. The
/// variants track counting history (module docs): `Fresh` pairs and
/// `Comp` entries re-enter a queue uncounted, `Unclaimed` seeds are
/// counted on entry. A stolen `Comp` entry carries its own sweep lists
/// and per-anchor marks, so skip bookkeeping migrates losslessly with it.
enum Work<const D: usize> {
    Fresh(Pair<D>),
    Unclaimed(Pair<D>),
    Comp(CompEntry<D>),
}

fn work_key<const D: usize>(w: &Work<D>) -> f64 {
    match w {
        Work::Fresh(p) | Work::Unclaimed(p) => p.dist,
        Work::Comp(e) => e.key,
    }
}

/// A serve pull's second bound: the `want`-th smallest distance a worker
/// has evidence for, published to a [`MinBound`] shared by the workers.
/// Workers stop at it (or at the `take` bound, if tighter), while the
/// `take` bound still decides what the suspension keeps.
struct Window<'b> {
    distq: DistanceQueue,
    bound: &'b MinBound,
}

impl<'b> Window<'b> {
    /// A window pre-seeded (uncounted) with a snapshot's distance
    /// evidence, already published.
    fn new(want: usize, bound: &'b MinBound, seed_dists: &[f64]) -> Self {
        let mut distq = DistanceQueue::new(want);
        for &d in seed_dists {
            distq.seed(d);
        }
        bound.tighten(distq.qdmax());
        Window { distq, bound }
    }

    fn record(&mut self, dist: f64) {
        self.distq.insert(dist);
        self.bound.tighten(self.distq.qdmax());
    }
}

/// Pumps one incremental cursor while its next emission can still beat
/// the stop bound (the shared `take` bound, or the [`Window`]'s when
/// tighter), recording each emission in the window. It hands control
/// back to the claim loop with [`Step::Done`] once nothing left in the
/// cursor can beat the bound, or with [`Step::Paused`]. The cursor's own
/// sink counts every object pair into its `take` queue as it is queued,
/// so emissions are not counted again here.
///
/// A stage advance is a global decision. The cursor's queues hold only
/// its claimed share of the frontier — on resume, nothing but the parked
/// compensation entries, which sit just above `eDmax` — so an empty
/// stage locally says nothing about the stage globally. The pump
/// therefore stops with [`Step::Held`] instead of raising `eDmax` while
/// the pool (the worker's own deque or any peer's it could steal from)
/// still holds a seed at or below the clamped cutoff, and advances only
/// once none remains.
fn pump_idj<const D: usize>(
    cursor: &mut StageDriver<'_, D>,
    shared: &MinBound,
    window: &mut Option<Window<'_>>,
    results: &mut Vec<ResultPair>,
    pool: &StealPool<Pair<D>>,
) -> Step {
    let hold = |cutoff: f64| pool.has_claimable(cutoff);
    loop {
        // The cursor's minimum queue key lower-bounds every future
        // emission: stop before doing the work once it passes the
        // bound.
        let limit = window.as_ref().map_or(f64::INFINITY, |w| w.bound.get());
        match cursor.peek_key() {
            Some(key) if key <= limit.min(shared.get()) => {}
            _ => return Step::Done,
        }
        match cursor.next_step(limit, hold) {
            Step::Pair(pair) => {
                if pair.dist > shared.get() {
                    // The stream is ascending; everything later is farther
                    // still (and a tighter bound may admit new claims,
                    // which the outer loop handles).
                    return Step::Done;
                }
                if let Some(w) = window {
                    w.record(pair.dist);
                }
                results.push(pair);
            }
            end => return end,
        }
    }
}

/// One worker of the stealing incremental join: a [`StageDriver`] cursor
/// fed by claim rounds, pumped while its next emission can still beat the
/// shared bound. There is no `take` cap on the pump — the cursor's own
/// `take` queue publishes its `qDmax` into the shared bound, and a cap on
/// locally-claimed work would be wrong anyway once seeds move between
/// workers.
///
/// The cursor advances its stage only when no claimable pool seed lies at
/// or below its clamped cutoff ([`pump_idj`]): a held pump claims
/// with that cutoff as the bound, so the claim takes the seeds the stage
/// still owes. A claim after a deferral can come back empty — a peer won
/// the race for the seed — and then the worker simply pumps again rather
/// than exiting, so it never exits holding work below the shared bound.
/// That pump advances the stage exactly once: the empty claim saw no
/// seed at or below the cutoff, the pool only shrinks, and the cutoff
/// only falls until the next advance, so the pump's first hold check
/// finds nothing to wait for.
///
/// A lone worker claims its whole deque before it pumps, as the
/// k-distance one does, so its queue holds exactly what the sequential
/// cursor's would: on a fresh join the single root seed, on a resumed
/// one the whole saved frontier in its saved order.
///
/// A resumed worker starts from the snapshot's cut: its stage-loop
/// scalars are `restore`d, it is dealt a share of the snapshot's parked
/// compensation entries (`seed_comps` — the pool only carries pairs),
/// its `take` queue is pre-seeded (uncounted) with the snapshot's
/// distance evidence, so its published bound starts as tight as the
/// suspended run's, and the frontier seeds it claims re-enter its queue
/// uncounted. A fleet worker's first pump drains that seeded work even
/// when the pool has nothing left to claim — and, because the parked
/// entries sit just beyond `eDmax`, defers to the pool's frontier rather
/// than advancing the stage on an empty main queue. A fired `pause`
/// suspends the cursor instead of finishing it; the drained cut comes
/// back as the third return.
///
/// With a `window` of `(want, bound)` the same exit rule runs against the
/// window bound instead — the `want`-th smallest distance any worker has
/// evidence for — and the worker suspends where it would have finished:
/// once every worker has exited, nothing pending lies at or below the
/// window bound, so at least `want` results are final.
#[allow(clippy::too_many_arguments)]
fn idj_worker<const D: usize>(
    r: &RTree<D>,
    s: &RTree<D>,
    take: usize,
    cfg: &JoinConfig,
    opts: AmIdjOptions,
    pool: &StealPool<Pair<D>>,
    (w, lone): (usize, bool),
    shared: &MinBound,
    window: Option<(usize, &MinBound)>,
    schedule: Option<TestSchedule>,
    pause: Option<&PauseCtl>,
    restore: Option<(u32, f64, u64, u64, f64)>,
    comps: Vec<CompEntry<D>>,
    evidence: &[f64],
) -> (Vec<ResultPair>, JoinStats, Option<Cut<D>>) {
    let mut cursor = StageDriver::worker(r, s, cfg, opts, take, shared, pause);
    let fresh = restore.is_none();
    if let Some((stage, edmax, k_target, emitted, last_dist)) = restore {
        cursor.restore_state(stage, edmax, k_target, emitted, last_dist);
    }
    cursor.seed_comps(comps);
    cursor.seed_dists(evidence);
    let stop = |window: &Option<Window<'_>>| {
        let limit = window.as_ref().map_or(f64::INFINITY, |w| w.bound.get());
        limit.min(shared.get())
    };
    let mut window = window.map(|(want, bound)| Window::new(want, bound, evidence));
    let mut results = Vec::new();
    let mut claims = Claims::new(pool, w, schedule);
    if lone {
        if let Some(claimed) = claims.round(|| stop(&window), true, false) {
            cursor.push_seeds(claimed, fresh);
        }
    }
    let mut end;
    loop {
        end = pump_idj(&mut cursor, shared, &mut window, &mut results, pool);
        if matches!(end, Step::Paused) {
            break;
        }
        if pause.is_some_and(|p| p.should_pause()) {
            end = Step::Paused;
            break;
        }
        let held = matches!(end, Step::Held);
        let bound = || {
            if held {
                cursor.clamped_edmax()
            } else {
                stop(&window)
            }
        };
        match claims.round(bound, false, true) {
            Some(claimed) => cursor.push_seeds(claimed, fresh),
            // Lost the race for the seed the deferral was waiting on: the
            // cursor still holds work under the bound, and the next pump
            // finds nothing claimable and advances its stage.
            None if held => {}
            None => break,
        }
    }
    let (mut stats, suspend) = if matches!(end, Step::Paused) || window.is_some() {
        let (sus, st) = cursor.suspend();
        (st, Some(sus))
    } else {
        (cursor.stats(), None)
    };
    claims.account(&mut stats);
    (results, stats, suspend)
}

/// The pieces of a suspended episode, or of one suspended incremental
/// cursor: the results so far, the distance evidence, what the workers
/// drained and the pool still held, and the stage scalars (the
/// incremental ones stay zero for a k-distance join).
#[derive(Default)]
pub(super) struct Cut<const D: usize> {
    pub(super) stage: u32,
    pub(super) edmax: f64,
    pub(super) k_target: u64,
    pub(super) last_dist: f64,
    pub(super) results: Vec<ResultPair>,
    pub(super) dists: Vec<f64>,
    pub(super) frontier: Vec<Pair<D>>,
    pub(super) comps: Vec<CompEntry<D>>,
}

impl<const D: usize> Cut<D> {
    /// Folds one incremental cursor's cut into the episode's: its
    /// frontier and parked entries join the pool's, `edmax` takes the
    /// minimum (a smaller estimate only advances stages earlier;
    /// completeness is unaffected) and `stage`, `k_target` and
    /// `last_dist` the maximum. The scalars steer heuristics only.
    fn merge(&mut self, other: Cut<D>) {
        self.frontier.extend(other.frontier);
        self.comps.extend(other.comps);
        self.edmax = self.edmax.min(other.edmax);
        self.stage = self.stage.max(other.stage);
        self.k_target = self.k_target.max(other.k_target);
        self.last_dist = self.last_dist.max(other.last_dist);
    }

    /// An incremental cut's distance evidence: the `take` smallest
    /// distances over its results and the object pairs still queued in
    /// its frontier, which becomes the snapshot's `dists`. Each is a
    /// distinct real pair — a result was emitted once, and a queued pair
    /// was produced by exactly one expansion or replay and not emitted
    /// yet — so the `take`-th of them is a proven bound, returned here
    /// (`+∞` short of `take` pairs). With one worker they are exactly
    /// its `take` queue's contents; with several, no single worker's
    /// queue saw them all. A resumed worker seeds its `take` queue with
    /// them and re-queues the frontier uncounted, so every pair stays
    /// counted once.
    pub(super) fn gather_evidence(&mut self, take: usize) -> f64 {
        let mut dists: Vec<f64> = self
            .results
            .iter()
            .map(|p| p.dist)
            .chain(
                self.frontier
                    .iter()
                    .filter(|p| p.is_result())
                    .map(|p| p.dist),
            )
            .collect();
        dists.sort_unstable_by(f64::total_cmp);
        dists.truncate(take);
        let bound = match dists.last() {
            Some(&d) if dists.len() == take => d,
            _ => f64::INFINITY,
        };
        self.dists = dists;
        bound
    }

    /// The suspended outcome of the episode: its snapshot keeps the
    /// frontier and the parked entries at or below `bound` (a proven
    /// bound: nothing above it can make the answer), each ascending by
    /// key, and the results in canonical order. An incremental cut keeps
    /// only the results at or below `bound`, which bounds the snapshot's
    /// size; its distance evidence comes from
    /// [`gather_evidence`](Self::gather_evidence).
    pub(super) fn suspend(
        mut self,
        r: &RTree<D>,
        s: &RTree<D>,
        kind: SnapshotKind,
        bound: f64,
        baseline: Baseline,
        mut stats: JoinStats,
    ) -> Checkpointed<D> {
        // Stable sorts: pairs and entries on equal keys keep the order
        // their queues would have served them in.
        self.frontier.retain(|p| p.dist <= bound);
        self.frontier.sort_by(|a, b| a.dist.total_cmp(&b.dist));
        self.comps.retain(|e| e.key <= bound);
        self.comps.sort_by(|a, b| a.key.total_cmp(&b.key));
        sort_canonical(&mut self.results);
        let mut emitted = 0;
        if let SnapshotKind::Idj { .. } = kind {
            self.results.retain(|p| p.dist <= bound);
            emitted = self.results.len() as u64;
        }
        baseline.finish(r, s, &mut stats);
        let snap = EngineSnapshot {
            trees: TreePrint::pair(r, s),
            kind,
            stage: self.stage,
            edmax: self.edmax,
            shared_bound: bound,
            k_target: self.k_target,
            emitted,
            last_dist: self.last_dist,
            results: self.results,
            dists: self.dists,
            frontier: self.frontier,
            comps: self.comps,
        };
        Checkpointed::Suspended(Box::new(snap), stats)
    }
}

/// The checkpointable k-distance join. Without `resume` it starts from
/// the root frontier; with it, from the snapshot's cut (stage 1 resumes
/// re-split the saved frontier, stage 2 resumes rebuild the
/// [`Work`] pool from the saved frontier and compensation entries).
/// Without `pause` it always returns [`Checkpointed::Done`]; with one,
/// a fired pause drains every worker and the shared pool into one
/// canonical [`EngineSnapshot`].
///
/// The snapshot's pruning is justified purely by `shared_bound` — a
/// published `qDmax`, the k-th smallest of k real distinct-pair
/// distances — so a cut taken at any thread count resumes at any other.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_kdj_ckpt<const D: usize, P: PruningPolicy>(
    r: &RTree<D>,
    s: &RTree<D>,
    k: usize,
    cfg: &JoinConfig,
    policy: &P,
    threads: usize,
    schedule: Option<TestSchedule>,
    resume: Option<EngineSnapshot<D>>,
    pause: Option<&PauseCtl>,
) -> Checkpointed<D> {
    let baseline = Baseline::capture(r, s);
    let mut stats = JoinStats {
        stages: 1,
        ..JoinStats::default()
    };
    let est = Estimator::from_trees(r, s);
    // Unpack the starting cut: the root frontier, or the snapshot's.
    let resumed = resume.is_some();
    let (stage0, edmax0, bound0) = match &resume {
        Some(snap) => (snap.stage, snap.edmax, snap.shared_bound),
        None => (1, policy.initial_edmax(est.as_ref(), k), f64::INFINITY),
    };
    let (mut results, snap_dists, snap_frontier, snap_comps) = match resume {
        Some(snap) => (snap.results, snap.dists, Some(snap.frontier), snap.comps),
        None => Default::default(),
    };
    let shared = &MinBound::new(bound0);
    let lone = threads == 1;
    let kind = SnapshotKind::Kdj {
        k: k as u64,
        aggressive: P::AGGRESSIVE,
    };
    // Publishes the pooled k-th smallest stage-one distance: the tightest
    // proven bound stage one produced.
    let tighten_kth = |dists: &[f64]| dists.len() == k && shared.tighten(dists[k - 1]);
    if k > 0 {
        let crew = Crew {
            r,
            s,
            k,
            cfg,
            est: est.as_ref(),
            shared,
            schedule,
            pause,
            lone,
        };
        // Inputs to stage two, produced by stage one (or read straight
        // from a stage-2 snapshot).
        let mut work: Vec<Work<D>> = Vec::new();
        let mut dists: Vec<f64> = Vec::new();
        let mut edmax_now = edmax0;
        // Results stage one emitted in this episode.
        let mut fresh = 0;
        // A lone stage-one driver that goes on into stage two.
        let mut carried = None;

        if stage0 <= 1 {
            let mut frontier = match snap_frontier {
                Some(f) => f,
                None => seed_frontier(r, s, cfg, frontier_target(threads), &mut stats),
            };
            // Stable: a snapshot frontier is in queue order already.
            frontier.sort_by(|a, b| a.dist.total_cmp(&b.dist));
            let seeds = round_robin(frontier, threads);
            let pool = StealPool::new(seeds, |p: &Pair<D>| p.dist);

            // ---- Stage one: claim rounds over the frontier pool ----
            let (outcomes, idle) = run_workers(
                vec![(); threads],
                |w, ()| {
                    let evidence = resumed.then_some(&snap_dists[..]);
                    crew.stage_one::<P>(&pool, w, edmax0, evidence)
                },
                |out| &mut out.0.stats,
            );
            stats.barrier_idle_ns += idle;
            let mut leftovers = Vec::new();
            // Parked entries saved by the interrupted run still owe their
            // compensation replay. They go first: they were parked before
            // this episode's, and stage two replays equal keys in order.
            let mut comps = snap_comps;
            let mut suspended = false;
            edmax_now = f64::INFINITY;
            for (outcome, drv) in outcomes {
                carried = carried.or(drv);
                fresh += outcome.results.len();
                results.extend(outcome.results);
                leftovers.extend(outcome.leftovers);
                comps.extend(outcome.comps);
                dists.extend(outcome.dists);
                stats.absorb_worker(&outcome.stats);
                suspended |= outcome.suspended;
                edmax_now = edmax_now.min(outcome.edmax);
            }
            // The saved distances join the ones the workers added. Every
            // pooled entry is the distance of a *distinct* pair (workers
            // never re-insert resumed pairs, nor hand back their seeds),
            // so the k-th is a true upper bound on the global Dmax(k).
            dists.extend(snap_dists);
            dists.sort_unstable_by(f64::total_cmp);
            dists.truncate(k);

            if suspended {
                tighten_kth(&dists);
                // Unlike a normal exit, nothing proves the pool remainder
                // prunable (workers paused, they did not reject it) — the
                // snapshot keeps everything at or below the proven bound.
                // Unclaimed seeds first: they were queued before anything
                // this episode's workers queued.
                let mut frontier = pool.into_remaining();
                frontier.extend(leftovers);
                let cut = Cut {
                    stage: 1,
                    edmax: edmax_now,
                    results,
                    dists,
                    frontier,
                    comps,
                    ..Cut::default()
                };
                return cut.suspend(r, s, kind, shared.get(), baseline, stats);
            }

            // A lone worker holding `k` results has the answer (module
            // docs): it drained nothing, and stage two is owed nothing.
            if P::AGGRESSIVE && !(lone && fresh >= k) {
                if tighten_kth(&dists) {
                    stats.bound_tightenings += 1;
                }
                let bound = shared.get();
                leftovers.retain(|p| p.dist <= bound);
                comps.retain(|e| e.key <= bound);
                // Seeds no stage-one worker claimed (all beyond every
                // ratcheted eDmax) still belong to stage two — they were
                // rejected against an estimate, not a proven bound.
                let mut unclaimed = pool.into_remaining();
                unclaimed.retain(|p| p.dist <= bound);

                // Unclaimed seeds go first, as in the cut above.
                if resumed {
                    // A resumed pool's remainder is snapshot-frontier work:
                    // counted before the pause, and its result distances
                    // already sit in the pooled evidence. Re-entering it as
                    // `Unclaimed` would insert those distances a second
                    // time and over-tighten stage two's qDmax below the
                    // true bound, silently dropping tail results.
                    work.extend(unclaimed.into_iter().map(Work::Fresh));
                } else {
                    work.extend(unclaimed.into_iter().map(Work::Unclaimed));
                }
                work.extend(leftovers.into_iter().map(Work::Fresh));
                work.extend(comps.into_iter().map(Work::Comp));
            }
            // Exact policies may leave unclaimed seeds behind: every worker
            // rejected them against its qDmax-clamped exit bound, which
            // upper-bounds the global Dmax(k), so they are provably outside
            // the answer and the pool drops with them.
        } else {
            // Stage-2 snapshot: its saved frontier re-enters uncounted
            // (`Fresh`), its parked entries replay (`Comp`), and its
            // distance evidence seeds the workers' queues exactly as the
            // stage-one pooling would have.
            dists = snap_dists;
            let frontier = snap_frontier.unwrap_or_default();
            work.extend(frontier.into_iter().map(Work::Fresh));
            work.extend(snap_comps.into_iter().map(Work::Comp));
        }

        // ---- Stage two: claim rounds over the work-item pool ----
        if !work.is_empty() || carried.is_some() {
            stats.stages = 2;
            // Stable: parked compensation entries share equal keys en
            // masse (all at `eDmax.next_up()`), and one-thread parity
            // with the sequential join needs their original order kept.
            work.sort_by(|a, b| work_key(a).total_cmp(&work_key(b)));
            let wpool = StealPool::new(round_robin(work, threads), work_key);
            let quota = lone.then(|| k - fresh);
            let (outputs, idle) = run_workers(
                (0..threads).map(|_| carried.take()).collect(),
                |w, drv| crew.stage_two(&wpool, w, &dists, quota, drv),
                |out| &mut out.stats,
            );
            stats.barrier_idle_ns += idle;
            let mut leftovers = Vec::new();
            let mut comps = Vec::new();
            let mut suspended = false;
            for outcome in outputs {
                results.extend(outcome.results);
                leftovers.extend(outcome.leftovers);
                comps.extend(outcome.comps);
                stats.absorb_worker(&outcome.stats);
                if outcome.suspended {
                    suspended = true;
                    dists.extend(outcome.dists);
                }
            }
            if suspended {
                // The seed slice plus what each worker added, as in stage
                // one: a resumed stage two starts as tight as this one.
                dists.sort_unstable_by(f64::total_cmp);
                dists.truncate(k);
                let mut frontier = leftovers;
                for item in wpool.into_remaining() {
                    match item {
                        // An unclaimed seed that never entered any queue
                        // resumes as `Fresh`; the one-time counting it is
                        // owed is a stats nicety the snapshot does not
                        // carry (results stay bit-identical either way).
                        Work::Fresh(p) | Work::Unclaimed(p) => frontier.push(p),
                        Work::Comp(e) => comps.push(e),
                    }
                }
                let cut = Cut {
                    stage: 2,
                    edmax: edmax_now,
                    results,
                    dists,
                    frontier,
                    comps,
                    ..Cut::default()
                };
                return cut.suspend(r, s, kind, shared.get(), baseline, stats);
            }
        }
        sort_canonical(&mut results);
        results.truncate(k);
    }
    stats.results = results.len() as u64;
    baseline.finish(r, s, &mut stats);
    Checkpointed::Done(JoinOutput { results, stats })
}

/// The checkpointable incremental join. On resume, every worker's cursor
/// restores the snapshot's stage-loop scalars, is dealt a share of the
/// saved compensation entries (the pair pool cannot carry them), and
/// pre-seeds its `take` queue with the saved evidence — the `take`
/// smallest distances of distinct pairs
/// ([`Cut::gather_evidence`]), so each worker's published bound is
/// individually sound. A fresh fleet's seed frontier counts its object
/// pairs into the same evidence as it is built. On suspension the snapshot
/// merges the cursors' cuts canonically: `edmax` the minimum (a smaller
/// estimate only advances stages earlier — completeness is unaffected),
/// `stage`/`k_target`/`last_dist` the maximum, `emitted` the global
/// result count. All of these steer heuristics only.
///
/// With `window = Some(want)`, `want < take`, the workers stop once the
/// first `want` results are final ([`idj_worker`]) and the run suspends
/// there — unless nothing is left pending at or below the `take` bound,
/// in which case the join is finished and returns `Done`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_idj_ckpt<const D: usize>(
    r: &RTree<D>,
    s: &RTree<D>,
    take: usize,
    window: Option<usize>,
    cfg: &JoinConfig,
    opts: &AmIdjOptions,
    threads: usize,
    schedule: Option<TestSchedule>,
    resume: Option<EngineSnapshot<D>>,
    pause: Option<&PauseCtl>,
) -> Checkpointed<D> {
    let baseline = Baseline::capture(r, s);
    let mut stats = JoinStats {
        stages: 1,
        ..JoinStats::default()
    };
    let bound0 = resume
        .as_ref()
        .map_or(f64::INFINITY, |snap| snap.shared_bound);
    let restore = resume.as_ref().map(|snap| {
        (
            snap.stage,
            snap.edmax,
            snap.k_target,
            snap.emitted,
            snap.last_dist,
        )
    });
    let (mut results, evidence, snap_frontier, snap_comps) = match resume {
        Some(snap) => (snap.results, snap.dists, Some(snap.frontier), snap.comps),
        None => Default::default(),
    };
    let shared = MinBound::new(bound0);
    let window_bound = MinBound::new(bound0);
    let window = window
        .filter(|&want| want < take)
        .map(|want| (want.max(1), &window_bound));
    if take > 0 {
        let (mut frontier, evidence) = match snap_frontier {
            Some(f) => (f, evidence),
            None => {
                let frontier = seed_frontier(r, s, cfg, frontier_target(threads), &mut stats);
                let mut distq = DistanceQueue::new(take);
                for p in frontier.iter().filter(|p| p.is_result()) {
                    distq.insert(p.dist);
                }
                stats.distq_insertions += distq.insertions();
                shared.tighten(distq.qdmax());
                (frontier, distq.retained())
            }
        };
        frontier.sort_by(|a, b| a.dist.total_cmp(&b.dist));
        let seeds = round_robin(frontier, threads);
        let pool = StealPool::new(seeds, |p: &Pair<D>| p.dist);
        let comp_shares = round_robin(snap_comps, threads);
        let evidence = &evidence[..];
        let (outputs, idle) = run_workers(
            comp_shares,
            |w, comps_w| {
                idj_worker(
                    r,
                    s,
                    take,
                    cfg,
                    opts.clone(),
                    &pool,
                    (w, threads == 1),
                    &shared,
                    window,
                    schedule,
                    pause,
                    restore,
                    comps_w,
                    evidence,
                )
            },
            |out| &mut out.1,
        );
        stats.barrier_idle_ns += idle;
        let mut cut = Cut {
            stage: 1,
            edmax: f64::INFINITY,
            k_target: opts.initial_k,
            ..Cut::default()
        };
        let mut suspended = false;
        for (mut part, wstats, suspend) in outputs {
            results.append(&mut part);
            stats.stages = stats.stages.max(wstats.stages);
            stats.absorb_worker(&wstats);
            if let Some(sus) = suspend {
                suspended = true;
                cut.merge(sus);
            }
        }
        if suspended {
            cut.frontier.extend(pool.into_remaining());
            cut.results = results;
            shared.tighten(cut.gather_evidence(take));
            let bound = shared.get();
            // A window stop with nothing pending under the `take` bound
            // is a finished join.
            let finished = window.is_some()
                && !cut.frontier.iter().any(|p| p.dist <= bound)
                && !cut.comps.iter().any(|e| e.key <= bound);
            if !finished {
                let kind = SnapshotKind::Idj { take: take as u64 };
                return cut.suspend(r, s, kind, bound, baseline, stats);
            }
            results = cut.results;
        }
        sort_canonical(&mut results);
        results.truncate(take);
    }
    stats.results = results.len() as u64;
    baseline.finish(r, s, &mut stats);
    Checkpointed::Done(JoinOutput { results, stats })
}

#[cfg(test)]
mod tests {
    use super::round_robin;

    #[test]
    fn round_robin_one_bucket_is_a_passthrough() {
        let items: Vec<u32> = (0..7).map(|i| i * 3).collect();
        // One bucket hands the batch over unchanged (one-thread parity).
        assert_eq!(round_robin(items.clone(), 1), vec![items]);
    }

    #[test]
    fn round_robin_shares_are_exact_ascending_and_lossless() {
        let items: Vec<u32> = (0..23).map(|i| i * 3).collect();
        for buckets in [2usize, 3, 8, 40] {
            let shares = round_robin(items.clone(), buckets);
            assert_eq!(shares.len(), buckets);
            for share in &shares {
                assert!(
                    share.windows(2).all(|w| w[0] <= w[1]),
                    "share must stay ascending by key"
                );
            }
            let mut all: Vec<u32> = shares.into_iter().flatten().collect();
            all.sort_unstable();
            assert_eq!(all, items, "every item lands in exactly one share");
        }
    }
}
