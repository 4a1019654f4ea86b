//! The claim-round execution path of the [`Parallel`] backend — with
//! peer stealing on ([`JoinConfig::steal`], the default) or off.
//!
//! A statically partitioned frontier lets a drained worker idle at the
//! stage barrier — on skewed frontiers (a clustered partition next to a
//! uniform one) that idle time dominates wall clock. Here the frontier
//! lives in a [`StealPool`]: one deque per worker, each sorted ascending
//! by key. A worker repeatedly *claims* a prefix of its own deque and
//! runs its driver over it; once its deque holds nothing below its claim
//! bound it scans the peers (most-loaded first) and steals the *tail*
//! half of a victim's claimable prefix — the victim keeps the near pairs
//! it is about to process, the thief takes the far ones. With
//! [`JoinConfig::steal`] off the peer scan is disabled: each worker
//! consumes exactly its own statically partitioned deque (incrementally,
//! through the same claim rounds) and idles once it drains, which is the
//! static-partitioning ablation `JoinStats::pairs_stolen == 0` pins.
//! Both modes share every other line — including the
//! drain-to-canonical-frontier suspend path, so `steal=false` joins are
//! checkpointable too.
//!
//! # Why dynamic claiming stays exact
//!
//! Any cut of the expansion DAG partitions the object-pair space, and
//! stealing only ever re-partitions the frontier — every seed is still
//! processed by exactly one worker. Two things do change:
//!
//! * **Past-`k` processing.** With a static partition a worker's first
//!   `k` emissions are its partition's top `k` (ascending pops), so it
//!   may stop at `k`. A stolen seed can arrive *after* the `k`-th
//!   emission and still hold closer pairs, so the stealing drivers
//!   ([`ExpansionDriver::run_stage_one_stealing`] /
//!   [`run_stage_two_stealing`]) keep consuming while the queue minimum
//!   beats the cutoff. Surplus results are sorted away by the canonical
//!   merge.
//! * **Dropped seeds must be justified per worker.** A worker exits only
//!   after its own claim *and* a full steal scan over every peer found
//!   nothing at or below its bound; the pool only ever shrinks, so the
//!   exit is race-free. Seeds left in the pool were therefore rejected
//!   against *every* worker's exit bound. For exact stage one, stage two,
//!   and the incremental join that bound clamps to a published `qDmax` —
//!   the k-th smallest of k real pair distances, hence an upper bound on
//!   the global `Dmax(k)` — so the seeds are provably outside the answer.
//!   With stealing off the same holds per deque: a seed left in worker
//!   `w`'s deque can only ever be processed by `w`, and `w` rejected it
//!   against its own `qDmax`-clamped exit bound, which upper-bounds the
//!   global `Dmax(k)` all by itself. For aggressive stage one the bound
//!   is the (ratcheted) `eDmax`, which proves nothing; unclaimed seeds
//!   are routed to stage two as [`Work::Unclaimed`] items instead of
//!   being dropped.
//!
//! # Counter discipline
//!
//! Pool seeds are counted as main-queue insertions when a worker claims
//! them (its driver's `seed_counted` / `push_seeds`) — each seed is
//! claimed exactly once, so totals match the static path. Stage-two items
//! know their history: [`Work::Fresh`] and [`Work::Comp`] were counted by
//! the stage-one worker that first enqueued them and re-enter uncounted;
//! [`Work::Unclaimed`] seeds never entered any queue and are counted on
//! entry, exactly as stage one would have. On one thread the frontier is
//! a single seed, the claim protocol degenerates to "take it", and the
//! whole path replays the sequential join bit for bit and counter for
//! counter.
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
//!
//! [`Parallel`]: super::backend::Parallel
//! [`JoinConfig::steal`]: crate::JoinConfig::steal
//! [`ExpansionDriver::run_stage_one_stealing`]: ExpansionDriver::run_stage_one_stealing
//! [`run_stage_two_stealing`]: ExpansionDriver::run_stage_two_stealing

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use amdj_geom::Rect;
use amdj_rtree::RTree;

use crate::stats::{Baseline, WorkerBufferSpan};
use crate::{
    AmIdjOptions, DistanceQueue, Estimator, JoinConfig, JoinOutput, JoinStats, Pair, ResultPair,
};

use super::backend::{barrier_idle, seed_frontier, sort_canonical};
use super::bound::MinBound;
use super::checkpoint::{Checkpointed, PauseCtl};
use super::driver::{ExpansionDriver, StageOnePool};
use super::partition::{partition, PartitionItem};
use super::policy::PruningPolicy;
use super::snapshot::{EngineSnapshot, SnapshotKind};
use super::stage::{IdjSuspend, StageDriver, Step};
use super::sweep::CompEntry;

/// Deterministic schedule perturbation for the work-stealing backend.
///
/// Attached to a [`Parallel`](super::backend::Parallel) backend it makes
/// workers stall and steal at points derived purely from `seed`, the
/// worker index, and the worker's claim-step counter — so a test failure
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
    fn decision(&self, worker: usize, step: u64, salt: u64) -> u64 {
        splitmix64(
            self.seed
                ^ (worker as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                ^ step.wrapping_mul(0xbf58_476d_1ce4_e5b9)
                ^ salt,
        )
    }

    fn stall(&self, worker: usize, step: u64) -> bool {
        self.stall_one_in != 0
            && self
                .decision(worker, step, 1)
                .is_multiple_of(self.stall_one_in as u64)
    }

    fn force_steal(&self, worker: usize, step: u64) -> bool {
        self.force_steal_one_in != 0
            && self
                .decision(worker, step, 2)
                .is_multiple_of(self.force_steal_one_in as u64)
    }

    fn spin(&self) {
        for _ in 0..self.stall_spins {
            std::thread::yield_now();
        }
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

    /// Whether worker `w` could still claim an item keyed at or below
    /// `bound`: from its own deque, or — with `steal` on — from any
    /// peer's. Deques are ascending, so their fronts decide.
    fn has_claimable(&self, w: usize, bound: f64, steal: bool) -> bool {
        (0..self.deques.len())
            .filter(|&v| steal || v == w)
            .any(|v| {
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

/// One claim round: the worker's own deque first, then a full steal scan
/// (`forced` inverts the order — and falls back to own work, so a forced
/// decision can never fabricate an early exit). `None` means both the own
/// claim and a scan of every peer found nothing at or below `bound`:
/// since the pool only shrinks, the worker may exit.
///
/// With `steal` off the round never probes a peer (and ignores `forced`,
/// which only makes sense with stealing): the worker claims its own
/// statically partitioned deque incrementally and exits once *it* holds
/// nothing at or below `bound` — sound, because no other worker can
/// process that deque either, and the bound itself justifies dropping
/// what remains (module docs).
#[allow(clippy::too_many_arguments)]
fn claim_round<T>(
    pool: &StealPool<T>,
    w: usize,
    bound: f64,
    all_own: bool,
    forced: bool,
    steal: bool,
    stolen: &mut u64,
    attempts: &mut u64,
) -> Option<Vec<T>> {
    if !steal {
        let own = pool.claim_own(w, bound, all_own);
        return if own.is_empty() { None } else { Some(own) };
    }
    if !forced {
        let own = pool.claim_own(w, bound, all_own);
        if !own.is_empty() {
            return Some(own);
        }
    }
    let (loot, probes) = pool.steal(w, bound);
    *attempts += probes;
    if !loot.is_empty() {
        *stolen += loot.len() as u64;
        return Some(loot);
    }
    if forced {
        let own = pool.claim_own(w, bound, all_own);
        if !own.is_empty() {
            return Some(own);
        }
    }
    None
}

/// The stealing path oversplits the frontier more than the static one
/// (`8×` threads): dynamic balancing thrives on fine granularity, and a
/// claim moves a whole prefix at once so per-seed overhead stays small.
/// One thread keeps the single root seed so the lone worker replays the
/// sequential join exactly.
fn frontier_target(threads: usize) -> usize {
    if threads == 1 {
        1
    } else {
        threads * 8
    }
}

/// One stage-one worker: an [`ExpansionDriver`] fed by claim rounds. The
/// claim bound is the driver's own stage-one predicate — the clamped
/// `qDmax` for exact policies, the ratcheted `eDmax` for aggressive ones
/// (seeds beyond it could not be emitted in stage one anyway; leaving
/// them unclaimed routes them straight to stage two).
///
/// `resumed` marks a run seeded from a snapshot frontier: claims then
/// enter through [`ExpansionDriver::seed_resumed`] — uncounted (each
/// pair was counted when first enqueued, before the suspension) and
/// without distance-queue insertion (a resumed result-pair's distance
/// already lives in the snapshot's `dists` evidence; inserting it again
/// would double-count that pair once the pools merge). A fired `pause`
/// suspends the driver, and [`ExpansionDriver::into_pool`] then drains
/// its whole sub-bound frontier for the snapshot regardless of policy.
#[allow(clippy::too_many_arguments)]
fn stage_one_worker<const D: usize, P: PruningPolicy>(
    r: &RTree<D>,
    s: &RTree<D>,
    k: usize,
    cfg: &JoinConfig,
    est: Option<&Estimator<D>>,
    pool: &StealPool<Pair<D>>,
    w: usize,
    edmax0: f64,
    shared: &MinBound,
    schedule: Option<TestSchedule>,
    pause: Option<&PauseCtl>,
    resumed: bool,
) -> StageOnePool<D> {
    let mut drv = ExpansionDriver::new(r, s, cfg, k, est, P::AGGRESSIVE, edmax0, Some(shared));
    drv.set_pause(pause);
    let mut step = 0u64;
    loop {
        if drv.suspended() {
            break;
        }
        step += 1;
        if let Some(sch) = &schedule {
            if sch.stall(w, step) {
                sch.spin();
            }
        }
        let forced = schedule.is_some_and(|sch| sch.force_steal(w, step));
        let bound = drv.stage_one_claim_bound();
        let Some(claimed) = claim_round(
            pool,
            w,
            bound,
            false,
            forced,
            cfg.steal,
            &mut drv.stats.pairs_stolen,
            &mut drv.stats.steal_attempts,
        ) else {
            break;
        };
        if resumed {
            drv.seed_resumed(claimed);
        } else {
            drv.seed_counted(claimed);
        }
        drv.run_stage_one_stealing();
    }
    let drain = P::AGGRESSIVE || drv.suspended();
    drv.into_pool(drain)
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

impl<const D: usize> PartitionItem<D> for Work<D> {
    fn order_key(&self) -> f64 {
        work_key(self)
    }
    fn region(&self) -> Rect<D> {
        match self {
            Work::Fresh(p) | Work::Unclaimed(p) => p.region(),
            Work::Comp(e) => e.region(),
        }
    }
    fn cost(&self) -> u64 {
        match self {
            Work::Fresh(p) | Work::Unclaimed(p) => PartitionItem::cost(p),
            Work::Comp(e) => PartitionItem::cost(e),
        }
    }
}

/// One stage-two worker: exact cutoffs, distance queue pre-seeded
/// (uncounted) with the pooled stage-one distances. The *first* claim
/// takes the worker's entire own deque — mirroring the static path's
/// whole-partition seeding, which is what keeps one-thread runs
/// counter-identical — later claims (after steals) use the exact
/// `qDmax`-clamped bound.
///
/// Returns through [`StageOnePool`]: a normally finished worker comes
/// back with empty `leftovers`/`comps` (exactly `finish`'s accounting),
/// a suspended one (fired `pause`) drains its sub-bound remainder for
/// the snapshot. Its `dists` are the seed slice plus its own new
/// insertions — the runner discards them (every worker was seeded the
/// same slice, so pooling them would double-count; the snapshot keeps
/// the seed slice itself, unchanged).
#[allow(clippy::too_many_arguments)]
fn stage_two_worker<const D: usize>(
    r: &RTree<D>,
    s: &RTree<D>,
    k: usize,
    cfg: &JoinConfig,
    est: Option<&Estimator<D>>,
    pool: &StealPool<Work<D>>,
    w: usize,
    dists: &[f64],
    shared: &MinBound,
    schedule: Option<TestSchedule>,
    pause: Option<&PauseCtl>,
) -> StageOnePool<D> {
    let mut drv = ExpansionDriver::new(r, s, cfg, k, est, false, f64::INFINITY, Some(shared));
    drv.set_pause(pause);
    drv.seed_replayed(Vec::new(), Vec::new(), dists);
    let mut first = true;
    let mut step = 0u64;
    loop {
        if drv.suspended() {
            break;
        }
        step += 1;
        if let Some(sch) = &schedule {
            if sch.stall(w, step) {
                sch.spin();
            }
        }
        let forced = !first && schedule.is_some_and(|sch| sch.force_steal(w, step));
        let bound = if first {
            f64::INFINITY
        } else {
            drv.stage_two_claim_bound()
        };
        let Some(claimed) = claim_round(
            pool,
            w,
            bound,
            first,
            forced,
            cfg.steal,
            &mut drv.stats.pairs_stolen,
            &mut drv.stats.steal_attempts,
        ) else {
            break;
        };
        first = false;
        let mut fresh = Vec::new();
        let mut unclaimed = Vec::new();
        let mut comps = Vec::new();
        for item in claimed {
            match item {
                Work::Fresh(p) => fresh.push(p),
                Work::Unclaimed(p) => unclaimed.push(p),
                Work::Comp(e) => comps.push(e),
            }
        }
        drv.seed_replayed(fresh, comps, &[]);
        drv.seed_counted(unclaimed);
        drv.run_stage_two_stealing();
    }
    let drain = drv.suspended();
    drv.into_pool(drain)
}

/// Why [`pump_idj`] handed control back to its worker's claim loop.
#[derive(Clone, Copy, PartialEq, Eq)]
enum PumpEnd {
    /// Nothing left in the cursor can beat the shared bound (or the
    /// cursor is exhausted); the claim loop decides what comes next.
    Drained,
    /// The cursor's stage is spent locally, but the pool still holds a
    /// claimable seed at or below its cutoff: claim before advancing.
    Deferred,
    /// The pause control fired; suspend the cursor.
    Paused,
}

/// Pumps one incremental cursor while its next emission can still beat
/// the shared bound, publishing each emission's distance.
///
/// A stage advance is a global decision. The cursor's queues hold only
/// its claimed share of the frontier — on resume, nothing but the parked
/// compensation entries, which sit just above `eDmax` — so an empty
/// stage locally says nothing about the stage globally. The pump
/// therefore stops with [`PumpEnd::Deferred`] instead of raising `eDmax`
/// while the pool (the worker's own deque, plus its peers' when
/// `steal`ing) still holds a seed at or below the clamped cutoff, and
/// advances only once none remains.
fn pump_idj<const D: usize>(
    cursor: &mut StageDriver<'_, D>,
    distq: &mut DistanceQueue,
    shared: &MinBound,
    results: &mut Vec<ResultPair>,
    tightenings: &mut u64,
    (pool, w, steal): (&StealPool<Pair<D>>, usize, bool),
) -> PumpEnd {
    let hold = |cutoff: f64| pool.has_claimable(w, cutoff, steal);
    loop {
        // The cursor's minimum queue key lower-bounds every future
        // emission: stop before doing the work once it passes the
        // bound.
        match cursor.peek_key() {
            Some(key) if key <= shared.get() => {}
            _ => return PumpEnd::Drained,
        }
        match cursor.next_step(hold) {
            Step::Pair(pair) => {
                if pair.dist > shared.get() {
                    // The stream is ascending; everything later is farther
                    // still (and a tighter bound may admit new claims,
                    // which the outer loop handles).
                    return PumpEnd::Drained;
                }
                distq.insert(pair.dist);
                let q = distq.qdmax();
                if q.is_finite() && shared.tighten(q) {
                    *tightenings += 1;
                }
                results.push(pair);
            }
            Step::Done => return PumpEnd::Drained,
            Step::Held => return PumpEnd::Deferred,
            Step::Paused => return PumpEnd::Paused,
        }
    }
}

/// One worker of the stealing incremental join: a [`StageDriver`] cursor
/// fed by claim rounds, pumped while its next emission can still beat the
/// shared bound. There is no `take` cap on the pump — after `take`
/// insertions the worker's own published `qDmax` caps it through the
/// shared bound, and a cap on locally-claimed work would be wrong anyway
/// once seeds move between workers.
///
/// The cursor advances its stage only when no claimable pool seed lies at
/// or below its clamped cutoff ([`pump_idj`]): a deferred pump claims
/// with that cutoff as the bound, so the claim takes the seeds the stage
/// still owes. A claim after a deferral can come back empty — a peer won
/// the race for the seed — and then the worker simply pumps again rather
/// than exiting, so it never exits holding work below the shared bound.
/// That pump advances the stage exactly once: the empty claim saw no
/// seed at or below the cutoff, the pool only shrinks, and the cutoff
/// only falls until the next advance, so the pump's first hold check
/// finds nothing to wait for. On one fresh thread the pool is a single
/// root seed, claimed before the first advance, so the worker replays
/// the sequential cursor exactly.
///
/// A resumed worker starts from the snapshot's cut: its stage-loop
/// scalars are `restore`d, it is dealt a share of the snapshot's parked
/// compensation entries (`seed_comps` — the pool only carries pairs),
/// and its distance queue is pre-seeded (uncounted) with the snapshot's
/// distance evidence so its published bound starts as tight as the
/// suspended run's. The pre-claim pump drains that seeded work even when
/// the pool has nothing left to claim — and, because the parked entries
/// sit just beyond `eDmax`, defers to the pool's frontier rather than
/// advancing the stage on an empty main queue. A fired `pause` suspends
/// the cursor instead of finishing it; the drained cut comes back as the
/// fourth return.
#[allow(clippy::too_many_arguments)]
fn idj_worker<const D: usize>(
    r: &RTree<D>,
    s: &RTree<D>,
    take: usize,
    cfg: &JoinConfig,
    opts: AmIdjOptions,
    pool: &StealPool<Pair<D>>,
    w: usize,
    shared: &MinBound,
    schedule: Option<TestSchedule>,
    pause: Option<&PauseCtl>,
    restore: Option<(u32, f64, u64, u64, f64)>,
    comps: Vec<CompEntry<D>>,
    seed_dists: &[f64],
) -> (Vec<ResultPair>, JoinStats, f64, Option<IdjSuspend<D>>) {
    let mut cursor = StageDriver::with_seeds(r, s, cfg, opts, Vec::new(), shared);
    cursor.set_pause(pause);
    if let Some((stage, edmax, k_target, emitted, last_dist)) = restore {
        cursor.restore_state(stage, edmax, k_target, emitted, last_dist);
    }
    cursor.seed_comps(comps);
    let mut distq = DistanceQueue::new(take);
    for &d in seed_dists {
        distq.seed(d);
    }
    let mut results = Vec::new();
    let mut tightenings = 0u64;
    let (mut stolen, mut attempts) = (0u64, 0u64);
    let mut step = 0u64;
    let claimable = (pool, w, cfg.steal);
    let mut end = pump_idj(
        &mut cursor,
        &mut distq,
        shared,
        &mut results,
        &mut tightenings,
        claimable,
    );
    while end != PumpEnd::Paused {
        if pause.is_some_and(|p| p.should_pause()) {
            end = PumpEnd::Paused;
            break;
        }
        step += 1;
        if let Some(sch) = &schedule {
            if sch.stall(w, step) {
                sch.spin();
            }
        }
        let forced = schedule.is_some_and(|sch| sch.force_steal(w, step));
        let bound = match end {
            PumpEnd::Deferred => cursor.clamped_edmax(),
            _ => shared.get(),
        };
        let claimed = claim_round(
            pool,
            w,
            bound,
            false,
            forced,
            cfg.steal,
            &mut stolen,
            &mut attempts,
        );
        match claimed {
            Some(claimed) => cursor.push_seeds(claimed),
            // Lost the race for the seed the deferral was waiting on: the
            // cursor still holds work under the bound, and the pump below
            // now finds nothing claimable and advances its stage.
            None if end == PumpEnd::Deferred => {}
            None => break,
        }
        end = pump_idj(
            &mut cursor,
            &mut distq,
            shared,
            &mut results,
            &mut tightenings,
            claimable,
        );
    }
    let (mut stats, queue_io, suspend) = if end == PumpEnd::Paused {
        let (sus, st, io) = cursor.suspend();
        (st, io, Some(sus))
    } else {
        let (st, io) = cursor.finish_worker();
        (st, io, None)
    };
    stats.bound_tightenings += tightenings;
    stats.distq_insertions += distq.insertions();
    stats.pairs_stolen += stolen;
    stats.steal_attempts += attempts;
    (results, stats, queue_io, suspend)
}

/// The stealing k-distance join: [`Parallel::run_kdj`] with the static
/// partitioning replaced by [`StealPool`] claim rounds. `threads` is
/// already resolved. A thin shell over [`run_kdj_ckpt`] with no pause
/// control and no snapshot — the uninterrupted join *is* the resumable
/// join with the checkpoint machinery idle.
///
/// [`Parallel::run_kdj`]: super::backend::Parallel
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_kdj<const D: usize, P: PruningPolicy>(
    r: &RTree<D>,
    s: &RTree<D>,
    k: usize,
    cfg: &JoinConfig,
    policy: &P,
    threads: usize,
    schedule: Option<TestSchedule>,
    ext_bound: Option<&MinBound>,
) -> JoinOutput {
    match run_kdj_ckpt::<D, P>(
        r, s, k, cfg, policy, threads, schedule, None, None, ext_bound,
    ) {
        Checkpointed::Done(out) => out,
        Checkpointed::Suspended(..) => unreachable!("no pause control was attached"),
    }
}

/// The checkpointable k-distance join. Without `resume` it starts from
/// the root frontier; with it, from the snapshot's cut (stage 1 resumes
/// re-partition the saved frontier, stage 2 resumes rebuild the
/// [`Work`] pool from the saved frontier and compensation entries).
/// Without `pause` it always returns [`Checkpointed::Done`]; with one,
/// a fired pause drains every worker and the shared pool into one
/// canonical [`EngineSnapshot`].
///
/// The snapshot's pruning is justified purely by `shared_bound` — a
/// published `qDmax`, the k-th smallest of k real distinct-pair
/// distances — so a cut taken at any thread count resumes at any other.
///
/// `ext_bound`, when set, replaces the run's private shared bound with a
/// caller-owned one (the partitioned plan's cross-pair bound); a
/// snapshot's saved `shared_bound` is folded into it on resume.
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
    ext_bound: Option<&MinBound>,
) -> Checkpointed<D> {
    let baseline = Baseline::capture(r, s);
    let mut stats = JoinStats {
        stages: 1,
        ..JoinStats::default()
    };
    let est = Estimator::from_trees(r, s);
    // Unpack the starting cut: the root frontier, or the snapshot's.
    let (mut results, aside_dists, snap_frontier, aside_comps, stage0, edmax0, bound0, resumed) =
        match resume {
            None => (
                Vec::new(),
                Vec::new(),
                None,
                Vec::new(),
                1u32,
                policy.initial_edmax(est.as_ref(), k),
                f64::INFINITY,
                false,
            ),
            Some(snap) => (
                snap.results,
                snap.dists,
                Some(snap.frontier),
                snap.comps,
                snap.stage,
                snap.edmax,
                snap.shared_bound,
                true,
            ),
        };
    let local = MinBound::new(bound0);
    let shared: &MinBound = match ext_bound {
        Some(ext) => {
            if bound0.is_finite() {
                ext.tighten(bound0);
            }
            ext
        }
        None => &local,
    };
    let mut queue_io = 0.0;
    if k > 0 {
        let est = est.as_ref();
        // Inputs to stage two, produced by stage one (or read straight
        // from a stage-2 snapshot).
        let mut work: Vec<Work<D>> = Vec::new();
        let mut dists: Vec<f64> = Vec::new();
        let mut edmax_now = edmax0;

        if stage0 <= 1 {
            let mut frontier = match snap_frontier {
                Some(f) => f,
                None => seed_frontier(r, s, cfg, frontier_target(threads), &mut stats),
            };
            frontier.sort_unstable_by(|a, b| a.dist.total_cmp(&b.dist));
            let seeds = partition(frontier, threads, cfg.partition);
            let pool = StealPool::new(seeds, |p: &Pair<D>| p.dist);

            // ---- Stage one: claim rounds over the frontier pool ----
            let t0 = std::time::Instant::now();
            let outcomes = {
                let pool = &pool;
                std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..threads)
                        .map(|w| {
                            scope.spawn(move || {
                                let span = WorkerBufferSpan::begin(w);
                                let mut out = stage_one_worker::<D, P>(
                                    r, s, k, cfg, est, pool, w, edmax0, shared, schedule, pause,
                                    resumed,
                                );
                                span.record(&mut out.stats);
                                (out, t0.elapsed().as_nanos() as u64)
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("worker panicked"))
                        .collect::<Vec<_>>()
                })
            };
            let finishes: Vec<u64> = outcomes.iter().map(|(_, ns)| *ns).collect();
            stats.barrier_idle_ns += barrier_idle(&finishes);
            let mut leftovers = Vec::new();
            let mut comps = Vec::new();
            let mut suspended = false;
            let mut edmax_min = f64::INFINITY;
            for (outcome, _) in outcomes {
                results.extend(outcome.results);
                leftovers.extend(outcome.leftovers);
                comps.extend(outcome.comps);
                dists.extend(outcome.dists);
                stats.absorb_worker(&outcome.stats);
                queue_io += outcome.queue_io;
                suspended |= outcome.suspended;
                edmax_min = edmax_min.min(outcome.edmax);
            }
            edmax_now = edmax_min;
            // Snapshot evidence rides along: parked entries saved by the
            // interrupted run still owe their compensation replay, and
            // the saved distances stand in for the distance-queue entries
            // resumed workers deliberately did not re-insert.
            comps.extend(aside_comps);
            dists.extend(aside_dists);
            // Pooled k-th smallest stage-one distance: the tightest proven
            // bound stage one produced (see the static path). Every entry
            // is the distance of a *distinct* emitted pair (workers never
            // re-insert resumed pairs), so the k-th is a true upper bound
            // on the global Dmax(k).
            dists.sort_unstable_by(f64::total_cmp);
            dists.truncate(k);

            if suspended {
                if dists.len() == k {
                    let kth = dists[k - 1];
                    if kth.is_finite() {
                        shared.tighten(kth);
                    }
                }
                let bound = shared.get();
                // Unlike a normal exit, nothing proves the pool remainder
                // prunable (workers paused, they did not reject it) — the
                // snapshot keeps everything at or below the proven bound.
                let mut frontier = leftovers;
                frontier.extend(pool.into_remaining());
                frontier.retain(|p| p.dist <= bound);
                frontier.sort_unstable_by(|a, b| a.dist.total_cmp(&b.dist));
                comps.retain(|e| e.key <= bound);
                comps.sort_by(|a, b| a.key.total_cmp(&b.key));
                sort_canonical(&mut results);
                baseline.finish(r, s, &mut stats, queue_io);
                let snap = Box::new(EngineSnapshot {
                    kind: SnapshotKind::Kdj {
                        k: k as u64,
                        aggressive: P::AGGRESSIVE,
                    },
                    stage: 1,
                    edmax: edmax_now,
                    shared_bound: bound,
                    k_target: 0,
                    emitted: 0,
                    last_dist: 0.0,
                    results,
                    dists,
                    frontier,
                    comps,
                });
                return Checkpointed::Suspended(snap, stats);
            }

            if P::AGGRESSIVE {
                if dists.len() == k {
                    let kth = dists[k - 1];
                    if kth.is_finite() && shared.tighten(kth) {
                        stats.bound_tightenings += 1;
                    }
                }
                let bound = shared.get();
                leftovers.retain(|p| p.dist <= bound);
                comps.retain(|e| e.key <= bound);
                // Seeds no stage-one worker claimed (all beyond every
                // ratcheted eDmax) still belong to stage two — they were
                // rejected against an estimate, not a proven bound.
                let mut unclaimed = pool.into_remaining();
                unclaimed.retain(|p| p.dist <= bound);

                work.reserve(leftovers.len() + unclaimed.len() + comps.len());
                work.extend(leftovers.into_iter().map(Work::Fresh));
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
            dists = aside_dists;
            let frontier = snap_frontier.unwrap_or_default();
            work.reserve(frontier.len() + aside_comps.len());
            work.extend(frontier.into_iter().map(Work::Fresh));
            work.extend(aside_comps.into_iter().map(Work::Comp));
        }

        // ---- Stage two: claim rounds over the work-item pool ----
        if !work.is_empty() {
            stats.stages = 2;
            // Stable: parked compensation entries share equal keys en
            // masse (all at `eDmax.next_up()`), and one-thread parity
            // with the static path needs their original order kept.
            work.sort_by(|a, b| work_key(a).total_cmp(&work_key(b)));
            let wpool = StealPool::new(partition(work, threads, cfg.partition), work_key);
            let dists = &dists[..];
            let t0 = std::time::Instant::now();
            let outputs = {
                let wpool = &wpool;
                std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..threads)
                        .map(|w| {
                            scope.spawn(move || {
                                let span = WorkerBufferSpan::begin(w);
                                let mut out = stage_two_worker(
                                    r, s, k, cfg, est, wpool, w, dists, shared, schedule, pause,
                                );
                                span.record(&mut out.stats);
                                (out, t0.elapsed().as_nanos() as u64)
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("worker panicked"))
                        .collect::<Vec<_>>()
                })
            };
            let finishes: Vec<u64> = outputs.iter().map(|(_, ns)| *ns).collect();
            stats.barrier_idle_ns += barrier_idle(&finishes);
            let mut leftovers = Vec::new();
            let mut comps = Vec::new();
            let mut suspended = false;
            for (outcome, _) in outputs {
                results.extend(outcome.results);
                leftovers.extend(outcome.leftovers);
                comps.extend(outcome.comps);
                stats.absorb_worker(&outcome.stats);
                queue_io += outcome.queue_io;
                suspended |= outcome.suspended;
                // outcome.dists is the shared seed slice plus the worker's
                // own insertions — pooling those would double-count the
                // seeds, so they are deliberately dropped; `dists` itself
                // is the snapshot's evidence.
            }
            if suspended {
                let bound = shared.get();
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
                frontier.retain(|p| p.dist <= bound);
                frontier.sort_unstable_by(|a, b| a.dist.total_cmp(&b.dist));
                comps.retain(|e| e.key <= bound);
                comps.sort_by(|a, b| a.key.total_cmp(&b.key));
                sort_canonical(&mut results);
                baseline.finish(r, s, &mut stats, queue_io);
                let snap = Box::new(EngineSnapshot {
                    kind: SnapshotKind::Kdj {
                        k: k as u64,
                        aggressive: P::AGGRESSIVE,
                    },
                    stage: 2,
                    edmax: edmax_now,
                    shared_bound: bound,
                    k_target: 0,
                    emitted: 0,
                    last_dist: 0.0,
                    results,
                    dists: dists.to_vec(),
                    frontier,
                    comps,
                });
                return Checkpointed::Suspended(snap, stats);
            }
        }
        sort_canonical(&mut results);
        results.truncate(k);
    }
    stats.results = results.len() as u64;
    baseline.finish(r, s, &mut stats, queue_io);
    Checkpointed::Done(JoinOutput { results, stats })
}

/// The stealing incremental join: [`Parallel::run_idj`] with claim rounds
/// in place of the static seed partitioning. A thin shell over
/// [`run_idj_ckpt`] with the checkpoint machinery idle.
///
/// [`Parallel::run_idj`]: super::backend::Parallel
pub(crate) fn run_idj<const D: usize>(
    r: &RTree<D>,
    s: &RTree<D>,
    take: usize,
    cfg: &JoinConfig,
    opts: &AmIdjOptions,
    threads: usize,
    schedule: Option<TestSchedule>,
) -> JoinOutput {
    match run_idj_ckpt(r, s, take, cfg, opts, threads, schedule, None, None) {
        Checkpointed::Done(out) => out,
        Checkpointed::Suspended(..) => unreachable!("no pause control was attached"),
    }
}

/// The checkpointable incremental join. On resume, every worker's cursor
/// restores the snapshot's stage-loop scalars, is dealt a share of the
/// saved compensation entries (the pair pool cannot carry them), and
/// pre-seeds its distance queue with the saved evidence — the `take`
/// smallest result distances, all distinct pairs, so each worker's
/// published bound is individually sound. On suspension the snapshot
/// merges the cursors' cuts canonically: `edmax` the minimum (a smaller
/// estimate only advances stages earlier — completeness is unaffected),
/// `stage`/`k_target`/`last_dist` the maximum, `emitted` the global
/// result count. All of these steer heuristics only.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_idj_ckpt<const D: usize>(
    r: &RTree<D>,
    s: &RTree<D>,
    take: usize,
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
    let (mut results, seed_dists, snap_frontier, snap_comps, restore, bound0) = match resume {
        None => (
            Vec::new(),
            Vec::new(),
            None,
            Vec::new(),
            None,
            f64::INFINITY,
        ),
        Some(snap) => (
            snap.results,
            snap.dists,
            Some(snap.frontier),
            snap.comps,
            Some((
                snap.stage,
                snap.edmax,
                snap.k_target,
                snap.emitted,
                snap.last_dist,
            )),
            snap.shared_bound,
        ),
    };
    let shared = MinBound::new(bound0);
    let mut queue_io = 0.0;
    if take > 0 {
        let mut frontier = match snap_frontier {
            Some(f) => f,
            None => seed_frontier(r, s, cfg, frontier_target(threads), &mut stats),
        };
        frontier.sort_unstable_by(|a, b| a.dist.total_cmp(&b.dist));
        let seeds = partition(frontier, threads, cfg.partition);
        let pool = StealPool::new(seeds, |p: &Pair<D>| p.dist);
        let comp_shares = partition(snap_comps, threads, cfg.partition);
        let seed_dists = &seed_dists[..];
        let shared = &shared;
        let t0 = std::time::Instant::now();
        let outputs = {
            let pool = &pool;
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .zip(comp_shares)
                    .map(|(w, comps_w)| {
                        let opts = opts.clone();
                        scope.spawn(move || {
                            let span = WorkerBufferSpan::begin(w);
                            let mut out = idj_worker(
                                r, s, take, cfg, opts, pool, w, shared, schedule, pause, restore,
                                comps_w, seed_dists,
                            );
                            span.record(&mut out.1);
                            (out, t0.elapsed().as_nanos() as u64)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("worker panicked"))
                    .collect::<Vec<_>>()
            })
        };
        let finishes: Vec<u64> = outputs.iter().map(|(_, ns)| *ns).collect();
        stats.barrier_idle_ns += barrier_idle(&finishes);
        let mut sus_frontier: Vec<Pair<D>> = Vec::new();
        let mut sus_comps: Vec<CompEntry<D>> = Vec::new();
        let mut suspended = false;
        let (mut edmax_min, mut stage_max, mut k_target_max, mut last_max) =
            (f64::INFINITY, 1u32, opts.initial_k, 0.0f64);
        for ((mut part, wstats, wio, suspend), _) in outputs {
            results.append(&mut part);
            stats.stages = stats.stages.max(wstats.stages);
            stats.absorb_worker(&wstats);
            queue_io += wio;
            if let Some(sus) = suspend {
                suspended = true;
                sus_frontier.extend(sus.frontier);
                sus_comps.extend(sus.comps);
                edmax_min = edmax_min.min(sus.edmax);
                stage_max = stage_max.max(sus.stage);
                k_target_max = k_target_max.max(sus.k_target);
                last_max = last_max.max(sus.last_dist);
            }
        }
        if suspended {
            let bound = shared.get();
            sus_frontier.extend(pool.into_remaining());
            sus_frontier.retain(|p| p.dist <= bound);
            sus_frontier.sort_unstable_by(|a, b| a.dist.total_cmp(&b.dist));
            sus_comps.retain(|e| e.key <= bound);
            sus_comps.sort_by(|a, b| a.key.total_cmp(&b.key));
            sort_canonical(&mut results);
            // Results beyond the proven bound can never make the final
            // `take`; dropping them bounds the snapshot's size.
            results.retain(|p| p.dist <= bound);
            // The evidence re-seeded into every resumed worker: the `take`
            // smallest result distances. Each result is a distinct emitted
            // pair, so any worker's published bound over (seed ∪ its own
            // later emissions) stays sound.
            let dists: Vec<f64> = results.iter().map(|p| p.dist).take(take).collect();
            let emitted = results.len() as u64;
            baseline.finish(r, s, &mut stats, queue_io);
            let snap = Box::new(EngineSnapshot {
                kind: SnapshotKind::Idj { take: take as u64 },
                stage: stage_max,
                edmax: edmax_min,
                shared_bound: bound,
                k_target: k_target_max,
                emitted,
                last_dist: last_max,
                results,
                dists,
                frontier: sus_frontier,
                comps: sus_comps,
            });
            return Checkpointed::Suspended(snap, stats);
        }
        sort_canonical(&mut results);
        results.truncate(take);
    }
    stats.results = results.len() as u64;
    baseline.finish(r, s, &mut stats, queue_io);
    Checkpointed::Done(JoinOutput { results, stats })
}
