//! Serve-mode cursor sessions: incremental joins behind ids.
//!
//! A one-worker cursor holds its join *live* between pulls: a
//! `take`-bounded AM-IDJ driver (the engine's `LiveIdj`) with its
//! queues, its compensation state, every result it produced and the
//! client's delivery position. A pull pumps that driver on the calling thread
//! until the window it asks for is stable, sorts the stable slice
//! canonically and hands it out; it drains nothing and re-inserts
//! nothing, so a cursor pulled to its `take` in batches does the work of
//! one uninterrupted `take`-bounded join.
//!
//! A cursor is cut into an [`EngineSnapshot`] — the consistent cut the
//! checkpoint/resume machinery writes to disk — in three cases only: an
//! `idj_checkpoint`, the shutdown checkpoint, and memory pressure. The
//! cursor table charges every idle live cursor its resident queue bytes
//! and, past the server's memory budget, demotes the least recently
//! pulled one to its snapshot ([`CursorTable`]). A cut cursor goes back
//! to a live driver on its next pull. Cursors with several workers keep
//! the episode path: a pull whose window is not yet stable resumes the
//! snapshot once, and the engine (an incremental [`JoinRequest`] with a
//! `window`) runs until the window is stable and suspends once.
//!
//! # Stable-prefix rule
//!
//! Results are produced ascending by distance but not final: a pending
//! frontier pair or parked compensation entry may still produce a closer
//! pair. What makes a prefix deliverable is the engine's own lower-bound
//! discipline — every frontier pair's `dist` lower-bounds all its
//! descendants' distances, and every compensation entry's key
//! lower-bounds every pair its replay can recover (the CompQueue
//! invariant in `engine/sweep.rs`). Therefore every result *strictly*
//! below the minimum pending lower bound — the live driver's smallest
//! queue key, or a snapshot's first frontier pair and parked entry — is
//! immutable: no remaining work can emit a pair that sorts at or before
//! it. (`Strictly`, because an equal-distance pair with smaller ids
//! would sort earlier in canonical order.) `tests/serve_cursor.rs` pins
//! that pulled prefixes are bit-identical to the uninterrupted stream.

use std::collections::HashMap;
use std::sync::Mutex;

use amdj_rtree::RTree;

use crate::engine::{
    self, Checkpointed, EngineSnapshot, JoinKind, JoinRequest, LiveIdj, SnapshotKind, TreePrint,
};
use crate::stats::{Baseline, WorkerBufferSpan};
use crate::{AmIdjOptions, JoinConfig, JoinStats, ResultPair};

use super::codec::QuerySpec;
use super::ServeError;

/// A cursor's engine state between pulls.
#[derive(Debug)]
enum CursorState<'t, const D: usize> {
    /// Opened, no engine work yet.
    Fresh,
    /// A one-worker join held live.
    Live(Box<LiveIdj<'t, D>>),
    /// A cut join: a multi-worker cursor between episodes, or a
    /// one-worker cursor that was checkpointed, demoted or resumed from
    /// bytes.
    Cut(Box<EngineSnapshot<D>>),
    /// The join finished; the full result stream is known.
    Done(Vec<ResultPair>),
}

/// One open incremental-join cursor: target size, per-query engine
/// knobs, delivery position, engine state, and the stats accumulated
/// over its pulls (per-query buffer attribution).
#[derive(Debug)]
pub struct Cursor<'t, const D: usize> {
    take: usize,
    spec: QuerySpec,
    delivered: u64,
    state: CursorState<'t, D>,
    /// Tree and buffer traffic of every pull, plus the work of every
    /// driver or episode that ended or was cut. A live driver's own
    /// counters join in [`stats`](Cursor::stats).
    stats: JoinStats,
    /// Total admission queue wait across this cursor's pulls, ns.
    pub queue_wait_ns: u64,
}

/// How many of a suspended snapshot's results are final (stable): the
/// count of results strictly below every pending frontier pair's
/// distance and every parked compensation entry's key, capped at the
/// cursor's `take`. Both vectors are kept ascending by the suspension
/// path, so the minimum pending lower bound is their front elements'.
fn stable_len<const D: usize>(snap: &EngineSnapshot<D>, take: usize) -> usize {
    let mut pending_min = f64::INFINITY;
    if let Some(p) = snap.frontier.first() {
        pending_min = pending_min.min(p.dist);
    }
    if let Some(e) = snap.comps.first() {
        pending_min = pending_min.min(e.key);
    }
    let stable = snap.results.partition_point(|p| p.dist < pending_min);
    stable.min(take)
}

/// The structured refusal for a delivery position ahead of what the
/// result stream can replay. Unreachable through honest resumes (the
/// checks in [`Cursor::resume`] bound `delivered`), but an adversarial
/// snapshot whose claimed results later shrink under the proven bound
/// must surface here as an error — never as a slice panic, which would
/// tear down the whole `serve` thread scope.
fn position_error() -> ServeError {
    ServeError::Snapshot(crate::SnapshotError::Invalid(
        "cursor delivery position is ahead of the result stream",
    ))
}

impl<'t, const D: usize> Cursor<'t, D> {
    /// A fresh cursor for `take` pairs under the given knobs.
    pub fn open(take: usize, spec: QuerySpec) -> Self {
        Cursor {
            take,
            spec,
            delivered: 0,
            state: CursorState::Fresh,
            stats: JoinStats::default(),
            queue_wait_ns: 0,
        }
    }

    /// Re-creates a cursor from a checkpoint snapshot, resuming
    /// delivery after `delivered` already-received pairs. The
    /// snapshot's kind must be an incremental join (its embedded `take`
    /// becomes the cursor's); corruption surfaces as a clean error.
    pub fn resume(
        snap: EngineSnapshot<D>,
        delivered: u64,
        spec: QuerySpec,
    ) -> Result<Self, ServeError> {
        let SnapshotKind::Idj { take } = snap.kind() else {
            return Err(ServeError::Snapshot(crate::SnapshotError::Invalid(
                "k-distance-join snapshot passed to an incremental cursor",
            )));
        };
        // A suspended snapshot may retain more than `take` results
        // (everything under the proven bound rides along as resume
        // evidence), but a client can only ever have received pairs
        // from the stable prefix, which pull() caps at `take` — so a
        // `delivered` beyond either bound is a lie, and accepting it
        // would make pull() slice backwards.
        if delivered > take {
            return Err(ServeError::Snapshot(crate::SnapshotError::Invalid(
                "delivered position beyond the cursor's result budget",
            )));
        }
        if delivered > snap.results_len() as u64 {
            return Err(ServeError::Snapshot(crate::SnapshotError::Invalid(
                "delivered position beyond the snapshot's results",
            )));
        }
        Ok(Cursor {
            take: take as usize,
            spec,
            delivered,
            state: CursorState::Cut(Box::new(snap)),
            stats: JoinStats::default(),
            queue_wait_ns: 0,
        })
    }

    /// Total pairs delivered to the client so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// The cursor's total result budget.
    pub fn take(&self) -> usize {
        self.take
    }

    /// Whether the cursor holds its join live between pulls.
    pub fn is_live(&self) -> bool {
        matches!(self.state, CursorState::Live(_))
    }

    /// The work and buffer traffic this cursor caused so far, summed over
    /// its pulls, its live driver and every driver or episode it cut.
    pub fn stats(&self) -> JoinStats {
        let mut st = self.stats;
        if let CursorState::Live(live) = &self.state {
            let work = live.stats();
            st.absorb_worker(&work);
            st.stages = st.stages.max(work.stages);
        }
        st
    }

    /// Resident queue bytes of a live driver (zero in any other state):
    /// what the cursor table charges an idle cursor.
    pub fn queue_bytes(&self) -> u64 {
        match &self.state {
            CursorState::Live(live) => live.queue_bytes(),
            _ => 0,
        }
    }

    /// Runs `f` and charges its tree and buffer traffic on the calling
    /// thread to this cursor: the node requests and tree I/O through a
    /// [`Baseline`], the buffer traffic through a [`WorkerBufferSpan`],
    /// as for a lone join worker.
    fn attributed<R>(&mut self, r: &RTree<D>, s: &RTree<D>, f: impl FnOnce(&mut Self) -> R) -> R {
        let baseline = Baseline::capture(r, s);
        let span = WorkerBufferSpan::begin(0);
        let out = f(self);
        span.record(&mut self.stats, true);
        baseline.finish(r, s, &mut self.stats);
        out
    }

    /// Cuts a live join into the cursor's snapshot through the engine's
    /// suspension path, folding the driver's work into the totals.
    fn cut(&mut self, live: LiveIdj<'t, D>) {
        let (snap, work) = live.suspend();
        self.stats.absorb_episode(&work);
        self.state = CursorState::Cut(Box::new(snap));
    }

    /// Demotes a live cursor to its snapshot (memory pressure); a no-op
    /// in any other state. The next pull makes it live again.
    pub fn demote(&mut self) {
        if let CursorState::Live(live) = std::mem::replace(&mut self.state, CursorState::Fresh) {
            self.cut(*live);
        }
    }

    /// Pulls the next `n` pairs. Returns the slice and whether the
    /// cursor is exhausted.
    pub fn pull(
        &mut self,
        r: &'t RTree<D>,
        s: &'t RTree<D>,
        cfg: &JoinConfig,
        opts: &AmIdjOptions,
        n: usize,
    ) -> Result<(Vec<ResultPair>, bool), ServeError> {
        let want = (self.delivered as usize).saturating_add(n).min(self.take);
        if self.spec.threads > 1 {
            self.run_episode(r, s, cfg, opts, want)?;
        } else {
            self.attributed(r, s, |c| c.pump(r, s, cfg, opts, want));
        }
        let (results, end, exhausted) = match &self.state {
            CursorState::Fresh => unreachable!("a pull leaves Fresh"),
            CursorState::Done(results) => {
                let end = want.min(results.len());
                (&results[..], end, end >= results.len().min(self.take))
            }
            CursorState::Live(live) => {
                let stable = live.stable_prefix();
                (stable, want.min(stable.len()), false)
            }
            // Stable but suspended: more results may follow — unless the
            // delivery budget itself is spent. An honest snapshot is
            // stable up to `want` after one episode; a forged one only
            // ever yields its own stable prefix.
            CursorState::Cut(snap) => {
                let end = want.min(stable_len(snap, self.take));
                (&snap.results[..], end, end >= self.take)
            }
        };
        // `from > end` means the delivery position claims pairs the
        // stream cannot replay (an inconsistent resume): refuse rather
        // than rewind `delivered` and re-label old pairs as new.
        let from = self.delivered as usize;
        if from > end {
            return Err(position_error());
        }
        let slice = results[from..end].to_vec();
        self.delivered = end as u64;
        Ok((slice, exhausted))
    }

    /// The one-worker pull: makes the join live (fresh, or from its
    /// snapshot) and pumps it until the first `want` results are
    /// stable. A join that owes nothing more drops its driver.
    fn pump(
        &mut self,
        r: &'t RTree<D>,
        s: &'t RTree<D>,
        cfg: &JoinConfig,
        opts: &AmIdjOptions,
        want: usize,
    ) {
        let mut live = match std::mem::replace(&mut self.state, CursorState::Fresh) {
            CursorState::Fresh => LiveIdj::start(r, s, cfg, opts, self.take),
            CursorState::Cut(snap) => LiveIdj::resume(r, s, cfg, opts, *snap),
            CursorState::Live(live) => *live,
            done @ CursorState::Done(_) => {
                self.state = done;
                return;
            }
        };
        live.pump(want);
        if live.finished() {
            // Nothing is left to pump: this only sorts the final results.
            let stable = live.pump(self.take);
            let work = live.stats();
            self.stats.absorb_episode(&work);
            let mut results = live.into_results();
            results.truncate(stable);
            self.state = CursorState::Done(results);
        } else {
            self.state = CursorState::Live(Box::new(live));
        }
    }

    /// The multi-worker pull: a window already inside the snapshot's
    /// stable prefix is served from it; otherwise one engine episode runs
    /// from the cursor's state until the first `want` results are stable
    /// and suspends there (or finishes the join).
    fn run_episode(
        &mut self,
        r: &RTree<D>,
        s: &RTree<D>,
        cfg: &JoinConfig,
        opts: &AmIdjOptions,
        want: usize,
    ) -> Result<(), ServeError> {
        let resume = match std::mem::replace(&mut self.state, CursorState::Fresh) {
            CursorState::Fresh => None,
            CursorState::Cut(snap) if stable_len(&snap, self.take) >= want => {
                self.state = CursorState::Cut(snap);
                return Ok(());
            }
            CursorState::Cut(snap) => Some(*snap),
            other => {
                self.state = other;
                return Ok(());
            }
        };
        let kind = JoinKind::Idj {
            take: self.take,
            opts: opts.clone(),
            window: Some(want),
        };
        let req = JoinRequest {
            resume,
            ..self.spec.request(kind)
        };
        match engine::run(r, s, req, cfg, None).map_err(ServeError::Snapshot)? {
            Checkpointed::Done(out) => {
                self.stats.absorb_episode(&out.stats);
                self.state = CursorState::Done(out.results);
            }
            Checkpointed::Suspended(snap, stats) => {
                self.stats.absorb_episode(&stats);
                self.state = CursorState::Cut(snap);
            }
        }
        Ok(())
    }

    /// Serializes the cursor to snapshot bytes plus the delivery
    /// position a resume must pass back. A live join is cut through the
    /// engine's suspension path and goes live again on its next pull; a
    /// fresh cursor is cut before any work (its root pair); a finished
    /// cursor synthesizes a resume-to-done snapshot (empty frontier, full
    /// results), so checkpointing always succeeds.
    pub fn checkpoint(
        &mut self,
        r: &'t RTree<D>,
        s: &'t RTree<D>,
        cfg: &JoinConfig,
        opts: &AmIdjOptions,
    ) -> (Vec<u8>, u64) {
        match std::mem::replace(&mut self.state, CursorState::Fresh) {
            CursorState::Fresh => {
                let live = self.attributed(r, s, |c| LiveIdj::start(r, s, cfg, opts, c.take));
                self.cut(live);
            }
            CursorState::Live(live) => self.cut(*live),
            other => self.state = other,
        }
        let bytes = match &self.state {
            CursorState::Fresh | CursorState::Live(_) => unreachable!("cut above"),
            CursorState::Cut(snap) => snap.encode(),
            CursorState::Done(results) => {
                let results: Vec<ResultPair> = results.iter().take(self.take).copied().collect();
                let dists: Vec<f64> = results.iter().map(|p| p.dist).collect();
                let snap = EngineSnapshot::<D> {
                    trees: TreePrint::pair(r, s),
                    kind: SnapshotKind::Idj {
                        take: self.take as u64,
                    },
                    stage: self.stats.stages.max(1),
                    edmax: f64::INFINITY,
                    shared_bound: f64::INFINITY,
                    k_target: self.take as u64,
                    emitted: results.len() as u64,
                    last_dist: results.last().map(|p| p.dist).unwrap_or(0.0),
                    results,
                    dists,
                    frontier: Vec::new(),
                    comps: Vec::new(),
                };
                snap.encode()
            }
        };
        (bytes, self.delivered)
    }
}

/// One table entry: the cursor (`None` while a request holds it), the
/// queue bytes charged for it while it idles live, and when it was last
/// checked in.
#[derive(Debug)]
struct Slot<'t, const D: usize> {
    cursor: Option<Cursor<'t, D>>,
    charge: u64,
    last_used: u64,
}

#[derive(Debug, Default)]
struct Slots<'t, const D: usize> {
    map: HashMap<String, Slot<'t, D>>,
    /// The sum of every slot's `charge`.
    charged: u64,
    /// Check-ins so far: the logical clock behind `last_used`.
    clock: u64,
}

impl<'t, const D: usize> Slots<'t, D> {
    /// Files an idle cursor under `id`, charging its live queue bytes,
    /// then demotes least-recently-used live cursors while the charges
    /// exceed `cap`.
    fn put(&mut self, id: String, cursor: Cursor<'t, D>, cap: u64) {
        self.clock += 1;
        let slot = Slot {
            charge: cursor.queue_bytes(),
            cursor: Some(cursor),
            last_used: self.clock,
        };
        self.charged += slot.charge;
        if let Some(old) = self.map.insert(id, slot) {
            self.charged -= old.charge;
        }
        while self.charged > cap {
            let Some(victim) = self
                .map
                .values_mut()
                .filter(|slot| slot.charge > 0)
                .min_by_key(|slot| slot.last_used)
            else {
                break;
            };
            if let Some(cursor) = &mut victim.cursor {
                cursor.demote();
            }
            self.charged -= std::mem::take(&mut victim.charge);
        }
    }

    /// Takes `id`'s cursor out of its slot, dropping its charge.
    fn take(&mut self, id: &str) -> Result<Cursor<'t, D>, ServeError> {
        let slot = self
            .map
            .get_mut(id)
            .ok_or_else(|| ServeError::UnknownCursor(id.to_string()))?;
        let cursor = slot
            .cursor
            .take()
            .ok_or_else(|| ServeError::CursorBusy(id.to_string()))?;
        self.charged -= std::mem::take(&mut slot.charge);
        Ok(cursor)
    }
}

/// The serve-mode session table: cursor id → cursor, with checkout
/// semantics so two concurrent requests against the same cursor fail
/// fast (`CursorBusy`) instead of racing or deadlocking.
///
/// The table is also the live cursors' memory ledger. Every idle live
/// cursor is charged its resident queue bytes (the main queue's
/// in-memory heap plus its live spill pages) against a cap; past the
/// cap, the least recently pulled idle live cursor is demoted to its
/// snapshot, in memory, until the charges fit again. A cursor in use is
/// not charged here: admission charges a pull while it runs.
#[derive(Debug)]
pub struct CursorTable<'t, const D: usize> {
    slots: Mutex<Slots<'t, D>>,
    cap: u64,
}

impl<'t, const D: usize> CursorTable<'t, D> {
    /// An empty table whose idle live cursors may hold `cap` queue bytes
    /// together.
    pub fn new(cap: u64) -> Self {
        CursorTable {
            slots: Mutex::new(Slots {
                map: HashMap::new(),
                charged: 0,
                clock: 0,
            }),
            cap,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Slots<'t, D>> {
        self.slots.lock().expect("cursor table poisoned")
    }

    /// Registers a new cursor under `id`.
    pub fn insert(&self, id: &str, cursor: Cursor<'t, D>) -> Result<(), ServeError> {
        let mut slots = self.lock();
        if slots.map.contains_key(id) {
            return Err(ServeError::CursorExists(id.to_string()));
        }
        slots.put(id.to_string(), cursor, self.cap);
        Ok(())
    }

    /// Checks a cursor out for exclusive use by one request.
    pub fn checkout(&self, id: &str) -> Result<Cursor<'t, D>, ServeError> {
        self.lock().take(id)
    }

    /// Returns a checked-out cursor to the table, charging it if it
    /// stays live (which may demote the least recently pulled cursor,
    /// this one included).
    pub fn checkin(&self, id: &str, cursor: Cursor<'t, D>) {
        let mut slots = self.lock();
        if slots.map.contains_key(id) {
            slots.put(id.to_string(), cursor, self.cap);
        }
    }

    /// Removes a cursor (it must not be checked out).
    pub fn remove(&self, id: &str) -> Result<Cursor<'t, D>, ServeError> {
        let mut slots = self.lock();
        let cursor = slots.take(id)?;
        slots.map.remove(id);
        Ok(cursor)
    }

    /// Puts a drained cursor back, even under an id that was removed in
    /// between — the undo path of a failed shutdown checkpoint, which
    /// must leave every cursor exactly as open as it found it.
    pub fn restore(&self, id: String, cursor: Cursor<'t, D>) {
        self.lock().put(id, cursor, self.cap);
    }

    /// Drains every idle cursor (shutdown: in-flight requests have
    /// already finished, so after the drain the table is empty).
    pub fn drain(&self) -> Vec<(String, Cursor<'t, D>)> {
        let mut slots = self.lock();
        slots.charged = 0;
        slots
            .map
            .drain()
            .filter_map(|(id, slot)| slot.cursor.map(|c| (id, c)))
            .collect()
    }

    /// Queue bytes the idle live cursors hold together; never above the
    /// cap once a check-in returns.
    pub fn charged(&self) -> u64 {
        self.lock().charged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amdj_rtree::RTreeParams;

    #[test]
    fn a_pull_pumps_the_live_join_past_the_stable_prefix_and_not_inside() {
        // A self-join: the stream opens with a distance-0 group, and a
        // window ending inside it is stable only once the whole group is,
        // which leaves a stable surplus to pull from.
        let (streets, _) = amdj_datagen::tiger::arizona_workload(0.0003, 5);
        let r = RTree::bulk_load(RTreeParams::for_tests(), streets.clone());
        let s = RTree::bulk_load(RTreeParams::for_tests(), streets.clone());
        let (cfg, opts) = (JoinConfig::default(), AmIdjOptions::default());
        let take = 400;
        // Under ties the cursor delivers the canonical `(dist, r, s)` order.
        let want = crate::bruteforce::k_closest_pairs(&streets, &streets, take);
        let work = |st: JoinStats| {
            [
                st.real_dist,
                st.axis_dist,
                st.mainq_insertions,
                st.distq_insertions,
                st.compq_insertions,
                st.stage1_expansions + st.stage2_expansions,
            ]
        };

        let mut cursor = Cursor::<2>::open(take, QuerySpec::default());
        let mut got = Vec::new();
        let (slice, done) = cursor.pull(&r, &s, &cfg, &opts, 10).expect("first pull");
        got.extend(slice);
        assert!(!done);
        let stable = match &cursor.state {
            CursorState::Live(live) => live.stable_prefix().len(),
            _ => panic!("a one-worker pull keeps its join live"),
        };
        assert!(stable > 10, "the distance-0 group is stable as a whole");

        // Inside the stable prefix: the driver does no work at all.
        let before = cursor.stats();
        let (slice, _) = cursor
            .pull(&r, &s, &cfg, &opts, stable - 10)
            .expect("pull inside the stable prefix");
        got.extend(slice);
        assert_eq!(
            work(cursor.stats()),
            work(before),
            "a stable window pumps nothing"
        );
        assert_eq!(cursor.stats().node_requests, before.node_requests);

        // Past it, however far: the same live join goes on — nothing is
        // cut, drained or re-inserted — until it owes nothing more.
        for n in [15, 100, take] {
            let before = cursor.delivered();
            let (slice, _) = cursor.pull(&r, &s, &cfg, &opts, n).expect("pull");
            assert_eq!(slice.len() as u64, cursor.delivered() - before);
            got.extend(slice);
            assert!(
                matches!(cursor.state, CursorState::Live(_) | CursorState::Done(_)),
                "no pull cuts the join"
            );
        }
        assert_eq!(got.len(), take);
        assert!(
            matches!(cursor.state, CursorState::Done(_)),
            "a join that owes nothing more drops its driver"
        );
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                (g.r, g.s, g.dist.to_bits()),
                (w.r, w.s, w.dist.to_bits()),
                "rank {i}"
            );
        }
        // Pulled in five windows, the join did the work of one pump to
        // its `take`: stopping at a stable window costs nothing.
        let mut whole = LiveIdj::start(&r, &s, &cfg, &opts, take);
        whole.pump(take);
        assert_eq!(work(cursor.stats()), work(whole.stats()));
    }
}
