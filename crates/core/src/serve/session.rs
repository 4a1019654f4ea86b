//! Serve-mode cursor sessions: suspended incremental joins behind ids.
//!
//! An open IDJ cursor is, between pulls, nothing but an
//! [`EngineSnapshot`] — the same consistent cut the checkpoint/resume
//! machinery writes to disk — plus the client's delivery position. A
//! pull whose window is not yet *stable* resumes the snapshot once: the
//! engine (an incremental [`JoinRequest`] with a `window`) runs until the
//! window is stable and suspends once, then the pull hands the next slice
//! out.
//!
//! # Stable-prefix rule
//!
//! A mid-join snapshot's `results` are canonically sorted but not final:
//! a pending frontier pair or parked compensation entry may still
//! produce a closer pair. What makes a prefix deliverable is the
//! engine's own lower-bound discipline — every frontier pair's `dist`
//! lower-bounds all its descendants' distances, and every compensation
//! entry's key lower-bounds every pair its replay can recover (the
//! CompQueue invariant in `engine/sweep.rs`). Therefore every result
//! *strictly* below the minimum pending lower bound is immutable: no
//! remaining work can emit a pair that sorts at or before it.
//! (`Strictly`, because an equal-distance pair with smaller ids would
//! sort earlier in canonical order.) `tests/serve_cursor.rs` pins that
//! pulled prefixes are bit-identical to the uninterrupted stream.

use amdj_rtree::RTree;

use crate::engine::{
    self, Checkpointed, EngineSnapshot, JoinKind, JoinRequest, PauseCtl, SnapshotKind, TreePrint,
};
use crate::{AmIdjOptions, JoinConfig, JoinStats, ResultPair};

use super::codec::QuerySpec;
use super::ServeError;

/// A cursor's engine state between pulls.
#[derive(Debug)]
enum CursorState<const D: usize> {
    /// Opened, no episode run yet.
    Fresh,
    /// Suspended mid-join.
    Live(Box<EngineSnapshot<D>>),
    /// The join finished; the full result stream is known.
    Done(Vec<ResultPair>),
}

/// One open incremental-join cursor: target size, per-query engine
/// knobs, delivery position, suspended engine state, and the stats
/// accumulated across its episodes (per-query buffer attribution).
#[derive(Debug)]
pub struct Cursor<const D: usize> {
    take: usize,
    spec: QuerySpec,
    delivered: u64,
    state: CursorState<D>,
    /// Counters accumulated across every episode this cursor ran —
    /// including episodes that ended in suspension, whose stats ride
    /// the [`Checkpointed::Suspended`] variant.
    pub stats: JoinStats,
    /// Total admission queue wait across this cursor's pulls, ns.
    pub queue_wait_ns: u64,
    /// Engine episodes this cursor ran (at most one per pull).
    episodes: u64,
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

impl<const D: usize> Cursor<D> {
    /// A fresh cursor for `take` pairs under the given knobs.
    pub fn open(take: usize, spec: QuerySpec) -> Self {
        Cursor {
            take,
            spec,
            delivered: 0,
            state: CursorState::Fresh,
            stats: JoinStats::default(),
            queue_wait_ns: 0,
            episodes: 0,
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
            state: CursorState::Live(Box::new(snap)),
            stats: JoinStats::default(),
            queue_wait_ns: 0,
            episodes: 0,
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

    /// Engine episodes this cursor has run: at most one per pull, plus
    /// the paused cut a checkpoint takes of a fresh cursor.
    pub fn episodes(&self) -> u64 {
        self.episodes
    }

    /// Runs one engine episode from the cursor's state and stores the
    /// outcome. With `want`, the episode runs until the first `want`
    /// results are stable and suspends there (or finishes the join);
    /// without, it pauses at once — the consistent cut of a fresh cursor.
    fn run_episode(
        &mut self,
        r: &RTree<D>,
        s: &RTree<D>,
        cfg: &JoinConfig,
        opts: &AmIdjOptions,
        want: Option<usize>,
    ) -> Result<(), ServeError> {
        let resume = match std::mem::replace(&mut self.state, CursorState::Fresh) {
            CursorState::Fresh => None,
            CursorState::Live(snap) => Some(*snap),
            done @ CursorState::Done(_) => {
                self.state = done;
                return Ok(());
            }
        };
        let kind = JoinKind::Idj {
            take: self.take,
            opts: opts.clone(),
            window: want,
        };
        // Without a window the episode pauses at once.
        let ctl = PauseCtl::every(0);
        ctl.request_stop();
        let req = JoinRequest {
            resume,
            ..self.spec.request(kind)
        };
        let outcome = engine::run(r, s, req, cfg, want.is_none().then_some(&ctl));
        self.episodes += 1;
        match outcome.map_err(ServeError::Snapshot)? {
            Checkpointed::Done(out) => {
                self.stats.absorb_episode(&out.stats);
                self.state = CursorState::Done(out.results);
            }
            Checkpointed::Suspended(snap, stats) => {
                self.stats.absorb_episode(&stats);
                self.state = CursorState::Live(snap);
            }
        }
        Ok(())
    }

    /// Pulls the next `n` pairs. A window already inside the stable
    /// prefix is served from the snapshot; otherwise one episode runs
    /// until it is stable (or the join finishes). Returns the slice and
    /// whether the cursor is exhausted.
    pub fn pull(
        &mut self,
        r: &RTree<D>,
        s: &RTree<D>,
        cfg: &JoinConfig,
        opts: &AmIdjOptions,
        n: usize,
    ) -> Result<(Vec<ResultPair>, bool), ServeError> {
        let want = (self.delivered as usize).saturating_add(n).min(self.take);
        let covered = match &self.state {
            CursorState::Fresh => false,
            CursorState::Live(snap) => stable_len(snap, self.take) >= want,
            CursorState::Done(_) => true,
        };
        if !covered {
            self.run_episode(r, s, cfg, opts, Some(want))?;
        }
        let from = self.delivered as usize;
        let (results, end, exhausted) = match &self.state {
            CursorState::Fresh => unreachable!("the episode above left Fresh"),
            CursorState::Done(results) => {
                let end = want.min(results.len());
                (results, end, end >= results.len().min(self.take))
            }
            // Stable but suspended: more results may follow — unless the
            // delivery budget itself is spent. An honest snapshot is
            // stable up to `want` after one episode; a forged one only
            // ever yields its own stable prefix.
            CursorState::Live(snap) => {
                let end = want.min(stable_len(snap, self.take));
                (&snap.results, end, end >= self.take)
            }
        };
        // `from > end` means the delivery position claims pairs the
        // stream cannot replay (an inconsistent resume): refuse rather
        // than rewind `delivered` and re-label old pairs as new.
        if from > end {
            return Err(position_error());
        }
        let slice = results[from..end].to_vec();
        self.delivered = end as u64;
        Ok((slice, exhausted))
    }

    /// Serializes the cursor to snapshot bytes plus the delivery
    /// position a resume must pass back. A fresh cursor runs one
    /// immediately-paused episode to obtain a consistent cut; a
    /// finished cursor synthesizes a resume-to-done snapshot (empty
    /// frontier, full results), so checkpointing always succeeds.
    pub fn checkpoint(
        &mut self,
        r: &RTree<D>,
        s: &RTree<D>,
        cfg: &JoinConfig,
        opts: &AmIdjOptions,
    ) -> Result<(Vec<u8>, u64), ServeError> {
        if matches!(self.state, CursorState::Fresh) {
            self.run_episode(r, s, cfg, opts, None)?;
        }
        let bytes = match &self.state {
            CursorState::Fresh => unreachable!("episode above left Fresh"),
            CursorState::Live(snap) => snap.encode(),
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
        Ok((bytes, self.delivered))
    }
}

/// The serve-mode session table: cursor id → cursor, with checkout
/// semantics so two concurrent requests against the same cursor fail
/// fast (`CursorBusy`) instead of racing or deadlocking.
#[derive(Debug, Default)]
pub struct CursorTable<const D: usize> {
    /// `None` marks a cursor checked out by an executing request.
    map: std::sync::Mutex<std::collections::HashMap<String, Option<Cursor<D>>>>,
}

impl<const D: usize> CursorTable<D> {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new cursor under `id`.
    pub fn insert(&self, id: &str, cursor: Cursor<D>) -> Result<(), ServeError> {
        let mut map = self.map.lock().expect("cursor table poisoned");
        if map.contains_key(id) {
            return Err(ServeError::CursorExists(id.to_string()));
        }
        map.insert(id.to_string(), Some(cursor));
        Ok(())
    }

    /// Checks a cursor out for exclusive use by one request.
    pub fn checkout(&self, id: &str) -> Result<Cursor<D>, ServeError> {
        let mut map = self.map.lock().expect("cursor table poisoned");
        match map.get_mut(id) {
            None => Err(ServeError::UnknownCursor(id.to_string())),
            Some(slot) => slot
                .take()
                .ok_or_else(|| ServeError::CursorBusy(id.to_string())),
        }
    }

    /// Returns a checked-out cursor to the table.
    pub fn checkin(&self, id: &str, cursor: Cursor<D>) {
        let mut map = self.map.lock().expect("cursor table poisoned");
        if let Some(slot) = map.get_mut(id) {
            *slot = Some(cursor);
        }
    }

    /// Removes a cursor (it must not be checked out).
    pub fn remove(&self, id: &str) -> Result<Cursor<D>, ServeError> {
        let mut map = self.map.lock().expect("cursor table poisoned");
        match map.get(id) {
            None => return Err(ServeError::UnknownCursor(id.to_string())),
            Some(None) => return Err(ServeError::CursorBusy(id.to_string())),
            Some(Some(_)) => {}
        }
        Ok(map
            .remove(id)
            .flatten()
            .expect("checked present and idle above"))
    }

    /// Puts a drained cursor back, even under an id that was removed in
    /// between — the undo path of a failed shutdown checkpoint, which
    /// must leave every cursor exactly as open as it found it.
    pub fn restore(&self, id: String, cursor: Cursor<D>) {
        let mut map = self.map.lock().expect("cursor table poisoned");
        map.insert(id, Some(cursor));
    }

    /// Drains every idle cursor (shutdown: in-flight requests have
    /// already finished, so after the drain the table is empty).
    pub fn drain(&self) -> Vec<(String, Cursor<D>)> {
        let mut map = self.map.lock().expect("cursor table poisoned");
        map.drain()
            .filter_map(|(id, slot)| slot.map(|c| (id, c)))
            .collect()
    }

    /// Open cursor ids (idle and busy).
    pub fn ids(&self) -> Vec<String> {
        let map = self.map.lock().expect("cursor table poisoned");
        map.keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amdj_rtree::RTreeParams;

    #[test]
    fn a_pull_runs_one_episode_past_the_stable_prefix_and_none_inside() {
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

        let mut cursor = Cursor::<2>::open(take, QuerySpec::default());
        let mut got = Vec::new();
        let (slice, done) = cursor.pull(&r, &s, &cfg, &opts, 10).expect("first pull");
        got.extend(slice);
        assert!(!done);
        assert_eq!(
            cursor.episodes(),
            1,
            "a fresh cursor's pull runs one episode"
        );
        let stable = match &cursor.state {
            CursorState::Live(snap) => stable_len(snap, take),
            _ => panic!("the first window suspends mid-join"),
        };
        assert!(stable > 10, "the distance-0 group is stable as a whole");

        // Inside the stable prefix: served from the snapshot.
        let (slice, _) = cursor
            .pull(&r, &s, &cfg, &opts, stable - 10)
            .expect("pull inside the stable prefix");
        got.extend(slice);
        assert_eq!(cursor.episodes(), 1, "a stable window runs no episode");

        // Past it, however far: exactly one more episode per pull.
        for (i, n) in [15, 100, take].into_iter().enumerate() {
            let before = cursor.delivered();
            let (slice, _) = cursor.pull(&r, &s, &cfg, &opts, n).expect("pull");
            assert_eq!(slice.len() as u64, cursor.delivered() - before);
            got.extend(slice);
            assert_eq!(cursor.episodes(), 2 + i as u64, "one episode per pull");
        }
        assert_eq!(got.len(), take);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                (g.r, g.s, g.dist.to_bits()),
                (w.r, w.s, w.dist.to_bits()),
                "rank {i}"
            );
        }
    }
}
