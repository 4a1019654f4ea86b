//! Checkpoint/resume on top of [`EngineSnapshot`]: cooperative pausing,
//! the resumable join entry points, and crash-consistent snapshot files.
//!
//! A resumable join runs on the work-stealing machinery of
//! [`steal`](super::steal), in *episodes*: each episode runs until either
//! the join finishes or the [`PauseCtl`] fires (for a serve pull,
//! `idj_until_stable`: until the pull's window is stable), at which
//! point every
//! worker drains its queues into a [`StageOnePool`]-shaped suspension,
//! the runner merges them with the un-claimed remainder of the shared
//! pool into one canonical frontier, and the whole state becomes an
//! [`EngineSnapshot`]. A snapshot taken by an N-thread run resumes at
//! any thread count: the frontier is re-partitioned from scratch, and
//! the exactness argument (every candidate pair descends from exactly
//! one frontier pair) is partition-independent.
//!
//! Checkpoint files are written atomically — encode to `<path>.tmp`,
//! `fsync`, then rename over `<path>` — so a crash mid-write leaves
//! either the previous checkpoint or the new one, never a torn file.
//!
//! [`StageOnePool`]: super::driver::StageOnePool

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use amdj_rtree::RTree;

use crate::{AmIdjOptions, JoinConfig, JoinOutput};

use super::backend::resolve_threads;
use super::policy::{Aggressive, Exact};
use super::snapshot::{EngineSnapshot, SnapshotError, SnapshotKind};
use super::steal::{self, TestSchedule};

/// Cooperative pause control shared by every worker of a resumable join.
///
/// Workers call [`note_expansion`](Self::note_expansion) once per node
/// expansion or compensation replay and consult
/// [`should_pause`](Self::should_pause) at their loop tops. The signal is
/// monotone — once it fires it stays fired — so every worker observes the
/// same pause and the drained state forms one consistent cut.
#[derive(Debug, Default)]
pub struct PauseCtl {
    budget: u64,
    ticks: AtomicU64,
    stop: AtomicBool,
}

impl PauseCtl {
    /// Fires after `budget` expansions (`0` = never fires on its own —
    /// only [`request_stop`](Self::request_stop) can pause the join).
    pub fn every(budget: u64) -> Self {
        PauseCtl {
            budget,
            ticks: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        }
    }

    /// Records one unit of expansion work (a node expansion or a
    /// compensation replay) toward the pause budget.
    pub fn note_expansion(&self) {
        self.ticks.fetch_add(1, Ordering::Relaxed);
    }

    /// Requests an immediate pause (e.g. from a signal handler's watcher
    /// thread). Monotone: cannot be un-requested.
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Whether workers should suspend at their next loop top. Monotone
    /// once `true` (the tick counter only grows, the stop flag only
    /// sets).
    pub fn should_pause(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
            || (self.budget > 0 && self.ticks.load(Ordering::Relaxed) >= self.budget)
    }

    /// Expansions recorded so far.
    pub fn expansions(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed)
    }
}

/// The outcome of one resumable episode: the finished join, or a
/// snapshot to resume from.
#[derive(Debug)]
// One `Checkpointed` moves per episode — JoinOutput's inline size is
// irrelevant next to an allocation per result row, and boxing it would
// push the indirection onto every Done caller.
#[allow(clippy::large_enum_variant)]
pub enum Checkpointed<const D: usize> {
    /// The join ran to completion.
    Done(JoinOutput),
    /// The pause fired; resume by passing the snapshot back in. The
    /// [`JoinStats`](crate::JoinStats) cover *this episode only* (work
    /// and buffer attribution since the run or resume began), so a
    /// multi-episode caller — the CLI's episode loop, a serve-mode
    /// cursor — can accumulate exact per-query totals across
    /// suspensions instead of losing the interrupted episode's counts.
    Suspended(Box<EngineSnapshot<D>>, crate::JoinStats),
}

/// Runs (or resumes) a checkpointable k-distance join on the
/// work-stealing backend. `aggressive` selects the pruning policy —
/// it must match the snapshot's when resuming. With `pause` set, the
/// join suspends into a snapshot once the control fires; with `resume`
/// set, the join continues from the snapshot's cut instead of the roots.
///
/// `threads == 0` runs one worker per available core, as
/// [`Parallel`](super::Parallel) does; `threads == 1` replays the
/// sequential join; a snapshot taken at any thread count resumes at any
/// other. The result stream of an
/// interrupted-and-resumed join is bit-identical to the uninterrupted
/// one (`tests/checkpoint_resume.rs` pins this across policies,
/// thread counts, and interrupt points).
#[allow(clippy::too_many_arguments)]
pub fn kdj_resumable<const D: usize>(
    r: &RTree<D>,
    s: &RTree<D>,
    k: usize,
    cfg: &JoinConfig,
    aggressive: bool,
    threads: usize,
    schedule: Option<TestSchedule>,
    resume: Option<EngineSnapshot<D>>,
    pause: Option<&PauseCtl>,
) -> Result<Checkpointed<D>, SnapshotError> {
    if let Some(snap) = &resume {
        snap.check_trees(r, s)?;
        match snap.kind {
            SnapshotKind::Kdj {
                k: sk,
                aggressive: sa,
            } => {
                if sk != k as u64 {
                    return Err(SnapshotError::Invalid("snapshot k differs from request"));
                }
                if sa != aggressive {
                    return Err(SnapshotError::Invalid(
                        "snapshot pruning policy differs from request",
                    ));
                }
            }
            SnapshotKind::Idj { .. } => {
                return Err(SnapshotError::Invalid(
                    "incremental-join snapshot passed to a k-distance join",
                ))
            }
        }
    }
    let threads = resolve_threads(threads);
    Ok(if aggressive {
        steal::run_kdj_ckpt::<D, Aggressive>(
            r,
            s,
            k,
            cfg,
            &Aggressive::default(),
            threads,
            schedule,
            resume,
            pause,
        )
    } else {
        steal::run_kdj_ckpt::<D, Exact>(r, s, k, cfg, &Exact, threads, schedule, resume, pause)
    })
}

/// Runs (or resumes) a checkpointable incremental join materializing its
/// first `take` pairs. Same episode/resume semantics as
/// [`kdj_resumable`]; the snapshot's `take` must match.
#[allow(clippy::too_many_arguments)]
pub fn idj_resumable<const D: usize>(
    r: &RTree<D>,
    s: &RTree<D>,
    take: usize,
    cfg: &JoinConfig,
    opts: &AmIdjOptions,
    threads: usize,
    schedule: Option<TestSchedule>,
    resume: Option<EngineSnapshot<D>>,
    pause: Option<&PauseCtl>,
) -> Result<Checkpointed<D>, SnapshotError> {
    check_idj_resume(&resume, take)?;
    if let Some(snap) = &resume {
        snap.check_trees(r, s)?;
    }
    Ok(steal::run_idj_ckpt(
        r,
        s,
        take,
        None,
        cfg,
        opts,
        resolve_threads(threads),
        schedule,
        resume,
        pause,
    ))
}

/// Runs (or resumes) the incremental join of [`idj_resumable`] only until
/// its first `want` results are final — strictly below every pending
/// frontier pair and parked compensation entry — and suspends there in
/// one step, or returns `Done` if the join finished on the way. A serve
/// cursor's pull is one such episode. Unlike the public entry points it
/// does not re-check `resume` against the trees: a cursor only holds
/// snapshots this engine produced or `idj_resume` already checked.
#[allow(clippy::too_many_arguments)]
pub(crate) fn idj_until_stable<const D: usize>(
    r: &RTree<D>,
    s: &RTree<D>,
    take: usize,
    want: usize,
    cfg: &JoinConfig,
    opts: &AmIdjOptions,
    threads: usize,
    resume: Option<EngineSnapshot<D>>,
) -> Result<Checkpointed<D>, SnapshotError> {
    check_idj_resume(&resume, take)?;
    Ok(steal::run_idj_ckpt(
        r,
        s,
        take,
        Some(want),
        cfg,
        opts,
        resolve_threads(threads),
        None,
        resume,
        None,
    ))
}

/// Refuses a snapshot that is not an incremental join of the same `take`.
fn check_idj_resume<const D: usize>(
    resume: &Option<EngineSnapshot<D>>,
    take: usize,
) -> Result<(), SnapshotError> {
    match resume.as_ref().map(|snap| snap.kind) {
        None => Ok(()),
        Some(SnapshotKind::Idj { take: st }) if st == take as u64 => Ok(()),
        Some(SnapshotKind::Idj { .. }) => {
            Err(SnapshotError::Invalid("snapshot take differs from request"))
        }
        Some(SnapshotKind::Kdj { .. }) => Err(SnapshotError::Invalid(
            "k-distance-join snapshot passed to an incremental join",
        )),
    }
}

/// Writes a snapshot to `path` atomically: encode to `<path>.tmp`, sync,
/// rename over the target. A crash leaves either the old file or the new
/// one, never a torn mix.
pub fn write_checkpoint<const D: usize>(
    path: impl AsRef<Path>,
    snapshot: &EngineSnapshot<D>,
) -> std::io::Result<()> {
    write_atomic(path.as_ref(), &snapshot.encode())
}

/// Writes `bytes` to `path` atomically: write to a `<path>.tmp` sibling,
/// sync, rename over the target. A crash mid-write can leave a stale tmp
/// file behind but never a truncated file under the real name.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    std::fs::rename(&tmp, path)
}

/// Loads and validates a snapshot file. Corruption or truncation comes
/// back as a clean error naming the offending byte offset, never a
/// panic.
pub fn read_checkpoint<const D: usize>(
    path: impl AsRef<Path>,
) -> std::io::Result<Result<EngineSnapshot<D>, SnapshotError>> {
    let bytes = std::fs::read(path)?;
    Ok(EngineSnapshot::decode(&bytes))
}
