//! Checkpoint/resume on top of [`EngineSnapshot`]: cooperative pausing,
//! the episode outcome, and crash-consistent snapshot files.
//!
//! Every join runs on the work-stealing machinery of
//! [`steal`](super::steal) in *episodes*: each episode runs until either
//! the join finishes or the [`PauseCtl`] fires (for a multi-worker serve
//! pull, until the incremental request's `window` is stable), at which
//! point every worker drains its queues into a
//! [`StageOnePool`]-shaped suspension, the runner merges them with the
//! un-claimed remainder of the shared pool into one canonical frontier,
//! and the whole state becomes an
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

use crate::JoinOutput;

use super::snapshot::{EngineSnapshot, SnapshotError};

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

impl<const D: usize> Checkpointed<D> {
    /// The finished join, or `None` if the episode suspended.
    pub fn done(self) -> Option<JoinOutput> {
        match self {
            Checkpointed::Done(out) => Some(out),
            Checkpointed::Suspended(..) => None,
        }
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
