//! The unified join engine: one expansion driver, pluggable pruning
//! policies and execution backends.
//!
//! Every distance-join variant in the paper is the same machine —
//! bidirectional node expansion from a main queue, the Eq. 2
//! sweeping-axis plane sweep, qDmax/eDmax cutoffs, stage and
//! compensation bookkeeping — configured along two independent axes:
//!
//! * **[`PruningPolicy`]** — what stage one is allowed to skip.
//!   [`Exact`] prunes on the proven `qDmax` alone (B-KDJ); [`Aggressive`]
//!   prunes on an estimated `eDmax` with per-anchor skip marks and a
//!   compensation stage (AM-KDJ), never falsely dismissing a pair.
//! * **[`ExecBackend`]** — how many drivers run. [`Sequential`] is one
//!   driver; [`Parallel`] partitions the pair-space frontier across
//!   workers sharing one CAS-min [`MinBound`] and pools the per-worker
//!   compensation queues between stages.
//!
//! [`kdj`] runs any (policy × backend) combination; [`idj`] runs the
//! incremental join (whose per-stage loop is [`StageDriver`]) on any
//! backend. The public algorithm entry points (`b_kdj`, `am_kdj`,
//! `AmIdj`, `par_*`) are thin adapters over these two calls.

mod backend;
mod bound;
mod checkpoint;
mod driver;
mod policy;
mod snapshot;
mod stage;
mod steal;
pub(crate) mod sweep;

pub use backend::{ExecBackend, Parallel, Sequential};
pub use bound::MinBound;
pub use checkpoint::{
    idj_resumable, kdj_resumable, read_checkpoint, write_checkpoint, Checkpointed, PauseCtl,
};
pub use policy::{Aggressive, Exact, PruningPolicy};
pub use snapshot::{EngineSnapshot, SnapshotError, SnapshotKind};
pub use stage::StageDriver;
pub use steal::TestSchedule;

use crate::{AmIdjOptions, JoinConfig, JoinOutput};
use amdj_rtree::RTree;

/// Runs a k-distance join: the `k` nearest pairs under any
/// (policy × backend) combination. `(Exact, Sequential)` is
/// [`crate::b_kdj`], `(Aggressive, Sequential)` is [`crate::am_kdj`],
/// and the [`Parallel`] backend gives their `par_*` counterparts.
pub fn kdj<const D: usize, P: PruningPolicy, B: ExecBackend>(
    r: &RTree<D>,
    s: &RTree<D>,
    k: usize,
    cfg: &JoinConfig,
    policy: &P,
    backend: &B,
) -> JoinOutput {
    backend.run_kdj(r, s, k, cfg, policy)
}

/// Runs the incremental distance join, materializing its first `take`
/// pairs. On [`Sequential`] this drives one [`StageDriver`] cursor
/// (see [`crate::AmIdj`] for the streaming API); on [`Parallel`] it is
/// [`crate::par_am_idj`].
pub fn idj<const D: usize, B: ExecBackend>(
    r: &RTree<D>,
    s: &RTree<D>,
    take: usize,
    cfg: &JoinConfig,
    opts: &AmIdjOptions,
    backend: &B,
) -> JoinOutput {
    backend.run_idj(r, s, take, cfg, opts)
}
