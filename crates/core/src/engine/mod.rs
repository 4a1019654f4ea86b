//! The unified join engine: one expansion driver, pluggable pruning
//! policies, and one claim-round runner at any worker count.
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
//! * **[`Parallel`]** — how many drivers run. Workers split the
//!   pair-space frontier, share one CAS-min [`MinBound`], steal from each
//!   other, and pool their compensation queues between stages. One
//!   worker is the paper's sequential join: it claims the root pair,
//!   stops at its `k`-th result, and does exactly the paper's work.
//!
//! [`kdj`] runs either policy at any worker count; [`idj`] runs the
//! incremental join (whose per-stage loop is [`StageDriver`]) the same
//! way. The public algorithm entry points (`b_kdj`, `am_kdj`, `par_*`)
//! are thin adapters over these two calls; [`crate::AmIdj`] is the
//! standalone streaming cursor.

mod backend;
mod bound;
mod checkpoint;
mod driver;
mod policy;
mod snapshot;
mod stage;
mod steal;
pub(crate) mod sweep;

pub use backend::Parallel;
pub use bound::MinBound;
pub use checkpoint::{
    idj_resumable, kdj_resumable, read_checkpoint, write_checkpoint, Checkpointed, PauseCtl,
};
pub(crate) use checkpoint::{idj_until_stable, write_atomic};
pub use policy::{Aggressive, Exact, PruningPolicy};
pub(crate) use snapshot::TreePrint;
pub use snapshot::{EngineSnapshot, SnapshotError, SnapshotKind};
pub use stage::StageDriver;
pub use steal::TestSchedule;

use crate::{AmIdjOptions, JoinConfig, JoinOutput};
use amdj_rtree::RTree;

/// Runs a k-distance join: the `k` nearest pairs in canonical
/// `(dist, r, s)` order. `(Exact, Parallel::new(1))` is [`crate::b_kdj`],
/// `(Aggressive, Parallel::new(1))` is [`crate::am_kdj`], and more
/// workers give their `par_*` counterparts.
pub fn kdj<const D: usize, P: PruningPolicy>(
    r: &RTree<D>,
    s: &RTree<D>,
    k: usize,
    cfg: &JoinConfig,
    policy: &P,
    par: &Parallel,
) -> JoinOutput {
    let threads = backend::resolve_threads(par.threads);
    match steal::run_kdj_ckpt::<D, P>(r, s, k, cfg, policy, threads, par.schedule, None, None) {
        Checkpointed::Done(out) => out,
        Checkpointed::Suspended(..) => unreachable!("no pause control was attached"),
    }
}

/// Runs the incremental distance join, materializing its first `take`
/// pairs; [`crate::par_am_idj`]. [`crate::AmIdj`] streams the same join
/// from one cursor.
pub fn idj<const D: usize>(
    r: &RTree<D>,
    s: &RTree<D>,
    take: usize,
    cfg: &JoinConfig,
    opts: &AmIdjOptions,
    par: &Parallel,
) -> JoinOutput {
    let threads = backend::resolve_threads(par.threads);
    match steal::run_idj_ckpt(
        r,
        s,
        take,
        None,
        cfg,
        opts,
        threads,
        par.schedule,
        None,
        None,
    ) {
        Checkpointed::Done(out) => out,
        Checkpointed::Suspended(..) => unreachable!("no pause control was attached"),
    }
}
