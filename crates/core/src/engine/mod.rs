//! The unified join engine: one expansion core under two stage policies,
//! pluggable pruning policies, and one claim-round runner at any worker
//! count.
//!
//! Every distance-join variant in the paper is the same machine —
//! bidirectional node expansion from a main queue, the Eq. 2
//! sweeping-axis plane sweep, qDmax/eDmax cutoffs, stage and
//! compensation bookkeeping. `expand.rs` codes it once; the k-distance
//! driver (`driver.rs`) and the incremental [`StageDriver`] hold it and
//! differ only in their cutoff schedule. The k-distance joins are
//! configured along two independent axes:
//!
//! * **[`Policy`]** — what stage one is allowed to skip.
//!   [`Policy::Exact`] prunes on the proven `qDmax` alone (B-KDJ);
//!   [`Policy::Aggressive`] prunes on an estimated `eDmax` with
//!   per-anchor skip marks and a compensation stage (AM-KDJ), never
//!   falsely dismissing a pair.
//! * **[`JoinRequest::threads`]** — how many drivers run. Workers split
//!   the pair-space frontier, share one CAS-min [`MinBound`], steal from
//!   each other, and pool their compensation queues between stages. One
//!   worker is the paper's sequential join: it claims the root pair,
//!   stops at its `k`-th result, and does exactly the paper's work.
//!
//! [`run`] is the one entry point: it runs a [`JoinRequest`] — a
//! k-distance join under either policy, or the incremental join — at
//! any worker count, fresh or
//! resumed from an [`EngineSnapshot`], and pauses into a new snapshot
//! when a [`PauseCtl`] fires. `b_kdj`, `am_kdj` and the two `par_*`
//! functions are one-line calls of it; [`crate::AmIdj`] is the
//! standalone streaming cursor.

mod backend;
mod bound;
mod checkpoint;
mod driver;
mod expand;
mod live;
mod policy;
mod snapshot;
mod stage;
mod steal;
pub(crate) mod sweep;

pub use bound::MinBound;
pub(crate) use checkpoint::write_atomic;
pub use checkpoint::{read_checkpoint, write_checkpoint, Checkpointed, PauseCtl};
pub(crate) use live::LiveIdj;
use policy::{Aggressive, Exact};
pub(crate) use snapshot::TreePrint;
pub use snapshot::{EngineSnapshot, SnapshotError, SnapshotKind};
pub use stage::StageDriver;
pub use steal::TestSchedule;

use crate::{AmIdjOptions, JoinConfig, JoinOutput};
use amdj_rtree::RTree;

/// How a k-distance join prunes stage one (§3, §4.1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Policy {
    /// B-KDJ: the only cutoff is the proven `qDmax`, so nothing is ever
    /// skipped and no compensation stage exists.
    Exact,
    /// AM-KDJ: stage one prunes on an estimated `eDmax`, parking
    /// per-anchor skip marks so the compensation stage replays exactly
    /// the skipped child pairs — no false dismissals.
    Aggressive {
        /// Use this `eDmax` instead of the Equation (3) estimate — how
        /// Figure 14 sweeps `eDmax` from `0.1×Dmax` to `10×Dmax`.
        edmax_override: Option<f64>,
    },
}

/// AM-KDJ on the Equation (3) estimate, as [`crate::AmKdjOptions`]'
/// default, the CLI's `--algo am` and the wire's `aggressive` default.
impl Default for Policy {
    fn default() -> Self {
        Policy::Aggressive {
            edmax_override: None,
        }
    }
}

/// Which join a [`JoinRequest`] runs.
#[derive(Clone, Debug)]
pub enum JoinKind {
    /// The `k` nearest pairs in canonical `(dist, r, s)` order.
    Kdj {
        /// Number of pairs.
        k: usize,
        /// Stage-one pruning.
        policy: Policy,
    },
    /// The incremental join (AM-IDJ, §4.2), materializing its first
    /// `take` pairs.
    Idj {
        /// Number of pairs.
        take: usize,
        /// Stage targets and `eDmax` source.
        opts: AmIdjOptions,
        /// Run only until the first `window` results are final —
        /// strictly below every pending frontier pair and parked
        /// compensation entry — and suspend there, or finish if the
        /// join ends on the way. A serve cursor's pull is one such
        /// episode.
        window: Option<usize>,
    },
}

/// Everything [`run`] needs besides the trees, the queue
/// configuration and the pause control.
#[derive(Debug)]
pub struct JoinRequest<const D: usize> {
    /// The join and its parameters.
    pub kind: JoinKind,
    /// Worker count; `0` resolves to the machine's available
    /// parallelism, `1` is the paper's sequential join.
    pub threads: usize,
    /// Deterministic schedule perturbation for the claim/steal protocol —
    /// test-only machinery; leave `None` in production use.
    pub schedule: Option<TestSchedule>,
    /// Continue from this snapshot's cut instead of the roots. It must
    /// come from the same kind, `k` or `take`, and policy, on the same
    /// trees; [`run`] refuses anything else.
    pub resume: Option<EngineSnapshot<D>>,
}

impl<const D: usize> JoinRequest<D> {
    /// A fresh, unperturbed request for `kind` on `threads` workers.
    pub fn new(kind: JoinKind, threads: usize) -> Self {
        JoinRequest {
            kind,
            threads,
            schedule: None,
            resume: None,
        }
    }
}

/// Runs (or resumes) one join. With `pause`, the join suspends into a
/// snapshot once the control fires; an incremental request with a
/// `window` suspends once the window is final. Otherwise it returns
/// [`Checkpointed::Done`].
///
/// A snapshot taken at any thread count resumes at any other, and the
/// result stream of an interrupted-and-resumed join is bit-identical to
/// the uninterrupted one (`tests/checkpoint_resume.rs`). A resume
/// snapshot is checked here, before any work: its kind, `k` or `take`,
/// and policy must match the request's, and its tree fingerprints and
/// node references must fit `r` and `s`. A mismatch is
/// [`SnapshotError::Invalid`], never a panic.
pub fn run<const D: usize>(
    r: &RTree<D>,
    s: &RTree<D>,
    req: JoinRequest<D>,
    cfg: &JoinConfig,
    pause: Option<&PauseCtl>,
) -> Result<Checkpointed<D>, SnapshotError> {
    let JoinRequest {
        kind,
        threads,
        schedule,
        resume,
    } = req;
    if let Some(snap) = &resume {
        check_kind(snap.kind, &kind)?;
        snap.check_trees(r, s)?;
    }
    let threads = backend::resolve_threads(threads);
    Ok(match kind {
        JoinKind::Kdj {
            k,
            policy: Policy::Exact,
        } => steal::run_kdj_ckpt(r, s, k, cfg, &Exact, threads, schedule, resume, pause),
        JoinKind::Kdj {
            k,
            policy: Policy::Aggressive { edmax_override },
        } => {
            let policy = Aggressive { edmax_override };
            steal::run_kdj_ckpt(r, s, k, cfg, &policy, threads, schedule, resume, pause)
        }
        JoinKind::Idj { take, opts, window } => steal::run_idj_ckpt(
            r, s, take, window, cfg, &opts, threads, schedule, resume, pause,
        ),
    })
}

/// [`run`] for a fresh request without a pause control or `window`,
/// which always finishes.
pub(crate) fn run_to_end<const D: usize>(
    r: &RTree<D>,
    s: &RTree<D>,
    req: JoinRequest<D>,
    cfg: &JoinConfig,
) -> JoinOutput {
    run(r, s, req, cfg, None)
        .ok()
        .and_then(Checkpointed::done)
        .expect("a fresh join without a pause control or window finishes")
}

/// Refuses a snapshot that is not of the requested join: another kind,
/// another `k` or `take`, or another pruning policy.
fn check_kind(snap: SnapshotKind, want: &JoinKind) -> Result<(), SnapshotError> {
    let why = match (snap, want) {
        (SnapshotKind::Kdj { k, aggressive }, JoinKind::Kdj { k: want_k, policy }) => {
            if k != *want_k as u64 {
                "snapshot k differs from request"
            } else if aggressive != matches!(policy, Policy::Aggressive { .. }) {
                "snapshot pruning policy differs from request"
            } else {
                return Ok(());
            }
        }
        (SnapshotKind::Idj { take }, JoinKind::Idj { take: want, .. }) => {
            if take != *want as u64 {
                "snapshot take differs from request"
            } else {
                return Ok(());
            }
        }
        (SnapshotKind::Idj { .. }, JoinKind::Kdj { .. }) => {
            "incremental-join snapshot passed to a k-distance join"
        }
        (SnapshotKind::Kdj { .. }, JoinKind::Idj { .. }) => {
            "k-distance-join snapshot passed to an incremental join"
        }
    };
    Err(SnapshotError::Invalid(why))
}
