//! Pruning policies: how a k-distance join chooses (and trusts) its
//! stage-one cutoff.
//!
//! The paper's B-KDJ and AM-KDJ differ *only* along this axis: B-KDJ
//! prunes on the proven `qDmax` alone, AM-KDJ additionally prunes on an
//! estimated `eDmax` and keeps per-anchor skip bookkeeping so a second
//! (compensation) stage can recover anything a wrong estimate skipped.
//! The policy trait captures exactly that choice, leaving the expansion
//! loop, sweep, and queue machinery to the shared
//! [`ExpansionDriver`](super::driver::ExpansionDriver).

use crate::Estimator;

/// How the expansion driver prunes.
///
/// Implementations are zero-sized flavor markers plus the one piece of
/// per-run state a policy owns: the initial stage-one cutoff.
pub(crate) trait PruningPolicy {
    /// Whether stage one prunes on an estimated `eDmax` with per-anchor
    /// skip bookkeeping (compensation queue, stage-two replay). `false`
    /// means stage one is already exact and no second stage can exist.
    const AGGRESSIVE: bool;

    /// The stage-one cutoff: `+∞` for exact policies (prune on `qDmax`
    /// alone), the Equation (3) estimate — or an explicit override — for
    /// aggressive ones.
    fn initial_edmax<const D: usize>(&self, est: Option<&Estimator<D>>, k: usize) -> f64;
}

/// Exact pruning (B-KDJ, §3): the only cutoff is the proven `qDmax`, so
/// nothing is ever skipped and no compensation stage exists.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Exact;

impl PruningPolicy for Exact {
    const AGGRESSIVE: bool = false;

    fn initial_edmax<const D: usize>(&self, _est: Option<&Estimator<D>>, _k: usize) -> f64 {
        f64::INFINITY
    }
}

/// Aggressive pruning (AM-KDJ, §4.1): stage one prunes on an estimated
/// `eDmax`, parking per-anchor skip marks so the compensation stage can
/// replay exactly the skipped child pairs — no false dismissals.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Aggressive {
    /// Use this `eDmax` instead of the Equation (3) estimate — how
    /// Figure 14 sweeps `eDmax` from `0.1×Dmax` to `10×Dmax`.
    pub(crate) edmax_override: Option<f64>,
}

impl PruningPolicy for Aggressive {
    const AGGRESSIVE: bool = true;

    fn initial_edmax<const D: usize>(&self, est: Option<&Estimator<D>>, k: usize) -> f64 {
        self.edmax_override
            .or_else(|| est.map(|e| e.initial(k as u64)))
            .unwrap_or(f64::INFINITY)
    }
}
