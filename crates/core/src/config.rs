use amdj_storage::CostModel;

/// Configuration shared by all join algorithms.
#[derive(Clone, Debug)]
pub struct JoinConfig {
    /// In-memory byte budget of the main queue (the paper's default:
    /// 512 KB; §5.5 sweeps 64 KB – 1024 KB). The same budget is given to
    /// SJ-SORT's external sorter.
    pub queue_mem_bytes: usize,
    /// Cost model for queue/sorter spill disks.
    pub queue_cost: CostModel,
    /// Select the sweeping axis per pair by the sweeping index (§3.2).
    /// When `false`, axis 0 is always used (the "optimization off"
    /// configuration of Figure 11).
    pub optimize_axis: bool,
    /// Select the sweeping direction per pair (§3.3). When `false`, the
    /// forward direction is always used.
    pub optimize_direction: bool,
    /// Derive main-queue segment boundaries from Equation (3) (§4.4).
    /// When `false` the queue always splits at the median key (the
    /// ablation of the paper's boundary-selection contribution).
    pub eq3_queue_boundaries: bool,
}

impl Default for JoinConfig {
    fn default() -> Self {
        JoinConfig {
            queue_mem_bytes: 512 * 1024,
            queue_cost: CostModel::paper_1999_disk(),
            optimize_axis: true,
            optimize_direction: true,
            eq3_queue_boundaries: true,
        }
    }
}

impl JoinConfig {
    /// No memory limits, no modeled I/O — for tests and small examples.
    pub fn unbounded() -> Self {
        JoinConfig {
            queue_mem_bytes: usize::MAX,
            queue_cost: CostModel::free(),
            optimize_axis: true,
            optimize_direction: true,
            eq3_queue_boundaries: true,
        }
    }

    /// The paper's configuration with a specific queue memory budget.
    pub fn with_queue_memory(bytes: usize) -> Self {
        JoinConfig {
            queue_mem_bytes: bytes,
            ..JoinConfig::default()
        }
    }
}

/// How a new `eDmax` estimate is derived from partial results (§4.3.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Correction {
    /// Equation (4): `sqrt(Dmax(k0)² + (k − k0)·ρ)`.
    Arithmetic,
    /// Equation (5): `Dmax(k0) · sqrt(k / k0)`.
    Geometric,
    /// The minimum of both — errs on the aggressive side.
    MinOfBoth,
    /// The maximum of both — errs on the safe side (fewer compensation
    /// stages); the default.
    #[default]
    MaxOfBoth,
}

/// Options specific to [`crate::am_kdj`].
#[derive(Clone, Debug, Default)]
pub struct AmKdjOptions {
    /// Use this `eDmax` instead of the Equation (3) estimate — how
    /// Figure 14 sweeps `eDmax` from `0.1×Dmax` to `10×Dmax`.
    pub edmax_override: Option<f64>,
}

/// Where [`crate::AmIdj`] gets each stage's `eDmax` from.
#[derive(Clone, Debug)]
pub enum EdmaxPolicy {
    /// Stage 1 uses the Equation (3) estimate for `initial_k`; later
    /// stages apply the chosen correction to the results obtained so far.
    Estimated(Correction),
    /// Fixed per-stage values (e.g. real `Dmax` values from an oracle, as
    /// in Figure 15's comparison run). When exhausted, stages continue
    /// with geometric growth from the last value.
    Schedule(Vec<f64>),
}

/// Options specific to [`crate::AmIdj`].
#[derive(Clone, Debug)]
pub struct AmIdjOptions {
    /// Target cardinality `k₁` assumed for stage 1 (the paper's Figure 15
    /// uses the request batch size, 10,000).
    pub initial_k: u64,
    /// Growth factor for the assumed target between stages (`k₂ = k₁·g`).
    pub growth: f64,
    /// Stage `eDmax` source.
    pub edmax: EdmaxPolicy,
}

impl Default for AmIdjOptions {
    fn default() -> Self {
        AmIdjOptions {
            initial_k: 1024,
            growth: 4.0,
            edmax: EdmaxPolicy::Estimated(Correction::MaxOfBoth),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = JoinConfig::default();
        assert_eq!(c.queue_mem_bytes, 512 * 1024);
        assert!(c.optimize_axis && c.optimize_direction);
        assert_eq!(c.queue_cost, CostModel::paper_1999_disk());
    }

    #[test]
    fn unbounded_is_free() {
        let c = JoinConfig::unbounded();
        assert_eq!(c.queue_mem_bytes, usize::MAX);
        assert_eq!(c.queue_cost.page_time(false), 0.0);
    }

    #[test]
    fn with_queue_memory_overrides_only_memory() {
        let c = JoinConfig::with_queue_memory(64 * 1024);
        assert_eq!(c.queue_mem_bytes, 64 * 1024);
        assert!(c.optimize_axis);
    }
}
