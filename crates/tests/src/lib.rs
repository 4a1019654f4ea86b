//! Shared helpers for the repository-root integration test suite (the
//! tests themselves live in `/tests`; see this package's `Cargo.toml`).

#![deny(unsafe_code)]

use amdj_core::engine::{self, JoinKind, JoinRequest, Policy};
use amdj_core::{AmIdj, AmIdjOptions, JoinConfig, JoinOutput, ResultPair};
use amdj_datagen::Dataset;
use amdj_rtree::{RTree, RTreeParams};

/// Number of cases a property test should run: `AMDJ_PROPTEST_CASES`
/// when set — the CI stress tier (`STRESS=1 ./ci.sh`) raises it — else
/// the test's own `default`.
pub fn proptest_cases(default: u32) -> u32 {
    std::env::var("AMDJ_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Builds two small-page test trees from two data sets.
pub fn build_trees(a: &Dataset, b: &Dataset) -> (RTree<2>, RTree<2>) {
    (
        RTree::bulk_load(RTreeParams::for_tests(), a.clone()),
        RTree::bulk_load(RTreeParams::for_tests(), b.clone()),
    )
}

/// Builds two paper-configuration trees (4 KB pages, 512 KB buffer).
pub fn build_paper_trees(a: &Dataset, b: &Dataset) -> (RTree<2>, RTree<2>) {
    (
        RTree::bulk_load(RTreeParams::paper_defaults(), a.clone()),
        RTree::bulk_load(RTreeParams::paper_defaults(), b.clone()),
    )
}

/// Runs `req` to completion: no pause control, and any resume snapshot
/// must validate.
pub fn run_done<const D: usize>(
    r: &RTree<D>,
    s: &RTree<D>,
    req: JoinRequest<D>,
    cfg: &JoinConfig,
) -> JoinOutput {
    engine::run(r, s, req, cfg, None)
        .expect("snapshot must validate")
        .done()
        .expect("no pause control was attached")
}

/// One uninterrupted [`engine::run`] of `kind` on `threads` workers.
pub fn run_join<const D: usize>(
    r: &RTree<D>,
    s: &RTree<D>,
    kind: JoinKind,
    threads: usize,
    cfg: &JoinConfig,
) -> JoinOutput {
    run_done(r, s, JoinRequest::new(kind, threads), cfg)
}

/// A k-distance join of `k` under the exact policy.
pub fn exact(k: usize) -> JoinKind {
    JoinKind::Kdj {
        k,
        policy: Policy::Exact,
    }
}

/// A k-distance join of `k` under the aggressive policy, on the
/// Equation (3) estimate or `edmax_override`.
pub fn aggressive(k: usize, edmax_override: Option<f64>) -> JoinKind {
    JoinKind::Kdj {
        k,
        policy: Policy::Aggressive { edmax_override },
    }
}

/// The incremental join's first `take` pairs under `opts`.
pub fn incremental(take: usize, opts: &AmIdjOptions) -> JoinKind {
    JoinKind::Idj {
        take,
        opts: opts.clone(),
        window: None,
    }
}

/// The first `take` pairs of one standalone [`AmIdj`] cursor: the
/// incremental join's reference stream.
pub fn cursor_take(
    r: &RTree<2>,
    s: &RTree<2>,
    take: usize,
    cfg: &JoinConfig,
    opts: &AmIdjOptions,
) -> Vec<ResultPair> {
    let mut cursor = AmIdj::new(r, s, cfg, opts.clone());
    std::iter::from_fn(|| cursor.next()).take(take).collect()
}

/// Asserts two result streams carry the same distance sequence (object id
/// ties may legitimately differ between algorithms).
pub fn assert_same_distances(got: &[ResultPair], want: &[ResultPair], label: &str) {
    assert_eq!(got.len(), want.len(), "{label}: result count");
    for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
        assert!(
            (g.dist - w.dist).abs() < 1e-9,
            "{label}: rank {i} distance {} != {}",
            g.dist,
            w.dist
        );
    }
}
