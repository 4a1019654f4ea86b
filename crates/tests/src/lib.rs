//! Shared helpers for the repository-root integration test suite (the
//! tests themselves live in `/tests`; see this package's `Cargo.toml`).

#![deny(unsafe_code)]

use amdj_core::{AmIdj, AmIdjOptions, JoinConfig, ResultPair};
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
