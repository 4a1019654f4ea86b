//! The engine matrix: every pruning policy × thread count must produce
//! the same pair set for the same query — bit for bit
//! once the only legitimate divergence (tie order at equal distance) is
//! removed by canonical `(dist, r, s)` ordering. One property test covers
//! what per-algorithm parity tests used to check pairwise: the policies
//! are exercised with adversarial `eDmax` values (zero, badly under- and
//! over-estimated) across thread counts, and every cell of the matrix is
//! compared against both brute force and the one-thread exact reference.
//! A second property runs the incremental join across thread counts
//! against the standalone cursor, and a third holds the matrix together
//! under a tight spill-queue memory budget.

use amdj_core::{bruteforce, AmIdjOptions, JoinConfig, ResultPair};
use amdj_geom::Rect;
use amdj_rtree::{RTree, RTreeParams};
use amdj_storage::CostModel;
use amdj_tests::{aggressive, cursor_take, exact, incremental, run_join};
use proptest::prelude::*;

fn arb_dataset(max_n: usize) -> impl Strategy<Value = Vec<(Rect<2>, u64)>> {
    prop::collection::vec(
        (0.0..1000.0f64, 0.0..1000.0f64, 0.0..5.0f64, 0.0..5.0f64),
        1..max_n,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (x, y, w, h))| (Rect::new([x, y], [x + w, y + h]), i as u64))
            .collect()
    })
}

fn trees(a: &[(Rect<2>, u64)], b: &[(Rect<2>, u64)]) -> (RTree<2>, RTree<2>) {
    (
        RTree::bulk_load(RTreeParams::for_tests(), a.to_vec()),
        RTree::bulk_load(RTreeParams::for_tests(), b.to_vec()),
    )
}

fn canonical(mut v: Vec<ResultPair>) -> Vec<ResultPair> {
    v.sort_by(|a, b| {
        a.dist
            .total_cmp(&b.dist)
            .then_with(|| a.r.cmp(&b.r))
            .then_with(|| a.s.cmp(&b.s))
    });
    v
}

fn assert_identical(
    label: &str,
    want: &[ResultPair],
    got: &[ResultPair],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(want.len(), got.len(), "{}: result count", label);
    for (i, (a, b)) in want.iter().zip(got.iter()).enumerate() {
        prop_assert_eq!(
            a.dist.to_bits(),
            b.dist.to_bits(),
            "{}: rank {} distance",
            label,
            i
        );
        // Ids may legitimately differ only when the boundary distance
        // ties; random continuous rectangles make that measure-zero, so
        // any mismatch here is a real engine bug.
        prop_assert_eq!((a.r, a.s), (b.r, b.s), "{}: rank {} ids", label, i);
    }
    Ok(())
}

/// Policy cells: `None` is the exact policy; `Some(e)` the aggressive
/// one with that `edmax_override` (`Some(None)` uses the Equation 3
/// estimator).
fn run_cell(
    r: &RTree<2>,
    s: &RTree<2>,
    k: usize,
    cfg: &JoinConfig,
    policy: Option<Option<f64>>,
    threads: usize,
) -> Vec<ResultPair> {
    let kind = match policy {
        None => exact(k),
        Some(e) => aggressive(k, e),
    };
    canonical(run_join(r, s, kind, threads, cfg).results)
}

fn policy_cells(scale: f64) -> Vec<(String, Option<Option<f64>>)> {
    let mut cells: Vec<(String, Option<Option<f64>>)> =
        vec![("exact".into(), None), ("agg[est]".into(), Some(None))];
    // Adversarial eDmax: zero and badly under-estimated force the full
    // compensation stage; over-estimated makes stage one near-exhaustive.
    for factor in [0.0, 0.1, 0.5, 0.9, 1.5, 10.0] {
        cells.push((format!("agg[{factor}×]"), Some(Some(scale * factor))));
    }
    cells
}

const THREADS: [usize; 4] = [1, 2, 3, 8];

proptest! {
    #![proptest_config(ProptestConfig {
        cases: amdj_tests::proptest_cases(12),
        ..ProptestConfig::default()
    })]

    /// Every (policy × thread count) cell equals brute force and the
    /// one-thread exact reference.
    #[test]
    fn kdj_matrix_bit_identical(
        a in arb_dataset(80),
        b in arb_dataset(80),
        k in 1usize..110,
    ) {
        let want = bruteforce::k_closest_pairs(&a, &b, k);
        let (r, s) = trees(&a, &b);
        let cfg = JoinConfig::unbounded();
        let reference = run_cell(&r, &s, k, &cfg, None, 1);
        prop_assert_eq!(reference.len(), want.len());
        for (g, w) in reference.iter().zip(want.iter()) {
            prop_assert!((g.dist - w.dist).abs() < 1e-9, "{} != {}", g.dist, w.dist);
        }
        let scale = want.last().map_or(1.0, |p| p.dist);
        for (name, policy) in policy_cells(scale) {
            for threads in THREADS {
                let label = format!("{name} × {threads}");
                let got = run_cell(&r, &s, k, &cfg, policy, threads);
                assert_identical(&label, &reference, &got)?;
            }
        }
    }

    /// The incremental join across thread counts: the claim-round merge
    /// equals the standalone cursor for every thread count, including
    /// under an under-estimating stage schedule.
    #[test]
    fn idj_matrix_bit_identical(
        a in arb_dataset(70),
        b in arb_dataset(70),
        take in 1usize..100,
        initial_k in 1u64..64,
    ) {
        let want = bruteforce::k_closest_pairs(&a, &b, take);
        let (r, s) = trees(&a, &b);
        let cfg = JoinConfig::unbounded();
        let opts = AmIdjOptions { initial_k, growth: 2.0, ..AmIdjOptions::default() };
        let reference = canonical(cursor_take(&r, &s, take, &cfg, &opts));
        prop_assert_eq!(reference.len(), want.len());
        for (g, w) in reference.iter().zip(want.iter()) {
            prop_assert!((g.dist - w.dist).abs() < 1e-9, "{} != {}", g.dist, w.dist);
        }
        for threads in [1usize, 2, 4] {
            let got = canonical(run_join(&r, &s, incremental(take, &opts), threads, &cfg).results);
            let label = format!("idj × {threads}");
            assert_identical(&label, &reference, &got)?;
        }
    }

    /// A tight spill budget changes where queue entries live, never what
    /// comes out: representative matrix cells against the unbounded
    /// reference.
    #[test]
    fn matrix_invariant_under_memory_budget(
        a in arb_dataset(70),
        b in arb_dataset(70),
        k in 1usize..90,
        mem_kb in 1usize..32,
    ) {
        let (r, s) = trees(&a, &b);
        let tight = JoinConfig {
            queue_mem_bytes: mem_kb * 1024,
            queue_cost: CostModel { page_size: 1024, ..CostModel::paper_1999_disk() },
            ..JoinConfig::default()
        };
        let reference = run_cell(&r, &s, k, &JoinConfig::unbounded(), None, 1);
        let scale = bruteforce::dmax_for_k(&a, &b, k).unwrap_or(1.0);
        for (name, policy) in [
            ("exact", None),
            ("agg[est]", Some(None)),
            ("agg[0.3×]", Some(Some(scale * 0.3))),
        ] {
            for threads in [1, 4] {
                let label = format!("tight {name} × {threads}");
                let got = run_cell(&r, &s, k, &tight, policy, threads);
                assert_identical(&label, &reference, &got)?;
            }
        }
    }
}
