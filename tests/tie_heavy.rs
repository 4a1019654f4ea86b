//! Tie-heavy correctness: data where many pairs share the k-th distance.
//!
//! The other property suites draw continuous random coordinates, so the
//! k-th distance of their joins is almost surely unique and every
//! backend returns the same pairs bit for bit. Snapped, duplicated or
//! overlapping objects break that: on TIGER-like streets × hydrography
//! the top distances are all 0, and which of the pairs tied at `Dmax`
//! make the cut depends on expansion order, so policies and thread
//! counts may legitimately pick different ones. What must hold in every
//! policy × thread-count cell, checked here against brute force:
//!
//! * the distance sequence is identical, bit for bit, in order;
//! * every pair strictly below the k-th distance is present;
//! * every returned pair is distinct, and its reported distance is its
//!   objects' `Rect::min_dist`.

use std::collections::{HashMap, HashSet};

use amdj_core::{bruteforce, JoinConfig, ResultPair};
use amdj_datagen::{tiger, Dataset};
use amdj_geom::Rect;
use amdj_rtree::RTree;
use amdj_tests::{aggressive, build_trees, exact, run_join};
use proptest::prelude::*;

/// Worker counts; one worker is the paper's sequential join.
const THREADS: [usize; 4] = [1, 2, 3, 8];

/// Policy cells: `None` is the exact policy; `Some(e)` the aggressive
/// one with that `edmax_override` (`Some(None)` uses the Equation 3
/// estimator). The overrides are zero, under- and over-estimates of
/// `scale`.
fn policy_cells(scale: f64) -> Vec<(String, Option<Option<f64>>)> {
    let mut cells: Vec<(String, Option<Option<f64>>)> =
        vec![("exact".into(), None), ("agg[est]".into(), Some(None))];
    for factor in [0.0, 0.5, 2.0, 10.0] {
        cells.push((format!("agg[{factor}×]"), Some(Some(scale * factor))));
    }
    cells
}

fn run_cell(
    r: &RTree<2>,
    s: &RTree<2>,
    k: usize,
    policy: Option<Option<f64>>,
    threads: usize,
) -> Vec<ResultPair> {
    let kind = match policy {
        None => exact(k),
        Some(e) => aggressive(k, e),
    };
    run_join(r, s, kind, threads, &JoinConfig::unbounded()).results
}

/// Brute-force ground truth for one join, computed once for all cells.
struct Oracle {
    /// The top k in canonical `(dist, r, s)` order.
    want: Vec<ResultPair>,
    /// Every pair strictly below the k-th distance.
    below: Vec<(u64, u64)>,
    /// How many pairs sit exactly at the k-th distance.
    at_kth: usize,
    r_mbr: HashMap<u64, Rect<2>>,
    s_mbr: HashMap<u64, Rect<2>>,
}

impl Oracle {
    fn new(a: &Dataset, b: &Dataset, k: usize) -> Self {
        let want = bruteforce::k_closest_pairs(a, b, k);
        // An empty top k has no k-th distance and nothing below it.
        let kth = want.last().map_or(f64::NEG_INFINITY, |p| p.dist);
        let within = bruteforce::pairs_within(a, b, kth);
        let below: Vec<(u64, u64)> = within
            .iter()
            .filter(|p| p.dist < kth)
            .map(|p| (p.r, p.s))
            .collect();
        Oracle {
            at_kth: within.len() - below.len(),
            want,
            below,
            r_mbr: a.iter().map(|&(m, id)| (id, m)).collect(),
            s_mbr: b.iter().map(|&(m, id)| (id, m)).collect(),
        }
    }

    /// The three tie-robust properties of one cell's results.
    fn check(&self, label: &str, got: &[ResultPair]) -> Result<(), TestCaseError> {
        prop_assert_eq!(got.len(), self.want.len(), "{}: result count", label);
        for (i, (g, w)) in got.iter().zip(&self.want).enumerate() {
            prop_assert_eq!(
                g.dist.to_bits(),
                w.dist.to_bits(),
                "{}: rank {} distance",
                label,
                i
            );
        }
        let mut seen = HashSet::new();
        for g in got {
            prop_assert!(seen.insert((g.r, g.s)), "{}: duplicate pair {:?}", label, g);
            let d = self.r_mbr[&g.r].min_dist(&self.s_mbr[&g.s]);
            prop_assert_eq!(
                d.to_bits(),
                g.dist.to_bits(),
                "{}: reported distance of {:?}",
                label,
                g
            );
        }
        for pair in &self.below {
            prop_assert!(
                seen.contains(pair),
                "{}: pair {:?} below the k-th distance is missing",
                label,
                pair
            );
        }
        Ok(())
    }

    /// Asserts more pairs sit at the k-th distance than the top k has
    /// room for, so which of them make the cut is ambiguous.
    fn assert_tie_straddles_the_cut(&self) {
        let kth = self.want.last().expect("a nonempty join").dist;
        let in_top = self.want.iter().filter(|p| p.dist == kth).count();
        assert!(
            self.at_kth > in_top,
            "{} pairs at Dmax {kth}, {in_top} of them in the top k: no tie straddles the cut",
            self.at_kth
        );
    }
}

/// Runs every policy × thread-count cell of a k-distance join over `a × b`.
fn check_all_cells(a: &Dataset, b: &Dataset, k: usize) -> Result<Oracle, TestCaseError> {
    let oracle = Oracle::new(a, b, k);
    let (r, s) = build_trees(a, b);
    let scale = oracle.want.last().map_or(1.0, |p| p.dist).max(1e-3);
    for (name, policy) in policy_cells(scale) {
        for threads in THREADS {
            let got = run_cell(&r, &s, k, policy, threads);
            oracle.check(&format!("k={k} {name} × {threads}"), &got)?;
        }
    }
    Ok(oracle)
}

/// Rectangles with corners on a coarse integer grid: duplicates,
/// touching and overlapping objects, and many equal distances.
fn arb_snapped(max_n: usize) -> impl Strategy<Value = Dataset> {
    prop::collection::vec((0u8..8, 0u8..8, 0u8..2, 0u8..2), 1..max_n).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (x, y, w, h))| {
                let (x, y) = (f64::from(x), f64::from(y));
                let (w, h) = (f64::from(w), f64::from(h));
                (Rect::new([x, y], [x + w, y + h]), i as u64)
            })
            .collect()
    })
}

fn points(coords: &[(f64, f64)]) -> Dataset {
    coords
        .iter()
        .enumerate()
        .map(|(i, &(x, y))| (Rect::new([x, y], [x, y]), i as u64))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: amdj_tests::proptest_cases(12),
        ..ProptestConfig::default()
    })]

    #[test]
    fn snapped_grid_ties_hold_in_every_cell(
        a in arb_snapped(60),
        b in arb_snapped(60),
        k in 1usize..150,
    ) {
        check_all_cells(&a, &b, k)?;
    }
}

/// Nine copies of one point against three points, one of them the same
/// point: nine pairs tie at distance 0 for seven slots. All-identical
/// points also give bulk loading maximally skewed tiles.
#[test]
fn identical_points_tie_at_every_rank() {
    let a = points(&[(1.0, 1.0); 9]);
    let b = points(&[(1.0, 1.0), (1.5, 1.0), (1.0, 1.5)]);
    let oracle = check_all_cells(&a, &b, 7).unwrap();
    oracle.assert_tie_straddles_the_cut();
}

/// TIGER-like streets × hydrography, where the closest pairs are
/// intersecting MBRs at distance 0: once at a `k` inside the
/// zero-distance group, once at a `k` past it.
#[test]
fn tiger_like_zero_distance_ties_hold_in_every_cell() {
    let (streets, hydro) = tiger::arizona_workload(0.006, 7);
    let zeros = bruteforce::pairs_within(&streets, &hydro, 0.0).len();
    assert!(zeros >= 20, "too few zero-distance pairs ({zeros})");
    let oracle = check_all_cells(&streets, &hydro, zeros / 2).unwrap();
    oracle.assert_tie_straddles_the_cut();
    check_all_cells(&streets, &hydro, zeros + 40).unwrap();
}
