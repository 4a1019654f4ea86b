//! Schedule-perturbation proofs for the work-stealing backend.
//!
//! Thread timing cannot be dictated from a test, so these properties
//! drive the stealing path through [`TestSchedule`]: a seeded,
//! deterministic source of per-worker stalls and *forced* steal attempts
//! (a worker probes its peers before touching its own deque). Sweeping
//! the seed explores pathological interleavings — thieves racing a
//! victim's first claim, stalls straddling the shared-bound ratchet,
//! steal storms on a nearly-drained pool — while every run stays
//! reproducible from the failing case's inputs.
//!
//! The invariant is the engine's strongest: under *any* schedule, every
//! policy × thread-count cell must return results bit-identical to the
//! unperturbed one-thread reference. Distances are compared by bit pattern, ids
//! exactly (continuous random rectangles make distance ties
//! measure-zero).

use amdj_core::engine::{JoinKind, JoinRequest};
use amdj_core::{AmIdjOptions, JoinConfig, ResultPair, TestSchedule};
use amdj_geom::Rect;
use amdj_rtree::{RTree, RTreeParams};
use amdj_tests::{aggressive, cursor_take, exact, incremental, run_done, run_join};
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
        prop_assert_eq!((a.r, a.s), (b.r, b.s), "{}: rank {} ids", label, i);
    }
    Ok(())
}

/// An aggressive perturbation: stall at every other claim point and force
/// a steal attempt at every other one, so workers spend the run racing
/// each other over the pool.
fn perturbed(seed: u64) -> TestSchedule {
    TestSchedule {
        seed,
        stall_one_in: 2,
        stall_spins: 32,
        force_steal_one_in: 2,
    }
}

fn stealing(kind: JoinKind, threads: usize, seed: u64) -> JoinRequest<2> {
    JoinRequest {
        schedule: Some(perturbed(seed)),
        ..JoinRequest::new(kind, threads)
    }
}

/// Policy cells: `None` is the exact policy; `Some(e)` the aggressive
/// one with that `edmax_override` (`Some(None)` uses the Equation 3
/// estimator).
fn policy_cells(scale: f64) -> Vec<(String, Option<Option<f64>>)> {
    let mut cells: Vec<(String, Option<Option<f64>>)> =
        vec![("exact".into(), None), ("agg[est]".into(), Some(None))];
    // Zero and under-estimates force the full compensation stage (the
    // stage-two work pool); the over-estimate makes stage one carry
    // everything, so the stage-one pool is where the stealing happens.
    for factor in [0.0, 0.3, 10.0] {
        cells.push((format!("agg[{factor}×]"), Some(Some(scale * factor))));
    }
    cells
}

const THREADS: [usize; 3] = [2, 3, 8];

proptest! {
    #![proptest_config(ProptestConfig {
        cases: amdj_tests::proptest_cases(8),
        ..ProptestConfig::default()
    })]

    /// Every policy × thread count, under a seeded stall/forced-steal
    /// schedule, returns the one-thread answer bit for bit.
    #[test]
    fn kdj_stealing_bit_identical_under_perturbation(
        a in arb_dataset(80),
        b in arb_dataset(80),
        k in 1usize..110,
        seed in any::<u64>(),
    ) {
        let (r, s) = trees(&a, &b);
        let reference = canonical(run_join(&r, &s, exact(k), 1, &JoinConfig::unbounded()).results);
        let scale = reference.last().map_or(1.0, |p| p.dist);
        let cfg = JoinConfig::unbounded();
        for (name, policy) in policy_cells(scale) {
            for threads in THREADS {
                let kind = match policy {
                    None => exact(k),
                    Some(e) => aggressive(k, e),
                };
                let out = run_done(&r, &s, stealing(kind, threads, seed), &cfg);
                let label = format!("{name} × {threads}t seed={seed}");
                assert_identical(&label, &reference, &canonical(out.results))?;
            }
        }
    }

    /// The incremental join under the same perturbation: stolen seeds and
    /// stalled cursors never change the merged stream.
    #[test]
    fn idj_stealing_bit_identical_under_perturbation(
        a in arb_dataset(70),
        b in arb_dataset(70),
        take in 1usize..100,
        initial_k in 1u64..64,
        seed in any::<u64>(),
    ) {
        let (r, s) = trees(&a, &b);
        let opts = AmIdjOptions { initial_k, growth: 2.0, ..AmIdjOptions::default() };
        let cfg = JoinConfig::unbounded();
        let reference = canonical(cursor_take(&r, &s, take, &cfg, &opts));
        for threads in THREADS {
            let req = stealing(incremental(take, &opts), threads, seed);
            let out = run_done(&r, &s, req, &cfg);
            let label = format!("idj × {threads}t seed={seed}");
            assert_identical(&label, &reference, &canonical(out.results))?;
        }
    }
}

fn grid(n: usize, phase: f64) -> Vec<(Rect<2>, u64)> {
    (0..n * n)
        .map(|i| {
            let x = (i % n) as f64 * 1.618 + (i as f64 * 0.0137 + phase).sin();
            let y = (i / n) as f64 * 2.414 + (i as f64 * 0.0271 + phase).cos();
            (Rect::new([x, y], [x, y]), i as u64)
        })
        .collect()
}

/// Forcing a steal on every claim point actually steals: the pool is
/// fully populated before any worker starts, so the first forced scan of
/// every worker finds claimable peers. Guards against the schedule hook
/// silently becoming a no-op.
#[test]
fn forced_schedule_actually_steals() {
    let (r, s) = trees(&grid(20, 0.1), &grid(20, 0.73));
    let req = JoinRequest {
        schedule: Some(TestSchedule {
            seed: 7,
            stall_one_in: 0,
            stall_spins: 0,
            force_steal_one_in: 1,
        }),
        ..JoinRequest::new(exact(200), 8)
    };
    let out = run_done(&r, &s, req, &JoinConfig::unbounded());
    assert!(
        out.stats.pairs_stolen > 0,
        "no pairs stolen under a force-every-claim schedule"
    );
    assert!(out.stats.steal_attempts >= out.stats.pairs_stolen.min(1));
    let reference = run_join(&r, &s, exact(200), 1, &JoinConfig::unbounded());
    assert_eq!(canonical(out.results), canonical(reference.results));
}

/// The same seed replays the same decisions: two runs under one schedule
/// return byte-identical result streams (pre-canonicalization).
#[test]
fn schedule_is_deterministic_per_seed() {
    let (r, s) = trees(&grid(14, 0.4), &grid(14, 0.9));
    for seed in [0u64, 1, 0xdead_beef] {
        let run = || {
            let req = stealing(aggressive(120, None), 3, seed);
            run_done(&r, &s, req, &JoinConfig::unbounded())
        };
        assert_eq!(canonical(run().results), canonical(run().results));
    }
}
