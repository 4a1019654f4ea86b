//! Checkpoint/resume proofs for the resumable join entry points.
//!
//! The engine promises that an interrupted-and-resumed join returns the
//! same result stream, bit for bit, as an uninterrupted one — across
//! pruning policies, thread counts, and wherever the interrupt lands
//! (mid-stage-one, mid-stage-two, mid-compensation-replay). These tests
//! drive [`kdj_resumable`]/[`idj_resumable`] through a [`PauseCtl`] with
//! small expansion budgets so suspensions hit every phase of the join,
//! roundtrip each snapshot through its wire encoding, and resume at a
//! *different* thread count each episode: an N-thread snapshot must
//! resume at M threads.
//!
//! Distances are compared by bit pattern, ids exactly (continuous random
//! rectangles make distance ties measure-zero).

use amdj_core::{
    idj_resumable, kdj_resumable, read_checkpoint, write_checkpoint, AmIdjOptions, Checkpointed,
    EngineSnapshot, JoinConfig, JoinOutput, PauseCtl, ResultPair, SnapshotError, TestSchedule,
};
use amdj_geom::Rect;
use amdj_rtree::{RTree, RTreeParams};
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

/// What an episode loop saw on the way to completion: how often the
/// pause fired, which stages the snapshots were cut in, and the
/// main-queue insertions summed over every episode.
struct EpisodeLog {
    suspensions: usize,
    stages: Vec<u32>,
    mainq_insertions: u64,
}

/// Runs a resumable kdj to completion as a sequence of episodes. Every
/// episode gets a fresh pause control with `budget` expansions; each
/// suspension's snapshot is roundtripped through its wire encoding and
/// resumed with the *next* thread count in `threads_cycle`.
#[allow(clippy::too_many_arguments)]
fn kdj_episodes(
    r: &RTree<2>,
    s: &RTree<2>,
    k: usize,
    cfg: &JoinConfig,
    aggressive: bool,
    budget: u64,
    threads_cycle: &[usize],
    schedule: Option<TestSchedule>,
) -> (JoinOutput, EpisodeLog) {
    let mut resume: Option<EngineSnapshot<2>> = None;
    let mut log = EpisodeLog {
        suspensions: 0,
        stages: Vec::new(),
        mainq_insertions: 0,
    };
    for episode in 0.. {
        assert!(episode < 100_000, "episode loop failed to converge");
        let ctl = PauseCtl::every(budget);
        let threads = threads_cycle[episode % threads_cycle.len()];
        let out = kdj_resumable(
            r,
            s,
            k,
            cfg,
            aggressive,
            threads,
            schedule,
            resume.take(),
            Some(&ctl),
        )
        .expect("episode snapshot must validate");
        match out {
            Checkpointed::Done(out) => {
                log.mainq_insertions += out.stats.mainq_insertions;
                return (out, log);
            }
            Checkpointed::Suspended(snap, stats) => {
                log.mainq_insertions += stats.mainq_insertions;
                log.suspensions += 1;
                log.stages.push(snap.stage());
                let decoded =
                    EngineSnapshot::decode(&snap.encode()).expect("snapshot must roundtrip");
                resume = Some(decoded);
            }
        }
    }
    unreachable!()
}

/// [`kdj_episodes`] for the incremental join.
#[allow(clippy::too_many_arguments)]
fn idj_episodes(
    r: &RTree<2>,
    s: &RTree<2>,
    take: usize,
    cfg: &JoinConfig,
    opts: &AmIdjOptions,
    budget: u64,
    threads_cycle: &[usize],
    schedule: Option<TestSchedule>,
) -> (JoinOutput, EpisodeLog) {
    let mut resume: Option<EngineSnapshot<2>> = None;
    let mut log = EpisodeLog {
        suspensions: 0,
        stages: Vec::new(),
        mainq_insertions: 0,
    };
    for episode in 0.. {
        assert!(episode < 100_000, "episode loop failed to converge");
        let ctl = PauseCtl::every(budget);
        let threads = threads_cycle[episode % threads_cycle.len()];
        let out = idj_resumable(
            r,
            s,
            take,
            cfg,
            opts,
            threads,
            schedule,
            resume.take(),
            Some(&ctl),
        )
        .expect("episode snapshot must validate");
        match out {
            Checkpointed::Done(out) => {
                log.mainq_insertions += out.stats.mainq_insertions;
                return (out, log);
            }
            Checkpointed::Suspended(snap, stats) => {
                log.mainq_insertions += stats.mainq_insertions;
                log.suspensions += 1;
                log.stages.push(snap.stage());
                let decoded =
                    EngineSnapshot::decode(&snap.encode()).expect("snapshot must roundtrip");
                resume = Some(decoded);
            }
        }
    }
    unreachable!()
}

fn uninterrupted_kdj(r: &RTree<2>, s: &RTree<2>, k: usize, aggressive: bool) -> JoinOutput {
    match kdj_resumable(
        r,
        s,
        k,
        &JoinConfig::unbounded(),
        aggressive,
        1,
        None,
        None,
        None,
    )
    .expect("no snapshot to validate")
    {
        Checkpointed::Done(out) => out,
        Checkpointed::Suspended(..) => unreachable!("no pause control was attached"),
    }
}

const CYCLES: [&[usize]; 2] = [&[1, 2, 4], &[4, 1, 3]];

proptest! {
    #![proptest_config(ProptestConfig {
        cases: amdj_tests::proptest_cases(6),
        ..ProptestConfig::default()
    })]

    /// An interrupted-and-resumed kdj is bit-identical to the
    /// uninterrupted join, for both policies, under pause budgets small
    /// enough to land in every stage, with every resume migrating to a
    /// different thread count.
    #[test]
    fn kdj_checkpoint_resume_bit_identical(
        a in arb_dataset(60),
        b in arb_dataset(60),
        k in 1usize..70,
        budget in 1u64..16,
        seed in any::<u64>(),
    ) {
        let (r, s) = trees(&a, &b);
        let schedule = Some(TestSchedule {
            seed,
            stall_one_in: 3,
            stall_spins: 16,
            force_steal_one_in: 3,
        });
        for aggressive in [false, true] {
            let reference = canonical(uninterrupted_kdj(&r, &s, k, aggressive).results);
            for cycle in CYCLES {
                // steal=false is the static-partition backend: it rides
                // the same drain-to-canonical-frontier suspend path, so
                // it must be just as resumable (forced steals in the
                // schedule are ignored when stealing is off).
                for steal in [true, false] {
                    let cfg = JoinConfig { steal, ..JoinConfig::unbounded() };
                    let (out, _log) =
                        kdj_episodes(&r, &s, k, &cfg, aggressive, budget, cycle, schedule);
                    let label = format!(
                        "kdj agg={aggressive} steal={steal} budget={budget} \
                         cycle={cycle:?} seed={seed}"
                    );
                    assert_identical(&label, &reference, &canonical(out.results))?;
                }
            }
        }
    }

    /// The incremental join under the same episode loop: pausing the
    /// stage cursor mid-flight and regrowing it elsewhere never changes
    /// the merged stream.
    #[test]
    fn idj_checkpoint_resume_bit_identical(
        a in arb_dataset(50),
        b in arb_dataset(50),
        take in 1usize..60,
        initial_k in 1u64..32,
        budget in 1u64..12,
        seed in any::<u64>(),
    ) {
        let (r, s) = trees(&a, &b);
        let opts = AmIdjOptions { initial_k, growth: 2.0, ..AmIdjOptions::default() };
        let cfg = JoinConfig::unbounded();
        let reference = {
            let out = idj_resumable(&r, &s, take, &cfg, &opts, 1, None, None, None)
                .expect("no snapshot to validate");
            match out {
                Checkpointed::Done(out) => canonical(out.results),
                Checkpointed::Suspended(..) => unreachable!("no pause control was attached"),
            }
        };
        let schedule = Some(TestSchedule {
            seed,
            stall_one_in: 3,
            stall_spins: 16,
            force_steal_one_in: 3,
        });
        for cycle in CYCLES {
            for steal in [true, false] {
                let cfg = JoinConfig { steal, ..JoinConfig::unbounded() };
                let (out, _log) =
                    idj_episodes(&r, &s, take, &cfg, &opts, budget, cycle, schedule);
                let label = format!("idj steal={steal} budget={budget} cycle={cycle:?} seed={seed}");
                assert_identical(&label, &reference, &canonical(out.results))?;
            }
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

/// A budget-1 pause fires at every expansion — stage-one expansions,
/// stage-two expansions, and compensation replays alike — so the
/// episode loop's snapshots must cover both stages of the aggressive
/// join: some cut mid-stage-one, some mid-stage-two (i.e.
/// mid-compensation-replay — stage two's work pool carries the parked
/// entries). A uniform R against a clustered S makes the Equation 3
/// estimate miss on part of the answer, so the aggressive join carries
/// real work into stage two. Guards against interrupt points silently
/// collapsing onto stage boundaries.
#[test]
fn interrupts_land_in_both_stages() {
    let universe = amdj_datagen::unit_universe();
    let a = amdj_datagen::uniform_points(3000, universe, 7);
    let b = amdj_datagen::clustered_points(3000, 16, 0.02, universe, 8);
    let params = RTreeParams::paper_defaults;
    let r = RTree::bulk_load(params(), a);
    let s = RTree::bulk_load(params(), b);
    let reference = canonical(uninterrupted_kdj(&r, &s, 200, true).results);
    let (out, log) = kdj_episodes(
        &r,
        &s,
        200,
        &JoinConfig::unbounded(),
        true,
        5,
        &[1, 2],
        None,
    );
    assert_eq!(canonical(out.results), reference);
    assert!(log.suspensions > 2, "budget-1 pause barely fired");
    assert!(
        log.stages.contains(&1),
        "no snapshot was cut in stage one: {:?}",
        log.stages
    );
    assert!(
        log.stages.contains(&2),
        "no snapshot was cut in stage two: {:?}",
        log.stages
    );
}

/// The static-partition backend (steal=false) rides the same
/// drain-to-canonical-frontier suspend path as the stealing one: an
/// interrupted static run resumes bit-identically across thread counts,
/// and no episode ever steals a pair.
#[test]
fn static_backend_checkpoint_resume_bit_identical() {
    let (r, s) = trees(&grid(12, 0.4), &grid(12, 1.3));
    let k = 120;
    let reference = canonical(uninterrupted_kdj(&r, &s, k, true).results);
    let cfg = JoinConfig {
        steal: false,
        ..JoinConfig::unbounded()
    };
    let (out, log) = kdj_episodes(&r, &s, k, &cfg, true, 7, &[2, 4, 1], None);
    assert_eq!(canonical(out.results), reference);
    assert!(log.suspensions > 0, "pause budget never fired");
    assert_eq!(out.stats.pairs_stolen, 0, "steal=false must never steal");
    assert_eq!(out.stats.steal_attempts, 0, "steal=false must never probe");
}

/// A snapshot survives the disk: write-then-rename out, validated read
/// back in, resumed to the uninterrupted answer. Mismatched resume
/// parameters are rejected up front instead of corrupting the join.
#[test]
fn disk_roundtrip_and_resume_validation() {
    let (r, s) = trees(&grid(12, 0.4), &grid(12, 0.9));
    let k = 80;
    let reference = canonical(uninterrupted_kdj(&r, &s, k, true).results);

    let ctl = PauseCtl::every(5);
    let cfg = JoinConfig::unbounded();
    let snap = match kdj_resumable(&r, &s, k, &cfg, true, 2, None, None, Some(&ctl))
        .expect("nothing to validate")
    {
        Checkpointed::Suspended(snap, _) => *snap,
        Checkpointed::Done(_) => panic!("join outran a 5-expansion pause budget"),
    };

    let path = std::env::temp_dir().join(format!("amdj-ckpt-test-{}.snap", std::process::id()));
    write_checkpoint(&path, &snap).expect("checkpoint write");
    let reloaded: EngineSnapshot<2> = read_checkpoint(&path)
        .expect("checkpoint read")
        .expect("checkpoint decode");
    std::fs::remove_file(&path).ok();

    // Mismatched parameters are validation errors, not corruption.
    let wrong_k = kdj_resumable(
        &r,
        &s,
        k + 1,
        &cfg,
        true,
        1,
        None,
        Some(EngineSnapshot::decode(&reloaded.encode()).unwrap()),
        None,
    );
    assert!(matches!(wrong_k, Err(SnapshotError::Invalid(_))));
    let wrong_policy = kdj_resumable(
        &r,
        &s,
        k,
        &cfg,
        false,
        1,
        None,
        Some(EngineSnapshot::decode(&reloaded.encode()).unwrap()),
        None,
    );
    assert!(matches!(wrong_policy, Err(SnapshotError::Invalid(_))));
    let wrong_kind = idj_resumable(
        &r,
        &s,
        k,
        &cfg,
        &AmIdjOptions::default(),
        1,
        None,
        Some(EngineSnapshot::decode(&reloaded.encode()).unwrap()),
        None,
    );
    assert!(matches!(wrong_kind, Err(SnapshotError::Invalid(_))));

    // The matching resume finishes the join bit-identically.
    let out = match kdj_resumable(&r, &s, k, &cfg, true, 3, None, Some(reloaded), None)
        .expect("snapshot must validate")
    {
        Checkpointed::Done(out) => out,
        Checkpointed::Suspended(..) => unreachable!("no pause control on the resume"),
    };
    assert_eq!(canonical(out.results), reference);
}

/// A resumed incremental join must not start a stage early. On resume a
/// worker's cursor holds only the parked compensation entries (keyed
/// just above `eDmax`) while the saved frontier waits in the claim pool;
/// advancing the stage on that locally empty queue raised `eDmax` once
/// per episode, so a many-episode join crept through stage after stage,
/// lost its aggressive pruning and expanded most of the pair space (on
/// this data: stage 8 and ~1400× the main-queue insertions at one
/// thread). Every episode here is four expansions long; the resumed
/// join must stay within one stage of the uninterrupted one and within a
/// small factor of the join's queue work — resumed frontier seeds are
/// re-inserted (and re-counted) once per episode, nothing more. The
/// factor is taken against the one-thread uninterrupted run, which is
/// deterministic: with more threads the uninterrupted run's own
/// insertions vary up to about 2.3× with the schedule and the resumed
/// run's up to about 2.5×, so a ratio of two such counts is too noisy
/// to bound tightly.
#[test]
fn resumed_idj_episodes_do_not_advance_stages_early() {
    let universe = amdj_datagen::unit_universe();
    let a = amdj_datagen::uniform_points(1000, universe, 7);
    let b = amdj_datagen::clustered_points(1000, 16, 0.02, universe, 8);
    let r = RTree::bulk_load(RTreeParams::paper_defaults(), a);
    let s = RTree::bulk_load(RTreeParams::paper_defaults(), b);
    let (take, budget) = (100, 4);
    let opts = AmIdjOptions::default();
    let bits = |v: Vec<ResultPair>| -> Vec<(u64, u64, u64)> {
        canonical(v)
            .iter()
            .map(|p| (p.dist.to_bits(), p.r, p.s))
            .collect()
    };
    let uninterrupted = |cfg: &JoinConfig, threads: usize| match idj_resumable(
        &r, &s, take, cfg, &opts, threads, None, None, None,
    )
    .expect("no snapshot to validate")
    {
        Checkpointed::Done(out) => out,
        Checkpointed::Suspended(..) => unreachable!("no pause control was attached"),
    };
    let sequential = uninterrupted(&JoinConfig::default(), 1).stats;
    for threads in [1, 2, 4] {
        for steal in [true, false] {
            let cfg = JoinConfig {
                steal,
                ..JoinConfig::default()
            };
            let reference = uninterrupted(&cfg, threads);
            let (out, log) = idj_episodes(&r, &s, take, &cfg, &opts, budget, &[threads], None);
            let run = format!("{threads} threads, steal {steal}");
            assert!(log.suspensions > 2, "{run}: pause barely fired");
            assert_eq!(
                bits(out.results),
                bits(reference.results),
                "{run}: resumed stream differs"
            );
            assert!(
                out.stats.stages <= reference.stats.stages + 1,
                "{run}: resumed join reached stage {} (uninterrupted: {})",
                out.stats.stages,
                reference.stats.stages
            );
            assert!(
                log.mainq_insertions <= 6 * sequential.mainq_insertions,
                "{run}: resumed join made {} main-queue insertions (uninterrupted, one thread: {})",
                log.mainq_insertions,
                sequential.mainq_insertions
            );
        }
    }
}
