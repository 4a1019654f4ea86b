//! Checkpoint/resume proofs for the resumable join entry points.
//!
//! The engine promises that an interrupted-and-resumed join returns the
//! same result stream, bit for bit, as an uninterrupted one — across
//! pruning policies, thread counts, and wherever the interrupt lands
//! (mid-stage-one, mid-stage-two, mid-compensation-replay). These tests
//! drive [`engine::run`] through a [`PauseCtl`] with
//! small expansion budgets so suspensions hit every phase of the join,
//! roundtrip each snapshot through its wire encoding, and resume at a
//! *different* thread count each episode: an N-thread snapshot must
//! resume at M threads.
//!
//! Distances are compared by bit pattern, ids exactly (continuous random
//! rectangles make distance ties measure-zero).

use amdj_core::engine::{self, JoinKind, JoinRequest, Policy};
use amdj_core::{
    par_am_kdj, read_checkpoint, write_checkpoint, AmIdjOptions, AmKdjOptions, Checkpointed,
    EngineSnapshot, JoinConfig, JoinOutput, PauseCtl, ResultPair, SnapshotError, TestSchedule,
};
use amdj_geom::Rect;
use amdj_rtree::{RTree, RTreeParams};
use amdj_tests::{aggressive, incremental, run_join};
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

/// Runs a join of `kind` to completion as a sequence of episodes. Every
/// episode gets a fresh pause control with `budget` expansions; each
/// suspension's snapshot is roundtripped through its wire encoding and
/// resumed with the *next* thread count in `threads_cycle`.
fn episodes(
    r: &RTree<2>,
    s: &RTree<2>,
    kind: JoinKind,
    cfg: &JoinConfig,
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
        let req = JoinRequest {
            schedule,
            resume: resume.take(),
            ..JoinRequest::new(kind.clone(), threads)
        };
        let out = engine::run(r, s, req, cfg, Some(&ctl)).expect("episode snapshot must validate");
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

fn uninterrupted_kdj(r: &RTree<2>, s: &RTree<2>, k: usize, policy: Policy) -> JoinOutput {
    run_join(
        r,
        s,
        JoinKind::Kdj { k, policy },
        1,
        &JoinConfig::unbounded(),
    )
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
    /// different thread count. The third policy cell underestimates
    /// `eDmax` at 0.3×Dmax, so every interrupt lands in a join that must
    /// replay compensation.
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
        let dmax = uninterrupted_kdj(&r, &s, k, Policy::Exact)
            .results
            .last()
            .map_or(0.0, |p| p.dist);
        let under = Policy::Aggressive { edmax_override: Some(0.3 * dmax) };
        for policy in [Policy::Exact, Policy::default(), under] {
            let reference = canonical(uninterrupted_kdj(&r, &s, k, policy).results);
            for cycle in CYCLES {
                let cfg = JoinConfig::unbounded();
                let kind = JoinKind::Kdj { k, policy };
                let (out, _log) = episodes(&r, &s, kind, &cfg, budget, cycle, schedule);
                let label =
                    format!("kdj {policy:?} budget={budget} cycle={cycle:?} seed={seed}");
                assert_identical(&label, &reference, &canonical(out.results))?;
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
        let reference = canonical(run_join(&r, &s, incremental(take, &opts), 1, &cfg).results);
        let schedule = Some(TestSchedule {
            seed,
            stall_one_in: 3,
            stall_spins: 16,
            force_steal_one_in: 3,
        });
        for cycle in CYCLES {
            let kind = incremental(take, &opts);
            let (out, _log) = episodes(&r, &s, kind, &cfg, budget, cycle, schedule);
            let label = format!("idj budget={budget} cycle={cycle:?} seed={seed}");
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
    let reference = canonical(uninterrupted_kdj(&r, &s, 200, Policy::default()).results);
    let (out, log) = episodes(
        &r,
        &s,
        aggressive(200, None),
        &JoinConfig::unbounded(),
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

/// `threads == 0` means one worker per available core in a request too,
/// as on the parallel entry points: an uninterrupted `run` at zero
/// threads returns `par_am_kdj`'s answer at zero threads, bit for bit.
#[test]
fn zero_threads_resolve_like_the_parallel_entry_points() {
    let (r, s) = trees(&grid(12, 0.4), &grid(12, 0.9));
    let k = 80;
    let cfg = JoinConfig::unbounded();
    let want = par_am_kdj(&r, &s, k, &cfg, &AmKdjOptions::default(), 0);
    let got = engine::run(&r, &s, JoinRequest::new(aggressive(k, None), 0), &cfg, None)
        .expect("a fresh join needs no snapshot checks")
        .done()
        .expect("no pause control");
    assert_identical("zero threads", &want.results, &got.results).expect("same answer");
}

/// A snapshot survives the disk: write-then-rename out, validated read
/// back in, resumed to the uninterrupted answer. Mismatched resume
/// parameters are rejected up front instead of corrupting the join.
#[test]
fn disk_roundtrip_and_resume_validation() {
    let (r, s) = trees(&grid(12, 0.4), &grid(12, 0.9));
    let k = 80;
    let reference = canonical(uninterrupted_kdj(&r, &s, k, Policy::default()).results);

    let ctl = PauseCtl::every(5);
    let cfg = JoinConfig::unbounded();
    let req = JoinRequest::new(aggressive(k, None), 2);
    let snap = match engine::run(&r, &s, req, &cfg, Some(&ctl)).expect("nothing to validate") {
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
    let resume_as = |kind: JoinKind, snap: &EngineSnapshot<2>| {
        let req = JoinRequest {
            resume: Some(EngineSnapshot::decode(&snap.encode()).unwrap()),
            ..JoinRequest::new(kind, 1)
        };
        engine::run(&r, &s, req, &cfg, None)
    };
    let wrong_k = resume_as(aggressive(k + 1, None), &reloaded);
    assert!(matches!(wrong_k, Err(SnapshotError::Invalid(_))));
    let wrong_policy = resume_as(
        JoinKind::Kdj {
            k,
            policy: Policy::Exact,
        },
        &reloaded,
    );
    assert!(matches!(wrong_policy, Err(SnapshotError::Invalid(_))));
    let wrong_kind = resume_as(incremental(k, &AmIdjOptions::default()), &reloaded);
    assert!(matches!(wrong_kind, Err(SnapshotError::Invalid(_))));

    // The matching resume finishes the join bit-identically.
    let req = JoinRequest {
        resume: Some(reloaded),
        ..JoinRequest::new(aggressive(k, None), 3)
    };
    let out = engine::run(&r, &s, req, &cfg, None)
        .expect("snapshot must validate")
        .done()
        .expect("no pause control on the resume");
    assert_eq!(canonical(out.results), reference);
}

/// `run` is the one place a resume snapshot meets its request: a
/// snapshot of another kind, `k`, `take` or pruning policy is refused
/// with its own `Invalid` reason before any work, never a panic.
#[test]
fn run_refuses_mismatched_resume() {
    let (r, s) = trees(&grid(12, 0.4), &grid(12, 0.9));
    let (k, take) = (80, 60);
    let cfg = JoinConfig::unbounded();
    let opts = AmIdjOptions::default();
    let paused = |kind: JoinKind| -> Vec<u8> {
        let ctl = PauseCtl::every(5);
        match engine::run(&r, &s, JoinRequest::new(kind, 1), &cfg, Some(&ctl)).unwrap() {
            Checkpointed::Suspended(snap, _) => snap.encode(),
            Checkpointed::Done(_) => panic!("join outran a 5-expansion pause budget"),
        }
    };
    let kdj_snap = paused(aggressive(k, None));
    let idj_snap = paused(incremental(take, &opts));
    let refusal = |bytes: &[u8], kind: JoinKind| {
        let req = JoinRequest {
            resume: Some(EngineSnapshot::decode(bytes).unwrap()),
            ..JoinRequest::new(kind, 1)
        };
        engine::run(&r, &s, req, &cfg, None)
            .map(|_| ())
            .unwrap_err()
    };
    let invalid = SnapshotError::Invalid;
    assert_eq!(
        refusal(&kdj_snap, incremental(k, &opts)),
        invalid("k-distance-join snapshot passed to an incremental join")
    );
    assert_eq!(
        refusal(&idj_snap, aggressive(take, None)),
        invalid("incremental-join snapshot passed to a k-distance join")
    );
    assert_eq!(
        refusal(&kdj_snap, aggressive(k + 1, None)),
        invalid("snapshot k differs from request")
    );
    assert_eq!(
        refusal(
            &kdj_snap,
            JoinKind::Kdj {
                k,
                policy: Policy::Exact
            }
        ),
        invalid("snapshot pruning policy differs from request")
    );
    assert_eq!(
        refusal(&idj_snap, incremental(take + 1, &opts)),
        invalid("snapshot take differs from request")
    );
}

/// Byte offset of the first compensation entry's first left stop in a
/// snapshot image, found by walking the version 2 layout with the
/// public codec: fixed header, results, dists, the page-framed
/// frontier, the entry count, then the entry's key, axis, direction and
/// parked pair ahead of its left-stop count.
fn first_left_stop_offset(bytes: &[u8]) -> usize {
    use amdj_storage::codec::Reader;
    let mut r = Reader::new(bytes);
    let print = 8 + 4 + 8 + 4 * 8;
    let header = 8 + 1 + 1 + 1 + 4 + 2 * print + 8 + 4 + 8 + 8 + 8 + 8 + 8;
    for _ in 0..header {
        r.try_u8("header").unwrap();
    }
    let results = r.try_u64("results").unwrap() as usize;
    for _ in 0..results * 3 {
        r.try_u64("result").unwrap();
    }
    let dists = r.try_u64("dists").unwrap() as usize;
    for _ in 0..dists {
        r.try_u64("dist").unwrap();
    }
    amdj_storage::try_decode_page_framed::<amdj_core::Pair<2>>(&mut r).unwrap();
    assert!(r.try_u64("comps").unwrap() > 0, "no compensation entry");
    let stop_count = r.position() + 8 + 4 + 1 + amdj_core::Pair::<2>::ENCODED_LEN;
    assert!(
        u64::from_le_bytes(bytes[stop_count..stop_count + 8].try_into().unwrap()) > 0,
        "the first entry has no left stops"
    );
    stop_count + 8
}

/// Snapshots come from disk or the wire, so a resume checks what they
/// reference before running: a version 1 image (which carried the
/// children lists) is refused at decode, a compensation mark past its
/// node's entries is refused at resume, and a snapshot of other trees
/// is refused by its tree fingerprint — all as `Invalid`, never a panic.
#[test]
fn resume_refuses_foreign_and_crafted_snapshots() {
    let (r, s) = trees(&grid(12, 0.4), &grid(12, 0.9));
    let k = 80;
    let cfg = JoinConfig::unbounded();
    // An aggressive run paused mid-stage-one holds parked entries.
    let ctl = PauseCtl::every(12);
    let req = JoinRequest::new(aggressive(k, None), 1);
    let snap = match engine::run(&r, &s, req, &cfg, Some(&ctl)).unwrap() {
        Checkpointed::Suspended(snap, _) => *snap,
        Checkpointed::Done(_) => panic!("join outran a 12-expansion pause budget"),
    };
    assert!(
        snap.comps_len() > 0,
        "the cut must carry compensation entries"
    );
    let bytes = snap.encode();
    let resume = |bytes: &[u8], r: &RTree<2>, s: &RTree<2>| {
        let req = JoinRequest {
            resume: Some(EngineSnapshot::decode(bytes)?),
            ..JoinRequest::new(aggressive(k, None), 1)
        };
        engine::run(r, s, req, &cfg, None)
    };

    let mut v1 = bytes.clone();
    v1[8] = 1;
    assert_eq!(
        EngineSnapshot::<2>::decode(&v1).unwrap_err(),
        SnapshotError::Invalid("unsupported snapshot version")
    );

    let at = first_left_stop_offset(&bytes);
    for bad in [u32::MAX, 10_000] {
        let mut crafted = bytes.clone();
        crafted[at..at + 4].copy_from_slice(&bad.to_le_bytes());
        assert!(
            matches!(resume(&crafted, &r, &s), Err(SnapshotError::Invalid(_))),
            "left stop {bad} must be refused"
        );
    }

    let (r2, s2) = trees(&grid(14, 0.4), &grid(12, 0.9));
    assert!(matches!(
        resume(&bytes, &r2, &s2),
        Err(SnapshotError::Invalid(_))
    ));
    assert!(matches!(
        resume(&bytes, &s, &r),
        Err(SnapshotError::Invalid(_))
    ));

    // The untouched image still resumes to the uninterrupted answer.
    let reference = canonical(uninterrupted_kdj(&r, &s, k, Policy::default()).results);
    match resume(&bytes, &r, &s).expect("pristine snapshot resumes") {
        Checkpointed::Done(out) => assert_eq!(canonical(out.results), reference),
        Checkpointed::Suspended(..) => unreachable!("no pause control on the resume"),
    }
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
/// re-inserted once per episode, uncounted, nothing more. The
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
    let uninterrupted =
        |cfg: &JoinConfig, threads: usize| run_join(&r, &s, incremental(take, &opts), threads, cfg);
    let cfg = JoinConfig::default();
    let sequential = uninterrupted(&cfg, 1).stats;
    for threads in [1, 2, 4] {
        let reference = uninterrupted(&cfg, threads);
        let kind = incremental(take, &opts);
        let (out, log) = episodes(&r, &s, kind, &cfg, budget, &[threads], None);
        let run = format!("{threads} threads");
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

/// A one-thread aggressive k-distance join paused every few expansions
/// does the uninterrupted join's work, summed over its episodes: the
/// same distance computations, the same insertions into each of the
/// three queues, the same expansions per stage and the same replays. A
/// resumed stage-one driver starts its distance queue from the
/// snapshot's distance evidence, so its `qDmax` and its `eDmax` ratchet
/// pick up where the suspended episode left them. Uniform against
/// clustered points keeps distances tie-free.
#[test]
fn resumed_one_thread_kdj_does_the_uninterrupted_work() {
    let universe = amdj_datagen::unit_universe();
    let a = amdj_datagen::uniform_points(2000, universe, 1);
    let b = amdj_datagen::clustered_points(2000, 16, 0.02, universe, 2);
    let r = RTree::bulk_load(RTreeParams::paper_defaults(), a);
    let s = RTree::bulk_load(RTreeParams::paper_defaults(), b);
    let cfg = JoinConfig::default();
    let kind = aggressive(100, None);
    let whole = run_join(&r, &s, kind.clone(), 1, &cfg);
    let mut resume = None;
    let mut suspensions = 0;
    let mut total = amdj_core::JoinStats::default();
    let resumed = loop {
        let ctl = PauseCtl::every(7);
        let req = JoinRequest {
            resume: resume.take(),
            ..JoinRequest::new(kind.clone(), 1)
        };
        match engine::run(&r, &s, req, &cfg, Some(&ctl)).expect("self-made snapshot validates") {
            Checkpointed::Done(out) => {
                total.absorb_episode(&out.stats);
                break out;
            }
            Checkpointed::Suspended(snap, stats) => {
                total.absorb_episode(&stats);
                suspensions += 1;
                resume = Some(*snap);
            }
        }
    };
    assert!(suspensions >= 4, "the pause fired only {suspensions} times");
    assert_eq!(resumed.results, whole.results);
    let w = &whole.stats;
    let work = |st: &amdj_core::JoinStats| {
        [
            ("real_dist", st.real_dist),
            ("axis_dist", st.axis_dist),
            ("mainq_insertions", st.mainq_insertions),
            ("distq_insertions", st.distq_insertions),
            ("compq_insertions", st.compq_insertions),
            ("stage1_expansions", st.stage1_expansions),
            ("stage2_expansions", st.stage2_expansions),
            ("comp_replays", st.comp_replays),
            ("results", st.results),
        ]
    };
    assert_eq!(work(&total), work(w), "resumed work differs");
}

/// A one-thread incremental join paused every few expansions does the
/// uninterrupted join's work, summed over its episodes: the same
/// distance computations and the same main- and distance-queue
/// insertions. Each worker counts every object pair it queues into its
/// `take` queue, a snapshot's evidence carries those distances, and a
/// resumed worker re-queues the saved frontier uncounted, so no episode
/// bound is tighter or looser than the uninterrupted one's. Uniform
/// against clustered points keeps distances tie-free.
#[test]
fn resumed_one_thread_idj_does_the_uninterrupted_work() {
    let universe = amdj_datagen::unit_universe();
    let a = amdj_datagen::uniform_points(2000, universe, 1);
    let b = amdj_datagen::clustered_points(2000, 16, 0.02, universe, 2);
    let r = RTree::bulk_load(RTreeParams::paper_defaults(), a);
    let s = RTree::bulk_load(RTreeParams::paper_defaults(), b);
    let cfg = JoinConfig::default();
    let kind = incremental(100, &AmIdjOptions::default());
    let whole = run_join(&r, &s, kind.clone(), 1, &cfg);
    let mut resume = None;
    let mut suspensions = 0;
    let mut total = amdj_core::JoinStats::default();
    let resumed = loop {
        let ctl = PauseCtl::every(7);
        let req = JoinRequest {
            resume: resume.take(),
            ..JoinRequest::new(kind.clone(), 1)
        };
        match engine::run(&r, &s, req, &cfg, Some(&ctl)).expect("self-made snapshot validates") {
            Checkpointed::Done(out) => {
                total.absorb_episode(&out.stats);
                break out;
            }
            Checkpointed::Suspended(snap, stats) => {
                total.absorb_episode(&stats);
                suspensions += 1;
                let bytes = snap.encode();
                resume = Some(EngineSnapshot::decode(&bytes).expect("own snapshot decodes"));
            }
        }
    };
    assert!(suspensions >= 4, "the pause fired only {suspensions} times");
    assert_eq!(resumed.results, whole.results);
    let work = |st: &amdj_core::JoinStats| {
        [
            ("real_dist", st.real_dist),
            ("mainq_insertions", st.mainq_insertions),
            ("distq_insertions", st.distq_insertions),
            ("results", st.results),
        ]
    };
    assert_eq!(work(&total), work(&whole.stats), "resumed work differs");
}
