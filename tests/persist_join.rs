//! Persisted-index join parity: a tree saved to disk and loaded back
//! must drive every join to the same answer, bit for bit, as the
//! original in-memory build. The persistence format keeps page images
//! (and page ids) byte-identical, so this also holds for engine
//! snapshots — a checkpoint taken against the original trees resumes
//! against reloaded copies, which is what makes an on-disk checkpoint
//! durable across process restarts.

use amdj_core::engine::{self, JoinRequest};
use amdj_core::{b_kdj, AmIdjOptions, Checkpointed, JoinConfig, JoinOutput, PauseCtl, ResultPair};
use amdj_geom::Rect;
use amdj_rtree::{RTree, RTreeParams};
use amdj_tests::{aggressive, exact, incremental, run_done, run_join};

fn dataset(n: usize, phase: f64) -> Vec<(Rect<2>, u64)> {
    (0..n)
        .map(|i| {
            let x = (i as f64 * 0.737 + phase).sin() * 500.0 + 500.0;
            let y = (i as f64 * 0.391 + phase).cos() * 500.0 + 500.0;
            let w = ((i * 7) % 11) as f64 * 0.5;
            let h = ((i * 13) % 7) as f64 * 0.5;
            (Rect::new([x, y], [x + w, y + h]), i as u64)
        })
        .collect()
}

fn persisted_copy(t: &RTree<2>, name: &str) -> RTree<2> {
    let path =
        std::env::temp_dir().join(format!("amdj-persist-join-{}-{name}", std::process::id()));
    t.save_to_path(&path).expect("save tree");
    let back = RTree::load_from_path(&path, t.params().clone()).expect("load tree");
    std::fs::remove_file(&path).ok();
    back.validate().expect("loaded tree valid");
    back
}

fn assert_bit_identical(label: &str, want: &[ResultPair], got: &[ResultPair]) {
    assert_eq!(want.len(), got.len(), "{label}: result count");
    for (i, (a, b)) in want.iter().zip(got.iter()).enumerate() {
        assert_eq!(
            a.dist.to_bits(),
            b.dist.to_bits(),
            "{label}: rank {i} distance"
        );
        assert_eq!((a.r, a.s), (b.r, b.s), "{label}: rank {i} ids");
    }
}

fn resumable_kdj(
    r: &RTree<2>,
    s: &RTree<2>,
    k: usize,
    aggressive_policy: bool,
    threads: usize,
) -> JoinOutput {
    let kind = if aggressive_policy {
        aggressive(k, None)
    } else {
        exact(k)
    };
    run_join(r, s, kind, threads, &JoinConfig::unbounded())
}

/// Both trees through a save/load cycle, then every join flavour: the
/// reloaded indexes answer bit-identically to the in-memory ones.
#[test]
fn reloaded_trees_join_bit_identically() {
    let r = RTree::bulk_load(RTreeParams::for_tests(), dataset(900, 0.2));
    let s = RTree::bulk_load(RTreeParams::for_tests(), dataset(900, 1.7));
    let r2 = persisted_copy(&r, "r");
    let s2 = persisted_copy(&s, "s");

    let cfg = JoinConfig::unbounded();
    let k = 150;

    let mem = b_kdj(&r, &s, k, &cfg);
    let disk = b_kdj(&r2, &s2, k, &cfg);
    assert_bit_identical("b_kdj", &mem.results, &disk.results);

    for aggressive in [false, true] {
        for threads in [1, 4] {
            let mem = resumable_kdj(&r, &s, k, aggressive, threads);
            let disk = resumable_kdj(&r2, &s2, k, aggressive, threads);
            assert_bit_identical(
                &format!("kdj agg={aggressive} threads={threads}"),
                &mem.results,
                &disk.results,
            );
        }
    }

    let idj = |r: &RTree<2>, s: &RTree<2>| -> JoinOutput {
        run_join(r, s, incremental(120, &AmIdjOptions::default()), 1, &cfg)
    };
    assert_bit_identical("idj stream", &idj(&r, &s).results, &idj(&r2, &s2).results);
}

/// A checkpoint cut against the original trees resumes against reloaded
/// copies: the snapshot's frontier references pages by id, and the
/// persistence format preserves page ids exactly.
#[test]
fn checkpoint_resumes_against_reloaded_trees() {
    let r = RTree::bulk_load(RTreeParams::for_tests(), dataset(900, 0.2));
    let s = RTree::bulk_load(RTreeParams::for_tests(), dataset(900, 1.7));
    let k = 150;
    let cfg = JoinConfig::unbounded();
    let reference = resumable_kdj(&r, &s, k, true, 1);

    let ctl = PauseCtl::every(10);
    let req = JoinRequest::new(aggressive(k, None), 2);
    let snap = match engine::run(&r, &s, req, &cfg, Some(&ctl)).expect("nothing to validate") {
        Checkpointed::Suspended(snap, _) => *snap,
        Checkpointed::Done(_) => panic!("join outran a 10-expansion pause budget"),
    };

    let r2 = persisted_copy(&r, "ckpt-r");
    let s2 = persisted_copy(&s, "ckpt-s");
    let req = JoinRequest {
        resume: Some(snap),
        ..JoinRequest::new(aggressive(k, None), 2)
    };
    let out = run_done(&r2, &s2, req, &cfg);
    assert_bit_identical("resume on reloaded trees", &reference.results, &out.results);
}
