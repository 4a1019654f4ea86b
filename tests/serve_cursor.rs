//! The serve-mode IDJ cursor lifecycle: open → pull → checkpoint →
//! server "restart" → resume → the remaining stream is bit-identical to
//! the uninterrupted one. A one-worker cursor holds its join live
//! between pulls: pulled in batches, demoted to a snapshot under memory
//! pressure, or checkpointed, it streams and works exactly like one
//! uninterrupted join. Plus the failure modes: corrupt or truncated
//! snapshots, wrong-kind snapshots, and impossible delivery positions
//! are clean structured errors — never panics.

use amdj_core::engine::{self, JoinRequest};
use amdj_core::serve::{
    codec::{hex_decode, hex_encode, QuerySpec},
    session::Cursor,
    snap_file_name, ServeError, ServeOptions, Server,
};
use amdj_core::{AmIdj, AmIdjOptions, Checkpointed, JoinConfig, JoinStats, PauseCtl, ResultPair};
use amdj_datagen::{clustered_points, uniform_points, unit_universe};
use amdj_rtree::RTree;
use amdj_tests::{aggressive, build_trees};

fn workload() -> (RTree<2>, RTree<2>) {
    let a = uniform_points(500, unit_universe(), 21);
    let b = clustered_points(500, 16, 0.02, unit_universe(), 22);
    build_trees(&a, &b)
}

/// The uninterrupted incremental stream, straight from the library
/// cursor.
fn reference(r: &RTree<2>, s: &RTree<2>, cfg: &JoinConfig, take: usize) -> Vec<ResultPair> {
    let mut cursor = AmIdj::new(r, s, cfg, AmIdjOptions::default());
    let mut out = Vec::with_capacity(take);
    while out.len() < take {
        match cursor.next() {
            Some(p) => out.push(p),
            None => break,
        }
    }
    out
}

fn serve_opts(cfg: &JoinConfig) -> ServeOptions {
    ServeOptions {
        base_config: cfg.clone(),
        ..ServeOptions::default()
    }
}

/// A tie-heavy input: TIGER-like streets joined with themselves, so the
/// stream opens with a long distance-0 group (every object with itself,
/// plus every intersecting pair). The take runs 20 pairs past the group,
/// and the queue budget is small enough that the group spills. Returns
/// the trees, the config, and the canonical `(dist, r, s)` stream a
/// serve cursor must deliver.
fn tied_self_join() -> (RTree<2>, RTree<2>, JoinConfig, Vec<ResultPair>) {
    let (streets, _) = amdj_datagen::tiger::arizona_workload(0.0003, 5);
    let zeros = amdj_core::bruteforce::pairs_within(&streets, &streets, 0.0).len();
    assert!(zeros > 50, "too few zero-distance pairs ({zeros})");
    let want = amdj_core::bruteforce::k_closest_pairs(&streets, &streets, zeros + 20);
    let (r, s) = build_trees(&streets, &streets);
    let cfg = JoinConfig {
        queue_mem_bytes: 8 * 1024,
        ..JoinConfig::default()
    };
    (r, s, cfg, want)
}

fn assert_identical(label: &str, want: &[ResultPair], got: &[ResultPair]) {
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

#[test]
fn checkpoint_restart_resume_is_bit_identical() {
    let take = 60;
    let (r, s) = workload();
    let cfg = JoinConfig::default();
    let want = reference(&r, &s, &cfg, take);
    assert_eq!(want.len(), take, "workload yields a full stream");
    check_restart_resume("untied", &r, &s, &cfg, &want);

    // The first pull windows end inside the distance-0 group, where the
    // canonical order is the only order both servers can agree on.
    let (r, s, cfg, want) = tied_self_join();
    check_restart_resume("tied self-join", &r, &s, &cfg, &want);
}

fn check_restart_resume(
    label: &str,
    r: &RTree<2>,
    s: &RTree<2>,
    cfg: &JoinConfig,
    want: &[ResultPair],
) {
    let take = want.len();
    let server1 = Server::new(r, s, serve_opts(cfg));
    server1
        .idj_open("c", take, QuerySpec::default())
        .expect("opens");
    let first = server1.idj_pull("c", 25).expect("first pull");
    assert!(!first.done, "{label}: stream not exhausted at 25 of {take}");
    assert_eq!(first.delivered, 25);
    assert_identical(label, &want[..25], &first.results);
    let (bytes, at) = server1.idj_checkpoint("c").expect("checkpoint");
    assert_eq!(at, 25, "checkpoint records the delivery position");
    // The pull suspended the join mid-way: pending work rides along.
    let snap = amdj_core::EngineSnapshot::<2>::decode(&bytes).expect("own snapshot decodes");
    assert!(
        snap.frontier_len() > 0,
        "{label}: a real mid-join suspension"
    );

    // "Restart": a brand-new server over the same trees, fed only the
    // snapshot bytes and the delivery position a client would replay.
    let server2 = Server::new(r, s, serve_opts(cfg));
    server2
        .idj_resume("c", &bytes, at, QuerySpec::default())
        .expect("resumes");
    let mut rest = Vec::new();
    loop {
        let pull = server2.idj_pull("c", 10).expect("resumed pull");
        rest.extend(pull.results);
        if pull.done || rest.len() >= take - 25 {
            break;
        }
    }
    assert_identical(label, &want[25..], &rest);
}

#[test]
fn fresh_and_exhausted_cursors_checkpoint_cleanly() {
    let (r, s) = workload();
    let cfg = JoinConfig::default();
    let take = 40;
    let want = reference(&r, &s, &cfg, take);

    // A cursor checkpointed before its first pull must resume into the
    // full stream.
    let server1 = Server::new(&r, &s, serve_opts(&cfg));
    server1
        .idj_open("fresh", take, QuerySpec::default())
        .expect("opens");
    let (bytes, at) = server1.idj_checkpoint("fresh").expect("fresh checkpoint");
    assert_eq!(at, 0);
    let server2 = Server::new(&r, &s, serve_opts(&cfg));
    server2
        .idj_resume("fresh", &bytes, at, QuerySpec::default())
        .expect("resumes");
    let mut all = Vec::new();
    loop {
        let pull = server2.idj_pull("fresh", 15).expect("pull");
        all.extend(pull.results);
        if pull.done || all.len() >= take {
            break;
        }
    }
    assert_identical("fresh-checkpoint stream", &want, &all);

    // A fully exhausted cursor still checkpoints (a resume-to-done
    // snapshot) and resumes into an immediately-done cursor.
    let drain = server2.idj_pull("fresh", take).expect("drain");
    assert!(drain.done, "cursor exhausted");
    assert_eq!(drain.delivered as usize, want.len());
    let (bytes, at) = server2.idj_checkpoint("fresh").expect("done checkpoint");
    let server3 = Server::new(&r, &s, serve_opts(&cfg));
    server3
        .idj_resume("done", &bytes, at, QuerySpec::default())
        .expect("resumes done");
    let after = server3.idj_pull("done", 10).expect("pull after done");
    assert!(after.results.is_empty(), "nothing left to deliver");
    assert!(after.done, "resumed cursor knows it is exhausted");
}

#[test]
fn corrupt_and_truncated_snapshots_are_clean_errors() {
    let (r, s) = workload();
    let cfg = JoinConfig::default();
    let server = Server::new(&r, &s, serve_opts(&cfg));
    server
        .idj_open("c", 50, QuerySpec::default())
        .expect("opens");
    server.idj_pull("c", 20).expect("pull");
    let (bytes, at) = server.idj_checkpoint("c").expect("checkpoint");

    // Truncations at every interesting length: magic, header, body.
    for len in [0, 4, 8, bytes.len() / 2, bytes.len() - 1] {
        let err = server
            .idj_resume("t", &bytes[..len], 0, QuerySpec::default())
            .expect_err("truncated snapshot must not resume");
        assert!(
            matches!(err, ServeError::Snapshot(_)),
            "truncation at {len}: structured snapshot error, got {err}"
        );
    }
    // A flipped magic byte is corruption, not a panic.
    let mut flipped = bytes.clone();
    flipped[0] ^= 0xff;
    let err = server
        .idj_resume("f", &flipped, 0, QuerySpec::default())
        .expect_err("corrupt magic must not resume");
    assert!(matches!(err, ServeError::Snapshot(_)));

    // A delivery position beyond the snapshot's results is impossible.
    let err = server
        .idj_resume("far", &bytes, u64::MAX, QuerySpec::default())
        .expect_err("impossible delivery position");
    assert!(matches!(err, ServeError::Snapshot(_)));

    // A KDJ snapshot is the wrong kind for an incremental cursor.
    let ctl = PauseCtl::every(8);
    let req = JoinRequest::new(aggressive(40, None), 1);
    let Checkpointed::Suspended(kdj_snap, _) =
        engine::run(&r, &s, req, &cfg, Some(&ctl)).expect("suspends")
    else {
        panic!("a tiny pause budget must suspend the kdj");
    };
    let err = server
        .idj_resume("k", &kdj_snap.encode(), 0, QuerySpec::default())
        .expect_err("kdj snapshot must be refused");
    assert!(matches!(err, ServeError::Snapshot(_)));

    // The original, untampered snapshot still resumes fine.
    server
        .idj_resume("ok", &bytes, at, QuerySpec::default())
        .expect("pristine snapshot resumes");
}

/// A valid snapshot taken on another server's (larger) index names
/// pages this index does not have. The `idj_resume` op must answer with
/// an error reply — whether the tree fingerprint gives it away or, with
/// the fingerprint doctored to match, a node reference does — and the
/// server must go on serving other cursors bit-identically.
#[test]
fn cross_index_resume_is_an_error_reply() {
    let (r, s) = workload();
    let cfg = JoinConfig::default();
    let take = 60;
    let want = reference(&r, &s, &cfg, take);
    let big_a = uniform_points(4000, unit_universe(), 31);
    let big_b = clustered_points(4000, 16, 0.02, unit_universe(), 32);
    let (big_r, big_s) = build_trees(&big_a, &big_b);
    let big = Server::new(&big_r, &big_s, serve_opts(&cfg));
    big.idj_open("c", take, QuerySpec::default())
        .expect("opens");
    big.idj_pull("c", 20).expect("pull");
    let (foreign, at) = big.idj_checkpoint("c").expect("checkpoint");

    let server = Server::new(&r, &s, serve_opts(&cfg));
    server
        .idj_open("own", take, QuerySpec::default())
        .expect("opens");
    let (own, _) = server.idj_checkpoint("own").expect("checkpoint");
    // The fingerprints sit right after magic, version, kind, flags, dim.
    let prints = 15..15 + 2 * (8 + 4 + 8 + 4 * 8);
    let mut doctored = foreign.clone();
    doctored[prints.clone()].copy_from_slice(&own[prints]);
    for (label, bytes, why) in [
        ("foreign", &foreign, "other trees"),
        ("doctored", &doctored, "node reference"),
    ] {
        let line = format!(
            "{{\"op\":\"idj_resume\",\"id\":\"x\",\"snapshot\":\"{}\",\"delivered\":{at}}}",
            hex_encode(bytes)
        );
        let (resp, shutdown) = server.handle_line(line.as_bytes());
        let reply = resp.encode();
        assert!(!shutdown);
        assert!(reply.contains("\"ok\":false"), "{label}: {reply}");
        assert!(reply.contains(why), "{label}: {reply}");
        assert!(matches!(
            server.idj_pull("x", 1),
            Err(ServeError::UnknownCursor(_))
        ));
    }

    // The server is unharmed: another cursor streams the reference.
    server
        .idj_open("after", take, QuerySpec::default())
        .expect("opens");
    let mut got = Vec::new();
    while got.len() < take {
        let pull = server.idj_pull("after", 25).expect("pull");
        got.extend(pull.results);
        if pull.done {
            break;
        }
    }
    assert_identical("after the refused resume", &want, &got);
}

#[test]
fn inflated_delivered_position_is_refused_not_a_panic() {
    let (r, s) = workload();
    let cfg = JoinConfig::default();
    let server = Server::new(&r, &s, serve_opts(&cfg));
    let take = 10;
    server
        .idj_open("c", take, QuerySpec::default())
        .expect("opens");
    server.idj_pull("c", 4).expect("pull");
    let (bytes, at) = server.idj_checkpoint("c").expect("checkpoint");

    // A suspended snapshot may retain more results than `take` (resume
    // evidence under the proven bound), so `delivered ≤ results_len`
    // alone does not make a position honest: any position past `take`
    // must be refused at resume time, before a pull can slice
    // `results[from..want]` with `from > want` and panic the handler.
    let snap = amdj_core::EngineSnapshot::<2>::decode(&bytes).expect("own snapshot decodes");
    for delivered in [take as u64 + 1, snap.results_len() as u64, u64::MAX] {
        if delivered <= take as u64 {
            continue; // small snapshot: position is honest, not inflated
        }
        let err = server
            .idj_resume("far", &bytes, delivered, QuerySpec::default())
            .expect_err("inflated delivery position must not resume");
        assert!(
            matches!(err, ServeError::Snapshot(_)),
            "structured error, got {err}"
        );
        // The failed resume left no cursor behind to pull on.
        assert!(matches!(
            server.idj_pull("far", 1),
            Err(ServeError::UnknownCursor(_))
        ));
    }

    // The honest position still resumes and pulls fine.
    server
        .idj_resume("ok", &bytes, at, QuerySpec::default())
        .expect("honest position resumes");
    server.idj_pull("ok", 3).expect("resumed cursor pulls");
}

#[test]
fn shutdown_checkpoint_directory_roundtrips() {
    let (r, s) = workload();
    let cfg = JoinConfig::default();
    let dir = std::env::temp_dir().join(format!("amdj-serve-cursor-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let server1 = Server::new(&r, &s, serve_opts(&cfg));
    server1
        .idj_open("alpha", 45, QuerySpec::default())
        .expect("opens");
    server1.idj_pull("alpha", 18).expect("pull");
    // Ids that the old lossy [A-Za-z0-9_-] sanitization would have
    // collided onto one file ("a.b" vs "a_b") or whose bytes would
    // have corrupted the tab/newline manifest ("beta/odd id",
    // "tab\tid"): each must land in its own snapshot file.
    for id in ["beta/odd id", "a.b", "a_b", "tab\tid"] {
        server1
            .idj_open(id, 30, QuerySpec::default())
            .expect("opens");
    }
    let mut ids = server1
        .checkpoint_open_cursors(&dir)
        .expect("shutdown checkpoint");
    ids.sort();
    assert_eq!(
        ids,
        vec!["a.b", "a_b", "alpha", "beta/odd id", "tab\tid"],
        "every id checkpointed"
    );
    for id in &ids {
        assert!(
            dir.join(snap_file_name(id)).is_file(),
            "{id:?} has its own snapshot file"
        );
    }
    let manifest = std::fs::read_to_string(dir.join("cursors.txt")).expect("manifest");
    assert_eq!(manifest.lines().count(), ids.len(), "one line per cursor");
    for line in manifest.lines() {
        let (hex_id, delivered) = line.split_once('\t').expect("hex(id)<TAB>delivered");
        let id = hex_decode(hex_id)
            .and_then(|b| String::from_utf8(b).ok())
            .expect("manifest ids decode");
        assert!(ids.contains(&id), "manifest id {id:?} was checkpointed");
        let _: u64 = delivered.parse().expect("delivery position parses");
    }
    let alpha_hex: String = "alpha".bytes().map(|b| format!("{b:02x}")).collect();
    assert!(
        manifest.contains(&format!("{alpha_hex}\t18")),
        "alpha's delivery position survives: {manifest}"
    );

    // Resume "alpha" on a fresh server from the on-disk snapshot; the
    // remainder must match the uninterrupted stream.
    let want = reference(&r, &s, &cfg, 45);
    let bytes = std::fs::read(dir.join(snap_file_name("alpha"))).expect("snapshot file");
    let server2 = Server::new(&r, &s, serve_opts(&cfg));
    server2
        .idj_resume("alpha", &bytes, 18, QuerySpec::default())
        .expect("resumes from disk");
    let mut rest = Vec::new();
    loop {
        let pull = server2.idj_pull("alpha", 12).expect("pull");
        rest.extend(pull.results);
        if pull.done || rest.len() >= 45 - 18 {
            break;
        }
    }
    assert_identical("disk-resumed remainder", &want[18..], &rest);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression: the shutdown checkpoint used to drain the cursor table
/// destructively, so a write failure halfway through the loop lost
/// every cursor not yet (and never to be) written — including the ones
/// already flushed, whose manifest never landed. A failed checkpoint
/// must leave the server exactly as it was: every cursor still open
/// and pullable, no partial manifest, and a retry must succeed.
#[test]
fn failed_shutdown_checkpoint_loses_no_cursors() {
    let (r, s) = workload();
    let cfg = JoinConfig::default();
    let dir = std::env::temp_dir().join(format!("amdj-serve-cursor-fail-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("state dir");

    let server = Server::new(&r, &s, serve_opts(&cfg));
    for id in ["a", "b", "c"] {
        server
            .idj_open(id, 40, QuerySpec::default())
            .expect("opens");
    }
    let first = server.idj_pull("a", 10).expect("pull");
    assert_eq!(first.delivered, 10);

    // Checkpointing writes cursors in sorted id order, so planting a
    // directory where "b"'s snapshot file must land makes the atomic
    // rename fail deterministically *after* "a" was written.
    std::fs::create_dir_all(dir.join(snap_file_name("b"))).expect("blocker");
    server
        .checkpoint_open_cursors(&dir)
        .expect_err("checkpoint into a blocked path fails");

    // No cursor was lost: all three still answer pulls...
    for id in ["a", "b", "c"] {
        server
            .idj_pull(id, 1)
            .unwrap_or_else(|e| panic!("cursor {id:?} survived the failed checkpoint: {e}"));
    }
    // ...and "a" kept its delivery position (10 before + 1 just now).
    let (_, at) = server.idj_checkpoint("a").expect("checkpoint");
    assert_eq!(at, 11, "delivery position survived the failed shutdown");
    // The manifest never landed, so a restart would resume nothing
    // stale.
    assert!(
        !dir.join("cursors.txt").exists(),
        "no partial manifest after a failed checkpoint"
    );

    // Clear the blocker; the retry checkpoints everything.
    std::fs::remove_dir_all(dir.join(snap_file_name("b"))).expect("unblock");
    let mut ids = server
        .checkpoint_open_cursors(&dir)
        .expect("retry succeeds");
    ids.sort();
    assert_eq!(ids, vec!["a", "b", "c"], "every cursor checkpointed");
    assert!(dir.join("cursors.txt").is_file(), "manifest landed");

    // And the snapshots are live: resume "a" and check the stream picks
    // up exactly where the pulls left off.
    let want = reference(&r, &s, &cfg, 40);
    let bytes = std::fs::read(dir.join(snap_file_name("a"))).expect("snapshot");
    let server2 = Server::new(&r, &s, serve_opts(&cfg));
    server2
        .idj_resume("a", &bytes, 11, QuerySpec::default())
        .expect("resumes");
    let mut rest = Vec::new();
    loop {
        let pull = server2.idj_pull("a", 12).expect("pull");
        rest.extend(pull.results);
        if pull.done || rest.len() >= 40 - 11 {
            break;
        }
    }
    assert_identical("post-retry remainder", &want[11..], &rest);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Pulls a one-worker [`Cursor`] to its `take` in batches of `n`,
/// calling `between` after every pull; returns the stream and the
/// cursor's counters.
fn drain_cursor<'t>(
    r: &'t RTree<2>,
    s: &'t RTree<2>,
    cfg: &JoinConfig,
    take: usize,
    n: usize,
    mut between: impl FnMut(&mut Cursor<'t, 2>),
) -> (Vec<ResultPair>, JoinStats) {
    let opts = AmIdjOptions::default();
    let mut cursor = Cursor::open(take, QuerySpec::default());
    let mut got = Vec::new();
    loop {
        let (slice, done) = cursor.pull(r, s, cfg, &opts, n).expect("pull");
        got.extend(slice);
        if done {
            break;
        }
        between(&mut cursor);
    }
    (got, cursor.stats())
}

/// The counters that measure a join's work.
fn work(st: &JoinStats) -> [(&'static str, u64); 5] {
    [
        ("real_dist", st.real_dist),
        ("axis_dist", st.axis_dist),
        ("mainq_insertions", st.mainq_insertions),
        ("distq_insertions", st.distq_insertions),
        ("expansions", st.stage1_expansions + st.stage2_expansions),
    ]
}

/// A one-worker cursor drained in pulls of 10 does the work of one
/// uninterrupted `take`-bounded `AmIdj`: a pull advances the join it
/// holds and stops once its window is stable, so nothing is redone and
/// nothing re-queued. The data is tie-free, so the `take`-th result ends
/// both runs at the same point.
#[test]
fn live_cursor_pulled_in_tens_does_the_uninterrupted_work() {
    let (r, s) = workload();
    let cfg = JoinConfig::default();
    let take = 150;
    let mut direct = AmIdj::with_take(&r, &s, &cfg, AmIdjOptions::default(), take);
    let want: Vec<ResultPair> = std::iter::from_fn(|| direct.next()).collect();
    assert_eq!(want.len(), take);
    let (got, stats) = drain_cursor(&r, &s, &cfg, take, 10, |c| {
        assert!(c.is_live(), "a one-worker cursor stays live between pulls");
    });
    assert_identical("pulls of 10", &want, &got);
    assert_eq!(work(&stats), work(&direct.stats()), "pulled work differs");
}

/// A cursor demoted to its snapshot after every pull — the memory
/// pressure path — streams bit-identically to one that stayed live and
/// does the same work: the cut re-enters a fresh driver uncounted. On
/// the tie-heavy self-join the windows end inside the distance-0 group
/// and the small queue budget spills, so the cut carries spilled pages
/// and tied entries.
#[test]
fn demoted_cursor_streams_like_a_live_one() {
    let (r, s, cfg, want) = tied_self_join();
    let take = want.len();
    let (live, live_stats) = drain_cursor(&r, &s, &cfg, take, 10, |_| {});
    assert_identical("live", &want, &live);
    let mut demotions = 0;
    let (demoted, demoted_stats) = drain_cursor(&r, &s, &cfg, take, 10, |c| {
        demotions += u32::from(c.is_live());
        c.demote();
        assert!(
            !c.is_live() && c.queue_bytes() == 0,
            "a demoted cursor holds no queue"
        );
    });
    assert!(demotions > 3, "only {demotions} demotions");
    assert_identical("demoted every pull", &want, &demoted);
    assert_eq!(
        work(&demoted_stats),
        work(&live_stats),
        "demoted work differs"
    );
}

/// Checkpointing a live cursor cuts it through the engine's suspension
/// path and leaves it open: the next pull makes it live again from the
/// cut and goes on bit-identically, with the uninterrupted work.
#[test]
fn checkpointed_live_cursor_continues_bit_identically() {
    let (r, s) = workload();
    let cfg = JoinConfig::default();
    let take = 80;
    let want = reference(&r, &s, &cfg, take);
    let (_, live_stats) = drain_cursor(&r, &s, &cfg, take, 20, |_| {});
    let opts = AmIdjOptions::default();
    let mut checkpoints = 0;
    let (got, stats) = drain_cursor(&r, &s, &cfg, take, 20, |c| {
        let (bytes, at) = c.checkpoint(&r, &s, &cfg, &opts);
        assert_eq!(at, c.delivered());
        assert!(!c.is_live(), "a checkpoint cuts the live join");
        let snap = amdj_core::EngineSnapshot::<2>::decode(&bytes).expect("own snapshot decodes");
        assert!(snap.frontier_len() > 0, "a real mid-join cut");
        checkpoints += 1;
    });
    assert!(checkpoints >= 3);
    assert_identical("checkpointed every pull", &want, &got);
    assert_eq!(work(&stats), work(&live_stats), "checkpointed work differs");
}

/// Never-closed cursors cannot grow the server without bound: idle live
/// cursors are charged their queue bytes, and past `mem_budget_bytes`
/// the least recently pulled is demoted to its snapshot. Every cursor
/// still streams the reference afterwards.
#[test]
fn never_closed_cursors_keep_the_live_ledger_within_the_budget() {
    let (r, s) = workload();
    let cfg = JoinConfig::with_queue_memory(64 * 1024);
    let budget = cfg.queue_mem_bytes as u64;
    let server = Server::new(
        &r,
        &s,
        ServeOptions {
            mem_budget_bytes: budget,
            ..serve_opts(&cfg)
        },
    );
    let take = 60;
    let want = reference(&r, &s, &cfg, take);
    let ids: Vec<String> = (0..40).map(|i| format!("c{i}")).collect();
    let mut most = 0;
    for id in &ids {
        server
            .idj_open(id, take, QuerySpec::default())
            .expect("opens");
        let pull = server.idj_pull(id, 10).expect("pull");
        assert_identical(id, &want[..10], &pull.results);
        let charged = server.idle_cursor_bytes();
        assert!(
            charged <= budget,
            "{charged} idle bytes over the {budget}-byte budget"
        );
        most = most.max(charged);
    }
    assert!(
        most > budget / 2,
        "the budget never bound ({most} of {budget} bytes)"
    );
    // Demoted or live, every cursor goes on from where it stopped.
    for id in &ids {
        let mut got = want[..10].to_vec();
        loop {
            let pull = server.idj_pull(id, 25).expect("pull");
            got.extend(pull.results);
            assert!(server.idle_cursor_bytes() <= budget);
            if pull.done {
                break;
            }
        }
        assert_identical(id, &want, &got);
    }
}
