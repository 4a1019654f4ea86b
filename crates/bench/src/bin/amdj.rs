//! `amdj` — a small command-line front end for the library: generate
//! workloads, build persistent indexes, and run every join operation
//! against them.
//!
//! ```text
//! amdj generate --kind tiger-streets|tiger-hydro|uniform|clustered --n N [--seed S] --out data.csv
//! amdj build    --input data.csv --out index.amdj
//! amdj kdj      --r a.amdj --s b.amdj --k K [--algo am|b|hs|par|par-am] [--threads T]
//!               [--checkpoint-path P] [--checkpoint-every N] [--resume P]
//! amdj idj      --r a.amdj --s b.amdj --take N [--batch B] [--algo am|par-am] [--threads T]
//!               [--checkpoint-path P] [--checkpoint-every N] [--resume P]
//! amdj within   --r a.amdj --s b.amdj --dist D
//! amdj knn      --r a.amdj --s b.amdj --k K
//! amdj bench    [--n N] [--k K] [--seed S] [--json [FILE]]
//! amdj serve    --r a.amdj --s b.amdj [--mem-budget BYTES] [--max-waiting N]
//!               [--max-request-bytes N] [--state-dir DIR] [--max-threads N]
//!               [--listen ADDR] [--max-conns N] [--idle-timeout-ms N]
//! ```
//!
//! CSV rows are `lo_x,lo_y,hi_x,hi_y,id`. Index files are the persistent
//! R*-tree format of `amdj-rtree` (4 KB pages, paper configuration).
//!
//! With `--checkpoint-path`, a `kdj`/`idj` run becomes resumable: every
//! `--checkpoint-every` expansions (and on SIGINT) the engine's complete
//! state is written atomically to the given path, and a later run with
//! `--resume <path>` continues from it — at any thread count — producing
//! the exact result stream the uninterrupted run would have. An
//! interrupted run exits with code 75 after writing its final
//! checkpoint. `AMDJ_INTERRUPT_AFTER=<n>` simulates an interrupt once
//! `n` expansions have run, counted across the whole run and all its
//! episodes; it caps each episode's pause budget, so the interrupt
//! lands at the same point on every run (used by `ci.sh`'s resume
//! smoke test).
//!
//! `serve` loads both trees once and then answers KDJ/IDJ queries over
//! them through the line-delimited JSON protocol of [`amdj_core::serve`]
//! (one request per line, one response line per request; see DESIGN.md
//! §12–§13). By default requests arrive on stdin and responses leave on
//! stdout, as one connection: its requests are answered in order, one at
//! a time. For concurrent clients, `--listen ADDR` serves the same
//! protocol over TCP instead, one handler per connection, with
//! `--max-conns` bounding concurrent connections (excess ones get a
//! structured error line and are closed) and `--idle-timeout-ms`
//! disconnecting clients that go silent. Executing queries are
//! admission-controlled against `--mem-budget` in units of the engine's
//! own queue memory budget, and per-query `threads` is bounded by
//! `--max-threads` (out-of-range values are structured error
//! responses). On SIGINT the server stops accepting
//! requests, drains the in-flight ones across all connections,
//! checkpoints every open IDJ cursor into `--state-dir`, and exits 75; a
//! restart with the same `--state-dir` resumes those cursors at their
//! recorded delivery positions.

use std::collections::HashMap;
use std::io::{BufRead, BufWriter, Write};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use amdj_core::serve::{
    codec::{QuerySpec, Request},
    transport::{serve_listener, serve_stream, TransportOptions},
    ServeOptions, Server,
};
use amdj_core::{
    am_kdj, b_kdj, hs_kdj, idj_resumable, kdj_resumable, knn_join, par_am_idj, par_am_kdj,
    par_b_kdj, read_checkpoint, sj_sort, within_join, write_checkpoint, AmIdj, AmIdjOptions,
    AmKdjOptions, Checkpointed, EngineSnapshot, HsIdj, JoinConfig, JoinOutput, PauseCtl,
    ResultPair, SnapshotError,
};
use amdj_datagen::{clustered_points, tiger::Geography, uniform_points, unit_universe, Dataset};
use amdj_geom::Rect;
use amdj_rtree::{RTree, RTreeParams};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  amdj generate --kind tiger-streets|tiger-hydro|uniform|clustered --n N [--seed S] --out data.csv\n  amdj build    --input data.csv --out index.amdj\n  amdj kdj      --r a.amdj --s b.amdj --k K [--algo am|b|hs|par|par-am] [--threads T]\n                [--checkpoint-path P] [--checkpoint-every N] [--resume P]\n  amdj idj      --r a.amdj --s b.amdj --take N [--batch B] [--algo am|par-am] [--threads T]\n                [--checkpoint-path P] [--checkpoint-every N] [--resume P]\n  amdj within   --r a.amdj --s b.amdj --dist D\n  amdj knn      --r a.amdj --s b.amdj --k K\n  amdj bench    [--n N] [--k K] [--seed S] [--json [FILE]]\n  amdj serve    --r a.amdj --s b.amdj [--mem-budget BYTES] [--max-waiting N]\n                [--max-request-bytes N] [--state-dir DIR] [--max-threads N]\n                [--listen ADDR] [--max-conns N] [--idle-timeout-ms N]"
    );
    ExitCode::from(2)
}

/// Set by the SIGINT handler; the watcher thread translates it into a
/// pause request so the running join suspends at a consistent cut.
static INTERRUPTED: AtomicBool = AtomicBool::new(false);

/// Exit code of an interrupted run that wrote its final checkpoint
/// (EX_TEMPFAIL: rerunning with `--resume` finishes the job).
const EXIT_INTERRUPTED: u8 = 75;

extern "C" fn on_sigint(_sig: i32) {
    INTERRUPTED.store(true, Ordering::SeqCst);
}

/// Installs `on_sigint` for SIGINT through the C `signal` entry point,
/// declared directly — the binary links libc anyway and the library
/// crates stay free of signal handling (and of `unsafe`).
fn install_sigint_handler() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    unsafe {
        signal(SIGINT, on_sigint as extern "C" fn(i32) as usize);
    }
}

/// The checkpoint/resume flags shared by `kdj` and `idj`.
struct CkptCli {
    path: Option<String>,
    every: u64,
    resume: Option<String>,
}

/// Returns `None` when no checkpoint flag is present (the command runs
/// its ordinary non-resumable path).
fn parse_ckpt(flags: &HashMap<String, String>) -> Result<Option<CkptCli>, String> {
    let path = flags.get("checkpoint-path").cloned();
    let resume = flags.get("resume").cloned();
    let every: u64 = flags
        .get("checkpoint-every")
        .map_or(Ok(0), |v| v.parse())
        .map_err(|e| format!("--checkpoint-every: {e}"))?;
    if path.is_none() && resume.is_none() && every == 0 {
        return Ok(None);
    }
    if every > 0 && path.is_none() {
        return Err("--checkpoint-every requires --checkpoint-path".to_string());
    }
    Ok(Some(CkptCli {
        path,
        every,
        resume,
    }))
}

/// Loads and validates a `--resume` snapshot; corruption surfaces as a
/// clean error naming the file, byte offset, and expected field.
fn load_resume(resume: &Option<String>) -> Result<Option<EngineSnapshot<2>>, String> {
    let Some(p) = resume else { return Ok(None) };
    let snap = read_checkpoint::<2>(p)
        .map_err(|e| format!("{p}: {e}"))?
        .map_err(|e| format!("{p}: {e}"))?;
    eprintln!(
        "# resuming from {p}: stage {}, {} results, {} frontier pairs, {} compensation entries",
        snap.stage(),
        snap.results_len(),
        snap.frontier_len(),
        snap.comps_len()
    );
    Ok(Some(snap))
}

/// Runs a resumable join as a sequence of episodes: run until the pause
/// control fires, write a checkpoint, then either continue in-process
/// (a periodic `--checkpoint-every` pause) or stop (SIGINT or the
/// `AMDJ_INTERRUPT_AFTER` hook). Returns `None` when interrupted — the
/// final checkpoint is on disk and the caller exits with
/// [`EXIT_INTERRUPTED`].
#[allow(clippy::type_complexity)]
fn run_episodes(
    ckpt: &CkptCli,
    mut resume: Option<EngineSnapshot<2>>,
    run: &dyn Fn(Option<EngineSnapshot<2>>, &PauseCtl) -> Result<Checkpointed<2>, SnapshotError>,
) -> Result<Option<JoinOutput>, String> {
    install_sigint_handler();
    let interrupt_after: Option<u64> = match std::env::var("AMDJ_INTERRUPT_AFTER") {
        Ok(v) => Some(
            v.parse()
                .map_err(|e| format!("AMDJ_INTERRUPT_AFTER: {e}"))?,
        ),
        Err(_) => None,
    };
    // The hook counts expansions across the whole run; each episode gets
    // a fresh pause control, so carry the completed episodes' total. The
    // hook's remaining expansions cap the episode's pause budget, so the
    // interrupt lands at the same expansion on every run.
    let mut prior_expansions = 0u64;
    loop {
        let remaining = interrupt_after.map(|n| n.saturating_sub(prior_expansions));
        // A budget of 0 never fires, so it loses to any non-zero one.
        let budget = remaining
            .filter(|&left| ckpt.every == 0 || left < ckpt.every)
            .unwrap_or(ckpt.every);
        let ctl = Arc::new(PauseCtl::every(budget));
        if remaining == Some(0) {
            ctl.request_stop();
        }
        let episode_done = Arc::new(AtomicBool::new(false));
        // The join's workers only observe the pause control; this
        // watcher turns SIGINT into a pause request.
        let watcher = std::thread::spawn({
            let ctl = Arc::clone(&ctl);
            let episode_done = Arc::clone(&episode_done);
            move || {
                while !episode_done.load(Ordering::SeqCst) {
                    if INTERRUPTED.load(Ordering::SeqCst) {
                        ctl.request_stop();
                        return;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            }
        });
        let outcome = run(resume.take(), &ctl);
        episode_done.store(true, Ordering::SeqCst);
        let _ = watcher.join();
        prior_expansions += ctl.expansions();
        match outcome.map_err(|e| e.to_string())? {
            Checkpointed::Done(out) => return Ok(Some(out)),
            Checkpointed::Suspended(snap, _) => {
                let path = ckpt.path.as_deref().ok_or(
                    "join paused without --checkpoint-path; set it to make interrupts resumable",
                )?;
                write_checkpoint(path, snap.as_ref()).map_err(|e| format!("{path}: {e}"))?;
                eprintln!(
                    "# checkpoint: {path} (stage {}, {} results, {} frontier pairs)",
                    snap.stage(),
                    snap.results_len(),
                    snap.frontier_len()
                );
                if INTERRUPTED.load(Ordering::SeqCst)
                    || interrupt_after.is_some_and(|n| prior_expansions >= n)
                {
                    return Ok(None);
                }
                resume = Some(*snap);
            }
        }
    }
}

fn parse_flags(args: &[String]) -> Option<HashMap<String, String>> {
    let mut map = HashMap::new();
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let key = flag.strip_prefix("--")?;
        // A flag followed by another flag (or nothing) is boolean-valued.
        let value = match it.peek() {
            Some(next) if !next.starts_with("--") => it.next().unwrap().clone(),
            _ => "true".to_string(),
        };
        map.insert(key.to_string(), value);
    }
    Some(map)
}

fn load_csv(path: &str) -> Result<Dataset, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out = Vec::new();
    for (lineno, line) in std::io::BufReader::new(file).lines().enumerate() {
        let line = line.map_err(|e| format!("{path}:{}: {e}", lineno + 1))?;
        if line.trim().is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 5 {
            return Err(format!("{path}:{}: expected 5 fields", lineno + 1));
        }
        let num = |i: usize| -> Result<f64, String> {
            fields[i]
                .trim()
                .parse()
                .map_err(|e| format!("{path}:{}: {e}", lineno + 1))
        };
        let (lx, ly, hx, hy) = (num(0)?, num(1)?, num(2)?, num(3)?);
        let id: u64 = fields[4]
            .trim()
            .parse()
            .map_err(|e| format!("{path}:{}: {e}", lineno + 1))?;
        // `Rect::new` asserts these; a bad file is a usage error, not a panic.
        let ok = [lx, ly, hx, hy].iter().all(|v| v.is_finite()) && lx <= hx && ly <= hy;
        if !ok {
            return Err(format!(
                "{path}:{}: invalid rectangle {lx},{ly},{hx},{hy}: \
                 coordinates must be finite with lo <= hi",
                lineno + 1
            ));
        }
        out.push((Rect::new([lx, ly], [hx, hy]), id));
    }
    Ok(out)
}

fn save_csv(path: &str, data: &Dataset) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
    let mut w = BufWriter::new(file);
    for (r, id) in data {
        writeln!(
            w,
            "{},{},{},{},{}",
            r.lo()[0],
            r.lo()[1],
            r.hi()[0],
            r.hi()[1],
            id
        )
        .map_err(|e| e.to_string())?;
    }
    w.flush().map_err(|e| e.to_string())
}

fn open_tree(path: &str) -> Result<RTree<2>, String> {
    RTree::load_from_path(path, RTreeParams::paper_defaults()).map_err(|e| format!("{path}: {e}"))
}

fn run() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return Err("missing command".into());
    };
    let flags = parse_flags(rest).ok_or("malformed flags")?;
    let get = |k: &str| {
        flags
            .get(k)
            .cloned()
            .ok_or_else(|| format!("missing --{k}"))
    };
    let cfg = JoinConfig::default();

    match cmd.as_str() {
        "generate" => {
            let kind = get("kind")?;
            let n: usize = get("n")?.parse().map_err(|e| format!("--n: {e}"))?;
            let seed: u64 = flags
                .get("seed")
                .map_or(Ok(1), |s| s.parse())
                .map_err(|e| format!("--seed: {e}"))?;
            let out = get("out")?;
            let data = match kind.as_str() {
                "tiger-streets" => Geography::arizona_like(seed).streets(n),
                "tiger-hydro" => Geography::arizona_like(seed).hydro(n),
                "uniform" => uniform_points(n, unit_universe(), seed),
                "clustered" => clustered_points(n, 16, 0.02, unit_universe(), seed),
                other => return Err(format!("unknown kind '{other}'")),
            };
            save_csv(&out, &data)?;
            println!("wrote {} objects to {out}", data.len());
        }
        "build" => {
            let input = get("input")?;
            let out = get("out")?;
            let data = load_csv(&input)?;
            let tree = RTree::bulk_load(RTreeParams::paper_defaults(), data);
            tree.save_to_path(&out).map_err(|e| format!("{out}: {e}"))?;
            println!(
                "indexed {} objects ({} pages, height {}) into {out}",
                tree.len(),
                tree.page_count(),
                tree.height()
            );
        }
        "kdj" => {
            let r = open_tree(&get("r")?)?;
            let s = open_tree(&get("s")?)?;
            let k: usize = get("k")?.parse().map_err(|e| format!("--k: {e}"))?;
            let algo = flags.get("algo").map_or("am", String::as_str);
            let threads: usize = flags
                .get("threads")
                .map_or(Ok(0), |t| t.parse())
                .map_err(|e| format!("--threads: {e}"))?;
            if threads != 0 && algo != "par" && algo != "par-am" {
                return Err("--threads only applies to --algo par or par-am".to_string());
            }
            let ckpt = parse_ckpt(&flags)?;
            let out = if algo == "hs" {
                if ckpt.is_some() {
                    return Err("--algo hs does not support checkpointing".to_string());
                }
                hs_kdj(&r, &s, k, &cfg)
            } else {
                let (aggressive, threads) = match algo {
                    "am" => (true, 1),
                    "b" => (false, 1),
                    "par-am" => (true, threads),
                    "par" => (false, threads),
                    other => return Err(format!("unknown algo '{other}'")),
                };
                let run = |resume, pause: Option<&PauseCtl>| {
                    kdj_resumable(&r, &s, k, &cfg, aggressive, threads, None, resume, pause)
                };
                match ckpt {
                    None => match run(None, None).map_err(|e| e.to_string())? {
                        Checkpointed::Done(out) => out,
                        Checkpointed::Suspended(..) => unreachable!("no pause control"),
                    },
                    Some(ckpt) => {
                        let resume = load_resume(&ckpt.resume)?;
                        let Some(out) =
                            run_episodes(&ckpt, resume, &|resume, ctl| run(resume, Some(ctl)))?
                        else {
                            eprintln!("# interrupted; rerun with --resume to finish");
                            return Ok(ExitCode::from(EXIT_INTERRUPTED));
                        };
                        out
                    }
                }
            };
            for p in &out.results {
                println!("{},{},{}", p.r, p.s, p.dist);
            }
            eprintln!(
                "# {} results, {} distance computations, {:.3}s modeled response",
                out.results.len(),
                out.stats.real_dist,
                out.stats.response_time()
            );
        }
        "idj" => {
            let r = open_tree(&get("r")?)?;
            let s = open_tree(&get("s")?)?;
            let take: usize = get("take")?.parse().map_err(|e| format!("--take: {e}"))?;
            let batch: usize = flags
                .get("batch")
                .map_or(Ok(take), |b| b.parse())
                .map_err(|e| format!("--batch: {e}"))?;
            // A zero batch would never advance the streaming loop below.
            if batch == 0 && flags.contains_key("batch") {
                return Err("--batch must be at least 1".to_string());
            }
            let algo = flags.get("algo").map_or("am", String::as_str);
            let threads: usize = flags
                .get("threads")
                .map_or(Ok(0), |t| t.parse())
                .map_err(|e| format!("--threads: {e}"))?;
            if threads != 0 && algo != "par-am" {
                return Err("--threads only applies to --algo par-am".to_string());
            }
            if let Some(ckpt) = parse_ckpt(&flags)? {
                let threads = match algo {
                    "am" => 1,
                    "par-am" => threads,
                    other => {
                        return Err(format!("--algo {other} does not support checkpointing"));
                    }
                };
                let opts = AmIdjOptions::default();
                let resume = load_resume(&ckpt.resume)?;
                let Some(out) = run_episodes(&ckpt, resume, &|resume, ctl| {
                    idj_resumable(&r, &s, take, &cfg, &opts, threads, None, resume, Some(ctl))
                })?
                else {
                    eprintln!("# interrupted; rerun with --resume to finish");
                    return Ok(ExitCode::from(EXIT_INTERRUPTED));
                };
                for p in &out.results {
                    println!("{},{},{}", p.r, p.s, p.dist);
                }
                eprintln!(
                    "# {} pairs ({} stages, {} bound tightenings)",
                    out.results.len(),
                    out.stats.stages,
                    out.stats.bound_tightenings
                );
                return Ok(ExitCode::SUCCESS);
            }
            if algo == "par-am" {
                let out = par_am_idj(&r, &s, take, &cfg, &AmIdjOptions::default(), threads);
                for p in &out.results {
                    println!("{},{},{}", p.r, p.s, p.dist);
                }
                eprintln!(
                    "# {} pairs ({} stages, {} bound tightenings)",
                    out.results.len(),
                    out.stats.stages,
                    out.stats.bound_tightenings
                );
                return Ok(ExitCode::SUCCESS);
            }
            if algo != "am" {
                return Err(format!("unknown algo '{algo}'"));
            }
            let mut cursor = AmIdj::new(&r, &s, &cfg, AmIdjOptions::default());
            let mut produced = 0;
            while produced < take {
                let chunk = batch.min(take - produced);
                for _ in 0..chunk {
                    match cursor.next() {
                        Some(p) => {
                            println!("{},{},{}", p.r, p.s, p.dist);
                            produced += 1;
                        }
                        None => {
                            eprintln!("# exhausted after {produced} pairs");
                            return Ok(ExitCode::SUCCESS);
                        }
                    }
                }
                eprintln!(
                    "# {produced} pairs (stage {}, eDmax {:.6})",
                    cursor.stage(),
                    cursor.current_edmax()
                );
            }
        }
        "within" => {
            let r = open_tree(&get("r")?)?;
            let s = open_tree(&get("s")?)?;
            let dist: f64 = get("dist")?.parse().map_err(|e| format!("--dist: {e}"))?;
            if !(dist.is_finite() && dist >= 0.0) {
                return Err(format!(
                    "--dist must be finite and non-negative, got {dist}"
                ));
            }
            let out = within_join(&r, &s, dist, &cfg);
            for p in &out.results {
                println!("{},{},{}", p.r, p.s, p.dist);
            }
            eprintln!("# {} pairs within {dist}", out.results.len());
        }
        "knn" => {
            let r = open_tree(&get("r")?)?;
            let s = open_tree(&get("s")?)?;
            let k: usize = get("k")?.parse().map_err(|e| format!("--k: {e}"))?;
            let out = knn_join(&r, &s, k);
            for (rid, nn) in &out.groups {
                for p in nn {
                    println!("{rid},{},{}", p.s, p.dist);
                }
            }
            eprintln!("# {} R-objects × {k} neighbours", out.groups.len());
        }
        "serve" => {
            let r = open_tree(&get("r")?)?;
            let s = open_tree(&get("s")?)?;
            let mut sopts = ServeOptions {
                base_config: cfg.clone(),
                ..ServeOptions::default()
            };
            if let Some(v) = flags.get("mem-budget") {
                sopts.mem_budget_bytes = v.parse().map_err(|e| format!("--mem-budget: {e}"))?;
            }
            if let Some(v) = flags.get("max-waiting") {
                sopts.max_waiting = v.parse().map_err(|e| format!("--max-waiting: {e}"))?;
            }
            if let Some(v) = flags.get("max-request-bytes") {
                sopts.max_request_bytes =
                    v.parse().map_err(|e| format!("--max-request-bytes: {e}"))?;
            }
            if let Some(v) = flags.get("max-threads") {
                sopts.max_threads = v.parse().map_err(|e| format!("--max-threads: {e}"))?;
            }
            let state_dir = flags.get("state-dir").map(std::path::PathBuf::from);
            let listen = match flags.get("listen") {
                None => None,
                Some(addr) => {
                    let mut topts = TransportOptions::default();
                    if let Some(v) = flags.get("max-conns") {
                        topts.max_conns = v.parse().map_err(|e| format!("--max-conns: {e}"))?;
                    }
                    if let Some(v) = flags.get("idle-timeout-ms") {
                        let ms: u64 = v.parse().map_err(|e| format!("--idle-timeout-ms: {e}"))?;
                        topts.idle_timeout = std::time::Duration::from_millis(ms);
                    }
                    Some((addr.clone(), topts))
                }
            };
            return serve_loop(&r, &s, sopts, state_dir, listen);
        }
        "bench" => {
            let n: usize = flags
                .get("n")
                .map_or(Ok(2000), |v| v.parse())
                .map_err(|e| format!("--n: {e}"))?;
            let k: usize = flags
                .get("k")
                .map_or(Ok(100), |v| v.parse())
                .map_err(|e| format!("--k: {e}"))?;
            let seed: u64 = flags
                .get("seed")
                .map_or(Ok(1), |v| v.parse())
                .map_err(|e| format!("--seed: {e}"))?;
            let json_out = flags.get("json").map(|v| {
                if v == "true" {
                    "BENCH_kdj.json".to_string()
                } else {
                    v.clone()
                }
            });
            let rows = run_bench_matrix(n, k, seed, &cfg);
            for row in &rows {
                eprintln!(
                    "# {:<4} {:<7} threads={} k={} wall={:.4}s nodes={} dists={} results={} stolen={} idle={}ns buf={}h/{}m/{}e",
                    row.op,
                    row.algo,
                    row.threads,
                    row.k,
                    row.wall_time_s,
                    row.node_accesses,
                    row.pairs_computed,
                    row.results,
                    row.pairs_stolen,
                    row.barrier_idle_ns,
                    row.buffer_hits,
                    row.buffer_misses,
                    row.buffer_evictions
                );
            }
            if let Some(path) = json_out {
                let json = bench_rows_json(n, k, seed, &rows);
                std::fs::write(&path, json).map_err(|e| format!("{path}: {e}"))?;
                println!("wrote {} bench rows to {path}", rows.len());
            }
        }
        _ => return Err(format!("unknown command '{cmd}'")),
    }
    Ok(ExitCode::SUCCESS)
}

/// The `serve` command: one shared [`Server`] over the two trees,
/// served by the transport of [`amdj_core::serve::transport`] — over
/// stdin/stdout as one in-order connection (the default), or with
/// `--listen` over TCP to concurrent clients. Both share the
/// resume-on-start and checkpoint-on-exit bracket around `--state-dir`,
/// and both poll the SIGINT flag, so an interrupt always gets its
/// chance to drain, checkpoint, and exit 75.
fn serve_loop(
    r: &RTree<2>,
    s: &RTree<2>,
    opts: ServeOptions,
    state_dir: Option<std::path::PathBuf>,
    listen: Option<(String, TransportOptions)>,
) -> Result<ExitCode, String> {
    install_sigint_handler();
    let server = Server::new(r, s, opts);
    if let Some(dir) = &state_dir {
        let ids = server
            .resume_cursors_from(dir)
            .map_err(|e| format!("{}: {e}", dir.display()))?;
        for id in &ids {
            eprintln!("# resumed cursor `{id}`");
        }
    }
    let objects = format!("{} x {} objects", r.len(), s.len());
    let stats = match listen {
        Some((addr, topts)) => {
            // Port 0 requests an ephemeral port, so scripts parse the
            // bound address from the "# listening on" line.
            let listener =
                std::net::TcpListener::bind(&addr).map_err(|e| format!("{addr}: {e}"))?;
            let bound = listener.local_addr().map_err(|e| e.to_string())?;
            eprintln!("# serving {objects}; one JSON request per line per connection");
            eprintln!("# listening on {bound}");
            serve_listener(&server, listener, &topts, &INTERRUPTED)
                .map_err(|e| format!("{addr}: {e}"))?
        }
        None => {
            eprintln!("# serving {objects}; one JSON request per line on stdin");
            serve_stream(&server, std::io::stdin(), std::io::stdout(), &INTERRUPTED)
        }
    };
    eprintln!(
        "# served {} request(s) over {} connection(s); rejected {} at the connection cap, dropped {} idle and {} oversized",
        stats.requests,
        stats.accepted,
        stats.rejected,
        stats.idle_disconnects,
        stats.oversize_disconnects,
    );
    if let Some(dir) = &state_dir {
        let ids = server
            .checkpoint_open_cursors(dir)
            .map_err(|e| format!("{}: {e}", dir.display()))?;
        if !ids.is_empty() {
            eprintln!(
                "# checkpointed {} open cursor(s) into {}",
                ids.len(),
                dir.display()
            );
        }
    }
    if INTERRUPTED.load(Ordering::SeqCst) {
        eprintln!("# interrupted; restart with the same --state-dir to resume open cursors");
        return Ok(ExitCode::from(EXIT_INTERRUPTED));
    }
    Ok(ExitCode::SUCCESS)
}

/// One measured cell of the benchmark matrix.
struct BenchRow {
    op: &'static str,
    algo: &'static str,
    threads: usize,
    k: usize,
    wall_time_s: f64,
    node_accesses: u64,
    pairs_computed: u64,
    results: usize,
    pairs_stolen: u64,
    steal_attempts: u64,
    barrier_idle_ns: u64,
    buffer_hits: u64,
    buffer_misses: u64,
    /// Shared-buffer evictions this row's inserts caused — the
    /// cross-query thrashing pressure signal of the serve rows, and the
    /// buffer-budget pressure of the one-shot rows.
    buffer_evictions: u64,
    /// `hits / (hits + misses)`, 0 when the row touched no pages.
    buffer_hit_rate: f64,
    /// Snapshots written during the run (non-zero only for the
    /// checkpoint-overhead rows).
    checkpoints: u64,
    /// Per-worker buffer hits, trimmed to the row's thread count.
    hits_by_worker: Vec<u64>,
    misses_by_worker: Vec<u64>,
    /// Admission queue wait of a serve-mode query (0 off serve rows).
    queue_wait_ns: u64,
    /// Serve-wide admission rejections observed by the row's server
    /// (0 off serve rows).
    admission_rejections: u64,
    /// The serve-mode query id this row attributes (empty off serve
    /// rows).
    query_id: String,
    /// How the serve row's query reached the server (`"tcp"`; empty
    /// off serve rows).
    transport: &'static str,
    /// Concurrent client connections of the serve section (0 off serve
    /// rows).
    connections: usize,
}

/// `hits / (hits + misses)`, 0 when nothing was fetched.
fn hit_rate(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// Runs every kdj/idj algorithm (sequential and parallel at several thread
/// counts) over a deterministic generated workload and reports wall time
/// plus the paper's work counters.
fn run_bench_matrix(n: usize, k: usize, seed: u64, cfg: &JoinConfig) -> Vec<BenchRow> {
    let a = uniform_points(n, unit_universe(), seed);
    let b = clustered_points(n, 16, 0.02, unit_universe(), seed + 1);
    let r = RTree::bulk_load(RTreeParams::paper_defaults(), a);
    let s = RTree::bulk_load(RTreeParams::paper_defaults(), b);
    let thread_counts = [1usize, 2, 4, 8];
    let mut rows = Vec::new();
    // Set by the checkpoint-overhead runs, harvested (and reset) per row.
    let ckpt_written = std::cell::Cell::new(0u64);
    let mut record = |op, algo, threads: usize, run: &mut dyn FnMut() -> JoinOutput| {
        let start = std::time::Instant::now();
        let out = run();
        let wall = start.elapsed().as_secs_f64();
        let trim = threads.min(out.stats.buffer_hits_by_worker.len());
        rows.push(BenchRow {
            op,
            algo,
            threads,
            k,
            wall_time_s: wall,
            node_accesses: out.stats.node_requests,
            pairs_computed: out.stats.real_dist,
            results: out.results.len(),
            pairs_stolen: out.stats.pairs_stolen,
            steal_attempts: out.stats.steal_attempts,
            barrier_idle_ns: out.stats.barrier_idle_ns,
            buffer_hits: out.stats.buffer_hits,
            buffer_misses: out.stats.buffer_misses,
            buffer_evictions: out.stats.buffer_evictions,
            buffer_hit_rate: hit_rate(out.stats.buffer_hits, out.stats.buffer_misses),
            checkpoints: ckpt_written.take(),
            hits_by_worker: out.stats.buffer_hits_by_worker[..trim].to_vec(),
            misses_by_worker: out.stats.buffer_misses_by_worker[..trim].to_vec(),
            queue_wait_ns: 0,
            admission_rejections: 0,
            query_id: String::new(),
            transport: "",
            connections: 0,
        });
    };
    record("kdj", "hs", 1, &mut || hs_kdj(&r, &s, k, cfg));
    record("kdj", "b", 1, &mut || b_kdj(&r, &s, k, cfg));
    record("kdj", "am", 1, &mut || {
        am_kdj(&r, &s, k, cfg, &AmKdjOptions::default())
    });
    // SJ-SORT gets the paper's favorable oracle: the true k-th distance
    // (taken from an uncounted B-KDJ run before the measured one starts).
    let oracle_dmax = b_kdj(&r, &s, k, cfg).results.last().map_or(0.0, |p| p.dist);
    record("kdj", "sjsort", 1, &mut || {
        sj_sort(&r, &s, k, oracle_dmax, cfg)
    });
    // One-thread par rows would run exactly the b and am rows' code.
    for &t in &thread_counts[1..] {
        record("kdj", "par", t, &mut || par_b_kdj(&r, &s, k, cfg, t));
    }
    for &t in &thread_counts[1..] {
        record("kdj", "par-am", t, &mut || {
            par_am_kdj(&r, &s, k, cfg, &AmKdjOptions::default(), t)
        });
    }
    // The checkpoint-overhead row: the same aggressive kdj as the "am"
    // row above, but run through the resumable episode loop, pausing
    // every few thousand expansions to serialize and write a snapshot.
    // Comparing its wall time against "am" prices checkpointing.
    let ckpt_path =
        std::env::temp_dir().join(format!("amdj-bench-ckpt-{}.snap", std::process::id()));
    record("kdj", "am-ckpt", 1, &mut || {
        let mut resume = None;
        let mut written = 0u64;
        loop {
            let ctl = PauseCtl::every(5_000);
            match kdj_resumable(&r, &s, k, cfg, true, 1, None, resume.take(), Some(&ctl))
                .expect("fresh or self-produced snapshot is always valid")
            {
                Checkpointed::Done(out) => {
                    ckpt_written.set(written);
                    return out;
                }
                Checkpointed::Suspended(snap, _) => {
                    write_checkpoint(&ckpt_path, snap.as_ref()).expect("checkpoint write");
                    written += 1;
                    resume = Some(*snap);
                }
            }
        }
    });
    let _ = std::fs::remove_file(&ckpt_path);
    record("idj", "hs", 1, &mut || {
        let mut cursor = HsIdj::new(&r, &s, cfg);
        let mut results = Vec::with_capacity(k);
        while results.len() < k {
            match cursor.next() {
                Some(p) => results.push(p),
                None => break,
            }
        }
        JoinOutput {
            results,
            stats: cursor.stats(),
        }
    });
    record("idj", "am", 1, &mut || {
        let mut cursor = AmIdj::new(&r, &s, cfg, AmIdjOptions::default());
        let mut results = Vec::with_capacity(k);
        while results.len() < k {
            match cursor.next() {
                Some(p) => results.push(p),
                None => break,
            }
        }
        JoinOutput {
            results,
            stats: cursor.stats(),
        }
    });
    for t in thread_counts {
        record("idj", "par-am", t, &mut || {
            par_am_idj(&r, &s, k, cfg, &AmIdjOptions::default(), t)
        });
    }
    // The serve section: 144 concurrent mixed queries — one-shot KDJ
    // at several knob settings plus pull-driven IDJ cursors — driven
    // over a real TCP listener in front of one `serve::Server`, 16
    // client connections each carrying its share of the queries
    // serially. Every query's result stream is re-parsed off the wire
    // (the protocol prints distances in shortest round-trip form) and
    // asserted bit-identical to its serial one-shot equivalent before
    // its row is recorded; the row then carries the per-query
    // attribution (buffer hits/misses/evictions, admission queue wait)
    // and the transport provenance.
    enum ServeKind {
        Kdj { k: usize, spec: QuerySpec },
        Idj { take: usize, batch: usize },
    }
    const SERVE_QUERIES: usize = 144;
    const SERVE_CONNS: usize = 16;
    let mut cells = Vec::new();
    for i in 0..SERVE_QUERIES {
        let kind = match i % 4 {
            0 => ServeKind::Kdj {
                k: (k / (1 + i % 3)).max(1),
                spec: QuerySpec::default(),
            },
            1 => ServeKind::Kdj {
                k: (k / 2).max(1),
                spec: QuerySpec {
                    aggressive: false,
                    threads: 2,
                },
            },
            2 => ServeKind::Idj {
                take: k.max(3),
                batch: (k / 3).max(1),
            },
            _ => ServeKind::Kdj {
                k: (k / 4).max(1),
                spec: QuerySpec {
                    threads: 2,
                    ..QuerySpec::default()
                },
            },
        };
        cells.push((format!("q{i:03}"), kind));
    }
    // Serial expectations through the ordinary one-shot entry points.
    let expected: Vec<Vec<ResultPair>> = cells
        .iter()
        .map(|(_, kind)| match kind {
            ServeKind::Kdj { k, spec } => {
                let t = (spec.threads as usize).max(1);
                match (spec.aggressive, t > 1) {
                    (true, false) => am_kdj(&r, &s, *k, cfg, &AmKdjOptions::default()).results,
                    (true, true) => {
                        par_am_kdj(&r, &s, *k, cfg, &AmKdjOptions::default(), t).results
                    }
                    (false, false) => b_kdj(&r, &s, *k, cfg).results,
                    (false, true) => par_b_kdj(&r, &s, *k, cfg, t).results,
                }
            }
            ServeKind::Idj { take, .. } => {
                let mut cursor = AmIdj::new(&r, &s, cfg, AmIdjOptions::default());
                let mut out = Vec::with_capacity(*take);
                while out.len() < *take {
                    match cursor.next() {
                        Some(p) => out.push(p),
                        None => break,
                    }
                }
                out
            }
        })
        .collect();
    let server = Server::new(
        &r,
        &s,
        ServeOptions {
            base_config: cfg.clone(),
            ..ServeOptions::default()
        },
    );
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bench serve bind");
    let addr = listener.local_addr().expect("bench serve local addr");
    let topts = TransportOptions::default();
    let stop = AtomicBool::new(false);
    type QuerySlot = Option<(f64, Vec<ResultPair>)>;
    let slots: Mutex<Vec<QuerySlot>> = Mutex::new((0..cells.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        let lh = scope.spawn(|| serve_listener(&server, listener, &topts, &stop));
        let clients: Vec<_> = (0..SERVE_CONNS)
            .map(|c| {
                let (cells, slots) = (&cells, &slots);
                scope.spawn(move || {
                    let stream = std::net::TcpStream::connect(addr).expect("bench serve connect");
                    stream.set_nodelay(true).expect("bench serve nodelay");
                    let mut reader =
                        std::io::BufReader::new(stream.try_clone().expect("bench serve clone"));
                    let mut stream = stream;
                    let mut request = |req: Request| -> String {
                        stream
                            .write_all(req.encode().as_bytes())
                            .and_then(|()| stream.write_all(b"\n"))
                            .expect("bench serve write");
                        let mut resp = String::new();
                        reader.read_line(&mut resp).expect("bench serve read");
                        assert!(
                            resp.contains("\"ok\":true"),
                            "bench serve request failed: {resp}"
                        );
                        resp
                    };
                    for (i, (id, kind)) in cells.iter().enumerate() {
                        if i % SERVE_CONNS != c {
                            continue;
                        }
                        let start = std::time::Instant::now();
                        let id = id.clone();
                        let results = match kind {
                            ServeKind::Kdj { k, spec } => {
                                parse_wire_results(&request(Request::Kdj {
                                    id,
                                    k: *k as u64,
                                    spec: spec.clone(),
                                }))
                            }
                            ServeKind::Idj { take, batch } => {
                                request(Request::IdjOpen {
                                    id: id.clone(),
                                    take: *take as u64,
                                    spec: QuerySpec::default(),
                                });
                                let mut out = Vec::with_capacity(*take);
                                loop {
                                    let resp = request(Request::IdjPull {
                                        id: id.clone(),
                                        n: *batch as u64,
                                    });
                                    let done = resp.contains("\"done\":true");
                                    out.extend(parse_wire_results(&resp));
                                    if done || out.len() >= *take {
                                        break;
                                    }
                                }
                                request(Request::IdjClose { id });
                                out
                            }
                        };
                        slots.lock().expect("bench serve slots")[i] =
                            Some((start.elapsed().as_secs_f64(), results));
                    }
                })
            })
            .collect();
        for h in clients {
            h.join().expect("bench serve client panicked");
        }
        stop.store(true, Ordering::SeqCst);
        lh.join()
            .expect("bench serve listener panicked")
            .expect("bench serve transport");
    });
    let measured: Vec<(f64, Vec<ResultPair>)> = slots
        .into_inner()
        .expect("bench serve slots")
        .into_iter()
        .map(|slot| slot.expect("every serve query measured"))
        .collect();
    for (((id, _), (_, got)), want) in cells.iter().zip(&measured).zip(&expected) {
        assert_eq!(
            got.len(),
            want.len(),
            "serve query {id}: result count diverged from the serial equivalent"
        );
        for (a, b) in got.iter().zip(want) {
            assert!(
                a.r == b.r && a.s == b.s && a.dist.to_bits() == b.dist.to_bits(),
                "serve query {id} diverged from its serial equivalent over the wire"
            );
        }
    }
    let reports = server.query_reports();
    let rejections = server.admission_rejections();
    for (((id, kind), (wall, _)), want) in cells.iter().zip(&measured).zip(&expected) {
        let (algo, rep_op, kq, threads): (&'static str, &'static str, usize, usize) = match kind {
            ServeKind::Kdj { k, spec } => ("kdj", "kdj", *k, (spec.threads as usize).max(1)),
            ServeKind::Idj { take, .. } => ("idj", "idj", *take, 1),
        };
        let rep = reports
            .iter()
            .find(|r| r.id == *id && r.op == rep_op)
            .expect("every serve query leaves a report");
        rows.push(BenchRow {
            op: "serve",
            algo,
            threads,
            k: kq,
            wall_time_s: *wall,
            node_accesses: 0,
            pairs_computed: 0,
            results: want.len(),
            pairs_stolen: 0,
            steal_attempts: 0,
            barrier_idle_ns: 0,
            buffer_hits: rep.buffer_hits,
            buffer_misses: rep.buffer_misses,
            buffer_evictions: rep.buffer_evictions,
            buffer_hit_rate: hit_rate(rep.buffer_hits, rep.buffer_misses),
            checkpoints: 0,
            hits_by_worker: Vec::new(),
            misses_by_worker: Vec::new(),
            queue_wait_ns: rep.queue_wait_ns,
            admission_rejections: rejections,
            query_id: id.clone(),
            transport: "tcp",
            connections: SERVE_CONNS,
        });
    }
    rows
}

/// Scans the `results` array off a serve Results response line. The
/// protocol prints distances in shortest round-trip form, so the f64s
/// recovered here are bit-identical to the server's.
fn parse_wire_results(line: &str) -> Vec<ResultPair> {
    let Some(arr) = line.split("\"results\":[").nth(1) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut rest = arr;
    while let Some(idx) = rest.find("\"r\":") {
        rest = &rest[idx + 4..];
        let comma = rest.find(',').expect("wire pair: r unterminated");
        let r: u64 = rest[..comma].parse().expect("wire pair: r");
        let idx = rest.find("\"s\":").expect("wire pair: no s");
        rest = &rest[idx + 4..];
        let comma = rest.find(',').expect("wire pair: s unterminated");
        let s: u64 = rest[..comma].parse().expect("wire pair: s");
        let idx = rest.find("\"dist\":").expect("wire pair: no dist");
        rest = &rest[idx + 7..];
        let end = rest.find('}').expect("wire pair: dist unterminated");
        let dist: f64 = rest[..end].parse().expect("wire pair: dist");
        out.push(ResultPair { r, s, dist });
        rest = &rest[end..];
    }
    out
}

/// `[a, b, c]` — no JSON dependency, numbers only.
fn json_u64_array(vals: &[u64]) -> String {
    let inner: Vec<String> = vals.iter().map(u64::to_string).collect();
    format!("[{}]", inner.join(", "))
}

/// Serializes the matrix without a JSON dependency: every value is a
/// number or a fixed-vocabulary string, so manual escaping is not needed.
fn bench_rows_json(n: usize, k: usize, seed: u64, rows: &[BenchRow]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    // Bumped whenever rows/fields change shape: 2 added the sjsort kdj row
    // and the hs idj row; 3 added the steal column, the scheduler
    // counters (pairs_stolen / steal_attempts / barrier_idle_ns), and the
    // 8-thread steal-on vs steal-off rows; 4 added the partition column,
    // the buffer hit/miss totals with their per-worker breakdowns, and
    // the 8-thread locality vs round-robin rows; 5 added the am-ckpt
    // checkpoint-overhead row and the checkpoints_written column; 6 added
    // the prefilter column, the prefilter's two reject/skip counters,
    // and the kdj "am" prefilter-off ablation row; 7 added the
    // dataset and partitions columns, the partition-pair ledger
    // counters, and the partitioned-vs-monolithic ablation rows on the
    // clustered and arizona workloads; 8 added the serve section (32
    // concurrent mixed queries through the in-process join server, one
    // op="serve" row per query, bit-identity asserted against serial
    // equivalents) and the query_id / queue_wait_ns /
    // admission_rejections columns; 9 moved the serve section onto the
    // TCP transport (144 queries over 16 concurrent connections,
    // bit-identity re-parsed off the wire) and added the transport /
    // connections / buffer_evictions / buffer_hit_rate columns; 10
    // removed the partitioned-plan ablation rows with the plan itself,
    // the partitions / partition-pair ledger columns, and the dataset
    // column, which every remaining row had as "uniform-clustered"; 11
    // removed the quantized prefilter, and with it the prefilter-off
    // ablation row and the three columns 6 added; 12 removed the steal
    // and partition columns with the scheduling switches, and with them
    // the steal-off rows and the 8-thread round-robin rows; 13 removed
    // the one-thread kdj par and par-am rows, which run exactly the b and
    // am rows' code now that one worker is the sequential join.
    out.push_str("  \"schema_version\": 13,\n");
    out.push_str(&format!(
        "  \"workload\": {{ \"n\": {n}, \"k\": {k}, \"seed\": {seed}, \"r\": \"uniform\", \"s\": \"clustered\" }},\n"
    ));
    out.push_str("  \"runs\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"op\": \"{}\", \"algo\": \"{}\", \"query_id\": \"{}\", \"transport\": \"{}\", \"connections\": {}, \"threads\": {}, \"k\": {}, \"wall_time_s\": {:.6}, \"node_accesses\": {}, \"pairs_computed\": {}, \"results\": {}, \"pairs_stolen\": {}, \"steal_attempts\": {}, \"barrier_idle_ns\": {}, \"buffer_hits\": {}, \"buffer_misses\": {}, \"buffer_evictions\": {}, \"buffer_hit_rate\": {:.6}, \"queue_wait_ns\": {}, \"admission_rejections\": {}, \"checkpoints_written\": {}, \"buffer_hits_by_worker\": {}, \"buffer_misses_by_worker\": {} }}{}\n",
            row.op,
            row.algo,
            row.query_id,
            row.transport,
            row.connections,
            row.threads,
            row.k,
            row.wall_time_s,
            row.node_accesses,
            row.pairs_computed,
            row.results,
            row.pairs_stolen,
            row.steal_attempts,
            row.barrier_idle_ns,
            row.buffer_hits,
            row.buffer_misses,
            row.buffer_evictions,
            row.buffer_hit_rate,
            row.queue_wait_ns,
            row.admission_rejections,
            row.checkpoints,
            json_u64_array(&row.hits_by_worker),
            json_u64_array(&row.misses_by_worker),
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            usage()
        }
    }
}
