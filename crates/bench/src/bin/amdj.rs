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
//! `bench` runs [`amdj_bench::matrix`]: every kdj/idj algorithm over a
//! generated uniform × clustered workload, then 144 mixed queries over a
//! TCP `serve` section. It prints the JSON document (schema 14: each
//! one-shot row's `JoinStats` and each serve row's `QueryReport` under
//! their field names) on stdout, or writes it to `--json`'s file
//! (`BENCH_kdj.json` by default).
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
//! disconnecting clients that go silent; both are usage errors without
//! `--listen`. Executing queries are
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
use std::sync::Arc;

use amdj_core::serve::{
    transport::{serve_listener, serve_stream, TransportOptions},
    ServeOptions, Server,
};
use amdj_core::{
    hs_kdj, idj_resumable, kdj_resumable, knn_join, read_checkpoint, within_join, write_checkpoint,
    AmIdj, AmIdjOptions, Checkpointed, EngineSnapshot, JoinConfig, JoinOutput, PauseCtl,
    SnapshotError,
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

/// Runs a resumable join to completion, or, when a checkpoint flag was
/// given, as a sequence of episodes: run until the pause control fires,
/// write a checkpoint, then either continue in-process (a periodic
/// `--checkpoint-every` pause) or stop (SIGINT or the
/// `AMDJ_INTERRUPT_AFTER` hook). Returns `None` when interrupted — the
/// final checkpoint is on disk and the caller exits with
/// [`EXIT_INTERRUPTED`].
#[allow(clippy::type_complexity)]
fn run_resumable(
    ckpt: Option<CkptCli>,
    run: &dyn Fn(
        Option<EngineSnapshot<2>>,
        Option<&PauseCtl>,
    ) -> Result<Checkpointed<2>, SnapshotError>,
) -> Result<Option<JoinOutput>, String> {
    let Some(ckpt) = ckpt else {
        return match run(None, None).map_err(|e| e.to_string())? {
            Checkpointed::Done(out) => Ok(Some(out)),
            Checkpointed::Suspended(..) => unreachable!("no pause control"),
        };
    };
    let mut resume = load_resume(&ckpt.resume)?;
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
        let outcome = run(resume.take(), Some(&ctl));
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
                    eprintln!("# interrupted; rerun with --resume to finish");
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
                let Some(out) = run_resumable(ckpt, &|resume, pause| {
                    kdj_resumable(&r, &s, k, &cfg, aggressive, threads, None, resume, pause)
                })?
                else {
                    return Ok(ExitCode::from(EXIT_INTERRUPTED));
                };
                out
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
            let ckpt = parse_ckpt(&flags)?;
            if algo == "par-am" || ckpt.is_some() {
                let threads = match algo {
                    "am" => 1,
                    "par-am" => threads,
                    other => return Err(format!("unknown algo '{other}'")),
                };
                let opts = AmIdjOptions::default();
                let Some(out) = run_resumable(ckpt, &|resume, pause| {
                    idj_resumable(&r, &s, take, &cfg, &opts, threads, None, resume, pause)
                })?
                else {
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
                None => {
                    if let Some(flag) = ["max-conns", "idle-timeout-ms"]
                        .into_iter()
                        .find(|f| flags.contains_key(*f))
                    {
                        return Err(format!("--{flag} requires --listen"));
                    }
                    None
                }
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
            let matrix = amdj_bench::matrix::run(n, k, seed, &cfg);
            match json_out {
                Some(path) => {
                    std::fs::write(&path, matrix.to_json()).map_err(|e| format!("{path}: {e}"))?;
                    println!("wrote {} bench rows to {path}", matrix.rows());
                }
                None => print!("{}", matrix.to_json()),
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

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            usage()
        }
    }
}
