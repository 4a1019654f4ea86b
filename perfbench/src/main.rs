//! The AMDJ benchmark: one command runs a named workload against the
//! library's public entry points, checks every result against the serial
//! library call, and ends with one JSON line of metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-kdj --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` records spans
//! around every call into a layer, reports the per-layer metrics, and
//! writes the spans to `perfbench/out/`. See `perfbench/README.md`.

mod common;
mod idj_cursor;
mod paper_kdj;
mod report;
mod serve_mixed;
mod stats;
mod trace;
mod wire;

use std::process::ExitCode;

use common::Ctx;
use report::{Report, Tally};
use trace::Tracer;

const WORKLOADS: &[&str] = &["paper-kdj", "serve-mixed", "idj-cursor"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1;
    let mut seconds: f64 = 30.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = val.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = val.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run(args: &Args) -> Result<String, String> {
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tracer: Tracer::new(args.trace),
        untraced: Tracer::new(false),
        report: Report::default(),
        tally: Tally::default(),
    };
    match args.workload.as_str() {
        "paper-kdj" => paper_kdj::run(&mut ctx)?,
        "serve-mixed" => serve_mixed::run(&mut ctx)?,
        _ => idj_cursor::run(&mut ctx)?,
    }
    if ctx.tracer.enabled() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        let n = ctx
            .tracer
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("trace: {n} spans written to {}", path.display());
        for (layer, s) in ctx.tracer.self_seconds_by_layer() {
            println!("self time {layer}: {s:.6} s");
        }
    }
    ctx.report.json(args.trace, &ctx.tally)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(3)
        }
    }
}
