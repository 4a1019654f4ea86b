//! End-to-end checks of the `amdj` command line, driving the built
//! binary the way a user does.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn amdj(args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_amdj"))
        .args(args)
        .output()
        .expect("amdj starts");
    assert!(
        out.status.success(),
        "amdj {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// The count on a `kdj` run's closing "# R results, N distance
/// computations, …" line.
fn distance_computations(out: &Output) -> u64 {
    let stderr = String::from_utf8_lossy(&out.stderr);
    let line = stderr
        .lines()
        .find(|l| l.contains(" distance computations"))
        .unwrap_or_else(|| panic!("no summary line in {stderr}"));
    let count = line.split(", ").nth(1).and_then(|f| f.split(' ').next());
    count
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("unparsable summary line {line:?}"))
}

/// Generates and indexes `n` uniform points under `dir`; returns the
/// index path.
fn uniform_index(dir: &Path, n: usize, seed: u64) -> PathBuf {
    let csv = dir.join(format!("u{seed}.csv"));
    let index = dir.join(format!("u{seed}.amdj"));
    let (n, seed) = (n.to_string(), seed.to_string());
    amdj(&[
        "generate",
        "--kind",
        "uniform",
        "--n",
        &n,
        "--seed",
        &seed,
        "--out",
        csv.to_str().unwrap(),
    ]);
    amdj(&[
        "build",
        "--input",
        csv.to_str().unwrap(),
        "--out",
        index.to_str().unwrap(),
    ]);
    index
}

/// A `kdj` run that pauses for a checkpoint every 10 expansions still
/// reports the whole join's work, not only its last episode's: at least
/// the uninterrupted run's distance computations (a resumed episode can
/// redo a little work, never skip any), with the same results.
#[test]
fn checkpointed_kdj_reports_every_episodes_work() {
    let dir = std::env::temp_dir().join(format!("amdj-cli-ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (r, s) = (uniform_index(&dir, 8000, 3), uniform_index(&dir, 8000, 9));
    let snap = dir.join("run.snap");
    let kdj = [
        "kdj",
        "--r",
        r.to_str().unwrap(),
        "--s",
        s.to_str().unwrap(),
    ];
    let plain = amdj(&[&kdj[..], &["--k", "100", "--algo", "am"]].concat());
    let paused = amdj(
        &[
            &kdj[..],
            &["--k", "100", "--algo", "am", "--checkpoint-every", "10"],
            &["--checkpoint-path", snap.to_str().unwrap()],
        ]
        .concat(),
    );
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(paused.stdout, plain.stdout, "checkpointed results differ");
    let episodes = String::from_utf8_lossy(&paused.stderr)
        .matches("# checkpoint:")
        .count();
    assert!(episodes > 1, "only {episodes} checkpoints written");
    let (whole, summed) = (
        distance_computations(&plain),
        distance_computations(&paused),
    );
    assert!(
        summed >= whole,
        "{episodes} checkpointed episodes report {summed} distance computations, \
         the uninterrupted run {whole}"
    );
}
