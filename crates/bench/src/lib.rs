//! Experiment harness for reproducing the paper's evaluation (§5).
//!
//! Each binary in `src/bin/` regenerates one table or figure; this library
//! carries the shared pieces: the TIGER-like workload, tree construction
//! at the paper's configuration, per-run state reset, the `Dmax` oracle,
//! and plain-text table rendering. [`matrix`] is `amdj bench`'s
//! algorithm-and-serve matrix.
//!
//! Environment knobs (all optional):
//!
//! * `AMDJ_SCALE` — workload scale relative to the paper's cardinalities
//!   (default 0.19 ⇒ ~120k streets / ~36k hydro objects);
//! * `AMDJ_SEED` — workload seed (default 2000);
//! * `AMDJ_KMAX` — cap on the largest k the sweeps use (default 100000).

#![deny(unsafe_code)]

pub mod experiments;
pub mod matrix;

use amdj_core::engine::{self, JoinKind, JoinRequest};
use amdj_core::{b_kdj, Checkpointed, JoinConfig, JoinOutput};
use amdj_datagen::tiger;
use amdj_datagen::Dataset;
use amdj_rtree::{RTree, RTreeParams};

/// A generated workload: the two data sets to join.
pub struct Workload {
    /// The outer (R) set — street segments.
    pub streets: Dataset,
    /// The inner (S) set — hydrographic objects.
    pub hydro: Dataset,
}

/// Reads an `f64` env knob.
fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Reads a `u64` env knob.
fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The workload scale (`AMDJ_SCALE`, default 0.19).
pub fn scale() -> f64 {
    env_f64("AMDJ_SCALE", 0.19)
}

/// The workload seed (`AMDJ_SEED`, default 2000).
pub fn seed() -> u64 {
    env_u64("AMDJ_SEED", 2000)
}

/// The largest k used by sweeps (`AMDJ_KMAX`, default 100,000).
pub fn k_max() -> usize {
    env_u64("AMDJ_KMAX", 100_000) as usize
}

/// The standard k sweep of §5.2/§5.4, clipped to [`k_max`].
pub fn k_sweep() -> Vec<usize> {
    [10usize, 100, 1_000, 10_000, 100_000]
        .into_iter()
        .filter(|&k| k <= k_max())
        .collect()
}

/// Generates the Arizona-like workload at the configured scale.
pub fn arizona() -> Workload {
    let (streets, hydro) = tiger::arizona_workload(scale(), seed());
    Workload { streets, hydro }
}

/// Builds the two R*-trees at the paper's configuration with the given
/// node-buffer budget.
pub fn build_trees(w: &Workload, buffer_bytes: usize) -> (RTree<2>, RTree<2>) {
    let params = RTreeParams {
        buffer_bytes,
        ..RTreeParams::paper_defaults()
    };
    let r = RTree::bulk_load(params.clone(), w.streets.clone());
    let s = RTree::bulk_load(params, w.hydro.clone());
    (r, s)
}

/// Cold-starts both trees for a measured run: clears buffers, resets
/// counters.
pub fn reset(r: &RTree<2>, s: &RTree<2>) {
    r.clear_buffer();
    s.clear_buffer();
    r.reset_stats();
    s.reset_stats();
}

/// The true `Dmax` for `k` — the paper's favorable SJ-SORT input —
/// obtained by running B-KDJ with unbounded memory.
pub fn oracle_dmax(r: &RTree<2>, s: &RTree<2>, k: usize) -> f64 {
    let out = b_kdj(r, s, k, &JoinConfig::unbounded());
    out.results.last().map_or(0.0, |p| p.dist)
}

/// One uninterrupted [`engine::run`] of `kind` on `threads` workers.
pub fn run_join(
    r: &RTree<2>,
    s: &RTree<2>,
    kind: JoinKind,
    threads: usize,
    cfg: &JoinConfig,
) -> JoinOutput {
    engine::run(r, s, JoinRequest::new(kind, threads), cfg, None)
        .ok()
        .and_then(Checkpointed::done)
        .expect("a fresh join without a pause control finishes")
}

/// A plain-text table with right-aligned columns.
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "table row arity");
        self.rows.push(cells);
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:>w$}", w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a count with thousands separators.
pub fn fmt_count(v: u64) -> String {
    let s = v.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// Formats seconds with adaptive precision.
pub fn fmt_secs(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}s")
    } else if v >= 1.0 {
        format!("{v:.1}s")
    } else {
        format!("{:.0}ms", v * 1000.0)
    }
}

/// Prints the standard experiment banner (workload sizes, configuration).
pub fn banner(name: &str, w: &Workload) {
    println!(
        "[{name}] workload: {} streets × {} hydro (scale {}, seed {})",
        fmt_count(w.streets.len() as u64),
        fmt_count(w.hydro.len() as u64),
        scale(),
        seed()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["k", "value"]);
        t.row(vec!["10".into(), "1,234".into()]);
        t.row(vec!["100000".into(), "5".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("100000"));
        let lines: Vec<&str> = s.lines().filter(|l| !l.is_empty()).collect();
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn count_formatting() {
        assert_eq!(fmt_count(0), "0");
        assert_eq!(fmt_count(999), "999");
        assert_eq!(fmt_count(1000), "1,000");
        assert_eq!(fmt_count(1234567), "1,234,567");
    }

    #[test]
    fn secs_formatting() {
        assert_eq!(fmt_secs(0.0123), "12ms");
        assert_eq!(fmt_secs(2.34), "2.3s");
        assert_eq!(fmt_secs(123.4), "123s");
    }

    #[test]
    fn k_sweep_respects_cap() {
        // Default cap includes everything.
        assert!(k_sweep().contains(&100_000) || k_max() < 100_000);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_enforced() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["1".into()]);
    }
}
