//! The run's result: the correctness tally, the metrics, and the one
//! JSON line the benchmark ends with.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use amdj_core::ResultPair;
use amdj_datagen::Dataset;
use amdj_geom::Rect;

/// End-to-end metrics, reported by untraced runs (`--trace 0`), with
/// their units. Every workload reports every one.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("p50_ms", "ms"), ("peak_rss_mb", "MB")];

/// Per-layer metrics, reported by traced runs (`--trace 1`). A layer a
/// workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("datagen.gen_s", "s"),
    ("rtree.bulk_load_s", "s"),
    ("rtree.node_requests_per_query", "count"),
    ("rtree.buffer_hit_rate", "ratio"),
    ("rtree.buffer_misses_per_query", "count"),
    ("rtree.buffer_evictions_per_query", "count"),
    ("rtree.buffer_wall_share", "ratio"),
    ("storage.mainq_insertions_per_query", "count"),
    ("storage.queue_page_writes_per_query", "count"),
    ("storage.queue_page_reads_per_query", "count"),
    ("storage.spill_wall_share", "ratio"),
    ("storage.modeled_io_p50_s", "s"),
    ("engine.join_p50_ms", "ms"),
    ("engine.real_dist_per_query", "count"),
    ("engine.axis_dist_per_query", "count"),
    ("engine.dist_per_result", "count"),
    ("engine.expansions_per_query", "count"),
    ("engine.prefilter_reject_ratio", "ratio"),
    ("engine.barrier_idle_ms_per_query", "ms"),
    ("engine.steal_hit_ratio", "ratio"),
    ("engine.threads2_wall_ratio", "ratio"),
    ("engine.am_over_b_wall_ratio", "ratio"),
    ("engine.b_over_am_real_dist_ratio", "ratio"),
    ("estimate.stages_per_query", "count"),
    ("estimate.comp_replays_per_query", "count"),
    ("estimate.stage2_expansion_share", "ratio"),
    ("serve.handle_p50_ms", "ms"),
    ("serve.overhead_p50_ms", "ms"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.admission_rejections", "count"),
    ("serve.report_rows", "count"),
    ("serve.cursor_slowdown", "ratio"),
    ("transport.overhead_p50_ms", "ms"),
    ("transport.accepted", "count"),
    ("transport.cap_rejects", "count"),
    ("self.bench_ms_per_op", "ms"),
    ("self.datagen_ms_per_op", "ms"),
    ("self.rtree_ms_per_op", "ms"),
    ("self.engine_ms_per_op", "ms"),
    ("self.serve_ms_per_op", "ms"),
    ("self.transport_ms_per_op", "ms"),
    ("trace.overhead_ms", "ms"),
];

/// Operations attempted and failed. An operation fails on an error
/// response, an admission or connection-cap refusal, or a result that
/// differs from the serial library call. Shared by client threads.
#[derive(Debug, Default)]
pub struct Tally {
    attempted: AtomicU64,
    failed: AtomicU64,
}

impl Tally {
    /// Records one operation; `ok` is false if any part of it failed.
    pub fn record(&self, ok: bool, what: &dyn Fn() -> String) {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        if !ok {
            let n = self.failed.fetch_add(1, Ordering::Relaxed);
            if n < 5 {
                eprintln!("# failed: {}", what());
            }
        }
    }

    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    /// failed ÷ attempted (0 before any attempt).
    pub fn error_rate(&self) -> f64 {
        match self.attempted() {
            0 => 0.0,
            n => self.failed() as f64 / n as f64,
        }
    }
}

/// Whether two result streams agree bit for bit on `(r, s, dist)`.
pub fn same_pairs(got: &[ResultPair], want: &[ResultPair]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(a, b)| a.r == b.r && a.s == b.s && a.dist.to_bits() == b.dist.to_bits())
}

/// Whether an incremental join's delivered stream matches the serial
/// cursor's `want`. The distances must agree bit for bit, in order.
/// Pairs below the last distance must be the same `(r, s)` set: equal
/// distances may arrive in any order (the serial cursor yields ties in
/// discovery order, the serve cursor in `(dist, r, s)` order). At the
/// last distance the take may cut through a group of ties, where either
/// member is a right answer, so each pair there must be distinct and
/// `dist_of(r, s)` — the distance recomputed from the input objects —
/// must give its distance bits.
pub fn same_stream(
    got: &[ResultPair],
    want: &[ResultPair],
    dist_of: &dyn Fn(u64, u64) -> Option<f64>,
) -> bool {
    if got.len() != want.len()
        || got
            .iter()
            .zip(want)
            .any(|(a, b)| a.dist.to_bits() != b.dist.to_bits())
    {
        return false;
    }
    let Some(last) = got.last().map(|p| p.dist) else {
        return true;
    };
    let canon = |v: &[ResultPair], below: bool| {
        let mut v: Vec<ResultPair> = v
            .iter()
            .filter(|p| (p.dist < last) == below)
            .copied()
            .collect();
        v.sort_by(|a, b| {
            a.dist
                .total_cmp(&b.dist)
                .then(a.r.cmp(&b.r))
                .then(a.s.cmp(&b.s))
        });
        v
    };
    let at_last = canon(got, false);
    same_pairs(&canon(got, true), &canon(want, true))
        && at_last
            .windows(2)
            .all(|w| (w[0].r, w[0].s) != (w[1].r, w[1].s))
        && at_last
            .iter()
            .all(|p| dist_of(p.r, p.s).is_some_and(|d| d.to_bits() == p.dist.to_bits()))
}

/// The input objects by id, to recompute a reported pair's distance
/// the way the engine does (`Rect::min_dist`).
pub struct Objects {
    r: Vec<Option<Rect<2>>>,
    s: Vec<Option<Rect<2>>>,
}

impl Objects {
    /// Indexes two generated data sets whose ids are `0..len`.
    pub fn new((a, b): (Dataset, Dataset)) -> Objects {
        let index = |d: Dataset| {
            let mut v = vec![None; d.len()];
            for (mbr, id) in d {
                v[id as usize] = Some(mbr);
            }
            v
        };
        Objects {
            r: index(a),
            s: index(b),
        }
    }

    pub fn dist(&self, r: u64, s: u64) -> Option<f64> {
        let a = self.r.get(usize::try_from(r).ok()?)?.as_ref()?;
        let b = self.s.get(usize::try_from(s).ok()?)?.as_ref()?;
        Some(a.min_dist(b))
    }
}

/// Metrics gathered by a workload run.
#[derive(Debug, Default)]
pub struct Report {
    metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Sets a metric listed in [`END_TO_END`] or [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unlisted metric {name}"
        );
        self.metrics.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// The final JSON line. Lists exactly the end-to-end metrics
    /// (untraced) or the per-layer ones (traced); a listed metric the
    /// workload did not set is an error.
    pub fn json(&self, traced: bool, tally: &Tally) -> Result<String, String> {
        let set = if traced { PER_LAYER } else { END_TO_END };
        let mut fields = Vec::new();
        for (name, unit) in set {
            let v = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite: {v}"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            tally.failed() == 0 && tally.attempted() > 0,
            tally.attempted(),
            tally.failed(),
            fields.join(", ")
        ))
    }
}

/// Prints one named figure with its unit on standard output — the
/// workload-specific breakdown a reader sees ahead of the JSON line.
pub fn say(name: &str, value: f64, unit: &str, note: &str) {
    if note.is_empty() {
        println!("{name} = {value:.6} {unit}");
    } else {
        println!("{name} = {value:.6} {unit}  ({note})");
    }
}

/// Peak resident set size of this process, sampled every few
/// milliseconds while `f` runs, in MB.
pub fn with_peak_rss<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let stop = std::sync::atomic::AtomicBool::new(false);
    let peak_kb = AtomicU64::new(rss_kb());
    let out = std::thread::scope(|scope| {
        scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                peak_kb.fetch_max(rss_kb(), Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        });
        let out = f();
        stop.store(true, Ordering::Relaxed);
        out
    });
    peak_kb.fetch_max(rss_kb(), Ordering::Relaxed);
    (out, peak_kb.load(Ordering::Relaxed) as f64 / 1024.0)
}

/// Current resident set size in KB (`VmRSS` of `/proc/self/status`).
fn rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(r: u64, s: u64, dist: f64) -> ResultPair {
        ResultPair { r, s, dist }
    }

    #[test]
    fn same_pairs_is_bitwise() {
        let a = [pair(1, 2, 0.5), pair(3, 4, 1.0)];
        assert!(same_pairs(&a, &a));
        assert!(!same_pairs(&a, &a[..1]));
        assert!(!same_pairs(&a, &[pair(1, 2, 0.5), pair(3, 5, 1.0)]));
        let nudged = f64::from_bits(1.0f64.to_bits() + 1);
        assert!(!same_pairs(&a, &[pair(1, 2, 0.5), pair(3, 4, nudged)]));
    }

    #[test]
    fn same_stream_allows_tie_order_and_boundary_ties_only() {
        let objects = Objects::new((
            (0..4)
                .map(|i| (Rect::new([i as f64; 2], [i as f64; 2]), i))
                .collect(),
            (0..4)
                .map(|i| (Rect::new([i as f64; 2], [i as f64; 2]), i))
                .collect(),
        ));
        let dist_of = |r, s| objects.dist(r, s);
        let d = 2f64.sqrt();
        let want = [pair(0, 0, 0.0), pair(1, 1, 0.0), pair(0, 1, d)];
        // Ties below the last distance in another order: fine.
        assert!(same_stream(
            &[pair(1, 1, 0.0), pair(0, 0, 0.0), pair(0, 1, d)],
            &want,
            &dist_of
        ));
        // Another member of the tie group the take cuts through: fine.
        assert!(same_stream(
            &[pair(0, 0, 0.0), pair(1, 1, 0.0), pair(2, 3, d)],
            &want,
            &dist_of
        ));
        // A pair whose recomputed distance differs: wrong.
        assert!(!same_stream(
            &[pair(0, 0, 0.0), pair(1, 1, 0.0), pair(0, 3, d)],
            &want,
            &dist_of
        ));
        // A different pair below the last distance: wrong.
        assert!(!same_stream(
            &[pair(0, 0, 0.0), pair(2, 2, 0.0), pair(0, 1, d)],
            &want,
            &dist_of
        ));
        // Distances out of order: wrong.
        assert!(!same_stream(
            &[pair(0, 1, d), pair(0, 0, 0.0), pair(1, 1, 0.0)],
            &want,
            &dist_of
        ));
    }

    #[test]
    fn json_lists_exactly_the_requested_set() {
        let mut rep = Report::default();
        for (name, _) in END_TO_END {
            rep.set(name, 1.5);
        }
        let tally = Tally::default();
        tally.record(true, &String::new);
        let line = rep.json(false, &tally).expect("all end-to-end metrics set");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        for (name, _) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\"")));
        }
        assert!(rep.json(true, &tally).is_err(), "per-layer metrics unset");
    }

    #[test]
    fn rss_is_sampled() {
        let ((), mb) = with_peak_rss(|| ());
        assert!(mb > 0.0);
    }
}

#[cfg(test)]
mod manifest {
    use super::{END_TO_END, PER_LAYER};

    /// `BENCHMARK.json` at the repository root lists exactly the metrics
    /// this program reports, with the same units, in the same order.
    #[test]
    fn benchmark_json_matches_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let section = |key: &str| -> Vec<(String, String)> {
            let body = text.split(&format!("\"{key}\": [")).nth(1).expect(key);
            let body = &body[..body.find(']').expect("list end")];
            body.split('}')
                .filter_map(|entry| {
                    let field = |f: &str| {
                        let v = entry.split(&format!("\"{f}\": \"")).nth(1)?;
                        Some(v[..v.find('"')?].to_string())
                    };
                    Some((field("name")?, field("unit")?))
                })
                .collect()
        };
        let expect = |set: &[(&str, &str)]| -> Vec<(String, String)> {
            set.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(section("end_to_end"), expect(END_TO_END));
        assert_eq!(section("per_layer"), expect(PER_LAYER));
    }
}
