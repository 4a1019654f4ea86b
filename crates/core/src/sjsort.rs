//! SJ-SORT: the non-incremental baseline of §5 — an R-tree spatial join
//! (Brinkhoff et al., sync traversal with plane sweep) run with a
//! `within(Dmax)` predicate, followed by an external sort of the candidate
//! pairs.
//!
//! As in the paper, SJ-SORT is given the *true* `Dmax` for the requested
//! `k` — a deliberately favorable assumption (no method to estimate it is
//! known) that makes it a strong baseline.

use amdj_rtree::RTree;
use amdj_storage::codec::{put_f64, put_u64, Reader};
use amdj_storage::{ExternalSorter, PageId, SpillItem};

use crate::engine::sweep::{choose_setup, MarkMode, SweepScratch, SweepSink};
use crate::stats::Baseline;
use crate::{ItemRef, JoinConfig, JoinOutput, JoinStats, Pair, ResultPair};

/// A candidate object pair headed for the external sorter.
#[derive(Clone, Copy, Debug)]
struct Candidate {
    dist: f64,
    r: u64,
    s: u64,
}

impl SpillItem for Candidate {
    fn key(&self) -> f64 {
        self.dist
    }
    fn encoded_len(&self) -> usize {
        24
    }
    fn encode(&self, out: &mut Vec<u8>) {
        put_f64(out, self.dist);
        put_u64(out, self.r);
        put_u64(out, self.s);
    }
    fn try_decode(rd: &mut Reader<'_>) -> Result<Self, amdj_storage::codec::CodecError> {
        Ok(Candidate {
            dist: rd.try_f64("candidate dist")?,
            r: rd.try_u64("candidate r id")?,
            s: rd.try_u64("candidate s id")?,
        })
    }
}

/// Sink that routes swept pairs either to the recursion worklist (node
/// pairs) or the caller's candidate consumer (object pairs); cutoff fixed
/// at `dmax`.
struct SjSink<'x, const D: usize> {
    dmax: f64,
    out: &'x mut dyn FnMut(f64, u64, u64),
    recurse: &'x mut Vec<(PageId, PageId)>,
}

impl<const D: usize> SweepSink<D> for SjSink<'_, D> {
    fn axis_cutoff(&self) -> f64 {
        self.dmax
    }
    fn real_cutoff(&self) -> f64 {
        self.dmax
    }
    fn fixed_axis_cutoff(&self) -> Option<f64> {
        Some(self.dmax)
    }
    fn emit(&mut self, pair: Pair<D>) {
        match (pair.a, pair.b) {
            (ItemRef::Object { oid: a }, ItemRef::Object { oid: b }) => {
                (self.out)(pair.dist, a, b);
            }
            (ItemRef::Node { page: a, .. }, ItemRef::Node { page: b, .. }) => {
                self.recurse.push((PageId(a), PageId(b)));
            }
            // Mixed pairs cannot arise: `visit` only sweeps level-matched
            // nodes.
            _ => unreachable!("sync traversal pairs are level-matched"),
        }
    }
}

/// Sync-traversal spatial join within `dmax` (Brinkhoff et al. with the
/// §3 plane sweep): every qualifying object pair is handed to `out`.
/// Shared by [`sj_sort`] and [`crate::within_join`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn visit<const D: usize>(
    r: &RTree<D>,
    s: &RTree<D>,
    pr: PageId,
    ps: PageId,
    dmax: f64,
    cfg: &JoinConfig,
    out: &mut dyn FnMut(f64, u64, u64),
    stats: &mut JoinStats,
    scratch: &mut SweepScratch<D>,
) {
    let nr = r.fetch(pr);
    let ns = s.fetch(ps);
    if nr.level > ns.level {
        // Descend the deeper side alone until the levels meet.
        let smbr = ns.mbr();
        for e in &nr.entries {
            stats.real_dist += 1;
            if e.mbr.min_dist(&smbr) <= dmax {
                visit(r, s, PageId(e.child), ps, dmax, cfg, out, stats, scratch);
            }
        }
        return;
    }
    if ns.level > nr.level {
        let rmbr = nr.mbr();
        for e in &ns.entries {
            stats.real_dist += 1;
            if e.mbr.min_dist(&rmbr) <= dmax {
                visit(r, s, pr, PageId(e.child), dmax, cfg, out, stats, scratch);
            }
        }
        return;
    }
    // Same level: sweep children against children. The scratch is free to
    // reuse during recursion: its sweep output is fully drained into
    // `recurse` before any recursive call runs.
    let setup = choose_setup(&nr.mbr(), &ns.mbr(), dmax, cfg);
    scratch.expand_nodes(&nr, &ns, setup);
    stats.stage1_expansions += 1;
    let mut recurse = Vec::new();
    let mut sink = SjSink {
        dmax,
        out,
        recurse: &mut recurse,
    };
    scratch.sweep(&mut sink, stats, MarkMode::None);
    for (a, b) in recurse {
        visit(r, s, a, b, dmax, cfg, out, stats, scratch);
    }
}

/// Runs the SJ-SORT baseline: spatial join within `dmax` (the true k-th
/// distance, supplied by the caller), external sort, then the first `k`
/// pairs.
pub fn sj_sort<const D: usize>(
    r: &RTree<D>,
    s: &RTree<D>,
    k: usize,
    dmax: f64,
    cfg: &JoinConfig,
) -> JoinOutput {
    let baseline = Baseline::capture(r, s);
    let mut stats = JoinStats {
        stages: 1,
        ..JoinStats::default()
    };
    let mut sorter = ExternalSorter::new(cfg.queue_mem_bytes, cfg.queue_cost);
    if let (Some(rp), Some(sp)) = (r.root_page(), s.root_page()) {
        if k > 0 {
            let mut out = |dist: f64, a: u64, b: u64| sorter.push(Candidate { dist, r: a, s: b });
            let mut scratch = SweepScratch::new();
            visit(r, s, rp, sp, dmax, cfg, &mut out, &mut stats, &mut scratch);
        }
    }
    stats.mainq_insertions = sorter.len();
    let mut stream = sorter.finish();
    let mut results = Vec::with_capacity(k.min(1 << 20));
    for cand in stream.by_ref() {
        if results.len() >= k {
            break;
        }
        results.push(ResultPair {
            r: cand.r,
            s: cand.s,
            dist: cand.dist,
        });
    }
    stats.results = results.len() as u64;
    let d = stream.disk_stats();
    stats.queue_page_reads = d.pages_read;
    stats.queue_page_writes = d.pages_written;
    stats.io_seconds = d.io_seconds;
    baseline.finish(r, s, &mut stats);
    JoinOutput { results, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bruteforce;
    use amdj_geom::{Point, Rect};
    use amdj_rtree::RTreeParams;

    fn grid(n: usize, dx: f64, dy: f64) -> Vec<(Rect<2>, u64)> {
        (0..n * n)
            .map(|i| {
                let p = Point::new([(i % n) as f64 + dx, (i / n) as f64 + dy]);
                (Rect::from_point(p), i as u64)
            })
            .collect()
    }

    #[test]
    fn matches_brute_force_with_oracle_dmax() {
        let a = grid(12, 0.0, 0.0);
        let b = grid(12, 0.3, 0.45);
        let r = amdj_rtree::RTree::bulk_load(RTreeParams::for_tests(), a.clone());
        let s = amdj_rtree::RTree::bulk_load(RTreeParams::for_tests(), b.clone());
        for k in [1, 25, 140] {
            let dmax = bruteforce::dmax_for_k(&a, &b, k).unwrap();
            let out = sj_sort(&r, &s, k, dmax, &JoinConfig::unbounded());
            let want = bruteforce::k_closest_pairs(&a, &b, k);
            assert_eq!(out.results.len(), k);
            for (got, exp) in out.results.iter().zip(want.iter()) {
                assert!((got.dist - exp.dist).abs() < 1e-9, "k={k}");
            }
        }
    }

    #[test]
    fn different_tree_heights() {
        // A big R against a tiny S exercises the level-descent arms.
        let a = grid(20, 0.0, 0.0);
        let b = grid(2, 0.4, 0.4);
        let r = amdj_rtree::RTree::bulk_load(RTreeParams::for_tests(), a.clone());
        let s = amdj_rtree::RTree::bulk_load(RTreeParams::for_tests(), b.clone());
        assert!(r.height() > s.height());
        let k = 10;
        let dmax = bruteforce::dmax_for_k(&a, &b, k).unwrap();
        let out = sj_sort(&r, &s, k, dmax, &JoinConfig::unbounded());
        let want = bruteforce::k_closest_pairs(&a, &b, k);
        for (got, exp) in out.results.iter().zip(want.iter()) {
            assert!((got.dist - exp.dist).abs() < 1e-9);
        }
    }

    #[test]
    fn sort_io_is_charged_under_budget() {
        let a = grid(15, 0.0, 0.0);
        let b = grid(15, 0.2, 0.3);
        let r = amdj_rtree::RTree::bulk_load(RTreeParams::for_tests(), a.clone());
        let s = amdj_rtree::RTree::bulk_load(RTreeParams::for_tests(), b.clone());
        let k = 150;
        let dmax = bruteforce::dmax_for_k(&a, &b, k).unwrap();
        let mut cfg = JoinConfig::with_queue_memory(1024);
        cfg.queue_cost.page_size = 512;
        let out = sj_sort(&r, &s, k, dmax, &cfg);
        assert_eq!(out.results.len(), k);
        assert!(
            out.stats.queue_page_writes > 0,
            "external sort must spill runs"
        );
        assert!(out.stats.io_seconds > 0.0);
    }

    #[test]
    fn zero_k_does_no_traversal() {
        let a = grid(5, 0.0, 0.0);
        let r = amdj_rtree::RTree::bulk_load(RTreeParams::for_tests(), a.clone());
        let s = amdj_rtree::RTree::bulk_load(RTreeParams::for_tests(), a.clone());
        let out = sj_sort(&r, &s, 0, 100.0, &JoinConfig::unbounded());
        assert!(out.results.is_empty());
        assert_eq!(out.stats.real_dist, 0);
    }

    #[test]
    fn candidate_count_exceeds_k_with_generous_dmax() {
        let a = grid(8, 0.0, 0.0);
        let b = grid(8, 0.5, 0.5);
        let r = amdj_rtree::RTree::bulk_load(RTreeParams::for_tests(), a.clone());
        let s = amdj_rtree::RTree::bulk_load(RTreeParams::for_tests(), b.clone());
        let out = sj_sort(&r, &s, 5, 3.0, &JoinConfig::unbounded());
        assert_eq!(out.results.len(), 5);
        assert!(
            out.stats.mainq_insertions > 5,
            "overestimated Dmax inflates the sort input"
        );
    }
}
