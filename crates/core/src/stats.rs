use amdj_rtree::{thread_buffer_stats, AccessStats, RTree};
use amdj_storage::{CostModel, DiskStats};

/// Worker slots tracked by the per-worker buffer counters in
/// [`JoinStats`]. Joins running more workers fold the excess into the
/// last slot (the struct stays `Copy`, so the arrays are fixed-size).
pub const MAX_TRACKED_WORKERS: usize = 16;

/// One k-distance-join result: an object from R, an object from S, and the
/// distance between them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ResultPair {
    /// Object id from the outer (R) data set.
    pub r: u64,
    /// Object id from the inner (S) data set.
    pub s: u64,
    /// Distance between the objects' MBRs.
    pub dist: f64,
}

/// The counters the paper's evaluation plots, accumulated over one join.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct JoinStats {
    /// Real (Euclidean) distance computations (Figures 10a/12a/14a).
    pub real_dist: u64,
    /// Axis-distance computations made by the plane sweep (Figure 11).
    pub axis_dist: u64,
    /// Always 0. Kept so existing readers of the field still compile:
    /// it counted candidates a quantized integer prefilter rejected
    /// before the exact distance, and that prefilter has been removed
    /// (the scalar sweep was faster without it; DESIGN.md §10).
    pub quantized_rejects: u64,
    /// Main-queue insertions (Figures 10b/12b/14b). For SJ-SORT this
    /// counts sorter insertions, its analogous unit of queue work.
    pub mainq_insertions: u64,
    /// Distance-queue insertions.
    pub distq_insertions: u64,
    /// Compensation-queue insertions (AM algorithms only).
    pub compq_insertions: u64,
    /// Compensation sweeps replayed (AM algorithms only): how often a
    /// parked expansion's skipped pairs were re-examined.
    pub comp_replays: u64,
    /// Successful tightenings of the shared pruning bound: how often a
    /// worker's progress shrank every worker's cutoffs. One-thread
    /// k-distance joins count them too (their lone worker publishes into
    /// the same bound); only the standalone [`crate::AmIdj`] cursor and
    /// the own-loop baselines leave it zero.
    pub bound_tightenings: u64,
    /// Work items (frontier pairs, stage-two pairs, compensation entries)
    /// a parallel worker took from a peer's deque instead of idling
    /// (parallel joins only; zero when a single worker runs).
    pub pairs_stolen: u64,
    /// Steal probes: how often a drained worker locked a peer's deque
    /// looking for work, successful or not.
    pub steal_attempts: u64,
    /// Total nanoseconds workers spent finished-but-waiting at a stage
    /// barrier (the sum over workers of `last_finish − own_finish` per
    /// stage). The load-balance figure work stealing exists to shrink.
    pub barrier_idle_ns: u64,
    /// Node-pair expansions performed during the aggressive stage (stage
    /// 1); with [`Self::stage2_expansions`] this attributes traversal work
    /// per stage even when tree-level access counters are shared across
    /// concurrent workers.
    pub stage1_expansions: u64,
    /// Node-pair expansions performed during the compensation stage
    /// (stage 2).
    pub stage2_expansions: u64,
    /// Logical R-tree node accesses, both trees (Table 2's parenthesized
    /// "no buffer" figure): one per node side of every stage-one and
    /// stage-two expansion, one per node side of every compensation
    /// replay (a parked entry keeps its node pair, not the children
    /// lists, so a replay fetches both nodes again), plus a few fixed
    /// reads of the two roots at join start.
    pub node_requests: u64,
    /// R-tree nodes actually fetched from disk (Table 2's main figure).
    pub node_disk_reads: u64,
    /// R-tree buffer hits observed by this join's own threads (workers
    /// plus the coordinating thread). Like `node_disk_reads`, this
    /// depends on buffer state carried across runs, so it is excluded
    /// from cross-run parity comparisons.
    pub buffer_hits: u64,
    /// R-tree buffer misses observed by this join's own threads.
    pub buffer_misses: u64,
    /// Pages this join's own threads evicted from the shared node
    /// buffer to make room for their fetches — the per-query share of
    /// the buffer's eviction pressure. Like the hit/miss counters this
    /// depends on buffer state carried across runs, so it is excluded
    /// from cross-run parity comparisons.
    pub buffer_evictions: u64,
    /// Per-worker buffer hits: slot `w` belongs to parallel worker `w`
    /// (workers past [`MAX_TRACKED_WORKERS`] fold into the last slot):
    /// how each worker's share of the frontier fared in the shared node
    /// buffer. One-thread k-distance joins fill slot 0; the standalone
    /// [`crate::AmIdj`] cursor and the own-loop baselines leave the array
    /// zero — their fetches appear only in [`Self::buffer_hits`].
    pub buffer_hits_by_worker: [u64; MAX_TRACKED_WORKERS],
    /// Per-worker buffer misses, laid out like
    /// [`Self::buffer_hits_by_worker`].
    pub buffer_misses_by_worker: [u64; MAX_TRACKED_WORKERS],
    /// Pages read by queue/sort spill traffic.
    pub queue_page_reads: u64,
    /// Pages written by queue/sort spill traffic.
    pub queue_page_writes: u64,
    /// Results produced.
    pub results: u64,
    /// Number of processing stages executed (1 for single-stage
    /// algorithms; ≥ 1 for AM-KDJ/AM-IDJ).
    pub stages: u32,
    /// Measured compute wall time, seconds.
    pub cpu_seconds: f64,
    /// Modeled I/O time, seconds (tree disks + queue disks, per the cost
    /// model).
    pub io_seconds: f64,
}

impl JoinStats {
    /// The paper's "response time": compute time plus modeled I/O time.
    pub fn response_time(&self) -> f64 {
        self.cpu_seconds + self.io_seconds
    }

    /// A period-faithful response time: modeled I/O plus a *modeled* CPU
    /// cost calibrated to the paper's 1999 testbed (a ~300 MHz
    /// UltraSPARC-II), where each distance computation and queue operation
    /// cost microseconds rather than nanoseconds. On modern hardware the
    /// measured CPU component all but vanishes, compressing the response
    /// time ratios the paper reports; this model reconstructs the regime
    /// in which CPU work and I/O both mattered. The constants are
    /// order-of-magnitude calibrations, not measurements.
    pub fn response_time_1999(&self) -> f64 {
        const AXIS_DIST: f64 = 0.2e-6;
        const REAL_DIST: f64 = 0.8e-6;
        const QUEUE_INSERT: f64 = 4.0e-6;
        const DISTQ_INSERT: f64 = 2.0e-6;
        const NODE_VISIT: f64 = 10.0e-6;
        self.io_seconds
            + self.axis_dist as f64 * AXIS_DIST
            + self.real_dist as f64 * REAL_DIST
            + self.mainq_insertions as f64 * QUEUE_INSERT
            + self.distq_insertions as f64 * DISTQ_INSERT
            + self.node_requests as f64 * NODE_VISIT
    }

    /// All distance computations (axis + real), the quantity of Figure 11.
    pub fn total_dist_computations(&self) -> u64 {
        self.real_dist + self.axis_dist
    }

    /// Folds one resumable episode's stats into a multi-episode join's
    /// running totals (a serve cursor's, a checkpointed run's). Work
    /// counters sum; `stages` keeps the maximum; `results` is positional
    /// and taken from the final episode.
    pub fn absorb_episode(&mut self, episode: &JoinStats) {
        let stages = self.stages.max(episode.stages);
        self.absorb_worker(episode);
        self.node_requests += episode.node_requests;
        self.node_disk_reads += episode.node_disk_reads;
        self.cpu_seconds += episode.cpu_seconds;
        self.barrier_idle_ns += episode.barrier_idle_ns;
        self.stages = stages;
        self.results = episode.results;
    }

    /// Folds one parallel worker's counters into an aggregate. Work
    /// counters *sum*: every unit of work — a distance computation, a
    /// queue insertion (counted once, when a pair first enters a queue),
    /// an expansion, a compensation replay, a spill-queue page transfer
    /// and its modeled I/O time — happens in exactly one worker, so on
    /// one thread the totals equal the sequential join's. Driver-owned
    /// fields (`results`, `stages`, node access deltas, `barrier_idle_ns`
    /// — measured by the backend across a whole stage — and wall-clock
    /// time) are left to the driver, and tree I/O to its baseline.
    pub fn absorb_worker(&mut self, w: &JoinStats) {
        self.real_dist += w.real_dist;
        self.axis_dist += w.axis_dist;
        self.mainq_insertions += w.mainq_insertions;
        self.distq_insertions += w.distq_insertions;
        self.compq_insertions += w.compq_insertions;
        self.comp_replays += w.comp_replays;
        self.bound_tightenings += w.bound_tightenings;
        self.pairs_stolen += w.pairs_stolen;
        self.steal_attempts += w.steal_attempts;
        self.stage1_expansions += w.stage1_expansions;
        self.stage2_expansions += w.stage2_expansions;
        self.queue_page_reads += w.queue_page_reads;
        self.queue_page_writes += w.queue_page_writes;
        self.io_seconds += w.io_seconds;
        self.buffer_hits += w.buffer_hits;
        self.buffer_misses += w.buffer_misses;
        self.buffer_evictions += w.buffer_evictions;
        for (a, b) in self
            .buffer_hits_by_worker
            .iter_mut()
            .zip(&w.buffer_hits_by_worker)
        {
            *a += b;
        }
        for (a, b) in self
            .buffer_misses_by_worker
            .iter_mut()
            .zip(&w.buffer_misses_by_worker)
        {
            *a += b;
        }
    }
}

/// Attributes the calling thread's buffer hits and misses over one
/// worker's run to that worker's [`JoinStats`] slot: capture at worker
/// start, [`record`](WorkerBufferSpan::record) at worker end. Works
/// because each worker owns its thread for its whole run (a lone
/// k-distance worker runs on the coordinating thread between frontier
/// seeding and the merge), so the thread-local delta is exactly the
/// worker's traffic.
pub(crate) struct WorkerBufferSpan {
    worker: usize,
    hits0: u64,
    misses0: u64,
    evictions0: u64,
}

impl WorkerBufferSpan {
    pub(crate) fn begin(worker: usize) -> Self {
        let (hits0, misses0, evictions0) = thread_buffer_stats();
        WorkerBufferSpan {
            worker,
            hits0,
            misses0,
            evictions0,
        }
    }

    /// Fills the worker's slot; `on_caller` marks a worker that ran on
    /// the coordinating thread, whose [`Baseline`] already counts its
    /// traffic in the totals.
    pub(crate) fn record(self, stats: &mut JoinStats, on_caller: bool) {
        let (h, m, e) = thread_buffer_stats();
        let (dh, dm) = (h - self.hits0, m - self.misses0);
        let slot = self.worker.min(MAX_TRACKED_WORKERS - 1);
        if !on_caller {
            stats.buffer_hits += dh;
            stats.buffer_misses += dm;
            stats.buffer_evictions += e - self.evictions0;
        }
        stats.buffer_hits_by_worker[slot] += dh;
        stats.buffer_misses_by_worker[slot] += dm;
    }
}

/// Results plus statistics of one join execution.
#[derive(Clone, Debug)]
pub struct JoinOutput {
    /// The k nearest pairs, ascending by distance.
    pub results: Vec<ResultPair>,
    /// Work counters.
    pub stats: JoinStats,
}

/// The one capture of tree, buffer and disk state a join reports its
/// deltas against, so a join counts correctly even when the caller reuses
/// trees across runs. Node accesses come from the trees' buffer counters,
/// buffer hits/misses/evictions from the calling thread's counters, and
/// modeled tree I/O from the trees' disk transfer counts.
pub(crate) struct Baseline {
    r_acc: AccessStats,
    s_acc: AccessStats,
    r_disk: DiskStats,
    s_disk: DiskStats,
    buf: (u64, u64, u64),
    started: std::time::Instant,
}

impl Baseline {
    pub(crate) fn capture<const D: usize>(r: &RTree<D>, s: &RTree<D>) -> Self {
        Baseline {
            r_acc: r.access_stats(),
            s_acc: s.access_stats(),
            r_disk: r.disk_stats(),
            s_disk: s.disk_stats(),
            buf: thread_buffer_stats(),
            started: std::time::Instant::now(),
        }
    }

    /// Adds the node accesses, modeled tree I/O and the calling thread's
    /// buffer traffic since the capture to `stats`; no wall-clock time
    /// (a cursor accumulates its own CPU time inside `next`).
    pub(crate) fn delta<const D: usize>(&self, r: &RTree<D>, s: &RTree<D>, stats: &mut JoinStats) {
        let (ra, sa) = (r.access_stats(), s.access_stats());
        stats.node_requests +=
            (ra.requests - self.r_acc.requests) + (sa.requests - self.s_acc.requests);
        stats.node_disk_reads +=
            (ra.disk_reads - self.r_acc.disk_reads) + (sa.disk_reads - self.s_acc.disk_reads);
        stats.io_seconds += tree_io_since(r, &self.r_disk) + tree_io_since(s, &self.s_disk);
        // The coordinating thread's own buffer traffic: frontier seeding,
        // plus all of a lone k-distance worker's, which ran on it;
        // spawned workers report their deltas via `WorkerBufferSpan`.
        let (h, m, e) = thread_buffer_stats();
        stats.buffer_hits += h - self.buf.0;
        stats.buffer_misses += m - self.buf.1;
        stats.buffer_evictions += e - self.buf.2;
    }

    /// [`delta`](Self::delta) plus the wall-clock time since the capture,
    /// for a join that runs to completion inside one call.
    pub(crate) fn finish<const D: usize>(self, r: &RTree<D>, s: &RTree<D>, stats: &mut JoinStats) {
        self.delta(r, s, stats);
        stats.cpu_seconds += self.started.elapsed().as_secs_f64();
    }
}

/// Modeled seconds of `tree`'s disk transfers since `then`, priced from
/// the transfer-count deltas so equal work reports bit-equal seconds
/// however much I/O the disk saw before. The tree's disk charges the
/// tree's cost model at its page size ([`RTree::new`]).
fn tree_io_since<const D: usize>(tree: &RTree<D>, then: &DiskStats) -> f64 {
    let now = tree.disk_stats();
    let params = tree.params();
    let cost = CostModel {
        page_size: params.page_size,
        ..params.cost
    };
    let seq = (now.seq_reads + now.seq_writes) - (then.seq_reads + then.seq_writes);
    let rand = (now.total_ios() - then.total_ios()).saturating_sub(seq);
    seq as f64 * cost.page_time(true) + rand as f64 * cost.page_time(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_time_sums_components() {
        let s = JoinStats {
            cpu_seconds: 1.5,
            io_seconds: 2.5,
            ..JoinStats::default()
        };
        assert_eq!(s.response_time(), 4.0);
    }

    #[test]
    fn total_dist_sums_axis_and_real() {
        let s = JoinStats {
            real_dist: 10,
            axis_dist: 32,
            ..JoinStats::default()
        };
        assert_eq!(s.total_dist_computations(), 42);
    }
}
