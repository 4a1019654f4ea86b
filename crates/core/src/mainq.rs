use amdj_storage::{SpillQueue, SpillQueueConfig};

use crate::{Estimator, JoinConfig, JoinStats, Pair};

/// How many Equation-3 segment boundaries to precompute.
const BOUNDARY_COUNT: usize = 64;

/// The main queue (`Q_M`): a facade over the hybrid memory/disk
/// [`SpillQueue`] that counts insertions into [`JoinStats`] and derives its
/// §4.4 segment boundaries from the estimator.
pub(crate) struct MainQueue<const D: usize> {
    q: SpillQueue<Pair<D>>,
    /// Total [`push`](MainQueue::push) calls (excluding
    /// [`unpop`](MainQueue::unpop) re-insertions).
    insertions: u64,
}

impl<const D: usize> MainQueue<D> {
    pub(crate) fn new(cfg: &JoinConfig, est: Option<&Estimator<D>>) -> Self {
        let boundaries = match est {
            Some(e) if cfg.queue_mem_bytes < usize::MAX && cfg.eq3_queue_boundaries => {
                // The spill queue's own per-item accounting, so the heap
                // capacity `n` behind the boundaries cannot drift from
                // what the queue actually holds.
                let per_item = SpillQueue::<Pair<D>>::per_item_cost(Pair::<D>::ENCODED_LEN);
                let n = (cfg.queue_mem_bytes / per_item).max(1);
                e.queue_boundaries(n, BOUNDARY_COUNT)
            }
            _ => Vec::new(),
        };
        let q = SpillQueue::new(SpillQueueConfig {
            mem_budget: cfg.queue_mem_bytes,
            boundaries,
            cost: cfg.queue_cost,
        });
        MainQueue { q, insertions: 0 }
    }

    pub(crate) fn push(&mut self, pair: Pair<D>) {
        self.insertions += 1;
        self.q.push(pair);
    }

    /// Re-inserts a pair without counting it as new work (used when a
    /// stage boundary parks the popped head). Routed through the spill
    /// queue's uncounted path so `SpillQueueStats` stays truthful too.
    pub(crate) fn unpop(&mut self, pair: Pair<D>) {
        self.q.reinsert(pair);
    }

    pub(crate) fn pop(&mut self) -> Option<Pair<D>> {
        self.q.pop()
    }

    pub(crate) fn peek_min(&mut self) -> Option<f64> {
        self.q.peek_min()
    }

    /// Bytes the queue holds resident: the in-memory heap's charge plus
    /// the live spill pages.
    pub(crate) fn resident_bytes(&self) -> u64 {
        (self.q.mem_bytes() + self.q.spilled_bytes()) as u64
    }

    /// Folds the queue's insertion count, disk traffic and modeled I/O
    /// seconds into `stats`.
    pub(crate) fn account(&self, stats: &mut JoinStats) {
        stats.mainq_insertions += self.insertions;
        let d = self.q.disk_stats();
        stats.queue_page_reads += d.pages_read;
        stats.queue_page_writes += d.pages_written;
        stats.io_seconds += d.io_seconds;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ItemRef;
    use amdj_geom::Rect;

    fn pair(d: f64) -> Pair<2> {
        let r = Rect::new([0.0, 0.0], [1.0, 1.0]);
        Pair {
            dist: d,
            a: ItemRef::Object { oid: 1 },
            b: ItemRef::Object { oid: 2 },
            a_mbr: r,
            b_mbr: r,
        }
    }

    #[test]
    fn counts_insertions_but_not_unpops() {
        let mut q: MainQueue<2> = MainQueue::new(&JoinConfig::unbounded(), None);
        q.push(pair(2.0));
        q.push(pair(1.0));
        let head = q.pop().unwrap();
        assert_eq!(head.dist, 1.0);
        q.unpop(head);
        assert_eq!(q.insertions, 2);
        assert_eq!(q.q.len(), 2);
        // The underlying spill queue's own counters must agree: a parked
        // head is not a new insertion there either.
        assert_eq!(q.q.stats().insertions, 2);
        assert_eq!(q.q.stats().max_len, 2);
    }

    #[test]
    fn budgeted_queue_uses_boundaries_and_spills() {
        let est: Estimator<2> = Estimator::new(1.0, 1000, 1000);
        let cfg = JoinConfig::with_queue_memory(2048);
        let mut stats = JoinStats::default();
        let mut q: MainQueue<2> = MainQueue::new(&cfg, Some(&est));
        for i in 0..500 {
            q.push(pair((i % 37) as f64 * 0.001));
        }
        let mut last = -1.0;
        while let Some(p) = q.pop() {
            assert!(p.dist >= last);
            last = p.dist;
        }
        q.account(&mut stats);
        assert_eq!(stats.queue_page_reads, q.q.disk_stats().pages_read);
        assert_eq!(stats.mainq_insertions, 500);
        assert_eq!(stats.io_seconds, q.q.disk_stats().io_seconds);
    }
}
