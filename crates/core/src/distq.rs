use std::collections::BinaryHeap;

use amdj_geom::TotalF64;

/// The *distance queue* (§2.1): a max-heap holding the `k` smallest
/// object-pair distances seen so far. Its maximum is `qDmax`, the proven
/// cutoff — at least `k` candidate pairs lie within it, so anything
/// farther can be pruned.
///
/// Following the paper's footnote 1, only ⟨object, object⟩ distances are
/// inserted (option 2): non-object pairs would enter with their *maximum*
/// distance and almost never lower the cutoff.
#[derive(Debug)]
pub struct DistanceQueue {
    k: usize,
    heap: BinaryHeap<TotalF64>,
    insertions: u64,
}

impl DistanceQueue {
    /// A queue bounded to the `k` smallest distances.
    pub fn new(k: usize) -> Self {
        DistanceQueue {
            k,
            heap: BinaryHeap::with_capacity(k.min(1 << 20) + 1),
            insertions: 0,
        }
    }

    /// Offers a candidate distance; kept only while it is among the `k`
    /// smallest.
    pub fn insert(&mut self, dist: f64) {
        if self.k == 0 {
            return;
        }
        self.insertions += 1;
        self.seed(dist);
    }

    /// Offers a candidate distance without counting it as new work: used
    /// when a parallel stage-two queue is pre-seeded with distances the
    /// stage-one workers already counted on first insertion.
    ///
    /// A full queue replaces its top in place (one sift-down) rather
    /// than popping and pushing.
    pub fn seed(&mut self, dist: f64) {
        if self.heap.len() < self.k {
            self.heap.push(TotalF64::new(dist));
        } else if let Some(mut top) = self.heap.peek_mut() {
            if dist < top.get() {
                *top = TotalF64::new(dist);
            }
        }
    }

    /// The distances currently retained (the `k` smallest seen so far),
    /// in no particular order.
    pub fn retained(&self) -> Vec<f64> {
        self.heap.iter().map(|d| d.get()).collect()
    }

    /// The current cutoff `qDmax`: the k-th smallest distance seen, or
    /// `+∞` until `k` distances have been collected.
    pub fn qdmax(&self) -> f64 {
        if self.heap.len() < self.k {
            f64::INFINITY
        } else {
            self.heap.peek().map_or(f64::INFINITY, |d| d.get())
        }
    }

    /// Distances currently held.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no distances are held.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total [`insert`](DistanceQueue::insert) calls (the paper's
    /// distance-queue insertion count).
    pub fn insertions(&self) -> u64 {
        self.insertions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn qdmax_infinite_until_full() {
        let mut q = DistanceQueue::new(3);
        q.insert(1.0);
        q.insert(2.0);
        assert_eq!(q.qdmax(), f64::INFINITY);
        q.insert(3.0);
        assert_eq!(q.qdmax(), 3.0);
    }

    #[test]
    fn keeps_k_smallest() {
        let mut q = DistanceQueue::new(3);
        for d in [5.0, 1.0, 4.0, 2.0, 3.0, 10.0] {
            q.insert(d);
        }
        assert_eq!(q.qdmax(), 3.0);
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn ignores_larger_when_full() {
        let mut q = DistanceQueue::new(2);
        q.insert(1.0);
        q.insert(2.0);
        q.insert(100.0);
        assert_eq!(q.qdmax(), 2.0);
    }

    #[test]
    fn counts_insertions() {
        let mut q = DistanceQueue::new(2);
        for d in [3.0, 2.0, 1.0] {
            q.insert(d);
        }
        assert_eq!(q.insertions(), 3);
    }

    #[test]
    fn zero_k_is_inert() {
        let mut q = DistanceQueue::new(0);
        q.insert(1.0);
        assert!(q.is_empty());
        assert_eq!(q.insertions(), 0);
        // With k = 0 every distance is "beyond the k-th": cutoff is the
        // smallest possible, but we report +∞ only when not full — k = 0
        // means the heap is always "full" of nothing.
        assert_eq!(q.qdmax(), f64::INFINITY);
    }

    #[test]
    fn duplicates_count_separately() {
        let mut q = DistanceQueue::new(3);
        for _ in 0..3 {
            q.insert(7.0);
        }
        assert_eq!(q.qdmax(), 7.0);
        q.insert(6.0);
        assert_eq!(q.qdmax(), 7.0, "one 7.0 replaced, another remains");
    }

    proptest! {
        /// Against a sorted-vector oracle: after any mix of counted and
        /// uncounted offers, the queue holds exactly the `k` smallest
        /// distances offered, its cutoff is the k-th of them (`+∞` short
        /// of `k`), and only `insert` counts.
        #[test]
        fn matches_a_sorted_vector_oracle(
            k in prop_oneof![Just(0usize), Just(1), Just(7), Just(100)],
            ops in prop::collection::vec((any::<bool>(), 0u8..40), 0..300),
        ) {
            let mut q = DistanceQueue::new(k);
            let mut offered: Vec<f64> = Vec::new();
            let mut inserts = 0u64;
            for (counted, v) in ops {
                // Half-unit steps over a small range: ties are common.
                let d = f64::from(v) * 0.5;
                if counted {
                    q.insert(d);
                    inserts += 1;
                } else {
                    q.seed(d);
                }
                offered.push(d);
                offered.sort_unstable_by(f64::total_cmp);
                let want = &offered[..offered.len().min(k)];
                let cutoff = if k > 0 && offered.len() >= k {
                    offered[k - 1]
                } else {
                    f64::INFINITY
                };
                prop_assert_eq!(q.qdmax(), cutoff);
                let mut got = q.retained();
                got.sort_unstable_by(f64::total_cmp);
                prop_assert_eq!(&got[..], want);
            }
            prop_assert_eq!(q.insertions(), if k == 0 { 0 } else { inserts });
        }
    }
}
