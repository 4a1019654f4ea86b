use std::cell::Cell;
use std::sync::Arc;

use amdj_storage::{CostModel, PageId, ShardedLru, VirtualDisk};

use crate::{AccessStats, Node};

thread_local! {
    static TL_BUFFER_HITS: Cell<u64> = const { Cell::new(0) };
    static TL_BUFFER_MISSES: Cell<u64> = const { Cell::new(0) };
    static TL_BUFFER_EVICTIONS: Cell<u64> = const { Cell::new(0) };
}

/// Cumulative buffer `(hits, misses, evictions)` observed (or, for
/// evictions, *caused*) by the *calling thread*, across every
/// [`BufferManager`] it has ever fetched through.
///
/// The sharded buffer's own hit/miss counters are process-wide atomics;
/// they cannot say *which* worker enjoyed the hits. These monotone
/// thread-local counters can: a caller attributes a span of work to
/// itself by reading the counters before and after and differencing —
/// which is how the join engine builds its per-worker cache-residency
/// aggregates. The eviction count attributes buffer pressure the same
/// way: every page this thread's inserts pushed out of a buffer. Never
/// reset; always cheap (no atomics).
pub fn thread_buffer_stats() -> (u64, u64, u64) {
    (
        TL_BUFFER_HITS.get(),
        TL_BUFFER_MISSES.get(),
        TL_BUFFER_EVICTIONS.get(),
    )
}

/// The shared-read page-access layer of an [`crate::RTree`]: a virtual
/// disk plus a sharded LRU node buffer behind interior mutability.
///
/// [`fetch`](BufferManager::fetch) takes `&self`, so any number of
/// threads can traverse a tree concurrently: the buffer synchronizes
/// internally (one mutex per shard, chosen by page-id hash). Each fetch
/// is counted once, by the cache's own hit/miss atomics;
/// [`access_stats`](BufferManager::access_stats) derives the node-access
/// counters from them. Structural mutation —
/// [`alloc`](BufferManager::alloc), [`write`](BufferManager::write),
/// [`free`](BufferManager::free), restore — still takes `&mut self`;
/// that exclusivity is exactly what makes the shared-read path sound
/// without any unsafe code.
///
/// Decoded nodes are cached as `Arc<Node<D>>`, so a buffer hit is one
/// lock acquisition and one refcount bump; no page is ever decoded twice
/// while it stays resident, and its children are sorted at most once per
/// sweep axis and direction ([`Node::sweep_order`]).
#[derive(Debug)]
pub struct BufferManager<const D: usize> {
    disk: VirtualDisk,
    cache: ShardedLru<PageId, Arc<Node<D>>>,
    page_size: usize,
}

impl<const D: usize> BufferManager<D> {
    /// Creates a manager over a fresh disk charging `cost`, with a node
    /// buffer of `buffer_bytes` (zero disables buffering).
    pub fn new(cost: CostModel, buffer_bytes: usize) -> Self {
        let page_size = cost.page_size;
        let shards = ShardedLru::<PageId, Arc<Node<D>>>::shards_for(buffer_bytes, page_size);
        BufferManager {
            disk: VirtualDisk::new(cost),
            cache: ShardedLru::new(buffer_bytes, shards),
            page_size,
        }
    }

    /// Page size in bytes.
    #[inline]
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Fetches a node through the buffer, charging the disk's cost model
    /// on a miss.
    pub fn fetch(&self, pid: PageId) -> Arc<Node<D>> {
        if let Some(hit) = self.cache.get(&pid) {
            TL_BUFFER_HITS.set(TL_BUFFER_HITS.get() + 1);
            return hit;
        }
        TL_BUFFER_MISSES.set(TL_BUFFER_MISSES.get() + 1);
        let node = Arc::new(Node::decode(self.disk.read(pid)));
        let evicted = self.cache.insert(pid, Arc::clone(&node), self.page_size);
        TL_BUFFER_EVICTIONS.set(TL_BUFFER_EVICTIONS.get() + evicted);
        node
    }

    /// Allocates a page for a new node.
    pub fn alloc(&mut self) -> PageId {
        self.disk.alloc()
    }

    /// Encodes and writes `node` to `pid`, keeping the buffer coherent:
    /// the buffer holds a fresh clone, whose sweep-order cache
    /// ([`Node::sweep_order`]) starts empty, so no order computed for the
    /// page's previous contents survives the write.
    ///
    /// Panics if the encoded node exceeds the page size.
    pub fn write(&mut self, pid: PageId, node: &Node<D>) {
        let mut buf = Vec::with_capacity(Node::<D>::encoded_len(node.entries.len()));
        node.encode(&mut buf);
        assert!(
            buf.len() <= self.page_size,
            "node with {} entries exceeds page size",
            node.entries.len()
        );
        self.disk.write(pid, &buf);
        let evicted = self
            .cache
            .insert(pid, Arc::new(node.clone()), self.page_size);
        TL_BUFFER_EVICTIONS.set(TL_BUFFER_EVICTIONS.get() + evicted);
    }

    /// Frees `pid` on the disk. A buffered copy may linger until LRU
    /// eviction — harmless, since the tree never references a freed page
    /// again.
    pub fn free(&mut self, pid: PageId) {
        self.disk.free(pid);
    }

    /// Node access counters since the last
    /// [`reset_stats`](BufferManager::reset_stats), derived from the
    /// cache's own counters: every fetch is one cache lookup, and every
    /// miss is one disk read.
    pub fn access_stats(&self) -> AccessStats {
        let disk_reads = self.cache.misses();
        AccessStats {
            requests: self.cache.hits() + disk_reads,
            disk_reads,
        }
    }

    /// Buffer hits/misses as counted by the cache itself.
    pub fn cache_hits(&self) -> u64 {
        self.cache.hits()
    }

    /// Buffer misses as counted by the cache itself.
    pub fn cache_misses(&self) -> u64 {
        self.cache.misses()
    }

    /// Pages evicted from the node buffer to make room — the eviction-
    /// pressure signal serve mode watches for cross-query thrashing.
    pub fn cache_evictions(&self) -> u64 {
        self.cache.evictions()
    }

    /// Clears node-access and disk statistics (lock-free).
    pub fn reset_stats(&self) {
        self.cache.reset_stats();
        self.disk.reset_stats();
    }

    /// Empties the node buffer (statistics are kept).
    pub fn clear(&self) {
        self.cache.clear();
    }

    /// The underlying disk (read-only: stats, persistence export).
    pub fn disk(&self) -> &VirtualDisk {
        &self.disk
    }

    /// The underlying disk, mutably (persistence import).
    pub fn disk_mut(&mut self) -> &mut VirtualDisk {
        &mut self.disk
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manager(buffer_bytes: usize) -> BufferManager<2> {
        let cost = CostModel {
            page_size: 256,
            ..CostModel::free()
        };
        BufferManager::new(cost, buffer_bytes)
    }

    #[test]
    fn fetch_counts_through_shared_ref() {
        let mut m = manager(4 * 256);
        let pid = m.alloc();
        m.write(pid, &Node::new(0));
        m.reset_stats();
        m.clear();
        let m = &m; // all reads below go through &BufferManager
        let _ = m.fetch(pid); // miss
        let _ = m.fetch(pid); // hit
        let s = m.access_stats();
        assert_eq!((s.requests, s.disk_reads), (2, 1));
        assert_eq!((m.cache_hits(), m.cache_misses()), (1, 1));
    }

    #[test]
    fn thread_counters_track_the_calling_thread_only() {
        let mut m = manager(4 * 256);
        let pid = m.alloc();
        m.write(pid, &Node::new(0));
        m.clear();
        let (h0, m0, _) = thread_buffer_stats();
        let _ = m.fetch(pid); // miss
        let _ = m.fetch(pid); // hit
        let _ = m.fetch(pid); // hit
        let after = thread_buffer_stats();
        let (h1, m1, _) = after;
        assert_eq!((h1 - h0, m1 - m0), (2, 1));
        // A fetch on another thread moves that thread's counters, not ours.
        std::thread::scope(|scope| {
            let m = &m;
            scope.spawn(move || {
                let (h, ms, e) = thread_buffer_stats();
                assert_eq!((h, ms, e), (0, 0, 0), "fresh thread starts at zero");
                let _ = m.fetch(pid);
                assert_eq!(thread_buffer_stats(), (h + 1, ms, e));
            });
        });
        assert_eq!(thread_buffer_stats(), after);
    }

    #[test]
    fn concurrent_fetches_count_every_request() {
        let mut m = manager(4 * 256);
        let pids: Vec<PageId> = (0..8)
            .map(|_| {
                let pid = m.alloc();
                m.write(pid, &Node::new(0));
                pid
            })
            .collect();
        m.reset_stats();
        let threads = 4;
        let per_thread = 250;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let m = &m;
                let pids = &pids;
                scope.spawn(move || {
                    for i in 0..per_thread {
                        let node = m.fetch(pids[(t + i) % pids.len()]);
                        assert_eq!(node.level, 0);
                    }
                });
            }
        });
        let s = m.access_stats();
        assert_eq!(s.requests, (threads * per_thread) as u64);
        assert!(s.disk_reads >= 1, "at least the cold pages missed");
        assert_eq!(s.requests, m.cache_hits() + m.cache_misses());
    }
}
