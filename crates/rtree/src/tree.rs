use std::sync::Arc;

use amdj_geom::Rect;
use amdj_storage::{DiskStats, PageId};

use crate::{BufferManager, Node, RTreeParams};

/// Node access counters.
///
/// `requests` counts every logical node access; `disk_reads` counts the
/// subset that missed the LRU buffer and hit the disk. The paper's Table 2
/// reports `disk_reads` (and, in parentheses, the no-buffer figure — which
/// equals `requests`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AccessStats {
    /// Logical node accesses.
    pub requests: u64,
    /// Accesses that read the page from disk (buffer misses).
    pub disk_reads: u64,
}

/// An R*-tree over object MBRs, stored on a paged virtual disk and
/// accessed through a sharded, byte-budgeted LRU buffer.
///
/// Leaf entries carry `(object MBR, object id)`; internal entries carry
/// `(subtree MBR, child page id)`. Build one with
/// [`bulk_load`](RTree::bulk_load) (STR packing, what the experiments use)
/// or incrementally with [`insert`](RTree::insert) (full R* insertion).
///
/// Every query path takes `&self` — the page buffer synchronizes
/// internally (see [`BufferManager`]) — so a tree can be shared across
/// threads (`RTree<D>: Send + Sync`) and any number of joins or queries
/// can read it concurrently. Only structural mutation (insert, delete,
/// load) needs `&mut self`.
///
/// ```
/// use amdj_geom::{Point, Rect};
/// use amdj_rtree::{RTree, RTreeParams};
///
/// let items: Vec<(Rect<2>, u64)> = (0..1000)
///     .map(|i| (Rect::from_point(Point::new([(i % 32) as f64, (i / 32) as f64])), i))
///     .collect();
/// let mut tree = RTree::bulk_load(RTreeParams::paper_defaults(), items);
///
/// let hits = tree.range_query(&Rect::new([3.0, 3.0], [5.0, 5.0]));
/// assert_eq!(hits.len(), 9);
///
/// let nn = tree.nearest_neighbors(&Point::new([10.2, 10.3]), 1);
/// assert_eq!(nn[0].mbr, Rect::from_point(Point::new([10.0, 10.0])));
///
/// tree.insert(Rect::from_point(Point::new([100.0, 100.0])), 9999);
/// assert!(tree.delete(&Rect::from_point(Point::new([100.0, 100.0])), 9999));
/// tree.validate().expect("invariants hold");
/// ```
pub struct RTree<const D: usize> {
    params: RTreeParams,
    pub(crate) pages: BufferManager<D>,
    pub(crate) root: Option<PageId>,
    pub(crate) height: u32,
    pub(crate) len: u64,
}

impl<const D: usize> RTree<D> {
    /// Creates an empty tree.
    pub fn new(params: RTreeParams) -> Self {
        let cost = amdj_storage::CostModel {
            page_size: params.page_size,
            ..params.cost
        };
        let pages = BufferManager::new(cost, params.buffer_bytes);
        RTree {
            params,
            pages,
            root: None,
            height: 0,
            len: 0,
        }
    }

    /// The tree's configuration.
    pub fn params(&self) -> &RTreeParams {
        &self.params
    }

    /// Number of objects stored.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the tree stores no objects.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of levels (0 when empty; a single leaf root is height 1).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Root page id, if any.
    pub fn root_page(&self) -> Option<PageId> {
        self.root
    }

    /// The bounding rectangle of the whole data set, if non-empty.
    pub fn bounds(&self) -> Option<Rect<D>> {
        let root = self.root?;
        Some(self.fetch(root).mbr())
    }

    /// Total pages (≈ nodes) allocated on the tree's disk.
    pub fn page_count(&self) -> usize {
        self.pages.disk().live_pages()
    }

    /// Node access counters since the last [`reset_stats`](RTree::reset_stats).
    pub fn access_stats(&self) -> AccessStats {
        self.pages.access_stats()
    }

    /// Disk-level I/O statistics (reads, writes, modeled seconds).
    pub fn disk_stats(&self) -> DiskStats {
        self.pages.disk().stats()
    }

    /// Node-buffer hits as counted by the shared cache itself
    /// (process-wide, unlike the per-thread
    /// [`thread_buffer_stats`](crate::thread_buffer_stats)).
    pub fn buffer_hits(&self) -> u64 {
        self.pages.cache_hits()
    }

    /// Node-buffer misses as counted by the shared cache itself.
    pub fn buffer_misses(&self) -> u64 {
        self.pages.cache_misses()
    }

    /// Pages evicted from the node buffer to make room — the
    /// eviction-pressure signal serve mode reports per query batch.
    pub fn buffer_evictions(&self) -> u64 {
        self.pages.cache_evictions()
    }

    /// Clears access and disk statistics — typically called after building
    /// an index so measurements cover queries only. Lock-free.
    pub fn reset_stats(&self) {
        self.pages.reset_stats();
    }

    /// Empties the node buffer (statistics are kept). Used by experiments
    /// to cold-start each query.
    pub fn clear_buffer(&self) {
        self.pages.clear();
    }

    /// Fetches a node, through the buffer.
    pub fn fetch(&self, pid: PageId) -> Arc<Node<D>> {
        self.pages.fetch(pid)
    }

    /// The level and entry count of the live node at `pid`, read from
    /// its page image's header without a buffer lookup, access counting,
    /// or I/O charge; `None` when no live page has that id. For
    /// validating a node reference from outside the tree (a resumed join
    /// snapshot's), not for traversal.
    pub fn peek_node_header(&self, pid: PageId) -> Option<(u32, usize)> {
        self.pages.disk().peek(pid).map(Node::<D>::decode_header)
    }

    /// The live node at `pid`, decoded like
    /// [`peek_node_header`](RTree::peek_node_header) reads its header:
    /// uncounted and uncharged.
    pub fn peek_node(&self, pid: PageId) -> Option<Node<D>> {
        self.pages.disk().peek(pid).map(Node::decode)
    }

    /// Allocates a page for a new node.
    pub(crate) fn alloc_page(&mut self) -> PageId {
        self.pages.alloc()
    }

    /// Encodes and writes `node` to `pid`, keeping the buffer coherent.
    pub(crate) fn write_node(&mut self, pid: PageId, node: &Node<D>) {
        self.pages.write(pid, node);
    }
}

impl<const D: usize> std::fmt::Debug for RTree<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RTree")
            .field("len", &self.len)
            .field("height", &self.height)
            .field("pages", &self.pages.disk().live_pages())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tree() {
        let t: RTree<2> = RTree::new(RTreeParams::for_tests());
        assert!(t.is_empty());
        assert_eq!(t.height(), 0);
        assert!(t.bounds().is_none());
        assert!(t.root_page().is_none());
    }

    #[test]
    fn fetch_counts_requests_and_misses() {
        let mut t: RTree<2> = RTree::new(RTreeParams::for_tests());
        let pid = t.alloc_page();
        let node = Node::new(0);
        t.write_node(pid, &node);
        t.reset_stats();
        t.clear_buffer();
        let t = &t; // the whole read path is &self
        let _ = t.fetch(pid); // miss
        let _ = t.fetch(pid); // hit
        let s = t.access_stats();
        assert_eq!(s.requests, 2);
        assert_eq!(s.disk_reads, 1);
    }

    #[test]
    fn zero_buffer_always_misses() {
        let mut p = RTreeParams::for_tests();
        p.buffer_bytes = 0;
        let mut t: RTree<2> = RTree::new(p);
        let pid = t.alloc_page();
        t.write_node(pid, &Node::new(0));
        t.reset_stats();
        for _ in 0..5 {
            let _ = t.fetch(pid);
        }
        let s = t.access_stats();
        assert_eq!(s.requests, 5);
        assert_eq!(s.disk_reads, 5);
    }

    #[test]
    fn trees_are_send_and_sync() {
        // Compile-time assertion: the whole point of the buffer manager.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RTree<2>>();
        assert_send_sync::<RTree<3>>();
        assert_send_sync::<BufferManager<2>>();
    }
}
