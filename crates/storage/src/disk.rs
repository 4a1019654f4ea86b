use std::sync::atomic::{AtomicU64, Ordering};

use crate::CostModel;

/// Identifier of a page on a [`VirtualDisk`]. Allocation order is physical
/// order: consecutive ids are "adjacent on the platter" for the purpose of
/// sequential/random classification.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u64);

/// Cumulative statistics of a [`VirtualDisk`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DiskStats {
    /// Pages read.
    pub pages_read: u64,
    /// Pages read that were classified sequential.
    pub seq_reads: u64,
    /// Pages written.
    pub pages_written: u64,
    /// Writes classified sequential.
    pub seq_writes: u64,
    /// Total modeled I/O time in seconds, per the disk's [`CostModel`]:
    /// sequential transfers times [`CostModel::page_time`]`(true)` plus
    /// random ones times `page_time(false)`, priced from the counts above
    /// when the snapshot is taken.
    pub io_seconds: f64,
}

impl DiskStats {
    /// Reads classified random.
    pub fn rand_reads(&self) -> u64 {
        self.pages_read - self.seq_reads
    }

    /// Writes classified random.
    pub fn rand_writes(&self) -> u64 {
        self.pages_written - self.seq_writes
    }

    /// Total page transfers.
    pub fn total_ios(&self) -> u64 {
        self.pages_read + self.pages_written
    }
}

/// `last_accessed` sentinel: no page has been touched since the last
/// stats reset. Page ids never reach this value in practice.
const NO_PAGE: u64 = u64::MAX;

/// Atomic counters behind [`DiskStats`], so metering works from `&self`
/// and concurrent readers never contend on a lock. Updates use relaxed
/// ordering since they are statistics, not synchronization. Modeled time
/// is not accumulated: [`VirtualDisk::stats`] prices the counts.
#[derive(Debug, Default)]
struct AtomicDiskStats {
    pages_read: AtomicU64,
    seq_reads: AtomicU64,
    pages_written: AtomicU64,
    seq_writes: AtomicU64,
}

impl AtomicDiskStats {
    fn snapshot(&self, cost: &CostModel) -> DiskStats {
        let mut s = DiskStats {
            pages_read: self.pages_read.load(Ordering::Relaxed),
            seq_reads: self.seq_reads.load(Ordering::Relaxed),
            pages_written: self.pages_written.load(Ordering::Relaxed),
            seq_writes: self.seq_writes.load(Ordering::Relaxed),
            io_seconds: 0.0,
        };
        let seq = s.seq_reads + s.seq_writes;
        // Saturating: a snapshot racing a transfer may see its sequential
        // count before its total.
        let rand = s.total_ios().saturating_sub(seq);
        s.io_seconds = seq as f64 * cost.page_time(true) + rand as f64 * cost.page_time(false);
        s
    }

    fn reset(&self) {
        self.pages_read.store(0, Ordering::Relaxed);
        self.seq_reads.store(0, Ordering::Relaxed);
        self.pages_written.store(0, Ordering::Relaxed);
        self.seq_writes.store(0, Ordering::Relaxed);
    }
}

/// An in-process paged store standing in for the paper's locally attached
/// disk.
///
/// `VirtualDisk` holds page images in memory but meters every transfer: a
/// page access immediately following an access to the physically previous
/// page is charged at the sequential rate, anything else at the random rate
/// (see [`CostModel`]). This keeps experiments hermetic and repeatable
/// while preserving the I/O economics that separate the paper's algorithms
/// — the quantity the harness reports as *modeled response time*.
///
/// Reads are `&self`: metering runs on atomics, so any number of threads
/// may read pages of a shared disk concurrently. Structural mutation
/// (write / alloc / free / restore) still takes `&mut self`, which is what
/// makes the shared-read guarantee airtight — Rust's aliasing rules forbid
/// a writer while readers exist.
///
/// Pages are fixed-size; short writes are zero-padded to the page size.
#[derive(Debug)]
pub struct VirtualDisk {
    page_size: usize,
    cost: CostModel,
    pages: Vec<Option<Box<[u8]>>>,
    free_list: Vec<PageId>,
    last_accessed: AtomicU64,
    stats: AtomicDiskStats,
}

impl VirtualDisk {
    /// Creates an empty disk charging `cost` with `cost.page_size` pages.
    pub fn new(cost: CostModel) -> Self {
        VirtualDisk {
            page_size: cost.page_size,
            cost,
            pages: Vec::new(),
            free_list: Vec::new(),
            last_accessed: AtomicU64::new(NO_PAGE),
            stats: AtomicDiskStats::default(),
        }
    }

    /// Page size in bytes.
    #[inline]
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of live (allocated, not freed) pages.
    pub fn live_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }

    /// Allocates a fresh page (contents undefined until written). Reuses
    /// freed slots before growing.
    pub fn alloc(&mut self) -> PageId {
        if let Some(id) = self.free_list.pop() {
            self.pages[id.0 as usize] = Some(vec![0u8; self.page_size].into_boxed_slice());
            return id;
        }
        let id = PageId(self.pages.len() as u64);
        self.pages
            .push(Some(vec![0u8; self.page_size].into_boxed_slice()));
        id
    }

    /// Allocates `n` physically contiguous pages (so a later in-order scan
    /// of them is charged sequentially).
    pub fn alloc_contiguous(&mut self, n: usize) -> Vec<PageId> {
        let start = self.pages.len() as u64;
        let mut ids = Vec::with_capacity(n);
        for i in 0..n {
            self.pages
                .push(Some(vec![0u8; self.page_size].into_boxed_slice()));
            ids.push(PageId(start + i as u64));
        }
        ids
    }

    fn charge(&self, id: PageId, write: bool) {
        let prev = self.last_accessed.swap(id.0, Ordering::Relaxed);
        let sequential = prev != NO_PAGE && prev == id.0.wrapping_sub(1);
        if write {
            self.stats.pages_written.fetch_add(1, Ordering::Relaxed);
            if sequential {
                self.stats.seq_writes.fetch_add(1, Ordering::Relaxed);
            }
        } else {
            self.stats.pages_read.fetch_add(1, Ordering::Relaxed);
            if sequential {
                self.stats.seq_reads.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Writes `data` to page `id` (padded with zeros to the page size).
    ///
    /// Panics if `data` exceeds the page size or `id` is not allocated.
    pub fn write(&mut self, id: PageId, data: &[u8]) {
        assert!(data.len() <= self.page_size, "write exceeds page size");
        let slot = self.pages[id.0 as usize]
            .as_mut()
            .expect("write to freed page");
        slot[..data.len()].copy_from_slice(data);
        slot[data.len()..].fill(0);
        self.charge(id, true);
    }

    /// Reads page `id`, returning its full (padded) image.
    ///
    /// Panics if `id` is not allocated.
    pub fn read(&self, id: PageId) -> &[u8] {
        self.charge(id, false);
        self.pages[id.0 as usize]
            .as_deref()
            .expect("read of freed page")
    }

    /// Page `id`'s image if it is live, without charging I/O or touching
    /// the access pattern — for validating a page reference, not for
    /// reading data a query pays for.
    pub fn peek(&self, id: PageId) -> Option<&[u8]> {
        self.pages.get(usize::try_from(id.0).ok()?)?.as_deref()
    }

    /// Frees page `id`, making the slot reusable. Freeing is a metadata
    /// operation and charges no I/O.
    pub fn free(&mut self, id: PageId) {
        let slot = &mut self.pages[id.0 as usize];
        assert!(slot.is_some(), "double free of page {id:?}");
        *slot = None;
        self.free_list.push(id);
    }

    /// Cumulative statistics (a consistent-enough snapshot: counters are
    /// read individually with relaxed ordering).
    pub fn stats(&self) -> DiskStats {
        self.stats.snapshot(&self.cost)
    }

    /// Resets the statistics (page contents are untouched). Useful to
    /// exclude index-construction I/O from query measurements.
    pub fn reset_stats(&self) {
        self.stats.reset();
        self.last_accessed.store(NO_PAGE, Ordering::Relaxed);
    }

    /// Iterates the live pages (id + image) without charging I/O — the
    /// export path for persistence.
    pub fn live_page_images(&self) -> impl Iterator<Item = (PageId, &[u8])> {
        self.pages
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.as_deref().map(|img| (PageId(i as u64), img)))
    }

    /// Restores a page at a specific id (growing the slot table as
    /// needed), without charging I/O — the import path for persistence.
    /// Call [`finish_restore`](VirtualDisk::finish_restore) once all pages
    /// are in.
    pub fn restore_page(&mut self, id: PageId, data: &[u8]) {
        assert!(
            data.len() <= self.page_size,
            "restored page exceeds page size"
        );
        let idx = id.0 as usize;
        if idx >= self.pages.len() {
            self.pages.resize_with(idx + 1, || None);
        }
        let mut img = vec![0u8; self.page_size].into_boxed_slice();
        img[..data.len()].copy_from_slice(data);
        self.pages[idx] = Some(img);
    }

    /// Rebuilds the free list after a sequence of
    /// [`restore_page`](VirtualDisk::restore_page) calls, so later
    /// allocations reuse the holes left by deleted nodes.
    pub fn finish_restore(&mut self) {
        self.free_list = self
            .pages
            .iter()
            .enumerate()
            .filter(|(_, p)| p.is_none())
            .map(|(i, _)| PageId(i as u64))
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> VirtualDisk {
        VirtualDisk::new(CostModel {
            page_size: 64,
            ..CostModel::paper_1999_disk()
        })
    }

    #[test]
    fn write_read_roundtrip() {
        let mut d = disk();
        let p = d.alloc();
        d.write(p, b"hello");
        let img = d.read(p).to_vec();
        assert_eq!(&img[..5], b"hello");
        assert!(img[5..].iter().all(|&b| b == 0));
        assert_eq!(img.len(), 64);
    }

    #[test]
    fn sequential_classification() {
        let mut d = disk();
        let ids = d.alloc_contiguous(4);
        for &id in &ids {
            d.write(id, b"x");
        }
        let s = d.stats();
        assert_eq!(s.pages_written, 4);
        // First write is random (no predecessor), the rest sequential.
        assert_eq!(s.seq_writes, 3);

        for &id in &ids {
            let _ = d.read(id);
        }
        // Read of ids[0] follows write of ids[3]: random; rest sequential.
        let s = d.stats();
        assert_eq!(s.pages_read, 4);
        assert_eq!(s.seq_reads, 3);
    }

    #[test]
    fn random_access_costs_more() {
        let cost = CostModel {
            page_size: 4096,
            ..CostModel::paper_1999_disk()
        };
        let mut d = VirtualDisk::new(cost);
        let ids = d.alloc_contiguous(10);
        d.reset_stats();
        for &id in &ids {
            let _ = d.read(id);
        }
        let seq_time = d.stats().io_seconds;
        d.reset_stats();
        // Stride-2 reads are all classified random.
        for i in (0..10).step_by(2).chain((1..10).step_by(2)) {
            let _ = d.read(ids[i]);
        }
        let rand_time = d.stats().io_seconds;
        assert!(
            rand_time > seq_time * 5.0,
            "rand={rand_time} seq={seq_time}"
        );
    }

    #[test]
    fn page_zero_after_reset_is_random() {
        let mut d = disk();
        let ids = d.alloc_contiguous(2);
        d.reset_stats();
        // No predecessor: must not be classified sequential, even though
        // the internal "no page" sentinel is numerically `0 - 1`.
        let _ = d.read(ids[0]);
        assert_eq!(d.stats().seq_reads, 0);
    }

    #[test]
    fn free_and_reuse() {
        let mut d = disk();
        let a = d.alloc();
        let _b = d.alloc();
        assert_eq!(d.live_pages(), 2);
        d.free(a);
        assert_eq!(d.live_pages(), 1);
        let c = d.alloc();
        assert_eq!(c, a, "freed slot is reused");
        assert_eq!(d.live_pages(), 2);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut d = disk();
        let a = d.alloc();
        d.free(a);
        d.free(a);
    }

    #[test]
    #[should_panic(expected = "exceeds page size")]
    fn oversized_write_panics() {
        let mut d = disk();
        let a = d.alloc();
        d.write(a, &[0u8; 65]);
    }

    #[test]
    fn reset_stats_clears_everything() {
        let mut d = disk();
        let a = d.alloc();
        d.write(a, b"x");
        let _ = d.read(a);
        d.reset_stats();
        assert_eq!(d.stats(), DiskStats::default());
    }

    #[test]
    fn stats_helpers() {
        let s = DiskStats {
            pages_read: 10,
            seq_reads: 4,
            pages_written: 6,
            seq_writes: 6,
            io_seconds: 0.0,
        };
        assert_eq!(s.rand_reads(), 6);
        assert_eq!(s.rand_writes(), 0);
        assert_eq!(s.total_ios(), 16);
    }

    #[test]
    fn concurrent_reads_count_exactly() {
        let cost = CostModel {
            page_size: 64,
            ..CostModel::paper_1999_disk()
        };
        let mut d = VirtualDisk::new(cost);
        let ids = d.alloc_contiguous(8);
        for &id in &ids {
            d.write(id, b"x");
        }
        d.reset_stats();
        let threads = 4;
        let reads_per_thread = 500;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let d = &d;
                let ids = &ids;
                scope.spawn(move || {
                    for i in 0..reads_per_thread {
                        let _ = d.read(ids[(t + i) % ids.len()]);
                    }
                });
            }
        });
        let s = d.stats();
        assert_eq!(s.pages_read, (threads * reads_per_thread) as u64);
        assert!(s.io_seconds > 0.0);
    }
}
