//! The hybrid memory/disk priority queue of the paper's §4.4.
//!
//! A [`SpillQueue`] keeps the shortest-distance range of its contents in an
//! in-memory min-heap bounded by a byte budget; the rest lives on a
//! [`VirtualDisk`] as *unsorted piles* ("segments"), each covering a
//! distance range. Inserts whose key falls in a disk-resident range append
//! to that segment directly (a cheap, mostly sequential write) instead of
//! churning the heap. When the heap overflows it is *split* — the
//! longer-distance half is spilled as a new segment; when it empties, the
//! segment with the shortest range is *swapped in*.
//!
//! Split boundaries prefer the caller-provided candidate boundaries — the
//! paper derives them from Equation (3) as `b_i = sqrt(i · n · ρ)` for heap
//! capacity `n` — and fall back to the median key, so the queue behaves
//! sensibly even when the uniformity assumption behind Equation (3) fails.
//! Splits make amortised progress whatever the keys, so a tie-heavy key
//! stream (a distance-0 group filling the heap) cannot degrade into one
//! split per push.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::codec::{put_u32, put_u64, CodecError, Reader};
use crate::{CostModel, DiskStats, PageId, VirtualDisk};

/// Bookkeeping overhead charged per item resident in the in-memory heap, on
/// top of its encoded length (the heap handle's key copy, sequence number
/// and slab slot).
///
/// Exported so callers sizing heap capacities — e.g. the Equation-3
/// boundary derivation, which needs the number of items a budget holds —
/// charge exactly what the queue charges. See
/// [`SpillQueue::per_item_cost`].
pub const HEAP_ENTRY_OVERHEAD: usize = 24;

/// Bytes at the start of each segment page recording the valid byte count.
const PAGE_HEADER: usize = 4;

/// Filled segment pages are buffered and flushed in contiguous extents of
/// this many pages, so segment traffic is charged mostly sequentially —
/// the behaviour of an OS write-buffered segment file, which is what the
/// paper's hybrid queue writes to.
const EXTENT_PAGES: usize = 8;

/// An item storable in a [`SpillQueue`].
///
/// Items are ordered by [`key`](SpillItem::key) (ascending; the queue is a
/// min-queue) and must serialize to exactly
/// [`encoded_len`](SpillItem::encoded_len) bytes.
pub trait SpillItem: Sized {
    /// The priority key. Must be finite and non-NaN.
    fn key(&self) -> f64;
    /// Serialized size in bytes (must match what [`encode`](SpillItem::encode) writes).
    fn encoded_len(&self) -> usize;
    /// Appends the serialized form to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Fallibly decodes one item — the path for input that crosses a trust
    /// boundary (a checkpoint file). Implementations report truncation or
    /// malformed fields as a [`CodecError`] instead of panicking.
    fn try_decode(r: &mut Reader<'_>) -> Result<Self, CodecError>;
    /// Decodes one item the storage layer itself wrote; a failure here is
    /// a logic error, so it panics.
    fn decode(r: &mut Reader<'_>) -> Self {
        match Self::try_decode(r) {
            Ok(item) => item,
            Err(e) => panic!("codec: {e}"),
        }
    }
}

/// Serializes `items` in the spill segment page format: a `u64` item
/// count, then a run of pages, each a `u32` body length followed by that
/// many bytes of packed [`SpillItem`] encodings. Bodies hold at most
/// `page_size - PAGE_HEADER` bytes, exactly like an on-disk segment page
/// (minus the zero padding, which a byte stream has no use for).
///
/// This is the one serialization of "a queue's contents" in the
/// workspace: [`SpillQueue::save_contents`] writes it, engine snapshots
/// embed it, and [`try_decode_page_framed`] reads it back.
pub fn encode_page_framed<T: SpillItem>(items: &[T], page_size: usize, out: &mut Vec<u8>) {
    let capacity = page_size.saturating_sub(PAGE_HEADER).max(1);
    put_u64(out, items.len() as u64);
    let mut body: Vec<u8> = Vec::new();
    for item in items {
        let encoded = item.encoded_len();
        assert!(
            encoded <= capacity,
            "spill item of {encoded} bytes exceeds page capacity"
        );
        if body.len() + encoded > capacity {
            put_u32(out, body.len() as u32);
            out.extend_from_slice(&body);
            body.clear();
        }
        item.encode(&mut body);
    }
    if !body.is_empty() {
        put_u32(out, body.len() as u32);
        out.extend_from_slice(&body);
    }
}

/// Decodes a page-framed run written by [`encode_page_framed`], verifying
/// the declared item count and page framing. Errors carry the absolute
/// byte offset within `r`'s buffer.
pub fn try_decode_page_framed<T: SpillItem>(r: &mut Reader<'_>) -> Result<Vec<T>, CodecError> {
    let declared = r.try_u64("queue item count")?;
    if declared > r.remaining() as u64 {
        // Each item encodes to at least one byte, so a count beyond the
        // remaining input is corrupt — reject before allocating for it.
        return Err(CodecError {
            offset: r.position().saturating_sub(8),
            expected: "plausible queue item count",
        });
    }
    let mut items = Vec::with_capacity(declared as usize);
    while (items.len() as u64) < declared {
        let body_len = r.try_u32("page body length")? as usize;
        if body_len > r.remaining() {
            return Err(CodecError {
                offset: r.position().saturating_sub(4),
                expected: "page body within input",
            });
        }
        let end = r.position() + body_len;
        while r.position() < end {
            items.push(T::try_decode(r)?);
            if items.len() as u64 > declared {
                return Err(CodecError {
                    offset: r.position(),
                    expected: "item count matching pages",
                });
            }
        }
        if r.position() != end {
            return Err(CodecError {
                offset: r.position(),
                expected: "item aligned to page body",
            });
        }
    }
    Ok(items)
}

/// Configuration of a [`SpillQueue`].
#[derive(Clone, Debug)]
pub struct SpillQueueConfig {
    /// Byte budget of the in-memory heap (the paper's "in-memory portion of
    /// a main queue", 64 KB – 1024 KB in the experiments).
    pub mem_budget: usize,
    /// Ascending candidate split boundaries (distances), typically from
    /// Equation (3). May be empty; the queue then always splits at the
    /// median.
    pub boundaries: Vec<f64>,
    /// I/O cost model for the queue's backing disk.
    pub cost: CostModel,
}

impl SpillQueueConfig {
    /// A queue that never spills (effectively unbounded memory) — used in
    /// tests and small examples.
    pub fn unbounded() -> Self {
        SpillQueueConfig {
            mem_budget: usize::MAX,
            boundaries: Vec::new(),
            cost: CostModel::free(),
        }
    }

    /// A memory-budgeted queue with the paper's disk cost model.
    pub fn budgeted(mem_budget: usize, boundaries: Vec<f64>) -> Self {
        SpillQueueConfig {
            mem_budget,
            boundaries,
            cost: CostModel::paper_1999_disk(),
        }
    }
}

/// Counters describing a [`SpillQueue`]'s work (disk traffic is reported
/// separately via [`SpillQueue::disk_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpillQueueStats {
    /// Total items inserted.
    pub insertions: u64,
    /// Total items popped.
    pub pops: u64,
    /// Heap splits (heap overflow → new disk segment).
    pub splits: u64,
    /// Segment swap-ins (heap underflow → segment loaded).
    pub swap_ins: u64,
    /// Items that were ever written to a disk segment.
    pub items_spilled: u64,
    /// High-water mark of live items.
    pub max_len: u64,
}

/// A heap handle to a resident item: its key, its sequence number, and
/// its slot in the queue's slab. Sifting moves these 24 bytes, never the
/// item itself.
#[derive(Clone, Copy, Debug)]
struct HeapEntry {
    key: f64,
    seq: u64,
    slot: u32,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key.total_cmp(&other.key) == Ordering::Equal && self.seq == other.seq
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the min key on top.
        // Ties broken by insertion order (older first) for determinism.
        other
            .key
            .total_cmp(&self.key)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// An unsorted on-disk pile holding items with keys in `[lo, next.lo)`.
#[derive(Debug)]
struct Segment {
    lo: f64,
    pages: Vec<PageId>,
    /// Filled-but-unflushed page images awaiting an extent flush.
    pending: Vec<Vec<u8>>,
    /// Write buffer for the currently filling page (`PAGE_HEADER` bytes
    /// reserved at the front).
    tail: Vec<u8>,
    count: u64,
    bytes: u64,
}

impl Segment {
    fn new(lo: f64, page_size: usize) -> Self {
        let mut tail = Vec::with_capacity(page_size);
        tail.resize(PAGE_HEADER, 0);
        Segment {
            lo,
            pages: Vec::new(),
            pending: Vec::new(),
            tail,
            count: 0,
            bytes: 0,
        }
    }

    fn seal_tail(&mut self, page_size: usize) {
        let body_len = (self.tail.len() - PAGE_HEADER) as u32;
        self.tail[..PAGE_HEADER].copy_from_slice(&body_len.to_le_bytes());
        let sealed = std::mem::replace(&mut self.tail, {
            let mut t = Vec::with_capacity(page_size);
            t.resize(PAGE_HEADER, 0);
            t
        });
        self.pending.push(sealed);
    }

    /// Writes all pending page images as one contiguous extent.
    fn flush_extent(&mut self, disk: &mut VirtualDisk) {
        if self.pending.is_empty() {
            return;
        }
        let ids = disk.alloc_contiguous(self.pending.len());
        for (pid, image) in ids.iter().zip(self.pending.drain(..)) {
            disk.write(*pid, &image);
        }
        self.pages.extend(ids);
    }
}

/// The hybrid memory/disk min-priority queue of §4.4.
///
/// Equal keys pop oldest-first, also across spills: a split writes its
/// spilled entries in insertion order, and a swap-in re-reads a segment
/// in the order it was written.
pub struct SpillQueue<T: SpillItem> {
    config: SpillQueueConfig,
    disk: VirtualDisk,
    heap: BinaryHeap<HeapEntry>,
    /// The resident items, addressed by [`HeapEntry::slot`]; `free` lists
    /// the empty slots for reuse.
    slab: Vec<Option<T>>,
    free: Vec<u32>,
    heap_bytes: usize,
    seq: u64,
    /// Ascending by `lo`; `front` holds the shortest-distance range.
    segments: VecDeque<Segment>,
    /// Items held by all segments together.
    segment_items: u64,
    stats: SpillQueueStats,
}

impl<T: SpillItem> SpillQueue<T> {
    /// Creates an empty queue with its own backing disk.
    pub fn new(config: SpillQueueConfig) -> Self {
        let disk = VirtualDisk::new(config.cost);
        SpillQueue {
            config,
            disk,
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            heap_bytes: 0,
            seq: 0,
            segments: VecDeque::new(),
            segment_items: 0,
            stats: SpillQueueStats::default(),
        }
    }

    /// Live item count.
    pub fn len(&self) -> u64 {
        self.heap.len() as u64 + self.segment_items
    }

    /// Whether the queue holds no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of disk-resident segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Bytes currently charged to the in-memory heap.
    pub fn mem_bytes(&self) -> usize {
        self.heap_bytes
    }

    /// Bytes held by the queue's live spill pages.
    pub fn spilled_bytes(&self) -> usize {
        self.disk.live_pages() * self.disk.page_size()
    }

    /// Queue operation counters.
    pub fn stats(&self) -> SpillQueueStats {
        self.stats
    }

    /// I/O statistics of the queue's backing disk.
    pub fn disk_stats(&self) -> DiskStats {
        self.disk.stats()
    }

    /// Memory charged for one heap-resident item of the given encoded
    /// length: the encoding plus [`HEAP_ENTRY_OVERHEAD`]. Callers deriving
    /// heap capacities from a byte budget (Equation-3 boundary sizing)
    /// must use this figure so their arithmetic cannot drift from the
    /// queue's own accounting.
    pub const fn per_item_cost(encoded_len: usize) -> usize {
        encoded_len + HEAP_ENTRY_OVERHEAD
    }

    fn item_cost(item: &T) -> usize {
        Self::per_item_cost(item.encoded_len())
    }

    /// Inserts an item.
    pub fn push(&mut self, item: T) {
        self.stats.insertions += 1;
        self.insert(item);
        self.stats.max_len = self.stats.max_len.max(self.len());
    }

    /// Puts a just-popped item back without counting it as a new
    /// insertion: `insertions` and `max_len` are untouched (the item was
    /// live moments ago, so the high-water mark already covers it). Used
    /// when a stage boundary parks a popped head for the next stage.
    pub fn reinsert(&mut self, item: T) {
        self.insert(item);
    }

    fn insert(&mut self, item: T) {
        let key = item.key();
        assert!(key.is_finite(), "spill queue key must be finite, got {key}");
        if let Some(front_lo) = self.segments.front().map(|s| s.lo) {
            if key >= front_lo {
                self.append_to_segment(item, key);
                return;
            }
        }
        self.heap_push(item, key);
        if self.heap_bytes > self.config.mem_budget && self.heap.len() > 1 {
            self.split();
        }
    }

    /// Makes `item` resident: a slab slot for the item, a handle on the
    /// heap, and its cost charged to the budget.
    fn heap_push(&mut self, item: T, key: f64) {
        self.heap_bytes += Self::item_cost(&item);
        self.seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(item);
                slot
            }
            None => {
                if self.slab.capacity() == 0 {
                    self.reserve_resident(&item);
                }
                self.slab.push(Some(item));
                u32::try_from(self.slab.len() - 1).expect("heap slots fit in u32")
            }
        };
        self.heap.push(HeapEntry {
            key,
            seq: self.seq,
            slot,
        });
    }

    /// Sizes the slab, the heap and the free list once, for as many items
    /// as the budget holds (a split keeps the heap at most one item over
    /// it), so that they never regrow: grown by doubling, the three cost
    /// `serve-mixed` about 1 MB more peak RSS than the one vector of whole
    /// entries they replaced. The reservation is address space until
    /// items touch it; an unbounded queue grows as needed instead.
    fn reserve_resident(&mut self, item: &T) {
        const MAX_RESERVED: usize = 1 << 16;
        if self.config.mem_budget == usize::MAX {
            return;
        }
        let cap = (self.config.mem_budget / Self::item_cost(item) + 1).min(MAX_RESERVED);
        self.slab.reserve_exact(cap);
        self.heap.reserve_exact(cap);
        self.free.reserve_exact(cap);
    }

    /// Takes a popped or spilled handle's item out of the slab, freeing
    /// its slot and its charge.
    fn take(&mut self, entry: HeapEntry) -> T {
        let item = self.slab[entry.slot as usize]
            .take()
            .expect("heap handle names a live slot");
        self.free.push(entry.slot);
        self.heap_bytes -= Self::item_cost(&item);
        item
    }

    /// Removes and returns the item with the smallest key, or `None` when
    /// empty.
    pub fn pop(&mut self) -> Option<T> {
        if self.heap.is_empty() {
            self.swap_in()?;
        }
        let entry = self.heap.pop()?;
        self.stats.pops += 1;
        Some(self.take(entry))
    }

    /// The smallest key currently in the in-memory heap, if any. (Segment
    /// contents are unsorted, so this is only a valid global minimum when
    /// the heap is non-empty — which [`pop`](SpillQueue::pop) guarantees
    /// between calls.)
    pub fn peek_key(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.key)
    }

    /// The smallest key in the whole queue, swapping a segment in if the
    /// heap is empty. Returns `None` when the queue is empty.
    pub fn peek_min(&mut self) -> Option<f64> {
        if self.heap.is_empty() {
            self.swap_in()?;
        }
        self.peek_key()
    }

    /// Drains the queue in ascending key order (test/debug helper).
    pub fn drain_sorted(&mut self) -> Vec<T> {
        let mut out = Vec::new();
        while let Some(item) = self.pop() {
            out.push(item);
        }
        out
    }

    /// Serializes and drains the queue's entire contents, appended to
    /// `out` in the spill segment page format ([`encode_page_framed`]).
    /// Items are written in ascending pop order — the order a continued
    /// run would have consumed them, ties included — so restoring them in
    /// sequence reproduces the queue's exact future behaviour. Returns the
    /// number of items saved.
    pub fn save_contents(&mut self, out: &mut Vec<u8>) -> u64 {
        let items = self.drain_sorted();
        encode_page_framed(&items, self.disk.page_size(), out);
        items.len() as u64
    }

    /// Restores contents previously written by
    /// [`save_contents`](SpillQueue::save_contents), re-inserting each
    /// item in the saved order via the uncounted path (the items were
    /// counted when they first entered the queue that saved them; a
    /// restore is a continuation, not new work). Returns the number of
    /// items restored.
    pub fn restore_contents(&mut self, r: &mut Reader<'_>) -> Result<u64, CodecError> {
        let items: Vec<T> = try_decode_page_framed(r)?;
        for item in &items {
            if !item.key().is_finite() {
                return Err(CodecError {
                    offset: r.position(),
                    expected: "finite spill key",
                });
            }
        }
        let n = items.len() as u64;
        for item in items {
            self.reinsert(item);
        }
        Ok(n)
    }

    fn append_to_segment(&mut self, item: T, key: f64) {
        // Find the last segment whose lo <= key (segments ascend by lo;
        // the front one exists and front.lo <= key by the caller's check).
        let idx = self.segments.partition_point(|s| s.lo <= key) - 1;
        let page_size = self.disk.page_size();
        let encoded = item.encoded_len();
        assert!(
            encoded + PAGE_HEADER <= page_size,
            "spill item of {encoded} bytes exceeds page capacity"
        );
        Self::append_into(&mut self.segments[idx], &mut self.disk, item, page_size);
        self.stats.items_spilled += 1;
        self.segment_items += 1;
    }

    /// Low-level append of one encoded item to a segment's write buffer,
    /// flushing extents as pages fill.
    fn append_into(seg: &mut Segment, disk: &mut VirtualDisk, item: T, page_size: usize) {
        let encoded = item.encoded_len();
        if seg.tail.len() + encoded > page_size {
            seg.seal_tail(page_size);
            if seg.pending.len() >= EXTENT_PAGES {
                seg.flush_extent(disk);
            }
        }
        item.encode(&mut seg.tail);
        seg.count += 1;
        seg.bytes += encoded as u64;
    }

    /// Chooses where a split cuts the heap: entries keyed below the
    /// returned boundary stay resident, and so do the `ties_kept` oldest
    /// entries keyed exactly at it; everything else spills to a segment
    /// whose range starts at the boundary. Every cut keeps at least one
    /// entry and spills at least one. In order of preference:
    ///
    /// 1. the configured (Equation 3) boundary closest to the median key,
    ///    among those that separate the contents;
    /// 2. the median key, when it lies above the minimum;
    /// 3. the smallest key above the minimum, when at most three quarters
    ///    of the heap share the minimum key — a tie-heavy heap keeps its
    ///    whole minimum-key group resident;
    /// 4. otherwise the minimum key itself, keeping the older half of the
    ///    heap (all at that key) resident. An all-equal heap lands here.
    ///
    /// Cuts 2–4 spill at least a quarter of the heap, so the next such cut
    /// waits for a quarter of a heap's worth of inserts. A configured cut
    /// becomes the front segment's lower bound, and later cuts must fall
    /// below it until a swap-in, so each configured boundary cuts at most
    /// once in between. Between swap-ins, then, `n` pushes cause at most
    /// `4n / (capacity + 1) + 1 + B` splits for `B` configured boundaries,
    /// whatever the key distribution.
    fn choose_cut(entries: &mut [HeapEntry], configured: &[f64], upper: f64) -> (f64, usize) {
        let n = entries.len();
        let key_at = |entries: &mut [HeapEntry], i: usize| {
            entries
                .select_nth_unstable_by(i, |a, b| a.key.total_cmp(&b.key))
                .1
                .key
        };
        // At most `3n / 4` entries lie strictly below any key at or under
        // `limit`, so cutting at a key in `(min, limit]` spills a quarter
        // or more.
        let limit = key_at(entries, n - n.div_ceil(4));
        let median = key_at(entries, n / 2);
        let min = entries.iter().map(|e| e.key).fold(f64::INFINITY, f64::min);
        let max = entries
            .iter()
            .map(|e| e.key)
            .fold(f64::NEG_INFINITY, f64::max);
        let candidate = configured
            .iter()
            .copied()
            .filter(|&b| b > min && b <= max && b < upper)
            .min_by(|a, b| (a - median).abs().total_cmp(&(b - median).abs()));
        if let Some(b) = candidate {
            return (b, 0);
        }
        if median > min {
            return (median, 0);
        }
        match Self::next_key(entries, min) {
            Some(above) if limit > min => (above, 0),
            _ => (min, n / 2),
        }
    }

    /// The smallest key above `key` among `entries`, if any.
    fn next_key(entries: &[HeapEntry], key: f64) -> Option<f64> {
        entries
            .iter()
            .map(|e| e.key)
            .filter(|&k| k > key)
            .min_by(f64::total_cmp)
    }

    fn split(&mut self) {
        self.stats.splits += 1;
        let mut entries: Vec<HeapEntry> = std::mem::take(&mut self.heap).into_vec();
        let upper = self.segments.front().map_or(f64::INFINITY, |s| s.lo);
        let (boundary, ties_kept) = Self::choose_cut(&mut entries, &self.config.boundaries, upper);
        // The newest entry at the boundary that still stays resident.
        let last_kept_tie = (ties_kept > 0).then(|| {
            let mut tie_seqs: Vec<u64> = entries
                .iter()
                .filter(|e| e.key == boundary)
                .map(|e| e.seq)
                .collect();
            *tie_seqs.select_nth_unstable(ties_kept - 1).1
        });
        // A cut inside a tie group gives the spilled ties a segment of
        // their own, ending at the next key: later pushes at the tied key
        // then share no pile, and no swap-in, with the keys above it.
        let above = if ties_kept > 0 {
            Self::next_key(&entries, boundary)
        } else {
            None
        };
        let page_size = self.disk.page_size();
        // Cap the number of segments (each keeps a one-page write buffer):
        // past the cap, widen the front segment's range downward instead of
        // creating a new one — it is an unsorted pile, so lowering its `lo`
        // bound is always legal.
        const MAX_SEGMENTS: usize = 64;
        for lo in above.into_iter().chain([boundary]) {
            if self.segments.len() >= MAX_SEGMENTS {
                self.segments.front_mut().expect("segments non-empty").lo = lo;
            } else {
                self.segments.push_front(Segment::new(lo, page_size));
            }
        }

        let mut spill = Vec::new();
        entries.retain(|e| {
            let kept = e.key < boundary
                || (e.key == boundary && last_kept_tie.is_some_and(|s| e.seq <= s));
            if !kept {
                spill.push(*e);
            }
            kept
        });
        // Insertion order, so that equal keys still pop oldest-first once
        // this segment is swapped back in. (The cut's selection leaves the
        // handles in an arbitrary order.)
        spill.sort_unstable_by_key(|e| e.seq);
        for e in spill {
            let item = self.take(e);
            self.append_to_segment(item, e.key);
        }
        self.heap = entries.into();
    }

    /// Decodes the items of one page body onto `items`.
    fn decode_body(body: &[u8], items: &mut Vec<T>) {
        let mut r = Reader::new(body);
        while r.remaining() > 0 {
            items.push(T::decode(&mut r));
        }
    }

    /// The body of a sealed page image: the bytes its header counts.
    fn sealed_body(image: &[u8]) -> &[u8] {
        let body_len =
            u32::from_le_bytes(image[..PAGE_HEADER].try_into().expect("header")) as usize;
        &image[PAGE_HEADER..PAGE_HEADER + body_len]
    }

    /// Loads the shortest-range segment into the heap. Returns `None` when
    /// no segment holds items. If the segment exceeds the memory budget,
    /// the excess is immediately re-spilled as a tighter segment.
    fn swap_in(&mut self) -> Option<()> {
        // Drop exhausted segments.
        while matches!(self.segments.front(), Some(s) if s.count == 0) {
            let seg = self.segments.pop_front().expect("checked front");
            for pid in seg.pages {
                self.disk.free(pid);
            }
        }
        let seg = self.segments.pop_front()?;
        self.stats.swap_ins += 1;
        self.segment_items -= seg.count;

        // Pages, then pending images, then the tail: the order the
        // segment was written in.
        let mut items: Vec<T> = Vec::with_capacity(seg.count as usize);
        for pid in &seg.pages {
            Self::decode_body(Self::sealed_body(self.disk.read(*pid)), &mut items);
        }
        for image in &seg.pending {
            Self::decode_body(Self::sealed_body(image), &mut items);
        }
        Self::decode_body(&seg.tail[PAGE_HEADER..], &mut items);
        for pid in seg.pages {
            self.disk.free(pid);
        }
        debug_assert_eq!(items.len() as u64, seg.count);

        let total: usize = items.iter().map(Self::item_cost).sum();
        if total > self.config.mem_budget && items.len() > 1 {
            // Partial swap-in: keep the smallest keys within budget and
            // re-spill the rest — into heap-sized segments, so each future
            // swap-in consumes exactly one segment and the total re-spill
            // I/O over the queue's life stays linear.
            items.sort_by(|a, b| a.key().total_cmp(&b.key()));
            let mut used = 0;
            let mut cut = items.len();
            for (i, it) in items.iter().enumerate() {
                used += Self::item_cost(it);
                if used > self.config.mem_budget && i > 0 {
                    cut = i;
                    break;
                }
            }
            let rest = items.split_off(cut);
            if !rest.is_empty() {
                let page_size = self.disk.page_size();
                let mut chunks: Vec<Segment> = Vec::new();
                let mut chunk: Option<Segment> = None;
                let mut chunk_cost = 0usize;
                for it in rest {
                    // Close the chunk *before* an item would push it past
                    // the budget, so every re-spilled chunk fits in memory
                    // and its own swap-in never re-splits it. (A single
                    // over-budget item still gets a chunk of its own.)
                    let cost = Self::item_cost(&it);
                    if chunk.is_none() || chunk_cost + cost > self.config.mem_budget {
                        if let Some(done) = chunk.take() {
                            chunks.push(done);
                        }
                        chunk = Some(Segment::new(it.key(), page_size));
                        chunk_cost = 0;
                    }
                    chunk_cost += cost;
                    let seg = chunk.as_mut().expect("just created");
                    Self::append_into(seg, &mut self.disk, it, page_size);
                    self.stats.items_spilled += 1;
                    self.segment_items += 1;
                }
                if let Some(done) = chunk.take() {
                    chunks.push(done);
                }
                // Ascending ranges: push to the front in reverse.
                for seg in chunks.into_iter().rev() {
                    self.segments.push_front(seg);
                }
            }
        }
        for item in items {
            let key = item.key();
            self.heap_push(item, key);
        }
        if self.heap.is_empty() {
            // Segment was empty after all; try the next one.
            return self.swap_in();
        }
        Some(())
    }
}

impl<T: SpillItem> std::fmt::Debug for SpillQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpillQueue")
            .field("len", &self.len())
            .field("heap_len", &self.heap.len())
            .field("heap_bytes", &self.heap_bytes)
            .field("segments", &self.segments.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal item: key + payload id.
    #[derive(Clone, Copy, Debug, PartialEq)]
    struct Item {
        key: f64,
        id: u64,
    }

    impl SpillItem for Item {
        fn key(&self) -> f64 {
            self.key
        }
        fn encoded_len(&self) -> usize {
            16
        }
        fn encode(&self, out: &mut Vec<u8>) {
            crate::codec::put_f64(out, self.key);
            crate::codec::put_u64(out, self.id);
        }
        fn try_decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
            Ok(Item {
                key: r.try_f64("item key")?,
                id: r.try_u64("item id")?,
            })
        }
    }

    fn items(keys: &[f64]) -> Vec<Item> {
        keys.iter()
            .enumerate()
            .map(|(i, &k)| Item {
                key: k,
                id: i as u64,
            })
            .collect()
    }

    fn pop_keys<T: SpillItem>(q: &mut SpillQueue<T>) -> Vec<f64> {
        q.drain_sorted().iter().map(|i| i.key()).collect()
    }

    #[test]
    fn unbounded_orders_items() {
        let mut q = SpillQueue::new(SpillQueueConfig::unbounded());
        for it in items(&[5.0, 1.0, 3.0, 2.0, 4.0]) {
            q.push(it);
        }
        assert_eq!(pop_keys(&mut q), vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(q.stats().splits, 0);
        assert_eq!(q.disk_stats().total_ios(), 0);
    }

    #[test]
    fn tiny_budget_spills_and_still_orders() {
        let mut cfg = SpillQueueConfig::budgeted(200, vec![]);
        cfg.cost.page_size = 128;
        let mut q = SpillQueue::new(cfg);
        let n = 2000;
        // Pseudo-random insert order so disk segments keep receiving
        // appends (filling their pages) after the first splits.
        let mut keys: Vec<u64> = (0..n).collect();
        for i in 0..keys.len() {
            let j = (i * 48271 + 11) % keys.len();
            keys.swap(i, j);
        }
        for (id, &k) in keys.iter().enumerate() {
            q.push(Item {
                key: k as f64,
                id: id as u64,
            });
        }
        assert_eq!(q.len(), n);
        assert!(q.stats().splits > 0, "budget must force splits");
        let keys = pop_keys(&mut q);
        let expect: Vec<f64> = (0..n).map(|i| i as f64).collect();
        assert_eq!(keys, expect);
        assert!(q.disk_stats().pages_written > 0);
        assert!(q.disk_stats().pages_read > 0);
    }

    #[test]
    fn descending_inserts_bound_segment_count() {
        // Descending keys are the worst case for splits: every split wants
        // a new, lower segment. The cap must hold and ordering survive.
        let mut cfg = SpillQueueConfig::budgeted(200, vec![]);
        cfg.cost.page_size = 128;
        let mut q = SpillQueue::new(cfg);
        let n = 1500u64;
        for i in (0..n).rev() {
            q.push(Item {
                key: i as f64,
                id: i,
            });
        }
        assert!(q.segment_count() <= 64, "segments = {}", q.segment_count());
        let keys = pop_keys(&mut q);
        let expect: Vec<f64> = (0..n).map(|i| i as f64).collect();
        assert_eq!(keys, expect);
    }

    #[test]
    fn configured_boundaries_guide_splits() {
        let mut cfg = SpillQueueConfig::budgeted(300, vec![10.0, 20.0, 30.0, 40.0]);
        cfg.cost.page_size = 256;
        let mut q = SpillQueue::new(cfg);
        for i in 0..200 {
            q.push(Item {
                key: (i % 50) as f64,
                id: i,
            });
        }
        let keys = pop_keys(&mut q);
        let mut expect: Vec<f64> = (0..200u64).map(|i| (i % 50) as f64).collect();
        expect.sort_unstable_by(f64::total_cmp);
        assert_eq!(keys, expect);
    }

    #[test]
    fn inserts_below_and_above_spill_boundary() {
        let mut cfg = SpillQueueConfig::budgeted(256, vec![]);
        cfg.cost.page_size = 128;
        let mut q = SpillQueue::new(cfg);
        // Force a split with large keys, then insert small keys (go to heap)
        // and large keys (go directly to segments).
        for i in 0..50 {
            q.push(Item {
                key: 100.0 + i as f64,
                id: i,
            });
        }
        assert!(q.segment_count() > 0);
        q.push(Item { key: 1.0, id: 1000 });
        q.push(Item {
            key: 500.0,
            id: 1001,
        });
        let keys = pop_keys(&mut q);
        assert_eq!(keys.first(), Some(&1.0));
        assert_eq!(keys.last(), Some(&500.0));
        assert_eq!(keys.len(), 52);
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn interleaved_push_pop() {
        let mut cfg = SpillQueueConfig::budgeted(300, vec![]);
        cfg.cost.page_size = 128;
        let mut q = SpillQueue::new(cfg);
        let mut popped = Vec::new();
        for round in 0..20u64 {
            for i in 0..30u64 {
                let k = ((i * 7919 + round * 104729) % 1000) as f64;
                q.push(Item {
                    key: k,
                    id: round * 100 + i,
                });
            }
            // Pop a few each round; popped values must never decrease below
            // a previously popped value *at pop time* relative to remaining
            // contents — global sortedness is checked at the end.
            for _ in 0..10 {
                popped.push(q.pop().expect("non-empty").key);
            }
        }
        popped.extend(pop_keys(&mut q));
        assert_eq!(popped.len(), 20 * 30);
        // Not globally sorted (pops interleave with pushes), but every
        // prefix pop was the minimum of what was live. Re-verify by
        // simulation with a reference heap.
        let mut reference = std::collections::BinaryHeap::new();
        let mut cfg = SpillQueueConfig::budgeted(300, vec![]);
        cfg.cost.page_size = 128;
        let mut q2 = SpillQueue::new(cfg);
        let mut idx = 0;
        for round in 0..20u64 {
            for i in 0..30u64 {
                let k = ((i * 7919 + round * 104729) % 1000) as f64;
                q2.push(Item {
                    key: k,
                    id: round * 100 + i,
                });
                reference.push(std::cmp::Reverse((k * 1000.0) as i64));
            }
            for _ in 0..10 {
                let got = q2.pop().unwrap().key;
                let want = (reference.pop().unwrap().0 as f64) / 1000.0;
                assert_eq!(got, want, "mismatch at pop {idx}");
                idx += 1;
            }
        }
    }

    #[test]
    fn all_equal_keys_make_progress() {
        let mut cfg = SpillQueueConfig::budgeted(200, vec![]);
        cfg.cost.page_size = 128;
        let mut q = SpillQueue::new(cfg);
        for i in 0..100 {
            q.push(Item { key: 7.0, id: i });
        }
        let keys = pop_keys(&mut q);
        assert_eq!(keys.len(), 100);
        assert!(keys.iter().all(|&k| k == 7.0));
    }

    #[test]
    fn equal_key_split_keeps_older_half_in_memory() {
        // Regression: the degenerate split (all heap keys equal) used to
        // spill *every* entry — `boundary == min == max` rejected them all
        // and the forced-half branch was unreachable — leaving the heap
        // empty so each pop swapped straight back in from disk.
        let mut cfg = SpillQueueConfig::budgeted(200, vec![]);
        cfg.cost.page_size = 128;
        let mut q = SpillQueue::new(cfg);
        // item_cost = 16 encoded + 24 overhead = 40; the sixth push
        // overflows the 200-byte budget and triggers the only split.
        for i in 0..100 {
            q.push(Item { key: 7.0, id: i });
        }
        assert_eq!(q.stats().splits, 1);
        assert!(
            q.mem_bytes() > 0,
            "equal-key split must leave the heap non-empty"
        );
        // The forced-half branch kept floor(6/2) = 3 of the six resident
        // entries; everything after the split appends to the segment, so
        // exactly 97 items ever hit disk.
        assert_eq!(q.heap.len(), 3);
        assert_eq!(q.stats().items_spilled, 97);
        // The older entries are the ones that stayed resident.
        let resident: Vec<u64> = q
            .heap
            .iter()
            .map(|e| q.slab[e.slot as usize].as_ref().expect("live").id)
            .collect();
        assert!(resident.iter().all(|&id| id < 3), "kept {resident:?}");
        let keys = pop_keys(&mut q);
        assert_eq!(keys.len(), 100);
        assert!(keys.iter().all(|&k| k == 7.0));
    }

    #[test]
    fn equal_keys_pop_in_insertion_order_across_spills() {
        // A tie-heavy stream (four keys in five are 0) against a 64-item
        // budget: the first split cuts inside the zero group,
        // later pushes append to its tie segment, and swapping that
        // segment in overflows the budget, so it is swapped in partially
        // and its rest re-spilled. Through all of it, equal keys must pop
        // oldest-first.
        let mut cfg =
            SpillQueueConfig::budgeted(64 * SpillQueue::<Item>::per_item_cost(16), vec![]);
        cfg.cost.page_size = 256;
        let mut q = SpillQueue::new(cfg);
        let key = |i: u64| if i % 5 == 4 { (i % 3 + 1) as f64 } else { 0.0 };
        for id in 0..65 {
            q.push(Item { key: key(id), id });
        }
        // 52 zeros over 13 positive keys: the 32 oldest zeros stay
        // resident, the rest of the zeros get a segment [0, 1) of their
        // own.
        assert_eq!(q.stats().splits, 1);
        assert_eq!(q.heap.len(), 32);
        let los: Vec<f64> = q.segments.iter().map(|s| s.lo).collect();
        assert_eq!(los, vec![0.0, 1.0]);
        let mut popped = Vec::new();
        let mut respilled = false;
        let mut pop = |q: &mut SpillQueue<Item>| {
            let spilled = q.stats().items_spilled;
            let item = q.pop();
            respilled |= q.stats().items_spilled > spilled;
            popped.extend(item);
            item.is_some()
        };
        for id in 65..4000 {
            q.push(Item { key: key(id), id });
            if id % 3 == 0 {
                pop(&mut q);
            }
        }
        while pop(&mut q) {}
        assert!(respilled, "no swap-in was partial");
        assert!(q.stats().swap_ins > 2);
        assert_eq!(popped.len(), 4000);
        for k in [0.0, 1.0, 2.0, 3.0] {
            let ids: Vec<u64> = popped.iter().filter(|i| i.key == k).map(|i| i.id).collect();
            let inversion = ids.windows(2).find(|w| w[0] > w[1]);
            assert_eq!(inversion, None, "key {k}: a newer id popped first");
        }
    }

    #[test]
    fn tie_heavy_streams_split_with_amortised_progress() {
        // Regression: when the median key equalled the minimum, a split
        // cut at the *maximum* key and moved only the max-key entries out.
        // An incremental join walking a distance-0 group pops one zero
        // and pushes a zero and a small positive pair per step; with the
        // heap mostly zeros, every push then split the heap and moved one
        // entry. Without configured boundaries every cut now spills at
        // least a quarter of the heap, so between swap-ins n pushes cause
        // at most 4n/(capacity + 1) + 1 splits.
        let capacity = 50u64;
        let small = |i: u64| ((i * 7919) % 997 + 1) as f64 / 1000.0;
        // The adversarial positive: below every earlier one, so it always
        // lands in the heap rather than in a spilled segment.
        let shrinking = |i: u64| 1.0 / (i + 2) as f64;
        for (label, zeros_first, popping, positive) in [
            (
                "90% zeros, alternating",
                45,
                true,
                &shrinking as &dyn Fn(u64) -> f64,
            ),
            ("60% zeros, alternating", 30, true, &shrinking),
            ("90% zeros, random positives", 45, true, &small),
            ("push-only, 90% zeros", 0, false, &small),
        ] {
            let mut cfg = SpillQueueConfig::budgeted(
                capacity as usize * SpillQueue::<Item>::per_item_cost(16),
                vec![],
            );
            cfg.cost.page_size = 256;
            let mut q = SpillQueue::new(cfg);
            let mut live = Vec::new();
            let mut push = |q: &mut SpillQueue<Item>, key: f64| {
                q.push(Item {
                    key,
                    id: live.len() as u64,
                });
                live.push(key);
            };
            for _ in 0..zeros_first {
                push(&mut q, 0.0);
            }
            let mut popped = Vec::new();
            for i in 0..3000u64 {
                if popping {
                    popped.push(q.pop().expect("non-empty").key);
                    push(&mut q, 0.0);
                    push(&mut q, positive(i));
                } else {
                    push(&mut q, if i % 10 == 9 { positive(i) } else { 0.0 });
                }
            }
            let st = q.stats();
            let bound = 4 * st.insertions / (capacity + 1) + st.swap_ins + 1;
            assert!(
                st.splits <= bound,
                "{label}: {} splits for {} pushes and {} swap-ins, bound {bound}",
                st.splits,
                st.insertions,
                st.swap_ins
            );
            // Zeros pop first, and every key comes back out exactly once.
            assert!(popped.iter().all(|&k| k == 0.0), "{label}: pops the zeros");
            popped.extend(pop_keys(&mut q));
            live.sort_unstable_by(f64::total_cmp);
            popped.sort_unstable_by(f64::total_cmp);
            assert_eq!(popped, live, "{label}: contents");
        }
    }

    #[test]
    fn reinsert_skips_insertion_stats() {
        let mut q = SpillQueue::new(SpillQueueConfig::unbounded());
        for it in items(&[3.0, 1.0, 2.0]) {
            q.push(it);
        }
        let head = q.pop().expect("non-empty");
        let before = q.stats();
        q.reinsert(head);
        let after = q.stats();
        assert_eq!(after.insertions, before.insertions, "reinsert counted");
        assert_eq!(after.max_len, before.max_len, "reinsert moved max_len");
        assert_eq!(q.len(), 3);
        assert_eq!(pop_keys(&mut q), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn reinsert_routes_to_segment_when_range_is_spilled() {
        // A reinserted head whose key falls in a disk-resident range must
        // append to that segment like any insert would, still uncounted.
        let mut cfg = SpillQueueConfig::budgeted(200, vec![]);
        cfg.cost.page_size = 128;
        let mut q = SpillQueue::new(cfg);
        for i in 0..50 {
            q.push(Item {
                key: i as f64,
                id: i,
            });
        }
        assert!(q.segment_count() > 0);
        let insertions = q.stats().insertions;
        let head = q.pop().expect("non-empty");
        q.reinsert(Item { key: 40.0, ..head });
        assert_eq!(q.stats().insertions, insertions);
        assert_eq!(q.len(), 50);
        let keys = pop_keys(&mut q);
        assert_eq!(keys.len(), 50);
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn save_restore_roundtrips_contents_in_pop_order() {
        let mut cfg = SpillQueueConfig::budgeted(200, vec![]);
        cfg.cost.page_size = 128;
        let mut q = SpillQueue::new(cfg.clone());
        for i in 0..300u64 {
            q.push(Item {
                key: ((i * 7919) % 500) as f64,
                id: i,
            });
        }
        assert!(q.segment_count() > 0, "spilled state must be covered");
        let mut image = Vec::new();
        assert_eq!(q.save_contents(&mut image), 300);
        assert!(q.is_empty(), "save drains the queue");

        let mut restored: SpillQueue<Item> = SpillQueue::new(cfg);
        let mut r = Reader::new(&image);
        assert_eq!(restored.restore_contents(&mut r), Ok(300));
        assert_eq!(r.remaining(), 0);
        assert_eq!(restored.stats().insertions, 0, "restore is uncounted");
        // Same contents, same order — ties included (ids distinguish them).
        let mut q2 = SpillQueue::new(SpillQueueConfig::unbounded());
        for i in 0..300u64 {
            q2.push(Item {
                key: ((i * 7919) % 500) as f64,
                id: i,
            });
        }
        assert_eq!(restored.drain_sorted(), q2.drain_sorted());
    }

    #[test]
    fn save_restore_empty_queue() {
        let mut q: SpillQueue<Item> = SpillQueue::new(SpillQueueConfig::unbounded());
        let mut image = Vec::new();
        assert_eq!(q.save_contents(&mut image), 0);
        let mut restored: SpillQueue<Item> = SpillQueue::new(SpillQueueConfig::unbounded());
        assert_eq!(restored.restore_contents(&mut Reader::new(&image)), Ok(0));
        assert!(restored.is_empty());
    }

    #[test]
    fn restore_rejects_truncated_image() {
        let mut q = SpillQueue::new(SpillQueueConfig::unbounded());
        for it in items(&[1.0, 2.0, 3.0]) {
            q.push(it);
        }
        let mut image = Vec::new();
        q.save_contents(&mut image);
        for cut in [image.len() - 1, image.len() / 2, 9, 3] {
            let mut fresh: SpillQueue<Item> = SpillQueue::new(SpillQueueConfig::unbounded());
            let err = fresh
                .restore_contents(&mut Reader::new(&image[..cut]))
                .expect_err("truncated image must fail cleanly");
            assert!(err.offset <= cut, "offset {} past cut {}", err.offset, cut);
        }
    }

    #[test]
    fn restore_rejects_implausible_count() {
        let mut image = Vec::new();
        put_u64(&mut image, u64::MAX);
        let mut q: SpillQueue<Item> = SpillQueue::new(SpillQueueConfig::unbounded());
        let err = q
            .restore_contents(&mut Reader::new(&image))
            .expect_err("bogus count");
        assert_eq!(err.expected, "plausible queue item count");
    }

    #[test]
    fn restore_rejects_non_finite_key() {
        let bad = Item {
            key: 1.0,
            id: u64::MAX,
        };
        let mut image = Vec::new();
        encode_page_framed(&[bad], 128, &mut image);
        // Corrupt the key bytes in place: body starts after the u64 count
        // and u32 page header.
        let key_at = 8 + 4;
        image[key_at..key_at + 8].copy_from_slice(&f64::NAN.to_le_bytes());
        let mut q: SpillQueue<Item> = SpillQueue::new(SpillQueueConfig::unbounded());
        let err = q
            .restore_contents(&mut Reader::new(&image))
            .expect_err("NaN key");
        assert_eq!(err.expected, "finite spill key");
    }

    #[test]
    fn page_framed_splits_bodies_at_page_capacity() {
        let many = items(&(0..100).map(|i| i as f64).collect::<Vec<_>>());
        let mut image = Vec::new();
        encode_page_framed(&many, 64, &mut image);
        // 64-byte pages hold floor((64-4)/16) = 3 items per body.
        let mut r = Reader::new(&image);
        assert_eq!(r.u64(), 100);
        let first_body = r.u32();
        assert_eq!(first_body, 48);
        let decoded: Vec<Item> = try_decode_page_framed(&mut Reader::new(&image)).unwrap();
        assert_eq!(decoded, many);
    }

    #[test]
    fn len_and_empty_track_contents() {
        let mut q = SpillQueue::new(SpillQueueConfig::unbounded());
        assert!(q.is_empty());
        q.push(Item { key: 1.0, id: 0 });
        assert_eq!(q.len(), 1);
        let _ = q.pop();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    fn stats_count_operations() {
        let mut q = SpillQueue::new(SpillQueueConfig::unbounded());
        for it in items(&[1.0, 2.0, 3.0]) {
            q.push(it);
        }
        let _ = q.pop();
        let s = q.stats();
        assert_eq!(s.insertions, 3);
        assert_eq!(s.pops, 1);
        assert_eq!(s.max_len, 3);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_non_finite_keys() {
        let mut q = SpillQueue::new(SpillQueueConfig::unbounded());
        q.push(Item {
            key: f64::INFINITY,
            id: 0,
        });
    }

    #[test]
    fn partial_swap_in_respects_budget() {
        // A segment larger than memory must be split on swap-in rather than
        // blowing the budget.
        let mut cfg = SpillQueueConfig::budgeted(240, vec![]);
        cfg.cost.page_size = 4096;
        let mut q = SpillQueue::new(cfg);
        for i in 0..400u64 {
            q.push(Item {
                key: 1000.0 - i as f64,
                id: i,
            });
        }
        let keys = pop_keys(&mut q);
        assert_eq!(keys.len(), 400);
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        // The budget fits ~6 items; the heap must never have exceeded it by
        // more than one item's cost during the drain.
        assert!(q.mem_bytes() == 0);
    }

    #[test]
    fn respill_chunks_respect_budget() {
        // Regression: the re-spill loop used to check `chunk_cost >
        // mem_budget` *before* appending, so a chunk could exceed the
        // budget by one item and its own swap-in would re-split it.
        let budget = 400; // ten items at cost 40
        let cfg = SpillQueueConfig {
            mem_budget: budget,
            boundaries: Vec::new(),
            cost: CostModel {
                page_size: 4096,
                ..CostModel::free()
            },
        };
        let mut q: SpillQueue<Item> = SpillQueue::new(cfg);
        // Hand-build one oversized front segment (25 items against a
        // ten-item budget) so the first pop must partially swap it in.
        let page_size = q.disk.page_size();
        let mut seg = Segment::new(5.0, page_size);
        for i in 0..25u64 {
            SpillQueue::append_into(
                &mut seg,
                &mut q.disk,
                Item {
                    key: 5.0 + i as f64,
                    id: i,
                },
                page_size,
            );
        }
        q.segment_items += seg.count;
        q.segments.push_front(seg);
        let first = q.pop().expect("segment holds items");
        assert_eq!(first.key, 5.0);
        assert_eq!(q.stats().swap_ins, 1);
        // Ten stayed in memory (one popped); the other 15 were re-spilled
        // into chunks that each fit the budget — so no later swap-in of a
        // re-spilled chunk ever re-splits.
        let cost = SpillQueue::<Item>::per_item_cost(16);
        for s in &q.segments {
            assert!(
                s.count as usize * cost <= budget,
                "re-spilled chunk of {} items exceeds the budget",
                s.count
            );
        }
        let mut rest = vec![first.key];
        rest.extend(pop_keys(&mut q));
        let want: Vec<f64> = (0..25).map(|i| 5.0 + i as f64).collect();
        assert_eq!(rest, want);
        // The chunks of ten and five items swap in whole: three swap-ins
        // for the drain, no splits triggered by re-spilled chunks.
        assert_eq!(q.stats().swap_ins, 3);
        assert_eq!(q.stats().splits, 0);
    }
}
