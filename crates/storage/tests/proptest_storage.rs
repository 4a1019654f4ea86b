//! Property-based validation of the storage substrate: the spill queue
//! must behave exactly like a reference binary heap under arbitrary
//! push/pop interleavings, budgets, and boundary sets; the external
//! sorter must sort; the LRU must respect its budget; the virtual disk's
//! statistics must match a per-access reference meter.

use amdj_storage::codec::{put_f64, put_u64, CodecError, Reader};
use amdj_storage::{
    ByteLru, CostModel, DiskStats, ExternalSorter, SpillItem, SpillQueue, SpillQueueConfig,
    VirtualDisk,
};
use proptest::prelude::*;

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
        put_f64(out, self.key);
        put_u64(out, self.id);
    }
    fn try_decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Item {
            key: r.try_f64("item key")?,
            id: r.try_u64("item id")?,
        })
    }
}

#[derive(Clone, Debug)]
enum Op {
    Push(u16),
    Pop,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![3 => (0u16..500).prop_map(Op::Push), 2 => Just(Op::Pop)],
        1..400,
    )
}

/// Duplicate-heavy interleavings: a handful of distinct keys forces the
/// equal-key degenerate split over and over.
fn dup_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![3 => (0u16..4).prop_map(Op::Push), 2 => Just(Op::Pop)],
        1..400,
    )
}

/// One `Item` costs this much heap memory inside the queue.
fn item_cost() -> usize {
    SpillQueue::<Item>::per_item_cost(16)
}

/// The queue may exceed its budget only transiently, by the one item a
/// push adds before the split runs (and a split needs two residents).
fn assert_budget(q: &SpillQueue<Item>, mem: usize) -> Result<(), TestCaseError> {
    prop_assert!(
        q.mem_bytes() <= mem + item_cost(),
        "heap holds {} bytes against a budget of {}",
        q.mem_bytes(),
        mem
    );
    Ok(())
}

fn run_against_reference(
    ops: Vec<Op>,
    mem: usize,
    page: usize,
    boundaries: Vec<f64>,
) -> Result<(), TestCaseError> {
    let nbounds = boundaries.len() as u64;
    let cost = CostModel {
        page_size: page,
        ..CostModel::paper_1999_disk()
    };
    let mut q = SpillQueue::new(SpillQueueConfig {
        mem_budget: mem,
        boundaries,
        cost,
    });
    let mut reference: Vec<u16> = Vec::new();
    let mut id = 0u64;
    for op in ops {
        match op {
            Op::Push(k) => {
                q.push(Item { key: k as f64, id });
                id += 1;
                reference.push(k);
            }
            Op::Pop => {
                let got = q.pop().map(|i| i.key);
                let want = if reference.is_empty() {
                    None
                } else {
                    let min = *reference.iter().min().expect("non-empty");
                    let pos = reference.iter().position(|&v| v == min).expect("present");
                    reference.swap_remove(pos);
                    Some(min as f64)
                };
                prop_assert_eq!(got, want);
            }
        }
        assert_budget(&q, mem)?;
    }
    prop_assert_eq!(q.len() as usize, reference.len());
    // Between swap-ins, n pushes cause at most 4n/(capacity + 1) + 1 + B
    // splits for B configured boundaries.
    let st = q.stats();
    let capacity = (mem / item_cost()) as u64;
    prop_assert!(
        st.splits <= 4 * st.insertions / (capacity + 1) + (st.swap_ins + 1) * (1 + nbounds),
        "{} splits for {} pushes and {} swap-ins at capacity {}",
        st.splits,
        st.insertions,
        st.swap_ins,
        capacity
    );
    // Drain the remainder: must come out sorted and complete, never
    // blowing the budget along the way.
    let mut rest: Vec<f64> = Vec::new();
    while let Some(i) = q.pop() {
        rest.push(i.key);
        assert_budget(&q, mem)?;
    }
    let mut want: Vec<f64> = reference.iter().map(|&v| v as f64).collect();
    want.sort_unstable_by(f64::total_cmp);
    prop_assert!(rest.windows(2).all(|w| w[0] <= w[1]));
    prop_assert_eq!(rest, want);
    Ok(())
}

/// Replays `accesses` (page index, is-write) on a fresh paper-cost disk
/// and checks its statistics against a reference meter that classifies
/// every access itself and sums its modeled time one page at a time.
fn disk_matches_reference_meter(
    pages: usize,
    page_size: usize,
    accesses: &[(usize, bool)],
) -> Result<(), TestCaseError> {
    let cost = CostModel {
        page_size,
        ..CostModel::paper_1999_disk()
    };
    let mut disk = VirtualDisk::new(cost);
    let ids = disk.alloc_contiguous(pages);
    let mut want = DiskStats::default();
    let mut prev: Option<u64> = None;
    for &(i, write) in accesses {
        let id = ids[i % pages];
        if write {
            disk.write(id, b"page");
        } else {
            let _ = disk.read(id);
        }
        let sequential = prev.is_some_and(|p| p + 1 == id.0);
        prev = Some(id.0);
        want.io_seconds += cost.page_time(sequential);
        if write {
            want.pages_written += 1;
            want.seq_writes += u64::from(sequential);
        } else {
            want.pages_read += 1;
            want.seq_reads += u64::from(sequential);
        }
    }
    let got = disk.stats();
    prop_assert_eq!(
        (
            got.pages_read,
            got.seq_reads,
            got.pages_written,
            got.seq_writes
        ),
        (
            want.pages_read,
            want.seq_reads,
            want.pages_written,
            want.seq_writes
        )
    );
    let tol = 1e-9 * want.io_seconds.abs().max(f64::MIN_POSITIVE);
    prop_assert!(
        (got.io_seconds - want.io_seconds).abs() <= tol,
        "modeled {} s, reference {} s",
        got.io_seconds,
        want.io_seconds
    );
    Ok(())
}

/// Page-access sequences mixing sequential runs (`i, i+1, …`, the cheap
/// case) with random jumps, reads with writes.
fn accesses() -> impl Strategy<Value = Vec<(usize, bool)>> {
    prop::collection::vec((0usize..8, 1usize..6, any::<bool>()), 0..80).prop_map(|runs| {
        let mut out = Vec::new();
        let mut at = 0usize;
        for (jump, len, write) in runs {
            at += jump * 7;
            out.extend((0..len).map(|j| (at + j, write)));
        }
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn disk_stats_match_reference_meter(
        accesses in accesses(),
        pages in 1usize..40,
        page_size in 64usize..8192,
    ) {
        disk_matches_reference_meter(pages, page_size, &accesses)?;
    }

    #[test]
    fn spill_queue_matches_reference_heap(
        ops in ops(),
        mem in 64usize..2048,
        page in 64usize..512,
        nbounds in 0usize..8,
    ) {
        let boundaries: Vec<f64> = (1..=nbounds).map(|i| (i * 60) as f64).collect();
        run_against_reference(ops, mem, page, boundaries)?;
    }

    /// Duplicate-heavy keys under tiny budgets: every split is (or soon
    /// becomes) the equal-key degenerate case, and the budget fits only a
    /// couple of items, so pops constantly swap segments back in.
    #[test]
    fn spill_queue_survives_duplicate_keys_and_tiny_budgets(
        ops in dup_ops(),
        mem in 40usize..200,
        page in 64usize..256,
        with_bounds in any::<bool>(),
    ) {
        // Boundaries between the four live keys, so configured-boundary
        // splits and median splits both get exercised.
        let boundaries = if with_bounds { vec![0.5, 1.5, 2.5, 3.5] } else { Vec::new() };
        run_against_reference(ops, mem, page, boundaries)?;
    }

    #[test]
    fn external_sorter_sorts_everything(
        keys in prop::collection::vec(0u32..10_000, 0..600),
        mem in 64usize..1024,
        page in 64usize..512,
    ) {
        let cost = CostModel { page_size: page, ..CostModel::free() };
        let mut sorter = ExternalSorter::new(mem, cost);
        for (i, &k) in keys.iter().enumerate() {
            sorter.push(Item { key: k as f64, id: i as u64 });
        }
        let out: Vec<f64> = sorter.finish().map(|i| i.key).collect();
        let mut want: Vec<f64> = keys.iter().map(|&k| k as f64).collect();
        want.sort_unstable_by(f64::total_cmp);
        prop_assert_eq!(out, want);
    }

    #[test]
    fn lru_never_exceeds_budget(
        inserts in prop::collection::vec((0u16..64, 1usize..64), 1..200),
        budget in 16usize..256,
    ) {
        let mut lru: ByteLru<u16, u16> = ByteLru::new(budget);
        for (k, bytes) in inserts {
            lru.insert(k, k, bytes);
            prop_assert!(lru.used_bytes() <= budget);
            // A freshly inserted, affordable entry must be resident.
            if bytes <= budget {
                prop_assert!(lru.get(&k).is_some());
            }
        }
    }
}
