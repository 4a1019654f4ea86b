//! Allocation accounting for the sweep kernel: in steady state the join
//! loop must not allocate per node-pair expansion.
//!
//! The old kernel built two fresh sorted entry vectors (plus mark vectors
//! under aggressive modes) for *every* expansion — at least two heap
//! allocations per node pair, typically four or more. The `SweepScratch`
//! refactor reuses those buffers across the whole join, so the only
//! remaining allocations are amortized container growth (main queue,
//! results), page-cache recency bookkeeping, and deliberate `park()`
//! hand-offs. Counting allocations across an entire warm join and
//! dividing by the expansion count separates the two regimes cleanly:
//! the old code cannot go below 2 allocations per expansion, the new one
//! sits well under 1.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use amdj_core::{am_kdj, b_kdj, AmKdjOptions, JoinConfig};
use amdj_geom::{Point, Rect};
use amdj_rtree::{RTree, RTreeParams};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to `System` unchanged; the counter is
// a relaxed atomic with no further invariants.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// `ALLOCATIONS` is process-global, so a test measuring it must not run
/// beside another: the harness runs tests on parallel threads, and each
/// would count the other's join. Every test holds this guard for its
/// whole body. A panicking test poisons the lock; the guard is still
/// valid for the next one (there is no shared state behind it).
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Small pages force deep trees (many node-pair expansions to count);
/// the large buffer keeps every page resident so the measured runs are
/// cache-warm and the page-fault path stays out of the numbers.
fn params() -> RTreeParams {
    RTreeParams {
        page_size: 512,
        buffer_bytes: 8 * 1024 * 1024,
        ..RTreeParams::paper_defaults()
    }
}

fn grid(n: usize, dx: f64, dy: f64) -> Vec<(Rect<2>, u64)> {
    (0..n * n)
        .map(|i| {
            // Irrational-ish jitter keeps distances tie-free.
            let x = (i % n) as f64 + dx + (i as f64 * 0.000137).sin() * 0.01;
            let y = (i / n) as f64 + dy + (i as f64 * 0.000271).cos() * 0.01;
            (Rect::from_point(Point::new([x, y])), i as u64)
        })
        .collect()
}

/// A warm B-KDJ run (page cache populated, no compensation bookkeeping)
/// must average well under one allocation per node-pair expansion.
#[test]
fn warm_bkdj_sweep_is_allocation_free_per_expansion() {
    let _serial = serial();
    let a = grid(40, 0.0, 0.0);
    let b = grid(40, 0.27, 0.41);
    let r = RTree::bulk_load(params(), a);
    let s = RTree::bulk_load(params(), b);
    let cfg = JoinConfig::unbounded();
    let k = 600;
    // Warm-up run: faults every needed page into the buffer and sizes the
    // measurement run's expansion count.
    let warm = b_kdj(&r, &s, k, &cfg);
    let expansions = warm.stats.stage1_expansions;
    assert!(
        expansions > 100,
        "workload too small to measure ({expansions} expansions)"
    );

    let before = allocations();
    let out = b_kdj(&r, &s, k, &cfg);
    let delta = allocations() - before;

    assert_eq!(out.results.len(), k);
    assert_eq!(out.stats.stage1_expansions, expansions, "runs must match");
    // Residual allocations: amortized main-queue/result growth (O(log)),
    // page-cache recency updates (one BTreeMap rebalance every few
    // hits), and one-time scratch sizing. The pre-refactor kernel
    // allocated ≥ 2 vectors per expansion and fails this bound by an
    // order of magnitude.
    assert!(
        delta < expansions,
        "{delta} allocations for {expansions} expansions — sweep is allocating per node pair"
    );
}

/// The aggressive + compensation path allocates when parking a skipped
/// expansion: `park()` hands the scratch buffers over to the owned
/// [`CompEntry`] (the one sanctioned allocation), and the next expansion
/// must then refill fresh ones. Expansions that park are therefore
/// allowed a small constant number of allocations; everything else must
/// stay amortized, which the bound below checks.
#[test]
fn warm_amkdj_sweep_allocates_only_for_parked_expansions() {
    let _serial = serial();
    let a = grid(35, 0.0, 0.0);
    let b = grid(35, 0.31, 0.17);
    let r = RTree::bulk_load(params(), a);
    let s = RTree::bulk_load(params(), b);
    let cfg = JoinConfig::unbounded();
    let opts = AmKdjOptions::default();
    let k = 500;
    let warm = am_kdj(&r, &s, k, &cfg, &opts);
    let expansions = warm.stats.stage1_expansions + warm.stats.stage2_expansions;
    let parks = warm.stats.compq_insertions;
    assert!(
        expansions > 100,
        "workload too small to measure ({expansions} expansions)"
    );

    let before = allocations();
    let out = am_kdj(&r, &s, k, &cfg, &opts);
    let delta = allocations() - before;

    assert_eq!(out.results.len(), k);
    // One park moves out two entry buffers and a mark set and forces one
    // scratch refill — a handful of allocations, all accounted to the
    // park. Non-parking expansions must stay allocation-free; the
    // pre-refactor kernel allocated ≥ 2 vectors on *every* expansion and
    // busts this bound even with zero parks.
    assert!(
        delta < expansions + 8 * parks,
        "{delta} allocations for {expansions} expansions ({parks} parks) — \
         aggressive sweep is allocating on non-parking node pairs"
    );
}
