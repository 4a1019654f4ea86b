//! Ablation bench for §3's optimizations: B-KDJ with sweeping-axis and
//! direction selection on vs off (the timing view of Figure 11), the
//! leaf sweep's throughput on two leaf-heavy workloads, the cost of
//! decoding a page and laying out one node's children for a sweep (cold
//! vs cached order), AM-KDJ's park-and-replay path, and the window
//! scan on intersecting leaves.

use amdj_bench::{build_trees, Workload};
use amdj_core::{am_kdj, b_kdj, within_join, AmKdjOptions, JoinConfig};
use amdj_datagen::tiger;
use amdj_geom::{Rect, SweepDirection};
use amdj_rtree::Node;
use amdj_storage::PageId;
use criterion::{criterion_group, criterion_main, Criterion};

fn workload() -> Workload {
    let (streets, hydro) = tiger::arizona_workload(0.01, 2000);
    Workload { streets, hydro }
}

fn bench_sweep_optimizations(c: &mut Criterion) {
    let w = workload();
    let (r, s) = build_trees(&w, 512 * 1024);
    let mut g = c.benchmark_group("plane_sweep/bkdj_k1000");
    g.sample_size(10);
    let variants = [
        ("optimized", true, true),
        ("axis_only", true, false),
        ("direction_only", false, true),
        ("fixed", false, false),
    ];
    for (name, axis, dir) in variants {
        let cfg = JoinConfig {
            optimize_axis: axis,
            optimize_direction: dir,
            ..JoinConfig::unbounded()
        };
        g.bench_function(name, |b| {
            b.iter(|| {
                amdj_bench::reset(&r, &s);
                b_kdj(&r, &s, 1_000, &cfg).results.len()
            });
        });
    }
    g.finish();
}

/// The leaf sweep on the two leaf-heaviest shapes we have: a `within`
/// join at the k-th oracle distance (every qualifying leaf pair is swept
/// with a frozen cutoff) and AM-KDJ stage one under a deliberate
/// under-estimate (frozen `eDmax` axis cutoff plus a compensation stage).
/// Both spend nearly all their time in the scalar plane sweep's
/// frozen-window scan, so this group is that layer's throughput bench.
fn bench_leaf_kernel(c: &mut Criterion) {
    let w = workload();
    let (r, s) = build_trees(&w, 512 * 1024);
    amdj_bench::reset(&r, &s);
    let cfg = JoinConfig::unbounded();
    let oracle = b_kdj(&r, &s, 1_000, &cfg);
    let dmax = oracle.results.last().map_or(0.01, |p| p.dist);
    let opts = AmKdjOptions {
        edmax_override: Some(dmax * 0.5),
    };
    let mut g = c.benchmark_group("plane_sweep/leaf_kernel");
    g.sample_size(10);
    g.bench_function("within", |b| {
        b.iter(|| {
            amdj_bench::reset(&r, &s);
            within_join(&r, &s, dmax, &cfg).results.len()
        });
    });
    g.bench_function("amkdj_underest", |b| {
        b.iter(|| {
            amdj_bench::reset(&r, &s);
            am_kdj(&r, &s, 1_000, &cfg, &opts).results.len()
        });
    });
    g.finish();
}

/// The steps of a buffer miss and of laying one node's children out for
/// a sweep, the way the engine's expansion fills its scratch list: the
/// node's sweep order, then a gather of (MBR, child, key) in that order.
/// `decode` turns a 4 KB page image into a `Node` (a miss's first step),
/// `cold` sorts a fresh node (its order cache starts empty; `clone_only`
/// is the copy it pays for that), `cached` gathers from a
/// buffer-resident node whose order was already computed.
fn bench_node_fill(c: &mut Criterion) {
    let w = workload();
    let (r, _) = build_trees(&w, 512 * 1024);
    let root = r.fetch(r.root_page().expect("non-empty"));
    let leaf = r.fetch(PageId(root.entries[0].child));
    let template: Node<2> = Node::clone(&leaf);
    let mut page = Vec::new();
    template.encode(&mut page);
    page.resize(4096, 0);
    let (axis, dir) = (0, SweepDirection::Forward);
    let mut buf: Vec<(Rect<2>, u64, f64)> = Vec::with_capacity(template.entries.len());
    let mut fill = |node: &Node<2>| {
        buf.clear();
        buf.extend(node.sweep_order(axis, dir).iter().map(|&slot| {
            let e = &node.entries[slot as usize];
            (e.mbr, e.child, e.mbr.lo()[axis])
        }));
        buf.len()
    };
    let mut g = c.benchmark_group("plane_sweep/node_fill");
    // Sub-microsecond iterations: let the ~100 ms target set the count.
    g.sample_size(1_000_000);
    g.bench_function("decode", |b| {
        b.iter(|| Node::<2>::decode(&page).entries.len());
    });
    g.bench_function("clone_only", |b| {
        b.iter(|| Node::clone(&template).entries.len());
    });
    g.bench_function("cold", |b| {
        b.iter(|| fill(&Node::clone(&template)));
    });
    let cached = Node::clone(&template);
    g.bench_function("cached", |b| {
        b.iter(|| fill(&cached));
    });
    g.finish();
}

/// AM-KDJ's compensation bookkeeping: parks that are never replayed
/// (`exact`: stage one runs at the true k-th distance, so stage two
/// finds nothing parked below its cutoff) against parks that all come
/// back (`underest`: a fifth of the true distance, so every parked
/// expansion re-fetches its node pair and replays its skipped pairs).
fn bench_park_and_replay(c: &mut Criterion) {
    let w = workload();
    let (r, s) = build_trees(&w, 512 * 1024);
    amdj_bench::reset(&r, &s);
    let cfg = JoinConfig::unbounded();
    let k = 1_000;
    let dmax = amdj_bench::oracle_dmax(&r, &s, k);
    let mut g = c.benchmark_group("plane_sweep/am_park_replay");
    g.sample_size(10);
    for (name, edmax) in [("exact", dmax), ("underest", dmax * 0.2)] {
        let opts = AmKdjOptions {
            edmax_override: Some(edmax),
        };
        g.bench_function(name, |b| {
            b.iter(|| {
                amdj_bench::reset(&r, &s);
                am_kdj(&r, &s, k, &cfg, &opts).results.len()
            });
        });
    }
    g.finish();
}

/// The `paper-kdj` shape at the sweep layer: intersecting TIGER-like
/// leaves swept with windows so short that an anchor meets about four
/// partners before one ends its scan (a `within` join at distance 0.02
/// on this workload examines 148k partners over 39k scan stops). The
/// trees fit their buffers and stay warm, so every fetch is a buffer hit
/// and the time goes to laying out and sweeping the lists.
///
/// The `within_0` pair is the sweep inside a distance-0 tie group, where
/// the cutoff is 0: `axis_on` picks each expansion's axis by the
/// sweeping index's limit at 0, `axis_off` always sweeps x.
fn bench_intersecting_leaves(c: &mut Criterion) {
    let w = workload();
    let (r, s) = build_trees(&w, 64 << 20);
    let cfg = JoinConfig::unbounded();
    let fixed_axis = JoinConfig {
        optimize_axis: false,
        ..JoinConfig::unbounded()
    };
    let mut g = c.benchmark_group("plane_sweep/intersecting_leaves");
    g.sample_size(20);
    g.bench_function("within_4_partners", |b| {
        b.iter(|| within_join(&r, &s, 0.02, &cfg).results.len());
    });
    for (name, cfg) in [
        ("within_0/axis_on", &cfg),
        ("within_0/axis_off", &fixed_axis),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| within_join(&r, &s, 0.0, cfg).results.len());
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_sweep_optimizations,
    bench_leaf_kernel,
    bench_node_fill,
    bench_park_and_replay,
    bench_intersecting_leaves
);
criterion_main!(benches);
