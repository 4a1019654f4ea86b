//! Ablation bench for §3's optimizations: B-KDJ with sweeping-axis and
//! direction selection on vs off (the timing view of Figure 11), plus the
//! leaf sweep's throughput on two leaf-heavy workloads.

use amdj_bench::{build_trees, Workload};
use amdj_core::{am_kdj, b_kdj, within_join, AmKdjOptions, JoinConfig};
use amdj_datagen::tiger;
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

criterion_group!(benches, bench_sweep_optimizations, bench_leaf_kernel);
criterion_main!(benches);
