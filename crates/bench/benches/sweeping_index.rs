//! Cost of the closed-form sweeping index (§3.2) — the paper argues it is
//! trivial next to expanding hundreds of child pairs; verify.

use amdj_geom::{sweep_index, Rect};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_index(c: &mut Criterion) {
    let r: Rect<2> = Rect::new([0.0, 0.0], [3.0, 7.0]);
    let s: Rect<2> = Rect::new([2.0, 5.0], [9.0, 9.0]);
    c.bench_function("sweep_index/one_dim", |b| {
        b.iter(|| sweep_index::sweeping_index(&r, &s, 0.8, 0));
    });
    c.bench_function("sweep_index/choose_axis_2d", |b| {
        b.iter(|| sweep_index::choose_sweep_axis(&r, &s, 0.8));
    });
    // A zero cutoff (inside a distance-0 tie group) also ranks each axis
    // by the index's slope at 0.
    c.bench_function("sweep_index/choose_axis_2d_w0", |b| {
        b.iter(|| sweep_index::choose_sweep_axis(&r, &s, 0.0));
    });
    c.bench_function("sweep_index/choose_direction", |b| {
        b.iter(|| sweep_index::choose_sweep_direction(&r, &s, 0));
    });
}

criterion_group!(benches, bench_index);
criterion_main!(benches);
