//! End-to-end k-distance-join timings: HS-KDJ vs B-KDJ vs AM-KDJ vs
//! SJ-SORT on the TIGER-like workload (the timing view of Figure 10),
//! plus the parallel drivers at several thread counts.

use amdj_bench::{build_trees, reset, run_join, Workload};
use amdj_core::engine::{JoinKind, Policy};
use amdj_core::{am_kdj, b_kdj, hs_kdj, sj_sort, AmKdjOptions, JoinConfig};
use amdj_datagen::tiger;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn workload() -> Workload {
    let (streets, hydro) = tiger::arizona_workload(0.01, 2000);
    Workload { streets, hydro }
}

fn bench_kdj(c: &mut Criterion) {
    let w = workload();
    let (r, s) = build_trees(&w, 512 * 1024);
    let cfg = JoinConfig::unbounded();
    let mut g = c.benchmark_group("kdj");
    g.sample_size(10);
    for &k in &[10usize, 1_000] {
        g.bench_with_input(BenchmarkId::new("hs_kdj", k), &k, |b, &k| {
            b.iter(|| {
                reset(&r, &s);
                hs_kdj(&r, &s, k, &cfg).results.len()
            });
        });
        g.bench_with_input(BenchmarkId::new("b_kdj", k), &k, |b, &k| {
            b.iter(|| {
                reset(&r, &s);
                b_kdj(&r, &s, k, &cfg).results.len()
            });
        });
        g.bench_with_input(BenchmarkId::new("am_kdj", k), &k, |b, &k| {
            b.iter(|| {
                reset(&r, &s);
                am_kdj(&r, &s, k, &cfg, &AmKdjOptions::default())
                    .results
                    .len()
            });
        });
        let dmax = {
            reset(&r, &s);
            b_kdj(&r, &s, k, &cfg)
                .results
                .last()
                .map_or(0.0, |p| p.dist)
        };
        g.bench_with_input(BenchmarkId::new("sj_sort", k), &k, |b, &k| {
            b.iter(|| {
                reset(&r, &s);
                sj_sort(&r, &s, k, dmax, &cfg).results.len()
            });
        });
        for threads in [2usize, 4] {
            g.bench_with_input(
                BenchmarkId::new(format!("par_b_kdj/t{threads}"), k),
                &k,
                |b, &k| {
                    b.iter(|| {
                        reset(&r, &s);
                        let kind = JoinKind::Kdj {
                            k,
                            policy: Policy::Exact,
                        };
                        run_join(&r, &s, kind, threads, &cfg).results.len()
                    });
                },
            );
            g.bench_with_input(
                BenchmarkId::new(format!("par_am_kdj/t{threads}"), k),
                &k,
                |b, &k| {
                    b.iter(|| {
                        reset(&r, &s);
                        let policy = Policy::Aggressive {
                            edmax_override: None,
                        };
                        let kind = JoinKind::Kdj { k, policy };
                        run_join(&r, &s, kind, threads, &cfg).results.len()
                    });
                },
            );
        }
    }
    g.finish();
}

criterion_group!(benches, bench_kdj);
criterion_main!(benches);
