//! Incremental-join timings: HS-IDJ vs AM-IDJ streaming k results (the
//! timing view of Figure 12), plus the parallel AM-IDJ driver.

use amdj_bench::{build_trees, reset, run_join, Workload};
use amdj_core::engine::JoinKind;
use amdj_core::{AmIdj, AmIdjOptions, HsIdj, JoinConfig};
use amdj_datagen::tiger;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn workload() -> Workload {
    let (streets, hydro) = tiger::arizona_workload(0.01, 2000);
    Workload { streets, hydro }
}

fn bench_idj(c: &mut Criterion) {
    let w = workload();
    let (r, s) = build_trees(&w, 512 * 1024);
    let cfg = JoinConfig::unbounded();
    let mut g = c.benchmark_group("idj");
    g.sample_size(10);
    for &k in &[100usize, 1_000] {
        g.bench_with_input(BenchmarkId::new("hs_idj", k), &k, |b, &k| {
            b.iter(|| {
                reset(&r, &s);
                let mut cur = HsIdj::new(&r, &s, &cfg);
                let mut n = 0;
                while n < k && cur.next().is_some() {
                    n += 1;
                }
                n
            });
        });
        g.bench_with_input(BenchmarkId::new("am_idj", k), &k, |b, &k| {
            b.iter(|| {
                reset(&r, &s);
                let mut cur = AmIdj::new(&r, &s, &cfg, AmIdjOptions::default());
                let mut n = 0;
                while n < k && cur.next().is_some() {
                    n += 1;
                }
                n
            });
        });
        for threads in [2usize, 4] {
            g.bench_with_input(
                BenchmarkId::new(format!("par_am_idj/t{threads}"), k),
                &k,
                |b, &k| {
                    b.iter(|| {
                        reset(&r, &s);
                        let kind = JoinKind::Idj {
                            take: k,
                            opts: AmIdjOptions::default(),
                            window: None,
                        };
                        run_join(&r, &s, kind, threads, &cfg).results.len()
                    });
                },
            );
        }
    }
    g.finish();
}

criterion_group!(benches, bench_idj);
criterion_main!(benches);
