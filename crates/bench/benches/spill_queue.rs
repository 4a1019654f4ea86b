//! Hybrid memory/disk queue micro-benchmarks: push/pop throughput under
//! various memory budgets, the value of Equation-3 boundaries, a
//! tie-heavy stream shaped like an incremental join's distance-0 group,
//! and a pop-heavy drain of tied main-queue pairs.

use amdj_core::{ItemRef, Pair};
use amdj_geom::Rect;
use amdj_storage::codec::{put_f64, put_u64, Reader};
use amdj_storage::{SpillItem, SpillQueue, SpillQueueConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

#[derive(Clone, Copy)]
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
    fn try_decode(r: &mut Reader<'_>) -> Result<Self, amdj_storage::codec::CodecError> {
        Ok(Item {
            key: r.try_f64("item key")?,
            id: r.try_u64("item id")?,
        })
    }
}

fn keys(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i as u64).wrapping_mul(2654435761) % 1_000_000) as f64)
        .collect()
}

fn bench_push_pop(c: &mut Criterion) {
    let mut g = c.benchmark_group("spill_queue/push_pop_100k");
    let ks = keys(100_000);
    g.throughput(Throughput::Elements(ks.len() as u64));
    for &budget in &[16 * 1024usize, 512 * 1024, usize::MAX] {
        let label = if budget == usize::MAX {
            "unbounded".to_string()
        } else {
            format!("{}k", budget / 1024)
        };
        g.bench_with_input(BenchmarkId::from_parameter(label), &budget, |b, &budget| {
            b.iter(|| {
                let mut q = SpillQueue::new(SpillQueueConfig {
                    mem_budget: budget,
                    boundaries: vec![],
                    cost: amdj_storage::CostModel::free(),
                });
                for (i, &k) in ks.iter().enumerate() {
                    q.push(Item {
                        key: k,
                        id: i as u64,
                    });
                }
                let mut n = 0u64;
                while q.pop().is_some() {
                    n += 1;
                }
                n
            });
        });
    }
    g.finish();
}

fn bench_boundary_guidance(c: &mut Criterion) {
    // Equation-3 boundaries vs median splits for a uniform key stream.
    let ks = keys(100_000);
    let mut g = c.benchmark_group("spill_queue/boundaries");
    for with in [false, true] {
        let name = if with { "eq3" } else { "median" };
        g.bench_function(name, |b| {
            b.iter(|| {
                let boundaries = if with {
                    (1..=64).map(|i| (i * 4000) as f64).collect()
                } else {
                    vec![]
                };
                let mut q = SpillQueue::new(SpillQueueConfig {
                    mem_budget: 64 * 1024,
                    boundaries,
                    cost: amdj_storage::CostModel::free(),
                });
                for (i, &k) in ks.iter().enumerate() {
                    q.push(Item {
                        key: k,
                        id: i as u64,
                    });
                }
                let mut n = 0u64;
                while q.pop().is_some() {
                    n += 1;
                }
                n
            });
        });
    }
    g.finish();
}

fn bench_tie_heavy(c: &mut Criterion) {
    // An incremental join walking a distance-0 group: the heap starts 90 %
    // full of zeros, then each step pops two zeros and pushes two zeros
    // plus one positive key below every earlier one (so it lands in the
    // heap, not in a spilled segment). 100k pushes, 70 % of them zeros,
    // against the paper's 512 KB queue memory; then a full drain.
    const PUSHES: usize = 100_000;
    let budget = 512 * 1024;
    let capacity = budget / SpillQueue::<Item>::per_item_cost(16);
    let prefill = capacity * 9 / 10;
    let mut g = c.benchmark_group("spill_queue/tie_heavy_100k");
    g.throughput(Throughput::Elements(PUSHES as u64));
    g.bench_function("512k", |b| {
        b.iter(|| {
            let mut q = SpillQueue::new(SpillQueueConfig {
                mem_budget: budget,
                boundaries: vec![],
                cost: amdj_storage::CostModel::free(),
            });
            let mut id = 0u64;
            let mut push = |q: &mut SpillQueue<Item>, key: f64| {
                q.push(Item { key, id });
                id += 1;
            };
            for _ in 0..prefill {
                push(&mut q, 0.0);
            }
            let mut step = 0u64;
            while q.stats().insertions < PUSHES as u64 {
                q.pop();
                q.pop();
                push(&mut q, 0.0);
                push(&mut q, 0.0);
                push(&mut q, 1.0 / (step + 2) as f64);
                step += 1;
            }
            let mut n = 0u64;
            while q.pop().is_some() {
                n += 1;
            }
            (n, q.stats().splits)
        });
    });
    g.finish();
}

/// The main queue of a join walking a distance-0 tie group, with real
/// main-queue pairs (98 bytes encoded) under the paper's 512 KB queue
/// memory: the heap is filled to nine tenths of what the budget holds,
/// nine pairs in ten at distance 0, then 100k steps each pop the head
/// and push one more pair. No step spills, and a pushed tie is the
/// newest at its key, so it stays where it lands: the time is the pops'
/// sifts through a full heap.
fn bench_tied_pairs_pop_heavy(c: &mut Criterion) {
    const STEPS: u64 = 100_000;
    let budget = 512 * 1024;
    let resident = (budget / SpillQueue::<Pair<2>>::per_item_cost(Pair::<2>::ENCODED_LEN)) as u64;
    let pair = |i: u64| {
        let x = (i % 1000) as f64 / 1000.0;
        let mbr = Rect::new([x, 0.0], [x + 0.001, 0.001]);
        Pair {
            dist: if i % 10 == 9 {
                (i % 97 + 1) as f64 * 1e-3
            } else {
                0.0
            },
            a: ItemRef::Object { oid: i },
            b: ItemRef::Object { oid: i + 1 },
            a_mbr: mbr,
            b_mbr: mbr,
        }
    };
    let mut g = c.benchmark_group("spill_queue/tied_pairs_pop_heavy_100k");
    g.throughput(Throughput::Elements(STEPS));
    g.sample_size(20);
    g.bench_function("512k", |b| {
        b.iter(|| {
            let mut q: SpillQueue<Pair<2>> = SpillQueue::new(SpillQueueConfig {
                mem_budget: budget,
                boundaries: vec![],
                cost: amdj_storage::CostModel::free(),
            });
            let mut next = 0u64;
            while next < resident * 9 / 10 {
                q.push(pair(next));
                next += 1;
            }
            let mut zeros = 0u64;
            for _ in 0..STEPS {
                zeros += u64::from(q.pop().is_some_and(|p| p.dist == 0.0));
                q.push(pair(next));
                next += 1;
            }
            (zeros, q.stats().splits)
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_push_pop,
    bench_boundary_guidance,
    bench_tie_heavy,
    bench_tied_pairs_pop_heavy
);
criterion_main!(benches);
