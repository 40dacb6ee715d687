//! End-to-end mining benchmarks: generation, sequential Apriori, and
//! CCPD at several thread counts on a small synthetic dataset.

use arm_core::{mine, AprioriConfig, Support};
use arm_parallel::{ccpd, pccd, ParallelConfig, RunControl};
use arm_quest::{generate, QuestParams};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn params() -> QuestParams {
    let mut p = QuestParams::paper(10, 4, 4_000);
    p.n_patterns = 200;
    p
}

fn bench_generation(c: &mut Criterion) {
    let p = params();
    let mut g = c.benchmark_group("quest_generate");
    g.sample_size(10);
    g.bench_function("T10.I4.D4K", |b| b.iter(|| generate(&p).len()));
    g.finish();
}

fn bench_sequential(c: &mut Criterion) {
    let db = generate(&params());
    let cfg = AprioriConfig {
        min_support: Support::Fraction(0.01),
        ..AprioriConfig::default()
    };
    let mut g = c.benchmark_group("mine_sequential");
    g.sample_size(10);
    g.bench_function("optimized", |b| b.iter(|| mine(&db, &cfg).total_frequent()));
    let base = AprioriConfig {
        min_support: Support::Fraction(0.01),
        ..AprioriConfig::unoptimized()
    };
    g.bench_function("unoptimized", |b| {
        b.iter(|| mine(&db, &base).total_frequent())
    });
    g.finish();
}

fn bench_parallel(c: &mut Criterion) {
    let db = generate(&params());
    let base = AprioriConfig {
        min_support: Support::Fraction(0.01),
        ..AprioriConfig::default()
    };
    let mut g = c.benchmark_group("mine_parallel");
    g.sample_size(10);
    for p in [1usize, 2, 4] {
        let cfg = ParallelConfig::new(base.clone(), p);
        g.bench_with_input(BenchmarkId::new("ccpd", p), &cfg, |b, cfg| {
            b.iter(|| ccpd::mine(&db, cfg).0.total_frequent())
        });
    }
    let cfg = ParallelConfig::new(base, 2);
    g.bench_with_input(BenchmarkId::new("pccd", 2), &cfg, |b, cfg| {
        b.iter(|| {
            pccd::try_mine(&db, cfg, &RunControl::default())
                .expect("no token, no faults")
                .0
                .total_frequent()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_generation, bench_sequential, bench_parallel);
criterion_main!(benches);
