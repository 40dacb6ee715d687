//! Micro-benchmarks of the tidset intersection kernels: the branch-free
//! sorted merge vs the bitmap word-AND on equal-length lists, across
//! densities bracketing the 1/64 break-even the adaptive backend choice
//! is built on.

use arm_vertical::{and_words, intersect_linear, TidSet};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

const UNIVERSE: u32 = 65_536;

/// Deterministic sorted sample of `len` distinct tids out of
/// [`UNIVERSE`].
fn sample(len: usize, seed: u64) -> Vec<u32> {
    let mut state = seed | 1;
    let mut out = Vec::with_capacity(len);
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as u32 % UNIVERSE
    };
    while out.len() < len {
        out.push(next());
        if out.len() == len {
            out.sort_unstable();
            out.dedup();
        }
    }
    out
}

/// Distinct sample pairs of `len` tids each, as many as fit in about
/// 1 MB (at most 256). A bench iteration intersects the next pair in
/// turn: every pair in Eclat is intersected once, and repeating one
/// small pair would let the branch predictor learn its comparison
/// outcomes, which flatters kernels with data-dependent branches.
fn pairs(len: usize) -> Vec<(Vec<u32>, Vec<u32>)> {
    let n = ((1 << 18) / (2 * len)).clamp(1, 256) as u64;
    (0..n)
        .map(|i| (sample(len, 0xA5A5 + 2 * i), sample(len, 0x5A5A + 2 * i)))
        .collect()
}

fn bench_intersection_by_density(c: &mut Criterion) {
    // Density as tids per 64-transaction word; 1.0 = the break-even.
    for (label, frac) in [
        ("d1-256", 256usize),
        ("d1-64", 64),
        ("d1-16", 16),
        ("d1-4", 4),
    ] {
        let pairs = pairs(UNIVERSE as usize / frac);
        let words = (UNIVERSE as usize).div_ceil(64);
        let bitmap = |tids: &Vec<u32>| match TidSet::Sorted(tids.clone()).to_bitmap(words) {
            TidSet::Bitmap { words, .. } => words,
            TidSet::Sorted(_) => unreachable!(),
        };
        // The word-AND has no data-dependent branch: one pair will do.
        let (aw, bw) = (bitmap(&pairs[0].0), bitmap(&pairs[0].1));
        let mut g = c.benchmark_group(format!("intersection/{label}"));
        g.bench_function("merge", |bch| {
            let mut out = Vec::new();
            let mut next = 0;
            bch.iter(|| {
                let (a, b) = &pairs[next];
                next = (next + 1) % pairs.len();
                out.clear();
                intersect_linear(black_box(a), black_box(b), &mut out);
                out.len()
            })
        });
        g.bench_function("word-and", |bch| {
            let mut out = Vec::with_capacity(words);
            bch.iter(|| and_words(black_box(&aw), black_box(&bw), &mut out))
        });
        g.finish();
    }
}

criterion_group!(intersection, bench_intersection_by_density);
criterion_main!(intersection);
