//! Micro-benchmarks of the tidset join kernels: the branch-free sorted
//! merge, its difference twin and the marked root join vs the bitmap
//! word-AND on equal-length lists, across densities bracketing the
//! per-join break-even of one tid in 64. `Auto` chooses a whole run's
//! layout at the root, where the measured break-even is denser (1/16).

use arm_vertical::{
    and_words, difference_linear, intersect_linear, intersect_marked, TidMarks, TidSet,
};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

const UNIVERSE: u32 = 65_536;

/// Partners streamed per marked row in the `marked` bench.
const PARTNERS: usize = 8;

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
            TidSet::Sorted(_) | TidSet::Diff { .. } => unreachable!(),
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
        // A budget of `|a|` never trips, so the whole difference is built.
        g.bench_function("difference", |bch| {
            let mut out = Vec::new();
            let mut next = 0;
            bch.iter(|| {
                let (a, b) = &pairs[next];
                next = (next + 1) % pairs.len();
                out.clear();
                let _ = difference_linear(black_box(a), black_box(b), a.len(), &mut out);
                out.len()
            })
        });
        // One root row: mark `a` once, stream `PARTNERS` lists against
        // it, each stopping at its exact intersection size (as the pair
        // count gives it), and unmark. An iteration is `PARTNERS` joins.
        let exact: Vec<usize> = (0..pairs.len())
            .map(|i| {
                let mut out = Vec::new();
                intersect_linear(&pairs[i].0, &pairs[(i + 1) % pairs.len()].1, &mut out);
                out.len()
            })
            .collect();
        g.bench_function("marked", |bch| {
            let mut marks = TidMarks::new(UNIVERSE as usize);
            let mut out = Vec::new();
            let mut next = 0;
            bch.iter(|| {
                let a = &pairs[next].0;
                marks.mark(black_box(a));
                let mut kept = 0;
                for k in 0..PARTNERS {
                    let i = (next + k) % pairs.len();
                    let b = &pairs[(i + 1) % pairs.len()].1;
                    out.clear();
                    intersect_marked(&marks, black_box(b), exact[i], &mut out);
                    kept += out.len();
                }
                marks.unmark(a);
                next = (next + 1) % pairs.len();
                kept
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
