//! Vertical-mining snapshot: tidset backends × thread counts
//! (`BENCH_vertical.json`).
//!
//! Runs the parallel Eclat driver with both forced tidset backends (and
//! the default `Auto`, which picks one layout from the root's density)
//! at P = 1 and P = `host_cores` on three QUEST workloads, timing each by
//! measured wall clock (best of the reps):
//!
//! * **dense** — `T10.I4` squeezed onto a 50-item universe, so every
//!   tidset covers a fifth of the database and the word-AND kernel's
//!   fixed `n/64`-word cost crushes the length-proportional merge;
//! * **sparse** — the paper's 1000-item `T10.I4.D100K`, where tidsets
//!   are ~1% dense and sorted lists win;
//! * **skewed** — the sparse workload under a Zipf-tailed transaction
//!   length distribution (the scheduling stressor).
//!
//! Three gates, reflected in the exit code so CI can smoke-run this:
//!
//! 1. **Correctness** — every backend × P must match the sequential
//!    oracle [`arm_core::mine_eclat`] (hard failure).
//! 2. **Backend** — on dense at P = `host_cores`, the bitmap backend must
//!    beat the sorted-list backend on wall time (hard failure; a ratio of
//!    two runs at the same P, so it holds on any core count).
//! 3. **Auto** — on every workload and P, the `auto` row's `words_anded`
//!    and `tidset_kb` must equal those of the forced backend that
//!    [`VerticalConfig::choose`] names for the root (hard failure;
//!    counters, not wall time, so it holds on any host).
//!
//! Thread scaling is not gated here: the wall-clock benchmark in
//! `perfbench/` measures it end to end.

use arm_bench::{banner, host_cores, reps_for, scaled_params, time_best, ScaleMode};
use arm_core::mine_eclat;
use arm_dataset::Database;
use arm_metrics::Counter;
use arm_quest::{generate, LengthDist};
use arm_vertical::{Backend, RunControl, TidBackend, VerticalConfig};

fn backend_name(b: TidBackend) -> &'static str {
    match b {
        TidBackend::Auto => "auto",
        TidBackend::Sorted => "sorted",
        TidBackend::Bitmap => "bitmap",
    }
}

struct Row {
    dataset: &'static str,
    algorithm: &'static str,
    backend: &'static str,
    threads: usize,
    wall_seconds: f64,
    mine_imbalance: f64,
    intersections: u64,
    words_anded: u64,
    tidset_kb: u64,
}

fn main() {
    let scale = ScaleMode::from_env();
    banner("Vertical mining snapshot (BENCH_vertical.json)", scale);
    let reps = reps_for(scale);
    let p_max = host_cores();
    let threads: Vec<usize> = if p_max > 1 { vec![1, p_max] } else { vec![1] };

    // Dense: the paper workload on a 50-item universe. Depth is capped —
    // a 20%-dense universe mines thousands of deep itemsets that add
    // nothing to the backend comparison but multiply run time.
    let mut dense_params = scaled_params(10, 4, 100_000, scale);
    dense_params.n_items = 50;
    dense_params.n_patterns = 100;
    let dense = generate(&dense_params);
    let dense_minsup = dense.absolute_support(0.05);
    let dense_max_k = Some(4);

    let sparse = generate(&scaled_params(10, 4, 100_000, scale));
    let sparse_minsup = sparse.absolute_support(0.005);

    let skewed = generate(&scaled_params(10, 4, 100_000, scale).with_length_dist(
        LengthDist::ZipfTail {
            exponent: 1.7,
            max_factor: 16,
        },
    ));
    let skewed_minsup = skewed.absolute_support(0.005);

    let workloads: [(&str, &Database, u32, Option<u32>); 3] = [
        ("T10.I4.D100K-n50-dense", &dense, dense_minsup, dense_max_k),
        ("T10.I4.D100K", &sparse, sparse_minsup, None),
        ("T10.I4.D100K-zipf16", &skewed, skewed_minsup, None),
    ];

    let mut rows: Vec<Row> = Vec::new();
    let mut root_layouts: Vec<(&str, &str)> = Vec::new();
    let mut diverged = false;
    println!(
        "{:<24} {:<9} {:<7} {:>2} {:>10} {:>7} {:>12} {:>12} {:>9}",
        "dataset", "algo", "backend", "P", "wall(s)", "imbal", "intersects", "words&", "tidsetKB"
    );
    for (name, db, minsup, max_k) in workloads {
        let oracle = mine_eclat(db, minsup, max_k);
        assert!(!oracle.is_empty(), "{name}: degenerate workload");
        let singletons = oracle.iter().filter(|(s, _)| s.len() == 1);
        let total = singletons.clone().map(|(_, c)| *c as u64).sum();
        let layout = match VerticalConfig::default().choose(total, singletons.count(), db.len()) {
            Backend::Sorted => "sorted",
            Backend::Bitmap => "bitmap",
        };
        root_layouts.push((name, layout));
        for backend in [TidBackend::Sorted, TidBackend::Bitmap, TidBackend::Auto] {
            let cfg = VerticalConfig::default().with_backend(backend);
            for &p in &threads {
                let (wall, (result, stats)) = time_best(reps, || {
                    let ctrl = RunControl::default();
                    arm_vertical::try_mine_eclat_parallel(db, minsup, max_k, &cfg, p, &ctrl)
                        .expect("no token, no faults")
                });
                if result.all_itemsets() != oracle {
                    eprintln!("DIVERGENCE: {name} {} P={p}", backend_name(backend));
                    diverged = true;
                }
                let row = Row {
                    dataset: name,
                    algorithm: "eclat",
                    backend: backend_name(backend),
                    threads: p,
                    wall_seconds: wall,
                    mine_imbalance: stats.imbalance_of_heaviest("mine"),
                    intersections: stats.metrics.total(Counter::TidsetIntersections),
                    words_anded: stats.metrics.total(Counter::TidsetWordsAnded),
                    tidset_kb: stats.metrics.total(Counter::TidsetBytes) / 1024,
                };
                print_row(&row);
                rows.push(row);
            }
        }
    }

    // ---- gate 2: bitmap vs sorted on dense at P = host cores ----------
    let at = |ds: &str, backend: &str, p: usize| {
        rows.iter()
            .find(|r| {
                r.dataset == ds && r.algorithm == "eclat" && r.backend == backend && r.threads == p
            })
            .unwrap()
    };
    let dense_sorted = at("T10.I4.D100K-n50-dense", "sorted", p_max);
    let dense_bitmap = at("T10.I4.D100K-n50-dense", "bitmap", p_max);
    println!();
    println!(
        "dense P={p_max}: sorted {:.4}s vs bitmap {:.4}s ({:.1}x)",
        dense_sorted.wall_seconds,
        dense_bitmap.wall_seconds,
        dense_sorted.wall_seconds / dense_bitmap.wall_seconds.max(1e-12)
    );
    let bitmap_wins = dense_bitmap.wall_seconds < dense_sorted.wall_seconds;
    if !bitmap_wins {
        eprintln!("FAIL: bitmap backend lost to sorted lists on the dense workload");
    }

    // ---- gate 3: auto runs the layout its root names ------------------
    let mut auto_strays = false;
    for &(ds, layout) in &root_layouts {
        for &p in &threads {
            let (auto, named) = (at(ds, "auto", p), at(ds, layout, p));
            if (auto.words_anded, auto.tidset_kb) != (named.words_anded, named.tidset_kb) {
                eprintln!("FAIL: {ds} P={p}: auto left the root's {layout} layout");
                auto_strays = true;
            }
        }
    }

    // ---- hand-formatted JSON snapshot ---------------------------------
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"benchmark\": \"vertical-mining\",\n");
    json.push_str(&format!("  \"scale\": \"{}\",\n", scale.label()));
    json.push_str(&format!("  \"host_cores\": {p_max},\n"));
    json.push_str(
        "  \"datasets\": [\"T10.I4.D100K-n50-dense\", \"T10.I4.D100K\", \"T10.I4.D100K-zipf16\"],\n",
    );
    json.push_str(&format!(
        "  \"dense_p{p_max}_sorted_wall_seconds\": {:.6},\n",
        dense_sorted.wall_seconds
    ));
    json.push_str(&format!(
        "  \"dense_p{p_max}_bitmap_wall_seconds\": {:.6},\n",
        dense_bitmap.wall_seconds
    ));
    json.push_str(&format!(
        "  \"dense_p{p_max}_bitmap_speedup\": {:.4},\n",
        dense_sorted.wall_seconds / dense_bitmap.wall_seconds.max(1e-12)
    ));
    let layouts: Vec<String> = root_layouts
        .iter()
        .map(|(ds, layout)| format!("\"{ds}\": \"{layout}\""))
        .collect();
    json.push_str(&format!("  \"auto_layout\": {{{}}},\n", layouts.join(", ")));
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"dataset\": \"{}\", \"algorithm\": \"{}\", \"backend\": \"{}\", \
             \"threads\": {}, \"wall_seconds\": {:.6}, \"mine_imbalance\": {:.4}, \
             \"intersections\": {}, \"words_anded\": {}, \"tidset_kb\": {}}}{}\n",
            r.dataset,
            r.algorithm,
            r.backend,
            r.threads,
            r.wall_seconds,
            r.mine_imbalance,
            r.intersections,
            r.words_anded,
            r.tidset_kb,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_vertical.json", &json).expect("write BENCH_vertical.json");
    println!("wrote BENCH_vertical.json");

    if diverged || !bitmap_wins || auto_strays {
        std::process::exit(1);
    }
}

fn print_row(r: &Row) {
    println!(
        "{:<24} {:<9} {:<7} {:>2} {:>10.4} {:>7.3} {:>12} {:>12} {:>9}",
        r.dataset,
        r.algorithm,
        r.backend,
        r.threads,
        r.wall_seconds,
        r.mine_imbalance,
        r.intersections,
        r.words_anded,
        r.tidset_kb
    );
}
