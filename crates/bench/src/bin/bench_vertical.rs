//! Vertical-mining snapshot: tidset backends × thread counts
//! (`BENCH_vertical.json`).
//!
//! Runs the parallel Eclat driver with both forced tidset backends (and
//! the density-adaptive default) at P = 1/2/4/8 on three QUEST
//! workloads:
//!
//! * **dense** — `T10.I4` squeezed onto a 50-item universe, so every
//!   tidset covers a fifth of the database and the word-AND kernel's
//!   fixed `n/64`-word cost crushes the length-proportional merge;
//! * **sparse** — the paper's 1000-item `T10.I4.D100K`, where tidsets
//!   are ~1% dense and sorted lists win;
//! * **skewed** — the sparse workload under a Zipf-tailed transaction
//!   length distribution (the scheduling stressor), used for the
//!   thread-scaling headline.
//!
//! The hybrid driver rides along on the sparse workload for reference.
//!
//! Three gates, reflected in the exit code so CI can smoke-run this:
//!
//! 1. **Correctness** — every backend × P × mode must match the
//!    sequential sorted-backend oracle (hard failure).
//! 2. **Backend** — on dense at P = 8, the bitmap backend must beat the
//!    sorted-list backend on wall time (hard failure; wall is total CPU
//!    work on a serialized host, so this holds on any core count).
//! 3. **Scaling** — on skewed, the work-model simulated time at P = 8
//!    must be ≥ 3× better than at P = 1 (hard failure). Wall-clock
//!    scaling is also printed but only warns: on a single-core host all
//!    thread counts serialize (see DESIGN.md §5 on the work model).

use arm_bench::{banner, reps_for, scaled_params, time_best, ScaleMode};
use arm_dataset::{Database, Item};
use arm_metrics::Counter;
use arm_quest::{generate, LengthDist};
use arm_vertical::{mine_vertical, TidBackend, VerticalConfig};

const THREADS: [usize; 4] = [1, 2, 4, 8];

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
    simulated_seconds: f64,
    mine_imbalance: f64,
    intersections: u64,
    words_anded: u64,
    tidset_kb: u64,
}

fn main() {
    let scale = ScaleMode::from_env();
    banner("Vertical mining snapshot (BENCH_vertical.json)", scale);
    let reps = reps_for(scale);

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
    let mut diverged = false;
    println!(
        "{:<24} {:<9} {:<7} {:>2} {:>10} {:>10} {:>7} {:>12} {:>12} {:>9}",
        "dataset",
        "algo",
        "backend",
        "P",
        "wall(s)",
        "sim(s)",
        "imbal",
        "intersects",
        "words&",
        "tidsetKB"
    );
    for (name, db, minsup, max_k) in workloads {
        // Sequential sorted-backend run is the correctness oracle.
        let oracle: Vec<(Vec<Item>, u32)> = mine_vertical(
            db,
            minsup,
            max_k,
            &VerticalConfig::default().with_backend(TidBackend::Sorted),
        );
        assert!(!oracle.is_empty(), "{name}: degenerate workload");
        for backend in [TidBackend::Sorted, TidBackend::Bitmap, TidBackend::Auto] {
            let cfg = VerticalConfig::default().with_backend(backend);
            for p in THREADS {
                let (wall, (itemsets, stats)) = time_best(reps, || {
                    arm_vertical::mine_eclat_parallel(db, minsup, max_k, &cfg, p)
                });
                if itemsets != oracle {
                    eprintln!("DIVERGENCE: {name} {} P={p}", backend_name(backend));
                    diverged = true;
                }
                let row = Row {
                    dataset: name,
                    algorithm: "eclat",
                    backend: backend_name(backend),
                    threads: p,
                    wall_seconds: wall,
                    simulated_seconds: stats.simulated_time(),
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

    // Hybrid reference rows (sparse workload, adaptive backend).
    {
        use arm_core::{AprioriConfig, Support};
        use arm_parallel::ParallelConfig;
        let base = AprioriConfig {
            min_support: Support::Fraction(0.005),
            ..AprioriConfig::default()
        };
        let expected = mine_vertical(&sparse, sparse_minsup, None, &VerticalConfig::default());
        for p in THREADS {
            let pcfg = ParallelConfig::new(base.clone(), p);
            let vcfg = VerticalConfig::default();
            let (wall, (itemsets, stats)) =
                time_best(reps, || arm_vertical::mine_hybrid(&sparse, &pcfg, &vcfg));
            if itemsets != expected {
                eprintln!("DIVERGENCE: hybrid P={p}");
                diverged = true;
            }
            let row = Row {
                dataset: "T10.I4.D100K",
                algorithm: "hybrid",
                backend: "auto",
                threads: p,
                wall_seconds: wall,
                simulated_seconds: stats.simulated_time(),
                mine_imbalance: stats.imbalance_of_heaviest("mine"),
                intersections: stats.metrics.total(Counter::TidsetIntersections),
                words_anded: stats.metrics.total(Counter::TidsetWordsAnded),
                tidset_kb: stats.metrics.total(Counter::TidsetBytes) / 1024,
            };
            print_row(&row);
            rows.push(row);
        }
    }

    // ---- gate 2: bitmap vs sorted on dense at max P -------------------
    let p_max = *THREADS.last().unwrap();
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

    // ---- gate 3: thread scaling on the skewed workload ----------------
    let skew1 = at("T10.I4.D100K-zipf16", "auto", 1);
    let skew8 = at("T10.I4.D100K-zipf16", "auto", p_max);
    let sim_scaling = skew1.simulated_seconds / skew8.simulated_seconds.max(1e-12);
    let wall_scaling = skew1.wall_seconds / skew8.wall_seconds.max(1e-12);
    println!(
        "skewed auto P=1 -> P={p_max}: simulated {:.2}x (wall {:.2}x)",
        sim_scaling, wall_scaling
    );
    let scales = sim_scaling >= 3.0;
    if !scales {
        eprintln!("FAIL: simulated speedup at P={p_max} below 3x on the skewed workload");
    }
    if wall_scaling < 1.0 {
        eprintln!("note: wall does not scale on this host (threads serialize on few cores)");
    }

    // ---- hand-formatted JSON snapshot ---------------------------------
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"benchmark\": \"vertical-mining\",\n");
    json.push_str(&format!("  \"scale\": \"{}\",\n", scale.label()));
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
    json.push_str(&format!(
        "  \"skewed_p{p_max}_simulated_scaling\": {:.4},\n",
        sim_scaling
    ));
    json.push_str(&format!(
        "  \"skewed_p{p_max}_wall_scaling\": {:.4},\n",
        wall_scaling
    ));
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"dataset\": \"{}\", \"algorithm\": \"{}\", \"backend\": \"{}\", \
             \"threads\": {}, \"wall_seconds\": {:.6}, \"simulated_seconds\": {:.6}, \
             \"mine_imbalance\": {:.4}, \"intersections\": {}, \"words_anded\": {}, \
             \"tidset_kb\": {}}}{}\n",
            r.dataset,
            r.algorithm,
            r.backend,
            r.threads,
            r.wall_seconds,
            r.simulated_seconds,
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

    if diverged || !bitmap_wins || !scales {
        std::process::exit(1);
    }
}

fn print_row(r: &Row) {
    println!(
        "{:<24} {:<9} {:<7} {:>2} {:>10.4} {:>10.4} {:>7.3} {:>12} {:>12} {:>9}",
        r.dataset,
        r.algorithm,
        r.backend,
        r.threads,
        r.wall_seconds,
        r.simulated_seconds,
        r.mine_imbalance,
        r.intersections,
        r.words_anded,
        r.tidset_kb
    );
}
