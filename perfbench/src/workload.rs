//! The benchmark's workloads: QUEST parameter sets, minimum supports and
//! the committed oracle of each.

use arm_dataset::{Database, Item};
use arm_quest::{generate, LengthDist, QuestParams};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// T10.I4 over 1000 items at minsup 0.25% (the paper's headline).
    T10I4,
    /// T10.I4 with Zipf-tailed basket lengths at minsup 1%.
    T10I4Zipf,
    /// T10.I4 squeezed onto 50 items and 100 patterns at minsup 2%.
    DenseN50,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [Workload::T10I4, Workload::T10I4Zipf, Workload::DenseN50];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::T10I4 => "t10i4",
            Workload::T10I4Zipf => "t10i4-zipf",
            Workload::DenseN50 => "dense-n50",
        }
    }

    /// Parses a workload name.
    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Transactions in the workload: an eighth of the paper's D = 100K, a
    /// sixteenth for the slower `t10i4-zipf`. The frequent-itemset profile
    /// holds at these sizes (18,977 / 10,480 / 3,499 itemsets against
    /// 18,547 / 10,300 / 3,553 at D = 100K), and every miner runs often
    /// enough within one measured window that a reported time is the
    /// median of many calls spread across the window.
    pub fn default_txns(self) -> usize {
        match self {
            Workload::T10I4Zipf => 6_250,
            Workload::T10I4 | Workload::DenseN50 => 12_500,
        }
    }

    /// Minimum support as a fraction of the database.
    pub fn min_support_frac(self) -> f64 {
        match self {
            Workload::T10I4 => 0.0025,
            Workload::T10I4Zipf => 0.01,
            Workload::DenseN50 => 0.02,
        }
    }

    /// QUEST parameters at `n_txns` transactions, always at the paper's
    /// T10.I4 seed.
    pub fn params(self, n_txns: usize) -> QuestParams {
        let mut p = QuestParams::paper(10, 4, n_txns);
        match self {
            Workload::T10I4 => {}
            Workload::T10I4Zipf => {
                p.length_dist = LengthDist::ZipfTail {
                    exponent: 1.7,
                    max_factor: 16,
                }
            }
            Workload::DenseN50 => {
                p.n_items = 50;
                p.n_patterns = 100;
            }
        }
        p
    }

    /// Generates the workload's database for `seed`.
    ///
    /// The QUEST pattern pool stays at the paper's seed, which fixes how
    /// many itemsets are frequent and how much work mining them takes.
    /// A nonzero `seed` then draws a relabelling of the items and an order
    /// of the transactions, so every seed mines a different concrete
    /// database of the same structure. Seed 0 is the paper's database.
    pub fn generate(self, seed: u64, n_txns: usize) -> Input {
        let base = generate(&self.params(n_txns));
        let n = base.n_items();
        let mut label: Vec<Item> = (0..n).collect();
        let mut order: Vec<usize> = (0..base.len()).collect();
        if seed != 0 {
            let mut state = seed;
            shuffle(&mut label, &mut state);
            shuffle(&mut order, &mut state);
        }
        let db = Database::from_transactions(
            n,
            order
                .iter()
                .map(|&t| base.transaction(t).iter().map(|&i| label[i as usize])),
        )
        .expect("relabelled items stay below n_items");
        let mut original = vec![0; n as usize];
        for (o, &l) in label.iter().enumerate() {
            original[l as usize] = o as Item;
        }
        Input { db, original }
    }

    /// One-line description of the parameters, for the report header.
    pub fn describe(self, n_txns: usize) -> String {
        let p = self.params(n_txns);
        let lengths = match p.length_dist {
            LengthDist::Poisson => "Poisson lengths".to_string(),
            LengthDist::ZipfTail {
                exponent,
                max_factor,
            } => format!("ZipfTail(s={exponent}, max={max_factor}) lengths"),
        };
        format!(
            "T10.I4 D={} N={} L={} {lengths}, minsup {}%",
            p.n_txns,
            p.n_items,
            p.n_patterns,
            self.min_support_frac() * 100.0
        )
    }

    /// The committed oracle at [`Workload::default_txns`]: itemset count and
    /// [`crate::oracle::digest`] in QUEST labels, the same for every seed.
    pub fn committed_oracle(self) -> (usize, u64) {
        match self {
            Workload::T10I4 => (18_977, 0x70f7_3152_9346_9ea6),
            Workload::T10I4Zipf => (10_480, 0xd5c1_0b4a_a680_d6a6),
            Workload::DenseN50 => (3_499, 0x9b4a_22aa_cf2c_6bb9),
        }
    }
}

/// A generated database plus the map back to QUEST's item labels.
pub struct Input {
    /// The database the miners see.
    pub db: Database,
    /// `original[i]` is the QUEST label of item `i`.
    pub original: Vec<Item>,
}

/// SplitMix64: a small, fixed PRNG, so a seed's input never depends on
/// another crate's generator.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fisher-Yates shuffle driven by [`next`].
fn shuffle<T>(v: &mut [T], state: &mut u64) {
    for i in (1..v.len()).rev() {
        let j = (next(state) % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
}
