//! Mining configuration: every optimization of §3–§5 is a knob here, so
//! the benchmark harness can reproduce the paper's base/optimized pairs.

use arm_hashtree::{PlacementPolicy, VisitedMode};

/// Minimum support specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Support {
    /// Fraction of the database size (the paper's "0.5%" = `0.005`).
    Fraction(f64),
    /// Absolute transaction count.
    Absolute(u32),
}

impl Support {
    /// Resolves to an absolute count for a database of `n` transactions
    /// (rounded up, clamped to ≥ 1).
    pub fn absolute(self, n: usize) -> u32 {
        match self {
            Support::Absolute(a) => a.max(1),
            Support::Fraction(f) => {
                let s = (f * n as f64).ceil();
                s.max(1.0) as u32
            }
        }
    }
}

/// Which item-to-cell hash the tree uses (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HashScheme {
    /// The naive `i mod H` (the unoptimized base case).
    Interleaved,
    /// The bitonic indirection vector built from the frequent items
    /// (the TREE optimization).
    Bitonic,
}

/// Full configuration of a mining run.
#[derive(Debug, Clone)]
pub struct AprioriConfig {
    /// Minimum support.
    pub min_support: Support,
    /// Leaf split threshold `T` (small values mean fast leaf scans).
    pub leaf_threshold: usize,
    /// Tree hash function choice.
    pub hash_scheme: HashScheme,
    /// Derive the fan-out per iteration from `H > (Σ C(|Si|,2)/T)^(1/k)`
    /// (§3.1.1). When false, `fixed_fanout` is used.
    pub adaptive_fanout: bool,
    /// Fan-out used when `adaptive_fanout` is off.
    pub fixed_fanout: u32,
    /// Short-circuited subset checking (§4.2).
    pub short_circuit: bool,
    /// VISITED stamp storage: per-node, or the paper's reduced `k·H·P`
    /// path-tagged scheme (§4.2).
    pub visited: VisitedMode,
    /// Count in arrays instead of a candidate hash tree: `C_2` in a
    /// triangular array over the frequent items ([`crate::pairs`]), and
    /// every `C_k`, `k ≥ 3`, in per-class triangular arrays over
    /// per-transaction id lists ([`crate::class_array`]). Off, every level
    /// builds and counts the paper's tree, and the tree knobs below take
    /// effect. PCCD ignores it.
    pub pair_array: bool,
    /// Memory placement policy (§5).
    pub placement: PlacementPolicy,
    /// Optional cap on the itemset length mined.
    pub max_k: Option<u32>,
    /// Counting fast path: hash each transaction item once per transaction
    /// and index the memo table during the walk instead of re-hashing per
    /// node visit.
    pub hash_memo: bool,
    /// Counting fast path of the hash tree: trim each transaction to the
    /// items appearing in some candidate before walking it, and from
    /// `k = 3` on hand the next level the hit-trimmed survivors (lossless;
    /// the database itself stays untouched).
    pub trim_transactions: bool,
    /// Counting fast path: drive the walk with an explicit reusable frame
    /// stack instead of native recursion (identical traversal and work
    /// tallies).
    pub iterative_walk: bool,
    /// Counting fast path: keep counting scratch (bitmaps, stamps, memo
    /// and trim buffers) alive across iterations instead of reallocating
    /// it per iteration.
    pub reuse_scratch: bool,
}

impl Default for AprioriConfig {
    fn default() -> Self {
        AprioriConfig {
            min_support: Support::Fraction(0.005),
            leaf_threshold: 8,
            hash_scheme: HashScheme::Bitonic,
            adaptive_fanout: true,
            fixed_fanout: 8,
            short_circuit: true,
            visited: VisitedMode::PerNode,
            pair_array: true,
            placement: PlacementPolicy::Gpp,
            max_k: None,
            hash_memo: true,
            trim_transactions: true,
            iterative_walk: true,
            reuse_scratch: true,
        }
    }
}

impl AprioriConfig {
    /// The paper's *unoptimized* baseline: interleaved hash, fixed fan-out,
    /// no short-circuiting, standard-malloc placement, a hash tree at
    /// every level, and none of the counting fast paths.
    pub fn unoptimized() -> Self {
        AprioriConfig {
            min_support: Support::Fraction(0.005),
            leaf_threshold: 8,
            hash_scheme: HashScheme::Interleaved,
            adaptive_fanout: false,
            fixed_fanout: 8,
            short_circuit: false,
            visited: VisitedMode::PerNode,
            pair_array: false,
            placement: PlacementPolicy::Ccpd,
            max_k: None,
            hash_memo: false,
            trim_transactions: false,
            iterative_walk: false,
            reuse_scratch: false,
        }
    }

    /// Whether the level-`k` hash-tree count pass hands the next level a
    /// hit-trimmed database (DHP's transaction trimming, see
    /// `arm_hashtree::count`): with `trim_transactions`, from `k = 3` on,
    /// except at the `max_k` level, which has no next level.
    pub fn hit_trim_at(&self, k: u32) -> bool {
        self.trim_transactions && k >= 3 && self.max_k != Some(k)
    }

    /// Builder-style support setter.
    pub fn with_support(mut self, s: Support) -> Self {
        self.min_support = s;
        self
    }

    /// Builder-style placement setter.
    pub fn with_placement(mut self, p: PlacementPolicy) -> Self {
        self.placement = p;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn support_resolution() {
        assert_eq!(Support::Fraction(0.005).absolute(100_000), 500);
        assert_eq!(Support::Fraction(0.0).absolute(100), 1);
        assert_eq!(Support::Absolute(0).absolute(10), 1);
        assert_eq!(Support::Absolute(7).absolute(10), 7);
        assert_eq!(Support::Fraction(0.26).absolute(4), 2);
    }

    #[test]
    fn presets_differ() {
        let opt = AprioriConfig::default();
        let base = AprioriConfig::unoptimized();
        assert_ne!(opt.hash_scheme, base.hash_scheme);
        assert!(opt.short_circuit && !base.short_circuit);
        assert!(opt.adaptive_fanout && !base.adaptive_fanout);
        assert!(opt.hash_memo && !base.hash_memo);
        assert!(opt.trim_transactions && !base.trim_transactions);
        assert!(opt.iterative_walk && !base.iterative_walk);
        assert!(opt.reuse_scratch && !base.reuse_scratch);
        assert!(opt.pair_array && !base.pair_array);
    }

    #[test]
    fn hit_trim_levels() {
        let cfg = AprioriConfig {
            max_k: Some(5),
            ..AprioriConfig::default()
        };
        let levels: Vec<u32> = (1..=5).filter(|&k| cfg.hit_trim_at(k)).collect();
        assert_eq!(levels, vec![3, 4]);
        assert!(!(1..=6).any(|k| AprioriConfig::unoptimized().hit_trim_at(k)));
    }

    #[test]
    fn builder_setters() {
        let c = AprioriConfig::default()
            .with_support(Support::Absolute(3))
            .with_placement(PlacementPolicy::Lpp);
        assert_eq!(c.min_support, Support::Absolute(3));
        assert_eq!(c.placement, PlacementPolicy::Lpp);
    }
}
