//! Configuration of the CCPD driver ([`crate::ccpd`]) and of PCCD in
//! `arm-parallel`: thread count, balancing, partitioning, scheduling.

use crate::config::AprioriConfig;
use arm_balance::Scheme;
use arm_exec::Scheduling;

/// How the database is split across counting threads (§3.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DbPartition {
    /// Plain blocked split (the paper's implementation).
    #[default]
    Block,
    /// One static split weighted by the mean estimated workload over the
    /// expected iterations, `(Σ_{k=1..kmax} C(l,k)) / kmax`.
    WeightedStatic {
        /// The `kmax` horizon of the estimate.
        kmax: usize,
    },
    /// Re-partition every iteration by the exact per-transaction workload
    /// `C(l, k)` (the paper's re-partitioning alternative; contiguity is
    /// preserved so transactions rarely change owners).
    WeightedPerIteration,
}

/// Parallel CCPD/PCCD configuration (wraps the sequential knobs).
#[derive(Debug, Clone)]
pub struct ParallelConfig {
    /// Sequential algorithm knobs (support, hash scheme, placement, ...).
    pub base: AprioriConfig,
    /// Worker thread count (the paper's `P`).
    pub n_threads: usize,
    /// How candidate-generation work units are balanced across threads
    /// (the COMP knob of Fig. 8: `Block` = unoptimized, `Greedy` =
    /// the paper's multi-class bitonic generalization).
    pub candgen_scheme: Scheme,
    /// Adaptive parallelism (§3.1.3): candidate generation runs on one
    /// thread unless `|F_{k-1}|` reaches this size. The default, 30,000,
    /// is the crossover measured at P = 2 on a 2-core host: below it the
    /// fork, the per-unit candidate sets and their ordered merge cost
    /// more than the split join saves at every level measured
    /// (EXPERIMENTS.md, "Parallel candidate generation"). The crossover
    /// at larger P is unmeasured.
    pub parallel_candgen_min: usize,
    /// Database partitioning strategy for the counting phase.
    pub db_partition: DbPartition,
    /// How data-parallel phases (F1, tree build, counting) distribute
    /// their index space at run time. `Static` is the paper's fixed split
    /// (and the differential-test oracle); the default `Guided` mode
    /// re-balances the same partition via an `arm-exec` chunk pool without
    /// changing any result. PCCD ignores it and always splits statically.
    pub scheduling: Scheduling,
}

impl ParallelConfig {
    /// A fully optimized configuration with `n_threads` workers.
    pub fn new(base: AprioriConfig, n_threads: usize) -> Self {
        ParallelConfig {
            base,
            n_threads: n_threads.max(1),
            candgen_scheme: Scheme::Greedy,
            parallel_candgen_min: 30_000,
            db_partition: DbPartition::Block,
            scheduling: Scheduling::default(),
        }
    }

    /// Builder-style candidate-generation scheme setter.
    pub fn with_candgen(mut self, s: Scheme) -> Self {
        self.candgen_scheme = s;
        self
    }

    /// Builder-style database-partition setter.
    pub fn with_db_partition(mut self, p: DbPartition) -> Self {
        self.db_partition = p;
        self
    }

    /// Builder-style scheduling setter.
    pub fn with_scheduling(mut self, s: Scheduling) -> Self {
        self.scheduling = s;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let c = ParallelConfig::new(AprioriConfig::default(), 4);
        assert_eq!(c.n_threads, 4);
        assert_eq!(c.candgen_scheme, Scheme::Greedy);
        let c0 = ParallelConfig::new(AprioriConfig::default(), 0);
        assert_eq!(c0.n_threads, 1, "thread count clamps to 1");
        assert_eq!(c.scheduling, Scheduling::Guided);
    }

    #[test]
    fn builders() {
        let c = ParallelConfig::new(AprioriConfig::default(), 2)
            .with_candgen(Scheme::Block)
            .with_db_partition(DbPartition::WeightedPerIteration)
            .with_scheduling(Scheduling::Static);
        assert_eq!(c.candgen_scheme, Scheme::Block);
        assert_eq!(c.db_partition, DbPartition::WeightedPerIteration);
        assert_eq!(c.scheduling, Scheduling::Static);
        assert_eq!(DbPartition::default(), DbPartition::Block);
    }
}
