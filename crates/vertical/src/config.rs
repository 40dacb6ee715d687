//! Knobs of the vertical mining subsystem.

use crate::tidset::Backend;
use arm_exec::Scheduling;

/// Tidset representation policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TidBackend {
    /// Pick per equivalence class by density (see
    /// [`VerticalConfig::density_threshold`]). Root and child classes
    /// re-decide independently, so a run can start on bitmaps and fall
    /// back to lists as tidsets thin out with depth.
    #[default]
    Auto,
    /// Always sorted tid lists.
    Sorted,
    /// Always dense bitmaps.
    Bitmap,
}

/// Configuration of the vertical (Eclat) miners. Defaults are the fully
/// optimized settings; [`VerticalConfig::unoptimized`] turns every
/// fast-path off for A/B comparison, mirroring `AprioriConfig`.
#[derive(Debug, Clone)]
pub struct VerticalConfig {
    /// Tidset representation policy.
    pub backend: TidBackend,
    /// With [`TidBackend::Auto`], a class mines on bitmaps iff its
    /// members' average support is at least `density_threshold · n_txns`.
    /// Default `1/64`: one AND word covers 64 transactions, so that is
    /// the density where the bitmap's fixed `n/64`-word cost matches the
    /// sorted merge's length-proportional cost.
    pub density_threshold: f64,
    /// Use the galloping merge for sorted lists (off: two-pointer walk).
    pub galloping: bool,
    /// How the parallel driver distributes first-level classes.
    pub scheduling: Scheduling,
}

impl Default for VerticalConfig {
    fn default() -> Self {
        VerticalConfig {
            backend: TidBackend::Auto,
            density_threshold: 1.0 / 64.0,
            galloping: true,
            scheduling: Scheduling::default(),
        }
    }
}

impl VerticalConfig {
    /// Every fast path off: sorted lists only, linear merge, static
    /// scheduling. The A/B baseline for the bench gates.
    pub fn unoptimized() -> Self {
        VerticalConfig {
            backend: TidBackend::Sorted,
            galloping: false,
            scheduling: Scheduling::Static,
            ..VerticalConfig::default()
        }
    }

    /// Builder-style backend setter.
    pub fn with_backend(mut self, b: TidBackend) -> Self {
        self.backend = b;
        self
    }

    /// Builder-style scheduling setter.
    pub fn with_scheduling(mut self, s: Scheduling) -> Self {
        self.scheduling = s;
        self
    }

    /// Resolves the backend for a class whose members' supports sum to
    /// `total_support`, over a database of `n_txns` transactions.
    pub fn choose(&self, total_support: u64, n_members: usize, n_txns: usize) -> Backend {
        match self.backend {
            TidBackend::Sorted => Backend::Sorted,
            TidBackend::Bitmap => Backend::Bitmap,
            TidBackend::Auto => {
                if n_members == 0 || n_txns == 0 {
                    return Backend::Sorted;
                }
                let avg = total_support as f64 / n_members as f64;
                if avg >= self.density_threshold * n_txns as f64 {
                    Backend::Bitmap
                } else {
                    Backend::Sorted
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_optimized() {
        let c = VerticalConfig::default();
        assert_eq!(c.backend, TidBackend::Auto);
        assert!(c.galloping);
        assert_eq!(c.scheduling, Scheduling::Guided);
        assert!((c.density_threshold - 1.0 / 64.0).abs() < 1e-12);
    }

    #[test]
    fn unoptimized_turns_everything_off() {
        let c = VerticalConfig::unoptimized();
        assert_eq!(c.backend, TidBackend::Sorted);
        assert!(!c.galloping);
        assert_eq!(c.scheduling, Scheduling::Static);
        // choose() honors the forced backend regardless of density.
        assert_eq!(c.choose(1_000_000, 1, 10), Backend::Sorted);
    }

    #[test]
    fn auto_choice_follows_density() {
        let c = VerticalConfig::default();
        // 6400 txns, threshold density = 100 tids per member.
        assert_eq!(c.choose(400, 4, 6400), Backend::Bitmap); // avg 100
        assert_eq!(c.choose(396, 4, 6400), Backend::Sorted); // avg 99
        assert_eq!(c.choose(0, 0, 6400), Backend::Sorted);
        assert_eq!(c.choose(0, 4, 0), Backend::Sorted);
        let forced = c.with_backend(TidBackend::Bitmap);
        assert_eq!(forced.choose(1, 4, 6400), Backend::Bitmap);
    }

    #[test]
    fn builders() {
        let c = VerticalConfig::default()
            .with_backend(TidBackend::Sorted)
            .with_scheduling(Scheduling::Static);
        assert_eq!(c.backend, TidBackend::Sorted);
        assert_eq!(c.scheduling, Scheduling::Static);
    }
}
