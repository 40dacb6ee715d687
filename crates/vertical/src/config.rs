//! Knobs of the vertical mining subsystem.

use crate::tidset::Backend;
use arm_exec::Scheduling;

/// Tidset representation policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TidBackend {
    /// Pick once per run, by the root class's average density (see
    /// [`VerticalConfig::choose`]); every class below the root keeps its
    /// parent's layout.
    #[default]
    Auto,
    /// Always sorted tid lists.
    Sorted,
    /// Always dense bitmaps.
    Bitmap,
}

/// `Auto` mines on bitmaps iff the root's members cover at least one
/// transaction in this many, on average. The layout is chosen once, so
/// this is a whole-run break-even, not a per-join one (one AND word per
/// 64 transactions): sorted lists won at root density 1/20.1 and
/// bitmaps at 1/10.2 (EXPERIMENTS.md, "Tidset layout chosen once, at
/// the root").
const AUTO_BITMAP_DENSITY: u64 = 16;

/// Configuration of the vertical (Eclat) miners. Defaults are the fully
/// optimized settings; [`VerticalConfig::unoptimized`] turns every
/// fast-path off for A/B comparison, mirroring `AprioriConfig`.
#[derive(Debug, Clone)]
pub struct VerticalConfig {
    /// Tidset representation policy.
    pub backend: TidBackend,
    /// Ignored: sorted lists always take the branch-free merge. The
    /// field stays only because the frozen wall-clock benchmark passes
    /// it to [`crate::TidSet::intersect`]; the next change to that
    /// benchmark deletes it.
    pub galloping: bool,
    /// How the parallel driver distributes first-level classes.
    pub scheduling: Scheduling,
}

impl Default for VerticalConfig {
    fn default() -> Self {
        VerticalConfig {
            backend: TidBackend::Auto,
            galloping: true,
            scheduling: Scheduling::default(),
        }
    }
}

impl VerticalConfig {
    /// Every fast path off: sorted lists only, static scheduling. The
    /// A/B baseline for the bench gates.
    pub fn unoptimized() -> Self {
        VerticalConfig {
            backend: TidBackend::Sorted,
            galloping: false,
            scheduling: Scheduling::Static,
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

    /// Resolves the backend of a run whose root class (the frequent
    /// singletons) has `n_members` members with supports summing to
    /// `total_support`, over a database of `n_txns` transactions. `Auto`
    /// picks bitmaps iff the root's average density is at least 1/16;
    /// every class below the root keeps the root's layout.
    pub fn choose(&self, total_support: u64, n_members: usize, n_txns: usize) -> Backend {
        match self.backend {
            TidBackend::Sorted => Backend::Sorted,
            TidBackend::Bitmap => Backend::Bitmap,
            TidBackend::Auto
                if n_txns > 0
                    && n_members > 0
                    && total_support * AUTO_BITMAP_DENSITY >= (n_members * n_txns) as u64 =>
            {
                Backend::Bitmap
            }
            TidBackend::Auto => Backend::Sorted,
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
        // 6400 txns at density 1/16: 400 tids per member.
        assert_eq!(c.choose(1600, 4, 6400), Backend::Bitmap); // avg 400
        assert_eq!(c.choose(1596, 4, 6400), Backend::Sorted); // avg 399
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
