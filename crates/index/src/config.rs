//! Index-level configuration, derived from the system-wide config.

use waterwheel_core::SystemConfig;

/// Configuration of the per-leaf temporal bloom filters (paper §IV-B).
#[derive(Clone, Copy, Debug)]
pub struct BloomConfig {
    /// Width of one time mini-range in milliseconds. Tuples are mapped to
    /// `ts / mini_range_ms` buckets before insertion into the filter.
    pub mini_range_ms: u64,
    /// Bits allocated per expected entry.
    pub bits_per_entry: usize,
}

impl Default for BloomConfig {
    fn default() -> Self {
        Self {
            mini_range_ms: 1_000,
            bits_per_entry: 10,
        }
    }
}

/// Tunables for the in-memory index structures.
#[derive(Clone, Copy, Debug)]
pub struct IndexConfig {
    /// Maximum children per inner node (and entries per baseline leaf).
    pub fanout: usize,
    /// Target tuples per leaf when building or rebuilding a template.
    pub leaf_capacity: usize,
    /// Skewness threshold that marks a template obsolete (paper §III-C: 0.2).
    pub skew_threshold: f64,
    /// Inserts between skewness checks.
    pub skew_check_interval: usize,
    /// Temporal bloom filters; `None` disables them (ablation knob).
    pub bloom: Option<BloomConfig>,
}

impl Default for IndexConfig {
    fn default() -> Self {
        Self {
            fanout: 16,
            leaf_capacity: 64,
            skew_threshold: 0.2,
            skew_check_interval: 4096,
            bloom: Some(BloomConfig::default()),
        }
    }
}

impl IndexConfig {
    /// Derives the index configuration from the system configuration.
    pub fn from_system(sys: &SystemConfig) -> Self {
        Self {
            fanout: sys.btree_fanout,
            leaf_capacity: sys.leaf_capacity,
            skew_threshold: sys.skew_threshold,
            skew_check_interval: sys.skew_check_interval,
            bloom: sys.bloom_enabled.then(BloomConfig::default),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_system_respects_bloom_toggle() {
        let mut sys = SystemConfig::default();
        sys.bloom_enabled = false;
        assert!(IndexConfig::from_system(&sys).bloom.is_none());
        sys.bloom_enabled = true;
        let cfg = IndexConfig::from_system(&sys);
        assert_eq!(cfg.bloom.unwrap().bits_per_entry, 10);
        assert_eq!(cfg.bloom.unwrap().mini_range_ms, 1_000);
    }
}
