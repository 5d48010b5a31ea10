//! Deterministic, labelled random-number streams.
//!
//! Every stochastic element of the cloud models (cold-start jitter, runtime
//! variability, failure injection) draws from its own named stream so that
//! adding a new consumer never perturbs the draws seen by existing ones —
//! the property that makes A/B experiment sweeps comparable run-to-run.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// FNV-1a 64-bit hash, used to derive per-label stream seeds.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Derives an independent RNG for (`seed`, `label`).
///
/// The same pair always yields the same stream; different labels yield
/// streams that are independent for all practical purposes.
pub fn stream_rng(seed: u64, label: &str) -> StdRng {
    let mixed = seed ^ fnv1a(label.as_bytes()).rotate_left(17);
    StdRng::seed_from_u64(mixed)
}

/// A convenience wrapper bundling a base seed with stream derivation.
#[derive(Debug, Clone, Copy)]
pub struct SeedSource {
    seed: u64,
}

impl SeedSource {
    /// Creates a source with the given base seed.
    pub fn new(seed: u64) -> Self {
        SeedSource { seed }
    }

    /// The base seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives the stream for `label`.
    pub fn stream(&self, label: &str) -> StdRng {
        stream_rng(self.seed, label)
    }

    /// Derives a child source (for nesting, e.g. per-task substreams).
    pub fn child(&self, label: &str) -> SeedSource {
        SeedSource {
            seed: self.seed ^ fnv1a(label.as_bytes()),
        }
    }
}

/// The stream a run's jitter factors draw from: `seeds.child(label)`'s
/// `stream`, derived only when `spread` is above 0. A zero spread draws
/// nothing ([`jitter_factor`] returns 1), so it needs no stream and pays
/// for no hashing or seeding.
pub fn jitter_stream(seeds: &SeedSource, label: &str, stream: &str, spread: f64) -> Option<StdRng> {
    assert!((0.0..1.0).contains(&spread), "spread must be in [0,1)");
    (spread > 0.0).then(|| seeds.child(label).stream(stream))
}

/// Samples a truncated-normal-ish jitter factor in `[1-spread, 1+spread]`.
///
/// Used to model run-to-run cloud variability around nominal task runtimes.
pub fn jitter_factor(rng: &mut StdRng, spread: f64) -> f64 {
    assert!((0.0..1.0).contains(&spread), "spread must be in [0,1)");
    if spread == 0.0 {
        return 1.0;
    }
    // Average three uniforms for a cheap bell shape, then scale.
    let u = (rng.gen::<f64>() + rng.gen::<f64>() + rng.gen::<f64>()) / 3.0;
    1.0 + (u * 2.0 - 1.0) * spread
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_label_same_stream() {
        let mut a = stream_rng(42, "cold-start");
        let mut b = stream_rng(42, "cold-start");
        for _ in 0..32 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_labels_diverge() {
        let mut a = stream_rng(42, "cold-start");
        let mut b = stream_rng(42, "io-jitter");
        let same = (0..32).filter(|_| a.gen::<u64>() == b.gen::<u64>()).count();
        assert!(same < 2);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = stream_rng(1, "x");
        let mut b = stream_rng(2, "x");
        assert_ne!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn child_sources_are_stable() {
        let s = SeedSource::new(7);
        let c1 = s.child("task:Map");
        let c2 = s.child("task:Map");
        let mut a = c1.stream("runtime");
        let mut b = c2.stream("runtime");
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn jitter_stays_in_bounds() {
        let mut rng = stream_rng(9, "jitter");
        for _ in 0..1000 {
            let f = jitter_factor(&mut rng, 0.2);
            assert!((0.8..=1.2).contains(&f), "factor {f} out of range");
        }
    }

    #[test]
    fn zero_spread_derives_no_stream() {
        let s = SeedSource::new(7);
        assert!(jitter_stream(&s, "task:Map", "run", 0.0).is_none());
        let mut a = jitter_stream(&s, "task:Map", "run", 0.2).expect("spread draws");
        let mut b = s.child("task:Map").stream("run");
        assert_eq!(jitter_factor(&mut a, 0.2), jitter_factor(&mut b, 0.2));
    }

    #[test]
    #[should_panic(expected = "spread must be in [0,1)")]
    fn jitter_stream_checks_the_spread() {
        jitter_stream(&SeedSource::new(7), "task:Map", "run", -0.1);
    }

    #[test]
    fn zero_spread_is_deterministic_one() {
        let mut rng = stream_rng(9, "jitter");
        assert_eq!(jitter_factor(&mut rng, 0.0), 1.0);
    }
}
