//! The content-addressed planning cache.
//!
//! `Pdc::decide` does three kinds of simulated profiling work per call —
//! calibration micro-batches, full VM profiling passes (the k ∈ {1,2,4}
//! sub-cluster search), and one single-component serverless probe per task;
//! `Pdc::replan` adds scoped phase profiles.
//! Across a figure sweep, neighbouring cells differ in a knob (node count,
//! pricing, objective, input scale) that leaves most of that work
//! identical. [`PlanCache`] memoizes each stage under a content fingerprint
//! of exactly the inputs that determine it (see [`crate::fingerprint`]):
//!
//! * **calibration** — seed + FaaS/storage behaviour + checkpoint margin;
//! * **VM profiling** — workflow + cluster shape (incl. instance price:
//!   VM expense is accrued at charge time) + seed: the split search's
//!   executor passes over every phase;
//! * **probes** — seed + task phase/name/profile + FaaS/storage behaviour +
//!   checkpoint margin — *not* the cluster, so node-count sweeps reuse all
//!   probes, and *not* prices, so pricing sweeps reuse everything;
//! * **phase profiles** — seed + cluster shape + the phase's content
//!   digest: the same split search over one phase, run alone (incremental
//!   replans), so identical phases share an entry wherever they sit.
//!
//! Every planner memoizes through one: `Pdc::new` and `Mashup::new` make a
//! cache of their own, `with_cache` shares one. Memoization is pure: the
//! same key always maps to the same stored value (the profiling
//! simulations are seed-deterministic), values are cloned out, and every
//! decision step downstream of the cached stages is recomputed per call —
//! so reports are bit-identical whether a cache is private, cold, warm, or
//! shared between any number of sweep workers. Nor does the flight
//! recorder see the cache: traces record the run, not which stages were
//! reused, so they are as reproducible as the reports.
//!
//! The cache is sharded (`RwLock` per shard, keyed by the low fingerprint
//! bits) and shared across threads behind an `Arc`; hit/miss/entry counts
//! and per-stage compute time are tracked for the `figures` summary line.
//! Each key is computed once, however many workers miss it at once: the
//! first inserts the key's entry and computes it, the others wait for that
//! value, so the counters do not depend on the worker count either.

use crate::pdc::ModelFactors;
use mashup_cloud::Expense;
use serde::{Deserialize, Serialize};
#[expect(
    clippy::disallowed_types,
    reason = "shard maps are keyed by content fingerprints and never order-iterated"
)]
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
#[expect(
    clippy::disallowed_types,
    reason = "the host clock feeds the hit/miss counters only; no simulated quantity reads it"
)]
use std::time::Instant;

const SHARDS: usize = 16;

/// The memoized result of a cluster-side profile: the k ∈ {1,2,4}
/// sub-cluster splits over a range of phases, reduced. The VM profiling
/// stage covers every phase; a scoped phase profile (the incremental-replan
/// analogue) covers one, its tasks started together at t = 0.
#[derive(Debug, Clone, PartialEq)]
pub struct VmProfileEntry {
    /// Each task's best cluster-side makespan across the splits, indexed by
    /// flat task id from the range's first task (phase-major order,
    /// matching `Workflow::task_refs`; a phase's position for a scoped
    /// profile).
    pub best_task_vm: Vec<f64>,
    /// The winning sub-cluster split.
    pub subclusters: usize,
    /// Makespan of the winning profiling pass, seconds.
    pub vm_makespan_secs: f64,
    /// Total expense of all profiling passes.
    pub expense: Expense,
}

/// The memoized result of one single-component serverless probe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeEntry {
    /// Probe wall time, seconds.
    pub probe_secs: f64,
    /// Busy function-seconds of the probe environment.
    pub probe_busy_secs: f64,
}

/// One stage's value for one key: set once, by the first lookup that
/// missed it, while later lookups of the key wait on it.
type Entry<V> = Arc<OnceLock<V>>;

/// One shard of a stage's map.
#[expect(
    clippy::disallowed_types,
    reason = "keyed by fingerprint, never iterated"
)]
type Shard<V> = RwLock<HashMap<u128, Entry<V>>>;

/// One stage's map plus its counters.
struct Section<V> {
    /// Allocated on the first lookup: every planner starts with a private
    /// cache, which costs nothing when a shared one replaces it.
    shards: OnceLock<Vec<Shard<V>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    compute_nanos: AtomicU64,
}

impl<V: Clone> Section<V> {
    fn new() -> Self {
        Section {
            shards: OnceLock::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            compute_nanos: AtomicU64::new(0),
        }
    }

    #[expect(
        clippy::disallowed_types,
        reason = "keyed by fingerprint, never iterated"
    )]
    fn shard(&self, key: u128) -> &Shard<V> {
        let shards = self
            .shards
            .get_or_init(|| (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect());
        &shards[key as usize % SHARDS]
    }

    /// Returns the cached value for `key`, computing it on a miss. The
    /// key's entry is inserted under the shard's write lock, and the
    /// computation (a whole simulation) runs outside it, through the entry:
    /// a concurrent lookup of the same key waits for that one value instead
    /// of simulating again, and counts as a hit.
    fn get_or_compute(&self, key: u128, compute: impl FnOnce() -> V) -> V {
        let shard = self.shard(key);
        let read = shard.read().expect("cache shard lock");
        if let Some(v) = read.get(&key).and_then(|entry| entry.get()) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return v.clone();
        }
        drop(read);
        let entry = Arc::clone(
            shard
                .write()
                .expect("cache shard lock")
                .entry(key)
                .or_default(),
        );
        let mut computed = false;
        let v = entry
            .get_or_init(|| {
                computed = true;
                #[expect(
                    clippy::disallowed_types,
                    reason = "times the compute for the counters only"
                )]
                let start = Instant::now();
                let v = compute();
                self.compute_nanos
                    .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
                v
            })
            .clone();
        let counter = if computed { &self.misses } else { &self.hits };
        counter.fetch_add(1, Ordering::Relaxed);
        v
    }

    fn stats(&self) -> SectionStats {
        SectionStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.shards.get().map_or(0, |shards| {
                shards
                    .iter()
                    .map(|s| s.read().expect("cache shard lock").len() as u64)
                    .sum()
            }),
            compute_secs: self.compute_nanos.load(Ordering::Relaxed) as f64 * 1e-9,
        }
    }
}

/// Hit/miss/entry counters and miss-side compute time for one stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SectionStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to run the profiling simulation.
    pub misses: u64,
    /// Distinct keys currently stored.
    pub entries: u64,
    /// Wall time spent computing misses, seconds (summed across workers).
    pub compute_secs: f64,
}

impl SectionStats {
    /// Hit fraction in percent (0 when the stage was never queried).
    pub fn hit_pct(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 * 100.0 / total as f64
        }
    }
}

/// A point-in-time snapshot of all stages.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Calibration micro-batch stage.
    pub calibration: SectionStats,
    /// VM profiling-pass stage.
    pub vm_profile: SectionStats,
    /// Per-task serverless probe stage.
    pub probes: SectionStats,
    /// Scoped per-phase profiling stage (incremental replan).
    #[serde(default)]
    pub phase_profiles: SectionStats,
}

impl CacheStats {
    /// Total hits across stages.
    pub fn hits(&self) -> u64 {
        self.calibration.hits + self.vm_profile.hits + self.probes.hits + self.phase_profiles.hits
    }

    /// Total misses across stages.
    pub fn misses(&self) -> u64 {
        self.calibration.misses
            + self.vm_profile.misses
            + self.probes.misses
            + self.phase_profiles.misses
    }

    /// Total stored entries across stages.
    pub fn entries(&self) -> u64 {
        self.calibration.entries
            + self.vm_profile.entries
            + self.probes.entries
            + self.phase_profiles.entries
    }

    /// Total miss-side compute seconds across stages.
    pub fn compute_secs(&self) -> f64 {
        self.calibration.compute_secs
            + self.vm_profile.compute_secs
            + self.probes.compute_secs
            + self.phase_profiles.compute_secs
    }

    /// Hit fraction across stages in percent (0 when no stage was queried).
    pub fn hit_pct(&self) -> f64 {
        let total = SectionStats {
            hits: self.hits(),
            misses: self.misses(),
            ..SectionStats::default()
        };
        total.hit_pct()
    }
}

/// The one-line summary the binaries print after `[plan-cache]`: each
/// stage's hits and misses, the stored entries and the overall hit rate.
impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stages = [
            ("calibration", &self.calibration),
            ("vm-profile", &self.vm_profile),
            ("probes", &self.probes),
            ("phase-profiles", &self.phase_profiles),
        ];
        for (name, s) in stages {
            write!(f, "{name} {}h/{}m  ", s.hits, s.misses)?;
        }
        let (entries, pct) = (self.entries(), self.hit_pct());
        write!(f, "({entries} entries, {pct:.1}% hits overall)")
    }
}

/// The concurrent planning cache. Share one instance (behind an `Arc`)
/// across all sweep workers; see the module docs for the key scheme.
pub struct PlanCache {
    calibration: Section<ModelFactors>,
    vm_profile: Section<VmProfileEntry>,
    probes: Section<ProbeEntry>,
    phase_profiles: Section<VmProfileEntry>,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        PlanCache {
            calibration: Section::new(),
            vm_profile: Section::new(),
            probes: Section::new(),
            phase_profiles: Section::new(),
        }
    }

    /// Calibration factors for `key`, computing on a miss.
    pub fn calibration(&self, key: u128, compute: impl FnOnce() -> ModelFactors) -> ModelFactors {
        self.calibration.get_or_compute(key, compute)
    }

    /// VM profiling result for `key`, computing on a miss.
    pub fn vm_profile(
        &self,
        key: u128,
        compute: impl FnOnce() -> VmProfileEntry,
    ) -> VmProfileEntry {
        self.vm_profile.get_or_compute(key, compute)
    }

    /// Probe result for `key`, computing on a miss.
    pub fn probe(&self, key: u128, compute: impl FnOnce() -> ProbeEntry) -> ProbeEntry {
        self.probes.get_or_compute(key, compute)
    }

    /// Scoped phase-profiling result for `key`, computing on a miss.
    pub fn phase_profile(
        &self,
        key: u128,
        compute: impl FnOnce() -> VmProfileEntry,
    ) -> VmProfileEntry {
        self.phase_profiles.get_or_compute(key, compute)
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            calibration: self.calibration.stats(),
            vm_profile: self.vm_profile.stats(),
            probes: self.probes.stats(),
            phase_profiles: self.phase_profiles.stats(),
        }
    }
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn factors(alpha: f64) -> ModelFactors {
        ModelFactors {
            alpha,
            beta: 1.0,
            gamma: 1.0,
            store_bps: 1e9,
            burst: 64,
        }
    }

    #[test]
    fn hit_returns_stored_value_without_recompute() {
        let cache = PlanCache::new();
        let a = cache.calibration(7, || factors(1.0));
        let b = cache.calibration(7, || panic!("must not recompute on a hit"));
        assert_eq!(a, b);
        let s = cache.stats();
        assert_eq!(s.calibration.hits, 1);
        assert_eq!(s.calibration.misses, 1);
        assert_eq!(s.calibration.entries, 1);
    }

    #[test]
    fn distinct_keys_store_distinct_entries() {
        let cache = PlanCache::new();
        for k in 0..100u128 {
            cache.probe(k, || ProbeEntry {
                probe_secs: k as f64,
                probe_busy_secs: 0.0,
            });
        }
        assert_eq!(cache.stats().probes.entries, 100);
        assert_eq!(cache.probe(42, || unreachable!()).probe_secs, 42.0);
    }

    #[test]
    fn cache_is_shared_across_threads() {
        let cache = std::sync::Arc::new(PlanCache::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = cache.clone();
                s.spawn(move || {
                    for k in 0..50u128 {
                        c.probe(k, || ProbeEntry {
                            probe_secs: (k * 2) as f64,
                            probe_busy_secs: 1.0,
                        });
                    }
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.probes.entries, 50);
        assert_eq!(s.probes.hits + s.probes.misses, 200);
        for k in 0..50u128 {
            assert_eq!(cache.probe(k, || unreachable!()).probe_secs, (k * 2) as f64);
        }
    }

    #[test]
    fn concurrent_misses_of_one_key_compute_it_once() {
        const THREADS: usize = 4;
        let cache = PlanCache::new();
        let computes = AtomicU64::new(0);
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    start.wait();
                    cache.calibration(9, || {
                        computes.fetch_add(1, Ordering::Relaxed);
                        // Long enough that every other thread misses the
                        // key while this one still computes it.
                        std::thread::sleep(std::time::Duration::from_millis(50));
                        factors(0.5)
                    })
                });
            }
        });
        assert_eq!(computes.load(Ordering::Relaxed), 1);
        let s = cache.stats().calibration;
        assert_eq!((s.misses, s.hits, s.entries), (1, THREADS as u64 - 1, 1));
    }

    #[test]
    fn stats_percentages_and_totals() {
        let cache = PlanCache::new();
        cache.calibration(1, || factors(0.1));
        cache.calibration(1, || factors(0.1));
        cache.calibration(1, || factors(0.1));
        let s = cache.stats();
        assert!((s.calibration.hit_pct() - 200.0 / 3.0).abs() < 1e-9);
        assert_eq!(s.hits(), 2);
        assert_eq!(s.misses(), 1);
        assert_eq!(s.entries(), 1);
        assert_eq!(SectionStats::default().hit_pct(), 0.0);
        // Overall, one probe miss joins the calibration's 2 hits / 1 miss.
        cache.probe(7, || ProbeEntry {
            probe_secs: 1.0,
            probe_busy_secs: 1.0,
        });
        let s = cache.stats();
        assert!((s.hit_pct() - 50.0).abs() < 1e-9);
        assert_eq!(CacheStats::default().hit_pct(), 0.0);
        assert_eq!(
            s.to_string(),
            "calibration 2h/1m  vm-profile 0h/0m  probes 0h/1m  phase-profiles 0h/0m  \
             (2 entries, 50.0% hits overall)"
        );
    }
}
