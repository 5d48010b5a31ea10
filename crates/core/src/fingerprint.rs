//! Stable 128-bit content fingerprints for planning-cache keys.
//!
//! The planning cache (see [`crate::cache`]) memoizes simulated profiling
//! work across sweep cells, so its keys must capture *exactly* the inputs
//! that determine a profiling result: the workflow structure, the task
//! profiles, and the planning-relevant slices of the configuration. Keys
//! are split per profiling stage — the VM pass is keyed only by
//! cluster-affecting knobs, serverless probes only by FaaS/storage
//! behaviour, calibration by its own inputs — so a pricing-only or
//! objective-only sweep reuses 100 % of the simulated profiling and a
//! node-count sweep still reuses every probe.
//!
//! The hash is a hand-rolled two-lane FNV-1a variant with cross-lane
//! mixing: deterministic across runs and platforms (no `RandomState`),
//! with 128 bits so accidental collisions are out of the picture for the
//! cache sizes involved (thousands of entries). Floats are hashed by their
//! IEEE-754 bit patterns, so keys distinguish exactly the values the
//! simulation distinguishes.

use mashup_cloud::{ClusterConfig, FaasConfig, StorageConfig};
use mashup_dag::{Task, TaskProfile, Workflow};

const SEED_LO: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a offset basis
const SEED_HI: u64 = 0x6c62_272e_07bb_0142; // FNV-1a 128-bit basis half
const PRIME: u64 = 0x0000_0100_0000_01b3; // FNV-1a 64-bit prime

/// Incremental 128-bit hasher. Write every field that influences the keyed
/// computation; finish with [`digest`](Fingerprinter::digest).
#[derive(Debug, Clone)]
pub struct Fingerprinter {
    lo: u64,
    hi: u64,
}

impl Fingerprinter {
    /// A fresh hasher, domain-separated by `tag` so different key kinds
    /// never collide even over identical field sequences.
    pub fn new(tag: &str) -> Self {
        let mut f = Fingerprinter {
            lo: SEED_LO,
            hi: SEED_HI,
        };
        f.write_str(tag);
        f
    }

    /// Hashes one byte into both lanes (lanes use different rotations, and
    /// each absorbs the other every step, so the pair acts as one wide
    /// state rather than two independent 64-bit hashes).
    fn write_byte(&mut self, b: u8) {
        self.lo = (self.lo ^ b as u64).wrapping_mul(PRIME);
        self.hi = (self.hi ^ (b as u64).rotate_left(17)).wrapping_mul(PRIME);
        self.hi ^= self.lo.rotate_left(29);
    }

    /// Hashes a byte slice.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_byte(b);
        }
    }

    /// Hashes a length-prefixed string (prefix prevents concatenation
    /// ambiguity between adjacent strings).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// Hashes a `u64`.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Hashes a `usize` (widened, so 32- and 64-bit hosts agree).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Hashes an `f64` by bit pattern (distinguishes `-0.0` from `0.0` and
    /// every NaN payload — exactly the distinctions `f64` arithmetic can
    /// observe or the config can carry).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Hashes a `bool`.
    pub fn write_bool(&mut self, v: bool) {
        self.write_byte(v as u8);
    }

    /// Final 128-bit digest.
    pub fn digest(mut self) -> u128 {
        // Finalization rounds diffuse the last written bytes.
        for _ in 0..4 {
            self.write_byte(0xa5);
        }
        ((self.hi as u128) << 64) | self.lo as u128
    }
}

/// Types that can contribute their planning-relevant content to a key.
pub trait Fingerprint {
    /// Writes every field that can change a planning result into `f`.
    fn fingerprint(&self, f: &mut Fingerprinter);

    /// Convenience: a standalone digest under a domain tag.
    fn fingerprint_digest(&self, tag: &str) -> u128 {
        let mut f = Fingerprinter::new(tag);
        self.fingerprint(&mut f);
        f.digest()
    }
}

impl Fingerprint for TaskProfile {
    fn fingerprint(&self, f: &mut Fingerprinter) {
        f.write_f64(self.compute_secs_vm);
        f.write_f64(self.serverless_slowdown);
        f.write_f64(self.input_bytes);
        f.write_f64(self.output_bytes);
        f.write_f64(self.memory_gb);
        f.write_f64(self.vm_local_contention);
        f.write_f64(self.runtime_jitter);
        f.write_bool(self.recurring);
        f.write_f64(self.checkpoint_bytes);
        match &self.code_family {
            None => f.write_bool(false),
            Some(fam) => {
                f.write_bool(true);
                f.write_str(fam);
            }
        }
    }
}

impl Fingerprint for Task {
    fn fingerprint(&self, f: &mut Fingerprinter) {
        f.write_str(&self.name);
        f.write_usize(self.components);
        self.profile.fingerprint(f);
        f.write_usize(self.deps.len());
        for d in &self.deps {
            f.write_usize(d.producer.phase);
            f.write_usize(d.producer.task);
            f.write_str(d.pattern.name());
        }
    }
}

impl Fingerprint for Workflow {
    fn fingerprint(&self, f: &mut Fingerprinter) {
        f.write_str(&self.name);
        f.write_f64(self.initial_input_bytes);
        f.write_usize(self.phases.len());
        for p in &self.phases {
            f.write_usize(p.tasks.len());
            for t in &p.tasks {
                t.fingerprint(f);
            }
        }
    }
}

impl Fingerprint for ClusterConfig {
    fn fingerprint(&self, f: &mut Fingerprinter) {
        let i = &self.instance;
        f.write_str(&i.name);
        f.write_f64(i.price_per_hour); // VM-pass expense is priced at charge time
        f.write_usize(i.cores);
        f.write_f64(i.memory_gb);
        f.write_f64(i.core_speed);
        f.write_f64(i.node_nic_bps);
        f.write_f64(i.master_nic_bps);
        f.write_f64(i.wan_bps);
        f.write_usize(self.nodes);
        f.write_f64(self.provision_secs);
        // `subclusters` is deliberately omitted: the VM profiling pass
        // overrides it with each candidate split, so the configured value
        // never reaches the simulation.
    }
}

impl Fingerprint for FaasConfig {
    /// Behavioural fields only: `price_per_hour` is excluded because probe
    /// and calibration runs never read their own expense (the busy-seconds
    /// they report are quantities), so a FaaS-pricing sweep can reuse them.
    fn fingerprint(&self, f: &mut Fingerprinter) {
        f.write_f64(self.memory_gb);
        f.write_f64(self.timeout_secs);
        f.write_f64(self.cold_start_secs.0);
        f.write_f64(self.cold_start_secs.1);
        f.write_f64(self.warm_start_secs);
        f.write_f64(self.keep_alive_secs);
        f.write_usize(self.burst_capacity);
        f.write_f64(self.ramp_per_sec);
        f.write_f64(self.per_function_bps);
        f.write_f64(self.core_speed);
        f.write_f64(self.failure_prob);
    }
}

impl Fingerprint for StorageConfig {
    /// Behavioural fields only; the three price knobs are excluded for the
    /// same reason as [`FaasConfig`]'s.
    fn fingerprint(&self, f: &mut Fingerprinter) {
        f.write_f64(self.aggregate_bps);
        f.write_f64(self.request_latency_secs);
        f.write_usize(self.replicas);
        f.write_f64(self.get_failure_prob);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MashupConfig;
    use mashup_dag::{Task, TaskProfile, WorkflowBuilder};

    fn wf(name: &str, compute: f64) -> Workflow {
        let mut b = WorkflowBuilder::new(name);
        b.begin_phase();
        b.add_task(Task::new("t", 4, TaskProfile::trivial().compute(compute)));
        b.build()
    }

    #[test]
    fn digests_are_deterministic_and_tag_separated() {
        let w = wf("w", 1.0);
        assert_eq!(w.fingerprint_digest("a"), w.fingerprint_digest("a"));
        assert_ne!(w.fingerprint_digest("a"), w.fingerprint_digest("b"));
    }

    #[test]
    fn every_profile_field_perturbs_the_digest() {
        let base = TaskProfile::trivial();
        let variants = [
            base.clone().compute(2.0),
            base.clone().slowdown(1.1),
            base.clone().io(1.0, 0.0),
            base.clone().io(0.0, 1.0),
            base.clone().memory(1.0),
            base.clone().contention(0.5),
            base.clone().jitter(0.1),
            base.clone().recurring(true),
            base.clone().checkpoint(1.0),
            base.clone().family("fam"),
        ];
        let d0 = base.fingerprint_digest("p");
        let mut seen = vec![d0];
        for v in &variants {
            let d = v.fingerprint_digest("p");
            assert!(!seen.contains(&d), "collision for {v:?}");
            seen.push(d);
        }
    }

    #[test]
    fn workflow_structure_is_captured() {
        assert_ne!(
            wf("w", 1.0).fingerprint_digest("w"),
            wf("w", 2.0).fingerprint_digest("w")
        );
        assert_ne!(
            wf("a", 1.0).fingerprint_digest("w"),
            wf("b", 1.0).fingerprint_digest("w")
        );
    }

    #[test]
    fn faas_price_is_excluded_but_behaviour_included() {
        let cfg = MashupConfig::aws(4);
        let mut priced = cfg.provider.faas.clone();
        priced.price_per_hour *= 10.0;
        assert_eq!(
            cfg.provider.faas.fingerprint_digest("f"),
            priced.fingerprint_digest("f")
        );
        let mut slower = cfg.provider.faas.clone();
        slower.core_speed *= 0.5;
        assert_ne!(
            cfg.provider.faas.fingerprint_digest("f"),
            slower.fingerprint_digest("f")
        );
    }

    #[test]
    fn cluster_price_is_included() {
        let cfg = MashupConfig::aws(4);
        let mut priced = cfg.cluster.clone();
        priced.instance.price_per_hour *= 10.0;
        assert_ne!(
            cfg.cluster.fingerprint_digest("c"),
            priced.fingerprint_digest("c")
        );
        // But the sub-cluster split is overridden by the profiling loop.
        let split = cfg.cluster.clone().with_subclusters(4);
        assert_eq!(
            cfg.cluster.fingerprint_digest("c"),
            split.fingerprint_digest("c")
        );
    }
}
