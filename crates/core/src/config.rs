//! Mashup engine configuration: the simulated cloud a run builds, and the
//! per-task serverless memory sizing.

use mashup_analyze::PlanContext;
use mashup_cloud::{Cloud, CloudWorld, ClusterConfig, FaasConfig, InstanceType, ProviderPreset};
use mashup_dag::Workflow;
use mashup_sim::{SeedSource, Simulation};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The serverless memory tiers a per-task sizing may assign (GiB). The
/// paper's single fixed function size (3 GB on AWS) is one point in this
/// menu; the Pareto search (`crate::pareto`) picks a tier per task. Derived
/// tier configs come from [`MashupConfig::faas_tier`].
pub const MEMORY_TIERS_GB: [f64; 5] = [0.5, 1.0, 2.0, 3.0, 8.0];

/// Quantizes a tier size to whole MiB for keying (f64 is not `Ord`, and
/// tiers are coarse enough that MiB granularity is lossless).
pub(crate) fn tier_key(gb: f64) -> u32 {
    (gb * 1024.0).round() as u32
}

/// Everything Mashup needs to know about the target environment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MashupConfig {
    /// Provider constants (FaaS + storage).
    pub provider: ProviderPreset,
    /// VM cluster shape.
    pub cluster: ClusterConfig,
    /// Base seed for all stochastic elements.
    pub seed: u64,
    /// Seconds before the FaaS deadline at which checkpoints are taken
    /// (paper: 30 s). Widened automatically per task when the checkpoint
    /// itself needs longer to write.
    pub checkpoint_margin_secs: f64,
    /// Pre-warm serverless tasks of the next phase while the current phase
    /// runs (§3: "Mashup actively pre-warms the task by prefetching").
    pub prewarm: bool,
    /// Maximum number of microVMs pre-warmed per task.
    pub prewarm_cap: usize,
    /// Conservative cold-start seconds always added to serverless estimates
    /// during PDC decision-making (paper: 2 s).
    pub conservative_cold_start_secs: f64,
    /// Tasks with per-component serverless runtime below this threshold are
    /// placed on the VM cluster unless the recurring-task exception applies
    /// (paper: 1 s).
    pub short_task_threshold_secs: f64,
    /// Chaos schedule + online controller switches. `None` (the default)
    /// is guaranteed zero-impact: no faults, no controller, byte-identical
    /// runs. Excluded from every plan-cache key (keys fingerprint the
    /// cluster/provider sub-configs), and stripped by [`crate::Pdc::new`]
    /// so profiling environments never see faults.
    #[serde(default)]
    pub chaos: Option<crate::chaos::ChaosSpec>,
}

impl MashupConfig {
    /// AWS-like defaults on `nodes` r5.large nodes (the paper's main
    /// configuration).
    pub fn aws(nodes: usize) -> Self {
        MashupConfig {
            provider: ProviderPreset::aws_like(),
            cluster: ClusterConfig::new(InstanceType::r5_large(), nodes),
            seed: 42,
            checkpoint_margin_secs: 30.0,
            prewarm: true,
            prewarm_cap: 256,
            conservative_cold_start_secs: 2.0,
            short_task_threshold_secs: 1.0,
            chaos: None,
        }
    }

    /// Same but on the *cheap* VM family (m5.large).
    pub fn aws_cheap(nodes: usize) -> Self {
        let mut c = Self::aws(nodes);
        c.cluster = ClusterConfig::new(InstanceType::m5_large(), nodes);
        c
    }

    /// Same but on the *expensive* VM family (r5b.large).
    pub fn aws_expensive(nodes: usize) -> Self {
        let mut c = Self::aws(nodes);
        c.cluster = ClusterConfig::new(InstanceType::r5b_large(), nodes);
        c
    }

    /// GCP-like provider on `nodes` default nodes (§5 portability study).
    pub fn gcp(nodes: usize) -> Self {
        let mut c = Self::aws(nodes);
        c.provider = ProviderPreset::gcp_like();
        c
    }

    /// Builder-style: overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style: splits the cluster into `k` sub-clusters.
    pub fn with_subclusters(mut self, k: usize) -> Self {
        self.cluster = self.cluster.with_subclusters(k);
        self
    }

    /// Builder-style: attaches a chaos spec (fault schedule + controller).
    pub fn with_chaos(mut self, chaos: crate::chaos::ChaosSpec) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// What the plan checks and the planners read of this config: the base
    /// function, the WAN bandwidth and the configured checkpoint margin
    /// (widened per task by [`PlanContext::margin_for`]).
    pub fn plan_context(&self) -> PlanContext<'_> {
        PlanContext {
            faas: &self.provider.faas,
            wan_bps: self.cluster.instance.wan_bps,
            checkpoint_margin_secs: self.checkpoint_margin_secs,
        }
    }

    /// The engine, cloud and seed source of a fresh run of world `W`: the
    /// services this config describes, their stochastic streams derived
    /// from its seed. Each run builds its own, so runs never share state.
    pub(crate) fn new_cloud<W: CloudWorld>(&self) -> (Simulation<W>, Cloud<W>, SeedSource) {
        let seeds = SeedSource::new(self.seed);
        let mut sim = Simulation::new();
        let cloud = Cloud::new(
            &mut sim,
            self.cluster.clone(),
            self.provider.faas.clone(),
            self.provider.storage.clone(),
            &seeds,
        );
        (sim, cloud, seeds)
    }

    /// Derives the FaaS configuration for a `gb` memory tier from the
    /// provider's base function size, following the ICPS-style scaling the
    /// major providers use: price per function-hour grows linearly with
    /// memory (AWS Lambda GB-second pricing), while the vCPU share — and so
    /// effective core speed — grows sub-linearly (square root, a diminishing
    /// return that keeps the time/expense trade-off real: bigger functions
    /// are faster per invocation but cost more per unit of work). Network
    /// bandwidth and all start/timeout constants stay at the base values.
    ///
    /// Requesting the base tier returns the base config **unchanged**, so a
    /// sizing that assigns every task the base tier reproduces the unsized
    /// paper configuration bit-for-bit.
    pub fn faas_tier(&self, gb: f64) -> FaasConfig {
        let base = &self.provider.faas;
        if tier_key(gb) == tier_key(base.memory_gb) {
            return base.clone();
        }
        let ratio = gb / base.memory_gb;
        let mut cfg = base.clone();
        cfg.memory_gb = gb;
        cfg.price_per_hour = base.price_per_hour * ratio;
        cfg.core_speed = base.core_speed * ratio.sqrt();
        cfg
    }
}

/// A per-task serverless memory sizing: one tier (GiB) per flat task id of
/// a specific workflow (phase-major order, matching
/// [`TaskArena::flat`](mashup_dag::TaskArena::flat)). The unsized engine
/// behaves exactly like [`Sizing::base`]; the Pareto search explores the
/// rest of the menu.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sizing {
    /// Tier (GiB) per flat task id.
    pub tiers_gb: Vec<f64>,
}

impl Sizing {
    /// Every task at the same tier.
    pub fn uniform(workflow: &Workflow, gb: f64) -> Self {
        Sizing {
            tiers_gb: vec![gb; workflow.task_count()],
        }
    }

    /// Every task at the provider's base function size — semantically the
    /// unsized engine.
    pub fn base(cfg: &MashupConfig, workflow: &Workflow) -> Self {
        Self::uniform(workflow, cfg.provider.faas.memory_gb)
    }

    /// The tier assigned to a flat task id.
    pub fn tier(&self, flat: usize) -> f64 {
        self.tiers_gb[flat]
    }

    /// Whether every task sits at the provider's base function size.
    pub fn is_base(&self, cfg: &MashupConfig) -> bool {
        let base = tier_key(cfg.provider.faas.memory_gb);
        self.tiers_gb.iter().all(|&gb| tier_key(gb) == base)
    }

    /// The distinct tiers present, ascending (deduplicated at MiB
    /// granularity).
    pub fn distinct_tiers(&self) -> Vec<f64> {
        let mut seen: BTreeMap<u32, f64> = BTreeMap::new();
        for &gb in &self.tiers_gb {
            seen.entry(tier_key(gb)).or_insert(gb);
        }
        seen.into_values().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_in_the_right_places() {
        let base = MashupConfig::aws(48);
        let cheap = MashupConfig::aws_cheap(48);
        let exp = MashupConfig::aws_expensive(48);
        let gcp = MashupConfig::gcp(48);
        assert_eq!(base.cluster.instance.name, "r5.large");
        assert_eq!(cheap.cluster.instance.name, "m5.large");
        assert_eq!(exp.cluster.instance.name, "r5b.large");
        assert_eq!(gcp.provider.name, "gcp-like");
        assert_eq!(base.cluster.nodes, 48);
    }

    #[test]
    fn margin_widens_for_large_checkpoints() {
        let cfg = MashupConfig::aws(4);
        assert_eq!(cfg.plan_context().margin_for(0.0), 30.0);
        // 5 GB at 50 MB/s = 100 s -> margin 120 s.
        let m = cfg.plan_context().margin_for(5.0e9);
        assert!((m - 120.0).abs() < 1e-9);
    }

    #[test]
    fn tier_scaling_follows_price_linear_speed_sqrt() {
        let cfg = MashupConfig::aws(4);
        let base = &cfg.provider.faas;
        // The base tier comes back unchanged (same struct, not a rescale
        // that happens to round-trip).
        assert_eq!(cfg.faas_tier(base.memory_gb), *base);
        assert!(MEMORY_TIERS_GB.contains(&base.memory_gb));
        let small = cfg.faas_tier(0.5);
        let big = cfg.faas_tier(8.0);
        assert_eq!(small.memory_gb, 0.5);
        assert!(small.price_per_hour < base.price_per_hour);
        assert!(small.core_speed < base.core_speed);
        assert!(big.price_per_hour > base.price_per_hour);
        assert!(big.core_speed > base.core_speed);
        // Linear price: price/GB constant across tiers.
        let per_gb = base.price_per_hour / base.memory_gb;
        assert!((small.price_per_hour / small.memory_gb - per_gb).abs() < 1e-12);
        assert!((big.price_per_hour / big.memory_gb - per_gb).abs() < 1e-12);
        // Sub-linear speed: $/unit-of-work rises with the tier.
        assert!(big.price_per_hour / big.core_speed > base.price_per_hour / base.core_speed);
        // Non-scaled constants stay put.
        assert_eq!(big.per_function_bps, base.per_function_bps);
        assert_eq!(big.timeout_secs, base.timeout_secs);
    }

    #[test]
    fn config_serde_round_trip() {
        let cfg = MashupConfig::aws(16).with_subclusters(2);
        let json = serde_json::to_string(&cfg).expect("serialize");
        let back: MashupConfig = serde_json::from_str(&json).expect("parse");
        assert_eq!(cfg, back);
    }
}
