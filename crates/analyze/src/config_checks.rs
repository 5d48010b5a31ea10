//! M3xx: environment-configuration checks.

use crate::diag::{Code, Diagnostic, Location};
use mashup_cloud::{ClusterConfig, ProviderPreset};

/// The engine knobs the config checks need (a slice of `MashupConfig`, so
/// `mashup-analyze` does not depend on `mashup-core`).
#[derive(Debug, Clone, PartialEq)]
pub struct EngineParams {
    /// Seconds before the FaaS deadline at which checkpoints are taken.
    pub checkpoint_margin_secs: f64,
    /// Whether next-phase serverless tasks are pre-warmed.
    pub prewarm: bool,
    /// Maximum number of microVMs pre-warmed per task.
    pub prewarm_cap: usize,
}

impl EngineParams {
    /// The engine's paper defaults (mirrors `MashupConfig::aws`), for
    /// callers that analyze provider/cluster configs standalone.
    pub fn defaults() -> Self {
        EngineParams {
            checkpoint_margin_secs: 30.0,
            prewarm: true,
            prewarm_cap: 256,
        }
    }
}

/// The largest `cluster.nodes` the M301 check accepts: 8,192 times the
/// largest cluster any paper figure uses (128). The VM cluster allocates
/// per-node state up front, so a larger count would abort the process on
/// allocation instead of coming back as a diagnostic.
const MAX_CLUSTER_NODES: usize = 1 << 20;

fn config_loc(field: &str) -> Location {
    Location::Config {
        field: field.into(),
    }
}

fn positive(out: &mut Vec<Diagnostic>, field: &str, v: f64) {
    if !v.is_finite() || v <= 0.0 {
        out.push(Diagnostic::new(
            Code::NonPositiveConfig,
            config_loc(field),
            format!("must be positive, got {v}"),
        ));
    }
}

fn nonneg(out: &mut Vec<Diagnostic>, field: &str, v: f64) {
    if !v.is_finite() || v < 0.0 {
        out.push(Diagnostic::new(
            Code::NonPositiveConfig,
            config_loc(field),
            format!("must be finite and >= 0, got {v}"),
        ));
    }
}

fn probability(out: &mut Vec<Diagnostic>, field: &str, v: f64) {
    if !v.is_finite() || !(0.0..=1.0).contains(&v) {
        out.push(Diagnostic::new(
            Code::NonPositiveConfig,
            config_loc(field),
            format!("must be a probability in [0, 1], got {v}"),
        ));
    }
}

/// Runs every M3xx check, collecting all findings.
pub fn analyze_config(
    provider: &ProviderPreset,
    cluster: &ClusterConfig,
    engine: &EngineParams,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    // M301 — cluster shape.
    if cluster.nodes == 0 {
        out.push(Diagnostic::new(
            Code::NonPositiveConfig,
            config_loc("cluster.nodes"),
            "must be positive, got 0",
        ));
    } else if cluster.nodes > MAX_CLUSTER_NODES {
        out.push(Diagnostic::new(
            Code::NonPositiveConfig,
            config_loc("cluster.nodes"),
            format!("must be at most {MAX_CLUSTER_NODES}, got {}", cluster.nodes),
        ));
    }
    if cluster.subclusters == 0 {
        out.push(Diagnostic::new(
            Code::NonPositiveConfig,
            config_loc("cluster.subclusters"),
            "must be positive, got 0",
        ));
    } else if cluster.subclusters > cluster.nodes {
        out.push(Diagnostic::new(
            Code::NonPositiveConfig,
            config_loc("cluster.subclusters"),
            format!(
                "{} sub-clusters exceed the {} nodes",
                cluster.subclusters, cluster.nodes
            ),
        ));
    }
    if cluster.instance.cores == 0 {
        out.push(Diagnostic::new(
            Code::NonPositiveConfig,
            config_loc("cluster.instance.cores"),
            "must be positive, got 0",
        ));
    }
    nonneg(&mut out, "cluster.provision_secs", cluster.provision_secs);
    let inst = &cluster.instance;
    positive(
        &mut out,
        "cluster.instance.price_per_hour",
        inst.price_per_hour,
    );
    positive(&mut out, "cluster.instance.memory_gb", inst.memory_gb);
    positive(&mut out, "cluster.instance.core_speed", inst.core_speed);
    positive(&mut out, "cluster.instance.node_nic_bps", inst.node_nic_bps);
    positive(
        &mut out,
        "cluster.instance.master_nic_bps",
        inst.master_nic_bps,
    );
    positive(&mut out, "cluster.instance.wan_bps", inst.wan_bps);

    // M301 — serverless platform.
    let faas = &provider.faas;
    positive(&mut out, "faas.memory_gb", faas.memory_gb);
    positive(&mut out, "faas.price_per_hour", faas.price_per_hour);
    positive(&mut out, "faas.timeout_secs", faas.timeout_secs);
    positive(&mut out, "faas.per_function_bps", faas.per_function_bps);
    positive(&mut out, "faas.core_speed", faas.core_speed);
    nonneg(&mut out, "faas.warm_start_secs", faas.warm_start_secs);
    nonneg(&mut out, "faas.keep_alive_secs", faas.keep_alive_secs);
    nonneg(&mut out, "faas.cold_start_secs.0", faas.cold_start_secs.0);
    nonneg(&mut out, "faas.cold_start_secs.1", faas.cold_start_secs.1);
    if faas.cold_start_secs.0 > faas.cold_start_secs.1 {
        out.push(Diagnostic::new(
            Code::NonPositiveConfig,
            config_loc("faas.cold_start_secs"),
            format!(
                "range minimum {} exceeds maximum {}",
                faas.cold_start_secs.0, faas.cold_start_secs.1
            ),
        ));
    }
    probability(&mut out, "faas.failure_prob", faas.failure_prob);

    // M301 — object store.
    let storage = &provider.storage;
    positive(&mut out, "storage.aggregate_bps", storage.aggregate_bps);
    nonneg(
        &mut out,
        "storage.request_latency_secs",
        storage.request_latency_secs,
    );
    nonneg(
        &mut out,
        "storage.price_per_gb_month",
        storage.price_per_gb_month,
    );
    nonneg(&mut out, "storage.price_per_put", storage.price_per_put);
    nonneg(&mut out, "storage.price_per_get", storage.price_per_get);
    probability(
        &mut out,
        "storage.get_failure_prob",
        storage.get_failure_prob,
    );
    if storage.replicas == 0 {
        out.push(Diagnostic::new(
            Code::NonPositiveConfig,
            config_loc("storage.replicas"),
            "must be positive, got 0",
        ));
    }

    // M302 — checkpoint margin vs FaaS timeout.
    if !engine.checkpoint_margin_secs.is_finite() || engine.checkpoint_margin_secs < 0.0 {
        out.push(Diagnostic::new(
            Code::MarginExceedsTimeout,
            config_loc("checkpoint_margin_secs"),
            format!(
                "must be finite and >= 0, got {}",
                engine.checkpoint_margin_secs
            ),
        ));
    } else if faas.timeout_secs > 0.0 && engine.checkpoint_margin_secs >= faas.timeout_secs {
        out.push(
            Diagnostic::new(
                Code::MarginExceedsTimeout,
                config_loc("checkpoint_margin_secs"),
                format!(
                    "margin {}s leaves no execution window within the {}s FaaS timeout",
                    engine.checkpoint_margin_secs, faas.timeout_secs
                ),
            )
            .with_help("the margin must be strictly below faas.timeout_secs"),
        );
    }

    // M303 — concurrency vs the burst + linear-ramp scaling model.
    let dead_ramp = faas.ramp_per_sec <= 0.0 || !faas.ramp_per_sec.is_finite();
    if faas.burst_capacity == 0 && dead_ramp {
        out.push(
            Diagnostic::new(
                Code::RampConcurrency,
                config_loc("faas.burst_capacity"),
                format!(
                    "no function can ever start (burst 0, ramp {}/s)",
                    faas.ramp_per_sec
                ),
            )
            .with_help("set burst_capacity or ramp_per_sec to a positive value"),
        );
    } else if engine.prewarm && engine.prewarm_cap > faas.burst_capacity {
        let beyond_burst = (engine.prewarm_cap - faas.burst_capacity) as f64;
        if dead_ramp {
            out.push(Diagnostic::warning(
                Code::RampConcurrency,
                config_loc("prewarm_cap"),
                format!(
                    "prewarm cap {} exceeds burst capacity {} and the ramp is {}/s; \
                     concurrency beyond the burst is unreachable",
                    engine.prewarm_cap, faas.burst_capacity, faas.ramp_per_sec
                ),
            ));
        } else if beyond_burst / faas.ramp_per_sec > faas.keep_alive_secs {
            out.push(
                Diagnostic::warning(
                    Code::RampConcurrency,
                    config_loc("prewarm_cap"),
                    format!(
                        "ramping {beyond_burst:.0} starts at {}/s takes {:.0}s, beyond the \
                         {:.0}s keep-alive — prewarmed microVMs expire before they are used",
                        faas.ramp_per_sec,
                        beyond_burst / faas.ramp_per_sec,
                        faas.keep_alive_secs
                    ),
                )
                .with_help("lower prewarm_cap or raise ramp_per_sec/keep_alive_secs"),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;
    use mashup_cloud::InstanceType;

    fn aws() -> (ProviderPreset, ClusterConfig) {
        (
            ProviderPreset::aws_like(),
            ClusterConfig::new(InstanceType::r5_large(), 8),
        )
    }

    #[test]
    fn paper_presets_are_silent() {
        let (p, c) = aws();
        assert!(analyze_config(&p, &c, &EngineParams::defaults()).is_empty());
        let gcp = ProviderPreset::gcp_like();
        assert!(analyze_config(&gcp, &c, &EngineParams::defaults()).is_empty());
    }

    #[test]
    fn oversized_clusters_fire_m301() {
        let (p, mut c) = aws();
        let engine = EngineParams::defaults();
        c.nodes = MAX_CLUSTER_NODES;
        assert!(analyze_config(&p, &c, &engine).is_empty());
        for nodes in [MAX_CLUSTER_NODES + 1, 1 << 32, usize::MAX] {
            c.nodes = nodes;
            let diags = analyze_config(&p, &c, &engine);
            assert_eq!(diags.len(), 1, "{diags:?}");
            assert_eq!(diags[0].code, Code::NonPositiveConfig);
            assert_eq!(
                diags[0].location,
                Location::Config {
                    field: "cluster.nodes".into()
                }
            );
            assert!(diags[0].message.contains("at most 1048576"), "{diags:?}");
        }
    }

    #[test]
    fn non_positive_knobs_fire_m301() {
        let (mut p, mut c) = aws();
        c.nodes = 0;
        p.faas.timeout_secs = 0.0;
        p.storage.aggregate_bps = f64::NAN;
        p.faas.failure_prob = 1.5;
        let diags = analyze_config(&p, &c, &EngineParams::defaults());
        let fields: Vec<&str> = diags
            .iter()
            .filter(|d| d.code == Code::NonPositiveConfig)
            .map(|d| match &d.location {
                Location::Config { field } => field.as_str(),
                _ => "?",
            })
            .collect();
        assert!(fields.contains(&"cluster.nodes"));
        assert!(fields.contains(&"faas.timeout_secs"));
        assert!(fields.contains(&"storage.aggregate_bps"));
        assert!(fields.contains(&"faas.failure_prob"));
        // subclusters (1) > nodes (0) also fires.
        assert!(fields.contains(&"cluster.subclusters"));
    }

    #[test]
    fn margin_at_or_above_timeout_fires_m302() {
        let (p, c) = aws();
        let mut e = EngineParams::defaults();
        e.checkpoint_margin_secs = 900.0;
        let diags = analyze_config(&p, &c, &e);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::MarginExceedsTimeout);
        assert_eq!(diags[0].severity, Severity::Error);
        e.checkpoint_margin_secs = -1.0;
        let diags = analyze_config(&p, &c, &e);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::MarginExceedsTimeout);
    }

    #[test]
    fn ramp_concurrency_error_and_warning_forms() {
        // Error: nothing can ever start.
        let (mut p, c) = aws();
        p.faas.burst_capacity = 0;
        p.faas.ramp_per_sec = 0.0;
        let diags = analyze_config(&p, &c, &EngineParams::defaults());
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::RampConcurrency);
        assert_eq!(diags[0].severity, Severity::Error);
        // Warning: the prewarm pool outlives the keep-alive under the ramp.
        let (mut p, c) = aws();
        p.faas.ramp_per_sec = 0.1; // (256 - 64) / 0.1 = 1920 s > 420 s
        let diags = analyze_config(&p, &c, &EngineParams::defaults());
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::RampConcurrency);
        assert_eq!(diags[0].severity, Severity::Warning);
        // Prewarm off: the warning form is moot.
        let mut e = EngineParams::defaults();
        e.prewarm = false;
        assert!(analyze_config(&p, &c, &e).is_empty());
    }
}
