//! # mashup-analyze
//!
//! Static diagnostics for Mashup inputs, run *before* any simulation time or
//! money is spent. Three check families, each with stable codes:
//!
//! * [`analyze_workflow`] — `M1xx`: structure (empty phases, cycles via
//!   non-earlier-phase deps, dangling references, orphan tasks, zero
//!   components, duplicate names), profile sanity (negative/NaN fields),
//!   pattern/component-count compatibility, and missing consumer data;
//! * [`analyze_plan`] — `M2xx`: unassigned tasks, FaaS placements that
//!   cannot fit the timeout window even with checkpoint chaining, serverless
//!   memory above the function cap, and excessive hybrid-boundary staging;
//! * [`analyze_config`] — `M3xx`: non-positive prices/caps/bandwidths,
//!   checkpoint margins that swallow the FaaS window, and concurrency
//!   demands beyond the burst + linear-ramp scaling model.
//!
//! Every check **collects** findings rather than bailing at the first one,
//! and every error-level condition mirrors (never exceeds) an assertion the
//! executor would otherwise hit mid-simulation. The engine wires these in
//! through `mashup_core::CheckedWorkflow`, refusing error-diagnosed inputs
//! with a typed [`AnalysisError`], and its planners place a task serverless
//! only when [`PlanContext::misfits`] finds nothing. Analysis is read-only
//! over its inputs — it draws no randomness and mutates nothing, so
//! enabling it cannot perturb simulated results.

#![warn(missing_docs)]

mod config_checks;
mod diag;
mod plan_checks;
mod render;
mod workflow_checks;

pub use config_checks::{analyze_config, EngineParams};
pub use diag::{has_errors, into_result, AnalysisError, Code, Diagnostic, Location, Severity};
pub use plan_checks::{analyze_plan, analyze_plan_by_task, FaasMisfit, PlanContext};
pub use render::{render_json, render_pretty};
pub use workflow_checks::analyze_workflow;

#[cfg(test)]
mod tests {
    use super::*;
    use mashup_cloud::{ClusterConfig, FaasConfig, InstanceType, ProviderPreset};
    use mashup_dag::{PlacementPlan, Platform};

    /// The paper's three workflows pass all three check families clean
    /// under the default environment.
    #[test]
    fn paper_inputs_are_clean() {
        let provider = ProviderPreset::aws_like();
        let cluster = ClusterConfig::new(InstanceType::r5_large(), 48);
        assert!(analyze_config(&provider, &cluster, &EngineParams::defaults()).is_empty());
        let ctx = PlanContext {
            faas: &provider.faas,
            wan_bps: cluster.instance.wan_bps,
            checkpoint_margin_secs: 30.0,
        };
        for w in mashup_workflows::paper_workflows() {
            assert!(analyze_workflow(&w).is_empty(), "{}", w.name);
            let plan = PlacementPlan::uniform(&w, Platform::VmCluster);
            assert!(analyze_plan(&w, &plan, &ctx).is_empty(), "{}", w.name);
        }
    }

    #[test]
    fn faas_config_silent_on_gcp_numbers() {
        // The GCP preset's prewarm ramp: (256 - 40) / 3 = 72 s < 600 s
        // keep-alive — silent, matching the §5 portability runs.
        let faas = FaasConfig::gcp_like();
        assert!((256.0 - faas.burst_capacity as f64) / faas.ramp_per_sec < faas.keep_alive_secs);
    }
}
