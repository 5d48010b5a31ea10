//! # mashup-baselines
//!
//! The competing techniques of the paper's §4, implemented on the same
//! simulated substrates as Mashup, and the one registry that runs them all:
//! [`Strategy`]. Its [`Strategy::run`] is the only place a strategy is
//! dispatched:
//!
//! * [`Strategy::Traditional`] / [`Strategy::TraditionalTuned`] — the
//!   traditional VM-cluster execution (the latter with the paper's
//!   sub-cluster-split strengthening);
//! * [`Strategy::ServerlessOnly`] — everything on FaaS with checkpointing;
//! * [`Strategy::Pegasus`] — Pegasus-like: task clustering
//!   ([`cluster_tasks`]) + data reuse on VMs;
//! * [`Strategy::Kepler`] — Kepler-like: dataflow-fired task pipelining on
//!   VMs, an all-VM plan that the one executor releases by
//!   [`mashup_core::Release::Dataflow`];
//! * [`Strategy::Fusion`] — Costless-like: greedy function fusion to a
//!   fixpoint ([`maximal_fusion`]), then everything on FaaS;
//! * [`Strategy::MashupWithoutPdc`] and [`Strategy::Mashup`] — the paper's
//!   system without and with its Placement Decision Controller.
//!
//! Every strategy executes its plan through the one executor,
//! [`mashup_core::execute`], and returns the same
//! [`mashup_core::WorkflowReport`], so the bench harness and the CLI
//! compare them uniformly. Each records into the [`mashup_core::Tracer`] it
//! is given — a traced run is always byte-identical to an untraced one.
//! Each takes a
//! [`mashup_core::CheckedWorkflow`], and a config or plan the analyzer
//! refuses comes back as a typed [`mashup_core::AnalysisError`] before any
//! environment is built.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fusion;
mod pegasus;
mod serverless_only;
mod strategy;
mod traditional;

pub use fusion::maximal_fusion;
pub use pegasus::cluster_tasks;
pub use strategy::Strategy;

/// Runs `strategy` unrecorded and uncached on inputs a test knows are clean.
#[cfg(test)]
fn run_untraced(
    strategy: Strategy,
    cfg: &mashup_core::MashupConfig,
    workflow: &mashup_dag::Workflow,
) -> mashup_core::WorkflowReport {
    mashup_core::CheckedWorkflow::borrowed(workflow)
        .and_then(|w| strategy.run(cfg, &w, &mashup_core::Tracer::off(), None))
        .expect("clean inputs")
}
