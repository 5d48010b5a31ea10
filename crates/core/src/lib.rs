//! # mashup-core
//!
//! The Mashup engine — the primary contribution of *"Mashup: Making
//! Serverless Computing Useful for HPC Workflows via Hybrid Execution"*
//! (PPoPP '22) — reimplemented over simulated cloud substrates:
//!
//! * [`Pdc`] — the Placement Decision Controller: a full VM profiling pass,
//!   single-component serverless probes, the Eq. 1/2 analytical models with
//!   autonomously calibrated factors, and the Algorithm 1 decision rules
//!   (conservative cold-start penalty, memory and short-task forcing, the
//!   recurring-task warm-pool exception, alternative objectives);
//! * [`CheckedWorkflow`] — a workflow the M1xx checks accepted, built only
//!   by them and taken by every planning and execution entry, so each
//!   workflow is checked once;
//! * [`execute`] — the hybrid executor: phase-ordered execution across the
//!   VM cluster and the serverless platform with store-mediated data
//!   exchange, checkpointing across the FaaS time cap, and pre-warming. It
//!   checks its config and plan first and refuses error-diagnosed ones with
//!   a typed [`AnalysisError`], then builds the run's world whole from the
//!   config;
//! * [`Mashup`] — the one-call engine combining both;
//! * [`plan_without_pdc`] — the paper's "Mashup w/o PDC" baseline design;
//! * [`trace::check`] — the trace-invariant oracle: replays a recorded
//!   execution ([`Tracer`]) against precedence, capacity, checkpoint-window,
//!   warm-start, and cost-reconciliation rules.
//!
//! Reports ([`WorkflowReport`], [`TaskReport`], [`PdcReport`]) carry the
//! makespan, expense, placement, and overhead decomposition (cold start,
//! I/O, scaling, checkpoints) that the paper's evaluation figures analyse.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod cache;
pub mod chaos;
mod config;
mod engine;
mod exec;
mod fingerprint;
mod naive;
pub mod pareto;
mod pdc;
mod report;
pub mod trace;

pub use analysis::{engine_params, preflight, CheckedWorkflow};
pub use cache::{CacheStats, PlanCache, ProbeEntry, SectionStats, VmProfileEntry};
pub use chaos::ChaosSpec;
pub use config::{MashupConfig, Sizing, MEMORY_TIERS_GB};
pub use engine::{Mashup, MashupOutcome};
pub use exec::{execute, try_execute, Release};
pub use fingerprint::{Fingerprint, Fingerprinter};
pub use mashup_analyze::{AnalysisError, Code, Diagnostic, Location, Severity};
pub use mashup_dag::{PlacementPlan, Platform, UnassignedTask};
pub use mashup_sim::{KillReason, TraceEvent, TraceRecord, Tracer};
pub use naive::plan_without_pdc;
pub use pdc::{
    calibrate, estimate_serverless_time, finer_split_wins, fit_gamma, subcluster_splits, ForcedVm,
    ModelFactors, Objective, Pdc, PdcReport, ReplanStats, TaskDecision,
};
pub use report::{improvement_pct, TaskReport, WorkflowReport};
pub use trace::Violation;
