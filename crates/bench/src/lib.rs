//! # mashup-bench
//!
//! The experiment harness regenerating every table and figure of the
//! Mashup paper's evaluation (§5). Each `figN_*` function runs the
//! relevant strategies on the relevant workflows and returns a
//! serializable result that the `figures` binary prints as the paper
//! reports it (percent improvements over the traditional cluster, per-task
//! overhead breakdowns, placement maps, Pareto points).
//!
//! Absolute numbers come from the simulated substrates and are not
//! expected to match the paper's AWS measurements; the *shapes* — who
//! wins, by roughly what factor, where crossovers fall — are the
//! reproduction targets, recorded against the paper in `EXPERIMENTS.md`.

#![warn(missing_docs)]

pub mod ablations;
pub mod chaos;
pub mod figures;
pub mod plan_cache;
pub mod scale;
pub mod strategies;
pub mod table;
pub mod trace_dir;

pub use ablations::{ablations, AblationRow, Ablations};
pub use chaos::{fig13_adaptive, Fig13, Fig13Row};
pub use figures::*;
pub use mashup_serve::pool::{jobs, par_map, set_jobs};
pub use plan_cache::{plan_cache, plan_cache_enabled, plan_cache_stats, set_plan_cache_enabled};
pub use strategies::{run_strategy, run_strategy_traced, Strategy};
pub use trace_dir::{set_trace_dir, set_trace_scope, trace_dir};
