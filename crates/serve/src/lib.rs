//! # mashup-serve
//!
//! The serving layer over the Mashup engine: a multi-tenant planning
//! service with admission control, the shared worker pool it and the
//! figure sweep run on, and the Pareto plan search.
//!
//! A whole engine run owns its simulated world and is `Send`; this crate
//! is what that buys:
//!
//! * [`pool`] — [`par_map`]: shard independent deterministic runs across
//!   worker threads, merging results in input order (`mashup-bench`'s
//!   figure sweep delegates here);
//! * [`service`] — [`PlanService`]: JSON plan/run requests from many
//!   tenants, one shared [`PlanCache`] across all of them, a bounded
//!   [`FairQueue`] that rejects past its depth limit (HTTP-429 analogue)
//!   and round-robins across tenants; [`request_mix`] is the
//!   deterministic request stream the benchmark's serve-mix workload
//!   replays against it;
//! * [`pareto`] — [`pareto_sweep`]: the fusion × right-sizing plan search.
//!
//! [`PlanCache`]: mashup_core::PlanCache

#![warn(missing_docs)]

pub mod pareto;
pub mod pool;
pub mod service;

pub use pareto::{pareto_sweep, pareto_sweep_with, FrontPoint, SweepOutcome, SweepStats};
pub use pool::{jobs, par_map, set_jobs};
pub use service::{
    request_mix, FairQueue, PlanRequest, PlanService, Rejection, ReplyStatus, RequestKind,
    ServeReply, ServiceConfig, ServiceStats, Ticket, WorkflowName, MIX_PERIOD,
};
