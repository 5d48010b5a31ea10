//! # mashup-cloud
//!
//! Mechanistic models of the three cloud services the Mashup paper builds
//! on, implemented over the `mashup-sim` discrete-event engine:
//!
//! * [`VmCluster`] — EC2-like master/worker clusters: core-slot waves,
//!   co-residency contention, master-NIC funnels, optional sub-cluster
//!   splits, node-hour billing;
//! * [`FaasPlatform`] — Lambda-like functions: scheduler ramp (linear
//!   scaling time), cold/warm starts with keep-alive pools and pre-warming,
//!   hard execution timeouts, per-function-hour billing;
//! * [`ObjectStore`] — S3-like storage: aggregate-bandwidth fair sharing,
//!   per-request latency and pricing, replication, failure injection,
//!   occupancy metering.
//!
//! [`run_task_on_faas`] turns a task (N components) into N function chains
//! with checkpoint/restart across the time cap; [`VmCluster::run_task`] is
//! its cluster-side counterpart. Both report the overhead decomposition
//! (cold start, I/O, scaling) that the paper's Fig. 4 and §5 analyse.
//! Prices and platform constants live in [`pricing`] presets; every run
//! charges one [`CostMeter`].
//!
//! The services are plain values grouped in a [`Cloud`], which the
//! simulated world owns and exposes through the [`CloudWorld`] accessor.
//! Their links live in the engine's arena. Their events are [`CloudEvent`]
//! values that carry ids and find the state they name in the world each
//! event is handed; a finished run reports to the world with the tag its
//! driver chose.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod cost;
mod event;
mod exec;
mod faas;
pub mod fault;
pub mod pricing;
mod storage;
mod world;

pub use cluster::{
    ClusterConfig, ClusterInput, ClusterOutput, ClusterRunStats, ClusterTaskSpec, VmCluster,
};
pub use cost::{CostMeter, Expense};
pub use event::CloudEvent;
pub use exec::{run_task_on_faas, FaasRunStats, FaasTaskSpec};
pub use faas::{FaasPlatform, Invocation, InvocationId};
pub use fault::{Fault, FaultPlan, FaultProfile, StoreFault};
pub use pricing::{FaasConfig, InstanceType, ProviderPreset, StorageConfig};
pub use storage::{ObjectKey, ObjectStore};
pub use world::{Cloud, CloudWorld};
