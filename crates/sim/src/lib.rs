//! # mashup-sim
//!
//! A small, deterministic discrete-event simulation engine: the substrate
//! underneath the Mashup reproduction's cloud models.
//!
//! The engine is deliberately domain-free. It provides:
//!
//! * [`Simulation`] — an event loop ordered by `(time, sequence)`, so runs
//!   are bit-for-bit reproducible for a given seed and program order, with
//!   deferred end-of-event work and reserved sequence numbers for
//!   components that coalesce the changes of one event;
//! * [`Resource`] — counted capacity with FIFO admission (core slots,
//!   concurrency caps);
//! * [`SharedLink`] — max-min fair-share bandwidth channels, the mechanism
//!   behind every network/storage contention effect in the paper;
//! * [`SeedSource`]/[`stream_rng`] — labelled deterministic RNG streams;
//! * [`Tracer`] — the execution flight recorder: a zero-overhead-when-off
//!   structured event stream (see [`trace`]) the cloud and core layers
//!   thread through every mechanism.
//!
//! Domain state lives outside the engine behind [`Shared`] handles
//! (`Arc<AtomicRefCell<..>>`, see [`shared`](crate::shared())) captured by
//! event closures; see `mashup-cloud` for the cloud models built on top.
//! Every engine type is `Send`: a run is built, owned, and driven by one
//! thread at a time (that confinement is where determinism comes from),
//! but whole runs can be sharded across worker threads — the basis of the
//! planning service and the parallel figure sweep.

#![warn(missing_docs)]

mod bandwidth;
mod engine;
mod resource;
mod rng;
mod shared;
mod time;
pub mod trace;

pub use bandwidth::{SharedLink, TransferId};
pub use engine::{Deferred, EventFn, EventHandle, ReservedSeq, Simulation};
pub use resource::Resource;
pub use rng::{jitter_factor, stream_rng, SeedSource};
pub use shared::{shared, AtomicRef, AtomicRefCell, AtomicRefMut, Shared};
pub use time::{SimDuration, SimTime};
pub use trace::{KillReason, TraceEvent, TraceRecord, Tracer};
