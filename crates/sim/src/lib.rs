//! # mashup-sim
//!
//! A small, deterministic discrete-event simulation engine: the substrate
//! underneath the Mashup reproduction's cloud models.
//!
//! The engine is deliberately domain-free. It provides:
//!
//! * [`Simulation<W>`] — an event loop ordered by `(time, sequence)` over a
//!   world `W: Model` the caller owns, so runs are bit-for-bit reproducible
//!   for a given seed and program order. Events are values of the world's
//!   [`Model::Event`] type, queued unboxed;
//! * fair-share links ([`Simulation::add_link`], addressed by [`LinkId`]) —
//!   max-min bandwidth channels, the mechanism behind every
//!   network/storage contention effect in the paper, planned once per
//!   event by an end-of-event flush;
//! * [`SeedSource`]/[`stream_rng`] — labelled deterministic RNG streams;
//! * [`Tracer`] — the execution flight recorder: a zero-overhead-when-off
//!   structured event stream (see [`trace`]) the cloud and core layers
//!   thread through every mechanism.
//!
//! **Owned world.** Domain state is a plain value: the caller builds a
//! world, and [`Simulation::run`] hands each event to [`Model::handle`] on
//! it, alongside the engine. No event holds a handle to shared state, so
//! the borrow checker proves that nothing aliases it; see `mashup-cloud`
//! for the cloud models built on top. A simulation is `Send` for any world
//! (its event type is `Send`), so a whole run can be built on one thread
//! and driven on another — the basis of the planning service and the parallel figure
//! sweep — while each run stays single-threaded, which is where its
//! determinism comes from. The [`Tracer`] is the one handle that outlives
//! a run; its buffer sits behind a `Mutex`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bandwidth;
mod engine;
mod rng;
mod time;
pub mod trace;

pub use bandwidth::{LinkId, TransferId};
pub use engine::{EventHandle, Model, Simulation};
pub use rng::{jitter_factor, jitter_stream, stream_rng, SeedSource};
pub use time::{SimDuration, SimTime};
pub use trace::{KillReason, TraceEvent, TraceRecord, Tracer};
