//! The cloud services' events as values.
//!
//! Every event the cluster, the FaaS platforms, their segment chains and
//! the fault schedule put on the engine's queue is one [`CloudEvent`]. A
//! variant carries slab keys and a few scalars, never a spec or a
//! continuation: the run or chain it names holds the rest, so an event
//! stays a couple of machine words. A world's event type wraps
//! `CloudEvent` and hands it back to [`CloudEvent::dispatch`].

use crate::cluster::VmCluster;
use crate::exec::{self, Step};
use crate::faas;
use crate::fault;
use crate::world::CloudWorld;
use mashup_sim::{KillReason, SimTime, Simulation};

/// An event of the cloud services. Opaque: a world only wraps it and hands
/// it back to [`dispatch`](CloudEvent::dispatch).
pub struct CloudEvent(pub(crate) Ev);

/// The event kinds. `run` and `chain` are keys of the world's cloud slabs;
/// `tier` names a FaaS platform.
pub(crate) enum Ev {
    /// A cluster component's input landed: its compute window starts on a
    /// node, preferably `node`.
    CompReady { run: u32, node: u32, jf: f64 },
    /// A component's compute window on `node` ended; `preferred` and `jf`
    /// rerun it if a preemption took the node meanwhile.
    CompDone {
        run: u32,
        node: u32,
        preferred: u32,
        jf: f64,
    },
    /// A component's output, written from `since`, landed.
    CompOut { run: u32, since: SimTime },
    /// A chain's invocation request cleared the platform scheduler.
    FnAdmit { chain: u32 },
    /// The timeout watchdog or an injected failure ends invocation `id`.
    FnKill {
        tier: Option<u32>,
        id: u64,
        reason: KillReason,
    },
    /// A pre-warm cleared the background ramp and starts its cold start.
    Prewarm { tier: Option<u32>, code: u32 },
    /// A pre-warmed microVM finished its cold start and joins the pool.
    Warmed { tier: Option<u32>, code: u32 },
    /// A FaaS segment chain reached `step`.
    Chain { chain: u32, step: Step },
    /// Fault `index` of the installed plan starts, or its window ends.
    Fault { index: u32, end: bool },
}

impl From<Ev> for CloudEvent {
    fn from(ev: Ev) -> Self {
        CloudEvent(ev)
    }
}

impl CloudEvent {
    /// Runs the event on `w`'s cloud.
    pub fn dispatch<W: CloudWorld>(self, w: &mut W, sim: &mut Simulation<W>) {
        match self.0 {
            Ev::CompReady { run, node, jf } => VmCluster::on_input(w, sim, run, node, jf),
            Ev::CompDone {
                run,
                node,
                preferred,
                jf,
            } => VmCluster::on_compute_done(w, sim, run, node, preferred, jf),
            Ev::CompOut { run, since } => VmCluster::on_output(w, sim, run, since),
            Ev::FnAdmit { chain } => exec::on_admit(w, sim, chain),
            Ev::FnKill { tier, id, reason } => faas::on_kill(w, sim, tier, id, reason),
            Ev::Prewarm { tier, code } => faas::on_prewarm(w, sim, tier, code),
            Ev::Warmed { tier, code } => faas::on_warmed(w, sim, tier, code),
            Ev::Chain { chain, step } => exec::on_step(w, sim, chain, step),
            Ev::Fault { index, end } => fault::on_fault(w, sim, index, end),
        }
    }
}

/// Wraps `ev` as the world's event type.
pub(crate) fn ev<W: CloudWorld>(ev: Ev) -> W::Event {
    CloudEvent(ev).into()
}
