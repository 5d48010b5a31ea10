//! Running a whole task (all components) on the serverless platform.
//!
//! Each component becomes a chain of one or more function invocations:
//! read input from the object store, compute, and either write the output
//! (done) or — when the remaining compute would cross the platform's
//! execution time cap — checkpoint the state to the store a configurable
//! margin before the deadline and resume in a fresh invocation (paper §3:
//! "checkpointing is performed 30 seconds before the time limit is
//! reached... the next set of serverless functions that start the task from
//! its stored state is spawned").

use crate::event::{ev, Ev};
use crate::faas::Invocation;
use crate::world::{Cloud, CloudWorld};
use mashup_sim::trace::TraceEvent;
use mashup_sim::{jitter_factor, jitter_stream, SeedSource, SimDuration, SimTime, Simulation};
use serde::{Deserialize, Serialize};

/// Work description for running one task's components on FaaS. It
/// borrows its label: a run interns the label on its platform when it
/// starts (its code identity) and reads it back from there.
#[derive(Debug, Clone)]
pub struct FaasTaskSpec<'a> {
    /// Code identity: invocations of the same label share a warm pool.
    pub label: &'a str,
    /// Number of components (one function chain each).
    pub components: usize,
    /// Per-component compute seconds *inside a serverless function* on a
    /// reference core (already including any VM-vs-serverless slowdown).
    pub compute_secs: f64,
    /// Per-component input bytes read from the store.
    pub input_bytes: f64,
    /// Per-component output bytes written to the store.
    pub output_bytes: f64,
    /// GET/PUT requests per component per direction.
    pub io_requests: u64,
    /// Checkpoint state size in bytes (written at the cap, read on resume).
    pub checkpoint_bytes: f64,
    /// Relative runtime jitter.
    pub jitter: f64,
    /// Per-component memory footprint in GiB; must fit the platform cap.
    pub memory_gb: f64,
    /// Seconds before the deadline at which a checkpoint is taken.
    pub checkpoint_margin_secs: f64,
}

impl<'a> FaasTaskSpec<'a> {
    /// A minimal spec with the given label, component count, and compute.
    pub fn new(label: &'a str, components: usize, compute_secs: f64) -> Self {
        FaasTaskSpec {
            label,
            components,
            compute_secs,
            input_bytes: 0.0,
            output_bytes: 0.0,
            io_requests: 1,
            checkpoint_bytes: 0.0,
            jitter: 0.0,
            memory_gb: 0.5,
            checkpoint_margin_secs: 30.0,
        }
    }
}

/// Timing and overhead summary of one task run on FaaS.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaasRunStats {
    /// Submission instant.
    pub start: SimTime,
    /// Completion of the last component.
    pub end: SimTime,
    /// First function-ready instant.
    pub first_fn_start: SimTime,
    /// Last function-ready instant (first segments only, matching the
    /// paper's definition of scaling time over a task's components).
    pub last_fn_start: SimTime,
    /// Total cold-start latency paid, seconds.
    pub cold_start_secs: f64,
    /// Cold starts.
    pub n_cold: u64,
    /// Warm starts.
    pub n_warm: u64,
    /// Sum of per-component I/O wall time, seconds.
    pub io_secs: f64,
    /// Sum of per-component compute wall time, seconds.
    pub compute_secs: f64,
    /// Checkpoint/restart cycles taken.
    pub checkpoints: u64,
    /// Bytes read from the store.
    pub bytes_read: f64,
    /// Bytes written to the store.
    pub bytes_written: f64,
}

impl FaasRunStats {
    /// Wall-clock makespan of the task.
    pub fn makespan(&self) -> SimDuration {
        self.end.since(self.start)
    }

    /// Scaling time: spread between the first and last function start of
    /// the task's components (paper §3 definition, Fig. 4(c)).
    pub fn scaling_secs(&self) -> f64 {
        self.last_fn_start
            .saturating_since(self.first_fn_start)
            .as_secs()
    }
}

/// A serverless run in flight: its spec and platform, its stats
/// accumulator and its driver's tag, kept in the world's [`Cloud`] under the
/// key its chains carry.
pub(crate) struct FaasRun<W: CloudWorld> {
    tier: Option<u32>,
    /// The spec's label interned on the tier's platform, where trace
    /// records read it.
    code: u32,
    /// The spec, its label replaced by `code`.
    spec: FaasTaskSpec<'static>,
    remaining: usize,
    first_start_seen: bool,
    stats: FaasRunStats,
    tag: W::FaasTag,
}

/// One component's invocation chain, kept in the world's [`Cloud`] under
/// the key its events carry. A chain waits on one thing at a time, so one
/// invocation, one I/O start instant and one pending amount cover it.
pub(crate) struct Chain {
    run: u32,
    work: Work,
    /// The current segment's invocation, from its admission on.
    inv: Option<Invocation>,
    /// When the pending store operation was issued.
    io_begin: SimTime,
    /// The pending step's amount: the chunk in flight for reads and
    /// writes, the compute left past the checkpoint for `Computed` and
    /// `CheckpointWritten`.
    pending: f64,
}

impl Chain {
    fn inv(&self) -> Invocation {
        self.inv.expect("the segment was admitted")
    }
}

/// Where a chain resumes when its pending event fires.
#[derive(Clone, Copy)]
pub(crate) enum Step {
    /// The segment's function is ready to run.
    Ready,
    /// The checkpointed state was re-read.
    CheckpointRead,
    /// An input chunk was read.
    InputRead,
    /// The compute window ended (at the checkpoint point if compute is
    /// left).
    Computed,
    /// The checkpoint landed in the store.
    CheckpointWritten,
    /// An output chunk was written.
    OutputWritten,
}

/// Runs all components of `spec` on the platform of memory tier `tier` (the
/// base platform for `None`), exchanging data through the world's store,
/// reporting aggregate stats to [`CloudWorld::faas_done`] with `tag` when
/// the last component's chain finishes.
///
/// Panics if a component's memory footprint exceeds the platform cap or if
/// a component cannot make forward progress inside one timeout window
/// (input read longer than the usable window) — both indicate a placement
/// bug the PDC is supposed to prevent.
pub fn run_task_on_faas<W: CloudWorld>(
    w: &mut W,
    sim: &mut Simulation<W>,
    tier: Option<u32>,
    spec: FaasTaskSpec<'_>,
    seeds: &SeedSource,
    tag: W::FaasTag,
) {
    let cloud = w.cloud();
    let platform = cloud.platform(tier).config();
    // Analyzer-checked invariant: diagnostic M104 rejects zero-component
    // tasks before execution reaches this platform.
    assert!(spec.components > 0, "task with zero components");
    // Analyzer-checked invariant: diagnostic M203 rejects serverless
    // placements whose memory demand exceeds the function cap.
    assert!(
        spec.memory_gb <= platform.memory_gb,
        "task '{}' needs {} GiB but functions cap at {} GiB",
        spec.label,
        spec.memory_gb,
        platform.memory_gb
    );
    // A checkpoint written after the margin point must land before the
    // deadline, or the watchdog kills the function mid-checkpoint.
    // Analyzer-checked invariant: the engine widens the margin to cover the
    // checkpoint write (`mashup_analyze::PlanContext::margin_for`), and
    // diagnostics M302 / M202 reject margins that devour the timeout window.
    assert!(
        spec.checkpoint_bytes / platform.per_function_bps <= spec.checkpoint_margin_secs,
        "task '{}': checkpoint of {} bytes cannot be written within the \
         {}-second margin at {} B/s — widen the margin",
        spec.label,
        spec.checkpoint_bytes,
        spec.checkpoint_margin_secs,
        platform.per_function_bps,
    );
    let core_speed = platform.core_speed;
    let now = sim.now();
    let code = cloud.platform_mut(tier).code(spec.label);
    let (components, compute_secs, jitter) = (spec.components, spec.compute_secs, spec.jitter);
    let mut rng = jitter_stream(seeds, spec.label, "faas-run", jitter);
    let (input_bytes, output_bytes) = (spec.input_bytes, spec.output_bytes);
    let run = cloud.faas_runs.insert(FaasRun {
        tier,
        code,
        spec: FaasTaskSpec { label: "", ..spec },
        remaining: components,
        first_start_seen: false,
        stats: FaasRunStats {
            start: now,
            end: now,
            first_fn_start: SimTime::ZERO,
            last_fn_start: SimTime::ZERO,
            cold_start_secs: 0.0,
            n_cold: 0,
            n_warm: 0,
            io_secs: 0.0,
            compute_secs: 0.0,
            checkpoints: 0,
            bytes_read: 0.0,
            bytes_written: 0.0,
        },
        tag,
    });
    for comp in 0..components {
        let jf = rng.as_mut().map_or(1.0, |rng| jitter_factor(rng, jitter));
        let work = Work {
            chain: comp as u32,
            read: input_bytes,
            needs_ckpt_read: false,
            compute: compute_secs / core_speed * jf,
            write: output_bytes,
            first_segment: true,
        };
        let chain = w.cloud().chains.insert(Chain {
            run,
            work,
            inv: None,
            io_begin: now,
            pending: 0.0,
        });
        run_segment(w, sim, chain);
    }
}

/// Remaining work of one component, threaded across its invocation chain.
/// Inputs and outputs too large for one timeout window are moved in chunks
/// across invocations (multipart-style), so no single function ever runs
/// into the platform's kill watchdog.
#[derive(Clone, Copy)]
struct Work {
    /// Component index within the task: identifies the invocation chain in
    /// trace records (checkpoint/resume matching).
    chain: u32,
    /// Input bytes still to be read from the store.
    read: f64,
    /// True when this segment resumes from a checkpoint and must re-read
    /// the state first.
    needs_ckpt_read: bool,
    /// Compute seconds still to run.
    compute: f64,
    /// Output bytes still to be written.
    write: f64,
    /// True for a component's very first invocation (scaling-time metric).
    first_segment: bool,
}

/// The chain `id` and the run it belongs to.
fn chain_and_run<W: CloudWorld>(cloud: &mut Cloud<W>, id: u32) -> (&mut Chain, &mut FaasRun<W>) {
    let chain = cloud.chains.get_mut(id);
    let run = cloud.faas_runs.get_mut(chain.run);
    (chain, run)
}

/// The current invocation of chain `id` and its run's platform tier.
fn segment<W: CloudWorld>(w: &mut W, id: u32) -> (Invocation, Option<u32>) {
    let (chain, run) = chain_and_run(w.cloud(), id);
    (chain.inv(), run.tier)
}

/// Completes chain `id`'s invocation on its platform, billing it now.
fn complete<W: CloudWorld>(w: &mut W, sim: &Simulation<W>, id: u32) -> bool {
    let (inv, tier) = segment(w, id);
    let (platform, _, meter) = w.cloud().serverless(tier);
    platform.complete(meter, sim.now(), inv.id)
}

/// True while chain `id`'s invocation is live.
fn is_active<W: CloudWorld>(w: &mut W, id: u32) -> bool {
    let (inv, tier) = segment(w, id);
    w.cloud().platform(tier).is_active(inv.id)
}

/// Emits the event `make` builds for chain `id` from its run's label and
/// spec, on its platform's recorder, building it only when one is attached.
fn trace_with<W: CloudWorld>(
    w: &mut W,
    sim: &Simulation<W>,
    id: u32,
    make: impl FnOnce(&str, &FaasTaskSpec, &Chain) -> TraceEvent,
) {
    let cloud = w.cloud();
    let chain = cloud.chains.get(id);
    let run = cloud.faas_runs.get(chain.run);
    let platform = cloud.platform(run.tier);
    platform.trace_with(sim.now(), || {
        make(platform.code_label(run.code), &run.spec, chain)
    });
}

/// Chain `id`'s task label, read back from its platform.
fn label<W: CloudWorld>(w: &mut W, id: u32) -> &str {
    let cloud = w.cloud();
    let run = cloud.faas_runs.get(cloud.chains.get(id).run);
    cloud.platform(run.tier).code_label(run.code)
}

/// Starts a store read (`write` false) or write of `bytes` for chain `id`
/// at the per-function cap; the chain resumes at `then` when it lands.
fn store_io<W: CloudWorld>(
    w: &mut W,
    sim: &mut Simulation<W>,
    id: u32,
    write: bool,
    bytes: f64,
    then: Step,
) {
    let Cloud {
        chains, faas_runs, ..
    } = w.cloud();
    let chain = chains.get_mut(id);
    chain.io_begin = sim.now();
    let run = faas_runs.get(chain.run);
    let (tier, requests) = (run.tier, run.spec.io_requests);
    let (platform, store, meter) = w.cloud().serverless(tier);
    let cap = Some(platform.config().per_function_bps);
    let done = ev::<W>(Ev::Chain {
        chain: id,
        step: then,
    });
    if write {
        store.write(meter, sim, bytes, requests, cap, done);
    } else {
        store.read(meter, sim, bytes, requests, cap, done);
    }
}

/// Sets chain `id`'s remaining work.
fn set_work<W: CloudWorld>(w: &mut W, id: u32, work: Work) {
    w.cloud().chains.get_mut(id).work = work;
}

/// Requests the next invocation in chain `id`, for its current work.
fn run_segment<W: CloudWorld>(w: &mut W, sim: &mut Simulation<W>, id: u32) {
    let tier = chain_and_run(w.cloud(), id).1.tier;
    let delay = w.cloud().platform_mut(tier).scheduler_delay(sim.now());
    sim.schedule_in(delay, ev::<W>(Ev::FnAdmit { chain: id }));
}

/// Chain `id`'s request cleared the scheduler: start its invocation and
/// resume the chain when the function is ready.
pub(crate) fn on_admit<W: CloudWorld>(w: &mut W, sim: &mut Simulation<W>, id: u32) {
    let Cloud {
        chains, faas_runs, ..
    } = w.cloud();
    let run = faas_runs.get(chains.get(id).run);
    let (tier, code) = (run.tier, run.code);
    let inv = w.cloud().platform_mut(tier).start(sim, code);
    w.cloud().chains.get_mut(id).inv = Some(inv);
    sim.schedule_at(
        inv.ready_at,
        ev::<W>(Ev::Chain {
            chain: id,
            step: Step::Ready,
        }),
    );
}

/// Chain `id` resumes at `step`.
pub(crate) fn on_step<W: CloudWorld>(w: &mut W, sim: &mut Simulation<W>, id: u32, step: Step) {
    match step {
        Step::Ready => segment_ready(w, sim, id),
        Step::CheckpointRead => {
            let (chain, run) = chain_and_run(w.cloud(), id);
            let ckpt = run.spec.checkpoint_bytes;
            run.stats.io_secs += sim.now().since(chain.io_begin).as_secs();
            run.stats.bytes_read += ckpt;
            chain.work.needs_ckpt_read = false;
            read_phase(w, sim, id);
        }
        Step::InputRead => input_read(w, sim, id),
        Step::Computed => computed(w, sim, id),
        Step::CheckpointWritten => checkpoint_written(w, sim, id),
        Step::OutputWritten => output_written(w, sim, id),
    }
}

/// The segment's function is ready: book its start, then re-read the
/// checkpoint (on a resume) or go on to the reads.
fn segment_ready<W: CloudWorld>(w: &mut W, sim: &mut Simulation<W>, id: u32) {
    let (chain, a) = chain_and_run(w.cloud(), id);
    let (inv, work) = (chain.inv(), chain.work);
    if inv.cold {
        a.stats.n_cold += 1;
        a.stats.cold_start_secs += inv.start_latency.as_secs();
    } else {
        a.stats.n_warm += 1;
    }
    if work.first_segment {
        if !a.first_start_seen {
            a.first_start_seen = true;
            a.stats.first_fn_start = inv.ready_at;
        } else {
            a.stats.first_fn_start = a.stats.first_fn_start.min(inv.ready_at);
        }
        a.stats.last_fn_start = a.stats.last_fn_start.max(inv.ready_at);
    }
    trace_with(w, sim, id, |label, spec, c| TraceEvent::SegmentStart {
        task: label.to_owned(),
        chain: c.work.chain,
        inv: inv.id.raw(),
        resume: c.work.needs_ckpt_read,
        mem_gb: spec.memory_gb,
    });
    if work.needs_ckpt_read {
        // Resume: re-read the checkpointed state before anything else.
        trace_with(w, sim, id, |label, _, c| TraceEvent::CheckpointResume {
            task: label.to_owned(),
            chain: c.work.chain,
            inv: inv.id.raw(),
            remaining_secs: c.work.compute,
        });
        let ckpt = chain_and_run(w.cloud(), id).1.spec.checkpoint_bytes;
        store_io(w, sim, id, false, ckpt, Step::CheckpointRead);
    } else {
        read_phase(w, sim, id);
    }
}

/// Instant at which this invocation must stop useful work to leave room
/// for a checkpoint/handover before the hard deadline.
fn window_end(spec: &FaasTaskSpec<'_>, inv: &Invocation) -> SimTime {
    inv.deadline - SimDuration::from_secs(spec.checkpoint_margin_secs)
}

/// The window budget left to chain `id`'s invocation, in seconds, and its
/// platform's per-function bandwidth cap.
fn budget<W: CloudWorld>(w: &mut W, sim: &Simulation<W>, id: u32) -> (f64, f64) {
    let cloud = w.cloud();
    let chain = cloud.chains.get(id);
    let run = cloud.faas_runs.get(chain.run);
    let cap = cloud.platform(run.tier).config().per_function_bps;
    let end = window_end(&run.spec, &chain.inv());
    (end.saturating_since(sim.now()).as_secs(), cap)
}

/// Reads as much of the remaining input as fits this window, chaining to a
/// fresh invocation when bytes remain.
fn read_phase<W: CloudWorld>(w: &mut W, sim: &mut Simulation<W>, id: u32) {
    let work = w.cloud().chains.get(id).work;
    if work.read <= 0.0 {
        compute_phase(w, sim, id);
        return;
    }
    let (budget_secs, cap) = budget(w, sim, id);
    let chunk = work.read.min(budget_secs * cap);
    // Analyzer-checked invariant: diagnostic M202 rejects serverless
    // placements whose resume-read alone fills the post-margin window.
    assert!(
        chunk > 0.0,
        "task '{}' cannot make read progress within the FaaS window",
        label(w, id)
    );
    w.cloud().chains.get_mut(id).pending = chunk;
    store_io(w, sim, id, false, chunk, Step::InputRead);
}

/// An input chunk landed: chain on when input remains, compute when the
/// function survived the read, redo the chunk fresh when it did not.
fn input_read<W: CloudWorld>(w: &mut W, sim: &mut Simulation<W>, id: u32) {
    let (chain, a) = chain_and_run(w.cloud(), id);
    let (chunk, work) = (chain.pending, chain.work);
    a.stats.io_secs += sim.now().since(chain.io_begin).as_secs();
    a.stats.bytes_read += chunk;
    if work.read - chunk > 1e-6 {
        // More input than this window could take: hand the remainder to a
        // fresh invocation (multipart continuation).
        let alive = complete(w, sim, id);
        let read_left = if alive { work.read - chunk } else { work.read };
        let next = Work {
            read: read_left,
            first_segment: false,
            ..work
        };
        set_work(w, id, next);
        run_segment(w, sim, id);
    } else if is_active(w, id) {
        set_work(w, id, Work { read: 0.0, ..work });
        compute_phase(w, sim, id);
    } else {
        // Contention stretched the read past the deadline and the watchdog
        // killed the function: redo this chunk fresh.
        let next = Work {
            first_segment: false,
            ..work
        };
        set_work(w, id, next);
        run_segment(w, sim, id);
    }
}

/// Computes until done or until the checkpoint point, checkpointing and
/// chaining when work remains.
fn compute_phase<W: CloudWorld>(w: &mut W, sim: &mut Simulation<W>, id: u32) {
    let work = w.cloud().chains.get(id).work;
    if work.compute <= 0.0 {
        write_phase(w, sim, id);
        return;
    }
    let (budget, _) = budget(w, sim, id);
    let (compute_now, leftover) = if work.compute <= budget {
        (work.compute, 0.0)
    } else {
        (budget, work.compute - budget)
    };
    if compute_now <= 0.0 && leftover > 0.0 {
        // No usable window left (e.g. the reads consumed it): hand over.
        let _ = complete(w, sim, id);
        let next = Work {
            needs_ckpt_read: false,
            first_segment: false,
            ..work
        };
        set_work(w, id, next);
        run_segment(w, sim, id);
        return;
    }
    let (chain, a) = chain_and_run(w.cloud(), id);
    a.stats.compute_secs += compute_now;
    chain.pending = leftover;
    let done = ev::<W>(Ev::Chain {
        chain: id,
        step: Step::Computed,
    });
    sim.schedule_in(SimDuration::from_secs(compute_now), done);
}

/// The compute window ended: checkpoint 30 s (the margin) before the limit
/// when compute remains and restart from the stored state (paper §3), or
/// write the output.
fn computed<W: CloudWorld>(w: &mut W, sim: &mut Simulation<W>, id: u32) {
    let (chain, run) = chain_and_run(w.cloud(), id);
    if chain.pending > 0.0 {
        let ckpt = run.spec.checkpoint_bytes;
        store_io(w, sim, id, true, ckpt, Step::CheckpointWritten);
    } else {
        chain.work.compute = 0.0;
        write_phase(w, sim, id);
    }
}

/// The checkpoint write landed. The state only persists if the function
/// survived to finish it; either way the chain continues in a fresh
/// invocation.
fn checkpoint_written<W: CloudWorld>(w: &mut W, sim: &mut Simulation<W>, id: u32) {
    let (chain, a) = chain_and_run(w.cloud(), id);
    let (leftover, work) = (chain.pending, chain.work);
    let ckpt = a.spec.checkpoint_bytes;
    a.stats.io_secs += sim.now().since(chain.io_begin).as_secs();
    a.stats.bytes_written += ckpt;
    // Record the checkpoint at the instant it landed (before the deadline,
    // or the watchdog would have killed the function first).
    if is_active(w, id) {
        trace_with(w, sim, id, |label, _, c| TraceEvent::Checkpoint {
            task: label.to_owned(),
            chain: c.work.chain,
            inv: c.inv().id.raw(),
            bytes: ckpt,
            remaining_secs: leftover,
        });
    }
    let alive = complete(w, sim, id);
    let a = chain_and_run(w.cloud(), id).1;
    let next = if alive {
        a.stats.checkpoints += 1;
        Work {
            read: 0.0,
            needs_ckpt_read: true,
            compute: leftover,
            first_segment: false,
            ..work
        }
    } else {
        // Killed mid-checkpoint: the state never persisted; redo this
        // segment's compute from the last good checkpoint (if any).
        Work {
            read: 0.0,
            needs_ckpt_read: a.stats.checkpoints > 0,
            compute: work.compute,
            first_segment: false,
            ..work
        }
    };
    set_work(w, id, next);
    run_segment(w, sim, id);
}

/// Writes as much of the remaining output as fits this window, chaining to
/// a fresh invocation when bytes remain (multipart upload), and finishing
/// the component when everything has landed.
fn write_phase<W: CloudWorld>(w: &mut W, sim: &mut Simulation<W>, id: u32) {
    let work = w.cloud().chains.get(id).work;
    let (budget_secs, cap) = budget(w, sim, id);
    if work.write <= 0.0 {
        let _ = complete(w, sim, id);
        finish_component(w, sim, id);
        return;
    }
    let chunk = work.write.min(budget_secs * cap);
    if chunk <= 0.0 {
        // Window exhausted before any bytes could move: fresh invocation.
        let _ = complete(w, sim, id);
        let next = Work {
            first_segment: false,
            ..work
        };
        set_work(w, id, next);
        run_segment(w, sim, id);
        return;
    }
    w.cloud().chains.get_mut(id).pending = chunk;
    store_io(w, sim, id, true, chunk, Step::OutputWritten);
}

/// An output chunk landed: chain on when output remains (a killed
/// function's part never lands and is redone), finish otherwise.
fn output_written<W: CloudWorld>(w: &mut W, sim: &mut Simulation<W>, id: u32) {
    let (chain, a) = chain_and_run(w.cloud(), id);
    let (chunk, work) = (chain.pending, chain.work);
    a.stats.io_secs += sim.now().since(chain.io_begin).as_secs();
    a.stats.bytes_written += chunk;
    let alive = complete(w, sim, id);
    let rest = if alive {
        work.write - chunk
    } else {
        work.write
    };
    if rest > 1e-6 {
        let next = Work {
            write: rest,
            first_segment: false,
            ..work
        };
        set_work(w, id, next);
        run_segment(w, sim, id);
    } else {
        finish_component(w, sim, id);
    }
}

/// Marks chain `id`'s component done, reporting the run to
/// [`CloudWorld::faas_done`] after the last one.
fn finish_component<W: CloudWorld>(w: &mut W, sim: &mut Simulation<W>, id: u32) {
    let cloud = w.cloud();
    let run = cloud.chains.remove(id).run;
    let a = cloud.faas_runs.get_mut(run);
    a.remaining -= 1;
    if a.remaining == 0 {
        a.stats.end = sim.now();
        let a = cloud.faas_runs.remove(run);
        w.faas_done(sim, a.tag, a.stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::pricing::{FaasConfig, InstanceType, StorageConfig};
    use crate::world::testing::{call, world, World};

    type W = World<()>;

    fn setup(mut faas: FaasConfig, mut storage: StorageConfig) -> (Simulation<W>, W) {
        faas.cold_start_secs = (1.0, 1.0);
        storage.request_latency_secs = 0.0;
        world(
            ClusterConfig::new(InstanceType::r5_large(), 1),
            faas,
            storage,
            &SeedSource::new(11),
        )
    }

    /// Runs `spec` to completion in the world `setup` built; the world
    /// stays inspectable afterwards.
    fn run_in(sim: &mut Simulation<W>, w: &mut W, spec: FaasTaskSpec<'static>) -> FaasRunStats {
        sim.schedule_now(call(move |w: &mut W, sim| {
            run_task_on_faas(w, sim, None, spec, &SeedSource::new(5), ());
        }));
        sim.run(w);
        w.faas.pop().expect("task completed")
    }

    fn run(faas: FaasConfig, storage: StorageConfig, spec: FaasTaskSpec<'static>) -> FaasRunStats {
        let (mut sim, mut w) = setup(faas, storage);
        run_in(&mut sim, &mut w, spec)
    }

    #[test]
    fn single_component_times_add_up() {
        let mut spec = FaasTaskSpec::new("t", 1, 10.0);
        spec.input_bytes = 5e7; // 1 s at the 50 MB/s per-function cap
        spec.output_bytes = 5e7;
        let stats = run(FaasConfig::aws_like(), StorageConfig::s3_like(), spec);
        // 1 s cold + 1 s read + 10 s compute + 1 s write = 13 s.
        assert!(
            (stats.makespan().as_secs() - 13.0).abs() < 1e-6,
            "{stats:?}"
        );
        assert_eq!(stats.n_cold, 1);
        assert_eq!(stats.checkpoints, 0);
        assert!((stats.io_secs - 2.0).abs() < 1e-6);
        assert!((stats.compute_secs - 10.0).abs() < 1e-6);
    }

    #[test]
    fn long_component_checkpoints_and_resumes() {
        let mut cfg = FaasConfig::aws_like();
        cfg.timeout_secs = 100.0;
        let mut spec = FaasTaskSpec::new("long", 1, 150.0);
        spec.checkpoint_bytes = 5e7; // 1 s to write/read at the cap
        spec.checkpoint_margin_secs = 30.0;
        let stats = run(cfg, StorageConfig::s3_like(), spec);
        // Segment 1: cold 1 s, budget = 100 - 30 = 70 s of compute, then a
        // 1 s checkpoint write. Segment 2 (warm): 1 s checkpoint read eats
        // into the window, leaving 69 s of compute -> a second checkpoint.
        // Segment 3 finishes the remaining 11 s.
        assert_eq!(stats.checkpoints, 2);
        assert_eq!(stats.n_cold + stats.n_warm, 3);
        assert!((stats.compute_secs - 150.0).abs() < 1e-6);
        assert!(stats.makespan().as_secs() > 150.0);
        // Total compute is preserved across the chain.
        assert!(stats.bytes_written >= 5e7);
    }

    #[test]
    fn very_long_component_chains_many_checkpoints() {
        let mut cfg = FaasConfig::aws_like();
        cfg.timeout_secs = 100.0;
        let (mut sim, mut w) = setup(cfg, StorageConfig::s3_like());
        let mut spec = FaasTaskSpec::new("vlong", 1, 400.0);
        spec.checkpoint_bytes = 1e6;
        spec.checkpoint_margin_secs = 30.0;
        let stats = run_in(&mut sim, &mut w, spec);
        // ~70 s of usable compute per segment -> 400/70 -> 5 checkpoints + final.
        assert!(stats.checkpoints >= 5, "{stats:?}");
        assert!((stats.compute_secs - 400.0).abs() < 1e-6);
        // No invocation was killed: the chain respected the cap.
        assert_eq!(w.cloud.faas.kills(), 0);
    }

    #[test]
    fn scaling_time_grows_linearly_with_components() {
        let mut cfg = FaasConfig::aws_like();
        cfg.burst_capacity = 10;
        cfg.ramp_per_sec = 10.0;
        let stats_small = run(
            cfg.clone(),
            StorageConfig::s3_like(),
            FaasTaskSpec::new("a", 50, 1.0),
        );
        let stats_large = run(
            cfg,
            StorageConfig::s3_like(),
            FaasTaskSpec::new("b", 400, 1.0),
        );
        let small = stats_small.scaling_secs();
        let large = stats_large.scaling_secs();
        // Scheduler starts are staggered at 10/s beyond the 10-token burst,
        // so the start spread grows by (400-50)/10 = 35 s (cold-vs-warm
        // start differences shift the ends by at most a second).
        assert!(
            (large - small - 35.0).abs() < 2.0,
            "small {small}, large {large}"
        );
        assert!(small < large);
    }

    #[test]
    fn concurrent_components_share_store_bandwidth() {
        let mut st = StorageConfig::s3_like();
        st.aggregate_bps = 1e8; // low aggregate so contention bites
        let mut cfg = FaasConfig::aws_like();
        cfg.burst_capacity = 1000;
        cfg.per_function_bps = 1e8;
        let mut spec = FaasTaskSpec::new("io", 10, 0.0);
        spec.input_bytes = 1e8;
        let stats = run(cfg, st, spec);
        // 10 x 100 MB over a 100 MB/s aggregate = 10 s of I/O wall clock,
        // plus 1 s cold start.
        assert!((stats.makespan().as_secs() - 11.0).abs() < 0.1, "{stats:?}");
    }

    #[test]
    #[should_panic(expected = "functions cap at")]
    fn oversized_memory_rejected() {
        let mut spec = FaasTaskSpec::new("big", 1, 1.0);
        spec.memory_gb = 100.0;
        run(FaasConfig::aws_like(), StorageConfig::s3_like(), spec);
    }

    #[test]
    fn injected_platform_failures_are_recovered_via_checkpoints() {
        let mut cfg = FaasConfig::aws_like();
        cfg.timeout_secs = 120.0;
        cfg.failure_prob = 0.4; // many invocations die mid-window
        let (mut sim, mut w) = setup(cfg, StorageConfig::s3_like());
        let mut spec = FaasTaskSpec::new("flaky", 8, 300.0);
        spec.checkpoint_bytes = 1e6;
        spec.checkpoint_margin_secs = 10.0;
        let stats = run_in(&mut sim, &mut w, spec);
        // Every component finished all its compute despite the failures —
        // retried segments redo work, so the total is at least the ideal.
        assert!(stats.compute_secs >= 8.0 * 300.0 - 1e-6, "{stats:?}");
        assert!(
            w.cloud.faas.kills() > 0,
            "failure injection should have fired"
        );
        // Checkpoints bounded the damage: makespan stays finite and sane.
        assert!(stats.makespan().as_secs() < 24.0 * 3600.0);
    }

    #[test]
    fn outputs_larger_than_one_window_are_chunked() {
        // 50 GB of output at 50 MB/s is ~1000 s: impossible in one 900 s
        // function — multipart chunking must chain invocations.
        let (mut sim, mut w) = setup(FaasConfig::aws_like(), StorageConfig::s3_like());
        let mut spec = FaasTaskSpec::new("bigout", 1, 10.0);
        spec.output_bytes = 5.0e10;
        let stats = run_in(&mut sim, &mut w, spec);
        assert!((stats.bytes_written - 5.0e10).abs() < 1.0, "{stats:?}");
        assert!(
            stats.n_cold + stats.n_warm >= 2,
            "needs at least two invocations"
        );
        assert_eq!(w.cloud.faas.kills(), 0, "chunking must avoid the watchdog");
    }

    #[test]
    fn inputs_larger_than_one_window_are_chunked() {
        let (mut sim, mut w) = setup(FaasConfig::aws_like(), StorageConfig::s3_like());
        let mut spec = FaasTaskSpec::new("bigin", 1, 10.0);
        spec.input_bytes = 6.0e10;
        let stats = run_in(&mut sim, &mut w, spec);
        assert!((stats.bytes_read - 6.0e10).abs() < 1.0, "{stats:?}");
        assert!(stats.n_cold + stats.n_warm >= 2);
        assert_eq!(w.cloud.faas.kills(), 0);
    }

    #[test]
    fn stats_count_io_bytes() {
        let mut spec = FaasTaskSpec::new("t", 3, 1.0);
        spec.input_bytes = 10.0;
        spec.output_bytes = 20.0;
        let stats = run(FaasConfig::aws_like(), StorageConfig::s3_like(), spec);
        assert!((stats.bytes_read - 30.0).abs() < 1e-9);
        assert!((stats.bytes_written - 60.0).abs() < 1e-9);
    }
}
