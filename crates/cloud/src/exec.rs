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

use crate::faas::Invocation;
use crate::world::CloudWorld;
use mashup_sim::trace::TraceEvent;
use mashup_sim::{jitter_factor, SeedSource, SimDuration, SimTime, Simulation};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Completion callback fired once the last component chain finishes.
type FaasDoneFn<W> = Box<dyn FnOnce(&mut W, &mut Simulation<W>, FaasRunStats) + Send>;

/// Work description for running one task's components on FaaS.
#[derive(Debug, Clone)]
pub struct FaasTaskSpec {
    /// Code identity: invocations of the same label share a warm pool.
    pub label: String,
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

impl FaasTaskSpec {
    /// A minimal spec with the given label, component count, and compute.
    pub fn new(label: impl Into<String>, components: usize, compute_secs: f64) -> Self {
        FaasTaskSpec {
            label: label.into(),
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

/// Per-task accumulator of a serverless run in flight, kept in the world's
/// [`Cloud`](crate::Cloud) under the key its invocation chains carry.
pub(crate) struct FaasRun<W> {
    remaining: usize,
    first_start_seen: bool,
    stats: FaasRunStats,
    done: FaasDoneFn<W>,
}

/// What every event of one task's invocation chains carries: the platform
/// tier, the spec, and the key of the task's [`FaasRun`].
#[derive(Clone)]
struct Ctx {
    tier: Option<u32>,
    spec: Arc<FaasTaskSpec>,
    run: usize,
}

impl Ctx {
    fn run<'w, W: CloudWorld>(&self, w: &'w mut W) -> &'w mut FaasRun<W> {
        w.cloud().faas_runs.get_mut(self.run)
    }

    /// Completes `inv` on the task's platform, billing it now.
    fn complete<W: CloudWorld>(&self, w: &mut W, sim: &Simulation<W>, inv: &Invocation) -> bool {
        let (platform, _, meter) = w.cloud().serverless(self.tier);
        platform.complete(meter, sim.now(), inv.id)
    }

    fn is_active<W: CloudWorld>(&self, w: &mut W, inv: &Invocation) -> bool {
        w.cloud().platform(self.tier).is_active(inv.id)
    }

    fn trace_with<W: CloudWorld>(
        &self,
        w: &mut W,
        sim: &Simulation<W>,
        make: impl FnOnce() -> TraceEvent,
    ) {
        w.cloud().platform(self.tier).trace_with(sim.now(), make);
    }

    /// Starts a store read (`write` false) or write of `bytes` at the
    /// per-function cap, then runs `then` with the transfer's wall time.
    fn store_io<W: CloudWorld>(
        &self,
        w: &mut W,
        sim: &mut Simulation<W>,
        write: bool,
        bytes: f64,
        then: impl FnOnce(&mut W, &mut Simulation<W>, SimDuration) + Send + 'static,
    ) {
        let (platform, store, meter) = w.cloud().serverless(self.tier);
        let cap = Some(platform.config().per_function_bps);
        let requests = self.spec.io_requests;
        if write {
            store.write(meter, sim, bytes, requests, cap, then);
        } else {
            store.read(meter, sim, bytes, requests, cap, then);
        }
    }
}

/// Runs all components of `spec` on the platform of memory tier `tier` (the
/// base platform for `None`), exchanging data through the world's store,
/// invoking `on_done` with aggregate stats when the last component's chain
/// finishes.
///
/// Panics if a component's memory footprint exceeds the platform cap or if
/// a component cannot make forward progress inside one timeout window
/// (input read longer than the usable window) — both indicate a placement
/// bug the PDC is supposed to prevent.
pub fn run_task_on_faas<W: CloudWorld>(
    w: &mut W,
    sim: &mut Simulation<W>,
    tier: Option<u32>,
    spec: FaasTaskSpec,
    seeds: &SeedSource,
    on_done: impl FnOnce(&mut W, &mut Simulation<W>, FaasRunStats) + Send + 'static,
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
    // checkpoint write (`MashupConfig::margin_for`), and diagnostics M302 /
    // M202 reject margins that devour the timeout window.
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
    let run = cloud.faas_runs.insert(FaasRun {
        remaining: spec.components,
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
        done: Box::new(on_done),
    });
    let ctx = Ctx {
        tier,
        spec: Arc::new(spec),
        run,
    };
    let mut rng = seeds.child(&ctx.spec.label).stream("faas-run");
    for comp in 0..ctx.spec.components {
        let jf = jitter_factor(&mut rng, ctx.spec.jitter);
        let total_compute = ctx.spec.compute_secs / core_speed * jf;
        let work = Work {
            chain: comp as u32,
            read: ctx.spec.input_bytes,
            needs_ckpt_read: false,
            compute: total_compute,
            write: ctx.spec.output_bytes,
            first_segment: true,
        };
        run_segment(w, sim, ctx.clone(), work);
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

/// One invocation in a component's chain.
fn run_segment<W: CloudWorld>(w: &mut W, sim: &mut Simulation<W>, ctx: Ctx, work: Work) {
    let label = ctx.spec.label.clone();
    let platform = w.cloud().serverless(ctx.tier).0;
    platform.invoke(sim, label, move |w: &mut W, sim, inv| {
        {
            let a = ctx.run(w);
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
        }
        ctx.trace_with(w, sim, || TraceEvent::SegmentStart {
            task: ctx.spec.label.clone(),
            chain: work.chain,
            inv: inv.id.raw(),
            resume: work.needs_ckpt_read,
            mem_gb: ctx.spec.memory_gb,
        });
        if work.needs_ckpt_read {
            // Resume: re-read the checkpointed state before anything else.
            ctx.trace_with(w, sim, || TraceEvent::CheckpointResume {
                task: ctx.spec.label.clone(),
                chain: work.chain,
                inv: inv.id.raw(),
                remaining_secs: work.compute,
            });
            let ckpt = ctx.spec.checkpoint_bytes;
            ctx.clone()
                .store_io(w, sim, false, ckpt, move |w, sim, dur| {
                    {
                        let a = ctx.run(w);
                        a.stats.io_secs += dur.as_secs();
                        a.stats.bytes_read += ckpt;
                    }
                    read_phase(
                        w,
                        sim,
                        ctx,
                        inv,
                        Work {
                            needs_ckpt_read: false,
                            ..work
                        },
                    );
                });
        } else {
            read_phase(w, sim, ctx, inv, work);
        }
    });
}

/// Instant at which this invocation must stop useful work to leave room
/// for a checkpoint/handover before the hard deadline.
fn window_end(ctx: &Ctx, inv: &Invocation) -> SimTime {
    inv.deadline - SimDuration::from_secs(ctx.spec.checkpoint_margin_secs)
}

/// Reads as much of the remaining input as fits this window, chaining to a
/// fresh invocation when bytes remain.
fn read_phase<W: CloudWorld>(
    w: &mut W,
    sim: &mut Simulation<W>,
    ctx: Ctx,
    inv: Invocation,
    work: Work,
) {
    if work.read <= 0.0 {
        compute_phase(w, sim, ctx, inv, work);
        return;
    }
    let cap = w.cloud().platform(ctx.tier).config().per_function_bps;
    let budget_secs = window_end(&ctx, &inv).saturating_since(sim.now()).as_secs();
    let chunk = work.read.min(budget_secs * cap);
    // Analyzer-checked invariant: diagnostic M202 rejects serverless
    // placements whose resume-read alone fills the post-margin window.
    assert!(
        chunk > 0.0,
        "task '{}' cannot make read progress within the FaaS window",
        ctx.spec.label
    );
    ctx.clone()
        .store_io(w, sim, false, chunk, move |w, sim, dur| {
            {
                let a = ctx.run(w);
                a.stats.io_secs += dur.as_secs();
                a.stats.bytes_read += chunk;
            }
            if work.read - chunk > 1e-6 {
                // More input than this window could take: hand the remainder to
                // a fresh invocation (multipart continuation).
                let alive = ctx.complete(w, sim, &inv);
                let read_left = if alive { work.read - chunk } else { work.read };
                run_segment(
                    w,
                    sim,
                    ctx,
                    Work {
                        read: read_left,
                        first_segment: false,
                        ..work
                    },
                );
            } else if ctx.is_active(w, &inv) {
                compute_phase(w, sim, ctx, inv, Work { read: 0.0, ..work });
            } else {
                // Contention stretched the read past the deadline and the
                // watchdog killed the function: redo this chunk fresh.
                run_segment(
                    w,
                    sim,
                    ctx,
                    Work {
                        first_segment: false,
                        ..work
                    },
                );
            }
        });
}

/// Computes until done or until the checkpoint point, checkpointing and
/// chaining when work remains.
fn compute_phase<W: CloudWorld>(
    w: &mut W,
    sim: &mut Simulation<W>,
    ctx: Ctx,
    inv: Invocation,
    work: Work,
) {
    if work.compute <= 0.0 {
        write_phase(w, sim, ctx, inv, work);
        return;
    }
    let budget = window_end(&ctx, &inv).saturating_since(sim.now()).as_secs();
    let (compute_now, leftover) = if work.compute <= budget {
        (work.compute, 0.0)
    } else {
        (budget, work.compute - budget)
    };
    if compute_now <= 0.0 && leftover > 0.0 {
        // No usable window left (e.g. the reads consumed it): hand over.
        let _ = ctx.complete(w, sim, &inv);
        run_segment(
            w,
            sim,
            ctx,
            Work {
                needs_ckpt_read: false,
                first_segment: false,
                ..work
            },
        );
        return;
    }
    ctx.run(w).stats.compute_secs += compute_now;
    sim.schedule_in(
        SimDuration::from_secs(compute_now),
        move |w: &mut W, sim| {
            if leftover > 0.0 {
                // Checkpoint 30 s (the margin) before the limit and restart
                // from the stored state (paper §3).
                let write_begin = sim.now();
                let ckpt = ctx.spec.checkpoint_bytes;
                let segment_compute = work.compute;
                ctx.clone().store_io(w, sim, true, ckpt, move |w, sim, _| {
                    {
                        let a = ctx.run(w);
                        a.stats.io_secs += sim.now().since(write_begin).as_secs();
                        a.stats.bytes_written += ckpt;
                    }
                    // The state only persists if the function survived to
                    // finish the write; record the checkpoint at the instant
                    // it landed (before the deadline, or the watchdog would
                    // have killed the function first).
                    if ctx.is_active(w, &inv) {
                        ctx.trace_with(w, sim, || TraceEvent::Checkpoint {
                            task: ctx.spec.label.clone(),
                            chain: work.chain,
                            inv: inv.id.raw(),
                            bytes: ckpt,
                            remaining_secs: leftover,
                        });
                    }
                    let alive = ctx.complete(w, sim, &inv);
                    let next = if alive {
                        ctx.run(w).stats.checkpoints += 1;
                        Work {
                            read: 0.0,
                            needs_ckpt_read: true,
                            compute: leftover,
                            first_segment: false,
                            ..work
                        }
                    } else {
                        // Killed mid-checkpoint: the state never persisted;
                        // redo this segment's compute from the last good
                        // checkpoint (if any).
                        let had_ckpt = ctx.run(w).stats.checkpoints > 0;
                        Work {
                            read: 0.0,
                            needs_ckpt_read: had_ckpt,
                            compute: segment_compute,
                            first_segment: false,
                            ..work
                        }
                    };
                    run_segment(w, sim, ctx, next);
                });
            } else {
                write_phase(
                    w,
                    sim,
                    ctx,
                    inv,
                    Work {
                        compute: 0.0,
                        ..work
                    },
                );
            }
        },
    );
}

/// Writes as much of the remaining output as fits this window, chaining to
/// a fresh invocation when bytes remain (multipart upload), and finishing
/// the component when everything has landed.
fn write_phase<W: CloudWorld>(
    w: &mut W,
    sim: &mut Simulation<W>,
    ctx: Ctx,
    inv: Invocation,
    work: Work,
) {
    let cap = w.cloud().platform(ctx.tier).config().per_function_bps;
    if work.write <= 0.0 {
        let _ = ctx.complete(w, sim, &inv);
        finish_component(w, sim, &ctx);
        return;
    }
    let budget_secs = window_end(&ctx, &inv).saturating_since(sim.now()).as_secs();
    let chunk = work.write.min(budget_secs * cap);
    if chunk <= 0.0 {
        // Window exhausted before any bytes could move: fresh invocation.
        let _ = ctx.complete(w, sim, &inv);
        run_segment(
            w,
            sim,
            ctx,
            Work {
                first_segment: false,
                ..work
            },
        );
        return;
    }
    let write_begin = sim.now();
    ctx.clone().store_io(w, sim, true, chunk, move |w, sim, _| {
        {
            let a = ctx.run(w);
            a.stats.io_secs += sim.now().since(write_begin).as_secs();
            a.stats.bytes_written += chunk;
        }
        let alive = ctx.complete(w, sim, &inv);
        // A killed function's part upload never lands; redo the chunk.
        let rest = if alive {
            work.write - chunk
        } else {
            work.write
        };
        if rest > 1e-6 {
            run_segment(
                w,
                sim,
                ctx,
                Work {
                    write: rest,
                    first_segment: false,
                    ..work
                },
            );
        } else {
            finish_component(w, sim, &ctx);
        }
    });
}

/// Marks one component done, firing the task callback after the last one.
fn finish_component<W: CloudWorld>(w: &mut W, sim: &mut Simulation<W>, ctx: &Ctx) {
    let runs = &mut w.cloud().faas_runs;
    let a = runs.get_mut(ctx.run);
    a.remaining -= 1;
    if a.remaining == 0 {
        a.stats.end = sim.now();
        let a = runs.remove(ctx.run);
        (a.done)(w, sim, a.stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::pricing::{FaasConfig, InstanceType, StorageConfig};
    use crate::world::testing::{world, World};

    type W = World<Option<FaasRunStats>>;

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
    fn run_in(sim: &mut Simulation<W>, w: &mut W, spec: FaasTaskSpec) -> FaasRunStats {
        sim.schedule_now(move |w: &mut W, sim| {
            run_task_on_faas(
                w,
                sim,
                None,
                spec,
                &SeedSource::new(5),
                |w: &mut W, _, stats| {
                    w.out = Some(stats);
                },
            );
        });
        sim.run(w);
        w.out.take().expect("task completed")
    }

    fn run(faas: FaasConfig, storage: StorageConfig, spec: FaasTaskSpec) -> FaasRunStats {
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
