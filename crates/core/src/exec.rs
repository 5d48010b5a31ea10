//! The hybrid workflow executor.
//!
//! Executes a workflow phase by phase (the DAG's precedence order), running
//! each task on the platform its [`PlacementPlan`] assigns, and routing
//! inter-platform data through the object store:
//!
//! * a task's output lives on the cluster **master** when both it and all
//!   of its consumers run on the cluster, and in the **object store**
//!   otherwise (serverless functions are stateless — §3);
//! * VM tasks whose producers wrote to the store fetch over the WAN;
//! * initial input is staged in the store whenever any task runs
//!   serverless (the "S3 bucket maintained during execution" of §4, whose
//!   occupancy is billed);
//! * serverless tasks of the *next* phase are pre-warmed while the current
//!   phase runs (§3's prefetching mitigation);
//! * the cluster bills node time for the whole run iff the plan uses it.

use crate::chaos::ChaosSpec;
use crate::config::{tier_key, CloudEnv, MashupConfig, Sizing};
use crate::pdc::{Pdc, PdcReport};
use crate::placement::{PlacementPlan, Platform};
use crate::report::{TaskReport, WorkflowReport};
use mashup_analyze::{AnalysisError, Code, Diagnostic, Location};
use mashup_cloud::{ClusterTaskSpec, FaasPlatform, FaasTaskSpec};
use mashup_dag::{TaskRef, Workflow};
use mashup_sim::{shared, Shared, SimTime, Simulation, TraceEvent, Tracer};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The storage key under which a task's output is registered.
fn output_key(task_name: &str) -> String {
    format!("out:{task_name}")
}

/// The storage key of the staged initial dataset.
fn initial_key(workflow: &str) -> String {
    format!("initial:{workflow}")
}

/// Where a task's output lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OutputLocation {
    /// On the cluster master (pure-VM producer/consumer chains).
    Master,
    /// In the object store (any serverless involvement).
    Store,
}

/// Computes each task's output location under `plan` (see module docs).
/// Walks the dependency lists rather than the consumer index, so it never
/// builds an arena on the executor's workflow copy.
fn output_locations(w: &Workflow, plan: &PlacementPlan) -> Vec<Vec<OutputLocation>> {
    let mut locs: Vec<Vec<OutputLocation>> = w
        .phases
        .iter()
        .map(|p| vec![OutputLocation::Master; p.tasks.len()])
        .collect();
    for r in w.task_refs() {
        // Full coverage is guaranteed by diagnostic M201.
        if plan.platform(r).expect("plan covers workflow") == Platform::Serverless {
            locs[r.phase][r.task] = OutputLocation::Store;
            for dep in &w.task(r).deps {
                locs[dep.producer.phase][dep.producer.task] = OutputLocation::Store;
            }
        }
    }
    locs
}

/// Flat id of each phase's first task: task `r` has flat id
/// `base[r.phase] + r.task`, the phase-major numbering of `TaskArena`.
pub(crate) fn phase_bases(w: &Workflow) -> Vec<usize> {
    w.phases
        .iter()
        .scan(0, |next, p| {
            let base = *next;
            *next += p.tasks.len();
            Some(base)
        })
        .collect()
}

struct Driver {
    cfg: MashupConfig,
    /// The executor's copy of the workflow. It carries no arena index, and
    /// building one cost ~15% of a 100k-task run, so flat ids come from
    /// `phase_base` instead.
    workflow: Arc<Workflow>,
    /// See [`phase_bases`].
    phase_base: Vec<usize>,
    plan: PlacementPlan,
    /// Per-task memory tiers for a sized run; `None` runs every serverless
    /// task on the base platform (the original engine, byte-identical).
    sizing: Option<Sizing>,
    locations: Vec<Vec<OutputLocation>>,
    env_handles: EnvHandles,
    tracer: Tracer,
    /// Finished tasks' reports in completion order, unnamed: names are
    /// filled in from `completed` once the event loop is over.
    reports: Vec<TaskReport>,
    /// The task behind each entry of `reports`.
    completed: Vec<TaskRef>,
    remaining_in_phase: usize,
    finished_at: Option<SimTime>,
    /// Online replanning controller; `None` unless the config's chaos spec
    /// turns `adaptive` on.
    chaos: Option<ChaosCtx>,
}

/// Phase-boundary replanning state. The controller consumes only the flight
/// recorder's view of the run — surviving spot capacity and per-phase
/// elapsed time — draws no randomness, and emits nothing until a trigger
/// fires, so an adaptive run over a fault-free environment replays the
/// static run byte-for-byte.
struct ChaosCtx {
    spec: ChaosSpec,
    /// Node capacity the active plan assumes; updated after each replan.
    planned_nodes: usize,
    /// Baseline PDC report for [`Pdc::replan_capacity`], computed on first
    /// trigger (a full `decide` over the chaos-stripped config in its own
    /// profiling environments — invisible to the production run's streams).
    baseline: Option<PdcReport>,
    /// When the currently-running phase started.
    phase_started: SimTime,
    /// Store keys already migrated master -> store by earlier replans.
    uploaded: std::collections::BTreeSet<String>,
}

impl Driver {
    /// Task `r`'s flat id (see [`phase_bases`]).
    fn flat(&self, r: TaskRef) -> usize {
        self.phase_base[r.phase] + r.task
    }

    /// The FaaS platform a task runs on: its sizing-assigned tier's platform
    /// when one was provisioned, the base platform otherwise.
    fn faas_for_task(&self, r: TaskRef) -> &FaasPlatform {
        if let Some(sizing) = &self.sizing {
            let key = tier_key(sizing.tier(self.flat(r)));
            if let Some(platform) = self.env_handles.tier_faas.get(&key) {
                return platform;
            }
        }
        &self.env_handles.faas
    }
}

/// Handles into the environment (the `Simulation` itself stays outside and
/// is threaded through event callbacks). Task spawns clone only the
/// handles they use.
struct EnvHandles {
    cluster: mashup_cloud::VmCluster,
    faas: mashup_cloud::FaasPlatform,
    /// Non-base tier platforms of a sized run (empty otherwise).
    tier_faas: BTreeMap<u32, FaasPlatform>,
    store: mashup_cloud::ObjectStore,
    seeds: mashup_sim::SeedSource,
}

/// Executes `workflow` under `plan` in a fresh environment built from
/// `cfg`, returning the full report. `strategy` labels the report.
///
/// Refuses error-diagnosed inputs with a typed [`AnalysisError`] before
/// any environment is built.
pub fn try_execute(
    cfg: &MashupConfig,
    workflow: &Workflow,
    plan: &PlacementPlan,
    strategy: &str,
) -> Result<WorkflowReport, AnalysisError> {
    try_execute_with(cfg, workflow, plan, None, strategy, &Tracer::off())
}

/// [`try_execute`] with an optional memory-tier `sizing` and a flight
/// recorder.
///
/// With a sizing, each serverless task runs on the memory tier it assigns
/// (see [`Sizing`]): per-tier FaaS platforms are provisioned up front, each
/// with its own warm pools and price point, and the executor routes every
/// invocation, pre-warm, and burst-capacity read through the task's tier.
/// A sizing that keeps every task at the provider's base tier reproduces
/// the unsized run bit-for-bit. `tracer` is attached to every mechanism
/// once the tiers exist; emission never touches simulated state.
pub fn try_execute_with(
    cfg: &MashupConfig,
    workflow: &Workflow,
    plan: &PlacementPlan,
    sizing: Option<&Sizing>,
    strategy: &str,
    tracer: &Tracer,
) -> Result<WorkflowReport, AnalysisError> {
    match sizing {
        Some(sizing) => preflight_sized(cfg, workflow, plan, sizing)?,
        None => {
            crate::analysis::preflight(cfg, workflow, Some(plan))?;
        }
    }
    let mut env = CloudEnv::new(cfg);
    if let Some(sizing) = sizing {
        env.provision_tiers(cfg, sizing);
    }
    env.attach_tracer(tracer.clone());
    Ok(execute_in_unchecked(
        &mut env,
        cfg,
        &Arc::new(workflow.clone()),
        plan,
        sizing,
        strategy,
    )
    .0)
}

/// The preflight gate for sized runs. The standard checks run with the
/// function cap lifted to the sizing's largest tier (M203 against the base
/// cap would falsely refuse tasks a bigger tier accommodates); the cap is
/// then enforced per task against the tier the sizing actually assigns.
/// The M202 window check keeps the base tier's core speed — slower tiers
/// stretch compute, but the checkpoint-chaining runtime absorbs that.
fn preflight_sized(
    cfg: &MashupConfig,
    workflow: &Workflow,
    plan: &PlacementPlan,
    sizing: &Sizing,
) -> Result<(), AnalysisError> {
    assert_eq!(
        sizing.tiers_gb.len(),
        workflow.task_count(),
        "sizing must assign a tier to every task of '{}'",
        workflow.name
    );
    let mut lifted = cfg.clone();
    let max_tier = sizing
        .distinct_tiers()
        .last()
        .copied()
        .unwrap_or(cfg.provider.faas.memory_gb);
    lifted.provider.faas.memory_gb = lifted.provider.faas.memory_gb.max(max_tier);
    crate::analysis::preflight(&lifted, workflow, Some(plan))?;
    let mut diags = Vec::new();
    for r in workflow.task_refs() {
        if plan.platform(r) != Ok(Platform::Serverless) {
            continue;
        }
        let t = workflow.task(r);
        let flat = workflow.arena().flat(r).expect("ref comes from task_refs");
        let tier = sizing.tier(flat);
        if t.profile.memory_gb > tier {
            diags.push(
                Diagnostic::new(
                    Code::FaasMemoryExceeded,
                    Location::Task {
                        phase: r.phase,
                        task: r.task,
                        name: t.name.clone(),
                    },
                    format!(
                        "component needs {:.2} GiB but its sizing tier is {tier:.2} GiB",
                        t.profile.memory_gb
                    ),
                )
                .with_help("assign a larger memory tier or place the task on the VM cluster"),
            );
        }
    }
    mashup_analyze::into_result(diags)?;
    Ok(())
}

/// [`try_execute`] in a caller-provided environment (lets the PDC reuse
/// one environment across probes, and tests inject failure-laden stores).
pub fn try_execute_in(
    env: &mut CloudEnv,
    cfg: &MashupConfig,
    workflow: &Workflow,
    plan: &PlacementPlan,
    strategy: &str,
) -> Result<WorkflowReport, AnalysisError> {
    crate::analysis::preflight(cfg, workflow, Some(plan))?;
    Ok(execute_in_unchecked(env, cfg, &Arc::new(workflow.clone()), plan, None, strategy).0)
}

/// The executor proper. Callers arrive through the preflight gate, so the
/// plan covers the workflow (M201), every serverless task fits the function
/// memory cap (M203) and the checkpoint-chaining window (M202), and every
/// profile field is finite and in range (M105). The event callbacks share
/// `workflow`, so a caller running several passes clones it once.
///
/// Returns the report and, for each entry of its `tasks`, the task it
/// describes.
pub(crate) fn execute_in_unchecked(
    env: &mut CloudEnv,
    cfg: &MashupConfig,
    workflow: &Arc<Workflow>,
    plan: &PlacementPlan,
    sizing: Option<&Sizing>,
    strategy: &str,
) -> (WorkflowReport, Vec<TaskRef>) {
    let locations = output_locations(workflow, plan);

    // Install the seeded fault schedule before billing starts: spot pools
    // must wrap the whole billing window for piecewise settlement.
    if let Some(chaos) = cfg.chaos.as_ref() {
        if !chaos.plan.is_empty() {
            chaos.plan.install(&mut env.sim, &env.cluster, &env.store);
        }
    }

    if plan.uses_cluster() {
        env.cluster.start_billing(env.sim.now());
    }
    if plan.uses_serverless() {
        // Stage the initial dataset in the store so stateless initial tasks
        // can read it; its occupancy is billed for the run's duration.
        env.store.register_object(
            env.sim.now(),
            initial_key(&workflow.name),
            workflow.initial_input_bytes,
        );
    }

    let driver = shared(Driver {
        cfg: cfg.clone(),
        workflow: Arc::clone(workflow),
        phase_base: phase_bases(workflow),
        plan: plan.clone(),
        sizing: sizing.cloned(),
        locations,
        env_handles: EnvHandles {
            cluster: env.cluster.clone(),
            faas: env.faas.clone(),
            tier_faas: env.tier_platforms().clone(),
            store: env.store.clone(),
            seeds: env.seeds,
        },
        tracer: env.sim.tracer().clone(),
        reports: Vec::with_capacity(workflow.task_count()),
        completed: Vec::with_capacity(workflow.task_count()),
        remaining_in_phase: 0,
        finished_at: None,
        chaos: cfg.chaos.as_ref().filter(|c| c.adaptive).map(|c| ChaosCtx {
            spec: c.clone(),
            planned_nodes: cfg.cluster.nodes,
            baseline: None,
            phase_started: SimTime::ZERO,
            uploaded: std::collections::BTreeSet::new(),
        }),
    });

    let d2 = driver.clone();
    env.sim.schedule_now(move |sim| run_phase(sim, d2, 0));
    env.sim.run();

    let finished_at = driver
        .borrow()
        .finished_at
        .expect("workflow execution completed");
    // A replan can add or shed cluster usage mid-run; billing must close if
    // it was ever opened, and the report carries the plan that actually ran.
    let final_plan = driver.borrow().plan.clone();
    let used_cluster = plan.uses_cluster() || final_plan.uses_cluster();
    if used_cluster {
        env.cluster.stop_billing(finished_at);
    }
    env.store.finalize(finished_at);

    // Names are allocated only now, after the event loop. Built while it
    // ran, long-lived name strings interleave with the loop's short-lived
    // allocations and fragment the heap: at 100k tasks every later layer,
    // DAG build included, measured about 20% slower.
    let (mut tasks, completed) = {
        let mut d = driver.borrow_mut();
        (
            std::mem::take(&mut d.reports),
            std::mem::take(&mut d.completed),
        )
    };
    for (report, &r) in tasks.iter_mut().zip(&completed) {
        report.name = workflow.task(r).name.clone();
    }
    let report = WorkflowReport {
        workflow: workflow.name.clone(),
        strategy: strategy.into(),
        cluster_nodes: if used_cluster { cfg.cluster.nodes } else { 0 },
        makespan_secs: finished_at.as_secs(),
        expense: env.meter.expense(cfg.provider.storage.price_per_gb_month),
        plan: final_plan,
        tasks,
    };
    (report, completed)
}

fn run_phase(sim: &mut Simulation, driver: Shared<Driver>, phase_idx: usize) {
    let (n_phases, n_tasks) = {
        let d = driver.borrow();
        let n = d.workflow.phases.len();
        if phase_idx >= n {
            (n, 0)
        } else {
            (n, d.workflow.phases[phase_idx].tasks.len())
        }
    };
    if phase_idx >= n_phases {
        driver.borrow_mut().finished_at = Some(sim.now());
        return;
    }
    {
        let mut d = driver.borrow_mut();
        d.remaining_in_phase = n_tasks;
        if let Some(ctx) = d.chaos.as_mut() {
            ctx.phase_started = sim.now();
        }
    }
    driver.borrow().tracer.emit(
        sim.now(),
        TraceEvent::PhaseStart {
            phase: phase_idx,
            tasks: n_tasks,
        },
    );

    prewarm_next_phase(sim, &driver, phase_idx);

    // Round-robin sub-cluster assignment for the phase's VM tasks.
    let mut next_sub = 0usize;
    for ti in 0..n_tasks {
        let r = TaskRef::new(phase_idx, ti);
        let platform = driver
            .borrow()
            .plan
            .platform(r)
            // Full coverage is guaranteed by diagnostic M201.
            .expect("plan covers workflow");
        match platform {
            Platform::Serverless => spawn_serverless(sim, &driver, r),
            Platform::VmCluster => {
                let subclusters = driver.borrow().cfg.cluster.subclusters;
                let sub = next_sub % subclusters;
                next_sub += 1;
                spawn_on_cluster(sim, &driver, r, sub);
            }
        }
    }
}

fn prewarm_next_phase(sim: &mut Simulation, driver: &Shared<Driver>, phase_idx: usize) {
    // Pre-warming targets each task's own platform: warm pools live per
    // tier (a 0.5 GB microVM cannot serve a 2 GB function), so both the
    // burst threshold and the warm-up go to the tier's platform.
    let to_warm: Vec<(FaasPlatform, String, usize)> = {
        let d = driver.borrow();
        if !d.cfg.prewarm || phase_idx + 1 >= d.workflow.phases.len() {
            Vec::new()
        } else {
            d.workflow.phases[phase_idx + 1]
                .tasks
                .iter()
                .enumerate()
                .filter(|&(ti, _)| {
                    d.plan.platform(TaskRef::new(phase_idx + 1, ti)) == Ok(Platform::Serverless)
                })
                .filter_map(|(ti, t)| {
                    let faas = d.faas_for_task(TaskRef::new(phase_idx + 1, ti));
                    if t.components <= faas.config().burst_capacity {
                        return None;
                    }
                    let key = t
                        .profile
                        .code_family
                        .clone()
                        .unwrap_or_else(|| t.name.clone());
                    Some((faas.clone(), key, t.components.min(d.cfg.prewarm_cap)))
                })
                .collect()
        }
    };
    for (faas, key, count) in to_warm {
        faas.prewarm(sim, key, count);
    }
}

/// Sum of per-component input GET requests implied by the dependency
/// patterns (1 for initial tasks reading the staged dataset).
pub(crate) fn input_requests(w: &Workflow, r: TaskRef) -> u64 {
    let t = w.task(r);
    if t.deps.is_empty() {
        return 1;
    }
    t.deps
        .iter()
        .map(|d| {
            let p = w.task(d.producer);
            d.pattern.fan_in_degree(p.components, t.components) as u64
        })
        .sum::<u64>()
        .max(1)
}

fn spawn_serverless(sim: &mut Simulation, driver: &Shared<Driver>, r: TaskRef) {
    let (spec, store, seeds, faas) = {
        let d = driver.borrow();
        let w = &d.workflow;
        let t = w.task(r);
        // Statelessness sanity check: everything this task reads must
        // already sit in the store.
        if t.deps.is_empty() {
            d.env_handles.store.assert_present(&initial_key(&w.name));
        } else {
            for dep in &t.deps {
                d.env_handles
                    .store
                    .assert_present(&output_key(&w.task(dep.producer).name));
            }
        }
        let label = t
            .profile
            .code_family
            .clone()
            .unwrap_or_else(|| t.name.clone());
        let spec = FaasTaskSpec {
            label,
            components: t.components,
            compute_secs: t.profile.compute_secs_serverless(),
            input_bytes: t.profile.input_bytes,
            output_bytes: t.profile.output_bytes,
            io_requests: input_requests(w, r),
            checkpoint_bytes: t.profile.checkpoint_bytes,
            jitter: t.profile.runtime_jitter,
            memory_gb: t.profile.memory_gb,
            checkpoint_margin_secs: d.cfg.margin_for(t.profile.checkpoint_bytes),
        };
        trace_task_start(&d, sim.now(), r, "serverless");
        (
            spec,
            d.env_handles.store.clone(),
            d.env_handles.seeds,
            d.faas_for_task(r).clone(),
        )
    };
    let driver2 = driver.clone();
    let store2 = store.clone();
    mashup_cloud::run_task_on_faas(sim, &faas, &store, spec, &seeds, move |sim, stats| {
        let (components, key, bytes) = {
            let d = driver2.borrow();
            let t = d.workflow.task(r);
            (
                t.components,
                output_key(&t.name),
                t.components as f64 * t.profile.output_bytes,
            )
        };
        // Serverless outputs always live in the store.
        store2.register_object(sim.now(), key, bytes);
        let report = TaskReport {
            name: String::new(),
            platform: Platform::Serverless,
            phase: r.phase,
            components,
            start_secs: stats.start.as_secs(),
            end_secs: stats.end.as_secs(),
            compute_secs: stats.compute_secs,
            io_secs: stats.io_secs,
            cold_start_secs: stats.cold_start_secs,
            scaling_secs: stats.scaling_secs(),
            checkpoints: stats.checkpoints,
            n_cold: stats.n_cold,
            n_warm: stats.n_warm,
        };
        finish_task(sim, driver2, r, report);
    });
}

fn spawn_on_cluster(sim: &mut Simulation, driver: &Shared<Driver>, r: TaskRef, subcluster: usize) {
    let (spec, cluster, store, to_store) = {
        let d = driver.borrow();
        let w = &d.workflow;
        let t = w.task(r);
        let to_store = d.locations[r.phase][r.task] == OutputLocation::Store;
        // Input routing: phase-0 tasks ingest the initial dataset from the
        // sub-cluster master (Algorithm 1 line 12); later phases pull from
        // other workers over the fabric — or from the store over the WAN
        // when any producer's output lives there.
        let from_store = t
            .deps
            .iter()
            .any(|dep| d.locations[dep.producer.phase][dep.producer.task] == OutputLocation::Store);
        if from_store {
            for dep in &t.deps {
                if d.locations[dep.producer.phase][dep.producer.task] == OutputLocation::Store {
                    d.env_handles
                        .store
                        .assert_present(&output_key(&w.task(dep.producer).name));
                }
            }
        }
        let input = if from_store {
            mashup_cloud::ClusterInput::Wan
        } else if t.deps.is_empty() {
            mashup_cloud::ClusterInput::Master
        } else {
            mashup_cloud::ClusterInput::Fabric
        };
        let output = if to_store {
            mashup_cloud::ClusterOutput::Wan
        } else {
            mashup_cloud::ClusterOutput::Fabric
        };
        let spec = ClusterTaskSpec {
            label: t.name.clone(),
            components: t.components,
            compute_secs: t.profile.compute_secs_vm,
            input_bytes: t.profile.input_bytes,
            output_bytes: t.profile.output_bytes,
            io_requests: input_requests(w, r),
            contention_coeff: t.profile.vm_local_contention,
            memory_gb: t.profile.memory_gb,
            jitter: t.profile.runtime_jitter,
            input,
            output,
            subcluster,
        };
        trace_task_start(&d, sim.now(), r, "vm");
        (
            spec,
            d.env_handles.cluster.clone(),
            d.env_handles.store.clone(),
            to_store,
        )
    };
    let driver2 = driver.clone();
    let store2 = store.clone();
    cluster.run_task(sim, Some(&store), spec, move |sim, stats| {
        let (components, upload) = {
            let d = driver2.borrow();
            let t = d.workflow.task(r);
            let upload = to_store.then(|| {
                (
                    output_key(&t.name),
                    t.components as f64 * t.profile.output_bytes,
                )
            });
            (t.components, upload)
        };
        if let Some((key, bytes)) = upload {
            store2.register_object(sim.now(), key, bytes);
        }
        let report = TaskReport {
            name: String::new(),
            platform: Platform::VmCluster,
            phase: r.phase,
            components,
            start_secs: stats.start.as_secs(),
            end_secs: stats.end.as_secs(),
            compute_secs: stats.compute_secs,
            io_secs: stats.io_secs,
            cold_start_secs: 0.0,
            scaling_secs: 0.0,
            checkpoints: 0,
            n_cold: 0,
            n_warm: 0,
        };
        finish_task(sim, driver2, r, report);
    });
}

/// Records a task's start; builds the event (and its name copy) only when
/// a recorder is attached.
fn trace_task_start(d: &Driver, now: SimTime, r: TaskRef, platform: &str) {
    if d.tracer.is_on() {
        let t = d.workflow.task(r);
        d.tracer.emit(
            now,
            TraceEvent::TaskStart {
                task: t.name.clone(),
                phase: r.phase,
                platform: platform.into(),
                components: t.components,
            },
        );
    }
}

fn finish_task(sim: &mut Simulation, driver: Shared<Driver>, r: TaskRef, report: TaskReport) {
    let next_phase = {
        let mut d = driver.borrow_mut();
        if d.tracer.is_on() {
            d.tracer.emit(
                sim.now(),
                TraceEvent::TaskEnd {
                    task: d.workflow.task(r).name.clone(),
                },
            );
        }
        d.reports.push(report);
        d.completed.push(r);
        d.remaining_in_phase -= 1;
        if d.remaining_in_phase == 0 {
            Some(r.phase + 1)
        } else {
            None
        }
    };
    if let Some(p) = next_phase {
        advance_phase(sim, driver, p);
    }
}

/// Crosses a phase barrier into phase `next`, first giving the chaos
/// controller (when one is active) a chance to replan the remaining
/// subgraph. Without a controller this is exactly [`run_phase`]: no extra
/// borrows linger, no events fire, no randomness is drawn.
fn advance_phase(sim: &mut Simulation, driver: Shared<Driver>, next: usize) {
    let trigger = {
        let d = driver.borrow();
        match d.chaos.as_ref() {
            None => None,
            Some(_) if next >= d.workflow.phases.len() => None,
            Some(ctx) => {
                let surviving = d.env_handles.cluster.surviving_nodes();
                if surviving < ctx.planned_nodes {
                    Some(("preemption", surviving))
                } else if ctx.spec.detects_stragglers() {
                    // Provisional: resolved against the baseline envelope
                    // below (which may need computing first).
                    Some(("straggler", surviving))
                } else {
                    None
                }
            }
        }
    };
    let Some((reason, surviving)) = trigger else {
        return run_phase(sim, driver, next);
    };
    ensure_baseline(&driver);
    let confirmed = if reason == "preemption" {
        true
    } else {
        let d = driver.borrow();
        let ctx = d.chaos.as_ref().expect("trigger implies controller");
        let elapsed = sim.now().saturating_since(ctx.phase_started).as_secs();
        let envelope = phase_envelope_secs(&d, next - 1);
        envelope > 0.0 && elapsed > ctx.spec.straggler_factor * envelope
    };
    if confirmed {
        replan_and_run(sim, driver, next, reason, surviving);
    } else {
        run_phase(sim, driver, next);
    }
}

/// Computes the controller's baseline PDC report on first use. `Pdc::new`
/// strips the chaos spec, and the decide runs in its own profiling
/// environments, so the baseline reflects the advertised (fault-free)
/// platform behaviour and leaves the production run's RNG streams and
/// trace untouched.
fn ensure_baseline(driver: &Shared<Driver>) {
    let needs = driver
        .borrow()
        .chaos
        .as_ref()
        .is_some_and(|c| c.baseline.is_none());
    if !needs {
        return;
    }
    let (cfg, workflow) = {
        let d = driver.borrow();
        (d.cfg.clone(), d.workflow.clone())
    };
    let report = Pdc::new(cfg).decide(&workflow);
    if let Some(ctx) = driver.borrow_mut().chaos.as_mut() {
        ctx.baseline = Some(report);
    }
}

/// The planned envelope of a finished phase: the longest expected task
/// duration under the baseline measurements and the *active* plan, with VM
/// times scaled to the capacity the plan assumes. A phase that ran longer
/// than `straggler_factor` times this is a straggler.
fn phase_envelope_secs(d: &Driver, phase_idx: usize) -> f64 {
    let ctx = d.chaos.as_ref().expect("controller active");
    let Some(baseline) = ctx.baseline.as_ref() else {
        return 0.0;
    };
    let nodes = d.cfg.cluster.nodes.max(1) as f64;
    let planned = ctx.planned_nodes.max(1) as f64;
    let mut envelope: f64 = 0.0;
    for ti in 0..d.workflow.phases[phase_idx].tasks.len() {
        let r = TaskRef::new(phase_idx, ti);
        let dec = &baseline.decisions[d.flat(r)];
        let expected = match d.plan.platform(r) {
            Ok(Platform::Serverless) if dec.t_serverless_est_secs.is_finite() => {
                dec.t_serverless_est_secs
            }
            _ => {
                // Same per-node load ratio as `Pdc::replan_capacity`: the
                // baseline VM time stretches only as far as the task's
                // components pack more densely onto the assumed capacity.
                let c = d.workflow.task(r).components as f64;
                dec.t_vm_secs * (c / planned).max(1.0) / (c / nodes).max(1.0)
            }
        };
        envelope = envelope.max(expected);
    }
    envelope
}

/// Replans phases `next..` against `surviving` nodes, adopts the new
/// placement, migrates to the store any master-resident outputs the new
/// placement reads from it, and then starts the phase. Re-placement never
/// rewrites history: finished phases keep their reports and locations.
fn replan_and_run(
    sim: &mut Simulation,
    driver: Shared<Driver>,
    next: usize,
    reason: &'static str,
    surviving: usize,
) {
    let uploads: Vec<(String, f64, u64)> = {
        let mut d = driver.borrow_mut();
        let d = &mut *d;
        let ctx = d.chaos.as_mut().expect("controller active");
        let baseline = ctx.baseline.as_ref().expect("ensured by advance_phase");
        let report = Pdc::new(d.cfg.clone()).replan_capacity(baseline, &d.workflow, surviving);
        let n_phases = d.workflow.phases.len();
        let mut moved = 0usize;
        for pi in next..n_phases {
            for ti in 0..d.workflow.phases[pi].tasks.len() {
                let r = TaskRef::new(pi, ti);
                let target = report.plan.platform(r).expect("replan covers workflow");
                if d.plan.platform(r) != Ok(target) {
                    moved += 1;
                }
            }
        }
        d.tracer.emit(
            sim.now(),
            TraceEvent::Replan {
                phase: next,
                reason: reason.to_string(),
                nodes_before: ctx.planned_nodes,
                nodes_after: surviving,
                moved,
            },
        );
        ctx.planned_nodes = surviving;
        if moved == 0 {
            Vec::new()
        } else {
            let was_serverless = d.plan.uses_serverless();
            for pi in next..n_phases {
                for ti in 0..d.workflow.phases[pi].tasks.len() {
                    let r = TaskRef::new(pi, ti);
                    let target = report.plan.platform(r).expect("replan covers workflow");
                    d.plan.set(r, target);
                }
            }
            // Completed phases keep their historical output locations (the
            // master copies exist and stay readable over the fabric); only
            // future rows follow the new placement.
            let fresh = output_locations(&d.workflow, &d.plan);
            d.locations[next..n_phases].clone_from_slice(&fresh[next..n_phases]);
            // A plan that newly reaches a platform needs what the static
            // setup provisioned at time zero: cluster billing (idempotent)
            // and the staged initial dataset for store-reading sources.
            if d.plan.uses_cluster() {
                d.env_handles.cluster.start_billing(sim.now());
            }
            if d.plan.uses_serverless() && !was_serverless {
                d.env_handles.store.register_object(
                    sim.now(),
                    initial_key(&d.workflow.name),
                    d.workflow.initial_input_bytes,
                );
            }
            // Outputs that finished on a master but are now read by
            // serverless consumers must migrate into the store first
            // (master -> store over the WAN, billed PUTs).
            let mut uploads = Vec::new();
            for pi in next..n_phases {
                for ti in 0..d.workflow.phases[pi].tasks.len() {
                    let r = TaskRef::new(pi, ti);
                    if d.plan.platform(r) != Ok(Platform::Serverless) {
                        continue;
                    }
                    for dep in &d.workflow.task(r).deps {
                        let p = dep.producer;
                        if p.phase >= next {
                            continue; // not run yet: routed by `locations`
                        }
                        if d.locations[p.phase][p.task] == OutputLocation::Store {
                            continue; // already registered at completion
                        }
                        let pt = d.workflow.task(p);
                        let key = output_key(&pt.name);
                        if !ctx.uploaded.insert(key.clone()) {
                            continue; // migrated by an earlier replan
                        }
                        uploads.push((
                            key,
                            pt.components as f64 * pt.profile.output_bytes,
                            pt.components as u64,
                        ));
                    }
                }
            }
            uploads
        }
    };
    if uploads.is_empty() {
        return run_phase(sim, driver, next);
    }
    let (store, wan_bps) = {
        let d = driver.borrow();
        (d.env_handles.store.clone(), d.cfg.cluster.instance.wan_bps)
    };
    // Barrier: the phase starts once every migration has landed.
    let pending = shared(uploads.len());
    for (key, bytes, requests) in uploads {
        let store2 = store.clone();
        let driver2 = driver.clone();
        let pending2 = pending.clone();
        store.write(sim, bytes, requests, Some(wan_bps), move |sim, _| {
            store2.register_object(sim.now(), key, bytes);
            let remaining = {
                let mut left = pending2.borrow_mut();
                *left -= 1;
                *left
            };
            if remaining == 0 {
                run_phase(sim, driver2, next);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mashup_dag::{DependencyPattern, Task, TaskProfile, WorkflowBuilder};

    fn two_phase_workflow() -> Workflow {
        let mut b = WorkflowBuilder::new("test-wf");
        b.initial_input_bytes(1.0e9);
        b.begin_phase();
        let a = b.add_task(Task::new(
            "wide",
            64,
            TaskProfile::trivial().compute(5.0).io(1.0e7, 1.0e7),
        ));
        b.begin_phase();
        let m = b.add_task(Task::new(
            "merge",
            1,
            TaskProfile::trivial().compute(10.0).io(6.4e8, 1.0e7),
        ));
        b.depend(m, a, DependencyPattern::AllToAll);
        b.build().expect("valid")
    }

    fn cfg(nodes: usize) -> MashupConfig {
        MashupConfig::aws(nodes)
    }

    fn execute(cfg: &MashupConfig, w: &Workflow, plan: &PlacementPlan, s: &str) -> WorkflowReport {
        try_execute(cfg, w, plan, s).expect("clean inputs")
    }

    fn execute_traced(
        cfg: &MashupConfig,
        w: &Workflow,
        plan: &PlacementPlan,
        s: &str,
        tracer: &Tracer,
    ) -> WorkflowReport {
        try_execute_with(cfg, w, plan, None, s, tracer).expect("clean inputs")
    }

    fn try_execute_sized(
        cfg: &MashupConfig,
        w: &Workflow,
        plan: &PlacementPlan,
        sizing: &Sizing,
        s: &str,
    ) -> Result<WorkflowReport, AnalysisError> {
        try_execute_with(cfg, w, plan, Some(sizing), s, &Tracer::off())
    }

    fn execute_sized(
        cfg: &MashupConfig,
        w: &Workflow,
        plan: &PlacementPlan,
        sizing: &Sizing,
        s: &str,
    ) -> WorkflowReport {
        try_execute_sized(cfg, w, plan, sizing, s).expect("clean inputs")
    }

    #[test]
    fn all_vm_plan_runs_without_storage() {
        let w = two_phase_workflow();
        let plan = PlacementPlan::uniform(&w, Platform::VmCluster);
        let report = execute(&cfg(8), &w, &plan, "traditional");
        assert_eq!(report.tasks.len(), 2);
        assert!(report.makespan_secs > 0.0);
        // Pure VM: no serverless or storage expense.
        assert_eq!(report.expense.faas_dollars, 0.0);
        assert_eq!(report.expense.storage_dollars, 0.0);
        assert!(report.expense.vm_dollars > 0.0);
        // Phase order respected.
        let wide = report.task("wide").expect("exists");
        let merge = report.task("merge").expect("exists");
        assert!(merge.start_secs >= wide.end_secs - 1e-9);
    }

    #[test]
    fn all_serverless_plan_bills_no_vm() {
        let w = two_phase_workflow();
        let plan = PlacementPlan::uniform(&w, Platform::Serverless);
        let report = execute(&cfg(8), &w, &plan, "serverless-only");
        assert_eq!(report.expense.vm_dollars, 0.0);
        assert!(report.expense.faas_dollars > 0.0);
        assert!(report.expense.storage_dollars > 0.0);
        assert_eq!(report.cluster_nodes, 0);
        let wide = report.task("wide").expect("exists");
        assert!(wide.n_cold + wide.n_warm >= 64);
        assert!(wide.cold_start_secs > 0.0);
    }

    #[test]
    fn hybrid_crosses_platform_boundary_through_store() {
        let w = two_phase_workflow();
        let mut plan = PlacementPlan::uniform(&w, Platform::VmCluster);
        plan.set(TaskRef::new(0, 0), Platform::Serverless);
        let report = execute(&cfg(8), &w, &plan, "hybrid");
        // Both platforms billed.
        assert!(report.expense.vm_dollars > 0.0);
        assert!(report.expense.faas_dollars > 0.0);
        let wide = report.task("wide").expect("exists");
        let merge = report.task("merge").expect("exists");
        assert_eq!(wide.platform, Platform::Serverless);
        assert_eq!(merge.platform, Platform::VmCluster);
        // The VM merge waited for the serverless producer.
        assert!(merge.start_secs >= wide.end_secs - 1e-9);
        // The merge read through the WAN: nonzero I/O time.
        assert!(merge.io_secs > 0.0);
    }

    #[test]
    fn vm_producer_feeding_serverless_consumer_uploads_output() {
        let w = two_phase_workflow();
        let mut plan = PlacementPlan::uniform(&w, Platform::VmCluster);
        plan.set(TaskRef::new(1, 0), Platform::Serverless);
        let report = execute(&cfg(8), &w, &plan, "hybrid");
        let wide = report.task("wide").expect("exists");
        // The VM producer wrote its output to the store over the WAN.
        assert_eq!(wide.platform, Platform::VmCluster);
        assert!(wide.io_secs > 0.0);
        assert!(report.expense.storage_dollars > 0.0);
    }

    #[test]
    fn larger_cluster_shrinks_vm_makespan() {
        let w = two_phase_workflow();
        let plan = PlacementPlan::uniform(&w, Platform::VmCluster);
        let small = execute(&cfg(2), &w, &plan, "traditional");
        let large = execute(&cfg(32), &w, &plan, "traditional");
        assert!(large.makespan_secs < small.makespan_secs);
    }

    #[test]
    fn deterministic_across_runs() {
        let w = two_phase_workflow();
        let plan = PlacementPlan::uniform(&w, Platform::Serverless);
        let a = execute(&cfg(4), &w, &plan, "s");
        let b = execute(&cfg(4), &w, &plan, "s");
        assert_eq!(a.makespan_secs, b.makespan_secs);
        assert_eq!(a.expense, b.expense);
    }

    #[test]
    fn inert_chaos_spec_replays_the_static_run_byte_for_byte() {
        use mashup_cloud::FaultPlan;
        use mashup_sim::Tracer;
        let w = two_phase_workflow();
        let plan = PlacementPlan::uniform(&w, Platform::VmCluster);
        let run = |cfg: &MashupConfig| {
            let tracer = Tracer::new();
            let report = execute_traced(cfg, &w, &plan, "t", &tracer);
            (report, tracer.take())
        };
        let (base_report, base_trace) = run(&cfg(4));
        // Controller on over a fault-free environment: nothing triggers,
        // nothing diverges — same trace, same report.
        let adaptive = cfg(4).with_chaos(
            ChaosSpec::new(FaultPlan::empty(1))
                .with_adaptive(true)
                .with_straggler_factor(2.0),
        );
        let (a_report, a_trace) = run(&adaptive);
        assert_eq!(base_report.makespan_secs, a_report.makespan_secs);
        assert_eq!(base_report.expense, a_report.expense);
        assert_eq!(format!("{base_trace:?}"), format!("{a_trace:?}"));
    }

    #[test]
    fn adaptive_controller_replans_after_preemption() {
        use mashup_cloud::{Fault, FaultPlan};
        use mashup_sim::Tracer;
        let w = two_phase_workflow();
        let plan = PlacementPlan::uniform(&w, Platform::VmCluster);
        let mut fp = FaultPlan::empty(3);
        fp.faults.push(Fault::Preempt {
            at_secs: 3.0,
            node: 1,
        });
        let chaotic = cfg(4).with_chaos(ChaosSpec::new(fp).with_adaptive(true));
        let tracer = Tracer::new();
        let report = execute_traced(&chaotic, &w, &plan, "adaptive", &tracer);
        let records = tracer.take();
        assert_eq!(report.tasks.len(), 2);
        let replan = records
            .iter()
            .find_map(|r| match &r.event {
                TraceEvent::Replan {
                    reason,
                    nodes_before,
                    nodes_after,
                    ..
                } => Some((reason.clone(), *nodes_before, *nodes_after)),
                _ => None,
            })
            .expect("capacity loss must trigger a replan");
        assert_eq!(replan, ("preemption".into(), 4, 3));
        // The killed components retried and the run still finished in order.
        assert!(records
            .iter()
            .any(|r| matches!(&r.event, TraceEvent::CompRetry { .. })));
        let wide = report.task("wide").expect("exists");
        let merge = report.task("merge").expect("exists");
        assert!(merge.start_secs >= wide.end_secs - 1e-9);
    }

    #[test]
    fn straggling_phase_triggers_a_replan() {
        use mashup_cloud::{Fault, FaultPlan};
        use mashup_sim::Tracer;
        let w = two_phase_workflow();
        let plan = PlacementPlan::uniform(&w, Platform::Serverless);
        // A storage latency spike covering phase 0 slows every GET far past
        // the fault-free envelope the baseline predicts.
        let mut fp = FaultPlan::empty(4);
        fp.faults.push(Fault::StorageLatency {
            from_secs: 0.0,
            until_secs: 1.0e6,
            extra_secs: 30.0,
        });
        let chaotic = cfg(4).with_chaos(
            ChaosSpec::new(fp)
                .with_adaptive(true)
                .with_straggler_factor(1.5),
        );
        let tracer = Tracer::new();
        let report = execute_traced(&chaotic, &w, &plan, "adaptive", &tracer);
        let records = tracer.take();
        assert_eq!(report.tasks.len(), 2);
        assert!(
            records.iter().any(|r| matches!(
                &r.event,
                TraceEvent::Replan { reason, .. } if reason == "straggler"
            )),
            "a 30 s/op latency spike must blow the phase envelope"
        );
    }

    #[test]
    fn input_requests_follow_fan_in_degrees() {
        let w = two_phase_workflow();
        // "wide" is initial: exactly one staged-dataset GET.
        assert_eq!(input_requests(&w, TaskRef::new(0, 0)), 1);
        // "merge" fans in over all 64 producer components.
        assert_eq!(input_requests(&w, TaskRef::new(1, 0)), 64);
    }

    #[test]
    fn output_locations_follow_the_placement() {
        let w = two_phase_workflow();
        // All VM: everything stays on the master.
        let vm = PlacementPlan::uniform(&w, Platform::VmCluster);
        let locs = output_locations(&w, &vm);
        assert_eq!(locs[0][0], OutputLocation::Master);
        assert_eq!(locs[1][0], OutputLocation::Master);
        // Serverless consumer forces the producer's output into the store.
        let mut hybrid = PlacementPlan::uniform(&w, Platform::VmCluster);
        hybrid.set(TaskRef::new(1, 0), Platform::Serverless);
        let locs = output_locations(&w, &hybrid);
        assert_eq!(locs[0][0], OutputLocation::Store);
        assert_eq!(locs[1][0], OutputLocation::Store);
    }

    #[test]
    fn base_sizing_reproduces_the_unsized_run_bit_for_bit() {
        let w = two_phase_workflow();
        let plan = PlacementPlan::uniform(&w, Platform::Serverless);
        let cfg = cfg(4);
        let plain = execute(&cfg, &w, &plan, "s");
        let sized = execute_sized(&cfg, &w, &plan, &crate::Sizing::base(&cfg, &w), "s");
        assert_eq!(plain, sized);
    }

    #[test]
    fn bigger_tier_speeds_compute_and_raises_the_rate() {
        let w = two_phase_workflow();
        let plan = PlacementPlan::uniform(&w, Platform::Serverless);
        let cfg = cfg(4);
        let base = execute(&cfg, &w, &plan, "s");
        let big = execute_sized(&cfg, &w, &plan, &crate::Sizing::uniform(&w, 8.0), "s");
        // sqrt(8/3) faster cores shrink every component's compute time.
        assert!(big.task("wide").unwrap().compute_secs < base.task("wide").unwrap().compute_secs);
        let small = execute_sized(&cfg, &w, &plan, &crate::Sizing::uniform(&w, 0.5), "s");
        assert!(small.task("wide").unwrap().compute_secs > base.task("wide").unwrap().compute_secs);
        // The 0.5 GB tier bills at a sixth of the base rate; even with the
        // slower cores (sqrt(6) longer busy time) it comes out cheaper here.
        assert!(small.expense.faas_dollars < base.expense.faas_dollars);
    }

    #[test]
    fn mixed_sizing_runs_each_task_on_its_own_tier() {
        let w = two_phase_workflow();
        let plan = PlacementPlan::uniform(&w, Platform::Serverless);
        let cfg = cfg(4);
        let flat_wide = w.arena().flat_by_name("wide").expect("exists");
        let mut sizing = crate::Sizing::base(&cfg, &w);
        sizing.tiers_gb[flat_wide] = 8.0;
        let mixed = execute_sized(&cfg, &w, &plan, &sizing, "s");
        let base = execute(&cfg, &w, &plan, "s");
        // The resized task sped up; the base-tier task is untouched (its
        // platform, pools, and seed streams are the unsized ones).
        assert!(mixed.task("wide").unwrap().compute_secs < base.task("wide").unwrap().compute_secs);
        assert_eq!(
            mixed.task("merge").unwrap().compute_secs,
            base.task("merge").unwrap().compute_secs
        );
    }

    #[test]
    fn sized_preflight_enforces_the_per_task_tier_cap() {
        let mut w = two_phase_workflow();
        w.phases[0].tasks[0].profile.memory_gb = 1.5;
        let w = Workflow::new("test-wf", w.phases.clone(), w.initial_input_bytes);
        let plan = PlacementPlan::uniform(&w, Platform::Serverless);
        let cfg = cfg(4);
        // 1.5 GiB fits the 2 GB tier but not the 1 GB tier.
        let err =
            try_execute_sized(&cfg, &w, &plan, &crate::Sizing::uniform(&w, 1.0), "s").unwrap_err();
        assert!(err
            .errors()
            .all(|d| d.code == mashup_analyze::Code::FaasMemoryExceeded));
        assert!(try_execute_sized(&cfg, &w, &plan, &crate::Sizing::uniform(&w, 2.0), "s").is_ok());
    }

    #[test]
    fn different_seeds_jitter_results() {
        let mut w = two_phase_workflow();
        // Give tasks jitter so seeds matter.
        for p in &mut w.phases {
            for t in &mut p.tasks {
                t.profile.runtime_jitter = 0.2;
            }
        }
        let plan = PlacementPlan::uniform(&w, Platform::VmCluster);
        let a = execute(&cfg(4).with_seed(1), &w, &plan, "s");
        let b = execute(&cfg(4).with_seed(2), &w, &plan, "s");
        assert_ne!(a.makespan_secs, b.makespan_secs);
    }
}
