//! The hybrid workflow executor.
//!
//! Executes a workflow in the DAG's precedence order, releasing tasks by
//! the run's [`Release`] rule: phase by phase, or each task as its last
//! producer ends. It runs each task on the platform its [`PlacementPlan`]
//! assigns, and routes inter-platform data through the object store:
//!
//! * a task's output lives on the cluster **master** when both it and all
//!   of its consumers run on the cluster, and in the **object store**
//!   otherwise (serverless functions are stateless — §3);
//! * VM tasks whose producers wrote to the store fetch over the WAN;
//! * initial input is staged in the store whenever any task runs
//!   serverless (the "S3 bucket maintained during execution" of §4, whose
//!   occupancy is billed);
//! * under [`Release::PhaseBarrier`], serverless tasks of the *next* phase
//!   are pre-warmed while the current phase runs (§3's prefetching
//!   mitigation);
//! * the cluster bills node time for the whole run iff the plan uses it.

use crate::analysis::CheckedWorkflow;
use crate::chaos::ChaosSpec;
use crate::config::{tier_key, MashupConfig, Sizing};
use crate::pdc::{load_ratio, Pdc, PdcReport};
use crate::report::{TaskReport, WorkflowReport};
use mashup_analyze::AnalysisError;
use mashup_cloud::{
    run_task_on_faas, Cloud, CloudEvent, CloudWorld, ClusterRunStats, ClusterTaskSpec,
    FaasRunStats, FaasTaskSpec, ObjectKey, VmCluster,
};
use mashup_dag::{PlacementPlan, Platform, TaskRef, Workflow};
use mashup_sim::{Model, SeedSource, SimTime, Simulation, TraceEvent, Tracer};
use std::ops::Range;

/// When the executor starts a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Release {
    /// Algorithm 1: a phase starts once every task of the phase before it
    /// has ended. VM tasks take sub-clusters round-robin within a phase,
    /// the next phase's serverless tasks are pre-warmed while a phase
    /// runs, and the chaos controller may replan at each barrier.
    PhaseBarrier,
    /// Kepler's dataflow director: a task starts the moment its last
    /// producer ends, whatever its siblings are doing. VM tasks take
    /// sub-clusters round-robin over the whole run, in firing order. With
    /// no phases to cross there is no `PhaseStart` record, no pre-warm,
    /// and no barrier for the chaos controller to replan at; the config's
    /// fault plan is still installed.
    Dataflow,
}

/// Where a task's output lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OutputLocation {
    /// On the cluster master (pure-VM producer/consumer chains).
    Master,
    /// In the object store (any serverless involvement).
    Store,
}

/// Computes each task's output location under `plan` (see module docs),
/// by flat id.
fn output_locations(w: &Workflow, plan: &PlacementPlan) -> Vec<OutputLocation> {
    let arena = w.arena();
    let mut locs = vec![OutputLocation::Master; w.task_count()];
    for (flat, r) in w.task_refs().enumerate() {
        // Full coverage is guaranteed by diagnostic M201.
        if plan.platform(r).expect("plan covers workflow") == Platform::Serverless {
            locs[flat] = OutputLocation::Store;
            for &(producer, _) in arena.producers(flat) {
                locs[producer as usize] = OutputLocation::Store;
            }
        }
    }
    locs
}

/// The world of one execution: its cloud, the seed source its FaaS runs
/// draw from, the executor's state over a workflow borrowed for `'w`, and
/// the chaos controller when one is on. [`ExecWorld::new`] builds it whole
/// from the run's inputs, so every event finds the executor's state.
struct ExecWorld<'w> {
    cloud: Cloud<ExecWorld<'w>>,
    seeds: SeedSource,
    exec: Execution<'w>,
    /// Online replanning controller; `None` unless the config's chaos spec
    /// turns `adaptive` on. It sits beside `exec`, so a replan borrows both.
    chaos: Option<ChaosCtx>,
}

/// The executor's engine.
type Sim<'w> = Simulation<ExecWorld<'w>>;

// The planning service and the figure sweep move whole runs onto worker
// threads: a reintroduced `Rc` or `RefCell` anywhere in a run's state
// fails the build here.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Sim<'static>>();
    assert_send::<ExecWorld<'static>>();
};

/// The executor's state during a run: the plan it follows, where each
/// output lives, and the reports of finished tasks.
struct Execution<'w> {
    cfg: MashupConfig,
    /// The caller's workflow.
    workflow: &'w CheckedWorkflow<'w>,
    plan: PlacementPlan,
    /// Per-task memory tiers for a sized run; `None` runs every serverless
    /// task on the base platform (the original engine, byte-identical).
    sizing: Option<Sizing>,
    release: Release,
    /// The phases the run executes, under [`Release::PhaseBarrier`]: every
    /// phase, or the one phase of a scoped profiling pass.
    phases: Range<usize>,
    /// Each task's output location, by flat id.
    locations: Vec<OutputLocation>,
    tracer: Tracer,
    /// Finished tasks' reports in completion order, unnamed: names are
    /// filled in from `completed` once the event loop is over.
    reports: Vec<TaskReport>,
    /// The task behind each entry of `reports`.
    completed: Vec<TaskRef>,
    /// Tasks that must end before the next release: the running phase's
    /// under [`Release::PhaseBarrier`], the whole run's under
    /// [`Release::Dataflow`].
    remaining: usize,
    /// Under [`Release::Dataflow`], each task's producers that have not
    /// ended yet, by flat id; empty under [`Release::PhaseBarrier`].
    waiting: Vec<u32>,
    /// VM tasks started since the sub-cluster round robin began: in the
    /// running phase, or in the run under [`Release::Dataflow`].
    next_sub: usize,
    /// Store migrations a replan started that have not landed yet; the
    /// next phase starts when the last one lands.
    pending_uploads: usize,
    /// The key and size of each migration of the latest replan, by the
    /// index its [`ExecEvent::Uploaded`] carries.
    migrations: Vec<(ObjectKey, f64)>,
    finished_at: Option<SimTime>,
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
    /// trigger (see [`ensure_baseline`]).
    baseline: Option<PdcReport>,
    /// When the currently-running phase started.
    phase_started: SimTime,
    /// Tasks whose outputs earlier replans migrated master -> store.
    uploaded: std::collections::BTreeSet<TaskRef>,
}

impl Execution<'_> {
    /// Task `r`'s flat id in the workflow's arena.
    fn flat(&self, r: TaskRef) -> usize {
        self.workflow.arena().flat(r).expect("task ref in workflow")
    }

    /// The memory tier whose platform a task runs on: its sizing-assigned
    /// tier, which falls back to the base platform when none was
    /// provisioned; `None` (the base platform) for an unsized run.
    fn tier_for_task(&self, r: TaskRef) -> Option<u32> {
        self.sizing
            .as_ref()
            .map(|sizing| tier_key(sizing.tier(self.flat(r))))
    }

    /// Where task `r`'s output lands.
    fn location(&self, r: TaskRef) -> OutputLocation {
        self.locations[self.flat(r)]
    }
}

/// An event of the executor's world: the cloud's, or the executor's own.
enum ExecEvent {
    /// A cloud service event.
    Cloud(CloudEvent),
    /// The run's first event: phase 0 starts, or under
    /// [`Release::Dataflow`] every task without producers. Later phases
    /// start inline at the barrier, or when a replan's migrations land;
    /// dataflow tasks start inline as their last producer ends.
    Start,
    /// Migration `index` of a replan landed in the store; phase `phase`
    /// starts after the last one.
    Uploaded {
        /// Index into the replan's migrations.
        index: usize,
        /// The phase waiting on them.
        phase: usize,
    },
}

impl From<CloudEvent> for ExecEvent {
    fn from(e: CloudEvent) -> Self {
        ExecEvent::Cloud(e)
    }
}

impl<'w> ExecWorld<'w> {
    /// Builds the world of one run of `workflow` under `plan`, in the order
    /// the trace relies on: the cloud `cfg` describes, one FaaS platform per
    /// non-base tier of `sizing`, `tracer` on every mechanism, the config's
    /// fault plan, then billing and the staged initial dataset. The run's
    /// first event is scheduled on the returned engine.
    fn new(
        cfg: &MashupConfig,
        workflow: &'w CheckedWorkflow,
        plan: &PlacementPlan,
        sizing: Option<&Sizing>,
        release: Release,
        phases: Range<usize>,
        tracer: &Tracer,
    ) -> (Sim<'w>, Self) {
        debug_assert!(release == Release::PhaseBarrier || phases == (0..workflow.phases.len()));
        let tasks = workflow.phases[phases.clone()]
            .iter()
            .map(|p| p.tasks.len())
            .sum();
        let (remaining, waiting) = match release {
            Release::PhaseBarrier => (0, Vec::new()),
            Release::Dataflow => {
                let arena = workflow.arena();
                let producers = (0..arena.task_count()).map(|f| arena.producers(f).len() as u32);
                (arena.task_count(), producers.collect())
            }
        };
        let exec = Execution {
            cfg: cfg.clone(),
            workflow,
            plan: plan.clone(),
            sizing: sizing.cloned(),
            release,
            phases,
            locations: output_locations(workflow, plan),
            tracer: tracer.clone(),
            reports: Vec::with_capacity(tasks),
            completed: Vec::with_capacity(tasks),
            remaining,
            waiting,
            next_sub: 0,
            pending_uploads: 0,
            migrations: Vec::new(),
            finished_at: None,
        };
        let chaos = cfg.chaos.as_ref().filter(|c| c.adaptive).map(|c| ChaosCtx {
            spec: c.clone(),
            planned_nodes: cfg.cluster.nodes,
            baseline: None,
            phase_started: SimTime::ZERO,
            uploaded: std::collections::BTreeSet::new(),
        });
        let (mut sim, cloud, seeds) = cfg.new_cloud();
        let mut w = ExecWorld {
            cloud,
            seeds,
            exec,
            chaos,
        };

        // A sized run gets a FaaS platform per distinct non-base tier. Each
        // derives its stochastic streams from a tier-labelled seed child,
        // charges the world's meter, and keeps its own warm pools (a 2 GB
        // function cannot reuse a 0.5 GB microVM).
        if let Some(sizing) = sizing {
            let base = tier_key(cfg.provider.faas.memory_gb);
            for gb in sizing.distinct_tiers() {
                let key = tier_key(gb);
                if key != base {
                    let seeds = w.seeds.child(&format!("faas-tier-{key}"));
                    w.cloud.add_tier(key, cfg.faas_tier(gb), &seeds);
                }
            }
        }

        // One flight recorder on every mechanism, tier platforms included.
        // Emission never touches simulated state, so a traced run is
        // byte-identical to an untraced one.
        w.cloud.set_tracer(tracer);
        sim.set_tracer(tracer.clone());

        // Install the seeded fault schedule before billing starts: spot pools
        // must wrap the whole billing window for piecewise settlement.
        if let Some(chaos) = cfg.chaos.as_ref().filter(|c| !c.plan.is_empty()) {
            chaos.plan.install(&mut sim, &mut w.cloud);
        }

        let now = sim.now();
        let cloud = &mut w.cloud;
        if plan.uses_cluster() {
            cloud.cluster.start_billing(now);
        }
        if plan.uses_serverless() {
            // Stage the initial dataset in the store so stateless initial tasks
            // can read it; its occupancy is billed for the run's duration.
            cloud.store.register_object(
                &mut cloud.meter,
                now,
                ObjectKey::Input,
                workflow.initial_input_bytes,
                workflow,
            );
        }
        sim.schedule_now(ExecEvent::Start);
        (sim, w)
    }
}

impl<'w> Model for ExecWorld<'w> {
    type Event = ExecEvent;

    fn handle(&mut self, event: ExecEvent, sim: &mut Sim<'w>) {
        match event {
            ExecEvent::Cloud(e) => e.dispatch(self, sim),
            ExecEvent::Start => match self.exec.release {
                Release::PhaseBarrier => {
                    let first = self.exec.phases.start;
                    run_phase(self, sim, first)
                }
                Release::Dataflow => {
                    let wf = self.exec.workflow;
                    for r in wf.task_refs().filter(|&r| wf.task(r).deps.is_empty()) {
                        spawn(self, sim, r);
                    }
                }
            },
            ExecEvent::Uploaded { index, phase } => migration_landed(self, sim, index, phase),
        }
    }
}

/// The executor's runs are tagged with the task they execute.
impl<'w> CloudWorld for ExecWorld<'w> {
    type ClusterTag = TaskRef;
    type FaasTag = TaskRef;

    fn cloud(&mut self) -> &mut Cloud<Self> {
        &mut self.cloud
    }

    /// A cluster task finished: register its output in the store when it
    /// goes there. Its output location is the one it started with: replans
    /// rewrite only phases that have not started.
    fn cluster_done(&mut self, sim: &mut Sim<'w>, r: TaskRef, stats: ClusterRunStats) {
        let ExecWorld { cloud, exec: d, .. } = &mut *self;
        let t = d.workflow.task(r);
        if d.location(r) == OutputLocation::Store {
            cloud.store.register_object(
                &mut cloud.meter,
                sim.now(),
                ObjectKey::Output(r),
                t.components as f64 * t.profile.output_bytes,
                d.workflow,
            );
        }
        let report = TaskReport {
            name: String::new(),
            platform: Platform::VmCluster,
            phase: r.phase,
            components: t.components,
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
        finish_task(self, sim, r, report);
    }

    /// A serverless task finished: register its output in the store.
    fn faas_done(&mut self, sim: &mut Sim<'w>, r: TaskRef, stats: FaasRunStats) {
        let ExecWorld { cloud, exec: d, .. } = &mut *self;
        let wf = d.workflow;
        let t = wf.task(r);
        // Serverless outputs always live in the store.
        cloud.store.register_object(
            &mut cloud.meter,
            sim.now(),
            ObjectKey::Output(r),
            t.components as f64 * t.profile.output_bytes,
            wf,
        );
        let report = TaskReport {
            name: String::new(),
            platform: Platform::Serverless,
            phase: r.phase,
            components: t.components,
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
        finish_task(self, sim, r, report);
    }
}

/// Executes `workflow` under `plan` in a fresh world built from `cfg`,
/// releasing tasks by `release`, and returns the full report. `strategy`
/// labels the report.
///
/// Checks `cfg` (M3xx) and `plan` (M2xx) first and refuses error-diagnosed
/// inputs with a typed [`AnalysisError`] before any world is built.
///
/// With a `sizing`, each serverless task runs on the memory tier it assigns
/// (see [`Sizing`]) and is checked against that tier's function:
/// per-tier FaaS platforms are provisioned up front, each with its own warm
/// pools and price point, and the executor routes every invocation,
/// pre-warm, and burst-capacity read through the task's tier. A sizing
/// that keeps every task at the provider's base tier reproduces the
/// unsized run bit-for-bit. `tracer` is attached to every mechanism once
/// the tiers exist; emission never touches simulated state.
pub fn execute(
    cfg: &MashupConfig,
    workflow: &CheckedWorkflow,
    plan: &PlacementPlan,
    sizing: Option<&Sizing>,
    release: Release,
    strategy: &str,
    tracer: &Tracer,
) -> Result<WorkflowReport, AnalysisError> {
    workflow.check(cfg, Some(plan), sizing)?;
    let phases = 0..workflow.phases.len();
    let (report, completed) =
        execute_in_unchecked(cfg, workflow, plan, sizing, release, phases, tracer);
    Ok(named(report, strategy, &completed, workflow))
}

/// Labels the report with `strategy` and fills in the name of each task
/// report, `completed` giving the task behind each. Names are allocated
/// only after the event loop: built while it ran, long-lived name strings
/// interleave with the loop's short-lived allocations and fragment the heap
/// (at 100k tasks every later layer, DAG build included, measured about
/// 20% slower).
fn named(
    mut report: WorkflowReport,
    strategy: &str,
    completed: &[TaskRef],
    w: &Workflow,
) -> WorkflowReport {
    report.strategy = strategy.into();
    for (task, &r) in report.tasks.iter_mut().zip(completed) {
        task.name = w.task(r).name.clone();
    }
    report
}

/// [`CheckedWorkflow::borrowed`], then [`execute`] unsized, unrecorded and
/// phase by phase, for callers that hold a bare workflow.
pub fn try_execute(
    cfg: &MashupConfig,
    workflow: &Workflow,
    plan: &PlacementPlan,
    strategy: &str,
) -> Result<WorkflowReport, AnalysisError> {
    execute(
        cfg,
        &CheckedWorkflow::borrowed(workflow)?,
        plan,
        None,
        Release::PhaseBarrier,
        strategy,
        &Tracer::off(),
    )
}

/// The executor proper: builds the run's world ([`ExecWorld::new`]) and
/// runs it to the end. Callers arrive with a [`CheckedWorkflow`] and a plan
/// they checked, so the plan covers the workflow (M201), every serverless
/// task fits its function's memory cap (M203) and the checkpoint-chaining
/// window (M202), and every profile field is finite and in range (M105).
/// The run borrows `workflow`, and takes flat ids from its arena.
///
/// Under [`Release::PhaseBarrier`] the run executes `phases`, from the
/// first phase's start at t = 0 to the last one's end; a scoped profiling
/// pass runs one phase on an idle cluster, the state a full run reaches at
/// that phase's barrier. Every other caller, and every
/// [`Release::Dataflow`] run, passes all of them.
///
/// Returns the report, unlabelled and its task reports unnamed (see
/// [`named`]), and, for each entry of its `tasks`, the task it describes.
pub(crate) fn execute_in_unchecked(
    cfg: &MashupConfig,
    workflow: &CheckedWorkflow,
    plan: &PlacementPlan,
    sizing: Option<&Sizing>,
    release: Release,
    phases: Range<usize>,
    tracer: &Tracer,
) -> (WorkflowReport, Vec<TaskRef>) {
    let (mut sim, mut w) = ExecWorld::new(cfg, workflow, plan, sizing, release, phases, tracer);
    sim.run(&mut w);

    let ExecWorld {
        mut cloud, exec: d, ..
    } = w;
    let finished_at = d.finished_at.expect("workflow execution completed");
    // A replan can add or shed cluster usage mid-run; billing must close if
    // it was ever opened, and the report carries the plan that actually ran.
    let used_cluster = plan.uses_cluster() || d.plan.uses_cluster();
    if used_cluster {
        cloud.cluster.stop_billing(&mut cloud.meter, finished_at);
    }
    cloud
        .store
        .finalize(&mut cloud.meter, finished_at, workflow);

    let report = WorkflowReport {
        workflow: workflow.name.clone(),
        strategy: String::new(),
        cluster_nodes: if used_cluster { cfg.cluster.nodes } else { 0 },
        makespan_secs: finished_at.as_secs(),
        expense: cloud.meter.expense(cfg.provider.storage.price_per_gb_month),
        plan: d.plan,
        tasks: d.reports,
    };
    (report, d.completed)
}

fn run_phase<'w>(w: &mut ExecWorld<'w>, sim: &mut Sim<'w>, phase_idx: usize) {
    let d = &mut w.exec;
    if phase_idx >= d.phases.end {
        d.finished_at = Some(sim.now());
        return;
    }
    let n_tasks = d.workflow.phases[phase_idx].tasks.len();
    d.remaining = n_tasks;
    d.next_sub = 0;
    if let Some(ctx) = w.chaos.as_mut() {
        ctx.phase_started = sim.now();
    }
    d.tracer.emit(
        sim.now(),
        TraceEvent::PhaseStart {
            phase: phase_idx,
            tasks: n_tasks,
        },
    );

    prewarm_next_phase(w, sim, phase_idx);
    for ti in 0..n_tasks {
        spawn(w, sim, TaskRef::new(phase_idx, ti));
    }
}

/// Starts task `r` on its platform. A VM task takes the next sub-cluster
/// of the round robin.
fn spawn<'w>(w: &mut ExecWorld<'w>, sim: &mut Sim<'w>, r: TaskRef) {
    let d = &mut w.exec;
    // Full coverage is guaranteed by diagnostic M201.
    match d.plan.platform(r).expect("plan covers workflow") {
        Platform::Serverless => spawn_serverless(w, sim, r),
        Platform::VmCluster => {
            let sub = d.next_sub % d.cfg.cluster.subclusters;
            d.next_sub += 1;
            spawn_on_cluster(w, sim, r, sub);
        }
    }
}

fn prewarm_next_phase<'w>(w: &mut ExecWorld<'w>, sim: &mut Sim<'w>, phase_idx: usize) {
    // Pre-warming targets each task's own platform: warm pools live per
    // tier (a 0.5 GB microVM cannot serve a 2 GB function), so both the
    // burst threshold and the warm-up go to the tier's platform.
    let ExecWorld { cloud, exec: d, .. } = w;
    if !d.cfg.prewarm || phase_idx + 1 >= d.phases.end {
        return;
    }
    for (ti, t) in d.workflow.phases[phase_idx + 1].tasks.iter().enumerate() {
        let r = TaskRef::new(phase_idx + 1, ti);
        if d.plan.platform(r) != Ok(Platform::Serverless) {
            continue;
        }
        let faas = cloud.platform_mut(d.tier_for_task(r));
        if t.components <= faas.config().burst_capacity {
            continue;
        }
        let key = t.profile.code_family.as_deref().unwrap_or(&t.name);
        faas.prewarm(sim, key, t.components.min(d.cfg.prewarm_cap));
    }
}

/// Sum of per-component input GET requests implied by the dependency
/// patterns (1 for initial tasks reading the staged dataset).
fn input_requests(w: &Workflow, r: TaskRef) -> u64 {
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

fn spawn_serverless<'w>(w: &mut ExecWorld<'w>, sim: &mut Sim<'w>, r: TaskRef) {
    let ExecWorld {
        cloud,
        seeds,
        exec: d,
        ..
    } = w;
    let wf = d.workflow;
    let t = wf.task(r);
    // Statelessness sanity check: everything this task reads must
    // already sit in the store.
    if t.deps.is_empty() {
        cloud.store.assert_present(ObjectKey::Input, wf);
    } else {
        for dep in &t.deps {
            cloud
                .store
                .assert_present(ObjectKey::Output(dep.producer), wf);
        }
    }
    let spec = FaasTaskSpec {
        label: t.profile.code_family.as_deref().unwrap_or(&t.name),
        components: t.components,
        compute_secs: t.profile.compute_secs_serverless(),
        input_bytes: t.profile.input_bytes,
        output_bytes: t.profile.output_bytes,
        io_requests: input_requests(wf, r),
        checkpoint_bytes: t.profile.checkpoint_bytes,
        jitter: t.profile.runtime_jitter,
        memory_gb: t.profile.memory_gb,
        checkpoint_margin_secs: d.cfg.plan_context().margin_for(t.profile.checkpoint_bytes),
    };
    trace_task_start(d, sim.now(), r, "serverless");
    let (tier, seeds) = (d.tier_for_task(r), *seeds);
    run_task_on_faas(w, sim, tier, spec, &seeds, r);
}

fn spawn_on_cluster<'w>(w: &mut ExecWorld<'w>, sim: &mut Sim<'w>, r: TaskRef, subcluster: usize) {
    let ExecWorld { cloud, exec: d, .. } = w;
    let wf = d.workflow;
    let t = wf.task(r);
    let to_store = d.location(r) == OutputLocation::Store;
    // Input routing: phase-0 tasks ingest the initial dataset from the
    // sub-cluster master (Algorithm 1 line 12); later phases pull from
    // other workers over the fabric — or from the store over the WAN
    // when any producer's output lives there.
    let from_store = t
        .deps
        .iter()
        .any(|dep| d.location(dep.producer) == OutputLocation::Store);
    if from_store {
        for dep in &t.deps {
            if d.location(dep.producer) == OutputLocation::Store {
                cloud
                    .store
                    .assert_present(ObjectKey::Output(dep.producer), wf);
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
    let spec = ClusterTaskSpec::of_task(t, input_requests(wf, r), input, output, subcluster);
    trace_task_start(d, sim.now(), r, "vm");
    VmCluster::run_task(w, sim, spec, r);
}

/// Records a task's start; builds the event (and its name copy) only when
/// a recorder is attached.
fn trace_task_start(d: &Execution, now: SimTime, r: TaskRef, platform: &str) {
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

fn finish_task<'w>(w: &mut ExecWorld<'w>, sim: &mut Sim<'w>, r: TaskRef, report: TaskReport) {
    let d = &mut w.exec;
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
    d.remaining -= 1;
    match d.release {
        Release::PhaseBarrier if d.remaining == 0 => advance_phase(w, sim, r.phase + 1),
        Release::PhaseBarrier => {}
        Release::Dataflow if d.remaining == 0 => d.finished_at = Some(sim.now()),
        Release::Dataflow => {
            // Start each consumer `r` was the last producer of.
            let wf = d.workflow;
            for &(c, _) in wf.consumers(r) {
                let d = &mut w.exec;
                let flat = d.flat(c);
                d.waiting[flat] -= 1;
                if d.waiting[flat] == 0 {
                    spawn(w, sim, c);
                }
            }
        }
    }
}

/// Crosses a phase barrier into phase `next`, first giving the chaos
/// controller (when one is active) a chance to replan the remaining
/// subgraph. Without a controller this is exactly [`run_phase`]: no events
/// fire, no randomness is drawn.
fn advance_phase<'w>(w: &mut ExecWorld<'w>, sim: &mut Sim<'w>, next: usize) {
    let ExecWorld {
        cloud,
        exec: d,
        chaos,
        ..
    } = &mut *w;
    let ctx = match chaos {
        Some(ctx) if next < d.phases.end => ctx,
        _ => return run_phase(w, sim, next),
    };
    let surviving = cloud.cluster.surviving_nodes();
    let reason = if surviving < ctx.planned_nodes {
        "preemption"
    } else if ctx.spec.detects_stragglers() {
        // Provisional: resolved against the baseline envelope below
        // (which may need computing first).
        "straggler"
    } else {
        return run_phase(w, sim, next);
    };
    let baseline = ensure_baseline(&mut ctx.baseline, d);
    let confirmed = reason == "preemption" || {
        let elapsed = sim.now().saturating_since(ctx.phase_started).as_secs();
        let envelope = phase_envelope_secs(d, baseline, ctx.planned_nodes, next - 1);
        envelope > 0.0 && elapsed > ctx.spec.straggler_factor * envelope
    };
    if !confirmed || replan(cloud, d, ctx, sim, next, reason, surviving) {
        run_phase(w, sim, next);
    }
}

/// The controller's baseline PDC report, computed on first use from inputs
/// the run already checked. `Pdc::new` strips the chaos spec, and the
/// planner runs in its own profiling worlds, so the baseline reflects the
/// advertised (fault-free) platform behaviour and leaves the production
/// run's RNG streams and trace untouched.
fn ensure_baseline<'c>(baseline: &'c mut Option<PdcReport>, d: &Execution) -> &'c PdcReport {
    baseline.get_or_insert_with(|| Pdc::new(d.cfg.clone()).plan_unchecked(d.workflow))
}

/// The planned envelope of a finished phase: the longest expected task
/// duration under the `baseline` measurements and the *active* plan, with
/// VM times scaled to the `planned` node capacity the plan assumes. A phase
/// that ran longer than `straggler_factor` times this is a straggler.
fn phase_envelope_secs(
    d: &Execution,
    baseline: &PdcReport,
    planned: usize,
    phase_idx: usize,
) -> f64 {
    let nodes = d.cfg.cluster.nodes.max(1);
    let planned = planned.max(1);
    let mut envelope: f64 = 0.0;
    for ti in 0..d.workflow.phases[phase_idx].tasks.len() {
        let r = TaskRef::new(phase_idx, ti);
        let dec = &baseline.decisions[d.flat(r)];
        let expected = match d.plan.platform(r) {
            Ok(Platform::Serverless) if dec.t_serverless_est_secs.is_finite() => {
                dec.t_serverless_est_secs
            }
            // The baseline VM time stretches only as far as the task's
            // components pack more densely onto the assumed capacity.
            _ => dec.t_vm_secs * load_ratio(d.workflow.task(r).components, planned, nodes),
        };
        envelope = envelope.max(expected);
    }
    envelope
}

/// Replans phases `next..` against `surviving` nodes, adopts the new
/// placement, and migrates to the store any master-resident outputs the new
/// placement reads from it. Re-placement never rewrites history: finished
/// phases keep their reports and locations. Returns whether phase `next`
/// may start at once; otherwise the last migration to land starts it.
fn replan<'w>(
    cloud: &mut Cloud<ExecWorld<'w>>,
    d: &mut Execution<'w>,
    ctx: &mut ChaosCtx,
    sim: &mut Sim<'w>,
    next: usize,
    reason: &'static str,
    surviving: usize,
) -> bool {
    let baseline = ensure_baseline(&mut ctx.baseline, d);
    let report = Pdc::new(d.cfg.clone()).replan_capacity(baseline, d.workflow, surviving);
    let n_phases = d.phases.end;
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
        return true;
    }
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
    let fresh = output_locations(d.workflow, &d.plan);
    let from = d.flat(TaskRef::new(next, 0));
    d.locations[from..].copy_from_slice(&fresh[from..]);
    // A plan that newly reaches a platform needs what the static
    // setup provisioned at time zero: cluster billing (idempotent)
    // and the staged initial dataset for store-reading sources.
    if d.plan.uses_cluster() {
        cloud.cluster.start_billing(sim.now());
    }
    if d.plan.uses_serverless() && !was_serverless {
        cloud.store.register_object(
            &mut cloud.meter,
            sim.now(),
            ObjectKey::Input,
            d.workflow.initial_input_bytes,
            d.workflow,
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
                if d.location(p) == OutputLocation::Store {
                    continue; // already registered at completion
                }
                if !ctx.uploaded.insert(p) {
                    continue; // migrated by an earlier replan
                }
                let pt = d.workflow.task(p);
                uploads.push((
                    ObjectKey::Output(p),
                    pt.components as f64 * pt.profile.output_bytes,
                    pt.components as u64,
                ));
            }
        }
    }
    if uploads.is_empty() {
        return true;
    }
    // Barrier: the phase starts once every migration has landed.
    let wan_bps = d.cfg.cluster.instance.wan_bps;
    d.pending_uploads = uploads.len();
    d.migrations.clear();
    for (index, (key, bytes, requests)) in uploads.into_iter().enumerate() {
        d.migrations.push((key, bytes));
        let landed = ExecEvent::Uploaded { index, phase: next };
        cloud.store.write(
            &mut cloud.meter,
            sim,
            bytes,
            requests,
            Some(wan_bps),
            landed,
        );
    }
    false
}

/// Migration `index` landed: register it; the last one starts `phase`.
fn migration_landed<'w>(w: &mut ExecWorld<'w>, sim: &mut Sim<'w>, index: usize, phase: usize) {
    let ExecWorld { cloud, exec: d, .. } = &mut *w;
    let (key, bytes) = d.migrations[index];
    cloud
        .store
        .register_object(&mut cloud.meter, sim.now(), key, bytes, d.workflow);
    d.pending_uploads -= 1;
    if d.pending_uploads == 0 {
        run_phase(w, sim, phase);
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
        b.build()
    }

    fn cfg(nodes: usize) -> MashupConfig {
        MashupConfig::aws(nodes)
    }

    fn run(cfg: &MashupConfig, w: &Workflow, plan: &PlacementPlan, s: &str) -> WorkflowReport {
        try_execute(cfg, w, plan, s).expect("clean inputs")
    }

    fn run_traced(
        cfg: &MashupConfig,
        w: &Workflow,
        plan: &PlacementPlan,
        s: &str,
        tracer: &Tracer,
    ) -> WorkflowReport {
        let w = CheckedWorkflow::borrowed(w).expect("clean workflow");
        execute(cfg, &w, plan, None, Release::PhaseBarrier, s, tracer).expect("clean inputs")
    }

    fn try_run_sized(
        cfg: &MashupConfig,
        w: &Workflow,
        plan: &PlacementPlan,
        sizing: &Sizing,
        s: &str,
    ) -> Result<WorkflowReport, AnalysisError> {
        let w = CheckedWorkflow::borrowed(w)?;
        execute(
            cfg,
            &w,
            plan,
            Some(sizing),
            Release::PhaseBarrier,
            s,
            &Tracer::off(),
        )
    }

    fn run_sized(
        cfg: &MashupConfig,
        w: &Workflow,
        plan: &PlacementPlan,
        sizing: &Sizing,
        s: &str,
    ) -> WorkflowReport {
        try_run_sized(cfg, w, plan, sizing, s).expect("clean inputs")
    }

    #[test]
    fn all_vm_plan_runs_without_storage() {
        let w = two_phase_workflow();
        let plan = PlacementPlan::uniform(&w, Platform::VmCluster);
        let report = run(&cfg(8), &w, &plan, "traditional");
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
        let report = run(&cfg(8), &w, &plan, "serverless-only");
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
        let report = run(&cfg(8), &w, &plan, "hybrid");
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
        let report = run(&cfg(8), &w, &plan, "hybrid");
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
        let small = run(&cfg(2), &w, &plan, "traditional");
        let large = run(&cfg(32), &w, &plan, "traditional");
        assert!(large.makespan_secs < small.makespan_secs);
    }

    #[test]
    fn deterministic_across_runs() {
        let w = two_phase_workflow();
        let plan = PlacementPlan::uniform(&w, Platform::Serverless);
        let a = run(&cfg(4), &w, &plan, "s");
        let b = run(&cfg(4), &w, &plan, "s");
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
            let report = run_traced(cfg, &w, &plan, "t", &tracer);
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
        let report = run_traced(&chaotic, &w, &plan, "adaptive", &tracer);
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
        let report = run_traced(&chaotic, &w, &plan, "adaptive", &tracer);
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

    /// A pure chain, one task per phase, on one sub-cluster: a task's last
    /// producer is the whole phase before it, so releasing it when that
    /// producer ends is releasing it at the barrier. Both rules must give
    /// the same report bit for bit, on either platform. The tasks stay
    /// under the burst capacity, so no phase pre-warms the next.
    #[test]
    fn dataflow_release_of_a_chain_replays_the_phase_barrier_run() {
        let mut b = WorkflowBuilder::new("chain");
        b.initial_input_bytes(1.0e8);
        let mut producer = None;
        for i in 0..4 {
            b.begin_phase();
            let profile = TaskProfile::trivial()
                .compute(20.0 + i as f64)
                .io(1.0e7, 1.0e7);
            let t = b.add_task(Task::new(format!("step{i}"), 8, profile));
            if let Some(p) = producer {
                b.depend(t, p, DependencyPattern::OneToOne);
            }
            producer = Some(t);
        }
        let w = b.build();
        let checked = CheckedWorkflow::borrowed(&w).expect("clean workflow");
        let cfg = cfg(4).with_subclusters(1);
        let mut hybrid = PlacementPlan::uniform(&w, Platform::VmCluster);
        hybrid.set(TaskRef::new(1, 0), Platform::Serverless);
        for plan in [PlacementPlan::uniform(&w, Platform::VmCluster), hybrid] {
            let run = |release| {
                let report = execute(
                    &cfg,
                    &checked,
                    &plan,
                    None,
                    release,
                    "chain",
                    &Tracer::off(),
                );
                format!("{:?}", report.expect("clean inputs"))
            };
            assert_eq!(run(Release::Dataflow), run(Release::PhaseBarrier));
        }
    }

    /// The world of an all-serverless run of `w`, built but not yet run.
    fn world<'w>(
        cfg: &MashupConfig,
        w: &'w CheckedWorkflow,
        sizing: Option<&Sizing>,
    ) -> (Sim<'w>, ExecWorld<'w>) {
        let plan = PlacementPlan::uniform(w, Platform::Serverless);
        let phases = 0..w.phases.len();
        let tracer = Tracer::off();
        ExecWorld::new(
            cfg,
            w,
            &plan,
            sizing,
            Release::PhaseBarrier,
            phases,
            &tracer,
        )
    }

    #[test]
    fn world_construction_is_self_consistent() {
        let cfg = cfg(8);
        let w = CheckedWorkflow::new(two_phase_workflow()).expect("clean workflow");
        let (sim, world) = world(&cfg, &w, None);
        assert_eq!(world.cloud.cluster.config().nodes, 8);
        assert_eq!(world.cloud.faas.config().timeout_secs, 900.0);
        assert_eq!(sim.now().as_secs(), 0.0);
    }

    #[test]
    fn sizing_and_tier_platforms() {
        use mashup_dag::{Task, TaskProfile, WorkflowBuilder};
        let cfg = cfg(4);
        let mut b = WorkflowBuilder::new("w");
        b.begin_phase();
        b.add_task(Task::new("A", 2, TaskProfile::trivial()));
        b.add_task(Task::new("B", 2, TaskProfile::trivial()));
        let w = CheckedWorkflow::new(b.build()).expect("clean workflow");
        let base = Sizing::base(&cfg, &w);
        assert!(base.is_base(&cfg));
        assert_eq!(base.distinct_tiers(), vec![cfg.provider.faas.memory_gb]);
        let mixed = Sizing {
            tiers_gb: vec![0.5, cfg.provider.faas.memory_gb],
        };
        assert!(!mixed.is_base(&cfg));
        assert_eq!(
            mixed.distinct_tiers(),
            vec![0.5, cfg.provider.faas.memory_gb]
        );
        let (_, world) = world(&cfg, &w, Some(&mixed));
        let faas_for = |gb: f64| world.cloud.platform(Some(tier_key(gb))).config().memory_gb;
        // The base tier resolves to the base platform; 0.5 GB gets its own.
        assert_eq!(
            faas_for(cfg.provider.faas.memory_gb),
            cfg.provider.faas.memory_gb
        );
        assert_eq!(faas_for(0.5), 0.5);
        // An unprovisioned tier falls back to the base platform.
        assert_eq!(faas_for(2.0), cfg.provider.faas.memory_gb);
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
        assert_eq!(locs, [OutputLocation::Master; 2]);
        // Serverless consumer forces the producer's output into the store.
        let mut hybrid = PlacementPlan::uniform(&w, Platform::VmCluster);
        hybrid.set(TaskRef::new(1, 0), Platform::Serverless);
        let locs = output_locations(&w, &hybrid);
        assert_eq!(locs, [OutputLocation::Store; 2]);
    }

    #[test]
    fn base_sizing_reproduces_the_unsized_run_bit_for_bit() {
        let w = two_phase_workflow();
        let plan = PlacementPlan::uniform(&w, Platform::Serverless);
        let cfg = cfg(4);
        let plain = run(&cfg, &w, &plan, "s");
        let sized = run_sized(&cfg, &w, &plan, &crate::Sizing::base(&cfg, &w), "s");
        assert_eq!(plain, sized);
    }

    #[test]
    fn bigger_tier_speeds_compute_and_raises_the_rate() {
        let w = two_phase_workflow();
        let plan = PlacementPlan::uniform(&w, Platform::Serverless);
        let cfg = cfg(4);
        let base = run(&cfg, &w, &plan, "s");
        let big = run_sized(&cfg, &w, &plan, &crate::Sizing::uniform(&w, 8.0), "s");
        // sqrt(8/3) faster cores shrink every component's compute time.
        assert!(big.task("wide").unwrap().compute_secs < base.task("wide").unwrap().compute_secs);
        let small = run_sized(&cfg, &w, &plan, &crate::Sizing::uniform(&w, 0.5), "s");
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
        let flat_wide = w.flat_by_name("wide").expect("exists");
        let mut sizing = crate::Sizing::base(&cfg, &w);
        sizing.tiers_gb[flat_wide] = 8.0;
        let mixed = run_sized(&cfg, &w, &plan, &sizing, "s");
        let base = run(&cfg, &w, &plan, "s");
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
            try_run_sized(&cfg, &w, &plan, &crate::Sizing::uniform(&w, 1.0), "s").unwrap_err();
        assert!(err
            .errors()
            .all(|d| d.code == mashup_analyze::Code::FaasMemoryExceeded));
        assert!(try_run_sized(&cfg, &w, &plan, &crate::Sizing::uniform(&w, 2.0), "s").is_ok());
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
        let a = run(&cfg(4).with_seed(1), &w, &plan, "s");
        let b = run(&cfg(4).with_seed(2), &w, &plan, "s");
        assert_ne!(a.makespan_secs, b.makespan_secs);
    }
}
