//! A Kepler-like workflow manager baseline.
//!
//! Kepler (Altintas et al., SSDBM 2004) is a director/actor system: its
//! dataflow directors fire an actor as soon as its inputs are available
//! rather than waiting for a global phase barrier. On a VM cluster this
//! means **task-level pipelining**: a task starts the moment its producer
//! tasks finish, even while sibling tasks of the same phase are still
//! running — the scheduling optimization the paper credits the
//! state-of-the-art managers with. Everything runs on the cluster; no
//! serverless, no external storage.

use mashup_cloud::{
    ClusterInput, ClusterOutput, ClusterRunStats, ClusterTaskSpec, FaasRunStats, VmCluster,
};
use mashup_core::{
    AnalysisError, CheckedWorkflow, CloudEnv, Driver, MashupConfig, PlacementPlan, Platform,
    TaskReport, TraceEvent, Tracer, WorkflowReport, World, WorldEvent,
};
use mashup_dag::TaskRef;
use mashup_sim::{SimTime, Simulation};
#[expect(
    clippy::disallowed_types,
    reason = "keyed dependency counters only: inserted in deterministic task_refs order, \
              then read and decremented by key, never order-iterated"
)]
use std::collections::HashMap;
use std::convert::Infallible;

/// Kepler's world: the cloud plus its dataflow director.
pub type KeplerWorld<'w> = World<Director<'w>>;

/// The dataflow director's state: which tasks still wait on producers, and
/// the reports of finished ones.
pub struct Director<'w> {
    /// The caller's workflow.
    workflow: &'w CheckedWorkflow<'w>,
    /// Unfinished producer count per task.
    #[expect(clippy::disallowed_types, reason = "keyed access only")]
    pending_deps: HashMap<TaskRef, usize>,
    reports: Vec<TaskReport>,
    remaining: usize,
    finished_at: Option<SimTime>,
    subclusters: usize,
    next_sub: usize,
    tracer: Tracer,
}

/// The director's one event: fire every dependency-free task.
pub struct Start;

/// The director fires tasks as their producers finish; each cluster run is
/// tagged with its task.
impl<'w> Driver for Director<'w> {
    type Event = Start;
    type ClusterTag = TaskRef;
    type FaasTag = Infallible;

    fn handle(w: &mut KeplerWorld<'w>, sim: &mut Simulation<KeplerWorld<'w>>, Start: Start) {
        let d = &w.driver;
        let ready: Vec<TaskRef> = d
            .workflow
            .task_refs()
            .filter(|r| d.workflow.task(*r).deps.is_empty())
            .collect();
        for r in ready {
            spawn(w, sim, r);
        }
    }

    /// Task `r` finished: report it and fire the consumers it was the
    /// last producer of.
    fn cluster_done(
        w: &mut KeplerWorld<'w>,
        sim: &mut Simulation<KeplerWorld<'w>>,
        r: TaskRef,
        stats: ClusterRunStats,
    ) {
        let d = &mut w.driver;
        let t = d.workflow.task(r);
        let name = t.name.clone();
        d.tracer
            .emit(sim.now(), TraceEvent::TaskEnd { task: name.clone() });
        d.reports.push(TaskReport {
            name,
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
        });
        d.remaining -= 1;
        if d.remaining == 0 {
            d.finished_at = Some(sim.now());
            return;
        }
        let newly_ready: Vec<TaskRef> = d
            .workflow
            .consumers(r)
            .iter()
            .map(|&(c, _)| c)
            .filter(|c| {
                let n = d
                    .pending_deps
                    .get_mut(c)
                    .expect("every task has a dep count");
                *n -= 1;
                *n == 0
            })
            .collect();
        for c in newly_ready {
            spawn(w, sim, c);
        }
    }

    fn faas_done(
        _: &mut KeplerWorld<'w>,
        _: &mut Simulation<KeplerWorld<'w>>,
        tag: Infallible,
        _: FaasRunStats,
    ) {
        match tag {}
    }
}

/// Runs the workflow with dataflow-fired task scheduling on the cluster,
/// recording into `tracer` (task start/end events carry the firing order).
/// Kepler runs its own director instead of the executor, so it checks its
/// config and all-VM plan itself before it builds an environment.
pub(crate) fn run(
    cfg: &MashupConfig,
    workflow: &CheckedWorkflow,
    tracer: &Tracer,
) -> Result<WorkflowReport, AnalysisError> {
    let plan = PlacementPlan::uniform(workflow, Platform::VmCluster);
    workflow.check(cfg, Some(&plan), None)?;

    #[expect(clippy::disallowed_types, reason = "keyed access only")]
    let mut pending_deps = HashMap::new();
    for r in workflow.task_refs() {
        pending_deps.insert(r, workflow.task(r).deps.len());
    }
    let director = Director {
        workflow,
        pending_deps,
        reports: Vec::new(),
        remaining: workflow.task_count(),
        finished_at: None,
        subclusters: cfg.cluster.subclusters,
        next_sub: 0,
        tracer: tracer.clone(),
    };
    let mut env = CloudEnv::with_driver(cfg, 0, director);
    env.attach_tracer(tracer.clone());
    env.world.cloud.cluster.start_billing(SimTime::ZERO);

    // Fire every dependency-free task immediately.
    env.sim.schedule_now(WorldEvent::Driver(Start));
    env.run();

    let World { cloud, driver, .. } = env.world;
    let mut cloud = cloud;
    let finished_at = driver.finished_at.expect("kepler run completed");
    cloud.cluster.stop_billing(&mut cloud.meter, finished_at);
    cloud
        .store
        .finalize(&mut cloud.meter, finished_at, workflow);

    Ok(WorkflowReport {
        workflow: workflow.name.clone(),
        strategy: "kepler".into(),
        cluster_nodes: cfg.cluster.nodes,
        makespan_secs: finished_at.as_secs(),
        expense: cloud.meter.expense(cfg.provider.storage.price_per_gb_month),
        plan,
        tasks: driver.reports,
    })
}

fn spawn<'w>(w: &mut KeplerWorld<'w>, sim: &mut Simulation<KeplerWorld<'w>>, r: TaskRef) {
    let d = &mut w.driver;
    let sub = d.next_sub % d.subclusters;
    d.next_sub += 1;
    let t = d.workflow.task(r);
    let input = if t.deps.is_empty() {
        ClusterInput::Master
    } else {
        ClusterInput::Fabric
    };
    let spec = ClusterTaskSpec::of_task(t, 1, input, ClusterOutput::Fabric, sub);
    d.tracer.emit(
        sim.now(),
        TraceEvent::TaskStart {
            task: t.name.clone(),
            phase: r.phase,
            platform: "vm".into(),
            components: spec.components,
        },
    );
    VmCluster::run_task(w, sim, spec, r);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Strategy;
    use mashup_dag::{DependencyPattern, Task, TaskProfile, Workflow, WorkflowBuilder};

    /// Phase 1 has a fast task A and a slow task B; phase 2's C depends
    /// only on A. Kepler starts C when A finishes; the phase-barriered
    /// traditional engine waits for B too.
    fn pipelined_workflow() -> Workflow {
        let mut b = WorkflowBuilder::new("pipeline");
        b.initial_input_bytes(1e6);
        b.begin_phase();
        let a = b.add_task(Task::new("fast", 1, TaskProfile::trivial().compute(5.0)));
        b.add_task(Task::new("slow", 1, TaskProfile::trivial().compute(100.0)));
        b.begin_phase();
        let c = b.add_task(Task::new(
            "after-fast",
            1,
            TaskProfile::trivial().compute(50.0),
        ));
        b.depend(c, a, DependencyPattern::OneToOne);
        b.build().expect("valid")
    }

    #[test]
    fn kepler_pipelines_across_phase_barriers() {
        let w = pipelined_workflow();
        let cfg = MashupConfig::aws(4);
        let kepler = crate::run_untraced(Strategy::Kepler, &cfg, &w);
        let traditional = crate::run_untraced(Strategy::Traditional, &cfg, &w);
        // Kepler: after-fast starts at 5 s, everything done at 100 s.
        // Traditional: after-fast starts at 100 s, done at 150 s.
        assert!(
            kepler.makespan_secs < traditional.makespan_secs,
            "kepler {} vs traditional {}",
            kepler.makespan_secs,
            traditional.makespan_secs
        );
        let c = kepler.task("after-fast").expect("exists");
        assert!(c.start_secs < 10.0, "started at {}", c.start_secs);
    }

    #[test]
    fn kepler_respects_dependencies() {
        let w = pipelined_workflow();
        let r = crate::run_untraced(Strategy::Kepler, &MashupConfig::aws(4), &w);
        let fast = r.task("fast").expect("exists");
        let after = r.task("after-fast").expect("exists");
        assert!(after.start_secs >= fast.end_secs - 1e-9);
        assert_eq!(r.tasks.len(), 3);
    }

    #[test]
    fn kepler_world_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<KeplerWorld>();
        assert_send::<Simulation<KeplerWorld>>();
    }

    #[test]
    fn kepler_bills_vm_only() {
        let w = pipelined_workflow();
        let r = crate::run_untraced(Strategy::Kepler, &MashupConfig::aws(4), &w);
        assert!(r.expense.vm_dollars > 0.0);
        assert_eq!(r.expense.faas_dollars, 0.0);
        assert_eq!(r.expense.storage_dollars, 0.0);
    }
}
