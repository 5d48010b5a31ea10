//! The PDC's VM profiling passes against a reference built the plain way.
//!
//! `Pdc::plan` profiles a checked workflow on the all-VM cluster once per
//! candidate sub-cluster split (k = 1, 2, 4). It shares one workflow copy
//! across the passes, runs them unchecked and indexes each pass's task
//! times by flat id. The reference here runs three `execute` passes,
//! each checking its config and plan, and maps every report back to a flat
//! id by task name; every field the profiling stage produces must match it
//! bit for bit. That includes the workflows on which `Pdc::splits_tie`
//! lets the stage run the first split alone and replay it for the others:
//! the reference never skips a pass. A golden digest pins the scoped
//! phase profiles `Pdc::replan` runs for fused candidates. The remaining
//! tests pin where refusals happen and the naming of reports built after
//! the event loop.

use mashup_bench::scale::{self, Shape};
use mashup_cloud::{Expense, Fault, FaultPlan};
use mashup_core::{
    execute, preflight, ChaosSpec, CheckedWorkflow, Fingerprinter, MashupConfig, Pdc,
    PlacementPlan, PlanCache, Platform, Release, TraceEvent, Tracer, WorkflowReport,
};
use mashup_dag::{
    fusable_pairs, fuse, DependencyPattern, FusionCandidate, Task, TaskProfile, TaskRef, Workflow,
    WorkflowBuilder,
};
use mashup_workflows::{epigenomics, genome1000, srasearch};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;

/// What the VM profiling stage produces.
#[derive(Debug)]
struct Profile {
    best_task_vm: Vec<f64>,
    subclusters: usize,
    vm_makespan_secs: f64,
    expense: Expense,
}

/// The profiling passes as independent, fully checked executions, one per
/// split k = 1, 2, 4 that fits the cluster, each on the seed the passes
/// shift theirs to.
fn passes(cfg: &MashupConfig, w: &Workflow) -> Vec<(usize, WorkflowReport)> {
    let checked = CheckedWorkflow::borrowed(w).expect("clean workflow");
    let vm_plan = PlacementPlan::uniform(w, Platform::VmCluster);
    let splits = [1usize, 2, 4]
        .into_iter()
        .filter(|&k| k <= cfg.cluster.nodes);
    splits
        .map(|k| {
            let tuned = cfg
                .clone()
                .with_subclusters(k)
                .with_seed(cfg.seed.wrapping_add(0x9e3779b9));
            let report = execute(
                &tuned,
                &checked,
                &vm_plan,
                None,
                Release::PhaseBarrier,
                "pdc-profiling",
                &Tracer::off(),
            )
            .expect("clean config and plan");
            (k, report)
        })
        .collect()
}

/// The profiling stage, run every pass and folded the plain way.
fn reference(cfg: &MashupConfig, w: &Workflow) -> Profile {
    fold(w, passes(cfg, w))
}

/// The profiling stage from its passes: each task's best time, the split
/// the 5% hysteresis picks, and the summed expense.
fn fold(w: &Workflow, passes: Vec<(usize, WorkflowReport)>) -> Profile {
    let mut expense = Expense::default();
    let mut best_task_vm = vec![f64::INFINITY; w.task_count()];
    let mut best: Option<(usize, WorkflowReport)> = None;
    let flat_of: BTreeMap<&str, usize> = w
        .task_refs()
        .enumerate()
        .map(|(flat, r)| (w.task(r).name.as_str(), flat))
        .collect();
    for (k, report) in passes {
        expense.vm_dollars += report.expense.vm_dollars;
        expense.faas_dollars += report.expense.faas_dollars;
        expense.storage_dollars += report.expense.storage_dollars;
        for t in &report.tasks {
            let flat = flat_of[t.name.as_str()];
            best_task_vm[flat] = best_task_vm[flat].min(t.makespan_secs());
        }
        if best
            .as_ref()
            .is_none_or(|(_, b)| report.makespan_secs < b.makespan_secs * 0.95)
        {
            best = Some((k, report));
        }
    }
    let (subclusters, report) = best.expect("k = 1 always runs");
    Profile {
        best_task_vm,
        subclusters,
        vm_makespan_secs: report.makespan_secs,
        expense,
    }
}

/// The profiling stage as `decide` reports it: each decision carries its
/// task's best VM time verbatim, in flat-id order.
fn profiled(pdc: &Pdc, w: &Workflow) -> Profile {
    let report = pdc.decide(w);
    Profile {
        best_task_vm: report.decisions.iter().map(|d| d.t_vm_secs).collect(),
        subclusters: report.subclusters,
        vm_makespan_secs: report.profiling_vm_makespan_secs,
        expense: report.profiling_expense,
    }
}

fn assert_bit_identical(label: &str, got: &Profile, want: &Profile) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&got.best_task_vm),
        bits(&want.best_task_vm),
        "{label}: best_task_vm"
    );
    assert_eq!(got.subclusters, want.subclusters, "{label}: subclusters");
    assert_eq!(
        got.vm_makespan_secs.to_bits(),
        want.vm_makespan_secs.to_bits(),
        "{label}: vm_makespan_secs"
    );
    for (field, g, w) in [
        ("vm", got.expense.vm_dollars, want.expense.vm_dollars),
        ("faas", got.expense.faas_dollars, want.expense.faas_dollars),
        (
            "storage",
            got.expense.storage_dollars,
            want.expense.storage_dollars,
        ),
    ] {
        assert_eq!(g.to_bits(), w.to_bits(), "{label}: {field} expense");
    }
}

#[test]
fn paper_workflow_profiles_match_the_checked_three_pass_reference() {
    let paper = [
        genome1000::workflow as fn() -> Workflow,
        srasearch::workflow,
        epigenomics::workflow,
    ];
    for build in paper {
        let w = build();
        for nodes in [4, 8, 16] {
            let cfg = MashupConfig::aws(nodes);
            let got = profiled(&Pdc::new(cfg.clone()), &w);
            let label = format!("{}@{nodes}", w.name);
            assert_bit_identical(&label, &got, &reference(&cfg, &w));
        }
    }
}

#[test]
fn scale_profiles_match_the_checked_three_pass_reference() {
    for shape in [Shape::FanOut, Shape::Chain] {
        let w = scale::workflow(shape, 10_000);
        let cfg = MashupConfig::aws(8);
        let pdc = Pdc::new(cfg.clone()).with_probe_sharing(true);
        // The chain's one-component tasks fit any split; the fan-out's
        // k = 1 pass stacks its whole worker phase on node 0.
        assert_eq!(pdc.splits_tie(&w.phases), shape == Shape::Chain);
        let got = profiled(&pdc, &w);
        assert_bit_identical(shape.name(), &got, &reference(&cfg, &w));
    }
}

/// A deterministic draw stream (splitmix64) for the generated workflows.
struct Draws(u64);

impl Draws {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    }

    fn pick(&mut self, xs: &[f64]) -> f64 {
        xs[self.below(xs.len())]
    }
}

/// The kinds of generated workflow.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    /// Phases of 1–2 tasks of 1–2 components, at most 8 GiB each: most
    /// fit every split of most clusters.
    Narrow,
    /// 1–3 phases of 1–3 tasks of 1–4 components, of 0.5, 8 or 16 GiB:
    /// loads and resident sets on either side of a node's 2 cores and
    /// 16 GiB, under some splits and not others.
    Edge,
    /// Phases of 1–5 tasks, now and then of up to 40 components, up to
    /// 16 GiB each: most overload some node.
    Free,
    /// Free, and every task writes bytes, so no phase can tie.
    Io,
}

/// Workflow `seed` of `kind`: 1–6 phases with assorted compute, thrash
/// coefficients and jitter; each task past phase 0 depends on one task of
/// the phase before it.
fn generated(seed: u64, kind: Kind) -> Workflow {
    let mut d = Draws(seed);
    let mut b = WorkflowBuilder::new(format!("generated-{kind:?}-{seed}"));
    b.initial_input_bytes(1e6);
    let mut prev: Vec<TaskRef> = Vec::new();
    let phases = 1 + d.below(if kind == Kind::Edge { 3 } else { 6 });
    for p in 0..phases {
        b.begin_phase();
        let mut cur = Vec::new();
        let width = 1 + d.below(match kind {
            Kind::Narrow => 2,
            Kind::Edge => 3,
            Kind::Free | Kind::Io => 5,
        });
        for i in 0..width {
            let (components, gb): (usize, &[f64]) = match kind {
                Kind::Narrow => (1 + d.below(2), &[0.25, 0.5, 2.0, 8.0]),
                Kind::Edge => (1 + d.below(4), &[0.5, 8.0, 16.0]),
                Kind::Free | Kind::Io if d.below(4) == 0 => {
                    (1 + d.below(40), &[0.25, 0.5, 2.0, 6.0, 16.0])
                }
                Kind::Free | Kind::Io => (1 + d.below(2), &[0.25, 0.5, 2.0, 6.0, 16.0]),
            };
            let contention = if kind == Kind::Edge {
                1.5
            } else {
                d.pick(&[0.0, 1.5])
            };
            let mut profile = TaskProfile::trivial()
                .compute(d.pick(&[2.0, 15.0, 40.0, 90.0]))
                .memory(d.pick(gb))
                .contention(contention)
                .jitter(d.pick(&[0.0, 0.05]));
            if kind == Kind::Io {
                profile = profile.io(d.pick(&[0.0, 1e6, 5e7]), d.pick(&[1e6, 2e7]));
            }
            let t = b.add_task(Task::new(format!("p{p}t{i}"), components, profile));
            if !prev.is_empty() {
                b.depend(t, prev[d.below(prev.len())], DependencyPattern::AllToAll);
            }
            cur.push(t);
        }
        prev = cur;
    }
    b.build()
}

#[test]
fn generated_profiles_match_the_reference_whether_or_not_splits_tie() {
    // Even and uneven splits (3, 5 and 6 nodes), and splits larger than
    // the cluster (1, 2 and 3 nodes), which the passes skip.
    const NODES: [usize; 7] = [1, 2, 3, 5, 6, 8, 16];
    let cache = Arc::new(PlanCache::new());
    let mut ties = [0usize; NODES.len()];
    let mut zero_io_refusals = 0;
    for seed in 0..24 {
        for kind in [Kind::Narrow, Kind::Edge, Kind::Free, Kind::Io] {
            let w = generated(seed, kind);
            for (n, nodes) in NODES.into_iter().enumerate() {
                let cfg = MashupConfig::aws(nodes);
                let pdc = Pdc::new(cfg.clone()).with_cache(cache.clone());
                let label = format!("{}@{nodes}", w.name);
                let runs = passes(&cfg, &w);
                let tie = pdc.splits_tie(&w.phases);
                match (tie, kind) {
                    (true, Kind::Io) => panic!("{label}: a workflow that moves bytes tied"),
                    (true, _) => ties[n] += 1,
                    (false, Kind::Io) => {}
                    (false, _) => zero_io_refusals += 1,
                }
                if tie {
                    // Sound, not just harmless after the fold: every
                    // split's report is the first split's, bit for bit.
                    let first = format!("{:?}", runs[0].1);
                    for (k, report) in &runs[1..] {
                        assert_eq!(format!("{report:?}"), first, "{label}: split {k}");
                    }
                }
                assert_bit_identical(&label, &profiled(&pdc, &w), &fold(&w, runs));
            }
        }
    }
    // Not vacuous: the rule skips passes at every node count, and refuses
    // some zero-I/O workflows too.
    assert!(ties.iter().all(|&t| t > 0), "ties per node count: {ties:?}");
    assert!(zero_io_refusals > 0, "no zero-I/O workflow was refused");
}

/// Tasks given as (components, GiB).
type Tasks = &'static [(usize, f64)];

/// One phase of `tasks`, thrashing once a node's resident set passes its
/// RAM.
fn one_phase(tasks: Tasks) -> Workflow {
    let mut b = WorkflowBuilder::new("edge");
    b.initial_input_bytes(1e6);
    b.begin_phase();
    for (i, &(components, gb)) in tasks.iter().enumerate() {
        let profile = TaskProfile::trivial()
            .compute(30.0)
            .memory(gb)
            .contention(1.5);
        b.add_task(Task::new(format!("t{i}"), components, profile));
    }
    b.build()
}

#[test]
fn splits_tie_is_decided_at_the_exact_bounds() {
    // r5.large nodes: 2 cores, 16 GiB. Each case sits at a bound of the
    // rule: accepted ones fill it exactly, refused ones pass it under one
    // split only, where that split's pass really runs differently.
    let cases: [(usize, Tasks, bool); 6] = [
        // 2 components on 1 node: load 2 = cores, 2 × 8 GiB = RAM.
        (1, &[(2, 8.0)], true),
        // k = 2 puts 3 components on a 1-node sub-cluster.
        (2, &[(3, 0.5)], false),
        // k = 2 puts both 16 GiB components on one node.
        (2, &[(2, 16.0)], false),
        // 5 nodes split 2/1/1/1 at k = 4: the second task lands alone on
        // a 1-node sub-cluster with 3 components (2/2/2/2 would fit it).
        (5, &[(1, 0.5), (3, 0.5)], false),
        // 6 nodes split 3/3 at k = 2 and 2/2/1/1 at k = 4: both tasks fit
        // every split (one component each on node 0 at k = 1).
        (6, &[(4, 0.5), (2, 8.0)], true),
        // 3 nodes split 2/1 at k = 2: task 1 gets both its components on
        // the 1-node sub-cluster, filling its cores and RAM exactly.
        (3, &[(3, 0.5), (2, 8.0)], true),
    ];
    for (nodes, tasks, want) in cases {
        let w = one_phase(tasks);
        let cfg = MashupConfig::aws(nodes);
        let pdc = Pdc::new(cfg.clone());
        let label = format!("{tasks:?}@{nodes}");
        assert_eq!(pdc.splits_tie(&w.phases), want, "{label}");
        let runs = passes(&cfg, &w);
        let first = format!("{:?}", runs[0].1);
        let same = runs[1..].iter().all(|(_, r)| format!("{r:?}") == first);
        assert_eq!(same, want, "{label}: the passes tie exactly when accepted");
        assert_bit_identical(&label, &profiled(&pdc, &w), &fold(&w, runs));
    }
}

/// The fusions the golden below replans: each single fusable pair, and the
/// first two disjoint pairs together when there are such (of the paper
/// workflows, only Epigenomics' chain has fusable pairs).
fn fusions(w: &Workflow) -> Vec<Vec<FusionCandidate>> {
    let pairs = fusable_pairs(w);
    let mut out: Vec<Vec<FusionCandidate>> = pairs.iter().map(|&p| vec![p]).collect();
    let disjoint = |a: &FusionCandidate, b: &FusionCandidate| {
        let tasks = [a.producer, a.consumer];
        !tasks.contains(&b.producer) && !tasks.contains(&b.consumer)
    };
    let two = pairs.iter().enumerate().find_map(|(i, a)| {
        let b = pairs[i + 1..].iter().find(|b| disjoint(a, b))?;
        Some(vec![*a, *b])
    });
    out.extend(two);
    out
}

/// Every paper workflow's fusions at 1–48 nodes, each replanned from the
/// base report on a fresh cache, so that each fused phase runs its scoped
/// profile: a digest of every decision's `t_vm_secs` and the profiling
/// expense, bit for bit. Re-bless after an intentional change with
/// `MASHUP_BLESS_TRACES=1 cargo test --test vm_profile`.
#[test]
fn scoped_phase_profiles_match_golden_digest() {
    let mut f = Fingerprinter::new("scoped-phase-profile-v1");
    let (mut cases, mut two_pair) = (0, 0);
    for build in [
        genome1000::workflow as fn() -> Workflow,
        srasearch::workflow,
        epigenomics::workflow,
    ] {
        let w = build();
        let candidates = fusions(&w);
        two_pair += candidates.iter().filter(|c| c.len() == 2).count();
        for nodes in [1, 2, 3, 4, 8, 16, 48] {
            let cfg = MashupConfig::aws(nodes);
            let prev = Pdc::new(cfg.clone()).decide(&w);
            for pairs in &candidates {
                let fused = CheckedWorkflow::new(fuse(&w, pairs).expect("fusable"))
                    .expect("clean fused workflow");
                let pdc = Pdc::new(cfg.clone()).with_cache(Arc::new(PlanCache::new()));
                let (report, stats) = pdc.replan(&w, &prev, &fused);
                assert!(stats.dirty_phases > 0 && !stats.full_replan);
                for d in &report.decisions {
                    f.write_f64(d.t_vm_secs);
                }
                let e = report.profiling_expense;
                for x in [e.vm_dollars, e.faas_dollars, e.storage_dollars] {
                    f.write_f64(x);
                }
                cases += 1;
            }
        }
    }
    assert_eq!(two_pair, 1, "one disjoint two-pair fusion");
    let actual = format!("{cases} cases {:032x}\n", f.digest());
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/trace_fixtures/golden/scoped_phase_profile.digest");
    if std::env::var_os("MASHUP_BLESS_TRACES").is_some() {
        std::fs::write(&path, &actual).expect("write fixture");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("committed fixture");
    assert_eq!(
        golden, actual,
        "scoped phase profiles drifted from the golden digest (bless with \
         MASHUP_BLESS_TRACES=1 if the change is intentional)"
    );
}

/// SRAsearch with one profile field the analyzer refuses (M105).
fn refused_workflow() -> Workflow {
    let w = srasearch::workflow();
    let mut phases = w.phases.clone();
    phases[0].tasks[0].profile.compute_secs_vm = f64::NAN;
    Workflow::new(w.name.clone(), phases, w.initial_input_bytes)
}

#[test]
fn decide_on_a_refused_workflow_panics_with_the_analyzer_message() {
    let cfg = MashupConfig::aws(8);
    let w = refused_workflow();
    let vm_plan = PlacementPlan::uniform(&w, Platform::VmCluster);
    let expected = preflight(&cfg.clone().with_subclusters(1), &w, Some(&vm_plan))
        .expect_err("NaN compute is refused")
        .to_string();
    let payload = catch_unwind(AssertUnwindSafe(|| Pdc::new(cfg).decide(&w)))
        .expect_err("decide must refuse the workflow");
    let message = payload
        .downcast_ref::<String>()
        .expect("formatted panic message");
    assert_eq!(message, &expected);
}

#[test]
fn plan_refuses_before_any_profiling_pass() {
    // The workflow checks refuse before a planner can be called at all.
    let w = refused_workflow();
    let err = CheckedWorkflow::borrowed(&w).expect_err("typed refusal");
    assert_eq!(err, preflight(&MashupConfig::aws(8), &w, None).unwrap_err());
    // The planner's own config checks refuse before any profiling stage.
    let cfg = MashupConfig::aws(0);
    let w = CheckedWorkflow::new(srasearch::workflow()).expect("clean workflow");
    let cache = Arc::new(PlanCache::new());
    let err = Pdc::new(cfg.clone())
        .with_cache(cache.clone())
        .plan(&w)
        .expect_err("typed refusal");
    assert_eq!(err, w.check(&cfg, None, None).unwrap_err());
    assert_eq!(cache.stats().misses(), 0, "no profiling stage ran");
}

#[test]
fn adaptive_replan_keeps_report_names_in_completion_order() {
    let w = CheckedWorkflow::new(srasearch::workflow()).expect("clean workflow");
    let cfg = MashupConfig::aws(8);
    let plan = Pdc::new(cfg.clone()).plan(&w).expect("clean config").plan;
    let mut faults = FaultPlan::empty(7);
    faults.faults.push(Fault::Preempt {
        at_secs: 5.0,
        node: 1,
    });
    let chaotic = cfg.with_chaos(ChaosSpec::new(faults).with_adaptive(true));
    let tracer = Tracer::new();
    let report = execute(
        &chaotic,
        &w,
        &plan,
        None,
        Release::PhaseBarrier,
        "adaptive",
        &tracer,
    )
    .expect("clean inputs");
    let records = tracer.take();
    assert!(
        records
            .iter()
            .any(|r| matches!(r.event, TraceEvent::Replan { .. })),
        "the preemption must trigger a replan"
    );
    // Reports are pushed as tasks finish, exactly where the recorder logs
    // each task's end.
    let ended: Vec<&str> = records
        .iter()
        .filter_map(|r| match &r.event {
            TraceEvent::TaskEnd { task } => Some(task.as_str()),
            _ => None,
        })
        .collect();
    let named: Vec<&str> = report.tasks.iter().map(|t| t.name.as_str()).collect();
    assert_eq!(named, ended);
    let mut sorted = named.clone();
    sorted.sort_unstable();
    let mut all: Vec<&str> = w
        .phases
        .iter()
        .flat_map(|p| &p.tasks)
        .map(|t| t.name.as_str())
        .collect();
    all.sort_unstable();
    assert_eq!(sorted, all, "every task reported once");
}
