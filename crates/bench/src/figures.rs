//! One harness function per paper table/figure. See `EXPERIMENTS.md` for
//! paper-vs-measured numbers.

use crate::par_map;
use crate::strategies::{grid, run_cells, RunCell, Strategy};
use crate::table::{f1, pct, usd, Table};
use mashup_core::{
    improvement_pct, CheckedWorkflow, Mashup, MashupConfig, Objective, Platform, TaskDecision,
    WorkflowReport,
};
use mashup_dag::{Task, TaskProfile, Workflow, WorkflowBuilder};
use mashup_workflows::{epigenomics, genome1000, srasearch};
use serde::Serialize;

/// The cluster sizes of the paper's sweeps (Figs. 6, 7, 9).
pub const CLUSTER_SIZES: [usize; 8] = [2, 4, 8, 16, 32, 48, 64, 96];

/// The cluster size of the paper's single-size comparisons (Figs. 8, 12).
pub const DEFAULT_NODES: usize = 48;

/// Runs the M1xx checks once for every cell that runs `w`; the harness
/// builds only workflows that pass them.
pub(crate) fn checked(w: Workflow) -> CheckedWorkflow<'static> {
    CheckedWorkflow::new(w).unwrap_or_else(|e| panic!("{e}"))
}

/// The paper's workflows, each checked once for the cells that plan it.
fn paper_workflows() -> Vec<CheckedWorkflow<'static>> {
    [
        genome1000::workflow,
        srasearch::workflow,
        epigenomics::workflow,
    ]
    .map(|build| checked(build()))
    .into()
}

/// The paper's workflows that `targets` (workflow, task) name, in paper
/// order.
fn named_paper_workflows(targets: &[(&str, &str)]) -> Vec<CheckedWorkflow<'static>> {
    paper_workflows()
        .into_iter()
        .filter(|w| targets.iter().any(|(wf, _)| *wf == w.name))
        .collect()
}

// ---------------------------------------------------------------------------
// Fig. 2 — preferable environment per SRAsearch task
// ---------------------------------------------------------------------------

/// One task's execution time under the three environments, % of the max.
#[derive(Debug, Clone, Serialize)]
pub struct Fig02Row {
    /// Task name.
    pub task: String,
    /// Serverless execution time, % of the row max.
    pub serverless_pct: f64,
    /// 4-node cluster, % of the row max.
    pub nodes4_pct: f64,
    /// 64-node cluster, % of the row max.
    pub nodes64_pct: f64,
}

/// Fig. 2 result.
#[derive(Debug, Clone, Serialize)]
pub struct Fig02 {
    /// Per-task rows.
    pub rows: Vec<Fig02Row>,
}

/// Regenerates Fig. 2: per-task SRAsearch execution time on serverless vs a
/// 4-node vs a 64-node cluster (as % of each task's max).
pub fn fig02_env_choice() -> Fig02 {
    let w = checked(srasearch::workflow());
    let reports = run_cells(&[
        RunCell::new(MashupConfig::aws(4), &w, Strategy::ServerlessOnly),
        RunCell::new(MashupConfig::aws(4), &w, Strategy::Traditional),
        RunCell::new(MashupConfig::aws(64), &w, Strategy::Traditional),
    ]);
    let (sl, vm4, vm64) = (&reports[0], &reports[1], &reports[2]);
    let rows = w
        .task_refs()
        .map(|r| {
            let name = &w.task(r).name;
            let t_sl = sl.task(name).expect("task ran").makespan_secs();
            let t_4 = vm4.task(name).expect("task ran").makespan_secs();
            let t_64 = vm64.task(name).expect("task ran").makespan_secs();
            let max = t_sl.max(t_4).max(t_64).max(1e-12);
            Fig02Row {
                task: name.clone(),
                serverless_pct: t_sl / max * 100.0,
                nodes4_pct: t_4 / max * 100.0,
                nodes64_pct: t_64 / max * 100.0,
            }
        })
        .collect();
    Fig02 { rows }
}

impl Fig02 {
    /// Renders the paper-style table.
    pub fn render(&self) -> String {
        let mut t = Table::new(&["task", "serverless", "4 nodes", "64 nodes"]);
        for r in &self.rows {
            t.row(vec![
                r.task.clone(),
                pct(r.serverless_pct),
                pct(r.nodes4_pct),
                pct(r.nodes64_pct),
            ]);
        }
        t.render()
    }
}

// ---------------------------------------------------------------------------
// Fig. 4 — serverless overheads
// ---------------------------------------------------------------------------

/// One task's overhead share.
#[derive(Debug, Clone, Serialize)]
pub struct OverheadRow {
    /// Task name.
    pub task: String,
    /// The overhead as % of the task's busy time.
    pub share_pct: f64,
}

/// Fig. 4(a)/(b) results.
#[derive(Debug, Clone, Serialize)]
pub struct Fig04ab {
    /// Which overhead (`"io"` or `"cold-start"`).
    pub metric: String,
    /// Per-task rows.
    pub rows: Vec<OverheadRow>,
}

/// Regenerates Fig. 4(a): I/O time share of serverless execution for
/// Frequency (1000Genome), Map (Epigenomics), and Individual (1000Genome).
pub fn fig04a_io_overhead() -> Fig04ab {
    let rows = overhead_rows(
        &[
            ("1000Genome", "Frequency"),
            ("Epigenomics", "Map"),
            ("1000Genome", "Individual"),
        ],
        |t| t.io_fraction(),
    );
    Fig04ab {
        metric: "io".into(),
        rows,
    }
}

/// Regenerates Fig. 4(b): cold-start share for Bowtie2 (SRAsearch), Map
/// (Epigenomics), and Chr21 (Epigenomics).
pub fn fig04b_cold_start() -> Fig04ab {
    let rows = overhead_rows(
        &[
            ("SRAsearch", "Bowtie2"),
            ("Epigenomics", "Map"),
            ("Epigenomics", "Chr21"),
        ],
        |t| t.cold_start_fraction(),
    );
    Fig04ab {
        metric: "cold-start".into(),
        rows,
    }
}

/// One row per (workflow, task) target, in the order requested, from a
/// serverless-only run of each named workflow on 4 nodes.
fn overhead_rows(
    targets: &[(&str, &str)],
    metric: impl Fn(&mashup_core::TaskReport) -> f64,
) -> Vec<OverheadRow> {
    let wfs = named_paper_workflows(targets);
    let reports = run_cells(&grid(
        &wfs,
        &[MashupConfig::aws(4)],
        &[Strategy::ServerlessOnly],
    ));
    targets
        .iter()
        .map(|&(wf, task)| {
            let wi = wfs
                .iter()
                .position(|w| w.name == wf)
                .expect("paper workflow");
            OverheadRow {
                task: task.to_string(),
                share_pct: metric(reports[wi].task(task).expect("task ran")) * 100.0,
            }
        })
        .collect()
}

impl Fig04ab {
    /// Renders the paper-style table.
    pub fn render(&self) -> String {
        let mut t = Table::new(&["task", &format!("{} % of busy time", self.metric)]);
        for r in &self.rows {
            t.row(vec![r.task.clone(), pct(r.share_pct)]);
        }
        t.render()
    }
}

/// Fig. 4(c): scaling time vs component count.
#[derive(Debug, Clone, Serialize)]
pub struct Fig04c {
    /// Component counts swept.
    pub components: Vec<usize>,
    /// Per-task series of scaling seconds, keyed by task name.
    pub series: Vec<(String, Vec<f64>)>,
}

/// Regenerates Fig. 4(c): serverless scaling time against component count
/// (100–1500) for tasks with the Individual / Frequency / Map profiles.
pub fn fig04c_scaling() -> Fig04c {
    let counts = vec![100usize, 500, 1000, 1500];
    let profiles: Vec<(String, TaskProfile)> = {
        let g = genome1000::workflow();
        let e = epigenomics::workflow();
        vec![
            (
                "Individual".into(),
                g.task_by_name("Individual")
                    .expect("exists")
                    .1
                    .profile
                    .clone(),
            ),
            (
                "Frequency".into(),
                g.task_by_name("Frequency")
                    .expect("exists")
                    .1
                    .profile
                    .clone(),
            ),
            (
                "Map".into(),
                e.task_by_name("Map").expect("exists").1.profile.clone(),
            ),
        ]
    };
    // One single-task workflow per (profile, component count).
    let wfs: Vec<CheckedWorkflow> = profiles
        .iter()
        .flat_map(|(name, profile)| {
            counts.iter().map(move |&c| {
                let mut b = WorkflowBuilder::new(format!("scaling-{name}-{c}"));
                b.initial_input_bytes(profile.input_bytes * c as f64);
                b.begin_phase();
                b.add_task(Task::new(name.clone(), c, profile.clone()));
                checked(b.build())
            })
        })
        .collect();
    let reports = run_cells(&grid(
        &wfs,
        &[MashupConfig::aws(4)],
        &[Strategy::ServerlessOnly],
    ));
    let series = profiles
        .into_iter()
        .zip(reports.chunks(counts.len()))
        .map(|((name, _), runs)| (name, runs.iter().map(|r| r.tasks[0].scaling_secs).collect()))
        .collect();
    Fig04c {
        components: counts,
        series,
    }
}

impl Fig04c {
    /// Renders the paper-style table.
    pub fn render(&self) -> String {
        let mut header = vec!["task".to_string()];
        header.extend(self.components.iter().map(|c| format!("C={c}")));
        let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
        let mut t = Table::new(&header_refs);
        for (name, points) in &self.series {
            let mut row = vec![name.clone()];
            row.extend(points.iter().map(|&p| format!("{p:.1}s")));
            t.row(row);
        }
        t.render()
    }
}

// ---------------------------------------------------------------------------
// Fig. 5 — optimization objective
// ---------------------------------------------------------------------------

/// One objective's outcome, % of the max across objectives.
#[derive(Debug, Clone, Serialize)]
pub struct Fig05Row {
    /// Objective label.
    pub objective: String,
    /// Execution time, % of max.
    pub time_pct: f64,
    /// Expense, % of max.
    pub expense_pct: f64,
}

/// Fig. 5 result.
#[derive(Debug, Clone, Serialize)]
pub struct Fig05 {
    /// Per-objective rows.
    pub rows: Vec<Fig05Row>,
}

/// Regenerates Fig. 5: Mashup on SRAsearch under the three optimization
/// objectives (execution time / expense / both).
pub fn fig05_objectives() -> Fig05 {
    let w = CheckedWorkflow::new(srasearch::workflow()).expect("SRAsearch checks clean");
    let cfg = MashupConfig::aws(DEFAULT_NODES);
    let objectives = vec![
        ("time", Objective::ExecutionTime),
        ("expense", Objective::Expense),
        ("both", Objective::Both),
    ];
    let run = |(label, obj): (&str, Objective)| {
        let tracer = if crate::trace_dir().is_some() {
            mashup_core::Tracer::new()
        } else {
            mashup_core::Tracer::off()
        };
        let o = Mashup::new(cfg.clone())
            .with_objective(obj)
            .with_cache(crate::plan_cache())
            .with_tracer(tracer.clone())
            .run_checked(&w)
            .expect("the paper's configs pass the analyzer");
        if tracer.is_on() {
            let label = format!("mashup-{label}");
            crate::trace_dir::write_trace(&cfg, &o.report.workflow, &label, &tracer.take());
        }
        (
            label.to_string(),
            o.report.makespan_secs,
            o.report.expense.total(),
        )
    };
    let outcomes: Vec<(String, f64, f64)> = par_map(objectives, run);
    let max_t = outcomes.iter().map(|o| o.1).fold(0.0, f64::max).max(1e-12);
    let max_e = outcomes.iter().map(|o| o.2).fold(0.0, f64::max).max(1e-12);
    Fig05 {
        rows: outcomes
            .into_iter()
            .map(|(objective, t, e)| Fig05Row {
                objective,
                time_pct: t / max_t * 100.0,
                expense_pct: e / max_e * 100.0,
            })
            .collect(),
    }
}

impl Fig05 {
    /// Renders the paper-style table.
    pub fn render(&self) -> String {
        let mut t = Table::new(&["objective", "exec time (% max)", "expense (% max)"]);
        for r in &self.rows {
            t.row(vec![
                r.objective.clone(),
                pct(r.time_pct),
                pct(r.expense_pct),
            ]);
        }
        t.render()
    }
}

// ---------------------------------------------------------------------------
// Figs. 6 & 7 — improvement over the traditional cluster across sizes
// ---------------------------------------------------------------------------

/// Improvement sweep result (Figs. 6 and 7 share the shape).
#[derive(Debug, Clone, Serialize)]
pub struct SweepResult {
    /// `"time"` or `"expense"`.
    pub metric: String,
    /// Cluster sizes swept.
    pub sizes: Vec<usize>,
    /// Per-workflow improvement % series over the traditional cluster.
    pub series: Vec<(String, Vec<f64>)>,
}

/// Regenerates Fig. 6: Mashup's execution-time improvement over the
/// traditional cluster for every workflow and cluster size.
pub fn fig06_exec_time() -> SweepResult {
    sweep("time", |mashup, base| {
        improvement_pct(mashup.makespan_secs, base.makespan_secs)
    })
}

/// Regenerates Fig. 7: Mashup's expense improvement over the traditional
/// cluster for every workflow and cluster size.
pub fn fig07_expense() -> SweepResult {
    sweep("expense", |mashup, base| {
        improvement_pct(mashup.expense.total(), base.expense.total())
    })
}

/// The tuned traditional baseline and Mashup under each config, in that
/// order: the pair every improvement figure scores.
const VERSUS: [Strategy; 2] = [Strategy::TraditionalTuned, Strategy::Mashup];

/// Scores Mashup against the tuned baseline for each workflow at each
/// cluster size. Figs. 6 and 7 declare the same cells, so the second of
/// them to run executes none.
fn sweep(metric: &str, score: impl Fn(&WorkflowReport, &WorkflowReport) -> f64) -> SweepResult {
    let workflows = paper_workflows();
    let configs = CLUSTER_SIZES.map(MashupConfig::aws);
    let reports = run_cells(&grid(&workflows, &configs, &VERSUS));
    let series = workflows
        .iter()
        .zip(reports.chunks(configs.len() * VERSUS.len()))
        .map(|(w, runs)| {
            let points = runs.chunks(VERSUS.len()).map(|p| score(&p[1], &p[0]));
            (w.name.clone(), points.collect())
        })
        .collect();
    SweepResult {
        metric: metric.into(),
        sizes: CLUSTER_SIZES.to_vec(),
        series,
    }
}

impl SweepResult {
    /// Renders the paper-style table.
    pub fn render(&self) -> String {
        let mut header = vec!["workflow".to_string()];
        header.extend(self.sizes.iter().map(|s| format!("{s}n")));
        header.push("avg".into());
        let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
        let mut t = Table::new(&header_refs);
        for (name, pts) in &self.series {
            let mut row = vec![name.clone()];
            row.extend(pts.iter().map(|&p| pct(p)));
            row.push(pct(pts.iter().sum::<f64>() / pts.len().max(1) as f64));
            t.row(row);
        }
        t.render()
    }
}

// ---------------------------------------------------------------------------
// Fig. 8 — cheap and expensive VM families
// ---------------------------------------------------------------------------

/// One (workflow, family) improvement pair.
#[derive(Debug, Clone, Serialize)]
pub struct Fig08Row {
    /// Workflow name.
    pub workflow: String,
    /// VM family label.
    pub family: String,
    /// Time improvement % over the same-family traditional cluster.
    pub time_improvement_pct: f64,
    /// Expense improvement %.
    pub expense_improvement_pct: f64,
}

/// Fig. 8 result.
#[derive(Debug, Clone, Serialize)]
pub struct Fig08 {
    /// All rows.
    pub rows: Vec<Fig08Row>,
}

/// Regenerates Fig. 8: Mashup with the cheap (m5-like) and expensive
/// (r5b-like) VM families on a 48-node cluster.
pub fn fig08_vm_families() -> Fig08 {
    let wfs = [genome1000::workflow(), srasearch::workflow()].map(checked);
    let families = ["cheap (m5)", "expensive (r5b)"];
    let configs = [
        MashupConfig::aws_cheap(DEFAULT_NODES),
        MashupConfig::aws_expensive(DEFAULT_NODES),
    ];
    let reports = run_cells(&grid(&wfs, &configs, &VERSUS));
    let labels = wfs
        .iter()
        .flat_map(|w| families.map(|f| (w.name.clone(), f)));
    let rows = labels
        .zip(reports.chunks(VERSUS.len()))
        .map(|((workflow, family), p)| {
            let (base, mashup) = (&p[0], &p[1]);
            Fig08Row {
                workflow,
                family: family.into(),
                time_improvement_pct: improvement_pct(mashup.makespan_secs, base.makespan_secs),
                expense_improvement_pct: improvement_pct(
                    mashup.expense.total(),
                    base.expense.total(),
                ),
            }
        })
        .collect();
    Fig08 { rows }
}

impl Fig08 {
    /// Renders the paper-style table.
    pub fn render(&self) -> String {
        let mut t = Table::new(&["workflow", "family", "time improv.", "expense improv."]);
        for r in &self.rows {
            t.row(vec![
                r.workflow.clone(),
                r.family.clone(),
                pct(r.time_improvement_pct),
                pct(r.expense_improvement_pct),
            ]);
        }
        t.render()
    }
}

// ---------------------------------------------------------------------------
// Fig. 9 — placement maps
// ---------------------------------------------------------------------------

/// Placement map for one workflow: rows are strategies/cluster sizes,
/// columns are tasks, cells are platforms.
#[derive(Debug, Clone, Serialize)]
pub struct Fig09Workflow {
    /// Workflow name.
    pub workflow: String,
    /// Task names in DAG order.
    pub tasks: Vec<String>,
    /// `(row label, placements)` — `true` = serverless (the paper's green).
    pub rows: Vec<(String, Vec<bool>)>,
}

/// Fig. 9 result.
#[derive(Debug, Clone, Serialize)]
pub struct Fig09 {
    /// One map per workflow.
    pub workflows: Vec<Fig09Workflow>,
}

/// Regenerates Fig. 9: the placement each strategy chooses for every task —
/// the w/o-PDC row plus the PDC's choice at each cluster size.
pub fn fig09_placement() -> Fig09 {
    let wfs = paper_workflows();
    // One work item per map row: the w/o-PDC plan or one PDC decision.
    let items: Vec<(usize, Option<usize>)> = (0..wfs.len())
        .flat_map(|wi| {
            std::iter::once((wi, None))
                .chain((0..CLUSTER_SIZES.len()).map(move |si| (wi, Some(si))))
        })
        .collect();
    let rows_flat: Vec<(String, Vec<bool>)> = par_map(items, |(wi, si)| {
        let w = &wfs[wi];
        match si {
            None => {
                // w/o PDC at the default size.
                let cfg = MashupConfig::aws(DEFAULT_NODES);
                let naive = mashup_core::plan_without_pdc(&cfg, w);
                (
                    "w/o PDC".to_string(),
                    w.task_refs()
                        .map(|r| naive.platform(r) == Ok(Platform::Serverless))
                        .collect(),
                )
            }
            Some(si) => {
                let n = CLUSTER_SIZES[si];
                let pdc = crate::plan_cache::cached_pdc(MashupConfig::aws(n))
                    .plan(w)
                    .expect("the paper's configs pass the analyzer");
                (
                    format!("{n} nodes"),
                    w.task_refs()
                        .map(|r| pdc.plan.platform(r) == Ok(Platform::Serverless))
                        .collect(),
                )
            }
        }
    });
    let rows_per_wf = 1 + CLUSTER_SIZES.len();
    let workflows = wfs
        .iter()
        .enumerate()
        .map(|(wi, w)| Fig09Workflow {
            workflow: w.name.clone(),
            tasks: w.task_refs().map(|r| w.task(r).name.clone()).collect(),
            rows: rows_flat[wi * rows_per_wf..(wi + 1) * rows_per_wf].to_vec(),
        })
        .collect();
    Fig09 { workflows }
}

impl Fig09 {
    /// Renders the paper-style maps (S = serverless/green, V = VM/blue).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for wf in &self.workflows {
            out.push_str(&format!("\n{}:\n", wf.workflow));
            let mut header = vec!["placement".to_string()];
            header.extend(wf.tasks.clone());
            let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
            let mut t = Table::new(&header_refs);
            for (label, cells) in &wf.rows {
                let mut row = vec![label.clone()];
                row.extend(cells.iter().map(|&s| if s { "S" } else { "V" }.to_string()));
                t.row(row);
            }
            out.push_str(&t.render());
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Fig. 10 — system metrics (IPC, network, memory bandwidth)
// ---------------------------------------------------------------------------

/// Synthesized system-metric traces for one task on both platforms.
#[derive(Debug, Clone, Serialize)]
pub struct Fig10Task {
    /// Task label (may include workflow context).
    pub task: String,
    /// Normalized IPC on the cluster (1.0 = reference core, degraded by
    /// co-residency contention).
    pub ipc_vm: f64,
    /// Normalized IPC inside a serverless function.
    pub ipc_serverless: f64,
    /// Fraction of the task's serverless busy time spent on network I/O.
    pub net_share_serverless: f64,
    /// Fraction of the task's cluster busy time spent on network I/O.
    pub net_share_vm: f64,
}

/// Fig. 10 result.
#[derive(Debug, Clone, Serialize)]
pub struct Fig10 {
    /// Per-task metric summaries.
    pub tasks: Vec<Fig10Task>,
}

/// Regenerates Fig. 10's system-metric comparison for the five tasks the
/// paper plots: effective IPC per platform and the network-time share.
///
/// IPC excludes plain timesharing (sharing a core halves throughput but
/// not per-instruction efficiency): the VM-side IPC is the reciprocal of
/// the memory-pressure *thrash* multiplier at a 96-node cluster (the size
/// regime where the paper discusses these placements), and the
/// serverless-side IPC is the reciprocal of the profile's slowdown. The
/// network-time shares come from executed runs. The paper reads all of
/// these off hardware counters; here they come from the model's own
/// mechanisms.
pub fn fig10_sysmetrics() -> Fig10 {
    let targets = [
        ("1000Genome", "Individual"),
        ("1000Genome", "Individual-Merge"),
        ("SRAsearch", "FasterQ-Dump"),
        ("SRAsearch", "Merge1"),
        ("Epigenomics", "FastQSplit"),
    ];
    let nodes = 96usize;
    let cfg = MashupConfig::aws(nodes);
    let wfs = named_paper_workflows(&targets);
    let reports = run_cells(&grid(
        &wfs,
        std::slice::from_ref(&cfg),
        &[Strategy::Traditional, Strategy::ServerlessOnly],
    ));
    let mut tasks = Vec::new();
    for (w, runs) in wfs.iter().zip(reports.chunks(2)) {
        let (vm, sl) = (&runs[0], &runs[1]);
        let wanted = targets.iter().filter(|(wf, _)| *wf == w.name);
        for &(_, name) in wanted {
            let (_, task) = w.task_by_name(name).expect("exists");
            let vm_t = vm.task(name).expect("ran");
            let sl_t = sl.task(name).expect("ran");
            let instance = &cfg.cluster.instance;
            let load = task.components.div_ceil(nodes);
            let factor = mashup_cloud::VmCluster::timeshare_factor(
                load,
                instance.cores,
                task.profile.memory_gb,
                instance.memory_gb,
                task.profile.vm_local_contention,
            );
            let oversub = (load as f64 / instance.cores as f64).max(1.0);
            let thrash = factor / oversub;
            tasks.push(Fig10Task {
                task: format!("{} ({})", name, w.name),
                ipc_vm: 1.0 / thrash.max(1e-12),
                ipc_serverless: 1.0 / task.profile.serverless_slowdown,
                net_share_serverless: sl_t.io_fraction(),
                net_share_vm: vm_t.io_fraction(),
            });
        }
    }
    Fig10 { tasks }
}

impl Fig10 {
    /// Renders the paper-style table.
    pub fn render(&self) -> String {
        let mut t = Table::new(&[
            "task",
            "IPC (VM)",
            "IPC (serverless)",
            "net share (VM)",
            "net share (serverless)",
        ]);
        for r in &self.tasks {
            t.row(vec![
                r.task.clone(),
                format!("{:.2}", r.ipc_vm),
                format!("{:.2}", r.ipc_serverless),
                pct(r.net_share_vm * 100.0),
                pct(r.net_share_serverless * 100.0),
            ]);
        }
        t.render()
    }
}

// ---------------------------------------------------------------------------
// Fig. 11 — best of both worlds scatter
// ---------------------------------------------------------------------------

/// One strategy's normalized (time, expense) point for one workflow.
#[derive(Debug, Clone, Serialize)]
pub struct Fig11Point {
    /// Workflow name.
    pub workflow: String,
    /// Strategy label.
    pub strategy: String,
    /// Execution time as % of the workflow max.
    pub time_pct: f64,
    /// Expense as % of the workflow max.
    pub expense_pct: f64,
}

/// Fig. 11 result.
#[derive(Debug, Clone, Serialize)]
pub struct Fig11 {
    /// All points.
    pub points: Vec<Fig11Point>,
}

/// Fig. 11's strategies, each with the label its points carry.
const FIG11: [(&str, Strategy); 3] = [
    ("serverless", Strategy::ServerlessOnly),
    ("vm-cluster", Strategy::TraditionalTuned),
    ("mashup", Strategy::Mashup),
];

/// Regenerates Fig. 11: the time-vs-expense scatter of serverless-only,
/// VM cluster, and Mashup for each workflow (smaller is better). Uses a
/// 16-node cluster — the mid-size regime where the hybrid's
/// best-of-both-worlds effect is clearest on our substrate.
pub fn fig11_pareto() -> Fig11 {
    let wfs = paper_workflows();
    let strategies = FIG11.map(|(_, s)| s);
    let reports = run_cells(&grid(&wfs, &[MashupConfig::aws(16)], &strategies));
    let mut points = Vec::new();
    for (w, runs) in wfs.iter().zip(reports.chunks(FIG11.len())) {
        let entries: Vec<_> = FIG11
            .map(|(label, _)| label)
            .into_iter()
            .zip(runs)
            .collect();
        let max_t = entries
            .iter()
            .map(|(_, r)| r.makespan_secs)
            .fold(0.0, f64::max)
            .max(1e-12);
        let max_e = entries
            .iter()
            .map(|(_, r)| r.expense.total())
            .fold(0.0, f64::max)
            .max(1e-12);
        for (label, r) in entries {
            points.push(Fig11Point {
                workflow: w.name.clone(),
                strategy: label.into(),
                time_pct: r.makespan_secs / max_t * 100.0,
                expense_pct: r.expense.total() / max_e * 100.0,
            });
        }
    }
    Fig11 { points }
}

impl Fig11 {
    /// Renders the paper-style table.
    pub fn render(&self) -> String {
        let mut t = Table::new(&["workflow", "strategy", "time (% max)", "expense (% max)"]);
        for p in &self.points {
            t.row(vec![
                p.workflow.clone(),
                p.strategy.clone(),
                pct(p.time_pct),
                pct(p.expense_pct),
            ]);
        }
        t.render()
    }
}

// ---------------------------------------------------------------------------
// Fig. 11 extension — searched Pareto front vs the strategy points
// ---------------------------------------------------------------------------

/// One absolute (time, expense) point of the Fig. 11 search overlay.
#[derive(Debug, Clone, Serialize)]
pub struct Fig11SearchPoint {
    /// Workflow name.
    pub workflow: String,
    /// Point label: a strategy name, or a searched-candidate summary such
    /// as `"fuse[A→B] size[C:8GB]"`.
    pub label: String,
    /// Measured end-to-end makespan, seconds.
    pub makespan_secs: f64,
    /// Measured total expense, dollars.
    pub expense_dollars: f64,
}

/// Fig. 11 search-overlay result.
#[derive(Debug, Clone, Serialize)]
pub struct Fig11Search {
    /// Candidate budget each per-workflow sweep ran under.
    pub budget: usize,
    /// The measured Pareto front the sweep found, per workflow.
    pub front: Vec<Fig11SearchPoint>,
    /// The Fig. 11 strategy points, in absolute units.
    pub strategies: Vec<Fig11SearchPoint>,
    /// Workflows whose searched front weakly dominates (matches or beats
    /// on both axes) every one of their strategy points.
    pub dominated_workflows: Vec<String>,
}

/// Extends Fig. 11 with the Pareto plan search: for each paper workflow,
/// sweeps the fusion × per-task-sizing candidate space in the Fig. 11
/// regime (16 nodes) and overlays the measured front on the strategy
/// scatter, in absolute units so dominance is checkable. Opt-in in the
/// `figures` binary (`fig11search`) — it is an extension of the paper, not
/// a reproduction, so it stays out of the default golden set.
pub fn fig11_search() -> Fig11Search {
    const BUDGET: usize = 200;
    let cfg = MashupConfig::aws(16);
    let wfs = paper_workflows();
    let reports = run_cells(&grid(
        &wfs,
        std::slice::from_ref(&cfg),
        &FIG11.map(|(_, s)| s),
    ));
    let labels = wfs.iter().flat_map(|w| FIG11.map(|(l, _)| (&w.name, l)));
    let strategies: Vec<Fig11SearchPoint> = labels
        .zip(&reports)
        .map(|((workflow, label), r)| Fig11SearchPoint {
            workflow: workflow.clone(),
            label: label.into(),
            makespan_secs: r.makespan_secs,
            expense_dollars: r.expense.total(),
        })
        .collect();

    // The sweeps parallelize internally (candidate evaluation fans out on
    // the shared pool), so run the workflows one after another.
    let mut front = Vec::new();
    let mut dominated_workflows = Vec::new();
    for w in &wfs {
        let outcome = mashup_serve::pareto_sweep_with(&cfg, w, BUDGET, crate::plan_cache())
            .expect("the paper's configs pass the analyzer");
        let covered = strategies.iter().filter(|s| s.workflow == w.name).all(|s| {
            outcome.front.iter().any(|f| {
                f.makespan_secs <= s.makespan_secs && f.expense_dollars <= s.expense_dollars
            })
        });
        if covered {
            dominated_workflows.push(w.name.clone());
        }
        front.extend(outcome.front.into_iter().map(|f| Fig11SearchPoint {
            workflow: w.name.clone(),
            label: f.label,
            makespan_secs: f.makespan_secs,
            expense_dollars: f.expense_dollars,
        }));
    }
    Fig11Search {
        budget: BUDGET,
        front,
        strategies,
        dominated_workflows,
    }
}

impl Fig11Search {
    /// Renders the overlay table.
    pub fn render(&self) -> String {
        let mut t = Table::new(&["workflow", "point", "label", "time (s)", "expense"]);
        for p in &self.strategies {
            t.row(vec![
                p.workflow.clone(),
                "strategy".into(),
                p.label.clone(),
                f1(p.makespan_secs),
                usd(p.expense_dollars),
            ]);
        }
        for p in &self.front {
            t.row(vec![
                p.workflow.clone(),
                "front".into(),
                p.label.clone(),
                f1(p.makespan_secs),
                usd(p.expense_dollars),
            ]);
        }
        let mut out = t.render();
        out.push_str(&format!(
            "front covers every strategy point on: {}\n",
            if self.dominated_workflows.is_empty() {
                "(none)".into()
            } else {
                self.dominated_workflows.join(", ")
            }
        ));
        out
    }
}

// ---------------------------------------------------------------------------
// Fig. 12 — against Pegasus and Kepler
// ---------------------------------------------------------------------------

/// One (workflow, engine) improvement pair over the traditional cluster.
#[derive(Debug, Clone, Serialize)]
pub struct Fig12Row {
    /// Workflow name.
    pub workflow: String,
    /// Engine label.
    pub engine: String,
    /// Time improvement % over the traditional cluster.
    pub time_improvement_pct: f64,
    /// Expense improvement %.
    pub expense_improvement_pct: f64,
}

/// Fig. 12 result.
#[derive(Debug, Clone, Serialize)]
pub struct Fig12 {
    /// All rows.
    pub rows: Vec<Fig12Row>,
    /// Mashup's average time improvement over the better of Pegasus/Kepler
    /// per workflow, averaged (the paper's headline 34 %).
    pub avg_time_improvement_over_managers_pct: f64,
    /// Same for expense (the paper's headline 43 %).
    pub avg_expense_improvement_over_managers_pct: f64,
}

/// Regenerates Fig. 12: Kepler-like, Pegasus-like, and Mashup on a 48-node
/// cluster, as improvement over the plain traditional execution.
pub fn fig12_managers() -> Fig12 {
    let wfs = paper_workflows();
    let strategies = [
        Strategy::Traditional,
        Strategy::Kepler,
        Strategy::Pegasus,
        Strategy::Mashup,
    ];
    let reports = run_cells(&grid(
        &wfs,
        &[MashupConfig::aws(DEFAULT_NODES)],
        &strategies,
    ));
    let mut rows = Vec::new();
    let mut time_over = Vec::new();
    let mut cost_over = Vec::new();
    for (w, runs) in wfs.iter().zip(reports.chunks(strategies.len())) {
        let (base, kepler, pegasus, mashup) = (&runs[0], &runs[1], &runs[2], &runs[3]);
        for (engine, r) in [("kepler", kepler), ("pegasus", pegasus), ("mashup", mashup)] {
            rows.push(Fig12Row {
                workflow: w.name.clone(),
                engine: engine.into(),
                time_improvement_pct: improvement_pct(r.makespan_secs, base.makespan_secs),
                expense_improvement_pct: improvement_pct(r.expense.total(), base.expense.total()),
            });
        }
        let best_mgr_time = kepler.makespan_secs.min(pegasus.makespan_secs);
        let best_mgr_cost = kepler.expense.total().min(pegasus.expense.total());
        time_over.push(improvement_pct(mashup.makespan_secs, best_mgr_time));
        cost_over.push(improvement_pct(mashup.expense.total(), best_mgr_cost));
    }
    Fig12 {
        rows,
        avg_time_improvement_over_managers_pct: time_over.iter().sum::<f64>()
            / time_over.len() as f64,
        avg_expense_improvement_over_managers_pct: cost_over.iter().sum::<f64>()
            / cost_over.len() as f64,
    }
}

impl Fig12 {
    /// Renders the paper-style table.
    pub fn render(&self) -> String {
        let mut t = Table::new(&["workflow", "engine", "time improv.", "expense improv."]);
        for r in &self.rows {
            t.row(vec![
                r.workflow.clone(),
                r.engine.clone(),
                pct(r.time_improvement_pct),
                pct(r.expense_improvement_pct),
            ]);
        }
        let mut out = t.render();
        out.push_str(&format!(
            "mashup vs best manager (avg): {} time, {} expense\n",
            pct(self.avg_time_improvement_over_managers_pct),
            pct(self.avg_expense_improvement_over_managers_pct)
        ));
        out
    }
}

// ---------------------------------------------------------------------------
// §5 text experiments
// ---------------------------------------------------------------------------

/// Input-size sensitivity result (§5 "Impact of workflow size").
#[derive(Debug, Clone, Serialize)]
pub struct TextInputSizes {
    /// `(scale, time improvement %, expense improvement %)` per input.
    pub rows: Vec<(f64, f64, f64)>,
}

/// Regenerates the §5 input-size study: SRAsearch at four representative
/// input scales (~5–8.4 TB).
pub fn text_input_sizes() -> TextInputSizes {
    let scales = mashup_workflows::INPUT_SCALES;
    let wfs = scales.map(|scale| checked(srasearch::workflow_scaled(scale)));
    let reports = run_cells(&grid(&wfs, &[MashupConfig::aws(DEFAULT_NODES)], &VERSUS));
    let rows = scales
        .into_iter()
        .zip(reports.chunks(VERSUS.len()))
        .map(|(scale, p)| {
            let (base, mashup) = (&p[0], &p[1]);
            (
                scale,
                improvement_pct(mashup.makespan_secs, base.makespan_secs),
                improvement_pct(mashup.expense.total(), base.expense.total()),
            )
        })
        .collect();
    TextInputSizes { rows }
}

impl TextInputSizes {
    /// Renders the study.
    pub fn render(&self) -> String {
        let mut t = Table::new(&["input scale", "time improv.", "expense improv."]);
        for &(s, ti, ei) in &self.rows {
            t.row(vec![format!("{s:.2}x"), pct(ti), pct(ei)]);
        }
        t.render()
    }
}

/// Half-cluster comparison result (§5: 48-node Mashup vs 96-node cluster).
#[derive(Debug, Clone, Serialize)]
pub struct TextHalfCluster {
    /// Mashup's makespan on the half-size cluster.
    pub mashup_half_secs: f64,
    /// Traditional makespan on the double-size cluster.
    pub traditional_full_secs: f64,
    /// Time improvement %.
    pub time_improvement_pct: f64,
    /// Expense improvement %.
    pub expense_improvement_pct: f64,
}

/// Regenerates the §5 claim that Mashup on a 48-node cluster beats a 96-node
/// traditional execution of SRAsearch on both time and cost.
pub fn text_half_cluster() -> TextHalfCluster {
    let w = checked(srasearch::workflow());
    let reports = run_cells(&[
        RunCell::new(MashupConfig::aws(48), &w, Strategy::Mashup),
        RunCell::new(MashupConfig::aws(96), &w, Strategy::TraditionalTuned),
    ]);
    let (mashup, traditional) = (&reports[0], &reports[1]);
    TextHalfCluster {
        mashup_half_secs: mashup.makespan_secs,
        traditional_full_secs: traditional.makespan_secs,
        time_improvement_pct: improvement_pct(mashup.makespan_secs, traditional.makespan_secs),
        expense_improvement_pct: improvement_pct(
            mashup.expense.total(),
            traditional.expense.total(),
        ),
    }
}

impl TextHalfCluster {
    /// Renders the comparison.
    pub fn render(&self) -> String {
        format!(
            "mashup@48 nodes: {}s vs traditional@96 nodes: {}s -> {} time, {} expense\n",
            f1(self.mashup_half_secs),
            f1(self.traditional_full_secs),
            pct(self.time_improvement_pct),
            pct(self.expense_improvement_pct)
        )
    }
}

/// GCP-like portability result (§5).
#[derive(Debug, Clone, Serialize)]
pub struct TextGcp {
    /// `(workflow, with-profiling time %, with-profiling cost %,
    /// without-profiling time %, without-profiling cost %)`.
    pub rows: Vec<(String, f64, f64, f64, f64)>,
}

/// Regenerates the §5 portability study: Mashup (and Mashup w/o the
/// profiling PDC) on a GCP-like provider with 16 nodes.
pub fn text_gcp() -> TextGcp {
    let wfs = [genome1000::workflow(), srasearch::workflow()].map(checked);
    let strategies = [
        Strategy::TraditionalTuned,
        Strategy::Mashup,
        Strategy::MashupWithoutPdc,
    ];
    let reports = run_cells(&grid(&wfs, &[MashupConfig::gcp(16)], &strategies));
    let rows = wfs
        .iter()
        .zip(reports.chunks(strategies.len()))
        .map(|(w, runs)| {
            let (base, with, without) = (&runs[0], &runs[1], &runs[2]);
            (
                w.name.clone(),
                improvement_pct(with.makespan_secs, base.makespan_secs),
                improvement_pct(with.expense.total(), base.expense.total()),
                improvement_pct(without.makespan_secs, base.makespan_secs),
                improvement_pct(without.expense.total(), base.expense.total()),
            )
        })
        .collect();
    TextGcp { rows }
}

impl TextGcp {
    /// Renders the study.
    pub fn render(&self) -> String {
        let mut t = Table::new(&[
            "workflow",
            "time (profiled)",
            "cost (profiled)",
            "time (no profiling)",
            "cost (no profiling)",
        ]);
        for (w, t1, c1, t2, c2) in &self.rows {
            t.row(vec![w.clone(), pct(*t1), pct(*c1), pct(*t2), pct(*c2)]);
        }
        t.render()
    }
}

/// Overhead-reduction result (§5: Mashup vs w/o PDC vs serverless-only).
#[derive(Debug, Clone, Serialize)]
pub struct TextOverheads {
    /// `(workflow, cold-start reduction %, I/O reduction %, scaling
    /// reduction %)` of Mashup vs Mashup w/o PDC.
    pub vs_wo_pdc: Vec<(String, f64, f64, f64)>,
    /// Serverless-only's overhead multiple of w/o PDC (cold, io, scaling),
    /// averaged across workflows (the paper's ~1.3×).
    pub serverless_only_multiple: (f64, f64, f64),
}

/// Regenerates the §5 overhead analysis: how much cold-start, I/O, and
/// scaling time the PDC removes, and how much worse serverless-only is.
pub fn text_overheads() -> TextOverheads {
    let wfs = paper_workflows();
    let strategies = [
        Strategy::Mashup,
        Strategy::MashupWithoutPdc,
        Strategy::ServerlessOnly,
    ];
    let reports = run_cells(&grid(
        &wfs,
        &[MashupConfig::aws(DEFAULT_NODES)],
        &strategies,
    ));
    let mut vs_wo_pdc = Vec::new();
    let mut multiples = Vec::new();
    for (w, runs) in wfs.iter().zip(reports.chunks(strategies.len())) {
        let (mashup, wo, sl) = (&runs[0], &runs[1], &runs[2]);
        let red = |ours: f64, base: f64| {
            if base <= 0.0 {
                0.0
            } else {
                (1.0 - ours / base) * 100.0
            }
        };
        vs_wo_pdc.push((
            w.name.clone(),
            red(mashup.total_cold_start_secs(), wo.total_cold_start_secs()),
            red(mashup.total_io_secs(), wo.total_io_secs()),
            red(mashup.total_scaling_secs(), wo.total_scaling_secs()),
        ));
        let ratio = |a: f64, b: f64| if b <= 0.0 { 1.0 } else { a / b };
        multiples.push((
            ratio(sl.total_cold_start_secs(), wo.total_cold_start_secs()),
            ratio(sl.total_io_secs(), wo.total_io_secs()),
            ratio(sl.total_scaling_secs(), wo.total_scaling_secs()),
        ));
    }
    let n = multiples.len() as f64;
    let serverless_only_multiple = (
        multiples.iter().map(|m| m.0).sum::<f64>() / n,
        multiples.iter().map(|m| m.1).sum::<f64>() / n,
        multiples.iter().map(|m| m.2).sum::<f64>() / n,
    );
    TextOverheads {
        vs_wo_pdc,
        serverless_only_multiple,
    }
}

impl TextOverheads {
    /// Renders the analysis.
    pub fn render(&self) -> String {
        let mut t = Table::new(&["workflow", "cold-start red.", "I/O red.", "scaling red."]);
        for (w, c, i, s) in &self.vs_wo_pdc {
            t.row(vec![w.clone(), pct(*c), pct(*i), pct(*s)]);
        }
        let mut out = t.render();
        out.push_str(&format!(
            "serverless-only vs w/o PDC multiples: cold {:.2}x, io {:.2}x, scaling {:.2}x\n",
            self.serverless_only_multiple.0,
            self.serverless_only_multiple.1,
            self.serverless_only_multiple.2
        ));
        out
    }
}

/// PDC estimation accuracy result (§5: "more than 95 % accurate").
#[derive(Debug, Clone, Serialize)]
pub struct TextPdcAccuracy {
    /// `(workflow, task, estimated secs, actual secs, accuracy %)` for
    /// every task the PDC estimated (forced tasks excluded).
    pub rows: Vec<(String, String, f64, f64, f64)>,
    /// Fraction of tasks where the PDC's choice matches the measured
    /// per-task optimum.
    pub placement_agreement_pct: f64,
    /// Mean estimation accuracy.
    pub mean_accuracy_pct: f64,
}

/// A task alone in a workflow of its own, matching the scope of the PDC's
/// Eq. 1 estimate.
fn isolated(task: &Task) -> CheckedWorkflow<'static> {
    let mut b = WorkflowBuilder::new(format!("isolated-{}", task.name));
    b.initial_input_bytes(task.profile.input_bytes * task.components as f64);
    b.begin_phase();
    b.add_task(Task::new(
        task.name.clone(),
        task.components,
        task.profile.clone(),
    ));
    checked(b.build())
}

/// Regenerates the §5 accuracy analysis: the PDC's serverless estimates
/// against the actually-measured serverless task times (isolated runs, the
/// estimate's scope), plus agreement with the per-task optimum from
/// exhaustive (both-platform) measurement.
pub fn text_pdc_accuracy() -> TextPdcAccuracy {
    let wfs = paper_workflows();
    let cfg = MashupConfig::aws(DEFAULT_NODES);
    // Every decision the PDC estimated (forced ones never were), by
    // workflow.
    let estimated: Vec<(usize, TaskDecision)> = wfs
        .iter()
        .enumerate()
        .flat_map(|(wi, w)| {
            let pdc = crate::plan_cache::cached_pdc(cfg.clone())
                .plan(w)
                .expect("the paper's configs pass the analyzer");
            pdc.decisions
                .into_iter()
                .filter(|d| d.forced_vm_reason.is_none())
                .map(move |d| (wi, d))
        })
        .collect();
    let alone: Vec<CheckedWorkflow> = estimated
        .iter()
        .map(|(wi, d)| isolated(wfs[*wi].task(d.task)))
        .collect();
    let mut cells = grid(
        &wfs,
        std::slice::from_ref(&cfg),
        &[Strategy::TraditionalTuned],
    );
    cells.extend(grid(
        &alone,
        std::slice::from_ref(&cfg),
        &[Strategy::ServerlessOnly],
    ));
    let reports = run_cells(&cells);
    let (vm, alone) = reports.split_at(wfs.len());

    let mut rows = Vec::new();
    let mut agree = 0usize;
    for ((wi, d), alone) in estimated.iter().zip(alone) {
        let (w, task) = (&wfs[*wi], wfs[*wi].task(d.task));
        let actual = alone.tasks[0].makespan_secs();
        let accuracy =
            (1.0 - (d.t_serverless_est_secs - actual).abs() / actual.max(1e-12)).max(0.0) * 100.0;
        rows.push((
            w.name.clone(),
            task.name.clone(),
            d.t_serverless_est_secs,
            actual,
            accuracy,
        ));
        // Exhaustive optimum from the two uniform runs.
        let vm_actual = vm[*wi].task(&task.name).expect("ran").makespan_secs();
        let optimal = if actual < vm_actual {
            Platform::Serverless
        } else {
            Platform::VmCluster
        };
        if optimal == d.platform {
            agree += 1;
        }
    }
    let mean = rows.iter().map(|r| r.4).sum::<f64>() / rows.len().max(1) as f64;
    TextPdcAccuracy {
        rows,
        placement_agreement_pct: agree as f64 / estimated.len().max(1) as f64 * 100.0,
        mean_accuracy_pct: mean,
    }
}

impl TextPdcAccuracy {
    /// Renders the analysis.
    pub fn render(&self) -> String {
        let mut t = Table::new(&["workflow", "task", "estimated", "actual", "accuracy"]);
        for (w, task, est, act, acc) in &self.rows {
            t.row(vec![
                w.clone(),
                task.clone(),
                format!("{est:.1}s"),
                format!("{act:.1}s"),
                pct(*acc),
            ]);
        }
        let mut out = t.render();
        out.push_str(&format!(
            "mean estimate accuracy {}; placement agreement with exhaustive optimum {}\n",
            pct(self.mean_accuracy_pct),
            pct(self.placement_agreement_pct)
        ));
        out
    }
}

/// Expense breakdown rows for context (used by the figures binary).
pub fn expense_summary(nodes: usize) -> String {
    let wfs = paper_workflows();
    let strategies = [
        Strategy::TraditionalTuned,
        Strategy::ServerlessOnly,
        Strategy::Mashup,
    ];
    let reports = run_cells(&grid(&wfs, &[MashupConfig::aws(nodes)], &strategies));
    let mut t = Table::new(&["workflow", "strategy", "makespan", "vm", "faas", "storage"]);
    for (w, runs) in wfs.iter().zip(reports.chunks(strategies.len())) {
        for (s, r) in strategies.iter().zip(runs) {
            t.row(vec![
                w.name.clone(),
                s.label().into(),
                format!("{:.0}s", r.makespan_secs),
                usd(r.expense.vm_dollars),
                usd(r.expense.faas_dollars),
                usd(r.expense.storage_dollars),
            ]);
        }
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig02_runs_and_covers_all_tasks() {
        let f = fig02_env_choice();
        assert_eq!(f.rows.len(), 5);
        for r in &f.rows {
            let max = r.serverless_pct.max(r.nodes4_pct).max(r.nodes64_pct);
            assert!((max - 100.0).abs() < 1e-6, "{r:?}");
        }
        // The paper's crossover: FasterQ-Dump beats 4 nodes on serverless
        // but loses to 64 nodes.
        let dump = f
            .rows
            .iter()
            .find(|r| r.task == "FasterQ-Dump")
            .expect("present");
        assert!(dump.serverless_pct < dump.nodes4_pct);
        assert!(dump.nodes64_pct < dump.serverless_pct * 2.0);
        assert!(f.render().contains("FasterQ-Dump"));
    }

    #[test]
    fn fig04c_scaling_is_monotonic_and_code_independent() {
        let f = fig04c_scaling();
        for (name, pts) in &f.series {
            for w in pts.windows(2) {
                assert!(w[1] >= w[0] - 1e-6, "{name}: {pts:?}");
            }
        }
        // The paper's key observation: scaling time is (largely)
        // independent of the task code — all series agree within noise.
        for i in 0..f.components.len() {
            let vals: Vec<f64> = f.series.iter().map(|(_, p)| p[i]).collect();
            let spread = vals.iter().fold(0.0f64, |a, &b| a.max(b))
                - vals.iter().fold(f64::INFINITY, |a, &b| a.min(b));
            assert!(spread < 5.0, "C={}: {vals:?}", f.components[i]);
        }
    }

    #[test]
    fn sweep_averages_match_series() {
        let s = SweepResult {
            metric: "time".into(),
            sizes: vec![2, 4],
            series: vec![("w".into(), vec![10.0, 30.0])],
        };
        let rendered = s.render();
        assert!(rendered.contains("2n"));
        assert!(rendered.contains("20.0%"));
    }

    #[test]
    fn fig05_objective_study_shape() {
        let f = fig05_objectives();
        assert_eq!(f.rows.len(), 3);
        let by = |name: &str| {
            f.rows
                .iter()
                .find(|r| r.objective == name)
                .expect("row present")
        };
        // The time objective is never slower than the expense objective,
        // and the expense objective is never dearer than the time one.
        assert!(by("time").time_pct <= by("expense").time_pct + 1e-6);
        assert!(by("expense").expense_pct <= by("time").expense_pct + 1e-6);
    }
}
