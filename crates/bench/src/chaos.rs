//! Fig. 13 (extension) — static vs adaptive execution under spot
//! preemption.
//!
//! The paper's evaluation runs on dedicated on-demand capacity; this cell
//! extends it with the chaos layer: the same Mashup placement is executed
//! twice under an identical seeded preemption schedule — once riding the
//! faults out (static) and once with the online replanning controller on
//! (adaptive) — across an escalating number of reclaimed nodes. Every
//! fault comes from the schedule and every run is bit-reproducible, so
//! the cell regenerates byte-identically.

use crate::par_map;
use crate::strategies::{run_strategy, Strategy};
use crate::table::{f1, pct, usd, Table};
use mashup_cloud::{Fault, FaultPlan};
use mashup_core::{improvement_pct, ChaosSpec, MashupConfig};
use mashup_workflows::{epigenomics, genome1000, srasearch};
use serde::Serialize;

/// Cluster size of the chaos comparison: small enough that losing a few
/// spot nodes moves the placement argmin.
pub const CHAOS_NODES: usize = 16;

/// Reclaimed-node counts swept per workflow.
pub const PREEMPT_SWEEP: [usize; 4] = [2, 4, 8, 12];

/// One (workflow, preemption-count) comparison cell.
#[derive(Debug, Clone, Serialize)]
pub struct Fig13Row {
    /// Workflow name.
    pub workflow: String,
    /// Spot nodes reclaimed (out of [`CHAOS_NODES`]).
    pub preempted_nodes: usize,
    /// Reclaim instant as a fraction of the fault-free makespan.
    pub preempt_at_secs: f64,
    /// Fault-free Mashup makespan (reference).
    pub fault_free_makespan_secs: f64,
    /// Static plan riding out the preemptions.
    pub static_makespan_secs: f64,
    /// Online controller replanning the remaining subgraph.
    pub adaptive_makespan_secs: f64,
    /// Adaptive time improvement over static, percent.
    pub time_improvement_pct: f64,
    /// Static total expense, dollars.
    pub static_expense_dollars: f64,
    /// Adaptive total expense, dollars.
    pub adaptive_expense_dollars: f64,
}

/// Fig. 13 result.
#[derive(Debug, Clone, Serialize)]
pub struct Fig13 {
    /// Cluster nodes the sweep ran on.
    pub nodes: usize,
    /// All comparison cells, workflow-major.
    pub rows: Vec<Fig13Row>,
}

/// A preemption schedule reclaiming flat nodes `1..=k` at `at_secs` (node 0
/// is spared so every sub-cluster keeps its structural survivor).
fn preempt_plan(k: usize, at_secs: f64) -> FaultPlan {
    let mut plan = FaultPlan::empty(13);
    for node in 1..=k {
        plan.faults.push(Fault::Preempt { at_secs, node });
    }
    plan
}

/// Regenerates the adaptive-execution cell: per paper workflow and
/// reclaimed-node count, the makespan/expense of the static Mashup plan vs
/// the replanning controller under the identical fault schedule.
pub fn fig13_adaptive() -> Fig13 {
    let wfs = vec![
        genome1000::workflow(),
        srasearch::workflow(),
        epigenomics::workflow(),
    ];
    // Fault-free reference runs size each workflow's reclaim instant.
    let baselines = par_map(wfs.clone(), |w| {
        run_strategy(&MashupConfig::aws(CHAOS_NODES), &w, Strategy::Mashup)
    });
    let cells: Vec<(usize, usize)> = (0..wfs.len())
        .flat_map(|wi| PREEMPT_SWEEP.iter().map(move |&k| (wi, k)))
        .collect();
    let rows = par_map(cells, |(wi, k)| {
        let w = &wfs[wi];
        let base = &baselines[wi];
        // Strike during the first quarter: enough of the run remains for
        // replanning to matter.
        let at = base.makespan_secs * 0.25;
        let plan = preempt_plan(k, at);
        let static_cfg = MashupConfig::aws(CHAOS_NODES).with_chaos(ChaosSpec::new(plan.clone()));
        let adaptive_cfg =
            MashupConfig::aws(CHAOS_NODES).with_chaos(ChaosSpec::new(plan).with_adaptive(true));
        let s = run_strategy(&static_cfg, w, Strategy::Mashup);
        let a = run_strategy(&adaptive_cfg, w, Strategy::Mashup);
        Fig13Row {
            workflow: w.name.clone(),
            preempted_nodes: k,
            preempt_at_secs: at,
            fault_free_makespan_secs: base.makespan_secs,
            static_makespan_secs: s.makespan_secs,
            adaptive_makespan_secs: a.makespan_secs,
            time_improvement_pct: improvement_pct(a.makespan_secs, s.makespan_secs),
            static_expense_dollars: s.expense.total(),
            adaptive_expense_dollars: a.expense.total(),
        }
    });
    Fig13 {
        nodes: CHAOS_NODES,
        rows,
    }
}

impl Fig13 {
    /// Renders the paper-style comparison table.
    pub fn render(&self) -> String {
        let mut t = Table::new(&[
            "workflow",
            "reclaimed",
            "fault-free",
            "static",
            "adaptive",
            "time improv.",
            "static $",
            "adaptive $",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.workflow.clone(),
                format!("{}/{}", r.preempted_nodes, self.nodes),
                f1(r.fault_free_makespan_secs),
                f1(r.static_makespan_secs),
                f1(r.adaptive_makespan_secs),
                pct(r.time_improvement_pct),
                usd(r.static_expense_dollars),
                usd(r.adaptive_expense_dollars),
            ]);
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preempt_plan_spares_node_zero() {
        let p = preempt_plan(3, 100.0);
        assert_eq!(p.faults.len(), 3);
        assert!(p
            .faults
            .iter()
            .all(|f| matches!(f, Fault::Preempt { node, .. } if *node >= 1)));
    }
}
