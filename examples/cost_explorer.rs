//! Sweep cluster sizes and optimization objectives for one workflow and
//! print the full cost/performance landscape — the tool a user would run
//! before committing to a cluster size.
//!
//! ```text
//! cargo run --release --example cost_explorer -- [1000Genome|SRAsearch|Epigenomics]
//! ```

use mashup::prelude::*;

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "SRAsearch".into());
    let workflow = match name.as_str() {
        "1000Genome" => genome1000::workflow(),
        "Epigenomics" => epigenomics::workflow(),
        _ => srasearch::workflow(),
    };
    // Checked once; every run below reuses the result.
    let workflow = CheckedWorkflow::new(workflow).expect("the workflow passes the analyzer");
    println!("cost landscape for {}\n", workflow.name);
    println!(
        "{:>5}  {:>12} {:>9}   {:>12} {:>9}   {:>7} {:>7}",
        "nodes", "trad time", "trad $", "mashup time", "mashup $", "Δtime", "Δcost"
    );
    for nodes in [2usize, 8, 16, 32, 64] {
        let cfg = MashupConfig::aws(nodes);
        let trad = Strategy::TraditionalTuned
            .run(&cfg, &workflow, &Tracer::off(), None)
            .expect("the cluster passes the analyzer");
        let mashup = Mashup::new(cfg)
            .run_checked(&workflow)
            .expect("the cluster passes the analyzer")
            .report;
        println!(
            "{:>5}  {:>11.0}s {:>9.4}   {:>11.0}s {:>9.4}   {:>6.1}% {:>6.1}%",
            nodes,
            trad.makespan_secs,
            trad.expense.total(),
            mashup.makespan_secs,
            mashup.expense.total(),
            improvement_pct(mashup.makespan_secs, trad.makespan_secs),
            improvement_pct(mashup.expense.total(), trad.expense.total()),
        );
    }

    // The Fig. 5 question: what does optimizing for expense instead buy?
    println!("\nobjective study at 16 nodes:");
    let cfg = MashupConfig::aws(16);
    for (label, obj) in [
        ("time", Objective::ExecutionTime),
        ("expense", Objective::Expense),
        ("both", Objective::Both),
    ] {
        let r = Mashup::new(cfg.clone())
            .with_objective(obj)
            .run_checked(&workflow)
            .expect("the cluster passes the analyzer");
        println!(
            "  minimize {:<8} -> {:>8.0}s  ${:.4}  ({} of {} tasks serverless)",
            label,
            r.report.makespan_secs,
            r.report.expense.total(),
            r.report.plan.count(Platform::Serverless),
            workflow.task_count(),
        );
    }
}
