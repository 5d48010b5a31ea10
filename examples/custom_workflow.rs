//! Define a workflow in JSON (the format Mashup users would write), load
//! and validate it, export its DAG to Graphviz, and run it through the
//! engine.
//!
//! ```text
//! cargo run --release --example custom_workflow [path/to/workflow.json]
//! ```

use mashup::prelude::*;

/// The example definition, also usable directly as a file:
/// `mashup analyze examples/protein_screen.json`.
const EMBEDDED: &str = include_str!("protein_screen.json");

fn main() {
    // 1. Load: from a file if given, else the embedded definition.
    let json = std::env::args()
        .nth(1)
        .map(|p| std::fs::read_to_string(&p).expect("readable workflow file"))
        .unwrap_or_else(|| EMBEDDED.to_string());
    let workflow = mashup::dag::from_json(&json).expect("valid workflow definition");
    println!(
        "loaded '{}': {} tasks / {} components / {} phases",
        workflow.name,
        workflow.task_count(),
        workflow.component_count(),
        workflow.phases.len()
    );

    // 2. Export the DAG for visualisation.
    let dot = mashup::dag::to_dot(&workflow);
    std::fs::write("/tmp/custom_workflow.dot", &dot).expect("write dot file");
    println!("DAG written to /tmp/custom_workflow.dot (render with graphviz)");

    // 3. Check it once, then run Mashup vs the baselines on a small cluster.
    let workflow = CheckedWorkflow::new(workflow).expect("the workflow passes the analyzer");
    let cfg = MashupConfig::aws(4);
    let outcome = Mashup::new(cfg.clone())
        .run_checked(&workflow)
        .expect("the cluster passes the analyzer");
    let run = |s: Strategy| {
        s.run(&cfg, &workflow, &Tracer::off(), None)
            .expect("the cluster passes the analyzer")
    };
    let traditional = run(Strategy::TraditionalTuned);
    let serverless = run(Strategy::ServerlessOnly);
    println!("\nplacements:");
    for d in &outcome.pdc.decisions {
        println!("  {:<8} -> {}", workflow.task(d.task).name, d.platform);
    }
    println!("\nresults on 4 nodes:");
    for (label, r) in [
        ("traditional", &traditional),
        ("serverless", &serverless),
        ("mashup", &outcome.report),
    ] {
        println!(
            "  {:<12} {:>8.1}s  ${:.4}",
            label,
            r.makespan_secs,
            r.expense.total()
        );
    }
}
