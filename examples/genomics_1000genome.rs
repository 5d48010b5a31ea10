//! Run the paper's 1000Genome workflow end to end: Mashup vs every
//! baseline, on a cluster size of your choice.
//!
//! ```text
//! cargo run --release --example genomics_1000genome -- [nodes]
//! ```

use mashup::prelude::*;

fn main() {
    let nodes: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(16);
    let cfg = MashupConfig::aws(nodes);
    let workflow =
        CheckedWorkflow::new(genome1000::workflow()).expect("1000Genome passes the analyzer");
    println!(
        "1000Genome: {} tasks, {} components, {} phases, on {} nodes\n",
        workflow.task_count(),
        workflow.component_count(),
        workflow.phases.len(),
        nodes
    );

    let run = |s: Strategy| {
        s.run(&cfg, &workflow, &Tracer::off(), None)
            .expect("the cluster passes the analyzer")
    };
    let traditional = run(Strategy::TraditionalTuned);
    let serverless = run(Strategy::ServerlessOnly);
    let pegasus = run(Strategy::Pegasus);
    let kepler = run(Strategy::Kepler);
    let mashup = Mashup::new(cfg)
        .run_checked(&workflow)
        .expect("the cluster passes the analyzer");

    println!("=== Placement chosen by Mashup's PDC ===");
    for d in &mashup.pdc.decisions {
        let reason = d
            .forced_vm_reason
            .map(|r| format!(" (forced: {r})"))
            .unwrap_or_default();
        println!(
            "  {:<18} -> {}{}",
            workflow.task(d.task).name,
            d.platform,
            reason
        );
    }

    println!("\n=== Makespan and expense ===");
    let rows: Vec<(&str, &WorkflowReport)> = vec![
        ("traditional", &traditional),
        ("serverless-only", &serverless),
        ("pegasus-like", &pegasus),
        ("kepler-like", &kepler),
        ("mashup", &mashup.report),
    ];
    for (name, r) in &rows {
        println!(
            "  {:<16} {:>10.1}s   ${:>8.4}   (vs traditional: {:+.1}% time, {:+.1}% cost)",
            name,
            r.makespan_secs,
            r.expense.total(),
            improvement_pct(r.makespan_secs, traditional.makespan_secs),
            improvement_pct(r.expense.total(), traditional.expense.total()),
        );
    }

    println!("\n=== Serverless overheads inside Mashup's run ===");
    println!(
        "  cold start {:.1}s, I/O {:.1}s, scaling {:.1}s, {} checkpoints",
        mashup.report.total_cold_start_secs(),
        mashup.report.total_io_secs(),
        mashup.report.total_scaling_secs(),
        mashup.report.total_checkpoints()
    );

    println!("\n=== Hybrid timeline ===");
    print!("{}", mashup.report.render_gantt(60));
}
