//! Quickstart: run Mashup on a small custom workflow and compare it with a
//! traditional VM-cluster execution.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use mashup::prelude::*;

fn main() {
    // 1. Describe a workflow: a wide fan-out of short components feeding a
    //    single merge — the shape serverless loves and small clusters hate.
    let mut b = WorkflowBuilder::new("quickstart");
    b.initial_input_bytes(2.0e9);
    b.begin_phase();
    let extract = b.add_task(Task::new(
        "extract",
        128,
        TaskProfile::trivial()
            .compute(12.0)
            .io(1.0e7, 5.0e6)
            .memory(1.5) // 32 co-residents per 16 GiB node: swap thrash
            .contention(2.0),
    ));
    b.begin_phase();
    let merge = b.add_task(Task::new(
        "merge",
        1,
        TaskProfile::trivial()
            .compute(90.0)
            .slowdown(1.2)
            .io(6.4e8, 1.0e7)
            .memory(2.0),
    ));
    b.depend(merge, extract, DependencyPattern::AllToAll);
    // The static checks run once, here; planners and strategies take the
    // checked workflow instead of checking it again.
    let workflow = CheckedWorkflow::new(b.build().expect("workflow is valid"))
        .expect("the workflow passes the analyzer");

    // 2. Pick an environment: 4 r5.large-like nodes + a Lambda-like platform.
    let cfg = MashupConfig::aws(4);

    // 3. Let Mashup's PDC profile the workflow and choose placements.
    let outcome = Mashup::new(cfg.clone())
        .run_checked(&workflow)
        .expect("the cluster passes the analyzer");
    println!("=== PDC decisions ===");
    for d in &outcome.pdc.decisions {
        println!(
            "  {:<10} C={:<4} T_vm={:>8.1}s  T_serverless≈{:>8.1}s  -> {}",
            workflow.task(d.task).name,
            d.components,
            d.t_vm_secs,
            d.t_serverless_est_secs,
            d.platform
        );
    }

    // 4. Compare with the traditional all-VM execution.
    let traditional = Strategy::Traditional
        .run(&cfg, &workflow, &Tracer::off(), None)
        .expect("its all-VM plan passes the analyzer");
    println!("\n=== Results ===");
    println!(
        "  traditional cluster : {:>8.1}s  ${:.4}",
        traditional.makespan_secs,
        traditional.expense.total()
    );
    println!(
        "  mashup (hybrid)     : {:>8.1}s  ${:.4}",
        outcome.report.makespan_secs,
        outcome.report.expense.total()
    );
    println!(
        "  improvement         : {:>7.1}% time, {:.1}% expense",
        improvement_pct(outcome.report.makespan_secs, traditional.makespan_secs),
        improvement_pct(outcome.report.expense.total(), traditional.expense.total())
    );
}
