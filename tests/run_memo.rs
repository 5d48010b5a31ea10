//! The harness's run memo: one figures pass runs each distinct strategy
//! cell once. Its key must tell apart every input a run reads, and a report
//! it hands back must equal a fresh run of the same cell.

use mashup_bench as bench;
use mashup_bench::{run_cells, run_strategy_traced, RunCell, Strategy};
use mashup_cloud::{Fault, FaultPlan};
use mashup_core::{ChaosSpec, CheckedWorkflow, MashupConfig, Tracer};
use mashup_dag::{Task, TaskProfile, Workflow, WorkflowBuilder};
use std::sync::{Mutex, MutexGuard};

/// The memo and its counters are process-wide, and the test harness runs
/// tests on parallel threads: every test here holds this lock, so the
/// counter deltas it reads are its own.
static MEMO_COUNTERS: Mutex<()> = Mutex::new(());

fn memo_counters() -> MutexGuard<'static, ()> {
    MEMO_COUNTERS
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn workflow(name: &str) -> Workflow {
    let mut b = WorkflowBuilder::new(name);
    b.initial_input_bytes(4e8);
    b.begin_phase();
    let profile = TaskProfile::trivial()
        .compute(30.0)
        .io(1e7, 1e7)
        .jitter(0.2);
    b.add_task(Task::new("wide", 24, profile));
    b.build()
}

#[test]
fn cells_differing_in_any_input_get_their_own_entries_and_reports() {
    let _counters = memo_counters();
    let w = CheckedWorkflow::new(workflow("memo-key")).expect("checks clean");
    let renamed = CheckedWorkflow::new(workflow("memo-key-renamed")).expect("checks clean");
    let base = MashupConfig::aws(4);
    let mut priced = base.clone();
    priced.provider.faas.price_per_hour *= 2.0;
    let preempt = FaultPlan {
        seed: 3,
        faults: vec![Fault::Preempt {
            at_secs: 5.0,
            node: 1,
        }],
        spot_price_trace: Vec::new(),
    };
    let cells = [
        RunCell::new(base.clone(), &w, Strategy::ServerlessOnly),
        RunCell::new(priced, &w, Strategy::ServerlessOnly),
        RunCell::new(base.clone().with_seed(7), &w, Strategy::ServerlessOnly),
        RunCell::new(base.clone(), &renamed, Strategy::ServerlessOnly),
        RunCell::new(base.clone(), &w, Strategy::Traditional),
        RunCell::new(base.clone().with_subclusters(2), &w, Strategy::Traditional),
        RunCell::new(
            base.clone().with_chaos(ChaosSpec::new(preempt)),
            &w,
            Strategy::Traditional,
        ),
        RunCell::new(base, &w, Strategy::Mashup),
    ];

    let before = bench::run_stats();
    let first = run_cells(&cells);
    let between = bench::run_stats();
    let again = run_cells(&cells);
    let after = bench::run_stats();
    assert_eq!(
        between.executed - before.executed,
        cells.len() as u64,
        "two cells shared a memo entry"
    );
    assert_eq!(
        after.executed, between.executed,
        "a repeated cell ran again"
    );

    for ((cell, hit), ran) in cells.iter().zip(&again).zip(&first) {
        let fresh = run_strategy_traced(&cell.cfg, cell.workflow, cell.strategy, &Tracer::off());
        let label = format!("{} {:?}", cell.strategy.label(), cell.cfg.seed);
        assert_eq!(
            format!("{hit:?}"),
            format!("{fresh:?}"),
            "memo hit: {label}"
        );
        assert_eq!(
            format!("{ran:?}"),
            format!("{fresh:?}"),
            "first run: {label}"
        );
    }
    // Each input shows in its own report.
    let faas = |i: usize| first[i].expense.faas_dollars;
    assert_eq!(faas(1).to_bits(), (faas(0) * 2.0).to_bits(), "FaaS price");
    assert_ne!(first[2].makespan_secs, first[0].makespan_secs, "seed");
    assert_eq!(first[3].workflow, "memo-key-renamed", "workflow name");
    assert_ne!(
        first[5].makespan_secs, first[4].makespan_secs,
        "sub-clusters"
    );
    assert_ne!(
        format!("{:?}", first[6]),
        format!("{:?}", first[4]),
        "chaos"
    );
}

#[test]
fn figs_6_and_7_run_their_shared_sweep_once() {
    let _counters = memo_counters();
    let before = bench::run_stats();
    bench::fig06_exec_time();
    bench::fig07_expense();
    let after = bench::run_stats();
    assert_eq!(after.requested - before.requested, 96);
    assert_eq!(after.executed - before.executed, 48);
}
