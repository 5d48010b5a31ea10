//! Property: chaos never breaks the oracle.
//!
//! An arbitrary seeded [`FaultPlan`] — spot preemptions, storage error /
//! latency windows, link degradation, spot price traces — injected into
//! any paper workflow under any execution strategy must leave a run that
//! completes with a positive makespan and a flow-level trace that passes
//! every invariant checker: precedence, capacity, checkpoint windows,
//! warm starts, cost reconciliation, replanning consistency, and fault
//! attribution. The same holds with the online replanning controller
//! switched on. Faults come only from the seeded schedule, so each
//! failing case shrinks to a reproducible (seed, profile, workflow).

use mashup_bench::{run_strategy_traced, Strategy};
use mashup_cloud::{Fault, FaultPlan, FaultProfile};
use mashup_core::trace::check;
use mashup_core::{ChaosSpec, MashupConfig, TraceEvent, Tracer};
use mashup_workflows::{epigenomics, genome1000, srasearch};
use proptest::prelude::*;

const STRATEGIES: [Strategy; 5] = [
    Strategy::Traditional,
    Strategy::ServerlessOnly,
    Strategy::Mashup,
    Strategy::Kepler,
    Strategy::Pegasus,
];

/// Paper workflows with a fault horizon roughly covering the bulk of each
/// run at 4 nodes, so drawn faults actually land mid-execution.
fn workflow_and_horizon(pick: u64) -> (mashup_dag::Workflow, f64) {
    match pick % 3 {
        0 => (genome1000::workflow(), 700.0),
        1 => (srasearch::workflow(), 350.0),
        _ => (epigenomics::workflow(), 3500.0),
    }
}

fn profile(pick: u64, horizon_secs: f64) -> FaultProfile {
    match pick % 3 {
        0 => FaultProfile::preemption(horizon_secs),
        1 => FaultProfile::storage(horizon_secs),
        _ => FaultProfile::mixed(horizon_secs),
    }
}

fn assert_chaos_run_clean(cfg: &MashupConfig, w: &mashup_dag::Workflow, strategy: Strategy) {
    let tracer = Tracer::new();
    let report = run_strategy_traced(cfg, w, strategy, &tracer);
    let records = tracer.take();
    assert!(
        report.makespan_secs > 0.0,
        "{} on '{}': run did not complete",
        strategy.label(),
        w.name
    );
    assert!(!records.is_empty(), "{}: empty trace", strategy.label());
    let violations = check(cfg, w, &report, &records);
    assert!(
        violations.is_empty(),
        "{} on '{}' violates invariants under chaos:\n{}",
        strategy.label(),
        w.name,
        violations
            .iter()
            .map(|v| format!("  {v}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Kepler runs through the one executor, so the config's fault plan
/// reaches it: a node reclaimed mid-run shows in its trace, and the trace
/// still holds every invariant.
#[test]
fn kepler_honours_the_fault_plan() {
    let mut plan = FaultPlan::empty(5);
    plan.faults.push(Fault::Preempt {
        at_secs: 1000.0,
        node: 1,
    });
    let cfg = MashupConfig::aws(4).with_chaos(ChaosSpec::new(plan));
    let w = srasearch::workflow();
    let tracer = Tracer::new();
    let report = run_strategy_traced(&cfg, &w, Strategy::Kepler, &tracer);
    let records = tracer.take();
    assert!(
        records
            .iter()
            .any(|r| matches!(r.event, TraceEvent::SpotPreempt { .. })),
        "the preemption never reached the Kepler run"
    );
    assert_eq!(check(&cfg, &w, &report, &records), []);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every strategy survives an arbitrary seeded fault plan with a clean
    /// trace, and the Mashup strategy additionally survives it with the
    /// adaptive controller replanning mid-run.
    #[test]
    fn seeded_chaos_never_trips_the_oracle(seed in 0u64..10_000) {
        let (w, horizon) = workflow_and_horizon(seed);
        let prof = profile(seed / 3, horizon);
        let base = MashupConfig::aws(4);
        let plan = FaultPlan::generate(seed, &prof, base.cluster.nodes,
            base.cluster.instance.price_per_hour);

        let static_cfg = base.clone().with_chaos(ChaosSpec::new(plan.clone()));
        for strategy in STRATEGIES {
            assert_chaos_run_clean(&static_cfg, &w, strategy);
        }

        let adaptive_cfg = base.with_chaos(ChaosSpec::new(plan).with_adaptive(true));
        assert_chaos_run_clean(&adaptive_cfg, &w, Strategy::Mashup);
    }
}
