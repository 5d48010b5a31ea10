//! End-to-end integration: the full engine against every baseline on the
//! paper's workflows (small cluster sizes keep debug-mode runtimes low).

use mashup::prelude::*;

fn small_cfg() -> MashupConfig {
    MashupConfig::aws(8)
}

fn run(strategy: Strategy, cfg: &MashupConfig, w: &Workflow) -> WorkflowReport {
    strategy
        .run(cfg, w, &Tracer::off(), None)
        .expect("paper workflows pass the analyzer")
}

#[test]
fn mashup_beats_traditional_on_every_paper_workflow() {
    for w in [
        genome1000::workflow(),
        srasearch::workflow(),
        epigenomics::workflow(),
    ] {
        let cfg = small_cfg();
        let traditional = run(Strategy::TraditionalTuned, &cfg, &w);
        let outcome = Mashup::new(cfg).run(&w);
        assert!(
            outcome.report.makespan_secs < traditional.makespan_secs,
            "{}: mashup {:.0}s vs traditional {:.0}s",
            w.name,
            outcome.report.makespan_secs,
            traditional.makespan_secs
        );
        // On small clusters the expense should improve too (Fig. 7 region).
        assert!(
            outcome.report.expense.total() < traditional.expense.total(),
            "{}: mashup ${:.3} vs traditional ${:.3}",
            w.name,
            outcome.report.expense.total(),
            traditional.expense.total()
        );
    }
}

#[test]
fn hybrid_beats_both_pure_strategies_on_1000genome() {
    // The Fig. 11 "best of both worlds" claim at a small cluster size.
    let cfg = small_cfg();
    let w = genome1000::workflow();
    let mashup = Mashup::new(cfg.clone()).run(&w).report;
    let vm = run(Strategy::TraditionalTuned, &cfg, &w);
    let sl = run(Strategy::ServerlessOnly, &cfg, &w);
    assert!(mashup.makespan_secs <= vm.makespan_secs);
    assert!(mashup.makespan_secs <= sl.makespan_secs * 1.05);
}

#[test]
fn pdc_beats_or_matches_the_naive_threshold_plan() {
    for w in [genome1000::workflow(), srasearch::workflow()] {
        let cfg = small_cfg();
        let with_pdc = Mashup::new(cfg.clone()).run(&w).report;
        let without = run(Strategy::MashupWithoutPdc, &cfg, &w);
        assert!(
            with_pdc.makespan_secs <= without.makespan_secs * 1.02,
            "{}: PDC {:.0}s vs naive {:.0}s",
            w.name,
            with_pdc.makespan_secs,
            without.makespan_secs
        );
    }
}

#[test]
fn reports_are_internally_consistent() {
    let cfg = small_cfg();
    let w = srasearch::workflow();
    let outcome = Mashup::new(cfg).run(&w);
    let r = &outcome.report;
    assert_eq!(r.tasks.len(), w.task_count());
    // The makespan is the completion of the last task.
    let last_end = r.tasks.iter().map(|t| t.end_secs).fold(0.0f64, f64::max);
    assert!((r.makespan_secs - last_end).abs() < 1e-6);
    // Phase precedence: every task starts at or after all earlier-phase
    // tasks of its workflow finished.
    for t in &r.tasks {
        for earlier in r.tasks.iter().filter(|e| e.phase < t.phase) {
            assert!(
                t.start_secs >= earlier.end_secs - 1e-6,
                "{} (phase {}) started before {} (phase {}) ended",
                t.name,
                t.phase,
                earlier.name,
                earlier.phase
            );
        }
    }
    // Placement plan matches per-task records.
    for t in &r.tasks {
        let (tref, _) = w.task_by_name(&t.name).expect("task exists");
        assert_eq!(r.plan.platform(tref), Ok(t.platform));
    }
}

#[test]
fn runs_are_reproducible_across_invocations() {
    let w = epigenomics::workflow();
    let a = Mashup::new(small_cfg()).run(&w);
    let b = Mashup::new(small_cfg()).run(&w);
    assert_eq!(a.report.makespan_secs, b.report.makespan_secs);
    assert_eq!(a.report.expense, b.report.expense);
    assert_eq!(a.pdc.plan, b.pdc.plan);
}

#[test]
fn all_baselines_complete_on_all_workflows() {
    use mashup::prelude::*;
    for w in [
        genome1000::workflow(),
        srasearch::workflow(),
        epigenomics::workflow(),
    ] {
        let cfg = small_cfg();
        for (label, r) in [
            ("traditional", run(Strategy::Traditional, &cfg, &w)),
            ("tuned", run(Strategy::TraditionalTuned, &cfg, &w)),
            ("serverless", run(Strategy::ServerlessOnly, &cfg, &w)),
            ("pegasus", run(Strategy::Pegasus, &cfg, &w)),
            ("kepler", run(Strategy::Kepler, &cfg, &w)),
        ] {
            assert!(r.makespan_secs > 0.0, "{label} on {}", w.name);
            assert!(r.expense.total() > 0.0, "{label} on {}", w.name);
        }
    }
}

#[test]
fn serverless_only_checkpoints_over_cap_tasks() {
    // Epigenomics' Chr21 (~42 min serverless) must cross the 15-minute cap.
    let cfg = small_cfg();
    let w = epigenomics::workflow();
    let r = run(Strategy::ServerlessOnly, &cfg, &w);
    let chr = r.task("Chr21").expect("Chr21 ran");
    assert!(chr.checkpoints >= 2, "checkpoints {}", chr.checkpoints);
    let split = r.task("FastQSplit").expect("FastQSplit ran");
    assert!(split.checkpoints >= 1);
}

#[test]
fn objectives_trade_time_for_expense() {
    let cfg = small_cfg();
    let w = srasearch::workflow();
    let time = Mashup::new(cfg.clone())
        .with_objective(Objective::ExecutionTime)
        .run(&w)
        .report;
    let expense = Mashup::new(cfg)
        .with_objective(Objective::Expense)
        .run(&w)
        .report;
    // The time objective never loses on time; the expense objective never
    // loses on dollars.
    assert!(time.makespan_secs <= expense.makespan_secs * 1.05);
    assert!(expense.expense.total() <= time.expense.total() * 1.05);
}
