//! Property-based tests of the Mashup engine invariants.

use mashup_core::{
    estimate_serverless_time, execute, fit_gamma, try_execute, CheckedWorkflow, MashupConfig,
    ModelFactors, Pdc, PlacementPlan, PlanCache, Platform, Release, Tracer, WorkflowReport,
};
use mashup_dag::Workflow;
use mashup_workflows::{generate, SyntheticConfig};
use proptest::prelude::*;
use std::sync::Arc;

fn run(cfg: &MashupConfig, w: &Workflow, plan: &PlacementPlan, label: &str) -> WorkflowReport {
    try_execute(cfg, w, plan, label).expect("clean inputs")
}

fn execute_traced(
    cfg: &MashupConfig,
    w: &Workflow,
    plan: &PlacementPlan,
    label: &str,
    tracer: &Tracer,
) -> WorkflowReport {
    let w = CheckedWorkflow::borrowed(w).expect("clean workflow");
    execute(cfg, &w, plan, None, Release::PhaseBarrier, label, tracer).expect("clean inputs")
}

fn small_synthetic(seed: u64) -> mashup_dag::Workflow {
    generate(
        &SyntheticConfig {
            phases: 3,
            tasks_per_phase: (1, 2),
            component_choices: vec![1, 4, 16, 48],
            compute_secs: (1.0, 20.0),
            io_bytes: (1.0e5, 5.0e7),
            slowdown: (0.8, 1.5),
            recurring_prob: 0.1,
        },
        seed,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Eq. 1 estimates are monotone in component count and never below the
    /// probe's own serial time plus the conservative pad.
    #[test]
    fn estimate_is_monotone_and_bounded_below(
        c1 in 1usize..2000,
        extra in 0usize..2000,
        probe in 1u32..600,
        io in 0u64..1_000_000_000u64,
    ) {
        let f = ModelFactors {
            alpha: 0.2,
            beta: 1.5,
            gamma: 1.0,
            store_bps: 2.0e9,
            burst: 64,
        };
        let probe = probe as f64;
        let e1 = estimate_serverless_time(&f, c1, probe, io as f64, 2.0);
        let e2 = estimate_serverless_time(&f, c1 + extra, probe, io as f64, 2.0);
        prop_assert!(e2 >= e1 - 1e-9);
        prop_assert!(e1 >= probe + 2.0 - 1e-9);
    }

    /// γ fits are always ≥ 1 and reproduce the measured time under Eq. 2's
    /// form when the fit is non-degenerate.
    #[test]
    fn gamma_fit_round_trips(
        r in 1.1f64..4.0,
        c in 1usize..64,
        mult in 1.0f64..100.0,
    ) {
        let t_vm = r * mult;
        let g = fit_gamma(t_vm, r, c);
        prop_assert!(g >= 1.0);
        if g > 1.0 {
            let reconstructed = r.powf(g * c as f64);
            prop_assert!((reconstructed - t_vm).abs() / t_vm < 1e-6);
        }
    }

    /// Every synthetic workflow executes under every uniform plan, with an
    /// internally consistent report.
    #[test]
    fn executor_handles_arbitrary_valid_workflows(seed in 0u64..30) {
        let w = small_synthetic(seed);
        let cfg = MashupConfig::aws(4);
        for platform in [Platform::VmCluster, Platform::Serverless] {
            // Skip serverless plans containing over-cap memory tasks.
            if platform == Platform::Serverless
                && w.task_refs().any(|r| w.task(r).profile.memory_gb > 3.0)
            {
                continue;
            }
            let plan = PlacementPlan::uniform(&w, platform);
            let report = run(&cfg, &w, &plan, "prop");
            prop_assert_eq!(report.tasks.len(), w.task_count());
            let last_end = report.tasks.iter().map(|t| t.end_secs).fold(0.0f64, f64::max);
            prop_assert!((report.makespan_secs - last_end).abs() < 1e-6);
            // Phase precedence.
            for t in &report.tasks {
                for e in report.tasks.iter().filter(|e| e.phase < t.phase) {
                    prop_assert!(t.start_secs >= e.end_secs - 1e-6);
                }
            }
            prop_assert!(report.expense.total() > 0.0);
        }
    }

    /// Identical configuration ⇒ identical report (determinism), and a
    /// different seed with nonzero jitter ⇒ (almost surely) different
    /// makespan.
    #[test]
    fn execution_is_deterministic(seed in 0u64..20) {
        let w = small_synthetic(seed);
        let cfg = MashupConfig::aws(4);
        let plan = PlacementPlan::uniform(&w, Platform::VmCluster);
        let a = run(&cfg, &w, &plan, "a");
        let b = run(&cfg, &w, &plan, "b");
        prop_assert_eq!(a.makespan_secs, b.makespan_secs);
        prop_assert_eq!(a.expense, b.expense);
    }

    /// The planning cache is invisible to results: for any synthetic
    /// workflow, a decision on a planner's own cache, a cold shared-cache
    /// decision, and a warm one (every stage a hit) produce the same
    /// `PdcReport`.
    #[test]
    fn cached_pdc_reports_are_bit_identical_to_uncached(seed in 0u64..20) {
        let w = small_synthetic(seed);
        let cfg = MashupConfig::aws(4);
        let uncached = Pdc::new(cfg.clone()).decide(&w);
        let cache = Arc::new(PlanCache::new());
        let cold = Pdc::new(cfg.clone()).with_cache(cache.clone()).decide(&w);
        let warm = Pdc::new(cfg).with_cache(cache.clone()).decide(&w);
        prop_assert_eq!(&uncached, &cold);
        prop_assert_eq!(&uncached, &warm);
        let stats = cache.stats();
        // The warm pass must have been served entirely from the cache.
        prop_assert_eq!(stats.misses(), stats.entries());
        prop_assert!(stats.hits() >= stats.entries());
    }

    /// The flight recorder is a pure observer: for any synthetic workflow
    /// and either platform, an untraced run, a flow-level traced run, and a
    /// verbose traced run produce bit-identical reports — and the recorded
    /// trace passes the invariant oracle.
    #[test]
    fn tracing_never_perturbs_execution(seed in 0u64..20) {
        let w = small_synthetic(seed);
        let cfg = MashupConfig::aws(4);
        for platform in [Platform::VmCluster, Platform::Serverless] {
            if platform == Platform::Serverless
                && w.task_refs().any(|r| w.task(r).profile.memory_gb > 3.0)
            {
                continue;
            }
            let plan = PlacementPlan::uniform(&w, platform);
            let untraced = run(&cfg, &w, &plan, "prop");
            let flow = Tracer::new();
            let traced = execute_traced(&cfg, &w, &plan, "prop", &flow);
            let verbose = Tracer::verbose();
            let verbose_traced = execute_traced(&cfg, &w, &plan, "prop", &verbose);
            prop_assert_eq!(&untraced, &traced);
            prop_assert_eq!(&untraced, &verbose_traced);
            let flow_records = flow.take();
            prop_assert!(!flow_records.is_empty());
            // Verbose traces strictly extend flow traces.
            prop_assert!(verbose.len() > flow_records.len());
            let violations = mashup_core::trace::check(&cfg, &w, &untraced, &flow_records);
            prop_assert!(violations.is_empty(), "oracle: {:?}", violations);
        }
    }

    /// Cluster expense scales linearly with price for a fixed plan.
    #[test]
    fn vm_expense_scales_with_price(seed in 0u64..10) {
        let w = small_synthetic(seed);
        let plan = PlacementPlan::uniform(&w, Platform::VmCluster);
        let base = MashupConfig::aws(4);
        let mut doubled = base.clone();
        doubled.cluster.instance.price_per_hour *= 2.0;
        let a = run(&base, &w, &plan, "a");
        let b = run(&doubled, &w, &plan, "b");
        prop_assert!((b.expense.vm_dollars - 2.0 * a.expense.vm_dollars).abs() < 1e-9);
        prop_assert_eq!(a.makespan_secs, b.makespan_secs);
    }
}
