//! Regression tests pinning simulated results: the fast-path substrate
//! (cached link shares, slab event queue) and the parallel sweep runner are
//! pure performance work, so makespans must stay bit-for-bit where the seed
//! implementation put them, and figure output must not depend on the sweep
//! worker count.

use mashup_bench as bench;
use mashup_bench::{run_strategy, run_strategy_traced, Strategy};
use mashup_cloud::{FaultPlan, FaultProfile};
use mashup_core::{ChaosSpec, CheckedWorkflow, MashupConfig, Tracer};
use mashup_sim::trace::to_jsonl;
use mashup_workflows::{epigenomics, genome1000, srasearch};
use std::sync::{Mutex, MutexGuard};

/// The pool's worker count, the plan-cache switch, the trace directory and
/// the run memo with its counters are process-wide, and the test harness
/// runs tests on parallel threads. Every test that sets one or reads the
/// counters holds this lock, so no test flips a setting or runs a cell
/// while another runs: the chaos matrix, say, must never see the cache
/// switched off halfway through.
static GLOBAL_SETTINGS: Mutex<()> = Mutex::new(());

fn global_settings() -> MutexGuard<'static, ()> {
    // The lock guards no data; a test that panicked while holding it leaves
    // nothing for the next one to distrust, since each sets what it needs.
    GLOBAL_SETTINGS
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Mashup makespans on a 4-node AWS-like cluster, captured from the seed
/// substrate (pre fast-path). Written with `{:?}` so the literals
/// round-trip exactly; any drift means simulated behavior changed, not
/// just performance.
const GOLDEN_MAKESPANS: [(&str, f64); 3] = [
    ("1000Genome", 923.1301865040341),
    ("SRAsearch", 418.0425812362353),
    ("Epigenomics", 5083.493038722836),
];

#[test]
fn mashup_makespans_match_seed_goldens_bit_for_bit() {
    let _settings = global_settings();
    for (name, golden) in GOLDEN_MAKESPANS {
        let w = match name {
            "1000Genome" => genome1000::workflow(),
            "SRAsearch" => srasearch::workflow(),
            "Epigenomics" => epigenomics::workflow(),
            _ => unreachable!(),
        };
        let w = CheckedWorkflow::new(w).expect("the paper's workflows check clean");
        let r = run_strategy(&MashupConfig::aws(4), &w, Strategy::Mashup);
        assert_eq!(
            r.makespan_secs.to_bits(),
            golden.to_bits(),
            "{name}: makespan drifted from golden {golden:?} to {:?}",
            r.makespan_secs
        );
    }
}

#[test]
fn chaos_replay_is_bit_identical_across_job_counts() {
    // The determinism matrix for the chaos layer: a grid of seeded
    // FaultPlans × paper workflows, every cell an adaptive Mashup run,
    // farmed over the shared serve pool at 1, 4, and 16 workers. Faults
    // come only from the seeded schedule and each scenario owns its
    // Simulation, so the full report *and* the full flow-level trace must
    // be bit-identical whatever thread interleaving the pool picks. The
    // serial reference gives every cell a fresh plan cache; the pooled
    // runs share one, so which cell warms a stage first is a race that
    // must show in neither the reports nor the traces.
    fn run_matrix() -> Vec<String> {
        let cells: Vec<(u64, usize)> = (0..2u64)
            .flat_map(|s| (0..3).map(move |w| (s, w)))
            .collect();
        bench::par_map(cells, |(seed, wi)| {
            let (w, horizon) = match wi {
                0 => (genome1000::workflow(), 700.0),
                1 => (srasearch::workflow(), 350.0),
                _ => (epigenomics::workflow(), 3500.0),
            };
            let base = MashupConfig::aws(4);
            let plan = FaultPlan::generate(
                seed,
                &FaultProfile::mixed(horizon),
                base.cluster.nodes,
                base.cluster.instance.price_per_hour,
            );
            let cfg = base.with_chaos(ChaosSpec::new(plan).with_adaptive(true));
            let tracer = Tracer::new();
            let report = run_strategy_traced(&cfg, &w, Strategy::Mashup, &tracer);
            format!("{report:?}\n{}", to_jsonl(&tracer.take()))
        })
    }
    let _settings = global_settings();
    bench::set_plan_cache_enabled(false);
    bench::set_jobs(1);
    let serial = run_matrix();
    bench::set_plan_cache_enabled(true);
    bench::set_jobs(4);
    let four = run_matrix();
    bench::set_jobs(16);
    let sixteen = run_matrix();
    bench::set_jobs(0);
    assert_eq!(serial, four, "chaos replay depends on --jobs 4");
    assert_eq!(serial, sixteen, "chaos replay depends on --jobs 16");
}

#[test]
fn figure_json_is_byte_identical_with_tracing_enabled() {
    // The flight recorder is a pure observer: enabling `--trace-dir` must
    // not move a single byte of figure output. fig05 runs three full Mashup
    // plans, so this covers the PDC, the hybrid executor, and both
    // platforms. (The trace directory is process-global and write-only, so
    // recording the untraced reference first is the only ordering that
    // works inside one test binary.)
    let _settings = global_settings();
    bench::set_jobs(1);
    let untraced = serde_json::to_string_pretty(&bench::fig05_objectives()).expect("serialize");
    let dir = std::env::temp_dir().join(format!("mashup-trace-test-{}", std::process::id()));
    bench::set_trace_dir(&dir);
    let traced = serde_json::to_string_pretty(&bench::fig05_objectives()).expect("serialize");
    bench::set_jobs(0);
    assert_eq!(untraced, traced, "fig05 JSON depends on tracing");
    let names: Vec<_> = std::fs::read_dir(&dir)
        .expect("trace dir exists")
        .map(|e| e.expect("dir entry").file_name())
        .collect();
    // One file per objective, named by workflow, node count and strategy.
    for objective in ["time", "expense", "both"] {
        let stem = format!("SRAsearch__n48__mashup-{objective}__");
        let found = names.iter().any(|n| n.to_string_lossy().starts_with(&stem));
        assert!(found, "no {stem}* trace among {names:?}");
    }
}

#[test]
fn figure_json_is_byte_identical_across_job_counts() {
    // fig05 runs three full Mashup plans; fig08 covers two workflows and
    // two VM families. Together they exercise the sweep fan-out both below
    // and above the worker count. The serial reference shares nothing, so
    // the run memo cannot hand the parallel side the reference's own
    // reports; the run counter shows the parallel side ran fig08's cells.
    let _settings = global_settings();
    let serial = {
        bench::set_jobs(1);
        bench::set_plan_cache_enabled(false);
        (
            serde_json::to_string_pretty(&bench::fig05_objectives()).expect("serialize"),
            serde_json::to_string_pretty(&bench::fig08_vm_families()).expect("serialize"),
        )
    };
    bench::set_plan_cache_enabled(true);
    let before = bench::run_stats();
    let parallel = {
        bench::set_jobs(3);
        (
            serde_json::to_string_pretty(&bench::fig05_objectives()).expect("serialize"),
            serde_json::to_string_pretty(&bench::fig08_vm_families()).expect("serialize"),
        )
    };
    let executed = bench::run_stats().executed - before.executed;
    bench::set_jobs(0);
    assert_eq!(serial.0, parallel.0, "fig05 JSON depends on --jobs");
    assert_eq!(serial.1, parallel.1, "fig08 JSON depends on --jobs");
    assert_eq!(executed, 8, "fig08's 8 cells did not all run at --jobs 3");
}

#[test]
fn figure_json_is_byte_identical_with_plan_cache_on_and_off() {
    // fig05 plans three Mashup objectives (VM profiling + probes shared via
    // the cache); the accuracy table plans every paper workflow and runs
    // its strategy cells through the run memo. Both must serialize
    // identically whether the planning cache and the memo are on or off —
    // memoization is a pure performance layer. The run counter shows that
    // the first shared pass ran every cell it asked for and that the warm
    // pass took every one from the memo.
    let _settings = global_settings();
    bench::set_jobs(1);
    bench::set_plan_cache_enabled(false);
    let uncached = (
        serde_json::to_string_pretty(&bench::fig05_objectives()).expect("serialize"),
        serde_json::to_string_pretty(&bench::text_pdc_accuracy()).expect("serialize"),
    );
    bench::set_plan_cache_enabled(true);
    let before = bench::run_stats();
    let cached = (
        serde_json::to_string_pretty(&bench::fig05_objectives()).expect("serialize"),
        serde_json::to_string_pretty(&bench::text_pdc_accuracy()).expect("serialize"),
    );
    let between = bench::run_stats();
    // Run the cached variant twice so the second pass is all warm hits.
    let warm = (
        serde_json::to_string_pretty(&bench::fig05_objectives()).expect("serialize"),
        serde_json::to_string_pretty(&bench::text_pdc_accuracy()).expect("serialize"),
    );
    let after = bench::run_stats();
    bench::set_jobs(0);
    let requested = between.requested - before.requested;
    assert!(requested > 0, "the accuracy table runs no cells");
    assert_eq!(
        between.executed - before.executed,
        requested,
        "the first shared pass did not run every cell"
    );
    assert_eq!(
        after.requested - between.requested,
        requested,
        "the warm pass asked for other cells"
    );
    assert_eq!(after.executed, between.executed, "the warm pass ran cells");
    assert_eq!(uncached.0, cached.0, "fig05 JSON depends on the plan cache");
    assert_eq!(
        uncached.1, cached.1,
        "accuracy JSON depends on the plan cache"
    );
    assert_eq!(uncached.0, warm.0, "fig05 JSON depends on cache warmth");
    assert_eq!(uncached.1, warm.1, "accuracy JSON depends on cache warmth");
}
