//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p mashup-bench --bin figures            # everything
//! cargo run --release -p mashup-bench --bin figures -- fig6    # one figure
//! cargo run --release -p mashup-bench --bin figures -- --json results/
//! cargo run --release -p mashup-bench --bin figures -- --jobs 8
//! cargo run --release -p mashup-bench --bin figures -- --no-plan-cache
//! cargo run --release -p mashup-bench --bin figures -- --trace-dir traces/
//! ```
//!
//! `--jobs N` sets the scenario-sweep worker count (default: one per core);
//! `--no-plan-cache` disables the shared PDC profiling cache; `--trace-dir
//! DIR` additionally records every strategy run as a JSONL flight-recorder
//! trace under DIR. Output is byte-identical for any N, with the cache on
//! or off, and with or without tracing.
//!
//! Keys select cells (case-insensitive): `fig2`, `fig4a`…`fig12`,
//! `inputs`, `half`, `gcp`, `overheads`, `accuracy`, `expense`,
//! `ablations`, and `all` (the default). `fig11search` and `fig13` run only
//! when named. An unknown key is refused with exit status 2.

#![expect(
    clippy::disallowed_macros,
    reason = "stdout is the figure byte-stream and stderr the suite stats"
)]
#![expect(
    clippy::disallowed_types,
    reason = "the host clock feeds the suite stats only; no simulated quantity reads it"
)]
use mashup_bench as bench;
use serde::Serialize;
use std::io::Write as _;
use std::time::Instant;

fn emit<T: Serialize>(json_dir: Option<&str>, name: &str, value: &T, rendered: String) {
    println!("==== {name} ====");
    println!("{rendered}");
    if let Some(dir) = json_dir {
        std::fs::create_dir_all(dir).expect("create results dir");
        let path = format!("{dir}/{name}.json");
        let mut f = std::fs::File::create(&path).expect("create result file");
        let body = serde_json::to_string_pretty(value).expect("serialize result");
        f.write_all(body.as_bytes()).expect("write result file");
        println!("[written {path}]\n");
    }
}

/// One selectable figure or table: its command-line key, whether the
/// default run (no key, or `all`) includes it, and the code that computes
/// and emits it.
struct Cell {
    key: &'static str,
    default: bool,
    run: fn(Option<&str>),
}

/// A cell whose figure is computed by `bench::$fig` and emitted under the
/// same name.
macro_rules! cell {
    ($key:literal, $fig:ident, $default:literal) => {
        Cell {
            key: $key,
            default: $default,
            run: |dir| {
                let f = bench::$fig();
                emit(dir, stringify!($fig), &f, f.render())
            },
        }
    };
}

/// Every cell, in output order. `fig11search` and `fig13` are opt-in only,
/// deliberately NOT covered by `all`: they extend the paper rather than
/// reproduce it, and keeping them out of the default run keeps the golden
/// figure set byte-stable.
const CELLS: &[Cell] = &[
    cell!("fig2", fig02_env_choice, true),
    cell!("fig4a", fig04a_io_overhead, true),
    cell!("fig4b", fig04b_cold_start, true),
    cell!("fig4c", fig04c_scaling, true),
    cell!("fig5", fig05_objectives, true),
    cell!("fig6", fig06_exec_time, true),
    cell!("fig7", fig07_expense, true),
    cell!("fig8", fig08_vm_families, true),
    cell!("fig9", fig09_placement, true),
    cell!("fig10", fig10_sysmetrics, true),
    cell!("fig11", fig11_pareto, true),
    cell!("fig11search", fig11_search, false),
    cell!("fig12", fig12_managers, true),
    cell!("fig13", fig13_adaptive, false),
    cell!("inputs", text_input_sizes, true),
    cell!("half", text_half_cluster, true),
    cell!("gcp", text_gcp, true),
    cell!("overheads", text_overheads, true),
    cell!("accuracy", text_pdc_accuracy, true),
    Cell {
        key: "expense",
        default: true,
        run: |_| {
            println!("==== expense breakdown (48 nodes) ====");
            println!("{}", bench::expense_summary(48));
        },
    },
    cell!("ablations", ablations, true),
];

fn main() {
    // Refuse bad inputs before any cell runs. The analyzer is read-only,
    // so a clean pass leaves every simulated result untouched (and prints
    // nothing — figures output must stay byte-identical across runs).
    if let Err(report) = bench::preflight_paper_inputs() {
        eprintln!("figures: static analysis refused the paper inputs\n{report}");
        std::process::exit(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json_dir: Option<String> = None;
    let mut wanted: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if a == "--json" {
            json_dir = Some(it.next().unwrap_or_else(|| "results".into()));
        } else if a == "--jobs" {
            let n = it
                .next()
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or_else(|| {
                    eprintln!("--jobs requires a number");
                    std::process::exit(2);
                });
            bench::set_jobs(n);
        } else if a == "--no-plan-cache" {
            bench::set_plan_cache_enabled(false);
        } else if a == "--trace-dir" {
            let dir = it.next().unwrap_or_else(|| {
                eprintln!("--trace-dir requires a directory");
                std::process::exit(2);
            });
            bench::set_trace_dir(std::path::Path::new(&dir));
        } else {
            wanted.push(a.to_lowercase());
        }
    }
    if let Some(unknown) = wanted
        .iter()
        .find(|w| *w != "all" && !CELLS.iter().any(|c| c.key == *w))
    {
        let keys: Vec<&str> = CELLS.iter().map(|c| c.key).collect();
        eprintln!(
            "figures: unknown figure key `{unknown}`; known keys: {}, all",
            keys.join(", ")
        );
        std::process::exit(2);
    }
    let started = Instant::now();
    let all = wanted.is_empty() || wanted.iter().any(|w| w == "all");
    let dir = json_dir.as_deref();
    for cell in CELLS {
        if (all && cell.default) || wanted.iter().any(|w| w == cell.key) {
            (cell.run)(dir);
        }
    }

    // Suite-level summary: wall time plus what the planning cache did.
    // Stats go to stderr so they never perturb the figure byte-streams.
    let wall = started.elapsed().as_secs_f64();
    if bench::plan_cache_enabled() {
        let s = bench::plan_cache_stats();
        eprintln!(
            "[plan-cache] calibration {}h/{}m  vm-profile {}h/{}m  probes {}h/{}m  \
             ({} entries, {:.1}% hits overall)",
            s.calibration.hits,
            s.calibration.misses,
            s.vm_profile.hits,
            s.vm_profile.misses,
            s.probes.hits,
            s.probes.misses,
            s.entries(),
            if s.hits() + s.misses() == 0 {
                0.0
            } else {
                s.hits() as f64 * 100.0 / (s.hits() + s.misses()) as f64
            },
        );
        eprintln!(
            "[plan-cache] miss-side planning compute: calibration {:.2}s, \
             vm-profile {:.2}s, probes {:.2}s (summed across workers)",
            s.calibration.compute_secs, s.vm_profile.compute_secs, s.probes.compute_secs,
        );
    } else {
        eprintln!("[plan-cache] disabled (--no-plan-cache)");
    }
    eprintln!("[figures] total wall time {wall:.2}s");
}
