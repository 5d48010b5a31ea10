//! The repository's benchmark: six workloads, each timing a path a user
//! waits on end to end, and — in a traced run — each layer inside it.
//!
//! ```text
//! benchmark --workload <workload> [--seed N] [--seconds S] [--trace 0|1] [--out SPANS.json]
//! ```
//!
//! A run prints each metric with its unit, then one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}` — end-to-end metrics
//! when untraced, per-layer metrics when traced. See README.md.

// stdout is the benchmark's report.
// lint: allow-file(adhoc-telemetry)
mod figures;
mod harness;
mod metrics;
mod oracle;
mod paper;
mod pareto;
mod reference;
mod scale;
mod serve;
mod spans;
mod stats;

use reference::Stat;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 6] = [
    "paper-cold",
    "scale-100k",
    "serve-mix",
    "trace-oracle",
    "pareto-sweep",
    "figures",
];

/// Seconds one run measures unless told otherwise; `run_seconds` in
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;

const USAGE: &str = "usage: benchmark --workload <workload> [--seed N] [--seconds S] [--trace 0|1] [--out SPANS.json]
workloads: paper-cold scale-100k serve-mix trace-oracle pareto-sweep figures";

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut it = args.iter().map(String::as_str);
    let (mut workload, mut seed, mut seconds, mut trace, mut out) =
        (None, 0, DEFAULT_SECONDS, false, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            "--out" => out = Some(value.to_string()),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("no workload given")?;
    let workload = WORKLOADS
        .into_iter()
        .find(|w| *w == workload)
        .ok_or_else(|| format!("unknown workload {workload:?}"))?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        out,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The figures workload runs each pass in a child process of this binary.
    if let [cmd, flag, seed] = args.as_slice() {
        if cmd == "figures-pass" && flag == "--seed" {
            if let Ok(seed) = seed.parse() {
                figures::pass(seed);
                return;
            }
        }
    }
    let args = parse(&args).unwrap_or_else(|e| {
        eprintln!("benchmark: {e}\n{USAGE}");
        std::process::exit(2);
    });
    mashup_bench::set_jobs(harness::POOL_THREADS);
    let (seed, seconds, trace) = (args.seed, args.seconds, args.trace);
    let run = match args.workload {
        "paper-cold" => paper::workload(seed, seconds, trace),
        "scale-100k" => scale::workload(seed, seconds, trace),
        "serve-mix" => serve::workload(seed, seconds, trace),
        "trace-oracle" => oracle::workload(seed, seconds, trace),
        "pareto-sweep" => pareto::workload(seed, seconds, trace),
        _ => figures::workload(seed, seconds, trace),
    };
    report(&args, &run);
}

fn report(args: &Args, run: &harness::Run) {
    println!(
        "{} seed={} seconds={} traced={}",
        args.workload, args.seed, args.seconds, args.trace
    );
    println!(
        "  host speed {:.4} (mean) {:.4} (median) × nominal; times below are scaled to the nominal host",
        run.reference.speed(Stat::Mean),
        run.reference.speed(Stat::Median)
    );
    let values = if args.trace {
        metrics::layers(run)
    } else {
        metrics::end_to_end(run)
    };
    for v in &values {
        println!(
            "  {:<34} {:>14.4} {:<6} (raw {:.4})",
            v.name, v.value, v.unit, v.raw
        );
    }
    let n = run.lat_ms.len();
    if !args.trace {
        println!("  {:<34} {n:>14} ops in {:.2} s", "n", run.elapsed_s);
        for (name, v, n) in metrics::percentiles(run) {
            println!("  {name:<34} {v:>14.4} ms (n={n})");
        }
    }
    println!(
        "  {:<34} {:>14.4} ({} of {} ops and checks)",
        "failed_frac",
        run.failed as f64 / run.attempted.max(1) as f64,
        run.failed,
        run.attempted
    );
    if let Some(spans) = &run.spans {
        let path = args.out.clone().unwrap_or_else(|| {
            format!(
                "target/benchmark/{}-seed{}.spans.json",
                args.workload, args.seed
            )
        });
        let written = std::path::Path::new(&path)
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, spans.to_json()));
        match written {
            Ok(()) => println!("  spans written to {path}"),
            Err(e) => eprintln!("benchmark: cannot write {path}: {e}"),
        }
    }
    let metrics: Vec<String> = values
        .iter()
        .map(|v| {
            let value = if v.value.is_finite() { v.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                v.name, v.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.failed == 0,
        run.attempted,
        run.failed,
        metrics.join(", ")
    );
}
