//! `figures`: the paper-reproduction sweep. One op is one pass: each
//! default figure function once, on 2 pool workers — what a user of the
//! `figures` binary waits for. The harness's plan cache is process-global
//! and cannot be emptied, so each pass runs in a child process of its own,
//! as each `figures` invocation does. The seed only rotates the call
//! order, so a cache-sharing change cannot be tuned to one order.

// lint: allow-file(wall-clock)
// lint: allow-file(adhoc-telemetry)
use crate::harness::{self, cache_sections, CacheTally, Run, POOL_THREADS};
use crate::reference::Reference;
use crate::spans::Spans;
use crate::stats::{cpu_secs, peak_rss_mb};
use mashup_bench as bench;
use mashup_core::{CacheStats, Fingerprinter, PlanCache};
use serde::{Deserialize, Serialize};
use std::process::Command;
use std::sync::Arc;
use std::time::Instant;

/// One default figure: its JSON name, its span name, and the call. The
/// call returns the figure's JSON text (the expense summary, which has no
/// JSON form, returns its rendered text).
pub struct Figure {
    pub name: &'static str,
    pub span: &'static str,
    pub metric: &'static str,
    call: fn() -> String,
}

fn json<T: Serialize>(value: T) -> String {
    serde_json::to_string_pretty(&value).expect("figure serializes")
}

macro_rules! figures {
    ($($name:ident => $call:expr),* $(,)?) => {
        /// The default figure set of the `figures` binary, in its order.
        pub const FIGURES: &[Figure] = &[$(Figure {
            name: stringify!($name),
            span: concat!("figures.", stringify!($name)),
            metric: concat!("figures.", stringify!($name), "_ms"),
            call: || $call,
        }),*];
    };
}

figures! {
    fig02_env_choice => json(bench::fig02_env_choice()),
    fig04a_io_overhead => json(bench::fig04a_io_overhead()),
    fig04b_cold_start => json(bench::fig04b_cold_start()),
    fig04c_scaling => json(bench::fig04c_scaling()),
    fig05_objectives => json(bench::fig05_objectives()),
    fig06_exec_time => json(bench::fig06_exec_time()),
    fig07_expense => json(bench::fig07_expense()),
    fig08_vm_families => json(bench::fig08_vm_families()),
    fig09_placement => json(bench::fig09_placement()),
    fig10_sysmetrics => json(bench::fig10_sysmetrics()),
    fig11_pareto => json(bench::fig11_pareto()),
    fig12_managers => json(bench::fig12_managers()),
    text_input_sizes => json(bench::text_input_sizes()),
    text_half_cluster => json(bench::text_half_cluster()),
    text_gcp => json(bench::text_gcp()),
    text_overheads => json(bench::text_overheads()),
    text_pdc_accuracy => json(bench::text_pdc_accuracy()),
    expense_summary => bench::expense_summary(48),
    ablations => json(bench::ablations()),
}

/// Where the figure goldens live, relative to the repository root.
const GOLDEN_DIR: &str = "results/golden-pre";

/// One call as a pass reports it.
#[derive(Debug, Serialize, Deserialize)]
struct Call {
    figure: usize,
    start_ns: u64,
    end_ns: u64,
    /// Output matches the golden; for the expense summary, which has no
    /// golden, its digest stands in and passes compare it.
    ok: bool,
    digest: String,
    /// Plan-cache counters before and after the call.
    before: CacheStats,
    after: CacheStats,
}

/// What one pass prints as its only line of output.
#[derive(Debug, Serialize, Deserialize)]
struct Pass {
    calls: Vec<Call>,
    peak_rss_mb: f64,
    /// Reference slices timed between the calls, ms.
    ref_ms: Vec<f64>,
}

/// Runs one pass in this process and prints it. The call order starts at
/// figure `seed mod 19`.
pub fn pass(seed: u64) {
    bench::set_jobs(POOL_THREADS);
    let epoch = Instant::now();
    let mut reference = Reference::on_threads(POOL_THREADS);
    let n = FIGURES.len();
    let first = (seed % n as u64) as usize;
    let calls = (0..n)
        .map(|k| {
            let figure = (first + k) % n;
            let f = &FIGURES[figure];
            let before = bench::plan_cache_stats();
            let start_ns = epoch.elapsed().as_nanos() as u64;
            let text = (f.call)();
            let end_ns = epoch.elapsed().as_nanos() as u64;
            let golden = std::fs::read_to_string(format!("{GOLDEN_DIR}/{}.json", f.name));
            let mut digest = Fingerprinter::new("benchmark-figure");
            digest.write_str(&text);
            reference.tick();
            Call {
                figure,
                start_ns,
                end_ns,
                ok: golden.map_or(f.name == "expense_summary", |g| g == text),
                digest: format!("{:032x}", digest.digest()),
                before,
                after: bench::plan_cache_stats(),
            }
        })
        .collect();
    let pass = Pass {
        calls,
        peak_rss_mb: peak_rss_mb(),
        ref_ms: reference.slices_ms,
    };
    println!("{}", serde_json::to_string(&pass).expect("pass serializes"));
}

/// Runs one pass in a child process.
fn spawn_pass(seed: u64) -> Option<Pass> {
    let exe = std::env::current_exe().ok()?;
    let out = Command::new(exe)
        .args(["figures-pass", "--seed", &seed.to_string()])
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    serde_json::from_str(String::from_utf8_lossy(&out.stdout).trim()).ok()
}

pub fn workload(seed: u64, seconds: f64, trace: bool) -> Run {
    let mut out = Run::new(trace, POOL_THREADS);
    let checks = out.setup(|| harness::check_makespans(&Arc::new(PlanCache::new())));
    out.tally_checks(checks);

    let mut spans = out.spans.take();
    let mut tally = CacheTally::default();
    let mut expense_digest = None;
    let cpu = cpu_secs();
    let start = Instant::now();
    let mut op = 0;
    // A traced run alternates untraced and traced passes.
    let mut traced = false;
    while start.elapsed().as_secs_f64() < seconds || traced {
        let offset = spans.as_ref().map_or(0, Spans::now_ns);
        let Some(pass) = spawn_pass(seed) else {
            out.tally(false);
            break;
        };
        out.child_rss_mb = out.child_rss_mb.max(pass.peak_rss_mb);
        out.reference.slices_ms.extend(pass.ref_ms);
        let mut pass_ms = 0.0;
        for c in &pass.calls {
            let f = &FIGURES[c.figure];
            pass_ms += (c.end_ns - c.start_ns) as f64 * 1e-6;
            let ok = c.ok
                && (f.name != "expense_summary"
                    || *expense_digest.get_or_insert_with(|| c.digest.clone()) == c.digest);
            out.tally(ok);
            if let Some(spans) = spans.as_mut().filter(|_| traced) {
                let id = spans.record(op, f.span, offset + c.start_ns, offset + c.end_ns);
                cache_sections(spans, id, false, &c.before, &c.after);
                tally.add(&c.before, &c.after);
            }
        }
        if traced {
            out.traced_ms.push(pass_ms);
        } else {
            out.lat_ms.push(pass_ms);
        }
        op += 1;
        traced = spans.is_some() && !traced;
    }
    out.elapsed_s = start.elapsed().as_secs_f64();
    out.cpu_s = cpu_secs() - cpu;
    tally.record(&mut out.layers);
    out.spans = spans;
    out
}
