//! `mashup` — command-line front end for the workflow engine.
//!
//! ```text
//! mashup validate <workflow.json>
//! mashup analyze  <workflow...>   [--plan plan.json] [--nodes N] [--provider aws|gcp] [--json]
//! mashup analyze  --suite         [--json]
//! mashup dot      <workflow.json>
//! mashup plan     <workflow.json|1000Genome|SRAsearch|Epigenomics> [--nodes N] [--objective time|expense|both] [--probe-sharing]
//! mashup run      <workflow...>   [--nodes N] [--strategy mashup|wo-pdc|traditional|serverless|pegasus|kepler]
//! mashup compare  <workflow...>   [--nodes N]
//! mashup trace    <workflow...>   [--nodes N] [--strategy S] [--format jsonl|chrome] [--out FILE] [--verbose] [--check]
//! mashup pareto   <workflow...>   [--nodes N] [--budget N] [--jobs N, 0 = one per core] [--out FILE]
//! mashup chaos    <workflow...>   [--nodes N] [--seed S] [--profile preemption|storage|mixed] [--horizon SECS] [--straggler-factor F] [--strategy S] [--check]
//! mashup serve    [--workers N] [--queue-depth N]
//! ```
//!
//! Built-in workflow names load the paper's benchmarks; anything else is
//! treated as a path to a JSON workflow definition (see
//! `examples/custom_workflow.rs` for the format).
//!
//! Strategy names: `mashup` (the full system), `wo-pdc` (Mashup without
//! the PDC), `traditional` (the tuned all-VM cluster), `serverless`
//! (serverless-only), `pegasus` and `kepler`. `compare` runs all but
//! `wo-pdc`. Every command refuses inputs the analyzer rejects with its
//! rendered diagnostics and exit status 1; `analyze` prints every finding,
//! errors included, and exits 1 when an error fired.
//!
//! Output goes through one fallible writer: when the reader closes stdout
//! early (`mashup trace … | head -1`), the command stops quietly.

use mashup::prelude::*;
use std::io::{self, Write};

/// `print!` through the fallible writer: a failed write returns its error
/// from the enclosing command instead of panicking.
macro_rules! out {
    ($($arg:tt)*) => {
        write!(io::stdout(), $($arg)*)?
    };
}

/// `println!` through the fallible writer (see [`out!`]).
macro_rules! outln {
    ($($arg:tt)*) => {
        writeln!(io::stdout(), $($arg)*)?
    };
}

/// Loads a built-in workflow by name, or reads and parses the JSON file
/// `spec`. Nothing is checked here: `analyze` reports what is wrong with a
/// workflow, and every other command checks it through [`load_checked`].
fn load_workflow(spec: &str) -> Workflow {
    match spec {
        "1000Genome" => genome1000::workflow(),
        "SRAsearch" => srasearch::workflow(),
        "Epigenomics" => epigenomics::workflow(),
        path => mashup::dag::from_json(&read(path))
            .unwrap_or_else(|e| die(&format!("invalid workflow '{path}': {e}"))),
    }
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("cannot read '{path}': {e}")))
}

/// Loads a workflow and checks it once for every pass that plans or runs
/// it, exiting with the rendered diagnostics on a refusal.
fn load_checked(spec: &str) -> CheckedWorkflow<'static> {
    CheckedWorkflow::new(load_workflow(spec)).unwrap_or_else(|e| die_diagnosed(&e))
}

fn die(msg: &str) -> ! {
    eprintln!("mashup: {msg}");
    std::process::exit(1)
}

/// Exits with the analyzer's pretty-rendered refusal report.
fn die_diagnosed(err: &AnalysisError) -> ! {
    eprintln!("mashup: static analysis refused the input");
    eprintln!("{}", render_pretty(&err.diagnostics));
    std::process::exit(1)
}

/// The CLI's strategy names, in `compare`'s print order.
const STRATEGIES: [(&str, Strategy); 6] = [
    ("traditional", Strategy::TraditionalTuned),
    ("serverless", Strategy::ServerlessOnly),
    ("pegasus", Strategy::Pegasus),
    ("kepler", Strategy::Kepler),
    ("wo-pdc", Strategy::MashupWithoutPdc),
    ("mashup", Strategy::Mashup),
];

/// The strategy a CLI name selects.
fn strategy_named(name: &str) -> Strategy {
    STRATEGIES
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, s)| s)
        .unwrap_or_else(|| die(&format!("unknown strategy '{name}'")))
}

/// Runs `strategy`, exiting with the rendered diagnostics on a refusal.
fn run_or_die(
    strategy: Strategy,
    cfg: &MashupConfig,
    w: &CheckedWorkflow,
    tracer: &Tracer,
) -> WorkflowReport {
    strategy
        .run(cfg, w, tracer, None)
        .unwrap_or_else(|e| die_diagnosed(&e))
}

struct Args {
    workflow: String,
    nodes: usize,
    objective: Objective,
    strategy: String,
    format: String,
    out: Option<String>,
    verbose: bool,
    check: bool,
    probe_sharing: bool,
}

fn parse_args(mut rest: std::env::Args) -> Args {
    let workflow = rest
        .next()
        .unwrap_or_else(|| die("missing workflow argument"));
    let mut args = Args {
        workflow,
        nodes: 8,
        objective: Objective::ExecutionTime,
        strategy: "mashup".into(),
        format: "jsonl".into(),
        out: None,
        verbose: false,
        check: false,
        probe_sharing: false,
    };
    while let Some(flag) = rest.next() {
        match flag.as_str() {
            "--nodes" => {
                args.nodes = rest
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--nodes needs a positive integer"));
            }
            "--objective" => {
                args.objective = match rest.next().as_deref() {
                    Some("time") => Objective::ExecutionTime,
                    Some("expense") => Objective::Expense,
                    Some("both") => Objective::Both,
                    Some(other) => die(&format!(
                        "unknown objective '{other}' (expected time, expense or both)"
                    )),
                    None => die("--objective needs a value"),
                };
            }
            "--strategy" => {
                args.strategy = rest
                    .next()
                    .unwrap_or_else(|| die("--strategy needs a value"));
            }
            "--format" => {
                args.format = match rest.next().as_deref() {
                    Some("jsonl") => "jsonl".into(),
                    Some("chrome") => "chrome".into(),
                    Some(other) => die(&format!(
                        "unknown trace format '{other}' (expected jsonl or chrome)"
                    )),
                    None => die("--format needs a value"),
                };
            }
            "--out" => {
                args.out = Some(rest.next().unwrap_or_else(|| die("--out needs a path")));
            }
            "--verbose" => args.verbose = true,
            "--check" => args.check = true,
            "--probe-sharing" => args.probe_sharing = true,
            other => die(&format!("unknown flag '{other}'")),
        }
    }
    args
}

fn print_report(label: &str, r: &WorkflowReport) -> io::Result<()> {
    outln!(
        "{:<12} {:>10.1}s   ${:<8.4} (vm ${:.4} + faas ${:.4} + storage ${:.4})",
        label,
        r.makespan_secs,
        r.expense.total(),
        r.expense.vm_dollars,
        r.expense.faas_dollars,
        r.expense.storage_dollars
    );
    Ok(())
}

fn main() {
    if let Err(e) = cli() {
        // The reader closed stdout (`mashup … | head`): stop quietly, as
        // pipelines expect.
        if e.kind() == io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        die(&format!("cannot write to stdout: {e}"));
    }
}

/// Runs the command the arguments name.
fn cli() -> io::Result<()> {
    let mut argv = std::env::args();
    let _bin = argv.next();
    let Some(cmd) = argv.next() else {
        die(
            "usage: mashup <validate|analyze|dot|plan|run|compare|trace|chaos|serve|pareto> \
             [workflow] [flags]",
        )
    };
    match cmd.as_str() {
        "validate" => {
            let spec = argv.next().unwrap_or_else(|| die("missing workflow"));
            let w = load_checked(&spec);
            outln!(
                "'{}' is valid: {} tasks, {} components, {} phases, peak width {}",
                w.name,
                w.task_count(),
                w.component_count(),
                w.phases.len(),
                w.max_width()
            );
        }
        "dot" => {
            let spec = argv.next().unwrap_or_else(|| die("missing workflow"));
            let w = load_checked(&spec);
            out!("{}", mashup::dag::to_dot(&w));
        }
        "analyze" => run_analyze(argv)?,
        "plan" => {
            let args = parse_args(argv);
            let w = load_checked(&args.workflow);
            let cfg = MashupConfig::aws(args.nodes);
            // --probe-sharing collapses serverless probes across tasks of
            // the same code family — one probe per family instead of one
            // per task, the cheap mode for very wide workflows.
            let pdc = Pdc::new(cfg)
                .with_objective(args.objective)
                .with_probe_sharing(args.probe_sharing)
                .plan(&w)
                .unwrap_or_else(|e| die_diagnosed(&e));
            outln!(
                "plan for '{}' on {} nodes ({} sub-clusters):",
                w.name,
                args.nodes,
                pdc.subclusters
            );
            let f = &pdc.factors;
            outln!(
                "calibrated factors: alpha={:.4}, beta={:.2}, store={:.2e} B/s",
                f.alpha,
                f.beta,
                f.store_bps
            );
            for d in &pdc.decisions {
                let reason = d
                    .forced_vm_reason
                    .map(|r| format!("  [{r}]"))
                    .unwrap_or_default();
                outln!(
                    "  {:<20} C={:<5} T_vm={:>9.1}s  T_sl≈{:>9.1}s  probe={:>8.1}s  -> {}{}",
                    w.task(d.task).name,
                    d.components,
                    d.t_vm_secs,
                    d.t_serverless_est_secs,
                    d.probe_secs,
                    d.platform,
                    reason
                );
            }
            outln!(
                "profiling cost: ${:.4} (amortized over production runs)",
                pdc.profiling_expense.total()
            );
        }
        "run" => {
            let args = parse_args(argv);
            let w = load_checked(&args.workflow);
            let cfg = MashupConfig::aws(args.nodes);
            let strategy = strategy_named(&args.strategy);
            let report = run_or_die(strategy, &cfg, &w, &Tracer::off());
            print_report(&args.strategy, &report)?;
            for t in &report.tasks {
                outln!(
                    "  {:<20} {:<10} {:>8.1}s  (cold {:>5.1}s, io {:>7.1}s, {} ckpts)",
                    t.name,
                    t.platform.to_string(),
                    t.makespan_secs(),
                    t.cold_start_secs,
                    t.io_secs,
                    t.checkpoints
                );
            }
            outln!("\n{}", report.render_gantt(60));
        }
        "trace" => {
            let args = parse_args(argv);
            let w = load_checked(&args.workflow);
            let cfg = MashupConfig::aws(args.nodes);
            let tracer = if args.verbose {
                Tracer::verbose()
            } else {
                Tracer::new()
            };
            let strategy = strategy_named(&args.strategy);
            let report = run_or_die(strategy, &cfg, &w, &tracer);
            let records = tracer.take();
            let body = match args.format.as_str() {
                "chrome" => mashup::sim::trace::to_chrome_trace(&records),
                _ => mashup::sim::trace::to_jsonl(&records),
            };
            match &args.out {
                Some(path) => {
                    std::fs::write(path, &body)
                        .unwrap_or_else(|e| die(&format!("cannot write '{path}': {e}")));
                    eprintln!(
                        "wrote {} records ({} format) to {path}",
                        records.len(),
                        args.format
                    );
                }
                None => out!("{body}"),
            }
            if args.check {
                let violations = mashup::engine::trace::check(&cfg, &w, &report, &records);
                if violations.is_empty() {
                    eprintln!("trace check: all invariants hold");
                } else {
                    for v in &violations {
                        eprintln!("trace check: {v}");
                    }
                    std::process::exit(1);
                }
            }
        }
        "compare" => {
            let args = parse_args(argv);
            let w = load_checked(&args.workflow);
            let cfg = MashupConfig::aws(args.nodes);
            outln!("'{}' on {} nodes:", w.name, args.nodes);
            let mut reports: Vec<(Strategy, WorkflowReport)> = Vec::new();
            for &(name, s) in &STRATEGIES {
                if s == Strategy::MashupWithoutPdc {
                    continue;
                }
                let report = run_or_die(s, &cfg, &w, &Tracer::off());
                print_report(name, &report)?;
                reports.push((s, report));
            }
            let report = |s: Strategy| &reports.iter().find(|(r, _)| *r == s).expect("compared").1;
            let (traditional, mashup) =
                (report(Strategy::TraditionalTuned), report(Strategy::Mashup));
            outln!(
                "\nmashup vs traditional: {:.1}% time, {:.1}% expense",
                improvement_pct(mashup.makespan_secs, traditional.makespan_secs),
                improvement_pct(mashup.expense.total(), traditional.expense.total())
            );
        }
        "pareto" => run_pareto(argv)?,
        "chaos" => run_chaos(argv)?,
        "serve" => run_serve(argv)?,
        other => die(&format!("unknown command '{other}'")),
    }
    Ok(())
}

/// `mashup analyze`: the analyzer's findings on the config and on each
/// target workflow, or with `--suite` on the paper workflows and six
/// synthetic samples, plus a placement plan's if `--plan` names one. CI
/// runs `--suite` to keep every shipped input analyzer-clean.
fn run_analyze(mut argv: std::env::Args) -> io::Result<()> {
    use mashup::analyze::{analyze_config, analyze_plan, analyze_workflow, has_errors};
    let mut specs = Vec::new();
    let mut plan: Option<PlacementPlan> = None;
    let mut cfg: fn(usize) -> MashupConfig = MashupConfig::aws;
    let mut nodes = 8usize;
    let mut json = false;
    let mut suite = false;
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--plan" => {
                let path = argv.next().unwrap_or_else(|| die("--plan needs a path"));
                plan = Some(
                    serde_json::from_str(&read(&path))
                        .unwrap_or_else(|e| die(&format!("invalid plan '{path}': {e}"))),
                );
            }
            "--nodes" => {
                nodes = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--nodes needs a positive integer"));
            }
            "--provider" => {
                cfg = match argv.next().as_deref() {
                    Some("aws") => MashupConfig::aws,
                    Some("gcp") => MashupConfig::gcp,
                    Some(other) => {
                        die(&format!("unknown provider '{other}' (expected aws or gcp)"))
                    }
                    None => die("--provider needs a value"),
                };
            }
            "--json" => json = true,
            "--suite" => suite = true,
            flag if flag.starts_with("--") => die(&format!("unknown flag '{flag}'")),
            spec => specs.push(spec.to_string()),
        }
    }
    if specs.is_empty() && !suite {
        die("missing workflow (or --suite)");
    }
    let cfg = cfg(nodes);
    let mut targets = Vec::new();
    if suite {
        let synthetic = (0..6).map(|seed| {
            mashup::workflows::generate(&mashup::workflows::SyntheticConfig::default(), seed)
        });
        for w in mashup::workflows::paper_workflows()
            .into_iter()
            .chain(synthetic)
        {
            targets.push((w.name.clone(), w));
        }
    }
    for spec in specs {
        let w = load_workflow(&spec);
        targets.push((spec, w));
    }

    /// One `--json` output element: a target plus its findings.
    #[derive(serde::Serialize)]
    struct Section {
        target: String,
        diagnostics: Vec<Diagnostic>,
    }
    // Config checks run once, not per workflow.
    let config = analyze_config(
        &cfg.provider,
        &cfg.cluster,
        &mashup::engine::engine_params(&cfg),
    );
    let mut sections = vec![Section {
        target: "config".into(),
        diagnostics: config,
    }];
    for (target, w) in targets {
        let mut diagnostics = analyze_workflow(&w);
        if let Some(plan) = &plan {
            diagnostics.extend(analyze_plan(&w, plan, &cfg.plan_context()));
        }
        sections.push(Section {
            target,
            diagnostics,
        });
    }
    let errors = sections.iter().any(|s| has_errors(&s.diagnostics));
    if json {
        let body = serde_json::to_string_pretty(&sections)
            .unwrap_or_else(|e| die(&format!("serialize: {e}")));
        outln!("{body}");
    } else {
        for s in &sections {
            out!("== {}\n{}", s.target, render_pretty(&s.diagnostics));
        }
    }
    if errors {
        io::stdout().flush()?;
        std::process::exit(1);
    }
    Ok(())
}

/// `mashup pareto`: search the fusion × right-sizing plan space and print
/// the time/expense Pareto front (see `mashup-serve`'s `pareto` module).
fn run_pareto(mut argv: std::env::Args) -> io::Result<()> {
    let spec = argv.next().unwrap_or_else(|| die("missing workflow"));
    let mut nodes = 8usize;
    let mut budget = 200usize;
    let mut out: Option<String> = None;
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--nodes" => {
                nodes = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--nodes needs a positive integer"));
            }
            "--budget" => {
                budget = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&b| b >= 1)
                    .unwrap_or_else(|| die("--budget needs a positive integer"));
            }
            "--jobs" => {
                let jobs = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--jobs needs a worker count (0 = one per core)"));
                mashup::serve::set_jobs(jobs);
            }
            "--out" => out = Some(argv.next().unwrap_or_else(|| die("--out needs a path"))),
            other => die(&format!("unknown flag '{other}'")),
        }
    }
    let w = load_checked(&spec);
    let cfg = MashupConfig::aws(nodes);
    let started = std::time::Instant::now();
    let outcome = mashup::serve::pareto_sweep_with(&cfg, &w, budget, Default::default())
        .unwrap_or_else(|e| die_diagnosed(&e));
    let wall = started.elapsed().as_secs_f64();
    outln!(
        "Pareto front for '{}' on {nodes} nodes (budget {budget} candidates):",
        w.name
    );
    outln!("{:<44} {:>10} {:>11}", "candidate", "makespan", "expense");
    for p in &outcome.front {
        outln!(
            "{:<44} {:>9.1}s  ${:<10.4}",
            p.label,
            p.makespan_secs,
            p.expense_dollars
        );
    }
    let s = &outcome.stats;
    eprintln!(
        "[pareto] {} generated, {} deduped, {} pruned, {} evaluated, {} coalesced, \
         {} executed in {wall:.2}s ({:.1} candidates/s)",
        s.generated,
        s.deduped,
        s.pruned,
        s.evaluated,
        s.coalesced,
        s.executed,
        s.evaluated as f64 / wall.max(1e-9),
    );
    eprintln!("[plan-cache] {}", s.cache);
    if let Some(path) = &out {
        // Drop the cache section from the artifact: its miss-side
        // compute_secs are wall-clock timings, so keeping them would make
        // the file vary across worker counts. The front and every search
        // counter are deterministic; cache telemetry lives on stderr.
        let mut value = serde::Serialize::to_value(&outcome);
        if let serde::Value::Object(fields) = &mut value {
            for (k, v) in fields.iter_mut() {
                if k == "stats" {
                    if let serde::Value::Object(stats) = v {
                        stats.retain(|(k, _)| k != "cache");
                    }
                }
            }
        }
        let body = serde_json::to_string_pretty(&value)
            .unwrap_or_else(|e| die(&format!("serialize: {e}")));
        std::fs::write(path, body + "\n")
            .unwrap_or_else(|e| die(&format!("cannot write '{path}': {e}")));
        eprintln!("wrote JSON front to {path}");
    }
    Ok(())
}

/// `mashup chaos`: executes the workflow three times — fault-free, then
/// under a seeded fault schedule with the static plan riding the faults
/// out, then with the online replanning controller on — and prints the
/// comparison plus a chaos event summary. `--check` replays both chaos
/// traces through the trace-invariant oracle and exits nonzero on any
/// violation. Everything is derived from the seed: rerunning the command
/// reproduces every fault, retry, and replan bit-identically.
fn run_chaos(mut argv: std::env::Args) -> io::Result<()> {
    let spec = argv.next().unwrap_or_else(|| die("missing workflow"));
    let mut nodes = 16usize;
    let mut seed = 1u64;
    let mut profile = "preemption".to_string();
    let mut horizon: Option<f64> = None;
    let mut straggler_factor = 0.0f64;
    let mut strategy = "mashup".to_string();
    let mut check = false;
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--nodes" => {
                nodes = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--nodes needs a positive integer"));
            }
            "--seed" => {
                seed = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
            }
            "--profile" => {
                profile = match argv.next().as_deref() {
                    Some(p @ ("preemption" | "storage" | "mixed")) => p.into(),
                    Some(other) => die(&format!(
                        "unknown fault profile '{other}' (expected preemption, storage or mixed)"
                    )),
                    None => die("--profile needs a value"),
                };
            }
            "--horizon" => {
                horizon = Some(
                    argv.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&h: &f64| h > 0.0 && h.is_finite())
                        .unwrap_or_else(|| die("--horizon needs positive seconds")),
                );
            }
            "--straggler-factor" => {
                straggler_factor = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|f: &f64| f.is_finite())
                    .unwrap_or_else(|| die("--straggler-factor needs a number"));
            }
            "--strategy" => {
                strategy = argv
                    .next()
                    .unwrap_or_else(|| die("--strategy needs a value"));
            }
            "--check" => check = true,
            other => die(&format!("unknown flag '{other}'")),
        }
    }
    let w = load_checked(&spec);
    let cfg = MashupConfig::aws(nodes);
    let strategy = strategy_named(&strategy);
    let run = |cfg: &MashupConfig, tracer: &Tracer| run_or_die(strategy, cfg, &w, tracer);

    // The fault-free reference also sizes the default fault horizon.
    let base = run(&cfg, &Tracer::off());
    let horizon = horizon.unwrap_or(base.makespan_secs);
    let prof = match profile.as_str() {
        "storage" => FaultProfile::storage(horizon),
        "mixed" => FaultProfile::mixed(horizon),
        _ => FaultProfile::preemption(horizon),
    };
    let plan = FaultPlan::generate(seed, &prof, nodes, cfg.cluster.instance.price_per_hour);
    outln!(
        "'{}' on {nodes} nodes, {profile} faults (seed {seed}, horizon {horizon:.0}s): \
         {} scheduled",
        w.name,
        plan.faults.len()
    );

    let static_cfg = cfg.clone().with_chaos(ChaosSpec::new(plan.clone()));
    let adaptive_cfg = cfg.clone().with_chaos(
        ChaosSpec::new(plan)
            .with_adaptive(true)
            .with_straggler_factor(straggler_factor),
    );
    let s_tracer = Tracer::new();
    let s_report = run(&static_cfg, &s_tracer);
    let s_records = s_tracer.take();
    let a_tracer = Tracer::new();
    let a_report = run(&adaptive_cfg, &a_tracer);
    let a_records = a_tracer.take();

    print_report("fault-free", &base)?;
    print_report("static", &s_report)?;
    print_report("adaptive", &a_report)?;
    outln!(
        "adaptive vs static: {:.1}% time, {:.1}% expense",
        improvement_pct(a_report.makespan_secs, s_report.makespan_secs),
        improvement_pct(a_report.expense.total(), s_report.expense.total())
    );
    for (label, records) in [("static", &s_records), ("adaptive", &a_records)] {
        let count = |f: fn(&TraceEvent) -> bool| records.iter().filter(|r| f(&r.event)).count();
        outln!(
            "{label:<9} preemptions {}, fault windows {}, comp retries {}, \
             storage retries {}, replans {}",
            count(|e| matches!(e, TraceEvent::SpotPreempt { .. })),
            count(|e| matches!(e, TraceEvent::FaultInjected { .. })),
            count(|e| matches!(e, TraceEvent::CompRetry { .. })),
            count(|e| matches!(e, TraceEvent::FaultRetry { .. })),
            count(|e| matches!(e, TraceEvent::Replan { .. })),
        );
    }
    if check {
        let mut bad = 0usize;
        for (label, run_cfg, report, records) in [
            ("static", &static_cfg, &s_report, &s_records),
            ("adaptive", &adaptive_cfg, &a_report, &a_records),
        ] {
            for v in mashup::engine::trace::check(run_cfg, &w, report, records) {
                eprintln!("trace check [{label}]: {v}");
                bad += 1;
            }
        }
        if bad > 0 {
            std::process::exit(1);
        }
        eprintln!("trace check: all invariants hold on both chaos traces");
    }
    Ok(())
}

/// `mashup serve`: JSONL planning service over stdio. Each stdin line is a
/// `PlanRequest`; replies are written to stdout as JSONL in submission
/// order. Admission rejections and parse errors go to stderr; the process
/// exits once stdin closes and the backlog drains.
fn run_serve(mut argv: std::env::Args) -> io::Result<()> {
    use mashup::serve::{PlanRequest, PlanService, ServiceConfig, Ticket};
    let mut workers = mashup::serve::jobs();
    let mut queue_depth = ServiceConfig::default().queue_depth;
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--workers" => {
                workers = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| die("--workers needs a positive integer"));
            }
            "--queue-depth" => {
                queue_depth = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| die("--queue-depth needs a positive integer"));
            }
            other => die(&format!("unknown flag '{other}'")),
        }
    }
    let service = PlanService::new(ServiceConfig { queue_depth });
    let handles = service.spawn_workers(workers);
    let mut tickets: Vec<Ticket> = Vec::new();
    for (lineno, line) in std::io::stdin().lines().enumerate() {
        let line = line.unwrap_or_else(|e| die(&format!("cannot read stdin: {e}")));
        if line.trim().is_empty() {
            continue;
        }
        let req: PlanRequest = match serde_json::from_str(&line) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("mashup serve: line {}: invalid request: {e}", lineno + 1);
                continue;
            }
        };
        match service.submit(req) {
            Ok(t) => tickets.push(t),
            Err(r) => eprintln!("mashup serve: line {}: rejected: {r}", lineno + 1),
        }
    }
    for t in tickets {
        let reply = t.wait();
        outln!(
            "{}",
            serde_json::to_string(&reply).unwrap_or_else(|e| die(&format!("serialize: {e}")))
        );
    }
    service.shutdown();
    for h in handles {
        let _ = h.join();
    }
    let stats = service.stats();
    eprintln!(
        "mashup serve: {} completed, {} rejected, cache {:.1}% hits",
        stats.completed,
        stats.rejected,
        stats.cache.hit_pct(),
    );
    Ok(())
}
