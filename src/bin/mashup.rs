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
//! Each command refuses a flag its line above does not name.
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

/// A flag value with the name the command line gives it.
type Named<T> = (&'static str, T);
type Encoder = fn(&[TraceRecord]) -> String;
type Provider = fn(usize) -> MashupConfig;
type Profile = fn(f64) -> FaultProfile;

/// The CLI's strategy names, in `compare`'s print order.
const STRATEGIES: [Named<Strategy>; 6] = [
    ("traditional", Strategy::TraditionalTuned),
    ("serverless", Strategy::ServerlessOnly),
    ("pegasus", Strategy::Pegasus),
    ("kepler", Strategy::Kepler),
    ("wo-pdc", Strategy::MashupWithoutPdc),
    ("mashup", Strategy::Mashup),
];

const OBJECTIVES: [Named<Objective>; 3] = [
    ("time", Objective::ExecutionTime),
    ("expense", Objective::Expense),
    ("both", Objective::Both),
];

const FORMATS: [Named<Encoder>; 2] = [
    ("jsonl", mashup::sim::trace::to_jsonl),
    ("chrome", mashup::sim::trace::to_chrome_trace),
];

const PROVIDERS: [Named<Provider>; 2] = [("aws", MashupConfig::aws), ("gcp", MashupConfig::gcp)];

const PROFILES: [Named<Profile>; 3] = [
    ("preemption", FaultProfile::preemption),
    ("storage", FaultProfile::storage),
    ("mixed", FaultProfile::mixed),
];

/// The workflow operands a command takes ahead of (or among) its flags.
#[derive(Clone, Copy, PartialEq)]
enum Operands {
    Zero,
    /// The first argument, whatever it looks like.
    One,
    /// Every argument not starting with `--`.
    Many,
}
use Operands::{Many, One, Zero};

/// A command: its name, its workflow operands, the flags it reads (exactly
/// those its usage lines above name, in their order; a unit test keeps the
/// two equal) and its body.
type Command = (
    &'static str,
    Operands,
    &'static str,
    fn(&Opts) -> io::Result<()>,
);

#[rustfmt::skip]
const COMMANDS: [Command; 10] = [
    ("validate", One,  "", validate),
    ("analyze",  Many, "--plan --nodes --provider --json --suite", analyze),
    ("dot",      One,  "", dot),
    ("plan",     One,  "--nodes --objective --probe-sharing", plan),
    ("run",      One,  "--nodes --strategy", run),
    ("compare",  One,  "--nodes", compare),
    ("trace",    One,  "--nodes --strategy --format --out --verbose --check", trace),
    ("pareto",   One,  "--nodes --budget --jobs --out", pareto),
    ("chaos",    One,  "--nodes --seed --profile --horizon --straggler-factor --strategy --check", chaos),
    ("serve",    Zero, "--workers --queue-depth", serve),
];

/// Every flag's value, at its default unless the command line set it.
struct Opts {
    workflows: Vec<String>,
    nodes: usize,
    objective: Objective,
    probe_sharing: bool,
    strategy: Named<Strategy>,
    format: Named<Encoder>,
    out: Option<String>,
    verbose: bool,
    check: bool,
    plan: Option<PlacementPlan>,
    provider: Provider,
    json: bool,
    suite: bool,
    budget: usize,
    jobs: Option<usize>,
    seed: u64,
    profile: Named<Profile>,
    horizon: Option<f64>,
    straggler_factor: f64,
    workers: Option<usize>,
    queue_depth: usize,
}

impl Opts {
    /// The checked workflow of a command that takes [`One`].
    fn workflow(&self) -> CheckedWorkflow<'static> {
        load_checked(&self.workflows[0])
    }
}

/// Parses a command's arguments in one pass: a flag outside its `flags` is
/// refused, and each value is checked as it is read.
fn parse(&(name, operands, flags, _): &Command, mut argv: impl Iterator<Item = String>) -> Opts {
    let mut o = Opts {
        workflows: Vec::new(),
        nodes: if name == "chaos" { 16 } else { 8 },
        objective: Objective::ExecutionTime,
        probe_sharing: false,
        strategy: ("mashup", Strategy::Mashup),
        format: FORMATS[0],
        out: None,
        verbose: false,
        check: false,
        plan: None,
        provider: MashupConfig::aws,
        json: false,
        suite: false,
        budget: 200,
        jobs: None,
        seed: 1,
        profile: PROFILES[0],
        horizon: None,
        straggler_factor: 0.0,
        workers: None,
        queue_depth: mashup::serve::ServiceConfig::default().queue_depth,
    };
    if operands == One {
        o.workflows
            .push(argv.next().unwrap_or_else(|| die("missing workflow")));
    }
    while let Some(arg) = argv.next() {
        let flag = arg.as_str();
        if !flags.split_whitespace().any(|f| f == flag) {
            if operands == Many && !flag.starts_with("--") {
                o.workflows.push(arg);
                continue;
            }
            let takes = match flags {
                "" => "no flags".to_string(),
                flags => flags.replace(' ', ", "),
            };
            die(&format!("unknown flag '{flag}' ({name} takes {takes})"));
        }
        match flag {
            "--nodes" => o.nodes = number(flag, argv.next(), "a positive integer", |_| true),
            "--budget" => o.budget = number(flag, argv.next(), "a positive integer", |&b| b >= 1),
            "--jobs" => {
                let what = "a worker count (0 = one per core)";
                o.jobs = Some(number(flag, argv.next(), what, |_| true));
            }
            "--seed" => o.seed = number(flag, argv.next(), "an integer", |_| true),
            "--horizon" => {
                let ok = |&h: &f64| h > 0.0 && h.is_finite();
                o.horizon = Some(number(flag, argv.next(), "positive seconds", ok));
            }
            "--straggler-factor" => {
                let ok = |f: &f64| f.is_finite();
                o.straggler_factor = number(flag, argv.next(), "a number", ok);
            }
            "--workers" => {
                o.workers = Some(number(flag, argv.next(), "a positive integer", |&n| n >= 1));
            }
            "--queue-depth" => {
                o.queue_depth = number(flag, argv.next(), "a positive integer", |&n| n >= 1);
            }
            "--objective" => o.objective = choice(flag, argv.next(), "objective", &OBJECTIVES).1,
            "--strategy" => o.strategy = choice(flag, argv.next(), "strategy", &STRATEGIES),
            "--format" => o.format = choice(flag, argv.next(), "trace format", &FORMATS),
            "--provider" => o.provider = choice(flag, argv.next(), "provider", &PROVIDERS).1,
            "--profile" => o.profile = choice(flag, argv.next(), "fault profile", &PROFILES),
            "--out" => o.out = Some(argv.next().unwrap_or_else(|| die("--out needs a path"))),
            "--plan" => {
                let path = argv.next().unwrap_or_else(|| die("--plan needs a path"));
                o.plan = Some(
                    serde_json::from_str(&read(&path))
                        .unwrap_or_else(|e| die(&format!("invalid plan '{path}': {e}"))),
                );
            }
            "--probe-sharing" => o.probe_sharing = true,
            "--verbose" => o.verbose = true,
            "--check" => o.check = true,
            "--json" => o.json = true,
            "--suite" => o.suite = true,
            _ => unreachable!("{flag} is in the flag table but has no parser"),
        }
    }
    if operands == Many && o.workflows.is_empty() && !o.suite {
        die("missing workflow (or --suite)");
    }
    o
}

/// A flag's number: dies with "`flag` needs `what`" when the value is
/// missing, malformed or fails `ok`.
fn number<T: std::str::FromStr>(
    flag: &str,
    value: Option<String>,
    what: &str,
    ok: impl Fn(&T) -> bool,
) -> T {
    value
        .and_then(|v| v.parse().ok())
        .filter(ok)
        .unwrap_or_else(|| die(&format!("{flag} needs {what}")))
}

/// A flag's value looked up among `names`; dies naming the expected ones
/// when it is missing or unknown.
fn choice<T: Copy>(flag: &str, value: Option<String>, noun: &str, names: &[Named<T>]) -> Named<T> {
    let value = value.unwrap_or_else(|| die(&format!("{flag} needs a value")));
    names
        .iter()
        .find(|(name, _)| *name == value)
        .copied()
        .unwrap_or_else(|| {
            let (last, rest) = names.split_last().expect("a choice has names");
            let rest: Vec<&str> = rest.iter().map(|(name, _)| *name).collect();
            die(&format!(
                "unknown {noun} '{value}' (expected {} or {})",
                rest.join(", "),
                last.0
            ))
        })
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
    let mut argv = std::env::args().skip(1);
    let Some(name) = argv.next() else {
        die(
            "usage: mashup <validate|analyze|dot|plan|run|compare|trace|chaos|serve|pareto> \
             [workflow] [flags]",
        )
    };
    let cmd = COMMANDS
        .iter()
        .find(|(n, ..)| *n == name)
        .unwrap_or_else(|| die(&format!("unknown command '{name}'")));
    (cmd.3)(&parse(cmd, argv))
}

fn validate(o: &Opts) -> io::Result<()> {
    let w = o.workflow();
    outln!(
        "'{}' is valid: {} tasks, {} components, {} phases, peak width {}",
        w.name,
        w.task_count(),
        w.component_count(),
        w.phases.len(),
        w.max_width()
    );
    Ok(())
}

fn dot(o: &Opts) -> io::Result<()> {
    out!("{}", mashup::dag::to_dot(&o.workflow()));
    Ok(())
}

fn plan(o: &Opts) -> io::Result<()> {
    let w = o.workflow();
    let cfg = MashupConfig::aws(o.nodes);
    // --probe-sharing collapses serverless probes across tasks of
    // the same code family — one probe per family instead of one
    // per task, the cheap mode for very wide workflows.
    let pdc = Pdc::new(cfg)
        .with_objective(o.objective)
        .with_probe_sharing(o.probe_sharing)
        .plan(&w)
        .unwrap_or_else(|e| die_diagnosed(&e));
    outln!(
        "plan for '{}' on {} nodes ({} sub-clusters):",
        w.name,
        o.nodes,
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
    Ok(())
}

fn run(o: &Opts) -> io::Result<()> {
    let w = o.workflow();
    let cfg = MashupConfig::aws(o.nodes);
    let (name, strategy) = o.strategy;
    let report = run_or_die(strategy, &cfg, &w, &Tracer::off());
    print_report(name, &report)?;
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
    Ok(())
}

fn trace(o: &Opts) -> io::Result<()> {
    let w = o.workflow();
    let cfg = MashupConfig::aws(o.nodes);
    let tracer = if o.verbose {
        Tracer::verbose()
    } else {
        Tracer::new()
    };
    let report = run_or_die(o.strategy.1, &cfg, &w, &tracer);
    let records = tracer.take();
    let (format, encode) = o.format;
    let body = encode(&records);
    match &o.out {
        Some(path) => {
            std::fs::write(path, &body)
                .unwrap_or_else(|e| die(&format!("cannot write '{path}': {e}")));
            eprintln!(
                "wrote {} records ({format} format) to {path}",
                records.len()
            );
        }
        None => out!("{body}"),
    }
    if o.check {
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
    Ok(())
}

fn compare(o: &Opts) -> io::Result<()> {
    let w = o.workflow();
    let cfg = MashupConfig::aws(o.nodes);
    outln!("'{}' on {} nodes:", w.name, o.nodes);
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
    let (traditional, mashup) = (report(Strategy::TraditionalTuned), report(Strategy::Mashup));
    outln!(
        "\nmashup vs traditional: {:.1}% time, {:.1}% expense",
        improvement_pct(mashup.makespan_secs, traditional.makespan_secs),
        improvement_pct(mashup.expense.total(), traditional.expense.total())
    );
    Ok(())
}

/// `mashup analyze`: the analyzer's findings on the config and on each
/// target workflow, or with `--suite` on the paper workflows and six
/// synthetic samples, plus a placement plan's if `--plan` names one. CI
/// runs `--suite` to keep every shipped input analyzer-clean.
fn analyze(o: &Opts) -> io::Result<()> {
    use mashup::analyze::{analyze_config, analyze_plan, analyze_workflow, has_errors};
    let cfg = (o.provider)(o.nodes);
    let mut targets = Vec::new();
    if o.suite {
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
    for spec in &o.workflows {
        targets.push((spec.clone(), load_workflow(spec)));
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
        if let Some(plan) = &o.plan {
            diagnostics.extend(analyze_plan(&w, plan, &cfg.plan_context()));
        }
        sections.push(Section {
            target,
            diagnostics,
        });
    }
    let errors = sections.iter().any(|s| has_errors(&s.diagnostics));
    if o.json {
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
fn pareto(o: &Opts) -> io::Result<()> {
    if let Some(jobs) = o.jobs {
        mashup::serve::set_jobs(jobs);
    }
    let (nodes, budget) = (o.nodes, o.budget);
    let w = o.workflow();
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
    if let Some(path) = &o.out {
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
fn chaos(o: &Opts) -> io::Result<()> {
    let (nodes, seed, (profile, fault_profile)) = (o.nodes, o.seed, o.profile);
    let w = o.workflow();
    let cfg = MashupConfig::aws(nodes);
    let run = |cfg: &MashupConfig, tracer: &Tracer| run_or_die(o.strategy.1, cfg, &w, tracer);

    // The fault-free reference also sizes the default fault horizon.
    let base = run(&cfg, &Tracer::off());
    let horizon = o.horizon.unwrap_or(base.makespan_secs);
    let prof = fault_profile(horizon);
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
            .with_straggler_factor(o.straggler_factor),
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
    if o.check {
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
fn serve(o: &Opts) -> io::Result<()> {
    use mashup::serve::{PlanRequest, PlanService, ServiceConfig, Ticket};
    let service = PlanService::new(ServiceConfig {
        queue_depth: o.queue_depth,
    });
    let handles = service.spawn_workers(o.workers.unwrap_or_else(mashup::serve::jobs));
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

#[cfg(test)]
mod tests {
    use super::COMMANDS;

    /// Each command of the module doc's usage block and the flags its
    /// lines name, in order of first mention.
    fn usage() -> Vec<(&'static str, Vec<&'static str>)> {
        let mut usage: Vec<(&str, Vec<&str>)> = Vec::new();
        for line in include_str!("mashup.rs")
            .lines()
            .filter_map(|l| l.strip_prefix("//! mashup "))
        {
            let name = line.split_whitespace().next().expect("a command name");
            let i = match usage.iter().position(|(n, _)| *n == name) {
                Some(i) => i,
                None => {
                    usage.push((name, Vec::new()));
                    usage.len() - 1
                }
            };
            let flags = &mut usage[i].1;
            for token in line.split(|c: char| c.is_whitespace() || "[],".contains(c)) {
                if token.starts_with("--") && !flags.contains(&token) {
                    flags.push(token);
                }
            }
        }
        usage
    }

    #[test]
    fn usage_block_names_exactly_each_commands_flags() {
        let table: Vec<(&str, Vec<&str>)> = COMMANDS
            .iter()
            .map(|&(name, _, flags, _)| (name, flags.split_whitespace().collect()))
            .collect();
        assert_eq!(usage(), table);
    }
}
