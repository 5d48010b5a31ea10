//! `analyze` — static diagnostics for Mashup inputs, ahead of execution.
//!
//! ```text
//! analyze <workflow.json|1000Genome|SRAsearch|Epigenomics>... [flags]
//! analyze --suite [--json]
//!
//! flags:
//!   --plan <plan.json>    also check a placement plan against each workflow
//!   --nodes <N>           cluster size for the config checks (default 8)
//!   --provider <aws|gcp>  provider preset (default aws)
//!   --json                machine-readable output
//!   --suite               analyze the paper workflows + synthetic samples
//! ```
//!
//! Exit status: 0 clean (warnings allowed), 1 when error-level diagnostics
//! fire, 2 on usage or I/O problems. CI runs `--suite` plus the checked-in
//! example workflows to keep every shipped input analyzer-clean.

#![expect(
    clippy::disallowed_macros,
    reason = "a command-line tool: its stdout and stderr are its interface"
)]

use mashup_analyze::{
    analyze_config, analyze_plan, analyze_workflow, has_errors, render_pretty, Diagnostic,
    EngineParams, PlanContext,
};
use mashup_cloud::{ClusterConfig, InstanceType, ProviderPreset};
use mashup_dag::{PlacementPlan, Workflow};
use mashup_workflows::{epigenomics, genome1000, srasearch, SyntheticConfig};

fn die(msg: &str) -> ! {
    eprintln!("analyze: {msg}");
    std::process::exit(2)
}

struct Args {
    targets: Vec<String>,
    plan: Option<String>,
    nodes: usize,
    provider: ProviderPreset,
    json: bool,
    suite: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        targets: Vec::new(),
        plan: None,
        nodes: 8,
        provider: ProviderPreset::aws_like(),
        json: false,
        suite: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--plan" => args.plan = Some(argv.next().unwrap_or_else(|| die("--plan needs a path"))),
            "--nodes" => {
                args.nodes = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--nodes needs a positive integer"))
            }
            "--provider" => {
                args.provider = match argv.next().as_deref() {
                    Some("aws") => ProviderPreset::aws_like(),
                    Some("gcp") => ProviderPreset::gcp_like(),
                    other => die(&format!("unknown provider {other:?}")),
                }
            }
            "--json" => args.json = true,
            "--suite" => args.suite = true,
            flag if flag.starts_with("--") => die(&format!("unknown flag '{flag}'")),
            target => args.targets.push(target.to_string()),
        }
    }
    if args.targets.is_empty() && !args.suite {
        die("usage: analyze <workflow...> [--plan p.json] [--nodes N] [--provider aws|gcp] [--json] | analyze --suite");
    }
    args
}

/// Loads a workflow *without* structural validation — producing the
/// diagnostics is this tool's whole job.
fn load_workflow(spec: &str) -> Workflow {
    match spec {
        "1000Genome" => genome1000::workflow(),
        "SRAsearch" => srasearch::workflow(),
        "Epigenomics" => epigenomics::workflow(),
        path => {
            let json = std::fs::read_to_string(path)
                .unwrap_or_else(|e| die(&format!("cannot read '{path}': {e}")));
            serde_json::from_str(&json)
                .unwrap_or_else(|e| die(&format!("unparseable workflow '{path}': {e}")))
        }
    }
}

fn load_plan(path: &str) -> PlacementPlan {
    let json = std::fs::read_to_string(path)
        .unwrap_or_else(|e| die(&format!("cannot read '{path}': {e}")));
    serde_json::from_str(&json).unwrap_or_else(|e| die(&format!("unparseable plan '{path}': {e}")))
}

fn main() {
    let args = parse_args();
    let cluster = ClusterConfig::new(InstanceType::r5_large(), args.nodes);
    let engine = EngineParams::defaults();
    let plan = args.plan.as_deref().map(load_plan);

    // (target label, workflow) pairs to analyze.
    let mut targets: Vec<(String, Workflow)> = Vec::new();
    if args.suite {
        for w in mashup_workflows::paper_workflows() {
            targets.push((w.name.clone(), w));
        }
        for seed in 0..6 {
            let w = mashup_workflows::generate(&SyntheticConfig::default(), seed);
            targets.push((w.name.clone(), w));
        }
    }
    for spec in &args.targets {
        targets.push((spec.clone(), load_workflow(spec)));
    }

    /// One `--json` output element: a target plus its findings.
    #[derive(serde::Serialize)]
    struct JsonEntry {
        target: String,
        diagnostics: Vec<Diagnostic>,
    }

    let mut any_errors = false;
    // Config checks run once, not per workflow.
    let config_diags = analyze_config(&args.provider, &cluster, &engine);
    let mut sections: Vec<(String, Vec<Diagnostic>)> = vec![("config".to_string(), config_diags)];
    for (label, w) in &targets {
        let mut diags = analyze_workflow(w);
        if let Some(plan) = &plan {
            let ctx = PlanContext {
                faas: &args.provider.faas,
                wan_bps: cluster.instance.wan_bps,
                checkpoint_margin_secs: engine.checkpoint_margin_secs,
            };
            diags.extend(analyze_plan(w, plan, &ctx));
        }
        sections.push((label.clone(), diags));
    }

    for (label, diags) in &sections {
        any_errors |= has_errors(diags);
        if !args.json {
            print!("== {label}\n{}", render_pretty(diags));
        }
    }
    if args.json {
        let entries: Vec<JsonEntry> = sections
            .into_iter()
            .map(|(label, diags)| JsonEntry {
                target: label,
                diagnostics: diags,
            })
            .collect();
        println!(
            "{}",
            serde_json::to_string_pretty(&entries).expect("diagnostics serialize")
        );
    }
    std::process::exit(if any_errors { 1 } else { 0 });
}
