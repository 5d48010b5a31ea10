//! `paper-cold`: what a `mashup run` user pays — build a paper workflow,
//! plan it with a fresh cache, execute it. Nothing is shared between ops.
//!
//! Also home of [`plan`] and [`run`], `Mashup::try_run` split into its
//! layer calls for the traced runs of several workloads.

use crate::harness::{self, cache_sections, same_as_before, CacheTally, Run, PAPER};
use crate::spans::Spans;
use mashup_core::{
    preflight, try_execute, AnalysisError, Mashup, MashupConfig, MashupOutcome, Pdc, PdcReport,
    PlanCache,
};
use mashup_dag::Workflow;
use std::collections::BTreeMap;
use std::sync::Arc;

const NODES: [usize; 3] = [4, 8, 16];
const CONFIG_SEEDS: [u64; 4] = [42, 1, 2, 3];
const COMBOS: usize = PAPER.len() * NODES.len() * CONFIG_SEEDS.len();

/// The workflow's checks, then `pdc.decide`, timed as layers. The plan
/// cache's miss-side sections become children of the decide span.
pub fn plan(
    spans: &mut Spans,
    op: usize,
    cfg: &MashupConfig,
    pdc: &Pdc,
    cache: &PlanCache,
    w: &Workflow,
) -> Result<PdcReport, AnalysisError> {
    spans
        .time(op, "analyze.preflight", || preflight(cfg, w, None))
        .0?;
    let before = cache.stats();
    let (report, id) = spans.time(op, "pdc.decide", || pdc.decide(w));
    if spans.is_on() {
        cache_sections(spans, id, true, &before, &cache.stats());
    }
    Ok(report)
}

/// [`plan`], then execution on the sub-cluster split the PDC chose — the
/// same calls `Mashup::try_run` makes, so the outcome is identical.
pub fn run(
    spans: &mut Spans,
    op: usize,
    cfg: &MashupConfig,
    pdc: &Pdc,
    cache: &PlanCache,
    w: &Workflow,
) -> Result<MashupOutcome, AnalysisError> {
    let pdc = plan(spans, op, cfg, pdc, cache, w)?;
    let tuned = cfg.clone().with_subclusters(pdc.subclusters);
    // `try_execute` runs the plan checks itself. A traced run times them
    // once more on their own and subtracts them from the execute span, so
    // its self time is the simulation alone.
    let mut plan_checks = 0.0;
    if spans.is_on() {
        let (checked, id) = spans.time(op, "analyze.preflight", || {
            preflight(&tuned, w, Some(&pdc.plan))
        });
        checked?;
        plan_checks = spans.secs(id);
    }
    let (report, id) = spans.time(op, "exec.execute", || {
        try_execute(&tuned, w, &pdc.plan, "mashup")
    });
    spans.after(id, true, "exec.plan_checks", plan_checks);
    Ok(MashupOutcome {
        pdc,
        report: report?,
    })
}

pub fn workload(seed: u64, seconds: f64, trace: bool) -> Run {
    let mut out = Run::new(trace, 1);
    let checks = out.setup(|| harness::check_makespans(&Arc::new(PlanCache::new())));
    out.tally_checks(checks);

    let mut seen = BTreeMap::new();
    let mut tally = CacheTally::default();
    harness::sequential(&mut out, seconds, COMBOS, |i, spans| {
        let c = harness::pick(seed, "paper-cold", COMBOS, i);
        let (wf, nodes, cfg_seed) = (c % 3, NODES[c / 3 % 3], CONFIG_SEEDS[c / 9]);
        let cfg = MashupConfig::aws(nodes).with_seed(cfg_seed);
        let cache = Arc::new(PlanCache::new());
        let outcome = if spans.is_on() {
            let (w, _) = spans.time(i, "workflows.build", PAPER[wf]);
            let pdc = Pdc::new(cfg.clone()).with_cache(cache.clone());
            let outcome = run(spans, i, &cfg, &pdc, &cache, &w);
            tally.add(&Default::default(), &cache.stats());
            outcome
        } else {
            Mashup::new(cfg).with_cache(cache).try_run(&PAPER[wf]())
        };
        outcome.is_ok_and(|o| same_as_before(&mut seen, c, o))
    });
    tally.record(&mut out.layers);
    out
}
