//! `trace-oracle`: one flow-traced strategy run → JSONL encode → decode →
//! the seven-checker oracle. The recorder is on and planning is warm, so
//! the executor's emit sites and the trace codec dominate. Here the
//! `exec.execute` span is the whole strategy run, warm planning included.

use crate::harness::{self, CacheTally, Run, PAPER};
use mashup_bench::{run_strategy_traced, Strategy};
use mashup_core::{trace, Mashup, MashupConfig, PlanCache, Tracer};
use mashup_sim::trace::{from_jsonl, to_jsonl};
use std::sync::Arc;

const STRATEGIES: [Strategy; 3] = [Strategy::Mashup, Strategy::ServerlessOnly, Strategy::Kepler];
const COMBOS: usize = PAPER.len() * STRATEGIES.len();

pub fn workload(seed: u64, seconds: f64, trace: bool) -> Run {
    let mut out = Run::new(trace, 1);
    // The set-up check plans the paper workflows on 8 nodes: that warms
    // the cache the Mashup runs below use.
    let (cache, workflows, checks) = out.setup(|| {
        let cache = Arc::new(PlanCache::new());
        let checks = harness::check_makespans(&cache);
        (cache, PAPER.map(|build| build()), checks)
    });
    out.tally_checks(checks);

    let cfg = MashupConfig::aws(8);
    let (mut records_n, mut bytes, mut violations) = (0, 0, 0);
    let mut tally = CacheTally::default();
    harness::sequential(&mut out, seconds, COMBOS, |i, spans| {
        let c = harness::pick(seed, "trace-oracle", COMBOS, i);
        let (w, strategy) = (&workflows[c % 3], STRATEGIES[c / 3]);
        let tracer = Tracer::new();
        let before = cache.stats();
        // The global cache `run_strategy_traced` would use for Mashup
        // cannot be emptied between set-ups, so Mashup runs on this one.
        let (report, _) = spans.time(i, "exec.execute", || match strategy {
            Strategy::Mashup => Mashup::new(cfg.clone())
                .with_tracer(tracer.clone())
                .with_cache(cache.clone())
                .try_run(w)
                .map(|o| o.report)
                .ok(),
            s => Some(run_strategy_traced(&cfg, w, s, &tracer)),
        });
        let Some(report) = report else {
            return false;
        };
        let records = tracer.take();
        let (text, _) = spans.time(i, "trace.encode", || to_jsonl(&records));
        let (decoded, _) = spans.time(i, "trace.decode", || from_jsonl(&text));
        let Ok(decoded) = decoded else {
            return false;
        };
        let (found, _) = spans.time(i, "trace.check", || {
            trace::check(&cfg, w, &report, &decoded)
        });
        if spans.is_on() {
            records_n += records.len();
            bytes += text.len();
            violations += found.len();
            tally.add(&before, &cache.stats());
        }
        decoded == records && found.is_empty()
    });
    let traced_ops = out.traced_ms.len().max(1) as f64;
    out.layers
        .insert("trace.records", records_n as f64 / traced_ops);
    out.layers.insert("trace.bytes", bytes as f64 / traced_ops);
    out.layers.insert("trace.violations", violations as f64);
    tally.record(&mut out.layers);
    out
}
