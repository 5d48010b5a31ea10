//! `scale-100k`: build → preflight → cold plan with probe sharing →
//! execute, on 100k-task DAGs; DAG build and the analyzer only matter at
//! this size. One op runs the fan-out shape, then the chain shape: a
//! fan-out costs about 1.5× a chain, so ops of one shape each would put
//! the median latency on whichever op sits at the edge of the two modes.
//! Each shape's own times are kept as op kinds.

// lint: allow-file(wall-clock)
use crate::harness::{self, ms_since, same_as_before, CacheTally, Run};
use crate::paper::run;
use mashup_bench::scale::{self, Shape};
use mashup_core::{MashupConfig, Pdc, PlanCache};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

const TASKS: usize = 100_000;
const SHAPES: [(Shape, &str, &str); 2] = [
    (Shape::FanOut, "fanout", "dag.build.fanout"),
    (Shape::Chain, "chain", "dag.build.chain"),
];

pub fn workload(seed: u64, seconds: f64, trace: bool) -> Run {
    let mut out = Run::new(trace, 1);
    let checks = out.setup(|| harness::check_makespans(&Arc::new(PlanCache::new())));
    out.tally_checks(checks);

    let cfg = MashupConfig::aws(8).with_seed(seed);
    let mut seen = BTreeMap::new();
    let mut tally = CacheTally::default();
    let mut by_kind: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    harness::sequential(&mut out, seconds, 1, |i, spans| {
        SHAPES.iter().all(|&(shape, kind, build)| {
            let t = Instant::now();
            let (w, _) = spans.time(i, build, || scale::workflow(shape, TASKS));
            let cache = Arc::new(PlanCache::new());
            let pdc = Pdc::new(cfg.clone())
                .with_cache(cache.clone())
                .with_probe_sharing(true);
            let outcome = run(spans, i, &cfg, &pdc, &cache, &w);
            if spans.is_on() {
                tally.add(&Default::default(), &cache.stats());
            } else {
                by_kind.entry(kind).or_default().push(ms_since(t));
            }
            outcome.is_ok_and(|o| same_as_before(&mut seen, kind, o))
        })
    });
    out.lat_ms_by_kind = by_kind;
    tally.record(&mut out.layers);
    out
}
