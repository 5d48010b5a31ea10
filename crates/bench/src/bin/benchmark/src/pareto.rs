//! `pareto-sweep`: one fusion × memory-tier plan search at budget 1000
//! with a fresh cache per sweep — the plan-search path, and the place its
//! wasted work (candidates that coalesce after planning) shows.

use crate::harness::{self, cache_sections, same_as_before, CacheTally, Run, PAPER, POOL_THREADS};
use mashup_core::{MashupConfig, PlanCache};
use mashup_serve::pareto_sweep;
use std::collections::BTreeMap;
use std::sync::Arc;

const BUDGET: usize = 1000;
const NODES: [usize; 3] = [4, 8, 16];
const COMBOS: usize = PAPER.len() * NODES.len();

/// The sweep's counters, summed per name.
const COUNTERS: [&str; 7] = [
    "pareto.generated",
    "pareto.deduped",
    "pareto.pruned",
    "pareto.evaluated",
    "pareto.coalesced",
    "pareto.executed",
    "pareto.full_replans",
];

pub fn workload(seed: u64, seconds: f64, trace: bool) -> Run {
    let mut out = Run::new(trace, POOL_THREADS);
    let (workflows, checks) = out.setup(|| {
        let checks = harness::check_makespans(&Arc::new(PlanCache::new()));
        (PAPER.map(|build| build()), checks)
    });
    out.tally_checks(checks);

    let mut seen = BTreeMap::new();
    let mut sums = [0usize; COUNTERS.len()];
    let mut tally = CacheTally::default();
    harness::sequential(&mut out, seconds, COMBOS, |i, spans| {
        let c = harness::pick(seed, "pareto-sweep", COMBOS, i);
        let cfg = MashupConfig::aws(NODES[c / 3]);
        let (sweep, id) = spans.time(i, "pareto.sweep", || {
            pareto_sweep(&cfg, &workflows[c % 3], BUDGET)
        });
        if spans.is_on() {
            let s = &sweep.stats;
            let counts = [
                s.generated,
                s.deduped,
                s.pruned,
                s.evaluated,
                s.coalesced,
                s.executed,
                s.full_replans,
            ];
            sums.iter_mut().zip(counts).for_each(|(sum, n)| *sum += n);
            cache_sections(spans, id, false, &Default::default(), &s.cache);
            tally.add(&Default::default(), &s.cache);
        }
        same_as_before(&mut seen, c, sweep.front)
    });
    let sweeps = out.traced_ms.len().max(1) as f64;
    for (name, sum) in COUNTERS.iter().zip(sums) {
        out.layers.insert(name, sum as f64 / sweeps);
    }
    // Of the candidates the PDC planned, the share that ran end to end.
    let [.., evaluated, _, executed, _] = sums;
    out.layers.insert(
        "pareto.useful_ratio",
        executed as f64 / evaluated.max(1) as f64,
    );
    tally.record(&mut out.layers);
    out
}
