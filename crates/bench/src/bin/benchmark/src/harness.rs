//! What every workload shares: repeated set-up, the seeded op order, the
//! timed loop, and the set-up correctness check.

// lint: allow-file(wall-clock)
use crate::reference::Reference;
use crate::spans::Spans;
use crate::stats::cpu_secs;
use mashup_core::{CacheStats, Mashup, MashupConfig, PlanCache};
use mashup_dag::Workflow;
use mashup_workflows::{epigenomics, genome1000, srasearch};
use rand::Rng;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Workers of the shared pool (`set_jobs`) that the Pareto sweep and the
/// figure functions run on. Fixed, not taken from the host.
pub const POOL_THREADS: usize = 2;

/// Set-up runs this many times per run; `setup_s` is the median, so work
/// moved into set-up shows without one slow repetition deciding it.
pub const SETUP_REPS: usize = 5;

/// The paper workflows, in the paper's order.
pub const PAPER: [fn() -> Workflow; 3] = [
    genome1000::workflow,
    srasearch::workflow,
    epigenomics::workflow,
];

/// Mashup makespans of the paper workflows on 8 AWS-like nodes, bit for
/// bit as the seed implementation produced them.
const MAKESPANS: [f64; 3] = [923.1301865040341, 418.0425812362353, 5083.493038722836];

/// What one workload run measured.
#[derive(Default)]
pub struct Run {
    /// Seconds taken by each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Latency of each untraced op, ms.
    pub lat_ms: Vec<f64>,
    /// The same latencies split by kind of op, where a workload mixes
    /// kinds whose costs differ.
    pub lat_ms_by_kind: BTreeMap<&'static str, Vec<f64>>,
    /// Latency of each traced op, ms (traced runs only).
    pub traced_ms: Vec<f64>,
    /// Wall time of the timed loop, s.
    pub elapsed_s: f64,
    /// CPU time of the timed loop, s.
    pub cpu_s: f64,
    /// Peak RSS of processes other than this one (the figure passes), MB.
    pub child_rss_mb: f64,
    /// Ops and output checks attempted, and how many failed.
    pub attempted: usize,
    pub failed: usize,
    /// Layer values that are not span times (counts, ratios, serve
    /// percentiles), by per-layer metric name.
    pub layers: BTreeMap<&'static str, f64>,
    pub spans: Option<Spans>,
    /// Reference work timed between ops (see `reference`).
    pub reference: Reference,
}

impl Run {
    /// An empty run of a workload that keeps `threads` cores busy,
    /// recording spans when `trace` is set.
    pub fn new(trace: bool, threads: usize) -> Self {
        Run {
            spans: trace.then(|| Spans::on(Instant::now())),
            reference: Reference::on_threads(threads),
            ..Run::default()
        }
    }

    /// Runs `make` [`SETUP_REPS`] times, recording each time, and keeps
    /// the last state. A replaced state is dropped after its successor's
    /// timing ends.
    pub fn setup<S>(&mut self, mut make: impl FnMut() -> S) -> S {
        let mut state = None;
        for _ in 0..SETUP_REPS {
            self.reference.tick();
            let t = Instant::now();
            let s = make();
            self.setup_s.push(t.elapsed().as_secs_f64());
            state = Some(s);
        }
        state.expect("at least one set-up")
    }

    /// Counts the set-up checks.
    pub fn tally_checks(&mut self, checks: Vec<bool>) {
        for ok in checks {
            self.tally(ok);
        }
    }

    /// Counts one attempted op or check.
    pub fn tally(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += usize::from(!ok);
    }
}

/// Runs the three paper workflows through Mashup on 8 nodes and returns,
/// per workflow, whether the makespan equals the pinned value. Warms
/// `cache` for that configuration.
pub fn check_makespans(cache: &Arc<PlanCache>) -> Vec<bool> {
    PAPER
        .iter()
        .zip(MAKESPANS)
        .map(|(build, want)| {
            Mashup::new(MashupConfig::aws(8))
                .with_cache(cache.clone())
                .try_run(&build())
                .is_ok_and(|o| o.report.makespan_secs.to_bits() == want.to_bits())
        })
        .collect()
}

/// Combination index of op `i`. Ops come in blocks of `combos`; each
/// block is a seeded permutation holding every combination once, so any
/// whole number of blocks has the same mix whatever the seed.
pub fn pick(seed: u64, label: &str, combos: usize, i: usize) -> usize {
    let mut rng = mashup_sim::stream_rng(seed, &format!("{label}/{}", i / combos));
    let mut order: Vec<usize> = (0..combos).collect();
    for j in (1..combos).rev() {
        order.swap(j, rng.gen_range(0..=j));
    }
    order[i % combos]
}

/// True when `value` equals the first value seen for `key` (recording it
/// if it is the first).
pub fn same_as_before<K: Ord, V: PartialEq>(seen: &mut BTreeMap<K, V>, key: K, value: V) -> bool {
    match seen.get(&key) {
        Some(first) => *first == value,
        None => {
            seen.insert(key, value);
            true
        }
    }
}

/// The timed loop of a sequential workload: whole blocks of `block` ops
/// until `seconds` have passed. In a traced run each op runs untraced,
/// then traced with the same index, so the two times compare like for
/// like. `op` returns whether its output checks passed.
pub fn sequential(
    run: &mut Run,
    seconds: f64,
    block: usize,
    mut op: impl FnMut(usize, &mut Spans) -> bool,
) {
    let mut off = Spans::off();
    let mut spans = run.spans.take();
    let cpu = cpu_secs();
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed().as_secs_f64() < seconds {
        for _ in 0..block {
            let t = Instant::now();
            let ok = op(i, &mut off);
            run.lat_ms.push(ms_since(t));
            run.tally(ok);
            run.reference.tick();
            if let Some(spans) = spans.as_mut() {
                let t = Instant::now();
                let ok = op(i, spans);
                run.traced_ms.push(ms_since(t));
                run.tally(ok);
                run.reference.tick();
            }
            i += 1;
        }
    }
    run.elapsed_s = start.elapsed().as_secs_f64();
    run.cpu_s = cpu_secs() - cpu;
    run.spans = spans;
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Records the plan cache's per-section compute time between `before`
/// and `after` as spans starting with span `at`. On a serial caller they
/// are its children, so its self time is its own work. Where the pool's
/// workers fill the cache side by side (`nested` false), the summed time
/// may exceed the caller's span, so the sections stand beside it.
pub fn cache_sections(
    spans: &mut Spans,
    at: usize,
    nested: bool,
    before: &CacheStats,
    after: &CacheStats,
) {
    let sections = [
        ("pdc.calibration", after.calibration, before.calibration),
        ("pdc.vm_profile", after.vm_profile, before.vm_profile),
        ("pdc.probe", after.probes, before.probes),
        (
            "pdc.phase_profile",
            after.phase_profiles,
            before.phase_profiles,
        ),
    ];
    for (name, a, b) in sections {
        spans.after(at, nested, name, a.compute_secs - b.compute_secs);
    }
}

/// Plan-cache counters summed over ops.
#[derive(Default)]
pub struct CacheTally {
    hits: u64,
    misses: u64,
    vm_profile_misses: u64,
    probe_misses: u64,
    entries: u64,
    ops: u64,
}

impl CacheTally {
    /// Adds one op's counter movement from `before` to `after`; entries
    /// count at the op's end.
    pub fn add(&mut self, before: &CacheStats, after: &CacheStats) {
        self.hits += after.hits() - before.hits();
        self.misses += after.misses() - before.misses();
        self.vm_profile_misses += after.vm_profile.misses - before.vm_profile.misses;
        self.probe_misses += after.probes.misses - before.probes.misses;
        self.entries += after.entries();
        self.ops += 1;
    }

    /// Per-op means and the hit percentage, as per-layer values.
    pub fn record(&self, layers: &mut BTreeMap<&'static str, f64>) {
        let per_op = |v: u64| v as f64 / self.ops.max(1) as f64;
        layers.insert("pdc.vm_profile_misses", per_op(self.vm_profile_misses));
        layers.insert("pdc.probe_misses", per_op(self.probe_misses));
        layers.insert("cache.entries", per_op(self.entries));
        let lookups = self.hits + self.misses;
        layers.insert(
            "cache.hit_pct",
            if lookups == 0 {
                0.0
            } else {
                self.hits as f64 * 100.0 / lookups as f64
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sequence(seed: u64) -> Vec<usize> {
        (0..72).map(|i| pick(seed, "t", 12, i)).collect()
    }

    #[test]
    fn the_op_sequence_depends_only_on_the_seed() {
        assert_eq!(sequence(3), sequence(3));
        assert_ne!(sequence(3), sequence(4));
        for block in sequence(5).chunks(12) {
            let mut b = block.to_vec();
            b.sort_unstable();
            assert_eq!(
                b,
                (0..12).collect::<Vec<_>>(),
                "each block holds every combination"
            );
        }
    }
}
