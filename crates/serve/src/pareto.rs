//! The parallel Pareto sweep driver.
//!
//! Drives the candidate space of [`mashup_core::pareto`] through the PDC
//! on the shared worker pool ([`par_map`](crate::par_map)) and a shared
//! [`PlanCache`], in three stages:
//!
//! 1. **Enumerate + prune** — candidates arrive in radius waves
//!    ([`enumerate`]); each wave is fingerprint-deduplicated and
//!    branch-and-bound pruned against the running estimate front
//!    ([`optimistic_bounds`] / [`bound_dominated`]) before dispatch.
//! 2. **Evaluate** — survivors are planned in parallel via [`Pdc::replan`]
//!    from the base report: phases untouched by a candidate's fusions
//!    reuse base decisions, and every per-task, per-tier probe lands in
//!    the shared cache, so repeated sweeps run almost entirely warm.
//! 3. **Execute** — the estimate-front survivors run end to end
//!    ([`execute`] with the candidate's sizing) and the final front is the
//!    dominance filter over their *measured* (makespan, expense) points.
//!
//! The base workflow arrives checked, sizing-only candidates share it, and
//! each fused workflow is checked once when it is materialized, before the
//! PDC profiles it.
//!
//! Pruning consults only completed waves and `par_map` merges in input
//! order, so the outcome is bit-identical at any `--jobs` count.

use mashup_core::pareto::{
    bound_dominated, enumerate, estimate_plan, materialize, optimistic_bounds, pareto_mask,
    Candidate, Materialized, SearchSpace,
};
use mashup_core::{
    execute, AnalysisError, CacheStats, CheckedWorkflow, Fingerprinter, MashupConfig, Pdc,
    PdcReport, PlanCache, Platform, ReplanStats, Tracer,
};
use mashup_dag::Workflow;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::sync::Arc;

/// One executed point of the final front.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrontPoint {
    /// Candidate summary, e.g. `"fuse[A→B] size[C:8GB]"` (`"base"` for the
    /// unmodified engine).
    pub label: String,
    /// Measured end-to-end makespan, seconds.
    pub makespan_secs: f64,
    /// Measured total expense, dollars.
    pub expense_dollars: f64,
    /// Model-side estimate the sweep ranked this candidate by.
    pub est_makespan_secs: f64,
    /// Model-side expense estimate.
    pub est_expense_dollars: f64,
    /// Fusion rewrites applied.
    pub fused_pairs: usize,
    /// Tasks moved off the base memory tier.
    pub resized_tasks: usize,
}

/// Sweep bookkeeping (the CLI's stderr stats line and the bench's JSON).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SweepStats {
    /// Candidates the enumerator produced within budget.
    pub generated: usize,
    /// Dropped before dispatch: materialized to an already-seen
    /// configuration.
    pub deduped: usize,
    /// Dropped before dispatch: optimistic bound dominated by the front,
    /// or a fused workflow the checks refuse.
    pub pruned: usize,
    /// Dropped after planning: the PDC mapped the candidate to an execution
    /// already scheduled (same placement, same tiers on serverless tasks —
    /// e.g. resizing a task the plan keeps on the VM cluster).
    pub coalesced: usize,
    /// Candidates actually planned through the PDC.
    pub evaluated: usize,
    /// Estimate-front survivors executed end to end.
    pub executed: usize,
    /// Evaluations that fell back to a full decide.
    pub full_replans: usize,
    /// Decisions carried over verbatim across all evaluations.
    pub reused_decisions: usize,
    /// Tasks re-decided across all evaluations.
    pub replanned_tasks: usize,
    /// Shared plan-cache counters at sweep end.
    pub cache: CacheStats,
}

/// A finished sweep: the measured Pareto front (ascending makespan) plus
/// stats.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepOutcome {
    /// Non-dominated executed points.
    pub front: Vec<FrontPoint>,
    /// Search statistics.
    pub stats: SweepStats,
}

struct Evaluated {
    cand: Candidate,
    mat: Materialized,
    report: PdcReport,
    rstats: ReplanStats,
    est: (f64, f64),
}

/// What an evaluated candidate's execution actually depends on: the fused
/// structure, each task's platform, and — only for serverless tasks — the
/// memory tier.
fn exec_fingerprint(e: &Evaluated) -> u128 {
    let mut f = Fingerprinter::new("pareto-exec-v1");
    let w = &e.mat.workflow;
    f.write_str(&w.name);
    f.write_usize(w.task_count());
    for r in w.task_refs() {
        let flat = w.arena().flat(r).expect("in range");
        let serverless = e.report.plan.platform(r) == Ok(Platform::Serverless);
        f.write_str(&w.task(r).name);
        f.write_bool(serverless);
        if serverless {
            f.write_f64(e.mat.sizing.tier(flat));
        }
    }
    f.digest()
}

/// [`CheckedWorkflow::borrowed`], then [`pareto_sweep_with`] on a fresh
/// cache, for callers that hold a bare workflow. Panics with the analyzer's
/// message when it refuses the inputs.
pub fn pareto_sweep(cfg: &MashupConfig, workflow: &Workflow, budget: usize) -> SweepOutcome {
    CheckedWorkflow::borrowed(workflow)
        .and_then(|w| pareto_sweep_with(cfg, &w, budget, Arc::new(PlanCache::new())))
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Searches `workflow`'s fusion × sizing space under `cfg`, evaluating at
/// most `budget` candidates (must be ≥ 1: the first candidate is always
/// the unmodified engine, so the front is never empty), reusing `cache`
/// across stages — and across repeated sweeps, which then run warm.
/// Refuses a config the analyzer rejects before any profiling runs.
pub fn pareto_sweep_with(
    cfg: &MashupConfig,
    workflow: &CheckedWorkflow,
    budget: usize,
    cache: Arc<PlanCache>,
) -> Result<SweepOutcome, AnalysisError> {
    assert!(budget >= 1, "a sweep needs at least the base candidate");
    let space = SearchSpace::new(cfg, workflow);
    let base_pdc = Pdc::new(cfg.clone()).with_cache(cache.clone());
    let base_report = base_pdc.plan(workflow)?;

    let mut stats = SweepStats::default();
    let mut waves: Vec<Vec<Candidate>> = Vec::new();
    for c in enumerate(&space, budget) {
        stats.generated += 1;
        let r = c.radius();
        while waves.len() <= r {
            waves.push(Vec::new());
        }
        waves[r].push(c);
    }

    let mut seen: BTreeSet<u128> = BTreeSet::new();
    let mut evaluated: Vec<Evaluated> = Vec::new();
    for wave in waves {
        // The pruning front is frozen at wave start: estimates from this
        // wave never affect its own pruning, keeping the sweep independent
        // of evaluation order within a wave.
        let front: Vec<(f64, f64)> = evaluated.iter().map(|e| e.est).collect();
        let batch: Vec<(Candidate, Materialized)> = wave
            .into_iter()
            .filter_map(|c| {
                let Ok(m) = materialize(&space, cfg, &c) else {
                    stats.pruned += 1;
                    return None;
                };
                if !seen.insert(m.fingerprint) {
                    stats.deduped += 1;
                    return None;
                }
                let lb = optimistic_bounds(cfg, &m.workflow, &m.sizing);
                if bound_dominated(&front, lb) {
                    stats.pruned += 1;
                    return None;
                }
                Some((c, m))
            })
            .collect();
        let results = crate::par_map(batch, |(cand, mat)| {
            let pdc = Pdc::new(cfg.clone())
                .with_cache(cache.clone())
                .with_sizing(mat.sizing.clone());
            let (report, rstats) = pdc.replan(workflow, &base_report, &mat.workflow);
            let est = estimate_plan(cfg, &mat.workflow, &mat.sizing, &report);
            Evaluated {
                cand,
                mat,
                report,
                rstats,
                est,
            }
        });
        for e in results {
            stats.evaluated += 1;
            stats.full_replans += e.rstats.full_replan as usize;
            stats.reused_decisions += e.rstats.reused_decisions;
            stats.replanned_tasks += e.rstats.replanned_tasks;
            evaluated.push(e);
        }
    }

    // Collapse candidates the PDC mapped to the same effective execution
    // (platform per task + tier where it matters); radius order keeps the
    // simplest representative.
    let mut seen_exec: BTreeSet<u128> = BTreeSet::new();
    let evaluated: Vec<Evaluated> = evaluated
        .into_iter()
        .filter(|e| {
            if seen_exec.insert(exec_fingerprint(e)) {
                true
            } else {
                stats.coalesced += 1;
                false
            }
        })
        .collect();

    // Execute the estimate-front survivors; everything dominated on the
    // model side never touches the simulator.
    let est_points: Vec<(f64, f64)> = evaluated.iter().map(|e| e.est).collect();
    let est_mask = pareto_mask(&est_points);
    let survivors: Vec<&Evaluated> = evaluated
        .iter()
        .zip(&est_mask)
        .filter(|(_, &keep)| keep)
        .map(|(e, _)| e)
        .collect();
    let executed: Vec<FrontPoint> = crate::par_map(survivors, |e| {
        let report = execute(
            cfg,
            &e.mat.workflow,
            &e.report.plan,
            Some(&e.mat.sizing),
            "pareto",
            &Tracer::off(),
        )
        .expect("planned candidates pass the sized plan checks");
        FrontPoint {
            label: e.cand.describe(&space),
            makespan_secs: report.makespan_secs,
            expense_dollars: report.expense.total(),
            est_makespan_secs: e.est.0,
            est_expense_dollars: e.est.1,
            fused_pairs: e.cand.fusion.len(),
            resized_tasks: e.cand.tier_devs.len(),
        }
    });
    stats.executed = executed.len();

    let actual: Vec<(f64, f64)> = executed
        .iter()
        .map(|p| (p.makespan_secs, p.expense_dollars))
        .collect();
    let keep = pareto_mask(&actual);
    let mut front: Vec<FrontPoint> = executed
        .into_iter()
        .zip(&keep)
        .filter(|(_, &k)| k)
        .map(|(p, _)| p)
        .collect();
    front.sort_by(|a, b| {
        a.makespan_secs
            .partial_cmp(&b.makespan_secs)
            .expect("finite makespans")
            .then(
                a.expense_dollars
                    .partial_cmp(&b.expense_dollars)
                    .expect("finite expenses"),
            )
            .then_with(|| a.label.cmp(&b.label))
    });
    stats.cache = cache.stats();
    Ok(SweepOutcome { front, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::set_jobs;
    use mashup_workflows::paper_workflows;
    use std::sync::Mutex;

    /// Serializes tests that set the global worker count.
    static JOBS_LOCK: Mutex<()> = Mutex::new(());

    struct JobsGuard;
    impl Drop for JobsGuard {
        fn drop(&mut self) {
            set_jobs(0);
        }
    }

    fn small_cfg() -> MashupConfig {
        MashupConfig::aws(4)
    }

    #[test]
    fn sweep_front_contains_the_base_engine_or_dominates_it() {
        let w = &paper_workflows()[1]; // SRAsearch: smallest of the three
        let out = pareto_sweep(&small_cfg(), w, 40);
        assert!(!out.front.is_empty());
        assert_eq!(out.stats.generated, 40);
        assert!(out.stats.evaluated <= 40);
        // Every front point is non-dominated within the front.
        for a in &out.front {
            for b in &out.front {
                let dominates = a.makespan_secs <= b.makespan_secs
                    && a.expense_dollars <= b.expense_dollars
                    && (a.makespan_secs < b.makespan_secs || a.expense_dollars < b.expense_dollars);
                assert!(!dominates, "{} dominates {}", a.label, b.label);
            }
        }
        // The base engine's point is matched or beaten on both axes.
        let base = pareto_sweep(&small_cfg(), w, 1);
        assert_eq!(base.front.len(), 1);
        assert_eq!(base.front[0].label, "base");
        let (bt, be) = (base.front[0].makespan_secs, base.front[0].expense_dollars);
        assert!(out
            .front
            .iter()
            .any(|p| p.makespan_secs <= bt && p.expense_dollars <= be));
    }

    #[test]
    fn sweep_is_bit_identical_across_worker_counts() {
        let _lock = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let _guard = JobsGuard;
        let w = &paper_workflows()[1];
        let mut outcomes = Vec::new();
        for jobs in [1, 4, 16] {
            set_jobs(jobs);
            outcomes.push(pareto_sweep(&small_cfg(), w, 30));
        }
        assert_eq!(outcomes[0].front, outcomes[1].front);
        assert_eq!(outcomes[1].front, outcomes[2].front);
        // Search-shape stats are thread-count independent too (cache
        // counters differ only if a probe raced, which dedupe prevents).
        assert_eq!(outcomes[0].stats.generated, outcomes[2].stats.generated);
        assert_eq!(outcomes[0].stats.pruned, outcomes[2].stats.pruned);
        assert_eq!(outcomes[0].stats.evaluated, outcomes[2].stats.evaluated);
        assert_eq!(outcomes[0].stats.executed, outcomes[2].stats.executed);
    }

    #[test]
    fn shared_cache_keeps_insertions_bounded_and_reruns_warm() {
        let w = &CheckedWorkflow::new(paper_workflows().swap_remove(1)).expect("clean workflow");
        let cache = Arc::new(PlanCache::new());
        let sweep = || pareto_sweep_with(&small_cfg(), w, 25, cache.clone()).expect("clean config");
        let cold = sweep();
        let after_cold = cache.stats();
        // Dedupe before dispatch: the probe section can hold at most one
        // entry per (task, tier) pair ever dispatched, never more than the
        // evaluated candidate count times the task count.
        let unique_dispatched = cold.stats.evaluated;
        assert!(unique_dispatched > 0);
        assert!(
            after_cold.probes.entries <= (unique_dispatched * w.task_count()) as u64,
            "probe insertions {} exceed dispatched work {}",
            after_cold.probes.entries,
            unique_dispatched * w.task_count()
        );
        // A second identical sweep is answered from the cache: no new
        // entries anywhere, plenty of fresh hits.
        let warm = sweep();
        let after_warm = cache.stats();
        assert_eq!(after_cold.probes.entries, after_warm.probes.entries);
        assert_eq!(after_cold.vm_profile.entries, after_warm.vm_profile.entries);
        assert!(after_warm.hits() > after_cold.hits());
        assert_eq!(cold.front, warm.front);
    }
}
