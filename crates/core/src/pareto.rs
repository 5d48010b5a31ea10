//! Pareto plan search: the candidate space over fusion rewrites and
//! per-task memory tiers, and the pure search machinery (enumeration,
//! deduplication, branch-and-bound pruning, dominance filtering).
//!
//! A *candidate* is a pair of deviations from the paper's baseline engine:
//! a disjoint subset of Costless-style fusion rewrites ([`fusable_pairs`])
//! and a sparse set of per-task memory-tier overrides (ICPS-style
//! right-sizing over [`MEMORY_TIERS_GB`](crate::MEMORY_TIERS_GB)). The
//! baseline candidate — no fusions, every task at the provider's base
//! tier — reproduces the unmodified engine bit-for-bit.
//!
//! This module is deliberately simulation-free: it enumerates, fingerprints,
//! bounds, and filters. Driving candidates through the PDC in parallel and
//! executing front survivors lives in `mashup-serve`'s sweep driver, so the
//! search core stays cheap to test exhaustively.

use crate::analysis::CheckedWorkflow;
use crate::config::{tier_key, MashupConfig, Sizing};
use crate::fingerprint::Fingerprinter;
use crate::pdc::PdcReport;
use mashup_analyze::AnalysisError;
use mashup_dag::{fusable_pairs, fuse, FusionCandidate, Platform, TaskRef, Workflow};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The search space of one workflow: its fusable pairs and the memory-tier
/// menu (the provider's base tier is always on the menu).
#[derive(Debug, Clone)]
pub struct SearchSpace<'w> {
    /// The base (unfused) workflow, borrowed by every sizing-only
    /// candidate.
    pub base: &'w CheckedWorkflow<'w>,
    /// Fusable producer/consumer pairs of `base`, phase-major producer
    /// order (the enumeration and fingerprint order).
    pub pairs: Vec<FusionCandidate>,
    /// Tier menu in GiB, ascending.
    pub tiers: Vec<f64>,
    /// Index of the provider's base tier within `tiers`.
    pub base_tier: usize,
}

impl<'w> SearchSpace<'w> {
    /// Builds the space for `workflow` under `cfg`'s provider.
    pub fn new(cfg: &MashupConfig, workflow: &'w CheckedWorkflow) -> Self {
        let base_gb = cfg.provider.faas.memory_gb;
        let mut tiers: Vec<f64> = crate::config::MEMORY_TIERS_GB.to_vec();
        if !tiers.iter().any(|&t| tier_key(t) == tier_key(base_gb)) {
            tiers.push(base_gb);
            tiers.sort_by(|a, b| a.partial_cmp(b).expect("tiers are finite"));
        }
        let base_tier = tiers
            .iter()
            .position(|&t| tier_key(t) == tier_key(base_gb))
            .expect("base tier is on the menu");
        SearchSpace {
            base: workflow,
            pairs: fusable_pairs(workflow),
            tiers,
            base_tier,
        }
    }
}

/// One point of the search space: fusion-pair indices (into
/// [`SearchSpace::pairs`], ascending, mutually disjoint) plus sparse tier
/// overrides `(base flat task id, tier menu index)`, ascending by task.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Candidate {
    /// Applied fusion rewrites.
    pub fusion: Vec<usize>,
    /// Tasks moved off the base tier.
    pub tier_devs: Vec<(usize, usize)>,
}

impl Candidate {
    /// The baseline engine: nothing fused, everything at the base tier.
    pub fn base() -> Self {
        Candidate {
            fusion: Vec::new(),
            tier_devs: Vec::new(),
        }
    }

    /// Edit distance from the baseline (the enumeration wave this
    /// candidate belongs to).
    pub fn radius(&self) -> usize {
        self.fusion.len() + self.tier_devs.len()
    }

    /// Human-readable summary, e.g. `"fuse[A→B] size[C:8.0GB]"`.
    pub fn describe(&self, space: &SearchSpace) -> String {
        let mut parts = Vec::new();
        for &i in &self.fusion {
            let p = space.pairs[i];
            parts.push(format!(
                "fuse[{}→{}]",
                space.base.task(p.producer).name,
                space.base.task(p.consumer).name
            ));
        }
        for &(flat, ti) in &self.tier_devs {
            let name = &space.base.task(space.base.arena().task_ref(flat)).name;
            parts.push(format!("size[{}:{}GB]", name, space.tiers[ti]));
        }
        if parts.is_empty() {
            "base".into()
        } else {
            parts.join(" ")
        }
    }
}

/// A candidate made concrete: the checked (possibly fused) workflow and its
/// per-task sizing, plus a fingerprint of the *materialized* configuration
/// (two candidates that alias to the same fused workflow and sizing — e.g.
/// a tier override on either side of a fused pair — share a fingerprint).
#[derive(Debug, Clone)]
pub struct Materialized<'w> {
    /// The base workflow, which a sizing-only candidate plans.
    base: &'w CheckedWorkflow<'w>,
    /// The fused workflow, checked in its own right; `None` for a
    /// sizing-only candidate. Boxed because a sweep holds up to its budget
    /// of candidates at once, and a checked workflow is ~250 bytes inline.
    fused: Option<Box<CheckedWorkflow<'static>>>,
    /// Memory tier per flat task of [`Materialized::workflow`].
    pub sizing: Sizing,
    /// Dedupe key over the fused structure and tier assignment.
    pub fingerprint: u128,
}

impl<'w> Materialized<'w> {
    /// The workflow to plan and execute: the fused one, else the base.
    pub fn workflow(&self) -> &CheckedWorkflow<'w> {
        self.fused.as_deref().unwrap_or(self.base)
    }
}

/// Builds the concrete workflow + sizing for `cand`. Candidates produced by
/// [`enumerate`] always fuse (their fusion subsets are disjoint by
/// construction), but a fused workflow is new, so it is checked and may be
/// refused; a merged task takes the largest tier assigned to any of its
/// constituents.
pub fn materialize<'w>(
    space: &SearchSpace<'w>,
    cfg: &MashupConfig,
    cand: &Candidate,
) -> Result<Materialized<'w>, AnalysisError> {
    let pairs: Vec<FusionCandidate> = cand.fusion.iter().map(|&i| space.pairs[i]).collect();
    let fused = if pairs.is_empty() {
        None
    } else {
        let fused = fuse(space.base, &pairs).expect("enumerated fusion subsets are disjoint");
        Some(Box::new(CheckedWorkflow::new(fused)?))
    };
    let workflow = fused.as_deref().unwrap_or(space.base);
    let mut sizing = Sizing::base(cfg, workflow);
    let mut merged: BTreeMap<usize, f64> = BTreeMap::new();
    for &(flat, ti) in &cand.tier_devs {
        let fused_flat = fused_flat_of(space, cand, flat, workflow);
        let gb = space.tiers[ti];
        merged
            .entry(fused_flat)
            .and_modify(|t| *t = t.max(gb))
            .or_insert(gb);
    }
    for (fused_flat, gb) in &merged {
        sizing.tiers_gb[*fused_flat] = *gb;
    }
    let mut f = Fingerprinter::new("pareto-candidate-v1");
    f.write_str(&workflow.name);
    f.write_usize(workflow.task_count());
    for flat in 0..workflow.task_count() {
        f.write_str(&workflow.task(workflow.arena().task_ref(flat)).name);
        f.write_u64(tier_key(sizing.tier(flat)) as u64);
    }
    Ok(Materialized {
        base: space.base,
        fused,
        sizing,
        fingerprint: f.digest(),
    })
}

/// Where a base task landed in the fused workflow.
fn fused_flat_of(
    space: &SearchSpace,
    cand: &Candidate,
    base_flat: usize,
    fused: &Workflow,
) -> usize {
    let r = space.base.arena().task_ref(base_flat);
    let name = cand
        .fusion
        .iter()
        .map(|&i| space.pairs[i])
        .find(|p| p.producer == r || p.consumer == r)
        .map(|p| {
            format!(
                "{}+{}",
                space.base.task(p.producer).name,
                space.base.task(p.consumer).name
            )
        })
        .unwrap_or_else(|| space.base.task(r).name.clone());
    fused
        .flat_by_name(&name)
        .expect("fused workflow contains every surviving task")
}

/// Radius-ordered candidate enumeration, capped at `budget` candidates.
///
/// Wave `r` holds every candidate at edit distance `r` from the baseline;
/// within a wave, fusion-heavier candidates come first (structural rewrites
/// shrink the workflow and are the interesting deviations), then pair
/// subsets lexicographically, then override positions and tier choices
/// lexicographically. The order is a pure function of the space, so sweeps
/// are reproducible across processes and thread counts.
pub fn enumerate(space: &SearchSpace, budget: usize) -> Vec<Candidate> {
    let mut out: Vec<Candidate> = Vec::new();
    if budget == 0 {
        return out;
    }
    let n_tasks = space.base.task_count();
    let n_pairs = space.pairs.len();
    let non_base: Vec<usize> = (0..space.tiers.len())
        .filter(|&i| i != space.base_tier)
        .collect();
    let max_radius = n_pairs + n_tasks;
    for radius in 0..=max_radius {
        for k in (0..=radius.min(n_pairs)).rev() {
            let devs = radius - k;
            if devs > n_tasks {
                continue;
            }
            let stopped = !combos(n_pairs, k, &mut |pair_set| {
                if !pairs_disjoint(space, pair_set) {
                    return true;
                }
                combos(n_tasks, devs, &mut |task_set| {
                    assignments(task_set, &non_base, &mut |tier_devs| {
                        out.push(Candidate {
                            fusion: pair_set.to_vec(),
                            tier_devs: tier_devs.to_vec(),
                        });
                        out.len() < budget
                    })
                })
            });
            if stopped {
                return out;
            }
        }
    }
    out
}

/// Whether a fusion subset touches each task at most once (overlapping
/// pairs cannot be applied together — `fuse` would refuse them).
fn pairs_disjoint(space: &SearchSpace, subset: &[usize]) -> bool {
    let mut seen: Vec<TaskRef> = Vec::with_capacity(subset.len() * 2);
    for &i in subset {
        let p = space.pairs[i];
        if seen.contains(&p.producer) || seen.contains(&p.consumer) {
            return false;
        }
        seen.push(p.producer);
        seen.push(p.consumer);
    }
    true
}

/// Lexicographic k-combinations of `0..n`; `f` returns `false` to stop.
/// Returns `false` when stopped early.
fn combos(n: usize, k: usize, f: &mut dyn FnMut(&[usize]) -> bool) -> bool {
    fn rec(
        n: usize,
        k: usize,
        start: usize,
        cur: &mut Vec<usize>,
        f: &mut dyn FnMut(&[usize]) -> bool,
    ) -> bool {
        if cur.len() == k {
            return f(cur);
        }
        for i in start..n {
            if n - i < k - cur.len() {
                break;
            }
            cur.push(i);
            let go = rec(n, k, i + 1, cur, f);
            cur.pop();
            if !go {
                return false;
            }
        }
        true
    }
    rec(n, k, 0, &mut Vec::with_capacity(k), f)
}

/// Visitor over `(position, tier-index)` assignment slices; returns `false`
/// to stop enumeration.
type AssignmentVisitor<'a> = &'a mut dyn FnMut(&[(usize, usize)]) -> bool;

/// Lexicographic tier assignments over fixed positions; `f` returns `false`
/// to stop. Returns `false` when stopped early.
fn assignments(positions: &[usize], choices: &[usize], f: AssignmentVisitor) -> bool {
    fn rec(
        positions: &[usize],
        choices: &[usize],
        cur: &mut Vec<(usize, usize)>,
        f: AssignmentVisitor,
    ) -> bool {
        if cur.len() == positions.len() {
            return f(cur);
        }
        let pos = positions[cur.len()];
        for &c in choices {
            cur.push((pos, c));
            let go = rec(positions, choices, cur, f);
            cur.pop();
            if !go {
                return false;
            }
        }
        true
    }
    if positions.is_empty() {
        // Zero overrides: exactly one (empty) assignment.
        return f(&[]);
    }
    rec(
        positions,
        choices,
        &mut Vec::with_capacity(positions.len()),
        f,
    )
}

/// Optimistic `(time, expense)` bounds for a materialized candidate —
/// perfect parallelism, no I/O, no cold starts, no contention, perfect
/// VM packing. Both components are true lower bounds of the simulated
/// outcome, so a candidate whose bound is already dominated by an
/// evaluated point can be pruned without running the PDC (its real point
/// is at least as bad on both axes).
pub fn optimistic_bounds(cfg: &MashupConfig, w: &Workflow, sizing: &Sizing) -> (f64, f64) {
    let inst = &cfg.cluster.instance;
    let slots = (cfg.cluster.nodes * inst.cores).max(1) as f64;
    let mut time = 0.0;
    let mut expense = 0.0;
    for (pi, phase) in w.phases.iter().enumerate() {
        let mut phase_t: f64 = 0.0;
        for (ti, t) in phase.tasks.iter().enumerate() {
            let flat = w
                .arena()
                .flat(mashup_dag::TaskRef::new(pi, ti))
                .expect("in range");
            let tier_cfg = cfg.faas_tier(sizing.tier(flat));
            let comp = t.components as f64;
            let sl_t = t.profile.compute_secs_serverless() / tier_cfg.core_speed;
            let vm_t = t.profile.compute_secs_vm / inst.core_speed * (comp / slots).ceil().max(1.0);
            phase_t = phase_t.max(sl_t.min(vm_t));
            let sl_cost = comp * sl_t / 3600.0 * tier_cfg.price_per_hour;
            let vm_cost = comp * (t.profile.compute_secs_vm / inst.core_speed) / 3600.0
                * (inst.price_per_hour / inst.cores.max(1) as f64);
            expense += sl_cost.min(vm_cost);
        }
        time += phase_t;
    }
    (time, expense)
}

/// Model-side `(time, expense)` estimate of a planned candidate, built
/// from the PDC's calibrated per-task times — no execution. Phase time is
/// the slowest co-resident task; the cluster bills end to end when any
/// task runs on it (mirroring the executor's billing), and serverless
/// expense prices each task's probe-measured busy seconds at its tier.
pub fn estimate_plan(
    cfg: &MashupConfig,
    w: &Workflow,
    sizing: &Sizing,
    report: &PdcReport,
) -> (f64, f64) {
    let mut time = 0.0;
    let mut faas = 0.0;
    let mut uses_vm = false;
    let mut by_phase: BTreeMap<usize, f64> = BTreeMap::new();
    for d in &report.decisions {
        let t = match d.platform {
            Platform::Serverless => d.t_serverless_est_secs,
            Platform::VmCluster => d.t_vm_secs,
        };
        let slot = by_phase.entry(d.task.phase).or_insert(0.0);
        *slot = slot.max(t);
        match d.platform {
            Platform::Serverless => {
                let flat = w.arena().flat(d.task).expect("decision refs the workflow");
                let tier_cfg = cfg.faas_tier(sizing.tier(flat));
                faas += d.components as f64 * d.probe_busy_secs / 3600.0 * tier_cfg.price_per_hour;
            }
            Platform::VmCluster => uses_vm = true,
        }
    }
    for t in by_phase.values() {
        time += t;
    }
    let vm = if uses_vm {
        cfg.cluster.nodes as f64 * cfg.cluster.instance.price_per_hour * time / 3600.0
    } else {
        0.0
    };
    (time, faas + vm)
}

/// Keep-mask of the non-dominated points (`p` dominates `q` when it is no
/// worse on both axes and strictly better on one). Duplicate points all
/// survive — callers dedupe by fingerprint earlier.
pub fn pareto_mask(points: &[(f64, f64)]) -> Vec<bool> {
    points
        .iter()
        .map(|&(t, e)| {
            !points
                .iter()
                .any(|&(t2, e2)| t2 <= t && e2 <= e && (t2 < t || e2 < e))
        })
        .collect()
}

/// Whether an optimistic bound is already dominated by a known point —
/// the branch-and-bound pruning test.
pub fn bound_dominated(front: &[(f64, f64)], lb: (f64, f64)) -> bool {
    front
        .iter()
        .any(|&(t, e)| t <= lb.0 && e <= lb.1 && (t < lb.0 || e < lb.1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::try_execute;
    use mashup_dag::PlacementPlan;
    use mashup_dag::{DependencyPattern, Task, TaskProfile, WorkflowBuilder};

    /// Three-task pipeline with one side consumer: pairs (A→B) and (B→C)
    /// exist but overlap; (A→B) is blocked by D's extra edge onto A? No —
    /// keep it simple: A→B→C pipeline gives pairs (A,B) and (B,C).
    fn pipeline() -> Workflow {
        let mut b = WorkflowBuilder::new("pipe");
        b.initial_input_bytes(1e8);
        b.begin_phase();
        let a = b.add_task(Task::new(
            "A",
            8,
            TaskProfile::trivial().compute(4.0).io(1e7, 1e7),
        ));
        b.begin_phase();
        let c = b.add_task(Task::new(
            "B",
            8,
            TaskProfile::trivial().compute(3.0).io(1e7, 1e7),
        ));
        b.depend(c, a, DependencyPattern::OneToOne);
        b.begin_phase();
        let d = b.add_task(Task::new(
            "C",
            8,
            TaskProfile::trivial().compute(2.0).io(1e7, 1e7),
        ));
        b.depend(d, c, DependencyPattern::OneToOne);
        b.build()
    }

    fn cfg() -> MashupConfig {
        MashupConfig::aws(4)
    }

    fn checked() -> CheckedWorkflow<'static> {
        CheckedWorkflow::new(pipeline()).expect("clean workflow")
    }

    #[test]
    fn space_has_the_pipeline_pairs_and_the_base_tier() {
        let w = checked();
        let space = SearchSpace::new(&cfg(), &w);
        assert_eq!(space.pairs.len(), 2);
        assert_eq!(space.tiers[space.base_tier], 3.0);
    }

    #[test]
    fn enumeration_is_radius_ordered_and_budgeted() {
        let w = checked();
        let space = SearchSpace::new(&cfg(), &w);
        let all = enumerate(&space, usize::MAX);
        assert_eq!(all[0], Candidate::base());
        // Radii never decrease.
        for w in all.windows(2) {
            assert!(w[0].radius() <= w[1].radius());
        }
        // No overlapping fusion subsets: (A→B)+(B→C) both touch B.
        assert!(all.iter().all(|c| c.fusion != vec![0, 1]));
        // All candidates are unique.
        let mut seen = std::collections::BTreeSet::new();
        for c in &all {
            assert!(seen.insert(format!("{c:?}")), "duplicate {c:?}");
        }
        // A budget is a hard cap, and a prefix of the full order.
        let some = enumerate(&space, 10);
        assert_eq!(some.len(), 10);
        assert_eq!(some[..], all[..10]);
        assert!(enumerate(&space, 0).is_empty());
    }

    #[test]
    fn materialize_applies_fusion_and_tier_overrides() {
        let w = checked();
        let space = SearchSpace::new(&cfg(), &w);
        let flat_c = space.base.flat_by_name("C").expect("exists");
        let big = space.tiers.len() - 1;
        let cand = Candidate {
            fusion: vec![0],
            tier_devs: vec![(flat_c, big)],
        };
        let m = materialize(&space, &cfg(), &cand).expect("fusion checks clean");
        assert_eq!(m.workflow().task_count(), 2);
        assert!(m.workflow().flat_by_name("A+B").is_some());
        let fused_c = m.workflow().flat_by_name("C").expect("survives");
        assert_eq!(m.sizing.tier(fused_c), 8.0);
        assert!(!m.sizing.is_base(&cfg()));
    }

    #[test]
    fn aliasing_candidates_share_a_fingerprint() {
        let w = checked();
        let space = SearchSpace::new(&cfg(), &w);
        let a = space.base.flat_by_name("A").expect("exists");
        let b = space.base.flat_by_name("B").expect("exists");
        let big = space.tiers.len() - 1;
        // With (A→B) fused, sizing A or B lands on the same merged task.
        let via_a = materialize(
            &space,
            &cfg(),
            &Candidate {
                fusion: vec![0],
                tier_devs: vec![(a, big)],
            },
        )
        .expect("clean candidate");
        let via_b = materialize(
            &space,
            &cfg(),
            &Candidate {
                fusion: vec![0],
                tier_devs: vec![(b, big)],
            },
        )
        .expect("clean candidate");
        assert_eq!(via_a.fingerprint, via_b.fingerprint);
        // Unfused, they are different configurations.
        let solo_a = materialize(
            &space,
            &cfg(),
            &Candidate {
                fusion: vec![],
                tier_devs: vec![(a, big)],
            },
        )
        .expect("clean candidate");
        let solo_b = materialize(
            &space,
            &cfg(),
            &Candidate {
                fusion: vec![],
                tier_devs: vec![(b, big)],
            },
        )
        .expect("clean candidate");
        assert_ne!(solo_a.fingerprint, solo_b.fingerprint);
        // Sizing-only candidates share the base workflow; fused ones do not.
        assert!(std::ptr::eq(solo_a.workflow(), space.base));
        assert!(!std::ptr::eq(via_a.workflow(), space.base));
    }

    #[test]
    fn optimistic_bounds_underestimate_a_real_run() {
        let w = pipeline();
        let cfg = cfg();
        let sizing = Sizing::base(&cfg, &w);
        let (t_lb, e_lb) = optimistic_bounds(&cfg, &w, &sizing);
        assert!(t_lb > 0.0 && e_lb > 0.0);
        for platform in [Platform::VmCluster, Platform::Serverless] {
            let plan = PlacementPlan::uniform(&w, platform);
            let report = try_execute(&cfg, &w, &plan, "x").expect("clean inputs");
            assert!(t_lb <= report.makespan_secs, "{platform:?} time");
            assert!(e_lb <= report.expense.total(), "{platform:?} expense");
        }
    }

    #[test]
    fn dominance_filter_keeps_the_staircase() {
        let pts = [(1.0, 9.0), (2.0, 8.0), (3.0, 8.5), (4.0, 1.0), (2.0, 8.0)];
        let mask = pareto_mask(&pts);
        assert_eq!(mask, vec![true, true, false, true, true]);
        let front: Vec<(f64, f64)> = pts
            .iter()
            .zip(&mask)
            .filter(|(_, &m)| m)
            .map(|(&p, _)| p)
            .collect();
        assert!(bound_dominated(&front, (3.0, 8.5)));
        assert!(!bound_dominated(&front, (0.5, 0.5)));
        // A point on the front is not dominated by it.
        assert!(!bound_dominated(&front, (1.0, 9.0)));
    }
}
