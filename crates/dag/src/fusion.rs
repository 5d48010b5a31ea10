//! Costless-style function fusion rewrites.
//!
//! Two adjacent serverless tasks connected by a plain pipeline edge can be
//! merged into one function: the producer's output stays in function memory
//! instead of taking a round-trip through remote storage, and the consumer's
//! invocation (cold/warm start, scheduling) disappears. This module finds
//! the pairs where that rewrite is *semantics-preserving* and applies it,
//! producing a new [`Workflow`] whose fused profiles compose from the
//! originals (compute sums, the intermediate transfer vanishes, memory is
//! the max of the two stages).
//!
//! A pair `(producer, consumer)` is fusable iff
//!
//! * the consumer's **only** dependency is on the producer,
//! * that edge is [`DependencyPattern::OneToOne`] (equal component counts,
//!   component `i` feeds component `i` — the fused component is just the two
//!   bodies run back-to-back), and
//! * the consumer is the producer's **only** consumer (nobody else reads the
//!   intermediate dataset, so eliding it is unobservable).
//!
//! [`fusable_pairs`] enumerates candidates deterministically (phase-major
//! producer order); [`fuse`] applies any pairwise-disjoint subset at once,
//! dropping phases the rewrite empties and remapping every [`TaskRef`] in
//! the survivors. Chains longer than two (`a → b → c`) fuse by iterating:
//! disjointness rejects overlapping pairs within one call, but the fused
//! task is itself a candidate on the next [`fusable_pairs`] pass.

use crate::pattern::DependencyPattern;
use crate::profile::TaskProfile;
use crate::workflow::{Phase, Task, TaskRef, Workflow};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// One fusable producer→consumer pair (see the module docs for the
/// eligibility rule).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FusionCandidate {
    /// The upstream task whose output would stay in function memory.
    pub producer: TaskRef,
    /// The downstream task merged into the producer's function.
    pub consumer: TaskRef,
}

impl FusionCandidate {
    /// Bytes of inter-task transfer the fusion eliminates: per component,
    /// the producer's write plus the consumer's read of the intermediate
    /// dataset, summed over components.
    pub fn eliminated_bytes(&self, w: &Workflow) -> f64 {
        let p = w.task(self.producer);
        let c = w.task(self.consumer);
        (p.profile.output_bytes + c.profile.input_bytes) * p.components as f64
    }
}

impl fmt::Display for FusionCandidate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}→{}", self.producer, self.consumer)
    }
}

/// Errors produced by [`fuse`].
#[derive(Debug, Clone, PartialEq)]
pub enum FusionError {
    /// A requested pair does not satisfy the eligibility rule.
    NotFusable {
        /// The offending pair.
        pair: FusionCandidate,
        /// Human-readable reason.
        reason: String,
    },
    /// A task appears in more than one requested pair.
    Overlap(TaskRef),
}

impl fmt::Display for FusionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FusionError::NotFusable { pair, reason } => {
                write!(f, "pair {pair} is not fusable: {reason}")
            }
            FusionError::Overlap(r) => {
                write!(f, "task {r} appears in more than one fusion pair")
            }
        }
    }
}

impl std::error::Error for FusionError {}

/// Whether `pair` satisfies the fusion eligibility rule in `w`.
fn check_fusable(w: &Workflow, pair: FusionCandidate) -> Result<(), FusionError> {
    let not = |reason: String| FusionError::NotFusable { pair, reason };
    let in_range = |r: TaskRef| r.phase < w.phases.len() && r.task < w.phases[r.phase].tasks.len();
    if !in_range(pair.producer) || !in_range(pair.consumer) {
        return Err(not("reference out of range".into()));
    }
    let c = w.task(pair.consumer);
    match c.deps.as_slice() {
        [d] if d.producer == pair.producer => {
            if d.pattern != DependencyPattern::OneToOne {
                return Err(not(format!(
                    "edge pattern is {:?}, fusion requires OneToOne",
                    d.pattern
                )));
            }
        }
        [d] => {
            return Err(not(format!(
                "consumer's only dependency is on {}, not the producer",
                d.producer
            )))
        }
        deps => {
            return Err(not(format!(
                "consumer has {} dependencies, fusion requires exactly one",
                deps.len()
            )))
        }
    }
    let consumers = w.consumers(pair.producer);
    if consumers.len() != 1 {
        return Err(not(format!(
            "producer has {} consumers, fusion requires exactly one",
            consumers.len()
        )));
    }
    debug_assert_eq!(consumers[0].0, pair.consumer);
    Ok(())
}

/// Enumerates every fusable pair in `w`, in phase-major producer order.
/// Pairs may share a task (a chain `a → b → c` yields both `(a,b)` and
/// `(b,c)`); [`fuse`] requires the applied subset to be disjoint.
pub fn fusable_pairs(w: &Workflow) -> Vec<FusionCandidate> {
    let mut out = Vec::new();
    for producer in w.task_refs() {
        let consumers = w.consumers(producer);
        if let [(consumer, _)] = consumers {
            // A consumer with several dependencies is never fusable; skip
            // it before `check_fusable` formats the reason (a fan-in sink
            // would otherwise cost one `format!` per producer).
            if w.task(*consumer).deps.len() != 1 {
                continue;
            }
            let pair = FusionCandidate {
                producer,
                consumer: *consumer,
            };
            if check_fusable(w, pair).is_ok() {
                out.push(pair);
            }
        }
    }
    out
}

/// Composes the fused task's profile from the producer's (`a`) and the
/// consumer's (`c`). Compute sums on both platforms; the intermediate
/// dataset (`a`'s output, `c`'s input) stays in function memory so the
/// fused I/O is `a`'s input and `c`'s output; memory is the max of the two
/// stages (they run back-to-back, not concurrently).
fn compose_profiles(a: &TaskProfile, c: &TaskProfile) -> TaskProfile {
    let compute_secs_vm = a.compute_secs_vm + c.compute_secs_vm;
    // Pick the slowdown that makes serverless compute compose exactly:
    // fused_vm * slowdown == a_serverless + c_serverless. When both stages
    // share a slowdown the division would only add rounding noise, so reuse
    // the common value verbatim.
    let serverless_slowdown = if a.serverless_slowdown == c.serverless_slowdown {
        a.serverless_slowdown
    } else if compute_secs_vm > 0.0 {
        (a.compute_secs_serverless() + c.compute_secs_serverless()) / compute_secs_vm
    } else {
        1.0
    };
    TaskProfile {
        compute_secs_vm,
        serverless_slowdown,
        input_bytes: a.input_bytes,
        output_bytes: c.output_bytes,
        memory_gb: a.memory_gb.max(c.memory_gb),
        vm_local_contention: a.vm_local_contention.max(c.vm_local_contention),
        runtime_jitter: a.runtime_jitter.max(c.runtime_jitter),
        recurring: a.recurring && c.recurring,
        checkpoint_bytes: a.checkpoint_bytes + c.checkpoint_bytes,
        // The fused body is a new deployable, so it joins no existing
        // warm-pool family.
        code_family: None,
    }
}

/// Applies a pairwise-disjoint set of fusions to `w`, returning the
/// rewritten workflow. Each fused task sits in its producer's phase slot
/// under the name `"{producer}+{consumer}"`; consumers of the absorbed task
/// are rewired to it; phases emptied by the rewrite are dropped and every
/// surviving reference remapped. The result is a new workflow, so a caller
/// checks it (`CheckedWorkflow`) before planning or running it: a fused
/// name may collide with an existing task.
pub fn fuse(w: &Workflow, pairs: &[FusionCandidate]) -> Result<Workflow, FusionError> {
    let mut used: BTreeSet<TaskRef> = BTreeSet::new();
    for &pair in pairs {
        check_fusable(w, pair)?;
        if !used.insert(pair.producer) {
            return Err(FusionError::Overlap(pair.producer));
        }
        if !used.insert(pair.consumer) {
            return Err(FusionError::Overlap(pair.consumer));
        }
    }
    // producer → absorbed consumer, and the reverse for the skip pass.
    let absorbs: BTreeMap<TaskRef, TaskRef> =
        pairs.iter().map(|p| (p.producer, p.consumer)).collect();
    let absorbed: BTreeSet<TaskRef> = pairs.iter().map(|p| p.consumer).collect();

    // Pass 1: layout. Surviving tasks keep phase-major order; absorbed
    // tasks vanish from their phase; emptied phases are dropped. `remap`
    // sends every old reference (absorbed ones included — they land on
    // their fused task) to its new home.
    let mut remap: BTreeMap<TaskRef, TaskRef> = BTreeMap::new();
    let mut layout: Vec<Vec<TaskRef>> = Vec::new();
    for (pi, phase) in w.phases.iter().enumerate() {
        let survivors: Vec<TaskRef> = (0..phase.tasks.len())
            .map(|ti| TaskRef::new(pi, ti))
            .filter(|r| !absorbed.contains(r))
            .collect();
        if survivors.is_empty() {
            continue;
        }
        let new_phase = layout.len();
        for (new_ti, &old) in survivors.iter().enumerate() {
            remap.insert(old, TaskRef::new(new_phase, new_ti));
        }
        layout.push(survivors);
    }
    // Absorbed consumers resolve to their producer's fused slot (the
    // producer is in an earlier phase, so its entry already exists).
    for &pair in pairs {
        let target = remap[&pair.producer];
        remap.insert(pair.consumer, target);
    }

    // Pass 2: materialize tasks with remapped dependencies.
    let phases: Vec<Phase> = layout
        .iter()
        .map(|survivors| Phase {
            tasks: survivors
                .iter()
                .map(|&old| {
                    let t = w.task(old);
                    let (name, profile) = match absorbs.get(&old) {
                        Some(&consumer) => {
                            let c = w.task(consumer);
                            (
                                format!("{}+{}", t.name, c.name),
                                compose_profiles(&t.profile, &c.profile),
                            )
                        }
                        None => (t.name.clone(), t.profile.clone()),
                    };
                    Task {
                        name,
                        components: t.components,
                        profile,
                        deps: t
                            .deps
                            .iter()
                            .map(|d| crate::workflow::TaskDep {
                                producer: remap[&d.producer],
                                pattern: d.pattern,
                            })
                            .collect(),
                    }
                })
                .collect(),
        })
        .collect();

    Ok(Workflow::new(w.name.clone(), phases, w.initial_input_bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::WorkflowBuilder;
    use crate::workflow::Task;

    /// A → B → C pipeline with a side fan-in D reading C.
    fn chain() -> Workflow {
        let mut b = WorkflowBuilder::new("chain");
        b.initial_input_bytes(1e6);
        b.begin_phase();
        let a = b.add_task(Task::new(
            "A",
            4,
            TaskProfile::trivial().compute(2.0).io(100.0, 200.0),
        ));
        b.begin_phase();
        let c = b.add_task(Task::new(
            "B",
            4,
            TaskProfile::trivial()
                .compute(3.0)
                .io(200.0, 50.0)
                .memory(1.5),
        ));
        b.depend(c, a, DependencyPattern::OneToOne);
        b.begin_phase();
        let d = b.add_task(Task::new("C", 1, TaskProfile::trivial()));
        b.depend(d, c, DependencyPattern::AllToAll);
        b.build()
    }

    #[test]
    fn finds_the_pipeline_pair_only() {
        let w = chain();
        let pairs = fusable_pairs(&w);
        // A→B is OneToOne single-consumer/single-dep; B→C is AllToAll.
        assert_eq!(
            pairs,
            vec![FusionCandidate {
                producer: TaskRef::new(0, 0),
                consumer: TaskRef::new(1, 0),
            }]
        );
        assert_eq!(pairs[0].eliminated_bytes(&w), (200.0 + 200.0) * 4.0);
    }

    #[test]
    fn fuse_merges_profiles_and_rewires_consumers() {
        let w = chain();
        let pairs = fusable_pairs(&w);
        let fused = fuse(&w, &pairs).expect("fuses");
        // Phase 1 emptied and dropped: 3 phases → 2.
        assert_eq!(fused.phases.len(), 2);
        let (r, t) = fused.task_by_name("A+B").expect("fused task");
        assert_eq!(r, TaskRef::new(0, 0));
        assert_eq!(t.components, 4);
        assert_eq!(t.profile.compute_secs_vm, 5.0);
        assert_eq!(t.profile.input_bytes, 100.0);
        assert_eq!(t.profile.output_bytes, 50.0);
        assert_eq!(t.profile.memory_gb, 1.5);
        // C's dependency follows the fused task into phase 0.
        let (_, c) = fused.task_by_name("C").expect("kept");
        assert_eq!(c.deps.len(), 1);
        assert_eq!(c.deps[0].producer, TaskRef::new(0, 0));
        assert_eq!(c.deps[0].pattern, DependencyPattern::AllToAll);
    }

    #[test]
    fn serverless_compute_composes_exactly() {
        let a = TaskProfile::trivial().compute(2.0).slowdown(1.75);
        let c = TaskProfile::trivial().compute(3.0).slowdown(1.75);
        let f = compose_profiles(&a, &c);
        assert_eq!(f.serverless_slowdown, 1.75);
        assert_eq!(
            f.compute_secs_serverless(),
            a.compute_secs_serverless() + c.compute_secs_serverless()
        );
        // Differing slowdowns: the weighted average keeps total serverless
        // compute within rounding of the sum.
        let c2 = TaskProfile::trivial().compute(3.0).slowdown(2.5);
        let f2 = compose_profiles(&a, &c2);
        let sum = a.compute_secs_serverless() + c2.compute_secs_serverless();
        assert!((f2.compute_secs_serverless() - sum).abs() < 1e-12 * sum);
    }

    #[test]
    fn rejects_overlapping_pairs() {
        // A → B → C all OneToOne: both (A,B) and (B,C) are candidates, but
        // applying both at once double-books B.
        let mut b = WorkflowBuilder::new("w");
        b.begin_phase();
        let a = b.add_task(Task::new("A", 2, TaskProfile::trivial()));
        b.begin_phase();
        let m = b.add_task(Task::new("B", 2, TaskProfile::trivial()));
        b.depend(m, a, DependencyPattern::OneToOne);
        b.begin_phase();
        let z = b.add_task(Task::new("C", 2, TaskProfile::trivial()));
        b.depend(z, m, DependencyPattern::OneToOne);
        let w = b.build();
        let pairs = fusable_pairs(&w);
        assert_eq!(pairs.len(), 2);
        assert_eq!(fuse(&w, &pairs).unwrap_err(), FusionError::Overlap(m));
        // Either pair alone applies, and the fused task re-qualifies.
        let once = fuse(&w, &pairs[..1]).expect("single pair fuses");
        let again = fusable_pairs(&once);
        assert_eq!(again.len(), 1);
        let twice = fuse(&once, &again).expect("chain collapses");
        assert_eq!(twice.task_count(), 1);
        assert_eq!(
            twice
                .task_by_name("A+B+C")
                .unwrap()
                .1
                .profile
                .compute_secs_vm,
            3.0
        );
    }

    #[test]
    fn rejects_non_fusable_pairs() {
        let w = chain();
        let bad = FusionCandidate {
            producer: TaskRef::new(1, 0),
            consumer: TaskRef::new(2, 0),
        };
        let err = fuse(&w, &[bad]).unwrap_err();
        assert!(matches!(err, FusionError::NotFusable { .. }), "{err}");
        assert!(err.to_string().contains("OneToOne"), "{err}");
    }

    #[test]
    fn disjoint_pairs_apply_together() {
        // Two independent pipelines in shared phases.
        let mut b = WorkflowBuilder::new("w");
        b.begin_phase();
        let a1 = b.add_task(Task::new("A1", 2, TaskProfile::trivial().compute(1.0)));
        let a2 = b.add_task(Task::new("A2", 3, TaskProfile::trivial().compute(2.0)));
        b.begin_phase();
        let b1 = b.add_task(Task::new("B1", 2, TaskProfile::trivial().compute(4.0)));
        let b2 = b.add_task(Task::new("B2", 3, TaskProfile::trivial().compute(8.0)));
        b.depend(b1, a1, DependencyPattern::OneToOne);
        b.depend(b2, a2, DependencyPattern::OneToOne);
        let w = b.build();
        let pairs = fusable_pairs(&w);
        assert_eq!(pairs.len(), 2);
        let fused = fuse(&w, &pairs).expect("fuses");
        assert_eq!(fused.phases.len(), 1);
        assert_eq!(fused.task_count(), 2);
        assert_eq!(
            fused
                .task_by_name("A1+B1")
                .unwrap()
                .1
                .profile
                .compute_secs_vm,
            5.0
        );
        assert_eq!(
            fused
                .task_by_name("A2+B2")
                .unwrap()
                .1
                .profile
                .compute_secs_vm,
            10.0
        );
        // Total work is preserved.
        assert_eq!(fused.total_vm_compute_secs(), w.total_vm_compute_secs());
    }

    #[test]
    fn fused_workflow_round_trips_through_json() {
        let w = chain();
        let fused = fuse(&w, &fusable_pairs(&w)).expect("fuses");
        let back = crate::from_json(&crate::to_json(&fused)).expect("valid json");
        assert_eq!(fused, back);
    }
}
