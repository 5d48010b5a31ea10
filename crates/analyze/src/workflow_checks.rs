//! M1xx: workflow structure and profile checks.
//!
//! These are the only structural checks of a workflow: the DAG crate
//! builds and parses without checking, and `mashup_core::CheckedWorkflow`
//! runs these once per workflow. They collect *every* finding, so a user
//! fixes a broken workflow in one round trip.

use crate::diag::{Code, Diagnostic, Location};
use mashup_dag::{fusable_pairs, Workflow};
use std::collections::BTreeSet;
#[expect(
    clippy::disallowed_types,
    reason = "duplicate-name detection by membership only, never iterated"
)]
use std::collections::HashSet;

fn task_loc(w: &Workflow, phase: usize, task: usize) -> Location {
    Location::Task {
        phase,
        task,
        name: w.phases[phase].tasks[task].name.clone(),
    }
}

/// M109: a phase wider than this must carry batching-friendly structure
/// (shared `code_family` identities) or it gets a scale warning — wide
/// phases of structurally distinct tasks defeat warm pools, bulk event
/// scheduling, and probe sharing.
const SCALE_WIDTH_THRESHOLD: usize = 64;

/// M110: nominal object-store bandwidth (bytes/sec per component) used to
/// price the intermediate transfer a fusion would eliminate. Deliberately
/// a round mid-range figure — the check is a structural smell detector,
/// not a cost model, so it only fires when transfer *dominates* compute.
const FUSION_STORE_BPS: f64 = 5.0e7;

/// M110: only chains of *short* tasks are flagged (serverless compute per
/// component below this). Long tasks amortize their transfers; flagging
/// them would drown the signal the paper's fusion rewrite targets —
/// overhead-bound chains of small functions.
const FUSION_SHORT_TASK_SECS: f64 = 30.0;

/// Runs every M1xx check over `w`, collecting all findings.
pub fn analyze_workflow(w: &Workflow) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if w.phases.is_empty() {
        out.push(Diagnostic::new(
            Code::EmptyStructure,
            Location::Workflow,
            "workflow has no phases",
        ));
        return out;
    }
    #[expect(
        clippy::disallowed_types,
        reason = "duplicate-name detection by membership only, never iterated"
    )]
    let mut names: HashSet<&str> = HashSet::with_capacity(w.task_count());
    for (pi, phase) in w.phases.iter().enumerate() {
        if phase.tasks.is_empty() {
            out.push(Diagnostic::new(
                Code::EmptyStructure,
                Location::Phase { phase: pi },
                "phase has no tasks",
            ));
        }
        for (ti, task) in phase.tasks.iter().enumerate() {
            // Built per finding: most tasks have none.
            let loc = || task_loc(w, pi, ti);
            if task.components == 0 {
                out.push(Diagnostic::new(
                    Code::ZeroComponents,
                    loc(),
                    "task declares zero components",
                ));
            }
            if !names.insert(task.name.as_str()) {
                out.push(Diagnostic::new(
                    Code::DuplicateTaskName,
                    loc(),
                    format!("task name '{}' is already used", task.name),
                ));
            }
            if let Err(detail) = task.profile.validate() {
                out.push(Diagnostic::new(Code::BadProfile, loc(), detail));
            }
            if pi > 0 && task.deps.is_empty() {
                out.push(
                    Diagnostic::new(
                        Code::OrphanTask,
                        loc(),
                        "task is beyond phase 0 but depends on nothing",
                    )
                    .with_help("add a dependency on an earlier phase or move the task to phase 0"),
                );
            }
            let mut live_producers = 0usize;
            let mut producing_output = 0usize;
            for dep in &task.deps {
                let exists = dep.producer.phase < w.phases.len()
                    && dep.producer.task < w.phases[dep.producer.phase].tasks.len();
                if !exists {
                    out.push(Diagnostic::new(
                        Code::DanglingReference,
                        loc(),
                        format!("dependency references nonexistent task {}", dep.producer),
                    ));
                    continue;
                }
                live_producers += 1;
                let producer = w.task(dep.producer);
                if producer.profile.output_bytes > 0.0 {
                    producing_output += 1;
                }
                if dep.producer.phase >= pi {
                    out.push(
                        Diagnostic::new(
                            Code::NotEarlierPhase,
                            loc(),
                            format!(
                                "dependency on {} ('{}') is not in an earlier phase",
                                dep.producer, producer.name
                            ),
                        )
                        .with_help("phase order is the topological schedule; same- or later-phase edges would cycle"),
                    );
                } else if let Err(detail) = dep.pattern.check(producer.components, task.components)
                {
                    out.push(Diagnostic::new(Code::PatternMismatch, loc(), detail));
                }
            }
            // M108: the task reads bytes nobody provides. Advisory — the
            // simulator happily moves zero bytes, but the profile is almost
            // certainly miscalibrated.
            if task.profile.input_bytes > 0.0 {
                if task.deps.is_empty() {
                    if w.initial_input_bytes <= 0.0 {
                        out.push(
                            Diagnostic::new(
                                Code::MissingConsumerData,
                                loc(),
                                format!(
                                    "initial task reads {:.0} bytes/component but the workflow \
                                     declares no initial input dataset",
                                    task.profile.input_bytes
                                ),
                            )
                            .with_help("set initial_input_bytes on the workflow"),
                        );
                    }
                } else if live_producers > 0 && producing_output == 0 {
                    out.push(
                        Diagnostic::new(
                            Code::MissingConsumerData,
                            loc(),
                            format!(
                                "task reads {:.0} bytes/component but every producer declares \
                                 zero output bytes",
                                task.profile.input_bytes
                            ),
                        )
                        .with_help("set output_bytes on the producer profiles"),
                    );
                }
            }
        }
        // M109: wide phases need batching-friendly structure. A task's code
        // identity is its `code_family` when declared, else its name (every
        // nameless-family task is its own identity). Advisory — everything
        // still runs, but at 10^5-wide phases the grouped forms are what
        // keep planning and simulation fast.
        if phase.tasks.len() > SCALE_WIDTH_THRESHOLD {
            fn identity(t: &mashup_dag::Task) -> &str {
                t.profile.code_family.as_deref().unwrap_or(t.name.as_str())
            }
            // Count only as far as the threshold: the full count is needed
            // only for the message of a finding.
            let mut identities: BTreeSet<&str> = BTreeSet::new();
            for t in &phase.tasks {
                identities.insert(identity(t));
                if identities.len() > SCALE_WIDTH_THRESHOLD {
                    break;
                }
            }
            if identities.len() > SCALE_WIDTH_THRESHOLD {
                identities.extend(phase.tasks.iter().map(identity));
                out.push(
                    Diagnostic::new(
                        Code::ScaleStructure,
                        Location::Phase { phase: pi },
                        format!(
                            "phase has {} tasks with {} distinct code identities; warm \
                             pools, bulk scheduling, and probe sharing cannot group them",
                            phase.tasks.len(),
                            identities.len()
                        ),
                    )
                    .with_help(
                        "give same-code tasks a shared profile.code_family so batch-friendly \
                         paths can treat them as one population",
                    ),
                );
            }
        }
    }
    // M110: a fusable pair of short tasks whose eliminated transfer costs
    // more than the pair computes. Advisory — placed serverless as-is the
    // chain still runs, it just spends most of its time in the store.
    // Skipped when any dependency dangles: pair enumeration walks the
    // task arena, which (reasonably) assumes in-range references.
    let refs_ok = out.iter().all(|d| d.code != Code::DanglingReference);
    for pair in if refs_ok {
        fusable_pairs(w)
    } else {
        Vec::new()
    } {
        let p = &w.task(pair.producer).profile;
        let c = &w.task(pair.consumer).profile;
        let compute = p.compute_secs_serverless() + c.compute_secs_serverless();
        let short = p.compute_secs_serverless() < FUSION_SHORT_TASK_SECS
            && c.compute_secs_serverless() < FUSION_SHORT_TASK_SECS;
        let transfer = (p.output_bytes + c.input_bytes) / FUSION_STORE_BPS;
        if short && transfer > compute {
            out.push(
                Diagnostic::new(
                    Code::FusionProfitable,
                    task_loc(w, pair.producer.phase, pair.producer.task),
                    format!(
                        "fusable chain '{}' -> '{}' moves {:.0} bytes/component through \
                         storage (~{:.1} s) but computes for only {:.1} s; placed \
                         serverless it is transfer-bound",
                        w.task(pair.producer).name,
                        w.task(pair.consumer).name,
                        p.output_bytes + c.input_bytes,
                        transfer,
                        compute
                    ),
                )
                .with_help(
                    "fuse the pair into one function (`mashup pareto` searches fusion \
                     rewrites) or keep the chain on the VM cluster",
                ),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mashup_dag::{DependencyPattern, Task, TaskProfile, TaskRef, WorkflowBuilder};

    fn codes(diags: &[Diagnostic]) -> Vec<Code> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn valid_workflow_is_silent() {
        let mut b = WorkflowBuilder::new("ok");
        b.initial_input_bytes(1e9);
        b.begin_phase();
        let a = b.add_task(Task::new("A", 4, TaskProfile::trivial().io(1e6, 1e6)));
        b.begin_phase();
        let c = b.add_task(Task::new("B", 1, TaskProfile::trivial().io(4e6, 0.0)));
        b.depend(c, a, DependencyPattern::AllToAll);
        let w = b.build();
        assert!(analyze_workflow(&w).is_empty());
    }

    #[test]
    fn empty_workflow_and_empty_phase() {
        let w = WorkflowBuilder::new("e").build();
        assert_eq!(codes(&analyze_workflow(&w)), vec![Code::EmptyStructure]);
        let mut b = WorkflowBuilder::new("e2");
        b.begin_phase();
        let w = b.build();
        assert_eq!(codes(&analyze_workflow(&w)), vec![Code::EmptyStructure]);
    }

    #[test]
    fn collects_multiple_findings_in_one_pass() {
        let mut b = WorkflowBuilder::new("bad");
        b.begin_phase();
        b.add_task(Task::new("A", 0, TaskProfile::trivial())); // M104
        b.add_task(Task::new("A", 1, TaskProfile::trivial().compute(-1.0))); // M106 + M105
        b.begin_phase();
        b.add_task(Task::new("C", 1, TaskProfile::trivial())); // M103
        let w = b.build();
        let got = codes(&analyze_workflow(&w));
        assert!(got.contains(&Code::ZeroComponents));
        assert!(got.contains(&Code::DuplicateTaskName));
        assert!(got.contains(&Code::BadProfile));
        assert!(got.contains(&Code::OrphanTask));
        assert_eq!(got.len(), 4);
    }

    #[test]
    fn dependency_findings() {
        let mut b = WorkflowBuilder::new("deps");
        b.begin_phase();
        let a = b.add_task(Task::new("A", 3, TaskProfile::trivial()));
        let x = b.add_task(Task::new("X", 1, TaskProfile::trivial()));
        b.depend(a, x, DependencyPattern::OneToOne); // M101 (same phase)
        b.begin_phase();
        let c = b.add_task(Task::new("C", 2, TaskProfile::trivial()));
        b.depend(c, TaskRef::new(0, 9), DependencyPattern::OneToOne); // M102
        b.depend(c, a, DependencyPattern::OneToOne); // M107 (3 -> 2)
        let w = b.build();
        let got = codes(&analyze_workflow(&w));
        assert!(got.contains(&Code::NotEarlierPhase));
        assert!(got.contains(&Code::DanglingReference));
        assert!(got.contains(&Code::PatternMismatch));
    }

    #[test]
    fn wide_ungrouped_phase_warns_and_code_families_silence_it() {
        let wide = |family: Option<&str>| {
            let mut b = WorkflowBuilder::new("wide");
            b.initial_input_bytes(1e6);
            b.begin_phase();
            for i in 0..(super::SCALE_WIDTH_THRESHOLD + 1) {
                let mut p = TaskProfile::trivial();
                if let Some(f) = family {
                    p = p.family(f);
                }
                b.add_task(Task::new(format!("t{i}"), 1, p));
            }
            b.build()
        };
        // 65 tasks, 65 distinct identities: M109.
        let diags = analyze_workflow(&wide(None));
        assert_eq!(codes(&diags), vec![Code::ScaleStructure]);
        assert_eq!(diags[0].severity, crate::Severity::Warning);
        assert!(diags[0].message.contains("65 tasks"));
        // Same width, one shared code family: silent.
        assert!(analyze_workflow(&wide(Some("stencil"))).is_empty());
    }

    #[test]
    fn fusion_profitable_chain_warns_and_compute_bound_chain_is_silent() {
        let chain = |compute: f64| {
            let mut b = WorkflowBuilder::new("chain");
            b.initial_input_bytes(1e9);
            b.begin_phase();
            let a = b.add_task(Task::new(
                "A",
                4,
                TaskProfile::trivial().compute(compute).io(0.0, 5e8),
            ));
            b.begin_phase();
            let c = b.add_task(Task::new(
                "B",
                4,
                TaskProfile::trivial().compute(compute).io(5e8, 0.0),
            ));
            b.depend(c, a, DependencyPattern::OneToOne);
            b.build()
        };
        // 2 s of compute per stage against ~20 s of transfer: M110.
        let diags = analyze_workflow(&chain(2.0));
        assert_eq!(codes(&diags), vec![Code::FusionProfitable]);
        assert_eq!(diags[0].severity, crate::Severity::Warning);
        assert!(diags[0].message.contains("transfer-bound"));
        // The same bytes under long stages amortize fine: silent.
        assert!(analyze_workflow(&chain(60.0)).is_empty());
    }

    #[test]
    fn missing_consumer_data_is_a_warning() {
        // Initial task reading with no initial dataset.
        let mut b = WorkflowBuilder::new("w1");
        b.begin_phase();
        b.add_task(Task::new("A", 1, TaskProfile::trivial().io(1e6, 1e6)));
        let w = b.build();
        let diags = analyze_workflow(&w);
        assert_eq!(codes(&diags), vec![Code::MissingConsumerData]);
        assert_eq!(diags[0].severity, crate::Severity::Warning);
        // Consumer reading from producers that write nothing.
        let mut b = WorkflowBuilder::new("w2");
        b.initial_input_bytes(1e9);
        b.begin_phase();
        let a = b.add_task(Task::new("A", 2, TaskProfile::trivial()));
        b.begin_phase();
        let c = b.add_task(Task::new("B", 2, TaskProfile::trivial().io(5e6, 0.0)));
        b.depend(c, a, DependencyPattern::OneToOne);
        let w = b.build();
        assert_eq!(
            codes(&analyze_workflow(&w)),
            vec![Code::MissingConsumerData]
        );
    }
}
