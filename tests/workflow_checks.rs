//! The analyzer's M1xx checks, run by `CheckedWorkflow`, are the only
//! structural check of a workflow: the DAG crate builds, parses, derives
//! and fuses without checking. These tests pin both sides of that. The
//! generators and the fusion rewrite emit workflows the checks accept
//! (Pegasus' clustering is checked in `mashup-baselines`), and a broken
//! workflow that parses or derives fine is refused with the code of its
//! fault.

use mashup::analyze::Code;
use mashup::baselines::maximal_fusion;
use mashup::dag::{from_json, from_task_graph, to_json, RawEdge};
use mashup::prelude::*;
use mashup::serve::WorkflowName;
use mashup::workflows::{generate, SyntheticConfig};
use mashup_bench::scale::{self, Shape};
use proptest::prelude::*;

/// Checks `w`, panicking with every finding if the checks refuse it.
fn accept(what: &str, w: Workflow) {
    if let Err(e) = CheckedWorkflow::new(w) {
        panic!("{what} refused: {e}");
    }
}

/// The error codes the checks refuse `w` with.
fn refusal(w: Workflow) -> Vec<Code> {
    let err = CheckedWorkflow::new(w).expect_err("the checks refuse it");
    err.errors().map(|d| d.code).collect()
}

proptest! {
    /// The paper workflows pass the checks at any reasonable input scale.
    #[test]
    fn scaled_paper_workflows_pass_the_checks(scale in 0.1f64..5.0) {
        for w in [
            genome1000::workflow_scaled(scale),
            srasearch::workflow_scaled(scale),
            epigenomics::workflow_scaled(scale),
        ] {
            accept("scaled paper workflow", w);
        }
    }

    /// The synthetic generator's outputs pass the checks, for any seed and
    /// phase count.
    #[test]
    fn generated_workflows_pass_the_checks(seed in any::<u64>(), phases in 1usize..6) {
        let cfg = SyntheticConfig { phases, ..Default::default() };
        accept("generated workflow", generate(&cfg, seed));
    }
}

#[test]
fn every_serve_workflow_passes_the_checks() {
    for name in WorkflowName::ALL {
        for seed in [0, 1, 7, 42] {
            accept(&format!("{name:?} at seed {seed}"), name.build(seed));
        }
    }
}

#[test]
fn both_scale_shapes_pass_the_checks_at_small_sizes() {
    for shape in [Shape::Chain, Shape::FanOut] {
        for n in [1, 2, 3, 10, 100] {
            accept(
                &format!("{} at {n}", shape.name()),
                scale::workflow(shape, n),
            );
        }
    }
}

#[test]
fn maximally_fused_workflows_pass_the_checks() {
    let synthetic = (0..10).map(|seed| generate(&SyntheticConfig::default(), seed));
    for w in mashup::workflows::paper_workflows()
        .into_iter()
        .chain(synthetic)
    {
        accept("maximally fused workflow", maximal_fusion(&w));
    }
}

/// A two-phase `A(4) → B(1)` workflow the checks accept.
fn sample() -> Workflow {
    let mut b = WorkflowBuilder::new("sample");
    b.initial_input_bytes(1e6);
    b.begin_phase();
    let a = b.add_task(Task::new("A", 4, TaskProfile::trivial().compute(2.0)));
    b.begin_phase();
    let c = b.add_task(Task::new("B", 1, TaskProfile::trivial()));
    b.depend(c, a, DependencyPattern::AllToAll);
    b.build()
}

#[test]
fn a_parsed_dangling_reference_is_refused() {
    let mut w = sample();
    accept("sample", w.clone());
    w.phases[1].tasks[0].deps[0].producer = TaskRef::new(5, 5);
    let parsed = from_json(&to_json(&w)).expect("structure is not the parser's to check");
    assert_eq!(refusal(parsed), vec![Code::DanglingReference]);
}

#[test]
fn a_derived_pattern_mismatch_is_refused() {
    let t = |name: &str, comps| Task::new(name, comps, TaskProfile::trivial());
    let derived = from_task_graph(
        "bad",
        vec![t("A", 3), t("B", 2)],
        vec![RawEdge::new("A", "B", DependencyPattern::OneToOne)],
        0.0,
    )
    .expect("the edges resolve and form no cycle");
    assert_eq!(refusal(derived), vec![Code::PatternMismatch]);
}
