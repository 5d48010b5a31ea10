//! Property-based tests over the workflow definitions.

use mashup_workflows::{epigenomics, generate, genome1000, srasearch, SyntheticConfig};
use proptest::prelude::*;

proptest! {
    /// The paper workflows keep their structure under any reasonable input
    /// scale (that they pass the checks is `tests/workflow_checks.rs`'s, at
    /// the repository root, where the analyzer is a dependency).
    #[test]
    fn scaled_paper_workflows_keep_their_structure(scale in 0.1f64..5.0) {
        for w in [
            genome1000::workflow_scaled(scale),
            srasearch::workflow_scaled(scale),
            epigenomics::workflow_scaled(scale),
        ] {
            prop_assert!(w.component_count() == 2506 || w.component_count() == 404
                || w.component_count() == 2007);
            // Scaling never changes structure, only magnitudes.
            prop_assert!(w.total_vm_compute_secs() > 0.0);
        }
    }

    /// Scaling is linear in compute and I/O.
    #[test]
    fn scaling_is_linear(scale in 0.2f64..4.0) {
        let base = srasearch::workflow_scaled(1.0);
        let scaled = srasearch::workflow_scaled(scale);
        for (r_base, r_scaled) in base.task_refs().zip(scaled.task_refs()) {
            let a = &base.task(r_base).profile;
            let b = &scaled.task(r_scaled).profile;
            prop_assert!((b.compute_secs_vm - scale * a.compute_secs_vm).abs() < 1e-9);
            prop_assert!((b.input_bytes - scale * a.input_bytes).abs() < 1e-6);
            prop_assert!((b.output_bytes - scale * a.output_bytes).abs() < 1e-6);
            // Platform characteristics do not scale with input size.
            prop_assert_eq!(b.serverless_slowdown, a.serverless_slowdown);
            prop_assert_eq!(b.memory_gb, a.memory_gb);
        }
    }

    /// The synthetic generator's outputs respect the requested shape, for
    /// any seed.
    #[test]
    fn generator_respects_shape(seed in any::<u64>(), phases in 1usize..6) {
        let cfg = SyntheticConfig { phases, ..Default::default() };
        let w = generate(&cfg, seed);
        prop_assert_eq!(w.phases.len(), phases);
        for r in w.task_refs() {
            let t = w.task(r);
            prop_assert!(cfg.component_choices.contains(&t.components));
            prop_assert!(t.profile.compute_secs_vm >= cfg.compute_secs.0);
            prop_assert!(t.profile.compute_secs_vm <= cfg.compute_secs.1);
        }
    }

    /// Every component of every paper workflow has resolvable dependencies
    /// (pattern expansion stays in range across the whole DAG).
    #[test]
    fn component_dependencies_resolve(which in 0usize..3) {
        let w = match which {
            0 => genome1000::workflow(),
            1 => srasearch::workflow(),
            _ => epigenomics::workflow(),
        };
        for r in w.task_refs() {
            let t = w.task(r);
            for comp in [0, t.components / 2, t.components - 1] {
                for (producer, comps) in w.component_deps(r, comp) {
                    let p = w.task(producer);
                    prop_assert!(!comps.is_empty());
                    for c in comps {
                        prop_assert!(c < p.components);
                    }
                }
            }
        }
    }
}
