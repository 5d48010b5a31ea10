//! Synthetic workflow generation.
//!
//! Generates random — but always valid — workflows exhibiting the paper's
//! three connection dynamics (fan-out, fan-in, strong connection) with
//! controllable size and resource mix. Used by property tests, robustness
//! tests, and the ablation benches to exercise the engine beyond the three
//! paper workflows.

use mashup_dag::{DependencyPattern, Task, TaskProfile, Workflow, WorkflowBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Knobs for the generator.
#[derive(Debug, Clone)]
pub struct SyntheticConfig {
    /// Number of phases (≥ 1).
    pub phases: usize,
    /// Tasks per phase range (inclusive).
    pub tasks_per_phase: (usize, usize),
    /// Component-count choices tasks draw from.
    pub component_choices: Vec<usize>,
    /// Per-component compute-seconds range.
    pub compute_secs: (f64, f64),
    /// Per-component I/O bytes range (each direction).
    pub io_bytes: (f64, f64),
    /// Serverless slowdown range (values < 1 favour serverless).
    pub slowdown: (f64, f64),
    /// Probability a task is marked recurring.
    pub recurring_prob: f64,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        SyntheticConfig {
            phases: 4,
            tasks_per_phase: (1, 3),
            component_choices: vec![1, 2, 8, 32, 128, 512],
            compute_secs: (1.0, 120.0),
            io_bytes: (1.0e6, 5.0e8),
            slowdown: (0.7, 2.5),
            recurring_prob: 0.1,
        }
    }
}

/// Generates a random valid workflow from `cfg` and `seed`.
///
/// Every non-initial task depends on at least one task of the previous
/// phase; the dependency pattern is chosen to be compatible with the two
/// component counts (AllToAll always is; OneToOne / fan-in / fan-out are
/// used when the counts allow).
pub fn generate(cfg: &SyntheticConfig, seed: u64) -> Workflow {
    assert!(cfg.phases >= 1);
    assert!(cfg.tasks_per_phase.0 >= 1 && cfg.tasks_per_phase.0 <= cfg.tasks_per_phase.1);
    assert!(!cfg.component_choices.is_empty());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = WorkflowBuilder::new(format!("synthetic-{seed}"));
    b.initial_input_bytes(rng.gen_range(1.0e9..1.0e12));

    let mut prev: Vec<(mashup_dag::TaskRef, usize)> = Vec::new();
    let mut id = 0usize;
    for pi in 0..cfg.phases {
        b.begin_phase();
        let n_tasks = rng.gen_range(cfg.tasks_per_phase.0..=cfg.tasks_per_phase.1);
        let mut current = Vec::with_capacity(n_tasks);
        for _ in 0..n_tasks {
            let comps = cfg.component_choices[rng.gen_range(0..cfg.component_choices.len())];
            let profile = TaskProfile::trivial()
                .compute(rng.gen_range(cfg.compute_secs.0..=cfg.compute_secs.1))
                .slowdown(rng.gen_range(cfg.slowdown.0..=cfg.slowdown.1))
                .io(
                    rng.gen_range(cfg.io_bytes.0..=cfg.io_bytes.1),
                    rng.gen_range(cfg.io_bytes.0..=cfg.io_bytes.1),
                )
                .memory(rng.gen_range(0.5..2.9))
                .contention(rng.gen_range(0.0..0.15))
                .jitter(rng.gen_range(0.0..0.08))
                .recurring(rng.gen::<f64>() < cfg.recurring_prob)
                .checkpoint(rng.gen_range(1.0e6..1.0e9));
            let t = b.add_task(Task::new(format!("task-{id}"), comps, profile));
            id += 1;
            if pi > 0 {
                let (producer, pc) = prev[rng.gen_range(0..prev.len())];
                let pattern = pick_pattern(&mut rng, pc, comps);
                b.depend(t, producer, pattern);
            }
            current.push((t, comps));
        }
        prev = current;
    }
    b.build()
}

fn pick_pattern(rng: &mut StdRng, producer: usize, consumer: usize) -> DependencyPattern {
    let mut options = vec![DependencyPattern::AllToAll];
    if producer == consumer {
        options.push(DependencyPattern::OneToOne);
    }
    if consumer.is_multiple_of(producer) {
        options.push(DependencyPattern::FanOutBlocks);
    }
    if producer.is_multiple_of(consumer) {
        options.push(DependencyPattern::FanInBlocks);
    }
    options[rng.gen_range(0..options.len())]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_workflows_have_at_least_one_task_per_phase() {
        for seed in 0..50 {
            let w = generate(&SyntheticConfig::default(), seed);
            assert!(w.task_count() >= 4);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&SyntheticConfig::default(), 42);
        let b = generate(&SyntheticConfig::default(), 42);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&SyntheticConfig::default(), 1);
        let b = generate(&SyntheticConfig::default(), 2);
        assert_ne!(a, b);
    }

    #[test]
    fn respects_phase_count() {
        let cfg = SyntheticConfig {
            phases: 7,
            ..Default::default()
        };
        let w = generate(&cfg, 9);
        assert_eq!(w.phases.len(), 7);
    }

    #[test]
    fn single_phase_workflows_have_no_deps() {
        let cfg = SyntheticConfig {
            phases: 1,
            ..Default::default()
        };
        let w = generate(&cfg, 3);
        for r in w.task_refs() {
            assert!(w.task(r).deps.is_empty());
        }
    }
}
