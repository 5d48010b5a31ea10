//! Execution reports: makespan, expense, and overhead decomposition.

use mashup_cloud::Expense;
use mashup_dag::{PlacementPlan, Platform};
use serde::{Deserialize, Serialize};

/// Per-task execution record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskReport {
    /// Task name.
    pub name: String,
    /// Where the task ran.
    pub platform: Platform,
    /// Phase index.
    pub phase: usize,
    /// Component count.
    pub components: usize,
    /// Submission instant, seconds into the run.
    pub start_secs: f64,
    /// Completion instant.
    pub end_secs: f64,
    /// Sum of per-component compute wall time.
    pub compute_secs: f64,
    /// Sum of per-component I/O wall time.
    pub io_secs: f64,
    /// Total cold-start latency paid (0 for VM runs).
    pub cold_start_secs: f64,
    /// Scaling time (first-to-last function start; 0 for VM runs).
    pub scaling_secs: f64,
    /// Checkpoint/restart cycles (0 for VM runs).
    pub checkpoints: u64,
    /// Cold starts (0 for VM runs).
    pub n_cold: u64,
    /// Warm starts (0 for VM runs).
    pub n_warm: u64,
}

impl TaskReport {
    /// Wall-clock makespan of the task.
    pub fn makespan_secs(&self) -> f64 {
        self.end_secs - self.start_secs
    }

    /// Cold start time as a fraction of total busy time (the Fig. 4(b)
    /// metric). Zero when the task did no work.
    pub fn cold_start_fraction(&self) -> f64 {
        let busy = self.compute_secs + self.io_secs + self.cold_start_secs;
        if busy <= 0.0 {
            0.0
        } else {
            self.cold_start_secs / busy
        }
    }

    /// I/O time as a fraction of total busy time (the Fig. 4(a) metric).
    pub fn io_fraction(&self) -> f64 {
        let busy = self.compute_secs + self.io_secs + self.cold_start_secs;
        if busy <= 0.0 {
            0.0
        } else {
            self.io_secs / busy
        }
    }
}

/// Whole-workflow execution record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkflowReport {
    /// Workflow name.
    pub workflow: String,
    /// Strategy label (e.g. `"mashup"`, `"traditional"`).
    pub strategy: String,
    /// Cluster size used (0 for serverless-only).
    pub cluster_nodes: usize,
    /// End-to-end makespan in seconds.
    pub makespan_secs: f64,
    /// Expense breakdown in dollars.
    pub expense: Expense,
    /// The placement executed.
    pub plan: PlacementPlan,
    /// Per-task records in execution order.
    pub tasks: Vec<TaskReport>,
}

impl WorkflowReport {
    /// Total cold-start seconds across tasks.
    pub fn total_cold_start_secs(&self) -> f64 {
        self.tasks.iter().map(|t| t.cold_start_secs).sum()
    }

    /// Total I/O seconds across tasks.
    pub fn total_io_secs(&self) -> f64 {
        self.tasks.iter().map(|t| t.io_secs).sum()
    }

    /// Total scaling seconds across tasks.
    pub fn total_scaling_secs(&self) -> f64 {
        self.tasks.iter().map(|t| t.scaling_secs).sum()
    }

    /// Total checkpoints taken.
    pub fn total_checkpoints(&self) -> u64 {
        self.tasks.iter().map(|t| t.checkpoints).sum()
    }

    /// The record for a task by name.
    pub fn task(&self, name: &str) -> Option<&TaskReport> {
        self.tasks.iter().find(|t| t.name == name)
    }
}

/// The paper's headline metric: percentage improvement of `ours` over
/// `baseline` — `(1 - ours/baseline) × 100` (§4). Positive is better.
pub fn improvement_pct(ours: f64, baseline: f64) -> f64 {
    assert!(baseline > 0.0, "baseline must be positive");
    (1.0 - ours / baseline) * 100.0
}

impl WorkflowReport {
    /// Renders an ASCII Gantt chart of the run: one row per task, `#` for
    /// VM execution and `s` for serverless, over a `width`-column timeline.
    ///
    /// ```text
    /// FasterQ-Dump  [ssssssss............]  0.0-160.2s serverless
    /// Bowtie2-Build [######..............]  0.0-121.4s VM
    /// ```
    pub fn render_gantt(&self, width: usize) -> String {
        assert!(width >= 10, "gantt needs at least 10 columns");
        let total = self.makespan_secs.max(1e-9);
        let name_w = self
            .tasks
            .iter()
            .map(|t| t.name.len())
            .max()
            .unwrap_or(4)
            .max(4);
        let mut out = String::new();
        let mut rows: Vec<&TaskReport> = self.tasks.iter().collect();
        rows.sort_by(|a, b| {
            a.start_secs
                .total_cmp(&b.start_secs)
                .then(a.name.cmp(&b.name))
        });
        for t in rows {
            let begin = ((t.start_secs / total) * width as f64).floor() as usize;
            let end = ((t.end_secs / total) * width as f64).ceil() as usize;
            let begin = begin.min(width.saturating_sub(1));
            let end = end.clamp(begin + 1, width);
            let fill = match t.platform {
                Platform::VmCluster => '#',
                Platform::Serverless => 's',
            };
            let mut bar = String::with_capacity(width);
            for i in 0..width {
                bar.push(if i >= begin && i < end { fill } else { '.' });
            }
            out.push_str(&format!(
                "{:<name_w$} [{bar}] {:>8.1}-{:<8.1}s {}\n",
                t.name, t.start_secs, t.end_secs, t.platform
            ));
        }
        out.push_str(&format!(
            "{:<name_w$} makespan {:.1}s, ${:.4}\n",
            self.strategy,
            self.makespan_secs,
            self.expense.total()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(compute: f64, io: f64, cold: f64) -> TaskReport {
        TaskReport {
            name: "t".into(),
            platform: Platform::Serverless,
            phase: 0,
            components: 1,
            start_secs: 0.0,
            end_secs: compute + io + cold,
            compute_secs: compute,
            io_secs: io,
            cold_start_secs: cold,
            scaling_secs: 0.0,
            checkpoints: 0,
            n_cold: 1,
            n_warm: 0,
        }
    }

    #[test]
    fn fractions() {
        let t = task(6.0, 2.0, 2.0);
        assert!((t.cold_start_fraction() - 0.2).abs() < 1e-12);
        assert!((t.io_fraction() - 0.2).abs() < 1e-12);
        assert_eq!(t.makespan_secs(), 10.0);
    }

    #[test]
    fn empty_task_fractions_are_zero() {
        let t = task(0.0, 0.0, 0.0);
        assert_eq!(t.cold_start_fraction(), 0.0);
        assert_eq!(t.io_fraction(), 0.0);
    }

    #[test]
    fn improvement_matches_paper_formula() {
        // Mashup at 66 vs baseline 100 -> 34 % improvement.
        assert!((improvement_pct(66.0, 100.0) - 34.0).abs() < 1e-12);
        // Worse than baseline is negative.
        assert!(improvement_pct(120.0, 100.0) < 0.0);
    }

    #[test]
    fn gantt_renders_bars_in_start_order() {
        let mut t1 = task(10.0, 0.0, 0.0);
        t1.name = "early".into();
        t1.platform = Platform::VmCluster;
        let mut t2 = task(5.0, 0.0, 0.0);
        t2.name = "late".into();
        t2.start_secs = 10.0;
        t2.end_secs = 20.0;
        let r = WorkflowReport {
            workflow: "w".into(),
            strategy: "mashup".into(),
            cluster_nodes: 4,
            makespan_secs: 20.0,
            expense: Expense::default(),
            plan: PlacementPlan::new(),
            tasks: vec![t2.clone(), t1.clone()],
        };
        let g = r.render_gantt(20);
        let lines: Vec<&str> = g.lines().collect();
        assert!(lines[0].starts_with("early"), "{g}");
        assert!(lines[1].starts_with("late"), "{g}");
        let bar_of = |line: &str| -> String {
            line.split('[')
                .nth(1)
                .expect("bar")
                .split(']')
                .next()
                .expect("bar")
                .to_string()
        };
        // early: VM '#' bar; late: serverless 's' bar.
        let early_bar = bar_of(lines[0]);
        let late_bar = bar_of(lines[1]);
        assert!(early_bar.contains('#') && !early_bar.contains('s'), "{g}");
        assert!(late_bar.contains('s') && !late_bar.contains('#'), "{g}");
        // The late bar starts at or after the midpoint.
        let first_fill = late_bar.find('s').expect("filled");
        assert!(first_fill >= 10, "{late_bar}");
        assert!(g.contains("makespan 20.0s"));
    }

    #[test]
    #[should_panic(expected = "at least 10 columns")]
    fn gantt_rejects_tiny_width() {
        let r = WorkflowReport {
            workflow: "w".into(),
            strategy: "s".into(),
            cluster_nodes: 1,
            makespan_secs: 1.0,
            expense: Expense::default(),
            plan: PlacementPlan::new(),
            tasks: vec![],
        };
        let _ = r.render_gantt(3);
    }

    #[test]
    fn report_aggregates() {
        let r = WorkflowReport {
            workflow: "w".into(),
            strategy: "mashup".into(),
            cluster_nodes: 4,
            makespan_secs: 100.0,
            expense: Expense::default(),
            plan: PlacementPlan::new(),
            tasks: vec![task(1.0, 2.0, 3.0), task(4.0, 5.0, 6.0)],
        };
        assert_eq!(r.total_cold_start_secs(), 9.0);
        assert_eq!(r.total_io_secs(), 7.0);
        assert!(r.task("t").is_some());
        assert!(r.task("missing").is_none());
    }
}
