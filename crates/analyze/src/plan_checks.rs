//! M2xx: placement-plan checks.
//!
//! Each error here corresponds to an assertion the hybrid executor would
//! otherwise hit mid-simulation; the conditions deliberately mirror the
//! runtime model (the checkpoint margin of [`PlanContext::margin_for`], the
//! FaaS window chaining of `mashup_cloud::run_task_on_faas`, and the
//! executor's output-location routing) so the analyzer is exactly as strict
//! as execution — never more. The per-task conditions are one predicate,
//! [`PlanContext::misfits`], which the planners also place by.

use crate::diag::{Code, Diagnostic, Location};
use mashup_cloud::FaasConfig;
use mashup_dag::{PlacementPlan, Platform, Task, TaskRef, Workflow};
use std::borrow::Cow;
use std::fmt;

/// Environment facts the plan checks need (a slice of the engine config, so
/// `mashup-analyze` does not depend on `mashup-core`).
#[derive(Debug, Clone)]
pub struct PlanContext<'a> {
    /// Serverless platform constants.
    pub faas: &'a FaasConfig,
    /// VM-side WAN bandwidth to the object store, bytes/sec.
    pub wan_bps: f64,
    /// Configured checkpoint margin before the FaaS deadline, seconds.
    pub checkpoint_margin_secs: f64,
}

/// Why a task cannot run in a function, with the numbers that decided it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaasMisfit {
    /// M203: a component needs more memory than the function has.
    Memory {
        /// GiB one component needs.
        need_gb: f64,
        /// GiB the function has.
        cap_gb: f64,
    },
    /// M202: the task's checkpoint margin consumes the whole timeout.
    NoWindow {
        /// The task's checkpoint margin, seconds.
        margin_secs: f64,
        /// The function's timeout, seconds.
        timeout_secs: f64,
    },
    /// M202: a component must chain across invocations, but re-reading its
    /// checkpoint consumes every resumed window.
    NoProgress {
        /// Worst-case compute of one component, seconds.
        worst_secs: f64,
        /// The timeout less the checkpoint margin, seconds.
        window_secs: f64,
        /// The checkpoint each resumed invocation re-reads, bytes.
        checkpoint_bytes: f64,
    },
}

impl fmt::Display for FaasMisfit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FaasMisfit::Memory { need_gb, cap_gb } => write!(
                f,
                "component needs {need_gb:.2} GiB but the function cap is {cap_gb:.2} GiB"
            ),
            FaasMisfit::NoWindow {
                margin_secs,
                timeout_secs,
            } => write!(
                f,
                "checkpoint margin {margin_secs:.0}s consumes the whole {timeout_secs:.0}s FaaS \
                 timeout"
            ),
            FaasMisfit::NoProgress {
                worst_secs,
                window_secs,
                checkpoint_bytes,
            } => write!(
                f,
                "component needs ~{worst_secs:.0}s (> {window_secs:.0}s window) so it must \
                 chain, but re-reading the {checkpoint_bytes:.0}-byte checkpoint consumes \
                 every resumed window"
            ),
        }
    }
}

impl FaasMisfit {
    /// The diagnostic that reports this misfit for the task at `loc`.
    pub fn diagnostic(self, loc: Location) -> Diagnostic {
        let (code, help) = match self {
            FaasMisfit::Memory { .. } => (
                Code::FaasMemoryExceeded,
                "place the task on the VM cluster or raise faas.memory_gb",
            ),
            FaasMisfit::NoWindow { .. } => (
                Code::FaasWindowInfeasible,
                "shrink checkpoint_bytes or checkpoint_margin_secs, or run on the VM cluster",
            ),
            FaasMisfit::NoProgress { .. } => (
                Code::FaasWindowInfeasible,
                "no forward progress is possible; place the task on the VM cluster",
            ),
        };
        Diagnostic::new(code, loc, self.to_string()).with_help(help)
    }
}

impl PlanContext<'_> {
    /// The effective checkpoint margin for a task: at least the configured
    /// margin, widened so the checkpoint write (at the per-function
    /// bandwidth) fits with 20 % headroom.
    pub fn margin_for(&self, checkpoint_bytes: f64) -> f64 {
        self.checkpoint_margin_secs
            .max(checkpoint_bytes / self.faas.per_function_bps * 1.2)
    }

    /// Why `t` cannot run in this function: M203, then M202. Empty when it
    /// can, which is the one condition under which a planner may place it
    /// serverless.
    pub fn misfits(&self, t: &Task) -> impl Iterator<Item = FaasMisfit> {
        let p = &t.profile;
        let memory = (p.memory_gb > self.faas.memory_gb).then_some(FaasMisfit::Memory {
            need_gb: p.memory_gb,
            cap_gb: self.faas.memory_gb,
        });
        // M202: can the component finish inside the timeout window,
        // possibly chaining across invocations via checkpoints?
        let margin = self.margin_for(p.checkpoint_bytes);
        let window = self.faas.timeout_secs - margin;
        let worst = p.compute_secs_serverless() / self.faas.core_speed * (1.0 + p.runtime_jitter);
        let resume_read = p.checkpoint_bytes / self.faas.per_function_bps;
        let window = if window <= 0.0 {
            Some(FaasMisfit::NoWindow {
                margin_secs: margin,
                timeout_secs: self.faas.timeout_secs,
            })
        } else if worst > window && window - resume_read <= 0.0 {
            Some(FaasMisfit::NoProgress {
                worst_secs: worst,
                window_secs: window,
                checkpoint_bytes: p.checkpoint_bytes,
            })
        } else {
            None
        };
        memory.into_iter().chain(window)
    }
}

/// Runs every M2xx check of `plan` against `w`, collecting all findings.
pub fn analyze_plan(w: &Workflow, plan: &PlacementPlan, ctx: &PlanContext<'_>) -> Vec<Diagnostic> {
    analyze_plan_by_task(w, plan, ctx, |_| Cow::Borrowed(ctx.faas))
}

/// [`analyze_plan`] where each serverless task runs in its own function,
/// `faas_of(flat id)` in place of `ctx.faas`: say the memory tier a
/// per-task sizing assigns it.
pub fn analyze_plan_by_task<'f>(
    w: &Workflow,
    plan: &PlacementPlan,
    ctx: &PlanContext<'_>,
    faas_of: impl Fn(usize) -> Cow<'f, FaasConfig>,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (flat, r) in w.task_refs().enumerate() {
        let t = w.task(r);
        // Built per finding: most tasks have none.
        let loc = || Location::Task {
            phase: r.phase,
            task: r.task,
            name: t.name.clone(),
        };
        let Ok(platform) = plan.platform(r) else {
            out.push(
                Diagnostic::new(
                    Code::UnassignedTask,
                    loc(),
                    "plan assigns no platform to this task",
                )
                .with_help("every task needs a VM-cluster or serverless assignment"),
            );
            continue;
        };
        if platform == Platform::Serverless {
            let faas = faas_of(flat);
            let task_ctx = PlanContext {
                faas: &faas,
                ..ctx.clone()
            };
            out.extend(task_ctx.misfits(t).map(|m| m.diagnostic(loc())));
        }
    }
    // M204: hybrid-boundary staging volume. Mirrors the executor's output
    // routing — a task's output lands in the object store when the task or
    // any consumer is serverless, and VM tasks exchange store-resident data
    // over the WAN.
    if plan.covers(w) {
        let serverless = |r: TaskRef| plan.platform(r) == Ok(Platform::Serverless);
        // Memoized per task: evaluating this on demand re-scans the
        // producer's consumer list for every dependency edge, which is
        // quadratic on wide fan-outs (each of n workers re-checks the
        // splitter's n consumers).
        let in_store: Vec<bool> = w
            .task_refs()
            .map(|r| serverless(r) || w.consumers(r).iter().any(|&(c, _)| serverless(c)))
            .collect();
        let arena = w.arena();
        let in_store = |r: TaskRef| arena.flat(r).is_some_and(|flat| in_store[flat]);
        let mut boundary_bytes = 0.0;
        for r in w.task_refs() {
            if serverless(r) {
                continue;
            }
            let t = w.task(r);
            if in_store(r) {
                boundary_bytes += t.components as f64 * t.profile.output_bytes;
            }
            if t.deps.iter().any(|d| in_store(d.producer)) {
                boundary_bytes += t.components as f64 * t.profile.input_bytes;
            }
        }
        let staging_secs = boundary_bytes / ctx.wan_bps;
        let threshold = w.critical_path_secs().max(60.0);
        if staging_secs > threshold {
            out.push(
                Diagnostic::new(
                    Code::BoundaryStaging,
                    Location::Plan,
                    format!(
                        "hybrid boundary moves {:.1} GB over the WAN (~{staging_secs:.0}s of \
                         staging vs a ~{threshold:.0}s critical path)",
                        boundary_bytes / 1e9
                    ),
                )
                .with_help("co-locate heavy producer/consumer pairs on one platform"),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;
    use mashup_dag::{DependencyPattern, Task, TaskProfile, WorkflowBuilder};

    fn ctx(faas: &FaasConfig) -> PlanContext<'_> {
        PlanContext {
            faas,
            wan_bps: 1.0e9,
            checkpoint_margin_secs: 30.0,
        }
    }

    fn two_phase(profile0: TaskProfile, profile1: TaskProfile) -> Workflow {
        let mut b = WorkflowBuilder::new("w");
        b.initial_input_bytes(1e9);
        b.begin_phase();
        let a = b.add_task(Task::new("A", 4, profile0));
        b.begin_phase();
        let c = b.add_task(Task::new("B", 1, profile1));
        b.depend(c, a, DependencyPattern::AllToAll);
        b.build()
    }

    #[test]
    fn covering_plan_with_modest_tasks_is_silent() {
        let w = two_phase(TaskProfile::trivial(), TaskProfile::trivial());
        let faas = FaasConfig::aws_like();
        for plat in [Platform::VmCluster, Platform::Serverless] {
            let plan = PlacementPlan::uniform(&w, plat);
            assert!(analyze_plan(&w, &plan, &ctx(&faas)).is_empty());
        }
    }

    #[test]
    fn unassigned_tasks_are_errors() {
        let w = two_phase(TaskProfile::trivial(), TaskProfile::trivial());
        let mut plan = PlacementPlan::new();
        plan.set(TaskRef::new(0, 0), Platform::VmCluster);
        let diags = analyze_plan(&w, &plan, &ctx(&FaasConfig::aws_like()));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::UnassignedTask);
        assert_eq!(diags[0].severity, Severity::Error);
    }

    #[test]
    fn memory_above_function_cap() {
        let w = two_phase(TaskProfile::trivial().memory(8.0), TaskProfile::trivial());
        let plan = PlacementPlan::uniform(&w, Platform::Serverless);
        let diags = analyze_plan(&w, &plan, &ctx(&FaasConfig::aws_like()));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::FaasMemoryExceeded);
        // On the VM cluster the same task is fine.
        let plan = PlacementPlan::uniform(&w, Platform::VmCluster);
        assert!(analyze_plan(&w, &plan, &ctx(&FaasConfig::aws_like())).is_empty());
    }

    #[test]
    fn infeasible_faas_window_two_ways() {
        let faas = FaasConfig::aws_like();
        // (a) margin swallows the timeout: 50 GB checkpoint at 50 MB/s
        // needs a 1200 s margin against a 900 s timeout.
        let w = two_phase(
            TaskProfile::trivial().checkpoint(5.0e10),
            TaskProfile::trivial(),
        );
        let plan = PlacementPlan::uniform(&w, Platform::Serverless);
        let diags = analyze_plan(&w, &plan, &ctx(&faas));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::FaasWindowInfeasible);
        assert!(diags[0].message.contains("consumes the whole"));
        // (b) chaining needed but the resume re-read eats the window:
        // 2.5e10 B checkpoint -> margin 600 s, window 300 s, re-read 500 s.
        let w = two_phase(
            TaskProfile::trivial().compute(2000.0).checkpoint(2.5e10),
            TaskProfile::trivial(),
        );
        let plan = PlacementPlan::uniform(&w, Platform::Serverless);
        let diags = analyze_plan(&w, &plan, &ctx(&faas));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::FaasWindowInfeasible);
        assert!(diags[0].message.contains("chain"));
        // Long compute alone is fine — chaining handles it.
        let w = two_phase(
            TaskProfile::trivial().compute(2000.0).checkpoint(1.0e6),
            TaskProfile::trivial(),
        );
        let plan = PlacementPlan::uniform(&w, Platform::Serverless);
        assert!(analyze_plan(&w, &plan, &ctx(&faas)).is_empty());
    }

    #[test]
    fn heavy_boundary_traffic_warns() {
        // VM producer writes 4 × 5e10 B read by a serverless consumer:
        // 200 GB over a 1 GB/s WAN = 200 s >> the 60 s floor.
        let w = two_phase(
            TaskProfile::trivial().io(0.0, 5.0e10),
            TaskProfile::trivial().io(2.0e11, 0.0),
        );
        let mut plan = PlacementPlan::uniform(&w, Platform::VmCluster);
        plan.set(TaskRef::new(1, 0), Platform::Serverless);
        let faas = FaasConfig::aws_like();
        let diags = analyze_plan(&w, &plan, &ctx(&faas));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::BoundaryStaging);
        assert_eq!(diags[0].severity, Severity::Warning);
        // All-VM moves nothing over the WAN.
        let plan = PlacementPlan::uniform(&w, Platform::VmCluster);
        assert!(analyze_plan(&w, &plan, &ctx(&faas)).is_empty());
    }
}
