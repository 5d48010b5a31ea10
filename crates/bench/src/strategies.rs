//! Uniform access to every execution strategy under comparison: the
//! [`Strategy`] registry of `mashup-baselines`, with the harness's plan
//! cache, run memo and trace directory applied.
//!
//! A figure declares the strategy runs it needs as [`RunCell`]s and hands
//! them to [`run_cells`] in one call. Many figures share runs (Figs. 6 and
//! 7 are the time and the expense of one sweep; Fig. 12, the §5 overhead
//! text and the expense table reuse 48-node cells), so the cells go through
//! a process-wide memo: one `figures` pass runs each distinct cell once,
//! and every later request for it gets the same report back. The memo
//! follows the plan-cache switch ([`crate::set_plan_cache_enabled`]):
//! switched off, runs share nothing, and every cell runs for real.

use crate::plan_cache::{plan_cache, plan_cache_enabled};
use crate::trace_dir::{trace_dir, write_trace, TraceFile};
pub use mashup_baselines::Strategy;
use mashup_core::{
    CheckedWorkflow, Fingerprint, Fingerprinter, MashupConfig, Tracer, WorkflowReport,
};
use mashup_dag::Workflow;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// One strategy run a figure asks for.
#[derive(Debug, Clone)]
pub struct RunCell<'a> {
    /// The environment the strategy runs in.
    pub cfg: MashupConfig,
    /// The workflow, checked once by whoever built it.
    pub workflow: &'a CheckedWorkflow<'a>,
    /// The strategy.
    pub strategy: Strategy,
}

impl<'a> RunCell<'a> {
    /// A cell running `strategy` on `workflow` under `cfg`.
    pub fn new(cfg: MashupConfig, workflow: &'a CheckedWorkflow<'a>, strategy: Strategy) -> Self {
        RunCell {
            cfg,
            workflow,
            strategy,
        }
    }

    /// The memo key: every field of the config (prices, sub-clusters,
    /// chaos and seed included; `{:?}` prints each one, floats exactly),
    /// the workflow's fingerprint (name included) and the strategy. The
    /// plan cache's stage keys will not do: they leave out what their stage
    /// never reads, prices among it.
    fn key(&self) -> u128 {
        let mut f = Fingerprinter::new("bench-run-cell-v1");
        f.write_str(&format!("{:?}", self.cfg));
        self.workflow.fingerprint(&mut f);
        f.write_str(self.strategy.label());
        f.digest()
    }
}

/// What the memo keeps of one executed cell: its report, and the trace
/// file its run wrote if it ran under a trace directory.
struct Memo {
    report: Arc<WorkflowReport>,
    trace: Option<TraceFile>,
}

static MEMO: Mutex<BTreeMap<u128, Memo>> = Mutex::new(BTreeMap::new());
static REQUESTED: AtomicU64 = AtomicU64::new(0);
static EXECUTED: AtomicU64 = AtomicU64::new(0);

fn memo() -> MutexGuard<'static, BTreeMap<u128, Memo>> {
    // Entries are inserted whole, so a panic elsewhere leaves none torn.
    MEMO.lock().unwrap_or_else(|e| e.into_inner())
}

/// How many strategy runs this process was asked for, and how many it
/// executed; the difference is what the memo answered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Cells handed to [`run_cells`], duplicates included.
    pub requested: u64,
    /// Cells that ran.
    pub executed: u64,
}

/// The run counters since the process started.
pub fn run_stats() -> RunStats {
    RunStats {
        requested: REQUESTED.load(Ordering::Relaxed),
        executed: EXECUTED.load(Ordering::Relaxed),
    }
}

/// Runs `cells` and returns their reports in cell order.
///
/// The cells are deduplicated, each is looked up in the process-wide memo,
/// and the misses run on the worker pool in first-occurrence order, so the
/// reports do not depend on the worker count. With the plan cache switched
/// off nothing is shared: every cell runs, on a plan cache of its own, and
/// the memo is neither read nor written.
///
/// Under a trace directory each run writes its trace, and a cell the memo
/// answers copies the file its first run wrote under the current scope's
/// name, so the directory holds the same files either way. A memo entry
/// made while tracing was off does not count as a hit then.
pub fn run_cells(cells: &[RunCell]) -> Vec<Arc<WorkflowReport>> {
    REQUESTED.fetch_add(cells.len() as u64, Ordering::Relaxed);
    if !plan_cache_enabled() {
        EXECUTED.fetch_add(cells.len() as u64, Ordering::Relaxed);
        return crate::par_map(cells.iter().collect(), |c| execute(c).report);
    }
    let tracing = trace_dir().is_some();
    let keys: Vec<u128> = cells.iter().map(RunCell::key).collect();
    let mut distinct = BTreeSet::new();
    let firsts: Vec<usize> = (0..cells.len())
        .filter(|&i| distinct.insert(keys[i]))
        .collect();
    let (misses, hits): (Vec<usize>, Vec<usize>) = {
        let memo = memo();
        firsts.into_iter().partition(|&i| {
            memo.get(&keys[i])
                .is_none_or(|m| tracing && m.trace.is_none())
        })
    };
    EXECUTED.fetch_add(misses.len() as u64, Ordering::Relaxed);
    let ran = crate::par_map(misses.iter().map(|&i| &cells[i]).collect(), execute);
    let mut memo = memo();
    for (&i, entry) in misses.iter().zip(ran) {
        memo.insert(keys[i], entry);
    }
    for i in hits {
        if let Some(trace) = &memo[&keys[i]].trace {
            trace.copy_to_current_scope();
        }
    }
    keys.iter().map(|k| memo[k].report.clone()).collect()
}

/// Runs one cell for real on the harness's plan cache, writing its trace
/// when a trace directory is set.
fn execute(cell: &RunCell) -> Memo {
    let tracer = if trace_dir().is_some() {
        Tracer::new()
    } else {
        Tracer::off()
    };
    let report = cell
        .strategy
        .run(&cell.cfg, cell.workflow, &tracer, Some(plan_cache()))
        .unwrap_or_else(|e| panic!("{e}"));
    let label = cell.strategy.label();
    let trace = write_trace(&cell.cfg, &report.workflow, label, &tracer.take());
    Memo {
        report: Arc::new(report),
        trace,
    }
}

/// [`run_cells`] for one cell.
///
/// Panics with the analyzer's message when it refuses the config; the
/// harness only runs configs it has preflighted.
pub fn run_strategy(
    cfg: &MashupConfig,
    workflow: &CheckedWorkflow,
    strategy: Strategy,
) -> Arc<WorkflowReport> {
    let mut reports = run_cells(&[RunCell::new(cfg.clone(), workflow, strategy)]);
    reports.pop().expect("one report per cell")
}

/// [`CheckedWorkflow::borrowed`], then [`Strategy::run`] recording into
/// `tracer` (pass `Tracer::off()` for an unrecorded run). Mashup memoizes
/// its profiling in the harness's [plan cache](crate::plan_cache()). Never
/// memoized: every call runs.
///
/// Panics with the analyzer's message when it refuses the inputs; the
/// harness only runs inputs it has preflighted.
pub fn run_strategy_traced(
    cfg: &MashupConfig,
    workflow: &Workflow,
    strategy: Strategy,
    tracer: &Tracer,
) -> WorkflowReport {
    CheckedWorkflow::borrowed(workflow)
        .and_then(|w| strategy.run(cfg, &w, tracer, Some(plan_cache())))
        .unwrap_or_else(|e| panic!("{e}"))
}

/// The cells of a grid: each workflow under each config with each
/// strategy, workflow-major, then config, then strategy. A figure reads
/// the reports back in the same order, in chunks.
pub(crate) fn grid<'a>(
    workflows: &'a [CheckedWorkflow<'a>],
    configs: &[MashupConfig],
    strategies: &[Strategy],
) -> Vec<RunCell<'a>> {
    let mut cells = Vec::with_capacity(workflows.len() * configs.len() * strategies.len());
    for w in workflows {
        for cfg in configs {
            for &s in strategies {
                cells.push(RunCell::new(cfg.clone(), w, s));
            }
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use mashup_dag::{Task, TaskProfile, WorkflowBuilder};

    #[test]
    fn every_strategy_completes_on_a_small_workflow() {
        let mut b = WorkflowBuilder::new("smoke");
        b.initial_input_bytes(1e6);
        b.begin_phase();
        b.add_task(Task::new("t", 16, TaskProfile::trivial().compute(2.0)));
        let w = CheckedWorkflow::new(b.build()).expect("checks clean");
        let cfg = MashupConfig::aws(2);
        for s in Strategy::ALL {
            let r = run_strategy(&cfg, &w, s);
            assert!(r.makespan_secs > 0.0, "{} produced empty run", s.label());
            assert_eq!(r.tasks.len(), 1, "{}", s.label());
        }
    }
}
