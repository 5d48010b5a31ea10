//! The trace-invariant oracle: semantic checks over recorded executions.
//!
//! A flight-recorder trace ([`mashup_sim::trace`]) is a complete account of
//! what the simulated platforms did. This module replays that account
//! against the *rules* the platforms are supposed to obey and reports every
//! divergence as a [`Violation`] with a stable machine-readable code:
//!
//! * [`PRECEDENCE`] — no task starts before all of its producers finished
//!   and (when the data crosses the platform boundary) before their outputs
//!   landed in the object store;
//! * [`CAPACITY`] — serverless components fit the function memory cap, and
//!   the per-(sub-cluster, node) VM load reconstructed from the trace
//!   matches what the cluster recorded, with timeshare factors inside the
//!   work-conserving/thrash bounds;
//! * [`CKPT_WINDOW`] — checkpoints land before the invocation's hard
//!   deadline, and every resume restores exactly the remaining compute the
//!   last successful checkpoint recorded (a resume without any prior
//!   checkpoint is a violation);
//! * [`WARM_START`] — an invocation recorded as warm must be explainable by
//!   a live warm-pool entry (an earlier completion within the keep-alive
//!   window, or a pre-warmed microVM), mirroring the platform's LIFO pool;
//! * [`COST`] — GB-seconds, VM node-seconds (including per-node spot
//!   settlements), and storage charges recomputed from the trace reconcile
//!   with the report's expense to within 1e-9;
//! * [`REPLAN`] — every replan is sized to exactly the capacity surviving
//!   the preemptions recorded so far, and no component starts (or retries
//!   onto) a node after its spot reclaim;
//! * [`FAULT_ATTRIB`] — every retry chains to an injected cause: a compute
//!   retry to an earlier spot preemption with the same fault id, a storage
//!   retry to an earlier fault-window activation with the same fault id.
//!
//! The oracle is pure: it never touches a simulation, so it can check
//! golden traces from disk as easily as freshly recorded ones.

use crate::config::MashupConfig;
use crate::report::WorkflowReport;
use mashup_cloud::VmCluster;
use mashup_dag::Workflow;
use mashup_sim::{TraceEvent, TraceRecord};
use std::collections::BTreeMap;

/// A task started before its producers' outputs were readable.
pub const PRECEDENCE: &str = "T-PRECEDENCE";
/// Memory/core accounting diverged from the configured instance or cap.
pub const CAPACITY: &str = "T-CAPACITY";
/// Checkpoint/resume math broke the timeout-window contract.
pub const CKPT_WINDOW: &str = "T-CKPT-WINDOW";
/// A warm start had no live warm-pool entry to explain it.
pub const WARM_START: &str = "T-WARM-START";
/// Expense recomputed from the trace diverged from the report.
pub const COST: &str = "T-COST";
/// A replan's capacity diverged from the surviving nodes, or work landed on
/// a reclaimed node.
pub const REPLAN: &str = "T-REPLAN";
/// A retry or migration had no injected fault to explain it.
pub const FAULT_ATTRIB: &str = "T-FAULT-ATTRIB";

const EPS: f64 = 1e-9;

/// One invariant violation found in a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Stable machine-readable code (one of the module constants).
    pub code: &'static str,
    /// Sequence number of the record that exposed the violation (0 when the
    /// violation is about the trace as a whole, e.g. cost reconciliation).
    pub seq: u64,
    /// Human-readable description.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} @seq {}: {}", self.code, self.seq, self.detail)
    }
}

/// Checks every invariant against `records` (one workflow execution traced
/// at flow level or above), returning all violations found. An empty vector
/// means the trace is internally consistent with `cfg`, `workflow`, and the
/// run's `report`.
pub fn check(
    cfg: &MashupConfig,
    workflow: &Workflow,
    report: &WorkflowReport,
    records: &[TraceRecord],
) -> Vec<Violation> {
    let mut out = Vec::new();
    check_precedence(workflow, records, &mut out);
    check_capacity(cfg, records, &mut out);
    check_ckpt_window(records, &mut out);
    check_warm_start(cfg, records, &mut out);
    check_cost(cfg, report, records, &mut out);
    check_replan(cfg, records, &mut out);
    check_fault_attrib(records, &mut out);
    out
}

/// Producer outputs must be readable before a consumer task starts: the
/// producer's `TaskEnd` (and, when its output went through the store, the
/// first `ObjectPut` of `out:<producer>`) must precede the consumer's
/// `TaskStart` in the trace order. Tasks absent from the trace (e.g. a
/// baseline that renamed them) are skipped — absence is not evidence.
fn check_precedence(workflow: &Workflow, records: &[TraceRecord], out: &mut Vec<Violation>) {
    let mut start_seq: BTreeMap<&str, u64> = BTreeMap::new();
    let mut end_seq: BTreeMap<&str, u64> = BTreeMap::new();
    let mut put_seq: BTreeMap<&str, u64> = BTreeMap::new();
    for r in records {
        match &r.event {
            TraceEvent::TaskStart { task, .. } => {
                start_seq.entry(task).or_insert(r.seq);
            }
            TraceEvent::TaskEnd { task } => {
                end_seq.entry(task).or_insert(r.seq);
            }
            TraceEvent::ObjectPut { key, .. } => {
                if let Some(name) = key.strip_prefix("out:") {
                    put_seq.entry(name).or_insert(r.seq);
                }
            }
            _ => {}
        }
    }
    for r in workflow.task_refs() {
        let t = workflow.task(r);
        let Some(&consumer_start) = start_seq.get(t.name.as_str()) else {
            continue;
        };
        for dep in &t.deps {
            let p = &workflow.task(dep.producer).name;
            if !start_seq.contains_key(p.as_str()) {
                continue; // producer never traced under this name
            }
            match end_seq.get(p.as_str()) {
                None => out.push(Violation {
                    code: PRECEDENCE,
                    seq: consumer_start,
                    detail: format!("'{}' started but its producer '{p}' never ended", t.name),
                }),
                Some(&e) if e >= consumer_start => out.push(Violation {
                    code: PRECEDENCE,
                    seq: consumer_start,
                    detail: format!(
                        "'{}' started (seq {consumer_start}) before its producer '{p}' \
                         ended (seq {e})",
                        t.name
                    ),
                }),
                _ => {}
            }
            if let Some(&ps) = put_seq.get(p.as_str()) {
                if ps >= consumer_start {
                    out.push(Violation {
                        code: PRECEDENCE,
                        seq: consumer_start,
                        detail: format!(
                            "'{}' started (seq {consumer_start}) before '{p}' uploaded \
                             its output (seq {ps})",
                            t.name
                        ),
                    });
                }
            }
        }
    }
}

/// Serverless segments must fit the function memory cap; VM component loads
/// reconstructed from start/end pairs must match the loads the cluster
/// recorded, with timeshare factors inside
/// `[max(1, load/cores), max(1, load/cores) × MAX_THRASH]`.
fn check_capacity(cfg: &MashupConfig, records: &[TraceRecord], out: &mut Vec<Violation>) {
    let fn_cap = cfg.provider.faas.memory_gb;
    let cores = cfg.cluster.instance.cores;
    let mut loads: BTreeMap<(usize, usize), i64> = BTreeMap::new();
    for r in records {
        match &r.event {
            TraceEvent::SegmentStart { task, mem_gb, .. } if *mem_gb > fn_cap + EPS => {
                out.push(Violation {
                    code: CAPACITY,
                    seq: r.seq,
                    detail: format!(
                        "segment of '{task}' holds {mem_gb} GiB but functions \
                         cap at {fn_cap} GiB"
                    ),
                });
            }
            TraceEvent::VmCompStart {
                task,
                sub,
                node,
                load,
                factor,
                ..
            } => {
                let l = loads.entry((*sub, *node)).or_insert(0);
                *l += 1;
                if *l != *load as i64 {
                    out.push(Violation {
                        code: CAPACITY,
                        seq: r.seq,
                        detail: format!(
                            "'{task}' on sub {sub} node {node}: recorded load {load} \
                             but the trace reconstructs {l}"
                        ),
                    });
                    // Trust the recorded value from here on so one corruption
                    // does not cascade into a violation per later component.
                    *l = *load as i64;
                }
                let oversub = (*load as f64 / cores as f64).max(1.0);
                if *factor < oversub - EPS || *factor > oversub * VmCluster::MAX_THRASH + EPS {
                    out.push(Violation {
                        code: CAPACITY,
                        seq: r.seq,
                        detail: format!(
                            "'{task}' timeshare factor {factor} outside \
                             [{oversub}, {}] for load {load} on {cores} cores",
                            oversub * VmCluster::MAX_THRASH
                        ),
                    });
                }
            }
            TraceEvent::VmCompEnd { task, sub, node } => {
                let l = loads.entry((*sub, *node)).or_insert(0);
                *l -= 1;
                if *l < 0 {
                    out.push(Violation {
                        code: CAPACITY,
                        seq: r.seq,
                        detail: format!(
                            "'{task}' ended on sub {sub} node {node} with no live \
                             component (load went negative)"
                        ),
                    });
                    *l = 0;
                }
            }
            _ => {}
        }
    }
}

/// Checkpoints must land before the owning invocation's hard deadline, and
/// every resume must restore exactly what the last successful checkpoint of
/// its (task, chain) recorded.
fn check_ckpt_window(records: &[TraceRecord], out: &mut Vec<Violation>) {
    let mut deadline_of: BTreeMap<u64, f64> = BTreeMap::new();
    let mut last_remaining: BTreeMap<(String, u32), f64> = BTreeMap::new();
    for r in records {
        match &r.event {
            TraceEvent::FnStart {
                id, deadline_secs, ..
            } => {
                deadline_of.insert(*id, *deadline_secs);
            }
            TraceEvent::Checkpoint {
                task,
                chain,
                inv,
                remaining_secs,
                ..
            } => {
                match deadline_of.get(inv) {
                    None => out.push(Violation {
                        code: CKPT_WINDOW,
                        seq: r.seq,
                        detail: format!(
                            "checkpoint of '{task}' chain {chain} references unknown \
                             invocation {inv}"
                        ),
                    }),
                    Some(&d) if r.t_secs > d + EPS => out.push(Violation {
                        code: CKPT_WINDOW,
                        seq: r.seq,
                        detail: format!(
                            "checkpoint of '{task}' chain {chain} at t={} is past \
                             invocation {inv}'s deadline {d}",
                            r.t_secs
                        ),
                    }),
                    _ => {}
                }
                last_remaining.insert((task.clone(), *chain), *remaining_secs);
            }
            TraceEvent::CheckpointResume {
                task,
                chain,
                remaining_secs,
                ..
            } => match last_remaining.get(&(task.clone(), *chain)) {
                None => out.push(Violation {
                    code: CKPT_WINDOW,
                    seq: r.seq,
                    detail: format!(
                        "'{task}' chain {chain} resumed from a checkpoint but none \
                         was ever recorded"
                    ),
                }),
                Some(&rem) if (rem - *remaining_secs).abs() > EPS => out.push(Violation {
                    code: CKPT_WINDOW,
                    seq: r.seq,
                    detail: format!(
                        "'{task}' chain {chain} resumed {remaining_secs} s of compute \
                         but the last checkpoint recorded {rem} s"
                    ),
                }),
                _ => {}
            },
            _ => {}
        }
    }
}

/// Every warm start must be explainable by a live pool entry: a prior
/// completion of the same code identity within the keep-alive window, or a
/// pre-warmed microVM that was ready and unexpired. The reconstruction
/// mirrors the platform's pool exactly (LIFO, pushes in time order, expired
/// entries pruned at take time).
fn check_warm_start(cfg: &MashupConfig, records: &[TraceRecord], out: &mut Vec<Violation>) {
    let keep_alive = cfg.provider.faas.keep_alive_secs;
    // Per code identity: live expiry stack + pre-warm entries not yet ready.
    let mut pools: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut pending: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new(); // (warm_at, expires)
    let mut code_of: BTreeMap<u64, String> = BTreeMap::new();

    // Moves pre-warm entries that became ready by `t` into the live pool,
    // in readiness order (they were pushed at their warm-at instants).
    fn flush(pool: &mut Vec<f64>, pending: &mut Vec<(f64, f64)>, t: f64) {
        let mut ready: Vec<(f64, f64)> = Vec::new();
        pending.retain(|&(warm_at, expires)| {
            if warm_at <= t {
                ready.push((warm_at, expires));
                false
            } else {
                true
            }
        });
        ready.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite warm-at"));
        pool.extend(ready.into_iter().map(|(_, expires)| expires));
    }

    for r in records {
        match &r.event {
            TraceEvent::FnPrewarm {
                code,
                warm_secs,
                expires_secs,
                ..
            } => {
                pending
                    .entry(code.clone())
                    .or_default()
                    .push((*warm_secs, *expires_secs));
            }
            TraceEvent::FnStart { id, code, cold, .. } => {
                code_of.insert(*id, code.clone());
                let pool = pools.entry(code.clone()).or_default();
                flush(pool, pending.entry(code.clone()).or_default(), r.t_secs);
                // The platform prunes expired entries on every take, cold or
                // warm, so mirror that before deciding availability.
                pool.retain(|&expires| expires > r.t_secs);
                if !cold && pool.pop().is_none() {
                    out.push(Violation {
                        code: WARM_START,
                        seq: r.seq,
                        detail: format!(
                            "invocation {id} of '{code}' started warm at t={} with no \
                             live warm-pool entry",
                            r.t_secs
                        ),
                    });
                }
            }
            TraceEvent::FnEnd { id, .. } => {
                if let Some(code) = code_of.get(id) {
                    let pool = pools.entry(code.clone()).or_default();
                    flush(pool, pending.entry(code.clone()).or_default(), r.t_secs);
                    pool.push(r.t_secs + keep_alive);
                }
            }
            _ => {}
        }
    }
}

/// Recomputes the run's expense from the trace — function-seconds billed at
/// completion/kill/pre-warm, VM node-seconds at billing stops, storage
/// occupancy from object lifetimes, and request charges from GET/PUT
/// batches — and reconciles each component with the report to within 1e-9.
/// The accumulation mirrors the cost meter's order of operations so the
/// comparison is exact, not approximate.
fn check_cost(
    cfg: &MashupConfig,
    report: &WorkflowReport,
    records: &[TraceRecord],
    out: &mut Vec<Violation>,
) {
    let faas_price = cfg.provider.faas.price_per_hour;
    let vm_price = cfg.cluster.instance.price_per_hour;
    let st = &cfg.provider.storage;
    const SECS_PER_MONTH: f64 = 30.0 * 24.0 * 3600.0;

    let mut faas_dollars = 0.0;
    let mut vm_dollars = 0.0;
    let mut byte_seconds = 0.0;
    let mut request_dollars = 0.0;
    let mut live_objects: BTreeMap<String, (f64, f64)> = BTreeMap::new(); // key -> (bytes, put_t)

    for r in records {
        match &r.event {
            TraceEvent::FnEnd { billed_secs, .. } | TraceEvent::FnKill { billed_secs, .. } => {
                faas_dollars += billed_secs / 3600.0 * faas_price;
            }
            TraceEvent::FnPrewarm { latency_secs, .. } => {
                faas_dollars += latency_secs / 3600.0 * faas_price;
            }
            TraceEvent::BillingStop { node_seconds } => {
                vm_dollars += node_seconds / 3600.0 * vm_price;
            }
            TraceEvent::SpotBill { dollars, .. } => {
                vm_dollars += dollars;
            }
            TraceEvent::StoreGet {
                requests, retried, ..
            } => {
                request_dollars += *requests as f64 * st.price_per_get;
                if *retried {
                    request_dollars += *requests as f64 * st.price_per_get;
                }
            }
            TraceEvent::StorePut {
                requests, replicas, ..
            } => {
                request_dollars += (*requests * *replicas) as f64 * st.price_per_put;
            }
            TraceEvent::ObjectPut { key, bytes } => {
                // Overwrites settle the old object's occupancy first.
                if let Some((old_bytes, put_t)) = live_objects.remove(key) {
                    byte_seconds += old_bytes * st.replicas as f64 * (r.t_secs - put_t).max(0.0);
                }
                live_objects.insert(key.clone(), (*bytes, r.t_secs));
            }
            TraceEvent::ObjectRemove { key } => {
                if let Some((bytes, put_t)) = live_objects.remove(key) {
                    byte_seconds += bytes * st.replicas as f64 * (r.t_secs - put_t).max(0.0);
                }
            }
            _ => {}
        }
    }

    let storage_dollars =
        byte_seconds / 1e9 / SECS_PER_MONTH * st.price_per_gb_month + request_dollars;
    let checks = [
        ("faas", faas_dollars, report.expense.faas_dollars),
        ("vm", vm_dollars, report.expense.vm_dollars),
        ("storage", storage_dollars, report.expense.storage_dollars),
    ];
    for (what, recomputed, reported) in checks {
        if (recomputed - reported).abs() > 1e-9 {
            out.push(Violation {
                code: COST,
                seq: 0,
                detail: format!(
                    "{what} dollars recomputed from the trace ({recomputed}) do not \
                     reconcile with the report ({reported})"
                ),
            });
        }
    }
}

/// Replans must be consistent with surviving capacity: every `Replan`
/// record's `nodes_after` equals the configured node count minus the spot
/// preemptions recorded before it, and once a node is reclaimed no later
/// component starts — or retries onto — it.
fn check_replan(cfg: &MashupConfig, records: &[TraceRecord], out: &mut Vec<Violation>) {
    let nodes = cfg.cluster.nodes;
    let mut preempted: std::collections::BTreeSet<(usize, usize)> = Default::default();
    for r in records {
        match &r.event {
            TraceEvent::SpotPreempt { sub, node, .. } => {
                preempted.insert((*sub, *node));
            }
            TraceEvent::Replan {
                nodes_after, phase, ..
            } => {
                let surviving = nodes - preempted.len().min(nodes);
                if *nodes_after != surviving {
                    out.push(Violation {
                        code: REPLAN,
                        seq: r.seq,
                        detail: format!(
                            "replan at phase {phase} sized for {nodes_after} nodes but \
                             {} of {nodes} were reclaimed ({surviving} survive)",
                            preempted.len()
                        ),
                    });
                }
            }
            TraceEvent::VmCompStart {
                task, sub, node, ..
            } if preempted.contains(&(*sub, *node)) => {
                out.push(Violation {
                    code: REPLAN,
                    seq: r.seq,
                    detail: format!(
                        "'{task}' started a component on sub {sub} node {node} after \
                         that node was reclaimed"
                    ),
                });
            }
            TraceEvent::CompRetry {
                task, sub, node, ..
            } if preempted.contains(&(*sub, *node)) => {
                out.push(Violation {
                    code: REPLAN,
                    seq: r.seq,
                    detail: format!(
                        "'{task}' retried onto sub {sub} node {node}, which was \
                         already reclaimed"
                    ),
                });
            }
            _ => {}
        }
    }
}

/// Every retry must chain to an injected cause that precedes it in the
/// trace: a `CompRetry` to a `SpotPreempt` with the same fault id, a
/// `FaultRetry` to a `FaultInjected` with the same fault id. An unexplained
/// retry means the platforms did recovery work no fault asked for.
fn check_fault_attrib(records: &[TraceRecord], out: &mut Vec<Violation>) {
    let mut preempt_ids: std::collections::BTreeSet<u64> = Default::default();
    let mut injected_ids: std::collections::BTreeSet<u64> = Default::default();
    for r in records {
        match &r.event {
            TraceEvent::SpotPreempt { id, .. } => {
                preempt_ids.insert(*id);
            }
            TraceEvent::FaultInjected { id, .. } => {
                injected_ids.insert(*id);
            }
            TraceEvent::CompRetry { id, task, .. } if !preempt_ids.contains(id) => {
                out.push(Violation {
                    code: FAULT_ATTRIB,
                    seq: r.seq,
                    detail: format!(
                        "'{task}' retried citing fault {id}, but no preemption \
                         with that id precedes it"
                    ),
                });
            }
            TraceEvent::FaultRetry { id, op } if !injected_ids.contains(id) => {
                out.push(Violation {
                    code: FAULT_ATTRIB,
                    seq: r.seq,
                    detail: format!(
                        "a storage {op} retried citing fault {id}, but no fault \
                         window with that id was activated before it"
                    ),
                });
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::CheckedWorkflow;
    use crate::exec::{execute, Release};
    use mashup_dag::{
        DependencyPattern, PlacementPlan, Platform, Task, TaskProfile, WorkflowBuilder,
    };
    use mashup_sim::Tracer;

    fn wf() -> Workflow {
        let mut b = WorkflowBuilder::new("oracle-wf");
        b.initial_input_bytes(1.0e9);
        b.begin_phase();
        let a = b.add_task(Task::new(
            "wide",
            64,
            TaskProfile::trivial().compute(5.0).io(1.0e7, 1.0e7),
        ));
        b.begin_phase();
        let m = b.add_task(Task::new(
            "merge",
            1,
            TaskProfile::trivial().compute(10.0).io(6.4e8, 1.0e7),
        ));
        b.depend(m, a, DependencyPattern::AllToAll);
        b.build()
    }

    fn run_traced(
        cfg: &MashupConfig,
        w: &Workflow,
        plan: &PlacementPlan,
        tracer: &Tracer,
    ) -> WorkflowReport {
        let w = CheckedWorkflow::borrowed(w).expect("clean workflow");
        execute(cfg, &w, plan, None, Release::PhaseBarrier, "test", tracer).expect("clean inputs")
    }

    fn traced(
        plan_platform: Platform,
    ) -> (MashupConfig, Workflow, WorkflowReport, Vec<TraceRecord>) {
        let cfg = MashupConfig::aws(4);
        let w = wf();
        let plan = PlacementPlan::uniform(&w, plan_platform);
        let tracer = Tracer::new();
        let report = run_traced(&cfg, &w, &plan, &tracer);
        let records = tracer.take();
        (cfg, w, report, records)
    }

    #[test]
    fn clean_serverless_run_has_no_violations() {
        let (cfg, w, report, records) = traced(Platform::Serverless);
        assert!(!records.is_empty());
        let v = check(&cfg, &w, &report, &records);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn clean_vm_run_has_no_violations() {
        let (cfg, w, report, records) = traced(Platform::VmCluster);
        let v = check(&cfg, &w, &report, &records);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn reordered_task_start_is_a_precedence_violation() {
        let (cfg, w, report, mut records) = traced(Platform::VmCluster);
        // Move the consumer's start before the producer's end by swapping
        // their sequence numbers.
        let start = records
            .iter()
            .position(|r| matches!(&r.event, TraceEvent::TaskStart { task, .. } if task == "merge"))
            .expect("merge started");
        let end = records
            .iter()
            .position(|r| matches!(&r.event, TraceEvent::TaskEnd { task } if task == "wide"))
            .expect("wide ended");
        let (s, e) = (records[start].seq, records[end].seq);
        records[start].seq = e;
        records[end].seq = s;
        let v = check(&cfg, &w, &report, &records);
        assert!(v.iter().any(|v| v.code == PRECEDENCE), "{v:?}");
    }

    #[test]
    fn inflated_vm_load_is_a_capacity_violation() {
        let (cfg, w, report, mut records) = traced(Platform::VmCluster);
        let r = records
            .iter_mut()
            .find(|r| matches!(&r.event, TraceEvent::VmCompStart { .. }))
            .expect("vm components ran");
        if let TraceEvent::VmCompStart { load, .. } = &mut r.event {
            *load += 7;
        }
        let v = check(&cfg, &w, &report, &records);
        assert!(v.iter().any(|v| v.code == CAPACITY), "{v:?}");
    }

    #[test]
    fn scaled_billing_is_a_cost_violation() {
        let (cfg, w, report, mut records) = traced(Platform::Serverless);
        let r = records
            .iter_mut()
            .find(|r| matches!(&r.event, TraceEvent::FnEnd { .. }))
            .expect("functions completed");
        if let TraceEvent::FnEnd { billed_secs, .. } = &mut r.event {
            *billed_secs *= 2.0;
        }
        let v = check(&cfg, &w, &report, &records);
        assert!(v.iter().any(|v| v.code == COST), "{v:?}");
    }

    #[test]
    fn flipped_cold_flag_is_a_warm_start_violation() {
        let (cfg, w, report, mut records) = traced(Platform::Serverless);
        let r = records
            .iter_mut()
            .find(|r| matches!(&r.event, TraceEvent::FnStart { cold: true, .. }))
            .expect("cold starts happened");
        if let TraceEvent::FnStart { cold, .. } = &mut r.event {
            *cold = false;
        }
        let v = check(&cfg, &w, &report, &records);
        assert!(v.iter().any(|v| v.code == WARM_START), "{v:?}");
    }

    /// An all-VM run under a single scheduled preemption with the adaptive
    /// controller on: exercises retries, spot billing, and a replan.
    fn traced_chaos() -> (MashupConfig, Workflow, WorkflowReport, Vec<TraceRecord>) {
        let mut cfg = MashupConfig::aws(4);
        let mut plan = mashup_cloud::FaultPlan::empty(5);
        plan.faults.push(mashup_cloud::Fault::Preempt {
            at_secs: 3.0,
            node: 1,
        });
        cfg.chaos = Some(crate::chaos::ChaosSpec::new(plan).with_adaptive(true));
        let w = wf();
        let plan = PlacementPlan::uniform(&w, Platform::VmCluster);
        let tracer = Tracer::new();
        let report = run_traced(&cfg, &w, &plan, &tracer);
        (cfg, w, report, tracer.take())
    }

    #[test]
    fn clean_chaos_run_has_no_violations() {
        let (cfg, w, report, records) = traced_chaos();
        assert!(
            records
                .iter()
                .any(|r| matches!(&r.event, TraceEvent::SpotPreempt { .. })),
            "the scheduled preemption must appear in the trace"
        );
        assert!(
            records
                .iter()
                .any(|r| matches!(&r.event, TraceEvent::Replan { .. })),
            "capacity loss must trigger a replan at the phase boundary"
        );
        let v = check(&cfg, &w, &report, &records);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn oversized_replan_is_a_replan_violation() {
        let (cfg, w, report, mut records) = traced_chaos();
        let r = records
            .iter_mut()
            .find(|r| matches!(&r.event, TraceEvent::Replan { .. }))
            .expect("a replan was recorded");
        if let TraceEvent::Replan { nodes_after, .. } = &mut r.event {
            *nodes_after += 1; // claims capacity the preemption removed
        }
        let v = check(&cfg, &w, &report, &records);
        assert!(v.iter().any(|v| v.code == REPLAN), "{v:?}");
    }

    #[test]
    fn retry_on_a_reclaimed_node_is_a_replan_violation() {
        let (cfg, w, report, mut records) = traced_chaos();
        let reclaimed = records
            .iter()
            .find_map(|r| match &r.event {
                TraceEvent::SpotPreempt { sub, node, .. } => Some((*sub, *node)),
                _ => None,
            })
            .expect("a preemption was recorded");
        let r = records
            .iter_mut()
            .find(|r| matches!(&r.event, TraceEvent::CompRetry { .. }))
            .expect("the preemption forced retries");
        if let TraceEvent::CompRetry { sub, node, .. } = &mut r.event {
            (*sub, *node) = reclaimed;
        }
        let v = check(&cfg, &w, &report, &records);
        assert!(v.iter().any(|v| v.code == REPLAN), "{v:?}");
    }

    #[test]
    fn unattributed_retries_are_fault_attrib_violations() {
        let (cfg, w, report, mut records) = traced_chaos();
        // Point a real retry at a fault id that was never injected.
        let r = records
            .iter_mut()
            .find(|r| matches!(&r.event, TraceEvent::CompRetry { .. }))
            .expect("the preemption forced retries");
        if let TraceEvent::CompRetry { id, .. } = &mut r.event {
            *id += 40;
        }
        // And append a storage retry with no fault window behind it.
        let last = records.last().expect("nonempty trace");
        records.push(TraceRecord {
            seq: last.seq + 1,
            t_secs: last.t_secs,
            event: TraceEvent::FaultRetry {
                id: 7,
                op: "get".into(),
            },
        });
        let v = check(&cfg, &w, &report, &records);
        let hits = v.iter().filter(|v| v.code == FAULT_ATTRIB).count();
        assert_eq!(hits, 2, "{v:?}");
    }

    #[test]
    fn resume_without_checkpoint_is_a_window_violation() {
        let cfg = MashupConfig::aws(4);
        let mut shortened = cfg.clone();
        // A 100 s cap with 150 s of compute forces a checkpoint chain.
        shortened.provider.faas.timeout_secs = 100.0;
        let mut b = WorkflowBuilder::new("ckpt-wf");
        b.initial_input_bytes(1.0e6);
        b.begin_phase();
        b.add_task(Task::new(
            "long",
            2,
            TaskProfile::trivial().compute(150.0).checkpoint(5.0e7),
        ));
        let w = b.build();
        let plan = PlacementPlan::uniform(&w, Platform::Serverless);
        let tracer = Tracer::new();
        let report = run_traced(&shortened, &w, &plan, &tracer);
        let mut records = tracer.take();
        assert!(
            records
                .iter()
                .any(|r| matches!(&r.event, TraceEvent::CheckpointResume { .. })),
            "the shortened cap must force a resume"
        );
        let clean = check(&shortened, &w, &report, &records);
        assert!(clean.is_empty(), "{clean:?}");
        // Drop every checkpoint record: resumes now restore unrecorded state.
        records.retain(|r| !matches!(&r.event, TraceEvent::Checkpoint { .. }));
        let v = check(&shortened, &w, &report, &records);
        assert!(v.iter().any(|v| v.code == CKPT_WINDOW), "{v:?}");
    }
}
