//! The execution flight recorder.
//!
//! A [`Tracer`] is a cheap, cloneable handle to an optional in-memory event
//! buffer. When *off* (the default) every emission is a branch on a `None`
//! and the simulation runs exactly as it would without the recorder — the
//! observer must never perturb the observed run ("observer purity", enforced
//! by property tests in `mashup-core`). When *on*, domain layers append
//! typed [`TraceEvent`] records stamped with the simulated time and a
//! monotone sequence number, so equal-instant records keep their emission
//! order and a recorded trace is bit-for-bit deterministic for a given seed.
//!
//! Two recording levels exist:
//!
//! * **flow** ([`Tracer::new`]) — the domain records every checker and
//!   golden fixture consumes: function invocations, checkpoint chains,
//!   VM component grants, store traffic, task/phase lifecycle;
//! * **verbose** ([`Tracer::verbose`]) — adds engine-level instants (event
//!   dispatch, individual link transfers) for deep-dive
//!   timelines; too chatty for fixtures.
//!
//! Serialization is deliberately hand-rolled and stable: the compact JSONL
//! form ([`to_jsonl`]/[`from_jsonl`]) writes one flat JSON object per record
//! with floats in Rust's shortest round-trip formatting, so traces diff
//! cleanly and parse back bit-identically. [`to_chrome_trace`] converts the
//! same records into Chrome's `trace_event` JSON for `chrome://tracing` /
//! Perfetto.

use crate::time::SimTime;
use std::sync::{Arc, Mutex, MutexGuard};

/// Why a function invocation was killed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillReason {
    /// The platform watchdog ended the invocation at its timeout deadline.
    Watchdog,
    /// An injected microVM failure ended it mid-window.
    Injected,
}

impl KillReason {
    /// Stable string form used in serialized traces.
    pub fn as_str(self) -> &'static str {
        match self {
            KillReason::Watchdog => "watchdog",
            KillReason::Injected => "injected",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "watchdog" => Some(KillReason::Watchdog),
            "injected" => Some(KillReason::Injected),
            _ => None,
        }
    }
}

/// One typed flight-recorder event.
///
/// Labels are plain strings because the engine is domain-free; the cloud and
/// core layers put task names, code keys, and platform labels in them.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// Engine dispatched one event (verbose level only).
    Dispatch {
        /// Events processed so far, including this one.
        events: u64,
    },
    /// A transfer started on a shared link (verbose level only).
    TransferStart {
        /// Link name.
        link: String,
        /// Link-local transfer id.
        id: u64,
        /// Transfer size in bytes.
        bytes: f64,
    },
    /// A transfer finished on a shared link (verbose level only).
    TransferEnd {
        /// Link name.
        link: String,
        /// Link-local transfer id.
        id: u64,
    },
    /// A function invocation was admitted and assigned a microVM.
    FnStart {
        /// Platform-wide invocation id.
        id: u64,
        /// Code identity (warm pools key on this).
        code: String,
        /// True for a cold start, false for a warm-pool hit.
        cold: bool,
        /// Start latency in seconds (cold or warm).
        latency_secs: f64,
        /// Instant the function body becomes runnable, seconds.
        ready_secs: f64,
        /// Watchdog deadline, seconds.
        deadline_secs: f64,
    },
    /// A function invocation completed and was billed.
    FnEnd {
        /// Platform-wide invocation id.
        id: u64,
        /// Billed function-seconds for this invocation.
        billed_secs: f64,
    },
    /// A function invocation was killed (watchdog or injected failure).
    FnKill {
        /// Platform-wide invocation id.
        id: u64,
        /// What killed it.
        reason: KillReason,
        /// Billed function-seconds up to the kill.
        billed_secs: f64,
    },
    /// A microVM was pre-warmed into the pool (billed as a cold start).
    FnPrewarm {
        /// Code identity the warm entry is usable for.
        code: String,
        /// Billed cold-start latency, seconds.
        latency_secs: f64,
        /// Instant the entry becomes available, seconds.
        warm_secs: f64,
        /// Instant the entry expires, seconds.
        expires_secs: f64,
    },
    /// A FaaS execution segment began running inside an invocation.
    SegmentStart {
        /// Task label (code key).
        task: String,
        /// Component chain id within the task.
        chain: u32,
        /// Invocation id hosting this segment.
        inv: u64,
        /// True when the segment resumes from a checkpoint.
        resume: bool,
        /// Memory footprint of the component, GiB.
        mem_gb: f64,
    },
    /// A segment finished writing a checkpoint before the time cap.
    Checkpoint {
        /// Task label.
        task: String,
        /// Component chain id.
        chain: u32,
        /// Invocation id that wrote the checkpoint.
        inv: u64,
        /// Checkpoint size in bytes.
        bytes: f64,
        /// Compute seconds still owed after this checkpoint.
        remaining_secs: f64,
    },
    /// A successor segment restored the chain's last checkpoint.
    CheckpointResume {
        /// Task label.
        task: String,
        /// Component chain id.
        chain: u32,
        /// Invocation id doing the restore.
        inv: u64,
        /// Compute seconds the restored state still owes.
        remaining_secs: f64,
    },
    /// A VM-side component started computing on a node.
    VmCompStart {
        /// Task label.
        task: String,
        /// Sub-cluster index.
        sub: usize,
        /// Node index within the sub-cluster.
        node: usize,
        /// Components on the node after this one joined.
        load: usize,
        /// Memory footprint of the component, GiB.
        mem_gb: f64,
        /// Timeshare slowdown factor applied to this component.
        factor: f64,
        /// True when memory pressure (thrash) contributes to the factor.
        thrash: bool,
    },
    /// A VM-side component finished computing.
    VmCompEnd {
        /// Task label.
        task: String,
        /// Sub-cluster index.
        sub: usize,
        /// Node index within the sub-cluster.
        node: usize,
    },
    /// Cluster billing began (nodes provisioned).
    BillingStart {
        /// Number of nodes billed.
        nodes: usize,
    },
    /// Cluster billing stopped.
    BillingStop {
        /// Billed node-seconds for the whole span.
        node_seconds: f64,
    },
    /// An object-store read (GET batch) was issued.
    StoreGet {
        /// Bytes read.
        bytes: f64,
        /// GET requests issued (billed; doubled when retried).
        requests: u64,
        /// True when the primary failed and a replica served the read.
        retried: bool,
    },
    /// An object-store write (PUT batch) was issued.
    StorePut {
        /// Bytes written.
        bytes: f64,
        /// PUT requests issued (each billed once per replica).
        requests: u64,
        /// Replication factor the requests were billed at.
        replicas: u64,
    },
    /// A named object became readable in the store.
    ObjectPut {
        /// Object key.
        key: String,
        /// Object size in bytes.
        bytes: f64,
    },
    /// A named object was removed from the store.
    ObjectRemove {
        /// Object key.
        key: String,
    },
    /// A workflow phase began executing.
    PhaseStart {
        /// Phase index.
        phase: usize,
        /// Tasks in the phase.
        tasks: usize,
    },
    /// A task began executing.
    TaskStart {
        /// Task name.
        task: String,
        /// Phase index.
        phase: usize,
        /// Platform label (`vm` or `serverless`).
        platform: String,
        /// Component count.
        components: usize,
    },
    /// A task finished executing (all components done, outputs readable).
    TaskEnd {
        /// Task name.
        task: String,
    },
    /// The PDC committed a placement decision for one task.
    PdcDecision {
        /// Task name.
        task: String,
        /// Profiled cluster-side time, seconds.
        t_vm_secs: f64,
        /// Estimated serverless time, seconds (infinite when forced to VM).
        t_serverless_secs: f64,
        /// Chosen platform label.
        platform: String,
        /// Forcing rule, or empty when the argmin decided.
        forced: String,
    },
    /// A PDC profiling stage was served by the planning cache (or not).
    PdcCache {
        /// Stage name: `calibration`, `vm-profile`, or `probe`.
        section: String,
        /// True when the stage was a cache hit.
        hit: bool,
    },
    /// A spot VM node was reclaimed by the provider (seeded fault plan).
    SpotPreempt {
        /// Fault id within the plan (retries chain to this).
        id: u64,
        /// Sub-cluster index of the reclaimed node.
        sub: usize,
        /// Node index within the sub-cluster.
        node: usize,
    },
    /// A scheduled storage/network fault window became active.
    FaultInjected {
        /// Fault id within the plan (retries chain to this).
        id: u64,
        /// Fault kind: `storage-error`, `storage-latency`, or `link-degrade`.
        kind: String,
        /// Instant the window deactivates, seconds.
        until_secs: f64,
        /// Kind-specific magnitude: error probability, extra latency in
        /// seconds, or bandwidth factor.
        magnitude: f64,
    },
    /// A store operation was retried or delayed by an injected fault.
    FaultRetry {
        /// Id of the injected fault that hit the operation.
        id: u64,
        /// Operation kind: `get` or `put`.
        op: String,
    },
    /// A VM component lost to a preemption restarted on a surviving node.
    CompRetry {
        /// Id of the preemption fault that killed the attempt.
        id: u64,
        /// Task label.
        task: String,
        /// Sub-cluster index the retry runs in.
        sub: usize,
        /// Surviving node the retry was placed on.
        node: usize,
    },
    /// The online controller re-placed the remaining subgraph.
    Replan {
        /// First phase the new placement applies to.
        phase: usize,
        /// Trigger: `preemption` or `straggler`.
        reason: String,
        /// Cluster nodes the previous plan assumed.
        nodes_before: usize,
        /// Surviving nodes the new plan was sized for.
        nodes_after: usize,
        /// Tasks whose platform changed.
        moved: usize,
    },
    /// Per-node spot billing settled at the end of a run (piecewise price).
    SpotBill {
        /// Sub-cluster index.
        sub: usize,
        /// Node index within the sub-cluster.
        node: usize,
        /// Node-seconds billed for this node (to preemption or run end).
        node_seconds: f64,
        /// Dollars charged across the node's price segments.
        dollars: f64,
    },
}

/// One recorded event: sequence number, simulated time, payload.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Monotone emission index (orders equal-instant records).
    pub seq: u64,
    /// Simulated time of the event, seconds.
    pub t_secs: f64,
    /// The event payload.
    pub event: TraceEvent,
}

struct TraceBuf {
    /// Fixed at construction, so reading it takes no lock.
    verbose: bool,
    log: Mutex<TraceLog>,
}

#[derive(Default)]
struct TraceLog {
    records: Vec<TraceRecord>,
    next_seq: u64,
}

/// A cheap handle to the flight recorder. Cloning shares the buffer; the
/// default handle is off and records nothing. The one simulation handle
/// that outlives a run: callers clone it into a run and drain it after.
#[derive(Clone, Default)]
pub struct Tracer {
    buf: Option<Arc<TraceBuf>>,
}

impl Tracer {
    /// A disabled recorder: every emission is a no-op.
    pub fn off() -> Self {
        Tracer { buf: None }
    }

    fn with_level(verbose: bool) -> Self {
        Tracer {
            buf: Some(Arc::new(TraceBuf {
                verbose,
                log: Mutex::default(),
            })),
        }
    }

    /// A recording tracer at flow level (domain records only).
    pub fn new() -> Self {
        Self::with_level(false)
    }

    /// A recording tracer that also keeps engine-level instants (event
    /// dispatch, link transfers).
    pub fn verbose() -> Self {
        Self::with_level(true)
    }

    /// The buffer, when recording. A panic while the lock was held leaves
    /// the log as complete as it got, so a poisoned lock is still read.
    fn log(&self) -> Option<MutexGuard<'_, TraceLog>> {
        self.buf
            .as_ref()
            .map(|b| b.log.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// True when the recorder is capturing events.
    pub fn is_on(&self) -> bool {
        self.buf.is_some()
    }

    /// True when engine-level instants are captured too.
    pub fn is_verbose(&self) -> bool {
        self.buf.as_ref().is_some_and(|b| b.verbose)
    }

    /// Records `event` at simulated instant `now`. No-op when off.
    pub fn emit(&self, now: SimTime, event: TraceEvent) {
        if let Some(mut log) = self.log() {
            let seq = log.next_seq;
            log.next_seq += 1;
            log.records.push(TraceRecord {
                seq,
                t_secs: now.as_secs(),
                event,
            });
        }
    }

    /// Records an engine-level instant; kept only at verbose level.
    /// The closure defers payload construction so the flow level pays
    /// nothing for verbose-only call sites.
    pub fn emit_verbose(&self, now: SimTime, event: impl FnOnce() -> TraceEvent) {
        if self.is_verbose() {
            self.emit(now, event());
        }
    }

    /// Number of records captured so far (0 when off).
    pub fn len(&self) -> usize {
        self.log().map_or(0, |log| log.records.len())
    }

    /// True when no records have been captured.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drains and returns all captured records (empty when off). The
    /// sequence counter keeps running, so a later drain stays ordered.
    pub fn take(&self) -> Vec<TraceRecord> {
        self.log()
            .map_or_else(Vec::new, |mut log| std::mem::take(&mut log.records))
    }

    /// Clones out the captured records without draining them.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        self.log().map_or_else(Vec::new, |log| log.records.clone())
    }
}

// --------------------------------------------------------------------------
// Compact JSONL form
// --------------------------------------------------------------------------

fn push_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Flat JSON-object builder for one record line. Floats use `{:?}`
/// (shortest round-trip), so written traces parse back bit-identically.
struct Line(String);

impl Line {
    fn new(seq: u64, t_secs: f64, ev: &str) -> Self {
        Line(format!("{{\"seq\":{seq},\"t\":{t_secs:?},\"ev\":\"{ev}\""))
    }
    fn s(mut self, key: &str, v: &str) -> Self {
        use std::fmt::Write as _;
        let _ = write!(self.0, ",\"{key}\":");
        push_escaped(v, &mut self.0);
        self
    }
    fn f(mut self, key: &str, v: f64) -> Self {
        use std::fmt::Write as _;
        let _ = write!(self.0, ",\"{key}\":{v:?}");
        self
    }
    fn u(mut self, key: &str, v: u64) -> Self {
        use std::fmt::Write as _;
        let _ = write!(self.0, ",\"{key}\":{v}");
        self
    }
    fn b(mut self, key: &str, v: bool) -> Self {
        use std::fmt::Write as _;
        let _ = write!(self.0, ",\"{key}\":{v}");
        self
    }
    fn finish(mut self) -> String {
        self.0.push('}');
        self.0
    }
}

/// Serializes one record to its compact JSONL line (no trailing newline).
pub fn record_to_json(r: &TraceRecord) -> String {
    let line = |ev: &str| Line::new(r.seq, r.t_secs, ev);
    match &r.event {
        TraceEvent::Dispatch { events } => line("Dispatch").u("events", *events).finish(),
        TraceEvent::TransferStart { link, id, bytes } => line("TransferStart")
            .s("link", link)
            .u("id", *id)
            .f("bytes", *bytes)
            .finish(),
        TraceEvent::TransferEnd { link, id } => {
            line("TransferEnd").s("link", link).u("id", *id).finish()
        }
        TraceEvent::FnStart {
            id,
            code,
            cold,
            latency_secs,
            ready_secs,
            deadline_secs,
        } => line("FnStart")
            .u("id", *id)
            .s("code", code)
            .b("cold", *cold)
            .f("latency", *latency_secs)
            .f("ready", *ready_secs)
            .f("deadline", *deadline_secs)
            .finish(),
        TraceEvent::FnEnd { id, billed_secs } => line("FnEnd")
            .u("id", *id)
            .f("billed", *billed_secs)
            .finish(),
        TraceEvent::FnKill {
            id,
            reason,
            billed_secs,
        } => line("FnKill")
            .u("id", *id)
            .s("reason", reason.as_str())
            .f("billed", *billed_secs)
            .finish(),
        TraceEvent::FnPrewarm {
            code,
            latency_secs,
            warm_secs,
            expires_secs,
        } => line("FnPrewarm")
            .s("code", code)
            .f("latency", *latency_secs)
            .f("warm", *warm_secs)
            .f("expires", *expires_secs)
            .finish(),
        TraceEvent::SegmentStart {
            task,
            chain,
            inv,
            resume,
            mem_gb,
        } => line("SegmentStart")
            .s("task", task)
            .u("chain", u64::from(*chain))
            .u("inv", *inv)
            .b("resume", *resume)
            .f("mem_gb", *mem_gb)
            .finish(),
        TraceEvent::Checkpoint {
            task,
            chain,
            inv,
            bytes,
            remaining_secs,
        } => line("Checkpoint")
            .s("task", task)
            .u("chain", u64::from(*chain))
            .u("inv", *inv)
            .f("bytes", *bytes)
            .f("remaining", *remaining_secs)
            .finish(),
        TraceEvent::CheckpointResume {
            task,
            chain,
            inv,
            remaining_secs,
        } => line("CheckpointResume")
            .s("task", task)
            .u("chain", u64::from(*chain))
            .u("inv", *inv)
            .f("remaining", *remaining_secs)
            .finish(),
        TraceEvent::VmCompStart {
            task,
            sub,
            node,
            load,
            mem_gb,
            factor,
            thrash,
        } => line("VmCompStart")
            .s("task", task)
            .u("sub", *sub as u64)
            .u("node", *node as u64)
            .u("load", *load as u64)
            .f("mem_gb", *mem_gb)
            .f("factor", *factor)
            .b("thrash", *thrash)
            .finish(),
        TraceEvent::VmCompEnd { task, sub, node } => line("VmCompEnd")
            .s("task", task)
            .u("sub", *sub as u64)
            .u("node", *node as u64)
            .finish(),
        TraceEvent::BillingStart { nodes } => {
            line("BillingStart").u("nodes", *nodes as u64).finish()
        }
        TraceEvent::BillingStop { node_seconds } => line("BillingStop")
            .f("node_seconds", *node_seconds)
            .finish(),
        TraceEvent::StoreGet {
            bytes,
            requests,
            retried,
        } => line("StoreGet")
            .f("bytes", *bytes)
            .u("requests", *requests)
            .b("retried", *retried)
            .finish(),
        TraceEvent::StorePut {
            bytes,
            requests,
            replicas,
        } => line("StorePut")
            .f("bytes", *bytes)
            .u("requests", *requests)
            .u("replicas", *replicas)
            .finish(),
        TraceEvent::ObjectPut { key, bytes } => {
            line("ObjectPut").s("key", key).f("bytes", *bytes).finish()
        }
        TraceEvent::ObjectRemove { key } => line("ObjectRemove").s("key", key).finish(),
        TraceEvent::PhaseStart { phase, tasks } => line("PhaseStart")
            .u("phase", *phase as u64)
            .u("tasks", *tasks as u64)
            .finish(),
        TraceEvent::TaskStart {
            task,
            phase,
            platform,
            components,
        } => line("TaskStart")
            .s("task", task)
            .u("phase", *phase as u64)
            .s("platform", platform)
            .u("components", *components as u64)
            .finish(),
        TraceEvent::TaskEnd { task } => line("TaskEnd").s("task", task).finish(),
        TraceEvent::PdcDecision {
            task,
            t_vm_secs,
            t_serverless_secs,
            platform,
            forced,
        } => line("PdcDecision")
            .s("task", task)
            .f("t_vm", *t_vm_secs)
            .f("t_serverless", *t_serverless_secs)
            .s("platform", platform)
            .s("forced", forced)
            .finish(),
        TraceEvent::PdcCache { section, hit } => line("PdcCache")
            .s("section", section)
            .b("hit", *hit)
            .finish(),
        TraceEvent::SpotPreempt { id, sub, node } => line("SpotPreempt")
            .u("id", *id)
            .u("sub", *sub as u64)
            .u("node", *node as u64)
            .finish(),
        TraceEvent::FaultInjected {
            id,
            kind,
            until_secs,
            magnitude,
        } => line("FaultInjected")
            .u("id", *id)
            .s("kind", kind)
            .f("until", *until_secs)
            .f("magnitude", *magnitude)
            .finish(),
        TraceEvent::FaultRetry { id, op } => line("FaultRetry").u("id", *id).s("op", op).finish(),
        TraceEvent::CompRetry {
            id,
            task,
            sub,
            node,
        } => line("CompRetry")
            .u("id", *id)
            .s("task", task)
            .u("sub", *sub as u64)
            .u("node", *node as u64)
            .finish(),
        TraceEvent::Replan {
            phase,
            reason,
            nodes_before,
            nodes_after,
            moved,
        } => line("Replan")
            .u("phase", *phase as u64)
            .s("reason", reason)
            .u("nodes_before", *nodes_before as u64)
            .u("nodes_after", *nodes_after as u64)
            .u("moved", *moved as u64)
            .finish(),
        TraceEvent::SpotBill {
            sub,
            node,
            node_seconds,
            dollars,
        } => line("SpotBill")
            .u("sub", *sub as u64)
            .u("node", *node as u64)
            .f("node_seconds", *node_seconds)
            .f("dollars", *dollars)
            .finish(),
    }
}

/// Serializes records to the compact JSONL form: one record per line,
/// stable field order, shortest round-trip floats, trailing newline.
pub fn to_jsonl(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&record_to_json(r));
        out.push('\n');
    }
    out
}

fn req<'v>(v: &'v serde::Value, key: &str, line: usize) -> Result<&'v serde::Value, String> {
    v.get(key)
        .ok_or_else(|| format!("line {line}: missing field '{key}'"))
}

fn req_f64(v: &serde::Value, key: &str, line: usize) -> Result<f64, String> {
    req(v, key, line)?
        .as_f64()
        .ok_or_else(|| format!("line {line}: field '{key}' is not a number"))
}

fn req_u64(v: &serde::Value, key: &str, line: usize) -> Result<u64, String> {
    req(v, key, line)?
        .as_u64()
        .ok_or_else(|| format!("line {line}: field '{key}' is not an integer"))
}

fn req_usize(v: &serde::Value, key: &str, line: usize) -> Result<usize, String> {
    usize::try_from(req_u64(v, key, line)?).map_err(|_| format!("line {line}: '{key}' overflows"))
}

fn req_bool(v: &serde::Value, key: &str, line: usize) -> Result<bool, String> {
    req(v, key, line)?
        .as_bool()
        .ok_or_else(|| format!("line {line}: field '{key}' is not a bool"))
}

fn req_str(v: &serde::Value, key: &str, line: usize) -> Result<String, String> {
    Ok(req(v, key, line)?
        .as_str()
        .ok_or_else(|| format!("line {line}: field '{key}' is not a string"))?
        .to_string())
}

/// Parses the compact JSONL form back into records. Unknown event names are
/// an error, so readers notice vocabulary drift instead of skipping data.
pub fn from_jsonl(text: &str) -> Result<Vec<TraceRecord>, String> {
    let mut out = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let n = idx + 1;
        if raw.trim().is_empty() {
            continue;
        }
        let v: serde::Value =
            serde_json::from_str(raw).map_err(|e| format!("line {n}: invalid JSON: {e}"))?;
        let ev = req_str(&v, "ev", n)?;
        let event = match ev.as_str() {
            "Dispatch" => TraceEvent::Dispatch {
                events: req_u64(&v, "events", n)?,
            },
            "TransferStart" => TraceEvent::TransferStart {
                link: req_str(&v, "link", n)?,
                id: req_u64(&v, "id", n)?,
                bytes: req_f64(&v, "bytes", n)?,
            },
            "TransferEnd" => TraceEvent::TransferEnd {
                link: req_str(&v, "link", n)?,
                id: req_u64(&v, "id", n)?,
            },
            "FnStart" => TraceEvent::FnStart {
                id: req_u64(&v, "id", n)?,
                code: req_str(&v, "code", n)?,
                cold: req_bool(&v, "cold", n)?,
                latency_secs: req_f64(&v, "latency", n)?,
                ready_secs: req_f64(&v, "ready", n)?,
                deadline_secs: req_f64(&v, "deadline", n)?,
            },
            "FnEnd" => TraceEvent::FnEnd {
                id: req_u64(&v, "id", n)?,
                billed_secs: req_f64(&v, "billed", n)?,
            },
            "FnKill" => TraceEvent::FnKill {
                id: req_u64(&v, "id", n)?,
                reason: KillReason::parse(&req_str(&v, "reason", n)?)
                    .ok_or_else(|| format!("line {n}: unknown kill reason"))?,
                billed_secs: req_f64(&v, "billed", n)?,
            },
            "FnPrewarm" => TraceEvent::FnPrewarm {
                code: req_str(&v, "code", n)?,
                latency_secs: req_f64(&v, "latency", n)?,
                warm_secs: req_f64(&v, "warm", n)?,
                expires_secs: req_f64(&v, "expires", n)?,
            },
            "SegmentStart" => TraceEvent::SegmentStart {
                task: req_str(&v, "task", n)?,
                chain: req_u64(&v, "chain", n)? as u32,
                inv: req_u64(&v, "inv", n)?,
                resume: req_bool(&v, "resume", n)?,
                mem_gb: req_f64(&v, "mem_gb", n)?,
            },
            "Checkpoint" => TraceEvent::Checkpoint {
                task: req_str(&v, "task", n)?,
                chain: req_u64(&v, "chain", n)? as u32,
                inv: req_u64(&v, "inv", n)?,
                bytes: req_f64(&v, "bytes", n)?,
                remaining_secs: req_f64(&v, "remaining", n)?,
            },
            "CheckpointResume" => TraceEvent::CheckpointResume {
                task: req_str(&v, "task", n)?,
                chain: req_u64(&v, "chain", n)? as u32,
                inv: req_u64(&v, "inv", n)?,
                remaining_secs: req_f64(&v, "remaining", n)?,
            },
            "VmCompStart" => TraceEvent::VmCompStart {
                task: req_str(&v, "task", n)?,
                sub: req_usize(&v, "sub", n)?,
                node: req_usize(&v, "node", n)?,
                load: req_usize(&v, "load", n)?,
                mem_gb: req_f64(&v, "mem_gb", n)?,
                factor: req_f64(&v, "factor", n)?,
                thrash: req_bool(&v, "thrash", n)?,
            },
            "VmCompEnd" => TraceEvent::VmCompEnd {
                task: req_str(&v, "task", n)?,
                sub: req_usize(&v, "sub", n)?,
                node: req_usize(&v, "node", n)?,
            },
            "BillingStart" => TraceEvent::BillingStart {
                nodes: req_usize(&v, "nodes", n)?,
            },
            "BillingStop" => TraceEvent::BillingStop {
                node_seconds: req_f64(&v, "node_seconds", n)?,
            },
            "StoreGet" => TraceEvent::StoreGet {
                bytes: req_f64(&v, "bytes", n)?,
                requests: req_u64(&v, "requests", n)?,
                retried: req_bool(&v, "retried", n)?,
            },
            "StorePut" => TraceEvent::StorePut {
                bytes: req_f64(&v, "bytes", n)?,
                requests: req_u64(&v, "requests", n)?,
                replicas: req_u64(&v, "replicas", n)?,
            },
            "ObjectPut" => TraceEvent::ObjectPut {
                key: req_str(&v, "key", n)?,
                bytes: req_f64(&v, "bytes", n)?,
            },
            "ObjectRemove" => TraceEvent::ObjectRemove {
                key: req_str(&v, "key", n)?,
            },
            "PhaseStart" => TraceEvent::PhaseStart {
                phase: req_usize(&v, "phase", n)?,
                tasks: req_usize(&v, "tasks", n)?,
            },
            "TaskStart" => TraceEvent::TaskStart {
                task: req_str(&v, "task", n)?,
                phase: req_usize(&v, "phase", n)?,
                platform: req_str(&v, "platform", n)?,
                components: req_usize(&v, "components", n)?,
            },
            "TaskEnd" => TraceEvent::TaskEnd {
                task: req_str(&v, "task", n)?,
            },
            "PdcDecision" => TraceEvent::PdcDecision {
                task: req_str(&v, "task", n)?,
                t_vm_secs: req_f64(&v, "t_vm", n)?,
                t_serverless_secs: req_f64(&v, "t_serverless", n)?,
                platform: req_str(&v, "platform", n)?,
                forced: req_str(&v, "forced", n)?,
            },
            "PdcCache" => TraceEvent::PdcCache {
                section: req_str(&v, "section", n)?,
                hit: req_bool(&v, "hit", n)?,
            },
            "SpotPreempt" => TraceEvent::SpotPreempt {
                id: req_u64(&v, "id", n)?,
                sub: req_usize(&v, "sub", n)?,
                node: req_usize(&v, "node", n)?,
            },
            "FaultInjected" => TraceEvent::FaultInjected {
                id: req_u64(&v, "id", n)?,
                kind: req_str(&v, "kind", n)?,
                until_secs: req_f64(&v, "until", n)?,
                magnitude: req_f64(&v, "magnitude", n)?,
            },
            "FaultRetry" => TraceEvent::FaultRetry {
                id: req_u64(&v, "id", n)?,
                op: req_str(&v, "op", n)?,
            },
            "CompRetry" => TraceEvent::CompRetry {
                id: req_u64(&v, "id", n)?,
                task: req_str(&v, "task", n)?,
                sub: req_usize(&v, "sub", n)?,
                node: req_usize(&v, "node", n)?,
            },
            "Replan" => TraceEvent::Replan {
                phase: req_usize(&v, "phase", n)?,
                reason: req_str(&v, "reason", n)?,
                nodes_before: req_usize(&v, "nodes_before", n)?,
                nodes_after: req_usize(&v, "nodes_after", n)?,
                moved: req_usize(&v, "moved", n)?,
            },
            "SpotBill" => TraceEvent::SpotBill {
                sub: req_usize(&v, "sub", n)?,
                node: req_usize(&v, "node", n)?,
                node_seconds: req_f64(&v, "node_seconds", n)?,
                dollars: req_f64(&v, "dollars", n)?,
            },
            other => return Err(format!("line {n}: unknown event '{other}'")),
        };
        out.push(TraceRecord {
            seq: req_u64(&v, "seq", n)?,
            t_secs: req_f64(&v, "t", n)?,
            event,
        });
    }
    Ok(out)
}

// --------------------------------------------------------------------------
// Chrome trace_event export
// --------------------------------------------------------------------------

/// Stable thread-id registry for the Chrome export: names get dense ids in
/// first-seen order (deterministic because records are ordered).
struct TidMap {
    ids: std::collections::BTreeMap<String, u64>,
}

impl TidMap {
    fn new() -> Self {
        TidMap {
            ids: std::collections::BTreeMap::new(),
        }
    }
    fn get(&mut self, name: &str) -> u64 {
        let next = self.ids.len() as u64;
        *self.ids.entry(name.to_string()).or_insert(next)
    }
}

fn chrome_event(
    out: &mut Vec<String>,
    name: &str,
    ph: &str,
    ts_secs: f64,
    pid: u64,
    tid: u64,
    args: &[(&str, String)],
) {
    let mut e = String::from("{\"name\":");
    push_escaped(name, &mut e);
    use std::fmt::Write as _;
    // Chrome timestamps are microseconds.
    let _ = write!(
        e,
        ",\"ph\":\"{ph}\",\"ts\":{:?},\"pid\":{pid},\"tid\":{tid}",
        ts_secs * 1e6
    );
    if ph == "i" {
        e.push_str(",\"s\":\"t\"");
    }
    if !args.is_empty() {
        e.push_str(",\"args\":{");
        for (i, (k, v)) in args.iter().enumerate() {
            if i > 0 {
                e.push(',');
            }
            push_escaped(k, &mut e);
            e.push(':');
            e.push_str(v);
        }
        e.push('}');
    }
    e.push('}');
    out.push(e);
}

/// Converts records into Chrome `trace_event` JSON (load in
/// `chrome://tracing` or <https://ui.perfetto.dev>). Tasks, VM components,
/// and function invocations become duration pairs on per-lane threads;
/// everything else becomes instant markers.
pub fn to_chrome_trace(records: &[TraceRecord]) -> String {
    let mut events = Vec::new();
    let mut task_tids = TidMap::new();
    for r in records {
        match &r.event {
            TraceEvent::TaskStart { task, platform, .. } => {
                let tid = task_tids.get(task);
                chrome_event(
                    &mut events,
                    task,
                    "B",
                    r.t_secs,
                    1,
                    tid,
                    &[("platform", format!("{platform:?}"))],
                );
            }
            TraceEvent::TaskEnd { task } => {
                let tid = task_tids.get(task);
                chrome_event(&mut events, task, "E", r.t_secs, 1, tid, &[]);
            }
            TraceEvent::VmCompStart {
                task,
                sub,
                node,
                factor,
                ..
            } => {
                let tid = (*sub as u64) * 1000 + *node as u64;
                chrome_event(
                    &mut events,
                    task,
                    "B",
                    r.t_secs,
                    2,
                    tid,
                    &[("factor", format!("{factor:?}"))],
                );
            }
            TraceEvent::VmCompEnd { task, sub, node } => {
                let tid = (*sub as u64) * 1000 + *node as u64;
                chrome_event(&mut events, task, "E", r.t_secs, 2, tid, &[]);
            }
            TraceEvent::FnStart { id, code, cold, .. } => {
                chrome_event(
                    &mut events,
                    code,
                    "B",
                    r.t_secs,
                    3,
                    id % 64,
                    &[("cold", cold.to_string()), ("inv", id.to_string())],
                );
            }
            TraceEvent::FnEnd { id, .. } => {
                chrome_event(&mut events, "fn", "E", r.t_secs, 3, id % 64, &[]);
            }
            TraceEvent::FnKill { id, reason, .. } => {
                chrome_event(
                    &mut events,
                    "fn",
                    "E",
                    r.t_secs,
                    3,
                    id % 64,
                    &[("kill", format!("\"{}\"", reason.as_str()))],
                );
            }
            other => {
                // Everything else is an instant marker named after the
                // serialized event tag.
                let json = record_to_json(r);
                let tag = match other {
                    TraceEvent::SegmentStart { .. } => "SegmentStart",
                    TraceEvent::Checkpoint { .. } => "Checkpoint",
                    TraceEvent::CheckpointResume { .. } => "CheckpointResume",
                    TraceEvent::FnPrewarm { .. } => "FnPrewarm",
                    TraceEvent::StoreGet { .. } => "StoreGet",
                    TraceEvent::StorePut { .. } => "StorePut",
                    TraceEvent::ObjectPut { .. } => "ObjectPut",
                    TraceEvent::ObjectRemove { .. } => "ObjectRemove",
                    TraceEvent::PhaseStart { .. } => "PhaseStart",
                    TraceEvent::BillingStart { .. } => "BillingStart",
                    TraceEvent::BillingStop { .. } => "BillingStop",
                    TraceEvent::PdcDecision { .. } => "PdcDecision",
                    TraceEvent::PdcCache { .. } => "PdcCache",
                    TraceEvent::SpotPreempt { .. } => "SpotPreempt",
                    TraceEvent::FaultInjected { .. } => "FaultInjected",
                    TraceEvent::FaultRetry { .. } => "FaultRetry",
                    TraceEvent::CompRetry { .. } => "CompRetry",
                    TraceEvent::Replan { .. } => "Replan",
                    TraceEvent::SpotBill { .. } => "SpotBill",
                    TraceEvent::Dispatch { .. } => "Dispatch",
                    TraceEvent::TransferStart { .. } => "TransferStart",
                    TraceEvent::TransferEnd { .. } => "TransferEnd",
                    _ => unreachable!("duration events handled above"),
                };
                chrome_event(
                    &mut events,
                    tag,
                    "i",
                    r.t_secs,
                    0,
                    0,
                    &[("record", format!("{json:?}"))],
                );
            }
        }
    }
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(e);
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<TraceRecord> {
        let t = Tracer::new();
        t.emit(
            SimTime::from_secs(0.0),
            TraceEvent::TaskStart {
                task: "a".into(),
                phase: 0,
                platform: "serverless".into(),
                components: 2,
            },
        );
        t.emit(
            SimTime::from_secs(0.5),
            TraceEvent::FnStart {
                id: 1,
                code: "a".into(),
                cold: true,
                latency_secs: 1.25,
                ready_secs: 1.75,
                deadline_secs: 901.75,
            },
        );
        t.emit(
            SimTime::from_secs(2.0),
            TraceEvent::Checkpoint {
                task: "a".into(),
                chain: 0,
                inv: 1,
                bytes: 1e6,
                remaining_secs: 33.333333333333336,
            },
        );
        t.emit(
            SimTime::from_secs(3.0),
            TraceEvent::FnKill {
                id: 1,
                reason: KillReason::Injected,
                billed_secs: 2.5,
            },
        );
        t.emit(
            SimTime::from_secs(9.0),
            TraceEvent::TaskEnd { task: "a".into() },
        );
        t.take()
    }

    #[test]
    fn off_tracer_records_nothing_and_is_cheap_to_clone() {
        let t = Tracer::off();
        assert!(!t.is_on());
        t.emit(
            SimTime::from_secs(1.0),
            TraceEvent::TaskEnd { task: "x".into() },
        );
        assert!(t.is_empty());
        assert_eq!(t.clone().take(), Vec::new());
        assert!(!Tracer::default().is_on());
    }

    #[test]
    fn clones_share_one_buffer_and_seq_is_monotone() {
        let a = Tracer::new();
        let b = a.clone();
        a.emit(
            SimTime::from_secs(1.0),
            TraceEvent::TaskEnd { task: "x".into() },
        );
        b.emit(
            SimTime::from_secs(1.0),
            TraceEvent::TaskEnd { task: "y".into() },
        );
        let records = a.take();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].seq, 0);
        assert_eq!(records[1].seq, 1);
        // Seq keeps counting across a drain.
        b.emit(
            SimTime::from_secs(2.0),
            TraceEvent::TaskEnd { task: "z".into() },
        );
        assert_eq!(b.take()[0].seq, 2);
    }

    #[test]
    fn verbose_instants_are_dropped_at_flow_level() {
        let flow = Tracer::new();
        flow.emit_verbose(SimTime::ZERO, || TraceEvent::Dispatch { events: 1 });
        assert!(flow.is_empty());
        let verbose = Tracer::verbose();
        verbose.emit_verbose(SimTime::ZERO, || TraceEvent::Dispatch { events: 1 });
        assert_eq!(verbose.len(), 1);
    }

    #[test]
    fn jsonl_round_trips_bit_for_bit() {
        let records = sample_records();
        let text = to_jsonl(&records);
        let parsed = from_jsonl(&text).expect("parse");
        assert_eq!(parsed, records);
        // Re-serializing the parsed records reproduces the bytes.
        assert_eq!(to_jsonl(&parsed), text);
    }

    #[test]
    fn jsonl_lines_are_flat_stable_objects() {
        let text = to_jsonl(&sample_records());
        let first = text.lines().next().expect("non-empty");
        assert!(first.starts_with("{\"seq\":0,\"t\":0.0,\"ev\":\"TaskStart\""));
        assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    #[test]
    fn parser_rejects_unknown_events_and_bad_fields() {
        assert!(from_jsonl("{\"seq\":0,\"t\":0.0,\"ev\":\"Nope\"}").is_err());
        assert!(from_jsonl("{\"seq\":0,\"t\":0.0}").is_err());
        assert!(from_jsonl("{\"seq\":0,\"t\":0.0,\"ev\":\"TaskEnd\"}").is_err());
        assert!(from_jsonl("not json").is_err());
        assert_eq!(from_jsonl("\n\n").expect("blank ok"), Vec::new());
    }

    #[test]
    fn chaos_events_round_trip_bit_for_bit() {
        let t = Tracer::new();
        t.emit(
            SimTime::from_secs(1.0),
            TraceEvent::FaultInjected {
                id: 3,
                kind: "storage-error".into(),
                until_secs: 42.5,
                magnitude: 0.25,
            },
        );
        t.emit(
            SimTime::from_secs(2.0),
            TraceEvent::SpotPreempt {
                id: 0,
                sub: 1,
                node: 2,
            },
        );
        t.emit(
            SimTime::from_secs(2.5),
            TraceEvent::FaultRetry {
                id: 3,
                op: "get".into(),
            },
        );
        t.emit(
            SimTime::from_secs(3.0),
            TraceEvent::CompRetry {
                id: 0,
                task: "wide".into(),
                sub: 1,
                node: 0,
            },
        );
        t.emit(
            SimTime::from_secs(4.0),
            TraceEvent::Replan {
                phase: 2,
                reason: "preemption".into(),
                nodes_before: 4,
                nodes_after: 3,
                moved: 5,
            },
        );
        t.emit(
            SimTime::from_secs(9.0),
            TraceEvent::SpotBill {
                sub: 0,
                node: 1,
                node_seconds: 7.25,
                dollars: 0.000241666666666,
            },
        );
        let records = t.take();
        let text = to_jsonl(&records);
        let parsed = from_jsonl(&text).expect("parse");
        assert_eq!(parsed, records);
        assert_eq!(to_jsonl(&parsed), text);
        // Chaos records export as instant markers in the Chrome form.
        let chrome = to_chrome_trace(&records);
        assert!(chrome.contains("SpotPreempt"));
        assert!(chrome.contains("Replan"));
    }

    #[test]
    fn string_escaping_survives_round_trip() {
        let records = vec![TraceRecord {
            seq: 0,
            t_secs: 1.5,
            event: TraceEvent::ObjectPut {
                key: "out:\"weird\\name\"\twith\nnewline".into(),
                bytes: 7.0,
            },
        }];
        let text = to_jsonl(&records);
        assert_eq!(from_jsonl(&text).expect("parse"), records);
    }

    #[test]
    fn chrome_export_pairs_tasks_and_marks_instants() {
        let chrome = to_chrome_trace(&sample_records());
        assert!(chrome.contains("\"traceEvents\""));
        assert!(chrome.contains("\"ph\":\"B\""));
        assert!(chrome.contains("\"ph\":\"E\""));
        assert!(chrome.contains("\"ph\":\"i\""));
        assert!(chrome.contains("\"ts\":500000.0"), "{chrome}");
    }
}
