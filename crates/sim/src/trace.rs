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
//! The record format is stated once, in the `trace_schema!` table below:
//! each variant name is its `ev` tag and each field names its JSONL key.
//! The table generates the enum, [`TraceEvent::name`], and the field
//! writer and reader behind the compact JSONL form
//! ([`to_jsonl`]/[`from_jsonl`]). That form writes one flat JSON object
//! per record with floats in Rust's shortest round-trip formatting, so
//! traces diff cleanly and parse back bit-identically. [`to_chrome_trace`]
//! converts the same records into Chrome's `trace_event` JSON for
//! `chrome://tracing` / Perfetto.
//!
//! Decoding reads each line in one pass, by one of two readers. The
//! canonical reader ([`from_canonical_line`]), which the table generates
//! beside the writer, walks a line exactly as [`to_jsonl`] spells it: the
//! `seq`, `t` and `ev` header, then each field's `,"key":value` in table
//! order, then `}`. Each field type's `take` mirrors its `put` and the
//! vendored parser's token rule and conversion, and the reader gives up at
//! the first byte that differs. Every line it declines goes unchanged to
//! the general reader: `serde_json::scan_members` runs the vendored JSON
//! parser over the line and leaves its members as `(key, scalar)` slots
//! that borrow from the input (only a string with escapes is copied, and a
//! nested member is parsed and discarded), and the table's `get_fields`
//! then takes each field from the slots by key, the first of a repeated
//! key winning. So reordered or repeated keys, whitespace and escapes are
//! read by the general reader alone, and every error, `invalid JSON: …`
//! included, is its own. Debug builds decode each line the canonical
//! reader accepts both ways and assert equal records. Either way a
//! record's `String` fields are its only allocations.

use crate::time::SimTime;
use serde_json::Scalar;
use std::borrow::Cow;
use std::fmt::Write as _;
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
}

/// One decoded JSONL line: its members in input order, keys and strings
/// borrowed from the line unless they contained escapes.
type Slots<'a> = [(Cow<'a, str>, Scalar<'a>)];

/// One JSONL field value. `put` writes it as JSON, and `take` reads back
/// what `put` writes from the front of a canonical line, advancing past it;
/// it returns `None` for any other spelling, which the general reader then
/// decides. `get` reads the value from the scalar the general reader stored
/// under `key` on line `line`.
trait Field: Sized {
    fn put(&self, out: &mut String);
    fn take(rest: &mut &str) -> Option<Self>;
    fn get(v: &Scalar<'_>, key: &str, line: usize) -> Result<Self, String>;
}

/// Splits off the number token at the front of `rest` as the vendored
/// parser delimits it: an optional `-`, then every byte of `[0-9.eE+-]`.
fn number_token<'a>(rest: &mut &'a str) -> &'a str {
    let b = rest.as_bytes();
    let sign = usize::from(b.first() == Some(&b'-'));
    let len = sign
        + b[sign..]
            .iter()
            .take_while(|c| matches!(c, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'))
            .count();
    let (token, tail) = rest.split_at(len);
    *rest = tail;
    token
}

/// Appends `n` in decimal.
fn push_u64(mut n: u64, out: &mut String) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
}

impl Field for f64 {
    fn put(&self, out: &mut String) {
        // `{:?}` is the shortest round-trip form.
        let _ = write!(out, "{self:?}");
    }
    fn take(rest: &mut &str) -> Option<Self> {
        // The parser reads a number only from `-` or a digit, and a token
        // with none of `.eE` as an integer; `put` always writes one.
        if !matches!(rest.as_bytes().first(), Some(b'-' | b'0'..=b'9')) {
            return None;
        }
        let token = number_token(rest);
        if !token.bytes().any(|c| matches!(c, b'.' | b'e' | b'E')) {
            return None;
        }
        token.parse().ok()
    }
    fn get(v: &Scalar<'_>, key: &str, line: usize) -> Result<Self, String> {
        v.as_f64()
            .ok_or_else(|| format!("line {line}: field '{key}' is not a number"))
    }
}

impl Field for u64 {
    fn put(&self, out: &mut String) {
        push_u64(*self, out);
    }
    fn take(rest: &mut &str) -> Option<Self> {
        // An unsigned run of digits; a sign, fraction or exponent makes
        // the parser's token something else.
        if !rest.as_bytes().first()?.is_ascii_digit() {
            return None;
        }
        let token = number_token(rest);
        if !token.bytes().all(|c| c.is_ascii_digit()) {
            return None;
        }
        token.parse().ok()
    }
    fn get(v: &Scalar<'_>, key: &str, line: usize) -> Result<Self, String> {
        v.as_u64()
            .ok_or_else(|| format!("line {line}: field '{key}' is not an integer"))
    }
}

/// Narrower integers are written as `u64` and refuse values they cannot hold.
macro_rules! narrow_uint_field {
    ($($t:ty),*) => {$(
        impl Field for $t {
            fn put(&self, out: &mut String) {
                push_u64(*self as u64, out);
            }
            fn take(rest: &mut &str) -> Option<Self> {
                <$t>::try_from(u64::take(rest)?).ok()
            }
            fn get(v: &Scalar<'_>, key: &str, line: usize) -> Result<Self, String> {
                <$t>::try_from(u64::get(v, key, line)?)
                    .map_err(|_| format!("line {line}: '{key}' overflows"))
            }
        }
    )*};
}
narrow_uint_field!(usize, u32);

impl Field for bool {
    fn put(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
    fn take(rest: &mut &str) -> Option<Self> {
        for (literal, value) in [("true", true), ("false", false)] {
            if let Some(tail) = rest.strip_prefix(literal) {
                *rest = tail;
                return Some(value);
            }
        }
        None
    }
    fn get(v: &Scalar<'_>, key: &str, line: usize) -> Result<Self, String> {
        v.as_bool()
            .ok_or_else(|| format!("line {line}: field '{key}' is not a bool"))
    }
}

/// True for the bytes a JSON string must escape.
fn needs_escape(b: u8) -> bool {
    b == b'"' || b == b'\\' || b < 0x20
}

/// The string literal at the front of `rest`, borrowed, when it holds no
/// byte that needs escaping.
fn take_str<'a>(rest: &mut &'a str) -> Option<&'a str> {
    let body = rest.strip_prefix('"')?;
    let end = body.bytes().position(needs_escape)?;
    let (s, tail) = body.split_at(end);
    *rest = tail.strip_prefix('"')?;
    Some(s)
}

/// The string under `key`, borrowed from the line.
fn get_str<'s>(v: &'s Scalar<'_>, key: &str, line: usize) -> Result<&'s str, String> {
    v.as_str()
        .ok_or_else(|| format!("line {line}: field '{key}' is not a string"))
}

impl Field for String {
    fn put(&self, out: &mut String) {
        push_escaped(self, out);
    }
    fn take(rest: &mut &str) -> Option<Self> {
        take_str(rest).map(str::to_string)
    }
    fn get(v: &Scalar<'_>, key: &str, line: usize) -> Result<Self, String> {
        get_str(v, key, line).map(str::to_string)
    }
}

impl KillReason {
    fn from_label(s: &str) -> Option<Self> {
        match s {
            "watchdog" => Some(KillReason::Watchdog),
            "injected" => Some(KillReason::Injected),
            _ => None,
        }
    }
}

impl Field for KillReason {
    fn put(&self, out: &mut String) {
        push_escaped(self.as_str(), out);
    }
    fn take(rest: &mut &str) -> Option<Self> {
        KillReason::from_label(take_str(rest)?)
    }
    fn get(v: &Scalar<'_>, key: &str, line: usize) -> Result<Self, String> {
        KillReason::from_label(get_str(v, key, line)?)
            .ok_or_else(|| format!("line {line}: unknown kill reason"))
    }
}

/// Appends `prefix` (`,"key":`) and the value.
fn put_field<T: Field>(out: &mut String, prefix: &str, value: &T) {
    out.push_str(prefix);
    value.put(out);
}

/// Reads `prefix` (`,"key":`) and the value after it from a canonical line.
fn take_field<T: Field>(rest: &mut &str, prefix: &str) -> Option<T> {
    *rest = rest.strip_prefix(prefix)?;
    T::take(rest)
}

/// The scalar stored under `key` on line `line`; the first one wins when
/// a key repeats.
fn slot<'s>(slots: &'s Slots<'_>, key: &str, line: usize) -> Result<&'s Scalar<'s>, String> {
    slots
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("line {line}: missing field '{key}'"))
}

/// Reads the field stored under `key` on line `line`.
fn get_field<T: Field>(slots: &Slots<'_>, key: &str, line: usize) -> Result<T, String> {
    T::get(slot(slots, key, line)?, key, line)
}

/// Declares the event enum once and derives its codec from it. Each
/// field is `name: Type = "jsonl-key"`; fields serialize in declaration
/// order after the record header, and decode in the same order.
macro_rules! trace_schema {
    (
        $(#[$meta:meta])*
        pub enum $enum:ident {
            $(
                $(#[$vmeta:meta])*
                $variant:ident {
                    $(
                        $(#[$fmeta:meta])*
                        $field:ident: $ty:ty = $key:literal
                    ),* $(,)?
                }
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub enum $enum {
            $(
                $(#[$vmeta])*
                $variant {
                    $(
                        $(#[$fmeta])*
                        $field: $ty,
                    )*
                },
            )*
        }

        impl $enum {
            /// Every event tag, in table order.
            #[cfg(test)]
            const NAMES: &'static [&'static str] = &[$(stringify!($variant)),*];

            /// The event's tag: its variant name, serialized as `ev`.
            pub fn name(&self) -> &'static str {
                match self {
                    $($enum::$variant { .. } => stringify!($variant),)*
                }
            }

            /// Appends every field as `,"key":value`, in table order.
            fn put_fields(&self, out: &mut String) {
                match self {
                    $($enum::$variant { $($field),* } => {
                        $(put_field(out, concat!(",\"", $key, "\":"), $field);)*
                    })*
                }
            }

            /// Reads the fields of the event tagged `ev` as `put_fields`
            /// writes them, or `None` at the first byte that differs.
            fn take_fields(ev: &str, rest: &mut &str) -> Option<Self> {
                Some(match ev {
                    $(stringify!($variant) => $enum::$variant {
                        $($field: take_field(rest, concat!(",\"", $key, "\":"))?,)*
                    },)*
                    _ => return None,
                })
            }

            /// Reads the fields of the event tagged `ev` from line `line`.
            fn get_fields(ev: &str, slots: &Slots<'_>, line: usize) -> Result<Self, String> {
                Ok(match ev {
                    $(stringify!($variant) => $enum::$variant {
                        $($field: get_field(slots, $key, line)?,)*
                    },)*
                    other => return Err(format!("line {line}: unknown event '{other}'")),
                })
            }
        }
    };
}

trace_schema! {
    /// One typed flight-recorder event.
    ///
    /// Labels are plain strings because the engine is domain-free; the cloud and
    /// core layers put task names, code keys, and platform labels in them.
    #[derive(Debug, Clone, PartialEq)]
    pub enum TraceEvent {
        /// Engine dispatched one event (verbose level only).
        Dispatch {
            /// Events processed so far, including this one.
            events: u64 = "events",
        },
        /// A transfer started on a shared link (verbose level only).
        TransferStart {
            /// Link name.
            link: String = "link",
            /// Link-local transfer id.
            id: u64 = "id",
            /// Transfer size in bytes.
            bytes: f64 = "bytes",
        },
        /// A transfer finished on a shared link (verbose level only).
        TransferEnd {
            /// Link name.
            link: String = "link",
            /// Link-local transfer id.
            id: u64 = "id",
        },
        /// A function invocation was admitted and assigned a microVM.
        FnStart {
            /// Platform-wide invocation id.
            id: u64 = "id",
            /// Code identity (warm pools key on this).
            code: String = "code",
            /// True for a cold start, false for a warm-pool hit.
            cold: bool = "cold",
            /// Start latency in seconds (cold or warm).
            latency_secs: f64 = "latency",
            /// Instant the function body becomes runnable, seconds.
            ready_secs: f64 = "ready",
            /// Watchdog deadline, seconds.
            deadline_secs: f64 = "deadline",
        },
        /// A function invocation completed and was billed.
        FnEnd {
            /// Platform-wide invocation id.
            id: u64 = "id",
            /// Billed function-seconds for this invocation.
            billed_secs: f64 = "billed",
        },
        /// A function invocation was killed (watchdog or injected failure).
        FnKill {
            /// Platform-wide invocation id.
            id: u64 = "id",
            /// What killed it.
            reason: KillReason = "reason",
            /// Billed function-seconds up to the kill.
            billed_secs: f64 = "billed",
        },
        /// A microVM was pre-warmed into the pool (billed as a cold start).
        FnPrewarm {
            /// Code identity the warm entry is usable for.
            code: String = "code",
            /// Billed cold-start latency, seconds.
            latency_secs: f64 = "latency",
            /// Instant the entry becomes available, seconds.
            warm_secs: f64 = "warm",
            /// Instant the entry expires, seconds.
            expires_secs: f64 = "expires",
        },
        /// A FaaS execution segment began running inside an invocation.
        SegmentStart {
            /// Task label (code key).
            task: String = "task",
            /// Component chain id within the task.
            chain: u32 = "chain",
            /// Invocation id hosting this segment.
            inv: u64 = "inv",
            /// True when the segment resumes from a checkpoint.
            resume: bool = "resume",
            /// Memory footprint of the component, GiB.
            mem_gb: f64 = "mem_gb",
        },
        /// A segment finished writing a checkpoint before the time cap.
        Checkpoint {
            /// Task label.
            task: String = "task",
            /// Component chain id.
            chain: u32 = "chain",
            /// Invocation id that wrote the checkpoint.
            inv: u64 = "inv",
            /// Checkpoint size in bytes.
            bytes: f64 = "bytes",
            /// Compute seconds still owed after this checkpoint.
            remaining_secs: f64 = "remaining",
        },
        /// A successor segment restored the chain's last checkpoint.
        CheckpointResume {
            /// Task label.
            task: String = "task",
            /// Component chain id.
            chain: u32 = "chain",
            /// Invocation id doing the restore.
            inv: u64 = "inv",
            /// Compute seconds the restored state still owes.
            remaining_secs: f64 = "remaining",
        },
        /// A VM-side component started computing on a node.
        VmCompStart {
            /// Task label.
            task: String = "task",
            /// Sub-cluster index.
            sub: usize = "sub",
            /// Node index within the sub-cluster.
            node: usize = "node",
            /// Components on the node after this one joined.
            load: usize = "load",
            /// Memory footprint of the component, GiB.
            mem_gb: f64 = "mem_gb",
            /// Timeshare slowdown factor applied to this component.
            factor: f64 = "factor",
            /// True when memory pressure (thrash) contributes to the factor.
            thrash: bool = "thrash",
        },
        /// A VM-side component finished computing.
        VmCompEnd {
            /// Task label.
            task: String = "task",
            /// Sub-cluster index.
            sub: usize = "sub",
            /// Node index within the sub-cluster.
            node: usize = "node",
        },
        /// Cluster billing began (nodes provisioned).
        BillingStart {
            /// Number of nodes billed.
            nodes: usize = "nodes",
        },
        /// Cluster billing stopped.
        BillingStop {
            /// Billed node-seconds for the whole span.
            node_seconds: f64 = "node_seconds",
        },
        /// An object-store read (GET batch) was issued.
        StoreGet {
            /// Bytes read.
            bytes: f64 = "bytes",
            /// GET requests issued (billed; doubled when retried).
            requests: u64 = "requests",
            /// True when the primary failed and a replica served the read.
            retried: bool = "retried",
        },
        /// An object-store write (PUT batch) was issued.
        StorePut {
            /// Bytes written.
            bytes: f64 = "bytes",
            /// PUT requests issued (each billed once per replica).
            requests: u64 = "requests",
            /// Replication factor the requests were billed at.
            replicas: u64 = "replicas",
        },
        /// A named object became readable in the store.
        ObjectPut {
            /// Object key.
            key: String = "key",
            /// Object size in bytes.
            bytes: f64 = "bytes",
        },
        /// A named object was removed from the store.
        ObjectRemove {
            /// Object key.
            key: String = "key",
        },
        /// A workflow phase began executing.
        PhaseStart {
            /// Phase index.
            phase: usize = "phase",
            /// Tasks in the phase.
            tasks: usize = "tasks",
        },
        /// A task began executing.
        TaskStart {
            /// Task name.
            task: String = "task",
            /// Phase index.
            phase: usize = "phase",
            /// Platform label (`vm` or `serverless`).
            platform: String = "platform",
            /// Component count.
            components: usize = "components",
        },
        /// A task finished executing (all components done, outputs readable).
        TaskEnd {
            /// Task name.
            task: String = "task",
        },
        /// The PDC committed a placement decision for one task.
        PdcDecision {
            /// Task name.
            task: String = "task",
            /// Profiled cluster-side time, seconds.
            t_vm_secs: f64 = "t_vm",
            /// Estimated serverless time, seconds; -1 when a forcing rule
            /// placed the task on a VM without an estimate (JSON has no
            /// infinity).
            t_serverless_secs: f64 = "t_serverless",
            /// Chosen platform label.
            platform: String = "platform",
            /// Forcing rule, or empty when the argmin decided.
            forced: String = "forced",
        },
        /// A spot VM node was reclaimed by the provider (seeded fault plan).
        SpotPreempt {
            /// Fault id within the plan (retries chain to this).
            id: u64 = "id",
            /// Sub-cluster index of the reclaimed node.
            sub: usize = "sub",
            /// Node index within the sub-cluster.
            node: usize = "node",
        },
        /// A scheduled storage/network fault window became active.
        FaultInjected {
            /// Fault id within the plan (retries chain to this).
            id: u64 = "id",
            /// Fault kind: `storage-error`, `storage-latency`, or `link-degrade`.
            kind: String = "kind",
            /// Instant the window deactivates, seconds.
            until_secs: f64 = "until",
            /// Kind-specific magnitude: error probability, extra latency in
            /// seconds, or bandwidth factor.
            magnitude: f64 = "magnitude",
        },
        /// A store operation was retried or delayed by an injected fault.
        FaultRetry {
            /// Id of the injected fault that hit the operation.
            id: u64 = "id",
            /// Operation kind: `get` or `put`.
            op: String = "op",
        },
        /// A VM component lost to a preemption restarted on a surviving node.
        CompRetry {
            /// Id of the preemption fault that killed the attempt.
            id: u64 = "id",
            /// Task label.
            task: String = "task",
            /// Sub-cluster index the retry runs in.
            sub: usize = "sub",
            /// Surviving node the retry was placed on.
            node: usize = "node",
        },
        /// The online controller re-placed the remaining subgraph.
        Replan {
            /// First phase the new placement applies to.
            phase: usize = "phase",
            /// Trigger: `preemption` or `straggler`.
            reason: String = "reason",
            /// Cluster nodes the previous plan assumed.
            nodes_before: usize = "nodes_before",
            /// Surviving nodes the new plan was sized for.
            nodes_after: usize = "nodes_after",
            /// Tasks whose platform changed.
            moved: usize = "moved",
        },
        /// Per-node spot billing settled at the end of a run (piecewise price).
        SpotBill {
            /// Sub-cluster index.
            sub: usize = "sub",
            /// Node index within the sub-cluster.
            node: usize = "node",
            /// Node-seconds billed for this node (to preemption or run end).
            node_seconds: f64 = "node_seconds",
            /// Dollars charged across the node's price segments.
            dollars: f64 = "dollars",
        },
    }
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
    fn is_verbose(&self) -> bool {
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
}

// --------------------------------------------------------------------------
// Compact JSONL form
// --------------------------------------------------------------------------

fn push_escaped(s: &str, out: &mut String) {
    out.push('"');
    if !s.bytes().any(needs_escape) {
        out.push_str(s);
        out.push('"');
        return;
    }
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends one record's compact JSONL line (no trailing newline).
fn push_record(r: &TraceRecord, out: &mut String) {
    put_field(out, "{\"seq\":", &r.seq);
    put_field(out, ",\"t\":", &r.t_secs);
    out.push_str(",\"ev\":\"");
    out.push_str(r.event.name());
    out.push('"');
    r.event.put_fields(out);
    out.push('}');
}

/// Serializes one record to its compact JSONL line (no trailing newline).
fn record_to_json(r: &TraceRecord) -> String {
    let mut out = String::new();
    push_record(r, &mut out);
    out
}

/// Serializes records to the compact JSONL form: one record per line,
/// stable field order, shortest round-trip floats, trailing newline.
pub fn to_jsonl(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    for r in records {
        push_record(r, &mut out);
        out.push('\n');
    }
    out
}

/// Parses the compact JSONL form back into records. Unknown event names are
/// an error, so readers notice vocabulary drift instead of skipping data.
/// Each line is read once: by the canonical reader when it is spelled as
/// [`to_jsonl`] writes it, else by the general scan (see the module doc).
pub fn from_jsonl(text: &str) -> Result<Vec<TraceRecord>, String> {
    // Counting the lines first to size `out` costs more than growing it.
    let mut out = Vec::new();
    // One slot buffer serves every line.
    let mut slots = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let n = idx + 1;
        if let Some(record) = from_canonical_line(raw) {
            // Debug output tells -0.0 from 0.0, which `==` does not.
            #[cfg(debug_assertions)]
            assert_eq!(
                format!("{:?}", read_general(raw, n, &mut slots)),
                format!("{:?}", Ok::<_, String>(&record)),
                "the canonical and general readers disagree on line {n}"
            );
            out.push(record);
            continue;
        }
        if raw.trim().is_empty() {
            continue;
        }
        out.push(read_general(raw, n, &mut slots)?);
    }
    Ok(out)
}

/// The general reader: scans line `line` into `slots`, then reads its
/// record from them.
fn read_general<'a>(
    raw: &'a str,
    line: usize,
    slots: &mut Vec<(Cow<'a, str>, Scalar<'a>)>,
) -> Result<TraceRecord, String> {
    serde_json::scan_members(raw, slots).map_err(|e| format!("line {line}: invalid JSON: {e}"))?;
    read_record(slots, line)
}

/// Decodes one line spelled exactly as [`to_jsonl`] writes it: the header,
/// then the event's fields in table order, then `}`. Returns `None` at the
/// first byte that differs; [`from_jsonl`] then reads the line with its
/// general reader, which accepts every spelling of the same record.
pub fn from_canonical_line(line: &str) -> Option<TraceRecord> {
    let mut rest = line;
    let seq = take_field(&mut rest, "{\"seq\":")?;
    let t_secs = take_field(&mut rest, ",\"t\":")?;
    rest = rest.strip_prefix(",\"ev\":")?;
    let ev = take_str(&mut rest)?;
    let event = TraceEvent::take_fields(ev, &mut rest)?;
    (rest == "}").then_some(TraceRecord { seq, t_secs, event })
}

/// Reads one record from line `line`'s slots: the `ev` tag first, then the
/// event's fields in table order, then the header.
fn read_record(slots: &Slots<'_>, line: usize) -> Result<TraceRecord, String> {
    let ev = get_str(slot(slots, "ev", line)?, "ev", line)?;
    let event = TraceEvent::get_fields(ev, slots, line)?;
    Ok(TraceRecord {
        seq: get_field(slots, "seq", line)?,
        t_secs: get_field(slots, "t", line)?,
        event,
    })
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

/// Threads for the Chrome export's slices that may overlap within a
/// group (all invocations; the components on one node). Chrome and Perfetto
/// close a thread's newest open slice, so each slice opens on the lowest
/// lane of its group free at that record and no thread ever holds two.
/// Lanes get dense thread ids in first-seen order, so the export is
/// deterministic.
struct Lanes<G, K> {
    /// Per group, the slice each lane holds open (`None` when free).
    open: std::collections::BTreeMap<G, Vec<Option<K>>>,
    tids: std::collections::BTreeMap<(G, usize), u64>,
}

impl<G: Ord + Clone, K: PartialEq> Lanes<G, K> {
    fn new() -> Self {
        Lanes {
            open: std::collections::BTreeMap::new(),
            tids: std::collections::BTreeMap::new(),
        }
    }

    fn tid(&mut self, group: G, lane: usize) -> u64 {
        let next = self.tids.len() as u64;
        *self.tids.entry((group, lane)).or_insert(next)
    }

    /// Opens slice `key` on its group's lowest free lane; returns its tid.
    fn open(&mut self, group: G, key: K) -> u64 {
        let lanes = self.open.entry(group.clone()).or_default();
        let lane = match lanes.iter().position(Option::is_none) {
            Some(free) => {
                lanes[free] = Some(key);
                free
            }
            None => {
                lanes.push(Some(key));
                lanes.len() - 1
            }
        };
        self.tid(group, lane)
    }

    /// Closes the first open slice `key` of its group; returns its tid. A
    /// close with no open slice lands on a free lane, where it ends nothing.
    fn close(&mut self, group: G, key: &K) -> u64 {
        let lanes = self.open.entry(group.clone()).or_default();
        let lane = match lanes.iter().position(|k| k.as_ref() == Some(key)) {
            Some(held) => {
                lanes[held] = None;
                held
            }
            None => lanes
                .iter()
                .position(Option::is_none)
                .unwrap_or(lanes.len()),
        };
        self.tid(group, lane)
    }
}

/// `s` as a JSON string literal.
fn quoted(s: &str) -> String {
    let mut out = String::new();
    push_escaped(s, &mut out);
    out
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
/// and function invocations become duration pairs: each task on a thread
/// of its own; each component or invocation on the lowest thread of its
/// node's components, or of all invocations, that holds no open slice at
/// its start, since Chrome closes a thread's newest open slice. Everything
/// else becomes an instant marker named after its event tag,
/// carrying the record's JSONL line as a string.
pub fn to_chrome_trace(records: &[TraceRecord]) -> String {
    let mut events = Vec::new();
    let mut task_tids = TidMap::new();
    let mut comp_lanes = Lanes::new();
    let mut fn_lanes = Lanes::new();
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
                    &[("platform", quoted(platform))],
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
                let tid = comp_lanes.open((*sub, *node), task);
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
                let tid = comp_lanes.close((*sub, *node), &task);
                chrome_event(&mut events, task, "E", r.t_secs, 2, tid, &[]);
            }
            TraceEvent::FnStart { id, code, cold, .. } => {
                let tid = fn_lanes.open((), *id);
                chrome_event(
                    &mut events,
                    code,
                    "B",
                    r.t_secs,
                    3,
                    tid,
                    &[("cold", cold.to_string()), ("inv", id.to_string())],
                );
            }
            TraceEvent::FnEnd { id, .. } => {
                let tid = fn_lanes.close((), id);
                chrome_event(&mut events, "fn", "E", r.t_secs, 3, tid, &[]);
            }
            TraceEvent::FnKill { id, reason, .. } => {
                let tid = fn_lanes.close((), id);
                chrome_event(
                    &mut events,
                    "fn",
                    "E",
                    r.t_secs,
                    3,
                    tid,
                    &[("kill", quoted(reason.as_str()))],
                );
            }
            other => chrome_event(
                &mut events,
                other.name(),
                "i",
                r.t_secs,
                0,
                0,
                &[("record", quoted(&record_to_json(r)))],
            ),
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
    fn labels_with_bytes_to_escape_round_trip() {
        for key in [
            "plain é\u{200b}",
            "a\"b",
            "a\\b",
            "a\tb",
            "a\nb",
            "\u{1}",
            "\u{1f}",
        ] {
            let records = vec![TraceRecord {
                seq: 0,
                t_secs: 0.0,
                event: TraceEvent::ObjectRemove { key: key.into() },
            }];
            let text = to_jsonl(&records);
            let line = text.trim_end();
            let written: serde::Value = serde_json::from_str(line).expect("valid JSON");
            assert_eq!(written.get("key").and_then(serde::Value::as_str), Some(key));
            assert_eq!(from_jsonl(&text), Ok(records), "{line}");
        }
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
        // A chain id past u32 is refused, not truncated to a wrong chain.
        let wide_chain = "{\"seq\":0,\"t\":0.0,\"ev\":\"SegmentStart\",\"task\":\"a\",\
                          \"chain\":4294967296,\"inv\":1,\"resume\":false,\"mem_gb\":1.0}";
        assert_eq!(
            from_jsonl(wide_chain),
            Err("line 1: 'chain' overflows".to_string())
        );
    }

    /// A label that needs JSON escaping: quotes, backslash, control
    /// characters, and a zero-width space that Rust's `Debug` escapes.
    const WEIRD_KEY: &str = "out:\"weird\\name\"\twith\nnewline\u{1}\u{200b}";

    /// One event of every kind, in table order.
    fn one_of_each() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Dispatch { events: 7 },
            TraceEvent::TransferStart {
                link: "store".into(),
                id: 3,
                bytes: 1.5e6,
            },
            TraceEvent::TransferEnd {
                link: "store".into(),
                id: 3,
            },
            TraceEvent::FnStart {
                id: 1,
                code: "a".into(),
                cold: true,
                latency_secs: 1.25,
                ready_secs: 1.75,
                deadline_secs: 901.75,
            },
            TraceEvent::FnEnd {
                id: 1,
                billed_secs: 0.1,
            },
            TraceEvent::FnKill {
                id: 2,
                reason: KillReason::Watchdog,
                billed_secs: 900.0,
            },
            TraceEvent::FnPrewarm {
                code: "b".into(),
                latency_secs: 0.3,
                warm_secs: 2.0,
                expires_secs: 602.0,
            },
            TraceEvent::SegmentStart {
                task: "a".into(),
                chain: u32::MAX,
                inv: 1,
                resume: false,
                mem_gb: 2.5,
            },
            TraceEvent::Checkpoint {
                task: "a".into(),
                chain: 0,
                inv: 1,
                bytes: 1e6,
                remaining_secs: 33.333333333333336,
            },
            TraceEvent::CheckpointResume {
                task: "a".into(),
                chain: 0,
                inv: 4,
                remaining_secs: 33.333333333333336,
            },
            TraceEvent::VmCompStart {
                task: "v".into(),
                sub: 1,
                node: 2,
                load: 3,
                mem_gb: 0.75,
                factor: 1.0 / 3.0,
                thrash: true,
            },
            TraceEvent::VmCompEnd {
                task: "v".into(),
                sub: 1,
                node: 2,
            },
            TraceEvent::BillingStart { nodes: 4 },
            TraceEvent::BillingStop {
                node_seconds: 1234.5,
            },
            TraceEvent::StoreGet {
                bytes: 10.0,
                requests: 2,
                retried: true,
            },
            TraceEvent::StorePut {
                bytes: 20.0,
                requests: 1,
                replicas: 3,
            },
            TraceEvent::ObjectPut {
                key: WEIRD_KEY.into(),
                bytes: 20.0,
            },
            TraceEvent::ObjectRemove {
                key: WEIRD_KEY.into(),
            },
            TraceEvent::PhaseStart { phase: 0, tasks: 2 },
            TraceEvent::TaskStart {
                task: "a".into(),
                phase: 0,
                platform: "serverless".into(),
                components: 2,
            },
            TraceEvent::TaskEnd { task: "a".into() },
            TraceEvent::PdcDecision {
                task: "a".into(),
                t_vm_secs: 12.5,
                t_serverless_secs: 9.75,
                platform: "serverless".into(),
                forced: String::new(),
            },
            TraceEvent::SpotPreempt {
                id: 0,
                sub: 1,
                node: 2,
            },
            TraceEvent::FaultInjected {
                id: 3,
                kind: "storage-error".into(),
                until_secs: 42.5,
                magnitude: 0.25,
            },
            TraceEvent::FaultRetry {
                id: 3,
                op: "put".into(),
            },
            TraceEvent::CompRetry {
                id: 0,
                task: "v".into(),
                sub: 1,
                node: 0,
            },
            TraceEvent::Replan {
                phase: 2,
                reason: "straggler".into(),
                nodes_before: 4,
                nodes_after: 4,
                moved: 1,
            },
            TraceEvent::SpotBill {
                sub: 0,
                node: 1,
                node_seconds: 7.25,
                dollars: 0.000241666666666,
            },
        ]
    }

    /// One record of every kind, in table order.
    fn one_record_each() -> Vec<TraceRecord> {
        one_of_each()
            .into_iter()
            .enumerate()
            .map(|(i, event)| TraceRecord {
                seq: i as u64,
                t_secs: i as f64 * 0.1,
                event,
            })
            .collect()
    }

    #[test]
    fn every_event_kind_goes_through_the_table() {
        let records = one_record_each();
        let names: Vec<&str> = records.iter().map(|r| r.event.name()).collect();
        assert_eq!(names, TraceEvent::NAMES, "one record per event kind");

        let text = to_jsonl(&records);
        let parsed = from_jsonl(&text).expect("parse");
        assert_eq!(parsed, records);
        assert_eq!(to_jsonl(&parsed), text);

        for (r, line) in records.iter().zip(text.lines()) {
            let v: serde::Value = serde_json::from_str(line).expect("valid JSON");
            assert_eq!(
                v.get("ev").and_then(serde::Value::as_str),
                Some(r.event.name())
            );
            let serde::Value::Object(fields) = v else {
                panic!("not an object: {line}");
            };
            for i in 0..fields.len() {
                let mut rest = fields.clone();
                let (key, _) = rest.remove(i);
                let cut = serde_json::to_string(&serde::Value::Object(rest)).expect("serialize");
                assert_eq!(
                    from_jsonl(&cut),
                    Err(format!("line 1: missing field '{key}'")),
                    "{cut}"
                );
            }
        }

        // The Chrome export is valid JSON, and every kind but the seven
        // duration begin/end kinds becomes an instant marker named by its
        // tag and carrying its record.
        let chrome: serde::Value =
            serde_json::from_str(&to_chrome_trace(&records)).expect("valid JSON");
        let instants: Vec<&serde::Value> = chrome
            .get("traceEvents")
            .and_then(serde::Value::as_array)
            .expect("traceEvents")
            .iter()
            .filter(|e| e.get("ph").and_then(serde::Value::as_str) == Some("i"))
            .collect();
        assert_eq!(instants.len(), TraceEvent::NAMES.len() - 7);
        for e in instants {
            let line = e
                .get("args")
                .and_then(|a| a.get("record"))
                .and_then(serde::Value::as_str)
                .expect("record arg");
            let decoded = from_jsonl(line).expect("record parses");
            assert!(records.contains(&decoded[0]), "{line}");
            assert_eq!(
                e.get("name").and_then(serde::Value::as_str),
                Some(decoded[0].event.name())
            );
        }
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

    /// The line decoder as it stood before the one-pass scan: a
    /// `serde::Value` per line, each field looked up with `Value::get`
    /// (the first of repeated keys wins; a non-object has no keys).
    fn reference_from_jsonl(text: &str) -> Result<Vec<TraceRecord>, String> {
        let mut out = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let n = idx + 1;
            if raw.trim().is_empty() {
                continue;
            }
            let v: serde::Value =
                serde_json::from_str(raw).map_err(|e| format!("line {n}: invalid JSON: {e}"))?;
            let slots: Vec<(Cow<str>, Scalar)> = (v.as_object().unwrap_or(&[]).iter())
                .map(|(key, _)| {
                    let scalar = match v.get(key) {
                        Some(serde::Value::Null) => Scalar::Null,
                        Some(serde::Value::Bool(b)) => Scalar::Bool(*b),
                        Some(serde::Value::Number(x)) => Scalar::Number(*x),
                        Some(serde::Value::String(s)) => Scalar::String(Cow::Borrowed(s)),
                        _ => Scalar::Nested,
                    };
                    (Cow::Borrowed(key.as_str()), scalar)
                })
                .collect();
            out.push(read_record(&slots, n)?);
        }
        Ok(out)
    }

    /// A line's members as `(key, raw JSON value)` pairs.
    fn members(line: &str) -> Vec<(String, String)> {
        let v: serde::Value = serde_json::from_str(line).expect("valid JSON");
        (v.as_object().expect("object").iter())
            .map(|(k, x)| (k.clone(), serde_json::to_string(x).expect("serialize")))
            .collect()
    }

    /// Writes `members` back as one object, `pad` around every token.
    fn object(members: &[(String, String)], pad: &str) -> String {
        let body: Vec<String> = members
            .iter()
            .map(|(k, raw)| format!("{pad}{}{pad}:{pad}{raw}{pad}", quoted(k)))
            .collect();
        format!("{{{}}}", body.join(","))
    }

    /// `key` with every character written as a `\u` escape.
    fn unicode_escaped(key: &str) -> String {
        let escaped: String = key
            .chars()
            .map(|c| format!("\\u{:04x}", c as u32))
            .collect();
        format!("\"{escaped}\"")
    }

    /// Malformed and unusual variants of every `one_of_each` line.
    fn parity_corpus() -> Vec<String> {
        const VALUES: [&str; 10] = [
            "null",
            "true",
            "\"s\"",
            "-1",
            "-0",
            "1.5",
            "1e400",
            "4294967296",
            "[]",
            "{\"a\":[1]}",
        ];
        const EXTRA: &str = "\"extra\":{\"a\":[1,{\"b\":[null,\"\\u0041\"]}],\"c\":{}}";
        let text = to_jsonl(&one_record_each());
        let mut corpus = vec![text.clone(), text.replace('\n', "\r\n\r\n \t\n")];
        for line in text.lines() {
            corpus.extend(
                (0..line.len())
                    .filter(|&i| line.is_char_boundary(i))
                    .map(|i| line[..i].to_string()),
            );
            let m = members(line);
            for i in 0..m.len() {
                let mut dropped = m.clone();
                dropped.remove(i);
                corpus.push(object(&dropped, ""));
                for value in VALUES {
                    let mut replaced = m.clone();
                    replaced[i].1 = value.to_string();
                    corpus.push(object(&replaced, ""));
                    // A repeated key: the first occurrence wins.
                    let mut repeated = m.clone();
                    repeated.push((m[i].0.clone(), value.to_string()));
                    corpus.push(object(&repeated, ""));
                    repeated.insert(0, (m[i].0.clone(), value.to_string()));
                    corpus.push(object(&repeated, ""));
                }
                // Escaped strings hold no bare quote, so the key is the
                // first match.
                let key = &m[i].0;
                corpus.push(object(&m, "").replacen(
                    &format!("{}:", quoted(key)),
                    &format!("{}:", unicode_escaped(key)),
                    1,
                ));
            }
            let mut reversed = m.clone();
            reversed.reverse();
            corpus.push(object(&reversed, ""));
            corpus.push(object(&m, " \t"));
            corpus.push(format!("{}{line}\r\n", " \t".repeat(2)));
            corpus.push(format!("{{{EXTRA},{}", &line[1..]));
            corpus.push(format!("{},{EXTRA}}}", &line[..line.len() - 1]));
            corpus.push(line.replacen("\"ev\":\"", "\"ev\":\"X", 1));
            corpus.push(line.replacen("\"ev\":\"", "\"ev\":\"\\u0058", 1));
            corpus.push(format!("[{line}]"));
            corpus.push(format!("{line}\n\n{line}"));
        }
        corpus
    }

    #[test]
    fn decoder_matches_the_value_tree_reference_on_a_malformed_corpus() {
        let corpus = parity_corpus();
        let (mut accepted, mut refused) = (0, 0);
        for text in &corpus {
            let ours = from_jsonl(text);
            // Debug output tells -0.0 from 0.0, which `==` does not.
            assert_eq!(
                format!("{ours:?}"),
                format!("{:?}", reference_from_jsonl(text)),
                "{text:?}"
            );
            match ours {
                Ok(_) => accepted += 1,
                Err(_) => refused += 1,
            }
        }
        assert!(
            accepted > 500 && refused > 5000,
            "{accepted} accepted, {refused} refused"
        );
    }

    /// The general reader's verdict on `line`, read as line 1.
    fn general(line: &str) -> Result<TraceRecord, String> {
        read_general(line, 1, &mut Vec::new())
    }

    /// Asserts the canonical reader accepts `line` with the general
    /// reader's record, compared by Debug form (it tells -0.0 from 0.0).
    fn assert_read_alike(line: &str) {
        let canonical = from_canonical_line(line).unwrap_or_else(|| panic!("declined {line}"));
        assert_eq!(
            format!("{canonical:?}"),
            format!("{:?}", general(line).expect("general reader accepts")),
            "{line}"
        );
    }

    #[test]
    fn canonical_reader_agrees_with_the_general_reader() {
        // Every line the writer spells without escapes is accepted; the
        // two lines with the escaped key go to the general reader.
        let text = to_jsonl(&one_record_each());
        let mut declined = 0;
        for line in text.lines() {
            if line.contains('\\') {
                assert_eq!(from_canonical_line(line), None, "{line}");
                declined += 1;
            } else {
                assert_read_alike(line);
            }
        }
        assert_eq!(declined, 2);

        // Every line of every committed golden trace.
        let dir = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/trace_fixtures/golden"
        );
        let mut goldens = 0;
        for entry in std::fs::read_dir(dir).expect("golden dir") {
            let path = entry.expect("dir entry").path();
            if path.extension().is_some_and(|e| e == "jsonl") {
                let text = std::fs::read_to_string(&path).expect("golden");
                text.lines().for_each(assert_read_alike);
                goldens += 1;
            }
        }
        assert!(goldens >= 9, "{goldens} golden traces");

        // A malformed or unusual line is declined, or read as the general
        // reader reads it.
        let mut accepted = 0;
        for text in parity_corpus() {
            for line in text.lines() {
                if let Some(canonical) = from_canonical_line(line) {
                    assert_eq!(
                        format!("{:?}", Ok::<_, String>(canonical)),
                        format!("{:?}", general(line)),
                        "{line}"
                    );
                    accepted += 1;
                }
            }
        }
        assert!(accepted > 100, "{accepted} corpus lines accepted");
    }

    /// Decodes the first unescaped `one_record_each` line holding field
    /// `key`, with `token` written in place of that field's value.
    fn probe(key: &str, token: &str) -> Option<TraceEvent> {
        let text = to_jsonl(&one_record_each());
        let prefix = format!(",\"{key}\":");
        let line = (text.lines())
            .find(|l| l.contains(&prefix) && !l.contains('\\'))
            .expect("an event with the key");
        let start = line.find(&prefix).expect("key") + prefix.len();
        let end = start + line[start..].find([',', '}']).expect("value end");
        let spliced = format!("{}{token}{}", &line[..start], &line[end..]);
        from_canonical_line(&spliced).map(|r| r.event)
    }

    #[test]
    fn canonical_reader_takes_only_what_put_writes() {
        // Integers: an unsigned run of digits that fits the field.
        for token in [
            "-1",
            "-0",
            "+1",
            "1.0",
            "1e3",
            "1-2",
            "01x",
            "18446744073709551616",
        ] {
            assert_eq!(probe("id", token), None, "id {token}");
        }
        assert_eq!(probe("chain", "4294967296"), None);
        assert!(probe("id", "18446744073709551615").is_some());
        // Floats: a number token holding `.`, `e` or `E`.
        for token in ["5", "-5", "-0", ".5", "+1.5", "1.5.5", "inf", "NaN"] {
            assert_eq!(probe("billed", token), None, "billed {token}");
        }
        for token in ["1.5", "-0.0", "1e300", "-2.5E-7"] {
            let parsed: f64 = token.parse().expect("float");
            assert_eq!(
                probe("billed", token),
                Some(TraceEvent::FnEnd {
                    id: 1,
                    billed_secs: parsed
                }),
                "billed {token}"
            );
        }
        // Strings: no escape, quote or control byte; bools: the literals.
        for token in ["\"a\\\"b\"", "\"a\\nb\"", "\"a\tb\"", "\"a", "7"] {
            assert_eq!(probe("code", token), None, "code {token}");
        }
        for token in ["True", "1", "\"true\"", "nul"] {
            assert_eq!(probe("cold", token), None, "cold {token}");
        }
        // Only the exact line: nothing before `{` or after `}`, no spaces.
        let line = record_to_json(&one_record_each()[4]);
        assert!(from_canonical_line(&line).is_some());
        for variant in [
            format!("{line} "),
            format!("{line}}}"),
            format!("{line}x"),
            format!(" {line}"),
            line.replacen(':', ": ", 1),
            line.replacen("FnEnd", "FnEndX", 1),
            line.replacen("{\"seq\"", "{\"Seq\"", 1),
        ] {
            assert_eq!(from_canonical_line(&variant), None, "{variant}");
        }
    }
}
