//! `serve-mix`: the planning service under a closed loop — 2 clients,
//! each waiting for its reply before sending again, against 2 service
//! workers on a warmed cache. Clients take the next request index from
//! one shared counter, so the request mix reaches both clients in the
//! same proportions.

// lint: allow-file(wall-clock)
use crate::harness::{self, ms_since, CacheTally, Run};
use crate::paper::{plan, run};
use crate::reference::Reference;
use crate::spans::Spans;
use crate::stats::{cpu_secs, p50, sorted};
use mashup_core::{AnalysisError, MashupConfig, Pdc, PlanCache};
use mashup_dag::Platform;
use mashup_serve::{
    request_mix, PlanRequest, PlanService, ReplyStatus, RequestKind, ServeReply, ServiceConfig,
    WorkflowName, MIX_PERIOD,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

const CLIENTS: usize = 2;
const WORKERS: usize = 2;
/// Requests per block: the period of the service's own load-test stream
/// `request_mix` (6 workflows, 3 node counts, 8 tenants, every fourth
/// request a run and the rest plans).
const COMBOS: usize = 24;
/// Requests replayed serially in a traced run.
const REPLAYED: usize = 120;

/// Request `i` of the stream for `seed`: `request_mix`'s requests, each
/// block of [`COMBOS`] in a seeded order.
fn request(seed: u64, i: usize) -> PlanRequest {
    request_mix(harness::pick(seed, "serve-mix", COMBOS, i))
}

/// A request's content, which fixes its reply up to id and tenant.
fn content(req: &PlanRequest) -> (usize, usize, bool) {
    let wf = WorkflowName::ALL.iter().position(|w| *w == req.workflow);
    (
        wf.expect("known workflow"),
        req.nodes,
        req.kind == RequestKind::Run,
    )
}

/// The reply the service owes `req`, computed through the same public
/// calls its workers make, optionally timed as layers.
fn serial_reply(
    spans: &mut Spans,
    op: usize,
    req: &PlanRequest,
    cache: &Arc<PlanCache>,
) -> ServeReply {
    let (w, _) = spans.time(op, "workflows.build", || req.workflow.build(req.seed));
    let cfg = MashupConfig::aws(req.nodes.max(1));
    let pdc = Pdc::new(cfg.clone()).with_cache(cache.clone());
    let base = ServeReply {
        id: 0,
        tenant: req.tenant.clone(),
        workflow: w.name.clone(),
        status: ReplyStatus::Done,
        makespan_secs: 0.0,
        expense_dollars: 0.0,
        profiling_expense_dollars: 0.0,
        serverless_tasks: 0,
        vm_tasks: 0,
        subclusters: 0,
        detail: String::new(),
    };
    let result: Result<ServeReply, AnalysisError> = match req.kind {
        RequestKind::Plan => plan(spans, op, &cfg, &pdc, cache, &w).map(|p| ServeReply {
            profiling_expense_dollars: p.profiling_expense.total(),
            serverless_tasks: p.plan.count(Platform::Serverless),
            vm_tasks: p.plan.count(Platform::VmCluster),
            subclusters: p.subclusters,
            ..base.clone()
        }),
        RequestKind::Run => run(spans, op, &cfg, &pdc, cache, &w).map(|o| ServeReply {
            makespan_secs: o.report.makespan_secs,
            expense_dollars: o.report.expense.total(),
            profiling_expense_dollars: o.pdc.profiling_expense.total(),
            serverless_tasks: o.report.plan.count(Platform::Serverless),
            vm_tasks: o.report.plan.count(Platform::VmCluster),
            subclusters: o.pdc.subclusters,
            ..base.clone()
        }),
    };
    result.unwrap_or_else(|e| ServeReply {
        status: ReplyStatus::Refused,
        detail: e.to_string(),
        ..base
    })
}

/// A running service plus the reply owed to each request content.
struct State {
    service: Arc<PlanService>,
    workers: Vec<JoinHandle<()>>,
    expected: BTreeMap<(usize, usize, bool), ServeReply>,
}

impl State {
    /// Starts the service and warms its cache by computing, serially, the
    /// reply to every distinct request content of the mix.
    fn start() -> Self {
        let service = PlanService::new(ServiceConfig::default());
        let workers = service.spawn_workers(WORKERS);
        let cache = service.cache();
        let mut expected = BTreeMap::new();
        for i in 0..MIX_PERIOD {
            let req = request_mix(i);
            let reply = serial_reply(&mut Spans::off(), 0, &req, &cache);
            expected.insert(content(&req), reply);
        }
        State {
            service,
            workers,
            expected,
        }
    }

    /// True when `reply` is the one owed to `req`.
    fn owed(&self, req: &PlanRequest, reply: &ServeReply) -> bool {
        let want = &self.expected[&content(req)];
        reply.status == ReplyStatus::Done
            && *reply
                == ServeReply {
                    id: reply.id,
                    tenant: req.tenant.clone(),
                    ..want.clone()
                }
    }
}

impl Drop for State {
    fn drop(&mut self) {
        self.service.shutdown();
        for w in self.workers.drain(..) {
            // A worker that panicked has already failed its requests.
            let _ = w.join();
        }
    }
}

/// One client request's outcome.
struct Sample {
    i: usize,
    kind: RequestKind,
    ms: f64,
    done: bool,
    ok: bool,
    traced: bool,
}

pub fn workload(seed: u64, seconds: f64, trace: bool) -> Run {
    let mut out = Run::new(trace, 1);
    let (state, checks) = out.setup(|| {
        let checks = harness::check_makespans(&Arc::new(PlanCache::new()));
        (State::start(), checks)
    });
    out.tally_checks(checks);

    let next = AtomicUsize::new(0);
    // Once time is up, clients finish the current block of the stream,
    // so every run sends whole blocks and the same request mix.
    let limit = AtomicUsize::new(usize::MAX);
    let rejected = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::new());
    let traced_spans = Mutex::new(Vec::new());
    let references = Mutex::new(Vec::new());
    let spans = out.spans.take();
    let before = state.service.stats().cache;
    let cpu = cpu_secs();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| {
                let mut mine = Vec::new();
                let mut reference = Reference::default();
                let mut rec = spans.as_ref().map(Spans::sibling);
                let mut send = |i: usize, req: &PlanRequest, spans: &mut Spans| {
                    let t = Instant::now();
                    let (submitted, _) =
                        spans.time(i, "serve.submit", || state.service.submit(req.clone()));
                    let Ok(ticket) = submitted else {
                        rejected.fetch_add(1, Ordering::Relaxed);
                        return;
                    };
                    let (reply, _) = spans.time(i, "serve.wait", || ticket.wait());
                    mine.push(Sample {
                        i,
                        kind: req.kind,
                        ms: ms_since(t),
                        done: reply.status == ReplyStatus::Done,
                        ok: state.owed(req, &reply),
                        traced: spans.is_on(),
                    });
                };
                loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    if start.elapsed().as_secs_f64() >= seconds {
                        let handed_out = next.load(Ordering::SeqCst);
                        limit.fetch_min(handed_out.div_ceil(COMBOS) * COMBOS, Ordering::SeqCst);
                    }
                    if i >= limit.load(Ordering::SeqCst) {
                        break;
                    }
                    let req = request(seed, i);
                    send(i, &req, &mut Spans::off());
                    reference.tick();
                    // A traced run sends each request again, traced, so
                    // the two times compare like for like.
                    if let Some(rec) = rec.as_mut() {
                        send(i, &req, rec);
                        reference.tick();
                    }
                }
                samples.lock().expect("samples lock").extend(mine);
                references.lock().expect("references lock").push(reference);
                if let Some(rec) = rec {
                    traced_spans.lock().expect("spans lock").push(rec);
                }
            });
        }
    });
    out.elapsed_s = start.elapsed().as_secs_f64();
    out.cpu_s = cpu_secs() - cpu;
    let after = state.service.stats().cache;

    for r in references.into_inner().expect("references lock") {
        out.reference.merge(r);
    }
    let samples = samples.into_inner().expect("samples lock");
    let rejected = rejected.into_inner();
    for s in &samples {
        out.tally(s.ok);
        if s.traced {
            out.traced_ms.push(s.ms);
        } else {
            out.lat_ms.push(s.ms);
            let kind = match s.kind {
                RequestKind::Plan => "plan",
                RequestKind::Run => "run",
            };
            out.lat_ms_by_kind.entry(kind).or_default().push(s.ms);
        }
    }
    for _ in 0..rejected {
        out.tally(false);
    }
    let refused = samples.iter().filter(|s| !s.done).count();

    if let Some(mut spans) = spans {
        for rec in traced_spans.into_inner().expect("spans lock") {
            spans.extend(rec);
        }
        // Service time per kind: the first requests of the stream replayed
        // one at a time, untraced, through the public calls a worker makes,
        // on the warmed cache. Queueing is what the service added to the
        // latency of those same requests. Each replay runs again, traced,
        // for the layer spans.
        let cache = state.service.cache();
        let issued = limit.into_inner();
        let replayed = issued.min(REPLAYED);
        let mut service_ms = Vec::with_capacity(replayed);
        for i in 0..replayed {
            let req = request(seed, i);
            let t = Instant::now();
            let reply = serial_reply(&mut Spans::off(), i, &req, &cache);
            service_ms.push((req.kind, ms_since(t)));
            out.tally(state.owed(&req, &reply));
            let reply = serial_reply(&mut spans, issued + i, &req, &cache);
            out.tally(state.owed(&req, &reply));
        }
        let kinds = [
            (
                RequestKind::Plan,
                "serve.service_ms.plan",
                "serve.queue_ms.plan",
            ),
            (
                RequestKind::Run,
                "serve.service_ms.run",
                "serve.queue_ms.run",
            ),
        ];
        for (kind, service_name, queue_name) in kinds {
            let service = service_ms.iter().filter(|(k, _)| *k == kind);
            let service = p50(&sorted(service.map(|(_, ms)| *ms).collect()));
            let latency = samples
                .iter()
                .filter(|s| s.i < replayed && s.kind == kind && !s.traced);
            let latency = p50(&sorted(latency.map(|s| s.ms).collect()));
            out.layers.insert(service_name, service);
            out.layers.insert(queue_name, latency - service);
        }
        out.layers.insert("serve.rejected", rejected as f64);
        out.layers.insert("serve.refused", refused as f64);
        let mut tally = CacheTally::default();
        tally.add(&before, &after);
        tally.record(&mut out.layers);
        out.spans = Some(spans);
    }
    out
}
