//! The multi-tenant planning service.
//!
//! [`PlanService`] turns the engine into a shared facility: JSON
//! [`PlanRequest`]s in, [`ServeReply`]s out, with one [`PlanCache`] shared
//! across every tenant so profiling work done for one request is reused by
//! all later requests with the same content fingerprints. The service is
//! the serving-side counterpart of the figure sweep: both shard *whole*
//! deterministic engine runs across worker threads (see [`crate::pool`]),
//! so a reply is a pure function of its request — bit-identical at any
//! worker count.
//!
//! # Admission control
//!
//! Requests pass through a bounded [`FairQueue`]. When the total queued
//! work reaches the configured depth, [`PlanService::submit`] refuses with
//! [`Rejection::QueueFull`] — the HTTP-429 analogue — instead of letting
//! latency grow without bound. Dequeue order is round-robin across tenants
//! (each tenant has its own FIFO lane), so a tenant that floods the queue
//! delays its own backlog, not everyone else's.
//!
//! # Execution modes
//!
//! * [`PlanService::spawn_workers`] — persistent worker threads for live
//!   serving (`mashup serve`, the benchmark's serve-mix workload);
//!   blocked on a condvar while idle, released by
//!   [`PlanService::shutdown`].
//! * [`PlanService::drain`] — batch mode: scoped workers process the
//!   backlog until dry, then return. Used by tests (deterministic, no
//!   teardown bookkeeping) and one-shot batch clients.

use mashup_core::{CacheStats, Mashup, MashupConfig, Pdc, PlanCache};
use mashup_dag::{Platform, Workflow};
use mashup_workflows::{generate, SyntheticConfig};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// The workflows the service can plan or run. Unit variants serialize as
/// their bare names, so a JSON request says `"workflow": "Genome1000"`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkflowName {
    /// The paper's 1000Genome workflow (5 tasks, 2506 components).
    Genome1000,
    /// The paper's SRAsearch workflow (5 tasks, 404 components).
    SraSearch,
    /// The paper's Epigenomics workflow (9 tasks, 2007 components).
    Epigenomics,
    /// Synthetic generator, small preset (3 phases, narrow tasks).
    SyntheticSmall,
    /// Synthetic generator, default preset.
    SyntheticMedium,
    /// Synthetic generator, large preset (6 phases, wide tasks).
    SyntheticLarge,
}

impl WorkflowName {
    /// All request-able workflows, paper order then synthetic presets.
    pub const ALL: [WorkflowName; 6] = [
        WorkflowName::Genome1000,
        WorkflowName::SraSearch,
        WorkflowName::Epigenomics,
        WorkflowName::SyntheticSmall,
        WorkflowName::SyntheticMedium,
        WorkflowName::SyntheticLarge,
    ];

    /// Materializes the workflow. `seed` feeds the synthetic generator and
    /// is ignored by the (fixed) paper workflows.
    pub fn build(self, seed: u64) -> Workflow {
        match self {
            WorkflowName::Genome1000 => mashup_workflows::genome1000::workflow(),
            WorkflowName::SraSearch => mashup_workflows::srasearch::workflow(),
            WorkflowName::Epigenomics => mashup_workflows::epigenomics::workflow(),
            WorkflowName::SyntheticSmall => generate(
                &SyntheticConfig {
                    phases: 3,
                    tasks_per_phase: (1, 2),
                    component_choices: vec![1, 4, 16],
                    compute_secs: (5.0, 60.0),
                    io_bytes: (1.0e6, 5.0e7),
                    slowdown: (0.8, 1.6),
                    recurring_prob: 0.0,
                },
                seed,
            ),
            WorkflowName::SyntheticMedium => generate(&SyntheticConfig::default(), seed),
            WorkflowName::SyntheticLarge => generate(
                &SyntheticConfig {
                    phases: 6,
                    tasks_per_phase: (2, 4),
                    component_choices: vec![8, 64, 256, 512],
                    compute_secs: (10.0, 240.0),
                    io_bytes: (1.0e7, 1.0e9),
                    slowdown: (0.7, 2.0),
                    recurring_prob: 0.2,
                },
                seed,
            ),
        }
    }
}

/// What the tenant wants done with the workflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RequestKind {
    /// PDC profiling + decision only: returns the placement.
    Plan,
    /// Full pipeline: PDC then hybrid execution; returns the report
    /// summary.
    Run,
}

/// One tenant request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanRequest {
    /// Tenant identity — the fairness unit for queue admission.
    pub tenant: String,
    /// Which workflow to plan or run.
    pub workflow: WorkflowName,
    /// Plan only, or plan + execute.
    pub kind: RequestKind,
    /// VM cluster size to plan against.
    pub nodes: usize,
    /// Synthetic-generator seed (ignored for paper workflows).
    pub seed: u64,
}

/// The deterministic request mix: cycles the six workflows, three cluster
/// sizes, and eight tenants, with every fourth request a full `Run` and
/// the rest `Plan`. Pure in `i`, so every client and worker count replays
/// the identical request stream.
pub fn request_mix(i: usize) -> PlanRequest {
    let workflow = WorkflowName::ALL[i % WorkflowName::ALL.len()];
    PlanRequest {
        tenant: format!("tenant-{}", i % 8),
        workflow,
        kind: if i % 4 == 3 {
            RequestKind::Run
        } else {
            RequestKind::Plan
        },
        nodes: [4, 8, 16][i % 3],
        // A fixed seed per workflow keeps the distinct-request set small
        // (and the cache effective), mirroring a service whose tenants
        // re-plan a stable portfolio of workflows.
        seed: 11,
    }
}

/// The number of consecutive `request_mix` indices that cover every
/// distinct (workflow, kind, nodes) shape: lcm(6, 4, 3).
pub const MIX_PERIOD: usize = 12;

/// Reply status.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReplyStatus {
    /// The request executed; the numeric fields are meaningful.
    Done,
    /// Static analysis refused the input; `detail` carries the reason.
    Refused,
}

/// The service's answer to one admitted request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeReply {
    /// Ticket id (submission order).
    pub id: u64,
    /// Echo of the requesting tenant.
    pub tenant: String,
    /// Resolved workflow name.
    pub workflow: String,
    /// Outcome class.
    pub status: ReplyStatus,
    /// Production makespan in simulated seconds (0 for `Plan` requests).
    pub makespan_secs: f64,
    /// Production expense in dollars (0 for `Plan` requests).
    pub expense_dollars: f64,
    /// Profiling expense the PDC spent reaching its decision.
    pub profiling_expense_dollars: f64,
    /// Tasks the plan sends to serverless.
    pub serverless_tasks: usize,
    /// Tasks the plan keeps on the VM cluster.
    pub vm_tasks: usize,
    /// The sub-cluster split the PDC chose.
    pub subclusters: usize,
    /// Refusal reason when `status == Refused`, else empty.
    pub detail: String,
}

/// Why a submission was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Rejection {
    /// The bounded queue is at its depth limit — retry later (HTTP 429).
    QueueFull,
    /// [`PlanService::shutdown`] has been called — the service accepts no
    /// new work (HTTP 503).
    ShuttingDown,
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejection::QueueFull => write!(f, "queue full"),
            Rejection::ShuttingDown => write!(f, "shutting down"),
        }
    }
}

impl std::error::Error for Rejection {}

/// A bounded multi-tenant queue with round-robin dequeue.
///
/// Each tenant gets a FIFO lane; [`FairQueue::pop`] serves lanes in
/// round-robin order (alphabetical tenant order, resuming strictly after
/// the last-served tenant), so one tenant's backlog cannot starve another.
/// [`FairQueue::push`] refuses once the *total* queued count reaches the
/// depth limit.
#[derive(Debug)]
pub struct FairQueue<T> {
    lanes: BTreeMap<String, VecDeque<T>>,
    /// Tenant served last; `pop` resumes strictly after it (wrapping).
    cursor: Option<String>,
    depth: usize,
    len: usize,
}

impl<T> FairQueue<T> {
    /// An empty queue admitting at most `depth` items in total.
    pub fn new(depth: usize) -> Self {
        FairQueue {
            lanes: BTreeMap::new(),
            cursor: None,
            depth,
            len: 0,
        }
    }

    /// Total queued items across all tenants.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Enqueues `item` on `tenant`'s lane, refusing at the depth limit.
    pub fn push(&mut self, tenant: &str, item: T) -> Result<(), Rejection> {
        if self.len >= self.depth {
            return Err(Rejection::QueueFull);
        }
        self.lanes
            .entry(tenant.to_string())
            .or_default()
            .push_back(item);
        self.len += 1;
        Ok(())
    }

    /// Dequeues the next item round-robin across tenants.
    pub fn pop(&mut self) -> Option<(String, T)> {
        use std::ops::Bound::{Excluded, Unbounded};
        if self.len == 0 {
            return None;
        }
        // First non-empty lane strictly after the cursor, wrapping to the
        // start. Lanes are removed when emptied, so any present lane is
        // non-empty.
        let key = match &self.cursor {
            Some(c) => self
                .lanes
                .range::<String, _>((Excluded(c), Unbounded))
                .map(|(k, _)| k.clone())
                .next(),
            None => None,
        }
        .or_else(|| self.lanes.keys().next().cloned())?;
        let lane = self.lanes.get_mut(&key).expect("lane exists");
        let item = lane.pop_front().expect("lanes are never empty");
        if lane.is_empty() {
            self.lanes.remove(&key);
        }
        self.len -= 1;
        self.cursor = Some(key.clone());
        Some((key, item))
    }
}

/// Service construction knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServiceConfig {
    /// Maximum queued (admitted but unprocessed) requests.
    pub queue_depth: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig { queue_depth: 1024 }
    }
}

/// Counters snapshot for observability.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServiceStats {
    /// Requests admitted to the queue.
    pub admitted: u64,
    /// Requests refused at submission (queue full, shutting down).
    pub rejected: u64,
    /// Requests fully processed.
    pub completed: u64,
    /// Requests currently queued.
    pub queued: u64,
    /// The shared plan cache's counters.
    pub cache: CacheStats,
}

/// One admitted request waiting for (or holding) its reply.
struct Slot {
    reply: Mutex<Option<ServeReply>>,
    done: Condvar,
}

struct Job {
    id: u64,
    req: PlanRequest,
    slot: Arc<Slot>,
}

struct ServiceState {
    queue: FairQueue<Job>,
    open: bool,
}

/// The multi-tenant planning service. See the module docs.
pub struct PlanService {
    cache: Arc<PlanCache>,
    state: Mutex<ServiceState>,
    work: Condvar,
    next_id: AtomicU64,
    admitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
}

/// A handle to one admitted request; [`Ticket::wait`] blocks until the
/// reply is ready.
pub struct Ticket {
    id: u64,
    slot: Arc<Slot>,
}

impl Ticket {
    /// The request's ticket id (submission order).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until a worker has produced the reply.
    pub fn wait(self) -> ServeReply {
        let mut guard = self.slot.reply.lock().expect("ticket lock");
        while guard.is_none() {
            guard = self.slot.done.wait(guard).expect("ticket condvar");
        }
        guard.take().expect("reply present")
    }
}

impl PlanService {
    /// A fresh service with its own empty [`PlanCache`].
    pub fn new(cfg: ServiceConfig) -> Arc<Self> {
        Self::with_cache(cfg, Arc::new(PlanCache::new()))
    }

    /// A service sharing an existing cache (e.g. pre-warmed, or shared with
    /// a sweep).
    pub fn with_cache(cfg: ServiceConfig, cache: Arc<PlanCache>) -> Arc<Self> {
        Arc::new(PlanService {
            cache,
            state: Mutex::new(ServiceState {
                queue: FairQueue::new(cfg.queue_depth),
                open: true,
            }),
            work: Condvar::new(),
            next_id: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            completed: AtomicU64::new(0),
        })
    }

    /// The shared plan cache.
    pub fn cache(&self) -> Arc<PlanCache> {
        self.cache.clone()
    }

    /// Admits `req` to the queue, returning a [`Ticket`] to wait on, or
    /// refuses with [`Rejection::QueueFull`] at the depth limit and
    /// [`Rejection::ShuttingDown`] after [`shutdown`](Self::shutdown).
    pub fn submit(&self, req: PlanRequest) -> Result<Ticket, Rejection> {
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        let slot = Arc::new(Slot {
            reply: Mutex::new(None),
            done: Condvar::new(),
        });
        let tenant = req.tenant.clone();
        let job = Job {
            id,
            req,
            slot: slot.clone(),
        };
        {
            let mut state = self.state.lock().expect("service lock");
            // Checked under the state lock: after `shutdown` flips `open`,
            // workers exit once the queue drains, so admitting here would
            // strand the job (its ticket would wait forever).
            if !state.open {
                self.rejected.fetch_add(1, Ordering::SeqCst);
                return Err(Rejection::ShuttingDown);
            }
            if let Err(e) = state.queue.push(&tenant, job) {
                self.rejected.fetch_add(1, Ordering::SeqCst);
                return Err(e);
            }
        }
        self.admitted.fetch_add(1, Ordering::SeqCst);
        self.work.notify_one();
        Ok(Ticket { id, slot })
    }

    /// Counters snapshot (queue length, admissions, the shared cache).
    pub fn stats(&self) -> ServiceStats {
        let queued = self.state.lock().expect("service lock").queue.len() as u64;
        ServiceStats {
            admitted: self.admitted.load(Ordering::SeqCst),
            rejected: self.rejected.load(Ordering::SeqCst),
            completed: self.completed.load(Ordering::SeqCst),
            queued,
            cache: self.cache.stats(),
        }
    }

    /// Starts `n` persistent worker threads. Each runs [`worker_loop`]
    /// until [`PlanService::shutdown`]; join the returned handles after
    /// shutting down.
    ///
    /// [`worker_loop`]: PlanService::worker_loop
    pub fn spawn_workers(self: &Arc<Self>, n: usize) -> Vec<std::thread::JoinHandle<()>> {
        (0..n.max(1))
            .map(|_| {
                let service = self.clone();
                std::thread::spawn(move || service.worker_loop())
            })
            .collect()
    }

    /// Serves jobs until the service is shut down *and* the queue is dry
    /// (a shutdown never drops admitted work).
    pub fn worker_loop(&self) {
        loop {
            let job = {
                let mut state = self.state.lock().expect("service lock");
                loop {
                    if let Some((_, job)) = state.queue.pop() {
                        break job;
                    }
                    if !state.open {
                        return;
                    }
                    state = self.work.wait(state).expect("service condvar");
                }
            };
            self.process(job);
        }
    }

    /// Stops the worker loops once the backlog drains.
    pub fn shutdown(&self) {
        self.state.lock().expect("service lock").open = false;
        self.work.notify_all();
    }

    /// Batch mode: processes everything currently queued on `workers`
    /// scoped threads and returns when the queue is dry. Does not disturb
    /// persistent workers (they just race for the same jobs).
    pub fn drain(&self, workers: usize) {
        let workers = workers.max(1);
        if workers == 1 {
            while let Some(job) = self.try_pop() {
                self.process(job);
            }
            return;
        }
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    while let Some(job) = self.try_pop() {
                        self.process(job);
                    }
                });
            }
        });
    }

    fn try_pop(&self) -> Option<Job> {
        self.state
            .lock()
            .expect("service lock")
            .queue
            .pop()
            .map(|(_, job)| job)
    }

    fn process(&self, job: Job) {
        // A panicking request (an engine bug) must still produce a reply:
        // the client is blocked in `Ticket::wait` and a silently-dead
        // worker would strand it forever. The panic is converted to a
        // `Refused` reply and the worker keeps serving.
        let reply = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute_request(job.id, &job.req, &self.cache)
        }))
        .unwrap_or_else(|panic| ServeReply {
            id: job.id,
            tenant: job.req.tenant.clone(),
            workflow: format!("{:?}", job.req.workflow),
            status: ReplyStatus::Refused,
            makespan_secs: 0.0,
            expense_dollars: 0.0,
            profiling_expense_dollars: 0.0,
            serverless_tasks: 0,
            vm_tasks: 0,
            subclusters: 0,
            detail: format!("worker panicked: {}", panic_message(&*panic)),
        });
        self.completed.fetch_add(1, Ordering::SeqCst);
        let mut guard = job.slot.reply.lock().expect("ticket lock");
        *guard = Some(reply);
        job.slot.done.notify_all();
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Executes one request against the engine. Pure in the request: the
/// engine is seed-deterministic and the shared cache is memoization-pure,
/// so the reply is identical whichever worker runs it, cache warm or cold.
fn execute_request(id: u64, req: &PlanRequest, cache: &Arc<PlanCache>) -> ServeReply {
    // Deterministic fault injection for the worker-panic tests: engine
    // panics cannot be provoked through the public API (by design), so the
    // test binary smuggles one in via a reserved tenant name.
    #[cfg(test)]
    if req.tenant == "__panic" {
        panic!("injected test panic");
    }
    let workflow = req.workflow.build(req.seed);
    let cfg = MashupConfig::aws(req.nodes.max(1));
    let base = ServeReply {
        id,
        tenant: req.tenant.clone(),
        workflow: workflow.name.clone(),
        status: ReplyStatus::Done,
        makespan_secs: 0.0,
        expense_dollars: 0.0,
        profiling_expense_dollars: 0.0,
        serverless_tasks: 0,
        vm_tasks: 0,
        subclusters: 0,
        detail: String::new(),
    };
    match req.kind {
        RequestKind::Plan => match Pdc::new(cfg)
            .with_cache(cache.clone())
            .try_decide(&workflow)
        {
            Ok(pdc) => ServeReply {
                profiling_expense_dollars: pdc.profiling_expense.total(),
                serverless_tasks: pdc.plan.count(Platform::Serverless),
                vm_tasks: pdc.plan.count(Platform::VmCluster),
                subclusters: pdc.subclusters,
                ..base
            },
            Err(e) => ServeReply {
                status: ReplyStatus::Refused,
                detail: e.to_string(),
                ..base
            },
        },
        RequestKind::Run => match Mashup::new(cfg)
            .with_cache(cache.clone())
            .try_run(&workflow)
        {
            Ok(outcome) => ServeReply {
                makespan_secs: outcome.report.makespan_secs,
                expense_dollars: outcome.report.expense.total(),
                profiling_expense_dollars: outcome.pdc.profiling_expense.total(),
                serverless_tasks: outcome.report.plan.count(Platform::Serverless),
                vm_tasks: outcome.report.plan.count(Platform::VmCluster),
                subclusters: outcome.pdc.subclusters,
                ..base
            },
            Err(e) => ServeReply {
                status: ReplyStatus::Refused,
                detail: e.to_string(),
                ..base
            },
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(tenant: &str, i: usize) -> PlanRequest {
        PlanRequest {
            tenant: tenant.into(),
            workflow: WorkflowName::SyntheticSmall,
            kind: RequestKind::Plan,
            nodes: 4,
            seed: i as u64,
        }
    }

    #[test]
    fn fair_queue_rejects_past_its_depth() {
        let mut q = FairQueue::new(2);
        assert!(q.push("a", 1).is_ok());
        assert!(q.push("b", 2).is_ok());
        assert_eq!(q.push("a", 3), Err(Rejection::QueueFull));
        assert_eq!(q.len(), 2);
        // Draining reopens admission.
        q.pop().expect("item");
        assert!(q.push("c", 4).is_ok());
    }

    #[test]
    fn fair_queue_round_robins_across_tenants() {
        let mut q = FairQueue::new(16);
        // Hog tenant "a" enqueues 4 before "b" and "c" get 1 each.
        for i in 0..4 {
            q.push("a", ("a", i)).expect("admitted");
        }
        q.push("b", ("b", 0)).expect("admitted");
        q.push("c", ("c", 0)).expect("admitted");
        let order: Vec<(&str, usize)> = std::iter::from_fn(|| q.pop()).map(|(_, v)| v).collect();
        // b and c each get served within the first cycle; the hog's
        // backlog fills the tail.
        assert_eq!(
            order,
            vec![("a", 0), ("b", 0), ("c", 0), ("a", 1), ("a", 2), ("a", 3)]
        );
    }

    #[test]
    fn fair_queue_resumes_after_removed_cursor_lane() {
        let mut q = FairQueue::new(16);
        q.push("a", 1).expect("admitted");
        q.push("c", 3).expect("admitted");
        // Serving "a" empties and removes its lane; the cursor still
        // resolves to the next tenant after "a".
        assert_eq!(q.pop(), Some(("a".to_string(), 1)));
        q.push("b", 2).expect("admitted");
        assert_eq!(q.pop(), Some(("b".to_string(), 2)));
        assert_eq!(q.pop(), Some(("c".to_string(), 3)));
        assert!(q.pop().is_none());
    }

    #[test]
    fn fair_queue_is_fifo_within_a_tenant() {
        let mut q = FairQueue::new(8);
        for i in 0..5 {
            q.push("only", i).expect("admitted");
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|(_, v)| v).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn service_rejects_at_queue_depth_and_recovers_after_drain() {
        let service = PlanService::new(ServiceConfig { queue_depth: 3 });
        let tickets: Vec<Ticket> = (0..3)
            .map(|i| service.submit(req("t", i)).expect("admitted"))
            .collect();
        assert!(matches!(
            service.submit(req("t", 9)),
            Err(Rejection::QueueFull)
        ));
        let stats = service.stats();
        assert_eq!((stats.admitted, stats.rejected, stats.queued), (3, 1, 3));
        service.drain(1);
        for t in tickets {
            assert_eq!(t.wait().status, ReplyStatus::Done);
        }
        assert!(service.submit(req("t", 10)).is_ok());
        service.drain(1);
        assert_eq!(service.stats().completed, 4);
    }

    #[test]
    fn plan_and_run_replies_are_consistent() {
        let service = PlanService::new(ServiceConfig::default());
        let plan = service.submit(req("t", 1)).expect("admitted");
        let run = service
            .submit(PlanRequest {
                kind: RequestKind::Run,
                ..req("t", 1)
            })
            .expect("admitted");
        service.drain(2);
        let plan = plan.wait();
        let run = run.wait();
        // Same workflow + cluster: the run executes the plan's placement.
        assert_eq!(plan.serverless_tasks, run.serverless_tasks);
        assert_eq!(plan.vm_tasks, run.vm_tasks);
        assert_eq!(plan.subclusters, run.subclusters);
        assert_eq!(plan.makespan_secs, 0.0);
        assert!(run.makespan_secs > 0.0);
    }

    #[test]
    fn persistent_workers_serve_and_shut_down() {
        let service = PlanService::new(ServiceConfig::default());
        let handles = service.spawn_workers(2);
        let tickets: Vec<Ticket> = (0..6)
            .map(|i| service.submit(req(["a", "b"][i % 2], i)).expect("admitted"))
            .collect();
        for t in tickets {
            assert_eq!(t.wait().status, ReplyStatus::Done);
        }
        service.shutdown();
        for h in handles {
            h.join().expect("worker exits");
        }
        assert_eq!(service.stats().completed, 6);
    }

    #[test]
    fn submit_after_shutdown_is_rejected() {
        let service = PlanService::new(ServiceConfig::default());
        let admitted = service.submit(req("t", 0)).expect("admitted");
        service.shutdown();
        assert_eq!(
            service.submit(req("t", 1)).map(|t| t.id()),
            Err(Rejection::ShuttingDown)
        );
        // Work admitted before the shutdown still completes.
        service.drain(1);
        assert_eq!(admitted.wait().status, ReplyStatus::Done);
        let stats = service.stats();
        assert_eq!((stats.admitted, stats.rejected, stats.completed), (1, 1, 1));
    }

    #[test]
    fn panicking_request_still_answers_its_ticket() {
        let service = PlanService::new(ServiceConfig::default());
        let bad = service.submit(req("__panic", 0)).expect("admitted");
        service.drain(1);
        let reply = bad.wait();
        assert_eq!(reply.status, ReplyStatus::Refused);
        assert!(
            reply.detail.contains("injected test panic"),
            "detail carries the panic message: {}",
            reply.detail
        );
    }

    #[test]
    fn worker_survives_a_panicking_request() {
        let service = PlanService::new(ServiceConfig::default());
        let handles = service.spawn_workers(1);
        let bad = service.submit(req("__panic", 0)).expect("admitted");
        let good = service.submit(req("t", 1)).expect("admitted");
        // The single worker must outlive the panic to serve the second job.
        assert_eq!(bad.wait().status, ReplyStatus::Refused);
        assert_eq!(good.wait().status, ReplyStatus::Done);
        service.shutdown();
        for h in handles {
            h.join().expect("worker exits cleanly");
        }
        assert_eq!(service.stats().completed, 2);
    }

    #[test]
    fn requests_round_trip_through_json() {
        let r = req("tenant-1", 5);
        let json = serde_json::to_string(&r).expect("serialize");
        let back: PlanRequest = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(r, back);
    }

    #[test]
    fn request_mix_is_pure_and_covers_all_workflows() {
        for i in 0..MIX_PERIOD {
            assert_eq!(request_mix(i), request_mix(i));
        }
        let mut seen: Vec<&str> = Vec::new();
        for i in 0..MIX_PERIOD {
            let r = request_mix(i);
            let name = match r.workflow {
                WorkflowName::Genome1000 => "g",
                WorkflowName::SraSearch => "s",
                WorkflowName::Epigenomics => "e",
                WorkflowName::SyntheticSmall => "ss",
                WorkflowName::SyntheticMedium => "sm",
                WorkflowName::SyntheticLarge => "sl",
            };
            if !seen.contains(&name) {
                seen.push(name);
            }
        }
        assert_eq!(seen.len(), 6);
        // Both kinds appear within one period.
        assert!((0..MIX_PERIOD).any(|i| request_mix(i).kind == RequestKind::Run));
        assert!((0..MIX_PERIOD).any(|i| request_mix(i).kind == RequestKind::Plan));
    }
}
