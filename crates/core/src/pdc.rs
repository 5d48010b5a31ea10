//! The Placement Decision Controller (paper §3, Algorithm 1).
//!
//! Two-step profiling, exactly as the paper describes:
//!
//! 1. run the whole workflow once on the VM cluster and record each task's
//!    execution time `T_VM` (most workflow managers need such a run anyway;
//!    Mashup reuses it);
//! 2. run **one component** of each task in a serverless function and
//!    estimate the full task's serverless time `T_func` through the linear
//!    scaling model of Eq. 1 — `T_func = α·C + R_serverless + β` — where α
//!    (scaling slope) and β (constant start overhead) are calibrated
//!    autonomously with no-op micro-batches, plus an aggregate-bandwidth
//!    floor for I/O-heavy tasks (the I/O overhead the paper says the PDC
//!    accounts for).
//!
//! Decision rules layered on the Eq. 3 argmin:
//! * a conservative 2 s cold-start penalty is always added to serverless
//!   estimates;
//! * tasks whose memory footprint exceeds their function size are forced to
//!   the cluster. The function size is **per task**: by default every task
//!   uses the provider's base function (the paper's single 3 GB
//!   configuration), but a [`Sizing`](crate::Sizing) attached via
//!   [`Pdc::with_sizing`] assigns each task its own memory tier
//!   ([`crate::MEMORY_TIERS_GB`]), and the memory rule, the short-task
//!   threshold (tier core speed), the probe environment, and the expense
//!   argmin (tier price) all evaluate against that task's tier;
//! * very short tasks (< 1 s per component) are forced to the cluster —
//!   unless they are highly concurrent *and* frequently re-appearing, the
//!   paper's warm-pool exception;
//! * alternative objectives (expense, or equal weight on both) reproduce
//!   the Fig. 5 study.

use crate::analysis::CheckedWorkflow;
use crate::cache::{PlanCache, ProbeEntry, VmProfileEntry};
use crate::config::{tier_key, MashupConfig, Sizing};
use crate::exec::{execute_in_unchecked, Release};
use crate::fingerprint::{Fingerprint, Fingerprinter};
use mashup_analyze::{AnalysisError, FaasMisfit, PlanContext};
use mashup_cloud::{
    run_task_on_faas, Cloud, CloudEvent, CloudWorld, ClusterRunStats, Expense, FaasConfig,
    FaasRunStats, FaasTaskSpec,
};
use mashup_dag::{Phase, PlacementPlan, Platform, Task, TaskProfile, TaskRef, Workflow};
use mashup_sim::{Model, SimTime, Simulation, TraceEvent, Tracer};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::convert::Infallible;
use std::ops::Range;
use std::sync::Arc;

/// What the optimizer minimizes (Fig. 5 ablation; the paper's default is
/// execution time).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Objective {
    /// Minimize workflow execution time (Mashup's choice).
    ExecutionTime,
    /// Minimize dollar expense.
    Expense,
    /// Equal weight on both (product of ratios).
    Both,
}

/// Calibrated platform factors (the paper's experimentally-derived α, β, γ).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModelFactors {
    /// Scaling-time slope: seconds per component beyond the burst (Eq. 1).
    pub alpha: f64,
    /// Constant serverless start overhead in seconds (Eq. 1).
    pub beta: f64,
    /// VM contention exponent fitted per workflow (Eq. 2); ≥ 1.
    pub gamma: f64,
    /// Estimated aggregate store bandwidth in bytes/sec (for the I/O floor).
    pub store_bps: f64,
    /// Scheduler burst capacity observed during calibration.
    pub burst: usize,
}

/// The PDC's record for one task.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TaskDecision {
    /// Task location in the DAG.
    pub task: TaskRef,
    /// Component count.
    pub components: usize,
    /// Measured cluster execution time of the whole task, seconds.
    pub t_vm_secs: f64,
    /// Estimated serverless execution time of the whole task, seconds.
    pub t_serverless_est_secs: f64,
    /// Measured single-component serverless probe time, seconds.
    pub probe_secs: f64,
    /// Busy function-seconds of the probe (for expense estimation).
    pub probe_busy_secs: f64,
    /// Set when a rule forced the task to the cluster.
    pub forced_vm_reason: Option<ForcedVm>,
    /// The chosen platform.
    pub platform: Platform,
}

/// The Algorithm 1 rule that forced a task to the cluster, with the numbers
/// it compared. Its `Display` is the reason `mashup plan` prints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ForcedVm {
    /// The task cannot run in its function tier at all: a component is
    /// over the memory cap (M203), or no timeout window fits it (M202).
    Misfit(FaasMisfit),
    /// Too short to amortize a function start, and not the recurring,
    /// highly concurrent kind the warm-pool exception keeps serverless.
    ShortTask {
        /// One component's serverless runtime on its tier, seconds.
        runtime_secs: f64,
        /// The short-task threshold, seconds.
        threshold_secs: f64,
    },
    /// Going serverless moves more data over the WAN than it saves
    /// (the plan-level boundary refinement).
    BoundaryTax {
        /// Extra WAN data-movement seconds the placement causes.
        tax_secs: f64,
        /// Seconds the serverless estimate saves over the cluster.
        gain_secs: f64,
    },
}

impl std::fmt::Display for ForcedVm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ForcedVm::Misfit(FaasMisfit::Memory { need_gb, cap_gb }) => {
                write!(f, "memory {need_gb} GiB exceeds function cap {cap_gb} GiB")
            }
            ForcedVm::Misfit(window) => write!(f, "{window}"),
            ForcedVm::ShortTask {
                runtime_secs,
                threshold_secs,
            } => write!(
                f,
                "short-running ({runtime_secs:.2} s < {threshold_secs} s) without the \
                 recurring-task exception"
            ),
            ForcedVm::BoundaryTax {
                tax_secs,
                gain_secs,
            } => write!(
                f,
                "hybrid boundary tax ({tax_secs:.1} s of extra WAN data movement) outweighs \
                 the serverless gain ({gain_secs:.1} s)"
            ),
        }
    }
}

/// Serialized as its `Display` text, the form reports have always carried.
impl Serialize for ForcedVm {
    fn to_value(&self) -> serde::Value {
        self.to_string().to_value()
    }
}

/// The PDC's full output.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PdcReport {
    /// Calibrated model factors.
    pub factors: ModelFactors,
    /// Per-task decisions in DAG order.
    pub decisions: Vec<TaskDecision>,
    /// The resulting plan.
    pub plan: PlacementPlan,
    /// Expense of the profiling runs (VM pass + probes + calibration).
    pub profiling_expense: Expense,
    /// Makespan of the profiling VM pass, seconds.
    pub profiling_vm_makespan_secs: f64,
    /// The sub-cluster split the PDC found best for the VM side (§3:
    /// "Mashup recognizes the most optimal VM configuration and uses that
    /// as a baseline for the VM cluster").
    pub subclusters: usize,
}

/// Bookkeeping from one [`Pdc::replan`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplanStats {
    /// Phases with no content match in the base workflow, re-profiled in
    /// isolation.
    pub dirty_phases: usize,
    /// Decisions carried over verbatim from the previous report.
    pub reused_decisions: usize,
    /// Tasks re-decided (re-profiled, probed, estimated) by this call.
    pub replanned_tasks: usize,
    /// True when `prev` did not cover the base workflow and a full
    /// `decide` ran.
    pub full_replan: bool,
}

/// The Placement Decision Controller.
pub struct Pdc {
    cfg: MashupConfig,
    objective: Objective,
    cache: Arc<PlanCache>,
    tracer: Tracer,
    probe_sharing: bool,
    sizing: Option<Sizing>,
}

/// The candidate sub-cluster splits of the VM profiling passes, in the
/// order they run.
const SPLITS: [usize; 3] = [1, 2, 4];

/// The largest split: the most sub-clusters a profiling pass has.
const MAX_SPLIT: usize = SPLITS[SPLITS.len() - 1];

/// The candidate sub-cluster splits (k = 1, 2, 4) that fit a cluster of
/// `nodes`, in the order a split search tries them: the PDC's VM profiling
/// passes, and the tuned traditional baseline, which the paper strengthens
/// with the same search (§4).
pub fn subcluster_splits(nodes: usize) -> impl Iterator<Item = usize> {
    SPLITS.into_iter().filter(move |&k| k <= nodes)
}

/// Whether a later split's makespan `secs` beats the best so far,
/// `best_secs`, by the split search's 5% hysteresis: splitting halves every
/// task's node share, so a near-tie is noise, not signal.
pub fn finer_split_wins(secs: f64, best_secs: f64) -> bool {
    secs < best_secs * 0.95
}

/// The probe keys of one plan over a workflow borrowed for `'w`. The keys'
/// config prefix — tag, seed, one tier's FaaS config and the storage
/// config — is hashed once per tier and cloned for each task, not rehashed
/// for each of them.
///
/// Under probe sharing a key is a function of the task's tier and profile
/// alone (the code family is part of the profile), so consecutive tasks
/// with one tier and bit-equal profiles have one key: a run of them, such
/// as one family's wide phase, derives it once.
#[derive(Default)]
struct ProbeKeys<'w> {
    prefixes: Vec<(FaasConfig, Fingerprinter)>,
    /// The last shared probe's tier (an index into `prefixes`), profile
    /// and key.
    last_shared: Option<(usize, &'w TaskProfile, u128)>,
}

impl ProbeKeys<'_> {
    /// The index of `faas_cfg`'s prefix, hashed on its first use.
    fn tier(&mut self, cfg: &MashupConfig, faas_cfg: &FaasConfig) -> usize {
        if let Some(i) = self.prefixes.iter().position(|(c, _)| c == faas_cfg) {
            return i;
        }
        let mut f = Fingerprinter::new("pdc-probe-v2");
        f.write_u64(cfg.seed);
        faas_cfg.fingerprint(&mut f);
        cfg.provider.storage.fingerprint(&mut f);
        self.prefixes.push((faas_cfg.clone(), f));
        self.prefixes.len() - 1
    }
}

/// Whether two profiles are equal bit for bit, floats compared by bit
/// pattern as their fingerprints hash them (so `0.0` and `-0.0` differ).
fn same_profile_bits(a: &TaskProfile, b: &TaskProfile) -> bool {
    // Destructured without `..`: a new profile field fails to compile here
    // until it is compared.
    let TaskProfile {
        compute_secs_vm,
        serverless_slowdown,
        input_bytes,
        output_bytes,
        memory_gb,
        vm_local_contention,
        runtime_jitter,
        recurring,
        checkpoint_bytes,
        code_family,
    } = a;
    let floats = [
        (compute_secs_vm, b.compute_secs_vm),
        (serverless_slowdown, b.serverless_slowdown),
        (input_bytes, b.input_bytes),
        (output_bytes, b.output_bytes),
        (memory_gb, b.memory_gb),
        (vm_local_contention, b.vm_local_contention),
        (runtime_jitter, b.runtime_jitter),
        (checkpoint_bytes, b.checkpoint_bytes),
    ];
    floats.iter().all(|(x, y)| x.to_bits() == y.to_bits())
        && *recurring == b.recurring
        && *code_family == b.code_family
}

impl Pdc {
    /// Creates a PDC optimizing execution time (the paper's default),
    /// memoizing its profiling stages in a cache of its own.
    ///
    /// Any chaos spec on `cfg` is stripped: profiling and probe
    /// environments model the provider's *advertised* behaviour, never the
    /// injected faults (and a plan cache stays shareable across chaos
    /// scenarios).
    pub fn new(mut cfg: MashupConfig) -> Self {
        cfg.chaos = None;
        Pdc {
            cfg,
            objective: Objective::ExecutionTime,
            cache: Arc::default(),
            tracer: Tracer::off(),
            probe_sharing: false,
            sizing: None,
        }
    }

    /// Builder-style: records decision provenance (each task's argmin
    /// inputs and outcome) into `tracer`. Planning happens before simulated
    /// time starts, so every record lands at t = 0. The profiling
    /// environments themselves stay untraced, and so does the cache: a
    /// trace never shows whether a stage was computed or reused.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Builder-style: changes the optimization objective.
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Builder-style: memoizes the profiling stages in `cache`, shared
    /// with other planners. Reports are bit-identical whichever cache a
    /// planner uses and however warm it is (see [`PlanCache`]).
    pub fn with_cache(mut self, cache: Arc<PlanCache>) -> Self {
        self.cache = cache;
        self
    }

    /// Builder-style: shares serverless probes between tasks declaring the
    /// same `code_family`. A probe measures one component of a task's code
    /// on the FaaS platform, so same-family tasks with identical profiles
    /// are interchangeable probe subjects — at million-task scale a
    /// generator emitting one family per phase pays one probe per family
    /// instead of one per task. Off by default: sharing changes probe seeds
    /// and labels, so opted-out runs stay byte-identical to prior releases.
    pub fn with_probe_sharing(mut self, enabled: bool) -> Self {
        self.probe_sharing = enabled;
        self
    }

    /// Builder-style: assigns each task its own serverless memory tier
    /// (flat-id indexed, so the sizing must be built for the same workflow
    /// the PDC decides). Without a sizing — or with [`Sizing::base`] —
    /// every task uses the provider's base function size and decisions are
    /// bit-identical to prior releases. Tier probes are cached under keys
    /// that fingerprint the tier's FaaS behaviour, so a candidate sweep
    /// over sizings pays one probe per (task, tier), not per candidate.
    pub fn with_sizing(mut self, sizing: Sizing) -> Self {
        self.sizing = Some(sizing);
        self
    }

    /// The FaaS configuration task `r` executes under: its sizing tier's
    /// derived config when a sizing is attached, otherwise the provider's
    /// base function (borrowed — the unsized path allocates nothing).
    fn task_faas_cfg(&self, workflow: &Workflow, r: TaskRef) -> Cow<'_, FaasConfig> {
        match &self.sizing {
            None => Cow::Borrowed(&self.cfg.provider.faas),
            Some(s) => {
                let flat = workflow.arena().flat(r).expect("task ref in workflow");
                Cow::Owned(self.cfg.faas_tier(s.tier(flat)))
            }
        }
    }

    /// Whether task `r` sits at the provider's base function size (always
    /// true without a sizing).
    fn at_base_tier(&self, workflow: &Workflow, r: TaskRef) -> bool {
        match &self.sizing {
            None => true,
            Some(s) => {
                let flat = workflow.arena().flat(r).expect("task ref in workflow");
                tier_key(s.tier(flat)) == tier_key(self.cfg.provider.faas.memory_gb)
            }
        }
    }

    /// The shared identity a probe is keyed, labelled, and seeded by — the
    /// task's `code_family` when probe sharing is on and the family is
    /// declared, `None` (the task stands alone) otherwise.
    fn probe_identity<'t>(&self, t: &'t Task) -> Option<&'t str> {
        if self.probe_sharing {
            t.profile.code_family.as_deref()
        } else {
            None
        }
    }

    /// Runs the M3xx checks of this PDC's config, then both profiling steps,
    /// and produces the placement plan. A refusal comes back before any
    /// profiling simulation runs.
    pub fn plan(&self, workflow: &CheckedWorkflow) -> Result<PdcReport, AnalysisError> {
        workflow.check(&self.cfg, None, None)?;
        Ok(self.plan_unchecked(workflow))
    }

    /// [`CheckedWorkflow::borrowed`], then [`Pdc::plan`], for callers that
    /// hold a bare workflow. Panics with the analyzer's message when it
    /// refuses the inputs.
    pub fn decide(&self, workflow: &Workflow) -> PdcReport {
        CheckedWorkflow::borrowed(workflow)
            .and_then(|w| self.plan(&w))
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Pdc::plan`] on a config the caller already checked.
    pub(crate) fn plan_unchecked(&self, workflow: &CheckedWorkflow) -> PdcReport {
        // Step 0: calibrate platform factors with no-op micro-batches.
        let factors = self.calibrated_factors();

        // Step 1: full VM profiling passes across candidate sub-cluster
        // splits (memoized on workflow + cluster shape + seed).
        let vm = self.cache.vm_profile(self.vm_profile_key(workflow), || {
            self.run_vm_profile(workflow, 0..workflow.phases.len())
        });

        // Step 2: single-component serverless probes + decisions. Flat ids
        // are phase-major (see `TaskArena`), matching both the `task_refs`
        // order and the profile vector's layout.
        let mut decisions = Vec::with_capacity(workflow.task_count());
        let mut plan = PlacementPlan::new();
        let mut probe_keys = ProbeKeys::default();
        for (flat, r) in workflow.task_refs().enumerate() {
            let t_vm = vm.best_task_vm[flat];
            let d = self.decide_task(workflow, r, t_vm, &factors, &mut probe_keys);
            plan.set(r, d.platform);
            decisions.push(d);
        }

        self.refine_boundaries(workflow, &mut decisions, &mut plan);
        self.trace_decisions(workflow, &decisions);

        PdcReport {
            factors,
            decisions,
            plan,
            profiling_expense: vm.expense,
            profiling_vm_makespan_secs: vm.vm_makespan_secs,
            subclusters: vm.subclusters,
        }
    }

    /// The plan-level boundary-tax refinement every planning path ends
    /// with. It reasons in seconds, so it only applies under the (default)
    /// execution-time objective.
    fn refine_boundaries(
        &self,
        workflow: &Workflow,
        decisions: &mut [TaskDecision],
        plan: &mut PlacementPlan,
    ) {
        if self.objective == Objective::ExecutionTime {
            let instance = &self.cfg.cluster.instance;
            let (wan, master) = (instance.wan_bps, instance.master_nic_bps);
            refine_boundary_taxes(workflow, decisions, plan, wan, master);
        }
    }

    /// Calibration factors, memoized.
    fn calibrated_factors(&self) -> ModelFactors {
        self.cache
            .calibration(self.calibration_key(), || calibrate(&self.cfg))
    }

    /// Decides one task from its measured cluster-side time `t_vm`: the
    /// memory and short-task rules, the (cached) serverless probe, the
    /// Eq. 1 estimate, and the objective argmin — shared verbatim by
    /// [`decide`](Pdc::decide) and [`replan`](Pdc::replan). `probe_keys`
    /// lives for one plan.
    fn decide_task<'w>(
        &self,
        workflow: &'w Workflow,
        r: TaskRef,
        t_vm: f64,
        factors: &ModelFactors,
        probe_keys: &mut ProbeKeys<'w>,
    ) -> TaskDecision {
        let t = workflow.task(r);
        let faas_cfg = self.task_faas_cfg(workflow, r);
        let decision = |est, probe: ProbeEntry, forced_vm_reason, platform| TaskDecision {
            task: r,
            components: t.components,
            t_vm_secs: t_vm,
            t_serverless_est_secs: est,
            probe_secs: probe.probe_secs,
            probe_busy_secs: probe.probe_busy_secs,
            forced_vm_reason,
            platform,
        };
        let forced = |probe, rule| decision(f64::INFINITY, probe, Some(rule), Platform::VmCluster);

        // Memory and window rules: a task the plan checks would refuse on
        // its function tier (M203, M202) never runs serverless, and is never
        // probed there.
        let ctx = PlanContext {
            faas: &faas_cfg,
            ..self.cfg.plan_context()
        };
        if let Some(misfit) = ctx.misfits(t).next() {
            let unprobed = ProbeEntry {
                probe_secs: 0.0,
                probe_busy_secs: 0.0,
            };
            return forced(unprobed, ForcedVm::Misfit(misfit));
        }

        let key = self.probe_key(probe_keys, r, t, &faas_cfg);
        let probe = self
            .cache
            .probe(key, || self.run_probe(workflow, r, &faas_cfg));

        // Short-task rule with the recurring/warm-pool exception.
        let single_runtime = t.profile.compute_secs_serverless() / faas_cfg.core_speed;
        let short = single_runtime < self.cfg.short_task_threshold_secs;
        let exception = t.profile.recurring && t.components > factors.burst;
        if short && !exception {
            let rule = ForcedVm::ShortTask {
                runtime_secs: single_runtime,
                threshold_secs: self.cfg.short_task_threshold_secs,
            };
            return forced(probe, rule);
        }

        let est = estimate_serverless_time(
            factors,
            t.components,
            probe.probe_secs,
            t.profile.io_bytes(),
            self.cfg.conservative_cold_start_secs,
        );
        let platform = self.choose(
            t_vm,
            est,
            t.components,
            probe.probe_busy_secs,
            faas_cfg.price_per_hour,
        );
        decision(est, probe, None, platform)
    }

    /// Decision provenance, recorded after the boundary refinement so each
    /// record carries the task's *final* platform and reason. Forced
    /// decisions never estimated a serverless time; their infinite sentinel
    /// is recorded as -1 (JSON has no infinity).
    fn trace_decisions(&self, workflow: &Workflow, decisions: &[TaskDecision]) {
        if !self.tracer.is_on() {
            // Skip building the per-decision events (two string clones
            // each): at 10^6 decisions the dead allocations are material.
            return;
        }
        for d in decisions {
            self.tracer.emit(
                SimTime::ZERO,
                TraceEvent::PdcDecision {
                    task: workflow.task(d.task).name.clone(),
                    t_vm_secs: d.t_vm_secs,
                    t_serverless_secs: if d.t_serverless_est_secs.is_finite() {
                        d.t_serverless_est_secs
                    } else {
                        -1.0
                    },
                    platform: match d.platform {
                        Platform::Serverless => "serverless".to_string(),
                        Platform::VmCluster => "vm".to_string(),
                    },
                    forced: d
                        .forced_vm_reason
                        .map(|f| f.to_string())
                        .unwrap_or_default(),
                },
            );
        }
    }

    /// Incrementally plans `workflow` — an edit of `base`, from a changed
    /// task profile to a structural rewrite such as a fusion candidate
    /// (phases merged, dropped or appended, tasks renamed) — reusing
    /// `prev`, the report a `decide` produced for `base`.
    ///
    /// Phases are barriered, so in the all-VM profiling passes each task's
    /// measured duration depends only on its *own phase's* content: at a
    /// phase boundary the fabric links are idle and the node loads zero,
    /// which makes per-task times start-time-translation invariant. Phases
    /// are therefore aligned **by content**: each new phase is matched
    /// against the base workflow's phases by a digest of its task content
    /// (names, components, profiles, initial-ingest flags — the same
    /// content the scoped phase profiler keys by), so a content-identical
    /// phase keeps its measured times wherever the edit moved it. Matched
    /// tasks at the base function tier reuse their previous decisions
    /// verbatim (boundary taxes stripped, refs rebased); matched tasks
    /// assigned a non-base tier re-run the decision rules against their
    /// tier using the previous VM measurement (the VM side is
    /// sizing-independent), paying only a per-(task, tier)-cached probe;
    /// unmatched phases — the ones the edit actually changed — are
    /// re-profiled in isolation through the memoized scoped phase
    /// profiler. The plan-level boundary-tax refinement is recomputed
    /// globally (it is cheap and plan-dependent).
    ///
    /// This is the evaluation core of the Pareto candidate sweep
    /// (`mashup_serve::pareto`): a sizing-only candidate re-probes nothing
    /// on a warm cache, and a fusion candidate re-profiles exactly its
    /// fused phases. Falls back to a full [`plan`](Pdc::plan) when `prev`
    /// does not cover `base`; `prev`'s planning checked the config.
    pub fn replan(
        &self,
        base: &Workflow,
        prev: &PdcReport,
        workflow: &CheckedWorkflow,
    ) -> (PdcReport, ReplanStats) {
        // Flat offset of each base phase's first decision in `prev`.
        let mut base_starts = Vec::with_capacity(base.phases.len());
        let mut acc = 0usize;
        for p in &base.phases {
            base_starts.push(acc);
            acc += p.tasks.len();
        }
        if prev.decisions.len() != acc {
            let report = self.plan_unchecked(workflow);
            let stats = ReplanStats {
                dirty_phases: workflow.phases.len(),
                reused_decisions: 0,
                replanned_tasks: report.decisions.len(),
                full_replan: true,
            };
            return (report, stats);
        }
        // Content index over the base phases (first occurrence wins; phase
        // content digests collide only for phases the profiler cannot tell
        // apart anyway). A match additionally requires equal task counts,
        // which the digest's length prefix already enforces.
        let mut by_content: BTreeMap<u128, usize> = BTreeMap::new();
        for (pi, p) in base.phases.iter().enumerate() {
            by_content.entry(phase_content_digest(p)).or_insert(pi);
        }

        let factors = self.calibrated_factors();
        let mut profiling_expense = prev.profiling_expense;
        let mut decisions = Vec::with_capacity(workflow.task_count());
        let mut plan = PlacementPlan::new();
        let mut probe_keys = ProbeKeys::default();
        let mut stats = ReplanStats {
            dirty_phases: 0,
            reused_decisions: 0,
            replanned_tasks: 0,
            full_replan: false,
        };
        for (pi, np) in workflow.phases.iter().enumerate() {
            match by_content.get(&phase_content_digest(np)).copied() {
                Some(bpi) => {
                    let start = base_starts[bpi];
                    for ti in 0..np.tasks.len() {
                        let r = TaskRef::new(pi, ti);
                        let prev_d = &prev.decisions[start + ti];
                        let d = if self.at_base_tier(workflow, r) {
                            let mut d = prev_d.clone();
                            d.task = r;
                            strip_boundary_tax(&mut d);
                            stats.reused_decisions += 1;
                            d
                        } else {
                            stats.replanned_tasks += 1;
                            let t_vm = prev_d.t_vm_secs;
                            self.decide_task(workflow, r, t_vm, &factors, &mut probe_keys)
                        };
                        plan.set(r, d.platform);
                        decisions.push(d);
                    }
                }
                None => {
                    stats.dirty_phases += 1;
                    let profile = self.phase_profile(workflow, pi);
                    add_expense(&mut profiling_expense, &profile.expense);
                    for ti in 0..np.tasks.len() {
                        let r = TaskRef::new(pi, ti);
                        let t_vm = profile.best_task_vm[ti];
                        let d = self.decide_task(workflow, r, t_vm, &factors, &mut probe_keys);
                        plan.set(r, d.platform);
                        decisions.push(d);
                    }
                    stats.replanned_tasks += np.tasks.len();
                }
            }
        }

        self.refine_boundaries(workflow, &mut decisions, &mut plan);
        self.trace_decisions(workflow, &decisions);

        let report = PdcReport {
            factors,
            decisions,
            plan,
            profiling_expense,
            profiling_vm_makespan_secs: prev.profiling_vm_makespan_secs,
            subclusters: prev.subclusters,
        };
        (report, stats)
    }

    /// Re-places `workflow` against reduced cluster capacity: `surviving`
    /// of the configured nodes remain (spot preemption reclaimed the
    /// rest). No profiling runs — mid-run replanning must stay off the hot
    /// path — so the previous report's measurements are reused with each
    /// task's cluster time scaled by its per-node load ratio
    /// `max(1, C/surviving) / max(1, C/nodes)`: a task wider than the
    /// cluster packs proportionally more components per surviving node
    /// (approaching `nodes / surviving`), while a task with fewer
    /// components than the surviving capacity is unaffected — it never
    /// waved in the first place. Serverless estimates are
    /// capacity-independent and ride along unchanged; the decision rules
    /// then re-run over the scaled times. Structural forcings (memory cap,
    /// short task) survive verbatim; plan-level boundary taxes are
    /// stripped and re-derived against the new plan. With
    /// `surviving == nodes` every scale is 1 and the report comes back
    /// decision-identical to `prev`.
    pub fn replan_capacity(
        &self,
        prev: &PdcReport,
        workflow: &Workflow,
        surviving: usize,
    ) -> PdcReport {
        let nodes = self.cfg.cluster.nodes.max(1);
        let surviving = surviving.clamp(1, nodes);
        let mut decisions = Vec::with_capacity(prev.decisions.len());
        let mut plan = PlacementPlan::new();
        for prev_d in &prev.decisions {
            let mut d = prev_d.clone();
            let t = workflow.task(d.task);
            d.t_vm_secs = prev_d.t_vm_secs * load_ratio(t.components, surviving, nodes);
            strip_boundary_tax(&mut d);
            if d.forced_vm_reason.is_none() {
                let faas_cfg = self.task_faas_cfg(workflow, d.task);
                d.platform = self.choose(
                    d.t_vm_secs,
                    d.t_serverless_est_secs,
                    t.components,
                    d.probe_busy_secs,
                    faas_cfg.price_per_hour,
                );
            }
            plan.set(d.task, d.platform);
            decisions.push(d);
        }
        self.refine_boundaries(workflow, &mut decisions, &mut plan);
        PdcReport {
            factors: prev.factors,
            decisions,
            plan,
            profiling_expense: prev.profiling_expense,
            profiling_vm_makespan_secs: prev.profiling_vm_makespan_secs,
            subclusters: prev.subclusters,
        }
    }

    /// Profiles `phases` of `workflow` on the all-VM cluster, one pass per
    /// candidate sub-cluster split (on a shifted seed, so profiling does
    /// not share jitter draws with production runs), and keeps the best VM
    /// configuration as the cluster-side baseline (§3 "Optimal VM
    /// configuration"). The VM profile runs every phase; the scoped phase
    /// profile of [`replan`](Pdc::replan) runs one, which starts on an idle
    /// cluster at t = 0, the state a full pass reaches at its barrier.
    /// Task times are indexed by flat id from the range's first task.
    ///
    /// The passes run through the executor, unchecked: the workflow is
    /// checked, the all-VM plan covers it, and they differ from the checked
    /// config only in `cluster.subclusters`, which the split set keeps
    /// within `1..=nodes`, the one M3xx bound that reads it. Every pass
    /// borrows the workflow.
    ///
    /// When [`splits_tie`](Pdc::splits_tie) holds for every phase of the
    /// range, only the first pass runs: each later split would reproduce
    /// it bit for bit, so its makespan and expense are folded in again for
    /// each of them, in split order, and its task times already are the
    /// minimum (`min` is idempotent).
    fn run_vm_profile(&self, workflow: &CheckedWorkflow, phases: Range<usize>) -> VmProfileEntry {
        let tasks =
            |r: Range<usize>| -> usize { workflow.phases[r].iter().map(|p| p.tasks.len()).sum() };
        let first_task = tasks(0..phases.start);
        let mut expense = Expense::default();
        let vm_plan = PlacementPlan::uniform(workflow, Platform::VmCluster);
        let arena = workflow.arena();
        let replay = self.splits_tie(&workflow.phases[phases.clone()]);
        let mut first: Option<(f64, Expense)> = None;
        let mut best: Option<(usize, f64)> = None;
        // Each task's best VM time across the splits: a task's
        // cluster-side potential is what the *best-configured* cluster
        // gives it (§3 "Mashup recognizes the most optimal VM
        // configuration") — the all-in-one run can be polluted by
        // co-scheduled siblings thrashing the same nodes.
        let mut best_task_vm = vec![f64::INFINITY; tasks(phases.clone())];
        for k in subcluster_splits(self.cfg.cluster.nodes) {
            let (makespan, pass_expense) = match first {
                Some(pass) if replay => pass,
                _ => {
                    let tuned = self
                        .cfg
                        .clone()
                        .with_subclusters(k)
                        .with_seed(self.cfg.seed.wrapping_add(0x9e3779b9));
                    let (report, completed) = execute_in_unchecked(
                        &tuned,
                        workflow,
                        &vm_plan,
                        None,
                        Release::PhaseBarrier,
                        phases.clone(),
                        &Tracer::off(),
                    );
                    for (t, r) in report.tasks.iter().zip(&completed) {
                        let flat = arena.flat(*r).expect("task ref in workflow");
                        let e = &mut best_task_vm[flat - first_task];
                        *e = e.min(t.makespan_secs());
                    }
                    (report.makespan_secs, report.expense)
                }
            };
            first.get_or_insert((makespan, pass_expense));
            add_expense(&mut expense, &pass_expense);
            if best.is_none_or(|(_, b)| finer_split_wins(makespan, b)) {
                best = Some((k, makespan));
            }
        }
        let (subclusters, vm_makespan_secs) = best.expect("single-cluster split always runs");
        VmProfileEntry {
            best_task_vm,
            subclusters,
            vm_makespan_secs,
            expense,
        }
    }

    /// Whether every candidate sub-cluster split (k = 1, 2, 4, up to the
    /// node count) provably profiles `phases` exactly as the first split
    /// does. The VM profiling passes, and the scoped phase profile of
    /// [`replan`](Pdc::replan), then run that split alone and replay it
    /// for the others. It holds when in every phase:
    ///
    /// * no task moves cluster bytes (`input_bytes` and `output_bytes`
    ///   ≤ 0), so `VmCluster::run_task` releases every component at the
    ///   phase start without touching a link, and each output lands at once;
    /// * under every split k ≤ nodes, with the real, uneven sub-cluster
    ///   sizes and the passes' round robin (task `ti` on sub-cluster
    ///   `ti % k`), no node holds more components than it has cores, and no
    ///   task's `memory_gb` times its node's load exceeds the node's RAM.
    ///
    /// Then every component's timeshare factor is exactly 1 under every
    /// split, so each component computes for `compute / core_speed × jitter`
    /// whichever node it lands on; the jitter streams are keyed by task
    /// name, not node, and the events are scheduled in the same order at
    /// the same instants. Every pass therefore gives the same task times,
    /// makespan and expense, bit for bit. Cheap to refuse: a phase fails at
    /// its first overloaded node.
    pub fn splits_tie(&self, phases: &[Phase]) -> bool {
        let cluster = &self.cfg.cluster;
        let (cores, node_gb) = (cluster.instance.cores, cluster.instance.memory_gb);
        let moves_bytes =
            |t: &Task| !(t.profile.input_bytes <= 0.0 && t.profile.output_bytes <= 0.0);
        let fits = |phase: &Phase, k: usize| {
            let mut sizes = [0usize; MAX_SPLIT];
            for (s, n) in cluster.subcluster_nodes(k).enumerate() {
                sizes[s] = n;
            }
            // Node 0 of a sub-cluster holds the most components: each task
            // places component `c` on node `c % size`.
            let mut load = [0usize; MAX_SPLIT];
            for (ti, t) in phase.tasks.iter().enumerate() {
                let s = ti % k;
                load[s] = load[s].saturating_add(t.components.div_ceil(sizes[s]));
                if load[s] > cores {
                    return false;
                }
            }
            phase
                .tasks
                .iter()
                .enumerate()
                .all(|(ti, t)| load[ti % k] as f64 * t.profile.memory_gb <= node_gb)
        };
        phases.iter().all(|phase| {
            !phase.tasks.iter().any(moves_bytes)
                && subcluster_splits(cluster.nodes).all(|k| fits(phase, k))
        })
    }

    /// Cache key for the calibration stage: seed + FaaS/storage behaviour
    /// (prices excluded — calibration never reads its own expense) + the
    /// raw checkpoint margin the no-op specs carry.
    fn calibration_key(&self) -> u128 {
        let mut f = Fingerprinter::new("pdc-calibration-v1");
        f.write_u64(self.cfg.seed);
        self.cfg.provider.faas.fingerprint(&mut f);
        self.cfg.provider.storage.fingerprint(&mut f);
        f.write_f64(self.cfg.checkpoint_margin_secs);
        f.digest()
    }

    /// Cache key for the VM profiling stage: the whole workflow + the
    /// cluster shape (instance price *included*: VM expense accrues at
    /// charge time inside the pass) + seed. FaaS/storage knobs are
    /// irrelevant — the pass is all-VM — so pricing/provider sweeps reuse
    /// it untouched.
    fn vm_profile_key(&self, workflow: &Workflow) -> u128 {
        let mut f = Fingerprinter::new("pdc-vm-profile-v1");
        f.write_u64(self.cfg.seed);
        self.cfg.cluster.fingerprint(&mut f);
        workflow.fingerprint(&mut f);
        f.digest()
    }

    /// Cache key for one serverless probe: seed + the probe subject's
    /// identity + profile + FaaS/storage behaviour + the task's resolved
    /// checkpoint margin. The subject is normally phase + task name (the
    /// probe's seed shift is phase-derived and the FaaS label
    /// keys warm pools); with [probe sharing](Pdc::with_probe_sharing) it
    /// is the code family alone, phase-independent, so every task of a
    /// family shares one probe. The cluster is deliberately absent, so
    /// node-count sweeps reuse every probe. `faas_cfg` is the task's tier
    /// config (fingerprinted, so each memory tier keys its own probe —
    /// which is what lets a sizing sweep share probes across candidates).
    /// The config part of the key comes hashed from `probe_keys`, and a
    /// shared key is derived once per run of tasks with its tier and
    /// profile (see [`ProbeKeys`]).
    fn probe_key<'w>(
        &self,
        probe_keys: &mut ProbeKeys<'w>,
        r: TaskRef,
        t: &'w Task,
        faas_cfg: &FaasConfig,
    ) -> u128 {
        let tier = probe_keys.tier(&self.cfg, faas_cfg);
        let family = self.probe_identity(t);
        // Only shared keys are remembered, and bit-equal profiles carry the
        // same family, so a match is a shared key of this very subject.
        if let Some((last_tier, last, key)) = probe_keys.last_shared {
            if last_tier == tier && same_profile_bits(last, &t.profile) {
                return key;
            }
        }
        let mut f = probe_keys.prefixes[tier].1.clone();
        match family {
            Some(family) => {
                // Sentinel phase: no real task ref carries usize::MAX.
                f.write_usize(usize::MAX);
                f.write_str(family);
            }
            None => {
                f.write_usize(r.phase);
                f.write_str(&t.name);
            }
        }
        t.profile.fingerprint(&mut f);
        f.write_f64(
            self.cfg
                .plan_context()
                .margin_for(t.profile.checkpoint_bytes),
        );
        let key = f.digest();
        if family.is_some() {
            probe_keys.last_shared = Some((tier, &t.profile, key));
        }
        key
    }

    /// Applies the objective to pick a platform. `price_fn` is the task's
    /// function tier's hourly price (the base price when unsized).
    fn choose(
        &self,
        t_vm: f64,
        t_sl_est: f64,
        components: usize,
        probe_busy_secs: f64,
        price_fn: f64,
    ) -> Platform {
        let price_vm = self.cfg.cluster.instance.price_per_hour;
        // Marginal expense reasoning: the cluster bills for the whole
        // run, so moving a task to serverless only saves money when the
        // node time it frees (makespan reduction × cluster size) is worth
        // more than the function bill.
        let fn_cost = components as f64 * probe_busy_secs / 3600.0 * price_fn;
        let saved_node_cost =
            (t_vm - t_sl_est).max(0.0) / 3600.0 * self.cfg.cluster.nodes as f64 * price_vm;
        let serverless_wins = match self.objective {
            Objective::ExecutionTime => t_sl_est < t_vm,
            Objective::Expense => fn_cost < saved_node_cost,
            Objective::Both => {
                t_sl_est < t_vm && fn_cost < 2.0 * saved_node_cost.max(f64::MIN_POSITIVE)
            }
        };
        if serverless_wins {
            Platform::Serverless
        } else {
            Platform::VmCluster
        }
    }

    /// Runs one component of task `r` in a serverless function (its own
    /// fresh world, on the task's function tier `faas_cfg`). Checkpoint
    /// chains for over-cap tasks are included, so the probe already prices
    /// the time-cap workaround.
    fn run_probe(&self, workflow: &Workflow, r: TaskRef, faas_cfg: &FaasConfig) -> ProbeEntry {
        let t = workflow.task(r);
        // A shared probe stands in for its family wherever its tasks sit,
        // so its seed shift is fixed; per-task probes keep their
        // phase-derived stream.
        let (shift, label) = match self.probe_identity(t) {
            Some(family) => (0x51ed2701, format!("probe:{family}")),
            None => (
                0x51ed2701 ^ (r.phase as u64) << 8,
                format!("probe:{}", t.name),
            ),
        };
        // The probe's platform is built from the task's tier config: the
        // provider's base function for the base tier.
        let mut cfg = self
            .cfg
            .clone()
            .with_seed(self.cfg.seed.wrapping_add(shift));
        cfg.provider.faas = faas_cfg.clone();
        let spec = FaasTaskSpec {
            label: &label,
            components: 1,
            compute_secs: t.profile.compute_secs_serverless(),
            input_bytes: t.profile.input_bytes,
            output_bytes: t.profile.output_bytes,
            io_requests: 1,
            checkpoint_bytes: t.profile.checkpoint_bytes,
            jitter: t.profile.runtime_jitter,
            memory_gb: t.profile.memory_gb,
            checkpoint_margin_secs: self
                .cfg
                .plan_context()
                .margin_for(t.profile.checkpoint_bytes),
        };
        let (stats, probe_busy_secs) = run_faas_batch(&cfg, spec);
        ProbeEntry {
            probe_secs: stats.makespan().as_secs(),
            probe_busy_secs,
        }
    }

    /// Scoped phase profile of `workflow.phases[phase_idx]`, memoized.
    fn phase_profile(&self, workflow: &CheckedWorkflow, phase_idx: usize) -> VmProfileEntry {
        let key = self.phase_profile_key(&workflow.phases[phase_idx]);
        self.cache.phase_profile(key, || {
            self.run_vm_profile(workflow, phase_idx..phase_idx + 1)
        })
    }

    /// Cache key for one scoped phase profile: seed + cluster shape + the
    /// phase's [content digest](phase_content_digest). The phase *index*
    /// is deliberately absent: scoped times are start-time-translation
    /// invariant, so identical phases share one entry wherever they sit.
    fn phase_profile_key(&self, phase: &Phase) -> u128 {
        let mut f = Fingerprinter::new("pdc-phase-profile-v2");
        f.write_u64(self.cfg.seed);
        self.cfg.cluster.fingerprint(&mut f);
        f.write_bytes(&phase_content_digest(phase).to_le_bytes());
        f.digest()
    }
}

/// Content digest of one phase as the all-VM passes can observe it: each
/// task's name (the jitter stream label), components, profile, and whether
/// it ingests the initial dataset (deps empty ⇒ master NIC, else fabric);
/// exact dependency refs excluded. It aligns phases in [`Pdc::replan`] and
/// keys the scoped phase profiler, so "matches" means "would profile
/// identically".
fn phase_content_digest(phase: &Phase) -> u128 {
    let mut f = Fingerprinter::new("pdc-structural-phase-v1");
    f.write_usize(phase.tasks.len());
    for t in &phase.tasks {
        f.write_str(&t.name);
        f.write_usize(t.components);
        t.profile.fingerprint(&mut f);
        f.write_bool(t.deps.is_empty());
    }
    f.digest()
}

/// The world of a probe or calibration batch: a fresh cloud running one
/// FaaS run, and that run's stats once it finished.
struct FaasBatch {
    cloud: Cloud<FaasBatch>,
    stats: Option<FaasRunStats>,
}

impl Model for FaasBatch {
    type Event = CloudEvent;

    fn handle(&mut self, event: CloudEvent, sim: &mut Simulation<Self>) {
        event.dispatch(self, sim)
    }
}

impl CloudWorld for FaasBatch {
    type ClusterTag = Infallible;
    type FaasTag = ();

    fn cloud(&mut self) -> &mut Cloud<Self> {
        &mut self.cloud
    }

    fn cluster_done(&mut self, _: &mut Simulation<Self>, tag: Infallible, _: ClusterRunStats) {
        match tag {}
    }

    fn faas_done(&mut self, _: &mut Simulation<Self>, (): (), stats: FaasRunStats) {
        self.stats = Some(stats);
    }
}

/// Runs `spec` alone on the base FaaS platform of a fresh cloud built from
/// `cfg`, to completion (shared by the probe and calibration paths, which
/// only differ in how they build the spec). Returns the run's stats and
/// the platform's busy function-seconds.
fn run_faas_batch(cfg: &MashupConfig, spec: FaasTaskSpec) -> (FaasRunStats, f64) {
    let (mut sim, cloud, seeds) = cfg.new_cloud();
    let mut batch = FaasBatch { cloud, stats: None };
    run_task_on_faas(&mut batch, &mut sim, None, spec, &seeds, ());
    sim.run(&mut batch);
    let stats = batch.stats.expect("FaaS batch completed");
    (stats, batch.cloud.faas.function_seconds())
}

/// Hybrid boundary refinement: a serverless placement forces its VM-side
/// producers to upload outputs to the store over the WAN (instead of the
/// faster master NIC) and its VM-side consumers to download the same way.
/// The per-task argmin cannot see this plan-level tax, so after the initial
/// decisions the PDC flips serverless tasks back to the cluster whenever
/// the attributable data-movement tax exceeds the task's own gain (the
/// paper's "all placement decisions... include I/O latency related to data
/// movement toward execution time").
fn refine_boundary_taxes(
    workflow: &Workflow,
    decisions: &mut [TaskDecision],
    plan: &mut PlacementPlan,
    wan_bps: f64,
    master_bps: f64,
) {
    // Seconds per byte *added* by crossing the platform boundary.
    let delta = (1.0 / wan_bps - 1.0 / master_bps).max(0.0);
    if delta == 0.0 {
        return;
    }
    // Iterate to a fixpoint (flips can remove other tasks' taxes) with a
    // worklist: a task's tax only changes when a platform in its 2-hop
    // boundary neighbourhood flips, so instead of re-evaluating every task
    // each round (quadratic on deep chains) only pending tasks are
    // re-examined. Sweeps stay in flat task order and a task is pending at
    // exactly the rounds where the dense fixpoint would have seen a changed
    // neighbourhood, so the flip order — and every recorded tax value — is
    // identical to the dense sweep's.
    let arena = workflow.arena();
    let n = decisions.len();
    debug_assert_eq!(n, arena.task_count());
    let mut pending = vec![true; n];
    for _ in 0..workflow.task_count() {
        let mut flipped = false;
        for i in 0..n {
            if !std::mem::take(&mut pending[i]) {
                continue;
            }
            let d = &mut decisions[i];
            debug_assert_eq!(d.task, arena.task_ref(i));
            if d.platform != Platform::Serverless {
                continue;
            }
            let (r, gain) = (d.task, d.t_vm_secs - d.t_serverless_est_secs);
            let tax = boundary_tax(workflow, plan, r, delta);
            if tax > gain {
                plan.set(r, Platform::VmCluster);
                d.platform = Platform::VmCluster;
                d.forced_vm_reason = Some(ForcedVm::BoundaryTax {
                    tax_secs: tax,
                    gain_secs: gain,
                });
                flipped = true;
                // The flip changes the taxes of r's producers and consumers
                // — and of *their* consumers/producers, because the
                // "only serverless sibling" checks look one hop further.
                for &(p, _) in arena.producers(i) {
                    pending[p as usize] = true;
                    for &(c, _) in arena.consumers(arena.task_ref(p as usize)) {
                        if let Some(cf) = arena.flat(c) {
                            pending[cf] = true;
                        }
                    }
                }
                for &(c, _) in arena.consumers(r) {
                    if let Some(cf) = arena.flat(c) {
                        pending[cf] = true;
                        for &(p, _) in arena.producers(cf) {
                            pending[p as usize] = true;
                        }
                    }
                }
            }
        }
        if !flipped {
            break;
        }
    }
}

/// Undoes a boundary-tax flip: the tax is plan-level, so a decision carried
/// into a new plan drops it and the new plan's refinement re-derives it.
fn strip_boundary_tax(d: &mut TaskDecision) {
    if let Some(ForcedVm::BoundaryTax { .. }) = d.forced_vm_reason {
        d.forced_vm_reason = None;
        d.platform = Platform::Serverless;
    }
}

/// The per-node load ratio of a task of `components` on `surviving` of a
/// cluster's `nodes`: `max(1, C/surviving) / max(1, C/nodes)`, the factor
/// its cluster time stretches by once capacity is lost. A task narrower
/// than the surviving capacity never waved in the first place, so its
/// ratio is 1.
pub(crate) fn load_ratio(components: usize, surviving: usize, nodes: usize) -> f64 {
    let c = components as f64;
    (c / surviving as f64).max(1.0) / (c / nodes as f64).max(1.0)
}

/// The WAN data-movement seconds attributable to `r` being serverless:
/// uploads by VM producers whose only serverless consumer is `r`, plus
/// downloads by VM consumers whose only store-located producer is `r`.
fn boundary_tax(
    workflow: &Workflow,
    plan: &PlacementPlan,
    r: TaskRef,
    delta_secs_per_byte: f64,
) -> f64 {
    // The refinement only runs on plans the decision loop fully populated.
    let platform_of = |t: TaskRef| plan.platform(t).expect("plan covers workflow");
    let mut extra_bytes = 0.0;
    // Producer side.
    for dep in &workflow.task(r).deps {
        let p = dep.producer;
        if platform_of(p) != Platform::VmCluster {
            continue;
        }
        let other_serverless_consumer = workflow
            .consumers(p)
            .iter()
            .any(|&(c, _)| c != r && platform_of(c) == Platform::Serverless);
        if !other_serverless_consumer {
            let pt = workflow.task(p);
            extra_bytes += pt.components as f64 * pt.profile.output_bytes;
        }
    }
    // Consumer side.
    for &(c, _) in workflow.consumers(r) {
        if platform_of(c) != Platform::VmCluster {
            continue;
        }
        let other_store_producer = workflow
            .task(c)
            .deps
            .iter()
            .any(|dep| dep.producer != r && platform_of(dep.producer) == Platform::Serverless);
        if !other_store_producer {
            let ct = workflow.task(c);
            extra_bytes += ct.components as f64 * ct.profile.input_bytes;
        }
    }
    extra_bytes * delta_secs_per_byte
}

fn add_expense(total: &mut Expense, e: &Expense) {
    total.vm_dollars += e.vm_dollars;
    total.faas_dollars += e.faas_dollars;
    total.storage_dollars += e.storage_dollars;
}

/// Eq. 1 with an aggregate-I/O term: the estimated wall time of running
/// `components` copies on the serverless platform, given a measured
/// single-component probe.
///
/// The concurrency overhead is the larger of the scheduler-ramp term
/// (`α · max(0, C − burst)`) and the aggregate store-bandwidth window
/// (`C · io_bytes / store_bps` — C components cannot collectively move
/// their bytes faster than the store allows); the probe's own serial time
/// and the paper's conservative cold-start pad are added on top.
pub fn estimate_serverless_time(
    factors: &ModelFactors,
    components: usize,
    probe_secs: f64,
    io_bytes_per_component: f64,
    conservative_cold_start_secs: f64,
) -> f64 {
    let extra = (components.saturating_sub(factors.burst)) as f64;
    let ramp = factors.alpha * extra;
    let io_floor = components as f64 * io_bytes_per_component / factors.store_bps;
    ramp.max(io_floor) + probe_secs + conservative_cold_start_secs
}

/// Fits the paper's Eq. 2 exponent γ from a measured whole-task VM time and
/// a single-component VM runtime: `T_VM = R^(γ·C)` ⇒
/// `γ = ln(T_VM) / (C · ln R)`, clamped to ≥ 1 and guarded for the
/// degenerate bases where the form is undefined.
pub fn fit_gamma(t_vm: f64, r_single: f64, components: usize) -> f64 {
    if r_single <= 1.0 || t_vm <= r_single || components == 0 {
        return 1.0;
    }
    let g = t_vm.ln() / (components as f64 * r_single.ln());
    g.max(1.0)
}

/// Calibrates α, β, and the store bandwidth with no-op micro-batches
/// (paper: "Mashup's PDC autonomously determines all the factors").
pub fn calibrate(cfg: &MashupConfig) -> ModelFactors {
    let burst = cfg.provider.faas.burst_capacity;
    // Two batch sizes spanning the burst knee.
    let c1 = burst.max(4);
    let c2 = burst * 4 + 64;
    let s1 = run_noop_batch(cfg, c1, 0.5, 0.0);
    let s2 = run_noop_batch(cfg, c2, 0.5, 0.0);
    let alpha = ((s2.scaling - s1.scaling) / (c2 - c1) as f64).max(0.0);
    // β: measured mean start latency of the calibration functions.
    let beta = s1.mean_start_latency;
    // Store bandwidth: one wide, byte-heavy batch designed to *deeply*
    // saturate the aggregate data plane; bandwidth ≈ total bytes over the
    // I/O window. The bytes per function are deliberately large — when the
    // drain time dwarfs the scheduler stagger, the window is simply the
    // makespan minus the serial start/compute parts.
    let io_comps = (burst * 4).max(128);
    let io_bytes = 1.0e9;
    let io_batch = run_noop_batch(cfg, io_comps, 0.1, io_bytes);
    let io_window = (io_batch.makespan - io_batch.mean_start_latency - 0.1).max(0.1);
    let store_bps = io_comps as f64 * io_bytes / io_window;
    // γ needs per-workflow task measurements; start at the neutral 1 and
    // let `fit_gamma` refine per task where the form applies.
    ModelFactors {
        alpha,
        beta,
        gamma: 1.0,
        store_bps,
        burst,
    }
}

struct BatchStats {
    scaling: f64,
    mean_start_latency: f64,
    makespan: f64,
}

fn run_noop_batch(
    cfg: &MashupConfig,
    components: usize,
    compute: f64,
    io_bytes: f64,
) -> BatchStats {
    let cfg = &cfg
        .clone()
        .with_seed(cfg.seed.wrapping_add(0xCA11B7A7E ^ components as u64));
    let spec = FaasTaskSpec {
        label: &format!("calibration-{components}"),
        components,
        compute_secs: compute,
        input_bytes: io_bytes,
        output_bytes: 0.0,
        io_requests: 1,
        checkpoint_bytes: 0.0,
        jitter: 0.0,
        memory_gb: 0.1,
        checkpoint_margin_secs: cfg.checkpoint_margin_secs,
    };
    let (stats, _) = run_faas_batch(cfg, spec);
    BatchStats {
        scaling: stats.scaling_secs(),
        mean_start_latency: stats.cold_start_secs / stats.n_cold.max(1) as f64,
        makespan: stats.makespan().as_secs(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(nodes: usize) -> MashupConfig {
        MashupConfig::aws(nodes)
    }

    fn checked(w: &Workflow) -> CheckedWorkflow<'_> {
        CheckedWorkflow::borrowed(w).expect("clean workflow")
    }

    #[test]
    fn calibration_recovers_platform_constants() {
        let c = cfg(4);
        let f = calibrate(&c);
        // α should approximate 1/ramp_per_sec = 1/12 ≈ 0.083.
        let expected_alpha = 1.0 / c.provider.faas.ramp_per_sec;
        assert!(
            (f.alpha - expected_alpha).abs() < expected_alpha * 0.5,
            "alpha {} vs expected {expected_alpha}",
            f.alpha
        );
        // β should sit inside the cold-start range.
        let (lo, hi) = c.provider.faas.cold_start_secs;
        assert!(f.beta >= lo * 0.5 && f.beta <= hi * 1.5, "beta {}", f.beta);
        assert!(f.store_bps > 0.0);
    }

    #[test]
    fn estimate_grows_linearly_in_components() {
        let f = ModelFactors {
            alpha: 0.1,
            beta: 1.0,
            gamma: 1.0,
            store_bps: 1e12,
            burst: 10,
        };
        let e1 = estimate_serverless_time(&f, 10, 5.0, 0.0, 2.0);
        let e2 = estimate_serverless_time(&f, 110, 5.0, 0.0, 2.0);
        assert!((e2 - e1 - 10.0).abs() < 1e-9); // 100 extra comps × 0.1
    }

    #[test]
    fn io_floor_dominates_for_io_heavy_tasks() {
        let f = ModelFactors {
            alpha: 0.0,
            beta: 0.0,
            gamma: 1.0,
            store_bps: 1e9,
            burst: 1000,
        };
        // 600 comps × 4e8 bytes = 240 GB over 1 GB/s = a 240 s window on
        // top of the 10 s probe and the 2 s conservative pad.
        let e = estimate_serverless_time(&f, 600, 10.0, 4.0e8, 2.0);
        assert!((e - 252.0).abs() < 1e-9);
    }

    #[test]
    fn gamma_fit_is_clamped_and_sane() {
        assert_eq!(fit_gamma(10.0, 0.5, 8), 1.0); // degenerate base
        assert_eq!(fit_gamma(1.0, 2.0, 8), 1.0); // t below single runtime
        let g = fit_gamma(1000.0, 2.0, 4);
        assert!(g >= 1.0);
        // T = R^(γC): check round trip.
        let t = 2.0f64.powf(g * 4.0);
        assert!((t - 1000.0).abs() < 1.0);
    }

    #[test]
    fn pdc_places_wide_cheap_tasks_serverless_on_small_clusters() {
        // 256 one-second-ish components on a 2-node cluster: waves kill the
        // VM run; serverless wins.
        let mut b = mashup_dag::WorkflowBuilder::new("wide");
        b.initial_input_bytes(1e6);
        b.begin_phase();
        b.add_task(mashup_dag::Task::new(
            "wide",
            256,
            mashup_dag::TaskProfile::trivial().compute(10.0),
        ));
        let w = b.build();
        let report = Pdc::new(cfg(2)).decide(&w);
        assert_eq!(report.decisions.len(), 1);
        assert_eq!(report.decisions[0].platform, Platform::Serverless);
        assert!(report.plan.covers(&w));
    }

    #[test]
    fn replan_capacity_is_identity_at_full_strength_and_monotone_under_loss() {
        // A borderline task: 96 ten-second components on 4 nodes sit on the
        // VM side, but halving the cluster doubles the wave count and flips
        // the comparison toward serverless.
        let mut b = mashup_dag::WorkflowBuilder::new("replan");
        b.initial_input_bytes(1e6);
        b.begin_phase();
        b.add_task(mashup_dag::Task::new(
            "border",
            96,
            mashup_dag::TaskProfile::trivial().compute(10.0),
        ));
        let w = b.build();
        let pdc = Pdc::new(cfg(4));
        let base = pdc.decide(&w);

        let same = pdc.replan_capacity(&base, &w, 4);
        for (a, b) in base.decisions.iter().zip(&same.decisions) {
            assert_eq!(a.platform, b.platform);
            assert!((a.t_vm_secs - b.t_vm_secs).abs() < 1e-12);
        }

        let reduced = pdc.replan_capacity(&base, &w, 1);
        assert!(reduced.plan.covers(&w));
        let quadrupled = base.decisions[0].t_vm_secs * 4.0;
        assert!((reduced.decisions[0].t_vm_secs - quadrupled).abs() < 1e-9);
        // Cluster times only grow under capacity loss, so no task moves
        // store-ward: every VM placement in `reduced` was VM in `base`.
        for (a, b) in base.decisions.iter().zip(&reduced.decisions) {
            if b.platform == Platform::VmCluster && b.forced_vm_reason.is_none() {
                assert_eq!(a.platform, Platform::VmCluster);
            }
        }
    }

    #[test]
    fn replan_capacity_preserves_structural_forcings() {
        let mut b = mashup_dag::WorkflowBuilder::new("fat-replan");
        b.initial_input_bytes(1e6);
        b.begin_phase();
        b.add_task(mashup_dag::Task::new(
            "fat",
            64,
            mashup_dag::TaskProfile::trivial()
                .compute(10.0)
                .memory(16.0),
        ));
        let w = b.build();
        let pdc = Pdc::new(cfg(4));
        let base = pdc.decide(&w);
        assert!(base.decisions[0].forced_vm_reason.is_some());
        // Even at one surviving node, a task that cannot fit in function
        // memory stays on the cluster.
        let reduced = pdc.replan_capacity(&base, &w, 1);
        assert_eq!(reduced.decisions[0].platform, Platform::VmCluster);
        assert!(reduced.decisions[0].forced_vm_reason.is_some());
    }

    #[test]
    fn pdc_places_single_long_tasks_on_vm() {
        let mut b = mashup_dag::WorkflowBuilder::new("single");
        b.initial_input_bytes(1e6);
        b.begin_phase();
        b.add_task(mashup_dag::Task::new(
            "solo",
            1,
            mashup_dag::TaskProfile::trivial()
                .compute(300.0)
                .slowdown(1.2),
        ));
        let w = b.build();
        let report = Pdc::new(cfg(8)).decide(&w);
        assert_eq!(report.decisions[0].platform, Platform::VmCluster);
    }

    #[test]
    fn memory_rule_forces_vm() {
        let mut b = mashup_dag::WorkflowBuilder::new("fat");
        b.initial_input_bytes(1e6);
        b.begin_phase();
        b.add_task(mashup_dag::Task::new(
            "fat",
            64,
            mashup_dag::TaskProfile::trivial()
                .compute(10.0)
                .memory(16.0),
        ));
        let w = b.build();
        let report = Pdc::new(cfg(2)).decide(&w);
        let d = &report.decisions[0];
        assert_eq!(d.platform, Platform::VmCluster);
        let reason = d.forced_vm_reason.expect("forced");
        assert!(matches!(
            reason,
            ForcedVm::Misfit(FaasMisfit::Memory { .. })
        ));
        assert_eq!(
            reason.to_string(),
            "memory 16 GiB exceeds function cap 3 GiB"
        );
    }

    #[test]
    fn short_task_rule_and_recurring_exception() {
        let mk = |recurring: bool| {
            let mut b = mashup_dag::WorkflowBuilder::new("short");
            b.initial_input_bytes(1e6);
            b.begin_phase();
            b.add_task(mashup_dag::Task::new(
                "tiny",
                512,
                mashup_dag::TaskProfile::trivial()
                    .compute(0.9)
                    .memory(1.0)
                    .contention(2.0)
                    .recurring(recurring),
            ));
            b.build()
        };
        // Without the exception: forced to VM despite huge concurrency.
        let plain = Pdc::new(cfg(2)).decide(&mk(false));
        assert_eq!(plain.decisions[0].platform, Platform::VmCluster);
        assert!(plain.decisions[0].forced_vm_reason.is_some());
        // Recurring + high concurrency: the exception lets the comparison
        // happen — and 512 sub-second components on 2 nodes favour
        // serverless.
        let rec = Pdc::new(cfg(2)).decide(&mk(true));
        assert!(rec.decisions[0].forced_vm_reason.is_none());
        assert_eq!(rec.decisions[0].platform, Platform::Serverless);
    }

    #[test]
    fn expense_objective_is_more_conservative_than_time() {
        // A wide task that is moderately faster on serverless: the time
        // objective takes it, but the function bill exceeds the node time
        // it frees, so the expense objective keeps it on the cluster.
        let mut b = mashup_dag::WorkflowBuilder::new("tradeoff");
        b.initial_input_bytes(1e6);
        b.begin_phase();
        b.add_task(mashup_dag::Task::new(
            "t",
            512,
            mashup_dag::TaskProfile::trivial().compute(20.0),
        ));
        let w = b.build();
        let time_plan = Pdc::new(cfg(8)).decide(&w);
        let cost_plan = Pdc::new(cfg(8))
            .with_objective(Objective::Expense)
            .decide(&w);
        // 512 comps on 16 slots: serverless is much faster (time says S),
        // but 512 function-bills outweigh 8 nodes' saved seconds only if
        // the saving is large — check the decisions diverge as computed.
        assert_eq!(time_plan.decisions[0].platform, Platform::Serverless);
        let d = &cost_plan.decisions[0];
        let fn_cost = d.components as f64 * d.probe_busy_secs / 3600.0 * 0.12;
        let saved = (d.t_vm_secs - d.t_serverless_est_secs).max(0.0) / 3600.0 * 8.0 * 0.12;
        let expect_serverless = fn_cost < saved;
        assert_eq!(
            d.platform == Platform::Serverless,
            expect_serverless,
            "decision must follow the marginal-cost rule: fn ${fn_cost:.4} vs saved ${saved:.4}"
        );
    }

    /// A deep, wide two-family workflow for the replan tests: `phases`
    /// phases of `width` serverless-friendly tasks each (generous compute
    /// so decisions sit far from every rule threshold).
    fn deep_workflow(phases: usize, width: usize, edited: Option<TaskRef>) -> Workflow {
        let mut b = mashup_dag::WorkflowBuilder::new("deep");
        b.initial_input_bytes(1e6);
        let mut prev: Vec<TaskRef> = Vec::new();
        for p in 0..phases {
            b.begin_phase();
            let mut cur = Vec::with_capacity(width);
            for i in 0..width {
                let r = TaskRef::new(p, i);
                let compute = if edited == Some(r) { 80.0 } else { 40.0 };
                let t = mashup_dag::Task::new(
                    format!("t{p}x{i}"),
                    64,
                    mashup_dag::TaskProfile::trivial()
                        .compute(compute)
                        .family("stencil"),
                );
                let added = b.add_task(t);
                if let Some(&up) = prev.get(i) {
                    b.depend(added, up, mashup_dag::DependencyPattern::OneToOne);
                }
                cur.push(added);
            }
            prev = cur;
        }
        b.build()
    }

    #[test]
    fn replan_matches_cold_decide_after_single_task_edit() {
        let c = cfg(4);
        let old = deep_workflow(4, 3, None);
        let new = deep_workflow(4, 3, Some(TaskRef::new(2, 1)));
        let pdc = Pdc::new(c);
        let prev = pdc.decide(&old);
        let (incremental, stats) = pdc.replan(&old, &prev, &checked(&new));
        let cold = pdc.decide(&new);
        assert!(!stats.full_replan);
        assert_eq!(stats.dirty_phases, 1);
        assert_eq!(stats.reused_decisions, 9);
        assert_eq!(stats.replanned_tasks, 3);
        // Same platform per task as a from-scratch decision (scoped phase
        // times are translation-equal to the full pass's, so only f64
        // rounding of the time origin could differ — far below any rule
        // threshold here).
        for (a, b) in incremental.decisions.iter().zip(&cold.decisions) {
            assert_eq!(a.task, b.task);
            assert_eq!(a.platform, b.platform, "task {}", new.task(a.task).name);
        }
        assert!(incremental.plan.covers(&new));
    }

    #[test]
    fn replan_reprofiles_only_the_dirty_phase_via_cache_stats() {
        let c = cfg(4);
        let old = deep_workflow(5, 4, None);
        let new = deep_workflow(5, 4, Some(TaskRef::new(3, 0)));
        let cache = std::sync::Arc::new(PlanCache::new());
        let pdc = Pdc::new(c).with_cache(cache.clone());
        let prev = pdc.decide(&old);
        let before = cache.stats();
        assert_eq!(before.phase_profiles.misses, 0);

        let (_, stats) = pdc.replan(&old, &prev, &checked(&new));
        let after = cache.stats();
        assert_eq!(stats.dirty_phases, 1);
        // One scoped phase profile computed; calibration came from the
        // cache; the untouched phases ran no profiling at all.
        assert_eq!(after.phase_profiles.misses, 1);
        assert_eq!(after.vm_profile.misses, before.vm_profile.misses);
        assert_eq!(after.calibration.hits, before.calibration.hits + 1);
        // Only the dirty phase's tasks probed: the edited task's profile
        // changed (fresh probe key) while its three siblings reuse theirs.
        assert_eq!(after.probes.misses, before.probes.misses + 1);

        // Replanning the same edit again is pure cache replay.
        let (_, stats2) = pdc.replan(&old, &prev, &checked(&new));
        let again = cache.stats();
        assert_eq!(stats2.dirty_phases, 1);
        assert_eq!(again.phase_profiles.misses, after.phase_profiles.misses);
        assert!(again.phase_profiles.hits > after.phase_profiles.hits);
    }

    #[test]
    fn replan_reprofiles_only_an_appended_phase() {
        let c = cfg(4);
        let old = deep_workflow(3, 2, None);
        let new = deep_workflow(4, 2, None);
        let pdc = Pdc::new(c);
        let prev = pdc.decide(&old);
        let (report, stats) = pdc.replan(&old, &prev, &checked(&new));
        assert!(!stats.full_replan);
        assert_eq!(stats.dirty_phases, 1);
        assert_eq!(stats.reused_decisions, old.task_count());
        assert_eq!(stats.replanned_tasks, 2);
        assert!(report.plan.covers(&new));
    }

    #[test]
    fn replan_falls_back_to_full_decide_when_prev_does_not_cover_base() {
        let c = cfg(4);
        let base = deep_workflow(3, 2, None);
        let new = deep_workflow(4, 2, None);
        let pdc = Pdc::new(c);
        let prev = pdc.decide(&deep_workflow(2, 2, None));
        let (report, stats) = pdc.replan(&base, &prev, &checked(&new));
        assert!(stats.full_replan);
        assert_eq!(stats.replanned_tasks, new.task_count());
        assert_eq!(report, pdc.decide(&new));
    }

    #[test]
    fn decide_is_plan_on_the_checked_workflow() {
        for w in [
            deep_workflow(3, 2, None),
            mashup_workflows::srasearch::workflow(),
        ] {
            let pdc = Pdc::new(cfg(4));
            let planned = pdc.plan(&CheckedWorkflow::new(w.clone()).expect("clean workflow"));
            assert_eq!(Ok(pdc.decide(&w)), planned, "{}", w.name);
        }
    }

    #[test]
    fn window_rule_forces_vm_without_a_probe() {
        // A 1e11-byte checkpoint needs a 2400 s margin against the 900 s
        // timeout (M202): the task can never run in a function, so the PDC
        // must not probe it there.
        let mut b = mashup_dag::WorkflowBuilder::new("stuck");
        b.initial_input_bytes(1e6);
        b.begin_phase();
        b.add_task(mashup_dag::Task::new(
            "stuck",
            64,
            mashup_dag::TaskProfile::trivial()
                .compute(10.0)
                .checkpoint(1e11),
        ));
        let w = b.build();
        let d = &Pdc::new(cfg(2)).decide(&w).decisions[0];
        assert_eq!(d.platform, Platform::VmCluster);
        assert_eq!(d.probe_secs, 0.0);
        let reason = d.forced_vm_reason.expect("forced");
        assert!(matches!(
            reason,
            ForcedVm::Misfit(FaasMisfit::NoWindow { .. })
        ));
        assert_eq!(
            reason.to_string(),
            "checkpoint margin 2400s consumes the whole 900s FaaS timeout"
        );
    }

    #[test]
    fn probe_sharing_collapses_same_family_probes() {
        let c = cfg(4);
        let w = deep_workflow(3, 4, None); // 12 tasks, one code family
        let cache = std::sync::Arc::new(PlanCache::new());
        let shared = Pdc::new(c.clone())
            .with_probe_sharing(true)
            .with_cache(cache.clone());
        let report = shared.decide(&w);
        // One probe computed for the whole family, eleven hits.
        assert_eq!(cache.stats().probes.misses, 1);
        assert_eq!(cache.stats().probes.hits, 11);
        // Decisions still cover the workflow and carry the shared probe.
        assert!(report.plan.covers(&w));
        let p0 = report.decisions[0].probe_secs;
        assert!(report.decisions.iter().all(|d| d.probe_secs == p0));
    }

    /// Two phases of one-component tasks, the second fed by the first
    /// task, whose probe subjects interleave:
    /// runs of family `a`, a `b` between them, an `a` whose memory differs,
    /// family-less tasks, and two `a` tasks that `probe_key_sizing` puts on
    /// different tiers.
    fn probe_key_workflow() -> Workflow {
        let base = mashup_dag::TaskProfile::trivial().compute(40.0);
        let a = base.clone().family("a");
        let b = base.clone().family("b");
        let phases: [&[(&str, &mashup_dag::TaskProfile)]; 2] = [
            &[
                ("a0", &a),
                ("a1", &a),
                ("b0", &b),
                ("a2", &a),
                ("a3", &a.clone().memory(1.0)),
                ("a4", &a),
                ("n0", &base),
                ("n1", &base),
            ],
            &[("a5", &a), ("a6", &a), ("a7", &a), ("b1", &b), ("b2", &b)],
        ];
        let mut wb = mashup_dag::WorkflowBuilder::new("probe-keys");
        wb.initial_input_bytes(1e6);
        let first = TaskRef::new(0, 0);
        for tasks in phases {
            wb.begin_phase();
            for &(name, profile) in tasks {
                let r = wb.add_task(mashup_dag::Task::new(name, 1, profile.clone()));
                if r.phase > 0 {
                    wb.depend(r, first, mashup_dag::DependencyPattern::AllToAll);
                }
            }
        }
        wb.build()
    }

    /// The base tier for every task but `a6` (1 GB) and `a7` (2 GB).
    fn probe_key_sizing(c: &MashupConfig, w: &Workflow) -> Sizing {
        let mut sizing = Sizing::base(c, w);
        for (name, gb) in [("a6", 1.0), ("a7", 2.0)] {
            sizing.tiers_gb[w.flat_by_name(name).expect("exists")] = gb;
        }
        sizing
    }

    #[test]
    fn shared_probe_keys_match_per_task_keys() {
        let c = cfg(4);
        let w = probe_key_workflow();
        let pdc = Pdc::new(c.clone())
            .with_probe_sharing(true)
            .with_sizing(probe_key_sizing(&c, &w));
        let mut run = ProbeKeys::default();
        for r in w.task_refs() {
            let (t, faas_cfg) = (w.task(r), pdc.task_faas_cfg(&w, r));
            let shared = pdc.probe_key(&mut run, r, t, &faas_cfg);
            let alone = pdc.probe_key(&mut ProbeKeys::default(), r, t, &faas_cfg);
            assert_eq!(shared, alone, "task {}", t.name);
            if t.name == "a1" {
                // a1 reused a0's key, so the run still points at a0.
                let (_, last, _) = run.last_shared.expect("a shared key");
                assert!(std::ptr::eq(last, &w.phases[0].tasks[0].profile));
            }
        }

        // The plan's decisions are the ones per-task keys give.
        let report = pdc.decide(&w);
        let factors = pdc.calibrated_factors();
        for (d, r) in report.decisions.iter().zip(w.task_refs()) {
            let alone = pdc.decide_task(&w, r, d.t_vm_secs, &factors, &mut ProbeKeys::default());
            assert_eq!(d, &alone, "task {}", w.task(r).name);
        }
    }

    #[test]
    fn scoped_phase_profiles_match_every_pass() {
        // (tasks, components, memory GiB, jitter, I/O bytes) per phase: the
        // skip rule takes some of them at some node counts and refuses the
        // rest — wide, fat or I/O-bearing ones.
        let shapes = [
            (1, 1, 0.5, 0.0, 0.0),
            (2, 2, 0.5, 0.05, 0.0),
            (3, 4, 8.0, 0.0, 0.0),
            (4, 3, 16.0, 0.05, 0.0),
            (2, 1, 0.5, 0.0, 1e6),
        ];
        let mut b = mashup_dag::WorkflowBuilder::new("scoped");
        b.initial_input_bytes(1e6);
        for (pi, &(tasks, components, gb, jitter, io)) in shapes.iter().enumerate() {
            b.begin_phase();
            for ti in 0..tasks {
                let profile = mashup_dag::TaskProfile::trivial()
                    .compute(30.0 + ti as f64)
                    .memory(gb)
                    .contention(1.5)
                    .jitter(jitter)
                    .io(io, io);
                let r = b.add_task(mashup_dag::Task::new(
                    format!("p{pi}t{ti}"),
                    components,
                    profile,
                ));
                if pi > 0 {
                    let producer = TaskRef::new(pi - 1, 0);
                    b.depend(r, producer, mashup_dag::DependencyPattern::AllToAll);
                }
            }
        }
        let w = b.build();
        let w = checked(&w);
        let vm_plan = PlacementPlan::uniform(&w, Platform::VmCluster);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (mut ties, mut refusals) = (0, 0);
        for nodes in [1, 2, 3, 5, 6, 8] {
            let pdc = Pdc::new(cfg(nodes));
            for (pi, phase) in w.phases.iter().enumerate() {
                let label = format!("phase {pi} on {nodes} nodes");
                // One executor pass of the phase alone per split, never
                // replayed, folded the plain way.
                let mut want = vec![f64::INFINITY; phase.tasks.len()];
                let mut expense = Expense::default();
                let mut passes = Vec::new();
                for k in subcluster_splits(nodes) {
                    let base = cfg(nodes);
                    let seed = base.seed.wrapping_add(0x9e3779b9);
                    let tuned = base.with_subclusters(k).with_seed(seed);
                    let (report, completed) = execute_in_unchecked(
                        &tuned,
                        &w,
                        &vm_plan,
                        None,
                        Release::PhaseBarrier,
                        pi..pi + 1,
                        &Tracer::off(),
                    );
                    assert_eq!(completed.len(), phase.tasks.len(), "{label}");
                    for (t, r) in report.tasks.iter().zip(&completed) {
                        assert_eq!(r.phase, pi, "{label}");
                        want[r.task] = want[r.task].min(t.makespan_secs());
                    }
                    add_expense(&mut expense, &report.expense);
                    passes.push(format!("{report:?}"));
                }
                let got = pdc.phase_profile(&w, pi);
                assert_eq!(bits(&got.best_task_vm), bits(&want), "{label}");
                assert_eq!(
                    format!("{:?}", got.expense),
                    format!("{expense:?}"),
                    "{label}"
                );
                if pdc.splits_tie(std::slice::from_ref(phase)) {
                    ties += 1;
                    assert!(passes.iter().all(|p| *p == passes[0]), "{label}");
                } else {
                    refusals += 1;
                }
            }
        }
        assert!(ties > 0 && refusals > 0, "{ties} ties, {refusals} refusals");
    }

    #[test]
    fn profiling_expense_is_recorded() {
        let mut b = mashup_dag::WorkflowBuilder::new("w");
        b.initial_input_bytes(1e6);
        b.begin_phase();
        b.add_task(mashup_dag::Task::new(
            "t",
            8,
            mashup_dag::TaskProfile::trivial().compute(5.0),
        ));
        let w = b.build();
        let report = Pdc::new(cfg(4)).decide(&w);
        assert!(report.profiling_expense.vm_dollars > 0.0);
        assert!(report.profiling_vm_makespan_secs > 0.0);
    }
}
