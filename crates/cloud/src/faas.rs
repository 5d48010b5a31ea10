//! The serverless (FaaS) platform model.
//!
//! Mechanisms, each matching a serverless pathology the paper measures:
//!
//! * **scheduler ramp** — a token bucket (burst + sustained starts/sec)
//!   staggers function starts, producing the linear-in-components scaling
//!   time of Fig. 4(c);
//! * **cold/warm starts** — first use of a code identity pays a sampled
//!   cold-start latency (Fig. 4(b)); finished microVMs stay warm for a
//!   keep-alive window and can be reused or actively pre-warmed (the §3
//!   mitigations);
//! * **execution timeout** — every invocation has a hard deadline; an
//!   executor that fails to complete in time is killed (checkpointing in
//!   `exec` exists to avoid exactly this).

use crate::cost::CostMeter;
use crate::pricing::FaasConfig;
use mashup_sim::trace::{KillReason, TraceEvent, Tracer};
use mashup_sim::{shared, Shared};
use mashup_sim::{SeedSource, SimDuration, SimTime, Simulation};
use rand::Rng;
// Both maps are keyed lookups only (never order-iterated), so hashing
// order cannot leak into simulated results.
// lint: allow(hash-collections)
use std::collections::HashMap;

/// Callback fired when the platform kills an invocation at its deadline.
pub type KillFn = Box<dyn FnOnce(&mut Simulation) + Send>;

/// Identifier of a live invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InvocationId(u64);

impl InvocationId {
    /// The underlying numeric id (matches `FnStart { id, .. }` in traces).
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// Details handed to the executor when its function is ready to run.
#[derive(Debug, Clone, Copy)]
pub struct Invocation {
    /// The invocation id, needed to complete it.
    pub id: InvocationId,
    /// When the function became ready (after scheduling + start latency).
    pub ready_at: SimTime,
    /// Hard kill deadline: `ready_at + timeout`.
    pub deadline: SimTime,
    /// Whether this was a cold start.
    pub cold: bool,
    /// The start latency paid (cold or warm).
    pub start_latency: SimDuration,
}

struct ActiveInv {
    ready_at: SimTime,
    start_latency: f64,
    code_key: String,
    on_killed: Option<KillFn>,
}

struct FaasState {
    // Token bucket for function starts.
    tokens: f64,
    last_refill: SimTime,
    // Warm microVMs per code identity: expiry instants.
    warm_pool: HashMap<String, Vec<SimTime>>, // lint: allow(hash-collections)
    active: HashMap<u64, ActiveInv>,          // lint: allow(hash-collections)
    next_id: u64,
    // Metrics.
    cold_starts: u64,
    warm_starts: u64,
    kills: u64,
    peak_concurrency: usize,
    function_seconds: f64,
    tracer: Tracer,
}

/// A shareable FaaS platform. Cloning shares the same scheduler and pools.
#[derive(Clone)]
pub struct FaasPlatform {
    cfg: FaasConfig,
    meter: CostMeter,
    state: Shared<FaasState>,
    rng: Shared<rand::rngs::StdRng>,
}

impl FaasPlatform {
    /// Creates a platform with the given constants, charging `meter`.
    pub fn new(cfg: FaasConfig, meter: CostMeter, seeds: &SeedSource) -> Self {
        FaasPlatform {
            rng: shared(seeds.stream("faas")),
            state: shared(FaasState {
                tokens: cfg.burst_capacity as f64,
                last_refill: SimTime::ZERO,
                warm_pool: Default::default(),
                active: Default::default(),
                next_id: 0,
                cold_starts: 0,
                warm_starts: 0,
                kills: 0,
                peak_concurrency: 0,
                function_seconds: 0.0,
                tracer: Tracer::off(),
            }),
            cfg,
            meter,
        }
    }

    /// Attaches a flight recorder; invocation lifecycle records (start,
    /// completion, kills, pre-warming) flow through it. Reaches every clone
    /// of this platform (state is shared).
    pub fn set_tracer(&self, tracer: Tracer) {
        self.state.borrow_mut().tracer = tracer;
    }

    /// Emits the event `make` builds, building it only when a recorder is
    /// attached: the strings it carries are per-invocation heap churn
    /// otherwise.
    pub(crate) fn trace_with(&self, now: SimTime, make: impl FnOnce() -> TraceEvent) {
        let s = self.state.borrow();
        if s.tracer.is_on() {
            s.tracer.emit(now, make());
        }
    }

    /// The platform constants.
    pub fn config(&self) -> &FaasConfig {
        &self.cfg
    }

    /// Cold starts observed so far.
    pub fn cold_starts(&self) -> u64 {
        self.state.borrow().cold_starts
    }

    /// Warm starts observed so far.
    pub fn warm_starts(&self) -> u64 {
        self.state.borrow().warm_starts
    }

    /// Invocations killed at the deadline.
    pub fn kills(&self) -> u64 {
        self.state.borrow().kills
    }

    /// Peak concurrent invocations.
    pub fn peak_concurrency(&self) -> usize {
        self.state.borrow().peak_concurrency
    }

    /// Billed function-seconds so far.
    pub fn function_seconds(&self) -> f64 {
        self.state.borrow().function_seconds
    }

    /// True while the invocation is live (not yet completed or killed).
    pub fn is_active(&self, id: InvocationId) -> bool {
        self.state.borrow().active.contains_key(&id.0)
    }

    /// Number of currently warm microVMs for `code_key` (expired entries
    /// are pruned lazily, so this may overcount until the next invoke).
    pub fn warm_count(&self, code_key: &str) -> usize {
        self.state
            .borrow()
            .warm_pool
            .get(code_key)
            .map_or(0, |v| v.len())
    }

    /// Consumes a scheduler token, returning the start delay from `now`.
    ///
    /// The bucket may go negative: concurrent requests accumulate *debt*
    /// that is paid down at the ramp rate, so a batch of `C` simultaneous
    /// invocations beyond the burst is staggered linearly — the Fig. 4(c)
    /// scaling-time behaviour.
    fn scheduler_delay(&self, now: SimTime) -> SimDuration {
        let mut s = self.state.borrow_mut();
        let elapsed = now.saturating_since(s.last_refill).as_secs();
        s.tokens = (s.tokens + elapsed * self.cfg.ramp_per_sec).min(self.cfg.burst_capacity as f64);
        s.last_refill = now;
        s.tokens -= 1.0;
        if s.tokens >= 0.0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_secs(-s.tokens / self.cfg.ramp_per_sec)
        }
    }

    /// Pops a warm microVM for `code_key` valid at time `t`, if any.
    fn take_warm(&self, code_key: &str, t: SimTime) -> bool {
        let mut s = self.state.borrow_mut();
        if let Some(pool) = s.warm_pool.get_mut(code_key) {
            pool.retain(|&exp| exp > t);
            if !pool.is_empty() {
                pool.pop();
                return true;
            }
        }
        false
    }

    fn sample_cold_start(&self) -> f64 {
        let (lo, hi) = self.cfg.cold_start_secs;
        if hi <= lo {
            return lo;
        }
        lo + self.rng.borrow_mut().gen::<f64>() * (hi - lo)
    }

    /// Requests a function for `code_key`. After the scheduler delay and
    /// cold/warm start latency, `on_ready` fires with the [`Invocation`].
    /// If the executor has not completed the invocation by its deadline, the
    /// platform kills it and fires `on_killed` (when provided).
    pub fn invoke(
        &self,
        sim: &mut Simulation,
        code_key: impl Into<String>,
        on_killed: Option<KillFn>,
        on_ready: impl FnOnce(&mut Simulation, Invocation) + Send + 'static,
    ) {
        let code_key = code_key.into();
        let sched_delay = self.scheduler_delay(sim.now());
        let platform = self.clone();
        sim.schedule_in(sched_delay, move |sim| {
            let warm = platform.take_warm(&code_key, sim.now());
            let (latency, cold) = if warm {
                (platform.cfg.warm_start_secs, false)
            } else {
                (platform.sample_cold_start(), true)
            };
            let ready_at = sim.now() + SimDuration::from_secs(latency);
            let id = {
                let mut s = platform.state.borrow_mut();
                if cold {
                    s.cold_starts += 1;
                } else {
                    s.warm_starts += 1;
                }
                let id = s.next_id;
                s.next_id += 1;
                s.active.insert(
                    id,
                    ActiveInv {
                        ready_at,
                        start_latency: latency,
                        code_key: code_key.clone(),
                        on_killed,
                    },
                );
                s.peak_concurrency = s.peak_concurrency.max(s.active.len());
                id
            };
            let deadline = ready_at + SimDuration::from_secs(platform.cfg.timeout_secs);
            let inv = Invocation {
                id: InvocationId(id),
                ready_at,
                deadline,
                cold,
                start_latency: SimDuration::from_secs(latency),
            };
            platform.trace_with(sim.now(), || TraceEvent::FnStart {
                id,
                code: code_key.clone(),
                cold,
                latency_secs: latency,
                ready_secs: ready_at.as_secs(),
                deadline_secs: deadline.as_secs(),
            });
            // Watchdog enforcing the execution time cap.
            let p2 = platform.clone();
            sim.schedule_at(deadline, move |sim| {
                p2.kill_invocation(sim, id, KillReason::Watchdog)
            });
            // Transient platform failures (§3): the microVM dies at a
            // random point of its window; the executor recovers from the
            // last checkpoint.
            if platform.cfg.failure_prob > 0.0
                && platform.rng.borrow_mut().gen::<f64>() < platform.cfg.failure_prob
            {
                let frac: f64 = platform.rng.borrow_mut().gen();
                let kill_at = ready_at + SimDuration::from_secs(platform.cfg.timeout_secs * frac);
                let p3 = platform.clone();
                sim.schedule_at(kill_at, move |sim| {
                    p3.kill_invocation(sim, id, KillReason::Injected)
                });
            }
            sim.schedule_at(ready_at, move |sim| on_ready(sim, inv));
        });
    }

    /// Kills a live invocation (deadline watchdog or injected failure):
    /// bills the elapsed window, never rewarms, and fires `on_killed`.
    fn kill_invocation(&self, sim: &mut Simulation, id: u64, reason: KillReason) {
        let killed = {
            let mut s = self.state.borrow_mut();
            s.active.remove(&id)
        };
        if let Some(inv) = killed {
            let billed = inv.start_latency + sim.now().saturating_since(inv.ready_at).as_secs();
            {
                let mut s = self.state.borrow_mut();
                s.kills += 1;
                s.function_seconds += billed;
            }
            self.meter.charge_faas(billed, self.cfg.price_per_hour);
            self.trace_with(sim.now(), || TraceEvent::FnKill {
                id,
                reason,
                billed_secs: billed,
            });
            if let Some(cb) = inv.on_killed {
                cb(sim);
            }
        }
    }

    /// Completes an invocation: bills its duration (plus start latency) and
    /// returns the microVM to the warm pool for the keep-alive window.
    ///
    /// Returns `false` when the invocation had already been killed by the
    /// deadline watchdog (e.g. a storage transfer stretched past the cap
    /// under contention) — the caller's work did **not** persist and must
    /// be redone in a fresh invocation.
    #[must_use = "a false return means the invocation was killed and its work was lost"]
    pub fn complete(&self, sim: &mut Simulation, id: InvocationId) -> bool {
        let now = sim.now();
        let inv = {
            let mut s = self.state.borrow_mut();
            s.active.remove(&id.0)
        };
        let Some(inv) = inv else {
            return false; // killed at the deadline before completion
        };
        debug_assert!(
            now <= inv.ready_at
                + SimDuration::from_secs(self.cfg.timeout_secs)
                + SimDuration::from_secs(1e-9),
            "watchdog should have fired before a post-deadline completion"
        );
        let billed = inv.start_latency + now.saturating_since(inv.ready_at).as_secs();
        {
            let mut s = self.state.borrow_mut();
            s.function_seconds += billed;
            let expiry = now + SimDuration::from_secs(self.cfg.keep_alive_secs);
            s.warm_pool.entry(inv.code_key).or_default().push(expiry);
        }
        self.meter.charge_faas(billed, self.cfg.price_per_hour);
        self.trace_with(now, || TraceEvent::FnEnd {
            id: id.0,
            billed_secs: billed,
        });
        true
    }

    /// Actively pre-warms `count` microVMs for `code_key` (§3: Mashup
    /// "actively pre-warms the task by prefetching"). Provisioning happens
    /// on the platform's background path (provisioned-concurrency style),
    /// staggered at the ramp rate but *not* consuming the foreground
    /// scheduler's tokens — pre-warming must not starve the live phase.
    /// Each microVM pays a cold start, billed as function time, then sits
    /// in the warm pool.
    pub fn prewarm(&self, sim: &mut Simulation, code_key: impl Into<String>, count: usize) {
        let code_key = code_key.into();
        for i in 0..count {
            let sched_delay = SimDuration::from_secs(i as f64 / self.cfg.ramp_per_sec);
            let platform = self.clone();
            let key = code_key.clone();
            sim.schedule_in(sched_delay, move |sim| {
                let latency = platform.sample_cold_start();
                let warm_at = sim.now() + SimDuration::from_secs(latency);
                platform
                    .meter
                    .charge_faas(latency, platform.cfg.price_per_hour);
                {
                    let mut s = platform.state.borrow_mut();
                    s.function_seconds += latency;
                    s.cold_starts += 1;
                }
                platform.trace_with(sim.now(), || TraceEvent::FnPrewarm {
                    code: key.clone(),
                    latency_secs: latency,
                    warm_secs: warm_at.as_secs(),
                    expires_secs: warm_at.as_secs() + platform.cfg.keep_alive_secs,
                });
                let p2 = platform.clone();
                sim.schedule_at(warm_at, move |sim| {
                    let expiry = sim.now() + SimDuration::from_secs(p2.cfg.keep_alive_secs);
                    p2.state
                        .borrow_mut()
                        .warm_pool
                        .entry(key)
                        .or_default()
                        .push(expiry);
                });
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn platform(cfg: FaasConfig) -> FaasPlatform {
        FaasPlatform::new(cfg, CostMeter::new(), &SeedSource::new(3))
    }

    fn fixed_cfg() -> FaasConfig {
        let mut cfg = FaasConfig::aws_like();
        cfg.cold_start_secs = (1.0, 1.0); // deterministic
        cfg.warm_start_secs = 0.1;
        cfg.burst_capacity = 2;
        cfg.ramp_per_sec = 1.0;
        cfg
    }

    #[test]
    fn burst_then_linear_ramp() {
        let mut cfg = fixed_cfg();
        cfg.keep_alive_secs = 0.0; // force every start cold for exact timing
        let p = platform(cfg);
        let mut sim = Simulation::new();
        let readies = shared(Vec::new());
        for _ in 0..5 {
            let r = readies.clone();
            let p2 = p.clone();
            sim.schedule_now(move |sim| {
                let p3 = p2.clone();
                p2.invoke(sim, "task", None, move |sim, inv| {
                    r.borrow_mut().push(inv.ready_at.as_secs());
                    sim.schedule_now(move |sim| assert!(p3.complete(sim, inv.id)));
                });
            });
        }
        sim.run();
        let r = readies.borrow();
        // Two burst tokens start immediately (cold start 1 s), the rest are
        // staggered at 1/s: scheduler starts at 0,0,1,2,3 -> ready 1,1,2,3,4.
        assert_eq!(r.len(), 5);
        let mut sorted = r.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        assert!((sorted[0] - 1.0).abs() < 1e-9);
        assert!((sorted[1] - 1.0).abs() < 1e-9);
        assert!((sorted[4] - 4.0).abs() < 1e-9);
        // Scaling time (last - first start) grows linearly with count.
        assert!((sorted[4] - sorted[0] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn warm_reuse_skips_cold_start() {
        let p = platform(fixed_cfg());
        let mut sim = Simulation::new();
        let p2 = p.clone();
        let second_cold = shared(true);
        let sc = second_cold.clone();
        sim.schedule_now(move |sim| {
            let p3 = p2.clone();
            p2.invoke(sim, "task", None, move |sim, inv| {
                assert!(p3.complete(sim, inv.id));
                let p4 = p3.clone();
                let sc = sc.clone();
                // Re-invoke within the keep-alive window.
                sim.schedule_in(SimDuration::from_secs(10.0), move |sim| {
                    p4.invoke(sim, "task", None, move |_, inv2| {
                        sc.set(inv2.cold);
                    });
                });
            });
        });
        sim.run_until(Some(SimTime::from_secs(50.0)));
        assert!(!second_cold.get(), "second invocation should be warm");
        assert_eq!(p.cold_starts(), 1);
        assert_eq!(p.warm_starts(), 1);
    }

    #[test]
    fn warm_entries_expire() {
        let mut cfg = fixed_cfg();
        cfg.keep_alive_secs = 5.0;
        let p = platform(cfg);
        let mut sim = Simulation::new();
        let p2 = p.clone();
        let second_cold = shared(false);
        let sc = second_cold.clone();
        sim.schedule_now(move |sim| {
            let p3 = p2.clone();
            p2.invoke(sim, "task", None, move |sim, inv| {
                assert!(p3.complete(sim, inv.id));
                let p4 = p3.clone();
                let sc = sc.clone();
                sim.schedule_in(SimDuration::from_secs(60.0), move |sim| {
                    p4.invoke(sim, "task", None, move |_, inv2| sc.set(inv2.cold));
                });
            });
        });
        sim.run_until(Some(SimTime::from_secs(200.0)));
        assert!(second_cold.get(), "expired warm entry must cold start");
    }

    #[test]
    fn different_code_keys_do_not_share_warm_pool() {
        let p = platform(fixed_cfg());
        let mut sim = Simulation::new();
        let p2 = p.clone();
        let other_cold = shared(false);
        let oc = other_cold.clone();
        sim.schedule_now(move |sim| {
            let p3 = p2.clone();
            p2.invoke(sim, "A", None, move |sim, inv| {
                assert!(p3.complete(sim, inv.id));
                let p4 = p3.clone();
                let oc = oc.clone();
                sim.schedule_in(SimDuration::from_secs(1.0), move |sim| {
                    p4.invoke(sim, "B", None, move |_, inv2| oc.set(inv2.cold));
                });
            });
        });
        sim.run_until(Some(SimTime::from_secs(100.0)));
        assert!(other_cold.get());
    }

    #[test]
    fn deadline_kills_overrunning_invocation() {
        let mut cfg = fixed_cfg();
        cfg.timeout_secs = 10.0;
        let p = platform(cfg);
        let mut sim = Simulation::new();
        let killed = shared(false);
        let k2 = killed.clone();
        let p2 = p.clone();
        sim.schedule_now(move |sim| {
            p2.invoke(
                sim,
                "slow",
                Some(Box::new(move |_| k2.set(true))),
                move |_, _inv| {
                    // Executor "hangs": never completes.
                },
            );
        });
        sim.run();
        assert!(killed.get());
        assert_eq!(p.kills(), 1);
        // Billed the full window: 1 s cold + 10 s timeout.
        assert!((p.function_seconds() - 11.0).abs() < 1e-9);
    }

    #[test]
    fn prewarm_fills_pool_and_bills() {
        let p = platform(fixed_cfg());
        let mut sim = Simulation::new();
        let p2 = p.clone();
        sim.schedule_now(move |sim| p2.prewarm(sim, "task", 2));
        sim.run_until(Some(SimTime::from_secs(5.0)));
        assert_eq!(p.warm_count("task"), 2);
        assert!((p.function_seconds() - 2.0).abs() < 1e-9);
        // A subsequent invoke is warm.
        let p3 = p.clone();
        let cold = shared(true);
        let c2 = cold.clone();
        sim.schedule_now(move |sim| {
            p3.invoke(sim, "task", None, move |_, inv| c2.set(inv.cold));
        });
        sim.run_until(Some(SimTime::from_secs(10.0)));
        assert!(!cold.get());
    }

    #[test]
    fn completion_bills_duration_plus_start() {
        let p = platform(fixed_cfg());
        let mut sim = Simulation::new();
        let p2 = p.clone();
        sim.schedule_now(move |sim| {
            let p3 = p2.clone();
            p2.invoke(sim, "t", None, move |sim, inv| {
                sim.schedule_in(SimDuration::from_secs(9.0), move |sim| {
                    assert!(p3.complete(sim, inv.id));
                });
            });
        });
        sim.run();
        // 1 s cold start + 9 s run.
        assert!((p.function_seconds() - 10.0).abs() < 1e-9);
        assert_eq!(p.kills(), 0);
    }
}
