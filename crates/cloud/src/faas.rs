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
use crate::world::CloudWorld;
use mashup_sim::trace::{KillReason, TraceEvent, Tracer};
use mashup_sim::{SeedSource, SimDuration, SimTime, Simulation};
use rand::Rng;
// Both maps are keyed lookups only (never order-iterated), so hashing
// order cannot leak into simulated results.
// lint: allow(hash-collections)
use std::collections::HashMap;

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
}

/// A FaaS platform: one scheduler, one set of warm pools, one price point.
pub struct FaasPlatform {
    cfg: FaasConfig,
    /// The memory tier this platform serves in its world's
    /// [`Cloud`](crate::Cloud) (`None` for the base platform): how its
    /// events find it again.
    tier: Option<u32>,
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
    rng: rand::rngs::StdRng,
}

impl FaasPlatform {
    /// Creates a base-tier platform with the given constants.
    pub fn new(cfg: FaasConfig, seeds: &SeedSource) -> Self {
        FaasPlatform {
            rng: seeds.stream("faas"),
            tier: None,
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
            cfg,
        }
    }

    /// Marks the platform as serving memory tier `key` (MiB).
    pub(crate) fn with_tier(mut self, key: u32) -> Self {
        self.tier = Some(key);
        self
    }

    /// Attaches a flight recorder; invocation lifecycle records (start,
    /// completion, kills, pre-warming) flow through it.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Emits the event `make` builds, building it only when a recorder is
    /// attached: the strings it carries are per-invocation heap churn
    /// otherwise.
    pub(crate) fn trace_with(&self, now: SimTime, make: impl FnOnce() -> TraceEvent) {
        if self.tracer.is_on() {
            self.tracer.emit(now, make());
        }
    }

    /// The platform constants.
    pub fn config(&self) -> &FaasConfig {
        &self.cfg
    }

    /// Cold starts observed so far.
    pub fn cold_starts(&self) -> u64 {
        self.cold_starts
    }

    /// Warm starts observed so far.
    pub fn warm_starts(&self) -> u64 {
        self.warm_starts
    }

    /// Invocations killed at the deadline.
    pub fn kills(&self) -> u64 {
        self.kills
    }

    /// Peak concurrent invocations.
    pub fn peak_concurrency(&self) -> usize {
        self.peak_concurrency
    }

    /// Billed function-seconds so far.
    pub fn function_seconds(&self) -> f64 {
        self.function_seconds
    }

    /// True while the invocation is live (not yet completed or killed).
    pub fn is_active(&self, id: InvocationId) -> bool {
        self.active.contains_key(&id.0)
    }

    /// Number of currently warm microVMs for `code_key` (expired entries
    /// are pruned lazily, so this may overcount until the next invoke).
    pub fn warm_count(&self, code_key: &str) -> usize {
        self.warm_pool.get(code_key).map_or(0, |v| v.len())
    }

    /// Consumes a scheduler token, returning the start delay from `now`.
    ///
    /// The bucket may go negative: concurrent requests accumulate *debt*
    /// that is paid down at the ramp rate, so a batch of `C` simultaneous
    /// invocations beyond the burst is staggered linearly — the Fig. 4(c)
    /// scaling-time behaviour.
    fn scheduler_delay(&mut self, now: SimTime) -> SimDuration {
        let elapsed = now.saturating_since(self.last_refill).as_secs();
        self.tokens =
            (self.tokens + elapsed * self.cfg.ramp_per_sec).min(self.cfg.burst_capacity as f64);
        self.last_refill = now;
        self.tokens -= 1.0;
        if self.tokens >= 0.0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_secs(-self.tokens / self.cfg.ramp_per_sec)
        }
    }

    /// Pops a warm microVM for `code_key` valid at time `t`, if any.
    fn take_warm(&mut self, code_key: &str, t: SimTime) -> bool {
        if let Some(pool) = self.warm_pool.get_mut(code_key) {
            pool.retain(|&exp| exp > t);
            if !pool.is_empty() {
                pool.pop();
                return true;
            }
        }
        false
    }

    fn sample_cold_start(&mut self) -> f64 {
        let (lo, hi) = self.cfg.cold_start_secs;
        if hi <= lo {
            return lo;
        }
        lo + self.rng.gen::<f64>() * (hi - lo)
    }

    /// Requests a function for `code_key`. After the scheduler delay and
    /// cold/warm start latency, `on_ready` fires with the [`Invocation`].
    /// If the executor has not completed the invocation by its deadline,
    /// the platform kills it.
    pub fn invoke<W: CloudWorld>(
        &mut self,
        sim: &mut Simulation<W>,
        code_key: impl Into<String>,
        on_ready: impl FnOnce(&mut W, &mut Simulation<W>, Invocation) + Send + 'static,
    ) {
        let code_key = code_key.into();
        let sched_delay = self.scheduler_delay(sim.now());
        let tier = self.tier;
        sim.schedule_in(sched_delay, move |w: &mut W, sim| {
            let platform = w.cloud().serverless(tier).0;
            let warm = platform.take_warm(&code_key, sim.now());
            let (latency, cold) = if warm {
                (platform.cfg.warm_start_secs, false)
            } else {
                (platform.sample_cold_start(), true)
            };
            let ready_at = sim.now() + SimDuration::from_secs(latency);
            if cold {
                platform.cold_starts += 1;
            } else {
                platform.warm_starts += 1;
            }
            let id = platform.next_id;
            platform.next_id += 1;
            platform.active.insert(
                id,
                ActiveInv {
                    ready_at,
                    start_latency: latency,
                    code_key: code_key.clone(),
                },
            );
            platform.peak_concurrency = platform.peak_concurrency.max(platform.active.len());
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
                code: code_key,
                cold,
                latency_secs: latency,
                ready_secs: ready_at.as_secs(),
                deadline_secs: deadline.as_secs(),
            });
            // Watchdog enforcing the execution time cap.
            sim.schedule_at(deadline, move |w: &mut W, sim| {
                let (platform, _, meter) = w.cloud().serverless(tier);
                platform.kill_invocation(meter, sim.now(), id, KillReason::Watchdog);
            });
            // Transient platform failures (§3): the microVM dies at a
            // random point of its window; the executor recovers from the
            // last checkpoint.
            if platform.cfg.failure_prob > 0.0
                && platform.rng.gen::<f64>() < platform.cfg.failure_prob
            {
                let frac: f64 = platform.rng.gen();
                let kill_at = ready_at + SimDuration::from_secs(platform.cfg.timeout_secs * frac);
                sim.schedule_at(kill_at, move |w: &mut W, sim| {
                    let (platform, _, meter) = w.cloud().serverless(tier);
                    platform.kill_invocation(meter, sim.now(), id, KillReason::Injected);
                });
            }
            sim.schedule_at(ready_at, move |w, sim| on_ready(w, sim, inv));
        });
    }

    /// Kills a live invocation (deadline watchdog or injected failure):
    /// bills the elapsed window and never rewarms.
    fn kill_invocation(
        &mut self,
        meter: &mut CostMeter,
        now: SimTime,
        id: u64,
        reason: KillReason,
    ) {
        if let Some(inv) = self.active.remove(&id) {
            let billed = inv.start_latency + now.saturating_since(inv.ready_at).as_secs();
            self.kills += 1;
            self.function_seconds += billed;
            meter.charge_faas(billed, self.cfg.price_per_hour);
            self.trace_with(now, || TraceEvent::FnKill {
                id,
                reason,
                billed_secs: billed,
            });
        }
    }

    /// Completes an invocation at `now`: bills its duration (plus start
    /// latency) and returns the microVM to the warm pool for the keep-alive
    /// window.
    ///
    /// Returns `false` when the invocation had already been killed by the
    /// deadline watchdog (e.g. a storage transfer stretched past the cap
    /// under contention) — the caller's work did **not** persist and must
    /// be redone in a fresh invocation.
    #[must_use = "a false return means the invocation was killed and its work was lost"]
    pub fn complete(&mut self, meter: &mut CostMeter, now: SimTime, id: InvocationId) -> bool {
        let Some(inv) = self.active.remove(&id.0) else {
            return false; // killed at the deadline before completion
        };
        debug_assert!(
            now <= inv.ready_at
                + SimDuration::from_secs(self.cfg.timeout_secs)
                + SimDuration::from_secs(1e-9),
            "watchdog should have fired before a post-deadline completion"
        );
        let billed = inv.start_latency + now.saturating_since(inv.ready_at).as_secs();
        self.function_seconds += billed;
        let expiry = now + SimDuration::from_secs(self.cfg.keep_alive_secs);
        self.warm_pool.entry(inv.code_key).or_default().push(expiry);
        meter.charge_faas(billed, self.cfg.price_per_hour);
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
    pub fn prewarm<W: CloudWorld>(
        &self,
        sim: &mut Simulation<W>,
        code_key: impl Into<String>,
        count: usize,
    ) {
        let code_key = code_key.into();
        let tier = self.tier;
        for i in 0..count {
            let sched_delay = SimDuration::from_secs(i as f64 / self.cfg.ramp_per_sec);
            let key = code_key.clone();
            sim.schedule_in(sched_delay, move |w: &mut W, sim| {
                let (platform, _, meter) = w.cloud().serverless(tier);
                let latency = platform.sample_cold_start();
                let warm_at = sim.now() + SimDuration::from_secs(latency);
                meter.charge_faas(latency, platform.cfg.price_per_hour);
                platform.function_seconds += latency;
                platform.cold_starts += 1;
                platform.trace_with(sim.now(), || TraceEvent::FnPrewarm {
                    code: key.clone(),
                    latency_secs: latency,
                    warm_secs: warm_at.as_secs(),
                    expires_secs: warm_at.as_secs() + platform.cfg.keep_alive_secs,
                });
                sim.schedule_at(warm_at, move |w: &mut W, sim| {
                    let platform = w.cloud().serverless(tier).0;
                    let expiry = sim.now() + SimDuration::from_secs(platform.cfg.keep_alive_secs);
                    platform.warm_pool.entry(key).or_default().push(expiry);
                });
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::pricing::{InstanceType, StorageConfig};
    use crate::world::testing::{world, World};

    fn platform<T: Default>(cfg: FaasConfig) -> (Simulation<World<T>>, World<T>) {
        world(
            ClusterConfig::new(InstanceType::r5_large(), 1),
            cfg,
            StorageConfig::s3_like(),
            &SeedSource::new(3),
        )
    }

    fn fixed_cfg() -> FaasConfig {
        let mut cfg = FaasConfig::aws_like();
        cfg.cold_start_secs = (1.0, 1.0); // deterministic
        cfg.warm_start_secs = 0.1;
        cfg.burst_capacity = 2;
        cfg.ramp_per_sec = 1.0;
        cfg
    }

    fn complete<T>(w: &mut World<T>, now: SimTime, id: InvocationId) -> bool {
        let cloud = &mut w.cloud;
        cloud.faas.complete(&mut cloud.meter, now, id)
    }

    /// Invokes `code` now, completes it at once, and `delay` later invokes
    /// `again`, recording whether that second start was cold.
    fn reinvoke(
        sim: &mut Simulation<World<bool>>,
        code: &'static str,
        delay: f64,
        again: &'static str,
    ) {
        sim.schedule_now(move |w: &mut World<bool>, sim| {
            w.cloud
                .faas
                .invoke(sim, code, move |w: &mut World<bool>, sim, inv| {
                    assert!(complete(w, sim.now(), inv.id));
                    sim.schedule_in(
                        SimDuration::from_secs(delay),
                        move |w: &mut World<bool>, sim| {
                            w.cloud
                                .faas
                                .invoke(sim, again, |w: &mut World<bool>, _, inv2| {
                                    w.out = inv2.cold
                                });
                        },
                    );
                });
        });
    }

    #[test]
    fn burst_then_linear_ramp() {
        let mut cfg = fixed_cfg();
        cfg.keep_alive_secs = 0.0; // force every start cold for exact timing
        let (mut sim, mut w) = platform::<Vec<f64>>(cfg);
        for _ in 0..5 {
            sim.schedule_now(|w: &mut World<Vec<f64>>, sim| {
                w.cloud
                    .faas
                    .invoke(sim, "task", |w: &mut World<Vec<f64>>, sim, inv| {
                        w.out.push(inv.ready_at.as_secs());
                        sim.schedule_now(move |w: &mut World<Vec<f64>>, sim| {
                            assert!(complete(w, sim.now(), inv.id))
                        });
                    });
            });
        }
        sim.run(&mut w);
        // Two burst tokens start immediately (cold start 1 s), the rest are
        // staggered at 1/s: scheduler starts at 0,0,1,2,3 -> ready 1,1,2,3,4.
        let mut sorted = w.out.clone();
        assert_eq!(sorted.len(), 5);
        sorted.sort_by(|a, b| a.total_cmp(b));
        assert!((sorted[0] - 1.0).abs() < 1e-9);
        assert!((sorted[1] - 1.0).abs() < 1e-9);
        assert!((sorted[4] - 4.0).abs() < 1e-9);
        // Scaling time (last - first start) grows linearly with count.
        assert!((sorted[4] - sorted[0] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn warm_reuse_skips_cold_start() {
        let (mut sim, mut w) = platform::<bool>(fixed_cfg());
        w.out = true;
        // Re-invoke within the keep-alive window.
        reinvoke(&mut sim, "task", 10.0, "task");
        sim.run_until(&mut w, Some(SimTime::from_secs(50.0)));
        assert!(!w.out, "second invocation should be warm");
        assert_eq!(w.cloud.faas.cold_starts(), 1);
        assert_eq!(w.cloud.faas.warm_starts(), 1);
    }

    #[test]
    fn warm_entries_expire() {
        let mut cfg = fixed_cfg();
        cfg.keep_alive_secs = 5.0;
        let (mut sim, mut w) = platform::<bool>(cfg);
        reinvoke(&mut sim, "task", 60.0, "task");
        sim.run_until(&mut w, Some(SimTime::from_secs(200.0)));
        assert!(w.out, "expired warm entry must cold start");
    }

    #[test]
    fn different_code_keys_do_not_share_warm_pool() {
        let (mut sim, mut w) = platform::<bool>(fixed_cfg());
        reinvoke(&mut sim, "A", 1.0, "B");
        sim.run_until(&mut w, Some(SimTime::from_secs(100.0)));
        assert!(w.out);
    }

    #[test]
    fn deadline_kills_overrunning_invocation() {
        let mut cfg = fixed_cfg();
        cfg.timeout_secs = 10.0;
        let (mut sim, mut w) = platform::<()>(cfg);
        sim.schedule_now(|w: &mut World<()>, sim| {
            w.cloud
                .faas
                .invoke(sim, "slow", |_: &mut World<()>, _, _inv| {
                    // Executor "hangs": never completes.
                });
        });
        sim.run(&mut w);
        assert_eq!(w.cloud.faas.kills(), 1);
        // Billed the full window: 1 s cold + 10 s timeout.
        assert!((w.cloud.faas.function_seconds() - 11.0).abs() < 1e-9);
        assert!(w.cloud.meter.expense(0.0).faas_dollars > 0.0);
    }

    #[test]
    fn prewarm_fills_pool_and_bills() {
        let (mut sim, mut w) = platform::<bool>(fixed_cfg());
        w.out = true;
        sim.schedule_now(|w: &mut World<bool>, sim| w.cloud.faas.prewarm(sim, "task", 2));
        sim.run_until(&mut w, Some(SimTime::from_secs(5.0)));
        assert_eq!(w.cloud.faas.warm_count("task"), 2);
        assert!((w.cloud.faas.function_seconds() - 2.0).abs() < 1e-9);
        // A subsequent invoke is warm.
        sim.schedule_now(|w: &mut World<bool>, sim| {
            w.cloud
                .faas
                .invoke(sim, "task", |w: &mut World<bool>, _, inv| w.out = inv.cold);
        });
        sim.run_until(&mut w, Some(SimTime::from_secs(10.0)));
        assert!(!w.out);
    }

    #[test]
    fn completion_bills_duration_plus_start() {
        let (mut sim, mut w) = platform::<()>(fixed_cfg());
        sim.schedule_now(|w: &mut World<()>, sim| {
            w.cloud
                .faas
                .invoke(sim, "t", |_: &mut World<()>, sim, inv| {
                    sim.schedule_in(
                        SimDuration::from_secs(9.0),
                        move |w: &mut World<()>, sim| {
                            assert!(complete(w, sim.now(), inv.id));
                        },
                    );
                });
        });
        sim.run(&mut w);
        // 1 s cold start + 9 s run.
        assert!((w.cloud.faas.function_seconds() - 10.0).abs() < 1e-9);
        assert_eq!(w.cloud.faas.kills(), 0);
    }
}
