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
use crate::event::{ev, Ev};
use crate::pricing::FaasConfig;
use crate::world::CloudWorld;
use mashup_sim::trace::{KillReason, TraceEvent, Tracer};
use mashup_sim::{SeedSource, SimDuration, SimTime, Simulation};
use rand::Rng;
#[expect(
    clippy::disallowed_types,
    reason = "keyed lookups only, never order-iterated: hash order cannot reach results"
)]
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
    /// Interned code identity (see [`FaasPlatform::code`]).
    code: u32,
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
    /// Code identities by interned id; events and invocations carry the id.
    codes: Vec<String>,
    #[expect(clippy::disallowed_types, reason = "keyed lookups only")]
    code_ids: HashMap<String, u32>,
    /// Warm microVMs per code id: expiry instants.
    warm_pool: Vec<Vec<SimTime>>,
    #[expect(clippy::disallowed_types, reason = "keyed lookups only")]
    active: HashMap<u64, ActiveInv>,
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
            codes: Vec::new(),
            code_ids: Default::default(),
            warm_pool: Vec::new(),
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
        self.code_ids
            .get(code_key)
            .map_or(0, |&code| self.warm_pool[code as usize].len())
    }

    /// The interned id of code identity `code_key`, assigned on first use.
    /// Invocations of one identity share a warm pool.
    pub(crate) fn code(&mut self, code_key: &str) -> u32 {
        if let Some(&code) = self.code_ids.get(code_key) {
            return code;
        }
        let code = u32::try_from(self.codes.len()).expect("code id overflow");
        self.codes.push(code_key.to_owned());
        self.code_ids.insert(code_key.to_owned(), code);
        self.warm_pool.push(Vec::new());
        code
    }

    /// The code identity behind interned id `code`.
    pub(crate) fn code_label(&self, code: u32) -> &str {
        &self.codes[code as usize]
    }

    /// Consumes a scheduler token, returning the start delay from `now`.
    ///
    /// The bucket may go negative: concurrent requests accumulate *debt*
    /// that is paid down at the ramp rate, so a batch of `C` simultaneous
    /// invocations beyond the burst is staggered linearly — the Fig. 4(c)
    /// scaling-time behaviour.
    pub(crate) fn scheduler_delay(&mut self, now: SimTime) -> SimDuration {
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

    /// Pops a warm microVM for `code` valid at time `t`, if any.
    fn take_warm(&mut self, code: u32, t: SimTime) -> bool {
        let pool = &mut self.warm_pool[code as usize];
        pool.retain(|&exp| exp > t);
        pool.pop().is_some()
    }

    fn sample_cold_start(&mut self) -> f64 {
        let (lo, hi) = self.cfg.cold_start_secs;
        if hi <= lo {
            return lo;
        }
        lo + self.rng.gen::<f64>() * (hi - lo)
    }

    /// Starts an invocation of `code` whose request cleared the scheduler
    /// (see [`scheduler_delay`](Self::scheduler_delay)): takes a warm
    /// microVM or pays a sampled cold start, arms the timeout watchdog and
    /// any injected failure, and returns the invocation, which is ready
    /// to run at its `ready_at`. If the executor has not completed it by its
    /// deadline, the platform kills it.
    pub(crate) fn start<W: CloudWorld>(
        &mut self,
        sim: &mut Simulation<W>,
        code: u32,
    ) -> Invocation {
        let warm = self.take_warm(code, sim.now());
        let (latency, cold) = if warm {
            (self.cfg.warm_start_secs, false)
        } else {
            (self.sample_cold_start(), true)
        };
        let ready_at = sim.now() + SimDuration::from_secs(latency);
        if cold {
            self.cold_starts += 1;
        } else {
            self.warm_starts += 1;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.active.insert(
            id,
            ActiveInv {
                ready_at,
                start_latency: latency,
                code,
            },
        );
        self.peak_concurrency = self.peak_concurrency.max(self.active.len());
        let deadline = ready_at + SimDuration::from_secs(self.cfg.timeout_secs);
        let inv = Invocation {
            id: InvocationId(id),
            ready_at,
            deadline,
            cold,
            start_latency: SimDuration::from_secs(latency),
        };
        self.trace_with(sim.now(), || TraceEvent::FnStart {
            id,
            code: self.codes[code as usize].clone(),
            cold,
            latency_secs: latency,
            ready_secs: ready_at.as_secs(),
            deadline_secs: deadline.as_secs(),
        });
        let tier = self.tier;
        // Watchdog enforcing the execution time cap.
        let watchdog = Ev::FnKill {
            tier,
            id,
            reason: KillReason::Watchdog,
        };
        sim.schedule_at(deadline, ev::<W>(watchdog));
        // Transient platform failures (§3): the microVM dies at a random
        // point of its window; the executor recovers from the last
        // checkpoint.
        if self.cfg.failure_prob > 0.0 && self.rng.gen::<f64>() < self.cfg.failure_prob {
            let frac: f64 = self.rng.gen();
            let kill_at = ready_at + SimDuration::from_secs(self.cfg.timeout_secs * frac);
            let failure = Ev::FnKill {
                tier,
                id,
                reason: KillReason::Injected,
            };
            sim.schedule_at(kill_at, ev::<W>(failure));
        }
        inv
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
        self.warm_pool[inv.code as usize].push(expiry);
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
        &mut self,
        sim: &mut Simulation<W>,
        code_key: &str,
        count: usize,
    ) {
        let code = self.code(code_key);
        let tier = self.tier;
        for i in 0..count {
            let sched_delay = SimDuration::from_secs(i as f64 / self.cfg.ramp_per_sec);
            sim.schedule_in(sched_delay, ev::<W>(Ev::Prewarm { tier, code }));
        }
    }
}

/// Invocation `id` on the platform of `tier` hit its deadline or an injected
/// failure: kill it if it is still live.
pub(crate) fn on_kill<W: CloudWorld>(
    w: &mut W,
    sim: &mut Simulation<W>,
    tier: Option<u32>,
    id: u64,
    reason: KillReason,
) {
    let (platform, _, meter) = w.cloud().serverless(tier);
    platform.kill_invocation(meter, sim.now(), id, reason);
}

/// A pre-warm cleared the background ramp: pays and bills its cold start,
/// then joins the warm pool when the microVM is up.
pub(crate) fn on_prewarm<W: CloudWorld>(
    w: &mut W,
    sim: &mut Simulation<W>,
    tier: Option<u32>,
    code: u32,
) {
    let (platform, _, meter) = w.cloud().serverless(tier);
    let latency = platform.sample_cold_start();
    let warm_at = sim.now() + SimDuration::from_secs(latency);
    meter.charge_faas(latency, platform.cfg.price_per_hour);
    platform.function_seconds += latency;
    platform.cold_starts += 1;
    platform.trace_with(sim.now(), || TraceEvent::FnPrewarm {
        code: platform.codes[code as usize].clone(),
        latency_secs: latency,
        warm_secs: warm_at.as_secs(),
        expires_secs: warm_at.as_secs() + platform.cfg.keep_alive_secs,
    });
    sim.schedule_at(warm_at, ev::<W>(Ev::Warmed { tier, code }));
}

/// A pre-warmed microVM is up: it stays warm for the keep-alive window.
pub(crate) fn on_warmed<W: CloudWorld>(
    w: &mut W,
    sim: &mut Simulation<W>,
    tier: Option<u32>,
    code: u32,
) {
    let platform = w.cloud().platform_mut(tier);
    let expiry = sim.now() + SimDuration::from_secs(platform.cfg.keep_alive_secs);
    platform.warm_pool[code as usize].push(expiry);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::pricing::{InstanceType, StorageConfig};
    use crate::world::testing::{call, world, World};

    fn platform<T: Default + Send + 'static>(cfg: FaasConfig) -> (Simulation<World<T>>, World<T>) {
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

    fn complete<T: Send>(w: &mut World<T>, now: SimTime, id: InvocationId) -> bool {
        let cloud = &mut w.cloud;
        cloud.faas.complete(&mut cloud.meter, now, id)
    }

    /// Requests a base-platform function for `code` as a segment chain
    /// does: the scheduler delay, then the start, then `on_ready` at the
    /// ready instant.
    fn invoke<T: Send + 'static>(
        w: &mut World<T>,
        sim: &mut Simulation<World<T>>,
        code: &'static str,
        on_ready: impl FnOnce(&mut World<T>, &mut Simulation<World<T>>, Invocation) + Send + 'static,
    ) {
        let delay = w.cloud.faas.scheduler_delay(sim.now());
        let admit = call(move |w: &mut World<T>, sim| {
            let code = w.cloud.faas.code(code);
            let inv = w.cloud.faas.start(sim, code);
            sim.schedule_at(inv.ready_at, call(move |w, sim| on_ready(w, sim, inv)));
        });
        sim.schedule_in(delay, admit);
    }

    /// Invokes `code` now, completes it at once, and `delay` later invokes
    /// `again`, recording whether that second start was cold.
    fn reinvoke(
        sim: &mut Simulation<World<bool>>,
        code: &'static str,
        delay: f64,
        again: &'static str,
    ) {
        sim.schedule_now(call(move |w: &mut World<bool>, sim| {
            invoke(w, sim, code, move |w: &mut World<bool>, sim, inv| {
                assert!(complete(w, sim.now(), inv.id));
                let second = call(move |w: &mut World<bool>, sim| {
                    invoke(w, sim, again, |w: &mut World<bool>, _, inv2| {
                        w.out = inv2.cold
                    });
                });
                sim.schedule_in(SimDuration::from_secs(delay), second);
            });
        }));
    }

    #[test]
    fn burst_then_linear_ramp() {
        let mut cfg = fixed_cfg();
        cfg.keep_alive_secs = 0.0; // force every start cold for exact timing
        let (mut sim, mut w) = platform::<Vec<f64>>(cfg);
        for _ in 0..5 {
            sim.schedule_now(call(|w: &mut World<Vec<f64>>, sim| {
                invoke(w, sim, "task", |w: &mut World<Vec<f64>>, sim, inv| {
                    w.out.push(inv.ready_at.as_secs());
                    sim.schedule_now(call(move |w: &mut World<Vec<f64>>, sim| {
                        assert!(complete(w, sim.now(), inv.id))
                    }));
                });
            }));
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
        sim.schedule_now(call(|w: &mut World<()>, sim| {
            invoke(w, sim, "slow", |_: &mut World<()>, _, _inv| {
                // Executor "hangs": never completes.
            });
        }));
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
        sim.schedule_now(call(|w: &mut World<bool>, sim| {
            w.cloud.faas.prewarm(sim, "task", 2)
        }));
        sim.run_until(&mut w, Some(SimTime::from_secs(5.0)));
        assert_eq!(w.cloud.faas.warm_count("task"), 2);
        assert!((w.cloud.faas.function_seconds() - 2.0).abs() < 1e-9);
        // A subsequent invoke is warm.
        sim.schedule_now(call(|w: &mut World<bool>, sim| {
            invoke(w, sim, "task", |w: &mut World<bool>, _, inv| {
                w.out = inv.cold
            });
        }));
        sim.run_until(&mut w, Some(SimTime::from_secs(10.0)));
        assert!(!w.out);
    }

    #[test]
    fn completion_bills_duration_plus_start() {
        let (mut sim, mut w) = platform::<()>(fixed_cfg());
        sim.schedule_now(call(|w: &mut World<()>, sim| {
            invoke(w, sim, "t", |_: &mut World<()>, sim, inv| {
                let finish = call(move |w: &mut World<()>, sim| {
                    assert!(complete(w, sim.now(), inv.id));
                });
                sim.schedule_in(SimDuration::from_secs(9.0), finish);
            });
        }));
        sim.run(&mut w);
        // 1 s cold start + 9 s run.
        assert!((w.cloud.faas.function_seconds() - 10.0).abs() < 1e-9);
        assert_eq!(w.cloud.faas.kills(), 0);
    }
}
