//! Seeded chaos schedules: spot preemption and storage/network faults.
//!
//! A [`FaultPlan`] is a *fully deterministic* schedule of provider
//! misbehaviour, generated from a seed and replayed as ordinary simulation
//! events. Chaos runs are therefore bit-reproducible: the same plan against
//! the same workflow produces the same trace, which is what lets golden
//! chaos fixtures and the trace-invariant oracle treat adaptive runs like
//! any other execution.
//!
//! Faults come in two families:
//!
//! * **Spot preemption** — the provider reclaims VM nodes at scheduled
//!   instants ([`Fault::Preempt`]); the cluster bills reclaimed nodes only
//!   up to their reclaim time, against a piecewise spot price trace.
//! * **Storage/network windows** — transient GET error windows, request
//!   latency spikes, and data-plane link degradation
//!   ([`Fault::StorageError`], [`Fault::StorageLatency`],
//!   [`Fault::LinkDegrade`]), applied to the object store while active.
//!
//! Liveness is guaranteed structurally: neither [`FaultPlan::generate`] nor
//! the cluster's reclaim path ever takes a sub-cluster's last surviving
//! node, so every chaos run can complete (possibly slowly) rather than
//! wedging.

use crate::event::{ev, Ev};
use crate::world::{Cloud, CloudWorld};
use mashup_sim::{SeedSource, SimTime, Simulation};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A storage/network fault as applied to the store during its window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StoreFault {
    /// Each GET in the window fails with this probability and is retried
    /// from a replica (billed again, like the platform's native retry).
    Error {
        /// Per-operation failure probability.
        prob: f64,
    },
    /// Every request in the window pays extra per-request latency.
    Latency {
        /// Additional seconds per operation.
        extra_secs: f64,
    },
    /// Data-plane flows are capped to this fraction of their normal
    /// bandwidth while the window is active.
    Degrade {
        /// Bandwidth multiplier in `(0, 1]`.
        factor: f64,
    },
}

impl StoreFault {
    /// Stable kind label used in `FaultInjected` trace records.
    pub fn kind(&self) -> &'static str {
        match self {
            StoreFault::Error { .. } => "storage-error",
            StoreFault::Latency { .. } => "storage-latency",
            StoreFault::Degrade { .. } => "link-degrade",
        }
    }

    /// Kind-specific magnitude recorded in `FaultInjected`.
    pub fn magnitude(&self) -> f64 {
        match self {
            StoreFault::Error { prob } => *prob,
            StoreFault::Latency { extra_secs } => *extra_secs,
            StoreFault::Degrade { factor } => *factor,
        }
    }
}

// The vendored serde derive only covers unit-variant enums, so the two
// fault enums serialize by hand as `{"kind": ..., <fields>}` objects.
impl Serialize for StoreFault {
    fn to_value(&self) -> serde::Value {
        let (field, mag) = match *self {
            StoreFault::Error { prob } => ("prob", prob),
            StoreFault::Latency { extra_secs } => ("extra_secs", extra_secs),
            StoreFault::Degrade { factor } => ("factor", factor),
        };
        serde::Value::Object(vec![
            ("kind".to_owned(), self.kind().to_value()),
            (field.to_owned(), mag.to_value()),
        ])
    }
}

impl Deserialize for StoreFault {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let kind = v["kind"]
            .as_str()
            .ok_or_else(|| serde::Error::missing_field("kind"))?;
        let num = |key: &str| {
            v[key]
                .as_f64()
                .ok_or_else(|| serde::Error::missing_field(key))
        };
        match kind {
            "storage-error" => Ok(StoreFault::Error { prob: num("prob")? }),
            "storage-latency" => Ok(StoreFault::Latency {
                extra_secs: num("extra_secs")?,
            }),
            "link-degrade" => Ok(StoreFault::Degrade {
                factor: num("factor")?,
            }),
            other => Err(serde::Error::custom(format!(
                "unknown StoreFault kind `{other}`"
            ))),
        }
    }
}

/// One scheduled fault. Ids are positional: a fault's id is its index in
/// [`FaultPlan::faults`], and every retry/migration record chains back to
/// that id (checked by the oracle's T-FAULT-ATTRIB rule).
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// The provider reclaims a spot VM node at `at_secs`. `node` is a flat
    /// cluster-wide index; the cluster maps it onto its actual
    /// (sub-cluster, node) topology at reclaim time.
    Preempt {
        /// Reclaim instant, seconds.
        at_secs: f64,
        /// Flat node index in `0..nodes`.
        node: usize,
    },
    /// Transient GET errors: reads in the window fail with `prob` and are
    /// retried from a replica.
    StorageError {
        /// Window start, seconds.
        from_secs: f64,
        /// Window end, seconds.
        until_secs: f64,
        /// Per-operation failure probability.
        prob: f64,
    },
    /// A storage latency spike: every request in the window pays extra.
    StorageLatency {
        /// Window start, seconds.
        from_secs: f64,
        /// Window end, seconds.
        until_secs: f64,
        /// Additional seconds per operation.
        extra_secs: f64,
    },
    /// Store/WAN link degradation: data-plane flows in the window are
    /// capped to `factor` of their normal bandwidth.
    LinkDegrade {
        /// Window start, seconds.
        from_secs: f64,
        /// Window end, seconds.
        until_secs: f64,
        /// Bandwidth multiplier in `(0, 1]`.
        factor: f64,
    },
}

impl Fault {
    fn store_window(&self) -> Option<(f64, f64, StoreFault)> {
        match *self {
            Fault::Preempt { .. } => None,
            Fault::StorageError {
                from_secs,
                until_secs,
                prob,
            } => Some((from_secs, until_secs, StoreFault::Error { prob })),
            Fault::StorageLatency {
                from_secs,
                until_secs,
                extra_secs,
            } => Some((from_secs, until_secs, StoreFault::Latency { extra_secs })),
            Fault::LinkDegrade {
                from_secs,
                until_secs,
                factor,
            } => Some((from_secs, until_secs, StoreFault::Degrade { factor })),
        }
    }
}

impl Serialize for Fault {
    fn to_value(&self) -> serde::Value {
        let mut obj: Vec<(String, serde::Value)> = Vec::new();
        let mut put = |k: &str, v: serde::Value| obj.push((k.to_owned(), v));
        match *self {
            Fault::Preempt { at_secs, node } => {
                put("kind", "preempt".to_value());
                put("at_secs", at_secs.to_value());
                put("node", node.to_value());
            }
            Fault::StorageError {
                from_secs,
                until_secs,
                prob,
            } => {
                put("kind", "storage-error".to_value());
                put("from_secs", from_secs.to_value());
                put("until_secs", until_secs.to_value());
                put("prob", prob.to_value());
            }
            Fault::StorageLatency {
                from_secs,
                until_secs,
                extra_secs,
            } => {
                put("kind", "storage-latency".to_value());
                put("from_secs", from_secs.to_value());
                put("until_secs", until_secs.to_value());
                put("extra_secs", extra_secs.to_value());
            }
            Fault::LinkDegrade {
                from_secs,
                until_secs,
                factor,
            } => {
                put("kind", "link-degrade".to_value());
                put("from_secs", from_secs.to_value());
                put("until_secs", until_secs.to_value());
                put("factor", factor.to_value());
            }
        }
        serde::Value::Object(obj)
    }
}

impl Deserialize for Fault {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let kind = v["kind"]
            .as_str()
            .ok_or_else(|| serde::Error::missing_field("kind"))?;
        let num = |key: &str| {
            v[key]
                .as_f64()
                .ok_or_else(|| serde::Error::missing_field(key))
        };
        match kind {
            "preempt" => Ok(Fault::Preempt {
                at_secs: num("at_secs")?,
                node: v["node"]
                    .as_u64()
                    .ok_or_else(|| serde::Error::missing_field("node"))?
                    as usize,
            }),
            "storage-error" => Ok(Fault::StorageError {
                from_secs: num("from_secs")?,
                until_secs: num("until_secs")?,
                prob: num("prob")?,
            }),
            "storage-latency" => Ok(Fault::StorageLatency {
                from_secs: num("from_secs")?,
                until_secs: num("until_secs")?,
                extra_secs: num("extra_secs")?,
            }),
            "link-degrade" => Ok(Fault::LinkDegrade {
                from_secs: num("from_secs")?,
                until_secs: num("until_secs")?,
                factor: num("factor")?,
            }),
            other => Err(serde::Error::custom(format!(
                "unknown Fault kind `{other}`"
            ))),
        }
    }
}

/// Shape parameters for [`FaultPlan::generate`]: how much of each fault
/// family a generated plan contains, scaled to a time horizon (usually a
/// fraction of the workflow's fault-free makespan).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultProfile {
    /// Fraction of cluster nodes to reclaim (capped so at least one node
    /// survives overall).
    pub preempt_frac: f64,
    /// Time window faults are drawn within, seconds.
    pub horizon_secs: f64,
    /// Number of transient GET-error windows.
    pub storage_error_windows: usize,
    /// Per-operation failure probability inside an error window.
    pub storage_error_prob: f64,
    /// Number of latency-spike windows.
    pub latency_windows: usize,
    /// Extra per-request seconds inside a latency window.
    pub latency_extra_secs: f64,
    /// Number of link-degradation windows.
    pub degrade_windows: usize,
    /// Bandwidth multiplier inside a degradation window.
    pub degrade_factor: f64,
}

impl FaultProfile {
    /// Spot-preemption-only chaos: half the nodes reclaimed inside the
    /// horizon, discounted piecewise spot pricing.
    pub fn preemption(horizon_secs: f64) -> Self {
        FaultProfile {
            preempt_frac: 0.5,
            horizon_secs,
            storage_error_windows: 0,
            storage_error_prob: 0.0,
            latency_windows: 0,
            latency_extra_secs: 0.0,
            degrade_windows: 0,
            degrade_factor: 1.0,
        }
    }

    /// Storage/network chaos only: error, latency, and degradation windows
    /// with no preemption.
    pub fn storage(horizon_secs: f64) -> Self {
        FaultProfile {
            preempt_frac: 0.0,
            horizon_secs,
            storage_error_windows: 2,
            storage_error_prob: 0.3,
            latency_windows: 2,
            latency_extra_secs: 0.2,
            degrade_windows: 1,
            degrade_factor: 0.4,
        }
    }

    /// Both families at once.
    pub fn mixed(horizon_secs: f64) -> Self {
        FaultProfile {
            preempt_frac: 0.5,
            ..Self::storage(horizon_secs)
        }
    }
}

/// A deterministic schedule of faults plus an optional piecewise spot
/// price trace. See the module docs for semantics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed the plan was generated from; also seeds the store's chaos RNG
    /// (per-operation error draws), so a plan replays bit-identically.
    pub seed: u64,
    /// Scheduled faults; a fault's id is its index here.
    pub faults: Vec<Fault>,
    /// Piecewise spot price: `(from_secs, price_per_hour)` breakpoints in
    /// ascending order, the last persisting forever. Empty means the flat
    /// on-demand price (spot billing still applies if nodes are reclaimed).
    pub spot_price_trace: Vec<(f64, f64)>,
}

impl FaultPlan {
    /// A plan with no faults and no price trace: installing it changes
    /// nothing about the run.
    pub fn empty(seed: u64) -> Self {
        FaultPlan {
            seed,
            faults: Vec::new(),
            spot_price_trace: Vec::new(),
        }
    }

    /// True when installing the plan would have no effect.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty() && self.spot_price_trace.is_empty()
    }

    /// True when the plan reclaims any node.
    pub fn has_preemptions(&self) -> bool {
        self.faults
            .iter()
            .any(|f| matches!(f, Fault::Preempt { .. }))
    }

    fn has_storage_faults(&self) -> bool {
        self.faults.iter().any(|f| f.store_window().is_some())
    }

    /// Draws a plan from `seed` and `profile` for a cluster of `nodes`
    /// nodes priced at `base_price_per_hour` on demand. Deterministic: the
    /// same arguments always yield the same plan. Reclaims distinct nodes
    /// and never all of them.
    pub fn generate(
        seed: u64,
        profile: &FaultProfile,
        nodes: usize,
        base_price_per_hour: f64,
    ) -> Self {
        let mut rng = SeedSource::new(seed).stream("fault-plan");
        let h = profile.horizon_secs.max(1.0);
        let mut faults = Vec::new();

        let max_victims = nodes.saturating_sub(1);
        let wanted = (profile.preempt_frac.clamp(0.0, 1.0) * nodes as f64).floor() as usize;
        let k = wanted.min(max_victims);
        let mut pool: Vec<usize> = (0..nodes).collect();
        for _ in 0..k {
            let i = rng.gen_range(0..pool.len());
            let node = pool.swap_remove(i);
            // Early-to-mid horizon, so the controller has phases left to
            // replan after the reclaim.
            let at_secs = (0.05 + 0.55 * rng.gen::<f64>()) * h;
            faults.push(Fault::Preempt { at_secs, node });
        }

        for _ in 0..profile.storage_error_windows {
            let from_secs = rng.gen::<f64>() * 0.7 * h;
            let dur = (0.05 + 0.2 * rng.gen::<f64>()) * h;
            faults.push(Fault::StorageError {
                from_secs,
                until_secs: from_secs + dur,
                prob: profile.storage_error_prob,
            });
        }
        for _ in 0..profile.latency_windows {
            let from_secs = rng.gen::<f64>() * 0.7 * h;
            let dur = (0.05 + 0.2 * rng.gen::<f64>()) * h;
            faults.push(Fault::StorageLatency {
                from_secs,
                until_secs: from_secs + dur,
                extra_secs: profile.latency_extra_secs,
            });
        }
        for _ in 0..profile.degrade_windows {
            let from_secs = rng.gen::<f64>() * 0.7 * h;
            let dur = (0.1 + 0.3 * rng.gen::<f64>()) * h;
            faults.push(Fault::LinkDegrade {
                from_secs,
                until_secs: from_secs + dur,
                factor: profile.degrade_factor,
            });
        }

        // Spot markets discount against on-demand; reclaim-carrying plans
        // get a piecewise trace so billing exercises segment integration.
        let mut spot_price_trace = Vec::new();
        if k > 0 {
            const SEGS: usize = 4;
            for i in 0..SEGS {
                let discount = 0.3 + 0.6 * rng.gen::<f64>();
                spot_price_trace.push((i as f64 * h / SEGS as f64, base_price_per_hour * discount));
            }
        }

        FaultPlan {
            seed,
            faults,
            spot_price_trace,
        }
    }

    /// Installs the schedule into a built simulation: switches the cluster
    /// to spot billing when the plan carries reclaims or a price trace,
    /// arms the store's chaos RNG when it carries storage windows, and
    /// schedules every fault as an ordinary simulation event. Installing an
    /// empty plan is a no-op.
    pub fn install<W: CloudWorld>(&self, sim: &mut Simulation<W>, cloud: &mut Cloud<W>) {
        if self.has_preemptions() || !self.spot_price_trace.is_empty() {
            cloud.cluster.enable_spot(self.spot_price_trace.clone());
        }
        if self.has_storage_faults() {
            cloud.store.enable_chaos(self.seed);
        }
        for (id, fault) in self.faults.iter().enumerate() {
            let index = u32::try_from(cloud.faults.len()).expect("fault index overflow");
            cloud.faults.push((id as u64, fault.clone()));
            let edge = |end| ev::<W>(Ev::Fault { index, end });
            match *fault {
                Fault::Preempt { at_secs, .. } => {
                    sim.schedule_at(SimTime::from_secs(at_secs), edge(false));
                }
                _ => {
                    let (from, until, _) = fault.store_window().expect("non-preempt fault");
                    sim.schedule_at(SimTime::from_secs(from), edge(false));
                    sim.schedule_at(SimTime::from_secs(until), edge(true));
                }
            }
        }
    }
}

/// Installed fault `index` fires: a preemption reclaims its node, a storage
/// window opens (or, at its `end`, closes).
pub(crate) fn on_fault<W: CloudWorld>(w: &mut W, sim: &mut Simulation<W>, index: u32, end: bool) {
    let cloud = w.cloud();
    let (id, ref fault) = cloud.faults[index as usize];
    match *fault {
        Fault::Preempt { node, .. } => cloud.cluster.preempt_flat(sim.now(), node, id),
        _ if end => cloud.store.clear_fault(id),
        _ => {
            let (_, until, f) = fault.store_window().expect("non-preempt fault");
            cloud.store.apply_fault(sim.now(), id, f, until);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let p = FaultProfile::mixed(500.0);
        let a = FaultPlan::generate(9, &p, 8, 0.12);
        let b = FaultPlan::generate(9, &p, 8, 0.12);
        assert_eq!(a, b);
        let c = FaultPlan::generate(10, &p, 8, 0.12);
        assert_ne!(a, c);
    }

    #[test]
    fn preemptions_hit_distinct_nodes_and_spare_one() {
        for nodes in [1usize, 2, 3, 8] {
            let mut profile = FaultProfile::preemption(100.0);
            profile.preempt_frac = 1.0; // ask for everything
            let plan = FaultPlan::generate(3, &profile, nodes, 0.12);
            let victims: Vec<usize> = plan
                .faults
                .iter()
                .filter_map(|f| match f {
                    Fault::Preempt { node, .. } => Some(*node),
                    _ => None,
                })
                .collect();
            assert!(victims.len() <= nodes.saturating_sub(1));
            let mut uniq = victims.clone();
            uniq.sort_unstable();
            uniq.dedup();
            assert_eq!(uniq.len(), victims.len(), "duplicate victims");
            assert!(victims.iter().all(|&n| n < nodes));
        }
    }

    #[test]
    fn windows_are_ordered_and_inside_the_horizon() {
        let plan = FaultPlan::generate(5, &FaultProfile::storage(200.0), 4, 0.12);
        assert!(plan.has_storage_faults());
        assert!(!plan.has_preemptions());
        assert!(plan.spot_price_trace.is_empty());
        for f in &plan.faults {
            let (from, until, _) = f.store_window().expect("storage profile");
            assert!(from >= 0.0 && until > from);
            assert!(until <= 200.0 * 1.1);
        }
    }

    #[test]
    fn preemption_plans_carry_a_discounted_price_trace() {
        let plan = FaultPlan::generate(5, &FaultProfile::preemption(200.0), 4, 0.12);
        assert!(plan.has_preemptions());
        assert_eq!(plan.spot_price_trace.len(), 4);
        assert!((plan.spot_price_trace[0].0 - 0.0).abs() < 1e-12);
        for w in plan.spot_price_trace.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
        for &(_, price) in &plan.spot_price_trace {
            assert!(price > 0.0 && price < 0.12);
        }
    }

    #[test]
    fn empty_plan_is_empty_and_serializes() {
        let plan = FaultPlan::empty(1);
        assert!(plan.is_empty());
        let json = serde_json::to_string(&plan).expect("serialize");
        let back: FaultPlan = serde_json::from_str(&json).expect("parse");
        assert_eq!(plan, back);
    }

    #[test]
    fn generated_plan_serde_round_trips() {
        let plan = FaultPlan::generate(11, &FaultProfile::mixed(300.0), 6, 0.12);
        let json = serde_json::to_string(&plan).expect("serialize");
        let back: FaultPlan = serde_json::from_str(&json).expect("parse");
        assert_eq!(plan, back);
    }
}
