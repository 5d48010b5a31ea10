//! Max-min fair-share bandwidth links.
//!
//! A [`SharedLink`] models a network or storage channel of fixed aggregate
//! capacity. Concurrent transfers receive max-min fair shares (water-filling
//! over optional per-flow caps); whenever the set of active transfers
//! changes, progress is advanced under the old shares and the next completion
//! is re-planned under the new ones. This is the mechanism behind every
//! contention effect in the cloud models: master-NIC bottlenecks, S3
//! aggregate-bandwidth saturation, and cluster-network congestion.
//!
//! **One water-fill per event.** A change to the transfer set cancels the
//! pending completion event and reserves an engine sequence number, but the
//! next completion is computed once per event, by a flush the engine runs
//! after the event returns (see [`Simulation::defer`]). A burst of n
//! arrivals inside one event (a wide VM task starting every component on one
//! NIC) costs one water-fill, one min-scan and one scheduled event, not n of
//! each. This is exact: between the link's last change in an event and the
//! flush, no other event runs and the clock does not move, so the flush sees
//! the state the last change left, computes the next completion with the
//! same floating-point operations in the same order, and schedules it under
//! the sequence number reserved at that change — the `(at, seq)` key an
//! eager replan at that change would have given it.
//!
//! A completion tick finds the finished transfers in one scan. A lone
//! finisher, the common case, is removed by binary search on both indexes;
//! several are removed in one `retain` pass over each. Callbacks run in id
//! order from a buffer kept between ticks, so a tick allocates nothing.
//!
//! Shares are cached per transfer and recomputed lazily: the cache is
//! invalidated only when the transfer set (or a cap) changes, so the share
//! consumers on a completion tick (advance, utilization trace, flush) trigger
//! at most one water-fill pass, and the pass itself runs over a slab + sorted
//! index vectors with no per-call allocation. The recompute walks flows in
//! exactly the order the original per-call `BTreeMap` build did (cap
//! ascending, id breaking ties), so every floating-point operation happens
//! in the same sequence and simulated results are bit-for-bit unchanged.

use crate::engine::{Deferred, EventHandle, ReservedSeq, Simulation};
use crate::shared::{shared, AtomicRefCell, Shared};
use crate::time::{SimDuration, SimTime};
use crate::trace::{TraceEvent, Tracer};
use std::sync::Arc;

/// Completion epsilon: transfers within this many bytes of done are finished.
const EPS_BYTES: f64 = 1e-6;

type DoneFn = Box<dyn FnOnce(&mut Simulation) + Send>;

/// Identifier of an in-flight transfer on a particular link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TransferId(u64);

struct Transfer {
    id: u64,
    remaining: f64,
    /// Per-flow bandwidth cap in bytes/sec (`f64::INFINITY` when uncapped).
    cap: f64,
    /// Cached fair share in bytes/sec; valid only while `shares_dirty` is
    /// false on the owning link.
    share: f64,
    on_done: DoneFn,
}

struct LinkState {
    name: String,
    capacity: f64,
    /// Slab of transfers; `None` entries are free and listed in `free`.
    slab: Vec<Option<Transfer>>,
    free: Vec<u32>,
    /// Slot indices ordered by transfer id ascending. Ids are allocated
    /// monotonically, so arrivals append; removals shift (cheap: `u32`s).
    by_id: Vec<u32>,
    /// Slot indices ordered by (cap, id) ascending — the water-fill order.
    by_cap: Vec<u32>,
    /// Set whenever the transfer set changes; cleared by `refresh_shares`.
    shares_dirty: bool,
    next_id: u64,
    last_update: SimTime,
    completion_event: Option<EventHandle>,
    /// Sequence number reserved by the latest change to the transfer set;
    /// `Some` exactly while a flush is registered with the engine.
    pending_flush: Option<ReservedSeq>,
    /// Callbacks of the finishing tick; kept between ticks (empty) so a
    /// tick does not allocate.
    done_buf: Vec<DoneFn>,
    bytes_delivered: f64,
    // Time series of (time, utilized fraction) for figure traces.
    utilization_trace: Vec<(f64, f64)>,
    trace_enabled: bool,
    /// Flight recorder; transfer start/end instants at verbose level only.
    tracer: Tracer,
}

impl LinkState {
    fn transfer(&self, slot: u32) -> &Transfer {
        self.slab[slot as usize].as_ref().expect("live slot")
    }

    /// Binary-searches `by_id` for the slot holding transfer `id`.
    fn find_by_id(&self, id: u64) -> Option<usize> {
        self.by_id
            .binary_search_by(|&slot| self.transfer(slot).id.cmp(&id))
            .ok()
    }

    /// Position in `by_cap` where `(cap, id)` belongs (present or not).
    fn cap_position(&self, cap: f64, id: u64) -> usize {
        self.by_cap
            .binary_search_by(|&slot| {
                let t = self.transfer(slot);
                t.cap
                    .partial_cmp(&cap)
                    .expect("caps are never NaN")
                    .then(t.id.cmp(&id))
            })
            .unwrap_or_else(|i| i)
    }

    fn insert(&mut self, t: Transfer) {
        let (id, cap) = (t.id, t.cap);
        let slot = match self.free.pop() {
            Some(s) => {
                self.slab[s as usize] = Some(t);
                s
            }
            None => {
                let s = u32::try_from(self.slab.len()).expect("transfer slot overflow");
                self.slab.push(Some(t));
                s
            }
        };
        // Ids are monotone, so the id index always appends.
        self.by_id.push(slot);
        let pos = self.cap_position(cap, id);
        self.by_cap.insert(pos, slot);
        self.shares_dirty = true;
    }

    fn remove(&mut self, id: u64) -> Option<Transfer> {
        let id_pos = self.find_by_id(id)?;
        Some(self.remove_at(id_pos))
    }

    /// Removes the transfer at `id_pos` in `by_id`, finding its `by_cap`
    /// entry by binary search on `(cap, id)`.
    fn remove_at(&mut self, id_pos: usize) -> Transfer {
        let slot = self.by_id.remove(id_pos);
        let t = self.transfer(slot);
        // Search the cap index while the slot is still live.
        let cap_pos = self.cap_position(t.cap, t.id);
        debug_assert_eq!(self.by_cap[cap_pos], slot, "cap index in sync");
        self.by_cap.remove(cap_pos);
        let t = self.slab[slot as usize].take().expect("live slot");
        self.free.push(slot);
        self.shares_dirty = true;
        t
    }

    /// Detaches every finished transfer, appending their callbacks to
    /// `done` in id order. One scan finds the first; if nothing crossed the
    /// epsilon, the transfer closest to done is force-finished instead. A
    /// lone finisher (the common tick) is removed by binary search; several
    /// are removed in one `retain` pass over each index.
    fn remove_finished(&mut self, now: SimTime, done: &mut Vec<DoneFn>) {
        let finished = |s: &Self, slot: u32| s.transfer(slot).remaining <= EPS_BYTES;
        let first = match self.by_id.iter().position(|&slot| finished(self, slot)) {
            Some(pos) => pos,
            None if self.by_id.is_empty() => return,
            None => self.force_finish_closest(),
        };
        if !self.by_id[first + 1..]
            .iter()
            .any(|&slot| finished(self, slot))
        {
            let t = self.remove_at(first);
            self.tracer.emit_verbose(now, || TraceEvent::TransferEnd {
                link: self.name.clone(),
                id: t.id,
            });
            done.push(t.on_done);
            return;
        }
        let LinkState {
            slab,
            free,
            by_id,
            by_cap,
            shares_dirty,
            tracer,
            name,
            ..
        } = self;
        let live = |slab: &[Option<Transfer>], slot: u32| {
            slab[slot as usize].as_ref().expect("live slot").remaining > EPS_BYTES
        };
        by_cap.retain(|&slot| live(slab, slot));
        by_id.retain(|&slot| {
            if live(slab, slot) {
                return true;
            }
            let t = slab[slot as usize].take().expect("live slot");
            free.push(slot);
            done.push(t.on_done);
            tracer.emit_verbose(now, || TraceEvent::TransferEnd {
                link: name.clone(),
                id: t.id,
            });
            false
        });
        *shares_dirty = true;
    }

    /// Recomputes max-min fair shares (water-filling with per-flow caps) if
    /// the transfer set changed since the last pass. The sum of shares never
    /// exceeds capacity. Flows are visited cap-ascending with id breaking
    /// ties — identical operation order to a stable sort over an
    /// id-ascending scan, which is what the per-call rebuild used to do.
    fn refresh_shares(&mut self) {
        if !self.shares_dirty {
            return;
        }
        let n = self.by_cap.len();
        let mut remaining_cap = self.capacity;
        for i in 0..n {
            let slot = self.by_cap[i] as usize;
            let n_left = (n - i) as f64;
            let fair = remaining_cap / n_left;
            let t = self.slab[slot].as_mut().expect("live slot");
            let share = t.cap.min(fair);
            t.share = share;
            remaining_cap -= share;
        }
        self.shares_dirty = false;
    }

    /// Advances every transfer's progress from `last_update` to `now` under
    /// the current shares.
    fn advance(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last_update).as_secs();
        if dt > 0.0 && !self.by_id.is_empty() {
            self.refresh_shares();
            let mut delivered = 0.0;
            for i in 0..self.by_id.len() {
                let slot = self.by_id[i] as usize;
                let t = self.slab[slot].as_mut().expect("live slot");
                let moved = (t.share * dt).min(t.remaining);
                t.remaining -= moved;
                delivered += moved;
            }
            self.bytes_delivered += delivered;
        }
        self.last_update = now;
    }

    /// Ticks fire exactly at a planned completion, so if nothing crossed the
    /// epsilon the residue is floating-point error (advancing by
    /// `remaining/share` can round to a dt smaller than one ulp of the
    /// clock, which would loop forever). Force-finishes the transfer closest
    /// to done (first minimum in id order, as `Iterator::min_by`
    /// guarantees) and returns its position in `by_id`.
    fn force_finish_closest(&mut self) -> usize {
        let pos = (0..self.by_id.len())
            .min_by(|&a, &b| {
                self.transfer(self.by_id[a])
                    .remaining
                    .partial_cmp(&self.transfer(self.by_id[b]).remaining)
                    .expect("remaining is never NaN")
            })
            .expect("non-empty");
        let t = self.slab[self.by_id[pos] as usize]
            .as_mut()
            .expect("live slot");
        let residue = t.remaining;
        t.remaining = 0.0;
        self.bytes_delivered += residue;
        pos
    }

    fn record_utilization(&mut self, now: SimTime) {
        if self.trace_enabled {
            self.refresh_shares();
            // Sum in id order, matching the original `shares().values().sum()`.
            let used: f64 = self.by_id.iter().map(|&s| self.transfer(s).share).sum();
            let frac = if self.capacity > 0.0 {
                used / self.capacity
            } else {
                0.0
            };
            self.utilization_trace.push((now.as_secs(), frac));
        }
    }
}

/// A shareable handle to a fair-share link. Cloning shares the same channel.
#[derive(Clone)]
pub struct SharedLink {
    inner: Shared<LinkState>,
}

impl SharedLink {
    /// Creates a link with `capacity_bps` aggregate bytes/sec.
    pub fn new(name: impl Into<String>, capacity_bps: f64) -> Self {
        assert!(
            capacity_bps.is_finite() && capacity_bps > 0.0,
            "link capacity must be positive"
        );
        SharedLink {
            inner: shared(LinkState {
                name: name.into(),
                capacity: capacity_bps,
                slab: Vec::new(),
                free: Vec::new(),
                by_id: Vec::new(),
                by_cap: Vec::new(),
                shares_dirty: false,
                next_id: 0,
                last_update: SimTime::ZERO,
                completion_event: None,
                pending_flush: None,
                done_buf: Vec::new(),
                bytes_delivered: 0.0,
                utilization_trace: Vec::new(),
                trace_enabled: false,
                tracer: Tracer::off(),
            }),
        }
    }

    /// Attaches a flight recorder; transfer lifecycles become verbose-level
    /// instants carrying the link name.
    pub fn set_tracer(&self, tracer: Tracer) {
        self.inner.borrow_mut().tracer = tracer;
    }

    /// Enables recording of a `(time, utilized fraction)` trace.
    pub fn enable_trace(&self) {
        self.inner.borrow_mut().trace_enabled = true;
    }

    /// Returns the recorded utilization trace.
    pub fn trace(&self) -> Vec<(f64, f64)> {
        self.inner.borrow().utilization_trace.clone()
    }

    /// The link name (for diagnostics).
    pub fn name(&self) -> String {
        self.inner.borrow().name.clone()
    }

    /// Aggregate capacity in bytes/sec.
    pub fn capacity_bps(&self) -> f64 {
        self.inner.borrow().capacity
    }

    /// Number of in-flight transfers.
    pub fn active_transfers(&self) -> usize {
        self.inner.borrow().by_id.len()
    }

    /// Total bytes delivered so far (advanced to `now`).
    pub fn bytes_delivered(&self, now: SimTime) -> f64 {
        let mut s = self.inner.borrow_mut();
        s.advance(now);
        s.bytes_delivered
    }

    /// The current fair share of every in-flight transfer, as
    /// `(transfer id, bytes/sec)` in id order. Diagnostic surface for tests
    /// and tools; forces a share refresh if the set changed.
    pub fn current_shares(&self) -> Vec<(u64, f64)> {
        let mut s = self.inner.borrow_mut();
        s.refresh_shares();
        s.by_id
            .iter()
            .map(|&slot| {
                let t = s.transfer(slot);
                (t.id, t.share)
            })
            .collect()
    }

    /// Starts a transfer of `bytes` with an optional per-flow cap, invoking
    /// `on_done` when the last byte arrives. Zero-byte transfers complete at
    /// the current instant.
    pub fn start_transfer(
        &self,
        sim: &mut Simulation,
        bytes: f64,
        per_flow_cap: Option<f64>,
        on_done: impl FnOnce(&mut Simulation) + Send + 'static,
    ) -> TransferId {
        assert!(bytes.is_finite() && bytes >= 0.0, "invalid transfer size");
        if bytes <= EPS_BYTES {
            sim.schedule_now(on_done);
            // Allocate an id anyway so callers can treat it uniformly.
            let mut s = self.inner.borrow_mut();
            let id = s.next_id;
            s.next_id += 1;
            return TransferId(id);
        }
        let id = {
            let mut s = self.inner.borrow_mut();
            s.advance(sim.now());
            let id = s.next_id;
            s.next_id += 1;
            s.insert(Transfer {
                id,
                remaining: bytes,
                cap: per_flow_cap.unwrap_or(f64::INFINITY),
                share: 0.0,
                on_done: Box::new(on_done),
            });
            s.record_utilization(sim.now());
            s.tracer
                .emit_verbose(sim.now(), || TraceEvent::TransferStart {
                    link: s.name.clone(),
                    id,
                    bytes,
                });
            id
        };
        self.replan(sim);
        TransferId(id)
    }

    /// Cancels an in-flight transfer; its completion callback never fires.
    /// Returns the bytes that were still outstanding (0 if already finished).
    pub fn cancel_transfer(&self, sim: &mut Simulation, id: TransferId) -> f64 {
        let remaining = {
            let mut s = self.inner.borrow_mut();
            s.advance(sim.now());
            let rem = s.remove(id.0).map(|t| t.remaining);
            s.record_utilization(sim.now());
            rem
        };
        if remaining.is_some() {
            self.replan(sim);
        }
        remaining.unwrap_or(0.0)
    }

    /// Marks the next completion stale after a change to the transfer set:
    /// cancels the scheduled completion, reserves the sequence number an
    /// event scheduled now would take, and registers one flush per event.
    /// An empty link needs no completion: a flush registered earlier in
    /// the event finds it empty too, unless a later change refills it and
    /// reserves its own number.
    fn replan(&self, sim: &mut Simulation) {
        let first_change = {
            let mut s = self.inner.borrow_mut();
            if let Some(h) = s.completion_event.take() {
                sim.cancel(h);
            }
            if s.by_id.is_empty() {
                return;
            }
            s.pending_flush.replace(sim.reserve_seq()).is_none()
        };
        if first_change {
            sim.defer(self.inner.clone());
        }
    }

    /// Schedules the next completion from the state the event left: one
    /// water-fill, one min-scan, one event under the latest reservation.
    fn flush(&self, sim: &mut Simulation) {
        let next_completion: Option<(SimDuration, ReservedSeq)> = {
            let mut s = self.inner.borrow_mut();
            let seq = s.pending_flush.take().expect("flush registered by replan");
            if s.by_id.is_empty() {
                None
            } else {
                s.refresh_shares();
                let dt = s
                    .by_id
                    .iter()
                    .map(|&slot| {
                        let t = s.transfer(slot);
                        if t.share <= 0.0 {
                            f64::INFINITY
                        } else {
                            t.remaining / t.share
                        }
                    })
                    .fold(f64::INFINITY, f64::min);
                assert!(dt.is_finite(), "transfer on link '{}' starved", s.name);
                Some((SimDuration::from_secs(dt), seq))
            }
        };
        if let Some((dt, seq)) = next_completion {
            let link = self.clone();
            let h =
                sim.schedule_reserved(sim.now() + dt, seq, move |sim| link.on_completion_tick(sim));
            self.inner.borrow_mut().completion_event = Some(h);
        }
    }

    fn on_completion_tick(&self, sim: &mut Simulation) {
        // Advance, detach finished transfers, run their callbacks, replan.
        let mut finished = {
            let mut s = self.inner.borrow_mut();
            s.completion_event = None;
            s.advance(sim.now());
            let mut done = std::mem::take(&mut s.done_buf);
            s.remove_finished(sim.now(), &mut done);
            s.record_utilization(sim.now());
            done
        };
        for cb in finished.drain(..) {
            cb(sim);
        }
        self.inner.borrow_mut().done_buf = finished;
        self.replan(sim);
    }
}

/// A link's flush, registered by [`SharedLink::replan`].
impl Deferred for AtomicRefCell<LinkState> {
    fn run(self: Arc<Self>, sim: &mut Simulation) {
        SharedLink { inner: self }.flush(sim);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finish_times(link: &SharedLink, jobs: &[(f64, Option<f64>, f64)]) -> Vec<f64> {
        // jobs: (bytes, cap, start_time) -> completion times in job order.
        let mut sim = Simulation::new();
        let out: Shared<Vec<(usize, f64)>> = shared(Vec::new());
        for (i, &(bytes, cap, start)) in jobs.iter().enumerate() {
            let link = link.clone();
            let out = out.clone();
            sim.schedule_at(SimTime::from_secs(start), move |sim| {
                link.start_transfer(sim, bytes, cap, move |sim| {
                    out.borrow_mut().push((i, sim.now().as_secs()));
                });
            });
        }
        sim.run();
        let mut v = out.borrow().clone();
        v.sort_by_key(|&(i, _)| i);
        v.into_iter().map(|(_, t)| t).collect()
    }

    #[test]
    fn single_transfer_uses_full_capacity() {
        let link = SharedLink::new("l", 100.0);
        let t = finish_times(&link, &[(1000.0, None, 0.0)]);
        assert!((t[0] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn two_equal_transfers_share_evenly() {
        let link = SharedLink::new("l", 100.0);
        let t = finish_times(&link, &[(500.0, None, 0.0), (500.0, None, 0.0)]);
        // Each gets 50 B/s -> both complete at t=10.
        assert!((t[0] - 10.0).abs() < 1e-9);
        assert!((t[1] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn short_transfer_frees_bandwidth_for_long_one() {
        let link = SharedLink::new("l", 100.0);
        // A: 1000 bytes, B: 100 bytes. Until B is done both run at 50 B/s.
        // B finishes at t=2 (100/50). A then has 900 bytes left at 100 B/s,
        // finishing at 2 + 9 = 11.
        let t = finish_times(&link, &[(1000.0, None, 0.0), (100.0, None, 0.0)]);
        assert!((t[1] - 2.0).abs() < 1e-9, "B at {}", t[1]);
        assert!((t[0] - 11.0).abs() < 1e-9, "A at {}", t[0]);
    }

    #[test]
    fn per_flow_cap_limits_share() {
        let link = SharedLink::new("l", 100.0);
        // Capped at 10 B/s: 100 bytes takes 10 s even though link is idle.
        let t = finish_times(&link, &[(100.0, Some(10.0), 0.0)]);
        assert!((t[0] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn water_filling_redistributes_capped_leftovers() {
        let link = SharedLink::new("l", 100.0);
        // One flow capped at 20 B/s, one uncapped: uncapped gets 80 B/s.
        // capped: 200/20 = 10 s; uncapped: 800/80 = 10 s.
        let t = finish_times(&link, &[(200.0, Some(20.0), 0.0), (800.0, None, 0.0)]);
        assert!((t[0] - 10.0).abs() < 1e-9);
        assert!((t[1] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn late_arrival_slows_down_existing_transfer() {
        let link = SharedLink::new("l", 100.0);
        // A: 1000 bytes at t=0, alone until t=5 (500 done). B: 250 bytes at
        // t=5; both at 50 B/s. B done at t=10. A has 250 left at t=10, full
        // speed -> done at t=12.5.
        let t = finish_times(&link, &[(1000.0, None, 0.0), (250.0, None, 5.0)]);
        assert!((t[1] - 10.0).abs() < 1e-9, "B at {}", t[1]);
        assert!((t[0] - 12.5).abs() < 1e-9, "A at {}", t[0]);
    }

    #[test]
    fn zero_byte_transfer_completes_immediately() {
        let link = SharedLink::new("l", 100.0);
        let t = finish_times(&link, &[(0.0, None, 3.0)]);
        assert!((t[0] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn cancel_returns_outstanding_bytes_and_suppresses_callback() {
        let mut sim = Simulation::new();
        let link = SharedLink::new("l", 100.0);
        let fired = shared(false);
        let fired2 = fired.clone();
        let link2 = link.clone();
        let id = shared(None);
        let id2 = id.clone();
        sim.schedule_at(SimTime::ZERO, move |sim| {
            let t = link2.start_transfer(sim, 1000.0, None, move |_| {
                *fired2.borrow_mut() = true;
            });
            *id2.borrow_mut() = Some(t);
        });
        let link3 = link.clone();
        let id3 = id.clone();
        sim.schedule_at(SimTime::from_secs(4.0), move |sim| {
            let remaining = link3.cancel_transfer(sim, id3.borrow().unwrap());
            // 4 s at 100 B/s -> 600 bytes left.
            assert!((remaining - 600.0).abs() < 1e-9);
        });
        sim.run();
        assert!(!*fired.borrow());
        assert_eq!(link.active_transfers(), 0);
    }

    #[test]
    fn bytes_delivered_accumulates() {
        let link = SharedLink::new("l", 100.0);
        let _ = finish_times(&link, &[(300.0, None, 0.0), (200.0, None, 1.0)]);
        let mut sim = Simulation::new();
        sim.run_until(Some(SimTime::from_secs(100.0)));
        assert!((link.bytes_delivered(sim.now()) - 500.0).abs() < 1e-6);
    }

    #[test]
    fn many_concurrent_transfers_conserve_capacity() {
        // 10 transfers of 100 bytes each on a 100 B/s link: aggregate work is
        // 1000 bytes -> exactly 10 seconds regardless of sharing pattern.
        let link = SharedLink::new("l", 100.0);
        let jobs: Vec<(f64, Option<f64>, f64)> = (0..10).map(|_| (100.0, None, 0.0)).collect();
        let t = finish_times(&link, &jobs);
        for ti in t {
            assert!((ti - 10.0).abs() < 1e-9);
        }
    }

    #[test]
    fn current_shares_water_fills_caps_then_splits_the_rest() {
        let mut sim = Simulation::new();
        let link = SharedLink::new("l", 100.0);
        let link2 = link.clone();
        sim.schedule_at(SimTime::ZERO, move |sim| {
            link2.start_transfer(sim, 1.0e6, Some(10.0), |_| {});
            link2.start_transfer(sim, 1.0e6, None, |_| {});
            link2.start_transfer(sim, 1.0e6, None, |_| {});
        });
        sim.run_until(Some(SimTime::from_secs(0.0)));
        let shares = link.current_shares();
        assert_eq!(shares.len(), 3);
        // Capped flow saturates at 10; the remaining 90 splits 45/45.
        assert!((shares[0].1 - 10.0).abs() < 1e-12);
        assert!((shares[1].1 - 45.0).abs() < 1e-12);
        assert!((shares[2].1 - 45.0).abs() < 1e-12);
        let total: f64 = shares.iter().map(|&(_, s)| s).sum();
        assert!(total <= 100.0 + 1e-9);
    }

    #[test]
    fn slab_slots_are_reused_without_id_confusion() {
        // Drive enough arrival/completion churn that slots recycle, then
        // check ids remain unique and everything completes.
        let link = SharedLink::new("l", 1000.0);
        let jobs: Vec<(f64, Option<f64>, f64)> = (0..50)
            .map(|i| (100.0, None, (i % 7) as f64 * 0.5))
            .collect();
        let t = finish_times(&link, &jobs);
        assert_eq!(t.len(), 50);
        assert_eq!(link.active_transfers(), 0);
    }
}
