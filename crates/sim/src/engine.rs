//! The discrete-event simulation core.
//!
//! A [`Simulation<W>`] drives a world `W` that the caller owns. Events are
//! boxed `FnOnce(&mut W, &mut Simulation<W>) + Send` closures ordered by
//! `(time, sequence-number)`; [`run`](Simulation::run) hands each one the
//! world and the engine in turn, so an event reaches component state
//! through a plain `&mut` and the compiler, not a runtime cell, rules out
//! aliasing. The sequence number makes simultaneous events fire in
//! scheduling order, so a run is fully deterministic for a given seed and
//! program order. Closures are `Send`, so a simulation and its world can be
//! built on one thread and executed on another; each run still executes
//! single-threaded, which is where its determinism comes from.
//!
//! Cancellation uses a slot/generation slab rather than a tombstone set: a
//! handle names a slot plus the generation it was issued for, and cancelling
//! (or firing) bumps the generation so stale heap entries are recognised and
//! skipped on pop. A live-event counter makes `is_idle` O(1), and the heap is
//! compacted in place once dead entries outnumber live ones, so cancel-heavy
//! workloads (a link cancelling its completion event in every event that
//! touches it) do not accumulate unbounded garbage.
//!
//! **End-of-event link flush.** The engine owns the fair-share links,
//! addressed by [`LinkId`](crate::LinkId). A link changed during an event
//! is put on a dirty list; after the event returns and before the next one is
//! dispatched, each dirty link plans its next completion once, under the
//! sequence number it reserved at its last change, so the completion keeps
//! the `(at, seq)` key an eager replan would have given it. Dirty links
//! count as pending for [`Simulation::is_idle`], and
//! [`Simulation::run_until`] flushes them before it checks a deadline or
//! returns.

use crate::bandwidth::Link;
use crate::bandwidth::LinkId;
use crate::time::{SimDuration, SimTime};
use crate::trace::{TraceEvent, Tracer};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// An event callback: runs at its scheduled instant with the world and the
/// engine, so it can update state and schedule follow-up events. `Send` so
/// simulations can migrate between worker threads while parked.
pub type EventFn<W> = Box<dyn FnOnce(&mut W, &mut Simulation<W>) + Send>;

struct Scheduled<W> {
    at: SimTime,
    seq: u64,
    slot: u32,
    gen: u32,
    run: EventFn<W>,
}

impl<W> PartialEq for Scheduled<W> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<W> Eq for Scheduled<W> {}
impl<W> PartialOrd for Scheduled<W> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<W> Ord for Scheduled<W> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Slab entry backing one event slot. The generation is bumped whenever the
/// slot's event fires or is cancelled, so previously issued handles and stale
/// heap entries stop matching.
#[derive(Clone, Copy)]
struct Slot {
    gen: u32,
}

/// Token identifying a scheduled event, usable to cancel it before it fires.
///
/// Internally packs (slot, generation); cancelling an already-fired or
/// already-cancelled event finds a bumped generation and is a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventHandle(u64);

impl EventHandle {
    fn new(slot: u32, gen: u32) -> Self {
        EventHandle(u64::from(slot) | (u64::from(gen) << 32))
    }
    fn slot(self) -> u32 {
        self.0 as u32
    }
    fn gen(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// A sequence number taken by [`Simulation::reserve_seq`] for one event
/// scheduled later with [`Simulation::schedule_reserved`]. Not `Clone`, so
/// a reservation orders at most one event.
#[derive(Debug)]
pub(crate) struct ReservedSeq(u64);

/// Dead-entry count below which compaction is never attempted; tiny queues
/// are cheap to scan and compacting them would thrash.
const COMPACT_MIN_DEAD: usize = 64;

/// A deterministic discrete-event simulator over a world `W`.
///
/// # Example
/// ```
/// use mashup_sim::{Simulation, SimDuration};
///
/// let mut sim = Simulation::new();
/// let mut hits = 0u32;
/// sim.schedule_in(SimDuration::from_secs(5.0), |hits: &mut u32, sim| {
///     *hits += 1;
///     assert_eq!(sim.now().as_secs(), 5.0);
/// });
/// sim.run(&mut hits);
/// assert_eq!(hits, 1);
/// ```
pub struct Simulation<W> {
    now: SimTime,
    next_seq: u64,
    queue: BinaryHeap<Reverse<Scheduled<W>>>,
    /// Same-instant fast path: events scheduled for exactly `now` land in
    /// this FIFO ring instead of the heap (O(1) instead of O(log n)), so a
    /// wide fan-out spawned within one instant doesn't pay per-event heap
    /// operations. Invariant: every ring entry has `at == now` (the ring
    /// drains before the clock can advance) and the ring is in `seq` order,
    /// so the dispatch loop merges it with the heap by `(at, seq)` without
    /// reordering anything. A reserved sequence number lower than the
    /// ring's last one goes to the heap instead.
    now_ring: VecDeque<Scheduled<W>>,
    /// The fair-share links, addressed by [`LinkId`].
    pub(crate) links: Vec<Link<W>>,
    /// Links changed during the current event, in order of first change;
    /// each plans its next completion once the event returns.
    pub(crate) dirty_links: Vec<LinkId>,
    slots: Vec<Slot>,
    free_slots: Vec<u32>,
    /// Events in the heap whose generation still matches their slot.
    live: usize,
    /// Stale heap entries (cancelled) awaiting skip-on-pop or compaction.
    dead: usize,
    events_processed: u64,
    /// Hard cap on processed events; guards against runaway event loops.
    event_limit: u64,
    /// Flight recorder; dispatch instants and link transfers are emitted at
    /// verbose level only.
    pub(crate) tracer: Tracer,
}

impl<W> Default for Simulation<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W> Simulation<W> {
    /// Creates an empty simulation at t = 0.
    pub fn new() -> Self {
        Simulation {
            now: SimTime::ZERO,
            next_seq: 0,
            queue: BinaryHeap::new(),
            now_ring: VecDeque::new(),
            links: Vec::new(),
            dirty_links: Vec::new(),
            slots: Vec::new(),
            free_slots: Vec::new(),
            live: 0,
            dead: 0,
            events_processed: 0,
            event_limit: u64::MAX,
            tracer: Tracer::off(),
        }
    }

    /// Attaches a flight recorder. Verbose tracers capture one `Dispatch`
    /// instant per processed event and the links' transfer lifecycles;
    /// flow-level tracers record nothing here (the domain layers carry
    /// their own handles).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The attached flight recorder (off by default).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Sets a hard cap on the number of events processed; `run` panics when
    /// exceeded. Useful for catching accidental event storms in tests.
    pub fn with_event_limit(mut self, limit: u64) -> Self {
        self.event_limit = limit;
        self
    }

    /// Current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Schedules `event` at absolute time `at`. Panics if `at` is in the past.
    pub fn schedule_at(
        &mut self,
        at: SimTime,
        event: impl FnOnce(&mut W, &mut Simulation<W>) + Send + 'static,
    ) -> EventHandle {
        self.push_event(at, Box::new(event))
    }

    fn push_event(&mut self, at: SimTime, run: EventFn<W>) -> EventHandle {
        let seq = self.reserve_seq();
        self.insert(at, seq, run)
    }

    /// Takes the next sequence number without scheduling anything. An event
    /// scheduled with it later by [`schedule_reserved`](Self::schedule_reserved)
    /// orders exactly as if it had been scheduled now: after every event
    /// scheduled before this call, before every event scheduled after it.
    pub(crate) fn reserve_seq(&mut self) -> ReservedSeq {
        let seq = self.next_seq;
        self.next_seq += 1;
        ReservedSeq(seq)
    }

    /// Schedules `event` at absolute time `at` under a sequence number taken
    /// earlier by [`reserve_seq`](Self::reserve_seq). Panics if `at` is in
    /// the past.
    pub(crate) fn schedule_reserved(
        &mut self,
        at: SimTime,
        seq: ReservedSeq,
        event: impl FnOnce(&mut W, &mut Simulation<W>) + Send + 'static,
    ) -> EventHandle {
        self.insert(at, seq, Box::new(event))
    }

    fn insert(
        &mut self,
        at: SimTime,
        ReservedSeq(seq): ReservedSeq,
        run: EventFn<W>,
    ) -> EventHandle {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at:?} < {:?}",
            self.now
        );
        let slot = match self.free_slots.pop() {
            Some(s) => s,
            None => {
                let s = u32::try_from(self.slots.len()).expect("event slot index overflow");
                self.slots.push(Slot { gen: 0 });
                s
            }
        };
        let gen = self.slots[slot as usize].gen;
        let scheduled = Scheduled {
            at,
            seq,
            slot,
            gen,
            run,
        };
        if at == self.now && self.now_ring.back().is_none_or(|last| last.seq < seq) {
            self.now_ring.push_back(scheduled);
        } else {
            self.queue.push(Reverse(scheduled));
        }
        self.live += 1;
        EventHandle::new(slot, gen)
    }

    /// Schedules a homogeneous batch of events at absolute time `at`, in
    /// iteration order. Equivalent to calling [`schedule_at`](Self::schedule_at)
    /// per event (consecutive sequence numbers, identical dispatch order)
    /// but amortizes slot bookkeeping, and same-instant batches bypass the
    /// heap entirely.
    pub fn schedule_batch_at(&mut self, at: SimTime, events: impl IntoIterator<Item = EventFn<W>>) {
        let events = events.into_iter();
        let (lower, _) = events.size_hint();
        if at == self.now {
            self.now_ring.reserve(lower);
        } else {
            self.queue.reserve(lower);
        }
        for event in events {
            self.push_event(at, event);
        }
    }

    /// Schedules a batch at the current instant, after all events already
    /// queued for this instant (see [`schedule_batch_at`](Self::schedule_batch_at)).
    pub fn schedule_batch_now(&mut self, events: impl IntoIterator<Item = EventFn<W>>) {
        self.schedule_batch_at(self.now, events);
    }

    /// Schedules `event` after `delay` from now.
    pub fn schedule_in(
        &mut self,
        delay: SimDuration,
        event: impl FnOnce(&mut W, &mut Simulation<W>) + Send + 'static,
    ) -> EventHandle {
        self.schedule_at(self.now + delay, event)
    }

    /// Schedules `event` to run at the current instant, after all events
    /// already queued for this instant.
    pub fn schedule_now(
        &mut self,
        event: impl FnOnce(&mut W, &mut Simulation<W>) + Send + 'static,
    ) -> EventHandle {
        self.schedule_at(self.now, event)
    }

    /// Cancels a scheduled event. Cancelling an already-fired or already-
    /// cancelled event is a no-op.
    pub fn cancel(&mut self, handle: EventHandle) {
        let slot = handle.slot() as usize;
        if slot >= self.slots.len() || self.slots[slot].gen != handle.gen() {
            return;
        }
        self.retire_slot(slot);
        self.live -= 1;
        self.dead += 1;
        self.maybe_compact();
    }

    /// Invalidates a slot's outstanding generation and returns it to the free
    /// list for reuse by a later `schedule_*`.
    fn retire_slot(&mut self, slot: usize) {
        self.slots[slot].gen = self.slots[slot].gen.wrapping_add(1);
        self.free_slots.push(slot as u32);
    }

    /// Rebuilds the queues without dead entries once they outnumber live
    /// ones. Ordering is untouched: the heap is rebuilt from the surviving
    /// `(at, seq)` pairs, which are totally ordered, and the ring keeps its
    /// FIFO (= seq) order.
    fn maybe_compact(&mut self) {
        if self.dead < COMPACT_MIN_DEAD || self.dead * 2 <= self.queue.len() + self.now_ring.len() {
            return;
        }
        let heap = std::mem::take(&mut self.queue);
        let mut entries = heap.into_vec();
        entries.retain(|Reverse(s)| self.slots[s.slot as usize].gen == s.gen);
        self.queue = BinaryHeap::from(entries);
        let mut ring = std::mem::take(&mut self.now_ring);
        ring.retain(|s| self.slots[s.slot as usize].gen == s.gen);
        self.now_ring = ring;
        self.dead = 0;
    }

    /// Runs `world` until the queue drains. Returns the final simulated time.
    pub fn run(&mut self, world: &mut W) -> SimTime {
        self.run_until(world, None)
    }

    /// Runs `world` until the queue drains or the clock passes `deadline`.
    /// Events scheduled exactly at the deadline still fire. Dirty links
    /// always flush, at the instant they changed, before the deadline is
    /// checked.
    pub fn run_until(&mut self, world: &mut W, deadline: Option<SimTime>) -> SimTime {
        loop {
            self.flush_links();
            // Merge the same-instant ring with the heap by (at, seq): both
            // are in (at, seq) order, so taking the smaller head each time
            // fires equal-time events in scheduling order whichever queue
            // holds them.
            let from_ring = match (self.now_ring.front(), self.queue.peek()) {
                (Some(r), Some(Reverse(h))) => (r.at, r.seq) < (h.at, h.seq),
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            let head = if from_ring {
                self.now_ring.pop_front().expect("ring head")
            } else {
                let Reverse(h) = self.queue.pop().expect("heap head");
                h
            };
            if self.slots[head.slot as usize].gen != head.gen {
                // Stale entry for a cancelled event: drop it.
                self.dead -= 1;
                continue;
            }
            if let Some(d) = deadline {
                if head.at > d {
                    // Put it back for a later resume and stop at the deadline.
                    if from_ring {
                        self.now_ring.push_front(head);
                    } else {
                        self.queue.push(Reverse(head));
                    }
                    self.now = d;
                    return self.now;
                }
            }
            debug_assert!(head.at >= self.now, "event queue went backwards");
            self.now = head.at;
            self.retire_slot(head.slot as usize);
            self.live -= 1;
            self.events_processed += 1;
            if self.events_processed > self.event_limit {
                panic!(
                    "simulation exceeded event limit of {} events",
                    self.event_limit
                );
            }
            let events = self.events_processed;
            self.tracer
                .emit_verbose(self.now, || TraceEvent::Dispatch { events });
            (head.run)(world, self);
        }
        if let Some(d) = deadline {
            self.now = self.now.max(d);
        }
        self.now
    }

    /// Plans the next completion of every link the last event changed, in
    /// order of first change.
    fn flush_links(&mut self) {
        if self.dirty_links.is_empty() {
            return;
        }
        let mut dirty = std::mem::take(&mut self.dirty_links);
        for link in dirty.drain(..) {
            self.flush_link(link);
        }
        self.dirty_links = dirty;
    }

    /// True if no events and no dirty links remain. O(1): tracked by a
    /// live-event counter rather than scanning the heap for non-cancelled
    /// entries.
    pub fn is_idle(&self) -> bool {
        self.live == 0 && self.dirty_links.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Log = Vec<u32>;

    fn record(id: u32) -> impl FnOnce(&mut Log, &mut Simulation<Log>) + Send + 'static {
        move |log, _| log.push(id)
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Simulation::new();
        let mut log = Vec::new();
        sim.schedule_at(SimTime::from_secs(3.0), record(3));
        sim.schedule_at(SimTime::from_secs(1.0), record(1));
        sim.schedule_at(SimTime::from_secs(2.0), record(2));
        let end = sim.run(&mut log);
        assert_eq!(log, vec![1, 2, 3]);
        assert_eq!(end.as_secs(), 3.0);
    }

    #[test]
    fn simultaneous_events_fire_in_schedule_order() {
        let mut sim = Simulation::new();
        let mut log = Vec::new();
        for id in 0..10 {
            sim.schedule_at(SimTime::from_secs(1.0), record(id));
        }
        sim.run(&mut log);
        assert_eq!(log, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_followups() {
        let mut sim = Simulation::new();
        let mut log = Vec::new();
        sim.schedule_at(SimTime::from_secs(1.0), |log: &mut Log, sim| {
            log.push(sim.now().as_secs() as u32);
            sim.schedule_in(SimDuration::from_secs(4.0), |log: &mut Log, sim| {
                log.push(sim.now().as_secs() as u32);
            });
        });
        let end = sim.run(&mut log);
        assert_eq!(log, vec![1, 5]);
        assert_eq!(end.as_secs(), 5.0);
    }

    #[test]
    fn cancel_prevents_execution() {
        let mut sim = Simulation::new();
        let mut log = Vec::new();
        let h = sim.schedule_at(SimTime::from_secs(1.0), record(1));
        sim.schedule_at(SimTime::from_secs(2.0), record(2));
        sim.cancel(h);
        sim.run(&mut log);
        assert_eq!(log, vec![2]);
    }

    #[test]
    fn run_until_deadline_pauses_and_resumes() {
        let mut sim = Simulation::new();
        let mut log = Vec::new();
        sim.schedule_at(SimTime::from_secs(1.0), record(1));
        sim.schedule_at(SimTime::from_secs(10.0), record(10));
        let t = sim.run_until(&mut log, Some(SimTime::from_secs(5.0)));
        assert_eq!(t.as_secs(), 5.0);
        assert_eq!(log, vec![1]);
        assert!(!sim.is_idle());
        sim.run(&mut log);
        assert_eq!(log, vec![1, 10]);
    }

    #[test]
    fn deadline_advances_clock_even_when_idle() {
        let mut sim = Simulation::<()>::new();
        let t = sim.run_until(&mut (), Some(SimTime::from_secs(7.0)));
        assert_eq!(t.as_secs(), 7.0);
        assert_eq!(sim.now().as_secs(), 7.0);
    }

    #[test]
    fn schedule_now_runs_after_current_instant_events() {
        let mut sim = Simulation::new();
        let mut log = Vec::new();
        sim.schedule_at(SimTime::from_secs(1.0), |log: &mut Log, sim| {
            log.push(100);
            sim.schedule_now(record(101));
        });
        sim.schedule_at(SimTime::from_secs(1.0), record(200));
        sim.run(&mut log);
        // The follow-up runs at the same instant, but after event 200 which
        // was scheduled earlier.
        assert_eq!(log, vec![100, 200, 101]);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_in_the_past_panics() {
        let mut sim = Simulation::<()>::new();
        sim.schedule_at(SimTime::from_secs(5.0), |_, sim| {
            sim.schedule_at(SimTime::from_secs(1.0), |_, _| {});
        });
        sim.run(&mut ());
    }

    #[test]
    #[should_panic(expected = "event limit")]
    fn event_limit_detects_runaway_loops() {
        let mut sim = Simulation::new().with_event_limit(100);
        fn rearm(_: &mut (), sim: &mut Simulation<()>) {
            sim.schedule_in(SimDuration::from_secs(1.0), rearm);
        }
        sim.schedule_now(rearm);
        sim.run(&mut ());
    }

    #[test]
    fn events_processed_counts_fired_events_only() {
        let mut sim = Simulation::<()>::new();
        let h = sim.schedule_at(SimTime::from_secs(1.0), |_, _| {});
        sim.schedule_at(SimTime::from_secs(2.0), |_, _| {});
        sim.cancel(h);
        sim.run(&mut ());
        assert_eq!(sim.events_processed(), 1);
    }

    #[test]
    fn cancel_of_fired_event_is_noop_even_after_slot_reuse() {
        let mut sim = Simulation::new();
        let mut log = Vec::new();
        let h1 = sim.schedule_at(SimTime::from_secs(1.0), record(1));
        sim.run(&mut log);
        // h1's slot is free now; the next schedule reuses it with a bumped
        // generation. Cancelling the stale h1 must not kill the new event.
        sim.schedule_at(SimTime::from_secs(2.0), record(2));
        sim.cancel(h1);
        sim.run(&mut log);
        assert_eq!(log, vec![1, 2]);
    }

    #[test]
    fn double_cancel_is_noop_even_after_slot_reuse() {
        let mut sim = Simulation::new();
        let mut log = Vec::new();
        let h1 = sim.schedule_at(SimTime::from_secs(1.0), record(1));
        sim.cancel(h1);
        sim.schedule_at(SimTime::from_secs(2.0), record(2));
        sim.cancel(h1);
        sim.run(&mut log);
        assert_eq!(log, vec![2]);
    }

    #[test]
    fn is_idle_is_exact_under_cancel_churn() {
        let mut sim = Simulation::<()>::new();
        assert!(sim.is_idle());
        let mut handle = None;
        for _ in 0..10_000 {
            if let Some(h) = handle.take() {
                sim.cancel(h);
            }
            handle = Some(sim.schedule_in(SimDuration::from_secs(1.0), |_, _| {}));
            assert!(!sim.is_idle());
        }
        sim.run(&mut ());
        assert!(sim.is_idle());
        assert_eq!(sim.events_processed(), 1);
    }

    #[test]
    fn batch_scheduling_matches_individual_scheduling_order() {
        let mut sim = Simulation::new();
        let mut log = Vec::new();
        sim.schedule_at(SimTime::from_secs(1.0), record(0));
        let batch: Vec<EventFn<Log>> = (1..=5)
            .map(|i| Box::new(record(i)) as EventFn<Log>)
            .collect();
        sim.schedule_batch_at(SimTime::from_secs(1.0), batch);
        sim.schedule_at(SimTime::from_secs(1.0), record(6));
        sim.run(&mut log);
        assert_eq!(log, (0..=6).collect::<Vec<_>>());
    }

    #[test]
    fn same_instant_batch_interleaves_with_heap_events_by_seq() {
        let mut sim = Simulation::new();
        let mut log = Vec::new();
        // At t=1 the first event batch-schedules followups at the current
        // instant (ring path); an equal-time heap event scheduled earlier
        // must still fire before the batch.
        sim.schedule_at(SimTime::from_secs(1.0), |log: &mut Log, sim| {
            log.push(100);
            let batch: Vec<EventFn<Log>> = (0..3)
                .map(|i| Box::new(record(300 + i)) as EventFn<Log>)
                .collect();
            sim.schedule_batch_now(batch);
        });
        sim.schedule_at(SimTime::from_secs(1.0), record(200));
        sim.schedule_at(SimTime::from_secs(2.0), record(400));
        sim.run(&mut log);
        assert_eq!(log, vec![100, 200, 300, 301, 302, 400]);
    }

    #[test]
    fn same_instant_events_are_cancellable() {
        let mut sim = Simulation::new();
        let mut log = Vec::new();
        sim.schedule_at(SimTime::from_secs(1.0), |_: &mut Log, sim| {
            let h = sim.schedule_now(record(1));
            sim.schedule_now(record(2));
            sim.cancel(h);
        });
        sim.run(&mut log);
        assert_eq!(log, vec![2]);
        assert!(sim.is_idle());
        assert_eq!(sim.events_processed(), 2);
    }

    #[test]
    fn compaction_retains_live_ring_entries() {
        let mut sim = Simulation::new();
        let mut log = Vec::new();
        // Inside one instant: a live ring event, then enough cancelled ones
        // to trip compaction; the survivor must still fire.
        sim.schedule_at(SimTime::from_secs(1.0), |_: &mut Log, sim| {
            sim.schedule_now(record(7));
            let doomed: Vec<_> = (0..200).map(|_| sim.schedule_now(|_, _| {})).collect();
            for h in doomed {
                sim.cancel(h);
            }
        });
        sim.run(&mut log);
        assert_eq!(log, vec![7]);
    }

    #[test]
    fn batch_deadline_pause_preserves_pending_events() {
        let mut sim = Simulation::new();
        let mut log = Vec::new();
        let batch: Vec<EventFn<Log>> = vec![Box::new(record(1)), Box::new(record(2))];
        sim.schedule_batch_at(SimTime::from_secs(10.0), batch);
        let t = sim.run_until(&mut log, Some(SimTime::from_secs(5.0)));
        assert_eq!(t.as_secs(), 5.0);
        assert!(log.is_empty());
        assert!(!sim.is_idle());
        sim.run(&mut log);
        assert_eq!(log, vec![1, 2]);
    }

    #[test]
    fn compaction_keeps_live_events_and_ordering() {
        let mut sim = Simulation::new();
        let mut log = Vec::new();
        // Interleave survivors with a tombstone flood large enough to trip
        // compaction several times over.
        let mut doomed = Vec::new();
        for i in 0..500u32 {
            sim.schedule_at(SimTime::from_secs(f64::from(i) + 0.5), record(i));
            doomed
                .push(sim.schedule_at(SimTime::from_secs(f64::from(i) + 0.7), record(10_000 + i)));
        }
        for h in doomed {
            sim.cancel(h);
        }
        sim.run(&mut log);
        assert_eq!(log, (0..500).collect::<Vec<_>>());
        assert_eq!(sim.events_processed(), 500);
    }

    #[test]
    fn reserved_events_order_by_seq_against_ring_and_heap_events() {
        let mut sim = Simulation::new();
        let mut log = Vec::new();
        // Heap event at t=1 with the lowest sequence number.
        sim.schedule_at(SimTime::from_secs(1.0), record(1));
        sim.schedule_at(SimTime::ZERO, |_: &mut Log, sim| {
            let at_one = sim.reserve_seq();
            sim.schedule_at(SimTime::from_secs(1.0), record(3));
            sim.schedule_now(record(10));
            let at_zero = sim.reserve_seq();
            sim.schedule_now(record(12));
            // Scheduled last, but ordered where they were reserved: 11
            // between the two ring events at t=0, 2 between the two heap
            // events at t=1.
            sim.schedule_reserved(sim.now(), at_zero, record(11));
            sim.schedule_reserved(SimTime::from_secs(1.0), at_one, record(2));
            sim.schedule_at(SimTime::from_secs(1.0), |log: &mut Log, sim| {
                log.push(4);
                // A ring event at t=1 fires after every reserved one.
                sim.schedule_now(record(5));
            });
        });
        sim.run(&mut log);
        assert_eq!(log, vec![10, 11, 12, 1, 2, 3, 4, 5]);
        assert!(sim.is_idle());
    }

    #[test]
    fn dirty_links_flush_between_events_and_count_as_pending() {
        let mut sim = Simulation::new();
        let mut log = Vec::new();
        let link = sim.add_link("l", 100.0);
        // Scheduled before the transfer starts, at its completion instant.
        sim.schedule_at(SimTime::from_secs(2.0), record(4));
        sim.schedule_at(SimTime::from_secs(1.0), move |log: &mut Log, sim| {
            log.push(1);
            sim.start_transfer(link, 100.0, None, record(2));
            assert!(!sim.is_idle());
        });
        sim.schedule_at(SimTime::from_secs(1.0), record(3));
        sim.run(&mut log);
        // The completion keeps the sequence number of the change that
        // planned it, so it fires after the earlier-scheduled event 4.
        assert_eq!(log, vec![1, 3, 4, 2]);
        assert_eq!(sim.events_processed(), 4);

        // With no event queued, the dirty link alone keeps it busy.
        sim.start_transfer(link, 100.0, None, record(5));
        assert!(!sim.is_idle());
        sim.run(&mut log);
        assert!(sim.is_idle());
        assert_eq!(log, vec![1, 3, 4, 2, 5]);
        assert_eq!(sim.now().as_secs(), 3.0);
    }

    #[test]
    fn run_until_never_strands_a_dirty_link() {
        let mut sim = Simulation::new();
        let mut log = Vec::new();
        let link = sim.add_link("l", 100.0);
        // The last event before the deadline starts a transfer that ends
        // past it; the link flushes at t=1 and its completion waits.
        sim.schedule_at(SimTime::from_secs(1.0), move |_: &mut Log, sim| {
            sim.start_transfer(link, 100.0, None, record(20));
        });
        let t = sim.run_until(&mut log, Some(SimTime::from_secs(1.5)));
        assert_eq!(t.as_secs(), 1.5);
        assert!(log.is_empty());
        assert!(!sim.is_idle());

        // Changed outside the loop with the deadline already reached: the
        // link still flushes, and the pending completion still waits.
        sim.start_transfer(link, 50.0, None, record(2));
        let t = sim.run_until(&mut log, Some(SimTime::from_secs(1.5)));
        assert_eq!(t.as_secs(), 1.5);
        assert!(sim.dirty_links.is_empty());

        sim.run(&mut log);
        assert_eq!(log, vec![20, 2]);
        assert!(sim.is_idle());
    }
}
