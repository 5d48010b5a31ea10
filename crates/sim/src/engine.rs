//! The discrete-event simulation core.
//!
//! Events are boxed `FnOnce(&mut Simulation) + Send` closures ordered by
//! `(time, sequence-number)`. The sequence number makes simultaneous events
//! fire in scheduling order, so a run is fully deterministic for a given
//! seed and program order. World state lives outside the engine (typically
//! behind [`Shared`](crate::Shared) handles captured by the event
//! closures), which keeps the engine free of domain knowledge. Closures
//! are `Send` so an entire simulation — queue, world handles, and all —
//! can be built on one thread and executed on another; each run still
//! executes single-threaded, which is where its determinism comes from.
//!
//! Cancellation uses a slot/generation slab rather than a tombstone set: a
//! handle names a slot plus the generation it was issued for, and cancelling
//! (or firing) bumps the generation so stale heap entries are recognised and
//! skipped on pop. A live-event counter makes `is_idle` O(1), and the heap is
//! compacted in place once dead entries outnumber live ones, so cancel-heavy
//! workloads (a link cancelling its completion event in every event that
//! touches it) do not accumulate unbounded garbage.
//!
//! **Deferred work.** [`Simulation::defer`] queues a [`Deferred`] handle
//! whose work runs after the current event returns and before the next one
//! is dispatched; the clock does not move in between. Paired with [`Simulation::reserve_seq`]
//! and [`Simulation::schedule_reserved`], this lets a component coalesce
//! many state changes inside one event into one reschedule, while the event
//! it schedules keeps the `(at, seq)` key it would have had if scheduled
//! eagerly at the last change: the sequence number is taken at that change,
//! so every event scheduled after it still orders after it. Deferred work
//! counts as pending for [`Simulation::is_idle`], and
//! [`Simulation::run_until`] runs it before it checks a deadline or returns.

use crate::time::{SimDuration, SimTime};
use crate::trace::{TraceEvent, Tracer};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

/// An event callback: runs at its scheduled instant with access to the engine
/// so it can schedule follow-up events. `Send` so simulations can migrate
/// between worker threads while parked.
pub type EventFn = Box<dyn FnOnce(&mut Simulation) + Send>;

struct Scheduled {
    at: SimTime,
    seq: u64,
    slot: u32,
    gen: u32,
    run: EventFn,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
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

/// Work the engine runs after the current event returns and before the
/// next one is dispatched (see [`Simulation::defer`]). Taken as a shared
/// handle, so a component already behind an `Arc` registers itself without
/// allocating.
pub trait Deferred: Send + Sync {
    /// Runs the work, at the instant it was deferred.
    fn run(self: Arc<Self>, sim: &mut Simulation);
}

/// A sequence number taken by [`Simulation::reserve_seq`] for one event
/// scheduled later with [`Simulation::schedule_reserved`]. Not `Clone`, so
/// a reservation orders at most one event.
#[derive(Debug)]
pub struct ReservedSeq(u64);

/// Dead-entry count below which compaction is never attempted; tiny queues
/// are cheap to scan and compacting them would thrash.
const COMPACT_MIN_DEAD: usize = 64;

/// A deterministic discrete-event simulator.
///
/// # Example
/// ```
/// use mashup_sim::{shared, Simulation, SimDuration};
///
/// let mut sim = Simulation::new();
/// let hits = shared(0);
/// let h = hits.clone();
/// sim.schedule_in(SimDuration::from_secs(5.0), move |sim| {
///     *h.borrow_mut() += 1;
///     assert_eq!(sim.now().as_secs(), 5.0);
/// });
/// sim.run();
/// assert_eq!(*hits.borrow(), 1);
/// ```
pub struct Simulation {
    now: SimTime,
    next_seq: u64,
    queue: BinaryHeap<Reverse<Scheduled>>,
    /// Same-instant fast path: events scheduled for exactly `now` land in
    /// this FIFO ring instead of the heap (O(1) instead of O(log n)), so a
    /// wide fan-out spawned within one instant doesn't pay per-event heap
    /// operations. Invariant: every ring entry has `at == now` (the ring
    /// drains before the clock can advance) and the ring is in `seq` order,
    /// so the dispatch loop merges it with the heap by `(at, seq)` without
    /// reordering anything. A reserved sequence number lower than the
    /// ring's last one goes to the heap instead.
    now_ring: VecDeque<Scheduled>,
    /// Work queued by [`defer`](Self::defer) for the end of the current
    /// event, in registration order.
    deferred: VecDeque<Arc<dyn Deferred>>,
    slots: Vec<Slot>,
    free_slots: Vec<u32>,
    /// Events in the heap whose generation still matches their slot.
    live: usize,
    /// Stale heap entries (cancelled) awaiting skip-on-pop or compaction.
    dead: usize,
    events_processed: u64,
    /// Hard cap on processed events; guards against runaway event loops.
    event_limit: u64,
    /// Flight recorder; dispatch instants are emitted at verbose level only.
    tracer: Tracer,
}

impl Default for Simulation {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulation {
    /// Creates an empty simulation at t = 0.
    pub fn new() -> Self {
        Simulation {
            now: SimTime::ZERO,
            next_seq: 0,
            queue: BinaryHeap::new(),
            now_ring: VecDeque::new(),
            deferred: VecDeque::new(),
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
    /// instant per processed event; flow-level tracers record nothing here
    /// (the domain layers carry their own handles).
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
        event: impl FnOnce(&mut Simulation) + Send + 'static,
    ) -> EventHandle {
        self.push_event(at, Box::new(event))
    }

    fn push_event(&mut self, at: SimTime, run: EventFn) -> EventHandle {
        let seq = self.reserve_seq();
        self.insert(at, seq, run)
    }

    /// Takes the next sequence number without scheduling anything. An event
    /// scheduled with it later by [`schedule_reserved`](Self::schedule_reserved)
    /// orders exactly as if it had been scheduled now: after every event
    /// scheduled before this call, before every event scheduled after it.
    pub fn reserve_seq(&mut self) -> ReservedSeq {
        let seq = self.next_seq;
        self.next_seq += 1;
        ReservedSeq(seq)
    }

    /// Schedules `event` at absolute time `at` under a sequence number taken
    /// earlier by [`reserve_seq`](Self::reserve_seq). Panics if `at` is in
    /// the past.
    pub fn schedule_reserved(
        &mut self,
        at: SimTime,
        seq: ReservedSeq,
        event: impl FnOnce(&mut Simulation) + Send + 'static,
    ) -> EventHandle {
        self.insert(at, seq, Box::new(event))
    }

    fn insert(&mut self, at: SimTime, ReservedSeq(seq): ReservedSeq, run: EventFn) -> EventHandle {
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
    pub fn schedule_batch_at(&mut self, at: SimTime, events: impl IntoIterator<Item = EventFn>) {
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

    /// Schedules a batch after `delay` from now (see
    /// [`schedule_batch_at`](Self::schedule_batch_at)).
    pub fn schedule_batch_in(
        &mut self,
        delay: SimDuration,
        events: impl IntoIterator<Item = EventFn>,
    ) {
        self.schedule_batch_at(self.now + delay, events);
    }

    /// Schedules a batch at the current instant, after all events already
    /// queued for this instant (see [`schedule_batch_at`](Self::schedule_batch_at)).
    pub fn schedule_batch_now(&mut self, events: impl IntoIterator<Item = EventFn>) {
        self.schedule_batch_at(self.now, events);
    }

    /// Schedules `event` after `delay` from now.
    pub fn schedule_in(
        &mut self,
        delay: SimDuration,
        event: impl FnOnce(&mut Simulation) + Send + 'static,
    ) -> EventHandle {
        self.schedule_at(self.now + delay, event)
    }

    /// Schedules `event` to run at the current instant, after all events
    /// already queued for this instant.
    pub fn schedule_now(
        &mut self,
        event: impl FnOnce(&mut Simulation) + Send + 'static,
    ) -> EventHandle {
        self.schedule_at(self.now, event)
    }

    /// Queues `work` to run after the current event returns and before the
    /// next event is dispatched, at the same instant; called outside the
    /// event loop, it runs first thing in the next
    /// [`run_until`](Self::run_until). Deferred work is not an event: it has
    /// no sequence number, is not counted by
    /// [`events_processed`](Self::events_processed), and cannot be
    /// cancelled. Work runs in the order it was deferred.
    pub fn defer(&mut self, work: Arc<dyn Deferred>) {
        self.deferred.push_back(work);
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

    /// Runs until the queue drains. Returns the final simulated time.
    pub fn run(&mut self) -> SimTime {
        self.run_until(None)
    }

    /// Runs until the queue drains or the clock passes `deadline`.
    /// Events scheduled exactly at the deadline still fire. Deferred work
    /// always runs, at the instant it was deferred, before the deadline is
    /// checked.
    pub fn run_until(&mut self, deadline: Option<SimTime>) -> SimTime {
        loop {
            while let Some(work) = self.deferred.pop_front() {
                work.run(self);
            }
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
            (head.run)(self);
        }
        if let Some(d) = deadline {
            self.now = self.now.max(d);
        }
        self.now
    }

    /// True if no events and no deferred work remain. O(1): tracked by a
    /// live-event counter rather than scanning the heap for non-cancelled
    /// entries.
    pub fn is_idle(&self) -> bool {
        self.live == 0 && self.deferred.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared::{shared, AtomicRefCell, Shared};

    fn record(log: &Shared<Vec<u32>>, id: u32) -> impl FnOnce(&mut Simulation) + Send + 'static {
        let log = log.clone();
        move |_| log.borrow_mut().push(id)
    }

    /// Deferred work that runs a closure.
    struct Once(AtomicRefCell<Option<EventFn>>);

    impl Deferred for Once {
        fn run(self: Arc<Self>, sim: &mut Simulation) {
            let work = self.0.borrow_mut().take().expect("deferred once");
            work(sim);
        }
    }

    fn once(work: impl FnOnce(&mut Simulation) + Send + 'static) -> Arc<dyn Deferred> {
        Arc::new(Once(AtomicRefCell::new(Some(Box::new(work)))))
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Simulation::new();
        let log = shared(Vec::new());
        sim.schedule_at(SimTime::from_secs(3.0), record(&log, 3));
        sim.schedule_at(SimTime::from_secs(1.0), record(&log, 1));
        sim.schedule_at(SimTime::from_secs(2.0), record(&log, 2));
        let end = sim.run();
        assert_eq!(*log.borrow(), vec![1, 2, 3]);
        assert_eq!(end.as_secs(), 3.0);
    }

    #[test]
    fn simultaneous_events_fire_in_schedule_order() {
        let mut sim = Simulation::new();
        let log = shared(Vec::new());
        for id in 0..10 {
            sim.schedule_at(SimTime::from_secs(1.0), record(&log, id));
        }
        sim.run();
        assert_eq!(*log.borrow(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_followups() {
        let mut sim = Simulation::new();
        let log = shared(Vec::new());
        let log2 = log.clone();
        sim.schedule_at(SimTime::from_secs(1.0), move |sim| {
            log2.borrow_mut().push(sim.now().as_secs() as u32);
            let log3 = log2.clone();
            sim.schedule_in(SimDuration::from_secs(4.0), move |sim| {
                log3.borrow_mut().push(sim.now().as_secs() as u32);
            });
        });
        let end = sim.run();
        assert_eq!(*log.borrow(), vec![1, 5]);
        assert_eq!(end.as_secs(), 5.0);
    }

    #[test]
    fn cancel_prevents_execution() {
        let mut sim = Simulation::new();
        let log = shared(Vec::new());
        let h = sim.schedule_at(SimTime::from_secs(1.0), record(&log, 1));
        sim.schedule_at(SimTime::from_secs(2.0), record(&log, 2));
        sim.cancel(h);
        sim.run();
        assert_eq!(*log.borrow(), vec![2]);
    }

    #[test]
    fn run_until_deadline_pauses_and_resumes() {
        let mut sim = Simulation::new();
        let log = shared(Vec::new());
        sim.schedule_at(SimTime::from_secs(1.0), record(&log, 1));
        sim.schedule_at(SimTime::from_secs(10.0), record(&log, 10));
        let t = sim.run_until(Some(SimTime::from_secs(5.0)));
        assert_eq!(t.as_secs(), 5.0);
        assert_eq!(*log.borrow(), vec![1]);
        assert!(!sim.is_idle());
        sim.run();
        assert_eq!(*log.borrow(), vec![1, 10]);
    }

    #[test]
    fn deadline_advances_clock_even_when_idle() {
        let mut sim = Simulation::new();
        let t = sim.run_until(Some(SimTime::from_secs(7.0)));
        assert_eq!(t.as_secs(), 7.0);
        assert_eq!(sim.now().as_secs(), 7.0);
    }

    #[test]
    fn schedule_now_runs_after_current_instant_events() {
        let mut sim = Simulation::new();
        let log = shared(Vec::new());
        let log2 = log.clone();
        sim.schedule_at(SimTime::from_secs(1.0), move |sim| {
            log2.borrow_mut().push(100);
            let log3 = log2.clone();
            sim.schedule_now(move |_| log3.borrow_mut().push(101));
        });
        sim.schedule_at(SimTime::from_secs(1.0), record(&log, 200));
        sim.run();
        // The follow-up runs at the same instant, but after event 200 which
        // was scheduled earlier.
        assert_eq!(*log.borrow(), vec![100, 200, 101]);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_in_the_past_panics() {
        let mut sim = Simulation::new();
        sim.schedule_at(SimTime::from_secs(5.0), |sim| {
            sim.schedule_at(SimTime::from_secs(1.0), |_| {});
        });
        sim.run();
    }

    #[test]
    #[should_panic(expected = "event limit")]
    fn event_limit_detects_runaway_loops() {
        let mut sim = Simulation::new().with_event_limit(100);
        fn rearm(sim: &mut Simulation) {
            sim.schedule_in(SimDuration::from_secs(1.0), rearm);
        }
        sim.schedule_now(rearm);
        sim.run();
    }

    #[test]
    fn events_processed_counts_fired_events_only() {
        let mut sim = Simulation::new();
        let h = sim.schedule_at(SimTime::from_secs(1.0), |_| {});
        sim.schedule_at(SimTime::from_secs(2.0), |_| {});
        sim.cancel(h);
        sim.run();
        assert_eq!(sim.events_processed(), 1);
    }

    #[test]
    fn cancel_of_fired_event_is_noop_even_after_slot_reuse() {
        let mut sim = Simulation::new();
        let log = shared(Vec::new());
        let h1 = sim.schedule_at(SimTime::from_secs(1.0), record(&log, 1));
        sim.run();
        // h1's slot is free now; the next schedule reuses it with a bumped
        // generation. Cancelling the stale h1 must not kill the new event.
        sim.schedule_at(SimTime::from_secs(2.0), record(&log, 2));
        sim.cancel(h1);
        sim.run();
        assert_eq!(*log.borrow(), vec![1, 2]);
    }

    #[test]
    fn double_cancel_is_noop_even_after_slot_reuse() {
        let mut sim = Simulation::new();
        let log = shared(Vec::new());
        let h1 = sim.schedule_at(SimTime::from_secs(1.0), record(&log, 1));
        sim.cancel(h1);
        sim.schedule_at(SimTime::from_secs(2.0), record(&log, 2));
        sim.cancel(h1);
        sim.run();
        assert_eq!(*log.borrow(), vec![2]);
    }

    #[test]
    fn is_idle_is_exact_under_cancel_churn() {
        let mut sim = Simulation::new();
        assert!(sim.is_idle());
        let mut handle = None;
        for _ in 0..10_000 {
            if let Some(h) = handle.take() {
                sim.cancel(h);
            }
            handle = Some(sim.schedule_in(SimDuration::from_secs(1.0), |_| {}));
            assert!(!sim.is_idle());
        }
        sim.run();
        assert!(sim.is_idle());
        assert_eq!(sim.events_processed(), 1);
    }

    #[test]
    fn batch_scheduling_matches_individual_scheduling_order() {
        let mut sim = Simulation::new();
        let log = shared(Vec::new());
        sim.schedule_at(SimTime::from_secs(1.0), record(&log, 0));
        let batch: Vec<EventFn> = (1..=5)
            .map(|i| Box::new(record(&log, i)) as EventFn)
            .collect();
        sim.schedule_batch_at(SimTime::from_secs(1.0), batch);
        sim.schedule_at(SimTime::from_secs(1.0), record(&log, 6));
        sim.run();
        assert_eq!(*log.borrow(), (0..=6).collect::<Vec<_>>());
    }

    #[test]
    fn same_instant_batch_interleaves_with_heap_events_by_seq() {
        let mut sim = Simulation::new();
        let log = shared(Vec::new());
        let log2 = log.clone();
        // At t=1 the first event batch-schedules followups at the current
        // instant (ring path); an equal-time heap event scheduled earlier
        // must still fire before the batch.
        sim.schedule_at(SimTime::from_secs(1.0), move |sim| {
            log2.borrow_mut().push(100);
            let batch: Vec<EventFn> = (0..3)
                .map(|i| Box::new(record(&log2, 300 + i)) as EventFn)
                .collect();
            sim.schedule_batch_now(batch);
        });
        sim.schedule_at(SimTime::from_secs(1.0), record(&log, 200));
        sim.schedule_at(SimTime::from_secs(2.0), record(&log, 400));
        sim.run();
        assert_eq!(*log.borrow(), vec![100, 200, 300, 301, 302, 400]);
    }

    #[test]
    fn same_instant_events_are_cancellable() {
        let mut sim = Simulation::new();
        let log = shared(Vec::new());
        let log2 = log.clone();
        sim.schedule_at(SimTime::from_secs(1.0), move |sim| {
            let h = sim.schedule_now(record(&log2, 1));
            sim.schedule_now(record(&log2, 2));
            sim.cancel(h);
        });
        sim.run();
        assert_eq!(*log.borrow(), vec![2]);
        assert!(sim.is_idle());
        assert_eq!(sim.events_processed(), 2);
    }

    #[test]
    fn compaction_retains_live_ring_entries() {
        let mut sim = Simulation::new();
        let log = shared(Vec::new());
        let log2 = log.clone();
        // Inside one instant: a live ring event, then enough cancelled ones
        // to trip compaction; the survivor must still fire.
        sim.schedule_at(SimTime::from_secs(1.0), move |sim| {
            sim.schedule_now(record(&log2, 7));
            let doomed: Vec<_> = (0..200).map(|_| sim.schedule_now(|_| {})).collect();
            for h in doomed {
                sim.cancel(h);
            }
        });
        sim.run();
        assert_eq!(*log.borrow(), vec![7]);
    }

    #[test]
    fn batch_deadline_pause_preserves_pending_events() {
        let mut sim = Simulation::new();
        let log = shared(Vec::new());
        let batch: Vec<EventFn> = vec![Box::new(record(&log, 1)), Box::new(record(&log, 2))];
        sim.schedule_batch_at(SimTime::from_secs(10.0), batch);
        let t = sim.run_until(Some(SimTime::from_secs(5.0)));
        assert_eq!(t.as_secs(), 5.0);
        assert!(log.borrow().is_empty());
        assert!(!sim.is_idle());
        sim.run();
        assert_eq!(*log.borrow(), vec![1, 2]);
    }

    #[test]
    fn compaction_keeps_live_events_and_ordering() {
        let mut sim = Simulation::new();
        let log = shared(Vec::new());
        // Interleave survivors with a tombstone flood large enough to trip
        // compaction several times over.
        let mut doomed = Vec::new();
        for i in 0..500u32 {
            sim.schedule_at(SimTime::from_secs(f64::from(i) + 0.5), record(&log, i));
            doomed.push(sim.schedule_at(
                SimTime::from_secs(f64::from(i) + 0.7),
                record(&log, 10_000 + i),
            ));
        }
        for h in doomed {
            sim.cancel(h);
        }
        sim.run();
        assert_eq!(*log.borrow(), (0..500).collect::<Vec<_>>());
        assert_eq!(sim.events_processed(), 500);
    }

    #[test]
    fn reserved_events_order_by_seq_against_ring_and_heap_events() {
        let mut sim = Simulation::new();
        let log = shared(Vec::new());
        let log2 = log.clone();
        // Heap event at t=1 with the lowest sequence number.
        sim.schedule_at(SimTime::from_secs(1.0), record(&log, 1));
        sim.schedule_at(SimTime::ZERO, move |sim| {
            let at_one = sim.reserve_seq();
            sim.schedule_at(SimTime::from_secs(1.0), record(&log2, 3));
            sim.schedule_now(record(&log2, 10));
            let at_zero = sim.reserve_seq();
            sim.schedule_now(record(&log2, 12));
            // Scheduled last, but ordered where they were reserved: 11
            // between the two ring events at t=0, 2 between the two heap
            // events at t=1.
            sim.schedule_reserved(sim.now(), at_zero, record(&log2, 11));
            sim.schedule_reserved(SimTime::from_secs(1.0), at_one, record(&log2, 2));
            let log3 = log2.clone();
            sim.schedule_at(SimTime::from_secs(1.0), move |sim| {
                log3.borrow_mut().push(4);
                // A ring event at t=1 fires after every reserved one.
                sim.schedule_now(record(&log3, 5));
            });
        });
        sim.run();
        assert_eq!(*log.borrow(), vec![10, 11, 12, 1, 2, 3, 4, 5]);
        assert!(sim.is_idle());
    }

    #[test]
    fn deferred_work_runs_between_events_and_counts_as_pending() {
        let mut sim = Simulation::new();
        let log = shared(Vec::new());
        let log2 = log.clone();
        sim.schedule_at(SimTime::from_secs(1.0), move |sim| {
            log2.borrow_mut().push(1);
            let log3 = log2.clone();
            sim.defer(once(move |sim| {
                assert_eq!(sim.now().as_secs(), 1.0);
                log3.borrow_mut().push(2);
            }));
        });
        sim.schedule_at(SimTime::from_secs(1.0), record(&log, 3));
        sim.run();
        assert_eq!(*log.borrow(), vec![1, 2, 3]);
        assert_eq!(sim.events_processed(), 2);

        // With no event queued, the deferred work alone keeps it busy.
        sim.defer(once(record(&log, 4)));
        assert!(!sim.is_idle());
        sim.run();
        assert!(sim.is_idle());
        assert_eq!(*log.borrow(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn run_until_never_strands_deferred_work() {
        let mut sim = Simulation::new();
        let log = shared(Vec::new());
        let log2 = log.clone();
        // Work deferred by the last event before the deadline schedules an
        // event past it; the work runs at t=1, its event waits.
        sim.schedule_at(SimTime::from_secs(1.0), move |sim| {
            let log3 = log2.clone();
            sim.defer(once(move |sim| {
                log3.borrow_mut().push(1);
                sim.schedule_in(SimDuration::from_secs(1.0), record(&log3, 20));
            }));
        });
        let t = sim.run_until(Some(SimTime::from_secs(1.5)));
        assert_eq!(t.as_secs(), 1.5);
        assert_eq!(*log.borrow(), vec![1]);
        assert!(!sim.is_idle());

        // Deferred outside the loop with the deadline already reached: it
        // still runs, and the pending event still waits.
        sim.defer(once(record(&log, 2)));
        let t = sim.run_until(Some(SimTime::from_secs(1.5)));
        assert_eq!(t.as_secs(), 1.5);
        assert_eq!(*log.borrow(), vec![1, 2]);

        sim.run();
        assert_eq!(*log.borrow(), vec![1, 2, 20]);
        assert!(sim.is_idle());
    }
}
