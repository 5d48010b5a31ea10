//! The discrete-event simulation core.
//!
//! A [`Simulation<W>`] drives a world `W` that the caller owns. Events are
//! plain values of the world's [`Model::Event`] type, ordered by
//! `(time, sequence-number)`; [`run`](Simulation::run) hands each one to
//! [`Model::handle`] together with the engine, so an event reaches
//! component state through a plain `&mut` and the compiler, not a runtime
//! cell, rules out aliasing. The sequence number makes simultaneous events
//! fire in scheduling order, so a run is fully deterministic for a given
//! seed and program order. Event types are `Send`, so a simulation and its
//! world can be built on one thread and executed on another; each run still
//! executes single-threaded, which is where its determinism comes from.
//!
//! **Queue layout.** The binary heap and the same-instant ring hold only a
//! 24-byte key `(time bits, seq, slot, gen)`; the event itself sits in a
//! slot slab beside the slot's generation. The time bits are
//! `(secs + 0.0).to_bits()` (the `+ 0.0` folds `-0.0` onto `+0.0`). For the
//! finite non-negative instants a [`SimTime`] holds, integer order on those
//! bits is numeric order, so keys compare as plain integers in exactly the
//! order `(SimTime, seq)` gives. No event is boxed: scheduling one writes it
//! into its slot, dispatching one moves it out.
//!
//! Cancellation uses the slab's generations rather than a tombstone set: a
//! handle names a slot plus the generation it was issued for, and cancelling
//! (or firing) bumps the generation so stale queue keys are recognised and
//! skipped on pop. A live-event counter makes `is_idle` O(1), and the heap is
//! compacted in place once dead keys outnumber live ones, so cancel-heavy
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
//! returns. Link completion ticks and delayed transfer starts are the
//! engine's own events; they share the queue, and the sequence numbers,
//! with the world's.

use crate::bandwidth::{DelayedTransfer, Link, LinkId};
use crate::time::{SimDuration, SimTime};
use crate::trace::{TraceEvent, Tracer};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// A simulated world: the state a [`Simulation`] drives and the one
/// dispatch point for its events.
pub trait Model: Sized {
    /// What an event is: a value naming the work to do when it fires.
    /// `Send` so simulations can migrate between worker threads while
    /// parked.
    type Event: Send;

    /// Runs `event` at its scheduled instant; `sim` lets it update links and
    /// schedule follow-up events.
    fn handle(&mut self, event: Self::Event, sim: &mut Simulation<Self>);
}

/// The empty world: its events carry nothing and do nothing. Useful where
/// only the engine's own machinery (links, the clock) is under test.
impl Model for () {
    type Event = ();

    fn handle(&mut self, (): (), _: &mut Simulation<()>) {}
}

/// What a queue key refers to: the world's event or the engine's own.
enum Payload<E> {
    Model(E),
    /// A link's planned completion.
    LinkTick(LinkId),
    /// A transfer whose request latency has elapsed: index into
    /// `Simulation::delayed`.
    TransferStart(u32),
}

/// A queue entry. Derived order is `(at, seq)` first; `seq` is unique, so
/// `slot` and `gen` never decide.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    /// [`SimTime::to_key`] of the instant.
    at: u64,
    seq: u64,
    slot: u32,
    gen: u32,
}

/// Slab entry backing one event slot. The generation is bumped whenever the
/// slot's event fires or is cancelled, so previously issued handles and stale
/// queue keys stop matching; the payload is present exactly while live.
struct Slot<E> {
    gen: u32,
    payload: Option<Payload<E>>,
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
/// use mashup_sim::{Model, SimDuration, Simulation};
///
/// struct Hits(u32);
/// enum Event {
///     Hit,
/// }
/// impl Model for Hits {
///     type Event = Event;
///     fn handle(&mut self, Event::Hit: Event, sim: &mut Simulation<Self>) {
///         self.0 += 1;
///         assert_eq!(sim.now().as_secs(), 5.0);
///     }
/// }
///
/// let mut sim = Simulation::new();
/// let mut hits = Hits(0);
/// sim.schedule_in(SimDuration::from_secs(5.0), Event::Hit);
/// sim.run(&mut hits);
/// assert_eq!(hits.0, 1);
/// ```
pub struct Simulation<W: Model> {
    now: SimTime,
    next_seq: u64,
    queue: BinaryHeap<Reverse<Key>>,
    /// Same-instant fast path: events scheduled for exactly `now` land in
    /// this FIFO ring instead of the heap (O(1) instead of O(log n)), so a
    /// wide fan-out spawned within one instant doesn't pay per-event heap
    /// operations. Invariant: every ring entry has `at == now` (the ring
    /// drains before the clock can advance) and the ring is in `seq` order,
    /// so the dispatch loop merges it with the heap by `(at, seq)` without
    /// reordering anything. A reserved sequence number lower than the
    /// ring's last one goes to the heap instead.
    now_ring: VecDeque<Key>,
    /// The fair-share links, addressed by [`LinkId`].
    pub(crate) links: Vec<Link<W::Event>>,
    /// Links changed during the current event, in order of first change;
    /// each plans its next completion once the event returns.
    pub(crate) dirty_links: Vec<LinkId>,
    /// Transfers waiting out their request latency; `None` entries are free
    /// and listed in `free_delayed`.
    pub(crate) delayed: Vec<Option<DelayedTransfer<W::Event>>>,
    pub(crate) free_delayed: Vec<u32>,
    slots: Vec<Slot<W::Event>>,
    free_slots: Vec<u32>,
    /// Events in the queues whose generation still matches their slot.
    live: usize,
    /// Stale queue keys (cancelled) awaiting skip-on-pop or compaction.
    dead: usize,
    events_processed: u64,
    /// Hard cap on processed events; guards against runaway event loops.
    event_limit: u64,
    /// Flight recorder; dispatch instants and link transfers are emitted at
    /// verbose level only.
    pub(crate) tracer: Tracer,
}

impl<W: Model> Default for Simulation<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W: Model> Simulation<W> {
    /// Creates an empty simulation at t = 0.
    pub fn new() -> Self {
        Simulation {
            now: SimTime::ZERO,
            next_seq: 0,
            queue: BinaryHeap::new(),
            now_ring: VecDeque::new(),
            links: Vec::new(),
            dirty_links: Vec::new(),
            delayed: Vec::new(),
            free_delayed: Vec::new(),
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
    pub fn schedule_at(&mut self, at: SimTime, event: W::Event) -> EventHandle {
        self.push(at, Payload::Model(event))
    }

    /// Schedules an engine or world payload under the next sequence number.
    fn push(&mut self, at: SimTime, payload: Payload<W::Event>) -> EventHandle {
        let seq = self.reserve_seq();
        self.insert(at, seq, payload)
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

    /// Schedules `link`'s completion tick at absolute time `at` under a
    /// sequence number taken earlier by [`reserve_seq`](Self::reserve_seq).
    /// Panics if `at` is in the past.
    pub(crate) fn schedule_reserved(
        &mut self,
        at: SimTime,
        seq: ReservedSeq,
        link: LinkId,
    ) -> EventHandle {
        self.insert(at, seq, Payload::LinkTick(link))
    }

    /// Schedules the start of delayed transfer `index` at `at`.
    pub(crate) fn schedule_transfer_start(&mut self, at: SimTime, index: u32) {
        self.push(at, Payload::TransferStart(index));
    }

    fn insert(
        &mut self,
        at: SimTime,
        ReservedSeq(seq): ReservedSeq,
        payload: Payload<W::Event>,
    ) -> EventHandle {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at:?} < {:?}",
            self.now
        );
        let slot = match self.free_slots.pop() {
            Some(s) => {
                self.slots[s as usize].payload = Some(payload);
                s
            }
            None => {
                let s = u32::try_from(self.slots.len()).expect("event slot index overflow");
                self.slots.push(Slot {
                    gen: 0,
                    payload: Some(payload),
                });
                s
            }
        };
        let gen = self.slots[slot as usize].gen;
        let key = Key {
            at: at.to_key(),
            seq,
            slot,
            gen,
        };
        if at == self.now && self.now_ring.back().is_none_or(|last| last.seq < seq) {
            self.now_ring.push_back(key);
        } else {
            self.queue.push(Reverse(key));
        }
        self.live += 1;
        EventHandle::new(slot, gen)
    }

    /// Schedules a batch of events at the current instant, in iteration
    /// order, after all events already queued for this instant. Equivalent
    /// to calling [`schedule_now`](Self::schedule_now) per event
    /// (consecutive sequence numbers, identical dispatch order), but
    /// reserves ring room once; a wide fan-out spawned within one instant
    /// never touches the heap.
    pub fn schedule_batch_now(&mut self, events: impl IntoIterator<Item = W::Event>) {
        let events = events.into_iter();
        self.now_ring.reserve(events.size_hint().0);
        for event in events {
            self.schedule_now(event);
        }
    }

    /// Schedules `event` after `delay` from now.
    pub fn schedule_in(&mut self, delay: SimDuration, event: W::Event) -> EventHandle {
        self.schedule_at(self.now + delay, event)
    }

    /// Schedules `event` to run at the current instant, after all events
    /// already queued for this instant.
    pub fn schedule_now(&mut self, event: W::Event) -> EventHandle {
        self.schedule_at(self.now, event)
    }

    /// Cancels a scheduled event, dropping it. Cancelling an already-fired
    /// or already-cancelled event is a no-op.
    pub fn cancel(&mut self, handle: EventHandle) {
        let slot = handle.slot() as usize;
        if slot >= self.slots.len() || self.slots[slot].gen != handle.gen() {
            return;
        }
        self.slots[slot].payload = None;
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

    /// Rebuilds the queues without dead keys once they outnumber live ones.
    /// Ordering is untouched: the heap is rebuilt from the surviving
    /// `(at, seq)` keys, which are totally ordered, and the ring keeps its
    /// FIFO (= seq) order.
    fn maybe_compact(&mut self) {
        if self.dead < COMPACT_MIN_DEAD || self.dead * 2 <= self.queue.len() + self.now_ring.len() {
            return;
        }
        let slots = &self.slots;
        let is_live = |k: &Key| slots[k.slot as usize].gen == k.gen;
        let mut keys = std::mem::take(&mut self.queue).into_vec();
        keys.retain(|Reverse(k)| is_live(k));
        self.queue = BinaryHeap::from(keys);
        self.now_ring.retain(is_live);
        self.dead = 0;
    }

    /// Runs `world` until the queue drains. Returns the final simulated time.
    pub fn run(&mut self, world: &mut W) -> SimTime {
        self.run_until(world, None)
    }

    /// Runs `world` until the queue drains or the clock passes `deadline`.
    /// Events scheduled exactly at the deadline still fire. Dirty links
    /// always flush, at the instant they changed, before the deadline is
    /// checked. The clock never moves backwards: a deadline earlier than
    /// the current instant leaves it where it is.
    pub fn run_until(&mut self, world: &mut W, deadline: Option<SimTime>) -> SimTime {
        let deadline_key = deadline.map(SimTime::to_key);
        loop {
            self.flush_links();
            // Merge the same-instant ring with the heap by (at, seq): both
            // are in (at, seq) order, so taking the smaller head each time
            // fires equal-time events in scheduling order whichever queue
            // holds them.
            let from_ring = match (self.now_ring.front(), self.queue.peek()) {
                (Some(r), Some(Reverse(h))) => r < h,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            let head = if from_ring {
                self.now_ring.pop_front().expect("ring head")
            } else {
                self.queue.pop().expect("heap head").0
            };
            if self.slots[head.slot as usize].gen != head.gen {
                // Stale key of a cancelled event: drop it.
                self.dead -= 1;
                continue;
            }
            if deadline_key.is_some_and(|d| head.at > d) {
                // Put it back for a later resume and stop at the deadline.
                if from_ring {
                    self.now_ring.push_front(head);
                } else {
                    self.queue.push(Reverse(head));
                }
                break;
            }
            debug_assert!(head.at >= self.now.to_key(), "event queue went backwards");
            self.now = SimTime::from_key(head.at);
            let payload = self.slots[head.slot as usize]
                .payload
                .take()
                .expect("a live slot holds its event");
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
            match payload {
                Payload::Model(event) => world.handle(event, self),
                Payload::LinkTick(link) => self.on_completion_tick(world, link),
                Payload::TransferStart(index) => self.start_delayed_transfer(index),
            }
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

/// A world whose events are boxed closures, for the crate's unit tests.
#[cfg(test)]
pub(crate) mod testing {
    use super::{Model, Simulation};

    /// Wraps the state `T` the closures see.
    pub(crate) struct Boxed<T>(pub(crate) T);

    /// A boxed closure event over [`Boxed<T>`].
    pub(crate) type Call<T> = Box<dyn FnOnce(&mut Boxed<T>, &mut Simulation<Boxed<T>>) + Send>;

    impl<T> Model for Boxed<T> {
        type Event = Call<T>;

        fn handle(&mut self, event: Call<T>, sim: &mut Simulation<Self>) {
            event(self, sim)
        }
    }

    /// An event running `f` on the wrapped state.
    pub(crate) fn call<T>(
        f: impl FnOnce(&mut T, &mut Simulation<Boxed<T>>) + Send + 'static,
    ) -> Call<T> {
        Box::new(move |w, sim| f(&mut w.0, sim))
    }
}

#[cfg(test)]
mod tests {
    use super::testing::{call, Boxed, Call};
    use super::*;

    type Log = Vec<u32>;
    type Sim = Simulation<Boxed<Log>>;

    fn record(id: u32) -> Call<Log> {
        call(move |log: &mut Log, _| log.push(id))
    }

    fn nothing() -> Call<()> {
        call(|_, _| {})
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Sim::new();
        let mut log = Boxed(Vec::new());
        sim.schedule_at(SimTime::from_secs(3.0), record(3));
        sim.schedule_at(SimTime::from_secs(1.0), record(1));
        sim.schedule_at(SimTime::from_secs(2.0), record(2));
        let end = sim.run(&mut log);
        assert_eq!(log.0, vec![1, 2, 3]);
        assert_eq!(end.as_secs(), 3.0);
    }

    #[test]
    fn simultaneous_events_fire_in_schedule_order() {
        let mut sim = Sim::new();
        let mut log = Boxed(Vec::new());
        for id in 0..10 {
            sim.schedule_at(SimTime::from_secs(1.0), record(id));
        }
        sim.run(&mut log);
        assert_eq!(log.0, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_followups() {
        let mut sim = Sim::new();
        let mut log = Boxed(Vec::new());
        sim.schedule_at(
            SimTime::from_secs(1.0),
            call(|log: &mut Log, sim| {
                log.push(sim.now().as_secs() as u32);
                sim.schedule_in(
                    SimDuration::from_secs(4.0),
                    call(|log: &mut Log, sim| log.push(sim.now().as_secs() as u32)),
                );
            }),
        );
        let end = sim.run(&mut log);
        assert_eq!(log.0, vec![1, 5]);
        assert_eq!(end.as_secs(), 5.0);
    }

    #[test]
    fn cancel_prevents_execution() {
        let mut sim = Sim::new();
        let mut log = Boxed(Vec::new());
        let h = sim.schedule_at(SimTime::from_secs(1.0), record(1));
        sim.schedule_at(SimTime::from_secs(2.0), record(2));
        sim.cancel(h);
        sim.run(&mut log);
        assert_eq!(log.0, vec![2]);
    }

    #[test]
    fn run_until_deadline_pauses_and_resumes() {
        let mut sim = Sim::new();
        let mut log = Boxed(Vec::new());
        sim.schedule_at(SimTime::from_secs(1.0), record(1));
        sim.schedule_at(SimTime::from_secs(10.0), record(10));
        let t = sim.run_until(&mut log, Some(SimTime::from_secs(5.0)));
        assert_eq!(t.as_secs(), 5.0);
        assert_eq!(log.0, vec![1]);
        assert!(!sim.is_idle());
        sim.run(&mut log);
        assert_eq!(log.0, vec![1, 10]);
    }

    #[test]
    fn an_earlier_deadline_never_moves_the_clock_back() {
        let mut sim = Sim::new();
        let mut log = Boxed(Vec::new());
        sim.schedule_at(SimTime::from_secs(10.0), record(10));
        sim.schedule_at(SimTime::from_secs(20.0), record(20));
        let t = sim.run_until(&mut log, Some(SimTime::from_secs(10.0)));
        assert_eq!(t.as_secs(), 10.0);
        // A deadline behind the clock returns the current instant...
        let t = sim.run_until(&mut log, Some(SimTime::from_secs(5.0)));
        assert_eq!(t.as_secs(), 10.0);
        assert_eq!(sim.now().as_secs(), 10.0);
        // ...so an event at 6 s is refused rather than firing after 10 s.
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.schedule_at(SimTime::from_secs(6.0), record(6));
        }));
        assert!(refused.is_err(), "6 s is in the past at 10 s");
        sim.run(&mut log);
        assert_eq!(log.0, vec![10, 20]);
    }

    #[test]
    fn deadline_advances_clock_even_when_idle() {
        let mut sim = Simulation::<()>::new();
        let t = sim.run_until(&mut (), Some(SimTime::from_secs(7.0)));
        assert_eq!(t.as_secs(), 7.0);
        assert_eq!(sim.now().as_secs(), 7.0);
    }

    #[test]
    fn negative_zero_keys_like_positive_zero() {
        assert_eq!(
            SimTime::from_secs(-0.0).to_key(),
            SimTime::from_secs(0.0).to_key()
        );
        let mut sim = Sim::new();
        let mut log = Boxed(Vec::new());
        sim.schedule_at(SimTime::from_secs(0.0), record(0));
        sim.schedule_at(SimTime::from_secs(-0.0), record(1));
        sim.schedule_at(SimTime::from_secs(0.0), record(2));
        sim.run(&mut log);
        assert_eq!(log.0, vec![0, 1, 2]);
        assert_eq!(sim.now().as_secs().to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn schedule_now_runs_after_current_instant_events() {
        let mut sim = Sim::new();
        let mut log = Boxed(Vec::new());
        sim.schedule_at(
            SimTime::from_secs(1.0),
            call(|log: &mut Log, sim| {
                log.push(100);
                sim.schedule_now(record(101));
            }),
        );
        sim.schedule_at(SimTime::from_secs(1.0), record(200));
        sim.run(&mut log);
        // The follow-up runs at the same instant, but after event 200 which
        // was scheduled earlier.
        assert_eq!(log.0, vec![100, 200, 101]);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_in_the_past_panics() {
        let mut sim = Simulation::new();
        sim.schedule_at(
            SimTime::from_secs(5.0),
            call(|_: &mut (), sim| {
                sim.schedule_at(SimTime::from_secs(1.0), nothing());
            }),
        );
        sim.run(&mut Boxed(()));
    }

    #[test]
    #[should_panic(expected = "event limit")]
    fn event_limit_detects_runaway_loops() {
        fn rearm() -> Call<()> {
            call(|_, sim| {
                sim.schedule_in(SimDuration::from_secs(1.0), rearm());
            })
        }
        let mut sim = Simulation::new().with_event_limit(100);
        sim.schedule_now(rearm());
        sim.run(&mut Boxed(()));
    }

    #[test]
    fn events_processed_counts_fired_events_only() {
        let mut sim = Simulation::<()>::new();
        let h = sim.schedule_at(SimTime::from_secs(1.0), ());
        sim.schedule_at(SimTime::from_secs(2.0), ());
        sim.cancel(h);
        sim.run(&mut ());
        assert_eq!(sim.events_processed(), 1);
    }

    #[test]
    fn cancel_of_fired_event_is_noop_even_after_slot_reuse() {
        let mut sim = Sim::new();
        let mut log = Boxed(Vec::new());
        let h1 = sim.schedule_at(SimTime::from_secs(1.0), record(1));
        sim.run(&mut log);
        // h1's slot is free now; the next schedule reuses it with a bumped
        // generation. Cancelling the stale h1 must not kill the new event.
        sim.schedule_at(SimTime::from_secs(2.0), record(2));
        sim.cancel(h1);
        sim.run(&mut log);
        assert_eq!(log.0, vec![1, 2]);
    }

    #[test]
    fn double_cancel_is_noop_even_after_slot_reuse() {
        let mut sim = Sim::new();
        let mut log = Boxed(Vec::new());
        let h1 = sim.schedule_at(SimTime::from_secs(1.0), record(1));
        sim.cancel(h1);
        sim.schedule_at(SimTime::from_secs(2.0), record(2));
        sim.cancel(h1);
        sim.run(&mut log);
        assert_eq!(log.0, vec![2]);
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
            handle = Some(sim.schedule_in(SimDuration::from_secs(1.0), ()));
            assert!(!sim.is_idle());
        }
        sim.run(&mut ());
        assert!(sim.is_idle());
        assert_eq!(sim.events_processed(), 1);
    }

    #[test]
    fn batch_scheduling_matches_individual_scheduling_order() {
        let mut sim = Sim::new();
        let mut log = Boxed(Vec::new());
        sim.schedule_now(record(0));
        sim.schedule_batch_now((1..=5).map(record));
        sim.schedule_now(record(6));
        sim.run(&mut log);
        assert_eq!(log.0, (0..=6).collect::<Vec<_>>());
    }

    #[test]
    fn same_instant_batch_interleaves_with_heap_events_by_seq() {
        let mut sim = Sim::new();
        let mut log = Boxed(Vec::new());
        // At t=1 the first event batch-schedules followups at the current
        // instant (ring path); an equal-time heap event scheduled earlier
        // must still fire before the batch.
        sim.schedule_at(
            SimTime::from_secs(1.0),
            call(|log: &mut Log, sim| {
                log.push(100);
                sim.schedule_batch_now((0..3).map(|i| record(300 + i)));
            }),
        );
        sim.schedule_at(SimTime::from_secs(1.0), record(200));
        sim.schedule_at(SimTime::from_secs(2.0), record(400));
        sim.run(&mut log);
        assert_eq!(log.0, vec![100, 200, 300, 301, 302, 400]);
    }

    #[test]
    fn same_instant_events_are_cancellable() {
        let mut sim = Sim::new();
        let mut log = Boxed(Vec::new());
        sim.schedule_at(
            SimTime::from_secs(1.0),
            call(|_: &mut Log, sim| {
                let h = sim.schedule_now(record(1));
                sim.schedule_now(record(2));
                sim.cancel(h);
            }),
        );
        sim.run(&mut log);
        assert_eq!(log.0, vec![2]);
        assert!(sim.is_idle());
        assert_eq!(sim.events_processed(), 2);
    }

    #[test]
    fn compaction_retains_live_ring_entries() {
        let mut sim = Sim::new();
        let mut log = Boxed(Vec::new());
        // Inside one instant: a live ring event, then enough cancelled ones
        // to trip compaction; the survivor must still fire.
        sim.schedule_at(
            SimTime::from_secs(1.0),
            call(|_: &mut Log, sim| {
                sim.schedule_now(record(7));
                let doomed: Vec<_> = (0..200).map(|_| sim.schedule_now(record(0))).collect();
                for h in doomed {
                    sim.cancel(h);
                }
            }),
        );
        sim.run(&mut log);
        assert_eq!(log.0, vec![7]);
    }

    #[test]
    fn compaction_keeps_live_events_and_ordering() {
        let mut sim = Sim::new();
        let mut log = Boxed(Vec::new());
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
        assert_eq!(log.0, (0..500).collect::<Vec<_>>());
        assert_eq!(sim.events_processed(), 500);
    }

    #[test]
    fn link_ticks_keep_the_sequence_number_reserved_at_the_change() {
        let mut sim = Sim::new();
        let mut log = Boxed(Vec::new());
        let link = sim.add_link("l", 100.0);
        // The transfer ends at t=1. Its tick takes the sequence number
        // reserved when it started, so it fires between the two events
        // scheduled for t=1 before and after that start.
        sim.schedule_at(SimTime::from_secs(1.0), record(1));
        sim.start_transfer(link, 100.0, None, record(2));
        sim.schedule_at(SimTime::from_secs(1.0), record(3));
        sim.run(&mut log);
        assert_eq!(log.0, vec![1, 2, 3]);
        assert!(sim.is_idle());
    }

    #[test]
    fn same_instant_link_ticks_merge_between_ring_events_by_reserved_seq() {
        let mut sim = Sim::new();
        let mut log = Boxed(Vec::new());
        // At t = 1e6 s one byte on a 1 TB/s link takes 1e-12 s, below half
        // an ulp of the clock, so the tick is planned at `now` itself.
        let link = sim.add_link("fast", 1e12);
        let t = SimTime::from_secs(1e6);
        assert_eq!(t + SimDuration::from_secs(1e-12), t);
        sim.schedule_at(
            t,
            call(move |_: &mut Log, sim| {
                sim.schedule_now(record(10));
                sim.start_transfer(link, 1.0, None, record(11));
                sim.schedule_now(record(12));
            }),
        );
        sim.run(&mut log);
        // The tick's reserved number lies between the two ring events', so
        // it goes to the heap and the merge fires it between them.
        assert_eq!(log.0, vec![10, 11, 12]);
        assert!(sim.is_idle());

        // Again at a later instant that also has heap events from before the
        // change: 24 was scheduled ahead of every event the change makes.
        let t = SimTime::from_secs(2e6);
        sim.schedule_at(t, record(20));
        sim.schedule_at(
            t,
            call(move |_: &mut Log, sim| {
                sim.schedule_now(record(21));
                sim.start_transfer(link, 1.0, None, record(22));
                sim.schedule_now(record(23));
            }),
        );
        sim.schedule_at(t, record(24));
        sim.run(&mut log);
        assert_eq!(log.0, vec![10, 11, 12, 20, 24, 21, 22, 23]);
        assert!(sim.is_idle());
    }

    #[test]
    fn dirty_links_flush_between_events_and_count_as_pending() {
        let mut sim = Sim::new();
        let mut log = Boxed(Vec::new());
        let link = sim.add_link("l", 100.0);
        // Scheduled before the transfer starts, at its completion instant.
        sim.schedule_at(SimTime::from_secs(2.0), record(4));
        sim.schedule_at(
            SimTime::from_secs(1.0),
            call(move |log: &mut Log, sim| {
                log.push(1);
                sim.start_transfer(link, 100.0, None, record(2));
                assert!(!sim.is_idle());
            }),
        );
        sim.schedule_at(SimTime::from_secs(1.0), record(3));
        sim.run(&mut log);
        // The completion keeps the sequence number of the change that
        // planned it, so it fires after the earlier-scheduled event 4.
        assert_eq!(log.0, vec![1, 3, 4, 2]);
        assert_eq!(sim.events_processed(), 4);

        // With no event queued, the dirty link alone keeps it busy.
        sim.start_transfer(link, 100.0, None, record(5));
        assert!(!sim.is_idle());
        sim.run(&mut log);
        assert!(sim.is_idle());
        assert_eq!(log.0, vec![1, 3, 4, 2, 5]);
        assert_eq!(sim.now().as_secs(), 3.0);
    }

    #[test]
    fn run_until_never_strands_a_dirty_link() {
        let mut sim = Sim::new();
        let mut log = Boxed(Vec::new());
        let link = sim.add_link("l", 100.0);
        // The last event before the deadline starts a transfer that ends
        // past it; the link flushes at t=1 and its completion waits.
        sim.schedule_at(
            SimTime::from_secs(1.0),
            call(move |_: &mut Log, sim| {
                sim.start_transfer(link, 100.0, None, record(20));
            }),
        );
        let t = sim.run_until(&mut log, Some(SimTime::from_secs(1.5)));
        assert_eq!(t.as_secs(), 1.5);
        assert!(log.0.is_empty());
        assert!(!sim.is_idle());

        // Changed outside the loop with the deadline already reached: the
        // link still flushes, and the pending completion still waits.
        sim.start_transfer(link, 50.0, None, record(2));
        let t = sim.run_until(&mut log, Some(SimTime::from_secs(1.5)));
        assert_eq!(t.as_secs(), 1.5);
        assert!(sim.dirty_links.is_empty());

        sim.run(&mut log);
        assert_eq!(log.0, vec![20, 2]);
        assert!(sim.is_idle());
    }
}
