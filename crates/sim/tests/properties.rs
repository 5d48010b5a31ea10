//! Property-based tests of the simulation engine invariants.

use mashup_sim::{EventHandle, LinkId, Model, SimDuration, SimTime, Simulation, TransferId};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A world whose events are boxed closures over `T`.
struct Boxed<T>(T);

type Call<T> = Box<dyn FnOnce(&mut Boxed<T>, &mut Simulation<Boxed<T>>) + Send>;

impl<T> Model for Boxed<T> {
    type Event = Call<T>;
    fn handle(&mut self, event: Call<T>, sim: &mut Simulation<Self>) {
        event(self, sim)
    }
}

/// An event running `f` on the wrapped state.
fn call<T>(f: impl FnOnce(&mut T, &mut Simulation<Boxed<T>>) + Send + 'static) -> Call<T> {
    Box::new(move |w, sim| f(&mut w.0, sim))
}

/// The fair-share link as it was before completions were planned once per
/// event: every arrival, cancellation and completion tick cancels the
/// completion event, re-runs the water-fill and the min-scan, and schedules
/// a new event. Shares are recomputed from scratch each time. This is the
/// reference the engine's link arena must match bit for bit. It lives in
/// the world, as a component would.
struct EagerLink {
    capacity: f64,
    /// In id order.
    flows: Vec<EagerFlow>,
    next_id: u64,
    last_update: SimTime,
    completion: Option<EventHandle>,
}

type Done<L> = Box<dyn FnOnce(&mut Drive<L>, &mut Simulation<Drive<L>>) + Send>;

struct EagerFlow {
    id: u64,
    remaining: f64,
    cap: f64,
    on_done: Done<EagerLink>,
}

const EPS_BYTES: f64 = 1e-6;

/// Max-min fair shares of flows with `caps`, given in id order, on a link
/// of `capacity`: a stable sort by cap (ids break ties), then the
/// water-fill, recomputed from scratch with nothing remembered.
fn water_fill(capacity: f64, caps: &[f64]) -> Vec<f64> {
    let mut order: Vec<usize> = (0..caps.len()).collect();
    order.sort_by(|&a, &b| caps[a].partial_cmp(&caps[b]).expect("caps are never NaN"));
    let mut shares = vec![0.0; caps.len()];
    let mut remaining_cap = capacity;
    for (i, &f) in order.iter().enumerate() {
        let fair = remaining_cap / (order.len() - i) as f64;
        let share = caps[f].min(fair);
        shares[f] = share;
        remaining_cap -= share;
    }
    shares
}

impl EagerLink {
    fn new(capacity: f64) -> Self {
        EagerLink {
            capacity,
            flows: Vec::new(),
            next_id: 0,
            last_update: SimTime::ZERO,
            completion: None,
        }
    }

    /// Max-min fair shares in `flows` order.
    fn shares(&self) -> Vec<f64> {
        let caps: Vec<f64> = self.flows.iter().map(|f| f.cap).collect();
        water_fill(self.capacity, &caps)
    }

    fn advance(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last_update).as_secs();
        if dt > 0.0 && !self.flows.is_empty() {
            let shares = self.shares();
            for (f, share) in self.flows.iter_mut().zip(shares) {
                let moved = (share * dt).min(f.remaining);
                f.remaining -= moved;
            }
        }
        self.last_update = now;
    }

    fn replan(w: &mut Drive<EagerLink>, sim: &mut Simulation<Drive<EagerLink>>) {
        let s = &mut w.link;
        if let Some(h) = s.completion.take() {
            sim.cancel(h);
        }
        let dt = s
            .flows
            .iter()
            .zip(s.shares())
            .map(|(f, share)| {
                if share <= 0.0 {
                    f64::INFINITY
                } else {
                    f.remaining / share
                }
            })
            .fold(f64::INFINITY, f64::min);
        if dt.is_finite() {
            s.completion = Some(sim.schedule_in(SimDuration::from_secs(dt), Box::new(Self::tick)));
        }
    }

    fn tick(w: &mut Drive<EagerLink>, sim: &mut Simulation<Drive<EagerLink>>) {
        let s = &mut w.link;
        s.completion = None;
        s.advance(sim.now());
        if !s.flows.is_empty() && s.flows.iter().all(|f| f.remaining > EPS_BYTES) {
            // First minimum in id order, as `Iterator::min_by` returns.
            let closest = (0..s.flows.len())
                .min_by(|&a, &b| {
                    s.flows[a]
                        .remaining
                        .partial_cmp(&s.flows[b].remaining)
                        .expect("remaining is never NaN")
                })
                .expect("non-empty");
            s.flows[closest].remaining = 0.0;
        }
        let (done, left): (Vec<_>, Vec<_>) = std::mem::take(&mut s.flows)
            .into_iter()
            .partition(|f| f.remaining <= EPS_BYTES);
        s.flows = left;
        for f in done {
            (f.on_done)(w, sim);
        }
        Self::replan(w, sim);
    }
}

/// The calls the differential test drives on either link.
trait Link: Sized + Send + 'static {
    type Id: Copy + Send + 'static;
    fn start(
        w: &mut Drive<Self>,
        sim: &mut Simulation<Drive<Self>>,
        bytes: f64,
        cap: Option<f64>,
        on_done: Done<Self>,
    ) -> Self::Id;
    fn cancel(w: &mut Drive<Self>, sim: &mut Simulation<Drive<Self>>, id: Self::Id) -> f64;
    /// Checks the link's current shares against [`water_fill`].
    fn check(w: &mut Drive<Self>, sim: &mut Simulation<Drive<Self>>);
}

impl Link for LinkId {
    type Id = TransferId;
    fn start(
        w: &mut Drive<Self>,
        sim: &mut Simulation<Drive<Self>>,
        bytes: f64,
        cap: Option<f64>,
        on_done: Done<Self>,
    ) -> TransferId {
        sim.start_transfer(w.link, bytes, cap, on_done)
    }
    fn cancel(w: &mut Drive<Self>, sim: &mut Simulation<Drive<Self>>, id: TransferId) -> f64 {
        sim.cancel_transfer(w.link, id)
    }
    /// Every flow of the run is a transfer of positive size on this link,
    /// so the k-th flow started has transfer id k and cap `w.caps[k]`.
    fn check(w: &mut Drive<Self>, sim: &mut Simulation<Drive<Self>>) {
        let got = sim.current_shares(w.link);
        let caps: Vec<f64> = got.iter().map(|&(id, _)| w.caps[id as usize]).collect();
        let want = water_fill(w.capacity, &caps);
        for (&(id, share), want) in got.iter().zip(want) {
            assert_eq!(
                share.to_bits(),
                want.to_bits(),
                "share of transfer {id} among {}: {share} vs reference {want}",
                got.len()
            );
        }
        w.checks += 1;
    }
}

impl Link for EagerLink {
    type Id = u64;
    fn start(
        w: &mut Drive<Self>,
        sim: &mut Simulation<Drive<Self>>,
        bytes: f64,
        cap: Option<f64>,
        on_done: Done<Self>,
    ) -> u64 {
        let s = &mut w.link;
        let id = s.next_id;
        s.next_id += 1;
        if bytes <= EPS_BYTES {
            sim.schedule_now(on_done);
            return id;
        }
        s.advance(sim.now());
        s.flows.push(EagerFlow {
            id,
            remaining: bytes,
            cap: cap.unwrap_or(f64::INFINITY),
            on_done,
        });
        EagerLink::replan(w, sim);
        id
    }
    fn cancel(w: &mut Drive<Self>, sim: &mut Simulation<Drive<Self>>, id: u64) -> f64 {
        let s = &mut w.link;
        s.advance(sim.now());
        let removed = s
            .flows
            .iter()
            .position(|f| f.id == id)
            .map(|p| s.flows.remove(p).remaining);
        if removed.is_some() {
            EagerLink::replan(w, sim);
        }
        removed.unwrap_or(0.0)
    }
    /// The reference link: its shares are the reference loop's.
    fn check(_: &mut Drive<Self>, _: &mut Simulation<Drive<Self>>) {}
}

/// The differential tests' world: the link under test, the log of what
/// happened, the ids and caps of every flow started, and whether to check
/// the shares after every event that changes the link.
struct Drive<L: Link> {
    link: L,
    capacity: f64,
    log: Vec<(u64, u64)>,
    ids: Vec<L::Id>,
    caps: Vec<f64>,
    check: bool,
    /// Share checks run.
    checks: usize,
}

impl<L: Link> Model for Drive<L> {
    type Event = Done<L>;
    fn handle(&mut self, event: Done<L>, sim: &mut Simulation<Self>) {
        event(self, sim)
    }
}

/// Sizes and caps are drawn in these units on a link of `8 * UNIT` B/s, so
/// completions often land exactly on another event's instant, where only
/// the `(at, seq)` order decides which fires first.
const UNIT: f64 = 125.0;

/// One driver step, one event: `(gap in quarter-seconds after the previous
/// step, burst of (size, cap code, cap), cancel selector)`. A gap of 0 puts
/// two events at the same instant; the selector cancels an earlier flow
/// when it is below 64. The run's cap rule turns (cap code, cap) into the
/// flow's cap.
type Step = (u8, Vec<(u32, u8, u32)>, u16);

/// The first differential test's cap rule: a cap of `cap` units when the
/// code is 0, else none.
fn unit_caps(code: u8, cap: u32) -> Option<f64> {
    (code == 0).then_some(f64::from(cap) * UNIT)
}

/// Schedules a share check after the flush of the current event, when the
/// run checks shares.
fn check_after<L: Link>(w: &Drive<L>, sim: &mut Simulation<Drive<L>>) {
    if w.check {
        sim.schedule_now(Box::new(L::check));
    }
}

/// Starts one flow of `units * UNIT` bytes whose completion logs `(label,
/// instant bits)`, then schedules a marker event `units % 4` eighths of a
/// second later, so markers fall between the link changes of one event and
/// on completion instants. Flows of a multiple of 3 units start a half-size
/// successor from their callback, so arrivals also land inside completion
/// ticks. A completion schedules a share check when the run checks them.
fn start_flow<L: Link>(
    w: &mut Drive<L>,
    sim: &mut Simulation<Drive<L>>,
    label: u64,
    units: u32,
    cap: Option<f64>,
) {
    let on_done: Done<L> = Box::new(move |w: &mut Drive<L>, sim: &mut Simulation<Drive<L>>| {
        w.log.push((label, sim.now().as_secs().to_bits()));
        if label < 1 << 20 && units.is_multiple_of(3) {
            start_flow(w, sim, label + (1 << 20), units / 2, cap);
        }
        check_after(w, sim);
    });
    w.caps.push(cap.unwrap_or(f64::INFINITY));
    let id = L::start(w, sim, f64::from(units) * UNIT, cap, on_done);
    w.ids.push(id);
    let marker_in = SimDuration::from_secs(f64::from(units % 4) / 8.0);
    sim.schedule_in(
        marker_in,
        Box::new(move |w: &mut Drive<L>, sim: &mut Simulation<Drive<L>>| {
            w.log
                .push((label + (1 << 40), sim.now().as_secs().to_bits()));
        }),
    );
}

/// Runs `steps` on `link`, a link of `capacity`, with flow caps from
/// `caps`, and returns every completion, cancel result and step marker in
/// the order they happened, with bit-exact instants, and the number of
/// share checks run (none unless `check`).
fn drive<L: Link>(
    link: impl FnOnce(&mut Simulation<Drive<L>>, f64) -> L,
    capacity: f64,
    steps: &[Step],
    caps: &dyn Fn(u8, u32) -> Option<f64>,
    check: bool,
) -> (Vec<(u64, u64)>, usize) {
    let mut sim = Simulation::new();
    let mut world = Drive {
        link: link(&mut sim, capacity),
        capacity,
        log: Vec::new(),
        ids: Vec::new(),
        caps: Vec::new(),
        check,
        checks: 0,
    };
    let mut t = 0.0;
    for (k, (gap, burst, cancel)) in steps.iter().enumerate() {
        t += f64::from(*gap) * 0.25;
        let burst: Vec<(u32, Option<f64>)> = burst
            .iter()
            .map(|&(units, code, cap)| (units, caps(code, cap)))
            .collect();
        let cancel = *cancel;
        let k = k as u64;
        let step: Done<L> = Box::new(move |w: &mut Drive<L>, sim: &mut Simulation<Drive<L>>| {
            w.log.push((u64::MAX - k, sim.now().as_secs().to_bits()));
            let victim = (cancel < 64 && !w.ids.is_empty())
                .then(|| w.ids[usize::from(cancel) % w.ids.len()]);
            if let Some(id) = victim {
                let left = L::cancel(w, sim, id);
                w.log.push((u64::MAX / 2 - k, left.to_bits()));
            }
            for (j, &(units, cap)) in burst.iter().enumerate() {
                start_flow(w, sim, k * 100 + j as u64, units, cap);
            }
            check_after(w, sim);
        });
        sim.schedule_at(SimTime::from_secs(t), step);
    }
    // Pause at deadlines so the end-of-event flush meets them too.
    let mut deadline = 0.0;
    while !sim.is_idle() {
        deadline += 0.3;
        sim.run_until(&mut world, Some(SimTime::from_secs(deadline)));
    }
    (world.log, world.checks)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Planning a link's next completion once per event gives the schedule
    /// the per-change replan gave: the same completion instants, bit for
    /// bit, and the same order of callbacks, cancels and other events, over
    /// same-instant bursts, staggered arrivals, per-flow caps, cancels and
    /// arrivals from completion callbacks.
    #[test]
    fn deferred_link_matches_eager_replan_bit_for_bit(
        steps in proptest::collection::vec(
            (
                0u8..3,
                proptest::collection::vec((0u32..320, 0u8..3, 1u32..8), 0..12),
                0u16..96,
            ),
            1..20,
        )
    ) {
        let capacity = 8.0 * UNIT;
        let eager = drive(|_, c| EagerLink::new(c), capacity, &steps, &unit_caps, false);
        let deferred = drive(|sim, c| sim.add_link("l", c), capacity, &steps, &unit_caps, false);
        prop_assert_eq!(deferred, eager);
    }
}

/// The memo test's cap rules, by mode: 0 all uncapped; 1 one finite cap
/// for every flow (`capacity / 64`: below the fair share under 64 flows,
/// at or above it from 64 on); 2 uncapped and finite caps mixed; 3 caps of
/// `capacity / cap` moved an ulp down or up by the code, so caps straddle
/// the fair shares of the flow counts the run passes through.
fn memo_caps(mode: u8, capacity: f64) -> impl Fn(u8, u32) -> Option<f64> {
    move |code, cap| match mode {
        0 => None,
        1 => Some(capacity / 64.0),
        2 => (code % 2 == 1).then_some(f64::from(cap) * UNIT / 64.0),
        _ => {
            let cap = capacity / f64::from(cap);
            Some(match code % 3 {
                0 => cap.next_down(),
                1 => cap,
                _ => cap.next_up(),
            })
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The link's memo of all-fair water-fills changes nothing: after every
    /// event that changes the link (so after its flush), each transfer's
    /// share equals a from-scratch water-fill's bit for bit, and every
    /// completion instant equals the reference link's, which never
    /// memoizes. Bursts of up to 47 arrivals per step reach a few hundred
    /// flows; completions, successors and cancels walk the count back down
    /// through counts the memo has seen, under each cap rule.
    #[test]
    fn memoized_shares_match_the_reference_bit_for_bit(
        mode in 0u8..4,
        steps in proptest::collection::vec(
            (
                0u8..3,
                proptest::collection::vec((1u32..64, 0u8..6, 1u32..400), 0..48),
                0u16..96,
            ),
            1..12,
        )
    ) {
        let capacity = 8.0 * UNIT;
        let caps = memo_caps(mode, capacity);
        let (eager, _) = drive(|_, c| EagerLink::new(c), capacity, &steps, &caps, true);
        let (memo, checks) = drive(|sim, c| sim.add_link("l", c), capacity, &steps, &caps, true);
        prop_assert_eq!(memo, eager);
        prop_assert!(checks > 0);
    }
}

proptest! {
    /// Events always fire in non-decreasing time order, and simultaneous
    /// events fire in scheduling order, regardless of insertion order.
    #[test]
    fn event_order_is_deterministic(times in proptest::collection::vec(0u32..1000, 1..64)) {
        let mut sim = Simulation::new();
        for (i, &t) in times.iter().enumerate() {
            sim.schedule_at(SimTime::from_secs(t as f64), call(move |log: &mut Vec<(f64, usize)>, sim| {
                log.push((sim.now().as_secs(), i));
            }));
        }
        let mut fired = Boxed(Vec::new());
        sim.run(&mut fired);
        let fired = fired.0;
        prop_assert_eq!(fired.len(), times.len());
        for w in fired.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time went backwards");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "same-instant order violated");
            }
        }
    }

    /// Work conservation on a fair-share link: total bytes over a saturated
    /// link take exactly sum(bytes)/capacity seconds when all transfers start
    /// together, no matter how the bytes are split.
    #[test]
    fn link_is_work_conserving(sizes in proptest::collection::vec(1u32..10_000, 1..20)) {
        let cap = 1000.0;
        let total: f64 = sizes.iter().map(|&b| b as f64).sum();
        let mut sim = Simulation::new();
        let link = sim.add_link("l", cap);
        for &b in &sizes {
            sim.schedule_at(SimTime::ZERO, call(move |_: &mut usize, sim| {
                sim.start_transfer(link, b as f64, None, call(|done: &mut usize, _| *done += 1));
            }));
        }
        let mut done = Boxed(0usize);
        let end = sim.run(&mut done);
        prop_assert_eq!(done.0, sizes.len());
        // The last completion is exactly when the aggregate work drains.
        prop_assert!((end.as_secs() - total / cap).abs() < 1e-6,
            "end {} != {}", end.as_secs(), total / cap);
    }

    /// Per-flow caps: with equal flows all capped below the fair share, each
    /// flow finishes at bytes/cap independent of the others.
    #[test]
    fn capped_flows_are_independent(n in 1usize..10, bytes in 100u32..5000) {
        let link_cap = 1_000_000.0;
        let flow_cap = 10.0;
        let bytes = bytes as f64;
        let mut sim = Simulation::new();
        let link = sim.add_link("l", link_cap);
        for _ in 0..n {
            sim.schedule_at(SimTime::ZERO, call(move |_: &mut Vec<f64>, sim| {
                let done = call(|f: &mut Vec<f64>, sim| f.push(sim.now().as_secs()));
                sim.start_transfer(link, bytes, Some(flow_cap), done);
            }));
        }
        let mut finishes = Boxed(Vec::new());
        sim.run(&mut finishes);
        for &t in &finishes.0 {
            prop_assert!((t - bytes / flow_cap).abs() < 1e-6);
        }
    }

    /// The cached share table kept by a link is bit-for-bit identical to a
    /// from-scratch max-min water-fill recompute after every arrival,
    /// cancellation, and completion.
    #[test]
    fn cached_shares_match_reference_recompute(
        ops in proptest::collection::vec((0u8..4, 1u32..50_000, 0u8..2, 1u32..2_000), 1..40)
    ) {
        type Active = std::collections::BTreeMap<u64, f64>;
        let capacity = 1000.0;
        let mut sim = Simulation::new();
        let link = sim.add_link("prop", capacity);
        // Transfer ids are allocated sequentially per link, so the k-th
        // arrival gets id k; track each live flow's cap under that id.
        let mut active = Boxed(Active::new());
        let mut tids: Vec<(u64, TransferId)> = Vec::new();
        let mut next_arrival: u64 = 0;
        let mut t = 0.0f64;
        for &(kind, bytes, capped, cap) in &ops {
            t += 0.05;
            sim.run_until(&mut active, Some(SimTime::from_secs(t)));
            if kind < 3 {
                // Arrival (weighted 3:1 over cancels to keep links busy).
                let cap = if capped == 1 { Some(cap as f64) } else { None };
                let id = next_arrival;
                next_arrival += 1;
                active.0.insert(id, cap.unwrap_or(f64::INFINITY));
                let done = call(move |active: &mut Active, _| {
                    active.remove(&id);
                });
                let tid = sim.start_transfer(link, bytes as f64, cap, done);
                tids.push((id, tid));
            } else if let Some(&(id, tid)) = tids.get(bytes as usize % tids.len().max(1)) {
                if active.0.contains_key(&id) {
                    sim.cancel_transfer(link, tid);
                    active.0.remove(&id);
                }
            }
            // Reference recompute: stable sort by cap (ids break ties),
            // then water-fill — the exact operation order of the original
            // per-call share rebuild.
            let mut flows: Vec<(u64, f64)> =
                active.0.iter().map(|(&id, &cap)| (id, cap)).collect();
            flows.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("caps are never NaN"));
            let mut remaining_cap = capacity;
            let mut expected: Vec<(u64, f64)> = Vec::new();
            for (i, &(id, cap)) in flows.iter().enumerate() {
                let n_left = (flows.len() - i) as f64;
                let fair = remaining_cap / n_left;
                let share = cap.min(fair);
                expected.push((id, share));
                remaining_cap -= share;
            }
            expected.sort_by_key(|&(id, _)| id);
            let got = sim.current_shares(link);
            prop_assert_eq!(got.len(), expected.len());
            for (&(gid, gshare), &(eid, eshare)) in got.iter().zip(expected.iter()) {
                prop_assert_eq!(gid, eid);
                prop_assert_eq!(
                    gshare.to_bits(), eshare.to_bits(),
                    "share mismatch for id {}: cached {} vs reference {}",
                    gid, gshare, eshare
                );
            }
        }
        sim.run(&mut active);
        prop_assert!(active.0.is_empty(), "all transfers complete or cancelled");
        prop_assert_eq!(sim.active_transfers(link), 0);
    }

    /// Two identical runs produce identical event traces (determinism).
    #[test]
    fn runs_are_reproducible(times in proptest::collection::vec(0u32..100, 1..32)) {
        let run = |times: &[u32]| -> Vec<(f64, usize)> {
            let mut sim = Simulation::new();
            for (i, &t) in times.iter().enumerate() {
                sim.schedule_at(SimTime::from_secs(t as f64), call(move |log: &mut Vec<(f64, usize)>, sim| {
                    log.push((sim.now().as_secs(), i));
                }));
            }
            let mut log = Boxed(Vec::new());
            sim.run(&mut log);
            log.0
        };
        prop_assert_eq!(run(&times), run(&times));
    }
}

/// The reference model of the event queue: every pending event under its
/// `(time bits, seq)` key, with `-0.0` folded onto `+0.0` as the engine's
/// clock does. The engine must dispatch exactly this map's first entry,
/// every time.
struct Queue {
    pending: BTreeMap<(u64, u64), ()>,
    /// The sequence number the engine gives the next event: one per
    /// schedule call, since this world starts no transfers.
    next_seq: u64,
    /// Every handle issued, with the key it was issued for.
    handles: Vec<(EventHandle, (u64, u64))>,
    /// What the event with sequence number `s` does when it fires:
    /// `actions[s % actions.len()]`.
    actions: Vec<Action>,
    fired: usize,
}

/// Follow-ups an event schedules (`(kind, gap in quarter-seconds)`: 0 is
/// `schedule_now`, 1 `schedule_at(now + gap)`, 2 `-0.0` while the clock is
/// at zero) and handles it cancels (by index into every handle issued).
type Action = (Vec<(u8, u8)>, Vec<u16>);

/// Above this many events, fired events schedule nothing more.
const EVENT_BUDGET: u64 = 2_000;

impl Model for Queue {
    type Event = Box<dyn FnOnce(&mut Queue, &mut Simulation<Queue>) + Send>;
    fn handle(&mut self, event: Self::Event, sim: &mut Simulation<Self>) {
        event(self, sim)
    }
}

impl Queue {
    fn key(at: SimTime, seq: u64) -> (u64, u64) {
        ((at.as_secs() + 0.0).to_bits(), seq)
    }

    /// Schedules one event at `at` (with `schedule_now` when `now`), in the
    /// model and in the engine.
    fn schedule(&mut self, sim: &mut Simulation<Queue>, at: SimTime, now: bool) {
        let key = Self::key(at, self.next_seq);
        self.next_seq += 1;
        self.pending.insert(key, ());
        let event: <Queue as Model>::Event = Box::new(move |w: &mut Queue, sim| w.fire(sim, key));
        let handle = if now {
            sim.schedule_now(event)
        } else {
            sim.schedule_at(at, event)
        };
        self.handles.push((handle, key));
    }

    /// Cancels the `pick`-th handle issued (fired or not), in both.
    fn cancel(&mut self, sim: &mut Simulation<Queue>, pick: u16) {
        if self.handles.is_empty() {
            return;
        }
        let (handle, key) = self.handles[usize::from(pick) % self.handles.len()];
        sim.cancel(handle);
        self.pending.remove(&key);
    }

    /// Schedules `spawn` relative to the clock, then cancels `cancel`.
    fn apply(&mut self, sim: &mut Simulation<Queue>, spawn: &[(u8, u8)], cancel: &[u16]) {
        for &(kind, gap) in spawn {
            let now = sim.now();
            match kind % 3 {
                0 => self.schedule(sim, now, true),
                2 if now.as_secs() == 0.0 => self.schedule(sim, SimTime::from_secs(-0.0), false),
                _ => {
                    let at = now + SimDuration::from_secs(f64::from(gap % 8) * 0.25);
                    self.schedule(sim, at, false);
                }
            }
        }
        for &pick in cancel {
            self.cancel(sim, pick);
        }
    }

    fn fire(&mut self, sim: &mut Simulation<Queue>, key: (u64, u64)) {
        let (first, ()) = self.pending.pop_first().expect("the model has it pending");
        assert_eq!(first, key, "dispatched out of (time, seq) order");
        assert_eq!(sim.now().as_secs(), f64::from_bits(key.0));
        self.fired += 1;
        if self.next_seq < EVENT_BUDGET {
            let (spawn, cancel) = self.actions[key.1 as usize % self.actions.len()].clone();
            self.apply(sim, &spawn, &cancel);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The queue against a `BTreeMap` model: every dispatch is the model's
    /// first `(time bits, seq)` entry, across same-instant events scheduled
    /// from inside events (`schedule_now` and `schedule_at(now)`), `-0.0`
    /// instants, cancels of pending, fired and already cancelled events,
    /// cancel floods that compact the heap and the ring, and `run_until`
    /// resumes whose deadlines land on event instants.
    #[test]
    fn queue_dispatches_in_model_order(
        actions in proptest::collection::vec(
            (
                proptest::collection::vec((0u8..3, 0u8..8), 0..4),
                proptest::collection::vec(0u16..512, 0..3),
            ),
            1..16,
        ),
        // One top-level step per resume: events scheduled and handles
        // cancelled from outside the loop, whether to flood the queue with
        // 200 events and cancel all but ten (past the compaction threshold
        // of 64 dead keys), and how far, in quarter-seconds, the next
        // deadline lies.
        resumes in proptest::collection::vec(
            (
                proptest::collection::vec((0u8..3, 0u8..8), 0..6),
                proptest::collection::vec(0u16..512, 0..4),
                any::<bool>(),
                0u8..6,
            ),
            1..12,
        ),
    ) {
        let mut sim = Simulation::new();
        let mut queue = Queue {
            pending: BTreeMap::new(),
            next_seq: 0,
            handles: Vec::new(),
            actions,
            fired: 0,
        };
        let mut deadline = 0.0;
        for (spawn, cancel, flood, gap) in &resumes {
            queue.apply(&mut sim, spawn, cancel);
            if *flood {
                let first = queue.handles.len();
                let flood_spawn: Vec<(u8, u8)> = (0..200u8).map(|i| (i % 3, i % 7 + 1)).collect();
                queue.apply(&mut sim, &flood_spawn, &[]);
                for i in first + 10..queue.handles.len() {
                    let (handle, key) = queue.handles[i];
                    sim.cancel(handle);
                    queue.pending.remove(&key);
                }
            }
            deadline += f64::from(*gap) * 0.25;
            let t = sim.run_until(&mut queue, Some(SimTime::from_secs(deadline)));
            prop_assert_eq!(t.as_secs(), deadline);
            if let Some((&(at, _), ())) = queue.pending.first_key_value() {
                prop_assert!(f64::from_bits(at) > deadline, "an event due by the deadline is still pending");
            }
        }
        sim.run(&mut queue);
        prop_assert!(queue.pending.is_empty(), "{} events never fired", queue.pending.len());
        prop_assert!(sim.is_idle());
        prop_assert_eq!(sim.events_processed(), queue.fired as u64);
    }
}
