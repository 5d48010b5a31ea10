//! Max-min fair-share bandwidth links.
//!
//! A link models a network or storage channel of fixed aggregate capacity.
//! Links live in an arena inside the [`Simulation`] and are addressed by a
//! `Copy` [`LinkId`], so the components that use one (a cluster's NICs, the
//! object store's data plane) hold only the id. Concurrent transfers
//! receive max-min fair shares (water-filling over optional per-flow caps);
//! whenever the set of active transfers changes, progress is advanced under
//! the old shares and the next completion is re-planned under the new ones.
//! This is the mechanism behind every contention effect in the cloud
//! models: master-NIC bottlenecks, S3 aggregate-bandwidth saturation, and
//! cluster-network congestion.
//!
//! **One water-fill per event.** A change to the transfer set cancels the
//! pending completion event, reserves an engine sequence number and marks
//! the link dirty; the next completion is computed once per event, when the
//! engine flushes its dirty links after the event returns. A burst of n
//! arrivals inside one event (a wide VM task starting every component on one
//! NIC) costs one water-fill, one min-scan and one scheduled event, not n of
//! each. This is exact: between the link's last change in an event and the
//! flush, no other event runs and the clock does not move, so the flush sees
//! the state the last change left, computes the next completion with the
//! same floating-point operations in the same order, and schedules it under
//! the sequence number reserved at that change — the `(at, seq)` key an
//! eager replan at that change would have given it.
//!
//! The water-fill itself is a chain of divisions, each waiting on the last,
//! and most replans repeat an answer the link has already computed. When
//! every flow's cap is at least its fair share at every step, each
//! `min(cap, fair)` returns `fair`, so the shares depend only on the link's
//! fixed capacity and the flow count n. Each link keeps a memo of its
//! four most recent such sequences, as (n, largest fair share,
//! shares in water-fill order). A replan with n flows whose smallest cap is
//! at least an n-entry's largest fair share copies that entry's shares
//! instead of dividing: the loop would compute the same fair share at every
//! step and return it from every `min`, so the copy is bit-identical. Any
//! other replan runs the loop; if that loop was all-fair, its shares
//! replace the oldest entry, in that entry's buffer. Sequences longer than
//! `MEMO_MAX_FLOWS` are not kept, so the memo is bounded per link (at
//! most 4 × 2048 shares, 64 KiB, and only on a link that carried that
//! many flows at once). The min-scan that follows folds `f64::min` over
//! four independent lanes: the quotients are never NaN or `-0.0`, so
//! the minimum is one value whatever the order, and the lanes give it
//! without one long chain of dependent compares.
//!
//! A completion tick finds the finished transfers in one scan. A lone
//! finisher, the common case, is removed by binary search on both indexes;
//! several are removed in one `retain` pass over each. A transfer's
//! completion is a value of the world's event type; the tick hands each
//! finished one to [`Model::handle`] inline, in id order, from a buffer kept
//! between ticks, so a tick allocates nothing.
//!
//! **Same-instant cascades.** A tick fires exactly at a planned completion,
//! so a transfer that has not crossed the completion epsilon there holds
//! only floating-point error: advancing by `remaining / share` can round to
//! a step below one ulp of the clock. The tick force-finishes the transfer
//! closest to done (the first minimum in id order). Late in a long run,
//! hundreds of transfers on one link can be due within one ulp (the
//! sub-cluster fabric links of an all-VM 1000Genome run), and the link
//! finishes them one forced tick at a time, all at that instant, each
//! after the events the previous tick's completions scheduled. Without
//! help each such tick scans for finished transfers, scans for the
//! smallest residue, and its flush reruns the water-fill and the min-scan:
//! about 2·F² flow visits for F transfers. Since the clock has not moved,
//! the residues have not either, so the second force-finish at one instant
//! sorts the live transfers once by `(remaining, id)`, the order the
//! min-scan picks in, and later ticks pop from that order without a scan.
//! While the order holds, a flush plans the next tick in O(1): no share is
//! below `min(smallest cap, capacity / n)` less the water-fill's rounding (a
//! relative `(n + ln n + 2)·2⁻⁵³`, below 1e-9 for n ≤ 2²⁰), so if the
//! head's `remaining` over that floor, added to now, still gives now, the
//! min-scan would give now as well (division and addition round
//! monotonically). The tick is scheduled at now under the reserved
//! sequence number, and the shares stay dirty until something needs them:
//! they depend only on the transfer set. Any insert, any cancel and any
//! advance that moves the clock drops the order. A cascade thus costs one
//! sort plus O(1) per tick; residues, completions and `TransferEnd` records
//! come in the order the scans gave. Debug builds also run the water-fill
//! and min-scan beside each shortcut and assert that they plan now.
//!
//! A transfer can also start after a delay (an object store's request
//! latency): [`Simulation::start_transfer_in`] parks its parameters in a
//! slab and queues one engine event that starts it.
//!
//! Shares are cached per transfer and recomputed lazily: the cache is
//! invalidated only when the transfer set (or a cap) changes, so the share
//! consumers on a completion tick (advance, flush) trigger at most one
//! water-fill pass, and the pass itself runs over a slab + sorted index
//! vectors with no per-call allocation. The recompute walks flows in
//! exactly the order the original per-call `BTreeMap` build did (cap
//! ascending, id breaking ties), so every floating-point operation happens
//! in the same sequence and simulated results are bit-for-bit unchanged.

use crate::engine::{EventHandle, Model, ReservedSeq, Simulation};
use crate::time::{SimDuration, SimTime};
use crate::trace::{TraceEvent, Tracer};

/// Completion epsilon: transfers within this many bytes of done are finished.
const EPS_BYTES: f64 = 1e-6;

/// All-fair water-fills a link's share memo keeps.
const MEMO_ENTRIES: usize = 4;

/// Longest all-fair water-fill a link's share memo keeps.
const MEMO_MAX_FLOWS: usize = 2048;

/// Independent accumulators of the min-scan.
const LANES: usize = 4;

/// Identifier of a fair-share link in a [`Simulation`]'s arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(u32);

/// Identifier of an in-flight transfer on a particular link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TransferId(u64);

struct Transfer<E> {
    id: u64,
    remaining: f64,
    /// Per-flow bandwidth cap in bytes/sec (`f64::INFINITY` when uncapped).
    cap: f64,
    /// Cached fair share in bytes/sec; valid only while `shares_dirty` is
    /// false on the owning link.
    share: f64,
    /// Dispatched when the last byte arrives.
    on_done: E,
}

/// A transfer waiting out its request latency before it joins its link.
pub(crate) struct DelayedTransfer<E> {
    link: LinkId,
    bytes: f64,
    cap: Option<f64>,
    on_done: E,
}

/// One all-fair water-fill: every flow got its fair share, the capacity
/// left over the flows left.
struct FairFill {
    /// The largest fair share in `shares`: `n` flows whose smallest cap is
    /// at least this get exactly `shares`.
    max_fair: f64,
    /// Shares in water-fill (`by_cap`) order; its length is the flow count.
    shares: Vec<f64>,
}

/// A link's most recent all-fair water-fills, at most one per flow count
/// (the sequence for a count is unique), replaced oldest first.
#[derive(Default)]
struct ShareMemo {
    fills: Vec<FairFill>,
    /// The entry the next store replaces once `fills` is full.
    oldest: usize,
}

impl ShareMemo {
    /// The entry for `n` flows, if the memo has one.
    fn find(&self, n: usize) -> Option<&FairFill> {
        self.fills.iter().find(|f| f.shares.len() == n)
    }

    /// Keeps an all-fair water-fill's shares, reusing the buffer of the
    /// entry it replaces.
    fn store(&mut self, max_fair: f64, shares: impl Iterator<Item = f64>) {
        let fill = if self.fills.len() < MEMO_ENTRIES {
            self.fills.push(FairFill {
                max_fair,
                shares: Vec::new(),
            });
            self.fills.last_mut().expect("just pushed")
        } else {
            let fill = &mut self.fills[self.oldest];
            self.oldest = (self.oldest + 1) % MEMO_ENTRIES;
            fill.max_fair = max_fair;
            fill
        };
        fill.shares.clear();
        fill.shares.extend(shares);
    }
}

/// One fair-share link of the arena.
pub(crate) struct Link<E> {
    name: String,
    capacity: f64,
    /// Slab of transfers; `None` entries are free and listed in `free`.
    slab: Vec<Option<Transfer<E>>>,
    free: Vec<u32>,
    /// Slot indices ordered by transfer id ascending. Ids are allocated
    /// monotonically, so arrivals append; removals shift (cheap: `u32`s).
    by_id: Vec<u32>,
    /// Slot indices ordered by (cap, id) ascending — the water-fill order.
    by_cap: Vec<u32>,
    /// Set whenever the transfer set changes; cleared by `refresh_shares`.
    shares_dirty: bool,
    /// Recent all-fair water-fills, reused while the caps allow.
    memo: ShareMemo,
    /// A same-instant cascade's force-finish order: every live transfer's
    /// `(remaining bits, id)`, descending, so the next to finish is last.
    /// Valid while non-empty; any insert, any cancel and any advance that
    /// moves the clock empties it.
    cascade: Vec<(u64, u64)>,
    /// The instant of the latest force-finish; a second one at the same
    /// instant sorts the cascade order.
    forced_at: Option<SimTime>,
    next_id: u64,
    last_update: SimTime,
    completion_event: Option<EventHandle>,
    /// Sequence number reserved by the latest change to the transfer set;
    /// `Some` exactly while the link is on the engine's dirty list.
    pending_flush: Option<ReservedSeq>,
    /// Completions of the finishing tick; kept between ticks (empty) so a
    /// tick does not allocate.
    done_buf: Vec<E>,
    bytes_delivered: f64,
}

impl<E> Link<E> {
    fn transfer(&self, slot: u32) -> &Transfer<E> {
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

    fn insert(&mut self, t: Transfer<E>) {
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
        self.cascade.clear();
    }

    fn remove(&mut self, id: u64) -> Option<Transfer<E>> {
        let id_pos = self.find_by_id(id)?;
        self.cascade.clear();
        Some(self.remove_at(id_pos))
    }

    /// Removes the transfer at `id_pos` in `by_id`, finding its `by_cap`
    /// entry by binary search on `(cap, id)`.
    fn remove_at(&mut self, id_pos: usize) -> Transfer<E> {
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

    /// Detaches every finished transfer, appending their completions to
    /// `done` in id order. One scan finds the first; if nothing crossed the
    /// epsilon, the transfer closest to done is force-finished instead. A
    /// lone finisher (the common tick) is removed by binary search; several
    /// are removed in one `retain` pass over each index. In a cascade
    /// nothing has moved since the order was sorted, so nothing crossed the
    /// epsilon either: the tick pops the order's head without a scan.
    fn remove_finished(&mut self, now: SimTime, done: &mut Vec<E>, tracer: &Tracer) {
        if let Some(pos) = self.pop_cascade() {
            return self.detach(pos, now, done, tracer);
        }
        let finished = |s: &Self, slot: u32| s.transfer(slot).remaining <= EPS_BYTES;
        let first = match self.by_id.iter().position(|&slot| finished(self, slot)) {
            Some(pos) => pos,
            None if self.by_id.is_empty() => return,
            None => self.force_finish_closest(now),
        };
        if !self.by_id[first + 1..]
            .iter()
            .any(|&slot| finished(self, slot))
        {
            return self.detach(first, now, done, tracer);
        }
        let Link {
            slab,
            free,
            by_id,
            by_cap,
            shares_dirty,
            name,
            ..
        } = self;
        let live = |slab: &[Option<Transfer<E>>], slot: u32| {
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

    /// Removes the transfer at `id_pos` in `by_id` and hands over its
    /// completion.
    fn detach(&mut self, id_pos: usize, now: SimTime, done: &mut Vec<E>, tracer: &Tracer) {
        let t = self.remove_at(id_pos);
        tracer.emit_verbose(now, || TraceEvent::TransferEnd {
            link: self.name.clone(),
            id: t.id,
        });
        done.push(t.on_done);
    }

    /// Recomputes max-min fair shares (water-filling with per-flow caps) if
    /// the transfer set changed since the last pass. The sum of shares never
    /// exceeds capacity. Flows are visited cap-ascending with id breaking
    /// ties — identical operation order to a stable sort over an
    /// id-ascending scan, which is what the per-call rebuild used to do.
    /// An all-fair pass the memo holds is copied instead (see the module
    /// docs).
    fn refresh_shares(&mut self) {
        if !self.shares_dirty {
            return;
        }
        self.shares_dirty = false;
        let n = self.by_cap.len();
        let Some(&first) = self.by_cap.first() else {
            return;
        };
        let min_cap = self.transfer(first).cap;
        let Link {
            capacity,
            slab,
            by_cap,
            memo,
            ..
        } = self;
        let known = memo.find(n);
        if let Some(fill) = known.filter(|f| min_cap >= f.max_fair) {
            for (&slot, &share) in by_cap.iter().zip(&fill.shares) {
                slab[slot as usize].as_mut().expect("live slot").share = share;
            }
            return;
        }
        let mut remaining_cap = *capacity;
        let (mut all_fair, mut max_fair) = (true, 0.0f64);
        for (i, &slot) in by_cap.iter().enumerate() {
            let n_left = (n - i) as f64;
            let fair = remaining_cap / n_left;
            let t = slab[slot as usize].as_mut().expect("live slot");
            let share = t.cap.min(fair);
            t.share = share;
            remaining_cap -= share;
            all_fair &= t.cap >= fair;
            max_fair = max_fair.max(fair);
        }
        if all_fair && known.is_none() && n <= MEMO_MAX_FLOWS {
            let shares = by_cap
                .iter()
                .map(|&slot| slab[slot as usize].as_ref().expect("live slot").share);
            memo.store(max_fair, shares);
        }
    }

    /// Advances every transfer's progress from `last_update` to `now` under
    /// the current shares.
    fn advance(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last_update).as_secs();
        if dt > 0.0 && !self.by_id.is_empty() {
            self.cascade.clear();
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
    ///
    /// The second force-finish at one instant starts a cascade (see the
    /// module docs): it sorts the live transfers by `(remaining, id)` once,
    /// the order the min-scan picks in, and takes the head.
    fn force_finish_closest(&mut self, now: SimTime) -> usize {
        if self.forced_at.replace(now) == Some(now) {
            let Link {
                slab,
                by_id,
                cascade,
                ..
            } = self;
            cascade.extend(by_id.iter().map(|&slot| {
                let t = slab[slot as usize].as_ref().expect("live slot");
                (t.remaining.to_bits(), t.id)
            }));
            sort_cascade(cascade);
            return self.pop_cascade().expect("non-empty");
        }
        let pos = (0..self.by_id.len())
            .min_by(|&a, &b| {
                self.transfer(self.by_id[a])
                    .remaining
                    .partial_cmp(&self.transfer(self.by_id[b]).remaining)
                    .expect("remaining is never NaN")
            })
            .expect("non-empty");
        self.finish_residue(pos);
        pos
    }

    /// Force-finishes the head of the cascade order, if there is one, and
    /// returns its position in `by_id`.
    fn pop_cascade(&mut self) -> Option<usize> {
        let (_, id) = self.cascade.pop()?;
        let pos = self.find_by_id(id).expect("live transfer");
        self.finish_residue(pos);
        Some(pos)
    }

    /// Finishes the transfer at `pos` in `by_id`, counting its residue as
    /// delivered.
    fn finish_residue(&mut self, pos: usize) {
        let t = self.slab[self.by_id[pos] as usize]
            .as_mut()
            .expect("live slot");
        self.bytes_delivered += t.remaining;
        t.remaining = 0.0;
    }

    /// Whether a cascade's next tick is due at `now` again, decided in
    /// O(1) from a floor under every share (see the module docs). The
    /// shares stay dirty.
    fn cascade_due_now(&mut self, now: SimTime) -> bool {
        let Some(&(remaining, _)) = self.cascade.last() else {
            return false;
        };
        let n = self.by_cap.len();
        if n > 1 << 20 {
            return false;
        }
        let min_cap = self.transfer(self.by_cap[0]).cap;
        let floor = min_cap.min(self.capacity / n as f64 * (1.0 - 1e-9));
        let now = now.as_secs();
        // A cap of zero starves its flow; the full path reports that.
        let due = floor > 0.0 && now + f64::from_bits(remaining) / floor == now;
        #[cfg(debug_assertions)]
        if due {
            let dt = self.next_completion_secs();
            assert!(
                now + dt == now,
                "cascade bound missed on link '{}'",
                self.name
            );
            self.shares_dirty = true;
        }
        due
    }

    /// Seconds until the next transfer completes under fresh shares: one
    /// water-fill and one min-scan, folded in `LANES` independent lanes.
    fn next_completion_secs(&mut self) -> f64 {
        self.refresh_shares();
        let eta = |slot: u32| {
            let t = self.transfer(slot);
            if t.share <= 0.0 {
                f64::INFINITY
            } else {
                t.remaining / t.share
            }
        };
        let mut lanes = [f64::INFINITY; LANES];
        let mut chunks = self.by_id.chunks_exact(LANES);
        for chunk in &mut chunks {
            for (lane, &slot) in lanes.iter_mut().zip(chunk) {
                *lane = lane.min(eta(slot));
            }
        }
        for (lane, &slot) in lanes.iter_mut().zip(chunks.remainder()) {
            *lane = lane.min(eta(slot));
        }
        let dt = lanes.into_iter().fold(f64::INFINITY, f64::min);
        assert!(dt.is_finite(), "transfer on link '{}' starved", self.name);
        dt
    }
}

/// Sorts a cascade's `(remaining bits, id)` keys descending. Every residue
/// in a cascade is above the completion epsilon, and the bits of positive
/// floats order as their values, so this is `(remaining, id)` order, the
/// order the min-scan picks in. Not generic, so one copy serves every
/// world's links.
fn sort_cascade(keys: &mut [(u64, u64)]) {
    keys.sort_unstable_by(|a, b| b.cmp(a));
}

impl<W: Model> Simulation<W> {
    /// Adds a link with `capacity_bps` aggregate bytes/sec to the arena.
    pub fn add_link(&mut self, name: impl Into<String>, capacity_bps: f64) -> LinkId {
        assert!(
            capacity_bps.is_finite() && capacity_bps > 0.0,
            "link capacity must be positive"
        );
        let id = LinkId(u32::try_from(self.links.len()).expect("link index overflow"));
        self.links.push(Link {
            name: name.into(),
            capacity: capacity_bps,
            slab: Vec::new(),
            free: Vec::new(),
            by_id: Vec::new(),
            by_cap: Vec::new(),
            shares_dirty: false,
            memo: ShareMemo::default(),
            cascade: Vec::new(),
            forced_at: None,
            next_id: 0,
            last_update: SimTime::ZERO,
            completion_event: None,
            pending_flush: None,
            done_buf: Vec::new(),
            bytes_delivered: 0.0,
        });
        id
    }

    fn link_mut(&mut self, link: LinkId) -> &mut Link<W::Event> {
        &mut self.links[link.0 as usize]
    }

    /// Number of in-flight transfers on `link`.
    pub fn active_transfers(&self, link: LinkId) -> usize {
        self.links[link.0 as usize].by_id.len()
    }

    /// Total bytes `link` delivered so far (advanced to now).
    pub fn bytes_delivered(&mut self, link: LinkId) -> f64 {
        let now = self.now();
        let l = self.link_mut(link);
        l.advance(now);
        l.bytes_delivered
    }

    /// The current fair share of every transfer in flight on `link`, as
    /// `(transfer id, bytes/sec)` in id order. Diagnostic surface for tests
    /// and tools; forces a share refresh if the set changed.
    pub fn current_shares(&mut self, link: LinkId) -> Vec<(u64, f64)> {
        let l = self.link_mut(link);
        l.refresh_shares();
        l.by_id
            .iter()
            .map(|&slot| {
                let t = l.transfer(slot);
                (t.id, t.share)
            })
            .collect()
    }

    /// Starts a transfer of `bytes` on `link` with an optional per-flow cap,
    /// handing `on_done` to the world, inline in the completion tick, when
    /// the last byte arrives. A zero-byte transfer schedules `on_done` at
    /// the current instant instead.
    pub fn start_transfer(
        &mut self,
        link: LinkId,
        bytes: f64,
        per_flow_cap: Option<f64>,
        on_done: W::Event,
    ) -> TransferId {
        assert!(bytes.is_finite() && bytes >= 0.0, "invalid transfer size");
        if bytes <= EPS_BYTES {
            self.schedule_now(on_done);
            // Allocate an id anyway so callers can treat it uniformly.
            let l = self.link_mut(link);
            let id = l.next_id;
            l.next_id += 1;
            return TransferId(id);
        }
        let now = self.now();
        let l = &mut self.links[link.0 as usize];
        l.advance(now);
        let id = l.next_id;
        l.next_id += 1;
        l.insert(Transfer {
            id,
            remaining: bytes,
            cap: per_flow_cap.unwrap_or(f64::INFINITY),
            share: 0.0,
            on_done,
        });
        self.tracer.emit_verbose(now, || TraceEvent::TransferStart {
            link: l.name.clone(),
            id,
            bytes,
        });
        self.replan(link);
        TransferId(id)
    }

    /// Cancels an in-flight transfer; its completion callback never fires.
    /// Returns the bytes that were still outstanding (0 if already finished).
    pub fn cancel_transfer(&mut self, link: LinkId, id: TransferId) -> f64 {
        let now = self.now();
        let l = self.link_mut(link);
        l.advance(now);
        let remaining = l.remove(id.0).map(|t| t.remaining);
        if remaining.is_some() {
            self.replan(link);
        }
        remaining.unwrap_or(0.0)
    }

    /// Marks the next completion stale after a change to the transfer set:
    /// cancels the scheduled completion, reserves the sequence number an
    /// event scheduled now would take, and puts the link on the dirty list
    /// once per event. An empty link needs no completion: a flush due from
    /// earlier in the event finds it empty too, unless a later change
    /// refills it and reserves its own number.
    fn replan(&mut self, link: LinkId) {
        if let Some(h) = self.link_mut(link).completion_event.take() {
            self.cancel(h);
        }
        if self.link_mut(link).by_id.is_empty() {
            return;
        }
        let seq = self.reserve_seq();
        if self.link_mut(link).pending_flush.replace(seq).is_none() {
            self.dirty_links.push(link);
        }
    }

    /// Schedules `link`'s next completion from the state the event left:
    /// one water-fill, one min-scan, one event under the latest reservation.
    /// A cascade tick due at the same instant skips both.
    pub(crate) fn flush_link(&mut self, link: LinkId) {
        let now = self.now();
        let l = self.link_mut(link);
        let seq = l
            .pending_flush
            .take()
            .expect("dirty link has a reservation");
        if l.by_id.is_empty() {
            return;
        }
        let at = if l.cascade_due_now(now) {
            now
        } else {
            now + SimDuration::from_secs(l.next_completion_secs())
        };
        let h = self.schedule_reserved(at, seq, link);
        self.link_mut(link).completion_event = Some(h);
    }

    /// A link's planned completion: advances it, detaches the finished
    /// transfers, hands their completions to the world, and replans.
    pub(crate) fn on_completion_tick(&mut self, world: &mut W, link: LinkId) {
        let now = self.now();
        let l = &mut self.links[link.0 as usize];
        l.completion_event = None;
        l.advance(now);
        let mut finished = std::mem::take(&mut l.done_buf);
        l.remove_finished(now, &mut finished, &self.tracer);
        for on_done in finished.drain(..) {
            world.handle(on_done, self);
        }
        self.link_mut(link).done_buf = finished;
        self.replan(link);
    }

    /// [`start_transfer`](Self::start_transfer) after `delay`: one event,
    /// scheduled now, starts the transfer when the delay has passed.
    pub fn start_transfer_in(
        &mut self,
        delay: SimDuration,
        link: LinkId,
        bytes: f64,
        per_flow_cap: Option<f64>,
        on_done: W::Event,
    ) {
        let parked = Some(DelayedTransfer {
            link,
            bytes,
            cap: per_flow_cap,
            on_done,
        });
        let index = match self.free_delayed.pop() {
            Some(i) => {
                self.delayed[i as usize] = parked;
                i
            }
            None => {
                self.delayed.push(parked);
                u32::try_from(self.delayed.len() - 1).expect("delayed transfer overflow")
            }
        };
        self.schedule_transfer_start(self.now() + delay, index);
    }

    /// Starts the delayed transfer parked at `index`.
    pub(crate) fn start_delayed_transfer(&mut self, index: u32) {
        let t = self.delayed[index as usize]
            .take()
            .expect("a queued start has its transfer");
        self.free_delayed.push(index);
        self.start_transfer(t.link, t.bytes, t.cap, t.on_done);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::testing::{call, Boxed, Call};

    type Done = Vec<(usize, f64)>;

    /// Runs `jobs` — `(bytes, cap, start_time)` — on a fresh link of
    /// `capacity` and returns their completion times in job order, with the
    /// link's delivered bytes.
    fn finish_times(capacity: f64, jobs: &[(f64, Option<f64>, f64)]) -> (Vec<f64>, f64) {
        let mut sim = Simulation::new();
        let link = sim.add_link("l", capacity);
        for (i, &(bytes, cap, start)) in jobs.iter().enumerate() {
            let done = call(move |out: &mut Done, sim| out.push((i, sim.now().as_secs())));
            sim.schedule_at(
                SimTime::from_secs(start),
                call(move |_: &mut Done, sim| {
                    sim.start_transfer(link, bytes, cap, done);
                }),
            );
        }
        let mut v = Boxed(Vec::new());
        sim.run(&mut v);
        assert_eq!(sim.active_transfers(link), 0);
        v.0.sort_by_key(|&(i, _)| i);
        let times = v.0.into_iter().map(|(_, t)| t).collect();
        (times, sim.bytes_delivered(link))
    }

    #[test]
    fn single_transfer_uses_full_capacity() {
        let (t, _) = finish_times(100.0, &[(1000.0, None, 0.0)]);
        assert!((t[0] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn two_equal_transfers_share_evenly() {
        let (t, _) = finish_times(100.0, &[(500.0, None, 0.0), (500.0, None, 0.0)]);
        // Each gets 50 B/s -> both complete at t=10.
        assert!((t[0] - 10.0).abs() < 1e-9);
        assert!((t[1] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn short_transfer_frees_bandwidth_for_long_one() {
        // A: 1000 bytes, B: 100 bytes. Until B is done both run at 50 B/s.
        // B finishes at t=2 (100/50). A then has 900 bytes left at 100 B/s,
        // finishing at 2 + 9 = 11.
        let (t, _) = finish_times(100.0, &[(1000.0, None, 0.0), (100.0, None, 0.0)]);
        assert!((t[1] - 2.0).abs() < 1e-9, "B at {}", t[1]);
        assert!((t[0] - 11.0).abs() < 1e-9, "A at {}", t[0]);
    }

    #[test]
    fn per_flow_cap_limits_share() {
        // Capped at 10 B/s: 100 bytes takes 10 s even though link is idle.
        let (t, _) = finish_times(100.0, &[(100.0, Some(10.0), 0.0)]);
        assert!((t[0] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn water_filling_redistributes_capped_leftovers() {
        // One flow capped at 20 B/s, one uncapped: uncapped gets 80 B/s.
        // capped: 200/20 = 10 s; uncapped: 800/80 = 10 s.
        let (t, _) = finish_times(100.0, &[(200.0, Some(20.0), 0.0), (800.0, None, 0.0)]);
        assert!((t[0] - 10.0).abs() < 1e-9);
        assert!((t[1] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn late_arrival_slows_down_existing_transfer() {
        // A: 1000 bytes at t=0, alone until t=5 (500 done). B: 250 bytes at
        // t=5; both at 50 B/s. B done at t=10. A has 250 left at t=10, full
        // speed -> done at t=12.5.
        let (t, _) = finish_times(100.0, &[(1000.0, None, 0.0), (250.0, None, 5.0)]);
        assert!((t[1] - 10.0).abs() < 1e-9, "B at {}", t[1]);
        assert!((t[0] - 12.5).abs() < 1e-9, "A at {}", t[0]);
    }

    #[test]
    fn zero_byte_transfer_completes_immediately() {
        let (t, _) = finish_times(100.0, &[(0.0, None, 3.0)]);
        assert!((t[0] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn cancel_returns_outstanding_bytes_and_suppresses_callback() {
        #[derive(Default)]
        struct World {
            fired: bool,
            id: Option<TransferId>,
        }
        let mut sim = Simulation::new();
        let link = sim.add_link("l", 100.0);
        sim.schedule_at(
            SimTime::ZERO,
            call(move |w: &mut World, sim| {
                let fire = call(|w: &mut World, _| w.fired = true);
                w.id = Some(sim.start_transfer(link, 1000.0, None, fire));
            }),
        );
        sim.schedule_at(
            SimTime::from_secs(4.0),
            call(move |w: &mut World, sim| {
                let remaining = sim.cancel_transfer(link, w.id.expect("started"));
                // 4 s at 100 B/s -> 600 bytes left.
                assert!((remaining - 600.0).abs() < 1e-9);
            }),
        );
        let mut w = Boxed(World::default());
        sim.run(&mut w);
        assert!(!w.0.fired);
        assert_eq!(sim.active_transfers(link), 0);
    }

    #[test]
    fn bytes_delivered_accumulates() {
        let (_, delivered) = finish_times(100.0, &[(300.0, None, 0.0), (200.0, None, 1.0)]);
        assert!((delivered - 500.0).abs() < 1e-6);
    }

    #[test]
    fn many_concurrent_transfers_conserve_capacity() {
        // 10 transfers of 100 bytes each on a 100 B/s link: aggregate work is
        // 1000 bytes -> exactly 10 seconds regardless of sharing pattern.
        let jobs: Vec<(f64, Option<f64>, f64)> = (0..10).map(|_| (100.0, None, 0.0)).collect();
        let (t, _) = finish_times(100.0, &jobs);
        for ti in t {
            assert!((ti - 10.0).abs() < 1e-9);
        }
    }

    #[test]
    fn current_shares_water_fills_caps_then_splits_the_rest() {
        let mut sim = Simulation::<()>::new();
        let link = sim.add_link("l", 100.0);
        sim.start_transfer(link, 1.0e6, Some(10.0), ());
        sim.start_transfer(link, 1.0e6, None, ());
        sim.start_transfer(link, 1.0e6, None, ());
        sim.run_until(&mut (), Some(SimTime::from_secs(0.0)));
        let shares = sim.current_shares(link);
        assert_eq!(shares.len(), 3);
        // Capped flow saturates at 10; the remaining 90 splits 45/45.
        assert!((shares[0].1 - 10.0).abs() < 1e-12);
        assert!((shares[1].1 - 45.0).abs() < 1e-12);
        assert!((shares[2].1 - 45.0).abs() < 1e-12);
        let total: f64 = shares.iter().map(|&(_, s)| s).sum();
        assert!(total <= 100.0 + 1e-9);
    }

    #[test]
    fn delayed_transfers_start_after_their_delay() {
        let mut sim = Simulation::new();
        let link = sim.add_link("l", 100.0);
        let done = call(|out: &mut Vec<f64>, sim| out.push(sim.now().as_secs()));
        sim.start_transfer_in(SimDuration::from_secs(2.0), link, 300.0, None, done);
        // Zero bytes after the delay: the completion fires at its end.
        let empty = call(|out: &mut Vec<f64>, sim| out.push(sim.now().as_secs()));
        sim.start_transfer_in(SimDuration::from_secs(1.0), link, 0.0, None, empty);
        let mut out = Boxed(Vec::new());
        sim.run(&mut out);
        assert_eq!(out.0, vec![1.0, 5.0]);
        assert!(sim.delayed.iter().all(Option::is_none));
    }

    #[test]
    fn slab_slots_are_reused_without_id_confusion() {
        // Drive enough arrival/completion churn that slots recycle, then
        // check ids remain unique and everything completes.
        let jobs: Vec<(f64, Option<f64>, f64)> = (0..50)
            .map(|i| (100.0, None, (i % 7) as f64 * 0.5))
            .collect();
        let (t, _) = finish_times(1000.0, &jobs);
        assert_eq!(t.len(), 50);
    }

    /// The memo keeps an all-fair water-fill and reuses it for the same
    /// flow count while the smallest cap is at least its largest fair
    /// share, and not once that cap is one ulp below. The entry is
    /// overwritten with marker shares so that a reuse shows.
    #[test]
    fn memo_entry_is_not_reused_below_its_largest_fair_share() {
        let mut sim = Simulation::<()>::new();
        let link = sim.add_link("l", 100.0);
        let first = sim.start_transfer(link, 1.0e6, None, ());
        sim.start_transfer(link, 1.0e6, None, ());
        sim.start_transfer(link, 1.0e6, None, ());
        sim.run_until(&mut (), Some(SimTime::ZERO));
        let fair: Vec<f64> = sim.current_shares(link).iter().map(|s| s.1).collect();
        // 100 / 3 rounds up; the later steps' shares round down.
        let max_fair = fair[0];
        assert!(fair[1] < max_fair && fair[2] < max_fair);
        let memo = &mut sim.links[link.0 as usize].memo;
        let entry = memo.fills.iter_mut().find(|f| f.shares.len() == 3);
        let entry = entry.expect("an all-fair fill is kept");
        assert_eq!(entry.max_fair.to_bits(), max_fair.to_bits());
        assert_eq!(entry.shares, fair);
        entry.shares = vec![1.0, 2.0, 3.0];

        // Three flows again, the smallest cap exactly the largest fair
        // share: the entry is copied, in water-fill order (capped first).
        sim.cancel_transfer(link, first);
        let capped = sim.start_transfer(link, 1.0e6, Some(max_fair), ());
        sim.run_until(&mut (), Some(SimTime::ZERO));
        let shares: Vec<f64> = sim.current_shares(link).iter().map(|s| s.1).collect();
        assert_eq!(shares, [2.0, 3.0, 1.0]);

        // One ulp below it: the water-fill runs, and the capped flow gets
        // its cap.
        sim.cancel_transfer(link, capped);
        let below = max_fair.next_down();
        sim.start_transfer(link, 1.0e6, Some(below), ());
        sim.run_until(&mut (), Some(SimTime::ZERO));
        let shares: Vec<(u64, f64)> = sim.current_shares(link);
        assert_eq!(shares[2], (4, below));
        let rest = (100.0 - below) / 2.0;
        assert_eq!(shares[..2], [(1, rest), (2, 100.0 - below - rest)]);
    }

    /// What the cascade test's world saw, in order.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Seen {
        /// Transfer `i` completed at the instant with these bits, in the
        /// engine event with this count.
        Done(usize, u64, u64),
        /// The same-instant event transfer `i`'s completion scheduled.
        After(usize),
    }

    #[derive(Default)]
    struct Cascade {
        seen: Vec<Seen>,
        ids: Vec<TransferId>,
        cancelled: Option<f64>,
    }

    /// Transfers in the cascade.
    const CASCADE_N: usize = 330;
    /// The transfer the 100th completion starts.
    const LATE: usize = CASCADE_N;
    /// The transfer the 200th completion cancels.
    const CANCELLED: usize = CASCADE_N - 1;

    /// The uncapped group's completion order in the cascade test.
    const UNCAPPED_ORDER: [usize; 109] = [
        86, 89, 92, 95, 98, 101, 80, 83, 104, 107, 110, 113, 74, 77, 116, 119, 122, 125, 68, 71,
        128, 131, 134, 62, 65, 137, 140, 143, 56, 59, 146, 149, 152, 50, 53, 155, 158, 41, 44, 47,
        161, 164, 167, 35, 38, 170, 173, 17, 20, 23, 26, 29, 32, 176, 179, 182, 185, 8, 11, 14,
        188, 2, 5, 191, 194, 197, 200, 203, 206, 209, 212, 215, 218, 221, 224, 227, 230, 233, 236,
        239, 242, 245, 248, 251, 254, 257, 260, 263, 266, 269, 272, 275, 278, 281, 284, 287, 290,
        293, 296, 299, 302, 305, 308, 314, 317, 320, 323, 326, 311,
    ];

    /// Transfer `i`'s completion: log it, schedule a same-instant event,
    /// and start or cancel a transfer at the 100th and 200th completion.
    fn cascade_done(link: LinkId, i: usize) -> Call<Cascade> {
        call(move |w: &mut Cascade, sim| {
            let now = sim.now().as_secs().to_bits();
            w.seen.push(Seen::Done(i, now, sim.events_processed()));
            sim.schedule_now(call(move |w: &mut Cascade, _| w.seen.push(Seen::After(i))));
            let completed = w
                .seen
                .iter()
                .filter(|s| matches!(s, Seen::Done(..)))
                .count();
            if completed == 100 {
                let late = sim.start_transfer(link, 1.0e12, None, cascade_done(link, LATE));
                w.ids.push(late);
            }
            if completed == 200 {
                w.cancelled = Some(sim.cancel_transfer(link, w.ids[CANCELLED]));
            }
        })
    }

    /// 330 transfers in three groups (capped at half and a quarter of the
    /// fair share, and uncapped) all finish 7.3 s after they start at
    /// t = 31,234.5 s. Their residues there are floating-point error, so
    /// the link finishes them one forced tick at a time, all at one
    /// instant. Pins the order (residue, then id), the instants, the
    /// same-instant events the handlers schedule, the delivered bytes to
    /// the bit, and a transfer started and one cancelled mid-cascade.
    #[test]
    fn same_instant_cascade_finishes_in_residue_then_id_order() {
        let (capacity, t0, dur) = (1.0e12, 31_234.5, 7.3);
        let mut sim = Simulation::new();
        sim.set_tracer(Tracer::verbose());
        let link = sim.add_link("l", capacity);
        let fair = capacity / CASCADE_N as f64;
        let caps = [Some(fair * 0.5), Some(fair * 0.25), None];
        let capped: f64 = (0..CASCADE_N).filter_map(|i| caps[i % 3]).sum();
        let uncapped = (capacity - capped) / (CASCADE_N / 3) as f64;
        sim.schedule_at(
            SimTime::from_secs(t0),
            call(move |w: &mut Cascade, sim| {
                for i in 0..CASCADE_N {
                    let cap = caps[i % 3];
                    let bytes = cap.unwrap_or(uncapped) * dur;
                    let id = sim.start_transfer(link, bytes, cap, cascade_done(link, i));
                    w.ids.push(id);
                }
            }),
        );
        let mut w = Boxed(Cascade::default());
        sim.run(&mut w);
        let w = w.0;

        // Every completion is followed by the event it scheduled, before
        // the next completion.
        let done: Vec<(usize, u64, u64)> = w
            .seen
            .chunks(2)
            .map(|pair| match *pair {
                [Seen::Done(i, at, ev), Seen::After(j)] if i == j => (i, at, ev),
                _ => panic!("completion not followed by its event: {pair:?}"),
            })
            .collect();
        let (cascade, late) = done.split_at(CASCADE_N - 1);
        // The capped groups have one residue each, so each finishes in id
        // order: quarter-capped, then half-capped. The uncapped shares
        // differ in their last bits, so their residues do too: that group
        // finishes in residue order, ids breaking ties. The cancelled
        // transfer (329) never finishes.
        let mut expected: Vec<usize> = (1..CASCADE_N).step_by(3).collect();
        expected.extend((0..CASCADE_N).step_by(3));
        expected.extend(UNCAPPED_ORDER);
        let order: Vec<usize> = cascade.iter().map(|&(i, ..)| i).collect();
        assert_eq!(order, expected);
        // One instant, one engine event per completion.
        let instant = (t0 + dur).to_bits();
        assert!(cascade.iter().all(|&(_, at, _)| at == instant));
        assert!(cascade.windows(2).all(|p| p[0].2 < p[1].2));
        assert_eq!(late, [(LATE, 0x40de_82b3_3333_3333, 660)]);
        assert_eq!(w.cancelled.map(f64::to_bits), Some(0x3f75_4800_0000_0000));
        assert_eq!(sim.bytes_delivered(link).to_bits(), 0x429e_31fa_34df_ffde);
        // The verbose trace ends transfers in the same order.
        let ends: Vec<u64> = sim
            .tracer()
            .take()
            .into_iter()
            .filter_map(|r| match r.event {
                TraceEvent::TransferEnd { id, .. } => Some(id),
                _ => None,
            })
            .collect();
        let ids: Vec<u64> = done.iter().map(|&(i, ..)| i as u64).collect();
        assert_eq!(ends, ids);
    }
}
