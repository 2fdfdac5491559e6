//! A discrete-event engine built on a calendar (bucket) queue.
//!
//! The cluster executor and the power-aware scheduler use this queue to
//! interleave per-rank compute segments, collective communication,
//! telemetry events and job finishes in global time order. Events scheduled
//! for the same instant are delivered in FIFO order (a monotone sequence
//! number breaks ties), which keeps multi-rank barriers and admission
//! decisions deterministic.
//!
//! ## Implementation
//!
//! [`EventQueue`] is a two-level calendar — a *ladder queue* (Tang & Goh
//! 2005), the cache-friendly descendant of Brown's calendar queue — tuned
//! for campaign scale (10⁶ pending events). The structure exploits the one
//! asymmetry a DES offers: an event is touched **once** when scheduled and
//! once when delivered, so nothing needs to be kept globally sorted in
//! between. Work is deferred until a time region comes due and then done
//! in cache-sized sequential batches:
//!
//! * **Top** — every far-future event is appended *unsorted* to one flat
//!   array: an O(1) push with a single predictable cache line touch, where
//!   a binary heap pays ~log₂(n) dependent misses sifting through 10⁶
//!   scattered entries.
//! * **Rungs** — when the top comes due it is scattered by day index into
//!   a rung of `RUNG_DAYS` bucket arrays (a radix partition pass over a
//!   small set of hot tails). A day holding more than `SPAWN_THRESH`
//!   entries is re-scattered into a deeper, finer-grained rung, so bucket
//!   sizing adapts to clustered timestamps without any global resize or
//!   width heuristic. Day indices are a monotone function of time (one
//!   multiply), so inter-day order is exact by construction.
//! * **Bottom** — the earliest remaining day is sorted once by
//!   `(time, seq)` and becomes the delivery run: pops are an index
//!   increment off a small in-cache array, with the next payload slots
//!   prefetched a few deliveries ahead.
//! * **Cancellation is O(1) and lazy.** Payloads live in a generational
//!   slab ([`EventId`] = slot index + generation); `cancel` takes the
//!   payload and bumps the generation, leaving the calendar entry behind
//!   as a tombstone that delivery skips on a generation mismatch. `len`
//!   stays exact through a live counter.
//!
//! Amortised cost per event is O(1) scatter/sort work touching memory
//! almost sequentially; the worst adversarial distributions degrade to the
//! sort path (a timestamp burst simply becomes one larger sorted run).
//!
//! The previous `BinaryHeap` engine survives as [`reference::HeapQueue`]
//! and must stay observationally identical — the `des_equivalence`
//! property suite drives both under random schedule/next/cancel
//! interleavings and demands the same `(time, seq)` delivery sequence.

use std::cmp::Ordering;

/// Handle to a scheduled event, returned by [`EventQueue::schedule`].
///
/// The id is *generational*: once the event is delivered, cancelled or
/// rescheduled, the id goes stale and later [`EventQueue::cancel`] /
/// [`EventQueue::reschedule`] calls with it return `None` instead of
/// touching whichever event re-used the slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId {
    index: u32,
    gen: u32,
}

/// Payload slot. The generation stamps every calendar entry pointing here;
/// a mismatch marks the entry as a cancelled/rescheduled tombstone.
struct Slot<E> {
    gen: u32,
    event: Option<E>,
}

/// One calendar entry: the ordering key, the slab index and the slot
/// generation it was issued under. Payloads stay in the slab so entry
/// moves are payload-size independent.
#[derive(Clone, Copy)]
struct Entry {
    time: f64,
    seq: u64,
    index: u32,
    gen: u32,
}

fn entry_cmp(a: &Entry, b: &Entry) -> Ordering {
    a.time.total_cmp(&b.time).then(a.seq.cmp(&b.seq))
}

/// Days per rung. A scatter pass keeps this many bucket tails hot, so it
/// should stay well inside L1/L2 reach.
const RUNG_DAYS: usize = 128;

/// A due day larger than this is re-scattered into a deeper rung instead
/// of being sorted directly; below it, a single `sort_unstable` of an
/// in-cache array beats further partitioning.
const SPAWN_THRESH: usize = 512;

/// One ladder rung: [`RUNG_DAYS`] unsorted day buckets covering
/// `[start, start + RUNG_DAYS/inv_width)`. Days below `cur` have already
/// been migrated toward the bottom.
struct Rung {
    start: f64,
    /// `RUNG_DAYS / span`: day index is one multiply, and because rounded
    /// multiplication is monotone, `day(t)` ordering is exact.
    inv_width: f64,
    /// Next day to migrate; `days[..cur]` are spent.
    cur: usize,
    /// Entries (live + tombstones) in `days[cur..]`; emptiness guard.
    remaining: usize,
    days: Vec<Vec<Entry>>,
}

impl Rung {
    /// Day index of `t`, clamped into the rung. Monotone in `t`.
    fn day(&self, t: f64) -> usize {
        let off = t - self.start;
        if off <= 0.0 {
            return 0;
        }
        ((off * self.inv_width) as usize).min(RUNG_DAYS - 1)
    }
}

/// Prefetch the payload slot of an upcoming delivery into L1. Advisory
/// only: a no-op on non-x86_64 targets.
#[inline(always)]
fn prefetch_slot<E>(slots: &[Slot<E>], index: u32) {
    #[cfg(target_arch = "x86_64")]
    if let Some(s) = slots.get(index as usize) {
        // Safety: prefetch has no memory effects; the pointer is derived
        // from a live borrow and never dereferenced architecturally.
        unsafe {
            core::arch::x86_64::_mm_prefetch(
                std::ptr::from_ref(s).cast::<i8>(),
                core::arch::x86_64::_MM_HINT_T0,
            );
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (slots, index);
    }
}

/// Earliest-first event queue with a simulation clock.
pub struct EventQueue<E> {
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    /// The current delivery run, sorted by `(time, seq)`; the front is
    /// `bottom[bottom_at]` (pops advance the index, no memmove).
    bottom: Vec<Entry>,
    bottom_at: usize,
    /// Outermost (widest span, latest times) first; `last()` is the rung
    /// feeding the bottom.
    rungs: Vec<Rung>,
    /// Unsorted far-future events (`time >= top_start`).
    top: Vec<Entry>,
    top_start: f64,
    top_lo: f64,
    top_hi: f64,
    /// Recycled day/batch vectors, so steady-state operation allocates
    /// nothing.
    pool: Vec<Vec<Entry>>,
    live: usize,
    seq: u64,
    now: f64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// A queue starting at time 0.
    #[must_use]
    pub fn new() -> Self {
        Self::starting_at(0.0)
    }

    /// A queue whose clock starts at `t0`.
    #[must_use]
    pub fn starting_at(t0: f64) -> Self {
        assert!(t0.is_finite());
        Self {
            slots: Vec::new(),
            free: Vec::new(),
            bottom: Vec::new(),
            bottom_at: 0,
            rungs: Vec::new(),
            top: Vec::new(),
            top_start: f64::NEG_INFINITY,
            top_lo: f64::INFINITY,
            top_hi: f64::NEG_INFINITY,
            pool: Vec::new(),
            live: 0,
            seq: 0,
            now: t0,
        }
    }

    /// Current simulation time (the time of the last delivered event).
    #[must_use]
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Schedule `event` at absolute time `at` and return its handle.
    ///
    /// Timestamps up to `1e-12` s before the current clock are tolerated
    /// (they arise from float rounding in duration sums) but are clamped to
    /// `now`, so the clock never runs backwards when they are delivered.
    ///
    /// # Panics
    /// If `at` precedes the current clock by more than the tolerance
    /// (causality violation) or is not finite.
    pub fn schedule(&mut self, at: f64, event: E) -> EventId {
        assert!(at.is_finite(), "event time must be finite");
        assert!(
            at >= self.now - 1e-12,
            "cannot schedule event at {at} before now = {}",
            self.now
        );
        vpp_substrate::trace::counter("des.scheduled", 1);
        let time = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;

        let index = match self.free.pop() {
            Some(i) => {
                self.slots[i as usize].event = Some(event);
                i
            }
            None => {
                assert!(self.slots.len() < u32::MAX as usize, "event slab full");
                self.slots.push(Slot {
                    gen: 0,
                    event: Some(event),
                });
                (self.slots.len() - 1) as u32
            }
        };
        let gen = self.slots[index as usize].gen;
        self.place(Entry {
            time,
            seq,
            index,
            gen,
        });
        self.live += 1;
        EventId { index, gen }
    }

    /// Schedule `event` `dt >= 0` seconds from now.
    pub fn schedule_in(&mut self, dt: f64, event: E) -> EventId {
        assert!(dt >= 0.0, "negative delay {dt}");
        self.schedule(self.now + dt, event)
    }

    /// Route an entry to the innermost structure whose active range covers
    /// its time: top (unsorted append), a rung day at or after that rung's
    /// migration cursor, or the sorted bottom run.
    fn place(&mut self, e: Entry) {
        let t = e.time;
        if t >= self.top_start {
            if t < self.top_lo {
                self.top_lo = t;
            }
            if t > self.top_hi {
                self.top_hi = t;
            }
            self.top.push(e);
            return;
        }
        for r in &mut self.rungs {
            let d = r.day(t);
            if d >= r.cur {
                r.days[d].push(e);
                r.remaining += 1;
                return;
            }
        }
        // Earlier than every remaining rung day: it belongs in the run
        // currently being delivered. `t >= now` bounds the memmove to the
        // undelivered tail, which is at most one day batch.
        let key = (t, e.seq);
        let pos = self.bottom_at
            + self.bottom[self.bottom_at..].partition_point(|x| (x.time, x.seq) < key);
        self.bottom.insert(pos, e);
    }

    /// Remove `id`'s event, returning its payload. O(1): the calendar
    /// entry stays behind as a tombstone (generation mismatch) and is
    /// dropped when it surfaces at the bottom. Stale ids (already
    /// delivered, cancelled or rescheduled) yield `None`.
    pub fn cancel(&mut self, id: EventId) -> Option<E> {
        let slot = self.slots.get(id.index as usize)?;
        if slot.gen != id.gen || slot.event.is_none() {
            return None;
        }
        vpp_substrate::trace::counter("des.cancelled", 1);
        let event = self.release(id.index);
        self.live -= 1;
        Some(event)
    }

    /// Move `id`'s event to absolute time `at`, returning the new handle.
    /// The event re-enters the FIFO tie order at the back of its new
    /// timestamp (it draws a fresh sequence number). Stale ids yield `None`.
    ///
    /// # Panics
    /// As [`EventQueue::schedule`], if `at` violates causality.
    pub fn reschedule(&mut self, id: EventId, at: f64) -> Option<EventId> {
        let event = self.cancel(id)?;
        Some(self.schedule(at, event))
    }

    /// Free slot `index`, bumping its generation (which tombstones every
    /// outstanding calendar entry stamped with the old one).
    fn release(&mut self, index: u32) -> E {
        let slot = &mut self.slots[index as usize];
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(index);
        slot.event.take().expect("released an empty slot")
    }

    /// Recycle a spent entry vector into the allocation pool.
    fn recycle(&mut self, mut v: Vec<Entry>) {
        if v.capacity() > 0 && self.pool.len() < 8 * RUNG_DAYS {
            v.clear();
            self.pool.push(v);
        }
    }

    fn take_vec(&mut self) -> Vec<Entry> {
        self.pool.pop().unwrap_or_default()
    }

    /// Turn a due batch into deliverable form: scatter oversized,
    /// non-degenerate batches into a deeper rung; otherwise sort the batch
    /// and install it as the new bottom run.
    fn promote(&mut self, mut batch: Vec<Entry>) {
        if batch.len() > SPAWN_THRESH {
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for e in &batch {
                lo = lo.min(e.time);
                hi = hi.max(e.time);
            }
            let span = hi - lo;
            // The span guard keeps `inv_width` finite and bails out on
            // timestamp bursts, which no bucket width can separate: those
            // take the sort path below as one larger run.
            if span > hi.abs().max(1.0) * 1e-12 {
                let mut rung = Rung {
                    start: lo,
                    inv_width: RUNG_DAYS as f64 / span,
                    cur: 0,
                    remaining: batch.len(),
                    days: Vec::with_capacity(RUNG_DAYS),
                };
                for _ in 0..RUNG_DAYS {
                    let d = self.take_vec();
                    rung.days.push(d);
                }
                for e in batch.drain(..) {
                    let d = rung.day(e.time);
                    rung.days[d].push(e);
                }
                self.recycle(batch);
                self.rungs.push(rung);
                return;
            }
        }
        batch.sort_unstable_by(entry_cmp);
        let old = std::mem::replace(&mut self.bottom, batch);
        self.recycle(old);
        self.bottom_at = 0;
    }

    /// Advance until the bottom front is a live (non-tombstone) entry,
    /// migrating due days down the ladder as needed. False when the queue
    /// is empty.
    fn ensure_bottom(&mut self) -> bool {
        loop {
            while let Some(e) = self.bottom.get(self.bottom_at) {
                if self.slots[e.index as usize].gen == e.gen {
                    return true;
                }
                self.bottom_at += 1;
            }
            let batch = loop {
                if matches!(self.rungs.last(), Some(r) if r.remaining == 0) {
                    let spent = self.rungs.pop().expect("just matched");
                    for d in spent.days {
                        self.recycle(d);
                    }
                    continue;
                }
                if let Some(r) = self.rungs.last_mut() {
                    let mut cur = r.cur;
                    while r.days[cur].is_empty() {
                        cur += 1;
                    }
                    let day = std::mem::take(&mut r.days[cur]);
                    r.cur = cur + 1;
                    r.remaining -= day.len();
                    break day;
                }
                if !self.top.is_empty() {
                    // Migrate the whole top; later-than-everything pushes
                    // keep appending to the (now empty) top, everything
                    // below `top_hi` routes into the rung this spawns.
                    self.top_start = self.top_hi;
                    self.top_lo = f64::INFINITY;
                    self.top_hi = f64::NEG_INFINITY;
                    let fresh = self.take_vec();
                    break std::mem::replace(&mut self.top, fresh);
                }
                // Fully drained: let the next burst of pushes build a new
                // top covering whatever range it likes.
                self.top_start = f64::NEG_INFINITY;
                return false;
            };
            self.promote(batch);
        }
    }

    /// Time of the next event without removing it.
    ///
    /// Non-mutating, so it cannot migrate due days down the ladder; when
    /// the delivery run is exhausted this scans all pending entries.
    /// Prefer [`EventQueue::earliest_time`] in delivery loops.
    #[must_use]
    pub fn peek_time(&self) -> Option<f64> {
        if self.live == 0 {
            return None;
        }
        for e in &self.bottom[self.bottom_at..] {
            if self.slots[e.index as usize].gen == e.gen {
                return Some(e.time);
            }
        }
        let mut best = f64::INFINITY;
        let scan = |best: &mut f64, e: &Entry| {
            if e.time < *best && self.slots[e.index as usize].gen == e.gen {
                *best = e.time;
            }
        };
        for r in &self.rungs {
            for d in &r.days[r.cur..] {
                for e in d {
                    scan(&mut best, e);
                }
            }
        }
        for e in &self.top {
            scan(&mut best, e);
        }
        debug_assert!(best.is_finite(), "live > 0 but no live entry found");
        Some(best)
    }

    /// Time of the next event, migrating due days down the ladder so
    /// repeated calls (and the following [`EventQueue::next`]) stay
    /// amortised O(1).
    pub fn earliest_time(&mut self) -> Option<f64> {
        if !self.ensure_bottom() {
            return None;
        }
        Some(self.bottom[self.bottom_at].time)
    }

    /// Deliver the next event, advancing the clock to its timestamp.
    ///
    /// The clock is monotone: delivery never moves it backwards, even if a
    /// tolerated-late timestamp slipped below `now` (see [`Self::schedule`]).
    #[allow(clippy::should_implement_trait)] // queue semantics, not iteration
    pub fn next(&mut self) -> Option<(f64, E)> {
        if !self.ensure_bottom() {
            return None;
        }
        let e = self.bottom[self.bottom_at];
        self.bottom_at += 1;
        // Hide the slab miss of the next couple of deliveries behind this
        // one's bookkeeping.
        for k in 0..2 {
            if let Some(n) = self.bottom.get(self.bottom_at + k) {
                prefetch_slot(&self.slots, n.index);
            }
        }
        let event = self.release(e.index);
        self.live -= 1;
        self.now = self.now.max(e.time);
        vpp_substrate::trace::counter("des.delivered", 1);
        Some((e.time, event))
    }

    /// Deliver the next event only if it is due at or before `cutoff`.
    /// The event-driven scheduler retires finishes with
    /// `next_before(t + tolerance)` without paying a peek-and-pop pair.
    pub fn next_before(&mut self, cutoff: f64) -> Option<(f64, E)> {
        if !self.ensure_bottom() {
            return None;
        }
        if self.bottom[self.bottom_at].time > cutoff {
            return None;
        }
        self.next()
    }

    /// Drain all events in time order, calling `f(time, event)` for each.
    /// Handlers may schedule further events through the returned closure
    /// argument — use [`EventQueue::next`] in a loop for that pattern; this
    /// convenience method is for static event sets.
    pub fn drain(&mut self, mut f: impl FnMut(f64, E)) {
        while let Some((t, e)) = self.next() {
            f(t, e);
        }
    }
}

pub mod reference {
    //! The superseded `BinaryHeap` engine, kept as the semantic reference
    //! for the calendar queue: the `des_equivalence` property suite and the
    //! `des_throughput` bench drive both implementations and demand the
    //! same `(time, seq)` delivery sequence / report the speedup.

    use std::cmp::Ordering;
    use std::collections::BinaryHeap;
    use std::collections::HashSet;

    struct Entry<E> {
        time: f64,
        seq: u64,
        event: E,
    }

    impl<E> PartialEq for Entry<E> {
        fn eq(&self, other: &Self) -> bool {
            self.time == other.time && self.seq == other.seq
        }
    }
    impl<E> Eq for Entry<E> {}

    impl<E> Ord for Entry<E> {
        fn cmp(&self, other: &Self) -> Ordering {
            // Reverse: BinaryHeap is a max-heap, we want earliest-first.
            other
                .time
                .total_cmp(&self.time)
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }
    impl<E> PartialOrd for Entry<E> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    /// Earliest-first heap queue; cancellation is lazy (the entry stays in
    /// the heap until it surfaces), which is fine for a reference but is
    /// part of why the calendar replaced it.
    #[derive(Default)]
    pub struct HeapQueue<E> {
        heap: BinaryHeap<Entry<E>>,
        /// Sequence numbers of pending (not delivered, not cancelled)
        /// events; lazily-cancelled heap entries are absent here.
        live: HashSet<u64>,
        seq: u64,
        now: f64,
    }

    impl<E> HeapQueue<E> {
        /// A queue starting at time 0.
        #[must_use]
        pub fn new() -> Self {
            Self {
                heap: BinaryHeap::new(),
                live: HashSet::new(),
                seq: 0,
                now: 0.0,
            }
        }

        /// Current simulation time.
        #[must_use]
        pub fn now(&self) -> f64 {
            self.now
        }

        /// Number of pending (non-cancelled) events.
        #[must_use]
        pub fn len(&self) -> usize {
            self.live.len()
        }

        /// True when no events are pending.
        #[must_use]
        pub fn is_empty(&self) -> bool {
            self.live.is_empty()
        }

        /// Schedule `event` at absolute time `at`, returning its sequence
        /// number (the heap's cancellation handle).
        ///
        /// # Panics
        /// As [`super::EventQueue::schedule`].
        pub fn schedule(&mut self, at: f64, event: E) -> u64 {
            assert!(at.is_finite(), "event time must be finite");
            assert!(
                at >= self.now - 1e-12,
                "cannot schedule event at {at} before now = {}",
                self.now
            );
            let seq = self.seq;
            self.heap.push(Entry {
                time: at.max(self.now),
                seq,
                event,
            });
            self.live.insert(seq);
            self.seq += 1;
            seq
        }

        /// Cancel the event with sequence number `seq`. Returns whether a
        /// pending event was actually cancelled; delivered or already
        /// cancelled seqs are no-ops. The heap entry stays behind as a
        /// tombstone and is dropped when it surfaces in [`Self::next`].
        pub fn cancel(&mut self, seq: u64) -> bool {
            self.live.remove(&seq)
        }

        /// Deliver the next pending event.
        #[allow(clippy::should_implement_trait)] // queue semantics, not iteration
        pub fn next(&mut self) -> Option<(f64, E)> {
            loop {
                let entry = self.heap.pop()?;
                if !self.live.remove(&entry.seq) {
                    continue; // lazily-cancelled tombstone
                }
                self.now = self.now.max(entry.time);
                return Some((entry.time, entry.event));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_delivered_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(3.0, "c");
        q.schedule(1.0, "a");
        q.schedule(2.0, "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.next().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(1.0, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.next().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_delivery() {
        let mut q = EventQueue::new();
        q.schedule(5.0, ());
        assert_eq!(q.now(), 0.0);
        q.next();
        assert_eq!(q.now(), 5.0);
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::starting_at(10.0);
        q.schedule_in(2.5, "x");
        assert_eq!(q.peek_time(), Some(12.5));
    }

    #[test]
    #[should_panic(expected = "before now")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(5.0, ());
        q.next();
        q.schedule(1.0, ());
    }

    #[test]
    fn clock_is_monotone_under_boundary_tolerance_scheduling() {
        let mut q = EventQueue::new();
        q.schedule(1.0, "a");
        q.next();
        assert_eq!(q.now(), 1.0);
        // A float-rounding timestamp just inside the 1e-12 tolerance used
        // to be accepted verbatim and dragged the clock backwards on
        // delivery. It must now be clamped to `now`.
        q.schedule(1.0 - 1e-13, "late");
        q.schedule_in(0.5, "future");
        let mut prev = q.now();
        while q.next().is_some() {
            assert!(
                q.now() >= prev,
                "clock moved backwards: {prev} -> {}",
                q.now()
            );
            prev = q.now();
        }
        assert_eq!(q.now(), 1.5);
    }

    #[test]
    fn handlers_can_chain_events() {
        let mut q = EventQueue::new();
        q.schedule(1.0, 3u32);
        let mut fired = Vec::new();
        while let Some((t, remaining)) = q.next() {
            fired.push(t);
            if remaining > 0 {
                q.schedule_in(1.0, remaining - 1);
            }
        }
        assert_eq!(fired, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn drain_consumes_everything() {
        let mut q = EventQueue::new();
        q.schedule(1.0, 1);
        q.schedule(2.0, 2);
        let mut seen = 0;
        q.drain(|_, _| seen += 1);
        assert_eq!(seen, 2);
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_removes_a_pending_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(1.0, "a");
        q.schedule(2.0, "b");
        assert_eq!(q.cancel(a), Some("a"));
        assert_eq!(q.len(), 1);
        assert_eq!(q.next(), Some((2.0, "b")));
        assert!(q.is_empty());
    }

    #[test]
    fn stale_ids_do_not_touch_slot_reusers() {
        let mut q = EventQueue::new();
        let a = q.schedule(1.0, "a");
        assert_eq!(q.cancel(a), Some("a"));
        // The slot is re-used by the next schedule; the stale id must miss.
        let b = q.schedule(3.0, "b");
        assert_eq!(q.cancel(a), None);
        assert_eq!(q.reschedule(a, 9.0), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.cancel(b), Some("b"));
    }

    #[test]
    fn delivered_ids_go_stale() {
        let mut q = EventQueue::new();
        let a = q.schedule(1.0, "a");
        assert_eq!(q.next(), Some((1.0, "a")));
        assert_eq!(q.cancel(a), None);
    }

    #[test]
    fn reschedule_moves_and_re_sequences() {
        let mut q = EventQueue::new();
        let a = q.schedule(5.0, "a");
        q.schedule(5.0, "b");
        // Moving `a` to the same timestamp sends it behind `b` in the tie
        // order (fresh sequence number).
        let a2 = q.reschedule(a, 5.0).unwrap();
        assert_eq!(q.next(), Some((5.0, "b")));
        assert_eq!(q.next(), Some((5.0, "a")));
        assert_eq!(q.cancel(a2), None, "delivered handle is stale");

        let c = q.schedule(10.0, "c");
        q.schedule(7.0, "d");
        let c2 = q.reschedule(c, 6.0).unwrap();
        assert_eq!(q.next(), Some((6.0, "c")));
        assert_eq!(q.next(), Some((7.0, "d")));
        assert_eq!(q.cancel(c2), None);
    }

    #[test]
    fn mass_cancellation_keeps_len_exact_and_order_sorted() {
        let mut q = EventQueue::new();
        let mut rng = vpp_substrate::Rng::new(42);
        let mut ids = Vec::new();
        for i in 0..10_000 {
            ids.push(q.schedule(rng.uniform(0.0, 1e4), i));
        }
        assert_eq!(q.len(), 10_000);
        // Cancel most of them: the tombstones must be skipped silently and
        // `len` must stay exact throughout.
        for id in ids.drain(..9_000) {
            assert!(q.cancel(id).is_some());
        }
        assert_eq!(q.len(), 1_000);
        let mut last = f64::NEG_INFINITY;
        let mut n = 0;
        while let Some((t, _)) = q.next() {
            assert!(t >= last);
            last = t;
            n += 1;
        }
        assert_eq!(n, 1_000);
    }

    #[test]
    fn sparse_far_future_events_stay_ordered() {
        let mut q = EventQueue::new();
        // Two events an enormous span apart: the ladder must separate
        // them without degenerate bucket widths.
        q.schedule(0.5, "near");
        q.schedule(1e9, "far");
        assert_eq!(q.next(), Some((0.5, "near")));
        assert_eq!(q.peek_time(), Some(1e9));
        assert_eq!(q.next(), Some((1e9, "far")));
        assert!(q.next().is_none());
    }

    #[test]
    fn next_before_respects_the_cutoff() {
        let mut q = EventQueue::new();
        q.schedule(1.0, "a");
        q.schedule(2.0, "b");
        assert_eq!(q.next_before(1.5), Some((1.0, "a")));
        assert_eq!(q.next_before(1.5), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.earliest_time(), Some(2.0));
        assert_eq!(q.next_before(2.0), Some((2.0, "b")));
    }

    #[test]
    fn zero_span_and_identical_times_take_the_sort_path() {
        let mut q = EventQueue::new();
        for i in 0..200 {
            q.schedule(7.25, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.next().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn timestamp_burst_with_cancellations_drains_in_fifo_order() {
        // One burst sharing a timestamp, a third of it cancelled: the
        // tombstones must vanish without disturbing the FIFO tie order.
        let mut q = EventQueue::new();
        let mut ids = Vec::new();
        for i in 0..64 {
            ids.push(q.schedule(5.0, i));
        }
        for (i, id) in ids.iter().enumerate() {
            if i % 3 == 0 {
                assert_eq!(q.cancel(*id), Some(i as i32));
            }
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.next().map(|(_, e)| e)).collect();
        let expect: Vec<i32> = (0..64).filter(|i| i % 3 != 0).collect();
        assert_eq!(order, expect);
    }

    #[test]
    fn pushes_below_the_active_rungs_land_in_the_delivery_run() {
        // Force a rung spawn, drain into it, then schedule events that
        // precede every remaining rung day: they must be delivered in
        // global order, not appended behind the current batch.
        let mut q = EventQueue::new();
        let mut rng = vpp_substrate::Rng::new(11);
        for i in 0..2_000u32 {
            q.schedule(rng.uniform(0.0, 1_000.0), i);
        }
        let mut last = f64::NEG_INFINITY;
        for _ in 0..500 {
            let (t, _) = q.next().unwrap();
            assert!(t >= last);
            last = t;
        }
        for i in 0..50u32 {
            q.schedule(q.now() + rng.uniform(0.0, 1_000.0 - q.now()), 10_000 + i);
        }
        let mut n = 0;
        while let Some((t, _)) = q.next() {
            assert!(t >= last, "out of order: {t} after {last}");
            last = t;
            n += 1;
        }
        assert_eq!(n, 1_550);
    }

    #[test]
    fn hold_pattern_stays_sorted_and_pinned() {
        // Classic hold model: pop one, push one slightly ahead. The
        // pending count is pinned and the clock must stay monotone while
        // the ladder continuously re-spawns from the top.
        let mut q = EventQueue::new();
        let mut rng = vpp_substrate::Rng::new(3);
        for i in 0..1_000u32 {
            q.schedule(rng.uniform(0.0, 2.0), i);
        }
        let mut last = f64::NEG_INFINITY;
        for _ in 0..10_000 {
            let (t, e) = q.next().unwrap();
            assert!(t >= last);
            last = t;
            q.schedule(t + rng.uniform(0.0, 2.0), e);
            assert_eq!(q.len(), 1_000);
        }
    }

    #[test]
    fn heap_reference_matches_on_a_smoke_sequence() {
        let mut rng = vpp_substrate::Rng::new(7);
        let mut cal = EventQueue::new();
        let mut heap = reference::HeapQueue::new();
        for i in 0..1_000 {
            let t = rng.uniform(0.0, 1e5);
            cal.schedule(t, i);
            heap.schedule(t, i);
        }
        loop {
            match (cal.next(), heap.next()) {
                (None, None) => break,
                (a, b) => assert_eq!(a, b),
            }
        }
    }
}
