//! A hierarchical timing wheel over virtual time.
//!
//! The per-poll timer cost used to be a linear walk over *every* control
//! block (`advance_timers` plus an earliest-deadline scan) — O(resident
//! connections) per poll, which is exactly the serialized-host cost the
//! paper says a bypass-era stack cannot afford. The wheel makes timer work
//! proportional to *firing* timers: schedule, cancel, and reschedule are
//! O(1), advancing is O(slots crossed + entries fired), and ten thousand
//! idle connections cost nothing per poll (E14 asserts this).
//!
//! Shape: [`LEVELS`] levels of [`SLOTS`] slots. Level *k* slots span
//! `64^k` nanosecond ticks, so level 0 resolves single nanoseconds and the
//! whole wheel covers `64^6` ns ≈ 68.7 s; anything further out parks in an
//! overflow list that is re-examined when the top level turns. A slot is
//! swept when the level's cursor passes it: entries that are due fire,
//! entries placed there by a coarser level cascade down to a finer one.
//!
//! Ticks are exact nanoseconds of [`SimTime`], so a fired entry's deadline
//! is *exactly* the scheduled time — no quantization. That exactness is
//! what lets `tests/batching.rs` assert `next_deadline()` equality and the
//! differential test assert firing-time identity against the linear scan.
//!
//! Cancellation is lazy: the owner bumps a generation and simply abandons
//! the entry. Stale entries are discarded when they fire — or when
//! [`TimerWheel::earliest_live`] walks past them, which keeps the
//! earliest-deadline answer exact (a stale earliest entry must not hide
//! `None`).
//!
//! The earliest live deadline is kept incrementally: the wheel caches the
//! earliest live entry, deadline and key. A schedule lowers the cache;
//! while the cached key stays live nothing else can undercut it, so
//! [`TimerWheel::earliest_live`] answers from the cache after one liveness
//! check and recomputes only when the cached entry died or a firing
//! advance removed it. Recomputing does not walk every slot: per-level
//! occupancy bitmaps name the non-empty slots, and within one level the
//! slots after the cursor hold strictly later deadlines in cursor order,
//! so each level stops at its first slot holding a live entry.
//! [`TimerWheel::peek_earliest_live`], the linear walk over every slot,
//! serves demi-kv's TTL index and is the reference the differential
//! tests compare against.

use sim_fabric::SimTime;

/// Levels in the hierarchy.
pub const LEVELS: usize = 6;
/// Slots per level (64 = one 6-bit digit of the deadline per level).
pub const SLOTS: usize = 64;
const SLOT_BITS: u32 = 6;

#[derive(Debug, Clone, Copy)]
struct Entry<T> {
    /// Absolute deadline in nanoseconds.
    deadline: u64,
    /// Insertion sequence — ties fire in schedule order, matching the
    /// deterministic order a linear scan over insertion-ordered state sees.
    seq: u64,
    key: T,
}

/// The wheel. `T` identifies a timer to its owner (the owner decides
/// liveness; the wheel only orders and fires).
pub struct TimerWheel<T> {
    levels: Vec<Vec<Vec<Entry<T>>>>,
    /// Entries scheduled at or before `now` (fire on the next advance).
    immediate: Vec<Entry<T>>,
    /// Entries beyond the wheel horizon.
    overflow: Vec<Entry<T>>,
    /// Reusable buffer for entries swept out of passed slots while
    /// advancing; kept on the wheel so a steady-state advance allocates
    /// nothing once warm.
    cascade_scratch: Vec<Entry<T>>,
    /// Bit `s` of `occupied[level]` is set while `levels[level][s]` may
    /// hold entries (a set bit over an empty slot is allowed; a clear bit
    /// over a non-empty one is not).
    occupied: [u64; LEVELS],
    /// The earliest live entry's deadline and key, when known
    /// (`Some(None)`: none live).
    earliest: Option<Option<(u64, T)>>,
    now: u64,
    seq: u64,
    len: usize,
}

impl<T: Copy> TimerWheel<T> {
    /// An empty wheel whose cursor starts at `start`.
    pub fn new(start: SimTime) -> Self {
        TimerWheel {
            levels: (0..LEVELS).map(|_| vec![Vec::new(); SLOTS]).collect(),
            immediate: Vec::new(),
            overflow: Vec::new(),
            cascade_scratch: Vec::new(),
            occupied: [0; LEVELS],
            earliest: Some(None),
            now: start.as_nanos(),
            seq: 0,
            len: 0,
        }
    }

    /// Entries currently tracked (live and abandoned alike).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the wheel tracks no entries at all.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `key` to fire at `deadline`. O(1).
    pub fn schedule(&mut self, deadline: SimTime, key: T) {
        let entry = Entry {
            deadline: deadline.as_nanos(),
            seq: self.seq,
            key,
        };
        self.seq += 1;
        self.len += 1;
        if let Some(earliest) = &mut self.earliest {
            if earliest.is_none_or(|(e, _)| entry.deadline < e) {
                *earliest = Some((entry.deadline, key));
            }
        }
        self.place(entry);
    }

    fn place(&mut self, entry: Entry<T>) {
        if entry.deadline <= self.now {
            self.immediate.push(entry);
            return;
        }
        let distance = entry.deadline - self.now;
        // Smallest level whose span covers the distance: level k covers
        // distances below 64^(k+1) ticks.
        let mut level = 0;
        while level < LEVELS && (distance >> (SLOT_BITS * (level as u32 + 1))) != 0 {
            level += 1;
        }
        if level == LEVELS {
            self.overflow.push(entry);
            return;
        }
        let slot = ((entry.deadline >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        self.levels[level][slot].push(entry);
        self.occupied[level] |= 1 << slot;
    }

    /// Advances the cursor to `now` and returns everything that fired, as
    /// `(deadline, key)` in (deadline, schedule-order) order. The caller
    /// filters out abandoned entries.
    pub fn advance(&mut self, now: SimTime) -> Vec<(SimTime, T)> {
        let mut due = Vec::new();
        self.advance_into(now, &mut due);
        due
    }

    /// [`TimerWheel::advance`] into the caller's reusable buffer:
    /// appended, not cleared. Allocates nothing once `out` and the
    /// internal scratch are warm — the form the peer's tick path uses to
    /// keep steady state off the allocator.
    pub fn advance_into(&mut self, now: SimTime, out: &mut Vec<(SimTime, T)>) {
        let new = now.as_nanos();
        let old = self.now;
        if new > old {
            self.now = new;
            let mut cascades = std::mem::take(&mut self.cascade_scratch);
            for level in 0..LEVELS {
                let shift = SLOT_BITS * level as u32;
                let old_idx = old >> shift;
                let new_idx = new >> shift;
                if new_idx == old_idx {
                    // Finer cursors move at least as fast as coarser ones:
                    // nothing above this level turned either.
                    break;
                }
                // Sweep each slot the cursor passed; ≥ 64 steps wraps the
                // whole level once, so 64 sweeps cover every position.
                let steps = (new_idx - old_idx).min(SLOTS as u64);
                for step in 1..=steps {
                    let slot = ((old_idx + step) & (SLOTS as u64 - 1)) as usize;
                    if self.occupied[level] & (1 << slot) != 0 {
                        self.occupied[level] &= !(1 << slot);
                        cascades.append(&mut self.levels[level][slot]);
                    }
                }
            }
            // The overflow list holds entries that were ≥ 64^LEVELS ticks
            // out; re-place them whenever the top level turned.
            if (old >> (SLOT_BITS * (LEVELS as u32 - 1)))
                != (new >> (SLOT_BITS * (LEVELS as u32 - 1)))
            {
                cascades.append(&mut self.overflow);
            }
            // Due entries land in `immediate`; later ones cascade into a
            // finer level relative to the new cursor.
            for entry in cascades.drain(..) {
                self.place(entry);
            }
            self.cascade_scratch = cascades;
        }
        if !self.immediate.is_empty() {
            // Whatever fires was at or before the cached earliest.
            self.earliest = None;
        }
        self.len -= self.immediate.len();
        self.immediate.sort_by_key(|e| (e.deadline, e.seq));
        out.extend(
            self.immediate
                .drain(..)
                .map(|e| (SimTime::from_nanos(e.deadline), e.key)),
        );
    }

    /// The earliest deadline among entries for which `live` returns true —
    /// the cached entry's while it is still live, else one recomputed
    /// through the occupancy bitmaps. Dead entries met on the way are
    /// discarded, so a stale earliest entry can never mask the true answer
    /// (or a `None`). `live` must never revive a key it once rejected:
    /// entries turn live only through [`TimerWheel::schedule`].
    pub fn earliest_live(&mut self, mut live: impl FnMut(&T) -> bool) -> Option<SimTime> {
        match self.earliest {
            Some(None) => return None,
            Some(Some((deadline, key))) if live(&key) => {
                return Some(SimTime::from_nanos(deadline));
            }
            _ => {}
        }
        let mut best: Option<(u64, T)> = None;
        let mut removed = 0usize;
        // Keeps the live entries of `bucket`, folding them into `best`;
        // returns whether any was live.
        let mut scan = |bucket: &mut Vec<Entry<T>>| {
            let mut found = false;
            bucket.retain(|e| {
                if live(&e.key) {
                    found = true;
                    if best.is_none_or(|(b, _)| e.deadline < b) {
                        best = Some((e.deadline, e.key));
                    }
                    true
                } else {
                    removed += 1;
                    false
                }
            });
            found
        };
        scan(&mut self.immediate);
        for level in 0..LEVELS {
            // Slots after the cursor's, in cursor order, hold strictly
            // increasing deadline ranges; the cursor's own slot comes last.
            let first = ((self.now >> (SLOT_BITS * level as u32)) + 1) & (SLOTS as u64 - 1);
            let mut bits = self.occupied[level].rotate_right(first as u32);
            while bits != 0 {
                let slot =
                    ((first + u64::from(bits.trailing_zeros())) & (SLOTS as u64 - 1)) as usize;
                bits &= bits - 1;
                let found = scan(&mut self.levels[level][slot]);
                if self.levels[level][slot].is_empty() {
                    self.occupied[level] &= !(1 << slot);
                }
                if found {
                    break;
                }
            }
        }
        scan(&mut self.overflow);
        self.len -= removed;
        self.earliest = Some(best);
        best.map(|(deadline, _)| SimTime::from_nanos(deadline))
    }

    /// The earliest deadline among entries for which `live` returns true,
    /// by a linear walk over every slot: the reference
    /// [`TimerWheel::earliest_live`] is tested against. Dead entries encountered on the way are discarded.
    pub fn peek_earliest_live(&mut self, mut live: impl FnMut(&T) -> bool) -> Option<SimTime> {
        let mut best: Option<u64> = None;
        let mut removed = 0usize;
        let mut consider = |bucket: &mut Vec<Entry<T>>| {
            bucket.retain(|e| {
                if live(&e.key) {
                    if best.is_none_or(|b| e.deadline < b) {
                        best = Some(e.deadline);
                    }
                    true
                } else {
                    removed += 1;
                    false
                }
            });
        };
        consider(&mut self.immediate);
        for level in self.levels.iter_mut() {
            for slot in level.iter_mut() {
                consider(slot);
            }
        }
        consider(&mut self.overflow);
        self.len -= removed;
        best.map(SimTime::from_nanos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(nanos: u64) -> SimTime {
        SimTime::from_nanos(nanos)
    }

    #[test]
    fn fires_in_deadline_order_at_exact_times() {
        let mut w: TimerWheel<u32> = TimerWheel::new(SimTime::ZERO);
        w.schedule(t(500), 1);
        w.schedule(t(10), 2);
        w.schedule(t(500), 3); // Tie: schedule order.
        w.schedule(t(70_000), 4);
        assert!(w.advance(t(9)).is_empty());
        assert_eq!(w.advance(t(10)), vec![(t(10), 2)]);
        assert_eq!(w.advance(t(600)), vec![(t(500), 1), (t(500), 3)]);
        assert_eq!(w.advance(t(70_000)), vec![(t(70_000), 4)]);
        assert!(w.is_empty());
    }

    #[test]
    fn long_deadlines_cascade_through_levels() {
        let mut w: TimerWheel<u32> = TimerWheel::new(SimTime::ZERO);
        // One entry per level span, plus one beyond the horizon.
        let deadlines = [63, 64, 4_096, 262_144, 16_777_216, 1_073_741_824, 1 << 40];
        for (i, &d) in deadlines.iter().enumerate() {
            w.schedule(t(d), i as u32);
        }
        let mut fired = Vec::new();
        let mut now = 0u64;
        while !w.is_empty() {
            now += 30_000_000_000 / 977; // Odd stride exercises partial sweeps.
            fired.extend(w.advance(t(now)));
        }
        let got: Vec<(u64, u32)> = fired.iter().map(|&(d, k)| (d.as_nanos(), k)).collect();
        let want: Vec<(u64, u32)> = deadlines
            .iter()
            .enumerate()
            .map(|(i, &d)| (d, i as u32))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn big_jumps_fire_everything_once() {
        let mut w: TimerWheel<u32> = TimerWheel::new(SimTime::ZERO);
        for i in 0..1000u32 {
            w.schedule(t(1 + (i as u64 * 7919) % 100_000_000), i);
        }
        let fired = w.advance(t(200_000_000));
        assert_eq!(fired.len(), 1000);
        assert!(fired.windows(2).all(|p| p[0].0 <= p[1].0), "deadline order");
        assert!(w.is_empty());
    }

    #[test]
    fn peek_skips_dead_entries_and_drops_them() {
        let mut w: TimerWheel<u32> = TimerWheel::new(SimTime::ZERO);
        w.schedule(t(100), 1);
        w.schedule(t(200), 2);
        assert_eq!(w.peek_earliest_live(|&k| k != 1), Some(t(200)));
        assert_eq!(w.len(), 1, "the dead entry was discarded");
        assert_eq!(w.peek_earliest_live(|_| false), None);
        assert!(w.is_empty());
    }

    #[test]
    fn earliest_live_follows_schedules_deaths_and_firings() {
        let mut w: TimerWheel<u32> = TimerWheel::new(SimTime::ZERO);
        assert_eq!(w.earliest_live(|_| true), None);
        w.schedule(t(300), 1);
        w.schedule(t(100), 2);
        w.schedule(t(200), 3);
        assert_eq!(
            w.earliest_live(|_| true),
            Some(t(100)),
            "lowered by schedule"
        );
        assert_eq!(
            w.earliest_live(|&k| k != 2),
            Some(t(200)),
            "a dead key is passed over"
        );
        // A fired entry leaves the wheel even when its key stays live.
        assert_eq!(w.advance(t(250)), vec![(t(200), 3)]);
        assert_eq!(w.earliest_live(|_| true), Some(t(300)));
    }

    #[test]
    fn past_deadlines_fire_on_next_advance() {
        let mut w: TimerWheel<u32> = TimerWheel::new(t(1_000));
        w.schedule(t(50), 7); // Already past.
        assert_eq!(w.peek_earliest_live(|_| true), Some(t(50)));
        assert_eq!(w.advance(t(1_000)), vec![(t(50), 7)]);
    }
}
