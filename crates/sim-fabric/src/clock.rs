//! Virtual time for the simulation.
//!
//! All latency-domain measurements in the reproduction (round-trip times,
//! device service times, retransmission timeouts) are expressed in virtual
//! nanoseconds carried by [`SimTime`]. A [`SimClock`] is a shared, cloneable
//! handle to the current virtual instant; it only moves when explicitly
//! advanced, which the Demikernel scheduler does when every task is blocked.
//!
//! The two event hooks a device hands its poller live here too, because
//! every device crate already depends on this one: a [`Doorbell`] an
//! event source rings when it queues work for the poller, and a
//! [`DeadlineHandle`] slot in a runtime-owned [`DeadlineIndex`] through
//! which the device publishes the earliest virtual instant it next has
//! work at.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::rc::Rc;

/// An instant in virtual time, in nanoseconds since simulation start.
///
/// `SimTime` is totally ordered and supports the arithmetic a protocol stack
/// needs (adding durations, measuring differences). It deliberately does not
/// interoperate with [`std::time::Instant`]: virtual and wall-clock time are
/// different measurement domains (see `DESIGN.md` §2).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Largest representable instant; useful as an "infinite" timeout.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `ns` nanoseconds after the epoch.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates an instant `us` microseconds after the epoch.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates an instant `ms` milliseconds after the epoch.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates an instant `s` seconds after the epoch.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds since the epoch (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole milliseconds since the epoch (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Fractional microseconds since the epoch.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Saturating difference `self - earlier`.
    pub fn saturating_since(self, earlier: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(earlier.0))
    }

    /// Saturating addition; clamps at [`SimTime::MAX`].
    pub fn saturating_add(self, delta: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(delta.0))
    }

    /// Scales a duration-like value by an integer factor, saturating.
    pub fn saturating_mul(self, factor: u64) -> SimTime {
        SimTime(self.0.saturating_mul(factor))
    }
}

impl Add for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;

    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.0 as f64 / 1e9)
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A shared handle to the simulation's virtual clock.
///
/// Cloning a `SimClock` yields another handle to the *same* clock; all
/// components of one simulation (fabric, devices, protocol stacks, timers)
/// share a single clock so that time is globally consistent.
///
/// The clock is monotonic: [`SimClock::advance_to`] ignores attempts to move
/// backwards rather than panicking, because event sources may race to propose
/// the next instant.
#[derive(Clone, Default)]
pub struct SimClock {
    now: Rc<Cell<u64>>,
}

impl SimClock {
    /// Creates a new clock at the epoch.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current virtual instant.
    pub fn now(&self) -> SimTime {
        SimTime(self.now.get())
    }

    /// Moves the clock forward to `t`; no-op if `t` is in the past.
    pub fn advance_to(&self, t: SimTime) {
        if t.0 > self.now.get() {
            self.now.set(t.0);
        }
    }

    /// Moves the clock forward by `delta`.
    pub fn advance_by(&self, delta: SimTime) {
        self.now.set(self.now.get().saturating_add(delta.0));
    }

    /// Returns true when both handles refer to the same underlying clock.
    pub fn same_clock(&self, other: &SimClock) -> bool {
        Rc::ptr_eq(&self.now, &other.now)
    }
}

impl fmt::Debug for SimClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimClock({:?})", self.now())
    }
}

/// A doorbell: the owner of a queue rings it when it queues work for a
/// poller, and the poller runs only when it has been rung (NAPI-style
/// interrupt-then-poll). Cloning yields another handle to the same bell.
#[derive(Clone, Default)]
pub struct Doorbell {
    rung: Rc<Cell<bool>>,
}

impl Doorbell {
    /// A bell nobody has rung yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks the owner's poller as having work.
    pub fn ring(&self) {
        self.rung.set(true);
    }

    /// Whether the bell is rung, clearing it: the caller answers it.
    pub fn take(&self) -> bool {
        self.rung.replace(false)
    }

    /// Whether the bell is rung, leaving it rung.
    pub fn is_rung(&self) -> bool {
        self.rung.get()
    }
}

impl fmt::Debug for Doorbell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Doorbell(rung={})", self.is_rung())
    }
}

#[derive(Default)]
struct IndexSlots {
    /// Each slot's published deadline and the bell it rings when due.
    slots: Vec<(Option<SimTime>, Doorbell)>,
    /// The minimum over `slots`, kept as slots are written.
    earliest: Option<SimTime>,
}

/// `a < b` with `None` as "never".
fn earlier(a: Option<SimTime>, b: Option<SimTime>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => a < b,
        (Some(_), None) => true,
        (None, _) => false,
    }
}

/// The runtime's pushed deadline index: each deadline source owns one
/// slot, which it writes through its [`DeadlineHandle`] whenever its
/// earliest deadline changes. Reading the next deadline is one cached
/// minimum instead of asking every source. Cloning yields another handle
/// to the same index.
#[derive(Clone, Default)]
pub struct DeadlineIndex {
    inner: Rc<RefCell<IndexSlots>>,
}

impl DeadlineIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// A new slot, empty, whose deadline rings `owner` once reached.
    pub fn handle(&self, owner: Doorbell) -> DeadlineHandle {
        let mut inner = self.inner.borrow_mut();
        inner.slots.push((None, owner));
        DeadlineHandle {
            index: self.clone(),
            slot: inner.slots.len() - 1,
        }
    }

    /// The earliest published deadline strictly after `now`.
    pub fn earliest_after(&self, now: SimTime) -> Option<SimTime> {
        let inner = self.inner.borrow();
        match inner.earliest {
            Some(t) if t <= now => inner
                .slots
                .iter()
                .filter_map(|&(t, _)| t.filter(|&t| t > now))
                .min(),
            t => t,
        }
    }

    /// Rings the owner of every deadline at or before `now`.
    pub fn ring_due(&self, now: SimTime) {
        let inner = self.inner.borrow();
        if inner.earliest.is_some_and(|t| t <= now) {
            for (t, owner) in &inner.slots {
                if t.is_some_and(|t| t <= now) {
                    owner.ring();
                }
            }
        }
    }

    fn set(&self, slot: usize, at: Option<SimTime>) {
        let mut inner = self.inner.borrow_mut();
        let old = std::mem::replace(&mut inner.slots[slot].0, at);
        if old == at {
            return;
        }
        if earlier(at, inner.earliest) {
            inner.earliest = at;
        } else if old == inner.earliest {
            inner.earliest = inner.slots.iter().filter_map(|&(t, _)| t).min();
        }
    }
}

/// One deadline source's slot in a [`DeadlineIndex`]. The source writes
/// exactly what its pull-style `next_deadline()` would answer, every time
/// that answer changes. Dropping the handle empties the slot.
pub struct DeadlineHandle {
    index: DeadlineIndex,
    slot: usize,
}

impl DeadlineHandle {
    /// Publishes the source's earliest deadline (`None`: nothing pending).
    pub fn set(&self, at: Option<SimTime>) {
        self.index.set(self.slot, at);
    }
}

impl Drop for DeadlineHandle {
    fn drop(&mut self) {
        self.set(None);
    }
}

impl fmt::Debug for DeadlineHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DeadlineHandle(slot {})", self.slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_index_keeps_the_minimum_and_rings_due_owners() {
        let index = DeadlineIndex::new();
        let (a, b) = (Doorbell::new(), Doorbell::new());
        let ha = index.handle(a.clone());
        let hb = index.handle(b.clone());
        ha.set(Some(SimTime::from_micros(5)));
        hb.set(Some(SimTime::from_micros(3)));
        assert_eq!(
            index.earliest_after(SimTime::ZERO),
            Some(SimTime::from_micros(3))
        );
        hb.set(None);
        assert_eq!(
            index.earliest_after(SimTime::ZERO),
            Some(SimTime::from_micros(5))
        );
        hb.set(Some(SimTime::from_micros(9)));
        index.ring_due(SimTime::from_micros(4));
        assert!(!a.is_rung() && !b.is_rung());
        assert_eq!(
            index.earliest_after(SimTime::from_micros(5)),
            Some(SimTime::from_micros(9))
        );
        index.ring_due(SimTime::from_micros(5));
        assert!(a.take() && !b.is_rung());
        drop(ha);
        assert_eq!(
            index.earliest_after(SimTime::ZERO),
            Some(SimTime::from_micros(9))
        );
    }

    #[test]
    fn time_constructors_agree() {
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1_000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1_000));
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1_000));
    }

    #[test]
    fn time_arithmetic() {
        let a = SimTime::from_nanos(100);
        let b = SimTime::from_nanos(40);
        assert_eq!((a + b).as_nanos(), 140);
        assert_eq!((a - b).as_nanos(), 60);
        assert_eq!(b.saturating_since(a), SimTime::ZERO);
        assert_eq!(a.saturating_since(b).as_nanos(), 60);
        assert_eq!(SimTime::MAX.saturating_add(a), SimTime::MAX);
        assert_eq!(SimTime::from_nanos(3).saturating_mul(7).as_nanos(), 21);
    }

    #[test]
    fn clock_is_shared_and_monotonic() {
        let c1 = SimClock::new();
        let c2 = c1.clone();
        c1.advance_to(SimTime::from_micros(5));
        assert_eq!(c2.now(), SimTime::from_micros(5));
        // Backwards moves are ignored.
        c2.advance_to(SimTime::from_micros(1));
        assert_eq!(c1.now(), SimTime::from_micros(5));
        c2.advance_by(SimTime::from_micros(1));
        assert_eq!(c1.now(), SimTime::from_micros(6));
        assert!(c1.same_clock(&c2));
        assert!(!c1.same_clock(&SimClock::new()));
    }

    #[test]
    fn debug_formatting_scales_units() {
        assert_eq!(format!("{:?}", SimTime::from_nanos(17)), "17ns");
        assert_eq!(format!("{:?}", SimTime::from_nanos(1_500)), "1.500us");
        assert_eq!(format!("{:?}", SimTime::from_micros(2_500)), "2.500ms");
        assert_eq!(format!("{:?}", SimTime::from_millis(1_500)), "1.500s");
    }
}
