//! The counter registry: every exact count the experiments assert on,
//! declared once in the `counters!` table at the bottom of this file.
//!
//! A row gives a doc line, a scope, a handle name, a snapshot field name
//! and an optional array length:
//!
//! - `thread` rows are datapath counts recorded from any layer of the
//!   stack with [`count`], [`add`], [`count_at`] and [`add_at`]. They live
//!   in one const-initialised thread-local `[Cell<u64>; SLOTS]`, so a
//!   record call is one indexed add: O(1), no allocation, no lazy init.
//! - `instance` rows are counted per object (one libOS `Metrics`) in an
//!   [`InstanceCounts`] block, because several runtimes can share a
//!   thread.
//!
//! An index past the end of an array row folds into its last slot.
//!
//! The table also generates [`MetricsSnapshot`], one named field per row,
//! with a saturating [`MetricsSnapshot::delta`] and a summing
//! [`MetricsSnapshot::merge`]. A reader folds thread rows as movement
//! since a baseline: `snapshot().delta(&base)`. Because deltas saturate,
//! a [`reset`] after the baseline was taken clamps to zero instead of
//! underflowing. Adding a counter is one table row.

use std::cell::Cell;
use std::mem::{offset_of, size_of};

/// Buckets of the frames-per-`tx_burst` histogram.
pub const BURST_BUCKETS: usize = 4;

/// Human-readable labels for the burst histogram buckets.
pub const BURST_BUCKET_LABELS: [&str; BURST_BUCKETS] = ["1", "2-7", "8-31", "32+"];

/// RX queues counted one by one; ports in this simulation use at most 8.
pub const RX_QUEUE_SLOTS: usize = 8;

/// SmartNIC program slots counted one by one; ports in this simulation
/// configure at most 8.
pub const NIC_SLOT_COUNTERS: usize = 8;

/// The burst histogram bucket a `tx_burst` of `frames` frames falls in.
pub fn burst_bucket(frames: usize) -> usize {
    match frames {
        0..=1 => 0,
        2..=7 => 1,
        8..=31 => 2,
        _ => 3,
    }
}

/// Where a row's counts sit in the flat slot layout.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Row {
    first: usize,
    len: usize,
}

impl Row {
    /// The row of a snapshot field of type `T` at byte `offset`.
    const fn of<T>(offset: usize) -> Row {
        Row {
            first: offset / size_of::<u64>(),
            len: size_of::<T>() / size_of::<u64>(),
        }
    }

    /// The slot of index `i`, folding overflow into the last slot.
    #[inline]
    fn slot(self, i: usize) -> usize {
        self.first + i.min(self.len - 1)
    }
}

/// Handle to a `thread` row, for [`count`] and friends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ThreadCounter(Row);

/// Handle to an `instance` row, for [`InstanceCounts::add`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InstanceCounter(Row);

/// A row handle of either scope (what [`ROWS`] lists).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Counter {
    /// A thread-wide datapath row.
    Thread(ThreadCounter),
    /// A per-object row.
    Instance(InstanceCounter),
}

impl Counter {
    fn row(self) -> Row {
        match self {
            Counter::Thread(ThreadCounter(r)) | Counter::Instance(InstanceCounter(r)) => r,
        }
    }

    /// Slots in the row: 1 for a scalar, the array length otherwise.
    pub fn width(self) -> usize {
        self.row().len
    }
}

/// Number of `u64` slots across all rows.
const SLOTS: usize = size_of::<MetricsSnapshot>() / size_of::<u64>();

thread_local! {
    /// This thread's running totals of the `thread` rows (the `instance`
    /// slots stay zero here).
    static THREAD: [Cell<u64>; SLOTS] = const { [const { Cell::new(0) }; SLOTS] };
}

#[inline]
fn bump(cell: &Cell<u64>, n: u64) {
    cell.set(cell.get() + n);
}

/// Adds `n` to slot `i` of a thread row.
#[inline]
pub fn add_at(c: ThreadCounter, i: usize, n: u64) {
    THREAD.with(|t| bump(&t[c.0.slot(i)], n));
}

/// Adds one to slot `i` of a thread row.
#[inline]
pub fn count_at(c: ThreadCounter, i: usize) {
    add_at(c, i, 1);
}

/// Adds `n` to a thread row.
#[inline]
pub fn add(c: ThreadCounter, n: u64) {
    add_at(c, 0, n);
}

/// Adds one to a thread row.
#[inline]
pub fn count(c: ThreadCounter) {
    add_at(c, 0, 1);
}

/// Records one payload copy of `bytes` bytes ([`BUFFER_COPIES`] and
/// [`BUFFER_BYTES_COPIED`]). Empty copies are not counted.
#[inline]
pub fn count_copy(bytes: usize) {
    if bytes > 0 {
        count(BUFFER_COPIES);
        add(BUFFER_BYTES_COPIED, bytes as u64);
    }
}

/// This thread's running totals of every `thread` row.
pub fn snapshot() -> MetricsSnapshot {
    THREAD.with(MetricsSnapshot::read)
}

/// Zeroes this thread's totals. Readers holding an older baseline see
/// their next delta clamp to zero.
pub fn reset() {
    THREAD.with(|t| t.iter().for_each(|c| c.set(0)));
}

/// The `instance` rows of one counting object.
pub struct InstanceCounts([Cell<u64>; SLOTS]);

impl Default for InstanceCounts {
    fn default() -> Self {
        Self([const { Cell::new(0) }; SLOTS])
    }
}

impl InstanceCounts {
    /// Adds `n` to an instance row.
    #[inline]
    pub fn add(&self, c: InstanceCounter, n: u64) {
        bump(&self.0[c.0.first], n);
    }

    /// The instance rows' totals (every thread row reads zero).
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot::read(&self.0)
    }

    /// Zeroes every instance row.
    pub fn reset(&self) {
        self.0.iter().for_each(|c| c.set(0));
    }
}

/// A snapshot field: a scalar row or an array row, stored in consecutive
/// slots.
trait Field: Copy {
    fn load(slots: &[u64]) -> Self;
    fn store(self, slots: &mut [u64]);
}

impl Field for u64 {
    fn load(slots: &[u64]) -> Self {
        slots[0]
    }
    fn store(self, slots: &mut [u64]) {
        slots[0] = self;
    }
}

impl<const N: usize> Field for [u64; N] {
    fn load(slots: &[u64]) -> Self {
        std::array::from_fn(|i| slots[i])
    }
    fn store(self, slots: &mut [u64]) {
        slots[..N].copy_from_slice(&self);
    }
}

impl MetricsSnapshot {
    fn read(cells: &[Cell<u64>; SLOTS]) -> Self {
        Self::from_slots(&std::array::from_fn(|i| cells[i].get()))
    }

    fn zip(&self, other: &Self, f: impl Fn(u64, u64) -> u64) -> Self {
        let (a, b) = (self.slots(), other.slots());
        Self::from_slots(&std::array::from_fn(|i| f(a[i], b[i])))
    }

    /// Per-row movement since `earlier`, clamped at zero: a [`reset`]
    /// between the two readings loses the interval instead of
    /// underflowing.
    pub fn delta(&self, earlier: &Self) -> Self {
        self.zip(earlier, u64::saturating_sub)
    }

    /// Row-wise sum with `other`, arrays included. Counts from different
    /// shard threads add exactly, so a logical host's totals are the
    /// merge of its worlds' snapshots.
    pub fn merge(&mut self, other: &Self) {
        *self = self.zip(other, |a, b| a + b);
    }

    /// Slot `i` of `c`'s row, folded like a record call.
    pub fn get(&self, c: Counter, i: usize) -> u64 {
        self.slots()[c.row().slot(i)]
    }
}

/// Declares the registry: [`MetricsSnapshot`], one handle constant per
/// row, the flat slot conversions, and [`ROWS`].
macro_rules! counters {
    ($(
        $(#[doc = $doc:literal])+
        $scope:ident $id:ident: $field:ident $([$dim:expr])?;
    )+) => {
        /// One reading of every registry row, by name.
        #[repr(C)]
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct MetricsSnapshot {
            $($(#[doc = $doc])+ pub $field: counters!(@ty $($dim)?),)+
        }

        $(
            $(#[doc = $doc])+
            pub const $id: counters!(@handle $scope) = counters!(@handle $scope)(Row::of::<
                counters!(@ty $($dim)?),
            >(offset_of!(MetricsSnapshot, $field)));
        )+

        /// Every row with its field name, in table order.
        pub const ROWS: &[(&str, Counter)] =
            &[$((stringify!($field), counters!(@counter $scope $id)),)+];

        impl MetricsSnapshot {
            fn from_slots(slots: &[u64; SLOTS]) -> Self {
                Self { $($field: Field::load(&slots[$id.0.first..]),)+ }
            }

            fn slots(&self) -> [u64; SLOTS] {
                let mut slots = [0; SLOTS];
                $(Field::store(self.$field, &mut slots[$id.0.first..]);)+
                slots
            }
        }
    };
    (@ty) => { u64 };
    (@ty $dim:expr) => { [u64; $dim] };
    (@handle thread) => { ThreadCounter };
    (@handle instance) => { InstanceCounter };
    (@counter thread $id:ident) => { Counter::Thread($id) };
    (@counter instance $id:ident) => { Counter::Instance($id) };
}

counters! {
    /// Kernel crossings on the data path (push/pop/wait). Zero for every
    /// kernel-bypass libOS — the point of Fig. 1.
    instance DATA_PATH_SYSCALLS: data_path_syscalls;
    /// Control-path kernel interactions (device setup, listen, connect
    /// bookkeeping): allowed by the architecture (Fig. 2).
    instance CONTROL_PATH_SYSCALLS: control_path_syscalls;
    /// Payload copies performed by the libOS.
    instance COPIES: copies;
    /// Bytes moved by those copies.
    instance BYTES_COPIED: bytes_copied;
    /// `wait`/`wait_any` returns that delivered a completion.
    instance WAKEUPS: wakeups;
    /// Completions delivered along with their data (always equal to
    /// `wakeups` for Demikernel; the epoll baseline needs extra syscalls).
    instance WAKEUPS_WITH_DATA: wakeups_with_data;
    /// Push operations started.
    instance PUSHES: pushes;
    /// Pop operations started.
    instance POPS: pops;
    /// Iterations of the `wait_any` loop (each = one pump of the world).
    instance WAIT_PASSES: wait_passes;
    /// Task polls performed across those passes. With the waker-driven
    /// scheduler this tracks *ready* work, independent of how many
    /// operations are parked; under the legacy sweep policy it grows with
    /// the number of outstanding operations (E11).
    instance WAIT_POLLS: wait_polls;
    /// Buffer allocations (E12): pool allocations (warm or cold) plus
    /// unpooled `DemiBuffer` constructions. Handle clones and slices never
    /// count. Thread-wide: in a two-host simulation this covers both ends
    /// of the wire, which is what "per round trip" costs want.
    thread BUFFER_ALLOCS: buffer_allocs;
    /// Payload-byte copy operations (a `memcpy` of buffer contents). Zero
    /// on the catnip echo path — headers prepend into headroom and
    /// payloads travel as views.
    thread BUFFER_COPIES: buffer_copies;
    /// Bytes moved by those copies.
    thread BUFFER_BYTES_COPIED: buffer_bytes_copied;
    /// Completed-token lookups performed by `wait_any`/`wait_all` loops.
    /// With the completion ring this is O(tokens) once per call plus O(1)
    /// per arrival — it no longer multiplies by the number of pump passes
    /// (E13's O(1) completion-delivery claim).
    instance COMPLETION_CHECKS: completion_checks;
    /// `tx_burst` device handoffs (E13): each is one doorbell ring, the
    /// cost DPDK exists to amortize.
    thread TX_BURST_CALLS: tx_burst_calls;
    /// Histogram of frames per `tx_burst` call: buckets for 1, 2–7, 8–31,
    /// and ≥32 frames ([`BURST_BUCKET_LABELS`], [`burst_bucket`]).
    thread TX_FRAMES_PER_BURST: tx_frames_per_burst[BURST_BUCKETS];
    /// Pure-ACK frames avoided by TCP delayed-ACK coalescing (E13): each
    /// is a received segment whose acknowledgment rode on another segment.
    thread ACKS_COALESCED: acks_coalesced;
    /// Poll passes that exhausted their RX budget with device frames still
    /// pending.
    thread RX_BUDGET_EXHAUSTED: rx_budget_exhausted;
    /// Frames accepted per device RX queue (E14).
    thread RX_QUEUE_ENQUEUED: rx_queue_enqueued[RX_QUEUE_SLOTS];
    /// Frames tail-dropped per full device RX queue.
    thread RX_QUEUE_DROPPED: rx_queue_dropped[RX_QUEUE_SLOTS];
    /// Frames that arrived on a queue whose shard does not own their flow
    /// and were handed off (E14). Zero whenever device RSS and the stack's
    /// `shard_for` agree.
    thread STEERING_MISMATCHES: steering_mismatches;
    /// Timer entries scheduled on the timing wheels.
    thread TIMERS_SCHEDULED: timers_scheduled;
    /// Wheel entries that fired live (their connection was ticked).
    thread TIMERS_FIRED: timers_fired;
    /// Wheel entries discarded as lazily cancelled.
    thread TIMERS_STALE: timers_stale;
    /// Cross-shard sends that found the destination ring or handoff queue
    /// full (the bounded queues pushing back).
    thread HANDOFF_BACKPRESSURE: handoff_backpressure;
    /// Cross-shard messages discarded because the destination stayed full
    /// (TCP retransmission recovers; the queue never grows unbounded).
    thread HANDOFF_DROPPED: handoff_dropped;
    /// TCP demux lookups (E18).
    thread DEMUX_LOOKUPS: demux_lookups;
    /// Demux lookups served by the single-entry last-flow cache.
    thread DEMUX_CACHE_HITS: demux_cache_hits;
    /// Full control blocks demoted to compact TIME_WAIT records.
    thread TW_DEMOTED: tw_demoted;
    /// TIME_WAIT records expired at 2·MSL.
    thread TW_EXPIRED: tw_expired;
    /// ACKs re-sent by a TIME_WAIT record for a late FIN.
    thread TW_REACKS: tw_reacks;
    /// SYN-table entries evicted oldest-first under flood.
    thread SYNS_EVICTED: syns_evicted;
    /// Lazy TCB queue-box allocations (steady state holds this at zero).
    thread TCB_QUEUE_ALLOCS: tcb_queue_allocs;
    /// Drained TCB queue boxes released by the compactor.
    thread TCB_QUEUE_RELEASES: tcb_queue_releases;
    /// Times a peer's reusable TX scratch buffer had to grow (steady state
    /// holds this at zero once warmed).
    thread OUTBOX_SCRATCH_GROWS: outbox_scratch_grows;
    /// Device cycles charged per SmartNIC program slot (E17), at
    /// execution time.
    thread NIC_SLOT_CYCLES: nic_slot_cycles[NIC_SLOT_COUNTERS];
    /// Frames examined per SmartNIC program slot.
    thread NIC_SLOT_FRAMES: nic_slot_frames[NIC_SLOT_COUNTERS];
    /// Frames dropped or absorbed per SmartNIC program slot.
    thread NIC_SLOT_DROPS: nic_slot_drops[NIC_SLOT_COUNTERS];
    /// Requests served device-side per SmartNIC program slot.
    thread NIC_SLOT_SERVED: nic_slot_served[NIC_SLOT_COUNTERS];
    /// Deficit-round-robin fill rounds run by the weighted-fair TX
    /// scheduler (E20). Zero unless a stack was built with tenancy.
    thread TX_DEFICIT_ROUNDS: tx_deficit_rounds;
    /// TX fill passes in which a tenant's token bucket deferred its lane
    /// (rate limiting engaged).
    thread RATE_LIMITED_FRAMES: rate_limited_frames;
    /// Frames dropped at a tenant quota boundary: full TX staging lane,
    /// exhausted RX slice, or TIME_WAIT partition eviction.
    thread QUOTA_DROPS: quota_drops;
    /// Cross-tenant accesses refused: buffer view/clone/prepend attempts
    /// and port bind/listen/connect denials.
    thread CROSS_TENANT_DENIALS: cross_tenant_denials;
    /// Allocations refused because a tenant's private mempool partition
    /// was spent.
    thread POOL_EXHAUSTIONS: pool_exhaustions;
}
