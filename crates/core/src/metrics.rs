//! Exact data-path accounting for the experiments.
//!
//! The paper's claims are about *counted* costs: kernel crossings per I/O
//! (Fig. 1 / E1), copies (E2), and wakeups (E4). Every libOS carries a
//! [`Metrics`] handle and the experiment harness reads it. A kernel-bypass
//! libOS never counts `DATA_PATH_SYSCALLS`; the catnap baseline
//! delegates to the simulated kernel's own counters.
//!
//! Every count is a row of the `demi_telemetry::counters` registry. A
//! `Metrics` holds the registry's per-instance rows and a baseline of the
//! thread-wide rows; its snapshot reports both as movement since
//! construction or the last [`Metrics::reset`].

use std::cell::Cell;
use std::rc::Rc;

pub use demi_telemetry::counters::MetricsSnapshot;
use demi_telemetry::counters::{self, InstanceCounter, InstanceCounts};

/// Shared counter block (cheap to clone; one per libOS instance).
#[derive(Clone, Default)]
pub struct Metrics {
    inner: Rc<MetricsInner>,
}

struct MetricsInner {
    counts: InstanceCounts,
    /// The thread rows at construction or the last reset.
    base: Cell<MetricsSnapshot>,
}

impl Default for MetricsInner {
    fn default() -> Self {
        MetricsInner {
            counts: InstanceCounts::default(),
            base: Cell::new(counters::snapshot()),
        }
    }
}

/// Cross-thread metrics sink for thread-per-shard execution.
///
/// A [`Metrics`] handle folds *thread-local* registry rows into its
/// snapshots — read from the wrong thread, those fields silently report
/// zero. Each shard thread therefore takes its own `snapshot()` *on its
/// own thread* (where the thread-locals are live) and [`absorb`]s it
/// here; [`merged`] on any thread then reports the logical host's true
/// totals. The hub is `Send + Sync` (share it via `Arc`).
///
/// [`absorb`]: MetricsHub::absorb
/// [`merged`]: MetricsHub::merged
#[derive(Default)]
pub struct MetricsHub {
    merged: std::sync::Mutex<MetricsSnapshot>,
}

impl MetricsHub {
    /// An empty hub.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one shard thread's snapshot into the hub. Call on the shard
    /// thread that produced it.
    pub fn absorb(&self, snap: MetricsSnapshot) {
        self.merged.lock().unwrap().merge(&snap);
    }

    /// The sum of everything absorbed so far.
    pub fn merged(&self) -> MetricsSnapshot {
        *self.merged.lock().unwrap()
    }

    /// Clears the hub (between experiment phases).
    pub fn reset(&self) {
        *self.merged.lock().unwrap() = MetricsSnapshot::default();
    }
}

impl Metrics {
    /// Fresh counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one to an instance row.
    pub fn count(&self, c: InstanceCounter) {
        self.add(c, 1);
    }

    /// Adds `n` to an instance row.
    pub fn add(&self, c: InstanceCounter, n: u64) {
        self.inner.counts.add(c, n);
    }

    /// Every row: this instance's counts plus the thread rows' movement
    /// since the baseline.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = counters::snapshot().delta(&self.inner.base.get());
        snap.merge(&self.inner.counts.snapshot());
        snap
    }

    /// Zeroes the counters (between experiment phases) and rebases the
    /// thread rows, so the next snapshot reports only movement after this
    /// point.
    pub fn reset(&self) {
        self.inner.counts.reset();
        self.inner.base.set(counters::snapshot());
    }
}

impl std::fmt::Debug for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Metrics({:?})", self.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use demi_telemetry::counters::{burst_bucket, Counter, PUSHES, ROWS, TX_FRAMES_PER_BURST};

    /// Adds `n` to slot `i` of any row.
    fn bump(m: &Metrics, row: Counter, i: usize, n: u64) {
        match row {
            Counter::Thread(c) => counters::add_at(c, i, n),
            Counter::Instance(c) => m.add(c, n),
        }
    }

    /// The sum of every slot of every row.
    fn total(s: &MetricsSnapshot) -> u64 {
        ROWS.iter()
            .flat_map(|&(_, row)| (0..row.width()).map(move |i| s.get(row, i)))
            .sum()
    }

    #[test]
    fn every_registry_row_folds_merges_rebases_and_clamps() {
        for &(name, row) in ROWS {
            let last = row.width() - 1;
            let m = Metrics::new();
            bump(&m, row, 0, 3);
            bump(&m, row, last + 5, 2);
            let s = m.snapshot();
            let (first, end) = if last == 0 { (5, 5) } else { (3, 2) };
            assert_eq!(s.get(row, 0), first, "{name}: count shows in snapshot");
            assert_eq!(
                s.get(row, last),
                end,
                "{name}: an index past the end folds into the last slot"
            );
            assert_eq!(total(&s), 5, "{name}: no other row moved");

            let mut merged = s;
            merged.merge(&s);
            assert_eq!(merged.get(row, 0), 2 * first, "{name}: merge sums");
            assert_eq!(merged.get(row, last), 2 * end, "{name}: merge sums arrays");

            m.reset();
            assert_eq!(m.snapshot(), MetricsSnapshot::default(), "{name}: reset");
            bump(&m, row, 0, 1);
            assert_eq!(m.snapshot().get(row, 0), 1, "{name}: rebased fold");

            if let Counter::Thread(_) = row {
                // A thread-local reset under a live baseline clamps to
                // zero instead of underflowing.
                counters::reset();
                assert_eq!(m.snapshot(), MetricsSnapshot::default(), "{name}: clamp");
                m.reset();
                bump(&m, row, 0, 1);
                assert_eq!(m.snapshot().get(row, 0), 1, "{name}: clamp, rebased");
            }
        }
    }

    #[test]
    fn bursts_land_in_the_right_buckets() {
        let m = Metrics::new();
        for frames in [1, 2, 7, 8, 31, 32, 400] {
            counters::count_at(TX_FRAMES_PER_BURST, burst_bucket(frames));
        }
        assert_eq!(m.snapshot().tx_frames_per_burst, [1, 2, 2, 2]);
    }

    #[test]
    fn clones_share_counters() {
        let m = Metrics::new();
        let m2 = m.clone();
        m.count(PUSHES);
        assert_eq!(m2.snapshot().pushes, 1);
    }

    #[test]
    fn hub_absorbs_shard_thread_counters_the_naive_read_misses() {
        use std::sync::Arc;
        let hub = Arc::new(MetricsHub::new());
        // The shard thread moves thread-local registry rows and absorbs
        // its own snapshot; the spawning thread's Metrics never sees that
        // movement (its thread-locals are a different instance).
        let observer = Metrics::new();
        let h = Arc::clone(&hub);
        std::thread::spawn(move || {
            let m = Metrics::new();
            m.count(PUSHES);
            counters::count(counters::TX_BURST_CALLS);
            h.absorb(m.snapshot());
        })
        .join()
        .unwrap();
        assert_eq!(
            observer.snapshot().tx_burst_calls,
            0,
            "thread-local counters are invisible across threads — the bug \
             the hub exists to fix"
        );
        let merged = hub.merged();
        assert_eq!(merged.pushes, 1);
        assert_eq!(merged.tx_burst_calls, 1);
        hub.reset();
        assert_eq!(hub.merged(), MetricsSnapshot::default());
    }
}
