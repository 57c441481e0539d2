//! The machine-speed probe host-time metrics are normalised by.
//!
//! On a shared host, other tenants slow this code by up to 1.8× in
//! stretches that last seconds, so raw CPU time per op swings between
//! modes from run to run. A fixed probe of ordinary systems code (hash
//! map and B-tree updates, a queue, small sorts) run right after each
//! measured window slows down with it (correlation 0.7–0.8 window by
//! window on the reference host), while a memory-latency walk does not.
//! The datapath slows more than the probe, though: across runs in slow
//! and quiet stretches, raw CPU time per op went as the probe time to
//! the power 1.4 (pipelined KV), 1.5 (open-loop KV) and 1.8 (UDP echo).
//! Each window's CPU time is therefore scaled by `(REF_NS / probe)` to
//! the power [`EXPONENT`], which expresses it in the time it would take
//! on the reference host when quiet.
//!
//! The probe shares the program's caches and heap, so a change to the
//! program's working set could move the probe too. The probe runs once
//! untimed before the timed pass, so it is timed with its own data in
//! cache; next to the three workloads, under the same machine state, its
//! median time agreed within 2 %. The trace run reports the raw
//! (unscaled) CPU time, the median scale and the quiet probe time next to
//! the scaled metric, so a shift of the scale between commits shows.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hint::black_box;

use crate::host;

/// The warm probe's CPU time on the reference host (2 vCPUs of an Intel Xeon,
/// rustc 1.95) when no neighbour interferes: the low mode of its
/// distribution.
pub const REF_NS: f64 = 260_000.0;

/// How much faster than the probe the datapath slows down (see above).
pub const EXPONENT: f64 = 1.5;

struct Probe {
    hash: HashMap<u64, u64>,
    tree: BTreeMap<u64, u64>,
    queue: VecDeque<u64>,
    x: u64,
}

thread_local! {
    static PROBE: RefCell<Option<Probe>> = const { RefCell::new(None) };
}

/// Runs the probe twice and returns the CPU time of the second pass in
/// ns: the first, untimed pass brings the probe's tables back into cache
/// after the workload evicted them. The first call on a thread builds
/// the tables.
pub fn probe_ns() -> u64 {
    PROBE.with(|p| {
        let mut p = p.borrow_mut();
        let p = p.get_or_insert_with(|| Probe {
            hash: HashMap::with_capacity(8192),
            tree: BTreeMap::new(),
            queue: VecDeque::with_capacity(128),
            x: 0x9E37_79B9_7F4A_7C15,
        });
        black_box(p.pass());
        let t0 = host::thread_cpu_ns();
        black_box(p.pass());
        host::thread_cpu_ns() - t0
    })
}

impl Probe {
    /// One pass of the probe's fixed operation mix.
    fn pass(&mut self) -> u64 {
        let p = self;
        let mut acc = 0u64;
        for _ in 0..3_000 {
            p.x ^= p.x << 13;
            p.x ^= p.x >> 7;
            p.x ^= p.x << 17;
            let k = p.x & 4095;
            match p.x >> 60 {
                0..=5 => {
                    p.hash.insert(k, p.x);
                }
                6..=9 => acc = acc.wrapping_add(*p.hash.get(&k).unwrap_or(&1)),
                10..=11 => {
                    p.hash.remove(&k);
                }
                12..=13 => {
                    p.tree.insert(k, p.x);
                    if p.tree.len() > 2048 {
                        p.tree.pop_first();
                    }
                }
                _ => {
                    p.queue.push_back(p.x);
                    if p.queue.len() > 64 {
                        acc ^= p.queue.pop_front().unwrap_or(0);
                    }
                }
            }
            let mut v = [0u64; 8];
            for (i, e) in v.iter_mut().enumerate() {
                *e = p.x.rotate_left(i as u32 * 7);
            }
            v.sort_unstable();
            acc = acc.wrapping_add(v[3]);
        }
        acc
    }
}

/// The factor that expresses CPU time measured next to a probe of
/// `probe_ns` in quiet reference-host time.
pub fn scale(probe_ns: u64) -> f64 {
    (REF_NS / probe_ns.max(1) as f64).powf(EXPONENT)
}
