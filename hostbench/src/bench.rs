//! The measurement loop shared by every workload: windows of host CPU
//! time, the fixed-length deterministic segment, and the oracle's tally.

use std::time::{Duration, Instant};

use crate::alloc;
use crate::calib;
use crate::host;
use crate::rng::Digest;
use crate::world::Counters;

/// What an op's reply check and latency recording write to.
pub struct Ctx {
    /// Ops (echo round trips, KV commands) whose reply was verified.
    pub completed: u64,
    /// Ops that failed or returned a wrong reply.
    pub failed: u64,
    /// Requests started (echo round trips, KV bursts or commands).
    pub requests: u64,
    /// Calls into the Demikernel API, counted by the call wrappers.
    pub api_calls: u64,
    /// Inside the deterministic segment: digest and virtual samples are
    /// recorded only there.
    pub recording: bool,
    pub digest: Digest,
    /// Host wall time per request, in completion order.
    pub host_lat_ns: Vec<u64>,
    /// Virtual latency per request (RTT, burst RTT, or open-loop sojourn).
    pub virt_lat_ns: Vec<u64>,
    /// How late the open-loop generator injected each arrival.
    pub gen_lag_ns: Vec<u64>,
    /// Virtual time from a log push to its record being durable.
    pub commit_ns: Vec<u64>,
    errors: Vec<String>,
}

impl Ctx {
    pub fn new() -> Self {
        Ctx {
            completed: 0,
            failed: 0,
            requests: 0,
            api_calls: 0,
            recording: false,
            digest: Digest::new(),
            host_lat_ns: Vec::with_capacity(1 << 20),
            virt_lat_ns: Vec::with_capacity(1 << 16),
            gen_lag_ns: Vec::with_capacity(1 << 14),
            commit_ns: Vec::with_capacity(1 << 14),
            errors: Vec::new(),
        }
    }

    /// Counts `ops` failed ops and keeps the first few reasons.
    pub fn fail(&mut self, ops: u64, why: impl FnOnce() -> String) {
        self.failed += ops;
        if self.errors.len() < 8 {
            self.errors.push(why());
        }
    }

    pub fn errors(&self) -> &[String] {
        &self.errors
    }

    /// Counts one API call and passes its result through.
    pub fn call<R>(&mut self, r: R) -> R {
        self.api_calls += 1;
        r
    }
}

/// A workload: a world plus the client and server logic that drive it.
pub trait Workload {
    /// One step of the event loop. Must leave the world in a state from
    /// which the next step continues the same op sequence, so windows
    /// cut between steps never change virtual behaviour.
    fn step(&mut self, ctx: &mut Ctx);
    /// Exact counters from every layer's stats API.
    fn counters(&self) -> Counters;
    /// Current virtual time, ns.
    fn virt_now_ns(&self) -> u64;
    /// Drains every outstanding request and runs the end-of-run checks
    /// (crash replay of the KV log).
    fn finish(&mut self, ctx: &mut Ctx);
}

/// Runs of consecutive windows the host latency quantiles are taken over.
pub const LAT_CHUNKS: usize = 10;

/// One window of the measured phase.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub ops: u64,
    pub cpu_ns: u64,
    /// This window's requests in [`Phase::host_lat_ns`].
    pub lat: (usize, usize),
    /// CPU time of the probe run right after the window.
    pub probe_ns: u64,
}

impl Window {
    /// [`calib::scale`] of the window's probe.
    pub fn scale(&self) -> f64 {
        calib::scale(self.probe_ns)
    }

    /// CPU ns per op in quiet reference-host time.
    pub fn ns_per_op(&self) -> f64 {
        self.cpu_ns as f64 / self.ops as f64 * self.scale()
    }
}

/// What the deterministic segment produced. Everything but `allocs` is
/// identical for identical seeds, traced or not; `allocs` can differ by
/// a few because `std`'s randomly seeded hash maps decide per process
/// when a table rehashes.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    pub ops: u64,
    pub requests: u64,
    pub api_calls: u64,
    pub allocs: u64,
    pub virt_ns: u64,
    pub digest: u64,
    pub counters: Counters,
    /// Peak resident memory when the segment ended, MiB: the measured
    /// and the check world's set-up plus the measured world's fixed
    /// amount of work, so it does not grow with host speed.
    pub peak_rss_mib: f64,
}

pub struct Phase {
    pub windows: Vec<Window>,
    /// Host wall time of every request, window by window.
    pub host_lat_ns: Vec<u64>,
    pub segment: Segment,
    pub ops: u64,
    /// Wall time of the phase, probes excluded.
    pub wall_ns: u64,
}

impl Phase {
    /// Median over windows of host CPU ns per op, in quiet
    /// reference-host time (see [`crate::calib`]).
    pub fn host_ns_per_op(&self) -> f64 {
        median(self.windows.iter().map(Window::ns_per_op).collect())
    }

    /// Median machine scale over the phase's windows.
    pub fn scale(&self) -> f64 {
        median(self.windows.iter().map(Window::scale).collect())
    }

    /// `ns` of the phase's wall time as a share of it, applied to
    /// [`Phase::host_ns_per_op`].
    pub fn share_ns_per_op(&self, ns: u64) -> f64 {
        self.host_ns_per_op() * ns as f64 / self.wall_ns.max(1) as f64
    }

    /// Median over windows of host CPU ns per op, unscaled.
    pub fn raw_ns_per_op(&self) -> f64 {
        median(
            self.windows
                .iter()
                .map(|w| w.cpu_ns as f64 / w.ops as f64)
                .collect(),
        )
    }

    /// The probe's fastest time in the phase, ns: its time on a quiet
    /// machine next to this workload.
    pub fn quiet_probe_ns(&self) -> u64 {
        self.windows.iter().map(|w| w.probe_ns).min().unwrap_or(0)
    }

    /// Host wall time per request at quantile `q`, each request scaled
    /// like the window it completed in. The phase is cut into
    /// [`LAT_CHUNKS`] runs of consecutive windows and the value is the
    /// median of their quantiles, so a slow stretch of the machine in one
    /// part of the phase does not move the tail.
    pub fn host_lat_ns(&self, q: f64) -> f64 {
        let per_chunk = self.windows.len().div_ceil(LAT_CHUNKS).max(1);
        let chunk_q = |ws: &[Window]| {
            let mut v: Vec<u64> = ws
                .iter()
                .flat_map(|w| {
                    self.host_lat_ns[w.lat.0..w.lat.1]
                        .iter()
                        .map(move |&ns| (ns as f64 * w.scale()) as u64)
                })
                .collect();
            quantile(&mut v, q) as f64
        };
        median(self.windows.chunks(per_chunk).map(chunk_q).collect())
    }
}

/// Runs windows of `window_ops` ops until the first `seg_ops` ops (the
/// deterministic segment, with counters read at both ends) are done and
/// `seconds` of wall time have passed since the start.
pub fn measure(
    w: &mut dyn Workload,
    ctx: &mut Ctx,
    window_ops: u64,
    seg_ops: u64,
    seconds: f64,
) -> Phase {
    let mut windows = Vec::with_capacity(1 << 12);
    ctx.host_lat_ns.clear();
    let counters0 = w.counters();
    let virt0 = w.virt_now_ns();
    let (ops0, req0, calls0) = (ctx.completed, ctx.requests, ctx.api_calls);
    let allocs0 = alloc::count();
    ctx.recording = true;
    let start = Instant::now();
    let cpu_start = host::thread_cpu_ns();
    let mut segment = None;
    let (mut cpu_prev, mut ops_prev, mut lat_prev) = (cpu_start, ops0, 0);
    // The probe's allocations and wall time are not the workload's.
    let (mut probe_allocs, mut probe_wall) = (0, Duration::ZERO);
    loop {
        let target = ops_prev + window_ops;
        while ctx.completed < target {
            w.step(ctx);
            if segment.is_none() && ctx.completed - ops0 >= seg_ops {
                ctx.recording = false;
                segment = Some(Segment {
                    ops: ctx.completed - ops0,
                    requests: ctx.requests - req0,
                    api_calls: ctx.api_calls - calls0,
                    allocs: alloc::count() - allocs0 - probe_allocs,
                    virt_ns: w.virt_now_ns() - virt0,
                    digest: ctx.digest.value(),
                    counters: w.counters().delta(&counters0),
                    peak_rss_mib: host::peak_rss_mib(),
                });
            }
        }
        let cpu = host::thread_cpu_ns();
        let (allocs, t0) = (alloc::count(), Instant::now());
        let probe = calib::probe_ns();
        probe_wall += t0.elapsed();
        probe_allocs += alloc::count() - allocs;
        let lat = ctx.host_lat_ns.len();
        windows.push(Window {
            ops: ctx.completed - ops_prev,
            cpu_ns: cpu - cpu_prev,
            lat: (lat_prev, lat),
            probe_ns: probe,
        });
        // The next window starts after the probe.
        (cpu_prev, ops_prev, lat_prev) = (host::thread_cpu_ns(), ctx.completed, lat);
        if segment.is_some() && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    Phase {
        windows,
        host_lat_ns: std::mem::take(&mut ctx.host_lat_ns),
        segment: segment.expect("segment closes before the loop ends"),
        ops: ctx.completed - ops0,
        wall_ns: (start.elapsed() - probe_wall).as_nanos() as u64,
    }
}

/// Nearest-rank quantile; reorders `v`. `0` for an empty slice.
pub fn quantile(v: &mut [u64], q: f64) -> u64 {
    if v.is_empty() {
        return 0;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1;
    *v.select_nth_unstable(rank).1
}

pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::{median, quantile};

    #[test]
    fn quantiles_use_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(quantile(&mut v, 0.50), 50);
        assert_eq!(quantile(&mut v, 0.99), 99);
        assert_eq!(quantile(&mut v, 1.0), 100);
        assert_eq!(quantile(&mut [], 0.5), 0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(Vec::new()), 0.0);
    }
}
