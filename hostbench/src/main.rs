//! Host-CPU benchmark of the Demikernel datapath.
//!
//! ```text
//! cargo run --release --offline --manifest-path hostbench/Cargo.toml -- \
//!     --workload <udp_echo_64|kv_pipeline_read|kv_open_write> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! workload untraced and then traced, prints the per-layer metrics, and
//! writes the span dump and self-time table under `hostbench/results/`.
//! The last line of standard output is one JSON object. The exit code is
//! non-zero when any reply, the crash replay, or the determinism check
//! fails. See `README.md` for the workloads and metrics.

mod alloc;
mod bench;
mod calib;
mod echo;
mod host;
mod kv;
mod rng;
mod trace;
mod world;

use std::fmt::Write as _;
use std::time::Instant;

use bench::{measure, median, quantile, Ctx, Phase, Segment, Workload};
use kv::KvParams;
use trace::{Acc, Layer, Rec, LAYERS};

#[global_allocator]
static ALLOC: alloc::ThreadCounting = alloc::ThreadCounting;

/// Spans kept for the dump (the totals cover every span).
const DUMP_SPANS: usize = 20_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    UdpEcho64,
    KvPipelineRead,
    KvOpenWrite,
}

impl Kind {
    fn parse(name: &str) -> Option<Kind> {
        match name {
            "udp_echo_64" => Some(Kind::UdpEcho64),
            "kv_pipeline_read" => Some(Kind::KvPipelineRead),
            "kv_open_write" => Some(Kind::KvOpenWrite),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Kind::UdpEcho64 => "udp_echo_64",
            Kind::KvPipelineRead => "kv_pipeline_read",
            Kind::KvOpenWrite => "kv_open_write",
        }
    }

    /// Ops per window: 5-50 ms of host time each, so the machine-speed
    /// probe after each window samples the machine often.
    fn window_ops(self) -> u64 {
        match self {
            Kind::UdpEcho64 => 500,
            Kind::KvPipelineRead => 16 * 10,
            Kind::KvOpenWrite => 40,
        }
    }

    /// World set-ups timed per `--trace 0` run; `setup_s` is their median.
    fn setups(self) -> usize {
        match self {
            Kind::UdpEcho64 => 9,
            Kind::KvPipelineRead => 7,
            Kind::KvOpenWrite => 5,
        }
    }

    /// Ops in the deterministic segment: at least 1000 requests, so its
    /// virtual p99 has ten samples beyond it.
    fn segment_ops(self) -> u64 {
        match self {
            Kind::UdpEcho64 => 4_000,
            Kind::KvPipelineRead => 16 * 1_000,
            Kind::KvOpenWrite => 1_000,
        }
    }

    fn kv_params(self) -> Option<KvParams> {
        match self {
            Kind::UdpEcho64 => None,
            // 16 connections, each a closed loop of depth-16 bursts;
            // 95% GET over Zipf(0.99) keys whose 64 B values all fit.
            Kind::KvPipelineRead => Some(KvParams {
                conns: 16,
                depth: 16,
                get_frac: 0.95,
                keys: 4_096,
                zipf_theta: Some(0.99),
                max_shift: 0,
                byte_budget: 4 << 20,
                open_rate: None,
                warmup_requests: 200,
            }),
            // 256 connections at depth 1, Poisson arrivals at a fixed
            // 20k commands per virtual second (below the serial log
            // writer's ~40k records/s), 50% SET with 64 B..4 KiB values
            // over a key space about twice the store budget.
            Kind::KvOpenWrite => Some(KvParams {
                conns: 256,
                depth: 1,
                get_frac: 0.5,
                keys: 1_792,
                zipf_theta: None,
                max_shift: 6,
                byte_budget: 1 << 20,
                open_rate: Some(20_000.0),
                warmup_requests: 300,
            }),
        }
    }

    fn setup(self, seed: u64, traced: bool) -> Box<dyn Workload> {
        match self.kv_params() {
            None => Box::new(echo::Echo::setup(seed, traced)),
            Some(p) => Box::new(kv::Kv::setup(seed, traced, p)),
        }
    }
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// One measured world: its phase and the context its oracle filled.
struct Run {
    phase: Phase,
    ctx: Ctx,
}

/// Measures `w` for `seconds` (a bare deterministic segment when
/// `seconds` is 0), then drains it and runs the end-of-run checks.
fn run(kind: Kind, mut w: Box<dyn Workload>, seconds: f64) -> Run {
    let mut ctx = Ctx::new();
    let phase = measure(
        w.as_mut(),
        &mut ctx,
        kind.window_ops(),
        kind.segment_ops(),
        seconds,
    );
    w.finish(&mut ctx);
    Run { phase, ctx }
}

/// Metrics in output order: (name, value, unit).
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Metrics every run reports alongside the digest: virtual time and the
/// oracle's tally, over the deterministic segment.
fn virtual_metrics(r: &mut Run) -> Metrics {
    let seg = &r.phase.segment;
    let ctx = &mut r.ctx;
    vec![
        (
            "virt_us_p50",
            quantile(&mut ctx.virt_lat_ns, 0.50) as f64 / 1e3,
            "us",
        ),
        (
            "virt_us_p99",
            quantile(&mut ctx.virt_lat_ns, 0.99) as f64 / 1e3,
            "us",
        ),
        (
            "virt_kops_per_s",
            ratio(seg.ops as f64, seg.virt_ns as f64) * 1e6,
            "kops/s",
        ),
        (
            "gen_lag_us_p99",
            quantile(&mut ctx.gen_lag_ns, 0.99) as f64 / 1e3,
            "us",
        ),
        (
            "failed_frac",
            ratio(ctx.failed as f64, (ctx.completed + ctx.failed) as f64),
            "frac",
        ),
    ]
}

fn end_to_end(setup: &[f64], r: &Run) -> Metrics {
    let seg = &r.phase.segment;
    vec![
        ("setup_s", median(setup.to_vec()), "s"),
        ("host_ns_per_op", r.phase.host_ns_per_op(), "ns"),
        ("host_us_p50", r.phase.host_lat_ns(0.50) / 1e3, "us"),
        ("host_us_p99", r.phase.host_lat_ns(0.99) / 1e3, "us"),
        (
            "allocs_per_op",
            ratio(seg.allocs as f64, seg.ops as f64),
            "count",
        ),
        ("peak_rss_mib", seg.peak_rss_mib, "MiB"),
    ]
}

/// The per-layer metrics of a traced run (`t`), against the untraced
/// run (`u`) of the same seed.
fn per_layer(u: &Run, t: &mut Run, acc: &[Acc; LAYERS.len()], top_ns: u64) -> Metrics {
    // Per-call span times are scaled to quiet reference-host time like
    // the host metrics, by the traced phase's median machine scale.
    // Per-op span times are the span's share of the traced phase's wall
    // time applied to the traced `host_ns_per_op`, so the layers' self
    // times plus the benchmark loop add up to that figure.
    let scale = t.phase.scale();
    let a = |l: Layer| acc[l as usize];
    let per_call = |l: Layer| scale * ratio(a(l).total_ns as f64, a(l).count as f64);
    let traced_ops = t.phase.ops as f64;
    let per_op = |ns: u64| t.phase.share_ns_per_op(ns);
    let seg = t.phase.segment.clone();
    let c = &seg.counters;
    let ops = seg.ops as f64;
    let cnt = |n: &str| c.get(n) as f64;
    let untraced = u.phase.host_ns_per_op();
    let traced = t.phase.host_ns_per_op();
    let rounds_per_op = ratio(a(Layer::NetPoll).count as f64, traced_ops);
    let frames_per_op = (cnt("stack.rx_frames") + cnt("stack.tx_frames")) / ops;
    let layer_sum = per_op(acc.iter().map(|x| x.self_ns).sum());
    let bench = per_op(t.phase.wall_ns.saturating_sub(top_ns));
    let mut m = vec![
        ("libos.push_ns", per_call(Layer::LibosPush), "ns"),
        ("libos.pop_ns", per_call(Layer::LibosPop), "ns"),
        ("libos.calls_per_op", seg.api_calls as f64 / ops, "count"),
        (
            "runtime.wait_ns_per_op",
            per_op(a(Layer::Wait).total_ns),
            "ns",
        ),
        (
            "runtime.self_ns_per_op",
            per_op(a(Layer::Wait).self_ns),
            "ns",
        ),
        (
            "runtime.wait_passes_per_op",
            cnt("runtime.wait_passes") / ops,
            "count",
        ),
        (
            "runtime.completion_checks_per_op",
            cnt("runtime.completion_checks") / ops,
            "count",
        ),
        (
            "runtime.deadline_scans_per_op",
            ratio(a(Layer::DeadlineScan).count as f64, traced_ops),
            "count",
        ),
        (
            "runtime.deadline_scan_ns",
            per_call(Layer::DeadlineScan),
            "ns",
        ),
        (
            "stack.poll_ns_per_op",
            per_op(a(Layer::NetPoll).total_ns),
            "ns",
        ),
        ("stack.poll_rounds_per_op", rounds_per_op, "count"),
        (
            "stack.frames_per_poll_round",
            ratio(frames_per_op, rounds_per_op),
            "count",
        ),
        (
            "stack.rx_frames_per_op",
            cnt("stack.rx_frames") / ops,
            "count",
        ),
        (
            "stack.tx_frames_per_op",
            cnt("stack.tx_frames") / ops,
            "count",
        ),
        (
            "tcp.demux_cache_hit_frac",
            ratio(cnt("tcp.demux_cache_hits"), cnt("tcp.demux_lookups")),
            "frac",
        ),
        (
            "tcp.acks_coalesced_per_op",
            cnt("tcp.acks_coalesced") / ops,
            "count",
        ),
        (
            "tcp.timers_fired_per_op",
            cnt("tcp.timers_fired") / ops,
            "count",
        ),
        (
            "tcp.timers_stale_frac",
            ratio(
                cnt("tcp.timers_stale"),
                cnt("tcp.timers_fired") + cnt("tcp.timers_stale"),
            ),
            "frac",
        ),
        ("tcp.retransmits", cnt("tcp.retransmits"), "count"),
        (
            "dpdk.tx_bursts_per_op",
            cnt("dpdk.tx_burst_calls") / ops,
            "count",
        ),
        (
            "dpdk.frames_per_tx_burst",
            ratio(cnt("dpdk.tx_frames"), cnt("dpdk.tx_burst_calls")),
            "count",
        ),
        ("dpdk.rx_ring_drops", cnt("dpdk.rx_ring_drops"), "count"),
        (
            "fabric.frames_per_op",
            cnt("fabric.frames_delivered") / ops,
            "count",
        ),
        (
            "fabric.frames_dropped",
            cnt("fabric.frames_dropped"),
            "count",
        ),
        ("sched.polls_per_op", cnt("sched.polls") / ops, "count"),
        ("sched.passes_per_op", cnt("sched.passes") / ops, "count"),
        (
            "sched.polls_per_wakeup",
            ratio(cnt("sched.polls"), cnt("sched.wakeups")),
            "count",
        ),
        (
            "mem.buffer_allocs_per_op",
            cnt("mem.buffer_allocs") / ops,
            "count",
        ),
        (
            "mem.payload_copies_per_op",
            cnt("mem.buffer_copies") / ops,
            "count",
        ),
        (
            "mem.bytes_copied_per_op",
            cnt("mem.buffer_bytes_copied") / ops,
            "B",
        ),
        (
            "kv.drain_ns_per_cmd",
            per_op(a(Layer::KvDrain).total_ns),
            "ns",
        ),
        ("kv.feed_ns_per_chunk", per_call(Layer::KvFeed), "ns"),
        (
            "kv.cmds_per_drain",
            ratio(cnt("kv.commands"), cnt("kv.drains")),
            "count",
        ),
        (
            "kv.hit_frac",
            ratio(cnt("kv.hits"), cnt("kv.hits") + cnt("kv.misses")),
            "frac",
        ),
        ("kv.evictions_per_op", cnt("kv.evictions") / ops, "count"),
        (
            "kv.reassembled_args_per_cmd",
            ratio(cnt("kv.reassembled_args"), cnt("kv.commands")),
            "count",
        ),
        ("fs.push_ns", per_call(Layer::FsPush), "ns"),
        ("fs.poll_ns_per_op", per_op(a(Layer::FsPoll).total_ns), "ns"),
        (
            "fs.commit_us_p99",
            quantile(&mut t.ctx.commit_ns, 0.99) as f64 / 1e3,
            "us",
        ),
        (
            "fs.sets_per_record",
            ratio(cnt("kv.logged_ops"), cnt("fs.records_durable")),
            "count",
        ),
        (
            "nvme.block_writes_per_set",
            ratio(cnt("nvme.blocks_written"), cnt("kv.logged_ops")),
            "count",
        ),
    ];
    m.extend(virtual_metrics(t));
    m.extend([
        ("trace.untraced_ns_per_op", untraced, "ns"),
        ("trace.traced_ns_per_op", traced, "ns"),
        ("trace.overhead_frac", traced / untraced - 1.0, "frac"),
        ("trace.bench_ns_per_op", bench, "ns"),
        ("trace.layer_sum_ns_per_op", layer_sum, "ns"),
        ("trace.layer_gap_frac", layer_sum / untraced - 1.0, "frac"),
        (
            "calib.untraced_raw_ns_per_op",
            u.phase.raw_ns_per_op(),
            "ns",
        ),
        ("calib.scale_median", u.phase.scale(), "x"),
        (
            "calib.probe_quiet_ns",
            u.phase.quiet_probe_ns() as f64,
            "ns",
        ),
    ]);
    m
}

/// How far the layers' self times (benchmark loop left out) are from the
/// untraced host time per op, set against the tracing overhead.
fn print_accounting(m: &Metrics) {
    let get = |n: &str| m.iter().find(|x| x.0 == n).map_or(0.0, |x| x.1);
    let (gap, overhead) = (get("trace.layer_gap_frac"), get("trace.overhead_frac"));
    println!(
        "accounting: layer self times {:.1} ns/op vs untraced {:.1} ns/op: gap {gap:+.3}, \
         tracing overhead {overhead:+.3}, benchmark loop {:.1} ns/op; {}",
        get("trace.layer_sum_ns_per_op"),
        get("trace.untraced_ns_per_op"),
        get("trace.bench_ns_per_op"),
        if gap.abs() <= overhead.abs() {
            "within the overhead"
        } else {
            "NOT within the overhead"
        }
    );
}

/// Compares two same-seed segments (all but their allocation counts);
/// returns what differs.
fn determinism(a: &Segment, b: &Segment) -> Option<String> {
    let exact = |s: &Segment| Segment {
        allocs: 0,
        peak_rss_mib: 0.0,
        ..s.clone()
    };
    if exact(a) == exact(b) {
        return None;
    }
    let mut diff = String::new();
    for ((n, x), (_, y)) in a.counters.0.iter().zip(&b.counters.0) {
        if x != y {
            let _ = write!(diff, " {n}: {x} vs {y};");
        }
    }
    Some(format!(
        "digest {:#018x} vs {:#018x}, ops {} vs {}, api_calls {} vs {}, virt_ns {} vs {};{diff}",
        a.digest, b.digest, a.ops, b.ops, a.api_calls, b.api_calls, a.virt_ns, b.virt_ns
    ))
}

fn print_segment(label: &str, s: &Segment) {
    println!(
        "{label}: digest={:#018x} ops={} requests={} virt_ns={} api_calls={} allocs={}",
        s.digest, s.ops, s.requests, s.virt_ns, s.api_calls, s.allocs
    );
    println!("{label}: counters {}", s.counters.render());
}

fn print_windows(p: &Phase) {
    let raw: Vec<f64> = p
        .windows
        .iter()
        .map(|w| w.cpu_ns as f64 / w.ops as f64)
        .collect();
    println!(
        "windows: {} over {:.2} s wall; raw CPU ns/op median {:.0} (fastest {:.0}); \
         quiet probe {:.0} ns; machine scale median {:.3}, range {:.3}..{:.3}; \
         {} host latency samples in {} chunks",
        p.windows.len(),
        p.wall_ns as f64 / 1e9,
        p.raw_ns_per_op(),
        raw.iter().copied().fold(f64::INFINITY, f64::min),
        p.quiet_probe_ns(),
        p.scale(),
        p.windows
            .iter()
            .map(|w| w.scale())
            .fold(f64::INFINITY, f64::min),
        p.windows.iter().map(|w| w.scale()).fold(0.0, f64::max),
        p.host_lat_ns.len(),
        p.windows.len().min(bench::LAT_CHUNKS),
    );
}

fn print_metrics(m: &Metrics) {
    for (name, value, unit) in m {
        println!("  {name:<34} {value:>14.4} {unit}");
    }
}

fn json(correct: bool, attempted: u64, failed: u64, m: &Metrics) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in m.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let v = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    s + "}}"
}

/// Writes the span dump (Chrome trace-event JSON) and the self-time
/// table of a traced run.
fn write_artifacts(kind: Kind, table: &str, recs: &[Rec]) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        return;
    }
    let mut spans = String::from("[\n");
    for (i, r) in recs.iter().enumerate() {
        let sep = if i + 1 == recs.len() { "" } else { "," };
        let _ = writeln!(
            spans,
            "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \"dur\": {:.3}, \
             \"args\": {{\"id\": {}, \"parent\": {}, \"req\": {}}}}}{sep}",
            r.layer.name(),
            r.start_ns as f64 / 1e3,
            (r.end_ns - r.start_ns) as f64 / 1e3,
            r.id,
            r.parent,
            r.req
        );
    }
    spans.push_str("]\n");
    for (file, body) in [
        (format!("{}.spans.json", kind.name()), spans.as_str()),
        (format!("{}.layers.txt", kind.name()), table),
    ] {
        if let Err(e) = std::fs::write(dir.join(&file), body) {
            eprintln!("cannot write {file}: {e}");
        }
    }
}

/// The per-layer self-time table of a traced phase.
fn layer_table(kind: Kind, t: &Run, acc: &[Acc; LAYERS.len()], top_ns: u64) -> String {
    // Per-op figures are shares of the traced host_ns_per_op, like the
    // metrics.
    let wall = t.phase.host_ns_per_op();
    let mut s = format!(
        "{}: traced phase {} ops, host_ns_per_op {:.1} (reference-host time)\n\
         {:<24} {:>10} {:>12} {:>14} {:>8}\n",
        kind.name(),
        t.phase.ops,
        wall,
        "layer",
        "calls",
        "ns/call",
        "self ns/op",
        "share"
    );
    for l in LAYERS {
        let x = acc[l as usize];
        let self_op = t.phase.share_ns_per_op(x.self_ns);
        let _ = writeln!(
            s,
            "{:<24} {:>10} {:>12.1} {:>14.1} {:>7.1}%",
            l.name(),
            x.count,
            t.phase.scale() * ratio(x.total_ns as f64, x.count as f64),
            self_op,
            100.0 * self_op / wall
        );
    }
    let bench = t
        .phase
        .share_ns_per_op(t.phase.wall_ns.saturating_sub(top_ns));
    let _ = writeln!(
        s,
        "{:<24} {:>10} {:>12} {:>14.1} {:>7.1}%",
        "bench (loop, oracle)",
        "-",
        "-",
        bench,
        100.0 * bench / wall
    );
    s
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            std::process::exit(2);
        }
    };
    let kind = args.kind;
    println!(
        "hostbench workload={} seed={} seconds={} trace={} {}",
        kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::provenance()
    );
    let mut problems: Vec<String> = Vec::new();
    let (metrics, runs) = if !args.trace {
        // Several timed set-ups. The timing-only worlds come first and
        // are dropped at once; the last two are kept: one is measured, the
        // other replays the deterministic segment as a same-seed check.
        // So no more than those two worlds are ever resident together and
        // the peak-memory reading sees the measured world's growth.
        let mut setup = Vec::with_capacity(kind.setups());
        let mut worlds = Vec::with_capacity(2);
        for i in 0..kind.setups() {
            let t0 = Instant::now();
            let w = kind.setup(args.seed, false);
            let secs = t0.elapsed().as_secs_f64();
            let probe = median((0..3).map(|_| calib::probe_ns() as f64).collect());
            setup.push(secs * calib::scale(probe as u64));
            if i + 2 >= kind.setups() {
                worlds.push(w);
            }
        }
        println!(
            "set-ups (reference-host s): {}",
            setup
                .iter()
                .map(|s| format!("{s:.4}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        let check_world = worlds.pop().expect("two worlds");
        let main_world = worlds.pop().expect("two worlds");
        // The measured world runs first, so its peak memory (read when
        // its segment ends) never includes the check world's replay.
        let mut main = run(kind, main_world, args.seconds);
        let check = run(kind, check_world, 0.0);
        print_segment("segment", &main.phase.segment);
        println!(
            "same-seed check world: allocs={}",
            check.phase.segment.allocs
        );
        print_windows(&main.phase);
        if let Some(d) = determinism(&main.phase.segment, &check.phase.segment) {
            problems.push(format!("same-seed runs differ: {d}"));
        }
        println!("virtual (deterministic segment):");
        print_metrics(&virtual_metrics(&mut main));
        let m = end_to_end(&setup, &main);
        println!("end-to-end:");
        print_metrics(&m);
        (m, vec![check, main])
    } else {
        let half = args.seconds / 2.0;
        let untraced = run(kind, kind.setup(args.seed, false), half);
        let traced_world = kind.setup(args.seed, true);
        trace::start(DUMP_SPANS);
        let mut ctx = Ctx::new();
        let mut w = traced_world;
        let phase = measure(
            w.as_mut(),
            &mut ctx,
            kind.window_ops(),
            kind.segment_ops(),
            half,
        );
        let (acc, top_ns, recs) = trace::stop();
        w.finish(&mut ctx);
        drop(w);
        let mut traced = Run { phase, ctx };
        print_segment("untraced segment", &untraced.phase.segment);
        print_segment("traced segment", &traced.phase.segment);
        if let Some(d) = determinism(&untraced.phase.segment, &traced.phase.segment) {
            problems.push(format!("traced and untraced runs differ: {d}"));
        }
        let table = layer_table(kind, &traced, &acc, top_ns);
        print!("{table}");
        write_artifacts(kind, &table, &recs);
        let m = per_layer(&untraced, &mut traced, &acc, top_ns);
        println!("per-layer:");
        print_metrics(&m);
        print_accounting(&m);
        (m, vec![untraced, traced])
    };
    let attempted: u64 = runs.iter().map(|r| r.ctx.completed + r.ctx.failed).sum();
    let failed: u64 = runs.iter().map(|r| r.ctx.failed).sum();
    for r in &runs {
        problems.extend(r.ctx.errors().iter().cloned());
    }
    for p in &problems {
        eprintln!("hostbench: FAIL {p}");
    }
    let correct = failed == 0 && problems.is_empty();
    println!("{}", json(correct, attempted.max(1), failed, &metrics));
    if !correct {
        std::process::exit(1);
    }
}
