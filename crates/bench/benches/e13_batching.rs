//! E13 — end-to-end I/O batching: device handoffs, ACK frames, and
//! completion delivery all amortize with burst depth.
//!
//! Kernel-bypass stacks go fast by *amortizing* per-I/O costs: DPDK's
//! burst API exists so one doorbell covers many frames, and mTCP-style
//! stacks batch event delivery the same way. This experiment drives the
//! catnip UDP echo at burst depths {1, 8, 32} and checks three claims:
//!
//! * **TX coalescing**: `tx_burst` device handoffs per echo op shrink at
//!   least 4× from depth 1 to depth 32 (asserted) — one poll-end flush
//!   hands the device the whole burst.
//! * **no latency tax**: at depth 1 the coalesced path's RTT matches the
//!   per-frame baseline within 5% (asserted) — the flush happens before
//!   any blocking wait can advance virtual time.
//! * **ACK coalescing**: a streamed TCP transfer emits ≤ 0.55 pure-ACK
//!   frames per data segment with delayed ACKs on (asserted), vs ~1.0
//!   with the ack-every-segment baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use demi_bench::Table;
use demi_memory::DemiBuffer;
use demi_telemetry::counters::{BURST_BUCKETS, BURST_BUCKET_LABELS};
use demikernel::libos::{LibOs, SocketKind};
use demikernel::testing::{catnip_pair, catnip_pair_with, host_ip};
use demikernel::types::{QToken, Sga};
use dpdk_sim::{DpdkPort, PortConfig};
use net_stack::tcp::State;
use net_stack::types::SocketAddr;
use net_stack::{NetworkStack, StackConfig};
use sim_fabric::{Fabric, MacAddress, SimTime};

const PAYLOAD: usize = 64;
const ROUNDS: u32 = 50;

#[derive(Debug, Clone, Copy)]
struct BurstStats {
    /// Virtual time per round (one full burst echoed back).
    round_time: SimTime,
    /// Device handoffs per echo op, both hosts combined.
    tx_bursts_per_op: f64,
    /// Frames-per-burst histogram (buckets 1, 2-7, 8-31, 32+).
    burst_hist: [u64; BURST_BUCKETS],
}

/// Echoes `rounds` bursts of `depth` datagrams; `batched` toggles the TX
/// coalescing ring (the unbatched world is one device handoff per frame).
fn burst_echo(seed: u64, depth: usize, rounds: u32, batched: bool) -> BurstStats {
    let (rt, _fabric, client, server) = if batched {
        catnip_pair(seed)
    } else {
        catnip_pair_with(seed, |mut c| {
            c.tx_coalesce = false;
            c.tcp.delayed_acks = false;
            c
        })
    };
    let sqd = server.socket(SocketKind::Udp).unwrap();
    server.bind(sqd, SocketAddr::new(host_ip(2), 7)).unwrap();
    let cqd = client.socket(SocketKind::Udp).unwrap();
    client.bind(cqd, SocketAddr::new(host_ip(1), 9000)).unwrap();
    let dst = SocketAddr::new(host_ip(2), 7);
    let payload = vec![0xA5u8; PAYLOAD];

    // Warm ARP in both directions so measurement is pure data frames.
    let qt = client.pushto(cqd, &Sga::from_slice(b"warm"), dst).unwrap();
    rt.wait(qt, None).unwrap();
    let (from, sga) = server.blocking_pop(sqd).unwrap().expect_pop();
    let from = from.unwrap();
    let qt = server.pushto(sqd, &sga, from).unwrap();
    rt.wait(qt, None).unwrap();
    client.blocking_pop(cqd).unwrap();

    rt.metrics().reset();
    let t0 = rt.now();
    for _ in 0..rounds {
        let pushes: Vec<QToken> = (0..depth)
            .map(|_| client.pushto(cqd, &Sga::from_slice(&payload), dst).unwrap())
            .collect();
        rt.wait_all(&pushes, None).unwrap();
        let pops: Vec<QToken> = (0..depth).map(|_| server.pop(sqd).unwrap()).collect();
        let echoes: Vec<QToken> = rt
            .wait_all(&pops, None)
            .unwrap()
            .into_iter()
            .map(|r| {
                let (_, sga) = r.expect_pop();
                server.pushto(sqd, &sga, from).unwrap()
            })
            .collect();
        rt.wait_all(&echoes, None).unwrap();
        let cpops: Vec<QToken> = (0..depth).map(|_| client.pop(cqd).unwrap()).collect();
        rt.wait_all(&cpops, None).unwrap();
    }
    let elapsed = rt.now().saturating_since(t0);
    let m = rt.metrics().snapshot();
    let ops = rounds as u64 * depth as u64;
    BurstStats {
        round_time: SimTime::from_nanos(elapsed.as_nanos() / rounds as u64),
        tx_bursts_per_op: m.tx_burst_calls as f64 / ops as f64,
        burst_hist: m.tx_frames_per_burst,
    }
}

/// Streams `chunks` MSS-sized chunks over TCP and reports (data segments
/// sent, pure ACKs sent, ACKs coalesced away).
fn tcp_stream_acks(seed: u64, chunks: usize, delayed: bool) -> (u64, u64, u64) {
    let fabric = Fabric::new(seed);
    let mk = |last: u8| {
        let port = DpdkPort::new(
            &fabric,
            PortConfig::basic(MacAddress::from_last_octet(last)),
        );
        let mut cfg = StackConfig::new(host_ip(last));
        cfg.tcp.delayed_acks = delayed;
        NetworkStack::new(port, fabric.clock(), cfg)
    };
    let a = mk(1);
    let b = mk(2);
    let settle = |until: &mut dyn FnMut() -> bool| {
        for _ in 0..1_000_000 {
            a.poll();
            b.poll();
            if until() {
                return;
            }
            if fabric.advance_to_next_event() {
                continue;
            }
            let deadline = [a.next_deadline(), b.next_deadline()]
                .into_iter()
                .flatten()
                .min();
            match deadline {
                Some(t) => fabric.clock().advance_to(t),
                None => return,
            }
        }
        panic!("ack stream did not settle");
    };

    let lid = b.tcp_listen(80, 16).unwrap();
    let conn = a.tcp_connect(SocketAddr::new(host_ip(2), 80)).unwrap();
    settle(&mut || a.tcp_state(conn) == Ok(State::Established));
    let mut sconn = None;
    settle(&mut || {
        sconn = b.tcp_accept(lid).unwrap();
        sconn.is_some()
    });
    let sconn = sconn.unwrap();

    let mss = StackConfig::new(host_ip(1)).tcp.mss;
    // 8 segments per send keeps the receive window open while the stream
    // is long enough for every-2nd-segment ACKing to dominate.
    let chunk = vec![0x5Au8; 8 * mss];
    let mut total = 0usize;
    for _ in 0..chunks {
        a.tcp_send(conn, DemiBuffer::from_slice(&chunk)).unwrap();
        total += chunk.len();
        let drained = total;
        let mut got = 0usize;
        settle(&mut || {
            while let Ok(Some(buf)) = b.tcp_recv(sconn) {
                got += buf.len();
            }
            got > 0
                && b.tcp_conn_stats(sconn).unwrap().in_order_segments * mss as u64 >= drained as u64
        });
    }
    let sender = a.tcp_conn_stats(conn).unwrap();
    let receiver = b.tcp_conn_stats(sconn).unwrap();
    (
        sender.segments_sent + sender.retransmissions,
        receiver.acks_sent,
        receiver.acks_coalesced,
    )
}

fn experiment_table() {
    let mut table = Table::new(
        "E13: UDP burst echo, 64B, coalesced TX ring vs per-frame handoffs",
        &[
            "depth",
            "mode",
            "round RTT",
            "tx_bursts/op",
            &format!("bursts by frames {:?}", BURST_BUCKET_LABELS),
        ],
    );
    let mut batched_by_depth = Vec::new();
    let mut unbatched_depth1 = None;
    for &depth in &[1usize, 8, 32] {
        let b = burst_echo(97, depth, ROUNDS, true);
        let u = burst_echo(97, depth, ROUNDS, false);
        table.row(&[
            format!("{depth}"),
            "coalesced".into(),
            format!("{:?}", b.round_time),
            format!("{:.3}", b.tx_bursts_per_op),
            format!("{:?}", b.burst_hist),
        ]);
        table.row(&[
            format!("{depth}"),
            "per-frame".into(),
            format!("{:?}", u.round_time),
            format!("{:.3}", u.tx_bursts_per_op),
            format!("{:?}", u.burst_hist),
        ]);
        batched_by_depth.push((depth, b));
        if depth == 1 {
            unbatched_depth1 = Some(u);
        }
    }
    table.print();

    let d1 = batched_by_depth[0].1;
    let d32 = batched_by_depth[2].1;
    let amortization = d1.tx_bursts_per_op / d32.tx_bursts_per_op;
    assert!(
        amortization >= 4.0,
        "depth-32 bursts must amortize device handoffs >= 4x vs depth 1, got {amortization:.1}x"
    );
    let u1 = unbatched_depth1.unwrap();
    let rtt_ratio = d1.round_time.as_nanos() as f64 / u1.round_time.as_nanos() as f64;
    assert!(
        (rtt_ratio - 1.0).abs() <= 0.05,
        "coalescing must not tax depth-1 latency: coalesced/per-frame RTT = {rtt_ratio:.3}"
    );
    println!(
        "paper check: {amortization:.1}x fewer device handoffs per op at depth 32, \
         depth-1 RTT ratio {rtt_ratio:.3}\n"
    );

    let mut acks = Table::new(
        "E13: TCP streamed transfer, pure-ACK frames per data segment",
        &["mode", "segments", "pure ACKs", "coalesced", "ACKs/segment"],
    );
    let (seg_d, ack_d, coal_d) = tcp_stream_acks(41, 24, true);
    let (seg_i, ack_i, coal_i) = tcp_stream_acks(41, 24, false);
    let per_seg_d = ack_d as f64 / seg_d as f64;
    let per_seg_i = ack_i as f64 / seg_i as f64;
    acks.row(&[
        "delayed (RFC 1122)".into(),
        format!("{seg_d}"),
        format!("{ack_d}"),
        format!("{coal_d}"),
        format!("{per_seg_d:.3}"),
    ]);
    acks.row(&[
        "ack-every-segment".into(),
        format!("{seg_i}"),
        format!("{ack_i}"),
        format!("{coal_i}"),
        format!("{per_seg_i:.3}"),
    ]);
    acks.print();
    assert!(
        per_seg_d <= 0.55,
        "delayed ACKs must emit <= 0.55 ACK frames per segment, got {per_seg_d:.3}"
    );
    assert!(
        per_seg_i >= 0.9,
        "the baseline should ack roughly every segment, got {per_seg_i:.3}"
    );
    println!("paper check: {per_seg_d:.3} ACK frames/segment delayed vs {per_seg_i:.3} baseline\n");
}

fn bench(c: &mut Criterion) {
    experiment_table();
    let mut group = c.benchmark_group("e13_batching");
    group.sample_size(10);
    for &depth in &[1usize, 32] {
        group.bench_with_input(BenchmarkId::new("coalesced", depth), &depth, |b, &d| {
            b.iter(|| burst_echo(criterion::black_box(7), d, 10, true))
        });
        group.bench_with_input(BenchmarkId::new("per_frame", depth), &depth, |b, &d| {
            b.iter(|| burst_echo(criterion::black_box(7), d, 10, false))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
