//! E14 — RSS flow steering with sharded per-queue stacks and the
//! hierarchical timer wheel.
//!
//! Kernel-bypass stacks scale by giving each core its own NIC queue and
//! its own stack shard, with device RSS steering flows so the data path
//! never coordinates across cores. This experiment drives the sharded
//! catnip stack and checks three claims:
//!
//! * **flow affinity**: a 4-shard pair serving 64 TCP flows sees *zero*
//!   cross-shard demux events (asserted) — the device's RSS hash and the
//!   stack's `shard_for` agree by construction, so every frame lands on
//!   the shard that owns its connection.
//! * **idle connections are free**: 10,000 established-but-idle
//!   connections add < 5% to a single flow's echo RTT (asserted). The
//!   timing wheel charges nothing for parked timers — the wheel counters
//!   stay frozen during the loaded run (asserted) and the virtual-time
//!   RTT is bit-identical to the unloaded one (asserted).
//! * **shard scaling**: for a uniform 64-flow workload, aggregate ops per
//!   unit of modeled per-shard work is ≥ 3× higher with 4 shards than
//!   with 1 (asserted). Makespan is set by the busiest shard; with flows
//!   spread evenly each shard carries ~1/4 of the frames.

use std::net::Ipv4Addr;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use demi_bench::Table;
use demi_memory::DemiBuffer;
use dpdk_sim::{rss, DpdkPort, PortConfig};
use net_stack::tcp::State;
use net_stack::types::SocketAddr;
use net_stack::{NetworkStack, StackConfig};
use sim_fabric::{Fabric, MacAddress, SimTime};

const PAYLOAD: usize = 64;

fn ip(last: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, last)
}

fn host(fabric: &Fabric, last: u8, queues: u16, sharded: bool) -> NetworkStack {
    let port = DpdkPort::new(
        fabric,
        PortConfig {
            num_rx_queues: queues,
            ..PortConfig::basic(MacAddress::from_last_octet(last))
        },
    );
    NetworkStack::new(
        port,
        fabric.clock(),
        StackConfig {
            sharded,
            ..StackConfig::new(ip(last))
        },
    )
}

/// Runs the world until `until` returns true or the simulation wedges.
fn settle(fabric: &Fabric, stacks: &[&NetworkStack], mut until: impl FnMut() -> bool) {
    for _ in 0..1_000_000 {
        for s in stacks {
            s.poll();
        }
        if until() {
            return;
        }
        if fabric.advance_to_next_event() {
            continue;
        }
        let deadline = stacks.iter().filter_map(|s| s.next_deadline()).min();
        match deadline {
            Some(t) => fabric.clock().advance_to(t),
            None => return, // Fully quiescent.
        }
    }
    panic!("simulation did not settle");
}

// ---------------------------------------------------------------------
// Part 1: flow affinity — 64 TCP flows, zero cross-shard demux.
// ---------------------------------------------------------------------

fn flow_affinity_table() {
    let fabric = Fabric::new(1301);
    let a = host(&fabric, 1, 4, true);
    let b = host(&fabric, 2, 4, true);
    assert_eq!(a.num_shards(), 4);

    let lid = b.tcp_listen(80, 128).unwrap();
    let conns: Vec<_> = (0..64)
        .map(|_| a.tcp_connect(SocketAddr::new(ip(2), 80)).unwrap())
        .collect();
    settle(&fabric, &[&a, &b], || {
        conns
            .iter()
            .all(|&c| a.tcp_state(c) == Ok(State::Established))
    });
    let mut accepted = Vec::new();
    settle(&fabric, &[&a, &b], || {
        while let Ok(Some(c)) = b.tcp_accept(lid) {
            accepted.push(c);
        }
        accepted.len() == conns.len()
    });

    for &conn in &conns {
        a.tcp_send(conn, DemiBuffer::from_slice(&[0xA5; PAYLOAD]))
            .unwrap();
    }
    let mut echoed = 0;
    settle(&fabric, &[&a, &b], || {
        for &sc in &accepted {
            if let Ok(Some(chunk)) = b.tcp_recv(sc) {
                b.tcp_send(sc, chunk).unwrap();
            }
        }
        for &conn in &conns {
            if a.tcp_recv(conn).ok().flatten().is_some() {
                echoed += 1;
            }
        }
        echoed == conns.len()
    });

    let mut table = Table::new(
        "E14: 64 TCP echo flows over a 4-shard pair (frames per shard)",
        &["shard", "client rx", "server rx", "mismatches", "handoffs"],
    );
    let mut server_shards_loaded = 0;
    for i in 0..4 {
        let ca = a.shard_stats(i);
        let cb = b.shard_stats(i);
        table.row(&[
            format!("{i}"),
            format!("{}", ca.rx_frames),
            format!("{}", cb.rx_frames),
            format!("{}", ca.steering_mismatches + cb.steering_mismatches),
            format!("{}", ca.handoffs_in + cb.handoffs_in),
        ]);
        for s in [ca, cb] {
            assert_eq!(s.steering_mismatches, 0, "RSS and shard_for agree");
            assert_eq!(s.handoffs_in, 0, "no cross-shard frame traffic");
        }
        if cb.rx_frames > 0 {
            server_shards_loaded += 1;
        }
    }
    table.print();
    assert!(
        server_shards_loaded >= 3,
        "64 flows must load nearly every shard, got {server_shards_loaded}"
    );
    println!("paper check: 64 flows, 0 steering mismatches, 0 cross-shard handoffs\n");
}

// ---------------------------------------------------------------------
// Part 2: idle connections are free — 10k parked conns, one hot flow.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct IdleStats {
    /// Best-of-trials wall-clock cost per echo round.
    wall_ns_per_round: f64,
    /// Virtual time per echo round (deterministic; must not move).
    virt_per_round: SimTime,
    /// Timer-wheel entries fired during the measured rounds.
    timers_fired: u64,
}

fn echo_round(fabric: &Fabric, a: &NetworkStack, b: &NetworkStack) {
    a.udp_sendto(9000, SocketAddr::new(ip(2), 7), &[0xA5; PAYLOAD])
        .unwrap();
    settle(fabric, &[a, b], || b.udp_pending(7) > 0);
    let (from, data) = b.udp_recv_from(7).unwrap();
    b.udp_sendto(7, from, data.as_slice()).unwrap();
    settle(fabric, &[a, b], || a.udp_pending(9000) > 0);
    a.udp_recv_from(9000).unwrap();
}

fn echo_rtt_with_idle(idle: usize, rounds: u32, trials: u32) -> IdleStats {
    let fabric = Fabric::new(2203);
    let a = host(&fabric, 1, 4, true);
    let b = host(&fabric, 2, 4, true);

    if idle > 0 {
        let lid = b.tcp_listen(80, 512).unwrap();
        let mut opened = 0usize;
        let mut accepted = 0usize;
        while opened < idle {
            // Batched so the SYN bursts never overflow the RX rings.
            let batch = 256.min(idle - opened);
            let conns: Vec<_> = (0..batch)
                .map(|_| a.tcp_connect(SocketAddr::new(ip(2), 80)).unwrap())
                .collect();
            opened += batch;
            settle(&fabric, &[&a, &b], || {
                conns
                    .iter()
                    .all(|&c| a.tcp_state(c) == Ok(State::Established))
            });
            settle(&fabric, &[&a, &b], || {
                while let Ok(Some(_)) = b.tcp_accept(lid) {
                    accepted += 1;
                }
                accepted == opened
            });
        }
        // Drain every handshake and delayed-ACK timer; from here on the
        // parked connections have nothing scheduled.
        settle(&fabric, &[&a, &b], || false);
    }

    b.udp_bind(7).unwrap();
    a.udp_bind(9000).unwrap();
    echo_round(&fabric, &a, &b); // Warm ARP both ways.

    let wheel_before = demi_telemetry::counters::snapshot();
    let mut best = f64::INFINITY;
    let mut virt_per_round = SimTime::ZERO;
    for _ in 0..trials {
        let wall0 = Instant::now();
        let virt0 = fabric.clock().now();
        for _ in 0..rounds {
            echo_round(&fabric, &a, &b);
        }
        best = best.min(wall0.elapsed().as_secs_f64() * 1e9 / rounds as f64);
        virt_per_round = SimTime::from_nanos(
            fabric.clock().now().saturating_since(virt0).as_nanos() / rounds as u64,
        );
    }
    let timers_fired = demi_telemetry::counters::snapshot()
        .delta(&wheel_before)
        .timers_fired;
    IdleStats {
        wall_ns_per_round: best,
        virt_per_round,
        timers_fired,
    }
}

fn idle_cost_table() {
    const ROUNDS: u32 = 2_000;
    const TRIALS: u32 = 7;
    let unloaded = echo_rtt_with_idle(0, ROUNDS, TRIALS);
    let loaded = echo_rtt_with_idle(10_000, ROUNDS, TRIALS);

    let mut table = Table::new(
        "E14: 1-flow UDP echo RTT with parked TCP connections resident",
        &[
            "idle conns",
            "wall ns/round (best)",
            "virtual RTT",
            "timers fired",
        ],
    );
    for (label, s) in [("0", unloaded), ("10000", loaded)] {
        table.row(&[
            label.into(),
            format!("{:.0}", s.wall_ns_per_round),
            format!("{:?}", s.virt_per_round),
            format!("{}", s.timers_fired),
        ]);
    }
    table.print();

    assert_eq!(
        loaded.virt_per_round, unloaded.virt_per_round,
        "parked connections must not move the virtual-time RTT"
    );
    assert_eq!(
        loaded.timers_fired, 0,
        "parked connections keep the timer wheel silent"
    );
    let ratio = loaded.wall_ns_per_round / unloaded.wall_ns_per_round;
    assert!(
        ratio <= 1.05,
        "10k idle conns must add < 5% to echo RTT, got {ratio:.3}x"
    );
    println!(
        "paper check: 10k idle conns cost {:.1}% extra wall time per echo \
         round (virtual RTT identical)\n",
        (ratio - 1.0) * 100.0
    );
}

// ---------------------------------------------------------------------
// Part 3: shard scaling — uniform 64-flow workload, makespan model.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct ShardLoad {
    ops: u64,
    per_shard_frames: Vec<u64>,
}

impl ShardLoad {
    fn total(&self) -> u64 {
        self.per_shard_frames.iter().sum()
    }

    /// Makespan model: shards are cores, per-frame cost is constant, so
    /// completion time is proportional to the busiest shard's frame count.
    fn busiest(&self) -> u64 {
        *self.per_shard_frames.iter().max().unwrap()
    }

    fn ops_per_unit_work(&self) -> f64 {
        self.ops as f64 / self.busiest() as f64
    }
}

/// 16 client ports per RSS bucket: the flow set is uniform per flow *and*
/// spreads evenly across the 4 hash buckets, so the sharded run models a
/// well-balanced RSS deployment.
fn balanced_ports() -> Vec<u16> {
    let mut ports = Vec::new();
    let mut per_bucket = [0usize; 4];
    let mut candidate = 20_000u16;
    while ports.len() < 64 {
        let q = rss::queue_for_tuple(ip(1), candidate, ip(2), 7, 4) as usize;
        if per_bucket[q] < 16 {
            per_bucket[q] += 1;
            ports.push(candidate);
        }
        candidate += 1;
    }
    ports
}

fn uniform_workload(sharded: bool, rounds: usize) -> ShardLoad {
    let queues = if sharded { 4 } else { 1 };
    let fabric = Fabric::new(3407);
    let a = host(&fabric, 1, queues, sharded);
    let b = host(&fabric, 2, queues, sharded);

    b.udp_bind(7).unwrap();
    let ports = balanced_ports();
    for &p in &ports {
        a.udp_bind(p).unwrap();
    }
    let dst = SocketAddr::new(ip(2), 7);
    // Warm ARP in both directions so measurement is pure data frames.
    a.udp_sendto(ports[0], dst, b"warm").unwrap();
    settle(&fabric, &[&a, &b], || b.udp_pending(7) > 0);
    let (from, _) = b.udp_recv_from(7).unwrap();
    b.udp_sendto(7, from, b"warm").unwrap();
    settle(&fabric, &[&a, &b], || a.udp_pending(ports[0]) > 0);
    a.udp_recv_from(ports[0]).unwrap();

    let before: Vec<u64> = (0..b.num_shards())
        .map(|i| b.shard_stats(i).rx_frames)
        .collect();
    let payload = [0x5Au8; PAYLOAD];
    let mut got = 0usize;
    for round in 0..rounds {
        for &p in &ports {
            a.udp_sendto(p, dst, &payload).unwrap();
        }
        settle(&fabric, &[&a, &b], || b.udp_pending(7) == ports.len());
        while let Some((from, data)) = b.udp_recv_from(7) {
            b.udp_sendto(7, from, data.as_slice()).unwrap();
        }
        let want = ports.len() * (round + 1);
        settle(&fabric, &[&a, &b], || {
            for &p in &ports {
                while a.udp_recv_from(p).is_some() {
                    got += 1;
                }
            }
            got == want
        });
    }

    ShardLoad {
        ops: (ports.len() * rounds) as u64,
        per_shard_frames: (0..b.num_shards())
            .map(|i| b.shard_stats(i).rx_frames - before[i])
            .collect(),
    }
}

fn scaling_table() {
    const ROUNDS: usize = 8;
    let four = uniform_workload(true, ROUNDS);
    let one = uniform_workload(false, ROUNDS);

    let mut table = Table::new(
        "E14: uniform 64-flow echo workload, server frames by shard (makespan model)",
        &[
            "shards",
            "ops",
            "frames/shard",
            "busiest",
            "ops per unit work",
        ],
    );
    for (label, load) in [("1", &one), ("4", &four)] {
        table.row(&[
            label.into(),
            format!("{}", load.ops),
            format!("{:?}", load.per_shard_frames),
            format!("{}", load.busiest()),
            format!("{:.3}", load.ops_per_unit_work()),
        ]);
    }
    table.print();

    assert_eq!(
        one.total(),
        four.total(),
        "same workload, same total frame work"
    );
    let speedup = four.ops_per_unit_work() / one.ops_per_unit_work();
    assert!(
        speedup >= 3.0,
        "4 shards must sustain >= 3x aggregate ops per unit work, got {speedup:.2}x"
    );
    println!(
        "paper check: {speedup:.2}x aggregate ops per unit of per-shard work \
         at 4 shards vs 1\n"
    );
}

fn experiment_table() {
    flow_affinity_table();
    idle_cost_table();
    scaling_table();
}

fn bench(c: &mut Criterion) {
    experiment_table();
    let mut group = c.benchmark_group("e14_sharding");
    group.sample_size(10);
    group.bench_function("uniform_64flows/4_shards", |bch| {
        bch.iter(|| uniform_workload(criterion::black_box(true), 2))
    });
    group.bench_function("uniform_64flows/1_shard", |bch| {
        bch.iter(|| uniform_workload(criterion::black_box(false), 2))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
