//! End-to-end batching behavior (E13): TX coalescing keeps frame order,
//! delayed ACKs fire on the virtual-time timer, completion delivery is
//! O(1) in the number of waited tokens, and batching never changes the
//! bytes a TCP stream delivers.

use std::net::Ipv4Addr;

use demi_memory::DemiBuffer;
use demi_sched::Condition;
use demi_telemetry::alloc::{self, CountingAlloc};
use demikernel::libos::{LibOs, SocketKind};
use demikernel::testing::{catnip_pair, host_ip};
use demikernel::types::{OperationResult, QToken, Sga};
use demikernel::Runtime;
use dpdk_sim::{DpdkPort, PortConfig};
use net_stack::tcp::State;
use net_stack::types::SocketAddr;
use net_stack::{NetworkStack, StackConfig};
use proptest::prelude::*;
use sim_fabric::{Fabric, MacAddress, SimTime};

/// Counts the test thread's heap allocations for the zero-allocation
/// `wait_any` entry assert.
#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn ip(last: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, last)
}

fn host_with(
    fabric: &Fabric,
    last: u8,
    tune: impl Fn(StackConfig) -> StackConfig,
) -> (DpdkPort, NetworkStack) {
    let port = DpdkPort::new(fabric, PortConfig::basic(MacAddress::from_last_octet(last)));
    let stack = NetworkStack::new(
        port.clone(),
        fabric.clock(),
        tune(StackConfig::new(ip(last))),
    );
    (port, stack)
}

/// Runs the world until `until` holds, frames drain, and timers settle.
fn settle(fabric: &Fabric, stacks: &[&NetworkStack], mut until: impl FnMut() -> bool) {
    for _ in 0..100_000 {
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
            None => return,
        }
    }
    panic!("simulation did not settle");
}

/// TX coalescing: frames enqueued across protocols between polls leave in
/// one device handoff, in enqueue order.
#[test]
fn coalesced_frames_leave_in_enqueue_order() {
    let fabric = Fabric::new(7);
    let (a_port, a) = host_with(&fabric, 1, |c| c);
    let (_b_port, b) = host_with(&fabric, 2, |c| c);
    a.udp_bind(9000).unwrap();
    b.udp_bind(7).unwrap();
    let lid = b.tcp_listen(80, 16).unwrap();
    let dst = SocketAddr::new(ip(2), 7);

    // Warm ARP so the burst below is data, not resolution traffic.
    a.udp_sendto(9000, dst, &b"warm"[..]).unwrap();
    settle(&fabric, &[&a, &b], || b.udp_pending(7) > 0);
    let _ = b.udp_recv_from(7);

    // Three datagrams and a TCP SYN, no poll in between: nothing reaches
    // the device until the flush, then everything leaves as one burst.
    let before = a_port.stats();
    a.udp_sendto(9000, dst, &b"one"[..]).unwrap();
    a.udp_sendto(9000, dst, &b"two"[..]).unwrap();
    a.udp_sendto(9000, dst, &b"three"[..]).unwrap();
    let conn = a.tcp_connect(SocketAddr::new(ip(2), 80)).unwrap();
    assert_eq!(
        a_port.stats().tx_burst_calls,
        before.tx_burst_calls,
        "frames coalesce in the TX ring until the poll-end flush"
    );
    a.poll();
    let after = a_port.stats();
    assert_eq!(
        after.tx_burst_calls,
        before.tx_burst_calls + 1,
        "one doorbell for the whole burst"
    );
    assert_eq!(after.tx_frames, before.tx_frames + 4);

    // The burst arrives in enqueue order and both protocols make progress.
    settle(&fabric, &[&a, &b], || {
        b.udp_pending(7) == 3 && a.tcp_state(conn) == Ok(State::Established)
    });
    let payloads: Vec<Vec<u8>> = (0..3)
        .map(|_| b.udp_recv_from(7).unwrap().1.as_slice().to_vec())
        .collect();
    assert_eq!(
        payloads,
        vec![b"one".to_vec(), b"two".to_vec(), b"three".to_vec()]
    );
    let mut accepted = None;
    settle(&fabric, &[&a, &b], || {
        accepted = b.tcp_accept(lid).unwrap();
        accepted.is_some()
    });
}

/// Delayed ACK: a lone segment's acknowledgment is held until the
/// virtual-time timer fires, then delivered as one pure ACK.
#[test]
fn delayed_ack_timer_fires_in_virtual_time() {
    let fabric = Fabric::new(11);
    let (_ap, a) = host_with(&fabric, 1, |c| c);
    let (_bp, b) = host_with(&fabric, 2, |c| c);
    let ack_delay = StackConfig::new(ip(2)).tcp.ack_delay;
    let lid = b.tcp_listen(80, 16).unwrap();
    let conn = a.tcp_connect(SocketAddr::new(ip(2), 80)).unwrap();
    settle(&fabric, &[&a, &b], || {
        a.tcp_state(conn) == Ok(State::Established)
    });
    let mut sconn = None;
    settle(&fabric, &[&a, &b], || {
        sconn = b.tcp_accept(lid).unwrap();
        sconn.is_some()
    });
    let sconn = sconn.unwrap();

    // One lone segment; its second never comes.
    a.tcp_send(conn, DemiBuffer::from_slice(b"lone")).unwrap();
    a.poll();
    assert!(fabric.advance_to_next_event(), "segment is in flight");
    b.poll();
    assert!(b.tcp_readable(sconn), "data is delivered before the ACK");
    let acks_before = b.tcp_conn_stats(sconn).unwrap().acks_sent;
    let armed_at = fabric.clock().now();

    // The receiver holds the ACK: its next deadline is the delayed-ACK
    // timer, exactly ack_delay out.
    assert_eq!(
        b.next_deadline(),
        Some(armed_at.saturating_add(ack_delay)),
        "delayed-ACK timer is armed"
    );
    assert_eq!(
        b.tcp_conn_stats(sconn).unwrap().acks_sent,
        acks_before,
        "no pure ACK before the timer"
    );

    // Fire the timer in virtual time: one pure ACK leaves.
    fabric
        .clock()
        .advance_to(armed_at.saturating_add(ack_delay));
    b.poll();
    assert_eq!(b.tcp_conn_stats(sconn).unwrap().acks_sent, acks_before + 1);

    // The ACK reaches the sender and clears its retransmission timer well
    // before the RTO would have fired. The only deadline that may remain
    // is the idle-queue compactor, which sits compact_delay out — far
    // past where the RTO (rto_min after the send) would have been.
    assert!(fabric.advance_to_next_event(), "ACK is in flight");
    a.poll();
    let tcp = StackConfig::new(ip(1)).tcp;
    let rto_would_fire = armed_at.saturating_add(tcp.rto_min);
    assert!(
        a.next_deadline().is_none_or(|d| d > rto_would_fire),
        "sender's RTO is disarmed (only the queue compactor may remain)"
    );
}

/// Completion delivery is O(1): waiting on 1024 tokens costs one entry
/// scan, not a rescan of every token on every pump pass.
#[test]
fn wait_any_does_not_rescan_tokens_every_pass() {
    const HERD: usize = 1024;
    let rt = Runtime::new();
    let conds: Vec<Condition> = (0..HERD).map(|_| Condition::new()).collect();
    let mut tokens: Vec<QToken> = conds
        .iter()
        .map(|c| {
            let c = c.clone();
            rt.spawn_op("parked", async move {
                c.wait().await;
                OperationResult::Push
            })
        })
        .collect();
    // Park the herd.
    rt.pump();
    // One op that completes only after several timer hops, forcing the
    // wait loop through many pump passes.
    let timers = rt.timers().clone();
    let slow = rt.spawn_op("slow", async move {
        for _ in 0..8 {
            timers.sleep(SimTime::from_micros(10)).await;
        }
        OperationResult::Push
    });
    tokens.push(slow);

    rt.metrics().reset();
    let (idx, result) = rt.wait_any(&tokens, None).unwrap();
    assert_eq!(idx, HERD, "the slow op resolved the wait");
    assert!(matches!(result, OperationResult::Push));

    let m = rt.metrics().snapshot();
    assert!(
        m.wait_passes >= 8,
        "the sleep loop must span several pump passes, got {}",
        m.wait_passes
    );
    // One entry scan over the tokens plus O(1) per arrival. The historical
    // linear rescan would have cost tokens * passes lookups here.
    let budget = (HERD + 1) as u64 + m.wait_passes;
    assert!(
        m.completion_checks <= budget,
        "completion checks scale with passes: {} > {}",
        m.completion_checks,
        budget
    );
    assert_eq!(
        rt.scheduler().stats().spurious_polls,
        0,
        "the parked herd was never re-polled"
    );

    // Shut the world down cleanly.
    tokens.pop();
    for c in &conds {
        c.signal();
    }
    for qt in tokens {
        rt.wait(qt, None).unwrap();
    }
}

/// The pump runs a device poller only when its doorbell rang. A warmed
/// catnip↔catnip UDP echo rings each host's shard twice per round trip:
/// once for the datagram pushed onto its TX ring, once for the delivery of
/// the other side's datagram. That is at most four gated poller runs per
/// echo, where running every shard's poller on every pump took fourteen.
#[test]
fn warmed_udp_echo_runs_at_most_four_gated_pollers_per_echo() {
    const WARM: usize = 50;
    const ECHOES: usize = 200;
    let (rt, _fabric, client, server) = catnip_pair(1);
    let cq = client.socket(SocketKind::Udp).unwrap();
    client.bind(cq, SocketAddr::new(host_ip(1), 5000)).unwrap();
    let sq = server.socket(SocketKind::Udp).unwrap();
    let server_addr = SocketAddr::new(host_ip(2), 7);
    server.bind(sq, server_addr).unwrap();
    let mut client_pop = client.pop(cq).unwrap();
    let mut server_pop = server.pop(sq).unwrap();
    let mut echo = |n: usize| {
        for i in 0..n {
            let request = Sga::from_slice(&(i as u64).to_le_bytes());
            let push = client.pushto(cq, &request, server_addr).unwrap();
            client.wait(push, None).unwrap();
            let (from, got) = server.wait(server_pop, None).unwrap().expect_pop();
            let reply = server.pushto(sq, &got, from.unwrap()).unwrap();
            server.wait(reply, None).unwrap();
            server_pop = server.pop(sq).unwrap();
            let (_, back) = client.wait(client_pop, None).unwrap().expect_pop();
            client_pop = client.pop(cq).unwrap();
            assert_eq!(back.to_vec(), request.to_vec());
        }
    };
    echo(WARM);
    rt.metrics().reset();
    echo(ECHOES);
    let runs = rt.metrics().snapshot().poller_runs;
    assert!(runs > 0, "the echo moved frames without polling a device");
    assert!(
        runs <= 4 * ECHOES as u64,
        "{runs} gated poller runs for {ECHOES} echoes (> 4 per echo)"
    );
}

/// The `wait_any` entry pass indexes the qtoken table in place: resolving
/// a token that completed before the call, behind 1024 parked ones, builds
/// no per-call map and allocates nothing.
#[test]
fn wait_any_entry_over_parked_tokens_allocates_nothing() {
    const HERD: usize = 1024;
    let rt = Runtime::new();
    let conds: Vec<Condition> = (0..HERD).map(|_| Condition::new()).collect();
    let mut tokens: Vec<QToken> = conds
        .iter()
        .map(|c| {
            let c = c.clone();
            rt.spawn_op("parked", async move {
                c.wait().await;
                OperationResult::Push
            })
        })
        .collect();
    tokens.push(rt.spawn_op("done", async { OperationResult::Connect }));
    rt.pump();

    let mut resolved = None;
    let allocs = alloc::measure(|| resolved = Some(rt.wait_any(&tokens, None)));
    let (idx, result) = resolved.unwrap().unwrap();
    assert_eq!(idx, HERD, "the completed op resolved the wait");
    assert!(matches!(result, OperationResult::Connect));
    assert_eq!(allocs, 0, "wait_any entry allocated {allocs} times");

    tokens.pop();
    for c in &conds {
        c.signal();
    }
    rt.wait_all(&tokens, None).unwrap();
}

/// Drives `chunks` through a fresh two-host TCP world and returns the byte
/// stream the receiver observed.
fn run_stream(chunks: &[Vec<u8>], seed: u64, batched: bool) -> Vec<u8> {
    let tune = |mut c: StackConfig| {
        c.tx_coalesce = batched;
        c.tcp.delayed_acks = batched;
        c
    };
    let fabric = Fabric::new(seed);
    let (_ap, a) = host_with(&fabric, 1, tune);
    let (_bp, b) = host_with(&fabric, 2, tune);
    let lid = b.tcp_listen(80, 16).unwrap();
    let conn = a.tcp_connect(SocketAddr::new(ip(2), 80)).unwrap();
    settle(&fabric, &[&a, &b], || {
        a.tcp_state(conn) == Ok(State::Established)
    });
    let mut sconn = None;
    settle(&fabric, &[&a, &b], || {
        sconn = b.tcp_accept(lid).unwrap();
        sconn.is_some()
    });
    let sconn = sconn.unwrap();

    for chunk in chunks {
        a.tcp_send(conn, DemiBuffer::from_slice(chunk)).unwrap();
    }
    let total: usize = chunks.iter().map(|c| c.len()).sum();
    let mut got = Vec::new();
    settle(&fabric, &[&a, &b], || {
        while let Ok(Some(buf)) = b.tcp_recv(sconn) {
            got.extend_from_slice(buf.as_slice());
        }
        got.len() >= total
    });
    got
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Batching is invisible at the byte level: coalesced and per-frame
    /// stacks deliver the identical stream for any chunking.
    #[test]
    fn batched_and_unbatched_streams_are_byte_identical(
        chunks in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..1600), 1..10),
        seed in 0u64..1_000,
    ) {
        let sent: Vec<u8> = chunks.concat();
        let batched = run_stream(&chunks, seed, true);
        prop_assert_eq!(&batched, &sent);
        let unbatched = run_stream(&chunks, seed, false);
        prop_assert_eq!(&unbatched, &sent);
    }
}
