//! Failure injection across the full Demikernel stack: loss, partitions,
//! refused connections, and timeouts.

use demikernel::libos::{LibOs, SocketKind};
use demikernel::testing::{catcorn_pair, catnip_pair, host_ip, host_mac};
use demikernel::types::{DemiError, OperationResult, Sga};
use net_stack::types::SocketAddr;
use sim_fabric::{LinkConfig, SimTime};

#[test]
fn catnip_tcp_bulk_transfer_survives_10pct_loss() {
    let (_rt, fabric, client, server) = catnip_pair(401);
    fabric.set_default_link(LinkConfig {
        latency: SimTime::from_micros(2),
        bandwidth_bps: 10_000_000_000,
        loss_probability: 0.10,
    });
    let lqd = server.socket(SocketKind::Tcp).unwrap();
    server.bind(lqd, SocketAddr::new(host_ip(2), 80)).unwrap();
    server.listen(lqd, 8).unwrap();
    let aqt = server.accept(lqd).unwrap();
    let cqd = client.socket(SocketKind::Tcp).unwrap();
    let cqt = client
        .connect(cqd, SocketAddr::new(host_ip(2), 80))
        .unwrap();
    let sqd = server.wait(aqt, None).unwrap().expect_accept();
    client.wait(cqt, None).unwrap();

    // 50 framed messages of 2 KiB through 10% loss: all arrive, intact,
    // in order, as atomic units.
    for i in 0..50u32 {
        let payload: Vec<u8> = (0..2048u32).map(|j| ((i + j) % 251) as u8).collect();
        client
            .blocking_push(cqd, &Sga::from_slice(&payload))
            .unwrap();
        let (_, got) = server.blocking_pop(sqd).unwrap().expect_pop();
        assert_eq!(got.to_vec(), payload, "message {i} corrupted");
    }
}

#[test]
fn catnip_udp_loss_is_visible_to_the_application() {
    // UDP makes no promises: with loss, pops time out — the libOS must
    // not invent data.
    let (_rt, fabric, client, server) = catnip_pair(402);
    let sqd = server.socket(SocketKind::Udp).unwrap();
    server.bind(sqd, SocketAddr::new(host_ip(2), 7)).unwrap();
    let cqd = client.socket(SocketKind::Udp).unwrap();
    client.bind(cqd, SocketAddr::new(host_ip(1), 9000)).unwrap();
    // Warm ARP on a clean link first.
    client
        .pushto(
            cqd,
            &Sga::from_slice(b"warm"),
            SocketAddr::new(host_ip(2), 7),
        )
        .unwrap();
    let _ = server.blocking_pop(sqd).unwrap();
    // Now a fully lossy link.
    fabric.set_default_link(LinkConfig {
        latency: SimTime::from_micros(1),
        bandwidth_bps: 0,
        loss_probability: 1.0,
    });
    client
        .pushto(
            cqd,
            &Sga::from_slice(b"void"),
            SocketAddr::new(host_ip(2), 7),
        )
        .unwrap();
    let qt = server.pop(sqd).unwrap();
    assert_eq!(
        server.wait(qt, Some(SimTime::from_millis(5))),
        Err(DemiError::Timeout)
    );
}

#[test]
fn catcorn_partition_fails_pushes_with_rdma_error() {
    let (_rt, fabric, client, server) = catcorn_pair(403);
    let lqd = server.socket(SocketKind::Tcp).unwrap();
    server
        .bind(lqd, SocketAddr::new(host_ip(2), 18515))
        .unwrap();
    server.listen(lqd, 8).unwrap();
    let aqt = server.accept(lqd).unwrap();
    let cqd = client.socket(SocketKind::Tcp).unwrap();
    let cqt = client
        .connect(cqd, SocketAddr::new(host_ip(2), 18515))
        .unwrap();
    let _sqd = server.wait(aqt, None).unwrap().expect_accept();
    client.wait(cqt, None).unwrap();

    fabric.partition(host_mac(1), host_mac(2));
    let qt = client
        .push(cqd, &Sga::from_slice(b"into the void"))
        .unwrap();
    let result = client.wait(qt, None).unwrap();
    assert!(
        matches!(result, OperationResult::Failed(DemiError::Rdma(_))),
        "expected transport failure, got {result:?}"
    );
}

#[test]
fn catnip_connect_to_partitioned_host_times_out() {
    let (rt, fabric, client, _server) = catnip_pair(404);
    // A pop parked on an idle port: a rescue sweep would poll it unwoken
    // (a spurious poll), so zero spurious polls below proves the SYN
    // give-up itself woke both waiters.
    let idle = client.socket(SocketKind::Udp).unwrap();
    client.bind(idle, SocketAddr::new(host_ip(1), 9)).unwrap();
    client.pop(idle).unwrap();
    fabric.partition(host_mac(1), host_mac(2));
    let cqd = client.socket(SocketKind::Tcp).unwrap();
    let qt = client
        .connect(cqd, SocketAddr::new(host_ip(2), 80))
        .unwrap();
    let pop = client.pop(cqd).unwrap();
    let result = client.wait(qt, None).unwrap();
    assert!(
        result.is_failed(),
        "connect through a partition: {result:?}"
    );
    // The pop pending on the connecting queue fails too, with the same
    // error, instead of deadlocking.
    assert_eq!(client.wait(pop, None).unwrap(), result);
    assert_eq!(rt.scheduler().stats().spurious_polls, 0);
}

#[test]
fn catnip_tcp_survives_a_transient_partition() {
    let (_rt, fabric, client, server) = catnip_pair(405);
    let lqd = server.socket(SocketKind::Tcp).unwrap();
    server.bind(lqd, SocketAddr::new(host_ip(2), 80)).unwrap();
    server.listen(lqd, 8).unwrap();
    let aqt = server.accept(lqd).unwrap();
    let cqd = client.socket(SocketKind::Tcp).unwrap();
    let cqt = client
        .connect(cqd, SocketAddr::new(host_ip(2), 80))
        .unwrap();
    let sqd = server.wait(aqt, None).unwrap().expect_accept();
    client.wait(cqt, None).unwrap();

    // Send during a partition; heal it; retransmission completes delivery.
    fabric.partition(host_mac(1), host_mac(2));
    let push = client.push(cqd, &Sga::from_slice(b"persistent")).unwrap();
    client.wait(push, None).unwrap(); // Push buffers locally.
    let pop = server.pop(sqd).unwrap();
    assert_eq!(
        server.wait(pop, Some(SimTime::from_millis(2))),
        Err(DemiError::Timeout),
        "nothing can arrive during the partition"
    );
    fabric.heal(host_mac(1), host_mac(2));
    let (_, sga) = server.wait(pop, None).unwrap().expect_pop();
    assert_eq!(sga.to_vec(), b"persistent");
}

#[test]
fn rdma_rnr_is_invisible_thanks_to_libos_buffering() {
    // The raw device fails when receivers under-provision (E5 shows it);
    // through catcorn the same workload succeeds because the libOS manages
    // the ring. Burst twice the ring size with the receiver idle.
    let (_rt, _fabric, client, server) = catcorn_pair(406);
    let lqd = server.socket(SocketKind::Tcp).unwrap();
    server
        .bind(lqd, SocketAddr::new(host_ip(2), 18515))
        .unwrap();
    server.listen(lqd, 8).unwrap();
    let aqt = server.accept(lqd).unwrap();
    let cqd = client.socket(SocketKind::Tcp).unwrap();
    let cqt = client
        .connect(cqd, SocketAddr::new(host_ip(2), 18515))
        .unwrap();
    let sqd = server.wait(aqt, None).unwrap().expect_accept();
    client.wait(cqt, None).unwrap();

    let tokens: Vec<_> = (0..64u32)
        .map(|i| {
            client
                .push(cqd, &Sga::from_slice(&i.to_be_bytes()))
                .unwrap()
        })
        .collect();
    for i in 0..64u32 {
        let (_, sga) = server.blocking_pop(sqd).unwrap().expect_pop();
        assert_eq!(sga.to_vec(), i.to_be_bytes());
    }
    for r in client.wait_all(&tokens, None).unwrap() {
        assert!(matches!(r, OperationResult::Push));
    }
    assert_eq!(server.device().stats().rnr_nacks_sent, 0);
}
