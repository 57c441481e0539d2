//! catnip tests: the full Demikernel data path over the simulated NIC.

use super::*;
use sim_fabric::SimTime;

fn ip(last: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, last)
}

/// One runtime, one fabric, two hosts — client and server co-run.
fn world() -> (Runtime, Catnip, Catnip) {
    let fabric = Fabric::new(2024);
    let rt = Runtime::with_fabric(fabric.clone());
    let a = Catnip::new(&rt, &fabric, MacAddress::from_last_octet(1), ip(1));
    let b = Catnip::new(&rt, &fabric, MacAddress::from_last_octet(2), ip(2));
    (rt, a, b)
}

/// Parks a pop on an idle UDP port for the rest of the test. A rescue
/// sweep would poll it unwoken — a spurious poll — so
/// [`assert_every_wake_was_real`] proves no waiter missed its signal.
fn park_sentinel(libos: &Catnip) {
    let qd = libos.socket(SocketKind::Udp).unwrap();
    libos
        .bind(qd, SocketAddr::new(libos.local_ip(), 4))
        .unwrap();
    libos.pop(qd).unwrap();
}

fn assert_every_wake_was_real(rt: &Runtime) {
    assert_eq!(rt.scheduler().stats().spurious_polls, 0);
}

#[test]
fn udp_echo_round_trip() {
    let (_rt, client, server) = world();

    let sqd = server.socket(SocketKind::Udp).unwrap();
    server.bind(sqd, SocketAddr::new(ip(2), 7)).unwrap();
    let server_pop = server.pop(sqd).unwrap();

    let cqd = client.socket(SocketKind::Udp).unwrap();
    client.bind(cqd, SocketAddr::new(ip(1), 9000)).unwrap();
    client
        .pushto(cqd, &Sga::from_slice(b"ping"), SocketAddr::new(ip(2), 7))
        .unwrap();

    // The server's wait drives the whole world (ARP included).
    let (from, sga) = server.wait(server_pop, None).unwrap().expect_pop();
    assert_eq!(sga.to_vec(), b"ping");
    let from = from.expect("datagram carries its source");
    assert_eq!(from, SocketAddr::new(ip(1), 9000));

    // Echo back.
    server.pushto(sqd, &sga, from).unwrap();
    let (_, reply) = client.blocking_pop(cqd).unwrap().expect_pop();
    assert_eq!(reply.to_vec(), b"ping");
}

#[test]
fn udp_connected_push_uses_default_remote() {
    let (_rt, client, server) = world();
    let sqd = server.socket(SocketKind::Udp).unwrap();
    server.bind(sqd, SocketAddr::new(ip(2), 53)).unwrap();
    let cqd = client.socket(SocketKind::Udp).unwrap();
    let qt = client.connect(cqd, SocketAddr::new(ip(2), 53)).unwrap();
    assert!(matches!(
        client.wait(qt, None).unwrap(),
        OperationResult::Connect
    ));
    client.push(cqd, &Sga::from_slice(b"query")).unwrap();
    let (_, sga) = server.blocking_pop(sqd).unwrap().expect_pop();
    assert_eq!(sga.to_vec(), b"query");
}

#[test]
fn tcp_accept_connect_exchange() {
    let (rt, client, server) = world();
    park_sentinel(&server);

    let lqd = server.socket(SocketKind::Tcp).unwrap();
    server.bind(lqd, SocketAddr::new(ip(2), 80)).unwrap();
    server.listen(lqd, 16).unwrap();
    let accept_qt = server.accept(lqd).unwrap();

    let cqd = client.socket(SocketKind::Tcp).unwrap();
    let connect_qt = client.connect(cqd, SocketAddr::new(ip(2), 80)).unwrap();

    let sqd = server.wait(accept_qt, None).unwrap().expect_accept();
    assert!(matches!(
        client.wait(connect_qt, None).unwrap(),
        OperationResult::Connect
    ));

    client
        .blocking_push(cqd, &Sga::from_slice(b"GET /index"))
        .unwrap();
    let (_, req) = server.blocking_pop(sqd).unwrap().expect_pop();
    assert_eq!(req.to_vec(), b"GET /index");

    server
        .blocking_push(sqd, &Sga::from_slice(b"200 OK"))
        .unwrap();
    let (_, resp) = client.blocking_pop(cqd).unwrap().expect_pop();
    assert_eq!(resp.to_vec(), b"200 OK");
    // Accept, connect and both pops were woken by their own sockets.
    assert_every_wake_was_real(&rt);
}

#[test]
fn tcp_preserves_atomic_units_across_the_stream() {
    let (_rt, client, server) = world();
    let lqd = server.socket(SocketKind::Tcp).unwrap();
    server.bind(lqd, SocketAddr::new(ip(2), 80)).unwrap();
    server.listen(lqd, 16).unwrap();
    let accept_qt = server.accept(lqd).unwrap();
    let cqd = client.socket(SocketKind::Tcp).unwrap();
    let connect_qt = client.connect(cqd, SocketAddr::new(ip(2), 80)).unwrap();
    let sqd = server.wait(accept_qt, None).unwrap().expect_accept();
    client.wait(connect_qt, None).unwrap();

    // Three pushes of very different sizes, including one spanning many
    // TCP segments: each pops as exactly one element.
    let msgs: Vec<Vec<u8>> = vec![b"tiny".to_vec(), vec![0xAB; 10_000], b"trailer".to_vec()];
    for m in &msgs {
        client.blocking_push(cqd, &Sga::from_slice(m)).unwrap();
    }
    for m in &msgs {
        let (_, sga) = server.blocking_pop(sqd).unwrap().expect_pop();
        assert_eq!(&sga.to_vec(), m, "atomic unit boundary violated");
    }
}

#[test]
fn multi_segment_sga_arrives_as_one_element() {
    let (_rt, client, server) = world();
    let lqd = server.socket(SocketKind::Tcp).unwrap();
    server.bind(lqd, SocketAddr::new(ip(2), 80)).unwrap();
    server.listen(lqd, 16).unwrap();
    let accept_qt = server.accept(lqd).unwrap();
    let cqd = client.socket(SocketKind::Tcp).unwrap();
    let connect_qt = client.connect(cqd, SocketAddr::new(ip(2), 80)).unwrap();
    let sqd = server.wait(accept_qt, None).unwrap().expect_accept();
    client.wait(connect_qt, None).unwrap();

    let mut sga = Sga::new();
    sga.push_seg(demi_memory::DemiBuffer::from_slice(b"header|"));
    sga.push_seg(demi_memory::DemiBuffer::from_slice(b"body|"));
    sga.push_seg(demi_memory::DemiBuffer::from_slice(b"tail"));
    client.blocking_push(cqd, &sga).unwrap();
    let (_, got) = server.blocking_pop(sqd).unwrap().expect_pop();
    assert_eq!(got.to_vec(), b"header|body|tail");
}

#[test]
fn connect_to_dead_port_fails() {
    let (rt, client, _server) = world();
    park_sentinel(&client);
    let cqd = client.socket(SocketKind::Tcp).unwrap();
    let qt = client.connect(cqd, SocketAddr::new(ip(2), 9999)).unwrap();
    let result = client.wait(qt, None).unwrap();
    assert!(matches!(
        result,
        OperationResult::Failed(DemiError::Net(NetError::ConnectionRefused))
    ));
    assert_every_wake_was_real(&rt);
}

#[test]
fn pop_on_closed_connection_reports_closed() {
    let (rt, client, server) = world();
    park_sentinel(&server);
    let lqd = server.socket(SocketKind::Tcp).unwrap();
    server.bind(lqd, SocketAddr::new(ip(2), 80)).unwrap();
    server.listen(lqd, 16).unwrap();
    let accept_qt = server.accept(lqd).unwrap();
    let cqd = client.socket(SocketKind::Tcp).unwrap();
    let connect_qt = client.connect(cqd, SocketAddr::new(ip(2), 80)).unwrap();
    let sqd = server.wait(accept_qt, None).unwrap().expect_accept();
    client.wait(connect_qt, None).unwrap();

    client.close(cqd).unwrap();
    let result = server.blocking_pop(sqd).unwrap();
    assert!(matches!(result, OperationResult::Failed(DemiError::Closed)));
    assert_every_wake_was_real(&rt);
}

#[test]
fn data_path_makes_zero_kernel_crossings() {
    let (rt, client, server) = world();
    let sqd = server.socket(SocketKind::Udp).unwrap();
    server.bind(sqd, SocketAddr::new(ip(2), 7)).unwrap();
    let cqd = client.socket(SocketKind::Udp).unwrap();
    client.bind(cqd, SocketAddr::new(ip(1), 9000)).unwrap();
    rt.metrics().reset();
    for _ in 0..10 {
        client
            .pushto(cqd, &Sga::from_slice(b"x"), SocketAddr::new(ip(2), 7))
            .unwrap();
        let _ = server.blocking_pop(sqd).unwrap();
    }
    let m = rt.metrics().snapshot();
    assert_eq!(
        m.data_path_syscalls, 0,
        "Fig. 1: no kernel on the data path"
    );
    assert_eq!(m.pushes, 10);
    assert_eq!(m.pops, 10);
}

#[test]
fn zero_copy_pop_shares_device_storage() {
    let (_rt, client, server) = world();
    let sqd = server.socket(SocketKind::Udp).unwrap();
    server.bind(sqd, SocketAddr::new(ip(2), 7)).unwrap();
    let cqd = client.socket(SocketKind::Udp).unwrap();
    client.bind(cqd, SocketAddr::new(ip(1), 9000)).unwrap();
    client
        .pushto(cqd, &Sga::from_slice(b"zc"), SocketAddr::new(ip(2), 7))
        .unwrap();
    let (_, sga) = server.blocking_pop(sqd).unwrap().expect_pop();
    let seg = &sga.segments()[0];
    assert!(
        seg.capacity() > seg.len(),
        "payload is a view into the larger device frame buffer"
    );
}

#[test]
fn wait_any_serves_two_connections_with_single_wakeups() {
    let (rt, client, server) = world();
    let lqd = server.socket(SocketKind::Tcp).unwrap();
    server.bind(lqd, SocketAddr::new(ip(2), 80)).unwrap();
    server.listen(lqd, 16).unwrap();

    let a1 = server.accept(lqd).unwrap();
    let c1 = client.socket(SocketKind::Tcp).unwrap();
    let q1 = client.connect(c1, SocketAddr::new(ip(2), 80)).unwrap();
    let s1 = server.wait(a1, None).unwrap().expect_accept();
    client.wait(q1, None).unwrap();

    let a2 = server.accept(lqd).unwrap();
    let c2 = client.socket(SocketKind::Tcp).unwrap();
    let q2 = client.connect(c2, SocketAddr::new(ip(2), 80)).unwrap();
    let s2 = server.wait(a2, None).unwrap().expect_accept();
    client.wait(q2, None).unwrap();

    // Event loop: wait on both pops; exactly one resolves per completion.
    let pop1 = server.pop(s1).unwrap();
    let pop2 = server.pop(s2).unwrap();
    client
        .blocking_push(c2, &Sga::from_slice(b"second"))
        .unwrap();
    rt.metrics().reset();
    let (idx, result) = server.wait_any(&[pop1, pop2], None).unwrap();
    assert_eq!(idx, 1);
    let (_, sga) = result.expect_pop();
    assert_eq!(sga.to_vec(), b"second");
    assert_eq!(rt.metrics().snapshot().wakeups, 1);
    // The other pop is still valid.
    client
        .blocking_push(c1, &Sga::from_slice(b"first"))
        .unwrap();
    let (_, sga) = server.wait(pop1, None).unwrap().expect_pop();
    assert_eq!(sga.to_vec(), b"first");
}

#[test]
fn wait_timeout_in_virtual_time() {
    let (_rt, _client, server) = world();
    let sqd = server.socket(SocketKind::Udp).unwrap();
    server.bind(sqd, SocketAddr::new(ip(2), 7)).unwrap();
    let pop = server.pop(sqd).unwrap();
    assert_eq!(
        server.wait(pop, Some(SimTime::from_millis(5))),
        Err(DemiError::Timeout)
    );
}

#[test]
fn sgaalloc_comes_from_registered_pools() {
    let (_rt, client, _server) = world();
    let regs_before = client.memory().region_stats().registrations;
    let sga = client.sgaalloc(2048);
    assert_eq!(sga.len(), 2048);
    assert_eq!(
        client.memory().region_stats().registrations,
        regs_before,
        "warmed pools serve the data path without registration"
    );
}
