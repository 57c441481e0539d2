//! catcorn tests: the Demikernel interface over RDMA.

use super::*;
use std::net::Ipv4Addr;

fn ip(last: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, last)
}

fn world() -> (Runtime, Catcorn, Catcorn) {
    let fabric = Fabric::new(31);
    let rt = Runtime::with_fabric(fabric.clone());
    let a = Catcorn::new(&rt, &fabric, MacAddress::from_last_octet(1));
    let b = Catcorn::new(&rt, &fabric, MacAddress::from_last_octet(2));
    (rt, a, b)
}

fn connected(client: &Catcorn, server: &Catcorn) -> (QDesc, QDesc) {
    let lqd = server.socket(SocketKind::Tcp).unwrap();
    server.bind(lqd, SocketAddr::new(ip(2), 18515)).unwrap();
    server.listen(lqd, 8).unwrap();
    let aqt = server.accept(lqd).unwrap();
    let cqd = client.socket(SocketKind::Tcp).unwrap();
    let cqt = client.connect(cqd, SocketAddr::new(ip(2), 18515)).unwrap();
    let sqd = server.wait(aqt, None).unwrap().expect_accept();
    assert!(matches!(
        client.wait(cqt, None).unwrap(),
        OperationResult::Connect
    ));
    (cqd, sqd)
}

#[test]
fn connect_accept_and_exchange() {
    let (_rt, client, server) = world();
    let (cqd, sqd) = connected(&client, &server);
    client
        .blocking_push(cqd, &Sga::from_slice(b"over verbs"))
        .unwrap();
    let (_, sga) = server.blocking_pop(sqd).unwrap().expect_pop();
    assert_eq!(sga.to_vec(), b"over verbs");
    server
        .blocking_push(sqd, &Sga::from_slice(b"reply"))
        .unwrap();
    let (_, reply) = client.blocking_pop(cqd).unwrap().expect_pop();
    assert_eq!(reply.to_vec(), b"reply");
}

#[test]
fn many_messages_without_app_buffer_management() {
    // The application never posts a receive or registers memory; the
    // libOS's pre-posted ring absorbs a burst larger than a naive single
    // buffer would.
    let (_rt, client, server) = world();
    let (cqd, sqd) = connected(&client, &server);
    for i in 0..100u32 {
        client
            .blocking_push(cqd, &Sga::from_slice(&i.to_be_bytes()))
            .unwrap();
        let (_, sga) = server.blocking_pop(sqd).unwrap().expect_pop();
        assert_eq!(sga.to_vec(), i.to_be_bytes());
    }
    // No RNR ever fired: the receive ring was always stocked.
    assert_eq!(server.device().stats().rnr_nacks_sent, 0);
}

#[test]
fn slot_exhaustion_back_pressures_instead_of_failing() {
    let (_rt, client, server) = world();
    let (cqd, sqd) = connected(&client, &server);
    // Fire more pushes than there are send slots before popping any.
    let tokens: Vec<QToken> = (0..2 * RING_SLOTS as u32)
        .map(|i| {
            client
                .push(cqd, &Sga::from_slice(&i.to_be_bytes()))
                .unwrap()
        })
        .collect();
    // Pops drain the receiver, freeing slots; everything completes.
    for i in 0..2 * RING_SLOTS as u32 {
        let (_, sga) = server.blocking_pop(sqd).unwrap().expect_pop();
        assert_eq!(sga.to_vec(), i.to_be_bytes());
    }
    let results = client.wait_all(&tokens, None).unwrap();
    assert!(results.iter().all(|r| matches!(r, OperationResult::Push)));
}

#[test]
fn registration_happens_per_connection_not_per_io() {
    let (_rt, client, server) = world();
    let regs_before = client.device().stats().mr_registrations;
    let (cqd, sqd) = connected(&client, &server);
    let regs_setup = client.device().stats().mr_registrations;
    assert_eq!(regs_setup - regs_before, 2, "send + recv ring per conn");
    for _ in 0..50 {
        client
            .blocking_push(cqd, &Sga::from_slice(b"payload"))
            .unwrap();
        let _ = server.blocking_pop(sqd).unwrap();
    }
    assert_eq!(
        client.device().stats().mr_registrations,
        regs_setup,
        "the data path never registers memory"
    );
}

#[test]
fn oversized_message_is_rejected_synchronously() {
    let (_rt, client, server) = world();
    let (cqd, _sqd) = connected(&client, &server);
    let big = Sga::from_slice(&vec![0u8; SLOT_SIZE + 1]);
    assert!(matches!(client.push(cqd, &big), Err(DemiError::Rdma(_))));
}

#[test]
fn connect_to_dead_port_fails() {
    let (_rt, client, _server) = world();
    let cqd = client.socket(SocketKind::Tcp).unwrap();
    let qt = client.connect(cqd, SocketAddr::new(ip(2), 4444)).unwrap();
    assert!(client.wait(qt, None).unwrap().is_failed());
}

#[test]
fn same_echo_source_runs_on_catcorn() {
    // Portability: the generic echo used in catnap tests, now on RDMA.
    let (_rt, client, server) = world();
    let (cqd, sqd) = connected(&client, &server);
    let c: &dyn LibOs = &client;
    let s: &dyn LibOs = &server;
    c.blocking_push(cqd, &Sga::from_slice(b"portable")).unwrap();
    let (_, msg) = s.blocking_pop(sqd).unwrap().expect_pop();
    s.blocking_push(sqd, &msg).unwrap();
    let (_, reply) = c.blocking_pop(cqd).unwrap().expect_pop();
    assert_eq!(reply.to_vec(), b"portable");
}

#[test]
fn device_caps_report_reliable_transport() {
    let (_rt, client, _server) = world();
    let caps = client.device_caps().unwrap();
    assert!(caps.reliable_transport);
    assert!(!caps.buffer_management, "that part is catcorn's job");
}

#[test]
fn completions_beyond_one_cq_batch_are_all_dispatched() {
    // Three connections share the client's one CQ. A partition fails
    // every queue pair at the same RTO instant, and each flushes its full
    // send ring: 3 × RING_SLOTS completions land on the CQ in one device
    // poll, more than the pump takes in one run, and no frame or deadline
    // follows to ring its bell again.
    let fabric = Fabric::new(31);
    let rt = Runtime::with_fabric(fabric.clone());
    let client = Catcorn::new(&rt, &fabric, MacAddress::from_last_octet(1));
    let server = Catcorn::new(&rt, &fabric, MacAddress::from_last_octet(2));
    let lqd = server.socket(SocketKind::Tcp).unwrap();
    server.bind(lqd, SocketAddr::new(ip(2), 18515)).unwrap();
    server.listen(lqd, 8).unwrap();
    let mut cqds = Vec::new();
    for _ in 0..3 {
        let aqt = server.accept(lqd).unwrap();
        let cqd = client.socket(SocketKind::Tcp).unwrap();
        let cqt = client.connect(cqd, SocketAddr::new(ip(2), 18515)).unwrap();
        server.wait(aqt, None).unwrap().expect_accept();
        client.wait(cqt, None).unwrap();
        cqds.push(cqd);
    }
    fabric.partition(
        MacAddress::from_last_octet(1),
        MacAddress::from_last_octet(2),
    );
    let pushes: Vec<QToken> = cqds
        .iter()
        .flat_map(|&cqd| std::iter::repeat_n(cqd, RING_SLOTS))
        .map(|cqd| {
            client
                .push(cqd, &Sga::from_slice(b"into the void"))
                .unwrap()
        })
        .collect();
    assert!(pushes.len() > 64, "more completions than one CQ batch");
    let results = client.wait_all(&pushes, None).unwrap();
    assert!(
        results
            .iter()
            .all(|r| matches!(r, OperationResult::Failed(DemiError::Rdma(_)))),
        "every push fails with a transport error: {results:?}"
    );
}
