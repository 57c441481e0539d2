//! Per-object readiness: a parked catnip or catnap operation is woken by
//! the socket it waits on, and by nothing else.
//!
//! The paper's case against epoll (§4.4) is its wake-all semantics: one
//! event should resolve exactly the waiter it concerns. These tests pin
//! that inside the library OS:
//!
//! * a request/reply on one connection costs the same scheduler polls
//!   whether 4 or 256 other connections have a pop parked — parked pops
//!   cost nothing;
//! * a datagram to one UDP port never polls the pop parked on another —
//!   and on catnap never charges it a syscall either;
//! * a peer's RST and a local close each wake their waiter. Nothing
//!   sweeps parked tasks, so a missed signal would leave the waiter
//!   parked and the wait would fail with `Deadlock`.

use demikernel::libos::catnip::Catnip;
use demikernel::libos::{LibOs, SocketKind};
use demikernel::runtime::Runtime;
use demikernel::testing::{catnap_pair, catnip_pair, host_ip};
use demikernel::types::{DemiError, OperationResult, QDesc, QToken, Sga};
use net_stack::types::{NetError, SocketAddr};
use sim_fabric::SimTime;

const PORT: u16 = 80;

/// Scheduler polls one request/reply exchange may cost, however many
/// pops are parked elsewhere: the client's push and pop, the server's
/// pop and push, and a re-poll or two as segments arrive (7 framed, 3
/// unframed when written).
const POLLS_PER_EXCHANGE: u64 = 8;

fn polls(rt: &Runtime) -> u64 {
    rt.scheduler().stats().polls
}

/// A pop parked for the whole test on a UDP port nothing sends to.
fn sentinel(libos: &Catnip, port: u16) -> QToken {
    let qd = libos.socket(SocketKind::Udp).unwrap();
    libos
        .bind(qd, SocketAddr::new(libos.local_ip(), port))
        .unwrap();
    libos.pop(qd).unwrap()
}

/// Opens `n` connections and returns `(client qd, server qd)` pairs.
fn connections(client: &Catnip, server: &Catnip, n: usize) -> Vec<(QDesc, QDesc)> {
    let lqd = server.socket(SocketKind::Tcp).unwrap();
    server.bind(lqd, SocketAddr::new(host_ip(2), PORT)).unwrap();
    server.listen(lqd, n).unwrap();
    (0..n)
        .map(|_| {
            let aqt = server.accept(lqd).unwrap();
            let cqd = client.socket(SocketKind::Tcp).unwrap();
            let cqt = client
                .connect(cqd, SocketAddr::new(host_ip(2), PORT))
                .unwrap();
            let sqd = server.wait(aqt, None).unwrap().expect_accept();
            client.wait(cqt, None).unwrap();
            (cqd, sqd)
        })
        .collect()
}

/// Parks a server pop on each of `n` connections, then measures the
/// scheduler polls of one request/reply on the first connection.
fn exchange_polls(n: usize, framed: bool) -> u64 {
    let (rt, _fabric, client, server) = catnip_pair(31);
    let conns = connections(&client, &server, n);
    let pop = |libos: &Catnip, qd| {
        if framed {
            libos.pop(qd).unwrap()
        } else {
            libos.pop_unframed(qd).unwrap()
        }
    };
    let push = |libos: &Catnip, qd, msg: &[u8]| {
        let sga = Sga::from_slice(msg);
        if framed {
            libos.push(qd, &sga).unwrap()
        } else {
            libos.push_unframed(qd, &sga).unwrap()
        }
    };
    let parked: Vec<QToken> = conns.iter().map(|&(_, sqd)| pop(&server, sqd)).collect();
    // Let every handshake ACK and delayed ACK drain so the window below
    // sees only the exchange.
    rt.settle(SimTime::from_millis(10));

    let (cqd, sqd) = conns[0];
    let before = polls(&rt);
    client.wait(push(&client, cqd, b"request"), None).unwrap();
    let (_, req) = server.wait(parked[0], None).unwrap().expect_pop();
    assert_eq!(req.to_vec(), b"request");
    server.wait(push(&server, sqd, b"reply"), None).unwrap();
    let (_, reply) = client.wait(pop(&client, cqd), None).unwrap().expect_pop();
    assert_eq!(reply.to_vec(), b"reply");
    polls(&rt) - before
}

#[test]
fn parked_framed_pops_cost_nothing() {
    let few = exchange_polls(4, true);
    let many = exchange_polls(256, true);
    assert_eq!(few, many, "parked pops on other connections were polled");
    assert!(few <= POLLS_PER_EXCHANGE, "{few} polls for one exchange");
}

#[test]
fn parked_unframed_pops_cost_nothing() {
    let few = exchange_polls(4, false);
    let many = exchange_polls(256, false);
    assert_eq!(few, many, "parked pops on other connections were polled");
    assert!(few <= POLLS_PER_EXCHANGE, "{few} polls for one exchange");
}

/// Sends one datagram to port 7 and waits for it, optionally with a pop
/// parked on port 8; returns the scheduler polls the exchange cost.
fn udp_exchange_polls(park_other_port: bool) -> u64 {
    let (rt, _fabric, client, server) = catnip_pair(32);
    let a = server.socket(SocketKind::Udp).unwrap();
    server.bind(a, SocketAddr::new(host_ip(2), 7)).unwrap();
    if park_other_port {
        sentinel(&server, 8);
    }
    let cqd = client.socket(SocketKind::Udp).unwrap();
    client.bind(cqd, SocketAddr::new(host_ip(1), 9000)).unwrap();
    rt.settle(SimTime::from_millis(1));
    let before = polls(&rt);
    let pop = server.pop(a).unwrap();
    let push = client
        .pushto(
            cqd,
            &Sga::from_slice(b"dgram"),
            SocketAddr::new(host_ip(2), 7),
        )
        .unwrap();
    client.wait(push, None).unwrap();
    let (_, got) = server.wait(pop, None).unwrap().expect_pop();
    assert_eq!(got.to_vec(), b"dgram");
    polls(&rt) - before
}

#[test]
fn datagram_to_one_port_does_not_poll_another_ports_pop() {
    assert_eq!(udp_exchange_polls(true), udp_exchange_polls(false));
}

/// A listener closed with an unaccepted connection resets it: the
/// client's pending pop fails with the reset, woken by the RST.
#[test]
fn peer_reset_fails_the_pending_pop() {
    let (rt, _fabric, client, server) = catnip_pair(33);
    let lqd = server.socket(SocketKind::Tcp).unwrap();
    server.bind(lqd, SocketAddr::new(host_ip(2), PORT)).unwrap();
    server.listen(lqd, 4).unwrap();
    let cqd = client.socket(SocketKind::Tcp).unwrap();
    let cqt = client
        .connect(cqd, SocketAddr::new(host_ip(2), PORT))
        .unwrap();
    client.wait(cqt, None).unwrap();
    let pop = client.pop(cqd).unwrap();
    rt.settle(SimTime::from_millis(1));
    server.close(lqd).unwrap();
    assert_eq!(
        client.wait(pop, None).unwrap(),
        OperationResult::Failed(DemiError::Net(NetError::ConnectionReset))
    );
}

/// A local close wakes the pop pending on the closed connection; it ends
/// `Closed` once the peer's FIN completes the close.
#[test]
fn local_close_with_a_pending_pop() {
    let (rt, _fabric, client, server) = catnip_pair(35);
    let (cqd, sqd) = connections(&client, &server, 1)[0];
    let pop = client.pop(cqd).unwrap();
    rt.settle(SimTime::from_millis(1));
    client.close(cqd).unwrap();
    assert_eq!(
        server.blocking_pop(sqd).unwrap(),
        OperationResult::Failed(DemiError::Closed)
    );
    server.close(sqd).unwrap();
    assert_eq!(
        client.wait(pop, None).unwrap(),
        OperationResult::Failed(DemiError::Closed)
    );
}

/// Echoes 20 datagrams on catnap port 7, optionally with a pop parked on
/// port 8 for the whole run; returns the scheduler polls and the server
/// kernel's syscalls the run cost, counted from just before the parked
/// pop is issued.
fn catnap_udp_echo_cost(park_other_port: bool) -> (u64, u64) {
    let (rt, _fabric, client, server) = catnap_pair(36);
    let sqd = server.socket(SocketKind::Udp).unwrap();
    server.bind(sqd, SocketAddr::new(host_ip(2), 7)).unwrap();
    let idle = server.socket(SocketKind::Udp).unwrap();
    server.bind(idle, SocketAddr::new(host_ip(2), 8)).unwrap();
    let cqd = client.socket(SocketKind::Udp).unwrap();
    client.bind(cqd, SocketAddr::new(host_ip(1), 9000)).unwrap();
    server.sim_kernel().reset_stats();
    let before = polls(&rt);
    if park_other_port {
        server.pop(idle).unwrap();
    }
    for i in 0..20u8 {
        let pop = server.pop(sqd).unwrap();
        let push = client
            .pushto(
                cqd,
                &Sga::from_slice(&[i; 64]),
                SocketAddr::new(host_ip(2), 7),
            )
            .unwrap();
        client.wait(push, None).unwrap();
        let (from, got) = server.wait(pop, None).unwrap().expect_pop();
        assert_eq!(got.to_vec(), [i; 64]);
        server.pushto(sqd, &got, from.unwrap()).unwrap();
        let (_, reply) = client.blocking_pop(cqd).unwrap().expect_pop();
        assert_eq!(reply.to_vec(), [i; 64]);
    }
    (polls(&rt) - before, server.sim_kernel().stats().syscalls)
}

/// A catnap pop parks on its own socket's wait queue: datagrams to
/// another socket neither poll it nor charge it an EWOULDBLOCK
/// `recvfrom`. Parking it costs exactly its one first poll and that
/// poll's one `recvfrom`.
#[test]
fn catnap_datagrams_do_not_poll_or_charge_another_sockets_pop() {
    let (polls_idle, syscalls_idle) = catnap_udp_echo_cost(false);
    let (polls_parked, syscalls_parked) = catnap_udp_echo_cost(true);
    assert_eq!(polls_parked, polls_idle + 1, "the parked pop was re-polled");
    assert_eq!(
        syscalls_parked,
        syscalls_idle + 1,
        "the parked pop was charged a recvfrom per unrelated wake"
    );
}
