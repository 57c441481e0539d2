//! POSIX socket-layer tests: copies and crossings are counted exactly.

use std::net::Ipv4Addr;

use dpdk_sim::{DpdkPort, PortConfig};
use net_stack::{NetworkStack, StackConfig};
use sim_fabric::{Fabric, MacAddress};

use super::*;
use crate::kernel::{CostModel, SimKernel};

fn ip(last: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, last)
}

fn host(fabric: &Fabric, last: u8) -> KernelSockets {
    let port = DpdkPort::new(fabric, PortConfig::basic(MacAddress::from_last_octet(last)));
    let stack = NetworkStack::new(port, fabric.clock(), StackConfig::new(ip(last)));
    KernelSockets::new(SimKernel::new(fabric.clock(), CostModel::default()), stack)
}

fn settle(
    fabric: &Fabric,
    a: &mut KernelSockets,
    b: &mut KernelSockets,
    mut until: impl FnMut(&mut KernelSockets, &mut KernelSockets) -> bool,
) {
    for _ in 0..100_000 {
        a.poll();
        b.poll();
        if until(a, b) {
            return;
        }
        if fabric.advance_to_next_event() {
            continue;
        }
        let deadline = [a.stack().next_deadline(), b.stack().next_deadline()]
            .into_iter()
            .flatten()
            .min();
        match deadline {
            Some(t) => fabric.clock().advance_to(t),
            None => return,
        }
    }
    panic!("posix world did not settle");
}

#[test]
fn udp_round_trip_counts_two_copies_and_syscalls() {
    let fabric = Fabric::new(11);
    let mut a = host(&fabric, 1);
    let mut b = host(&fabric, 2);
    let sender = a.udp_socket(1000).unwrap();
    let receiver = b.udp_socket(2000).unwrap();
    a.kernel().reset_stats();
    b.kernel().reset_stats();

    a.sendto(sender, SocketAddr::new(ip(2), 2000), b"datagram")
        .unwrap();
    let mut buf = [0u8; 64];
    let mut got = None;
    settle(&fabric, &mut a, &mut b, |_, b| {
        got = b.recvfrom(receiver, &mut buf).unwrap();
        got.is_some()
    });
    let (from, n) = got.unwrap();
    assert_eq!(from, SocketAddr::new(ip(1), 1000));
    assert_eq!(&buf[..n], b"datagram");

    // Sender: 1 sendto syscall, 1 user→kernel copy.
    let s = a.kernel().stats();
    assert_eq!(s.syscalls, 1);
    assert_eq!(s.copies, 1);
    assert_eq!(s.bytes_copied, 8);
    // Receiver: ≥1 recvfrom syscall (polling), exactly 1 kernel→user copy.
    let r = b.kernel().stats();
    assert!(r.syscalls >= 1);
    assert_eq!(r.copies, 1);
}

#[test]
fn recvfrom_truncates_like_posix() {
    let fabric = Fabric::new(11);
    let mut a = host(&fabric, 1);
    let mut b = host(&fabric, 2);
    let sender = a.udp_socket(1000).unwrap();
    let receiver = b.udp_socket(2000).unwrap();
    a.sendto(sender, SocketAddr::new(ip(2), 2000), b"0123456789")
        .unwrap();
    let mut small = [0u8; 4];
    let mut got = None;
    settle(&fabric, &mut a, &mut b, |_, b| {
        got = b.recvfrom(receiver, &mut small).unwrap();
        got.is_some()
    });
    assert_eq!(got.unwrap().1, 4);
    assert_eq!(&small, b"0123");
}

#[test]
fn tcp_stream_read_has_no_message_boundaries() {
    let fabric = Fabric::new(11);
    let mut a = host(&fabric, 1);
    let mut b = host(&fabric, 2);
    let lfd = b.tcp_socket();
    b.listen(lfd, 80, 8).unwrap();
    let cfd = a.tcp_socket();
    a.connect(cfd, SocketAddr::new(ip(2), 80)).unwrap();
    settle(&fabric, &mut a, &mut b, |a, _| a.is_connected(cfd).unwrap());
    let mut sfd = None;
    settle(&fabric, &mut a, &mut b, |_, b| {
        sfd = b.accept(lfd).unwrap();
        sfd.is_some()
    });
    let sfd = sfd.unwrap();

    // Two distinct writes...
    a.write(cfd, b"first|").unwrap();
    a.write(cfd, b"second").unwrap();
    // ...arrive as one undifferentiated stream.
    let mut buf = [0u8; 64];
    let mut total = 0;
    settle(&fabric, &mut a, &mut b, |_, b| {
        if let Some(n) = b.read(sfd, &mut buf[total..]).unwrap() {
            total += n;
        }
        total == 12
    });
    assert_eq!(&buf[..12], b"first|second");
}

#[test]
fn partial_reads_leave_leftovers_for_next_read() {
    let fabric = Fabric::new(11);
    let mut a = host(&fabric, 1);
    let mut b = host(&fabric, 2);
    let lfd = b.tcp_socket();
    b.listen(lfd, 80, 8).unwrap();
    let cfd = a.tcp_socket();
    a.connect(cfd, SocketAddr::new(ip(2), 80)).unwrap();
    settle(&fabric, &mut a, &mut b, |a, _| a.is_connected(cfd).unwrap());
    let mut sfd = None;
    settle(&fabric, &mut a, &mut b, |_, b| {
        sfd = b.accept(lfd).unwrap();
        sfd.is_some()
    });
    let sfd = sfd.unwrap();
    a.write(cfd, b"abcdefgh").unwrap();
    // Read with a 3-byte buffer: the first successful read returns "abc"
    // and stashes the remainder as a leftover.
    let mut first = [0u8; 3];
    settle(&fabric, &mut a, &mut b, |_, b| {
        matches!(b.read(sfd, &mut first), Ok(Some(3)))
    });
    assert_eq!(&first, b"abc");
    // The rest must follow in order from the leftover.
    let mut rest = [0u8; 8];
    let n = b.read(sfd, &mut rest).unwrap().unwrap();
    assert_eq!(&rest[..n], b"defgh");
}

#[test]
fn read_reports_eof_after_peer_close() {
    let fabric = Fabric::new(11);
    let mut a = host(&fabric, 1);
    let mut b = host(&fabric, 2);
    let lfd = b.tcp_socket();
    b.listen(lfd, 80, 8).unwrap();
    let cfd = a.tcp_socket();
    a.connect(cfd, SocketAddr::new(ip(2), 80)).unwrap();
    settle(&fabric, &mut a, &mut b, |a, _| a.is_connected(cfd).unwrap());
    let mut sfd = None;
    settle(&fabric, &mut a, &mut b, |_, b| {
        sfd = b.accept(lfd).unwrap();
        sfd.is_some()
    });
    let sfd = sfd.unwrap();
    a.close(cfd).unwrap();
    let mut buf = [0u8; 8];
    let mut eof = false;
    settle(&fabric, &mut a, &mut b, |_, b| {
        eof = b.read(sfd, &mut buf).unwrap() == Some(0);
        eof
    });
    assert!(eof);
}

#[test]
fn bad_fds_are_rejected() {
    let fabric = Fabric::new(11);
    let mut a = host(&fabric, 1);
    let ghost = Fd(1234);
    assert_eq!(
        a.sendto(ghost, SocketAddr::new(ip(2), 1), b"x"),
        Err(SockError::BadFd)
    );
    assert_eq!(a.read(ghost, &mut [0u8; 4]), Err(SockError::BadFd));
    assert_eq!(a.close(ghost), Err(SockError::BadFd));
    // Kind mismatches too: a UDP fd cannot be listened on.
    let ufd = a.udp_socket(1000).unwrap();
    assert_eq!(a.listen(ufd, 80, 4), Err(SockError::BadFd));
}

#[test]
fn connect_refused_surfaces_via_so_error() {
    let fabric = Fabric::new(11);
    let mut a = host(&fabric, 1);
    let mut b = host(&fabric, 2);
    let cfd = a.tcp_socket();
    a.connect(cfd, SocketAddr::new(ip(2), 9999)).unwrap();
    settle(&fabric, &mut a, &mut b, |a, _| a.so_error(cfd).is_some());
    assert_eq!(a.so_error(cfd), Some(NetError::ConnectionRefused));
}

#[test]
fn readiness_is_each_fds_stack_signal_and_costs_no_syscall() {
    let fabric = Fabric::new(11);
    let mut a = host(&fabric, 1);
    let mut b = host(&fabric, 2);
    let ufd = b.udp_socket(2000).unwrap();
    let lfd = b.tcp_socket();
    // A TCP socket neither listening nor connecting has nothing to wait on.
    assert!(matches!(b.readiness(lfd), Err(SockError::BadFd)));
    assert!(matches!(b.readiness(Fd(1234)), Err(SockError::BadFd)));
    b.listen(lfd, 80, 8).unwrap();
    let syscalls = b.kernel().stats().syscalls;
    let udp = b.readiness(ufd).unwrap();
    let listener = b.readiness(lfd).unwrap();
    assert_eq!(
        b.kernel().stats().syscalls,
        syscalls,
        "readiness is kernel-internal"
    );

    // UDP: a datagram to the port fires the port's signal, not the
    // listener's.
    let sender = a.udp_socket(1000).unwrap();
    a.sendto(sender, SocketAddr::new(ip(2), 2000), b"x")
        .unwrap();
    settle(&fabric, &mut a, &mut b, |_, b| b.is_readable(ufd));
    assert!(udp.epoch() > 0);
    assert_eq!(listener.epoch(), 0);

    // Listener: a completed handshake fires it; the connecting socket's
    // own signal fires as its state moves.
    let cfd = a.tcp_socket();
    a.connect(cfd, SocketAddr::new(ip(2), 80)).unwrap();
    let conn = a.readiness(cfd).unwrap();
    settle(&fabric, &mut a, &mut b, |a, _| a.is_connected(cfd).unwrap());
    assert!(conn.epoch() > 0);
    let mut sfd = None;
    settle(&fabric, &mut a, &mut b, |_, b| {
        sfd = b.accept(lfd).unwrap();
        sfd.is_some()
    });
    assert!(listener.epoch() > 0);

    // Connection: data arriving on the accepted socket fires its signal.
    let sfd = sfd.unwrap();
    let accepted = b.readiness(sfd).unwrap();
    let before = accepted.epoch();
    a.write(cfd, b"hi").unwrap();
    settle(&fabric, &mut a, &mut b, |_, b| b.is_readable(sfd));
    assert!(accepted.epoch() > before);
}
