//! E12 — the zero-copy datapath: headroom prepend vs legacy Vec builders.
//!
//! The paper's §3.2/§4.5 architecture promises that a kernel-bypass libOS
//! moves payload bytes zero times between the application and the wire.
//! This experiment checks the promise in both domains:
//!
//! * **counters** (asserted, not just printed): on the catnip UDP echo
//!   path, each packet costs exactly one pool allocation — the
//!   application's own `sgaalloc` — and zero payload-byte copies, TX and
//!   RX combined. Headers are prepended into the buffer's headroom and the
//!   same storage crosses the simulated wire.
//! * **wall clock** (criterion): building a frame by prepending headers in
//!   place vs the legacy `build_datagram`/`build_packet`/`build_frame`
//!   Vec chain (kept behind the `legacy_copy_path` feature), which
//!   allocates three vectors and copies the payload three times per packet.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::net::Ipv4Addr;

use demi_bench::Table;
use demi_memory::DemiBuffer;
use demi_telemetry::counters;
use demikernel::libos::{LibOs, SocketKind};
use demikernel::testing::{catnip_pair, host_ip};
use net_stack::eth::{build_frame, EthHeader, EtherType, ETH_HEADER_LEN};
use net_stack::ipv4::{build_packet, IpProtocol, Ipv4Header, IPV4_HEADER_LEN};
use net_stack::stack::MAX_HEADER_LEN;
use net_stack::types::SocketAddr;
use net_stack::udp::{UdpHeader, UDP_HEADER_LEN};
use sim_fabric::MacAddress;

/// Payload size of the headline comparison (a full-MTU-ish Redis value).
const PAYLOAD: usize = 1400;

fn experiment_table() {
    // End to end: the catnip echo path, measured by the demi-memory
    // datapath counters.
    let (_rt, _fabric, client, server) = catnip_pair(512);
    let sqd = server.socket(SocketKind::Udp).unwrap();
    server.bind(sqd, SocketAddr::new(host_ip(2), 7)).unwrap();
    let cqd = client.socket(SocketKind::Udp).unwrap();
    client.bind(cqd, SocketAddr::new(host_ip(1), 9000)).unwrap();
    for _ in 0..20 {
        let sga = client.sgaalloc(PAYLOAD);
        client
            .pushto(cqd, &sga, SocketAddr::new(host_ip(2), 7))
            .unwrap();
        let _ = server.blocking_pop(sqd).unwrap();
    }
    const ROUNDS: u64 = 200;
    let before = counters::snapshot();
    for _ in 0..ROUNDS {
        let sga = client.sgaalloc(PAYLOAD);
        client
            .pushto(cqd, &sga, SocketAddr::new(host_ip(2), 7))
            .unwrap();
        let _ = server.blocking_pop(sqd).unwrap();
    }
    let d = counters::snapshot().delta(&before);

    let mut table = Table::new(
        "E12: per-packet datapath cost, 1400B UDP, TX+RX combined",
        &["path", "allocs/pkt", "copies/pkt", "bytes copied/pkt"],
    );
    table.row(&[
        "catnip headroom prepend (measured)".into(),
        format!("{:.2}", d.buffer_allocs as f64 / ROUNDS as f64),
        format!("{:.2}", d.buffer_copies as f64 / ROUNDS as f64),
        format!("{:.0}", d.buffer_bytes_copied as f64 / ROUNDS as f64),
    ]);
    // The legacy Vec chain is structural: UDP, IP, and Ethernet builders
    // each allocate a vector and re-copy header+payload, then the device
    // copies the frame into an mbuf.
    table.row(&[
        "legacy Vec builders (by construction)".into(),
        "4.00".into(),
        "4.00".into(),
        format!("{}", 4 * PAYLOAD),
    ]);
    table.print();

    assert_eq!(
        d.buffer_allocs, ROUNDS,
        "zero-copy path: exactly one pool allocation per packet"
    );
    assert_eq!(d.buffer_copies, 0, "zero-copy path: no payload copies");
    println!(
        "paper check: {} packets, {} allocs, {} payload bytes copied\n",
        ROUNDS, d.buffer_allocs, d.buffer_bytes_copied
    );
}

fn bench(c: &mut Criterion) {
    experiment_table();
    let src_ip = Ipv4Addr::new(10, 0, 0, 1);
    let dst_ip = Ipv4Addr::new(10, 0, 0, 2);
    let udp = UdpHeader {
        src_port: 9000,
        dst_port: 7,
    };
    let eth = EthHeader {
        dst: MacAddress::from_last_octet(2),
        src: MacAddress::from_last_octet(1),
        ethertype: EtherType::Ipv4,
    };
    let mut group = c.benchmark_group("e12_datapath");
    for &size in &[64usize, 512, PAYLOAD] {
        let data = vec![0xA5u8; size];
        group.throughput(Throughput::Bytes(size as u64));
        // Legacy: three Vec builders, three payload copies per frame.
        group.bench_with_input(
            BenchmarkId::new("legacy_vec_builders", size),
            &size,
            |b, _| {
                b.iter(|| {
                    let dg = udp.build_datagram(src_ip, dst_ip, criterion::black_box(&data));
                    let ip = Ipv4Header {
                        src: src_ip,
                        dst: dst_ip,
                        protocol: IpProtocol::Udp,
                        payload_len: dg.len(),
                    };
                    let pkt = build_packet(&ip, &dg);
                    criterion::black_box(build_frame(&eth, &pkt))
                })
            },
        );
        // Zero-copy: prepend headers into headroom, trim back to reuse the
        // same buffer (steady-state mbuf behavior: no allocation at all).
        let mut buf = DemiBuffer::zeroed_with_headroom(MAX_HEADER_LEN, size);
        buf.try_mut().unwrap().copy_from_slice(&data);
        group.bench_with_input(BenchmarkId::new("headroom_prepend", size), &size, |b, _| {
            b.iter(|| {
                udp.prepend_onto(src_ip, dst_ip, &mut buf).unwrap();
                let ip = Ipv4Header {
                    src: src_ip,
                    dst: dst_ip,
                    protocol: IpProtocol::Udp,
                    payload_len: buf.len(),
                };
                ip.prepend_onto(&mut buf).unwrap();
                eth.prepend_onto(&mut buf).unwrap();
                criterion::black_box(buf.len());
                buf.trim_front(ETH_HEADER_LEN + IPV4_HEADER_LEN + UDP_HEADER_LEN);
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
