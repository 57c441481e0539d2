//! E20 — multi-tenant device sharing under an adversarial neighbour.
//!
//! The paper's multiplexing argument (§2, §4) says a kernel-bypass device
//! can be shared between untrusting applications only if the policy that
//! protection used to provide moves into the datapath: private mempool
//! partitions, bounded per-tenant queues, and weighted-fair transmission.
//! This experiment runs a well-behaved victim and a hostile tenant through
//! one simulated NIC and measures what the hostile tenant can and cannot
//! do to its neighbour:
//!
//! * **tail-latency isolation**: the victim's echo RTT p99 (virtual time,
//!   deterministic) under a hostile TX flood ≥ 10× the hostile tenant's
//!   fair share stays ≤ 2× the hostile-absent baseline (asserted). The
//!   same flood through a shared FIFO — no per-tenant lanes — is measured
//!   as the contrast case and must blow past that bound.
//! * **weighted fairness**: under bilateral saturation the victim (weight
//!   3) sustains ≥ 90% of its 3/4 weighted share of the per-pass byte
//!   budget (asserted).
//! * **pool containment**: the hostile tenant leaking buffers exhausts
//!   only its own budgeted partition — a typed [`PoolExhausted`] naming
//!   the tenant — while the victim's partition allocates undisturbed
//!   (asserted).
//! * **partitioned TCP state**: a SYN spray at the hostile tenant's
//!   listener fills only that listener's fixed table; the victim's SYN
//!   partition, TIME_WAIT records, and established connection ride out
//!   the flood untouched (asserted).
//! * **zero cross-tenant views**: every attempt to view, clone, mutate,
//!   or prepend into the victim's buffers from the hostile tenant's
//!   context fails typed — the hostile tenant never observes a single
//!   victim payload byte (asserted).
//!
//! Results are written to `target/e20_tenant_isolation.json` as a
//! plottable artifact.

use std::net::Ipv4Addr;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use demi_bench::Table;
use demi_memory::{BufferPool, DemiBuffer, DEFAULT_HEADROOM};
use demi_telemetry::counters;
use demi_telemetry::hist::Histogram;
use demi_tenant::{TenantId, TenantRegistry, TenantSpec};
use net_stack::tcp::State;
use net_stack::types::SocketAddr;
use net_stack::{NetworkStack, StackConfig, TenancyCfg, TenantLaneStats};
use sim_fabric::{Fabric, MacAddress};

/// Sized so one wire frame (ETH 14 + IP 20 + UDP 8 + payload) is exactly
/// the 1500-byte MTU the DRR quantum is denominated in: quanta are then
/// integral in frames and the weighted shares come out exact instead of
/// drifting on banked sub-frame deficits.
const PAYLOAD: usize = 1_458;
/// Wire bytes of one echo/flood frame.
const FRAME: u64 = PAYLOAD as u64 + 42;
const VICTIM_WEIGHT: u32 = 3;
const HOSTILE_WEIGHT: u32 = 1;
/// Per-poll-pass TX byte budget: four frames, split 3:1 by DRR weight.
const PASS_BYTES: u64 = 4 * FRAME;
/// Poll-pass interval: one pass budget every 1042ns offers ~32 Gbps to
/// the 40 Gbps line, i.e. the admission budget is provisioned *below*
/// line rate. Provisioning at exactly line rate would let the flood keep
/// a standing never-draining queue at the serializer and every op would
/// deepen it by one frame — queueing theory, not an isolation failure.
const PASS_NS: u64 = PASS_BYTES * 8 * 1_000_000_000 / 32_000_000_000;
/// Frames the hostile tenant keeps staged ahead of every victim op —
/// 64× its one-frame-per-pass fair share, comfortably past the 10×
/// oversubscription the experiment calls for.
const HOSTILE_BACKLOG: usize = 64;
const OPS: usize = if cfg!(debug_assertions) { 60 } else { 240 };
const WARMUP_OPS: usize = 5;
/// SYN spray: 4× the hostile listener's backlog in half-open SYNs.
const SYN_BACKLOG: usize = 4;
const SYN_FLOOD: usize = 16;
/// Byte budget of each tenant's private pool partition in the leak phase.
const POOL_BUDGET: u64 = 256 * 1024;
const LEAK_ALLOC: usize = 2_048;

fn ip(last: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, last)
}

fn plain_host(fabric: &Fabric, last: u8) -> NetworkStack {
    let port = dpdk_sim::DpdkPort::new(
        fabric,
        dpdk_sim::PortConfig::basic(MacAddress::from_last_octet(last)),
    );
    NetworkStack::new(port, fabric.clock(), StackConfig::new(ip(last)))
}

fn tenant_host(fabric: &Fabric, last: u8, tenancy: TenancyCfg) -> NetworkStack {
    let port = dpdk_sim::DpdkPort::new(
        fabric,
        dpdk_sim::PortConfig::basic(MacAddress::from_last_octet(last)),
    );
    let mut cfg = StackConfig::new(ip(last));
    cfg.tenancy = Some(tenancy);
    NetworkStack::new(port, fabric.clock(), cfg)
}

/// Runs the world until `until` returns true or the simulation wedges.
fn settle(fabric: &Fabric, stacks: &[&NetworkStack], mut until: impl FnMut() -> bool) {
    for _ in 0..400_000 {
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
            None => panic!("simulation went quiescent before the condition held"),
        }
    }
    panic!("simulation did not settle");
}

/// Resolves ARP in both directions over a throwaway host-owned UDP port.
fn warm_arp(fabric: &Fabric, a: &NetworkStack, b: &NetworkStack) {
    a.udp_bind(9901).unwrap();
    b.udp_bind(9901).unwrap();
    let to_b = SocketAddr::new(b.local_ip(), 9901);
    let to_a = SocketAddr::new(a.local_ip(), 9901);
    a.udp_sendto(9901, to_b, DemiBuffer::from_slice(b"warm"))
        .unwrap();
    b.udp_sendto(9901, to_a, DemiBuffer::from_slice(b"warm"))
        .unwrap();
    settle(fabric, &[a, b], || {
        a.udp_pending(9901) > 0 && b.udp_pending(9901) > 0
    });
    while a.udp_recv_from(9901).is_some() {}
    while b.udp_recv_from(9901).is_some() {}
}

fn tenant_payload(pool: &BufferPool, len: usize, fill: u8) -> DemiBuffer {
    let mut buf = pool.alloc_with_headroom(DEFAULT_HEADROOM, len);
    buf.try_mut().expect("fresh buffer is exclusive").fill(fill);
    buf
}

fn lane(stats: &[TenantLaneStats], t: TenantId) -> TenantLaneStats {
    stats
        .iter()
        .find(|s| s.tenant == t.0)
        .copied()
        .expect("tenant lane exists")
}

const VICTIM_PORT: u16 = 7100;
const HOSTILE_PORT: u16 = 7200;

/// One device shared by a victim echo session and a hostile sprayer. With
/// `isolated`, each tenant gets its own weighted DRR lane; without, both
/// squeeze through a single FIFO lane — the "no policy in the datapath"
/// contrast case — under the same per-pass byte budget.
struct EchoWorld {
    fabric: Fabric,
    a: NetworkStack,
    b: NetworkStack,
    victim: TenantId,
    hostile: TenantId,
    vpool: BufferPool,
    hpool: BufferPool,
}

impl EchoWorld {
    fn new(isolated: bool) -> Self {
        let fabric = Fabric::new(0xE20);
        let registry = Arc::new(TenantRegistry::new());
        let (victim, hostile) = if isolated {
            (
                registry.register(TenantSpec::named("victim", VICTIM_WEIGHT)),
                registry.register(TenantSpec::named("hostile", HOSTILE_WEIGHT)),
            )
        } else {
            // A single lane both tenants share: what the device looks
            // like when nobody polices it.
            let shared = registry.register(TenantSpec::named("shared", 1));
            (shared, shared)
        };
        registry.grant_port(victim, VICTIM_PORT);
        registry.grant_port(hostile, HOSTILE_PORT);
        let mut tenancy = TenancyCfg::new(Arc::clone(&registry));
        tenancy.tx_pass_bytes = Some(PASS_BYTES);
        let a = tenant_host(&fabric, 1, tenancy);
        let b = plain_host(&fabric, 2);
        warm_arp(&fabric, &a, &b);
        demi_tenant::scope(victim, || a.udp_bind(VICTIM_PORT).unwrap());
        demi_tenant::scope(hostile, || a.udp_bind(HOSTILE_PORT).unwrap());
        b.udp_bind(VICTIM_PORT).unwrap();
        let vpool = BufferPool::for_tenant(victim, None);
        let hpool = BufferPool::for_tenant(hostile, None);
        EchoWorld {
            fabric,
            a,
            b,
            victim,
            hostile,
            vpool,
            hpool,
        }
    }

    /// Keeps the hostile tenant's staging backlogged at `HOSTILE_BACKLOG`
    /// frames, sprayed at an unbound peer port: pure device pressure.
    fn top_up_hostile(&self) {
        let staged = lane(&self.a.tenant_stats(), self.hostile).staged_frames;
        for _ in staged..HOSTILE_BACKLOG as u64 {
            let _ = self.a.udp_sendto(
                HOSTILE_PORT,
                SocketAddr::new(ip(2), 9),
                tenant_payload(&self.hpool, PAYLOAD, 0xEE),
            );
        }
    }

    /// One victim request/response over the shared device; returns the
    /// virtual-time RTT in nanoseconds and checks the echoed bytes.
    ///
    /// The drive loop is paced to the line rate — one poll pass per the
    /// time the 40 Gbps link needs to serialize one pass budget — so the
    /// device queue models a steadily-driven NIC. An unpaced spin would
    /// push passes onto the wire faster than virtual time drains them
    /// and every measurement would collapse into line-queueing noise.
    fn echo_rtt(&self, flood: bool) -> u64 {
        if flood {
            self.top_up_hostile();
        }
        let t0 = self.fabric.clock().now().as_nanos();
        self.a
            .udp_sendto(
                VICTIM_PORT,
                SocketAddr::new(ip(2), VICTIM_PORT),
                tenant_payload(&self.vpool, PAYLOAD, 0x5A),
            )
            .unwrap();
        for _ in 0..100_000 {
            self.a.poll();
            self.b.poll();
            let mut echoed = false;
            while let Some((from, buf)) = self.b.udp_recv_from(VICTIM_PORT) {
                self.b.udp_sendto(VICTIM_PORT, from, buf).unwrap();
                echoed = true;
            }
            if echoed {
                // Flush the coalesced echo right away: the response
                // should not wait a whole pass interval in staging.
                self.b.poll();
            }
            if self.a.udp_pending(VICTIM_PORT) > 0 {
                let (_, back) = self.a.udp_recv_from(VICTIM_PORT).unwrap();
                assert_eq!(back.len(), PAYLOAD);
                assert!(
                    back.as_slice().iter().all(|&x| x == 0x5A),
                    "the victim's payload came back intact"
                );
                return self.fabric.clock().now().as_nanos() - t0;
            }
            let next = self
                .fabric
                .clock()
                .now()
                .saturating_add(sim_fabric::SimTime::from_nanos(PASS_NS));
            self.fabric.advance_to(next);
        }
        panic!("echo never completed");
    }

    fn p99(&self, flood: bool) -> u64 {
        for _ in 0..WARMUP_OPS {
            self.echo_rtt(flood);
        }
        let mut hist = Histogram::new();
        for _ in 0..OPS {
            hist.record(self.echo_rtt(flood));
        }
        hist.p99()
    }
}

fn experiment() {
    let mut table = Table::new(
        "E20: multi-tenant isolation under an adversarial neighbour",
        &["metric", "victim", "hostile", "bound"],
    );

    // -- Phase 1: victim echo p99, hostile absent (the baseline). --
    let world = EchoWorld::new(true);
    let p99_base = world.p99(false);
    table.row(&[
        "echo p99, hostile idle".into(),
        format!("{p99_base}ns"),
        "-".into(),
        "baseline".into(),
    ]);

    // -- Phase 2: hostile floods TX at >= 10x its fair share. --
    let p99_flood = world.p99(true);
    let flood_bound = 2 * p99_base;
    assert!(
        p99_flood <= flood_bound,
        "a hostile flood behind its own lane must not degrade the victim's \
         p99 > 2x: {p99_base}ns -> {p99_flood}ns (bound {flood_bound}ns)"
    );
    table.row(&[
        "echo p99, hostile flooding".into(),
        format!("{p99_flood}ns"),
        format!("{HOSTILE_BACKLOG} staged"),
        format!("<=2x = {flood_bound}ns"),
    ]);

    // -- Phase 3: the same flood through a shared FIFO (contrast). --
    let fifo = EchoWorld::new(false);
    fifo.p99(false); // warm the lane bookkeeping before flooding
    let p99_fifo = fifo.p99(true);
    assert!(
        p99_fifo > flood_bound,
        "the contrast case must show the harm: a shared FIFO puts the \
         victim behind the flood ({p99_fifo}ns vs bound {flood_bound}ns)"
    );
    table.row(&[
        "echo p99, shared FIFO".into(),
        format!("{p99_fifo}ns"),
        "same flood".into(),
        "> bound (no isolation)".into(),
    ]);

    // -- Phase 4: weighted fair share under bilateral saturation. --
    const SATURATE_FRAMES: usize = 200;
    const PASSES: u64 = 20;
    for _ in 0..SATURATE_FRAMES {
        world
            .a
            .udp_sendto(
                VICTIM_PORT,
                SocketAddr::new(ip(2), VICTIM_PORT),
                tenant_payload(&world.vpool, PAYLOAD, 0x5A),
            )
            .unwrap();
    }
    world.top_up_hostile();
    let before = lane(&world.a.tenant_stats(), world.victim);
    for _ in 0..PASSES {
        world.a.poll();
        while world.fabric.advance_to_next_event() {}
        world.b.poll();
        world.top_up_hostile();
    }
    let after = lane(&world.a.tenant_stats(), world.victim);
    let victim_bytes = after.sent_bytes - before.sent_bytes;
    let offered = PASSES * PASS_BYTES;
    let fair = offered * VICTIM_WEIGHT as u64 / (VICTIM_WEIGHT + HOSTILE_WEIGHT) as u64;
    let share_pct = 100.0 * victim_bytes as f64 / fair as f64;
    assert!(
        victim_bytes * 10 >= fair * 9,
        "under saturation the victim must sustain >= 90% of its weighted \
         share: got {victim_bytes}B of {fair}B ({share_pct:.1}%)"
    );
    table.row(&[
        "fair-share throughput".into(),
        format!("{victim_bytes}B ({share_pct:.1}%)"),
        format!("{}B", offered - victim_bytes),
        format!(">=90% of {fair}B"),
    ]);

    // -- Phase 5: pool leak — exhaustion stays in the leaker's partition. --
    let tenant_before = counters::snapshot();
    let hpool = BufferPool::for_tenant(world.hostile, Some(POOL_BUDGET));
    let vpool = BufferPool::for_tenant(world.victim, Some(POOL_BUDGET));
    let mut leaked = Vec::new();
    let exhausted = loop {
        match hpool.try_alloc(LEAK_ALLOC) {
            Ok(buf) => leaked.push(buf),
            Err(e) => break e,
        }
    };
    assert_eq!(
        exhausted.tenant, world.hostile,
        "the typed error names the tenant that leaked itself dry"
    );
    // The victim's partition is a different budget entirely: it still
    // allocates, and can consume its own full budget, while the hostile
    // partition sits exhausted.
    let victim_allocs: Vec<_> = (0..(POOL_BUDGET as usize / LEAK_ALLOC) / 2)
        .map(|_| {
            vpool
                .try_alloc(LEAK_ALLOC)
                .expect("the victim pool is untouched by the neighbour's leak")
        })
        .collect();
    let exhaustions = counters::snapshot().delta(&tenant_before).pool_exhaustions;
    assert!(exhaustions >= 1, "exhaustion is a counted isolation event");
    drop(victim_allocs);
    let leaked_count = leaked.len();
    drop(leaked);
    hpool
        .try_alloc(LEAK_ALLOC)
        .expect("freeing the leak makes the partition allocate again");
    table.row(&[
        "pool leak containment".into(),
        "allocates".into(),
        format!("exhausted after {leaked_count}"),
        "victim unaffected".into(),
    ]);

    // -- Phase 6: SYN spray fills only the hostile listener's partition. --
    let fabric = Fabric::new(0xE21);
    let registry = Arc::new(TenantRegistry::new());
    let victim = registry.register(TenantSpec::named("victim", 1));
    let hostile = registry.register(TenantSpec::named("hostile", 1));
    registry.grant_port(victim, 80);
    registry.grant_port(hostile, 81);
    let a = tenant_host(&fabric, 1, TenancyCfg::new(Arc::clone(&registry)));
    let b = tenant_host(&fabric, 2, TenancyCfg::new(Arc::clone(&registry)));
    let lid = demi_tenant::scope(victim, || b.tcp_listen(80, 16).unwrap());
    demi_tenant::scope(hostile, || b.tcp_listen(81, SYN_BACKLOG).unwrap());

    // Victim state established before the spray: two closed connections
    // parked in TIME_WAIT plus one live connection.
    let to_victim = SocketAddr::new(ip(2), 80);
    let closed: Vec<_> = demi_tenant::scope(victim, || {
        (0..2).map(|_| a.tcp_connect(to_victim).unwrap()).collect()
    });
    let vc = demi_tenant::scope(victim, || a.tcp_connect(to_victim).unwrap());
    let mut accepted = Vec::new();
    settle(&fabric, &[&a, &b], || {
        while let Ok(Some(s)) = b.tcp_accept(lid) {
            accepted.push(s);
        }
        accepted.len() == 3
            && closed
                .iter()
                .chain(std::iter::once(&vc))
                .all(|&c| a.tcp_state(c) == Ok(State::Established))
    });
    // Full close walk on two of them: client FIN, server sees EOF and
    // closes back, client takes the TIME_WAIT records.
    for &c in &closed {
        a.tcp_close(c).unwrap();
    }
    settle(&fabric, &[&a, &b], || {
        accepted.iter().filter(|&&s| b.tcp_eof(s)).count() == 2
    });
    for &s in &accepted {
        if b.tcp_eof(s) {
            b.tcp_close(s).unwrap();
        }
    }
    settle(&fabric, &[&a, &b], || {
        closed
            .iter()
            .all(|&c| a.tcp_state(c) == Ok(State::TimeWait))
    });
    let tw_before = a.tcp_tw_count_for(victim.0);
    assert_eq!(tw_before, 2);

    // The spray: half-open SYNs at 4x the hostile listener's backlog. The
    // sprayer stops polling after emitting them so no handshake completes.
    let conn_before = counters::snapshot();
    let _sprayed: Vec<_> = demi_tenant::scope(hostile, || {
        (0..SYN_FLOOD)
            .map(|_| a.tcp_connect(SocketAddr::new(ip(2), 81)).unwrap())
            .collect()
    });
    for _ in 0..8 {
        a.poll();
    }
    for _ in 0..256 {
        b.poll();
        if !fabric.advance_to_next_event() {
            break;
        }
    }
    let syns_evicted = counters::snapshot().delta(&conn_before).syns_evicted;
    assert_eq!(
        b.tcp_syn_backlog_used(81),
        SYN_BACKLOG,
        "the hostile listener's fixed SYN table is full"
    );
    assert_eq!(
        b.tcp_syn_backlog_used(80),
        0,
        "the victim listener's SYN partition is untouched by the spray"
    );
    assert!(
        syns_evicted as usize >= SYN_FLOOD - SYN_BACKLOG,
        "overflow SYNs evict oldest-first from the hostile table"
    );
    assert_eq!(
        a.tcp_tw_count_for(victim.0),
        tw_before,
        "the victim's TIME_WAIT partition rode out the spray"
    );
    assert_eq!(
        a.tcp_state(vc),
        Ok(State::Established),
        "the victim's live connection rode out the spray"
    );
    table.row(&[
        "SYN spray containment".into(),
        format!("syn 0, tw {tw_before}"),
        format!("syn {SYN_BACKLOG}/{SYN_BACKLOG}, {syns_evicted} evicted"),
        "victim partitions untouched".into(),
    ]);

    // -- Phase 7: the hostile tenant never observes a victim byte. --
    let denial_before = counters::snapshot();
    let mut secret = tenant_payload(&world.vpool, PAYLOAD, 0x5A);
    let mut observed = 0u32;
    demi_tenant::scope(world.hostile, || {
        observed += secret.try_slice(0, PAYLOAD).is_ok() as u32;
        observed += secret.try_clone().is_ok() as u32;
        observed += secret.try_mut().is_some() as u32;
        observed += secret.prepend(1).is_ok() as u32;
    });
    let denials = counters::snapshot()
        .delta(&denial_before)
        .cross_tenant_denials;
    assert_eq!(observed, 0, "zero cross-tenant buffer views succeeded");
    assert!(denials >= 4, "every attempt was a counted, typed denial");
    assert!(secret.as_slice().iter().all(|&x| x == 0x5A));
    table.row(&[
        "cross-tenant views".into(),
        "bytes intact".into(),
        format!("0 of 4 ({denials} denied)"),
        "zero views".into(),
    ]);

    table.print();

    let json = format!(
        "{{\n  \"experiment\": \"e20_tenant_isolation\",\n  \"ops\": {OPS},\n  \
         \"p99_ns_base\": {p99_base},\n  \"p99_ns_drr_flood\": {p99_flood},\n  \
         \"p99_ns_shared_fifo_flood\": {p99_fifo},\n  \
         \"victim_share_pct\": {share_pct:.1},\n  \
         \"hostile_leaked_bufs\": {leaked_count},\n  \
         \"pool_exhaustions\": {exhaustions},\n  \
         \"syn_backlog_hostile\": {SYN_BACKLOG},\n  \"syn_backlog_victim\": 0,\n  \
         \"syns_evicted\": {syns_evicted},\n  \
         \"victim_tw_records\": {tw_before},\n  \
         \"cross_tenant_views\": 0,\n  \"cross_tenant_denials\": {denials}\n}}\n"
    );
    std::fs::create_dir_all("target").ok();
    std::fs::write("target/e20_tenant_isolation.json", &json).expect("write artifact");
    println!(
        "paper check: victim p99 {p99_base}ns -> {p99_flood}ns under a 10x+ hostile \
         flood (shared FIFO: {p99_fifo}ns); victim share {share_pct:.1}% of fair; \
         leak contained after {leaked_count} buffers; 0 cross-tenant views\n\
         artifact: target/e20_tenant_isolation.json ({} bytes)\n",
        json.len()
    );
}

fn bench(c: &mut Criterion) {
    experiment();
    let mut group = c.benchmark_group("e20_tenant_isolation");
    group.sample_size(10);
    group.bench_function("victim_echo_under_flood", |b| {
        let world = EchoWorld::new(true);
        world.echo_rtt(true);
        b.iter(|| world.echo_rtt(criterion::black_box(true)))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
