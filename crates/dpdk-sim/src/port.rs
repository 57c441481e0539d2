//! The burst-oriented port: descriptor rings over a fabric endpoint.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;

use demi_telemetry::counters::{
    self, RX_QUEUE_DROPPED, RX_QUEUE_ENQUEUED, TX_BURST_CALLS, TX_FRAMES_PER_BURST,
};
use sim_fabric::{DeviceCaps, Doorbell, Endpoint, Fabric, MacAddress};

use crate::mbuf::Mbuf;
use crate::mempool::Mempool;
use crate::smartnic::{
    NicProgram, ProgramSlot, RxDecision, SmartNic, SmartNicError, SmartNicStats,
};

/// Port construction parameters.
#[derive(Debug, Clone)]
pub struct PortConfig {
    /// Hardware address on the fabric.
    pub mac: MacAddress,
    /// Number of RX queues (RSS spreads across them).
    pub num_rx_queues: u16,
    /// Descriptor-ring depth per RX queue; arrivals beyond this are
    /// tail-dropped, like a real NIC whose ring the host failed to drain.
    pub rx_ring_size: usize,
    /// SmartNIC program slots; 0 makes this a plain DPDK device.
    pub smartnic_slots: usize,
}

impl PortConfig {
    /// A single-queue plain port — the common test configuration.
    pub fn basic(mac: MacAddress) -> Self {
        PortConfig {
            mac,
            num_rx_queues: 1,
            rx_ring_size: 1024,
            smartnic_slots: 0,
        }
    }

    /// A programmable port with `slots` program slots.
    pub fn smartnic(mac: MacAddress, slots: usize) -> Self {
        PortConfig {
            smartnic_slots: slots,
            ..Self::basic(mac)
        }
    }
}

/// Per-RX-queue counters — the device-side view of RSS steering. A
/// sharded host reads these to verify each shard's queue actually carries
/// its share of the load (E14).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortQueueStats {
    /// Frames currently waiting in the queue's descriptor ring.
    pub depth: usize,
    /// Frames ever accepted into this ring.
    pub enqueued: u64,
    /// Frames tail-dropped because this ring was full.
    pub dropped: u64,
}

/// Port counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortStats {
    /// `tx_burst` invocations — device handoffs (doorbell rings). The
    /// batching experiment's headline ratio is `tx_frames / tx_burst_calls`.
    pub tx_burst_calls: u64,
    /// Frames handed to the fabric.
    pub tx_frames: u64,
    /// Payload bytes transmitted.
    pub tx_bytes: u64,
    /// Frames accepted into an RX ring.
    pub rx_frames: u64,
    /// Payload bytes received.
    pub rx_bytes: u64,
    /// Frames dropped because the target RX ring was full.
    pub rx_ring_drops: u64,
    /// Frames the SmartNIC consumed device-side (offload absorb); these
    /// never count as `rx_frames` — no host crossing happened.
    pub device_absorbed_frames: u64,
    /// Frames the SmartNIC transmitted device-side (offload replies);
    /// these never count as `tx_frames` or `tx_burst_calls` — the host
    /// rang no doorbell.
    pub device_tx_frames: u64,
}

struct PortInner {
    endpoint: Endpoint,
    config: PortConfig,
    mempool: Mempool,
    rx_rings: Vec<VecDeque<Mbuf>>,
    /// Per-queue cross-thread ingress rings (see [`crate::mtq`]); `None`
    /// until [`DpdkPort::attach_rx_ingress`] is called for the queue.
    ingress: Vec<Option<demi_sched::spsc::Consumer<Vec<u8>>>>,
    queue_stats: Vec<PortQueueStats>,
    smartnic: SmartNic,
    stats: PortStats,
}

/// A simulated DPDK port.
///
/// The API is deliberately burst-shaped, mirroring `rte_eth_rx_burst` /
/// `rte_eth_tx_burst`: the host *polls*; the device never interrupts.
/// Frames carry standard Ethernet headers — the port itself does not parse
/// beyond the destination MAC (needed to address the fabric), underlining
/// that everything above L2 is the library OS's problem.
#[derive(Clone)]
pub struct DpdkPort {
    inner: Rc<RefCell<PortInner>>,
}

impl DpdkPort {
    /// Creates a port attached to `fabric`.
    ///
    /// # Panics
    ///
    /// Panics if `num_rx_queues` is 0 or the MAC is already registered.
    pub fn new(fabric: &Fabric, config: PortConfig) -> Self {
        assert!(
            config.num_rx_queues > 0,
            "a port needs at least one RX queue"
        );
        let endpoint = fabric.register_endpoint(config.mac);
        let mempool = Mempool::new();
        mempool.warm_up();
        DpdkPort {
            inner: Rc::new(RefCell::new(PortInner {
                endpoint,
                rx_rings: (0..config.num_rx_queues).map(|_| VecDeque::new()).collect(),
                ingress: (0..config.num_rx_queues).map(|_| None).collect(),
                queue_stats: vec![PortQueueStats::default(); config.num_rx_queues as usize],
                smartnic: SmartNic::new(config.smartnic_slots),
                config,
                mempool,
                stats: PortStats::default(),
            })),
        }
    }

    /// The port's hardware address.
    pub fn mac(&self) -> MacAddress {
        self.inner.borrow().config.mac
    }

    /// The port's packet-buffer pool.
    pub fn mempool(&self) -> Mempool {
        self.inner.borrow().mempool.clone()
    }

    /// Number of RX queues.
    pub fn num_rx_queues(&self) -> u16 {
        self.inner.borrow().config.num_rx_queues
    }

    /// This port's capability descriptor (Table 1 / experiment E7).
    pub fn capabilities(&self) -> DeviceCaps {
        if self.inner.borrow().config.smartnic_slots > 0 {
            crate::smartnic_capabilities()
        } else {
            crate::capabilities()
        }
    }

    /// Transmits up to all of `frames`; returns how many were accepted.
    ///
    /// Each frame must start with a 14-byte Ethernet header; the destination
    /// MAC (first 6 bytes) addresses the fabric. Short frames are rejected
    /// (not transmitted), mirroring hardware minimum-frame rules.
    pub fn tx_burst(&self, frames: &[Mbuf]) -> usize {
        let mut inner = self.inner.borrow_mut();
        inner.stats.tx_burst_calls += 1;
        counters::count(TX_BURST_CALLS);
        counters::count_at(TX_FRAMES_PER_BURST, counters::burst_bucket(frames.len()));
        // Attribute the doorbell to the op whose coroutine is being
        // polled (if any) — the device-handoff point of its span.
        if demi_telemetry::span::enabled() {
            demi_telemetry::span::note_current(
                demi_telemetry::span::SpanPoint::DeviceHandoff,
                demi_telemetry::now_ns(),
            );
        }
        let mut sent = 0;
        for mbuf in frames {
            let bytes = mbuf.as_slice();
            if bytes.len() < 14 {
                continue;
            }
            let dst = MacAddress::new([bytes[0], bytes[1], bytes[2], bytes[3], bytes[4], bytes[5]]);
            // Handle clone, not a byte copy: the fabric carries the very
            // storage the caller framed.
            inner.endpoint.transmit(dst, mbuf.data.clone());
            inner.stats.tx_frames += 1;
            inner.stats.tx_bytes += bytes.len() as u64;
            sent += 1;
        }
        sent
    }

    /// Receives up to `max` frames from RX queue `queue`.
    ///
    /// Polling-style: drains newly delivered fabric frames through the
    /// SmartNIC programs and RSS into the descriptor rings, then pops from
    /// the requested ring. Never blocks; an empty return means "nothing
    /// delivered yet" and the caller (a libOS poll coroutine) yields.
    ///
    /// # Panics
    ///
    /// Panics if `queue` is out of range.
    pub fn rx_burst(&self, queue: u16, max: usize) -> Vec<Mbuf> {
        let mut inner = self.inner.borrow_mut();
        assert!(
            queue < inner.config.num_rx_queues,
            "rx queue {queue} out of range"
        );
        inner.pump();
        let ring = &mut inner.rx_rings[queue as usize];
        let take = ring.len().min(max);
        ring.drain(..take).collect()
    }

    /// Frames waiting in RX queue `queue` (after pumping arrivals).
    pub fn rx_pending(&self, queue: u16) -> usize {
        let mut inner = self.inner.borrow_mut();
        inner.pump();
        inner.rx_rings[queue as usize].len()
    }

    /// Frames already in RX queue `queue`'s descriptor ring, without
    /// pumping arrivals from the fabric.
    pub fn rx_ring_len(&self, queue: u16) -> usize {
        self.inner.borrow().rx_rings[queue as usize].len()
    }

    /// Rings `bell` whenever the fabric delivers a frame to this port and
    /// when a cross-thread ingress ring is attached (now, if one already
    /// is): injected frames ring nothing, so the poller must keep itself
    /// rung from then on ([`DpdkPort::has_rx_ingress`]).
    pub fn ring_on_rx(&self, bell: Doorbell) {
        if self.has_rx_ingress() {
            bell.ring();
        }
        self.inner.borrow().endpoint.ring_on_delivery(bell);
    }

    /// Whether any RX queue has a cross-thread ingress ring attached
    /// ([`DpdkPort::attach_rx_ingress`]): frames can then arrive without
    /// a fabric delivery to announce them.
    pub fn has_rx_ingress(&self) -> bool {
        self.inner.borrow().ingress.iter().any(Option::is_some)
    }

    /// Attaches a cross-thread ingress ring to RX queue `queue` and
    /// returns its `Send` injector half. Frames injected from any thread
    /// surface in that queue's descriptor ring at the next pump, subject
    /// to the normal tail-drop rule — the queue-granular thread-safety
    /// boundary of the device.
    ///
    /// # Panics
    ///
    /// Panics if `queue` is out of range or already has an ingress ring
    /// (the ring is single-producer).
    pub fn attach_rx_ingress(&self, queue: u16, capacity: usize) -> crate::mtq::FrameInjector {
        let mut inner = self.inner.borrow_mut();
        assert!(
            queue < inner.config.num_rx_queues,
            "rx queue {queue} out of range"
        );
        assert!(
            inner.ingress[queue as usize].is_none(),
            "rx queue {queue} already has an ingress ring"
        );
        let (injector, rx) = crate::mtq::channel(queue, capacity);
        inner.ingress[queue as usize] = Some(rx);
        inner.endpoint.ring_doorbells();
        injector
    }

    /// Installs a SmartNIC program.
    pub fn install_program(&self, program: NicProgram) -> Result<ProgramSlot, SmartNicError> {
        self.inner.borrow_mut().smartnic.install(program)
    }

    /// Removes a SmartNIC program.
    pub fn uninstall_program(&self, slot: ProgramSlot) {
        self.inner.borrow_mut().smartnic.uninstall(slot);
    }

    /// Port counters.
    pub fn stats(&self) -> PortStats {
        self.inner.borrow().stats
    }

    /// Per-RX-queue counters (after pumping arrivals, so `depth` reflects
    /// everything the fabric has delivered).
    pub fn queue_stats(&self) -> Vec<PortQueueStats> {
        let mut inner = self.inner.borrow_mut();
        inner.pump();
        let inner = &*inner;
        inner
            .queue_stats
            .iter()
            .zip(&inner.rx_rings)
            .map(|(qs, ring)| PortQueueStats {
                depth: ring.len(),
                ..*qs
            })
            .collect()
    }

    /// Device-side program-execution counters.
    pub fn smartnic_stats(&self) -> SmartNicStats {
        self.inner.borrow().smartnic.stats()
    }

    /// Per-program-slot execution counters (E17 attribution).
    pub fn smartnic_slot_stats(&self) -> Vec<crate::smartnic::SlotStats> {
        self.inner.borrow().smartnic.slot_stats().to_vec()
    }
}

impl PortInner {
    /// Moves delivered fabric frames into the RX rings.
    fn pump(&mut self) {
        while let Some(frame) = self.endpoint.receive() {
            // Zero-copy RX: the mbuf wraps the very storage the sender
            // transmitted; SmartNIC Map programs rewrite it in place.
            let mut data = frame.payload;
            let decision = self.smartnic.process_rx(&mut data, frame.delivered_at);
            self.flush_device_tx();
            let steered = match decision {
                RxDecision::Drop => continue,
                RxDecision::Absorb => {
                    self.stats.device_absorbed_frames += 1;
                    continue;
                }
                RxDecision::Accept { queue } => queue,
            };
            // Toeplitz-style RSS: symmetric 4-tuple hash picks the queue
            // unless a SmartNIC steering program already chose one.
            let hash = crate::rss::hash_frame(&data);
            let queue = steered.unwrap_or((hash % self.config.num_rx_queues as u32) as u16);
            let queue = queue % self.config.num_rx_queues;
            let ring = &mut self.rx_rings[queue as usize];
            if ring.len() >= self.config.rx_ring_size {
                self.stats.rx_ring_drops += 1;
                self.queue_stats[queue as usize].dropped += 1;
                counters::count_at(RX_QUEUE_DROPPED, queue as usize);
                continue;
            }
            self.stats.rx_frames += 1;
            self.stats.rx_bytes += data.len() as u64;
            self.queue_stats[queue as usize].enqueued += 1;
            counters::count_at(RX_QUEUE_ENQUEUED, queue as usize);
            let mut mbuf = Mbuf::from_data(data);
            mbuf.rx_timestamp = frame.delivered_at;
            mbuf.rss_hash = hash;
            mbuf.queue = queue;
            ring.push_back(mbuf);
        }
        self.drain_ingress();
    }

    /// Transmits frames the SmartNIC generated device-side (offload
    /// replies). These leave through the fabric like any frame but are
    /// accounted separately: no host doorbell rang, no host cycle was
    /// spent — only the device cycles the program already charged.
    fn flush_device_tx(&mut self) {
        for reply in self.smartnic.take_tx() {
            let bytes = reply.as_slice();
            if bytes.len() < 14 {
                continue;
            }
            let dst = MacAddress::new([bytes[0], bytes[1], bytes[2], bytes[3], bytes[4], bytes[5]]);
            self.stats.device_tx_frames += 1;
            self.endpoint.transmit(dst, reply);
        }
    }

    /// Moves cross-thread injected frames into their queues' descriptor
    /// rings (see [`DpdkPort::attach_rx_ingress`]). The injector chose
    /// the queue, so frames skip RSS and SmartNIC processing; the
    /// tail-drop rule still applies.
    fn drain_ingress(&mut self) {
        for q in 0..self.ingress.len() {
            let Some(rx) = self.ingress[q].as_mut() else {
                continue;
            };
            while let Some(bytes) = rx.try_pop() {
                let ring = &mut self.rx_rings[q];
                if ring.len() >= self.config.rx_ring_size {
                    self.stats.rx_ring_drops += 1;
                    self.queue_stats[q].dropped += 1;
                    counters::count_at(RX_QUEUE_DROPPED, q);
                    continue;
                }
                let hash = crate::rss::hash_frame(&bytes);
                let data = demi_memory::DemiBuffer::from(bytes);
                self.stats.rx_frames += 1;
                self.stats.rx_bytes += data.len() as u64;
                self.queue_stats[q].enqueued += 1;
                counters::count_at(RX_QUEUE_ENQUEUED, q);
                let mut mbuf = Mbuf::from_data(data);
                mbuf.rss_hash = hash;
                mbuf.queue = q as u16;
                ring.push_back(mbuf);
            }
        }
    }
}

impl fmt::Debug for DpdkPort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DpdkPort({})", self.mac())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_fabric::LinkConfig;
    use std::rc::Rc as StdRc;

    /// Builds an Ethernet-framed payload: dst(6) src(6) ethertype(2) body.
    fn eth_frame(dst: MacAddress, src: MacAddress, body: &[u8]) -> Vec<u8> {
        let mut f = Vec::with_capacity(14 + body.len());
        f.extend_from_slice(&dst.octets());
        f.extend_from_slice(&src.octets());
        f.extend_from_slice(&[0x08, 0x00]);
        f.extend_from_slice(body);
        f
    }

    fn pair(fabric: &Fabric) -> (DpdkPort, DpdkPort) {
        fabric.set_default_link(LinkConfig::ideal());
        let a = DpdkPort::new(fabric, PortConfig::basic(MacAddress::from_last_octet(1)));
        let b = DpdkPort::new(fabric, PortConfig::basic(MacAddress::from_last_octet(2)));
        (a, b)
    }

    #[test]
    fn tx_rx_burst_round_trip() {
        let fabric = Fabric::new(1);
        let (a, b) = pair(&fabric);
        let frame = eth_frame(b.mac(), a.mac(), b"payload");
        let mbuf = a.mempool().alloc_from(&frame);
        assert_eq!(a.tx_burst(&[mbuf]), 1);
        fabric.deliver_due();
        let got = b.rx_burst(0, 32);
        assert_eq!(got.len(), 1);
        assert_eq!(&got[0].as_slice()[14..], b"payload");
        assert_eq!(b.stats().rx_frames, 1);
        assert_eq!(a.stats().tx_frames, 1);
    }

    #[test]
    fn runt_frames_are_rejected_at_tx() {
        let fabric = Fabric::new(1);
        let (a, _b) = pair(&fabric);
        let runt = a.mempool().alloc_from(&[0u8; 13]);
        assert_eq!(a.tx_burst(&[runt]), 0);
        assert_eq!(a.stats().tx_frames, 0);
    }

    #[test]
    fn rx_burst_respects_max() {
        let fabric = Fabric::new(1);
        let (a, b) = pair(&fabric);
        for i in 0..5u8 {
            let f = eth_frame(b.mac(), a.mac(), &[i]);
            a.tx_burst(&[a.mempool().alloc_from(&f)]);
        }
        fabric.deliver_due();
        assert_eq!(b.rx_burst(0, 3).len(), 3);
        assert_eq!(b.rx_burst(0, 3).len(), 2);
    }

    #[test]
    fn ring_overflow_tail_drops() {
        let fabric = Fabric::new(1);
        fabric.set_default_link(LinkConfig::ideal());
        let a = DpdkPort::new(&fabric, PortConfig::basic(MacAddress::from_last_octet(1)));
        let b = DpdkPort::new(
            &fabric,
            PortConfig {
                mac: MacAddress::from_last_octet(2),
                num_rx_queues: 1,
                rx_ring_size: 2,
                smartnic_slots: 0,
            },
        );
        for i in 0..4u8 {
            let f = eth_frame(b.mac(), a.mac(), &[i]);
            a.tx_burst(&[a.mempool().alloc_from(&f)]);
        }
        fabric.deliver_due();
        assert_eq!(b.rx_pending(0), 2);
        assert_eq!(b.stats().rx_ring_drops, 2);
    }

    /// A minimal IPv4/UDP frame: the sender's last MAC octet doubles as its
    /// IP last octet (10.0.0.n), and varying the ports varies the flow.
    fn udp_flow_frame(dst: MacAddress, src: MacAddress, src_port: u16, dst_port: u16) -> Vec<u8> {
        let mut f = Vec::new();
        f.extend_from_slice(&dst.octets());
        f.extend_from_slice(&src.octets());
        f.extend_from_slice(&[0x08, 0x00]);
        let mut ip = [0u8; 20];
        ip[0] = 0x45;
        ip[9] = 17;
        ip[12..16].copy_from_slice(&[10, 0, 0, src.octets()[5]]);
        ip[16..20].copy_from_slice(&[10, 0, 0, dst.octets()[5]]);
        f.extend_from_slice(&ip);
        f.extend_from_slice(&src_port.to_be_bytes());
        f.extend_from_slice(&dst_port.to_be_bytes());
        f.extend_from_slice(&[0u8; 8]);
        f
    }

    #[test]
    fn rss_spreads_flows_across_queues() {
        let fabric = Fabric::new(1);
        fabric.set_default_link(LinkConfig::ideal());
        let a = DpdkPort::new(&fabric, PortConfig::basic(MacAddress::from_last_octet(1)));
        let b = DpdkPort::new(
            &fabric,
            PortConfig {
                mac: MacAddress::from_last_octet(2),
                num_rx_queues: 4,
                rx_ring_size: 1024,
                smartnic_slots: 0,
            },
        );
        // 64 distinct flows (varying source ports).
        for i in 0..64u16 {
            let f = udp_flow_frame(b.mac(), a.mac(), 32_768 + i, 80);
            a.tx_burst(&[a.mempool().alloc_from(&f)]);
        }
        fabric.deliver_due();
        let counts: Vec<usize> = (0..4).map(|q| b.rx_pending(q)).collect();
        assert_eq!(counts.iter().sum::<usize>(), 64);
        let nonempty = counts.iter().filter(|&&c| c > 0).count();
        assert!(nonempty >= 2, "RSS should spread flows: {counts:?}");
        // One flow's frames all land on one queue, both directions.
        let q_fwd = crate::rss::queue_for_frame(&udp_flow_frame(b.mac(), a.mac(), 32_768, 80), 4);
        let q_rev = crate::rss::queue_for_frame(&udp_flow_frame(a.mac(), b.mac(), 80, 32_768), 4);
        assert_eq!(q_fwd, q_rev, "RSS must be symmetric");
    }

    #[test]
    fn per_queue_stats_track_enqueues_and_drops() {
        let fabric = Fabric::new(1);
        fabric.set_default_link(LinkConfig::ideal());
        let a = DpdkPort::new(&fabric, PortConfig::basic(MacAddress::from_last_octet(1)));
        let b = DpdkPort::new(
            &fabric,
            PortConfig {
                mac: MacAddress::from_last_octet(2),
                num_rx_queues: 2,
                rx_ring_size: 4,
                smartnic_slots: 0,
            },
        );
        // One flow: every frame targets the same queue; 6 arrivals into a
        // 4-deep ring drop the last 2.
        for _ in 0..6 {
            let f = udp_flow_frame(b.mac(), a.mac(), 40_000, 80);
            a.tx_burst(&[a.mempool().alloc_from(&f)]);
        }
        fabric.deliver_due();
        let qs = b.queue_stats();
        let q = crate::rss::queue_for_frame(&udp_flow_frame(b.mac(), a.mac(), 40_000, 80), 2);
        assert_eq!(qs[q as usize].enqueued, 4);
        assert_eq!(qs[q as usize].dropped, 2);
        assert_eq!(qs[q as usize].depth, 4);
        let other = 1 - q as usize;
        assert_eq!(qs[other], PortQueueStats::default());
    }

    #[test]
    fn steering_program_overrides_rss() {
        let fabric = Fabric::new(1);
        fabric.set_default_link(LinkConfig::ideal());
        let a = DpdkPort::new(&fabric, PortConfig::basic(MacAddress::from_last_octet(1)));
        let b = DpdkPort::new(
            &fabric,
            PortConfig {
                mac: MacAddress::from_last_octet(2),
                num_rx_queues: 4,
                rx_ring_size: 1024,
                smartnic_slots: 2,
            },
        );
        b.install_program(NicProgram::Steer {
            selector: StdRc::new(|_f: &[u8]| Some(3)),
            cycles_per_frame: 1,
        })
        .unwrap();
        for i in 0..8u8 {
            let f = eth_frame(b.mac(), a.mac(), &[i]);
            a.tx_burst(&[a.mempool().alloc_from(&f)]);
        }
        fabric.deliver_due();
        assert_eq!(b.rx_pending(3), 8);
        assert_eq!(b.rx_pending(0) + b.rx_pending(1) + b.rx_pending(2), 0);
        assert_eq!(b.smartnic_stats().frames_processed, 8);
    }

    #[test]
    fn filter_program_drops_on_device() {
        let fabric = Fabric::new(1);
        fabric.set_default_link(LinkConfig::ideal());
        let a = DpdkPort::new(&fabric, PortConfig::basic(MacAddress::from_last_octet(1)));
        let b = DpdkPort::new(
            &fabric,
            PortConfig::smartnic(MacAddress::from_last_octet(2), 2),
        );
        // Keep only frames whose first body byte is even.
        b.install_program(NicProgram::Filter {
            predicate: StdRc::new(|f: &[u8]| f.get(14).is_some_and(|b| b % 2 == 0)),
            cycles_per_frame: 7,
        })
        .unwrap();
        for i in 0..10u8 {
            let f = eth_frame(b.mac(), a.mac(), &[i]);
            a.tx_burst(&[a.mempool().alloc_from(&f)]);
        }
        fabric.deliver_due();
        assert_eq!(b.rx_pending(0), 5);
        let s = b.smartnic_stats();
        assert_eq!(s.frames_filtered, 5);
        assert_eq!(s.device_cycles, 70);
        assert_eq!(b.stats().rx_frames, 5, "filtered frames never hit the ring");
    }

    #[test]
    fn plain_port_reports_bypass_only_caps() {
        let fabric = Fabric::new(1);
        let (a, _b) = pair(&fabric);
        assert!(!a.capabilities().program_offload);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rx_burst_on_bad_queue_panics() {
        let fabric = Fabric::new(1);
        let (a, _b) = pair(&fabric);
        let _ = a.rx_burst(5, 1);
    }

    #[test]
    fn ingress_injects_frames_from_another_thread() {
        let fabric = Fabric::new(1);
        fabric.set_default_link(LinkConfig::ideal());
        let b = DpdkPort::new(
            &fabric,
            PortConfig {
                mac: MacAddress::from_last_octet(2),
                num_rx_queues: 2,
                rx_ring_size: 1024,
                smartnic_slots: 0,
            },
        );
        let mut inj = b.attach_rx_ingress(1, 64);
        assert_eq!(inj.queue(), 1);
        let frame = eth_frame(b.mac(), MacAddress::from_last_octet(9), b"offworld");
        let t = std::thread::spawn(move || {
            for _ in 0..16 {
                assert!(inj.inject(frame.clone()), "ring sized for the burst");
            }
        });
        t.join().unwrap();
        // Injected frames surface only on the attached queue, with the
        // frame bytes intact, and count like normal arrivals.
        assert_eq!(b.rx_pending(0), 0);
        let got = b.rx_burst(1, 32);
        assert_eq!(got.len(), 16);
        assert_eq!(&got[0].as_slice()[14..], b"offworld");
        assert_eq!(got[0].queue, 1);
        assert_eq!(b.stats().rx_frames, 16);
        assert_eq!(b.queue_stats()[1].enqueued, 16);
    }

    #[test]
    fn attaching_an_ingress_ring_rings_the_rx_bells() {
        let fabric = Fabric::new(1);
        let port = DpdkPort::new(&fabric, PortConfig::basic(MacAddress::from_last_octet(2)));
        let early = Doorbell::new();
        port.ring_on_rx(early.clone());
        assert!(!early.is_rung());
        let _inj = port.attach_rx_ingress(0, 8);
        assert!(early.is_rung(), "a bell registered before the attach");
        let late = Doorbell::new();
        port.ring_on_rx(late.clone());
        assert!(late.is_rung(), "a bell registered after the attach");
        assert!(port.has_rx_ingress());
    }

    #[test]
    fn ingress_overflow_tail_drops() {
        let fabric = Fabric::new(1);
        let b = DpdkPort::new(
            &fabric,
            PortConfig {
                mac: MacAddress::from_last_octet(2),
                num_rx_queues: 1,
                rx_ring_size: 2,
                smartnic_slots: 0,
            },
        );
        let mut inj = b.attach_rx_ingress(0, 64);
        for i in 0..5u8 {
            let f = eth_frame(b.mac(), MacAddress::from_last_octet(9), &[i]);
            assert!(inj.inject(f));
        }
        // 5 injected into a 2-deep descriptor ring: 2 kept, 3 tail-dropped.
        assert_eq!(b.rx_pending(0), 2);
        assert_eq!(b.stats().rx_ring_drops, 3);
    }

    #[test]
    #[should_panic(expected = "already has an ingress ring")]
    fn second_ingress_on_same_queue_panics() {
        let fabric = Fabric::new(1);
        let (a, _b) = pair(&fabric);
        let _first = a.attach_rx_ingress(0, 8);
        let _second = a.attach_rx_ingress(0, 8);
    }
}
