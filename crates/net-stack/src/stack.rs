//! The assembled stack: Ethernet/ARP/IPv4/ICMP/UDP/TCP over a DPDK port.
//!
//! [`NetworkStack`] is what the `catnip` library OS instantiates per device.
//! It is poll-driven and non-blocking end to end: the runtime calls
//! [`NetworkStack::poll_shard`] for a shard when that shard's
//! [`Doorbell`] rang, then checks handle-based socket APIs for
//! completions. Received payloads are delivered as zero-copy
//! [`DemiBuffer`] views into the device's mbufs.
//!
//! # Doorbells and deadlines
//!
//! Each shard owns a doorbell, rung wherever work is queued for its next
//! poll pass: the fabric rings it on delivery into the port's mailbox,
//! the shard itself on a TX coalescing-ring push (where every facade
//! call's TCP segments land) or a tenant-lane stage, a facade call that
//! may have made an offloaded flow armable, a cross-shard ring send, an
//! offload sync event left for another shard, and a pass that ends with
//! backlog (RX budget exhausted, DRR leftover) or with a cross-thread
//! input attached.
//!
//! Each shard also publishes its earliest protocol deadline (ARP retry,
//! TCP timers, token-bucket wakeups) through the [`DeadlineHandle`] given
//! to [`NetworkStack::publish_deadlines`], after every pass and every
//! facade mutation, so the runtime never asks for it.
//!
//! # Sharding
//!
//! When the device has N RX queues (and [`StackConfig::sharded`] is set,
//! the default), the stack splits into N [`Shard`]s, one per queue. Each
//! shard owns a *complete* protocol instance — its own TCP peer and demux
//! table, UDP peer, ARP view, and TX coalescing ring — and polls only its
//! own queue. The shard a flow lives on is decided by the same symmetric
//! RSS hash the device uses ([`dpdk_sim::rss`]), so a connection's frames
//! arrive on the queue of the shard that owns its control block *by
//! construction*: no cross-shard locking, no protocol state shared between
//! shards (a replicated UDP port or listener shares only its readiness
//! signal, so one waiter hears every shard), and the steering-mismatch
//! counter stays zero unless a SmartNIC program deliberately overrides
//! RSS. Mismatched frames are handed off to the owning shard as
//! [`ShardMsg::Frame`]s over bounded lock-free SPSC rings
//! ([`crate::rings`]), drained at the start of the owning shard's next
//! poll pass; ARP bindings travel the same way. A full ring or handoff
//! queue drops (counted: `handoff_backpressure` / `handoff_dropped`)
//! instead of growing — TCP retransmission recovers, memory does not.
//!
//! The same ring protocol crosses OS threads: under thread-per-shard
//! execution each shard world runs on its own core with a *global* shard
//! identity ([`NetworkStack::attach_external`]), forwarding frames whose
//! global RSS owner is another world and broadcasting ARP learns to every
//! peer world. TCP port ownership is host-wide either way, through the
//! shared lock-free [`PortAllocator`].
//!
//! With `sharded: false` a single shard owns *all* RX queues and drains
//! them round-robin — the pre-sharding behavior, kept as the A/B baseline
//! (and fixing the historical bug where only queue 0 was ever drained).

use std::cell::{RefCell, RefMut};
use std::collections::VecDeque;
use std::net::Ipv4Addr;
use std::ops::{Deref, DerefMut};
use std::rc::Rc;
use std::sync::Arc;

use demi_memory::{DemiBuffer, TenantId};
use demi_sched::Notify;
use demi_telemetry::counters::{
    self, CROSS_TENANT_DENIALS, HANDOFF_BACKPRESSURE, HANDOFF_DROPPED, QUOTA_DROPS,
    RATE_LIMITED_FRAMES, RX_BUDGET_EXHAUSTED, STEERING_MISMATCHES, TX_DEFICIT_ROUNDS,
};
use demi_tenant::{TenantRegistry, TokenBucket};
use dpdk_sim::{
    rss, DpdkPort, FlowKey, FlowShadow, Mbuf, NicProgram, OffloadEvent, OffloadService,
    OffloadStats, ProgramSlot, TcpOffload,
};
use sim_fabric::{DeadlineHandle, Doorbell, MacAddress, SimClock, SimTime};

use crate::fasthash::{FastHashMap, FastHashSet};
use crate::ports::PortAllocator;
use crate::rings::{self, RingStats, ShardMsg, ShardRings};

use crate::arp::{ArpAction, ArpCache, ArpOp, ArpPacket, ARP_LEN};
use crate::eth::{EthHeader, EtherType, ETH_HEADER_LEN};
use crate::icmp::IcmpEcho;
use crate::ipv4::{IpProtocol, Ipv4Header, IPV4_HEADER_LEN};
use crate::tcp::peer::TcpMemStats;
use crate::tcp::{
    ConnId, ListenerId, State, TcpConfig, TcpPeer, TcpSegmentOut, TcpStats, TCP_MAX_HEADER_LEN,
};
use crate::types::{NetError, SocketAddr};
use crate::udp::{UdpHeader, UdpPeer, UdpStats, UDP_HEADER_LEN};

/// Frames pulled from the device per `rx_burst` call (ring-drain chunk;
/// the per-poll cap is [`StackConfig::rx_budget`]).
const RX_BURST: usize = 64;

/// Worst-case bytes of headers the stack prepends below an application
/// payload: Ethernet + IPv4 + the largest TCP header it emits. A payload
/// buffer carrying this much headroom travels the whole TX path with zero
/// copies and zero further allocations.
pub const MAX_HEADER_LEN: usize = ETH_HEADER_LEN + IPV4_HEADER_LEN + TCP_MAX_HEADER_LEN;

// Pool buffers reserve `DEFAULT_HEADROOM` by default; the stack's headers
// must fit in it or the "default allocation ⇒ zero-copy TX" promise breaks.
const _: () = assert!(MAX_HEADER_LEN <= demi_memory::DEFAULT_HEADROOM);

/// Multi-tenant device-sharing policy for one stack (see DESIGN.md,
/// "Multi-tenancy"). Absent (`StackConfig::tenancy = None`, the default)
/// the stack behaves exactly as before: one implicit HOST tenant, no
/// policing, no scheduling — the zero-cost single-tenant path.
#[derive(Clone)]
pub struct TenancyCfg {
    /// The shared tenant table: specs (weights, lane bounds, rate
    /// limits, TIME_WAIT quotas) and the port-ownership map. Tenants
    /// must be registered *before* the stack is built — each shard
    /// snapshots the table into its TX lanes and RX slices.
    pub registry: Arc<TenantRegistry>,
    /// Optional per-poll-pass TX byte budget shared by every tenant
    /// lane on a shard. `None` (the default) leaves the link unpaced:
    /// the deficit round-robin then only *orders* frames. With a cap,
    /// saturation becomes observable and DRR's proportional shares are
    /// exact per pass — the configuration the E20 bench measures.
    pub tx_pass_bytes: Option<u64>,
}

impl TenancyCfg {
    /// Policy over `registry` with an unpaced link.
    pub fn new(registry: Arc<TenantRegistry>) -> Self {
        TenancyCfg {
            registry,
            tx_pass_bytes: None,
        }
    }
}

impl std::fmt::Debug for TenancyCfg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TenancyCfg")
            .field("registry", &self.registry)
            .field("tx_pass_bytes", &self.tx_pass_bytes)
            .finish()
    }
}

/// Stack construction parameters.
#[derive(Debug, Clone)]
pub struct StackConfig {
    /// This host's IPv4 address.
    pub ip: Ipv4Addr,
    /// Link MTU in bytes (IP packet budget).
    pub mtu: usize,
    /// ARP cache TTL.
    pub arp_ttl: SimTime,
    /// ARP request retry interval.
    pub arp_retry: SimTime,
    /// ARP request attempts before declaring unreachable.
    pub arp_tries: u32,
    /// Per-UDP-socket receive queue depth.
    pub udp_queue_depth: usize,
    /// Maximum frames processed from the device per poll pass *per shard*.
    /// Under a flood the leftover backlog is reported as remaining work
    /// instead of being drained in one unbounded loop that would starve
    /// timers and the other pollers sharing the scheduler pass.
    pub rx_budget: usize,
    /// Coalesce outgoing frames into one `tx_burst` per poll pass (the
    /// batched default). `false` restores one device handoff per frame —
    /// the unbatched baseline the E13 A/B measures against.
    pub tx_coalesce: bool,
    /// One shard per device RX queue (the default). `false` runs a single
    /// shard that drains every queue round-robin — the serialized baseline
    /// the E14 A/B measures against.
    pub sharded: bool,
    /// Capacity of each cross-shard ring and of the per-shard handoff
    /// queue. A full queue drops the frame (counted) rather than growing;
    /// TCP retransmission recovers the exception-path loss.
    pub handoff_capacity: usize,
    /// TCP tunables.
    pub tcp: TcpConfig,
    /// Multi-tenant device sharing, when several mutually untrusting
    /// applications share this port. `None` = single-tenant, no policy.
    pub tenancy: Option<TenancyCfg>,
}

impl StackConfig {
    /// Sensible defaults for a host at `ip`.
    pub fn new(ip: Ipv4Addr) -> Self {
        StackConfig {
            ip,
            mtu: 1500,
            arp_ttl: SimTime::from_secs(60),
            arp_retry: SimTime::from_millis(1),
            arp_tries: 3,
            udp_queue_depth: 1024,
            rx_budget: 64,
            tx_coalesce: true,
            sharded: true,
            handoff_capacity: 1024,
            tcp: TcpConfig::default(),
            tenancy: None,
        }
    }
}

/// Stack-level counters (summed across shards by [`NetworkStack::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StackStats {
    /// Frames processed from the device.
    pub rx_frames: u64,
    /// Frames handed to the device.
    pub tx_frames: u64,
    /// Frames dropped as malformed (bad checksum, short headers, ...).
    pub malformed: u64,
    /// Frames addressed to someone else (wrong IP) and dropped.
    pub not_for_us: u64,
    /// ARP requests transmitted.
    pub arp_requests: u64,
    /// ARP replies transmitted.
    pub arp_replies: u64,
    /// ICMP echo replies transmitted.
    pub icmp_replies: u64,
    /// Outbound packets dropped because ARP resolution failed.
    pub unreachable_drops: u64,
}

/// Per-shard counters for the sharding experiment (E14).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Frames that arrived on this shard's queue but belong to another
    /// shard's flow (only a SmartNIC steering override can cause this when
    /// the device hashes with the same function as `shard_for`).
    pub steering_mismatches: u64,
    /// Frames received through the handoff queue from other shards.
    pub handoffs_in: u64,
    /// TCP timer events fired on this shard.
    pub timer_events: u64,
    /// Frames this shard processed from its own queues.
    pub rx_frames: u64,
    /// Sends from this shard that found the destination ring (or the
    /// local handoff queue, on delivery) full.
    pub handoff_backpressure: u64,
    /// Cross-shard messages from or to this shard discarded at a full
    /// bounded queue.
    pub handoff_dropped: u64,
    /// Device-offload sync events this shard applied to its control
    /// blocks (ACK advances, device serves, flushed bytes, fallbacks).
    pub offload_events_applied: u64,
    /// Flows this shard armed (or re-armed after fallback) on the device.
    pub offload_rearms: u64,
}

/// Facade-level bookkeeping for this stack's listeners. Port *ownership*
/// lives in the shared [`PortAllocator`] (one namespace per logical host,
/// even when the host's shards span OS threads); this struct only tracks
/// which listeners this particular stack instance replicated.
struct Control {
    /// Facade listener handle → (port, per-shard inner listener ids).
    listeners: FastHashMap<u32, (u16, Vec<ListenerId>)>,
    next_listener: u32,
    /// Ports this stack instance listens on (a second `listen` here is
    /// `AddrInUse`; another shard world acquiring the same port is
    /// SO_REUSEPORT replication and fine).
    local_listen: FastHashSet<u16>,
}

/// This stack's endpoint in a cross-thread shard mesh: a *global* shard
/// identity plus rings to every peer world (see
/// [`NetworkStack::attach_external`]).
struct ExternalLinks {
    rings: ShardRings,
}

/// Facade-level handle on the installed device offload program: the
/// engine (shared with every shard) and the NIC slot it occupies.
struct OffloadCtl {
    engine: Rc<RefCell<TcpOffload>>,
    slot: ProgramSlot,
}

/// A shard's view of the device offload: the shared engine plus the
/// flows *this shard owns* that are currently armed. The engine's sync
/// events are keyed by flow; each shard drains the shared queue, applies
/// the events for its own flows, and restores the rest in order for the
/// owning shard (see [`Shard::drain_offload_events`]).
struct ShardOffload {
    engine: Rc<RefCell<TcpOffload>>,
    /// The offloaded local TCP port.
    port: u16,
    /// Armed flows this shard owns: device flow key → control block.
    armed: FastHashMap<FlowKey, ConnId>,
    /// Reverse index for the release path (send/close on an armed conn).
    by_conn: FastHashMap<ConnId, FlowKey>,
}

/// One host's user-level network stack bound to one device port.
pub struct NetworkStack {
    shards: Vec<RefCell<Shard>>,
    /// Each shard's doorbell, by shard index: one shard's pass rings
    /// another's on a cross-shard send.
    bells: Vec<Doorbell>,
    /// In-world cross-shard rings, one endpoint per shard. Same protocol
    /// and bounds as the cross-thread mesh; only the draining thread
    /// differs.
    rings: Vec<RefCell<ShardRings>>,
    /// Cross-thread links, when this stack is one world of a
    /// thread-per-shard host.
    external: RefCell<Option<ExternalLinks>>,
    /// The installed TCP offload program, if any (one per stack: the
    /// engine multiplexes echo or KV service over one local port).
    offload: RefCell<Option<OffloadCtl>>,
    ctrl: RefCell<Control>,
    ports: Arc<PortAllocator>,
    config: StackConfig,
    num_shards: usize,
}

impl NetworkStack {
    /// Builds a stack on `port`, sharing the simulation `clock`, with its
    /// own private port namespace.
    pub fn new(port: DpdkPort, clock: SimClock, config: StackConfig) -> Self {
        Self::with_ports(port, clock, config, Arc::new(PortAllocator::new()))
    }

    /// Builds a stack whose TCP port namespace is `ports` — shared across
    /// every shard world of one logical host under thread-per-shard
    /// execution.
    pub fn with_ports(
        port: DpdkPort,
        clock: SimClock,
        config: StackConfig,
        ports: Arc<PortAllocator>,
    ) -> Self {
        let num_queues = port.num_rx_queues().max(1);
        let num_shards = if config.sharded {
            num_queues as usize
        } else {
            1
        };
        // Every shard may drain frames out of the shared mailbox into its
        // own queue, so a delivery rings them all.
        let bells: Vec<Doorbell> = (0..num_shards).map(|_| Doorbell::new()).collect();
        for bell in bells.iter() {
            port.ring_on_rx(bell.clone());
        }
        let shards = (0..num_shards)
            .map(|i| {
                let queues: Vec<u16> = if config.sharded {
                    vec![i as u16]
                } else {
                    (0..num_queues).collect()
                };
                let mut tcp =
                    TcpPeer::with_id_space(config.ip, config.tcp, i as u32, num_shards as u32);
                if let Some(tcfg) = &config.tenancy {
                    // TIME_WAIT capacity is partitioned per tenant: each
                    // shard's peer learns every tenant's quota up front.
                    for (t, spec) in tcfg.registry.tenants() {
                        if let Some(q) = spec.tw_quota {
                            tcp.set_tenant_tw_quota(t.0, q);
                        }
                    }
                }
                RefCell::new(Shard {
                    index: i,
                    num_shards,
                    bell: bells[i].clone(),
                    deadline: None,
                    queues,
                    rr_next: 0,
                    arp: ArpCache::new(config.arp_ttl, config.arp_retry, config.arp_tries),
                    udp: UdpPeer::new(config.udp_queue_depth),
                    tcp,
                    pongs: Vec::new(),
                    tx_ring: Vec::new(),
                    tx_stamps: Vec::new(),
                    handoff: VecDeque::new(),
                    forwards: Vec::new(),
                    ext_forwards: Vec::new(),
                    learned: Vec::new(),
                    global: None,
                    offload: None,
                    ports: Arc::clone(&ports),
                    tcp_out: Vec::new(),
                    port: port.clone(),
                    clock: clock.clone(),
                    config: config.clone(),
                    stats: StackStats::default(),
                    shard_stats: ShardStats::default(),
                    tenancy: config
                        .tenancy
                        .as_ref()
                        .map(|t| ShardTenancy::new(t, config.rx_budget)),
                })
            })
            .collect();
        let rings = rings::mesh(num_shards, config.handoff_capacity)
            .into_iter()
            .map(RefCell::new)
            .collect();
        NetworkStack {
            shards,
            bells,
            rings,
            external: RefCell::new(None),
            offload: RefCell::new(None),
            ctrl: RefCell::new(Control {
                listeners: FastHashMap::default(),
                next_listener: 0,
                local_listen: FastHashSet::default(),
            }),
            ports,
            config,
            num_shards,
        }
    }

    /// Makes this stack one shard world of a thread-per-shard logical
    /// host: `links` is this world's endpoint in a [`rings::mesh`] whose
    /// index is the world's *global* shard number and whose size is the
    /// total world count. Frames whose global RSS owner is another world
    /// are forwarded over the mesh; ARP learns are broadcast to every
    /// peer; ephemeral ports are constrained to hash home to this world.
    pub fn attach_external(&self, links: ShardRings) {
        let (gidx, gtotal) = (links.index(), links.num_shards());
        for s in &self.shards {
            s.borrow_mut().global = Some((gidx as u16, gtotal as u16));
        }
        *self.external.borrow_mut() = Some(ExternalLinks { rings: links });
        // Cross-thread frames arrive with no doorbell to announce them:
        // shard 0, which drains the inbox, stays rung on every pass.
        self.bells[0].ring();
    }

    /// The doorbell of shard `index`: rung whenever work is queued for the
    /// shard's next [`NetworkStack::poll_shard`].
    pub fn doorbell(&self, index: usize) -> Doorbell {
        self.bells[index].clone()
    }

    /// From now on, publishes shard `index`'s earliest protocol deadline
    /// (what [`NetworkStack::next_deadline`] would answer for that shard)
    /// through `deadline`, after every poll pass and facade mutation.
    pub fn publish_deadlines(&self, index: usize, deadline: DeadlineHandle) {
        let mut shard = self.shards[index].borrow_mut();
        shard.deadline = Some(deadline);
        shard.publish_deadline();
    }

    /// A mutable borrow of shard `index` that, when released, publishes the
    /// shard's deadline and rings its bell for work the caller left queued.
    fn shard_mut(&self, index: usize) -> ShardMut<'_> {
        ShardMut(self.shards[index].borrow_mut())
    }

    /// The shared TCP port namespace this stack allocates from.
    pub fn port_allocator(&self) -> Arc<PortAllocator> {
        Arc::clone(&self.ports)
    }

    /// This host's IPv4 address.
    pub fn local_ip(&self) -> Ipv4Addr {
        self.config.ip
    }

    /// This host's hardware address.
    pub fn mac(&self) -> MacAddress {
        self.shards[0].borrow().port.mac()
    }

    /// Largest UDP payload the MTU allows.
    pub fn max_udp_payload(&self) -> usize {
        self.config.mtu - IPV4_HEADER_LEN - UDP_HEADER_LEN
    }

    /// Number of shards this stack runs (1 unless the device is
    /// multi-queue and [`StackConfig::sharded`] is set).
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// The shard that owns the flow `(local_port, remote)` — the same
    /// symmetric hash the device's RSS uses, so ownership and steering
    /// agree by construction.
    pub fn shard_for(&self, local_port: u16, remote: SocketAddr) -> usize {
        rss::queue_for_tuple(
            self.config.ip,
            local_port,
            remote.ip,
            remote.port,
            self.num_shards as u16,
        ) as usize
    }

    /// One poll pass over every shard. Returns how many work items the
    /// pass processed — frames moved (RX + TX + handoffs), RX backlog left
    /// beyond the budget, plus frameless state transitions (ARP give-up
    /// drops, TCP timer events) — so callers can tell a productive pass
    /// from an idle one.
    pub fn poll(&self) -> usize {
        (0..self.num_shards).map(|i| self.poll_shard(i)).sum()
    }

    /// One poll pass over a single shard: drain its inbound rings, then
    /// its RX queue(s) and handoffs (up to [`StackConfig::rx_budget`]
    /// frames), advance its protocol timers, hand its coalesced outgoing
    /// frames to the device in one burst, then *send* any frames and ARP
    /// bindings staged for other shards over the rings (never a direct
    /// borrow of another shard — it may live on another thread), ringing
    /// each receiver's bell. This is the unit the runtime registers one
    /// gated poller per shard for. The pass answers the shard's own bell;
    /// it rings it again only for work it leaves behind.
    pub fn poll_shard(&self, index: usize) -> usize {
        // Ring drain happens at the pass boundary: messages peers sent
        // during *their* passes become this shard's handoffs/bindings now.
        let mut work = {
            let mut rings = self.rings[index].borrow_mut();
            let mut shard = self.shards[index].borrow_mut();
            rings.drain(|msg| shard.on_shard_msg(msg))
        };
        // Shard 0 also drains this world's cross-thread inbox.
        let external = index == 0 && self.external.borrow().is_some();
        if external {
            if let Some(ext) = self.external.borrow_mut().as_mut() {
                let mut shard = self.shards[0].borrow_mut();
                work += ext.rings.drain(|msg| shard.on_shard_msg(msg));
            }
        }
        let (w, forwards, ext_forwards, learned) = {
            let mut shard = self.shards[index].borrow_mut();
            let (work, backlog) = shard.poll_pass();
            // Everything queued for this shard before or during the pass
            // was served by it; what it could not finish rings it again,
            // as does a cross-thread input, which no bell announces.
            shard.bell.take();
            if backlog || external || shard.port.has_rx_ingress() {
                shard.bell.ring();
            }
            // Sync events this shard restored for flows other shards own.
            if shard
                .offload
                .as_ref()
                .is_some_and(|o| o.engine.borrow().has_events())
            {
                self.bells.iter().for_each(Doorbell::ring);
            }
            shard.publish_deadline();
            (
                work,
                std::mem::take(&mut shard.forwards),
                std::mem::take(&mut shard.ext_forwards),
                std::mem::take(&mut shard.learned),
            )
        };
        work += w;
        // Mis-steered frames go to their owning shard's ring; processing
        // them is counted there (`handoffs_in`). A successful send counts
        // as work here so the scheduler keeps polling until the receiving
        // shard has drained it.
        {
            let mut rings = self.rings[index].borrow_mut();
            for (target, mbuf) in forwards {
                let sent = rings.send(target, ShardMsg::Frame(mbuf.as_slice().to_vec()));
                work += self.note_send(index, Some(target), sent);
            }
            // ARP bindings learned on one shard serve the whole host:
            // another shard may be the one holding packets queued on that
            // resolution.
            for &(ip, mac) in &learned {
                for j in 0..self.num_shards {
                    if j != index {
                        let sent = rings.send(j, ShardMsg::ArpLearn(ip, mac));
                        work += self.note_send(index, Some(j), sent);
                    }
                }
            }
        }
        // Cross-thread links: frames owned by another world, plus the
        // same ARP broadcast (a peer world may hold packets pending on
        // the resolution this world just completed). The receiving world
        // keeps its draining shard rung, so no bell crosses the thread.
        if let Some(ext) = self.external.borrow_mut().as_mut() {
            let gidx = ext.rings.index();
            for (world, bytes) in ext_forwards {
                let sent = ext.rings.send(world, ShardMsg::Frame(bytes));
                work += self.note_send(index, None, sent);
            }
            for &(ip, mac) in &learned {
                for world in 0..ext.rings.num_shards() {
                    if world != gidx {
                        let sent = ext.rings.send(world, ShardMsg::ArpLearn(ip, mac));
                        work += self.note_send(index, None, sent);
                    }
                }
            }
        }
        work
    }

    /// Books one ring send into the sending shard's stats and rings the
    /// receiving in-world shard `target`, if any; returns the work-item
    /// credit (1 for enqueued, 0 for dropped).
    fn note_send(&self, index: usize, target: Option<usize>, sent: bool) -> usize {
        if sent {
            if let Some(target) = target {
                self.bells[target].ring();
            }
            1
        } else {
            let mut shard = self.shards[index].borrow_mut();
            shard.shard_stats.handoff_backpressure += 1;
            shard.shard_stats.handoff_dropped += 1;
            0
        }
    }

    /// In-world ring counters for shard `index`.
    pub fn ring_stats(&self, index: usize) -> RingStats {
        self.rings[index].borrow().stats()
    }

    /// Cross-thread ring counters, if [`attach_external`] was called.
    ///
    /// [`attach_external`]: NetworkStack::attach_external
    pub fn external_ring_stats(&self) -> Option<RingStats> {
        self.external.borrow().as_ref().map(|e| e.rings.stats())
    }

    /// Earliest protocol timer deadline (ARP retry, TCP RTO/persist/
    /// TIME_WAIT/delayed-ACK) across all shards, for runtime clock
    /// advancement.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.shards
            .iter()
            .filter_map(|s| s.borrow_mut().next_deadline())
            .min()
    }

    /// Stack counters, summed across shards.
    pub fn stats(&self) -> StackStats {
        let mut total = StackStats::default();
        for s in &self.shards {
            let st = s.borrow().stats;
            total.rx_frames += st.rx_frames;
            total.tx_frames += st.tx_frames;
            total.malformed += st.malformed;
            total.not_for_us += st.not_for_us;
            total.arp_requests += st.arp_requests;
            total.arp_replies += st.arp_replies;
            total.icmp_replies += st.icmp_replies;
            total.unreachable_drops += st.unreachable_drops;
        }
        total
    }

    /// Per-shard counters (E14 reads these to prove flows stay home).
    pub fn shard_stats(&self, index: usize) -> ShardStats {
        self.shards[index].borrow().shard_stats
    }

    /// UDP layer counters, summed across shards.
    pub fn udp_stats(&self) -> UdpStats {
        let mut total = UdpStats::default();
        for s in &self.shards {
            let st = s.borrow().udp.stats();
            total.delivered += st.delivered;
            total.no_listener += st.no_listener;
            total.queue_drops += st.queue_drops;
        }
        total
    }

    /// TCP layer counters, summed across shards.
    pub fn tcp_stats(&self) -> TcpStats {
        let mut total = TcpStats::default();
        for s in &self.shards {
            let st = s.borrow().tcp.stats();
            total.demuxed += st.demuxed;
            total.syns_accepted += st.syns_accepted;
            total.syns_dropped_backlog += st.syns_dropped_backlog;
            total.syns_evicted += st.syns_evicted;
            total.resets_sent += st.resets_sent;
            total.unmatched += st.unmatched;
        }
        total
    }

    /// TCP connection-memory accounting, summed across shards. The
    /// headline `bytes_per_conn` for E18 is `(slab_bytes + cb_heap_bytes
    /// + demux_bytes) / live_conns`.
    pub fn tcp_mem_stats(&self) -> TcpMemStats {
        let mut total = TcpMemStats::default();
        for s in &self.shards {
            let m = s.borrow().tcp.mem_stats();
            total.slab_bytes += m.slab_bytes;
            total.cb_heap_bytes += m.cb_heap_bytes;
            total.demux_bytes += m.demux_bytes;
            total.timewait_bytes += m.timewait_bytes;
            total.syn_table_bytes += m.syn_table_bytes;
            total.live_conns += m.live_conns;
            total.timewait_records += m.timewait_records;
        }
        total
    }

    /// Per-tenant datapath counters, summed across shards. Empty without
    /// tenancy. Order matches registration order.
    pub fn tenant_stats(&self) -> Vec<TenantLaneStats> {
        let Some(tcfg) = &self.config.tenancy else {
            return Vec::new();
        };
        let mut out: Vec<TenantLaneStats> = tcfg
            .registry
            .tenants()
            .iter()
            .map(|&(t, _)| TenantLaneStats {
                tenant: t.0,
                ..TenantLaneStats::default()
            })
            .collect();
        for s in &self.shards {
            let sh = s.borrow();
            let Some(ten) = &sh.tenancy else { continue };
            for lane in &ten.lanes {
                if let Some(o) = out.iter_mut().find(|o| o.tenant == lane.tenant.0) {
                    o.sent_frames += lane.stats.sent_frames;
                    o.sent_bytes += lane.stats.sent_bytes;
                    o.quota_drops += lane.stats.quota_drops;
                    o.rate_deferrals += lane.stats.rate_deferrals;
                    o.rx_quota_drops += lane.stats.rx_quota_drops;
                    o.staged_frames += lane.staging.len() as u64;
                }
            }
        }
        out
    }

    /// Compact TIME_WAIT records currently charged to `tenant`, summed
    /// across shards — the observable for the per-tenant TIME_WAIT
    /// partition (a SYN/FIN flood from one tenant must leave every other
    /// tenant's count untouched).
    pub fn tcp_tw_count_for(&self, tenant: u16) -> usize {
        self.shards
            .iter()
            .map(|s| s.borrow().tcp.tw_count_for(tenant))
            .sum()
    }

    /// Occupied SYN-table slots for the listener on `port`, summed across
    /// shards. The SYN table is per-listener (and a port has one owning
    /// tenant), so this is the per-tenant half-open partition.
    pub fn tcp_syn_backlog_used(&self, port: u16) -> usize {
        self.shards
            .iter()
            .map(|s| s.borrow().tcp.syn_backlog_used(port))
            .sum()
    }

    /// The shard owning connection `conn` — recoverable from the id alone
    /// because shard *i* allocates ids `i, i+N, i+2N, …`.
    fn conn_shard(&self, conn: ConnId) -> &RefCell<Shard> {
        &self.shards[conn.0 as usize % self.num_shards]
    }

    /// [`NetworkStack::shard_mut`] for the shard owning `conn`.
    fn conn_shard_mut(&self, conn: ConnId) -> ShardMut<'_> {
        self.shard_mut(conn.0 as usize % self.num_shards)
    }

    // ------------------------------------------------------------------
    // ICMP.
    // ------------------------------------------------------------------

    /// Sends an ICMP echo request.
    pub fn ping(&self, dst: Ipv4Addr, ident: u16, seq: u16) {
        // ICMP has no ports; RSS hashes it as the host pair, so the owning
        // shard is the (0, 0)-port flow's shard.
        let owner = self.shard_for(0, SocketAddr::new(dst, 0));
        let mut shard = self.shard_mut(owner);
        let echo = IcmpEcho {
            is_request: true,
            ident,
            seq,
            payload: DemiBuffer::empty(),
        };
        let packet = echo.into_packet(IPV4_HEADER_LEN + ETH_HEADER_LEN);
        shard.send_ip(dst, IpProtocol::Icmp, packet);
    }

    /// Pops a received echo reply `(from, ident, seq)`.
    pub fn recv_pong(&self) -> Option<(Ipv4Addr, u16, u16)> {
        for s in &self.shards {
            let mut shard = s.borrow_mut();
            if !shard.pongs.is_empty() {
                return Some(shard.pongs.remove(0));
            }
        }
        None
    }

    // ------------------------------------------------------------------
    // UDP.
    // ------------------------------------------------------------------
    //
    // A UDP port receives from *any* remote, and the remote half of the
    // tuple picks the RX queue — so one bound port's datagrams arrive on
    // every shard. Binds are therefore replicated across shards
    // (SO_REUSEPORT-style), each shard delivering the flows RSS steers to
    // it; receive-side accessors aggregate.

    /// Binds a UDP port.
    pub fn udp_bind(&self, port: u16) -> Result<(), NetError> {
        self.check_bind(port)?;
        self.shards[0].borrow_mut().udp.bind(port)?;
        for s in &self.shards[1..] {
            s.borrow_mut()
                .udp
                .bind(port)
                .expect("shards' UDP port spaces stay in sync");
        }
        Ok(())
    }

    /// Binds an ephemeral UDP port and returns it. Under tenancy the
    /// port is granted to the binding tenant, so its datagrams are
    /// policed against that tenant's RX slice.
    pub fn udp_bind_ephemeral(&self) -> Result<u16, NetError> {
        let port = self.shards[0].borrow_mut().udp.bind_ephemeral()?;
        if let Some(tcfg) = &self.config.tenancy {
            let t = demi_tenant::current();
            if !t.is_host() {
                tcfg.registry.grant_port(t, port);
            }
        }
        for s in &self.shards[1..] {
            s.borrow_mut()
                .udp
                .bind(port)
                .expect("shards' UDP port spaces stay in sync");
        }
        Ok(port)
    }

    /// Closes a UDP port.
    pub fn udp_close(&self, port: u16) {
        for s in &self.shards {
            s.borrow_mut().udp.close(port);
        }
    }

    /// Sends one datagram from `src_port` to `dst`.
    ///
    /// Accepts anything convertible into a [`DemiBuffer`]. Passing a buffer
    /// with [`MAX_HEADER_LEN`] headroom (any pool allocation qualifies)
    /// sends with zero copies: UDP, IP, and Ethernet headers are prepended
    /// in place and the same storage reaches the device. Byte slices are
    /// copied into a fresh buffer first (the POSIX-path baseline).
    pub fn udp_sendto(
        &self,
        src_port: u16,
        dst: SocketAddr,
        payload: impl Into<DemiBuffer>,
    ) -> Result<(), NetError> {
        let payload: DemiBuffer = payload.into();
        let max = self.config.mtu - IPV4_HEADER_LEN - UDP_HEADER_LEN;
        if payload.len() > max {
            return Err(NetError::MessageTooLong {
                len: payload.len(),
                max,
            });
        }
        // The flow's owning shard transmits, keeping its ARP view and TX
        // ring the only state this datagram touches.
        let owner = self.shard_for(src_port, dst);
        let mut shard = self.shard_mut(owner);
        if !shard.udp.is_bound(src_port) {
            return Err(NetError::BadHandle);
        }
        let header = UdpHeader {
            src_port,
            dst_port: dst.port,
        };
        let mut datagram = if payload.can_prepend(UDP_HEADER_LEN + IPV4_HEADER_LEN + ETH_HEADER_LEN)
        {
            payload
        } else {
            payload.copy_with_headroom(MAX_HEADER_LEN)
        };
        let (src_ip, dst_ip) = (self.config.ip, dst.ip);
        header
            .prepend_onto(src_ip, dst_ip, &mut datagram)
            .expect("headroom ensured above");
        shard.send_ip(dst.ip, IpProtocol::Udp, datagram);
        Ok(())
    }

    /// Pops a received datagram on `port` (zero-copy payload). Per-flow
    /// order is preserved (a flow lives on one shard); order *between*
    /// remotes on different shards is not, exactly like hardware RSS.
    pub fn udp_recv_from(&self, port: u16) -> Option<(SocketAddr, DemiBuffer)> {
        for s in &self.shards {
            if let Some(got) = s.borrow_mut().udp.recv_from(port) {
                return Some(got);
            }
        }
        None
    }

    /// The signal that fires when a datagram for `port` arrives on any
    /// shard, or the port closes. An unbound port gets a signal that never
    /// fires: nothing can arrive there.
    pub fn udp_readiness(&self, port: u16) -> Notify {
        let notify = self.shards[0]
            .borrow_mut()
            .udp
            .readiness(port)
            .unwrap_or_default();
        for s in &self.shards[1..] {
            s.borrow_mut().udp.share_readiness(port, &notify);
        }
        notify
    }

    /// Datagrams queued on `port` across all shards.
    pub fn udp_pending(&self, port: u16) -> usize {
        self.shards
            .iter()
            .map(|s| s.borrow().udp.pending(port))
            .sum()
    }

    // ------------------------------------------------------------------
    // TCP.
    // ------------------------------------------------------------------

    /// Tenancy port-ownership gate for bind-like operations: the ambient
    /// tenant may only take ports the host granted it, and the host may
    /// only take unowned ports. Returns the port's owner (for TIME_WAIT
    /// tagging) when tenancy is on, `None` otherwise; denials are
    /// counted.
    fn check_bind(&self, port: u16) -> Result<Option<TenantId>, NetError> {
        let Some(tcfg) = &self.config.tenancy else {
            return Ok(None);
        };
        let t = demi_tenant::current();
        if !tcfg.registry.may_bind(t, port) {
            counters::count(CROSS_TENANT_DENIALS);
            return Err(NetError::TenantDenied(port));
        }
        Ok(Some(tcfg.registry.port_owner(port)))
    }

    /// Starts listening on a TCP port. The listener is replicated on every
    /// shard (SO_REUSEPORT-style): each shard accepts the handshakes RSS
    /// steers to it into its own backlog, and [`NetworkStack::tcp_accept`]
    /// drains them all.
    pub fn tcp_listen(&self, port: u16, backlog: usize) -> Result<ListenerId, NetError> {
        // Tenancy gate first: a tenant may only listen on ports the host
        // granted it, and the host itself must not squat on a tenant's
        // partition. The port's owner also tags each shard's TIME_WAIT
        // partition, so records from this listener's connections are
        // charged to the right tenant.
        let owner = self.check_bind(port)?;
        let mut ctrl = self.ctrl.borrow_mut();
        // One listen per port per stack; acquiring a listener reference in
        // the shared namespace fails only if a connection exclusively
        // claims the port (other shard worlds listening is replication).
        if ctrl.local_listen.contains(&port) || !self.ports.listen_acquire(port) {
            return Err(NetError::AddrInUse(port));
        }
        let inner: Vec<ListenerId> = self
            .shards
            .iter()
            .map(|s| {
                let mut shard = s.borrow_mut();
                if let Some(owner) = owner {
                    shard.tcp.tag_port_tenant(port, owner.0);
                }
                shard
                    .tcp
                    .listen(port, backlog)
                    .expect("facade owns the port namespace")
            })
            .collect();
        ctrl.local_listen.insert(port);
        let id = ctrl.next_listener;
        ctrl.next_listener += 1;
        ctrl.listeners.insert(id, (port, inner));
        Ok(ListenerId(id))
    }

    /// Pops an established connection from a listener backlog (any shard).
    pub fn tcp_accept(&self, listener: ListenerId) -> Result<Option<ConnId>, NetError> {
        let ctrl = self.ctrl.borrow();
        let (_, inner) = ctrl.listeners.get(&listener.0).ok_or(NetError::BadHandle)?;
        for (shard, &lid) in self.shards.iter().zip(inner) {
            if let Some(conn) = shard.borrow_mut().tcp.accept(lid)? {
                return Ok(Some(conn));
            }
        }
        Ok(None)
    }

    /// The signal that fires when a connection is ready to accept on any
    /// shard, or the listener closes. An unknown listener gets a signal
    /// that never fires.
    pub fn tcp_accept_readiness(&self, listener: ListenerId) -> Notify {
        let ctrl = self.ctrl.borrow();
        let Some((_, inner)) = ctrl.listeners.get(&listener.0) else {
            return Notify::new();
        };
        let notify = self.shards[0]
            .borrow_mut()
            .tcp
            .listener_readiness(inner[0])
            .unwrap_or_default();
        for (shard, &lid) in self.shards[1..].iter().zip(&inner[1..]) {
            shard
                .borrow_mut()
                .tcp
                .share_listener_readiness(lid, &notify);
        }
        notify
    }

    /// Stops listening; pending unaccepted connections are aborted.
    pub fn tcp_close_listener(&self, listener: ListenerId) {
        let mut ctrl = self.ctrl.borrow_mut();
        let Some((port, inner)) = ctrl.listeners.remove(&listener.0) else {
            return;
        };
        ctrl.local_listen.remove(&port);
        self.ports.listen_release(port);
        for (index, lid) in inner.into_iter().enumerate() {
            let mut shard = self.shard_mut(index);
            shard.tcp.close_listener(lid);
            shard.flush_tcp();
        }
    }

    /// Starts an active open; poll [`NetworkStack::tcp_state`] until
    /// `Established` (or an error). The local port is drawn lock-free
    /// from the host-wide ephemeral range, and the connection is placed
    /// on the shard its 4-tuple hashes to — the shard whose RX queue the
    /// handshake replies will arrive on. When this stack is one world of
    /// a thread-per-shard host, the port is additionally constrained to
    /// hash home to this world, so the whole flow stays on this core.
    pub fn tcp_connect(&self, remote: SocketAddr) -> Result<ConnId, NetError> {
        let global = self.shards[0].borrow().global;
        let ip = self.config.ip;
        let port = match global {
            Some((gidx, gtotal)) => self.ports.alloc_ephemeral_where(|p| {
                rss::queue_for_tuple(ip, p, remote.ip, remote.port, gtotal) == gidx
            }),
            None => self.ports.alloc_ephemeral(),
        }
        .ok_or(NetError::EphemeralPortsExhausted)?;
        // The freshly drawn ephemeral port is granted to the connecting
        // tenant for the connection's lifetime (revoked when the port is
        // released after close/TIME_WAIT), so its RX frames are policed
        // against — and its TIME_WAIT record charged to — that tenant.
        let tw_tenant = self.config.tenancy.as_ref().map(|tcfg| {
            let t = demi_tenant::current();
            if !t.is_host() {
                tcfg.registry.grant_port(t, port);
            }
            t
        });
        let owner = self.shard_for(port, remote);
        let mut shard = self.shard_mut(owner);
        if let Some(t) = tw_tenant {
            shard.tcp.tag_port_tenant(port, t.0);
        }
        let now = shard.clock.now();
        let conn = shard.tcp.connect_bound(port, remote, now);
        shard.flush_tcp();
        Ok(conn)
    }

    /// Connection state.
    pub fn tcp_state(&self, conn: ConnId) -> Result<State, NetError> {
        self.conn_shard(conn).borrow().tcp.state(conn)
    }

    /// The signal that fires whenever something observable on `conn`
    /// changes: data or EOF to read, its state, its error. A handle that
    /// no longer names a live connection gets a signal that never fires:
    /// its answers are final.
    pub fn tcp_readiness(&self, conn: ConnId) -> Notify {
        self.conn_shard(conn)
            .borrow_mut()
            .tcp
            .readiness(conn)
            .unwrap_or_default()
    }

    /// Connection failure, if any.
    pub fn tcp_error(&self, conn: ConnId) -> Option<NetError> {
        self.conn_shard(conn).borrow().tcp.error(conn)
    }

    /// Queues stream data (zero-copy) for transmission. If the device is
    /// currently serving this connection, the flow is disarmed first —
    /// host-originated data and device-generated replies must never race
    /// for sequence numbers.
    pub fn tcp_send(&self, conn: ConnId, data: DemiBuffer) -> Result<(), NetError> {
        let mut shard = self.conn_shard_mut(conn);
        shard.offload_release_conn(conn);
        let now = shard.clock.now();
        shard.tcp.send(conn, data, now)?;
        shard.flush_tcp();
        Ok(())
    }

    /// Pops received stream data (ordered chunks).
    pub fn tcp_recv(&self, conn: ConnId) -> Result<Option<DemiBuffer>, NetError> {
        let mut shard = self.conn_shard_mut(conn);
        let r = shard.tcp.recv(conn)?;
        // recv may emit a window update.
        shard.flush_tcp();
        Ok(r)
    }

    /// Whether the connection has data or EOF to read.
    pub fn tcp_readable(&self, conn: ConnId) -> bool {
        self.conn_shard(conn).borrow().tcp.is_readable(conn)
    }

    /// Whether the peer closed and all data was drained.
    pub fn tcp_eof(&self, conn: ConnId) -> bool {
        self.conn_shard(conn).borrow().tcp.at_eof(conn)
    }

    /// Graceful close. Disarms any device offload on the flow first so
    /// the FIN's sequence number accounts for absorbed bytes.
    pub fn tcp_close(&self, conn: ConnId) -> Result<(), NetError> {
        let mut shard = self.conn_shard_mut(conn);
        shard.offload_release_conn(conn);
        let now = shard.clock.now();
        shard.tcp.close(conn, now)?;
        shard.flush_tcp();
        Ok(())
    }

    /// Abortive close (offload disarmed first, as for [`tcp_close`]).
    ///
    /// [`tcp_close`]: NetworkStack::tcp_close
    pub fn tcp_abort(&self, conn: ConnId) -> Result<(), NetError> {
        let mut shard = self.conn_shard_mut(conn);
        shard.offload_release_conn(conn);
        shard.tcp.abort(conn)?;
        shard.flush_tcp();
        Ok(())
    }

    /// Per-connection protocol counters.
    pub fn tcp_conn_stats(&self, conn: ConnId) -> Result<crate::tcp::cb::CbStats, NetError> {
        self.conn_shard(conn).borrow().tcp.conn_stats(conn)
    }

    // ------------------------------------------------------------------
    // Device offload programs (E17).
    //
    // The stack is the offload *planner*: it decides which flows are
    // device-eligible (Established, quiescent server connections on the
    // offloaded port), installs the restricted engine into a NIC program
    // slot, keeps host control blocks coherent by applying the engine's
    // sync events, and falls everything back to the pure host path on
    // uninstall. Applications never talk to the device directly.
    // ------------------------------------------------------------------

    /// Installs a NIC-side echo short-circuit for TCP connections on
    /// local `port`: complete framed request messages are reflected by
    /// the device without an RX→host→TX crossing.
    pub fn install_echo_offload(&self, port: u16) -> Result<(), NetError> {
        self.install_tcp_offload(port, OffloadService::Echo)
    }

    /// Installs a NIC-resident KV GET cache for TCP connections on local
    /// `port`, bounded to `capacity_bytes` of device memory. GETs hitting
    /// the cache are answered on the device; everything else (misses,
    /// SETs, DELs) falls back to the host, which repopulates the cache
    /// with [`NetworkStack::offload_cache_insert`].
    pub fn install_kv_offload(&self, port: u16, capacity_bytes: usize) -> Result<(), NetError> {
        self.install_tcp_offload(port, OffloadService::KvCache { capacity_bytes })
    }

    fn install_tcp_offload(&self, port: u16, service: OffloadService) -> Result<(), NetError> {
        let mut ctl = self.offload.borrow_mut();
        if ctl.is_some() {
            return Err(NetError::Unsupported("a TCP offload is already installed"));
        }
        let engine = Rc::new(RefCell::new(TcpOffload::new(port, service)));
        let slot = self.shards[0]
            .borrow()
            .port
            .install_program(NicProgram::TcpOffload {
                engine: Rc::clone(&engine),
            })
            .map_err(|_| NetError::Unsupported("device has no free program slots"))?;
        for index in 0..self.num_shards {
            let mut shard = self.shard_mut(index);
            shard.offload = Some(ShardOffload {
                engine: Rc::clone(&engine),
                port,
                armed: FastHashMap::default(),
                by_conn: FastHashMap::default(),
            });
            // Arm already-established quiescent connections immediately;
            // new ones are picked up at the end of each poll pass.
            shard.rearm_offload();
        }
        *ctl = Some(OffloadCtl { engine, slot });
        Ok(())
    }

    /// Removes the installed TCP offload program, if any: every armed
    /// flow is disarmed, absorbed-but-unserved bytes are handed back to
    /// the host control blocks, and the NIC slot is freed. Connections
    /// continue seamlessly on the pure host path. Idempotent.
    pub fn uninstall_tcp_offload(&self) {
        let Some(ctl) = self.offload.borrow_mut().take() else {
            return;
        };
        ctl.engine.borrow_mut().disarm_all();
        for index in 0..self.num_shards {
            let mut shard = self.shard_mut(index);
            let now = shard.clock.now();
            shard.drain_offload_events(now);
            shard.flush_tcp();
            shard.offload = None;
        }
        self.shards[0].borrow().port.uninstall_program(ctl.slot);
    }

    /// Write-through populate of the device KV cache (the host calls
    /// this after serving a GET miss). Returns `false` when no KV
    /// offload is installed or the entry exceeds the device-memory bound
    /// — callers need no special-casing either way.
    pub fn offload_cache_insert(&self, key: &[u8], value: &[u8]) -> bool {
        match self.offload.borrow().as_ref() {
            Some(ctl) => ctl.engine.borrow_mut().cache_insert(key, value),
            None => false,
        }
    }

    /// Host-driven invalidation of one device KV cache entry — for
    /// removals the device cannot see on the wire (host-side LRU
    /// eviction, TTL expiry). Returns `false` when no KV offload is
    /// installed or the key was not cached.
    pub fn offload_cache_invalidate(&self, key: &[u8]) -> bool {
        match self.offload.borrow().as_ref() {
            Some(ctl) => ctl.engine.borrow_mut().cache_invalidate(key),
            None => false,
        }
    }

    /// Counters of the installed offload engine, if any.
    pub fn offload_stats(&self) -> Option<OffloadStats> {
        self.offload
            .borrow()
            .as_ref()
            .map(|ctl| ctl.engine.borrow().stats())
    }
}

/// Per-tenant datapath accounting, summed across shards by
/// [`NetworkStack::tenant_stats`]. The adversarial-isolation bench (E20)
/// reads these to prove the shared doorbell served tenants by weight.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantLaneStats {
    /// The tenant these counters describe.
    pub tenant: u16,
    /// Frames admitted from this tenant's staging lane into the shared
    /// TX ring by the deficit round-robin.
    pub sent_frames: u64,
    /// Bytes admitted alongside `sent_frames`.
    pub sent_bytes: u64,
    /// Frames dropped at the lane bound (offered load beyond the
    /// tenant's staging quota).
    pub quota_drops: u64,
    /// Head-of-lane frames deferred by the tenant's token bucket (one
    /// count per deferred fill pass, not per retry of the same frame).
    pub rate_deferrals: u64,
    /// RX frames dropped because the tenant exhausted its per-pass RX
    /// budget slice.
    pub rx_quota_drops: u64,
    /// Frames currently parked in the staging lane (a gauge, not a
    /// counter).
    pub staged_frames: u64,
}

/// One tenant's bounded TX staging lane on one shard: frames a tenant
/// offers wait here, ahead of the *shared* coalescing ring, until the
/// deficit round-robin admits them. The lane bound and the token bucket
/// are this tenant's problem alone — a flooding tenant fills its own
/// lane and drops its own frames.
struct TxLane {
    tenant: TenantId,
    weight: u32,
    capacity: usize,
    /// DRR deficit: bytes this lane may still send in the current round.
    deficit: u64,
    bucket: Option<TokenBucket>,
    staging: VecDeque<Mbuf>,
    stats: TenantLaneStats,
}

/// One shard's view of the tenancy policy: a TX lane and an RX budget
/// slice per registered tenant. HOST traffic (control frames, and every
/// frame of a tenancy-free stack) bypasses all of it.
struct ShardTenancy {
    registry: Arc<TenantRegistry>,
    lanes: Vec<TxLane>,
    /// Lane the next DRR round starts at, rotated for fairness.
    next_lane: usize,
    /// A budget-capped fill stopped mid-round inside `next_lane`: the
    /// next fill must resume that lane *without* re-crediting its
    /// quantum, or a budget smaller than one lane's per-round service
    /// would re-credit the same lane forever and starve the rest.
    resume_mid_round: bool,
    tx_pass_bytes: Option<u64>,
    /// Per-lane RX frames admitted this pass (reset each `rx_pass`)
    /// against the precomputed per-pass slice.
    rx_used: Vec<usize>,
    rx_slice: Vec<usize>,
}

impl ShardTenancy {
    fn new(cfg: &TenancyCfg, rx_budget: usize) -> Self {
        let tenants = cfg.registry.tenants();
        let total_share: u64 = tenants
            .iter()
            .map(|(_, s)| s.rx_share as u64)
            .sum::<u64>()
            .max(1);
        let rx_slice: Vec<usize> = tenants
            .iter()
            .map(|(_, s)| ((rx_budget as u64 * s.rx_share as u64 / total_share).max(1)) as usize)
            .collect();
        let lanes: Vec<TxLane> = tenants
            .iter()
            .map(|&(t, ref spec)| TxLane {
                tenant: t,
                weight: spec.weight.max(1),
                capacity: spec.tx_lane_frames.max(1),
                deficit: 0,
                bucket: spec.rate.map(TokenBucket::new),
                staging: VecDeque::new(),
                stats: TenantLaneStats {
                    tenant: t.0,
                    ..TenantLaneStats::default()
                },
            })
            .collect();
        let n = lanes.len();
        ShardTenancy {
            registry: Arc::clone(&cfg.registry),
            lanes,
            next_lane: 0,
            resume_mid_round: false,
            tx_pass_bytes: cfg.tx_pass_bytes,
            rx_used: vec![0; n],
            rx_slice,
        }
    }

    fn lane_idx(&self, tenant: TenantId) -> Option<usize> {
        self.lanes.iter().position(|l| l.tenant == tenant)
    }
}

/// One shard: a complete protocol instance bound to a subset of the
/// device's RX queues (exactly one when sharded; all of them in the
/// single-shard baseline).
struct Shard {
    index: usize,
    num_shards: usize,
    /// This shard's doorbell (the stack's `bells[index]`).
    bell: Doorbell,
    /// Where this shard publishes its earliest deadline, once a runtime
    /// asked for it ([`NetworkStack::publish_deadlines`]).
    deadline: Option<DeadlineHandle>,
    /// RX queues this shard drains.
    queues: Vec<u16>,
    /// Round-robin cursor over `queues` (multi-queue single-shard mode).
    rr_next: usize,
    port: DpdkPort,
    clock: SimClock,
    config: StackConfig,
    arp: ArpCache,
    udp: UdpPeer,
    tcp: TcpPeer,
    pongs: Vec<(Ipv4Addr, u16, u16)>,
    /// TX coalescing ring: fully framed mbufs accumulate here in enqueue
    /// order and leave in a single `tx_burst` at the end of each poll pass.
    tx_ring: Vec<Mbuf>,
    /// Telemetry enqueue stamps, parallel to `tx_ring` (virtual-time ns
    /// when latency telemetry is on; empty otherwise). `flush_tx` turns
    /// them into TX enqueue→burst samples.
    tx_stamps: Vec<u64>,
    /// Frames other shards received but this shard owns (RSS overridden by
    /// a steering program). Drained before the device queues each pass.
    /// Bounded at [`StackConfig::handoff_capacity`]: overflow drops the
    /// frame (counted) rather than growing.
    handoff: VecDeque<Mbuf>,
    /// Frames this shard received but another owns, staged for the facade
    /// to send over the rings after this shard's pass: `(owning shard,
    /// frame)`.
    forwards: Vec<(usize, Mbuf)>,
    /// Frames owned by another shard *world* (cross-thread), staged for
    /// the external rings: `(owning world, serialized frame)`. Owned
    /// bytes, not a buffer handle — `Rc` never crosses a shard boundary.
    ext_forwards: Vec<(usize, Vec<u8>)>,
    /// ARP bindings learned this pass, staged for the facade to teach the
    /// other shards (resolution benefits the whole host).
    learned: Vec<(Ipv4Addr, MacAddress)>,
    /// `(global shard index, global shard count)` when this stack is one
    /// world of a thread-per-shard host; `None` in a self-contained stack.
    global: Option<(u16, u16)>,
    /// This shard's view of the installed device offload, if any.
    offload: Option<ShardOffload>,
    /// The host-wide port namespace, for returning recycled ephemeral
    /// ports (expired TIME_WAIT records release them shard-locally first).
    ports: Arc<PortAllocator>,
    /// Reusable TCP flush scratch: `flush_tcp` drains the peer's outbox
    /// into this instead of allocating a fresh vector every poll pass.
    tcp_out: Vec<(Ipv4Addr, TcpSegmentOut)>,
    stats: StackStats,
    shard_stats: ShardStats,
    /// Multi-tenant TX lanes and RX slices; `None` on a single-tenant
    /// stack (the unconditional fast path).
    tenancy: Option<ShardTenancy>,
}

/// A mutable borrow of one shard for a facade call. Work the call queues
/// outside a poll pass must reach the runtime: releasing the borrow
/// publishes the shard's deadline (a connect arms an RTO, a send behind an
/// ARP miss arms a retry) and, on an offloaded port, rings the shard's
/// bell, since the call may have made a flow armable (a `recv` that
/// drained the last queued bytes). Segments a call queues need no ring of
/// their own: every facade call that can queue one flushes the TCP outbox
/// onto the TX ring, whose push rings.
struct ShardMut<'a>(RefMut<'a, Shard>);

impl Deref for ShardMut<'_> {
    type Target = Shard;

    fn deref(&self) -> &Shard {
        &self.0
    }
}

impl DerefMut for ShardMut<'_> {
    fn deref_mut(&mut self) -> &mut Shard {
        &mut self.0
    }
}

impl Drop for ShardMut<'_> {
    fn drop(&mut self) {
        let shard = &mut *self.0;
        shard.publish_deadline();
        if shard.offload.is_some() {
            shard.bell.ring();
        }
    }
}

impl Shard {
    /// Earliest protocol deadline on this shard: ARP retry, TCP timers
    /// (RTO, persist, TIME_WAIT, delayed ACK, queue compaction), and
    /// token-bucket wakeups of rate-limited tenant lanes.
    fn next_deadline(&mut self) -> Option<SimTime> {
        let tcp = self.tcp.next_deadline();
        let bucket = self.tenancy_next_deadline();
        [self.arp.next_deadline(), tcp, bucket]
            .into_iter()
            .flatten()
            .min()
    }

    /// Writes [`Shard::next_deadline`] to the runtime's deadline index.
    fn publish_deadline(&mut self) {
        if let Some(handle) = self.deadline.take() {
            handle.set(self.next_deadline());
            self.deadline = Some(handle);
        }
    }

    /// One full pass: RX (handoffs, then own queues), timers, TCP flush,
    /// TX flush. Returns the work-item count the runtime reads as progress
    /// (quiescence and clock advance) — handed-off frames count here (their
    /// arrival moved no stack counter, but it is progress all the same) —
    /// and whether the pass left backlog for the next one. Waiters are
    /// woken by the readiness signals of the sockets the pass touched, not
    /// by this count.
    fn poll_pass(&mut self) -> (usize, bool) {
        let before = self.stats.rx_frames + self.stats.tx_frames + self.stats.unreachable_drops;
        let handoffs_before = self.shard_stats.handoffs_in;
        let offload_before = self.shard_stats.offload_events_applied;
        // Sync events queued by the device since the last pass must reach
        // the control blocks before any frame (handed off or fresh) is
        // dispatched — delivered fallback frames assume the host already
        // absorbed the flushed bytes that precede them.
        let now = self.clock.now();
        self.drain_offload_events(now);
        let backlog = self.rx_pass();
        let timer_events = self.timer_pass();
        self.shard_stats.timer_events += timer_events as u64;
        self.flush_tcp();
        // Flows that completed host-side work this pass (reply ACKed,
        // queues drained) are quiescent now: hand them to the device.
        self.rearm_offload();
        // The flush runs before the work snapshot: DRR-admitted tenant
        // frames count `tx_frames` at admission, inside `flush_tx`.
        let tx_backlog = self.flush_tx();
        let after = self.stats.rx_frames + self.stats.tx_frames + self.stats.unreachable_drops;
        let handoffs = (self.shard_stats.handoffs_in - handoffs_before) as usize;
        let offload_events = (self.shard_stats.offload_events_applied - offload_before) as usize;
        let work = (after - before) as usize
            + handoffs
            + timer_events
            + backlog
            + offload_events
            + tx_backlog;
        (work, backlog + tx_backlog > 0)
    }

    /// Drains up to `rx_budget` frames — handoffs from other shards first,
    /// then this shard's device queues round-robin. Returns the backlog
    /// still pending afterwards — remaining work the caller reports so the
    /// runtime keeps seeing progress under a flood without this pass
    /// starving timers or the other pollers.
    ///
    /// Each `rx_burst` pumps the port's whole fabric mailbox into the
    /// descriptor rings, and nothing lands in the mailbox during a pass,
    /// so a burst shorter than asked leaves its queue empty: the pass
    /// neither asks that queue again nor pumps again to size the backlog,
    /// which it reads from the rings.
    fn rx_pass(&mut self) -> usize {
        let budget = self.config.rx_budget;
        // Each pass re-opens every tenant's RX slice; what a tenant did
        // not use last pass does not carry over (no RX banking).
        if let Some(ten) = &mut self.tenancy {
            ten.rx_used.fill(0);
        }
        // One clock read per pass, not per frame: every per-frame handler
        // below receives the hoisted timestamp.
        let now = self.clock.now();
        let mut processed = 0;
        while processed < budget {
            let Some(mbuf) = self.handoff.pop_front() else {
                break;
            };
            processed += 1;
            self.shard_stats.handoffs_in += 1;
            // Already steered here by the owning check — dispatch directly.
            self.dispatch_frame(mbuf, now);
        }
        let nq = self.queues.len();
        let mut idle_queues = 0;
        // Queues a short burst left empty (bit per position in `queues`);
        // past 64 queues every queue is asked until it answers empty.
        let mut drained = 0u64;
        let mut pumped = false;
        while processed < budget && idle_queues < nq {
            let pos = self.rr_next;
            self.rr_next = (self.rr_next + 1) % nq;
            if pos < 64 && drained & (1 << pos) != 0 {
                idle_queues += 1;
                continue;
            }
            let max = (budget - processed).min(RX_BURST);
            let burst = self.port.rx_burst(self.queues[pos], max);
            pumped = true;
            // Pulling from the device pumps its RX pipeline, which may
            // have absorbed or served frames on the NIC: apply the sync
            // events *before* dispatching the frames it did deliver.
            self.drain_offload_events(now);
            if burst.len() < max && pos < 64 {
                drained |= 1 << pos;
            }
            if burst.is_empty() {
                idle_queues += 1;
                continue;
            }
            idle_queues = 0;
            processed += burst.len();
            for mbuf in burst {
                self.stats.rx_frames += 1;
                self.shard_stats.rx_frames += 1;
                self.handle_frame(mbuf, now);
            }
        }
        let pending: usize = self
            .queues
            .iter()
            .map(|&q| {
                if pumped {
                    self.port.rx_ring_len(q)
                } else {
                    self.port.rx_pending(q)
                }
            })
            .sum();
        let backlog = self.handoff.len() + pending;
        if processed >= budget && backlog > 0 {
            counters::count(RX_BUDGET_EXHAUSTED);
        }
        backlog
    }

    /// Routes one message drained from a ring (in-world or cross-thread).
    /// Frames were already steered here by the sender's ownership check,
    /// so they join the handoff queue for direct dispatch; ARP bindings
    /// are learned (never re-broadcast — the origin shard did that).
    fn on_shard_msg(&mut self, msg: ShardMsg) {
        match msg {
            ShardMsg::Frame(bytes) => {
                self.push_handoff(Mbuf::from_data(DemiBuffer::from_slice(&bytes)));
            }
            ShardMsg::ArpLearn(ip, mac) => {
                self.arp_learn(ip, mac);
            }
        }
    }

    /// Enqueues a handed-off frame, dropping (counted) at capacity: the
    /// handoff queue is the bounded landing zone for the exception path,
    /// not an elastic buffer.
    fn push_handoff(&mut self, mbuf: Mbuf) {
        if self.handoff.len() >= self.config.handoff_capacity {
            self.shard_stats.handoff_backpressure += 1;
            self.shard_stats.handoff_dropped += 1;
            counters::count(HANDOFF_BACKPRESSURE);
            counters::count(HANDOFF_DROPPED);
            return;
        }
        self.handoff.push_back(mbuf);
    }

    /// First touch of a frame pulled from this shard's own queue: check it
    /// actually belongs here (a SmartNIC steering program can override the
    /// RSS hash), forwarding strays to their owner — another in-world
    /// shard, or another shard world entirely when running
    /// thread-per-shard.
    fn handle_frame(&mut self, mbuf: Mbuf, now: SimTime) {
        if let Some((gidx, gtotal)) = self.global {
            // Only flows have a global owner; flowless frames (ARP) are
            // broadcast-scope — every world answers its own copy locally
            // and shares what it learned over the rings instead.
            if let Some(world) = rss::flow_queue_for_frame(mbuf.as_slice(), gtotal) {
                if world as usize != gidx as usize {
                    self.shard_stats.steering_mismatches += 1;
                    counters::count(STEERING_MISMATCHES);
                    self.ext_forwards
                        .push((world as usize, mbuf.as_slice().to_vec()));
                    return;
                }
            }
        }
        if self.num_shards > 1 {
            let owner = rss::queue_for_frame(mbuf.as_slice(), self.num_shards as u16) as usize;
            if owner != self.index {
                self.shard_stats.steering_mismatches += 1;
                counters::count(STEERING_MISMATCHES);
                self.forwards.push((owner, mbuf));
                return;
            }
        }
        self.dispatch_frame(mbuf, now);
    }

    /// Per-tenant RX budget slices: each poll pass splits the shard's RX
    /// budget across tenants in proportion to `rx_share`, and a tenant's
    /// frames beyond its slice are dropped here (counted) — one tenant's
    /// RX flood can saturate only its own slice of the pass, never the
    /// whole budget. Frames to host-owned ports are never policed.
    fn rx_admit(&mut self, dst_port: u16) -> bool {
        let Some(ten) = &mut self.tenancy else {
            return true;
        };
        let owner = ten.registry.port_owner(dst_port);
        if owner.is_host() {
            return true;
        }
        let Some(idx) = ten.lane_idx(owner) else {
            return true;
        };
        if ten.rx_used[idx] >= ten.rx_slice[idx] {
            ten.lanes[idx].stats.rx_quota_drops += 1;
            counters::count(QUOTA_DROPS);
            return false;
        }
        ten.rx_used[idx] += 1;
        true
    }

    fn dispatch_frame(&mut self, mbuf: Mbuf, now: SimTime) {
        let ethertype = match EthHeader::parse(mbuf.as_slice()) {
            Ok((eth, _)) => eth.ethertype,
            Err(_) => {
                self.stats.malformed += 1;
                return;
            }
        };
        match ethertype {
            EtherType::Arp => self.handle_arp(&mbuf.as_slice()[ETH_HEADER_LEN..], now),
            EtherType::Ipv4 => self.handle_ipv4(mbuf, now),
            EtherType::Other(_) => self.stats.not_for_us += 1,
        }
    }

    fn handle_arp(&mut self, payload: &[u8], now: SimTime) {
        let Ok(pkt) = ArpPacket::parse(payload) else {
            self.stats.malformed += 1;
            return;
        };
        // Opportunistically learn the sender's binding either way.
        let actions = self.arp.insert(pkt.sender_ip, pkt.sender_mac, now);
        self.run_arp_actions(actions);
        if self.num_shards > 1 || self.global.is_some() {
            // An ARP reply is RSS-steered by source MAC, not by the flow
            // that asked — the shard (or shard world) waiting on it may be
            // another one.
            self.learned.push((pkt.sender_ip, pkt.sender_mac));
        }
        if pkt.op == ArpOp::Request && pkt.target_ip == self.config.ip {
            let reply = ArpPacket {
                op: ArpOp::Reply,
                sender_mac: self.port.mac(),
                sender_ip: self.config.ip,
                target_mac: pkt.sender_mac,
                target_ip: pkt.sender_ip,
            };
            self.stats.arp_replies += 1;
            let buf = self.control_buffer(&reply.serialize());
            self.tx_frame(pkt.sender_mac, EtherType::Arp, buf);
        }
    }

    /// Learns an ARP binding discovered by another shard; flushes anything
    /// this shard had queued on that resolution. Returns the work done
    /// (frames sent plus unreachable drops), for the poller's work report.
    fn arp_learn(&mut self, ip: Ipv4Addr, mac: MacAddress) -> usize {
        let now = self.clock.now();
        let before = self.stats.tx_frames + self.stats.unreachable_drops;
        let actions = self.arp.insert(ip, mac, now);
        self.run_arp_actions(actions);
        self.flush_tx();
        (self.stats.tx_frames + self.stats.unreachable_drops - before) as usize
    }

    fn handle_ipv4(&mut self, mbuf: Mbuf, now: SimTime) {
        // Scalars first, so the borrow of the frame ends before we carve
        // zero-copy views out of (and possibly drop) the mbuf.
        let (src, protocol, ip_payload_off, ip_payload_len) = {
            let frame = mbuf.as_slice();
            let ip_bytes = &frame[ETH_HEADER_LEN..];
            let Ok((ip, payload)) = Ipv4Header::parse(ip_bytes) else {
                self.stats.malformed += 1;
                return;
            };
            if ip.dst != self.config.ip {
                self.stats.not_for_us += 1;
                return;
            }
            let ihl = ((ip_bytes[0] & 0x0F) as usize) * 4;
            (ip.src, ip.protocol, ETH_HEADER_LEN + ihl, payload.len())
        };
        // RX budget policing happens here — after demux scalars are known
        // (the destination port names the owning tenant) but before any
        // protocol work is spent on the frame. Both arrival paths (own
        // queue and handoff) funnel through this point exactly once.
        if self.tenancy.is_some()
            && matches!(protocol, IpProtocol::Udp | IpProtocol::Tcp)
            && mbuf.as_slice().len() >= ip_payload_off + 4
        {
            let frame = mbuf.as_slice();
            let dst_port =
                u16::from_be_bytes([frame[ip_payload_off + 2], frame[ip_payload_off + 3]]);
            if !self.rx_admit(dst_port) {
                return;
            }
        }
        match protocol {
            IpProtocol::Icmp => {
                let view = mbuf
                    .data
                    .slice(ip_payload_off, ip_payload_off + ip_payload_len);
                // Drop the full-frame handle: an echo reply can then rewrite
                // the received buffer's headers in place and send it back.
                drop(mbuf);
                self.handle_icmp(src, view);
            }
            IpProtocol::Udp => {
                let payload = &mbuf.as_slice()[ip_payload_off..][..ip_payload_len];
                let Ok((udp, payload_len)) = UdpHeader::parse(src, self.config.ip, payload) else {
                    self.stats.malformed += 1;
                    return;
                };
                let start = ip_payload_off + UDP_HEADER_LEN;
                let view = mbuf.data.slice(start, start + payload_len);
                let from = SocketAddr::new(src, udp.src_port);
                self.udp.deliver(from, udp.dst_port, view);
            }
            IpProtocol::Tcp => {
                let payload = &mbuf.as_slice()[ip_payload_off..][..ip_payload_len];
                let Ok((tcp, data_off)) =
                    crate::tcp::TcpHeader::parse(src, self.config.ip, payload)
                else {
                    self.stats.malformed += 1;
                    return;
                };
                let start = ip_payload_off + data_off;
                let end = ip_payload_off + ip_payload_len;
                let view = mbuf.data.slice(start, end);
                self.tcp.on_segment(src, &tcp, view, now);
            }
            IpProtocol::Other(_) => self.stats.not_for_us += 1,
        }
    }

    fn handle_icmp(&mut self, src: Ipv4Addr, packet: DemiBuffer) {
        let Ok(echo) = IcmpEcho::parse(&packet) else {
            self.stats.malformed += 1;
            return;
        };
        if echo.is_request {
            self.stats.icmp_replies += 1;
            // Release our view of the request packet; `echo.payload` is the
            // only surviving handle, so `into_packet` can reuse the RX
            // buffer for the reply (its trimmed headers are exactly the
            // headroom the reply needs).
            drop(packet);
            let reply = echo.reply().into_packet(IPV4_HEADER_LEN + ETH_HEADER_LEN);
            self.send_ip(src, IpProtocol::Icmp, reply);
        } else {
            self.pongs.push((src, echo.ident, echo.seq));
        }
    }

    fn timer_pass(&mut self) -> usize {
        let now = self.clock.now();
        let actions = self.arp.poll(now);
        self.run_arp_actions(actions);
        self.tcp.on_tick(now)
    }

    /// Applies the device's queued sync events to this shard's control
    /// blocks, in order. The engine is shared by every shard of the
    /// stack, so events for flows another shard owns are restored to the
    /// front of the queue untouched — each flow's events are applied
    /// exactly once, by its owner, in emission order.
    fn drain_offload_events(&mut self, now: SimTime) -> usize {
        let Some(off) = &mut self.offload else {
            return 0;
        };
        let events = off.engine.borrow_mut().take_events();
        if events.is_empty() {
            return 0;
        }
        let mut foreign = Vec::new();
        let mut applied = 0usize;
        for ev in events {
            let key = match &ev {
                OffloadEvent::AckAdvance { key, .. }
                | OffloadEvent::Served { key, .. }
                | OffloadEvent::Flushed { key, .. }
                | OffloadEvent::FellBack { key } => *key,
            };
            let Some(&conn) = off.armed.get(&key) else {
                foreign.push(ev);
                continue;
            };
            applied += 1;
            match ev {
                OffloadEvent::AckAdvance { ack, window, .. } => {
                    self.tcp.offload_ack(conn, ack, window, now);
                }
                OffloadEvent::Served {
                    rx_len,
                    reply,
                    served_at,
                    ..
                } => {
                    if demi_telemetry::enabled() {
                        demi_telemetry::stage::record(
                            demi_telemetry::stage::Stage::DeviceServed,
                            now.saturating_since(served_at).as_nanos(),
                        );
                    }
                    self.tcp.offload_served(conn, rx_len, reply, now);
                }
                OffloadEvent::Flushed { data, .. } => {
                    self.tcp.offload_flushed(conn, data, now);
                }
                OffloadEvent::FellBack { .. } => {
                    off.armed.remove(&key);
                    off.by_conn.remove(&conn);
                }
            }
        }
        if !foreign.is_empty() {
            off.engine.borrow_mut().restore_events(foreign);
        }
        self.shard_stats.offload_events_applied += applied as u64;
        applied
    }

    /// Takes `conn` back from the device before a host-side mutation
    /// (send, close, abort): disarms the flow, applies the flushed bytes
    /// and any other pending sync events, and forgets the arming. No-op
    /// for unarmed connections.
    fn offload_release_conn(&mut self, conn: ConnId) {
        let Some(off) = &self.offload else {
            return;
        };
        let Some(&key) = off.by_conn.get(&conn) else {
            return;
        };
        off.engine.borrow_mut().disarm_flow(key);
        let now = self.clock.now();
        // The flushed bytes apply through the normal drain (the key is
        // still in the armed map); dropping the map entries afterwards
        // completes the release.
        self.drain_offload_events(now);
        if let Some(off) = &mut self.offload {
            off.armed.remove(&key);
            off.by_conn.remove(&conn);
        }
    }

    /// Arms every quiescent, not-yet-armed Established connection on the
    /// offloaded port. Quiescence (nothing queued, unacked, or out of
    /// order) guarantees the shadow state handed to the device — next
    /// expected sequence number, next transmit sequence number — is the
    /// complete truth about the flow, so device and host cannot diverge.
    fn rearm_offload(&mut self) {
        let Some(off) = &mut self.offload else {
            return;
        };
        for (conn, remote) in self.tcp.conns_on_port(off.port) {
            if off.by_conn.contains_key(&conn) || !self.tcp.offload_quiescent(conn) {
                continue;
            }
            let Some((rcv_nxt, snd_nxt, window, mss)) = self.tcp.offload_arm_info(conn) else {
                continue;
            };
            let key: FlowKey = (remote.ip.octets(), remote.port);
            off.engine.borrow_mut().arm_flow(
                key,
                FlowShadow {
                    rcv_nxt,
                    snd_nxt,
                    window,
                    mss,
                },
            );
            off.armed.insert(key, conn);
            off.by_conn.insert(conn, key);
            self.shard_stats.offload_rearms += 1;
        }
    }

    fn flush_tcp(&mut self) {
        let mut out = std::mem::take(&mut self.tcp_out);
        self.tcp.drain_segments(&mut out);
        for (dst_ip, seg) in out.drain(..) {
            // The retransmission queue keeps clones *at the same offset*, so
            // prepending below them is legal; a previous transmission of
            // this very segment still in flight holds a view *below* and
            // forces a (counted) copy instead of corrupting it.
            let mut segment = if seg
                .payload
                .can_prepend(TCP_MAX_HEADER_LEN + IPV4_HEADER_LEN + ETH_HEADER_LEN)
            {
                seg.payload
            } else {
                seg.payload.copy_with_headroom(MAX_HEADER_LEN)
            };
            let src_ip = self.config.ip;
            seg.header
                .prepend_onto(src_ip, dst_ip, &mut segment)
                .expect("headroom ensured above");
            self.send_ip(dst_ip, IpProtocol::Tcp, segment);
        }
        self.tcp_out = out;
        // Ephemeral ports freed by expired TIME_WAIT records (or aborted
        // connections) go back to the host-wide namespace here, after the
        // final segments of those connections are on the wire. Transient
        // tenant grants (made at connect time) are revoked in the same
        // breath, so a recycled port arrives unowned.
        while let Some(p) = self.tcp.pop_released_port() {
            if let Some(ten) = &self.tenancy {
                ten.registry.revoke_port(p);
            }
            self.ports.release(p);
        }
    }

    /// Prepends an IPv4 header onto `packet` in place and resolves the next
    /// hop, queueing the buffer handle on ARP misses.
    fn send_ip(&mut self, dst: Ipv4Addr, protocol: IpProtocol, packet: DemiBuffer) {
        debug_assert!(
            IPV4_HEADER_LEN + packet.len() <= self.config.mtu,
            "IP packet exceeds MTU"
        );
        let header = Ipv4Header {
            src: self.config.ip,
            dst,
            protocol,
            payload_len: packet.len(),
        };
        let mut packet = if packet.can_prepend(IPV4_HEADER_LEN + ETH_HEADER_LEN) {
            packet
        } else {
            packet.copy_with_headroom(IPV4_HEADER_LEN + ETH_HEADER_LEN)
        };
        header
            .prepend_onto(&mut packet)
            .expect("headroom ensured above");
        let now = self.clock.now();
        match self.arp.lookup(dst, now) {
            Some(mac) => self.tx_frame(mac, EtherType::Ipv4, packet),
            None => {
                let actions = self.arp.enqueue_pending(dst, packet, now);
                self.run_arp_actions(actions);
            }
        }
    }

    fn run_arp_actions(&mut self, actions: Vec<ArpAction>) {
        for action in actions {
            match action {
                ArpAction::SendPending(mac, packet) => {
                    self.tx_frame(mac, EtherType::Ipv4, packet);
                }
                ArpAction::SendRequest(ip) => {
                    self.stats.arp_requests += 1;
                    let request = ArpPacket {
                        op: ArpOp::Request,
                        sender_mac: self.port.mac(),
                        sender_ip: self.config.ip,
                        target_mac: MacAddress::new([0; 6]),
                        target_ip: ip,
                    };
                    let buf = self.control_buffer(&request.serialize());
                    self.tx_frame(MacAddress::BROADCAST, EtherType::Arp, buf);
                }
                ArpAction::FailPending(_) => {
                    self.stats.unreachable_drops += 1;
                }
            }
        }
    }

    /// Allocates a pool buffer holding `bytes` with Ethernet headroom, for
    /// small control packets (ARP) the stack originates itself.
    fn control_buffer(&self, bytes: &[u8]) -> DemiBuffer {
        debug_assert_eq!(bytes.len(), ARP_LEN);
        let mut buf = self
            .port
            .mempool()
            .alloc_buffer_with_headroom(ETH_HEADER_LEN, bytes.len());
        buf.try_mut()
            .expect("freshly allocated buffer is exclusive")
            .copy_from_slice(bytes);
        buf
    }

    /// Prepends the Ethernet header in place and enqueues the same buffer
    /// on the TX coalescing ring — the zero-copy tail of every TX path.
    /// With coalescing disabled the frame is handed over immediately (one
    /// `tx_burst` per frame, the unbatched baseline).
    fn tx_frame(&mut self, dst: MacAddress, ethertype: EtherType, payload: DemiBuffer) {
        let eth = EthHeader {
            dst,
            src: self.port.mac(),
            ethertype,
        };
        let mut frame = if payload.can_prepend(ETH_HEADER_LEN) {
            payload
        } else {
            payload.copy_with_headroom(ETH_HEADER_LEN)
        };
        eth.prepend_onto(&mut frame)
            .expect("headroom ensured above");
        // TX attribution is the buffer stamp: headers were prepended in
        // place (or copied stamp-preserving), so the frame still names
        // the tenant whose payload it carries. Tenant frames park in the
        // tenant's own bounded staging lane until the deficit round-robin
        // admits them; HOST frames (stack control traffic, single-tenant
        // stacks) go straight to the shared ring with control-plane
        // priority.
        let tenant = frame.tenant();
        if !tenant.is_host() {
            if let Some(idx) = self.tenancy.as_ref().and_then(|t| t.lane_idx(tenant)) {
                let ten = self.tenancy.as_mut().expect("lane found above");
                let lane = &mut ten.lanes[idx];
                if lane.staging.len() >= lane.capacity {
                    // The flooding tenant's own frame drops at its own
                    // bound — the shared ring never sees the overflow.
                    lane.stats.quota_drops += 1;
                    counters::count(QUOTA_DROPS);
                    return;
                }
                lane.staging.push_back(Mbuf::from_data(frame));
                if self.config.tx_coalesce {
                    self.bell.ring();
                } else {
                    self.flush_tx();
                }
                return;
            }
        }
        self.stats.tx_frames += 1;
        self.tx_ring.push(Mbuf::from_data(frame));
        if demi_telemetry::enabled() {
            self.tx_stamps.push(demi_telemetry::now_ns());
        }
        if self.config.tx_coalesce {
            self.bell.ring();
        } else {
            self.flush_tx();
        }
    }

    /// Deficit-round-robin admission from the tenant staging lanes into
    /// the shared TX ring, ahead of the single `tx_burst` doorbell.
    /// Each round credits every backlogged lane `weight × MTU` bytes of
    /// deficit and serves its head frames while they fit — so under
    /// saturation tenants share the doorbell in proportion to weight,
    /// regardless of offered load. A lane whose head the token bucket
    /// refuses is deferred (deficit reset: the bucket, not the round,
    /// owns its next send time) and wakes via the bucket deadline folded
    /// into [`NetworkStack::next_deadline`]. Returns the frames left
    /// staged by the shared per-pass byte budget — reported as poll
    /// backlog so the scheduler keeps draining; rate-limited leftovers
    /// are *not* counted (polling cannot make tokens refill).
    fn drr_fill(&mut self) -> usize {
        let Shard {
            tenancy,
            tx_ring,
            tx_stamps,
            stats,
            clock,
            config,
            ..
        } = self;
        let Some(ten) = tenancy else {
            return 0;
        };
        if ten.lanes.iter().all(|l| l.staging.is_empty()) {
            return 0;
        }
        let now_ns = clock.now().as_nanos();
        let telemetry = demi_telemetry::enabled();
        let mut remaining = ten.tx_pass_bytes;
        let quantum_unit = config.mtu as u64;
        let nlanes = ten.lanes.len();
        let mut budget_capped = false;
        let mut capped_at = ten.next_lane;
        // A prior budget-capped fill stopped mid-round in `next_lane`:
        // that lane already holds this round's quantum, so the first
        // visit resumes it credit-free.
        let mut skip_credit = std::mem::take(&mut ten.resume_mid_round);
        'fill: loop {
            let mut progressed = false;
            counters::count(TX_DEFICIT_ROUNDS);
            for off in 0..nlanes {
                let idx = (ten.next_lane + off) % nlanes;
                let lane = &mut ten.lanes[idx];
                let resumed = off == 0 && std::mem::take(&mut skip_credit);
                if lane.staging.is_empty() {
                    lane.deficit = 0;
                    continue;
                }
                if !resumed {
                    lane.deficit = lane
                        .deficit
                        .saturating_add(lane.weight as u64 * quantum_unit);
                }
                let mut deferred = false;
                while let Some(front) = lane.staging.front() {
                    let bytes = front.as_slice().len() as u64;
                    if bytes > lane.deficit {
                        break;
                    }
                    if remaining.is_some_and(|rem| bytes > rem) {
                        budget_capped = true;
                        capped_at = idx;
                        break 'fill;
                    }
                    if let Some(b) = &mut lane.bucket {
                        if !b.try_consume(bytes, now_ns) {
                            deferred = true;
                            break;
                        }
                    }
                    let mbuf = lane.staging.pop_front().expect("peeked above");
                    lane.deficit -= bytes;
                    if let Some(rem) = &mut remaining {
                        *rem -= bytes;
                    }
                    lane.stats.sent_frames += 1;
                    lane.stats.sent_bytes += bytes;
                    stats.tx_frames += 1;
                    tx_ring.push(mbuf);
                    if telemetry {
                        tx_stamps.push(demi_telemetry::now_ns());
                    }
                    progressed = true;
                }
                if deferred {
                    lane.deficit = 0;
                    lane.stats.rate_deferrals += 1;
                    counters::count(RATE_LIMITED_FRAMES);
                }
                if lane.staging.is_empty() {
                    lane.deficit = 0;
                }
            }
            ten.next_lane = (ten.next_lane + 1) % nlanes;
            if !progressed {
                break;
            }
        }
        if budget_capped {
            // Resume the interrupted round exactly where it stopped.
            ten.next_lane = capped_at;
            ten.resume_mid_round = true;
            ten.lanes.iter().map(|l| l.staging.len()).sum()
        } else {
            0
        }
    }

    /// Earliest token-bucket wakeup across this shard's staged lanes —
    /// the virtual time the next rate-limited head frame fits. Folding
    /// this into the stack's timer horizon makes a paced lane resume
    /// exactly on schedule instead of whenever other traffic polls.
    fn tenancy_next_deadline(&self) -> Option<SimTime> {
        let ten = self.tenancy.as_ref()?;
        let now_ns = self.clock.now().as_nanos();
        ten.lanes
            .iter()
            .filter_map(|lane| {
                let front = lane.staging.front()?;
                let bucket = lane.bucket.as_ref()?;
                let ready = bucket.next_ready_ns(front.as_slice().len() as u64, now_ns)?;
                Some(SimTime::from_nanos(ready))
            })
            .min()
    }

    /// Hands the whole TX ring to the device in one burst, preserving
    /// enqueue order. Runs at the end of every poll pass, and every push
    /// onto the ring rings the shard's bell, which the runtime answers
    /// before it advances virtual time — so coalescing never holds a frame
    /// across a clock jump: latency is not traded for throughput. Tenant staging lanes drain through the deficit
    /// round-robin first; the returned count is their budget-capped
    /// leftover (poll backlog), zero without tenancy.
    fn flush_tx(&mut self) -> usize {
        let leftover = self.drr_fill();
        if self.tx_ring.is_empty() {
            self.tx_stamps.clear();
            return leftover;
        }
        self.port.tx_burst(&self.tx_ring);
        // One sample per stamped frame. Telemetry toggled mid-ring leaves
        // fewer stamps than frames; those samples are simply dropped.
        if !self.tx_stamps.is_empty() && self.tx_stamps.len() == self.tx_ring.len() {
            let now = demi_telemetry::now_ns();
            for &enqueued_ns in &self.tx_stamps {
                demi_telemetry::stage::record(
                    demi_telemetry::stage::Stage::TxFlush,
                    now.saturating_sub(enqueued_ns),
                );
            }
        }
        self.tx_stamps.clear();
        self.tx_ring.clear();
        leftover
    }
}

#[cfg(test)]
mod tests;
