//! `catnip`: the DPDK-class library OS.
//!
//! The device gives this libOS nothing but raw frames (paper Table 1,
//! left column), so catnip supplies everything the kernel used to: the
//! full [`net_stack`] (ARP/IPv4/UDP/TCP), buffer management from
//! device-registered pools, and framing that preserves atomic data units
//! over TCP's byte stream (§5.2). UDP queues map 1:1 onto datagrams; TCP
//! queues carry length-prefixed messages so a pushed Sga pops as one
//! element on the other side.
//!
//! Zero-copy: received payloads are [`demi_memory::DemiBuffer`] views into
//! the device's mbufs; pushed buffers are handle-cloned into the stack
//! (free-protection keeps them alive until the device is done).
//!
//! Offload: on a SmartNIC-configured port,
//! [`LibOs::try_offload_filter`] compiles an Sga predicate into a
//! device-side frame filter for the queue's UDP port (experiment E6).

use std::cell::RefCell;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::rc::Rc;

use demi_memory::{DemiBuffer, MemoryManager};
use demi_telemetry::counters::{BYTES_COPIED, CONTROL_PATH_SYSCALLS, COPIES, POPS, PUSHES};
use dpdk_sim::{DpdkPort, NicProgram, PortConfig};
use net_stack::framing::{encode_header, FrameDecoder};
use net_stack::tcp::{ConnId, ListenerId, State};
use net_stack::types::{NetError, SocketAddr};
use net_stack::{NetworkStack, StackConfig};
use sim_fabric::{DeviceCaps, Fabric, MacAddress};

use crate::libos::{LibOs, LibOsKind, SocketKind};
use crate::runtime::Runtime;
use crate::types::{DemiError, OperationResult, QDesc, QToken, Sga};

enum CatnipQueue {
    UdpUnbound,
    Udp {
        port: u16,
        remote: Option<SocketAddr>,
    },
    TcpUnbound {
        bound: Option<SocketAddr>,
    },
    TcpListener {
        listener: ListenerId,
    },
    TcpConn {
        conn: ConnId,
        decoder: Rc<RefCell<FrameDecoder>>,
    },
}

struct Inner {
    queues: HashMap<QDesc, CatnipQueue>,
    next_qd: u32,
}

/// The DPDK-class libOS.
#[derive(Clone)]
pub struct Catnip {
    runtime: Runtime,
    stack: Rc<NetworkStack>,
    port: DpdkPort,
    memory: MemoryManager,
    inner: Rc<RefCell<Inner>>,
}

impl Catnip {
    /// Creates a catnip instance on a plain (non-programmable) port.
    pub fn new(runtime: &Runtime, fabric: &Fabric, mac: MacAddress, ip: Ipv4Addr) -> Self {
        Self::with_port_config(runtime, fabric, PortConfig::basic(mac), ip)
    }

    /// Creates a catnip instance with an explicit port configuration
    /// (e.g., SmartNIC program slots for offload experiments).
    pub fn with_port_config(
        runtime: &Runtime,
        fabric: &Fabric,
        port_config: PortConfig,
        ip: Ipv4Addr,
    ) -> Self {
        Self::with_stack_config(runtime, fabric, port_config, StackConfig::new(ip))
    }

    /// Creates a catnip instance with explicit stack tunables — the
    /// batching experiments (E13) build unbatched baselines by turning
    /// `tx_coalesce`/`delayed_acks` off.
    pub fn with_stack_config(
        runtime: &Runtime,
        fabric: &Fabric,
        port_config: PortConfig,
        config: StackConfig,
    ) -> Self {
        Self::with_shared_ports(
            runtime,
            fabric,
            port_config,
            config,
            std::sync::Arc::new(net_stack::PortAllocator::new()),
        )
    }

    /// Creates a catnip instance whose TCP port namespace is `ports` —
    /// shared across the shard worlds of one logical host under
    /// thread-per-shard execution, so an ephemeral port allocated in one
    /// world is never reissued in another.
    pub fn with_shared_ports(
        runtime: &Runtime,
        fabric: &Fabric,
        port_config: PortConfig,
        config: StackConfig,
        ports: std::sync::Arc<net_stack::PortAllocator>,
    ) -> Self {
        let port = DpdkPort::new(fabric, port_config);
        let stack = Rc::new(NetworkStack::with_ports(
            port.clone(),
            fabric.clock(),
            config,
            ports,
        ));
        // One gated poller per stack shard: the runtime polls a shard only
        // when its doorbell rang (a delivery, a TX push, a cross-shard
        // send, a reached deadline), and the shard publishes its protocol
        // timers into the runtime's deadline index.
        for shard in 0..stack.num_shards() {
            let poll_stack = stack.clone();
            let deadline = runtime
                .register_gated_poller(stack.doorbell(shard), move || poll_stack.poll_shard(shard));
            stack.publish_deadlines(shard, deadline);
        }
        // Every blocking loop below parks on the readiness signal of the
        // one socket it waits on, which the stack fires where that
        // socket's state changes: a frame wakes its own connection's
        // waiters, not every parked coroutine in the world.
        Catnip {
            runtime: runtime.clone(),
            stack,
            port,
            memory: MemoryManager::warmed(),
            inner: Rc::new(RefCell::new(Inner {
                queues: HashMap::new(),
                next_qd: 1,
            })),
        }
    }

    /// This host's IP address.
    pub fn local_ip(&self) -> Ipv4Addr {
        self.stack.local_ip()
    }

    /// The underlying stack (experiment instrumentation).
    pub fn stack(&self) -> &NetworkStack {
        &self.stack
    }

    /// The underlying device port (experiment instrumentation).
    pub fn port(&self) -> &DpdkPort {
        &self.port
    }

    /// The libOS memory manager (registration accounting, E5).
    pub fn memory(&self) -> &MemoryManager {
        &self.memory
    }

    fn alloc_qd(&self, q: CatnipQueue) -> QDesc {
        let mut inner = self.inner.borrow_mut();
        let qd = QDesc(inner.next_qd);
        inner.next_qd += 1;
        inner.queues.insert(qd, q);
        qd
    }

    /// Flattens an Sga into one contiguous datagram payload. Single-seg
    /// arrays pass through zero-copy (the same buffer handle travels down
    /// the stack); multi-seg arrays gather into a pool buffer with header
    /// headroom (counted).
    fn gather(&self, sga: &Sga) -> DemiBuffer {
        if sga.seg_count() == 1 {
            return sga.segments()[0].clone();
        }
        let metrics = self.runtime.metrics();
        metrics.count(COPIES);
        metrics.add(BYTES_COPIED, sga.len() as u64);
        let mut buf = self.memory.alloc(sga.len());
        let dst = buf.try_mut().expect("fresh buffer");
        let mut off = 0;
        for seg in sga.segments() {
            dst[off..off + seg.len()].copy_from_slice(seg.as_slice());
            off += seg.len();
        }
        buf
    }

    /// Builds the 8-byte stream framing header in a pool buffer with
    /// header headroom, so the stack can wrap it without reallocating.
    fn framing_header(&self, payload_len: usize) -> DemiBuffer {
        let mut buf = self.memory.alloc(net_stack::framing::FRAME_HEADER_LEN);
        buf.try_mut()
            .expect("fresh buffer")
            .copy_from_slice(&encode_header(payload_len));
        buf
    }

    // ------------------------------------------------------------------
    // Device offload programs (E17). The stack is the planner; these are
    // the application-facing install/uninstall doorbells. All of them
    // are safe no-ops-with-signal on a non-programmable port, so an app
    // can run unchanged on plain DPDK and SmartNIC configurations.
    // ------------------------------------------------------------------

    /// Installs a NIC-side echo short-circuit for TCP connections on
    /// local `port`: the device reflects complete framed messages
    /// without an RX→host→TX crossing.
    pub fn install_echo_offload(&self, port: u16) -> Result<(), DemiError> {
        self.runtime.metrics().count(CONTROL_PATH_SYSCALLS);
        Ok(self.stack.install_echo_offload(port)?)
    }

    /// Installs a NIC-resident KV GET cache (bounded to `capacity_bytes`
    /// of device memory) for TCP connections on local `port`.
    pub fn install_kv_offload(&self, port: u16, capacity_bytes: usize) -> Result<(), DemiError> {
        self.runtime.metrics().count(CONTROL_PATH_SYSCALLS);
        Ok(self.stack.install_kv_offload(port, capacity_bytes)?)
    }

    /// Uninstalls the TCP offload program, returning every flow to the
    /// pure host path mid-stream. Idempotent.
    pub fn uninstall_tcp_offload(&self) {
        self.runtime.metrics().count(CONTROL_PATH_SYSCALLS);
        self.stack.uninstall_tcp_offload();
    }

    /// Write-through populate of the device KV cache after the host
    /// served a GET miss. `false` (no KV offload installed, or the entry
    /// exceeds device memory) needs no handling — the host simply keeps
    /// serving that key.
    pub fn offload_cache_insert(&self, key: &[u8], value: &[u8]) -> bool {
        self.stack.offload_cache_insert(key, value)
    }

    /// Counters of the installed offload engine, if any.
    pub fn offload_stats(&self) -> Option<dpdk_sim::OffloadStats> {
        self.stack.offload_stats()
    }

    /// Host-driven invalidation of one device KV cache entry — required
    /// when the host store drops a key for reasons invisible on the byte
    /// stream (LRU eviction, TTL expiry). `false` (no KV offload, or key
    /// not cached) needs no handling.
    pub fn offload_cache_invalidate(&self, key: &[u8]) -> bool {
        self.stack.offload_cache_invalidate(key)
    }

    // ------------------------------------------------------------------
    // Raw-stream TCP I/O. The framed push/pop above preserve atomic data
    // units for Demikernel-native peers; protocol servers (demi-kv's
    // RESP) speak self-delimiting wire formats and need the bare byte
    // stream instead.
    // ------------------------------------------------------------------

    /// Pushes `sga` onto a TCP connection **without** the 8-byte DEMI
    /// framing header: each segment travels down the stack zero-copy as
    /// raw stream bytes. For self-delimiting protocols (RESP).
    pub fn push_unframed(&self, qd: QDesc, sga: &Sga) -> Result<QToken, DemiError> {
        self.runtime.metrics().count(PUSHES);
        let inner = self.inner.borrow();
        match inner.queues.get(&qd) {
            Some(CatnipQueue::TcpConn { conn, .. }) => {
                let conn = *conn;
                drop(inner);
                for seg in sga.segments() {
                    self.stack.tcp_send(conn, seg.clone())?;
                }
                Ok(self
                    .runtime
                    .spawn_op("catnip::tcp_push_unframed", async { OperationResult::Push }))
            }
            Some(_) => Err(DemiError::InvalidState),
            None => Err(DemiError::BadQDesc),
        }
    }

    /// Pops whatever stream bytes have arrived on a TCP connection — one
    /// zero-copy chunk per completion, no message framing. Blocks until
    /// at least one byte is available; fails `Closed` at clean EOF.
    pub fn pop_unframed(&self, qd: QDesc) -> Result<QToken, DemiError> {
        self.runtime.metrics().count(POPS);
        let inner = self.inner.borrow();
        match inner.queues.get(&qd) {
            Some(CatnipQueue::TcpConn { conn, .. }) => {
                let conn = *conn;
                let stack = self.stack.clone();
                drop(inner);
                let ready = stack.tcp_readiness(conn);
                Ok(self
                    .runtime
                    .spawn_op("catnip::tcp_pop_unframed", async move {
                        loop {
                            let wait = ready.notified();
                            match stack.tcp_recv(conn) {
                                Ok(Some(chunk)) => {
                                    return OperationResult::Pop {
                                        from: None,
                                        sga: Sga::from_bufs(vec![chunk]),
                                    };
                                }
                                Ok(None) => {}
                                Err(e) => return OperationResult::Failed(e.into()),
                            }
                            if let Some(end) = tcp_read_end(&stack, conn, 0) {
                                return OperationResult::Failed(end);
                            }
                            wait.await;
                        }
                    }))
            }
            Some(_) => Err(DemiError::InvalidState),
            None => Err(DemiError::BadQDesc),
        }
    }
}

impl LibOs for Catnip {
    fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    fn kind(&self) -> LibOsKind {
        LibOsKind::Catnip
    }

    fn device_caps(&self) -> Option<DeviceCaps> {
        Some(self.port.capabilities())
    }

    fn socket(&self, kind: SocketKind) -> Result<QDesc, DemiError> {
        self.runtime.metrics().count(CONTROL_PATH_SYSCALLS);
        Ok(match kind {
            SocketKind::Udp => self.alloc_qd(CatnipQueue::UdpUnbound),
            SocketKind::Tcp => self.alloc_qd(CatnipQueue::TcpUnbound { bound: None }),
        })
    }

    fn bind(&self, qd: QDesc, addr: SocketAddr) -> Result<(), DemiError> {
        self.runtime.metrics().count(CONTROL_PATH_SYSCALLS);
        let mut inner = self.inner.borrow_mut();
        match inner.queues.get_mut(&qd) {
            Some(q @ CatnipQueue::UdpUnbound) => {
                self.stack.udp_bind(addr.port)?;
                *q = CatnipQueue::Udp {
                    port: addr.port,
                    remote: None,
                };
                Ok(())
            }
            Some(CatnipQueue::TcpUnbound { bound }) => {
                *bound = Some(addr);
                Ok(())
            }
            Some(_) => Err(DemiError::InvalidState),
            None => Err(DemiError::BadQDesc),
        }
    }

    fn listen(&self, qd: QDesc, backlog: usize) -> Result<(), DemiError> {
        self.runtime.metrics().count(CONTROL_PATH_SYSCALLS);
        let mut inner = self.inner.borrow_mut();
        match inner.queues.get_mut(&qd) {
            Some(q @ CatnipQueue::TcpUnbound { .. }) => {
                let CatnipQueue::TcpUnbound { bound } = q else {
                    unreachable!("matched above");
                };
                let addr = bound.ok_or(DemiError::InvalidState)?;
                let listener = self.stack.tcp_listen(addr.port, backlog)?;
                *q = CatnipQueue::TcpListener { listener };
                Ok(())
            }
            Some(_) => Err(DemiError::InvalidState),
            None => Err(DemiError::BadQDesc),
        }
    }

    fn accept(&self, qd: QDesc) -> Result<QToken, DemiError> {
        let listener = {
            let inner = self.inner.borrow();
            match inner.queues.get(&qd) {
                Some(CatnipQueue::TcpListener { listener }) => *listener,
                Some(_) => return Err(DemiError::InvalidState),
                None => return Err(DemiError::BadQDesc),
            }
        };
        let stack = self.stack.clone();
        let inner = self.inner.clone();
        let ready = stack.tcp_accept_readiness(listener);
        Ok(self.runtime.spawn_op("catnip::accept", async move {
            loop {
                let wait = ready.notified();
                match stack.tcp_accept(listener) {
                    Ok(Some(conn)) => {
                        let mut inner = inner.borrow_mut();
                        let qd = QDesc(inner.next_qd);
                        inner.next_qd += 1;
                        inner.queues.insert(
                            qd,
                            CatnipQueue::TcpConn {
                                conn,
                                decoder: Rc::new(RefCell::new(FrameDecoder::new())),
                            },
                        );
                        return OperationResult::Accept { qd };
                    }
                    Ok(None) => wait.await,
                    Err(e) => return OperationResult::Failed(e.into()),
                }
            }
        }))
    }

    fn connect(&self, qd: QDesc, remote: SocketAddr) -> Result<QToken, DemiError> {
        let mut inner = self.inner.borrow_mut();
        match inner.queues.get_mut(&qd) {
            // UDP connect: record the default destination.
            Some(q @ CatnipQueue::UdpUnbound) => {
                let port = self.stack.udp_bind_ephemeral()?;
                *q = CatnipQueue::Udp {
                    port,
                    remote: Some(remote),
                };
                drop(inner);
                Ok(self
                    .runtime
                    .spawn_op("catnip::udp_connect", async { OperationResult::Connect }))
            }
            Some(CatnipQueue::Udp { remote: r, .. }) => {
                *r = Some(remote);
                drop(inner);
                Ok(self
                    .runtime
                    .spawn_op("catnip::udp_connect", async { OperationResult::Connect }))
            }
            // TCP connect: initiate and watch the handshake.
            Some(CatnipQueue::TcpUnbound { .. }) => {
                let conn = self.stack.tcp_connect(remote)?;
                inner.queues.insert(
                    qd,
                    CatnipQueue::TcpConn {
                        conn,
                        decoder: Rc::new(RefCell::new(FrameDecoder::new())),
                    },
                );
                drop(inner);
                let stack = self.stack.clone();
                let ready = stack.tcp_readiness(conn);
                Ok(self.runtime.spawn_op("catnip::tcp_connect", async move {
                    loop {
                        let wait = ready.notified();
                        match stack.tcp_state(conn) {
                            Ok(State::Established) => return OperationResult::Connect,
                            Ok(State::Closed) => {
                                let err = stack
                                    .tcp_error(conn)
                                    .map(DemiError::Net)
                                    .unwrap_or(DemiError::Closed);
                                return OperationResult::Failed(err);
                            }
                            Ok(_) => wait.await,
                            Err(e) => return OperationResult::Failed(e.into()),
                        }
                    }
                }))
            }
            Some(_) => Err(DemiError::InvalidState),
            None => Err(DemiError::BadQDesc),
        }
    }

    fn close(&self, qd: QDesc) -> Result<(), DemiError> {
        self.runtime.metrics().count(CONTROL_PATH_SYSCALLS);
        let mut inner = self.inner.borrow_mut();
        match inner.queues.remove(&qd) {
            Some(CatnipQueue::Udp { port, .. }) => {
                self.stack.udp_close(port);
                Ok(())
            }
            Some(CatnipQueue::TcpConn { conn, .. }) => {
                self.stack.tcp_close(conn)?;
                Ok(())
            }
            Some(CatnipQueue::TcpListener { listener }) => {
                self.stack.tcp_close_listener(listener);
                Ok(())
            }
            Some(_) => Ok(()),
            None => Err(DemiError::BadQDesc),
        }
    }

    fn push(&self, qd: QDesc, sga: &Sga) -> Result<QToken, DemiError> {
        self.runtime.metrics().count(PUSHES);
        let inner = self.inner.borrow();
        match inner.queues.get(&qd) {
            Some(CatnipQueue::Udp { port, remote }) => {
                let remote = remote.ok_or(DemiError::InvalidState)?;
                let (port, payload) = (*port, self.gather(sga));
                drop(inner);
                self.stack.udp_sendto(port, remote, payload)?;
                Ok(self
                    .runtime
                    .spawn_op("catnip::udp_push", async { OperationResult::Push }))
            }
            Some(CatnipQueue::TcpConn { conn, .. }) => {
                let conn = *conn;
                drop(inner);
                // Framing header, then each segment zero-copy (the stack
                // holds buffer clones: free-protection in action).
                let header = self.framing_header(sga.len());
                self.stack.tcp_send(conn, header)?;
                for seg in sga.segments() {
                    self.stack.tcp_send(conn, seg.clone())?;
                }
                Ok(self
                    .runtime
                    .spawn_op("catnip::tcp_push", async { OperationResult::Push }))
            }
            Some(_) => Err(DemiError::InvalidState),
            None => Err(DemiError::BadQDesc),
        }
    }

    fn pushto(&self, qd: QDesc, sga: &Sga, to: SocketAddr) -> Result<QToken, DemiError> {
        self.runtime.metrics().count(PUSHES);
        let inner = self.inner.borrow();
        match inner.queues.get(&qd) {
            Some(CatnipQueue::Udp { port, .. }) => {
                let (port, payload) = (*port, self.gather(sga));
                drop(inner);
                self.stack.udp_sendto(port, to, payload)?;
                Ok(self
                    .runtime
                    .spawn_op("catnip::udp_pushto", async { OperationResult::Push }))
            }
            Some(_) => Err(DemiError::InvalidState),
            None => Err(DemiError::BadQDesc),
        }
    }

    fn pop(&self, qd: QDesc) -> Result<QToken, DemiError> {
        self.runtime.metrics().count(POPS);
        let inner = self.inner.borrow();
        match inner.queues.get(&qd) {
            Some(CatnipQueue::Udp { port, .. }) => {
                let port = *port;
                let stack = self.stack.clone();
                drop(inner);
                let ready = stack.udp_readiness(port);
                Ok(self.runtime.spawn_op("catnip::udp_pop", async move {
                    loop {
                        let wait = ready.notified();
                        if let Some((from, payload)) = stack.udp_recv_from(port) {
                            return OperationResult::Pop {
                                from: Some(from),
                                sga: Sga::from_bufs(vec![payload]),
                            };
                        }
                        wait.await;
                    }
                }))
            }
            Some(CatnipQueue::TcpConn { conn, decoder }) => {
                let conn = *conn;
                let decoder = decoder.clone();
                let stack = self.stack.clone();
                drop(inner);
                let ready = stack.tcp_readiness(conn);
                Ok(self.runtime.spawn_op("catnip::tcp_pop", async move {
                    loop {
                        let wait = ready.notified();
                        // Drain arrived stream chunks into the framer.
                        loop {
                            match stack.tcp_recv(conn) {
                                Ok(Some(chunk)) => decoder.borrow_mut().push_chunk(chunk),
                                Ok(None) => break,
                                Err(e) => return OperationResult::Failed(e.into()),
                            }
                        }
                        // Pop a complete atomic unit only (paper §4.2).
                        match decoder.borrow_mut().next_message() {
                            Ok(Some(msg)) => {
                                return OperationResult::Pop {
                                    from: None,
                                    sga: Sga::from_bufs(vec![msg]),
                                };
                            }
                            Ok(None) => {}
                            Err(e) => return OperationResult::Failed(e.into()),
                        }
                        let buffered = decoder.borrow().buffered_bytes();
                        if let Some(end) = tcp_read_end(&stack, conn, buffered) {
                            return OperationResult::Failed(end);
                        }
                        wait.await;
                    }
                }))
            }
            Some(_) => Err(DemiError::InvalidState),
            None => Err(DemiError::BadQDesc),
        }
    }

    fn sgaalloc(&self, len: usize) -> Sga {
        Sga::from_bufs(vec![self.memory.alloc(len)])
    }

    fn try_offload_filter(&self, qd: QDesc, pred: Rc<dyn Fn(&Sga) -> bool>) -> bool {
        let inner = self.inner.borrow();
        let Some(CatnipQueue::Udp { port, .. }) = inner.queues.get(&qd) else {
            return false;
        };
        let udp_port = *port;
        drop(inner);
        // Compile the Sga predicate into a raw-frame program: non-UDP
        // traffic and other ports pass untouched; matching datagrams are
        // kept only if the predicate holds on their payload.
        let program = NicProgram::Filter {
            predicate: Rc::new(
                move |frame: &[u8]| match udp_payload_for_port(frame, udp_port) {
                    Some(payload) => pred(&Sga::from_slice(payload)),
                    None => true,
                },
            ),
            cycles_per_frame: 50,
        };
        self.port.install_program(program).is_ok()
    }
}

/// Why a TCP read that found nothing to return is over, if it is: the
/// connection's error (reset, handshake timeout), or `Closed` once the
/// peer's FIN arrived and no partial message (`buffered` bytes) is left.
fn tcp_read_end(stack: &NetworkStack, conn: ConnId, buffered: usize) -> Option<DemiError> {
    if let Some(e) = stack.tcp_error(conn) {
        return Some(DemiError::Net(e));
    }
    (stack.tcp_eof(conn) && buffered == 0).then_some(DemiError::Closed)
}

/// Extracts the UDP payload if `frame` is an IPv4/UDP frame addressed to
/// `port`; `None` lets unrelated traffic pass the filter.
fn udp_payload_for_port(frame: &[u8], port: u16) -> Option<&[u8]> {
    if frame.len() < 42 || frame[12] != 0x08 || frame[13] != 0x00 {
        return None; // Not IPv4.
    }
    let ip = &frame[14..];
    if ip[0] != 0x45 || ip[9] != 17 {
        return None; // Options or not UDP.
    }
    let udp = &ip[20..];
    let dst_port = u16::from_be_bytes([udp[2], udp[3]]);
    if dst_port != port {
        return None;
    }
    let udp_len = u16::from_be_bytes([udp[4], udp[5]]) as usize;
    udp.get(8..udp_len)
}

/// Maps stack errors into Demikernel errors (convenience for coroutines).
impl From<NetError> for OperationResult {
    fn from(e: NetError) -> Self {
        OperationResult::Failed(DemiError::Net(e))
    }
}

#[cfg(test)]
mod tests;
