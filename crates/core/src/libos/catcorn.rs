//! `catcorn`: the RDMA library OS.
//!
//! The RDMA device provides reliable delivery in "hardware" (Table 1
//! middle column), but the paper is explicit about what it still lacks:
//! applications "must still supply OS buffer management and flow control.
//! Applications have to register memory before using it for I/O, and
//! receivers must allocate enough buffers of the right size for senders."
//! catcorn is where that work moves into the libOS, invisibly:
//!
//! * **Transparent registration** (§4.5): each connection registers one
//!   send and one receive region at setup — a control-path cost — and the
//!   data path never registers anything.
//! * **Buffer management**: the libOS pre-posts a ring of receive slots
//!   sized to the negotiated message limit, recycling each slot after its
//!   pop; senders take slots from a send ring gated by completions. The
//!   application never sees any of it.
//! * **Flow control**: pushes wait for a free send slot, so a slow
//!   receiver back-pressures the sender through slot exhaustion instead
//!   of failing with RNR errors.
//!
//! Connection addresses: the simulation maps an IPv4 address to a fabric
//! MAC by final octet (the convention used by every testing world).

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use demi_sched::Notify;
use demi_telemetry::counters::{CONTROL_PATH_SYSCALLS, POPS, PUSHES};
use net_stack::types::SocketAddr;
use rdma_sim::{
    Completion, CqId, MrAccess, MrId, PdId, QpId, QpState, RdmaDevice, WcOpcode, WcStatus,
};
use sim_fabric::{DeviceCaps, Doorbell, Fabric, MacAddress, SimClock};

use crate::libos::{LibOs, LibOsKind, SocketKind};
use crate::metrics::Metrics;
use crate::runtime::Runtime;
use crate::types::{DemiError, OperationResult, QDesc, QToken, Sga};

/// Bytes per send/receive slot (the largest single message).
pub const SLOT_SIZE: usize = 16 * 1024;
/// Slots per ring.
pub const RING_SLOTS: usize = 32;
/// Completions the pump takes off the CQ per run.
const CQ_BATCH: usize = 64;

struct Conn {
    qp: QpId,
    send_mr: MrId,
    recv_mr: MrId,
    free_send_slots: VecDeque<usize>,
    /// wr_id → slot for in-flight sends.
    send_completions: HashMap<u64, Completion>,
    recv_ready: VecDeque<Completion>,
    /// Push-ordering tickets: pushes post in `push()`-call order even when
    /// they contend for send slots.
    next_ticket: u64,
    turn: u64,
    /// Fires on every per-connection state change a coroutine might be
    /// parked on: a completion dispatched by the pump, the push turn
    /// advancing, or a send slot being recycled.
    events: Notify,
}

enum CatcornQueue {
    Unbound { bound: Option<SocketAddr> },
    Listener { port: u16 },
    Conn(Rc<RefCell<Conn>>),
}

struct Inner {
    queues: HashMap<QDesc, CatcornQueue>,
    /// qp → connection routing for completion dispatch.
    conns: HashMap<QpId, Rc<RefCell<Conn>>>,
    next_qd: u32,
    next_wr: u64,
    /// The device's connection-manager event count as of the last pump.
    cm_seen: u64,
}

/// The RDMA libOS.
#[derive(Clone)]
pub struct Catcorn {
    runtime: Runtime,
    device: RdmaDevice,
    pd: PdId,
    cq: CqId,
    inner: Rc<RefCell<Inner>>,
    cm: Notify,
}

/// The cycle-free heart of catcorn: everything the I/O coroutines and the
/// pump need. Spawned coroutines and registered pollers capture this —
/// never `Catcorn` itself — because anything owned by the runtime that
/// holds a `Runtime` clone forms an Rc cycle (runtime → scheduler/pollers →
/// capture → runtime) and leaks the whole world.
#[derive(Clone)]
struct Core {
    device: RdmaDevice,
    pd: PdId,
    cq: CqId,
    inner: Rc<RefCell<Inner>>,
    /// The runtime's metrics block (its own Rc, independent of the runtime).
    metrics: Metrics,
    /// The connection-manager channel: fires when the device raised a CM
    /// event, waking pending accepts and connects.
    cm: Notify,
    clock: SimClock,
}

impl Core {
    /// Drives the device, signals the CM channel if the device raised a
    /// connection-manager event, and dispatches completions to their
    /// connections, waking parked coroutines. A full batch may leave
    /// completions on the CQ that no frame or deadline will ring for, so
    /// it rings `bell` again. Returns how many work items (frames +
    /// completions) were processed.
    fn pump(&self, now: sim_fabric::SimTime, bell: &Doorbell) -> usize {
        let frames = self.device.poll(now);
        let cm_events = self.device.cm_events();
        if std::mem::replace(&mut self.inner.borrow_mut().cm_seen, cm_events) != cm_events {
            self.cm.notify_waiters();
        }
        let completions = self.device.poll_cq(self.cq, CQ_BATCH);
        if completions.len() == CQ_BATCH {
            bell.ring();
        }
        let work = frames + completions.len();
        if completions.is_empty() {
            return work;
        }
        let inner = self.inner.borrow();
        for c in completions {
            let Some(conn) = inner.conns.get(&c.qp) else {
                continue;
            };
            let mut conn = conn.borrow_mut();
            match c.opcode {
                WcOpcode::Recv => conn.recv_ready.push_back(c),
                _ => {
                    conn.send_completions.insert(c.wr_id, c);
                }
            }
            conn.events.notify_waiters();
        }
        work
    }

    fn alloc_qd(&self, q: CatcornQueue) -> QDesc {
        let mut inner = self.inner.borrow_mut();
        let qd = QDesc(inner.next_qd);
        inner.next_qd += 1;
        inner.queues.insert(qd, q);
        qd
    }

    fn next_wr(&self) -> u64 {
        let mut inner = self.inner.borrow_mut();
        let id = inner.next_wr;
        inner.next_wr += 1;
        id
    }

    /// Builds connection state around an RTS queue pair: registers the
    /// rings (transparent registration, one control-path cost each) and
    /// pre-posts every receive slot (the buffer management RDMA demands).
    fn setup_conn(&self, qp: QpId) -> Rc<RefCell<Conn>> {
        self.metrics.count(CONTROL_PATH_SYSCALLS);
        let send_mr =
            self.device
                .register_mr(self.pd, SLOT_SIZE * RING_SLOTS, MrAccess::LOCAL_ONLY);
        let recv_mr =
            self.device
                .register_mr(self.pd, SLOT_SIZE * RING_SLOTS, MrAccess::LOCAL_ONLY);
        for slot in 0..RING_SLOTS {
            let wr_id = (slot as u64) | RECV_WR_FLAG;
            self.device
                .post_recv(qp, wr_id, recv_mr, slot * SLOT_SIZE, SLOT_SIZE)
                .expect("pre-post receive ring");
        }
        let conn = Rc::new(RefCell::new(Conn {
            qp,
            send_mr,
            recv_mr,
            free_send_slots: (0..RING_SLOTS).collect(),
            send_completions: HashMap::new(),
            recv_ready: VecDeque::new(),
            next_ticket: 0,
            turn: 0,
            events: Notify::new(),
        }));
        self.inner.borrow_mut().conns.insert(qp, conn.clone());
        conn
    }
}

impl Catcorn {
    /// Creates a catcorn instance on a fresh RDMA device at `mac`.
    pub fn new(runtime: &Runtime, fabric: &Fabric, mac: MacAddress) -> Self {
        let device = RdmaDevice::new(fabric, mac);
        let pd = device.alloc_pd();
        let cq = device.create_cq();
        let catcorn = Catcorn {
            runtime: runtime.clone(),
            device: device.clone(),
            pd,
            cq,
            inner: Rc::new(RefCell::new(Inner {
                queues: HashMap::new(),
                conns: HashMap::new(),
                next_qd: 1,
                next_wr: 1,
                cm_seen: 0,
            })),
            cm: Notify::new(),
        };
        // The pump runs inside the runtime, so it must capture the
        // cycle-free core, not the libOS (which holds the runtime).
        // The device is polled when a frame reached it or one of its
        // transport timers (RTO, connect retry) came due.
        let pump = catcorn.core();
        let clock = runtime.clock().clone();
        let bell = Doorbell::new();
        device.ring_on_rx(bell.clone());
        let deadline =
            runtime.register_gated_poller(bell.clone(), move || pump.pump(clock.now(), &bell));
        device.publish_deadlines(deadline);
        catcorn
    }

    /// The underlying device (experiment instrumentation).
    pub fn device(&self) -> &RdmaDevice {
        &self.device
    }

    /// A fresh handle to the cycle-free coroutine state.
    fn core(&self) -> Core {
        Core {
            device: self.device.clone(),
            pd: self.pd,
            cq: self.cq,
            inner: self.inner.clone(),
            metrics: self.runtime.metrics().clone(),
            cm: self.cm.clone(),
            clock: self.runtime.clock().clone(),
        }
    }

    fn alloc_qd(&self, q: CatcornQueue) -> QDesc {
        let mut inner = self.inner.borrow_mut();
        let qd = QDesc(inner.next_qd);
        inner.next_qd += 1;
        inner.queues.insert(qd, q);
        qd
    }
}

/// High bit distinguishes receive ring work-requests.
const RECV_WR_FLAG: u64 = 1 << 63;

/// Simulation addressing convention: IPv4 → fabric MAC by last octet.
fn mac_of(addr: SocketAddr) -> MacAddress {
    MacAddress::from_last_octet(addr.ip.octets()[3])
}

impl LibOs for Catcorn {
    fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    fn kind(&self) -> LibOsKind {
        LibOsKind::Catcorn
    }

    fn device_caps(&self) -> Option<DeviceCaps> {
        Some(rdma_sim::capabilities())
    }

    fn socket(&self, _kind: SocketKind) -> Result<QDesc, DemiError> {
        // RDMA RC is its own transport; both socket kinds map onto it.
        Ok(self.alloc_qd(CatcornQueue::Unbound { bound: None }))
    }

    fn bind(&self, qd: QDesc, addr: SocketAddr) -> Result<(), DemiError> {
        let mut inner = self.inner.borrow_mut();
        match inner.queues.get_mut(&qd) {
            Some(CatcornQueue::Unbound { bound }) => {
                *bound = Some(addr);
                Ok(())
            }
            Some(_) => Err(DemiError::InvalidState),
            None => Err(DemiError::BadQDesc),
        }
    }

    fn listen(&self, qd: QDesc, _backlog: usize) -> Result<(), DemiError> {
        let mut inner = self.inner.borrow_mut();
        match inner.queues.get_mut(&qd) {
            Some(q @ CatcornQueue::Unbound { .. }) => {
                let CatcornQueue::Unbound { bound } = q else {
                    unreachable!("matched above");
                };
                let addr = bound.ok_or(DemiError::InvalidState)?;
                self.device
                    .listen(addr.port)
                    .map_err(|_| DemiError::Rdma("listen failed"))?;
                *q = CatcornQueue::Listener { port: addr.port };
                Ok(())
            }
            Some(_) => Err(DemiError::InvalidState),
            None => Err(DemiError::BadQDesc),
        }
    }

    fn accept(&self, qd: QDesc) -> Result<QToken, DemiError> {
        let port = {
            let inner = self.inner.borrow();
            match inner.queues.get(&qd) {
                Some(CatcornQueue::Listener { port }) => *port,
                Some(_) => return Err(DemiError::InvalidState),
                None => return Err(DemiError::BadQDesc),
            }
        };
        let core = self.core();
        Ok(self.runtime.spawn_op("catcorn::accept", async move {
            let qp = core.device.create_qp(core.pd, core.cq, core.cq);
            loop {
                // A request queued on the listener is a CM event; park on
                // the CM channel between checks.
                let wait = core.cm.notified();
                let now = core.clock.now();
                match core.device.accept(port, qp, now) {
                    Ok(true) => {
                        let conn = core.setup_conn(qp);
                        let qd = core.alloc_qd(CatcornQueue::Conn(conn));
                        return OperationResult::Accept { qd };
                    }
                    Ok(false) => wait.await,
                    Err(_) => return OperationResult::Failed(DemiError::Rdma("accept failed")),
                }
            }
        }))
    }

    fn connect(&self, qd: QDesc, remote: SocketAddr) -> Result<QToken, DemiError> {
        {
            let inner = self.inner.borrow();
            match inner.queues.get(&qd) {
                Some(CatcornQueue::Unbound { .. }) => {}
                Some(_) => return Err(DemiError::InvalidState),
                None => return Err(DemiError::BadQDesc),
            }
        }
        let qp = self.device.create_qp(self.pd, self.cq, self.cq);
        self.device
            .connect(qp, mac_of(remote), remote.port, self.runtime.now())
            .map_err(|_| DemiError::Rdma("connect failed"))?;
        let core = self.core();
        Ok(self.runtime.spawn_op("catcorn::connect", async move {
            loop {
                // The QP leaves `Connecting` only on a CM event (response
                // or give-up); park on the CM channel between checks.
                let wait = core.cm.notified();
                match core.device.qp_state(qp) {
                    Ok(QpState::Rts) => {
                        let conn = core.setup_conn(qp);
                        core.inner
                            .borrow_mut()
                            .queues
                            .insert(qd, CatcornQueue::Conn(conn));
                        return OperationResult::Connect;
                    }
                    Ok(QpState::Error) => {
                        return OperationResult::Failed(DemiError::Rdma("connection refused"));
                    }
                    Ok(_) => wait.await,
                    Err(_) => return OperationResult::Failed(DemiError::Rdma("bad qp")),
                }
            }
        }))
    }

    fn close(&self, qd: QDesc) -> Result<(), DemiError> {
        let mut inner = self.inner.borrow_mut();
        match inner.queues.remove(&qd) {
            Some(CatcornQueue::Conn(conn)) => {
                let conn_ref = conn.borrow();
                inner.conns.remove(&conn_ref.qp);
                self.device.deregister_mr(conn_ref.send_mr);
                self.device.deregister_mr(conn_ref.recv_mr);
                Ok(())
            }
            Some(_) => Ok(()),
            None => Err(DemiError::BadQDesc),
        }
    }

    fn push(&self, qd: QDesc, sga: &Sga) -> Result<QToken, DemiError> {
        self.runtime.metrics().count(PUSHES);
        let conn = {
            let inner = self.inner.borrow();
            match inner.queues.get(&qd) {
                Some(CatcornQueue::Conn(conn)) => conn.clone(),
                Some(_) => return Err(DemiError::InvalidState),
                None => return Err(DemiError::BadQDesc),
            }
        };
        if sga.len() > SLOT_SIZE {
            return Err(DemiError::Rdma("message exceeds slot size"));
        }
        let payload = sga.to_vec();
        let core = self.core();
        // Take an ordering ticket at call time: pushes hit the wire in
        // `push()` order regardless of slot contention.
        let ticket = {
            let mut c = conn.borrow_mut();
            let t = c.next_ticket;
            c.next_ticket += 1;
            t
        };
        Ok(self.runtime.spawn_op("catcorn::push", async move {
            // Flow control the device does not provide: wait for our turn
            // and for a free slot, parked on the connection's event channel
            // (earlier pushes advancing the turn or recycling slots fire it).
            let events = conn.borrow().events.clone();
            let slot = loop {
                let wait = events.notified();
                let maybe = {
                    let mut c = conn.borrow_mut();
                    if c.turn == ticket {
                        c.free_send_slots.pop_front()
                    } else {
                        None
                    }
                };
                match maybe {
                    Some(s) => break s,
                    None => wait.await,
                }
            };
            let (qp, send_mr) = {
                let c = conn.borrow();
                (c.qp, c.send_mr)
            };
            // Stage into registered memory (the DMA-visible region).
            if core
                .device
                .mr_write(send_mr, slot * SLOT_SIZE, &payload)
                .is_err()
            {
                let mut c = conn.borrow_mut();
                c.turn += 1;
                c.free_send_slots.push_back(slot);
                c.events.notify_waiters();
                return OperationResult::Failed(DemiError::Rdma("mr write"));
            }
            let wr_id = core.next_wr();
            let now = core.clock.now();
            let posted =
                core.device
                    .post_send(qp, wr_id, send_mr, slot * SLOT_SIZE, payload.len(), now);
            {
                let mut c = conn.borrow_mut();
                c.turn += 1;
                c.events.notify_waiters();
            }
            if posted.is_err() {
                let mut c = conn.borrow_mut();
                c.free_send_slots.push_back(slot);
                c.events.notify_waiters();
                return OperationResult::Failed(DemiError::Rdma("post_send"));
            }
            // Await the send completion (dispatched by the pump), then
            // recycle the slot and wake any push blocked on slot exhaustion.
            let status = loop {
                let wait = events.notified();
                let done = conn.borrow_mut().send_completions.remove(&wr_id);
                match done {
                    Some(c) => break c.status,
                    None => wait.await,
                }
            };
            {
                let mut c = conn.borrow_mut();
                c.free_send_slots.push_back(slot);
                c.events.notify_waiters();
            }
            if status.is_ok() {
                OperationResult::Push
            } else {
                OperationResult::Failed(rdma_status_err(status))
            }
        }))
    }

    fn pop(&self, qd: QDesc) -> Result<QToken, DemiError> {
        self.runtime.metrics().count(POPS);
        let conn = {
            let inner = self.inner.borrow();
            match inner.queues.get(&qd) {
                Some(CatcornQueue::Conn(conn)) => conn.clone(),
                Some(_) => return Err(DemiError::InvalidState),
                None => return Err(DemiError::BadQDesc),
            }
        };
        let core = self.core();
        Ok(self.runtime.spawn_op("catcorn::pop", async move {
            // Receive completions are dispatched by the pump; park on the
            // connection's event channel until one lands.
            let events = conn.borrow().events.clone();
            let completion = loop {
                let wait = events.notified();
                let ready = conn.borrow_mut().recv_ready.pop_front();
                match ready {
                    Some(c) => break c,
                    None => wait.await,
                }
            };
            if !completion.status.is_ok() {
                return OperationResult::Failed(rdma_status_err(completion.status));
            }
            let slot = (completion.wr_id & !RECV_WR_FLAG) as usize;
            let (qp, recv_mr) = {
                let c = conn.borrow();
                (c.qp, c.recv_mr)
            };
            let payload = match core
                .device
                .mr_read(recv_mr, slot * SLOT_SIZE, completion.byte_len)
            {
                Ok(p) => p,
                Err(_) => return OperationResult::Failed(DemiError::Rdma("mr read")),
            };
            // Recycle the slot: re-post the receive (buffer management).
            let _ =
                core.device
                    .post_recv(qp, completion.wr_id, recv_mr, slot * SLOT_SIZE, SLOT_SIZE);
            OperationResult::Pop {
                from: None,
                sga: Sga::from_slice(&payload),
            }
        }))
    }
}

fn rdma_status_err(status: WcStatus) -> DemiError {
    DemiError::Rdma(match status {
        WcStatus::RnrRetryExceeded => "receiver not ready",
        WcStatus::LocalLengthError => "receive buffer too small",
        WcStatus::RemoteAccessError => "remote access error",
        WcStatus::RetryExceeded => "transport retries exceeded",
        WcStatus::WrFlushed => "work request flushed",
        WcStatus::Success => "success",
    })
}

#[cfg(test)]
mod tests;
