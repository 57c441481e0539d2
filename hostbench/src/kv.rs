//! The two KV workloads: `demi-kv` RESP over catnip TCP
//! (`push_unframed`/`pop_unframed`), served by one event loop over
//! `wait_any`, with every mutation group-committed through catfs.
//!
//! The oracle is a reference model applied in the server's execution
//! order: when `KvEngine::drain` reports it executed `depth` commands on
//! a connection, the model applies that connection's next `depth` sent
//! commands and queues the replies they must produce. A second model
//! tracks the last *acknowledged* value of each key (advanced when a
//! log record is durable and its deferred replies are released); after
//! the run the catfs log is replayed and must rebuild exactly that.

use std::collections::VecDeque;
use std::rc::Rc;
use std::time::Instant;

use demi_kv::log::{apply, decode_batch};
use demi_kv::resp::encode_command;
use demi_kv::store::KvStore;
use demi_kv::{KvConn, KvEngine, KvEngineConfig};
use demi_memory::DemiBuffer;
use demikernel::libos::catfs::Catfs;
use demikernel::libos::{LibOs, SocketKind};
use demikernel::runtime::Runtime;
use demikernel::testing::host_ip;
use demikernel::types::{DemiError, OperationResult, QDesc, QToken, Sga};
use net_stack::types::SocketAddr;
use sim_fabric::SimTime;

use crate::bench::{Ctx, Workload};
use crate::rng::{Rng, Zipf};
use crate::trace::{span, Layer};
use crate::world::{Counters, World, LOG_PATH};

const KV_PORT: u16 = 6379;
/// Commands per burst while preloading the store during set-up.
const PRELOAD_DEPTH: usize = 16;

/// What a workload's traffic looks like.
#[derive(Debug, Clone, Copy)]
pub struct KvParams {
    pub conns: usize,
    /// Commands per request: a closed-loop request is one pipelined
    /// burst; an open-loop request is one command.
    pub depth: usize,
    pub get_frac: f64,
    pub keys: usize,
    /// Zipf θ over the key space; `None` draws keys uniformly.
    pub zipf_theta: Option<f64>,
    /// Value sizes: `64 << k` bytes, `k` uniform in `0..=max_shift`.
    pub max_shift: u32,
    pub byte_budget: usize,
    /// Poisson arrivals per virtual second; `None` is a closed loop.
    pub open_rate: Option<f64>,
    /// Requests run during set-up after the preload.
    pub warmup_requests: u64,
}

impl KvParams {
    /// Whether the key space outgrows the store, so GETs may miss after
    /// LRU eviction.
    fn evicts(&self) -> bool {
        let mean_value: usize = (0..=self.max_shift).map(|k| 64usize << k).sum::<usize>()
            / (self.max_shift as usize + 1);
        self.keys * (mean_value + 7) > self.byte_budget
    }
}

type Value = Rc<[u8]>;

struct Cmd {
    key: u32,
    set: Option<Value>,
}

/// The reply a command must produce.
enum Expect {
    Ok,
    Value(Value),
    Null,
    /// A GET under eviction: the last value set, or null.
    ValueOrNull(Value),
}

/// The one request a connection has in flight.
struct Request {
    remaining: usize,
    host_start: Instant,
    /// Virtual start: the send for closed loops, the scheduled arrival
    /// for the open loop.
    virt_start: u64,
}

struct Conn {
    cq: QDesc,
    sq: QDesc,
    parser: KvConn,
    /// Sent by the client, not yet executed by the server.
    sent: VecDeque<Cmd>,
    /// Executed; the client awaits these replies in order.
    expect: VecDeque<Expect>,
    got: Vec<u8>,
    inflight: Option<Request>,
    /// Open-loop arrivals waiting for this connection.
    backlog: VecDeque<u64>,
}

enum Slot {
    ClientPush,
    ClientPop(usize),
    ServerPush,
    ServerPop(usize),
    LogPush,
}

/// A drained burst's group-commit record and what waits on it.
struct LogBatch {
    record: Vec<u8>,
    conn: usize,
    deferred: Vec<DemiBuffer>,
    sets: Vec<(u32, Value)>,
}

enum Mode {
    Preload { next_key: usize },
    Run,
    Quiesce,
}

pub struct Kv {
    w: World,
    p: KvParams,
    rng: Rng,
    zipf: Option<Zipf>,
    key_names: Vec<Vec<u8>>,
    engine: KvEngine,
    conns: Vec<Conn>,
    tokens: Vec<QToken>,
    slots: Vec<Slot>,
    model: Vec<Option<Value>>,
    acked: Vec<Option<Value>>,
    log_queue: VecDeque<LogBatch>,
    /// The record being pushed: (batch, virtual push time). Records go
    /// down one at a time, so log order is execution order.
    log_inflight: Option<(LogBatch, u64)>,
    records: u64,
    drains: u64,
    feeds: u64,
    next_req: u64,
    next_arrival: f64,
    mode: Mode,
}

impl Kv {
    pub fn setup(seed: u64, traced: bool, p: KvParams) -> Self {
        let w = World::new(seed, traced, true);
        let lq = w.server.socket(SocketKind::Tcp).expect("listen socket");
        let addr = SocketAddr::new(host_ip(2), KV_PORT);
        w.server.bind(lq, addr).expect("bind");
        w.server.listen(lq, 64).expect("listen");
        let mut conns = Vec::with_capacity(p.conns);
        for _ in 0..p.conns {
            let cq = w.client.socket(SocketKind::Tcp).expect("client socket");
            let accept = w.server.accept(lq).expect("accept");
            let connect = w.client.connect(cq, addr).expect("connect");
            let done = w.rt.wait_all(&[accept, connect], None).expect("handshake");
            let sq = match &done[0] {
                OperationResult::Accept { qd } => *qd,
                other => panic!("accept returned {other:?}"),
            };
            conns.push(Conn {
                cq,
                sq,
                parser: KvConn::new(),
                sent: VecDeque::new(),
                expect: VecDeque::new(),
                got: Vec::new(),
                inflight: None,
                backlog: VecDeque::new(),
            });
        }
        let engine = KvEngine::new(
            KvEngineConfig {
                byte_budget: p.byte_budget,
                durable: true,
            },
            w.server.memory().clone(),
            w.rt.now(),
        );
        let mut kv = Kv {
            w,
            p,
            rng: Rng::new(seed),
            zipf: p.zipf_theta.map(|t| Zipf::new(p.keys, t)),
            key_names: (0..p.keys)
                .map(|k| format!("k{k:06}").into_bytes())
                .collect(),
            engine,
            conns,
            tokens: Vec::with_capacity(4 * p.conns + 8),
            slots: Vec::with_capacity(4 * p.conns + 8),
            model: vec![None; p.keys],
            acked: vec![None; p.keys],
            log_queue: VecDeque::new(),
            log_inflight: None,
            records: 0,
            drains: 0,
            feeds: 0,
            next_req: 0,
            next_arrival: 0.0,
            mode: Mode::Preload { next_key: 0 },
        };
        let mut warm = Ctx::new();
        for i in 0..kv.conns.len() {
            kv.arm_pops(i, &mut warm);
        }
        for i in 0..kv.conns.len() {
            kv.send_next(i, kv.w.rt.now().as_nanos(), &mut warm);
        }
        while !kv.idle() {
            kv.step(&mut warm);
        }
        kv.mode = Mode::Run;
        kv.start_traffic(&mut warm);
        let target = warm.requests + kv.p.warmup_requests;
        while warm.requests < target {
            kv.step(&mut warm);
        }
        assert_eq!(
            warm.failed,
            0,
            "set-up replies must verify: {:?}",
            warm.errors()
        );
        kv
    }

    fn open_loop(&self) -> bool {
        matches!(self.mode, Mode::Run) && self.p.open_rate.is_some()
    }

    fn idle(&self) -> bool {
        self.log_inflight.is_none()
            && self
                .conns
                .iter()
                .all(|c| c.inflight.is_none() && c.backlog.is_empty())
    }

    /// Kicks off the measured traffic: one burst per connection for the
    /// closed loop, the first arrival for the open loop.
    fn start_traffic(&mut self, ctx: &mut Ctx) {
        match self.p.open_rate {
            None => {
                for i in 0..self.conns.len() {
                    self.send_next(i, self.w.rt.now().as_nanos(), ctx);
                }
            }
            Some(rate) => {
                self.next_arrival = self.w.rt.now().as_nanos() as f64 + self.rng.exp(rate) * 1e9;
            }
        }
    }

    fn arm_pops(&mut self, i: usize, ctx: &mut Ctx) {
        let (cq, sq) = (self.conns[i].cq, self.conns[i].sq);
        let client = &self.w.client;
        let qt = span(Layer::LibosPop, 0, || ctx.call(client.pop_unframed(cq)));
        self.watch(qt.expect("client pop"), Slot::ClientPop(i));
        let server = &self.w.server;
        let qt = span(Layer::LibosPop, 0, || ctx.call(server.pop_unframed(sq)));
        self.watch(qt.expect("server pop"), Slot::ServerPop(i));
    }

    fn watch(&mut self, qt: QToken, slot: Slot) {
        self.tokens.push(qt);
        self.slots.push(slot);
    }

    fn key(&mut self) -> u32 {
        let k = match &self.zipf {
            Some(z) => z.sample(&mut self.rng),
            None => self.rng.below(self.p.keys as u64) as usize,
        };
        k as u32
    }

    fn value(&mut self, len: usize) -> Value {
        let mut v = vec![0u8; len];
        self.rng.fill(&mut v);
        v.into()
    }

    /// The next request's commands.
    fn next_cmds(&mut self) -> Vec<Cmd> {
        if let Mode::Preload { next_key } = &mut self.mode {
            let start = *next_key;
            let end = (start + PRELOAD_DEPTH).min(self.p.keys);
            *next_key = end;
            return (start..end)
                .map(|k| {
                    let len = 64usize << self.rng.below(u64::from(self.p.max_shift) + 1);
                    Cmd {
                        key: k as u32,
                        set: Some(self.value(len)),
                    }
                })
                .collect();
        }
        (0..self.p.depth)
            .map(|_| {
                let key = self.key();
                let set = (self.rng.unit() >= self.p.get_frac).then(|| {
                    let len = 64usize << self.rng.below(u64::from(self.p.max_shift) + 1);
                    self.value(len)
                });
                Cmd { key, set }
            })
            .collect()
    }

    /// Sends connection `i` its next request, timed from `virt_start`.
    fn send_next(&mut self, i: usize, virt_start: u64, ctx: &mut Ctx) {
        let cmds = self.next_cmds();
        if cmds.is_empty() {
            return;
        }
        let id = self.next_req;
        self.next_req += 1;
        ctx.requests += 1;
        let mut bytes = Vec::with_capacity(cmds.len() * 32);
        for c in &cmds {
            let key = &self.key_names[c.key as usize];
            match &c.set {
                Some(v) => encode_command(&mut bytes, &[b"SET", key, v]),
                None => encode_command(&mut bytes, &[b"GET", key]),
            }
        }
        let conn = &mut self.conns[i];
        conn.inflight = Some(Request {
            remaining: cmds.len(),
            host_start: Instant::now(),
            virt_start,
        });
        conn.sent.extend(cmds);
        let cq = conn.cq;
        let sga = Sga::from_bufs(vec![DemiBuffer::from(bytes)]);
        let client = &self.w.client;
        let qt = span(Layer::LibosPush, id, || {
            ctx.call(client.push_unframed(cq, &sga))
        });
        self.watch(qt.expect("client push"), Slot::ClientPush);
    }

    fn inject_due(&mut self, ctx: &mut Ctx) {
        let rate = self.p.open_rate.expect("open loop");
        let now = self.w.rt.now().as_nanos();
        while self.next_arrival <= now as f64 {
            let at = self.next_arrival.ceil() as u64;
            if ctx.recording {
                ctx.gen_lag_ns.push(now.saturating_sub(at));
            }
            let i = self.rng.below(self.conns.len() as u64) as usize;
            if self.conns[i].inflight.is_none() {
                self.send_next(i, at, ctx);
            } else {
                self.conns[i].backlog.push_back(at);
            }
            self.next_arrival += self.rng.exp(rate) * 1e9;
        }
    }

    fn on_server_pop(&mut self, i: usize, r: OperationResult, ctx: &mut Ctx) {
        let sga = match r {
            OperationResult::Pop { sga, .. } => sga,
            other => return ctx.fail(1, || format!("server pop on conn {i}: {other:?}")),
        };
        let now = self.w.rt.now();
        let conn = &mut self.conns[i];
        for seg in sga.segments() {
            span(Layer::KvFeed, 0, || conn.parser.feed(seg.clone()));
            self.feeds += 1;
        }
        let engine = &mut self.engine;
        let r = span(Layer::KvDrain, 0, || engine.drain(&mut conn.parser, now));
        self.drains += 1;
        if r.disconnect {
            ctx.fail(1, || format!("conn {i}: server closed the stream"));
        }
        let mut sets = Vec::new();
        for _ in 0..r.depth {
            let Some(cmd) = conn.sent.pop_front() else {
                ctx.fail(1, || format!("conn {i}: server executed an unsent command"));
                break;
            };
            let exp = match cmd.set {
                Some(v) => {
                    self.model[cmd.key as usize] = Some(v.clone());
                    sets.push((cmd.key, v));
                    Expect::Ok
                }
                None => match (&self.model[cmd.key as usize], self.p.evicts()) {
                    (Some(v), false) => Expect::Value(v.clone()),
                    (Some(v), true) => Expect::ValueOrNull(v.clone()),
                    (None, _) => Expect::Null,
                },
            };
            conn.expect.push_back(exp);
        }
        let sq = conn.sq;
        if !r.immediate.is_empty() {
            let sga = Sga::from_bufs(r.immediate);
            let server = &self.w.server;
            let qt = span(Layer::LibosPush, 0, || {
                ctx.call(server.push_unframed(sq, &sga))
            });
            self.watch(qt.expect("server push"), Slot::ServerPush);
        }
        match (r.batch, sets.is_empty()) {
            (Some(record), false) => {
                self.log_queue.push_back(LogBatch {
                    record,
                    conn: i,
                    deferred: r.deferred,
                    sets,
                });
                self.start_log(ctx);
            }
            (None, true) => {}
            (batch, _) => ctx.fail(sets.len().max(1) as u64, || {
                format!(
                    "conn {i}: {} SETs executed but log record present = {}",
                    sets.len(),
                    batch.is_some()
                )
            }),
        }
        let server = &self.w.server;
        let qt = span(Layer::LibosPop, 0, || ctx.call(server.pop_unframed(sq)));
        self.watch(qt.expect("server pop"), Slot::ServerPop(i));
    }

    fn start_log(&mut self, ctx: &mut Ctx) {
        if self.log_inflight.is_some() {
            return;
        }
        let Some(mut batch) = self.log_queue.pop_front() else {
            return;
        };
        let st = self.w.storage.as_ref().expect("KV worlds have storage");
        let record = Sga::from_bufs(vec![DemiBuffer::from(std::mem::take(&mut batch.record))]);
        let qt = span(Layer::FsPush, 0, || ctx.call(st.fs.push(st.log, &record)));
        self.watch(qt.expect("log push"), Slot::LogPush);
        self.log_inflight = Some((batch, self.w.rt.now().as_nanos()));
    }

    fn on_log_durable(&mut self, r: OperationResult, ctx: &mut Ctx) {
        let (batch, pushed) = self.log_inflight.take().expect("a record was in flight");
        if let OperationResult::Failed(e) = r {
            ctx.fail(batch.sets.len() as u64, || format!("log push failed: {e}"));
        } else {
            self.records += 1;
            if ctx.recording {
                ctx.commit_ns.push(self.w.rt.now().as_nanos() - pushed);
            }
            for (k, v) in batch.sets {
                self.acked[k as usize] = Some(v);
            }
            let sq = self.conns[batch.conn].sq;
            let sga = Sga::from_bufs(batch.deferred);
            let server = &self.w.server;
            let qt = span(Layer::LibosPush, 0, || {
                ctx.call(server.push_unframed(sq, &sga))
            });
            self.watch(qt.expect("server push"), Slot::ServerPush);
        }
        self.start_log(ctx);
    }

    fn on_client_pop(&mut self, i: usize, r: OperationResult, ctx: &mut Ctx) {
        match r {
            OperationResult::Pop { sga, .. } => {
                for seg in sga.segments() {
                    self.conns[i].got.extend_from_slice(seg.as_slice());
                }
            }
            other => return ctx.fail(1, || format!("client pop on conn {i}: {other:?}")),
        }
        let cq = self.conns[i].cq;
        let client = &self.w.client;
        let qt = span(Layer::LibosPop, 0, || ctx.call(client.pop_unframed(cq)));
        self.watch(qt.expect("client pop"), Slot::ClientPop(i));

        let now = self.w.rt.now().as_nanos();
        let mut pos = 0;
        let mut finished = None;
        let conn = &mut self.conns[i];
        while let Some((len, reply)) = parse_reply(&conn.got[pos..]) {
            let bytes = &conn.got[pos..pos + len];
            pos += len;
            let ok = match conn.expect.pop_front() {
                Some(Expect::Ok) => reply == Reply::Simple(b"OK"),
                Some(Expect::Value(v)) => reply == Reply::Bulk(&v),
                Some(Expect::Null) => reply == Reply::Null,
                Some(Expect::ValueOrNull(v)) => reply == Reply::Bulk(&v) || reply == Reply::Null,
                None => false,
            };
            if ok {
                ctx.completed += 1;
                if ctx.recording {
                    ctx.digest.u64(now);
                    ctx.digest.bytes(bytes);
                }
            } else {
                ctx.fail(1, || {
                    format!(
                        "conn {i}: reply {:?} does not match the model",
                        String::from_utf8_lossy(&bytes[..bytes.len().min(40)])
                    )
                });
            }
            if let Some(req) = &mut conn.inflight {
                req.remaining -= 1;
                if req.remaining == 0 {
                    finished = conn.inflight.take();
                }
            }
        }
        conn.got.drain(..pos);
        if let Some(req) = finished {
            ctx.host_lat_ns
                .push(req.host_start.elapsed().as_nanos() as u64);
            if ctx.recording {
                ctx.virt_lat_ns.push(now - req.virt_start);
            }
            self.request_done(i, ctx);
        }
    }

    /// Connection `i` is free: closed loops send the next burst, the open
    /// loop serves its backlog.
    fn request_done(&mut self, i: usize, ctx: &mut Ctx) {
        let now = self.w.rt.now().as_nanos();
        match self.mode {
            Mode::Preload { .. } => self.send_next(i, now, ctx),
            Mode::Run if self.p.open_rate.is_none() => self.send_next(i, now, ctx),
            Mode::Run | Mode::Quiesce => {
                if let Some(at) = self.conns[i].backlog.pop_front() {
                    self.send_next(i, at, ctx);
                }
            }
        }
    }

    /// Replays the catfs log on a fresh catfs instance over the same
    /// device: every acknowledged SET must come back, and nothing else.
    fn replay_check(&mut self, ctx: &mut Ctx) {
        let st = self.w.storage.as_ref().expect("KV worlds have storage");
        let rt = Runtime::with_clock(self.w.rt.clock().clone());
        let fs = Catfs::new(&rt, st.device.clone());
        let qd = fs.recover(LOG_PATH).expect("recover the KV log");
        let mut store = KvStore::new(usize::MAX / 2, rt.now());
        let now = rt.now();
        for n in 0..self.records {
            let sga = match fs.blocking_pop(qd) {
                Ok(OperationResult::Pop { sga, .. }) => sga,
                other => {
                    return ctx.fail(1, || format!("replay: record {n} unreadable: {other:?}"));
                }
            };
            match decode_batch(&sga.to_vec()) {
                Ok(entries) => entries.iter().for_each(|e| apply(&mut store, e, now)),
                Err(e) => return ctx.fail(1, || format!("replay: record {n}: {e}")),
            }
        }
        let mut recovered = vec![None; self.p.keys];
        for (k, v) in store.dump(now) {
            let id = std::str::from_utf8(&k[1..])
                .ok()
                .and_then(|s| s.parse::<usize>().ok())
                .filter(|&id| id < self.p.keys);
            match id {
                Some(id) => recovered[id] = Some(v),
                None => ctx.fail(1, || "replay: unknown key recovered".into()),
            }
        }
        let lost = self
            .acked
            .iter()
            .zip(&recovered)
            .filter(|(a, r)| a.as_deref() != r.as_deref())
            .count();
        if lost > 0 {
            ctx.fail(lost as u64, || {
                format!("replay: {lost} keys differ from the acknowledged state")
            });
        }
    }
}

impl Workload for Kv {
    fn step(&mut self, ctx: &mut Ctx) {
        let timeout = if self.open_loop() {
            self.inject_due(ctx);
            let now = self.w.rt.now().as_nanos() as f64;
            Some(SimTime::from_nanos(
                (self.next_arrival - now).ceil().max(1.0) as u64,
            ))
        } else {
            None
        };
        let rt = &self.w.rt;
        let tokens = &self.tokens;
        let r = span(Layer::Wait, 0, || ctx.call(rt.wait_any(tokens, timeout)));
        let (idx, res) = match r {
            Ok(x) => x,
            Err(DemiError::Timeout) => return,
            Err(e) => panic!("wait_any failed: {e}"),
        };
        self.tokens.swap_remove(idx);
        match self.slots.swap_remove(idx) {
            Slot::ClientPush | Slot::ServerPush => {
                if let OperationResult::Failed(e) = res {
                    ctx.fail(1, || format!("push failed: {e}"));
                }
            }
            Slot::ClientPop(i) => self.on_client_pop(i, res, ctx),
            Slot::ServerPop(i) => self.on_server_pop(i, res, ctx),
            Slot::LogPush => self.on_log_durable(res, ctx),
        }
    }

    fn counters(&self) -> Counters {
        let mut c = self.w.counters(self.p.conns as u32);
        let e = self.engine.stats();
        c.put("kv.commands", e.commands);
        c.put("kv.bursts", e.bursts);
        c.put("kv.batches", e.batches);
        c.put("kv.logged_ops", e.logged_ops);
        c.put("kv.protocol_errors", e.protocol_errors);
        let s = self.engine.store().stats();
        c.put("kv.hits", s.hits);
        c.put("kv.misses", s.misses);
        c.put("kv.sets", s.sets);
        c.put("kv.evictions", s.evictions);
        let r = self.engine.reply_stats();
        c.put("kv.prepend_hits", r.prepend_hits);
        c.put("kv.prepend_fallbacks", r.prepend_fallbacks);
        c.put(
            "kv.reassembled_args",
            self.conns
                .iter()
                .map(|c| c.parser.parser_stats().reassembled_args)
                .sum(),
        );
        c.put("kv.drains", self.drains);
        c.put("kv.feeds", self.feeds);
        c.put("fs.records_durable", self.records);
        c
    }

    fn virt_now_ns(&self) -> u64 {
        self.w.rt.now().as_nanos()
    }

    fn finish(&mut self, ctx: &mut Ctx) {
        self.mode = Mode::Quiesce;
        while !self.idle() {
            self.step(ctx);
        }
        self.replay_check(ctx);
    }
}

#[derive(Debug, PartialEq, Eq)]
enum Reply<'a> {
    Simple(&'a [u8]),
    Bulk(&'a [u8]),
    Null,
    Error(&'a [u8]),
}

/// Parses one complete RESP reply from the front of `b`: its length and
/// content, or `None` if more bytes are needed.
fn parse_reply(b: &[u8]) -> Option<(usize, Reply<'_>)> {
    let line_end = b.windows(2).position(|w| w == b"\r\n")?;
    let line = &b[1..line_end];
    match b[0] {
        b'+' => Some((line_end + 2, Reply::Simple(line))),
        b'-' => Some((line_end + 2, Reply::Error(line))),
        b'$' if line == b"-1" => Some((line_end + 2, Reply::Null)),
        b'$' => {
            let n: usize = std::str::from_utf8(line).ok()?.parse().ok()?;
            let start = line_end + 2;
            (b.len() >= start + n + 2).then(|| (start + n + 2, Reply::Bulk(&b[start..start + n])))
        }
        _ => Some((b.len(), Reply::Error(b))),
    }
}

#[cfg(test)]
mod tests {
    use super::{parse_reply, Reply};

    #[test]
    fn parses_each_reply_kind_and_waits_for_partial_ones() {
        assert_eq!(parse_reply(b"+OK\r\n$3"), Some((5, Reply::Simple(b"OK"))));
        assert_eq!(parse_reply(b"$-1\r\n"), Some((5, Reply::Null)));
        assert_eq!(
            parse_reply(b"$3\r\nabc\r\n+"),
            Some((9, Reply::Bulk(b"abc")))
        );
        assert_eq!(
            parse_reply(b"-ERR x\r\n"),
            Some((8, Reply::Error(b"ERR x")))
        );
        assert_eq!(parse_reply(b"$3\r\nab"), None);
        assert_eq!(parse_reply(b"$3\r\nabc\r"), None);
        assert_eq!(parse_reply(b"+OK"), None);
    }

    #[test]
    fn bulk_values_may_contain_crlf() {
        assert_eq!(
            parse_reply(b"$4\r\n\r\n\r\n\r\n"),
            Some((10, Reply::Bulk(b"\r\n\r\n")))
        );
    }
}
