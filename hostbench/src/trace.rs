//! Spans recorded from the benchmark's own files, around every call into
//! a layer's public functions.
//!
//! A span has a name (its [`Layer`]), start, end, parent span, and the
//! request it served. Open spans sit on a stack; when one closes, its
//! self time (duration minus the time its child spans cover) accrues to
//! its layer. Accumulators are fixed arrays and the dump buffer is
//! reserved before the measured phase, so tracing allocates nothing
//! while it runs and the allocation counts of traced and untraced runs
//! agree.
//!
//! Pollers and deadline sources cannot be wrapped from outside, so the
//! runtime's own registration order brackets them: one no-op poller is
//! registered before the hosts are built, one between the network hosts
//! and the storage libOS, and one after; two no-op deadline sources
//! bracket the deadline scan the same way. Each bracket returns `0` or
//! `None`, so it adds no work the runtime can see.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use demikernel::runtime::Runtime;

/// The layer a span's time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `push`, `pushto`, `push_unframed` on a network libOS.
    LibosPush,
    /// `pop`, `pop_unframed` on a network libOS.
    LibosPop,
    /// `wait`, `wait_any`: the runtime's wait loop.
    Wait,
    /// The catnip stack pollers (`poll_shard`, with the device under it).
    NetPoll,
    /// The catfs completion poller (`spdk-sim` completions).
    FsPoll,
    /// One pass over the registered deadline sources.
    DeadlineScan,
    /// `KvConn::feed`.
    KvFeed,
    /// `KvEngine::drain`.
    KvDrain,
    /// catfs `push` (the group-commit record submission).
    FsPush,
}

pub const LAYERS: [Layer; 9] = [
    Layer::LibosPush,
    Layer::LibosPop,
    Layer::Wait,
    Layer::NetPoll,
    Layer::FsPoll,
    Layer::DeadlineScan,
    Layer::KvFeed,
    Layer::KvDrain,
    Layer::FsPush,
];

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::LibosPush => "libos.push",
            Layer::LibosPop => "libos.pop",
            Layer::Wait => "runtime.wait",
            Layer::NetPoll => "stack.poll",
            Layer::FsPoll => "fs.poll",
            Layer::DeadlineScan => "runtime.deadline_scan",
            Layer::KvFeed => "kv.feed",
            Layer::KvDrain => "kv.drain",
            Layer::FsPush => "fs.push",
        }
    }
}

/// Per-layer totals over a traced phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Acc {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// One closed span, as dumped.
#[derive(Debug, Clone, Copy)]
pub struct Rec {
    pub id: u32,
    pub parent: u32,
    pub layer: Layer,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Open {
    id: u32,
    layer: Layer,
    req: u64,
    start: Instant,
    child_ns: u64,
}

struct Tracer {
    epoch: Instant,
    stack: Vec<Open>,
    acc: [Acc; LAYERS.len()],
    /// Time covered by spans with no parent: the rest of a traced phase
    /// is the benchmark's own loop, generator, and oracle.
    top_ns: u64,
    recs: Vec<Rec>,
    next_id: u32,
    bracket_open: [Option<Instant>; 2],
}

const NET_BRACKET: usize = 0;
const SCAN_BRACKET: usize = 1;

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Starts a traced phase: resets totals and reserves room for the first
/// `dump_cap` spans.
pub fn start(dump_cap: usize) {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            epoch: Instant::now(),
            stack: Vec::with_capacity(16),
            acc: [Acc::default(); LAYERS.len()],
            top_ns: 0,
            recs: Vec::with_capacity(dump_cap),
            next_id: 1,
            bracket_open: [None; 2],
        });
    });
    ON.with(|on| on.set(true));
}

/// Ends the traced phase; returns per-layer totals, the time covered by
/// top-level spans, and the span dump.
pub fn stop() -> ([Acc; LAYERS.len()], u64, Vec<Rec>) {
    ON.with(|on| on.set(false));
    let t = TRACER
        .with(|t| t.borrow_mut().take())
        .expect("stop follows start");
    (t.acc, t.top_ns, t.recs)
}

fn enabled() -> bool {
    ON.with(Cell::get)
}

fn open(layer: Layer, req: u64, start: Instant) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let t = t.as_mut().expect("tracer started");
        let id = t.next_id;
        t.next_id = t.next_id.wrapping_add(1);
        t.stack.push(Open {
            id,
            layer,
            req,
            start,
            child_ns: 0,
        });
    });
}

fn close(end: Instant) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let t = t.as_mut().expect("tracer started");
        let span = t.stack.pop().expect("close matches an open span");
        let dur = end.duration_since(span.start).as_nanos() as u64;
        let parent = match t.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.id
            }
            None => {
                t.top_ns += dur;
                0
            }
        };
        let acc = &mut t.acc[span.layer as usize];
        acc.count += 1;
        acc.total_ns += dur;
        acc.self_ns += dur.saturating_sub(span.child_ns);
        if t.recs.len() < t.recs.capacity() {
            let rec = Rec {
                id: span.id,
                parent,
                layer: span.layer,
                req: span.req,
                start_ns: span.start.duration_since(t.epoch).as_nanos() as u64,
                end_ns: end.duration_since(t.epoch).as_nanos() as u64,
            };
            t.recs.push(rec);
        }
    });
}

/// Runs `f` inside a span of `layer` serving request `req`.
pub fn span<R>(layer: Layer, req: u64, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    open(layer, req, Instant::now());
    let r = f();
    close(Instant::now());
    r
}

/// Marks the start of a bracketed region.
fn bracket_begin(slot: usize) {
    if enabled() {
        let now = Instant::now();
        TRACER.with(|t| {
            if let Some(t) = t.borrow_mut().as_mut() {
                t.bracket_open[slot] = Some(now);
            }
        });
    }
}

/// Closes the bracketed region opened in `slot` as a child span of
/// `layer` under whatever span is open (the wait that pumped it).
fn bracket_end(slot: usize, layer: Layer) {
    if !enabled() {
        return;
    }
    let now = Instant::now();
    let start = TRACER.with(|t| {
        t.borrow_mut()
            .as_mut()
            .and_then(|t| t.bracket_open[slot].take())
    });
    if let Some(start) = start {
        open(layer, 0, start);
        close(now);
    }
}

/// Registers the opening brackets. Call on a fresh runtime, before any
/// libOS registers its pollers and deadline sources.
pub fn register_open_brackets(rt: &Runtime) {
    rt.register_poller(|| {
        bracket_begin(NET_BRACKET);
        0
    });
    rt.register_deadline_source(|| {
        bracket_begin(SCAN_BRACKET);
        None
    });
}

/// Closes the network bracket and opens the storage one. Call after the
/// catnip hosts and before catfs are built.
pub fn register_mid_bracket(rt: &Runtime) {
    rt.register_poller(|| {
        bracket_end(NET_BRACKET, Layer::NetPoll);
        bracket_begin(NET_BRACKET);
        0
    });
}

/// Registers the closing brackets, after every libOS is built; `last`
/// names the pollers since the previous bracket.
pub fn register_close_brackets(rt: &Runtime, last: Layer) {
    rt.register_poller(move || {
        bracket_end(NET_BRACKET, last);
        0
    });
    rt.register_deadline_source(|| {
        bracket_end(SCAN_BRACKET, Layer::DeadlineScan);
        None
    });
}
