//! The shared coroutine runtime behind qtokens and `wait_*`.
//!
//! Every queue operation a libOS starts becomes a coroutine in this
//! runtime; the returned [`QToken`] names the task, and
//! [`Runtime::wait`] / [`Runtime::wait_any`] / [`Runtime::wait_all`]
//! drive the world until the named operations complete (paper §4.4).
//!
//! One `Runtime` is shared by every libOS instance in a simulation:
//! client and server co-run as coroutines on one virtual CPU, and when
//! every task is blocked the runtime advances virtual time to the next
//! event — a fabric delivery, a protocol timer, or a device completion.
//!
//! `wait` gives the paper's two improvements over epoll by construction:
//! it returns the completed operation's data directly (no second syscall),
//! and exactly one waiter resolves per completion (each qtoken names one
//! operation).
//!
//! Outstanding operations live in one generation-tagged slab, the
//! [`OpTable`]: a qtoken is its slot index plus the slot's generation, so
//! a `wait_*` call resolves each token with one array index and a
//! generation compare, and learns which tokens it covers by stamping its
//! wait id on their slots instead of building a per-call map.
//!
//! Scheduling is waker-driven, with one wake discipline: a state change
//! signals the object that changed. A `wait` runs scheduler passes only
//! while the run queue is non-empty, and blocked coroutines park on waker
//! sources — per-qtoken completion wakers ([`Runtime::await_op`]), queue
//! and condition wakers, timer deadlines, or the readiness signal of the
//! object they wait on, fired where that object's state changes (catnip
//! and catnap park on the stack's per-connection, per-listener and
//! per-port signals, catcorn on its connections' completion channels and
//! its connection-manager channel, catfs on its device-completion
//! signal).
//!
//! The device side follows the same rule. Each libOS registers its device
//! pollers with a [`Doorbell`] ([`Runtime::register_gated_poller`]), and a
//! pump runs a poller only when its bell was rung. The owner of each queue
//! rings at the enqueue: the fabric on delivery into an endpoint mailbox,
//! the stack on a TX-ring push or a cross-shard send, a poller that left
//! backlog on itself. Deadlines are pushed, not pulled: each device
//! publishes its earliest deadline into one runtime-owned
//! [`DeadlineIndex`] slot, every pump rings the owners whose deadline has
//! been reached, and clock advance reads one minimum. A pump that finds no
//! bell rung costs no device work at all.
//!
//! Poller work counts, not wakeups, drive quiescence and clock advance.
//! Deadlock is not a spin-count heuristic: when a pass polls nothing,
//! nothing external moved, no bell is rung, and virtual time cannot
//! advance, the wait is declared deadlocked. A state change that signals
//! no one — a parked task never woken, or queued device work whose bell
//! never rang — is therefore a deterministic [`DemiError::Deadlock`],
//! never a silent stall.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::rc::Rc;

use demi_sched::{PollPolicy, Scheduler, TaskHandle, TimerService};
use demi_telemetry::counters::{
    COMPLETION_CHECKS, POLLER_RUNS, WAIT_PASSES, WAIT_POLLS, WAKEUPS, WAKEUPS_WITH_DATA,
};
use sim_fabric::{DeadlineHandle, DeadlineIndex, Doorbell, Fabric, SimClock, SimTime};

use crate::metrics::Metrics;
use crate::types::{DemiError, OperationResult, QToken};

/// A device-poll hook; returns how many work items (frames, completions,
/// readiness transitions) it processed, so the runtime can tell external
/// progress from idle spinning. A poller with a bell runs only when the
/// bell was rung; one without runs on every pump.
struct Poller {
    run: Box<dyn Fn() -> usize>,
    bell: Option<Doorbell>,
}

/// A pull-style deadline source, asked on every clock advance.
type DeadlineSource = Box<dyn Fn() -> Option<SimTime>>;

/// What one pump did: the scheduler's pass counters plus the external work
/// (frames delivered, poller work items, timers fired) that happened around
/// it.
#[derive(Debug, Clone, Copy, Default)]
struct PumpReport {
    completed: usize,
    polled: usize,
    external: usize,
}

impl PumpReport {
    /// Whether this pass moved anything (frames, polls, or task progress).
    fn has_work(&self) -> bool {
        self.completed > 0 || self.polled > 0 || self.external > 0
    }
}

/// Per-qtoken bookkeeping: the task handle plus the submission instant
/// (the telemetry anchor for end-to-end op latency).
struct OpEntry {
    handle: TaskHandle<OperationResult>,
    started: SimTime,
}

/// The last `wait_*` call that covered a slot: its id and the index the
/// slot's token had in that call's token slice. Wait ids start at 1, so
/// the default mark belongs to no wait.
#[derive(Clone, Copy, Default)]
struct WaitMark {
    wait: u64,
    index: usize,
}

/// One [`OpTable`] slot. `generation` is the generation of the token the
/// slot holds while `entry` is `Some`, and the next one it hands out
/// while it is free.
struct Slot {
    generation: u32,
    entry: Option<OpEntry>,
    /// The operation completed and its result waits to be consumed.
    ready: bool,
    mark: WaitMark,
    /// The next free slot while this one is free (an intrusive free list,
    /// so consuming a token never allocates).
    next_free: Option<u32>,
}

/// Every outstanding operation, indexed by its qtoken, plus the
/// completion conduit `wait_any`/`wait_all` read.
///
/// A [`QToken`] is `(generation << 32) | slot`: resolving one is one
/// index and one generation compare, and consuming it frees the slot
/// with its generation bumped, so a consumed token never names the
/// slot's next operation. Generations start at 1, so no token with a
/// zero high half is ever live.
///
/// Operations push their token onto `arrivals` as their coroutine's last
/// act (and set the slot's `ready` flag), so waiters learn of
/// completions in arrival order instead of rescanning every waited token
/// each pump pass. `ready` is the record of truth; `arrivals` is only a
/// conduit: a waiter pops it, skips entries already consumed elsewhere
/// (`wait`/`await_op`), and leaves ready tokens it is not waiting on for
/// their own waiter's entry pass. Which tokens a wait covers is stamped
/// on the slots themselves ([`WaitMark`]), so no wait builds a map.
#[derive(Default)]
struct OpTable {
    slots: Vec<Slot>,
    /// The most recently freed slot, head of the free list.
    free: Option<u32>,
    arrivals: VecDeque<QToken>,
    live: usize,
    /// The id the most recent `wait_*` call took.
    last_wait: u64,
}

impl OpTable {
    /// The token the next [`OpTable::insert`] returns.
    fn next_token(&self) -> QToken {
        match self.free {
            Some(slot) => token(self.slots[slot as usize].generation, slot),
            None => token(1, self.slots.len() as u32),
        }
    }

    fn insert(&mut self, entry: OpEntry) -> QToken {
        let slot = match self.free {
            Some(slot) => {
                self.free = self.slots[slot as usize].next_free.take();
                slot
            }
            None => {
                self.slots.push(Slot {
                    generation: 1,
                    entry: None,
                    ready: false,
                    mark: WaitMark::default(),
                    next_free: None,
                });
                (self.slots.len() - 1) as u32
            }
        };
        self.slots[slot as usize].entry = Some(entry);
        self.live += 1;
        token(self.slots[slot as usize].generation, slot)
    }

    /// The slot `qt` names, if its operation is still unconsumed.
    fn slot_mut(&mut self, qt: QToken) -> Option<&mut Slot> {
        let slot = self.slots.get_mut((qt.0 as u32) as usize)?;
        (slot.generation == (qt.0 >> 32) as u32 && slot.entry.is_some()).then_some(slot)
    }

    /// Records `qt`'s completion: sets its ready flag and queues it on
    /// the conduit.
    fn complete(&mut self, qt: QToken) {
        if let Some(slot) = self.slot_mut(qt) {
            slot.ready = true;
            self.arrivals.push_back(qt);
        }
    }

    /// Consumes `qt` if its operation has completed, freeing its slot.
    /// The freed slot's mark is cleared too: an op that reuses the slot
    /// while a `wait_all` that covered the old token is still running must
    /// not look like one of that wait's tokens.
    fn take_ready(&mut self, qt: QToken) -> Option<OpEntry> {
        let next_free = self.free;
        let slot = self.slot_mut(qt).filter(|s| s.ready)?;
        let entry = slot.entry.take();
        slot.ready = false;
        slot.mark = WaitMark::default();
        slot.generation = slot.generation.checked_add(1).unwrap_or(1);
        slot.next_free = next_free;
        self.free = Some(qt.0 as u32);
        self.live -= 1;
        entry
    }

    /// The entry pass of one `wait_*` call: resolves each token with one
    /// index and a generation compare, and stamps a fresh wait id and the
    /// token's caller index on its slot. A token this call already
    /// stamped is a duplicate: it keeps its first index when
    /// `duplicates_ok`, and is [`DemiError::BadQToken`] otherwise.
    fn enter_wait(&mut self, qts: &[QToken], duplicates_ok: bool) -> Result<EntryPass, DemiError> {
        self.last_wait += 1;
        let wait = self.last_wait;
        let mut pass = EntryPass {
            wait,
            distinct: 0,
            ready: 0,
            first_ready: None,
        };
        for (index, &qt) in qts.iter().enumerate() {
            let slot = self.slot_mut(qt).ok_or(DemiError::BadQToken)?;
            if slot.mark.wait == wait {
                if duplicates_ok {
                    continue;
                }
                return Err(DemiError::BadQToken);
            }
            slot.mark = WaitMark { wait, index };
            pass.distinct += 1;
            if slot.ready {
                pass.ready += 1;
                pass.first_ready.get_or_insert(index);
            }
        }
        Ok(pass)
    }
}

/// What a `wait_*` entry pass found.
struct EntryPass {
    /// The id stamped on every covered slot.
    wait: u64,
    /// Distinct tokens covered.
    distinct: usize,
    /// How many of them had already completed.
    ready: usize,
    /// The lowest caller index among those.
    first_ready: Option<usize>,
}

fn token(generation: u32, slot: u32) -> QToken {
    QToken((u64::from(generation) << 32) | u64::from(slot))
}

/// What one `drive_wait` step did with the arrivals it consumed.
enum WaitStep<T> {
    /// The wait is satisfied; return this value.
    Done(T),
    /// Arrivals were consumed but the wait wants more.
    Progress,
    /// Nothing relevant arrived this pass.
    Idle,
}

struct Inner {
    scheduler: Scheduler,
    clock: SimClock,
    timers: TimerService,
    fabric: Option<Fabric>,
    pollers: RefCell<Vec<Poller>>,
    deadline_sources: RefCell<Vec<DeadlineSource>>,
    deadlines: DeadlineIndex,
    ops: RefCell<OpTable>,
    metrics: Metrics,
}

/// The shared runtime (cheaply cloneable handle).
#[derive(Clone)]
pub struct Runtime {
    inner: Rc<Inner>,
}

impl Runtime {
    /// A runtime with its own fresh clock (catmem/catfs worlds).
    pub fn new() -> Self {
        Self::build(SimClock::new(), None, PollPolicy::default())
    }

    /// A runtime with its own clock and an explicit scheduler policy
    /// (benchmarks compare [`PollPolicy::Wake`] against the legacy
    /// [`PollPolicy::Sweep`]).
    pub fn new_with_policy(policy: PollPolicy) -> Self {
        Self::build(SimClock::new(), None, policy)
    }

    /// A runtime sharing a fabric's clock; blocked waits advance the
    /// fabric's event queue.
    pub fn with_fabric(fabric: Fabric) -> Self {
        Self::build(fabric.clock(), Some(fabric), PollPolicy::default())
    }

    /// A runtime on an existing clock (e.g., rebuilding a libOS over a
    /// device that outlives its first runtime).
    pub fn with_clock(clock: SimClock) -> Self {
        Self::build(clock, None, PollPolicy::default())
    }

    fn build(clock: SimClock, fabric: Option<Fabric>, policy: PollPolicy) -> Self {
        Runtime {
            inner: Rc::new(Inner {
                scheduler: Scheduler::with_policy(policy),
                timers: TimerService::new(clock.clone()),
                clock,
                fabric,
                pollers: RefCell::new(Vec::new()),
                deadline_sources: RefCell::new(Vec::new()),
                deadlines: DeadlineIndex::new(),
                ops: RefCell::new(OpTable::default()),
                metrics: Metrics::new(),
            }),
        }
    }

    /// The virtual clock.
    pub fn clock(&self) -> &SimClock {
        &self.inner.clock
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.inner.clock.now()
    }

    /// Virtual-time timers for libOS coroutines.
    pub fn timers(&self) -> &TimerService {
        &self.inner.timers
    }

    /// The coroutine scheduler (for spawning background service loops).
    pub fn scheduler(&self) -> &Scheduler {
        &self.inner.scheduler
    }

    /// Data-path metrics shared by every libOS on this runtime.
    pub fn metrics(&self) -> &Metrics {
        &self.inner.metrics
    }

    /// Installs this runtime's clock as the telemetry time source (the
    /// recording sites in demi-sched/net-stack/dpdk-sim read virtual time
    /// through `demi_telemetry::now_ns`). Called by both enable methods;
    /// harmless to call repeatedly or from multiple runtimes — last one
    /// wins, which is right for the one-world-at-a-time test pattern.
    fn install_now_source(&self) {
        let clock = self.inner.clock.clone();
        demi_telemetry::set_now_source(Rc::new(move || clock.now().as_nanos()));
    }

    /// Turns on latency histograms (end-to-end op latency plus the
    /// per-stage deltas) for this thread, clocked by this runtime.
    pub fn enable_telemetry(&self) {
        self.install_now_source();
        demi_telemetry::set_enabled(true);
    }

    /// Turns on op-lifecycle span capture (the bounded ring behind
    /// `demi_telemetry::span::drain` / Chrome trace export) for this
    /// thread, clocked by this runtime.
    pub fn enable_tracing(&self) {
        self.install_now_source();
        demi_telemetry::span::set_enabled(true);
    }

    /// Registers a function run on every pump, in registration order among
    /// all pollers, whether or not any bell rang. No libOS uses this — their
    /// device pollers are gated ([`Runtime::register_gated_poller`]); it
    /// serves instrumentation that must observe every pump, such as trace
    /// brackets around the gated pollers. The poller reports how many work
    /// items it processed; `0` means "nothing happened".
    pub fn register_poller(&self, poller: impl Fn() -> usize + 'static) {
        self.inner.pollers.borrow_mut().push(Poller {
            run: Box::new(poller),
            bell: None,
        });
    }

    /// Registers a device poller that a pump runs only after `bell` was
    /// rung, and returns the deadline slot through which its device
    /// publishes its earliest deadline; a pump that finds that deadline
    /// reached rings `bell`. The device rings `bell` itself wherever it
    /// queues work for the poller, and a poller that leaves work behind
    /// (an exhausted RX budget) rings its own bell. Queued work whose bell
    /// never rings is never polled: the wait reports it as
    /// [`DemiError::Deadlock`].
    pub fn register_gated_poller(
        &self,
        bell: Doorbell,
        poller: impl Fn() -> usize + 'static,
    ) -> DeadlineHandle {
        let deadline = self.inner.deadlines.handle(bell.clone());
        self.inner.pollers.borrow_mut().push(Poller {
            run: Box::new(poller),
            bell: Some(bell),
        });
        deadline
    }

    /// Registers a pull-style source of timer deadlines, asked on every
    /// clock advance, after the pushed deadline index. No libOS uses this —
    /// devices publish through the handle [`Runtime::register_gated_poller`]
    /// returns; it serves instrumentation that must observe every advance.
    pub fn register_deadline_source(&self, source: impl Fn() -> Option<SimTime> + 'static) {
        self.inner
            .deadline_sources
            .borrow_mut()
            .push(Box::new(source));
    }

    /// Spawns a queue-operation coroutine and returns its qtoken.
    ///
    /// The coroutine's last act is marking its [`OpTable`] slot ready and
    /// queueing its token on the arrival conduit, which is how
    /// `wait_any`/`wait_all` learn of completions in O(1) instead of
    /// rescanning every waited token each pump pass. The wrapper holds
    /// the runtime weakly — a strong `Runtime` inside a spawned task would
    /// close an Rc cycle and leak the world (the same ownership rule as
    /// [`OpFuture`]).
    pub fn spawn_op<F>(&self, name: &'static str, op: F) -> QToken
    where
        F: Future<Output = OperationResult> + 'static,
    {
        // Spawning polls nothing, so no other op takes this token before
        // the insert below.
        let qt = self.inner.ops.borrow().next_token();
        let started = self.inner.clock.now();
        if demi_telemetry::span::enabled() {
            demi_telemetry::span::begin(qt.0, name, started.as_nanos());
        }
        let op = Instrumented {
            qt: qt.0,
            first_polled: false,
            inner: op,
        };
        let table = Rc::downgrade(&self.inner);
        let handle = self.inner.scheduler.spawn(name, async move {
            let result = op.await;
            if demi_telemetry::span::enabled() {
                demi_telemetry::span::note(
                    qt.0,
                    demi_telemetry::span::SpanPoint::Completed,
                    demi_telemetry::now_ns(),
                );
            }
            if let Some(inner) = table.upgrade() {
                inner.ops.borrow_mut().complete(qt);
            }
            result
        });
        let inserted = self
            .inner
            .ops
            .borrow_mut()
            .insert(OpEntry { handle, started });
        debug_assert_eq!(inserted, qt);
        qt
    }

    /// Spawns a detached background coroutine (service loops, `qconnect`).
    pub fn spawn_background<F>(&self, name: &'static str, task: F)
    where
        F: Future<Output = ()> + 'static,
    {
        let _ = self.inner.scheduler.spawn(name, task);
    }

    /// One cooperative pass: deliver due frames, ring the owners of reached
    /// deadlines, run the pollers whose bells rang, fire due timers, then
    /// one scheduler pass over the *woken* tasks. Returns the number of
    /// tasks that completed.
    ///
    /// Frame delivery must happen here and not only in the internal advance
    /// because virtual time also moves through *cost charges* (the
    /// simulated kernel charging syscall/copy time); frames whose delivery
    /// instant has been passed that way must still arrive promptly.
    pub fn pump(&self) -> usize {
        self.pump_report().completed
    }

    /// Runs the world for `dur` of virtual time with no application work
    /// outstanding: pumps ready work and advances the clock through every
    /// pending event (frame deliveries, delayed ACKs, retransmit timers)
    /// until `now + dur` is reached or nothing can move. Lets in-flight
    /// protocol state quiesce — e.g., a device offload re-arms only once
    /// the host connection has nothing unacknowledged.
    pub fn settle(&self, dur: SimTime) {
        let deadline = self.now().saturating_add(dur);
        loop {
            while self.pump_report().has_work() {}
            if self.now() >= deadline || !self.advance(Some(deadline)) {
                return;
            }
        }
    }

    fn pump_report(&self) -> PumpReport {
        let mut external = 0usize;
        if let Some(fabric) = &self.inner.fabric {
            let before = fabric.stats().frames_delivered;
            fabric.deliver_due();
            external += (fabric.stats().frames_delivered - before) as usize;
        }
        // Deadlines passed since the last pump — by `advance`, or by a cost
        // charge moving the clock inside a task — ring their owners here.
        self.inner.deadlines.ring_due(self.inner.clock.now());
        external += self.run_pollers(false);
        external += self.inner.timers.fire_due();
        // Run a scheduler pass only when there is woken work to run (the
        // legacy Sweep policy polls everyone, so it always "has work").
        let pass = if self.inner.scheduler.has_runnable()
            || self.inner.scheduler.policy() == PollPolicy::Sweep
        {
            self.inner.scheduler.run_pass()
        } else {
            Default::default()
        };
        PumpReport {
            completed: pass.completed,
            polled: pass.polled,
            external,
        }
    }

    /// Runs, in registration order, every poller whose bell is rung — and,
    /// unless `rung_only`, every bell-less poller. A bell rung by an earlier
    /// poller of the same round is answered in that round. Returns the work
    /// items they processed.
    fn run_pollers(&self, rung_only: bool) -> usize {
        let mut work = 0;
        for poller in self.inner.pollers.borrow().iter() {
            match &poller.bell {
                Some(bell) if bell.take() => {
                    self.inner.metrics.count(POLLER_RUNS);
                    work += (poller.run)();
                }
                None if !rung_only => work += (poller.run)(),
                _ => {}
            }
        }
        work
    }

    /// Advances virtual time to the earliest pending event, bounded by
    /// `limit`. Returns `false` when nothing can advance.
    ///
    /// Work already pending at this instant is progress, not a reason to
    /// jump the clock. A rung bell is such work — typically frames a task
    /// just pushed onto a TX coalescing ring, invisible to the fabric
    /// until flushed — so the rung pollers run first, and if they did
    /// anything the clock stays for the next pump to process it.
    fn advance(&self, limit: Option<SimTime>) -> bool {
        let now = self.inner.clock.now();
        self.inner.deadlines.ring_due(now);
        if self.run_pollers(true) > 0 {
            return true;
        }
        // Frames already due (their delivery instant was passed by a cost
        // charge, or a flush just above sent them over a zero-latency link)
        // are pending work too: deliver them and report progress so the
        // next pump processes them.
        if let Some(fabric) = &self.inner.fabric {
            if fabric.next_event_time().is_some_and(|t| t <= now) {
                fabric.deliver_due();
                return true;
            }
        }
        let mut earliest: Option<SimTime> = None;
        let mut consider = |t: Option<SimTime>| {
            if let Some(t) = t {
                if t > now {
                    earliest = Some(match earliest {
                        Some(e) => e.min(t),
                        None => t,
                    });
                }
            }
        };
        if let Some(fabric) = &self.inner.fabric {
            consider(fabric.next_event_time());
        }
        consider(self.inner.timers.earliest_deadline());
        consider(self.inner.deadlines.earliest_after(now));
        for source in self.inner.deadline_sources.borrow().iter() {
            consider(source());
        }
        let mut target = match (earliest, limit) {
            (Some(t), _) => t,
            // Nothing else pending, but the caller has a wait deadline:
            // advance straight to it so the timeout can fire.
            (None, Some(limit)) if limit > now => limit,
            _ => return false,
        };
        if let Some(limit) = limit {
            if limit < target {
                // The wait deadline comes first; advance exactly to it so
                // the timeout fires without skipping events.
                target = limit;
            }
        }
        self.inner.clock.advance_to(target);
        if let Some(fabric) = &self.inner.fabric {
            fabric.deliver_due();
        }
        // Wake the sleepers whose deadlines were just reached.
        self.inner.timers.fire_due();
        true
    }

    /// Consumes `qt` if its operation has completed. The slot's ready flag
    /// is the only source of truth: it is set the instant the coroutine
    /// finishes (the `spawn_op` wrapper), so this is a flag check, not a
    /// handle poll.
    fn take_if_complete(&self, qt: QToken) -> Option<(OperationResult, SimTime)> {
        let entry = self.inner.ops.borrow_mut().take_ready(qt)?;
        let result = entry.handle.take_result().expect("ready token is complete");
        Some((result, entry.started))
    }

    /// Consumes `qt` if its operation has completed, records the wakeup,
    /// and stamps the wait-delivery telemetry (end-to-end op latency +
    /// span close).
    fn finish(&self, qt: QToken) -> Option<OperationResult> {
        let (result, started) = self.take_if_complete(qt)?;
        if demi_telemetry::enabled() || demi_telemetry::span::enabled() {
            let now = self.inner.clock.now();
            demi_telemetry::stage::record(
                demi_telemetry::stage::Stage::OpLatency,
                now.saturating_since(started).as_nanos(),
            );
            demi_telemetry::span::note(
                qt.0,
                demi_telemetry::span::SpanPoint::Delivered,
                now.as_nanos(),
            );
            demi_telemetry::span::finish(qt.0);
        }
        let metrics = &self.inner.metrics;
        metrics.count(WAKEUPS);
        if matches!(result, OperationResult::Pop { .. }) {
            metrics.count(WAKEUPS_WITH_DATA);
        }
        Some(result)
    }

    /// Entry pass of a `wait_*` call (see [`OpTable::enter_wait`]). The
    /// only O(tokens) work a wait does — the steady-state loop reads only
    /// the arrival conduit.
    fn enter_wait(&self, qts: &[QToken], duplicates_ok: bool) -> Result<EntryPass, DemiError> {
        let pass = self.inner.ops.borrow_mut().enter_wait(qts, duplicates_ok)?;
        self.inner
            .metrics
            .add(COMPLETION_CHECKS, pass.distinct as u64);
        Ok(pass)
    }

    /// Pops arrivals off the conduit until one marked by wait `wait` turns
    /// up (or the conduit drains); returns its caller index and token.
    /// Stale entries — tokens already consumed through `wait`/`await_op` —
    /// are discarded; tokens some *other* waiter wants come off the
    /// conduit too but stay ready, where that waiter's entry pass finds
    /// them. Cost is O(arrivals since the last call), independent of how
    /// many tokens this wait covers.
    fn next_arrival(&self, wait: u64) -> Option<(usize, QToken)> {
        let mut ops = self.inner.ops.borrow_mut();
        let mut checks = 0u64;
        let mut hit = None;
        while let Some(qt) = ops.arrivals.pop_front() {
            let Some(slot) = ops.slot_mut(qt).filter(|s| s.ready) else {
                continue;
            };
            checks += 1;
            if slot.mark.wait == wait {
                hit = Some((slot.mark.index, qt));
                break;
            }
        }
        drop(ops);
        if checks > 0 {
            self.inner.metrics.add(COMPLETION_CHECKS, checks);
        }
        hit
    }

    /// The shared blocking loop under `wait_any`/`wait_all`: pump the
    /// world, let the caller consume arrivals, and otherwise advance
    /// virtual time — declaring deadlock on the first quiescent pass.
    fn drive_wait<T>(
        &self,
        deadline: Option<SimTime>,
        mut step: impl FnMut() -> WaitStep<T>,
    ) -> Result<T, DemiError> {
        loop {
            let report = self.pump_report();
            self.inner.metrics.count(WAIT_PASSES);
            self.inner.metrics.add(WAIT_POLLS, report.polled as u64);
            let consumed = match step() {
                WaitStep::Done(value) => return Ok(value),
                WaitStep::Progress => true,
                WaitStep::Idle => false,
            };
            if let Some(deadline) = deadline {
                if self.now() >= deadline {
                    return Err(DemiError::Timeout);
                }
            }
            let advanced = report.completed == 0 && self.advance(deadline);
            if consumed
                || report.completed > 0
                || report.polled > 0
                || report.external > 0
                || advanced
            {
                continue;
            }
            // Quiescent: no woken tasks, no external work, no bell rung,
            // no time to advance. Every state change signals the object
            // that changed, so nothing parked can ever run again.
            if std::env::var("DEMI_DEBUG_DEADLOCK").is_ok() {
                eprintln!(
                    "DEADLOCK: now={:?} live={:?} stats={:?}",
                    self.now(),
                    self.inner.scheduler.live_task_names(),
                    self.inner.scheduler.stats()
                );
            }
            return Err(DemiError::Deadlock);
        }
    }

    /// Blocks (cooperatively) until the operation named by `qt` completes.
    ///
    /// Returns the operation's result *with its data* — no follow-up call
    /// is needed. `timeout` of `None` waits forever (bounded by deadlock
    /// detection).
    pub fn wait(&self, qt: QToken, timeout: Option<SimTime>) -> Result<OperationResult, DemiError> {
        match self.wait_any(&[qt], timeout) {
            Ok((0, result)) => Ok(result),
            Ok(_) => unreachable!("single-token wait resolves index 0"),
            Err(e) => Err(e),
        }
    }

    /// Waits for the first of `qts` to complete; returns its index and
    /// result (the paper's improved epoll, §4.4). Completed tokens are
    /// consumed; the rest stay valid. A token listed twice resolves at its
    /// first index; an empty `qts` is [`DemiError::BadQToken`] at once,
    /// since nothing could ever resolve it.
    ///
    /// Completion delivery is O(1) per pump pass: one allocation-free
    /// entry pass over the tokens up front (a table index and a mark stamp
    /// each), then the loop only pops the arrival conduit — the per-pass
    /// cost no longer multiplies by how many tokens the call watches (E13).
    ///
    /// The wait loop is event-driven, not spin-bounded: every iteration
    /// either ran woken tasks, absorbed external work, or advanced virtual
    /// time. When none of those is possible the world is quiescent, and
    /// the wait reports [`DemiError::Deadlock`] deterministically.
    pub fn wait_any(
        &self,
        qts: &[QToken],
        timeout: Option<SimTime>,
    ) -> Result<(usize, OperationResult), DemiError> {
        if qts.is_empty() {
            // Nothing could ever resolve this wait; don't pump the world
            // through every pending event to find that out.
            return Err(DemiError::BadQToken);
        }
        // A token may have completed before this wait began (e.g., consumed
        // pumps from an earlier wait). Lowest caller index wins, and a
        // duplicated token resolves at its first occurrence.
        let pass = self.enter_wait(qts, true)?;
        if let Some(i) = pass.first_ready {
            return Ok((i, self.finish(qts[i]).expect("entry pass saw it ready")));
        }
        let deadline = timeout.map(|d| self.now().saturating_add(d));
        self.drive_wait(deadline, || match self.next_arrival(pass.wait) {
            Some((i, qt)) => WaitStep::Done((i, self.finish(qt).expect("arrival is ready"))),
            None => WaitStep::Idle,
        })
    }

    /// Waits until *all* of `qts` complete (or the timeout expires).
    /// Results are returned in token order.
    ///
    /// Drives one wait loop consuming completions as they arrive — not a
    /// `wait_any` per token, which rebuilt the token slice and rescanned
    /// the survivors after every completion (O(n²) over the batch). A
    /// token listed twice is [`DemiError::BadQToken`] (it can resolve only
    /// once); an empty `qts` returns no results at once.
    pub fn wait_all(
        &self,
        qts: &[QToken],
        timeout: Option<SimTime>,
    ) -> Result<Vec<OperationResult>, DemiError> {
        // A duplicate can only resolve once; the entry pass rejects it like
        // an already-consumed token rather than hanging.
        let pass = self.enter_wait(qts, false)?;
        let mut results: Vec<Option<OperationResult>> = Vec::with_capacity(qts.len());
        results.resize_with(qts.len(), || None);
        let mut missing = qts.len();
        if pass.ready > 0 {
            for (result, &qt) in results.iter_mut().zip(qts) {
                *result = self.finish(qt);
            }
            missing -= pass.ready;
        }
        if missing > 0 {
            let deadline = timeout.map(|d| self.now().saturating_add(d));
            self.drive_wait(deadline, || {
                let mut consumed = false;
                while let Some((i, qt)) = self.next_arrival(pass.wait) {
                    results[i] = Some(self.finish(qt).expect("arrival is ready"));
                    missing -= 1;
                    consumed = true;
                }
                if missing == 0 {
                    WaitStep::Done(())
                } else if consumed {
                    WaitStep::Progress
                } else {
                    WaitStep::Idle
                }
            })?;
        }
        Ok(results
            .into_iter()
            .map(|r| r.expect("all slots filled"))
            .collect())
    }

    /// Number of unresolved qtokens (diagnostics).
    pub fn outstanding(&self) -> usize {
        self.inner.ops.borrow().live
    }

    /// A future resolving when the operation named by `qt` completes —
    /// the coroutine-level counterpart of [`Runtime::wait`], used by queue
    /// transformations to compose operations inside the scheduler. The
    /// awaiting coroutine parks on the operation's completion waker; it is
    /// woken exactly once, when the operation finishes.
    ///
    /// Resolves to `Failed(BadQToken)` for unknown/consumed tokens.
    pub fn await_op(&self, qt: QToken) -> OpFuture {
        OpFuture {
            runtime: Rc::downgrade(&self.inner),
            qt,
        }
    }
}

/// Wraps every op coroutine to observe its lifecycle: stamps the span's
/// first-poll point and brackets each poll with the span module's
/// current-op marker so deeper layers (the device sim's `tx_burst`) can
/// attribute events to the op being executed. When span capture is off
/// this is one thread-local bool read per poll.
struct Instrumented<F> {
    qt: u64,
    first_polled: bool,
    inner: F,
}

impl<F: Future> Future for Instrumented<F> {
    type Output = F::Output;

    fn poll(
        self: std::pin::Pin<&mut Self>,
        cx: &mut std::task::Context<'_>,
    ) -> std::task::Poll<F::Output> {
        // SAFETY: `inner` is never moved out of the pinned wrapper; the
        // re-pin below covers the only access.
        let this = unsafe { self.get_unchecked_mut() };
        let tracing = demi_telemetry::span::enabled();
        if tracing {
            if !this.first_polled {
                this.first_polled = true;
                demi_telemetry::span::note(
                    this.qt,
                    demi_telemetry::span::SpanPoint::FirstPoll,
                    demi_telemetry::now_ns(),
                );
            }
            demi_telemetry::span::set_current(Some(this.qt));
        }
        let result = unsafe { std::pin::Pin::new_unchecked(&mut this.inner) }.poll(cx);
        if tracing {
            demi_telemetry::span::set_current(None);
        }
        result
    }
}

/// Future returned by [`Runtime::await_op`].
///
/// Holds the runtime weakly: this future lives inside a spawned coroutine,
/// which the scheduler (owned by the runtime) owns in turn — a strong
/// `Runtime` here would close an Rc cycle and leak the world.
pub struct OpFuture {
    runtime: std::rc::Weak<Inner>,
    qt: QToken,
}

impl Future for OpFuture {
    type Output = OperationResult;

    fn poll(
        self: std::pin::Pin<&mut Self>,
        cx: &mut std::task::Context<'_>,
    ) -> std::task::Poll<OperationResult> {
        let Some(inner) = self.runtime.upgrade() else {
            // The runtime is being torn down; nothing to wait for.
            return std::task::Poll::Ready(OperationResult::Failed(DemiError::BadQToken));
        };
        let runtime = Runtime { inner };
        if let Some((result, _started)) = runtime.take_if_complete(self.qt) {
            // Consumed inside a composing coroutine, not by `wait`: close
            // the span without a wait-delivery stamp.
            demi_telemetry::span::finish(self.qt.0);
            return std::task::Poll::Ready(result);
        }
        let mut ops = runtime.inner.ops.borrow_mut();
        let Some(entry) = ops.slot_mut(self.qt).and_then(|s| s.entry.as_ref()) else {
            return std::task::Poll::Ready(OperationResult::Failed(DemiError::BadQToken));
        };
        // Park until the operation's task completes.
        entry.handle.register_completion_waker(cx.waker());
        std::task::Poll::Pending
    }
}

impl Default for Runtime {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Runtime(now={:?}, outstanding={})",
            self.now(),
            self.outstanding()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Sga;
    use demi_sched::yield_once;
    use std::cell::Cell;

    #[test]
    fn wait_returns_result_directly() {
        let rt = Runtime::new();
        let qt = rt.spawn_op("instant", async { OperationResult::Push });
        let result = rt.wait(qt, None).unwrap();
        assert!(matches!(result, OperationResult::Push));
        assert_eq!(rt.outstanding(), 0);
    }

    #[test]
    fn waiting_twice_on_one_token_is_an_error() {
        let rt = Runtime::new();
        let qt = rt.spawn_op("instant", async { OperationResult::Push });
        rt.wait(qt, None).unwrap();
        assert_eq!(rt.wait(qt, None), Err(DemiError::BadQToken));
    }

    #[test]
    fn wait_any_resolves_exactly_one() {
        let rt = Runtime::new();
        let slow = rt.spawn_op("slow", async {
            for _ in 0..10 {
                yield_once().await;
            }
            OperationResult::Push
        });
        let fast = rt.spawn_op("fast", async {
            OperationResult::Pop {
                from: None,
                sga: Sga::from_slice(b"data"),
            }
        });
        let (idx, result) = rt.wait_any(&[slow, fast], None).unwrap();
        assert_eq!(idx, 1);
        let (_, sga) = result.expect_pop();
        assert_eq!(sga.to_vec(), b"data");
        // The slow token is still valid and waitable.
        assert!(matches!(
            rt.wait(slow, None).unwrap(),
            OperationResult::Push
        ));
    }

    #[test]
    fn wait_all_returns_in_token_order() {
        let rt = Runtime::new();
        let a = rt.spawn_op("a", async {
            for _ in 0..5 {
                yield_once().await;
            }
            OperationResult::Connect
        });
        let b = rt.spawn_op("b", async { OperationResult::Push });
        let results = rt.wait_all(&[a, b], None).unwrap();
        assert!(matches!(results[0], OperationResult::Connect));
        assert!(matches!(results[1], OperationResult::Push));
    }

    #[test]
    fn timeout_fires_in_virtual_time() {
        let rt = Runtime::new();
        let timers = rt.timers().clone();
        let qt = rt.spawn_op("sleepy", async move {
            timers.sleep(SimTime::from_millis(10)).await;
            OperationResult::Push
        });
        // 1ms timeout on a 10ms sleep: times out, token stays valid.
        assert_eq!(
            rt.wait(qt, Some(SimTime::from_millis(1))),
            Err(DemiError::Timeout)
        );
        // Waiting again without timeout completes at the 10ms mark.
        let result = rt.wait(qt, None).unwrap();
        assert!(matches!(result, OperationResult::Push));
        assert_eq!(rt.now(), SimTime::from_millis(10));
    }

    #[test]
    fn blocked_wait_advances_virtual_time_through_timers() {
        let rt = Runtime::new();
        let timers = rt.timers().clone();
        let qt = rt.spawn_op("timer", async move {
            timers.sleep(SimTime::from_micros(500)).await;
            OperationResult::Push
        });
        rt.wait(qt, None).unwrap();
        assert_eq!(rt.now(), SimTime::from_micros(500));
    }

    #[test]
    fn deadlock_is_detected_not_spun_forever() {
        let rt = Runtime::new();
        let qt = rt.spawn_op("stuck", std::future::pending());
        assert_eq!(rt.wait(qt, None), Err(DemiError::Deadlock));
    }

    #[test]
    fn unknown_token_is_rejected() {
        let rt = Runtime::new();
        assert_eq!(rt.wait(QToken(999), None), Err(DemiError::BadQToken));
    }

    #[test]
    fn waiting_on_no_tokens_is_rejected_without_moving_the_clock() {
        let rt = Runtime::new();
        let timers = rt.timers().clone();
        let pending = rt.spawn_op("sleepy", async move {
            timers.sleep(SimTime::from_millis(5)).await;
            OperationResult::Push
        });
        assert_eq!(rt.wait_any(&[], None), Err(DemiError::BadQToken));
        assert_eq!(
            rt.wait_any(&[], Some(SimTime::from_millis(1))),
            Err(DemiError::BadQToken)
        );
        assert_eq!(rt.now(), SimTime::ZERO, "an empty wait pumped the world");
        assert_eq!(rt.wait_all(&[], None), Ok(vec![]));
        rt.wait(pending, None).unwrap();
    }

    #[test]
    fn consumed_token_stays_bad_after_its_slot_is_reused() {
        let rt = Runtime::new();
        let old = rt.spawn_op("old", async { OperationResult::Push });
        rt.wait(old, None).unwrap();
        let new = rt.spawn_op("new", async { OperationResult::Connect });
        assert_eq!(new.0 as u32, old.0 as u32, "the freed slot is reused");
        assert_ne!(new, old);
        assert_eq!(rt.wait(old, None), Err(DemiError::BadQToken));
        assert_eq!(rt.wait_all(&[old], None), Err(DemiError::BadQToken));
        assert!(matches!(
            rt.wait(new, None).unwrap(),
            OperationResult::Connect
        ));
        assert_eq!(rt.outstanding(), 0);
    }

    #[test]
    fn wait_all_does_not_claim_an_op_that_reuses_a_freed_slot() {
        let rt = Runtime::new();
        let first = rt.spawn_op("first", async { OperationResult::Push });
        let inner_qt = Rc::new(Cell::new(None));
        let inner_result = Rc::new(RefCell::new(None));
        let outer = rt.spawn_op("outer", {
            let rt = rt.clone();
            let inner_qt = inner_qt.clone();
            let inner_result = inner_result.clone();
            async move {
                // Runs inside the wait_all below, after it consumed
                // `first` at entry and freed its slot.
                yield_once().await;
                let inner = rt.spawn_op("inner", async {
                    yield_once().await;
                    OperationResult::Push
                });
                inner_qt.set(Some(inner));
                *inner_result.borrow_mut() = Some(rt.await_op(inner).await);
                OperationResult::Connect
            }
        });
        rt.pump();
        let results = rt.wait_all(&[first, outer], None).unwrap();
        assert!(matches!(results[0], OperationResult::Push));
        assert!(matches!(results[1], OperationResult::Connect));
        let inner = inner_qt.get().expect("outer spawned its inner op");
        assert_eq!(inner.0 as u32, first.0 as u32, "inner reused first's slot");
        assert!(matches!(
            inner_result.borrow_mut().take(),
            Some(OperationResult::Push)
        ));
        assert_eq!(rt.outstanding(), 0);
    }

    #[test]
    fn duplicate_tokens_resolve_once_and_count_once() {
        let rt = Runtime::new();
        let timers = rt.timers().clone();
        let ready = rt.spawn_op("ready", async { OperationResult::Push });
        let slow = rt.spawn_op("slow", async move {
            timers.sleep(SimTime::from_micros(10)).await;
            OperationResult::Connect
        });
        rt.pump();
        rt.metrics().reset();
        let (idx, result) = rt.wait_any(&[ready, slow, ready], None).unwrap();
        assert_eq!(idx, 0, "a duplicate resolves at its first occurrence");
        assert!(matches!(result, OperationResult::Push));
        assert_eq!(
            rt.metrics().snapshot().completion_checks,
            2,
            "the entry pass counts distinct tokens"
        );
        assert_eq!(rt.wait_all(&[slow, slow], None), Err(DemiError::BadQToken));
        // The rejected wait_all left `slow` valid; a duplicate that arrives
        // after entry also resolves at its first occurrence.
        let (idx, result) = rt.wait_any(&[slow, slow], None).unwrap();
        assert_eq!(idx, 0);
        assert!(matches!(result, OperationResult::Connect));
    }

    #[test]
    fn wakeups_are_counted_once_per_completion() {
        let rt = Runtime::new();
        let qt = rt.spawn_op("op", async {
            OperationResult::Pop {
                from: None,
                sga: Sga::from_slice(b"x"),
            }
        });
        rt.wait(qt, None).unwrap();
        let m = rt.metrics().snapshot();
        assert_eq!(m.wakeups, 1);
        assert_eq!(m.wakeups_with_data, 1);
    }

    #[test]
    fn deadline_sources_drive_advancement() {
        let rt = Runtime::new();
        let fire_at = SimTime::from_micros(42);
        rt.register_deadline_source(move || Some(fire_at));
        let clock = rt.clock().clone();
        let qt = rt.spawn_op("ext", async move {
            loop {
                if clock.now() >= fire_at {
                    return OperationResult::Push;
                }
                yield_once().await;
            }
        });
        rt.wait(qt, None).unwrap();
        assert_eq!(rt.now(), fire_at);
    }

    /// A poller holding queued work whose doorbell never rings is never
    /// run: the wait reports the missed ring as a deadlock at the instant
    /// the world went quiet, and ringing the bell is what releases it.
    #[test]
    fn gated_poller_whose_bell_never_rings_is_a_deadlock() {
        let rt = Runtime::new();
        let queued = Rc::new(Cell::new(1usize));
        let delivered = demi_sched::Condition::new();
        let bell = Doorbell::new();
        let _deadline = rt.register_gated_poller(bell.clone(), {
            let (queued, delivered) = (queued.clone(), delivered.clone());
            move || {
                let n = queued.replace(0);
                if n > 0 {
                    delivered.signal();
                }
                n
            }
        });
        let timers = rt.timers().clone();
        let qt = rt.spawn_op("consumer", async move {
            timers.sleep(SimTime::from_micros(5)).await;
            delivered.wait().await;
            OperationResult::Push
        });
        assert_eq!(rt.wait(qt, None), Err(DemiError::Deadlock));
        assert_eq!(rt.now(), SimTime::from_micros(5));
        assert_eq!(queued.get(), 1, "the unrung poller ran");
        assert_eq!(rt.metrics().snapshot().poller_runs, 0);
        bell.ring();
        assert!(matches!(rt.wait(qt, None), Ok(OperationResult::Push)));
        assert_eq!(rt.metrics().snapshot().poller_runs, 1);
    }

    /// A deadline published through the handle drives clock advance and
    /// rings its poller when reached; publishing `None` withdraws it.
    #[test]
    fn published_deadlines_drive_advancement_until_withdrawn() {
        let rt = Runtime::new();
        let runs = Rc::new(Cell::new(0usize));
        let deadline = rt.register_gated_poller(Doorbell::new(), {
            let runs = runs.clone();
            move || {
                runs.set(runs.get() + 1);
                0
            }
        });
        let fire_at = SimTime::from_micros(42);
        deadline.set(Some(fire_at));
        let clock = rt.clock().clone();
        let qt = rt.spawn_op("ext", async move {
            while clock.now() < fire_at {
                yield_once().await;
            }
            OperationResult::Push
        });
        rt.wait(qt, None).unwrap();
        assert_eq!(rt.now(), fire_at);
        assert_eq!(runs.get(), 1, "reaching the deadline rang its poller");

        // A withdrawn deadline is nothing to advance to: a parked wait is
        // quiescent where it stands.
        deadline.set(Some(SimTime::from_micros(100)));
        deadline.set(None);
        let never = demi_sched::Condition::new();
        let qt = rt.spawn_op("parked", async move {
            never.wait().await;
            OperationResult::Push
        });
        assert_eq!(rt.wait(qt, None), Err(DemiError::Deadlock));
        assert_eq!(rt.now(), fire_at);
    }

    /// The clock also moves outside `advance` (cost charges, a test moving
    /// it by hand): a deadline passed that way rings its owner on the next
    /// pump.
    #[test]
    fn deadline_passed_outside_advance_rings_on_the_next_pump() {
        let rt = Runtime::new();
        let runs = Rc::new(Cell::new(0usize));
        let deadline = rt.register_gated_poller(Doorbell::new(), {
            let runs = runs.clone();
            move || {
                runs.set(runs.get() + 1);
                0
            }
        });
        deadline.set(Some(SimTime::from_micros(10)));
        rt.pump();
        assert_eq!(runs.get(), 0, "a future deadline rang early");
        rt.clock().advance_to(SimTime::from_micros(20));
        rt.pump();
        assert_eq!(runs.get(), 1);
    }

    /// A task can move the clock past a published deadline (a kernel cost
    /// charge does): the owner is rung and served at that instant, before
    /// the clock jumps on to the next event.
    #[test]
    fn deadline_passed_by_a_task_is_served_before_the_clock_jumps() {
        let rt = Runtime::new();
        let served = demi_sched::Condition::new();
        let served_at = Rc::new(Cell::new(None));
        let deadline = rt.register_gated_poller(Doorbell::new(), {
            let (served, served_at, clock) =
                (served.clone(), served_at.clone(), rt.clock().clone());
            move || {
                if served_at.get().is_some() {
                    return 0;
                }
                served_at.set(Some(clock.now()));
                served.signal();
                1
            }
        });
        deadline.set(Some(SimTime::from_micros(10)));
        let timers = rt.timers().clone();
        let _later = rt.spawn_op("later", async move {
            timers.sleep(SimTime::from_micros(100)).await;
            OperationResult::Push
        });
        let clock = rt.clock().clone();
        let qt = rt.spawn_op("charged", async move {
            clock.advance_to(SimTime::from_micros(20));
            served.wait().await;
            OperationResult::Push
        });
        rt.wait(qt, None).unwrap();
        assert_eq!(served_at.get(), Some(SimTime::from_micros(20)));
        assert_eq!(rt.now(), SimTime::from_micros(20));
    }

    #[test]
    fn parked_ops_cost_nothing_while_waiting_on_another() {
        let rt = Runtime::new();
        // 50 operations parked forever on their own wakerless futures
        // would deadlock; park them on never-signalled conditions instead
        // and confirm waiting on a live op doesn't re-poll them.
        let conds: Vec<demi_sched::Condition> =
            (0..50).map(|_| demi_sched::Condition::new()).collect();
        let parked: Vec<QToken> = conds
            .iter()
            .map(|c| {
                let c = c.clone();
                rt.spawn_op("parked", async move {
                    c.wait().await;
                    OperationResult::Push
                })
            })
            .collect();
        // Drain the initial spawn polls.
        rt.pump();
        let polls_after_park = rt.scheduler().stats().polls;
        let live = rt.spawn_op("live", async {
            yield_once().await;
            OperationResult::Push
        });
        rt.wait(live, None).unwrap();
        let stats = rt.scheduler().stats();
        // Only the live op was polled; the 50 parked ops stayed parked.
        assert_eq!(stats.polls, polls_after_park + 2);
        assert_eq!(stats.spurious_polls, 0);
        // Release the parked ops so the world shuts down cleanly.
        for c in &conds {
            c.signal();
        }
        for qt in parked {
            rt.wait(qt, None).unwrap();
        }
    }

    #[test]
    fn await_op_parks_until_completion() {
        let rt = Runtime::new();
        let timers = rt.timers().clone();
        let slow = rt.spawn_op("slow", async move {
            timers.sleep(SimTime::from_micros(100)).await;
            OperationResult::Push
        });
        let chained = rt.spawn_op("chained", {
            let rt = rt.clone();
            async move {
                let result = rt.await_op(slow).await;
                assert!(matches!(result, OperationResult::Push));
                OperationResult::Connect
            }
        });
        let result = rt.wait(chained, None).unwrap();
        assert!(matches!(result, OperationResult::Connect));
        assert_eq!(rt.now(), SimTime::from_micros(100));
    }

    #[test]
    fn wakerless_state_change_is_reported_as_deadlock() {
        let rt = Runtime::new();
        // A future with NO waker plumbing: readiness flips as a side effect
        // of a deadline source moving the clock, but nobody wakes the task.
        // Nothing sweeps parked tasks, so the missing wake is a
        // deterministic deadlock at the instant the world went quiet.
        let fire_at = SimTime::from_micros(7);
        rt.register_deadline_source(move || Some(fire_at));
        let poll_clock = rt.clock().clone();
        let qt = rt.spawn_op("wakerless", async move {
            std::future::poll_fn(move |_cx| {
                if poll_clock.now() >= fire_at {
                    std::task::Poll::Ready(())
                } else {
                    std::task::Poll::Pending // no waker registered!
                }
            })
            .await;
            OperationResult::Push
        });
        assert_eq!(rt.wait(qt, None), Err(DemiError::Deadlock));
        assert_eq!(rt.now(), fire_at);
        let stats = rt.scheduler().stats();
        assert_eq!(stats.polls, 1, "the parked task was re-polled unwoken");
        assert_eq!(stats.spurious_polls, 0);
    }
}
