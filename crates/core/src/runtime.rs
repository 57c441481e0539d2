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
//! event — a fabric delivery, a protocol timer, or a device completion
//! (registered as *deadline sources*).
//!
//! `wait` gives the paper's two improvements over epoll by construction:
//! it returns the completed operation's data directly (no second syscall),
//! and exactly one waiter resolves per completion (each qtoken names one
//! operation).
//!
//! Scheduling is waker-driven: a `wait` runs scheduler passes only while
//! the run queue is non-empty, and blocked coroutines park on waker
//! sources — per-qtoken completion wakers ([`Runtime::await_op`]), queue
//! and condition wakers, timer deadlines, or the readiness signal of the
//! object they wait on, fired where that object's state changes (catnip
//! parks on the stack's per-connection, per-listener and per-port
//! signals, catfs on its device-completion signal). catnap and catcorn,
//! whose device sims have no per-object readiness yet, park on the
//! runtime's *activity gate* ([`Runtime::activity`]), which fires whenever
//! external progress happens (frames delivered, device pollers did work,
//! timers fired). Poller work counts, not wakeups, drive quiescence and
//! clock advance. Deadlock is no longer a spin-count heuristic: when a
//! pass polls nothing, nothing external moved, and virtual time cannot
//! advance, one *rescue sweep* re-polls every live task (catching state
//! changes that lack waker plumbing), and only if that, too, yields
//! nothing is the wait declared deadlocked.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet, VecDeque};
use std::future::Future;
use std::rc::Rc;

use demi_sched::{Notify, PollPolicy, Scheduler, TaskHandle, TimerService};
use demi_telemetry::counters::{
    COMPLETION_CHECKS, WAIT_PASSES, WAIT_POLLS, WAKEUPS, WAKEUPS_WITH_DATA,
};
use sim_fabric::{Fabric, SimClock, SimTime};

use crate::metrics::Metrics;
use crate::types::{DemiError, OperationResult, QToken};

/// A device-poll hook run on every scheduler pass; returns how many work
/// items (frames, completions, readiness transitions) it processed, so the
/// runtime can tell external progress from idle spinning.
type Poller = Box<dyn Fn() -> usize>;
/// A source of timer deadlines consulted when all tasks block.
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

/// Completion delivery for `wait_any`/`wait_all`: operations push their
/// token here as their coroutine's last act, so waiters learn of
/// completions in arrival order instead of rescanning every waited token
/// each pump pass.
///
/// `ready` is the record of truth — the set of completed-but-unconsumed
/// tokens. `arrivals` is only a conduit: a waiter pops it, skips entries
/// already consumed elsewhere (`wait`/`await_op`), and leaves tokens it is
/// not waiting on in `ready` for their own waiter's entry scan.
#[derive(Default)]
struct CompletionRing {
    arrivals: VecDeque<QToken>,
    ready: HashSet<QToken>,
}

/// Per-qtoken bookkeeping: the task handle plus the submission instant
/// (the telemetry anchor for end-to-end op latency).
struct OpEntry {
    handle: TaskHandle<OperationResult>,
    started: SimTime,
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
    qts: RefCell<HashMap<QToken, OpEntry>>,
    completions: RefCell<CompletionRing>,
    next_qt: Cell<u64>,
    metrics: Metrics,
    /// The activity gate: notified whenever external progress happens, so
    /// libOS coroutines with no per-object readiness signal (catnap,
    /// catcorn) park here instead of yield-spinning.
    activity: Notify,
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

    /// A fabric-sharing runtime with an explicit scheduler policy.
    pub fn with_fabric_and_policy(fabric: Fabric, policy: PollPolicy) -> Self {
        Self::build(fabric.clock(), Some(fabric), policy)
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
                qts: RefCell::new(HashMap::new()),
                completions: RefCell::new(CompletionRing::default()),
                next_qt: Cell::new(1),
                metrics: Metrics::new(),
                activity: Notify::new(),
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

    /// The activity gate: fires after every batch of external progress
    /// (frames delivered, poller work, timers fired). Coroutines waiting
    /// on a device whose objects have no readiness signal of their own
    /// park on `activity().notified()` and re-check their predicate when
    /// woken; every waiter on the gate is re-polled on every event, so a
    /// libOS that can say *which* object changed should signal that
    /// object instead.
    pub fn activity(&self) -> &Notify {
        &self.inner.activity
    }

    /// Registers a function run on every scheduler pass (device RX pumps,
    /// stack `poll()`s). The poller reports how many work items it
    /// processed; `0` means "nothing happened", letting the runtime detect
    /// quiescence without spin counting.
    pub fn register_poller(&self, poller: impl Fn() -> usize + 'static) {
        self.inner.pollers.borrow_mut().push(Box::new(poller));
    }

    /// Registers a source of timer deadlines consulted when all tasks are
    /// blocked (TCP RTO, device completion times, ...).
    pub fn register_deadline_source(&self, source: impl Fn() -> Option<SimTime> + 'static) {
        self.inner
            .deadline_sources
            .borrow_mut()
            .push(Box::new(source));
    }

    /// Spawns a queue-operation coroutine and returns its qtoken.
    ///
    /// The coroutine's last act is pushing its token onto the completion
    /// ring, which is how `wait_any`/`wait_all` learn of completions in
    /// O(1) instead of rescanning every waited token each pump pass. The
    /// wrapper holds the runtime weakly — a strong `Runtime` inside a
    /// spawned task would close an Rc cycle and leak the world (the same
    /// ownership rule as [`OpFuture`]).
    pub fn spawn_op<F>(&self, name: &'static str, op: F) -> QToken
    where
        F: Future<Output = OperationResult> + 'static,
    {
        let qt = QToken(self.inner.next_qt.get());
        self.inner.next_qt.set(qt.0 + 1);
        let started = self.inner.clock.now();
        if demi_telemetry::span::enabled() {
            demi_telemetry::span::begin(qt.0, name, started.as_nanos());
        }
        let op = Instrumented {
            qt: qt.0,
            first_polled: false,
            inner: op,
        };
        let ring = Rc::downgrade(&self.inner);
        let handle = self.inner.scheduler.spawn(name, async move {
            let result = op.await;
            if demi_telemetry::span::enabled() {
                demi_telemetry::span::note(
                    qt.0,
                    demi_telemetry::span::SpanPoint::Completed,
                    demi_telemetry::now_ns(),
                );
            }
            if let Some(inner) = ring.upgrade() {
                let mut completions = inner.completions.borrow_mut();
                completions.arrivals.push_back(qt);
                completions.ready.insert(qt);
            }
            result
        });
        self.inner
            .qts
            .borrow_mut()
            .insert(qt, OpEntry { handle, started });
        qt
    }

    /// Spawns a detached background coroutine (service loops, `qconnect`).
    pub fn spawn_background<F>(&self, name: &'static str, task: F)
    where
        F: Future<Output = ()> + 'static,
    {
        let _ = self.inner.scheduler.spawn(name, task);
    }

    /// One cooperative pass: deliver due frames, run device pollers, fire
    /// due timers, then one scheduler pass over the *woken* tasks. Returns
    /// the number of tasks that completed.
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
        for poller in self.inner.pollers.borrow().iter() {
            external += poller();
        }
        external += self.inner.timers.fire_due();
        if external > 0 {
            // Something moved in the outside world: wake every coroutine
            // parked on the gate so it can re-check its predicate.
            self.inner.activity.notify_waiters();
        }
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

    /// Advances virtual time to the earliest pending event, bounded by
    /// `limit`. Returns `false` when nothing can advance.
    fn advance(&self, limit: Option<SimTime>) -> bool {
        let now = self.inner.clock.now();
        // Frames already due (their delivery instant was passed by a cost
        // charge) are pending work, not a reason to jump the clock: deliver
        // them and report progress so the next pump processes them.
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

    /// The last line of defense before declaring deadlock: re-poll every
    /// live task once (counted as spurious polls in the scheduler stats).
    /// This catches state transitions that have no waker plumbing — e.g., a
    /// protocol giving up after its last retry without emitting a frame.
    /// Returns whether the sweep produced new work.
    fn rescue_sweep(&self) -> bool {
        let report = self.inner.scheduler.sweep_pass();
        report.completed > 0 || self.inner.scheduler.has_runnable()
    }

    /// Consumes `qt` if its operation has completed. The ready set is the
    /// only source of truth: a token appears there the instant its
    /// coroutine finishes (the `spawn_op` wrapper), so this is a set probe,
    /// not a handle poll.
    fn take_if_complete(&self, qt: QToken) -> Option<(OperationResult, SimTime)> {
        {
            let mut completions = self.inner.completions.borrow_mut();
            if !completions.ready.remove(&qt) {
                return None;
            }
        }
        let entry = self
            .inner
            .qts
            .borrow_mut()
            .remove(&qt)
            .expect("ready token is spawned");
        let result = entry.handle.take_result().expect("ready token is complete");
        Some((result, entry.started))
    }

    /// Consumes a token known to be ready, records the wakeup, and stamps
    /// the wait-delivery telemetry (end-to-end op latency + span close).
    fn finish(&self, qt: QToken) -> OperationResult {
        let (result, started) = self
            .take_if_complete(qt)
            .expect("caller checked the ready set");
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
        result
    }

    /// Entry scan: which of `wanted` completed before the wait began?
    /// O(tokens), run exactly once per `wait_*` call — the steady-state
    /// loop reads only the arrival conduit.
    fn scan_ready(&self, wanted: &HashMap<QToken, usize>) -> Vec<(usize, QToken)> {
        self.inner
            .metrics
            .add(COMPLETION_CHECKS, wanted.len() as u64);
        let completions = self.inner.completions.borrow();
        wanted
            .iter()
            .filter(|(qt, _)| completions.ready.contains(qt))
            .map(|(&qt, &i)| (i, qt))
            .collect()
    }

    /// Pops arrivals off the conduit until one of `wanted` turns up (or the
    /// conduit drains). Stale entries — tokens already consumed through
    /// `wait`/`await_op` — are discarded; tokens some *other* waiter wants
    /// come off the conduit too but stay in the ready set, where that
    /// waiter's entry scan finds them. Cost is O(arrivals since the last
    /// call), independent of how many tokens this wait covers.
    fn next_arrival(&self, wanted: &HashMap<QToken, usize>) -> Option<(usize, QToken)> {
        let mut completions = self.inner.completions.borrow_mut();
        let mut checks = 0u64;
        let mut hit = None;
        while let Some(qt) = completions.arrivals.pop_front() {
            if !completions.ready.contains(&qt) {
                continue;
            }
            checks += 1;
            if let Some(&i) = wanted.get(&qt) {
                hit = Some((i, qt));
                break;
            }
        }
        drop(completions);
        if checks > 0 {
            self.inner.metrics.add(COMPLETION_CHECKS, checks);
        }
        hit
    }

    fn known(&self, qt: QToken) -> bool {
        self.inner.qts.borrow().contains_key(&qt)
    }

    /// The shared blocking loop under `wait_any`/`wait_all`: pump the
    /// world, let the caller consume arrivals, and otherwise advance
    /// virtual time — declaring deadlock only when a quiescent pass
    /// survives a rescue sweep.
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
            // A pump pass runs pollers *before* the scheduler, so a
            // coroutine polled this pass may have enqueued frames on a TX
            // coalescing ring that no poller has flushed yet — work
            // invisible to `advance` (no fabric event exists until the
            // flush). Jumping the clock here would hold those frames
            // across the jump, charging them whole timer gaps of latency.
            // Run the pollers once more after any task polls so every
            // pending frame reaches the fabric; if that surfaces real
            // work, reprocess it before the clock is allowed to move.
            let advanced = if report.completed == 0 {
                let late_flush = if report.polled > 0 {
                    let mut n = 0usize;
                    for poller in self.inner.pollers.borrow().iter() {
                        n += poller();
                    }
                    n
                } else {
                    0
                };
                if late_flush > 0 {
                    self.inner.activity.notify_waiters();
                    false
                } else {
                    self.advance(deadline)
                }
            } else {
                false
            };
            if consumed
                || report.completed > 0
                || report.polled > 0
                || report.external > 0
                || advanced
            {
                continue;
            }
            // Quiescent: no woken tasks, no external work, no time to
            // advance. One rescue sweep, then give up.
            if self.rescue_sweep() {
                continue;
            }
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
    /// consumed; the rest stay valid.
    ///
    /// Completion delivery is O(1) per pump pass: one entry scan over the
    /// tokens up front, then the loop only pops the completion-ring
    /// conduit — the per-pass cost no longer multiplies by how many tokens
    /// the call watches (E13).
    ///
    /// The wait loop is event-driven, not spin-bounded: every iteration
    /// either ran woken tasks, absorbed external work, or advanced virtual
    /// time. When none of those is possible the world is quiescent; after
    /// a fruitless rescue sweep the wait reports [`DemiError::Deadlock`]
    /// deterministically.
    pub fn wait_any(
        &self,
        qts: &[QToken],
        timeout: Option<SimTime>,
    ) -> Result<(usize, OperationResult), DemiError> {
        let mut wanted: HashMap<QToken, usize> = HashMap::with_capacity(qts.len());
        for (i, &qt) in qts.iter().enumerate() {
            if !self.known(qt) {
                return Err(DemiError::BadQToken);
            }
            // A duplicated token resolves at its first occurrence, like
            // the historical linear scan did.
            wanted.entry(qt).or_insert(i);
        }
        // A token may have completed before this wait began (e.g., consumed
        // pumps from an earlier wait). Lowest caller index wins, as the
        // linear scan's iteration order used to guarantee.
        if let Some((i, qt)) = self.scan_ready(&wanted).into_iter().min_by_key(|&(i, _)| i) {
            return Ok((i, self.finish(qt)));
        }
        let deadline = timeout.map(|d| self.now().saturating_add(d));
        self.drive_wait(deadline, || match self.next_arrival(&wanted) {
            Some((i, qt)) => WaitStep::Done((i, self.finish(qt))),
            None => WaitStep::Idle,
        })
    }

    /// Waits until *all* of `qts` complete (or the timeout expires).
    /// Results are returned in token order.
    ///
    /// Drives one wait loop consuming completions as they arrive — not a
    /// `wait_any` per token, which rebuilt the token slice and rescanned
    /// the survivors after every completion (O(n²) over the batch).
    pub fn wait_all(
        &self,
        qts: &[QToken],
        timeout: Option<SimTime>,
    ) -> Result<Vec<OperationResult>, DemiError> {
        let mut wanted: HashMap<QToken, usize> = HashMap::with_capacity(qts.len());
        for (i, &qt) in qts.iter().enumerate() {
            if !self.known(qt) || wanted.insert(qt, i).is_some() {
                // A duplicate can only resolve once; reject it like an
                // already-consumed token rather than hanging.
                return Err(DemiError::BadQToken);
            }
        }
        let mut results: Vec<Option<OperationResult>> = Vec::with_capacity(qts.len());
        results.resize_with(qts.len(), || None);
        let mut missing = qts.len();
        for (i, qt) in self.scan_ready(&wanted) {
            results[i] = Some(self.finish(qt));
            missing -= 1;
        }
        if missing > 0 {
            let deadline = timeout.map(|d| self.now().saturating_add(d));
            self.drive_wait(deadline, || {
                let mut consumed = false;
                while let Some((i, qt)) = self.next_arrival(&wanted) {
                    results[i] = Some(self.finish(qt));
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
        self.inner.qts.borrow().len()
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
        if !runtime.known(self.qt) {
            return std::task::Poll::Ready(OperationResult::Failed(DemiError::BadQToken));
        }
        match runtime.take_if_complete(self.qt) {
            Some((result, _started)) => {
                // Consumed inside a composing coroutine, not by `wait`:
                // close the span without a wait-delivery stamp.
                demi_telemetry::span::finish(self.qt.0);
                std::task::Poll::Ready(result)
            }
            None => {
                // Park until the operation's task completes.
                let qts = runtime.inner.qts.borrow();
                if let Some(entry) = qts.get(&self.qt) {
                    entry.handle.register_completion_waker(cx.waker());
                }
                std::task::Poll::Pending
            }
        }
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
    fn rescue_sweep_catches_wakerless_state_change() {
        let rt = Runtime::new();
        // A future with NO waker plumbing: readiness flips as a side effect
        // of a deadline source moving the clock, but nobody wakes the task.
        let clock = rt.clock().clone();
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
        rt.wait(qt, None).unwrap();
        assert_eq!(clock.now(), fire_at);
        // The wait needed at least one rescue sweep to notice the flip
        // (visible as extra passes beyond the wake-driven ones); the task
        // still completed and the clock still advanced correctly.
        assert!(rt.scheduler().stats().passes > 1);
    }
}
