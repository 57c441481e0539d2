//! An edge-triggered, multi-waiter event counter.
//!
//! [`Notify`] is the primitive behind "park until something relevant might
//! have happened": a waiter snapshots the epoch when it starts waiting and
//! completes once the epoch has advanced past the snapshot, so a
//! notification delivered *between* the check and the park is never lost.
//! The library OSes use one instance per object a coroutine can wait on —
//! a socket, a listener, a connection's completion channel, a device's
//! command completions — and fire it where that object's state changes,
//! so an event wakes only the waiters it concerns.
//!
//! The idiomatic wait loop re-checks its predicate after each wake:
//!
//! ```
//! # use demi_sched::{Notify, Scheduler};
//! # let sched = Scheduler::new();
//! # let notify = Notify::new();
//! # let n2 = notify.clone();
//! let h = sched.spawn("waiter", async move {
//!     loop {
//!         let wait = n2.notified();   // snapshot BEFORE checking
//!         if 1 + 1 == 2 { break }     // predicate
//!         wait.await;                 // park until the epoch advances
//!     }
//! });
//! # sched.poll_once();
//! # assert!(h.is_complete());
//! ```

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use crate::waiters::{arm, new_slot, WaiterList, WakerSlot};

#[derive(Default)]
struct NotifyInner {
    epoch: u64,
}

/// A cloneable edge-triggered event source.
#[derive(Clone, Default)]
pub struct Notify {
    inner: Rc<RefCell<NotifyInner>>,
    waiters: Rc<RefCell<WaiterList>>,
}

impl Notify {
    /// Creates a notifier at epoch zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the epoch and wakes every current waiter. Returns how many
    /// tasks were woken.
    pub fn notify_waiters(&self) -> usize {
        self.inner.borrow_mut().epoch += 1;
        self.waiters.borrow_mut().wake_all()
    }

    /// The current epoch (diagnostics).
    pub fn epoch(&self) -> u64 {
        self.inner.borrow().epoch
    }

    /// A future that completes once [`Notify::notify_waiters`] is called
    /// *after* this future was created. Create it before checking the
    /// condition you are waiting on, so an intervening notification is not
    /// lost.
    pub fn notified(&self) -> Notified {
        Notified {
            inner: self.inner.clone(),
            waiters: self.waiters.clone(),
            seen_epoch: self.inner.borrow().epoch,
            slot: new_slot(),
            registered: false,
        }
    }
}

impl std::fmt::Debug for Notify {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Notify(epoch={})", self.epoch())
    }
}

/// Future returned by [`Notify::notified`].
pub struct Notified {
    inner: Rc<RefCell<NotifyInner>>,
    waiters: Rc<RefCell<WaiterList>>,
    seen_epoch: u64,
    slot: WakerSlot,
    registered: bool,
}

impl Future for Notified {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.inner.borrow().epoch > self.seen_epoch {
            *self.slot.borrow_mut() = None;
            Poll::Ready(())
        } else {
            let this = &mut *self;
            arm(&this.slot, &mut this.registered, &this.waiters, cx);
            Poll::Pending
        }
    }
}

impl Drop for Notified {
    fn drop(&mut self) {
        // Disarm so a later notification does not wake a dead waiter.
        *self.slot.borrow_mut() = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scheduler;

    #[test]
    fn notification_wakes_parked_waiter() {
        let sched = Scheduler::new();
        let notify = Notify::new();
        let h = sched.spawn("waiter", {
            let notify = notify.clone();
            async move {
                notify.notified().await;
                "woken"
            }
        });
        sched.poll_once();
        assert!(!h.is_complete());
        assert_eq!(notify.notify_waiters(), 1);
        sched.poll_once();
        assert_eq!(h.take_result(), Some("woken"));
    }

    #[test]
    fn notification_between_snapshot_and_await_is_not_lost() {
        let sched = Scheduler::new();
        let notify = Notify::new();
        let h = sched.spawn("waiter", {
            let notify = notify.clone();
            async move {
                let wait = notify.notified();
                // The event fires before the first await — the snapshot
                // epoch makes the wait complete immediately.
                notify.notify_waiters();
                wait.await;
                true
            }
        });
        sched.poll_once();
        assert_eq!(h.take_result(), Some(true));
    }

    #[test]
    fn notification_before_snapshot_does_not_complete_the_wait() {
        let sched = Scheduler::new();
        let notify = Notify::new();
        notify.notify_waiters();
        let h = sched.spawn("waiter", {
            let notify = notify.clone();
            async move {
                notify.notified().await;
            }
        });
        sched.poll_once();
        assert!(
            !h.is_complete(),
            "stale notification completed a fresh wait"
        );
        notify.notify_waiters();
        sched.poll_once();
        assert!(h.is_complete());
    }

    #[test]
    fn parked_waiter_costs_no_polls() {
        let sched = Scheduler::new();
        let notify = Notify::new();
        sched.spawn("waiter", {
            let notify = notify.clone();
            async move {
                notify.notified().await;
            }
        });
        sched.poll_once();
        let parked_polls = sched.stats().polls;
        for _ in 0..10 {
            sched.poll_once();
        }
        assert_eq!(sched.stats().polls, parked_polls);
    }

    #[test]
    fn dropped_waiter_is_compacted_not_woken() {
        let notify = Notify::new();
        let fut = notify.notified();
        drop(fut);
        assert_eq!(notify.notify_waiters(), 0);
    }
}
