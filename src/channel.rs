//! Channel-grade endpoints over any [`WaitFreeQueue`]: typed
//! [`Sender`]/[`Receiver`] pairs with close semantics.
//!
//! The queue facade ends at "register, operate through a handle, drop to
//! release" — the shape the paper's evaluation needs.  Applications consume
//! an MPMC queue as a *channel*: distinct producer/consumer endpoints that
//! can be moved into threads, typed full/empty/closed errors instead of
//! `Result<(), T>` / `Option<T>`, and graceful shutdown.  This module layers
//! exactly that on top of the [`WaitFreeQueue`] trait, so every backend the
//! builder produces — the bounded wCQ (where [`TrySendError::Full`] is a real
//! error) and the unbounded wLSCQ — serves as a channel without touching
//! algorithm code.
//!
//! # Close protocol
//!
//! A channel closes when the last [`Sender`] drops, the last [`Receiver`]
//! drops, or either side calls `close()` explicitly.  After that:
//!
//! * sends fail fast with [`TrySendError::Closed`] / [`SendError`];
//! * receivers **drain every value sent before the close**, then observe
//!   [`TryRecvError::Closed`] / [`RecvError`].
//!
//! The drain guarantee is exact, not best-effort.  The close state is one
//! word: the number of sends in flight plus a closed top bit (the idiom wLSCQ
//! segments close with).  A send takes its *in-flight credit* with a
//! `fetch_add` whose pre-value also tells it whether the channel is closed;
//! `close()` is a `fetch_or` of the bit, so every send is ordered either
//! before the close (and counted until its enqueue has landed) or after it
//! (and refused).  A receiver only concludes `Closed` after it reads the bit
//! set with a zero count *and* one final empty dequeue — so every enqueue that
//! passed the closed check is visible to some receiver's final drain, and
//! bounded-memory reclamation (Theorem 5.8) keeps running unchanged
//! underneath.
//!
//! # Threading model
//!
//! Endpoints are [`Send`] but not [`Sync`]: move one into a thread (or task)
//! and operate through `&mut self`; clone it to fan out.  Each endpoint lazily
//! registers its own queue handle on the thread that first uses it — and
//! transparently re-registers if the endpoint migrates — so the per-thread
//! record slots the algorithm needs (Figure 4) follow the endpoints around.
//! Size [`crate::QueueBuilder::threads`] for the peak number of endpoints
//! alive at once.
//!
//! ```
//! use wcq::channel::TryRecvError;
//!
//! let (tx, mut rx) = wcq::builder().threads(4).build_channel::<u64>();
//!
//! let mut tx2 = tx.clone();
//! let producer = std::thread::spawn(move || {
//!     for i in 0..100 {
//!         tx2.send(i).expect("receiver alive");
//!     }
//! });
//! drop(tx); // the clone keeps the channel open until the producer finishes
//!
//! let mut sum = 0;
//! loop {
//!     match rx.try_recv() {
//!         Ok(v) => sum += v,
//!         Err(TryRecvError::Empty) => std::thread::yield_now(),
//!         Err(TryRecvError::Closed) => break, // all senders gone and drained
//!     }
//! }
//! producer.join().unwrap();
//! assert_eq!(sum, (0..100).sum());
//! ```

use std::cell::Cell;
use std::sync::atomic::Ordering::SeqCst;
use std::sync::atomic::{AtomicU64, AtomicUsize};
use std::sync::Arc;
use std::time::Duration;

use wcq_core::api::{QueueHandle, WaitFreeQueue};
use wcq_core::metrics::{Counter, Instrument, NoopInstrument};

use crate::wait::{Lane, Parked, WakeSide, NO_DEADLINE};

pub use wcq_core::channel::{
    RecvError, RecvTimeoutError, SendError, SendTimeoutError, TryRecvError, TrySendError,
};

// --------------------------------------------------------------------------
// Shared channel state
// --------------------------------------------------------------------------

/// The closed bit of [`ChannelCore`]'s `inflight` word: set once by the first
/// close, never cleared.  The count below it is bounded by the live sends.
const CLOSED: usize = 1 << (usize::BITS - 1);

/// State shared by every endpoint of one channel.
///
/// The `I` parameter is the compile-time instrumentation strategy (see
/// [`Instrument`]): with the default [`NoopInstrument`] every telemetry call
/// below monomorphizes to nothing, so the uninstrumented channel pays zero
/// cost for the park/wake/close counters.
pub(crate) struct ChannelCore<T: Send + 'static, I: Instrument = NoopInstrument> {
    queue: Box<dyn WaitFreeQueue<T>>,
    /// Compile-time telemetry strategy shared by every endpoint.
    instrument: I,
    /// Live `Sender` + `AsyncSender` endpoints; last drop closes the channel.
    senders: AtomicUsize,
    /// Live `Receiver` + `AsyncReceiver` endpoints; last drop closes too, so
    /// senders into an abandoned channel fail instead of filling it forever.
    receivers: AtomicUsize,
    /// Sends that have taken their pre-close credit but not yet completed
    /// (see [`ChannelCore::try_send`]), plus the [`CLOSED`] bit: a receiver
    /// only concludes `Closed` once it reads the bit with a zero count.
    inflight: AtomicUsize,
    /// Parked receivers: one is woken per successful send, all on close.
    recv_side: WakeSide<I>,
    /// Parked senders (bounded backend, full): one is woken per successful
    /// receive, all on close.
    send_side: WakeSide<I>,
}

impl<T: Send + 'static, I: Instrument> ChannelCore<T, I> {
    /// The backend queue (for hints and diagnostics).
    pub(crate) fn queue(&self) -> &dyn WaitFreeQueue<T> {
        &*self.queue
    }

    pub(crate) fn is_closed(&self) -> bool {
        self.inflight.load(SeqCst) & CLOSED != 0
    }

    /// Number of sends currently holding a pre-close in-flight credit (see
    /// [`ChannelCore::try_send`]).  Checker introspection only.
    pub(crate) fn inflight_credits(&self) -> usize {
        self.inflight.load(SeqCst) & !CLOSED
    }

    /// Sets the closed bit and wakes everyone.  Returns `true` for the call
    /// that actually performed the transition.
    pub(crate) fn close(&self) -> bool {
        let transitioned = self.inflight.fetch_or(CLOSED, SeqCst) & CLOSED == 0;
        if transitioned {
            self.instrument.record(Counter::ChannelCloses, 1);
            self.recv_side.wake_all();
            self.send_side.wake_all();
        }
        transitioned
    }

    /// The closed-aware non-blocking send (see the module docs for why the
    /// in-flight credit brackets the closed check *and* the enqueue).
    pub(crate) fn try_send(
        &self,
        handle: &mut dyn QueueHandle<T>,
        value: T,
    ) -> Result<(), TrySendError<T>> {
        // The credit and the closed check are one RMW on one word: ordered
        // before the close's `fetch_or`, our credit is counted until the
        // `fetch_sub` below (so a receiver waits for us); ordered after it,
        // we see the bit and fail without enqueuing.
        if self.inflight.fetch_add(1, SeqCst) & CLOSED != 0 {
            self.inflight.fetch_sub(1, SeqCst);
            // A parked receiver may be waiting for exactly this credit to
            // clear before it can conclude `Closed`.
            self.recv_side.wake_all();
            return Err(TrySendError::Closed(value));
        }
        let outcome = handle.try_enqueue(value);
        // If a close raced in while our credit was held, every parked
        // receiver may be blocked on exactly this credit clearing (they
        // re-park on `closed && inflight != 0`), and no later send will come
        // to wake them — broadcast, whatever the enqueue outcome.  A lone
        // `notify_one` here would hand the last pre-close value to one
        // receiver and strand the rest on a closed, drained channel.
        let closed_during = self.inflight.fetch_sub(1, SeqCst) & CLOSED != 0;
        match outcome {
            Ok(()) => {
                if closed_during {
                    self.recv_side.wake_all();
                } else {
                    self.recv_side.wake_one();
                }
                Ok(())
            }
            Err(back) => {
                if closed_during {
                    self.recv_side.wake_all();
                }
                Err(TrySendError::Full(back))
            }
        }
    }

    /// Batch counterpart of [`ChannelCore::try_send`]: one in-flight credit
    /// and one closed check cover the whole batch, and the backend's
    /// specialized [`QueueHandle::enqueue_many`] runs under that bracket.
    /// Accepted elements are drained from the front of `values`; `Ok(0)` with
    /// a non-empty `values` means a bounded backend is full.  `Err` means the
    /// channel was closed before anything in this call was enqueued, so
    /// `values` is untouched.
    ///
    /// The exact-drain close guarantee carries over per element: everything
    /// accepted here was enqueued while the credit was held, so a receiver
    /// that observed `closed` waits for the credit to clear before its final
    /// look and cannot miss any of the batch.
    pub(crate) fn try_send_many(
        &self,
        handle: &mut dyn QueueHandle<T>,
        values: &mut Vec<T>,
    ) -> Result<usize, SendError<()>> {
        if self.inflight.fetch_add(1, SeqCst) & CLOSED != 0 {
            self.inflight.fetch_sub(1, SeqCst);
            self.recv_side.wake_all();
            return Err(SendError(()));
        }
        let accepted = handle.enqueue_many(values);
        if self.inflight.fetch_sub(1, SeqCst) & CLOSED != 0 {
            // See `try_send`: parked receivers re-park on `closed &&
            // inflight != 0`, and no later send will wake them.
            self.recv_side.wake_all();
        } else if accepted == 1 {
            self.recv_side.wake_one();
        } else if accepted > 1 {
            // Several values landed: every parked receiver may have one to
            // take, so a lone wake would strand the rest.
            self.recv_side.wake_all();
        }
        Ok(accepted)
    }

    /// The closed-aware non-blocking receive.
    pub(crate) fn try_recv(&self, handle: &mut dyn QueueHandle<T>) -> Result<T, TryRecvError> {
        if let Some(value) = handle.dequeue() {
            self.send_side.wake_one();
            return Ok(value);
        }
        let state = self.inflight.load(SeqCst);
        if state & CLOSED != 0 {
            if state != CLOSED {
                // A pre-close send is still completing; its value must not be
                // missed, so this is still `Empty`, not `Closed`.
                return Err(TryRecvError::Empty);
            }
            // Final look: every send that passed the closed check finished
            // before the in-flight count we just read hit zero.
            return match handle.dequeue() {
                Some(value) => {
                    self.send_side.wake_one();
                    Ok(value)
                }
                None => Err(TryRecvError::Closed),
            };
        }
        Err(TryRecvError::Empty)
    }

    /// Batch counterpart of [`ChannelCore::try_recv`]: pulls up to `max`
    /// values through the backend's specialized [`QueueHandle::dequeue_into`]
    /// with one closed/in-flight decision for the whole batch.  Returns the
    /// number appended to `out`; the `Empty`/`Closed` distinction is exactly
    /// the single-op one (`Closed` only after `closed && inflight == 0` and
    /// one final empty look).
    pub(crate) fn try_recv_many(
        &self,
        handle: &mut dyn QueueHandle<T>,
        out: &mut Vec<T>,
        max: usize,
    ) -> Result<usize, TryRecvError> {
        let got = handle.dequeue_into(out, max);
        if got > 0 {
            if got == 1 {
                self.send_side.wake_one();
            } else {
                self.send_side.wake_all();
            }
            return Ok(got);
        }
        let state = self.inflight.load(SeqCst);
        if state & CLOSED != 0 {
            if state != CLOSED {
                return Err(TryRecvError::Empty);
            }
            return match handle.dequeue_into(out, max) {
                0 => {
                    // A batch `0` may be a racy observation on some backends
                    // (a run of abandoned tickets can all miss while elements
                    // remain); only the single-op `dequeue`'s `None` — the
                    // authoritative emptiness verdict the exact-drain close
                    // guarantee is built on — may upgrade `Empty` to
                    // `Closed`.
                    match handle.dequeue() {
                        Some(value) => {
                            out.push(value);
                            self.send_side.wake_one();
                            Ok(1)
                        }
                        None => Err(TryRecvError::Closed),
                    }
                }
                got => {
                    self.send_side.wake_all();
                    Ok(got)
                }
            };
        }
        Err(TryRecvError::Empty)
    }
}

impl<T: Send + 'static, I: Instrument> std::fmt::Debug for ChannelCore<T, I> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChannelCore")
            .field("backend", &self.queue.name())
            .field("closed", &self.is_closed())
            .field("senders", &self.senders)
            .field("receivers", &self.receivers)
            .finish()
    }
}

/// A non-blocking receive's result as a wait-core attempt answer: `Empty`
/// is the one result that waits.
pub(crate) fn recv_answer<R>(result: Result<R, TryRecvError>) -> Option<Result<R, RecvError>> {
    match result {
        Ok(value) => Some(Ok(value)),
        Err(TryRecvError::Closed) => Some(Err(RecvError)),
        Err(TryRecvError::Empty) => None,
    }
}

/// The outcome of a wait under [`NO_DEADLINE`]: it ended, so it was answered.
fn answered<O>(outcome: Option<O>) -> O {
    outcome.expect("a wait with no deadline ends only with an answer")
}

/// The outcome of a deadline-bounded receive wait (`None` = timed out) in
/// the timeout error vocabulary.
pub(crate) fn timed<R>(outcome: Option<Result<R, RecvError>>) -> Result<R, RecvTimeoutError> {
    match outcome {
        Some(Ok(value)) => Ok(value),
        Some(Err(RecvError)) => Err(RecvTimeoutError::Closed),
        None => Err(RecvTimeoutError::Timeout),
    }
}

// --------------------------------------------------------------------------
// Lazily-bound per-endpoint queue handle
// --------------------------------------------------------------------------

/// A process-unique, never-zero id of the calling thread: one thread-local
/// read per call, assigned from a global counter on the thread's first call.
///
/// [`HandleSlot::bind`] runs on every `send` and `recv`, and
/// `std::thread::current().id()` clones and drops an `Arc<Thread>` each time
/// (two locked instructions).  The address of a thread-local would be as
/// cheap but is *not* an identity: a thread spawned after another exited can
/// be handed the same TLS block, so an endpoint moved to it would look
/// unmoved and skip the re-registration `bind` promises.  A counter value is
/// never handed out twice.
fn thread_token() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TOKEN: Cell<u64> = const { Cell::new(0) };
    }
    TOKEN.with(|token| {
        if token.get() == 0 {
            token.set(NEXT.fetch_add(1, SeqCst));
        }
        token.get()
    })
}

/// An endpoint's registered queue handle, bound to the thread that last used
/// the endpoint.
///
/// The boxed handle borrows the queue inside the endpoint's
/// `Arc<ChannelCore>`; the lifetime is erased to `'static` so the endpoint
/// can own both.  Soundness rests on two invariants, upheld structurally:
///
/// * endpoints declare the slot field *before* the `Arc`, so the handle drops
///   first and never dangles;
/// * the slot is private and never leaves the endpoint, so the handle cannot
///   outlive the `Arc` through any other path (`mem::forget` leaks both
///   together, which is safe).
struct HandleSlot<T: Send + 'static> {
    /// The owning thread's [`thread_token`] and its handle.
    bound: Option<(u64, Box<dyn QueueHandle<T> + 'static>)>,
}

impl<T: Send + 'static> HandleSlot<T> {
    const fn new() -> Self {
        Self { bound: None }
    }

    /// Returns the handle bound to the current thread, (re-)registering if
    /// the endpoint is fresh or migrated here from another thread.
    ///
    /// # Panics
    /// Panics when every registration slot of the backend is taken (size
    /// `QueueBuilder::threads` for the peak number of live endpoints); the
    /// message names the backend queue.
    fn bind<'s, I: Instrument>(
        &'s mut self,
        core: &Arc<ChannelCore<T, I>>,
    ) -> &'s mut (dyn QueueHandle<T> + 'static) {
        let me = thread_token();
        if let Some((owner, _)) = &self.bound {
            if *owner != me {
                // The endpoint migrated: release the old registration (all
                // handle state is tid-keyed shared atomics, so a cross-thread
                // drop is fine) and re-register on this thread.
                self.bound = None;
            }
        }
        if self.bound.is_none() {
            let handle: Box<dyn QueueHandle<T> + '_> = core.queue.handle();
            // SAFETY: lifetime erasure only — see the type-level comment.
            // The handle borrows `core.queue`, which the endpoint's `Arc`
            // keeps alive strictly longer than this slot.
            let handle: Box<dyn QueueHandle<T> + 'static> = unsafe { std::mem::transmute(handle) };
            self.bound = Some((me, handle));
        }
        &mut **self.bound.as_mut().map(|(_, h)| h).expect("just bound")
    }
}

// --------------------------------------------------------------------------
// Sender
// --------------------------------------------------------------------------

/// The producing endpoint of a channel built by
/// [`build_channel`](crate::QueueBuilder::build_channel).
///
/// Cloning re-acquires a registration slot lazily, so every clone can run on
/// its own thread.  Dropping the last sender closes the channel: receivers
/// drain the remaining values, then observe
/// [`Closed`](TryRecvError::Closed).
///
/// ```
/// let (tx, mut rx) = wcq::builder().threads(4).build_channel::<String>();
/// let mut tx = tx; // send takes &mut self
/// tx.send("over any backend".to_string()).unwrap();
/// drop(tx); // last sender gone -> channel closes after the drain
/// assert_eq!(rx.recv().as_deref(), Ok("over any backend"));
/// assert!(rx.recv().is_err(), "closed and drained");
/// ```
pub struct Sender<T: Send + 'static, I: Instrument = NoopInstrument> {
    // Declared before `core`: fields drop in order, so the lifetime-erased
    // handle dies before the Arc that keeps its queue alive.
    slot: HandleSlot<T>,
    /// This endpoint's slot on the channel's send side, attached on first
    /// use (see the [`Lane`] impl) and detached on drop.
    wait_slot: Option<u64>,
    core: Arc<ChannelCore<T, I>>,
}

// SAFETY: the slot's type-erased handle only ever wraps handles of the
// workspace's queues (the builder's channel finishers are the only way to
// make a channel, and they pass only those), whose entire state is tid-keyed
// shared atomics — the thread-locals involved (tid memo, LL/SC reservation)
// are per-operation hints that tolerate migration.  `&mut self` on every
// operation serializes use, and `bind` re-registers after a migration.
// The instrument is `Send + Sync` by the `Instrument` trait bound.
unsafe impl<T: Send + 'static, I: Instrument> Send for Sender<T, I> {}

impl<T: Send + 'static, I: Instrument> Sender<T, I> {
    /// Attempts to send without waiting.
    ///
    /// Fails with [`TrySendError::Full`] when a *bounded* backend is at
    /// capacity (the unbounded backend never reports it) and with
    /// [`TrySendError::Closed`] once the channel is closed.
    pub fn try_send(&mut self, value: T) -> Result<(), TrySendError<T>> {
        let Self { slot, core, .. } = self;
        let handle = slot.bind(core);
        core.try_send(handle, value)
    }

    /// The `try_send` attempt (see [`crate::wait`]): `None` means full, with
    /// the value put back into `item` for the next try.
    #[inline]
    pub(crate) fn attempt_send(
        &mut self,
        item: &mut Option<T>,
    ) -> Option<Result<(), SendError<T>>> {
        let value = item.take().expect("a finished send is not attempted again");
        match self.try_send(value) {
            Ok(()) => Some(Ok(())),
            Err(TrySendError::Closed(v)) => Some(Err(SendError(v))),
            Err(TrySendError::Full(v)) => {
                *item = Some(v);
                None
            }
        }
    }

    /// The `try_send_batch` attempt: offers `buf` batch by batch — one
    /// credit + closed check, then the backend's `enqueue_many`, per batch —
    /// while the backend accepts anything; `None` means full.  On close the
    /// unsent remainder comes back in order.
    pub(crate) fn attempt_send_batch(
        &mut self,
        buf: &mut Vec<T>,
        total: usize,
    ) -> Option<Result<usize, SendError<Vec<T>>>> {
        loop {
            let Self { slot, core, .. } = self;
            match core.try_send_many(slot.bind(core), buf) {
                Err(SendError(())) => return Some(Err(SendError(std::mem::take(buf)))),
                Ok(_) if buf.is_empty() => return Some(Ok(total)),
                Ok(0) => return None,
                Ok(_) => {} // a batch partly fit: offer the rest right away
            }
        }
    }

    /// Sends `value`, waiting while a bounded backend is full: the wait
    /// spins briefly, then parks (a receive or a close wakes it).  Fails only
    /// when the channel closes first; the value comes back inside the error.
    pub fn send(&mut self, value: T) -> Result<(), SendError<T>> {
        let mut item = Some(value);
        answered(Parked::wait_one(self, NO_DEADLINE, |tx| {
            tx.attempt_send(&mut item)
        }))
    }

    /// Sends every element of `iter`, paying the handle bind, in-flight
    /// credit, and closed check **once per batch** instead of once per
    /// element — the channel face of [`QueueHandle::enqueue_many`].
    ///
    /// Returns the number sent (the whole iterator on success).  When the
    /// channel closes first, the error carries the unsent remainder in order;
    /// everything *not* in the remainder was enqueued before the close and
    /// will be drained by receivers (the exact-drain guarantee is per
    /// element, not per batch).  Like [`Sender::send`], this waits — spinning
    /// briefly, then parked — while a bounded backend is full.
    pub fn send_iter<It>(&mut self, iter: It) -> Result<usize, SendError<Vec<T>>>
    where
        It: IntoIterator<Item = T>,
    {
        let mut buf: Vec<T> = iter.into_iter().collect();
        let total = buf.len();
        if total == 0 {
            return Ok(0);
        }
        answered(Parked::wait_one(self, NO_DEADLINE, |tx| {
            tx.attempt_send_batch(&mut buf, total)
        }))
    }

    /// Sends `value`, waiting at most `timeout` while a bounded backend is
    /// full.
    ///
    /// [`Sender::send`]'s wait with a deadline: it spins briefly, then
    /// *parks* — the sender deposits a thread-unparking waker in the same
    /// send-side slot the async sender uses, so the receive path's existing
    /// wake hook ends the wait with no polling.  The spin counts against
    /// `timeout`.  The value always comes back inside the error — a timed-out
    /// send has **not** enqueued it (there is no accepted-but-also-returned
    /// state), so retrying cannot duplicate.
    ///
    /// A zero `timeout` degrades to [`Sender::try_send`] with `Full` mapped
    /// to `Timeout`.
    pub fn send_timeout(&mut self, value: T, timeout: Duration) -> Result<(), SendTimeoutError<T>> {
        let mut item = Some(value);
        match Parked::wait_one(self, timeout, |tx| tx.attempt_send(&mut item)) {
            Some(Ok(())) => Ok(()),
            Some(Err(SendError(v))) => Err(SendTimeoutError::Closed(v)),
            None => Err(SendTimeoutError::Timeout(
                item.expect("a send that did not finish still holds its value"),
            )),
        }
    }

    /// Closes the channel: all senders fail fast from now on, receivers drain
    /// what was sent before the close and then observe `Closed`.  Returns
    /// `true` for the call that actually closed (idempotent otherwise).
    pub fn close(&self) -> bool {
        self.core.close()
    }

    /// `true` once the channel is closed (by any endpoint, or by the last
    /// endpoint of either class dropping).
    pub fn is_closed(&self) -> bool {
        self.core.is_closed()
    }

    /// Display name of the backend queue (e.g. `"wLSCQ"`).
    pub fn backend_name(&self) -> &'static str {
        self.core.queue().name()
    }

    /// `true` when `other` is an endpoint of the same channel.
    pub fn same_channel(&self, other: &Receiver<T, I>) -> bool {
        Arc::ptr_eq(&self.core, &other.core)
    }
}

impl<T: Send + 'static, I: Instrument> Clone for Sender<T, I> {
    fn clone(&self) -> Self {
        self.core.senders.fetch_add(1, SeqCst);
        Self {
            slot: HandleSlot::new(),
            wait_slot: None,
            core: Arc::clone(&self.core),
        }
    }
}

impl<T: Send + 'static, I: Instrument> Lane for Sender<T, I> {
    type I = I;
    fn lane(&mut self) -> (&WakeSide<I>, u64) {
        let side = &self.core.send_side;
        (side, *self.wait_slot.get_or_insert_with(|| side.attach()))
    }
}

impl<T: Send + 'static, I: Instrument> Drop for Sender<T, I> {
    fn drop(&mut self) {
        if let Some(id) = self.wait_slot.take() {
            // Every wait settles its waker before it ends, so the slot is
            // empty here — this only releases the registry entry.
            self.core.send_side.detach(id);
        }
        if self.core.senders.fetch_sub(1, SeqCst) == 1 {
            self.core.close();
        }
    }
}

impl<T: Send + 'static, I: Instrument> std::fmt::Debug for Sender<T, I> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sender")
            .field("backend", &self.core.queue.name())
            .field("closed", &self.core.is_closed())
            .finish()
    }
}

// --------------------------------------------------------------------------
// Receiver
// --------------------------------------------------------------------------

/// The consuming endpoint of a channel built by
/// [`build_channel`](crate::QueueBuilder::build_channel).
///
/// Channels are MPMC: receivers clone just like senders, and every value goes
/// to exactly one receiver.  After a close, receivers drain all remaining
/// pre-close values before reporting [`TryRecvError::Closed`] — the queue's
/// bounded-memory reclamation keeps running through the drain.
///
/// ```
/// let (tx, rx) = wcq::builder().threads(4).build_channel::<u64>();
/// let (mut tx, mut rx) = (tx, rx);
/// tx.send(1).unwrap();
/// tx.send(2).unwrap();
/// tx.close();
/// assert!(tx.send(3).is_err(), "post-close sends fail fast");
/// // The receiver still drains everything sent before the close...
/// assert_eq!((&mut rx).collect::<Vec<_>>(), vec![1, 2]);
/// // ...and only then reports the closure.
/// assert!(rx.recv().is_err());
/// ```
pub struct Receiver<T: Send + 'static, I: Instrument = NoopInstrument> {
    // Field order: see `Sender`.
    slot: HandleSlot<T>,
    /// This endpoint's slot on the channel's receive side (see `Sender`).
    wait_slot: Option<u64>,
    core: Arc<ChannelCore<T, I>>,
}

// SAFETY: identical argument to `Sender`'s impl.
unsafe impl<T: Send + 'static, I: Instrument> Send for Receiver<T, I> {}

impl<T: Send + 'static, I: Instrument> Receiver<T, I> {
    /// Attempts to receive without waiting.  [`TryRecvError::Empty`] means a
    /// later attempt can succeed; [`TryRecvError::Closed`] is final.
    pub fn try_recv(&mut self) -> Result<T, TryRecvError> {
        let Self { slot, core, .. } = self;
        let handle = slot.bind(core);
        core.try_recv(handle)
    }

    /// Receives a value, waiting while the channel is empty: the wait spins
    /// briefly on a read-only hint, then parks (a send or a close wakes it),
    /// so a receiver with nothing to do sleeps.  Fails only once the channel
    /// is closed *and* fully drained.
    pub fn recv(&mut self) -> Result<T, RecvError> {
        answered(Parked::wait_one(self, NO_DEADLINE, |rx| {
            recv_answer(rx.try_recv())
        }))
    }

    /// Receives a value, waiting at most `timeout` while the channel is
    /// empty.
    ///
    /// [`Receiver::recv`]'s wait with a deadline: it spins briefly on a
    /// read-only hint, then *parks* — the receiver deposits a thread-unparking
    /// waker in the same receive-side slot the async receiver uses, so the
    /// send path's existing wake hook (and close's wake-all) ends the wait
    /// with no polling.  The spin counts against `timeout`.  Three outcomes:
    ///
    /// * `Ok(value)` — a value arrived within the deadline;
    /// * [`RecvTimeoutError::Timeout`] — the deadline passed with the channel
    ///   still empty.  **No element was consumed**: a timed-out receive never
    ///   dequeues-and-drops, so the exact-drain close guarantee survives any
    ///   number of timeouts racing the traffic;
    /// * [`RecvTimeoutError::Closed`] — closed *and* fully drained.  Pending
    ///   pre-close values are always handed out first, deadline or not.
    ///
    /// A zero `timeout` degrades to [`Receiver::try_recv`] with `Empty`
    /// mapped to `Timeout`.
    pub fn recv_timeout(&mut self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        timed(Parked::wait_one(self, timeout, |rx| {
            recv_answer(rx.try_recv())
        }))
    }

    /// Receives up to `max` values into `out` with one handle bind and one
    /// closed/in-flight decision per batch — the channel face of
    /// [`QueueHandle::dequeue_into`].
    ///
    /// Waits like [`Receiver::recv`] (a brief spin on a read-only hint, then
    /// parked) until at least one value is available, then returns however
    /// many the backend yielded in one batch (at most `max`; fewer does
    /// **not** mean the channel is empty).  Fails only once the channel is
    /// closed *and* fully drained.  `max == 0` returns `Ok(0)` immediately.
    pub fn recv_many(&mut self, out: &mut Vec<T>, max: usize) -> Result<usize, RecvError> {
        answered(Parked::wait_one(self, NO_DEADLINE, |rx| {
            recv_answer(rx.try_recv_many(out, max))
        }))
    }

    /// Closes the channel from the consuming side (e.g. a worker pool
    /// shutting down): senders fail fast, and the remaining pre-close values
    /// stay drainable.  Returns `true` for the transitioning call.
    pub fn close(&self) -> bool {
        self.core.close()
    }

    /// `true` once the channel is closed.
    pub fn is_closed(&self) -> bool {
        self.core.is_closed()
    }

    /// Non-blocking batch receive: pulls up to `max` values into `out` with
    /// one closed/in-flight decision for the whole batch.  Returns the number
    /// appended; [`TryRecvError::Empty`] means a later attempt can succeed,
    /// [`TryRecvError::Closed`] is final (closed *and* drained).
    pub fn try_recv_many(&mut self, out: &mut Vec<T>, max: usize) -> Result<usize, TryRecvError> {
        if max == 0 {
            return Ok(0);
        }
        let Self { slot, core, .. } = self;
        let handle = slot.bind(core);
        core.try_recv_many(handle, out, max)
    }

    /// Cheap, racy emptiness hint of the backend queue (see
    /// [`WaitFreeQueue::is_empty_hint`]); the async receiver uses it to
    /// decide whether parking is worthwhile.
    pub fn is_empty_hint(&self) -> bool {
        self.core.queue().is_empty_hint()
    }

    /// Whether the backend actually implements the emptiness hint (see
    /// [`WaitFreeQueue::has_empty_hint`]).  When `false`,
    /// [`Receiver::is_empty_hint`] is a constant conservative `false` — "no
    /// information", not "non-empty" — and the async receiver parks without
    /// hint-gated retries.
    pub fn has_empty_hint(&self) -> bool {
        self.core.queue().has_empty_hint()
    }

    /// Display name of the backend queue (e.g. `"wLSCQ"`).
    pub fn backend_name(&self) -> &'static str {
        self.core.queue().name()
    }

    /// Checker/test introspection: the number of sends currently holding a
    /// pre-close in-flight credit.  The close protocol's balance invariant
    /// says this must be zero once every send call has returned — the
    /// `wcq-check` explorer asserts it after quiescence.  Not part of the
    /// stable API.
    #[doc(hidden)]
    pub fn debug_inflight_credits(&self) -> usize {
        self.core.inflight_credits()
    }
}

impl<T: Send + 'static, I: Instrument> Clone for Receiver<T, I> {
    fn clone(&self) -> Self {
        self.core.receivers.fetch_add(1, SeqCst);
        Self {
            slot: HandleSlot::new(),
            wait_slot: None,
            core: Arc::clone(&self.core),
        }
    }
}

impl<T: Send + 'static, I: Instrument> Lane for Receiver<T, I> {
    type I = I;
    fn lane(&mut self) -> (&WakeSide<I>, u64) {
        let side = &self.core.recv_side;
        (side, *self.wait_slot.get_or_insert_with(|| side.attach()))
    }

    /// Whether a receive that has already found the channel empty can skip
    /// its next poll: the channel is still open and the backend's length hint
    /// still says empty.
    ///
    /// An empty poll of an SCQ-style ring is not a read: it takes a head
    /// ticket, advances the slot's cycle, catches the tail up and decrements
    /// the threshold — four writes to cache lines the next `send` needs.  A
    /// receiver that outpaces its sender and re-polls the ring at the pace of
    /// its first pauses slows that sender down (measured: 20 000 sends into a
    /// spinning `recv` on another core took 30–50 % longer once the
    /// uncontended poll itself had become cheap).  Re-polling the hint — one
    /// or a few read-only words — costs the sender at most one line.
    ///
    /// Liveness needs only what every workspace backend's hint provides: it
    /// is exact once operations have quiesced, so a value nobody takes turns
    /// it non-empty and the next look polls for real — and the park phase's
    /// re-check always polls, whatever the hint says.  A backend without a
    /// real hint ([`WaitFreeQueue::has_empty_hint`]) is always polled.  A
    /// closed channel is always polled too, so the exact-drain verdict comes
    /// from `try_recv` alone.
    fn still_nothing(&self) -> bool {
        let queue = self.core.queue();
        !self.core.is_closed() && queue.has_empty_hint() && queue.is_empty_hint()
    }
}

impl<T: Send + 'static, I: Instrument> Drop for Receiver<T, I> {
    fn drop(&mut self) {
        if let Some(id) = self.wait_slot.take() {
            // See `Sender`'s drop: this only releases the registry entry.
            self.core.recv_side.detach(id);
        }
        if self.core.receivers.fetch_sub(1, SeqCst) == 1 {
            // No receiver can ever drain the channel again: close it so
            // senders fail fast instead of filling an abandoned queue.
            self.core.close();
        }
    }
}

/// Receivers iterate the channel to completion: the iterator blocks like
/// [`Receiver::recv`] and ends when the channel is closed and drained.
impl<T: Send + 'static, I: Instrument> Iterator for &mut Receiver<T, I> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        self.recv().ok()
    }
}

impl<T: Send + 'static, I: Instrument> std::fmt::Debug for Receiver<T, I> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Receiver")
            .field("backend", &self.core.queue.name())
            .field("closed", &self.core.is_closed())
            .finish()
    }
}

// --------------------------------------------------------------------------
// Construction
// --------------------------------------------------------------------------

/// The one constructor: the builder finishers call this with the workspace's
/// own queues, whose handles satisfy the migration contract, and with their
/// instrumentation strategy, so the channel layer records park/wake/close
/// events into the same counter set as the queue underneath.
pub(crate) fn channel_over_instrumented<T: Send + 'static, I: Instrument>(
    queue: Box<dyn WaitFreeQueue<T>>,
    instrument: I,
) -> (Sender<T, I>, Receiver<T, I>) {
    let core = Arc::new(ChannelCore {
        queue,
        senders: AtomicUsize::new(1),
        receivers: AtomicUsize::new(1),
        inflight: AtomicUsize::new(0),
        recv_side: WakeSide::new(instrument.clone()),
        send_side: WakeSide::new(instrument.clone()),
        instrument,
    });
    (
        Sender {
            slot: HandleSlot::new(),
            wait_slot: None,
            core: Arc::clone(&core),
        },
        Receiver {
            slot: HandleSlot::new(),
            wait_slot: None,
            core,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn unbounded_pair() -> (Sender<u64>, Receiver<u64>) {
        crate::builder()
            .capacity_order(4)
            .threads(4)
            .build_channel::<u64>()
    }

    #[test]
    fn round_trip_and_empty() {
        let (mut tx, mut rx) = unbounded_pair();
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        tx.try_send(9).unwrap();
        assert_eq!(rx.try_recv(), Ok(9));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn last_sender_drop_closes_after_drain() {
        let (mut tx, mut rx) = unbounded_pair();
        tx.send(1).unwrap();
        let mut tx2 = tx.clone();
        drop(tx);
        // A live clone keeps the channel open.
        assert!(!rx.is_closed());
        tx2.send(2).unwrap();
        drop(tx2);
        assert!(rx.is_closed());
        // Both pre-close values drain before Closed appears.
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Err(RecvError));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Closed));
    }

    #[test]
    fn explicit_close_fails_senders_fast() {
        let (mut tx, mut rx) = unbounded_pair();
        tx.send(1).unwrap();
        assert!(rx.close(), "first close transitions");
        assert!(!tx.close(), "second close is idempotent");
        assert_eq!(tx.try_send(2), Err(TrySendError::Closed(2)));
        assert_eq!(tx.send(3), Err(SendError(3)));
        assert_eq!(rx.recv(), Ok(1), "pre-close value still drains");
        assert_eq!(rx.recv(), Err(RecvError));
    }

    /// `close` is one `fetch_or` on the in-flight word: among racing calls
    /// exactly one sees the bit clear, and the credit count read beside it
    /// never includes the bit.
    #[test]
    fn racing_closes_transition_once_and_never_show_the_bit() {
        for _ in 0..32 {
            let (tx, rx) = unbounded_pair();
            let transitions = &AtomicUsize::new(0);
            std::thread::scope(|s| {
                for _ in 0..2 {
                    let (mut tx, mut rx) = (tx.clone(), rx.clone());
                    s.spawn(move || {
                        let _ = tx.try_send(1);
                        let wins = usize::from(tx.close()) + usize::from(rx.close());
                        transitions.fetch_add(wins, SeqCst);
                        assert!(rx.debug_inflight_credits() <= 2, "the bit leaked");
                        assert_eq!(tx.try_send(2), Err(TrySendError::Closed(2)));
                        let _ = rx.try_recv();
                    });
                }
            });
            assert_eq!(transitions.load(SeqCst), 1, "exactly one close transitions");
            assert!(tx.is_closed() && rx.is_closed());
            assert_eq!(rx.debug_inflight_credits(), 0);
        }
    }

    #[test]
    fn last_receiver_drop_closes_for_senders() {
        let (mut tx, rx) = unbounded_pair();
        let rx2 = rx.clone();
        drop(rx);
        assert!(!tx.is_closed());
        drop(rx2);
        assert!(tx.is_closed());
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn bounded_backend_reports_full_then_recovers() {
        let (mut tx, mut rx) = crate::builder()
            .capacity_order(1) // capacity 2
            .threads(2)
            .backend(crate::ChannelBackend::Bounded)
            .build_channel::<u64>();
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        let err = tx.try_send(3).unwrap_err();
        assert!(matches!(err, TrySendError::Full(3)));
        assert!(!err.is_closed());
        assert_eq!(rx.try_recv(), Ok(1));
        tx.try_send(3).unwrap();
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.try_recv(), Ok(3));
    }

    #[test]
    fn endpoints_move_between_threads_and_rebind() {
        let (tx, mut rx) = unbounded_pair();
        let handle = std::thread::spawn(move || {
            let mut tx = tx;
            tx.send(7).unwrap();
            // Moving back out proves the endpoint is a plain Send value.
            tx
        });
        let mut tx = handle.join().unwrap();
        assert_eq!(rx.recv(), Ok(7));
        tx.send(8).unwrap(); // re-binds on this thread after the migration
        assert_eq!(rx.recv(), Ok(8));
    }

    #[test]
    fn thread_tokens_are_nonzero_stable_and_never_reused() {
        let mine = thread_token();
        assert_ne!(mine, 0);
        assert_eq!(thread_token(), mine, "stable within a thread");
        // Sequential threads, each spawned after the previous one exited: the
        // runtime typically hands every one of them the same stack and TLS
        // block, which is exactly why the address of a thread-local cannot
        // serve as the identity.  The tokens must all differ regardless.
        thread_local! {
            static PROBE: Cell<u8> = const { Cell::new(0) };
        }
        let mut tokens = vec![mine];
        let mut tls_blocks = std::collections::HashSet::new();
        for _ in 0..32 {
            let (token, block) =
                std::thread::spawn(|| (thread_token(), PROBE.with(|p| p.as_ptr() as usize)))
                    .join()
                    .unwrap();
            assert_ne!(token, 0);
            tokens.push(token);
            tls_blocks.insert(block);
        }
        let distinct: std::collections::HashSet<u64> = tokens.iter().copied().collect();
        assert_eq!(
            distinct.len(),
            tokens.len(),
            "33 threads over {} distinct TLS blocks must hold 33 distinct tokens",
            tls_blocks.len()
        );
    }

    #[test]
    fn a_moved_endpoint_rebinds_under_the_new_threads_token() {
        let bound_to = |slot: &HandleSlot<u64>| slot.bound.as_ref().map(|(token, _)| *token);
        let (mut tx, mut rx) = unbounded_pair();
        assert_eq!(bound_to(&tx.slot), None, "binding is lazy");
        tx.send(0).unwrap();
        assert_eq!(bound_to(&tx.slot), Some(thread_token()));
        // Thread A uses both endpoints and exits; thread B is spawned after.
        let mut owners = vec![thread_token()];
        for hop in 1..=2u64 {
            (tx, rx, owners) = std::thread::spawn(move || {
                tx.send(hop).unwrap();
                assert_eq!(rx.recv(), Ok(hop - 1), "FIFO across the migration");
                assert_eq!(bound_to(&tx.slot), Some(thread_token()));
                assert_eq!(bound_to(&rx.slot), Some(thread_token()));
                owners.push(thread_token());
                (tx, rx, owners)
            })
            .join()
            .unwrap();
        }
        assert_eq!(
            bound_to(&tx.slot),
            Some(owners[2]),
            "still registered by the last thread that used it"
        );
        assert!(owners[0] != owners[1] && owners[1] != owners[2] && owners[0] != owners[2]);
        // Back here: re-registers once more, and the drain is exact.
        tx.send(3).unwrap();
        assert_eq!(bound_to(&tx.slot), Some(owners[0]));
        tx.close();
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Ok(3));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn receiver_iterates_to_close() {
        let (mut tx, mut rx) = unbounded_pair();
        for i in 0..5 {
            tx.send(i).unwrap();
        }
        drop(tx);
        assert_eq!((&mut rx).collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn send_iter_and_recv_many_round_trip() {
        let (mut tx, mut rx) = unbounded_pair();
        assert_eq!(tx.send_iter(0..10), Ok(10));
        assert_eq!(tx.send_iter(std::iter::empty()), Ok(0));
        let mut out = Vec::new();
        let mut got = 0;
        while got < 10 {
            got += rx.recv_many(&mut out, 4).unwrap();
        }
        assert_eq!(out, (0..10).collect::<Vec<_>>(), "batches preserve FIFO");
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn send_iter_after_close_returns_the_whole_batch() {
        let (mut tx, rx) = unbounded_pair();
        rx.close();
        let err = tx.send_iter(vec![1, 2, 3]).unwrap_err();
        assert_eq!(err.0, vec![1, 2, 3], "nothing was enqueued post-close");
    }

    #[test]
    fn recv_many_drains_pre_close_batches_exactly_once() {
        let (mut tx, mut rx) = unbounded_pair();
        assert_eq!(tx.send_iter(0..7), Ok(7));
        tx.close();
        let mut out = Vec::new();
        while let Ok(n) = rx.recv_many(&mut out, 3) {
            assert!(n > 0);
        }
        assert_eq!(out, (0..7).collect::<Vec<_>>(), "exact drain, in order");
    }

    #[test]
    fn send_iter_waits_out_a_full_bounded_backend() {
        let (mut tx, mut rx) = crate::builder()
            .capacity_order(2) // capacity 4
            .threads(2)
            .backend(crate::ChannelBackend::Bounded)
            .build_channel::<u64>();
        // 12 values through a 4-slot channel: the sender must block until the
        // consumer thread makes room, batch by batch.
        let consumer = std::thread::spawn(move || {
            let mut out = Vec::new();
            while out.len() < 12 {
                let mut batch = Vec::new();
                match rx.recv_many(&mut batch, 5) {
                    Ok(_) => out.extend(batch),
                    Err(RecvError) => break,
                }
            }
            out
        });
        assert_eq!(tx.send_iter(0..12), Ok(12));
        drop(tx);
        assert_eq!(consumer.join().unwrap(), (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn into_sync_hands_back_the_wrapped_endpoint_itself() {
        use crate::async_channel::{AsyncReceiver, AsyncSender};
        let (tx, rx) = unbounded_pair();
        let core = Arc::clone(&rx.core);
        let (mut tx, mut rx) = (AsyncSender::from(tx), AsyncReceiver::from(rx));
        tx.try_send(1).unwrap();
        assert_eq!(rx.try_recv(), Ok(1)); // both endpoints now hold a queue handle
        let (tx, rx) = (tx.into_sync(), rx.into_sync());
        assert!(
            tx.slot.bound.is_some() && rx.slot.bound.is_some(),
            "the registrations are kept, not re-acquired lazily"
        );
        // The slots the conversions to async attached (the first of each side).
        assert_eq!((tx.wait_slot, rx.wait_slot), (Some(0), Some(0)));
        let attached = || (core.send_side.attached(), core.recv_side.attached());
        assert_eq!(attached(), (1, 1));
        drop((tx, rx));
        assert_eq!(
            attached(),
            (0, 0),
            "dropping the endpoint detaches its slot"
        );
    }

    #[test]
    fn same_channel_links_the_pair() {
        let (tx, rx) = unbounded_pair();
        let (tx2, rx2) = unbounded_pair();
        assert!(tx.same_channel(&rx));
        assert!(!tx.same_channel(&rx2));
        assert!(!tx2.same_channel(&rx));
    }

    #[test]
    fn recv_timeout_times_out_then_delivers() {
        let (mut tx, mut rx) = unbounded_pair();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Timeout),
            "empty channel times out without consuming anything"
        );
        tx.send(11).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(5)), Ok(11));
        // Zero timeout degrades to a try_recv.
        assert_eq!(
            rx.recv_timeout(Duration::ZERO),
            Err(RecvTimeoutError::Timeout)
        );
    }

    #[test]
    fn recv_timeout_is_woken_by_a_racing_send() {
        let (tx, mut rx) = unbounded_pair();
        let sender = std::thread::spawn(move || {
            let mut tx = tx;
            std::thread::sleep(Duration::from_millis(20));
            tx.send(7).unwrap();
        });
        // Far longer than the send delay: a parked receiver must be *woken*,
        // not sit out the deadline.
        let start = Instant::now();
        assert_eq!(rx.recv_timeout(Duration::from_secs(30)), Ok(7));
        assert!(start.elapsed() < Duration::from_secs(10));
        sender.join().unwrap();
    }

    #[test]
    fn recv_timeout_drains_exactly_then_reports_closed() {
        let (mut tx, mut rx) = unbounded_pair();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        drop(tx);
        // Post-close, pending values come out before Closed — deadline or not.
        assert_eq!(rx.recv_timeout(Duration::ZERO), Ok(1));
        assert_eq!(rx.recv_timeout(Duration::from_millis(5)), Ok(2));
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Closed)
        );
    }

    #[test]
    fn recv_timeout_is_woken_by_close() {
        let (tx, mut rx) = unbounded_pair();
        let closer = std::thread::spawn(move || {
            let tx = tx;
            std::thread::sleep(Duration::from_millis(20));
            drop(tx);
        });
        let start = Instant::now();
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(30)),
            Err(RecvTimeoutError::Closed)
        );
        assert!(start.elapsed() < Duration::from_secs(10));
        closer.join().unwrap();
    }

    #[test]
    fn send_timeout_times_out_full_then_recovers() {
        let (mut tx, mut rx) = crate::builder()
            .capacity_order(1) // capacity 2
            .threads(2)
            .backend(crate::ChannelBackend::Bounded)
            .build_channel::<u64>();
        tx.send_timeout(1, Duration::ZERO).unwrap();
        tx.send_timeout(2, Duration::ZERO).unwrap();
        assert_eq!(
            tx.send_timeout(3, Duration::from_millis(5)),
            Err(SendTimeoutError::Timeout(3)),
            "the value comes back un-enqueued"
        );
        assert_eq!(rx.try_recv(), Ok(1));
        tx.send_timeout(3, Duration::from_millis(5)).unwrap();
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.try_recv(), Ok(3));
        rx.close();
        assert_eq!(
            tx.send_timeout(4, Duration::from_millis(5)),
            Err(SendTimeoutError::Closed(4))
        );
    }

    #[test]
    fn send_timeout_is_woken_by_a_racing_receive() {
        let (mut tx, rx) = crate::builder()
            .capacity_order(1) // capacity 2
            .threads(2)
            .backend(crate::ChannelBackend::Bounded)
            .build_channel::<u64>();
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        let receiver = std::thread::spawn(move || {
            let mut rx = rx;
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Ok(2));
            assert_eq!(rx.recv(), Ok(3));
        });
        let start = Instant::now();
        tx.send_timeout(3, Duration::from_secs(30)).unwrap();
        assert!(start.elapsed() < Duration::from_secs(10));
        receiver.join().unwrap();
    }

    // ----------------------------------------------------------------------
    // Deadline edges of the thread driver (spin, then park)
    // ----------------------------------------------------------------------

    use wcq_core::metrics::CountingInstrument;

    /// A counted channel (of capacity 2 when `Bounded`) and a reading of
    /// `ChannelParks`: how often a wait reached the registry.
    fn counted_pair(
        backend: crate::ChannelBackend,
    ) -> (
        Sender<u64, CountingInstrument>,
        Receiver<u64, CountingInstrument>,
        impl Fn() -> u64 + Send,
    ) {
        let instr = CountingInstrument::new();
        let (tx, rx) = crate::builder()
            .capacity_order(1)
            .threads(2)
            .backend(backend)
            .instrument(instr.clone())
            .build_channel::<u64>();
        (tx, rx, move || instr.counters().get(Counter::ChannelParks))
    }

    #[test]
    fn a_zero_timeout_neither_spins_nor_parks() {
        let (mut tx, mut rx, parks) = counted_pair(crate::ChannelBackend::Bounded);
        let start = Instant::now();
        assert_eq!(
            rx.recv_timeout(Duration::ZERO),
            Err(RecvTimeoutError::Timeout)
        );
        tx.send_timeout(1, Duration::ZERO).unwrap();
        tx.send_timeout(2, Duration::ZERO).unwrap();
        assert_eq!(
            tx.send_timeout(3, Duration::ZERO),
            Err(SendTimeoutError::Timeout(3))
        );
        assert_eq!(parks(), 0, "a zero timeout is one attempt");
        // Not a timing claim: only that nothing waited out a budget or a sleep.
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn a_timeout_shorter_than_the_spin_budget_never_reaches_the_registry() {
        let (_tx, mut rx, parks) = counted_pair(crate::ChannelBackend::Unbounded);
        let timeout = Duration::from_micros(10);
        // The spin counts against the deadline: the best of a few waits ends
        // inside the budget (one that was preempted may not).
        let mut best = Duration::MAX;
        for _ in 0..20 {
            let start = Instant::now();
            assert_eq!(rx.recv_timeout(timeout), Err(RecvTimeoutError::Timeout));
            let took = start.elapsed();
            assert!(took >= timeout, "timed out early: {took:?}");
            best = best.min(took);
        }
        assert_eq!(parks(), 0, "timed out from the spin phase");
        assert!(
            best < Duration::from_micros(50),
            "a 10 µs wait took {best:?} at best: the spin budget was added to it"
        );
    }

    /// The same deadline rule past the budget.  Only "no earlier" can be
    /// asserted on a clock here: the sleep's own lateness (timer slack plus
    /// the wake-up, 80–190 µs on the recording box) is larger than the budget
    /// a late-computed deadline would add — which is why the test above
    /// checks that rule where the budget is five times the timeout.
    #[test]
    fn a_timeout_longer_than_the_spin_budget_parks_and_is_not_cut_short() {
        let (_tx, mut rx, parks) = counted_pair(crate::ChannelBackend::Unbounded);
        let timeout = Duration::from_millis(5);
        let start = Instant::now();
        assert_eq!(rx.recv_timeout(timeout), Err(RecvTimeoutError::Timeout));
        let took = start.elapsed();
        assert!(took >= timeout, "timed out early: {took:?}");
        assert!(took < Duration::from_secs(5));
        assert!(parks() >= 1, "past the budget the wait parks");
    }

    #[test]
    fn a_wait_that_saturates_to_no_deadline_is_woken_by_close() {
        let (tx, mut rx, parks) = counted_pair(crate::ChannelBackend::Unbounded);
        let closer = std::thread::spawn(move || {
            while parks() == 0 {
                std::thread::yield_now();
            }
            drop(tx);
        });
        assert_eq!(
            rx.recv_timeout(Duration::MAX),
            Err(RecvTimeoutError::Closed)
        );
        closer.join().unwrap();
    }
}
