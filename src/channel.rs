//! Channel-grade endpoints over the workspace's queues: typed
//! [`Sender`]/[`Receiver`] pairs with close semantics.
//!
//! The queue facade ([`WaitFreeQueue`]) ends at "register, operate through a
//! handle, drop to release" — the shape the paper's evaluation needs.
//! Applications consume an MPMC queue as a *channel*: distinct
//! producer/consumer endpoints that can be moved into threads, typed
//! full/empty/closed errors instead of `Result<(), T>` / `Option<T>`, and
//! graceful shutdown.  This module layers exactly that on the two backends
//! the builder produces — the bounded wCQ (where [`TrySendError::Full`] is a
//! real error) and the unbounded wLSCQ — through one crate-private closing
//! trait, without touching ring code.
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
//! The drain guarantee is exact, not best-effort, and the channel keeps no
//! close word of its own: it closes its backend, whose enqueue already
//! *announces* itself, then checks a closed word, and withdraws the
//! announcement once its value has landed.  The unbounded wLSCQ announces
//! in the handle's own hazard slot, and its closed word is the tail
//! segment's `next`, to which the close links a `SHUT` sentinel
//! ([`UnboundedWcqHandle::close`]); the bounded wCQ gets a closed flag and
//! one announce flag per handle beside it.  The announcement is a `SeqCst`
//! store and the check and the close `SeqCst` too, so every send either read
//! the word open with its announcement already visible to whoever sees the
//! close (and is counted until its value has landed), or read it closed
//! (and is refused).
//!
//! Once the backend's close has returned, the channel sets a write-once
//! `closed` flag and wakes everyone.  A receiver that finds the queue empty
//! reads that flag — one load of a line no send writes — and only when it is
//! set asks the backend whether it has *settled* (closed, nothing in flight;
//! [`UnboundedWcqHandle::settled`]) before one final empty dequeue lets it
//! conclude `Closed`.  So every enqueue the backend admitted is visible to
//! some receiver's final drain, and bounded-memory reclamation (Theorem 5.8)
//! keeps running unchanged underneath.
//!
//! The wake rule follows from where a receiver can wait: a receiver that saw
//! the flag and an unsettled backend waits for the sends still in flight.  So
//! a successful send reads the flag after withdrawing its announcement and
//! wakes every receiver if it is set (one otherwise), and a send refused
//! after a transient announcement wakes them all.
//!
//! # Threading model
//!
//! Endpoints are [`Send`] but not [`Sync`]: move one into a thread (or task)
//! and operate through `&mut self`; clone it to fan out.  Each endpoint
//! registers its own queue handle on first use and keeps it for life,
//! wherever the endpoint moves: the record slot the algorithm needs
//! (Figure 4) only has to be exclusive, and the handle's is, so a send or
//! receive asks nothing about the thread it runs on.  Size
//! [`crate::QueueBuilder::threads`] for the peak number of endpoints alive
//! at once.
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
use std::sync::atomic::Ordering::{Release, SeqCst};
use std::sync::atomic::{AtomicBool, AtomicUsize};
use std::sync::Arc;
use std::time::Duration;

use wcq_atomics::CachePadded;
use wcq_core::api::WaitFreeQueue;
use wcq_core::metrics::{Counter, Instrument, NoopInstrument};
use wcq_core::wcq::{CellFamily, WcqQueue, WcqQueueHandle};
use wcq_unbounded::{UnboundedWcq, UnboundedWcqHandle};

use crate::wait::{Lane, Parked, WakeSide, NO_DEADLINE};

pub use wcq_core::channel::{
    RecvError, RecvTimeoutError, SendError, SendTimeoutError, TryRecvError, TrySendError,
};

// --------------------------------------------------------------------------
// Backends: a queue that closes
// --------------------------------------------------------------------------

/// A queue the channel can close: the two builder shapes, reached only here.
pub(crate) trait Backend<T>: Send + Sync {
    /// The queue itself, for its name and hints.
    fn queue(&self) -> &dyn WaitFreeQueue<T>;

    /// Registers the calling thread, or `None` when every slot is taken.
    fn try_handle(&self) -> Option<Box<dyn BackendHandle<T> + '_>>;

    /// Closes the backend without a handle if it can (`false`: it needs
    /// one, [`BackendHandle::close`]).
    fn close_unregistered(&self) -> bool {
        false
    }
}

/// A registered handle of a [`Backend`]: the channel's every operation on
/// the queue, close included.  `Send`, so the endpoints that own one are.
pub(crate) trait BackendHandle<T>: Send {
    /// Enqueues `value`; `Full` only from a bounded backend, `Closed` once
    /// the backend is closed.
    fn send(&mut self, value: T) -> Result<(), TrySendError<T>>;

    /// Enqueues a prefix of `values` (drained from the front) and returns
    /// its length; `Ok(0)` with `values` non-empty means full.  `Err` means
    /// closed before anything in this call was enqueued (`values` untouched).
    fn send_many(&mut self, values: &mut Vec<T>) -> Result<usize, SendError<()>>;

    fn recv(&mut self) -> Option<T>;

    fn recv_many(&mut self, out: &mut Vec<T>, max: usize) -> usize;

    /// Closes the backend; every enqueue that starts after this returns is
    /// refused.
    fn close(&mut self);

    /// On a closed backend: `true` once no enqueue admitted before the close
    /// is still depositing, after which an empty [`BackendHandle::recv`] is
    /// final.
    fn settled(&mut self) -> bool;

    /// Enqueues still announced where [`BackendHandle::settled`] looks (a
    /// checker probe).
    fn inflight(&mut self) -> usize;
}

/// The unbounded backend closes itself: an enqueue announces its segment
/// and checks its `next`, and the close links `SHUT` after the last one.
impl<T: Send, F: CellFamily> Backend<T> for UnboundedWcq<T, F> {
    fn queue(&self) -> &dyn WaitFreeQueue<T> {
        self
    }

    fn try_handle(&self) -> Option<Box<dyn BackendHandle<T> + '_>> {
        self.register().map(|h| Box::new(h) as _)
    }
}

impl<T: Send, F: CellFamily> BackendHandle<T> for UnboundedWcqHandle<'_, T, F> {
    #[inline]
    fn send(&mut self, value: T) -> Result<(), TrySendError<T>> {
        self.try_enqueue(value).map_err(TrySendError::Closed)
    }

    fn send_many(&mut self, values: &mut Vec<T>) -> Result<usize, SendError<()>> {
        match self.enqueue_many(values) {
            0 if !values.is_empty() => Err(SendError(())),
            accepted => Ok(accepted),
        }
    }

    #[inline]
    fn recv(&mut self) -> Option<T> {
        self.dequeue()
    }

    fn recv_many(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        self.dequeue_many(out, max)
    }

    fn close(&mut self) {
        UnboundedWcqHandle::close(self);
    }

    fn settled(&mut self) -> bool {
        UnboundedWcqHandle::settled(self)
    }

    fn inflight(&mut self) -> usize {
        self.head_inflight()
    }
}

/// The bounded backend: a wCQ with a closed flag and one announce flag per
/// handle id beside it, since the ring's own enqueue cannot be told to fail
/// permanently.  A send announces itself on its handle's flag (`SeqCst`),
/// then reads `closed` (`SeqCst`): the Dekker pair of the unbounded
/// backend's segment announcement, with `closed` in place of `next`.
pub(crate) struct Gated<T, F: CellFamily> {
    queue: WcqQueue<T, F>,
    closed: AtomicBool,
    /// Indexed by [`WcqQueueHandle::tid`], so each has one writer; padded so
    /// producers write no line another producer writes.
    announced: Box<[CachePadded<AtomicBool>]>,
}

impl<T, F: CellFamily> Gated<T, F> {
    pub(crate) fn new(queue: WcqQueue<T, F>) -> Self {
        let announced = (0..queue.max_threads())
            .map(|_| CachePadded::new(AtomicBool::new(false)))
            .collect();
        Self {
            queue,
            closed: AtomicBool::new(false),
            announced,
        }
    }

    /// Refuses every send that reads `closed` from now on.
    fn close(&self) {
        self.closed.store(true, SeqCst);
    }

    /// Handles announced right now: once `closed` has been seen set, the
    /// sends still depositing.
    fn inflight(&self) -> usize {
        self.announced.iter().filter(|a| a.load(SeqCst)).count()
    }
}

impl<T: Send, F: CellFamily> Backend<T> for Gated<T, F> {
    fn queue(&self) -> &dyn WaitFreeQueue<T> {
        &self.queue
    }

    fn try_handle(&self) -> Option<Box<dyn BackendHandle<T> + '_>> {
        let inner = self.queue.register()?;
        Some(Box::new(GatedHandle {
            announced: &self.announced[inner.tid()],
            inner,
            gated: self,
        }))
    }

    fn close_unregistered(&self) -> bool {
        self.close();
        true
    }
}

struct GatedHandle<'q, T, F: CellFamily> {
    inner: WcqQueueHandle<'q, T, F>,
    /// This handle's announce flag.
    announced: &'q AtomicBool,
    gated: &'q Gated<T, F>,
}

impl<T, F: CellFamily> GatedHandle<'_, T, F> {
    /// Announces a send and checks `closed`: `true` admits it, and the
    /// caller withdraws with [`GatedHandle::withdraw`] after its enqueue;
    /// `false` has withdrawn already.
    #[inline]
    fn announce(&self) -> bool {
        self.announced.store(true, SeqCst);
        if self.gated.closed.load(SeqCst) {
            self.withdraw();
            return false;
        }
        true
    }

    /// Clears the announcement: a `Release` store, so a receiver that reads
    /// the flag clear sees the enqueue before it.
    #[inline]
    fn withdraw(&self) {
        self.announced.store(false, Release);
    }
}

impl<T: Send, F: CellFamily> BackendHandle<T> for GatedHandle<'_, T, F> {
    #[inline]
    fn send(&mut self, value: T) -> Result<(), TrySendError<T>> {
        if !self.announce() {
            return Err(TrySendError::Closed(value));
        }
        let outcome = self.inner.enqueue(value);
        self.withdraw();
        outcome.map_err(TrySendError::Full)
    }

    fn send_many(&mut self, values: &mut Vec<T>) -> Result<usize, SendError<()>> {
        if !self.announce() {
            return Err(SendError(()));
        }
        let accepted = self.inner.enqueue_many(values);
        self.withdraw();
        Ok(accepted)
    }

    #[inline]
    fn recv(&mut self) -> Option<T> {
        self.inner.dequeue()
    }

    fn recv_many(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        self.inner.dequeue_many(out, max)
    }

    fn close(&mut self) {
        self.gated.close();
    }

    fn settled(&mut self) -> bool {
        self.gated.inflight() == 0
    }

    fn inflight(&mut self) -> usize {
        self.gated.inflight()
    }
}

// --------------------------------------------------------------------------
// Shared channel state
// --------------------------------------------------------------------------

/// State shared by every endpoint of one channel.
///
/// The `I` parameter is the compile-time instrumentation strategy (see
/// [`Instrument`]): with the default [`NoopInstrument`] every telemetry call
/// below monomorphizes to nothing, so the uninstrumented channel pays zero
/// cost for the park/wake/close counters.
pub(crate) struct ChannelCore<T: Send + 'static, I: Instrument = NoopInstrument> {
    backend: Box<dyn Backend<T>>,
    /// Compile-time telemetry strategy shared by every endpoint.
    instrument: I,
    /// Live `Sender` + `AsyncSender` endpoints; last drop closes the channel.
    senders: AtomicUsize,
    /// Live `Receiver` + `AsyncReceiver` endpoints; last drop closes too, so
    /// senders into an abandoned channel fail instead of filling it forever.
    receivers: AtomicUsize,
    /// Set once, after the backend's close has returned: every send that
    /// starts later is refused.  No send writes it.
    closed: AtomicBool,
    /// Parked receivers: one is woken per successful send, all on close.
    recv_side: WakeSide<I>,
    /// Parked senders (bounded backend, full): one is woken per successful
    /// receive, all on close.
    send_side: WakeSide<I>,
}

impl<T: Send + 'static, I: Instrument> ChannelCore<T, I> {
    /// The backend queue (for hints and diagnostics).
    pub(crate) fn queue(&self) -> &dyn WaitFreeQueue<T> {
        self.backend.queue()
    }

    pub(crate) fn is_closed(&self) -> bool {
        self.closed.load(SeqCst)
    }

    /// Registers a handle on the backend.
    ///
    /// # Panics
    /// Panics when every registration slot is taken, naming the backend.
    fn register(&self) -> Box<dyn BackendHandle<T> + '_> {
        self.backend.try_handle().unwrap_or_else(|| {
            let queue = self.queue();
            panic!(
                "all {} registration slots of this {} queue are in use",
                queue.max_threads(),
                queue.name()
            )
        })
    }

    /// The second half of a close, once the backend's close has returned:
    /// sets the flag and wakes everyone.  Returns `true` for the call that
    /// set the flag.
    fn finish_close(&self) -> bool {
        let transitioned = !self.closed.swap(true, SeqCst);
        if transitioned {
            self.instrument.record(Counter::ChannelCloses, 1);
            self.recv_side.wake_all();
            self.send_side.wake_all();
        }
        transitioned
    }

    /// Wakes receivers after a send that enqueued: every one if the channel
    /// is closed (they may be waiting for this send's announcement to
    /// clear), one otherwise.  The flag is read after it cleared.
    #[inline]
    fn wake_after_send(&self) {
        if self.closed.load(SeqCst) {
            self.recv_side.wake_all();
        } else {
            self.recv_side.wake_one();
        }
    }

    /// The closed-aware non-blocking send (see the module docs for the wake
    /// rule).
    pub(crate) fn try_send(
        &self,
        handle: &mut dyn BackendHandle<T>,
        value: T,
    ) -> Result<(), TrySendError<T>> {
        let outcome = handle.send(value);
        match &outcome {
            Ok(()) => self.wake_after_send(),
            // Refused after a transient announcement: a receiver may have
            // seen it and be waiting for it to clear.
            Err(TrySendError::Closed(_)) => self.recv_side.wake_all(),
            Err(TrySendError::Full(_)) => {
                if self.closed.load(SeqCst) {
                    self.recv_side.wake_all();
                }
            }
        }
        outcome
    }

    /// Batch counterpart of [`ChannelCore::try_send`]: the backend's batch
    /// enqueue announces itself once per segment run (once per call on the
    /// bounded backend).  Accepted elements are drained from the front of
    /// `values`; `Ok(0)` with a non-empty `values` means a bounded backend
    /// is full.  `Err` means the channel was closed before anything in this
    /// call was enqueued, so `values` is untouched.
    ///
    /// The exact-drain close guarantee carries over per element: everything
    /// accepted here was admitted before the close, so a receiver's final
    /// look cannot miss any of the batch.
    pub(crate) fn try_send_many(
        &self,
        handle: &mut dyn BackendHandle<T>,
        values: &mut Vec<T>,
    ) -> Result<usize, SendError<()>> {
        let outcome = handle.send_many(values);
        match outcome {
            Err(_) => self.recv_side.wake_all(),
            Ok(1) => self.wake_after_send(),
            // Full: wake everyone only if a close raced the transient claim.
            Ok(0) => {
                if self.closed.load(SeqCst) {
                    self.recv_side.wake_all();
                }
            }
            // Several values landed: every parked receiver may have one to
            // take, so a lone wake would strand the rest.
            Ok(_) => self.recv_side.wake_all(),
        }
        outcome
    }

    /// The closed-aware non-blocking receive.
    pub(crate) fn try_recv(&self, handle: &mut dyn BackendHandle<T>) -> Result<T, TryRecvError> {
        if let Some(value) = handle.recv() {
            self.send_side.wake_one();
            return Ok(value);
        }
        if !self.closed.load(SeqCst) {
            return Err(TryRecvError::Empty);
        }
        self.final_look(handle)
    }

    /// The closed channel's drain verdict: `Closed` only once the backend has
    /// settled (no send admitted before the close is still depositing) *and*
    /// one more dequeue finds it empty.
    fn final_look(&self, handle: &mut dyn BackendHandle<T>) -> Result<T, TryRecvError> {
        if !handle.settled() {
            // A pre-close send is still completing; its value must not be
            // missed, so this is still `Empty`, not `Closed`.
            return Err(TryRecvError::Empty);
        }
        match handle.recv() {
            Some(value) => {
                self.send_side.wake_one();
                Ok(value)
            }
            None => Err(TryRecvError::Closed),
        }
    }

    /// Batch counterpart of [`ChannelCore::try_recv`]: pulls up to `max`
    /// values through the backend's batch dequeue.  Returns the number
    /// appended to `out`; the `Empty`/`Closed` distinction is exactly the
    /// single-op one.  A batch `0` may be a racy observation on some backends
    /// (a run of abandoned tickets can all miss while elements remain), so
    /// only the single-op final look may upgrade `Empty` to `Closed`.
    pub(crate) fn try_recv_many(
        &self,
        handle: &mut dyn BackendHandle<T>,
        out: &mut Vec<T>,
        max: usize,
    ) -> Result<usize, TryRecvError> {
        let got = handle.recv_many(out, max);
        if got > 0 {
            if got == 1 {
                self.send_side.wake_one();
            } else {
                self.send_side.wake_all();
            }
            return Ok(got);
        }
        if !self.closed.load(SeqCst) {
            return Err(TryRecvError::Empty);
        }
        let value = self.final_look(handle)?;
        out.push(value);
        Ok(1)
    }
}

impl<T: Send + 'static, I: Instrument> std::fmt::Debug for ChannelCore<T, I> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChannelCore")
            .field("backend", &self.queue().name())
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

/// An endpoint's registered queue handle, registered on first use and kept
/// for the endpoint's life, on whatever thread it runs.
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
///
/// The `Cell` lets `close(&self)` borrow the handle too (closing the
/// unbounded backend needs a registration, like any operation on it); every
/// other operation reaches it through `&mut self` at no cost.
struct HandleSlot<T: Send + 'static> {
    bound: Cell<Option<Box<dyn BackendHandle<T> + 'static>>>,
}

impl<T: Send + 'static> HandleSlot<T> {
    const fn new() -> Self {
        Self {
            bound: Cell::new(None),
        }
    }

    /// Registers a handle for `core`'s backend, its lifetime erased.
    ///
    /// # Panics
    /// As [`ChannelCore::register`].
    fn register<I: Instrument>(core: &Arc<ChannelCore<T, I>>) -> Box<dyn BackendHandle<T>> {
        let handle: Box<dyn BackendHandle<T> + '_> = core.register();
        // SAFETY: lifetime erasure only — see the type-level comment.  The
        // handle borrows `core.backend`, which the endpoint's `Arc` keeps
        // alive strictly longer than this slot.
        unsafe { std::mem::transmute(handle) }
    }

    /// Closes the channel: the backend first — without a handle if it needs
    /// none, else through this slot's handle, registering one only if none
    /// is bound — then the flag.
    ///
    /// # Panics
    /// As [`ChannelCore::register`], for an endpoint that never operated
    /// closing the unbounded backend while every slot is taken.
    fn close<I: Instrument>(&self, core: &Arc<ChannelCore<T, I>>) -> bool {
        let mut bound = self.bound.take();
        if bound.is_some() || !core.backend.close_unregistered() {
            bound.get_or_insert_with(|| Self::register(core)).close();
        }
        self.bound.set(bound);
        core.finish_close()
    }

    /// Returns the endpoint's handle, registering one on first use.
    ///
    /// # Panics
    /// Panics when every registration slot of the backend is taken (size
    /// `QueueBuilder::threads` for the peak number of live endpoints); the
    /// message names the backend queue.
    fn bind<'s, I: Instrument>(
        &'s mut self,
        core: &Arc<ChannelCore<T, I>>,
    ) -> &'s mut (dyn BackendHandle<T> + 'static) {
        &mut **self
            .bound
            .get_mut()
            .get_or_insert_with(|| Self::register(core))
    }
}

// --------------------------------------------------------------------------
// Sender
// --------------------------------------------------------------------------

/// The producing endpoint of a channel built by
/// [`build_channel`](crate::QueueBuilder::build_channel).
///
/// A clone registers its own slot on first use, so every clone can run on
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

    /// The `try_send_batch` attempt: offers `buf` to the backend's batch
    /// enqueue while it accepts anything; `None` means full.  On close the
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

    /// Sends every element of `iter`, paying the handle bind **once per
    /// batch** and the backend's announcement once per segment run instead
    /// of once per element — the channel face of
    /// [`QueueHandle::enqueue_many`](wcq_core::api::QueueHandle::enqueue_many).
    ///
    /// Returns the number sent (the whole iterator on success).  When the
    /// channel closes first, the error carries the unsent remainder in order;
    /// everything *not* in the remainder was enqueued before the close and
    /// will be drained by receivers (the exact-drain guarantee is per
    /// element, not per batch: on the unbounded backend a close can split a
    /// batch at a segment boundary).  Like [`Sender::send`], this waits — spinning
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
        self.slot.close(&self.core)
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
            self.slot.close(&self.core);
        }
    }
}

impl<T: Send + 'static, I: Instrument> std::fmt::Debug for Sender<T, I> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sender")
            .field("backend", &self.core.queue().name())
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
    /// [`QueueHandle::dequeue_into`](wcq_core::api::QueueHandle::dequeue_into).
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
        self.slot.close(&self.core)
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

    /// Display name of the backend queue (e.g. `"wLSCQ"`).
    pub fn backend_name(&self) -> &'static str {
        self.core.queue().name()
    }

    /// Checker/test introspection: the enqueues still announced where the
    /// backend decides the drain (the bounded backend's flags, or the
    /// unbounded queue's head segment).  The close protocol's balance
    /// invariant says this must be zero once every send call has returned —
    /// the `wcq-check` explorer asserts it after quiescence.  Not part of the
    /// stable API.
    #[doc(hidden)]
    pub fn debug_inflight(&mut self) -> usize {
        let Self { slot, core, .. } = self;
        slot.bind(core).inflight()
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
    /// re-check always polls, whatever the hint says.  A closed channel is
    /// always polled, so the exact-drain verdict comes from `try_recv` alone.
    fn still_nothing(&self) -> bool {
        !self.core.is_closed() && self.core.queue().is_empty_hint()
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
            self.slot.close(&self.core);
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
            .field("backend", &self.core.queue().name())
            .field("closed", &self.core.is_closed())
            .finish()
    }
}

// --------------------------------------------------------------------------
// Construction
// --------------------------------------------------------------------------

/// The one constructor: the builder finishers call this with the workspace's
/// own queues and with their instrumentation strategy, so the channel layer
/// records park/wake/close events into the same counter set as the queue
/// underneath.
pub(crate) fn channel_over_instrumented<T: Send + 'static, I: Instrument>(
    backend: Box<dyn Backend<T>>,
    instrument: I,
) -> (Sender<T, I>, Receiver<T, I>) {
    let core = Arc::new(ChannelCore {
        backend,
        senders: AtomicUsize::new(1),
        receivers: AtomicUsize::new(1),
        closed: AtomicBool::new(false),
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

    /// Racing closes all close the backend, and exactly one sets the flag;
    /// the in-flight count read beside them never counts more than the two
    /// senders.
    #[test]
    fn racing_closes_transition_once_and_never_show_the_bit() {
        for _ in 0..32 {
            let (tx, mut rx) = unbounded_pair();
            let transitions = &AtomicUsize::new(0);
            std::thread::scope(|s| {
                for _ in 0..2 {
                    let (mut tx, mut rx) = (tx.clone(), rx.clone());
                    s.spawn(move || {
                        let _ = tx.try_send(1);
                        let wins = usize::from(tx.close()) + usize::from(rx.close());
                        transitions.fetch_add(wins, SeqCst);
                        assert!(rx.debug_inflight() <= 2, "more than the senders");
                        assert_eq!(tx.try_send(2), Err(TrySendError::Closed(2)));
                        let _ = rx.try_recv();
                    });
                }
            });
            assert_eq!(transitions.load(SeqCst), 1, "exactly one close transitions");
            assert!(tx.is_closed() && rx.is_closed());
            assert_eq!(rx.debug_inflight(), 0);
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
        tx.send(8).unwrap(); // the handle registered on the other thread
        assert_eq!(rx.recv(), Ok(8));
    }

    #[test]
    fn a_moved_endpoint_keeps_its_registration() {
        let handle_at = |slot: &mut HandleSlot<u64>| {
            slot.bound
                .get_mut()
                .as_deref()
                .map(|h| h as *const dyn BackendHandle<u64> as *const () as usize)
        };
        let (mut tx, mut rx) = unbounded_pair();
        assert_eq!(handle_at(&mut tx.slot), None, "registration is lazy");
        tx.send(0).unwrap();
        assert_eq!(rx.try_recv(), Ok(0));
        let (tx_at, rx_at) = (handle_at(&mut tx.slot), handle_at(&mut rx.slot));
        assert!(tx_at.is_some() && rx_at.is_some());
        // Three hops, each onto a thread spawned after the previous one
        // exited: the endpoints operate there under the handles they
        // registered here.
        for hop in 1..=3u64 {
            (tx, rx) = std::thread::spawn(move || {
                tx.send(hop).unwrap();
                if hop > 1 {
                    assert_eq!(rx.recv(), Ok(hop - 1), "FIFO across the move");
                }
                assert_eq!(handle_at(&mut tx.slot), tx_at, "hop {hop}");
                assert_eq!(handle_at(&mut rx.slot), rx_at, "hop {hop}");
                (tx, rx)
            })
            .join()
            .unwrap();
        }
        // Back here: the same handles, and the drain is exact.
        tx.send(4).unwrap();
        assert_eq!(handle_at(&mut tx.slot), tx_at);
        tx.close();
        assert_eq!(rx.recv(), Ok(3));
        assert_eq!(rx.recv(), Ok(4));
        assert_eq!(rx.recv(), Err(RecvError));
        assert_eq!(handle_at(&mut rx.slot), rx_at);
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
        let (mut tx, mut rx) = (tx.into_sync(), rx.into_sync());
        assert!(
            tx.slot.bound.get_mut().is_some() && rx.slot.bound.get_mut().is_some(),
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
