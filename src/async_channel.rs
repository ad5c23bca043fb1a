//! Async channel endpoints: [`AsyncSender`]/[`AsyncReceiver`] over any
//! [`WaitFreeQueue`](crate::WaitFreeQueue) backend.
//!
//! The queue algorithms never block — wLSCQ in particular has no full state
//! at all — which makes them a natural base for an async MPMC channel: the
//! only thing the async layer adds is *parking*.  A receiver that observes an
//! empty channel parks its task waker in a per-endpoint slot of the shared
//! channel core's waker registry;
//! every successful send wakes **one** parked receiver, a close wakes **all**
//! of them, and (symmetrically, for the bounded backend) every successful
//! receive wakes one sender parked on a full queue.  No thread ever spins
//! inside the executor: every future here is an attempt driven by the wait
//! core's task driver (`src/wait.rs`; DESIGN.md, "Wait core: attempts ×
//! drivers"), which returns `Pending` only after re-checking the queue *with
//! its waker already parked*, so a wake can never be lost — and whose guard
//! makes dropping a future mid-wait safe.
//!
//! The park decision is gated by
//! [`is_empty_hint`](crate::WaitFreeQueue::is_empty_hint) (the counting
//! backends' approximate length): while the hint says values are present,
//! the receiver retries the dequeue instead of paying the park/re-check round
//! trip.  The two backends' hints err in opposite directions.  The bounded
//! queue's is `aq`'s tail−head distance, and an enqueue's tail F&A comes
//! before its entry write, so it may count a value moments before the
//! deposit.  The unbounded queue's counts a value only after its deposit, so
//! it may read empty while a value is there: the receiver parks, and the
//! re-check with its waker in place finds the value.
//!
//! No executor is required or shipped: the futures are ordinary
//! [`std::future::Future`]s driven by any runtime; this repo's tests and
//! benches use the dependency-free `wcq_harness::exec::block_on` shim.
//!
//! ```
//! let (tx, rx) = wcq::builder().threads(4).build_async::<u64>();
//! let (mut tx, mut rx) = (tx, rx);
//! wcq_harness::exec::block_on(async move {
//!     tx.send(7).await.unwrap();
//!     assert_eq!(rx.recv().await, Ok(7));
//!     tx.close();
//!     assert!(rx.recv().await.is_err(), "closed and drained");
//! });
//! ```

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

use wcq_core::metrics::{Instrument, NoopInstrument};

use crate::channel::{
    recv_answer, Receiver, RecvError, SendError, Sender, TryRecvError, TrySendError,
};
use crate::wait::{Lane, Parked, WakeSide};

// --------------------------------------------------------------------------
// AsyncSender
// --------------------------------------------------------------------------

/// The producing endpoint of a channel built by
/// [`build_async`](crate::QueueBuilder::build_async).
///
/// Wraps a [`Sender`] (same close semantics, same typed errors, same
/// send-side wait slot) so [`send`](AsyncSender::send) on a full *bounded*
/// backend suspends the task instead of spinning; a receive or a close wakes
/// it.  The unbounded backend never reports full, so its send futures
/// complete on first poll.
pub struct AsyncSender<T: Send + 'static, I: Instrument = NoopInstrument> {
    inner: Sender<T, I>,
}

impl<T: Send + 'static, I: Instrument> AsyncSender<T, I> {
    /// Sends `value`, suspending while a bounded backend is full.  Resolves
    /// with the value back inside [`SendError`] if the channel closes first.
    pub fn send(&mut self, value: T) -> SendFuture<'_, T, I> {
        SendFuture {
            wait: Parked::one(&mut self.inner),
            value: Some(value),
        }
    }

    /// Non-blocking send; identical to [`Sender::try_send`].
    pub fn try_send(&mut self, value: T) -> Result<(), TrySendError<T>> {
        self.inner.try_send(value)
    }

    /// Sends every element of `iter`, suspending (rather than spinning) while
    /// a bounded backend is full — the async face of [`Sender::send_iter`],
    /// with the same batch-amortized announcements and the same error
    /// contract: on close the unsent remainder comes back in order inside the
    /// error, and everything else was enqueued pre-close and will drain.
    pub fn send_iter<It>(&mut self, iter: It) -> SendIterFuture<'_, T, I>
    where
        It: IntoIterator<Item = T>,
    {
        let buf: Vec<T> = iter.into_iter().collect();
        let total = buf.len();
        SendIterFuture {
            wait: Parked::one(&mut self.inner),
            buf,
            total,
        }
    }

    /// Closes the channel (see [`Sender::close`]); wakes every parked task.
    pub fn close(&self) -> bool {
        self.inner.close()
    }

    /// `true` once the channel is closed.
    pub fn is_closed(&self) -> bool {
        self.inner.is_closed()
    }

    /// Display name of the backend queue.
    pub fn backend_name(&self) -> &'static str {
        self.inner.backend_name()
    }

    /// Strips the async layer: the wrapped sync endpoint itself, with its
    /// queue registration and wait slot intact.
    pub fn into_sync(self) -> Sender<T, I> {
        self.inner
    }
}

impl<T: Send + 'static, I: Instrument> From<Sender<T, I>> for AsyncSender<T, I> {
    fn from(mut inner: Sender<T, I>) -> Self {
        // Attach the wait slot now rather than at the first park: wake-one
        // picks the earliest-attached parked endpoint, so attach order is
        // creation order.
        inner.lane();
        Self { inner }
    }
}

impl<T: Send + 'static, I: Instrument> Clone for AsyncSender<T, I> {
    fn clone(&self) -> Self {
        self.inner.clone().into()
    }
}

impl<T: Send + 'static, I: Instrument> std::fmt::Debug for AsyncSender<T, I> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AsyncSender")
            .field("backend", &self.backend_name())
            .field("closed", &self.is_closed())
            .finish()
    }
}

/// Future of [`AsyncSender::send`]: the `try_send` attempt under the task
/// driver.
#[must_use = "futures do nothing unless polled"]
pub struct SendFuture<'a, T: Send + 'static, I: Instrument = NoopInstrument> {
    wait: Parked<'a, Sender<T, I>>,
    /// The value still to be sent; taken on completion.
    value: Option<T>,
}

// No field is structurally pinned (`poll` only ever takes plain `&mut` to
// them), so the future is `Unpin` regardless of `T`.
impl<T: Send + 'static, I: Instrument> Unpin for SendFuture<'_, T, I> {}

impl<T: Send + 'static, I: Instrument> Future for SendFuture<'_, T, I> {
    type Output = Result<(), SendError<T>>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let Self { wait, value } = self.get_mut();
        wait.poll_one(cx, |tx| tx.attempt_send(value))
    }
}

/// Future of [`AsyncSender::send_iter`]: the `try_send_batch` attempt under
/// the task driver.
#[must_use = "futures do nothing unless polled"]
pub struct SendIterFuture<'a, T: Send + 'static, I: Instrument = NoopInstrument> {
    wait: Parked<'a, Sender<T, I>>,
    /// The elements still to be sent, drained from the front as batches land.
    buf: Vec<T>,
    total: usize,
}

impl<T: Send + 'static, I: Instrument> Unpin for SendIterFuture<'_, T, I> {}

impl<T: Send + 'static, I: Instrument> Future for SendIterFuture<'_, T, I> {
    type Output = Result<usize, SendError<Vec<T>>>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let Self { wait, buf, total } = self.get_mut();
        wait.poll_one(cx, |tx| tx.attempt_send_batch(buf, *total))
    }
}

// --------------------------------------------------------------------------
// AsyncReceiver
// --------------------------------------------------------------------------

/// The consuming endpoint of a channel built by
/// [`build_async`](crate::QueueBuilder::build_async).
///
/// Wraps a [`Receiver`] (same receive-side wait slot):
/// [`recv`](AsyncReceiver::recv) on an empty channel parks the task and is
/// woken by the next send (one receiver per send) or by a close (all
/// receivers).  The close-drain guarantee carries over unchanged — a receiver
/// resolves to `Err(`[`RecvError`]`)` only after every pre-close send has
/// been drained by someone.
pub struct AsyncReceiver<T: Send + 'static, I: Instrument = NoopInstrument> {
    inner: Receiver<T, I>,
}

impl<T: Send + 'static, I: Instrument> AsyncReceiver<T, I> {
    /// Receives the next value, suspending while the channel is empty.
    /// Resolves with `Err(`[`RecvError`]`)` once the channel is closed and
    /// fully drained.
    pub fn recv(&mut self) -> RecvFuture<'_, T, I> {
        RecvFuture(Parked::one(&mut self.inner))
    }

    /// Non-blocking receive; identical to [`Receiver::try_recv`].
    pub fn try_recv(&mut self) -> Result<T, TryRecvError> {
        self.inner.try_recv()
    }

    /// Receives up to `max` values into `out`, suspending while the channel
    /// is empty — the async face of [`Receiver::recv_many`].  Resolves with
    /// the number appended (at least one; fewer than `max` does not mean
    /// empty), or `Err(`[`RecvError`]`)` once the channel is closed and fully
    /// drained.
    pub fn recv_many<'a>(
        &'a mut self,
        out: &'a mut Vec<T>,
        max: usize,
    ) -> RecvManyFuture<'a, T, I> {
        RecvManyFuture {
            wait: Parked::one(&mut self.inner),
            out,
            max,
        }
    }

    /// Closes the channel (see [`Receiver::close`]); wakes every parked task.
    pub fn close(&self) -> bool {
        self.inner.close()
    }

    /// `true` once the channel is closed.
    pub fn is_closed(&self) -> bool {
        self.inner.is_closed()
    }

    /// The backend's emptiness hint that gates the park decision.
    pub fn is_empty_hint(&self) -> bool {
        self.inner.is_empty_hint()
    }

    /// Display name of the backend queue.
    pub fn backend_name(&self) -> &'static str {
        self.inner.backend_name()
    }

    /// Strips the async layer: the wrapped sync endpoint itself, with its
    /// queue registration and wait slot intact.
    pub fn into_sync(self) -> Receiver<T, I> {
        self.inner
    }
}

impl<T: Send + 'static, I: Instrument> From<Receiver<T, I>> for AsyncReceiver<T, I> {
    fn from(mut inner: Receiver<T, I>) -> Self {
        inner.lane(); // attach now: see `AsyncSender`'s conversion
        Self { inner }
    }
}

/// A select over async receivers ([`crate::select::recv_any`]) parks in the
/// wrapped endpoints' lanes.
impl<T: Send + 'static, I: Instrument> Lane for AsyncReceiver<T, I> {
    type I = I;
    fn lane(&mut self) -> (&WakeSide<I>, u64) {
        self.inner.lane()
    }
}

impl<T: Send + 'static, I: Instrument> Clone for AsyncReceiver<T, I> {
    fn clone(&self) -> Self {
        self.inner.clone().into()
    }
}

impl<T: Send + 'static, I: Instrument> std::fmt::Debug for AsyncReceiver<T, I> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AsyncReceiver")
            .field("backend", &self.backend_name())
            .field("closed", &self.is_closed())
            .finish()
    }
}

/// The receive futures' poll: `try_recv` under the task driver, with up to
/// two more tries before parking, gated by the backend's length hint.  While
/// the hint says values exist, a retry is cheaper than the park/re-check
/// round trip: the bounded backend's hint may count a value from its tail
/// F&A, just before the deposit, and the unbounded backend's may still count
/// a value another receiver took, until that take is subtracted.  The bound
/// keeps one poll finite even if the hint stays stubbornly non-empty.  The
/// unbounded hint lags a deposit instead of leading it, so an empty reading
/// can be stale; the re-check with the waker in place, always one try, then
/// finds the value.
fn poll_hinted<T: Send + 'static, I: Instrument, R>(
    wait: &mut Parked<'_, Receiver<T, I>>,
    cx: &mut Context<'_>,
    mut try_recv: impl FnMut(&mut Receiver<T, I>) -> Result<R, TryRecvError>,
) -> Poll<Result<R, RecvError>> {
    let mut pre_park = true;
    wait.poll_one(cx, |rx| {
        let mut answer = recv_answer(try_recv(rx));
        let retry = std::mem::take(&mut pre_park) && answer.is_none();
        if retry && !rx.is_empty_hint() {
            answer = recv_answer(try_recv(rx)).or_else(|| recv_answer(try_recv(rx)));
        }
        answer // `None`: genuinely empty, go park
    })
}

/// Future of [`AsyncReceiver::recv`]: the hint-gated `try_recv` attempt under
/// the task driver.
#[must_use = "futures do nothing unless polled"]
pub struct RecvFuture<'a, T: Send + 'static, I: Instrument = NoopInstrument>(
    Parked<'a, Receiver<T, I>>,
);

impl<T: Send + 'static, I: Instrument> Future for RecvFuture<'_, T, I> {
    type Output = Result<T, RecvError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        poll_hinted(&mut self.get_mut().0, cx, Receiver::try_recv)
    }
}

/// Future of [`AsyncReceiver::recv_many`]: the hint-gated `try_recv_many`
/// attempt under the task driver.
#[must_use = "futures do nothing unless polled"]
pub struct RecvManyFuture<'a, T: Send + 'static, I: Instrument = NoopInstrument> {
    wait: Parked<'a, Receiver<T, I>>,
    out: &'a mut Vec<T>,
    max: usize,
}

impl<T: Send + 'static, I: Instrument> Future for RecvManyFuture<'_, T, I> {
    type Output = Result<usize, RecvError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let Self { wait, out, max } = self.get_mut();
        poll_hinted(wait, cx, |rx| rx.try_recv_many(out, *max))
    }
}
