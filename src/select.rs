//! Multi-channel receive: wait on several channels at once, resolving with
//! whichever yields a value first.
//!
//! A fan-in server shape — one worker draining a high-priority control lane
//! *and* a bulk request lane — needs to wait on both channels without
//! polling either.  The wait core (`src/wait.rs`) was built for this from the
//! start: a wait-slot holds an arbitrary [`std::task::Waker`], so one task (or
//! one thread-unparking waker) can park a clone of itself in *several*
//! channels' receive sides and be woken by whichever fires first.  Both faces
//! here are the same attempt — a lane scan — under a different driver of that
//! core, and inherit its no-lost-wake / no-swallowed-wake protocol (DESIGN.md,
//! "Wait core: attempts × drivers"):
//!
//! * [`recv_any`] — an async future over a set of [`AsyncReceiver`]s (the
//!   task driver);
//! * [`recv_any_timeout`] — the sync, deadline-bounded counterpart over
//!   [`Receiver`]s: a brief spin on the lanes' read-only hints, then the
//!   calling thread parks (the thread driver).
//!
//! Both scan channels in **slice order**, making the select a *priority*
//! select: when several lanes hold values, the earliest one in the slice
//! wins the tie.  Put the control lane first.
//!
//! Both resolve `Closed` only when **every** participating channel is closed
//! *and* fully drained — a single closed lane never ends the wait while its
//! peers are live.  And both settle their waker slots on the way out: a slot
//! whose waker was consumed by a notification we did not act on has that
//! notification *forwarded*, so a select that completes on lane A can never
//! swallow lane B's wake.
//!
//! ```
//! use wcq::select::recv_any;
//!
//! let (tx_hi, rx_hi) = wcq::builder().threads(4).build_async::<u32>();
//! let (tx_lo, rx_lo) = wcq::builder().threads(4).build_async::<u32>();
//! let (mut tx_hi, mut rx_hi, mut rx_lo) = (tx_hi, rx_hi, rx_lo);
//! wcq_harness::exec::block_on(async move {
//!     tx_hi.send(7).await.unwrap();
//!     let mut lanes = [&mut rx_hi, &mut rx_lo];
//!     let (lane, value) = recv_any(&mut lanes).await.unwrap();
//!     assert_eq!((lane, value), (0, 7));
//!     drop(lanes);
//!     tx_hi.close();
//!     tx_lo.close();
//!     let mut lanes = [&mut rx_hi, &mut rx_lo];
//!     assert!(recv_any(&mut lanes).await.is_err(), "all lanes closed");
//! });
//! ```

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};
use std::time::Duration;

use wcq_core::metrics::{Instrument, NoopInstrument};

use crate::async_channel::AsyncReceiver;
use crate::channel::{timed, Receiver, RecvError, RecvTimeoutError, TryRecvError};
use crate::wait::{Answer, Lane, Parked};

/// The lane-scan attempt: one pass over the lanes in slice order.  The first
/// value wins; `Closed` only once every lane reported closed-and-drained
/// (vacuously so for no lanes at all).
fn scan<R, T>(
    lanes: &mut [R],
    mut try_recv: impl FnMut(&mut R) -> Result<T, TryRecvError>,
) -> Answer<Result<(usize, T), RecvError>> {
    let mut closed = 0;
    for (i, rx) in lanes.iter_mut().enumerate() {
        match try_recv(rx) {
            Ok(value) => return Some((Some(i), Ok((i, value)))),
            Err(TryRecvError::Closed) => closed += 1,
            Err(TryRecvError::Empty) => {}
        }
    }
    (closed == lanes.len()).then_some((None, Err(RecvError)))
}

/// Waits on every receiver in `rxs` at once, resolving with `(index, value)`
/// for whichever channel yields first.
///
/// Resolves with `Err(`[`RecvError`]`)` only when **all** channels are
/// closed and fully drained (an empty `rxs` resolves `Err` immediately:
/// nothing can ever arrive).  Channels are scanned in slice order (priority
/// select).  The future is cancellation-safe: dropping it mid-wait unparks
/// every slot it parked and forwards any notification that had already
/// consumed its waker, exactly like the single-channel futures.
pub fn recv_any<'s, 'r, T: Send + 'static, I: Instrument>(
    rxs: &'s mut [&'r mut AsyncReceiver<T, I>],
) -> RecvAny<'s, 'r, T, I> {
    RecvAny(Parked::new(rxs))
}

/// Future of [`recv_any`]: the lane scan under the task driver.
#[must_use = "futures do nothing unless polled"]
pub struct RecvAny<'s, 'r, T: Send + 'static, I: Instrument = NoopInstrument>(
    Parked<'s, &'r mut AsyncReceiver<T, I>>,
);

impl<T: Send + 'static, I: Instrument> Future for RecvAny<'_, '_, T, I> {
    type Output = Result<(usize, T), RecvError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        (self.get_mut().0).poll_task(cx, |lanes| scan(lanes, |rx| rx.try_recv()))
    }
}

/// Synchronous multi-channel receive with a deadline: waits on every
/// receiver in `rxs`, returning `(index, value)` for whichever yields first.
///
/// Channels are scanned in **slice order**, making this a priority select —
/// put the lane that must win ties first.  The deadline semantics match
/// [`Receiver::recv_timeout`]:
///
/// * [`RecvTimeoutError::Timeout`] — the deadline passed with every channel
///   empty; **no element was consumed** anywhere;
/// * [`RecvTimeoutError::Closed`] — every channel is closed *and* fully
///   drained (an empty `rxs` reports this immediately).  A single closed
///   lane never ends the wait while its peers are live.
///
/// The wait is [`Receiver::recv_timeout`]'s: it spins briefly (the spin
/// counts against `timeout`), polling an open lane again only once that
/// lane's read-only hint stops saying empty, then parks the calling thread
/// with one thread-unparking waker cloned into each channel's receive-side
/// slot — the same park/re-check discipline as the async [`recv_any`], woken
/// by whichever channel sends (or closes) first.
pub fn recv_any_timeout<T: Send + 'static, I: Instrument>(
    rxs: &mut [&mut Receiver<T, I>],
    timeout: Duration,
) -> Result<(usize, T), RecvTimeoutError> {
    timed(Parked::wait_thread(rxs, timeout, |lanes, gated| {
        scan(lanes, |rx| {
            if gated && rx.still_nothing() {
                Err(TryRecvError::Empty) // open, and its hint says so
            } else {
                rx.try_recv()
            }
        })
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::atomic::Ordering::SeqCst;
    use std::sync::Arc;
    use std::task::{Wake, Waker};
    use std::time::Instant;

    fn async_pair() -> (crate::async_channel::AsyncSender<u64>, AsyncReceiver<u64>) {
        crate::builder().threads(4).build_async::<u64>()
    }

    /// A waker that only counts: hand-polling with it makes wake delivery
    /// exactly observable.
    struct CountingWake(AtomicUsize);
    impl Wake for CountingWake {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, SeqCst);
        }
        fn wake_by_ref(self: &Arc<Self>) {
            self.0.fetch_add(1, SeqCst);
        }
    }

    fn counting_waker() -> (Arc<CountingWake>, Waker) {
        let count = Arc::new(CountingWake(AtomicUsize::new(0)));
        let waker = Waker::from(Arc::clone(&count));
        (count, waker)
    }

    fn poll_once<F: Future + Unpin>(fut: &mut F, waker: &Waker) -> Poll<F::Output> {
        let mut cx = Context::from_waker(waker);
        Pin::new(fut).poll(&mut cx)
    }

    #[test]
    fn select_parked_across_two_channels_wakes_exactly_once() {
        let (mut tx_a, rx_a) = async_pair();
        let (mut tx_b, rx_b) = async_pair();
        let (mut rx_a, mut rx_b) = (rx_a, rx_b);
        let (count, waker) = counting_waker();

        let mut lanes = [&mut rx_a, &mut rx_b];
        let mut fut = recv_any(&mut lanes);
        assert!(poll_once(&mut fut, &waker).is_pending());
        assert_eq!(count.0.load(SeqCst), 0, "nothing sent yet");

        // Channel A fires: the parked select is woken exactly once, even
        // though its waker sits in *two* registries.
        tx_a.try_send(41).unwrap();
        assert_eq!(count.0.load(SeqCst), 1, "woken once by the firing side");
        assert_eq!(poll_once(&mut fut, &waker), Poll::Ready(Ok((0, 41))));
        drop(fut);

        // No stale waker lingers in the loser registry: a send on B must
        // not burn its notification on the completed select (the count
        // stays put), and the value stays receivable.
        tx_b.try_send(99).unwrap();
        assert_eq!(
            count.0.load(SeqCst),
            1,
            "completed select left no waker behind in channel B"
        );
        assert_eq!(rx_b.try_recv(), Ok(99));
        drop((tx_a, tx_b));
    }

    #[test]
    fn select_is_woken_by_the_second_lane_too() {
        let (tx_a, rx_a) = async_pair();
        let (mut tx_b, rx_b) = async_pair();
        let (mut rx_a, mut rx_b) = (rx_a, rx_b);
        let (count, waker) = counting_waker();

        let mut lanes = [&mut rx_a, &mut rx_b];
        let mut fut = recv_any(&mut lanes);
        assert!(poll_once(&mut fut, &waker).is_pending());

        // The *non-first* lane fires: same single wake, and the resolved
        // index points at lane 1.
        tx_b.try_send(52).unwrap();
        assert_eq!(count.0.load(SeqCst), 1);
        assert_eq!(poll_once(&mut fut, &waker), Poll::Ready(Ok((1, 52))));
        drop(fut);

        // Lane A's registry holds no leftover from the completed select.
        let mut tx_a = tx_a;
        tx_a.try_send(1).unwrap();
        assert_eq!(count.0.load(SeqCst), 1, "no stale waker in lane A");
        assert_eq!(rx_a.try_recv(), Ok(1));
        drop((tx_a, tx_b));
    }

    #[test]
    fn select_drop_leaves_no_stale_waker_in_either_registry() {
        let (mut tx_a, rx_a) = async_pair();
        let (mut tx_b, rx_b) = async_pair();
        let (mut rx_a, mut rx_b) = (rx_a, rx_b);
        let (count, waker) = counting_waker();

        let mut lanes = [&mut rx_a, &mut rx_b];
        let mut fut = recv_any(&mut lanes);
        assert!(poll_once(&mut fut, &waker).is_pending());
        drop(fut); // cancelled while parked in both registries

        tx_a.try_send(1).unwrap();
        tx_b.try_send(2).unwrap();
        assert_eq!(
            count.0.load(SeqCst),
            0,
            "cancelled select left no waker behind in either channel"
        );
        assert_eq!(rx_a.try_recv(), Ok(1));
        assert_eq!(rx_b.try_recv(), Ok(2));
        drop((tx_a, tx_b));
    }

    #[test]
    fn select_dropped_after_wake_forwards_the_consumed_notification() {
        // A select and an independent single-channel future parked on the
        // SAME channel: the select attached first, so the send's notify
        // consumes the *select's* waker.  Dropping the select before it
        // acts must forward the wake to the sibling, not swallow it.
        let (mut tx, rx) = async_pair();
        let mut rx_a = rx; // attached first: notify_one picks this slot
        let mut rx_c = rx_a.clone(); // attached second: the sibling
        let (select_count, select_waker) = counting_waker();
        let (sibling_count, sibling_waker) = counting_waker();

        let mut sibling = rx_c.recv();
        assert!(poll_once(&mut sibling, &sibling_waker).is_pending());

        let mut lanes = [&mut rx_a];
        let mut fut = recv_any(&mut lanes);
        assert!(poll_once(&mut fut, &select_waker).is_pending());

        tx.try_send(5).unwrap();
        assert_eq!(select_count.0.load(SeqCst), 1, "the select was chosen");
        assert_eq!(sibling_count.0.load(SeqCst), 0);

        // Cancelled with a consumed, un-acted-on notification: forward it.
        drop(fut);
        assert_eq!(
            sibling_count.0.load(SeqCst),
            1,
            "the consumed notification was forwarded to the sibling"
        );
        assert_eq!(poll_once(&mut sibling, &sibling_waker), Poll::Ready(Ok(5)));
        drop(sibling);
        drop(tx);
    }

    #[test]
    fn select_survives_the_close_wakes_all_race() {
        let (tx_a, rx_a) = async_pair();
        let (tx_b, rx_b) = async_pair();
        let (mut rx_a, mut rx_b) = (rx_a, rx_b);
        let (count, waker) = counting_waker();

        let mut lanes = [&mut rx_a, &mut rx_b];
        let mut fut = recv_any(&mut lanes);
        assert!(poll_once(&mut fut, &waker).is_pending());

        // Close lane A: its close-wakes-all consumes our waker there and
        // wakes us exactly once; lane B still holds a clone.
        tx_a.close();
        assert_eq!(count.0.load(SeqCst), 1, "close woke the select once");
        // Re-poll: A is closed-and-drained but B is live, so the select
        // keeps waiting (re-parking everywhere).
        assert!(poll_once(&mut fut, &waker).is_pending());

        // Close lane B too: now every lane is closed — the select resolves.
        tx_b.close();
        assert!(count.0.load(SeqCst) >= 2, "second close woke the select");
        assert_eq!(poll_once(&mut fut, &waker), Poll::Ready(Err(RecvError)));
        drop(fut);
        drop((tx_a, tx_b));
    }

    #[test]
    fn select_drains_closed_lanes_before_reporting_closed() {
        let (mut tx_a, rx_a) = async_pair();
        let (tx_b, rx_b) = async_pair();
        let (mut rx_a, mut rx_b) = (rx_a, rx_b);
        let (_count, waker) = counting_waker();

        tx_a.try_send(1).unwrap();
        tx_a.try_send(2).unwrap();
        tx_a.close();
        tx_b.close();

        // Both lanes closed, but lane A still holds pre-close values: the
        // select hands them out (exact drain) before resolving Closed.
        let mut got = Vec::new();
        loop {
            let mut lanes = [&mut rx_a, &mut rx_b];
            let mut fut = recv_any(&mut lanes);
            match poll_once(&mut fut, &waker) {
                Poll::Ready(Ok((lane, v))) => {
                    assert_eq!(lane, 0);
                    got.push(v);
                }
                Poll::Ready(Err(RecvError)) => break,
                Poll::Pending => panic!("closed lanes never leave a select pending"),
            }
        }
        assert_eq!(got, vec![1, 2]);
        drop((tx_a, tx_b));
    }

    #[test]
    fn async_select_prefers_the_first_lane() {
        let (mut tx_a, rx_a) = async_pair();
        let (mut tx_b, rx_b) = async_pair();
        let (mut rx_a, mut rx_b) = (rx_a, rx_b);
        let (_count, waker) = counting_waker();
        tx_a.try_send(10).unwrap();
        tx_b.try_send(20).unwrap();
        // Both lanes ready: slice order decides, matching the sync select.
        let mut lanes = [&mut rx_a, &mut rx_b];
        let mut fut = recv_any(&mut lanes);
        assert_eq!(poll_once(&mut fut, &waker), Poll::Ready(Ok((0, 10))));
        drop(fut);
        let mut fut = recv_any(&mut lanes);
        assert_eq!(poll_once(&mut fut, &waker), Poll::Ready(Ok((1, 20))));
        drop(fut);
        drop((tx_a, tx_b));
    }

    #[test]
    fn empty_select_resolves_closed_immediately() {
        let (_count, waker) = counting_waker();
        let mut lanes: [&mut AsyncReceiver<u64>; 0] = [];
        let mut fut = recv_any(&mut lanes);
        assert_eq!(poll_once(&mut fut, &waker), Poll::Ready(Err(RecvError)));
        let mut none: [&mut Receiver<u64>; 0] = [];
        assert_eq!(
            recv_any_timeout(&mut none, Duration::ZERO),
            Err(RecvTimeoutError::Closed)
        );
    }

    #[test]
    fn sync_select_prefers_the_first_lane_and_times_out() {
        let (tx_hi, rx_hi) = crate::builder().threads(4).build_channel::<u64>();
        let (tx_lo, rx_lo) = crate::builder().threads(4).build_channel::<u64>();
        let (mut tx_hi, mut tx_lo, mut rx_hi, mut rx_lo) = (tx_hi, tx_lo, rx_hi, rx_lo);

        tx_hi.send(1).unwrap();
        tx_lo.send(2).unwrap();
        // Both ready: slice order decides — the high-priority lane wins.
        assert_eq!(
            recv_any_timeout(&mut [&mut rx_hi, &mut rx_lo], Duration::ZERO),
            Ok((0, 1))
        );
        assert_eq!(
            recv_any_timeout(&mut [&mut rx_hi, &mut rx_lo], Duration::ZERO),
            Ok((1, 2)),
            "hi empty: the low lane serves"
        );
        assert_eq!(
            recv_any_timeout(&mut [&mut rx_hi, &mut rx_lo], Duration::from_millis(5)),
            Err(RecvTimeoutError::Timeout)
        );
        // One closed lane does not end the wait...
        drop(tx_hi);
        assert_eq!(
            recv_any_timeout(&mut [&mut rx_hi, &mut rx_lo], Duration::from_millis(5)),
            Err(RecvTimeoutError::Timeout)
        );
        // ...but all lanes closed (and drained) does.
        drop(tx_lo);
        assert_eq!(
            recv_any_timeout(&mut [&mut rx_hi, &mut rx_lo], Duration::from_millis(5)),
            Err(RecvTimeoutError::Closed)
        );
    }

    #[test]
    fn sync_select_is_woken_by_whichever_lane_fires() {
        let (tx_a, rx_a) = crate::builder().threads(4).build_channel::<u64>();
        let (tx_b, rx_b) = crate::builder().threads(4).build_channel::<u64>();
        let (mut rx_a, mut rx_b) = (rx_a, rx_b);
        let sender = std::thread::spawn(move || {
            let (_tx_a, mut tx_b) = (tx_a, tx_b);
            std::thread::sleep(Duration::from_millis(20));
            tx_b.send(77).unwrap();
        });
        let start = Instant::now();
        assert_eq!(
            recv_any_timeout(&mut [&mut rx_a, &mut rx_b], Duration::from_secs(30)),
            Ok((1, 77)),
            "the parked select is woken by lane B"
        );
        assert!(start.elapsed() < Duration::from_secs(10));
        sender.join().unwrap();
    }
}
