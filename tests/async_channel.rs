//! Park/wake integration suite for the async channel endpoints (ISSUE 5).
//!
//! The acceptance claims: a parked receiver is woken by an enqueue and by
//! `close()` — *without busy-spinning*, which the tests pin down two ways:
//!
//! * **deterministically**, by hand-polling a future with a counting waker:
//!   `Pending` proves the waker is parked, and the wake count after a send /
//!   close proves exactly who woke it;
//! * **end to end**, through the dependency-free `block_on_instrumented`
//!   executor shim: a full cross-thread pipeline must finish with poll/wake
//!   counts (`ExecPolls`/`ExecWakes` in the `CountingInstrument` snapshot)
//!   linear in the item count (a busy-polling receiver shows orders of
//!   magnitude more).

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

use wcq::channel::{RecvError, SendError, TrySendError};
use wcq::{ChannelBackend, Counter, CountingInstrument};
use wcq_harness::exec::{block_on, block_on_instrumented};

/// A waker that only counts; `Pending` + count 0 proves nothing woke us.
struct CountingWake(AtomicU64);

impl Wake for CountingWake {
    fn wake(self: Arc<Self>) {
        self.0.fetch_add(1, SeqCst);
    }
    fn wake_by_ref(self: &Arc<Self>) {
        self.0.fetch_add(1, SeqCst);
    }
}

fn counting_waker() -> (Arc<CountingWake>, Waker) {
    let count = Arc::new(CountingWake(AtomicU64::new(0)));
    (Arc::clone(&count), Waker::from(Arc::clone(&count)))
}

fn async_pair(backend: ChannelBackend) -> (wcq::AsyncSender<u64>, wcq::AsyncReceiver<u64>) {
    wcq::builder()
        .capacity_order(6)
        .threads(6)
        .backend(backend)
        .build_async::<u64>()
}

#[test]
fn parked_receiver_is_woken_by_exactly_one_enqueue() {
    for backend in [ChannelBackend::Bounded, ChannelBackend::Unbounded] {
        let (mut tx, mut rx) = async_pair(backend);
        let (count, waker) = counting_waker();
        let mut cx = Context::from_waker(&waker);

        let mut fut = rx.recv();
        assert!(
            matches!(Pin::new(&mut fut).poll(&mut cx), Poll::Pending),
            "backend {backend:?}: empty channel parks the receiver"
        );
        assert_eq!(count.0.load(SeqCst), 0, "parked, not spinning");

        tx.try_send(7).unwrap();
        assert_eq!(
            count.0.load(SeqCst),
            1,
            "backend {backend:?}: one enqueue wakes the parked receiver exactly once"
        );
        assert!(matches!(
            Pin::new(&mut fut).poll(&mut cx),
            Poll::Ready(Ok(7))
        ));
        // No further polls, no further wakes.
        assert_eq!(count.0.load(SeqCst), 1);
    }
}

#[test]
fn parked_receiver_is_woken_by_close_and_resolves_closed() {
    let (tx, mut rx) = async_pair(ChannelBackend::Unbounded);
    let (count, waker) = counting_waker();
    let mut cx = Context::from_waker(&waker);

    let mut fut = rx.recv();
    assert!(matches!(Pin::new(&mut fut).poll(&mut cx), Poll::Pending));
    assert_eq!(count.0.load(SeqCst), 0);

    tx.close();
    assert_eq!(count.0.load(SeqCst), 1, "close wakes the parked receiver");
    assert!(matches!(
        Pin::new(&mut fut).poll(&mut cx),
        Poll::Ready(Err(RecvError))
    ));
    drop(fut);
    drop(tx);
}

#[test]
fn close_wakes_every_parked_receiver_send_wakes_one() {
    let (mut tx, rx) = async_pair(ChannelBackend::Unbounded);
    let mut rx_a = rx.clone();
    let mut rx_b = rx;
    let (count_a, waker_a) = counting_waker();
    let (count_b, waker_b) = counting_waker();
    let mut cx_a = Context::from_waker(&waker_a);
    let mut cx_b = Context::from_waker(&waker_b);

    let mut fut_a = rx_a.recv();
    let mut fut_b = rx_b.recv();
    assert!(matches!(
        Pin::new(&mut fut_a).poll(&mut cx_a),
        Poll::Pending
    ));
    assert!(matches!(
        Pin::new(&mut fut_b).poll(&mut cx_b),
        Poll::Pending
    ));

    tx.try_send(1).unwrap();
    let woken = count_a.0.load(SeqCst) + count_b.0.load(SeqCst);
    assert_eq!(woken, 1, "a send wakes one parked receiver, not all");

    tx.close();
    assert_eq!(
        count_a.0.load(SeqCst) + count_b.0.load(SeqCst),
        2,
        "close wakes the remaining parked receiver"
    );
    // Exactly one future gets the value; the other resolves Closed.
    let ra = Pin::new(&mut fut_a).poll(&mut cx_a);
    let rb = Pin::new(&mut fut_b).poll(&mut cx_b);
    let oks = [&ra, &rb]
        .iter()
        .filter(|p| matches!(p, Poll::Ready(Ok(1))))
        .count();
    let closed = [&ra, &rb]
        .iter()
        .filter(|p| matches!(p, Poll::Ready(Err(RecvError))))
        .count();
    assert_eq!((oks, closed), (1, 1), "got {ra:?} / {rb:?}");
}

#[test]
fn parked_sender_on_full_bounded_queue_is_woken_by_a_receive() {
    let (mut tx, mut rx) = wcq::builder()
        .capacity_order(1) // capacity 2, so k ≤ n caps the endpoints at 2
        .threads(2)
        .backend(ChannelBackend::Bounded)
        .build_async::<u64>();
    tx.try_send(1).unwrap();
    tx.try_send(2).unwrap();
    assert!(matches!(tx.try_send(3), Err(TrySendError::Full(3))));

    let (count, waker) = counting_waker();
    let mut cx = Context::from_waker(&waker);
    let mut fut = tx.send(3);
    assert!(
        matches!(Pin::new(&mut fut).poll(&mut cx), Poll::Pending),
        "full bounded queue parks the sender"
    );
    assert_eq!(count.0.load(SeqCst), 0);

    assert_eq!(rx.try_recv(), Ok(1));
    assert_eq!(count.0.load(SeqCst), 1, "a receive wakes the parked sender");
    assert!(matches!(
        Pin::new(&mut fut).poll(&mut cx),
        Poll::Ready(Ok(()))
    ));
    drop(fut);

    assert_eq!(rx.try_recv(), Ok(2));
    assert_eq!(rx.try_recv(), Ok(3));
}

#[test]
fn parked_sender_is_woken_by_close_and_gets_its_value_back() {
    let (mut tx, rx) = wcq::builder()
        .capacity_order(1) // capacity 2, two endpoints
        .threads(2)
        .backend(ChannelBackend::Bounded)
        .build_async::<u64>();
    tx.try_send(1).unwrap();
    tx.try_send(2).unwrap();

    let (count, waker) = counting_waker();
    let mut cx = Context::from_waker(&waker);
    let mut fut = tx.send(3);
    assert!(matches!(Pin::new(&mut fut).poll(&mut cx), Poll::Pending));

    rx.close();
    assert_eq!(count.0.load(SeqCst), 1, "close wakes the parked sender");
    assert!(matches!(
        Pin::new(&mut fut).poll(&mut cx),
        Poll::Ready(Err(SendError(3)))
    ));
}

#[test]
fn cancelled_recv_future_leaves_no_stale_waker_behind() {
    let (mut tx, mut rx) = async_pair(ChannelBackend::Unbounded);
    let (count, waker) = counting_waker();
    let mut cx = Context::from_waker(&waker);
    {
        let mut fut = rx.recv();
        assert!(matches!(Pin::new(&mut fut).poll(&mut cx), Poll::Pending));
    } // dropped while parked: must unpark itself
    tx.try_send(5).unwrap();
    assert_eq!(
        count.0.load(SeqCst),
        0,
        "the send must not burn its notification on a cancelled future's waker"
    );
    // A fresh future still sees the value immediately.
    assert_eq!(block_on(rx.recv()), Ok(5));
}

#[test]
fn cancelled_future_forwards_a_consumed_notification() {
    // The nasty middle case: a notification *already took* the future's
    // waker when the future is cancelled.  The drop must forward the wake to
    // the other parked receiver, or the sent value sits unobserved forever.
    let (mut tx, rx) = async_pair(ChannelBackend::Unbounded);
    let mut rx1 = rx; // attached first: notify_one picks this slot first
    let mut rx2 = rx1.clone();
    let (count1, waker1) = counting_waker();
    let (count2, waker2) = counting_waker();
    let mut cx1 = Context::from_waker(&waker1);
    let mut cx2 = Context::from_waker(&waker2);

    let mut fut1 = rx1.recv();
    assert!(matches!(Pin::new(&mut fut1).poll(&mut cx1), Poll::Pending));
    let mut fut2 = rx2.recv();
    assert!(matches!(Pin::new(&mut fut2).poll(&mut cx2), Poll::Pending));

    tx.try_send(42).unwrap();
    assert_eq!(count1.0.load(SeqCst), 1, "the send woke the first receiver");
    assert_eq!(count2.0.load(SeqCst), 0);

    // The first receiver's task is cancelled before it re-polls (select! /
    // timeout shape).  Its consumed notification must not be swallowed.
    drop(fut1);
    assert_eq!(
        count2.0.load(SeqCst),
        1,
        "cancelling a notified future forwards the wake to the other parked receiver"
    );
    assert!(matches!(
        Pin::new(&mut fut2).poll(&mut cx2),
        Poll::Ready(Ok(42))
    ));
}

#[test]
fn async_round_trip_works_on_every_backend() {
    for backend in [ChannelBackend::Bounded, ChannelBackend::Unbounded] {
        let (tx, rx) = async_pair(backend);
        let (mut tx, mut rx) = (tx, rx);
        block_on(async {
            for i in 0..200 {
                tx.send(i).await.unwrap();
                assert_eq!(rx.recv().await, Ok(i), "backend {backend:?}");
            }
            tx.close();
            assert_eq!(rx.recv().await, Err(RecvError), "backend {backend:?}");
        });
    }
}

#[test]
fn cross_thread_pipeline_has_bounded_poll_and_wake_counts() {
    const ITEMS: u64 = 2_000;
    let (tx, rx) = async_pair(ChannelBackend::Unbounded);

    let producer = std::thread::spawn(move || {
        let mut tx = tx;
        block_on(async move {
            for i in 0..ITEMS {
                tx.send(i).await.unwrap();
            }
            // Dropping tx closes the channel and wakes the consumer out of
            // its final park.
        })
    });

    let instr = CountingInstrument::new();
    let sum = block_on_instrumented(
        async move {
            let mut rx = rx;
            let mut sum = 0u64;
            while let Ok(v) = rx.recv().await {
                sum += v;
            }
            sum
        },
        &instr,
    );
    producer.join().unwrap();
    let snap = instr.snapshot();
    let (polls, wakes) = (snap.get(Counter::ExecPolls), snap.get(Counter::ExecWakes));

    assert_eq!(
        sum,
        (0..ITEMS).sum::<u64>(),
        "exact drain through the close"
    );
    // Busy-spinning would poll orders of magnitude more often than once per
    // item: each recv takes one poll when a value is ready, plus a park/wake
    // pair when the producer falls behind.  The close adds one final wake.
    let bound = 3 * ITEMS + 16;
    assert!(
        polls <= bound,
        "parked consumer must not busy-poll: {polls} polls for {ITEMS} items"
    );
    assert!(
        wakes <= ITEMS + 8,
        "at most one wake per send plus the close: {wakes} wakes"
    );
}

#[test]
fn async_batch_round_trip_works_on_every_backend() {
    for backend in [ChannelBackend::Bounded, ChannelBackend::Unbounded] {
        let (tx, rx) = async_pair(backend);
        let (mut tx, mut rx) = (tx, rx);
        block_on(async {
            // One task sends then receives, so the whole batch must fit the
            // bounded backend's 2^6 ring — a bigger batch would park the
            // sender with no receiver running.
            assert_eq!(tx.send_iter(0..48).await, Ok(48), "backend {backend:?}");
            let mut out = Vec::new();
            while out.len() < 48 {
                let mut batch = Vec::new();
                let got = rx.recv_many(&mut batch, 16).await.unwrap();
                assert!(got >= 1);
                out.extend(batch);
            }
            assert_eq!(out, (0..48).collect::<Vec<_>>(), "backend {backend:?}");
            tx.close();
            let mut batch = Vec::new();
            assert_eq!(
                rx.recv_many(&mut batch, 16).await,
                Err(RecvError),
                "backend {backend:?}"
            );
        });
    }
}

#[test]
fn parked_recv_many_is_woken_by_a_batch_send() {
    let (mut tx, mut rx) = async_pair(ChannelBackend::Unbounded);
    let (count, waker) = counting_waker();
    let mut cx = Context::from_waker(&waker);

    let mut out = Vec::new();
    let mut fut = rx.recv_many(&mut out, 8);
    assert!(
        matches!(Pin::new(&mut fut).poll(&mut cx), Poll::Pending),
        "empty channel parks the batch receiver"
    );
    assert_eq!(count.0.load(SeqCst), 0, "parked, not spinning");

    block_on(tx.send_iter(0..5)).unwrap();
    assert!(
        count.0.load(SeqCst) >= 1,
        "a batch send wakes the parked batch receiver"
    );
    assert!(matches!(
        Pin::new(&mut fut).poll(&mut cx),
        Poll::Ready(Ok(5))
    ));
    drop(fut);
    assert_eq!(out, vec![0, 1, 2, 3, 4]);
}

#[test]
fn async_send_iter_suspends_on_a_full_bounded_backend() {
    let (mut tx, mut rx) = wcq::builder()
        .capacity_order(1) // capacity 2, two endpoints
        .threads(2)
        .backend(ChannelBackend::Bounded)
        .build_async::<u64>();
    let (count, waker) = counting_waker();
    let mut cx = Context::from_waker(&waker);

    // 6 values through a 2-slot channel: the future must suspend (not spin)
    // every time the backend fills, and resume per receive.
    let mut fut = tx.send_iter(0..6);
    let mut received = Vec::new();
    loop {
        match Pin::new(&mut fut).poll(&mut cx) {
            Poll::Ready(res) => {
                assert_eq!(res, Ok(6));
                break;
            }
            Poll::Pending => {
                let woken_before = count.0.load(SeqCst);
                received.push(rx.try_recv().expect("sender parked on full"));
                assert!(
                    count.0.load(SeqCst) > woken_before,
                    "a receive wakes the parked batch sender"
                );
            }
        }
    }
    drop(fut);
    while let Ok(v) = rx.try_recv() {
        received.push(v);
    }
    assert_eq!(received, (0..6).collect::<Vec<_>>());
}

#[test]
fn async_send_iter_after_close_returns_the_remainder() {
    let (mut tx, rx) = async_pair(ChannelBackend::Unbounded);
    rx.close();
    let err = block_on(tx.send_iter(vec![1, 2, 3])).unwrap_err();
    assert_eq!(err.0, vec![1, 2, 3], "nothing was enqueued post-close");
}

#[test]
fn sync_and_async_endpoints_interoperate() {
    let (tx, rx) = wcq::builder().threads(4).build_channel::<u64>();
    // Upgrade the receiver to async, keep the sender sync.
    let mut arx: wcq::AsyncReceiver<u64> = rx.into();
    let mut tx = tx;
    tx.send(9).unwrap();
    assert_eq!(block_on(arx.recv()), Ok(9));
    // And back down: the async layer strips off without closing the channel.
    let mut rx = arx.into_sync();
    tx.send(10).unwrap();
    assert_eq!(rx.recv(), Ok(10));
    assert!(!rx.is_closed());
}
