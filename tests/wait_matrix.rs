//! The attempts × drivers matrix of the wait core (`src/wait.rs`; DESIGN.md,
//! "Wait core: attempts × drivers").
//!
//! Twelve waiting operations are five attempts under two drivers — the task
//! driver, and the thread driver with or without a deadline.  All twelve
//! share one protocol — the `Parked` guard's — and this suite checks it cell
//! by cell, so a regression in the one copy shows up under the name of the
//! operation it breaks:
//!
//! * **`poll_task` × each of the five attempts** (`send`, `send_iter`,
//!   `recv`, `recv_many`, `recv_any`), hand-polled with counting wakers so
//!   wake delivery is exactly observable: (a) the wait completes on re-poll
//!   after a wake and leaves no waker behind, (b) dropped after its waker
//!   was consumed it forwards the notification to a parked sibling, (c)
//!   dropped while still parked it leaves no stale waker.
//! * **`wait_thread(deadline)` × its three attempts** (`recv_timeout`,
//!   `send_timeout`, `recv_any_timeout`): a timeout that races a notification
//!   forwards it.  The racing window — after the wait's last re-park, before
//!   it settles — cannot be forced from outside (`src/wait.rs`'s unit tests
//!   force it on a bare lane), so these cells race a wait just long enough to
//!   park against one notification per round, aimed at the instant it times
//!   out, and assert what the forward guarantees: a long-parked sibling is
//!   never left asleep next to the value (or free slot) the notification
//!   announced.
//! * **`wait_thread`, the win after a re-park**: two notifications in a row
//!   against two long-parked waiters.  The second can pick the waiter the
//!   first already woke, after its re-park and before its winning re-check;
//!   that wait succeeds *and* must forward (`src/wait.rs`'s unit tests force
//!   the same window deterministically, on a bare lane).
//! * **`wait_thread(no deadline)` × its four attempts** (`recv`,
//!   `recv_many`, `send`, `send_iter`): these cells held no parked state
//!   while the blocking operations only spun; now they park once their spin
//!   budget is spent, so they owe the same protocol.  *K* waiters blocked
//!   until all are in the registry, then exactly *K* notifications: all *K*
//!   return — nobody is stranded next to a value, which takes the
//!   win-after-re-park forward whenever two of the notifications pick the
//!   same waiter — and a close ends every parked waiter with `Closed`.

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

use wcq::channel::{RecvTimeoutError, SendTimeoutError};
use wcq::{
    AsyncReceiver, AsyncSender, ChannelBackend, Counter, CountingInstrument, Receiver, Sender,
};

// --------------------------------------------------------------------------
// poll_task × five attempts
// --------------------------------------------------------------------------

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
    let waker = Waker::from(Arc::clone(&count));
    (count, waker)
}

/// One wait of a cell, boxed so every row has the same shape.  Resolves
/// `true` when the operation went through (not `Closed`).
type Wait<'a> = Pin<Box<dyn Future<Output = bool> + 'a>>;

fn poll_once(wait: &mut Wait<'_>, waker: &Waker) -> Poll<bool> {
    wait.as_mut().poll(&mut Context::from_waker(waker))
}

/// One row of the matrix: how to build the cell's channel in the state where
/// the attempt has to wait, how to start a wait, and how the other side
/// notifies (each call lets exactly one waiter finish and wakes one).
///
/// `rig` returns the waiting side twice — the endpoint attached first (the
/// one a wake-one picks while both are parked) and its sibling — plus the
/// notifying endpoint.
struct Row {
    name: &'static str,
    run: Box<dyn Fn(Case)>,
}

#[derive(Debug, Clone, Copy)]
enum Case {
    CompletesAfterWake,
    DroppedAfterWakeForwards,
    DroppedWhileParkedLeavesNothing,
}

fn row<E: 'static, N: 'static>(
    name: &'static str,
    rig: fn() -> (E, E, N),
    wait: for<'a> fn(&'a mut E) -> Wait<'a>,
    notify: fn(&mut N),
) -> Row {
    let run = move |case| {
        let (mut first, mut sibling, mut notifier) = rig();
        let (count, waker) = counting_waker();
        let woken = || count.0.load(SeqCst);
        match case {
            Case::CompletesAfterWake => {
                let mut w = wait(&mut first);
                assert!(poll_once(&mut w, &waker).is_pending(), "{name}: must wait");
                assert_eq!(woken(), 0, "{name}: parked, not spinning");
                notify(&mut notifier);
                assert_eq!(woken(), 1, "{name}: one notification, one wake");
                assert_eq!(poll_once(&mut w, &waker), Poll::Ready(true), "{name}");
                drop(w);
                // The finished wait cleared its slot: a second notification
                // finds nobody parked instead of burning itself on it.
                notify(&mut notifier);
                assert_eq!(woken(), 1, "{name}: left no waker behind");
            }
            Case::DroppedAfterWakeForwards => {
                let (sibling_count, sibling_waker) = counting_waker();
                let mut s = wait(&mut sibling);
                assert!(poll_once(&mut s, &sibling_waker).is_pending(), "{name}");
                let mut w = wait(&mut first);
                assert!(poll_once(&mut w, &waker).is_pending(), "{name}");
                notify(&mut notifier);
                assert_eq!(woken(), 1, "{name}: the first-attached waiter is chosen");
                assert_eq!(sibling_count.0.load(SeqCst), 0, "{name}");
                // Cancelled with a consumed, un-acted-on notification.
                drop(w);
                assert_eq!(
                    sibling_count.0.load(SeqCst),
                    1,
                    "{name}: the consumed notification is forwarded to the sibling"
                );
                assert_eq!(
                    poll_once(&mut s, &sibling_waker),
                    Poll::Ready(true),
                    "{name}"
                );
            }
            Case::DroppedWhileParkedLeavesNothing => {
                let mut w = wait(&mut first);
                assert!(poll_once(&mut w, &waker).is_pending(), "{name}");
                drop(w);
                notify(&mut notifier);
                assert_eq!(woken(), 0, "{name}: cancelled wait left no waker behind");
                // What the notification announced is still there to take.
                let mut again = wait(&mut first);
                assert_eq!(poll_once(&mut again, &waker), Poll::Ready(true), "{name}");
            }
        }
    };
    Row {
        name,
        run: Box::new(run),
    }
}

/// Two async receivers on one empty channel, and its sender.
fn empty_channel() -> (AsyncReceiver<u64>, AsyncReceiver<u64>, AsyncSender<u64>) {
    let (tx, rx) = wcq::builder().threads(6).build_async::<u64>();
    let sibling = rx.clone();
    (rx, sibling, tx)
}

/// Two async senders on one full bounded channel, and its receiver.
fn full_channel() -> (AsyncSender<u64>, AsyncSender<u64>, AsyncReceiver<u64>) {
    let (mut tx, rx) = wcq::builder()
        .capacity_order(2) // capacity 4: room for the three endpoints' handles
        .threads(4)
        .backend(ChannelBackend::Bounded)
        .build_async::<u64>();
    for v in 0..4 {
        tx.try_send(v).unwrap();
    }
    let sibling = tx.clone();
    (tx, sibling, rx)
}

fn send_one(tx: &mut AsyncSender<u64>) {
    tx.try_send(7).expect("the channel has room");
}

fn recv_one(rx: &mut AsyncReceiver<u64>) {
    rx.try_recv().expect("the channel holds a value");
}

fn wait_send(tx: &mut AsyncSender<u64>) -> Wait<'_> {
    Box::pin(async move { tx.send(9).await.is_ok() })
}

fn wait_send_iter(tx: &mut AsyncSender<u64>) -> Wait<'_> {
    Box::pin(async move { tx.send_iter([9]).await == Ok(1) })
}

fn wait_recv(rx: &mut AsyncReceiver<u64>) -> Wait<'_> {
    Box::pin(async move { rx.recv().await.is_ok() })
}

fn wait_recv_many(rx: &mut AsyncReceiver<u64>) -> Wait<'_> {
    Box::pin(async move {
        let mut out = Vec::new();
        rx.recv_many(&mut out, 4).await == Ok(1) && out.len() == 1
    })
}

/// A select over the lane under test and an idle, open second lane: whatever
/// the select leaves behind on the first lane is the scan's doing.
fn wait_recv_any(rx: &mut AsyncReceiver<u64>) -> Wait<'_> {
    Box::pin(async move {
        let (_idle_tx, mut idle_rx) = wcq::builder().threads(2).build_async::<u64>();
        let mut lanes = [rx, &mut idle_rx];
        matches!(wcq::recv_any(&mut lanes).await, Ok((0, _)))
    })
}

#[test]
fn every_attempt_under_the_task_driver_keeps_the_park_protocol() {
    let table = [
        row("try_send × poll_task", full_channel, wait_send, recv_one),
        row(
            "try_send_batch × poll_task",
            full_channel,
            wait_send_iter,
            recv_one,
        ),
        row("try_recv × poll_task", empty_channel, wait_recv, send_one),
        row(
            "try_recv_many × poll_task",
            empty_channel,
            wait_recv_many,
            send_one,
        ),
        row(
            "lane scan × poll_task",
            empty_channel,
            wait_recv_any,
            send_one,
        ),
    ];
    // Run every cell even after one fails, so a regression in the one copy
    // of the protocol is reported under the name of each operation it breaks.
    let mut failed = Vec::new();
    for row in &table {
        for case in [
            Case::CompletesAfterWake,
            Case::DroppedAfterWakeForwards,
            Case::DroppedWhileParkedLeavesNothing,
        ] {
            let cell = std::panic::AssertUnwindSafe(|| (row.run)(case));
            if std::panic::catch_unwind(cell).is_err() {
                failed.push(format!("{} / {case:?}", row.name));
            }
        }
    }
    assert!(failed.is_empty(), "cells failed: {failed:#?}");
}

// --------------------------------------------------------------------------
// wait_thread(deadline) × three attempts
// --------------------------------------------------------------------------

/// How long the sibling parks: far beyond any scheduling hiccup, so only a
/// swallowed notification can make it expire.
const SIBLING_WAIT: Duration = Duration::from_secs(20);
/// How long the notifier waits for *someone* to act on a notification.
const STRANDED_AFTER: Duration = Duration::from_secs(5);
const ROUNDS: u64 = 2_000;
/// `src/wait.rs`'s private `SPIN_BEFORE_PARK`, which times the racing cells
/// ([`the_racing_cells_are_timed_by_the_real_spin_budget`] pins it).
const SPIN_BUDGET: Duration = Duration::from_micros(50);
/// The racer's timeout: the shortest wait that reaches the registry.  A
/// shorter one — a zero timeout above all — times out from its spin phase
/// with nothing parked, and a wait that parked nothing has nothing to
/// forward.  This one leaves its spin phase with no time left to sleep: it
/// parks, re-checks and times out, [`SPIN_BUDGET`] after it began — an instant
/// the notifier can aim at.
const PARKS_BRIEFLY: Duration = SPIN_BUDGET.saturating_add(Duration::from_nanos(100));
/// The notification goes out this long, at most, after the racer's spin
/// budget ran out: from before its park to after it has settled.
const SWEEP_NANOS: u64 = 3_000;

/// A pseudo-random number below `bound` (an LCG stepped in `state`).
fn seeded_below(state: &mut u64, bound: u64) -> u64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
    (*state >> 33) % bound
}

/// Spins for a pseudo-random number of spin-loop iterations below `bound`:
/// the seeded gap that sweeps a notification across the window a cell is
/// after.
fn jittered_gap(state: &mut u64, bound: u64) {
    for _ in 0..seeded_below(state, bound) {
        std::hint::spin_loop();
    }
}

/// The racing cells below are blind if their racer never parks, which is
/// what a spin budget other than the one they assume would make of them.
#[test]
fn the_racing_cells_are_timed_by_the_real_spin_budget() {
    let instr = CountingInstrument::new();
    let (_tx, mut rx) = wcq::builder()
        .threads(2)
        .instrument(instr.clone())
        .build_channel::<u64>();
    let parks = || instr.counters().get(Counter::ChannelParks);
    let just_under = SPIN_BUDGET - Duration::from_micros(1);
    assert_eq!(rx.recv_timeout(just_under), Err(RecvTimeoutError::Timeout));
    assert_eq!(
        parks(),
        0,
        "a {just_under:?} wait parked: the driver's budget is below SPIN_BUDGET"
    );
    assert_eq!(
        rx.recv_timeout(PARKS_BRIEFLY),
        Err(RecvTimeoutError::Timeout)
    );
    assert!(
        parks() >= 1,
        "a {PARKS_BRIEFLY:?} wait never parked: the driver's budget is above SPIN_BUDGET"
    );
}

/// What one timed wait came to.
enum Waited {
    Done,
    TimedOut,
    Closed,
}

/// Races a [`PARKS_BRIEFLY`] wait (`racer`, on the first-attached endpoint)
/// against one notification per round, with a sibling parked for
/// [`SIBLING_WAIT`] on the same side.  Every notification must be acted on by
/// one of the two, promptly: if the racer times out on a waker a notification
/// already consumed and does not forward it, the sibling sleeps on next to
/// the value.  (With the forward in `Parked::settle` taken out, 5–10 rounds in
/// a thousand strand.)
///
/// `racer` and `sibling` perform one wait of the given timeout; `notify`
/// lets exactly one waiter finish; `close` ends the sibling's last wait.
fn race_timeouts_against_notifications(
    name: &str,
    mut racer: impl FnMut(Duration) -> Waited + Send,
    mut sibling: impl FnMut(Duration) -> Waited + Send,
    mut notify: impl FnMut(),
    close: impl FnOnce(),
) {
    // Rounds completed by the racer and by the sibling.
    let done = [AtomicU64::new(0), AtomicU64::new(0)];
    let all_done = || done[0].load(SeqCst) + done[1].load(SeqCst);
    // Spin rendezvous (a `Barrier`'s futex wake would land the racer tens of
    // microseconds late): the racer announces it is ready for round `i`, the
    // notifier releases round `i`.  `u64::MAX` releases the racer for good.
    let ready = AtomicU64::new(0);
    let go = AtomicU64::new(0);
    let mut stranded = None;
    std::thread::scope(|s| {
        s.spawn(|| {
            for i in 1.. {
                ready.store(i, SeqCst);
                while go.load(SeqCst) < i {
                    std::hint::spin_loop();
                }
                if go.load(SeqCst) == u64::MAX {
                    return;
                }
                if let Waited::Done = racer(PARKS_BRIEFLY) {
                    done[0].fetch_add(1, SeqCst);
                }
            }
        });
        s.spawn(|| loop {
            match sibling(SIBLING_WAIT) {
                Waited::Done => done[1].fetch_add(1, SeqCst),
                Waited::TimedOut => panic!("{name}: the sibling slept through a notification"),
                Waited::Closed => return,
            };
        });
        let mut jitter = 0x9E37_79B9_7F4A_7C15_u64;
        let mut rounds = 0;
        while rounds < ROUNDS && stranded.is_none() {
            rounds += 1;
            while ready.load(SeqCst) < rounds {
                std::hint::spin_loop();
            }
            let released = Instant::now();
            go.store(rounds, SeqCst);
            // Sweep the notification across the racer's time-out: anywhere
            // from its last spin to after it has settled.
            let sweep = Duration::from_nanos(seeded_below(&mut jitter, SWEEP_NANOS));
            while released.elapsed() < SPIN_BUDGET + sweep {
                std::hint::spin_loop();
            }
            notify();
            let sent = Instant::now();
            while all_done() < rounds && stranded.is_none() {
                if sent.elapsed() > STRANDED_AFTER {
                    stranded = Some(rounds);
                }
                std::thread::yield_now();
            }
        }
        go.store(u64::MAX, SeqCst);
        close();
    });
    assert_eq!(
        stranded, None,
        "{name}: a notification was swallowed — nobody acted on it within {STRANDED_AFTER:?}"
    );
    assert_eq!(all_done(), ROUNDS, "{name}: one completion per round");
    // The sweep straddled the racer's time-out: some notifications came early
    // enough for the racer to take, others found only the sibling parked.
    for (who, done) in ["racer", "sibling"].iter().zip(&done) {
        assert_ne!(done.load(SeqCst), 0, "{name}: the {who} took no round");
    }
}

fn waited<T>(outcome: Result<T, RecvTimeoutError>) -> Waited {
    match outcome {
        Ok(_) => Waited::Done,
        Err(RecvTimeoutError::Timeout) => Waited::TimedOut,
        Err(RecvTimeoutError::Closed) => Waited::Closed,
    }
}

/// A sync channel with two receivers whose wait slots are attached in a known
/// order: `first`'s, then `sibling`'s (a wait that parks attaches the
/// slot), so a wake-one picks `first` whenever both are parked.
fn two_attached_receivers() -> (Sender<u64>, Receiver<u64>, Receiver<u64>) {
    let (tx, mut first) = wcq::builder().threads(6).build_channel::<u64>();
    let mut sibling = first.clone();
    for rx in [&mut first, &mut sibling] {
        assert_eq!(
            rx.recv_timeout(PARKS_BRIEFLY),
            Err(RecvTimeoutError::Timeout)
        );
    }
    (tx, first, sibling)
}

fn recv_timeout_racing_a_send() {
    let (mut tx, mut first, mut sibling) = two_attached_receivers();
    let closer = tx.clone();
    race_timeouts_against_notifications(
        "try_recv × wait_thread",
        |timeout| waited(first.recv_timeout(timeout)),
        |timeout| waited(sibling.recv_timeout(timeout)),
        || tx.try_send(7).unwrap(),
        || {
            closer.close();
        },
    );
}

fn recv_any_timeout_racing_a_send() {
    let (mut tx, mut first, mut sibling) = two_attached_receivers();
    let (_idle_tx, mut idle) = wcq::builder().threads(2).build_channel::<u64>();
    let closer = tx.clone();
    race_timeouts_against_notifications(
        "lane scan × wait_thread",
        |timeout| waited(wcq::recv_any_timeout(&mut [&mut first, &mut idle], timeout)),
        |timeout| waited(sibling.recv_timeout(timeout)),
        || tx.try_send(7).unwrap(),
        || {
            closer.close();
        },
    );
}

/// A full bounded sync channel with two senders whose wait slots are
/// attached in a known order — `first`'s, then `sibling`'s — and its receiver.
fn two_attached_senders() -> (Sender<u64>, Sender<u64>, Receiver<u64>) {
    let (mut first, rx) = wcq::builder()
        .capacity_order(2) // capacity 4: room for the three endpoints' handles
        .threads(4)
        .backend(ChannelBackend::Bounded)
        .build_channel::<u64>();
    for v in 0..4 {
        first.try_send(v).unwrap();
    }
    let mut sibling = first.clone();
    for tx in [&mut first, &mut sibling] {
        assert_eq!(
            tx.send_timeout(0, PARKS_BRIEFLY),
            Err(SendTimeoutError::Timeout(0))
        );
    }
    (first, sibling, rx)
}

fn send_waited(tx: &mut Sender<u64>, timeout: Duration) -> Waited {
    match tx.send_timeout(9, timeout) {
        Ok(()) => Waited::Done,
        Err(SendTimeoutError::Timeout(_)) => Waited::TimedOut,
        Err(SendTimeoutError::Closed(_)) => Waited::Closed,
    }
}

fn send_timeout_racing_a_receive() {
    let (mut first, mut sibling, mut rx) = two_attached_senders();
    let closer = first.clone();
    race_timeouts_against_notifications(
        "try_send × wait_thread",
        |timeout| send_waited(&mut first, timeout),
        |timeout| send_waited(&mut sibling, timeout),
        || {
            rx.try_recv().expect("the channel is full between rounds");
        },
        || {
            closer.close();
        },
    );
}

/// The three cells run one after the other: each keeps two threads spinning
/// on the rendezvous, and more than one pair at a time would push them off
/// the cores and out of alignment.
#[test]
fn a_timeout_racing_a_notification_forwards_it_under_every_thread_driver_attempt() {
    recv_timeout_racing_a_send();
    send_timeout_racing_a_receive();
    recv_any_timeout_racing_a_send();
}

/// Rounds of the two-sends race; the window is a few instructions wide and
/// is hit in 1–2 % of the rounds on a 2-vCPU box.
const PAIR_ROUNDS: u64 = 3_000;
/// Upper bound of the gap between a round's two sends, in spin-loop
/// iterations: about the time a woken waiter needs to run again and re-park.
const PAIR_GAP_SPINS: u64 = 4_000;

/// Two long-parked waiters, two back-to-back notifications per round, each
/// waiter finishing exactly one wait per round.  The thread driver re-parks
/// every time it wakes, so the second notification's wake-one can land on
/// the waiter the first one already woke (`first`, the earliest-attached) in
/// the window after its re-park and before it settles.  That waiter then
/// *wins* — it takes the first value — holding a freshly consumed waker for
/// a value it will not take: the notification must be forwarded even though
/// the wait succeeded, or the sibling sleeps on next to the second value.
///
/// `waiters` are one long wait each on the lane under test (`first`'s, then
/// `sibling`'s); `notify` lets exactly one waiter finish; `close` ends them.
fn race_two_notifications_against_two_parked_waiters(
    name: &str,
    waiters: [Box<dyn FnMut(Duration) -> Waited + Send + '_>; 2],
    mut notify: impl FnMut(),
    close: impl FnOnce(),
) {
    let done = AtomicU64::new(0);
    let go = AtomicU64::new(0);
    let mut stranded = None;
    std::thread::scope(|s| {
        for mut wait in waiters {
            let (done, go) = (&done, &go);
            s.spawn(move || {
                for round in 1.. {
                    while go.load(SeqCst) < round {
                        std::thread::yield_now();
                    }
                    match wait(SIBLING_WAIT) {
                        Waited::Done => done.fetch_add(1, SeqCst),
                        Waited::TimedOut => {
                            panic!("{name}: a waiter slept through a notification")
                        }
                        Waited::Closed => return,
                    };
                }
            });
        }
        let mut jitter = 0x9E37_79B9_7F4A_7C15_u64;
        for round in 1..=PAIR_ROUNDS {
            go.store(round, SeqCst);
            // Let both waiters park before the pair goes out.
            std::thread::sleep(Duration::from_micros(20));
            notify();
            jittered_gap(&mut jitter, PAIR_GAP_SPINS);
            notify();
            let sent = Instant::now();
            while done.load(SeqCst) < 2 * round && stranded.is_none() {
                if sent.elapsed() > STRANDED_AFTER {
                    stranded = Some(round);
                }
                std::thread::yield_now();
            }
            if stranded.is_some() {
                break;
            }
        }
        go.store(u64::MAX, SeqCst);
        close();
    });
    assert_eq!(
        stranded, None,
        "{name}: a waiter that won swallowed the next notification — its sibling \
         slept on next to what it announced for {STRANDED_AFTER:?}"
    );
}

#[test]
fn a_win_after_a_re_park_forwards_the_next_notification() {
    let (mut tx, mut first, mut sibling) = two_attached_receivers();
    let closer = tx.clone();
    race_two_notifications_against_two_parked_waiters(
        "try_recv × wait_thread",
        [
            Box::new(|timeout| waited(first.recv_timeout(timeout))),
            Box::new(|timeout| waited(sibling.recv_timeout(timeout))),
        ],
        || tx.try_send(7).unwrap(),
        || {
            closer.close();
        },
    );

    let (mut first, mut sibling, mut rx) = two_attached_senders();
    let closer = first.clone();
    race_two_notifications_against_two_parked_waiters(
        "try_send × wait_thread",
        [
            Box::new(|timeout| send_waited(&mut first, timeout)),
            Box::new(|timeout| send_waited(&mut sibling, timeout)),
        ],
        || {
            rx.try_recv().expect("the channel is full between rounds");
        },
        || {
            closer.close();
        },
    );

    let (mut tx, mut first, mut sibling) = two_attached_receivers();
    let (idle_tx, mut idle) = wcq::builder().threads(2).build_channel::<u64>();
    let closer = tx.clone();
    race_two_notifications_against_two_parked_waiters(
        "lane scan × wait_thread",
        [
            Box::new(|timeout| {
                waited(wcq::recv_any_timeout(&mut [&mut first, &mut idle], timeout))
            }),
            Box::new(|timeout| waited(sibling.recv_timeout(timeout))),
        ],
        || tx.try_send(7).unwrap(),
        || {
            closer.close();
            idle_tx.close();
        },
    );
}

// --------------------------------------------------------------------------
// wait_thread(no deadline) × four attempts
// --------------------------------------------------------------------------

const BLOCKED_WAITERS: usize = 3;
const BLOCKED_ROUNDS: u64 = 1000;

type Counted<E> = (E, CountingInstrument);
type CountedSender = Sender<u64, CountingInstrument>;
type CountedReceiver = Receiver<u64, CountingInstrument>;

/// Per round: every waiter starts one blocking wait; once all of them are in
/// the registry (`ChannelParks` moved by one per waiter — their spin phase is
/// over), exactly one notification per waiter goes out, and every wait must
/// return.  The notifications are spaced like the pair race above, so a
/// later one can pick a waiter an earlier one already woke, between its
/// re-park and its winning re-check.  After the last round they all park
/// once more and a close must end each of them with `Closed`.
///
/// `wait` performs one blocking wait; `notify` lets exactly one waiter
/// finish; `close` closes the channel.
fn parked_blocking_waiters_each_take_one_notification<E: Send>(
    name: &str,
    (waiters, instr): Counted<Vec<E>>,
    wait: impl Fn(&mut E) -> Waited + Sync,
    mut notify: impl FnMut(),
    close: impl FnOnce(),
) {
    let k = waiters.len() as u64;
    let parks = || instr.counters().get(Counter::ChannelParks);
    let done = AtomicU64::new(0);
    let go = AtomicU64::new(0);
    let within_limit = |reached: &dyn Fn() -> bool| {
        let since = Instant::now();
        while !reached() {
            if since.elapsed() > STRANDED_AFTER {
                return false;
            }
            std::thread::yield_now();
        }
        true
    };
    let mut stranded = None;
    std::thread::scope(|s| {
        for mut waiter in waiters {
            let (done, go, wait) = (&done, &go, &wait);
            s.spawn(move || {
                for round in 1.. {
                    while go.load(SeqCst) < round {
                        std::thread::yield_now();
                    }
                    match wait(&mut waiter) {
                        Waited::Done => done.fetch_add(1, SeqCst),
                        Waited::TimedOut => unreachable!("{name}: the wait has no deadline"),
                        Waited::Closed => return,
                    };
                }
            });
        }
        let mut jitter = 0x9E37_79B9_7F4A_7C15_u64;
        for round in 1..=BLOCKED_ROUNDS + 1 {
            let parked_before = parks();
            go.store(round, SeqCst);
            if !within_limit(&|| parks() >= parked_before + k) {
                stranded = Some(format!("round {round}: the waiters never parked"));
                break;
            }
            if round > BLOCKED_ROUNDS {
                break; // all parked: the close below ends them
            }
            for _ in 0..k {
                notify();
                jittered_gap(&mut jitter, PAIR_GAP_SPINS);
            }
            if !within_limit(&|| done.load(SeqCst) == k * round) {
                stranded = Some(format!(
                    "round {round}: {k} notifications, {} waits returned — a parked \
                     waiter was left next to what one of them announced",
                    done.load(SeqCst) - k * (round - 1)
                ));
                break;
            }
        }
        // On a failure too, so the scope can join the waiters: whoever is not
        // in a wait starts one and finds the channel closed.
        go.store(u64::MAX, SeqCst);
        close();
    });
    assert_eq!(stranded, None, "{name}");
    assert_eq!(done.load(SeqCst), k * BLOCKED_ROUNDS, "{name}");
}

/// [`BLOCKED_WAITERS`] receivers on one empty counted channel, and its sender.
fn blocked_receivers() -> (Counted<Vec<CountedReceiver>>, CountedSender) {
    let instr = CountingInstrument::new();
    let (tx, rx) = wcq::builder()
        .threads(BLOCKED_WAITERS + 2)
        .instrument(instr.clone())
        .build_channel::<u64>();
    let mut rxs: Vec<_> = (1..BLOCKED_WAITERS).map(|_| rx.clone()).collect();
    rxs.push(rx);
    ((rxs, instr), tx)
}

/// [`BLOCKED_WAITERS`] senders on one full bounded counted channel, and its
/// receiver.
fn blocked_senders() -> (Counted<Vec<CountedSender>>, CountedReceiver) {
    let instr = CountingInstrument::new();
    let (mut tx, rx) = wcq::builder()
        .capacity_order(2) // capacity 4: room for the four endpoints' handles
        .threads(BLOCKED_WAITERS + 1)
        .backend(ChannelBackend::Bounded)
        .instrument(instr.clone())
        .build_channel::<u64>();
    for v in 0..4 {
        tx.try_send(v).unwrap();
    }
    let mut txs: Vec<_> = (1..BLOCKED_WAITERS).map(|_| tx.clone()).collect();
    txs.push(tx);
    ((txs, instr), rx)
}

fn blocked<T, E>(outcome: Result<T, E>) -> Waited {
    match outcome {
        Ok(_) => Waited::Done,
        Err(_) => Waited::Closed,
    }
}

/// One cell after the other, as above: each keeps its waiters and the
/// notifier busy on a two-core box.
#[test]
fn parked_blocking_waits_each_take_one_notification_and_a_close_ends_them_all() {
    let (receivers, mut tx) = blocked_receivers();
    let closer = tx.clone();
    parked_blocking_waiters_each_take_one_notification(
        "try_recv × wait_thread (no deadline)",
        receivers,
        |rx| blocked(rx.recv()),
        || tx.try_send(7).unwrap(),
        || {
            closer.close();
        },
    );

    // One value per call, so one notification serves exactly one waiter.
    let (receivers, mut tx) = blocked_receivers();
    let closer = tx.clone();
    parked_blocking_waiters_each_take_one_notification(
        "try_recv_many × wait_thread (no deadline)",
        receivers,
        |rx| blocked(rx.recv_many(&mut Vec::new(), 1)),
        || tx.try_send(7).unwrap(),
        || {
            closer.close();
        },
    );

    let (senders, mut rx) = blocked_senders();
    let closer = rx.clone();
    parked_blocking_waiters_each_take_one_notification(
        "try_send × wait_thread (no deadline)",
        senders,
        |tx| blocked(tx.send(9)),
        || {
            rx.try_recv().expect("the channel is full between rounds");
        },
        || {
            closer.close();
        },
    );

    let (senders, mut rx) = blocked_senders();
    let closer = rx.clone();
    parked_blocking_waiters_each_take_one_notification(
        "try_send_batch × wait_thread (no deadline)",
        senders,
        |tx| blocked(tx.send_iter([9])),
        || {
            rx.try_recv().expect("the channel is full between rounds");
        },
        || {
            closer.close();
        },
    );
}
