//! The wait core: the only code in the library that waits.
//!
//! Every waiting operation of the channel layer is an *attempt × driver*
//! composition built here (DESIGN.md, "Wait core: attempts × drivers", has
//! the twelve-cell table and states the protocol's four invariants once):
//!
//! * an **attempt** is one of the endpoints' non-blocking calls, answering
//!   `Some(output)` when the operation is finished — with a value, with
//!   `Closed`, or with the value handed back — and `None` when it would
//!   have to wait;
//! * a **driver** repeats an attempt until it answers: [`spin`] backs off
//!   between tries, [`Parked::park_thread`] sleeps the calling thread until a
//!   deadline, [`Parked::poll_task`] suspends the polling task.
//!
//! The two parking drivers share one protocol, kept by the [`Parked`] guard:
//! park in every lane *before* the re-check, sleep only after a re-check with
//! the wakers in place, clear our own slots on completion, and forward any
//! notification that consumed our waker without being the one we acted on —
//! on drop or timeout, on a lane we did not win, and on a win that came
//! after a re-park.

use std::sync::atomic::Ordering::SeqCst;
use std::sync::atomic::{AtomicU64, AtomicUsize};
use std::sync::{Arc, Mutex, MutexGuard};
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

use wcq_atomics::Backoff;
use wcq_core::metrics::{Counter, Instrument};

// --------------------------------------------------------------------------
// WakeSide: the parked wakers of one side of one channel
// --------------------------------------------------------------------------

/// The parked wakers of one side (receivers or senders) of one channel: a
/// slot per attached endpoint, holding an arbitrary [`Waker`] — a task's, or
/// a [`thread_waker`] — so one notify path serves the sync and async worlds
/// and one waker can sit in several channels' sides at once (select).
///
/// Notifying is the other side's job: every successful send wakes one parked
/// receiver, every successful receive wakes one parked sender, a close wakes
/// everyone.  Parks and actual wakes are recorded as
/// [`Counter::ChannelParks`] / [`Counter::ChannelWakes`].
///
/// This is the one `Mutex` the `wcq-check` lint admits under `src/` (rule 3
/// is skipped for this file only).  It is off the wait-free path by
/// construction, and the benchmark's ledger shows it: `channel.parks_per_kmsg`
/// is 0 on every `_1t` workload, so `parked` stays 0 and each notify there is
/// one load of it; the lock is only taken once some endpoint has already left
/// the wait-free path to park.
pub(crate) struct WakeSide<I> {
    /// Number of slots currently holding a waker (the notify fast path).
    parked: AtomicUsize,
    /// `(slot id, parked waker)` per attached endpoint, in attach order.
    slots: Mutex<Vec<(u64, Option<Waker>)>>,
    next_id: AtomicU64,
    instrument: I,
}

impl<I: Instrument> WakeSide<I> {
    pub(crate) fn new(instrument: I) -> Self {
        Self {
            parked: AtomicUsize::new(0),
            slots: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(0),
            instrument,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Vec<(u64, Option<Waker>)>> {
        // Every update leaves the vector valid at every step, so a poisoned
        // lock is still safe to use.
        self.slots
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Adds an empty slot and returns its id.
    pub(crate) fn attach(&self) -> u64 {
        let id = self.next_id.fetch_add(1, SeqCst);
        self.lock().push((id, None));
        id
    }

    /// Removes a slot (dropping any waker still parked in it).
    pub(crate) fn detach(&self, id: u64) {
        let mut slots = self.lock();
        if let Some(pos) = slots.iter().position(|(sid, _)| *sid == id) {
            if slots.remove(pos).1.is_some() {
                self.parked.fetch_sub(1, SeqCst);
            }
        }
    }

    /// Parks `waker` in slot `id`, replacing any previous one.
    fn park(&self, id: u64, waker: &Waker) {
        self.instrument.record(Counter::ChannelParks, 1);
        let mut slots = self.lock();
        if let Some((_, slot)) = slots.iter_mut().find(|(sid, _)| *sid == id) {
            if slot.replace(waker.clone()).is_none() {
                self.parked.fetch_add(1, SeqCst);
            }
        }
    }

    /// Clears slot `id` without waking.  Returns whether a waker was actually
    /// removed: `false` for a slot that *was* parked means a notification
    /// consumed the waker and has not been acted on yet.
    fn unpark(&self, id: u64) -> bool {
        if self.parked.load(SeqCst) == 0 {
            return false;
        }
        let mut slots = self.lock();
        if let Some((_, slot)) = slots.iter_mut().find(|(sid, _)| *sid == id) {
            if slot.take().is_some() {
                self.parked.fetch_sub(1, SeqCst);
                return true;
            }
        }
        false
    }

    /// Wakes one parked endpoint, if any (the earliest-attached one).
    pub(crate) fn wake_one(&self) {
        if self.parked.load(SeqCst) == 0 {
            return;
        }
        let woken = self.lock().iter_mut().find_map(|(_, slot)| slot.take());
        if let Some(waker) = woken {
            self.parked.fetch_sub(1, SeqCst);
            self.instrument.record(Counter::ChannelWakes, 1);
            waker.wake();
        }
    }

    /// Wakes every parked endpoint.
    pub(crate) fn wake_all(&self) {
        if self.parked.load(SeqCst) == 0 {
            return;
        }
        let woken: Vec<Waker> = (self.lock().iter_mut())
            .filter_map(|(_, slot)| slot.take())
            .collect();
        if woken.is_empty() {
            return;
        }
        self.parked.fetch_sub(woken.len(), SeqCst);
        self.instrument
            .record(Counter::ChannelWakes, woken.len() as u64);
        for waker in woken {
            waker.wake();
        }
    }
}

// --------------------------------------------------------------------------
// Lanes and the Parked guard
// --------------------------------------------------------------------------

/// An endpoint that can park: the side of its channel it waits on and its
/// slot there (attached on first use).
pub(crate) trait Lane {
    /// The channel's instrumentation strategy.
    type I: Instrument;
    /// `(side, slot id)` of this endpoint.
    fn lane(&mut self) -> (&WakeSide<Self::I>, u64);
}

impl<E: Lane> Lane for &mut E {
    type I = E::I;
    fn lane(&mut self) -> (&WakeSide<E::I>, u64) {
        (**self).lane()
    }
}

/// What an attempt over a lane set answers: `None` to wait, or
/// `Some((winner, output))` when finished — `winner` is the lane whose value
/// (or free slot) the attempt consumed, `None` when it finished without one.
pub(crate) type Answer<O> = Option<(Option<usize>, O)>;

/// The state of one wait: the lanes it parks in, and whether a waker of ours
/// is (or was, until a notification took it) parked in every one of them.
/// Dropping it settles the lanes, so a cancelled future or a timed-out wait
/// needs no cleanup of its own.
pub(crate) struct Parked<'a, E: Lane> {
    lanes: &'a mut [E],
    parked: bool,
}

impl<'a, E: Lane> Parked<'a, E> {
    /// A wait over `lanes`, in priority order.
    pub(crate) fn new(lanes: &'a mut [E]) -> Self {
        Self {
            lanes,
            parked: false,
        }
    }

    /// A wait on one endpoint.
    pub(crate) fn one(lane: &'a mut E) -> Self {
        Self::new(std::slice::from_mut(lane))
    }

    /// Parks a clone of `waker` in every lane (closed ones too: harmless, and
    /// it keeps the settle path uniform).
    fn park(&mut self, waker: &Waker) {
        for lane in self.lanes.iter_mut() {
            let (side, id) = lane.lane();
            side.park(id, waker);
        }
        self.parked = true;
    }

    /// Clears our slot in every lane.  A slot found already empty had its
    /// waker consumed by a notification; unless that lane is `spent_on` — the
    /// notification is the one that woke us for the value we took — it
    /// announced something we did not take, so it is forwarded: a spurious
    /// wake is harmless, a swallowed one strands a parked peer.
    fn settle(&mut self, spent_on: Option<usize>) {
        if !std::mem::take(&mut self.parked) {
            return;
        }
        for (i, lane) in self.lanes.iter_mut().enumerate() {
            let (side, id) = lane.lane();
            if !side.unpark(id) && spent_on != Some(i) {
                side.wake_one();
            }
        }
    }

    /// One attempt; settles the lanes if it finished.  `woken` says no park
    /// came between the wait's last sleep and this attempt, so the only
    /// notification that can have consumed the winning lane's waker is the
    /// one that woke us: it is spent.  After a (re-)park the same emptiness
    /// means a *further* notification arrived while we were taking a value an
    /// earlier one announced, and winning does not excuse forwarding it.
    fn once<O>(
        &mut self,
        attempt: &mut impl FnMut(&mut [E]) -> Answer<O>,
        woken: bool,
    ) -> Option<O> {
        let (winner, output) = attempt(self.lanes)?;
        self.settle(if woken { winner } else { None });
        Some(output)
    }

    /// The task driver: one poll of a future.  `Pending` is only returned
    /// after a re-check with the task's waker parked in every lane, so a
    /// notification that raced ahead of the park cannot be lost.
    pub(crate) fn poll_task<O>(
        &mut self,
        cx: &mut Context<'_>,
        mut attempt: impl FnMut(&mut [E]) -> Answer<O>,
    ) -> Poll<O> {
        if let Some(output) = self.once(&mut attempt, true) {
            return Poll::Ready(output);
        }
        self.park(cx.waker());
        self.once(&mut attempt, false)
            .map_or(Poll::Pending, Poll::Ready)
    }

    /// The thread driver: repeats `attempt` until it answers or `timeout`
    /// passes (`None`; a zero timeout never sleeps), sleeping in between with
    /// a [`thread_waker`] parked in every lane.  A notification racing the
    /// park unparks this thread, so the sleep returns immediately.  Every
    /// round re-parks before it re-checks, so no win here is `woken`.
    pub(crate) fn park_thread<O>(
        mut self,
        timeout: Duration,
        mut attempt: impl FnMut(&mut [E]) -> Answer<O>,
    ) -> Option<O> {
        if let Some(output) = self.once(&mut attempt, false) {
            return Some(output);
        }
        // Overflow saturates to "no deadline".
        let deadline = Instant::now().checked_add(timeout);
        let waker = thread_waker();
        loop {
            self.park(&waker);
            let answer = self.once(&mut attempt, false);
            if answer.is_some() || !park_until(deadline) {
                return answer; // timed out: dropping `self` settles the lanes
            }
        }
    }

    /// [`Parked::poll_task`] for a one-endpoint wait: the sole lane wins
    /// whenever the attempt answers.
    pub(crate) fn poll_one<O>(
        &mut self,
        cx: &mut Context<'_>,
        mut attempt: impl FnMut(&mut E) -> Option<O>,
    ) -> Poll<O> {
        self.poll_task(cx, |lanes| Some((Some(0), attempt(&mut lanes[0])?)))
    }

    /// [`Parked::park_thread`] for a one-endpoint wait.
    pub(crate) fn park_one<O>(
        self,
        timeout: Duration,
        mut attempt: impl FnMut(&mut E) -> Option<O>,
    ) -> Option<O> {
        self.park_thread(timeout, |lanes| Some((Some(0), attempt(&mut lanes[0])?)))
    }
}

impl<E: Lane> Drop for Parked<'_, E> {
    fn drop(&mut self) {
        self.settle(None);
    }
}

// --------------------------------------------------------------------------
// The spin driver and the thread driver's helpers
// --------------------------------------------------------------------------

/// The spin driver: repeats `attempt` until it answers, backing off (bounded
/// spin, then yielding) between tries.  It parks nothing, so there is nothing
/// to settle.  The attempt is handed the backoff so one that made partial
/// progress before it had to wait can reset the delay.  (Inlined: with an
/// attempt that answers first time — every uncontended `send`/`recv` — this
/// is the attempt and nothing else.)
#[inline]
pub(crate) fn spin<O>(mut attempt: impl FnMut(&mut Backoff) -> Option<O>) -> O {
    let mut backoff = Backoff::new();
    loop {
        if let Some(output) = attempt(&mut backoff) {
            return output;
        }
        backoff.snooze_or_yield();
    }
}

/// A [`Waker`] that unparks the calling thread.
fn thread_waker() -> Waker {
    struct ThreadUnparker(std::thread::Thread);
    impl std::task::Wake for ThreadUnparker {
        fn wake(self: Arc<Self>) {
            self.0.unpark();
        }
    }
    Waker::from(Arc::new(ThreadUnparker(std::thread::current())))
}

/// Sleeps until `deadline` (or a wake), returning `false` once the deadline
/// has passed.  `None` means "no deadline": park until woken.
fn park_until(deadline: Option<Instant>) -> bool {
    match deadline.map(|dl| dl.saturating_duration_since(Instant::now())) {
        None => std::thread::park(),
        Some(Duration::ZERO) => return false,
        Some(left) => std::thread::park_timeout(left),
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::task::Wake;
    use wcq_core::metrics::NoopInstrument;

    impl<I: Instrument> WakeSide<I> {
        /// Number of attached slots (for the endpoints' own tests).
        pub(crate) fn attached(&self) -> usize {
            self.lock().len()
        }
    }

    struct CountingWake(AtomicUsize);
    impl Wake for CountingWake {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, SeqCst);
        }
    }

    fn counting_waker() -> (Arc<CountingWake>, Waker) {
        let count = Arc::new(CountingWake(AtomicUsize::new(0)));
        let waker = Waker::from(Arc::clone(&count));
        (count, waker)
    }

    /// A bare lane, so a test attempt can notify at an exact point of a wait.
    struct TestLane<'s>(&'s WakeSide<NoopInstrument>, u64);
    impl Lane for TestLane<'_> {
        type I = NoopInstrument;
        fn lane(&mut self) -> (&WakeSide<NoopInstrument>, u64) {
            (self.0, self.1)
        }
    }

    /// A side with the lane under test attached first (a wake-one picks it
    /// while both are parked) and a sibling parked with a counting waker.
    fn lane_with_parked_sibling(
        side: &WakeSide<NoopInstrument>,
    ) -> (TestLane<'_>, Arc<CountingWake>) {
        let lane = TestLane(side, side.attach());
        let (sibling, sibling_waker) = counting_waker();
        side.park(side.attach(), &sibling_waker);
        (lane, sibling)
    }

    /// The window no outside test can force: a second notification lands on
    /// the waiter between its (re-)park and its winning re-check.
    #[test]
    fn a_win_after_a_park_forwards_a_notification_that_came_in_between() {
        let side = WakeSide::new(NoopInstrument);

        let (mut lane, sibling) = lane_with_parked_sibling(&side);
        let mut tries = 0;
        let won = Parked::one(&mut lane).park_one(Duration::from_secs(5), |_| {
            tries += 1;
            // The re-check: by now our waker is parked.  A notification takes
            // it, and the attempt then wins what an earlier one announced.
            (tries == 2).then(|| side.wake_one())
        });
        assert_eq!(won, Some(()));
        assert_eq!(sibling.0.load(SeqCst), 1, "thread driver: forwarded");

        let (mut lane, sibling) = lane_with_parked_sibling(&side);
        let (count, waker) = counting_waker();
        let mut tries = 0;
        let poll = Parked::one(&mut lane).poll_one(&mut Context::from_waker(&waker), |_| {
            tries += 1;
            (tries == 2).then(|| side.wake_one())
        });
        assert_eq!(poll, Poll::Ready(()));
        assert_eq!(count.0.load(SeqCst), 1, "the notification took our waker");
        assert_eq!(sibling.0.load(SeqCst), 1, "task driver: forwarded");
    }

    /// The other side of the rule: a re-poll that wins without re-parking
    /// acted on the notification that woke it, and forwards nothing.
    #[test]
    fn a_win_on_the_poll_a_notification_woke_keeps_it() {
        let side = WakeSide::new(NoopInstrument);
        let (mut lane, sibling) = lane_with_parked_sibling(&side);
        let (count, waker) = counting_waker();
        let mut wait = Parked::one(&mut lane);
        let mut cx = Context::from_waker(&waker);
        assert_eq!(wait.poll_one(&mut cx, |_| None::<()>), Poll::Pending);
        side.wake_one();
        assert_eq!(count.0.load(SeqCst), 1);
        assert_eq!(wait.poll_one(&mut cx, |_| Some(())), Poll::Ready(()));
        assert_eq!(
            sibling.0.load(SeqCst),
            0,
            "the wake was spent on the winner"
        );
        drop(wait);
        assert_eq!(sibling.0.load(SeqCst), 0, "settled once");
    }

    #[test]
    fn waker_registry_counts_parks_and_notifies() {
        let side = WakeSide::new(NoopInstrument);
        let (count, waker) = counting_waker();

        let a = side.attach();
        let b = side.attach();
        side.wake_one(); // nobody parked: no-op
        assert_eq!(count.0.load(SeqCst), 0);

        side.park(a, &waker);
        side.park(b, &waker);
        side.wake_one();
        assert_eq!(count.0.load(SeqCst), 1, "wake one, not all");
        side.wake_all();
        assert_eq!(count.0.load(SeqCst), 2, "remaining parked waker woken");
        side.wake_all();
        assert_eq!(count.0.load(SeqCst), 2, "nothing left to wake");

        side.park(a, &waker);
        assert!(side.unpark(a), "a parked waker is removed");
        assert!(!side.unpark(a), "an empty slot reports the consumed waker");
        side.wake_all();
        assert_eq!(count.0.load(SeqCst), 2, "unpark removes without waking");

        side.park(b, &waker);
        side.detach(b);
        side.wake_all();
        assert_eq!(count.0.load(SeqCst), 2, "detach drops the parked waker");
        side.detach(a);
    }
}
