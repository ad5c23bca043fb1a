//! The wait core: the only code in the library that waits.
//!
//! Every waiting operation of the channel layer is an *attempt × driver*
//! composition built here (DESIGN.md, "Wait core: attempts × drivers", has
//! the table and states the protocol's four invariants once):
//!
//! * an **attempt** is one of the endpoints' non-blocking calls, answering
//!   `Some(output)` when the operation is finished — with a value, with
//!   `Closed`, or with the value handed back — and `None` when it would
//!   have to wait;
//! * a **driver** repeats an attempt until it answers:
//!   [`Parked::wait_thread`] spins briefly on the lanes' read-only gate and
//!   then sleeps the calling thread, until a deadline if there is one;
//!   [`Parked::poll_task`] suspends the polling task.
//!
//! The two drivers share one park protocol, kept by the [`Parked`] guard:
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
    /// The spin phase's gate: a look that only *reads* shared state and says
    /// the attempt would still find nothing on this lane, so the thread
    /// driver pauses instead of running it.  `false` — "no such look: run the
    /// attempt" — is always safe, and is what an endpoint without a gate
    /// answers.
    fn still_nothing(&self) -> bool {
        false
    }
}

impl<E: Lane> Lane for &mut E {
    type I = E::I;
    fn lane(&mut self) -> (&WakeSide<E::I>, u64) {
        (**self).lane()
    }
    fn still_nothing(&self) -> bool {
        (**self).still_nothing()
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

    /// The thread driver: repeats `attempt` over `lanes` until it answers or
    /// `timeout` passes (`None`); [`NO_DEADLINE`] waits for the answer
    /// however long it takes.  The first attempt runs inline and before any
    /// wait state exists — nothing is parked, so its answer has nothing to
    /// settle — which makes an operation that does not have to wait that
    /// attempt and nothing else; everything after a `None` is
    /// [`Parked::spin_then_park`].
    ///
    /// The attempt's second argument is `true` for the spin phase's attempts
    /// only: an attempt over several lanes then leaves out every lane whose
    /// own gate ([`Lane::still_nothing`]) is shut, so a lane whose gate never
    /// shuts — a closed one, one without a hint — does not make each pause
    /// poll its live neighbours' rings.  A one-lane attempt can ignore it:
    /// the driver does not run it while that lane's gate is shut.
    #[inline]
    pub(crate) fn wait_thread<O>(
        lanes: &'a mut [E],
        timeout: Duration,
        mut attempt: impl FnMut(&mut [E], bool) -> Answer<O>,
    ) -> Option<O> {
        match attempt(lanes, false) {
            Some((_, output)) => Some(output),
            None => Self::new(lanes).spin_then_park(timeout, attempt),
        }
    }

    /// What the thread driver does once the attempt has answered `None`
    /// (DESIGN.md, "Spin, then park", derives the two constants).
    ///
    /// *Spin*, for at most [`SPIN_BEFORE_PARK`]: pause, and run the attempt
    /// again — on the lanes whose gate is open — only once some lane's
    /// read-only gate ([`Lane::still_nothing`]) has opened, so an empty ring
    /// is never polled twice in a row and a spinning receiver only reads the
    /// lines its sender writes.  Nothing is parked yet: the matching notify
    /// is one load of `parked`.
    ///
    /// *Park*, after that: a [`thread_waker`] in every lane, the re-check,
    /// then sleep.  A notification racing the park unparks this thread, so
    /// the sleep returns immediately.  Every round re-parks before it
    /// re-checks, so no win here is `woken`.
    ///
    /// The deadline is fixed once, on entry, and the spin counts against it:
    /// a zero timeout does neither, and one shorter than the budget times out
    /// from the spin phase without having touched the registry.
    #[cold]
    #[inline(never)]
    fn spin_then_park<O>(
        mut self,
        timeout: Duration,
        mut attempt: impl FnMut(&mut [E], bool) -> Answer<O>,
    ) -> Option<O> {
        if timeout.is_zero() {
            return None;
        }
        let entered = Instant::now();
        // Overflow saturates to "no deadline".
        let deadline = entered.checked_add(timeout);
        let budget_end = entered + SPIN_BEFORE_PARK;
        let spin_until = deadline.map_or(budget_end, |deadline| deadline.min(budget_end));
        let mut pause = Backoff::new();
        loop {
            pause.pause();
            if Instant::now() >= spin_until {
                break;
            }
            if self.lanes.iter().all(|lane| lane.still_nothing()) {
                continue;
            }
            if let Some(output) = self.once(&mut |lanes| attempt(lanes, true), false) {
                return Some(output);
            }
        }
        if deadline == Some(spin_until) {
            return None; // the deadline fell inside the budget: nothing was parked
        }
        let waker = thread_waker();
        loop {
            self.park(&waker);
            let answer = self.once(&mut |lanes| attempt(lanes, false), false);
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

    /// [`Parked::wait_thread`] for a one-endpoint wait.
    #[inline]
    pub(crate) fn wait_one<O>(
        lane: &'a mut E,
        timeout: Duration,
        mut attempt: impl FnMut(&mut E) -> Option<O>,
    ) -> Option<O> {
        Self::wait_thread(std::slice::from_mut(lane), timeout, |lanes, _| {
            Some((Some(0), attempt(&mut lanes[0])?))
        })
    }
}

impl<E: Lane> Drop for Parked<'_, E> {
    fn drop(&mut self) {
        self.settle(None);
    }
}

// --------------------------------------------------------------------------
// The thread driver's constants and helpers
// --------------------------------------------------------------------------

/// The timeout of a wait that has none: [`Parked::wait_thread`] then ends
/// only with an answer.
pub(crate) const NO_DEADLINE: Duration = Duration::MAX;

/// How long the thread driver spins before it parks: what one park/wake
/// hand-off costs the two threads (the ledger's `channel.park_wake_rtt_us`,
/// 40–50 µs).  By the ski-rental rule a wait then never costs more than twice
/// the better of "spin throughout" and "park at once".  Derived, not an
/// option — DESIGN.md, "Spin, then park".
const SPIN_BEFORE_PARK: Duration = Duration::from_micros(50);

/// A [`Waker`] that unparks the calling thread: one allocation per thread,
/// clones of it per park.
fn thread_waker() -> Waker {
    struct ThreadUnparker(std::thread::Thread);
    impl std::task::Wake for ThreadUnparker {
        fn wake(self: Arc<Self>) {
            self.0.unpark();
        }
        fn wake_by_ref(self: &Arc<Self>) {
            self.0.unpark();
        }
    }
    fn new_waker() -> Waker {
        Waker::from(Arc::new(ThreadUnparker(std::thread::current())))
    }
    thread_local! {
        static WAKER: Waker = new_waker();
    }
    // A wait that runs while the thread's locals are being torn down (from
    // another local's destructor) pays for a waker of its own.
    WAKER.try_with(Waker::clone).unwrap_or_else(|_| new_waker())
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
    /// Its gate never opens: the thread driver's spin phase runs no attempt,
    /// so the second one is the re-check that follows the first park.
    struct TestLane<'s>(&'s WakeSide<NoopInstrument>, u64);
    impl Lane for TestLane<'_> {
        type I = NoopInstrument;
        fn lane(&mut self) -> (&WakeSide<NoopInstrument>, u64) {
            (self.0, self.1)
        }
        fn still_nothing(&self) -> bool {
            true
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
        let won = Parked::wait_one(&mut lane, Duration::from_secs(5), |_| {
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

    /// The same window on the way out: the notification takes the waiter's
    /// waker after its last re-check, and the deadline passes before it can
    /// sleep on it.  The wait times out and must hand the notification on.
    #[test]
    fn a_timeout_forwards_a_notification_that_came_after_its_last_re_check() {
        let side = WakeSide::new(NoopInstrument);
        let (mut lane, sibling) = lane_with_parked_sibling(&side);
        let timeout = 2 * SPIN_BEFORE_PARK; // long enough to reach the registry
        let mut tries = 0;
        let timed_out = Parked::wait_one(&mut lane, timeout, |_| {
            tries += 1;
            if tries == 2 {
                // The re-check: our waker is parked.  A notification takes it
                // for something this attempt does not find, and the attempt
                // returns after the deadline.
                side.wake_one();
                std::thread::sleep(timeout);
            }
            None::<()>
        });
        assert_eq!(timed_out, None);
        assert_eq!(tries, 2, "the deadline had passed: no further round");
        assert_eq!(sibling.0.load(SeqCst), 1, "thread driver: forwarded");
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
