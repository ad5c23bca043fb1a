//! A dependency-free executor shim: drive one future to completion on the
//! current thread.
//!
//! The async channel endpoints (`wcq::async_channel`) are runtime-agnostic —
//! their futures park a task waker and are woken by sends and closes.  CI
//! runs offline with no tokio, so the tests and benches drive them with this
//! ~40-line shim instead: [`block_on`] polls the future and parks the OS
//! thread between polls, waking through [`std::thread::Thread::unpark`]
//! (whose token semantics make a wake-before-park return immediately, so no
//! wakeup is ever lost).
//!
//! [`block_on_instrumented`] additionally records how often the future was
//! polled and woken — into the same [`Instrument`] counter set the queue
//! layers report to ([`Counter::ExecPolls`] / [`Counter::ExecWakes`]).  It is
//! the instrument behind the "a parked receiver is woken by an enqueue, not
//! by spinning" assertions: a receiver that busy-polls shows hundreds of
//! polls, a properly parked one a small constant.

use std::future::Future;
use std::pin::pin;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::thread::Thread;

use wcq_core::metrics::{Counter, Instrument};

/// Wakes the executor thread via `unpark`, counting every wake.
struct ThreadUnparker {
    thread: Thread,
    wakes: AtomicU64,
}

impl Wake for ThreadUnparker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }
    fn wake_by_ref(self: &Arc<Self>) {
        self.wakes.fetch_add(1, SeqCst);
        self.thread.unpark();
    }
}

/// Runs `future` to completion on the current thread, parking between polls.
pub fn block_on<F: Future>(future: F) -> F::Output {
    run_counting(future).0
}

/// Like [`block_on`], but records every poll and wake into `instrument`
/// ([`Counter::ExecPolls`] / [`Counter::ExecWakes`]) — the executor's
/// contribution to the unified `MetricsSnapshot`
/// (`wcq_core::metrics::MetricsSnapshot`), alongside the channel layer's
/// park/wake counters.
pub fn block_on_instrumented<F: Future, I: Instrument>(future: F, instrument: &I) -> F::Output {
    let (output, polls, wakes) = run_counting(future);
    instrument.record(Counter::ExecPolls, polls);
    instrument.record(Counter::ExecWakes, wakes);
    output
}

/// The shared poll-park loop: drives `future` to completion and returns
/// `(output, polls, wakes)`.
fn run_counting<F: Future>(future: F) -> (F::Output, u64, u64) {
    let unparker = Arc::new(ThreadUnparker {
        thread: std::thread::current(),
        wakes: AtomicU64::new(0),
    });
    let waker = Waker::from(Arc::clone(&unparker));
    let mut cx = Context::from_waker(&waker);
    let mut future = pin!(future);
    let mut polls = 0u64;
    loop {
        polls += 1;
        match future.as_mut().poll(&mut cx) {
            Poll::Ready(output) => {
                let wakes = unparker.wakes.load(SeqCst);
                return (output, polls, wakes);
            }
            // `park` returns immediately when a wake already deposited the
            // token, and may also return spuriously — both just re-poll.
            Poll::Pending => std::thread::park(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::task::Poll;
    use wcq_core::metrics::CountingInstrument;

    #[test]
    fn ready_future_completes_in_one_poll() {
        let instr = CountingInstrument::new();
        assert_eq!(block_on_instrumented(std::future::ready(42), &instr), 42);
        let snap = instr.snapshot();
        assert_eq!(snap.get(Counter::ExecPolls), 1);
        assert_eq!(snap.get(Counter::ExecWakes), 0);
    }

    #[test]
    fn pending_future_parks_until_woken_from_another_thread() {
        // A future that stays Pending until a side thread flips a flag and
        // wakes it — the minimal park/wake round trip.
        use std::sync::atomic::AtomicBool;
        let flag = Arc::new(AtomicBool::new(false));
        let handed_waker = Arc::new(std::sync::Mutex::new(None::<Waker>));

        let (flag2, slot2) = (Arc::clone(&flag), Arc::clone(&handed_waker));
        let waiter = std::future::poll_fn(move |cx| {
            if flag2.load(SeqCst) {
                Poll::Ready(7)
            } else {
                *slot2.lock().unwrap() = Some(cx.waker().clone());
                Poll::Pending
            }
        });

        let side = std::thread::spawn(move || {
            // Wait until the executor parked its waker, then release it.
            loop {
                if let Some(waker) = handed_waker.lock().unwrap().take() {
                    flag.store(true, SeqCst);
                    waker.wake();
                    return;
                }
                std::thread::yield_now();
            }
        });

        let instr = CountingInstrument::new();
        let out = block_on_instrumented(waiter, &instr);
        side.join().unwrap();
        assert_eq!(out, 7);
        let snap = instr.snapshot();
        assert!(
            snap.get(Counter::ExecPolls) >= 2,
            "one park, one wake-up poll"
        );
        assert!(snap.get(Counter::ExecWakes) >= 1);
    }

    #[test]
    fn async_blocks_run_to_completion() {
        let out = block_on(async {
            let a = async { 1 }.await;
            let b = async { 2 }.await;
            a + b
        });
        assert_eq!(out, 3);
    }
}
