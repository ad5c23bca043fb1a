//! Seeded stress for the timed waits: `Receiver::recv_timeout` and the
//! multi-channel selects (`wcq::recv_any_timeout`, async `wcq::recv_any`)
//! against the close-aware oracle.
//!
//! The claim under test is the one a worker draining several lanes through
//! one select leans on: a timed wait that expires is *purely* a retry signal.  Across seeded runs with
//! jittery producers (silent gaps long enough to expire many parked waits),
//! racing sender disconnects and multi-lane consumers, the oracle must hold
//! exactly as it does for the untimed paths:
//!
//! * **no loss** — every accepted send is received exactly once, however
//!   many timeouts interleaved with the deliveries;
//! * **no invention / duplication** — via the shared
//!   [`wcq_harness::verify_observations`] oracle on `encode(worker, seq)`
//!   values;
//! * **close-aware** — `Closed` is only ever the *final* answer, after the
//!   exact drain; a select never reports it while any lane still holds data.
//!
//! The hand-polled no-lost-wake proofs for the select live next to the
//! implementation (`src/select.rs`); this suite is the systems-level
//! complement on real threads and real clocks.
//!
//! The untimed waits are the same driver with no deadline (spin briefly, then
//! park — DESIGN.md, "Spin, then park"), and two things about them can only
//! be seen on real threads too: a waiter with nothing to do is *asleep* (the
//! idle-CPU cases), and waits that end on either side of the spin→park
//! switch deliver exactly once (the boundary stress).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::{Duration, Instant};

use wcq::channel::RecvTimeoutError;
use wcq::{ChannelBackend, Counter, CountingInstrument, Receiver, Sender};
use wcq_harness::exec::block_on;
use wcq_harness::stress::{encode, verify_observations};
use wcq_harness::{all_channel_backends, DetRng};

const PRODUCERS: usize = 3;
const CONSUMERS: usize = 2;
const SENDS_PER_PRODUCER: u64 = 400;
/// Short enough that the producers' injected gaps expire many parked waits.
const WAIT: Duration = Duration::from_micros(200);

fn pair_over(backend: ChannelBackend, slots: usize) -> (Sender<u64>, Receiver<u64>) {
    wcq::builder()
        .capacity_order(7)
        .threads(slots)
        .backend(backend)
        .build_channel::<u64>()
}

/// Producer body shared by the stress runs: send `encode(worker, 1..=n)`
/// with seeded jitter, including occasional multi-millisecond silences that
/// outlast [`WAIT`] many times over.
fn jittery_produce(tx: &mut Sender<u64>, worker: usize, seed: u64) {
    let mut rng = DetRng::new(seed).stream(worker as u64 + 1);
    for seq in 1..=SENDS_PER_PRODUCER {
        tx.send(encode(worker, seq)).expect("receivers are alive");
        if seq % 97 == 0 {
            // A silent gap: every parked consumer times out a few times.
            std::thread::sleep(Duration::from_millis(1 + rng.next_below(3)));
        } else if rng.chance(0.05) {
            std::thread::yield_now();
        }
    }
}

#[test]
fn recv_timeout_under_jittery_load_times_out_but_never_drops() {
    for backend in all_channel_backends() {
        let (tx, rx) = pair_over(backend, PRODUCERS + CONSUMERS + 2);
        let timeouts = AtomicU64::new(0);
        let observations: Vec<Vec<u64>> = std::thread::scope(|s| {
            for worker in 0..PRODUCERS {
                let mut tx = tx.clone();
                s.spawn(move || jittery_produce(&mut tx, worker, 0xABCD));
            }
            drop(tx); // last producer out closes the channel
            let consumers: Vec<_> = (0..CONSUMERS)
                .map(|_| {
                    let mut rx = rx.clone();
                    let timeouts = &timeouts;
                    s.spawn(move || {
                        let mut got = Vec::new();
                        loop {
                            match rx.recv_timeout(WAIT) {
                                Ok(v) => got.push(v),
                                Err(RecvTimeoutError::Timeout) => {
                                    timeouts.fetch_add(1, Relaxed);
                                }
                                Err(RecvTimeoutError::Closed) => break,
                            }
                        }
                        got
                    })
                })
                .collect();
            drop(rx);
            consumers.into_iter().map(|h| h.join().unwrap()).collect()
        });

        let total: u64 = observations.iter().map(|o| o.len() as u64).sum();
        assert_eq!(
            total,
            (PRODUCERS as u64) * SENDS_PER_PRODUCER,
            "backend {backend:?}: timeouts must not drop accepted sends"
        );
        let counts: HashMap<usize, u64> = (0..PRODUCERS).map(|w| (w, SENDS_PER_PRODUCER)).collect();
        verify_observations(&counts, &observations, true)
            .unwrap_or_else(|e| panic!("backend {backend:?}: {e}"));
        assert!(
            timeouts.load(Relaxed) > 0,
            "backend {backend:?}: the injected gaps must expire some waits"
        );
    }
}

#[test]
fn select_stress_drains_every_lane_exactly_once_through_close() {
    // Three lanes, producers spraying across them by seed, consumers each
    // blocked in ONE recv_any_timeout across all three.  Values hop lanes,
    // so the cross-lane FIFO clause is off; loss/duplication/invention and
    // the close-aware drain stay fully checked.
    const LANES: usize = 3;
    for backend in all_channel_backends() {
        let lanes: Vec<_> = (0..LANES)
            .map(|_| pair_over(backend, PRODUCERS + CONSUMERS + 2))
            .collect();
        let (txs, rxs): (Vec<_>, Vec<_>) = lanes.into_iter().unzip();
        let timeouts = AtomicU64::new(0);
        let observations: Vec<Vec<u64>> = std::thread::scope(|s| {
            for worker in 0..PRODUCERS {
                let mut txs: Vec<_> = txs.iter().map(Sender::clone).collect();
                s.spawn(move || {
                    let mut rng = DetRng::new(0xD1CE).stream(worker as u64 + 1);
                    for seq in 1..=SENDS_PER_PRODUCER {
                        let lane = rng.next_below(LANES as u64) as usize;
                        txs[lane]
                            .send(encode(worker, seq))
                            .expect("receivers are alive");
                        if seq % 101 == 0 {
                            std::thread::sleep(Duration::from_millis(1 + rng.next_below(2)));
                        }
                    }
                });
            }
            drop(txs);
            let consumers: Vec<_> = (0..CONSUMERS)
                .map(|_| {
                    let mut rxs: Vec<_> = rxs.iter().map(Receiver::clone).collect();
                    let timeouts = &timeouts;
                    s.spawn(move || {
                        let mut got = Vec::new();
                        loop {
                            let mut lanes: Vec<&mut Receiver<u64>> = rxs.iter_mut().collect();
                            match wcq::recv_any_timeout(&mut lanes, WAIT) {
                                Ok((lane, v)) => {
                                    assert!(lane < LANES);
                                    got.push(v);
                                }
                                Err(RecvTimeoutError::Timeout) => {
                                    timeouts.fetch_add(1, Relaxed);
                                }
                                // Only once ALL lanes are closed and drained.
                                Err(RecvTimeoutError::Closed) => break,
                            }
                        }
                        got
                    })
                })
                .collect();
            drop(rxs);
            consumers.into_iter().map(|h| h.join().unwrap()).collect()
        });

        let total: u64 = observations.iter().map(|o| o.len() as u64).sum();
        assert_eq!(
            total,
            (PRODUCERS as u64) * SENDS_PER_PRODUCER,
            "backend {backend:?}: select must drain every lane exactly once"
        );
        let counts: HashMap<usize, u64> = (0..PRODUCERS).map(|w| (w, SENDS_PER_PRODUCER)).collect();
        verify_observations(&counts, &observations, false)
            .unwrap_or_else(|e| panic!("backend {backend:?}: {e}"));
        assert!(
            timeouts.load(Relaxed) > 0,
            "backend {backend:?}: the injected gaps must expire some selects"
        );
    }
}

#[test]
fn async_select_stress_matches_the_sync_oracle() {
    // The async twin: one task per consumer blocked in recv_any across both
    // lanes (driven by the harness block_on executor on its own thread),
    // producers on plain threads.  `Err(RecvError)` is the close-aware
    // terminal: all lanes closed and drained.
    const LANES: usize = 2;
    let mut pairs: Vec<_> = (0..LANES)
        .map(|_| {
            wcq::builder()
                .capacity_order(7)
                .threads(PRODUCERS + CONSUMERS + 2)
                .build_async::<u64>()
        })
        .collect();
    let txs: Vec<_> = pairs.iter().map(|(tx, _)| tx.clone()).collect();
    let observations: Vec<Vec<u64>> = std::thread::scope(|s| {
        for worker in 0..PRODUCERS {
            let mut txs = txs.to_vec();
            s.spawn(move || {
                let mut rng = DetRng::new(0xF00D).stream(worker as u64 + 1);
                for seq in 1..=SENDS_PER_PRODUCER {
                    let lane = rng.next_below(LANES as u64) as usize;
                    block_on(txs[lane].send(encode(worker, seq))).expect("receivers are alive");
                    if seq % 89 == 0 {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            });
        }
        drop(txs);
        let consumers: Vec<_> = (0..CONSUMERS)
            .map(|_| {
                let mut rxs: Vec<_> = pairs.iter().map(|(_, rx)| rx.clone()).collect();
                s.spawn(move || {
                    block_on(async move {
                        let mut got = Vec::new();
                        loop {
                            let mut lanes: Vec<_> = rxs.iter_mut().collect();
                            match wcq::recv_any(&mut lanes).await {
                                Ok((lane, v)) => {
                                    assert!(lane < LANES);
                                    got.push(v);
                                }
                                Err(_) => break, // all closed and drained
                            }
                        }
                        got
                    })
                })
            })
            .collect();
        // Drop the original endpoints: the producers' clones (senders)
        // and the consumers' clones (receivers) now own the channels.
        pairs.clear();
        consumers.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let total: u64 = observations.iter().map(|o| o.len() as u64).sum();
    assert_eq!(
        total,
        (PRODUCERS as u64) * SENDS_PER_PRODUCER,
        "async select must drain exactly once"
    );
    let counts: HashMap<usize, u64> = (0..PRODUCERS).map(|w| (w, SENDS_PER_PRODUCER)).collect();
    verify_observations(&counts, &observations, false).unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn send_timeout_backpressure_expires_then_recovers_without_loss() {
    // Bounded backend, capacity 2^4: a producer pushing far past capacity
    // sees Timeout (value handed back, not dropped) while the consumer
    // stalls, then completes every send once draining resumes.
    let (mut tx, mut rx) = wcq::builder()
        .capacity_order(4)
        .threads(4)
        .backend(ChannelBackend::Bounded)
        .build_channel::<u64>();
    // Fill to capacity: every further timed send must expire.
    let mut accepted = 0u64;
    let mut bounced = Vec::new();
    for i in 0..40u64 {
        match tx.send_timeout(i, Duration::from_micros(100)) {
            Ok(()) => accepted += 1,
            Err(wcq::channel::SendTimeoutError::Timeout(v)) => bounced.push(v),
            Err(wcq::channel::SendTimeoutError::Closed(_)) => unreachable!(),
        }
    }
    assert!(accepted >= 16, "capacity's worth of sends must land");
    assert!(!bounced.is_empty(), "past capacity, timed sends expire");

    // Recovery: a consumer thread drains while the producer retries the
    // bounced values with a generous deadline — nothing is lost or doubled.
    let expected_total = accepted + bounced.len() as u64;
    let drained = std::thread::scope(|s| {
        let consumer = s.spawn(move || {
            let mut got = 0u64;
            while rx.recv_timeout(Duration::from_millis(200)).is_ok() {
                got += 1;
            }
            got
        });
        for v in bounced {
            tx.send_timeout(v, Duration::from_millis(200))
                .expect("drain in progress: timed sends must land");
        }
        drop(tx);
        consumer.join().unwrap()
    });
    assert_eq!(drained, expected_total, "exact drain through close");
}

// --------------------------------------------------------------------------
// The untimed waits: asleep when idle, exact across the spin→park switch
// --------------------------------------------------------------------------

type CountedPair = (
    Sender<u64, CountingInstrument>,
    Receiver<u64, CountingInstrument>,
);

fn counted_channel(
    backend: ChannelBackend,
    capacity_order: u32,
    slots: usize,
) -> (CountedPair, CountingInstrument) {
    let instr = CountingInstrument::new();
    let pair = wcq::builder()
        .capacity_order(capacity_order)
        .threads(slots)
        .backend(backend)
        .instrument(instr.clone())
        .build_channel::<u64>();
    (pair, instr)
}

/// The idle-CPU cases read the kernel's per-thread accounting, which only
/// Linux exposes this way.
#[cfg(target_os = "linux")]
mod idle_cpu {
    use super::*;

    /// Nanoseconds the calling thread has spent on a CPU so far (first field
    /// of its `schedstat`); `None` where the kernel does not say.
    fn on_cpu_ns() -> Option<u64> {
        let stat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
        stat.split_whitespace().next()?.parse().ok()
    }

    /// How long the other side stays silent, and how much of that a blocked
    /// waiter may spend on a CPU: the spin budget is 50 µs, so anything near
    /// the interval is a waiter that never slept.
    const IDLE: Duration = Duration::from_millis(300);
    const IDLE_CPU_LIMIT: Duration = Duration::from_millis(30);

    /// Runs `blocked` on a thread of its own with the CPU time it used, after
    /// `release` ran here [`IDLE`] into it; checks the waiter slept, not spun.
    fn assert_blocks_without_burning_cpu<R: Send>(
        name: &str,
        instr: &CountingInstrument,
        blocked: impl FnOnce() -> R + Send,
        release: impl FnOnce(),
    ) -> R {
        let (result, on_cpu) = std::thread::scope(|s| {
            let waiter = s.spawn(move || {
                let before = on_cpu_ns();
                let result = blocked();
                (result, before.zip(on_cpu_ns()).map(|(b, a)| a - b))
            });
            std::thread::sleep(IDLE);
            release();
            waiter.join().unwrap()
        });
        assert!(
            instr.counters().get(Counter::ChannelParks) >= 1,
            "{name}: a wait of {IDLE:?} never parked"
        );
        match on_cpu {
            Some(ns) => assert!(
                Duration::from_nanos(ns) < IDLE_CPU_LIMIT,
                "{name}: blocked for {IDLE:?} and spent {:?} of it on a CPU",
                Duration::from_nanos(ns)
            ),
            None => {
                println!("{name}: /proc/thread-self/schedstat unreadable, CPU time not checked")
            }
        }
        result
    }

    #[test]
    fn a_blocked_wait_with_nothing_to_do_sleeps() {
        let ((mut tx, mut rx), instr) = counted_channel(ChannelBackend::Unbounded, 4, 2);
        let got =
            assert_blocks_without_burning_cpu("recv", &instr, || rx.recv(), || tx.send(7).unwrap());
        assert_eq!(got, Ok(7), "the late send's value is delivered");

        let ((mut tx, mut rx), instr) = counted_channel(ChannelBackend::Unbounded, 4, 2);
        let mut out = Vec::new();
        let got = assert_blocks_without_burning_cpu(
            "recv_many",
            &instr,
            || rx.recv_many(&mut out, 4),
            || tx.send(8).unwrap(),
        );
        assert_eq!((got, out), (Ok(1), vec![8]));

        // Capacity 2, full: the send waits for the late receive's free slot.
        let ((mut tx, mut rx), instr) = counted_channel(ChannelBackend::Bounded, 1, 2);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        let sent = assert_blocks_without_burning_cpu(
            "send",
            &instr,
            || tx.send(3),
            || assert_eq!(rx.try_recv(), Ok(1)),
        );
        assert_eq!(sent, Ok(()));
        assert_eq!((rx.try_recv(), rx.try_recv()), (Ok(2), Ok(3)));
    }
}

/// A closed-and-drained lane's gate never shuts (its `Closed` verdict can
/// only come from a real poll), and a select lives with such lanes for as
/// long as their peers are open.  That must not make each pause of the spin
/// phase poll the live lanes' rings — four writes a poll to lines their
/// senders need.
#[test]
fn a_dead_lane_does_not_make_a_spinning_select_poll_the_live_ones() {
    for dead_first in [true, false] {
        let ((dead_tx, mut dead), _) = counted_channel(ChannelBackend::Unbounded, 4, 2);
        let ((_live_tx, mut live), live_instr) = counted_channel(ChannelBackend::Unbounded, 4, 2);
        drop(dead_tx);
        let mut lanes = [&mut dead, &mut live];
        if !dead_first {
            lanes.reverse();
        }
        assert_eq!(
            wcq::recv_any_timeout(&mut lanes, Duration::from_millis(1)),
            Err(RecvTimeoutError::Timeout)
        );
        // The first attempt, and one re-check per park; ~100 had it polled at
        // every pause of its spin phase.
        let live_polls = live_instr.snapshot().get(Counter::RingDequeues);
        assert!(
            (1..=6).contains(&live_polls),
            "dead lane first: {dead_first}: {live_polls} polls of the live lane's ring"
        );
    }
}

/// `src/wait.rs`'s private `SPIN_BEFORE_PARK`; it only sizes the producer's
/// gaps — the two-phases assertions below fail if it drifts far from the
/// real one.
const SPIN_BUDGET: Duration = Duration::from_micros(50);
const BOUNDARY_VALUES: u64 = 20_000;
const BOUNDARY_WATCHDOG: Duration = Duration::from_secs(30);

/// One producer whose gaps are uniform in [0, 2 × budget] — so its receivers'
/// waits end in the spin phase, in the park phase and at the switch between
/// them — into two receivers in blocking `recv`.
fn boundary_stress(backend: ChannelBackend) {
    let ((mut tx, rx), instr) = counted_channel(backend, 7, 4);
    let (finished_tx, finished) = std::sync::mpsc::channel();
    let run = std::thread::spawn(move || {
        let observations: Vec<Vec<u64>> = std::thread::scope(|s| {
            let consumers: Vec<_> = (0..2)
                .map(|_| {
                    let mut rx = rx.clone();
                    s.spawn(move || {
                        let mut got = Vec::new();
                        while let Ok(v) = rx.recv() {
                            got.push(v);
                        }
                        got
                    })
                })
                .collect();
            drop(rx);
            let mut rng = DetRng::new(0xB0DA).stream(1);
            for seq in 1..=BOUNDARY_VALUES {
                let gap = Duration::from_nanos(rng.next_below(2 * SPIN_BUDGET.as_nanos() as u64));
                let sent = Instant::now();
                tx.send(encode(0, seq)).expect("receivers are alive");
                while sent.elapsed() < gap {
                    std::hint::spin_loop();
                }
            }
            drop(tx); // closes: both receivers drain and return
            consumers.into_iter().map(|h| h.join().unwrap()).collect()
        });
        finished_tx.send(observations).ok();
    });
    let observations = finished
        .recv_timeout(BOUNDARY_WATCHDOG)
        .unwrap_or_else(|_| panic!("backend {backend:?}: not done in {BOUNDARY_WATCHDOG:?}"));
    run.join().unwrap();

    let total: u64 = observations.iter().map(|o| o.len() as u64).sum();
    assert_eq!(total, BOUNDARY_VALUES, "backend {backend:?}: values lost");
    let counts = HashMap::from([(0, BOUNDARY_VALUES)]);
    verify_observations(&counts, &observations, true)
        .unwrap_or_else(|e| panic!("backend {backend:?}: {e}"));
    let (parks, wakes) = (
        instr.counters().get(Counter::ChannelParks),
        instr.counters().get(Counter::ChannelWakes),
    );
    assert!(
        parks > 0,
        "backend {backend:?}: no wait reached the park phase"
    );
    assert!(
        wakes < BOUNDARY_VALUES,
        "backend {backend:?}: {wakes} wakes for {BOUNDARY_VALUES} values — no wait ended in the spin phase"
    );
}

#[test]
fn waits_on_both_sides_of_the_spin_to_park_switch_deliver_exactly_once() {
    boundary_stress(ChannelBackend::Unbounded);
    boundary_stress(ChannelBackend::Bounded);
}
