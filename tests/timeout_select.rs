//! Seeded stress for the timed waits: `Receiver::recv_timeout` and the
//! multi-channel selects (`wcq::recv_any_timeout`, async `wcq::recv_any`)
//! against the close-aware oracle.
//!
//! The claim under test is the one the scenario subsystem leans on: a timed
//! wait that expires is *purely* a retry signal.  Across seeded runs with
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

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Duration;

use wcq::channel::RecvTimeoutError;
use wcq::{ChannelBackend, Receiver, Sender};
use wcq_harness::exec::block_on;
use wcq_harness::stress::{encode, verify_observations};
use wcq_harness::{all_channel_backends, DetRng};

const PRODUCERS: usize = 3;
const CONSUMERS: usize = 2;
const SENDS_PER_PRODUCER: u64 = 400;
/// Short enough that the producers' injected gaps expire many parked waits.
const WAIT: Duration = Duration::from_micros(200);

fn channel_over(backend: ChannelBackend, slots: usize) -> (Sender<u64>, Receiver<u64>) {
    wcq::builder()
        .capacity_order(7)
        .threads(slots)
        .shards(if backend == ChannelBackend::Sharded {
            4
        } else {
            1
        })
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
        let (tx, rx) = channel_over(backend, PRODUCERS + CONSUMERS + 2);
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
            .map(|_| channel_over(backend, PRODUCERS + CONSUMERS + 2))
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
    for backend in [ChannelBackend::Unbounded, ChannelBackend::Sharded] {
        let mut pairs: Vec<_> = (0..LANES)
            .map(|_| {
                wcq::builder()
                    .capacity_order(7)
                    .threads(PRODUCERS + CONSUMERS + 2)
                    .shards(if backend == ChannelBackend::Sharded {
                        4
                    } else {
                        1
                    })
                    .backend(backend)
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
            "backend {backend:?}: async select must drain exactly once"
        );
        let counts: HashMap<usize, u64> = (0..PRODUCERS).map(|w| (w, SENDS_PER_PRODUCER)).collect();
        verify_observations(&counts, &observations, false)
            .unwrap_or_else(|e| panic!("backend {backend:?}: {e}"));
    }
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
