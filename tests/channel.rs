//! Close-semantics integration suite for the channel endpoints (ISSUE 5).
//!
//! The acceptance claim: `build_channel::<u64>()` works over the bounded and
//! unbounded backends, every pre-close send is drained exactly once, and
//! post-close sends fail with `Closed`.  The seeded
//! [`ChannelStressPlan`] packages the concurrent version of that claim (the
//! close racing live consumers); the direct tests below pin down the
//! single-threaded corners and the cross-thread endpoint ergonomics the
//! channel API exists for.

use wcq::channel::{RecvError, TryRecvError, TrySendError};
use wcq::ChannelBackend;
use wcq_harness::{all_channel_backends, ChannelStressPlan};

fn pair_over(backend: ChannelBackend) -> (wcq::Sender<u64>, wcq::Receiver<u64>) {
    wcq::builder()
        .capacity_order(6)
        .threads(6)
        .backend(backend)
        .build_channel::<u64>()
}

#[test]
fn seeded_close_oracle_holds_on_every_backend() {
    // Both close modes (explicit close and last-sender-drop) appear across
    // the seeds; assert_holds replays the exact plan on failure.
    for backend in all_channel_backends() {
        for seed in 0..4u64 {
            ChannelStressPlan::from_seed(backend, seed).assert_holds();
        }
    }
}

#[test]
fn every_backend_round_trips_and_reports_its_name() {
    for backend in all_channel_backends() {
        let (mut tx, mut rx) = pair_over(backend);
        assert!(tx.same_channel(&rx));
        for i in 0..50 {
            tx.send(i).unwrap();
        }
        for i in 0..50 {
            assert_eq!(rx.recv(), Ok(i), "backend {backend:?} keeps FIFO");
        }
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        assert!(!tx.backend_name().is_empty());
        assert_eq!(tx.backend_name(), rx.backend_name());
    }
}

#[test]
fn pre_close_values_drain_exactly_once_then_closed_on_every_backend() {
    for backend in all_channel_backends() {
        let (mut tx, mut rx) = pair_over(backend);
        for i in 0..20 {
            tx.send(i).unwrap();
        }
        tx.close();
        assert_eq!(
            tx.try_send(99),
            Err(TrySendError::Closed(99)),
            "backend {backend:?}: post-close sends fail fast"
        );
        let drained: Vec<u64> = (&mut rx).collect();
        assert_eq!(
            drained,
            (0..20).collect::<Vec<_>>(),
            "backend {backend:?}: every pre-close send drained exactly once"
        );
        assert_eq!(rx.recv(), Err(RecvError));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Closed));
    }
}

#[test]
fn endpoints_fan_out_across_plain_spawned_threads() {
    // The ergonomic point of the channel layer: endpoints are Send + 'static,
    // so plain `thread::spawn` works — no scoped threads, no manual
    // registration, no `Arc<Queue>` plumbing.
    const PRODUCERS: u64 = 4;
    const PER_PRODUCER: u64 = 5_000;
    let (tx, rx) = wcq::builder().threads(8).build_channel::<u64>();

    let mut workers = Vec::new();
    for p in 0..PRODUCERS {
        let mut tx = tx.clone();
        workers.push(std::thread::spawn(move || {
            for i in 0..PER_PRODUCER {
                tx.send(p * PER_PRODUCER + i).unwrap();
            }
        }));
    }
    drop(tx); // workers' clones keep the channel open

    let mut consumers = Vec::new();
    for _ in 0..2 {
        let mut rx = rx.clone();
        consumers.push(std::thread::spawn(move || {
            let mut got = Vec::new();
            while let Ok(v) = rx.recv() {
                got.push(v);
            }
            got
        }));
    }
    drop(rx);

    for w in workers {
        w.join().unwrap();
    }
    let mut all: Vec<u64> = consumers
        .into_iter()
        .flat_map(|c| c.join().unwrap())
        .collect();
    all.sort_unstable();
    assert_eq!(all, (0..PRODUCERS * PER_PRODUCER).collect::<Vec<_>>());
}

#[test]
fn endpoints_migrate_through_a_chain_of_short_lived_threads() {
    // Each hop's thread is spawned only after the previous one exited, and
    // each endpoint operates there under the handle it registered on first
    // use.  The values must come out exactly once and in order: both
    // backends are one FIFO queue, so order survives every move.
    const HOPS: u64 = 16;
    const SENT_PER_HOP: u64 = 4;
    const TAKEN_PER_HOP: u64 = 3;
    for backend in all_channel_backends() {
        let (mut tx, mut rx) = pair_over(backend);
        let mut seen = Vec::new();
        for hop in 0..HOPS {
            let worker = std::thread::spawn(move || {
                let mut got = Vec::new();
                for i in 0..SENT_PER_HOP {
                    tx.send(hop * SENT_PER_HOP + i).unwrap();
                }
                for _ in 0..TAKEN_PER_HOP {
                    got.push(rx.recv().unwrap());
                }
                (tx, rx, got)
            });
            let (tx_back, rx_back, got) = worker.join().unwrap();
            (tx, rx) = (tx_back, rx_back);
            seen.extend(got);
        }
        // Back on this thread: close, then the exact drain.
        tx.close();
        assert!(matches!(tx.try_send(0), Err(TrySendError::Closed(0))));
        while let Ok(v) = rx.recv() {
            seen.push(v);
        }
        assert_eq!(rx.recv(), Err(RecvError), "backend {backend:?}");
        assert_eq!(
            seen,
            (0..HOPS * SENT_PER_HOP).collect::<Vec<_>>(),
            "backend {backend:?}: every value exactly once across {HOPS} migrations"
        );
    }
}

#[test]
fn a_spinning_recv_watches_the_length_hint_instead_of_polling_the_ring() {
    // An empty poll of the ring writes to four cache lines the next send
    // needs, so a blocked `recv` must not keep issuing them: after its first
    // empty answer it re-polls the backend's length hint and touches the
    // ring again only when that turns non-empty (or the channel closes) —
    // and once more for the re-check when, its spin budget spent, it parks.
    use wcq::{Counter, CountingInstrument};
    let instr = CountingInstrument::new();
    let (mut tx, mut rx) = wcq::builder()
        .threads(4)
        .backend(ChannelBackend::Unbounded)
        .instrument(instr.clone())
        .build_channel::<u64>();
    let ring_polls = || instr.snapshot().get(Counter::RingDequeues);
    let receiver = std::thread::spawn(move || (rx.recv(), rx.recv()));
    while ring_polls() == 0 {
        std::thread::yield_now(); // until the receiver's first (empty) poll
    }
    // Time enough for thousands of polls, had it kept polling.
    std::thread::sleep(std::time::Duration::from_millis(20));
    let while_empty = ring_polls();
    assert!(
        while_empty <= 8,
        "{while_empty} ring polls while provably empty"
    );
    tx.send(7).unwrap();
    drop(tx); // the second `recv` must still see the close: `SHUT` linked after the tail
    assert_eq!(receiver.join().unwrap(), (Ok(7), Err(RecvError)));
}

#[test]
fn receiver_side_close_fails_producers_fast() {
    let (mut tx, rx) = pair_over(ChannelBackend::Unbounded);
    tx.send(1).unwrap();
    rx.close();
    assert!(tx.send(2).is_err(), "producers observe a consumer shutdown");
    // The pre-close value remains drainable by the closing side.
    let mut rx = rx;
    assert_eq!(rx.recv(), Ok(1));
    assert_eq!(rx.recv(), Err(RecvError));
}

/// `send_iter`'s per-element close contract where a close can split a batch:
/// on two-slot unbounded segments the batch crosses a segment boundary every
/// second element, and the receiver closes after a seeded number of values.
/// Whatever it received plus the remainder the send hands back must be the
/// whole batch, in order — nothing lost, nothing twice, nothing accepted
/// behind a refusal.
#[test]
fn send_iter_racing_close_splits_the_batch_at_a_segment_boundary() {
    const BATCH: u64 = 10_000;
    let mut splits = 0;
    for seed in 0..12u64 {
        let (mut tx, mut rx) = wcq::builder()
            .capacity_order(1)
            .threads(2)
            .build_channel::<u64>();
        let close_after = 1 + seed * 37 % 200;
        let receiver = std::thread::spawn(move || {
            let mut got = Vec::new();
            loop {
                match rx.recv() {
                    Ok(v) => {
                        got.push(v);
                        if got.len() as u64 == close_after {
                            rx.close();
                        }
                    }
                    Err(RecvError) => return got,
                }
            }
        });
        let remainder = match tx.send_iter(0..BATCH) {
            Ok(n) => {
                assert_eq!(n as u64, BATCH, "seed {seed}");
                Vec::new()
            }
            Err(wcq::SendError(rest)) => rest,
        };
        drop(tx);
        let mut got = receiver.join().unwrap();
        assert!(got.len() as u64 >= close_after, "seed {seed}");
        splits += usize::from(!remainder.is_empty());
        got.extend(remainder);
        assert_eq!(got, (0..BATCH).collect::<Vec<_>>(), "seed {seed}");
    }
    assert!(splits > 0, "no seed closed the channel mid-batch");
}

#[test]
fn bounded_backend_backpressure_resolves_through_a_consumer() {
    let (mut tx, mut rx) = wcq::builder()
        .capacity_order(2) // capacity 4: producers really block
        .threads(3)
        .backend(ChannelBackend::Bounded)
        .build_channel::<u64>();
    for i in 0..4 {
        tx.try_send(i).unwrap();
    }
    assert!(matches!(tx.try_send(4), Err(TrySendError::Full(4))));
    let producer = std::thread::spawn(move || {
        let mut tx = tx;
        // Blocks on the full queue until the consumer below drains.
        for i in 4..200 {
            tx.send(i).unwrap();
        }
    });
    for i in 0..200 {
        assert_eq!(rx.recv(), Ok(i));
    }
    producer.join().unwrap();
}

#[test]
fn llsc_hardware_model_channels_work_end_to_end() {
    wcq::atomics::llsc::set_spurious_failure_rate(0.0);
    let (tx, mut rx) = wcq::builder()
        .capacity_order(5)
        .threads(4)
        .llsc()
        .build_channel::<u64>();
    let mut tx = tx;
    assert_eq!(tx.backend_name(), "wLSCQ (LL/SC)");
    for i in 0..300 {
        tx.send(i).unwrap(); // crosses segments: 300 values through 32-slot rings
    }
    drop(tx);
    assert_eq!((&mut rx).collect::<Vec<_>>(), (0..300).collect::<Vec<_>>());
}

#[test]
fn counting_backends_hint_empty_after_a_drain() {
    let (mut tx, mut rx) = pair_over(ChannelBackend::Unbounded);
    for i in 0..100 {
        tx.send(i).unwrap();
    }
    assert!(!rx.is_empty_hint(), "holds 100 values");
    for _ in 0..100 {
        rx.recv().unwrap();
    }
    assert!(rx.is_empty_hint(), "drained");
}

/// Regression: `.shards(n)` no longer selects a channel backend.  A channel
/// built with `.shards(4)` and *no other call* is the default unbounded wLSCQ
/// and keeps per-sender FIFO, on sync and async endpoints, singles and
/// batches alike.
#[test]
fn a_shard_count_leaves_the_channel_on_the_unbounded_backend() {
    const N: usize = 1_000;
    let expected: Vec<u64> = (0..N as u64).collect();

    // Sync endpoints, one value at a time.
    let (mut tx, mut rx) = wcq::builder().shards(4).build_channel::<u64>();
    assert_eq!(tx.backend_name(), "wLSCQ");
    for &v in &expected {
        tx.send(v).unwrap();
    }
    let got: Vec<u64> = (0..N).map(|_| rx.recv().unwrap()).collect();
    assert_eq!(got, expected, "sync singles");

    // Sync endpoints, batches.
    let (mut tx, mut rx) = wcq::builder().shards(4).build_channel::<u64>();
    for chunk in expected.chunks(37) {
        assert_eq!(tx.send_iter(chunk.iter().copied()).unwrap(), chunk.len());
    }
    let mut got = Vec::new();
    while got.len() < N {
        rx.recv_many(&mut got, 64).unwrap();
    }
    assert_eq!(got, expected, "sync send_iter/recv_many");

    // Async endpoints: singles, then batches, through one channel.
    let (mut tx, mut rx) = wcq::builder().shards(4).build_async::<u64>();
    wcq_harness::block_on(async {
        for &v in &expected {
            tx.send(v).await.unwrap();
        }
        let mut got = Vec::new();
        for _ in 0..N {
            got.push(rx.recv().await.unwrap());
        }
        assert_eq!(got, expected, "async singles");

        for chunk in expected.chunks(37) {
            assert_eq!(tx.send_iter(chunk.iter().copied()).await, Ok(chunk.len()));
        }
        let mut got = Vec::new();
        while got.len() < N {
            rx.recv_many(&mut got, 64).await.unwrap();
        }
        assert_eq!(got, expected, "async send_iter/recv_many");
    });
}

/// Two senders race a receiver's close on each backend with every ring
/// operation forced down the wait-free slow path, on the smallest ring or
/// segments the senders admit, so a close lands between an announcement
/// and its check, and between a check and its deposit.  Every value offered
/// is either refused or delivered, exactly once, and none whose send
/// started after the close returned is accepted.
#[test]
fn sends_racing_close_under_the_slow_path_are_refused_or_delivered_once() {
    const OFFERS: u64 = 300;
    let forced = wcq_core::wcq::WcqConfig {
        max_patience_enqueue: 1,
        max_patience_dequeue: 1,
        help_delay: 1,
        catchup_bound: 8,
    };
    for backend in all_channel_backends() {
        for seed in 1..=8u64 {
            let (tx, mut rx) = wcq::builder()
                .capacity_order(2)
                .threads(3)
                .config(forced)
                .backend(backend)
                .build_channel::<u64>();
            let closed = &std::sync::atomic::AtomicBool::new(false);
            let close_at = 1 + seed * 41 % 250;
            let at = format!("{backend:?}, seed {seed}");
            let at = at.as_str();
            let (mut accepted, mut refused, mut delivered) = (Vec::new(), Vec::new(), Vec::new());
            std::thread::scope(|s| {
                let senders: Vec<_> = (0..2u64)
                    .map(|who| {
                        let mut tx = tx.clone();
                        s.spawn(move || {
                            let (mut accepted, mut refused) = (Vec::new(), Vec::new());
                            let mut i = 0;
                            while i < OFFERS {
                                let after_close = closed.load(std::sync::atomic::Ordering::SeqCst);
                                // Sender 1 offers batches, so a close can
                                // split one.
                                let len = if who == 1 { 1 + (seed + i) % 4 } else { 1 };
                                let offered: Vec<u64> =
                                    (i..(i + len).min(OFFERS)).map(|i| who << 32 | i).collect();
                                i += offered.len() as u64;
                                let n = if who == 1 {
                                    match tx.send_iter(offered.iter().copied()) {
                                        Ok(n) => n,
                                        Err(wcq::SendError(rest)) => {
                                            assert_eq!(
                                                rest,
                                                offered[offered.len() - rest.len()..],
                                                "{at}: remainder out of order"
                                            );
                                            offered.len() - rest.len()
                                        }
                                    }
                                } else {
                                    let mut v = offered[0];
                                    loop {
                                        match tx.try_send(v) {
                                            Ok(()) => break 1,
                                            Err(TrySendError::Full(back)) => {
                                                v = back;
                                                std::thread::yield_now();
                                            }
                                            Err(TrySendError::Closed(_)) => break 0,
                                        }
                                    }
                                };
                                assert!(
                                    !after_close || n == 0,
                                    "{at}: a send that started after the close was accepted"
                                );
                                accepted.extend_from_slice(&offered[..n]);
                                refused.extend_from_slice(&offered[n..]);
                            }
                            (accepted, refused)
                        })
                    })
                    .collect();
                drop(tx);
                let receiver = s.spawn(move || {
                    let mut got = Vec::new();
                    while let Ok(v) = rx.recv() {
                        got.push(v);
                        if got.len() as u64 == close_at {
                            rx.close();
                            closed.store(true, std::sync::atomic::Ordering::SeqCst);
                        }
                    }
                    got
                });
                for t in senders {
                    let (a, r) = t.join().expect("sender");
                    accepted.extend(a);
                    refused.extend(r);
                }
                delivered = receiver.join().expect("receiver");
            });
            accepted.sort_unstable();
            refused.sort_unstable();
            delivered.sort_unstable();
            assert_eq!(delivered, accepted, "{at}: lost or duplicated");
            assert_eq!(accepted.len() + refused.len(), 2 * OFFERS as usize, "{at}");
            assert!(
                refused.iter().all(|v| delivered.binary_search(v).is_err()),
                "{at}: a refused value was delivered"
            );
        }
    }
}
