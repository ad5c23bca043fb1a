//! Integration tests for the unified observability layer (ISSUE 7): a
//! verified stress-oracle drain must balance the instrument's op counters on
//! every counting queue kind, the helping/slow-path accounting must satisfy
//! its structural invariants, injected LL/SC contention must show up in the
//! telemetry, the channel park/wake/close counters must fire on a real
//! park/wake round trip, and §6's claim — at the paper's patience an
//! uncontended thread never leaves the fast path — must hold by count.
//!
//! Note on what is *not* asserted: organic patience exhaustion (and with it
//! helping traffic) needs a thread to be preempted mid-operation, which a
//! single-core CI box makes vanishingly rare — a 400k-op forced-slow run can
//! legitimately record zero exhaustions here.  The structural invariants
//! (`helping_entries <= total_ring_ops`, `fast + exhausted == total`) hold
//! either way, so those are what the oracle checks; the deterministic
//! nonzero-telemetry checks use the LL/SC spurious-failure injection and the
//! channel layer instead.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use wcq::{ChannelBackend, Counter, CountingInstrument, MetricsSnapshot, UnboundedWcq, WcqConfig};
use wcq_harness::{block_on_instrumented, make_counting_queue, QueueKind};

/// The queue kinds `make_counting_queue` can instrument — the whole wCQ
/// family, in both hardware models.
const COUNTING_KINDS: &[QueueKind] = &[
    QueueKind::Wcq,
    QueueKind::WcqLlsc,
    QueueKind::WcqUnbounded,
    QueueKind::WcqUnboundedLlsc,
];

const PRODUCERS: usize = 2;
const CONSUMERS: usize = 2;
const PER_PRODUCER: u64 = 3_000;
const TOTAL: u64 = PRODUCERS as u64 * PER_PRODUCER;

/// Patience 1: any fast-path attempt that fails falls straight through to
/// the wait-free slow path.
fn forced_slow() -> WcqConfig {
    WcqConfig {
        max_patience_enqueue: 1,
        max_patience_dequeue: 1,
        help_delay: 1,
        catchup_bound: 8,
    }
}

/// The LL/SC spurious-failure rate is process-global (it models the
/// hardware), so the tests that set it serialize behind this lock.
static LLSC_RATE_LOCK: Mutex<()> = Mutex::new(());

/// Runs a produce/consume pipeline to a *verified* full drain (no loss, no
/// duplication) and returns the instrument's snapshot.  Worker handles drop
/// inside the scope, so their handle-local op tallies are flushed before the
/// snapshot is taken.
fn verified_drain(kind: QueueKind) -> MetricsSnapshot {
    let (queue, instr) = make_counting_queue(kind, PRODUCERS + CONSUMERS, 7, Some(forced_slow()))
        .unwrap_or_else(|| panic!("{kind:?} must support counting construction"));
    let producers_done = AtomicUsize::new(0);
    let consumed = AtomicU64::new(0);
    let seen = Mutex::new(HashSet::new());
    std::thread::scope(|s| {
        for p in 0..PRODUCERS {
            let queue = queue.as_ref();
            let producers_done = &producers_done;
            s.spawn(move || {
                let mut h = queue.handle();
                for i in 1..=PER_PRODUCER {
                    h.enqueue((p as u64) << 40 | i);
                }
                producers_done.fetch_add(1, SeqCst);
            });
        }
        for _ in 0..CONSUMERS {
            let queue = queue.as_ref();
            let producers_done = &producers_done;
            let consumed = &consumed;
            let seen = &seen;
            s.spawn(move || {
                let mut h = queue.handle();
                let mut local = Vec::new();
                loop {
                    if let Some(v) = h.dequeue() {
                        local.push(v);
                        consumed.fetch_add(1, SeqCst);
                    } else if producers_done.load(SeqCst) == PRODUCERS
                        && consumed.load(SeqCst) >= TOTAL
                    {
                        break;
                    } else {
                        std::thread::yield_now();
                    }
                }
                seen.lock().unwrap().extend(local);
            });
        }
    });
    let seen = seen.into_inner().unwrap();
    assert_eq!(consumed.load(SeqCst), TOTAL, "[{kind:?}] lost values");
    assert_eq!(seen.len() as u64, TOTAL, "[{kind:?}] duplicated values");
    instr.snapshot()
}

#[test]
fn verified_drain_balances_op_counters_for_every_counting_kind() {
    for &kind in COUNTING_KINDS {
        let snap = verified_drain(kind);
        // The drain was verified complete, so the drop-flushed op tallies
        // must agree with it exactly — empty polls don't count as dequeues.
        assert_eq!(
            snap.get(Counter::EnqueuesCompleted),
            TOTAL,
            "[{kind:?}] enqueues_completed"
        );
        assert_eq!(
            snap.get(Counter::DequeuesCompleted),
            TOTAL,
            "[{kind:?}] dequeues_completed"
        );
        // The helping check runs at most once per ring op, so helping
        // entries can never exceed the total ring ops.
        assert!(
            snap.get(Counter::HelpingEntries) <= snap.total_ring_ops(),
            "[{kind:?}] helping entries {} exceed total ring ops {}",
            snap.get(Counter::HelpingEntries),
            snap.total_ring_ops()
        );
        // A data-queue op is at least one ring op, so the ring-level totals
        // must cover the completed values — the fast-path counters are
        // visibly nonzero whenever work ran at all.
        assert!(
            snap.total_ring_ops() >= TOTAL,
            "[{kind:?}] ring ops {} below completed values",
            snap.total_ring_ops()
        );
        assert!(snap.fast_ring_ops() > 0, "[{kind:?}] no fast-path ops");
        // fast + exhausted == total, and the derived fraction stays sane.
        let exhausted = snap.get(Counter::PatienceExhaustedEnqueues)
            + snap.get(Counter::PatienceExhaustedDequeues);
        assert_eq!(
            snap.fast_ring_ops() + exhausted,
            snap.total_ring_ops(),
            "[{kind:?}] fast/slow split does not add up"
        );
        let frac = snap.slow_path_fraction();
        assert!((0.0..=1.0).contains(&frac), "[{kind:?}] fraction {frac}");
    }
}

#[test]
fn llsc_spurious_injection_shows_up_in_contention_telemetry() {
    // The LL/SC hardware model's injected store-conditional failures are the
    // one contention source a single-core box produces deterministically:
    // at a 20% failure rate over thousands of ops, both the process-global
    // spurious tally and the per-queue CAS-failure counter must move.
    let _rate = LLSC_RATE_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    wcq_atomics::llsc::set_spurious_failure_rate(0.2);
    let snap = verified_drain(QueueKind::WcqLlsc);
    wcq_atomics::llsc::set_spurious_failure_rate(0.0);
    assert!(
        snap.get(Counter::SpuriousScFailures) > 0,
        "no spurious SC failures recorded under injection"
    );
    assert!(
        snap.get(Counter::CasFailures) > 0,
        "spurious SC failures never surfaced as CAS failures"
    );
}

#[test]
fn unbounded_kinds_report_segment_traffic() {
    // A small segment order (2^7 capacity) with 6k values forces segment
    // turnover, so the segment counters must move on the segmented kinds.
    let snap = verified_drain(QueueKind::WcqUnbounded);
    assert!(
        snap.get(Counter::SegmentAllocs) > 0,
        "no segments allocated"
    );
    let cache_lookups = snap.get(Counter::SegmentCacheHits) + snap.get(Counter::SegmentCacheMisses);
    assert!(cache_lookups > 0, "segment cache never consulted");
}

#[test]
fn ring_op_counters_count_operations_not_segment_construction() {
    // Order-4 segments: 160 values through one handle are carried by ten
    // segments, all enqueued before the first dequeue (so before any
    // segment can reach the cache), and building a segment is no
    // operation.  Every value is one `aq` enqueue on the way in: N.  On the
    // way out its index goes back to `fq` only if its segment has no
    // successor, which is the last segment alone: its 16 values, so 16 more
    // (the first nine had successors, and their 144 returns are skipped).
    // No stash goes back either: every segment's runs of 4 end empty (the
    // first takes 4 runs, each appended one a preload and 4 + 4 + 4 + 3).
    //
    // A segment's `fq` starts empty and is only ever asked while empty
    // here: every index comes from the claim counter, the preloads'
    // included.  An empty `fq` answers a claim at its threshold check, which
    // counts one ring dequeue, as an empty poll of `aq` does.  The claims
    // are the first segment's 4 runs, each appended segment's 4 (its
    // preload asks no ring), and the nine that found a segment full and
    // appended the next: 4 + 9 × 4 + 9 = 49.  The `aq` dequeues are N that
    // found a value; two empty polls at each of the nine crossings (the one
    // that finds the head segment drained, and the one after its
    // announcements were counted); and the drain of each of the five
    // retired segments the full cache (four slots) frees, one empty poll
    // each.
    const N: u64 = 160;
    let instr = CountingInstrument::new();
    let q: UnboundedWcq<u64> = UnboundedWcq::with_config_counters(
        4,
        1,
        WcqConfig::default(),
        Some(instr.counters().clone()),
    );
    {
        let mut h = q.register().expect("one slot free");
        for i in 0..N {
            h.enqueue(i);
        }
        for i in 0..N {
            assert_eq!(h.dequeue(), Some(i));
        }
    }
    let snap = instr.snapshot();
    // The constructor builds the first of the ten, uncounted.
    assert_eq!(snap.get(Counter::SegmentAllocs), 9);
    assert_eq!(snap.get(Counter::RingEnqueues), N + 16);
    assert_eq!(snap.get(Counter::RingDequeues), N + 2 * 9 + 5 + 49);
}

#[test]
fn channel_park_wake_close_counters_fire_on_a_real_round_trip() {
    let instr = CountingInstrument::new();
    let (tx, rx) = wcq::builder()
        .capacity_order(4)
        .threads(3)
        .backend(ChannelBackend::Unbounded)
        .instrument(instr.clone())
        .build_async::<u64>();

    let instr_tx = instr.clone();
    let sender = std::thread::spawn(move || {
        let mut tx = tx;
        // Hold the send until the receiver has genuinely parked, so the
        // park → wake round trip is guaranteed rather than racy.
        while instr_tx.counters().get(Counter::ChannelParks) == 0 {
            std::thread::yield_now();
        }
        block_on_instrumented(
            async { tx.send(7).await.expect("receiver alive") },
            &instr_tx,
        );
        // `tx` drops here: the last sender closes the channel.
    });

    let mut rx = rx;
    let instr_rx = CountingInstrument::new();
    let got = block_on_instrumented(async { rx.recv().await }, &instr_rx);
    sender.join().unwrap();
    assert_eq!(got, Ok(7));
    drop(rx);

    let snap = instr.snapshot();
    assert!(
        snap.get(Counter::ChannelParks) >= 1,
        "receiver never parked"
    );
    assert!(
        snap.get(Counter::ChannelWakes) >= 1,
        "the send never woke the parked receiver"
    );
    assert_eq!(
        snap.get(Counter::ChannelCloses),
        1,
        "the sender drop must close the channel exactly once"
    );
    // The receiver-side executor polled at least twice (pend, then wake) and
    // was woken at least once — the "woken by an enqueue, not by spinning"
    // shape, now visible through the unified counters.
    let exec = instr_rx.snapshot();
    assert!(
        exec.get(Counter::ExecPolls) >= 2,
        "receiver never suspended"
    );
    assert!(
        exec.get(Counter::ExecWakes) >= 1,
        "receiver was never woken"
    );
}

#[test]
fn paper_default_patience_keeps_a_single_thread_on_the_fast_path() {
    // §6: with MAX_PATIENCE = 16 (enqueue) / 64 (dequeue) the slow path is
    // taken "relatively infrequently"; with nobody to contend with, never.
    const PAIRS: u64 = 20_000;
    let instr = CountingInstrument::new();
    let q = wcq::builder()
        .instrument(instr.clone())
        .build_bounded::<u64>();
    {
        let mut h = q.register().expect("a free record");
        for i in 0..PAIRS {
            h.enqueue(i).expect("never more than one value queued");
            assert_eq!(h.dequeue(), Some(i));
        }
    }
    let snap = instr.snapshot();
    // A value is one `fq` dequeue + one `aq` enqueue on the way in and the
    // mirror pair on the way out.
    assert_eq!(snap.get(Counter::RingEnqueues), 2 * PAIRS);
    assert_eq!(snap.get(Counter::RingDequeues), 2 * PAIRS);
    assert_eq!(
        snap.get(Counter::PatienceExhaustedEnqueues) + snap.get(Counter::PatienceExhaustedDequeues),
        0
    );
    assert_eq!(snap.get(Counter::HelpingEntries), 0);
    assert_eq!(snap.slow_path_fraction(), 0.0);

    // The mirror, so the zeros above are not vacuous: at patience 1 the same
    // counters move as soon as one thread's ticket is overtaken by the
    // other's.  That needs the two to interleave inside one operation — true
    // parallelism, or a preemption at the right instruction on a single
    // core — so run rounds until it has happened rather than a fixed count.
    let instr = CountingInstrument::new();
    let q = wcq::builder()
        .capacity_order(4)
        .threads(2)
        .config(forced_slow())
        .instrument(instr.clone())
        .build_bounded::<u64>();
    let deadline = Instant::now() + Duration::from_secs(60);
    while instr.snapshot().slow_path_fraction() == 0.0 {
        assert!(
            Instant::now() < deadline,
            "two threads at patience 1 never left the fast path"
        );
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let mut h = q.register().expect("a free record");
                    for i in 0..PAIRS {
                        while h.enqueue(i).is_err() {}
                        let _ = h.dequeue();
                    }
                });
            }
        });
    }
}

#[test]
fn a_default_channel_message_is_four_ring_operations_across_window_boundaries() {
    // The default channel: 1 024-slot segments and 8 threads, so a producer
    // claims free indices, and a receiver reserves `fq` tail tickets for the
    // ones it frees, sixteen at a time.  The first run of sixteen messages
    // comes from the segment's claim counter, whose claim counts one ring
    // dequeue for the absent `fq`'s ⊥: 16 + 16 `aq` operations, 1, and 16
    // `fq` returns.  From then on a message is one `aq` enqueue and
    // dequeue, a sixteenth of a 16-index `fq` batch dequeue (16 ring
    // dequeues), and one `fq` return at the next ticket of the receiver's
    // window, counted once whether it reserved the window or not: 4.  The
    // loop crosses twenty window boundaries in the one segment, on both
    // hardware models.
    const RUN: u64 = 16;
    const MESSAGES: u64 = 20 * RUN;
    let ring_ops =
        |s: &MetricsSnapshot| s.get(Counter::RingEnqueues) + s.get(Counter::RingDequeues);
    for llsc in [false, true] {
        let instr = CountingInstrument::new();
        let builder = wcq::builder().instrument(instr.clone());
        let (mut tx, mut rx) = if llsc {
            builder.llsc().build_channel::<u64>()
        } else {
            builder.build_channel::<u64>()
        };
        for i in 0..RUN {
            tx.send(i).expect("the receiver is alive");
            assert_eq!(rx.try_recv(), Ok(i));
        }
        let first_run = instr.snapshot();
        assert_eq!(ring_ops(&first_run), 4 * RUN - (RUN - 1), "llsc: {llsc}");
        for i in RUN..RUN + MESSAGES {
            tx.send(i).expect("the receiver is alive");
            assert_eq!(rx.try_recv(), Ok(i));
        }
        let snap = instr.snapshot();
        assert_eq!(
            ring_ops(&snap) - ring_ops(&first_run),
            4 * MESSAGES,
            "llsc: {llsc}"
        );
        assert_eq!(
            snap.get(Counter::SegmentAllocs),
            0,
            "one segment throughout"
        );
    }
}

#[test]
fn a_default_channel_batch_is_one_ring_operation_per_index_on_each_ring() {
    // A `send_iter` of 64 on a fresh default channel claims its indices
    // from the segment's claim counter, after one ring dequeue for the
    // absent `fq`'s ⊥, and publishes them with one `aq` batch enqueue: 64
    // ring enqueues, 1 ring dequeue.  A `recv_many` of 64 takes them with
    // one `aq` batch dequeue, its run clamped to the 64 visible (64 ring
    // dequeues), and returns the freed indices with one `fq` batch enqueue
    // (64 ring enqueues, one per index whether it rode the run's ticket or
    // not): 2 × 64 enqueues and 64 + 1 dequeues, on both hardware models.
    const N: u64 = 64;
    let ops = |s: &MetricsSnapshot| (s.get(Counter::RingEnqueues), s.get(Counter::RingDequeues));
    for llsc in [false, true] {
        let instr = CountingInstrument::new();
        let builder = wcq::builder().instrument(instr.clone());
        let (mut tx, mut rx) = if llsc {
            builder.llsc().build_channel::<u64>()
        } else {
            builder.build_channel::<u64>()
        };
        let sent = tx.send_iter(0..N).expect("the receiver is alive");
        assert_eq!(sent, N as usize, "llsc: {llsc}");
        assert_eq!(ops(&instr.snapshot()), (N, 1), "llsc: {llsc}");
        let mut out = Vec::new();
        let got = rx.recv_many(&mut out, N as usize);
        assert_eq!(got, Ok(N as usize), "llsc: {llsc}");
        assert_eq!(out, (0..N).collect::<Vec<_>>(), "llsc: {llsc}");
        assert_eq!(ops(&instr.snapshot()), (2 * N, N + 1), "llsc: {llsc}");
    }
}
