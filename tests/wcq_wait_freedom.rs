//! Integration tests aimed at wCQ's wait-freedom machinery specifically:
//! forcing the slow path, exercising the helping protocol across many
//! registered threads, the LL/SC hardware model with injected spurious
//! failures, and the bounded-memory claim.

use std::sync::atomic::{AtomicU64, Ordering};

use wcq_core::wcq::{LlscFamily, NativeFamily, WcqConfig, WcqQueue};

/// Volume divisor: Miri interprets every atomic, so native-scale op counts
/// take hours there.  Shrinking volume (not threads or configs) preserves
/// what these tests check — the slow-path/helping machinery still engages on
/// every operation under `paranoid_config`.
const SHRINK: u64 = if cfg!(miri) { 50 } else { 1 };

/// A configuration that pushes every operation through the slow path and
/// helps on every operation, maximizing coverage of Figures 5–7.
fn paranoid_config() -> WcqConfig {
    WcqConfig {
        max_patience_enqueue: 1,
        max_patience_dequeue: 1,
        help_delay: 1,
        catchup_bound: 4,
    }
}

#[test]
fn forced_slow_path_mpmc_preserves_every_element() {
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 3_000 / SHRINK;
    let q: WcqQueue<u64> = wcq::builder()
        .capacity_order(6)
        .threads(THREADS as usize)
        .config(paranoid_config())
        .build_bounded();
    let sum = AtomicU64::new(0);
    let count = AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let q = &q;
            let sum = &sum;
            let count = &count;
            s.spawn(move || {
                let mut h = q.register().unwrap();
                for i in 0..PER_THREAD {
                    let mut v = t * PER_THREAD + i;
                    while let Err(back) = h.enqueue(v) {
                        v = back;
                        std::thread::yield_now();
                    }
                    if let Some(got) = h.dequeue() {
                        sum.fetch_add(got, Ordering::Relaxed);
                        count.fetch_add(1, Ordering::Relaxed);
                    }
                }
                while let Some(got) = h.dequeue() {
                    sum.fetch_add(got, Ordering::Relaxed);
                    count.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    let n = THREADS * PER_THREAD;
    assert_eq!(count.load(Ordering::Relaxed), n);
    assert_eq!(sum.load(Ordering::Relaxed), n * (n - 1) / 2);
}

#[test]
fn llsc_model_with_spurious_failures_is_still_correct() {
    // Inject a 20% spurious SC failure rate: the §4 construction must retry
    // and still never lose or duplicate an element.
    wcq_atomics::llsc::set_spurious_failure_rate(0.2);
    const THREADS: u64 = 2;
    const PER_THREAD: u64 = 2_000 / SHRINK;
    let q: WcqQueue<u64, LlscFamily> = WcqQueue::new(6, THREADS as usize);
    let count = AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let q = &q;
            let count = &count;
            s.spawn(move || {
                let mut h = q.register().unwrap();
                for i in 0..PER_THREAD {
                    let mut v = t * PER_THREAD + i;
                    while let Err(back) = h.enqueue(v) {
                        v = back;
                    }
                    if h.dequeue().is_some() {
                        count.fetch_add(1, Ordering::Relaxed);
                    }
                }
                while h.dequeue().is_some() {
                    count.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    wcq_atomics::llsc::set_spurious_failure_rate(0.0);
    assert_eq!(count.load(Ordering::Relaxed), THREADS * PER_THREAD);
}

#[test]
fn many_registered_threads_round_robin_helping() {
    // More threads than the help round-robin period, with aggressive helping.
    const THREADS: usize = 8;
    let q: WcqQueue<u64, NativeFamily> = wcq::builder()
        .capacity_order(8)
        .threads(THREADS)
        .config(paranoid_config())
        .build_bounded();
    let total = AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..THREADS as u64 {
            let q = &q;
            let total = &total;
            s.spawn(move || {
                let mut h = q.register().unwrap();
                for i in 0..1_500u64 / SHRINK {
                    let mut v = t * 10_000 + i;
                    while let Err(back) = h.enqueue(v) {
                        v = back;
                        std::thread::yield_now();
                    }
                    if h.dequeue().is_some() {
                        total.fetch_add(1, Ordering::Relaxed);
                    }
                }
                while h.dequeue().is_some() {
                    total.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(
        total.load(Ordering::Relaxed),
        THREADS as u64 * (1_500 / SHRINK)
    );
}

#[test]
fn memory_footprint_is_bounded_and_constant() {
    // Theorem 5.8: wCQ never allocates after construction.  Run a heavy
    // enqueue/dequeue churn and check the self-reported footprint does not
    // change (it is a pure function of capacity and max_threads).
    let q: WcqQueue<u64> = WcqQueue::new(10, 4);
    let before = q.memory_footprint();
    std::thread::scope(|s| {
        for _ in 0..2 {
            let q = &q;
            s.spawn(move || {
                let mut h = q.register().unwrap();
                for i in 0..50_000u64 / SHRINK {
                    while h.enqueue(i).is_err() {
                        let _ = h.dequeue();
                    }
                    let _ = h.dequeue();
                }
            });
        }
    });
    assert_eq!(q.memory_footprint(), before);
    // And the footprint is what the geometry says: O(2n entries × 16 bytes ×
    // two rings + data array + per-thread records), well under a megabyte for
    // a 1024-element queue.
    assert!(before < 1_000_000, "footprint {before} unexpectedly large");
}

#[test]
fn handles_can_be_reregistered_many_times() {
    let q: WcqQueue<u64> = WcqQueue::new(4, 2);
    for round in 0..200u64 {
        let mut h = q
            .register()
            .expect("slot must be released by previous drop");
        h.enqueue(round).unwrap();
        assert_eq!(h.dequeue(), Some(round));
    }
}
