//! Quickstart: the smallest useful wCQ program, through the `wcq` facade.
//!
//! One builder call constructs the queue; `handle()` registers a handle
//! (RAII — the record slot is released when the handle drops, and the next
//! registration reclaims it with one CAS through the registry's free-slot
//! hint).  The example moves a million integers producer → consumer and
//! prints the fast-path/slow-path split from the metrics snapshot at the end.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::time::Instant;

use wcq::{Counter, CountingInstrument, WaitFreeQueue};

const ITEMS: u64 = 1_000_000;

fn main() {
    // Capacity 2^12 = 4096 elements, up to 4 registered threads; the
    // counting instrument is what makes the statistics below readable.
    let instr = CountingInstrument::new();
    let queue = wcq::builder()
        .capacity_order(12)
        .threads(4)
        .instrument(instr.clone())
        .build_bounded::<u64>();
    let start = Instant::now();

    std::thread::scope(|s| {
        // Producer: the trait handle's `enqueue` retries while the bounded
        // queue is full — backpressure without hand-rolled loops.  (Use
        // `try_enqueue` for an explicit full/`Err` signal instead.)
        s.spawn(|| {
            let mut handle = queue.handle();
            for i in 0..ITEMS {
                handle.enqueue(i);
            }
        });

        s.spawn(|| {
            let mut handle = queue.handle();
            let mut received = 0u64;
            let mut sum = 0u64;
            while received < ITEMS {
                match handle.dequeue() {
                    Some(v) => {
                        sum += v;
                        received += 1;
                    }
                    None => std::thread::yield_now(),
                }
            }
            assert_eq!(
                sum,
                ITEMS * (ITEMS - 1) / 2,
                "no element lost or duplicated"
            );
            println!("consumer done: {received} items, checksum OK");
        });
    });

    let elapsed = start.elapsed();
    let snap = instr.snapshot();
    println!(
        "  ring ops: {} fast, {} slow enqueues + {} slow dequeues (slow-path fraction {:.6})",
        snap.fast_ring_ops(),
        snap.get(Counter::PatienceExhaustedEnqueues),
        snap.get(Counter::PatienceExhaustedDequeues),
        snap.slow_path_fraction()
    );
    println!(
        "moved {ITEMS} items in {:.3} s ({:.2} Mops/s enqueue+dequeue)",
        elapsed.as_secs_f64(),
        2.0 * ITEMS as f64 / elapsed.as_secs_f64() / 1e6
    );
    println!(
        "queue memory footprint: {} KiB (bounded — Theorem 5.8)",
        WaitFreeQueue::<u64>::memory_footprint(&queue) / 1024
    );
}
