//! Sharded-queue lifecycle and semantics (ISSUE 4):
//!
//! * a sharded handle holds one memoized segment binding *per shard*, and
//!   every binding follows forced segment growth (tiny `ring_order = 4`
//!   segments) without losing values;
//! * dropping the handle releases its record slot on every shard;
//! * work stealing: one consumer drains values enqueued on every shard, and
//!   the counting instrument tallies each steal;
//! * per-producer FIFO, no loss and no duplication hold for pinned producers
//!   on both hardware models under the forced slow path — this file is the
//!   `cargo test -q --test sharded` CI smoke.
//!
//! (`!Send`-ness of `ShardedWcqHandle` is enforced at compile time by its
//! `compile_fail` doctest in `wcq-unbounded`.)

use std::collections::HashSet;

use wcq::unbounded::{ShardedWcq, ShardedWcqHandle};
use wcq::{CellFamily, Counter, CountingInstrument, Instrument, WcqConfig};

const SHARDS: usize = 4;

fn tiny_segments(threads: usize) -> ShardedWcq<u64> {
    tiny_segments_instrumented(threads, wcq::NoopInstrument)
}

fn tiny_segments_instrumented(threads: usize, instr: impl Instrument) -> ShardedWcq<u64> {
    // ring_order = 4: 16-slot segments, so a few hundred values force
    // growth, closing, retirement and recycling on every shard.
    wcq::builder()
        .capacity_order(4)
        .threads(threads)
        .shards(SHARDS)
        .instrument(instr)
        .build_sharded()
}

/// One live producer handle per shard: handles held at once own distinct
/// record slots, hence distinct home shards — the way to put traffic on
/// every shard under home-shard routing.
fn producer_per_shard(q: &ShardedWcq<u64>) -> Vec<ShardedWcqHandle<'_, u64>> {
    let producers: Vec<_> = (0..SHARDS).map(|_| q.handle()).collect();
    let homes: HashSet<usize> = producers.iter().map(|h| h.home_shard()).collect();
    assert_eq!(
        homes.len(),
        SHARDS,
        "distinct tids must give distinct homes"
    );
    producers
}

#[test]
fn every_shard_binding_follows_forced_segment_growth() {
    let instr = CountingInstrument::new();
    let q = tiny_segments_instrumented(SHARDS, instr.clone());
    let mut producers = producer_per_shard(&q);
    // 100 values per 16-slot-segment shard, so every shard crosses several
    // segments while its producer's binding chases the tail.
    for (p, h) in producers.iter_mut().enumerate() {
        for i in 0..100 {
            h.enqueue(p as u64 * 100 + i);
        }
    }
    // A value only reaches a later segment through a binding that moved
    // there, so per-shard growth is per-shard rebinding.
    let grown: usize = (q.shards().iter())
        .map(|shard| shard.segments_allocated())
        .inspect(|&segments| assert!(segments > 1, "every shard must have grown"))
        .sum();
    // One handle drains all four shards: its own by home, the rest by
    // stealing, each through its own per-shard binding.
    let h = &mut producers[0];
    let mut seen = HashSet::new();
    while let Some(v) = h.dequeue() {
        assert!(seen.insert(v), "duplicated {v}");
    }
    assert_eq!(seen.len(), 400, "growth must not lose values");
    for h in &mut producers {
        h.flush_reclamation();
    }
    drop(producers); // flushes every per-shard handle's rebind tally
    let rebinds = instr.snapshot().get(Counter::SegmentRebinds);
    assert!(
        rebinds >= grown as u64,
        "one rebind per segment crossed at least: {rebinds} rebinds, {grown} segments"
    );
    for (i, shard) in q.shards().iter().enumerate() {
        assert_eq!(
            shard.segments_live(),
            1,
            "shard {i} must shrink back to one live segment"
        );
    }
}

#[test]
fn handle_drop_releases_every_shard_slot() {
    let q = tiny_segments(2);
    let mut h1 = q.handle();
    // Touch every shard so each inner handle holds a live segment binding —
    // drop must release bindings *and* slots.  (The second dequeue scans all
    // four shards before answering empty.)
    h1.enqueue(7);
    assert_eq!(h1.dequeue(), Some(7));
    assert_eq!(h1.dequeue(), None);
    let _h2 = q.handle();
    assert!(q.register().is_none(), "both slots taken on every shard");
    drop(h1);
    assert!(
        q.register().is_some(),
        "drop must release one slot on every shard"
    );
    // Underneath, each shard individually has a free slot again.
    drop(_h2);
    let handles: Vec<_> = q
        .shards()
        .iter()
        .map(|s| s.register().expect("slot free after drops"))
        .collect();
    drop(handles);
}

#[test]
fn one_consumer_steals_from_every_shard() {
    const PER_SHARD: u64 = 200;
    let q = tiny_segments(SHARDS);
    // Four producers, one per shard...
    for (p, h) in producer_per_shard(&q).iter_mut().enumerate() {
        for i in 0..PER_SHARD {
            h.enqueue(p as u64 * PER_SHARD + i);
        }
    }
    // ...so every shard really holds a share.
    for (i, shard) in q.shards().iter().enumerate() {
        assert_eq!(shard.len_hint(), PER_SHARD as usize, "shard {i} share");
    }
    // A single consumer (whose home shard is just one of the four) must
    // recover every value by stealing from the other three.
    let mut consumer = q.handle();
    let mut seen = HashSet::new();
    while let Some(v) = consumer.dequeue() {
        assert!(seen.insert(v), "duplicated {v}");
    }
    assert_eq!(seen.len(), (SHARDS as u64 * PER_SHARD) as usize);
    assert_eq!(q.len_hint(), 0, "drained queue hints empty");
}

#[test]
fn sharded_queue_reports_routing() {
    const VALUES: u64 = 500;
    let instr = CountingInstrument::new();
    let queue = wcq::builder()
        .capacity_order(6)
        .threads(2)
        .shards(SHARDS)
        .instrument(instr.clone())
        .build_sharded::<u64>();
    {
        // Two live handles own distinct record slots, hence distinct home
        // shards: everything the consumer gets, it steals from the
        // producer's shard.
        let mut producer = queue.handle();
        let mut consumer = queue.handle();
        for i in 0..VALUES {
            producer.enqueue(i);
        }
        for i in 0..VALUES {
            assert_eq!(consumer.dequeue(), Some(i));
        }
        // The producer's own dequeues start at home: no steal.
        producer.enqueue(VALUES);
        assert_eq!(producer.dequeue(), Some(VALUES));
    }
    assert_eq!(instr.snapshot().get(Counter::ShardSteals), VALUES);
}

/// Patience 1 and help delay 1: every failed fast-path attempt takes the
/// wait-free slow path, and helping is checked on every operation.
fn forced_slow() -> WcqConfig {
    WcqConfig {
        max_patience_enqueue: 1,
        max_patience_dequeue: 1,
        help_delay: 1,
        ..WcqConfig::default()
    }
}

#[test]
fn pinned_producers_preserve_per_producer_fifo_through_stealing() {
    const PRODUCERS: usize = 3;
    // Tiny segments, so both hardware models cross many segments per shard.
    let sharded = || {
        wcq::builder()
            .capacity_order(4)
            .threads(PRODUCERS + 1)
            .shards(SHARDS)
            .config(forced_slow())
    };
    pinned_producers_keep_fifo(&sharded().build_sharded(), PRODUCERS);
    pinned_producers_keep_fifo(&sharded().llsc().build_sharded(), PRODUCERS);
}

/// `producers` threads each enqueue their own ascending run while one
/// consumer drains every shard, stealing from those that are not its home:
/// each producer's values must come out in order, each exactly once.
fn pinned_producers_keep_fifo<F: CellFamily>(q: &ShardedWcq<u64, F>, producers: usize) {
    const PER_PRODUCER: u64 = 2_000;
    std::thread::scope(|s| {
        for p in 0..producers as u64 {
            s.spawn(move || {
                let mut h = q.handle();
                for i in 0..PER_PRODUCER {
                    h.enqueue(p * PER_PRODUCER + i);
                }
            });
        }
        s.spawn(move || {
            let mut h = q.handle();
            let mut last = vec![0u64; producers];
            let mut got = 0u64;
            while got < producers as u64 * PER_PRODUCER {
                if let Some(v) = h.dequeue() {
                    let producer = (v / PER_PRODUCER) as usize;
                    let seq = v % PER_PRODUCER + 1;
                    assert!(
                        seq > last[producer],
                        "{}: producer {producer}: seq {seq} after {}",
                        F::NAME,
                        last[producer]
                    );
                    last[producer] = seq;
                    got += 1;
                } else {
                    std::thread::yield_now();
                }
            }
            assert_eq!(h.dequeue(), None, "nothing beyond the producers' runs");
        });
    });
    assert_eq!(q.len_hint(), 0);
}
