//! Sharded-queue lifecycle and semantics (ISSUE 4):
//!
//! * a sharded handle holds one memoized segment binding *per shard*, and
//!   every binding follows forced segment growth (tiny `ring_order = 4`
//!   segments) without losing values;
//! * dropping the handle releases its record slot on every shard;
//! * work stealing: one consumer drains values enqueued on every shard;
//! * the full seeded stress oracle holds for both sharded kinds — this file
//!   is the `cargo test -q --test sharded` CI smoke.
//!
//! (`!Send`-ness of `ShardedWcqHandle` is enforced at compile time by its
//! `compile_fail` doctest in `wcq-unbounded`.)

use std::collections::HashSet;

use wcq::{Counter, CountingInstrument, Instrument, ShardPolicy, ShardedWcq, WaitFreeQueue};
use wcq_harness::{QueueKind, StressPlan};

const SHARDS: usize = 4;

fn tiny_segments(policy: ShardPolicy, threads: usize) -> ShardedWcq<u64> {
    tiny_segments_instrumented(policy, threads, wcq::NoopInstrument)
}

fn tiny_segments_instrumented(
    policy: ShardPolicy,
    threads: usize,
    instr: impl Instrument,
) -> ShardedWcq<u64> {
    // ring_order = 4: 16-slot segments, so a few hundred values force
    // growth, closing, retirement and recycling on every shard.
    wcq::builder()
        .capacity_order(4)
        .threads(threads)
        .shards(SHARDS)
        .shard_policy(policy)
        .instrument(instr)
        .build_sharded()
}

#[test]
fn every_shard_binding_follows_forced_segment_growth() {
    let instr = CountingInstrument::new();
    let q = tiny_segments_instrumented(ShardPolicy::RoundRobin, 2, instr.clone());
    let mut h = q.handle();
    // 400 round-robin values: 100 per 16-slot-segment shard, so every shard
    // crosses several segments while its binding chases the tail.
    for i in 0..400 {
        h.enqueue(i);
    }
    // A value only reaches a later segment through a binding that moved
    // there, so per-shard growth is per-shard rebinding.
    let grown: usize = (q.shards().iter())
        .map(|shard| shard.segments_allocated())
        .inspect(|&segments| assert!(segments > 1, "every shard must have grown"))
        .sum();
    let mut seen = HashSet::new();
    while let Some(v) = h.dequeue() {
        assert!(seen.insert(v), "duplicated {v}");
    }
    assert_eq!(seen.len(), 400, "growth must not lose values");
    h.flush_reclamation();
    drop(h); // flushes every per-shard handle's rebind tally
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
    let q = tiny_segments(ShardPolicy::Pinned, 2);
    let mut h1 = q.handle();
    // Touch every shard so each inner handle holds a live segment binding —
    // drop must release bindings *and* slots.
    for shard in 0..SHARDS as u64 {
        h1.enqueue(shard);
    }
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
    let q = tiny_segments(ShardPolicy::RoundRobin, 3);
    std::thread::scope(|s| {
        // One producer spreads values across all shards (round-robin)...
        s.spawn(|| {
            let mut h = q.handle();
            for i in 0..SHARDS as u64 * PER_SHARD {
                h.enqueue(i);
            }
        });
    });
    // ...and every shard really holds a share.
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
    assert!(q.is_empty_hint(), "drained queue hints empty");
}

#[test]
fn pinned_producers_preserve_per_producer_fifo_through_stealing() {
    const PRODUCERS: usize = 3;
    const PER_PRODUCER: u64 = 2_000;
    let q = tiny_segments(ShardPolicy::Pinned, PRODUCERS + 1);
    std::thread::scope(|s| {
        for p in 0..PRODUCERS as u64 {
            let q = &q;
            s.spawn(move || {
                let mut h = q.handle();
                for i in 0..PER_PRODUCER {
                    h.enqueue(p * PER_PRODUCER + i);
                }
            });
        }
        let q = &q;
        s.spawn(move || {
            let mut h = q.handle();
            let mut last = [0u64; PRODUCERS];
            let mut got = 0u64;
            while got < PRODUCERS as u64 * PER_PRODUCER {
                if let Some(v) = h.dequeue() {
                    let producer = (v / PER_PRODUCER) as usize;
                    let seq = v % PER_PRODUCER + 1;
                    assert!(
                        seq > last[producer],
                        "producer {producer}: seq {seq} after {}",
                        last[producer]
                    );
                    last[producer] = seq;
                    got += 1;
                } else {
                    std::thread::yield_now();
                }
            }
        });
    });
}

#[test]
fn stress_oracle_holds_for_sharded_kinds_under_forced_growth() {
    // The CI sharded-stress smoke: both hardware models, tiny segments, the
    // full loss/duplication/invention/pinned-producer-FIFO oracle.
    for kind in [QueueKind::WcqSharded, QueueKind::WcqShardedLlsc] {
        let mut plan = StressPlan::from_seed(kind, 0x5AAD_ED01);
        plan.ring_order = 4; // 16-slot segments << ops_per_producer
        assert!(plan.pin_producers, "sharded plans pin by default");
        plan.assert_holds();
    }
}

#[test]
fn stress_oracle_holds_for_adaptive_routing_under_forced_growth() {
    // The adaptive kind runs unpinned by construction (the active-prefix
    // router deliberately spreads producers), so the oracle checks
    // loss/duplication/invention while the prefix grows and shrinks across
    // tiny 16-slot segments.
    let mut plan = StressPlan::from_seed(QueueKind::WcqShardedAdaptive, 0x5AAD_ED03);
    plan.ring_order = 4;
    assert!(
        !plan.pin_producers,
        "adaptive plans are unpinned by construction"
    );
    plan.assert_holds();
}

#[test]
fn stress_oracle_relaxed_variant_spreads_producers() {
    // The unpinned plan variant: round-robin routing spreads each producer
    // across shards; loss/duplication/invention still hold (FIFO is
    // deliberately out of contract — see StressPlan::pin_producers).
    let mut plan = StressPlan::from_seed(QueueKind::WcqSharded, 0x5AAD_ED02);
    plan.pin_producers = false;
    plan.ring_order = 4;
    plan.assert_holds();
}
