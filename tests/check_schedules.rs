//! Regression corpus of checker schedules (tier-1).
//!
//! Each entry is a `(plan_seed, target, sched_seed, depth)` tuple that the
//! `wcq-check` explorer once flagged — either a genuine algorithm bug or a
//! miscompilation — replayed here as a deterministic regression test.  The
//! scheduler serializes execution, so each replay is exact: same
//! interleaving, same oracle observations, every time.
//!
//! To add an entry: take the coordinates a violation prints, confirm the fix
//! with `wcq-check --replay <plan> <target> <seed> <depth>`, then append the
//! tuple with the yield-point count that replay prints (`pass (N yield
//! points)`) and a comment naming the bug it pins down.  The count is the
//! same in every build profile; if a change moves it, the entry now replays
//! a different interleaving, so re-check that it still reaches the bug's
//! window before updating it.

use wcq_check::{replay, Target};

/// `(plan_seed, target, sched_seed, depth, yield points, what it caught)`
const CORPUS: &[(u64, Target, u64, u32, u64, &str)] = &[
    // Slow-path enqueue treated a dequeuer's `⊥` burn marker on the agreed
    // ticket as "already inserted" and lost the element (missing
    // `Index != ⊥` guard on try_enq_slow's cycle-match branch).  Three
    // targets caught the same bug independently.  (Since the native targets
    // run the shipped cells, with one yield point per cell operation, the
    // `Bounded` and `Unbounded` replays run other interleavings; with the
    // guard removed both still lose the element, and the consumer polls
    // until the step bound.)
    (
        3,
        Target::Bounded,
        0x7,
        4,
        313,
        "slow-path enqueue lost element on burned ticket",
    ),
    (
        5,
        Target::BoundedLlsc,
        0x7,
        4,
        255,
        "slow-path enqueue lost element (LL/SC model)",
    ),
    (
        3,
        Target::Unbounded,
        0x7,
        4,
        884,
        "slow-path enqueue lost element (segmented queue)",
    ),
    // Register-allocation hazard in the cmpxchg16b inline asm: LLVM could
    // place the pointer operand in rbx, which the rbx save/restore xchg
    // clobbers — a null-write segfault in release builds only.  The checker
    // surfaced it by generating enough register pressure; the operands are
    // now pinned (rdi / r8b).  The bug was in the compiled asm, so no
    // mutation of today's source re-creates it: since the native targets run
    // the shipped cells this replay runs another interleaving, re-pinned
    // without proof that it would still reach the clobber.
    (
        2,
        Target::Bounded,
        0x3C6E_F372_FE94_F82C,
        1,
        310,
        "cmpxchg16b asm operand clobbered by rbx save/restore",
    ),
    // `try_deq_slow` reported a slow dequeue request finished when its FIN
    // CAS *failed* because `slow_faa` had moved the request to a later
    // ticket.  The owner then exited `dequeue_slow`, gathered a stale
    // ticket, and abandoned the live request — after which an in-flight
    // helper finalized it at a freshly deposited ticket nobody gathered,
    // stranding that element forever (19/20 consumed, one value wedged in
    // the ring at an old cycle).  A failed FIN CAS with no FIN bit visible
    // now returns "keep helping".
    (
        2,
        Target::BoundedLlsc,
        0x3C6E_F372_FE94_F836,
        4,
        749,
        "owner abandoned live dequeue request on failed FIN CAS",
    ),
    (
        2,
        Target::BoundedLlsc,
        0x3C6E_F372_FE94_F83E,
        16,
        892,
        "owner abandoned live dequeue request (secondary schedule)",
    ),
    // A helper that checked `seq1 == seq` once, at its snapshot, and was
    // delayed past it: the owner finished that request and published its
    // next one, and the helper's `slow_faa` read the *new* request's
    // `local_tail` (no `INC`, no `FIN`) as the agreed ticket.  It then
    // deposited the *old* index there and FINed the new request: one value
    // duplicated, another lost.  The slow path now re-reads `seq1` after
    // every agreed ticket and stops once the helpee has moved on.  (Since
    // the native targets run the shipped cells, the first `Bounded` seed,
    // 0xDAA6_6D2C_7DDF_7550, passes with the bug put back; this one was the
    // first of plan 3's in a `--explore 24 300` sweep with the bug back.)
    (
        3,
        Target::Bounded,
        0xDAA6_6D2C_7DDF_74FA,
        16,
        577,
        "stale slow-path helper deposited an old index at a new request's ticket",
    ),
    (
        7,
        Target::BoundedLlsc,
        0x5384_5412_7B09_64CA,
        16,
        1209,
        "stale slow-path helper broke per-producer FIFO (LL/SC model)",
    ),
    // Since half the channel plans run the unbounded backend, plan 1's does,
    // without the forced slow path, and this replay no longer reaches the
    // FIN CAS window: it passes with that bug put back, as it did before
    // the segment announcement and then the claim counter moved its count.
    // With the bug back, no schedule of plan 1 reached it in a search of
    // 900 seeds (300 at each of depths 1, 4 and 16).  The two `BoundedLlsc`
    // entries above still fail with it.  Kept as a channel regression.
    (
        1,
        Target::Channel,
        0x9E37_79B9_7F4A_7C1B,
        16,
        399,
        "stranded element surfaced as channel recv livelock",
    ),
    (
        4,
        Target::Channel,
        0x78DD_E6E5_FD29_F06F,
        4,
        1085,
        "stranded element surfaced as channel recv livelock (2 producers)",
    ),
    // `Backoff::snooze_or_yield` was not a checkpoint: the segmented queue's
    // dequeue spin-waits on a peer's in-flight enqueue credit, and under the
    // token scheduler the waiter span forever without ever yielding — a hang
    // the step bound could not even see.  The backoff now passes through the
    // checkpoint seam.  Under this schedule the consumer's wait for an
    // in-flight enqueue passes no other yield point: with the checkpoint
    // removed from `snooze_or_yield`, this replay hangs.  (Re-found twice,
    // each time by a seed search for the first replay to hang without the
    // checkpoint: when segments began taking fresh indices from a claim
    // counter, and when the native targets began running the shipped cells.
    // Re-pinned 1534 -> 1540 when a segment's `fq` became a ring installed on
    // the first index handed back: its clear moved from the cache's take,
    // which read an untouched ring's `Head` and `Tail` through the cells on
    // every reuse, to the recycler, only for a segment that got an `fq`.
    // With the checkpoint removed, this replay still hangs.)
    (
        4,
        Target::Unbounded,
        0x78DD_E6E5_FD29_F077,
        16,
        1540,
        "uninstrumented backoff spin-wait hung the token scheduler",
    ),
    // Pins the sharded queue's ordering contract rather than a fixed bug.
    // Plan 3 is one producer (home shard 0) forced down the slow path across
    // a segment boundary, and two consumers: one whose home is shard 0, one
    // whose home is the empty shard 1, so all it ever gets it steals.  Under
    // this schedule six of the eleven values are stolen (`ShardSteals`), and
    // the oracle asserts per-producer FIFO on both consumers' views.
    (
        3,
        Target::Sharded,
        0xDAA6_6D2C_7DDF_7443,
        4,
        783,
        "steals racing the home shard's producer must keep its FIFO order",
    ),
    // Pins the hazard memo's miss condition rather than a fixed bug: under
    // this seed the stalled dequeue is a memo *miss* (the handle's memo is
    // the tail segment, not the head), stopped while it gives its stash back
    // to that memo, before it protects the head it loaded.  The turnover
    // recycles that head, so only the protect's revalidation sends the
    // dequeue to the new one.  The `check-mutations` mutant that publishes
    // the loaded pointer unrevalidated fails exactly here ("a dequeue
    // returned None where the sequential model holds ..."); if a memo hit
    // is ever inferred from anything weaker than `src == bound`, so does the
    // real tree.  (The count is every yield point of the run, so it fell
    // 734 -> 390 when each cell operation became one yield point, not two,
    // and rose to 392 when the `fq` clear moved from the cache's take to the
    // recycler (see the `Unbounded` entry above), then to 393 when a
    // receiver began returning indices on `fq` tickets it reserves a run at
    // a time and a producer whose `fq` batch comes back short began taking
    // the rest from the claim counter, which moved every later yield point;
    // the mutant still fails here, with the same message, every time.)
    (
        1,
        Target::HazardWindow,
        0x9E37_79B9_7F4A_7C1F,
        1,
        393,
        "a segment pinned by a stalled memo-miss dequeue must not be recycled",
    ),
    // Pins the unbounded channel's close rather than a fixed bug: plan 2 is
    // two producers on the unbounded backend's 4-slot segments, and the
    // receiver closes after 10 values.  The `check-mutations` mutant whose
    // close returns without linking `SHUT` fails exactly here ("worker 1
    // seq 10 was accepted by a send that started after the channel's close
    // had returned"): the queue stays open.  If an enqueue can ever be
    // admitted after a completed close, so does the real tree.  (275 -> 279
    // when a producer that lost the append race stopped handing its
    // preloaded index back to the abandoned segment's `fq`: the `fq` ring
    // enqueue it no longer makes moved every later yield point; the mutant
    // still fails here, with the same message.)
    (
        2,
        Target::Channel,
        0x3C6E_F372_FE94_F82B,
        1,
        279,
        "an enqueue that starts after the close must not append a segment",
    ),
];

#[test]
fn regression_schedules_replay_clean() {
    // Each replay is a few hundred to a few thousand serialized yields;
    // under Miri even one is too slow, and the inline-asm entry cannot
    // execute there at all (Miri routes AtomicDouble to the lock fallback,
    // which is fine, but serialized scheduling is still minutes per run).
    if cfg!(miri) {
        return;
    }
    // A replay is one exact schedule only if every build profile passes the
    // same yield points: a different count means this build explores some
    // other interleaving than the one pinned.
    let mut failures = Vec::new();
    for &(plan_seed, target, sched_seed, depth, yields, what) in CORPUS {
        let at = format!(
            "regression schedule (plan {plan_seed}, {}, seed {sched_seed:#x}, depth {depth})",
            target.name()
        );
        match replay(plan_seed, target, sched_seed, depth) {
            Err(v) => failures.push(format!("{at} failed again — `{what}` has resurfaced:\n{v}")),
            Ok(steps) if steps != yields => failures.push(format!(
                "{at} passed {steps} yield points, not {yields}: it ran another \
                 schedule than the one that pins `{what}`"
            )),
            Ok(_) => {}
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
