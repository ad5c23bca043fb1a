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
//! tuple with a comment naming the bug it pins down.

use wcq_check::{replay, Target};

/// `(plan_seed, target, sched_seed, depth, what it caught)`
const CORPUS: &[(u64, Target, u64, u32, &str)] = &[
    // Slow-path enqueue treated a dequeuer's `⊥` burn marker on the agreed
    // ticket as "already inserted" and lost the element (missing
    // `Index != ⊥` guard on try_enq_slow's cycle-match branch).  Three
    // targets caught the same bug independently.
    (
        3,
        Target::Bounded,
        0x7,
        4,
        "slow-path enqueue lost element on burned ticket",
    ),
    (
        5,
        Target::BoundedLlsc,
        0x7,
        4,
        "slow-path enqueue lost element (LL/SC model)",
    ),
    (
        3,
        Target::Unbounded,
        0x7,
        4,
        "slow-path enqueue lost element (segmented queue)",
    ),
    // Register-allocation hazard in the cmpxchg16b inline asm: LLVM could
    // place the pointer operand in rbx, which the rbx save/restore xchg
    // clobbers — a null-write segfault in release builds only.  The checker
    // surfaced it by generating enough register pressure; the operands are
    // now pinned (rdi / r8b).
    (
        2,
        Target::Bounded,
        0x3C6E_F372_FE94_F82C,
        1,
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
        "owner abandoned live dequeue request on failed FIN CAS",
    ),
    (
        2,
        Target::BoundedLlsc,
        0x3C6E_F372_FE94_F83E,
        16,
        "owner abandoned live dequeue request (secondary schedule)",
    ),
    (
        1,
        Target::Channel,
        0x9E37_79B9_7F4A_7C1B,
        16,
        "stranded element surfaced as channel recv livelock",
    ),
    (
        4,
        Target::Channel,
        0x78DD_E6E5_FD29_F06F,
        4,
        "stranded element surfaced as channel recv livelock (2 producers)",
    ),
    // `Backoff::snooze_or_yield` was not a checkpoint: the segmented queue's
    // dequeue spin-waits on a peer's in-flight enqueue credit, and under the
    // token scheduler the waiter span forever without ever yielding — a hang
    // the step bound could not even see.  The backoff now passes through the
    // checkpoint seam.
    (
        6,
        Target::Unbounded,
        0xB54C_DA58_FBBE_E880,
        16,
        "uninstrumented backoff spin-wait hung the token scheduler",
    ),
    // Pins the sharded queue's ordering contract rather than a fixed bug.
    // Plan 3 is one producer (home shard 0) forced down the slow path across
    // a segment boundary, and two consumers: one whose home is shard 0, one
    // whose home is the empty shard 1, so all it ever gets it steals.  Under
    // this schedule four of the eleven values are stolen while the producer
    // is still enqueueing on that shard, and the oracle asserts per-producer
    // FIFO on both consumers' views.  If an enqueue ever leaves its handle's
    // home shard, this replay is the first to see a producer reordered.
    (
        3,
        Target::Sharded,
        0xDAA6_6D2C_7DDF_7443,
        4,
        "steals racing the home shard's producer must keep its FIFO order",
    ),
    // Pins the hazard memo's miss condition rather than a fixed bug: under
    // this seed the stalled dequeue is a memo *miss* (the handle's binding is
    // not on the head segment), so only hazard slot 0 keeps the head segment
    // from being recycled during the turnover.  The `check-mutations` mutant
    // that skips slot 0 fails exactly here ("a dequeue returned None where
    // the sequential model holds ..."); if a memo hit is ever inferred from
    // anything weaker than `src == bound`, so does the real tree.
    (
        1,
        Target::HazardWindow,
        0x9E37_79B9_7F4A_7C1F,
        1,
        "a segment pinned by a stalled memo-miss dequeue must not be recycled",
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
    for &(plan_seed, target, sched_seed, depth, what) in CORPUS {
        if let Err(v) = replay(plan_seed, target, sched_seed, depth) {
            panic!(
                "regression schedule (plan {plan_seed}, {}, seed {sched_seed:#x}, \
                 depth {depth}) failed again — `{what}` has resurfaced:\n{v}",
                target.name()
            );
        }
    }
}
