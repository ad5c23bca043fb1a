//! # wcq-unbounded
//!
//! **wLSCQ** — an unbounded MPMC FIFO queue built from linked wCQ ring
//! segments, the paper's §2.3 recipe ("SCQ rings can be linked into LSCQ to
//! make the queue unbounded") applied to the *wait-free* wCQ ring.
//!
//! ## Architecture
//!
//! ```text
//!  head ──▶ [Segment] ──▶ [Segment] ──▶ [Segment] ◀── tail
//!            wCQ ring      wCQ ring      wCQ ring
//!            (drained:     (partially    (accepting
//!             retire via    full)         enqueues)
//!             hazard ptrs)
//!                 │                           ▲
//!                 ▼                           │
//!            SegmentCache ────────────────────┘  (bounded reuse free-list)
//! ```
//!
//! * Every segment is a bounded, wait-free [`wcq_core::wcq::WcqQueue`], and
//!   inner operations inherit its wait-freedom and bounded memory.  The
//!   queue as a whole does not: a dequeuer crossing to the next segment waits
//!   (in `dequeue_crossing`) for enqueuers that claimed the drained one
//!   before it closed, so one preempted enqueuer stalls every dequeuer there
//!   — blocking, not lock-free (ROADMAP item 3 is the fix).
//! * When the tail segment fills up — its free-index ring says so — it is
//!   **closed** (one bit on the segment's in-flight word, as LCRQ closes a
//!   ring) and a fresh segment — pre-loaded with the element that triggered
//!   the append, as in LCRQ — is linked behind it.
//! * Drained segments are unlinked by dequeuers and **retired** through a
//!   [`wcq_reclaim::HazardDomain`]; once unprotected they are **recycled**
//!   into a bounded [`DEFAULT_SEGMENT_CACHE`]-sized free-list, so steady
//!   traffic performs no per-operation allocation.
//! * The whole queue is generic over the paper's two hardware models
//!   ([`wcq_core::wcq::NativeFamily`], [`wcq_core::wcq::LlscFamily`]).
//! * [`ShardedWcq`] puts `N` independent wLSCQ shards behind one handle: an
//!   enqueue goes to the handle's home shard, a dequeue scans home-first and
//!   steals.  It keeps only per-producer FIFO, so it is no facade queue; the
//!   `benchmark/` ledger's sharded rungs are its only users.
//!
//! ## Example
//!
//! ```
//! use wcq_unbounded::UnboundedWcq;
//!
//! // 2^4-element segments, up to 4 registered threads, unbounded overall.
//! let q: UnboundedWcq<u64> = UnboundedWcq::new(4, 4);
//! std::thread::scope(|s| {
//!     s.spawn(|| {
//!         let mut h = q.register().unwrap();
//!         for i in 0..1000 {
//!             h.enqueue(i); // never fails: the queue grows by segments
//!         }
//!     });
//!     s.spawn(|| {
//!         let mut h = q.register().unwrap();
//!         let mut got = 0;
//!         while got < 1000 {
//!             if h.dequeue().is_some() {
//!                 got += 1;
//!             }
//!         }
//!     });
//! });
//! assert_eq!(q.segments_live(), 1); // drained segments were retired
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod queue;
mod segment;
mod shard;

pub use queue::{SegmentStats, UnboundedWcq, UnboundedWcqHandle, DEFAULT_SEGMENT_CACHE};
pub use shard::{ShardedWcq, ShardedWcqHandle};
