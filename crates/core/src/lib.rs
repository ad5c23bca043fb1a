//! # wcq-core
//!
//! A from-scratch Rust reproduction of **wCQ — a fast wait-free MPMC queue
//! with bounded memory usage** (Nikolaev & Ravindran, SPAA '22), together with
//! the lock-free **SCQ** queue it is built on (Nikolaev, DISC '19, Figure 3 of
//! the wCQ paper).
//!
//! ## What is provided
//!
//! * [`ring::Ring`] — Figure 3's `try_enq` / `try_deq` / `catchup` /
//!   `consume`, written once, generic over the cells it runs on and a slot
//!   for slow-path state.
//! * [`scq::ScqRing`] / [`scq::ScqQueue`] — the lock-free circular queue used
//!   as wCQ's fast path and as a baseline in every figure of the paper: that
//!   ring over single-word cells, with nothing in the slot.
//! * [`wcq::WcqRing`] / [`wcq::WcqQueue`] — the wait-free circular queue: the
//!   same ring plus the paper's slow path (`slow_F&A`, phase-2 help
//!   requests, `Note` invalidation, `FIN`/`INC` bits) and the Kogan-Petrank
//!   style helping scheme of Figure 6.
//! * [`wcq::NativeFamily`] / [`wcq::LlscFamily`] — the two hardware models of
//!   the paper: double-width CAS (x86-64/AArch64, §3) and single-word LL/SC
//!   (PowerPC/MIPS, §4 / Figure 9; emulated in software, see `wcq-atomics`).
//! * [`pack::Layout`] — the bit-level entry encoding (`Cycle`, `IsSafe`,
//!   `Enq`, `Index`, `⊥`, `⊥c`) and the `Cache_Remap` permutation shared by
//!   both queues.
//!
//! ## Usage model
//!
//! Both queues are *bounded* (capacity fixed at construction, memory usage
//! bounded — Theorem 5.8) and *registration based*: every thread obtains a
//! handle before operating on the queue, because wait-free helping requires a
//! per-thread record (Figure 4).  A minimal example:
//!
//! ```
//! use wcq_core::wcq::WcqQueue;
//!
//! // Capacity 2^4 = 16 elements, up to 4 registered threads.
//! let q: WcqQueue<u64> = WcqQueue::new(4, 4);
//! std::thread::scope(|s| {
//!     s.spawn(|| {
//!         let mut h = q.register().unwrap();
//!         for i in 0..10 {
//!             h.enqueue(i).unwrap();
//!         }
//!     });
//!     s.spawn(|| {
//!         let mut h = q.register().unwrap();
//!         let mut got = 0;
//!         while got < 10 {
//!             if h.dequeue().is_some() {
//!                 got += 1;
//!             }
//!         }
//!     });
//! });
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod api;
pub mod channel;
pub mod metrics;
pub mod pack;
pub mod ring;
pub mod scq;
pub mod wcq;

pub use api::{QueueHandle, WaitFreeQueue};
pub use channel::{RecvError, SendError, TryRecvError, TrySendError};
pub use metrics::{
    Counter, CounterSet, CountingInstrument, HistogramSnapshot, Instrument, LatencyHistogram,
    MetricsSnapshot, NoopInstrument,
};
pub use pack::Layout;
pub use scq::{ScqQueue, ScqRing};
pub use wcq::{WcqConfig, WcqQueue, WcqRing};

/// Deterministic xorshift64* PRNG shared by this crate's test modules:
/// reproducible randomized coverage without external crates (the build
/// environment is offline, and depending on `wcq-harness` would be cyclic).
#[cfg(test)]
pub(crate) mod test_util {
    pub(crate) fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }
}
