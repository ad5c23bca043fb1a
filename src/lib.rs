//! # wcq — the umbrella facade for the wCQ reproduction
//!
//! One crate, one construction path, one queue abstraction:
//!
//! * [`builder`] / [`QueueBuilder`] — the single way applications construct
//!   queues, in place of the per-crate `new` / `with_config_counters`
//!   constructors;
//! * [`WaitFreeQueue`] / [`QueueHandle`] — the object-safe trait pair every
//!   queue in the workspace implements (wCQ, wLSCQ, SCQ and the six §6
//!   baselines), re-exported from [`wcq_core::api`];
//! * RAII registration — `queue.handle()` claims a record slot for the
//!   handle (re-entry after a drop is one CAS through
//!   `wcq_atomics::Registry`'s free-slot hint) and the handle releases it on drop, on whatever thread
//!   it has moved to;
//! * [`channel`] / [`async_channel`] — typed [`Sender`]/[`Receiver`] (and
//!   [`AsyncSender`]/[`AsyncReceiver`]) endpoints with close semantics over
//!   any backend, built by the
//!   [`build_channel`](QueueBuilder::build_channel) /
//!   [`build_async`](QueueBuilder::build_async) finishers.
//!
//! ## Quickstart
//!
//! ```
//! use wcq::{QueueHandle, WaitFreeQueue};
//!
//! // A bounded wait-free queue: capacity 2^8, up to 4 registered threads.
//! let queue = wcq::builder()
//!     .capacity_order(8)
//!     .threads(4)
//!     .build_bounded::<u64>();
//!
//! std::thread::scope(|s| {
//!     s.spawn(|| {
//!         let mut h = queue.handle(); // registers; drop releases the slot
//!         for i in 0..1000 {
//!             h.enqueue(i);
//!         }
//!     });
//!     s.spawn(|| {
//!         let mut h = queue.handle();
//!         let mut got = 0;
//!         while got < 1000 {
//!             if h.dequeue().is_some() {
//!                 got += 1;
//!             }
//!         }
//!     });
//! });
//! ```
//!
//! The same builder produces the unbounded wLSCQ queue (linked wCQ segments
//! with hazard-pointer recycling) and the LL/SC hardware model:
//!
//! ```
//! let unbounded = wcq::builder()
//!     .capacity_order(8)   // per-segment capacity
//!     .threads(8)
//!     .build_unbounded::<String>();
//! let mut h = unbounded.handle();
//! h.enqueue("never blocks, never fails".to_string());
//!
//! let ppc = wcq::builder().capacity_order(6).threads(2).llsc().build_bounded::<u64>();
//! # drop(ppc);
//! ```
//!
//! Consumed as a *channel*, the same backends gain `Send` endpoints, typed
//! errors and graceful shutdown — no scoped threads, no manual registration:
//!
//! ```
//! let (tx, rx) = wcq::builder().threads(4).build_channel::<u64>();
//!
//! let mut tx2 = tx.clone();
//! let worker = std::thread::spawn(move || tx2.send(7));
//! drop(tx); // the clone keeps the channel open until the worker is done
//!
//! let mut rx = rx;
//! assert_eq!(rx.recv(), Ok(7));
//! assert!(rx.recv().is_err(), "last sender gone: closed after the drain");
//! worker.join().unwrap().unwrap();
//! ```
//!
//! The async endpoints ([`build_async`](QueueBuilder::build_async)) park the
//! task instead of blocking — a send wakes one parked receiver, a close
//! wakes all — and run on any executor (this repo's tests use the
//! dependency-free `wcq_harness::exec::block_on`).
//!
//! ## Migrating from the constructor zoo
//!
//! | Before (≤ PR 2) | Now |
//! |---|---|
//! | `WcqQueue::new(order, threads)` | `wcq::builder().capacity_order(order).threads(threads).build_bounded()` |
//! | `WcqQueue::with_config(order, threads, cfg)` (removed; in-crate it is `with_config_counters(order, threads, cfg, None)`) | `…().config(cfg).build_bounded()` |
//! | `WcqQueue::<_, LlscFamily>::new(order, threads)` | `…().llsc().build_bounded()` |
//! | `UnboundedWcq::new(seg_order, threads)` | `…().build_unbounded()` |
//! | `UnboundedWcq::with_config_and_cache(o, t, cfg, n)` (removed; in-crate it is `with_config_counters(o, t, cfg, None)`, and the cache size is no parameter) | `…().config(cfg).build_unbounded()` (the cache holds [`DEFAULT_SEGMENT_CACHE`] segments) |
//! | `WcqRing::new(order, threads)` | `…().build_ring()` |
//! | `queue.register().expect(…)` | `queue.handle()` (RAII, hinted re-entry) |
//! | hand-rolled closed-flag channel over `WcqQueue` | `…().backend(ChannelBackend::Bounded).build_channel()` |
//! | `h.try_enqueue(v) == Err(v)` / `h.dequeue() == None` | `TrySendError::{Full, Closed}` / `TryRecvError::{Empty, Closed}` |
//! | spin-wait for consumers (`Backoff` loops) | `build_async()` + `AsyncReceiver::recv().await` (park/wake) |
//! | deadline loops over `try_recv()` + `Instant` checks | [`Receiver::recv_timeout`] / [`Sender::send_timeout`] (parked, not polled) |
//! | one thread (or task) per drained channel | [`select::recv_any`] / [`select::recv_any_timeout`] — one waker parked across all lanes |
//!
//! Each type keeps two constructors inside `wcq-core` / `wcq-unbounded` for
//! the algorithm-level tests — `new(geometry)` with defaults, and the one
//! full constructor the builder calls — but application code —
//! including this repo's examples, harness and benchmarks — constructs
//! exclusively through the builder.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod async_channel;
pub mod channel;
pub mod select;
mod wait;

pub use wcq_atomics as atomics;
pub use wcq_baselines as baselines;
pub use wcq_core as core_queue;
pub use wcq_reclaim as reclaim;
pub use wcq_unbounded as unbounded;

pub use async_channel::{AsyncReceiver, AsyncSender};
pub use channel::{
    Receiver, RecvError, RecvTimeoutError, SendError, SendTimeoutError, Sender, TryRecvError,
    TrySendError,
};
pub use select::{recv_any, recv_any_timeout, RecvAny};
pub use wcq_core::api::{QueueHandle, WaitFreeQueue};
pub use wcq_core::metrics::{
    Counter, CounterSet, CountingInstrument, Instrument, MetricsSnapshot, NoopInstrument,
};
pub use wcq_core::scq::ScqQueue;
pub use wcq_core::wcq::{
    CellFamily, LlscFamily, NativeFamily, WcqConfig, WcqQueue, WcqQueueHandle, WcqRing,
};
pub use wcq_unbounded::{SegmentStats, UnboundedWcq, UnboundedWcqHandle, DEFAULT_SEGMENT_CACHE};

use core::marker::PhantomData;

/// Starts building a queue with the default configuration: capacity
/// 2<sup>10</sup> (per segment for unbounded queues), 8 registration slots,
/// the paper's §6 patience defaults and the native double-width-CAS hardware
/// model.
///
/// ```
/// let q = wcq::builder().capacity_order(12).threads(8).build_bounded::<u64>();
/// assert_eq!(q.capacity(), 4096);
/// ```
pub fn builder() -> QueueBuilder<NativeFamily> {
    QueueBuilder {
        capacity_order: 10,
        threads: 8,
        config: WcqConfig::default(),
        shards: 1,
        backend: ChannelBackend::Unbounded,
        instr: NoopInstrument,
        _family: PhantomData,
    }
}

/// Which queue shape backs a channel built by
/// [`build_channel`](QueueBuilder::build_channel) /
/// [`build_async`](QueueBuilder::build_async).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelBackend {
    /// The bounded wCQ: fixed capacity, so [`TrySendError::Full`] is a real
    /// error and `send` exerts backpressure.
    Bounded,
    /// The unbounded wLSCQ (the default): sends never report full.
    Unbounded,
}

/// The one construction path for every wCQ-family queue.
///
/// Obtained from [`builder`]; finished with
/// [`build_bounded`](QueueBuilder::build_bounded) (a fixed-capacity
/// [`WcqQueue`], Theorem 5.8's bounded-memory queue),
/// [`build_unbounded`](QueueBuilder::build_unbounded) (the wLSCQ
/// [`UnboundedWcq`] of linked segments) or
/// [`build_ring`](QueueBuilder::build_ring) (a raw index ring, the Figure 2
/// indirection building block).
///
/// The hardware model is part of the builder's type:
/// [`llsc`](QueueBuilder::llsc) switches from the native double-width-CAS
/// family to the emulated LL/SC construction of §4.
///
/// So is the observability strategy:
/// [`instrument`](QueueBuilder::instrument) switches from the default
/// [`NoopInstrument`] (the channel endpoints' telemetry compiled out; the
/// queues below skip theirs on a `None` counter set) to a live
/// [`CountingInstrument`] whose shared [`CounterSet`] every layer built by
/// the finishers — ring, queue, segments, channel endpoints — records into.
/// Snapshot it with [`CountingInstrument::snapshot`].
#[derive(Debug)]
pub struct QueueBuilder<F: CellFamily = NativeFamily, I: Instrument = NoopInstrument> {
    capacity_order: u32,
    threads: usize,
    config: WcqConfig,
    shards: usize,
    backend: ChannelBackend,
    instr: I,
    _family: PhantomData<F>,
}

// Manual impl: `derive(Clone)` would demand `F: Clone`, but the family is a
// pure type-level marker.  (`I: Instrument` already implies `Clone`.)
impl<F: CellFamily, I: Instrument> Clone for QueueBuilder<F, I> {
    fn clone(&self) -> Self {
        Self {
            capacity_order: self.capacity_order,
            threads: self.threads,
            config: self.config,
            shards: self.shards,
            backend: self.backend,
            instr: self.instr.clone(),
            _family: PhantomData,
        }
    }
}

impl<I: Instrument> QueueBuilder<NativeFamily, I> {
    /// Selects the emulated LL/SC hardware model of §4 (the "PowerPC"
    /// variant) instead of the native double-width CAS.
    pub fn llsc(self) -> QueueBuilder<LlscFamily, I> {
        QueueBuilder {
            capacity_order: self.capacity_order,
            threads: self.threads,
            config: self.config,
            shards: self.shards,
            backend: self.backend,
            instr: self.instr,
            _family: PhantomData,
        }
    }
}

impl<F: CellFamily, I: Instrument> QueueBuilder<F, I> {
    /// Selects the observability strategy, like [`llsc`](QueueBuilder::llsc)
    /// selects the hardware model: pass a [`CountingInstrument`] (keep a
    /// clone!) and every queue, segment and channel endpoint the finishers
    /// build records contention telemetry — fast/slow-path ops, helping
    /// entries, CAS failures, segment lifecycle, channel park/wake — into its
    /// shared [`CounterSet`].  The default [`NoopInstrument`] compiles the
    /// channel endpoints' recording out; the rings, queues and segments
    /// below them get no counter set, so each of their recording sites is a
    /// `None` test and their handles still keep their tallies (see the
    /// [`Instrument`] zero-overhead contract).
    ///
    /// ```
    /// use wcq::{CountingInstrument, QueueHandle, WaitFreeQueue};
    ///
    /// let instr = CountingInstrument::new();
    /// let q = wcq::builder()
    ///     .capacity_order(6)
    ///     .threads(2)
    ///     .instrument(instr.clone())
    ///     .build_bounded::<u64>();
    /// {
    ///     let mut h = q.handle();
    ///     h.enqueue(7);
    ///     h.dequeue();
    /// } // handle drop flushes its completion tallies
    /// let snap = instr.snapshot();
    /// assert_eq!(snap.get(wcq::Counter::EnqueuesCompleted), 1);
    /// assert_eq!(snap.get(wcq::Counter::DequeuesCompleted), 1);
    /// ```
    pub fn instrument<J: Instrument>(self, instr: J) -> QueueBuilder<F, J> {
        QueueBuilder {
            capacity_order: self.capacity_order,
            threads: self.threads,
            config: self.config,
            shards: self.shards,
            backend: self.backend,
            instr,
            _family: PhantomData,
        }
    }
    /// Capacity of the queue (bounded) or of each segment (unbounded):
    /// 2<sup>order</sup> elements.
    pub fn capacity_order(mut self, order: u32) -> Self {
        self.capacity_order = order;
        self
    }

    /// Maximum number of simultaneously registered threads (the paper's `k`;
    /// must not exceed the capacity, `k ≤ n`).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Installs a full wait-freedom configuration (patience bounds, help
    /// delay, catchup bound).  The stress plans use this to force every
    /// operation down the slow path.
    pub fn config(mut self, config: WcqConfig) -> Self {
        self.config = config;
        self
    }

    /// Number of independent shards for
    /// [`build_sharded`](QueueBuilder::build_sharded) (default 1); no other
    /// finisher reads it.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Selects the queue shape backing [`build_channel`](QueueBuilder::build_channel)
    /// / [`build_async`](QueueBuilder::build_async) (ignored by the queue
    /// finishers, which each name their shape).  The default is
    /// [`ChannelBackend::Unbounded`]; `Bounded` must be opted into, because
    /// it changes semantics ([`TrySendError::Full`] appears and `send` blocks
    /// on a full queue).
    pub fn backend(mut self, backend: ChannelBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Builds the queue shape selected by [`backend`](QueueBuilder::backend)
    /// as a channel backend — the construction path shared by both channel
    /// finishers.  The bounded wCQ gets a closed flag and announce flags
    /// beside it; the unbounded wLSCQ closes through its segments' `next`
    /// links.
    fn build_backend<T: Send + 'static>(&self) -> Box<dyn channel::Backend<T>> {
        match self.backend {
            ChannelBackend::Bounded => Box::new(channel::Gated::new(self.build_bounded::<T>())),
            ChannelBackend::Unbounded => Box::new(self.build_unbounded::<T>()),
        }
    }

    /// Builds a channel: typed [`Sender`]/[`Receiver`] endpoints with close
    /// semantics over the backend selected by
    /// [`backend`](QueueBuilder::backend).  Endpoints are `Send`, clonable
    /// (MPMC), and each registers once, on first use, keeping its handle
    /// wherever it moves; size [`threads`](QueueBuilder::threads) for the
    /// peak number of live endpoints.
    ///
    /// Both backends are one FIFO queue, so per-sender order holds across a
    /// sender's moves between threads too.
    ///
    /// ```
    /// let (tx, mut rx) = wcq::builder().threads(2).build_channel::<u64>();
    /// let mut tx = tx;
    /// tx.send(1).unwrap();
    /// drop(tx); // last sender: channel closes once drained
    /// assert_eq!(rx.recv(), Ok(1));
    /// assert!(rx.recv().is_err());
    /// ```
    pub fn build_channel<T: Send + 'static>(
        &self,
    ) -> (channel::Sender<T, I>, channel::Receiver<T, I>) {
        channel::channel_over_instrumented(self.build_backend::<T>(), self.instr.clone())
    }

    /// Builds an async channel: [`AsyncSender`]/[`AsyncReceiver`] endpoints
    /// whose futures park the task instead of blocking — a send wakes one
    /// parked receiver, a close wakes all (see [`async_channel`]).  Runs on
    /// any executor; none is bundled.
    pub fn build_async<T: Send + 'static>(
        &self,
    ) -> (
        async_channel::AsyncSender<T, I>,
        async_channel::AsyncReceiver<T, I>,
    ) {
        let (tx, rx) = self.build_channel::<T>();
        (tx.into(), rx.into())
    }

    /// Builds the bounded wait-free queue of the paper (Figures 4–7): fixed
    /// capacity, fixed memory, wait-free enqueue and dequeue.
    pub fn build_bounded<T>(&self) -> WcqQueue<T, F> {
        WcqQueue::with_config_counters(
            self.capacity_order,
            self.threads,
            self.config,
            self.instr.counter_set(),
        )
    }

    /// Builds the unbounded wLSCQ queue (this repo's extension of §2.3's LSCQ
    /// recipe): wait-free ring operations inside each segment, segments
    /// linked and recycled through hazard pointers.  The head advance between
    /// segments is blocking: an enqueuer preempted between its announcement
    /// and its deposit stalls every dequeuer at that boundary
    /// (`dequeue_crossing`; ROADMAP item 5(b) is the fix).
    pub fn build_unbounded<T>(&self) -> UnboundedWcq<T, F> {
        UnboundedWcq::with_config_counters(
            self.capacity_order,
            self.threads,
            self.config,
            self.instr.counter_set(),
        )
    }

    /// Builds a raw wait-free ring of indices `0..2^order` — the free-list /
    /// indirection building block of Figure 2 (see the `frame_pool` example).
    pub fn build_ring(&self) -> WcqRing<F> {
        WcqRing::with_config_counters(
            self.capacity_order,
            self.threads,
            self.config,
            self.instr.counter_set(),
        )
    }

    /// Builds the sharded unbounded queue: [`shards`](QueueBuilder::shards)
    /// independent wLSCQ shards; an enqueue goes to the handle's home shard,
    /// a dequeue scans home-first and steals.  It keeps only per-producer
    /// FIFO and its empty answer is a racy scan, so it is no channel backend
    /// and no [`WaitFreeQueue`]: only the `benchmark/` ledger's sharded rungs
    /// build it, through the handle's own methods (ROADMAP item 9 deletes it).
    pub fn build_sharded<T>(&self) -> wcq_unbounded::ShardedWcq<T, F> {
        wcq_unbounded::ShardedWcq::with_config_counters(
            self.shards,
            self.capacity_order,
            self.threads,
            self.config,
            self.instr.counter_set(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_builds_bounded_with_requested_geometry() {
        let q = builder()
            .capacity_order(5)
            .threads(3)
            .build_bounded::<u64>();
        assert_eq!(q.capacity(), 32);
        assert_eq!(WcqQueue::max_threads(&q), 3);
    }

    #[test]
    fn builder_config_reaches_the_rings() {
        let cfg = WcqConfig {
            max_patience_enqueue: 1,
            max_patience_dequeue: 1,
            help_delay: 1,
            catchup_bound: 8,
        };
        let q = builder()
            .capacity_order(4)
            .threads(1)
            .config(cfg)
            .build_bounded::<u64>();
        assert_eq!(*q.config(), cfg, "builder config must reach the rings");
        let mut h = q.register().expect("one slot free");
        h.enqueue(9).unwrap();
        assert_eq!(h.dequeue(), Some(9));
    }

    #[test]
    fn builder_config_sets_just_the_patience_bounds() {
        let q = builder()
            .config(WcqConfig {
                max_patience_enqueue: 2,
                max_patience_dequeue: 3,
                ..Default::default()
            })
            .build_bounded::<u64>();
        assert_eq!(q.config().max_patience_enqueue, 2);
        assert_eq!(q.config().max_patience_dequeue, 3);
        assert_eq!(q.config().help_delay, WcqConfig::default().help_delay);
    }

    #[test]
    fn builder_llsc_switches_the_hardware_model() {
        wcq_atomics::llsc::set_spurious_failure_rate(0.0);
        let q = builder()
            .capacity_order(4)
            .threads(2)
            .llsc()
            .build_bounded::<u64>();
        assert_eq!(WaitFreeQueue::<u64>::name(&q), "wCQ (LL/SC)");
        let mut h = q.handle(); // the facade trait's RAII registration
        h.enqueue(5);
        assert_eq!(h.dequeue(), Some(5));
    }

    #[test]
    fn builder_builds_sharded_with_requested_geometry() {
        let q = builder()
            .capacity_order(4)
            .threads(2)
            .shards(4)
            .build_sharded::<u64>();
        assert_eq!(q.shard_count(), 4);
        assert_eq!(q.max_threads(), 2);
        assert_eq!(q.shards()[0].segment_capacity(), 16);
        let mut h = q.handle();
        for i in 0..100 {
            h.enqueue(i);
        }
        // Home-shard routing: FIFO holds end to end for a single producer.
        for i in 0..100 {
            assert_eq!(h.dequeue(), Some(i));
        }
    }

    #[test]
    fn builder_defaults_to_one_shard() {
        let q = builder()
            .capacity_order(4)
            .threads(2)
            .build_sharded::<u64>();
        assert_eq!(q.shard_count(), 1);
    }

    #[test]
    fn builder_builds_rings() {
        let ring = builder().capacity_order(4).threads(2).build_ring();
        let mut h = ring.register().unwrap();
        h.enqueue(7);
        assert_eq!(h.dequeue(), Some(7));
    }
}
