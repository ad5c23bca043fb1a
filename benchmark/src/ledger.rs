//! The layer-cost ledger: the traced workload's operation, timed from
//! outside at every public boundary of the stack.
//!
//! Each *rung* is one layer reached through its public constructor and
//! handle; a rung's `self_ns` is its `op_ns` minus the `op_ns` of the rungs
//! it calls.  Rungs are measured round-robin inside each round, so the host's
//! clock episodes hit parent and child alike and the differences survive.
//!
//! | rung | built by | calls |
//! |---|---|---|
//! | `scq_ring` | `ScqRing::new` | — |
//! | `wcq_ring` | `builder().build_ring()` + `register` | `scq_ring` (the price of wait-freedom on the fast path) |
//! | `scq_queue` | `ScqQueue::new` | 2 × `scq_ring` |
//! | `wcq_queue` | `build_bounded` + `register` | 2 × `wcq_ring` |
//! | `llsc_queue` | `builder().llsc().build_bounded` + `register` | — (sibling of `wcq_queue` on the LL/SC model) |
//! | `unbounded` | `build_unbounded().handle()` | `wcq_queue` |
//! | `sharded_x1` | `shards(1).build_sharded().handle()` | `unbounded` |
//! | `sharded_x4` | `shards(4).build_sharded().handle()` | `unbounded` |
//! | `facade` | `Box<dyn WaitFreeQueue>` over unbounded, `handle()` | `unbounded` |
//! | `channel` | `build_channel` | `facade` |
//! | `async_channel` | `build_async` driven by `wcq_harness::exec::block_on` | `channel` |
//! | `select` | `recv_any_timeout` over two lanes | `channel` |

use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Mutex;
use std::time::Duration;

use wcq::{
    AsyncReceiver, AsyncSender, Counter, CountingInstrument, LlscFamily, QueueHandle, Receiver,
    ScqQueue, Sender, UnboundedWcq, UnboundedWcqHandle, WaitFreeQueue, WcqQueue, WcqQueueHandle,
    WcqRing,
};
use wcq_core::scq::ScqRing;
use wcq_core::wcq::WcqHandle;
use wcq_harness::exec::block_on;
use wcq_unbounded::{ShardedWcq, ShardedWcqHandle};

use crate::calib::{pin, Clock};
use crate::schedule::poisson_schedule;
use crate::stats;
use crate::workloads::{Workload, BATCH, BURST, ECHO_WINDOW, PACED_RATE};

/// Rung names in ledger order, each with the rungs it calls.
pub const RUNGS: [(&str, &[(&str, f64)]); 12] = [
    ("scq_ring", &[]),
    ("wcq_ring", &[("scq_ring", 1.0)]),
    ("scq_queue", &[("scq_ring", 2.0)]),
    ("wcq_queue", &[("wcq_ring", 2.0)]),
    ("llsc_queue", &[]),
    ("unbounded", &[("wcq_queue", 1.0)]),
    ("sharded_x1", &[("unbounded", 1.0)]),
    ("sharded_x4", &[("unbounded", 1.0)]),
    ("facade", &[("unbounded", 1.0)]),
    ("channel", &[("facade", 1.0)]),
    ("async_channel", &[("channel", 1.0)]),
    ("select", &[("channel", 1.0)]),
];

/// Capacity order of every rung: the builder's default, i.e. the size of the
/// segments the channel workloads run on.
const ORDER: u32 = 10;

/// Capacity order of the bounded rungs under the open-loop shape, where a
/// preempted consumer must not turn into a full queue (2^16 messages is
/// 260 ms of arrivals).
const PACED_ORDER: u32 = 16;

/// Registration slots per rung: two threads at most, with room to spare.
const THREADS: usize = 4;

/// A wait that long in the ledger means a lost message.
const WAIT_DEADLINE: Duration = Duration::from_millis(100);

/// Pairs pushed through a fresh rung before it is timed.
const WARM_PAIRS: u64 = 2_000;

// --------------------------------------------------------------------------
// The rung abstraction
// --------------------------------------------------------------------------

/// One layer of the stack as a shared object that threads attach to.
pub trait Rung: Sync {
    /// `true` when the capacity is fixed at build time.
    const BOUNDED: bool = false;

    /// The per-thread way in.
    type Handle<'a>: RungHandle
    where
        Self: 'a;

    /// Builds the layer with capacity (or segment capacity) `2^order`.
    fn build(order: u32) -> Self;

    /// Attaches the calling thread.
    fn handle(&self) -> Self::Handle<'_>;
}

/// The operations the shapes are written in.  Defaults express an operation
/// a layer has no cheaper form of through the ones it has — which is what a
/// caller of that layer would have to do.
pub trait RungHandle {
    /// Values are `id & mask` (rings carry indices below their capacity).
    fn mask(&self) -> u64 {
        u64::MAX
    }

    /// Enqueues, waiting out a full bounded layer.
    fn enq(&mut self, value: u64);

    /// Dequeues without waiting.
    fn deq(&mut self) -> Option<u64>;

    /// Enqueues all of `values` (left empty).
    fn enq_many(&mut self, values: &mut Vec<u64>) {
        for value in values.drain(..) {
            self.enq(value);
        }
    }

    /// Appends up to `max` values to `out`; returns how many.
    fn deq_many(&mut self, out: &mut Vec<u64>, max: usize) -> usize {
        let before = out.len();
        while out.len() - before < max {
            match self.deq() {
                Some(value) => out.push(value),
                None => break,
            }
        }
        out.len() - before
    }

    /// Dequeues, waiting the way the layer's plain blocking receive does
    /// (spinning, for the layers that have none).
    fn deq_wait(&mut self) -> u64 {
        loop {
            if let Some(value) = self.deq() {
                return value;
            }
            std::hint::spin_loop();
        }
    }

    /// Dequeues, waiting the way the layer's parked receive does.
    fn deq_park(&mut self) -> u64 {
        self.deq_wait()
    }
}

/// Retries a bounded layer's enqueue (which hands a refused value back)
/// until it is accepted.
#[inline(always)]
fn enq_retry(mut value: u64, mut attempt: impl FnMut(u64) -> Result<(), u64>) {
    while let Err(refused) = attempt(value) {
        value = refused;
        std::hint::spin_loop();
    }
}

/// The four queue layers' handles share one surface — `enqueue`, `dequeue`,
/// `enqueue_many(&mut Vec)` and a bulk dequeue — differing only in whether
/// `enqueue` can refuse (`bounded`) and what the bulk dequeue is called.
macro_rules! queue_rung_handle {
    (@enq bounded, $h:ident, $value:ident) => {
        enq_retry($value, |v| $h.enqueue(v))
    };
    (@enq unbounded, $h:ident, $value:ident) => {
        $h.enqueue($value)
    };
    ([$($generics:tt)*] $handle:ty, $kind:ident, $deq_many:ident) => {
        impl<$($generics)*> RungHandle for $handle {
            #[inline(always)]
            fn enq(&mut self, value: u64) {
                queue_rung_handle!(@enq $kind, self, value);
            }
            #[inline(always)]
            fn deq(&mut self) -> Option<u64> {
                self.dequeue()
            }
            #[inline(always)]
            fn enq_many(&mut self, values: &mut Vec<u64>) {
                while !values.is_empty() {
                    self.enqueue_many(values);
                }
            }
            #[inline(always)]
            fn deq_many(&mut self, out: &mut Vec<u64>, max: usize) -> usize {
                self.$deq_many(out, max)
            }
        }
    };
}

// --- scq_ring ---------------------------------------------------------------

impl Rung for ScqRing {
    const BOUNDED: bool = true;
    type Handle<'a> = &'a ScqRing;
    fn build(order: u32) -> Self {
        ScqRing::new(order)
    }
    fn handle(&self) -> &ScqRing {
        self
    }
}

impl RungHandle for &ScqRing {
    fn mask(&self) -> u64 {
        self.capacity() - 1
    }
    #[inline(always)]
    fn enq(&mut self, value: u64) {
        self.enqueue(value);
    }
    #[inline(always)]
    fn deq(&mut self) -> Option<u64> {
        self.dequeue()
    }
}

// --- wcq_ring ---------------------------------------------------------------

impl Rung for WcqRing {
    const BOUNDED: bool = true;
    type Handle<'a> = WcqHandle<'a>;
    fn build(order: u32) -> Self {
        wcq::builder()
            .capacity_order(order)
            .threads(THREADS)
            .build_ring()
    }
    fn handle(&self) -> WcqHandle<'_> {
        self.register().expect("ledger rungs have spare slots")
    }
}

impl RungHandle for WcqHandle<'_> {
    fn mask(&self) -> u64 {
        self.ring().capacity() - 1
    }
    #[inline(always)]
    fn enq(&mut self, value: u64) {
        self.enqueue(value);
    }
    #[inline(always)]
    fn deq(&mut self) -> Option<u64> {
        self.dequeue()
    }
    #[inline(always)]
    fn enq_many(&mut self, values: &mut Vec<u64>) {
        self.enqueue_many(values);
        values.clear();
    }
    #[inline(always)]
    fn deq_many(&mut self, out: &mut Vec<u64>, max: usize) -> usize {
        self.dequeue_many(out, max)
    }
}

// --- scq_queue --------------------------------------------------------------

impl Rung for ScqQueue<u64> {
    const BOUNDED: bool = true;
    type Handle<'a> = &'a ScqQueue<u64>;
    fn build(order: u32) -> Self {
        ScqQueue::new(order)
    }
    fn handle(&self) -> &ScqQueue<u64> {
        self
    }
}

impl RungHandle for &ScqQueue<u64> {
    // Named through the type: `&ScqQueue` is also a facade `QueueHandle`,
    // and the ledger wants the layer's own entry points.
    #[inline(always)]
    fn enq(&mut self, value: u64) {
        enq_retry(value, |v| ScqQueue::enqueue(self, v));
    }
    #[inline(always)]
    fn deq(&mut self) -> Option<u64> {
        ScqQueue::dequeue(self)
    }
}

// --- wcq_queue / llsc_queue -------------------------------------------------

impl Rung for WcqQueue<u64> {
    const BOUNDED: bool = true;
    type Handle<'a> = WcqQueueHandle<'a, u64>;
    fn build(order: u32) -> Self {
        wcq::builder()
            .capacity_order(order)
            .threads(THREADS)
            .build_bounded()
    }
    fn handle(&self) -> WcqQueueHandle<'_, u64> {
        self.register().expect("ledger rungs have spare slots")
    }
}

impl Rung for WcqQueue<u64, LlscFamily> {
    const BOUNDED: bool = true;
    type Handle<'a> = WcqQueueHandle<'a, u64, LlscFamily>;
    fn build(order: u32) -> Self {
        wcq::builder()
            .capacity_order(order)
            .threads(THREADS)
            .llsc()
            .build_bounded()
    }
    fn handle(&self) -> WcqQueueHandle<'_, u64, LlscFamily> {
        self.register().expect("ledger rungs have spare slots")
    }
}

queue_rung_handle!([F: wcq::CellFamily] WcqQueueHandle<'_, u64, F>, bounded, dequeue_many);

// --- unbounded --------------------------------------------------------------

impl Rung for UnboundedWcq<u64> {
    type Handle<'a> = UnboundedWcqHandle<'a, u64>;
    fn build(order: u32) -> Self {
        wcq::builder()
            .capacity_order(order)
            .threads(THREADS)
            .build_unbounded()
    }
    fn handle(&self) -> UnboundedWcqHandle<'_, u64> {
        UnboundedWcq::handle(self)
    }
}

queue_rung_handle!([] UnboundedWcqHandle<'_, u64>, unbounded, dequeue_many);

// --- sharded_x1 / sharded_x4 ------------------------------------------------

/// `ShardedWcq` with the shard count in the type, so x1 and x4 are two rungs.
pub struct Sharded<const SHARDS: usize>(ShardedWcq<u64>);

impl<const SHARDS: usize> Rung for Sharded<SHARDS> {
    type Handle<'a> = ShardedWcqHandle<'a, u64>;
    fn build(order: u32) -> Self {
        Sharded(
            wcq::builder()
                .capacity_order(order)
                .threads(THREADS)
                .shards(SHARDS)
                .build_sharded(),
        )
    }
    fn handle(&self) -> ShardedWcqHandle<'_, u64> {
        self.0.handle()
    }
}

queue_rung_handle!([] ShardedWcqHandle<'_, u64>, unbounded, dequeue_many);

// --- facade -----------------------------------------------------------------

/// The type-erased facade over the unbounded queue, as the channel holds it.
pub struct Facade(Box<dyn WaitFreeQueue<u64>>);

impl Rung for Facade {
    type Handle<'a> = Box<dyn QueueHandle<u64> + 'a>;
    fn build(order: u32) -> Self {
        Facade(Box::new(UnboundedWcq::<u64>::build(order)))
    }
    fn handle(&self) -> Box<dyn QueueHandle<u64> + '_> {
        self.0.handle()
    }
}

queue_rung_handle!([] Box<dyn QueueHandle<u64> + '_>, unbounded, dequeue_into);

// --- channel ----------------------------------------------------------------

/// A sync channel.  The prototype endpoints sit behind a mutex only so the
/// rung is `Sync`; each thread clones its own pair once, outside any timing.
pub struct Channel(Mutex<(Sender<u64>, Receiver<u64>)>);

impl Channel {
    fn endpoints(&self) -> (Sender<u64>, Receiver<u64>) {
        let guard = self
            .0
            .lock()
            .expect("no ledger thread panics holding the endpoints");
        (guard.0.clone(), guard.1.clone())
    }
}

impl Rung for Channel {
    type Handle<'a> = (Sender<u64>, Receiver<u64>);
    fn build(order: u32) -> Self {
        Channel(Mutex::new(
            wcq::builder()
                .capacity_order(order)
                .threads(2 * THREADS)
                .build_channel(),
        ))
    }
    fn handle(&self) -> (Sender<u64>, Receiver<u64>) {
        self.endpoints()
    }
}

impl RungHandle for (Sender<u64>, Receiver<u64>) {
    #[inline(always)]
    fn enq(&mut self, value: u64) {
        self.0.send(value).expect("ledger channels stay open");
    }
    #[inline(always)]
    fn deq(&mut self) -> Option<u64> {
        self.1.try_recv().ok()
    }
    #[inline(always)]
    fn enq_many(&mut self, values: &mut Vec<u64>) {
        self.0
            .send_iter(values.drain(..))
            .expect("ledger channels stay open");
    }
    #[inline(always)]
    fn deq_many(&mut self, out: &mut Vec<u64>, max: usize) -> usize {
        self.1.try_recv_many(out, max).unwrap_or(0)
    }
    #[inline(always)]
    fn deq_wait(&mut self) -> u64 {
        self.1.recv().expect("ledger channels stay open")
    }
    #[inline(always)]
    fn deq_park(&mut self) -> u64 {
        self.1
            .recv_timeout(WAIT_DEADLINE)
            .expect("ledger message lost")
    }
}

// --- async_channel ----------------------------------------------------------

/// An async channel, every future driven to completion by `block_on`.
pub struct AsyncChannel(Channel);

impl Rung for AsyncChannel {
    type Handle<'a> = (AsyncSender<u64>, AsyncReceiver<u64>);
    fn build(order: u32) -> Self {
        AsyncChannel(Channel::build(order))
    }
    fn handle(&self) -> (AsyncSender<u64>, AsyncReceiver<u64>) {
        let (tx, rx) = self.0.endpoints();
        (tx.into(), rx.into())
    }
}

impl RungHandle for (AsyncSender<u64>, AsyncReceiver<u64>) {
    #[inline(always)]
    fn enq(&mut self, value: u64) {
        block_on(self.0.send(value)).expect("ledger channels stay open");
    }
    #[inline(always)]
    fn deq(&mut self) -> Option<u64> {
        self.1.try_recv().ok()
    }
    #[inline(always)]
    fn enq_many(&mut self, values: &mut Vec<u64>) {
        block_on(self.0.send_iter(values.drain(..))).expect("ledger channels stay open");
    }
    #[inline(always)]
    fn deq_many(&mut self, out: &mut Vec<u64>, max: usize) -> usize {
        block_on(self.1.recv_many(out, max)).expect("ledger channels stay open")
    }
    #[inline(always)]
    fn deq_wait(&mut self) -> u64 {
        block_on(self.1.recv()).expect("ledger channels stay open")
    }
}

// --- select -----------------------------------------------------------------

/// `recv_any_timeout` over the live lane and one that never fires.
pub struct Select {
    live: Channel,
    idle: Channel,
}

impl Rung for Select {
    type Handle<'a> = SelectHandle;
    fn build(order: u32) -> Self {
        Select {
            live: Channel::build(order),
            idle: Channel::build(order),
        }
    }
    fn handle(&self) -> SelectHandle {
        let (tx, rx) = self.live.endpoints();
        SelectHandle {
            tx,
            rx,
            idle: self.idle.endpoints().1,
        }
    }
}

/// One thread's endpoints of a [`Select`] rung.
pub struct SelectHandle {
    tx: Sender<u64>,
    rx: Receiver<u64>,
    idle: Receiver<u64>,
}

impl SelectHandle {
    #[inline(always)]
    fn select(&mut self, timeout: Duration) -> Option<u64> {
        wcq::recv_any_timeout(&mut [&mut self.rx, &mut self.idle], timeout)
            .ok()
            .map(|(_, value)| value)
    }
}

impl RungHandle for SelectHandle {
    #[inline(always)]
    fn enq(&mut self, value: u64) {
        self.tx.send(value).expect("ledger channels stay open");
    }
    #[inline(always)]
    fn deq(&mut self) -> Option<u64> {
        self.select(Duration::ZERO)
    }
    #[inline(always)]
    fn deq_wait(&mut self) -> u64 {
        self.select(WAIT_DEADLINE).expect("ledger message lost")
    }
}

// --------------------------------------------------------------------------
// The shapes: each workload's operation, written against `RungHandle`
// --------------------------------------------------------------------------

/// Messages (polls) in one ledger repetition of `workload`'s shape, sized to
/// a few tens of ms on the slowest rung.
fn shape_units(workload: Workload, divisor: u64) -> u64 {
    let (full, granule) = match workload {
        Workload::Pairs1t => (100_000, BATCH),
        Workload::Batch1t => (400_000, BATCH),
        Workload::Burst1t => (8 * BURST, BURST),
        Workload::Empty1t => (500_000, BATCH),
        Workload::Echo2t => (30_000, BATCH),
        Workload::Paced2t => (2_560, BATCH),
    };
    (full / divisor / granule).max(1) * granule
}

/// Wrapping sum of `id & mask` for `id` in `0..n` — what a shape's dequeues
/// must add up to.
fn expected_sum(n: u64, mask: u64) -> u64 {
    (0..n).fold(0u64, |sum, id| sum.wrapping_add(id & mask))
}

/// One timed repetition of a single-thread shape: `(ns per message, ok)`.
fn single_thread_shape<R: Rung>(
    rung: &R,
    workload: Workload,
    n: u64,
    clock: &Clock,
) -> (f64, bool) {
    let mut h = rung.handle();
    let mask = h.mask();
    for id in 0..WARM_PAIRS {
        h.enq(id & mask);
        h.deq_wait();
    }
    let mut sum = 0u64;
    let mut ok = true;
    let start = clock.now();
    match workload {
        Workload::Pairs1t => {
            for id in 0..n {
                h.enq(id & mask);
                sum = sum.wrapping_add(h.deq_wait());
            }
        }
        Workload::Batch1t => {
            let mut values = Vec::with_capacity(BATCH as usize);
            let mut out = Vec::with_capacity(BATCH as usize);
            for base in (0..n).step_by(BATCH as usize) {
                values.extend((base..base + BATCH).map(|id| id & mask));
                h.enq_many(&mut values);
                let mut got = 0;
                while got < BATCH as usize {
                    out.clear();
                    got += h.deq_many(&mut out, BATCH as usize - got);
                    sum = out.iter().fold(sum, |s, v| s.wrapping_add(*v));
                }
            }
        }
        Workload::Burst1t => {
            // A bounded layer bursts to its capacity: the same shape as far
            // as the layer allows, and the no-turnover reference the
            // segment-linking layers are read against.
            let burst = if R::BOUNDED { 1 << ORDER } else { BURST };
            for base in (0..n).step_by(burst as usize) {
                for id in base..base + burst {
                    h.enq(id & mask);
                }
                for _ in 0..burst {
                    sum = sum.wrapping_add(h.deq_wait());
                }
            }
        }
        Workload::Empty1t => {
            for _ in 0..n {
                ok &= h.deq().is_none();
            }
        }
        Workload::Echo2t | Workload::Paced2t => {
            unreachable!("two-thread shapes have their own functions")
        }
    }
    let elapsed = clock.now() - start;
    if workload != Workload::Empty1t {
        ok &= sum == expected_sum(n, mask) && h.deq().is_none();
    }
    (elapsed as f64 / n as f64, ok)
}

/// One repetition of the echo shape: the client enqueues on `out` with at
/// most `window` echoes outstanding and collects from `back`; the echo thread
/// moves everything from `out` to `back`.  Both wait the way the layer parks
/// when `park`, else the way its plain receive does.
fn echo_shape<R: Rung>(
    out: &R,
    back: &R,
    n: u64,
    window: u64,
    park: bool,
    clock: &Clock,
) -> (f64, bool) {
    fn wait<H: RungHandle>(h: &mut H, park: bool) -> u64 {
        if park {
            h.deq_park()
        } else {
            h.deq_wait()
        }
    }
    std::thread::scope(|s| {
        let echo = s.spawn(move || {
            pin::as_helper();
            let (mut from, mut to) = (out.handle(), back.handle());
            for _ in 0..WARM_PAIRS + n {
                let value = wait(&mut from, park);
                to.enq(value);
            }
        });
        let (mut to, mut from) = (out.handle(), back.handle());
        let mask = to.mask();
        let mut ok = true;
        let mut elapsed = 0;
        // The warm-up exchange doubles as the start flag.
        for (count, timed) in [(WARM_PAIRS, false), (n, true)] {
            let (mut sent, mut sum) = (0u64, 0u64);
            let start = clock.now();
            for received in 0..count {
                while sent < count && sent - received < window {
                    to.enq(sent & mask);
                    sent += 1;
                }
                sum = sum.wrapping_add(wait(&mut from, park));
            }
            if timed {
                elapsed = clock.now() - start;
            }
            ok &= sum == expected_sum(count, mask);
        }
        ok &= echo.join().is_ok();
        (elapsed as f64 / n as f64, ok)
    })
}

/// Window-1 ping-pong over two channels: ns per round trip, through `recv`
/// (spinning) or, with `park`, through `recv_timeout` (park and wake on
/// every hop).
pub fn ping_pong(n: u64, park: bool, clock: &Clock) -> (f64, bool) {
    let (out, back) = (Channel::build(ORDER), Channel::build(ORDER));
    echo_shape(&out, &back, n.max(1), 1, park, clock)
}

/// One repetition of the open-loop shape: a generator thread enqueues at the
/// schedule's due times, the caller waits the way the layer parks.  Returns
/// the median due → dequeue transit in ns.
fn paced_shape<R: Rung>(rung: &R, schedule: &[u64], clock: &Clock) -> (f64, bool) {
    let start_at = AtomicU64::new(0);
    let mut transit = vec![0u64; schedule.len()];
    std::thread::scope(|s| {
        let start_ref = &start_at;
        let generator = s.spawn(move || {
            pin::as_helper();
            let mut h = rung.handle();
            let mask = h.mask();
            for id in 0..WARM_PAIRS {
                h.enq(id & mask);
            }
            let origin = loop {
                match start_ref.load(SeqCst) {
                    0 => std::hint::spin_loop(),
                    t => break t,
                }
            };
            for (id, &offset) in (0u64..).zip(schedule) {
                while clock.now() < origin + offset {
                    std::hint::spin_loop();
                }
                h.enq(id & mask);
            }
        });
        let mut h = rung.handle();
        let mask = h.mask();
        let mut sum = 0u64;
        for _ in 0..WARM_PAIRS {
            sum = sum.wrapping_add(h.deq_park());
        }
        let mut ok = sum == expected_sum(WARM_PAIRS, mask);
        let origin = clock.now() + 50_000;
        start_at.store(origin, SeqCst);
        sum = 0;
        for (slot, &offset) in transit.iter_mut().zip(schedule) {
            sum = sum.wrapping_add(h.deq_park());
            *slot = clock.now().saturating_sub(origin + offset);
        }
        ok &= sum == expected_sum(schedule.len() as u64, mask);
        ok &= generator.join().is_ok();
        transit.sort_unstable();
        (stats::percentile_sorted(&transit, 50.0) as f64, ok)
    })
}

/// One repetition of `workload`'s shape on rungs from `build`: `(op_ns, ok)`.
fn one_rep_on<R: Rung>(
    build: impl Fn(u32) -> R,
    workload: Workload,
    n: u64,
    schedule: &[u64],
    clock: &Clock,
) -> (f64, bool, R) {
    match workload {
        Workload::Echo2t => {
            let (out, back) = (build(ORDER), build(ORDER));
            let (op_ns, ok) = echo_shape(&out, &back, n, ECHO_WINDOW, false, clock);
            (op_ns, ok, out)
        }
        Workload::Paced2t => {
            // A preempted consumer must not turn into a full queue.
            let rung = build(if R::BOUNDED { PACED_ORDER } else { ORDER });
            let (op_ns, ok) = paced_shape(&rung, &schedule[..n as usize], clock);
            (op_ns, ok, rung)
        }
        _ => {
            let rung = build(ORDER);
            let (op_ns, ok) = single_thread_shape(&rung, workload, n, clock);
            (op_ns, ok, rung)
        }
    }
}

fn one_rep<R: Rung>(workload: Workload, n: u64, schedule: &[u64], clock: &Clock) -> (f64, bool) {
    let (op_ns, ok, _) = one_rep_on(R::build, workload, n, schedule, clock);
    (op_ns, ok)
}

// --------------------------------------------------------------------------
// Running the ledger
// --------------------------------------------------------------------------

/// The ledger of one traced run.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Per rung, in [`RUNGS`] order: `op_ns` of every round.
    pub rounds: Vec<Vec<f64>>,
    /// Every shape's outputs added up.
    pub correct: bool,
    /// `memory_footprint()` of the `unbounded` rung after its drained shape.
    pub footprint_bytes: usize,
    /// Segments the `unbounded` rung still holds beyond the live ones
    /// (cached for reuse or awaiting hazard reclamation).
    pub retained_segments: usize,
    /// Work-stealing dequeues per 10⁶ messages on a counted `sharded_x4`.
    pub steals_per_mmsg: f64,
}

impl Ledger {
    fn rung(name: &str) -> usize {
        RUNGS
            .iter()
            .position(|(rung, _)| *rung == name)
            .expect("ledger rung names are fixed")
    }

    /// Median `op_ns` of rung `name`.
    pub fn op_ns(&self, name: &str) -> f64 {
        stats::median(&self.rounds[Self::rung(name)])
    }

    /// `op_ns` of `name` minus the rungs it calls.
    pub fn self_ns(&self, name: &str) -> f64 {
        RUNGS[Self::rung(name)]
            .1
            .iter()
            .fold(self.op_ns(name), |rest, (child, times)| {
                rest - times * self.op_ns(child)
            })
    }
}

/// Runs rounds of `workload`'s shape over every rung until `deadline` (clock
/// ns), at least `min_rounds`.  `seed` drives the open-loop shape's schedule.
pub fn run(
    workload: Workload,
    divisor: u64,
    seed: u64,
    clock: &Clock,
    deadline: u64,
    min_rounds: usize,
) -> Ledger {
    let n = shape_units(workload, divisor);
    let schedule = &poisson_schedule(seed, PACED_RATE, n as usize)[..];
    let mut ledger = Ledger {
        rounds: vec![Vec::new(); RUNGS.len()],
        correct: true,
        ..Ledger::default()
    };
    let mut round = 0;
    while round < min_rounds || clock.now() < deadline {
        // In `RUNGS` order.
        let reps = [
            one_rep::<ScqRing>(workload, n, schedule, clock),
            one_rep::<WcqRing>(workload, n, schedule, clock),
            one_rep::<ScqQueue<u64>>(workload, n, schedule, clock),
            one_rep::<WcqQueue<u64>>(workload, n, schedule, clock),
            one_rep::<WcqQueue<u64, LlscFamily>>(workload, n, schedule, clock),
            one_rep::<UnboundedWcq<u64>>(workload, n, schedule, clock),
            one_rep::<Sharded<1>>(workload, n, schedule, clock),
            one_rep::<Sharded<4>>(workload, n, schedule, clock),
            one_rep::<Facade>(workload, n, schedule, clock),
            one_rep::<Channel>(workload, n, schedule, clock),
            one_rep::<AsyncChannel>(workload, n, schedule, clock),
            one_rep::<Select>(workload, n, schedule, clock),
        ];
        for (slot, (op_ns, ok)) in ledger.rounds.iter_mut().zip(reps) {
            slot.push(op_ns);
            ledger.correct &= ok;
        }
        round += 1;
    }

    // Two readings no timing needs: what the unbounded layer still holds
    // after the drained shape, and how often a counted 4-shard queue steals.
    let (_, ok, unbounded) = one_rep_on(UnboundedWcq::<u64>::build, workload, n, schedule, clock);
    ledger.correct &= ok;
    let segments = unbounded.segment_stats();
    ledger.footprint_bytes = unbounded.memory_footprint();
    ledger.retained_segments = segments.resident() - segments.live;

    let instr = CountingInstrument::new();
    let counted = |order| {
        Sharded::<4>(
            wcq::builder()
                .capacity_order(order)
                .threads(THREADS)
                .shards(4)
                .instrument(instr.clone())
                .build_sharded(),
        )
    };
    let (_, ok, sharded) = one_rep_on(counted, workload, n, schedule, clock);
    ledger.correct &= ok;
    drop(sharded);
    ledger.steals_per_mmsg = instr.snapshot().get(Counter::ShardSteals) as f64 * 1e6 / n as f64;
    ledger
}
