//! The benchmark's clock and its self-calibrations: what one clock read
//! costs, what one uncontended fetch-and-add costs, and what one *reference
//! step* costs right now.
//!
//! The reference step is the yardstick every gated timing is divided by.  On
//! a shared 2-vCPU KVM guest the host moves between states that last
//! seconds: the same single-thread `send`/`recv` loop reads 190–290 ns a
//! pair from one state to the next.  A lone `fetch_add` loop — the paper's
//! upper-bound line (Figs. 11–12) — does not track it: in the slow state a
//! dependent ALU chain and the queue get ≈ 25 % slower while back-to-back
//! locked adds get ≈ 20 % *faster*, so cost ÷ FAA swings 23 → 39.  A loop
//! with the queue's own instruction mix does track it: over 250 windows of
//! 0.1 s spanning every state, pair ÷ reference step had an interquartile
//! spread of 3.8 % against 29 % for pair ÷ FAA and 16 % for the raw time.
//! FAA cost is still measured and reported, ungated.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::time::Instant;

/// Fetch-and-adds per calibration slice (≈ 4 ms).
pub const FAA_SLICE_OPS: u64 = 500_000;

/// Clock reads per [`Clock::timer_ns`] measurement.
const TIMER_READS: u32 = 200_000;

/// A monotonic nanosecond clock with a process-local origin, so stamps fit
/// `u64` and subtract without `Duration` arithmetic in timed loops.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    origin: Instant,
}

impl Default for Clock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock {
    /// Starts a clock at "now".
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
        }
    }

    /// Nanoseconds since the clock was created.
    #[inline]
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Cost of one [`Clock::now`] in ns, measured over back-to-back reads.
    pub fn timer_ns(&self) -> f64 {
        let start = self.now();
        let mut last = start;
        for _ in 0..TIMER_READS {
            last = black_box(self.now());
        }
        (last - start) as f64 / f64::from(TIMER_READS)
    }
}

/// A counter alone on its cache line, so nothing else in the process can
/// share (and so contend for) it.
#[repr(align(128))]
struct PaddedCell(AtomicU64);

/// Runs one calibration slice on the calling thread and returns ns per
/// `fetch_add(1, SeqCst)`.
pub fn faa_slice_ns(clock: &Clock, ops: u64) -> f64 {
    let cell = PaddedCell(AtomicU64::new(0));
    let start = clock.now();
    for _ in 0..ops {
        black_box(&cell.0).fetch_add(1, SeqCst);
    }
    let elapsed = clock.now() - start;
    assert_eq!(cell.0.load(SeqCst), ops, "calibration loop was elided");
    elapsed as f64 / ops as f64
}

/// Entries of the reference ring (16 KiB: L1-resident, like a hot segment).
const REFERENCE_ENTRIES: usize = 2048;

/// Reference steps per calibration slice (≈ 0.5 ms).
pub const REFERENCE_SLICE_STEPS: u64 = 25_000;

/// The yardstick: a fixed, uncontended loop with the atomic-operation mix of
/// one SCQ enqueue plus one dequeue (Figure 3) — fetch-add a tail, load and
/// CAS the entry, check the threshold; fetch-add a head, load and consume the
/// entry.  It belongs to the benchmark and never changes, so a cost in
/// reference steps compares across commits; it is *not* a queue (nothing
/// checks cycles or emptiness).
pub struct Reference {
    entries: Vec<AtomicU64>,
    tail: PaddedCell,
    head: PaddedCell,
    threshold: PaddedCell,
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

impl Reference {
    /// A zeroed reference ring.
    pub fn new() -> Self {
        Self {
            entries: (0..REFERENCE_ENTRIES).map(|_| AtomicU64::new(0)).collect(),
            tail: PaddedCell(AtomicU64::new(0)),
            head: PaddedCell(AtomicU64::new(0)),
            threshold: PaddedCell(AtomicU64::new(0)),
        }
    }

    /// Runs `steps` reference steps on the calling thread; ns per step.
    pub fn slice_ns(&self, clock: &Clock, steps: u64) -> f64 {
        const FULL: u64 = 1 << 63;
        const CONSUMED: u64 = 1 << 62;
        const THRESHOLD: u64 = 3 * REFERENCE_ENTRIES as u64 - 1;
        let mask = REFERENCE_ENTRIES as u64 - 1;
        let start = clock.now();
        for _ in 0..steps {
            let ticket = self.tail.0.fetch_add(1, SeqCst);
            let entry = &self.entries[(ticket & mask) as usize];
            let seen = entry.load(SeqCst);
            let _ = entry.compare_exchange(seen, ticket | FULL, SeqCst, SeqCst);
            if self.threshold.0.load(SeqCst) != THRESHOLD {
                self.threshold.0.store(THRESHOLD, SeqCst);
            }
            let ticket = self.head.0.fetch_add(1, SeqCst);
            let entry = &self.entries[(ticket & mask) as usize];
            if entry.load(SeqCst) & FULL != 0 {
                entry.fetch_or(CONSUMED, SeqCst);
            }
        }
        let elapsed = clock.now() - start;
        assert!(
            self.head.0.load(SeqCst) >= steps,
            "reference loop was elided"
        );
        elapsed as f64 / steps as f64
    }
}

/// The open-loop yardstick: a one-word mailbox and `Thread::unpark`.  The
/// poster stores a count and unparks the reader; the reader parks whenever
/// the count has not moved.  It is the least a parked hand-off can cost on
/// this kernel and hypervisor at this moment — 2 µs when the guest's idle
/// loop is polling, 20 µs when the vCPU halts, milliseconds when the host
/// has taken it away — and a channel's due → `recv` transit divided by it
/// says what the channel's own wait machinery adds.
pub struct Mailbox {
    posted: PaddedCell,
    reader: std::thread::Thread,
}

impl Mailbox {
    /// A mailbox whose reader is the calling thread.
    pub fn for_current_thread() -> Self {
        Self {
            posted: PaddedCell(AtomicU64::new(0)),
            reader: std::thread::current(),
        }
    }

    /// Empties the mailbox (reader side, between exchanges).
    pub fn reset(&self) {
        self.posted.0.store(0, SeqCst);
    }

    /// Posts one more message and wakes the reader.
    #[inline]
    pub fn post(&self, count: u64) {
        self.posted.0.store(count, SeqCst);
        self.reader.unpark();
    }

    /// Messages posted so far; parks (up to `timeout`) if that is still
    /// `seen`.  Reader side only.
    #[inline]
    pub fn wait_beyond(&self, seen: u64, timeout: std::time::Duration) -> u64 {
        let posted = self.posted.0.load(SeqCst);
        if posted == seen {
            std::thread::park_timeout(timeout);
            return self.posted.0.load(SeqCst);
        }
        posted
    }
}

/// Thread placement.  Left to itself the guest's scheduler starts a new
/// thread on its parent's CPU and moves it some hundreds of ms later, and
/// wake-ups pull a thread toward its waker: the same window-1 exchange reads
/// 32 µs (two spinning threads time-slicing one vCPU) or 2.4 µs (one vCPU
/// each), and a parked hand-off 4 µs or 47 µs, depending on when one looks.
/// The benchmark therefore pins its client thread to the first CPU it is
/// allowed and every helper thread to the second.
pub mod pin {
    /// Words of the affinity mask (1024 CPUs, what the kernel's default
    /// `cpu_set_t` holds).
    const MASK_WORDS: usize = 16;

    #[cfg(target_os = "linux")]
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    /// CPUs the calling thread may run on, ascending; empty when the
    /// platform cannot say.
    pub fn allowed_cpus() -> Vec<usize> {
        #[cfg(target_os = "linux")]
        {
            let mut mask = [0u64; MASK_WORDS];
            // SAFETY: `mask` is a writable buffer of exactly the size passed;
            // pid 0 names the calling thread.
            let status =
                unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
            if status == 0 {
                return (0..MASK_WORDS * 64)
                    .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
                    .collect();
            }
        }
        Vec::new()
    }

    /// Pins the calling thread to `cpu`; `false` (and no change) when the
    /// kernel refuses or the platform has no such call.
    pub fn pin_current_thread(cpu: usize) -> bool {
        #[cfg(target_os = "linux")]
        if cpu < MASK_WORDS * 64 {
            let mut mask = [0u64; MASK_WORDS];
            mask[cpu / 64] = 1 << (cpu % 64);
            // SAFETY: `mask` is a readable buffer of exactly the size passed;
            // pid 0 names the calling thread.
            return unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) }
                == 0;
        }
        let _ = cpu;
        false
    }

    /// The two CPUs the benchmark uses.  Both are the same CPU when only one
    /// is allowed.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Placement {
        /// Where the thread that drives a workload runs.
        pub client: usize,
        /// Where echo, generator and ledger helper threads run.
        pub helper: usize,
    }

    /// Decided once per process, by the first call of [`as_client`].
    static PLACEMENT: std::sync::OnceLock<Option<Placement>> = std::sync::OnceLock::new();

    /// Pins the calling thread — the one that drives the workloads — to the
    /// first allowed CPU and reserves the second for helpers.  `None` when
    /// affinity is unavailable; threads then float.
    pub fn as_client() -> Option<Placement> {
        *PLACEMENT.get_or_init(|| {
            let cpus = allowed_cpus();
            let client = *cpus.first()?;
            let helper = cpus.get(1).copied().unwrap_or(client);
            pin_current_thread(client).then_some(Placement { client, helper })
        })
    }

    /// Pins the calling thread to the helper CPU, if [`as_client`] found a
    /// placement.  Every thread the benchmark spawns calls this first.
    pub fn as_helper() {
        if let Some(Some(placement)) = PLACEMENT.get() {
            pin_current_thread(placement.helper);
        }
    }
}
