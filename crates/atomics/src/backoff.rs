//! Bounded exponential backoff.
//!
//! The baseline queues (MSQueue, CCQueue, CRTurn) and the harness use a small
//! bounded backoff to reduce CAS contention.  The bound matters for the
//! wait-free analysis: every `snooze` executes a finite number of
//! `spin_loop` hints, so inserting a backoff never turns a bounded loop into
//! an unbounded one.

/// Bounded exponential backoff helper.
///
/// Each call to [`Backoff::snooze`] spins for `2^step` iterations (capped at
/// `2^MAX_SHIFT`) and then doubles the step.  [`Backoff::is_completed`]
/// reports when the cap has been reached so callers can decide to yield or
/// switch strategies (e.g. take the wCQ slow path).
#[derive(Debug, Clone)]
pub struct Backoff {
    step: u32,
}

impl Backoff {
    /// Maximum exponent: a single snooze never spins more than `2^MAX_SHIFT`
    /// iterations.
    pub const MAX_SHIFT: u32 = 10;

    /// Creates a fresh backoff with zero accumulated delay.
    pub const fn new() -> Self {
        Self { step: 0 }
    }

    /// Resets the accumulated delay to zero.
    #[inline]
    pub fn reset(&mut self) {
        self.step = 0;
    }

    /// Cap of [`Backoff::pause`]: the latency/traffic trade of a waiter that
    /// is about to be served, swept on the gated benchmark (the workspace's
    /// DESIGN.md, "Spin, then park", has the row).
    const PAUSE_SHIFT: u32 = 5;

    /// The one pause loop: `2^step` spin hints, then doubles the step up to
    /// `max_shift` and holds there.
    #[inline]
    fn spin(&mut self, max_shift: u32) {
        for _ in 0..1u32 << self.step.min(max_shift) {
            core::hint::spin_loop();
        }
        if self.step < max_shift {
            self.step += 1;
        }
    }

    /// Spins briefly; the delay grows exponentially up to the cap.
    #[inline]
    pub fn snooze(&mut self) {
        self.spin(Self::MAX_SHIFT);
    }

    /// Returns `true` once the exponential delay has reached its cap.
    #[inline]
    pub fn is_completed(&self) -> bool {
        self.step >= Self::MAX_SHIFT
    }

    /// Spins while the exponential delay is still growing, then yields the
    /// thread once the cap is reached — the standard wait policy for loops
    /// that block on another thread's progress (full/empty channel endpoints,
    /// waiting out an in-flight peer operation).
    #[inline]
    pub fn snooze_or_yield(&mut self) {
        // Under cooperative schedule exploration this wait MUST be a yield
        // point: the loop blocks on another thread's progress, and that
        // thread is parked until the token rotates.  `yield_now` releases
        // the OS core but not the checker's token, so without a checkpoint
        // the waiter spins forever and the run hangs without ever tripping
        // the step bound.
        #[cfg(feature = "checkpoint")]
        crate::checkpoint::hit("backoff.snooze");
        if self.is_completed() {
            std::thread::yield_now();
        } else {
            self.snooze();
        }
    }

    /// One pause of a wait that has its own time budget and its own way of
    /// sleeping once that is spent — the channel layer's spin-then-park, its
    /// only caller, which is why this is not part of the documented API: a
    /// [`Backoff::snooze`] that holds at 32 spin hints and never yields.  A
    /// checkpoint like [`Backoff::snooze_or_yield`], for the same reason: the
    /// loop waits on another thread's progress.
    #[doc(hidden)]
    #[inline]
    pub fn pause(&mut self) {
        #[cfg(feature = "checkpoint")]
        crate::checkpoint::hit("backoff.snooze");
        self.spin(Self::PAUSE_SHIFT);
    }

    /// Current step (exposed for tests and statistics).
    #[inline]
    pub fn step(&self) -> u32 {
        self.step
    }
}

impl Default for Backoff {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero_and_grows_to_cap() {
        let mut b = Backoff::new();
        assert_eq!(b.step(), 0);
        assert!(!b.is_completed());
        for _ in 0..Backoff::MAX_SHIFT {
            b.snooze();
        }
        assert!(b.is_completed());
        assert_eq!(b.step(), Backoff::MAX_SHIFT);
        // Further snoozes stay capped.
        b.snooze();
        assert_eq!(b.step(), Backoff::MAX_SHIFT);
    }

    #[test]
    fn a_pause_doubles_to_its_own_cap_and_holds() {
        let mut b = Backoff::new();
        for expected in [1, 2, 3, 4, 5, 5, 5] {
            b.pause();
            assert_eq!(b.step(), expected);
        }
        assert!(
            !b.is_completed(),
            "it holds below MAX_SHIFT: it never yields"
        );
    }

    #[test]
    fn reset_clears_progress() {
        let mut b = Backoff::new();
        b.snooze();
        b.snooze();
        assert!(b.step() > 0);
        b.reset();
        assert_eq!(b.step(), 0);
        assert!(!b.is_completed());
    }
}
