//! The close word: one counter of enqueues in flight plus a closed top bit.

use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};

use wcq_atomics::CachePadded;

/// The closed bit of a [`Gate`]'s word.  Set once by [`Gate::close`]; the
/// count below it never exceeds the registered threads.
const CLOSED: usize = 1 << (usize::BITS - 1);

/// The one close word of the workspace: the number of enqueuers between
/// [`Gate::enter`] and [`Gate::leave`], plus a closed top bit — LCRQ's
/// closed tail bit lifted above a ring whose own enqueue cannot be told to
/// fail permanently.
///
/// `enter` is one `fetch_add` and `close` one `fetch_or` on the same word,
/// so the two are totally ordered.  An `enter` ordered after the close sees
/// the bit in its pre-value, undoes its increment and is refused.  One
/// ordered before it is counted until its `leave`.  So once a reader has
/// seen the bit set and [`Gate::inflight`] at zero, every enqueue the gate
/// will ever admit has finished.
///
/// Each wLSCQ segment holds one, and so does the bounded channel backend,
/// beside its queue.  The word sits on its own cache line: every enqueue
/// writes it twice.
pub struct Gate(CachePadded<AtomicUsize>);

impl Gate {
    /// An open gate with nothing in flight.
    pub fn new() -> Self {
        Self(CachePadded::new(AtomicUsize::new(0)))
    }

    /// Joins the in-flight enqueuers; `false`, with the claim undone, once
    /// the gate is closed.  A `true` must be paired with [`Gate::leave`].
    #[inline]
    pub fn enter(&self) -> bool {
        if self.0.fetch_add(1, SeqCst) & CLOSED != 0 {
            self.leave();
            return false;
        }
        true
    }

    /// Ends a claim taken by [`Gate::enter`].
    #[inline]
    pub fn leave(&self) {
        self.0.fetch_sub(1, SeqCst);
    }

    /// Permanently refuses future claims (idempotent).
    pub fn close(&self) {
        self.0.fetch_or(CLOSED, SeqCst);
    }

    /// Number of claims taken and not yet left.
    pub fn inflight(&self) -> usize {
        self.0.load(SeqCst) & !CLOSED
    }

    /// Reopens a gate nobody else can reach (a recycled segment's).
    pub(crate) fn reopen(&self) {
        self.0.store(0, SeqCst);
    }

    /// The raw word, bit included (tests).
    #[cfg(test)]
    pub(crate) fn word(&self) -> usize {
        self.0.load(SeqCst)
    }

    /// The closed bit alone (tests).
    #[cfg(test)]
    pub(crate) const CLOSED: usize = CLOSED;
}

impl Default for Gate {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Gate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let word = self.0.load(SeqCst);
        f.debug_struct("Gate")
            .field("closed", &(word & CLOSED != 0))
            .field("inflight", &(word & !CLOSED))
            .finish()
    }
}
