//! The output oracle: every id received exactly once, in send order per
//! producer, checksum matched, `Closed` only after the exact drain.
//!
//! Every flow in this benchmark has a single producer, so "exactly once and
//! in order" is "the next id is the previous one plus one" — one compare on
//! the hot path, with the bookkeeping on a cold branch.  Payloads are ids
//! XOR a seed-derived salt, so the program never sees the same words for two
//! seeds while the id stays recoverable.

use wcq_harness::DetRng;

/// Payload salt for `seed`.
pub fn salt(seed: u64) -> u64 {
    DetRng::new(seed ^ 0x5A17_5A17_5A17_5A17).next_u64()
}

/// What went wrong, by kind; all zero on a correct run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Failures {
    /// Sent but never received.
    pub lost: u64,
    /// Received more often than sent.
    pub duplicated: u64,
    /// Received out of send order.
    pub out_of_order: u64,
    /// Sends, receives or polls the program refused (error on an open
    /// channel, a value from an empty one, a timeout under a live producer).
    pub refused: u64,
    /// Checksum of received payloads differs from that of sent ones.
    pub checksum: u64,
    /// `Closed` reported early, or not reported after the exact drain.
    pub bad_close: u64,
}

impl Failures {
    /// Total failed operations.
    pub fn total(&self) -> u64 {
        self.lost
            + self.duplicated
            + self.out_of_order
            + self.refused
            + self.checksum
            + self.bad_close
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &Failures) {
        self.lost += other.lost;
        self.duplicated += other.duplicated;
        self.out_of_order += other.out_of_order;
        self.refused += other.refused;
        self.checksum += other.checksum;
        self.bad_close += other.bad_close;
    }
}

/// Receiver-side checker of one single-producer flow of ids `0, 1, 2, …`.
#[derive(Debug, Clone, Default)]
pub struct FlowCheck {
    next: u64,
    received: u64,
    sum: u64,
    out_of_order: u64,
}

impl FlowCheck {
    /// A checker expecting id 0 first.
    pub fn new() -> Self {
        Self::default()
    }

    /// The id the next in-order receive must carry.
    #[inline]
    pub fn expected(&self) -> u64 {
        self.next
    }

    /// Records one received id.
    #[inline]
    pub fn observe(&mut self, id: u64) {
        self.received += 1;
        self.sum = self.sum.wrapping_add(id);
        if id == self.next {
            self.next += 1;
        } else {
            self.misordered(id);
        }
    }

    #[cold]
    fn misordered(&mut self, id: u64) {
        self.out_of_order += 1;
        // Resynchronise after a skip so one lost id is one violation, not one
        // per following message.
        if id > self.next {
            self.next = id + 1;
        }
    }

    /// Settles the flow against the `sent` ids `0..sent`.
    pub fn finish(&self, sent: u64) -> Failures {
        let expected_sum = if sent == 0 {
            0
        } else {
            // Sum of 0..sent, wrapping like the running sum does.
            let (a, b) = if sent.is_multiple_of(2) {
                (sent / 2, sent - 1)
            } else {
                (sent, (sent - 1) / 2)
            };
            a.wrapping_mul(b)
        };
        Failures {
            lost: sent.saturating_sub(self.received),
            duplicated: self.received.saturating_sub(sent),
            out_of_order: self.out_of_order,
            checksum: u64::from(self.received == sent && self.sum != expected_sum),
            ..Failures::default()
        }
    }
}
