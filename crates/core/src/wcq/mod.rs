//! wCQ — the wait-free circular queue (the paper's primary contribution).
//!
//! The module is split along the paper's structure:
//!
//! * [`cells`] — the hardware-model abstraction: native double-width CAS (§3)
//!   vs. emulated LL/SC (§4, Figure 9).
//! * [`record`] — per-thread helping records (`thrdrec_t`, `phase2rec_t`,
//!   Figure 4) and the `FIN`/`INC` flag bits.
//! * `ring` — what wCQ adds to the shared Figure 3 ring ([`crate::ring`]):
//!   `slow_F&A`, slow-path enqueue/dequeue and the helping scheme
//!   (Figures 5–7).
//! * `queue` — the user-facing bounded data queue built from two rings and
//!   a data array (Figure 2).

pub mod cells;
mod queue;
pub mod record;
mod ring;

pub use cells::{CellFamily, LlscFamily, NativeFamily, RingFamily};
pub use queue::{new_slots, WcqQueue, WcqQueueHandle, BATCH};
pub use ring::{WcqConfig, WcqHandle, WcqRing, WcqState};
