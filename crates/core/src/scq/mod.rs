//! SCQ — the lock-free Scalable Circular Queue (Figure 3 of the wCQ paper).
//!
//! SCQ is the substrate wCQ extends: a bounded MPMC FIFO ring that replaces
//! the CAS loop on `Head`/`Tail` with fetch-and-add and achieves lock-freedom
//! directly inside the ring through the *threshold* mechanism.  wCQ's fast
//! path is this algorithm — here literally: both are [`crate::ring::Ring`] —
//! so SCQ is both a prerequisite and one of the baselines of every figure in
//! the paper.
//!
//! Two types are exported:
//!
//! * [`ScqRing`] — the raw ring of *indices* (the paper's `aq`/`fq` building
//!   block): the shared ring over [`WordFamily`]'s single-word cells, with no
//!   slow-path state.  It stores `u64` values smaller than the capacity.
//! * [`ScqQueue`] — the user-facing bounded queue of arbitrary `T`, built from
//!   two rings plus a data array via the indirection scheme of Figure 2.

mod queue;
mod ring;

pub use queue::ScqQueue;
pub use ring::{ScqRing, WordFamily};
