//! Queue selection for the evaluation, on top of the public facade.
//!
//! The paper benchmarks eight algorithms side by side.  [`QueueKind`]
//! enumerates them (plus the LL/SC-emulated wCQ/SCQ variants used for the
//! PowerPC figures and the wLSCQ extension) and
//! [`make_queue`] builds a fresh
//! instance behind the *public* [`WaitFreeQueue`] trait — the same facade
//! applications use — so the workload driver, the memory benchmark and the
//! cross-crate integration tests all share one code path with zero
//! harness-private adapter code.  All wCQ-family kinds are constructed
//! through `wcq::builder()`, so benchmark configurations and library
//! configurations cannot drift apart.
//!
//! Payloads are `u64` sequence numbers, as in the original benchmark (which
//! enqueues small integers / pointers).

use wcq_baselines::{CcQueue, CrTurnQueue, FaaQueue, Lcrq, MsQueue, YmcQueue};
use wcq_core::metrics::CountingInstrument;
use wcq_core::wcq::WcqConfig;
use wcq_core::ScqQueue;

pub use wcq_core::api::{QueueHandle, WaitFreeQueue};

/// Which queue algorithm to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueueKind {
    /// wCQ with native double-width CAS (§3) — the paper's contribution.
    Wcq,
    /// wCQ over the emulated LL/SC construction (§4, the "PowerPC" variant).
    WcqLlsc,
    /// Lock-free SCQ (the substrate / closest competitor).
    Scq,
    /// Michael & Scott's lock-free list queue.
    MsQueue,
    /// LCRQ (ring queues linked by an outer list).
    Lcrq,
    /// Yang & Mellor-Crummey's segment queue (reproduced shape).
    Ymc,
    /// CCQueue flat-combining queue.
    CcQueue,
    /// CRTurn wait-free queue.
    CrTurn,
    /// FAA counters-only pseudo-queue (throughput upper bound).
    Faa,
    /// wLSCQ: unbounded queue of linked wCQ segments (`wcq-unbounded`).
    WcqUnbounded,
    /// wLSCQ over the emulated LL/SC construction.
    WcqUnboundedLlsc,
}

impl QueueKind {
    /// Every kind the harness knows (all 11), in a stable order.
    pub fn all() -> Vec<QueueKind> {
        vec![
            QueueKind::Wcq,
            QueueKind::WcqLlsc,
            QueueKind::Scq,
            QueueKind::MsQueue,
            QueueKind::Lcrq,
            QueueKind::Ymc,
            QueueKind::CcQueue,
            QueueKind::CrTurn,
            QueueKind::Faa,
            QueueKind::WcqUnbounded,
            QueueKind::WcqUnboundedLlsc,
        ]
    }

    /// All algorithms shown in the x86 figures (Figs. 10, 11).
    pub fn x86_set() -> Vec<QueueKind> {
        vec![
            QueueKind::Faa,
            QueueKind::Wcq,
            QueueKind::Ymc,
            QueueKind::CcQueue,
            QueueKind::Scq,
            QueueKind::CrTurn,
            QueueKind::MsQueue,
            QueueKind::Lcrq,
        ]
    }

    /// All algorithms shown in the PowerPC figures (Fig. 12): LCRQ is omitted
    /// because it requires true CAS2, and wCQ runs in the LL/SC model.
    pub fn powerpc_set() -> Vec<QueueKind> {
        vec![
            QueueKind::Faa,
            QueueKind::WcqLlsc,
            QueueKind::Ymc,
            QueueKind::CcQueue,
            QueueKind::Scq,
            QueueKind::CrTurn,
            QueueKind::MsQueue,
        ]
    }

    /// The unbounded-queue comparison set: wLSCQ (both hardware models)
    /// against the dynamically allocating baselines that are also unbounded.
    pub fn unbounded_set() -> Vec<QueueKind> {
        vec![
            QueueKind::WcqUnbounded,
            QueueKind::WcqUnboundedLlsc,
            QueueKind::Lcrq,
            QueueKind::MsQueue,
        ]
    }

    /// `true` for the kinds that run over the emulated LL/SC hardware model
    /// (and therefore react to the injected spurious-failure rate).
    pub fn is_llsc(&self) -> bool {
        matches!(self, QueueKind::WcqLlsc | QueueKind::WcqUnboundedLlsc)
    }

    /// `true` for the kinds that maintain an approximate length counter, i.e.
    /// whose `WaitFreeQueue::is_empty_hint` is meaningful rather than the
    /// conservative `false` default.
    pub fn has_len_hint(&self) -> bool {
        matches!(self, QueueKind::WcqUnbounded | QueueKind::WcqUnboundedLlsc)
    }

    /// Display name matching the paper's legends.
    pub fn name(&self) -> &'static str {
        match self {
            QueueKind::Wcq => "wCQ",
            QueueKind::WcqLlsc => "wCQ (LL/SC)",
            QueueKind::Scq => "SCQ",
            QueueKind::MsQueue => "MSQueue",
            QueueKind::Lcrq => "LCRQ",
            QueueKind::Ymc => "YMC (bug)",
            QueueKind::CcQueue => "CCQueue",
            QueueKind::CrTurn => "CRTurn",
            QueueKind::Faa => "FAA",
            QueueKind::WcqUnbounded => "wLSCQ",
            QueueKind::WcqUnboundedLlsc => "wLSCQ (LL/SC)",
        }
    }
}

/// Builds a fresh queue of the requested kind behind the public facade.
///
/// `max_threads` bounds concurrent registrations and `ring_order` sizes the
/// bounded rings (the paper uses 2^16 for wCQ/SCQ and 2^12 rings for LCRQ).
pub fn make_queue(
    kind: QueueKind,
    max_threads: usize,
    ring_order: u32,
) -> Box<dyn WaitFreeQueue<u64>> {
    make_queue_configured(kind, max_threads, ring_order, None)
}

/// Like [`make_queue`], but with an explicit wait-freedom configuration for
/// the wCQ kinds.  Stress plans use this to force the slow path with
/// `max_patience = 1`; other kinds ignore the configuration.
pub fn make_queue_configured(
    kind: QueueKind,
    max_threads: usize,
    ring_order: u32,
    wcq_config: Option<WcqConfig>,
) -> Box<dyn WaitFreeQueue<u64>> {
    let wcq_builder = wcq::builder()
        .capacity_order(ring_order)
        .threads(max_threads)
        .config(wcq_config.unwrap_or_default());
    // Segment order is capped at 2^12 like LCRQ's rings: both are segmented
    // designs whose *total* capacity is unbounded, so a paper-scale
    // `--order 16` should size their segments, not one giant ring — and the
    // shared cap keeps the wLSCQ-vs-LCRQ comparison like for like.
    let segmented = wcq_builder.clone().capacity_order(ring_order.min(12));
    match kind {
        QueueKind::Wcq => Box::new(wcq_builder.build_bounded::<u64>()),
        QueueKind::WcqLlsc => Box::new(wcq_builder.llsc().build_bounded::<u64>()),
        QueueKind::WcqUnbounded => Box::new(segmented.build_unbounded::<u64>()),
        QueueKind::WcqUnboundedLlsc => Box::new(segmented.llsc().build_unbounded::<u64>()),
        QueueKind::Scq => Box::new(ScqQueue::new(ring_order)),
        QueueKind::MsQueue => Box::new(MsQueue::new(max_threads)),
        QueueKind::Lcrq => Box::new(Lcrq::new(ring_order.min(12), max_threads)),
        QueueKind::Ymc => Box::new(YmcQueue::new()),
        QueueKind::CcQueue => Box::new(CcQueue::new(max_threads)),
        QueueKind::CrTurn => Box::new(CrTurnQueue::new(max_threads)),
        QueueKind::Faa => Box::new(FaaQueue::new(ring_order)),
    }
}

/// Like [`make_queue_configured`], but attaches a live
/// [`CountingInstrument`] to the queue so every layer — ring fast/slow paths,
/// helping entries, CAS failures, segment lifecycle — records into its shared
/// counter set.  Returns `None` for the baseline kinds, which have no
/// instrumentation hooks; only the wCQ family (bounded and unbounded, both
/// hardware models) is observable.
///
/// Keep the returned instrument and call
/// [`snapshot`](CountingInstrument::snapshot) *after* worker handles have
/// dropped: per-handle completion tallies are flushed on handle drop.
pub fn make_counting_queue(
    kind: QueueKind,
    max_threads: usize,
    ring_order: u32,
    wcq_config: Option<WcqConfig>,
) -> Option<(Box<dyn WaitFreeQueue<u64>>, CountingInstrument)> {
    let instr = CountingInstrument::new();
    let wcq_builder = wcq::builder()
        .capacity_order(ring_order)
        .threads(max_threads)
        .config(wcq_config.unwrap_or_default())
        .instrument(instr.clone());
    // Segment-order cap: same reasoning as `make_queue_configured`, so
    // counting runs measure the same shapes.
    let segmented = wcq_builder.clone().capacity_order(ring_order.min(12));
    let queue: Box<dyn WaitFreeQueue<u64>> = match kind {
        QueueKind::Wcq => Box::new(wcq_builder.build_bounded::<u64>()),
        QueueKind::WcqLlsc => Box::new(wcq_builder.llsc().build_bounded::<u64>()),
        QueueKind::WcqUnbounded => Box::new(segmented.build_unbounded::<u64>()),
        QueueKind::WcqUnboundedLlsc => Box::new(segmented.llsc().build_unbounded::<u64>()),
        _ => return None,
    };
    Some((queue, instr))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_constructs_and_round_trips_through_the_facade() {
        // All 11 QueueKinds flow through the public WaitFreeQueue trait.
        for kind in QueueKind::all() {
            let q = make_queue(kind, 2, 8);
            let mut h = q.handle();
            h.enqueue(41);
            h.enqueue(42);
            // FAA is not a real queue but still returns the stored values in
            // this uncontended case.
            assert_eq!(h.dequeue(), Some(41), "kind {:?}", kind);
            assert_eq!(h.dequeue(), Some(42), "kind {:?}", kind);
            assert!(q.memory_footprint() > 0);
            assert!(!q.name().is_empty());
        }
    }

    #[test]
    fn facade_names_match_the_kind_legends() {
        for kind in QueueKind::all() {
            let q = make_queue(kind, 2, 8);
            assert_eq!(q.name(), kind.name(), "kind {:?}", kind);
        }
    }

    #[test]
    fn unbounded_kinds_construct_and_round_trip() {
        for kind in QueueKind::unbounded_set() {
            let q = make_queue(kind, 2, 6);
            let mut h = q.handle();
            for i in 0..200 {
                h.enqueue(i); // 200 values through 64-slot segments forces growth
            }
            for i in 0..200 {
                assert_eq!(h.dequeue(), Some(i), "kind {:?}", kind);
            }
            assert_eq!(h.dequeue(), None, "kind {:?}", kind);
            assert!(q.memory_footprint() > 0);
        }
    }

    #[test]
    fn registration_limited_kinds_exhaust_and_recover() {
        for kind in [
            QueueKind::Wcq,
            QueueKind::MsQueue,
            QueueKind::CcQueue,
            QueueKind::WcqUnbounded,
        ] {
            let q = make_queue(kind, 2, 8);
            let a = q.try_handle().expect("slot 1");
            let b = q.try_handle().expect("slot 2");
            assert!(q.try_handle().is_none(), "kind {:?}", kind);
            drop(a);
            assert!(q.try_handle().is_some(), "kind {:?}", kind);
            drop(b);
        }
    }

    #[test]
    fn x86_and_powerpc_sets_match_paper_legends() {
        let x86: Vec<_> = QueueKind::x86_set().iter().map(|k| k.name()).collect();
        assert!(x86.contains(&"LCRQ"));
        let ppc: Vec<_> = QueueKind::powerpc_set().iter().map(|k| k.name()).collect();
        assert!(
            !ppc.contains(&"LCRQ"),
            "LCRQ needs CAS2 and is absent on PowerPC"
        );
        assert!(ppc.contains(&"wCQ (LL/SC)"));
        assert_eq!(QueueKind::all().len(), 11);
    }
}
