//! [`WaitFreeQueue`]/[`QueueHandle`] facade implementations for every
//! baseline, so the harness, the figures and applications can drive the whole
//! §6 evaluation set through the one public trait pair of `wcq_core::api`.
//!
//! Payloads: MSQueue and CCQueue are generic like the wCQ queues; LCRQ,
//! CRTurn, YMC and FAA move `u64` sequence numbers, exactly as the paper's
//! benchmark does (it enqueues small integers / pointers), so their facades
//! are `WaitFreeQueue<u64>`.

use wcq_core::api::{QueueHandle, WaitFreeQueue};

use crate::ccqueue::{CcQueue, CcQueueHandle};
use crate::crturn::{CrTurnHandle, CrTurnQueue};
use crate::faa::FaaQueue;
use crate::lcrq::{Lcrq, LcrqHandle};
use crate::msqueue::{MsQueue, MsQueueHandle};
use crate::ymc::YmcQueue;

// --------------------------------------------------------------------------
// MSQueue (lock-free list queue; unbounded, so try_enqueue never fails)
// --------------------------------------------------------------------------

impl<T: Send> QueueHandle<T> for MsQueueHandle<'_, T> {
    fn try_enqueue(&mut self, value: T) -> Result<(), T> {
        MsQueueHandle::enqueue(self, value);
        Ok(())
    }
    fn dequeue(&mut self) -> Option<T> {
        MsQueueHandle::dequeue(self)
    }
}

impl<T: Send> WaitFreeQueue<T> for MsQueue<T> {
    fn name(&self) -> &'static str {
        "MSQueue"
    }
    fn try_handle(&self) -> Option<Box<dyn QueueHandle<T> + '_>> {
        self.register().map(|h| Box::new(h) as _)
    }
    fn max_threads(&self) -> usize {
        MsQueue::max_threads(self)
    }
    fn memory_footprint(&self) -> usize {
        std::mem::size_of::<Self>()
    }
    fn is_empty_hint(&self) -> bool {
        MsQueue::is_empty_hint(self)
    }
}

// --------------------------------------------------------------------------
// CCQueue (flat combining; unbounded)
// --------------------------------------------------------------------------

impl<T: Send> QueueHandle<T> for CcQueueHandle<'_, T> {
    fn try_enqueue(&mut self, value: T) -> Result<(), T> {
        CcQueueHandle::enqueue(self, value);
        Ok(())
    }
    fn dequeue(&mut self) -> Option<T> {
        CcQueueHandle::dequeue(self)
    }
}

impl<T: Send> WaitFreeQueue<T> for CcQueue<T> {
    fn name(&self) -> &'static str {
        "CCQueue"
    }
    fn try_handle(&self) -> Option<Box<dyn QueueHandle<T> + '_>> {
        self.register().map(|h| Box::new(h) as _)
    }
    fn max_threads(&self) -> usize {
        CcQueue::max_threads(self)
    }
    fn memory_footprint(&self) -> usize {
        std::mem::size_of::<Self>()
    }
    fn is_empty_hint(&self) -> bool {
        self.len_hint() == 0
    }
}

// --------------------------------------------------------------------------
// LCRQ (ring queues on an outer list; unbounded)
// --------------------------------------------------------------------------

impl QueueHandle<u64> for LcrqHandle<'_> {
    fn try_enqueue(&mut self, value: u64) -> Result<(), u64> {
        LcrqHandle::enqueue(self, value);
        Ok(())
    }
    fn dequeue(&mut self) -> Option<u64> {
        LcrqHandle::dequeue(self)
    }
}

impl WaitFreeQueue<u64> for Lcrq {
    fn name(&self) -> &'static str {
        "LCRQ"
    }
    fn try_handle(&self) -> Option<Box<dyn QueueHandle<u64> + '_>> {
        self.register().map(|h| Box::new(h) as _)
    }
    fn max_threads(&self) -> usize {
        Lcrq::max_threads(self)
    }
    fn memory_footprint(&self) -> usize {
        Lcrq::memory_footprint(self)
    }
    // No emptiness hint: deciding emptiness needs the head ring's counters,
    // and reading them from an unregistered `&self` would dereference a ring
    // that a concurrent dequeuer may retire at any moment.  The default
    // `is_empty_hint() == false` means "not known empty", never "empty".
}

// --------------------------------------------------------------------------
// CRTurn (turn-based wait-free queue; unbounded)
// --------------------------------------------------------------------------

impl QueueHandle<u64> for CrTurnHandle<'_> {
    fn try_enqueue(&mut self, value: u64) -> Result<(), u64> {
        CrTurnHandle::enqueue(self, value);
        Ok(())
    }
    fn dequeue(&mut self) -> Option<u64> {
        CrTurnHandle::dequeue(self)
    }
}

impl WaitFreeQueue<u64> for CrTurnQueue {
    fn name(&self) -> &'static str {
        "CRTurn"
    }
    fn try_handle(&self) -> Option<Box<dyn QueueHandle<u64> + '_>> {
        self.register().map(|h| Box::new(h) as _)
    }
    fn max_threads(&self) -> usize {
        CrTurnQueue::max_threads(self)
    }
    fn memory_footprint(&self) -> usize {
        std::mem::size_of::<Self>()
    }
    fn is_empty_hint(&self) -> bool {
        CrTurnQueue::is_empty_hint(self)
    }
}

// --------------------------------------------------------------------------
// YMC and FAA need no registration: a handle is shared access to the queue.
// --------------------------------------------------------------------------

impl QueueHandle<u64> for &YmcQueue {
    fn try_enqueue(&mut self, value: u64) -> Result<(), u64> {
        YmcQueue::enqueue(self, value);
        Ok(())
    }
    fn dequeue(&mut self) -> Option<u64> {
        YmcQueue::dequeue(self)
    }
}

impl WaitFreeQueue<u64> for YmcQueue {
    fn name(&self) -> &'static str {
        "YMC (bug)"
    }
    fn try_handle(&self) -> Option<Box<dyn QueueHandle<u64> + '_>> {
        Some(Box::new(self))
    }
    fn max_threads(&self) -> usize {
        usize::MAX
    }
    fn memory_footprint(&self) -> usize {
        YmcQueue::memory_footprint(self)
    }
    fn is_empty_hint(&self) -> bool {
        YmcQueue::is_empty_hint(self)
    }
}

impl QueueHandle<u64> for &FaaQueue {
    fn try_enqueue(&mut self, value: u64) -> Result<(), u64> {
        FaaQueue::enqueue(self, value);
        Ok(())
    }
    fn dequeue(&mut self) -> Option<u64> {
        FaaQueue::dequeue(self)
    }
}

impl WaitFreeQueue<u64> for FaaQueue {
    fn name(&self) -> &'static str {
        "FAA"
    }
    fn try_handle(&self) -> Option<Box<dyn QueueHandle<u64> + '_>> {
        Some(Box::new(self))
    }
    fn max_threads(&self) -> usize {
        usize::MAX
    }
    fn memory_footprint(&self) -> usize {
        FaaQueue::memory_footprint(self)
    }
    fn is_empty_hint(&self) -> bool {
        FaaQueue::is_empty_hint(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(queue: &dyn WaitFreeQueue<u64>) {
        let mut h = queue.handle();
        h.enqueue(41);
        assert_eq!(h.try_enqueue(42), Ok(()), "{}", queue.name());
        assert_eq!(h.dequeue(), Some(41), "{}", queue.name());
        assert_eq!(h.dequeue(), Some(42), "{}", queue.name());
        assert!(queue.memory_footprint() > 0);
    }

    #[test]
    fn every_baseline_round_trips_through_the_facade() {
        round_trip(&MsQueue::<u64>::new(2));
        round_trip(&CcQueue::<u64>::new(2));
        round_trip(&Lcrq::new(6, 2));
        round_trip(&CrTurnQueue::new(2));
        round_trip(&YmcQueue::new());
        round_trip(&FaaQueue::new(6));
    }

    #[test]
    fn emptiness_hints_are_truthful_when_advertised() {
        fn check(queue: &dyn WaitFreeQueue<u64>) {
            if queue.name() == "LCRQ" {
                // LCRQ keeps the constant-false default: emptiness would
                // need a hazard-protected ring dereference.
                assert!(!queue.is_empty_hint());
                return;
            }
            assert!(
                queue.is_empty_hint(),
                "{}: fresh queue is empty",
                queue.name()
            );
            let mut h = queue.handle();
            h.enqueue(7);
            assert!(
                !queue.is_empty_hint(),
                "{}: hint sees the quiescent element",
                queue.name()
            );
            assert_eq!(h.dequeue(), Some(7));
            assert!(
                queue.is_empty_hint(),
                "{}: hint clears after the drain",
                queue.name()
            );
        }
        check(&MsQueue::<u64>::new(2));
        check(&CcQueue::<u64>::new(2));
        check(&CrTurnQueue::new(2));
        check(&YmcQueue::new());
        check(&FaaQueue::new(6));
        check(&Lcrq::new(6, 2));
    }

    #[test]
    fn registration_limits_surface_through_try_handle() {
        let q = MsQueue::<u64>::new(1);
        let dynq: &dyn WaitFreeQueue<u64> = &q;
        let h = dynq.try_handle().expect("one slot");
        assert!(dynq.try_handle().is_none());
        drop(h);
        assert!(dynq.try_handle().is_some());
        assert_eq!(dynq.max_threads(), 1);
    }

    #[test]
    fn unregistered_baselines_hand_out_unlimited_handles() {
        let q = YmcQueue::new();
        let dynq: &dyn WaitFreeQueue<u64> = &q;
        assert_eq!(dynq.max_threads(), usize::MAX);
        let _a = dynq.handle();
        let _b = dynq.handle();
    }
}
