//! Close-aware channel stress: the [`stress`](crate::stress) oracle's
//! semantics, extended with the channel layer's shutdown guarantee.
//!
//! The channel endpoints (`wcq::channel`) promise more than the queue facade
//! underneath them: after a close — explicit `close()` or the last sender
//! dropping — **every value sent before the close is drained exactly once**
//! before any receiver observes `Closed`, and every post-close send fails
//! fast.  This module packages that claim as a seed-reproducible plan, the
//! same shape as [`StressPlan`](crate::StressPlan):
//!
//! ```no_run
//! use wcq::ChannelBackend;
//! use wcq_harness::ChannelStressPlan;
//! ChannelStressPlan::from_seed(ChannelBackend::Unbounded, 0xC10_5E).assert_holds();
//! ```
//!
//! Producers send a fixed per-producer quota through cloned [`Sender`]s and
//! drop them; consumers `recv()` through cloned [`Receiver`]s until the
//! channel reports closed-and-drained.  Depending on the seed, the close is
//! either the organic last-sender-drop or an explicit `close()` by a
//! coordinator that then proves post-close sends fail with `Closed`.  The
//! oracle then checks no loss, no duplication, no invention and per-producer
//! FIFO over the union of all observations — and, for the counting backends,
//! that `is_empty_hint()` agrees the drained channel is empty.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Mutex;

use wcq::channel::{Receiver, SendError, Sender, TrySendError};
use wcq::ChannelBackend;

use crate::rng::DetRng;
use crate::stress::encode;

/// A fully seed-derived close-semantics stress configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelStressPlan {
    /// The seed every other field was derived from.
    pub seed: u64,
    /// Queue shape behind the channel.
    pub backend: ChannelBackend,
    /// Number of producer endpoints (≥ 1), each a `Sender` clone.
    pub producers: usize,
    /// Number of consumer endpoints (≥ 1), each a `Receiver` clone.
    pub consumers: usize,
    /// Values each producer sends before dropping its endpoint.
    pub sends_per_producer: u64,
    /// Capacity order of the backend (bounded: total capacity 2^order, so
    /// producers really block on a full queue; unbounded: segment size).
    pub capacity_order: u32,
    /// `true`: a coordinator explicitly closes after the producers finish and
    /// proves a post-close send fails; `false`: the close is the organic
    /// last-sender-drop.
    pub explicit_close: bool,
    /// Batch size for the producer and consumer endpoints.  `1` keeps the
    /// per-value `send`/`recv` loops; larger values send through
    /// [`Sender::send_iter`] in chunks of this size and drain through
    /// [`Receiver::recv_many`], exercising the batched close-check paths
    /// against the same exact-drain oracle.
    pub send_batch: usize,
    /// `true` (batched plans only): the coordinator closes the channel
    /// *while* producers are still inside `send_iter`, once a fraction of the
    /// quota has drained.  Producers then report exactly how many values the
    /// channel accepted before `Closed` — `send_iter` accepts a FIFO prefix
    /// and returns the rest in its error — and the oracle checks that every
    /// accepted element drains exactly once.  Overrides [`explicit_close`]:
    /// the racing close is always explicit.
    ///
    /// [`explicit_close`]: ChannelStressPlan::explicit_close
    pub racing_close: bool,
}

impl ChannelStressPlan {
    /// Derives a complete plan from `seed`; the same `(backend, seed)` pair
    /// always yields the same plan.
    pub fn from_seed(backend: ChannelBackend, seed: u64) -> Self {
        let mut rng = DetRng::new(seed ^ 0xC1_05ED_C4A7);
        let producers = rng.range_inclusive(1, 3) as usize;
        let consumers = rng.range_inclusive(1, 3) as usize;
        let sends_per_producer = rng.range_inclusive(1_000, 4_000);
        // Small enough that the bounded backend exercises real Full
        // backpressure mid-run.
        let capacity_order = rng.range_inclusive(5, 7) as u32;
        let explicit_close = rng.chance(0.5);
        // Drawn last so the batch dimensions never perturb the older fields.
        let send_batch = if rng.chance(0.5) {
            rng.range_inclusive(2, 32) as usize
        } else {
            1
        };
        let racing_close = send_batch > 1 && rng.chance(0.5);
        Self {
            seed,
            backend,
            producers,
            consumers,
            sends_per_producer,
            capacity_order,
            explicit_close,
            send_batch,
            racing_close,
        }
    }

    /// Builds the channel pair this plan runs over.
    fn make_channel(&self) -> (Sender<u64>, Receiver<u64>) {
        wcq::builder()
            .capacity_order(self.capacity_order)
            // Endpoints register lazily, one slot each: producers + consumers
            // + the coordinator's sender + a drained-state probe receiver.
            .threads(self.producers + self.consumers + 2)
            .backend(self.backend)
            .build_channel::<u64>()
    }

    /// Executes the plan and gathers every observation.
    pub fn run(&self) -> ChannelStressReport {
        assert!(self.producers >= 1 && self.consumers >= 1);
        let (tx, rx) = self.make_channel();
        // Kept outside the worker set: answers `is_empty_hint` after the
        // drain without re-opening the channel (receivers never hold it open).
        let hint_probe = rx.clone();

        let observations = Mutex::new(Vec::<Vec<u64>>::new());
        // producer id → values the channel actually accepted pre-close
        // (always the full quota except under a racing close).
        let accepted_counts = Mutex::new(HashMap::<usize, u64>::new());
        let received_total = AtomicU64::new(0);
        let mut post_close_send_failed = None;

        std::thread::scope(|s| {
            let mut producer_joins = Vec::new();
            for wid in 0..self.producers {
                let mut tx = tx.clone();
                let quota = self.sends_per_producer;
                let batch = self.send_batch.max(1);
                let racing = self.racing_close;
                let accepted_counts = &accepted_counts;
                producer_joins.push(s.spawn(move || {
                    let mut accepted = 0u64;
                    if batch == 1 {
                        for seq in 1..=quota {
                            match tx.send(encode(wid, seq)) {
                                Ok(()) => accepted += 1,
                                Err(_) if racing => break,
                                Err(_) => {
                                    panic!("channel closed before the pre-close quota was sent")
                                }
                            }
                        }
                    } else {
                        let mut next_seq = 1u64;
                        while next_seq <= quota {
                            let n = batch.min((quota - next_seq + 1) as usize);
                            let chunk: Vec<u64> =
                                (0..n).map(|k| encode(wid, next_seq + k as u64)).collect();
                            next_seq += n as u64;
                            match tx.send_iter(chunk) {
                                Ok(sent) => accepted += sent as u64,
                                // `send_iter` accepts a FIFO prefix of the
                                // chunk and hands back the unsent suffix, so
                                // this producer's accepted set is exactly
                                // seqs 1..=accepted.
                                Err(SendError(remainder)) => {
                                    assert!(
                                        racing,
                                        "channel closed before the pre-close quota was sent"
                                    );
                                    accepted += (n - remainder.len()) as u64;
                                    break;
                                }
                            }
                        }
                    }
                    accepted_counts
                        .lock()
                        .unwrap_or_else(|poisoned| poisoned.into_inner())
                        .insert(wid, accepted);
                    // `tx` drops here; in the last-drop mode the final
                    // producer's drop is what closes the channel.
                }));
            }
            for _ in 0..self.consumers {
                let mut rx = rx.clone();
                let observations = &observations;
                let received_total = &received_total;
                let batch = self.send_batch.max(1);
                s.spawn(move || {
                    let mut local = Vec::new();
                    // Blocking recv until closed *and* drained — the
                    // channel's own definition of the end of the stream.
                    if batch == 1 {
                        while let Ok(value) = rx.recv() {
                            received_total.fetch_add(1, SeqCst);
                            local.push(value);
                        }
                    } else {
                        let mut grab = Vec::with_capacity(batch);
                        while let Ok(got) = rx.recv_many(&mut grab, batch) {
                            received_total.fetch_add(got as u64, SeqCst);
                            local.append(&mut grab);
                        }
                    }
                    observations
                        .lock()
                        .unwrap_or_else(|poisoned| poisoned.into_inner())
                        .push(local);
                });
            }
            let mut tx = tx;
            if self.racing_close {
                // Close mid-stream: wait only until a quarter of the quota
                // has drained (or the producers outran us), then cut the
                // senders off inside their `send_iter` loops.
                let threshold = (self.producers as u64 * self.sends_per_producer) / 4;
                while received_total.load(SeqCst) < threshold
                    && !producer_joins.iter().all(|j| j.is_finished())
                {
                    std::thread::yield_now();
                }
                tx.close();
                post_close_send_failed = Some(matches!(
                    tx.try_send(u64::MAX),
                    Err(TrySendError::Closed(_))
                ));
                for join in producer_joins {
                    join.join().expect("producer panicked");
                }
            } else {
                // The coordinator holds the original `tx`, keeping the
                // channel open until every producer finished its quota.
                for join in producer_joins {
                    join.join().expect("producer panicked");
                }
                if self.explicit_close {
                    tx.close();
                    post_close_send_failed = Some(matches!(
                        tx.try_send(u64::MAX),
                        Err(TrySendError::Closed(_))
                    ));
                }
            }
            drop(tx); // last sender: closes organically in the drop mode
            drop(rx);
        });

        let empty_hint_after_drain = match self.backend {
            // Bounded wCQ's hint is derived from the data ring's tail−head
            // distance, which slow-path retries inflate — sound as a
            // scheduling hint (wrong only toward "non-empty"), but not a
            // drain oracle, so the post-drain equality is only asserted for
            // the unbounded kinds' maintained counters.
            ChannelBackend::Bounded => None,
            ChannelBackend::Unbounded => Some(hint_probe.is_empty_hint()),
        };

        ChannelStressReport {
            plan: self.clone(),
            sent_per_producer: accepted_counts
                .into_inner()
                .unwrap_or_else(|poisoned| poisoned.into_inner()),
            observations: observations
                .into_inner()
                .unwrap_or_else(|poisoned| poisoned.into_inner()),
            post_close_send_failed,
            empty_hint_after_drain,
        }
    }

    /// Runs the plan and panics (with the seed in the message) unless every
    /// oracle check passes.
    pub fn assert_holds(&self) {
        if let Err(violation) = self.run().verify() {
            panic!(
                "channel close oracle violated for {:?} (replay with \
                 ChannelStressPlan::from_seed({:?}, {:#x})): {violation}\nplan: {self:?}",
                self.backend, self.backend, self.seed
            );
        }
    }
}

/// Everything a [`ChannelStressPlan::run`] observed.
#[derive(Debug)]
pub struct ChannelStressReport {
    /// The plan that produced this report.
    pub plan: ChannelStressPlan,
    /// producer id → values the channel accepted from that producer before
    /// the close (the full quota except under a racing close, where it is
    /// the FIFO prefix `send_iter` reported as accepted).
    pub sent_per_producer: HashMap<usize, u64>,
    /// Per-consumer observation sequences, in local order.
    pub observations: Vec<Vec<u64>>,
    /// Outcome of the coordinator's post-close send probe:
    /// `Some(true)` = failed with `Closed` as required, `Some(false)` = was
    /// accepted (a bug), `None` = plan used the last-drop close (no sender
    /// left to probe with).
    pub post_close_send_failed: Option<bool>,
    /// `is_empty_hint()` observed after the full drain, for the counting
    /// backends (`None` for the bounded backend, whose facade hint is the
    /// conservative `false`).
    pub empty_hint_after_drain: Option<bool>,
}

impl ChannelStressReport {
    /// Runs the close-semantics oracle: exact drain (no loss / duplication /
    /// invention), per-producer FIFO per observer, post-close sends rejected,
    /// and a truthful emptiness hint after the drain.
    pub fn verify(&self) -> Result<(), String> {
        let expected: u64 = self.sent_per_producer.values().sum();
        let got: u64 = self.observations.iter().map(|o| o.len() as u64).sum();
        if got != expected {
            return Err(format!(
                "close drain violated: {expected} values sent pre-close but {got} received"
            ));
        }
        // The per-observation half — invention / duplication / per-producer
        // FIFO — is the queue-level oracle, shared verbatim; every backend
        // keeps per-sender FIFO, so the FIFO clause always applies.
        crate::stress::verify_observations(&self.sent_per_producer, &self.observations, true)?;
        if self.post_close_send_failed == Some(false) {
            return Err("a post-close send was accepted instead of failing Closed".into());
        }
        if self.empty_hint_after_drain == Some(false) {
            return Err(
                "is_empty_hint() returned false after a verified full drain \
                 (the approximate length counter drifted)"
                    .into(),
            );
        }
        Ok(())
    }
}

/// Every channel backend, in a stable order — the set the close-semantics
/// integration tests sweep.
pub fn all_channel_backends() -> Vec<ChannelBackend> {
    vec![ChannelBackend::Bounded, ChannelBackend::Unbounded]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn plans_are_reproducible_and_vary_with_the_seed() {
        for backend in all_channel_backends() {
            let a = ChannelStressPlan::from_seed(backend, 11);
            let b = ChannelStressPlan::from_seed(backend, 11);
            assert_eq!(a, b);
        }
        let shapes: HashSet<_> = (0..16u64)
            .map(|s| {
                let p = ChannelStressPlan::from_seed(ChannelBackend::Unbounded, s);
                (
                    p.producers,
                    p.consumers,
                    p.sends_per_producer,
                    p.explicit_close,
                )
            })
            .collect();
        assert!(shapes.len() > 1, "seeds must vary the plan shape");
    }

    #[test]
    fn oracle_catches_a_lost_pre_close_value() {
        let plan = ChannelStressPlan::from_seed(ChannelBackend::Unbounded, 3);
        let report = ChannelStressReport {
            plan,
            sent_per_producer: HashMap::from([(0, 2)]),
            observations: vec![vec![encode(0, 1)]],
            post_close_send_failed: None,
            empty_hint_after_drain: Some(true),
        };
        assert!(report.verify().unwrap_err().contains("drain violated"));
    }

    #[test]
    fn oracle_catches_an_accepted_post_close_send() {
        let plan = ChannelStressPlan::from_seed(ChannelBackend::Unbounded, 3);
        let report = ChannelStressReport {
            plan,
            sent_per_producer: HashMap::from([(0, 1)]),
            observations: vec![vec![encode(0, 1)]],
            post_close_send_failed: Some(false),
            empty_hint_after_drain: Some(true),
        };
        assert!(report.verify().unwrap_err().contains("post-close"));
    }

    #[test]
    fn oracle_catches_a_drifted_empty_hint() {
        let plan = ChannelStressPlan::from_seed(ChannelBackend::Unbounded, 3);
        let report = ChannelStressReport {
            plan,
            sent_per_producer: HashMap::from([(0, 1)]),
            observations: vec![vec![encode(0, 1)]],
            post_close_send_failed: Some(true),
            empty_hint_after_drain: Some(false),
        };
        assert!(report.verify().unwrap_err().contains("is_empty_hint"));
    }

    #[test]
    fn oracle_catches_fifo_and_duplication() {
        let plan = ChannelStressPlan::from_seed(ChannelBackend::Bounded, 3);
        let reordered = ChannelStressReport {
            plan: plan.clone(),
            sent_per_producer: HashMap::from([(0, 2)]),
            observations: vec![vec![encode(0, 2), encode(0, 1)]],
            post_close_send_failed: None,
            empty_hint_after_drain: None,
        };
        assert!(reordered.verify().unwrap_err().contains("FIFO"));
        let duplicated = ChannelStressReport {
            plan,
            sent_per_producer: HashMap::from([(0, 2)]),
            observations: vec![vec![encode(0, 1)], vec![encode(0, 1)]],
            post_close_send_failed: None,
            empty_hint_after_drain: None,
        };
        assert!(duplicated.verify().unwrap_err().contains("duplicated"));
    }

    #[test]
    fn smoke_run_one_backend() {
        // A tiny end-to-end run; the full backend sweep lives in
        // `tests/channel.rs`.
        let mut plan = ChannelStressPlan::from_seed(ChannelBackend::Unbounded, 7);
        plan.sends_per_producer = 300;
        plan.send_batch = 1;
        plan.racing_close = false;
        plan.assert_holds();
    }

    #[test]
    fn seed_derivation_covers_batched_and_racing_plans() {
        let plans: Vec<_> = (0..32u64)
            .map(|s| ChannelStressPlan::from_seed(ChannelBackend::Unbounded, s))
            .collect();
        assert!(plans.iter().any(|p| p.send_batch == 1));
        assert!(plans.iter().any(|p| p.send_batch > 1));
        assert!(plans.iter().any(|p| p.racing_close));
        assert!(plans.iter().all(|p| !p.racing_close || p.send_batch > 1));
    }

    #[test]
    fn batched_sends_drain_exactly_once() {
        let mut plan = ChannelStressPlan::from_seed(ChannelBackend::Unbounded, 7);
        plan.sends_per_producer = 300;
        plan.send_batch = 16;
        plan.racing_close = false;
        plan.assert_holds();
    }

    #[test]
    fn send_iter_racing_close_drains_every_accepted_element_exactly_once() {
        // The close lands while producers are mid-`send_iter`; the oracle
        // then holds over exactly the accepted prefixes.  (On a loaded box
        // the race may degenerate to closing after the quota — the oracle is
        // the same either way.)
        let mut plan = ChannelStressPlan::from_seed(ChannelBackend::Unbounded, 7);
        plan.sends_per_producer = 400;
        plan.send_batch = 8;
        plan.racing_close = true;
        plan.assert_holds();
    }
}
