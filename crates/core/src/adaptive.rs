//! Contention-adaptive patience control for the wCQ fast path.
//!
//! The paper fixes `MAX_PATIENCE` statically (§6: 16 for enqueue, 64 for
//! dequeue) and notes the trade-off it embodies: spinning on the fast path a
//! little longer is far cheaper than entering the helping slow path, but only
//! while contention makes the extra attempts likely to succeed.  The right
//! bound therefore depends on runtime contention, which no static choice can
//! see.  This module closes that loop with a **handle-local** controller:
//!
//! * every ring operation reports how many fast-path attempts it burned and
//!   whether it exhausted its patience (both numbers the patience loop already
//!   computes — nothing new is measured);
//! * a [`PatienceController`] folds those reports into a windowed EWMA of
//!   *extra attempts per operation* and, once per `sample_every` operations,
//!   widens the patience bound under contention and shrinks it toward the
//!   configured minimum when failures are rare;
//! * a [`PatienceCell`] pairs one controller per ring direction and lives on
//!   the *handle*, so the hot path touches only unshared, non-atomic memory.
//!
//! ## Why handle-local (and not the shared `CounterSet`)
//!
//! The observability layer's counters are shared atomics — reading them on
//! the per-operation fast path would (a) serialize the very contention they
//! measure and (b) break the `NoopInstrument` zero-overhead contract, which
//! promises that un-instrumented queues execute *no* telemetry code at all.
//! The controller instead feeds on the patience loop's own iteration count:
//! a handful of register operations on memory only this thread owns, present
//! and identical whether or not a `CounterSet` is attached.  The shared
//! counters are only ever *written* (and only on the rare adjustment events,
//! via [`crate::metrics::Counter::PatienceRaised`] /
//! [`crate::metrics::Counter::PatienceLowered`]) — never read back.
//!
//! ## Wait-freedom is untouched
//!
//! The controller only moves the *entry threshold* of the slow path between
//! builder-set `[min, max]` clamps; the slow path itself remains reachable on
//! every operation (patience is always finite), so the paper's wait-freedom
//! argument carries over verbatim — the bound on fast-path attempts before
//! helping is `max` instead of a constant.

use crate::wcq::WcqConfig;

/// Fixed-point scale of the contention EWMA: a level of `EWMA_ONE` means an
/// average of one *extra* (failed) fast-path attempt per ring operation.
pub const EWMA_ONE: u32 = 256;

/// EWMA level at or above which a window is judged contended and the patience
/// bound doubles (half an extra attempt per operation).
pub const RAISE_LEVEL: u32 = EWMA_ONE / 2;

/// EWMA level below which a window with no exhaustion is judged quiet and the
/// patience bound halves (one extra attempt per 16 operations).
pub const LOWER_LEVEL: u32 = EWMA_ONE / 16;

/// Contention level at which the blocking-enqueue spin phase is capped hard
/// (see [`PatienceCell::spin_cap`]).
pub const HIGH_CONTENTION: u32 = EWMA_ONE;

/// How the fast-path patience bound is chosen — the builder-facing knob
/// (`QueueBuilder::patience_mode`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatienceMode {
    /// One static bound for both directions, exactly the paper's knob.
    Fixed(u32),
    /// Self-tuning bounds driven by the handle-local controller.
    Adaptive(AdaptivePatience),
}

/// Parameters of the adaptive patience controller.
///
/// The defaults clamp the bound to `[1, 256]` and re-evaluate every 64
/// operations — wide enough to cover both the uncontended case (bound rests
/// at the minimum) and heavy contention (bound grows past the paper's static
/// 16/64 when spinning keeps winning).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AdaptivePatience {
    /// Lower clamp of the patience bound (at least 1: the fast path is always
    /// attempted once).
    pub min: u32,
    /// Upper clamp of the patience bound.
    pub max: u32,
    /// Window length in ring operations between controller decisions.
    pub sample_every: u32,
}

impl Default for AdaptivePatience {
    fn default() -> Self {
        Self {
            min: 1,
            max: 256,
            sample_every: 64,
        }
    }
}

impl AdaptivePatience {
    /// Returns the parameters with degenerate values fixed up (`min >= 1`,
    /// `max >= min`, `sample_every >= 1`).
    fn normalized(self) -> Self {
        let min = self.min.max(1);
        Self {
            min,
            max: self.max.max(min),
            sample_every: self.sample_every.max(1),
        }
    }
}

/// A patience-bound adjustment the controller decided on at a window
/// boundary.  Surfaced so callers can tally the (rare) adjustment events into
/// the shared metrics counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Adjustment {
    /// The bound doubled (clamped to `max`): the window was contended.
    Raised,
    /// The bound halved (clamped to `min`): the window was quiet.
    Lowered,
}

/// The windowed-EWMA patience controller (one ring direction).
///
/// Plain `Copy` data — it lives inside the owning handle's [`PatienceCell`]
/// and is updated in place, so the hot path needs no atomics, no allocation
/// and no sharing.  All arithmetic is integral and the
/// decision sequence is a pure function of the observation sequence, which is
/// what makes the unit tests below exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatienceController {
    cfg: AdaptivePatience,
    patience: u32,
    /// Operations observed in the current window.
    ops: u32,
    /// Failed fast-path attempts accumulated in the current window.
    extra: u64,
    /// Patience exhaustions (slow-path entries) in the current window.
    exhausted: u32,
    /// Fixed-point EWMA of extra attempts per operation ([`EWMA_ONE`] = 1.0).
    ewma: u32,
}

impl PatienceController {
    /// Creates a controller clamped to `cfg`, starting at the minimum bound.
    pub fn new(cfg: AdaptivePatience) -> Self {
        let cfg = cfg.normalized();
        Self {
            cfg,
            patience: cfg.min,
            ops: 0,
            extra: 0,
            exhausted: 0,
            ewma: 0,
        }
    }

    /// A degenerate controller pinned to `bound` (the `Fixed` mode): the
    /// clamps coincide, so no window decision can ever move the patience —
    /// but the contention EWMA is still maintained, because the shard router
    /// and the backoff cap read it regardless of the patience mode.
    pub fn fixed(bound: u32) -> Self {
        Self::new(AdaptivePatience {
            min: bound,
            max: bound,
            ..AdaptivePatience::default()
        })
    }

    /// The current patience bound the fast path should use.
    #[inline]
    pub fn patience(&self) -> u32 {
        self.patience
    }

    /// The current contention EWMA (fixed point, [`EWMA_ONE`] = one extra
    /// attempt per operation).
    #[inline]
    pub fn ewma(&self) -> u32 {
        self.ewma
    }

    /// Records one completed ring operation that burned `extra_attempts`
    /// failed fast-path attempts (and whether it exhausted its patience), and
    /// — at window boundaries — re-evaluates the bound.  Returns the
    /// adjustment when the bound actually moved.
    #[inline]
    pub fn observe(&mut self, extra_attempts: u32, exhausted: bool) -> Option<Adjustment> {
        self.observe_batch(1, extra_attempts, exhausted)
    }

    /// Records `ops` completed ring operations at once — the batch entry
    /// points reserve a run of tickets with a single F&A, so the whole run is
    /// one observation: `extra_attempts` is the run's pooled retry tally and
    /// `exhausted` reports whether the run's fallback entered the slow path.
    ///
    /// Folding the run in one call keeps the decision sequence a pure
    /// function of the observation sequence (the window may overshoot
    /// `sample_every` by at most one run; the average divides by the true op
    /// count, so a long run cannot skew the EWMA).  `ops == 0` is a no-op.
    #[inline]
    pub fn observe_batch(
        &mut self,
        ops: u32,
        extra_attempts: u32,
        exhausted: bool,
    ) -> Option<Adjustment> {
        if ops == 0 {
            return None;
        }
        self.ops = self.ops.saturating_add(ops);
        self.extra += u64::from(extra_attempts);
        self.exhausted += u32::from(exhausted);
        if self.ops < self.cfg.sample_every {
            return None;
        }
        self.decide()
    }

    /// Window-boundary evaluation: fold the window into the EWMA, move the
    /// bound, reset the window.
    fn decide(&mut self) -> Option<Adjustment> {
        let avg = self.extra.saturating_mul(u64::from(EWMA_ONE)) / u64::from(self.ops.max(1));
        self.ewma = ((3 * u64::from(self.ewma) + avg) / 4).min(u64::from(u32::MAX)) as u32;
        let contended = self.exhausted > 0 || self.ewma >= RAISE_LEVEL;
        let quiet = self.exhausted == 0 && self.ewma < LOWER_LEVEL;
        self.ops = 0;
        self.extra = 0;
        self.exhausted = 0;
        let before = self.patience;
        if contended {
            self.patience = before.saturating_mul(2).clamp(self.cfg.min, self.cfg.max);
            (self.patience != before).then_some(Adjustment::Raised)
        } else if quiet {
            self.patience = (before / 2).clamp(self.cfg.min, self.cfg.max);
            (self.patience != before).then_some(Adjustment::Lowered)
        } else {
            None
        }
    }
}

/// The per-handle patience state: one controller per ring direction, owned
/// by the handle and lent to the ring operation (`&mut`) for its duration.
///
/// Plain data, updated in place: an observation on the uncontended path is
/// three field updates and a compare.  (Copying a controller out of a
/// `Cell` and back per observation, as this type once did, reloads the whole
/// struct right behind narrower stores to it; the failed store forwarding
/// cost ≈ 6 ns per ring operation.)
#[derive(Debug)]
pub struct PatienceCell {
    enq: PatienceController,
    deq: PatienceController,
}

impl PatienceCell {
    /// Builds the cell a handle of a queue configured with `config` should
    /// carry: adaptive controllers when `config.adaptive_patience` is set,
    /// controllers pinned to the static bounds otherwise.
    pub fn from_config(config: &WcqConfig) -> Self {
        match config.adaptive_patience {
            Some(ap) => Self {
                enq: PatienceController::new(ap),
                deq: PatienceController::new(ap),
            },
            None => Self::fixed(config.max_patience_enqueue, config.max_patience_dequeue),
        }
    }

    /// A cell pinned to static bounds (no adjustments will ever fire).
    pub fn fixed(enqueue: u32, dequeue: u32) -> Self {
        Self {
            enq: PatienceController::fixed(enqueue),
            deq: PatienceController::fixed(dequeue),
        }
    }

    /// The current enqueue-side patience bound.
    #[inline]
    pub fn enqueue_patience(&self) -> u32 {
        self.enq.patience()
    }

    /// The current dequeue-side patience bound.
    #[inline]
    pub fn dequeue_patience(&self) -> u32 {
        self.deq.patience()
    }

    /// Reports one ring enqueue to the enqueue-side controller.
    #[inline]
    pub fn observe_enqueue(&mut self, extra_attempts: u32, exhausted: bool) -> Option<Adjustment> {
        self.enq.observe(extra_attempts, exhausted)
    }

    /// Reports one ring dequeue to the dequeue-side controller.
    #[inline]
    pub fn observe_dequeue(&mut self, extra_attempts: u32, exhausted: bool) -> Option<Adjustment> {
        self.deq.observe(extra_attempts, exhausted)
    }

    /// Reports a batch-reserved run of `ops` ring enqueues (pooled retry
    /// tally) to the enqueue-side controller.
    #[inline]
    pub fn observe_enqueue_batch(
        &mut self,
        ops: u32,
        extra_attempts: u32,
        exhausted: bool,
    ) -> Option<Adjustment> {
        self.enq.observe_batch(ops, extra_attempts, exhausted)
    }

    /// Reports a batch-reserved run of `ops` ring dequeues (pooled retry
    /// tally) to the dequeue-side controller.
    #[inline]
    pub fn observe_dequeue_batch(
        &mut self,
        ops: u32,
        extra_attempts: u32,
        exhausted: bool,
    ) -> Option<Adjustment> {
        self.deq.observe_batch(ops, extra_attempts, exhausted)
    }

    /// The handle's current contention level: the larger of the two
    /// directions' EWMAs (fixed point, [`EWMA_ONE`] = one extra attempt per
    /// operation).  Maintained in every patience mode — the adaptive shard
    /// router and the blocking-enqueue backoff cap read it even when the
    /// patience bounds themselves are pinned.
    #[inline]
    pub fn contention_level(&self) -> u32 {
        self.enq.ewma().max(self.deq.ewma())
    }

    /// The spin-phase cap (a `Backoff` max shift) the blocking enqueue retry
    /// loop should run with: under heavy contention burning long spin bursts
    /// only steals cycles from the consumers that would drain the queue, so
    /// the cap drops and the loop reaches its yield phase sooner.  The
    /// mapping is monotone in the contention level.
    #[inline]
    pub fn spin_cap(&self) -> u32 {
        let level = self.contention_level();
        if level >= HIGH_CONTENTION {
            4
        } else if level >= RAISE_LEVEL {
            6
        } else {
            wcq_atomics::Backoff::MAX_SHIFT
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_controller_never_moves() {
        let mut c = PatienceController::fixed(16);
        assert_eq!(c.patience(), 16);
        // 10 windows of maximal pressure: every op fails 8 attempts and
        // exhausts.  The clamps coincide, so nothing can move.
        for _ in 0..10 * 64 {
            assert_eq!(c.observe(8, true), None);
        }
        assert_eq!(c.patience(), 16);
        assert!(c.ewma() > 0, "the contention EWMA still tracks pressure");
    }

    #[test]
    fn contended_windows_double_the_bound_up_to_max() {
        let cfg = AdaptivePatience {
            min: 1,
            max: 16,
            sample_every: 4,
        };
        let mut c = PatienceController::new(cfg);
        assert_eq!(c.patience(), 1, "adaptive starts at the minimum");
        // Exact trajectory: each 4-op window with an exhaustion doubles the
        // bound — 1 → 2 → 4 → 8 → 16, then the max clamp holds.
        let mut trajectory = Vec::new();
        for _ in 0..6 {
            let mut last = None;
            for _ in 0..4 {
                last = c.observe(1, true);
            }
            trajectory.push((last, c.patience()));
        }
        assert_eq!(
            trajectory,
            vec![
                (Some(Adjustment::Raised), 2),
                (Some(Adjustment::Raised), 4),
                (Some(Adjustment::Raised), 8),
                (Some(Adjustment::Raised), 16),
                (None, 16), // clamped: no adjustment event at the ceiling
                (None, 16),
            ]
        );
    }

    #[test]
    fn quiet_windows_halve_the_bound_down_to_min() {
        let cfg = AdaptivePatience {
            min: 2,
            max: 64,
            sample_every: 2,
        };
        let mut c = PatienceController::new(cfg);
        // Pump the bound up to the ceiling first.
        for _ in 0..5 * 2 {
            c.observe(4, true);
        }
        assert_eq!(c.patience(), 64);
        // The EWMA decays geometrically; once it crosses LOWER_LEVEL the
        // quiet windows halve the bound until the floor.
        let mut seen_floor = false;
        for _ in 0..40 {
            for _ in 0..2 {
                c.observe(0, false);
            }
            assert!(c.patience() >= 2);
            seen_floor |= c.patience() == 2;
        }
        assert!(seen_floor, "quiet traffic must walk the bound back to min");
        assert_eq!(c.patience(), 2);
        assert!(c.ewma() < LOWER_LEVEL);
    }

    #[test]
    fn ewma_trajectory_is_exact() {
        let cfg = AdaptivePatience {
            min: 1,
            max: 8,
            sample_every: 4,
        };
        let mut c = PatienceController::new(cfg);
        // Window of 4 ops, 2 extra attempts each: avg = 2*256 = 512.
        for _ in 0..4 {
            c.observe(2, false);
        }
        assert_eq!(c.ewma(), 512 / 4); // (3*0 + 512)/4 = 128
        for _ in 0..4 {
            c.observe(2, false);
        }
        assert_eq!(c.ewma(), (3 * 128 + 512) / 4); // 224
                                                   // Two quiet windows decay it: 224*3/4 = 168, then 126.
        for _ in 0..4 {
            c.observe(0, false);
        }
        assert_eq!(c.ewma(), 168);
        for _ in 0..4 {
            c.observe(0, false);
        }
        assert_eq!(c.ewma(), 126);
    }

    #[test]
    fn exhaustion_raises_even_when_the_ewma_is_low() {
        let cfg = AdaptivePatience {
            min: 1,
            max: 8,
            sample_every: 8,
        };
        let mut c = PatienceController::new(cfg);
        // Seven clean ops, then a single exhaustion: slow-path entries are
        // expensive enough that one per window forces a raise regardless of
        // the average.
        for _ in 0..7 {
            assert_eq!(c.observe(0, false), None);
        }
        assert_eq!(c.observe(1, true), Some(Adjustment::Raised));
        assert_eq!(c.patience(), 2);
    }

    #[test]
    fn cell_routes_directions_independently() {
        let cfg = WcqConfig {
            adaptive_patience: Some(AdaptivePatience {
                min: 1,
                max: 32,
                sample_every: 2,
            }),
            ..WcqConfig::default()
        };
        let mut cell = PatienceCell::from_config(&cfg);
        assert_eq!(cell.enqueue_patience(), 1);
        assert_eq!(cell.dequeue_patience(), 1);
        // Pressure only on the enqueue side.
        for _ in 0..4 {
            cell.observe_enqueue(2, true);
            cell.observe_dequeue(0, false);
        }
        assert!(cell.enqueue_patience() > 1);
        assert_eq!(cell.dequeue_patience(), 1);
    }

    #[test]
    fn fixed_cell_reports_contention_but_keeps_static_bounds() {
        let mut cell = PatienceCell::fixed(16, 64);
        assert_eq!(cell.enqueue_patience(), 16);
        assert_eq!(cell.dequeue_patience(), 64);
        assert_eq!(cell.contention_level(), 0);
        assert_eq!(cell.spin_cap(), wcq_atomics::Backoff::MAX_SHIFT);
        for _ in 0..256 {
            cell.observe_enqueue(4, false);
        }
        assert_eq!(cell.enqueue_patience(), 16, "fixed bounds never move");
        assert!(cell.contention_level() >= HIGH_CONTENTION);
        assert_eq!(cell.spin_cap(), 4, "heavy contention caps the spin phase");
    }

    #[test]
    fn spin_cap_is_monotone_in_contention() {
        let mut quiet = PatienceCell::fixed(16, 64);
        let mut busy = PatienceCell::fixed(16, 64);
        // Four default windows: enough for the EWMA (64, 112, 148, 175 at one
        // extra attempt per op) to cross `RAISE_LEVEL`.
        for _ in 0..256 {
            quiet.observe_enqueue(0, false);
            busy.observe_enqueue(1, false);
        }
        assert!(busy.spin_cap() <= quiet.spin_cap());
        assert!(busy.spin_cap() < wcq_atomics::Backoff::MAX_SHIFT);
    }

    #[test]
    fn batch_observation_matches_singles_with_the_same_totals() {
        let cfg = AdaptivePatience {
            min: 1,
            max: 32,
            sample_every: 8,
        };
        let mut singles = PatienceController::new(cfg);
        let mut batched = PatienceController::new(cfg);
        // A window delivered as 8 single ops of 1 extra attempt vs one run of
        // 8 ops pooling 8 extra attempts: same totals, same decision, same
        // EWMA afterwards.
        let mut last = None;
        for _ in 0..8 {
            last = singles.observe(1, false);
        }
        let batch = batched.observe_batch(8, 8, false);
        assert_eq!(batch, last);
        assert_eq!(batched.ewma(), singles.ewma());
        assert_eq!(batched.patience(), singles.patience());
    }

    #[test]
    fn oversized_batch_decides_once_and_divides_by_true_ops() {
        let cfg = AdaptivePatience {
            min: 1,
            max: 32,
            sample_every: 4,
        };
        let mut c = PatienceController::new(cfg);
        // One run of 16 ops with 32 pooled extras overshoots the 4-op window
        // but folds as avg = 32*256/16 = 512 — the per-op rate, not the
        // pooled total — so the EWMA lands exactly at RAISE_LEVEL.
        assert_eq!(c.observe_batch(16, 32, false), Some(Adjustment::Raised));
        assert_eq!(c.ewma(), 512 / 4);
        assert_eq!(c.patience(), 2);
        // The window reset: the overshoot does not leak into the next one.
        assert_eq!(c.observe(0, false), None);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let cfg = AdaptivePatience {
            min: 1,
            max: 32,
            sample_every: 1,
        };
        let mut c = PatienceController::new(cfg);
        // sample_every = 1 means any real op decides immediately; ops == 0
        // must not (there is nothing to average over).
        assert_eq!(c.observe_batch(0, 0, false), None);
        assert_eq!(c.ewma(), 0);
        assert_eq!(c.observe_batch(0, 5, true), None, "tallies need an op");
        assert_eq!(c.ewma(), 0);
    }

    #[test]
    fn cell_batch_wrappers_route_directions_independently() {
        let mut cell = PatienceCell::from_config(&WcqConfig {
            adaptive_patience: Some(AdaptivePatience {
                min: 1,
                max: 32,
                sample_every: 4,
            }),
            ..WcqConfig::default()
        });
        assert_eq!(
            cell.observe_enqueue_batch(4, 8, false),
            Some(Adjustment::Raised)
        );
        assert!(cell.enqueue_patience() > 1);
        assert_eq!(cell.dequeue_patience(), 1);
        assert_eq!(
            cell.observe_dequeue_batch(4, 8, false),
            Some(Adjustment::Raised)
        );
        assert!(cell.dequeue_patience() > 1);
    }

    #[test]
    fn degenerate_parameters_are_normalized() {
        let c = PatienceController::new(AdaptivePatience {
            min: 0,
            max: 0,
            sample_every: 0,
        });
        assert_eq!(c.patience(), 1, "min clamps to 1");
        let mut c = c;
        // sample_every clamps to 1: every op is its own window.
        assert_eq!(c.observe(0, true), None, "max clamps to min: cannot move");
        assert_eq!(c.patience(), 1);
    }
}
