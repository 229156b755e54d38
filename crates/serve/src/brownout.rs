//! The brownout degradation ladder: explicit service tiers the engine
//! steps through as overload pressure mounts, instead of letting tail
//! latency collapse implicitly.
//!
//! Tier semantics (each tier includes everything above it):
//!
//! ```text
//!        calm × hysteresis                    pressure / depth / thermal cap
//!   Normal ──────────────────────────────────────────────────────────▶
//!     ▲ │  full service
//!     │ ▼
//!   ShedBulk            bulk arrivals are shed at admission
//!     ▲ │
//!     │ ▼
//!   ForceEarlyExit      + exit depth capped (accuracy traded for latency),
//!     ▲ │                 governor biased one step toward frugal modes
//!     │ ▼
//!   RejectNewAdmissions + every new arrival is rejected (drain mode)
//! ```
//!
//! Escalation is immediate (overload punishes hesitation); de-escalation
//! requires `hysteresis_windows` consecutive calm control windows per
//! step, so the ladder never flaps around a threshold. The ladder runs on
//! the engine's *virtual-time* control cadence and is a pure function of
//! the observed `(queue depth, SLO pressure, thermal cap)` sequence — it
//! lives entirely in the scheduling plane, which is why its counters can
//! sit in the serialized [`crate::ServeReport`] without breaking the
//! recovery byte-identity contract.

use hadas::HadasError;
use serde::{Deserialize, Serialize};

/// One rung of the brownout ladder, orderable by severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum BrownoutTier {
    /// Full service.
    Normal,
    /// Bulk-class arrivals are shed at admission; interactive traffic
    /// keeps full service.
    ShedBulk,
    /// Additionally, serving is capped at an early-exit depth and the
    /// governor is biased one step toward the frugal end.
    ForceEarlyExit,
    /// Additionally, every new arrival is rejected: the engine drains its
    /// backlog instead of queueing work it cannot finish in time.
    RejectNewAdmissions,
}

/// The number of tiers (the length of `tier_windows` in reports).
pub const BROWNOUT_TIERS: usize = 4;

impl BrownoutTier {
    /// Tier index (0 = Normal … 3 = RejectNewAdmissions).
    pub fn index(self) -> usize {
        match self {
            BrownoutTier::Normal => 0,
            BrownoutTier::ShedBulk => 1,
            BrownoutTier::ForceEarlyExit => 2,
            BrownoutTier::RejectNewAdmissions => 3,
        }
    }

    /// The tier at `index`, clamped to the ladder.
    pub fn from_index(index: usize) -> Self {
        match index {
            0 => BrownoutTier::Normal,
            1 => BrownoutTier::ShedBulk,
            2 => BrownoutTier::ForceEarlyExit,
            _ => BrownoutTier::RejectNewAdmissions,
        }
    }

    /// Canonical name used in reports and logs.
    pub fn name(self) -> &'static str {
        match self {
            BrownoutTier::Normal => "normal",
            BrownoutTier::ShedBulk => "shed-bulk",
            BrownoutTier::ForceEarlyExit => "force-early-exit",
            BrownoutTier::RejectNewAdmissions => "reject",
        }
    }

    /// Whether bulk arrivals are shed at admission in this tier.
    pub fn sheds_bulk(self) -> bool {
        self >= BrownoutTier::ShedBulk
    }

    /// Whether serving runs under the early-exit depth cap in this tier.
    pub fn forces_early_exit(self) -> bool {
        self >= BrownoutTier::ForceEarlyExit
    }

    /// Whether every new arrival is rejected in this tier.
    pub fn rejects_admissions(self) -> bool {
        self >= BrownoutTier::RejectNewAdmissions
    }
}

/// Configuration of the brownout ladder.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BrownoutConfig {
    /// Queue depth at which the ladder enters [`BrownoutTier::ShedBulk`].
    pub shed_bulk_depth: usize,
    /// Queue depth at which it enters [`BrownoutTier::ForceEarlyExit`].
    pub force_exit_depth: usize,
    /// Queue depth at which it enters
    /// [`BrownoutTier::RejectNewAdmissions`].
    pub reject_depth: usize,
    /// Recent SLO-violation fraction above which the ladder escalates one
    /// extra tier beyond what queue depth alone demands (`(0, 1]`).
    pub pressure_threshold: f64,
    /// Deepest exit head allowed (0-based) while
    /// [`BrownoutTier::ForceEarlyExit`] is active.
    pub max_exit_depth: usize,
    /// Consecutive calm control windows required per de-escalation step.
    pub hysteresis_windows: usize,
}

impl Default for BrownoutConfig {
    fn default() -> Self {
        BrownoutConfig {
            shed_bulk_depth: 16,
            force_exit_depth: 32,
            reject_depth: 96,
            pressure_threshold: 0.5,
            max_exit_depth: 0,
            hysteresis_windows: 2,
        }
    }
}

impl BrownoutConfig {
    /// Validates the ladder shape.
    ///
    /// # Errors
    ///
    /// Returns [`HadasError::InvalidConfig`] for non-increasing depth
    /// thresholds, an out-of-range pressure threshold, or zero
    /// hysteresis.
    pub fn validate(&self) -> Result<(), HadasError> {
        if self.shed_bulk_depth == 0
            || self.force_exit_depth <= self.shed_bulk_depth
            || self.reject_depth <= self.force_exit_depth
        {
            return Err(HadasError::InvalidConfig(
                "brownout depth thresholds must be strictly increasing and positive".into(),
            ));
        }
        if !self.pressure_threshold.is_finite()
            || self.pressure_threshold <= 0.0
            || self.pressure_threshold > 1.0
        {
            return Err(HadasError::InvalidConfig(
                "brownout pressure threshold must lie in (0, 1]".into(),
            ));
        }
        if self.hysteresis_windows == 0 {
            return Err(HadasError::InvalidConfig(
                "brownout hysteresis needs ≥ 1 calm window".into(),
            ));
        }
        Ok(())
    }
}

/// Serialized brownout accounting of one serving run. All counters are
/// scheduling-plane quantities (virtual-time control windows), so they
/// are byte-identical across fault-free and recovered chaos runs.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct BrownoutSummary {
    /// Whether the ladder was enabled for the run.
    pub enabled: bool,
    /// Control windows spent in each tier (index = tier index).
    pub tier_windows: Vec<usize>,
    /// Total tier transitions latched (escalations + de-escalations).
    pub tier_transitions: usize,
    /// Transitions toward more degraded tiers.
    pub escalations: usize,
    /// Transitions back toward [`BrownoutTier::Normal`].
    pub deescalations: usize,
    /// The most degraded tier ever latched (tier index).
    pub worst_tier: usize,
}

impl BrownoutSummary {
    /// The disabled-ladder summary (all zeros, empty occupancy).
    pub fn disabled() -> Self {
        BrownoutSummary { enabled: false, tier_windows: vec![0; BROWNOUT_TIERS], ..Self::default() }
    }
}

/// The state of a [`BrownoutLadder`] mid-run — the ladder half of an
/// exported `SessionState`. Restoring it under the same configuration
/// resumes the state machine bit-identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BrownoutState {
    /// The latched tier index.
    pub tier: usize,
    /// Consecutive calm windows counted toward the next de-escalation.
    pub calm_windows: usize,
    /// Control windows spent in each tier so far.
    pub tier_windows: Vec<usize>,
    /// Transitions toward more degraded tiers so far.
    pub escalations: usize,
    /// Transitions back toward [`BrownoutTier::Normal`] so far.
    pub deescalations: usize,
    /// The most degraded tier ever latched (tier index).
    pub worst_tier: usize,
}

/// The brownout ladder state machine, stepped once per control window.
#[derive(Debug, Clone, PartialEq)]
pub struct BrownoutLadder {
    config: BrownoutConfig,
    tier: BrownoutTier,
    calm_windows: usize,
    tier_windows: [usize; BROWNOUT_TIERS],
    escalations: usize,
    deescalations: usize,
    worst: BrownoutTier,
}

impl BrownoutLadder {
    /// A ladder starting at [`BrownoutTier::Normal`].
    pub fn new(config: BrownoutConfig) -> Self {
        BrownoutLadder {
            config,
            tier: BrownoutTier::Normal,
            calm_windows: 0,
            tier_windows: [0; BROWNOUT_TIERS],
            escalations: 0,
            deescalations: 0,
            worst: BrownoutTier::Normal,
        }
    }

    /// The generating configuration.
    pub fn config(&self) -> &BrownoutConfig {
        &self.config
    }

    /// The currently latched tier.
    pub fn tier(&self) -> BrownoutTier {
        self.tier
    }

    /// The tier the observed state *demands*, before hysteresis: queue
    /// depth picks the base rung, and SLO pressure or an active thermal
    /// cap each escalate one extra rung.
    fn target(&self, queue_depth: usize, slo_pressure: f64, thermal_cap: f64) -> BrownoutTier {
        let mut idx = if queue_depth >= self.config.reject_depth {
            3
        } else if queue_depth >= self.config.force_exit_depth {
            2
        } else if queue_depth >= self.config.shed_bulk_depth {
            1
        } else {
            0
        };
        if slo_pressure > self.config.pressure_threshold {
            idx += 1;
        }
        if thermal_cap < 1.0 {
            idx += 1;
        }
        BrownoutTier::from_index(idx.min(BROWNOUT_TIERS - 1))
    }

    /// Steps the ladder one control window and returns the latched tier.
    /// Escalation is immediate; de-escalation steps down one rung after
    /// `hysteresis_windows` consecutive windows whose demanded tier was
    /// below the latched one.
    pub fn observe(
        &mut self,
        queue_depth: usize,
        slo_pressure: f64,
        thermal_cap: f64,
    ) -> BrownoutTier {
        let target = self.target(queue_depth, slo_pressure, thermal_cap);
        if target > self.tier {
            self.escalations += target.index() - self.tier.index();
            self.tier = target;
            self.calm_windows = 0;
        } else if target < self.tier {
            self.calm_windows += 1;
            if self.calm_windows >= self.config.hysteresis_windows {
                self.tier = BrownoutTier::from_index(self.tier.index() - 1);
                self.deescalations += 1;
                self.calm_windows = 0;
            }
        } else {
            self.calm_windows = 0;
        }
        self.worst = self.worst.max(self.tier);
        self.tier_windows[self.tier.index()] += 1;
        self.tier
    }

    /// Exports the ladder's full mid-run state for a segment barrier.
    pub fn state(&self) -> BrownoutState {
        BrownoutState {
            tier: self.tier.index(),
            calm_windows: self.calm_windows,
            tier_windows: self.tier_windows.to_vec(),
            escalations: self.escalations,
            deescalations: self.deescalations,
            worst_tier: self.worst.index(),
        }
    }

    /// Rebuilds a ladder from an exported state — the inverse of
    /// [`BrownoutLadder::state`]. Missing tier counters (from a shorter
    /// `tier_windows` vector) restore as zero.
    pub fn from_state(config: BrownoutConfig, state: &BrownoutState) -> Self {
        let mut tier_windows = [0usize; BROWNOUT_TIERS];
        for (slot, &w) in tier_windows.iter_mut().zip(state.tier_windows.iter()) {
            *slot = w;
        }
        BrownoutLadder {
            config,
            tier: BrownoutTier::from_index(state.tier),
            calm_windows: state.calm_windows,
            tier_windows,
            escalations: state.escalations,
            deescalations: state.deescalations,
            worst: BrownoutTier::from_index(state.worst_tier),
        }
    }

    /// The serialized accounting of the windows observed so far.
    pub fn summary(&self) -> BrownoutSummary {
        BrownoutSummary {
            enabled: true,
            tier_windows: self.tier_windows.to_vec(),
            tier_transitions: self.escalations + self.deescalations,
            escalations: self.escalations,
            deescalations: self.deescalations,
            worst_tier: self.worst.index(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ladder() -> BrownoutLadder {
        BrownoutLadder::new(BrownoutConfig::default())
    }

    #[test]
    fn default_config_validates_and_degenerates_are_rejected() {
        assert!(BrownoutConfig::default().validate().is_ok());
        let bad = |f: fn(&mut BrownoutConfig)| {
            let mut c = BrownoutConfig::default();
            f(&mut c);
            c.validate().is_err()
        };
        assert!(bad(|c| c.shed_bulk_depth = 0));
        assert!(bad(|c| c.force_exit_depth = c.shed_bulk_depth));
        assert!(bad(|c| c.reject_depth = c.force_exit_depth));
        assert!(bad(|c| c.pressure_threshold = 0.0));
        assert!(bad(|c| c.pressure_threshold = 1.5));
        assert!(bad(|c| c.hysteresis_windows = 0));
    }

    #[test]
    fn escalation_is_immediate_and_depth_driven() {
        let mut l = ladder();
        assert_eq!(l.observe(0, 0.0, 1.0), BrownoutTier::Normal);
        assert_eq!(l.observe(16, 0.0, 1.0), BrownoutTier::ShedBulk);
        assert_eq!(l.observe(40, 0.0, 1.0), BrownoutTier::ForceEarlyExit);
        assert_eq!(l.observe(200, 0.0, 1.0), BrownoutTier::RejectNewAdmissions);
        assert_eq!(l.summary().escalations, 3);
        assert_eq!(l.summary().worst_tier, 3);
    }

    #[test]
    fn pressure_and_thermal_cap_each_add_one_rung() {
        let mut l = ladder();
        assert_eq!(l.observe(0, 0.9, 1.0), BrownoutTier::ShedBulk, "pressure alone");
        let mut l = ladder();
        assert_eq!(l.observe(0, 0.0, 0.5), BrownoutTier::ShedBulk, "thermal cap alone");
        let mut l = ladder();
        assert_eq!(l.observe(16, 0.9, 0.5), BrownoutTier::RejectNewAdmissions, "stacked");
    }

    #[test]
    fn deescalation_needs_hysteresis_and_steps_one_rung() {
        let mut l = ladder();
        l.observe(200, 0.0, 1.0);
        assert_eq!(l.tier(), BrownoutTier::RejectNewAdmissions);
        assert_eq!(l.observe(0, 0.0, 1.0), BrownoutTier::RejectNewAdmissions, "calm window 1");
        assert_eq!(l.observe(0, 0.0, 1.0), BrownoutTier::ForceEarlyExit, "calm window 2 steps");
        assert_eq!(l.observe(0, 0.0, 1.0), BrownoutTier::ForceEarlyExit);
        assert_eq!(l.observe(0, 0.0, 1.0), BrownoutTier::ShedBulk);
        assert_eq!(l.observe(0, 0.0, 1.0), BrownoutTier::ShedBulk);
        assert_eq!(l.observe(0, 0.0, 1.0), BrownoutTier::Normal);
        let s = l.summary();
        assert_eq!(s.deescalations, 3);
        assert_eq!(s.tier_transitions, s.escalations + s.deescalations);
        assert_eq!(s.tier_windows.iter().sum::<usize>(), 7, "every window is attributed");
    }

    #[test]
    fn matching_demand_resets_the_calm_streak() {
        let mut l = ladder();
        l.observe(40, 0.0, 1.0); // ForceEarlyExit
        l.observe(0, 0.0, 1.0); // calm 1 of 2
        l.observe(40, 0.0, 1.0); // demand matches again: streak resets
        l.observe(0, 0.0, 1.0); // calm 1 of 2 (again)
        assert_eq!(l.tier(), BrownoutTier::ForceEarlyExit, "no flap around the threshold");
    }

    #[test]
    fn tier_predicates_are_cumulative() {
        assert!(!BrownoutTier::Normal.sheds_bulk());
        assert!(BrownoutTier::ShedBulk.sheds_bulk());
        assert!(!BrownoutTier::ShedBulk.forces_early_exit());
        assert!(BrownoutTier::ForceEarlyExit.sheds_bulk());
        assert!(BrownoutTier::ForceEarlyExit.forces_early_exit());
        assert!(!BrownoutTier::ForceEarlyExit.rejects_admissions());
        assert!(BrownoutTier::RejectNewAdmissions.rejects_admissions());
        for i in 0..BROWNOUT_TIERS {
            assert_eq!(BrownoutTier::from_index(i).index(), i);
        }
        assert_eq!(BrownoutTier::from_index(99), BrownoutTier::RejectNewAdmissions);
    }

    #[test]
    fn state_round_trip_resumes_the_ladder_bit_identically() {
        let mut l = ladder();
        for i in 0..17usize {
            l.observe((i * 11) % 120, (i % 4) as f64 * 0.3, if i % 5 == 0 { 0.5 } else { 1.0 });
        }
        let restored = BrownoutLadder::from_state(*l.config(), &l.state());
        assert_eq!(restored, l);
        let mut a = l.clone();
        let mut b = restored;
        for i in 0..9usize {
            assert_eq!(a.observe(i * 13, 0.2, 1.0), b.observe(i * 13, 0.2, 1.0));
        }
        assert_eq!(a.summary(), b.summary(), "counters keep matching after resumption");
    }

    #[test]
    fn ladder_trajectory_is_deterministic() {
        let trace: Vec<(usize, f64, f64)> =
            (0..50usize).map(|i| ((i * 7) % 120, (i % 3) as f64 * 0.4, 1.0)).collect();
        let run = || {
            let mut l = ladder();
            trace.iter().map(|&(d, p, c)| l.observe(d, p, c)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
