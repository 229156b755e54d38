use crate::BrownoutConfig;
use hadas::{HadasError, RetryPolicy};
use hadas_runtime::{FaultConfig, GrayFaultConfig, Scenario, SimConfig};
use serde::{Deserialize, Serialize};

/// Which DVFS governor drives mode selection during serving.
///
/// Every kind is wrapped in a [`hadas_runtime::DegradePolicy`] by the
/// engine, so thermal-throttle episodes always force feasible modes
/// regardless of what the inner governor wants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GovernorKind {
    /// Pin the most accurate mode (index 0) for the whole run.
    Static,
    /// [`hadas_runtime::LatencyPolicy`] targeting the interactive SLO:
    /// steps toward frugal modes when the recent mean completion latency
    /// exceeds the deadline budget.
    Latency,
    /// Queue-depth governor ([`crate::QueuePolicy`]): steps toward frugal
    /// modes as the batcher backlog grows or SLO pressure mounts.
    Queue,
}

impl GovernorKind {
    /// Every governor, in the order the CLI lists them.
    pub const ALL: [GovernorKind; 3] =
        [GovernorKind::Static, GovernorKind::Latency, GovernorKind::Queue];

    /// Parses a CLI spelling (`static` | `latency` | `queue`).
    pub fn parse(s: &str) -> Option<Self> {
        GovernorKind::ALL.into_iter().find(|g| g.name() == s)
    }

    /// The canonical CLI spelling.
    pub fn name(&self) -> &'static str {
        match self {
            GovernorKind::Static => "static",
            GovernorKind::Latency => "latency",
            GovernorKind::Queue => "queue",
        }
    }
}

/// Configuration of one open-loop serving run.
///
/// Everything downstream — arrival stream, SLO classes, batch formation,
/// governor decisions, fault episodes — is a pure function of this struct,
/// which is what makes a [`crate::ServeReport`] reproducible from
/// `(config, modes)` alone.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeConfig {
    /// Seed of the arrival stream and the SLO-class assignment.
    pub seed: u64,
    /// Length of the arrival stream (seconds).
    pub duration_s: f64,
    /// Mean offered load (requests per second).
    pub rps: f64,
    /// Worker lanes in the pool (≥ 1).
    pub workers: usize,
    /// Maximum requests per batch (≥ 1); a full batch closes immediately.
    pub batch_max: usize,
    /// Interactive-class deadline: a request admitted at `t` must complete
    /// by `t + slo_ms` (milliseconds).
    pub slo_ms: f64,
    /// Bulk-class deadline multiplier (≥ 1): bulk requests get
    /// `slo_ms × bulk_slo_factor` of slack.
    pub bulk_slo_factor: f64,
    /// Fraction of requests assigned to the bulk class (`[0, 1]`).
    pub bulk_fraction: f64,
    /// Fixed per-batch formation/dispatch overhead (milliseconds of
    /// latency; batching amortises it across the batch).
    pub batch_overhead_ms: f64,
    /// The DVFS governor to run.
    pub governor: GovernorKind,
    /// Mode-switch costs and control cadence, shared with the closed-loop
    /// simulator.
    pub sim: SimConfig,
    /// Optional substrate faults (thermal throttle, voltage sag, bursts).
    /// These reshape the virtual-time schedule itself and therefore the
    /// report.
    pub faults: Option<FaultConfig>,
    /// Optional execution-plane chaos (worker crashes, transient batch
    /// failures, stragglers) replayed by the supervised pool. Unlike
    /// `faults`, chaos never touches the schedule: a recovered run's
    /// report is byte-identical to the fault-free one whenever no batch
    /// dead-letters. Use [`FaultConfig::worker_chaos`] here — substrate
    /// episodes in this slot would silently go unused.
    pub chaos: Option<FaultConfig>,
    /// Straggler hedge factor (> 1): a batch attempt delayed past
    /// `(hedge_factor − 1) ×` its estimated service time is hedged with a
    /// concurrent duplicate on another lane.
    pub hedge_factor: f64,
    /// Per-batch retry budget for transient failures, crashes, and
    /// stragglers under chaos.
    pub retry: RetryPolicy,
    /// Consecutive failing batches before the supervisor's circuit
    /// breaker trips open (fast-failing retries to a single attempt).
    pub breaker_threshold: u32,
    /// Batches an open breaker waits before probing again.
    pub breaker_cooldown: u32,
    /// Optional brownout degradation ladder stepping service down under
    /// overload (see [`BrownoutConfig`]); `None` disables it.
    pub brownout: Option<BrownoutConfig>,
    /// Optional long-horizon drift scenario composing with `faults`:
    /// its rate swing multiplies the arrival stream, its seasonal
    /// thermal cap takes the minimum with episodic throttles, and its
    /// demand shift drifts request difficulty. Scheduling-plane, like
    /// `faults`: it reshapes the schedule identically in fault-free and
    /// chaos runs.
    pub scenario: Option<Scenario>,
    /// Optional gray-failure injection: this device degrades (real
    /// latency inflates) while its health telemetry lies per
    /// [`GrayFaultConfig::kind`]. Scheduling-plane and pure in
    /// `(device, window, seed)`, so gray runs keep the byte-identity
    /// contract. The fleet engine stamps
    /// [`GrayFaultConfig::device`] when deriving per-device configs.
    pub gray: Option<GrayFaultConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            seed: 0,
            duration_s: 20.0,
            rps: 60.0,
            workers: 1,
            batch_max: 8,
            slo_ms: 120.0,
            bulk_slo_factor: 10.0,
            bulk_fraction: 0.3,
            batch_overhead_ms: 2.0,
            governor: GovernorKind::Queue,
            sim: SimConfig::default(),
            faults: None,
            chaos: None,
            hedge_factor: 3.0,
            retry: RetryPolicy::default(),
            breaker_threshold: 8,
            breaker_cooldown: 4,
            brownout: None,
            scenario: None,
            gray: None,
        }
    }
}

impl ServeConfig {
    /// Validates ranges.
    ///
    /// # Errors
    ///
    /// Returns [`HadasError::InvalidConfig`] for non-positive durations,
    /// rates, deadlines or pool sizes, out-of-range fractions, or an
    /// invalid embedded [`SimConfig`]/[`FaultConfig`].
    pub fn validate(&self) -> Result<(), HadasError> {
        let positive = |v: f64| v.is_finite() && v > 0.0;
        if !positive(self.duration_s) || !positive(self.rps) {
            return Err(HadasError::InvalidConfig("duration and rps must be positive".into()));
        }
        if self.workers == 0 || self.batch_max == 0 {
            return Err(HadasError::InvalidConfig("workers and batch_max must be ≥ 1".into()));
        }
        if !positive(self.slo_ms) {
            return Err(HadasError::InvalidConfig("slo_ms must be positive".into()));
        }
        if !self.bulk_slo_factor.is_finite() || self.bulk_slo_factor < 1.0 {
            return Err(HadasError::InvalidConfig("bulk_slo_factor must be ≥ 1".into()));
        }
        if !self.bulk_fraction.is_finite() || !(0.0..=1.0).contains(&self.bulk_fraction) {
            return Err(HadasError::InvalidConfig("bulk_fraction must lie in [0, 1]".into()));
        }
        if !self.batch_overhead_ms.is_finite() || self.batch_overhead_ms < 0.0 {
            return Err(HadasError::InvalidConfig("batch_overhead_ms must be ≥ 0".into()));
        }
        self.sim.validate()?;
        if let Some(f) = &self.faults {
            f.validate()?;
        }
        if let Some(c) = &self.chaos {
            c.validate()?;
        }
        if !self.hedge_factor.is_finite() || self.hedge_factor <= 1.0 {
            return Err(HadasError::InvalidConfig(
                "hedge_factor must be a finite value > 1".into(),
            ));
        }
        self.retry.validate()?;
        if let Some(b) = &self.brownout {
            b.validate()?;
        }
        if let Some(g) = &self.gray {
            g.validate()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert!(ServeConfig::default().validate().is_ok());
    }

    #[test]
    fn governor_kinds_round_trip_through_parse() {
        for k in [GovernorKind::Static, GovernorKind::Latency, GovernorKind::Queue] {
            assert_eq!(GovernorKind::parse(k.name()), Some(k));
        }
        assert_eq!(GovernorKind::parse("turbo"), None);
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        let bad = |f: fn(&mut ServeConfig)| {
            let mut c = ServeConfig::default();
            f(&mut c);
            c.validate().is_err()
        };
        assert!(bad(|c| c.workers = 0));
        assert!(bad(|c| c.batch_max = 0));
        assert!(bad(|c| c.rps = 0.0));
        assert!(bad(|c| c.duration_s = -1.0));
        assert!(bad(|c| c.slo_ms = 0.0));
        assert!(bad(|c| c.bulk_slo_factor = 0.5));
        assert!(bad(|c| c.bulk_fraction = 1.5));
        assert!(bad(|c| c.batch_overhead_ms = f64::NAN));
        assert!(bad(|c| c.sim.control_window_s = 0.0));
        assert!(bad(|c| {
            c.faults =
                Some(FaultConfig { thermal_cap: 2.0, ..hadas_runtime::FaultConfig::default() });
        }));
        assert!(bad(|c| c.chaos = Some(FaultConfig { crash_rate: 1.5, ..FaultConfig::default() })));
        assert!(bad(|c| c.hedge_factor = 1.0));
        assert!(bad(|c| c.hedge_factor = f64::INFINITY));
        assert!(bad(|c| c.retry.max_attempts = 0));
        assert!(bad(|c| {
            c.gray =
                Some(hadas_runtime::GrayFaultConfig { slowdown_factor: 1.0, ..Default::default() });
        }));
        assert!(bad(|c| {
            c.brownout =
                Some(BrownoutConfig { hysteresis_windows: 0, ..BrownoutConfig::default() });
        }));
    }

    #[test]
    fn chaos_and_brownout_default_off() {
        let c = ServeConfig::default();
        assert!(c.chaos.is_none());
        assert!(c.brownout.is_none());
        assert!(c.hedge_factor > 1.0);
        let with = ServeConfig {
            chaos: Some(FaultConfig::worker_chaos(5)),
            brownout: Some(BrownoutConfig::default()),
            ..ServeConfig::default()
        };
        assert!(with.validate().is_ok());
    }
}
