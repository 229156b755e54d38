//! Fleet-plane configuration: the device mix, the global arrival
//! stream, the router's cost weights, and the supervision knobs shared
//! with the serve plane.

use crate::{DetectionConfig, HealthPolicy, ReconfigConfig};
use hadas::{HadasError, RetryPolicy};
use hadas_hw::HwTarget;
use hadas_runtime::{FaultConfig, GrayFaultConfig, Scenario};
use hadas_serve::GovernorKind;

/// The per-replica DVFS-governor rotation applied when no governor is
/// pinned: replicas of one hardware profile differentiate into distinct
/// operating points (the fleet's "hw profile × DVFS state" axis).
pub const GOVERNOR_ROTATION: [GovernorKind; 3] =
    [GovernorKind::Queue, GovernorKind::Latency, GovernorKind::Static];

/// Configuration of one fleet run. Everything downstream — the global
/// arrival stream, routing decisions, per-device schedules, unit chaos —
/// is a pure function of this struct plus the searched device planes,
/// which is what makes a [`crate::FleetReport`] reproducible and
/// byte-identical across fleet worker counts.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// One hardware target per device unit (see
    /// [`crate::parse_device_spec`]); device index = position.
    pub devices: Vec<HwTarget>,
    /// Simulated users: the target arrival-stream volume. The stream
    /// duration is `users / rps`, so scaling users scales the run.
    pub users: usize,
    /// Fleet-wide mean offered load (requests per second).
    pub rps: f64,
    /// Fleet supervisor worker lanes driving device units (≥ 1); any
    /// value yields a byte-identical report.
    pub workers: usize,
    /// Seed of the arrival stream and SLO-class assignment.
    pub seed: u64,
    /// Interactive-class deadline (milliseconds).
    pub slo_ms: f64,
    /// Bulk-class deadline multiplier (≥ 1).
    pub bulk_slo_factor: f64,
    /// Fraction of requests in the bulk class (`[0, 1]`).
    pub bulk_fraction: f64,
    /// Maximum requests per device batch (≥ 1).
    pub batch_max: usize,
    /// Pin every device to one governor; `None` rotates
    /// [`GOVERNOR_ROTATION`] across replicas.
    pub governor: Option<GovernorKind>,
    /// Router cost weight: seconds of estimated finish-time penalty per
    /// joule of estimated request energy (≥ 0). Zero routes on latency
    /// alone.
    pub energy_weight: f64,
    /// Optional substrate-fault template applied per device (thermal
    /// throttle, voltage sag); device `d` runs it with seed
    /// `template.seed + d`. Scheduling-plane: present identically in
    /// fault-free and chaos runs.
    pub faults: Option<FaultConfig>,
    /// Optional execution-plane chaos over *device units*: the fleet
    /// supervisor replays crashes/retries/hedges of whole device runs
    /// and heals them with seq-preserving re-dispatch. Use
    /// [`FaultConfig::worker_chaos`].
    pub chaos: Option<FaultConfig>,
    /// Straggler hedge factor for unit supervision (> 1).
    pub hedge_factor: f64,
    /// Per-unit retry budget under chaos.
    pub retry: RetryPolicy,
    /// Failing units before the supervisor's circuit breaker trips.
    pub breaker_threshold: u32,
    /// Units an open breaker waits before probing again.
    pub breaker_cooldown: u32,
    /// Optional long-horizon workload-drift scenario (diurnal cycles,
    /// thermal seasons, battery decay, demand shifts). Modulates the
    /// fleet-wide arrival stream and every device's thermal substrate;
    /// composes with `faults`. Scheduling-plane, pure in `(seed, t)`.
    pub scenario: Option<Scenario>,
    /// Whether the live reconfiguration controller runs (epoch-wise
    /// operating-point swaps against the drift; see
    /// [`crate::ReconfigSummary`]). Off, and with neither `gray` nor
    /// detection on, the fleet runs as one epoch on the pinned top-3
    /// ladder.
    pub reconfigure: bool,
    /// Controller knobs for the reconfiguration plane (consulted only
    /// with `reconfigure` on).
    pub reconfig: ReconfigConfig,
    /// Optional gray-failure injection template: the engine stamps each
    /// unit's copy with its device index, and the cyclic assignment
    /// ([`GrayFaultConfig::device_is_gray`]) picks which units degrade.
    /// Telemetry-plane chaos, pure in `(device, window, seed)`.
    pub gray: Option<GrayFaultConfig>,
    /// Online gray-failure detection knobs (state machine, evidence
    /// thresholds, probe quota). Detection runs only when
    /// `detection.enabled`.
    pub detection: DetectionConfig,
    /// The shared device-health verdict policy: drives both post-hoc
    /// trace condensation ([`crate::DeviceHealthReport`]) and the online
    /// detector's notion of a healthy trace.
    pub health: HealthPolicy,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            devices: HwTarget::ALL.iter().copied().cycle().take(8).collect(),
            users: 4_000,
            rps: 400.0,
            workers: 1,
            seed: 0,
            slo_ms: 120.0,
            bulk_slo_factor: 10.0,
            bulk_fraction: 0.3,
            batch_max: 8,
            governor: None,
            energy_weight: 0.02,
            faults: None,
            chaos: None,
            hedge_factor: 3.0,
            retry: RetryPolicy::default(),
            breaker_threshold: 8,
            breaker_cooldown: 4,
            scenario: None,
            reconfigure: false,
            reconfig: ReconfigConfig::default(),
            gray: None,
            detection: DetectionConfig::default(),
            health: HealthPolicy::default(),
        }
    }
}

impl FleetConfig {
    /// The arrival-stream duration implied by the user volume:
    /// `users / rps` seconds.
    pub fn duration_s(&self) -> f64 {
        self.users as f64 / self.rps
    }

    /// Validates ranges.
    ///
    /// # Errors
    ///
    /// Returns [`HadasError::InvalidConfig`] for an empty fleet,
    /// non-positive volumes/rates/deadlines, out-of-range fractions or
    /// weights, or invalid embedded fault/retry configurations.
    pub fn validate(&self) -> Result<(), HadasError> {
        if self.devices.is_empty() {
            return Err(HadasError::InvalidConfig("a fleet needs ≥ 1 device".into()));
        }
        if self.users == 0 {
            return Err(HadasError::InvalidConfig("users must be ≥ 1".into()));
        }
        if !self.rps.is_finite() || self.rps <= 0.0 {
            return Err(HadasError::InvalidConfig("rps must be positive".into()));
        }
        if self.workers == 0 || self.batch_max == 0 {
            return Err(HadasError::InvalidConfig("workers and batch_max must be ≥ 1".into()));
        }
        if !self.slo_ms.is_finite() || self.slo_ms <= 0.0 {
            return Err(HadasError::InvalidConfig("slo_ms must be positive".into()));
        }
        if !self.bulk_slo_factor.is_finite() || self.bulk_slo_factor < 1.0 {
            return Err(HadasError::InvalidConfig("bulk_slo_factor must be ≥ 1".into()));
        }
        if !self.bulk_fraction.is_finite() || !(0.0..=1.0).contains(&self.bulk_fraction) {
            return Err(HadasError::InvalidConfig("bulk_fraction must lie in [0, 1]".into()));
        }
        if !self.energy_weight.is_finite() || self.energy_weight < 0.0 {
            return Err(HadasError::InvalidConfig("energy_weight must be ≥ 0".into()));
        }
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
        self.reconfig.validate()?;
        if let Some(g) = &self.gray {
            g.validate()?;
        }
        self.detection.validate()?;
        self.health.validate()?;
        Ok(())
    }

    /// The name of the drift scenario in force (`"none"` without one).
    pub fn scenario_name(&self) -> &str {
        self.scenario.as_ref().map_or("none", Scenario::name)
    }

    /// The governor driving device `d`: the pinned kind, or the replica
    /// rotation ([`GOVERNOR_ROTATION`]) keyed on the device index.
    pub fn governor_of(&self, device: usize) -> GovernorKind {
        self.governor.unwrap_or(GOVERNOR_ROTATION[device % GOVERNOR_ROTATION.len()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        let c = FleetConfig::default();
        assert!(c.validate().is_ok());
        assert_eq!(c.devices.len(), 8);
        assert!((c.duration_s() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        let bad = |f: fn(&mut FleetConfig)| {
            let mut c = FleetConfig::default();
            f(&mut c);
            c.validate().is_err()
        };
        assert!(bad(|c| c.devices.clear()));
        assert!(bad(|c| c.users = 0));
        assert!(bad(|c| c.rps = 0.0));
        assert!(bad(|c| c.workers = 0));
        assert!(bad(|c| c.batch_max = 0));
        assert!(bad(|c| c.slo_ms = -5.0));
        assert!(bad(|c| c.bulk_slo_factor = 0.5));
        assert!(bad(|c| c.bulk_fraction = 2.0));
        assert!(bad(|c| c.energy_weight = f64::NAN));
        assert!(bad(|c| c.hedge_factor = 1.0));
        assert!(bad(|c| c.retry.max_attempts = 0));
        assert!(bad(|c| c.chaos = Some(FaultConfig { crash_rate: 2.0, ..FaultConfig::default() })));
        assert!(bad(|c| c.reconfig.epochs = 0));
        assert!(bad(|c| c.reconfig.pressure_threshold = -0.5));
        assert!(bad(|c| {
            c.gray = Some(GrayFaultConfig { slowdown_factor: 1.0, ..GrayFaultConfig::default() })
        }));
        assert!(bad(|c| c.detection.clean_epochs = 0));
        assert!(bad(|c| c.health.min_thermal_cap = f64::NAN));
    }

    #[test]
    fn scenario_name_echoes_the_drift_in_force() {
        let calm = FleetConfig::default();
        assert_eq!(calm.scenario_name(), "none");
        let drifted = FleetConfig {
            scenario: Some(Scenario::from_name("diurnal", 7, 10.0).unwrap()),
            ..FleetConfig::default()
        };
        assert_eq!(drifted.scenario_name(), "diurnal");
        assert!(drifted.validate().is_ok());
    }

    #[test]
    fn governor_rotation_differentiates_replicas() {
        let c = FleetConfig::default();
        assert_eq!(c.governor_of(0), GovernorKind::Queue);
        assert_eq!(c.governor_of(1), GovernorKind::Latency);
        assert_eq!(c.governor_of(2), GovernorKind::Static);
        assert_eq!(c.governor_of(3), GovernorKind::Queue);
        let pinned = FleetConfig { governor: Some(GovernorKind::Static), ..FleetConfig::default() };
        assert_eq!(pinned.governor_of(1), GovernorKind::Static);
    }
}
