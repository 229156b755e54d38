//! Seeded, replayable long-horizon workload-drift scenarios.
//!
//! [`FaultInjector`](crate::FaultInjector) models *episodic* substrate
//! faults — minutes-scale thermal throttles, sags, and bursts scattered
//! over the run. Real deployments also drift on much longer horizons:
//! traffic follows diurnal cycles, ambient temperature follows seasons,
//! batteries age, and the input mix itself shifts difficulty. A
//! [`Scenario`] models those slow drifts as smooth, seeded waveforms
//! that are a **pure function of `(seed, t)`**: every parameter is
//! derived once at construction through a splitmix64 stream (stable
//! across platforms, unlike `DefaultHasher`), and every `*_at(t)` query
//! is closed-form math over those parameters — so a replay at any tick
//! granularity reproduces bit-identical values, which is what lets the
//! fleet's reconfiguration runs stay byte-identical across worker
//! counts.
//!
//! Scenarios *compose* with chaos rather than replace it: call sites
//! take the product of rate multipliers, the minimum of thermal caps,
//! and add difficulty shifts, so an episodic burst can land on top of a
//! diurnal peak.

use hadas::HadasError;
use serde::{Deserialize, Serialize};
use std::f64::consts::TAU;

/// Every scenario name [`Scenario::from_name`] accepts, in registry
/// order (the CLI and bench sweeps iterate this).
pub const SCENARIO_NAMES: [&str; 6] =
    ["calm", "diurnal", "thermal-season", "battery-decay", "demand-shift", "composite"];

/// Which drift axes a scenario exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScenarioKind {
    /// No drift on any axis — the identity scenario.
    Calm,
    /// Diurnal traffic cycles: the arrival rate swings around its mean.
    Diurnal,
    /// Thermal seasons: the ambient compute-clock cap dips in slow
    /// waves, independent of episodic throttles.
    ThermalSeason,
    /// Battery decay: usable capacity shrinks monotonically over the
    /// horizon.
    BatteryDecay,
    /// Demand mix shift: the input-difficulty distribution drifts
    /// harder and easier in slow waves, with a mild rate swing.
    DemandShift,
    /// All four axes at once.
    Composite,
}

impl ScenarioKind {
    /// The registry name of this kind.
    pub fn name(&self) -> &'static str {
        match self {
            ScenarioKind::Calm => "calm",
            ScenarioKind::Diurnal => "diurnal",
            ScenarioKind::ThermalSeason => "thermal-season",
            ScenarioKind::BatteryDecay => "battery-decay",
            ScenarioKind::DemandShift => "demand-shift",
            ScenarioKind::Composite => "composite",
        }
    }
}

/// One seeded drift scenario over a `[0, horizon_s)` timeline. All
/// waveform parameters are fixed at construction (pure in the seed);
/// every query is pure in `t`. Serializes losslessly: a deserialized
/// scenario replays the identical drift.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    kind: ScenarioKind,
    seed: u64,
    horizon_s: f64,
    /// Phase offset of every cycle, in turns (`[0, 1)`).
    phase: f64,
    /// Full drift cycles over the horizon.
    cycles: f64,
    /// Arrival-rate swing amplitude around 1.0.
    rate_amp: f64,
    /// The lowest ambient thermal cap a season reaches.
    cap_floor: f64,
    /// Fraction of battery capacity lost by the end of the horizon.
    decay: f64,
    /// Peak difficulty shift of the demand mix.
    shift_amp: f64,
}

/// One step of the splitmix64 stream — the stable seeded generator the
/// scenario parameters are drawn from.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from the splitmix64 stream.
fn unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// A uniform draw in `[lo, hi)`.
fn range(state: &mut u64, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * unit(state)
}

impl Scenario {
    /// Builds the named scenario over a `[0, horizon_s)` timeline.
    ///
    /// # Errors
    ///
    /// Returns [`HadasError::InvalidConfig`] for an unknown name (the
    /// message lists [`SCENARIO_NAMES`]) or a non-positive horizon.
    pub fn from_name(name: &str, seed: u64, horizon_s: f64) -> Result<Self, HadasError> {
        let kind = match name {
            "calm" => ScenarioKind::Calm,
            "diurnal" => ScenarioKind::Diurnal,
            "thermal-season" => ScenarioKind::ThermalSeason,
            "battery-decay" => ScenarioKind::BatteryDecay,
            "demand-shift" => ScenarioKind::DemandShift,
            "composite" => ScenarioKind::Composite,
            other => {
                return Err(HadasError::InvalidConfig(format!(
                    "unknown scenario '{other}' (expected one of {})",
                    SCENARIO_NAMES.join(", ")
                )))
            }
        };
        Self::new(kind, seed, horizon_s)
    }

    /// Builds a scenario of the given kind (see [`Scenario::from_name`]
    /// for the errors).
    pub fn new(kind: ScenarioKind, seed: u64, horizon_s: f64) -> Result<Self, HadasError> {
        if !horizon_s.is_finite() || horizon_s <= 0.0 {
            return Err(HadasError::InvalidConfig("scenario horizon must be positive".into()));
        }
        // One salted stream per scenario; parameter order is part of the
        // replay contract, so draws happen unconditionally.
        let mut state = seed ^ 0x5343_454e_4152_4f5f; // "SCENARO_"
        let phase = unit(&mut state);
        let cycles = range(&mut state, 1.5, 3.5);
        let rate_amp = range(&mut state, 0.35, 0.6);
        let cap_floor = range(&mut state, 0.55, 0.75);
        let decay = range(&mut state, 0.25, 0.45);
        let shift_amp = range(&mut state, 0.2, 0.35);
        Ok(Scenario { kind, seed, horizon_s, phase, cycles, rate_amp, cap_floor, decay, shift_amp })
    }

    /// The scenario's registry name.
    pub fn name(&self) -> &'static str {
        self.kind.name()
    }

    /// The drift axes this scenario exercises.
    pub fn kind(&self) -> ScenarioKind {
        self.kind
    }

    /// The generating seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The timeline length the waveforms cycle over (seconds).
    pub fn horizon_s(&self) -> f64 {
        self.horizon_s
    }

    /// The scenario's cycle waveform at `t`: a sinusoid in `[-1, 1]`
    /// with the seeded phase, completing `cycles` turns per horizon.
    fn wave(&self, t: f64) -> f64 {
        (TAU * (self.cycles * t / self.horizon_s + self.phase)).sin()
    }

    /// The drifted arrival-rate multiplier at `t` (mean 1.0, never
    /// below 0.1). Compose multiplicatively with
    /// [`crate::FaultInjector::rate_multiplier_at`].
    pub fn rate_multiplier_at(&self, t: f64) -> f64 {
        let amp = match self.kind {
            ScenarioKind::Diurnal | ScenarioKind::Composite => self.rate_amp,
            // A shifting mix drags load with it, but more gently.
            ScenarioKind::DemandShift => self.rate_amp * 0.5,
            _ => return 1.0,
        };
        (1.0 + amp * self.wave(t)).max(0.1)
    }

    /// The ambient (seasonal) compute-clock cap at `t` (`(0, 1]`).
    /// Compose with episodic throttles by taking the minimum.
    pub fn thermal_cap_at(&self, t: f64) -> f64 {
        match self.kind {
            ScenarioKind::ThermalSeason | ScenarioKind::Composite => {
                // Hot half-waves dip toward the floor; cool half-waves
                // leave the clock uncapped.
                let hot = self.wave(t).max(0.0);
                1.0 - (1.0 - self.cap_floor) * hot
            }
            _ => 1.0,
        }
    }

    /// The input-difficulty shift at `t` (`[-shift_amp, shift_amp]`);
    /// add to a generated difficulty and clamp to `[0, 1]`.
    pub fn difficulty_shift_at(&self, t: f64) -> f64 {
        match self.kind {
            ScenarioKind::DemandShift | ScenarioKind::Composite => self.shift_amp * self.wave(t),
            _ => 0.0,
        }
    }

    /// The usable battery-capacity factor at `t` (`(0, 1]`), shrinking
    /// monotonically from 1.0 as the pack ages.
    pub fn battery_capacity_factor_at(&self, t: f64) -> f64 {
        match self.kind {
            ScenarioKind::BatteryDecay | ScenarioKind::Composite => {
                1.0 - self.decay * (t / self.horizon_s).clamp(0.0, 1.0)
            }
            _ => 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registry_name_builds_and_echoes_its_name() {
        for name in SCENARIO_NAMES {
            let s = Scenario::from_name(name, 7, 600.0).unwrap();
            assert_eq!(s.name(), name);
            assert_eq!(s.horizon_s(), 600.0);
            assert_eq!(s.seed(), 7);
        }
        assert!(Scenario::from_name("monsoon", 7, 600.0).is_err());
        assert!(Scenario::from_name("calm", 7, 0.0).is_err());
    }

    #[test]
    fn queries_are_pure_in_seed_and_tick() {
        let a = Scenario::from_name("composite", 11, 300.0).unwrap();
        let b = Scenario::from_name("composite", 11, 300.0).unwrap();
        assert_eq!(a, b);
        for i in 0..=3000 {
            let t = i as f64 * 0.1;
            assert_eq!(a.rate_multiplier_at(t).to_bits(), b.rate_multiplier_at(t).to_bits());
            assert_eq!(a.thermal_cap_at(t).to_bits(), b.thermal_cap_at(t).to_bits());
            assert_eq!(a.difficulty_shift_at(t).to_bits(), b.difficulty_shift_at(t).to_bits());
            assert_eq!(
                a.battery_capacity_factor_at(t).to_bits(),
                b.battery_capacity_factor_at(t).to_bits()
            );
        }
        let c = Scenario::from_name("composite", 12, 300.0).unwrap();
        assert_ne!(a, c, "different seeds must draw different waveforms");
    }

    #[test]
    fn calm_is_the_identity_scenario() {
        let s = Scenario::from_name("calm", 3, 120.0).unwrap();
        for i in 0..120 {
            let t = i as f64;
            assert_eq!(s.rate_multiplier_at(t), 1.0);
            assert_eq!(s.thermal_cap_at(t), 1.0);
            assert_eq!(s.difficulty_shift_at(t), 0.0);
            assert_eq!(s.battery_capacity_factor_at(t), 1.0);
        }
    }

    #[test]
    fn axes_stay_in_their_documented_ranges() {
        for name in SCENARIO_NAMES {
            for seed in 0..16u64 {
                let s = Scenario::from_name(name, seed, 240.0).unwrap();
                for i in 0..=960 {
                    let t = i as f64 * 0.25;
                    let rate = s.rate_multiplier_at(t);
                    assert!((0.1..=2.0).contains(&rate), "{name} rate {rate}");
                    let cap = s.thermal_cap_at(t);
                    assert!(cap > 0.0 && cap <= 1.0, "{name} cap {cap}");
                    assert!(s.difficulty_shift_at(t).abs() <= 0.35, "{name} shift");
                    let soc = s.battery_capacity_factor_at(t);
                    assert!(soc > 0.0 && soc <= 1.0, "{name} capacity {soc}");
                }
            }
        }
    }

    #[test]
    fn drifting_scenarios_actually_drift() {
        let samples = |s: &Scenario, f: &dyn Fn(&Scenario, f64) -> f64| -> (f64, f64) {
            (0..=600)
                .map(|i| f(s, i as f64))
                .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(v), hi.max(v)))
        };
        let diurnal = Scenario::from_name("diurnal", 5, 600.0).unwrap();
        let (lo, hi) = samples(&diurnal, &|s, t| s.rate_multiplier_at(t));
        assert!(hi - lo > 0.3, "diurnal must swing the rate ({lo}..{hi})");
        let season = Scenario::from_name("thermal-season", 5, 600.0).unwrap();
        let (lo, hi) = samples(&season, &|s, t| s.thermal_cap_at(t));
        assert!(lo < 0.8 && hi == 1.0, "seasons must dip the cap ({lo}..{hi})");
        let decay = Scenario::from_name("battery-decay", 5, 600.0).unwrap();
        assert!(decay.battery_capacity_factor_at(600.0) < 0.8, "capacity must shrink");
        let shift = Scenario::from_name("demand-shift", 5, 600.0).unwrap();
        let (lo, hi) = samples(&shift, &|s, t| s.difficulty_shift_at(t));
        assert!(lo < -0.1 && hi > 0.1, "the mix must drift both ways ({lo}..{hi})");
    }

    #[test]
    fn battery_decay_is_monotone() {
        let s = Scenario::from_name("battery-decay", 9, 600.0).unwrap();
        let mut prev = s.battery_capacity_factor_at(0.0);
        for i in 1..=600 {
            let now = s.battery_capacity_factor_at(i as f64);
            assert!(now <= prev, "capacity can only shrink");
            prev = now;
        }
    }

    #[test]
    fn serde_round_trip_replays_the_identical_drift() {
        let s = Scenario::from_name("composite", 21, 480.0).unwrap();
        let json = serde_json::to_string(&s).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
        for i in 0..480 {
            let t = i as f64;
            assert_eq!(s.rate_multiplier_at(t).to_bits(), back.rate_multiplier_at(t).to_bits());
        }
    }
}
