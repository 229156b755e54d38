//! Deterministic, seeded fault injection for the simulated edge substrate.
//!
//! Real Jetson-class deployments do not run on the idealized device the
//! search optimizes for: SoCs thermal-throttle and cap their DVFS ladder,
//! measurements glitch or hang, battery voltage sags under load, and
//! arrival streams burst. [`FaultInjector`] reproduces all four, driven
//! entirely by a seed so every chaos run is replayable:
//!
//! * **Thermal-throttle episodes** — windows during which the compute
//!   clock is capped at a fraction of its top frequency
//!   ([`FaultInjector::thermal_cap_at`]). The simulator and
//!   [`crate::DegradePolicy`] react by stepping to feasible modes.
//! * **Transient evaluation faults** — the injector implements the core
//!   engines' [`FaultModel`] hook, failing or hanging a deterministic
//!   fraction of candidate measurements. The outcome is a pure function
//!   of `(key, attempt)`, so a checkpoint-resumed search replays the
//!   exact same fault history (the chaos tests pin this).
//! * **Voltage-sag episodes** — windows during which every joule drawn
//!   from the battery costs extra ([`FaultInjector::sag_multiplier_at`]),
//!   modelling IR drop at low charge and cold temperature.
//! * **Workload bursts** — windows during which the arrival rate is
//!   multiplied ([`FaultInjector::rate_multiplier_at`]), for
//!   [`crate::WorkloadTrace::generate_modulated`].

use hadas::{AttemptOutcome, FaultModel, HadasError};
use rand::{rngs::StdRng, Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::hash::{Hash, Hasher};

/// Per-category salts so the thermal/sag/burst episode streams and the
/// measurement-fault stream are independent draws from one seed.
const THERMAL_SALT: u64 = 0x5448_4552_4d41_4c5f; // "THERMAL_"
const SAG_SALT: u64 = 0x5341_475f_5341_475f; // "SAG_SAG_"
const BURST_SALT: u64 = 0x4255_5253_545f_5f5f; // "BURST___"
const EVAL_SALT: u64 = 0x4556_414c_5f5f_5f5f; // "EVAL____"
const CRASH_SALT: u64 = 0x4352_4153_485f_5f5f; // "CRASH___"
const SWAP_SALT: u64 = 0x5357_4150_5f5f_5f5f; // "SWAP____"
const GRAY_SALT: u64 = 0x4752_4159_5f5f_5f5f; // "GRAY____"

/// One contiguous fault episode on the simulated timeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEpisode {
    /// Episode start, seconds from trace start.
    pub start_s: f64,
    /// Episode end (exclusive), seconds from trace start.
    pub end_s: f64,
}

impl FaultEpisode {
    /// Whether `t` falls inside the episode.
    pub fn contains(&self, t: f64) -> bool {
        t >= self.start_s && t < self.end_s
    }
}

/// Configuration of the seeded fault injector. All episode counts refer
/// to the `[0, horizon_s)` timeline; rates are per-attempt probabilities.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Seed of every fault stream.
    pub seed: u64,
    /// Simulated timeline length the episodes are scattered over (s).
    pub horizon_s: f64,
    /// Duration of each episode (s).
    pub episode_s: f64,
    /// Number of thermal-throttle episodes.
    pub thermal_episodes: usize,
    /// Compute-clock cap during a thermal episode, as a fraction of the
    /// top compute frequency (`[0, 1]`; 1.0 disables throttling).
    pub thermal_cap: f64,
    /// Number of battery voltage-sag episodes.
    pub sag_episodes: usize,
    /// Extra energy cost during a sag: every joule drawn costs
    /// `1 + sag_depth` joules (`≥ 0`).
    pub sag_depth: f64,
    /// Number of workload-burst episodes.
    pub burst_episodes: usize,
    /// Arrival-rate multiplier during a burst (`≥ 1`).
    pub burst_multiplier: f64,
    /// Probability that one candidate-measurement attempt fails
    /// transiently (`[0, 1)`).
    pub transient_rate: f64,
    /// Probability that one attempt hangs to its deadline (`[0, 1)`).
    pub timeout_rate: f64,
    /// Probability that the worker executing one attempt crashes outright
    /// (`[0, 1)`). Drawn from an independent salt so enabling crashes
    /// never perturbs the transient/timeout stream — the serving
    /// supervisor relies on that to keep recovery byte-identical.
    pub crash_rate: f64,
    /// Probability that one operating-point swap attempt fails and rolls
    /// back to the old point (`[0, 1)`). Drawn from an independent salt
    /// so enabling swap failures never perturbs any other fault stream;
    /// a rollback keeps the device on its old point, so it reshapes the
    /// schedule (substrate-plane, like thermal episodes) rather than the
    /// execution plane.
    pub swap_fail_rate: f64,
    /// Simulated cost of a successful measurement attempt (ms).
    pub ok_cost_ms: f64,
    /// Simulated cost burned by a transient failure (ms).
    pub failure_cost_ms: f64,
    /// Simulated deadline burned by a hung attempt (ms).
    pub timeout_cost_ms: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            horizon_s: 120.0,
            episode_s: 15.0,
            thermal_episodes: 2,
            thermal_cap: 0.5,
            sag_episodes: 2,
            sag_depth: 0.3,
            burst_episodes: 2,
            burst_multiplier: 3.0,
            transient_rate: 0.05,
            timeout_rate: 0.02,
            crash_rate: 0.0,
            swap_fail_rate: 0.0,
            ok_cost_ms: 5.0,
            failure_cost_ms: 20.0,
            timeout_cost_ms: 250.0,
        }
    }
}

impl FaultConfig {
    /// A calm substrate: no episodes, no measurement faults. Useful as a
    /// baseline in A/B chaos comparisons.
    pub fn calm(seed: u64) -> Self {
        FaultConfig {
            seed,
            thermal_episodes: 0,
            sag_episodes: 0,
            burst_episodes: 0,
            transient_rate: 0.0,
            timeout_rate: 0.0,
            crash_rate: 0.0,
            ..Default::default()
        }
    }

    /// The default chaos level with an explicit seed.
    pub fn chaos(seed: u64) -> Self {
        FaultConfig { seed, ..Default::default() }
    }

    /// Execution-plane chaos for the serving supervisor: transient batch
    /// failures, stragglers (timeout draws), and worker crashes — but
    /// **zero substrate episodes** (no thermal caps, sags, or bursts).
    /// Episodes reshape the virtual-time schedule itself; execution-plane
    /// faults by construction do not, which is exactly what lets the
    /// recovered `ServeReport` stay byte-identical to a fault-free run.
    pub fn worker_chaos(seed: u64) -> Self {
        FaultConfig {
            seed,
            thermal_episodes: 0,
            sag_episodes: 0,
            burst_episodes: 0,
            transient_rate: 0.06,
            timeout_rate: 0.04,
            crash_rate: 0.03,
            ..Default::default()
        }
    }

    /// Validates ranges.
    ///
    /// # Errors
    ///
    /// Returns [`HadasError::InvalidConfig`] for out-of-range rates,
    /// caps, multipliers, or a non-positive horizon.
    pub fn validate(&self) -> Result<(), HadasError> {
        let ok = |v: f64| v.is_finite() && (0.0..1.0).contains(&v);
        if !ok(self.transient_rate)
            || !ok(self.timeout_rate)
            || !ok(self.crash_rate)
            || !ok(self.swap_fail_rate)
        {
            return Err(HadasError::InvalidConfig("fault rates must lie in [0, 1)".into()));
        }
        if self.transient_rate + self.timeout_rate >= 1.0 {
            return Err(HadasError::InvalidConfig(
                "transient + timeout rate must stay below 1 or no attempt ever lands".into(),
            ));
        }
        if !self.thermal_cap.is_finite() || !(0.0..=1.0).contains(&self.thermal_cap) {
            return Err(HadasError::InvalidConfig("thermal cap must lie in [0, 1]".into()));
        }
        let positive = |v: f64| v.is_finite() && v > 0.0;
        if !positive(self.horizon_s) || !positive(self.episode_s) {
            return Err(HadasError::InvalidConfig(
                "fault horizon and episode length must be positive".into(),
            ));
        }
        if !self.sag_depth.is_finite() || self.sag_depth < 0.0 {
            return Err(HadasError::InvalidConfig("sag depth must be ≥ 0".into()));
        }
        if !self.burst_multiplier.is_finite() || self.burst_multiplier < 1.0 {
            return Err(HadasError::InvalidConfig("burst multiplier must be ≥ 1".into()));
        }
        let cost_ok = |v: f64| v.is_finite() && v >= 0.0;
        if !cost_ok(self.ok_cost_ms)
            || !cost_ok(self.failure_cost_ms)
            || !cost_ok(self.timeout_cost_ms)
        {
            return Err(HadasError::InvalidConfig("attempt costs must be ≥ 0 ms".into()));
        }
        Ok(())
    }
}

/// The seeded fault injector: precomputed episode timelines plus a pure
/// per-attempt measurement-fault stream (the [`FaultModel`] impl).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultInjector {
    config: FaultConfig,
    thermal: Vec<FaultEpisode>,
    sag: Vec<FaultEpisode>,
    burst: Vec<FaultEpisode>,
}

impl FaultInjector {
    /// Builds the injector, scattering each episode category over the
    /// horizon with an independent seeded stream.
    ///
    /// # Errors
    ///
    /// Returns [`HadasError::InvalidConfig`] if `config` fails
    /// [`FaultConfig::validate`].
    pub fn new(config: FaultConfig) -> Result<Self, HadasError> {
        config.validate()?;
        let scatter = |count: usize, salt: u64| -> Vec<FaultEpisode> {
            let mut rng = StdRng::seed_from_u64(config.seed ^ salt);
            let span = (config.horizon_s - config.episode_s).max(0.0);
            let mut eps: Vec<FaultEpisode> = (0..count)
                .map(|_| {
                    let start = if span > 0.0 { rng.gen_range(0.0..span) } else { 0.0 };
                    FaultEpisode { start_s: start, end_s: start + config.episode_s }
                })
                .collect();
            eps.sort_by(|a, b| a.start_s.total_cmp(&b.start_s));
            eps
        };
        Ok(FaultInjector {
            thermal: scatter(config.thermal_episodes, THERMAL_SALT),
            sag: scatter(config.sag_episodes, SAG_SALT),
            burst: scatter(config.burst_episodes, BURST_SALT),
            config,
        })
    }

    /// The generating configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// The thermal-throttle episodes, time-ordered.
    pub fn thermal_episodes(&self) -> &[FaultEpisode] {
        &self.thermal
    }

    /// The voltage-sag episodes, time-ordered.
    pub fn sag_episodes(&self) -> &[FaultEpisode] {
        &self.sag
    }

    /// The workload-burst episodes, time-ordered.
    pub fn burst_episodes(&self) -> &[FaultEpisode] {
        &self.burst
    }

    /// The compute-clock cap in force at time `t`: `thermal_cap` inside a
    /// throttle episode, 1.0 (unthrottled) outside.
    pub fn thermal_cap_at(&self, t: f64) -> f64 {
        if self.thermal.iter().any(|e| e.contains(t)) {
            self.config.thermal_cap
        } else {
            1.0
        }
    }

    /// The energy-cost multiplier at time `t`: `1 + sag_depth` inside a
    /// sag episode, 1.0 outside.
    pub fn sag_multiplier_at(&self, t: f64) -> f64 {
        if self.sag.iter().any(|e| e.contains(t)) {
            1.0 + self.config.sag_depth
        } else {
            1.0
        }
    }

    /// The arrival-rate multiplier at time `t`: `burst_multiplier` inside
    /// a burst episode, 1.0 outside.
    pub fn rate_multiplier_at(&self, t: f64) -> f64 {
        if self.burst.iter().any(|e| e.contains(t)) {
            self.config.burst_multiplier
        } else {
            1.0
        }
    }

    /// A uniform draw in `[0, 1)` that is a pure function of
    /// `(seed ^ salt, key, attempt)` — the determinism the resume and
    /// serving-recovery contracts both need.
    fn draw(&self, salt: u64, key: u64, attempt: u32) -> f64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        (self.config.seed ^ salt).hash(&mut h);
        key.hash(&mut h);
        attempt.hash(&mut h);
        (h.finish() % 1_000_000) as f64 / 1_000_000.0
    }

    fn uniform(&self, key: u64, attempt: u32) -> f64 {
        self.draw(EVAL_SALT, key, attempt)
    }

    /// Whether the worker executing attempt `attempt` of the unit of work
    /// identified by `key` crashes outright (thread death, not a
    /// retryable measurement error). Pure in `(key, attempt)` and drawn
    /// from an independent salt, so crash injection composes with the
    /// transient/timeout stream without perturbing it.
    pub fn crash_at(&self, key: u64, attempt: u32) -> bool {
        self.config.crash_rate > 0.0 && self.draw(CRASH_SALT, key, attempt) < self.config.crash_rate
    }

    /// Whether the operating-point swap identified by `key` (e.g.
    /// `epoch * devices + device`) fails and must roll back. Pure in
    /// `key` and drawn from an independent salt, so enabling swap
    /// failures leaves the thermal/sag/burst/eval/crash streams
    /// untouched.
    pub fn swap_failure_at(&self, key: u64) -> bool {
        self.config.swap_fail_rate > 0.0
            && self.draw(SWAP_SALT, key, 0) < self.config.swap_fail_rate
    }
}

/// The telemetry signature a gray-failing device presents while it is
/// degraded. Every kind inflates real service latency by the same
/// factor — the *kind* only controls what the health channel admits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GrayFaultKind {
    /// Degraded windows replay the last emitted sample verbatim —
    /// frozen timestamp, frozen readings — like a hung sensor daemon.
    Stale,
    /// Degraded windows emit finite-but-absurd readings (out-of-range
    /// caps, implausible queue depths), like a glitching ADC.
    Corrupt,
    /// Degraded windows emit nothing at all — a visible sample gap.
    Drop,
    /// Degraded windows emit *clean-looking* telemetry while the device
    /// is genuinely slow: no flag anywhere, only latency divergence.
    SilentSlowdown,
    /// Degradation alternates on and off every [`GrayFaultConfig::flap_period`]
    /// windows, with clean telemetry in between — the hysteresis stressor.
    Flap,
    /// Each gray device draws its own kind from the seeded stream.
    Mix,
}

impl GrayFaultKind {
    /// All concrete (non-[`GrayFaultKind::Mix`]) kinds, for sweeps.
    pub const CONCRETE: [GrayFaultKind; 5] = [
        GrayFaultKind::Stale,
        GrayFaultKind::Corrupt,
        GrayFaultKind::Drop,
        GrayFaultKind::SilentSlowdown,
        GrayFaultKind::Flap,
    ];

    /// The CLI/bench spelling of the kind.
    pub fn name(self) -> &'static str {
        match self {
            GrayFaultKind::Stale => "stale",
            GrayFaultKind::Corrupt => "corrupt",
            GrayFaultKind::Drop => "drop",
            GrayFaultKind::SilentSlowdown => "slow",
            GrayFaultKind::Flap => "flap",
            GrayFaultKind::Mix => "mix",
        }
    }

    /// Parses the CLI spelling.
    ///
    /// # Errors
    ///
    /// Returns [`HadasError::InvalidConfig`] naming the valid spellings
    /// for anything else.
    pub fn from_name(name: &str) -> Result<Self, HadasError> {
        match name {
            "stale" => Ok(GrayFaultKind::Stale),
            "corrupt" => Ok(GrayFaultKind::Corrupt),
            "drop" => Ok(GrayFaultKind::Drop),
            "slow" => Ok(GrayFaultKind::SilentSlowdown),
            "flap" => Ok(GrayFaultKind::Flap),
            "mix" => Ok(GrayFaultKind::Mix),
            other => Err(HadasError::InvalidConfig(format!(
                "unknown gray-fault kind '{other}' (expected stale|corrupt|drop|slow|flap|mix)"
            ))),
        }
    }
}

/// What a gray fault does to one control-window health sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GrayDefect {
    /// Replay the previously emitted sample unchanged.
    Stale,
    /// Replace the readings with finite out-of-range garbage.
    Corrupt,
    /// Emit no sample for this window.
    Drop,
    /// Emit the true sample — the degradation is latency-only.
    Clean,
}

/// Seeded gray-failure injection: a subset of fleet devices degrades
/// (real latency inflates by [`GrayFaultConfig::slowdown_factor`]) while
/// their health telemetry lies per [`GrayFaultKind`]. Every query is a
/// pure function of `(device, window, seed)`, so gray runs replay
/// byte-identically at any worker count — the same contract the other
/// fault streams keep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GrayFaultConfig {
    /// Seed of the gray stream (independent of every other fault salt).
    pub seed: u64,
    /// Telemetry signature of affected devices.
    pub kind: GrayFaultKind,
    /// Fleet index of the device this per-device copy governs. The fleet
    /// engine stamps it when deriving per-device serve configs; queries
    /// take an explicit device so one config can also answer for a whole
    /// fleet.
    pub device: usize,
    /// Approximate fraction of fleet devices that go gray. Assignment is
    /// cyclic (`(device + seed) % round(1/rate) == 0`), so at least one
    /// device is gray for every seed.
    pub device_rate: f64,
    /// Control window at which an affected device starts degrading.
    pub onset_window: usize,
    /// Real service-latency multiplier while degraded (`> 1`).
    pub slowdown_factor: f64,
    /// For [`GrayFaultKind::Flap`]: degraded/clean phases alternate every
    /// this many windows (`≥ 1`).
    pub flap_period: usize,
}

impl Default for GrayFaultConfig {
    fn default() -> Self {
        GrayFaultConfig {
            seed: 0,
            kind: GrayFaultKind::Mix,
            device: 0,
            device_rate: 0.25,
            onset_window: 2,
            slowdown_factor: 6.0,
            flap_period: 2,
        }
    }
}

impl GrayFaultConfig {
    /// A gray config with an explicit kind and seed, defaults elsewhere.
    pub fn new(kind: GrayFaultKind, seed: u64) -> Self {
        GrayFaultConfig { kind, seed, ..Default::default() }
    }

    /// Validates ranges.
    ///
    /// # Errors
    ///
    /// Returns [`HadasError::InvalidConfig`] for a device rate outside
    /// `(0, 1]`, a slowdown factor ≤ 1, or a zero flap period.
    pub fn validate(&self) -> Result<(), HadasError> {
        if !self.device_rate.is_finite()
            || !(0.0..=1.0).contains(&self.device_rate)
            || self.device_rate == 0.0
        {
            return Err(HadasError::InvalidConfig("gray device rate must lie in (0, 1]".into()));
        }
        if !self.slowdown_factor.is_finite() || self.slowdown_factor <= 1.0 {
            return Err(HadasError::InvalidConfig(
                "gray slowdown factor must be > 1 or the fault has no effect".into(),
            ));
        }
        if self.flap_period == 0 {
            return Err(HadasError::InvalidConfig("gray flap period must be ≥ 1".into()));
        }
        Ok(())
    }

    /// A uniform draw in `[0, 1)`, pure in `(seed, device, window)`.
    fn draw(&self, device: usize, window: usize) -> f64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        (self.seed ^ GRAY_SALT).hash(&mut h);
        (device as u64).hash(&mut h);
        (window as u64).hash(&mut h);
        (h.finish() % 1_000_000) as f64 / 1_000_000.0
    }

    /// Whether fleet device `device` is gray under this config. Cyclic in
    /// `device + seed`, so every seed grays out `≈ device_rate` of the
    /// fleet and never zero devices.
    pub fn device_is_gray(&self, device: usize) -> bool {
        let period = (1.0 / self.device_rate).round().max(1.0) as usize;
        (device + self.seed as usize).is_multiple_of(period)
    }

    /// The concrete kind device `device` presents: the configured kind,
    /// or a seeded per-device draw for [`GrayFaultKind::Mix`].
    pub fn kind_of_device(&self, device: usize) -> GrayFaultKind {
        match self.kind {
            GrayFaultKind::Mix => {
                let u = self.draw(device, usize::MAX);
                let n = GrayFaultKind::CONCRETE.len();
                GrayFaultKind::CONCRETE[((u * n as f64) as usize).min(n - 1)]
            }
            concrete => concrete,
        }
    }

    /// Whether device `device` is genuinely degraded (slow) during
    /// control window `window`. Pure in `(device, window, seed)`.
    pub fn degraded_at(&self, device: usize, window: usize) -> bool {
        if !self.device_is_gray(device) || window < self.onset_window {
            return false;
        }
        match self.kind_of_device(device) {
            GrayFaultKind::Flap => {
                ((window - self.onset_window) / self.flap_period).is_multiple_of(2)
            }
            _ => true,
        }
    }

    /// The real service-latency multiplier for device `device` during
    /// window `window`: [`GrayFaultConfig::slowdown_factor`] while
    /// degraded, 1.0 otherwise.
    pub fn slowdown_at(&self, device: usize, window: usize) -> f64 {
        if self.degraded_at(device, window) {
            self.slowdown_factor
        } else {
            1.0
        }
    }

    /// What the health channel does to the sample of window `window` on
    /// device `device`. Pure in `(device, window, seed)`; the injector
    /// purity proptest pins this.
    pub fn telemetry_defect_at(&self, device: usize, window: usize) -> GrayDefect {
        if !self.degraded_at(device, window) {
            return GrayDefect::Clean;
        }
        match self.kind_of_device(device) {
            GrayFaultKind::Stale => GrayDefect::Stale,
            GrayFaultKind::Corrupt => GrayDefect::Corrupt,
            GrayFaultKind::Drop => GrayDefect::Drop,
            // `kind_of_device` never returns `Mix`; folding it into the
            // clean arm keeps this total without a panic site.
            GrayFaultKind::SilentSlowdown | GrayFaultKind::Flap | GrayFaultKind::Mix => {
                GrayDefect::Clean
            }
        }
    }
}

impl FaultModel for FaultInjector {
    fn eval_attempt(&self, key: u64, attempt: u32) -> AttemptOutcome {
        let u = self.uniform(key, attempt);
        if u < self.config.transient_rate {
            AttemptOutcome::TransientFailure { cost_ms: self.config.failure_cost_ms }
        } else if u < self.config.transient_rate + self.config.timeout_rate {
            AttemptOutcome::Timeout { cost_ms: self.config.timeout_cost_ms }
        } else {
            AttemptOutcome::Ok { cost_ms: self.config.ok_cost_ms }
        }
    }
}

/// The shared execution-plane chaos source: the supervised executor
/// (serve pool and OOE/IOE search alike) consults the injector's
/// independent crash stream when scripting its recovery plan.
impl hadas::executor::FateResolver for FaultInjector {
    fn crash_at(&self, key: u64, attempt: u32) -> bool {
        FaultInjector::crash_at(self, key, attempt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_is_deterministic() {
        let a = FaultInjector::new(FaultConfig::chaos(9)).unwrap();
        let b = FaultInjector::new(FaultConfig::chaos(9)).unwrap();
        assert_eq!(a, b);
        let c = FaultInjector::new(FaultConfig::chaos(10)).unwrap();
        assert_ne!(a, c, "different seeds must scatter differently");
    }

    #[test]
    fn eval_attempts_are_pure_in_key_and_attempt() {
        let inj = FaultInjector::new(FaultConfig::chaos(3)).unwrap();
        for key in 0..64u64 {
            for attempt in 0..4u32 {
                assert_eq!(inj.eval_attempt(key, attempt), inj.eval_attempt(key, attempt));
            }
        }
    }

    #[test]
    fn fault_rates_are_roughly_honoured() {
        let cfg = FaultConfig { transient_rate: 0.3, timeout_rate: 0.1, ..FaultConfig::chaos(5) };
        let inj = FaultInjector::new(cfg).unwrap();
        let n = 20_000u64;
        let mut transient = 0usize;
        let mut timeout = 0usize;
        for key in 0..n {
            match inj.eval_attempt(key, 0) {
                AttemptOutcome::TransientFailure { .. } => transient += 1,
                AttemptOutcome::Timeout { .. } => timeout += 1,
                AttemptOutcome::Ok { .. } => {}
            }
        }
        let ft = transient as f64 / n as f64;
        let fo = timeout as f64 / n as f64;
        assert!((ft - 0.3).abs() < 0.03, "transient fraction {ft}");
        assert!((fo - 0.1).abs() < 0.03, "timeout fraction {fo}");
    }

    #[test]
    fn episode_queries_follow_the_timeline() {
        let inj = FaultInjector::new(FaultConfig::chaos(7)).unwrap();
        assert_eq!(inj.thermal_episodes().len(), 2);
        let ep = inj.thermal_episodes()[0];
        let mid = (ep.start_s + ep.end_s) / 2.0;
        assert_eq!(inj.thermal_cap_at(mid), 0.5);
        assert_eq!(inj.thermal_cap_at(-1.0), 1.0, "before the timeline: healthy");
        let sag = inj.sag_episodes()[0];
        assert!((inj.sag_multiplier_at(sag.start_s) - 1.3).abs() < 1e-12);
        let burst = inj.burst_episodes()[0];
        assert!((inj.rate_multiplier_at(burst.start_s) - 3.0).abs() < 1e-12);
        assert_eq!(inj.rate_multiplier_at(1e9), 1.0);
    }

    #[test]
    fn calm_config_injects_nothing() {
        let inj = FaultInjector::new(FaultConfig::calm(1)).unwrap();
        for t in 0..120 {
            assert_eq!(inj.thermal_cap_at(t as f64), 1.0);
            assert_eq!(inj.sag_multiplier_at(t as f64), 1.0);
            assert_eq!(inj.rate_multiplier_at(t as f64), 1.0);
        }
        for key in 0..256u64 {
            assert!(matches!(inj.eval_attempt(key, 0), AttemptOutcome::Ok { .. }));
        }
    }

    #[test]
    fn crash_draws_are_pure_independent_and_roughly_honoured() {
        let cfg = FaultConfig { crash_rate: 0.2, ..FaultConfig::worker_chaos(13) };
        let with = FaultInjector::new(cfg.clone()).unwrap();
        let without = FaultInjector::new(FaultConfig { crash_rate: 0.0, ..cfg }).unwrap();
        let n = 20_000u64;
        let mut crashes = 0usize;
        for key in 0..n {
            assert_eq!(with.crash_at(key, 0), with.crash_at(key, 0), "pure in (key, attempt)");
            assert_eq!(
                with.eval_attempt(key, 0),
                without.eval_attempt(key, 0),
                "enabling crashes must not perturb the transient/timeout stream"
            );
            crashes += usize::from(with.crash_at(key, 0));
            assert!(!without.crash_at(key, 0), "zero rate never crashes");
        }
        let fc = crashes as f64 / n as f64;
        assert!((fc - 0.2).abs() < 0.03, "crash fraction {fc}");
    }

    #[test]
    fn swap_failures_are_pure_independent_and_roughly_honoured() {
        let cfg = FaultConfig { swap_fail_rate: 0.3, ..FaultConfig::chaos(17) };
        let with = FaultInjector::new(cfg.clone()).unwrap();
        let without = FaultInjector::new(FaultConfig { swap_fail_rate: 0.0, ..cfg }).unwrap();
        let n = 20_000u64;
        let mut failures = 0usize;
        for key in 0..n {
            assert_eq!(with.swap_failure_at(key), with.swap_failure_at(key), "pure in key");
            assert_eq!(
                with.eval_attempt(key, 0),
                without.eval_attempt(key, 0),
                "enabling swap failures must not perturb the eval stream"
            );
            assert_eq!(with.crash_at(key, 0), without.crash_at(key, 0));
            failures += usize::from(with.swap_failure_at(key));
            assert!(!without.swap_failure_at(key), "zero rate never fails a swap");
        }
        let ff = failures as f64 / n as f64;
        assert!((ff - 0.3).abs() < 0.03, "swap-failure fraction {ff}");
        assert_eq!(with.thermal_episodes(), without.thermal_episodes());
        let hot = FaultConfig { swap_fail_rate: 1.5, ..FaultConfig::default() };
        assert!(FaultInjector::new(hot).is_err(), "swap rate outside [0, 1) is rejected");
    }

    #[test]
    fn worker_chaos_has_no_substrate_episodes() {
        let inj = FaultInjector::new(FaultConfig::worker_chaos(5)).unwrap();
        assert!(inj.thermal_episodes().is_empty());
        assert!(inj.sag_episodes().is_empty());
        assert!(inj.burst_episodes().is_empty());
        assert!(inj.config().crash_rate > 0.0);
    }

    #[test]
    fn gray_queries_are_pure_in_device_window_seed() {
        for kind in GrayFaultKind::CONCRETE.into_iter().chain([GrayFaultKind::Mix]) {
            let a = GrayFaultConfig::new(kind, 11);
            let b = GrayFaultConfig::new(kind, 11);
            for device in 0..8usize {
                for window in 0..16usize {
                    assert_eq!(
                        a.telemetry_defect_at(device, window),
                        b.telemetry_defect_at(device, window)
                    );
                    assert_eq!(a.degraded_at(device, window), b.degraded_at(device, window));
                    assert_eq!(a.slowdown_at(device, window), b.slowdown_at(device, window));
                }
            }
        }
    }

    #[test]
    fn gray_assignment_always_hits_at_least_one_device() {
        for seed in 0..64u64 {
            let cfg = GrayFaultConfig::new(GrayFaultKind::SilentSlowdown, seed);
            let gray = (0..8usize).filter(|&d| cfg.device_is_gray(d)).count();
            assert!(gray >= 1, "seed {seed} grayed no device");
            assert!(gray <= 2, "seed {seed} grayed {gray}/8 devices at rate 0.25");
        }
    }

    #[test]
    fn gray_kinds_shape_the_telemetry_signature() {
        let seed = 4; // device 0 is gray: (0 + 4) % 4 == 0
        let stale = GrayFaultConfig::new(GrayFaultKind::Stale, seed);
        assert!(stale.device_is_gray(0));
        assert_eq!(stale.telemetry_defect_at(0, 0), GrayDefect::Clean, "pre-onset is clean");
        assert_eq!(stale.telemetry_defect_at(0, 5), GrayDefect::Stale);
        assert!(stale.degraded_at(0, 5) && !stale.degraded_at(1, 5));
        assert_eq!(stale.slowdown_at(0, 5), 6.0);
        assert_eq!(stale.slowdown_at(0, 0), 1.0);

        let corrupt = GrayFaultConfig::new(GrayFaultKind::Corrupt, seed);
        assert_eq!(corrupt.telemetry_defect_at(0, 5), GrayDefect::Corrupt);
        let drop = GrayFaultConfig::new(GrayFaultKind::Drop, seed);
        assert_eq!(drop.telemetry_defect_at(0, 5), GrayDefect::Drop);

        let slow = GrayFaultConfig::new(GrayFaultKind::SilentSlowdown, seed);
        assert_eq!(slow.telemetry_defect_at(0, 5), GrayDefect::Clean, "silent means clean-looking");
        assert!(slow.degraded_at(0, 5), "…but genuinely slow");

        let flap = GrayFaultConfig::new(GrayFaultKind::Flap, seed);
        assert!(flap.degraded_at(0, 2) && flap.degraded_at(0, 3), "first phase degraded");
        assert!(!flap.degraded_at(0, 4) && !flap.degraded_at(0, 5), "second phase clean");
        assert!(flap.degraded_at(0, 6), "third phase degraded again");
    }

    #[test]
    fn gray_mix_resolves_a_concrete_kind_per_device() {
        let cfg =
            GrayFaultConfig { device_rate: 1.0, ..GrayFaultConfig::new(GrayFaultKind::Mix, 3) };
        let mut kinds = std::collections::BTreeSet::new();
        for device in 0..64usize {
            let kind = cfg.kind_of_device(device);
            assert_ne!(kind, GrayFaultKind::Mix, "mix must resolve");
            assert_eq!(kind, cfg.kind_of_device(device), "resolution is pure");
            kinds.insert(kind.name());
        }
        assert!(kinds.len() >= 3, "64 devices should draw several kinds, got {kinds:?}");
    }

    #[test]
    fn gray_kind_names_round_trip_and_reject_garbage() {
        for kind in GrayFaultKind::CONCRETE.into_iter().chain([GrayFaultKind::Mix]) {
            assert_eq!(GrayFaultKind::from_name(kind.name()).unwrap(), kind);
        }
        assert!(GrayFaultKind::from_name("charcoal").is_err());
    }

    #[test]
    fn gray_validate_rejects_degenerate_configs() {
        assert!(GrayFaultConfig::new(GrayFaultKind::Mix, 0).validate().is_ok());
        let dead = GrayFaultConfig { device_rate: 0.0, ..Default::default() };
        assert!(dead.validate().is_err());
        let overfull = GrayFaultConfig { device_rate: 1.5, ..Default::default() };
        assert!(overfull.validate().is_err());
        let inert = GrayFaultConfig { slowdown_factor: 1.0, ..Default::default() };
        assert!(inert.validate().is_err());
        let frozen = GrayFaultConfig { flap_period: 0, ..Default::default() };
        assert!(frozen.validate().is_err());
    }

    #[test]
    fn validate_rejects_degenerate_configs() {
        let crashy = FaultConfig { crash_rate: 1.5, ..FaultConfig::default() };
        assert!(FaultInjector::new(crashy).is_err());
        let starved =
            FaultConfig { transient_rate: 0.7, timeout_rate: 0.4, ..FaultConfig::default() };
        assert!(FaultInjector::new(starved).is_err(), "rates summing ≥ 1 starve the search");
        let hot = FaultConfig { thermal_cap: 1.5, ..FaultConfig::default() };
        assert!(FaultInjector::new(hot).is_err());
        let thin = FaultConfig { burst_multiplier: 0.5, ..FaultConfig::default() };
        assert!(FaultInjector::new(thin).is_err());
        let flat = FaultConfig { horizon_s: 0.0, ..FaultConfig::default() };
        assert!(FaultInjector::new(flat).is_err());
    }
}
