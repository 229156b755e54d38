use crate::HadasError;
use serde::{Deserialize, Serialize};

/// Population size and evaluation budget of one evolutionary engine.
///
/// The paper expresses budgets as `#iterations = G × P` — 450 for the OOE
/// and 3500 for the IOE in its experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineBudget {
    /// Population size `P`.
    pub population: usize,
    /// Total evaluations `G × P`.
    pub iterations: usize,
}

impl EngineBudget {
    /// Creates a budget.
    pub fn new(population: usize, iterations: usize) -> Self {
        EngineBudget { population, iterations }
    }

    /// Number of generations this budget affords (at least 1).
    pub fn generations(&self) -> usize {
        (self.iterations / self.population).max(1)
    }
}

/// Configuration of a full HADAS run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HadasConfig {
    /// Master seed; the whole bi-level search is deterministic given it.
    pub seed: u64,
    /// Outer (backbone) engine budget.
    pub ooe: EngineBudget,
    /// Inner (exits × DVFS) engine budget, spent per selected backbone.
    pub ioe: EngineBudget,
    /// Fraction of each OOE generation promoted to the IOE stage (the
    /// early-selection pruning `P' ⊂ P`).
    pub prune_fraction: f64,
    /// Trade-off exponent γ of the `dissimᵞ` regularizer (eq. (6)).
    pub gamma: f64,
    /// Whether the dissimilarity regularizer is applied at all (the
    /// Fig. 7 ablation disables it).
    pub use_dissimilarity: bool,
}

impl HadasConfig {
    /// The paper's experimental budgets: OOE 450 iterations, IOE 3500.
    pub fn paper() -> Self {
        HadasConfig {
            seed: 0x44415445, // "DATE"
            ooe: EngineBudget::new(30, 450),
            ioe: EngineBudget::new(50, 3500),
            prune_fraction: 0.25,
            gamma: 1.0,
            use_dissimilarity: true,
        }
    }

    /// A reduced-budget configuration that preserves the paper's shape
    /// while finishing quickly — used by examples and integration tests.
    pub fn smoke_test() -> Self {
        HadasConfig {
            seed: 7,
            ooe: EngineBudget::new(10, 40),
            ioe: EngineBudget::new(12, 60),
            prune_fraction: 0.3,
            gamma: 1.0,
            use_dissimilarity: true,
        }
    }

    /// Replaces the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the dissimilarity settings (for the Fig. 7 ablation).
    pub fn with_dissimilarity(mut self, enabled: bool, gamma: f64) -> Self {
        self.use_dissimilarity = enabled;
        self.gamma = gamma;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`HadasError::InvalidConfig`] for degenerate budgets or an
    /// out-of-range prune fraction.
    pub fn validate(&self) -> Result<(), HadasError> {
        if self.ooe.population < 2 || self.ioe.population < 2 {
            return Err(HadasError::InvalidConfig("populations must be at least 2".into()));
        }
        if self.ooe.iterations < self.ooe.population || self.ioe.iterations < self.ioe.population {
            return Err(HadasError::InvalidConfig(
                "budgets must cover at least one generation".into(),
            ));
        }
        if !(0.0 < self.prune_fraction && self.prune_fraction <= 1.0) {
            return Err(HadasError::InvalidConfig(format!(
                "prune fraction {} outside (0, 1]",
                self.prune_fraction
            )));
        }
        if self.gamma < 0.0 || !self.gamma.is_finite() {
            return Err(HadasError::InvalidConfig(format!("gamma {} must be ≥ 0", self.gamma)));
        }
        Ok(())
    }
}

impl Default for HadasConfig {
    fn default() -> Self {
        HadasConfig::paper()
    }
}

/// Search budget presets: the one table every front end (the `hadas`
/// CLI, the bench binaries, perfbench) resolves a scale name through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// Seconds-scale budgets (default).
    #[default]
    Quick,
    /// Minutes-scale budgets preserving the paper's shapes.
    Mid,
    /// The paper's published budgets (OOE 450 / IOE 3500 iterations).
    Paper,
}

impl Scale {
    /// Every preset, smallest budget first.
    pub const ALL: [Scale; 3] = [Scale::Quick, Scale::Mid, Scale::Paper];

    /// The preset's name (`quick` | `mid` | `paper`).
    pub fn name(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Mid => "mid",
            Scale::Paper => "paper",
        }
    }

    /// Parses a preset name (the inverse of [`Scale::name`]).
    pub fn parse(name: &str) -> Option<Scale> {
        Scale::ALL.into_iter().find(|s| s.name() == name)
    }

    /// The corresponding engine configuration: [`HadasConfig::paper`]
    /// with the preset's OOE and IOE budgets.
    pub fn config(self) -> HadasConfig {
        let mut cfg = HadasConfig::paper();
        match self {
            Scale::Quick => {
                cfg.ooe = EngineBudget::new(12, 60);
                cfg.ioe = EngineBudget::new(16, 96);
            }
            Scale::Mid => {
                cfg.ooe = EngineBudget::new(16, 128);
                cfg.ioe = EngineBudget::new(24, 240);
            }
            Scale::Paper => {}
        }
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_budgets_match_section_v() {
        let cfg = HadasConfig::paper();
        assert_eq!(cfg.ooe.iterations, 450);
        assert_eq!(cfg.ioe.iterations, 3500);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn generations_derive_from_budget() {
        let b = EngineBudget::new(50, 3500);
        assert_eq!(b.generations(), 70);
        assert_eq!(EngineBudget::new(10, 5).generations(), 1);
    }

    #[test]
    fn validate_rejects_degenerate_configs() {
        let mut cfg = HadasConfig::smoke_test();
        cfg.prune_fraction = 0.0;
        assert!(cfg.validate().is_err());
        let mut cfg = HadasConfig::smoke_test();
        cfg.ooe.population = 1;
        assert!(cfg.validate().is_err());
        let mut cfg = HadasConfig::smoke_test();
        cfg.gamma = f64::NAN;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn scale_presets_keep_their_budgets_and_names() {
        let budgets: Vec<_> = Scale::ALL.iter().map(|s| (s.config().ooe, s.config().ioe)).collect();
        assert_eq!(
            budgets,
            [
                (EngineBudget::new(12, 60), EngineBudget::new(16, 96)),
                (EngineBudget::new(16, 128), EngineBudget::new(24, 240)),
                (EngineBudget::new(30, 450), EngineBudget::new(50, 3500)),
            ]
        );
        for s in Scale::ALL {
            assert_eq!(Scale::parse(s.name()), Some(s));
            let cfg = s.config();
            assert!(cfg.validate().is_ok());
            assert_eq!(cfg, HadasConfig { ooe: cfg.ooe, ioe: cfg.ioe, ..HadasConfig::paper() });
        }
        assert_eq!(Scale::parse("huge"), None);
        assert_eq!(Scale::default(), Scale::Quick);
    }

    #[test]
    fn builders_compose() {
        let cfg = HadasConfig::smoke_test().with_seed(99).with_dissimilarity(false, 0.0);
        assert_eq!(cfg.seed, 99);
        assert!(!cfg.use_dissimilarity);
    }
}
