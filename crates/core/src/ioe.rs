use crate::resilience::{FaultModel, NoFaults, RetryPolicy, SearchTelemetry};
use crate::{DynamicFitness, DynamicModel, Hadas, HadasConfig, HadasError};
use hadas_evo::{discrete, Nsga2, Nsga2Config, Problem};
use hadas_exits::{ExitPlacement, MIN_EXIT_POSITION};
use hadas_hw::DvfsSetting;
use hadas_space::Subnet;
use rand::{rngs::StdRng, Rng, RngCore, SeedableRng};
use std::cell::RefCell;

/// One explored point of the inner space: an exit placement, a DVFS
/// setting, and its dynamic fitness.
#[derive(Debug, Clone, PartialEq)]
pub struct IoeSolution {
    /// The exit placement `x`.
    pub placement: ExitPlacement,
    /// The DVFS setting `f`.
    pub dvfs: DvfsSetting,
    /// The dynamic fitness `D(x, f | b)`.
    pub fitness: DynamicFitness,
}

/// Outcome of one inner-engine run for a fixed backbone.
#[derive(Debug, Clone)]
pub struct IoeOutcome {
    /// Every `(x, f)` point evaluated, in evaluation order (the Fig. 5
    /// bottom scatter).
    pub history: Vec<IoeSolution>,
    /// The Pareto-optimal subset returned to the OOE (paper §IV-B.4).
    pub pareto: Vec<IoeSolution>,
}

impl IoeOutcome {
    /// Plot-axis vectors `[energy_gain, mean N_i]` of the whole history.
    pub fn history_axes(&self) -> Vec<Vec<f64>> {
        self.history.iter().map(|s| s.fitness.to_plot_axes()).collect()
    }

    /// Plot-axis vectors of the Pareto subset.
    pub fn pareto_axes(&self) -> Vec<Vec<f64>> {
        self.pareto.iter().map(|s| s.fitness.to_plot_axes()).collect()
    }

    /// The Pareto solution with the largest energy gain.
    pub fn best_energy(&self) -> Option<&IoeSolution> {
        self.pareto.iter().max_by(|a, b| a.fitness.energy_gain.total_cmp(&b.fitness.energy_gain))
    }

    /// The Pareto solution with the highest dynamic accuracy.
    pub fn best_accuracy(&self) -> Option<&IoeSolution> {
        self.pareto.iter().max_by(|a, b| a.fitness.accuracy_pct.total_cmp(&b.fitness.accuracy_pct))
    }
}

/// The inner optimization engine: NSGA-II over the joint `X × F` subspace
/// of one backbone (paper §IV-B).
///
/// Genome layout: one 0/1 indicator gene per candidate exit position
/// (positions `5..=Σl`, the paper's `[I_1 … I_{M−1}]`), then two ordered
/// genes indexing the device's compute and EMC frequency ladders.
#[derive(Debug, Clone)]
pub struct Ioe<'a> {
    hadas: &'a Hadas,
    subnet: Subnet,
    config: HadasConfig,
}

struct IoeProblem<'a> {
    hadas: &'a Hadas,
    subnet: &'a Subnet,
    candidates: Vec<usize>,
    cardinalities: Vec<usize>,
    gamma: f64,
    use_dissimilarity: bool,
    /// Substrate fault model consulted before each candidate measurement.
    faults: &'a dyn FaultModel,
    /// Retry/backoff/timeout schedule for one measurement.
    retry: &'a RetryPolicy,
    /// Salt mixed into fault keys so the inner fault stream is distinct
    /// from the search-time quality-noise stream and from other IOE runs.
    fault_salt: u64,
    /// Seed of the deterministic data-chaos injector; `None` disables
    /// NaN-poisoning of candidate measurements.
    data_chaos: Option<u64>,
    /// Fault-handling counters for this run. `Nsga2::run` drives
    /// `evaluate` from a single thread, so a `RefCell` suffices.
    telemetry: RefCell<SearchTelemetry>,
}

impl IoeProblem<'_> {
    /// Half-range of the deterministic search-time noise on the quality
    /// objective (absolute, on the `N_i`-scale of eq. (5)).
    const QUALITY_NOISE: f64 = 0.05;

    /// Finite worst-case fitness for genomes the repair could not fix;
    /// keeps dominance and crowding arithmetic well-defined.
    const INFEASIBLE_PENALTY: f64 = -1.0e30;

    fn decode(&self, genome: &[usize]) -> Result<DynamicModel, HadasError> {
        let n_ind = self.candidates.len();
        let mut positions: Vec<usize> = genome[..n_ind]
            .iter()
            .enumerate()
            .filter(|(_, &g)| g == 1)
            .map(|(k, _)| self.candidates[k])
            .collect();
        let total = self.subnet.num_mbconv_layers();
        // Repair: the placement must be non-empty and respect the nX bound.
        if positions.is_empty() {
            positions.push(self.candidates[n_ind / 2]);
        }
        let max_count = total.saturating_sub(MIN_EXIT_POSITION).max(1);
        positions.truncate(max_count);
        let placement = ExitPlacement::new(positions, total)?;
        let dvfs = DvfsSetting::new(genome[n_ind], genome[n_ind + 1]);
        Ok(DynamicModel::new(self.subnet.clone(), placement, dvfs))
    }

    /// The fault-stream identity of one candidate: a hash of the genome,
    /// the backbone, and this run's salt. Pure, so a resumed search
    /// replays identical fault histories for identical candidates.
    fn fault_key(&self, genome: &[usize]) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        genome.hash(&mut h);
        self.subnet.genome().genes().hash(&mut h);
        self.fault_salt.hash(&mut h);
        h.finish()
    }

    /// The actual (noisy-quality) measurement of one candidate — the
    /// pure computation the retry wrapper shields from substrate faults.
    fn measure(&self, genome: &Vec<usize>) -> Vec<f64> {
        // The repair in `decode` makes infeasible genomes unreachable in
        // practice; if one slips through anyway it gets a finite worst-case
        // fitness and is selected away, rather than panicking mid-search.
        let Ok(model) = self.decode(genome) else {
            return vec![Self::INFEASIBLE_PENALTY; 3];
        };
        let Ok(eval) = model.evaluate(
            self.hadas.accuracy(),
            self.hadas.device(),
            self.gamma,
            self.use_dissimilarity,
        ) else {
            return vec![Self::INFEASIBLE_PENALTY; 3];
        };
        let mut objectives = eval.fitness.to_maximisation();
        // Search-time accuracy estimates are noisy: in the paper, every
        // N_i comes from training real exit heads and measuring them on a
        // finite validation set, so the quality objective the engine sees
        // is a noisy estimate of the true one (hardware measurements are
        // comparatively exact). The noise is a deterministic function of
        // the candidate, so runs stay reproducible; reported solutions
        // are re-measured exactly. This is precisely the regime where the
        // dissimilarity prior earns its keep (Fig. 7): it stops the
        // engine from overfitting redundant exit stacks to lucky
        // estimates.
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        genome.hash(&mut h);
        model.subnet().genome().genes().hash(&mut h);
        let u = (h.finish() % 10_000) as f64 / 10_000.0;
        objectives[0] += (u * 2.0 - 1.0) * Self::QUALITY_NOISE;
        // Data chaos: a poisoned measurement comes back NaN. The
        // quarantine in `evaluate` must catch it — never the engine.
        if let Some(chaos) = self.data_chaos {
            if crate::ooe::chaos_poisons(chaos, self.fault_key(genome)) {
                objectives[0] = f64::NAN;
            }
        }
        objectives
    }
}

impl Problem for IoeProblem<'_> {
    type Genome = Vec<usize>;

    fn sample(&self, rng: &mut dyn RngCore) -> Vec<usize> {
        let mut genes: Vec<usize> =
            self.candidates.iter().map(|_| usize::from(rng.gen_bool(0.18))).collect();
        genes.push(rng.gen_range(0..self.cardinalities[self.candidates.len()]));
        genes.push(rng.gen_range(0..self.cardinalities[self.candidates.len() + 1]));
        genes
    }

    fn evaluate(&self, genome: &Vec<usize>) -> Vec<f64> {
        // Every measurement runs on a (simulated) physical substrate that
        // can glitch: consult the fault model under the retry schedule.
        // A candidate whose measurement never lands within its budget is
        // degraded to the infeasibility penalty — selected away, never
        // fatal — and counted in the run's telemetry.
        let outcome =
            self.retry.run(self.faults, self.fault_key(genome), || Ok(self.measure(genome)));
        let (value, receipt) = match outcome {
            Ok(pair) => pair,
            // `measure` is infallible (it returns penalties instead of
            // erroring), so this arm is unreachable; degrade anyway.
            Err(_) => return vec![Self::INFEASIBLE_PENALTY; 3],
        };
        self.telemetry.borrow_mut().absorb(&receipt, value.is_none());
        let objectives = value.unwrap_or_else(|| vec![Self::INFEASIBLE_PENALTY; 3]);
        // NaN-fitness quarantine: a non-finite objective vector breaks
        // every ordering axiom dominance sorting relies on, and in
        // release builds nothing would catch it — the poisoned candidate
        // could sit unchallenged in the Pareto front. Degrade it to the
        // finite worst case so it is selected away instead.
        if objectives.iter().any(|v| !v.is_finite()) {
            self.telemetry.borrow_mut().quarantined_evals += 1;
            return vec![Self::INFEASIBLE_PENALTY; 3];
        }
        objectives
    }

    fn crossover(&self, rng: &mut dyn RngCore, a: &Vec<usize>, b: &Vec<usize>) -> Vec<usize> {
        discrete::uniform_crossover(rng, a, b)
    }

    fn mutate(&self, rng: &mut dyn RngCore, genome: &Vec<usize>) -> Vec<usize> {
        let n_ind = self.candidates.len();
        // Indicators: reset-style bit flips; DVFS: ordered step moves with
        // occasional resets to escape local ladders.
        let mut out = discrete::reset_mutation(
            rng,
            &genome[..n_ind],
            &self.cardinalities[..n_ind],
            1.5 / n_ind as f64,
        );
        let dvfs_part = if rng.gen_bool(0.3) {
            discrete::reset_mutation(rng, &genome[n_ind..], &self.cardinalities[n_ind..], 0.5)
        } else {
            discrete::step_mutation(rng, &genome[n_ind..], &self.cardinalities[n_ind..], 0.7)
        };
        out.extend(dvfs_part);
        out
    }
}

impl<'a> Ioe<'a> {
    /// Creates an inner engine for `subnet`.
    pub fn new(hadas: &'a Hadas, subnet: Subnet, config: HadasConfig) -> Self {
        Ioe { hadas, subnet, config }
    }

    fn problem_with<'p>(
        &'p self,
        faults: &'p dyn FaultModel,
        retry: &'p RetryPolicy,
        fault_salt: u64,
        data_chaos: Option<u64>,
    ) -> IoeProblem<'p> {
        let candidates = ExitPlacement::candidates(self.subnet.num_mbconv_layers());
        let mut cardinalities = vec![2usize; candidates.len()];
        cardinalities.push(self.hadas.device().ladder().compute_steps());
        cardinalities.push(self.hadas.device().ladder().emc_steps());
        IoeProblem {
            hadas: self.hadas,
            subnet: &self.subnet,
            candidates,
            cardinalities,
            gamma: self.config.gamma,
            use_dissimilarity: self.config.use_dissimilarity,
            faults,
            retry,
            fault_salt,
            data_chaos,
            telemetry: RefCell::new(SearchTelemetry::default()),
        }
    }

    /// Runs the engine with the configured IOE budget on a healthy
    /// substrate — [`Ioe::run_with`] with [`NoFaults`] and the default
    /// retry schedule, telemetry discarded.
    ///
    /// # Errors
    ///
    /// Returns [`HadasError::InvalidConfig`] for invalid configurations,
    /// or a propagated model/placement error from re-measurement.
    pub fn run(&self, seed: u64) -> Result<IoeOutcome, HadasError> {
        self.run_with(seed, &NoFaults, &RetryPolicy::default()).map(|(outcome, _)| outcome)
    }

    /// Runs the engine under an explicit substrate fault model: every
    /// candidate measurement is retried with exponential backoff under
    /// `retry`'s per-candidate timeout budget, and candidates whose
    /// measurement never lands degrade to an infeasibility penalty
    /// instead of killing the run. Returns the outcome together with the
    /// run's fault-handling telemetry.
    ///
    /// The final reporting pass re-measures solutions *exactly* and
    /// fault-free: faults perturb what the search engine sees, never the
    /// numbers reported to the OOE.
    ///
    /// # Errors
    ///
    /// Returns [`HadasError::InvalidConfig`] for invalid configurations
    /// or retry schedules, or a propagated model/placement error from
    /// re-measurement.
    pub fn run_with(
        &self,
        seed: u64,
        faults: &dyn FaultModel,
        retry: &RetryPolicy,
    ) -> Result<(IoeOutcome, SearchTelemetry), HadasError> {
        self.run_with_chaos(seed, faults, retry, None)
    }

    /// [`Ioe::run_with`] plus the deterministic data-chaos injector: when
    /// `data_chaos` is set, a fixed fraction of candidate measurements
    /// come back NaN-poisoned and must be quarantined to the finite
    /// infeasibility penalty (counted in
    /// [`SearchTelemetry::quarantined_evals`]). The final reporting pass
    /// is always exact and chaos-free.
    ///
    /// # Errors
    ///
    /// Same as [`Ioe::run_with`].
    pub fn run_with_chaos(
        &self,
        seed: u64,
        faults: &dyn FaultModel,
        retry: &RetryPolicy,
        data_chaos: Option<u64>,
    ) -> Result<(IoeOutcome, SearchTelemetry), HadasError> {
        self.config.validate()?;
        retry.validate()?;
        let problem = self.problem_with(faults, retry, seed, data_chaos);
        let nsga = Nsga2::new(Nsga2Config::with_budget(
            self.config.ioe.population,
            self.config.ioe.iterations,
        ));
        let mut rng = StdRng::seed_from_u64(seed);
        let result = nsga.run(&problem, &mut rng);

        let outcome = self.outcome_from(&problem, &result)?;
        let telemetry = problem.telemetry.into_inner();
        Ok((outcome, telemetry))
    }

    /// Spends the same budget on pure random sampling of `X × F` — the
    /// standard NAS baseline ablation against the NSGA-II engine.
    ///
    /// # Errors
    ///
    /// Returns [`HadasError::InvalidConfig`] for invalid configurations,
    /// or a propagated model/placement error from re-measurement.
    pub fn run_random(&self, seed: u64) -> Result<IoeOutcome, HadasError> {
        self.config.validate()?;
        let retry = RetryPolicy::default();
        let problem = self.problem_with(&NoFaults, &retry, seed, None);
        let mut rng = StdRng::seed_from_u64(seed);
        let result = hadas_evo::random_search(&problem, self.config.ioe.iterations, &mut rng);
        self.outcome_from(&problem, &result)
    }

    /// Re-measures a search result exactly and keeps the truly
    /// non-dominated front (the engine selected under noisy quality
    /// estimates; reporting always uses the exact measurement pass).
    fn outcome_from(
        &self,
        problem: &IoeProblem<'_>,
        result: &hadas_evo::SearchResult<Vec<usize>>,
    ) -> Result<IoeOutcome, HadasError> {
        let to_solution = |genome: &Vec<usize>| -> Result<IoeSolution, HadasError> {
            let model = problem.decode(genome)?;
            let eval = model.evaluate(
                self.hadas.accuracy(),
                self.hadas.device(),
                self.config.gamma,
                self.config.use_dissimilarity,
            )?;
            Ok(IoeSolution {
                placement: model.placement().clone(),
                dvfs: *model.dvfs(),
                fitness: eval.fitness,
            })
        };
        // Exact capacity: the OOE keeps every outcome for the whole
        // search, so growth slack here would be held that long too.
        let mut history = Vec::with_capacity(result.history().len());
        for e in result.history() {
            history.push(to_solution(&e.genome)?);
        }
        let candidates: Vec<IoeSolution> = result
            .pareto_front()
            .iter()
            .map(|e| to_solution(&e.genome))
            .collect::<Result<_, _>>()?;
        let exact: Vec<Vec<f64>> = candidates.iter().map(|s| s.fitness.to_maximisation()).collect();
        let fronts = hadas_evo::fast_non_dominated_sort(&exact);
        let pareto: Vec<IoeSolution> = fronts
            .first()
            .map(|f| f.iter().map(|&i| candidates[i].clone()).collect())
            .unwrap_or_default();
        Ok(IoeOutcome { history, pareto })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hadas_hw::HwTarget;
    use hadas_space::baselines;

    fn quick_ioe(seed: u64) -> IoeOutcome {
        let hadas = Hadas::for_target(HwTarget::Tx2PascalGpu);
        let subnet = hadas.space().decode(&baselines::baseline_genome(2)).unwrap();
        let cfg = HadasConfig::smoke_test();
        hadas.run_ioe(&subnet, &cfg, seed).unwrap()
    }

    #[test]
    fn history_length_matches_budget() {
        let out = quick_ioe(1);
        assert_eq!(out.history.len(), HadasConfig::smoke_test().ioe.iterations);
        assert!(!out.pareto.is_empty());
    }

    #[test]
    fn pareto_solutions_have_positive_energy_gain() {
        let out = quick_ioe(2);
        let best = out.best_energy().unwrap();
        assert!(
            best.fitness.energy_gain > 0.15,
            "IOE should find real savings, got {}",
            best.fitness.energy_gain
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let a = quick_ioe(3);
        let b = quick_ioe(3);
        assert_eq!(a.pareto_axes(), b.pareto_axes());
    }

    #[test]
    fn pareto_is_mutually_non_dominated() {
        let out = quick_ioe(4);
        let axes: Vec<Vec<f64>> = out.pareto.iter().map(|s| s.fitness.to_maximisation()).collect();
        for a in &axes {
            for b in &axes {
                assert!(!hadas_evo::dominates(a, b));
            }
        }
    }

    #[test]
    fn placements_respect_paper_rules() {
        let out = quick_ioe(5);
        for s in &out.history {
            assert!(s.placement.positions().iter().all(|&p| p >= MIN_EXIT_POSITION));
        }
    }

    /// Fails the first attempt of every measurement, then succeeds: the
    /// retry layer must absorb every fault, so the front is identical to
    /// a healthy run's and only the telemetry shows the substrate was
    /// misbehaving.
    #[derive(Debug)]
    struct FlakyOnce;
    impl crate::FaultModel for FlakyOnce {
        fn eval_attempt(&self, _key: u64, attempt: u32) -> crate::AttemptOutcome {
            if attempt == 0 {
                crate::AttemptOutcome::TransientFailure { cost_ms: 1.0 }
            } else {
                crate::AttemptOutcome::Ok { cost_ms: 1.0 }
            }
        }
    }

    #[test]
    fn recoverable_faults_leave_the_front_unchanged() {
        let hadas = Hadas::for_target(HwTarget::Tx2PascalGpu);
        let subnet = hadas.space().decode(&baselines::baseline_genome(2)).unwrap();
        let cfg = HadasConfig::smoke_test();
        let clean = Ioe::new(&hadas, subnet.clone(), cfg.clone()).run(7).unwrap();
        let (flaky, telemetry) = Ioe::new(&hadas, subnet, cfg)
            .run_with(7, &FlakyOnce, &crate::RetryPolicy::default())
            .unwrap();
        assert_eq!(clean.pareto_axes(), flaky.pareto_axes());
        assert_eq!(clean.history_axes(), flaky.history_axes());
        assert!(telemetry.retried_evals > 0, "every eval was retried once");
        assert_eq!(telemetry.exhausted_evals, 0, "no eval ran out of budget");
        assert!(telemetry.fault_overhead_ms > 0.0);
    }
}
