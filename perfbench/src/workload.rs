//! The three workloads: their inputs (generated from the benchmark
//! seed), set-up, timed operation, and output checks.

use crate::stats::process_cpu_s;
use crate::trace::Tracer;
use hadas::{Hadas, HadasConfig, HadasError, OoeOutcome, SearchOptions};
use hadas_cli::Scale;
use hadas_evo::dominates;
use hadas_fleet::{
    build_planes, parse_device_spec, DetectionConfig, DevicePlane, FleetConfig, FleetEngine,
    FleetReport,
};
use hadas_hw::HwTarget;
use hadas_runtime::{GrayFaultConfig, GrayFaultKind, Scenario};
use hadas_serve::fingerprint64;
use std::fmt;
use std::time::Instant;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One paper-budget search on `tx2-gpu` with one worker lane.
    SearchPaper,
    /// Quick and mid budgets over all four targets with two lanes.
    SearchSweep,
    /// One drifting, gray-faulted 128-device fleet run.
    FleetDrift,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] =
        [Workload::SearchPaper, Workload::SearchSweep, Workload::FleetDrift];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SearchPaper => "search-paper",
            Workload::SearchSweep => "search-sweep",
            Workload::FleetDrift => "fleet-drift",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Worker lanes (and so threads) the timed operation uses.
    pub fn workers(self) -> usize {
        match self {
            Workload::SearchPaper => 1,
            Workload::SearchSweep | Workload::FleetDrift => 2,
        }
    }
}

/// How big each workload's inputs are. [`Budget::standard`] is what the
/// benchmark measures and what stored fingerprints refer to.
#[derive(Debug, Clone)]
pub struct Budget {
    /// Name recorded with every result.
    pub label: &'static str,
    /// `search-paper`'s configuration (its seed is replaced).
    pub paper: HadasConfig,
    /// Operations every `search-paper` run makes, however short its
    /// time: one paper search alone outlasts a run.
    pub paper_ops: usize,
    /// `search-sweep`'s configurations, run on every target.
    pub sweep: Vec<HadasConfig>,
    /// The search that builds `fleet-drift`'s device planes.
    pub plane: HadasConfig,
    /// Devices in the `mixed:N` fleet.
    pub fleet_devices: usize,
    /// Simulated users; the stream lasts `users / rps` simulated seconds.
    pub fleet_users: usize,
    /// Offered fleet-wide arrival rate.
    pub fleet_rps: f64,
    /// Set-ups timed per search run (the median is reported).
    pub search_setups: usize,
}

impl Budget {
    /// The measured budget: the CLI's paper, quick and mid scales and a
    /// 128-device fleet at 4000 rps.
    pub fn standard() -> Budget {
        Budget {
            label: "standard",
            paper: Scale::Paper.config(),
            paper_ops: 4,
            sweep: vec![Scale::Quick.config(), Scale::Mid.config()],
            plane: Scale::Quick.config(),
            fleet_devices: 128,
            fleet_users: 400_000,
            fleet_rps: 4000.0,
            search_setups: 201,
        }
    }

    /// A budget small enough for unit tests.
    pub fn tiny() -> Budget {
        let smoke = HadasConfig::smoke_test();
        Budget {
            label: "tiny",
            paper: smoke.clone(),
            paper_ops: 2,
            sweep: vec![smoke.clone()],
            plane: smoke,
            fleet_devices: 8,
            fleet_users: 2_000,
            fleet_rps: 400.0,
            search_setups: 3,
        }
    }

    /// Operations a run makes at least, whatever its time.
    pub fn min_ops(&self, w: Workload) -> usize {
        match w {
            Workload::SearchPaper => self.paper_ops,
            Workload::SearchSweep | Workload::FleetDrift => 1,
        }
    }
}

/// The seed of operation `op` in a run with benchmark seed `seed`: each
/// operation gets inputs of its own, so a run's median spans many
/// inputs. Operation `op` of seed `s` searches with `--seed 1000*s+op`.
pub fn op_seed(seed: u64, op: usize) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(op as u64)
}

/// A benchmark-level error: the program failed, or an input was bad.
#[derive(Debug)]
pub struct BenchError(pub String);

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for BenchError {}

impl From<HadasError> for BenchError {
    fn from(e: HadasError) -> Self {
        BenchError(e.to_string())
    }
}

/// One search of a search workload.
#[derive(Debug, Clone)]
pub struct SearchJob {
    /// Hardware target.
    pub target: HwTarget,
    /// Engine configuration, seeded from the benchmark seed.
    pub config: HadasConfig,
}

/// The searches an operation of `w` with seed `seed` (see [`op_seed`])
/// runs, in order.
pub fn search_jobs(w: Workload, budget: &Budget, seed: u64) -> Vec<SearchJob> {
    match w {
        Workload::SearchPaper => vec![SearchJob {
            target: HwTarget::Tx2PascalGpu,
            config: budget.paper.clone().with_seed(seed),
        }],
        Workload::SearchSweep => HwTarget::ALL
            .into_iter()
            .flat_map(|target| {
                budget
                    .sweep
                    .iter()
                    .map(move |c| SearchJob { target, config: c.clone().with_seed(seed) })
            })
            .collect(),
        Workload::FleetDrift => Vec::new(),
    }
}

/// Search set-up: one `Hadas` per job.
pub fn setup_search(jobs: &[SearchJob]) -> Vec<Hadas> {
    jobs.iter().map(|j| Hadas::for_target(j.target)).collect()
}

/// One timed search operation and what it produced.
#[derive(Debug)]
pub struct SearchOp {
    /// One outcome per job.
    pub outcomes: Vec<OoeOutcome>,
    /// Host seconds of the whole operation: the sum over its searches.
    pub wall_s: f64,
    /// Process CPU seconds of the searches, every thread included.
    pub cpu_s: f64,
    /// Fingerprint of the Pareto models (see [`front_fingerprint`]).
    pub fingerprint: u64,
}

impl SearchOp {
    /// Static OOE evaluations plus IOE evaluations.
    pub fn evals(&self) -> usize {
        self.outcomes.iter().map(|o| static_evals(o) + dynamic_evals(o)).sum()
    }
}

/// Static OOE evaluations of one outcome.
pub fn static_evals(o: &OoeOutcome) -> usize {
    o.backbones().len()
}

/// IOE candidate evaluations of one outcome.
pub fn dynamic_evals(o: &OoeOutcome) -> usize {
    o.backbones().iter().filter_map(|b| b.ioe.as_ref()).map(|i| i.history.len()).sum()
}

/// Runs every job on its `Hadas`, timing each; with a tracer, each
/// search runs inside a `core.search` span.
pub fn run_search(
    hadas: &[Hadas],
    jobs: &[SearchJob],
    workers: usize,
    tracer: Option<&Tracer>,
) -> Result<SearchOp, BenchError> {
    let opts = SearchOptions { workers, ..SearchOptions::default() };
    let mut outcomes = Vec::with_capacity(jobs.len());
    let mut wall_s = 0.0;
    let cpu_started = process_cpu_s();
    for (h, job) in hadas.iter().zip(jobs) {
        let started = Instant::now();
        let outcome = match tracer {
            Some(t) => t.span("core.search", || h.run_with(&job.config, &opts)),
            None => h.run_with(&job.config, &opts),
        };
        wall_s += started.elapsed().as_secs_f64();
        outcomes.push(outcome?);
    }
    let cpu_s = process_cpu_s() - cpu_started;
    let fingerprint = front_fingerprint(&outcomes)?;
    Ok(SearchOp { outcomes, wall_s, cpu_s, fingerprint })
}

/// The fields `hadas search --json` writes for one outcome, in its
/// order and layout.
pub fn front_json(outcome: &OoeOutcome) -> Result<String, BenchError> {
    let mut models = outcome.pareto_models();
    models.sort_by(|a, b| b.dynamic.accuracy_pct.total_cmp(&a.dynamic.accuracy_pct));
    let payload: Vec<serde_json::Value> = models
        .iter()
        .map(|m| {
            serde_json::json!({
                "genome": m.subnet.genome().genes(),
                "exits": m.placement.positions(),
                "dvfs": {"compute": m.dvfs.compute, "emc": m.dvfs.emc},
                "accuracy_pct": m.dynamic.accuracy_pct,
                "energy_mj": m.dynamic.energy_mj,
                "latency_ms": m.dynamic.latency_ms,
            })
        })
        .collect();
    serde_json::to_string_pretty(&payload).map_err(|e| BenchError(e.to_string()))
}

/// `fingerprint64` of the `--json` front of each search, joined by
/// newlines (a single search's fingerprint equals that of its file).
pub fn front_fingerprint(outcomes: &[OoeOutcome]) -> Result<u64, BenchError> {
    let fronts: Vec<String> = outcomes.iter().map(front_json).collect::<Result<_, _>>()?;
    Ok(fingerprint64(fronts.join("\n").as_bytes()))
}

/// Output checks on a search operation other than its fingerprint.
pub fn check_search(op: &SearchOp) -> Vec<String> {
    let mut failures = Vec::new();
    for (k, o) in op.outcomes.iter().enumerate() {
        if o.interrupted() {
            failures.push(format!("search {k} stopped early"));
        }
        let axes: Vec<Vec<f64>> = o
            .pareto_models()
            .iter()
            .map(|m| vec![m.dynamic.accuracy_pct, -m.dynamic.energy_mj])
            .collect();
        if axes.is_empty() {
            failures.push(format!("search {k} returned an empty front"));
        }
        if axes.iter().flatten().any(|v| !v.is_finite()) {
            failures.push(format!("search {k} front holds a non-finite objective"));
        }
        if axes.iter().any(|a| axes.iter().any(|b| dominates(b, a))) {
            failures.push(format!("search {k} front holds a dominated model"));
        }
        if static_evals(o) == 0 || dynamic_evals(o) == 0 {
            failures.push(format!("search {k} evaluated no candidates"));
        }
    }
    failures
}

/// `fleet-drift`'s device list: `mixed:N`, as the CLI spells it.
pub fn fleet_devices(budget: &Budget) -> Result<Vec<HwTarget>, BenchError> {
    Ok(parse_device_spec(&format!("mixed:{}", budget.fleet_devices))?)
}

/// `fleet-drift`'s engine configuration: composite drift, live
/// reconfiguration, mixed gray faults with detection, two workers.
pub fn fleet_config(budget: &Budget, seed: u64) -> Result<FleetConfig, BenchError> {
    let duration_s = budget.fleet_users as f64 / budget.fleet_rps;
    Ok(FleetConfig {
        devices: fleet_devices(budget)?,
        users: budget.fleet_users,
        rps: budget.fleet_rps,
        workers: Workload::FleetDrift.workers(),
        seed,
        scenario: Some(Scenario::from_name("composite", seed, duration_s)?),
        reconfigure: true,
        gray: Some(GrayFaultConfig::new(GrayFaultKind::Mix, seed)),
        detection: DetectionConfig::enabled(),
        ..FleetConfig::default()
    })
}

/// The same fleet and load with every drift feature off.
pub fn plain_fleet_config(config: &FleetConfig) -> FleetConfig {
    FleetConfig {
        scenario: None,
        reconfigure: false,
        gray: None,
        detection: DetectionConfig::default(),
        ..config.clone()
    }
}

/// Fleet set-up: one searched plane per distinct target, seeded with
/// `seed`.
pub fn setup_fleet(budget: &Budget, seed: u64) -> Result<Vec<DevicePlane>, BenchError> {
    Ok(build_planes(&fleet_devices(budget)?, &budget.plane.clone().with_seed(seed))?)
}

/// One timed fleet operation and what it produced.
#[derive(Debug)]
pub struct FleetOp {
    /// The deterministic report.
    pub report: FleetReport,
    /// Host seconds of `FleetEngine::run`.
    pub wall_s: f64,
    /// Process CPU seconds of `FleetEngine::run`, every thread included.
    pub cpu_s: f64,
    /// `fingerprint64` of `FleetReport::to_json`.
    pub fingerprint: u64,
}

/// Runs the fleet once, timing `FleetEngine::run` only.
pub fn run_fleet(planes: &[DevicePlane], config: &FleetConfig) -> Result<FleetOp, BenchError> {
    let engine = FleetEngine::new(planes, config.clone())?;
    let (started, cpu_started) = (Instant::now(), process_cpu_s());
    let run = engine.run()?;
    let (wall_s, cpu_s) = (started.elapsed().as_secs_f64(), process_cpu_s() - cpu_started);
    let json = run.report.to_json().map_err(|e| BenchError(e.to_string()))?;
    Ok(FleetOp { fingerprint: fingerprint64(json.as_bytes()), report: run.report, wall_s, cpu_s })
}

/// Output checks on a fleet report other than its fingerprint.
pub fn check_fleet(report: &FleetReport) -> Vec<String> {
    let mut failures = Vec::new();
    if !report.accounting_balances() {
        failures.push("fleet accounting identity broken".to_string());
    }
    if report.reconfig.dropped_by_swap != 0 {
        failures.push(format!("{} requests dropped by swaps", report.reconfig.dropped_by_swap));
    }
    if report.detection.redispatch_dropped != 0 {
        failures.push(format!(
            "{} re-dispatched requests dropped",
            report.detection.redispatch_dropped
        ));
    }
    if report.offered == 0 || report.served == 0 {
        failures.push("fleet served nothing".to_string());
    }
    failures
}

/// Stored fingerprints: `(workload, seed, op) → fingerprint` at the
/// standard budget, read from `expected.json`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Expected {
    entries: Vec<(String, u64, usize, u64)>,
}

impl Expected {
    /// Parses `{"<workload>": {"<seed>/<op>": "<16 hex digits>", ...}, ...}`.
    ///
    /// # Errors
    ///
    /// Returns an error for anything else.
    pub fn parse(text: &str) -> Result<Expected, BenchError> {
        let bad = |what: &str| BenchError(format!("expected.json: {what}"));
        let value: serde_json::Value =
            serde_json::from_str(text).map_err(|e| bad(&e.to_string()))?;
        let mut entries = Vec::new();
        for (workload, ops) in value.as_object().ok_or_else(|| bad("not an object"))? {
            for (key, fp) in ops.as_object().ok_or_else(|| bad("workload entry not an object"))? {
                let (seed, op) = key.split_once('/').ok_or_else(|| bad("key not <seed>/<op>"))?;
                let seed: u64 = seed.parse().map_err(|_| bad("seed not an integer"))?;
                let op: usize = op.parse().map_err(|_| bad("op not an integer"))?;
                let fp = fp.as_str().ok_or_else(|| bad("fingerprint not a string"))?;
                let fp = u64::from_str_radix(fp, 16).map_err(|_| bad("fingerprint not hex"))?;
                entries.push((workload.clone(), seed, op, fp));
            }
        }
        Ok(Expected { entries })
    }

    /// The stored fingerprint of operation `op` of `(w, seed)`.
    pub fn get(&self, w: Workload, seed: u64, op: usize) -> Option<u64> {
        self.entries.iter().find(|e| e.0 == w.name() && e.1 == seed && e.2 == op).map(|e| e.3)
    }

    /// Stores (or replaces) the fingerprint of operation `op` of `(w, seed)`.
    pub fn set(&mut self, w: Workload, seed: u64, op: usize, fingerprint: u64) {
        self.entries.retain(|e| !(e.0 == w.name() && e.1 == seed && e.2 == op));
        self.entries.push((w.name().to_string(), seed, op, fingerprint));
    }

    /// The canonical file text: workloads in report order, then seeds
    /// and operations ascending.
    pub fn to_json(&self) -> String {
        let groups: Vec<String> = Workload::ALL
            .iter()
            .map(|w| {
                let mut ops: Vec<(u64, usize, u64)> = self
                    .entries
                    .iter()
                    .filter(|e| e.0 == w.name())
                    .map(|e| (e.1, e.2, e.3))
                    .collect();
                ops.sort_unstable();
                let body: Vec<String> =
                    ops.iter().map(|(s, o, f)| format!("    \"{s}/{o}\": \"{f:016x}\"")).collect();
                format!("  \"{}\": {{\n{}\n  }}", w.name(), body.join(",\n"))
            })
            .collect();
        format!("{{\n{}\n}}\n", groups.join(",\n"))
    }
}

/// Compares an operation's fingerprint with the stored value, if the
/// operation has one. Returns the failure, if any.
pub fn check_fingerprint(stored: Option<u64>, got: u64) -> Option<String> {
    match stored {
        Some(want) if want != got => {
            Some(format!("fingerprint {got:016x} differs from the stored {want:016x}"))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_tampered_fingerprint_is_a_failure() {
        let budget = Budget::tiny();
        let jobs = search_jobs(Workload::SearchPaper, &budget, 3);
        let op = run_search(&setup_search(&jobs), &jobs, 1, None).unwrap();
        assert!(check_search(&op).is_empty());
        let mut expected = Expected::default();
        expected.set(Workload::SearchPaper, 3, 0, op.fingerprint);
        let stored = expected.get(Workload::SearchPaper, 3, 0);
        assert_eq!(check_fingerprint(stored, op.fingerprint), None);
        expected.set(Workload::SearchPaper, 3, 0, op.fingerprint ^ 1);
        let tampered = expected.get(Workload::SearchPaper, 3, 0);
        assert!(check_fingerprint(tampered, op.fingerprint).is_some());
        assert_eq!(check_fingerprint(None, op.fingerprint), None);
    }

    #[test]
    fn expected_store_round_trips() {
        let mut e = Expected::default();
        e.set(Workload::FleetDrift, 2, 0, 0xdead_beef);
        e.set(Workload::SearchPaper, 11, 3, u64::MAX);
        e.set(Workload::SearchPaper, 1, 0, 5);
        let parsed = Expected::parse(&e.to_json()).unwrap();
        assert_eq!(parsed.to_json(), e.to_json());
        assert_eq!(parsed.get(Workload::SearchPaper, 11, 3), Some(u64::MAX));
        assert_eq!(parsed.get(Workload::SearchPaper, 11, 2), None);
        assert!(Expected::parse("{\"search-paper\": {\"1\": \"00\"}}").is_err());
    }

    #[test]
    fn single_search_fingerprint_matches_its_json_file() {
        let budget = Budget::tiny();
        let jobs = search_jobs(Workload::SearchPaper, &budget, 5);
        let op = run_search(&setup_search(&jobs), &jobs, 1, None).unwrap();
        let json = front_json(&op.outcomes[0]).unwrap();
        assert_eq!(op.fingerprint, fingerprint64(json.as_bytes()));
    }

    #[test]
    fn tiny_fleet_passes_its_checks() {
        let budget = Budget::tiny();
        let planes = setup_fleet(&budget, 1).unwrap();
        let op = run_fleet(&planes, &fleet_config(&budget, 1).unwrap()).unwrap();
        assert_eq!(check_fleet(&op.report), Vec::<String>::new());
        let mut broken = op.report.clone();
        broken.served += 1;
        assert!(!check_fleet(&broken).is_empty());
    }
}
