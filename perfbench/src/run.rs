//! The untraced measurement run and the traced per-layer run.

use crate::cost::{HwCall, HwStats, TimingCostModel};
use crate::heap;
use crate::metrics::{Metrics, END_TO_END, PER_LAYER};
use crate::stats::{median, peak_rss_mb, process_cpu_s};
use crate::trace::Tracer;
use crate::workload::{
    check_fingerprint, check_fleet, check_search, fleet_config, op_seed, plain_fleet_config,
    run_fleet, run_search, search_jobs, setup_fleet, setup_search, static_evals, BenchError,
    Budget, Expected, SearchJob, SearchOp, Workload,
};
use hadas::{DynamicModel, Hadas, OoeOutcome};
use hadas_accuracy::AccuracyModel;
use hadas_evo::{crowding_distance, fast_non_dominated_sort, Evaluated, SearchResult};
use hadas_fleet::{DevicePlane, FleetConfig, FleetEngine};
use hadas_hw::DeviceModel;
use hadas_serve::{generate_requests, BrownoutConfig, ServeConfig, ServeEngine};
use hadas_space::SearchSpace;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Counts and failures of the operations a run attempted.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: usize,
    /// Operations that errored or failed an output check.
    pub failed: usize,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one operation with its failures (none = passed).
    pub fn record(&mut self, failures: Vec<String>) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            self.failures.extend(failures);
        }
    }

    /// `failed / attempted`.
    pub fn failed_ops_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// What one run produced.
#[derive(Debug)]
pub struct RunOutcome {
    /// The reported metrics (end-to-end or per-layer).
    pub metrics: Metrics,
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Timed operations behind the timing metrics.
    pub samples: usize,
    /// Per-operation host (wall-clock) seconds, for the record.
    pub op_wall_s: Vec<f64>,
    /// Per-operation process CPU seconds, for the record.
    pub op_cpu_s: Vec<f64>,
    /// Peak resident set of the whole process, set-up included, in MB.
    pub peak_rss_mb: f64,
    /// Median modelled (virtual-time) makespan of the search operations;
    /// never a speed.
    pub modeled_makespan_ms: f64,
    /// Fingerprints of the untraced operations, in order.
    pub fingerprints: Vec<u64>,
    /// Spans of a traced run (empty otherwise).
    pub tracer: Tracer,
}

/// Times `reps` set-ups in process CPU seconds, each dropping the
/// previous product so the heap does not grow across them, and returns
/// the per-set-up times and the last product.
fn timed_setups<T>(reps: usize, mut setup: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = setup();
    for _ in 0..reps {
        drop(last);
        let started = process_cpu_s();
        last = black_box(setup());
        times.push(process_cpu_s() - started);
    }
    (times, last)
}

/// Runs operations `0, 1, …` until at least `min_ops` ran and the next
/// one would end past `seconds` of wall-clock time.
fn timed_loop(seconds: f64, min_ops: usize, mut op: impl FnMut(usize)) {
    let started = Instant::now();
    let mut ops = 0usize;
    loop {
        op(ops);
        ops += 1;
        let elapsed = started.elapsed().as_secs_f64();
        if ops >= min_ops && elapsed + elapsed / ops as f64 > seconds {
            return;
        }
    }
}

/// What one untraced operation produced, whichever the workload.
struct OpResult {
    fingerprint: u64,
    wall_s: f64,
    cpu_s: f64,
    /// Evaluations (searches) or offered requests (fleet).
    work: f64,
    failures: Vec<String>,
}

/// The untraced run: timed operations for `seconds` (at least `min_ops`
/// of them), operation `i` on the inputs of [`op_seed`]`(seed, i)`,
/// every output checked. Set-up is timed apart: several times up front
/// for the searches, once per operation for the fleet's device planes.
///
/// # Errors
///
/// Returns an error when set-up fails; operation failures are counted.
pub fn measure(
    w: Workload,
    budget: &Budget,
    seed: u64,
    seconds: f64,
    min_ops: usize,
    expected: &Expected,
) -> Result<RunOutcome, BenchError> {
    let mut tally = Tally::default();
    let (mut fingerprints, mut walls, mut cpus, mut rates, mut heaps, mut modeled) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut record = |i: usize, result: Result<OpResult, BenchError>| match result {
        Ok(mut op) => {
            heaps.push(heap::peak_bytes() as f64 / op.work);
            op.failures.extend(check_fingerprint(expected.get(w, seed, i), op.fingerprint));
            fingerprints.push(op.fingerprint);
            walls.push(op.wall_s);
            cpus.push(op.cpu_s);
            rates.push(op.work / op.cpu_s);
            tally.record(op.failures);
        }
        Err(e) => tally.record(vec![e.to_string()]),
    };
    let setup_times = match w {
        Workload::SearchPaper | Workload::SearchSweep => {
            // Targets, and so set-up, do not depend on the seed.
            let targets = search_jobs(w, budget, seed);
            let (times, hadas) = timed_setups(budget.search_setups, || setup_search(&targets));
            timed_loop(seconds, min_ops, |i| {
                let jobs = search_jobs(w, budget, op_seed(seed, i));
                heap::reset_peak();
                let run = run_search(&hadas, &jobs, w.workers(), None).map(|op| {
                    modeled.push(modeled_ms(&op.outcomes));
                    OpResult {
                        fingerprint: op.fingerprint,
                        wall_s: op.wall_s,
                        cpu_s: op.cpu_s,
                        work: op.evals() as f64,
                        failures: check_search(&op),
                    }
                });
                record(i, run);
            });
            times
        }
        Workload::FleetDrift => {
            // Each operation searches its own device planes first; that
            // set-up is timed on its own, outside the operation's time.
            let mut times = Vec::new();
            timed_loop(seconds, min_ops, |i| {
                let started = process_cpu_s();
                let planes = setup_fleet(budget, op_seed(seed, i));
                times.push(process_cpu_s() - started);
                let run = planes.and_then(|planes| {
                    let config = fleet_config(budget, op_seed(seed, i))?;
                    heap::reset_peak();
                    run_fleet(&planes, &config)
                });
                record(
                    i,
                    run.map(|op| OpResult {
                        fingerprint: op.fingerprint,
                        wall_s: op.wall_s,
                        cpu_s: op.cpu_s,
                        work: op.report.offered as f64,
                        failures: check_fleet(&op.report),
                    }),
                );
            });
            times
        }
    };
    let mut metrics = Metrics::zeroed(&END_TO_END);
    metrics.set("setup_s", median(&setup_times));
    metrics.set("cpu_s", median(&cpus));
    metrics.set("work_per_cpu_s", median(&rates));
    metrics.set("heap_per_work_b", median(&heaps));
    Ok(RunOutcome {
        metrics,
        tally,
        samples: walls.len(),
        op_wall_s: walls,
        op_cpu_s: cpus,
        peak_rss_mb: peak_rss_mb().unwrap_or(0.0),
        modeled_makespan_ms: median(&modeled),
        fingerprints,
        tracer: Tracer::new(0),
    })
}

/// Summed modelled makespan of a search operation's outcomes.
fn modeled_ms(outcomes: &[OoeOutcome]) -> f64 {
    outcomes.iter().map(OoeOutcome::modeled_makespan_ms).sum()
}

/// Host nanoseconds per call of `f` over `items`, cycling through them
/// until at least `min_calls` calls ran; 0 for no items.
fn ns_per_call<T>(items: &[T], min_calls: usize, mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let mut calls = 0usize;
    let started = Instant::now();
    while calls < min_calls.max(items.len()) {
        for item in items {
            f(item);
        }
        calls += items.len();
    }
    started.elapsed().as_secs_f64() * 1e9 / calls as f64
}

/// The traced run: an untraced reference of the untraced run's first
/// operation, the same operation traced, and replays of each layer over
/// what it produced.
///
/// # Errors
///
/// Returns an error when set-up fails; operation failures are counted.
pub fn trace_run(
    w: Workload,
    budget: &Budget,
    seed: u64,
    expected: &Expected,
    run_id: u64,
) -> Result<RunOutcome, BenchError> {
    let tracer = Tracer::new(run_id);
    let mut m = Metrics::zeroed(&PER_LAYER);
    let mut tally = Tally::default();
    // Operation 0 of the untraced run, so stored fingerprints apply.
    let stored = expected.get(w, seed, 0);
    let seed = op_seed(seed, 0);
    let reference = match w {
        Workload::SearchPaper | Workload::SearchSweep => {
            trace_search(w, budget, seed, stored, &tracer, &mut m, &mut tally)?
        }
        Workload::FleetDrift => trace_fleet(budget, seed, stored, &tracer, &mut m, &mut tally)?,
    };
    Ok(RunOutcome {
        metrics: m,
        tally,
        samples: 1,
        op_wall_s: vec![reference.wall_s],
        op_cpu_s: vec![reference.cpu_s],
        peak_rss_mb: peak_rss_mb().unwrap_or(0.0),
        modeled_makespan_ms: reference.modeled_ms,
        fingerprints: vec![reference.fingerprint],
        tracer,
    })
}

/// The untraced reference operation of a traced run.
struct Reference {
    wall_s: f64,
    cpu_s: f64,
    modeled_ms: f64,
    fingerprint: u64,
}

/// Checks a search operation against the stored fingerprint and a
/// reference fingerprint (the untraced run), counting it in `tally`.
fn record_search(
    tally: &mut Tally,
    op: &SearchOp,
    stored: Option<u64>,
    reference: Option<u64>,
    what: &str,
) {
    let mut failures = check_search(op);
    failures.extend(check_fingerprint(stored, op.fingerprint));
    if let Some(r) = reference {
        if r != op.fingerprint {
            failures.push(format!(
                "{what} front {:016x} differs from the untraced {r:016x}",
                op.fingerprint
            ));
        }
    }
    tally.record(failures);
}

fn trace_search(
    w: Workload,
    budget: &Budget,
    seed: u64,
    stored: Option<u64>,
    tracer: &Tracer,
    m: &mut Metrics,
    tally: &mut Tally,
) -> Result<Reference, BenchError> {
    let jobs = search_jobs(w, budget, seed);
    let workers = w.workers();
    let plain = setup_search(&jobs);
    let reference = run_search(&plain, &jobs, workers, None)?;
    record_search(tally, &reference, stored, None, "untraced");

    let stats = Arc::new(HwStats::default());
    let traced_hadas: Vec<Hadas> = jobs
        .iter()
        .map(|j| {
            let device =
                TimingCostModel::new(DeviceModel::for_target(j.target), Arc::clone(&stats));
            Hadas::with_cost_model(
                SearchSpace::attentive_nas(),
                AccuracyModel::cifar100(),
                Arc::new(device),
            )
        })
        .collect();
    let traced = run_search(&traced_hadas, &jobs, workers, Some(tracer))?;
    record_search(tally, &traced, stored, Some(reference.fingerprint), "traced");

    // Real and modelled executor speed-up against one lane; a one-lane
    // workload is its own baseline.
    let modeled = modeled_ms(&reference.outcomes);
    let (one_lane_wall_s, one_lane_modeled) = if workers > 1 {
        let op = run_search(&plain, &jobs, 1, None)?;
        record_search(tally, &op, stored, Some(reference.fingerprint), "one-lane");
        (op.wall_s, modeled_ms(&op.outcomes))
    } else {
        (reference.wall_s, modeled)
    };
    m.set("core.executor.real_speedup", one_lane_wall_s / reference.wall_s);
    m.set("core.executor.modeled_speedup", one_lane_modeled / modeled);
    m.set("core.executor.modeled_makespan_ms", modeled);
    let exec = traced.outcomes.iter().map(OoeOutcome::exec_telemetry);
    let (retries, redispatches) =
        exec.fold((0, 0), |(r, d), t| (r + t.retries, d + t.redispatches));
    m.set("core.executor.retries", retries as f64);
    m.set("core.executor.redispatches", redispatches as f64);

    // Exact counts from the outcomes and the pricing seam.
    let search_s = tracer.busy_s("core.search");
    let statics: usize = traced.outcomes.iter().map(static_evals).sum();
    let evals = traced.evals();
    let dynamics = evals - statics;
    let ioe_runs =
        traced.outcomes.iter().flat_map(|o| o.backbones()).filter(|b| b.ioe.is_some()).count();
    m.set("core.search.busy_s", search_s);
    m.set("core.evals.static", statics as f64);
    m.set("core.evals.dynamic", dynamics as f64);
    m.set("core.ioe.runs", ioe_runs as f64);
    for call in HwCall::ALL {
        m.set(&format!("hw.{}.calls", call.name()), stats.calls(call) as f64);
        m.set(&format!("hw.{}.busy_s", call.name()), stats.busy_s(call));
    }
    let hw_calls = stats.total_calls();
    m.set("hw.calls_per_eval", hw_calls as f64 / evals.max(1) as f64);
    m.set("hw.unique_query_ratio", stats.unique_queries() as f64 / hw_calls.max(1) as f64);
    // Every static evaluation prices one subnet; every dynamic-model
    // evaluation prices two (its reference and its full path).
    let dyn_calls = (stats.calls(HwCall::Subnet) as f64 - statics as f64) / 2.0;
    m.set("core.dynmodel.calls", dyn_calls);

    // Replays over what the traced search produced.
    let replay = replay_search(&jobs, &traced.outcomes, tracer, m, tally);
    let dyn_self_ns = replay.dyn_self_s * 1e9 / replay.dyn_entries.max(1) as f64;
    let dynmodel_s = dyn_calls * dyn_self_ns * 1e-9;
    let hw_s = stats.total_busy_s();
    let pareto_s = m.get("evo.pareto_front.busy_s").unwrap_or(0.0);
    let sort_s = m.get("evo.generation_sort.busy_s").unwrap_or(0.0);
    let unattributed = search_s - pareto_s - dynmodel_s - hw_s - sort_s;
    m.set("core.unattributed_s", unattributed);
    let share = |x: f64| if search_s > 0.0 { 100.0 * x / search_s } else { 0.0 };
    m.set("core.share.evo_pareto_front", share(pareto_s));
    m.set("core.share.dynmodel", share(dynmodel_s));
    m.set("core.share.hw", share(hw_s));
    m.set("core.share.evo_generation_sort", share(sort_s));
    m.set("core.share.unattributed", share(unattributed));
    m.set("trace.overhead_ratio", traced.wall_s / reference.wall_s);
    m.set("trace.untraced_wall_s", reference.wall_s);
    Ok(Reference {
        wall_s: reference.wall_s,
        cpu_s: reference.cpu_s,
        modeled_ms: modeled,
        fingerprint: reference.fingerprint,
    })
}

/// What the dynamic-model replay measured.
struct ReplayTotals {
    dyn_entries: usize,
    dyn_self_s: f64,
}

fn replay_search(
    jobs: &[SearchJob],
    outcomes: &[OoeOutcome],
    tracer: &Tracer,
    m: &mut Metrics,
    tally: &mut Tally,
) -> ReplayTotals {
    let accuracy = AccuracyModel::cifar100();
    let space = SearchSpace::attentive_nas();
    let mut points = 0usize;
    let mut dyn_entries = 0usize;
    let mut dyn_hw_s = 0.0;
    let mut mismatches = 0usize;
    let mut histories = Vec::new();
    for (job, outcome) in jobs.iter().zip(outcomes) {
        let population = job.config.ioe.population;
        let stats = Arc::new(HwStats::default());
        let device = TimingCostModel::new(DeviceModel::for_target(job.target), Arc::clone(&stats));
        for b in outcome.backbones() {
            let Some(ioe) = &b.ioe else { continue };
            let history: Vec<Evaluated<usize>> = ioe
                .history
                .iter()
                .enumerate()
                .map(|(i, s)| Evaluated {
                    genome: i,
                    objectives: s.fitness.to_maximisation(),
                    generation: i / population,
                })
                .collect();
            let result = SearchResult::from_history(history);
            points += tracer.span("evo.pareto_front", || result.pareto_front().len());
            tracer.span("evo.generation_sort", || {
                for window in result.history().windows(2 * population).step_by(population) {
                    let pts: Vec<Vec<f64>> = window.iter().map(|e| e.objectives.clone()).collect();
                    for front in fast_non_dominated_sort(&pts) {
                        black_box(crowding_distance(&pts, &front));
                    }
                }
            });
            let models: Vec<DynamicModel> = ioe
                .history
                .iter()
                .map(|s| DynamicModel::new(b.subnet.clone(), s.placement.clone(), s.dvfs))
                .collect();
            let hw_before = stats.total_busy_s();
            let evals = tracer.span("core.dynmodel", || {
                models
                    .iter()
                    .map(|d| {
                        d.evaluate(
                            &accuracy,
                            &device,
                            job.config.gamma,
                            job.config.use_dissimilarity,
                        )
                    })
                    .collect::<Vec<_>>()
            });
            dyn_hw_s += stats.total_busy_s() - hw_before;
            dyn_entries += models.len();
            for (e, s) in evals.iter().zip(&ioe.history) {
                if !matches!(e, Ok(ev) if ev.fitness == s.fitness) {
                    mismatches += 1;
                }
            }
            histories.push((b.subnet.clone(), ioe.history.clone()));
        }
    }
    if mismatches > 0 {
        tally.record(vec![format!(
            "{mismatches} replayed dynamic evaluations differ from the search's"
        )]);
    }
    let dyn_replay_s = tracer.busy_s("core.dynmodel");
    m.set("evo.pareto_front.busy_s", tracer.busy_s("evo.pareto_front"));
    m.set("evo.pareto_front.points", points as f64);
    m.set("evo.generation_sort.busy_s", tracer.busy_s("evo.generation_sort"));
    m.set("core.dynmodel.replay_s", dyn_replay_s);
    m.set("core.dynmodel.evaluate.ns_per_call", dyn_replay_s * 1e9 / dyn_entries.max(1) as f64);

    let placements: Vec<(&hadas_space::Subnet, &[usize])> = histories
        .iter()
        .flat_map(|(subnet, h)| h.iter().map(move |s| (subnet, s.placement.positions())))
        .collect();
    let subnets: Vec<&hadas_space::Subnet> =
        outcomes.iter().flat_map(|o| o.backbones()).map(|b| &b.subnet).collect();
    let genomes: Vec<&hadas_space::Genome> = subnets.iter().map(|s| s.genome()).collect();
    let joint = tracer.span("accuracy.replay", || {
        [
            ns_per_call(&placements, 20_000, |(s, p)| {
                black_box(accuracy.joint_exit_fractions(s, p));
            }),
            ns_per_call(&placements, 20_000, |(s, p)| {
                black_box(accuracy.dynamic_accuracy(s, p));
            }),
            ns_per_call(&subnets, 2_000, |s| {
                black_box(accuracy.exit_fraction_curve(s));
            }),
            ns_per_call(&subnets, 200_000, |s| {
                black_box(accuracy.backbone_accuracy(s));
            }),
        ]
    });
    m.set("accuracy.joint_exit_fractions.ns_per_call", joint[0]);
    m.set("accuracy.dynamic_accuracy.ns_per_call", joint[1]);
    m.set("accuracy.exit_fraction_curve.ns_per_call", joint[2]);
    m.set("accuracy.backbone_accuracy.ns_per_call", joint[3]);
    let decode = tracer.span("space.decode", || {
        ns_per_call(&genomes, 20_000, |g| {
            black_box(space.decode(g).ok());
        })
    });
    m.set("space.decode.ns_per_call", decode);
    ReplayTotals { dyn_entries, dyn_self_s: dyn_replay_s - dyn_hw_s }
}

fn trace_fleet(
    budget: &Budget,
    seed: u64,
    stored: Option<u64>,
    tracer: &Tracer,
    m: &mut Metrics,
    tally: &mut Tally,
) -> Result<Reference, BenchError> {
    let config = fleet_config(budget, seed)?;
    let planes = setup_fleet(budget, seed)?;
    let reference = run_fleet(&planes, &config)?;
    let mut failures = check_fleet(&reference.report);
    failures.extend(check_fingerprint(stored, reference.fingerprint));
    tally.record(failures);

    let traced = tracer.span("fleet.engine", || run_fleet(&planes, &config))?;
    let mut failures = check_fleet(&traced.report);
    failures.extend(check_fingerprint(Some(reference.fingerprint), traced.fingerprint));
    tally.record(failures);
    let r = &traced.report;
    m.set("fleet.engine.busy_s", tracer.busy_s("fleet.engine"));
    for (name, v) in [
        ("fleet.offered", r.offered),
        ("fleet.routed", r.routed),
        ("fleet.fleet_rejected", r.fleet_rejected),
        ("fleet.served", r.served),
        ("fleet.shed", r.shed),
        ("fleet.rejected", r.rejected),
        ("fleet.dead_lettered", r.dead_lettered),
        ("fleet.router.best_effort", r.router.slo_infeasible_routed),
        ("fleet.reconfig.swaps", r.reconfig.swaps),
        ("fleet.reconfig.rollbacks", r.reconfig.swap_rollbacks),
        ("fleet.health.transitions", r.detection.transitions.len()),
        ("fleet.health.quarantined", r.detection.quarantined_devices),
        ("fleet.health.redispatched", r.detection.redispatched),
    ] {
        m.set(name, v as f64);
    }
    m.set("trace.overhead_ratio", traced.wall_s / reference.wall_s);
    m.set("trace.untraced_wall_s", reference.wall_s);

    // The same fleet and load with drift, gray faults and detection off:
    // a differential, not a layer of the drifting run.
    let plain = plain_fleet_config(&config);
    let plain_run = tracer.span("fleet.plain", || FleetEngine::new(&planes, plain)?.run());
    tally.record(match plain_run {
        Ok(run) => check_fleet(&run.report),
        Err(e) => vec![e.to_string()],
    });
    m.set("fleet.plain.busy_s", tracer.busy_s("fleet.plain"));

    replay_fleet_layers(&planes, &config, tracer, m, tally)?;
    Ok(Reference {
        wall_s: reference.wall_s,
        cpu_s: reference.cpu_s,
        modeled_ms: 0.0,
        fingerprint: reference.fingerprint,
    })
}

/// Arrival-stream generation, scenario replay, and one serve engine per
/// plane at one device's share of the load.
fn replay_fleet_layers(
    planes: &[DevicePlane],
    config: &FleetConfig,
    tracer: &Tracer,
    m: &mut Metrics,
    tally: &mut Tally,
) -> Result<(), BenchError> {
    let duration_s = config.duration_s();
    let stream = ServeConfig {
        seed: config.seed,
        duration_s,
        rps: config.rps,
        slo_ms: config.slo_ms,
        bulk_slo_factor: config.bulk_slo_factor,
        bulk_fraction: config.bulk_fraction,
        scenario: config.scenario.clone(),
        ..ServeConfig::default()
    };
    let requests = tracer.span("serve.generate_requests", || generate_requests(&stream, None));
    m.set("serve.generate_requests.busy_s", tracer.busy_s("serve.generate_requests"));
    let name = config.scenario_name().to_string();
    tracer.span("runtime.scenario", || -> Result<(), BenchError> {
        let scenario = hadas_runtime::Scenario::from_name(&name, config.seed, duration_s)?;
        let mut acc = 0.0;
        for r in &requests {
            acc += scenario.rate_multiplier_at(r.time_s)
                + scenario.thermal_cap_at(r.time_s)
                + scenario.difficulty_shift_at(r.time_s)
                + scenario.battery_capacity_factor_at(r.time_s);
        }
        black_box(acc);
        Ok(())
    })?;
    m.set("runtime.scenario.busy_s", tracer.busy_s("runtime.scenario"));

    let share = config.rps / config.devices.len() as f64;
    let mut offered = 0usize;
    for plane in planes {
        let hadas = Hadas::for_target(plane.target());
        let serve = ServeConfig {
            seed: config.seed,
            duration_s,
            rps: share,
            slo_ms: config.slo_ms,
            brownout: Some(BrownoutConfig::default()),
            scenario: config.scenario.clone(),
            ..ServeConfig::default()
        };
        let engine = ServeEngine::new(&hadas, plane.modes().to_vec(), serve)?;
        let report = tracer.span("serve.engine", || engine.run())?;
        tally.record(if report.accounting_balances() {
            Vec::new()
        } else {
            vec![format!("serve accounting broken on {}", plane.target().name())]
        });
        offered += report.offered;
    }
    m.set("serve.engine.req_per_s", offered as f64 / tracer.busy_s("serve.engine"));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(metrics: &Metrics) -> Vec<(String, String)> {
        metrics.iter().map(|(n, u, _)| (n.to_string(), u.to_string())).collect()
    }

    fn declared(section: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let v: serde_json::Value = serde_json::from_str(text).unwrap();
        v.get(section)
            .and_then(serde_json::Value::as_array)
            .unwrap()
            .iter()
            .map(|e| {
                let field =
                    |k: &str| e.get(k).and_then(serde_json::Value::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn every_named_metric_is_emitted_with_its_unit_at_a_tiny_budget() {
        let budget = Budget::tiny();
        let expected = Expected::default();
        for w in Workload::ALL {
            let untraced = measure(w, &budget, 2, 0.0, budget.min_ops(w), &expected).unwrap();
            assert_eq!(untraced.tally.failed, 0, "{}: {:?}", w.name(), untraced.tally.failures);
            assert_eq!(names(&untraced.metrics), declared("end_to_end"));
            assert!(untraced.metrics.iter().all(|(_, _, v)| *v > 0.0), "{}", w.name());

            let traced = trace_run(w, &budget, 2, &expected, 1).unwrap();
            assert_eq!(traced.tally.failed, 0, "{}: {:?}", w.name(), traced.tally.failures);
            assert_eq!(names(&traced.metrics), declared("per_layer"));
            assert!(traced.metrics.get("trace.overhead_ratio").unwrap() > 0.0);
        }
    }

    #[test]
    fn traced_search_counts_match_the_outcome() {
        let budget = Budget::tiny();
        let run = trace_run(Workload::SearchPaper, &budget, 4, &Expected::default(), 1).unwrap();
        let m = &run.metrics;
        let evals = m.get("core.evals.static").unwrap() + m.get("core.evals.dynamic").unwrap();
        assert!(evals > 0.0);
        // Each dynamic evaluation prices exactly two subnets.
        let dyn_calls = m.get("core.dynmodel.calls").unwrap();
        assert_eq!(dyn_calls.fract(), 0.0);
        assert!(dyn_calls >= m.get("core.evals.dynamic").unwrap());
        assert!(m.get("evo.pareto_front.points").unwrap() >= m.get("core.ioe.runs").unwrap());
    }
}
