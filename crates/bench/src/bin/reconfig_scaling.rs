//! Live-reconfiguration study: the same drifting workload served twice
//! per scenario — once by the pinned-mode fleet, once with the
//! reconfiguration controller sliding per-device operating windows
//! along the searched Pareto fronts through zero-drop swaps.
//! Shows reconfiguration beating the pinned fleet on interactive SLO
//! violations (and energy) under drift, and re-checks the swap-plane
//! contracts at bench scale: `dropped_by_swap == 0` everywhere, the
//! reconfigured report byte-identical across fleet worker counts, and
//! mid-swap unit chaos healing invisibly.
//!
//! Writes `results/BENCH_reconfig.json`; the CI bench step uploads it.

use hadas_bench::bench_env;
use hadas_fleet::{
    build_planes, parse_device_spec, FleetConfig, FleetEngine, FleetReport, ReconfigConfig,
};
use hadas_hw::HwTarget;
use hadas_runtime::{FaultConfig, Scenario};
use serde::Serialize;

const SEED: u64 = 7;
const DRIFT_SCENARIOS: [&str; 5] =
    ["diurnal", "thermal-season", "battery-decay", "demand-shift", "composite"];

#[derive(Debug, Serialize)]
struct ReconfigRow {
    scenario: String,
    reconfigured: bool,
    offered: usize,
    served: usize,
    interactive_served: usize,
    interactive_violations: usize,
    slo_violations: usize,
    energy_j: f64,
    p99_ms: f64,
    swaps: usize,
    swap_rollbacks: usize,
    dropped_by_swap: usize,
    escalations: usize,
    deescalations: usize,
}

impl ReconfigRow {
    fn new(r: &FleetReport) -> Self {
        ReconfigRow {
            scenario: r.scenario.clone(),
            reconfigured: r.reconfig.enabled,
            offered: r.offered,
            served: r.served,
            interactive_served: r.slo.interactive_served,
            interactive_violations: r.slo.interactive_violations,
            slo_violations: r.slo.violations,
            energy_j: r.energy_j,
            p99_ms: r.latency.p99_ms,
            swaps: r.reconfig.swaps,
            swap_rollbacks: r.reconfig.swap_rollbacks,
            dropped_by_swap: r.reconfig.dropped_by_swap,
            escalations: r.reconfig.escalations,
            deescalations: r.reconfig.deescalations,
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let env = bench_env!();
    let cfg = env.scaled_config().with_seed(SEED);
    let (users, rps, devices) = match env.scale_name() {
        "paper" => (200_000usize, 8_000.0, 32usize),
        "mid" => (60_000usize, 2_400.0, 24usize),
        _ => (10_000usize, 400.0, 16usize),
    };
    let duration_s = users as f64 / rps;
    let planes = build_planes(&HwTarget::ALL, &cfg)?;
    println!(
        "RECONFIG — pinned vs live reconfiguration under workload drift, \
         {users} users at {rps:.0} rps on {devices} devices (seed {SEED})"
    );

    let base_config = |scenario: Option<Scenario>, reconfigure: bool, workers: usize| {
        Ok::<FleetConfig, Box<dyn std::error::Error>>(FleetConfig {
            devices: parse_device_spec(&format!("mixed:{devices}"))?,
            users,
            rps,
            workers,
            seed: SEED,
            scenario,
            reconfigure,
            ..FleetConfig::default()
        })
    };

    // Size the per-device battery from the calm pinned fleet so the
    // battery-decay scenario exerts real state-of-charge pressure:
    // deterministic (the calm run is), not hand-tuned per tier.
    let calm = FleetEngine::new(&planes, base_config(None, false, 8)?)?.run()?;
    let battery_j = 0.6 * calm.report.energy_j / devices as f64;
    println!(
        "calm pinned baseline: {} served, {} interactive SLO misses, {:.1} J \
         (battery sized at {battery_j:.2} J/device)",
        calm.report.served, calm.report.slo.interactive_violations, calm.report.energy_j
    );
    let reconfig = ReconfigConfig { battery_j, ..ReconfigConfig::default() };

    println!(
        "{:>16} {:>8} {:>9} {:>9} {:>9} {:>10} {:>6} {:>8}",
        "scenario", "mode", "served", "int-viol", "viol", "energy(J)", "swaps", "p99(ms)"
    );
    println!("{}", "-".repeat(84));

    let mut rows = Vec::new();
    let mut wins = Vec::new();
    for name in DRIFT_SCENARIOS {
        let scenario = Scenario::from_name(name, SEED, duration_s)?;
        let pinned_cfg = base_config(Some(scenario.clone()), false, 8)?;
        let pinned = FleetEngine::new(&planes, pinned_cfg)?.run()?;
        let live_cfg =
            FleetConfig { reconfig: reconfig.clone(), ..base_config(Some(scenario), true, 8)? };
        let live = FleetEngine::new(&planes, live_cfg)?.run()?;
        for (label, r) in [("pinned", &pinned.report), ("reconfig", &live.report)] {
            assert!(r.accounting_balances(), "{name}/{label} accounting must balance");
            assert_eq!(r.dead_lettered, 0, "{name}/{label} must not dead-letter cleanly");
            println!(
                "{:>16} {:>8} {:>9} {:>9} {:>9} {:>10.1} {:>6} {:>8.1}",
                name,
                label,
                r.served,
                r.slo.interactive_violations,
                r.slo.violations,
                r.energy_j,
                r.reconfig.swaps,
                r.latency.p99_ms
            );
            rows.push(ReconfigRow::new(r));
        }
        assert_eq!(
            live.report.reconfig.dropped_by_swap, 0,
            "{name}: the zero-drop swap invariant must hold at bench scale"
        );
        let (p, l) = (&pinned.report.slo, &live.report.slo);
        let fewer_misses = l.interactive_violations < p.interactive_violations;
        let same_misses_less_energy = l.interactive_violations == p.interactive_violations
            && live.report.energy_j < pinned.report.energy_j;
        if fewer_misses || same_misses_less_energy {
            wins.push(name);
        }
    }
    println!();
    println!(
        "reconfiguration beats the pinned fleet in {}/{} drift scenarios: {:?}",
        wins.len(),
        DRIFT_SCENARIOS.len(),
        wins
    );
    assert!(
        wins.len() >= 2,
        "reconfiguration must win (fewer interactive SLO misses, or equal misses \
         at lower energy) in at least 2 drift scenarios, got {wins:?}"
    );

    // Determinism legs at bench scale, on the composite scenario.
    let composite = || Scenario::from_name("composite", SEED, duration_s);
    let leg_cfg = |workers: usize| {
        Ok::<FleetConfig, Box<dyn std::error::Error>>(FleetConfig {
            reconfig: reconfig.clone(),
            ..base_config(Some(composite()?), true, workers)?
        })
    };
    let base = FleetEngine::new(&planes, leg_cfg(1)?)?.run()?;
    let base_json = base.report.to_json()?;
    for workers in [2usize, 8] {
        let run = FleetEngine::new(&planes, leg_cfg(workers)?)?.run()?;
        assert_eq!(
            run.report.to_json()?,
            base_json,
            "reconfigured report must be byte-identical at {workers} workers"
        );
    }
    println!("reconfigured report byte-identical across fleet worker counts 1/2/8");

    let chaotic_cfg = FleetConfig {
        chaos: Some(FaultConfig {
            crash_rate: 0.2,
            transient_rate: 0.1,
            ..FaultConfig::worker_chaos(SEED)
        }),
        retry: hadas::RetryPolicy { max_attempts: 6, ..hadas::RetryPolicy::default() },
        ..leg_cfg(4)?
    };
    let chaotic = FleetEngine::new(&planes, chaotic_cfg)?.run()?;
    assert_eq!(chaotic.report.dead_lettered, 0, "the retry budget must heal every epoch");
    assert_eq!(
        chaotic.report.to_json()?,
        base_json,
        "mid-swap unit chaos must heal invisibly in the reconfigured report"
    );
    assert!(
        chaotic.telemetry.crashes + chaotic.telemetry.retries > 0,
        "the chaos leg must actually inject epoch faults"
    );
    println!(
        "mid-swap chaos healed invisibly: {} crashes, {} retries, {} re-dispatches",
        chaotic.telemetry.crashes, chaotic.telemetry.retries, chaotic.telemetry.redispatches
    );

    let rollback_cfg = FleetConfig {
        faults: Some(FaultConfig { seed: 9, swap_fail_rate: 0.5, ..FaultConfig::default() }),
        ..leg_cfg(4)?
    };
    let rolled = FleetEngine::new(&planes, rollback_cfg)?.run()?;
    assert!(
        rolled.report.reconfig.swap_rollbacks > 0,
        "a 0.5 swap-failure rate must roll some swap back"
    );
    assert_eq!(rolled.report.reconfig.dropped_by_swap, 0, "rollbacks drop nothing");
    assert!(rolled.report.accounting_balances(), "rollbacks stay conserved");
    println!(
        "swap failures rolled back cleanly: {} rollback(s), 0 dropped, accounting balanced",
        rolled.report.reconfig.swap_rollbacks
    );

    env.write_bench("BENCH_reconfig", SEED, &rows)?;
    Ok(())
}
