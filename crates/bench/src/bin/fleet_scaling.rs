//! Fleet-plane scaling study: one searched mode ladder per hardware
//! target, then a fixed fleet-wide arrival stream (10⁵–10⁶ simulated
//! users by scale tier) served by mixed fleets of growing size. Shows
//! modeled fleet throughput growing monotonically with the device
//! count, and re-checks the two determinism contracts at bench scale:
//! the report is byte-identical across fleet worker counts, and
//! byte-identical to the fault-free run under unit chaos that heals
//! with zero dead letters.
//!
//! Writes `results/BENCH_fleet.json`; the CI bench step uploads it.

use hadas::executor::ExecTelemetry;
use hadas::Scale;
use hadas_bench::bench_env;
use hadas_fleet::{build_planes, parse_device_spec, FleetConfig, FleetEngine, FleetReport};
use hadas_hw::HwTarget;
use hadas_runtime::FaultConfig;
use serde::Serialize;

const SEED: u64 = 7;

#[derive(Debug, Serialize)]
struct FleetRow {
    devices: usize,
    device_mix: String,
    users: usize,
    rps: f64,
    offered: usize,
    routed: usize,
    fleet_rejected: usize,
    served: usize,
    shed: usize,
    rejected: usize,
    dead_lettered: usize,
    throughput_rps: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    slo_violation_rate: f64,
    energy_j: f64,
    sag_energy_j: f64,
    unhealthy_devices: usize,
    /// Fleet-supervisor resilience counters — the same schema the
    /// search and serve bench rows embed.
    executor: ExecTelemetry,
}

impl FleetRow {
    fn new(r: &FleetReport, exec: ExecTelemetry) -> Self {
        FleetRow {
            devices: r.devices,
            device_mix: r.device_mix.clone(),
            users: r.users,
            rps: r.rps,
            offered: r.offered,
            routed: r.routed,
            fleet_rejected: r.fleet_rejected,
            served: r.served,
            shed: r.shed,
            rejected: r.rejected,
            dead_lettered: r.dead_lettered,
            throughput_rps: r.throughput_rps,
            p50_ms: r.latency.p50_ms,
            p95_ms: r.latency.p95_ms,
            p99_ms: r.latency.p99_ms,
            slo_violation_rate: r.slo.violation_rate,
            energy_j: r.energy_j,
            sag_energy_j: r.sag_energy_j,
            unhealthy_devices: r.unhealthy_devices,
            executor: exec,
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let env = bench_env!();
    let cfg = env.scale().config().with_seed(SEED);
    // 10⁵ simulated users at the quick tier, 10⁶ at the paper tier.
    let (users, rps) = match env.scale() {
        Scale::Paper => (1_000_000usize, 40_000.0),
        Scale::Mid => (300_000usize, 12_000.0),
        Scale::Quick => (100_000usize, 4_000.0),
    };
    let planes = build_planes(&HwTarget::ALL, &cfg)?;
    println!(
        "FLEET — mixed-fleet scaling, {users} users at {rps:.0} rps \
         ({} searched plane(s), seed {SEED})",
        planes.len()
    );
    println!(
        "{:>8} {:>9} {:>9} {:>9} {:>10} {:>8} {:>8} {:>8}",
        "devices", "routed", "served", "shed", "thr(rps)", "p50(ms)", "p99(ms)", "SLO(%)"
    );
    println!("{}", "-".repeat(76));

    let fleet_config =
        |devices: usize, workers: usize| -> Result<FleetConfig, Box<dyn std::error::Error>> {
            Ok(FleetConfig {
                devices: parse_device_spec(&format!("mixed:{devices}"))?,
                users,
                rps,
                workers,
                seed: SEED,
                ..FleetConfig::default()
            })
        };

    let mut rows = Vec::new();
    for devices in [32usize, 64, 128] {
        let run = FleetEngine::new(&planes, fleet_config(devices, 8)?)?.run()?;
        let r = &run.report;
        assert!(r.accounting_balances(), "fleet accounting must balance at {devices} devices");
        assert_eq!(r.dead_lettered, 0, "clean runs must not dead-letter");
        println!(
            "{:>8} {:>9} {:>9} {:>9} {:>10.1} {:>8.1} {:>8.1} {:>8.2}",
            r.devices,
            r.routed,
            r.served,
            r.shed,
            r.throughput_rps,
            r.latency.p50_ms,
            r.latency.p99_ms,
            r.slo.violation_rate * 100.0
        );
        rows.push(FleetRow::new(r, run.telemetry));
    }
    for pair in rows.windows(2) {
        assert!(
            pair[1].throughput_rps >= pair[0].throughput_rps,
            "modeled throughput must be monotone in the device count \
             ({} devices: {} vs {} devices: {})",
            pair[1].devices,
            pair[1].throughput_rps,
            pair[0].devices,
            pair[0].throughput_rps
        );
    }
    assert!(
        rows[rows.len() - 1].throughput_rps > rows[0].throughput_rps,
        "quadrupling the fleet must strictly raise modeled throughput"
    );
    println!();
    println!("modeled throughput grows monotonically 32 -> 128 devices");

    // Determinism legs at bench scale, on the smallest fleet.
    let base = FleetEngine::new(&planes, fleet_config(32, 1)?)?.run()?;
    let base_json = base.report.to_json()?;
    for workers in [2usize, 4, 8] {
        let run = FleetEngine::new(&planes, fleet_config(32, workers)?)?.run()?;
        assert_eq!(
            run.report.to_json()?,
            base_json,
            "fleet report must be byte-identical at {workers} workers"
        );
    }
    println!("report byte-identical across fleet worker counts 1/2/4/8");

    let chaos_cfg = FleetConfig {
        chaos: Some(FaultConfig {
            crash_rate: 0.2,
            transient_rate: 0.1,
            ..FaultConfig::worker_chaos(SEED)
        }),
        retry: hadas::RetryPolicy { max_attempts: 6, ..hadas::RetryPolicy::default() },
        ..fleet_config(32, 4)?
    };
    let chaotic = FleetEngine::new(&planes, chaos_cfg)?.run()?;
    assert_eq!(chaotic.report.dead_lettered, 0, "the retry budget must heal every unit");
    assert_eq!(
        chaotic.report.to_json()?,
        base_json,
        "healed unit chaos must be invisible in the report"
    );
    assert!(
        chaotic.telemetry.crashes + chaotic.telemetry.retries > 0,
        "the chaos leg must actually inject unit faults"
    );
    println!(
        "unit chaos healed invisibly: {} crashes, {} retries, {} re-dispatches, 0 dead letters",
        chaotic.telemetry.crashes, chaotic.telemetry.retries, chaotic.telemetry.redispatches
    );

    env.write_bench("BENCH_fleet", SEED, &rows)?;
    Ok(())
}
