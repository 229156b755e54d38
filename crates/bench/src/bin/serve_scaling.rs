//! Serving-engine scaling study: one searched mode ladder on the TX2
//! GPU, replayed through the open-loop serving engine for every
//! governor × worker-pool combination. Shows throughput scaling with
//! the pool and the tail-latency / SLO price of each governor, plus an
//! overload pair (brownout ladder off/on at 3× load) showing *how* a
//! config degrades, not just how fast it goes.
//!
//! Writes `results/BENCH_serve.json`; the CI smoke job asserts the
//! throughput column is monotone in the worker count and that the
//! brownout ladder lowers the interactive violation rate under
//! overload.

use hadas::executor::ExecTelemetry;
use hadas::Hadas;
use hadas_bench::bench_env;
use hadas_hw::HwTarget;
use hadas_runtime::modes_from_pareto;
use hadas_serve::{BrownoutConfig, GovernorKind, ServeConfig, ServeEngine, ServeReport};
use serde::Serialize;

#[derive(Debug, Serialize)]
struct ServeRow {
    governor: String,
    workers: usize,
    rps: f64,
    offered: usize,
    served: usize,
    shed: usize,
    rejected: usize,
    dead_lettered: usize,
    throughput_rps: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    slo_violation_rate: f64,
    interactive_violation_rate: f64,
    energy_j: f64,
    mode_switches: usize,
    mode_occupancy: Vec<f64>,
    brownout_enabled: bool,
    brownout_worst_tier: usize,
    brownout_escalations: usize,
    brownout_tier_windows: Vec<usize>,
    /// Execution-plane resilience counters (lane respawns included) —
    /// the same schema `BENCH_search.json` rows embed, so the serve and
    /// search planes share one telemetry vocabulary.
    executor: ExecTelemetry,
}

impl ServeRow {
    fn from_report(governor: GovernorKind, rps: f64, r: &ServeReport, exec: ExecTelemetry) -> Self {
        ServeRow {
            governor: governor.name().to_string(),
            workers: r.workers,
            rps,
            offered: r.offered,
            served: r.served,
            shed: r.shed,
            rejected: r.rejected,
            dead_lettered: r.dead_lettered,
            throughput_rps: r.throughput_rps,
            p50_ms: r.latency.p50_ms,
            p95_ms: r.latency.p95_ms,
            p99_ms: r.latency.p99_ms,
            slo_violation_rate: r.slo.violation_rate,
            interactive_violation_rate: r.slo.interactive_violations as f64
                / r.slo.interactive_served.max(1) as f64,
            energy_j: r.energy_j,
            mode_switches: r.mode_switches,
            mode_occupancy: r.mode_occupancy.clone(),
            brownout_enabled: r.brownout.enabled,
            brownout_worst_tier: r.brownout.worst_tier,
            brownout_escalations: r.brownout.escalations,
            brownout_tier_windows: r.brownout.tier_windows.clone(),
            executor: exec,
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = bench_env!().scale().config().with_seed(7);
    let hadas = Hadas::for_target(HwTarget::Tx2PascalGpu);
    let outcome = hadas.run(&cfg)?;
    let modes = modes_from_pareto(&hadas, &outcome, 3)?;
    println!("SERVE — governor x worker-pool scaling on {}", HwTarget::Tx2PascalGpu.name());
    println!(
        "{:<10} {:>7} {:>9} {:>9} {:>9} {:>8} {:>8} {:>8} {:>8}",
        "governor",
        "workers",
        "offered",
        "served",
        "thr(rps)",
        "p50(ms)",
        "p99(ms)",
        "SLO(%)",
        "sw"
    );
    println!("{}", "-".repeat(84));
    let mut rows = Vec::new();
    for governor in [GovernorKind::Static, GovernorKind::Latency, GovernorKind::Queue] {
        for workers in [1usize, 2, 4] {
            let serve_cfg = ServeConfig {
                seed: 7,
                duration_s: 10.0,
                rps: 200.0,
                workers,
                governor,
                ..ServeConfig::default()
            };
            let (r, exec) =
                ServeEngine::new(&hadas, modes.clone(), serve_cfg)?.run_instrumented()?;
            println!(
                "{:<10} {:>7} {:>9} {:>9} {:>9.1} {:>8.1} {:>8.1} {:>8.2} {:>8}",
                governor.name(),
                workers,
                r.offered,
                r.served,
                r.throughput_rps,
                r.latency.p50_ms,
                r.latency.p99_ms,
                r.slo.violation_rate * 100.0,
                r.mode_switches
            );
            rows.push(ServeRow::from_report(governor, 200.0, &r, exec));
        }
    }
    for governor in [GovernorKind::Static, GovernorKind::Latency, GovernorKind::Queue] {
        let mut last = 0.0;
        for row in rows.iter().filter(|r| r.governor == governor.name()) {
            assert!(
                row.throughput_rps > last,
                "throughput must scale with the pool under {} ({} workers: {} vs {})",
                row.governor,
                row.workers,
                row.throughput_rps,
                last
            );
            last = row.throughput_rps;
        }
    }
    println!();
    println!("throughput grows monotonically 1 -> 4 workers under every governor");

    // Overload pair: 3x the study load with and without the brownout
    // ladder, same queue governor and pool. Tracks the degradation
    // story in the same JSON the scaling rows land in.
    println!();
    println!("OVERLOAD — brownout ladder off/on at 600 rps, queue governor, 2 workers");
    let mut overload_rows = Vec::new();
    for brownout in [false, true] {
        let serve_cfg = ServeConfig {
            seed: 7,
            duration_s: 10.0,
            rps: 600.0,
            workers: 2,
            governor: GovernorKind::Queue,
            brownout: brownout.then(BrownoutConfig::default),
            ..ServeConfig::default()
        };
        let (r, exec) = ServeEngine::new(&hadas, modes.clone(), serve_cfg)?.run_instrumented()?;
        let row = ServeRow::from_report(GovernorKind::Queue, 600.0, &r, exec);
        println!(
            "  brownout {:<3}: p99 {:>7.1} ms | interactive SLO viol {:>5.2}% | \
             shed {} rejected {} | worst tier {} ({} escalations)",
            if brownout { "on" } else { "off" },
            row.p99_ms,
            row.interactive_violation_rate * 100.0,
            row.shed,
            row.rejected,
            row.brownout_worst_tier,
            row.brownout_escalations
        );
        assert!(r.accounting_balances(), "request accounting must balance");
        overload_rows.push(row);
    }
    assert!(
        overload_rows[1].interactive_violation_rate < overload_rows[0].interactive_violation_rate,
        "the brownout ladder must lower the interactive violation rate under overload"
    );
    assert!(overload_rows[1].brownout_escalations > 0, "3x overload must climb the ladder");
    println!("  brownout strictly lowers the interactive violation rate under overload");
    rows.extend(overload_rows);

    bench_env!().write_bench("BENCH_serve", 7, &rows)?;
    Ok(())
}
