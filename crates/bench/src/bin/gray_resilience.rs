//! Gray-failure resilience study: the same workload served twice per
//! gray-fault kind — once blind (faults injected, detector off), once
//! with the online health detector quarantining lying devices and the
//! router steering around them. Shows detection strictly cutting SLO
//! violations for every telemetry signature (stale, corrupt, drop,
//! silent-slowdown, flap), and re-checks the detection-plane contracts
//! at bench scale: the detecting report byte-identical across fleet
//! worker counts, every quarantine drain re-dispatched
//! (`redispatch_dropped == 0`), and accounting balanced everywhere.
//!
//! Writes `results/BENCH_gray.json`; the CI bench step uploads it.

use hadas::Scale;
use hadas_bench::bench_env;
use hadas_fleet::{
    build_planes, parse_device_spec, DetectionConfig, FleetConfig, FleetEngine, FleetReport,
};
use hadas_runtime::{GrayFaultConfig, GrayFaultKind};
use serde::Serialize;

const SEED: u64 = 7;

#[derive(Debug, Serialize)]
struct GrayRow {
    kind: String,
    detection: bool,
    offered: usize,
    served: usize,
    slo_violations: usize,
    /// Requests that failed their SLO end to end: never served (shed,
    /// rejected, lost) or served past deadline. The blind fleet's gray
    /// devices shed much of their load, so raw served-late counts would
    /// reward it for serving less; this charges every unserved request.
    slo_failed: usize,
    interactive_violations: usize,
    energy_j: f64,
    p99_ms: f64,
    telemetry_defects: usize,
    dropped_windows: usize,
    quarantined_devices: usize,
    transitions: usize,
    dirty_epochs: usize,
    probe_assignments: usize,
    redispatched: usize,
    redispatch_dropped: usize,
}

impl GrayRow {
    fn new(kind: &str, r: &FleetReport) -> Self {
        GrayRow {
            kind: kind.to_string(),
            detection: r.detection.enabled,
            offered: r.offered,
            served: r.served,
            slo_violations: r.slo.violations,
            slo_failed: slo_failed(r),
            interactive_violations: r.slo.interactive_violations,
            energy_j: r.energy_j,
            p99_ms: r.latency.p99_ms,
            telemetry_defects: r.health.iter().map(|h| h.telemetry_defects).sum(),
            dropped_windows: r.health.iter().map(|h| h.dropped_windows).sum(),
            quarantined_devices: r.detection.quarantined_devices,
            transitions: r.detection.transitions.len(),
            dirty_epochs: r.detection.dirty_epochs,
            probe_assignments: r.detection.probe_assignments,
            redispatched: r.detection.redispatched,
            redispatch_dropped: r.detection.redispatch_dropped,
        }
    }
}

/// Requests that failed their SLO end to end: never served at all or
/// served past deadline.
fn slo_failed(r: &FleetReport) -> usize {
    r.offered - (r.served - r.slo.violations)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let env = bench_env!();
    let cfg = env.scale().config().with_seed(SEED);
    let (users, rps, devices) = match env.scale() {
        Scale::Paper => (200_000usize, 8_000.0, 32usize),
        Scale::Mid => (60_000usize, 2_400.0, 24usize),
        Scale::Quick => (10_000usize, 400.0, 16usize),
    };
    let planes = build_planes(&hadas_hw::HwTarget::ALL, &cfg)?;
    println!(
        "GRAY — blind vs detecting fleet under gray telemetry faults, \
         {users} users at {rps:.0} rps on {devices} devices (seed {SEED})"
    );

    let gray_config = |kind: GrayFaultKind, detect: bool, workers: usize| {
        Ok::<FleetConfig, Box<dyn std::error::Error>>(FleetConfig {
            devices: parse_device_spec(&format!("mixed:{devices}"))?,
            users,
            rps,
            workers,
            seed: SEED,
            gray: Some(GrayFaultConfig::new(kind, SEED)),
            detection: if detect { DetectionConfig::enabled() } else { DetectionConfig::default() },
            ..FleetConfig::default()
        })
    };

    println!(
        "{:>8} {:>6} {:>9} {:>9} {:>9} {:>9} {:>8} {:>6} {:>7} {:>7}",
        "kind",
        "mode",
        "served",
        "viol",
        "failed",
        "int-viol",
        "p99(ms)",
        "quar",
        "redisp",
        "probes"
    );
    println!("{}", "-".repeat(88));

    let mut rows = Vec::new();
    for kind in GrayFaultKind::CONCRETE {
        let blind = FleetEngine::new(&planes, gray_config(kind, false, 8)?)?.run()?;
        let seen = FleetEngine::new(&planes, gray_config(kind, true, 8)?)?.run()?;
        for (label, r) in [("blind", &blind.report), ("detect", &seen.report)] {
            assert!(r.accounting_balances(), "{}/{label} accounting must balance", kind.name());
            assert_eq!(
                r.dead_lettered,
                0,
                "{}/{label} gray devices degrade, not crash",
                kind.name()
            );
            println!(
                "{:>8} {:>6} {:>9} {:>9} {:>9} {:>9} {:>8.1} {:>6} {:>7} {:>7}",
                kind.name(),
                label,
                r.served,
                r.slo.violations,
                slo_failed(r),
                r.slo.interactive_violations,
                r.latency.p99_ms,
                r.detection.quarantined_devices,
                r.detection.redispatched,
                r.detection.probe_assignments
            );
            rows.push(GrayRow::new(kind.name(), r));
        }
        assert_eq!(
            blind.report.detection.quarantined_devices,
            0,
            "{}: the blind fleet must not quarantine",
            kind.name()
        );
        assert!(
            seen.report.detection.quarantined_devices >= 1,
            "{}: the detector must quarantine at least one gray device",
            kind.name()
        );
        assert_eq!(
            seen.report.detection.redispatch_dropped,
            0,
            "{}: every quarantine drain must re-dispatch (zero-drop invariant)",
            kind.name()
        );
        assert!(
            slo_failed(&seen.report) < slo_failed(&blind.report),
            "{}: detection must strictly cut SLO-failed requests ({} detecting vs {} blind)",
            kind.name(),
            slo_failed(&seen.report),
            slo_failed(&blind.report)
        );
    }
    println!();
    println!(
        "detection strictly cut SLO-failed requests for all {} gray kinds",
        GrayFaultKind::CONCRETE.len()
    );

    // Determinism leg: the detecting report is byte-identical across
    // fleet worker counts under the mixed gray signature.
    let base = FleetEngine::new(&planes, gray_config(GrayFaultKind::Mix, true, 1)?)?.run()?;
    let base_json = base.report.to_json()?;
    assert_eq!(base.report.detection.redispatch_dropped, 0, "mix: zero-drop invariant");
    for workers in [2usize, 8] {
        let run =
            FleetEngine::new(&planes, gray_config(GrayFaultKind::Mix, true, workers)?)?.run()?;
        assert_eq!(
            run.report.to_json()?,
            base_json,
            "gray detecting report must be byte-identical at {workers} workers"
        );
    }
    println!("gray detecting report byte-identical across fleet worker counts 1/2/8");

    env.write_bench("BENCH_gray", SEED, &rows)?;
    Ok(())
}
