//! Golden byte pins: fixed fingerprints of the artefacts a user reads.
//!
//! `tests/determinism.rs` compares two runs of the same binary, so a
//! drift that moves both runs alike (a budget preset edited in one copy,
//! a toolchain changing a hash) passes it. These tests pin the
//! [`fingerprint64`] of the bytes themselves:
//!
//! * the quick-scale Pareto front exactly as `hadas search --json`
//!   writes it (seed 7, `--workers 1`), on all four targets;
//! * one [`hadas_suite::serve::ServeReport`];
//! * one pinned and one drift [`hadas_suite::fleet::FleetReport`].
//!
//! A changed constant is a behaviour change, not a refactor: re-bless it
//! only together with the artefacts it moved.

use hadas::{Hadas, HadasConfig, OoeOutcome, Scale, SearchOptions};
use hadas_fleet::{build_planes, FleetConfig, FleetEngine};
use hadas_hw::HwTarget;
use hadas_runtime::{modes_from_pareto, Scenario};
use hadas_serve::{fingerprint64, ServeConfig, ServeEngine};

/// The `hadas search` default seed.
const SEED: u64 = 7;

fn quick() -> HadasConfig {
    Scale::Quick.config().with_seed(SEED)
}

fn search(hadas: &Hadas) -> OoeOutcome {
    let opts = SearchOptions { workers: 1, ..SearchOptions::default() };
    hadas.run_with(&quick(), &opts).expect("quick search runs")
}

/// The `hadas search --json` payload: the front sorted by accuracy,
/// pretty-printed.
fn front_json(outcome: &OoeOutcome) -> String {
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
    assert!(!payload.is_empty(), "empty front");
    serde_json::to_string_pretty(&payload).expect("front serializes")
}

fn assert_pin(name: &str, bytes: &str, want: u64) {
    let got = fingerprint64(bytes.as_bytes());
    assert_eq!(got, want, "{name}: fingerprint {got:#018x}, bytes:\n{bytes}");
}

#[test]
fn quick_scale_search_fronts_are_pinned_on_every_target() {
    let pins = [
        (HwTarget::Tx2PascalGpu, 0x96e5_7d01_6a3e_0340),
        (HwTarget::Tx2DenverCpu, 0xce7f_c60e_cbfe_32f2),
        (HwTarget::AgxVoltaGpu, 0x37cc_4821_2ebc_5587),
        (HwTarget::AgxCarmelCpu, 0x3d54_16e0_fc82_b3e1),
    ];
    for (target, want) in pins {
        let hadas = Hadas::for_target(target);
        let outcome = search(&hadas);
        assert_pin(target.cli_name(), &front_json(&outcome), want);
    }
}

#[test]
fn serve_report_is_pinned() {
    let hadas = Hadas::for_target(HwTarget::Tx2PascalGpu);
    let outcome = search(&hadas);
    let modes = modes_from_pareto(&hadas, &outcome, 3).expect("mode ladder");
    let cfg = ServeConfig {
        seed: SEED,
        rps: 150.0,
        duration_s: 10.0,
        workers: 2,
        ..ServeConfig::default()
    };
    let report = ServeEngine::new(&hadas, modes, cfg).expect("engine").run().expect("serve run");
    assert_pin("serve", &report.to_json().expect("report serializes"), 0x83bd_ad6d_886c_28f3);
}

#[test]
fn pinned_and_drift_fleet_reports_are_pinned() {
    let devices = vec![
        HwTarget::Tx2PascalGpu,
        HwTarget::AgxCarmelCpu,
        HwTarget::Tx2PascalGpu,
        HwTarget::AgxCarmelCpu,
    ];
    let planes = build_planes(&devices, &quick()).expect("device planes");
    let pinned =
        FleetConfig { devices, users: 1200, rps: 300.0, seed: 5, ..FleetConfig::default() };
    let scenario = Scenario::from_name("composite", 5, pinned.duration_s()).expect("scenario");
    let drift = FleetConfig { scenario: Some(scenario), reconfigure: true, ..pinned.clone() };
    for (name, cfg, want) in [
        ("pinned fleet", pinned, 0x890c_f3db_307e_4b61),
        ("drift fleet", drift, 0xc3b0_ea39_bf33_d1d2),
    ] {
        let run = FleetEngine::new(&planes, cfg).expect("fleet").run().expect("fleet run");
        assert_pin(name, &run.report.to_json().expect("report serializes"), want);
    }
}
