//! The serialized outcome of one fleet run.

use crate::{DetectionSummary, DeviceHealthReport, DeviceSummary, ReconfigSummary, RouterSummary};
use hadas::HadasError;
use hadas_runtime::LatencySummary;
use hadas_serve::{accounting_balances, stamp_report, verify_report, SealedReport, SloSummary};
use serde::{Deserialize, Serialize};

/// Schema tag stamped into every serialized [`FleetReport`]. Bump on
/// any report shape change; [`FleetReport::from_json`] refuses other
/// versions, mirroring `SearchCheckpoint`'s gated restore.
/// v2: gray-failure detection summary, per-unit telemetry integrity and
/// detector states, probe-assignment routing counter.
pub const FLEET_REPORT_SCHEMA: u32 = 2;

/// Aggregate outcome of one fleet run, folded from the per-device
/// traces in device-index order.
///
/// Determinism contract: epoch by epoch, the router's schedule and
/// every device's schedule are computed single-threaded on the shared
/// virtual clock; device segments reduce as pure supervised jobs;
/// results fold in device order. The serialized report is therefore byte-identical across
/// fleet worker counts — worker count deliberately does **not**
/// serialize — and byte-identical to the fault-free run under injected
/// unit crashes whenever zero units dead-letter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// Report schema version ([`FLEET_REPORT_SCHEMA`]); stamped by
    /// [`FleetReport::to_json`].
    pub schema: u32,
    /// FNV-1a fingerprint of the serialized report with this field
    /// zeroed; stamped by [`FleetReport::to_json`], checked by
    /// [`FleetReport::from_json`]. Zero while in memory. Leads the
    /// struct so fingerprint zeroing always targets the fleet-level
    /// field.
    pub fingerprint: u64,
    /// Device units in the fleet.
    pub devices: usize,
    /// Canonical device-mix echo (see [`crate::canonical_spec`]).
    pub device_mix: String,
    /// Configured simulated-user volume.
    pub users: usize,
    /// Fleet-wide mean offered load (requests/s).
    pub rps: f64,
    /// Arrival-stream duration `users / rps` (seconds).
    pub duration_s: f64,
    /// The run seed.
    pub seed: u64,
    /// Requests offered by the fleet-wide arrival stream.
    pub offered: usize,
    /// Requests the router admitted to some device.
    pub routed: usize,
    /// Requests no device admitted (router-level rejection, per class in
    /// [`FleetReport::router`]).
    pub fleet_rejected: usize,
    /// Requests served across all units.
    pub served: usize,
    /// Requests shed by device admission control.
    pub shed: usize,
    /// Requests rejected by device brownout ladders.
    pub rejected: usize,
    /// Requests lost with dead-lettered units (zero whenever unit
    /// supervision heals — the precondition of the chaos byte-identity
    /// contract). The conservation identity extends the serve plane's
    /// [`accounting_balances`]: `served + shed + rejected +
    /// dead_lettered == routed` and `routed + fleet_rejected ==
    /// offered`.
    pub dead_lettered: usize,
    /// Completion time of the last batch on any unit (seconds).
    pub makespan_s: f64,
    /// `served / max(makespan, duration)` (requests/s) — the modeled
    /// fleet throughput the scaling bench asserts monotone in device
    /// count.
    pub throughput_rps: f64,
    /// Total energy drawn across units (joules).
    pub energy_j: f64,
    /// Total voltage-sag energy across units (joules).
    pub sag_energy_j: f64,
    /// Global completion-latency distribution, merged from per-unit
    /// histograms via `Histogram::merge` in device order.
    pub latency: LatencySummary,
    /// Global deadline accounting, split by SLO class.
    pub slo: SloSummary,
    /// Name of the workload-drift scenario in force (`"none"`).
    pub scenario: String,
    /// Live-reconfiguration accounting: swaps, rollbacks, the zero-drop
    /// counter, and final anchors ([`ReconfigSummary::disabled`] when
    /// `FleetConfig::reconfigure` is off).
    pub reconfig: ReconfigSummary,
    /// Gray-failure-detection accounting: per-device final states,
    /// transitions, quarantine re-dispatch counters
    /// ([`DetectionSummary::disabled`] when the detector is off).
    pub detection: DetectionSummary,
    /// Router accounting: the per-device decision histogram and
    /// per-class admission counters.
    pub router: RouterSummary,
    /// Per-unit request accounting, in device order.
    pub per_device: Vec<DeviceSummary>,
    /// Per-unit condensed health telemetry, in device order.
    pub health: Vec<DeviceHealthReport>,
    /// Units whose health verdict came back unhealthy (see
    /// [`DeviceHealthReport::healthy`]).
    pub unhealthy_devices: usize,
}

impl SealedReport for FleetReport {
    const SCHEMA: u32 = FLEET_REPORT_SCHEMA;
    const KIND: &'static str = "fleet report";

    fn seal_fields(&mut self) -> (&mut u32, &mut u64) {
        (&mut self.schema, &mut self.fingerprint)
    }
}

impl FleetReport {
    /// Serialises the report as sealed pretty JSON ([`stamp_report`]) —
    /// the byte-identical artifact the determinism contract is stated
    /// over.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        stamp_report(self)
    }

    /// Parses a sealed fleet report, refusing a stale schema or a
    /// fingerprint mismatch ([`verify_report`]).
    pub fn from_json(json: &str) -> Result<Self, HadasError> {
        verify_report(json)
    }

    /// Whether the fleet-level request-conservation identity holds: the
    /// serve plane's [`accounting_balances`] over the routed volume,
    /// plus router conservation `routed + fleet_rejected == offered`.
    pub fn accounting_balances(&self) -> bool {
        accounting_balances(self.served, self.shed, self.rejected, self.dead_lettered, self.routed)
            && self.routed + self.fleet_rejected == self.offered
    }
}
