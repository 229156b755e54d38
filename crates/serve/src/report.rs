use crate::{BrownoutSummary, TelemetryCounters};
use hadas::HadasError;
use hadas_runtime::LatencySummary;
use serde::{Deserialize, Serialize};

/// Schema tag stamped into every serialized [`ServeReport`]. Bump on any
/// report shape change; [`ServeReport::from_json`] refuses other
/// versions, mirroring `SearchCheckpoint`'s gated restore.
/// v2: telemetry-integrity summary (windows opened/emitted, sanitizer
/// defect tallies).
pub const SERVE_REPORT_SCHEMA: u32 = 2;

/// FNV-1a 64-bit over raw bytes — the workspace's stable content
/// fingerprint for persisted artifacts (reports, benchmark digests).
/// Hand-rolled because `DefaultHasher` does not guarantee stability
/// across Rust releases, and persisted fingerprints must.
pub fn fingerprint64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Rewrites the first `"fingerprint": <digits>` value in a serialized
/// report to `0`, returning `None` when the field is missing. The
/// schema/fingerprint pair leads every report struct, so the first
/// occurrence is always the top-level field even when device reports
/// nest. Fingerprints are computed over this zeroed text, which makes
/// validation cover the exact bytes on disk without relying on
/// parse→print float round-tripping.
pub fn zero_fingerprint_field(json: &str) -> Option<String> {
    let key = "\"fingerprint\": ";
    let start = json.find(key)? + key.len();
    let digits = json[start..].bytes().take_while(|b| b.is_ascii_digit()).count();
    if digits == 0 {
        return None;
    }
    Some(format!("{}0{}", &json[..start], &json[start + digits..]))
}

/// A persisted report sealed by a leading `schema`/`fingerprint` pair.
/// [`stamp_report`] and [`verify_report`] are the one sealing path every
/// implementor's `to_json`/`from_json` delegates to.
pub trait SealedReport: Clone + Serialize + Deserialize {
    /// The schema version this build writes and accepts.
    const SCHEMA: u32;
    /// Human-readable report kind for error messages (`"serve report"`).
    const KIND: &'static str;
    /// The report's leading `(schema, fingerprint)` fields.
    fn seal_fields(&mut self) -> (&mut u32, &mut u64);
}

/// Serialises `report` as pretty JSON with [`SealedReport::SCHEMA`]
/// stamped and the fingerprint set to [`fingerprint64`] of the same
/// text with the fingerprint zeroed.
///
/// # Errors
///
/// Propagates serialisation failures (none for the workspace's reports
/// in practice).
pub fn stamp_report<R: SealedReport>(report: &R) -> Result<String, serde_json::Error> {
    let mut stamped = report.clone();
    let (schema, fingerprint) = stamped.seal_fields();
    *schema = R::SCHEMA;
    *fingerprint = 0;
    let zeroed = serde_json::to_string_pretty(&stamped)?;
    *stamped.seal_fields().1 = fingerprint64(zeroed.as_bytes());
    serde_json::to_string_pretty(&stamped)
}

/// Parses a report written by [`stamp_report`], refusing stale schemas
/// and content whose fingerprint does not match the bytes — the same
/// gated restore contract as `SearchCheckpoint`.
///
/// # Errors
///
/// Returns [`HadasError::Checkpoint`] for unparsable JSON, a schema
/// other than [`SealedReport::SCHEMA`], or a fingerprint mismatch
/// (tampered or truncated content).
pub fn verify_report<R: SealedReport>(json: &str) -> Result<R, HadasError> {
    let kind = R::KIND;
    let mut report: R = serde_json::from_str(json)
        .map_err(|e| HadasError::Checkpoint(format!("parse {kind}: {e}")))?;
    let (&mut schema, &mut fingerprint) = report.seal_fields();
    if schema != R::SCHEMA {
        return Err(HadasError::Checkpoint(format!(
            "{kind} schema {schema} unsupported (expected {})",
            R::SCHEMA
        )));
    }
    let zeroed = zero_fingerprint_field(json)
        .ok_or_else(|| HadasError::Checkpoint(format!("{kind} carries no fingerprint field")))?;
    let expected = fingerprint64(zeroed.as_bytes());
    if fingerprint != expected {
        return Err(HadasError::Checkpoint(format!(
            "{kind} fingerprint {fingerprint:#018x} does not match its content ({expected:#018x})"
        )));
    }
    Ok(report)
}

/// The request-conservation identity every serving plane obeys, stated
/// once: every offered request is exactly one of served, shed at
/// admission, rejected by an admission ladder, or dead-lettered by the
/// execution plane —
///
/// ```text
/// served + shed + rejected + dead_lettered == offered
/// ```
///
/// [`ServeReport::accounting_balances`] checks it per device run and the
/// fleet plane reuses it per unit and fleet-wide, so call sites assert
/// through this helper instead of restating the sum.
pub fn accounting_balances(
    served: usize,
    shed: usize,
    rejected: usize,
    dead_lettered: usize,
    offered: usize,
) -> bool {
    served + shed + rejected + dead_lettered == offered
}

/// Deadline accounting of one serving run, split by SLO class.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SloSummary {
    /// The interactive-class deadline budget (ms).
    pub target_ms: f64,
    /// Served requests that missed their deadline.
    pub violations: usize,
    /// `violations / served` (0 when nothing was served).
    pub violation_rate: f64,
    /// Interactive requests served.
    pub interactive_served: usize,
    /// Interactive requests that missed their deadline.
    pub interactive_violations: usize,
    /// Bulk requests served.
    pub bulk_served: usize,
    /// Bulk requests that missed their deadline.
    pub bulk_violations: usize,
}

/// Health-channel integrity accounting of one serving run: how many
/// control windows opened, how many samples actually made it onto the
/// channel, and what the [`crate::TelemetrySanitizer`] tagged on them.
/// All scheduling-plane quantities, so they serialize without breaking
/// the byte-identity contract.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TelemetryIntegrity {
    /// Control windows the session opened (the true ordinal count).
    pub windows_opened: usize,
    /// Health samples emitted on the channel (≤ `windows_opened`).
    pub samples_emitted: usize,
    /// Windows whose sample never appeared (`windows_opened −
    /// samples_emitted`) — gray drop faults make this non-zero.
    pub dropped_windows: usize,
    /// Sanitizer defect tallies over the emitted samples.
    pub defects: TelemetryCounters,
}

/// Aggregate outcome of one open-loop serving run.
///
/// Everything here is reduced from the per-batch shards in schedule order,
/// so the same `(config, modes)` pair always produces byte-identical JSON
/// — including under `--faults` and with any worker count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Report schema version ([`SERVE_REPORT_SCHEMA`]); stamped by
    /// [`ServeReport::to_json`].
    pub schema: u32,
    /// FNV-1a fingerprint of the serialized report with this field
    /// zeroed; stamped by [`ServeReport::to_json`], checked by
    /// [`ServeReport::from_json`]. Zero while in memory.
    pub fingerprint: u64,
    /// Governor name (e.g. `degrade(queue[8])`).
    pub governor: String,
    /// Worker lanes in the pool.
    pub workers: usize,
    /// Mean offered load (requests/s).
    pub rps: f64,
    /// Arrival-stream length (s).
    pub duration_s: f64,
    /// The run seed.
    pub seed: u64,
    /// Requests offered by the arrival stream.
    pub offered: usize,
    /// Requests admitted and served.
    pub served: usize,
    /// Requests shed at admission (deadline infeasible under backlog).
    pub shed: usize,
    /// Requests turned away by the brownout ladder (bulk arrivals in
    /// [`crate::BrownoutTier::ShedBulk`] and everything in
    /// [`crate::BrownoutTier::RejectNewAdmissions`]).
    pub rejected: usize,
    /// Requests in batches whose every reduction attempt failed under
    /// chaos. Zero whenever recovery succeeds — the precondition of the
    /// byte-identity contract. The conservation identity
    /// [`accounting_balances`] always holds.
    pub dead_lettered: usize,
    /// Batches dispatched.
    pub batches: usize,
    /// `served / batches` (0 when no batch dispatched).
    pub mean_batch_size: f64,
    /// Completion time of the last batch (s).
    pub makespan_s: f64,
    /// `served / max(makespan, duration)` (requests/s).
    pub throughput_rps: f64,
    /// Accuracy over served requests (percent).
    pub accuracy_pct: f64,
    /// Total energy drawn, sag and mode switches included (joules).
    pub energy_j: f64,
    /// Extra joules paid to voltage sag beyond nominal mode costs.
    pub sag_energy_j: f64,
    /// Completion-latency distribution (arrival → batch finish).
    pub latency: LatencySummary,
    /// Deadline accounting.
    pub slo: SloSummary,
    /// Fraction of served requests leaving at each exit head; the last
    /// slot is the full-backbone fraction.
    pub exit_fractions: Vec<f64>,
    /// Fraction of served requests handled per operating mode.
    pub mode_occupancy: Vec<f64>,
    /// Mode switches latched by the governor.
    pub mode_switches: usize,
    /// Batches served in a mode *below* the governor's choice because a
    /// thermal cap had to be enforced.
    pub degraded_batches: usize,
    /// Control windows that opened under an active thermal cap.
    pub throttled_windows: usize,
    /// Requests served per worker lane.
    pub per_worker_served: Vec<usize>,
    /// Brownout-ladder accounting (tier occupancy, transitions); the
    /// disabled summary when no ladder was configured. Scheduling-plane
    /// only, so it serializes without breaking recovery byte-identity.
    pub brownout: BrownoutSummary,
    /// Health-channel integrity accounting (window/sample counts plus
    /// sanitizer defect tallies).
    pub telemetry: TelemetryIntegrity,
}

impl SealedReport for ServeReport {
    const SCHEMA: u32 = SERVE_REPORT_SCHEMA;
    const KIND: &'static str = "serve report";

    fn seal_fields(&mut self) -> (&mut u32, &mut u64) {
        (&mut self.schema, &mut self.fingerprint)
    }
}

impl ServeReport {
    /// Serialises the report as sealed pretty JSON ([`stamp_report`]) —
    /// the byte-identical artifact the determinism contract is stated
    /// over.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        stamp_report(self)
    }

    /// Parses a sealed report, refusing a stale schema or a fingerprint
    /// mismatch ([`verify_report`]).
    pub fn from_json(json: &str) -> Result<Self, HadasError> {
        verify_report(json)
    }

    /// Whether this run satisfies the request-conservation identity
    /// [`accounting_balances`].
    pub fn accounting_balances(&self) -> bool {
        accounting_balances(self.served, self.shed, self.rejected, self.dead_lettered, self.offered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conservation_identity_is_the_exact_sum() {
        assert!(accounting_balances(5, 2, 1, 0, 8));
        assert!(accounting_balances(0, 0, 0, 0, 0));
        assert!(!accounting_balances(5, 2, 1, 0, 9), "a lost request must trip the identity");
        assert!(!accounting_balances(5, 2, 1, 2, 8), "double counting must trip it too");
    }

    fn sample_report() -> ServeReport {
        ServeReport {
            schema: 0,
            fingerprint: 0,
            governor: "degrade(queue[8])".to_string(),
            workers: 2,
            rps: 80.0,
            duration_s: 10.0,
            seed: 7,
            offered: 800,
            served: 780,
            shed: 12,
            rejected: 8,
            dead_lettered: 0,
            batches: 130,
            mean_batch_size: 6.0,
            makespan_s: 10.4,
            throughput_rps: 75.0,
            accuracy_pct: 71.25,
            energy_j: 1234.5,
            sag_energy_j: 0.0,
            latency: LatencySummary::default(),
            slo: SloSummary::default(),
            exit_fractions: vec![0.25, 0.25, 0.5],
            mode_occupancy: vec![0.6, 0.4],
            mode_switches: 3,
            degraded_batches: 0,
            throttled_windows: 0,
            per_worker_served: vec![400, 380],
            brownout: BrownoutSummary::disabled(),
            telemetry: TelemetryIntegrity::default(),
        }
    }

    #[test]
    fn fingerprint64_is_the_reference_fnv1a() {
        assert_eq!(fingerprint64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fingerprint64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fingerprint64(b"ab"), fingerprint64(b"ba"), "order must matter");
    }

    #[test]
    fn json_round_trip_is_schema_and_fingerprint_gated() {
        let report = sample_report();
        let json = report.to_json().expect("reports serialize");
        let restored = ServeReport::from_json(&json).expect("a stamped report restores");
        assert_eq!(restored.schema, SERVE_REPORT_SCHEMA);
        assert_ne!(restored.fingerprint, 0, "to_json stamps a real fingerprint");
        assert_eq!(restored.served, report.served);

        let tampered = json.replace("\"served\": 780", "\"served\": 781");
        let err = ServeReport::from_json(&tampered).expect_err("tampering must be refused");
        assert!(err.to_string().contains("fingerprint"), "{err}");

        let stale = json.replace(
            &format!("\"schema\": {SERVE_REPORT_SCHEMA}"),
            &format!("\"schema\": {}", SERVE_REPORT_SCHEMA + 1),
        );
        let err = ServeReport::from_json(&stale).expect_err("stale schemas must be refused");
        assert!(err.to_string().contains("schema"), "{err}");

        assert!(ServeReport::from_json("not json").is_err());
    }

    /// Pins the exact bytes of a sealed report: any drift in field
    /// order, float formatting or the seal itself changes this value.
    #[test]
    fn sealed_report_bytes_are_pinned() {
        let json = sample_report().to_json().expect("reports serialize");
        assert_eq!(fingerprint64(json.as_bytes()), 0x23c7_72be_d165_1389, "{json}");
    }

    #[test]
    fn fingerprint_zeroing_targets_the_leading_field() {
        let json = sample_report().to_json().expect("reports serialize");
        let zeroed = zero_fingerprint_field(&json).expect("stamped reports carry the field");
        assert!(zeroed.contains("\"fingerprint\": 0"));
        assert_eq!(zero_fingerprint_field("{}"), None);
        assert_eq!(zero_fingerprint_field("\"fingerprint\": "), None, "no digits, no zeroing");
    }
}
