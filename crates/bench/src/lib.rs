//! # hadas-bench
//!
//! The experiment harness of the HADAS reproduction: one binary per table
//! and figure of the paper, plus the serve/fleet scaling studies (see
//! `src/bin/`). Wall-clock timing lives in `perfbench/`, not here.
//!
//! Every binary
//!
//! 1. runs at a *scaled* budget by default so the whole suite finishes in
//!    minutes — set `HADAS_SCALE=mid|paper` to pick another
//!    [`hadas::Scale`] preset (`paper` is the 450/3500-iteration budget),
//! 2. prints the table/series to stdout in the paper's layout, and
//! 3. writes one `hadas-bench/1` record ([`BenchRecord`], via
//!    [`BenchEnv::write_bench`]) under `results/` for external
//!    re-plotting; figure binaries also write SVGs next to it.

pub mod svg;

use hadas::{Hadas, HadasConfig, HadasError, IoeOutcome, Scale};
use hadas_space::{baselines, Subnet};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// Schema tag stamped on every `results/*.json` record (see
/// [`BenchEnv::write_bench`]). Bump when the header shape changes.
pub const BENCH_SCHEMA: &str = "hadas-bench/1";

/// The shared header every bench record carries, so rows from any
/// binary are mergeable: a consumer can join on `(schema, bench, scale,
/// seed)` without guessing which harness settings produced a file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchRecord<T> {
    /// The header schema tag ([`BENCH_SCHEMA`]).
    pub schema: String,
    /// Bench name (the record's file stem).
    pub bench: String,
    /// The `HADAS_SCALE` preset the run resolved to ([`Scale::name`]).
    pub scale: String,
    /// The bench's base seed echo.
    pub seed: u64,
    /// The payload rows.
    pub rows: T,
}

/// One scatter point of Fig. 5 (top or bottom).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScatterPoint {
    /// X coordinate (energy mJ for the top row, energy gain for the bottom).
    pub x: f64,
    /// Y coordinate (accuracy % for the top row, mean `N_i` for the bottom).
    pub y: f64,
    /// Whether the point lies on its run's Pareto front.
    pub pareto: bool,
}

/// One hardware setting's worth of Fig. 5 data.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig5Panel {
    /// Hardware setting name.
    pub hardware: String,
    /// Explored points by HADAS.
    pub hadas: Vec<ScatterPoint>,
    /// Baseline points (a0..a6 for the top row; optimized-baseline IOE
    /// points for the bottom row).
    pub baselines: Vec<ScatterPoint>,
}

/// One bar pair of Fig. 6.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig6Bar {
    /// Hardware setting name.
    pub hardware: String,
    /// Hypervolume of the HADAS front.
    pub hadas_hv: f64,
    /// Hypervolume of the optimized-baseline front.
    pub baseline_hv: f64,
    /// Fraction of HADAS solutions dominating a baseline solution.
    pub hadas_rod: f64,
    /// Fraction of baseline solutions dominating a HADAS solution.
    pub baseline_rod: f64,
}

/// One row of Table III.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table3Row {
    /// Model name (`AttentiveNAS_a0`, `HADAS_b1`, ...).
    pub model: String,
    /// Static accuracy (%).
    pub baseline_acc: f64,
    /// Early-exit (ideal mapping) accuracy (%).
    pub eex_acc: f64,
    /// Static energy at default clocks (mJ).
    pub baseline_energy_mj: f64,
    /// Dynamic energy with early exits at default clocks (mJ).
    pub eex_energy_mj: f64,
    /// Dynamic energy with early exits and optimised DVFS (mJ).
    pub eex_dvfs_energy_mj: f64,
}

/// Ambient inputs for a bench binary, read once at the `main` boundary.
///
/// The library itself never touches the process environment (the
/// determinism audit's `ambient-env` lint forbids it): binaries read
/// `HADAS_SCALE` / `HADAS_RESULTS_DIR` — usually via [`bench_env!`] —
/// and hand the values in, so library behaviour is a pure function of
/// this struct.
#[derive(Debug, Clone, Default)]
pub struct BenchEnv {
    scale: Scale,
    results_override: Option<PathBuf>,
}

impl BenchEnv {
    /// Packs ambient values read by the caller: the `HADAS_SCALE` preset
    /// name (`mid` | `paper`; unset or anything else is `quick`) and an
    /// optional `HADAS_RESULTS_DIR` override.
    pub fn new(scale: Option<String>, results_override: Option<PathBuf>) -> BenchEnv {
        let scale = scale.as_deref().and_then(Scale::parse).unwrap_or_default();
        BenchEnv { scale, results_override }
    }

    /// The budget preset this environment resolved to.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// The directory experiment JSON lands in (`results/` at the
    /// workspace root unless overridden).
    pub fn results_dir(&self) -> PathBuf {
        // The binaries run from the workspace root under `cargo run`.
        self.results_override.clone().unwrap_or_else(|| PathBuf::from("results"))
    }

    /// Writes `<name>.json` under [`BenchEnv::results_dir`] as a
    /// [`BenchRecord`]: the schema tag, the bench name, the resolved
    /// preset name, the base seed, and the rows.
    ///
    /// # Errors
    ///
    /// Returns I/O or serialisation failures for the caller's `main` to
    /// surface — the harness fails loudly instead of dropping results.
    pub fn write_bench<T: Serialize>(
        &self,
        name: &str,
        seed: u64,
        rows: &T,
    ) -> Result<PathBuf, Box<dyn std::error::Error>> {
        let record = BenchRecord {
            schema: BENCH_SCHEMA.to_string(),
            bench: name.to_string(),
            scale: self.scale.name().to_string(),
            seed,
            rows,
        };
        let dir = self.results_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, serde_json::to_string_pretty(&record)?)?;
        println!("[results] wrote {}", path.display());
        Ok(path)
    }
}

/// Builds a [`BenchEnv`] by reading `HADAS_SCALE` and
/// `HADAS_RESULTS_DIR` **at the expansion site** — intended for bench
/// binaries' `main`, which is the sanctioned ambient boundary. The env
/// reads expand into the binary, not this library.
#[macro_export]
macro_rules! bench_env {
    () => {
        $crate::BenchEnv::new(
            ::std::env::var("HADAS_SCALE").ok(),
            ::std::env::var("HADAS_RESULTS_DIR").ok().map(::std::path::PathBuf::from),
        )
    };
}

/// Decodes the seven AttentiveNAS baselines against the standard space.
///
/// # Errors
///
/// Returns the space error if a baseline genome does not decode.
pub fn baseline_subnets(hadas: &Hadas) -> Result<Vec<(String, Subnet)>, HadasError> {
    Ok(baselines::attentive_nas_baselines(hadas.space())?)
}

/// Runs the inner engine on each AttentiveNAS baseline with the same
/// budget HADAS's own backbones get — the paper's "optimized baselines".
///
/// # Errors
///
/// Returns decoding or inner-engine errors.
pub fn optimized_baselines(
    hadas: &Hadas,
    config: &HadasConfig,
) -> Result<Vec<(String, IoeOutcome)>, HadasError> {
    baseline_subnets(hadas)?
        .into_iter()
        .enumerate()
        .map(|(i, (name, subnet))| {
            Ok((name, hadas.run_ioe(&subnet, config, config.seed ^ (0xBA5E + i as u64))?))
        })
        .collect()
}

/// Picks the deployment configuration from an inner-search Pareto set: the
/// minimum-energy solution that is **no slower than the static baseline**
/// (`max_latency_ms`) and meets an accuracy floor. This mirrors how the
/// paper reports its Table III picks: dynamic models trade their latency
/// headroom for DVFS energy, but never regress past the static model's
/// latency — which is why compact models (little headroom) gain only a few
/// percent from DVFS while large ones gain 15–33%.
pub fn select_solution(
    ioe: &IoeOutcome,
    max_latency_ms: f64,
    acc_floor: f64,
) -> Option<&hadas::IoeSolution> {
    hadas::DeploymentPicker::new()
        .max_latency_ms(max_latency_ms)
        .min_accuracy_pct(acc_floor)
        .pick(ioe)
}

/// Pretty percent formatting helper.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// A thin separator line for table output.
pub fn rule(width: usize) -> String {
    "-".repeat(width)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hadas_hw::HwTarget;

    #[test]
    fn scale_env_maps_through_the_preset_table() {
        let scale = |v: Option<&str>| BenchEnv::new(v.map(String::from), None).scale();
        assert_eq!(BenchEnv::default().scale(), Scale::Quick);
        assert_eq!(scale(None), Scale::Quick);
        assert_eq!(scale(Some("quick")), Scale::Quick);
        assert_eq!(scale(Some("mid")), Scale::Mid);
        assert_eq!(scale(Some("paper")), Scale::Paper);
        for unknown in ["", "huge", "Paper", " mid"] {
            assert_eq!(scale(Some(unknown)), Scale::Quick, "{unknown:?}");
        }
    }

    #[test]
    fn results_override_is_pure() {
        let env = BenchEnv::new(None, Some(PathBuf::from("elsewhere")));
        assert_eq!(env.results_dir(), PathBuf::from("elsewhere"));
        assert_eq!(BenchEnv::default().results_dir(), PathBuf::from("results"));
    }

    #[test]
    fn write_bench_stamps_the_header_with_the_preset_name() {
        let dir = std::env::temp_dir().join(format!("hadas-bench-header-{}", std::process::id()));
        for scale in Scale::ALL {
            let env = BenchEnv::new(Some(scale.name().into()), Some(dir.clone()));
            let rows = vec![ScatterPoint { x: 1.0, y: 2.0, pareto: true }];
            let path = env.write_bench("header_probe", 42, &rows).unwrap();
            let text = std::fs::read_to_string(&path).unwrap();
            let back: BenchRecord<Vec<ScatterPoint>> = serde_json::from_str(&text).unwrap();
            assert_eq!(back.schema, BENCH_SCHEMA);
            assert_eq!(back.bench, "header_probe");
            assert_eq!(back.scale, scale.name());
            assert_eq!(back.seed, 42);
            assert_eq!(back.rows, rows);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scatter_points_serialize_compactly() {
        let p = ScatterPoint { x: 1.0, y: 2.0, pareto: true };
        let json = serde_json::to_string(&p).unwrap();
        assert!(json.contains("\"pareto\":true"));
    }

    #[test]
    fn baselines_available_for_every_target() {
        for t in HwTarget::ALL {
            let hadas = Hadas::for_target(t);
            assert_eq!(baseline_subnets(&hadas).unwrap().len(), 7);
        }
    }
}
