//! Search-plane scaling study: the full bi-level search on the TX2 GPU
//! driven through the supervised parallel executor at 1/2/4/8 worker
//! lanes, plus one run under execution-plane chaos. Reports the
//! *virtual-time* generation throughput — the executor's deterministic
//! modeled makespan (round-robin lanes, slowest lane charged), not wall
//! clock — so the scaling curve reproduces bit-for-bit on any host,
//! including single-core CI runners.
//!
//! Writes `results/BENCH_search.json`; asserts in-binary that
//!
//! 1. the serialized Pareto front is byte-identical at every worker
//!    count (and under healed worker-crash chaos), and
//! 2. generation throughput grows monotonically from 1 to 8 workers.

use hadas::executor::ExecTelemetry;
use hadas::{Hadas, OoeOutcome, RetryPolicy, SearchOptions};
use hadas_bench::bench_env;
use hadas_hw::HwTarget;
use hadas_runtime::{FaultConfig, FaultInjector};
use serde::Serialize;
use std::sync::Arc;

#[derive(Debug, Serialize)]
struct SearchRow {
    workers: usize,
    chaos: bool,
    generations: usize,
    evaluated_backbones: usize,
    pareto_models: usize,
    /// Deterministic virtual-time makespan of all supervised phases.
    modeled_makespan_ms: f64,
    /// Generations per modeled second — the scaling figure of merit.
    generation_throughput: f64,
    /// Execution-plane resilience counters (lane respawns included) —
    /// the same schema `BENCH_serve.json` rows embed.
    executor: ExecTelemetry,
}

impl SearchRow {
    fn from_outcome(workers: usize, chaos: bool, out: &OoeOutcome) -> Self {
        let generations = out.telemetry().generations_completed;
        let modeled_ms = out.modeled_makespan_ms();
        SearchRow {
            workers,
            chaos,
            generations,
            evaluated_backbones: out.backbones().len(),
            pareto_models: out.pareto_models().len(),
            modeled_makespan_ms: modeled_ms,
            generation_throughput: generations as f64 / (modeled_ms / 1e3).max(1e-9),
            executor: *out.exec_telemetry(),
        }
    }
}

/// The same serialized-front shape the `hadas search --json` CLI writes
/// — the byte-identity payload.
fn front_json(out: &OoeOutcome) -> Result<String, serde_json::Error> {
    let models: Vec<serde_json::Value> = out
        .pareto_models()
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
    serde_json::to_string(&models)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = bench_env!().scale().config().with_seed(7);
    let hadas = Hadas::for_target(HwTarget::Tx2PascalGpu);
    // Six attempts make a dead letter under worker chaos a ~1e-6 event;
    // pinned on every run so only lanes/chaos vary across rows.
    let retry = RetryPolicy { max_attempts: 6, ..RetryPolicy::default() };

    println!("SEARCH — supervised executor scaling on {}", HwTarget::Tx2PascalGpu.name());
    println!(
        "{:<8} {:>6} {:>6} {:>8} {:>14} {:>12} {:>8} {:>8}",
        "workers", "chaos", "gens", "evals", "makespan(ms)", "gen/s(model)", "crashes", "dead"
    );
    println!("{}", "-".repeat(78));

    let mut rows: Vec<SearchRow> = Vec::new();
    let mut reference_front: Option<String> = None;
    for workers in [1usize, 2, 4, 8] {
        let opts = SearchOptions { workers, retry, ..SearchOptions::default() };
        let out = hadas.run_with(&cfg, &opts)?;
        let front = front_json(&out)?;
        match &reference_front {
            None => reference_front = Some(front),
            Some(reference) => assert_eq!(
                reference, &front,
                "the serialized front must be byte-identical at {workers} workers"
            ),
        }
        rows.push(SearchRow::from_outcome(workers, false, &out));
    }

    // One chaotic run at full width: crashes respawn, lost evaluations
    // re-dispatch, and the healed front still matches byte-for-byte.
    let injector = FaultInjector::new(FaultConfig::worker_chaos(7))?;
    let chaos_opts = SearchOptions {
        workers: 8,
        retry,
        exec_chaos: Some(Arc::new(injector)),
        ..SearchOptions::default()
    };
    let chaotic = hadas.run_with(&cfg, &chaos_opts)?;
    assert!(chaotic.exec_telemetry().crashes > 0, "the chaos preset must inject crashes");
    assert_eq!(
        chaotic.exec_telemetry().dead_letter_jobs,
        0,
        "six attempts must heal every injected fault"
    );
    assert_eq!(
        reference_front.as_deref(),
        Some(front_json(&chaotic)?.as_str()),
        "the healed chaotic front must be byte-identical to the fault-free one"
    );
    rows.push(SearchRow::from_outcome(8, true, &chaotic));

    for row in &rows {
        println!(
            "{:<8} {:>6} {:>6} {:>8} {:>14.1} {:>12.3} {:>8} {:>8}",
            row.workers,
            if row.chaos { "yes" } else { "no" },
            row.generations,
            row.evaluated_backbones,
            row.modeled_makespan_ms,
            row.generation_throughput,
            row.executor.crashes,
            row.executor.dead_letter_jobs
        );
    }

    let clean: Vec<&SearchRow> = rows.iter().filter(|r| !r.chaos).collect();
    for pair in clean.windows(2) {
        assert!(
            pair[1].generation_throughput >= pair[0].generation_throughput,
            "modeled generation throughput must be monotone in the lane count \
             ({} workers: {} vs {} workers: {})",
            pair[1].workers,
            pair[1].generation_throughput,
            pair[0].workers,
            pair[0].generation_throughput
        );
    }
    if let (Some(first), Some(last)) = (clean.first(), clean.last()) {
        assert!(
            last.generation_throughput > first.generation_throughput,
            "8 lanes must beat 1 lane in modeled throughput"
        );
    }
    println!();
    println!("modeled generation throughput grows monotonically 1 -> 8 workers");
    println!("front byte-identical across all worker counts and under healed chaos");

    bench_env!().write_bench("BENCH_search", 7, &rows)?;
    Ok(())
}
