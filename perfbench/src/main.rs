//! `hadas-perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--bless]`
//!
//! Prints one JSON result line last on standard output, a readable
//! summary on standard error, and writes the full record (provenance,
//! samples, modelled values, spans) under `perfbench/out/`.

use hadas_perfbench::metrics::{json_number, result_line};
use hadas_perfbench::run::{measure, trace_run, RunOutcome};
use hadas_perfbench::stats::{git_rev, median, nproc, rustc_version, tail};
use hadas_perfbench::workload::{BenchError, Budget, Expected, Workload};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{SystemTime, UNIX_EPOCH};

const MANIFEST_DIR: &str = env!("CARGO_MANIFEST_DIR");

#[derive(Debug)]
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    bless: bool,
}

fn parse_args() -> Result<Args, BenchError> {
    let mut args =
        Args { workloads: Vec::new(), seed: 1, seconds: 10.0, trace: false, bless: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            args.bless = true;
            continue;
        }
        let value = it.next().ok_or_else(|| BenchError(format!("{flag} needs a value")))?;
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                let w = Workload::parse(&value)
                    .ok_or_else(|| BenchError(format!("unknown workload {value}")))?;
                args.workloads = vec![w];
            }
            "--seed" => {
                args.seed = value.parse().map_err(|_| BenchError(format!("bad seed {value}")))?
            }
            "--seconds" => {
                args.seconds =
                    value.parse().map_err(|_| BenchError(format!("bad seconds {value}")))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(BenchError(format!("--trace takes 0 or 1, not {value}"))),
                }
            }
            _ => return Err(BenchError(format!("unknown flag {flag}"))),
        }
    }
    if args.workloads.is_empty() {
        return Err(BenchError("--workload is required".into()));
    }
    Ok(args)
}

/// `s` as a JSON string literal.
fn json_string(s: &str) -> String {
    serde_json::to_string(s).unwrap_or_else(|_| "\"\"".to_string())
}

fn expected_path() -> PathBuf {
    Path::new(MANIFEST_DIR).join("expected.json")
}

fn record_json(
    w: Workload,
    args: &Args,
    budget: &Budget,
    out: &RunOutcome,
    rustc: &str,
    rev: &str,
) -> String {
    let list = |xs: &[f64]| xs.iter().map(|v| json_number(*v)).collect::<Vec<_>>().join(", ");
    let tail = match tail(&out.op_wall_s) {
        Some((q, v)) => {
            format!("{{\"quantile\": {}, \"value_s\": {}}}", json_number(q), json_number(v))
        }
        None => "null".to_string(),
    };
    let failures: Vec<String> = out.tally.failures.iter().map(|f| json_string(f)).collect();
    format!(
        "{{\n  \"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"run_seconds\": {}, \
         \"budget\": \"{}\", \"workers\": {}, \"nproc\": {}, \"rustc\": {}, \"git_rev\": {}}},\n  \
         \"metrics\": {},\n  \"failed_ops_ratio\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \
         \"failures\": [{}],\n  \"samples\": {},\n  \"op_wall_s\": [{}],\n  \"op_wall_median_s\": {},\n  \"op_cpu_s\": [{}],\n  \
         \"op_wall_tail\": {},\n  \"peak_rss_mb\": {},\n  \"modelled\": {{\"modeled_makespan_ms\": {}, \
         \"note\": \"virtual time from the executor model, not a speed\"}}\n}}\n",
        w.name(),
        args.seed,
        u8::from(args.trace),
        json_number(args.seconds),
        budget.label,
        w.workers(),
        nproc(),
        json_string(rustc),
        json_string(rev),
        out.metrics.to_json(),
        json_number(out.tally.failed_ops_ratio()),
        out.tally.attempted,
        out.tally.failed,
        failures.join(", "),
        out.samples,
        list(&out.op_wall_s),
        json_number(median(&out.op_wall_s)),
        list(&out.op_cpu_s),
        tail,
        json_number(out.peak_rss_mb),
        json_number(out.modeled_makespan_ms),
    )
}

fn write_record(
    w: Workload,
    args: &Args,
    record: &str,
    out: &RunOutcome,
) -> Result<(), BenchError> {
    let dir = Path::new(MANIFEST_DIR).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| BenchError(format!("{}: {e}", dir.display())))?;
    let stem = format!("{}-seed{}-trace{}", w.name(), args.seed, u8::from(args.trace));
    let io = |e: std::io::Error| BenchError(format!("writing the record: {e}"));
    std::fs::write(dir.join(format!("{stem}.json")), record).map_err(io)?;
    if args.trace {
        std::fs::write(dir.join(format!("{stem}.spans.jsonl")), out.tracer.to_json_lines())
            .map_err(io)?;
    }
    Ok(())
}

fn summary(w: Workload, out: &RunOutcome) -> String {
    let mut lines = String::new();
    for (name, unit, value) in out.metrics.iter() {
        lines.push_str(&format!("{:<14} {name:<44} {value:>16.6} {unit}\n", w.name()));
    }
    lines.push_str(&format!(
        "{:<14} {:<44} {:>16.6} ratio ({} of {} operations failed; {} timed samples)\n",
        w.name(),
        "failed_ops_ratio",
        out.tally.failed_ops_ratio(),
        out.tally.failed,
        out.tally.attempted,
        out.samples
    ));
    lines.push_str(&format!(
        "{:<14} {:<44} {:>16.6} s (wall-clock median per operation)\n",
        w.name(),
        "op_wall_median_s",
        median(&out.op_wall_s)
    ));
    lines.push_str(&format!(
        "{:<14} {:<44} {:>16.3} ms (modelled virtual time, not a speed)\n",
        w.name(),
        "modeled_makespan_ms",
        out.modeled_makespan_ms
    ));
    for f in &out.tally.failures {
        lines.push_str(&format!("{:<14} FAILED: {f}\n", w.name()));
    }
    lines
}

/// Operations blessed per seed: at least as many as a run makes.
fn bless_ops(w: Workload) -> usize {
    match w {
        Workload::SearchPaper => Budget::standard().paper_ops,
        Workload::SearchSweep => 48,
        Workload::FleetDrift => 32,
    }
}

fn bless(args: &Args, budget: &Budget) -> Result<(), BenchError> {
    let path = expected_path();
    let text = std::fs::read_to_string(&path).unwrap_or_else(|_| "{}".to_string());
    let mut expected = Expected::parse(&text)?;
    for &w in &args.workloads {
        // Fingerprint the operations a run makes, checked against nothing
        // stored; with no time left, each operation runs exactly once.
        let run = measure(w, budget, args.seed, 0.0, bless_ops(w), &Expected::default())?;
        if run.tally.failed > 0 {
            return Err(BenchError(format!(
                "{}: refusing to bless a failing run: {:?}",
                w.name(),
                run.tally.failures
            )));
        }
        for (op, fp) in run.fingerprints.iter().enumerate() {
            expected.set(w, args.seed, op, *fp);
        }
        eprintln!("blessed {} seed {}: {} operations", w.name(), args.seed, run.fingerprints.len());
    }
    std::fs::write(&path, expected.to_json())
        .map_err(|e| BenchError(format!("{}: {e}", path.display())))
}

fn run(args: &Args) -> Result<String, BenchError> {
    let budget = Budget::standard();
    let text = std::fs::read_to_string(expected_path())
        .map_err(|e| BenchError(format!("{}: {e}", expected_path().display())))?;
    let expected = Expected::parse(&text)?;
    let (rustc, rev) = (rustc_version(), git_rev());
    let run_id = args.seed
        ^ u64::from(std::process::id()).rotate_left(32)
        ^ SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_nanos() as u64);
    let (mut attempted, mut failed, mut reported) = (0, 0, Vec::new());
    for &w in &args.workloads {
        let out = if args.trace {
            trace_run(w, &budget, args.seed, &expected, run_id)?
        } else {
            measure(w, &budget, args.seed, args.seconds, budget.min_ops(w), &expected)?
        };
        let record = record_json(w, args, &budget, &out, &rustc, &rev);
        write_record(w, args, &record, &out)?;
        eprint!("{}", summary(w, &out));
        attempted += out.tally.attempted;
        failed += out.tally.failed;
        reported.push((w, out.metrics));
    }
    Ok(match reported.as_slice() {
        [(_, metrics)] => result_line(attempted, failed, metrics),
        many => {
            // Several workloads: one metrics object per workload.
            let per: Vec<String> =
                many.iter().map(|(w, m)| format!("\"{}\": {}", w.name(), m.to_json())).collect();
            format!(
                "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
                failed == 0,
                per.join(", ")
            )
        }
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.bless {
        return match bless(&args, &Budget::standard()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
