//! Search-efficiency curve: static-front hypervolume vs evaluation count,
//! per hardware setting — quantifying the paper's §V-B observation that
//! "HADAS can identify comparable backbones to the baselines with just a
//! few evaluations".
//!
//! For each target the binary reports how many evaluations the OOE needs
//! before its running Pareto front first dominates each baseline.

use hadas::Hadas;
use hadas_bench::{baseline_subnets, bench_env};
use hadas_evo::{dominates, hypervolume_2d};
use hadas_hw::{HwError, HwTarget};
use serde::Serialize;

#[derive(Debug, Serialize)]
struct ConvergencePanel {
    hardware: String,
    /// (evaluations, hypervolume) samples of the running front.
    curve: Vec<(usize, f64)>,
    /// Evaluations needed to first dominate each baseline (name, evals).
    first_domination: Vec<(String, Option<usize>)>,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let env = bench_env!();
    let cfg = env.scale().config();
    let mut panels = Vec::new();
    for target in HwTarget::ALL {
        let hadas = Hadas::for_target(target);
        let outcome = hadas.run(&cfg)?;
        let axes = outcome.static_axes();

        // Baselines as (name, [acc, -energy]) targets to dominate.
        let device = hadas.device();
        let baselines = baseline_subnets(&hadas)?
            .into_iter()
            .map(|(name, subnet)| {
                let cost = device.subnet_cost(&subnet, &device.default_dvfs())?;
                Ok((name, vec![hadas.accuracy().backbone_accuracy(&subnet), -cost.energy_mj()]))
            })
            .collect::<Result<Vec<(String, Vec<f64>)>, HwError>>()?;

        // Reference point: slightly worse than anything explored.
        let min_acc = axes.iter().map(|p| p[0]).fold(f64::INFINITY, f64::min) - 1.0;
        let min_ne = axes.iter().map(|p| p[1]).fold(f64::INFINITY, f64::min) - 10.0;
        let reference = [min_acc, min_ne];

        let mut front: Vec<Vec<f64>> = Vec::new();
        let mut curve = Vec::new();
        let mut first: Vec<Option<usize>> = vec![None; baselines.len()];
        for (i, p) in axes.iter().enumerate() {
            if !front.iter().any(|f| dominates(f, p) || f == p) {
                front.retain(|f| !dominates(p, f));
                front.push(p.clone());
            }
            for (k, (_, b)) in baselines.iter().enumerate() {
                if first[k].is_none() && front.iter().any(|f| dominates(f, b)) {
                    first[k] = Some(i + 1);
                }
            }
            let step = (axes.len() / 12).max(1);
            if (i + 1) % step == 0 || i + 1 == axes.len() {
                curve.push((i + 1, hypervolume_2d(&front, &reference)));
            }
        }

        println!("== {} ==", target.name());
        let final_hv = curve.last().map(|&(_, h)| h).unwrap_or(0.0);
        for &(evals, hv) in &curve {
            println!("  {evals:>4} evals: HV {:.1} ({:.0}% of final)", hv, hv / final_hv * 100.0);
        }
        for (k, (name, _)) in baselines.iter().enumerate() {
            match first[k] {
                Some(e) => println!("  dominates {name} after {e} evaluations"),
                None => println!("  never dominates {name} at this budget"),
            }
        }
        panels.push(ConvergencePanel {
            hardware: target.name().to_string(),
            curve,
            first_domination: baselines
                .iter()
                .map(|(n, _)| n.clone())
                .zip(first.iter().copied())
                .collect(),
        });
    }
    // The paper's qualitative claim: most of the final front quality
    // arrives early.
    let early_share: f64 = panels
        .iter()
        .filter_map(|p| {
            let (evals, final_hv) = *p.curve.last()?;
            let early = p.curve.iter().find(|&&(e, _)| e * 3 >= evals)?;
            Some(early.1 / final_hv)
        })
        .sum::<f64>()
        / panels.len() as f64;
    println!();
    println!(
        "on average the first third of the budget reaches {:.0}% of the final hypervolume",
        early_share * 100.0
    );
    env.write_bench("convergence", cfg.seed, &panels)?;
    Ok(())
}
