//! Regenerates **Fig. 7**: the dissimilarity-regularizer ablation — the
//! inner engine run on one fixed backbone with `dissimᵞ` disabled vs
//! enabled, over a low and a high range of γ.

use hadas::Hadas;
use hadas_bench::bench_env;
use hadas_evo::{fast_non_dominated_sort, ratio_of_dominance};
use hadas_hw::HwTarget;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct AblationRun {
    label: String,
    gamma: f64,
    dissim: bool,
    front: Vec<Vec<f64>>, // (energy gain, mean N_i)
    best_gain: f64,
    best_mean_n: f64,
}

fn front_of(axes: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let fronts = fast_non_dominated_sort(axes);
    fronts.first().map(|f| f.iter().map(|&i| axes[i].clone()).collect()).unwrap_or_default()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let hadas = Hadas::for_target(HwTarget::Tx2PascalGpu);
    let env = bench_env!();
    let base_cfg = env.scale().config();
    // One fixed backbone, as in the paper's ablation.
    let subnet = hadas.space().decode(&hadas_space::baselines::baseline_genome(3))?;

    let variants: Vec<(String, bool, f64)> = vec![
        ("no dissim".into(), false, 0.0),
        ("gamma 0.5 (low)".into(), true, 0.5),
        ("gamma 1.0 (low)".into(), true, 1.0),
        ("gamma 2.0 (high)".into(), true, 2.0),
        ("gamma 4.0 (high)".into(), true, 4.0),
    ];

    let mut runs = Vec::new();
    for (label, dissim, gamma) in variants {
        let cfg = base_cfg.clone().with_dissimilarity(dissim, gamma);
        let ioe = hadas.run_ioe(&subnet, &cfg, 0xF167)?;
        let axes = ioe.history_axes();
        let front = front_of(&axes);
        let best_gain = front.iter().map(|p| p[0]).fold(f64::MIN, f64::max);
        let best_mean_n = front.iter().map(|p| p[1]).fold(f64::MIN, f64::max);
        runs.push(AblationRun { label, gamma, dissim, front, best_gain, best_mean_n });
    }

    println!("FIG. 7 — dissimilarity ablation on one backbone (TX2 Pascal GPU)");
    println!("{:<18} {:>12} {:>12} {:>8}", "Variant", "best gain", "best mean N", "front");
    println!("{}", "-".repeat(56));
    for r in &runs {
        println!(
            "{:<18} {:>11.0}% {:>12.3} {:>8}",
            r.label,
            r.best_gain * 100.0,
            r.best_mean_n,
            r.front.len()
        );
    }

    let without = &runs[0];
    println!();
    for r in runs.iter().skip(1) {
        let rod_with = ratio_of_dominance(&r.front, &without.front);
        let rod_without = ratio_of_dominance(&without.front, &r.front);
        println!(
            "{}: RoD {:.0}% vs {:.0}% against no-dissim (paper: dissim improves RoD by ~41%)",
            r.label,
            rod_with * 100.0,
            rod_without * 100.0
        );
    }
    let best_with = runs[1..].iter().map(|r| r.best_gain).fold(f64::MIN, f64::max);
    println!(
        "extreme energy gain: {:.0}% with dissim vs {:.0}% without (paper: ~52% better extremes)",
        best_with * 100.0,
        without.best_gain * 100.0
    );
    env.write_bench("fig7_dissim", base_cfg.seed, &runs)?;
    Ok(())
}
