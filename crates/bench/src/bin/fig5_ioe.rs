//! Regenerates **Fig. 5 (bottom row)**: the inner optimization engine's
//! explored `(b, x, f)` combinations — energy-efficiency gain vs mean
//! `N_i` — for HADAS and the optimized AttentiveNAS baselines, on all four
//! hardware settings.

use hadas::Hadas;
use hadas_bench::{bench_env, optimized_baselines, Fig5Panel, ScatterPoint};
use hadas_evo::{fast_non_dominated_sort, ratio_of_dominance};
use hadas_hw::HwTarget;

fn to_points(axes: &[Vec<f64>]) -> Vec<ScatterPoint> {
    let fronts = fast_non_dominated_sort(axes);
    let front: Vec<usize> = fronts.first().cloned().unwrap_or_default();
    axes.iter()
        .enumerate()
        .map(|(i, a)| ScatterPoint { x: a[0], y: a[1], pareto: front.contains(&i) })
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let env = bench_env!();
    let cfg = env.scale().config();
    let mut panels = Vec::new();
    let mut rod_sum = 0.0;
    for target in HwTarget::ALL {
        let hadas = Hadas::for_target(target);

        // HADAS side: joint run, collect every IOE point of every promoted
        // backbone (the (B, X, F) cloud of the figure).
        let outcome = hadas.run(&cfg)?;
        let mut hadas_axes: Vec<Vec<f64>> = Vec::new();
        for b in outcome.backbones() {
            if let Some(ioe) = &b.ioe {
                hadas_axes.extend(ioe.history_axes());
            }
        }

        // Baseline side: the same IOE budget spent on a0..a6.
        let mut baseline_axes: Vec<Vec<f64>> = Vec::new();
        for (_, ioe) in optimized_baselines(&hadas, &cfg)? {
            baseline_axes.extend(ioe.history_axes());
        }

        let hadas_front: Vec<Vec<f64>> = {
            let fronts = fast_non_dominated_sort(&hadas_axes);
            fronts[0].iter().map(|&i| hadas_axes[i].clone()).collect()
        };
        let base_front: Vec<Vec<f64>> = {
            let fronts = fast_non_dominated_sort(&baseline_axes);
            fronts[0].iter().map(|&i| baseline_axes[i].clone()).collect()
        };
        let rod = ratio_of_dominance(&hadas_front, &base_front);
        rod_sum += rod;

        let h_best_gain = hadas_front.iter().map(|p| p[0]).fold(f64::MIN, f64::max);
        let b_best_gain = base_front.iter().map(|p| p[0]).fold(f64::MIN, f64::max);
        println!("== {} ==", target.name());
        println!(
            "  HADAS: {} points, front {} | baselines: {} points, front {}",
            hadas_axes.len(),
            hadas_front.len(),
            baseline_axes.len(),
            base_front.len()
        );
        println!(
            "  extreme energy gain: HADAS {:.0}% vs baselines {:.0}%  (paper e.g. 63% vs 52% on Carmel)",
            h_best_gain * 100.0,
            b_best_gain * 100.0
        );
        println!("  HADAS front dominance over baseline front: {:.0}%", rod * 100.0);

        panels.push(Fig5Panel {
            hardware: target.name().to_string(),
            hadas: to_points(&hadas_axes),
            baselines: to_points(&baseline_axes),
        });
    }
    println!();
    println!(
        "average ratio of dominance across the 4 settings: {:.1}% (paper: 58.4%)",
        rod_sum / 4.0 * 100.0
    );
    for panel in &panels {
        let slug = panel.hardware.to_lowercase().replace([' ', '.'], "_");
        hadas_bench::svg::write_svg(
            &env.results_dir(),
            &format!("fig5_ioe_{slug}"),
            &hadas_bench::svg::scatter_panel(
                &format!("Fig. 5 (bottom) — {}", panel.hardware),
                "energy gain",
                "mean N_i",
                &panel.hadas,
                &panel.baselines,
            ),
        )?;
    }
    env.write_bench("fig5_ioe", cfg.seed, &panels)?;
    Ok(())
}
