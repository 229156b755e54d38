//! Ablation: the OOE's early-selection pruning (`P' ⊂ P`). Compares a
//! pruned run (the paper's design) against running an IOE for *every*
//! population member, at the same per-IOE budget, reporting final-front
//! quality and the number of IOE invocations (the dominant search cost).

use hadas::{Hadas, HadasConfig};
use hadas_bench::bench_env;
use hadas_evo::{fast_non_dominated_sort, hypervolume_2d};
use hadas_hw::HwTarget;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct PruningRun {
    prune_fraction: f64,
    ioe_invocations: usize,
    joint_models: usize,
    front_hv: f64,
}

fn run(base: &HadasConfig, prune_fraction: f64) -> Result<PruningRun, hadas::HadasError> {
    let hadas = Hadas::for_target(HwTarget::Tx2PascalGpu);
    let cfg = HadasConfig { prune_fraction, ..base.clone() };
    let outcome = hadas.run(&cfg)?;
    let ioe_invocations = outcome.backbones().iter().filter(|b| b.ioe.is_some()).count();
    let models = outcome.pareto_models();
    let axes: Vec<Vec<f64>> = models
        .iter()
        .map(|m| vec![m.dynamic.energy_gain, m.dynamic.accuracy_pct / 100.0])
        .collect();
    let fronts = fast_non_dominated_sort(&axes);
    let front: Vec<Vec<f64>> =
        fronts.first().map(|f| f.iter().map(|&i| axes[i].clone()).collect()).unwrap_or_default();
    Ok(PruningRun {
        prune_fraction,
        ioe_invocations,
        joint_models: models.len(),
        front_hv: hypervolume_2d(&front, &[-0.5, 0.0]),
    })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let env = bench_env!();
    let cfg = env.scale().config();
    println!("ABLATION — OOE early-selection pruning (TX2 Pascal GPU)");
    println!(
        "{:>15} {:>17} {:>13} {:>10}",
        "prune fraction", "IOE invocations", "joint models", "front HV"
    );
    println!("{}", "-".repeat(60));
    let mut runs = Vec::new();
    for f in [0.25, 0.5, 1.0] {
        let r = run(&cfg, f)?;
        println!(
            "{:>15.2} {:>17} {:>13} {:>10.4}",
            r.prune_fraction, r.ioe_invocations, r.joint_models, r.front_hv
        );
        runs.push(r);
    }
    let pruned = &runs[0];
    let full = &runs[2];
    println!();
    println!(
        "pruning cuts IOE invocations by {:.0}% while retaining {:.0}% of the full-front HV",
        (1.0 - pruned.ioe_invocations as f64 / full.ioe_invocations as f64) * 100.0,
        pruned.front_hv / full.front_hv * 100.0
    );
    env.write_bench("ablation_pruning", cfg.seed, &runs)?;
    Ok(())
}
