//! Regenerates **Table III**: DyNN comparison on the TX2 Pascal GPU —
//! static (baseline) accuracy/energy, early-exit accuracy/energy, and
//! early-exit + DVFS energy for AttentiveNAS a0/a6 and the top HADAS
//! models b1..b4.
//!
//! Deployment picks follow the paper's reporting convention: from each
//! model's inner-search Pareto set, take the minimum-energy configuration
//! that is no slower than the static baseline and meets the accuracy bar.

use hadas::{DynamicModel, Hadas, HadasConfig, HadasError, IoeOutcome};
use hadas_bench::{bench_env, select_solution, Table3Row};
use hadas_hw::HwTarget;
use hadas_space::Subnet;

/// Builds one table row, or `None` when no configuration is no slower
/// than static. `acc_floor` is the minimum dynamic accuracy the chosen
/// configuration must reach (0 for "just minimise energy").
fn row(
    hadas: &Hadas,
    cfg: &HadasConfig,
    name: &str,
    subnet: &Subnet,
    ioe: &IoeOutcome,
    acc_floor: f64,
) -> Result<Option<Table3Row>, HadasError> {
    let device = hadas.device();
    let static_cost = device.subnet_cost(subnet, &device.default_dvfs())?;
    let Some(chosen) = select_solution(ioe, static_cost.latency_ms(), acc_floor) else {
        return Ok(None);
    };
    // EEx column: the chosen exits evaluated at default clocks.
    let eex = DynamicModel::new(subnet.clone(), chosen.placement.clone(), device.default_dvfs())
        .evaluate(hadas.accuracy(), device, cfg.gamma, cfg.use_dissimilarity)?;
    Ok(Some(Table3Row {
        model: name.to_string(),
        baseline_acc: hadas.accuracy().backbone_accuracy(subnet),
        eex_acc: eex.fitness.accuracy_pct,
        baseline_energy_mj: static_cost.energy_mj(),
        eex_energy_mj: eex.fitness.energy_mj,
        eex_dvfs_energy_mj: chosen.fitness.energy_mj,
    }))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let hadas = Hadas::for_target(HwTarget::Tx2PascalGpu);
    let env = bench_env!();
    let cfg = env.scale().config();
    let nets = hadas_bench::baseline_subnets(&hadas)?;

    let mut rows = Vec::new();
    for idx in [0usize, 6] {
        let (name, subnet) = &nets[idx];
        let ioe = hadas.run_ioe(subnet, &cfg, cfg.seed ^ (0xBA5E + idx as u64))?;
        let r = row(&hadas, &cfg, &format!("AttentiveNAS_{name}"), subnet, &ioe, 0.0)?
            .ok_or("a baseline IOE front has no configuration at most as slow as static")?;
        rows.push(r);
    }
    let a0_eex_acc = rows[0].eex_acc;
    let a6_eex_acc = rows[1].eex_acc;

    // HADAS b1..b4: b1 is the cheapest DyNN with a6-level dynamic
    // accuracy; b2..b4 the next-cheapest still clearly above a0's.
    let outcome = hadas.run(&cfg)?;
    let mut candidates: Vec<Table3Row> = Vec::new();
    for b in outcome.backbones() {
        let Some(ioe) = b.ioe.as_ref() else { continue };
        let a6_level = row(&hadas, &cfg, "candidate", &b.subnet, ioe, a6_eex_acc - 1.0)?;
        candidates.extend(match a6_level {
            Some(r) => Some(r),
            None => row(&hadas, &cfg, "candidate", &b.subnet, ioe, a0_eex_acc + 0.5)?,
        });
    }
    candidates.sort_by(|a, b| a.eex_dvfs_energy_mj.total_cmp(&b.eex_dvfs_energy_mj));
    // b1 must hold the a6-accuracy bar.
    if let Some(i) = candidates.iter().position(|r| r.eex_acc >= a6_eex_acc - 1.0) {
        let r = candidates.remove(i);
        candidates.insert(0, r);
    }
    for (k, mut r) in candidates.into_iter().take(4).enumerate() {
        r.model = format!("HADAS_b{}", k + 1);
        rows.push(r);
    }

    println!("TABLE III — DyNNs comparison using the TX2 Pascal GPU");
    println!(
        "{:<18} {:>12} {:>9} {:>14} {:>10} {:>15}",
        "Model", "Baseline Acc", "EEx Acc", "Baseline Ergy", "EEx Ergy", "EEx_DVFS Ergy"
    );
    println!("{}", "-".repeat(84));
    for r in &rows {
        println!(
            "{:<18} {:>11.2}% {:>8.2}% {:>13.2}mJ {:>9.2}mJ {:>14.2}mJ",
            r.model,
            r.baseline_acc,
            r.eex_acc,
            r.baseline_energy_mj,
            r.eex_energy_mj,
            r.eex_dvfs_energy_mj
        );
    }

    // Headline shape checks (paper: b1 is 57% / 19% more efficient than
    // a6 / a0 with a6-level accuracy).
    // The two baseline rows were pushed first, a0 then a6.
    let (a0, a6) = (&rows[0], &rows[1]);
    if let Some(b1) = rows.iter().find(|r| r.model == "HADAS_b1") {
        println!();
        println!(
            "HADAS_b1 vs a6 (EEx_DVFS): {:.0}% more energy-efficient (paper: 57%)",
            (1.0 - b1.eex_dvfs_energy_mj / a6.eex_dvfs_energy_mj) * 100.0
        );
        println!(
            "HADAS_b1 vs a0 (EEx_DVFS): {:.0}% more energy-efficient (paper: 19%)",
            (1.0 - b1.eex_dvfs_energy_mj / a0.eex_dvfs_energy_mj) * 100.0
        );
        println!(
            "HADAS_b1 EEx acc {:.2}% vs a6 EEx acc {:.2}% (paper: similar)",
            b1.eex_acc, a6.eex_acc
        );
    }
    env.write_bench("table3_dynns", cfg.seed, &rows)?;
    Ok(())
}
