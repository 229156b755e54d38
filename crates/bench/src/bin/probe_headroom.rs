//! Diagnostic probe (not a paper artifact): measures the energy-cut
//! headroom of hand-placed exits on a0, a6, and a maximally exit-friendly
//! backbone, comparing against what the IOE finds. Used to keep the
//! simulator and the search honest while calibrating Table III.

use hadas::{DynamicModel, Hadas, HadasConfig};
use hadas_bench::bench_env;
use hadas_exits::ExitPlacement;
use hadas_hw::{DvfsSetting, HwTarget};
use hadas_space::{baselines, Genome, Subnet};

fn evenly_spaced(n_layers: usize, count: usize) -> Vec<usize> {
    (1..=count).map(|k| 5 + (n_layers - 5) * k / count).collect()
}

fn probe(
    hadas: &Hadas,
    cfg: &HadasConfig,
    name: &str,
    subnet: &Subnet,
) -> Result<(), Box<dyn std::error::Error>> {
    let device = hadas.device();
    let acc = hadas.accuracy();
    let e_b = device.subnet_cost(subnet, &device.default_dvfs())?.energy_mj();
    let n = subnet.num_mbconv_layers();
    println!(
        "{name}: {:.1} mJ, {n} layers, exitability {:.2}, beta {:.2}, acc {:.2}",
        e_b,
        acc.exitability(subnet),
        acc.depth_beta(subnet),
        acc.backbone_accuracy(subnet)
    );
    for count in [2usize, 4, 6, 8] {
        let positions = evenly_spaced(n, count);
        let placement = ExitPlacement::new(positions.clone(), n)?;
        let m = DynamicModel::new(subnet.clone(), placement.clone(), device.default_dvfs());
        let e = m.evaluate(acc, device, 1.0, true)?;
        // DVFS sweep for the same placement.
        let mut best = (e.fitness.energy_mj, device.default_dvfs());
        for c in 0..device.ladder().compute_steps() {
            for em in 0..device.ladder().emc_steps() {
                let dv = DvfsSetting::new(c, em);
                let ev = DynamicModel::new(subnet.clone(), placement.clone(), dv)
                    .evaluate(acc, device, 1.0, true)?;
                if ev.fitness.energy_mj < best.0 {
                    best = (ev.fitness.energy_mj, dv);
                }
            }
        }
        println!(
            "  {count} exits {positions:?}: EEx {:.1} mJ (cut {:.0}%), +DVFS {:.1} mJ (cut {:.0}%), dyn acc {:.2}, N {:?}",
            e.fitness.energy_mj,
            (1.0 - e.fitness.energy_mj / e_b) * 100.0,
            best.0,
            (1.0 - best.0 / e_b) * 100.0,
            e.fitness.accuracy_pct,
            e.exit_fractions.iter().map(|v| (v * 100.0).round() / 100.0).collect::<Vec<_>>()
        );
    }
    let ioe = hadas.run_ioe(subnet, cfg, 99)?;
    let b = ioe.best_energy().ok_or("IOE returned an empty Pareto front")?;
    println!(
        "  IOE best: EEx_DVFS {:.1} mJ (cut {:.0}%), {} exits, dvfs {:?}, dyn acc {:.2}",
        b.fitness.energy_mj,
        (1.0 - b.fitness.energy_mj / e_b) * 100.0,
        b.placement.len(),
        b.dvfs,
        b.fitness.accuracy_pct
    );
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let hadas = Hadas::for_target(HwTarget::Tx2PascalGpu);
    let cfg = bench_env!().scale().config();
    let nets = baselines::attentive_nas_baselines(hadas.space())?;
    probe(&hadas, &cfg, "a0", &nets[0].1)?;
    probe(&hadas, &cfg, "a6", &nets[6].1)?;
    // Maximally exit-friendly mid-size backbone: front-loaded depth, 5x5
    // early kernels, rich early expansion, shallow late stages.
    let friendly = hadas.space().decode(&Genome::from_genes(vec![
        1, 0, 0, /*s1*/ 1, 1, 1, 0, /*s2*/ 2, 1, 1, 2, /*s3*/ 3, 1, 1, 2,
        /*s4*/ 0, 1, 1, 2, /*s5*/ 0, 1, 0, 1, /*s6*/ 0, 1, 0, 0, /*s7*/ 0, 0,
        0, 0,
    ]))?;
    probe(&hadas, &cfg, "friendly", &friendly)?;
    Ok(())
}
