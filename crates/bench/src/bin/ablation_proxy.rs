//! Ablation: proxy cost model vs hardware in the loop (paper §V-A: the
//! search overhead drops from 2–3 GPU days to ~1 if a proxy replaces the
//! HW-in-the-loop setup).
//!
//! Fits a [`ProxyCostModel`] from a one-off sample of device
//! measurements, reports its held-out accuracy, runs the joint search
//! against proxy and device, and compares the *true* quality (re-measured
//! on the device) of the two Pareto sets plus the number of device
//! queries each search consumed.

use hadas::{Hadas, HadasConfig};
use hadas_bench::bench_env;
use hadas_evo::{fast_non_dominated_sort, hypervolume_2d};
use hadas_hw::{CostModel, DeviceModel, HwTarget, ProxyCostModel};
use hadas_space::SearchSpace;
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Serialize)]
struct ProxyRun {
    mode: String,
    wall_ms: u128,
    device_queries: u64,
    true_front_hv: f64,
    pareto_models: usize,
}

/// Wraps a device and counts how many measurements the search draws from
/// it — the quantity the paper's "2–3 GPU days vs 1" claim is about.
#[derive(Debug)]
struct CountingDevice {
    inner: DeviceModel,
    queries: std::sync::atomic::AtomicU64,
}

impl CountingDevice {
    fn new(inner: DeviceModel) -> Self {
        CountingDevice { inner, queries: std::sync::atomic::AtomicU64::new(0) }
    }
}

impl CostModel for CountingDevice {
    fn target(&self) -> HwTarget {
        CostModel::target(&self.inner)
    }

    fn ladder(&self) -> &hadas_hw::DvfsLadder {
        CostModel::ladder(&self.inner)
    }

    fn layer_cost(
        &self,
        layer: &hadas_space::LayerInfo,
        setting: &hadas_hw::DvfsSetting,
    ) -> Result<hadas_hw::CostReport, hadas_hw::HwError> {
        self.queries.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.inner.layer_cost(layer, setting)
    }

    fn invoke_cost(
        &self,
        setting: &hadas_hw::DvfsSetting,
    ) -> Result<hadas_hw::CostReport, hadas_hw::HwError> {
        self.queries.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.inner.invoke_cost(setting)
    }
}

fn true_front_hv(
    hadas_exact: &Hadas,
    outcome: &hadas::OoeOutcome,
    cfg: &HadasConfig,
) -> Result<f64, hadas::HadasError> {
    // Re-measure every Pareto model on the exact device (the deployment
    // reality check a proxy-driven search must pass).
    let mut axes: Vec<Vec<f64>> = Vec::new();
    for m in outcome.pareto_models() {
        let eval = hadas::DynamicModel::new(m.subnet.clone(), m.placement.clone(), m.dvfs)
            .evaluate(
                hadas_exact.accuracy(),
                hadas_exact.device(),
                cfg.gamma,
                cfg.use_dissimilarity,
            )?;
        axes.push(vec![eval.fitness.energy_gain, eval.fitness.accuracy_pct / 100.0]);
    }
    let fronts = fast_non_dominated_sort(&axes);
    let front: Vec<Vec<f64>> =
        fronts.first().map(|f| f.iter().map(|&i| axes[i].clone()).collect()).unwrap_or_default();
    Ok(hypervolume_2d(&front, &[-0.5, 0.0]))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let env = bench_env!();
    let cfg = env.scale().config();
    let space = SearchSpace::attentive_nas();
    let device = DeviceModel::for_target(HwTarget::Tx2PascalGpu);

    // One-off proxy fit + held-out validation.
    let fit_start = Instant::now();
    let proxy = ProxyCostModel::fit(&device, &space, 3_000, 17)?;
    let fit_ms = fit_start.elapsed().as_millis();
    let v = proxy.validate(&device, &space, 100, 18)?;
    println!("proxy fit on {} device measurements in {} ms", proxy.training_samples(), fit_ms);
    println!(
        "held-out MAPE: latency {:.1}%, energy {:.1}% over {} subnet queries",
        v.latency_mape * 100.0,
        v.energy_mape * 100.0,
        v.queries
    );

    let exact = Hadas::for_target(HwTarget::Tx2PascalGpu);
    let counter = Arc::new(CountingDevice::new(DeviceModel::for_target(HwTarget::Tx2PascalGpu)));
    let counted = Hadas::with_cost_model(
        space.clone(),
        exact.accuracy().clone(),
        counter.clone() as Arc<dyn CostModel>,
    );
    let proxied = Hadas::with_cost_model(space.clone(), exact.accuracy().clone(), Arc::new(proxy));

    let mut runs = Vec::new();
    for (mode, hadas, fixed_queries) in [
        ("hw-in-the-loop", &counted, None),
        ("proxy", &proxied, Some(3_000u64 + 100)), // fit + validation draws
    ] {
        counter.queries.store(0, std::sync::atomic::Ordering::Relaxed);
        let start = Instant::now();
        let outcome = hadas.run(&cfg)?;
        let wall_ms = start.elapsed().as_millis();
        let device_queries = fixed_queries
            .unwrap_or_else(|| counter.queries.load(std::sync::atomic::Ordering::Relaxed));
        let hv = true_front_hv(&exact, &outcome, &cfg)?;
        println!(
            "{mode}: {device_queries} device queries, wall {wall_ms} ms, {} pareto models, true-front HV {hv:.4}",
            outcome.pareto_models().len()
        );
        runs.push(ProxyRun {
            mode: mode.to_string(),
            wall_ms,
            device_queries,
            true_front_hv: hv,
            pareto_models: outcome.pareto_models().len(),
        });
    }
    let retained = runs[1].true_front_hv / runs[0].true_front_hv;
    println!();
    println!(
        "proxy-driven search retains {:.0}% of the hw-in-the-loop front quality",
        retained * 100.0
    );
    println!("(paper: proxy cuts search time from 2-3 GPU days to ~1 with comparable results)");
    env.write_bench("ablation_proxy", cfg.seed, &runs)?;
    Ok(())
}
