//! A timing [`CostModel`] wrapper: forwards every pricing call to a
//! [`DeviceModel`]'s own implementation and counts calls, busy time and
//! distinct queries on the way. It sits behind `Hadas::with_cost_model`,
//! so the search prices exactly what it would price unwrapped.

use hadas_hw::{CostModel, CostReport, DeviceModel, DvfsLadder, DvfsSetting, HwError, HwTarget};
use hadas_space::{LayerInfo, Subnet};
use std::collections::HashSet;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The three priced entry points the wrapper times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HwCall {
    /// `CostModel::subnet_cost`.
    Subnet,
    /// `CostModel::prefix_cost`.
    Prefix,
    /// `CostModel::layer_cost`.
    Layer,
}

impl HwCall {
    /// Every timed entry point, in report order.
    pub const ALL: [HwCall; 3] = [HwCall::Subnet, HwCall::Prefix, HwCall::Layer];

    /// Metric-name stem of the entry point.
    pub fn name(self) -> &'static str {
        match self {
            HwCall::Subnet => "subnet_cost",
            HwCall::Prefix => "prefix_cost",
            HwCall::Layer => "layer_cost",
        }
    }
}

/// Counters shared by every wrapper of one traced run. The atomics are
/// statistics that publish no other data, so `Relaxed` suffices.
#[derive(Debug, Default)]
pub struct HwStats {
    calls: [AtomicU64; 3],
    busy_ns: [AtomicU64; 3],
    queries: Mutex<HashSet<u64>>,
}

impl HwStats {
    /// Calls made to one entry point.
    pub fn calls(&self, call: HwCall) -> u64 {
        self.calls[call as usize].load(Ordering::Relaxed)
    }

    /// Host seconds spent inside one entry point.
    pub fn busy_s(&self, call: HwCall) -> f64 {
        self.busy_ns[call as usize].load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Calls over all entry points.
    pub fn total_calls(&self) -> u64 {
        HwCall::ALL.iter().map(|&c| self.calls(c)).sum()
    }

    /// Host seconds over all entry points.
    pub fn total_busy_s(&self) -> f64 {
        HwCall::ALL.iter().map(|&c| self.busy_s(c)).sum()
    }

    /// Distinct `(entry point, workload, position, DVFS)` queries seen.
    pub fn unique_queries(&self) -> u64 {
        self.queries.lock().expect("query set poisoned by a panicking pricing call").len() as u64
    }

    fn record(&self, call: HwCall, key: u64, started: Instant) {
        let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.calls[call as usize].fetch_add(1, Ordering::Relaxed);
        self.busy_ns[call as usize].fetch_add(ns, Ordering::Relaxed);
        self.queries.lock().expect("query set poisoned by a panicking pricing call").insert(key);
    }
}

/// Forwards to a [`DeviceModel`] and records each call in [`HwStats`].
#[derive(Debug)]
pub struct TimingCostModel {
    inner: DeviceModel,
    stats: Arc<HwStats>,
}

impl TimingCostModel {
    /// Wraps `inner`, recording into `stats`.
    pub fn new(inner: DeviceModel, stats: Arc<HwStats>) -> Self {
        TimingCostModel { inner, stats }
    }
}

fn query_key(call: HwCall, what: impl Hash, position: usize, setting: &DvfsSetting) -> u64 {
    let mut h = DefaultHasher::new();
    (call, what, position, setting).hash(&mut h);
    h.finish()
}

fn layer_bits(layer: &LayerInfo) -> [u64; 4] {
    [
        layer.flops.to_bits(),
        layer.params.to_bits(),
        layer.act_bytes.to_bits(),
        layer.weight_bytes.to_bits(),
    ]
}

impl CostModel for TimingCostModel {
    fn target(&self) -> HwTarget {
        self.inner.target()
    }

    fn ladder(&self) -> &DvfsLadder {
        self.inner.ladder()
    }

    fn default_dvfs(&self) -> DvfsSetting {
        CostModel::default_dvfs(&self.inner)
    }

    fn layer_cost(&self, layer: &LayerInfo, setting: &DvfsSetting) -> Result<CostReport, HwError> {
        let started = Instant::now();
        let out = self.inner.layer_cost(layer, setting);
        self.stats.record(
            HwCall::Layer,
            query_key(HwCall::Layer, layer_bits(layer), 0, setting),
            started,
        );
        out
    }

    fn invoke_cost(&self, setting: &DvfsSetting) -> Result<CostReport, HwError> {
        self.inner.invoke_cost(setting)
    }

    fn subnet_cost(&self, subnet: &Subnet, setting: &DvfsSetting) -> Result<CostReport, HwError> {
        let started = Instant::now();
        let out = self.inner.subnet_cost(subnet, setting);
        let key = query_key(HwCall::Subnet, subnet.genome().genes(), 0, setting);
        self.stats.record(HwCall::Subnet, key, started);
        out
    }

    fn prefix_cost(
        &self,
        subnet: &Subnet,
        position: usize,
        setting: &DvfsSetting,
    ) -> Result<CostReport, HwError> {
        let started = Instant::now();
        let out = self.inner.prefix_cost(subnet, position, setting);
        let key = query_key(HwCall::Prefix, subnet.genome().genes(), position, setting);
        self.stats.record(HwCall::Prefix, key, started);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hadas_space::{baselines, SearchSpace};

    fn bits(r: &Result<CostReport, HwError>) -> (u64, u64) {
        let r = r.as_ref().expect("baseline pricing succeeds");
        (r.latency_s.to_bits(), r.energy_j.to_bits())
    }

    #[test]
    fn wrapper_prices_baselines_bit_identically_at_every_dvfs_setting() {
        let subnets = baselines::attentive_nas_baselines(&SearchSpace::attentive_nas()).unwrap();
        assert_eq!(subnets.len(), 7, "a0..a6");
        for target in HwTarget::ALL {
            let device = DeviceModel::for_target(target);
            let stats = Arc::new(HwStats::default());
            let wrapped = TimingCostModel::new(device.clone(), Arc::clone(&stats));
            let plain: &dyn CostModel = &device;
            let ladder = device.ladder();
            let mut expected_calls = 0u64;
            for (_, subnet) in &subnets {
                for c in 0..ladder.compute_steps() {
                    for m in 0..ladder.emc_steps() {
                        let s = DvfsSetting::new(c, m);
                        assert_eq!(
                            bits(&wrapped.subnet_cost(subnet, &s)),
                            bits(&plain.subnet_cost(subnet, &s))
                        );
                        for p in 1..=subnet.num_mbconv_layers() {
                            assert_eq!(
                                bits(&wrapped.prefix_cost(subnet, p, &s)),
                                bits(&plain.prefix_cost(subnet, p, &s))
                            );
                        }
                        for layer in subnet.layers() {
                            assert_eq!(
                                bits(&wrapped.layer_cost(layer, &s)),
                                bits(&plain.layer_cost(layer, &s))
                            );
                        }
                        expected_calls +=
                            1 + subnet.num_mbconv_layers() as u64 + subnet.layers().len() as u64;
                    }
                }
            }
            assert_eq!(stats.total_calls(), expected_calls, "{target:?}: every call is counted");
            assert!(stats.unique_queries() <= expected_calls);
        }
    }

    #[test]
    fn repeated_queries_are_counted_once() {
        let device = DeviceModel::for_target(HwTarget::Tx2PascalGpu);
        let stats = Arc::new(HwStats::default());
        let wrapped = TimingCostModel::new(device.clone(), Arc::clone(&stats));
        let subnet = SearchSpace::attentive_nas().decode(&baselines::baseline_genome(0)).unwrap();
        let s = CostModel::default_dvfs(&device);
        for _ in 0..3 {
            wrapped.subnet_cost(&subnet, &s).unwrap();
            wrapped.prefix_cost(&subnet, 2, &s).unwrap();
        }
        assert_eq!(stats.total_calls(), 6);
        assert_eq!(stats.unique_queries(), 2);
    }
}
