//! The metric catalogue and the result line the benchmark prints.

/// End-to-end metrics, reported with tracing off: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("cpu_s", "s"), ("work_per_cpu_s", "1/s"), ("heap_per_work_b", "B")];

/// Per-layer metrics, reported by the traced run: `(name, unit)`. Every
/// workload reports every one; a layer its timed part never calls reads 0.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("evo.pareto_front.busy_s", "s"),
    ("evo.pareto_front.points", "count"),
    ("evo.generation_sort.busy_s", "s"),
    ("core.search.busy_s", "s"),
    ("core.evals.static", "count"),
    ("core.evals.dynamic", "count"),
    ("core.ioe.runs", "count"),
    ("core.dynmodel.calls", "count"),
    ("core.dynmodel.evaluate.ns_per_call", "ns"),
    ("core.dynmodel.replay_s", "s"),
    ("core.unattributed_s", "s"),
    ("core.share.evo_pareto_front", "%"),
    ("core.share.dynmodel", "%"),
    ("core.share.hw", "%"),
    ("core.share.evo_generation_sort", "%"),
    ("core.share.unattributed", "%"),
    ("core.executor.real_speedup", "x"),
    ("core.executor.modeled_speedup", "x"),
    ("core.executor.modeled_makespan_ms", "ms"),
    ("core.executor.retries", "count"),
    ("core.executor.redispatches", "count"),
    ("hw.subnet_cost.calls", "count"),
    ("hw.subnet_cost.busy_s", "s"),
    ("hw.prefix_cost.calls", "count"),
    ("hw.prefix_cost.busy_s", "s"),
    ("hw.layer_cost.calls", "count"),
    ("hw.layer_cost.busy_s", "s"),
    ("hw.calls_per_eval", "count"),
    ("hw.unique_query_ratio", "ratio"),
    ("accuracy.joint_exit_fractions.ns_per_call", "ns"),
    ("accuracy.dynamic_accuracy.ns_per_call", "ns"),
    ("accuracy.exit_fraction_curve.ns_per_call", "ns"),
    ("accuracy.backbone_accuracy.ns_per_call", "ns"),
    ("space.decode.ns_per_call", "ns"),
    ("runtime.scenario.busy_s", "s"),
    ("serve.generate_requests.busy_s", "s"),
    ("serve.engine.req_per_s", "1/s"),
    ("fleet.engine.busy_s", "s"),
    ("fleet.offered", "count"),
    ("fleet.routed", "count"),
    ("fleet.fleet_rejected", "count"),
    ("fleet.served", "count"),
    ("fleet.shed", "count"),
    ("fleet.rejected", "count"),
    ("fleet.dead_lettered", "count"),
    ("fleet.router.best_effort", "count"),
    ("fleet.reconfig.swaps", "count"),
    ("fleet.reconfig.rollbacks", "count"),
    ("fleet.health.transitions", "count"),
    ("fleet.health.quarantined", "count"),
    ("fleet.health.redispatched", "count"),
    ("fleet.plain.busy_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.untraced_wall_s", "s"),
];

/// Named values in catalogue order.
#[derive(Debug, Clone, PartialEq)]
pub struct Metrics {
    values: Vec<(&'static str, &'static str, f64)>,
}

impl Metrics {
    /// Every metric of `catalogue`, all at 0.
    pub fn zeroed(catalogue: &[(&'static str, &'static str)]) -> Metrics {
        Metrics { values: catalogue.iter().map(|&(n, u)| (n, u, 0.0)).collect() }
    }

    /// Sets a catalogued metric.
    ///
    /// # Panics
    ///
    /// Panics on a name outside the catalogue: that is a bug in the
    /// benchmark, not a measurement.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self.values.iter_mut().find(|(n, _, _)| *n == name);
        slot.unwrap_or_else(|| panic!("metric {name} is not in the catalogue")).2 = value;
    }

    /// A metric's value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _, _)| *n == name).map(|v| v.2)
    }

    /// `(name, unit, value)` in catalogue order.
    pub fn iter(&self) -> impl Iterator<Item = &(&'static str, &'static str, f64)> {
        self.values.iter()
    }

    /// The `"metrics"` object of the result line.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .values
            .iter()
            .map(|(n, u, v)| {
                format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", json_number(*v))
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// A JSON number with every digit Rust's shortest round-trip printing
/// gives; non-finite values (never expected) print as 0.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(attempted: usize, failed: usize, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        metrics.to_json()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut m = Metrics::zeroed(&END_TO_END);
        m.set("cpu_s", 1.25);
        let line = result_line(3, 0, &m);
        let v: serde_json::Value = serde_json::from_str(&line).unwrap();
        let keys: Vec<&str> = v.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            v.get("metrics").unwrap().get("cpu_s").unwrap().get("value").unwrap().as_f64(),
            Some(1.25)
        );
    }

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER.iter()).map(|m| m.0).collect();
        for (i, n) in all.iter().enumerate() {
            assert!(!all[..i].contains(n), "{n} repeats");
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{n}");
        }
    }
}
