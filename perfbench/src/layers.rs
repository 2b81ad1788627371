//! Named metrics, and the `gpu-sim` / `kernels` per-layer numbers
//! folded from the [`LaunchStats`] a layer's public calls return.

use bench::report::MetricRow;
use gpu_sim::{Counters, LaunchStats};
use std::collections::BTreeMap;

/// Metric name → (value, unit), in name order.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    /// Sets `name` to `value` in `unit`.
    pub fn set(&mut self, name: &str, unit: &'static str, value: f64) {
        self.0.insert(name.to_string(), (value, unit));
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|&(v, _)| v)
    }

    /// Moves every metric of `other` into `self`.
    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }
}

/// Kernels whose simulated seconds are reported as
/// `kernels.<name>_sim_s`, grouped by [`LaunchStats::name`].
pub const KERNELS: [&str; 7] = [
    "hybrid_pass_hash",
    "hybrid_pass_dense",
    "naive_csr",
    "row_norms",
    "expansion",
    "top_k_select",
    "finalize",
];

/// `x / y`, or 0 when `y` is 0 (a layer that did no such work).
pub fn ratio(x: f64, y: f64) -> f64 {
    if y == 0.0 {
        0.0
    } else {
        x / y
    }
}

/// Accumulates launches into per-kernel and per-range totals.
#[derive(Debug, Default)]
pub struct LaunchTally {
    launches: u64,
    blocks: u64,
    counters: Counters,
    sim_s: f64,
    memory_bound_s: f64,
    occupancy_weighted: f64,
    by_kernel: BTreeMap<String, (u64, f64, Counters)>,
    /// (kernel, range path) → (calls, exclusive effective issues, est. seconds).
    by_range: BTreeMap<(String, String), (u64, u64, f64)>,
}

impl LaunchTally {
    /// Folds `launches` in.
    pub fn add(&mut self, launches: &[LaunchStats]) {
        for l in launches {
            let s = l.sim_seconds();
            self.launches += 1;
            self.blocks += l.config.blocks as u64;
            self.counters.merge(&l.counters);
            self.sim_s += s;
            if l.cost.memory_bound {
                self.memory_bound_s += s;
            }
            self.occupancy_weighted += l.occupancy.fraction * s;
            let k = self.by_kernel.entry(l.name.clone()).or_default();
            k.0 += 1;
            k.1 += s;
            k.2.merge(&l.counters);
            if let Some(p) = &l.profile {
                for r in &p.ranges {
                    let e = self
                        .by_range
                        .entry((l.name.clone(), r.path.clone()))
                        .or_default();
                    e.0 += r.calls;
                    e.1 += r.exclusive.effective_issues();
                    e.2 += r.est_seconds;
                }
            }
        }
    }

    /// The `gpu-sim.*` and `kernels.*` per-layer metrics;
    /// `host_s` is the host time the launches took.
    pub fn metrics(&self, host_s: f64) -> Metrics {
        let c = &self.counters;
        let mut m = Metrics::default();
        let issues = c.effective_issues() as f64;
        m.set("gpu-sim.issues", "count", issues);
        m.set("gpu-sim.launches", "count", self.launches as f64);
        m.set("gpu-sim.blocks", "count", self.blocks as f64);
        m.set("gpu-sim.issues_per_host_s", "1/s", ratio(issues, host_s));
        for k in KERNELS {
            let s = self.by_kernel.get(k).map_or(0.0, |e| e.1);
            m.set(&format!("kernels.{k}_sim_s"), "s", s);
        }
        m.set("kernels.global_bytes", "B", c.global_bytes as f64);
        m.set(
            "kernels.coalescing_eff",
            "ratio",
            ratio(c.global_bytes_requested as f64, c.global_bytes as f64),
        );
        m.set(
            "kernels.l2_unique_frac",
            "ratio",
            ratio(c.global_bytes_unique as f64, c.global_bytes as f64),
        );
        m.set("kernels.smem_accesses", "count", c.smem_accesses as f64);
        m.set(
            "kernels.bank_conflict_ratio",
            "ratio",
            ratio(c.bank_conflict_extra as f64, c.smem_accesses as f64),
        );
        m.set("kernels.divergence_ratio", "ratio", c.divergence_ratio());
        m.set(
            "kernels.atomic_conflict_ratio",
            "ratio",
            ratio(c.atomic_conflict_extra as f64, c.atomics as f64),
        );
        m.set("kernels.barriers", "count", c.barriers as f64);
        m.set(
            "kernels.occupancy",
            "ratio",
            ratio(self.occupancy_weighted, self.sim_s),
        );
        m.set(
            "kernels.memory_bound_frac",
            "ratio",
            ratio(self.memory_bound_s, self.sim_s),
        );
        m
    }

    /// bench.v1 rows: one per kernel name (counters and seconds) and
    /// one per profiled range (exclusive issues), under `base` labels.
    pub fn rows(&self, base: &MetricRow) -> Vec<MetricRow> {
        let mut rows = Vec::new();
        for (name, (launches, sim_s, counters)) in &self.by_kernel {
            rows.push(
                base.clone()
                    .label("layer", "kernels")
                    .label("kernel", name)
                    .value("launches", *launches as f64)
                    .value("sim_seconds", *sim_s)
                    .counters(counters),
            );
        }
        for ((kernel, range), (calls, issues, est_s)) in &self.by_range {
            rows.push(
                base.clone()
                    .label("layer", "gpu-sim.prof")
                    .label("kernel", kernel)
                    .label("range", range)
                    .value("calls", *calls as f64)
                    .value("exclusive_effective_issues", *issues as f64)
                    .value("est_seconds", *est_s),
            );
        }
        rows
    }
}
