//! The repository benchmark: four workloads over the PIM-TC workspace,
//! reporting host wall time and modeled PIM time end to end, and per-layer
//! spans timed from outside the program (see `perfbench/README.md`).

pub mod count;
pub mod serve;
pub mod spanned;
pub mod spans;

use std::fmt::Write as _;

/// The benchmark's workloads, by the names `BENCHMARK.json` lists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    StaticRmat,
    SampledGeo,
    DynamicHub,
    ServeTenants,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::StaticRmat,
        Workload::SampledGeo,
        Workload::DynamicHub,
        Workload::ServeTenants,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StaticRmat => "static-rmat",
            Workload::SampledGeo => "sampled-geo",
            Workload::DynamicHub => "dynamic-hub",
            Workload::ServeTenants => "serve-tenants",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// End-to-end metrics (untraced runs), with units, in output order.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("modeled_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sessions_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("append_p50_ms", "ms"),
];

/// Per-layer metrics (traced runs), with units, in output order. A layer
/// a workload does not reach reports 0.
pub const PER_LAYER: [(&str, &str); 58] = [
    ("graph.load_s", "s"),
    ("graph.preprocess_s", "s"),
    ("core.size_s", "s"),
    ("core.start_s", "s"),
    ("sim.allocate_s", "s"),
    ("core.append_s", "s"),
    ("core.route_self_s", "s"),
    ("core.count_s", "s"),
    ("core.count_self_s", "s"),
    ("core.checkpoint_s", "s"),
    ("core.checkpoint_bytes", "B"),
    ("sim.kernel.receive.host_s", "s"),
    ("sim.kernel.receive.launches", "count"),
    ("sim.kernel.receive.modeled_cycles", "cycles"),
    ("sim.kernel.remap.host_s", "s"),
    ("sim.kernel.remap.launches", "count"),
    ("sim.kernel.remap.modeled_cycles", "cycles"),
    ("sim.kernel.sort.host_s", "s"),
    ("sim.kernel.sort.launches", "count"),
    ("sim.kernel.sort.modeled_cycles", "cycles"),
    ("sim.kernel.index.host_s", "s"),
    ("sim.kernel.index.launches", "count"),
    ("sim.kernel.index.modeled_cycles", "cycles"),
    ("sim.kernel.count.host_s", "s"),
    ("sim.kernel.count.launches", "count"),
    ("sim.kernel.count.modeled_cycles", "cycles"),
    ("sim.instructions", "count"),
    ("sim.dma_bytes", "B"),
    ("sim.ns_per_cycle", "ns/cycle"),
    ("sim.push_s", "s"),
    ("sim.push_bytes", "B"),
    ("sim.gather_s", "s"),
    ("sim.gather_bytes", "B"),
    ("sim.broadcast_s", "s"),
    ("sim.host_charged_s", "s"),
    ("sim.mram_bytes", "B"),
    ("sim.mram_bytes_per_resident_edge", "B/edge"),
    ("core.edges_routed", "count"),
    ("core.kept_ratio", "ratio"),
    ("core.max_dpu_load", "count"),
    ("core.rel_error", "ratio"),
    ("baselines.cpu_count_s", "s"),
    ("server.create.p50_ms", "ms"),
    ("server.create.p99_ms", "ms"),
    ("server.append.p50_ms", "ms"),
    ("server.append.p99_ms", "ms"),
    ("server.query.p50_ms", "ms"),
    ("server.query.p99_ms", "ms"),
    ("server.close.p50_ms", "ms"),
    ("server.close.p99_ms", "ms"),
    ("server.first_op.p50_ms", "ms"),
    ("server.ops", "count"),
    ("server.admitted", "count"),
    ("server.rejected", "count"),
    ("server.frames_rejected", "count"),
    ("bench.attributed_pct", "%"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.spans", "count"),
];

/// What one run asks for.
#[derive(Clone, Debug)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    /// How long the measured loop runs.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Scratch directory for generated inputs and checkpoints.
    pub work_dir: std::path::PathBuf,
    /// Where a traced run writes its spans (JSON lines), if anywhere.
    pub spans_out: Option<std::path::PathBuf>,
}

/// A run's outcome: operation counts and named metrics in output order.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Why each failed operation failed (printed to stderr).
    pub failures: Vec<String>,
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Records one operation, failed when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Adds a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        // `+ 0.0` turns the -0.0 of an empty float sum into 0.0.
        self.metrics.push((name.into(), value + 0.0, unit));
    }

    /// Puts the metrics in the order and with the units of `expected`;
    /// a listed metric the workload did not produce reads 0, and a
    /// produced one that is not finite or not listed is a failed check.
    pub fn conform(&mut self, expected: &[(&str, &'static str)]) {
        let mut produced = std::mem::take(&mut self.metrics);
        for &(name, unit) in expected {
            let value = match produced.iter().position(|(n, _, _)| n == name) {
                Some(i) => produced.remove(i).1,
                None => 0.0,
            };
            if !value.is_finite() {
                self.check(false, || format!("{name} is not a number: {value}"));
            }
            self.metric(name, if value.is_finite() { value } else { 0.0 }, unit);
        }
        for (name, _, _) in produced {
            self.check(false, || format!("unlisted metric {name}"));
        }
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn to_json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Median of `xs` (mean of the middle two for even lengths); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Linear-interpolated percentile `p` (0–100) of `xs`; 0 when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = (p / 100.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident set of this process in MB (`VmHWM`), 0 if unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// 64-bit FNV-1a over `(u, v)` pairs: a graph fingerprint for seed checks.
pub fn fingerprint(edges: &[pim_graph::Edge]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for e in edges {
        for b in e.u.to_le_bytes().into_iter().chain(e.v.to_le_bytes()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn report_line_is_json() {
        let mut r = Report::default();
        r.check(true, String::new);
        r.metric("wall_s", 1.5, "s");
        let v: serde_json::Value = serde_json::from_str(&r.to_json_line()).unwrap();
        assert_eq!(v.get("attempted").and_then(|a| a.as_u64()), Some(1));
        let wall = v.get("metrics").and_then(|m| m.get("wall_s"));
        assert_eq!(
            wall.and_then(|w| w.get("value")).and_then(|x| x.as_f64()),
            Some(1.5)
        );
    }
}
