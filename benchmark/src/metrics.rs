//! The metrics the harness emits. `BENCHMARK.json` declares the same
//! names, units and directions; `tests::matches_benchmark_json` holds the
//! two lists together.

use crate::json::Json;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: "lower" }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: "higher" }
}

/// Measured with tracing off, one process per run.
pub const END_TO_END: &[MetricDef] =
    &[lower("solve_s", "s"), lower("setup_s", "s"), lower("peak_rss_mb", "MiB")];

/// Measured by the traced pass. A metric whose layer a workload does not
/// exercise reads 0 there (see the table in `README.md`).
pub const PER_LAYER: &[MetricDef] = &[
    // set-up phases
    lower("expr.compile_ms", "ms"),
    lower("symmetry.group_ms", "ms"),
    lower("basis.enumerate_ms", "ms"),
    lower("basis.symop_build_ms", "ms"),
    lower("dist.enumerate_ms", "ms"),
    // sizes; must repeat exactly
    lower("basis.dim", "count"),
    lower("basis.group_order", "count"),
    lower("basis.index_bytes", "B"),
    lower("core.nnz_offdiag", "count"),
    // replay of one product, layer by layer, on one thread
    lower("basis.rowgen_ms", "ms"),
    lower("basis.rowgen_fused_ms", "ms"),
    lower("basis.state_info_ms", "ms"),
    lower("basis.state_info_ns_per_gapp", "ns"),
    lower("basis.rank_ms", "ms"),
    lower("basis.rank_ns_per_lookup", "ns"),
    lower("basis.diag_ms", "ms"),
    lower("replay.accum_ms", "ms"),
    lower("replay.accum_fused_ms", "ms"),
    lower("replay.sum_over_serial", "ratio"),
    lower("replay.sum_over_t1", "ratio"),
    // whole products
    lower("core.matvec_serial_ms", "ms"),
    lower("core.matvec_t1_ms", "ms"),
    lower("core.matvec_ms_p50", "ms"),
    lower("core.matvec_ms_p90", "ms"),
    higher("core.matvec_par_eff", "ratio"),
    lower("core.matvec_share", "ratio"),
    lower("core.bytes_model", "B"),
    higher("core.gbps_model", "GB/s"),
    higher("core.roofline_frac", "ratio"),
    higher("mem.triad_gbps", "GB/s"),
    // the Krylov solver around the products
    lower("eigen.matvecs", "count"),
    lower("eigen.peak_retained", "count"),
    lower("eigen.self_ms_per_iter", "ms"),
    lower("eigen.self_share", "ratio"),
    higher("eigen.dot_gbps", "GB/s"),
    higher("eigen.multi_dot_gbps", "GB/s"),
    higher("eigen.multi_axpy_gbps", "GB/s"),
    lower("eigen.ckpt_write_ms", "ms"),
    lower("eigen.ckpt_read_ms", "ms"),
    lower("eigen.ckpt_bytes", "B"),
    // the distributed product and the runtime under it
    lower("dist.matvec_ms_p50", "ms"),
    lower("dist.matvec_ms_p90", "ms"),
    lower("dist.matvec_share", "ratio"),
    lower("dist.self_ms_per_iter", "ms"),
    lower("dist.matvec_l1_ms", "ms"),
    lower("dist.vs_shared_ratio", "ratio"),
    lower("dist.balance", "ratio"),
    lower("dist.convert_ms", "ms"),
    lower("runtime.puts_per_matvec", "count"),
    lower("runtime.put_bytes_per_matvec", "B"),
    lower("runtime.flag_msgs_per_matvec", "count"),
    lower("runtime.remote_atomics_per_matvec", "count"),
    lower("runtime.barriers_per_matvec", "count"),
    higher("runtime.mean_msg_bytes", "B"),
    lower("runtime.barrier_us", "us"),
    lower("runtime.run_dispatch_us", "us"),
    higher("runtime.crc32c_gbps", "GB/s"),
    lower("trace.overhead_frac", "ratio"),
];

/// Values of one run, keyed by declared metric name.
pub struct Metrics {
    defs: &'static [MetricDef],
    values: Vec<Option<f64>>,
    samples: Vec<usize>,
}

impl Metrics {
    pub fn new(defs: &'static [MetricDef]) -> Self {
        Self { defs, values: vec![None; defs.len()], samples: vec![0; defs.len()] }
    }

    /// Records `value`, computed from `samples` measurements.
    ///
    /// # Panics
    /// Panics on a name the list does not declare or a non-finite value:
    /// both are bugs in the harness.
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        let i = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not declared in metrics.rs"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values[i] = Some(value);
        self.samples[i] = samples;
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.defs.iter().position(|d| d.name == name).and_then(|i| self.values[i])
    }

    /// Every declared metric in declaration order; unset ones read 0.
    pub fn rows(&self) -> impl Iterator<Item = (&'static MetricDef, f64, usize)> + '_ {
        self.defs
            .iter()
            .enumerate()
            .map(|(i, d)| (d, self.values[i].unwrap_or(0.0), self.samples[i]))
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self) -> Json {
        Json::obj(self.rows().map(|(d, value, _)| {
            (d.name, Json::obj([("value", Json::from(value)), ("unit", Json::str(d.unit))]))
        }))
    }

    pub fn samples_json(&self) -> Json {
        Json::obj(self.rows().map(|(d, _, n)| (d.name, Json::from(n))))
    }

    pub fn print(&self) {
        for (d, value, n) in self.rows() {
            println!("{:<36} {:>18} {:<6} n={n}", d.name, format!("{value:.6}"), d.unit);
        }
    }
}

/// The repo's `BENCHMARK.json`, as built into this binary.
pub fn benchmark_json() -> Json {
    Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json is valid JSON")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn name_ok(name: &str, max: usize) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= max
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn declared(list: &Json) -> Vec<(String, String, String)> {
        let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
        list.as_array()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect()
    }

    fn emitted(defs: &[MetricDef]) -> Vec<(String, String, String)> {
        defs.iter().map(|d| (d.name.into(), d.unit.into(), d.better.into())).collect()
    }

    #[test]
    fn matches_benchmark_json() {
        let b = benchmark_json();
        assert_eq!(declared(b.get("end_to_end").unwrap()), emitted(END_TO_END));
        assert_eq!(declared(b.get("per_layer").unwrap()), emitted(PER_LAYER));
        let names: Vec<&str> = b
            .get("workloads")
            .unwrap()
            .as_array()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(names, WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>());
        for w in b.get("workloads").unwrap().as_array() {
            let why = w.get("why").and_then(Json::as_str).unwrap();
            assert!(why.len() <= 200 && !why.contains('\n'), "why too long: {why}");
        }
        for m in b.get("end_to_end").unwrap().as_array() {
            let bound = m.get("bound").and_then(Json::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(d.name, 64), "bad metric name {}", d.name);
            assert!(
                d.unit.len() <= 16
                    && d.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {}",
                d.unit
            );
            assert!(matches!(d.better, "lower" | "higher"));
            assert!(seen.insert(d.name), "duplicate name {}", d.name);
        }
        for w in WORKLOADS {
            assert!(name_ok(w.name, 64), "bad workload name {}", w.name);
            assert!(seen.insert(w.name), "duplicate name {}", w.name);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.iter().any(|d| d.name == "setup_s"));
    }
}
