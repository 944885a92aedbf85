//! The metric catalogue: every name the benchmark prints, with its unit and
//! direction.  `BENCHMARK.json` at the repository root declares the same
//! lists (plus the end-to-end bounds); a test keeps the two in step.

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Stable name, `[A-Za-z0-9_.-]` only.
    pub name: &'static str,
    /// Unit as printed next to the value.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// Metrics a user of the sorter sees, measured with tracing off.  Every
/// workload reports every one of them, and none can be 0.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower"),
    m("sort_cpu_s", "s", "lower"),
    m("sort_mb_per_cpu_s", "MB/s", "higher"),
    m("load_imbalance", "ratio", "lower"),
    m("splitter_rounds", "count", "lower"),
    m("sample_keys", "count", "lower"),
    m("splitter_comm_words", "words", "lower"),
    m("exchange_comm_words", "words", "lower"),
    m("sim_makespan_s", "s", "lower"),
    m("peak_rss_mb", "MB", "lower"),
];

/// The simulator phases on the sort path, in pipeline order.
pub const SIM_PHASES: [&str; 6] =
    ["local_sort", "sampling", "histogramming", "splitter_broadcast", "data_exchange", "merge"];

/// Per-layer metrics from the traced run.  A layer a workload bypasses
/// reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("lsort.wall_s", "s", "lower"),
    m("lsort.ns_per_key", "ns", "lower"),
    m("core.splitters.wall_s", "s", "lower"),
    m("core.splitters.round_max_s", "s", "lower"),
    m("core.splitters.probes", "count", "lower"),
    m("partition.merge.wall_s", "s", "lower"),
    m("partition.merge.max_rank_s", "s", "lower"),
    m("partition.merge.ns_per_key", "ns", "lower"),
    m("partition.merge.fan_in", "count", "lower"),
    m("partition.exchange.wall_s", "s", "lower"),
    m("sim.local_sort.wall_s", "s", "lower"),
    m("sim.local_sort.sim_s", "s", "lower"),
    m("sim.local_sort.comm_words", "words", "lower"),
    m("sim.local_sort.disk_words", "words", "lower"),
    m("sim.sampling.wall_s", "s", "lower"),
    m("sim.sampling.sim_s", "s", "lower"),
    m("sim.sampling.comm_words", "words", "lower"),
    m("sim.sampling.disk_words", "words", "lower"),
    m("sim.histogramming.wall_s", "s", "lower"),
    m("sim.histogramming.sim_s", "s", "lower"),
    m("sim.histogramming.comm_words", "words", "lower"),
    m("sim.histogramming.disk_words", "words", "lower"),
    m("sim.splitter_broadcast.wall_s", "s", "lower"),
    m("sim.splitter_broadcast.sim_s", "s", "lower"),
    m("sim.splitter_broadcast.comm_words", "words", "lower"),
    m("sim.splitter_broadcast.disk_words", "words", "lower"),
    m("sim.data_exchange.wall_s", "s", "lower"),
    m("sim.data_exchange.sim_s", "s", "lower"),
    m("sim.data_exchange.comm_words", "words", "lower"),
    m("sim.data_exchange.disk_words", "words", "lower"),
    m("sim.merge.wall_s", "s", "lower"),
    m("sim.merge.sim_s", "s", "lower"),
    m("sim.merge.comm_words", "words", "lower"),
    m("sim.merge.disk_words", "words", "lower"),
    m("sim.unattributed_wall_s", "s", "lower"),
    m("sim.phase_order_concordance", "fraction", "higher"),
    m("extsort.runs_formed", "count", "lower"),
    m("extsort.merge_passes", "count", "lower"),
    m("extsort.bytes_written", "bytes", "lower"),
    m("extsort.bytes_read", "bytes", "lower"),
    m("extsort.scratch_bytes", "bytes", "lower"),
    m("extsort.read_per_written", "ratio", "lower"),
    m("extsort.io_wait_s", "s", "lower"),
    m("extsort.io_wait_ranks", "count", "lower"),
    m("extsort.call_wall_s", "s", "lower"),
    m("service.warm_rounds", "count", "lower"),
    m("service.carried_probes", "count", "lower"),
    m("service.query.p50_us", "us", "lower"),
    m("service.query.p90_us", "us", "lower"),
    m("service.query.rank_p50_us", "us", "lower"),
    m("service.query.range_p50_us", "us", "lower"),
    m("service.query.percentile_p50_us", "us", "lower"),
    m("service.query.max_error_ratio", "ratio", "lower"),
    m("untraced.sort_wall_s", "s", "lower"),
    m("untraced.sort_cpu_s", "s", "lower"),
    m("trace.overhead_s", "s", "lower"),
];

/// Whether `name` is a legal metric or workload name: starts with a letter
/// or digit, at most 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The catalogue for one mode: end-to-end (`trace == false`) or per-layer.
pub fn for_mode(trace: bool) -> &'static [MetricDef] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Look up a declared metric by name in either list.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_legal_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
        assert!(!valid_name("_x") && !valid_name("a b") && !valid_name(&"a".repeat(65)));
    }

    #[test]
    fn every_sim_phase_has_its_four_columns() {
        for phase in SIM_PHASES {
            for col in ["wall_s", "sim_s", "comm_words", "disk_words"] {
                assert!(find(&format!("sim.{phase}.{col}")).is_some(), "{phase}.{col}");
            }
        }
    }
}
