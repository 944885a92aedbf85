//! The repository benchmark.
//!
//! One command runs one named workload in-process on inputs generated from
//! `--seed`, times calls into the sorter's public API with a single
//! closed-loop caller, checks every output, and prints every metric by
//! name and unit.  With `--trace 0` the metrics are the end-to-end ones of
//! [`catalog::END_TO_END`]; with `--trace 1` a separate traced run rebuilds
//! the same sort from the layers' public functions, records wall-clock
//! spans around each call and prints the per-layer metrics of
//! [`catalog::PER_LAYER`].
//!
//! Workloads (see [`Workload`]): `inmem-u64`, `ooc-tera` and
//! `service-epochs`.  Every workload sorts with the default
//! [`hss_core::HssConfig`] written out field by field ([`bench_config`]),
//! so environment overrides such as `LOCAL_SORT` cannot change what is
//! measured; they are recorded in the provenance line instead.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload inmem-u64 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

pub mod catalog;
mod check;
mod host;
mod service;
mod sorts;
mod span;
mod stats;

use std::path::PathBuf;
use std::time::Instant;

use hss_core::{HssConfig, LocalSortAlgo, RoundSchedule, SplitterRule};
use hss_partition::ExchangeEngine;
use hss_sim::{MetricsRegistry, Phase};

use catalog::MetricDef;

/// `MetricsRegistry::deterministic_signature` of one sort: the
/// parallelism-independent cost columns the traced run must reproduce.
pub(crate) type Signature = Vec<(&'static str, u64, u64, u64, u64, u64, u64)>;

/// Set-up is repeated this many times per run and its median reported.
/// The first one or two set-ups of a process fault in fresh pages and read
/// up to 40% high; nine keeps the median among the later ones.
pub(crate) const SETUP_REPS: usize = 9;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 64 ranks at 16 per node, 250,000 uniform u64 keys per rank,
    /// `HssSorter::sort` on a Bsp machine: local sort and merge dominate.
    InMemU64,
    /// 16 flat ranks, 250,000 `TeraRecord`s per rank, memory cap 1/16 of a
    /// rank's bytes, pipelined `HssSorter::sort_out_of_core` with
    /// overlapped I/O on an Overlapped machine: the spill path.
    OocTera,
    /// `SortService<u64>` on 64 ranks at 16 per node: 8 epochs of 25,000
    /// drifting keys per rank, each seal followed by 5,000 rounds of
    /// percentile, rank and range-count queries.
    ServiceEpochs,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::InMemU64, Workload::OocTera, Workload::ServiceEpochs];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::InMemU64 => "inmem-u64",
            Workload::OocTera => "ooc-tera",
            Workload::ServiceEpochs => "service-epochs",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: the stated sizes, or a tiny shape for the benchmark's own
/// tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes stated in [`Workload`].
    Full,
    /// A few thousand keys, same code paths.
    Tiny,
}

/// One benchmark run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// How long the timed loop runs (it always completes at least one call).
    pub seconds: f64,
    /// `false`: end-to-end metrics with tracing off; `true`: the traced run
    /// and per-layer metrics.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
    /// Corrupt every checked output after the call (tests only): every
    /// operation must then be counted as failed.
    pub corrupt_output: bool,
    /// Directory (inside the checkout) for scratch files and the span dump.
    pub work_dir: PathBuf,
}

impl Options {
    /// Defaults for `workload`: seed 1, one second, tracing off, full size,
    /// work directory `.bench_out` under the current directory.
    pub fn new(workload: Workload) -> Self {
        Self {
            workload,
            seed: 1,
            seconds: 1.0,
            trace: false,
            scale: Scale::Full,
            corrupt_output: false,
            work_dir: PathBuf::from(".bench_out"),
        }
    }

    /// Whether the timed loop started at `start` should begin another
    /// iteration: always until `done` iterations cover the required ones,
    /// then only if one more iteration of the mean length so far is
    /// expected to end within `seconds`.
    fn another(&self, start: Instant, done: usize, required: usize) -> bool {
        let elapsed = start.elapsed().as_secs_f64();
        done < required || elapsed + elapsed / done as f64 <= self.seconds
    }
}

/// What one run measured.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations (sorts, seals, queries) whose output was checked.
    pub attempted: u64,
    /// Of those, operations that panicked or failed their check.
    pub failed: u64,
    /// Whether the traced run matched the untraced program (always true
    /// with tracing off).
    pub traced_matches: bool,
    /// Metric values by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Provenance `(key, value)` pairs.
    pub provenance: Vec<(String, String)>,
    /// Human-readable report lines printed before the JSON line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Set a metric value (replacing an earlier one of the same name).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(catalog::find(name).is_some(), "undeclared metric {name}");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    /// Record a provenance entry.
    pub fn note_provenance(&mut self, key: &str, value: impl ToString) {
        self.provenance.push((key.to_string(), value.to_string()));
    }

    /// Count one checked operation.
    pub fn record_check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.failed <= 5 {
                self.notes.push(format!("FAILED {what}: {e}"));
            }
        }
    }

    /// `failed / attempted`, a fraction in [0, 1].
    pub fn failed_fraction(&self) -> f64 {
        stats::fraction(self.failed as f64, self.attempted as f64)
    }

    /// Whether every checked operation passed and the traced run matched.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.traced_matches
    }

    /// The declared metrics of this mode with their values; a per-layer
    /// metric the workload does not exercise reads 0.
    pub fn declared(&self, trace: bool) -> Vec<(&'static MetricDef, f64)> {
        catalog::for_mode(trace)
            .iter()
            .map(|def| {
                let value = self.metrics.iter().find(|(n, _)| *n == def.name).map(|(_, v)| *v);
                if !trace {
                    assert!(
                        value.is_some_and(|v| v != 0.0),
                        "end-to-end metric {} was not measured",
                        def.name
                    );
                }
                (def, value.unwrap_or(0.0))
            })
            .collect()
    }

    /// The final JSON line.
    pub fn json_line(&self, trace: bool) -> String {
        let metrics: Vec<String> = self
            .declared(trace)
            .iter()
            .map(|(def, v)| {
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", def.name, num(*v), def.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The provenance as one JSON object.
    pub fn provenance_json(&self) -> String {
        let fields: Vec<String> = self
            .provenance
            .iter()
            .map(|(k, v)| format!("\"{k}\": \"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// A JSON number with every digit the measurement has.
fn num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// `HssConfig::default()` with every field written out, so a new field or
/// an environment override (`LOCAL_SORT`) cannot silently change what the
/// benchmark measures.
pub fn bench_config() -> HssConfig {
    HssConfig {
        epsilon: 0.05,
        schedule: RoundSchedule::ConstantOversampling { oversampling: 5.0, max_rounds: 64 },
        splitter_rule: SplitterRule::ClosestRank,
        node_level: false,
        within_node_epsilon: 0.05,
        tag_duplicates: false,
        approximate_histograms: false,
        exchange_engine: ExchangeEngine::Flat,
        local_sort: LocalSortAlgo::Radix,
        min_stage_fraction: 0.02,
        ext_sort: None,
        seed: 0xC0FFEE,
    }
}

/// The HSS sampling seed of the `call`-th sort of a run: the default seed
/// for call 0, a fresh one for every later call, so the splitter counts
/// average over HSS's own sampling randomness instead of resting on one
/// draw (round counts flip between 3 and 4 across draws on `inmem-u64`).
pub(crate) fn sampler_seed(call: usize) -> u64 {
    bench_config().seed ^ (call as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The simulator phases of [`catalog::SIM_PHASES`], in that order.
pub(crate) fn sim_phases() -> Vec<Phase> {
    catalog::SIM_PHASES
        .iter()
        .map(|name| {
            *Phase::ALL.iter().find(|p| p.name() == *name).expect("catalogue names a real phase")
        })
        .collect()
}

/// Simulated words of splitter determination: sampling, histogramming and
/// the splitter broadcast.
pub(crate) fn splitter_words(m: &MetricsRegistry) -> f64 {
    [Phase::Sampling, Phase::Histogramming, Phase::SplitterBroadcast]
        .iter()
        .map(|&p| m.phase(p).comm_words as f64)
        .sum()
}

/// Whether the cost model ranks the sort-path phases as their measured
/// wall times do: the fraction of concordant phase pairs, plus the two
/// orders as text.
pub(crate) fn phase_order(m: &MetricsRegistry) -> (f64, String) {
    let phases = sim_phases();
    let wall: Vec<f64> = phases.iter().map(|&p| m.phase(p).wall_seconds).collect();
    let sim: Vec<f64> = phases.iter().map(|&p| m.phase(p).simulated_seconds).collect();
    let order = |v: &[f64]| {
        let mut idx: Vec<usize> = (0..v.len()).collect();
        idx.sort_by(|&a, &b| v[b].total_cmp(&v[a]));
        idx.iter().map(|&i| phases[i].name()).collect::<Vec<_>>().join(" > ")
    };
    let concordance = stats::pair_concordance(&wall, &sim);
    let text = format!(
        "measured wall: {}; cost model: {}; concordant pairs: {:.3} ({})",
        order(&wall),
        order(&sim),
        concordance,
        if concordance == 1.0 { "same order" } else { "orders differ" }
    );
    (concordance, text)
}

/// Fill the `sim.<phase>.*` columns from per-call phase metrics (medians
/// over calls).
pub(crate) fn set_sim_columns(out: &mut Outcome, per_call: &[MetricsRegistry]) {
    for (phase, name) in sim_phases().into_iter().zip(catalog::SIM_PHASES) {
        let col = |f: fn(&hss_sim::PhaseMetrics) -> f64| {
            stats::median(&per_call.iter().map(|m| f(&m.phase(phase))).collect::<Vec<_>>())
        };
        let columns: [(&str, f64); 4] = [
            ("wall_s", col(|p| p.wall_seconds)),
            ("sim_s", col(|p| p.simulated_seconds)),
            ("comm_words", col(|p| p.comm_words as f64)),
            ("disk_words", col(|p| p.disk_words as f64)),
        ];
        for (suffix, value) in columns {
            let full = format!("sim.{name}.{suffix}");
            let def = catalog::find(&full).expect("declared sim column");
            out.set(def.name, value);
        }
    }
}

/// Run one workload.
pub fn run(opts: &Options) -> Outcome {
    let mut out = Outcome { traced_matches: true, ..Outcome::default() };
    out.note_provenance("workload", opts.workload.name());
    out.note_provenance("seed", opts.seed);
    out.note_provenance("seconds", opts.seconds);
    out.note_provenance("trace", u8::from(opts.trace));
    out.note_provenance("scale", format!("{:?}", opts.scale).to_lowercase());
    out.note_provenance("git_revision", host::git_revision());
    out.note_provenance("nproc", host::nproc());
    out.note_provenance("env_LOCAL_SORT", host::env_seen("LOCAL_SORT"));
    out.note_provenance("env_RAYON_NUM_THREADS", host::env_seen("RAYON_NUM_THREADS"));
    out.note_provenance("peak_rss_reset", host::reset_peak_rss());
    match opts.workload {
        Workload::ServiceEpochs => service::run(opts, &mut out),
        w => sorts::run(w, opts, &mut out),
    }
    out.notes.push(format!(
        "failed_fraction: {:.6} ({} of {} checked operations)",
        out.failed_fraction(),
        out.failed,
        out.attempted
    ));
    out
}

/// Time `SETUP_REPS` set-ups, keep the last, and return it with the median
/// set-up time in process CPU seconds (steady under CPU steal; the wall
/// median goes to the report notes).  Each set-up builds its own rayon
/// pool of `nproc` threads and runs inside it; earlier set-ups are dropped
/// before the next starts so their memory is not counted twice, and their
/// freed memory is returned to the kernel after the last one.
pub(crate) fn timed_setup<S: Send>(
    out: &mut Outcome,
    mut build: impl FnMut() -> S + Send,
) -> (rayon::ThreadPool, S) {
    let mut kept: Option<(rayon::ThreadPool, S)> = None;
    let mut cpu = Vec::with_capacity(SETUP_REPS);
    let mut wall = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let cpu0 = host::process_cpu_seconds();
        let start = Instant::now();
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(host::nproc())
            .build()
            .expect("rayon pool builds");
        let state = pool.install(&mut build);
        wall.push(start.elapsed().as_secs_f64());
        cpu.push(host::process_cpu_seconds() - cpu0);
        kept = Some((pool, state));
    }
    host::release_free_memory();
    out.set("setup_s", stats::median(&cpu));
    out.notes.push(format!(
        "setup_s: median of {SETUP_REPS} set-ups in CPU seconds: cpu {}; wall {}",
        stats::spread_text(&cpu),
        stats::spread_text(&wall)
    ));
    kept.expect("at least one set-up ran")
}

/// Write the traced run's spans with self times under the work directory.
pub(crate) fn write_spans(tracer: &span::Tracer, opts: &Options, out: &mut Outcome) {
    let path =
        opts.work_dir.join(format!("spans-{}-seed{}.jsonl", opts.workload.name(), opts.seed));
    let written = std::fs::create_dir_all(&opts.work_dir)
        .and_then(|()| std::fs::write(&path, tracer.to_json_lines()));
    out.notes.push(match written {
        Ok(()) => format!("spans written to {}", path.display()),
        Err(e) => format!("spans not written to {}: {e}", path.display()),
    });
}
