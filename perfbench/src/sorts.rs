//! The two sort workloads: `inmem-u64` (`HssSorter::sort`) and `ooc-tera`
//! (`HssSorter::sort_out_of_core`).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use hss_core::{
    charged_local_sort, determine_splitters_with, ExtSortPolicy, HssConfig, HssSorter,
    RadixSortable, SplitterReport,
};
use hss_extsort::{ExtSortReport, IoMode, PlainRecord};
use hss_keygen::{generate_tera_records_per_rank, KeyDistribution, Keyed};
use hss_partition::{
    exchange_and_merge_flat_with, kway_merge_slices, verify_global_sort, ExchangeEngine,
    ExchangeMode, LoadBalance,
};
use hss_sim::{CostModel, Machine, MetricsRegistry, Phase, SyncModel, Topology, Work};

use crate::check::{check_sorted_permutation, Fingerprint, Multiset};
use crate::span::{union_secs, Tracer};
use crate::stats::{mean, median, spread_text};
use crate::{
    bench_config, host, phase_order, sampler_seed, set_sim_columns, splitter_words, timed_setup,
    Options, Outcome, Scale, Signature, Workload,
};

/// Shape of one sort workload.
#[derive(Debug, Clone)]
struct SortSpec {
    ranks: usize,
    cores_per_node: usize,
    keys_per_rank: usize,
    sync: SyncModel,
    /// Memory cap divisor for the out-of-core tier (`None`: in memory).
    cap_divisor: Option<usize>,
}

impl SortSpec {
    fn of(workload: Workload, scale: Scale) -> Self {
        let tiny = scale == Scale::Tiny;
        match workload {
            Workload::InMemU64 => Self {
                ranks: if tiny { 8 } else { 64 },
                cores_per_node: if tiny { 4 } else { 16 },
                keys_per_rank: if tiny { 2_000 } else { 250_000 },
                sync: SyncModel::Bsp,
                cap_divisor: None,
            },
            Workload::OocTera => Self {
                ranks: if tiny { 4 } else { 16 },
                cores_per_node: 1,
                keys_per_rank: if tiny { 2_000 } else { 250_000 },
                sync: SyncModel::Overlapped,
                cap_divisor: Some(16),
            },
            Workload::ServiceEpochs => unreachable!("the service workload has its own module"),
        }
    }

    fn machine(&self) -> Machine {
        let cost = if self.cap_divisor.is_some() {
            CostModel::default()
        } else {
            CostModel::bluegene_like()
        };
        Machine::new(Topology::new(self.ranks, self.cores_per_node), cost)
            .with_sync_model(self.sync)
    }

    fn config(&self, record_bytes: usize, run_dir: &Path) -> HssConfig {
        let mut cfg = bench_config();
        if let Some(divisor) = self.cap_divisor {
            cfg.ext_sort = Some(ExtSortPolicy {
                memory_cap_bytes: self.keys_per_rank * record_bytes / divisor,
                run_dir: run_dir.to_string_lossy().into_owned(),
                fan_in: 16,
                io_mode: IoMode::Overlapped,
                pipelined: true,
                prefetch_depth: None,
            });
        }
        cfg
    }
}

/// A scratch directory removed (with its contents) when dropped.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn create(path: PathBuf) -> Self {
        std::fs::create_dir_all(&path).expect("create the scratch directory");
        Self(path)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Wall-clock layer times of one traced sort.
#[derive(Debug, Clone, Default)]
struct LayerTimes {
    lsort_wall: f64,
    lsort_busy: f64,
    splitters_wall: f64,
    round_max: f64,
    probes: f64,
    merge_wall: f64,
    merge_busy: f64,
    merge_max: f64,
    fan_in: f64,
    exchange_wall: f64,
    /// Summed duration of the top-level layer calls.
    calls_wall: f64,
}

/// One completed sort call.
struct Call<T> {
    data: Vec<Vec<T>>,
    wall: f64,
    cpu: f64,
    peak_mb: f64,
    splitters: Option<SplitterReport>,
    load: LoadBalance,
    metrics: MetricsRegistry,
    makespan: f64,
    ext: Option<ExtSortReport>,
    layers: Option<LayerTimes>,
}

/// Rebuild `HssSorter::sort`'s plain Bsp path from the layers' public
/// functions, in the order the sorter calls them, with a span around each
/// call and around every per-rank local sort, splitter round and
/// per-destination merge.
fn traced_sort<T>(
    tr: &Tracer,
    machine: &mut Machine,
    mut data: Vec<Vec<T>>,
    cfg: &HssConfig,
) -> (Vec<Vec<T>>, SplitterReport, LayerTimes)
where
    T: Keyed + Ord + RadixSortable + Send + Sync,
    T::K: RadixSortable,
{
    assert!(
        machine.sync_model() == SyncModel::Bsp
            && !cfg.node_level
            && !cfg.tag_duplicates
            && cfg.exchange_engine == ExchangeEngine::Flat,
        "the traced rebuild mirrors only the plain Bsp flat-engine path of HssSorter::sort"
    );
    let root = tr.open("sort", None, None);
    let root_id = root.id();

    let algo = cfg.local_sort;
    let (_, local_call) = tr.in_span("sim.local_phase", Some(root_id), None, |id| {
        machine.local_phase(Phase::LocalSort, &mut data, |rank, local| {
            tr.in_span("lsort.charged_local_sort", Some(id), Some(rank), |_| {
                charged_local_sort(algo, local)
            })
            .0
        })
    });

    let p = machine.ranks();
    let mut rounds = Vec::new();
    let mut probes = 0usize;
    let ((splitters, report), splitter_call) =
        tr.in_span("core.determine_splitters_with", Some(root_id), None, |id| {
            let mut last = tr.now();
            determine_splitters_with(machine, &data, p, cfg, |_machine, progress| {
                let now = tr.now();
                rounds.push(tr.record("core.splitters.round", Some(id), None, last, now));
                last = now;
                probes += progress.probes.len();
            })
        });

    // The mode `HssSorter::sort` picks for a non-node-level Bsp sort.
    let mode = if machine.topology().cores_per_node() > 1 {
        ExchangeMode::NodeCombined
    } else {
        ExchangeMode::RankLevel
    };
    let pieces_total = AtomicUsize::new(0);
    let (out, exchange_call) =
        tr.in_span("partition.exchange_and_merge_flat_with", Some(root_id), None, |id| {
            exchange_and_merge_flat_with(machine, &data, &splitters, mode, |dst, runs| {
                tr.in_span("partition.kway_merge_slices", Some(id), Some(dst), |_| {
                    let len: usize = runs.iter().map(|r| r.len()).sum();
                    let pieces = runs.iter().filter(|r| !r.is_empty()).count();
                    pieces_total.fetch_add(pieces, Ordering::Relaxed);
                    (kway_merge_slices(runs), Work::merge(len, pieces.max(1)))
                })
                .0
            })
        });
    tr.close(root);

    let spans = tr.spans();
    let children = |parent: usize| -> Vec<_> {
        spans.iter().flatten().filter(|s| s.parent == Some(parent)).cloned().collect()
    };
    let lsorts = children(local_call.id);
    let merges = children(exchange_call.id);
    let busy = |v: &[crate::span::Span]| v.iter().map(|s| s.secs()).sum::<f64>();
    let merge_wall = union_secs(&merges);
    let layers = LayerTimes {
        lsort_wall: union_secs(&lsorts),
        lsort_busy: busy(&lsorts),
        splitters_wall: splitter_call.secs(),
        round_max: rounds.iter().map(|s| s.secs()).fold(0.0, f64::max),
        probes: probes as f64,
        merge_wall,
        merge_busy: busy(&merges),
        merge_max: merges.iter().map(|s| s.secs()).fold(0.0, f64::max),
        fan_in: pieces_total.load(Ordering::Relaxed) as f64 / p as f64,
        exchange_wall: exchange_call.secs() - merge_wall,
        calls_wall: local_call.secs() + splitter_call.secs() + exchange_call.secs(),
    };
    (out, report, layers)
}

/// Sort `input` once on a fresh machine, untraced through the public entry
/// point or traced through the rebuild (in memory) or a span around the
/// public call (out of core).
fn sort_once<T>(
    spec: &SortSpec,
    cfg: &HssConfig,
    input: Vec<Vec<T>>,
    tracer: Option<&Tracer>,
) -> Call<T>
where
    T: Keyed + Ord + RadixSortable + PlainRecord + Send + Sync,
    T::K: RadixSortable,
{
    let mut machine = spec.machine();
    let sorter = HssSorter::new(cfg.clone());
    host::release_free_memory();
    host::reset_peak_rss();
    let cpu0 = host::process_cpu_seconds();
    let start = Instant::now();
    let (data, splitters, ext, layers) = match (spec.cap_divisor, tracer) {
        (None, None) => {
            let o = sorter.sort(&mut machine, input);
            (o.data, o.report.splitters, None, None)
        }
        (None, Some(tr)) => {
            let (data, report, layers) = traced_sort(tr, &mut machine, input, cfg);
            (data, Some(report), None, Some(layers))
        }
        (Some(_), tr) => {
            let call = |m: &mut Machine| sorter.sort_out_of_core(m, input);
            let (o, ext) = match tr {
                Some(tr) => {
                    tr.in_span("core.sort_out_of_core", None, None, |_| call(&mut machine)).0
                }
                None => call(&mut machine),
            };
            (o.data, o.report.splitters, Some(ext), None)
        }
    };
    let wall = start.elapsed().as_secs_f64();
    let cpu = host::process_cpu_seconds() - cpu0;
    let peak_mb = host::peak_rss_mb();
    let load = LoadBalance::from_rank_data(&data);
    Call {
        data,
        wall,
        cpu,
        peak_mb,
        splitters,
        load,
        metrics: machine.metrics().clone(),
        makespan: machine.simulated_time(),
        ext,
        layers,
    }
}

/// Run one sort workload and fill `out`.
pub fn run(workload: Workload, opts: &Options, out: &mut Outcome) {
    let spec = SortSpec::of(workload, opts.scale);
    match workload {
        Workload::OocTera => run_typed(&spec, opts, out, generate_tera_records_per_rank),
        _ => run_typed(&spec, opts, out, |p, n, seed| {
            KeyDistribution::Uniform.generate_per_rank(p, n, seed)
        }),
    }
}

fn run_typed<T>(
    spec: &SortSpec,
    opts: &Options,
    out: &mut Outcome,
    generate: impl Fn(usize, usize, u64) -> Vec<Vec<T>> + Send + Sync,
) where
    T: Keyed + Ord + RadixSortable + PlainRecord + Fingerprint + Send + Sync + 'static,
    T::K: RadixSortable,
{
    let record_bytes = std::mem::size_of::<T>();
    let total_keys = spec.ranks * spec.keys_per_rank;
    let input_mb = (total_keys * record_bytes) as f64 / 1e6;
    out.note_provenance("ranks", spec.ranks);
    out.note_provenance("cores_per_node", spec.cores_per_node);
    out.note_provenance("keys_per_rank", spec.keys_per_rank);
    out.note_provenance("record_bytes", record_bytes);
    out.note_provenance("input_mb", input_mb);
    out.note_provenance("sync_model", spec.sync.name());

    let scratch_path =
        opts.work_dir.join(format!("scratch-{}-{}", opts.workload.name(), std::process::id()));
    let out_of_core = spec.cap_divisor.is_some();
    let (pool, (input, scratch)) = timed_setup(out, || {
        let scratch = out_of_core.then(|| ScratchDir::create(scratch_path.clone()));
        (generate(spec.ranks, spec.keys_per_rank, opts.seed), scratch)
    });
    out.note_provenance("rayon_pool_threads", pool.current_num_threads());
    out.note_provenance(
        "scratch_fs",
        scratch.as_ref().map_or_else(|| "none".to_string(), |d| host::filesystem_of(&d.0)),
    );
    let run_dir = scratch.as_ref().map_or_else(PathBuf::new, |d| d.0.clone());
    let cfg = spec.config(record_bytes, &run_dir);
    if let Some(policy) = &cfg.ext_sort {
        out.note_provenance("memory_cap_bytes", policy.memory_cap_bytes);
    }

    pool.install(|| measure(spec, &cfg, &input, input_mb, opts, out));
    drop(scratch);
}

fn measure<T>(
    spec: &SortSpec,
    cfg: &HssConfig,
    input: &[Vec<T>],
    input_mb: f64,
    opts: &Options,
    out: &mut Outcome,
) where
    T: Keyed + Ord + RadixSortable + PlainRecord + Fingerprint + Send + Sync,
    T::K: RadixSortable,
{
    let fingerprint = Multiset::of(input);
    let limit = 1.0 + cfg.epsilon;
    let tracer = Tracer::new();
    // Checks and counts one call; a call that panicked counts as failed.
    let check = |out: &mut Outcome, what: &str, call: Option<&mut Call<T>>| {
        let Some(call) = call else {
            out.record_check(what, Err("the sort panicked".to_string()));
            return;
        };
        if opts.corrupt_output {
            if let Some(local) = call.data.iter_mut().max_by_key(|l| l.len()) {
                local.pop();
            }
        }
        let result = check_sorted_permutation(&fingerprint, &call.data).and_then(|()| {
            if call.load.imbalance > limit {
                Err(format!("load imbalance {:.4} exceeds 1+eps = {limit}", call.load.imbalance))
            } else {
                Ok(())
            }
        });
        out.record_check(what, result);
    };
    let attempt = |traced: bool, call: usize| {
        let cfg = HssConfig { seed: sampler_seed(call), ..cfg.clone() };
        let tr = traced.then_some(&tracer);
        catch_unwind(AssertUnwindSafe(|| sort_once(spec, &cfg, input.to_vec(), tr))).ok()
    };

    // Untimed warm-up, also checked by the program's own verifier.
    let mut warm = attempt(false, 0);
    if let Some(w) = &warm {
        out.record_check("warm-up verify_global_sort", verify_global_sort(input, &w.data));
    }
    check(out, "warm-up sort", warm.as_mut());
    drop(warm);

    // Untraced runs give call `i` sampling seed `i`; traced runs pair an
    // untraced and a traced call on one seed and compare their outputs
    // and cost signatures bit for bit.
    let mut plain: Vec<Call<T>> = Vec::new();
    let mut traced: Vec<Call<T>> = Vec::new();
    let mut reference: Option<(Vec<Vec<T>>, Signature)> = None;
    let start = Instant::now();
    let mut i = 0usize;
    while opts.another(start, i, if opts.trace { 2 } else { 1 }) {
        let is_traced = opts.trace && i % 2 == 1;
        let seed_index = if opts.trace { i / 2 } else { i };
        i += 1;
        let mut call = attempt(is_traced, seed_index);
        check(out, if is_traced { "traced sort" } else { "sort" }, call.as_mut());
        let Some(mut call) = call else { continue };
        let data = std::mem::take(&mut call.data);
        if !is_traced {
            if opts.trace {
                reference = Some((data, call.metrics.deterministic_signature()));
            }
            plain.push(call);
            continue;
        }
        let same = reference.take().is_some_and(|(ref_data, sig)| {
            ref_data == data && sig == call.metrics.deterministic_signature()
        });
        if !same {
            out.traced_matches = false;
            out.notes.push(
                "FAILED traced-equals-untraced: the traced rebuild's output or cost \
                 signature differs from HssSorter's"
                    .to_string(),
            );
        }
        traced.push(call);
    }

    let walls = |calls: &[Call<T>]| calls.iter().map(|c| c.wall).collect::<Vec<_>>();
    let cpus = |calls: &[Call<T>]| calls.iter().map(|c| c.cpu).collect::<Vec<_>>();
    let sort_wall = median(&walls(&plain));
    let sort_cpu = median(&cpus(&plain));
    out.notes.push(format!(
        "{} untraced calls{}: wall {}; cpu {}",
        plain.len(),
        if opts.trace { format!(" and {} traced calls", traced.len()) } else { String::new() },
        spread_text(&walls(&plain)),
        spread_text(&cpus(&plain)),
    ));
    if let Some(last) = plain.last() {
        out.notes.push(format!(
            "phase order ({}): {}",
            opts.workload.name(),
            phase_order(&last.metrics).1
        ));
    }
    if !opts.trace {
        let avg = |f: &dyn Fn(&Call<T>) -> f64| mean(&plain.iter().map(f).collect::<Vec<_>>());
        out.set("sort_cpu_s", sort_cpu);
        out.set("sort_mb_per_cpu_s", input_mb / sort_cpu);
        out.set("load_imbalance", avg(&|c| c.load.imbalance));
        out.set(
            "splitter_rounds",
            avg(&|c| c.splitters.as_ref().map_or(0.0, |s| s.rounds_executed() as f64)),
        );
        out.set(
            "sample_keys",
            avg(&|c| c.splitters.as_ref().map_or(0.0, |s| s.total_sample_size as f64)),
        );
        out.set("splitter_comm_words", avg(&|c| splitter_words(&c.metrics)));
        out.set(
            "exchange_comm_words",
            avg(&|c| c.metrics.phase(Phase::DataExchange).comm_words as f64),
        );
        out.set("sim_makespan_s", avg(&|c| c.makespan));
        out.set("peak_rss_mb", median(&plain.iter().map(|c| c.peak_mb).collect::<Vec<_>>()));
        return;
    }

    // Per-layer metrics from the traced calls.
    let med = |f: &dyn Fn(&Call<T>) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let n = (spec.ranks * spec.keys_per_rank) as f64;
    out.set("untraced.sort_wall_s", sort_wall);
    out.set("untraced.sort_cpu_s", sort_cpu);
    out.set("trace.overhead_s", median(&walls(&traced)) - sort_wall);
    let registries: Vec<MetricsRegistry> = traced.iter().map(|c| c.metrics.clone()).collect();
    set_sim_columns(out, &registries);
    out.set("sim.phase_order_concordance", med(&|c| phase_order(&c.metrics).0));
    out.set(
        "core.splitters.probes",
        med(&|c| {
            c.layers.as_ref().map_or_else(
                || {
                    c.splitters
                        .as_ref()
                        .map_or(0.0, |s| s.rounds.iter().map(|r| r.probe_count as f64).sum())
                },
                |l| l.probes,
            )
        }),
    );
    if spec.cap_divisor.is_none() {
        let layer = |f: fn(&LayerTimes) -> f64| med(&|c| c.layers.as_ref().map_or(0.0, f));
        out.set("lsort.wall_s", layer(|l| l.lsort_wall));
        out.set("lsort.ns_per_key", layer(|l| l.lsort_busy) * 1e9 / n);
        out.set("core.splitters.wall_s", layer(|l| l.splitters_wall));
        out.set("core.splitters.round_max_s", layer(|l| l.round_max));
        out.set("partition.merge.wall_s", layer(|l| l.merge_wall));
        out.set("partition.merge.max_rank_s", layer(|l| l.merge_max));
        out.set("partition.merge.ns_per_key", layer(|l| l.merge_busy) * 1e9 / n);
        out.set("partition.merge.fan_in", layer(|l| l.fan_in));
        out.set("partition.exchange.wall_s", layer(|l| l.exchange_wall));
        out.set(
            "sim.unattributed_wall_s",
            med(&|c| {
                c.layers.as_ref().map_or(0.0, |l| l.calls_wall) - c.metrics.total_wall_seconds()
            }),
        );
    } else {
        let ext = |f: fn(&ExtSortReport) -> f64| med(&|c| c.ext.as_ref().map_or(0.0, f));
        out.set("extsort.runs_formed", ext(|e| e.runs_formed as f64));
        out.set("extsort.merge_passes", ext(|e| e.merge_passes as f64));
        out.set("extsort.bytes_written", ext(|e| e.bytes_written as f64));
        out.set("extsort.bytes_read", ext(|e| e.bytes_read as f64));
        out.set("extsort.scratch_bytes", ext(|e| e.disk_bytes() as f64));
        out.set(
            "extsort.read_per_written",
            ext(|e| {
                if e.bytes_written > 0 {
                    e.bytes_read as f64 / e.bytes_written as f64
                } else {
                    0.0
                }
            }),
        );
        out.set("extsort.io_wait_s", ext(|e| e.io_wait_seconds));
        let cap = cfg.ext_sort.as_ref().map_or(usize::MAX, |p| p.memory_cap_bytes);
        let spilled = input.iter().filter(|l| std::mem::size_of_val(l.as_slice()) > cap).count();
        out.set("extsort.io_wait_ranks", spilled as f64);
        out.set("extsort.call_wall_s", median(&walls(&traced)));
        out.set("sim.unattributed_wall_s", med(&|c| c.wall - c.metrics.total_wall_seconds()));
        out.notes.push(format!(
            "extsort.io_wait_s sums the blocked time of {spilled} spilled ranks' sorting \
             threads over one {:.3} s call on a {}-thread pool",
            median(&walls(&traced)),
            rayon::current_num_threads()
        ));
    }
    crate::write_spans(&tracer, opts, out);
}
