//! The `service-epochs` workload: a `SortService<u64>` sealing drifting
//! epochs, with one closed-loop client querying after every seal.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use hss_service::{DriftingWorkload, EpochReport, ServiceConfig, SortService};
use hss_sim::{CostModel, Machine, Phase, Topology};

use crate::check::{check_sorted_permutation, exact_rank_le, Multiset};
use crate::span::Tracer;
use crate::stats::{mean, median, quantile, spread_text};
use crate::{bench_config, host, phase_order, set_sim_columns, splitter_words, timed_setup};
use crate::{Options, Outcome, Scale, Signature};

/// Shape of the service workload.
#[derive(Debug, Clone)]
struct ServiceSpec {
    ranks: usize,
    cores_per_node: usize,
    keys_per_rank: usize,
    epochs: usize,
    query_rounds: usize,
    drift: f64,
}

impl ServiceSpec {
    fn of(scale: Scale) -> Self {
        match scale {
            Scale::Full => Self {
                ranks: 64,
                cores_per_node: 16,
                keys_per_rank: 25_000,
                epochs: 8,
                query_rounds: 5_000,
                drift: 0.05,
            },
            Scale::Tiny => Self {
                ranks: 8,
                cores_per_node: 4,
                keys_per_rank: 500,
                epochs: 3,
                query_rounds: 20,
                drift: 0.05,
            },
        }
    }

    fn service(&self) -> SortService<u64> {
        let machine = Machine::new(
            Topology::new(self.ranks, self.cores_per_node),
            CostModel::bluegene_like(),
        );
        let config = ServiceConfig::new(bench_config()).expect("the default config is valid");
        SortService::with_machine(machine, config)
    }
}

/// SplitMix64: the query client's deterministic random stream.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn between(&mut self, lo: u64, hi: u64) -> u64 {
        lo + ((hi - lo) as f64 * self.unit()) as u64
    }
}

/// One sealed epoch.
struct Seal {
    epoch: usize,
    wall: f64,
    cpu: f64,
    peak_mb: f64,
    report: EpochReport,
    keyspace_mb: f64,
    /// Seal wall time no phase's wall time covers, plus the same for the
    /// epoch's queries.
    unattributed: f64,
    /// `(keyspace fingerprint, cost signature)`, for traced-vs-untraced.
    identity: (Multiset, Signature),
}

/// Everything one pass over the epochs measured.
#[derive(Default)]
struct Pass {
    seals: Vec<Seal>,
    rank_us: Vec<f64>,
    range_us: Vec<f64>,
    percentile_us: Vec<f64>,
    max_error_ratio: f64,
}

impl Pass {
    /// The timed seals: every epoch after the pass's cold-start epoch 0,
    /// which is its untimed warm-up.
    fn timed(&self) -> impl Iterator<Item = &Seal> {
        self.seals.iter().filter(|s| s.epoch > 0)
    }

    /// Mean of `f` over the timed seals.
    fn mean(&self, f: fn(&Seal) -> f64) -> f64 {
        mean(&self.timed().map(f).collect::<Vec<_>>())
    }

    fn all_query_us(&self) -> Vec<f64> {
        [&self.rank_us, &self.range_us, &self.percentile_us]
            .into_iter()
            .flatten()
            .copied()
            .collect()
    }
}

/// Independent ingest streams an untraced run seals, each in its own pass,
/// so the splitter counts average over more than one drifting input.  A
/// 35-second run seals three passes, so each of them seals a distinct input.
const STREAMS: usize = 3;

/// The `DriftingWorkload` seed of stream `k`; stream 0 uses `--seed` itself.
fn stream_seed(seed: u64, k: usize) -> u64 {
    seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Run the service workload and fill `out`.
pub fn run(opts: &Options, out: &mut Outcome) {
    let spec = ServiceSpec::of(opts.scale);
    out.note_provenance("ranks", spec.ranks);
    out.note_provenance("cores_per_node", spec.cores_per_node);
    out.note_provenance("keys_per_rank_per_epoch", spec.keys_per_rank);
    out.note_provenance("epochs", spec.epochs);
    out.note_provenance("streams", STREAMS);
    out.note_provenance("query_rounds_per_epoch", spec.query_rounds);
    out.note_provenance("drift", spec.drift);
    out.note_provenance("record_bytes", 8);
    out.note_provenance("scratch_fs", "none");

    let (pool, (streams, first_service)) = timed_setup(out, || {
        let streams: Vec<Vec<Vec<Vec<u64>>>> = (0..STREAMS)
            .map(|k| {
                let seed = stream_seed(opts.seed, k);
                let mut workload =
                    DriftingWorkload::new(spec.ranks, spec.keys_per_rank, spec.drift, seed);
                (0..spec.epochs).map(|_| workload.next_batch()).collect()
            })
            .collect();
        (streams, spec.service())
    });
    out.note_provenance("rayon_pool_threads", pool.current_num_threads());
    pool.install(|| measure(&spec, &streams, first_service, opts, out));
}

fn measure(
    spec: &ServiceSpec,
    streams: &[Vec<Vec<Vec<u64>>>],
    first_service: SortService<u64>,
    opts: &Options,
    out: &mut Outcome,
) {
    let fps: Vec<Vec<Multiset>> =
        streams.iter().map(|s| s.iter().map(|b| Multiset::of(b)).collect()).collect();
    // Passes cycle through the plan: every stream untraced, or (traced
    // run) stream 0 untraced, then traced.  The timed loop ends between
    // passes, so a run's length tracks `--seconds` to within one pass.
    let plan: Vec<(usize, bool)> = if opts.trace {
        vec![(0, false), (0, true)]
    } else {
        (0..STREAMS).map(|k| (k, false)).collect()
    };
    let tracer = Tracer::new();
    let mut service = Some(first_service);
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let start = Instant::now();
    let mut done = 0;
    while opts.another(start, done, plan.len()) {
        let (k, is_traced) = plan[done % plan.len()];
        done += 1;
        let svc = service.take().unwrap_or_else(|| spec.service());
        let tr = is_traced.then_some(&tracer);
        let pass = run_pass(spec, svc, &streams[k], &fps[k], tr, opts, out);
        if !is_traced {
            plain.push(pass);
            continue;
        }
        let reference = &plain[0].seals;
        let same = reference.len() == pass.seals.len()
            && reference.iter().zip(&pass.seals).all(|(a, b)| a.identity == b.identity);
        if !same {
            out.traced_matches = false;
            out.notes.push(
                "FAILED traced-equals-untraced: a traced epoch's keyspace or cost \
                 signature differs from the untraced pass"
                    .to_string(),
            );
        }
        traced.push(pass);
    }

    let per_pass = |passes: &[Pass], f: &dyn Fn(&Pass) -> f64| {
        median(&passes.iter().map(f).collect::<Vec<_>>())
    };
    let seal_walls: Vec<f64> = plain.iter().flat_map(|p| p.timed().map(|s| s.wall)).collect();
    let seal_cpus: Vec<f64> = plain.iter().flat_map(|p| p.timed().map(|s| s.cpu)).collect();
    let plain_queries: Vec<f64> = plain.iter().flat_map(Pass::all_query_us).collect();
    out.notes.push(format!(
        "{} timed seal_epoch calls over {} passes: wall {}; cpu {}",
        seal_walls.len(),
        plain.len(),
        spread_text(&seal_walls),
        spread_text(&seal_cpus)
    ));
    out.notes.push(format!(
        "query latency p50 {:.2} us, p90 {:.2} us over {} calls",
        quantile(&plain_queries, 0.5),
        quantile(&plain_queries, 0.9),
        plain_queries.len()
    ));
    if let Some(last) = plain.last().and_then(|p| p.seals.last()) {
        out.notes
            .push(format!("phase order (service-epochs): {}", phase_order(&last.report.metrics).1));
    }
    let seal_wall = per_pass(&plain, &|p| p.mean(|s| s.wall));
    if !opts.trace {
        // Timings: per pass, the mean over its timed seals (epochs 1..),
        // then the median over passes; counts: the mean over passes.
        let avg = |f: fn(&Seal) -> f64| mean(&plain.iter().map(|p| p.mean(f)).collect::<Vec<_>>());
        out.set("sort_cpu_s", per_pass(&plain, &|p| p.mean(|s| s.cpu)));
        out.set(
            "sort_mb_per_cpu_s",
            per_pass(&plain, &|p| p.mean(|s| s.keyspace_mb) / p.mean(|s| s.cpu)),
        );
        out.set("load_imbalance", avg(|s| s.report.load_balance.imbalance));
        out.set("splitter_rounds", avg(|s| s.report.splitter_rounds as f64));
        out.set("sample_keys", avg(|s| s.report.splitters.total_sample_size as f64));
        out.set("splitter_comm_words", avg(|s| splitter_words(&s.report.metrics)));
        out.set(
            "exchange_comm_words",
            avg(|s| s.report.metrics.phase(Phase::DataExchange).comm_words as f64),
        );
        out.set("sim_makespan_s", avg(|s| s.report.makespan_seconds));
        out.set(
            "peak_rss_mb",
            per_pass(&plain, &|p| p.timed().map(|s| s.peak_mb).fold(0.0, f64::max)),
        );
        return;
    }

    let traced_seals: Vec<&Seal> = traced.iter().flat_map(Pass::timed).collect();
    let med =
        |f: &dyn Fn(&Seal) -> f64| median(&traced_seals.iter().map(|s| f(s)).collect::<Vec<_>>());
    out.set("untraced.sort_wall_s", seal_wall);
    out.set("untraced.sort_cpu_s", per_pass(&plain, &|p| p.mean(|s| s.cpu)));
    out.set("trace.overhead_s", per_pass(&traced, &|p| p.mean(|s| s.wall)) - seal_wall);
    let registries: Vec<_> = traced_seals.iter().map(|s| s.report.metrics.clone()).collect();
    set_sim_columns(out, &registries);
    out.set("sim.phase_order_concordance", med(&|s| phase_order(&s.report.metrics).0));
    out.set("sim.unattributed_wall_s", med(&|s| s.unattributed));
    out.set(
        "core.splitters.probes",
        med(&|s| s.report.splitters.rounds.iter().map(|r| r.probe_count as f64).sum()),
    );
    out.set(
        "service.warm_rounds",
        per_pass(&traced, &|p| p.timed().map(|s| s.report.splitter_rounds as f64).sum()),
    );
    out.set(
        "service.carried_probes",
        per_pass(&traced, &|p| p.mean(|s| s.report.carried_probes as f64)),
    );
    let pooled = |f: fn(&Pass) -> &Vec<f64>| {
        traced.iter().flat_map(|p| f(p).iter().copied()).collect::<Vec<_>>()
    };
    let all: Vec<f64> = traced.iter().flat_map(Pass::all_query_us).collect();
    out.set("service.query.p50_us", quantile(&all, 0.5));
    out.set("service.query.p90_us", quantile(&all, 0.9));
    out.set("service.query.rank_p50_us", median(&pooled(|p| &p.rank_us)));
    out.set("service.query.range_p50_us", median(&pooled(|p| &p.range_us)));
    out.set("service.query.percentile_p50_us", median(&pooled(|p| &p.percentile_us)));
    out.set(
        "service.query.max_error_ratio",
        traced.iter().map(|p| p.max_error_ratio).fold(0.0, f64::max),
    );
    crate::write_spans(&tracer, opts, out);
}

/// Seal every epoch on `svc`, querying after each seal, checking every
/// seal and every answer.
fn run_pass(
    spec: &ServiceSpec,
    mut svc: SortService<u64>,
    batches: &[Vec<Vec<u64>>],
    batch_fps: &[Multiset],
    tracer: Option<&Tracer>,
    opts: &Options,
    out: &mut Outcome,
) -> Pass {
    // The previous pass's service is gone; do not count its freed memory.
    host::release_free_memory();
    let limit = 1.0 + bench_config().epsilon;
    let query_eps = svc_query_epsilon();
    let mut pass = Pass::default();
    let mut rng = SplitMix(opts.seed ^ 0xA5A5_5A5A_C3C3_3C3C);
    let mut fingerprint = Multiset::default();
    for (epoch, batch) in batches.iter().enumerate() {
        svc.ingest_per_rank(batch.clone());
        fingerprint = fingerprint.union(batch_fps[epoch]);
        host::reset_peak_rss();
        let t0 = tracer.map(Tracer::now);
        let cpu0 = host::process_cpu_seconds();
        let start = Instant::now();
        let sealed = catch_unwind(AssertUnwindSafe(|| svc.seal_epoch().clone()));
        let wall = start.elapsed().as_secs_f64();
        let cpu = host::process_cpu_seconds() - cpu0;
        let peak_mb = host::peak_rss_mb();
        if let (Some(tr), Some(t0)) = (tracer, t0) {
            tr.record("service.seal_epoch", None, Some(epoch), t0, tr.now());
        }
        let Ok(report) = sealed else {
            out.record_check("seal_epoch", Err("seal_epoch panicked".to_string()));
            return pass;
        };
        let keyspace = svc.keyspace();
        let mut check = if opts.corrupt_output {
            let mut damaged = keyspace.to_vec();
            if let Some(local) = damaged.iter_mut().max_by_key(|l| l.len()) {
                local.pop();
            }
            check_sorted_permutation(&fingerprint, &damaged)
        } else {
            check_sorted_permutation(&fingerprint, keyspace)
        };
        if check.is_ok() && report.load_balance.imbalance > limit {
            check =
                Err(format!("load imbalance {:.4} exceeds 1+eps", report.load_balance.imbalance));
        }
        out.record_check("seal_epoch", check);
        let identity = (Multiset::of(keyspace), report.metrics.deterministic_signature());
        let keyspace_mb = report.total_keys as f64 * 8.0 / 1e6;
        let seal_unattributed = wall - svc.machine().metrics().total_wall_seconds();
        let query_unattributed =
            query_round(&mut svc, spec, &mut rng, query_eps, tracer, epoch, opts, out, &mut pass);
        pass.seals.push(Seal {
            epoch,
            wall,
            cpu,
            peak_mb,
            report,
            keyspace_mb,
            unattributed: seal_unattributed + query_unattributed,
            identity,
        });
    }
    pass
}

/// The query oracle's `ε` (the service default: the sort's `ε`).
fn svc_query_epsilon() -> f64 {
    ServiceConfig::new(bench_config()).expect("the default config is valid").query_epsilon
}

/// One client issues `query_rounds` rounds of percentile, rank and range
/// queries against the sealed keyspace, each call waiting for the last.
/// Every answer is checked against the exact rank (outside the timer):
/// Theorem 3.4.1 allows `εN/p` for a rank or a percentile and twice that
/// for a range (the difference of two ranks).  Returns the query time no
/// phase's wall time covers.
#[allow(clippy::too_many_arguments)]
fn query_round(
    svc: &mut SortService<u64>,
    spec: &ServiceSpec,
    rng: &mut SplitMix,
    eps: f64,
    tracer: Option<&Tracer>,
    epoch: usize,
    opts: &Options,
    out: &mut Outcome,
    pass: &mut Pass,
) -> f64 {
    let ks = svc.keyspace();
    let (Some(&lo), Some(&hi)) = (ks.iter().flatten().next(), ks.iter().rev().flatten().next())
    else {
        return 0.0;
    };
    let n = svc.total_keys() as f64;
    let allowance = eps * n / spec.ranks as f64;
    let wall_before = svc.machine().metrics().total_wall_seconds();
    let t0 = tracer.map(Tracer::now);
    let mut busy = 0.0;
    let answer = |out: &mut Outcome, what: &str, error: f64, allowed: f64, pass: &mut Pass| {
        let error = if opts.corrupt_output { error + 3.0 * allowed } else { error };
        pass.max_error_ratio = pass.max_error_ratio.max(error / allowed);
        out.record_check(
            what,
            if error <= allowed {
                Ok(())
            } else {
                Err(format!("error {error:.1} exceeds the allowance {allowed:.1}"))
            },
        );
    };
    for _ in 0..spec.query_rounds {
        let q = rng.unit();
        let start = Instant::now();
        let key = svc.percentile(q);
        let us = start.elapsed().as_secs_f64() * 1e6;
        pass.percentile_us.push(us);
        busy += us;
        let error = (exact_rank_le(svc.keyspace(), key) as f64 - q * n).abs();
        answer(out, "percentile", error, allowance, pass);

        let key = rng.between(lo, hi);
        let start = Instant::now();
        let estimate = svc.rank(key);
        let us = start.elapsed().as_secs_f64() * 1e6;
        pass.rank_us.push(us);
        busy += us;
        let error = (estimate - exact_rank_le(svc.keyspace(), key) as f64).abs();
        answer(out, "rank", error, allowance, pass);

        let (a, b) = (rng.between(lo, hi), rng.between(lo, hi));
        let (a, b) = (a.min(b), a.max(b));
        let start = Instant::now();
        let estimate = svc.range_count(a, b);
        let us = start.elapsed().as_secs_f64() * 1e6;
        pass.range_us.push(us);
        busy += us;
        let exact = exact_rank_le(svc.keyspace(), b) - exact_rank_le(svc.keyspace(), a);
        answer(out, "range_count", (estimate - exact as f64).abs(), 2.0 * allowance, pass);
    }
    if let (Some(tr), Some(t0)) = (tracer, t0) {
        tr.record("service.queries", None, Some(epoch), t0, tr.now());
    }
    let phase_wall = svc.machine().metrics().total_wall_seconds() - wall_before;
    busy / 1e6 - phase_wall
}
