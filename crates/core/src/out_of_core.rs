//! The distributed out-of-core path: HSS where any rank whose working set
//! exceeds the [`ExtSortPolicy`] cap falls back to `hss-extsort`.
//!
//! Two places can blow the cap, and both spill:
//!
//! 1. **Local sort** — a rank's input partition is streamed through run
//!    formation instead of being sorted in place.
//! 2. **Exchange merge** — a rank whose *received* runs exceed the cap
//!    spills them to disk runs and k-way merges under bounded windows
//!    (`ExternalSorter::merge_spilled`), via the flat exchange's
//!    caller-supplied merger hook
//!    ([`hss_partition::exchange_and_merge_flat_with`]).
//!
//! Either way the output is **bitwise identical** to the in-memory sorter:
//! run formation sorts with the same `LocalSortAlgo`, and every merge —
//! the disk loser tree and the in-memory two-way merge cascade — breaks
//! ties by the lower run index.
//!
//! # Materialized vs. pipelined
//!
//! The default **materialized** arm finishes the external local sort before
//! the exchange begins: runs are merged into a sorted scratch file
//! (`sort_to_file` — the merged array exceeds the cap by definition, so it
//! cannot honestly live in memory) and read back in cap-bounded windows for
//! splitter determination and bucketizing.  Per spilled rank of `N` bytes
//! that is `3N` written + `3N` read across local sort, read-back, and the
//! exchange-side spill merge.
//!
//! With [`ExtSortPolicy::pipelined`] the tier goes **single-pass**:
//! splitters are determined *straight from the run files* (windowed
//! rank/selection probes — see [`hss_extsort::RunSetReader`]), and the
//! draining k-way merge then streams bucket-by-bucket into staged
//! asynchronous exchange sends ([`Machine::exchange_stage`]), each bucket
//! dispatched as soon as its splitter interval seals (grouped up to
//! `min_stage_fraction` of the data per stage).  The merged array is never
//! materialized — neither in memory nor on disk — so the same spilled rank
//! moves only `2N` written + `2N` read, and under
//! [`SyncModel::Overlapped`] the drain's disk backlog and the NIC stages
//! interleave on the simulated clock.
//!
//! # Cost accounting
//!
//! External phases charge the same compute `Work` as their in-memory
//! counterparts *plus* a merge term for the extra run-merge the external
//! sort performs, *plus* [`Work::disk_bytes`] for the measured scratch
//! traffic.  The machine routes disk work through its per-rank disk
//! backlog clock: under `SyncModel::Bsp` the phase serializes compute +
//! disk; under `SyncModel::Overlapped` the disk reservation stays
//! outstanding and is only waited for at the next [`Machine::wait_for_disk`]
//! barrier — mirroring how the real overlapped tier hides I/O behind
//! compute.

use std::sync::Mutex;

use hss_extsort::{
    ExtSortReport, ExternalSorter, MergeCursor, PlainRecord, RunSetReader, SpilledRuns,
};
use hss_keygen::{rank_rng, Keyed};
use hss_lsort::{LocalSortAlgo, RadixSortable};
use hss_partition::{
    drain_source_below, drain_source_rest, exchange_and_merge_flat_with, kway_merge_slices,
    local_ranks, local_ranks_work, sampling, splitter_position, ExchangeMode, LoadBalance,
};
use hss_sim::{ExchangePlan, ExchangeStage, Machine, Phase, SyncModel, Work};

use crate::approx_histogram::ApproxHistogrammer;
use crate::config::{ExtSortPolicy, HssConfig};
use crate::multi_round::{determine_splitters, determine_splitters_from, SplitterData};
use crate::report::SortReport;
use crate::sorter::{HssSorter, SortOutcome};

/// The base compute charge for sorting `n` records with `algo` (shared by
/// the in-memory path, run formation, and the external sort's charge).
fn base_sort_work<T: RadixSortable>(algo: LocalSortAlgo, n: usize) -> Work {
    match algo {
        LocalSortAlgo::Comparison => Work::sort(n),
        LocalSortAlgo::Radix => Work::radix_sort(n, T::RADIX_BYTES),
    }
}

/// The compute charge for externally sorting `n` records: the in-memory
/// algorithm's charge (run formation runs the same sort over the same
/// elements, just chunk by chunk) plus the k-way run merge(s) the external
/// sort performs on top.
fn ext_local_sort_work<T: RadixSortable>(
    algo: LocalSortAlgo,
    n: usize,
    rep: &ExtSortReport,
) -> Work {
    base_sort_work::<T>(algo, n)
        .and(Work::merge(
            n.saturating_mul(rep.merge_passes as usize),
            rep.runs_formed.max(1) as usize,
        ))
        .and(Work::disk_bytes(rep.disk_bytes(), rep.disk_transfers()))
}

// ---------------------------------------------------------------------------
// Pipelined path: rank stores, splitter probing, drain sources
// ---------------------------------------------------------------------------

/// A spilled rank between run formation and the drain: its runs on disk
/// plus a windowed reader for splitter probes, with the probe traffic
/// accumulated so it can be folded into the final [`ExtSortReport`].
struct SpilledStore<T: PlainRecord + Ord + Keyed> {
    runs: SpilledRuns<T>,
    reader: RunSetReader<T>,
    probe_bytes: u64,
    probe_transfers: u64,
    probe_io_wait: f64,
}

/// Per-rank state after the pipelined local-sort phase: sorted in memory
/// (under-cap) or formed into sorted runs on disk (over-cap).
enum RankStore<T: PlainRecord + Ord + Keyed> {
    Mem(Vec<T>),
    Spilled(Box<SpilledStore<T>>),
}

impl<T: PlainRecord + Ord + Keyed> RankStore<T> {
    fn len(&self) -> u64 {
        match self {
            RankStore::Mem(v) => v.len() as u64,
            RankStore::Spilled(s) => s.runs.total(),
        }
    }
}

/// The out-of-core [`SplitterData`]: a mix of in-memory ranks and spilled
/// run files.  In-memory ranks sample and histogram exactly like
/// `MemData`; spilled ranks answer the same queries through windowed
/// run-file probes, consuming the *identical* RNG stream (Bernoulli
/// positions depend only on the interval's index range and probability) so
/// the chosen splitters — and therefore the output — do not depend on
/// which ranks spilled.
struct MixedData<'a, T: PlainRecord + Ord + Keyed> {
    stores: &'a mut [RankStore<T>],
}

impl<T> SplitterData<T::K> for MixedData<'_, T>
where
    T: PlainRecord + Ord + Keyed,
    T::K: RadixSortable,
{
    fn total_keys(&self) -> u64 {
        self.stores.iter().map(|s| s.len()).sum()
    }

    fn sampling_phase(
        &mut self,
        machine: &mut Machine,
        key_intervals: &[(T::K, T::K)],
        probability: f64,
        seed: u64,
    ) -> Vec<Vec<T::K>> {
        machine.map_phase_mut(Phase::Sampling, self.stores, |rank, store| match store {
            RankStore::Mem(local) => {
                let mut rng = rank_rng(seed, rank);
                let sample = sampling::bernoulli_sample_in_intervals(
                    local,
                    key_intervals,
                    probability,
                    &mut rng,
                );
                let work = sampling::interval_bounds_work(local.len(), key_intervals.len())
                    .and(Work::scan(sample.len()));
                (sample, work)
            }
            RankStore::Spilled(store) => {
                let mut rng = rank_rng(seed, rank);
                let n = store.runs.total() as usize;
                let mut sample = Vec::new();
                for &(lo, hi) in key_intervals {
                    // Same absolute index range as `interval_bounds` on the
                    // merged array, so the geometric-skip draws line up
                    // with the in-memory path position for position.
                    let (start, end) = store
                        .reader
                        .interval_bounds(lo, hi)
                        .expect("pipelined sampling: run-file probe read failed");
                    let positions =
                        sampling::bernoulli_sample_positions(start..end, probability, &mut rng);
                    // Fence-bracket selection answers each sampled position
                    // from a few in-memory fence searches plus one short
                    // span read per run — not a scan of the interval.
                    sample.extend(
                        store
                            .reader
                            .keys_at_ranks(&positions)
                            .expect("pipelined sampling: run-file span read failed"),
                    );
                }
                let mut work = sampling::interval_bounds_work(n, key_intervals.len())
                    .and(Work::scan(sample.len()));
                let (bytes, transfers, io_wait) = store.reader.take_io();
                store.probe_bytes += bytes;
                store.probe_transfers += transfers;
                store.probe_io_wait += io_wait;
                if bytes > 0 {
                    work = work.and(Work::disk_bytes(bytes, transfers));
                }
                (sample, work)
            }
        })
    }

    fn histogram_ranks(&mut self, machine: &mut Machine, probes: &[T::K]) -> Vec<u64> {
        let locals =
            machine.map_phase_mut(Phase::Histogramming, self.stores, |_rank, store| match store {
                RankStore::Mem(local) => {
                    (local_ranks(local, probes), local_ranks_work(local.len(), probes.len()))
                }
                RankStore::Spilled(store) => {
                    let ranks = store
                        .reader
                        .local_ranks(probes)
                        .expect("pipelined histogramming: run-file probe read failed");
                    let mut work = local_ranks_work(store.runs.total() as usize, probes.len());
                    let (bytes, transfers, io_wait) = store.reader.take_io();
                    store.probe_bytes += bytes;
                    store.probe_transfers += transfers;
                    store.probe_io_wait += io_wait;
                    if bytes > 0 {
                        work = work.and(Work::disk_bytes(bytes, transfers));
                    }
                    (ranks, work)
                }
            });
        machine.reduce_sum(Phase::Histogramming, &locals)
    }

    fn approx_oracle(
        &self,
        _machine: &mut Machine,
        _config: &HssConfig,
    ) -> ApproxHistogrammer<T::K> {
        unreachable!("approximate_histograms is rejected before the pipelined path dispatches")
    }
}

/// A rank's data between splitter determination and the staged drain:
/// either the in-memory sorted vector with a cut position, or the draining
/// merge cursor over its run files.
enum DrainSource<T: PlainRecord + Ord + Keyed> {
    Mem { data: Vec<T>, pos: usize },
    Disk { cursor: MergeCursor<T>, pieces: usize, block_elems: usize },
}

impl HssSorter {
    /// Sort with the out-of-core fallback armed: behaves exactly like
    /// [`HssSorter::sort`] on the flat rank-level path, except that any
    /// rank whose local partition or received runs exceed
    /// `config.ext_sort.memory_cap_bytes` spills through the external
    /// sorter.  Returns the outcome plus the aggregated
    /// [`ExtSortReport`] over every spill that happened (all-zero if no
    /// rank exceeded the cap).
    ///
    /// With [`ExtSortPolicy::pipelined`] the spilled ranks take the
    /// single-pass route (splitters from run files, merge drained straight
    /// into staged exchange sends); see the module docs.  Output is
    /// bitwise identical to [`HssSorter::sort`] either way.  Requires
    /// `T: PlainRecord` (raw-byte run files), which is why this is a
    /// separate entry point rather than a silent fallback inside `sort`.
    ///
    /// # Panics
    ///
    /// Panics if `config.ext_sort` is `None`, if `node_level` or
    /// `tag_duplicates` is set (the tier is rank-level and tag wrappers
    /// are not `PlainRecord`), if `pipelined` is combined with
    /// `approximate_histograms` (splitters come from run files, not the
    /// §3.4 oracle), on rank-count mismatch, or on scratch-file I/O
    /// errors.
    pub fn sort_out_of_core<T>(
        &self,
        machine: &mut Machine,
        input: Vec<Vec<T>>,
    ) -> (SortOutcome<T>, ExtSortReport)
    where
        T: Keyed + Ord + RadixSortable + PlainRecord,
        T::K: RadixSortable,
    {
        let config = self.config();
        config.validate().expect("invalid HSS configuration");
        let policy = config
            .ext_sort
            .clone()
            .expect("sort_out_of_core requires HssConfig::ext_sort to be set");
        assert_eq!(input.len(), machine.ranks(), "one input vector per rank");
        assert!(!config.node_level, "the out-of-core tier is rank-level: disable node_level");
        assert!(
            !config.tag_duplicates,
            "duplicate tagging wraps items in non-PlainRecord tags; \
             disable tag_duplicates for the out-of-core tier"
        );
        if policy.pipelined {
            assert!(
                !config.approximate_histograms,
                "the pipelined out-of-core path determines splitters from run files; \
                 approximate_histograms is unsupported — disable one of the two"
            );
            return self.sort_out_of_core_pipelined(machine, input, &policy);
        }
        let total_keys: u64 = input.iter().map(|v| v.len() as u64).sum();

        let ext = ExternalSorter::new(policy.to_ext_config(config.local_sort));
        let spills = Mutex::new(ExtSortReport::default());
        let algo = config.local_sort;

        // Local sort: external when the rank's partition exceeds the cap.
        // The merged result exceeds the cap by definition, so the honest
        // materialized arm keeps it on disk (`sort_to_file`) and reads it
        // back in cap-bounded windows — the full extra round-trip the
        // pipelined arm exists to avoid.
        let readback_elems = (policy.memory_cap_bytes / std::mem::size_of::<T>()).max(1);
        let data = machine.transform_phase(Phase::LocalSort, input, |_rank, mut local| {
            if std::mem::size_of_val(local.as_slice()) > policy.memory_cap_bytes {
                let n = local.len();
                let (file, mut rep) =
                    ext.sort_to_file(local).expect("external local sort: scratch I/O failed");
                let mut sorted: Vec<T> = Vec::with_capacity(n);
                let mut readback_transfers = 0u64;
                while sorted.len() < n {
                    let got = file
                        .read_range(sorted.len() as u64, readback_elems)
                        .expect("materialized read-back: scratch I/O failed");
                    assert!(!got.is_empty(), "sorted-file read-back made no progress");
                    readback_transfers += 1;
                    sorted.extend(got);
                }
                rep.bytes_read += (n * std::mem::size_of::<T>()) as u64;
                rep.read_transfers += readback_transfers;
                spills.lock().unwrap().absorb(&rep);
                (sorted, ext_local_sort_work::<T>(algo, n, &rep))
            } else {
                let work = crate::local_sort::charged_local_sort(algo, &mut local);
                (local, work)
            }
        });
        // The exchange sends this data: its runs must be on "disk-stable"
        // ground first.  Under Bsp this is a no-op; under Overlapped it
        // waits out any outstanding disk backlog.
        machine.wait_for_disk();

        let p = machine.ranks();
        let (splitters, splitter_report) = determine_splitters(machine, &data, p, config);

        // Flat exchange with a spilling merger: a destination whose
        // received runs exceed the cap merges them through disk.
        let mode = if machine.topology().cores_per_node() > 1 {
            ExchangeMode::NodeCombined
        } else {
            ExchangeMode::RankLevel
        };
        let out = exchange_and_merge_flat_with(machine, &data, &splitters, mode, |_dst, runs| {
            let total: usize = runs.iter().map(|r| r.len()).sum();
            let pieces = runs.iter().filter(|r| !r.is_empty()).count();
            let merge_work = Work::merge(total, pieces.max(1));
            if total * std::mem::size_of::<T>() > policy.memory_cap_bytes {
                let (merged, rep) =
                    ext.merge_spilled(runs).expect("external exchange merge: scratch I/O failed");
                spills.lock().unwrap().absorb(&rep);
                (merged, merge_work.and(Work::disk_bytes(rep.disk_bytes(), rep.disk_transfers())))
            } else {
                (kway_merge_slices(runs), merge_work)
            }
        });
        machine.wait_for_disk();

        let load_balance = LoadBalance::from_rank_data(&out);
        let report = SortReport {
            algorithm: "hss-extsort".to_string(),
            ranks: machine.ranks(),
            total_keys,
            splitters: Some(splitter_report),
            load_balance,
            metrics: machine.metrics().clone(),
            sync_model: machine.sync_model().name().to_string(),
            local_sort: config.local_sort.name().to_string(),
            makespan_seconds: machine.simulated_time(),
        };
        let ext_report = spills.into_inner().unwrap();
        (SortOutcome { data: out, report }, ext_report)
    }

    /// The single-pass pipelined arm of [`HssSorter::sort_out_of_core`]:
    /// over-cap ranks only *form* runs, splitters are determined from the
    /// run files, and the draining k-way merge streams each splitter
    /// bucket into a staged asynchronous exchange send the moment the
    /// interval seals.  The merged local array never exists — one fewer
    /// full disk round-trip per spilled rank.
    fn sort_out_of_core_pipelined<T>(
        &self,
        machine: &mut Machine,
        input: Vec<Vec<T>>,
        policy: &ExtSortPolicy,
    ) -> (SortOutcome<T>, ExtSortReport)
    where
        T: Keyed + Ord + RadixSortable + PlainRecord,
        T::K: RadixSortable,
    {
        let config = self.config();
        let total_keys: u64 = input.iter().map(|v| v.len() as u64).sum();
        let p = machine.ranks();
        let ext = ExternalSorter::new(policy.to_ext_config(config.local_sort));
        let spills = Mutex::new(ExtSortReport::default());
        let algo = config.local_sort;
        let auto_tune = policy.prefetch_depth.is_none();
        let cost = machine.cost_model();

        // Phase 1 — local sort.  Over-cap ranks form sorted runs and STOP:
        // no merge-back, no materialized file.  With no pinned
        // `prefetch_depth` the overlapped merge-to-come is auto-tuned per
        // rank from the disk cost model and the measured run-formation
        // io-wait fraction.
        let mut input = input;
        let mut stores: Vec<RankStore<T>> =
            machine.map_phase_mut(Phase::LocalSort, &mut input, |_rank, local| {
                let local = std::mem::take(local);
                let n = local.len();
                if std::mem::size_of_val(local.as_slice()) > policy.memory_cap_bytes {
                    let mut runs = ext
                        .form_runs_only(local)
                        .expect("pipelined run formation: scratch I/O failed");
                    if auto_tune {
                        runs.tune(cost.unit_disk, cost.disk_latency);
                    }
                    let rep = *runs.report();
                    let reader =
                        runs.reader().expect("pipelined splitter probes: opening run files failed");
                    let work = base_sort_work::<T>(algo, n)
                        .and(Work::disk_bytes(rep.disk_bytes(), rep.disk_transfers()));
                    let store = SpilledStore {
                        runs,
                        reader,
                        probe_bytes: 0,
                        probe_transfers: 0,
                        probe_io_wait: 0.0,
                    };
                    (RankStore::Spilled(Box::new(store)), work)
                } else {
                    let mut local = local;
                    let work = crate::local_sort::charged_local_sort(algo, &mut local);
                    (RankStore::Mem(local), work)
                }
            });
        machine.wait_for_disk();

        // Phase 2 — splitter determination straight from the stores: the
        // same rounds and supersteps as the in-memory path, with spilled
        // ranks answering via windowed run-file probes.
        let (splitters, splitter_report) = {
            let mut mixed = MixedData { stores: &mut stores };
            determine_splitters_from(machine, &mut mixed, p, config, None, |_, _| {})
        };

        // Phase 3 — open the drain.  Spilled ranks reduce their run count
        // to the merge fan-in (charged from the cursor's measured report
        // delta) and hand back a pull cursor; in-memory ranks just carry a
        // cut position.  Probe traffic from phase 2 joins the report here.
        let mut slots: Vec<Option<RankStore<T>>> = stores.into_iter().map(Some).collect();
        let mut sources: Vec<Option<DrainSource<T>>> =
            machine.map_phase_mut(Phase::Merge, &mut slots, |_rank, slot| {
                match slot.take().expect("each rank store is converted exactly once") {
                    RankStore::Mem(data) => (Some(DrainSource::Mem { data, pos: 0 }), Work::none()),
                    RankStore::Spilled(boxed) => {
                        let SpilledStore {
                            runs,
                            reader,
                            probe_bytes,
                            probe_transfers,
                            probe_io_wait,
                        } = *boxed;
                        drop(reader);
                        {
                            let mut sp = spills.lock().unwrap();
                            sp.bytes_read += probe_bytes;
                            sp.read_transfers += probe_transfers;
                            sp.io_wait_seconds += probe_io_wait;
                        }
                        let formed = *runs.report();
                        let fan_in = runs.config().fan_in;
                        let block_elems = runs.config().block_elems::<T>();
                        let cursor =
                            runs.into_cursor().expect("pipelined merge: opening run cursor failed");
                        let pieces = cursor.source_count().max(1);
                        // `into_cursor` may have run reduction passes to get
                        // under the fan-in; charge their measured traffic.
                        let repassed_bytes = cursor.report().bytes_read - formed.bytes_read;
                        let delta_bytes = cursor.report().disk_bytes() - formed.disk_bytes();
                        let delta_transfers =
                            cursor.report().disk_transfers() - formed.disk_transfers();
                        let repassed = repassed_bytes as usize / std::mem::size_of::<T>();
                        let work = if repassed > 0 {
                            Work::merge(repassed, fan_in)
                                .and(Work::disk_bytes(delta_bytes, delta_transfers))
                        } else {
                            Work::none()
                        };
                        (Some(DrainSource::Disk { cursor, pieces, block_elems }), work)
                    }
                }
            });
        machine.wait_for_disk();

        // Phase 4 — staged drain.  One superstep per destination bucket:
        // every rank drains its stream up to the bucket's upper splitter
        // (cursor pull for spilled ranks, `partition_point` cut for
        // in-memory ranks — identical boundaries by construction).  Sealed
        // buckets accumulate until they cover `min_stage_fraction` of the
        // data, then fly as one asynchronous exchange stage; under
        // `SyncModel::Overlapped` the next bucket's drain (and its disk
        // backlog) proceeds while the NIC reservation is still in flight.
        let splitter_keys = splitters.keys();
        let min_stage_elems =
            ((config.min_stage_fraction * total_keys as f64).ceil() as usize).max(1);
        let mut recv: Vec<Vec<Vec<T>>> = (0..p).map(|_| Vec::new()).collect();
        let mut arrival = vec![0.0f64; p];
        let mut pending: Vec<usize> = Vec::new();
        let mut pending_elems = 0usize;
        let mut stage_round = 0usize;
        for d in 0..p {
            let bound = if d + 1 < p { Some(splitter_keys[d]) } else { None };
            let bufs: Vec<Vec<T>> =
                machine.map_phase_mut(Phase::DataExchange, &mut sources, |_rank, slot| {
                    let src = slot.as_mut().expect("drain sources live until the last bucket");
                    match src {
                        DrainSource::Mem { data, pos } => {
                            let end = match bound {
                                Some(b) => *pos + splitter_position(&data[*pos..], b),
                                None => data.len(),
                            };
                            let buf = data[*pos..end].to_vec();
                            let k = end - *pos;
                            *pos = end;
                            let work = Work::binary_search(1, data.len().max(1)).and(Work::scan(k));
                            (buf, work)
                        }
                        DrainSource::Disk { cursor, pieces, block_elems } => {
                            let mut buf = Vec::new();
                            let k = match bound {
                                Some(b) => drain_source_below(cursor, b, &mut buf),
                                None => drain_source_rest(cursor, &mut buf),
                            };
                            let mut work = Work::merge(k, *pieces).and(Work::scan(k));
                            if k > 0 {
                                let bytes = (k * std::mem::size_of::<T>()) as u64;
                                let transfers = (k as u64).div_ceil(*block_elems as u64).max(1);
                                work = work.and(Work::disk_bytes(bytes, transfers));
                            }
                            (buf, work)
                        }
                    }
                });
            pending_elems += bufs.iter().map(|b| b.len()).sum::<usize>();
            recv[d] = bufs;
            pending.push(d);
            if d + 1 == p || pending_elems >= min_stage_elems {
                if pending_elems > 0 {
                    let plans: Vec<ExchangePlan> = (0..p)
                        .map(|src| {
                            ExchangePlan::from_counts(
                                (0..p)
                                    .map(|dst| {
                                        if pending.contains(&dst) {
                                            recv[dst][src].len()
                                        } else {
                                            0
                                        }
                                    })
                                    .collect(),
                            )
                        })
                        .collect();
                    let stage =
                        ExchangeStage { round: stage_round, destinations: pending.clone(), plans };
                    let done = machine.exchange_stage::<T>(Phase::DataExchange, &stage);
                    for &b in &pending {
                        arrival[b] = done;
                    }
                    stage_round += 1;
                }
                // Zero-volume groups never fly: their arrival stays 0.0.
                pending.clear();
                pending_elems = 0;
            }
        }
        machine.wait_until(&arrival);

        // Harvest the drained cursors: their reports carry formation,
        // reduction, and every block the drain pulled (plus prefetch
        // io-wait under the overlapped mode).
        for slot in &mut sources {
            if let Some(DrainSource::Disk { cursor, .. }) = slot.take() {
                let rep = cursor.finish().expect("pipelined merge: cursor shutdown failed");
                spills.lock().unwrap().absorb(&rep);
            }
        }

        // Phase 5 — merge received buckets, spilling through disk when a
        // destination's total exceeds the cap (same merger as the
        // materialized arm, so outputs match bitwise).
        let out = machine.transform_phase(Phase::Merge, recv, |_dst, runs_vec| {
            let slices: Vec<&[T]> = runs_vec.iter().map(|r| r.as_slice()).collect();
            let total: usize = slices.iter().map(|r| r.len()).sum();
            let pieces = slices.iter().filter(|r| !r.is_empty()).count();
            let merge_work = Work::merge(total, pieces.max(1));
            if total * std::mem::size_of::<T>() > policy.memory_cap_bytes {
                let (merged, rep) = ext
                    .merge_spilled(&slices)
                    .expect("external exchange merge: scratch I/O failed");
                spills.lock().unwrap().absorb(&rep);
                (merged, merge_work.and(Work::disk_bytes(rep.disk_bytes(), rep.disk_transfers())))
            } else {
                (kway_merge_slices(&slices), merge_work)
            }
        });
        machine.wait_for_disk();

        let load_balance = LoadBalance::from_rank_data(&out);
        let report = SortReport {
            algorithm: "hss-extsort-pipelined".to_string(),
            ranks: p,
            total_keys,
            splitters: Some(splitter_report),
            load_balance,
            metrics: machine.metrics().clone(),
            sync_model: machine.sync_model().name().to_string(),
            local_sort: config.local_sort.name().to_string(),
            makespan_seconds: machine.simulated_time(),
        };
        let ext_report = spills.into_inner().unwrap();
        (SortOutcome { data: out, report }, ext_report)
    }
}

/// True when the machine's sync model lets charged disk work overlap the
/// following compute (documentation helper for benches/demo output).
pub fn disk_overlaps(machine: &Machine) -> bool {
    machine.sync_model() == SyncModel::Overlapped
}

/// The [`ExtSortPolicy`] that forces *every* rank of an `n`-per-rank
/// workload through the external path: cap at `1/ratio` of the per-rank
/// byte volume (at least one record's worth so chunking can progress).
pub fn forcing_policy<T>(per_rank_elems: usize, ratio: usize, run_dir: &str) -> ExtSortPolicy {
    let bytes = per_rank_elems * std::mem::size_of::<T>();
    ExtSortPolicy::new((bytes / ratio.max(1)).max(std::mem::size_of::<T>()), run_dir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HssConfig;
    use hss_extsort::IoMode;
    use hss_keygen::KeyDistribution;

    fn run_dir() -> String {
        std::env::temp_dir().join("hss-ooc-test").to_string_lossy().into_owned()
    }

    #[test]
    fn out_of_core_output_is_bitwise_identical_to_in_memory() {
        let p = 8;
        let n = 800;
        let input = KeyDistribution::Uniform.generate_per_rank(p, n, 11);

        let mut m_ref = Machine::flat(p);
        let reference = HssSorter::default().sort(&mut m_ref, input.clone());

        for io_mode in [IoMode::Synchronous, IoMode::Overlapped] {
            // Cap = 1/4 of a rank's bytes -> every rank spills in both the
            // local sort and (typically) the exchange merge.
            let policy =
                forcing_policy::<u64>(n, 4, &run_dir()).with_fan_in(2).with_io_mode(io_mode);
            let cfg = HssConfig::default().with_ext_sort(policy);
            let mut m = Machine::flat(p);
            let (outcome, ext) = HssSorter::new(cfg).sort_out_of_core(&mut m, input.clone());
            assert_eq!(outcome.data, reference.data, "{}", io_mode.name());
            assert!(ext.runs_formed > 0, "cap must force spills");
            assert!(ext.bytes_written > 0 && ext.bytes_read > 0);
            assert_eq!(outcome.report.algorithm, "hss-extsort");
            // Disk traffic must show up in the modelled phase metrics.
            assert!(m.metrics().total_disk_words() > 0);
            assert!(outcome.report.makespan_seconds > reference.report.makespan_seconds);
        }
    }

    #[test]
    fn pipelined_output_is_bitwise_identical_to_both_arms() {
        let p = 8;
        let n = 800;
        let input = KeyDistribution::Uniform.generate_per_rank(p, n, 11);

        let mut m_ref = Machine::flat(p);
        let reference = HssSorter::default().sort(&mut m_ref, input.clone());

        for io_mode in [IoMode::Synchronous, IoMode::Overlapped] {
            let base = forcing_policy::<u64>(n, 4, &run_dir()).with_fan_in(2).with_io_mode(io_mode);
            let mut m_mat = Machine::flat(p);
            let (out_mat, ext_mat) =
                HssSorter::new(HssConfig::default().with_ext_sort(base.clone()))
                    .sort_out_of_core(&mut m_mat, input.clone());

            let mut m_pipe = Machine::flat(p);
            let (out_pipe, ext_pipe) =
                HssSorter::new(HssConfig::default().with_ext_sort(base.clone().with_pipelined()))
                    .sort_out_of_core(&mut m_pipe, input.clone());

            assert_eq!(out_pipe.data, reference.data, "{}", io_mode.name());
            assert_eq!(out_pipe.data, out_mat.data, "{}", io_mode.name());
            assert_eq!(out_pipe.report.algorithm, "hss-extsort-pipelined");
            assert!(ext_pipe.runs_formed > 0, "cap must force spills");
            let _ = (ext_mat, m_mat, m_pipe);
            // Traffic inequalities (strictly fewer scratch bytes and
            // modelled disk words) are asserted at realistic sizes in
            // `tests/pipeline_differential.rs::pipelined_beats_materialized_on_scratch_traffic`;
            // at the few hundred keys this test uses, runs are smaller
            // than one fence stride and probe I/O rivals the data itself.
        }
    }

    #[test]
    fn pipelined_handles_mixed_spilled_and_in_memory_ranks() {
        // Ranks of very different sizes under one cap: large ranks spill,
        // small ranks stay in memory, and the splitters (sampled partly
        // from run files, partly from memory) still reproduce the
        // in-memory output bitwise.
        let p = 4;
        let sizes = [1200usize, 60, 900, 10];
        let mut input: Vec<Vec<u64>> = Vec::new();
        let mut state = 0x9E3779B97F4A7C15u64;
        for (r, &n) in sizes.iter().enumerate() {
            let mut v = Vec::with_capacity(n);
            for i in 0..n {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(r as u64 + i as u64);
                v.push(state >> 11);
            }
            input.push(v);
        }

        let mut m_ref = Machine::flat(p);
        let reference = HssSorter::default().sort(&mut m_ref, input.clone());

        let cap = 400 * std::mem::size_of::<u64>(); // only the two big ranks spill
        let policy = ExtSortPolicy::new(cap, run_dir())
            .with_fan_in(2)
            .with_io_mode(IoMode::Overlapped)
            .with_pipelined();
        let cfg = HssConfig::default().with_ext_sort(policy);
        let mut m = Machine::flat(p);
        let (outcome, ext) = HssSorter::new(cfg).sort_out_of_core(&mut m, input);
        assert_eq!(outcome.data, reference.data);
        assert!(ext.runs_formed > 0, "the big ranks must spill");
    }

    #[test]
    fn pipelined_respects_pinned_prefetch_depth() {
        let p = 4;
        let n = 600;
        let input = KeyDistribution::Uniform.generate_per_rank(p, n, 7);
        let mut m_ref = Machine::flat(p);
        let reference = HssSorter::default().sort(&mut m_ref, input.clone());
        for depth in [2usize, 8] {
            let policy = forcing_policy::<u64>(n, 4, &run_dir())
                .with_io_mode(IoMode::Overlapped)
                .with_pipelined()
                .with_prefetch_depth(depth);
            let cfg = HssConfig::default().with_ext_sort(policy);
            let mut m = Machine::flat(p);
            let (outcome, _) = HssSorter::new(cfg).sort_out_of_core(&mut m, input.clone());
            assert_eq!(outcome.data, reference.data, "depth {depth}");
        }
    }

    #[test]
    fn pipelined_io_wait_fits_inside_the_reported_wall() {
        // The pipelined report adds splitter-probe and drain io-wait on
        // top of run formation's, so its wall time must span all of them.
        let p = 4;
        let n = 800;
        let input = KeyDistribution::Uniform.generate_per_rank(p, n, 5);
        for io_mode in [IoMode::Synchronous, IoMode::Overlapped] {
            let policy = forcing_policy::<u64>(n, 4, &run_dir())
                .with_fan_in(2)
                .with_io_mode(io_mode)
                .with_pipelined();
            let cfg = HssConfig::default().with_ext_sort(policy);
            let (_, ext) =
                HssSorter::new(cfg).sort_out_of_core(&mut Machine::flat(p), input.clone());
            assert!(
                ext.io_wait_seconds > 0.0,
                "{}: spilled ranks must wait on disk",
                io_mode.name()
            );
            assert!(ext.io_wait_seconds <= ext.wall_seconds, "{}: {ext:?}", io_mode.name());
            assert!((0.0..=1.0).contains(&ext.io_wait_fraction()), "{}", io_mode.name());
        }
    }

    #[test]
    #[should_panic(expected = "approximate_histograms is unsupported")]
    fn pipelined_rejects_approximate_histograms() {
        let input = KeyDistribution::Uniform.generate_per_rank(2, 10, 0);
        let mut m = Machine::flat(2);
        let cfg = HssConfig::default()
            .with_ext_sort(ExtSortPolicy::new(1 << 20, run_dir()).with_pipelined())
            .with_approximate_histograms();
        let _ = HssSorter::new(cfg).sort_out_of_core(&mut m, input);
    }

    #[test]
    fn under_cap_ranks_stay_in_memory() {
        let p = 4;
        let input = KeyDistribution::Uniform.generate_per_rank(p, 200, 3);
        let policy = ExtSortPolicy::new(1 << 20, run_dir()); // cap far above data
        let cfg = HssConfig::default().with_ext_sort(policy);
        let mut m = Machine::flat(p);
        let mut m_ref = Machine::flat(p);
        let reference = HssSorter::default().sort(&mut m_ref, input.clone());
        let (outcome, ext) = HssSorter::new(cfg).sort_out_of_core(&mut m, input);
        assert_eq!(outcome.data, reference.data);
        assert_eq!(ext, ExtSortReport::default(), "no rank should spill");
        assert_eq!(m.metrics().total_disk_words(), 0);
        // With zero disk work the accounting is the historical path:
        // identical signatures modulo the phase structure of `sort`.
        assert_eq!(outcome.report.total_keys, 800);
    }

    #[test]
    fn overlapped_disk_model_beats_bsp_on_the_same_spills() {
        let p = 4;
        let n = 600;
        let input = KeyDistribution::Uniform.generate_per_rank(p, n, 23);
        let policy = forcing_policy::<u64>(n, 4, &run_dir());
        let cfg = HssConfig::default().with_ext_sort(policy);
        let mut m_bsp = Machine::flat(p);
        let (out_bsp, _) = HssSorter::new(cfg.clone()).sort_out_of_core(&mut m_bsp, input.clone());
        let mut m_ovl = Machine::flat(p).with_sync_model(SyncModel::Overlapped);
        let (out_ovl, _) = HssSorter::new(cfg).sort_out_of_core(&mut m_ovl, input);
        assert_eq!(out_bsp.data, out_ovl.data);
        // Same disk words charged; strictly less simulated time when the
        // backlog can hide behind subsequent compute.
        assert_eq!(m_bsp.metrics().total_disk_words(), m_ovl.metrics().total_disk_words());
        assert!(
            out_ovl.report.makespan_seconds < out_bsp.report.makespan_seconds,
            "overlapped {} !< bsp {}",
            out_ovl.report.makespan_seconds,
            out_bsp.report.makespan_seconds
        );
    }

    #[test]
    #[should_panic(expected = "requires HssConfig::ext_sort")]
    fn missing_policy_panics() {
        let input = KeyDistribution::Uniform.generate_per_rank(2, 10, 0);
        let mut m = Machine::flat(2);
        let _ = HssSorter::default().sort_out_of_core(&mut m, input);
    }

    #[test]
    #[should_panic(expected = "disable tag_duplicates")]
    fn tagging_is_rejected() {
        let input = KeyDistribution::Uniform.generate_per_rank(2, 10, 0);
        let mut m = Machine::flat(2);
        let cfg = HssConfig::default()
            .with_ext_sort(ExtSortPolicy::new(1 << 20, run_dir()))
            .with_duplicate_tagging();
        let _ = HssSorter::new(cfg).sort_out_of_core(&mut m, input);
    }
}
