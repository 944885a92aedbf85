//! The data-movement step shared by every splitter-based algorithm:
//! partition local sorted data by the splitters, run the all-to-all
//! exchange, merge the received runs (§2.2 step 3).
//!
//! Two engines implement the step with bitwise-identical results and
//! identical simulated-cost accounting:
//!
//! * [`ExchangeEngine::Flat`] (the default) — zero-copy bucketize into an
//!   [`hss_sim::ExchangePlan`] over the sorted data itself,
//!   one contiguous buffer moved per rank (`MPI_Alltoallv` style), and a
//!   k-way merge ([`crate::merge::kway_merge_slices`]) reading the receive
//!   buffer in place;
//! * [`ExchangeEngine::Nested`] — the historical `Vec<Vec<Vec<T>>>` send
//!   matrix (`p²` allocations and a full extra copy), retained as the
//!   differential-testing oracle and for the `exchange_scaling` benchmark.

use hss_keygen::Keyed;
use hss_sim::{ExchangePlan, Machine, Phase, Work};

use crate::merge::kway_merge;
use crate::splitters::SplitterSet;

/// How the all-to-all exchange injects messages into the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExchangeMode {
    /// One message per (source rank, destination rank) pair.
    RankLevel,
    /// Messages between the same pair of physical nodes are combined
    /// (§6.1.1), reducing the message count from `p(p-1)` to `n(n-1)`.
    NodeCombined,
}

/// Which data representation moves the keys (same results and accounting
/// either way; the flat engine is the fast path).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ExchangeEngine {
    /// Flat counts/displacements buffers (`MPI_Alltoallv` style) plus a
    /// k-way merge over in-place slices.
    #[default]
    Flat,
    /// The nested `Vec<Vec<Vec<T>>>` send matrix plus a heap-order k-way
    /// merge of owned runs.  `p²` allocations per exchange — kept as the
    /// differential-testing oracle.
    Nested,
}

/// Move every key to the rank that owns its bucket and merge the received
/// sorted runs, using the default [`ExchangeEngine::Flat`] engine.
/// `per_rank_sorted` must be sorted within each rank; `splitters` must
/// define exactly `machine.ranks()` buckets.
///
/// Returns the per-rank output (globally sorted across ranks, sorted within
/// each rank).  Charges the bucketize work, the exchange and the merge to
/// [`Phase::DataExchange`] / [`Phase::Merge`].
pub fn exchange_and_merge<T: Keyed + Ord>(
    machine: &mut Machine,
    per_rank_sorted: &[Vec<T>],
    splitters: &SplitterSet<T::K>,
    mode: ExchangeMode,
) -> Vec<Vec<T>> {
    exchange_and_merge_with(machine, per_rank_sorted, splitters, mode, ExchangeEngine::Flat)
}

/// [`exchange_and_merge`] with an explicit engine choice.
pub fn exchange_and_merge_with<T: Keyed + Ord>(
    machine: &mut Machine,
    per_rank_sorted: &[Vec<T>],
    splitters: &SplitterSet<T::K>,
    mode: ExchangeMode,
    engine: ExchangeEngine,
) -> Vec<Vec<T>> {
    assert_eq!(
        splitters.buckets(),
        machine.ranks(),
        "splitter set must define one bucket per rank"
    );
    match engine {
        ExchangeEngine::Flat => exchange_and_merge_flat(machine, per_rank_sorted, splitters, mode),
        ExchangeEngine::Nested => {
            exchange_and_merge_nested(machine, per_rank_sorted, splitters, mode)
        }
    }
}

/// The bucketize work charged by both engines: the classification cost of
/// the strategy `bucket_boundaries` actually executes for this shape
/// (binary search / merge sweep / decision tree — see
/// [`crate::classify::classify_work`]) plus a linear pass over the local
/// data (the pack/scan the simulated rank performs to stage its send
/// buffer).  Both engines charge through this one helper, so their
/// simulated costs stay bitwise identical.
fn bucketize_work<K: hss_keygen::Key>(splitters: &SplitterSet<K>, local_len: usize) -> Work {
    crate::classify::classify_work(local_len, splitters.keys().len()).and(Work::scan(local_len))
}

fn exchange_and_merge_flat<T: Keyed + Ord>(
    machine: &mut Machine,
    per_rank_sorted: &[Vec<T>],
    splitters: &SplitterSet<T::K>,
    mode: ExchangeMode,
) -> Vec<Vec<T>> {
    exchange_and_merge_flat_with(machine, per_rank_sorted, splitters, mode, |_dst, runs| {
        let total: usize = runs.iter().map(|r| r.len()).sum();
        let pieces = runs.iter().filter(|r| !r.is_empty()).count();
        (crate::merge::kway_merge_slices(runs), Work::merge(total, pieces.max(1)))
    })
}

/// The flat engine with a caller-supplied merger for the final step: after
/// the in-place exchange, `merger(dst, runs)` receives destination `dst`'s
/// runs (slices into the senders' buffers, in sender order, empties
/// included) and returns the merged output plus the [`Work`] to charge.
///
/// The default merger (used by [`exchange_and_merge`]) is the in-memory
/// [`crate::merge::kway_merge_slices`] (a cascade of two-way merges); the
/// out-of-core tier substitutes one that spills oversized receive sets to
/// disk runs and merges them under a memory cap, adding the disk traffic to
/// the charged `Work`.  A custom merger must preserve the
/// in-memory merge's order (stable, ties by lower run index) if callers
/// rely on bitwise-identical output.
pub fn exchange_and_merge_flat_with<T, F>(
    machine: &mut Machine,
    per_rank_sorted: &[Vec<T>],
    splitters: &SplitterSet<T::K>,
    mode: ExchangeMode,
    merger: F,
) -> Vec<Vec<T>>
where
    T: Keyed + Ord,
    F: Fn(usize, &[&[T]]) -> (Vec<T>, Work) + Sync,
{
    // Plan each rank's buckets as counts/displacements over its sorted data
    // — no per-bucket clones.
    let plans: Vec<ExchangePlan> =
        machine.map_phase(Phase::DataExchange, per_rank_sorted, |_r, local| {
            (
                crate::bucketize::exchange_plan(local, splitters),
                bucketize_work(splitters, local.len()),
            )
        });
    // Exchange: the sorted data itself is the flat send buffer, and no
    // receive buffer is materialised — the merge below reads every
    // destination's runs directly out of the senders' buffers, so each
    // element is copied exactly once end to end (into the merged output).
    match mode {
        ExchangeMode::RankLevel => {
            machine.all_to_allv_flat_in_place::<T>(Phase::DataExchange, per_rank_sorted, &plans);
        }
        ExchangeMode::NodeCombined => {
            machine.all_to_allv_flat_node_combined_in_place::<T>(
                Phase::DataExchange,
                per_rank_sorted,
                &plans,
            );
        }
    }
    // Merge destination `dst`'s runs in place.
    machine.map_phase(Phase::Merge, per_rank_sorted, |dst, _local| {
        let runs = crate::merge::runs_for(&plans, per_rank_sorted, dst);
        merger(dst, &runs)
    })
}

fn exchange_and_merge_nested<T: Keyed + Ord>(
    machine: &mut Machine,
    per_rank_sorted: &[Vec<T>],
    splitters: &SplitterSet<T::K>,
    mode: ExchangeMode,
) -> Vec<Vec<T>> {
    // Partition each rank's sorted data into destination buckets.
    let sends: Vec<Vec<Vec<T>>> =
        machine.map_phase(Phase::DataExchange, per_rank_sorted, |_r, local| {
            let buckets = crate::bucketize::partition_sorted(local, splitters);
            (buckets, bucketize_work(splitters, local.len()))
        });
    // Exchange.
    let received = match mode {
        ExchangeMode::RankLevel => machine.all_to_allv(Phase::DataExchange, sends),
        ExchangeMode::NodeCombined => machine.all_to_allv_node_combined(Phase::DataExchange, sends),
    };
    // Merge the p sorted runs each rank received.
    machine.transform_phase(Phase::Merge, received, |_r, runs| {
        let pieces = runs.iter().filter(|b| !b.is_empty()).count();
        let total: usize = runs.iter().map(|b| b.len()).sum();
        (kway_merge(runs), Work::merge(total, pieces.max(1)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::verify_global_sort;
    use hss_sim::{CostModel, Topology};

    fn sorted_input(p: usize, n: usize) -> Vec<Vec<u64>> {
        // Deterministic pseudo-random per-rank data, locally sorted.
        (0..p)
            .map(|r| {
                let mut v: Vec<u64> = (0..n)
                    .map(|i| ((r * n + i) as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 3)
                    .collect();
                v.sort_unstable();
                v
            })
            .collect()
    }

    #[test]
    fn exchange_produces_global_sort_with_exact_splitters() {
        let p = 8;
        let input = sorted_input(p, 200);
        let splitter_keys = crate::select::exact_splitters(&input, p);
        let splitters = SplitterSet::new(splitter_keys);
        let mut machine = Machine::flat(p);
        let out = exchange_and_merge(&mut machine, &input, &splitters, ExchangeMode::RankLevel);
        verify_global_sort(&input, &out).unwrap();
    }

    #[test]
    fn node_combined_exchange_gives_identical_data() {
        let p = 8;
        let input = sorted_input(p, 100);
        let splitters = SplitterSet::new(crate::select::exact_splitters(&input, p));
        let mut m1 = Machine::new(Topology::new(p, 4), CostModel::bluegene_like());
        let mut m2 = Machine::new(Topology::new(p, 4), CostModel::bluegene_like());
        let a = exchange_and_merge(&mut m1, &input, &splitters, ExchangeMode::RankLevel);
        let b = exchange_and_merge(&mut m2, &input, &splitters, ExchangeMode::NodeCombined);
        assert_eq!(a, b);
        assert!(
            m2.metrics().phase(Phase::DataExchange).messages
                < m1.metrics().phase(Phase::DataExchange).messages
        );
    }

    #[test]
    fn flat_and_nested_engines_agree_bitwise() {
        let p = 8;
        let input = sorted_input(p, 150);
        let splitters = SplitterSet::new(crate::select::exact_splitters(&input, p));
        for mode in [ExchangeMode::RankLevel, ExchangeMode::NodeCombined] {
            let mut m_flat = Machine::new(Topology::new(p, 4), CostModel::bluegene_like());
            let mut m_nested = Machine::new(Topology::new(p, 4), CostModel::bluegene_like());
            let a = exchange_and_merge_with(
                &mut m_flat,
                &input,
                &splitters,
                mode,
                ExchangeEngine::Flat,
            );
            let b = exchange_and_merge_with(
                &mut m_nested,
                &input,
                &splitters,
                mode,
                ExchangeEngine::Nested,
            );
            assert_eq!(a, b, "mode {mode:?}");
            assert_eq!(
                m_flat.metrics().deterministic_signature(),
                m_nested.metrics().deterministic_signature(),
                "mode {mode:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "one bucket per rank")]
    fn wrong_bucket_count_panics() {
        let input = sorted_input(4, 10);
        let splitters = SplitterSet::new(vec![1u64, 2]); // 3 buckets, 4 ranks
        let mut machine = Machine::flat(4);
        let _ = exchange_and_merge(&mut machine, &input, &splitters, ExchangeMode::RankLevel);
    }
}
