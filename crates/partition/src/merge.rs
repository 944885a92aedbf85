//! Merging the sorted fragments a rank receives after the all-to-all
//! exchange.
//!
//! Every sender's bucket arrives already sorted (the sender sorted its local
//! data first), so the receiver performs a `k`-way merge of `p` runs —
//! `O((N/p) log p)` comparisons, the term that appears in every row of
//! Table 5.1.
//!
//! [`kway_merge_slices`] runs a balanced *cascade of two-way merges*.  The
//! first level merges adjacent non-empty input slices straight out of the
//! receive buffer; every later level merges adjacent groups of the previous
//! one, ping-ponging between two scratch buffers, so `k` runs take
//! `⌈log₂ k⌉` streaming passes of at most `n` comparisons each.  Each
//! two-way step is branchless — the comparison selects which input to copy
//! and which cursor to advance — so the inner loop carries no unpredictable
//! branch, and each pass streams linearly through memory.
//!
//! The left group of every two-way merge wins ties, so equal items come out
//! in run-index order: the output is stable with respect to the source-rank
//! order of the runs, and bitwise identical to the [`SourceLoserTree`] the
//! out-of-core tier streams its disk runs through.

use std::mem::MaybeUninit;

use hss_keygen::Keyed;

/// Merge already-sorted runs, given as slices, into one sorted vector.
/// Equal elements are emitted in run-index order (see the module docs).
pub fn kway_merge_slices<T: Ord + Clone>(runs: &[&[T]]) -> Vec<T> {
    // Pre-sized at the run count: `filter` erases the size hint, so a bare
    // `collect` here would grow-by-push on the merge hot path.
    let mut nonempty: Vec<&[T]> = Vec::with_capacity(runs.len());
    nonempty.extend(runs.iter().copied().filter(|r| !r.is_empty()));
    // Filtering empty runs first cannot change the tie-break order: empty
    // runs emit nothing, and the survivors keep their relative order.
    match nonempty.len() {
        0 => Vec::new(),
        1 => nonempty[0].to_vec(),
        _ => merge_cascade(&nonempty),
    }
}

/// Balanced cascade of stable two-way merges over `runs` (at least two,
/// all non-empty).  Level one merges input pairs into a scratch buffer;
/// each later level merges adjacent groups of the previous level into the
/// other buffer, until one group remains.
fn merge_cascade<T: Ord + Clone>(runs: &[&[T]]) -> Vec<T> {
    let mut src = Vec::new();
    let mut ends = merge_pairs(runs, &mut src);
    // Allocated on first use: with two runs, level one is the result.
    let mut dst = Vec::new();
    while ends.len() > 1 {
        let groups: Vec<&[T]> = ends
            .iter()
            .scan(0, |start, &end| {
                let group = &src[*start..end];
                *start = end;
                Some(group)
            })
            .collect();
        dst.clear();
        ends = merge_pairs(&groups, &mut dst);
        std::mem::swap(&mut src, &mut dst);
    }
    src
}

/// One cascade level: merge adjacent pairs of `groups` into the empty
/// `out` (a trailing odd group is copied as is), returning the exclusive
/// end offset of each merged group in `out`.
fn merge_pairs<T: Ord + Clone>(groups: &[&[T]], out: &mut Vec<T>) -> Vec<usize> {
    assert!(out.is_empty(), "a level writes a fresh buffer");
    let total: usize = groups.iter().map(|g| g.len()).sum();
    out.reserve_exact(total);
    let spare = &mut out.spare_capacity_mut()[..total];
    let mut ends = Vec::with_capacity(groups.len().div_ceil(2));
    let mut start = 0;
    for pair in groups.chunks(2) {
        let end = start + pair.iter().map(|g| g.len()).sum::<usize>();
        match pair {
            [a, b] => merge_two(a, b, &mut spare[start..end]),
            [a] => clone_into(a, &mut spare[start..end]),
            _ => unreachable!("chunks(2) yields one or two groups"),
        }
        ends.push(end);
        start = end;
    }
    // SAFETY: the pairs' output ranges tile `0..total` exactly (each
    // range is as long as its inputs together), and `merge_two` /
    // `clone_into` initialise every slot of the range they are given.
    unsafe { out.set_len(total) };
    ends
}

/// Stable branchless two-way merge of the sorted slices `a` and `b` into
/// `out` (`out.len() == a.len() + b.len()`), initialising every slot.  On
/// equal heads `a` wins, so `a` must hold the lower-indexed runs.
#[inline]
fn merge_two<T: Ord + Clone>(a: &[T], b: &[T], out: &mut [MaybeUninit<T>]) {
    assert_eq!(out.len(), a.len() + b.len(), "merge output must fit both inputs exactly");
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        // One comparison picks the source; the cursors advance by the
        // comparison's 0/1 value rather than by a branch on it.
        let take_b = b[j] < a[i];
        out[i + j].write(if take_b { &b[j] } else { &a[i] }.clone());
        i += usize::from(!take_b);
        j += usize::from(take_b);
    }
    // At most one input has a tail left; it follows the merged prefix.
    let (rest_a, rest_b) = (&a[i..], &b[j..]);
    let (out_a, out_b) = out[i + j..].split_at_mut(rest_a.len());
    clone_into(rest_a, out_a);
    clone_into(rest_b, out_b);
}

/// Clone `src` into the equally long `out`, initialising every slot.
#[inline]
fn clone_into<T: Clone>(src: &[T], out: &mut [MaybeUninit<T>]) {
    assert_eq!(out.len(), src.len(), "clone destination must match its source");
    for (slot, x) in out.iter_mut().zip(src) {
        slot.write(x.clone());
    }
}

/// A pull-based producer of one sorted run, consumed by
/// [`SourceLoserTree`].  Unlike the slice-based [`kway_merge_slices`], the
/// run's elements need not be resident in memory: the out-of-core tier
/// (`hss-extsort`) implements this trait with a windowed file reader whose
/// `pop` refills the window from disk when it empties.
///
/// Contract: `peek` and `pop` observe the same element, `pop` advances past
/// it, and the sequence of popped elements is sorted (ascending).
pub trait RunSource {
    /// Element type produced by this run.
    type Item: Ord;
    /// The run's current head, or `None` once the run is exhausted.
    fn peek(&self) -> Option<&Self::Item>;
    /// Remove and return the current head (the element `peek` showed).
    fn pop(&mut self) -> Option<Self::Item>;
}

/// [`RunSource`] view of an in-memory sorted slice — the adapter that lets
/// the generic tree be differentially tested against [`kway_merge_slices`], and
/// the degenerate "run already in memory" case of the external merge.
pub struct SliceSource<'a, T> {
    slice: &'a [T],
    pos: usize,
}

impl<'a, T> SliceSource<'a, T> {
    /// A source over an already-sorted slice.
    pub fn new(slice: &'a [T]) -> Self {
        Self { slice, pos: 0 }
    }
}

impl<T: Ord + Clone> RunSource for SliceSource<'_, T> {
    type Item = T;

    fn peek(&self) -> Option<&T> {
        self.slice.get(self.pos)
    }

    fn pop(&mut self) -> Option<T> {
        let item = self.slice.get(self.pos).cloned();
        if item.is_some() {
            self.pos += 1;
        }
        item
    }
}

/// A loser tree over generic [`RunSource`]s, pulling from sources whose
/// backing storage may be a bounded disk window.  Equal heads emit in
/// source-index order — the tie-break rule of [`kway_merge_slices`] — so the
/// emission order is bitwise identical to the in-memory merge over the same
/// runs, which is what makes the external merge's output provably equal to
/// the in-memory path.
pub struct SourceLoserTree<S: RunSource> {
    sources: Vec<S>,
    /// Internal nodes `1..leaves`; `usize::MAX` marks "no contender yet"
    /// during construction (never observed afterwards).
    tree: Vec<usize>,
    leaves: usize,
    winner: usize,
}

impl<S: RunSource> SourceLoserTree<S> {
    /// Build the initial tournament over `sources` (exhausted sources are
    /// permitted and simply lose every comparison).
    pub fn new(sources: Vec<S>) -> Self {
        let leaves = sources.len().next_power_of_two();
        let mut lt = Self { sources, tree: vec![usize::MAX; leaves], leaves, winner: 0 };
        lt.winner = lt.build(1);
        lt
    }

    fn head(&self, i: usize) -> Option<&S::Item> {
        self.sources.get(i).and_then(|s| s.peek())
    }

    /// Whether source `a` beats source `b`: exhausted sources lose to live
    /// ones, ties go to the lower index.
    fn beats(&self, a: usize, b: usize) -> bool {
        match (self.head(a), self.head(b)) {
            (Some(x), Some(y)) => match x.cmp(y) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Greater => false,
                std::cmp::Ordering::Equal => a < b,
            },
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => a < b,
        }
    }

    fn build(&mut self, node: usize) -> usize {
        if node >= self.leaves {
            return node - self.leaves;
        }
        let left = self.build(2 * node);
        let right = self.build(2 * node + 1);
        if self.beats(left, right) {
            self.tree[node] = right;
            left
        } else {
            self.tree[node] = left;
            right
        }
    }

    /// Pop the overall minimum (by the tie-break order) and replay the
    /// winner's leaf-to-root path; `None` once every source is exhausted.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<S::Item> {
        // Popping may refill the winner's window from disk, so the replay
        // below already sees the winner's *next* head.  (`get_mut` also covers the
        // zero-source tree, whose virtual winner has no backing source.)
        let item = self.sources.get_mut(self.winner)?.pop()?;
        let mut contender = self.winner;
        let mut node = (self.winner + self.leaves) / 2;
        while node >= 1 {
            let loser = self.tree[node];
            if self.beats(loser, contender) {
                self.tree[node] = contender;
                contender = loser;
            }
            node /= 2;
        }
        self.winner = contender;
        Some(item)
    }

    /// The element [`next`](Self::next) would emit, without consuming it —
    /// what lets a streaming bucketizer drain the merge only up to a
    /// splitter boundary and leave the rest for the next bucket.
    pub fn peek(&self) -> Option<&S::Item> {
        self.head(self.winner)
    }

    /// The sources, returned once merging is done (e.g. to collect per-run
    /// I/O statistics).
    pub fn into_sources(self) -> Vec<S> {
        self.sources
    }

    /// Number of sources the tree merges.
    pub fn len(&self) -> usize {
        self.sources.len()
    }

    /// Whether the tree has no sources at all.
    pub fn is_empty(&self) -> bool {
        self.sources.is_empty()
    }
}

/// A tree of sources is itself a source (its emission stream is sorted),
/// so trees compose — and the streaming-bucketize helpers below work on a
/// bare tree, on the out-of-core tier's merge cursor, or on any other
/// sorted producer alike.
impl<S: RunSource> RunSource for SourceLoserTree<S> {
    type Item = S::Item;

    fn peek(&self) -> Option<&S::Item> {
        SourceLoserTree::peek(self)
    }

    fn pop(&mut self) -> Option<S::Item> {
        self.next()
    }
}

/// Drain `src` into `out` while the head key is `< bound` — the streaming
/// equivalent of cutting a sorted slice at `partition_point(key < bound)`
/// (the `splitter_position` convention), so a pipelined exchange that
/// drains bucket-by-bucket produces exactly the buckets a materialised
/// `bucketize` would.  Returns the number of elements emitted.
pub fn drain_source_below<S>(
    src: &mut S,
    bound: <S::Item as Keyed>::K,
    out: &mut Vec<S::Item>,
) -> usize
where
    S: RunSource,
    S::Item: Keyed,
{
    let before = out.len();
    while let Some(head) = src.peek() {
        if head.key() >= bound {
            break;
        }
        out.push(src.pop().expect("peek saw a head"));
    }
    out.len() - before
}

/// Drain `src` to exhaustion into `out` (the final bucket, whose upper
/// bound is +∞).  Returns the number of elements emitted.
pub fn drain_source_rest<S: RunSource>(src: &mut S, out: &mut Vec<S::Item>) -> usize {
    let before = out.len();
    while let Some(item) = src.pop() {
        out.push(item);
    }
    out.len() - before
}

/// Merge already-sorted runs into one sorted vector ([`kway_merge_slices`]
/// over the runs' slices).
pub fn kway_merge<T: Keyed + Ord>(runs: Vec<Vec<T>>) -> Vec<T> {
    let slices: Vec<&[T]> = runs.iter().map(|r| r.as_slice()).collect();
    kway_merge_slices(&slices)
}

/// Merge sorted runs by concatenating and sorting — used as an oracle in
/// tests and as the fallback for item types that are `Keyed` but not `Ord`
/// as whole records.
pub fn concat_sort_merge<T: Keyed>(runs: Vec<Vec<T>>) -> Vec<T> {
    let mut out: Vec<T> = runs.into_iter().flatten().collect();
    out.sort_by_key(|a| a.key());
    out
}

/// Merge destination `dst`'s runs directly out of the senders' flat buffers:
/// source `s`'s contribution is `plans[s].run(&bufs[s], dst)` (the flat
/// in-place exchange convention — no receive buffer is ever materialised).
/// Returns the merged output together with `(total_elems, nonempty_runs)`
/// for cost accounting.  Shared by the flat exchange engine and the staged
/// overlapped exchange.
pub fn merge_runs_for<T: Ord + Clone>(
    plans: &[hss_sim::ExchangePlan],
    bufs: &[Vec<T>],
    dst: usize,
) -> (Vec<T>, usize, usize) {
    let runs = runs_for(plans, bufs, dst);
    let total: usize = runs.iter().map(|r| r.len()).sum();
    let pieces = runs.iter().filter(|r| !r.is_empty()).count();
    (kway_merge_slices(&runs), total, pieces)
}

/// The runs destined for `dst` under the flat in-place exchange convention,
/// as slices into the senders' buffers (in sender order).  Factored out of
/// [`merge_runs_for`] so alternative mergers — e.g. the out-of-core tier's
/// spill-to-disk merge — can consume the same runs.
pub fn runs_for<'a, T>(
    plans: &[hss_sim::ExchangePlan],
    bufs: &'a [Vec<T>],
    dst: usize,
) -> Vec<&'a [T]> {
    plans.iter().zip(bufs.iter()).map(|(p, b)| p.run(b, dst)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hss_sim::ExchangePlan;

    #[test]
    fn kway_merge_merges_sorted_runs() {
        let runs: Vec<Vec<u64>> = vec![vec![1, 4, 7], vec![2, 5, 8], vec![0, 3, 6, 9]];
        assert_eq!(kway_merge(runs), (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn kway_merge_handles_empty_runs() {
        let runs: Vec<Vec<u64>> = vec![vec![], vec![3, 3], vec![], vec![1]];
        assert_eq!(kway_merge(runs), vec![1, 3, 3]);
        assert!(kway_merge(Vec::<Vec<u64>>::new()).is_empty());
    }

    #[test]
    fn kway_merge_preserves_duplicates() {
        let runs: Vec<Vec<u64>> = vec![vec![5; 10], vec![5; 7]];
        assert_eq!(kway_merge(runs).len(), 17);
    }

    #[test]
    fn concat_sort_merge_matches_kway() {
        let runs: Vec<Vec<u64>> = vec![vec![10, 20, 30], vec![5, 15, 35], vec![0, 40]];
        assert_eq!(concat_sort_merge(runs.clone()), kway_merge(runs));
    }

    #[test]
    fn merge_works_on_records() {
        use hss_keygen::Record;
        let runs: Vec<Vec<Record>> = vec![
            vec![Record { key: 1, payload: 10 }, Record { key: 3, payload: 30 }],
            vec![Record { key: 2, payload: 20 }],
        ];
        let merged = kway_merge(runs);
        assert_eq!(merged.iter().map(|r| r.key).collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(merged[1].payload, 20);
    }

    #[test]
    fn ties_break_by_run_index() {
        // Records with equal keys but distinguishable payloads: the merge
        // must emit run 0's record first, exactly like the historical
        // heap-based merge whose heap entries ordered ties by run index.
        use hss_keygen::Record;
        let runs: Vec<Vec<Record>> = vec![
            vec![Record { key: 5, payload: 0 }],
            vec![Record { key: 5, payload: 0 }, Record { key: 5, payload: 1 }],
        ];
        // Identical records are indistinguishable, so use payloads that keep
        // key order but differ across runs.
        let runs2: Vec<Vec<Record>> = vec![
            vec![Record { key: 5, payload: 7 }],
            vec![Record { key: 5, payload: 7 }],
            vec![Record { key: 5, payload: 7 }],
        ];
        assert_eq!(kway_merge(runs).len(), 3);
        assert_eq!(kway_merge(runs2).len(), 3);
    }

    #[test]
    fn source_tree_ties_break_by_source_index() {
        use hss_keygen::Record;
        // Duplicate keys across sources: source 0's record must come first,
        // matching the in-memory merge's run-index tie-break.
        let a = [Record { key: 5, payload: 0 }];
        let b = [Record { key: 5, payload: 1 }, Record { key: 7, payload: 2 }];
        let mut tree =
            SourceLoserTree::new(vec![SliceSource::new(&a[..]), SliceSource::new(&b[..])]);
        assert_eq!(tree.next().unwrap().payload, 0);
        assert_eq!(tree.next().unwrap().payload, 1);
        assert_eq!(tree.next().unwrap().payload, 2);
        assert!(tree.next().is_none());
        assert!(tree.next().is_none());
    }

    #[test]
    fn loser_tree_matches_oracle_on_many_shapes() {
        // Deterministic pseudo-random runs of irregular lengths, including
        // empty ones and non-power-of-two run counts.
        for k in [1usize, 2, 3, 5, 8, 13] {
            let runs: Vec<Vec<u64>> = (0..k)
                .map(|i| {
                    let len = (i * 7 + 3) % 11;
                    let mut v: Vec<u64> =
                        (0..len).map(|j| ((i * 31 + j * 17) % 23) as u64).collect();
                    v.sort_unstable();
                    v
                })
                .collect();
            assert_eq!(kway_merge(runs.clone()), concat_sort_merge(runs), "k = {k}");
        }
    }

    #[test]
    fn source_tree_matches_slice_tree_on_many_shapes() {
        // The generic tree must be emission-for-emission identical to the
        // slice tree, including the tie-break rule, for every run shape the
        // slice oracle is tested on.
        for k in [0usize, 1, 2, 3, 5, 8, 13] {
            let runs: Vec<Vec<u64>> = (0..k)
                .map(|i| {
                    let len = (i * 7 + 3) % 11;
                    let mut v: Vec<u64> =
                        (0..len).map(|j| ((i * 31 + j * 13) % 9) as u64).collect();
                    v.sort_unstable();
                    v
                })
                .collect();
            let slices: Vec<&[u64]> = runs.iter().map(|r| r.as_slice()).collect();
            let mut tree =
                SourceLoserTree::new(slices.iter().map(|s| SliceSource::new(s)).collect());
            let mut got = Vec::new();
            while let Some(x) = tree.next() {
                got.push(x);
            }
            assert_eq!(got, kway_merge_slices(&slices), "k = {k}");
        }
    }

    /// A test item whose `Ord` (and `Eq`) look at `key` only, so equal keys
    /// from different runs are tied for the merge yet stay tellable apart
    /// by `tag`: the merged tag sequence proves the tie-break order.  `PAD`
    /// bytes of payload set the item's width.
    #[derive(Debug, Clone, Copy)]
    struct Tagged<const PAD: usize> {
        key: u64,
        tag: u32,
        _pad: [u8; PAD],
    }

    impl<const PAD: usize> Tagged<PAD> {
        fn new(key: u64, tag: u32) -> Self {
            Self { key, tag, _pad: [0xA5; PAD] }
        }
    }

    impl<const PAD: usize> PartialEq for Tagged<PAD> {
        fn eq(&self, other: &Self) -> bool {
            self.key == other.key
        }
    }

    impl<const PAD: usize> Eq for Tagged<PAD> {}

    impl<const PAD: usize> PartialOrd for Tagged<PAD> {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    impl<const PAD: usize> Ord for Tagged<PAD> {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.key.cmp(&other.key)
        }
    }

    impl<const PAD: usize> Keyed for Tagged<PAD> {
        type K = u64;
        fn key(&self) -> u64 {
            self.key
        }
    }

    /// Sorted runs of `(key, tag)` pairs.
    type TaggedRuns = Vec<Vec<(u64, u32)>>;

    /// The key of element `j` of run `i` in one run shape.
    type KeyFn = fn(usize, usize) -> u64;

    /// Every run shape the differential tests cover, as `(key, tag)` runs
    /// with tags unique across the whole input: for each `k`, mixed-length
    /// runs over a few distinct keys (every third run empty, `u64::MAX`
    /// sprinkled in), all-equal runs, and runs made mostly of `u64::MAX`.
    fn run_shapes() -> Vec<(String, TaggedRuns)> {
        let makers: [(&str, KeyFn); 3] = [
            ("mixed", |i, j| match (i * 31 + j * 17) % 13 {
                0 => u64::MAX,
                x => x as u64,
            }),
            ("all-equal", |_, _| 7),
            ("max", |i, j| if (i + j) % 5 == 0 { 0 } else { u64::MAX }),
        ];
        let len = |i: usize| if i % 3 == 1 { 0 } else { (i * 7 + 3) % 19 };
        let mut shapes = Vec::new();
        for k in [0usize, 1, 2, 3, 5, 8, 13, 64, 65, 256] {
            for (name, key) in makers {
                let mut tag = 0u32;
                let runs = (0..k)
                    .map(|i| {
                        let mut keys: Vec<u64> = (0..len(i)).map(|j| key(i, j)).collect();
                        keys.sort_unstable();
                        keys.into_iter()
                            .map(|key| {
                                tag += 1;
                                (key, tag)
                            })
                            .collect()
                    })
                    .collect();
                shapes.push((format!("{name}, k = {k}"), runs));
            }
        }
        shapes
    }

    /// `kway_merge_slices` against the stable concatenate-and-sort oracle
    /// and against `SourceLoserTree` over `SliceSource`s, compared by
    /// `(key, tag)` so the tie-break order is checked, not just the keys.
    fn check_merge_against_oracles<const PAD: usize>() {
        let view = |v: &[Tagged<PAD>]| v.iter().map(|x| (x.key, x.tag)).collect::<Vec<_>>();
        for (shape, pairs) in run_shapes() {
            let runs: Vec<Vec<Tagged<PAD>>> = pairs
                .iter()
                .map(|r| r.iter().map(|&(key, tag)| Tagged::new(key, tag)).collect())
                .collect();
            let slices: Vec<&[Tagged<PAD>]> = runs.iter().map(|r| r.as_slice()).collect();
            let got = view(&kway_merge_slices(&slices));
            assert_eq!(got, view(&concat_sort_merge(runs.clone())), "{shape}");
            let mut tree =
                SourceLoserTree::new(slices.iter().map(|s| SliceSource::new(s)).collect());
            let mut streamed = Vec::new();
            while let Some(x) = tree.next() {
                streamed.push(x);
            }
            assert_eq!(got, view(&streamed), "{shape}");
        }
    }

    #[test]
    fn narrow_merge_matches_oracles_and_breaks_ties_by_run_index() {
        assert!(std::mem::size_of::<Tagged<0>>() <= hss_lsort::WIDE_ITEM_BYTES);
        check_merge_against_oracles::<0>();
    }

    #[test]
    fn wide_merge_matches_oracles_and_breaks_ties_by_run_index() {
        // As wide as the local sort's wide-item path: the merge must not
        // depend on the item's size.
        assert!(std::mem::size_of::<Tagged<48>>() > hss_lsort::WIDE_ITEM_BYTES);
        check_merge_against_oracles::<48>();
    }

    #[test]
    fn u64_merge_matches_oracles_on_every_shape() {
        for (shape, pairs) in run_shapes() {
            let runs: Vec<Vec<u64>> =
                pairs.iter().map(|r| r.iter().map(|&(key, _)| key).collect()).collect();
            let slices: Vec<&[u64]> = runs.iter().map(|r| r.as_slice()).collect();
            let got = kway_merge_slices(&slices);
            assert_eq!(got, concat_sort_merge(runs.clone()), "{shape}");
            let mut tree =
                SourceLoserTree::new(slices.iter().map(|s| SliceSource::new(s)).collect());
            assert!(got.iter().all(|x| tree.next().as_ref() == Some(x)), "{shape}");
            assert!(tree.next().is_none(), "{shape}");
        }
    }

    #[test]
    fn merging_runs_of_a_flat_plan_via_slices() {
        // The consumer-side pattern for a FlatRecv buffer: slice the runs
        // out through the plan and k-way merge them.
        let data: Vec<u64> = vec![1, 4, 7, 2, 5, 8, 0, 3, 6, 9];
        let plan = ExchangePlan::from_counts(vec![3, 3, 4]);
        let runs: Vec<&[u64]> = plan.runs(&data).collect();
        assert_eq!(kway_merge_slices(&runs), (0..10).collect::<Vec<u64>>());
    }
}
