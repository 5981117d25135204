//! K-way merging of sorted runs (receive-side of the sample sort).

/// Append the merge of two sorted runs to `out`. Ties take the left run.
fn merge_two<T: Ord + Clone>(left: &[T], right: &[T], out: &mut Vec<T>) {
    let (mut i, mut j) = (0, 0);
    while i < left.len() && j < right.len() {
        if right[j] < left[i] {
            out.push(right[j].clone());
            j += 1;
        } else {
            out.push(left[i].clone());
            i += 1;
        }
    }
    out.extend_from_slice(&left[i..]);
    out.extend_from_slice(&right[j..]);
}

/// Merge sorted runs into one sorted vector, reading each run where it
/// lies — the receive side of the sample sort, whose runs are the
/// exchanged buckets (DESIGN.md §14). The output is the one allocation
/// the size of the input; the rest is `O(k)`.
///
/// Two non-empty runs are one two-finger merge. More are a tournament
/// (loser) tree over the run heads: each element out replays one
/// leaf-to-root path of about `⌈log2 k⌉` matches, and nothing is
/// written but the output. A tie goes to the lower run index at every
/// match, so equal elements come out in run-index order — the tie-break
/// that keeps distributed sorts deterministic. The last run standing is
/// copied in one piece.
pub fn merge_runs<T: Ord + Clone>(runs: &[&[T]]) -> Vec<T> {
    let live: Vec<&[T]> = runs.iter().copied().filter(|r| !r.is_empty()).collect();
    let mut out = Vec::with_capacity(live.iter().map(|r| r.len()).sum());
    match live[..] {
        [] => {}
        [only] => out.extend_from_slice(only),
        [left, right] => merge_two(left, right, &mut out),
        _ => merge_tournament(&live, &mut out),
    }
    out
}

/// The loser tree of [`merge_runs`] over `k ≥ 3` non-empty runs. Node
/// `n ∈ 1..k` holds the loser of its match, leaf `k + i` is run `i`,
/// and the overall winner is kept apart.
fn merge_tournament<T: Ord + Clone>(runs: &[&[T]], out: &mut Vec<T>) {
    let k = runs.len();
    let mut heads = vec![0usize; k];
    // Run `a`'s head leaves before run `b`'s; an exhausted run loses.
    let beats = |heads: &[usize], a: usize, b: usize| match (
        runs[a].get(heads[a]),
        runs[b].get(heads[b]),
    ) {
        (Some(x), Some(y)) => x.cmp(y).then(a.cmp(&b)).is_lt(),
        (x, _) => x.is_some(),
    };
    let mut winners = vec![0usize; 2 * k];
    let mut losers = vec![0usize; k];
    for (i, w) in winners[k..].iter_mut().enumerate() {
        *w = i;
    }
    for n in (1..k).rev() {
        let (a, b) = (winners[2 * n], winners[2 * n + 1]);
        let a_wins = beats(&heads, a, b);
        winners[n] = if a_wins { a } else { b };
        losers[n] = if a_wins { b } else { a };
    }
    let mut winner = winners[1];
    let mut left = k;
    while left > 1 {
        out.push(runs[winner][heads[winner]].clone());
        heads[winner] += 1;
        if heads[winner] == runs[winner].len() {
            left -= 1;
        }
        let mut n = (k + winner) / 2;
        while n > 0 {
            if beats(&heads, losers[n], winner) {
                std::mem::swap(&mut losers[n], &mut winner);
            }
            n /= 2;
        }
    }
    out.extend_from_slice(&runs[winner][heads[winner]..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn merge_nested<T: Ord + Clone>(runs: Vec<Vec<T>>) -> Vec<T> {
        merge_runs(&runs.iter().map(Vec::as_slice).collect::<Vec<_>>())
    }

    #[test]
    fn merges_disjoint_runs() {
        let runs = vec![vec![1, 4, 7], vec![2, 5, 8], vec![3, 6, 9]];
        assert_eq!(merge_nested(runs), (1..=9).collect::<Vec<_>>());
    }

    #[test]
    fn merges_overlapping_runs_with_duplicates() {
        let runs = vec![vec![1, 1, 3], vec![1, 2, 3], vec![]];
        assert_eq!(merge_nested(runs), vec![1, 1, 1, 2, 3, 3]);
    }

    #[test]
    fn degenerate_cases() {
        assert_eq!(merge_nested::<u8>(vec![]), Vec::<u8>::new());
        assert_eq!(merge_nested::<u8>(vec![vec![], vec![]]), Vec::<u8>::new());
        assert_eq!(merge_nested(vec![vec![2, 9]]), vec![2, 9]);
        assert_eq!(merge_nested(vec![vec![], vec![5], vec![]]), vec![5]);
    }

    #[test]
    fn runs_with_gaps_merge_in_order() {
        let nested = vec![vec![1u32, 4, 7], vec![2, 5, 8], vec![], vec![3, 3, 9]];
        assert_eq!(merge_nested(nested), vec![1, 2, 3, 3, 4, 5, 7, 8, 9]);
    }

    fn lcg(seed: u64) -> impl FnMut() -> u32 {
        let mut state = seed;
        move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as u32
        }
    }

    #[test]
    fn random_runs_match_flat_sort() {
        let mut rng = lcg(12345);
        let mut runs = Vec::new();
        let mut flat = Vec::new();
        for _ in 0..10 {
            let len = (rng() % 50) as usize;
            let mut run: Vec<u32> = (0..len).map(|_| rng() % 1000).collect();
            run.sort_unstable();
            flat.extend_from_slice(&run);
            runs.push(run);
        }
        flat.sort_unstable();
        assert_eq!(merge_nested(runs), flat);
    }

    /// A key with a run tag that `Ord` ignores: only a merge that breaks
    /// ties by run index puts equal keys out in tag order.
    #[derive(Clone, Copy, Debug)]
    struct Tagged {
        key: u32,
        run: usize,
    }
    impl PartialEq for Tagged {
        fn eq(&self, other: &Self) -> bool {
            self.key == other.key
        }
    }
    impl Eq for Tagged {}
    impl PartialOrd for Tagged {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Tagged {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.key.cmp(&other.key)
        }
    }

    /// `k` sorted runs of tagged keys from a small range (many ties),
    /// with empty runs at the front, in the middle and at the end.
    fn tagged_runs(k: usize, seed: u64) -> Vec<Vec<Tagged>> {
        let mut rng = lcg(seed);
        (0..k)
            .map(|run| {
                let empty = k > 2 && (run == 0 || run == k / 2 || run == k - 1);
                let len = if empty { 0 } else { (rng() % 40) as usize };
                let mut keys: Vec<u32> = (0..len).map(|_| rng() % 16).collect();
                keys.sort_unstable();
                keys.into_iter().map(|key| Tagged { key, run }).collect()
            })
            .collect()
    }

    #[test]
    fn matches_a_stable_sort_for_every_run_count() {
        for k in [1usize, 2, 3, 5, 16, 64] {
            let runs = tagged_runs(k, 77 + k as u64);
            // Concatenation in run order, stably sorted: equal keys stay
            // in run-index order — the merge's contract.
            let mut expect: Vec<Tagged> = runs.iter().flatten().copied().collect();
            expect.sort();
            let got = merge_nested(runs);
            let pairs = |v: &[Tagged]| v.iter().map(|t| (t.key, t.run)).collect::<Vec<_>>();
            assert_eq!(pairs(&got), pairs(&expect), "k={k}");
        }
    }

    #[test]
    fn equal_keys_come_out_in_run_index_order() {
        let runs: Vec<Vec<Tagged>> = (0..7).map(|run| vec![Tagged { key: 5, run }; 3]).collect();
        let got: Vec<usize> = merge_nested(runs).iter().map(|t| t.run).collect();
        let expect: Vec<usize> = (0..7).flat_map(|run| [run; 3]).collect();
        assert_eq!(got, expect);
    }
}
