//! Property-based tests: for arbitrary distributions of arbitrary data
//! over arbitrary PE counts, every sorter returns the sorted multiset.

use kamsta_comm::{Machine, MachineConfig};
use kamsta_sort::{hypercube_quicksort, rebalance, sample_sort_by_key};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn hypercube_matches_reference(
        p in 1usize..9,
        chunks in prop::collection::vec(prop::collection::vec(any::<u32>(), 0..60), 1..9),
        seed in any::<u64>(),
    ) {
        let chunks_for_run = chunks.clone();
        let out = Machine::run(MachineConfig::new(p), move |comm| {
            let data = chunks_for_run.get(comm.rank()).cloned().unwrap_or_default();
            hypercube_quicksort(comm, data, seed)
        });
        let flat: Vec<u32> = out.results.into_iter().flatten().collect();
        let mut expected: Vec<u32> = chunks.iter().take(p).flatten().copied().collect();
        expected.sort_unstable();
        prop_assert_eq!(flat, expected);
    }

    #[test]
    fn sample_sort_matches_reference(
        p in 1usize..9,
        chunks in prop::collection::vec(prop::collection::vec(any::<u32>(), 0..120), 1..9),
        seed in any::<u64>(),
    ) {
        let chunks_for_run = chunks.clone();
        let out = Machine::run(MachineConfig::new(p), move |comm| {
            let data = chunks_for_run.get(comm.rank()).cloned().unwrap_or_default();
            sample_sort_by_key(comm, data, seed, |&x| x)
        });
        let flat: Vec<u32> = out.results.into_iter().flatten().collect();
        let mut expected: Vec<u32> = chunks.iter().take(p).flatten().copied().collect();
        expected.sort_unstable();
        prop_assert_eq!(flat, expected);
    }

    #[test]
    fn rebalance_preserves_sequence(
        p in 1usize..9,
        chunks in prop::collection::vec(prop::collection::vec(any::<u32>(), 0..50), 1..9),
    ) {
        let chunks_for_run = chunks.clone();
        let out = Machine::run(MachineConfig::new(p), move |comm| {
            let data = chunks_for_run.get(comm.rank()).cloned().unwrap_or_default();
            rebalance(comm, data)
        });
        let total: usize = chunks.iter().take(p).map(Vec::len).sum();
        let flat: Vec<u32> = out.results.iter().flatten().copied().collect();
        let expected: Vec<u32> = chunks.iter().take(p).flatten().copied().collect();
        prop_assert_eq!(flat, expected, "sequence must be preserved");
        for (i, chunk) in out.results.iter().enumerate() {
            let lo = (i * total) / p;
            let hi = ((i + 1) * total) / p;
            prop_assert_eq!(chunk.len(), hi - lo, "PE {} block size", i);
        }
    }
}
