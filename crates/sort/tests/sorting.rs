//! End-to-end correctness of the distributed sorters: the rank-order
//! concatenation of outputs must be the sorted multiset of all inputs.

use kamsta_comm::{Comm, Machine, MachineConfig, PeStats};
use kamsta_sort::{
    hypercube_quicksort, is_globally_sorted, rebalance, sample_sort_by_key, sample_sort_sorted,
    sort_auto_by_key, sort_auto_sorted, Sorted, HYPERCUBE_THRESHOLD,
};

/// Deterministic pseudo-random input for PE `rank`.
fn input_for(rank: usize, n: usize, salt: u64) -> Vec<u64> {
    let mut state = salt
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(rank as u64 + 1);
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 24
        })
        .collect()
}

fn check_sorter(p: usize, per_pe: usize, salt: u64, which: &str) {
    let which_owned = which.to_string();
    let out = Machine::run(MachineConfig::new(p), move |comm| {
        let data = input_for(comm.rank(), per_pe, salt);
        let sorted = match which_owned.as_str() {
            "hypercube" => hypercube_quicksort(comm, data, 42),
            "sample" => sample_sort_by_key(comm, data, 42, |&x| x),
            "auto" => sort_auto_by_key(comm, data, 42, |&x| x),
            _ => unreachable!(),
        };
        let ok = is_globally_sorted(comm, &sorted);
        (sorted, ok)
    });
    let mut flat: Vec<u64> = Vec::new();
    let mut expected: Vec<u64> = Vec::new();
    for (rank, (chunk, ok)) in out.results.into_iter().enumerate() {
        assert!(ok, "{which} p={p}: checker rejected output");
        flat.extend(chunk);
        expected.extend(input_for(rank, per_pe, salt));
    }
    expected.sort_unstable();
    assert_eq!(
        flat, expected,
        "{which} p={p} per_pe={per_pe}: output is not the sorted input multiset"
    );
}

#[test]
fn hypercube_sorts_power_of_two() {
    for p in [1, 2, 4, 8, 16] {
        check_sorter(p, 50, 7, "hypercube");
    }
}

#[test]
fn hypercube_sorts_non_power_of_two() {
    for p in [3, 5, 6, 7, 11, 12] {
        check_sorter(p, 37, 8, "hypercube");
    }
}

#[test]
fn hypercube_sorts_empty_and_tiny_inputs() {
    for p in [2, 4, 7] {
        check_sorter(p, 0, 1, "hypercube");
        check_sorter(p, 1, 2, "hypercube");
    }
}

#[test]
fn sample_sorts_various_sizes() {
    for p in [1, 2, 3, 4, 8, 13] {
        check_sorter(p, 500, 9, "sample");
    }
}

#[test]
fn auto_sorts_skewed_duplicates() {
    // Heavy duplication, only 4 distinct keys, on both sides of the
    // threshold: the hypercube's pivots and the sample sort's splitters
    // both land on runs of equal keys.
    let p = 6;
    for per_pe in [200, 2000] {
        let out = Machine::run(MachineConfig::new(p), move |comm| {
            let data: Vec<u64> = (0..per_pe).map(|i| (i + comm.rank()) as u64 % 4).collect();
            sort_auto_by_key(comm, data, 3, |&x| x)
        });
        let flat: Vec<u64> = out.results.into_iter().flatten().collect();
        assert_eq!(flat.len(), per_pe * p);
        assert!(flat.windows(2).all(|w| w[0] <= w[1]), "per_pe={per_pe}");
    }
}

/// Outputs and per-PE stats of `sort` on `per_pe` elements per PE.
fn sort_run(per_pe: usize, sort: fn(&Comm, Vec<u64>) -> Vec<u64>) -> (Vec<Vec<u64>>, Vec<PeStats>) {
    let out = Machine::run(MachineConfig::new(8), move |comm| {
        sort(comm, input_for(comm.rank(), per_pe, 4))
    });
    (out.results, out.stats)
}

fn auto(comm: &Comm, data: Vec<u64>) -> Vec<u64> {
    sort_auto_by_key(comm, data, 42, |&x| x)
}

fn sum_then_hypercube(comm: &Comm, data: Vec<u64>) -> Vec<u64> {
    comm.allreduce_sum(data.len() as u64);
    hypercube_quicksort(comm, data, 42)
}

fn sum_then_sample_sort(comm: &Comm, data: Vec<u64>) -> Vec<u64> {
    comm.allreduce_sum(data.len() as u64);
    sample_sort_by_key(comm, data, 42, |&x| x)
}

#[test]
fn auto_picks_hypercube_up_to_the_threshold_and_sample_sort_above() {
    // Sec. VI-C: hypercube quicksort while the average per PE is at most
    // HYPERCUBE_THRESHOLD, the sample sort from one element above it. The
    // charges tell the two routes apart, so equal stats pin the choice.
    let t = HYPERCUBE_THRESHOLD as usize;
    for per_pe in [10, t] {
        assert_eq!(sort_run(per_pe, auto), sort_run(per_pe, sum_then_hypercube));
        check_sorter(8, per_pe, 4, "auto");
    }
    for per_pe in [t + 1, 2000] {
        assert_eq!(
            sort_run(per_pe, auto),
            sort_run(per_pe, sum_then_sample_sort)
        );
        check_sorter(8, per_pe, 5, "auto");
    }
    assert_ne!(
        sort_run(t, sum_then_hypercube).1,
        sort_run(t, sum_then_sample_sort).1
    );
}

/// SplitMix64 finalizer over `h ^ x`: the digest fold of the pinned test.
fn fold(h: u64, x: u64) -> u64 {
    kamsta_comm::fault::splitmix64(h ^ x)
}

#[test]
fn hypercube_quicksort_is_pinned() {
    // Per p: one digest folding, rank by rank and sort by sort, every
    // output element and the sort's (messages, bytes, local_ops), plus
    // the modeled seconds every PE ends on. Recorded when each level's
    // pivot sample was still gathered by an allgatherv over a split-off
    // subcube communicator; the partner exchanges that replaced it must
    // reproduce the counters exactly and the clock up to float
    // association (one `α·L + β·B` advance became L + 1 advances).
    const PINS: [(usize, u64, f64); 6] = [
        (2, 0x0a71_221f_d1d9_6995, 0.000_151_011_4),
        (3, 0xad70_ed37_ecc3_8f2d, 0.000_229_025_400_000_000_08),
        (4, 0x3f36_65de_2925_ff19, 0.000_305_057_400_000_000_26),
        (5, 0x5187_dccf_270b_4995, 0.000_394_737_000_000_000_26),
        (8, 0x7ead_8a54_c49c_7938, 0.000_498_124_000_000_000_2),
        (16, 0x7abd_61c5_eb8d_ce13, 0.000_715_139_200_000_000_1),
    ];
    const SIZES: [usize; 7] = [0, 1, 3, 17, 100, 512, 1000];
    for (p, digest, modeled) in PINS {
        let out = Machine::run(MachineConfig::new(p).with_threads(1), |comm| {
            let me = comm.rank();
            let mut h = 0;
            for (salt, &n) in (0u64..).zip(&SIZES) {
                // Every third PE is short, and the entry clocks are skewed.
                let n = if me % 3 == 2 { n / 4 } else { n };
                comm.charge_local((me as u64 * 7_919 + salt * 13) % 5_000);
                let before = comm.stats();
                let sorted = hypercube_quicksort(comm, input_for(me, n, salt), salt);
                let d = comm.stats().since(&before);
                h = sorted
                    .iter()
                    .fold(fold(h, sorted.len() as u64), |h, &x| fold(h, x));
                for x in [d.messages, d.bytes, d.local_ops] {
                    h = fold(h, x);
                }
            }
            h
        });
        let got = out.results.iter().fold(0, |h, &r| fold(h, r));
        assert_eq!(got, digest, "p={p}: outputs or counters moved");
        for (rank, s) in out.stats.iter().enumerate() {
            assert!(
                (s.modeled_time - modeled).abs() <= 1e-12 * modeled,
                "p={p} rank={rank}: modeled {:?}, pinned {modeled:?}",
                s.modeled_time
            );
        }
    }
}

/// Fold one call's output and its (messages, bytes, local_ops) into `h`.
fn pin(h: u64, out: &[u64], d: PeStats) -> u64 {
    let h = out
        .iter()
        .fold(fold(h, out.len() as u64), |h, &x| fold(h, x));
    [d.messages, d.bytes, d.local_ops].into_iter().fold(h, fold)
}

/// How a pinned run hands locally sorted input to the sorters: by key,
/// which scans it, or through the `Sorted` witness, which must not show.
#[derive(Clone, Copy, Debug)]
enum SortedEntry {
    ByKey,
    Witness,
}

impl SortedEntry {
    fn sample_sort(self, comm: &Comm, data: Vec<u64>, seed: u64) -> Vec<u64> {
        match self {
            SortedEntry::ByKey => sample_sort_by_key(comm, data, seed, |&x| x),
            SortedEntry::Witness => sample_sort_sorted(comm, Sorted::assume(data), seed),
        }
    }

    fn auto(self, comm: &Comm, data: Vec<u64>, seed: u64) -> Vec<u64> {
        match self {
            SortedEntry::ByKey => sort_auto_by_key(comm, data, seed, |&x| x),
            SortedEntry::Witness => sort_auto_sorted(comm, Sorted::assume(data), seed),
        }
    }
}

#[test]
fn sample_sort_and_rebalance_are_pinned() {
    // Per p: one digest folding, rank by rank and call by call, every
    // output element and each call's (messages, bytes, local_ops), plus
    // the modeled seconds every PE ends on. Per round a PE holds 0, 1,
    // 2, 96, 97 or 3 000 elements — the local sort's cutoffs on sorted
    // input: no charge below 2, the comparison path up to 96, one scan
    // above. The calls: the sample sort on unsorted input, `rebalance`
    // of its output, `rebalance` of that balanced output (nothing moves),
    // then the sample sort and the automatic sorter on locally sorted
    // input. Recorded while the sample sort still copied its runs into a
    // receive buffer and `rebalance` every element; the `Sorted` witness
    // must reproduce the by-key pins exactly.
    const PINS: [(usize, u64, f64); 5] = [
        (2, 0xb150_ff9f_1fa5_d424, 0.000_973_755_200_000_001_7),
        (3, 0x1950_4763_b40a_2550, 0.001_652_072_600_000_002),
        (5, 0x6348_9d82_3de8_9dae, 0.002_844_076_199_999_996_2),
        (8, 0xafba_da8d_c3eb_faef, 0.003_465_065_799_999_982_7),
        (16, 0xe6f0_8199_617c_8457, 0.005_351_433_399_999_978),
    ];
    const SIZES: [usize; 6] = [0, 1, 2, 96, 97, 3_000];
    for (p, digest, modeled) in PINS {
        for entry in [SortedEntry::ByKey, SortedEntry::Witness] {
            let out = Machine::run(MachineConfig::new(p).with_threads(1), move |comm| {
                let me = comm.rank();
                let mut h = 0;
                for salt in 0..SIZES.len() as u64 {
                    let n = SIZES[(me + salt as usize) % SIZES.len()];
                    comm.charge_local((me as u64 * 7_919 + salt * 13) % 5_000);
                    let input = input_for(me, n, salt + 100);
                    let mut sorted_input = input.clone();
                    sorted_input.sort_unstable();

                    let before = comm.stats();
                    let sorted = sample_sort_by_key(comm, input, salt, |&x| x);
                    h = pin(h, &sorted, comm.stats().since(&before));
                    let before = comm.stats();
                    let balanced = rebalance(comm, sorted);
                    h = pin(h, &balanced, comm.stats().since(&before));
                    let before = comm.stats();
                    let again = rebalance(comm, balanced);
                    h = pin(h, &again, comm.stats().since(&before));
                    let before = comm.stats();
                    let sorted = entry.sample_sort(comm, sorted_input.clone(), salt);
                    h = pin(h, &sorted, comm.stats().since(&before));
                    let before = comm.stats();
                    let sorted = entry.auto(comm, sorted_input, salt);
                    h = pin(h, &sorted, comm.stats().since(&before));
                }
                // Every PE ends on the slowest one's clock.
                comm.barrier();
                h
            });
            let got = out.results.iter().fold(0, |h, &r| fold(h, r));
            assert_eq!(got, digest, "p={p} {entry:?}: outputs or counters moved");
            for (rank, s) in out.stats.iter().enumerate() {
                assert!(
                    (s.modeled_time - modeled).abs() <= 1e-12 * modeled,
                    "p={p} {entry:?} rank={rank}: modeled {:?}, pinned {modeled:?}",
                    s.modeled_time
                );
            }
        }
    }
}

#[test]
fn sorters_are_deterministic() {
    let run = || {
        Machine::run(MachineConfig::new(6), |comm| {
            let data = input_for(comm.rank(), 300, 11);
            sample_sort_by_key(comm, data, 99, |&x| x)
        })
        .results
    };
    assert_eq!(run(), run());
}

#[test]
fn sort_then_rebalance_gives_balanced_sorted_blocks() {
    let p = 5;
    let per_pe = 123;
    let out = Machine::run(MachineConfig::new(p), move |comm| {
        let data = input_for(comm.rank(), per_pe, 13);
        let sorted = sample_sort_by_key(comm, data, 21, |&x| x);
        let balanced = rebalance(comm, sorted);
        let ok = is_globally_sorted(comm, &balanced);
        (balanced, ok)
    });
    let total = p * per_pe;
    let mut flat = Vec::new();
    for (i, (chunk, ok)) in out.results.into_iter().enumerate() {
        assert!(ok);
        let lo = (i * total) / p;
        let hi = ((i + 1) * total) / p;
        assert_eq!(chunk.len(), hi - lo, "PE {i} should hold its block");
        flat.extend(chunk);
    }
    assert!(flat.windows(2).all(|w| w[0] <= w[1]));
}

#[test]
fn sorting_charges_communication_and_work() {
    let out = Machine::run(MachineConfig::new(4), |comm| {
        let data = input_for(comm.rank(), 1000, 17);
        sample_sort_by_key(comm, data, 1, |&x| x);
    });
    assert!(out.total_messages() > 0);
    assert!(out.total_bytes() > 0);
    assert!(out.modeled_time > 0.0);
}
