//! Stress tests for the synchronization substrate: the dissemination
//! barrier, the typed epoch-stamped exchange cells and the
//! single-superstep collective protocol built on them (DESIGN.md §6).

use kamsta_comm::{route, AlltoallKind, FlatBuckets, Machine, MachineConfig};
use proptest::prelude::*;
use std::time::Duration;

/// Hammer mixed collectives from all PEs for many epochs. Every round
/// cycles the *same* cell sets (same payload types) through different
/// collectives with different publishers, so a stale lane, a torn epoch
/// stamp or a skewed per-type round counter corrupts a checked value
/// almost immediately.
#[test]
fn mixed_collectives_stress_many_epochs() {
    for p in [2usize, 3, 7, 16] {
        let rounds = 200usize;
        let out = Machine::run(MachineConfig::new(p), move |comm| {
            let me = comm.rank() as u64;
            let mut acc = 0u64;
            for r in 0..rounds as u64 {
                // Rotate the broadcast root so every PE publishes.
                let root = (r as usize) % p;
                let v = (comm.rank() == root).then_some(r * 1000 + root as u64);
                acc ^= comm.broadcast(root, v);

                // Scalar allgather: sum must be exact every epoch.
                let all = comm.allgather(me * 31 + r);
                acc ^= all.iter().sum::<u64>();

                // Vector payloads of epoch-varying length through the
                // same Vec<u64> cell set that gatherv uses below.
                let mine: Vec<u64> = (0..(me + r) % 5).map(|k| me * 100 + k).collect();
                acc ^= comm.allgatherv(mine).iter().sum::<u64>();

                // Rooted gatherv with rotating root; re-broadcast the
                // root's fold so every PE's accumulator stays replicated.
                let root = (r as usize + 1) % p;
                let got = comm.gatherv(root, vec![me ^ r]);
                acc ^= comm.broadcast(root, got.map(|all| all.iter().sum::<u64>()));

                // Pairwise exchange along a shifting ring.
                if p > 1 {
                    let shift = 1 + (r as usize % (p - 1));
                    let to = (comm.rank() + shift) % p;
                    let from = (comm.rank() + p - shift) % p;
                    let got = comm
                        .exchange(Some((to, me * 7 + r)), Some(from))
                        .expect("ring partner always sends");
                    assert_eq!(got, (from as u64) * 7 + r);
                }

                // Small all-to-all every few epochs.
                if r % 5 == 0 {
                    let bufs = FlatBuckets::from_nested(
                        (0..p).map(|d| vec![me * 10 + d as u64]).collect(),
                    );
                    let recv = comm.sparse_alltoallv(bufs);
                    for (src, b) in recv.iter_buckets().enumerate() {
                        assert_eq!(b, &[(src as u64) * 10 + me]);
                    }
                }

                acc ^= comm.allreduce_sum(acc & 0xFFFF);
            }
            acc
        });
        // Every PE folds identical replicated values: accs must agree.
        for (r, acc) in out.results.iter().enumerate() {
            assert_eq!(*acc, out.results[0], "p={p} rank {r} diverged");
        }
    }
}

/// A PE dying mid-run must unblock peers parked inside a collective: the
/// barrier is poisoned and every waiter panics instead of deadlocking.
#[test]
fn dying_pe_unblocks_parked_waiters() {
    let res = std::panic::catch_unwind(|| {
        Machine::run(MachineConfig::new(8), |comm| {
            if comm.rank() == 3 {
                // Let the others reach the collective and park first.
                std::thread::sleep(Duration::from_millis(50));
                panic!("pe 3 dies before publishing");
            }
            // Peers block inside a collective (waiting for rank 3's
            // barrier signal) — poisoning must release them.
            comm.allgather(comm.rank() as u64)
        })
    });
    assert!(res.is_err(), "machine run must propagate the PE panic");
}

/// Same, but with the dying PE deep inside a multi-round collective
/// sequence while peers are several collectives ahead or behind.
#[test]
fn dying_pe_unblocks_waiters_mid_sequence() {
    let res = std::panic::catch_unwind(|| {
        Machine::run(MachineConfig::new(4), |comm| {
            for r in 0..10u64 {
                if comm.rank() == 1 && r == 7 {
                    panic!("pe 1 dies at round 7");
                }
                comm.allreduce_sum(r);
                comm.barrier();
            }
        })
    });
    assert!(res.is_err());
}

/// The p == 1 fast paths must agree with the general collectives.
#[test]
fn single_pe_fast_paths_match_semantics() {
    let out = Machine::run(MachineConfig::new(1), |comm| {
        let b = comm.broadcast(0, Some(41u64));
        let bv = comm.broadcast_vec(0, Some(vec![1u8, 2]));
        let g = comm.gather(0, 5u32).expect("root gathers");
        let gv = comm.gatherv(0, vec![7u16, 8]).expect("root gathers");
        let ag = comm.allgather(9u64);
        let agv = comm.allgatherv(vec![10u64, 11]);
        let ex = comm.exchange::<u64>(None, None);
        let rt = route(comm, vec![(0usize, 99u64)]);
        (b, bv, g, gv, ag, agv, ex, rt)
    });
    let (b, bv, g, gv, ag, agv, ex, rt) = out.results.into_iter().next().unwrap();
    assert_eq!(b, 41);
    assert_eq!(bv, vec![1, 2]);
    assert_eq!(g, vec![5]);
    assert_eq!(gv, vec![7, 8]);
    assert_eq!(ag, vec![9]);
    assert_eq!(agv, vec![10, 11]);
    assert_eq!(ex, None);
    assert_eq!(rt, vec![99]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Exchange-cell round-trip under every all-to-all strategy:
    /// arbitrary (dest, payload) streams must arrive exactly, in sender
    /// order, whichever routed cell protocol carries them — and repeated
    /// exchanges in one run must not bleed epochs into each other.
    #[test]
    fn cell_roundtrip_under_all_strategies(
        p in 1usize..10,
        reps in 1usize..4,
        items in prop::collection::vec((0usize..10, any::<u64>()), 0..40),
    ) {
        for kind in [AlltoallKind::Direct, AlltoallKind::Grid, AlltoallKind::Auto] {
            let stream = items.clone();
            let out = Machine::run(
                MachineConfig::new(p).with_alltoall(kind),
                move |comm| {
                    let me = comm.rank();
                    let mut got = Vec::new();
                    for rep in 0..reps {
                        // Each PE perturbs the shared stream so peers
                        // carry different payloads per repetition.
                        let mine: Vec<(usize, u64)> = stream
                            .iter()
                            .map(|&(d, x)| (d % p, x ^ ((me + rep) as u64)))
                            .collect();
                        got.push(route(comm, mine));
                    }
                    got
                },
            );
            // Reference: per destination, senders deliver in rank order,
            // each sender's items in stream order.
            for rep in 0..reps {
                for dest in 0..p {
                    let mut expect = Vec::new();
                    for src in 0..p {
                        expect.extend(items.iter().filter(|(d, _)| d % p == dest)
                            .map(|&(_, x)| x ^ ((src + rep) as u64)));
                    }
                    prop_assert_eq!(
                        &out.results[dest][rep],
                        &expect,
                        "kind {:?} p {} dest {} rep {}", kind, p, dest, rep
                    );
                }
            }
        }
    }

    /// The value-only request/reply protocol (two chained all-to-alls on
    /// the same cell sets) must pair every answer with its question
    /// positionally under every strategy.
    #[test]
    fn request_reply_pairs_positionally(
        p in 1usize..9,
        queries in prop::collection::vec((0usize..9, any::<u32>()), 0..30),
    ) {
        for kind in [AlltoallKind::Direct, AlltoallKind::Grid] {
            let queries = queries.clone();
            let out = Machine::run(MachineConfig::new(p).with_alltoall(kind), move |comm| {
                let pairs: Vec<(usize, u32)> =
                    queries.iter().map(|&(d, q)| (d % p, q)).collect();
                let bufs = FlatBuckets::from_pairs(p, pairs);
                let resolve = |q: &u32| (*q as u64).wrapping_mul(0x9E37_79B9);
                let expected: Vec<u64> = bufs.payload().iter().map(&resolve).collect();
                let answers = comm.request_reply(bufs, resolve);
                (answers, expected)
            });
            for (answers, expected) in out.results {
                prop_assert_eq!(answers, expected, "kind {:?} p {}", kind, p);
            }
        }
    }
}
