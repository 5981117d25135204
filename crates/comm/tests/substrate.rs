//! Stress tests for the synchronization substrate: the dissemination
//! barrier, the typed epoch-stamped exchange cells and the
//! single-superstep collective protocol built on them (DESIGN.md §6).

use kamsta_comm::{
    route, AlltoallKind, FlatBuckets, Machine, MachineConfig, TransportKind, Wire, WireError,
    WireReader,
};
use proptest::prelude::*;
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
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

/// Generations of [`Counted`] values tracked at once, per PE. Collective
/// `k` tags its values with `k mod GENERATIONS`; by the time the tag comes
/// round again every older value is checked dead.
const GENERATIONS: usize = 4;
/// The largest machine [`published_values_die_one_collective_later`] runs.
const MAX_PES: usize = 16;

/// Live [`Counted`] values by holder PE and generation.
static LIVE: [[AtomicUsize; GENERATIONS]; MAX_PES] =
    [const { [const { AtomicUsize::new(0) }; GENERATIONS] }; MAX_PES];

thread_local! {
    /// The PE this thread runs (a PE's rank closure stays on its thread).
    static HOLDER: Cell<usize> = const { Cell::new(0) };
}

/// A payload that counts its live instances. Every instance belongs to
/// the PE that made it — by construction, clone or decode — so a value a
/// PE published and the copies it made to publish are counted against
/// that PE, while copies made by receivers are counted against them.
#[derive(Debug)]
struct Counted {
    holder: usize,
    generation: usize,
    value: u64,
}

impl Counted {
    fn new(generation: usize, value: u64) -> Self {
        let holder = HOLDER.with(Cell::get);
        LIVE[holder][generation].fetch_add(1, Ordering::Relaxed);
        Self {
            holder,
            generation,
            value,
        }
    }
}

impl Clone for Counted {
    fn clone(&self) -> Self {
        Self::new(self.generation, self.value)
    }
}

impl Drop for Counted {
    fn drop(&mut self) {
        LIVE[self.holder][self.generation].fetch_sub(1, Ordering::Relaxed);
    }
}

impl Wire for Counted {
    fn wire_write(&self, out: &mut Vec<u8>) {
        (self.generation as u64).wire_write(out);
        self.value.wire_write(out);
    }
    fn wire_read(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let generation = u64::wire_read(r)? as usize;
        Ok(Self::new(generation, u64::wire_read(r)?))
    }
}

/// Every collective kind the cells blackboard carries, by name.
const KINDS: [&str; 7] = [
    "direct all-to-all",
    "grid all-to-all",
    "allgather",
    "allgatherv",
    "gatherv",
    "request_reply",
    "hypercube pair exchange",
];

/// Run collective `k` of the sequence with [`Counted`] payloads of
/// generation `k mod GENERATIONS`, check what arrived, and drop it all.
fn counted_collective(comm: &kamsta_comm::Comm, k: usize) {
    let (p, me) = (comm.size(), comm.rank());
    let gen = k % GENERATIONS;
    let tag = |from: usize, to: usize| (k * 10_000 + from * 100 + to) as u64;
    let per_dest = || -> FlatBuckets<Counted> {
        FlatBuckets::from_nested(
            (0..p)
                .map(|d| vec![Counted::new(gen, tag(me, d))])
                .collect(),
        )
    };
    match k % KINDS.len() {
        kind @ (0 | 1) => {
            let recv = if kind == 0 {
                comm.alltoallv_direct(per_dest())
            } else {
                comm.alltoallv_grid(per_dest())
            };
            for (src, b) in recv.iter_buckets().enumerate() {
                assert_eq!(b.len(), 1);
                assert_eq!(b[0].value, tag(src, me));
            }
        }
        2 => {
            let all = comm.allgather(Counted::new(gen, tag(me, 0)));
            assert!(all.iter().enumerate().all(|(r, c)| c.value == tag(r, 0)));
        }
        3 => {
            let all = comm.allgatherv(vec![Counted::new(gen, tag(me, 0)); me % 3 + 1]);
            assert_eq!(all.len(), (0..p).map(|r| r % 3 + 1).sum::<usize>());
        }
        4 => {
            let root = k % p;
            let got = comm.gatherv(root, vec![Counted::new(gen, tag(me, root)); 2]);
            assert_eq!(got.map(|all| all.len()), (me == root).then_some(2 * p));
        }
        5 => {
            let answers = comm.request_reply(per_dest(), |q| Counted::new(gen, q.value + 1));
            for (d, a) in answers.iter().enumerate() {
                assert_eq!(a.value, tag(me, d) + 1);
            }
        }
        _ => {
            let dims = usize::BITS - (p - 1).leading_zeros();
            let partner = me ^ (1 << ((k / KINDS.len()) % dims as usize));
            if partner < p {
                let got = comm.exchange(
                    Some((partner, vec![Counted::new(gen, tag(me, partner))])),
                    Some(partner),
                );
                assert_eq!(got.expect("partner sends")[0].value, tag(partner, me));
            } else {
                assert!(comm.exchange::<Vec<Counted>>(None, None).is_none());
            }
        }
    }
}

/// A value published on the cells blackboard dies with its last
/// consumer, whatever the next collective's payload type. Two
/// assertions check it:
/// - after collective `k + 1` returns on a PE, nothing that PE published
///   or relayed in collective `k` is alive anywhere;
/// - once every PE has returned from collective `k` (a plain thread
///   barrier, not a collective), nothing any PE made for `k` is alive.
///
/// Each collective kind publishes a different cell type, so a value left
/// until its own type's lane is reused shows up here. Both assertions
/// share one run: the `LIVE` counters are global to this test binary.
#[test]
fn published_values_die_one_collective_later() {
    for p in [2usize, 3, 7, 16] {
        let cfg = MachineConfig::new(p).with_transport(TransportKind::Cells);
        let returned = Barrier::new(p);
        let returned = &returned;
        Machine::run(cfg, move |comm| {
            let me = comm.rank();
            HOLDER.with(|h| h.set(me));
            for k in 0..4 * KINDS.len() {
                counted_collective(comm, k);
                // No PE makes a generation-`k` value again before every
                // PE has passed this check: that takes collective `k + 1`.
                returned.wait();
                let alive: usize = LIVE
                    .iter()
                    .map(|gens| gens[k % GENERATIONS].load(Ordering::Relaxed))
                    .sum();
                assert_eq!(
                    alive,
                    0,
                    "p = {p}: {alive} values of collective {k} ({}) alive after every PE \
                     returned from it",
                    KINDS[k % KINDS.len()],
                );
                if let Some(prev) = k.checked_sub(1) {
                    let alive = LIVE[me][prev % GENERATIONS].load(Ordering::Relaxed);
                    assert_eq!(
                        alive,
                        0,
                        "p = {p}, rank {me}: {alive} values of collective {prev} ({}) \
                         alive after collective {k} ({}) returned",
                        KINDS[prev % KINDS.len()],
                        KINDS[k % KINDS.len()],
                    );
                }
            }
        });
        for (pe, gens) in LIVE.iter().enumerate() {
            for (gen, live) in gens.iter().enumerate() {
                let live = live.load(Ordering::Relaxed);
                assert_eq!(
                    live, 0,
                    "p = {p}: PE {pe} generation {gen} outlived the run"
                );
            }
        }
    }
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
