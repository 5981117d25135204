//! Semantics tests for every collective, across odd/even/power-of-two PE
//! counts and all all-to-all strategies.

use kamsta_comm::{
    bytes_for, route, AlltoallKind, Comm, FlatBuckets, Machine, MachineConfig, PeStats,
};

const PE_COUNTS: &[usize] = &[1, 2, 3, 4, 5, 7, 8, 13, 16];

#[test]
fn barrier_syncs_modeled_clocks() {
    for &p in PE_COUNTS {
        let out = Machine::run(MachineConfig::new(p), |comm| {
            comm.charge_local(1_000 * (comm.rank() as u64 + 1));
            comm.barrier();
            comm.clock().now()
        });
        let max = out.results.iter().cloned().fold(0.0, f64::max);
        for (r, t) in out.results.iter().enumerate() {
            assert!(
                (t - max).abs() < 1e-12,
                "p={p}: rank {r} clock {t} != synced max {max}"
            );
        }
    }
}

#[test]
fn broadcast_from_every_root() {
    for &p in PE_COUNTS {
        for root in [0, p / 2, p - 1] {
            let out = Machine::run(MachineConfig::new(p), move |comm| {
                let v = if comm.rank() == root {
                    Some(vec![root as u64, 42, 7])
                } else {
                    None
                };
                comm.broadcast_vec(root, v)
            });
            for r in out.results {
                assert_eq!(r, vec![root as u64, 42, 7]);
            }
        }
    }
}

#[test]
fn broadcast_scalar() {
    let out = Machine::run(MachineConfig::new(6), |comm| {
        let v = if comm.rank() == 3 { Some(99u32) } else { None };
        comm.broadcast(3, v)
    });
    assert!(out.results.iter().all(|&v| v == 99));
}

#[test]
fn gather_collects_in_rank_order() {
    for &p in PE_COUNTS {
        let out = Machine::run(MachineConfig::new(p), |comm| {
            comm.gather(0, comm.rank() as u64 * 2)
        });
        let expected: Vec<u64> = (0..p as u64).map(|r| r * 2).collect();
        assert_eq!(out.results[0], Some(expected));
        for r in 1..p {
            assert_eq!(out.results[r], None);
        }
    }
}

#[test]
fn gatherv_concatenates_in_rank_order() {
    let out = Machine::run(MachineConfig::new(4), |comm| {
        let mine: Vec<u32> = (0..comm.rank() as u32).collect();
        comm.gatherv(2, mine)
    });
    assert_eq!(out.results[2], Some(vec![0, 0, 1, 0, 1, 2]));
    assert_eq!(out.results[0], None);
}

#[test]
fn allgather_and_allgatherv() {
    for &p in PE_COUNTS {
        let out = Machine::run(MachineConfig::new(p), |comm| {
            let flat = comm.allgather(comm.rank() as u32);
            let varying: Vec<u32> = vec![comm.rank() as u32; comm.rank() + 1];
            let concat = comm.allgatherv(varying);
            (flat, concat)
        });
        let expect_flat: Vec<u32> = (0..p as u32).collect();
        let mut expect_concat = Vec::new();
        for r in 0..p as u32 {
            expect_concat.extend(vec![r; r as usize + 1]);
        }
        for (flat, concat) in out.results {
            assert_eq!(flat, expect_flat);
            assert_eq!(concat, expect_concat);
        }
    }
}

#[test]
fn reductions_scalar() {
    for &p in PE_COUNTS {
        let out = Machine::run(MachineConfig::new(p), |comm| {
            let sum = comm.allreduce_sum(comm.rank() as u64 + 1);
            let max = comm.allreduce_max(comm.rank() as u64);
            let min = comm.allreduce(comm.rank() as u64 + 5, |a, b| *a.min(b));
            let red = comm.reduce(0, comm.rank() as u64, |a, b| a + b);
            (sum, max, min, red)
        });
        let n = p as u64;
        for (r, (sum, max, min, red)) in out.results.into_iter().enumerate() {
            assert_eq!(sum, n * (n + 1) / 2);
            assert_eq!(max, n - 1);
            assert_eq!(min, 5);
            if r == 0 {
                assert_eq!(red, Some(n * (n - 1) / 2));
            } else {
                assert_eq!(red, None);
            }
        }
    }
}

#[test]
fn allreduce_is_deterministic_for_noncommutative_op() {
    // Rank-order fold: (((v0 op v1) op v2) ...) — subtraction exposes any
    // ordering nondeterminism.
    for &p in PE_COUNTS {
        let out = Machine::run(MachineConfig::new(p), |comm| {
            comm.allreduce(comm.rank() as i64 + 10, |a, b| a - b)
        });
        let vals: Vec<i64> = (0..p as i64).map(|r| r + 10).collect();
        let expected = vals[1..].iter().fold(vals[0], |acc, x| acc - x);
        assert!(out.results.iter().all(|&v| v == expected));
    }
}

#[test]
fn exscan_computes_exclusive_prefixes() {
    for &p in PE_COUNTS {
        let out = Machine::run(MachineConfig::new(p), |comm| {
            comm.exscan_sum(comm.rank() as u64 + 1)
        });
        for (r, v) in out.results.into_iter().enumerate() {
            let expected: u64 = (1..=r as u64).sum();
            assert_eq!(v, expected, "p={p} rank={r}");
        }
    }
}

fn alltoall_payload(_p: usize, src: usize, dst: usize) -> Vec<u64> {
    // Deterministic, size varies with (src, dst) to exercise imbalance.
    let n = (src * 7 + dst * 3) % 5;
    (0..n).map(|k| (src * 1000 + dst * 10 + k) as u64).collect()
}

fn check_alltoall(p: usize, kind: AlltoallKind) {
    let out = Machine::run(MachineConfig::new(p).with_alltoall(kind), move |comm| {
        let me = comm.rank();
        let bufs =
            FlatBuckets::from_nested((0..p).map(|dst| alltoall_payload(p, me, dst)).collect());
        let recv = match kind {
            AlltoallKind::Direct => comm.alltoallv_direct(bufs),
            AlltoallKind::Grid => comm.alltoallv_grid(bufs),
            AlltoallKind::Auto => comm.sparse_alltoallv(bufs),
        };
        recv.to_nested()
    });
    for (me, recv) in out.results.into_iter().enumerate() {
        assert_eq!(recv.len(), p);
        for (src, got) in recv.into_iter().enumerate() {
            assert_eq!(
                got,
                alltoall_payload(p, src, me),
                "p={p} kind={kind:?} src={src} dst={me}"
            );
        }
    }
}

#[test]
fn alltoall_direct_all_sizes() {
    for &p in PE_COUNTS {
        check_alltoall(p, AlltoallKind::Direct);
    }
}

#[test]
fn alltoall_grid_all_sizes() {
    // Include sizes with incomplete last rows (e.g. 5: c=2,r=3; 13: c=3,r=5).
    for &p in PE_COUNTS {
        check_alltoall(p, AlltoallKind::Grid);
    }
    for p in [6, 10, 11, 12, 15, 20, 23, 24, 25] {
        check_alltoall(p, AlltoallKind::Grid);
    }
}

#[test]
fn alltoall_auto_all_sizes() {
    for &p in PE_COUNTS {
        check_alltoall(p, AlltoallKind::Auto);
    }
}

#[test]
fn grid_uses_fewer_message_startups_than_direct_at_scale() {
    // The point of Fig. 2: α·p vs α·√p startups for tiny messages.
    let p = 64;
    let run = |kind: AlltoallKind| {
        Machine::run(MachineConfig::new(p).with_alltoall(kind), move |comm| {
            let bufs = FlatBuckets::from_nested((0..p).map(|d| vec![d as u64]).collect());
            match kind {
                AlltoallKind::Direct => comm.alltoallv_direct(bufs),
                _ => comm.alltoallv_grid(bufs),
            };
        })
    };
    let direct = run(AlltoallKind::Direct);
    let grid = run(AlltoallKind::Grid);
    assert!(
        grid.total_messages() < direct.total_messages() / 2,
        "grid {} vs direct {}",
        grid.total_messages(),
        direct.total_messages()
    );
    assert!(grid.modeled_time < direct.modeled_time);
    // ...at the cost of roughly doubled volume.
    assert!(grid.total_bytes() >= direct.total_bytes());
}

/// Per-PE stats of one all-to-all of `elems` `u64`s per message at `p`
/// PEs, performed by `exchange`.
fn alltoall_stats(p: usize, elems: usize, exchange: fn(&Comm, FlatBuckets<u64>)) -> Vec<PeStats> {
    Machine::run(MachineConfig::new(p), move |comm| {
        let bufs = FlatBuckets::from_nested(vec![vec![comm.rank() as u64; elems]; p]);
        exchange(comm, bufs);
    })
    .stats
}

fn auto(comm: &Comm, bufs: FlatBuckets<u64>) {
    comm.sparse_alltoallv(bufs);
}

fn sum_then_grid(comm: &Comm, bufs: FlatBuckets<u64>) {
    comm.allreduce_sum(bytes_for::<u64>(bufs.total_len()));
    comm.alltoallv_grid(bufs);
}

fn sum_then_direct(comm: &Comm, bufs: FlatBuckets<u64>) {
    comm.allreduce_sum(bytes_for::<u64>(bufs.total_len()));
    comm.alltoallv_direct(bufs);
}

fn bare_direct(comm: &Comm, bufs: FlatBuckets<u64>) {
    comm.alltoallv_direct(bufs);
}

#[test]
fn auto_selection_follows_the_500_byte_rule() {
    // Sec. VI-A: above 8 PEs, Auto allreduces the send volume, then takes
    // the grid while the average message is below 500 bytes (62 × 8 B)
    // and the direct exchange from there on (63 × 8 B); at ≤ 8 PEs it is
    // the bare direct exchange.
    for elems in [1, 62] {
        assert_eq!(
            alltoall_stats(16, elems, auto),
            alltoall_stats(16, elems, sum_then_grid)
        );
    }
    for elems in [63, 200] {
        assert_eq!(
            alltoall_stats(16, elems, auto),
            alltoall_stats(16, elems, sum_then_direct)
        );
    }
    for p in [2, 5, 8] {
        for elems in [1, 200] {
            assert_eq!(
                alltoall_stats(p, elems, auto),
                alltoall_stats(p, elems, bare_direct)
            );
        }
    }
    // The three routes charge differently, so the comparisons above pin
    // which one Auto took.
    let one = |route| alltoall_stats(16, 1, route);
    assert_ne!(one(sum_then_grid), one(sum_then_direct));
    assert_ne!(one(sum_then_direct), one(bare_direct));
}

#[test]
fn route_delivers_keyed_items() {
    let p = 6;
    let out = Machine::run(MachineConfig::new(p), move |comm| {
        let me = comm.rank();
        // Everyone sends its rank to every even PE.
        let items: Vec<(usize, u64)> = (0..p)
            .filter(|d| d % 2 == 0)
            .map(|d| (d, me as u64))
            .collect();
        let mut got = route(comm, items);
        got.sort_unstable();
        got
    });
    for (r, got) in out.results.into_iter().enumerate() {
        if r % 2 == 0 {
            assert_eq!(got, (0..p as u64).collect::<Vec<_>>());
        } else {
            assert!(got.is_empty());
        }
    }
}

#[test]
fn exchange_pairs() {
    let out = Machine::run(MachineConfig::new(8), |comm| {
        let partner = comm.rank() ^ 1;
        comm.exchange(Some((partner, comm.rank() as u64)), Some(partner))
            .unwrap()
    });
    for (r, got) in out.results.into_iter().enumerate() {
        assert_eq!(got, (r ^ 1) as u64);
    }
}

#[test]
fn stats_track_messages_and_bytes() {
    let out = Machine::run(MachineConfig::new(4), |comm| {
        comm.allgather(comm.rank() as u64);
    });
    assert!(out.total_messages() > 0);
    assert!(out.total_bytes() > 0);
    assert!(out.modeled_time > 0.0);
}
