//! Transport-boundary suites: Wire round-trip properties for every
//! encoder, and the cross-transport oracle — the same program must
//! produce identical results *and* bit-identical modeled cost counters
//! under the shared-cells and socket backends.

use kamsta_comm::wire::{decode, encode};
use kamsta_comm::{
    route, AlltoallKind, Comm, FlatBuckets, Machine, MachineConfig, PeStats, TransportKind, Wire,
};
use proptest::prelude::*;

fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: &T) -> Result<(), TestCaseError> {
    let buf = encode(v);
    let back = decode::<T>(&buf);
    prop_assert_eq!(back.as_ref().ok(), Some(v), "encoded: {:?}", buf);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn wire_scalars_roundtrip(
        a in any::<u8>(), b in any::<u16>(), c in any::<u32>(), d in any::<u64>(),
        e in any::<u128>(), f in any::<i32>(), g in any::<i64>(), h in any::<usize>(),
        x in any::<f32>(), y in any::<f64>(), t in any::<bool>(),
    ) {
        roundtrip(&a)?;
        roundtrip(&b)?;
        roundtrip(&c)?;
        roundtrip(&d)?;
        roundtrip(&e)?;
        roundtrip(&f)?;
        roundtrip(&g)?;
        roundtrip(&h)?;
        roundtrip(&t)?;
        // Floats round-trip by bits (NaN compares unequal, check bits).
        prop_assert_eq!(decode::<f32>(&encode(&x)).unwrap().to_bits(), x.to_bits());
        prop_assert_eq!(decode::<f64>(&encode(&y)).unwrap().to_bits(), y.to_bits());
    }

    #[test]
    fn wire_containers_roundtrip(
        v in prop::collection::vec(any::<u64>(), 0..40),
        o in any::<Option<(u32, u64)>>(),
        s in prop::collection::vec(any::<u8>(), 0..24)
            .prop_map(|v| String::from_utf8_lossy(&v).into_owned()),
        pair in any::<(u64, u32, bool)>(),
        nested in prop::collection::vec(prop::collection::vec(any::<u32>(), 0..6), 0..6),
    ) {
        roundtrip(&v)?;
        roundtrip(&o)?;
        roundtrip(&s)?;
        roundtrip(&pair)?;
        roundtrip(&nested)?;
    }

    #[test]
    fn wire_flat_buckets_roundtrip(
        nested in prop::collection::vec(prop::collection::vec(any::<u64>(), 0..10), 1..9),
    ) {
        // FlatBuckets must survive with its sdispls arrays intact, not
        // merely its flattened payload.
        let fb = FlatBuckets::from_nested(nested);
        let back = decode::<FlatBuckets<u64>>(&encode(&fb)).unwrap();
        prop_assert_eq!(back.displs(), fb.displs());
        prop_assert_eq!(back.payload(), fb.payload());
        prop_assert_eq!(&back, &fb);
    }

    #[test]
    fn wire_flat_buckets_of_tuples_roundtrip(
        pairs in prop::collection::vec((0usize..7, any::<(u32, u64)>()), 0..40),
    ) {
        let fb = FlatBuckets::from_pairs(7, pairs);
        roundtrip(&fb)?;
    }

    #[test]
    fn wire_rejects_any_truncation(
        v in prop::collection::vec(any::<(u64, u32)>(), 1..10),
    ) {
        let buf = encode(&v);
        for cut in 0..buf.len() {
            prop_assert!(decode::<Vec<(u64, u32)>>(&buf[..cut]).is_err(), "cut={cut}");
        }
    }
}

/// A program exercising every collective and all-to-all strategy, whose
/// per-PE result captures everything observable.
fn mixed_workload(comm: &Comm) -> Vec<u64> {
    let p = comm.size();
    let me = comm.rank() as u64;
    let mut acc: Vec<u64> = Vec::new();

    comm.barrier();
    acc.push(comm.broadcast(0, (comm.rank() == 0).then_some(41u64)));
    acc.extend(comm.broadcast_vec(p - 1, (comm.rank() == p - 1).then(|| vec![me, 7, 9])));
    acc.extend(comm.allgather(me * 3 + 1));
    acc.extend(comm.allgatherv((0..=me).collect::<Vec<u64>>()));
    if let Some(g) = comm.gather(0, me + 100) {
        acc.extend(g);
    }
    if let Some(g) = comm.gatherv(p / 2, vec![me; (me as usize % 3) + 1]) {
        acc.extend(g);
    }
    acc.push(comm.allreduce_sum(me + 1));
    acc.push(comm.allreduce_max(me * 17 % 5));
    acc.push(comm.exscan_sum(me + 2));
    if let Some(r) = comm.reduce(0, me + 5, |a, b| a.wrapping_mul(*b).wrapping_add(1)) {
        acc.push(r);
    }

    // Every all-to-all strategy on the same skewed payload.
    let mk = |salt: u64| {
        FlatBuckets::from_nested(
            (0..p)
                .map(|d| {
                    let n = ((me * 13 + d as u64 * 7 + salt) % 4) as usize;
                    (0..n as u64)
                        .map(|k| me * 1000 + d as u64 * 10 + k)
                        .collect()
                })
                .collect(),
        )
    };
    acc.extend(comm.alltoallv_direct(mk(1)).into_payload());
    acc.extend(comm.alltoallv_grid(mk(2)).into_payload());
    acc.extend(comm.sparse_alltoallv(mk(3)).into_payload());
    acc.extend(route(
        comm,
        (0..2 * p).map(|k| (k % p, me * 31 + k as u64)).collect(),
    ));

    // The request/reply pattern behind the pull protocol.
    let requests =
        FlatBuckets::from_dest_fn(p, (0..3 * p as u64).collect(), |&q| (q % p as u64) as usize);
    acc.extend(comm.request_reply(requests, |&q| q * 2 + me));
    acc.push(comm.allreduce_sum(acc.iter().copied().fold(0u64, u64::wrapping_add)));
    acc
}

fn run_workload(p: usize, kind: TransportKind) -> (Vec<Vec<u64>>, Vec<PeStats>, u64, u64) {
    let out = Machine::run(MachineConfig::new(p).with_transport(kind), mixed_workload);
    let msgs = out.total_messages();
    let bytes = out.total_bytes();
    (out.results, out.stats, msgs, bytes)
}

#[test]
fn cross_transport_oracle_results_and_charges_identical() {
    for p in [1usize, 2, 3, 4, 7, 8, 16] {
        let (res_c, stats_c, msgs_c, bytes_c) = run_workload(p, TransportKind::Cells);
        let kind = TransportKind::Sockets;
        let (res_b, stats_b, msgs_b, bytes_b) = run_workload(p, kind);
        assert_eq!(res_c, res_b, "p={p} {kind:?}: results diverge");
        assert_eq!(msgs_c, msgs_b, "p={p} {kind:?}: total_messages diverge");
        assert_eq!(bytes_c, bytes_b, "p={p} {kind:?}: total_bytes diverge");
        // Bit-identical per-PE counters, including the modeled f64
        // clock: charges sit above the transport boundary at
        // identical positions.
        for (rank, (c, b)) in stats_c.iter().zip(&stats_b).enumerate() {
            assert_eq!(c, b, "p={p} rank={rank} {kind:?}: PeStats diverge");
            assert_eq!(
                c.modeled_time.to_bits(),
                b.modeled_time.to_bits(),
                "p={p} rank={rank} {kind:?}: modeled clock not bit-identical"
            );
        }
    }
}

#[test]
fn alltoall_kinds_agree_across_transports() {
    for kind in [AlltoallKind::Auto, AlltoallKind::Direct, AlltoallKind::Grid] {
        let run = |t: TransportKind| {
            Machine::run(
                MachineConfig::new(9).with_alltoall(kind).with_transport(t),
                |comm| {
                    let p = comm.size();
                    let me = comm.rank() as u64;
                    let bufs = FlatBuckets::from_dest_fn(
                        p,
                        (0..40).map(|k| me * 100 + k).collect::<Vec<u64>>(),
                        |&x| (x % p as u64) as usize,
                    );
                    comm.sparse_alltoallv(bufs).to_nested()
                },
            )
            .results
        };
        let cells = run(TransportKind::Cells);
        assert_eq!(cells, run(TransportKind::Sockets), "{kind:?}");
    }
}
