//! Rank programs for the multi-process launcher (`kamsta_launch`).
//!
//! Each program is an SPMD function every rank runs against its [`Comm`]
//! handle; rank 0 returns a one-line JSON digest, every other rank
//! returns `None`. The digests fold in the machine-wide modeled cost
//! counters (messages, bytes, modeled-clock bits), so comparing a
//! digest produced across real OS processes over sockets against the
//! same program run in-process on the cells transport checks results
//! *and* bit-identical cost accounting in one string equality — the
//! launcher integration tests do exactly that.
//!
//! The counters are snapshotted **before** the digest-gathering
//! collectives run: those collectives are part of the harness, not the
//! program, and charging them would make the digest depend on how it is
//! collected.

use kamsta_comm::{Comm, FlatBuckets};
use kamsta_core::dist::{boruvka_mst, filter_mst, MstConfig};
use kamsta_dyn::{DynConfig, DynMst, Update};
use kamsta_graph::hash::mix64;
use kamsta_graph::{CEdge, GraphConfig, InputGraph, WEdge};

/// The names [`run`] accepts: `sum` (mixed collectives), `mst`
/// (generate + Borůvka), `filter` (Filter-Borůvka, checked against
/// Borůvka on the same input), `dyn` (batch-dynamic maintenance), `die`
/// (one rank exits the OS process mid-run — launcher-only, it would take
/// the whole in-process machine down).
pub const PROGRAMS: [&str; 5] = ["sum", "mst", "filter", "dyn", "die"];

/// Run the named program (one of [`PROGRAMS`]); rank 0 gets
/// `Some(json_digest)`.
///
/// # Panics
///
/// Panics on an unknown program name.
pub fn run(name: &str, comm: &Comm, seed: u64) -> Option<String> {
    match name {
        "sum" => prog_sum(comm, seed),
        "mst" => prog_mst(comm, seed),
        "filter" => prog_filter(comm, seed),
        "dyn" => prog_dyn(comm, seed),
        "die" => prog_die(comm),
        other => panic!("unknown launch program {other:?} (expected {PROGRAMS:?})"),
    }
}

/// Direction- and order-independent hash of one undirected edge: a
/// per-item [`mix64`] hash whose wrapping sum digests an edge set
/// without fixing an edge order.
fn edge_hash(e: &WEdge) -> u64 {
    let (a, b) = (e.u.min(e.v), e.u.max(e.v));
    mix64(a ^ mix64(b ^ mix64(e.w as u64)))
}

/// Close out a program: snapshot this PE's counters, reduce them
/// machine-wide, and render the digest on rank 0.
fn digest(comm: &Comm, program: &str, fields: &[(&str, u64)]) -> Option<String> {
    let s = comm.stats();
    let messages = comm.allreduce_sum(s.messages);
    let bytes = comm.allreduce_sum(s.bytes);
    // Nonnegative f64: bit order equals numeric order, and the BSP
    // bottleneck clock is the max over PEs.
    let modeled_bits = comm.allreduce_max(s.modeled_time.to_bits());
    (comm.rank() == 0).then(|| {
        let mut out = format!("{{\"program\":\"{program}\"");
        for (k, v) in fields {
            out.push_str(&format!(",\"{k}\":{v}"));
        }
        out.push_str(&format!(
            ",\"messages\":{messages},\"bytes\":{bytes},\"modeled_bits\":{modeled_bits}}}"
        ));
        out
    })
}

/// Mixed collectives: reductions, gathers, a skewed all-to-all — a fast
/// smoke of every transport primitive.
fn prog_sum(comm: &Comm, seed: u64) -> Option<String> {
    let p = comm.size();
    let me = comm.rank() as u64;
    let mut acc = comm.allreduce_sum(mix64(seed ^ me) >> 32);
    acc = acc.wrapping_add(comm.exscan_sum(me + 1).wrapping_mul(31));
    for v in comm.allgather(mix64(acc ^ me) >> 40) {
        acc = acc.wrapping_mul(0x0000_0100_0000_01B3).wrapping_add(v);
    }
    let bufs = FlatBuckets::from_dest_fn(
        p,
        (0..6 * p as u64)
            .map(|k| mix64(seed ^ me ^ k))
            .collect::<Vec<u64>>(),
        |&x| (x % p as u64) as usize,
    );
    let local: u64 = comm
        .sparse_alltoallv(bufs)
        .into_payload()
        .into_iter()
        .fold(0, u64::wrapping_add);
    let value = comm.allreduce(acc.wrapping_add(local), |a, b| a.wrapping_add(*b));
    digest(comm, "sum", &[("value", value)])
}

/// Generate one of the paper's graph families and run distributed
/// Borůvka; digest the forest by weight, size and unordered edge hash.
fn prog_mst(comm: &Comm, seed: u64) -> Option<String> {
    let input = InputGraph::generate(comm, GraphConfig::Rgg2D { n: 512, m: 4096 }, seed);
    let cfg = MstConfig {
        base_case_constant: 16,
        ..MstConfig::default()
    };
    let r = boruvka_mst(comm, &input, &cfg);
    digest(comm, "mst", &forest_fields(comm, &r.edges))
}

/// Weight, size and unordered edge hash of a distributed forest, reduced
/// machine-wide — the fields a forest contributes to a digest.
fn forest_fields(comm: &Comm, msf: &[CEdge]) -> [(&'static str, u64); 3] {
    let mut w = 0u64;
    let mut h = 0u64;
    for e in msf {
        let we = e.wedge();
        w = w.wrapping_add(we.w as u64);
        h = h.wrapping_add(edge_hash(&we));
    }
    let weight = comm.allreduce_sum(w);
    let edges = comm.allreduce_sum(msf.len() as u64);
    let ehash = comm.allreduce(h, |a, b| a.wrapping_add(*b));
    [("weight", weight), ("edges", edges), ("ehash", ehash)]
}

/// Filter-Borůvka on a GNM with more vertices than `base_threshold(p)`
/// at the launcher's PE counts, so its base cases run contraction
/// rounds, write their hooks into the representative array and compress
/// it — all across the transport. Digests its forest and the recursion
/// statistics.
///
/// # Panics
///
/// Panics, failing the launch, unless the forest is the one
/// [`boruvka_mst`] finds on the same input.
fn prog_filter(comm: &Comm, seed: u64) -> Option<String> {
    let input = InputGraph::generate(comm, GraphConfig::Gnm { n: 1024, m: 16384 }, seed);
    let cfg = MstConfig {
        base_case_constant: 16,
        ..MstConfig::default()
    };
    let (f, stats) = filter_mst(comm, &input, &cfg);
    let forest = forest_fields(comm, &f.edges);
    let oracle = forest_fields(comm, &boruvka_mst(comm, &input, &cfg).edges);
    assert_eq!(forest, oracle, "Filter-Borůvka's forest is not Borůvka's");
    let [weight, edges, ehash] = forest;
    digest(
        comm,
        "filter",
        &[
            weight,
            edges,
            ehash,
            ("base_case_calls", stats.base_case_calls),
            ("partition_steps", stats.partition_steps),
        ],
    )
}

/// Bootstrap the batch-dynamic maintainer on a grid and push three
/// deterministic update batches through it.
fn prog_dyn(comm: &Comm, seed: u64) -> Option<String> {
    let n = 256u64;
    let cfg = DynConfig::new(n).with_mst(MstConfig {
        base_case_constant: 8,
        ..MstConfig::default()
    });
    let input = InputGraph::generate(comm, GraphConfig::Grid2D { rows: 16, cols: 16 }, seed);
    let mut dynmst = DynMst::bootstrap(comm, cfg, &input);
    for batch_no in 0..3u64 {
        // Updates enter on rank 0, as through the service front-end.
        let batch: Vec<Update> = if comm.rank() == 0 {
            (0..12u64)
                .map(|k| {
                    let r = mix64(seed ^ (batch_no << 32) ^ k);
                    let u = r % n;
                    let v = (r >> 17) % n;
                    if k % 5 == 4 {
                        Update::Delete { u, v }
                    } else {
                        Update::Insert(WEdge::new(u, v, (r >> 40) as u32 % 1000 + 1))
                    }
                })
                .collect()
        } else {
            Vec::new()
        };
        dynmst.apply_batch(comm, &batch);
    }
    let (shard, rep) = dynmst.into_parts();
    let h = shard
        .msf
        .iter()
        .map(|e| edge_hash(&e.wedge()))
        .fold(0u64, u64::wrapping_add);
    let ehash = comm.allreduce(h, |a, b| a.wrapping_add(*b));
    digest(
        comm,
        "dyn",
        &[
            ("weight", rep.weight),
            ("edges", rep.msf_edges),
            ("ehash", ehash),
            ("batches", rep.stats.batches),
        ],
    )
}

/// One rank kills its OS process mid-run; the survivors' next
/// collective must surface a typed transport error, never hang. Only
/// meaningful under the launcher — in-process it takes every PE down.
fn prog_die(comm: &Comm) -> Option<String> {
    let _ = comm.allreduce_sum(1u64);
    if comm.size() > 1 && comm.rank() == comm.size() - 1 {
        std::process::exit(17);
    }
    let _ = comm.allreduce_sum(2u64);
    digest(comm, "die", &[("survived", comm.size() as u64)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use kamsta_comm::{Machine, MachineConfig, TransportKind};

    /// The digest is a pure function of (program, p, seed) — identical
    /// across transports because the modeled counters are. The launcher
    /// suite compares the sockets side against this cells oracle.
    #[test]
    fn digests_are_transport_invariant_in_process() {
        for program in ["sum", "mst", "filter", "dyn"] {
            let run_on = |t: TransportKind| {
                Machine::run(MachineConfig::new(4).with_transport(t), move |comm| {
                    run(program, comm, 11)
                })
                .results
            };
            let cells = run_on(TransportKind::Cells);
            assert!(cells[0].is_some() && cells[1..].iter().all(Option::is_none));
            assert_eq!(cells, run_on(TransportKind::Sockets), "{program}");
        }
    }

    /// The forest half of the digests CI checks across OS processes,
    /// pinned. The counter half (`messages`, `bytes`, `modeled_bits`)
    /// moves whenever prepare or a solve changes its collectives; the
    /// test above holds it equal across transports instead.
    #[test]
    fn forest_digests_are_pinned() {
        for (program, seed, forest) in [
            (
                "mst",
                7,
                r#""weight":24038,"edges":587,"ehash":2839652703635245627,"#,
            ),
            (
                "filter",
                7,
                r#""weight":20898,"edges":1023,"ehash":10751354732761766118,"base_case_calls":9,"partition_steps":8,"#,
            ),
            (
                "dyn",
                19,
                r#""weight":17584,"edges":255,"ehash":4931455118826034417,"batches":3,"#,
            ),
        ] {
            let cells = MachineConfig::new(4).with_transport(TransportKind::Cells);
            let digest = Machine::run(cells, move |comm| run(program, comm, seed)).results[0]
                .clone()
                .expect("rank 0 renders the digest");
            let pinned = format!("{{\"program\":\"{program}\",{forest}");
            assert!(
                digest.starts_with(&pinned),
                "{digest}\ndoes not start with\n{pinned}"
            );
        }
    }

    #[test]
    fn edge_hash_ignores_direction_and_order() {
        let a = edge_hash(&WEdge::new(3, 9, 5));
        let b = edge_hash(&WEdge::new(9, 3, 5));
        assert_eq!(a, b);
        assert_ne!(a, edge_hash(&WEdge::new(3, 9, 6)));
        let set1 = [WEdge::new(0, 1, 2), WEdge::new(1, 2, 3)];
        let set2 = [WEdge::new(2, 1, 3), WEdge::new(1, 0, 2)];
        let sum = |s: &[WEdge]| s.iter().map(edge_hash).fold(0u64, u64::wrapping_add);
        assert_eq!(sum(&set1), sum(&set2));
    }

    #[test]
    #[should_panic(expected = "unknown launch program")]
    fn unknown_program_panics() {
        Machine::run(MachineConfig::new(1), |comm| run("frobnicate", comm, 0));
    }
}
