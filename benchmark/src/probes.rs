//! Probes: fixed units of work pushed through one layer's public
//! functions, on the workload's own input, machine config and transport.
//! They say what a layer costs when called alone, which the spans of a
//! whole solve cannot (the solve reports only its own phase totals).

use crate::report::Report;
use crate::spec::{RunOpts, Workload, PES};
use crate::stats::median;
use crate::trace::{secs, timed, Trace, Window};
use kamsta::comm::{wire, Comm, FlatBuckets, WireReader};
use kamsta::core::dist::{local_contract, redistribute};
use kamsta::graph::CEdge;
use kamsta::sort::{local_radix_sort, sort_auto_by_key};
use kamsta::{Algorithm, InputGraph, Machine, Runner, WEdge};
use std::hint::black_box;

pub struct Probes {
    pub machine_start_ms: f64,
    barrier_us: f64,
    alltoall_small_us: f64,
    alltoall_bulk_mb_per_s: f64,
    wire_roundtrip_mb_per_s: f64,
    local_radix_mkeys_per_s: f64,
    dist_sort_s: f64,
    local_contract_s: f64,
    redistribute_s: f64,
    runner_wall_s: f64,
}

/// Sizes of the probes; the smoke test shrinks them.
struct Sizes {
    machine_starts: usize,
    /// Batches of collectives, and calls per batch.
    batches: usize,
    calls: usize,
    bulk_bytes: usize,
    samples: usize,
}

/// Per-PE timings of the in-machine probes; collective ones are windows
/// closed by a barrier, so the slowest PE's reading is the op's time.
struct PeProbes {
    barrier: Vec<Window>,
    small: Vec<Window>,
    bulk: Vec<Window>,
    wire: Vec<(Window, usize)>,
    radix: Vec<(Window, usize)>,
    dist_sort: Vec<Window>,
    contract: Vec<Window>,
    redistribute: Vec<Window>,
}

/// `f` between two barriers: the window every PE reports ends when the
/// slowest one is done.
fn collective<R>(comm: &Comm, f: impl FnOnce() -> R) -> Window {
    comm.barrier();
    let (w, _) = timed(|| {
        black_box(f());
        comm.barrier();
    });
    w
}

/// The input's edges with both endpoints sent through one fixed
/// bijection of the id space: the same graph, but unsorted and without
/// locality, which is what `redistribute` and the distributed sort are
/// handed after a contraction round on a poor-locality graph.
fn scattered(comm: &Comm, input: &InputGraph) -> Vec<CEdge> {
    let local_max = input.graph.edges.iter().map(|e| e.u.max(e.v)).max();
    let max_id = comm.allreduce_max(local_max.unwrap_or(0));
    let mask = (max_id + 1).next_power_of_two() - 1;
    // An odd multiplier is a bijection modulo a power of two.
    let send = |v: u64| v.wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask;
    input
        .graph
        .edges
        .iter()
        .map(|e| CEdge::new(send(e.u), send(e.v), e.w, e.id))
        .collect()
}

fn pe_probes(comm: &Comm, w: &Workload, seed: u64, sz: &Sizes) -> PeProbes {
    let p = comm.size();
    let mut out = PeProbes {
        barrier: Vec::new(),
        small: Vec::new(),
        bulk: Vec::new(),
        wire: Vec::new(),
        radix: Vec::new(),
        dist_sort: Vec::new(),
        contract: Vec::new(),
        redistribute: Vec::new(),
    };

    // comm: latency of the two smallest collectives, then bulk rate.
    for _ in 0..sz.batches {
        out.barrier.push(collective(comm, || {
            for _ in 0..sz.calls {
                comm.barrier();
            }
        }));
        out.small.push(collective(comm, || {
            for k in 0..sz.calls {
                let one_each = FlatBuckets::from_counts(vec![k as u64; p], &vec![1; p]);
                black_box(comm.alltoallv_direct(one_each));
            }
        }));
    }
    let words = sz.bulk_bytes / 8;
    for _ in 0..sz.samples {
        let mut counts = vec![words / p; p];
        counts[p - 1] += words % p;
        let payload = FlatBuckets::from_counts((0..words as u64).collect(), &counts);
        out.bulk
            .push(collective(comm, || comm.alltoallv_direct(payload)));
    }

    // comm: the byte lane's codec on this PE's edge slice.
    let edges = w.graph.generate(comm, seed);
    for _ in 0..sz.samples {
        let mut buf = Vec::new();
        let (win, n) = timed(|| {
            wire::write_slice(&mut buf, black_box(&edges));
            let back: Vec<WEdge> =
                wire::read_vec(&mut WireReader::new(&buf)).expect("decoding what was encoded");
            black_box(back).len()
        });
        out.wire.push((win, n * std::mem::size_of::<WEdge>()));
    }

    let input = InputGraph::from_sorted_edges(comm, edges);
    let cfg = w.mst();
    let unsorted = scattered(comm, &input);
    for _ in 0..sz.samples {
        // sort: local radix, then the distributed sort redistribute uses.
        let mut data = unsorted.clone();
        let (win, _) = timed(|| local_radix_sort(comm, black_box(&mut data), CEdge::lex_key));
        out.radix.push((win, data.len()));
        let data = unsorted.clone();
        out.dist_sort.push(collective(comm, || {
            sort_auto_by_key(comm, data, 0xC0FFEE, CEdge::lex_key)
        }));
        // core: the two stages that carry the two kinds of input.
        out.contract.push(collective(comm, || {
            local_contract(comm, &input.graph, &cfg)
        }));
        let data = unsorted.clone();
        out.redistribute
            .push(collective(comm, || redistribute(comm, data, &cfg)));
    }
    out
}

/// Median over samples of the slowest PE's window, in seconds.
fn slowest_median(pes: &[PeProbes], f: impl Fn(&PeProbes) -> &Vec<Window>) -> f64 {
    let samples = f(&pes[0]).len();
    let per_sample: Vec<f64> = (0..samples)
        .map(|k| pes.iter().map(|p| secs(f(p)[k])).fold(0.0, f64::max))
        .collect();
    median(&per_sample)
}

/// Median rate over every PE's samples: units per second.
fn rate_median(pes: &[PeProbes], f: impl Fn(&PeProbes) -> &Vec<(Window, usize)>) -> f64 {
    let rates: Vec<f64> = pes
        .iter()
        .flat_map(|p| f(p).iter().map(|&(w, n)| n as f64 / secs(w)))
        .collect();
    median(&rates)
}

pub fn run(w: &Workload, algo: Algorithm, o: &RunOpts, trace: &mut Trace) -> Probes {
    let sz = if o.smoke {
        Sizes {
            machine_starts: 3,
            batches: 2,
            calls: 10,
            bulk_bytes: 1 << 16,
            samples: 2,
        }
    } else {
        Sizes {
            machine_starts: 30,
            batches: 10,
            calls: 200,
            bulk_bytes: 64 << 20,
            samples: 3,
        }
    };

    let starts: Vec<f64> = (0..sz.machine_starts)
        .map(|k| {
            let (win, out) = timed(|| Machine::try_run(w.machine(), |_| ()));
            out.expect("an empty machine run");
            trace.add("comm.machine_start", None, k, win, None);
            secs(win)
        })
        .collect();

    let (win, out) = timed(|| Machine::run(w.machine(), |comm| pe_probes(comm, w, o.seed, &sz)));
    trace.add("probes.machine_run", None, 0, win, None);
    let pes = out.results;
    let per_call = |f: fn(&PeProbes) -> &Vec<Window>| slowest_median(&pes, f) / sz.calls as f64;

    // runner: the same op through the library's own front door.
    let runner = Runner::new(PES, 1)
        .with_transport(w.transport)
        .with_mst_config(w.mst());
    let runner_walls: Vec<f64> = (0..sz.samples)
        .map(|k| {
            let (win, s) = timed(|| runner.run_generated(w.graph, algo, o.seed));
            black_box(s);
            trace.add("runner.run_generated", None, k, win, None);
            secs(win)
        })
        .collect();

    Probes {
        machine_start_ms: 1e3 * median(&starts),
        barrier_us: 1e6 * per_call(|p| &p.barrier),
        alltoall_small_us: 1e6 * per_call(|p| &p.small),
        alltoall_bulk_mb_per_s: sz.bulk_bytes as f64 / 1e6 / slowest_median(&pes, |p| &p.bulk),
        wire_roundtrip_mb_per_s: rate_median(&pes, |p| &p.wire) / 1e6,
        local_radix_mkeys_per_s: rate_median(&pes, |p| &p.radix) / 1e6,
        dist_sort_s: slowest_median(&pes, |p| &p.dist_sort),
        local_contract_s: slowest_median(&pes, |p| &p.contract),
        redistribute_s: slowest_median(&pes, |p| &p.redistribute),
        runner_wall_s: median(&runner_walls),
    }
}

impl Probes {
    /// `op_wall` is the harness's own wall for the op the runner probe
    /// repeats; the difference is what the runner adds.
    pub fn report(&self, report: &mut Report, op_wall: f64) {
        report.set("comm.machine_start_ms", self.machine_start_ms);
        report.set("comm.barrier_us", self.barrier_us);
        report.set("comm.alltoall_small_us", self.alltoall_small_us);
        report.set("comm.alltoall_bulk_mb_per_s", self.alltoall_bulk_mb_per_s);
        report.set("comm.wire_roundtrip_mb_per_s", self.wire_roundtrip_mb_per_s);
        report.set("sort.local_radix_mkeys_per_s", self.local_radix_mkeys_per_s);
        report.set("sort.dist_sort_s", self.dist_sort_s);
        report.set("core.local_contract_probe_s", self.local_contract_s);
        report.set("core.redistribute_probe_s", self.redistribute_s);
        report.set("runner.overhead_s", self.runner_wall_s - op_wall);
    }
}
