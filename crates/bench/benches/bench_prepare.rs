//! Micro-bench below the end-to-end benchmark's set-up, `graph.generate_s`
//! and `graph.prepare_s`: generating the input, then
//! `InputGraph::from_sorted_edges` by part — the one pass
//! (`InputGraph::pass`: id space, boundary allgathers, the widening of
//! the slice in place into `CEdge`s, the pass over it, the closing
//! collectives), then the push of forward twins to later PEs and its
//! apply (`PassedSlice::exchange`) — at p = 2, on the benchmark's two
//! input shapes (GNM 2^16 / 2^20, RGG-2D 2^18 / 2^22), a small GNM, a
//! small RGG, and a tree-shaped input (a spanning tree on 2^15 vertices,
//! ≈ 2 n directed edges). EXPERIMENTS.md records the table ("Set-up in
//! place").
//!
//! Every part is timed from inside one machine run per input, every PE
//! in lockstep ([`kamsta_bench::lockstep`]), so a part costs what its
//! slowest PE took. The `whole` column is `from_sorted_edges` itself on
//! the same edges — what the two parts should add up to. The two
//! columns do not widen the same block: the parts run on a clone, whose
//! capacity is its length, so `pass` times the widening's growing
//! `realloc`; `whole` runs on the generator's own `Vec`, with the spare
//! capacity the generator reserved.

use kamsta_bench::{lockstep, median_of_slowest, ms_cell, Table, BENCH_PES, SAMPLES};
use kamsta_comm::{Comm, Machine, MachineConfig};
use kamsta_graph::hash::mix64;
use kamsta_graph::{GraphConfig, InputGraph, WEdge};
use std::hint::black_box;
use std::time::Instant;

const STEPS: [&str; 4] = ["generate", "pass", "exchange + apply", "whole"];

#[derive(Clone, Copy)]
enum Input {
    Family(GraphConfig),
    /// A random spanning tree on `n` vertices, both directions.
    Tree {
        n: u64,
    },
}

impl Input {
    fn slice(self, comm: &Comm) -> Vec<WEdge> {
        match self {
            Input::Family(config) => config.generate(comm, 42),
            Input::Tree { n } => {
                let (p, rank) = (comm.size() as u64, comm.rank() as u64);
                let tree: Vec<WEdge> = (rank * n / p..(rank + 1) * n / p)
                    .filter(|&v| v > 0)
                    .flat_map(|v| {
                        let (parent, w) = (mix64(v) % v, (mix64(!v) % 255) as u32 + 1);
                        [WEdge::new(v, parent, w), WEdge::new(parent, v, w)]
                    })
                    .collect();
                let sorted = kamsta_sort::sort_auto_by_key(comm, tree, 7, WEdge::lex_key);
                kamsta_sort::rebalance(comm, sorted)
            }
        }
    }
}

/// This PE's slice length and the milliseconds of each step of one
/// generation and preparation of `input` on this PE, in the order of
/// [`STEPS`]; the steps after `generate` are `from_sorted_edges`' body.
/// The caller starts it behind a barrier.
fn time_steps(comm: &Comm, input: Input) -> (usize, [f64; 4]) {
    let mut last = Instant::now();
    let mut lap = || {
        let since = std::mem::replace(&mut last, Instant::now());
        (last - since).as_secs_f64() * 1e3
    };
    let edges = input.slice(comm);
    let generate = lap();
    let (stepwise, whole) = (edges.clone(), edges);
    comm.barrier();
    lap();
    let passed = InputGraph::pass(comm, stepwise);
    let pass = lap();
    let prepared = passed.exchange(comm);
    let exchange = lap();
    drop(black_box(prepared));
    let len = whole.len();
    comm.barrier();
    lap();
    black_box(InputGraph::from_sorted_edges(comm, whole));
    (len, [generate, pass, exchange, lap()])
}

fn main() {
    println!(
        "bench_prepare: generate, then from_sorted_edges by step, p = {BENCH_PES}, ms, \
         median of {SAMPLES} (slowest PE)"
    );
    let mut headers = vec!["input", "edges"];
    headers.extend(STEPS);
    let mut table = Table::new(&headers);
    let gnm = |n, m| Input::Family(GraphConfig::Gnm { n, m });
    let rgg = |n, m| Input::Family(GraphConfig::Rgg2D { n, m });
    for (name, input) in [
        ("GNM 2^12 / 2^16", gnm(1 << 12, 1 << 16)),
        ("GNM 2^16 / 2^20", gnm(1 << 16, 1 << 20)),
        ("RGG-2D 2^14 / 2^18", rgg(1 << 14, 1 << 18)),
        ("RGG-2D 2^18 / 2^22", rgg(1 << 18, 1 << 22)),
        ("tree 2^15", Input::Tree { n: 1 << 15 }),
    ] {
        let per_pe = Machine::run(MachineConfig::new(BENCH_PES), move |comm| {
            lockstep(comm, || (), |()| time_steps(comm, input))
        })
        .results;
        let edges: usize = per_pe.iter().map(|runs| runs[0].0).sum();
        let mut row = vec![name.to_string(), edges.to_string()];
        for step in 0..STEPS.len() {
            let times: Vec<Vec<f64>> = per_pe
                .iter()
                .map(|runs| runs.iter().map(|r| r.1[step]).collect())
                .collect();
            row.push(ms_cell(median_of_slowest(&times)));
        }
        table.row(row);
    }
    table.print();
}
