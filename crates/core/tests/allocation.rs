//! What a Borůvka round's `RELABEL` and `REDISTRIBUTE` prefilter
//! allocate, counted. On the borrowed path — round 1 on an input graph
//! whose locality gate skipped local contraction — the rewrite waits for
//! the prefilter's walk, so the two stages allocate one edge-sized
//! slice between them: the prefilter's output. Rewriting first would
//! copy the input into a second one.

use kamsta_comm::{Machine, MachineConfig, TransportKind};
use kamsta_core::dist::{
    contract_components, exchange_labels, min_edges, relabel_or_defer, MstConfig,
};
use kamsta_graph::{CEdge, GraphConfig, InputGraph};
use std::alloc::{GlobalAlloc, Layout, System};
use std::borrow::Cow;
use std::cell::Cell;

/// The system allocator, counting the bytes each thread allocates.
struct CountingAlloc;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    let _ = ALLOCATED.try_with(|c| c.set(c.get() + bytes));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes the calling thread has allocated so far.
fn allocated() -> usize {
    ALLOCATED.with(Cell::get)
}

#[test]
fn a_borrowed_round_allocates_one_edge_slice() {
    // GNM at p = 2: 16 edges a vertex, so the round defers its rewrite.
    let gnm = GraphConfig::Gnm {
        n: 1 << 12,
        m: 1 << 16,
    };
    let machine = MachineConfig::new(2)
        .with_threads(1)
        .with_transport(TransportKind::Cells);
    let out = Machine::run(machine, move |comm| {
        let input = InputGraph::generate(comm, gnm, 42);
        let g = &input.graph;
        let sels = min_edges(comm, g);
        let labels = contract_components(comm, g, &sels).labels;
        let table = exchange_labels(comm, g, &labels);
        let before = allocated();
        let staged = relabel_or_defer(
            comm,
            g,
            Cow::Borrowed(&g.edges[..]),
            g.segment_offsets(),
            &labels,
            table,
            &MstConfig::default(),
        );
        let relabel_bytes = allocated() - before;
        let kept = staged.prefilter(comm);
        let stage_bytes = allocated() - before;
        (g.edges.len(), kept.len(), relabel_bytes, stage_bytes)
    });
    for (rank, &(len, kept, relabel_bytes, stage_bytes)) in out.results.iter().enumerate() {
        let slice = len * size_of::<CEdge>();
        // Per-vertex and per-id tables: a few bytes per edge.
        let small = slice / 4;
        assert!(kept > len / 2, "rank {rank}: most edges survive round 1");
        assert!(
            relabel_bytes <= small,
            "rank {rank}: RELABEL allocated {relabel_bytes} bytes, an edge slice is {slice}"
        );
        assert!(
            stage_bytes <= slice + small,
            "rank {rank}: RELABEL + prefilter allocated {stage_bytes} bytes, one edge slice is {slice} (+{small})"
        );
    }
}
