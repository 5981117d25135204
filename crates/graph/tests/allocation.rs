//! What the prepare pass allocates, counted. `InputGraph::pass` re-types
//! the generated `Vec<WEdge>` in place as the prepared `Vec<CEdge>`, so
//! no request on its way comes near a second edge slice: the widening's
//! `realloc` grows the block by at most a third, and the index tables
//! cost a few bytes per edge.

use kamsta_comm::{Machine, MachineConfig, TransportKind};
use kamsta_graph::{CEdge, GraphConfig, InputGraph};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, recording the largest block each thread asks
/// for; a `realloc` asks only for its growth.
struct CountingAlloc;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn request(bytes: usize) {
    let _ = LARGEST.try_with(|c| c.set(c.get().max(bytes)));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        request(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        request(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        request(new_size.saturating_sub(layout.size()));
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The largest request of the calling thread since the last call.
fn take_largest() -> usize {
    LARGEST.with(|c| c.replace(0))
}

#[test]
fn the_pass_requests_no_second_edge_slice() {
    let rgg = GraphConfig::Rgg2D {
        n: 1 << 12,
        m: 1 << 16,
    };
    let machine = MachineConfig::new(2)
        .with_threads(1)
        .with_transport(TransportKind::Cells);
    let out = Machine::run(machine, move |comm| {
        // The generator's own `Vec`, then a copy with no spare capacity,
        // whose widening has to grow the block.
        let generated = rgg.generate(comm, 42);
        let exact = generated.to_vec();
        let len = generated.len();
        let largest = [generated, exact].map(|edges| {
            take_largest();
            drop(InputGraph::pass(comm, edges));
            take_largest()
        });
        (len, largest)
    });
    for (rank, &(len, largest)) in out.results.iter().enumerate() {
        let slice = len * size_of::<CEdge>();
        assert!(len > 10_000, "rank {rank}: {len} edges");
        for (input, bytes) in ["generated", "exact-capacity"].iter().zip(largest) {
            assert!(
                bytes < slice,
                "rank {rank}, {input} input: the pass requested a {bytes}-byte block, \
                 a CEdge slice is {slice}"
            );
        }
    }
}
