//! # kamsta-comm — simulated distributed-memory SPMD runtime
//!
//! This crate is the substrate underneath the distributed MST algorithms of
//! Sanders & Schimek, *Engineering Massively Parallel MST Algorithms*
//! (IPDPS 2023). The paper's algorithms are bulk-synchronous MPI programs;
//! here each *processing element* (PE) is an OS thread executing the same
//! rank program against a [`Comm`] handle that provides the MPI-style
//! collective operations the paper relies on:
//!
//! * [`Comm::barrier`], [`Comm::broadcast`], [`Comm::gather`],
//!   [`Comm::allgather`], [`Comm::allgatherv`]
//! * [`Comm::reduce`], [`Comm::allreduce`]
//! * [`Comm::exscan`] (exclusive prefix sums)
//! * personalized all-to-all in three flavours: direct
//!   ([`Comm::alltoallv_direct`]), **two-level grid**
//!   ([`Comm::alltoallv_grid`], Sec. VI-A of the paper) and the
//!   threshold-based automatic selection between the two
//!   ([`Comm::sparse_alltoallv`]) — all on the flat zero-copy
//!   buffer representation ([`FlatBuckets`]: one contiguous payload plus
//!   a displacement array, the MPI `sdispls`/`rdispls` layout)
//! * paired point-to-point rounds ([`Comm::exchange`]), from which
//!   hypercube algorithms address their partners and subcubes by rank
//!
//! A machine has one communicator: there are no sub-communicators.
//!
//! ## Synchronization substrate
//!
//! Collectives run on a low-latency substrate (see `DESIGN.md` §6): an
//! O(log p) *dissemination barrier* whose rounds carry the BSP clock
//! max-reduction, and typed, epoch-stamped *exchange cells* (one
//! cache-padded cell array per payload type) that make every collective a
//! **single superstep** — publish, one barrier, read peers' cells in
//! place. There is no central counter, no per-value heap boxing, no mutex
//! on the hot path, and no second barrier; single-PE communicators skip
//! synchronisation entirely.
//!
//! ## Transport boundary
//!
//! Every collective is written once against an internal transport
//! boundary (`DESIGN.md` §8) with two implementations, selected per
//! machine via [`MachineConfig::with_transport`] or
//! `KAMSTA_TRANSPORT={cells,sockets}`:
//!
//! * [`TransportKind::Cells`] (default) — the zero-copy exchange-cell
//!   blackboard above, the in-process reference;
//! * [`TransportKind::Sockets`] — the byte lane: [`Wire`]-encoded
//!   frames (fixed-width little-endian Pod fields, varint counts) on
//!   per-PE-pair TCP streams, between threads ([`Machine::try_run`]
//!   binds a loopback mesh) or OS processes
//!   ([`Machine::try_run_worker`] + the `kamsta_launch` binary).
//!
//! On the lane, barriers are frames too and failures are typed
//! [`TransportError`]s bounded by the configured io timeout, never
//! hangs.
//!
//! Payloads crossing collectives therefore implement [`Wire`]. Modeled
//! α-β-γ charges sit above the boundary and count `size_of`-based
//! logical bytes, so cost counters are bit-for-bit identical under both
//! backends — the determinism suites double as cross-transport oracles.
//!
//! ## Cost model
//!
//! Because the paper's evaluation ran on up to 2^16 cores of SuperMUC-NG,
//! which we do not have, every collective additionally charges a modeled
//! **α-β-γ cost** onto a per-PE clock ([`Clock`]): `α` per message startup,
//! `β` per byte of the PE's bottleneck communication volume and `γ` per unit
//! of local work ([`Comm::charge_local`]). Clocks are max-synchronised at
//! every barrier, giving BSP semantics: the modeled time of a run is the
//! bottleneck PE's accumulated time. Benchmarks report this modeled time
//! alongside real wall time; see `DESIGN.md` (substitution S2).
//!
//! ## Example
//!
//! ```
//! use kamsta_comm::{Machine, MachineConfig};
//!
//! let cfg = MachineConfig::new(4);
//! let out = Machine::run(cfg, |comm| {
//!     let rank = comm.rank() as u64;
//!     comm.allreduce(rank, |a, b| a + b)
//! });
//! assert_eq!(out.results, vec![6, 6, 6, 6]);
//! ```

mod alltoall;
mod barrier;
mod cells;
mod comm;
mod cost;
pub mod fault;
mod flat;
mod lane;
mod machine;
mod mesh;
mod pipe;
mod rendezvous;
mod transport;
pub mod wire;

pub use alltoall::{route, AlltoallKind, GridTopology};
pub use comm::Comm;
pub use cost::{Clock, CostModel, PeStats};
pub use fault::{FaultPlan, FaultyTransport, LethalFault, LethalKind};
pub use flat::{FlatBuckets, FlatBuilder};
pub use machine::{
    Machine, MachineConfig, MachineError, ResolvedConfig, RunOutput, SocketSetup, WorkerRun,
};
pub use rendezvous::serve_rendezvous;
pub use transport::{TransportError, TransportKind};
pub use wire::{Wire, WireError, WireReader};

/// Bytes occupied by `n` elements of type `T` — the unit used for β-cost
/// accounting throughout the workspace.
#[inline]
pub fn bytes_for<T>(n: usize) -> u64 {
    (n * std::mem::size_of::<T>()) as u64
}

/// Integer ceiling of log2; `ceil_log2(1) == 0`.
#[inline]
pub fn ceil_log2(x: usize) -> u32 {
    debug_assert!(x > 0);
    usize::BITS - (x - 1).leading_zeros()
}

/// Largest power of two `<= x` (x > 0).
#[inline]
pub fn floor_pow2(x: usize) -> usize {
    debug_assert!(x > 0);
    1 << (usize::BITS - 1 - x.leading_zeros())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_helpers() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(1024), 10);
        assert_eq!(floor_pow2(1), 1);
        assert_eq!(floor_pow2(2), 2);
        assert_eq!(floor_pow2(3), 2);
        assert_eq!(floor_pow2(4), 4);
        assert_eq!(floor_pow2(1023), 512);
    }
}
