//! # kamsta-dyn — batch-dynamic MSF maintenance
//!
//! Every other entry point of this workspace recomputes the MSF from
//! scratch. This crate keeps one *alive*: [`DynMst`] holds the current
//! graph and its minimum spanning forest sharded over the PEs by vertex
//! home (the same `block_of` block sharding the generators use), accepts
//! batches of edge insertions and deletions, and re-solves only a
//! **certificate graph** instead of the full input. The distributed
//! Borůvka pipeline solves the initial graph once; each batch's
//! certificate is replicated and solved by one local Kruskal on every PE
//! (the paper's Sec. IV-D base case: a small remaining graph is solved
//! sequentially rather than by more collective rounds).
//!
//! The certificate exploits the paper's own sparsification insight: an
//! MSF has at most `n − 1` edges, so under the unique-weight total order
//! `(w, min(u,v), max(u,v))` the identity
//!
//! ```text
//! MSF(G ∪ I) = MSF(MSF(G) ∪ I)
//! ```
//!
//! makes `MSF ∪ batch` an exact certificate for insert-only batches.
//! Deletions that miss the forest are free. Deletions that hit forest
//! edges split it into components `T'`; the replacement edges then come
//! from a *local* scan of each PE's store shard: contracting the
//! components of `T'`, the new forest can only use, per component pair,
//! the lightest surviving crossing edge (cycle property), so the
//! certificate `T' ∪ batch-inserts ∪ per-pair-lightest-candidates` holds
//! at most `n − 1` forest edges plus the batch's share while remaining
//! exact — the `maintainer` module documents the proof obligations on
//! each piece.
//!
//! Updates route to their home PE with count-then-scatter
//! [`kamsta_comm::FlatBuckets`]; shard lookups binary-search the
//! radix-sorted [`kamsta_graph::CEdge::lex_key`] order; and a small
//! [`UpdateStats`] mirror of the Filter-Borůvka statistics records
//! certificate sizes and re-solve rounds. [`workload`] provides the
//! deterministic random update streams the differential tests and the
//! `dyn_throughput` benchmark share.

mod maintainer;
pub mod workload;

pub use maintainer::{
    home_of_pair, vertex_bound, BatchOutcome, DynConfig, DynMst, DynReplicated, DynShard, Update,
    UpdateStats,
};
pub use workload::WorkloadGen;
