//! # kamsta — Engineering Massively Parallel MST Algorithms
//!
//! A complete Rust reproduction of Sanders & Schimek, *Engineering
//! Massively Parallel MST Algorithms* (IPDPS 2023): the scalable
//! distributed Borůvka algorithm, the Filter-Borůvka algorithm, the
//! communication substrate, the graph generators, and the competitor
//! baselines of the paper's evaluation — all running on a simulated
//! distributed-memory machine with an α-β-γ cost model (see `DESIGN.md`).
//!
//! ## Quick start
//!
//! ```
//! use kamsta::{Algorithm, GraphConfig, Runner};
//!
//! // A 4-PE machine computing the MST of a 32×32 grid graph.
//! let runner = Runner::new(4, 1);
//! let summary = runner.run_generated(
//!     GraphConfig::Grid2D { rows: 32, cols: 32 },
//!     Algorithm::Boruvka,
//!     42,
//! );
//! assert_eq!(summary.msf_edges, 32 * 32 - 1); // spanning tree
//! assert!(summary.modeled_time > 0.0);
//! ```
//!
//! The crates compose as follows:
//!
//! | crate | contents |
//! |---|---|
//! | [`comm`] | SPMD runtime, collectives, two-level all-to-all, cost model |
//! | [`sort`] | hypercube quicksort + AMS-style sample sort |
//! | [`graph`] | distributed edge lists, prepared inputs, generators, IO |
//! | [`core`] | distributed Borůvka + Filter-Borůvka, references, verifier |
//! | [`dynamic`] | batch-dynamic MSF maintenance (certificate re-solves) |
//! | [`baselines`] | sparseMatrix and MND-MST competitor analogues |
//!
//! On top, [`MstService`] serves forest queries over a mutating edge
//! set: updates queue, apply in batches through [`DynMst`], and queries
//! answer from the cached sharded state.

pub use kamsta_baselines as baselines;
pub use kamsta_comm as comm;
pub use kamsta_core as core;
pub use kamsta_dyn as dynamic;
pub use kamsta_graph as graph;
pub use kamsta_sort as sort;

pub mod cli;
pub mod launchprog;
mod runner;
mod service;

pub use kamsta_comm::{
    AlltoallKind, CostModel, FaultPlan, LethalFault, LethalKind, Machine, MachineConfig,
    MachineError, TransportError, TransportKind,
};
pub use kamsta_core::dist::{DedupStrategy, MstConfig};
pub use kamsta_core::{verify_msf, Phase, PhaseTimes, WallStats};
pub use kamsta_dyn::{DynConfig, DynMst, Update, UpdateStats};
pub use kamsta_graph::{GraphConfig, InputGraph, WEdge};
pub use runner::{Algorithm, RunSummary, Runner};
pub use service::{MstService, MstServiceBuilder, ServiceError};

/// Convenience: single-node minimum spanning forest of an edge list
/// (undirected or symmetric directed), via the shared-memory parallel
/// Borůvka. Each MSF edge is reported once.
///
/// ```
/// use kamsta::{minimum_spanning_forest, WEdge};
/// let edges = vec![
///     WEdge::new(0, 1, 4),
///     WEdge::new(1, 2, 1),
///     WEdge::new(0, 2, 2),
/// ];
/// let msf = minimum_spanning_forest(&edges);
/// assert_eq!(msf.iter().map(|e| e.w as u64).sum::<u64>(), 3);
/// ```
pub fn minimum_spanning_forest(edges: &[WEdge]) -> Vec<WEdge> {
    kamsta_core::shared::par_boruvka(edges)
}
