//! # kamsta-core — massively parallel MST algorithms
//!
//! The paper's primary contribution (Sanders & Schimek, IPDPS 2023):
//!
//! * [`dist::boruvka_mst`] — the scalable distributed Borůvka algorithm
//!   (Algorithm 1): local preprocessing, minimum-edge selection, pointer-
//!   doubling component contraction with shared-vertex handling, ghost
//!   label exchange, relabel/redistribute, and the replicated-vertex base
//!   case; `dist` re-exports its stages from private modules (`round`,
//!   `redistribute`, `local`, `pull`, `prefilter`).
//! * [`dist::filter_mst`] — the Filter-Borůvka algorithm (Algorithm 2):
//!   quicksort-style weight partitioning with distributed filtering
//!   through a block-distributed representative array, down to subgraphs
//!   sparse enough for the rounds of Algorithm 1.
//! * [`seq`] — the sequential Kruskal / union-find reference.
//! * [`shared`] — rayon shared-memory Borůvka with min-priority-write
//!   (the hybrid-threading kernels and the Sec. VII-C stand-in).
//! * [`verify_msf`] — MSF verification against the Kruskal reference.
//! * [`instrument`] — the Fig. 6 phase taxonomy.

pub mod dist;
mod dist_array;
mod filter;
pub mod instrument;
mod local;
mod prefilter;
mod pull;
mod redistribute;
mod round;
pub mod seq;
pub mod shared;
mod verify;

pub use instrument::{Phase, PhaseTimes, Phased, WallStats};
pub use verify::verify_msf;
