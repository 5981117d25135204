//! # kamsta-graph — distributed weighted graphs
//!
//! The graph substrate of the KaMSTa reproduction: edge types with the
//! paper's lexicographic and unique-weight orders, the 1D-partitioned
//! distributed edge list with its replicated `minlex` locator
//! ([`DistGraph`], Sec. II-B), the prepared input whose slice
//! `REDISTRIBUTE MST` reads MST edges back from ([`InputGraph`],
//! Sec. VI-C), KaGen-style communication-free generators for the six
//! evaluation families ([`gen`], Sec. VII), and DIMACS IO for real-world
//! instances.

pub mod dist;
pub mod edge;
pub mod gen;
pub mod hash;
mod input;
pub mod io;

pub use dist::{home_of_id, id_offsets, DistGraph};
pub use edge::{CEdge, VertexId, WEdge, Weight};
pub use gen::GraphConfig;
pub use input::{InputGraph, PassedSlice};
