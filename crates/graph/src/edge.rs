//! Edge and vertex types (Sec. II-B of the paper).
//!
//! A graph is a lexicographically sorted sequence of *directed* edges
//! `(u, v, w)`; for every edge the back edge `(v, u, w)` is also present.
//! Lexicographic means: by source, then destination, then weight.
//!
//! Distinct edge weights are assumed w.l.o.g. by tie-breaking on vertex
//! labels (Sec. II-C); [`WEdge::weight_key`] realises that total order, and it is
//! direction-symmetric so both copies of an undirected edge agree.

/// Vertex label. The paper uses labels in `1..|V|`; we allow any `u64`.
pub type VertexId = u64;

/// Edge weight. The evaluation draws weights uniformly from `[1, 255)`
/// (Sec. VII), but any `u32` works.
pub type Weight = u32;

/// A directed weighted edge. Derived `Ord` is exactly the paper's
/// lexicographic order (source, destination, weight).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct WEdge {
    pub u: VertexId,
    pub v: VertexId,
    pub w: Weight,
}

impl WEdge {
    pub const fn new(u: VertexId, v: VertexId, w: Weight) -> Self {
        Self { u, v, w }
    }

    /// The reversed (back) edge.
    #[inline]
    pub fn reversed(&self) -> Self {
        Self {
            u: self.v,
            v: self.u,
            w: self.w,
        }
    }

    /// Direction-symmetric unique-weight key: `(w, min(u,v), max(u,v))`.
    /// Comparing edges by this key yields the distinct-weight total order
    /// that makes the MST unique (Sec. II-C); both directions of an
    /// undirected edge map to the same key.
    #[inline]
    pub fn weight_key(&self) -> (Weight, VertexId, VertexId) {
        (self.w, self.u.min(self.v), self.u.max(self.v))
    }

    /// True if this is a self-loop.
    #[inline]
    pub fn is_self_loop(&self) -> bool {
        self.u == self.v
    }

    /// The lexicographic order `(u, v, w)` — exactly this type's `Ord` —
    /// packed into a radix-sortable wide key (endpoints in the high
    /// word, weight in the low).
    #[inline]
    pub fn lex_key(&self) -> (u128, u64) {
        (((self.u as u128) << 64) | self.v as u128, self.w as u64)
    }
}

/// A directed weighted edge carrying the global id of the *original* input
/// edge it descends from. Contraction relabels `u`/`v` while `id` keeps
/// pointing at the input edge, so MST edges can be reported in terms of
/// the original endpoints (Sec. VI-C: "we add an id to every edge prior to
/// the actual MST computation").
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CEdge {
    pub u: VertexId,
    pub v: VertexId,
    pub w: Weight,
    pub id: u64,
}

impl CEdge {
    pub const fn new(u: VertexId, v: VertexId, w: Weight, id: u64) -> Self {
        Self { u, v, w, id }
    }

    pub fn from_wedge(e: WEdge, id: u64) -> Self {
        Self::new(e.u, e.v, e.w, id)
    }

    #[inline]
    pub fn wedge(&self) -> WEdge {
        WEdge::new(self.u, self.v, self.w)
    }

    #[inline]
    pub fn reversed(&self) -> Self {
        Self {
            u: self.v,
            v: self.u,
            w: self.w,
            id: self.id,
        }
    }

    /// See [`WEdge::weight_key`].
    #[inline]
    pub fn weight_key(&self) -> (Weight, VertexId, VertexId) {
        self.wedge().weight_key()
    }

    /// The full lexicographic order `(u, v, w, id)` — exactly this type's
    /// `Ord` — packed into a radix-sortable wide key. Always packable:
    /// `u`/`v` fill the high word, `w`/`id` the low word.
    #[inline]
    pub fn lex_key(&self) -> (u128, u128) {
        (
            ((self.u as u128) << 64) | self.v as u128,
            ((self.w as u128) << 64) | self.id as u128,
        )
    }

    /// The ordered endpoint pair `(u, v)` — the high word of
    /// [`lex_key`](Self::lex_key) — as a radix key: equal keys are
    /// parallel edges, and ascending keys are the `(u, v)`-major order of
    /// the distributed edge list.
    #[inline]
    pub fn pair_key(&self) -> u128 {
        ((self.u as u128) << 64) | self.v as u128
    }

    #[inline]
    pub fn is_self_loop(&self) -> bool {
        self.u == self.v
    }
}

/// Wire formats (transport boundary): edges are Pod-like, so they cross
/// the byte transport as fixed-width little-endian field walks — `WEdge`
/// as `u, v, w` (20 bytes), `CEdge` as `u, v, w, id` (28 bytes).
impl kamsta_comm::Wire for WEdge {
    fn wire_write(&self, out: &mut Vec<u8>) {
        self.u.wire_write(out);
        self.v.wire_write(out);
        self.w.wire_write(out);
    }
    fn wire_read(r: &mut kamsta_comm::WireReader<'_>) -> Result<Self, kamsta_comm::WireError> {
        Ok(Self {
            u: VertexId::wire_read(r)?,
            v: VertexId::wire_read(r)?,
            w: Weight::wire_read(r)?,
        })
    }
    #[inline]
    fn wire_min_size() -> usize {
        20
    }
}

impl kamsta_comm::Wire for CEdge {
    fn wire_write(&self, out: &mut Vec<u8>) {
        self.u.wire_write(out);
        self.v.wire_write(out);
        self.w.wire_write(out);
        self.id.wire_write(out);
    }
    fn wire_read(r: &mut kamsta_comm::WireReader<'_>) -> Result<Self, kamsta_comm::WireError> {
        Ok(Self {
            u: VertexId::wire_read(r)?,
            v: VertexId::wire_read(r)?,
            w: Weight::wire_read(r)?,
            id: u64::wire_read(r)?,
        })
    }
    #[inline]
    fn wire_min_size() -> usize {
        28
    }
}

impl PartialOrd for CEdge {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for CEdge {
    /// Lexicographic by `(u, v, w)`, with `id` as the final tie-breaker so
    /// sorting stays total and deterministic.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.u, self.v, self.w, self.id).cmp(&(other.u, other.v, other.w, other.id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexicographic_order_is_src_dst_weight() {
        let mut edges = vec![
            WEdge::new(2, 1, 5),
            WEdge::new(1, 3, 1),
            WEdge::new(1, 2, 9),
            WEdge::new(1, 2, 3),
        ];
        edges.sort();
        assert_eq!(
            edges,
            vec![
                WEdge::new(1, 2, 3),
                WEdge::new(1, 2, 9),
                WEdge::new(1, 3, 1),
                WEdge::new(2, 1, 5),
            ]
        );
    }

    #[test]
    fn weight_key_is_direction_symmetric() {
        let e = WEdge::new(7, 3, 10);
        assert_eq!(e.weight_key(), e.reversed().weight_key());
        let c = CEdge::new(7, 3, 10, 99);
        assert_eq!(c.weight_key(), c.reversed().weight_key());
    }

    #[test]
    fn weight_key_breaks_ties_consistently() {
        // Same weight, different endpoints: order decided by labels.
        let a = WEdge::new(1, 2, 5);
        let b = WEdge::new(1, 3, 5);
        assert!(a.weight_key() < b.weight_key());
        assert!(a.reversed().weight_key() < b.weight_key());
    }

    #[test]
    fn self_loop_detection() {
        assert!(WEdge::new(4, 4, 1).is_self_loop());
        assert!(!WEdge::new(4, 5, 1).is_self_loop());
    }

    #[test]
    fn cedge_orders_by_lex_then_id() {
        let a = CEdge::new(1, 2, 3, 0);
        let b = CEdge::new(1, 2, 3, 1);
        assert!(a < b);
        assert!(CEdge::new(0, 9, 9, 9) < a);
    }

    #[test]
    fn lex_key_realises_cedge_ord() {
        let edges = [
            CEdge::new(1, 2, 3, 0),
            CEdge::new(1, 2, 3, 1),
            CEdge::new(0, 9, 9, 9),
            CEdge::new(u64::MAX, 0, 7, 2),
            CEdge::new(1, 3, 0, u64::MAX),
        ];
        for a in &edges {
            for b in &edges {
                assert_eq!(a.lex_key().cmp(&b.lex_key()), a.cmp(b), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn lex_key_realises_wedge_ord() {
        let edges = [
            WEdge::new(1, 2, 3),
            WEdge::new(1, 2, 4),
            WEdge::new(0, 9, 9),
            WEdge::new(u64::MAX, 0, 7),
            WEdge::new(1, 3, 0),
            WEdge::new(1, 3, u32::MAX),
        ];
        for a in &edges {
            for b in &edges {
                assert_eq!(a.lex_key().cmp(&b.lex_key()), a.cmp(b), "{a:?} vs {b:?}");
            }
        }
    }
}
