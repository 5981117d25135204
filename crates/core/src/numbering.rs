//! Dense numbers for vertex ids: the numbering a sequential solve's
//! union-find runs on, kept in a table over the id span whenever
//! [`Pulled`](crate::dist::Pulled)'s density rule admits one.

use crate::dist::dense_width;
use kamsta_graph::hash::FxHashMap;
use kamsta_graph::{CEdge, VertexId};

/// Slot of a table id that has no number yet.
const UNNUMBERED: u32 = u32::MAX;

/// Dense `u32` numbers for vertex ids, handed out in first-seen order.
/// The numbers sit in a table indexed by `id − lo` when the density rule
/// ([`DENSE_SPAN_PER_QUERY`](crate::dist::DENSE_SPAN_PER_QUERY) ids of
/// span per vertex) admits one for the id span and the vertex count, and
/// in a hash map otherwise. Which one is decided at construction from
/// those two arguments alone; both hand out the same numbers.
#[derive(Debug)]
pub struct VertexNumbering {
    slots: Slots,
    /// The vertex of each number.
    verts: Vec<VertexId>,
}

#[derive(Debug)]
enum Slots {
    /// `of[id − lo]`; [`UNNUMBERED`] marks the ids not seen yet.
    Table { lo: u64, of: Vec<u32> },
    /// The fallback for sparse id spaces.
    Map(FxHashMap<VertexId, u32>),
}

impl VertexNumbering {
    /// An empty numbering for at most `vertices` ids, all inside the
    /// closed range `span`.
    pub fn new(span: Option<(u64, u64)>, vertices: usize) -> Self {
        let slots = match dense_width(span, vertices) {
            Some((lo, width)) => Slots::Table {
                lo,
                of: vec![UNNUMBERED; width],
            },
            None => Slots::Map(FxHashMap::default()),
        };
        Self {
            slots,
            verts: Vec::new(),
        }
    }

    /// The endpoints of `edges` numbered edge by edge, `u` before `v`,
    /// over their own id span (at most two vertices per edge).
    pub fn of_edges(edges: &[CEdge]) -> Self {
        let span = edges
            .iter()
            .map(|e| (e.u.min(e.v), e.u.max(e.v)))
            .reduce(|a, b| (a.0.min(b.0), a.1.max(b.1)));
        let mut me = Self::new(span, 2 * edges.len());
        for e in edges {
            me.number(e.u);
            me.number(e.v);
        }
        me
    }

    /// The number of `x`, handed out now if `x` has none. `x` must lie in
    /// the span the numbering was made for.
    #[inline]
    pub fn number(&mut self, x: VertexId) -> u32 {
        let next = self.verts.len() as u32;
        let slot = match &mut self.slots {
            Slots::Table { lo, of } => &mut of[(x - *lo) as usize],
            Slots::Map(map) => map.entry(x).or_insert(UNNUMBERED),
        };
        if *slot == UNNUMBERED {
            *slot = next;
            self.verts.push(x);
        }
        *slot
    }

    /// The number of `x`; `None` when `x` has none.
    #[inline]
    pub fn get(&self, x: VertexId) -> Option<u32> {
        match &self.slots {
            Slots::Table { lo, of } => {
                let i = usize::try_from(x.wrapping_sub(*lo)).ok()?;
                of.get(i).copied().filter(|&d| d != UNNUMBERED)
            }
            Slots::Map(map) => map.get(&x).copied(),
        }
    }

    /// The vertex of each number.
    pub fn verts(&self) -> &[VertexId] {
        &self.verts
    }

    /// How many vertices have a number.
    pub fn len(&self) -> usize {
        self.verts.len()
    }

    /// True when no vertex has a number.
    pub fn is_empty(&self) -> bool {
        self.verts.is_empty()
    }

    /// True when the numbers sit in the table over the id span.
    pub fn is_table(&self) -> bool {
        matches!(self.slots, Slots::Table { .. })
    }

    /// A label for every id: `label(d)` for the vertex numbered `d`, the
    /// id itself for every id without a number. On the table path the
    /// labels are laid out per slot, so [`IdLabels::get`] is one load.
    pub fn labels(&self, mut label: impl FnMut(u32) -> VertexId) -> IdLabels<'_> {
        IdLabels(match &self.slots {
            Slots::Table { lo, of } => Labels::Table {
                lo: *lo,
                by_slot: of
                    .iter()
                    .zip(*lo..)
                    .map(|(&d, id)| if d == UNNUMBERED { id } else { label(d) })
                    .collect(),
            },
            Slots::Map(of) => Labels::Map {
                of,
                by_number: (0..self.verts.len() as u32).map(label).collect(),
            },
        })
    }
}

/// The labels of [`VertexNumbering::labels`].
pub struct IdLabels<'a>(Labels<'a>);

enum Labels<'a> {
    Table {
        lo: u64,
        by_slot: Vec<VertexId>,
    },
    Map {
        of: &'a FxHashMap<VertexId, u32>,
        by_number: Vec<VertexId>,
    },
}

impl IdLabels<'_> {
    /// The label of `x`.
    #[inline]
    pub fn get(&self, x: VertexId) -> VertexId {
        match &self.0 {
            Labels::Table { lo, by_slot } => usize::try_from(x.wrapping_sub(*lo))
                .ok()
                .and_then(|i| by_slot.get(i).copied())
                .unwrap_or(x),
            Labels::Map { of, by_number } => of.get(&x).map_or(x, |&d| by_number[d as usize]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::DENSE_SPAN_PER_QUERY;

    #[test]
    fn table_or_map_flips_at_k_ids_per_vertex() {
        let k = DENSE_SPAN_PER_QUERY;
        assert!(VertexNumbering::new(Some((5, 5 + 3 * k - 1)), 3).is_table());
        assert!(!VertexNumbering::new(Some((5, 5 + 3 * k)), 3).is_table());
        assert!(!VertexNumbering::new(None, 1 << 20).is_table());
        // Two vertices per edge: four edges admit a span of 8 K ids.
        let edges =
            |hi: u64| -> Vec<CEdge> { (0..4).map(|i| CEdge::new(i, hi - i, 1, i)).collect() };
        assert!(VertexNumbering::of_edges(&edges(8 * k - 1)).is_table());
        assert!(!VertexNumbering::of_edges(&edges(8 * k)).is_table());
        assert!(!VertexNumbering::of_edges(&[]).is_table());
    }

    #[test]
    fn both_paths_number_and_label_alike() {
        let ids = [40u64, 7, 40, 13, 7, 99, 13, 60];
        let table = VertexNumbering::new(Some((0, 99)), 100);
        let map = VertexNumbering::new(Some((0, u64::MAX)), 100);
        assert!(table.is_table() && !map.is_table());
        let mut seen = Vec::new();
        for mut index in [table, map] {
            let numbers: Vec<u32> = ids.iter().map(|&x| index.number(x)).collect();
            assert_eq!(numbers, [0, 1, 0, 2, 1, 3, 2, 4]);
            assert_eq!(index.verts(), [40, 7, 13, 99, 60]);
            assert_eq!(index.get(8), None);
            assert_eq!(index.get(u64::MAX), None);
            let labels = index.labels(|d| 1000 + d as u64);
            let read: Vec<u64> = [40, 7, 8, 0, 99, 100, u64::MAX]
                .iter()
                .map(|&x| labels.get(x))
                .collect();
            seen.push(read);
        }
        assert_eq!(seen[0], [1000, 1001, 8, 0, 1003, 100, u64::MAX]);
        assert_eq!(seen[0], seen[1]);
    }
}
