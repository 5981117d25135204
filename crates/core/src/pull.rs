//! Pull-based label and parent lookup, and the density rule's container,
//! [`IdTable`], which also numbers a sequential solve's vertices
//! ([`VertexNumbering`]).

use kamsta_comm::{Comm, FlatBuckets};
use kamsta_graph::hash::FxHashMap;
use kamsta_graph::{CEdge, DistGraph, VertexId};

/// Slot of a dense [`Pulled`] table whose id nobody asked for.
/// `VertexId::MAX` is reserved: no vertex, label or array entry has it.
pub(crate) const NOT_ASKED: u64 = u64::MAX;

/// The density rule's constant `K`: lookups are served from a table over
/// the whole id span when the span is at most `K` = 8 ids wide per
/// lookup. Read off `bench_pull`'s crossover (EXPERIMENTS.md); it also
/// bounds the table at 64 bytes per lookup (per edge, for a round's).
pub const DENSE_SPAN_PER_QUERY: u64 = 8;

/// A slot type of an [`IdTable`], with the value that marks an empty slot.
pub(crate) trait Slot: Copy + PartialEq {
    const EMPTY: Self;
}

impl Slot for u64 {
    const EMPTY: u64 = NOT_ASKED;
}

impl Slot for u32 {
    const EMPTY: u32 = u32::MAX;
}

/// Values by id: a table indexed by `id − lo` when the id span is dense
/// for the lookups the values serve, a hash map when it is not. Which one
/// is decided at construction, from the width of the span and the number
/// of lookups alone ([`dense_width`]).
#[derive(Clone, Debug)]
pub(crate) enum IdTable<V> {
    /// `slots[id − lo]`; [`Slot::EMPTY`] marks the ids without a value.
    Dense { lo: u64, slots: Vec<V> },
    /// The fallback for sparse id spaces (component labels at large p,
    /// 48-bit ids).
    Sparse(FxHashMap<u64, V>),
}

impl<V: Slot> IdTable<V> {
    /// An empty table for `lookups` reads of ids inside the closed range
    /// `span`, by the density rule.
    pub(crate) fn new(span: Option<(u64, u64)>, lookups: usize) -> Self {
        match dense_width(span, lookups) {
            Some((lo, width)) => Self::Dense {
                lo,
                slots: vec![V::EMPTY; width],
            },
            None => Self::Sparse(FxHashMap::default()),
        }
    }

    /// The value of `id`; `None` when it has none.
    #[inline]
    pub(crate) fn get(&self, id: u64) -> Option<V> {
        match self {
            Self::Dense { lo, slots } => dense_get(*lo, slots, id),
            Self::Sparse(map) => map.get(&id).copied(),
        }
    }

    /// The slot of `id`, empty while it has no value. On a dense table
    /// `id` must lie in the span.
    #[inline]
    pub(crate) fn slot(&mut self, id: u64) -> &mut V {
        match self {
            Self::Dense { lo, slots } => &mut slots[(id - *lo) as usize],
            Self::Sparse(map) => map.entry(id).or_insert(V::EMPTY),
        }
    }

    /// True when the values sit in the table over the id span.
    pub(crate) fn is_dense(&self) -> bool {
        matches!(self, Self::Dense { .. })
    }
}

/// The answers of one pull, by queried id, in an `IdTable`; readers see
/// [`Pulled::get`] (a round's label walk reads its slots in place).
#[derive(Clone, Debug)]
pub struct Pulled(pub(crate) IdTable<u64>);

impl Pulled {
    /// The answer for `id`; `None` when `id` was not among the queries.
    #[inline]
    pub fn get(&self, id: u64) -> Option<u64> {
        self.0.get(id)
    }

    /// True when the answers sit in the table over the id span.
    pub fn is_dense(&self) -> bool {
        self.0.is_dense()
    }
}

/// `slots[id − lo]` unless the id is outside the table or its slot empty.
#[inline]
pub(crate) fn dense_get<V: Slot>(lo: u64, slots: &[V], id: u64) -> Option<V> {
    let i = usize::try_from(id.wrapping_sub(lo)).ok()?;
    slots.get(i).copied().filter(|&x| x != V::EMPTY)
}

/// The density rule: `Some((lo, width))` when a table over `span` pays
/// for `queries` lookups — the span is known and at most
/// [`DENSE_SPAN_PER_QUERY`] ids wide per lookup. It reads nothing but its
/// two arguments, so there is nothing to configure.
pub(crate) fn dense_width(span: Option<(u64, u64)>, queries: usize) -> Option<(u64, usize)> {
    let (lo, hi) = span?;
    let limit = DENSE_SPAN_PER_QUERY.saturating_mul(queries as u64);
    // `hi − lo + 1 ≤ limit` without the overflow at a full-range span.
    (hi.checked_sub(lo)? < limit).then(|| (lo, (hi - lo) as usize + 1))
}

/// Pull-protocol lookup: resolve `queries` at the *home PE* of each
/// queried vertex with that PE's `resolve` function; the answers come
/// back as a [`Pulled`] over the graph's id span. Collective.
///
/// Pull rather than push: the edge_cases regression showed that routing
/// answers by home-of-reverse-edge misses duplicate holders; serving
/// explicit requests delivers to every PE that asks.
pub(crate) fn pull<F>(comm: &Comm, g: &DistGraph, queries: Vec<VertexId>, resolve: F) -> Pulled
where
    F: Fn(VertexId) -> VertexId,
{
    let table = dense_width(g.id_span(), queries.len());
    pull_values(comm, queries, table, |q| g.home_of_vertex(q), resolve)
}

/// Resolve the queried ids (duplicates welcome) with [`pull_sorted`] and
/// return the answers as a [`Pulled`]. `table` is what [`dense_width`]
/// made of the caller's id span — a closed range known to hold every id
/// that can be asked for, replicated state, never communicated here —
/// and the query count: the `(lo, width)` of the dense table to fill, or
/// `None` for the fallback. Collective.
///
/// Dense: the distinct ascending request list is read off a bitmap
/// ([`distinct_in_span`]) and the answers are scattered into the table;
/// an id outside the table sends the call down the fallback instead.
/// Fallback: radix sort, dedup, hash the answers. Both hand
/// [`pull_sorted`] the same list, so requests, replies and every modeled
/// counter are the same either way — which also lets each PE choose on
/// its own.
pub(crate) fn pull_values(
    comm: &Comm,
    mut ids: Vec<u64>,
    table: Option<(u64, usize)>,
    home_of: impl Fn(u64) -> usize,
    resolve: impl Fn(u64) -> u64,
) -> Pulled {
    if let Some((lo, width)) = table {
        if let Some(distinct) = distinct_in_span(&ids, lo, width) {
            let values = pull_sorted(comm, &distinct, home_of, resolve);
            let mut slots = vec![NOT_ASKED; width];
            for (id, value) in distinct.into_iter().zip(values) {
                slots[(id - lo) as usize] = value;
            }
            return Pulled(IdTable::Dense { lo, slots });
        }
    }
    kamsta_sort::radix_sort_keys(&mut ids);
    ids.dedup();
    let values = pull_sorted(comm, &ids, home_of, resolve);
    Pulled(IdTable::Sparse(ids.into_iter().zip(values).collect()))
}

/// The distinct ids of `ids`, ascending — what sort + dedup produces —
/// by marking a bitmap over `[lo, lo + width)` and enumerating its set
/// bits. `None` when an id lies outside that range.
fn distinct_in_span(ids: &[u64], lo: u64, width: usize) -> Option<Vec<u64>> {
    let mut bits = vec![0u64; width.div_ceil(64)];
    for &id in ids {
        let off = usize::try_from(id.wrapping_sub(lo)).ok()?;
        if off >= width {
            return None;
        }
        bits[off / 64] |= 1 << (off % 64);
    }
    let count: u32 = bits.iter().map(|w| w.count_ones()).sum();
    let mut distinct = Vec::with_capacity(count as usize);
    for (k, &word) in bits.iter().enumerate() {
        let mut word = word;
        while word != 0 {
            distinct.push(lo + (k * 64) as u64 + u64::from(word.trailing_zeros()));
            word &= word - 1;
        }
    }
    Some(distinct)
}

/// The count-only request/reply exchange behind every pull: `ids` is
/// ascending and distinct and the home PE is monotone in the id, so the
/// list is already grouped by destination — both directions of the
/// exchange are flat buffers built from a count array alone, no scatter
/// pass and no per-item source tag. The reply carries *values only*
/// ([`Comm::request_reply`]): it rides back in the request's bucket, so
/// `result[k]` answers `ids[k]` — half the reply volume of a key-value
/// exchange, and callers that hold the ids in an array of their own
/// (the local-vertex list) never build a table. Collective.
pub(crate) fn pull_sorted(
    comm: &Comm,
    ids: &[u64],
    home_of: impl Fn(u64) -> usize,
    resolve: impl Fn(u64) -> u64,
) -> Vec<u64> {
    debug_assert!(ids.windows(2).all(|w| w[0] < w[1]));
    comm.charge_local(ids.len() as u64);
    let mut counts = vec![0usize; comm.size()];
    for &id in ids {
        counts[home_of(id)] += 1;
    }
    let requests = FlatBuckets::from_counts(ids.to_vec(), &counts);
    comm.request_reply(requests, |&id| resolve(id))
}

/// The value a per-local-vertex array holds for `x` on this PE, or `x`
/// itself when `x` is no source here — what a home PE answers to a pull.
#[inline]
pub(crate) fn local_or_self(g: &DistGraph, per_vertex: &[VertexId], x: VertexId) -> VertexId {
    g.local_index(x).map_or(x, |i| per_vertex[i])
}

/// Dense `u32` numbers for vertex ids, handed out in first-seen order —
/// the numbering a sequential solve's union-find runs on. The numbers sit
/// in an `IdTable` for the id span and the vertex count
/// ([`DENSE_SPAN_PER_QUERY`] ids of span per vertex); both layouts hand
/// out the same numbers.
#[derive(Debug)]
pub struct VertexNumbering {
    numbers: IdTable<u32>,
    /// The vertex of each number.
    verts: Vec<VertexId>,
}

impl VertexNumbering {
    /// An empty numbering for at most `vertices` ids, all inside the
    /// closed range `span`.
    pub fn new(span: Option<(u64, u64)>, vertices: usize) -> Self {
        Self {
            numbers: IdTable::new(span, vertices),
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
        let slot = self.numbers.slot(x);
        if *slot == u32::EMPTY {
            *slot = next;
            self.verts.push(x);
        }
        *slot
    }

    /// The number of `x`; `None` when `x` has none.
    #[inline]
    pub fn get(&self, x: VertexId) -> Option<u32> {
        self.numbers.get(x)
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
        self.numbers.is_dense()
    }

    /// A label for every id: `label(d)` for the vertex numbered `d`, the
    /// id itself for every id without a number. The labels take the
    /// numbers' layout, so on the table path [`IdLabels::get`] is one load.
    pub fn labels(&self, mut label: impl FnMut(u32) -> VertexId) -> IdLabels {
        IdLabels(match &self.numbers {
            IdTable::Dense { lo, slots } => IdTable::Dense {
                lo: *lo,
                slots: slots
                    .iter()
                    .map(|&d| if d == u32::EMPTY { NOT_ASKED } else { label(d) })
                    .collect(),
            },
            IdTable::Sparse(map) => {
                IdTable::Sparse(map.iter().map(|(&x, &d)| (x, label(d))).collect())
            }
        })
    }
}

/// The labels of [`VertexNumbering::labels`].
pub struct IdLabels(IdTable<VertexId>);

impl IdLabels {
    /// The label of `x`.
    #[inline]
    pub fn get(&self, x: VertexId) -> VertexId {
        self.0.get(x).unwrap_or(x)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use kamsta_comm::{Machine, MachineConfig};

    /// How a test drives a pull: through the density rule with a span,
    /// or with the table decision already made.
    #[derive(Clone, Copy)]
    enum Via {
        Rule(Option<(u64, u64)>),
        Table(Option<(u64, usize)>),
    }

    /// What one PE saw of a pull: the answer for each probed id, whether
    /// they came from the dense table, and the PE's counters.
    type PullView = (Vec<Option<u64>>, bool, kamsta_comm::PeStats);

    /// What the home PE answers for `id` in [`run_pull`].
    fn answer_of(id: u64) -> u64 {
        kamsta_graph::hash::mix64(id) >> 1
    }

    /// Pull `queries[rank]` on `queries.len()` PEs over the id space
    /// `[lo, lo + width)`, block-homed, then probe every queried id, its
    /// two neighbours and both ends of the space. Checks the queried ids'
    /// answers against [`answer_of`].
    fn run_pull(queries: &[Vec<u64>], lo: u64, width: u64, via: Via) -> Vec<PullView> {
        let p = queries.len();
        let queries = queries.to_vec();
        let out = Machine::run(MachineConfig::new(p), move |comm| {
            let ids = queries[comm.rank()].clone();
            // Monotone in the id, and total: ids outside the space clamp.
            let home_of = |id: u64| {
                let off = id.saturating_sub(lo).min(width - 1) as u128;
                (off * p as u128 / width as u128) as usize
            };
            let table = match via {
                Via::Rule(span) => dense_width(span, ids.len()),
                Via::Table(table) => table,
            };
            let table = pull_values(comm, ids.clone(), table, home_of, answer_of);
            for &id in &ids {
                assert_eq!(table.get(id), Some(answer_of(id)), "queried id {id}");
            }
            let probes = ids
                .iter()
                .flat_map(|&id| [id, id.wrapping_sub(1), id.wrapping_add(1)])
                .chain([lo.wrapping_sub(1), lo, lo + (width - 1), lo + width]);
            let seen = probes.map(|id| table.get(id)).collect();
            (seen, table.is_dense(), comm.stats())
        });
        out.results
    }

    /// `count` ids of `[lo, lo + width)`, uniform with repetitions.
    pub(crate) fn ids_in(lo: u64, width: u64, count: usize, seed: u64) -> Vec<u64> {
        (0..count as u64)
            .map(|k| lo + kamsta_graph::hash::mix64(seed ^ k) % width)
            .collect()
    }

    /// Both paths over the same queries: equal answers (for the ids that
    /// were asked and for those that were not) and equal counters on every
    /// rank.
    fn assert_paths_agree(queries: &[Vec<u64>], lo: u64, width: u64, what: &str) {
        let dense = run_pull(queries, lo, width, Via::Table(Some((lo, width as usize))));
        let sparse = run_pull(queries, lo, width, Via::Table(None));
        for (rank, (d, s)) in dense.iter().zip(&sparse).enumerate() {
            assert!(d.1 && !s.1, "{what}: rank {rank} took the paths asked for");
            assert_eq!(d.0, s.0, "{what}: answers on rank {rank}");
            assert_eq!(d.2, s.2, "{what}: PeStats on rank {rank}");
        }
    }

    #[test]
    fn density_rule_flips_at_k_ids_per_query() {
        let k = DENSE_SPAN_PER_QUERY;
        assert_eq!(
            dense_width(Some((7, 7 + 5 * k - 1)), 5),
            Some((7, 5 * k as usize))
        );
        assert_eq!(dense_width(Some((7, 7 + 5 * k)), 5), None);
        assert_eq!(dense_width(None, 1 << 20), None);
        assert_eq!(
            dense_width(Some((3, 3)), 0),
            None,
            "nothing asked, no table"
        );
        assert_eq!(dense_width(Some((0, u64::MAX)), usize::MAX), None);
        assert_eq!(dense_width(Some((9, 3)), 100), None, "an inverted span");
        // The same boundary through a whole pull, on two PEs.
        for (width, dense) in [(40 * k - 1, true), (40 * k, true), (40 * k + 1, false)] {
            let queries = vec![ids_in(100, width, 40, 1), ids_in(100, width, 40, 2)];
            let span = Some((100, 100 + width - 1));
            for (rank, view) in run_pull(&queries, 100, width, Via::Rule(span))
                .iter()
                .enumerate()
            {
                assert_eq!(view.1, dense, "width {width}, rank {rank}");
            }
        }
    }

    #[test]
    fn pull_paths_agree_on_pinned_shapes() {
        let above_48 = (1u64 << 48) + 12_345;
        let shapes: Vec<(&str, u64, u64, Vec<Vec<u64>>)> = vec![
            ("one PE", 0, 50, vec![ids_in(0, 50, 200, 1)]),
            (
                "empty query lists on some PEs",
                10,
                64,
                vec![
                    vec![],
                    ids_in(10, 64, 90, 2),
                    vec![],
                    ids_in(10, 64, 3, 3),
                    vec![],
                ],
            ),
            ("nobody asks", 10, 64, vec![vec![], vec![], vec![]]),
            (
                "a span starting above 2^48",
                above_48,
                300,
                vec![ids_in(above_48, 300, 500, 4), ids_in(above_48, 300, 40, 5)],
            ),
            (
                "a one-id space",
                u64::MAX - 9,
                1,
                vec![vec![u64::MAX - 9; 5], vec![], vec![u64::MAX - 9]],
            ),
            (
                "word boundaries of the bitmap",
                0,
                129,
                vec![vec![0, 63, 64, 127, 128, 128, 0], vec![64, 63]],
            ),
        ];
        for (what, lo, width, queries) in &shapes {
            assert_paths_agree(queries, *lo, *width, what);
        }
    }

    #[test]
    fn an_id_outside_the_span_falls_back() {
        // PE 1 asks for ids beyond a (too narrow) span: it must take the
        // fallback and still be answered; PE 0 stays on the table, and the
        // counters are what two fallback pulls charge.
        let queries = vec![ids_in(20, 30, 64, 6), vec![25, 49, 50, 19, 1 << 50, 25]];
        let narrow = run_pull(&queries, 0, 1 << 51, Via::Rule(Some((20, 49))));
        let none = run_pull(&queries, 0, 1 << 51, Via::Rule(None));
        assert!(narrow[0].1 && !narrow[1].1);
        assert!(!none[0].1 && !none[1].1, "no span, no table");
        for rank in 0..2 {
            assert_eq!(narrow[rank].0, none[rank].0, "answers on rank {rank}");
            assert_eq!(narrow[rank].2, none[rank].2, "PeStats on rank {rank}");
        }
    }

    mod pull_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn dense_and_sparse_paths_agree(
                p_index in 0usize..4,
                lo_index in 0usize..3,
                width in 1u64..400,
                max_count in 0usize..300,
                seed in any::<u64>(),
            ) {
                let p = [1usize, 2, 3, 5][p_index];
                let lo = [0u64, 1 << 20, (1 << 48) + 5][lo_index];
                let queries: Vec<Vec<u64>> = (0..p as u64)
                    .map(|r| {
                        // Uneven loads, some PEs asking nothing.
                        let count = (kamsta_graph::hash::mix64(seed ^ r) % 3) as usize
                            * max_count
                            / 2;
                        ids_in(lo, width, count, seed.wrapping_add(r << 32))
                    })
                    .collect();
                assert_paths_agree(&queries, lo, width, "random id multiset");
            }
        }
    }

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
