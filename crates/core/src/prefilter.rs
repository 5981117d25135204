//! `REDISTRIBUTE`'s local per-pair prefilter (Sec. VI-B): of the edges
//! a slice keeps, the `(w, id)`-lightest copy of every ordered `(u, v)`
//! pair, pairs ascending. A plain slice — [`prefilter_pairs`] before the
//! distributed sort, [`prefilter_unordered`] before the rooted base
//! case — takes one path, [`lightest_per_pair`]: a radix order of the
//! pair keys. The per-PE table is for a Borůvka round whose edges still
//! carry their old endpoints: [`lightest_per_label_pair`] walks the
//! round's label runs one label at a time and rewrites each edge as it
//! reads it from the round's one label table, so the relabelled slice is
//! never written (DESIGN.md §14).

use crate::pull::{dense_get, dense_width};
use kamsta_comm::Comm;
use kamsta_graph::{CEdge, VertexId};
use kamsta_sort::Sorted;

/// The kernel of both prefilters: of the edges `keep` accepts, the copy
/// minimal in `(w, id)` of every ordered `(u, v)` pair, in `(u, v)`
/// order — the sequence "sort by `(u, v, w, id)`, keep the first of each
/// `(u, v)` run" produces, without sorting `w` and `id` into place. The
/// radix engine orders the kept edges by their pair key alone and one
/// walk along that order emits each run's minimum. Output and γ charge
/// are independent of `threads_per_pe` (DESIGN.md §14).
fn lightest_per_pair(
    comm: &Comm,
    edges: &[CEdge],
    keep: impl Fn(&CEdge) -> bool + Sync,
) -> Vec<CEdge> {
    comm.charge_local(edges.len() as u64);
    let order = kamsta_sort::local_radix_order(comm, edges, |e| keep(e).then(|| e.pair_key()))
        .unwrap_or_else(|e| too_long(e));
    let mut out = Vec::with_capacity(order.len());
    let mut run = order.iter().map(|&i| edges[i as usize]);
    let Some(mut best) = run.next() else {
        return out;
    };
    for e in run {
        if (e.u, e.v) != (best.u, best.v) {
            out.push(best);
            best = e;
        } else if (e.w, e.id) < (best.w, best.id) {
            best = e;
        }
    }
    out.push(best);
    out
}

fn too_long(e: kamsta_sort::TooLongForRadix) -> ! {
    panic!("a PE's edge slice must be u32-indexable: {e}")
}

/// The mean number of edges per label run from which a Borůvka round
/// leaves its rewrite to the table walk ([`lightest_per_label_pair`])
/// rather than writing `relabel`'s slice for the radix order. Below it
/// a group's table traffic and its destination sort cost more than the
/// four counting passes they replace (EXPERIMENTS.md "The prefilter
/// walks source groups").
const GROUP_WALK_MIN_RUN: usize = 8;

/// A label run of a round's edges: a maximal stretch of adjacent
/// non-empty vertex segments with the same label `u`, by the input
/// position of its first edge; it ends where the next run starts (or at
/// the slice's end). Empty segments do not break it: their vertices add
/// nothing to `relabel`'s output, where a run's edges, less the
/// self-loops it drops, are one stretch with one source.
struct Run {
    u: VertexId,
    start: u32,
}

/// The label runs of a round's edges, in input order: `offsets[i]..
/// offsets[i + 1]` is local vertex `i`'s segment and `labels[i]` its
/// label. Per-vertex work only.
fn label_runs<'a>(offsets: &'a [usize], labels: &'a [VertexId]) -> impl Iterator<Item = Run> + 'a {
    let mut last = None;
    offsets
        .windows(2)
        .zip(labels)
        .filter(move |&(seg, &u)| seg[0] < seg[1] && last.replace(u) != Some(u))
        .map(|(seg, &u)| Run {
            u,
            start: seg[0] as u32,
        })
}

/// How many runs ahead of the one it reads [`lightest_per_label_pair`]
/// prefetches.
const PREFETCH_RUNS_AHEAD: usize = 4;

/// Hint the cache to load the 512 bytes (16 edges, a mean round-1
/// segment of a `gnm-dense` slice) from `edges[at]` on. A no-op off
/// x86-64.
#[inline]
fn prefetch(edges: &[CEdge], at: usize) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let p = edges.as_ptr().wrapping_add(at).cast::<i8>();
        for line in 0..8 {
            // SAFETY: a prefetch is a hint; it reads nothing and never
            // faults, whatever the address, and SSE is part of x86-64.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(p.wrapping_add(64 * line)) };
        }
    }
}

/// The table `(lo, width)` over a Borůvka round's relabelled
/// destinations when [`lightest_per_label_pair`] takes the slice: its
/// `len` edges average [`GROUP_WALK_MIN_RUN`] or more per label run
/// (the segments `offsets` cuts, under `labels`), and `span` — the
/// graph's id span, which holds every vertex and so every label — is
/// dense for `len` edges by [`dense_width`] — as `EXCHANGE LABELS`' table
/// then is. `None` sends the slice to
/// `relabel` and [`prefilter_pairs`]: Filter-Borůvka's light subgraphs
/// and the base cases, whose label runs are short, and sparse id
/// spaces. It reads per-vertex offsets and labels, not the edges, so
/// choosing costs no pass over the slice.
pub(crate) fn segment_table(
    len: usize,
    offsets: &[usize],
    labels: &[VertexId],
    span: Option<(u64, u64)>,
) -> Option<(u64, usize)> {
    let runs = label_runs(offsets, labels).count();
    if len < GROUP_WALK_MIN_RUN * runs || u32::try_from(len).is_err() {
        return None;
    }
    dense_width(span, len).filter(|&(_, width)| u32::try_from(width).is_ok())
}

/// [`prefilter_pairs`] on what `relabel` would make of a round's edges,
/// without writing that slice: `edges` is `g.edges` or a subsequence of
/// it in input order, `offsets[i]..offsets[i + 1]` is local vertex `i`'s
/// segment of it and `labels[i]` its label, and `table` holds the slots
/// of the round's label table over the span of [`segment_table`], read
/// as `relabel` reads them. A destination whose label is its source's —
/// a self-loop contraction made — is dropped.
///
/// The label runs are ordered by label with the (stable) radix engine,
/// so each label's runs form one group, in input order. A group keeps,
/// per destination, the input position of its `(w, id)`-lightest copy
/// in a table over the span; the group's distinct destinations, sorted,
/// then emit one copy each, as `(label, destination)` with the copy's
/// weight and id, and empty their slots again, so the table is filled
/// once per call. Labels ascending, destinations ascending within a
/// label: the definition's sequence.
///
/// γ is the work the walk does. With `kept` the copies offered to the
/// table (the edges that are not self-loops) and `d` the distinct
/// destinations of each group, it charges
///
/// ```text
/// order(runs) + kept + Σ_groups d·⌈log₂ d⌉
/// ```
///
/// where `order(runs)` is what `local_radix_order` charges for the runs'
/// order by label, and a group's destination sort costs what
/// `local_sort` charges. The one unit per edge read is charged before,
/// in [`relabel_or_defer`](crate::dist::relabel_or_defer), where
/// `relabel` charges its own.
pub(crate) fn lightest_per_label_pair(
    comm: &Comm,
    edges: &[CEdge],
    offsets: &[usize],
    labels: &[VertexId],
    table: &[u64],
    lo: u64,
) -> Sorted<CEdge> {
    const EMPTY: u32 = u32::MAX;
    let runs: Vec<Run> = label_runs(offsets, labels).collect();
    let order = kamsta_sort::local_radix_order(comm, &runs, |r| Some(r.u))
        .expect("fewer runs than edges, which are u32-indexable");
    let end_of = |r: usize| runs.get(r + 1).map_or(edges.len(), |n| n.start as usize);
    let mut slots: Vec<u32> = vec![EMPTY; table.len()];
    let mut dests: Vec<u32> = Vec::new();
    let mut out = Vec::with_capacity(edges.len());
    let (mut kept, mut sort_ops) = (0u64, 0u64);
    let mut k = 0;
    while k < order.len() {
        let u = runs[order[k] as usize].u;
        while let Some(&r) = order.get(k).filter(|&&r| runs[r as usize].u == u) {
            let r = r as usize;
            // Runs lie apart in the slice: ask for one a few runs ahead.
            if let Some(&ahead) = order.get(k + PREFETCH_RUNS_AHEAD) {
                prefetch(edges, runs[ahead as usize].start as usize);
            }
            for i in runs[r].start as usize..end_of(r) {
                let e = &edges[i];
                let label = dense_get(lo, table, e.v).unwrap_or(e.v);
                if label == u {
                    continue;
                }
                kept += 1;
                let d = (label - lo) as u32;
                let slot = &mut slots[d as usize];
                if *slot == EMPTY {
                    *slot = i as u32;
                    dests.push(d);
                } else {
                    let best = &edges[*slot as usize];
                    if (e.w, e.id) < (best.w, best.id) {
                        *slot = i as u32;
                    }
                }
            }
            k += 1;
        }
        if dests.is_empty() {
            continue;
        }
        let n = dests.len();
        sort_ops += n as u64 * u64::from(kamsta_comm::ceil_log2(n));
        dests.sort_unstable();
        out.extend(dests.drain(..).map(|d| {
            let e = &edges[std::mem::replace(&mut slots[d as usize], EMPTY) as usize];
            CEdge::new(u, lo + u64::from(d), e.w, e.id)
        }));
    }
    comm.charge_local(kept + sort_ops);
    Sorted::assume(out)
}

/// Local keep-lightest-per-pair prefilter used by the `REDISTRIBUTE`
/// dedup — self-loops, identical duplicates and parallel copies never
/// travel, and the survivors are already in lexicographic order (one
/// copy per pair, pairs ascending: the [`Sorted`] witness). Both
/// directions survive, keeping the edge list symmetric.
pub(crate) fn prefilter_pairs(comm: &Comm, edges: &[CEdge]) -> Sorted<CEdge> {
    Sorted::assume(lightest_per_pair(comm, edges, |e| !e.is_self_loop()))
}

/// Keep-lightest-per-*unordered*-pair prefilter for the replicated base
/// cases. The symmetric closure holds both directions of every
/// undirected edge machine-wide, and a sequential Kruskal can only ever
/// use, per unordered pair, the copy minimal in `(w, id)` — the back
/// edge and every (also heavier) parallel copy join two already-connected
/// components. Keeping only the `u < v` direction halves the gathered
/// volume, and makes the ordered pair `(u, v) = (min, max)` the
/// unordered one, so the per-pair minimum is exactly the candidate the
/// sequential tie-break would pick. The undirected MSF is unique under
/// the unique-weight total order, so the forest is unchanged.
pub(crate) fn prefilter_unordered(comm: &Comm, edges: &[CEdge]) -> Vec<CEdge> {
    lightest_per_pair(comm, edges, |e| e.u < e.v)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::pull::NOT_ASKED;
    use kamsta_comm::{Machine, MachineConfig};

    /// The prefilters' definition: of the edges `keep` accepts, sorted by
    /// `CEdge::lex_key`, the first of every `(u, v)` run.
    fn reference_prefilter(edges: &[CEdge], keep: impl Fn(&CEdge) -> bool) -> Vec<CEdge> {
        let mut kept: Vec<CEdge> = edges.iter().filter(|e| keep(e)).copied().collect();
        kept.sort_by_key(CEdge::lex_key);
        kept.dedup_by(|a, b| a.u == b.u && a.v == b.v);
        kept
    }

    /// A prefilter's `keep` rule.
    type Keep = fn(&CEdge) -> bool;

    /// The two prefilters' `keep` rules, by name.
    const KEEPS: [(&str, Keep); 2] = [
        ("prefilter_pairs", |e| !e.is_self_loop()),
        ("prefilter_unordered", |e| e.u < e.v),
    ];

    /// The γ units `local_radix_order` charges on the pair keys of the
    /// edges `keep` accepts: what a prefilter charges beyond its `n`-unit
    /// scan.
    fn radix_order_ops(edges: &[CEdge], keep: Keep) -> u64 {
        let edges = edges.to_vec();
        let out = Machine::run(MachineConfig::new(1), move |comm| {
            kamsta_sort::local_radix_order(comm, &edges, |e| keep(e).then(|| e.pair_key()))
                .unwrap();
            comm.stats().local_ops
        });
        out.results[0]
    }

    /// Both prefilters on one PE with `t` pool threads: their outputs and
    /// the γ units each charged.
    fn run_prefilters(edges: &[CEdge], t: usize) -> [(Vec<CEdge>, u64); 2] {
        let edges = edges.to_vec();
        let out = Machine::run(MachineConfig::new(1).with_threads(t), move |comm| {
            let pairs = prefilter_pairs(comm, &edges).into_inner();
            let pairs_ops = comm.stats().local_ops;
            let unordered = prefilter_unordered(comm, &edges);
            let unordered_ops = comm.stats().local_ops - pairs_ops;
            [(pairs, pairs_ops), (unordered, unordered_ops)]
        });
        out.results.into_iter().next().unwrap()
    }

    /// Each prefilter's output is its definition's, and its charge is
    /// `n` plus what the radix order charges on the kept pair keys.
    fn assert_prefilters_match_their_definition(edges: &[CEdge], t: usize, what: &str) {
        let got = run_prefilters(edges, t);
        for ((name, keep), (out, ops)) in KEEPS.into_iter().zip(got) {
            assert_eq!(
                out,
                reference_prefilter(edges, keep),
                "{what}: {name}, t={t}"
            );
            let expect = edges.len() as u64 + radix_order_ops(edges, keep);
            assert_eq!(ops, expect, "{what}: {name}'s charge, t={t}");
        }
    }

    /// `n` random edges over `labels` endpoints spaced `1 << shift`
    /// apart, weights below `weights`, ids below `ids` — small ranges
    /// make parallel copies, equal weights and exact duplicates common.
    fn multigraph(
        n: usize,
        labels: u64,
        shift: u32,
        weights: u64,
        ids: u64,
        seed: u64,
    ) -> Vec<CEdge> {
        let mut state = seed;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 24
        };
        (0..n)
            .map(|_| {
                CEdge::new(
                    (rng() % labels) << shift,
                    (rng() % labels) << shift,
                    (rng() % weights + 1) as u32,
                    rng() % ids,
                )
            })
            .collect()
    }

    /// The post-`relabel` shape of a Borůvka round: `n` edges among
    /// `vertices` vertices sorted by `(u, v)`, then both endpoints
    /// relabelled to `base + hash mod labels`. A label's edges lie in
    /// runs apart in the slice; an edge inside one label is a self-loop
    /// inside its run; small `weights` and `ids` make equal weights and
    /// exact duplicates across one source's runs common.
    fn relabelled(
        n: usize,
        vertices: u64,
        labels: u64,
        base: u64,
        weights: u64,
        ids: u64,
        seed: u64,
    ) -> Vec<CEdge> {
        let label = |x: u64| base + kamsta_graph::hash::mix64(seed ^ x) % labels;
        let mut edges = multigraph(n, vertices, 0, weights, ids, seed);
        edges.sort_unstable_by_key(|e| (e.u, e.v));
        for e in &mut edges {
            (e.u, e.v) = (label(e.u), label(e.v));
        }
        edges
    }

    /// Runs of the given lengths that both prefilters keep whole (`u <
    /// v`, no self-loop): sources cycle through five labels, so every
    /// source's runs lie apart; destinations lie in `[lo, lo + width)`
    /// and take both ends, so the kept span is exactly `width` wide.
    fn runs_over_span(lens: &[usize], lo: u64, width: u64, seed: u64) -> Vec<CEdge> {
        let n: usize = lens.iter().sum();
        let mut edges = Vec::with_capacity(n);
        for (r, &len) in lens.iter().enumerate() {
            for _ in 0..len {
                let k = edges.len() as u64;
                let v = match k {
                    0 => lo,
                    _ if k + 1 == n as u64 => lo + width - 1,
                    _ => lo + kamsta_graph::hash::mix64(seed ^ k) % width,
                };
                let w = 1 + (kamsta_graph::hash::mix64(seed ^ !k) % 3) as u32;
                edges.push(CEdge::new((r % 5) as u64, v, w, k % 7));
            }
        }
        edges
    }

    #[test]
    fn prefilters_match_their_definition_on_pinned_shapes() {
        let limit = 8 * 64 * 16;
        let shapes: Vec<(&str, Vec<CEdge>)> = vec![
            ("empty", vec![]),
            ("one edge", vec![CEdge::new(3, 1, 7, 0)]),
            (
                "all self-loops",
                (0..300).map(|i| CEdge::new(i % 7, i % 7, 1, i)).collect(),
            ),
            (
                "endpoints above 2^32",
                multigraph(5_000, 200, 27, 250, 1 << 20, 1),
            ),
            (
                "endpoints above 2^48",
                multigraph(5_000, 200, 44, 250, 1 << 20, 2),
            ),
            ("exact duplicates", multigraph(5_000, 12, 0, 2, 3, 3)),
            (
                "equal weights, ids differ",
                multigraph(5_000, 12, 0, 1, 1 << 30, 4),
            ),
            (
                "RMAT-like, >= 16 copies per pair",
                multigraph(40_000, 48, 3, 250, 1 << 20, 5),
            ),
            // Both sides of the engine's small-slice cutoff (96) …
            ("n = 95", multigraph(95, 30, 0, 9, 50, 6)),
            ("n = 96", multigraph(96, 30, 0, 9, 50, 7)),
            ("n = 97", multigraph(97, 30, 0, 9, 50, 8)),
            // … and of its parallel cutoff (65 536), which the t = 2 and
            // t = 8 runs below cross.
            ("n = 65 535", multigraph(65_535, 3_000, 0, 250, 1 << 21, 9)),
            ("n = 65 536", multigraph(65_536, 3_000, 0, 250, 1 << 21, 10)),
            ("n = 65 537", multigraph(65_537, 3_000, 0, 250, 1 << 21, 11)),
            // Relabel-shaped slices: one source's runs apart; runs over
            // spans about 8 ids per edge wide and runs about
            // `GROUP_WALK_MIN_RUN` edges long.
            (
                "a GNM round after relabel",
                relabelled(40_000, 2_000, 700, 0, 250, 1 << 21, 13),
            ),
            (
                "one source's runs apart, self-loops inside runs",
                relabelled(5_000, 100, 12, 0, 250, 1 << 20, 14),
            ),
            (
                "exact duplicates and equal weights across runs",
                relabelled(5_000, 100, 12, 0, 2, 3, 15),
            ),
            (
                "span at the density limit",
                runs_over_span(&[16; 64], 9, limit, 16),
            ),
            (
                "span one id past the density limit",
                runs_over_span(&[16; 64], 9, limit + 1, 17),
            ),
            (
                "mean run at the threshold",
                runs_over_span(&[GROUP_WALK_MIN_RUN; 100], 9, 50, 18),
            ),
            (
                "mean run one edge below the threshold",
                runs_over_span(
                    &[
                        [GROUP_WALK_MIN_RUN; 99].as_slice(),
                        &[GROUP_WALK_MIN_RUN - 1],
                    ]
                    .concat(),
                    9,
                    50,
                    19,
                ),
            ),
            (
                "long runs, endpoints above 2^32",
                relabelled(20_000, 500, 300, (1 << 32) + 7, 250, 1 << 20, 20),
            ),
            (
                "long runs, endpoints above 2^48",
                relabelled(20_000, 500, 300, (1 << 48) + 9, 250, 1 << 20, 21),
            ),
        ];
        for (what, edges) in &shapes {
            for t in [1usize, 2, 8] {
                assert_prefilters_match_their_definition(edges, t, what);
            }
        }
    }

    #[test]
    fn prefilter_output_and_charge_are_thread_invariant() {
        // Well past the parallel cutoff, on random sources and on the
        // post-relabel shape of a GNM round (runs of about 32 edges per
        // source vertex): the width-parallel order must reproduce both
        // the survivors and the γ units of the sequential one.
        let shapes = [
            (
                "2^17 random edges",
                multigraph(1 << 17, 1 << 12, 0, 254, 1 << 21, 12),
            ),
            (
                "2^17 relabelled edges",
                relabelled(1 << 17, 1 << 12, 1 << 11, 0, 254, 1 << 21, 22),
            ),
        ];
        for (what, edges) in &shapes {
            let seq = run_prefilters(edges, 1);
            assert!(seq[0].0.len() > 1 << 16 && seq[0].1 > 0, "{what}");
            for t in [2usize, 8] {
                assert_eq!(run_prefilters(edges, t), seq, "{what}: t={t}");
            }
            assert_prefilters_match_their_definition(edges, 8, what);
        }
    }

    /// A Borůvka round's slice before `relabel`: edges sorted by `(u, v)`
    /// over old endpoints, each local vertex's segment of them (empty for
    /// a vertex a subsequence dropped) and its label, and the round's
    /// label table over the span `[lo, lo + width)`, which holds old
    /// endpoints and labels alike: the label of every endpoint, and
    /// [`NOT_ASKED`] for the ids nobody asked about.
    #[derive(Clone)]
    struct Unrelabelled {
        edges: Vec<CEdge>,
        verts: Vec<VertexId>,
        offsets: Vec<usize>,
        labels: Vec<VertexId>,
        lo: u64,
        table: Vec<u64>,
    }

    impl Unrelabelled {
        /// `edges` (sorted by `(u, v)`, endpoints in the span) under the
        /// labelling `label_of`.
        fn new(edges: Vec<CEdge>, lo: u64, width: usize, label_of: impl Fn(u64) -> u64) -> Self {
            let mut verts: Vec<VertexId> = edges.iter().map(|e| e.u).collect();
            verts.dedup();
            let labels = verts.iter().map(|&v| label_of(v)).collect();
            let mut table = vec![NOT_ASKED; width];
            for v in edges.iter().flat_map(|e| [e.u, e.v]) {
                table[(v - lo) as usize] = label_of(v);
            }
            let mut pre = Unrelabelled {
                edges,
                verts,
                offsets: Vec::new(),
                labels,
                lo,
                table,
            };
            pre.offsets = pre.segments();
            pre
        }

        /// The pre-image of `relabelled(n, vertices, labels, base, ..)`:
        /// the same multigraph on the vertices `base + x` under the same
        /// labels, which `relabel` maps onto that slice.
        fn of_relabelled(
            n: usize,
            vertices: u64,
            labels: u64,
            base: u64,
            weights: u64,
            ids: u64,
            seed: u64,
        ) -> Self {
            let mut edges = multigraph(n, vertices, 0, weights, ids, seed);
            edges.sort_unstable_by_key(|e| (e.u, e.v));
            for e in &mut edges {
                (e.u, e.v) = (base + e.u, base + e.v);
            }
            let label = |v: u64| base + kamsta_graph::hash::mix64(seed ^ (v - base)) % labels;
            let pre = Self::new(edges, base, vertices.max(labels) as usize, label);
            let mut want = relabelled(n, vertices, labels, base, weights, ids, seed);
            want.retain(|e| !e.is_self_loop());
            assert_eq!(pre.relabel(), want, "the pre-image relabels onto the shape");
            pre
        }

        /// The vertices' segments of the current edges.
        fn segments(&self) -> Vec<usize> {
            let mut offsets = vec![0];
            offsets.extend(
                self.verts
                    .iter()
                    .map(|&v| self.edges.partition_point(|e| e.u <= v)),
            );
            offsets
        }

        /// The subsequence of the edges `keep(position)` accepts, on the
        /// same vertices — what local contraction leaves.
        fn subsequence(&self, keep: impl Fn(usize) -> bool) -> Self {
            let mut sub = self.clone();
            sub.edges = (0..self.edges.len())
                .filter(|&i| keep(i))
                .map(|i| self.edges[i])
                .collect();
            sub.offsets = sub.segments();
            sub
        }

        /// Each vertex's first edge alone: every run holds one edge.
        fn first_edges(&self) -> Self {
            self.subsequence(|i| i == 0 || self.edges[i - 1].u != self.edges[i].u)
        }

        fn label_of(&self, v: VertexId) -> VertexId {
            dense_get(self.lo, &self.table, v).unwrap_or(v)
        }

        /// What `relabel` makes of the edges.
        fn relabel(&self) -> Vec<CEdge> {
            self.edges
                .iter()
                .map(|e| CEdge::new(self.label_of(e.u), self.label_of(e.v), e.w, e.id))
                .filter(|e| !e.is_self_loop())
                .collect()
        }
    }

    /// `n` random edges over `vertices` vertices, sorted by `(u, v)`.
    fn sorted_multigraph(n: usize, vertices: u64, seed: u64) -> Vec<CEdge> {
        let mut edges = multigraph(n, vertices, 0, 250, 1 << 20, seed);
        edges.sort_unstable_by_key(|e| (e.u, e.v));
        edges
    }

    /// Output, γ units and the bits of the modeled seconds of one call,
    /// on a fresh one-PE machine with `t` pool threads.
    type Charged = (Vec<CEdge>, u64, u64);

    fn charged(t: usize, run: impl FnOnce(&Comm) -> Vec<CEdge> + Send + Sync) -> Charged {
        let run = std::sync::Mutex::new(Some(run));
        let out = Machine::run(MachineConfig::new(1).with_threads(t), |comm| {
            let run = run.lock().unwrap().take().expect("one PE");
            let out = run(comm);
            let stats = comm.stats();
            (out, stats.local_ops, stats.modeled_time.to_bits())
        });
        out.results.into_iter().next().unwrap()
    }

    /// The γ units [`lightest_per_label_pair`] charges, computed apart
    /// from it: what sorting the label runs' labels charges (their order
    /// by label), one unit per copy `relabel` keeps (`kept`), and, per
    /// label of the output `out`, its `d` destinations' sort at
    /// `local_sort`'s rate, `d·⌈log₂ d⌉`. The label sort is charged to
    /// `comm`.
    pub(crate) fn label_walk_ops(
        comm: &Comm,
        offsets: &[usize],
        labels: &[VertexId],
        kept: usize,
        out: &[CEdge],
    ) -> u64 {
        let mut run_labels: Vec<VertexId> = offsets
            .windows(2)
            .zip(labels)
            .filter(|(seg, _)| seg[0] < seg[1])
            .map(|(_, &u)| u)
            .collect();
        run_labels.dedup();
        let before = comm.stats().local_ops;
        kamsta_sort::local_radix_sort(comm, &mut run_labels, |&u| u);
        let order = comm.stats().local_ops - before;
        let sorts: u64 = out
            .chunk_by(|a, b| a.u == b.u)
            .map(|group| group.len() as u64 * u64::from(kamsta_comm::ceil_log2(group.len())))
            .sum();
        order + kept as u64 + sorts
    }

    /// The fused kernel against its definition: on a slice before
    /// `relabel`, `lightest_per_label_pair` gives what `prefilter_pairs`
    /// gives on `relabel`'s output and charges [`label_walk_ops`], with
    /// `t` pool threads as with one.
    fn assert_fused_matches_relabel_then_prefilter(pre: &Unrelabelled, t: usize, what: &str) {
        let fused = |t| {
            charged(t, |comm| {
                lightest_per_label_pair(
                    comm,
                    &pre.edges,
                    &pre.offsets,
                    &pre.labels,
                    &pre.table,
                    pre.lo,
                )
                .into_inner()
            })
        };
        let walked = fused(t);
        let rewritten = pre.relabel();
        let reference = charged(t, |comm| prefilter_pairs(comm, &rewritten).into_inner());
        assert_eq!(walked.0, reference.0, "{what}: output, t={t}");
        assert_eq!(
            walked.0,
            reference_prefilter(&rewritten, |_| true),
            "{what}"
        );
        let expect = Machine::run(MachineConfig::new(1), |comm| {
            label_walk_ops(comm, &pre.offsets, &pre.labels, rewritten.len(), &walked.0)
        });
        assert_eq!(walked.1, expect.results[0], "{what}: γ units, t={t}");
        if t > 1 {
            let single = fused(1);
            assert_eq!(walked.0, single.0, "{what}: output, t={t} against t=1");
            assert_eq!(walked.1, single.1, "{what}: γ units, t={t} against t=1");
        }
    }

    #[test]
    fn fused_kernel_matches_relabel_then_prefilter_on_pinned_shapes() {
        let shapes = [
            (
                "a GNM round",
                Unrelabelled::of_relabelled(40_000, 2_000, 700, 0, 250, 1 << 21, 13),
            ),
            (
                "one source's runs apart, self-loops inside runs",
                Unrelabelled::of_relabelled(5_000, 100, 12, 0, 250, 1 << 20, 14),
            ),
            (
                "exact duplicates and equal weights across runs",
                Unrelabelled::of_relabelled(5_000, 100, 12, 0, 2, 3, 15),
            ),
            (
                "long runs, endpoints above 2^32",
                Unrelabelled::of_relabelled(20_000, 500, 300, (1 << 32) + 7, 250, 1 << 20, 20),
            ),
            (
                "long runs, endpoints above 2^48",
                Unrelabelled::of_relabelled(20_000, 500, 300, (1 << 48) + 9, 250, 1 << 20, 21),
            ),
            (
                "past the parallel cutoff",
                Unrelabelled::of_relabelled(1 << 17, 1 << 12, 1 << 11, 0, 254, 1 << 21, 22),
            ),
            (
                "one edge",
                Unrelabelled::new(vec![CEdge::new(3, 1, 7, 0)], 0, 4, |v| v),
            ),
            (
                "every edge a self-loop after contraction",
                Unrelabelled::of_relabelled(3_000, 50, 1, 0, 9, 1 << 20, 23),
            ),
            (
                "one edge a vertex, labels permuted: runs in order, boundaries not",
                Unrelabelled::new(sorted_multigraph(6_000, 2_000, 25), 0, 2_000, |v| {
                    (7 * v + 3) % 2_000
                })
                .first_edges(),
            ),
            (
                "sorted after relabel: identity labels",
                Unrelabelled::new(sorted_multigraph(3_000, 200, 24), 0, 200, |v| v),
            ),
            ("one label per 16 adjacent vertices, segments emptied", {
                // Label runs of many segments, which cross the emptied
                // ones; the blocks' labels are permuted, so runs are in
                // order and their boundaries are not.
                let pre = Unrelabelled::new(sorted_multigraph(20_000, 2_000, 26), 0, 2_000, |v| {
                    v / 16 * 37 % 125 * 16
                });
                pre.subsequence(|i| pre.edges[i].u % 5 != 2)
            }),
            (
                "never-asked ids in the span, a destination that is a source nowhere",
                {
                    // Sources on even ids, so the odd ids of the span are never
                    // asked; 2 001 is a destination only, whose slot nobody
                    // asked for either: it keeps its own id.
                    let mut edges: Vec<CEdge> = sorted_multigraph(8_000, 1_000, 27)
                        .into_iter()
                        .map(|e| CEdge::new(2 * e.u, 2 * e.v, e.w, e.id))
                        .collect();
                    edges.extend((0..200u64).map(|k| {
                        CEdge::new(
                            2 * (k * 5 % 1_000),
                            2_001,
                            1 + (k % 9) as u32,
                            (1 << 21) + k,
                        )
                    }));
                    edges.sort_unstable_by_key(|e| (e.u, e.v));
                    let mut pre = Unrelabelled::new(edges, 0, 2_048, |v| v / 64 * 64);
                    pre.table[2_001] = NOT_ASKED;
                    assert!(pre.table.contains(&NOT_ASKED) && pre.label_of(2_001) == 2_001);
                    pre
                },
            ),
        ];
        for (what, pre) in &shapes {
            for t in [1usize, 2, 8] {
                assert_fused_matches_relabel_then_prefilter(pre, t, what);
                // Local contraction's survivors: a subsequence in input
                // order, some segments emptied whole.
                let survivors = pre.subsequence(|i| {
                    let v = pre.edges[i].u;
                    v % 7 != 3 && !kamsta_graph::hash::mix64(i as u64).is_multiple_of(3)
                });
                assert_fused_matches_relabel_then_prefilter(&survivors, t, what);
            }
        }
    }

    mod prefilter_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            #[test]
            fn prefilters_match_their_definition(
                n in 0usize..400,
                labels in 1u64..40,
                shift in 0u32..50,
                weights in 1u64..6,
                ids in 1u64..500,
                seed in any::<u64>(),
                t in 1usize..4,
                runs in any::<bool>(),
            ) {
                // Run-structured: `labels` vertices relabelled onto as many
                // labels from `2^shift` on, one source's runs apart.
                let (edges, what) = if runs {
                    let edges = relabelled(n, labels, labels, 1 << shift, weights, ids, seed);
                    (edges, "relabelled multigraph")
                } else {
                    (multigraph(n, labels, shift, weights, ids, seed), "random multigraph")
                };
                assert_prefilters_match_their_definition(&edges, t, what);
            }

            #[test]
            fn fused_kernel_matches_relabel_then_prefilter(
                n in 0usize..900,
                vertices in 1u64..400,
                labels in 1u64..400,
                weights in 1u64..6,
                ids in 1u64..500,
                seed in any::<u64>(),
                t in 1usize..4,
                mode in 0u8..4,
                drop_every in 0u64..4,
            ) {
                // Random labels, labels in vertex order (most runs in
                // order, boundaries not) or the identity (the whole
                // relabelled slice in order), then maybe a subsequence; or
                // a permutation on each vertex's first edge alone, where
                // every run is in order and the boundaries, in vertex
                // order, decide.
                let mut edges = multigraph(n, vertices, 0, weights, ids, seed);
                edges.sort_unstable_by_key(|e| (e.u, e.v));
                let width = vertices.max(labels);
                let label = |v: u64| match mode {
                    0 => kamsta_graph::hash::mix64(seed ^ v) % labels,
                    1 => v * labels / width,
                    2 => v,
                    _ => (v * 1_000_003 + seed % width) % width,
                };
                let pre = Unrelabelled::new(edges, 0, width as usize, label);
                let pre = match (mode, drop_every) {
                    (3, _) => pre.first_edges(),
                    (_, 0) => pre,
                    _ => pre.subsequence(|i| {
                        kamsta_graph::hash::mix64(seed ^ !(i as u64)) % 4 >= drop_every
                    }),
                };
                assert_fused_matches_relabel_then_prefilter(&pre, t, "random labels");
            }
        }
    }
}
