//! The sharded batch-dynamic MSF maintainer.
//!
//! State per PE: a `store` shard (every current edge whose canonical
//! `u < v` pair is homed here) and an `msf` shard (the subset in the
//! current forest), both lex-sorted so pair lookups are binary searches
//! on [`CEdge::lex_key`] prefixes. Replicated scalars (forest weight and
//! size, the id counter, statistics) ride along so every PE can answer
//! aggregate queries without communication.
//!
//! A batch applies in five bulk-synchronous steps, with every branch
//! decided on allreduced quantities so the PEs stay in lockstep:
//!
//! 1. canonicalise + assign fresh ids + route updates to pair homes;
//! 2. resolve last-writer-wins per pair, merge into the store shard;
//! 3. classify globally: effective inserts, deletions, forest hits;
//! 4. replicate the certificate `T' ∪ I ∪ C` (see below) on every PE;
//! 5. solve it with one local Kruskal on every PE and apply the change to
//!    the forest shard: drop the edges Kruskal evicted, merge in the new
//!    forest edges homed here — skipped entirely when the batch provably
//!    cannot change the forest.
//!
//! Step 5 is the paper's Sec. IV-D base case: once the graph left is
//! small, stop paying collective rounds and solve it sequentially. The
//! certificate holds up to `n − 1` forest edges, so every PE pays Θ(n)
//! local work for it; in exchange a flush runs no pipeline round at all.
//! That work reuses what is already indexed or in order: one vertex
//! numbering per flush, a table over `[0, n)` when the density rule
//! admits one, serves both the candidate scan and the solve; the gathered
//! `T'` is lex-sorted, so a stable order on `w` alone puts it in the
//! solve's order; and nothing re-sorts the forest shard. Every
//! certificate edge is the store's own canonical copy, so `msf ⊆ store`
//! holds without a lookup.
//!
//! Exactness of the certificate, writing `D` for removed edge content
//! (deletions plus the old copies of re-weighted pairs), `I` for new
//! content, `G_mid = G_old ∖ D`, and `T' = MSF(G_old) ∖ D`:
//!
//! * deletions never evict survivors: every `e ∈ T'` is minimal across
//!   some cut of `G_old` and stays minimal in the smaller `G_mid`, so
//!   `T' ⊆ MSF(G_mid)`;
//! * contracting the components of `T'`, the remainder of `MSF(G_mid)`
//!   is an MSF of the contracted multigraph, which by the cycle property
//!   only uses, per component pair, the lightest crossing edge of
//!   `G_mid` — exactly the candidate set `C` each PE collects from its
//!   own store shard (inserted pairs are excluded: they are not in
//!   `G_mid`, and travel in `I` anyway). Hence
//!   `MSF(G_mid) ⊆ T' ∪ C`;
//! * sparsification handles the insertions:
//!   `MSF(G_new) = MSF(MSF(G_mid) ∪ I)`, and a sandwich
//!   `MSF(A) ⊆ X ⊆ A ⇒ MSF(X) = MSF(A)` with `X = T' ∪ C ∪ I`
//!   finishes: re-solving the certificate yields `MSF(G_new)` exactly,
//!   with the same `(w, min, max)` tie-breaking a from-scratch run uses.
//!   The static pipeline gets that order from pair-canonical ids
//!   (DESIGN.md §5); the local Kruskal runs in `(w, u, v)` order over the
//!   canonical `u < v` copies, which is the same order. Ids never break
//!   ties here: inserted edges carry fresh ids.

use kamsta_comm::{Comm, FlatBuckets};
use kamsta_core::dist::{boruvka_mst, MstConfig, VertexNumbering};
use kamsta_core::seq::UnionFind;
use kamsta_graph::gen::{block_of, block_range};
use kamsta_graph::hash::FxHashMap;
use kamsta_graph::{CEdge, InputGraph, VertexId, WEdge, Weight};

/// Configuration of a batch-dynamic MSF maintainer.
#[derive(Clone, Copy, Debug)]
pub struct DynConfig {
    /// Vertex-id space bound: every endpoint must lie in `[0, n)`. The
    /// bound fixes the `block_of` home sharding, so it cannot change
    /// after construction.
    pub n: u64,
    /// Configuration of the bootstrap solve. Batches never run the
    /// static pipeline: they solve their certificate locally.
    pub mst: MstConfig,
}

impl DynConfig {
    /// Maintainer over the vertex space `[0, n)` with default bootstrap
    /// parameters.
    pub fn new(n: u64) -> Self {
        Self {
            n: n.max(1),
            mst: MstConfig::default(),
        }
    }

    /// Override the bootstrap solve's configuration (batches do not use
    /// it).
    pub fn with_mst(mut self, mst: MstConfig) -> Self {
        self.mst = mst;
        self
    }
}

/// One edge update. Endpoints are canonicalised internally and
/// self-loops are ignored. The maintained graph is pair-keyed:
/// inserting an existing pair replaces its weight (a delete + insert in
/// one op), deleting an absent pair is a no-op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Update {
    /// Insert (or re-weight) the undirected edge `{u, v}`.
    Insert(WEdge),
    /// Delete the undirected edge `{u, v}` if present.
    Delete { u: VertexId, v: VertexId },
}

/// Statistics of a maintainer's lifetime, the [`FilterStats`] mirror of
/// the dynamic layer. Identical on every PE: all counters are global
/// quantities.
///
/// [`FilterStats`]: kamsta_core::dist::FilterStats
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Batches applied.
    pub batches: u64,
    /// Edges inserted or re-weighted (pair-effective, not request count).
    pub inserts: u64,
    /// Deletions that matched a present edge.
    pub deletes: u64,
    /// Removed or re-weighted pairs that were forest edges.
    pub tree_deletes: u64,
    /// Certificate re-solves performed.
    pub resolves: u64,
    /// Batches answered without a certificate solve.
    pub skipped_resolves: u64,
    /// Total (global, undirected) edges across all certificates.
    pub certificate_edges: u64,
    /// Replacement candidates harvested by component-crossing scans.
    pub replacement_candidates: u64,
}

/// Outcome of one batch. Identical on every PE.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchOutcome {
    /// True when a certificate re-solve ran.
    pub resolved: bool,
    /// Undirected edges in this batch's certificate (0 when skipped).
    pub certificate_edges: u64,
    /// Forest edges this batch removed or re-weighted.
    pub tree_deletes: u64,
    /// Forest weight after the batch.
    pub msf_weight: u64,
    /// Forest size after the batch.
    pub msf_edges: u64,
}

/// One PE's persisted slice of the dynamic state. The service layer
/// checkpoints these between machine runs.
#[derive(Clone, Debug, Default)]
pub struct DynShard {
    /// Current graph: canonical `u < v` edges homed here, lex-sorted.
    pub store: Vec<CEdge>,
    /// Current forest: subset of `store`, lex-sorted.
    pub msf: Vec<CEdge>,
}

/// The replicated scalars of the dynamic state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DynReplicated {
    /// Global forest weight.
    pub weight: u64,
    /// Global forest size (undirected edges).
    pub msf_edges: u64,
    /// Next fresh edge id (ids only break ties between byte-identical
    /// content, but keep the shard order total).
    pub next_id: u64,
    /// Lifetime statistics.
    pub stats: UpdateStats,
}

/// Home PE of a canonical vertex pair under the `block_of` sharding of
/// the vertex space `[0, n)` over `p` PEs: the block of the smaller
/// endpoint.
#[inline]
pub fn home_of_pair(n: u64, p: usize, u: VertexId, v: VertexId) -> usize {
    block_of(n, p as u64, u.min(v)) as usize
}

/// The tight vertex-space bound of a prepared input: one past the
/// largest endpoint, floored at 2 (the smallest space an update
/// workload can draw from). The shared inference behind
/// [`DynMst::bootstrap`]'s range check, the differential harness and
/// the throughput benchmarks — one definition, so the dynamic and
/// from-scratch machines can never disagree on the sharding.
/// Collective.
pub fn vertex_bound(comm: &Comm, input: &InputGraph) -> u64 {
    let local_max = input
        .graph
        .edges
        .iter()
        .map(|e| e.u.max(e.v))
        .max()
        .unwrap_or(0);
    (comm.allreduce_max(local_max) + 1).max(2)
}

/// Binary search a lex-sorted shard for a canonical pair (pairs are
/// unique per shard, so the `(u, v)` prefix decides).
fn find_pair(list: &[CEdge], u: VertexId, v: VertexId) -> Result<usize, usize> {
    list.binary_search_by(|e| (e.u, e.v).cmp(&(u, v)))
}

/// What a certificate solve changes in the forest: the surviving edges
/// Kruskal rejects and the new ones it takes, each in the order Kruskal
/// met them. The new forest is `T′ ∖ evicted ∪ joined`.
#[derive(Debug, Default, PartialEq, Eq)]
struct ForestChange {
    /// Edges of `T′` that close a cycle with lighter certificate edges.
    evicted: Vec<CEdge>,
    /// Edges of `I ∪ C` in the new forest.
    joined: Vec<CEdge>,
}

/// Kruskal over a replicated certificate `T′ ∪ extra` of canonical,
/// pair-disjoint `u < v` edges, in the unique-weight order `(w, u, v)`.
/// `survivors` is `T′` as gathered, lex-sorted, so a stable order on `w`
/// alone is `(w, u, v)` on it; `extra` (`I ∪ C`, tens of edges) is sorted
/// on its own and merged in. `index` numbers `T′`'s endpoints and is
/// handed those of `extra`. Charges both orders by what ran plus one unit
/// per edge for the union-find walk.
fn certificate_forest(
    comm: &Comm,
    index: &mut VertexNumbering,
    survivors: &[CEdge],
    mut extra: Vec<CEdge>,
) -> ForestChange {
    debug_assert!(
        survivors.iter().chain(&extra).all(|e| e.u < e.v),
        "certificate edges are canonical"
    );
    debug_assert!(
        {
            let mut pairs: Vec<(VertexId, VertexId)> =
                survivors.iter().chain(&extra).map(|e| (e.u, e.v)).collect();
            pairs.sort_unstable();
            pairs.windows(2).all(|w| w[0] != w[1])
        },
        "T', I and C are pair-disjoint"
    );
    let order = kamsta_sort::local_radix_order(comm, survivors, |e| Some(e.w))
        .unwrap_or_else(|e| panic!("a replicated forest must be u32-indexable: {e}"));
    kamsta_sort::local_radix_sort(comm, &mut extra, |e| {
        (((e.w as u128) << 64) | e.u as u128, e.v)
    });
    comm.charge_local((survivors.len() + extra.len()) as u64);
    for e in &extra {
        index.number(e.u);
        index.number(e.v);
    }
    let mut uf = UnionFind::new(index.len());
    let mut union = |e: &CEdge| {
        let number = |x: VertexId| index.get(x).expect("certificate endpoints are numbered");
        uf.union(number(e.u), number(e.v))
    };
    let mut change = ForestChange::default();
    let mut extra = extra.into_iter().peekable();
    for e in order.iter().map(|&i| &survivors[i as usize]) {
        while let Some(x) = extra.next_if(|x| (x.w, x.u, x.v) < (e.w, e.u, e.v)) {
            if union(&x) {
                change.joined.push(x);
            }
        }
        if !union(e) {
            change.evicted.push(*e);
        }
    }
    change.joined.extend(extra.filter(|x| union(x)));
    change
}

/// The vertex numbering of a resolving flush, made once over the
/// surviving forest `T′` and extended by the certificate solve: a table
/// over the vertex space `[0, n)` whenever the density rule admits one
/// for `T′`'s endpoint count.
fn flush_numbering(n: u64, survivors: &[CEdge]) -> VertexNumbering {
    let mut index = VertexNumbering::new(Some((0, n - 1)), 2 * survivors.len());
    for e in survivors {
        index.number(e.u);
        index.number(e.v);
    }
    index
}

/// An update routed to its pair home (`delete` ignores `w`).
#[derive(Clone, Copy, Debug)]
struct Routed {
    u: VertexId,
    v: VertexId,
    w: Weight,
    id: u64,
    delete: bool,
}

/// Wire format: fixed-width field walk, declaration order.
impl kamsta_comm::Wire for Routed {
    fn wire_write(&self, out: &mut Vec<u8>) {
        self.u.wire_write(out);
        self.v.wire_write(out);
        self.w.wire_write(out);
        self.id.wire_write(out);
        self.delete.wire_write(out);
    }
    fn wire_read(r: &mut kamsta_comm::WireReader<'_>) -> Result<Self, kamsta_comm::WireError> {
        Ok(Self {
            u: VertexId::wire_read(r)?,
            v: VertexId::wire_read(r)?,
            w: Weight::wire_read(r)?,
            id: u64::wire_read(r)?,
            delete: bool::wire_read(r)?,
        })
    }
    #[inline]
    fn wire_min_size() -> usize {
        29
    }
}

/// The sharded batch-dynamic MSF maintainer. All `&mut self` methods
/// taking a [`Comm`] are collective.
pub struct DynMst {
    cfg: DynConfig,
    p: usize,
    shard: DynShard,
    rep: DynReplicated,
}

impl DynMst {
    /// An empty maintainer over `cfg.n` vertices. Collective only in the
    /// sense that every PE must construct it with the same `cfg`.
    pub fn new(comm: &Comm, cfg: DynConfig) -> Self {
        Self {
            cfg,
            p: comm.size(),
            shard: DynShard::default(),
            rep: DynReplicated::default(),
        }
    }

    /// Seed the maintainer from a prepared input graph: solve the MSF
    /// once with the static pipeline, then shard the canonical edge
    /// content and the forest by pair home. *All* copies route
    /// canonically — pair-canonical ids make both directions of an
    /// undirected edge byte-identical after the swap, so the dedup
    /// collapses them (and parallel copies keep the `(w, id)`-minimal
    /// one, exactly the copy the static pipeline can ever use);
    /// backward-only edges of asymmetric hand-built inputs survive
    /// rather than vanishing from the store. Collective.
    pub fn bootstrap(comm: &Comm, cfg: DynConfig, input: &InputGraph) -> Self {
        // m_global is replicated, so the short-circuit keeps the
        // collective bound computation consistent across PEs.
        assert!(
            input.graph.m_global == 0 || vertex_bound(comm, input) <= cfg.n,
            "input vertex ids exceed the configured space [0, {})",
            cfg.n
        );
        let r = boruvka_mst(comm, input, &cfg.mst);
        let mut me = Self::new(comm, cfg);
        me.shard.store = me.route_canonical(comm, input.graph.edges.clone());
        me.shard.store.dedup_by(|b, a| a.u == b.u && a.v == b.v);
        me.shard.msf = me.adopt(comm, r.edges);
        me.rep.next_id = input.graph.m_global;
        me.refresh_cached(comm);
        me
    }

    /// Rebuild a maintainer from checkpointed parts (the service layer's
    /// resume path). `rep` must be the replicated scalars every PE
    /// checkpointed, `shard` this PE's slice.
    pub fn from_parts(comm: &Comm, cfg: DynConfig, shard: DynShard, rep: DynReplicated) -> Self {
        let mut me = Self::new(comm, cfg);
        me.shard = shard;
        me.rep = rep;
        me
    }

    /// Tear down into checkpointable parts.
    pub fn into_parts(self) -> (DynShard, DynReplicated) {
        (self.shard, self.rep)
    }

    /// Cached global forest weight (replicated; no communication).
    pub fn msf_weight(&self) -> u64 {
        self.rep.weight
    }

    /// Cached global forest size (replicated; no communication).
    pub fn msf_edge_count(&self) -> u64 {
        self.rep.msf_edges
    }

    /// Lifetime statistics (replicated; no communication).
    pub fn stats(&self) -> UpdateStats {
        self.rep.stats
    }

    /// The full forest, replicated (tests/debugging). Collective.
    pub fn collect_msf(&self, comm: &Comm) -> Vec<WEdge> {
        let mut all = comm.allgatherv(self.shard.msf.iter().map(CEdge::wedge).collect());
        all.sort_unstable();
        all
    }

    /// The full current edge set, replicated (tests/debugging).
    /// Collective.
    pub fn collect_edges(&self, comm: &Comm) -> Vec<WEdge> {
        let mut all = comm.allgatherv(self.shard.store.iter().map(CEdge::wedge).collect());
        all.sort_unstable();
        all
    }

    /// Apply one batch of updates. Every PE contributes its own slice of
    /// the batch (the service front-end submits everything from rank 0);
    /// conflicting updates to one pair resolve last-writer-wins in
    /// `(rank, submission order)`. Returns the replicated outcome.
    /// Collective.
    pub fn apply_batch(&mut self, comm: &Comm, batch: &[Update]) -> BatchOutcome {
        let (n, p) = (self.cfg.n, self.p);

        // 1. Canonicalise, drop self-loops, assign globally unique,
        //    submission-ordered ids, route to pair homes.
        let mut ops: Vec<Routed> = Vec::with_capacity(batch.len());
        for up in batch {
            let (u, v, w, delete) = match *up {
                Update::Insert(e) => (e.u, e.v, e.w, false),
                Update::Delete { u, v } => (u, v, 0, true),
            };
            if u == v {
                continue;
            }
            assert!(
                u < n && v < n,
                "update endpoint ({u}, {v}) outside the configured vertex space [0, {n})"
            );
            ops.push(Routed {
                u: u.min(v),
                v: u.max(v),
                w,
                id: 0,
                delete,
            });
        }
        let base = self.rep.next_id + comm.exscan_sum(ops.len() as u64);
        for (k, op) in ops.iter_mut().enumerate() {
            op.id = base + k as u64;
        }
        self.rep.next_id += comm.allreduce_sum(ops.len() as u64);
        comm.charge_local(ops.len() as u64);
        let routed = FlatBuckets::from_dest_fn(p, ops, |o| home_of_pair(n, p, o.u, o.v));
        let mut delta = comm.sparse_alltoallv(routed).into_payload();

        // 2. Last-writer-wins per pair (ids order by (rank, submission)),
        //    then one linear merge against the lex-sorted store shard.
        comm.charge_local(delta.len() as u64);
        kamsta_sort::radix_sort_by_key(&mut delta, |r: &Routed| {
            (((r.u as u128) << 64) | r.v as u128, r.id)
        });
        let mut last: Vec<Routed> = Vec::with_capacity(delta.len());
        for r in delta {
            match last.last_mut() {
                Some(prev) if prev.u == r.u && prev.v == r.v => *prev = r,
                _ => last.push(r),
            }
        }

        let store = std::mem::take(&mut self.shard.store);
        let mut new_store: Vec<CEdge> = Vec::with_capacity(store.len() + last.len());
        let mut inserted: Vec<CEdge> = Vec::new();
        let mut msf_dead: Vec<(VertexId, VertexId)> = Vec::new();
        let mut eff_deletes = 0u64;
        let mut si = 0usize;
        for r in &last {
            let run = store[si..].partition_point(|e| (e.u, e.v) < (r.u, r.v));
            new_store.extend_from_slice(&store[si..si + run]);
            si += run;
            let existing =
                (si < store.len() && (store[si].u, store[si].v) == (r.u, r.v)).then(|| {
                    si += 1;
                    store[si - 1]
                });
            let was_tree = existing.is_some() && find_pair(&self.shard.msf, r.u, r.v).is_ok();
            if r.delete {
                if existing.is_some() {
                    eff_deletes += 1;
                    if was_tree {
                        msf_dead.push((r.u, r.v));
                    }
                }
            } else {
                match existing {
                    // Re-inserting identical content is a graph no-op.
                    Some(e) if e.w == r.w => new_store.push(e),
                    other => {
                        if other.is_some() && was_tree {
                            msf_dead.push((r.u, r.v));
                        }
                        let e = CEdge::new(r.u, r.v, r.w, r.id);
                        new_store.push(e);
                        inserted.push(e);
                    }
                }
            }
        }
        new_store.extend_from_slice(&store[si..]);
        comm.charge_local((store.len() + last.len()) as u64);
        self.shard.store = new_store;
        if !msf_dead.is_empty() {
            self.shard
                .msf
                .retain(|e| msf_dead.binary_search(&(e.u, e.v)).is_err());
        }

        // 3. Global classification: whether the forest can change at all.
        let ins_global = comm.allreduce_sum(inserted.len() as u64);
        let tree_global = comm.allreduce_sum(msf_dead.len() as u64);
        let del_global = comm.allreduce_sum(eff_deletes);
        self.rep.stats.batches += 1;
        self.rep.stats.inserts += ins_global;
        self.rep.stats.deletes += del_global;
        self.rep.stats.tree_deletes += tree_global;
        if ins_global == 0 && tree_global == 0 {
            self.rep.stats.skipped_resolves += 1;
            return BatchOutcome {
                resolved: false,
                certificate_edges: 0,
                tree_deletes: 0,
                msf_weight: self.rep.weight,
                msf_edges: self.rep.msf_edges,
            };
        }

        // 4. Certificate, replicated: the surviving forest, then this
        //    batch's inserts plus (only when the forest was hit) the
        //    replacement candidates. Shards are lex-sorted and homed by
        //    ascending blocks, so the gathered forest is lex-sorted.
        let survivors: Vec<CEdge> = comm.allgatherv(self.shard.msf.clone());
        debug_assert!(
            survivors
                .windows(2)
                .all(|w| (w[0].u, w[0].v) < (w[1].u, w[1].v)),
            "the gathered T' is lex-sorted"
        );
        let mut index = flush_numbering(n, &survivors);
        let mut fresh = if tree_global > 0 {
            self.replacement_candidates(comm, &index, &survivors, &inserted)
        } else {
            Vec::new()
        };
        fresh.extend(inserted);
        let extra = comm.allgatherv(fresh);
        let cert_global = (survivors.len() + extra.len()) as u64;
        self.rep.stats.replacement_candidates += extra.len() as u64 - ins_global;

        // 5. Solve the certificate locally. The new forest shard is the
        //    old one minus the edges Kruskal evicted, merged with the new
        //    forest edges homed here (`block_range` is `home_of_pair`'s
        //    inverse, and certificate edges are canonical); pairs are
        //    unique, so the pair order is the lex order.
        let change = certificate_forest(comm, &mut index, &survivors, extra);
        let weight = |edges: &[CEdge]| edges.iter().map(|e| e.w as u64).sum::<u64>();
        self.rep.weight = weight(&survivors) - weight(&change.evicted) + weight(&change.joined);
        self.rep.msf_edges = (survivors.len() - change.evicted.len() + change.joined.len()) as u64;
        let home = block_range(n, p, comm.rank());
        let mut evicted: Vec<(VertexId, VertexId)> = change
            .evicted
            .iter()
            .filter(|e| home.contains(&e.u))
            .map(|e| (e.u, e.v))
            .collect();
        let mut joined: Vec<CEdge> = change
            .joined
            .into_iter()
            .filter(|e| home.contains(&e.u))
            .collect();
        evicted.sort_unstable();
        joined.sort_unstable_by_key(|e| (e.u, e.v));
        comm.charge_local((self.shard.msf.len() + joined.len()) as u64);
        if !evicted.is_empty() {
            self.shard
                .msf
                .retain(|e| evicted.binary_search(&(e.u, e.v)).is_err());
        }
        let old = std::mem::take(&mut self.shard.msf);
        let mut msf = Vec::with_capacity(old.len() + joined.len());
        let mut rest = &old[..];
        for e in joined {
            let run = rest.partition_point(|x| (x.u, x.v) < (e.u, e.v));
            msf.extend_from_slice(&rest[..run]);
            msf.push(e);
            rest = &rest[run..];
        }
        msf.extend_from_slice(rest);
        self.shard.msf = msf;
        self.rep.stats.resolves += 1;
        self.rep.stats.certificate_edges += cert_global;
        BatchOutcome {
            resolved: true,
            certificate_edges: cert_global,
            tree_deletes: tree_global,
            msf_weight: self.rep.weight,
            msf_edges: self.rep.msf_edges,
        }
    }

    /// The replacement-candidate scan: label the components of the
    /// replicated surviving forest `forest` (up to n − 1 edges, numbered
    /// by `index`) with a local union-find, and harvest from this PE's
    /// store shard the lightest edge per crossed component pair. Pairs
    /// inserted this batch (`inserted`, lex-sorted) are excluded — they
    /// are not part of the pre-batch graph the cut/cycle argument runs
    /// on, and they travel in the certificate anyway. Local.
    fn replacement_candidates(
        &self,
        comm: &Comm,
        index: &VertexNumbering,
        forest: &[CEdge],
        inserted: &[CEdge],
    ) -> Vec<CEdge> {
        let number = |x: VertexId| index.get(x).expect("forest endpoints are numbered");
        let mut uf = UnionFind::new(index.len());
        for e in forest {
            uf.union(number(e.u), number(e.v));
        }
        // A component's label is its representative's vertex id. A vertex
        // outside the forest is a singleton component and its own label,
        // so labels are disjoint by construction.
        let verts = index.verts();
        let comp = index.labels(|d| verts[uf.find(d) as usize]);
        comm.charge_local((forest.len() + self.shard.store.len()) as u64);
        let mut best: FxHashMap<(VertexId, VertexId), CEdge> = FxHashMap::default();
        for e in &self.shard.store {
            let (lu, lv) = (comp.get(e.u), comp.get(e.v));
            // Intra-component edges (forest edges among them) never
            // replace anything.
            if lu == lv || find_pair(inserted, e.u, e.v).is_ok() {
                continue;
            }
            let slot = best.entry((lu.min(lv), lu.max(lv))).or_insert(*e);
            if e.weight_key() < slot.weight_key() {
                *slot = *e;
            }
        }
        best.into_values().collect()
    }

    /// Route edges to their canonical pair homes and lex-sort the
    /// arrivals. Collective.
    fn route_canonical(&self, comm: &Comm, edges: Vec<CEdge>) -> Vec<CEdge> {
        let (n, p) = (self.cfg.n, self.p);
        let canon: Vec<CEdge> = edges
            .into_iter()
            .map(|mut e| {
                if e.u > e.v {
                    std::mem::swap(&mut e.u, &mut e.v);
                }
                e
            })
            .collect();
        comm.charge_local(canon.len() as u64);
        let bufs = FlatBuckets::from_dest_fn(p, canon, |e| home_of_pair(n, p, e.u, e.v));
        let mut mine = comm.sparse_alltoallv(bufs).into_payload();
        kamsta_sort::radix_sort_by_key(&mut mine, CEdge::lex_key);
        mine
    }

    /// Adopt an MSF result (one direction per undirected forest edge,
    /// scattered over PEs) as forest shards: route canonically and swap
    /// in the store's copy per pair, so `msf ⊆ store` by construction.
    /// Collective.
    fn adopt(&self, comm: &Comm, msf: Vec<CEdge>) -> Vec<CEdge> {
        let mine = self.route_canonical(comm, msf);
        mine.iter()
            .map(|e| {
                let i = find_pair(&self.shard.store, e.u, e.v).unwrap_or_else(|_| {
                    panic!("forest edge ({}, {}) missing from store", e.u, e.v)
                });
                self.shard.store[i]
            })
            .collect()
    }

    /// Recompute the replicated weight/size caches from the shards.
    /// Collective.
    fn refresh_cached(&mut self, comm: &Comm) {
        let w: u64 = self.shard.msf.iter().map(|e| e.w as u64).sum();
        self.rep.weight = comm.allreduce_sum(w);
        self.rep.msf_edges = comm.allreduce_sum(self.shard.msf.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kamsta_comm::{Machine, MachineConfig};
    use kamsta_graph::GraphConfig;

    fn small_cfg(n: u64) -> DynConfig {
        DynConfig::new(n).with_mst(MstConfig {
            base_case_constant: 8,
            ..MstConfig::default()
        })
    }

    #[test]
    fn home_of_pair_is_block_sharding() {
        for p in [1usize, 3, 7] {
            for n in [1u64, 10, 97] {
                for v in 0..n {
                    let h = home_of_pair(n, p, v, n - 1);
                    assert!(h < p);
                    assert_eq!(h, block_of(n, p as u64, v.min(n - 1)) as usize);
                }
            }
        }
    }

    #[test]
    fn bootstrap_matches_static_pipeline() {
        let out = Machine::run(MachineConfig::new(4), |comm| {
            let input = InputGraph::generate(comm, GraphConfig::Gnm { n: 80, m: 500 }, 11);
            let d = DynMst::bootstrap(comm, small_cfg(80), &input);
            let r = boruvka_mst(comm, &input, &small_cfg(80).mst);
            let w: u64 = r.edges.iter().map(|e| e.w as u64).sum();
            (d.msf_weight(), comm.allreduce_sum(w), d.msf_edge_count())
        });
        for (dyn_w, static_w, edges) in out.results {
            assert_eq!(dyn_w, static_w);
            assert!(edges <= 79);
        }
    }

    #[test]
    fn insert_only_batches_grow_a_forest() {
        let out = Machine::run(MachineConfig::new(3), |comm| {
            let mut d = DynMst::new(comm, small_cfg(6));
            let batch: Vec<Update> = if comm.rank() == 0 {
                vec![
                    Update::Insert(WEdge::new(0, 1, 4)),
                    Update::Insert(WEdge::new(1, 2, 1)),
                    Update::Insert(WEdge::new(2, 0, 2)),
                    Update::Insert(WEdge::new(4, 5, 9)),
                ]
            } else {
                Vec::new()
            };
            let o = d.apply_batch(comm, &batch);
            (o, d.collect_msf(comm))
        });
        for (o, msf) in out.results {
            assert!(o.resolved);
            assert_eq!(o.msf_weight, 1 + 2 + 9);
            assert_eq!(o.msf_edges, 3);
            assert_eq!(msf.len(), 3);
        }
    }

    #[test]
    fn nontree_deletes_skip_the_resolve() {
        let out = Machine::run(MachineConfig::new(2), |comm| {
            let mut d = DynMst::new(comm, small_cfg(4));
            let setup: Vec<Update> = if comm.rank() == 0 {
                vec![
                    Update::Insert(WEdge::new(0, 1, 1)),
                    Update::Insert(WEdge::new(1, 2, 2)),
                    Update::Insert(WEdge::new(0, 2, 9)), // non-tree
                ]
            } else {
                Vec::new()
            };
            d.apply_batch(comm, &setup);
            let del: Vec<Update> = if comm.rank() == 0 {
                vec![Update::Delete { u: 2, v: 0 }]
            } else {
                Vec::new()
            };
            let o = d.apply_batch(comm, &del);
            (o, d.stats(), d.collect_edges(comm).len())
        });
        for (o, stats, m) in out.results {
            assert!(!o.resolved, "non-tree deletion must not re-solve");
            assert_eq!(o.msf_weight, 3);
            assert_eq!(stats.skipped_resolves, 1);
            assert_eq!(stats.deletes, 1);
            assert_eq!(stats.tree_deletes, 0);
            assert_eq!(m, 2);
        }
    }

    #[test]
    fn tree_delete_finds_the_replacement() {
        let out = Machine::run(MachineConfig::new(3), |comm| {
            let mut d = DynMst::new(comm, small_cfg(3));
            let setup: Vec<Update> = if comm.rank() == 0 {
                vec![
                    Update::Insert(WEdge::new(0, 1, 1)),
                    Update::Insert(WEdge::new(1, 2, 2)),
                    Update::Insert(WEdge::new(0, 2, 9)), // the fallback
                ]
            } else {
                Vec::new()
            };
            d.apply_batch(comm, &setup);
            let del: Vec<Update> = if comm.rank() == 0 {
                vec![Update::Delete { u: 1, v: 2 }]
            } else {
                Vec::new()
            };
            let o = d.apply_batch(comm, &del);
            (o, d.collect_msf(comm), d.stats())
        });
        for (o, msf, stats) in out.results {
            assert!(o.resolved);
            assert_eq!(o.tree_deletes, 1);
            assert_eq!(o.msf_weight, 1 + 9, "0-2 replaces the deleted 1-2");
            assert_eq!(msf, vec![WEdge::new(0, 1, 1), WEdge::new(0, 2, 9)]);
            assert!(stats.replacement_candidates >= 1);
        }
    }

    #[test]
    fn reweight_of_a_tree_edge_reroutes_the_forest() {
        let out = Machine::run(MachineConfig::new(2), |comm| {
            let mut d = DynMst::new(comm, small_cfg(3));
            let setup: Vec<Update> = if comm.rank() == 0 {
                vec![
                    Update::Insert(WEdge::new(0, 1, 1)),
                    Update::Insert(WEdge::new(1, 2, 2)),
                    Update::Insert(WEdge::new(0, 2, 5)),
                ]
            } else {
                Vec::new()
            };
            d.apply_batch(comm, &setup);
            // Re-weight the tree edge 1-2 above the 0-2 fallback.
            let up: Vec<Update> = if comm.rank() == 0 {
                vec![Update::Insert(WEdge::new(1, 2, 50))]
            } else {
                Vec::new()
            };
            let o = d.apply_batch(comm, &up);
            (o, d.collect_msf(comm))
        });
        for (o, msf) in out.results {
            assert_eq!(o.msf_weight, 1 + 5);
            assert_eq!(msf, vec![WEdge::new(0, 1, 1), WEdge::new(0, 2, 5)]);
        }
    }

    #[test]
    fn last_writer_wins_within_a_batch() {
        let out = Machine::run(MachineConfig::new(2), |comm| {
            let mut d = DynMst::new(comm, small_cfg(4));
            let batch: Vec<Update> = if comm.rank() == 0 {
                vec![
                    Update::Insert(WEdge::new(0, 1, 7)),
                    Update::Delete { u: 0, v: 1 },
                    Update::Insert(WEdge::new(0, 1, 3)),
                    Update::Insert(WEdge::new(2, 3, 8)),
                    Update::Delete { u: 3, v: 2 },
                ]
            } else {
                Vec::new()
            };
            let o = d.apply_batch(comm, &batch);
            (o, d.collect_edges(comm))
        });
        for (o, edges) in out.results {
            assert_eq!(edges, vec![WEdge::new(0, 1, 3)]);
            assert_eq!(o.msf_weight, 3);
        }
    }

    #[test]
    fn vertex_ids_at_the_top_of_the_id_space() {
        // Sixteen vertices just below u64::MAX: a weight-1 path plus
        // heavier chords (i, i + 2). No bootstrap, so only the flush runs.
        // The second batch cuts one vertex out of the forest (its path
        // edges go, so it is a singleton of T') and inserts elsewhere;
        // its chords must come back as candidates.
        let at = |i: u64| u64::MAX - 16 + i;
        for p in [1usize, 3] {
            for cut in 0..16u64 {
                let out = Machine::run(MachineConfig::new(p), move |comm| {
                    let mine = |ops: Vec<Update>| if comm.rank() == 0 { ops } else { Vec::new() };
                    let mut live: Vec<WEdge> =
                        (0..15).map(|i| WEdge::new(at(i), at(i + 1), 1)).collect();
                    live.extend((0..14).map(|i| WEdge::new(at(i), at(i + 2), 10 + i as Weight)));
                    let mut d = DynMst::new(comm, DynConfig::new(u64::MAX));
                    d.apply_batch(
                        comm,
                        &mine(live.iter().map(|&e| Update::Insert(e)).collect()),
                    );
                    let (gone, kept): (Vec<WEdge>, Vec<WEdge>) = live
                        .iter()
                        .partition(|e| e.w == 1 && (e.u == at(cut) || e.v == at(cut)));
                    let mut batch: Vec<Update> = gone
                        .iter()
                        .map(|e| Update::Delete { u: e.u, v: e.v })
                        .collect();
                    batch.push(Update::Insert(WEdge::new(at(0), at(15), 5)));
                    let o = d.apply_batch(comm, &mine(batch));
                    let mut live = kept;
                    live.push(WEdge::new(at(0), at(15), 5));
                    live.sort_unstable();
                    (o, live, d.collect_edges(comm), d.collect_msf(comm))
                });
                for (o, live, edges, msf) in out.results {
                    assert!(o.resolved && o.tree_deletes > 0);
                    assert_eq!(edges, live, "p={p} cut={cut}: store");
                    let mut want = kamsta_core::seq::kruskal(&live);
                    want.sort_unstable();
                    assert_eq!(msf, want, "p={p} cut={cut}: forest");
                }
            }
        }
    }

    #[test]
    fn flush_numbering_flips_at_k_ids_per_vertex() {
        // Two vertices per surviving forest edge: a forest of `m` edges
        // admits a table over a space of up to 2 K m ids.
        let k = kamsta_core::dist::DENSE_SPAN_PER_QUERY;
        let path = |m: u64| -> Vec<CEdge> { (0..m).map(|i| CEdge::new(i, i + 1, 1, i)).collect() };
        for m in [1u64, 5, 64] {
            assert!(flush_numbering(2 * k * m, &path(m)).is_table(), "m={m}");
            assert!(
                !flush_numbering(2 * k * m + 1, &path(m)).is_table(),
                "m={m}"
            );
        }
        assert!(!flush_numbering(2, &[]).is_table(), "no forest, no table");
        assert!(!flush_numbering(u64::MAX, &path(1 << 12)).is_table());
    }

    /// The reference: a full `(w, u, v)` sort of the certificate, then
    /// Kruskal — the forest in the order it was taken, and the rejects.
    fn kruskal_by_full_sort(cert: &[CEdge]) -> (Vec<CEdge>, Vec<CEdge>) {
        let mut all = cert.to_vec();
        all.sort_unstable_by_key(|e| (e.w, e.u, e.v));
        let mut uf = UnionFind::new(all.iter().map(|e| e.v as usize + 1).max().unwrap_or(0));
        all.into_iter()
            .partition(|e| uf.union(e.u as u32, e.v as u32))
    }

    #[test]
    fn certificate_keeps_the_order_of_a_full_sort() {
        // T′: a random forest over 300 vertices with weights in 1..=3, so
        // most weights tie and only the (u, v) tie-break orders them;
        // lex-sorted, as gathered. I ∪ C: pairs outside T′, shuffled.
        let n = 300u64;
        let out = Machine::run(MachineConfig::new(1), move |comm| {
            let mix = kamsta_graph::hash::mix64;
            for seed in 0..8u64 {
                let mut survivors: Vec<CEdge> = (1..n)
                    .filter(|&v| !mix(seed ^ v).is_multiple_of(8))
                    .map(|v| CEdge::new(mix(seed + v) % v, v, (mix(v ^ seed) % 3) as Weight + 1, v))
                    .collect();
                survivors.sort_unstable_by_key(|e| (e.u, e.v));
                let mut extra: Vec<CEdge> = (0..200u64)
                    .map(|k| {
                        let (a, b) = (mix(seed ^ (k << 20)) % n, mix(seed ^ (k << 40)) % n);
                        CEdge::new(a.min(b), a.max(b), (mix(k + seed) % 3) as Weight + 1, n + k)
                    })
                    .filter(|e| e.u < e.v && find_pair(&survivors, e.u, e.v).is_err())
                    .collect();
                extra.sort_unstable_by_key(|e| (e.u, e.v));
                extra.dedup_by_key(|e| (e.u, e.v));
                extra.sort_unstable_by_key(|e| mix(e.id ^ seed));
                let cert: Vec<CEdge> = survivors.iter().chain(&extra).copied().collect();
                let (forest, rejected) = kruskal_by_full_sort(&cert);
                let table = flush_numbering(n, &survivors);
                let mut map = VertexNumbering::new(None, 0);
                for e in &survivors {
                    map.number(e.u);
                    map.number(e.v);
                }
                assert!(table.is_table() && !map.is_table());
                for mut index in [table, map] {
                    let change = certificate_forest(comm, &mut index, &survivors, extra.clone());
                    let joined: Vec<CEdge> = forest.iter().filter(|e| e.id >= n).copied().collect();
                    let evicted: Vec<CEdge> =
                        rejected.iter().filter(|e| e.id < n).copied().collect();
                    assert_eq!(change.joined, joined, "seed {seed}: joined, in order");
                    assert_eq!(change.evicted, evicted, "seed {seed}: evicted, in order");
                    // The forest, in order: T′ ∖ evicted ∪ joined, in the
                    // order of a full sort.
                    let mut got: Vec<CEdge> = survivors
                        .iter()
                        .filter(|e| !change.evicted.contains(e))
                        .chain(&change.joined)
                        .copied()
                        .collect();
                    got.sort_unstable_by_key(|e| (e.w, e.u, e.v));
                    assert_eq!(got, forest, "seed {seed}: forest");
                    assert!(!change.evicted.is_empty(), "seed {seed}: nothing evicted");
                }
            }
        });
        assert_eq!(out.results.len(), 1);
    }

    #[test]
    fn stats_accumulate_across_batches() {
        let out = Machine::run(MachineConfig::new(2), |comm| {
            let mut d = DynMst::new(comm, small_cfg(8));
            for k in 0..4u64 {
                let batch: Vec<Update> = if comm.rank() == 0 {
                    vec![Update::Insert(WEdge::new(k, k + 1, (k + 1) as u32))]
                } else {
                    Vec::new()
                };
                d.apply_batch(comm, &batch);
            }
            d.stats()
        });
        for s in out.results {
            assert_eq!(s.batches, 4);
            assert_eq!(s.inserts, 4);
            assert_eq!(s.resolves, 4);
            assert!(s.certificate_edges > 4 + 3 + 2);
        }
    }
}
