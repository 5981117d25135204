//! Personalized (sparse) all-to-all exchange in three flavours, all on the
//! flat zero-copy buffer representation ([`FlatBuckets`]).
//!
//! This module implements Sec. VI-A of the paper ("Reducing Startup
//! Overhead of All-To-All Exchanges"):
//!
//! * **direct** — the `MPI_Alltoallv` analogue: one logical message per
//!   destination, startup cost `α·p`;
//! * **two-level grid** — PEs arranged in a `⌊√p⌋ × ⌈p/c⌉` virtual grid; a
//!   message from `i` to `j` travels via the intermediate PE in row
//!   `row(j)`, column `col(i)`, cutting startup cost to `O(α√p)` at the
//!   price of doubled volume. Includes the paper's incomplete-last-row
//!   rule;
//! * **auto** ([`crate::Comm::sparse_alltoallv`]) — the paper's threshold
//!   rule: use the grid variant when the average bytes per message is below
//!   500 bytes (`GRID_THRESHOLD_BYTES`), direct otherwise.
//!
//! Every strategy sends and receives [`FlatBuckets`]: one contiguous
//! payload per PE, sub-message boundaries expressed as displacement
//! arrays — the exact `sdispls`/`rdispls` layout of `MPI_Alltoallv`.
//! Indirect routes carry a small flat `u32` header per hop describing the
//! sub-message split; β is charged on the true contiguous byte counts.
//!
//! All strategies are written **once** against the transport boundary
//! ([`crate::transport`]): the flat and paired-flat exchange primitives
//! deliver buckets whether the backend is the zero-copy cell blackboard
//! or the `Wire`-encoded byte queues; charges sit above the boundary, so
//! modeled costs are identical under either backend.

use crate::comm::{bytes_of, Comm};
use crate::flat::{FlatBuckets, FlatBuilder};
use crate::wire::Wire;

/// Strategy selector for [`Comm::sparse_alltoallv`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AlltoallKind {
    /// Threshold rule from Sec. VI-A (500 bytes average message size).
    #[default]
    Auto,
    /// Always direct (`α·p` startups) — the paper's "one-level" baseline.
    Direct,
    /// Always two-level grid (`α·√p` startups, 2× volume).
    Grid,
}

/// The [`AlltoallKind::Auto`] rule's switch point, in average bytes per
/// message: below it the grid route wins (the paper's value on
/// SuperMUC-NG).
const GRID_THRESHOLD_BYTES: u64 = 500;

/// The virtual two-dimensional PE grid of Sec. VI-A.
///
/// `c = ⌊√p⌋` columns and `r = ⌈p/c⌉` rows, so `c ≤ r ≤ c + 2`. PE `i`
/// lives at column `i mod c`, row `i / c`. The last row may be incomplete.
#[derive(Clone, Copy, Debug)]
pub struct GridTopology {
    pub p: usize,
    pub c: usize,
    pub r: usize,
}

impl GridTopology {
    pub fn new(p: usize) -> Self {
        assert!(p > 0);
        let c = (p as f64).sqrt().floor() as usize;
        let c = c.max(1);
        let r = p.div_ceil(c);
        debug_assert!(c <= r && r <= c + 2, "paper invariant c <= r <= c+2");
        Self { p, c, r }
    }

    #[inline]
    pub fn col(&self, i: usize) -> usize {
        i % self.c
    }

    #[inline]
    pub fn row(&self, i: usize) -> usize {
        i / self.c
    }

    /// True if the last row of the grid is incomplete (`p != c·r`).
    #[inline]
    pub fn has_incomplete_row(&self) -> bool {
        self.p != self.c * self.r
    }

    /// True if PE `j` is a member of the incomplete last row.
    #[inline]
    pub fn in_incomplete_row(&self, j: usize) -> bool {
        self.has_incomplete_row() && self.row(j) == self.r - 1
    }

    /// The row PE `j` is (virtually) a member of for the second exchange:
    /// its own row, or row `col(j)` if `j` sits in the incomplete last row
    /// (the paper's special rule).
    #[inline]
    pub fn virtual_row(&self, j: usize) -> usize {
        if self.in_incomplete_row(j) {
            self.col(j)
        } else {
            self.row(j)
        }
    }

    /// Intermediate PE for a message from `i` to `j`: row `virtual_row(j)`,
    /// column `col(i)`.
    #[inline]
    pub fn intermediate(&self, i: usize, j: usize) -> usize {
        let t = self.virtual_row(j) * self.c + self.col(i);
        debug_assert!(t < self.p, "intermediate must be a real PE");
        t
    }

    /// PEs that may send to `t` in the first exchange: the members of
    /// `t`'s column.
    pub fn phase1_senders(&self, t: usize) -> Vec<usize> {
        let col = self.col(t);
        (0..self.r)
            .map(|q| q * self.c + col)
            .filter(|&i| i < self.p)
            .collect()
    }

    /// PEs that may send to `j` in the second exchange: the members of
    /// `j`'s virtual row.
    pub fn phase2_senders(&self, j: usize) -> Vec<usize> {
        let vr = self.virtual_row(j);
        (0..self.c)
            .map(|q| vr * self.c + q)
            .filter(|&t| t < self.p)
            .collect()
    }

    /// Final destinations whose traffic is relayed by row `q`'s
    /// intermediates: all `j` with `virtual_row(j) == q`, ascending. Both
    /// endpoints of a relayed message derive the same canonical list, so
    /// sub-message boundaries travel as a plain count array.
    pub fn row_dests(&self, q: usize) -> Vec<usize> {
        (0..self.p).filter(|&j| self.virtual_row(j) == q).collect()
    }
}

impl Comm {
    /// Direct (one-level) all-to-all: the `MPI_Alltoallv` analogue.
    ///
    /// Returns `recv` with `recv.bucket(i)` = payload sent by PE `i` to
    /// this PE. Cost: `α·p + β·max(bytes out, bytes in)`.
    pub fn alltoallv_direct<T: Wire + Clone + Send + Sync + 'static>(
        &self,
        bufs: FlatBuckets<T>,
    ) -> FlatBuckets<T> {
        let p = self.size();
        let out_bytes = bytes_of::<T>(bufs.total_len());
        let recv = self.raw_exchange_flat(bufs);
        let in_bytes = bytes_of::<T>(recv.total_len());
        self.charge_comm(p as u64, out_bytes.max(in_bytes));
        recv
    }

    /// Two-level grid all-to-all (Sec. VI-A). Startup `O(α√p)`, twice the
    /// communication volume of the direct variant. Sub-message boundaries
    /// travel as flat `u32` count headers over the canonical
    /// ([`GridTopology::row_dests`], [`GridTopology::phase1_senders`])
    /// orders, so the payload stays a single contiguous buffer per hop.
    pub fn alltoallv_grid<T: Wire + Clone + Send + Sync + 'static>(
        &self,
        bufs: FlatBuckets<T>,
    ) -> FlatBuckets<T> {
        let p = self.size();
        if p <= 2 {
            return self.alltoallv_direct(bufs);
        }
        let grid = GridTopology::new(p);
        let me = self.rank();

        // Canonical relay lists of every row, bucketed in one O(p) pass
        // (row_dests(q) == rows.bucket(q); the per-row scan would cost
        // O(p·√p) at exactly the scale the grid route targets).
        let rows = FlatBuckets::from_dest_fn(grid.r, (0..p).collect(), |&j| grid.virtual_row(j));

        // Phase 1: forward each destination bucket to its intermediate,
        // concatenated in canonical destination order per intermediate.
        let mut counts1 = vec![0usize; p];
        let mut sub1_counts = vec![0usize; p];
        let mut data1: Vec<T> = Vec::with_capacity(bufs.total_len());
        let mut sub1: Vec<u32> = Vec::new();
        for q in 0..grid.r {
            let dests = rows.bucket(q);
            if dests.is_empty() {
                continue;
            }
            let t = q * grid.c + grid.col(me);
            for &j in dests {
                data1.extend_from_slice(bufs.bucket(j));
                sub1.push(bufs.count(j) as u32);
                counts1[t] += bufs.count(j);
            }
            sub1_counts[t] = dests.len();
        }
        let out1 = bytes_of::<T>(data1.len()) + bytes_of::<u32>(sub1.len());

        // My column relays both ways: I push phase-1 buckets to exactly
        // the PEs that pop phase-1 frames from me.
        let senders1 = grid.phase1_senders(me);
        let dests2: Vec<usize> = rows.bucket(grid.row(me)).to_vec();

        // Phase 2 regroup happens inside the round, while the sources'
        // payloads are still borrowed (cells) / freshly decoded (bytes):
        // for destination j, the sub-messages of all original senders (my
        // column, ascending) are concatenated; offsets into each sender's
        // phase-1 slice are derived from its count header.
        let (in1, data2, sub2, counts2, sub2_counts) = self.paired_flat_round_with(
            FlatBuckets::from_counts(data1, &counts1),
            FlatBuckets::from_counts(sub1, &sub1_counts),
            &senders1,
            &senders1,
            |parts| {
                let in1: u64 = parts
                    .iter()
                    .map(|(d, s)| bytes_of::<T>(d.len()) + bytes_of::<u32>(s.len()))
                    .sum();
                let mut offsets: Vec<usize> = vec![0; parts.len()];
                let mut counts2 = vec![0usize; p];
                let mut sub2_counts = vec![0usize; p];
                let mut data2: Vec<T> = Vec::new();
                let mut sub2: Vec<u32> = Vec::new();
                for (dj, &j) in dests2.iter().enumerate() {
                    for (si, (d, s)) in parts.iter().enumerate() {
                        let cnt = if s.is_empty() { 0 } else { s[dj] as usize };
                        let off = offsets[si];
                        data2.extend_from_slice(&d[off..off + cnt]);
                        offsets[si] = off + cnt;
                        sub2.push(cnt as u32);
                        counts2[j] += cnt;
                        sub2_counts[j] += 1;
                    }
                }
                (in1, data2, sub2, counts2, sub2_counts)
            },
        );
        self.charge_comm(senders1.len() as u64, out1.max(in1));

        let out2 = bytes_of::<T>(data2.len()) + bytes_of::<u32>(sub2.len());
        let senders2 = grid.phase2_senders(me);

        // Assemble the final receive buffer keyed by original source: the
        // message from source s arrived via intermediate(s, me), at the
        // source's position (its row) within that intermediate's column.
        let (in2, out) = self.paired_flat_round_with(
            FlatBuckets::from_counts(data2, &counts2),
            FlatBuckets::from_counts(sub2, &sub2_counts),
            &dests2,
            &senders2,
            |parts| {
                let in2: u64 = parts
                    .iter()
                    .map(|(d, s)| bytes_of::<T>(d.len()) + bytes_of::<u32>(s.len()))
                    .sum();
                let total: usize = parts.iter().map(|(d, _)| d.len()).sum();
                // Flat per-(intermediate, source-slot) exclusive prefix
                // sums over each intermediate's count header.
                let mut pre_start = Vec::with_capacity(parts.len() + 1);
                pre_start.push(0);
                let mut prefix: Vec<usize> = Vec::new();
                for (_, s) in parts {
                    let mut acc = 0usize;
                    prefix.push(0);
                    for &c in *s {
                        acc += c as usize;
                        prefix.push(acc);
                    }
                    pre_start.push(prefix.len());
                }
                // O(1) lookup from an intermediate's rank to its position
                // in the ascending senders2 list.
                let mut sender2_pos = vec![usize::MAX; p];
                for (ti, &t) in senders2.iter().enumerate() {
                    sender2_pos[t] = ti;
                }
                let mut out = FlatBuilder::with_capacity(total, p);
                for s in 0..p {
                    let ti = sender2_pos[grid.intermediate(s, me)];
                    if ti != usize::MAX {
                        let slot = grid.row(s);
                        let pre = &prefix[pre_start[ti]..pre_start[ti + 1]];
                        if slot + 1 < pre.len() {
                            out.extend_from_slice(&parts[ti].0[pre[slot]..pre[slot + 1]]);
                        }
                    }
                    out.seal();
                }
                (in2, out.finish(p))
            },
        );
        self.charge_comm(senders2.len() as u64, out2.max(in2));
        out
    }

    /// Sparse all-to-all with the paper's automatic strategy selection:
    /// measure the global average bytes per message and use the two-level
    /// grid when it is below the threshold (500 bytes on the paper's
    /// system), the direct exchange otherwise.
    pub fn sparse_alltoallv<T: Wire + Clone + Send + Sync + 'static>(
        &self,
        bufs: FlatBuckets<T>,
    ) -> FlatBuckets<T> {
        if self.routes_by_grid(&bufs) {
            self.alltoallv_grid(bufs)
        } else {
            self.alltoallv_direct(bufs)
        }
    }

    /// [`Comm::sparse_alltoallv`] with the received runs handed to
    /// `consume` where they lie, one per source in source order, instead
    /// of returned in an owned buffer. The direct route is the scoped
    /// exchange ([`Comm::alltoallv_runs`]); the grid route assembles its
    /// buffer as it always does, and `consume` reads that. Charges as
    /// [`Comm::sparse_alltoallv`] does, before `consume` runs; `consume`
    /// does local work only — no collective.
    pub fn sparse_alltoallv_with<T, R>(
        &self,
        bufs: FlatBuckets<T>,
        consume: impl FnOnce(&[&[T]]) -> R,
    ) -> R
    where
        T: Wire + Clone + Send + Sync + 'static,
    {
        if self.routes_by_grid(&bufs) {
            let recv = self.alltoallv_grid(bufs);
            return consume(&recv.iter_buckets().collect::<Vec<_>>());
        }
        let p = self.size();
        let out_bytes = bytes_of::<T>(bufs.total_len());
        self.alltoallv_runs(bufs, |runs| {
            let in_bytes = bytes_of::<T>(runs.iter().map(|r| r.len()).sum());
            self.charge_comm(p as u64, out_bytes.max(in_bytes));
            consume(runs)
        })
    }

    /// The strategy of [`Comm::sparse_alltoallv`]: the configured kind,
    /// or under [`AlltoallKind::Auto`] the grid when `p > 8` and the
    /// global average message is below `GRID_THRESHOLD_BYTES` (an
    /// allreduce, so collective in that case).
    fn routes_by_grid<T>(&self, bufs: &FlatBuckets<T>) -> bool {
        let p = self.size();
        match self.alltoall_kind {
            AlltoallKind::Direct => false,
            AlltoallKind::Grid => true,
            AlltoallKind::Auto if p <= 8 => false,
            AlltoallKind::Auto => {
                let total = self.allreduce_sum(bytes_of::<T>(bufs.total_len()));
                total / (p as u64 * p as u64) < GRID_THRESHOLD_BYTES
            }
        }
    }

    /// Positional request/reply exchange: deliver `requests` to their
    /// bucket PEs, resolve every incoming request at the receiver with
    /// `resolve`, and ship the answers back *value-only* — each reply
    /// rides in the bucket of its request, so position alone pairs answer
    /// with question at half the wire volume of a key-value reply.
    /// Returns the answers aligned with the request payload order.
    /// Collective.
    ///
    /// This is the wire pattern behind the MST pipeline's pull-based
    /// label protocol.
    pub fn request_reply<Q, A>(&self, requests: FlatBuckets<Q>, resolve: impl Fn(&Q) -> A) -> Vec<A>
    where
        Q: Wire + Clone + Send + Sync + 'static,
        A: Wire + Clone + Send + Sync + 'static,
    {
        let p = self.size();
        let incoming = self.sparse_alltoallv(requests);
        self.charge_local(incoming.total_len() as u64);
        let reply_counts: Vec<usize> = (0..p).map(|j| incoming.count(j)).collect();
        let answers: Vec<A> = incoming.payload().iter().map(&resolve).collect();
        let replies = FlatBuckets::from_counts(answers, &reply_counts);
        self.sparse_alltoallv(replies).into_payload()
    }
}

/// Convenience used by algorithm crates: deliver keyed items to explicit
/// destination PEs. `items` is a list of `(dest, item)`; the result is the
/// list of items delivered to this PE (sender order preserved within each
/// source). The bucketing is a count-then-scatter pass and the flattening
/// of the receive buffer is free — no nested vectors anywhere.
pub fn route<T: Wire + Clone + Send + Sync + 'static>(
    comm: &Comm,
    items: Vec<(usize, T)>,
) -> Vec<T> {
    let bufs = FlatBuckets::from_pairs(comm.size(), items);
    comm.sparse_alltoallv(bufs).into_payload()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_topology_invariants() {
        for p in 1..200 {
            let g = GridTopology::new(p);
            assert!(g.c * g.r >= p);
            assert!(g.c <= g.r && g.r <= g.c + 2, "p={p}: c={}, r={}", g.c, g.r);
            for j in 0..p {
                for i in 0..p {
                    let t = g.intermediate(i, j);
                    assert!(t < p, "p={p} i={i} j={j} t={t}");
                    // Intermediate shares column with the sender...
                    assert_eq!(g.col(t), g.col(i));
                    // ...and row with the receiver's virtual row.
                    assert_eq!(g.row(t), g.virtual_row(j));
                    // Phase partner lists are consistent with the routing.
                    assert!(g.phase1_senders(t).contains(&i));
                    assert!(g.phase2_senders(j).contains(&t));
                    // The canonical relay list contains the destination.
                    assert!(g.row_dests(g.virtual_row(j)).contains(&j));
                }
            }
            // Every destination appears in exactly one row's relay list.
            let mut seen = vec![0usize; p];
            for q in 0..g.r {
                for j in g.row_dests(q) {
                    seen[j] += 1;
                }
            }
            assert!(seen.iter().all(|&c| c == 1), "p={p}");
        }
    }

    #[test]
    fn grid_partner_counts_are_sqrt_scale() {
        let g = GridTopology::new(1024);
        assert_eq!(g.c, 32);
        assert_eq!(g.r, 32);
        for pe in [0usize, 31, 512, 1023] {
            assert!(g.phase1_senders(pe).len() <= g.r);
            assert!(g.phase2_senders(pe).len() <= g.c);
        }
    }
}
