//! The block-distributed representative array of Sec. V.

use crate::pull::{dense_width, pull_values, IdTable, Pulled};
use kamsta_comm::{route, Comm};

/// A block-distributed array over a dense id space `[0, n)`, holding one
/// `u64` per id — the representative/parent arrays of Filter-Borůvka's
/// distributed filtering and of the sparse-matrix baseline. PE `i` owns
/// the contiguous block `[i·n/p, (i+1)·n/p)`; entries start as the
/// identity.
#[derive(Clone, Debug)]
pub struct DistArray {
    values: Vec<u64>,
    lo: u64,
    n: u64,
    p: usize,
}

impl DistArray {
    /// Create the identity array over `[0, n)`. Collective only in the
    /// sense that every PE must construct it with the same `n`.
    pub fn new(comm: &Comm, n: u64) -> Self {
        let p = comm.size();
        let rank = comm.rank();
        let lo = Self::block_start(n, p, rank);
        let hi = Self::block_start(n, p, rank + 1);
        Self {
            values: (lo..hi).collect(),
            lo,
            n,
            p,
        }
    }

    fn block_start(n: u64, p: usize, i: usize) -> u64 {
        (i as u64).saturating_mul(n) / p as u64
    }

    /// Owning PE of index `id`.
    pub fn home(&self, id: u64) -> usize {
        debug_assert!(id < self.n);
        let mut dest = ((id as u128 * self.p as u128) / self.n.max(1) as u128) as usize;
        dest = dest.min(self.p - 1);
        while dest > 0 && id < Self::block_start(self.n, self.p, dest) {
            dest -= 1;
        }
        while dest + 1 < self.p && id >= Self::block_start(self.n, self.p, dest + 1) {
            dest += 1;
        }
        dest
    }

    /// Number of entries this PE owns.
    pub fn local_len(&self) -> usize {
        self.values.len()
    }

    /// Fetch `a[id]` for every queried id (duplicates welcome), as a
    /// [`Pulled`] over the array's id space. Collective. The block home
    /// is monotone in the id, so both exchange directions are count-only
    /// flat buffers.
    pub fn bulk_get(&self, comm: &Comm, ids: Vec<u64>) -> Pulled {
        let table = dense_width(self.span(), ids.len());
        self.get_into(comm, ids, table)
    }

    /// [`DistArray::bulk_get`] with the density rule overridden: `dense`
    /// asks for the table however few ids are queried, `!dense` for the
    /// sort-and-hash fallback. Same requests, replies and charges — this
    /// is the pair `bench_pull` times and the agreement tests compare.
    #[doc(hidden)]
    pub fn bulk_get_forced(&self, comm: &Comm, ids: Vec<u64>, dense: bool) -> Pulled {
        self.get_into(comm, ids, dense.then_some((0, self.n as usize)))
    }

    fn get_into(&self, comm: &Comm, ids: Vec<u64>, table: Option<(u64, usize)>) -> Pulled {
        pull_values(
            comm,
            ids,
            table,
            |id| self.home(id),
            |id| self.values[(id - self.lo) as usize],
        )
    }

    /// The array's id space as a closed range; `None` when it is empty.
    fn span(&self) -> Option<(u64, u64)> {
        self.n.checked_sub(1).map(|hi| (0, hi))
    }

    /// Write `a[id] = value` for every pair (last writer per id wins
    /// deterministically by sender rank, then submission order).
    /// Collective.
    pub fn bulk_set(&mut self, comm: &Comm, updates: Vec<(u64, u64)>) {
        comm.charge_local(updates.len() as u64);
        let routed: Vec<(usize, (u64, u64))> = updates
            .into_iter()
            .map(|(id, val)| (self.home(id), (id, val)))
            .collect();
        for (id, val) in route(comm, routed) {
            self.values[(id - self.lo) as usize] = val;
        }
    }

    /// Shortcut the array to its roots by pointer doubling: repeatedly
    /// replace every entry by the entry it points at, until the global
    /// fixpoint. Requires the pointer graph to be a forest with self-loop
    /// roots. Collective.
    pub fn compress(&mut self, comm: &Comm) {
        loop {
            let targets: Vec<u64> = self
                .values
                .iter()
                .enumerate()
                .filter(|&(i, &v)| v != self.lo + i as u64)
                .map(|(_, &v)| v)
                .collect();
            let hop = self.bulk_get(comm, targets);
            let mut changed = 0u64;
            comm.charge_local(self.values.len() as u64);
            for v in self.values.iter_mut() {
                if let Some(nv) = hop.get(*v) {
                    if nv != *v {
                        *v = nv;
                        changed += 1;
                    }
                }
            }
            if comm.allreduce_sum(changed) == 0 {
                break;
            }
        }
    }

    /// Absorb a relabeling known at rank 0: the root passes the
    /// `(old, new)` pairs that change something, ascending by `old`
    /// (other PEs pass `None`); they are broadcast and every PE replaces
    /// each stored `old` in its block by its `new` — through an id table
    /// sized by the density rule for one lookup per block entry: a table
    /// while a block is a fair share of the array, a map at large p. In
    /// Filter-Borůvka the stored values are representatives and a vertex
    /// stops being one at most once, so all the calls of a run together
    /// broadcast at most `n` pairs. Collective.
    pub fn absorb_from_root(&mut self, comm: &Comm, changes: Option<Vec<(u64, u64)>>) {
        let changes = comm.broadcast_vec(0, changes);
        if changes.is_empty() {
            return;
        }
        let mut renamed = IdTable::new(self.span(), self.values.len());
        for &(old, new) in &changes {
            *renamed.slot(old) = new;
        }
        comm.charge_local(self.values.len() as u64);
        for v in self.values.iter_mut() {
            if let Some(nv) = renamed.get(*v) {
                *v = nv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pull::tests::ids_in;
    use kamsta_comm::{Machine, MachineConfig};

    #[test]
    fn dist_array_blocks_cover_space() {
        let out = Machine::run(MachineConfig::new(5), |comm| {
            let a = DistArray::new(comm, 23);
            let homes: Vec<usize> = (0..23).map(|i| a.home(i)).collect();
            (a.local_len(), homes)
        });
        let total: usize = out.results.iter().map(|(l, _)| l).sum();
        assert_eq!(total, 23);
        // All PEs agree on the home function, and it is monotone.
        let homes = &out.results[0].1;
        for r in &out.results {
            assert_eq!(&r.1, homes);
        }
        assert!(homes.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn dist_array_get_set_compress() {
        let out = Machine::run(MachineConfig::new(3), |comm| {
            let mut a = DistArray::new(comm, 10);
            // Build the chain 9 → 8 → … → 1 → 0 collaboratively.
            let updates: Vec<(u64, u64)> = if comm.rank() == 0 {
                (1..10).map(|i| (i, i - 1)).collect()
            } else {
                Vec::new()
            };
            a.bulk_set(comm, updates);
            a.compress(comm);
            let got = a.bulk_get(comm, (0..10).collect());
            (0..10).map(|i| got.get(i).unwrap()).collect::<Vec<u64>>()
        });
        for r in out.results {
            assert_eq!(r, vec![0; 10]);
        }
    }

    /// `DistArray::absorb_from_root` against rewriting the array's
    /// contents (`stored[i]` at index `i`) sequentially.
    fn assert_absorb_matches(p: usize, stored: &[u64], changes: &[(u64, u64)], what: &str) {
        let n = stored.len() as u64;
        let want: Vec<u64> = stored
            .iter()
            .map(|v| changes.iter().find(|c| c.0 == *v).map_or(*v, |c| c.1))
            .collect();
        let (stored, changes) = (stored.to_vec(), changes.to_vec());
        let out = Machine::run(MachineConfig::new(p), move |comm| {
            let mut a = DistArray::new(comm, n);
            let root = comm.rank() == 0;
            let writes = stored.iter().enumerate().map(|(i, &v)| (i as u64, v));
            a.bulk_set(comm, if root { writes.collect() } else { Vec::new() });
            a.absorb_from_root(comm, root.then(|| changes.clone()));
            let got = a.bulk_get(comm, (0..n).collect());
            (0..n).map(|i| got.get(i).unwrap()).collect::<Vec<u64>>()
        });
        for (rank, got) in out.results.iter().enumerate() {
            assert_eq!(got, &want, "{what}: p = {p}, rank {rank}");
        }
    }

    #[test]
    fn absorb_matches_a_sequential_rewrite_on_pinned_maps() {
        let stored: Vec<u64> = (0..23).map(|i| (i * 7) % 23).collect();
        let everything: Vec<(u64, u64)> = (0..23).map(|v| (v, v / 4)).collect();
        let identity: Vec<(u64, u64)> = (0..23).map(|v| (v, v)).collect();
        for p in [1usize, 2, 4, 5] {
            // 23 entries: p = 2, 4, 5 do not divide n.
            assert_absorb_matches(p, &stored, &[], "empty map");
            assert_absorb_matches(p, &stored, &identity, "identity map");
            assert_absorb_matches(p, &stored, &everything, "every block touched");
            assert_absorb_matches(p, &stored, &[(3, 0), (22, 1)], "two pairs");
        }
        // 23 ids over 12 PEs: blocks of one or two entries, past the
        // density rule — the rewrite goes through the map.
        assert_absorb_matches(12, &stored, &everything, "p = 12, small map");
        // Fewer entries than PEs: some blocks are empty.
        assert_absorb_matches(5, &[2, 0, 1], &[(2, 0), (1, 0)], "n < p");
        assert_absorb_matches(4, &[0], &[(0, 0)], "one entry");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn absorb_matches_a_sequential_rewrite(
                p in 1usize..6,
                n in 1u64..80,
                pairs in 0usize..80,
                seed in any::<u64>(),
            ) {
                let stored = ids_in(0, n, n as usize, seed);
                let mut changes: Vec<(u64, u64)> = ids_in(0, n, pairs, !seed)
                    .into_iter()
                    .map(|old| (old, kamsta_graph::hash::mix64(old ^ seed) % n))
                    .collect();
                changes.sort_unstable();
                changes.dedup_by_key(|c| c.0);
                assert_absorb_matches(p, &stored, &changes, "random label map");
            }
        }
    }
}
