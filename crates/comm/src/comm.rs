//! The per-PE communicator handle and the basic collective operations.
//!
//! A machine has exactly one communicator, the world: every PE holds one
//! [`Comm`] over all `p` ranks. Algorithms that work on parts of the
//! machine (hypercube quicksort's subcubes) address partners by rank on
//! it rather than deriving sub-communicators.
//!
//! Every operation on [`Comm`] is *collective*: all PEs of the communicator
//! must call it in the same order (standard MPI semantics). Collectives are
//! built from typed exchange cells ([`crate::cells`]) and the dissemination
//! barrier with folded-in clock max-reduction; the modeled α-β cost of each
//! operation follows the complexity stated in Sec. II-A of the paper (e.g.
//! `O(α log p + βℓ)` for broadcast, (all)reduce and prefix sums).
//!
//! Each collective is a **single superstep**: publish into your own typed
//! cell, one barrier, read peers' cells directly. Epoch stamps on the
//! cells validate that readers see exactly the round they expect, which is
//! what lets the old publish → barrier → read → barrier → clear discipline
//! drop its second barrier (see `cells.rs` for the safety argument). A
//! published value is published for its consumers and the last one drops
//! it, so a slice-sized payload lives through its round's reading and no
//! longer. On a single-PE communicator the collectives skip
//! synchronisation entirely.

use crate::alltoall::AlltoallKind;
use crate::barrier::ClockBarrier;
use crate::cells::{CellRegistry, CellSet, Round};
use crate::cost::{Clock, CostModel, PeStats};
use crate::lane::Lane;
use crate::transport::{raise, To, TransportKind};
use crate::wire::{Wire, CH_BARRIER, CH_DATA};
use std::any::{Any, TypeId};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::Arc;

/// State shared by all PEs of a cells-transport machine.
#[derive(Debug)]
pub(crate) struct CommShared {
    pub(crate) barrier: ClockBarrier,
    /// The typed cell blackboard: the data plane.
    pub(crate) cells: CellRegistry,
}

impl CommShared {
    /// `machine_threads` is the machine-wide OS thread count,
    /// `p × threads_per_pe`: hybrid machines count their intra-PE
    /// threads when the barrier judges host oversubscription.
    pub(crate) fn new(p: usize, machine_threads: usize) -> Self {
        Self {
            barrier: ClockBarrier::new(p, machine_threads),
            cells: CellRegistry::new(p),
        }
    }
}

/// What a communicator's collectives run over.
pub(crate) enum Backend {
    /// The shared-cells blackboard and its in-process barrier.
    Cells(Arc<CommShared>),
    /// This PE's end of the byte lane (the `sockets` transport, barrier
    /// included).
    Lane(Lane<TcpStream>),
}

/// This PE's cached handle on one cell set plus its round counter. The
/// counter is PE-local but advances identically on every PE (collectives
/// run in the same order everywhere), so all PEs agree on each round's
/// epoch without sharing a counter.
struct CellCacheEntry {
    set: Arc<dyn Any + Send + Sync>,
    epoch: u64,
}

/// A PE's handle on the machine's communicator (MPI communicator
/// analogue). Cheap to pass by reference into algorithm code.
pub struct Comm {
    rank: usize,
    size: usize,
    backend: Backend,
    clock: Arc<Clock>,
    cost: CostModel,
    /// Hybrid threads per PE, as the machine resolved them.
    threads: usize,
    cell_cache: RefCell<HashMap<TypeId, CellCacheEntry>>,
    /// Round sequence of the byte lane; advances identically on every PE
    /// (SPMD collective order), stamping each frame.
    seq: Cell<u64>,
    /// Lane-barrier episode counter (advances identically on every PE).
    bepoch: Cell<u64>,
    pub(crate) alltoall_kind: AlltoallKind,
    /// Reusable send/scratch buffers for the byte lane. Buckets are
    /// encoded directly into a pooled buffer, handed to the transport,
    /// and recycled once the bytes are on the wire — steady-state rounds
    /// allocate nothing on the send path.
    pool: RefCell<Vec<Vec<u8>>>,
}

impl std::fmt::Debug for Comm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Comm")
            .field("rank", &self.rank)
            .field("size", &self.size)
            .finish()
    }
}

pub(crate) fn bytes_of<T>(n: usize) -> u64 {
    (n * std::mem::size_of::<T>()) as u64
}

impl Comm {
    pub(crate) fn new(
        rank: usize,
        size: usize,
        backend: Backend,
        clock: Arc<Clock>,
        cost: CostModel,
        threads: usize,
        alltoall_kind: AlltoallKind,
    ) -> Self {
        Self {
            rank,
            size,
            backend,
            clock,
            cost,
            threads,
            cell_cache: RefCell::new(HashMap::new()),
            seq: Cell::new(0),
            bepoch: Cell::new(0),
            alltoall_kind,
            pool: RefCell::new(Vec::new()),
        }
    }

    /// This PE's rank within the communicator, `0..size`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of PEs in the communicator.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// The machine cost model in effect.
    #[inline]
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Hybrid threads per PE (`t` in the paper's `boruvka-t` naming).
    #[inline]
    pub fn threads_per_pe(&self) -> usize {
        self.threads
    }

    /// The intra-PE thread pool handle: a [`rayon::ThreadPool`] whose
    /// `install` grants this PE's `threads_per_pe` as the ambient
    /// parallel width. The machine harness already installs every PE's
    /// rank closure at this width, so kernels that simply call
    /// `par_iter`/`join` inherit it; this handle is for callers that
    /// need to *re-establish* the width on another thread or widen a
    /// specific section explicitly. Cheap to construct — all widths
    /// share one global worker pool sized to the host's cores, which is
    /// what keeps `p × t` from oversubscribing the machine.
    pub fn pool(&self) -> rayon::ThreadPool {
        rayon::ThreadPoolBuilder::new()
            .num_threads(self.threads)
            .build()
            .expect("width handles cannot fail to build")
    }

    /// The PE's modeled clock.
    #[inline]
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Snapshot of this PE's cost statistics.
    pub fn stats(&self) -> PeStats {
        self.clock.stats()
    }

    #[inline]
    pub(crate) fn log2p(&self) -> u64 {
        crate::ceil_log2(self.size).max(1) as u64
    }

    /// Charge `ops` units of local work (γ-term, divided by the hybrid
    /// speedup). Algorithms call this at their local kernels so that the
    /// modeled clock reflects computation as well as communication.
    #[inline]
    pub fn charge_local(&self, ops: u64) {
        self.clock.advance(self.cost.local_time(ops, self.threads));
        self.clock.record_local(ops);
    }

    /// Charge a communication event of `msgs` message startups and `bytes`
    /// bottleneck volume onto this PE's clock.
    #[inline]
    pub fn charge_comm(&self, msgs: u64, bytes: u64) {
        self.clock.advance(self.cost.comm_time(msgs, bytes));
        self.clock.record_comm(msgs, bytes);
    }

    /// Internal rendezvous: synchronises PEs *and* max-syncs modeled
    /// clocks (the max-reduction rides inside the dissemination rounds),
    /// but charges nothing. Collectives are built from this.
    pub(crate) fn sync(&self) {
        if self.size > 1 {
            let synced = match &self.backend {
                Backend::Cells(shared) => shared.barrier.wait(self.rank, self.clock.now()),
                Backend::Lane(lane) => self.lane_barrier(lane),
            };
            self.clock.set(synced);
        }
    }

    /// Dissemination barrier over the byte lane, folding in the clock
    /// max exactly like [`ClockBarrier::wait`]: round `k` sends the
    /// running maximum to rank `me + 2^k` and receives from `me − 2^k`
    /// (mod size), `⌈log₂ size⌉` rounds in total. `max` is associative,
    /// commutative, and exact over `f64`, so every PE converges on the
    /// bit-identical synced clock the in-process barrier would produce.
    fn lane_barrier(&self, lane: &Lane<TcpStream>) -> f64 {
        let episode = self.bepoch.get() + 1;
        self.bepoch.set(episode);
        let mut best = self.clock.now();
        for k in 0..crate::ceil_log2(self.size) {
            let code = (episode << 8) | k as u64;
            let to = (self.rank + (1 << k)) % self.size;
            let from = (self.rank + self.size - (1 << k)) % self.size;
            lane.send(to, CH_BARRIER, code, best.to_bits(), &[])
                .unwrap_or_else(|e| raise(e));
            let bits = lane.recv_barrier(from, code).unwrap_or_else(|e| raise(e));
            best = best.max(f64::from_bits(bits));
        }
        best
    }

    /// This PE's end of the byte lane. The lane primitives of
    /// `transport.rs` are only reached when [`Comm::has_byte_lane`].
    fn lane(&self) -> &Lane<TcpStream> {
        match &self.backend {
            Backend::Lane(lane) => lane,
            Backend::Cells(_) => unreachable!("byte-lane primitive on the cells transport"),
        }
    }

    /// Whether this communicator's frames travel the byte lane rather
    /// than the cells blackboard.
    #[inline]
    pub(crate) fn has_byte_lane(&self) -> bool {
        matches!(self.backend, Backend::Lane(..))
    }

    /// Take a cleared scratch buffer from the lane pool (or allocate a
    /// fresh one on the first rounds). Return it with [`Comm::buf_put`]
    /// once the bytes are on the wire so later rounds reuse the capacity.
    pub(crate) fn buf_take(&self) -> Vec<u8> {
        let mut buf = self.pool.borrow_mut().pop().unwrap_or_default();
        buf.clear();
        buf
    }

    /// Recycle a scratch buffer into the lane pool. The pool is bounded;
    /// beyond that, buffers are simply dropped.
    pub(crate) fn buf_put(&self, buf: Vec<u8>) {
        let mut pool = self.pool.borrow_mut();
        if pool.len() < 32 {
            pool.push(buf);
        }
    }

    /// Send one coalesced bucket frame to rank `dst` on the byte lane,
    /// recycling the buffer afterwards. Transport failures abort the PE
    /// with a typed error (see [`crate::transport::raise`]).
    pub(crate) fn lane_send(&self, dst: usize, seq: u64, tag: u64, buf: Vec<u8>) {
        self.lane()
            .send(dst, CH_DATA, seq, tag, &buf)
            .unwrap_or_else(|e| raise(e));
        self.buf_put(buf);
    }

    /// Broadcast one encoded frame to every *other* rank. The bytes are
    /// encoded exactly once: the lane writes the same buffer to each
    /// peer's pipe.
    pub(crate) fn lane_broadcast(&self, seq: u64, tag: u64, buf: Vec<u8>) {
        let lane = self.lane();
        for dst in (0..self.size).filter(|&dst| dst != self.rank) {
            lane.send(dst, CH_DATA, seq, tag, &buf)
                .unwrap_or_else(|e| raise(e));
        }
        self.buf_put(buf);
    }

    /// Pop the round-`seq` frame from rank `src` off the byte lane and
    /// decode it in place: `f` gets a borrowed view of the payload (no
    /// copy out of the lane's receive buffer, which the lane recycles).
    pub(crate) fn lane_pop_with<R>(
        &self,
        src: usize,
        seq: u64,
        tag: u64,
        what: &str,
        f: impl FnOnce(&[u8]) -> Result<R, crate::wire::WireError>,
    ) -> R {
        self.lane()
            .recv_data(src, seq, tag, what, f)
            .unwrap_or_else(|e| raise(e))
            .unwrap_or_else(|e| {
                raise(crate::transport::TransportError::Protocol(format!(
                    "decoding {what} of round {seq}: {e}"
                )))
            })
    }

    /// The transport this communicator runs over.
    #[inline]
    pub fn transport(&self) -> TransportKind {
        match &self.backend {
            Backend::Cells(_) => TransportKind::Cells,
            Backend::Lane(_) => TransportKind::Sockets,
        }
    }

    /// Next byte-transport round sequence number (advances identically
    /// on every PE: collectives are SPMD-ordered).
    #[inline]
    pub(crate) fn next_seq(&self) -> u64 {
        let s = self.seq.get() + 1;
        self.seq.set(s);
        s
    }

    /// Start a single-superstep round on the cell set for type `T`: the
    /// per-type epoch advances by one (identically on every PE), and the
    /// set is resolved from the PE-local cache (registry mutex only on
    /// first use of a type). Cells transport only.
    pub(crate) fn cells_round<T: Send + 'static>(&self) -> Round<T> {
        let Backend::Cells(shared) = &self.backend else {
            unreachable!("cells round on a byte-lane transport");
        };
        let mut cache = self.cell_cache.borrow_mut();
        let entry = cache
            .entry(TypeId::of::<T>())
            .or_insert_with(|| CellCacheEntry {
                set: shared.cells.get::<T>(),
                epoch: 0,
            });
        entry.epoch += 1;
        let set = Arc::clone(&entry.set)
            .downcast::<CellSet<T>>()
            .expect("cell cache entry keyed by TypeId");
        Round::new(set, entry.epoch, self.rank)
    }

    /// Explicit barrier (collective). Charges `α·log p`.
    pub fn barrier(&self) {
        self.charge_comm(self.log2p(), 0);
        self.sync();
    }

    // ------------------------------------------------------------------
    // rooted / replicated collectives
    // ------------------------------------------------------------------

    /// Broadcast `value` from `root` to all PEs (collective).
    ///
    /// Non-root PEs pass `None`. Cost: `α log p + β·bytes`.
    pub fn broadcast<T: Wire + Clone + Send + Sync + 'static>(
        &self,
        root: usize,
        value: Option<T>,
    ) -> T {
        debug_assert!(root < self.size);
        if self.size == 1 {
            self.charge_comm(self.log2p(), bytes_of::<T>(1));
            return value.expect("root must supply a value to broadcast");
        }
        let round = self.xround::<T>();
        if self.rank == root {
            round.post(
                To::All,
                value.expect("root must supply a value to broadcast"),
            );
        }
        self.sync();
        let out = round.read_owned(root);
        self.charge_comm(self.log2p(), bytes_of::<T>(1));
        out
    }

    /// Broadcast a vector from `root`; cost `α log p + β·len·size_of::<T>()`.
    pub fn broadcast_vec<T: Wire + Clone + Send + Sync + 'static>(
        &self,
        root: usize,
        value: Option<Vec<T>>,
    ) -> Vec<T> {
        debug_assert!(root < self.size);
        if self.size == 1 {
            let v = value.expect("root must supply a value to broadcast");
            self.charge_comm(self.log2p(), bytes_of::<T>(v.len()));
            return v;
        }
        let round = self.xround::<Vec<T>>();
        if self.rank == root {
            round.post(
                To::All,
                value.expect("root must supply a value to broadcast"),
            );
        }
        self.sync();
        let out = round.read_owned(root);
        self.charge_comm(self.log2p(), bytes_of::<T>(out.len()));
        out
    }

    /// Gather one value per PE at `root` (rank order). Returns `Some` on the
    /// root, `None` elsewhere.
    pub fn gather<T: Wire + Send + 'static>(&self, root: usize, value: T) -> Option<Vec<T>> {
        debug_assert!(root < self.size);
        if self.size == 1 {
            self.charge_comm(self.log2p(), bytes_of::<T>(1));
            return Some(vec![value]);
        }
        let round = self.xround::<T>();
        round.post(To::One(root), value);
        self.sync();
        let out = if self.rank == root {
            Some((0..self.size).map(|r| round.take(r)).collect())
        } else {
            None
        };
        let total = bytes_of::<T>(self.size);
        if self.rank == root {
            self.charge_comm(self.log2p(), total);
        } else {
            self.charge_comm(self.log2p(), bytes_of::<T>(1));
        }
        out
    }

    /// Gather a vector per PE at `root`, concatenated in rank order.
    pub fn gatherv<T: Wire + Send + 'static>(&self, root: usize, value: Vec<T>) -> Option<Vec<T>> {
        debug_assert!(root < self.size);
        if self.size == 1 {
            self.charge_comm(self.log2p(), bytes_of::<T>(value.len()));
            return Some(value);
        }
        let own = bytes_of::<T>(value.len());
        let round = self.xround::<Vec<T>>();
        round.post(To::One(root), value);
        self.sync();
        let out = if self.rank == root {
            let mut all = Vec::new();
            for r in 0..self.size {
                all.extend(round.take(r));
            }
            Some(all)
        } else {
            None
        };
        match &out {
            Some(all) => self.charge_comm(self.log2p(), bytes_of::<T>(all.len())),
            None => self.charge_comm(self.log2p(), own),
        }
        out
    }

    /// All PEs obtain the vector of every PE's `value`, in rank order.
    /// Cost: `α log p + β·p·size_of::<T>()` (ℓ = total message length).
    pub fn allgather<T: Wire + Clone + Send + Sync + 'static>(&self, value: T) -> Vec<T> {
        let all = if self.size == 1 {
            vec![value]
        } else {
            let round = self.xround::<T>();
            round.post(To::All, value);
            self.sync();
            (0..self.size).map(|r| round.read_owned(r)).collect()
        };
        self.charge_comm(self.log2p(), bytes_of::<T>(self.size));
        all
    }

    /// All PEs obtain the concatenation (rank order) of every PE's vector.
    /// Cost: `α log p + β·ℓ` with ℓ the sum of all message lengths
    /// (the allgather/gossiping bound from Sec. II-A).
    pub fn allgatherv<T: Wire + Clone + Send + Sync + 'static>(&self, value: Vec<T>) -> Vec<T> {
        if self.size == 1 {
            self.charge_comm(self.log2p(), bytes_of::<T>(value.len()));
            return value;
        }
        let round = self.xround::<Vec<T>>();
        round.post(To::All, value);
        self.sync();
        let all = round.read_all(|parts| {
            let mut all = Vec::with_capacity(parts.iter().map(|v| v.len()).sum());
            for v in parts {
                all.extend_from_slice(v);
            }
            all
        });
        self.charge_comm(self.log2p(), bytes_of::<T>(all.len()));
        all
    }

    // ------------------------------------------------------------------
    // reductions and scans
    // ------------------------------------------------------------------

    /// Reduce all PEs' values with `op` at `root` (deterministic rank-order
    /// fold). Cost: `α log p + β·size_of::<T>()`.
    pub fn reduce<T, F>(&self, root: usize, value: T, op: F) -> Option<T>
    where
        T: Wire + Clone + Send + Sync + 'static,
        F: Fn(&T, &T) -> T,
    {
        let gathered = self.gather(root, value);
        gathered.map(|vals| {
            let mut it = vals.into_iter();
            let first = it.next().expect("communicator is non-empty");
            it.fold(first, |acc, x| op(&acc, &x))
        })
    }

    /// All-reduce: every PE obtains `op` folded over all values in rank
    /// order (deterministic even for non-commutative `op`).
    /// Cost: `α log p + β·size_of::<T>()`.
    pub fn allreduce<T, F>(&self, value: T, op: F) -> T
    where
        T: Wire + Clone + Send + Sync + 'static,
        F: Fn(&T, &T) -> T,
    {
        let all = self.allgather(value);
        // The allgather already charged α log p + β·p·s; the extra fold is
        // local and negligible for scalars.
        let mut it = all.into_iter();
        let first = it.next().expect("communicator is non-empty");
        it.fold(first, |acc, x| op(&acc, &x))
    }

    /// Convenience: global sum of a `u64`.
    pub fn allreduce_sum(&self, value: u64) -> u64 {
        self.allreduce(value, |a, b| a + b)
    }

    /// Convenience: global maximum of a `u64`.
    pub fn allreduce_max(&self, value: u64) -> u64 {
        self.allreduce(value, |a, b| *a.max(b))
    }

    /// Exclusive prefix "sum" with `op` over rank order; rank 0 receives
    /// `identity`. Cost: `α log p + β·size_of::<T>()`.
    pub fn exscan<T, F>(&self, value: T, identity: T, op: F) -> T
    where
        T: Wire + Clone + Send + Sync + 'static,
        F: Fn(&T, &T) -> T,
    {
        let all = self.allgather(value);
        all[..self.rank].iter().fold(identity, |acc, x| op(&acc, x))
    }

    /// Exclusive prefix sum of `u64` values (the common case: computing
    /// global offsets of distributed sequences).
    pub fn exscan_sum(&self, value: u64) -> u64 {
        self.exscan(value, 0, |a, b| a + b)
    }

    // ------------------------------------------------------------------
    // point-to-point (paired) exchange
    // ------------------------------------------------------------------

    /// Paired send/receive, collective over the communicator: *every* PE
    /// must call this each round, passing `None`s if idle. Used by the
    /// hypercube building blocks.
    ///
    /// `send` is `(destination, payload)`; `recv_from` names the rank whose
    /// payload to take. Cost per side: `α + β·payload bytes`.
    pub fn exchange<V: Wire + Send + 'static>(
        &self,
        send: Option<(usize, V)>,
        recv_from: Option<usize>,
    ) -> Option<V> {
        if self.size == 1 {
            debug_assert!(send.is_none(), "self-exchange is a protocol bug");
            debug_assert!(recv_from.is_none());
            return None;
        }
        let round = self.xround::<V>();
        let sent = send.is_some();
        if let Some((dest, payload)) = send {
            debug_assert!(dest < self.size, "exchange dest out of range");
            debug_assert_ne!(dest, self.rank, "self-exchange is a protocol bug");
            round.post(To::One(dest), payload);
        }
        self.sync();
        let received = recv_from.map(|src| {
            debug_assert_ne!(src, self.rank);
            round.take(src)
        });
        if sent || received.is_some() {
            self.charge_comm(1, 0); // β charged by callers who know sizes
        }
        received
    }
}
