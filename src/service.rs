//! The serving front-end over the batch-dynamic maintainer: a request
//! loop that queues updates, applies them in batches on the simulated
//! machine, and answers forest queries from the cached sharded state
//! without spinning the machine up at all.
//!
//! Batching policy: updates accumulate in a queue and flush either when
//! the queue reaches `max_batch` (amortising the per-batch certificate
//! re-solve over many updates — the knob `dyn_throughput` sweeps) or
//! when a query arrives (queries are strongly consistent: they always
//! observe every previously submitted update). Between flushes the
//! per-PE [`DynShard`]s and the replicated scalars are checkpointed in
//! the service, so consecutive machine runs resume where the last one
//! left off.

use kamsta_comm::{Machine, MachineConfig, MachineError};
use kamsta_dyn::{
    home_of_pair, BatchOutcome, DynConfig, DynMst, DynReplicated, DynShard, Update, UpdateStats,
};
use kamsta_graph::{GraphConfig, InputGraph, VertexId, WEdge};

/// A failed service operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceError {
    /// This call's machine run failed with a typed error. The service
    /// is now **poisoned**: the batch that failed is dropped, the
    /// cached forest state stays at the last successful flush, and
    /// every subsequent fallible call returns
    /// [`ServiceError::Degraded`] — typed, immediate, never a hang.
    Machine(MachineError),
    /// The service was already poisoned by an earlier failure (carried
    /// inside); the request was refused without spinning up a machine.
    Degraded(MachineError),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Machine(e) => write!(f, "machine run failed: {e}"),
            ServiceError::Degraded(e) => {
                write!(f, "service degraded by an earlier failure: {e}")
            }
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Machine(e) | ServiceError::Degraded(e) => Some(e),
        }
    }
}

/// An MSF service over a simulated machine: owns the sharded dynamic
/// state, batches updates, serves queries from cache.
pub struct MstService {
    machine: MachineConfig,
    cfg: DynConfig,
    shards: Vec<DynShard>,
    rep: DynReplicated,
    queue: Vec<Update>,
    max_batch: usize,
    /// `Some` once a machine run failed unrecoverably: the service is
    /// degraded and refuses further machine work (see [`ServiceError`]).
    poisoned: Option<MachineError>,
}

/// The one construction path for [`MstService`]: a fluent builder whose
/// fallible [`build`](MstServiceBuilder::build) performs all validation
/// and environment resolution (through [`MachineConfig::resolve`]) in
/// one place.
///
/// ```
/// use kamsta::{DynConfig, MachineConfig, MstService, TransportKind};
///
/// let svc = MstService::builder(4, DynConfig::new(64))
///     .machine(MachineConfig::new(4).with_transport(TransportKind::Sockets))
///     .max_batch(16)
///     .build()
///     .unwrap();
/// assert_eq!(svc.pending(), 0);
/// ```
#[derive(Clone, Debug)]
pub struct MstServiceBuilder {
    pes: usize,
    cfg: DynConfig,
    machine: Option<MachineConfig>,
    max_batch: usize,
}

impl MstServiceBuilder {
    /// Use a full machine configuration (all-to-all strategy, cost
    /// model, transport). Its PE count must match the builder's.
    pub fn machine(mut self, machine: MachineConfig) -> Self {
        self.machine = Some(machine);
        self
    }

    /// Auto-flush threshold (default 64 queued updates; clamped to 1).
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Validate and construct the service. A changed PE count, zero
    /// PEs, an unknown `KAMSTA_TRANSPORT`, or a bad socket setup all
    /// come back as typed [`MachineError`]s instead of poisoning a PE
    /// thread on the first flush.
    pub fn build(self) -> Result<MstService, MachineError> {
        let mut machine = self.machine.unwrap_or_else(|| MachineConfig::new(self.pes));
        if machine.pes != self.pes {
            return Err(MachineError::PeCountMismatch {
                expected: self.pes,
                got: machine.pes,
            });
        }
        // Pin the env-resolved transport and hybrid width so the
        // validation is durable: a KAMSTA_TRANSPORT or KAMSTA_THREADS
        // change after construction must not poison a later auto-flush.
        let resolved = machine.resolve()?;
        machine.transport = Some(resolved.transport);
        machine.threads = Some(resolved.threads);
        Ok(MstService {
            machine,
            cfg: self.cfg,
            shards: vec![DynShard::default(); self.pes],
            rep: DynReplicated::default(),
            queue: Vec::new(),
            max_batch: self.max_batch,
            poisoned: None,
        })
    }
}

impl MstService {
    /// Start building a service over `[0, cfg.n)` on a `pes`-PE machine
    /// — the single construction path; see [`MstServiceBuilder`].
    pub fn builder(pes: usize, cfg: DynConfig) -> MstServiceBuilder {
        MstServiceBuilder {
            pes,
            cfg,
            machine: None,
            max_batch: 64,
        }
    }

    /// The failure that poisoned this service, when one occurred. A
    /// poisoned service still answers [`MstService::stats`] and
    /// [`MstService::pending`], but refuses everything that would spin
    /// up the machine or read possibly-stale forest state.
    pub fn poisoned(&self) -> Option<&MachineError> {
        self.poisoned.as_ref()
    }

    /// Gate for every fallible operation: a poisoned service answers
    /// with a typed degradation error immediately.
    fn check_poisoned(&self) -> Result<(), ServiceError> {
        match &self.poisoned {
            Some(e) => Err(ServiceError::Degraded(e.clone())),
            None => Ok(()),
        }
    }

    /// Record an unrecoverable machine failure: the service degrades
    /// (state frozen at the last successful flush) and the error is
    /// surfaced typed, now and on every later call.
    fn poison(&mut self, e: MachineError) -> ServiceError {
        self.poisoned = Some(e.clone());
        ServiceError::Machine(e)
    }

    /// Replace the edge set by a generated family and solve its MSF once
    /// through the static pipeline (dropping any queued updates). An
    /// unrecoverable transport failure degrades the service.
    pub fn try_load_generated(
        &mut self,
        config: GraphConfig,
        seed: u64,
    ) -> Result<(), ServiceError> {
        self.check_poisoned()?;
        let cfg = self.cfg;
        let out = Machine::try_run(self.machine.clone(), move |comm| {
            let input = InputGraph::generate(comm, config, seed);
            DynMst::bootstrap(comm, cfg, &input).into_parts()
        })
        .map_err(|e| self.poison(e))?;
        self.queue.clear();
        self.install(out.results);
        Ok(())
    }

    /// True if every endpoint of the update lies in the configured
    /// vertex space `[0, n)`.
    pub fn in_range(&self, up: &Update) -> bool {
        let (u, v) = match *up {
            Update::Insert(e) => (e.u, e.v),
            Update::Delete { u, v } => (u, v),
        };
        u < self.cfg.n && v < self.cfg.n
    }

    /// Queue one update; flush automatically at the batch threshold.
    /// Returns the flush outcome when one ran. Out-of-range updates
    /// are dropped (a caller that must report them checks
    /// [`Self::in_range`] first) — the maintainer would otherwise panic
    /// the whole machine mid-flush on a malformed client request. A
    /// degraded service refuses the update, and an auto-flush failure
    /// degrades the service.
    pub fn try_submit(&mut self, up: Update) -> Result<Option<BatchOutcome>, ServiceError> {
        self.check_poisoned()?;
        if !self.in_range(&up) {
            return Ok(None);
        }
        self.queue.push(up);
        if self.queue.len() >= self.max_batch {
            self.try_flush()
        } else {
            Ok(None)
        }
    }

    /// Apply every queued update as one batch. `None` when the queue was
    /// empty. An unrecoverable transport failure poisons the service —
    /// the failing batch is dropped, the cached forest stays at the last
    /// successful flush, and every later call answers
    /// [`ServiceError::Degraded`] immediately instead of panicking or
    /// blocking on a dead machine.
    pub fn try_flush(&mut self) -> Result<Option<BatchOutcome>, ServiceError> {
        self.check_poisoned()?;
        if self.queue.is_empty() {
            return Ok(None);
        }
        let batch = std::mem::take(&mut self.queue);
        let (cfg, rep) = (self.cfg, self.rep);
        let shards = &self.shards;
        let machine = self.machine.clone();
        let out = Machine::try_run(machine, move |comm| {
            let shard = shards[comm.rank()].clone();
            let mut dynmst = DynMst::from_parts(comm, cfg, shard, rep);
            let slice: &[Update] = if comm.rank() == 0 { &batch } else { &[] };
            let outcome = dynmst.apply_batch(comm, slice);
            let (shard, rep) = dynmst.into_parts();
            (shard, rep, outcome)
        })
        .map_err(|e| self.poison(e))?;
        let outcome = out.results[0].2;
        self.install(out.results.into_iter().map(|(s, r, _)| (s, r)).collect());
        Ok(Some(outcome))
    }

    /// Forest weight (flushes pending updates first).
    pub fn try_msf_weight(&mut self) -> Result<u64, ServiceError> {
        self.try_flush()?;
        Ok(self.rep.weight)
    }

    /// Forest size (flushes pending updates first).
    pub fn try_msf_edge_count(&mut self) -> Result<u64, ServiceError> {
        self.try_flush()?;
        Ok(self.rep.msf_edges)
    }

    /// Forest membership of `{u, v}`, answered by a binary search on the
    /// pair's home shard — no machine run (flushes pending updates
    /// first).
    pub fn try_in_msf(&mut self, u: VertexId, v: VertexId) -> Result<bool, ServiceError> {
        self.try_flush()?;
        if u == v || u >= self.cfg.n || v >= self.cfg.n {
            return Ok(false);
        }
        let (a, b) = (u.min(v), u.max(v));
        let shard = &self.shards[home_of_pair(self.cfg.n, self.shards.len(), a, b)];
        Ok(shard
            .msf
            .binary_search_by(|e| (e.u, e.v).cmp(&(a, b)))
            .is_ok())
    }

    /// The full forest as a canonical sorted edge list (flushes first).
    pub fn try_msf_edges(&mut self) -> Result<Vec<WEdge>, ServiceError> {
        self.try_flush()?;
        let mut out: Vec<WEdge> = self
            .shards
            .iter()
            .flat_map(|s| s.msf.iter().map(|e| e.wedge()))
            .collect();
        out.sort_unstable();
        Ok(out)
    }

    /// Lifetime update statistics (does not flush).
    pub fn stats(&self) -> UpdateStats {
        self.rep.stats
    }

    /// Number of queued, not yet applied updates.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    fn install(&mut self, results: Vec<(DynShard, DynReplicated)>) {
        self.rep = results[0].1;
        self.shards = results.into_iter().map(|(s, _)| s).collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kamsta_comm::TransportKind;
    use kamsta_core::dist::MstConfig;

    fn dyn_cfg(n: u64) -> DynConfig {
        DynConfig::new(n).with_mst(MstConfig {
            base_case_constant: 8,
            ..MstConfig::default()
        })
    }

    fn service(pes: usize, n: u64, max_batch: usize) -> MstService {
        MstService::builder(pes, dyn_cfg(n))
            .max_batch(max_batch)
            .build()
            .unwrap()
    }

    #[test]
    fn queries_flush_the_queue_first() {
        let mut s = service(3, 8, 100);
        s.try_submit(Update::Insert(WEdge::new(0, 1, 3))).unwrap();
        s.try_submit(Update::Insert(WEdge::new(1, 2, 4))).unwrap();
        assert_eq!(s.pending(), 2);
        assert_eq!(s.try_msf_weight().unwrap(), 7, "read-your-writes");
        assert_eq!(s.pending(), 0);
        assert!(s.try_in_msf(1, 0).unwrap() && s.try_in_msf(2, 1).unwrap());
        assert!(!s.try_in_msf(0, 2).unwrap() && !s.try_in_msf(5, 5).unwrap());
    }

    #[test]
    fn auto_flush_at_the_batch_threshold() {
        let mut s = service(2, 16, 4);
        for k in 0..3u64 {
            assert!(s
                .try_submit(Update::Insert(WEdge::new(k, k + 1, 1)))
                .unwrap()
                .is_none());
        }
        let outcome = s.try_submit(Update::Insert(WEdge::new(3, 4, 1))).unwrap();
        assert!(outcome.is_some(), "4th update crosses the threshold");
        assert_eq!(s.pending(), 0);
        assert_eq!(outcome.unwrap().msf_edges, 4);
        assert_eq!(s.stats().batches, 1);
    }

    #[test]
    fn request_loop_serves_a_script() {
        let mut s = service(2, 6, 50);
        for e in [
            WEdge::new(0, 1, 2),
            WEdge::new(1, 2, 3),
            WEdge::new(0, 2, 9),
        ] {
            assert_eq!(s.try_submit(Update::Insert(e)), Ok(None), "queued");
        }
        assert_eq!(s.try_msf_weight(), Ok(5));
        assert_eq!(s.try_in_msf(0, 2), Ok(false));
        assert_eq!(s.try_submit(Update::Delete { u: 1, v: 2 }), Ok(None));
        assert_eq!(s.try_msf_weight(), Ok(11), "0-2 replaces the deleted 1-2");
        assert_eq!(s.try_in_msf(0, 2), Ok(true));
        assert_eq!(s.try_msf_edge_count(), Ok(2));
        assert_eq!(s.try_flush(), Ok(None), "nothing left to flush");
    }

    #[test]
    fn out_of_range_updates_are_rejected_not_fatal() {
        let mut s = service(2, 8, 2);
        let stray = Update::Insert(WEdge::new(0, 99, 1));
        assert!(!s.in_range(&stray));
        assert_eq!(s.try_submit(stray), Ok(None));
        assert!(s
            .try_submit(Update::Delete { u: 99, v: 0 })
            .unwrap()
            .is_none());
        assert_eq!(s.pending(), 0, "rejected updates never enter the queue");
        s.try_submit(Update::Insert(WEdge::new(0, 7, 3))).unwrap();
        assert_eq!(s.try_msf_weight().unwrap(), 3, "the service keeps serving");
    }

    #[test]
    fn zero_pe_config_is_rejected_not_a_thread_poison() {
        let cfg = DynConfig::new(8);
        let Err(err) = MstService::builder(0, cfg).build() else {
            panic!("zero PEs must be rejected");
        };
        assert_eq!(err, kamsta_comm::MachineError::NoPes);
        // And a PE-count change through the builder is typed too.
        assert!(matches!(
            MstService::builder(2, cfg)
                .machine(MachineConfig::new(3))
                .build(),
            Err(kamsta_comm::MachineError::PeCountMismatch {
                expected: 2,
                got: 3
            })
        ));
    }

    #[test]
    fn builder_pins_transport_and_machine_settings() {
        // The machine config's transport survives into the service...
        let svc = MstService::builder(2, dyn_cfg(8))
            .machine(MachineConfig::new(2).with_transport(TransportKind::Sockets))
            .build()
            .unwrap();
        assert_eq!(svc.machine.transport, Some(TransportKind::Sockets));
        // ...and without one, the env-resolved transport is pinned.
        let svc = MstService::builder(2, dyn_cfg(8)).build().unwrap();
        assert!(svc.machine.transport.is_some());
        // A service over the socket transport serves like any other.
        let mut s = MstService::builder(2, dyn_cfg(8))
            .machine(MachineConfig::new(2).with_transport(TransportKind::Sockets))
            .max_batch(2)
            .build()
            .unwrap();
        s.try_submit(Update::Insert(WEdge::new(0, 1, 3))).unwrap();
        s.try_submit(Update::Insert(WEdge::new(1, 2, 4))).unwrap();
        assert_eq!(s.try_msf_weight().unwrap(), 7);
    }

    #[test]
    fn generated_load_then_updates() {
        let mut s = service(4, 64, 64);
        s.try_load_generated(GraphConfig::Grid2D { rows: 8, cols: 8 }, 5)
            .unwrap();
        assert_eq!(
            s.try_msf_edge_count().unwrap(),
            63,
            "spanning tree of the grid"
        );
        let before = s.try_msf_weight().unwrap();
        // Insert a zero-ish weight shortcut: must enter the forest.
        s.try_submit(Update::Insert(WEdge::new(0, 63, 1))).unwrap();
        assert!(s.try_in_msf(0, 63).unwrap());
        assert!(s.try_msf_weight().unwrap() < before + 1);
        assert_eq!(
            s.try_msf_edge_count().unwrap(),
            63,
            "still spanning, one cycle broken"
        );
    }
}
