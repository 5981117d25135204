//! The machine: runs an SPMD rank program on `p` PEs — as threads of
//! this process (the cells blackboard, or the byte lane over a loopback
//! socket mesh), or as one rank of a multi-process socket machine
//! ([`Machine::try_run_worker`], driven by the `kamsta_launch` binary).
//!
//! All configuration validation and environment resolution lives in
//! **one** place, [`MachineConfig::resolve`]; every entry point funnels
//! through it, so there is exactly one code path that can reject a
//! config or read the five machine settings (`KAMSTA_TRANSPORT`,
//! `KAMSTA_THREADS`, `KAMSTA_FAULTS`, `KAMSTA_SOCKET_TIMEOUT_MS`,
//! `KAMSTA_HANDSHAKE_TIMEOUT_MS`).

use crate::alltoall::AlltoallKind;
use crate::barrier::BarrierPoisoned;
use crate::comm::{Backend, Comm, CommShared};
use crate::cost::{Clock, CostModel, PeStats};
use crate::fault::{FaultPlan, FaultyTransport};
use crate::lane::Lane;
use crate::transport::{TransportError, TransportKind};
use crate::{mesh, rendezvous};
use parking_lot::Mutex;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A rejected machine configuration or a failed run. Surfaced by
/// [`MachineConfig::resolve`] / [`Machine::try_run`] so front-ends (the
/// `MstService`, the runner binaries) can refuse bad configs gracefully
/// instead of poisoning a PE thread mid-run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MachineError {
    /// `pes == 0`: a machine needs at least one processing element.
    NoPes,
    /// `KAMSTA_TRANSPORT` was set to something other than
    /// `cells`/`sockets`.
    UnknownTransport(String),
    /// `KAMSTA_THREADS` was not a positive integer.
    InvalidThreads(String),
    /// A front-end with state sharded over a fixed PE count was handed a
    /// config for a different count.
    PeCountMismatch { expected: usize, got: usize },
    /// `KAMSTA_SOCKET_TIMEOUT_MS` / `KAMSTA_HANDSHAKE_TIMEOUT_MS` (or
    /// the corresponding builder) was zero or unparsable.
    InvalidTimeout(String),
    /// `KAMSTA_FAULTS` (or `with_faults`) did not parse as a fault plan.
    InvalidFaultPlan(String),
    /// The socket setup does not fit the run mode: an unparsable or
    /// unbindable address, a rendezvous on a non-socket transport, or a
    /// rendezvous config handed to the in-process runner.
    SocketConfig(String),
    /// A PE failed at run time with a typed transport error — a peer
    /// died, a deadline passed, or the frame protocol was violated.
    Transport { rank: usize, source: TransportError },
}

impl std::fmt::Display for MachineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MachineError::NoPes => write!(f, "machine needs at least one PE"),
            MachineError::UnknownTransport(v) => {
                write!(
                    f,
                    "unknown KAMSTA_TRANSPORT value {v:?} (expected \"cells\" or \"sockets\")"
                )
            }
            MachineError::InvalidThreads(v) => {
                write!(
                    f,
                    "invalid KAMSTA_THREADS value {v:?} (want a positive integer)"
                )
            }
            MachineError::PeCountMismatch { expected, got } => {
                write!(f, "PE count is fixed at {expected}, got {got}")
            }
            MachineError::InvalidTimeout(v) => {
                write!(
                    f,
                    "invalid socket io timeout {v:?} (want positive milliseconds)"
                )
            }
            MachineError::InvalidFaultPlan(m) => {
                write!(f, "invalid KAMSTA_FAULTS fault plan: {m}")
            }
            MachineError::SocketConfig(m) => write!(f, "socket configuration error: {m}"),
            MachineError::Transport { rank, source } => {
                write!(f, "transport failure on PE {rank}: {source}")
            }
        }
    }
}

impl std::error::Error for MachineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MachineError::Transport { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Configuration of a distributed machine run.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Number of processing elements (MPI ranks in the paper).
    pub pes: usize,
    /// Machine cost parameters.
    pub cost: CostModel,
    /// Hybrid threads per PE; `None` resolves `KAMSTA_THREADS` at run
    /// time (default: 1).
    pub threads: Option<usize>,
    /// All-to-all strategy (Sec. VI-A); `Auto` applies the 500-byte rule.
    pub alltoall: AlltoallKind,
    /// Transport backend; `None` resolves `KAMSTA_TRANSPORT` at run time
    /// (default: [`TransportKind::Cells`]).
    pub transport: Option<TransportKind>,
    /// Send/receive deadline of the byte lane (`sockets`); `None`
    /// resolves `KAMSTA_SOCKET_TIMEOUT_MS` at run time
    /// (default: 30 s).
    pub io_timeout: Option<Duration>,
    /// Mesh/rendezvous formation deadline; `None` resolves
    /// `KAMSTA_HANDSHAKE_TIMEOUT_MS` (default: the io timeout). Kept
    /// separate so slow staggered start-up can be tolerated without
    /// inflating the steady-state hang bound.
    pub handshake_timeout: Option<Duration>,
    /// Deterministic fault-injection plan; `None` resolves
    /// `KAMSTA_FAULTS` at run time (default: no faults armed).
    pub faults: Option<FaultPlan>,
    /// Address of the rendezvous server (the launcher) that assigns the
    /// ranks of a multi-process sockets machine; `None` means an
    /// in-process loopback mesh on ephemeral ports.
    pub rendezvous: Option<String>,
}

/// A [`MachineConfig`] after the single validation/env-resolution pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResolvedConfig {
    /// The transport the run will use.
    pub transport: TransportKind,
    /// Hybrid threads per PE in effect.
    pub threads: usize,
    /// The byte lane's io deadline in effect: under `sockets` it bounds
    /// every send and receive, so a PE that never reaches a collective
    /// surfaces at its peers as a typed timeout (the cells blackboard
    /// has no deadline).
    pub io_timeout: Duration,
    /// The mesh-formation deadline in effect (meaningful under sockets).
    pub handshake_timeout: Duration,
    /// The fault plan armed on the run's transport (sockets; the cells
    /// blackboard sits above the transport boundary).
    pub faults: Option<FaultPlan>,
    /// Socket peer discovery — `Some` iff `transport` is sockets.
    pub sockets: Option<SocketSetup>,
}

/// Resolved socket peer discovery.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SocketSetup {
    /// In-process mesh over ephemeral loopback ports.
    Loopback,
    /// Rendezvous server assigning ranks.
    Rendezvous { addr: SocketAddr },
}

impl MachineConfig {
    /// A machine with `pes` PEs and default cost parameters.
    ///
    /// Hybrid threads per PE resolve from `KAMSTA_THREADS` when set (the
    /// CI hybrid leg forces every machine in the suite through the
    /// intra-PE pool this way); [`MachineConfig::with_threads`]
    /// overrides it per machine.
    pub fn new(pes: usize) -> Self {
        Self {
            pes,
            cost: CostModel::default(),
            threads: None,
            alltoall: AlltoallKind::Auto,
            transport: None,
            io_timeout: None,
            handshake_timeout: None,
            faults: None,
            rendezvous: None,
        }
    }

    /// Pin the transport backend, overriding `KAMSTA_TRANSPORT`.
    pub fn with_transport(mut self, transport: TransportKind) -> Self {
        self.transport = Some(transport);
        self
    }

    /// Run over sockets, discovering peers through a rendezvous server
    /// (the launcher). Implies [`TransportKind::Sockets`].
    pub fn with_rendezvous(mut self, addr: impl Into<String>) -> Self {
        self.transport = Some(TransportKind::Sockets);
        self.rendezvous = Some(addr.into());
        self
    }

    /// Bound every send and receive of the byte lane (`sockets`) by
    /// `timeout`, overriding `KAMSTA_SOCKET_TIMEOUT_MS`.
    pub fn with_io_timeout(mut self, timeout: Duration) -> Self {
        self.io_timeout = Some(timeout);
        self
    }

    /// Bound mesh/rendezvous formation by `timeout`, overriding
    /// `KAMSTA_HANDSHAKE_TIMEOUT_MS` (default: the io timeout).
    pub fn with_handshake_timeout(mut self, timeout: Duration) -> Self {
        self.handshake_timeout = Some(timeout);
        self
    }

    /// Arm a deterministic fault-injection plan on the run's transport,
    /// overriding `KAMSTA_FAULTS`. See [`FaultPlan`].
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// **The** validation and environment-resolution pass: every entry
    /// point (`try_run`, `try_run_worker`, the service builder) funnels
    /// through here, and nothing else reads the machine settings'
    /// `KAMSTA_*` variables or rejects a config shape.
    pub fn resolve(&self) -> Result<ResolvedConfig, MachineError> {
        if self.pes == 0 {
            return Err(MachineError::NoPes);
        }
        let transport = match self.transport {
            Some(k) => k,
            None => TransportKind::from_env()?,
        };
        let threads = match self.threads {
            Some(t) => t,
            None => match std::env::var("KAMSTA_THREADS") {
                Err(_) => 1,
                Ok(v) => match v.parse::<usize>() {
                    Ok(t) if t > 0 => t,
                    _ => return Err(MachineError::InvalidThreads(v)),
                },
            },
        };
        let timeout_of = |field: Option<Duration>,
                          var: &str,
                          default: Duration|
         -> Result<Duration, MachineError> {
            match field {
                Some(d) if !d.is_zero() => Ok(d),
                Some(d) => Err(MachineError::InvalidTimeout(format!("{d:?}"))),
                None => match std::env::var(var) {
                    Err(_) => Ok(default),
                    Ok(v) => match v.parse::<u64>() {
                        Ok(ms) if ms > 0 => Ok(Duration::from_millis(ms)),
                        _ => Err(MachineError::InvalidTimeout(v)),
                    },
                },
            }
        };
        let io_timeout = timeout_of(
            self.io_timeout,
            "KAMSTA_SOCKET_TIMEOUT_MS",
            Duration::from_secs(30),
        )?;
        let handshake_timeout = timeout_of(
            self.handshake_timeout,
            "KAMSTA_HANDSHAKE_TIMEOUT_MS",
            io_timeout,
        )?;
        let faults = match &self.faults {
            Some(plan) => Some(plan.clone()),
            None => match std::env::var("KAMSTA_FAULTS") {
                Err(_) => None,
                Ok(v) => Some(FaultPlan::parse(&v).map_err(MachineError::InvalidFaultPlan)?),
            },
        };
        let sockets = match (transport, &self.rendezvous) {
            (TransportKind::Sockets, None) => Some(SocketSetup::Loopback),
            (TransportKind::Sockets, Some(addr)) => {
                let addr = addr.parse().map_err(|_| {
                    MachineError::SocketConfig(format!("unparsable rendezvous address {addr:?}"))
                })?;
                Some(SocketSetup::Rendezvous { addr })
            }
            (_, None) => None,
            (_, Some(_)) => {
                return Err(MachineError::SocketConfig(format!(
                    "socket rendezvous configured, but the transport is {transport:?}"
                )))
            }
        };
        Ok(ResolvedConfig {
            transport,
            threads,
            io_timeout,
            handshake_timeout,
            faults,
            sockets,
        })
    }

    /// Set hybrid threads per PE (the paper's `-1` / `-8` variants),
    /// overriding `KAMSTA_THREADS`.
    pub fn with_threads(mut self, t: usize) -> Self {
        self.threads = Some(t.max(1));
        self
    }

    /// Override the all-to-all strategy.
    pub fn with_alltoall(mut self, kind: AlltoallKind) -> Self {
        self.alltoall = kind;
        self
    }

    /// Override the cost model (hybrid width is
    /// [`MachineConfig::with_threads`]'s).
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }
}

/// Results of a machine run.
#[derive(Debug)]
pub struct RunOutput<R> {
    /// Per-PE return values, indexed by rank.
    pub results: Vec<R>,
    /// Per-PE cost statistics, indexed by rank.
    pub stats: Vec<PeStats>,
    /// BSP completion time: the maximum modeled clock over all PEs.
    pub modeled_time: f64,
    /// Real wall-clock time of the simulation (not the modeled machine).
    pub wall: Duration,
}

impl<R> RunOutput<R> {
    /// Total messages across PEs.
    pub fn total_messages(&self) -> u64 {
        self.stats.iter().map(|s| s.messages).sum()
    }

    /// Total bytes across PEs.
    pub fn total_bytes(&self) -> u64 {
        self.stats.iter().map(|s| s.bytes).sum()
    }
}

/// One rank's view of a multi-process machine run
/// ([`Machine::try_run_worker`]).
#[derive(Debug)]
pub struct WorkerRun<R> {
    /// The rank this process ran as (assigned by the rendezvous when the
    /// config did not pin it).
    pub rank: usize,
    /// This rank's return value.
    pub result: R,
    /// This rank's cost statistics.
    pub stats: PeStats,
    /// Real wall-clock time of this rank (mesh construction included).
    pub wall: Duration,
}

/// The distributed machine.
pub struct Machine;

impl Machine {
    /// Run `rank_fn` on `cfg.pes` PEs; blocks until all PEs return.
    ///
    /// `rank_fn` receives this PE's [`Comm`] over the whole machine.
    /// If any PE panics, the barrier is poisoned (unblocking peers) and
    /// the panic is propagated to the caller.
    ///
    /// Thin wrapper over [`Machine::try_run`]: **panics** on a rejected
    /// config or a transport failure. Front-ends that must not panic use
    /// `try_run`.
    pub fn run<F, R>(cfg: MachineConfig, rank_fn: F) -> RunOutput<R>
    where
        F: Fn(&Comm) -> R + Send + Sync,
        R: Send,
    {
        Self::try_run(cfg, rank_fn).unwrap_or_else(|e| panic!("machine run failed: {e}"))
    }

    /// [`Machine::run`] with failures typed: a bad config (zero PEs,
    /// unknown `KAMSTA_TRANSPORT`, an unparsable `KAMSTA_THREADS`) comes
    /// back as [`MachineError`] before any thread is spawned, and a
    /// transport failure at run time (peer death, timeout, protocol
    /// violation — possible under sockets) comes back as
    /// [`MachineError::Transport`] instead of unwinding.
    pub fn try_run<F, R>(cfg: MachineConfig, rank_fn: F) -> Result<RunOutput<R>, MachineError>
    where
        F: Fn(&Comm) -> R + Send + Sync,
        R: Send,
    {
        let resolved = cfg.resolve()?;
        let p = cfg.pes;
        let (cost, threads) = (cfg.cost, resolved.threads);
        let faults = resolved
            .faults
            .clone()
            .map(|plan| Arc::new(FaultyTransport::new(plan)));
        let comm_on =
            |rank, backend, clock| Comm::new(rank, p, backend, clock, cost, threads, cfg.alltoall);
        match (resolved.transport, &resolved.sockets) {
            (TransportKind::Cells, _) => {
                // The barrier's spin-vs-park choice keys on the machine-
                // wide OS thread count, PE threads × hybrid threads, so a
                // 4×8 hybrid machine on an 8-core host parks instead of
                // busy-spinning 32 threads against each other.
                let machine_threads = p * resolved.threads;
                let shared = Arc::new(CommShared::new(p, machine_threads));
                run_pes(
                    &cfg,
                    |rank, clock| Ok(comm_on(rank, Backend::Cells(Arc::clone(&shared)), clock)),
                    || shared.barrier.poison(),
                    &rank_fn,
                )
            }
            (TransportKind::Sockets, Some(SocketSetup::Rendezvous { .. })) => {
                Err(MachineError::SocketConfig(
                    "rendezvous discovery is for worker processes — use \
                     Machine::try_run_worker or the kamsta_launch binary"
                        .to_string(),
                ))
            }
            (TransportKind::Sockets, _) => {
                // In-process socket mesh: bind all listeners up front so
                // every PE thread's connect has a live accept side, then
                // let each thread dial its own streams.
                let mut addrs = Vec::with_capacity(p);
                let mut listeners = Vec::with_capacity(p);
                for rank in 0..p {
                    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| {
                        MachineError::SocketConfig(format!("binding rank {rank}: {e}"))
                    })?;
                    addrs.push(listener.local_addr().map_err(|e| {
                        MachineError::SocketConfig(format!("binding rank {rank}: {e}"))
                    })?);
                    listeners.push(listener);
                }
                let listeners = take_once(listeners);
                run_pes(
                    &cfg,
                    |rank, clock| {
                        let streams = mesh::connect(
                            rank,
                            listeners(rank),
                            &addrs,
                            resolved.handshake_timeout,
                        )?;
                        let lane = lane_backend(rank, streams, &resolved, faults.clone());
                        Ok(comm_on(rank, lane, clock))
                    },
                    || {},
                    &rank_fn,
                )
            }
        }
    }

    /// Run **one rank** of a multi-process socket machine in this
    /// process. The config must name a rendezvous server
    /// ([`MachineConfig::with_rendezvous`]); `rank` is an optional
    /// preference the rendezvous honours.
    ///
    /// Blocks until this rank's program returns; peers run in other
    /// processes. Transport failures — a dead peer, a missed deadline —
    /// come back as [`MachineError::Transport`], bounded by the
    /// configured io timeout.
    pub fn try_run_worker<F, R>(
        cfg: MachineConfig,
        rank: Option<usize>,
        rank_fn: F,
    ) -> Result<WorkerRun<R>, MachineError>
    where
        F: FnOnce(&Comm) -> R,
    {
        let resolved = cfg.resolve()?;
        let start = Instant::now();
        let handshake = resolved.handshake_timeout;
        let faults = resolved
            .faults
            .clone()
            .map(|plan| Arc::new(FaultyTransport::new(plan)));
        let Some(SocketSetup::Rendezvous { addr }) = resolved.sockets else {
            return Err(MachineError::SocketConfig(
                "try_run_worker needs with_rendezvous(..) on the sockets transport".to_string(),
            ));
        };
        let (my_rank, listener, table) =
            rendezvous::rendezvous_client(&addr.to_string(), rank, handshake)
                .map_err(|source| MachineError::Transport { rank: 0, source })?;
        if table.len() != cfg.pes {
            return Err(MachineError::PeCountMismatch {
                expected: cfg.pes,
                got: table.len(),
            });
        }
        let p = table.len();
        let streams = mesh::connect(my_rank, listener, &table, handshake).map_err(|source| {
            MachineError::Transport {
                rank: my_rank,
                source,
            }
        })?;
        let clock = Arc::new(Clock::new());
        let comm = Comm::new(
            my_rank,
            p,
            lane_backend(my_rank, streams, &resolved, faults),
            Arc::clone(&clock),
            cfg.cost,
            resolved.threads,
            cfg.alltoall,
        );
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            comm.pool().install(|| rank_fn(&comm))
        }));
        drop(comm);
        match out {
            Ok(result) => Ok(WorkerRun {
                rank: my_rank,
                result,
                stats: clock.stats(),
                wall: start.elapsed(),
            }),
            Err(payload) => match payload.downcast::<TransportError>() {
                Ok(source) => Err(MachineError::Transport {
                    rank: my_rank,
                    source: *source,
                }),
                Err(payload) => std::panic::resume_unwind(payload),
            },
        }
    }
}

/// A PE's backend on a fresh byte lane over `streams`.
/// A failed (or finished) PE drops its lane, which surfaces at its peers
/// as `PeerClosed` bounded by the io timeout — no poison flag needed.
fn lane_backend(
    rank: usize,
    streams: Vec<Option<TcpStream>>,
    resolved: &ResolvedConfig,
    faults: Option<Arc<FaultyTransport>>,
) -> Backend {
    Backend::Lane(Lane::new(rank, streams, resolved.io_timeout, faults))
}

/// Hand each PE thread its own listener, bound on the launching thread:
/// `take(rank)` moves it out, once.
fn take_once<T: Send>(items: Vec<T>) -> impl Fn(usize) -> T + Sync {
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    move |rank| slots[rank].lock().take().expect("taken once per rank")
}

/// Stack size of every in-process PE thread.
const PE_STACK_BYTES: usize = 4 << 20;

/// The shared PE-thread runner behind every in-process mode of
/// [`Machine::try_run`]: spawn `cfg.pes` named threads, build each PE's
/// communicator with `make_comm`, and classify every unwind —
///
/// * a [`TransportError`] payload is recorded and `poison` is called so
///   in-process peers unblock; the first one (preferring the PE where
///   the failure *originated* over secondary `PeerClosed` fallout)
///   becomes [`MachineError::Transport`];
/// * a [`BarrierPoisoned`] payload is secondary fallout by definition
///   and is swallowed;
/// * anything else is a genuine program panic and is resumed on the
///   caller, first by rank order.
fn run_pes<F, R>(
    cfg: &MachineConfig,
    make_comm: impl Fn(usize, Arc<Clock>) -> Result<Comm, TransportError> + Sync,
    poison: impl Fn() + Sync,
    rank_fn: &F,
) -> Result<RunOutput<R>, MachineError>
where
    F: Fn(&Comm) -> R + Send + Sync,
    R: Send,
{
    let p = cfg.pes;
    let clocks: Vec<Arc<Clock>> = (0..p).map(|_| Arc::new(Clock::new())).collect();
    let start = Instant::now();

    let mut results: Vec<Option<R>> = (0..p).map(|_| None).collect();
    let mut terrs: Vec<Option<TransportError>> = (0..p).map(|_| None).collect();
    std::thread::scope(|scope| {
        let make_comm = &make_comm;
        let poison = &poison;
        let handles: Vec<_> = results
            .iter_mut()
            .zip(terrs.iter_mut())
            .zip(clocks.iter())
            .enumerate()
            .map(|(rank, ((result_slot, terr_slot), clock))| {
                let clock = Arc::clone(clock);
                std::thread::Builder::new()
                    .name(format!("pe-{rank}"))
                    .stack_size(PE_STACK_BYTES)
                    .spawn_scoped(scope, move || {
                        let comm = match make_comm(rank, clock) {
                            Ok(c) => c,
                            Err(e) => {
                                *terr_slot = Some(e);
                                poison();
                                return;
                            }
                        };
                        // Every PE runs its rank closure at the
                        // configured hybrid width: local kernels that
                        // call `par_iter`/`join`/`par_sort` fan out
                        // into the process-wide worker pool, width 1
                        // staying strictly sequential.
                        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            comm.pool().install(|| rank_fn(&comm))
                        }));
                        // Drop the comm before classifying: on the byte
                        // lane this closes the pipes, turning this PE's
                        // exit into `PeerClosed` at its peers.
                        drop(comm);
                        match out {
                            Ok(r) => *result_slot = Some(r),
                            Err(payload) => {
                                poison();
                                match payload.downcast::<TransportError>() {
                                    Ok(e) => *terr_slot = Some(*e),
                                    Err(payload) => {
                                        if !payload.is::<BarrierPoisoned>() {
                                            std::panic::resume_unwind(payload);
                                        }
                                    }
                                }
                            }
                        }
                    })
                    .expect("failed to spawn PE thread")
            })
            .collect();
        // Scoped threads are joined on scope exit; join explicitly to
        // surface the *first* genuine panic deterministically by rank.
        let mut first_panic = None;
        for h in handles {
            if let Err(e) = h.join() {
                first_panic.get_or_insert(e);
            }
        }
        if let Some(e) = first_panic {
            std::panic::resume_unwind(e);
        }
    });

    // Transport failure: report where it originated when that is
    // distinguishable — `PeerClosed` is usually fallout from another
    // PE's death, so any other error class wins; ties go to rank order.
    let originating = terrs
        .iter()
        .position(|e| matches!(e, Some(TransportError::Protocol(_) | TransportError::Io(_))))
        .or_else(|| terrs.iter().position(|e| e.is_some()));
    if let Some(rank) = originating {
        return Err(MachineError::Transport {
            rank,
            source: terrs[rank].take().expect("position() found it"),
        });
    }

    let wall = start.elapsed();
    let stats: Vec<PeStats> = clocks.iter().map(|c| c.stats()).collect();
    let modeled_time = stats.iter().map(|s| s.modeled_time).fold(0.0, f64::max);
    Ok(RunOutput {
        results: results
            .into_iter()
            .map(|r| r.expect("PE finished without result"))
            .collect(),
        stats,
        modeled_time,
        wall,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_returns_results_by_rank() {
        let out = Machine::run(MachineConfig::new(5), |comm| comm.rank() * 10);
        assert_eq!(out.results, vec![0, 10, 20, 30, 40]);
        assert_eq!(out.stats.len(), 5);
    }

    #[test]
    fn with_threads_sets_the_resolved_width() {
        let cfg = MachineConfig::new(8).with_threads(8);
        assert_eq!(cfg.resolve().unwrap().threads, 8);
        let out = Machine::run(cfg, |comm| comm.threads_per_pe());
        assert_eq!(out.results, vec![8; 8]);
    }

    #[test]
    fn single_pe_machine_works() {
        let out = Machine::run(MachineConfig::new(1), |comm| {
            comm.barrier();
            comm.allreduce_sum(7)
        });
        assert_eq!(out.results, vec![7]);
    }

    #[test]
    fn pe_panic_propagates() {
        let res = std::panic::catch_unwind(|| {
            Machine::run(MachineConfig::new(4), |comm| {
                if comm.rank() == 2 {
                    panic!("pe 2 exploded");
                }
                // Peers block on a barrier; poisoning must release them.
                comm.barrier();
            })
        });
        assert!(res.is_err());
    }

    #[test]
    fn modeled_time_is_max_over_pes() {
        // Pin t=1: the expected figure is the unscaled local charge, and
        // the CI hybrid leg sets KAMSTA_THREADS which would otherwise
        // divide it by the hybrid speedup.
        let out = Machine::run(MachineConfig::new(3).with_threads(1), |comm| {
            comm.charge_local(1_000_000 * (comm.rank() as u64 + 1));
        });
        let g = CostModel::default().gamma;
        assert!((out.modeled_time - 3_000_000.0 * g).abs() < 1e-9);
    }
}
