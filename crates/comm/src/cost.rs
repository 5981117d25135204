//! The α-β-γ machine cost model (DESIGN.md substitution S2).
//!
//! The paper's machine model (Sec. II-A) charges `α + βℓ` per message of
//! length `ℓ`. We add a `γ` term for local computation so that the tradeoff
//! between local work and communication — the heart of the paper's
//! engineering story — is visible in the modeled clock. Clocks advance
//! per-PE and are max-synchronised at barriers (BSP semantics), so the
//! modeled completion time of a phase is the *bottleneck* PE's time, exactly
//! the quantity the paper's analysis reasons about.

use std::sync::atomic::{AtomicU64, Ordering};

/// Machine parameters of the modeled distributed system.
///
/// Defaults are calibrated to the SuperMUC-NG class of machine the paper
/// used: `α = 5 µs` message startup, `β = 0.4 ns/byte` (≈ 20 Gbit/s
/// effective point-to-point bandwidth per PE) and `γ = 1 ns` per unit of
/// local work (roughly one cache-resident edge relaxation).
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Message startup overhead in seconds.
    pub alpha: f64,
    /// Per-byte communication time in seconds.
    pub beta: f64,
    /// Per-operation local computation time in seconds.
    pub gamma: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            alpha: 5e-6,
            beta: 4e-10,
            gamma: 1e-9,
        }
    }
}

impl CostModel {
    /// Effective local-work speedup of `threads` threads per PE (hybrid
    /// parallelism: the paper's OpenMP threads per MPI process, Sec. VI).
    /// Sub-linear (`t^0.9`) to reflect shared-memory scaling losses the
    /// paper reports for its parlay-based kernels; communication stays
    /// single-threaded per PE, as the paper observed for `MPI_Alltoallv`
    /// (Sec. VII-A).
    #[inline]
    pub fn local_speedup(threads: usize) -> f64 {
        (threads.max(1) as f64).powf(0.9)
    }

    /// Modeled time for sending/receiving `msgs` messages totalling `bytes`.
    #[inline]
    pub fn comm_time(&self, msgs: u64, bytes: u64) -> f64 {
        self.alpha * msgs as f64 + self.beta * bytes as f64
    }

    /// Modeled time for `ops` units of local work on `threads` threads
    /// per PE.
    #[inline]
    pub fn local_time(&self, ops: u64, threads: usize) -> f64 {
        self.gamma * ops as f64 / Self::local_speedup(threads)
    }
}

/// A per-PE modeled clock plus communication statistics.
///
/// Stored behind atomics so a `Comm` handle stays `Send` when it is moved
/// into its PE thread; each clock is only ever touched by its own PE, so
/// all accesses use relaxed ordering (synchronisation happens through the
/// barrier, never through the clock).
#[derive(Debug, Default)]
pub struct Clock {
    /// Modeled seconds, stored as `f64` bits.
    time_bits: AtomicU64,
    msgs: AtomicU64,
    bytes: AtomicU64,
    local_ops: AtomicU64,
}

impl Clock {
    pub fn new() -> Self {
        Self::default()
    }

    /// Current modeled time in seconds.
    #[inline]
    pub fn now(&self) -> f64 {
        f64::from_bits(self.time_bits.load(Ordering::Relaxed))
    }

    /// Advance the modeled clock by `dt` seconds.
    #[inline]
    pub fn advance(&self, dt: f64) {
        debug_assert!(dt >= 0.0, "clock must advance monotonically");
        let t = self.now() + dt;
        self.time_bits.store(t.to_bits(), Ordering::Relaxed);
    }

    /// Set the clock (used by the barrier's max-synchronisation).
    #[inline]
    pub fn set(&self, t: f64) {
        self.time_bits.store(t.to_bits(), Ordering::Relaxed);
    }

    #[inline]
    pub fn record_comm(&self, msgs: u64, bytes: u64) {
        self.msgs.fetch_add(msgs, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    #[inline]
    pub fn record_local(&self, ops: u64) {
        self.local_ops.fetch_add(ops, Ordering::Relaxed);
    }

    /// Snapshot of this PE's accumulated statistics.
    pub fn stats(&self) -> PeStats {
        PeStats {
            modeled_time: self.now(),
            messages: self.msgs.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            local_ops: self.local_ops.load(Ordering::Relaxed),
        }
    }
}

/// Snapshot of one PE's modeled cost counters.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PeStats {
    /// Modeled elapsed seconds on this PE (post barrier synchronisation).
    pub modeled_time: f64,
    /// Number of point-to-point messages this PE initiated.
    pub messages: u64,
    /// Bytes this PE sent.
    pub bytes: u64,
    /// Charged local-work operations.
    pub local_ops: u64,
}

impl PeStats {
    /// Counter deltas since an earlier snapshot of the same clock — the
    /// phase-scoped measurement the experiment harness uses to report
    /// algorithm cost without input-preparation traffic.
    pub fn since(&self, before: &PeStats) -> PeStats {
        PeStats {
            modeled_time: self.modeled_time - before.modeled_time,
            messages: self.messages - before.messages,
            bytes: self.bytes - before.bytes,
            local_ops: self.local_ops - before.local_ops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_model_defaults() {
        let m = CostModel::default();
        assert!(m.alpha > 0.0 && m.beta > 0.0 && m.gamma > 0.0);
        assert!((CostModel::local_speedup(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cost_model_hybrid_speedup() {
        let m = CostModel::default();
        let s = CostModel::local_speedup(8);
        assert!(s > 6.0 && s < 8.0, "sub-linear speedup, got {s}");
        assert!(m.local_time(1000, 8) < m.local_time(1000, 1));
    }

    #[test]
    fn comm_time_formula() {
        let m = CostModel {
            alpha: 1.0,
            beta: 0.5,
            gamma: 0.0,
        };
        assert!((m.comm_time(3, 10) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn clock_advances_and_snapshots() {
        let c = Clock::new();
        assert_eq!(c.now(), 0.0);
        c.advance(1.5);
        c.advance(0.5);
        assert!((c.now() - 2.0).abs() < 1e-12);
        c.record_comm(4, 100);
        c.record_local(42);
        let s = c.stats();
        assert_eq!(s.messages, 4);
        assert_eq!(s.bytes, 100);
        assert_eq!(s.local_ops, 42);
        c.set(10.0);
        assert_eq!(c.now(), 10.0);
    }
}
