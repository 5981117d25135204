//! The pipes a byte lane runs over: an ordered, reliable,
//! non-blocking byte stream between one PE and one peer.
//!
//! [`Lane`](crate::lane::Lane) owns everything above the bytes —
//! framing, sequencing, checksums, fault injection — and is generic
//! over this trait, so a transport is exactly "which pipe": the
//! non-blocking [`TcpStream`] of `TransportKind::Sockets`, or the
//! in-memory [`MemPipe`] of `TransportKind::Bytes`. Everything
//! platform- or transport-specific (`poll(2)`, `cfg(unix)`, condvars)
//! lives here, below the lane.

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::io::{self, ErrorKind, IoSlice, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// One PE's end of the byte stream to one peer. Closing is by drop
/// (or [`Pipe::shutdown`]): the peer reads what was written, then
/// end-of-stream — a finished PE and a dead one look the same.
pub(crate) trait Pipe: Send + Sized {
    /// Read what is there, never blocking: `Ok(0)` is end-of-stream,
    /// `WouldBlock` means nothing has arrived yet.
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize>;

    /// Write as much of `bufs` as the pipe takes right now, never
    /// blocking: `WouldBlock` means the pipe is full.
    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize>;

    /// Close both directions now.
    fn shutdown(&mut self);

    /// Park the thread until `awaited` — the pipe its caller is blocked
    /// on — has bytes to read or reached end-of-stream (when `writing`:
    /// or has room again), or `timeout` elapses. `others` are the PE's
    /// remaining open pipes: a pipe that can fill up watches those too,
    /// since the peer it waits on may itself be blocked writing to a PE
    /// that is blocked writing to this one. Returns the keys of the
    /// pipes that became readable — the lane pumps exactly those. May
    /// return early and empty: callers re-check their queues and
    /// deadlines on every turn.
    fn wait<'a>(
        awaited: (usize, &'a Self),
        writing: bool,
        others: impl Iterator<Item = (usize, &'a Self)>,
        timeout: Duration,
    ) -> Vec<usize>
    where
        Self: 'a;
}

// ---------------------------------------------------------------------
// The memory pipe
// ---------------------------------------------------------------------

/// One direction of a [`MemPipe`]: an unbounded byte queue, and the
/// condvar its one reader parks on.
#[derive(Default)]
struct Chan {
    state: Mutex<ChanState>,
    arrived: Condvar,
}

#[derive(Default)]
struct ChanState {
    bytes: VecDeque<u8>,
    /// Either end shut the queue: reads drain what is left and then
    /// report end-of-stream, writes are accepted and dropped.
    closed: bool,
    /// The reader is parked on `arrived`. Writers notify only then, so
    /// the common hand-off — the reader still polling, or busy
    /// computing — costs them no futex call.
    parked: bool,
}

impl ChanState {
    fn readable(&self) -> bool {
        !self.bytes.is_empty() || self.closed
    }
}

impl Chan {
    /// Change the queue under its lock, then wake a parked reader.
    fn update(&self, change: impl FnOnce(&mut ChanState)) {
        let mut s = self.state.lock();
        change(&mut s);
        let parked = s.parked;
        drop(s);
        if parked {
            self.arrived.notify_one();
        }
    }
}

/// Turns a reader polls its queue, yielding the core between them,
/// before it parks: a peer's answer is typically microseconds away, well
/// under a futex park/unpark round-trip, and on an oversubscribed host
/// the yield hands the core to the very PE being waited on.
const POLLS_BEFORE_PARK: u32 = 64;

/// The in-memory pipe: a pair of byte queues between two PE threads of
/// one process. Unbounded, so a write never blocks; otherwise it
/// behaves like a stream socket — partial reads, end-of-stream once the
/// peer dropped its end, and a write to a peer that is gone succeeds
/// the way a write into a kernel send buffer does (a PE that finished
/// must not fail the peer still posting it a duplicate or a frame no
/// protocol step consumes; a *dead* peer surfaces at the next read).
/// A queue keeps the capacity of the largest backlog it ever held.
pub(crate) struct MemPipe {
    tx: Arc<Chan>,
    rx: Arc<Chan>,
}

impl MemPipe {
    /// The full mesh of a `p`-PE machine: `mesh[rank][peer]` is `rank`'s
    /// end of its pipe to `peer` (`None` on the diagonal).
    pub(crate) fn mesh(p: usize) -> Vec<Vec<Option<MemPipe>>> {
        // chans[src][dst]: written by `src`, read by `dst`.
        let chans: Vec<Vec<Arc<Chan>>> = (0..p)
            .map(|_| (0..p).map(|_| Arc::default()).collect())
            .collect();
        (0..p)
            .map(|me| {
                (0..p)
                    .map(|peer| {
                        (peer != me).then(|| MemPipe {
                            tx: Arc::clone(&chans[me][peer]),
                            rx: Arc::clone(&chans[peer][me]),
                        })
                    })
                    .collect()
            })
            .collect()
    }
}

impl Drop for MemPipe {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Pipe for MemPipe {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut s = self.rx.state.lock();
        if !s.readable() {
            return Err(ErrorKind::WouldBlock.into());
        }
        // The queue is a ring: one `read` per contiguous half.
        let n = s.bytes.read(buf)?;
        Ok(n + s.bytes.read(&mut buf[n..])?)
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        self.tx.update(|s| {
            if !s.closed {
                bufs.iter().for_each(|b| s.bytes.extend(b.iter()));
            }
        });
        Ok(bufs.iter().map(|b| b.len()).sum())
    }

    fn shutdown(&mut self) {
        self.tx.update(|s| s.closed = true);
        self.rx.update(|s| s.closed = true);
    }

    /// Writes never block and queues never fill, so nothing but the
    /// awaited queue can end this wait: `others` keep their bytes until
    /// the lane next receives from them.
    fn wait<'a>(
        (key, pipe): (usize, &'a Self),
        _writing: bool,
        _others: impl Iterator<Item = (usize, &'a Self)>,
        timeout: Duration,
    ) -> Vec<usize> {
        let rx = &pipe.rx;
        for _ in 0..POLLS_BEFORE_PARK {
            if rx.state.lock().readable() {
                return vec![key];
            }
            std::thread::yield_now();
        }
        let mut s = rx.state.lock();
        if !s.readable() {
            s.parked = true;
            rx.arrived.wait_for(&mut s, timeout);
            s.parked = false;
        }
        if s.readable() {
            vec![key]
        } else {
            Vec::new()
        }
    }
}

// ---------------------------------------------------------------------
// The TCP pipe
// ---------------------------------------------------------------------

/// Kernel-level waiting via `poll(2)`, declared directly against the
/// system libc (no crate dependency). The lane parks the thread here
/// until a stream has bytes (or the kernel send buffer of a blocked
/// write drains) instead of spinning on `WouldBlock` reads with a
/// sleep back-off — on oversubscribed hosts running p processes per
/// core that spin was the dominant socket-transport cost.
#[cfg(unix)]
mod kernel_wait {
    use std::time::Duration;

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;

    #[repr(C)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    /// libc's `nfds_t`: `unsigned long` on Linux and the System V
    /// family, `unsigned int` on Android, macOS and the BSDs.
    #[cfg(any(
        target_os = "linux",
        target_os = "emscripten",
        target_os = "fuchsia",
        target_os = "solaris",
        target_os = "illumos",
        target_os = "haiku",
        target_os = "hurd",
    ))]
    type NfdsT = std::ffi::c_ulong;
    #[cfg(not(any(
        target_os = "linux",
        target_os = "emscripten",
        target_os = "fuchsia",
        target_os = "solaris",
        target_os = "illumos",
        target_os = "haiku",
        target_os = "hurd",
    )))]
    type NfdsT = std::ffi::c_uint;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: std::ffi::c_int) -> std::ffi::c_int;
    }

    /// Block until any fd is ready or `timeout` elapses. Errors (and
    /// EINTR) are deliberately swallowed: the caller re-checks its
    /// queues and enforces its own deadline on every iteration, so a
    /// spurious early return costs one loop turn, never correctness.
    pub fn wait(fds: &mut [PollFd], timeout: Duration) {
        let ms = timeout.as_millis().clamp(1, i32::MAX as u128) as i32;
        // SAFETY: `fds` is a live, exclusively borrowed slice of
        // `#[repr(C)]` `pollfd`-layout records and `nfds` is its exact
        // length; `poll` writes only the `revents` fields within it.
        unsafe {
            poll(fds.as_mut_ptr(), fds.len() as NfdsT, ms);
        }
    }
}

/// Back-off of [`Pipe::wait`] where there is no `poll(2)`: long enough
/// to yield the core on oversubscribed hosts, short enough to stay
/// invisible next to loopback round trips.
#[cfg(not(unix))]
const PUMP_IDLE: Duration = Duration::from_micros(50);

/// The TCP pipe: a connected stream already switched to non-blocking
/// mode (see `mesh.rs`). A blocked PE parks in the kernel and wakes the
/// instant bytes arrive rather than on a poll tick, so an idle PE costs
/// the host nothing.
impl Pipe for TcpStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        Read::read(self, buf)
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        Write::write_vectored(self, bufs)
    }

    fn shutdown(&mut self) {
        let _ = TcpStream::shutdown(self, std::net::Shutdown::Both);
    }

    fn wait<'a>(
        awaited: (usize, &'a Self),
        writing: bool,
        others: impl Iterator<Item = (usize, &'a Self)>,
        timeout: Duration,
    ) -> Vec<usize> {
        let pipes = std::iter::once(awaited).chain(others);
        #[cfg(unix)]
        {
            use std::os::fd::AsRawFd;
            let (keys, mut fds): (Vec<usize>, Vec<kernel_wait::PollFd>) = pipes
                .map(|(key, stream)| {
                    let fd = kernel_wait::PollFd {
                        fd: stream.as_raw_fd(),
                        events: kernel_wait::POLLIN,
                        revents: 0,
                    };
                    (key, fd)
                })
                .unzip();
            if writing {
                fds[0].events |= kernel_wait::POLLOUT;
            }
            kernel_wait::wait(&mut fds, timeout);
            fds.iter()
                .zip(keys)
                .filter(|(fd, _)| fd.revents != 0)
                .map(|(_, key)| key)
                .collect()
        }
        #[cfg(not(unix))]
        {
            let _ = writing;
            std::thread::sleep(timeout.min(PUMP_IDLE));
            pipes.map(|(key, _)| key).collect()
        }
    }
}
