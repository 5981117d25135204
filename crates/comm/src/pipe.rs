//! The pipe a byte lane runs over: an ordered, reliable, non-blocking
//! byte stream between one PE and one peer.
//!
//! [`Lane`](crate::lane::Lane) owns everything above the bytes —
//! framing, sequencing, checksums, fault injection — and is generic
//! over this trait. Its one implementor is the non-blocking
//! [`TcpStream`] of `TransportKind::Sockets`; a shared-memory ring
//! would be a second. Everything platform-specific (`poll(2)`,
//! `cfg(unix)`) lives here, below the lane.

use std::io::{self, IoSlice, Read, Write};
use std::net::TcpStream;
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
