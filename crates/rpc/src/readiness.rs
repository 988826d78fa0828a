//! Socket readiness for [`crate::mux::MuxServer`]'s event loop: `poll(2)`
//! declared by hand (vendor policy: no `libc`, no `mio`) behind a safe
//! [`wait`], plus the [`Waker`] other threads use to interrupt it.
//!
//! This module holds the workspace's only `unsafe` block; every other
//! crate root is `#![forbid(unsafe_code)]`.

#[cfg(not(unix))]
compile_error!("cca-rpc's MuxServer event loop is built on poll(2) and needs a unix target");

use std::ffi::{c_int, c_short};
use std::io::{ErrorKind, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// There is data to read.
pub const POLLIN: c_short = 0x001;
/// Writing will not block.
pub const POLLOUT: c_short = 0x004;
/// Error condition (reported whether or not it was asked for).
pub const POLLERR: c_short = 0x008;
/// The peer hung up (reported whether or not it was asked for).
pub const POLLHUP: c_short = 0x010;
/// The descriptor is not open (reported whether or not it was asked for).
pub const POLLNVAL: c_short = 0x020;

/// One entry of the set handed to [`wait`]; layout-identical to C's
/// `struct pollfd`.
#[repr(C)]
#[derive(Debug)]
pub struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Watches `fd` for `events` (a `POLL*` bit set; zero still reports
    /// errors and hang-ups).
    pub fn new(fd: RawFd, events: c_short) -> Self {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// What the last [`wait`] reported for this descriptor.
    pub fn revents(&self) -> c_short {
        self.revents
    }
}

#[cfg(any(target_os = "linux", target_os = "android"))]
type NfdsT = std::ffi::c_ulong;
#[cfg(not(any(target_os = "linux", target_os = "android")))]
type NfdsT = std::ffi::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
}

/// Blocks until at least one descriptor in `fds` is ready or `timeout`
/// passes (`None`: no timeout), and returns how many entries have a
/// non-zero [`PollFd::revents`]. A signal landing mid-wait (`EINTR`)
/// restarts the wait.
pub fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> std::io::Result<usize> {
    let timeout_ms = match timeout {
        None => -1,
        // Round up: a sub-millisecond budget must not become a busy loop.
        Some(t) => c_int::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX),
    };
    loop {
        // SAFETY: `fds` is an exclusive borrow of `fds.len()` initialised
        // `PollFd`s, so the pointer/length pair names memory the kernel may
        // read and write for the whole call and nothing else aliases it;
        // `PollFd` is `#[repr(C)]` { int, short, short }, the layout of
        // `struct pollfd`; `NfdsT` is `nfds_t` (`unsigned long` on Linux,
        // `unsigned int` on the BSDs and macOS). `poll` keeps no pointer
        // after it returns.
        #[allow(unsafe_code)]
        let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, timeout_ms) };
        if ready >= 0 {
            return Ok(ready as usize);
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Lets any thread interrupt a [`wait`]: a nonblocking socket pair whose
/// read end sits in the poll set.
#[derive(Debug)]
pub struct Waker {
    rx: UnixStream,
    tx: UnixStream,
}

impl Waker {
    /// A fresh pair, both ends nonblocking.
    pub fn new() -> std::io::Result<Self> {
        let (rx, tx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        Ok(Waker { rx, tx })
    }

    /// The poll-set entry for the read end.
    pub fn poll_fd(&self) -> PollFd {
        PollFd::new(self.rx.as_raw_fd(), POLLIN)
    }

    /// Makes the read end readable. A full pipe means wake-ups are already
    /// pending, so every error is ignorable.
    pub fn wake(&self) {
        let _ = (&self.tx).write(&[1]);
    }

    /// Swallows every pending wake-up byte.
    pub fn drain(&self) {
        let mut sink = [0u8; 64];
        while matches!((&self.rx).read(&mut sink), Ok(n) if n > 0) {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn wait_times_out_on_a_silent_waker_and_returns_at_once_on_a_woken_one() {
        let waker = Waker::new().unwrap();
        let mut fds = [waker.poll_fd()];
        assert_eq!(wait(&mut fds, Some(Duration::from_millis(5))).unwrap(), 0);
        assert_eq!(fds[0].revents(), 0);

        waker.wake();
        waker.wake();
        let began = Instant::now();
        assert_eq!(wait(&mut fds, None).unwrap(), 1);
        assert!(began.elapsed() < Duration::from_secs(1));
        assert_ne!(fds[0].revents() & POLLIN, 0);

        // Two wake-ups, one drain: nothing left to report.
        waker.drain();
        assert_eq!(wait(&mut fds, Some(Duration::ZERO)).unwrap(), 0);
    }

    #[test]
    fn a_wake_from_another_thread_ends_an_untimed_wait() {
        let waker = Waker::new().unwrap();
        std::thread::scope(|s| {
            s.spawn(|| waker.wake());
            let mut fds = [waker.poll_fd()];
            assert_eq!(wait(&mut fds, None).unwrap(), 1);
        });
    }

    #[test]
    fn hang_ups_are_reported_without_being_asked_for() {
        let (a, b) = UnixStream::pair().unwrap();
        drop(b);
        let mut fds = [PollFd::new(a.as_raw_fd(), 0)];
        assert_eq!(wait(&mut fds, Some(Duration::from_secs(1))).unwrap(), 1);
        assert_ne!(fds[0].revents() & POLLHUP, 0);
    }
}
