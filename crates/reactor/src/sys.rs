//! Raw libc bindings for the selector backends.
//!
//! The build environment has no crates.io access, so — like the in-repo
//! `proptest` shim — we declare the handful of syscall wrappers we need
//! directly against the platform C library instead of pulling in
//! `libc`/`mio`. Only the symbols the reactor actually uses
//! are declared, with x86/x86_64 Linux layout notes where the ABI is
//! subtle (`epoll_event` is packed there).

#![allow(clippy::missing_safety_doc)]

use std::io;

/// A raw file descriptor (`std::os::unix::io::RawFd` without the cfg
/// dance — this module is only compiled on unix targets).
pub type RawFd = i32;

/// `poll(2)` interest/result record.
#[repr(C)]
#[derive(Clone, Copy)]
pub struct PollFd {
    /// Descriptor to watch (negative entries are ignored by the kernel).
    pub fd: RawFd,
    /// Requested events (`POLLIN` / `POLLOUT`).
    pub events: i16,
    /// Returned events, filled by the kernel.
    pub revents: i16,
}

/// `poll(2)` readable.
pub const POLLIN: i16 = 0x001;
/// `poll(2)` writable.
pub const POLLOUT: i16 = 0x004;
/// `poll(2)` error condition (always reported, never requested).
pub const POLLERR: i16 = 0x008;
/// `poll(2)` hangup (always reported, never requested).
pub const POLLHUP: i16 = 0x010;

/// `epoll` readable.
pub const EPOLLIN: u32 = 0x001;
/// `epoll` writable.
pub const EPOLLOUT: u32 = 0x004;
/// `epoll` error condition.
pub const EPOLLERR: u32 = 0x008;
/// `epoll` hangup.
pub const EPOLLHUP: u32 = 0x010;
/// `epoll` peer shut down the write half.
pub const EPOLLRDHUP: u32 = 0x2000;

/// Add a descriptor to an epoll set.
pub const EPOLL_CTL_ADD: i32 = 1;
/// Remove a descriptor from an epoll set.
pub const EPOLL_CTL_DEL: i32 = 2;
/// Change the registered interest of a descriptor.
pub const EPOLL_CTL_MOD: i32 = 3;
/// Close the epoll fd on exec.
pub const EPOLL_CLOEXEC: i32 = 0o2000000;

/// `O_NONBLOCK` for `pipe2`.
pub const O_NONBLOCK: i32 = 0o4000;
/// `O_CLOEXEC` for `pipe2`.
pub const O_CLOEXEC: i32 = 0o2000000;

/// The kernel's `struct epoll_event`.
///
/// On x86 and x86_64 Linux the struct is declared
/// `__attribute__((packed))` so the 64-bit payload sits at offset 4;
/// everywhere else it has natural alignment. Getting this wrong corrupts
/// the token payload on every event, so both layouts are spelled out.
#[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
#[repr(C, packed)]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Ready-event bitmask (`EPOLLIN` | ...).
    pub events: u32,
    /// Caller-owned payload — we store the registration token.
    pub data: u64,
}

/// The kernel's `struct epoll_event` (naturally aligned variant).
#[cfg(not(any(target_arch = "x86_64", target_arch = "x86")))]
#[repr(C)]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Ready-event bitmask (`EPOLLIN` | ...).
    pub events: u32,
    /// Caller-owned payload — we store the registration token.
    pub data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn poll(fds: *mut PollFd, nfds: usize, timeout: i32) -> i32;
    fn pipe2(pipefd: *mut i32, flags: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn close(fd: i32) -> i32;
}

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// Creates an epoll instance (`EPOLL_CLOEXEC`).
pub fn sys_epoll_create() -> io::Result<RawFd> {
    // SAFETY: no pointers involved; the returned fd is owned by the caller.
    cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })
}

/// Adds/modifies/removes `fd` in the epoll set `epfd`.
pub fn sys_epoll_ctl(epfd: RawFd, op: i32, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
    let mut ev = EpollEvent { events, data };
    // SAFETY: `ev` outlives the call; the kernel copies it synchronously.
    cvt(unsafe { epoll_ctl(epfd, op, fd, &mut ev) }).map(|_| ())
}

/// Waits for events on `epfd`, retrying on `EINTR`.
pub fn sys_epoll_wait(epfd: RawFd, buf: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
    loop {
        // SAFETY: `buf` is a valid writable slice; `maxevents` matches its
        // length, so the kernel never writes past the end.
        let n = unsafe { epoll_wait(epfd, buf.as_mut_ptr(), buf.len() as i32, timeout_ms) };
        match cvt(n) {
            Ok(n) => return Ok(n as usize),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

/// Waits for events with `poll(2)`, retrying on `EINTR`.
pub fn sys_poll(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    loop {
        // SAFETY: `fds` is a valid mutable slice and `nfds` matches it.
        let n = unsafe { poll(fds.as_mut_ptr(), fds.len(), timeout_ms) };
        match cvt(n) {
            Ok(n) => return Ok(n as usize),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

/// Creates a non-blocking close-on-exec pipe, returning `(read, write)`.
pub fn sys_pipe() -> io::Result<(RawFd, RawFd)> {
    let mut fds = [0i32; 2];
    // SAFETY: `fds` is a valid 2-element array as `pipe2` requires.
    cvt(unsafe { pipe2(fds.as_mut_ptr(), O_NONBLOCK | O_CLOEXEC) })?;
    Ok((fds[0], fds[1]))
}

/// Non-blocking single-buffer read; `Ok(0)` means EOF.
pub fn sys_read(fd: RawFd, buf: &mut [u8]) -> io::Result<usize> {
    // SAFETY: `buf` is valid for writes of `buf.len()` bytes.
    let n = unsafe { read(fd, buf.as_mut_ptr(), buf.len()) };
    if n < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(n as usize)
    }
}

/// Non-blocking single-buffer write.
pub fn sys_write(fd: RawFd, buf: &[u8]) -> io::Result<usize> {
    // SAFETY: `buf` is valid for reads of `buf.len()` bytes.
    let n = unsafe { write(fd, buf.as_ptr(), buf.len()) };
    if n < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(n as usize)
    }
}

/// Closes a descriptor, ignoring errors (close is best-effort in drops).
pub fn sys_close(fd: RawFd) {
    // SAFETY: closing an fd we own; double-close is excluded by ownership.
    let _ = unsafe { close(fd) };
}
