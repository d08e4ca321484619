//! Readiness polling (`epoll`/`poll`) without external crates.
//!
//! `frappe-serve`'s event-driven query listener needs to wait on
//! thousands of sockets from one thread. std exposes no readiness API,
//! and pulling in `mio` would break the workspace's zero-dependency
//! guarantee — so, exactly like [`crate::mmap`], this module declares the
//! handful of raw libc symbols itself (std already links libc on unix) and
//! confines the `unsafe` to the audited blocks below.
//!
//! Two backends behind one [`Poller`] API:
//!
//! * **epoll** (linux, the default there): O(1) readiness delivery — the
//!   kernel holds the interest list, `epoll_wait` returns only ready fds.
//! * **poll** (any unix; forced with `FRAPPE_POLL_BACKEND=poll`): the
//!   portable O(n) fallback — the interest list lives here and is handed
//!   to `poll(2)` on every wait. Same observable semantics, which the
//!   tests pin by running both backends through one suite.
//!
//! Both are **level-triggered**: an fd with unread input (or writable
//! space) reports ready on every wait until the condition is consumed.
//! Consumers therefore never lose a wakeup by reading "too little".
//!
//! ## Safety argument
//!
//! * Every syscall here takes either a caller-supplied open fd (the caller
//!   keeps it open for the registration's lifetime — same contract as
//!   `mmap`'s fd precondition) or an fd this module created and owns.
//! * Buffers handed to the kernel (`epoll_wait`/`poll` event arrays, the
//!   waker's 1-byte pipe reads/writes) are stack- or Vec-backed, sized by
//!   the same `len` passed to the call, and outlive the call.
//! * `epoll_event` is `repr(C, packed)` on x86-64 (matching the kernel
//!   ABI); fields are only ever copied out, never referenced in place.
//! * Failure paths (`-1` returns) are mapped to `std::io::Error` from
//!   `errno` before any result is used; `EINTR` is handled by returning an
//!   empty ready set, which level-triggering makes loss-free.
//! * [`Waker`] owns both pipe fds and closes them exactly once in `Drop`;
//!   `wake` writes one byte and treats a full pipe (`EAGAIN`) as success
//!   because a pending byte already guarantees a wakeup.
//!
//! On non-unix platforms [`Poller::new`] returns `Unsupported`, and so does
//! `frappe-serve`'s `Server::start`: the server needs a unix platform.

#![cfg_attr(not(unix), allow(dead_code, unused_variables))]

use std::io;
use std::time::Duration;

/// Raw file descriptor (i32 on every unix; kept as a plain alias so this
/// module's API is nameable on non-unix builds too).
pub type RawFd = i32;

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PollEvent {
    /// The token the fd was registered with.
    pub token: u64,
    /// Reading (or accepting) will not block — includes error/hangup
    /// states so a closed peer surfaces as a readable EOF.
    pub readable: bool,
    /// Writing will not block.
    pub writable: bool,
    /// The peer hung up or the fd is in an error state.
    pub hangup: bool,
}

/// Which syscall family a [`Poller`] drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// `epoll_create1`/`epoll_ctl`/`epoll_wait` (linux only).
    Epoll,
    /// `poll(2)` over an interest list kept in userspace (any unix).
    Poll,
}

#[cfg(unix)]
mod sys {
    //! The raw libc surface: symbol declarations plus the ABI constants
    //! they consume (values shared by x86-64 and aarch64 linux).

    pub const EPOLL_CLOEXEC: i32 = 0x80000;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;

    pub const F_SETFD: i32 = 2;
    pub const F_GETFL: i32 = 3;
    pub const F_SETFL: i32 = 4;
    pub const FD_CLOEXEC: i32 = 1;
    pub const O_NONBLOCK: i32 = 0o4000;

    /// Kernel ABI for one epoll event. Packed on x86-64 (the kernel struct
    /// has no padding there); naturally aligned elsewhere.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    /// `struct pollfd`.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        pub fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
        pub fn pipe(fds: *mut i32) -> i32;
        pub fn fcntl(fd: i32, cmd: i32, ...) -> i32;
        pub fn close(fd: i32) -> i32;
        pub fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        pub fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }
}

/// Converts a `-1`-means-error syscall return into an `io::Result`.
#[cfg(unix)]
fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

#[cfg(unix)]
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(d) if d.is_zero() => 0,
        // Round up so sub-millisecond timeouts don't spin at 0ms.
        Some(d) => i32::try_from(d.as_millis().max(1)).unwrap_or(i32::MAX),
    }
}

enum Inner {
    #[cfg(target_os = "linux")]
    Epoll {
        epfd: RawFd,
        buf: Vec<sys::EpollEvent>,
        registered: usize,
    },
    #[cfg(unix)]
    Poll {
        /// Userspace interest list: `(fd, token, readable, writable)`.
        interest: Vec<(RawFd, u64, bool, bool)>,
        buf: Vec<sys::PollFd>,
    },
    #[cfg(not(unix))]
    Unsupported,
}

/// A readiness monitor over raw fds: register with a `u64` token, wait for
/// [`PollEvent`]s. Level-triggered on both backends.
pub struct Poller {
    inner: Inner,
}

impl Poller {
    /// Opens a poller on the platform default backend: epoll on linux
    /// (overridable with `FRAPPE_POLL_BACKEND=poll`), `poll(2)` on other
    /// unixes. Errors with `Unsupported` elsewhere.
    pub fn new() -> io::Result<Poller> {
        #[cfg(target_os = "linux")]
        {
            let forced_poll =
                std::env::var("FRAPPE_POLL_BACKEND").is_ok_and(|v| v.eq_ignore_ascii_case("poll"));
            if !forced_poll {
                return Poller::with_backend(Backend::Epoll);
            }
        }
        Poller::with_backend(Backend::Poll)
    }

    /// Opens a poller on an explicit backend (tests run both through one
    /// suite). `Backend::Epoll` off linux is `Unsupported`.
    pub fn with_backend(backend: Backend) -> io::Result<Poller> {
        match backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll => {
                // SAFETY: no pointers; a valid return is an owned fd.
                let epfd = cvt(unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) })?;
                Ok(Poller {
                    inner: Inner::Epoll {
                        epfd,
                        buf: vec![sys::EpollEvent { events: 0, data: 0 }; 1024],
                        registered: 0,
                    },
                })
            }
            #[cfg(all(unix, not(target_os = "linux")))]
            Backend::Epoll => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "epoll is linux-only; use Backend::Poll",
            )),
            #[cfg(unix)]
            Backend::Poll => Ok(Poller {
                inner: Inner::Poll {
                    interest: Vec::new(),
                    buf: Vec::new(),
                },
            }),
            #[cfg(not(unix))]
            _ => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "readiness polling needs a unix platform",
            )),
        }
    }

    /// Which backend this poller drives (for logs and obs labels).
    pub fn backend(&self) -> Backend {
        match &self.inner {
            #[cfg(target_os = "linux")]
            Inner::Epoll { .. } => Backend::Epoll,
            #[cfg(unix)]
            Inner::Poll { .. } => Backend::Poll,
            #[cfg(not(unix))]
            Inner::Unsupported => unreachable!("constructors reject non-unix"),
        }
    }

    /// Number of currently registered fds.
    pub fn registered(&self) -> usize {
        match &self.inner {
            #[cfg(target_os = "linux")]
            Inner::Epoll { registered, .. } => *registered,
            #[cfg(unix)]
            Inner::Poll { interest, .. } => interest.len(),
            #[cfg(not(unix))]
            Inner::Unsupported => 0,
        }
    }

    /// Starts monitoring `fd` under `token`. The fd must stay open until
    /// [`Poller::deregister`] (closing a registered fd is the classic
    /// epoll leak: the kernel entry lingers until the *description*
    /// closes).
    pub fn register(
        &mut self,
        fd: RawFd,
        token: u64,
        readable: bool,
        writable: bool,
    ) -> io::Result<()> {
        self.ctl(fd, token, readable, writable, /*add=*/ true)
    }

    /// Updates the interest set of an already registered fd.
    pub fn modify(
        &mut self,
        fd: RawFd,
        token: u64,
        readable: bool,
        writable: bool,
    ) -> io::Result<()> {
        self.ctl(fd, token, readable, writable, /*add=*/ false)
    }

    fn ctl(
        &mut self,
        fd: RawFd,
        token: u64,
        readable: bool,
        writable: bool,
        add: bool,
    ) -> io::Result<()> {
        match &mut self.inner {
            #[cfg(target_os = "linux")]
            Inner::Epoll {
                epfd, registered, ..
            } => {
                let mut events = sys::EPOLLRDHUP;
                if readable {
                    events |= sys::EPOLLIN;
                }
                if writable {
                    events |= sys::EPOLLOUT;
                }
                let mut ev = sys::EpollEvent {
                    events,
                    data: token,
                };
                let op = if add {
                    sys::EPOLL_CTL_ADD
                } else {
                    sys::EPOLL_CTL_MOD
                };
                // SAFETY: `ev` is a live stack value for the duration of
                // the call; `epfd` is this poller's owned epoll fd.
                cvt(unsafe { sys::epoll_ctl(*epfd, op, fd, &mut ev) })?;
                if add {
                    *registered += 1;
                }
                Ok(())
            }
            #[cfg(unix)]
            Inner::Poll { interest, .. } => {
                let existing = interest.iter_mut().find(|(f, ..)| *f == fd);
                match (existing, add) {
                    (Some(_), true) => Err(io::Error::new(
                        io::ErrorKind::AlreadyExists,
                        "fd already registered",
                    )),
                    (None, false) => {
                        Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"))
                    }
                    (Some(slot), false) => {
                        *slot = (fd, token, readable, writable);
                        Ok(())
                    }
                    (None, true) => {
                        interest.push((fd, token, readable, writable));
                        Ok(())
                    }
                }
            }
            #[cfg(not(unix))]
            Inner::Unsupported => unreachable!("constructors reject non-unix"),
        }
    }

    /// Stops monitoring `fd`. Call before closing the fd.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        match &mut self.inner {
            #[cfg(target_os = "linux")]
            Inner::Epoll {
                epfd, registered, ..
            } => {
                let mut ev = sys::EpollEvent { events: 0, data: 0 };
                // SAFETY: as in `ctl`; pre-2.6.9 kernels insist on a
                // non-null event pointer for DEL, which `ev` satisfies.
                cvt(unsafe { sys::epoll_ctl(*epfd, sys::EPOLL_CTL_DEL, fd, &mut ev) })?;
                *registered = registered.saturating_sub(1);
                Ok(())
            }
            #[cfg(unix)]
            Inner::Poll { interest, .. } => {
                let before = interest.len();
                interest.retain(|(f, ..)| *f != fd);
                if interest.len() == before {
                    return Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"));
                }
                Ok(())
            }
            #[cfg(not(unix))]
            Inner::Unsupported => unreachable!("constructors reject non-unix"),
        }
    }

    /// Blocks until at least one registered fd is ready (or `timeout`
    /// elapses; `None` waits indefinitely), filling `events`. Returns the
    /// ready count; `EINTR` surfaces as an empty ready set.
    pub fn wait(
        &mut self,
        events: &mut Vec<PollEvent>,
        timeout: Option<Duration>,
    ) -> io::Result<usize> {
        events.clear();
        match &mut self.inner {
            #[cfg(target_os = "linux")]
            Inner::Epoll { epfd, buf, .. } => {
                // SAFETY: `buf` outlives the call and `maxevents` is its
                // exact length; the kernel writes at most that many
                // entries.
                let n = unsafe {
                    sys::epoll_wait(
                        *epfd,
                        buf.as_mut_ptr(),
                        buf.len() as i32,
                        timeout_ms(timeout),
                    )
                };
                if n < 0 {
                    let err = io::Error::last_os_error();
                    if err.kind() == io::ErrorKind::Interrupted {
                        return Ok(0);
                    }
                    return Err(err);
                }
                for ev in buf.iter().take(n as usize) {
                    // Copy packed fields out before use.
                    let (bits, token) = (ev.events, ev.data);
                    let err = bits & (sys::EPOLLERR | sys::EPOLLHUP | sys::EPOLLRDHUP) != 0;
                    events.push(PollEvent {
                        token,
                        readable: bits & sys::EPOLLIN != 0 || err,
                        writable: bits & sys::EPOLLOUT != 0,
                        hangup: err,
                    });
                }
                Ok(events.len())
            }
            #[cfg(unix)]
            Inner::Poll { interest, buf } => {
                buf.clear();
                buf.extend(interest.iter().map(|&(fd, _, readable, writable)| {
                    let mut ev = 0i16;
                    if readable {
                        ev |= sys::POLLIN;
                    }
                    if writable {
                        ev |= sys::POLLOUT;
                    }
                    sys::PollFd {
                        fd,
                        events: ev,
                        revents: 0,
                    }
                }));
                // SAFETY: `buf` outlives the call and `nfds` is its exact
                // length; `poll` only writes the `revents` fields.
                let n =
                    unsafe { sys::poll(buf.as_mut_ptr(), buf.len() as u64, timeout_ms(timeout)) };
                if n < 0 {
                    let err = io::Error::last_os_error();
                    if err.kind() == io::ErrorKind::Interrupted {
                        return Ok(0);
                    }
                    return Err(err);
                }
                for (slot, &(_, token, ..)) in buf.iter().zip(interest.iter()) {
                    let bits = slot.revents;
                    if bits == 0 {
                        continue;
                    }
                    let err = bits & (sys::POLLERR | sys::POLLHUP) != 0;
                    events.push(PollEvent {
                        token,
                        readable: bits & sys::POLLIN != 0 || err,
                        writable: bits & sys::POLLOUT != 0,
                        hangup: err,
                    });
                }
                Ok(events.len())
            }
            #[cfg(not(unix))]
            Inner::Unsupported => unreachable!("constructors reject non-unix"),
        }
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        if let Inner::Epoll { epfd, .. } = self.inner {
            // SAFETY: `epfd` is this poller's owned fd, closed exactly once.
            unsafe {
                sys::close(epfd);
            }
        }
    }
}

impl std::fmt::Debug for Poller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Poller({:?}, {} fds)", self.backend(), self.registered())
    }
}

/// A cross-thread wakeup for a [`Poller`]: a nonblocking self-pipe whose
/// read end is registered like any fd. Worker threads call [`Waker::wake`]
/// to pop a blocked [`Poller::wait`]; the owning loop calls
/// [`Waker::drain`] when the waker token fires.
pub struct Waker {
    read_fd: RawFd,
    write_fd: RawFd,
}

// SAFETY: both fds are owned until `Drop` and 1-byte pipe reads/writes are
// atomic, so concurrent `wake`/`drain` calls cannot race on the fd values.
#[cfg(unix)]
unsafe impl Send for Waker {}
#[cfg(unix)]
unsafe impl Sync for Waker {}

impl Waker {
    /// Creates the pipe pair, both ends nonblocking and cloexec.
    pub fn new() -> io::Result<Waker> {
        #[cfg(unix)]
        {
            let mut fds = [0i32; 2];
            // SAFETY: `fds` is a live 2-slot array, exactly what pipe(2)
            // writes.
            cvt(unsafe { sys::pipe(fds.as_mut_ptr()) })?;
            let waker = Waker {
                read_fd: fds[0],
                write_fd: fds[1],
            };
            for fd in fds {
                // SAFETY: fcntl on fds this function just created; flag
                // values are the linux ABI constants above.
                unsafe {
                    let flags = sys::fcntl(fd, sys::F_GETFL);
                    cvt(sys::fcntl(fd, sys::F_SETFL, flags | sys::O_NONBLOCK))?;
                    cvt(sys::fcntl(fd, sys::F_SETFD, sys::FD_CLOEXEC))?;
                }
            }
            Ok(waker)
        }
        #[cfg(not(unix))]
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "wakers need a unix platform",
        ))
    }

    /// The fd to register (readable) with the poller.
    pub fn read_fd(&self) -> RawFd {
        self.read_fd
    }

    /// Wakes the poller. Infallible by design: a full pipe means a wakeup
    /// is already pending, and any other failure mode would only delay the
    /// poller until its next timeout tick.
    pub fn wake(&self) {
        #[cfg(unix)]
        {
            let byte = 1u8;
            // SAFETY: 1-byte write from a live stack slot to an owned fd.
            unsafe {
                sys::write(self.write_fd, &byte, 1);
            }
        }
    }

    /// Consumes queued wakeups (call when the waker token reports ready).
    pub fn drain(&self) {
        #[cfg(unix)]
        {
            let mut buf = [0u8; 64];
            // SAFETY: reads into a live stack buffer of the stated length
            // from an owned nonblocking fd; loop ends on EAGAIN (-1).
            while unsafe { sys::read(self.read_fd, buf.as_mut_ptr(), buf.len()) } > 0 {}
        }
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        #[cfg(unix)]
        // SAFETY: owned fds, closed exactly once.
        unsafe {
            sys::close(self.read_fd);
            sys::close(self.write_fd);
        }
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    fn backends() -> Vec<Backend> {
        let mut b = vec![Backend::Poll];
        if cfg!(target_os = "linux") {
            b.push(Backend::Epoll);
        }
        b
    }

    #[test]
    fn listener_becomes_readable_on_connect() {
        for backend in backends() {
            let mut poller = Poller::with_backend(backend).unwrap();
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            poller
                .register(listener.as_raw_fd(), 7, true, false)
                .unwrap();

            let mut events = Vec::new();
            let n = poller
                .wait(&mut events, Some(Duration::from_millis(0)))
                .unwrap();
            assert_eq!(n, 0, "{backend:?}: idle listener must not be ready");

            let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let n = poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert_eq!(n, 1, "{backend:?}");
            assert_eq!(events[0].token, 7);
            assert!(events[0].readable && !events[0].writable);
        }
    }

    #[test]
    fn modify_switches_interest_and_level_triggering_persists() {
        for backend in backends() {
            let mut poller = Poller::with_backend(backend).unwrap();
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (mut server, _) = listener.accept().unwrap();
            server.write_all(b"hi").unwrap();

            let fd = client.as_raw_fd();
            poller.register(fd, 1, true, true).unwrap();
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert!(events[0].readable && events[0].writable, "{backend:?}");

            // Level-triggered: unconsumed input stays ready.
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert!(events[0].readable, "{backend:?}");

            // Write-only interest masks the pending input.
            poller.modify(fd, 2, false, true).unwrap();
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert_eq!(events[0].token, 2, "{backend:?}");
            assert!(!events[0].readable && events[0].writable, "{backend:?}");

            poller.deregister(fd).unwrap();
            assert_eq!(poller.registered(), 0);
            let n = poller
                .wait(&mut events, Some(Duration::from_millis(0)))
                .unwrap();
            assert_eq!(n, 0, "{backend:?}: deregistered fd must not report");
        }
    }

    #[test]
    fn peer_close_reports_readable_hangup() {
        for backend in backends() {
            let mut poller = Poller::with_backend(backend).unwrap();
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (server, _) = listener.accept().unwrap();

            let mut client = client;
            client.set_nonblocking(true).unwrap();
            poller.register(client.as_raw_fd(), 3, true, false).unwrap();
            drop(server);

            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert!(
                events[0].readable,
                "{backend:?}: EOF must surface as readable"
            );
            let mut buf = [0u8; 8];
            assert_eq!(client.read(&mut buf).unwrap(), 0, "clean EOF");
        }
    }

    #[test]
    fn waker_pops_a_blocked_wait_across_threads() {
        for backend in backends() {
            let mut poller = Poller::with_backend(backend).unwrap();
            let waker = std::sync::Arc::new(Waker::new().unwrap());
            poller.register(waker.read_fd(), 99, true, false).unwrap();

            let remote = std::sync::Arc::clone(&waker);
            let t = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(50));
                remote.wake();
                remote.wake(); // coalesces, must not break drain
            });

            let mut events = Vec::new();
            let started = std::time::Instant::now();
            poller
                .wait(&mut events, Some(Duration::from_secs(10)))
                .unwrap();
            assert!(started.elapsed() < Duration::from_secs(5), "{backend:?}");
            assert_eq!(events[0].token, 99);
            waker.drain();
            let n = poller
                .wait(&mut events, Some(Duration::from_millis(0)))
                .unwrap();
            assert_eq!(n, 0, "{backend:?}: drained waker must go quiet");
            t.join().unwrap();
        }
    }

    #[test]
    fn poll_backend_rejects_double_register_and_unknown_deregister() {
        let mut poller = Poller::with_backend(Backend::Poll).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let fd = listener.as_raw_fd();
        poller.register(fd, 1, true, false).unwrap();
        assert_eq!(
            poller.register(fd, 2, true, false).unwrap_err().kind(),
            io::ErrorKind::AlreadyExists
        );
        poller.deregister(fd).unwrap();
        assert_eq!(
            poller.deregister(fd).unwrap_err().kind(),
            io::ErrorKind::NotFound
        );
    }

    #[test]
    fn default_backend_matches_platform() {
        let poller = Poller::new().unwrap();
        if cfg!(target_os = "linux") && std::env::var("FRAPPE_POLL_BACKEND").is_err() {
            assert_eq!(poller.backend(), Backend::Epoll);
        } else {
            assert_eq!(poller.backend(), Backend::Poll);
        }
    }
}
