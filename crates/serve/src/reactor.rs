//! Readiness polling for the serving reactor: one `poll(2)` loop over a
//! registration table, with zero crate dependencies (the same no-crate
//! syscall precedent as the slab `mmap` wrapper in `ml4all-dataflow`).
//!
//! One [`Poller`] instance backs the whole server. Each
//! [`Poller::wait`] rebuilds the `pollfd` array from the table, so
//! registering or re-arming a source is a map update, not a syscall.
//! Readiness is level-triggered: a source stays reported while it has
//! data (or room, for writers) and its interest asks for it.
//!
//! `poll(2)` has no portable read-hang-up flag: a peer's close or
//! half-close surfaces as `readable`, with a read returning `Ok(0)`,
//! only while read interest is on. A connection parked behind a full
//! inbox therefore sees it when reads resume. Socket errors and
//! `POLLHUP` are reported whatever the interest.
//!
//! Cross-thread wake-ups use the classic self-pipe trick:
//! [`Waker::wake`] is safe from any thread, including the engine's
//! worker threads pushing job events at the reactor.

#[cfg(not(unix))]
compile_error!("ml4all-serve needs a unix target: its reactor is built on poll(2)");

use std::collections::HashMap;
use std::io;
use std::os::unix::io::RawFd;
use std::sync::Arc;
use std::time::Duration;

/// What a registered source is currently interested in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the source is readable.
    pub read: bool,
    /// Wake when the source is writable.
    pub write: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Self = Self {
        read: true,
        write: false,
    };
    /// Read-and-write interest.
    pub const BOTH: Self = Self {
        read: true,
        write: true,
    };
}

/// One readiness event out of [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the source was registered under.
    pub token: u64,
    /// Reading will make progress: data, EOF (a peer's close or
    /// half-close), or an error to observe and close on.
    pub readable: bool,
    /// Writing will make progress.
    pub writable: bool,
}

#[repr(C)]
#[derive(Clone, Copy)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

/// `nfds_t`: `unsigned long` on Linux and Android, `unsigned int` on
/// macOS and the BSDs.
#[cfg(any(target_os = "linux", target_os = "android"))]
type NfdsT = std::ffi::c_ulong;
#[cfg(not(any(target_os = "linux", target_os = "android")))]
type NfdsT = std::ffi::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: i32) -> i32;
    fn pipe(fds: *mut i32) -> i32;
    fn fcntl(fd: i32, cmd: i32, arg: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn close(fd: i32) -> i32;
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;

const F_GETFL: i32 = 3;
const F_SETFL: i32 = 4;
#[cfg(target_os = "linux")]
const O_NONBLOCK: i32 = 0o4000;
#[cfg(not(target_os = "linux"))]
const O_NONBLOCK: i32 = 0x4;

/// The reactor's readiness source.
pub struct Poller {
    /// Read end of the nonblocking self-pipe; always polled first.
    wake_fd: RawFd,
    wake_write: Arc<WakeWriteEnd>,
    /// fd → (token, interest).
    registered: HashMap<RawFd, (u64, Interest)>,
    buf: Vec<PollFd>,
}

/// The self-pipe's write end, closed when the poller and every
/// [`Waker`] are gone.
struct WakeWriteEnd(RawFd);

impl Drop for WakeWriteEnd {
    fn drop(&mut self) {
        // SAFETY: the fd came from `pipe` and only this owner closes it.
        unsafe { close(self.0) };
    }
}

/// A cheap, cloneable cross-thread handle that interrupts
/// [`Poller::wait`].
#[derive(Clone)]
pub struct Waker(Arc<WakeWriteEnd>);

impl Waker {
    /// Interrupt the poller's current (or next) wait. Safe from any
    /// thread; coalesces — a thousand wakes cost one wake-up.
    pub fn wake(&self) {
        let byte = 1u8;
        // SAFETY: the write end stays open while this Arc lives, and the
        // buffer is one valid byte. A full pipe (EAGAIN) already
        // guarantees a pending wake-up.
        let _ = unsafe { write(self.0 .0, &byte, 1) };
    }
}

impl Poller {
    /// Open a poller (and its internal wake-up pipe).
    pub fn new() -> io::Result<Self> {
        let mut fds = [0i32; 2];
        // SAFETY: `fds` has room for the two descriptors `pipe` writes.
        if unsafe { pipe(fds.as_mut_ptr()) } != 0 {
            return Err(io::Error::last_os_error());
        }
        for fd in fds {
            // SAFETY: `fd` is an open pipe end owned by this function.
            let flags = unsafe { fcntl(fd, F_GETFL, 0) };
            // SAFETY: as above.
            if flags < 0 || unsafe { fcntl(fd, F_SETFL, flags | O_NONBLOCK) } < 0 {
                let err = io::Error::last_os_error();
                // SAFETY: both ends are open and owned by nobody else yet.
                unsafe {
                    close(fds[0]);
                    close(fds[1]);
                }
                return Err(err);
            }
        }
        Ok(Self {
            wake_fd: fds[0],
            wake_write: Arc::new(WakeWriteEnd(fds[1])),
            registered: HashMap::new(),
            buf: Vec::new(),
        })
    }

    /// A handle other threads use to interrupt [`Poller::wait`].
    pub fn waker(&self) -> Waker {
        Waker(Arc::clone(&self.wake_write))
    }

    /// Watch `fd` under `token` with `interest`, replacing any earlier
    /// registration of `fd`. Takes effect at the next [`Poller::wait`].
    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) {
        self.registered.insert(fd, (token, interest));
    }

    /// Stop watching `fd` (call before closing it).
    pub fn deregister(&mut self, fd: RawFd) {
        self.registered.remove(&fd);
    }

    /// Block until at least one source is ready, a waker fires, or
    /// `timeout` passes; readiness lands in `events` (cleared first).
    /// Returns the number of readiness events (0 on timeout or wake).
    pub fn wait(
        &mut self,
        events: &mut Vec<Event>,
        timeout: Option<Duration>,
    ) -> io::Result<usize> {
        events.clear();
        self.buf.clear();
        self.buf.push(PollFd {
            fd: self.wake_fd,
            events: POLLIN,
            revents: 0,
        });
        for (fd, (_, interest)) in &self.registered {
            let mut mask = 0;
            if interest.read {
                mask |= POLLIN;
            }
            if interest.write {
                mask |= POLLOUT;
            }
            self.buf.push(PollFd {
                fd: *fd,
                events: mask,
                revents: 0,
            });
        }
        let timeout_ms = timeout
            .map(|t| i32::try_from(t.as_millis().max(1)).unwrap_or(i32::MAX))
            .unwrap_or(-1);
        let nfds = NfdsT::try_from(self.buf.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "too many poll sources"))?;
        let rc = loop {
            // SAFETY: `buf` holds exactly `nfds` initialized `pollfd`s and
            // stays borrowed (unmoved) for the call.
            let rc = unsafe { poll(self.buf.as_mut_ptr(), nfds, timeout_ms) };
            if rc >= 0 {
                break rc;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        if rc == 0 {
            return Ok(0);
        }
        if self.buf[0].revents != 0 {
            self.drain_wakes();
        }
        for raw in &self.buf[1..] {
            if raw.revents == 0 {
                continue;
            }
            let (token, _) = self.registered[&raw.fd];
            events.push(Event {
                token,
                readable: raw.revents & (POLLIN | POLLHUP | POLLERR) != 0,
                writable: raw.revents & (POLLOUT | POLLERR) != 0,
            });
        }
        Ok(events.len())
    }

    /// Empty the wake-up pipe (the wakes coalesce into one loop turn).
    fn drain_wakes(&self) {
        let mut buf = [0u8; 64];
        loop {
            // SAFETY: `wake_fd` is open for the poller's lifetime and
            // `buf` is a valid writable buffer of the length passed.
            let n = unsafe { read(self.wake_fd, buf.as_mut_ptr(), buf.len()) };
            if n <= 0 {
                // EAGAIN (empty) or error either way: drained enough.
                return;
            }
        }
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: the poller owns the read end and closes it once.
        unsafe { close(self.wake_fd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;
    use std::time::Duration;

    #[test]
    fn poller_sees_listener_and_stream_readiness() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let mut poller = Poller::new().unwrap();
        poller.register(listener.as_raw_fd(), 1, Interest::READ);

        // No client yet: a short wait returns no events.
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.iter().all(|e| e.token != 1 || !e.readable));

        // A connecting client makes the listener readable.
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        let ready = loop {
            poller
                .wait(&mut events, Some(Duration::from_millis(50)))
                .unwrap();
            if events.iter().any(|e| e.token == 1 && e.readable) {
                break true;
            }
            if std::time::Instant::now() > deadline {
                break false;
            }
        };
        assert!(ready, "listener never became readable");
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();
        poller.register(server_side.as_raw_fd(), 2, Interest::READ);

        // Data from the client makes the accepted stream readable.
        client.write_all(b"ping").unwrap();
        client.flush().unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        loop {
            poller
                .wait(&mut events, Some(Duration::from_millis(50)))
                .unwrap();
            if events.iter().any(|e| e.token == 2 && e.readable) {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "stream never readable"
            );
        }
        let mut buf = [0u8; 8];
        let mut stream = &server_side;
        assert_eq!(stream.read(&mut buf).unwrap(), 4);

        // Write interest on an idle socket fires immediately (buffer has
        // room).
        poller.register(server_side.as_raw_fd(), 2, Interest::BOTH);
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        loop {
            poller
                .wait(&mut events, Some(Duration::from_millis(50)))
                .unwrap();
            if events.iter().any(|e| e.token == 2 && e.writable) {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "stream never writable"
            );
        }

        // A client closing a READ-registered stream makes it readable,
        // and the read returns EOF: no separate hang-up flag is needed.
        poller.register(server_side.as_raw_fd(), 2, Interest::READ);
        drop(client);
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        loop {
            poller
                .wait(&mut events, Some(Duration::from_millis(50)))
                .unwrap();
            if events.iter().any(|e| e.token == 2 && e.readable) {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "closed stream never readable"
            );
        }
        assert_eq!(stream.read(&mut buf).unwrap(), 0);
        poller.deregister(server_side.as_raw_fd());

        // A source at EOF after deregistration must not resurface token 2.
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.iter().all(|e| e.token != 2));
    }

    #[test]
    fn waker_interrupts_a_blocked_wait_from_another_thread() {
        let mut poller = Poller::new().unwrap();
        let waker = poller.waker();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            waker.wake();
        });
        let started = std::time::Instant::now();
        let mut events = Vec::new();
        // Block "forever": only the waker can end this before the outer
        // timeout would fail the test.
        poller
            .wait(&mut events, Some(Duration::from_secs(10)))
            .unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "wake-up never arrived"
        );
        handle.join().unwrap();
    }

    #[test]
    fn wakes_coalesce_and_do_not_leave_stale_readiness() {
        let mut poller = Poller::new().unwrap();
        let waker = poller.waker();
        for _ in 0..1000 {
            waker.wake();
        }
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(100)))
            .unwrap();
        // All 1000 wakes drained in one turn: the next wait times out
        // instead of spinning on a stale pipe byte.
        let started = std::time::Instant::now();
        poller
            .wait(&mut events, Some(Duration::from_millis(30)))
            .unwrap();
        assert!(started.elapsed() >= Duration::from_millis(25));
    }
}
