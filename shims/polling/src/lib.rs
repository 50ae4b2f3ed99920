//! Readiness polling over nonblocking TCP sockets: level-triggered Linux
//! `epoll` plus an `eventfd` in the same set for [`Poller::notify`], declared
//! `extern "C"` (std links libc; the build is offline, so no mio). One
//! [`Poller::wait`] costs O(ready sources), not O(registered).
//!
//! **Level-triggered:** data left unread is reported again by the next
//! `wait`, so a reader may stop early and come back, and a source resumed
//! after [`Poller::suspend`] reports what arrived meanwhile.
//!
//! **Descriptors:** the poller keeps each source's raw descriptor, not a
//! handle, so the owner calls [`Poller::deregister`] *before* closing the
//! socket. A registration belongs to the open file description: a
//! `try_clone` dup keeps it, and its events, alive after the owner's handle
//! is gone, and only `EPOLL_CTL_DEL` on an open descriptor removes it. The
//! key table's lock is taken by register, deregister, suspend, resume and
//! `set_write_interest`; `wait` and `notify` take none.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::ffi::c_int;
use std::fs::File;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::time::Duration;

/// One readiness observation from [`Poller::wait`]: the source has data, or
/// hung up, or errored — a read yields the data, the EOF or the error — or,
/// with write interest set, has room to write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The key the source was registered under.
    pub key: usize,
}

/// `struct epoll_event`, which the kernel packs on x86_64 only.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: u32, flags: c_int) -> c_int;
}

/// `EPOLL_CLOEXEC` and `EFD_CLOEXEC` alike.
const O_CLOEXEC: c_int = 0o2_000_000;
const EFD_NONBLOCK: c_int = 0o4_000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLLIN: u32 = 0x1;
const EPOLLOUT: u32 = 0x4;
/// The mask of a source with no interest left. Hang-ups and errors are
/// reported even on an empty mask; one-shot disarms the source after one.
const EPOLLONESHOT: u32 = 1 << 30;
/// The eventfd's epoll data: no source may take `usize::MAX` as its key.
const NOTIFY: u64 = u64::MAX;
/// Events taken per `wait`; more ready sources stay ready for the next.
const BATCH: usize = 256;

/// A raw syscall return as a `Result`.
fn cvt(ret: c_int) -> io::Result<c_int> {
    (ret >= 0)
        .then_some(ret)
        .ok_or_else(io::Error::last_os_error)
}

/// Waitable readiness poller. Clone-free: share it behind an `Arc`.
pub struct Poller {
    epoll: OwnedFd,
    /// Readable while a [`Poller::notify`] is pending; reading resets it.
    wake: File,
    /// Key → registered descriptor and its interest (`EPOLLIN` unless
    /// suspended, `EPOLLOUT` while write interest is set).
    sources: Mutex<HashMap<usize, (RawFd, u32)>>,
}

impl Poller {
    /// Create an empty poller. Fails when the process has no descriptors
    /// left (`EMFILE`) or the kernel refuses an epoll instance or eventfd.
    pub fn try_new() -> io::Result<Self> {
        // SAFETY: each call returns a fresh descriptor (checked by `cvt`)
        // that nothing else owns; the wrapper becomes its only owner.
        let epoll = unsafe { OwnedFd::from_raw_fd(cvt(epoll_create1(O_CLOEXEC))?) };
        // SAFETY: as above.
        let wake = unsafe { File::from_raw_fd(cvt(eventfd(0, O_CLOEXEC | EFD_NONBLOCK))?) };
        let poller = Self {
            epoll,
            wake,
            sources: Mutex::new(HashMap::new()),
        };
        poller.ctl(EPOLL_CTL_ADD, poller.wake.as_raw_fd(), EPOLLIN, NOTIFY)?;
        Ok(poller)
    }

    /// [`Poller::try_new`], panicking when it fails.
    pub fn new() -> Self {
        Self::try_new().expect("create an epoll instance and an eventfd")
    }

    fn ctl(&self, op: c_int, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events, data };
        // SAFETY: `ev` is a valid `epoll_event` that outlives the call; the
        // kernel checks both descriptors.
        cvt(unsafe { epoll_ctl(self.epoll.as_raw_fd(), op, fd, &mut ev) }).map(drop)
    }

    /// Register `stream` for readability under `key`, which must not be
    /// `usize::MAX` or another live source's. The stream is switched to
    /// nonblocking mode and must stay open until [`Poller::deregister`].
    pub fn register(&self, stream: &TcpStream, key: usize) -> io::Result<()> {
        if key as u64 == NOTIFY {
            return Err(io::ErrorKind::InvalidInput.into());
        }
        stream.set_nonblocking(true)?;
        let mut sources = self.sources.lock();
        self.ctl(EPOLL_CTL_ADD, stream.as_raw_fd(), EPOLLIN, key as u64)?;
        sources.insert(key, (stream.as_raw_fd(), EPOLLIN));
        Ok(())
    }

    /// Remove `key` from the poller; call it before the source's socket
    /// closes (see the module doc). Unknown keys are ignored.
    pub fn deregister(&self, key: usize) {
        let mut sources = self.sources.lock();
        if let Some((fd, _)) = sources.remove(&key) {
            // Fails only on a descriptor already closed, against the rule.
            let _ = self.ctl(EPOLL_CTL_DEL, fd, 0, 0);
        }
    }

    /// Stop reporting `key` readable (the owner is backpressuring this
    /// source); write interest stays. The socket stays registered;
    /// kernel-side the TCP window closes as unread data accumulates.
    pub fn suspend(&self, key: usize) {
        self.modify(key, EPOLLIN, false);
    }

    /// Resume reporting events for `key` after [`Poller::suspend`]. Data
    /// that arrived meanwhile is reported by the next `wait`.
    pub fn resume(&self, key: usize) {
        self.modify(key, EPOLLIN, true);
    }

    /// Also report `key` while its socket has room to write (`on`), whether
    /// or not reading is suspended; `false` stops that.
    pub fn set_write_interest(&self, key: usize, on: bool) {
        self.modify(key, EPOLLOUT, on);
    }

    fn modify(&self, key: usize, bit: u32, on: bool) {
        if let Some((fd, mask)) = self.sources.lock().get_mut(&key) {
            *mask = if on { *mask | bit } else { *mask & !bit };
            let events = if *mask == 0 { EPOLLONESHOT } else { *mask };
            // Only ENOMEM can fail a MOD of a registered, open descriptor.
            let _ = self.ctl(EPOLL_CTL_MOD, *fd, events, key as u64);
        }
    }

    /// Number of registered (live) sources.
    pub fn len(&self) -> usize {
        self.sources.lock().len()
    }

    /// Whether no sources are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Wake the current (or next) [`Poller::wait`] when out-of-band state
    /// changed. A `notify` before any `wait` is held until one consumes it;
    /// several pending ones wake one `wait`.
    pub fn notify(&self) {
        // Only a counter at its maximum refuses, and that is pending anyway.
        let _ = (&self.wake).write(&1u64.to_ne_bytes());
    }

    /// Block until at least one registered source is readable, `notify` was
    /// called, or `timeout` elapses (never, past `i32::MAX` ms, e.g.
    /// `Duration::MAX`). Readiness events are appended to `events` (cleared
    /// first). Returns the number of events.
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Duration) -> io::Result<usize> {
        events.clear();
        // Rounded up, so a sub-millisecond timeout blocks rather than spins.
        let ms = c_int::try_from(timeout.as_nanos().div_ceil(1_000_000)).unwrap_or(-1);
        let mut ready = [EpollEvent { events: 0, data: 0 }; BATCH];
        let epfd = self.epoll.as_raw_fd();
        // SAFETY: the kernel writes at most `BATCH` entries into `ready`.
        let n = unsafe { epoll_wait(epfd, ready.as_mut_ptr(), BATCH as c_int, ms) };
        let n = match cvt(n) {
            Ok(n) => n as usize,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
            Err(e) => return Err(e),
        };
        for ev in &ready[..n] {
            match ev.data {
                // Resets the counter: every notify so far is consumed by
                // this return, whose caller re-reads the state behind it.
                NOTIFY => drop((&self.wake).read(&mut [0u8; 8])),
                key => events.push(Event { key: key as usize }),
            }
        }
        Ok(events.len())
    }
}

impl Default for Poller {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Poller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Poller")
            .field("sources", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::sync::Arc;
    use std::time::Instant;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn readable_when_peer_writes() {
        let (mut client, server) = pair();
        let poller = Poller::new();
        poller.register(&server, 7).unwrap();
        let mut events = Vec::new();
        // Nothing yet.
        poller.wait(&mut events, Duration::from_millis(5)).unwrap();
        assert!(events.is_empty());
        client.write_all(b"x").unwrap();
        poller.wait(&mut events, Duration::from_secs(2)).unwrap();
        assert_eq!(events, vec![Event { key: 7 }]);
    }

    #[test]
    fn hup_when_peer_drops() {
        let (client, server) = pair();
        let poller = Poller::new();
        poller.register(&server, 1).unwrap();
        drop(client);
        let mut events = Vec::new();
        poller.wait(&mut events, Duration::from_secs(2)).unwrap();
        assert_eq!(events, vec![Event { key: 1 }]);
    }

    #[test]
    fn suspend_masks_events_until_resume() {
        let (mut client, server) = pair();
        let poller = Poller::new();
        poller.register(&server, 3).unwrap();
        client.write_all(b"data").unwrap();
        poller.suspend(3);
        let mut events = Vec::new();
        poller.wait(&mut events, Duration::from_millis(10)).unwrap();
        assert!(events.is_empty(), "suspended source reported readiness");
        poller.resume(3);
        poller.wait(&mut events, Duration::from_secs(2)).unwrap();
        assert_eq!(events.len(), 1);
    }

    #[test]
    fn suspended_hangup_is_reported_at_most_once() {
        let (_client, server) = pair();
        let poller = Poller::new();
        poller.register(&server, 2).unwrap();
        poller.suspend(2);
        // Shut down both ways, as the reactor's writer kills a connection:
        // a hang-up (EPOLLHUP), which no event mask can exclude.
        server.shutdown(std::net::Shutdown::Both).unwrap();
        let mut seen = 0;
        let mut events = Vec::new();
        for _ in 0..3 {
            seen += poller.wait(&mut events, Duration::from_millis(10)).unwrap();
        }
        assert!(seen <= 1, "a suspended hang-up was reported {seen} times");
        poller.resume(2);
        poller.wait(&mut events, Duration::from_secs(2)).unwrap();
        assert_eq!(events, vec![Event { key: 2 }]);
    }

    #[test]
    fn write_interest_reports_a_writable_socket_until_cleared() {
        let (_client, server) = pair();
        let poller = Poller::new();
        poller.register(&server, 6).unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, Duration::from_millis(10)).unwrap();
        assert!(
            events.is_empty(),
            "an idle socket reported without write interest"
        );
        poller.suspend(6);
        poller.set_write_interest(6, true);
        for _ in 0..3 {
            poller.wait(&mut events, Duration::from_secs(2)).unwrap();
            assert_eq!(events, vec![Event { key: 6 }], "writable while suspended");
        }
        poller.resume(6);
        poller.wait(&mut events, Duration::from_secs(2)).unwrap();
        assert_eq!(events, vec![Event { key: 6 }], "writable while reading");
        poller.set_write_interest(6, false);
        poller.wait(&mut events, Duration::from_millis(10)).unwrap();
        assert!(
            events.is_empty(),
            "reported after write interest was cleared"
        );
    }

    #[test]
    fn notify_wakes_an_idle_wait() {
        let poller = Arc::new(Poller::new());
        let p2 = Arc::clone(&poller);
        let waker = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            p2.notify();
        });
        let mut events = Vec::new();
        let start = Instant::now();
        poller.wait(&mut events, Duration::from_secs(10)).unwrap();
        assert!(events.is_empty());
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "notify did not wake wait"
        );
        waker.join().unwrap();
    }

    #[test]
    fn notify_before_wait_is_not_lost() {
        let poller = Poller::new();
        poller.notify();
        poller.notify();
        let mut events = Vec::new();
        // Returns only through the pending notify: no timeout to fall back on.
        poller.wait(&mut events, Duration::MAX).unwrap();
        assert!(events.is_empty());
        // Both notifies were consumed by that one return.
        let err = (&poller.wake).read(&mut [0u8; 8]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
    }

    #[test]
    fn deregister_stops_events() {
        let (mut client, server) = pair();
        let poller = Poller::new();
        poller.register(&server, 9).unwrap();
        client.write_all(b"y").unwrap();
        poller.deregister(9);
        let mut events = Vec::new();
        poller.wait(&mut events, Duration::from_millis(10)).unwrap();
        assert!(events.is_empty());
        assert!(poller.is_empty());
    }

    #[test]
    fn deregister_holds_while_a_dup_keeps_the_socket_open() {
        let (mut client, server) = pair();
        let poller = Poller::new();
        poller.register(&server, 4).unwrap();
        let dup = server.try_clone().unwrap();
        poller.deregister(4);
        drop(server);
        client.write_all(b"z").unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, Duration::from_millis(10)).unwrap();
        assert!(events.is_empty(), "a deregistered socket's dup reported");
        drop(dup);
    }

    #[test]
    fn unread_data_is_reported_again() {
        let (mut client, mut server) = pair();
        let poller = Poller::new();
        poller.register(&server, 5).unwrap();
        client.write_all(b"ab").unwrap();
        let mut events = Vec::new();
        for _ in 0..3 {
            poller.wait(&mut events, Duration::from_secs(2)).unwrap();
            assert_eq!(events, vec![Event { key: 5 }]);
        }
        // Half read: still readable.
        let mut byte = [0u8; 1];
        server.read_exact(&mut byte).unwrap();
        poller.wait(&mut events, Duration::from_secs(2)).unwrap();
        assert_eq!(events, vec![Event { key: 5 }]);
        server.read_exact(&mut byte).unwrap();
        poller.wait(&mut events, Duration::from_millis(10)).unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn many_sources_report_independently() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let poller = Poller::new();
        let mut clients = Vec::new();
        let mut servers = Vec::new();
        for key in 0..16usize {
            let c = TcpStream::connect(addr).unwrap();
            let (s, _) = listener.accept().unwrap();
            poller.register(&s, key).unwrap();
            clients.push(c);
            servers.push(s);
        }
        clients[3].write_all(b"a").unwrap();
        clients[11].write_all(b"b").unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, Duration::from_secs(2)).unwrap();
        let mut keys: Vec<usize> = events.iter().map(|e| e.key).collect();
        keys.sort_unstable();
        assert_eq!(keys, vec![3, 11]);
    }

    #[test]
    fn one_written_source_among_1024_idle_is_the_only_event() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let poller = Poller::new();
        let mut pairs = Vec::new();
        for key in 0..1025usize {
            let c = TcpStream::connect(addr).unwrap();
            let (s, _) = listener.accept().unwrap();
            poller.register(&s, key).unwrap();
            pairs.push((c, s));
        }
        pairs[777].0.write_all(b"!").unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, Duration::from_secs(2)).unwrap();
        assert_eq!(events, vec![Event { key: 777 }]);
        assert_eq!(poller.len(), 1025);
    }
}
