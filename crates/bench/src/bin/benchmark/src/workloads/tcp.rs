//! `tcp_sessions` — real TCP over the host's loopback interface (no real
//! link is crossed) into `ServerBuilder` in `ServeMode::Reactor` with one
//! worker, with 64 sessions opened in set-up and held open.
//!
//! One driver thread visits the sessions round-robin with one request in
//! flight: `cudaGetDeviceCount` on every visit (answered inline on the
//! reactor thread), a `cudaMalloc`/`cudaFree` pair on about every 16th
//! (parked on the worker, taking a scheduler turn) and one 64 KiB
//! host-to-device copy on every 64th. So 63 sockets are registered but idle
//! while one is served: this is the only workload where the poller, the
//! reactor, kernel sockets and thread hand-offs do the work, and where the
//! simulated network and guest stack do none.
//!
//! There is no modelled network here, so `virt_ns_per_op` is only what the
//! server charges its virtual clock for service and device time.

use super::tcp_client;
use crate::harness::{Check, Checks, Class, Observer, Size, Unobserved, Window, Workload};
use crate::meter::{Meter, VirtClock};
use crate::rng::Rng;
use crate::sys::Reference;
use cricket_client::CricketClient;
use cricket_server::{ServeHandle, ServeMode, ServerBuilder};
use std::sync::Arc;
use std::time::Instant;

pub const SESSIONS: usize = 64;
const COPY_LEN: usize = 64 << 10;
/// Rounds over all sessions in one cycle.
pub const ROUNDS: usize = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Visit {
    session: usize,
    /// Allocation size of the malloc/free pair, if this visit has one.
    mem: Option<u64>,
    copy: bool,
}

/// Round-robin visits with the heavier ops at seeded positions: one visit
/// in 16 (give or take one) allocates and frees, one in 64 copies.
fn build_cycle(seed: u64, sessions: usize, rounds: usize) -> Vec<Visit> {
    let mut rng = Rng::new(seed, 5);
    let visits = sessions * rounds;
    let mut cycle: Vec<Visit> = (0..visits)
        .map(|i| Visit {
            session: i % sessions,
            mem: None,
            copy: false,
        })
        .collect();
    let mut order: Vec<usize> = (0..visits).collect();
    rng.shuffle(&mut order);
    let mems = rng.jitter((visits / 16) as u64, 1) as usize;
    let copies = (visits / 64).max(1);
    for (&i, size) in order[..mems].iter().zip(rng.size_ladder(mems)) {
        cycle[i].mem = Some(size);
    }
    for &i in &order[mems..mems + copies] {
        cycle[i].copy = true;
    }
    cycle
}

struct Session {
    client: CricketClient,
    /// Device buffer the copies land in, held for the session's life.
    buf: u64,
    /// A copy has been written since the last verification.
    dirty: bool,
}

pub struct Tcp {
    // `None` only while being dropped.
    handle: Option<ServeHandle>,
    sessions: Vec<Session>,
    meter: Arc<Meter>,
    virt: VirtClock,
    cycle: Vec<Visit>,
    reps: usize,
    payload: Vec<u8>,
    /// Wall ns per session to connect, allocate its buffer and get the
    /// first answer, during set-up.
    pub session_setup_ns: f64,
}

impl Tcp {
    /// Start a server and open `sessions` sessions; no warm-up. A cycle
    /// visits every session `rounds` times, a pass runs `reps` cycles.
    pub fn open(seed: u64, sessions: usize, rounds: usize, reps: usize, tracing: bool) -> Self {
        let handle = ServerBuilder::new("127.0.0.1:0")
            .mode(ServeMode::Reactor { workers: 1 })
            .serve()
            .expect("serve on loopback");
        let clock = Arc::clone(handle.server().clock());
        let virt: VirtClock = Arc::new(move || clock.now_ns());
        let meter = Meter::new(tracing);
        let t0 = Instant::now();
        let opened: Vec<Session> = (0..sessions)
            .map(|_| {
                let mut client = tcp_client(handle.addr(), &meter);
                let buf = client.malloc(COPY_LEN as u64).expect("session buffer");
                Session {
                    client,
                    buf,
                    dirty: false,
                }
            })
            .collect();
        let session_setup_ns = t0.elapsed().as_nanos() as f64 / sessions as f64;
        let mut payload = vec![0u8; COPY_LEN];
        Rng::new(seed, 6).fill(&mut payload);
        Self {
            handle: Some(handle),
            sessions: opened,
            meter,
            virt,
            cycle: build_cycle(seed, sessions, rounds),
            reps,
            payload,
            session_setup_ns,
        }
    }

    /// Two unobserved cycles.
    pub fn warm_up(&mut self) {
        let mut warm = Checks::default();
        self.cycle_once(&mut Unobserved, &mut warm);
        self.cycle_once(&mut Unobserved, &mut warm);
        assert_eq!(warm.failed, 0, "warm-up failed: {:?}", warm.first_failure);
    }

    fn cycle_once<O: Observer>(&mut self, obs: &mut O, checks: &mut Checks) {
        let Self {
            sessions,
            cycle,
            payload,
            ..
        } = self;
        for visit in cycle.iter() {
            let s = &mut sessions[visit.session];
            obs.begin(Class::Count);
            let r = s.client.device_count();
            obs.end(Class::Count);
            if let Some(n) = checks.op("cudaGetDeviceCount", r) {
                checks.verify(Check::DeviceCount, n == 4, || {
                    format!("device count {n}, expected 4")
                });
            }
            if let Some(size) = visit.mem {
                obs.begin(Class::Malloc);
                let r = s.client.malloc(size);
                obs.end(Class::Malloc);
                if let Some(ptr) = checks.op("cudaMalloc", r) {
                    checks.verify(Check::Pointer, ptr != 0 && ptr != s.buf, || {
                        format!("cudaMalloc returned {ptr:#x}, null or the session's live buffer")
                    });
                    obs.begin(Class::Free);
                    let r = s.client.free(ptr);
                    obs.end(Class::Free);
                    checks.op("cudaFree", r);
                }
            }
            if visit.copy {
                obs.begin(Class::H2d);
                let r = s.client.memcpy_htod(s.buf, payload);
                obs.end(Class::H2d);
                if checks.op("cudaMemcpy(H2D)", r).is_some() {
                    s.dirty = true;
                }
            }
        }
    }
}

impl Drop for Tcp {
    fn drop(&mut self) {
        // Clients first: the reactor finalises a session when its socket
        // closes, and shutdown waits for that.
        self.sessions.clear();
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
        }
    }
}

impl Workload for Tcp {
    const NAME: &'static str = "tcp_sessions";
    const LINK: &'static str = "loopback (real TCP sockets on 127.0.0.1, wall time; no real link)";
    const DETERMINISTIC: bool = false;
    const REFERENCE: Reference = Reference::Cpu;

    fn set_up(seed: u64, size: Size, tracing: bool) -> Self {
        let mut w = Self::open(seed, SESSIONS, ROUNDS, size.pick(8, 2, 1), tracing);
        w.warm_up();
        w
    }

    fn meter(&self) -> &Arc<Meter> {
        &self.meter
    }

    fn virt(&self) -> Option<&VirtClock> {
        Some(&self.virt)
    }

    fn pass<O: Observer>(&mut self, obs: &mut O, win: &mut Window, checks: &mut Checks) -> u64 {
        let before = checks.attempted;
        win.resume();
        for _ in 0..self.reps {
            self.cycle_once(obs, checks);
        }
        win.pause();
        checks.attempted - before
    }

    /// Read every written buffer back: the copies landed byte for byte.
    fn verify(&mut self, checks: &mut Checks) {
        for s in self.sessions.iter_mut().filter(|s| s.dirty) {
            let r = s.client.memcpy_dtoh(s.buf, COPY_LEN as u64);
            if let Some(back) = checks.op("cudaMemcpy(D2H)", r) {
                checks.verify(Check::Bytes, back == self.payload, || {
                    "a session's buffer differs from the bytes copied to it".into()
                });
            }
            s.dirty = false;
        }
    }

    fn ops_hint(&self) -> usize {
        self.reps * (self.cycle.len() + self.cycle.len() / 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_visits_every_session_equally() {
        let c = build_cycle(3, 64, ROUNDS);
        assert_eq!(c, build_cycle(3, 64, ROUNDS));
        assert_ne!(c, build_cycle(4, 64, ROUNDS));
        assert_eq!(c.len(), 64 * ROUNDS);
        for s in 0..64 {
            assert_eq!(c.iter().filter(|v| v.session == s).count(), ROUNDS);
        }
        let mems = c.iter().filter(|v| v.mem.is_some()).count();
        assert!((63..=65).contains(&mems), "{mems} malloc/free visits");
        assert_eq!(c.iter().filter(|v| v.copy).count(), 16);
        assert!(!c.iter().any(|v| v.copy && v.mem.is_some()));
        // Also at the side passes' session counts.
        assert_eq!(
            build_cycle(3, 8, ROUNDS).iter().filter(|v| v.copy).count(),
            2
        );
        assert_eq!(build_cycle(3, 512, 2).len(), 1024);
    }
}
