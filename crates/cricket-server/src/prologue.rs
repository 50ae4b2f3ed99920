//! The call prologue, routing and admission: how a call finds its device,
//! is admitted or shed (QoS, and the migration token gate), and what it
//! holds and is charged while it runs. Every charge is read from
//! `cricket.x`: `DISPATCH_NS` for the dispatch and
//! `cricket_v1::host_cost_ns` for the procedure.

use crate::scheduler::SessionId;
use crate::server::{CricketServer, Token, HANDLE_STRIDE, HEAP_STRIDE, LIB_HANDLE_BASE};
use cricket_proto::{cricket_v1, DISPATCH_NS};
use vgpu::{Device, Submit, VgpuError, VgpuResult};

impl CricketServer {
    /// Admission control, consulted by the hook [`crate::make_session_rpc`]
    /// installs before any procedure body runs. `Err(retry_after_ns)` sheds
    /// the call with `CRICKET_BUSY` — never executed, never replay-cached,
    /// safe to retry after the hint.
    ///
    /// `malloc_size` is the peeked `CUDA_MALLOC` argument, used to enforce
    /// the resident-bytes quota before the allocation happens.
    pub(crate) fn qos_admit(
        &self,
        session: SessionId,
        proc: u32,
        malloc_size: Option<u64>,
    ) -> Result<(), u64> {
        // `admin` procedures of `cricket.x` are always admitted: an operator
        // must be able to relax a quota or drain a saturated server, and
        // migration control never competes with tenant work.
        if cricket_v1::is_admin(proc) {
            return Ok(());
        }
        let cfg = self.cfg.qos;
        // Overload watermark: shed *new* sessions past the mark;
        // established sessions keep their service.
        if cfg.max_sessions > 0 {
            let sessions = self.sessions.lock();
            if !sessions.contains_key(&session) && sessions.len() >= cfg.max_sessions as usize {
                drop(sessions);
                return Err(self.shed(cfg.admission_retry_ns));
            }
        }
        // Resident-bytes quota: refuse a malloc that would cross the
        // session's ceiling (frees bring it back under).
        if let Some(size) = malloc_size {
            let quota = self.scheduler.qos_of(session).max_resident_bytes;
            if quota > 0 && self.resident_bytes(session).saturating_add(size) > quota {
                return Err(self.shed(cfg.admission_retry_ns));
            }
        }
        // Device-time rate quota: each admitted work call spends one
        // dispatch quantum from the session's token bucket; the bucket
        // refills on the virtual clock. Host-answered (`Done`-class) calls
        // are free — they consume no device time.
        if matches!(crate::proc_class(proc), oncrpc::ProcClass::Parked) {
            if let Err(hint) =
                self.scheduler
                    .rate_check(session, self.clock.now_ns(), DISPATCH_NS as u64)
            {
                return Err(self.shed(hint));
            }
        }
        Ok(())
    }

    /// Record a shed and advance the virtual clock by one dispatch quantum.
    /// The advance matters: token buckets refill on this clock, so even a
    /// lone over-quota client makes progress by retrying — each rejection
    /// moves time forward toward its refill.
    fn shed(&self, retry_after_ns: u64) -> u64 {
        self.scheduler.note_shed();
        self.clock.advance(DISPATCH_NS as u64);
        retry_after_ns
    }

    /// Bytes `session` holds on every device and in module images.
    fn resident_bytes(&self, session: SessionId) -> u64 {
        let (sessions, objects) = (self.sessions.lock(), self.objects.lock());
        let held = |r| crate::state::images(r, &objects) + r.mem.values().sum::<u64>();
        sessions.get(&session).map_or(0, held)
    }

    /// The live session currently bound to a client token, if any.
    pub fn session_of_token(&self, token: u64) -> Option<SessionId> {
        self.tokens.lock().get(&token).and_then(|t| t.session)
    }

    /// Run `f` on `token`'s record under the token lock; a record left
    /// saying nothing is dropped.
    pub(crate) fn with_token<R>(&self, token: u64, f: impl FnOnce(&mut Token) -> R) -> R {
        let mut tokens = self.tokens.lock();
        let t = tokens.entry(token).or_default();
        let r = f(t);
        if t.is_idle() {
            tokens.remove(&token);
        }
        r
    }

    /// Token-gate hook (see `oncrpc::RpcServer::set_token_gate`): may a call
    /// from `token` proceed on a connection acting in `session`? The token's
    /// first admitted call makes that session its own, never another token's.
    ///
    /// * evicted token → `false`: the connection closes and the client's
    ///   reconnect resolves the session's new home;
    /// * staged but unfinished inbound migration → `false`: the client
    ///   raced ahead of the final delta, retry until cutover completes;
    /// * ready inbound migration → merge it into the token's session,
    ///   `true`; `false` if its modules do not fit beside the session's: it
    ///   stays staged for the client's next connection (DESIGN §16).
    ///
    /// An admitted call counts as in flight until [`Self::call_complete`],
    /// decided under the same lock [`Self::evict_token`] drains under: once
    /// eviction has returned, no call of the token is admitted.
    pub fn observe_token(&self, token: u64, session: SessionId) -> bool {
        self.with_token(token, |t| {
            let held = self.sessions.lock().get(&session).and_then(|r| r.token);
            let s = t.session.unwrap_or(session);
            let foreign = held.is_some_and(|h| h != token || s != session);
            if t.evicted || foreign || !self.claim(s, &mut t.adoption) {
                return false;
            }
            let bound = usize::from(held.is_none());
            self.track(s, |r| (r.token, r.conns) = (Some(token), r.conns + bound));
            (t.session, t.inflight) = (Some(s), t.inflight + 1);
            true
        })
    }

    /// Gate completion hook: an admitted call from `token` finished.
    pub fn call_complete(&self, token: u64) {
        self.with_token(token, |t| t.inflight = t.inflight.saturating_sub(1));
        self.quiesce.notify_all();
    }

    /// Evict `token`: the gate refuses its calls from now on, closing the
    /// client's connection so its retransmission lands at the new home.
    /// Blocks (bounded) until calls already past the gate have completed —
    /// the final snapshot must not race a half-executed mutation whose
    /// reply the client will still receive.
    pub fn evict_token(&self, token: u64) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        let mut tokens = self.tokens.lock();
        tokens.entry(token).or_default().evicted = true;
        while tokens.get(&token).is_some_and(|t| t.inflight > 0) {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if left.is_zero() {
                // Safety valve: a wedged call must not hang the cutover.
                break;
            }
            self.quiesce.wait_for(&mut tokens, left);
        }
    }

    /// Roll back an eviction (aborted migration): admit the token again
    /// and perform any release that was deferred while it was evicted.
    pub fn readmit_token(&self, token: u64) {
        let session = self.with_token(token, |t| {
            t.evicted = false;
            t.session
        });
        let deferred = |s| {
            let mut sessions = self.sessions.lock();
            sessions
                .get_mut(&s)
                .is_some_and(|r| std::mem::take(&mut r.deferred))
        };
        if let Some(s) = session.filter(|&s| deferred(s)) {
            self.force_release(s);
        }
    }

    /// The session's current device ordinal.
    pub(crate) fn current_device(&self, session: SessionId) -> usize {
        let sessions = self.sessions.lock();
        sessions.get(&session).and_then(|r| r.device).unwrap_or(0)
    }

    /// Which device a pointer or handle belongs to, if any.
    pub(crate) fn device_of_token(&self, token: u64) -> Option<usize> {
        if (HEAP_STRIDE..LIB_HANDLE_BASE).contains(&token) {
            let idx = (token / HEAP_STRIDE - 1) as usize;
            (idx < self.devices.len()).then_some(idx)
        } else if (0x10..HEAP_STRIDE).contains(&token) {
            let idx = ((token - 0x10) / HANDLE_STRIDE) as usize;
            (idx < self.devices.len()).then_some(idx)
        } else {
            None
        }
    }

    /// The device of `token` (`len` bytes of memory, or a handle) if `session` owns it,
    /// refusing another's as an unknown one; 0 and library handles route to its current one.
    pub(crate) fn owned(&self, session: SessionId, token: u64, len: u64) -> VgpuResult<usize> {
        let sessions = self.sessions.lock();
        let r = sessions.get(&session);
        let block = r.and_then(|r| r.mem.range(..=token).next_back());
        let inside = block.is_some_and(|(&b, &size)| token - b < size && len <= size - (token - b));
        if token != 0 && !inside && !r.is_some_and(|r| r.handles.contains_key(&token)) {
            return Err(match (HEAP_STRIDE..LIB_HANDLE_BASE).contains(&token) {
                true => VgpuError::InvalidPointer(token),
                false => VgpuError::InvalidHandle(token),
            });
        }
        Ok((self.device_of_token(token)).unwrap_or(r.and_then(|r| r.device).unwrap_or(0)))
    }

    /// The one call prologue. Gives the session its record (marks it seen),
    /// then takes what the call holds while it runs (`acquire`: nothing, an
    /// issue turn, or a turn and then a device lock), and only then counts
    /// the call and charges it — so a call that queues for the device is
    /// charged once it owns it, and contended virtual time depends on the
    /// scheduler's order alone.
    pub(crate) fn enter<H>(&self, session: SessionId, proc: u32, acquire: impl FnOnce() -> H) -> H {
        let held = self.charge(session, proc, acquire);
        self.metrics.add(crate::stats::CALLS, 1);
        held
    }

    /// [`Self::enter`] without the count: what every device leg of a call
    /// pays, `DISPATCH_NS` and the `cost(ns)` `cricket.x` declares for `proc`.
    fn charge<H>(&self, session: SessionId, proc: u32, acquire: impl FnOnce() -> H) -> H {
        self.sessions.lock().entry(session).or_default();
        let held = acquire();
        self.clock
            .advance(DISPATCH_NS as u64 + cricket_v1::host_cost_ns(proc));
        held
    }

    /// Host-only path: charge the RPC dispatch cost but take no scheduler
    /// turn and hold no device for simulated time. For queries over
    /// host-visible state (device count, properties, current device).
    pub(crate) fn host_call<R>(&self, session: SessionId, proc: u32, f: impl FnOnce() -> R) -> R {
        self.enter(session, proc, || ());
        f()
    }

    /// Queue-backed call: [`Self::enqueue_leg`], counted once.
    pub(crate) fn enqueue_at<R, S: Into<Option<Submit>>>(
        &self,
        session: SessionId,
        idx: usize,
        proc: u32,
        returns: Returns,
        f: impl FnOnce(&mut Device) -> Result<(R, S), VgpuError>,
    ) -> Result<R, VgpuError> {
        let r = self.enqueue_leg(session, idx, proc, returns, f);
        self.metrics.add(crate::stats::CALLS, 1);
        r
    }

    /// Queue-backed leg: win an issue slot from the scheduler, lock device
    /// `idx`, run `f`. A command the device accepted costs the clock its
    /// submission and the session's ledger its queued device time; a
    /// host-side stamp (no `Submit`) costs what `f` charged itself.
    /// [`Returns::AtSubmission`] is an asynchronous call — the RPC returns
    /// while the work is still in flight on its stream;
    /// [`Returns::AtCompletion`] has sync memcpy semantics (ordered behind
    /// prior stream work, returns when done). The leg is charged but not
    /// counted: a peer copy is one call of two legs.
    pub(crate) fn enqueue_leg<R, S: Into<Option<Submit>>>(
        &self,
        session: SessionId,
        idx: usize,
        proc: u32,
        returns: Returns,
        f: impl FnOnce(&mut Device) -> Result<(R, S), VgpuError>,
    ) -> Result<R, VgpuError> {
        let (turn, mut dev) = self.charge(session, proc, || {
            let turn = self.scheduler.begin(session);
            (turn, self.devices[idx].lock())
        });
        let (r, sub) = f(&mut dev)?;
        if let Some(sub) = sub.into() {
            self.clock.advance(sub.submit_ns);
            if returns == Returns::AtCompletion {
                self.clock.advance_to(sub.completes_at_ns);
            }
            turn.charge(sub.queued_ns);
        }
        Ok(r)
    }

    /// Synchronization path: win an issue slot, run the op, then advance
    /// the clock by the wait `f` reports (time until the relevant timeline
    /// drains). Nothing new is charged to the ledger — the waited-on work
    /// was charged when it was enqueued.
    pub(crate) fn wait_at<R>(
        &self,
        session: SessionId,
        idx: usize,
        proc: u32,
        f: impl FnOnce(&mut Device) -> Result<(R, u64), VgpuError>,
    ) -> Result<R, VgpuError> {
        self.wait_turn(session, proc, || f(&mut self.devices[idx].lock()))
    }

    /// [`Self::wait_at`] without a device: `f` locks what it needs itself
    /// (`CKPT_*` walk every device in turn).
    pub(crate) fn wait_turn<R>(
        &self,
        session: SessionId,
        proc: u32,
        f: impl FnOnce() -> Result<(R, u64), VgpuError>,
    ) -> Result<R, VgpuError> {
        let _turn = self.enter(session, proc, || self.scheduler.begin(session));
        let (r, wait_ns) = f()?;
        self.clock.advance(wait_ns);
        Ok(r)
    }

    /// [`Self::wait_at`] on the session's current device.
    pub(crate) fn wait_here<R>(
        &self,
        session: SessionId,
        proc: u32,
        f: impl FnOnce(&mut Device) -> Result<(R, u64), VgpuError>,
    ) -> Result<R, VgpuError> {
        let idx = self.current_device(session);
        self.wait_at(session, idx, proc, f)
    }

    /// [`Self::wait_at`] on the device of `token`, which `session` owns.
    pub(crate) fn wait_for<R>(
        &self,
        session: SessionId,
        token: u64,
        proc: u32,
        f: impl FnOnce(&mut Device) -> Result<(R, u64), VgpuError>,
    ) -> Result<R, VgpuError> {
        let idx = self.owned(session, token, 0)?;
        self.wait_at(session, idx, proc, f)
    }
}

/// When a queue-backed call's RPC returns, in virtual time.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Returns {
    /// Once the command is submitted; it completes on its stream later.
    AtSubmission,
    /// Once the command has completed (sync memcpy semantics).
    AtCompletion,
}
