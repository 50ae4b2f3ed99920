//! Session state: export, apply and reclaim. One walker exports a
//! session as a `mig_blob` (a migration leg or a checkpoint's entry), one
//! applier places a blob's state on this server, and one reclaimer tears
//! down what a released session or an unclaimed adoption holds.

use crate::migrate;
use crate::scheduler::SessionId;
use crate::server::{
    handle_base, Adoption, CricketServer, HostObject, Kind, Session, SessionCleanup,
    LIB_HANDLE_BASE, LIB_HANDLE_END,
};
use cricket_proto::{
    MigBlob, MigCursor, MigDefaultStream, MigEvent, MigFft, MigFunction, MigKind, MigModule,
    MigStream, ReplayEntry, SessionMeta,
};
use parking_lot::{Mutex, MutexGuard};
use simnet::clock::HORIZON_NS;
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::Ordering;
use vgpu::memory::MemDelta;
use vgpu::{Device, VgpuError, VgpuResult};

/// Most module image bytes a session retains, however its modules came
/// (DESIGN §16). A real cubin is a few MiB.
pub const MAX_MODULE_BYTES: u64 = 64 << 20;

/// Most inbound migrations staged at once, one per client token (DESIGN
/// §16); a base beyond it is refused and what it placed reclaimed.
pub(crate) const MAX_STAGED_MIGRATIONS: usize = 64;

/// Refuse `requested` more bytes of module image beside `held`.
pub(crate) fn module_room(held: u64, requested: u64) -> VgpuResult<()> {
    let free = MAX_MODULE_BYTES.saturating_sub(held);
    if requested > free {
        return Err(VgpuError::OutOfMemory { requested, free });
    }
    Ok(())
}

/// Bytes of the module images `r` holds.
pub(crate) fn images(r: &Session, objects: &HashMap<u64, HostObject>) -> u64 {
    let image = |h| match objects.get(h) {
        Some(HostObject::Module(image)) => image.len() as u64,
        _ => 0,
    };
    r.handles.keys().map(image).sum()
}

/// The typed refusal of a restored handle somebody on this server holds.
pub(crate) fn live_here(handle: u64) -> VgpuError {
    VgpuError::InvalidValue(format!("handle {handle:#x} is live on this server"))
}

impl CricketServer {
    /// Reclaim everything `session` still holds: free its device memory,
    /// destroy its streams/events, unload its modules, and drop its library
    /// handles. Called when a client connection vanishes so a crashed or
    /// partitioned unikernel cannot leak vGPU state. Individual teardown
    /// errors are ignored — the resource may already be gone (explicit
    /// destroy raced with the disconnect, or a `cudaDeviceReset` took it).
    pub fn release_session(&self, session: SessionId) -> SessionCleanup {
        // A session several connections act in (a token bound them) waits
        // for the last. One whose client token was evicted mid-migration is
        // torn down by the migration driver (`mig_finalize_source`) after the
        // final delta is exported — the disconnect-triggered release must
        // not free state that delta still has to read. If the migration
        // aborts instead, `readmit_token` performs the deferred release.
        let (tokens, mut sessions) = (self.tokens.lock(), self.sessions.lock());
        let evicted = |t| tokens.get(&t).is_some_and(|t| t.evicted);
        if let Some(r) = sessions.get_mut(&session) {
            r.conns = r.conns.saturating_sub(1);
            if r.conns > 0 || r.token.is_some_and(evicted) {
                r.deferred |= r.conns == 0;
                return SessionCleanup::default();
            }
        }
        drop((tokens, sessions));
        self.force_release(session)
    }

    /// [`Self::release_session`] without the mid-migration deferral.
    pub(crate) fn force_release(&self, session: SessionId) -> SessionCleanup {
        let record = self.sessions.lock().remove(&session);
        if let Some(token) = record.as_ref().and_then(|r| r.token) {
            self.with_token(token, |t| t.session.take_if(|s| *s == session));
        }
        // Drop the session's scheduler record (priority, served ledgers) or
        // session churn grows that table without bound.
        self.scheduler.forget(session);
        record.map_or_else(SessionCleanup::default, |r| self.reclaim(r))
    }

    /// Bytes of module image `session` retains (at most
    /// [`MAX_MODULE_BYTES`]; 0 once released).
    pub fn module_bytes(&self, session: SessionId) -> u64 {
        let (sessions, objects) = (self.sessions.lock(), self.objects.lock());
        sessions.get(&session).map_or(0, |r| images(r, &objects))
    }

    /// The one teardown walker: free, destroy, unload and drop everything
    /// `r` holds — a released session's, or an adoption's that will never
    /// be claimed. Individual errors are ignored; the counts are of what
    /// was actually still there.
    pub(crate) fn reclaim(&self, r: Session) -> SessionCleanup {
        let mut out = SessionCleanup::default();
        let on_device = |token: u64, f: fn(&mut Device, u64) -> VgpuResult<u64>| {
            (self.device_for(token)).is_ok_and(|d| f(&mut d.lock(), token).is_ok())
        };
        let freed = r.mem.into_keys().filter(|&p| on_device(p, Device::free));
        out.allocations = freed.count();
        let dropped = |h| self.objects.lock().remove(&h).is_some();
        for (h, kind) in r.handles {
            let (count, gone) = match kind {
                Kind::Stream => (&mut out.streams, on_device(h, Device::stream_destroy)),
                Kind::Event => (&mut out.events, on_device(h, Device::event_destroy)),
                Kind::Module => {
                    self.objects.lock().remove(&h);
                    (&mut out.modules, on_device(h, Device::module_unload))
                }
                Kind::Blas | Kind::Solver | Kind::Fft => (&mut out.lib_handles, dropped(h)),
            };
            *count += usize::from(gone);
        }
        out
    }

    /// `cudaDeviceReset` of device `idx` for `session`: reclaim what it
    /// holds there (memory, streams, events, modules and their images) and
    /// drop its default stream there, recreated on next use. Nobody else's
    /// state is touched; library handles live on no device.
    pub(crate) fn reset_share(&self, session: SessionId, idx: usize) {
        let on_device = |token, _| self.device_of_token(token) == Some(idx);
        let share = self.track(session, |r| {
            (r.streams.remove(&idx), r.split_off(on_device))
        });
        self.reclaim(share.1);
    }

    /// Export one leg of the migration stream for `token`'s session.
    ///
    /// `known` is the set of block bases previous legs already shipped
    /// (empty for the base snapshot); it is updated to what the
    /// destination holds after applying this blob. Every export closes
    /// the per-device dirty-tracking window (`mark_epoch`), so at most
    /// one migration may stream per device at a time. A
    /// [`MigKind::Final`] export additionally fences all streams (the
    /// snapshot barrier) and attaches the client's replay entries.
    pub fn mig_export(
        &self,
        token: u64,
        known: &mut BTreeSet<u64>,
        kind: MigKind,
    ) -> VgpuResult<Vec<u8>> {
        let session = self.session_of_token(token).ok_or_else(|| {
            VgpuError::InvalidValue(format!("no live session for client token {token:#x}"))
        })?;
        let mut blob = self.export_session(session, Some(known), kind);
        blob.meta.token = token;
        blob.meta.src_now_ns = self.clock.now_ns();
        if kind == MigKind::Final {
            let entries = self.replay.export_client(token).into_iter();
            let mut replay: Vec<_> = entries
                .map(|(xid, reply)| ReplayEntry { xid, reply })
                .collect();
            replay.sort_by_key(|e| e.xid);
            blob.replay = replay.into();
        }
        Ok(xdr::encode(&blob))
    }

    /// `CKPT_CAPTURE`: one [`MigKind::Base`] blob per session that owns
    /// anything, oldest session first. A checkpoint is a full sync point —
    /// every stream on every device is fenced and the clock waits for the
    /// drained completion frontier, which is also what the blobs are
    /// stamped with (not the clock: capture → restore → capture is a fixed
    /// point). The caller holds the issue turn, so no session can enqueue
    /// between the fence and the walk.
    pub(crate) fn checkpoint(&self) -> Vec<u8> {
        let fence = |d: &Mutex<Device>| d.lock().fence_all_streams();
        let frontier = self.devices.iter().map(fence).max().unwrap_or(0);
        self.clock.advance_to(frontier);
        let mut sessions: Vec<SessionId> = {
            let all = self.sessions.lock();
            let owning = all
                .iter()
                .filter(|(_, r)| !r.mem.is_empty() || !r.handles.is_empty());
            owning.map(|(&s, _)| s).collect()
        };
        sessions.sort_unstable();
        let blobs = sessions
            .into_iter()
            .map(|s| {
                let mut blob = self.export_session(s, None, MigKind::Base);
                blob.meta.src_now_ns = frontier;
                blob
            })
            .collect();
        migrate::encode_checkpoint(blobs)
    }

    /// The one export walker: `session`'s state as a blob of `kind`, with
    /// `token` and `src_now_ns` left for the caller to stamp.
    ///
    /// `known` is the delta stream this leg belongs to: memory is shipped
    /// relative to it, it is updated to what the consumer holds afterwards,
    /// and the per-device dirty window is closed (`mark_epoch`) under the
    /// same device lock the delta was read under. `None` is a snapshot at
    /// rest: everything travels whole and no window is touched, so a
    /// migration streaming from the same device loses nothing.
    pub(crate) fn export_session(
        &self,
        session: SessionId,
        known: Option<&mut BTreeSet<u64>>,
        kind: MigKind,
    ) -> MigBlob {
        let r = self.sessions.lock().get(&session).cloned();
        let r = r.unwrap_or_default();
        let mut meta = SessionMeta {
            current_device: r.device.unwrap_or(0) as u32,
            next_lib_handle: self.next_lib_handle.load(Ordering::SeqCst),
            blas: r.sorted(Kind::Blas).into(),
            solvers: r.sorted(Kind::Solver).into(),
            ..SessionMeta::default()
        };
        {
            let objects = self.objects.lock();
            for handle in r.sorted(Kind::Module) {
                if let Some(HostObject::Module(image)) = objects.get(&handle) {
                    let image = image.clone();
                    meta.modules.push(MigModule { handle, image });
                }
            }
            for handle in r.sorted(Kind::Fft) {
                if let Some(HostObject::Fft(p)) = objects.get(&handle) {
                    let (n, kind, batch) = (p.n as i32, p.kind, p.batch as i32);
                    meta.ffts.push(MigFft {
                        handle,
                        n,
                        kind,
                        batch,
                    });
                }
            }
        }
        let bind = |(&idx, &stream): (&usize, &u64)| MigDefaultStream {
            device: idx as u32,
            stream,
        };
        let mut bound: Vec<_> = r.streams.iter().map(bind).collect();
        bound.sort_unstable_by_key(|d| (d.device, d.stream));
        meta.default_streams = bound.into();

        let mut delta = MemDelta::default();
        for idx in 0..self.devices.len() {
            let known_here: BTreeSet<u64> = known
                .iter()
                .flat_map(|k| k.iter().copied())
                .filter(|&b| self.device_of_token(b) == Some(idx))
                .collect();
            let mut dev = self.devices[idx].lock();
            if kind == MigKind::Final {
                // The CRAC-style snapshot barrier: retire every pending
                // command so the final delta is taken with nothing in
                // flight. Execution is eager, so this changes bookkeeping,
                // never memory.
                dev.fence_all_streams();
            }
            // The device is shared: only this session's blocks ride along.
            let d = dev.mem.delta_since(&known_here, |b| r.mem.contains_key(&b));
            if known.is_some() {
                dev.mem.mark_epoch();
            }
            meta.next_handles.push(MigCursor {
                device: idx as u32,
                next: dev.next_handle_value(),
            });
            for (handle, frontier_ns) in dev.snapshot_stream_frontiers() {
                if r.holds(handle, Kind::Stream) {
                    meta.streams.push(MigStream {
                        handle,
                        frontier_ns,
                    });
                }
            }
            for (handle, recorded_ns) in dev.snapshot_event_states() {
                if r.holds(handle, Kind::Event) {
                    meta.events.push(MigEvent {
                        handle,
                        recorded_ns,
                    });
                }
            }
            for (handle, module, name) in dev.snapshot_functions() {
                if r.holds(module, Kind::Module) {
                    meta.functions.push(MigFunction {
                        handle,
                        module,
                        name,
                    });
                }
            }
            delta.freed.extend(d.freed);
            delta.new_blocks.extend(d.new_blocks);
            delta.dirty.extend(d.dirty);
        }
        // Handles are unique: ordering by handle is ordering by the whole.
        meta.functions.sort_unstable_by_key(|f| f.handle);

        if let Some(known) = known {
            for &b in &delta.freed {
                known.remove(&b);
            }
            for (b, _) in &delta.new_blocks {
                known.insert(*b);
            }
        }

        migrate::blob(kind, meta, delta)
    }

    /// Bytes a naive full-snapshot migration of `token`'s session would
    /// move right now: every owned block plus every module image. The
    /// streamed-migration bench compares its cumulative payload to this.
    pub fn session_footprint(&self, token: u64) -> u64 {
        let Some(session) = self.session_of_token(token) else {
            return 0;
        };
        let (sessions, objects) = (self.sessions.lock(), self.objects.lock());
        let held = |r| images(r, &objects) + r.mem.values().sum::<u64>();
        sessions.get(&session).map_or(0, held)
    }

    /// Tear down the source side after a completed cutover: drop the
    /// client's replay entries (they now live at the destination) and
    /// force-release its session. The eviction marker stays, so late
    /// retransmissions on a half-dead connection remain refused.
    pub fn mig_finalize_source(&self, token: u64) -> SessionCleanup {
        self.replay.forget_client(token);
        match self.session_of_token(token) {
            Some(session) => self.force_release(session),
            None => SessionCleanup::default(),
        }
    }

    /// Apply one migration blob pushed by a source server's driver; the
    /// blob kind must be in `allow` (wire procs pin the direction).
    /// Returns the count of applied epochs for this token's stream. No
    /// scheduler turn and no clock charge: the stream must not perturb
    /// the destination's virtual timeline — the only clock effect is the
    /// forward alignment to the source's `src_now_ns`.
    pub(crate) fn mig_apply(&self, bytes: &[u8], allow: &[MigKind]) -> VgpuResult<u32> {
        self.metrics.add(crate::stats::BYTES_IN, bytes.len() as u64);
        let blob = migrate::decode(bytes)?;
        let kind = blob.kind;
        if !allow.contains(&kind) {
            return Err(VgpuError::InvalidValue(format!(
                "blob kind {kind:?} not allowed by this procedure"
            )));
        }
        let token = blob.meta.token;
        let mut staged = match kind {
            MigKind::Base => {
                // A fresh base replaces any half-applied previous attempt
                // and re-legitimizes a token this server itself evicted in
                // an earlier outbound migration (moving back home).
                self.discard_adoption(token);
                self.with_token(token, |t| t.evicted = false);
                Adoption::default()
            }
            // Applied out of the table, but its emptied record (no epoch
            // applied) stays there: the token keeps its slot meanwhile, and
            // a second delta finds no staged base in it.
            MigKind::Delta | MigKind::Final => {
                let staged = self.with_token(token, |t| {
                    let base = t.adoption.as_mut().filter(|a| a.applied_epochs > 0);
                    base.map(std::mem::take)
                });
                let why = format!("delta for token {token:#x} without a staged base");
                staged.ok_or(VgpuError::InvalidValue(why))?
            }
        };
        let mem = migrate::mem_delta(blob.mem);
        if let Err(e) = self.apply_blob(&blob.meta, &mem, &mut staged.session) {
            // Half-applied state is unusable; free whatever was placed so
            // a retried migration can start from a clean base.
            self.reclaim(staged.session);
            self.discard_adoption(token);
            return Err(e);
        }
        staged.applied_epochs += 1;
        if kind == MigKind::Final {
            let entries = blob.replay.0.into_iter();
            let entries = entries.map(|e| (e.xid, e.reply)).collect();
            self.replay.import_client(token, entries);
            staged.ready = true;
        }
        // Align this shard's virtual clock with the source so post-cutover
        // timing (event elapsed, batch receipts) continues byte-identically
        // on an otherwise idle destination.
        self.clock.advance_to(blob.meta.src_now_ns);
        let epochs = staged.applied_epochs;
        // Counted and staged under one hold, so two bases cannot both pass.
        // A base supersedes whatever is staged; a delta stages only over
        // the emptied record its take left, not after an abort or a fresh
        // base took it meanwhile. What loses is reclaimed.
        let mut tokens = self.tokens.lock();
        let others = (tokens.iter()).filter(|&(&t, s)| t != token && s.adoption.is_some());
        let refused = if kind == MigKind::Base {
            (others.count() >= MAX_STAGED_MIGRATIONS).then_some("too many staged migrations")
        } else {
            let slot = tokens.get(&token).and_then(|t| t.adoption.as_ref());
            slot.is_none_or(|a| a.applied_epochs > 0)
                .then_some("superseded while applying")
        };
        let lost = match refused {
            None => tokens.entry(token).or_default().adoption.replace(staged),
            Some(_) => Some(staged),
        };
        drop(tokens);
        if let Some(a) = lost {
            self.reclaim(a.session);
        }
        refused.map_or(Ok(epochs), |why| Err(VgpuError::InvalidValue(why.into())))
    }

    /// `CKPT_RESTORE`: apply every blob of the checkpoint and hand the
    /// result to `session`. Each blob is staged into a record of its own
    /// (`apply_blob` diffs metadata against what is staged, so two
    /// sessions' blobs must not share one); nothing is handed over until
    /// all have applied and fit ([`Self::adopt`]), and on any failure
    /// everything this restore placed is reclaimed — state that was live
    /// before is never touched.
    pub(crate) fn restore(&self, session: SessionId, bytes: &[u8]) -> VgpuResult<()> {
        let blobs = migrate::decode_checkpoint(bytes)?;
        // Restored stream frontiers must lie in this node's past.
        let frontier = blobs.iter().map(|b| b.meta.src_now_ns).max().unwrap_or(0);
        let mut staged = Vec::with_capacity(blobs.len());
        let applied = blobs.into_iter().try_for_each(|blob| {
            staged.push(Session::default());
            let r = staged.last_mut().expect("just pushed");
            self.apply_blob(&blob.meta, &migrate::mem_delta(blob.mem), r)
        });
        if let Err(e) = applied.and_then(|()| self.adopt(session, &mut staged)) {
            for r in staged {
                self.reclaim(r);
            }
            return Err(e);
        }
        self.clock.advance_to(frontier);
        Ok(())
    }

    /// The token gate's claim of a staged migration for `session`: `false`
    /// while it is not ready, or while its modules do not fit beside the
    /// session's (it then stays staged for the client's next connection).
    pub(crate) fn claim(&self, session: SessionId, adoption: &mut Option<Adoption>) -> bool {
        let Some(a) = adoption.as_mut().filter(|a| a.ready) else {
            return adoption.is_none();
        };
        let mut staged = vec![std::mem::take(&mut a.session)];
        if self.adopt(session, &mut staged).is_ok() {
            *adoption = None;
            return true;
        }
        a.session = staged.pop().expect("handed back");
        false
    }

    /// Give `session` everything the `staged` records hold if their module
    /// images fit beside its own (DESIGN §16); else leave them staged.
    pub(crate) fn adopt(&self, session: SessionId, staged: &mut Vec<Session>) -> VgpuResult<()> {
        let (mut sessions, objects) = (self.sessions.lock(), self.objects.lock());
        let live = sessions.entry(session).or_default();
        let brought = staged.iter().map(|r| images(r, &objects)).sum();
        module_room(images(live, &objects), brought)?;
        staged.drain(..).for_each(|r| live.absorb(r));
        Ok(())
    }

    /// Reconcile one blob into the staged record `held`: memory delta first
    /// (each device replays its share), then the full metadata diffed
    /// against what previous blobs placed. `held` learns of a resource the
    /// moment it lands, so a failure midway leaves nothing behind that
    /// `reclaim` does not know of — and it never learns of one that was
    /// live here before: a block, handle or library handle somebody already
    /// holds is a typed error, not an alias.
    pub(crate) fn apply_blob(
        &self,
        meta: &SessionMeta,
        mem: &MemDelta,
        held: &mut Session,
    ) -> VgpuResult<()> {
        // The blob lists every module its record holds once it has applied
        // (what earlier blobs placed and it does not list is reclaimed).
        module_room(0, meta.modules.iter().map(|m| m.image.len() as u64).sum())?;
        let bases = (mem.freed.iter())
            .chain(mem.new_blocks.iter().map(|(b, _)| b))
            .chain(mem.dirty.iter().map(|(b, ..)| b));
        for &b in bases {
            self.device_for(b)?;
        }
        // A default-stream binding becomes the adopting session's stream 0:
        // it may name only a stream this very blob places, on the device
        // that stream lives on.
        for d in meta.default_streams.iter() {
            let (dev, h) = (d.device, d.stream);
            let placed = meta.streams.iter().any(|s| s.handle == h);
            if !placed || self.device_of_token(h) != Some(dev as usize) {
                return Err(VgpuError::InvalidValue(format!(
                    "default stream {h:#x} of device {dev} is not a stream of this blob there"
                )));
            }
        }
        // Cursors and the clock only ever move forward, so a blob must not
        // move them where nothing can follow: a device's cursor stays in
        // that device's handle window (a device this server lacks issues
        // nothing; its cursor is ignored), the library cursor in the
        // library range, and every timestamp short of the horizon.
        for c in meta.next_handles.iter() {
            let window = handle_base(c.device as usize)..handle_base(c.device as usize + 1);
            if (c.device as usize) < self.devices.len() && !window.contains(&c.next) {
                return Err(VgpuError::InvalidValue(format!(
                    "handle cursor {:#x} is outside device {}'s window",
                    c.next, c.device
                )));
            }
        }
        if !(LIB_HANDLE_BASE..LIB_HANDLE_END).contains(&meta.next_lib_handle) {
            return Err(VgpuError::InvalidValue(format!(
                "library handle cursor {:#x} is outside the library range",
                meta.next_lib_handle
            )));
        }
        // Every handle the blob places lies below the blob's own cursor for
        // its device (which ends inside that device's window, see above) or
        // for the library: the cursors are raised first, so nothing this
        // server issues later repeats one.
        let issued_on_device = |h: u64| {
            let window = |c: &MigCursor| handle_base(c.device as usize)..c.next;
            let mut cursors = meta.next_handles.iter();
            cursors.any(|c| (c.device as usize) < self.devices.len() && window(c).contains(&h))
        };
        let device_handles = (meta.modules.iter().map(|m| m.handle))
            .chain(meta.functions.iter().map(|f| f.handle))
            .chain(meta.streams.iter().map(|s| s.handle))
            .chain(meta.events.iter().map(|e| e.handle));
        let lib_handles = (meta.blas.iter().copied())
            .chain(meta.solvers.iter().copied())
            .chain(meta.ffts.iter().map(|f| f.handle));
        let issued_by_lib = |h: &u64| (LIB_HANDLE_BASE..meta.next_lib_handle).contains(h);
        let mut unissued = (device_handles.filter(|&h| !issued_on_device(h)))
            .chain(lib_handles.filter(|h| !issued_by_lib(h)));
        if let Some(h) = unissued.next() {
            return Err(VgpuError::InvalidValue(format!(
                "handle {h:#x} is not below the blob's cursor for it"
            )));
        }
        let frontiers = meta.streams.iter().map(|s| s.frontier_ns);
        let recorded = meta.events.iter().filter_map(|e| e.recorded_ns);
        let mut times = std::iter::once(meta.src_now_ns)
            .chain(frontiers)
            .chain(recorded);
        if let Some(t) = times.find(|&t| t > HORIZON_NS) {
            return Err(VgpuError::InvalidValue(format!(
                "timestamp {t} ns is past the virtual-time horizon"
            )));
        }
        for (idx, dev) in self.devices.iter().enumerate() {
            let here = |b| self.device_of_token(b) == Some(idx);
            (dev.lock().mem).apply_delta(mem, here, &mut held.mem)?;
        }

        // Handle counters first, and only ever raised: from here on nothing
        // this server issues can take a value the blob is about to place.
        for c in meta.next_handles.iter() {
            if let Some(d) = self.devices.get(c.device as usize) {
                d.lock().restore_next_handle(c.next);
            }
        }
        self.next_lib_handle
            .fetch_max(meta.next_lib_handle, Ordering::SeqCst);

        // What earlier blobs placed and the source has since destroyed goes
        // through the one reclaimer (memory travelled as `freed` above).
        let wanted: HashMap<u64, Kind> = (meta.modules.iter().map(|m| (m.handle, Kind::Module)))
            .chain(meta.streams.iter().map(|s| (s.handle, Kind::Stream)))
            .chain(meta.events.iter().map(|e| (e.handle, Kind::Event)))
            .chain(meta.blas.iter().map(|&h| (h, Kind::Blas)))
            .chain(meta.solvers.iter().map(|&h| (h, Kind::Solver)))
            .chain(meta.ffts.iter().map(|f| (f.handle, Kind::Fft)))
            .collect();
        self.reclaim(held.split_off(|h, k| k.is_some_and(|k| wanted.get(&h) != Some(&k))));

        for m in meta.modules.iter() {
            if !held.holds(m.handle, Kind::Module) {
                self.place_at(m.handle, false)?
                    .restore_module(m.handle, &m.image)?;
                let image = HostObject::Module(m.image.clone());
                self.objects.lock().insert(m.handle, image);
                held.handles.insert(m.handle, Kind::Module);
            }
        }
        for f in meta.functions.iter() {
            if !held.holds(f.module, Kind::Module) {
                return Err(VgpuError::InvalidHandle(f.module));
            }
            (self.device_for(f.handle)?.lock()).restore_function(f.handle, f.module, &f.name)?;
        }
        // Streams and events are placed anew by every blob, at their exact
        // completion frontier and record timestamp (idempotent).
        for s in meta.streams.iter() {
            let h = s.handle;
            (self.place_at(h, held.holds(h, Kind::Stream))?).restore_stream_at(h, s.frontier_ns);
            held.handles.insert(h, Kind::Stream);
        }
        for e in meta.events.iter() {
            let h = e.handle;
            (self.place_at(h, held.holds(h, Kind::Event))?).restore_event_at(h, e.recorded_ns);
            held.handles.insert(h, Kind::Event);
        }

        // Library handles. cuBLAS handles are pure capabilities; a
        // cuSolver context's factorization memo is a timing cache whose
        // hits replay the stored duration, so a fresh context is
        // trace-equivalent; FFT plans are pure values rebuilt through the
        // validating constructor.
        for &h in meta.blas.iter() {
            self.lib_place(held, h, HostObject::Blas)?;
        }
        for &h in meta.solvers.iter() {
            self.lib_place(held, h, HostObject::Solver(vgpu::solver::SolverDn::new()))?;
        }
        for f in meta.ffts.iter() {
            let plan = vgpu::fft::FftPlan::plan_1d(f.n, f.kind, f.batch)?;
            self.lib_place(held, f.handle, HostObject::Fft(plan))?;
        }

        held.device =
            Some((meta.current_device as usize).min(self.devices.len().saturating_sub(1)));
        held.streams.clear();
        for d in meta.default_streams.iter() {
            held.streams.entry(d.device as usize).or_insert(d.stream);
        }
        Ok(())
    }

    /// The device a pointer or handle of a blob routes to.
    pub(crate) fn device_for(&self, token: u64) -> VgpuResult<&Mutex<Device>> {
        let idx = self.device_of_token(token).ok_or_else(|| {
            VgpuError::InvalidValue(format!("token {token:#x} maps to no local device"))
        })?;
        Ok(&self.devices[idx])
    }

    /// Lock the device `handle` routes to, to place it there: unless it is
    /// `ours` (this stream staged it earlier), the handle must be vacant.
    pub(crate) fn place_at(&self, handle: u64, ours: bool) -> VgpuResult<MutexGuard<'_, Device>> {
        let dev = self.device_for(handle)?.lock();
        if !ours && dev.holds(handle) {
            return Err(live_here(handle));
        }
        Ok(dev)
    }

    /// Place library context `obj` at `h` for `held`, unless `held` has it
    /// there already. One counter issues cuBLAS, cuSolver and cuFFT handles
    /// alike, so any live host object at `h` is refused.
    pub(crate) fn lib_place(&self, held: &mut Session, h: u64, obj: HostObject) -> VgpuResult<()> {
        let kind = obj.kind();
        if held.holds(h, kind) {
            return Ok(());
        }
        let mut objects = self.objects.lock();
        if objects.contains_key(&h) {
            return Err(live_here(h));
        }
        objects.insert(h, obj);
        held.handles.insert(h, kind);
        Ok(())
    }

    /// Drop a staged inbound migration and free everything it placed on
    /// this server (`MIG_ABORT`, or a fresh base superseding it).
    pub(crate) fn discard_adoption(&self, token: u64) {
        if let Some(a) = self.with_token(token, |t| t.adoption.take()) {
            self.reclaim(a.session);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::SimTransport;
    use crate::{make_rpc_server, ServerConfig};
    use cricket_proto::{CricketV1Client, CudaError, MemBlock, MigBlob, MigMem};
    use simnet::SimClock;
    use unikernel::{Guest, GuestKind};

    /// Staged inbound migrations are bounded over the wire: the base past
    /// `MAX_STAGED_MIGRATIONS` is refused with the base's error and leaves
    /// no device memory behind, a base replacing its own token's attempt
    /// takes no second slot, and aborting one staged token frees a slot.
    #[test]
    fn staged_migrations_are_bounded_and_an_abort_frees_a_slot() {
        let clock = SimClock::new();
        let server = make_rpc_server(CricketServer::new(ServerConfig::default(), clock.clone()));
        let guest = Guest::new(GuestKind::RustyHermit);
        let mut c = CricketV1Client::new(Box::new(SimTransport::new(server, guest, clock)));
        let at = c.cuda_malloc(&(1 << 20)).unwrap().into_result().unwrap();
        assert_eq!(c.cuda_free(&at).unwrap(), 0);
        let free = |c: &mut CricketV1Client| {
            let info = c.cuda_mem_get_info().unwrap().into_result();
            info.unwrap().free
        };
        let before = free(&mut c);
        // A base for `token`, placing `bytes` of device memory at `at`.
        let base = |token: u64, bytes: usize| {
            let meta = SessionMeta {
                token,
                next_lib_handle: LIB_HANDLE_BASE,
                ..Default::default()
            };
            let mut mem = MigMem::default();
            if bytes > 0 {
                let bytes = vec![7; bytes];
                mem.new_blocks = vec![MemBlock { base: at, bytes }].into();
            }
            let replay = Default::default();
            let kind = MigKind::Base;
            xdr::encode(&MigBlob {
                kind,
                meta,
                mem,
                replay,
            })
        };
        let tokens = 1000..1000 + MAX_STAGED_MIGRATIONS as u64;
        for token in tokens.clone() {
            assert_eq!(c.mig_apply_base(&base(token, 0)).unwrap(), 0, "{token}");
        }
        assert_eq!(c.mig_apply_base(&base(tokens.start, 0)).unwrap(), 0);
        let refused = c.mig_apply_base(&base(tokens.end, 64 << 10)).unwrap();
        assert_eq!(refused, CudaError::CudaErrorInvalidValue as i32);
        assert_eq!(
            free(&mut c),
            before,
            "the refused blob's memory is reclaimed"
        );
        assert_eq!(c.mig_abort(&tokens.start).unwrap(), 0);
        assert_eq!(c.mig_apply_base(&base(tokens.end, 64 << 10)).unwrap(), 0);
        assert_eq!(
            free(&mut c),
            before - (64 << 10),
            "an accepted one holds it"
        );
        assert_eq!(c.mig_abort(&tokens.end).unwrap(), 0);
        assert_eq!(free(&mut c), before);
    }

    /// A base or an abort that lands while a delta of the same token is
    /// applying supersedes the delta, whichever of the two stages first:
    /// the staging that loses is reclaimed, and an aborted token stays
    /// aborted. A blob stalls mid-apply on a lock the test holds: every
    /// blob on device 0's, one placing a cuBLAS handle also on the
    /// host-object table's.
    #[test]
    fn a_base_or_abort_during_a_delta_supersedes_it_and_leaks_nothing() {
        const T: u64 = 77;
        let all = [MigKind::Base, MigKind::Delta, MigKind::Final];
        // A blob for T placing 64 KiB at `at` (nothing at 0) and, if
        // `blas`, a cuBLAS handle.
        let blob = |kind: MigKind, at: u64, blas: bool| {
            let meta = SessionMeta {
                token: T,
                next_lib_handle: LIB_HANDLE_BASE + 1,
                blas: Vec::from_iter(blas.then_some(LIB_HANDLE_BASE)).into(),
                ..Default::default()
            };
            let mut mem = MigMem::default();
            if at != 0 {
                let bytes = vec![7; 64 << 10];
                mem.new_blocks = vec![MemBlock { base: at, bytes }].into();
            }
            let replay = Default::default();
            xdr::encode(&MigBlob {
                kind,
                meta,
                mem,
                replay,
            })
        };
        // The applied epochs of T's staged adoption, if it has one.
        let staged = |srv: &CricketServer| {
            let tokens = srv.tokens.lock();
            tokens
                .get(&T)
                .and_then(|t| t.adoption.as_ref().map(|a| a.applied_epochs))
        };
        let until = |srv: &CricketServer, want| {
            while staged(srv) != want {
                std::thread::yield_now();
            }
        };
        // 0: the base stages while the delta waits on the objects; 1: the
        // delta stages while the base waits on them; 2: an abort lands
        // while the delta waits on them.
        for case in 0..3 {
            let srv = CricketServer::new(ServerConfig::default(), SimClock::new());
            let free = || srv.load_report().free_mem;
            let (a, b) = {
                let mut dev = srv.devices[0].lock();
                let (a, b) = (
                    dev.malloc(64 << 10).unwrap().0,
                    dev.malloc(64 << 10).unwrap().0,
                );
                dev.free(a).unwrap();
                dev.free(b).unwrap();
                (a, b)
            };
            let before = free();
            let apply = |kind, at, blas| srv.mig_apply(&blob(kind, at, blas), &all);
            assert_eq!(apply(MigKind::Base, a, false).unwrap(), 1);
            std::thread::scope(|s| {
                let device = srv.devices[0].lock();
                let objects = srv.objects.lock();
                let delta = s.spawn(|| apply(MigKind::Delta, 0, case != 1));
                until(&srv, Some(0)); // taken: its emptied record is left
                match case {
                    0 => {
                        drop(device);
                        assert_eq!(apply(MigKind::Base, b, false).unwrap(), 1);
                        drop(objects);
                        assert!(delta.join().unwrap().is_err(), "the delta stages second");
                    }
                    1 => {
                        let base = s.spawn(|| apply(MigKind::Base, b, true));
                        until(&srv, None); // the base discarded the record
                        drop(device);
                        assert!(delta.join().unwrap().is_err(), "the delta stages first");
                        drop(objects);
                        assert_eq!(base.join().unwrap().unwrap(), 1);
                    }
                    _ => {
                        srv.discard_adoption(T);
                        drop((device, objects));
                        assert!(
                            delta.join().unwrap().is_err(),
                            "an aborted token stays aborted"
                        );
                        assert_eq!(staged(&srv), None);
                    }
                }
            });
            let held = if case == 2 { 0 } else { 64 << 10 };
            assert_eq!(
                free(),
                before - held,
                "case {case}: only the base holds memory"
            );
            srv.discard_adoption(T);
            assert_eq!(free(), before, "case {case}: nothing leaks");
        }
    }

    /// A token whose delta is applying keeps its slot. Token 1's delta
    /// waits on the host-object table (held here) to place its cuBLAS
    /// handle, past the point where it raised the library cursor; while it
    /// waits, 64 bases of other tokens arrive, and the last is refused.
    #[test]
    fn a_token_with_a_delta_in_flight_keeps_its_slot() {
        let server = CricketServer::new(ServerConfig::default(), SimClock::new());
        let blob = |token: u64, kind: MigKind, blas: Vec<u64>| {
            let meta = SessionMeta {
                token,
                next_lib_handle: LIB_HANDLE_BASE + blas.len() as u64,
                blas: blas.into(),
                ..Default::default()
            };
            let (mem, replay) = Default::default();
            xdr::encode(&MigBlob {
                kind,
                meta,
                mem,
                replay,
            })
        };
        let all = [MigKind::Base, MigKind::Delta, MigKind::Final];
        server
            .mig_apply(&blob(1, MigKind::Base, vec![]), &all)
            .unwrap();
        let delta = blob(1, MigKind::Delta, vec![LIB_HANDLE_BASE]);
        let objects = server.objects.lock();
        std::thread::scope(|s| {
            let delta = s.spawn(|| server.mig_apply(&delta, &all));
            while server.next_lib_handle.load(Ordering::SeqCst) == LIB_HANDLE_BASE {
                std::thread::yield_now();
            }
            let others = 2..2 + MAX_STAGED_MIGRATIONS as u64 - 1;
            for token in others.clone() {
                let staged = server.mig_apply(&blob(token, MigKind::Base, vec![]), &all);
                assert!(staged.is_ok(), "{token}: {staged:?}");
            }
            let refused = server.mig_apply(&blob(others.end, MigKind::Base, vec![]), &all);
            assert!(
                refused.is_err(),
                "the 64th other base is staged beside the delta"
            );
            drop(objects);
            assert_eq!(delta.join().unwrap().unwrap(), 2);
        });
    }
}
