//! GPU-sharing scheduler: an arbiter of device *time*, not a device lock.
//!
//! "Our approach allows the flexibility of sharing GPU devices across many
//! unikernels, managing the shared access through configurable schedulers"
//! (paper §5). Under the asynchronous execution engine, API calls no longer
//! hold the device for their full simulated duration — async work enqueues
//! onto per-stream command queues and runs on virtual timelines. What the
//! scheduler arbitrates is the *issue slot*: when several sessions contend,
//! the policy decides whose command is appended to the device next, and the
//! per-session ledger charges each session for the device time its commands
//! occupy. The critical section is the enqueue itself (microseconds of host
//! time), never the device time.
//!
//! # Weighted fair queuing
//!
//! The `Wfq` policy implements start-time fair queuing over the existing
//! `served_ns` ledger. Each session carries a virtual finish time (`vft`):
//! charging `ns` of device time advances it by `ns * WEIGHT_SCALE / weight`,
//! so a weight-4 session's clock runs four times slower and it wins the
//! issue slot four times as often under backlog. A global virtual clock
//! (`vclock`) tracks the start tag of the work in service; sessions joining
//! (or returning from idle) are floored at `vclock`, so idling never banks
//! credit and a newcomer cannot starve incumbents. `Fifo`, `RoundRobin`,
//! and `Priority` are the same queue under other ranking keys: one key per
//! policy both picks the next waiter and decides whether a batch slice
//! yields.

use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Identifies one client session (one unikernel instance).
pub(crate) type SessionId = u32;

/// Fixed-point scale for the virtual-finish-time ledger: charging `ns` at
/// weight `w` advances the session's clock by `ns * WEIGHT_SCALE / w`.
pub(crate) const WEIGHT_SCALE: u64 = 1 << 10;

/// Real-time bound on the anticipation window: how long the pick winner
/// holds its claim open for the just-served session's next request. Long
/// enough for a closed-loop client to unwind one call and issue the next
/// even when the OS delays its thread a few scheduling periods; short
/// enough that a departed session costs one scheduling hiccup, not a
/// stall. The window only ever opens for a session holding banked WFQ
/// credit (see `IssueTurn::drop`), so this bound is off every hot path.
const ANTICIPATION_WINDOW: std::time::Duration = std::time::Duration::from_millis(1);

/// Arbitration policies.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerPolicy {
    /// First come, first served (arrival order).
    #[default]
    Fifo,
    /// Rotate between sessions: after serving session S, waiters from
    /// sessions other than S are preferred.
    RoundRobin,
    /// Lowest priority value first (per-session priorities; default 100).
    Priority,
    /// Weighted fair queuing: smallest virtual finish time first, weighted
    /// by per-session weights (default 1).
    Wfq,
}

impl SchedulerPolicy {
    /// Wire encoding used by `SRV_SET_SCHEDULER`.
    pub(crate) fn from_i32(v: i32) -> Option<Self> {
        match v {
            0 => Some(SchedulerPolicy::Fifo),
            1 => Some(SchedulerPolicy::RoundRobin),
            2 => Some(SchedulerPolicy::Priority),
            3 => Some(SchedulerPolicy::Wfq),
            _ => None,
        }
    }
}

/// Per-session QoS configuration (`CRICKET_QOS_SET` payload). Zero means
/// "unlimited" for the quota fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QosSpec {
    /// WFQ weight (>=1; clamped). A weight-4 session receives 4x the device
    /// share of a weight-1 session under backlog.
    pub weight: u32,
    /// Priority value for the `Priority` policy (lower = sooner).
    pub priority: u32,
    /// Device-ns of work permitted per second of (virtual) clock time;
    /// 0 = unlimited.
    pub rate_ns_per_s: u64,
    /// Token-bucket burst capacity in device-ns; 0 = one second's worth of
    /// `rate_ns_per_s`.
    pub burst_ns: u64,
    /// Resident device-memory ceiling in bytes; 0 = unlimited.
    pub max_resident_bytes: u64,
}

impl Default for QosSpec {
    fn default() -> Self {
        Self {
            weight: 1,
            priority: 100,
            rate_ns_per_s: 0,
            burst_ns: 0,
            max_resident_bytes: 0,
        }
    }
}

/// QoS config plus token-bucket state for one session.
#[derive(Debug, Default, Clone, Copy)]
struct SessionQos {
    spec: QosSpec,
    /// Device-ns currently in the bucket.
    bucket_ns: u64,
    /// Clock timestamp of the last refill.
    bucket_at_ns: u64,
    /// The bucket starts full on first use, not at configuration time —
    /// priming lazily keeps `set_qos` clock-free.
    bucket_primed: bool,
}

#[derive(Debug, Clone, Copy)]
struct Waiter {
    session: SessionId,
    ticket: u64,
    priority: u32,
}

/// Everything the scheduler keeps about one session. The record lives from
/// the session's first configuration, grant or charge until
/// [`Scheduler::forget`]; each ledger stays empty until it first moves, so a
/// session that was only configured shows in none of them.
#[derive(Debug, Default, Clone, Copy)]
struct Tenant {
    /// QoS config and token bucket; `None` runs on [`QosSpec::default`].
    qos: Option<SessionQos>,
    /// Issue slots granted (telemetry / fairness tests).
    served_ops: u64,
    /// Device-time nanoseconds charged.
    served_ns: Option<u64>,
    /// Virtual finish time (WFQ ledger).
    vft: Option<u64>,
}

#[derive(Debug, Default)]
struct State {
    policy: SchedulerPolicy,
    busy: bool,
    queue: Vec<Waiter>,
    next_ticket: u64,
    last_served: Option<SessionId>,
    tenants: HashMap<SessionId, Tenant>,
    /// Global virtual clock: start tag of the work in service. Floors the
    /// vft of sessions arriving from idle.
    vclock: u64,
    /// Anticipation (classic anticipatory-scheduling): the session whose
    /// turn just ended and whose next request has not yet re-queued. The
    /// pick winner waits (bounded) for this session to return before
    /// claiming, so a closed-loop client racing its own wake-up latency
    /// still contends at every pick and the issue order stays the
    /// policy's — without it, WFQ can never hand a high-weight session its
    /// back-to-back turns, because the woken waiter always beats the
    /// served session's next call to the queue.
    drop_pending: Option<SessionId>,
    /// When armed, every grant appends the served session id — a debugging
    /// and test hook for asserting on the exact issue order.
    trace: Option<Vec<SessionId>>,
}

impl State {
    /// The session's QoS spec (defaults if never configured).
    fn spec(&self, session: SessionId) -> QosSpec {
        let qos = self.tenants.get(&session).and_then(|t| t.qos);
        qos.map(|q| q.spec).unwrap_or_default()
    }

    /// The policy's ranking key for a request of `session` at `priority`.
    /// The queued waiter with the smallest `(key, ticket)` is served next:
    ///
    /// | policy | key |
    /// |---|---|
    /// | `Fifo` | 0: arrival order alone |
    /// | `RoundRobin` | 1 for the session served last, 0 for any other |
    /// | `Priority` | the request's priority |
    /// | `Wfq` | the session's vft, floored at `vclock` (idle banks no credit) |
    fn key(&self, session: SessionId, priority: u32) -> u64 {
        match self.policy {
            SchedulerPolicy::Fifo => 0,
            SchedulerPolicy::RoundRobin => u64::from(self.last_served == Some(session)),
            SchedulerPolicy::Priority => u64::from(priority),
            SchedulerPolicy::Wfq => {
                let vft = self.tenants.get(&session).and_then(|t| t.vft);
                vft.unwrap_or(0).max(self.vclock)
            }
        }
    }

    /// Index into the queue of the waiter the policy selects next.
    fn pick(&self) -> Option<usize> {
        let rank = |(_, w): &(usize, &Waiter)| (self.key(w.session, w.priority), w.ticket);
        self.queue
            .iter()
            .enumerate()
            .min_by_key(rank)
            .map(|(i, _)| i)
    }
}

/// The scheduler: orders issue slots by policy and keeps the per-session
/// device-time ledger. The policy, the queue and every session's record
/// sit under the one `state` lock.
pub struct Scheduler {
    state: Mutex<State>,
    cond: Condvar,
    /// Calls shed with `CRICKET_BUSY` since the last `take_recent_sheds`.
    sheds: AtomicU64,
}

/// RAII guard for one issue slot; releasing wakes the next waiter. Hold it
/// only for the enqueue/wait bookkeeping, never for simulated device time.
pub(crate) struct IssueTurn<'a> {
    sched: &'a Scheduler,
    session: SessionId,
}

impl IssueTurn<'_> {
    /// Charge `ns` of device time to this turn's session.
    pub(crate) fn charge(&self, ns: u64) {
        self.sched.charge(self.session, ns);
    }

    /// Should the holder release the slot and requeue? True when a waiter
    /// the current policy would serve first is queued (preemption point
    /// between batch sub-op slices).
    pub(crate) fn should_yield(&self) -> bool {
        self.sched.should_yield(self.session)
    }
}

impl Drop for IssueTurn<'_> {
    fn drop(&mut self) {
        let mut st = self.sched.state.lock();
        st.busy = false;
        // Anticipate this session's next request — but only under WFQ,
        // where banked credit can make the returning session the rightful
        // next pick. Under FIFO/round-robin/priority the returning session
        // can never beat an already-queued waiter (it re-arrives with a
        // fresh ticket), so holding the slot would be a pure real-time
        // stall — fatal for open servers, where the next request is a
        // network round trip away. Skip it too when a request of this
        // session is already queued (a second connection, or a batch slice
        // that re-queued before yielding).
        let requeued = st.queue.iter().any(|w| w.session == self.session);
        st.drop_pending = (st.policy == SchedulerPolicy::Wfq && !requeued).then_some(self.session);
        drop(st);
        self.sched.cond.notify_all();
    }
}

impl Scheduler {
    /// Create with a policy.
    pub fn new(policy: SchedulerPolicy) -> Self {
        Self {
            state: Mutex::new(State {
                policy,
                ..State::default()
            }),
            cond: Condvar::new(),
            sheds: AtomicU64::new(0),
        }
    }

    /// Change the policy at runtime (`SRV_SET_SCHEDULER`).
    pub fn set_policy(&self, policy: SchedulerPolicy) {
        self.state.lock().policy = policy;
        self.cond.notify_all();
    }

    /// Edit a session's QoS spec, starting from the defaults. Config only:
    /// never recreates ledger state for a forgotten session.
    fn configure(&self, session: SessionId, edit: impl FnOnce(&mut QosSpec)) {
        let mut st = self.state.lock();
        let qos = &mut st.tenants.entry(session).or_default().qos;
        edit(&mut qos.get_or_insert_with(SessionQos::default).spec);
    }

    /// Set a session's priority (lower = sooner; default 100).
    pub fn set_priority(&self, session: SessionId, priority: u32) {
        self.configure(session, |spec| spec.priority = priority);
    }

    /// Set a session's WFQ weight (>=1; default 1).
    pub fn set_weight(&self, session: SessionId, weight: u32) {
        self.configure(session, |spec| spec.weight = weight.max(1));
    }

    /// Install a full QoS spec (`CRICKET_QOS_SET`), resetting the token
    /// bucket so a rate change takes effect immediately.
    pub fn set_qos(&self, session: SessionId, mut spec: QosSpec) {
        spec.weight = spec.weight.max(1);
        let qos = SessionQos {
            spec,
            ..SessionQos::default()
        };
        self.state.lock().tenants.entry(session).or_default().qos = Some(qos);
    }

    /// The session's QoS spec (defaults if never configured).
    pub(crate) fn qos_of(&self, session: SessionId) -> QosSpec {
        self.state.lock().spec(session)
    }

    /// Issue slots granted per session so far.
    pub fn served_ops(&self) -> HashMap<SessionId, u64> {
        let st = self.state.lock();
        let granted = st.tenants.iter().filter(|(_, t)| t.served_ops > 0);
        granted.map(|(&s, t)| (s, t.served_ops)).collect()
    }

    /// Device-time nanoseconds charged per session so far.
    pub fn served_ns(&self) -> HashMap<SessionId, u64> {
        let st = self.state.lock();
        let charged = st.tenants.iter().map(|(&s, t)| Some((s, t.served_ns?)));
        charged.flatten().collect()
    }

    /// Charge `ns` of device time to `session`'s ledger and advance its
    /// virtual finish time by `ns * WEIGHT_SCALE / weight`.
    pub(crate) fn charge(&self, session: SessionId, ns: u64) {
        let mut st = self.state.lock();
        let floor = st.vclock;
        let weight = u64::from(st.spec(session).weight.max(1));
        let t = st.tenants.entry(session).or_default();
        *t.served_ns.get_or_insert(0) += ns;
        t.vft = Some(t.vft.unwrap_or(floor).max(floor) + ns * WEIGHT_SCALE / weight);
    }

    /// Check `session`'s device-time token bucket for `want_ns` of work at
    /// clock time `now_ns`. `Ok` deducts the tokens; `Err(retry_after_ns)`
    /// is the time until the bucket holds enough.
    pub(crate) fn rate_check(
        &self,
        session: SessionId,
        now_ns: u64,
        want_ns: u64,
    ) -> Result<(), u64> {
        let mut st = self.state.lock();
        let Some(q) = st.tenants.get_mut(&session).and_then(|t| t.qos.as_mut()) else {
            return Ok(());
        };
        let rate = q.spec.rate_ns_per_s;
        if rate == 0 {
            return Ok(());
        }
        let burst = if q.spec.burst_ns > 0 {
            q.spec.burst_ns
        } else {
            rate
        };
        if !q.bucket_primed {
            q.bucket_primed = true;
            q.bucket_ns = burst;
            q.bucket_at_ns = now_ns;
        }
        let elapsed = now_ns.saturating_sub(q.bucket_at_ns);
        let refill = (elapsed as u128 * rate as u128 / 1_000_000_000) as u64;
        q.bucket_ns = q.bucket_ns.saturating_add(refill).min(burst);
        q.bucket_at_ns = now_ns;
        if q.bucket_ns >= want_ns {
            q.bucket_ns -= want_ns;
            Ok(())
        } else {
            let deficit = (want_ns - q.bucket_ns) as u128;
            let retry = (deficit * 1_000_000_000 / rate as u128) as u64;
            Err(retry.max(1))
        }
    }

    /// Arm or disarm grant tracing. While armed, every grant appends the
    /// session id to an in-memory log drained by [`Self::take_trace`].
    pub fn set_trace(&self, on: bool) {
        let mut st = self.state.lock();
        st.trace = if on { Some(Vec::new()) } else { None };
    }

    /// Drain the grant trace recorded since [`Self::set_trace`].
    pub fn take_trace(&self) -> Vec<SessionId> {
        let mut st = self.state.lock();
        st.trace.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Record one call shed with `CRICKET_BUSY` (overload telemetry).
    pub(crate) fn note_shed(&self) {
        self.sheds.fetch_add(1, Ordering::Relaxed);
    }

    /// Sheds since the last call (drained by `load_report`).
    pub(crate) fn take_recent_sheds(&self) -> u64 {
        self.sheds.swap(0, Ordering::Relaxed)
    }

    /// Drop a released session's record (QoS config, ledgers). Without
    /// this, session churn grows the table without bound.
    pub(crate) fn forget(&self, session: SessionId) {
        let mut st = self.state.lock();
        st.tenants.remove(&session);
        if st.last_served == Some(session) {
            st.last_served = None;
        }
        // A forgotten session's next request is never coming: close any
        // anticipation window held open for it.
        if st.drop_pending == Some(session) {
            st.drop_pending = None;
            self.cond.notify_all();
        }
    }

    /// Whether the scheduler still holds a record for `session`
    /// (regression hook for `forget`).
    pub fn knows(&self, session: SessionId) -> bool {
        self.state.lock().tenants.contains_key(&session)
    }

    /// Block until it is `session`'s turn to issue; returns a guard holding
    /// the issue slot.
    pub(crate) fn begin(&self, session: SessionId) -> IssueTurn<'_> {
        let mut st = self.state.lock();
        let priority = st.spec(session).priority;
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.queue.push(Waiter {
            session,
            ticket,
            priority,
        });
        // This arrival is the request the anticipation window (if any) was
        // holding the slot open for: close it and wake the waiters so the
        // pick is retaken with this session contending.
        if st.drop_pending == Some(session) {
            st.drop_pending = None;
            self.cond.notify_all();
        }
        loop {
            if !st.busy {
                if let Some(idx) = st.pick() {
                    if st.queue[idx].ticket == ticket {
                        // Anticipation: the slot was just dropped by a
                        // session whose next request is still in flight.
                        // Hold the claim briefly so that request can
                        // contend. This matters even when the returning
                        // session cannot win the next pick: under the
                        // virtual-clock floor a closed-loop session that
                        // loses its re-queue race forfeits that grant
                        // *permanently* (idle banks no credit), so without
                        // the hold 50-session weight shares drift by
                        // whichever threads the OS happened to delay. On
                        // timeout (session gone, or its thread stalled)
                        // the window closes and the pick stands.
                        if let Some(p) = st.drop_pending {
                            if p != session && !st.queue.iter().any(|w| w.session == p) {
                                let timed_out =
                                    self.cond.wait_for(&mut st, ANTICIPATION_WINDOW).timed_out();
                                if timed_out {
                                    st.drop_pending = None;
                                }
                                continue;
                            }
                        }
                        st.drop_pending = None;
                        st.queue.swap_remove(idx);
                        st.busy = true;
                        st.last_served = Some(session);
                        if let Some(t) = st.trace.as_mut() {
                            t.push(session);
                        }
                        // Catch the session's virtual clock up to the global
                        // one (idle banks no credit) and advance the global
                        // clock to this work's start tag.
                        let floor = st.vclock;
                        let t = st.tenants.entry(session).or_default();
                        t.served_ops += 1;
                        let start_tag = t.vft.unwrap_or(floor).max(floor);
                        t.vft = Some(start_tag);
                        st.vclock = start_tag;
                        return IssueTurn {
                            sched: self,
                            session,
                        };
                    }
                }
            }
            self.cond.wait(&mut st);
        }
    }

    /// Would the policy rather serve a queued waiter than continue
    /// `session`? Consulted at batch-slice preemption points. The holder
    /// is ranked by the same key the waiters are picked by, except
    /// that under `Fifo` and `RoundRobin` it ranks last: a slice boundary
    /// is a fair handoff point whenever another session waits.
    pub(crate) fn should_yield(&self, session: SessionId) -> bool {
        let st = self.state.lock();
        let holder = match st.policy {
            SchedulerPolicy::Fifo | SchedulerPolicy::RoundRobin => u64::MAX,
            SchedulerPolicy::Priority | SchedulerPolicy::Wfq => {
                st.key(session, st.spec(session).priority)
            }
        };
        let outranks = |w: &Waiter| w.session != session && st.key(w.session, w.priority) < holder;
        st.queue.iter().any(outranks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    impl Scheduler {
        /// Current policy.
        pub(crate) fn policy(&self) -> SchedulerPolicy {
            self.state.lock().policy
        }
    }

    impl Scheduler {
        /// The session's virtual finish time, if it has one (regression
        /// hook: `forget` must drop it, and config setters must not
        /// recreate it).
        fn wfq_vft(&self, session: SessionId) -> Option<u64> {
            self.state.lock().tenants.get(&session).and_then(|t| t.vft)
        }
    }

    #[test]
    fn fifo_serves_in_arrival_order() {
        let s = Scheduler::new(SchedulerPolicy::Fifo);
        {
            let _turn = s.begin(1);
        }
        {
            let _turn = s.begin(2);
        }
        let served = s.served_ops();
        assert_eq!(served[&1], 1);
        assert_eq!(served[&2], 1);
    }

    #[test]
    fn guard_releases_on_drop() {
        let s = Arc::new(Scheduler::new(SchedulerPolicy::Fifo));
        let turn = s.begin(1);
        let s2 = Arc::clone(&s);
        let waiter = std::thread::spawn(move || {
            let _turn = s2.begin(2);
        });
        // Give the waiter time to queue, then release.
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(turn);
        waiter.join().unwrap();
        assert_eq!(s.served_ops()[&2], 1);
    }

    #[test]
    fn priority_prefers_lower_value() {
        let s = Arc::new(Scheduler::new(SchedulerPolicy::Priority));
        s.set_priority(1, 200);
        s.set_priority(2, 1);
        let gate = s.begin(0); // hold the issue slot while waiters queue
        let mut handles = Vec::new();
        let order = Arc::new(Mutex::new(Vec::new()));
        for sess in [1u32, 2] {
            let s2 = Arc::clone(&s);
            let order2 = Arc::clone(&order);
            handles.push(std::thread::spawn(move || {
                let _t = s2.begin(sess);
                order2.lock().push(sess);
            }));
            // Ensure deterministic queueing order (1 queues first).
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        drop(gate);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*order.lock(), vec![2, 1], "high-priority session 2 first");
    }

    #[test]
    fn round_robin_alternates_sessions() {
        let s = Arc::new(Scheduler::new(SchedulerPolicy::RoundRobin));
        let gate = s.begin(7); // last_served = 7
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        // Queue: 7 again (ticket 1), then 8 (ticket 2). RR should pick 8
        // first because 7 was just served.
        for sess in [7u32, 8] {
            let s2 = Arc::clone(&s);
            let order2 = Arc::clone(&order);
            handles.push(std::thread::spawn(move || {
                let _t = s2.begin(sess);
                std::thread::sleep(std::time::Duration::from_millis(5));
                order2.lock().push(sess);
            }));
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        drop(gate);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*order.lock(), vec![8, 7]);
    }

    #[test]
    fn policy_change_at_runtime() {
        let s = Scheduler::new(SchedulerPolicy::Fifo);
        assert_eq!(s.policy(), SchedulerPolicy::Fifo);
        s.set_policy(SchedulerPolicy::Priority);
        assert_eq!(s.policy(), SchedulerPolicy::Priority);
        assert_eq!(
            SchedulerPolicy::from_i32(1),
            Some(SchedulerPolicy::RoundRobin)
        );
        assert_eq!(SchedulerPolicy::from_i32(3), Some(SchedulerPolicy::Wfq));
        assert_eq!(SchedulerPolicy::from_i32(9), None);
    }

    #[test]
    fn heavy_contention_is_safe_and_counts_all_ops() {
        let s = Arc::new(Scheduler::new(SchedulerPolicy::RoundRobin));
        let mut handles = Vec::new();
        for sess in 0..4u32 {
            let s2 = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    let _t = s2.begin(sess);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let served = s.served_ops();
        assert_eq!(served.values().sum::<u64>(), 200);
        assert!(served.values().all(|&v| v == 50));
    }

    #[test]
    fn charge_accumulates_device_time_per_session() {
        let s = Scheduler::new(SchedulerPolicy::Fifo);
        {
            let t = s.begin(1);
            t.charge(10_000);
        }
        {
            let t = s.begin(1);
            t.charge(2_500);
        }
        s.charge(2, 7); // direct charge, outside a turn
        let ns = s.served_ns();
        assert_eq!(ns[&1], 12_500);
        assert_eq!(ns[&2], 7);
    }

    #[test]
    fn forget_drops_all_per_session_state() {
        let s = Scheduler::new(SchedulerPolicy::Priority);
        s.set_priority(9, 3);
        {
            let t = s.begin(9);
            t.charge(1_000);
        }
        assert!(s.knows(9));
        s.forget(9);
        assert!(!s.knows(9));
        assert!(!s.served_ops().contains_key(&9));
        assert!(!s.served_ns().contains_key(&9));
        assert!(s.wfq_vft(9).is_none());
        // Forgetting an unknown session is a no-op.
        s.forget(12345);
    }

    #[test]
    fn config_setters_never_resurrect_forgotten_ledgers() {
        let s = Scheduler::new(SchedulerPolicy::Wfq);
        s.set_weight(9, 4);
        {
            let t = s.begin(9);
            t.charge(1_000);
        }
        s.forget(9);
        assert!(!s.knows(9));
        // Re-arming config for a departed (or never-seen) session stores
        // config only — the served_ops/served_ns/vft ledgers stay empty
        // until the session actually runs again.
        s.set_priority(9, 5);
        s.set_weight(9, 2);
        s.set_priority(424242, 1);
        s.set_weight(424242, 8);
        for sess in [9u32, 424242] {
            assert!(!s.served_ops().contains_key(&sess));
            assert!(!s.served_ns().contains_key(&sess));
            assert!(s.wfq_vft(sess).is_none());
        }
        // The config itself is live: qos_of reflects it.
        assert_eq!(s.qos_of(9).weight, 2);
        assert_eq!(s.qos_of(9).priority, 5);
    }

    #[test]
    fn wfq_prefers_the_session_with_the_smaller_virtual_finish_time() {
        let s = Arc::new(Scheduler::new(SchedulerPolicy::Wfq));
        s.set_weight(1, 1);
        s.set_weight(2, 4);
        // Identical device time charged: session 2's clock ran 4x slower.
        s.charge(1, 10_000);
        s.charge(2, 10_000);
        let gate = s.begin(0); // hold the slot while waiters queue
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for sess in [1u32, 2] {
            let s2 = Arc::clone(&s);
            let order2 = Arc::clone(&order);
            handles.push(std::thread::spawn(move || {
                let _t = s2.begin(sess);
                order2.lock().push(sess);
            }));
            // Session 1 queues first; WFQ must still pick 2.
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        drop(gate);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*order.lock(), vec![2, 1], "lower vft (weight 4) first");
    }

    #[test]
    fn wfq_floors_idle_sessions_at_the_global_clock() {
        let s = Scheduler::new(SchedulerPolicy::Wfq);
        // Session 1 accrues vft; the global clock follows it on its next
        // turn. A newcomer is floored at the clock, not at zero.
        {
            let t = s.begin(1);
            t.charge(50_000);
        }
        {
            let _t = s.begin(1);
        }
        let clock_after = s.wfq_vft(1).unwrap();
        {
            let _t = s.begin(2);
        }
        assert_eq!(
            s.wfq_vft(2),
            Some(clock_after),
            "newcomer starts at the global virtual clock, banking no credit"
        );
    }

    #[test]
    fn token_bucket_rate_limits_and_hints_refill_time() {
        let s = Scheduler::new(SchedulerPolicy::Fifo);
        s.set_qos(
            7,
            QosSpec {
                rate_ns_per_s: 1_000_000_000, // 1 device-ns per wall-ns
                burst_ns: 10_000,
                ..QosSpec::default()
            },
        );
        // Unconfigured sessions are unlimited.
        assert!(s.rate_check(99, 0, u64::MAX).is_ok());
        // The bucket primes full, then runs dry.
        assert!(s.rate_check(7, 0, 10_000).is_ok());
        assert_eq!(s.rate_check(7, 0, 1_000), Err(1_000));
        // Clock advances 5_000ns → 5_000 tokens refill.
        assert!(s.rate_check(7, 5_000, 4_000).is_ok());
        assert_eq!(s.rate_check(7, 5_000, 2_000), Err(1_000));
    }

    #[test]
    fn should_yield_flags_a_more_deserving_waiter() {
        let s = Arc::new(Scheduler::new(SchedulerPolicy::Wfq));
        s.set_weight(1, 1);
        s.set_weight(2, 1);
        let turn = s.begin(1);
        assert!(!turn.should_yield(), "no waiters: keep the slot");
        let s2 = Arc::clone(&s);
        let waiter = std::thread::spawn(move || {
            let _t = s2.begin(2);
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        // Session 1 has consumed device time; session 2 (vft at the clock
        // floor) deserves the slot.
        turn.charge(100_000);
        assert!(turn.should_yield(), "waiter with smaller vft is queued");
        drop(turn);
        waiter.join().unwrap();
        // Under FIFO any other-session waiter requests a handoff; with an
        // empty queue nothing does.
        s.set_policy(SchedulerPolicy::Fifo);
        let turn = s.begin(1);
        assert!(!turn.should_yield());
        drop(turn);
    }

    #[test]
    fn shed_counter_drains_on_take() {
        let s = Scheduler::new(SchedulerPolicy::Fifo);
        assert_eq!(s.take_recent_sheds(), 0);
        s.note_shed();
        s.note_shed();
        assert_eq!(s.take_recent_sheds(), 2);
        assert_eq!(s.take_recent_sheds(), 0);
    }
}
