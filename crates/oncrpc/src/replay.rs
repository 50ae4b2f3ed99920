//! At-most-once duplicate-request cache (the classic ONC RPC "DRC").
//!
//! A client that retransmits a call after a timeout or reconnect reuses the
//! original transaction id, and tags itself with a stable client token in
//! its credential ([`crate::OpaqueAuth::client_token`]). The server keeps the
//! encoded reply of each recent call keyed by `(client token, xid)`;
//! when the same call arrives again the cached reply bytes are replayed
//! verbatim instead of re-executing the procedure. That is what makes
//! retrying *non-idempotent* procedures (`cuMemAlloc`, module load) safe:
//! the side effect happens exactly once, while the wire sees the answer as
//! many times as it asks.

use crate::telemetry::Metrics;
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};

crate::counters! {
    /// The cache's counters (`replay.*`); `hits` is the telemetry for
    /// "non-idempotent call executed exactly once".
    const METRICS = {
        HITS = "replay.hits", // retransmissions answered from the cache, not re-executed
        STORES = "replay.stores", // replies stored
        EVICTIONS = "replay.evictions", // entries evicted to respect the per-client capacity
    }
}

/// Per-client FIFO of (xid, encoded reply record).
type ClientWindow = VecDeque<(u32, Vec<u8>)>;

/// Bounded per-client reply cache keyed by `(client token, xid)`.
#[derive(Debug)]
pub struct ReplayCache {
    per_client: Mutex<HashMap<u64, ClientWindow>>,
    capacity_per_client: usize,
    metrics: Metrics,
}

/// Replies a client can have in flight is tiny (the client here is
/// synchronous), so a short window per client is plenty.
pub const DEFAULT_REPLAY_WINDOW: usize = 64;

impl Default for ReplayCache {
    fn default() -> Self {
        Self::new(DEFAULT_REPLAY_WINDOW)
    }
}

impl ReplayCache {
    /// Create a cache retaining at most `capacity_per_client` replies per
    /// client token.
    pub(crate) fn new(capacity_per_client: usize) -> Self {
        assert!(capacity_per_client > 0);
        Self {
            per_client: Mutex::new(HashMap::new()),
            capacity_per_client,
            metrics: Metrics::new(METRICS),
        }
    }

    /// The cached reply for `(client, xid)`, if the call was already served.
    pub(crate) fn lookup(&self, client: u64, xid: u32) -> Option<Vec<u8>> {
        let map = self.per_client.lock();
        let reply = map
            .get(&client)?
            .iter()
            .find(|(x, _)| *x == xid)
            .map(|(_, r)| r.clone())?;
        self.metrics.add(HITS, 1);
        Some(reply)
    }

    /// Remember the reply produced for `(client, xid)`.
    pub(crate) fn store(&self, client: u64, xid: u32, reply: &[u8]) {
        let mut map = self.per_client.lock();
        let window = map.entry(client).or_default();
        // A retransmission that raced past the lookup must not duplicate
        // the entry.
        if window.iter().any(|(x, _)| *x == xid) {
            return;
        }
        if window.len() >= self.capacity_per_client {
            window.pop_front();
            self.metrics.add(EVICTIONS, 1);
        }
        window.push_back((xid, reply.to_vec()));
        self.metrics.add(STORES, 1);
    }

    /// Drop all state for a client (connection teardown / session release).
    pub fn forget_client(&self, client: u64) {
        self.per_client.lock().remove(&client);
    }

    /// Export a client's window oldest-first (live migration: the cached
    /// replies travel with the session so a retransmission that lands on
    /// the destination still replays instead of re-executing).
    pub fn export_client(&self, client: u64) -> Vec<(u32, Vec<u8>)> {
        self.per_client
            .lock()
            .get(&client)
            .map(|w| w.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Install an exported window for a client, replacing any existing one.
    /// Entries beyond this cache's capacity keep only the newest (matching
    /// what eviction would have retained); imports are not counted as
    /// stores — the side effects happened on the exporting server.
    pub fn import_client(&self, client: u64, mut entries: Vec<(u32, Vec<u8>)>) {
        if entries.len() > self.capacity_per_client {
            entries.drain(..entries.len() - self.capacity_per_client);
        }
        self.per_client.lock().insert(client, entries.into());
    }

    /// Number of clients with live windows (leak checks in soak tests).
    pub fn client_count(&self) -> usize {
        self.per_client.lock().len()
    }

    /// The cache's counters (`replay.*`).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counter `replay.{name}` of `c`.
    fn count(c: &ReplayCache, name: &str) -> u64 {
        let name = format!("replay.{name}");
        c.metrics().iter().find(|&(n, _)| n == name).unwrap().1
    }

    #[test]
    fn store_then_lookup_hits() {
        let c = ReplayCache::new(4);
        assert!(c.lookup(1, 10).is_none());
        c.store(1, 10, b"abcd");
        assert_eq!(c.lookup(1, 10).unwrap(), b"abcd");
        assert_eq!(count(&c, "hits"), 1);
        assert_eq!(count(&c, "stores"), 1);
    }

    #[test]
    fn clients_are_isolated() {
        let c = ReplayCache::new(4);
        c.store(1, 10, b"one!");
        assert!(c.lookup(2, 10).is_none());
    }

    #[test]
    fn window_evicts_oldest() {
        let c = ReplayCache::new(2);
        c.store(1, 1, b"a...");
        c.store(1, 2, b"b...");
        c.store(1, 3, b"c...");
        assert!(c.lookup(1, 1).is_none());
        assert!(c.lookup(1, 3).is_some());
        assert_eq!(count(&c, "evictions"), 1);
    }

    #[test]
    fn duplicate_store_is_ignored() {
        let c = ReplayCache::new(4);
        c.store(1, 7, b"orig");
        c.store(1, 7, b"dupe");
        assert_eq!(c.lookup(1, 7).unwrap(), b"orig");
        assert_eq!(count(&c, "stores"), 1);
    }

    #[test]
    fn forget_client_clears_window() {
        let c = ReplayCache::new(4);
        c.store(9, 1, b"gone");
        c.forget_client(9);
        assert!(c.lookup(9, 1).is_none());
    }

    #[test]
    fn export_import_moves_a_window() {
        let src = ReplayCache::new(4);
        src.store(5, 1, b"aaaa");
        src.store(5, 2, b"bbbb");
        let dst = ReplayCache::new(4);
        dst.import_client(5, src.export_client(5));
        src.forget_client(5);
        assert_eq!(dst.lookup(5, 1).unwrap(), b"aaaa");
        assert_eq!(dst.lookup(5, 2).unwrap(), b"bbbb");
        assert_eq!(count(&dst, "stores"), 0, "imports are not stores");
        assert_eq!(src.client_count(), 0);
        assert_eq!(dst.client_count(), 1);
    }

    #[test]
    fn import_truncates_to_capacity_keeping_newest() {
        let dst = ReplayCache::new(2);
        dst.import_client(
            1,
            vec![(1, b"a".to_vec()), (2, b"b".to_vec()), (3, b"c".to_vec())],
        );
        assert!(dst.lookup(1, 1).is_none());
        assert!(dst.lookup(1, 2).is_some());
        assert!(dst.lookup(1, 3).is_some());
    }
}
