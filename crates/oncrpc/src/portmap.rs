//! The portmapper (RFC 1833, program 100000 version 2), extended into a
//! GPU-fleet shard directory.
//!
//! `proto/portmap.x` is the protocol: RFC 1833's procedures 0–4, the
//! shard procedures 5–10 and their types. `rpcl` compiles it at build time
//! (`build.rs`) into everything on the wire — [`Mapping`], [`LoadReport`],
//! [`ShardEntry`] and the two optional-data lists with their XDR codecs,
//! [`PmapVersClient`], and the [`PmapVersService`] trait with its
//! dispatcher. This module is the one thing the generator cannot write:
//! [`Portmap`], the directory, each procedure body once.
//!
//! Real ONC RPC deployments locate services by asking the portmapper which
//! TCP port a (program, version) pair listens on. Cricket points clients at
//! the server directly, but tests use the portmapper to exercise a second,
//! independently specified RPC program through the same stack.
//!
//! The shard procedures make it a **shard directory**: many servers
//! ("shards") of the *same* (program, version) register at once, each with
//! a [`LoadReport`] its heartbeats refresh. Clients fetch the shard table
//! once at connect time, rank it, and then talk to their shard directly —
//! the directory is never on the per-call path. `SHARD_ASSIGN` bumps a
//! shard's `assigned` counter so a burst of concurrent connects spreads
//! even between heartbeats; `SHARD_HOME_SET` / `SHARD_HOME_GET` pin a
//! migrated session's client token to its new home.

include!(concat!(env!("OUT_DIR"), "/portmap.rs"));

use crate::error::RpcResult;
use crate::msg::AcceptStat;
use crate::server::{serve_tcp, RpcServer, ServerHandle};
use parking_lot::RwLock;
use std::collections::{btree_map::Entry, BTreeMap, HashMap};
use std::sync::Arc;

type Reply<T> = Result<T, AcceptStat>;

/// Most RFC 1833 mappings the directory holds: `SET` of a new tuple past
/// it is refused (`false`), so a `DUMP` reply stays bounded.
const MAX_MAPPINGS: usize = 1 << 12;

/// Most shards the directory holds, over every (prog, vers): `SHARD_SET`
/// for a shard past it is refused (`false`); one already held still
/// heartbeats. A fleet is tens of servers.
const MAX_SHARDS: usize = 1 << 10;

/// Most pinned homes the directory holds: `SHARD_HOME_SET` for a token
/// past it is refused (`false`); a pinned one still moves or clears. Each
/// migrated session pins one.
const MAX_HOMES: usize = 1 << 14;

impl ShardEntry {
    /// Sessions the directory believes the shard is carrying right now:
    /// what the shard last reported plus placements since that heartbeat.
    pub fn effective_sessions(&self) -> u32 {
        self.load.sessions.saturating_add(self.assigned)
    }
}

/// The directory: a handle to one set of tables, so the copy a server
/// dispatches to and every in-process clone see the same state. Call the
/// procedures through [`PmapVersService`], locally or over the wire.
#[derive(Clone, Default)]
pub struct Portmap(Arc<RwLock<Tables>>);

#[derive(Default)]
struct Tables {
    /// (prog, vers, prot) → port; ordered, so `DUMP` is deterministic.
    mappings: BTreeMap<(u32, u32, u32), u32>,
    /// (prog, vers) → port → shard; ordered by port.
    shards: HashMap<(u32, u32), BTreeMap<u32, ShardEntry>>,
    /// (prog, vers, client token) → pinned home port.
    homes: HashMap<(u32, u32, u64), u32>,
}

impl Portmap {
    /// An empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Serve this directory over real TCP as [`PMAP_PROG`]/[`PMAP_VERS`] —
    /// the standalone directory process of a GPU fleet. `handle.addr()` is
    /// the address shards register with and clients resolve through.
    pub fn serve<A: std::net::ToSocketAddrs>(&self, addr: A) -> RpcResult<ServerHandle> {
        let mut rpc = RpcServer::new();
        rpc.register(
            PMAP_PROG,
            PMAP_VERS,
            Arc::new(PmapVersDispatch(self.clone())),
        );
        serve_tcp(Arc::new(rpc), addr)
    }
}

impl PmapVersService for Portmap {
    fn null(&self) -> Reply<()> {
        Ok(())
    }

    /// RFC 1833: `SET` never overwrites — it fails if the tuple is taken,
    /// or if it is new and the table is full.
    fn set(&self, m: Mapping) -> Reply<bool> {
        let mappings = &mut self.0.write().mappings;
        let room = mappings.len() < MAX_MAPPINGS;
        Ok(match mappings.entry((m.prog, m.vers, m.prot)) {
            Entry::Vacant(e) if room => {
                e.insert(m.port);
                true
            }
            _ => false,
        })
    }

    fn unset(&self, m: Mapping) -> Reply<bool> {
        let mappings = &mut self.0.write().mappings;
        let before = mappings.len();
        mappings.retain(|&(prog, vers, _), _| (prog, vers) != (m.prog, m.vers));
        Ok(mappings.len() != before)
    }

    fn getport(&self, m: Mapping) -> Reply<u32> {
        let mappings = &self.0.read().mappings;
        Ok(mappings
            .get(&(m.prog, m.vers, m.prot))
            .copied()
            .unwrap_or(0))
    }

    fn dump(&self) -> Reply<Pmaplist> {
        let mappings = &self.0.read().mappings;
        let all = mappings.iter().map(|(&(prog, vers, prot), &port)| Mapping {
            prog,
            vers,
            prot,
            port,
        });
        Ok(MappingNode(all.collect()))
    }

    /// A heartbeat replaces the shard's entry, resetting `assigned`: the
    /// report's `sessions` now accounts for every placement it covered.
    fn shard_set(&self, prog: u32, vers: u32, port: u32, load: LoadReport) -> Reply<bool> {
        let entry = ShardEntry {
            port,
            load,
            assigned: 0,
        };
        let shards = &mut self.0.write().shards;
        let held = shards
            .get(&(prog, vers))
            .is_some_and(|m| m.contains_key(&port));
        if !held && shards.values().map(BTreeMap::len).sum::<usize>() >= MAX_SHARDS {
            return Ok(false);
        }
        shards.entry((prog, vers)).or_default().insert(port, entry);
        Ok(true)
    }

    fn shard_unset(&self, prog: u32, vers: u32, port: u32) -> Reply<bool> {
        let shards = &mut self.0.write().shards;
        let Some(fleet) = shards.get_mut(&(prog, vers)) else {
            return Ok(false);
        };
        let existed = fleet.remove(&port).is_some();
        if fleet.is_empty() {
            shards.remove(&(prog, vers));
        }
        Ok(existed)
    }

    fn shard_dump(&self, prog: u32, vers: u32) -> Reply<ShardList> {
        let shards = &self.0.read().shards;
        let fleet = shards
            .get(&(prog, vers))
            .into_iter()
            .flat_map(|m| m.values());
        Ok(ShardNode(fleet.copied().collect()))
    }

    fn shard_assign(&self, prog: u32, vers: u32, port: u32) -> Reply<bool> {
        let shards = &mut self.0.write().shards;
        let shard = shards.get_mut(&(prog, vers)).and_then(|m| m.get_mut(&port));
        Ok(shard
            .map(|s| s.assigned = s.assigned.saturating_add(1))
            .is_some())
    }

    fn shard_home_set(&self, prog: u32, vers: u32, token: u64, port: u32) -> Reply<bool> {
        let homes = &mut self.0.write().homes;
        let key = (prog, vers, token);
        if port == 0 {
            homes.remove(&key);
        } else if homes.len() < MAX_HOMES || homes.contains_key(&key) {
            homes.insert(key, port);
        } else {
            return Ok(false);
        }
        Ok(true)
    }

    /// A pin to a shard no longer registered (crashed mid-migration) reads
    /// as 0, so a reconnecting client falls back to the ranked candidates
    /// instead of hammering a dead address.
    fn shard_home_get(&self, prog: u32, vers: u32, token: u64) -> Reply<u32> {
        let t = self.0.read();
        let port = t.homes.get(&(prog, vers, token)).copied().unwrap_or(0);
        let alive = (t.shards.get(&(prog, vers))).is_some_and(|m| m.contains_key(&port));
        Ok(if alive { port } else { 0 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::TcpTransport;

    const TCP: u32 = IPPROTO_TCP as u32;

    fn mapping(prog: u32, vers: u32, port: u32) -> Mapping {
        Mapping {
            prog,
            vers,
            prot: TCP,
            port,
        }
    }

    #[test]
    fn local_table_semantics() {
        let pm = Portmap::new();
        let m = mapping(99, 1, 2048);
        assert!(pm.set(m).unwrap());
        assert!(!pm.set(m).unwrap(), "duplicate SET must fail");
        assert_eq!(pm.getport(m).unwrap(), 2048);
        assert_eq!(pm.getport(mapping(99, 2, 0)).unwrap(), 0);
        assert!(pm.unset(m).unwrap());
        assert!(!pm.unset(m).unwrap());
        assert_eq!(pm.getport(m).unwrap(), 0);
    }

    #[test]
    fn portmap_over_tcp() {
        let pm = Portmap::new();
        let handle = pm.serve("127.0.0.1:0").unwrap();

        let t = TcpTransport::connect(handle.addr()).unwrap();
        let mut client = PmapVersClient::new(Box::new(t));
        client.null().unwrap();
        assert!(client.set(&mapping(99, 1, 4242)).unwrap());
        assert_eq!(client.getport(&mapping(99, 1, 0)).unwrap(), 4242);
        let dumped = client.dump().unwrap().0;
        assert_eq!(dumped.len(), 1);
        assert_eq!(dumped[0].port, 4242);
        assert!(client.unset(&mapping(99, 1, 0)).unwrap());
        assert_eq!(client.getport(&mapping(99, 1, 0)).unwrap(), 0);
        handle.shutdown();
    }

    #[test]
    fn shard_table_semantics() {
        let pm = Portmap::new();
        let load = LoadReport {
            free_mem: 100,
            total_mem: 200,
            served_ns: 5,
            sessions: 1,
            qos_pressure: 0,
        };
        let dump = |prog, vers| pm.shard_dump(prog, vers).unwrap().0;
        // Many shards of one (prog, vers) may coexist — unlike SET.
        pm.shard_set(7, 1, 5001, load).unwrap();
        pm.shard_set(7, 1, 5002, LoadReport::default()).unwrap();
        assert_eq!(dump(7, 1).len(), 2);
        assert_eq!(dump(7, 2).len(), 0);

        // Assign bumps the freshness counter; a heartbeat resets it.
        assert!(pm.shard_assign(7, 1, 5001).unwrap());
        assert!(pm.shard_assign(7, 1, 5001).unwrap());
        assert!(!pm.shard_assign(7, 1, 9999).unwrap(), "unknown port");
        let shards = dump(7, 1);
        assert_eq!(shards[0].assigned, 2);
        assert_eq!(shards[0].effective_sessions(), 3);
        let beat = LoadReport {
            sessions: 3,
            ..load
        };
        pm.shard_set(7, 1, 5001, beat).unwrap();
        assert_eq!(dump(7, 1)[0].assigned, 0);

        // Deregistration removes exactly one shard.
        assert!(pm.shard_unset(7, 1, 5001).unwrap());
        assert!(!pm.shard_unset(7, 1, 5001).unwrap());
        let rest = dump(7, 1);
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].port, 5002);
    }

    #[test]
    fn home_pins_follow_shard_liveness() {
        let pm = Portmap::new();
        pm.shard_set(7, 1, 5001, LoadReport::default()).unwrap();
        pm.shard_set(7, 1, 5002, LoadReport::default()).unwrap();
        let home = |vers, token| pm.shard_home_get(7, vers, token).unwrap();

        assert_eq!(home(1, 0xAB), 0, "no pin yet");
        pm.shard_home_set(7, 1, 0xAB, 5002).unwrap();
        assert_eq!(home(1, 0xAB), 5002);
        assert_eq!(home(2, 0xAB), 0, "pins are per (prog, vers)");

        // A pin to a deregistered shard reads as 0 so reconnecting clients
        // fall back to the ranked candidate list.
        pm.shard_unset(7, 1, 5002).unwrap();
        assert_eq!(home(1, 0xAB), 0);

        // Re-pin and clear.
        pm.shard_home_set(7, 1, 0xAB, 5001).unwrap();
        assert_eq!(home(1, 0xAB), 5001);
        pm.shard_home_set(7, 1, 0xAB, 0).unwrap();
        assert_eq!(home(1, 0xAB), 0);
    }

    /// A peer fills both tables to their bounds over the wire: a new shard
    /// or token past a bound is refused, held ones still update, a cleared
    /// pin frees its slot, and the directory keeps answering.
    #[test]
    fn a_peer_fills_the_directory_only_to_its_bounds() {
        let pm = Portmap::new();
        let handle = pm.serve("127.0.0.1:0").unwrap();
        let t = TcpTransport::connect(handle.addr()).unwrap();
        let mut client = PmapVersClient::new(Box::new(t));
        let load = LoadReport::default();
        // Shards spread over many (prog, vers): the bound is the total.
        for i in 0..MAX_SHARDS as u32 {
            assert!(client.shard_set(&(i % 7), &1, &(5000 + i), &load).unwrap());
        }
        assert!(!client.shard_set(&99, &1, &1, &load).unwrap(), "new fleet");
        assert!(!client.shard_set(&0, &1, &1, &load).unwrap(), "new port");
        let beat = LoadReport {
            sessions: 9,
            ..load
        };
        assert!(client.shard_set(&0, &1, &5000, &beat).unwrap(), "heartbeat");
        assert_eq!(client.shard_dump(&0, &1).unwrap().0[0].load, beat);
        assert!(client.shard_dump(&99, &1).unwrap().0.is_empty());

        for token in 0..MAX_HOMES as u64 {
            assert!(client.shard_home_set(&0, &1, &token, &5000).unwrap());
        }
        let past = MAX_HOMES as u64;
        assert!(!client.shard_home_set(&0, &1, &past, &5000).unwrap());
        assert_eq!(client.shard_home_get(&0, &1, &past).unwrap(), 0);
        assert!(client.shard_home_set(&0, &1, &7, &5007).unwrap(), "re-pin");
        assert_eq!(client.shard_home_get(&0, &1, &7).unwrap(), 5007);
        assert!(client.shard_home_set(&0, &1, &7, &0).unwrap(), "clear");
        assert!(client.shard_home_set(&0, &1, &past, &5000).unwrap());
        assert_eq!(client.shard_home_get(&0, &1, &past).unwrap(), 5000);

        // Room again once a shard leaves.
        assert!(client.shard_unset(&1, &1, &5001).unwrap());
        assert!(client.shard_set(&99, &1, &1, &load).unwrap());

        // RFC 1833 mappings, spread over many programs: the bound is the total.
        let mapping = |prog: u32, port| Mapping {
            prog,
            vers: 1,
            prot: 6,
            port,
        };
        for prog in 0..MAX_MAPPINGS as u32 {
            assert!(client.set(&mapping(prog, 7000)).unwrap());
        }
        let past = MAX_MAPPINGS as u32;
        assert!(!client.set(&mapping(past, 7000)).unwrap(), "new tuple");
        assert_eq!(client.getport(&mapping(past, 0)).unwrap(), 0);
        assert_eq!(client.getport(&mapping(3, 0)).unwrap(), 7000);
        assert_eq!(client.dump().unwrap().0.len(), MAX_MAPPINGS);
        assert!(client.unset(&mapping(3, 0)).unwrap());
        assert!(client.set(&mapping(past, 7000)).unwrap(), "room again");
        client.null().unwrap();
        handle.shutdown();
    }

    #[test]
    fn shard_directory_over_tcp() {
        let pm = Portmap::new();
        let handle = pm.serve("127.0.0.1:0").unwrap();

        let t = TcpTransport::connect(handle.addr()).unwrap();
        let mut client = PmapVersClient::new(Box::new(t));
        let load = LoadReport {
            free_mem: 1 << 30,
            total_mem: 2 << 30,
            served_ns: 123,
            sessions: 4,
            qos_pressure: 250,
        };
        assert!(client.shard_set(&77, &1, &6001, &load).unwrap());
        assert!(client
            .shard_set(&77, &1, &6002, &LoadReport::default())
            .unwrap());
        assert!(client.shard_assign(&77, &1, &6002).unwrap());
        let shards = client.shard_dump(&77, &1).unwrap().0;
        assert_eq!(shards.len(), 2);
        assert_eq!(shards[0].port, 6001);
        assert_eq!(shards[0].load, load);
        assert_eq!(shards[1].assigned, 1);
        assert!(client.shard_home_set(&77, &1, &0xF00D, &6002).unwrap());
        assert_eq!(client.shard_home_get(&77, &1, &0xF00D).unwrap(), 6002);
        assert_eq!(client.shard_home_get(&77, &1, &0xBEEF).unwrap(), 0);
        assert!(client.shard_unset(&77, &1, &6001).unwrap());
        assert_eq!(client.shard_dump(&77, &1).unwrap().0.len(), 1);
        handle.shutdown();
    }
}
