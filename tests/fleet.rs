//! Fleet integration: the portmap shard directory over real TCP, shard
//! registration tied to the server lifecycle, and connect-time failover to
//! the next-best shard when the chosen shard's listener is down.
//!
//! The failover matrix runs over the scenario harness's seeds
//! (`tests/harness`): each seed deterministically picks which shard to
//! crash, and a failure names the seed.

mod harness;

use cricket_repro::oncrpc::portmap::PmapVersService;
use cricket_repro::oncrpc::{PmapVersClient, Portmap, TcpTransport};
use cricket_repro::prelude::*;
use cricket_repro::server::ServerConfig;
use harness::chaos::ChaosRng;
use std::time::Duration;

/// RFC 1833 portmap procedures over a real TCP listener: set, getport,
/// dump, unset round-trip through the wire, not just the local table.
#[test]
fn portmap_core_procs_over_tcp() {
    let pm = Portmap::new();
    let handle = pm.serve("127.0.0.1:0").unwrap();

    let t = TcpTransport::connect(handle.addr()).unwrap();
    let mut client = PmapVersClient::new(Box::new(t));
    const TCP: u32 = 6;
    let mapping = |vers: u32, port: u32| cricket_repro::oncrpc::Mapping {
        prog: 300_101,
        vers,
        prot: TCP,
        port,
    };
    assert!(client.set(&mapping(1, 4001)).unwrap());
    assert!(client.set(&mapping(2, 4002)).unwrap());
    assert_eq!(client.getport(&mapping(1, 0)).unwrap(), 4001);
    assert_eq!(client.getport(&mapping(9, 0)).unwrap(), 0, "unknown vers");
    let dump = client.dump().unwrap().0;
    assert!(dump
        .iter()
        .any(|m| m.prog == 300_101 && m.vers == 2 && m.port == 4002));
    assert!(client.unset(&mapping(1, 0)).unwrap());
    assert_eq!(client.getport(&mapping(1, 0)).unwrap(), 0);
    assert_eq!(
        client.getport(&mapping(2, 0)).unwrap(),
        4002,
        "unset is per-vers"
    );
    handle.shutdown();
}

/// A `ServerBuilder` with `.directory(...)` registers its shard on serve
/// and deregisters on graceful shutdown; a crash-kill leaves the stale
/// entry behind.
#[test]
fn shard_registration_follows_server_lifecycle() {
    let pm = Portmap::new();
    let dir_handle = pm.serve("127.0.0.1:0").unwrap();
    let dir_addr = dir_handle.addr();
    let prog = cricket_repro::proto::CRICKET_CUDA;
    let vers = cricket_repro::proto::CRICKET_V1;

    let graceful = ServerBuilder::new("127.0.0.1:0")
        .directory(dir_addr, prog, vers)
        .heartbeat(Duration::from_secs(3600))
        .serve()
        .unwrap();
    let crashed = ServerBuilder::new("127.0.0.1:0")
        .directory(dir_addr, prog, vers)
        .heartbeat(Duration::from_secs(3600))
        .serve()
        .unwrap();
    let (gport, cport) = (
        u32::from(graceful.addr().port()),
        u32::from(crashed.addr().port()),
    );
    let shards = pm.shard_dump(prog, vers).unwrap().0;
    assert_eq!(shards.len(), 2, "both shards registered on serve");
    let report = shards.iter().find(|s| s.port == gport).unwrap().load;
    assert!(report.total_mem > 0, "registration carries a load report");

    graceful.shutdown();
    let shards = pm.shard_dump(prog, vers).unwrap().0;
    assert_eq!(shards.len(), 1, "graceful shutdown deregisters");
    assert_eq!(shards[0].port, cport);

    crashed.kill();
    let shards = pm.shard_dump(prog, vers).unwrap().0;
    assert_eq!(shards.len(), 1, "crash-kill leaves the stale entry");
    assert!(
        TcpTransport::connect(("127.0.0.1", cport as u16)).is_err(),
        "crashed listener must be down"
    );
    dir_handle.shutdown();
}

/// Directory endpoints fail typed: nothing registered, or every ranked
/// candidate unreachable.
#[test]
fn directory_endpoint_typed_errors() {
    let pm = Portmap::new();
    let dir_handle = pm.serve("127.0.0.1:0").unwrap();
    let endpoint = Endpoint::directory(dir_handle.addr()).unwrap();

    match Context::connect(&endpoint).err() {
        Some(ClientError::Directory(msg)) => assert!(msg.contains("no shard"), "{msg}"),
        other => panic!("expected Directory error, got {other:?}"),
    }

    // Register a corpse: a port nothing listens on.
    pm.shard_set(
        cricket_repro::proto::CRICKET_CUDA,
        cricket_repro::proto::CRICKET_V1,
        1,
        Default::default(),
    )
    .unwrap();
    match Context::connect(&endpoint).err() {
        Some(ClientError::Directory(msg)) => assert!(msg.contains("unreachable"), "{msg}"),
        other => panic!("expected Directory error, got {other:?}"),
    }
    dir_handle.shutdown();
}

/// The failover acceptance test: killing one shard mid-run leaves a stale
/// directory entry; new sessions route around the corpse to the next-best
/// shard, and existing tenants on surviving shards keep completing ops.
/// One deterministic crash schedule per CI seed.
#[test]
fn client_failover_routes_around_killed_shard() {
    harness::for_each_seed("shard failover", |seed| {
        let mut fleet = FleetBuilder::new(3)
            .config(ServerConfig::default())
            .heartbeat(Duration::from_secs(3600))
            .launch()
            .unwrap();
        let endpoint = Endpoint::directory(fleet.dir_addr()).unwrap();

        // Six tenants spread 2-2-2 across the shards before the crash.
        let mut tenants: Vec<(Context, std::net::SocketAddr)> = (0..6)
            .map(|_| {
                let (t, addr) = endpoint.connect_transport().unwrap();
                let ctx = Context::from_client(CricketClient::over(
                    t,
                    cricket_repro::client::env::ClientFlavor::RustRpcLib,
                    None,
                ));
                ctx.device_count().unwrap();
                (ctx, addr)
            })
            .collect();

        // The seed picks the victim, chaos-harness style.
        let victim = (ChaosRng::new(seed).next_u64() % fleet.len() as u64) as usize;
        let victim_addr = fleet.shard(victim).unwrap().addr();
        assert!(fleet.kill_shard(victim), "seed {seed:#x}: kill failed");

        // New sessions must route around the corpse even though its stale
        // entry still ranks in the directory.
        for _ in 0..4 {
            let (t, addr) = endpoint.connect_transport().unwrap();
            assert_ne!(addr, victim_addr, "seed {seed:#x}: placed on the corpse");
            let mut c = CricketClient::over(
                t,
                cricket_repro::client::env::ClientFlavor::RustRpcLib,
                None,
            );
            let p = c.malloc(1024).unwrap();
            c.free(p).unwrap();
        }

        // Tenants on surviving shards keep completing ops; tenants of the
        // dead shard reconnect through the directory and finish there.
        let mut survivors = 0;
        for (ctx, addr) in tenants.drain(..) {
            if addr == victim_addr {
                drop(ctx);
                let replacement = Context::connect(&endpoint).unwrap();
                assert_eq!(replacement.device_count().unwrap(), 4);
            } else {
                assert_eq!(
                    ctx.device_count().unwrap(),
                    4,
                    "seed {seed:#x}: survivor on {addr} stalled"
                );
                survivors += 1;
            }
        }
        assert_eq!(survivors, 4, "seed {seed:#x}: 2-2-2 spread expected");
        fleet.shutdown();
    });
}
