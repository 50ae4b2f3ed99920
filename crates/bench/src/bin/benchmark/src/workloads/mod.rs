//! The five workloads and the two ways of connecting a metered client.

pub mod apps;
pub mod bulk;
pub mod smallcall;
pub mod tcp;

use crate::meter::{Meter, MeteredTransport, VirtClock};
use cricket_client::env::ClientFlavor;
use cricket_client::sim::SimSetup;
use cricket_client::{CricketClient, Endpoint, EnvConfig};
use std::sync::Arc;

/// The configuration the paper is about, and the one every simulated
/// workload runs in.
pub const ENV: EnvConfig = EnvConfig::RustyHermit;

/// The five configurations of the paper's Table 1, as named in the metrics.
pub const ENVS: [(&str, EnvConfig); 5] = [
    ("c", EnvConfig::CNative),
    ("rust", EnvConfig::RustNative),
    ("linuxvm", EnvConfig::LinuxVm),
    ("unikraft", EnvConfig::Unikraft),
    ("hermit", EnvConfig::RustyHermit),
];

/// Reader for the virtual clock of `setup`.
pub fn virt_clock(setup: &SimSetup) -> VirtClock {
    let clock = Arc::clone(&setup.clock);
    Arc::new(move || clock.now_ns())
}

/// What `SimSetup::client` builds, with the transport metered.
pub fn sim_client(setup: &SimSetup, env: EnvConfig, meter: &Arc<Meter>) -> CricketClient {
    let transport = MeteredTransport::new(
        setup.transport(env),
        Arc::clone(meter),
        Some(virt_clock(setup)),
    );
    CricketClient::new(
        Box::new(transport),
        env.flavor(),
        Some(Arc::clone(&setup.clock)),
    )
}

/// What `CricketClient::connect` builds, with the transport metered.
pub fn tcp_client(addr: std::net::SocketAddr, meter: &Arc<Meter>) -> CricketClient {
    let (transport, _) = Endpoint::Addr(addr)
        .connect_transport()
        .expect("connect to the loopback server");
    let transport = MeteredTransport::new(Box::new(transport), Arc::clone(meter), None);
    CricketClient::new(Box::new(transport), ClientFlavor::RustRpcLib, None)
}

/// Load the empty kernel the launch ops use.
pub fn load_empty_kernel(client: &mut CricketClient) -> u64 {
    let image = cricket_client::CubinBuilder::new()
        .kernel("empty", &[])
        .code(b"empty kernel")
        .build(false);
    let module = client.module_load(&image).expect("load module");
    client
        .module_get_function(module, "empty")
        .expect("resolve empty kernel")
}
