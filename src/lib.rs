//! Reproduction of *GPU Acceleration in Unikernels Using Cricket GPU
//! Virtualization* (Eiling et al., SC-W 2023).
//!
//! This umbrella crate re-exports the workspace so the examples and
//! integration tests read naturally. See the README for the architecture
//! overview and DESIGN.md for the per-experiment index.
//!
//! ```
//! use cricket_repro::prelude::*;
//!
//! let (ctx, _setup) = simulated(EnvConfig::RustyHermit);
//! let buf = ctx.upload(&[1.0f32, 2.0, 3.0]).unwrap();
//! assert_eq!(buf.copy_to_vec().unwrap(), vec![1.0, 2.0, 3.0]);
//! ```

pub use cricket_client as client;
pub use cricket_fleet as fleet;
pub use cricket_proto as proto;
pub use cricket_server as server;
pub use oncrpc;
pub use proxy_apps;
pub use rpcl;
pub use simnet;
pub use unikernel;
pub use vgpu;
pub use xdr;

/// The most common imports for applications.
pub mod prelude {
    pub use cricket_client::sim::{simulated, SimSetup};
    pub use cricket_client::{
        ApiStats, ClientError, ClientResult, Context, CricketClient, CubinBuilder, DeviceBuffer,
        Dim3, Endpoint, EnvConfig, Event, Function, Module, ParamBuilder, Placement, Stream,
    };
    pub use cricket_fleet::{
        Fleet, FleetBuilder, MigrateError, MigrationReport, SessionMigration, ShardDirectory,
    };
    pub use cricket_server::{ServeMode, ServerBuilder};
    pub use proxy_apps::{bandwidth, histogram, linear_solver, matrix_mul};
}
