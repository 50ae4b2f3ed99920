//! Cricket client runtime — the reproduction of the paper's contribution.
//!
//! Applications use this crate the way the paper's applications use
//! RPC-Lib + the Cricket virtualization layer: CUDA API calls are issued
//! against a local API and forwarded via ONC RPC to a Cricket server that
//! owns the GPU. Three layers are offered:
//!
//! * [`raw`] — one method per CUDA API (`malloc`, `memcpy_*`,
//!   `module_load`, `launch_kernel`, cuBLAS/cuSolver/cuFFT entry points),
//!   generated from the `api` attributes of `cricket.x` wherever it only
//!   forwards the call, with **API-call and byte accounting**
//!   ([`stats::ApiStats`]) reproducing the paper's §4.1 call-count table.
//! * [`safe`] — the Rust-idiomatic layer the paper highlights: *"we wrap
//!   the cudaMalloc and cudaFree APIs, making GPU allocations work like
//!   local heap allocations. This way, we can guarantee the absence of
//!   use-after-free and double-free errors"* (§3.4). [`safe::DeviceBuffer`]
//!   frees on drop and is lifetime-bound to its [`safe::Context`];
//!   [`safe::Module`], [`safe::Stream`] and [`safe::Event`] behave likewise.
//! * [`mod@env`] — the five Table-1 configurations. [`env::EnvConfig`] selects
//!   the guest environment (network behavior) and the client flavor
//!   (Rust RPC-Lib vs. C libtirpc, whose extra kernel-launch marshalling
//!   and slower `rand()` the paper measures).
//!
//! [`sim`] wires a client to an in-process server over the simulated
//! network path; `Context::connect` talks to a real `cricket-server`
//! process instead — the same application code runs on either, mirroring
//! the paper's "without any code modification, we can run the same Rust
//! application … directly on Linux".

pub mod ccompat;
pub mod endpoint;
pub mod env;
pub mod error;
pub mod raw;
pub mod safe;
pub mod sim;
pub mod stats;
pub mod stripe;

pub use endpoint::{Endpoint, Placement};
pub use env::EnvConfig;
pub use error::{ClientError, ClientResult};
pub use raw::CricketClient;

/// Coalescing policy/telemetry re-exports (configure via
/// [`CricketClient::enable_batching_with`], read via
/// [`CricketClient::batch_stats`]).
pub use oncrpc::{BatchPolicy, BatchStats};
pub use safe::{Context, DeviceBuffer, Event, Function, Module, Stream};
pub use stats::ApiStats;

/// Grid/block geometry re-export (wire type from the protocol).
pub use cricket_proto::RpcDim3 as Dim3;

/// Kernel-parameter marshalling re-export ("void* args[]" stand-in).
pub use vgpu::kernels::ParamBuilder;

/// Cubin construction re-export — the `nvcc` stand-in examples use to
/// produce kernel images they then load via the `cuModule` API.
pub use vgpu::module::CubinBuilder;
