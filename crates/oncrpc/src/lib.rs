//! ONC RPC — Open Network Computing Remote Procedure Call (RFC 5531).
//!
//! This crate is the reproduction of the paper's **RPC-Lib**: a Rust ONC RPC
//! implementation whose distinguishing features (vs. the pre-existing
//! `onc_rpc` crate the paper reviews) are:
//!
//! * **Fragmented record marking** ([`record`]): messages larger than one
//!   fragment are split/reassembled transparently, which is what lets GPU
//!   memory transfers of hundreds of MiB travel as RPC arguments. Every
//!   reader parses the marks with one [`record::RecordMarks`].
//! * **No OS-specific dependencies**: everything is written against
//!   `std::io::{Read, Write}` so the same code runs on Linux and inside the
//!   (simulated) unikernels; libtirpc's Linux-isms were the paper's motivation
//!   for a rewrite.
//! * **Generated client/server stubs**: the `rpcl` crate compiles `.x` RPCL
//!   interface specifications into typed stubs over [`client::RpcClient`] and
//!   [`server::Dispatch`].
//!
//! Layering:
//!
//! ```text
//!   generated stubs (rpcl)            cricket protocol
//!          │
//!   client::RpcClient / server::RpcServer
//!          │
//!   msg: RpcMessage { xid, Call | Reply }          (RFC 5531 §9)
//!          │
//!   record: record marking, fragmentation          (RFC 5531 §11)
//!          │
//!   transport: TCP, in-memory duplex, simulated
//! ```

mod auth;
mod batch;
mod client;
mod conn;
mod error;
pub mod msg;
pub mod portmap;
pub mod reactor;
pub mod record;
pub mod replay;
pub mod server;
pub mod sparse;
pub mod telemetry;
pub mod transport;

pub use auth::OpaqueAuth;
pub use batch::{BatchBuilder, BatchPolicy, BatchStats, FlushReason, BATCH_SKIPPED};
pub use client::{Reply, RetryPolicy, RpcClient};
pub use conn::{Calls, Classifier, Conn, ProcClass, ReactorConfig, Replies};
pub use error::{RpcError, RpcResult};
pub use msg::{AcceptStat, CallBody, RejectStat, ReplyBody, RpcMessage};

pub use portmap::{LoadReport, Mapping, PmapVersClient, Portmap, ShardEntry};
pub use reactor::{serve_tcp_reactor, ConnHandler};
pub use record::{RecordBuf, RecordReader, RecordWriter, DEFAULT_MAX_FRAGMENT};
pub use replay::ReplayCache;
pub use server::{Dispatch, RpcServer, ServerHandle};
pub use transport::{duplex_pair, TcpTransport, Transport};

/// The RPC protocol version this crate speaks (RFC 5531 mandates 2).
pub(crate) const RPC_VERSION: u32 = 2;
