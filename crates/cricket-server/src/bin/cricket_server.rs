//! `cricket-server` — serve the Cricket CUDA protocol over TCP.
//!
//! Usage: `cricket-server [--listen ADDR:PORT] [--devices N]`
//!
//! Clients (the examples in this repository, or any ONC RPC client speaking
//! `cricket.x`) connect with program 537395001 version 1. Every connection
//! is its own session: its device memory, streams and scheduler ledger are
//! released when it disconnects, and token-tagged retries are at-most-once.

use cricket_server::{ServerBuilder, ServerConfig};

fn main() {
    let mut listen = "127.0.0.1:20495".to_string();
    let mut devices = 4i32;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => listen = args.next().expect("--listen needs ADDR:PORT"),
            "--devices" => {
                devices = args
                    .next()
                    .expect("--devices needs N")
                    .parse()
                    .expect("N must be an integer")
            }
            "-h" | "--help" => {
                eprintln!("usage: cricket-server [--listen ADDR:PORT] [--devices N]");
                return;
            }
            other => {
                eprintln!("cricket-server: unknown flag {other}");
                std::process::exit(2);
            }
        }
    }

    let handle = ServerBuilder::new(listen.as_str())
        .config(ServerConfig {
            device_count: devices,
            ..ServerConfig::default()
        })
        .serve()
        .expect("bind listener");
    println!(
        "cricket-server: simulated A100 at {} (program {}, version {})",
        handle.addr(),
        cricket_proto::CRICKET_CUDA,
        cricket_proto::CRICKET_V1
    );
    // Serve until killed.
    loop {
        std::thread::park();
    }
}
