//! Build script: compile `proto/cricket.x` with the rpcl compiler.
//!
//! This is the reproduction's analogue of the paper's build flow, where
//! procedural macros generate client code from the RPCL spec at compile time
//! and `rpcgen` generates the server skeleton from the same file.

use std::path::PathBuf;

fn main() {
    println!("cargo:rerun-if-changed=proto/cricket.x");
    let source = std::fs::read_to_string("proto/cricket.x").expect("read proto/cricket.x");
    let code = rpcl::compile(&source, &rpcl::Options::default())
        .unwrap_or_else(|e| panic!("cricket.x: {e}"));
    let out: PathBuf = std::env::var_os("OUT_DIR").expect("OUT_DIR").into();
    std::fs::write(out.join("cricket_proto.rs"), code).expect("write generated code");
}
