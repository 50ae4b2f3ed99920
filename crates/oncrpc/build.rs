//! Build script: compile `proto/portmap.x` with the rpcl compiler, the way
//! `cricket-proto/build.rs` compiles `cricket.x`. The generated code names
//! this crate as `crate`.

use std::path::PathBuf;

fn main() {
    println!("cargo:rerun-if-changed=proto/portmap.x");
    let source = std::fs::read_to_string("proto/portmap.x").expect("read proto/portmap.x");
    let opts = rpcl::Options {
        oncrpc_path: "crate".into(),
        ..Default::default()
    };
    let code = rpcl::compile(&source, &opts).unwrap_or_else(|e| panic!("portmap.x: {e}"));
    let out: PathBuf = std::env::var_os("OUT_DIR").expect("OUT_DIR").into();
    std::fs::write(out.join("portmap.rs"), code).expect("write generated code");
}
