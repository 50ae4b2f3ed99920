//! RPCL compiler — the reproduction of RPC-Lib's code generation.
//!
//! The paper generates ONC RPC client code for Cricket from the RPCL
//! interface specification using Rust procedural macros, and the server side
//! with `rpcgen`. This crate plays both roles for the reproduction: it parses
//! the *Remote Procedure Call Language* (RFC 5531 §12 / RFC 4506) and emits
//! Rust source containing
//!
//! * data types (`struct`/`enum`/`union`/`typedef`) with `xdr::Xdr` impls —
//!   an RFC 4506 §4.19 optional-data list (a struct of one item and a
//!   last `*next` to itself, see [`ast::StructDef`]) as a `Vec`
//!   with a loop for a codec, and `Copy` / `Default` derived where every
//!   member has them,
//! * `const` items for RPCL constants and procedure numbers,
//! * a typed **client stub** per program version (wrapping
//!   `oncrpc::RpcClient`), and
//! * a **service trait + dispatcher** per program version (implementing
//!   `oncrpc::Dispatch`), the analogue of `rpcgen`'s server skeleton.
//!
//! `cricket-proto` runs this compiler from its `build.rs` over
//! `proto/cricket.x`, and `oncrpc` over `proto/portmap.x`, so every XDR
//! codec in the reproduction comes from a `.x` file — "functions listed in
//! the RPCL file are immediately available for applications" (paper §3.5).
//!
//! The supported grammar is the `rpcgen -N` (newstyle, multi-argument)
//! dialect:
//!
//! ```text
//! const C = 42;
//! enum e { A = 1, B = 2 };
//! struct s { int a; opaque blob<>; string name<64>; u *opt; };
//! struct list { string item<>; list *next; };
//! union r switch (int err) { case 0: unsigned hyper ptr; default: void; };
//! typedef opaque mem_data<>;
//! program PROG { version VERS { r PROC(s, int) = 1; } = 1; } = 0x20000099;
//! ```
//!
//! plus six procedure attributes, written before the result type in any
//! order: `idempotent`, `batchable`, `inline`, `admin`, `cost(ns)` and
//! `api(method, "name")` (see [`ast::ProcedureDef`]).
//! The first four each become an `is_*` table in the version's
//! procedure-number module, `cost` the `host_cost_ns` table; `batchable`
//! also yields the `*_record` stubs and `{Vers}BatchOp`, the op as a value:
//! `decode` on the server, `record` / `send` on the client; `api` makes the
//! procedure a method of `{vers}_api!`, the typed client API macro. Every
//! result union of the shape `switch (int err) { case 0: T x; default:
//! void; }` gets `into_result`. And type tags:
//! `const MAGIC_s = w;` / `const VERSION_s = w;` make struct `s` lead with
//! those words, written by its encoder and checked by its decoder
//! (`xdr::XdrError::WrongTag`).

pub mod ast;
mod codegen;
mod lexer;
mod parser;

use codegen::generate;
pub use codegen::Options;
pub use parser::parse;

/// Errors produced while compiling an RPCL specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    /// 1-based line where the problem was detected.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rpcl error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for Error {}

/// Compile the RPCL `source` to Rust source under `opts`: the one entry
/// point of the build scripts and `rpclgen`.
pub fn compile(source: &str, opts: &Options) -> Result<String, Error> {
    Ok(generate(&parse(source)?, opts))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_smoke() {
        let src = r#"
            const ANSWER = 42;
            struct point { int x; int y; };
            program DEMO {
                version DEMO_V1 {
                    point MOVE(point) = 1;
                } = 1;
            } = 0x2000_0001;
        "#;
        // The grammar does not allow underscores in numbers; expect an error.
        assert!(compile(src, &Options::default()).is_err());
    }

    #[test]
    fn end_to_end_valid() {
        let src = r#"
            const ANSWER = 42;
            struct point { int x; int y; };
            program DEMO {
                version DEMO_V1 {
                    point MOVE(point) = 1;
                } = 1;
            } = 536870913;
        "#;
        let out = compile(src, &Options::default()).unwrap();
        assert!(out.contains("pub const ANSWER: i64 = 42;"));
        assert!(out.contains("pub struct Point"));
        assert!(out.contains("pub struct DemoV1Client"));
        assert!(out.contains("pub trait DemoV1Service"));
    }
}
