//! Golden tests: the rpcl compiler against the real `cricket.x` interface
//! specification that drives the whole reproduction, plus structural
//! properties of generated code for random specifications.

use proptest::prelude::*;
use rpcl::{compile, parse, Options};

const CRICKET_X: &str = include_str!("../../cricket-proto/proto/cricket.x");

#[test]
fn cricket_spec_parses() {
    let spec = parse(CRICKET_X).expect("cricket.x must parse");
    // 1 const, 1 enum, 1 typedef + 8 structs/unions + 1 program.
    assert!(spec.definitions.len() >= 11);
}

#[test]
fn cricket_codegen_contains_every_expected_item() {
    let code = compile(CRICKET_X, &Options::default()).unwrap();
    for item in [
        "pub const CRICKET_CUDA: u32 = 537395001;",
        "pub const CRICKET_V1: u32 = 1;",
        "pub mod cricket_v1 {",
        "pub const CUDA_LAUNCH_KERNEL: u32 = 23;",
        "pub struct RpcDim3",
        "pub enum U64Result",
        "pub enum CudaError",
        "pub type MemData = Vec<u8>;",
        "pub struct CricketV1Client",
        "pub trait CricketV1Service",
        "pub struct CricketV1Dispatch<S>(pub S);",
        "fn cuda_memcpy_htod(&mut self, arg0: &u64, arg1: &[u8])",
        "fn cusolver_dn_dgetrs(&self,",
    ] {
        assert!(code.contains(item), "generated code is missing `{item}`");
    }
}

#[test]
fn cricket_codegen_is_deterministic() {
    let compile = || compile(CRICKET_X, &Options::default()).unwrap();
    assert_eq!(compile(), compile());
}

#[test]
fn client_only_output_has_no_server_items() {
    let code = compile(
        CRICKET_X,
        &Options {
            server: false,
            ..Options::default()
        },
    )
    .unwrap();
    assert!(code.contains("CricketV1Client"));
    assert!(!code.contains("CricketV1Service"));
    assert!(!code.contains("Dispatch"));
}

proptest! {
    /// Random well-formed specs must parse and generate; the generated code
    /// must be balanced and contain one client struct per version.
    #[test]
    fn random_specs_generate_balanced_code(
        n_consts in 0usize..4,
        n_procs in 1usize..8,
        prog_num in 1i64..1_000_000,
    ) {
        let mut src = String::new();
        for i in 0..n_consts {
            src.push_str(&format!("const CONST_{i} = {i};\n"));
        }
        src.push_str("struct arg_s { int a; opaque blob<>; };\n");
        src.push_str("program P {\n  version PV {\n");
        for p in 0..n_procs {
            src.push_str(&format!("    arg_s PROC_{p}(arg_s, int) = {p};\n"));
        }
        src.push_str(&format!("  }} = 1;\n}} = {prog_num};\n"));

        let code = compile(&src, &Options::default()).unwrap();
        let opens = code.matches('{').count();
        let closes = code.matches('}').count();
        prop_assert_eq!(opens, closes, "unbalanced braces");
        prop_assert!(code.contains("pub struct PvClient"));
        for p in 0..n_procs {
            let needle = format!("pub const PROC_{p}: u32 = {p};");
            let found = code.contains(&needle);
            prop_assert!(found, "missing {}", needle);
        }
    }

    /// The lexer/parser must never panic on arbitrary input.
    #[test]
    fn parser_never_panics(src in "\\PC{0,400}") {
        let _ = parse(&src);
    }

    /// Arbitrary byte soup (valid UTF-8) through compile: error or success,
    /// no panic.
    #[test]
    fn compile_never_panics(src in proptest::string::string_regex("[a-z{}();=<>,*0-9 \\n]{0,300}").unwrap()) {
        let _ = compile(&src, &Options::default());
    }
}
