//! `rpclgen` — command-line RPCL→Rust compiler (the reproduction's `rpcgen`).
//!
//! Usage:
//! ```text
//! rpclgen [--client-only | --server-only] [--xdr-path P] [--oncrpc-path P] \
//!         [-o OUTPUT.rs] INPUT.x
//! ```

use rpcl::{compile, Options};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut opts = Options::default();
    let mut input: Option<String> = None;
    let mut output: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--client-only" => opts.server = false,
            "--server-only" => opts.client = false,
            "--xdr-path" => match args.next() {
                Some(p) => opts.xdr_path = p,
                None => return usage("--xdr-path requires a value"),
            },
            "--oncrpc-path" => match args.next() {
                Some(p) => opts.oncrpc_path = p,
                None => return usage("--oncrpc-path requires a value"),
            },
            "-o" => match args.next() {
                Some(p) => output = Some(p),
                None => return usage("-o requires a value"),
            },
            "-h" | "--help" => return usage(""),
            other if other.starts_with('-') => return usage(&format!("unknown flag {other}")),
            other => {
                if input.replace(other.to_string()).is_some() {
                    return usage("multiple input files given");
                }
            }
        }
    }

    let Some(input) = input else {
        return usage("no input file");
    };
    let source = match std::fs::read_to_string(&input) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("rpclgen: cannot read {input}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let code = match compile(&source, &opts) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("rpclgen: {input}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match output {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, code) {
                eprintln!("rpclgen: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        None => print!("{code}"),
    }
    ExitCode::SUCCESS
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("rpclgen: {err}");
    }
    eprintln!(
        "usage: rpclgen [--client-only | --server-only] [--xdr-path P] \
         [--oncrpc-path P] [-o OUTPUT.rs] INPUT.x"
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
