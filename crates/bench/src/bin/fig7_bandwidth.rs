//! Regenerate paper **Figure 7**: "Memory transfer bandwidth based on 10
//! averaged runs of bandwidthTest ... with 512 MiB of memory" — (a)
//! device-to-host, (b) host-to-device — plus the extra rows for the
//! ablation configurations, the copies-per-byte figure of merit for the
//! zero-copy RPC data path, the wire-efficiency extensions (N-lane
//! striped transfers, sparse payload encoding), and a `BENCH_fig7.json`
//! snapshot.
//!
//! ```text
//! cargo run --release -p cricket-bench --bin fig7_bandwidth              # 512 MiB
//! cargo run --release -p cricket-bench --bin fig7_bandwidth -- --mib 64
//! cargo run --release -p cricket-bench --bin fig7_bandwidth -- --smoke   # CI: 64 MiB, asserts, no JSON
//! ```

use cricket_bench::{fig7_bandwidth, fig7_copies_per_byte, fig7_sparse_wire, fig7_striped, Series};

/// Copies-per-byte measured on the seed revision (pre zero-copy data path):
/// arg encode into scratch, per-fragment record assembly, reply `Vec`
/// allocation + zero-fill, and the reply-tail `to_vec`.
const SEED_H2D_COPIES_PER_BYTE: f64 = 4.0;

/// Stripe-pool width for the striped rows.
const STRIPE_LANES: usize = 4;

/// Zero-page densities for the sparse-encode section.
const SPARSE_PCTS: [usize; 4] = [0, 50, 90, 100];

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mib = parse_mib().unwrap_or(if smoke { 64 } else { 512 });
    let bytes = mib << 20;
    println!("Figure 7 — bandwidthTest with {mib} MiB transfers\n");
    let d2h = fig7_bandwidth(false, bytes, true);
    print!("{}", d2h.render());
    println!();
    let h2d = fig7_bandwidth(true, bytes, true);
    print!("{}", h2d.render());

    let native = h2d.get("Rust").unwrap();
    println!(
        "\n  → H2D retention vs native: Linux VM {:.0} % (paper ≥80 %), \
         Hermit {:.1} % (paper ≈9.8 % in one direction), Unikraft {:.1} %",
        h2d.get("Linux VM").unwrap() / native * 100.0,
        h2d.get("Hermit").unwrap() / native * 100.0,
        h2d.get("Unikraft").unwrap() / native * 100.0,
    );
    println!(
        "  → Linux VM without offloads: {:.1} MiB/s H2D (paper ≈923.9 MiB/s)",
        h2d.get("Linux VM (no offloads)").unwrap()
    );
    if smoke {
        // The figure's shape: what the paper's Fig. 7b shows at any size.
        let vm = h2d.get("Linux VM").unwrap();
        let hermit = h2d.get("Hermit").unwrap();
        let unikraft = h2d.get("Unikraft").unwrap();
        let vm_noofl = h2d.get("Linux VM (no offloads)").unwrap();
        assert!(vm / native > 0.7, "vm retains ≥~80%: {}", vm / native);
        assert!(
            (0.05..0.25).contains(&(hermit / native)),
            "hermit/native = {}",
            hermit / native
        );
        assert!(unikraft < hermit);
        assert!(vm_noofl < vm / 3.0, "offloads matter: {vm_noofl} vs {vm}");
    }

    // Copy accounting: measured on a fresh single transfer, small enough to
    // keep the run cheap but large enough to amortize header bytes.
    let copies = fig7_copies_per_byte(bytes.min(32 << 20));
    println!(
        "  → RPC-stack copies per transferred byte: H2D {:.2} (seed ≥{:.0}), D2H {:.2}",
        copies.h2d_copies_per_byte, SEED_H2D_COPIES_PER_BYTE, copies.d2h_copies_per_byte,
    );
    // One buffering copy per hop that has one: H2D the socket write (the
    // server lands the payload in device memory as it arrives), D2H the
    // client's record reassembly. At the JSON's four decimals the few header
    // bytes round away, a restage does not.
    let at_4dp = |x: f64| (x * 1e4).round() / 1e4;
    assert!(
        at_4dp(copies.h2d_copies_per_byte) <= 1.0 && at_4dp(copies.d2h_copies_per_byte) <= 1.0,
        "a staging copy crept back into the RPC stack: {copies:?}"
    );

    // Wire efficiency round 2: multi-connection striping. Measured on the
    // wire-bound Hermit configuration at the full transfer size.
    let striped = fig7_striped(bytes, STRIPE_LANES);
    println!(
        "  → {}-lane striping (Hermit, {mib} MiB): H2D {:.1} → {:.1} MiB/s ({:.2}x), \
         D2H {:.1} → {:.1} MiB/s ({:.2}x)",
        striped.lanes,
        striped.h2d_single_mib_s,
        striped.h2d_striped_mib_s,
        striped.h2d_speedup(),
        striped.d2h_single_mib_s,
        striped.d2h_striped_mib_s,
        striped.d2h_speedup(),
    );
    if bytes >= 64 << 20 {
        assert!(
            striped.h2d_speedup() >= 1.5 && striped.d2h_speedup() >= 1.5,
            "striping must beat a single connection ≥1.5x at ≥64 MiB: \
             h2d {:.2}x, d2h {:.2}x",
            striped.h2d_speedup(),
            striped.d2h_speedup(),
        );
    }

    // Sparse payload encoding: wire bytes by zero-page density. A smaller
    // transfer keeps the section cheap — the ratio is size-independent.
    let sparse = fig7_sparse_wire(bytes.min(32 << 20), &SPARSE_PCTS);
    for p in &sparse {
        println!(
            "  → sparse encode at {:>3} % zero pages: {} raw → {} wire bytes \
             ({:.2}x, {} pages elided)",
            p.zero_pct,
            p.raw_bytes,
            p.wire_bytes,
            p.raw_bytes as f64 / p.wire_bytes.max(1) as f64,
            p.pages_elided,
        );
    }
    let dense = sparse.iter().find(|p| p.zero_pct == 0).unwrap();
    let p90 = sparse.iter().find(|p| p.zero_pct == 90).unwrap();
    assert!(
        dense.wire_bytes as f64 <= dense.raw_bytes as f64 * 1.05,
        "fully-dense payloads must stay within 5% of raw: {dense:?}"
    );
    assert!(
        p90.wire_bytes * 5 <= p90.raw_bytes,
        "90%-zero payloads must cut wire bytes ≥5x: {p90:?}"
    );

    // The striping and sparse sections summed, from the instances that
    // did the copying (the pool's stripe count, each client's `ApiStats`).
    let (raw, wire, elided) = sparse.iter().fold((0, 0, 0), |(r, w, e), p| {
        (r + p.raw_bytes, w + p.wire_bytes, e + p.pages_elided)
    });
    println!(
        "  → wire totals: {} stripes sent; sparse sweep {raw} raw → {wire} wire bytes \
         ({:.3}x), {elided} pages elided",
        striped.stripes_sent,
        raw as f64 / wire.max(1) as f64,
    );

    if smoke {
        println!(
            "  → smoke OK (Fig. 7b shape; copies/byte H2D ≤1, D2H ≤1; striping ≥1.5x; \
             sparse ≥5x at 90% zeros, dense ≤1.05x)"
        );
        return;
    }

    let json = render_json(mib, &d2h, &h2d, copies, &striped, &sparse);
    let path = "BENCH_fig7.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("  → wrote {path}"),
        Err(e) => eprintln!("  ! could not write {path}: {e}"),
    }
}

/// Hand-rolled JSON (no serde in the offline build): bandwidth series plus
/// the before/after copies-per-byte trajectory, the striped-transfer rows,
/// and the sparse-encode section.
fn render_json(
    mib: usize,
    d2h: &Series,
    h2d: &Series,
    copies: cricket_bench::CopyReport,
    striped: &cricket_bench::StripeReport,
    sparse: &[cricket_bench::SparsePoint],
) -> String {
    let series = |s: &Series| -> String {
        let points: Vec<String> = s
            .points
            .iter()
            .map(|p| format!("{{\"config\": {:?}, \"mib_s\": {:.3}}}", p.config, p.value))
            .collect();
        format!("[{}]", points.join(", "))
    };
    let sparse_rows: Vec<String> = sparse
        .iter()
        .map(|p| {
            format!(
                "{{\"zero_pct\": {}, \"raw_bytes\": {}, \"wire_bytes\": {}, \
                 \"pages_elided\": {}}}",
                p.zero_pct, p.raw_bytes, p.wire_bytes, p.pages_elided
            )
        })
        .collect();
    format!(
        "{{\n  \"transfer_mib\": {mib},\n  \"d2h\": {},\n  \"h2d\": {},\n  \
         \"copies_per_byte\": {{\n    \"seed_h2d\": {SEED_H2D_COPIES_PER_BYTE:.1},\n    \
         \"h2d\": {:.4},\n    \"d2h\": {:.4}\n  }},\n  \
         \"striped\": {{\n    \"lanes\": {},\n    \"config\": \"Hermit\",\n    \
         \"h2d_single_mib_s\": {:.3},\n    \"h2d_striped_mib_s\": {:.3},\n    \
         \"h2d_speedup\": {:.3},\n    \"d2h_single_mib_s\": {:.3},\n    \
         \"d2h_striped_mib_s\": {:.3},\n    \"d2h_speedup\": {:.3}\n  }},\n  \
         \"sparse_encode\": [{}]\n}}\n",
        series(d2h),
        series(h2d),
        copies.h2d_copies_per_byte,
        copies.d2h_copies_per_byte,
        striped.lanes,
        striped.h2d_single_mib_s,
        striped.h2d_striped_mib_s,
        striped.h2d_speedup(),
        striped.d2h_single_mib_s,
        striped.d2h_striped_mib_s,
        striped.d2h_speedup(),
        sparse_rows.join(", "),
    )
}

fn parse_mib() -> Option<usize> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--mib" {
            return args.next()?.parse().ok();
        }
    }
    None
}
