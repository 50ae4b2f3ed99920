//! Regression: the zero-copy RPC data path performs exactly one
//! payload-sized stack-internal copy per transferred HtoD byte (transport
//! send buffering: the server lands the payload in device memory as it
//! arrives) and one per DtoH byte (the client's record reassembly), plus
//! O(100) header bytes per call. The counts are the measuring client's and
//! its transport's own, so other traffic in the process cannot move them.

#[test]
fn h2d_copies_per_byte_is_at_most_one() {
    let r = cricket_bench::fig7_copies_per_byte(8 << 20);
    // > 1.0 guards against the metric silently under-counting (e.g. a
    // counting site being dropped); < 1.01 is the zero-copy bound with
    // header slack (2 while the server reassembled the record first).
    assert!(
        (1.0..1.01).contains(&r.h2d_copies_per_byte),
        "h2d copies/byte = {} (seed was >= 4)",
        r.h2d_copies_per_byte
    );
    // The reply is read where the guest stack reassembled it: no restage.
    assert!(
        (1.0..1.01).contains(&r.d2h_copies_per_byte),
        "d2h copies/byte = {} (was 2 with the transport's `incoming` stage)",
        r.d2h_copies_per_byte
    );
}
