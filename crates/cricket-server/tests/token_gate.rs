//! The migration drain is a quiesce point: once `evict_token` has returned,
//! no call of that token is admitted until `readmit_token`. The gate decides
//! admission and counts the call in flight under the lock eviction drains
//! under, so no call can pass the eviction check and then be counted only
//! after the drain saw zero calls in flight.

use cricket_server::CricketServer;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

const TOKEN: u64 = 0x7A7E;
const ROUNDS: usize = 20_000;
const GATE_THREADS: usize = 3;

#[test]
fn no_call_is_admitted_between_eviction_and_readmission() {
    let server = CricketServer::a100();
    let drained = Arc::new(AtomicBool::new(false));
    let done = Arc::new(AtomicBool::new(false));
    let late = Arc::new(AtomicU64::new(0));
    let gates: Vec<_> = (0..GATE_THREADS)
        .map(|_| {
            let (server, drained) = (Arc::clone(&server), Arc::clone(&drained));
            let (done, late) = (Arc::clone(&done), Arc::clone(&late));
            std::thread::spawn(move || {
                while !done.load(Ordering::SeqCst) {
                    if server.observe_token(TOKEN, 1) {
                        if drained.load(Ordering::SeqCst) {
                            late.fetch_add(1, Ordering::SeqCst);
                        }
                        server.call_complete(TOKEN);
                    } else {
                        // Refused: a real client reconnects, which takes time.
                        std::thread::yield_now();
                    }
                }
            })
        })
        .collect();
    for _ in 0..ROUNDS {
        server.evict_token(TOKEN);
        // Drained: hold the state a moment, so a call the gate admitted
        // late has the time to see it.
        drained.store(true, Ordering::SeqCst);
        std::thread::yield_now();
        drained.store(false, Ordering::SeqCst);
        server.readmit_token(TOKEN);
    }
    done.store(true, Ordering::SeqCst);
    for gate in gates {
        gate.join().unwrap();
    }
    assert_eq!(
        late.load(Ordering::SeqCst),
        0,
        "calls admitted after evict_token returned"
    );
}
