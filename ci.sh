#!/usr/bin/env sh
# Local mirror of .github/workflows/ci.yml — run before pushing.
# Everything is offline: dependencies are vendored under shims/.
set -eu

export CARGO_NET_OFFLINE=true

# The size figures CHANGES.md quotes, counting only lines before the first
# #[cfg(test)] of each source file. Over the five core crates: total lines
# (and those of the three largest files on their own), `pub` items, and —
# failing the step — three kinds of hand-written code that
# must not come back. A hand-written `impl ... Dispatch for`: every RPC
# program's dispatch is generated from its `.x` file, and the one impl left
# is the closure blanket in `oncrpc/src/server.rs`. Process-global mutable
# state: an allocator is process-wide by construction, so
# `telemetry::ALLOCATIONS` is the one `static` allowed; everything else the
# stack counts or remembers is a field of the instance that does it. Record-
# mark arithmetic in `oncrpc` or `cricket-server` (`LAST_FRAGMENT`, a
# `0x8000_0000` / `0x7fff_ffff` literal) outside `oncrpc/src/record.rs`:
# `RecordMarks` is the one parser and `record::mark` the one encoder. A host
# cost written in `cricket-server/src` (a `host_ns`, a numeric literal handed
# to a prologue helper or to the clock, a literal on an argument line of its
# own) or a hand-written `MAGIC` / `VERSION` / `DISPATCH_NS` / `BATCH_OP_NS`
# constant there: a procedure's `cost(ns)` and a type's tags are declared in
# `cricket.x`, and the prologue takes a procedure number. Then
# workspace-wide — every crate and shim, their build scripts and the `.x`
# specs — so code moved out of the five crates still shows. Last, the
# readiness shim on its own, failing above the 227 lines its epoll poller
# with a write arm took: there is one mechanism (CI builds Linux only), and
# a scan fallback or second poller would show here. Likewise the simulated
# guest data path, `cricket-server/src/transport.rs` and
# `unikernel/src/tcp.rs`, failing above the lines its streaming socket
# buffers took: a second staging path beside them would show here. And
# `oncrpc/src/reactor.rs`, failing above the lines it took once the
# reactor flushed its own backlogs: a writer thread or a second event loop
# beside it would show here. And `core/src/raw.rs`, failing above the
# lines it took once every method that only forwards a call came from the
# `api` attributes of `cricket.x` (`cricket_v1_api!`): a hand-written
# wrapper, a second copy procedure or a lane encoder beside it would show
# here. A direct call of a generated stub method (`stub.cuda_*` / `cu_*` /
# `cublas_*` / `cusolver_*` / `cufft_*` / `ckpt_*` / `srv_*` / `cricket_*`
# / `rpc_null`) in `core/src` fails the step outside the code that decides
# something about it: the copy routes (`read_dtoh`, `send_batch`, `issue`'s
# send, `stripe.rs`) and `module_load`, whose image counts as an H2D copy.
# And
# `cricket-server/src/service.rs` and its four siblings (`server.rs`,
# `state.rs`, `prologue.rs`, `batch.rs`), each at the lines it took once
# `service.rs` split by concern, all under 700: a second body for a
# procedure, or the split growing back into one file, would show here.
# `state.rs`'s limit rose from 636 to 675 when one bound on the module images
# a session retains (DESIGN §16) came to every way a module enters a session:
# a load, a checkpoint restore, a migration blob and a migration's claim.
# It rose from 675 to 688 when staged inbound migrations got their bound
# (DESIGN §16): the constant, one count and insert under the token table's
# lock, and the blank line before the file's first test module. It rose
# from 688 to 701 when a delta stopped overwriting a base or a `MIG_ABORT`
# that landed while it applied (DESIGN §16): the check of the record its
# take left, the refusal, and the reclaim of the staging that loses. It
# fell to 690, and `batch.rs`'s to 275, when a session came to know its one
# client token and a reset to reclaim only the caller's share (no walk of
# the token table or of every session's records) and a batchable op's
# stream came with its device from one routing function.
# And `vgpu/src/kernels.rs` and
# `vgpu/src/device.rs`, failing above the lines they took once a launch
# stopped allocating: a second launch path or kernel body beside them would
# show here. And `oncrpc/src/record.rs` and `oncrpc/src/client.rs`, failing
# above the lines they took once a D2H reply's data landed in the caller's
# buffer: a second record reader or receive path beside `IncomingRecord` and
# `receive_reply` would show here. And the connection engine,
# `oncrpc/src/conn.rs`, with `reactor.rs` and `cricket-server/src/transport.rs`
# at the lines they took once the engine handed each call on as the record
# buffer it was assembled in (no call parked in place, one shared `Link` per
# reactor connection), and `record.rs` at those it took once both drivers
# wrote replies through one vectored `OutgoingRecord::write_to`: a second
# record parser, reply queue, framer or parking path beside them would show
# here. `reactor.rs`'s limit rose from 703 to 722 when each worker shard's
# `mpsc` channel became a queue that keeps its capacity (the worker takes it
# whole), so a parked call reaches its worker without allocating: std's
# channel cost no lines, the queue and its close protocol about 20. It rose
# from 722 to 772 when the reactor counted its own work per call (five
# relaxed counters in its stats and snapshot, the counted read half the
# engine reads through, one counted notify). A ring,
# a second queue or a second stall cause beside it would show here. It fell
# from 772 to 720, and `oncrpc/src/replay.rs` got a limit at 126, when the
# reactor's and the replay cache's counters each became one `Metrics` set
# (their snapshot types gone): a second counter path beside `Metrics`
# would show here. So would a new `struct ...Stats` / `...Snapshot` in the
# five crates, which fails the step; the four left (`ClientStats`,
# `BatchStats`, `ApiStats`, the test-only `TransportStats`) never leave
# their process. And `rpcl/src/codegen.rs`, failing above the lines it
# had when it got a limit: the one RPCL compiler. Its limit rose from 1 407
# to 1 514 by the lines its `api` emitter took: the typed client API macro,
# `into_result` for every result union and the `status` conversion. The
# engine is sans-IO: a clock
# (`Instant`, `SystemTime`), a socket (`std::net`, `TcpStream`), a thread
# (`std::thread`) or the poller (`Poller`) in its non-test code fails the
# step, since time and I/O enter it only as arguments its drivers pass.
# And `simnet/src/checksum.rs`, failing above the lines it took once the
# Internet checksum added native-endian words with deferred carries: there
# is one portable sum, and a per-ISA fork, a lookup table or a second
# routine would show here.
# And `oncrpc/src/server.rs`, failing above the lines it took once
# `RpcServer` got its program table, replay cache, token gate and
# admission hook before it is shared: a lock or a setter on a shared
# server beside them would show here.
# `raw.rs` fell from 499 to 493, `kernels.rs` from 586 to 565, `device.rs`
# from 825 to 815 and `client.rs` from 647 to 633 when every `pub` item
# with no user outside its crate was demoted and the code rustc's
# `dead_code` lint then named was deleted (or, where a test uses it as a
# reference, moved into that test module); each limit is its landed count.
# `client.rs` fell from 633 to 623 and `oncrpc/src/server.rs` from 366 to
# 354 when their `pub` wrappers that only tests called
# (`RpcClient::call_raw_sg`, `RpcServer::handle_record`) were deleted; each
# limit is its landed count.
# The fault injector (`FaultyTransport`, `FaultPlan`, `SharedFaultPlan`,
# `ChaosRng`) is test support and lives in `tests/harness/chaos.rs`: the
# non-test, non-bin `src/` of a library crate (every crate and shim) that
# names one of them fails the step, since every build of that crate would
# compile it.
# Last, per library crate, the `pub` names that no code outside the
# crate's own non-bin `src/` names (other crates, binaries, build scripts,
# tests, examples and the benchmark package count; comment lines do not),
# by the same grep approximation: a `pub` item with no outside user would
# show here, so the step fails above the landed count. The names counted
# are types that appear in a public signature (a report a public `run`
# returns, two of the AST types rpcl's `parse` returns); CHANGES.md lists
# them.
# rpcl's limit fell from 14 to 2 when the hostile peer
# (`tests/harness/adversary.rs`) walked its AST: the names left are `Api`
# and `ConstDef`, which the walker has no use for. `kernels.rs` fell from
# 565 to 556 when its checked product moved to `vgpu/src/error.rs` as
# `span`, the one helper every peer-sized byte span goes through.
# `oncrpc/src/conn.rs`'s limit rose from 377 to 463, `oncrpc/src/server.rs`'s
# from 354 to 526, `reactor.rs`'s from 720 to 743,
# `cricket-server/src/transport.rs`'s from 359 to 375 and `batch.rs`'s from 275
# to 307 when a `CUDA_MEMCPY_HTOD` payload came to land in device memory as
# it arrives (DESIGN §6): the engine's head parse, hold and window
# (`conn.rs`); the prologue split between a window's opening and its call's
# end, the `Lander` interface and the `Window` (`server.rs`); each driver
# handing a landed call on with its window (`reactor.rs`, which also fails
# a call whose body panics, and `transport.rs`); the one plain H2D body and
# its per-piece landing under the device lock (`batch.rs`). A second
# buffered H2D path beside the window would show here. Each fell to its
# landed count (`conn.rs` 462, `oncrpc/src/server.rs` 516; the other three
# kept theirs), and `codegen.rs`'s to 1 512 and `service.rs`'s to 664, when
# the landing came to be declared in `cricket.x` (`lands`): rpcl derives the
# head length and emits the landing beside `dispatch`, the hand-registered
# `Lander`, its registry and the prologue's second pass at record end went,
# and the emitter's lines were paid back inside rpcl. A landing registered or
# sized by hand in `cricket-server/src` fails the step: a `set_lander(` call,
# an `impl ... Lander for`, a hand `fn lands(`, a `..._HEAD` constant or a
# numeric literal handed to a `land...(` call.
# `./ci.sh size` runs this step alone (the workflow does).
size() {
    echo "==> size: non-test lines, pub items, generated dispatch, no process-global state in xdr + oncrpc + rpcl + cricket-server + core; pub names with no outside user per library crate"
    find crates/xdr/src crates/oncrpc/src crates/rpcl/src crates/cricket-server/src crates/core/src \
        -name '*.rs' | sort | xargs awk '
            FNR == 1 { in_tests = 0 }
            /#\[cfg\(test\)\]/ { in_tests = 1 }
            in_tests { next }
            { total++; file[FILENAME]++ }
            /^[[:space:]]*\/\// { next }
            /^[[:space:]]*pub (unsafe |const |async )*(fn|struct|enum|union|trait|type|const|static|mod|use) / { pubs++ }
            /^[[:space:]]*impl.* Dispatch for / {
                if (FILENAME ~ /oncrpc\/src\/server\.rs$/ && /^impl<F> Dispatch for F$/) next
                printf "hand-written Dispatch impl: %s:%d: %s\n", FILENAME, FNR, $0; refused++
            }
            /thread_local!/ || /^[[:space:]]*(pub(\([a-z]+\))? )?static (mut |.*(Atomic|Mutex|RwLock|Cell|Lock))/ {
                if (FILENAME ~ /oncrpc\/src\/telemetry\.rs$/ && /^static ALLOCATIONS: AtomicU64/) next
                printf "process-global state: %s:%d: %s\n", FILENAME, FNR, $0; refused++
            }
            (/LAST_FRAGMENT/ || /0x(8000_0000|7fff_ffff)([^_0-9a-fA-F]|$)/) &&
                FILENAME ~ /crates\/(oncrpc|cricket-server)\/src\// && FILENAME !~ /oncrpc\/src\/record\.rs$/ {
                printf "record-mark arithmetic outside oncrpc/src/record.rs: %s:%d: %s\n", FILENAME, FNR, $0; refused++
            }
            FILENAME ~ /crates\/cricket-server\/src\// &&
                (/(^|[^a-z_])host_ns([^a-z_]|$)/ || /advance\([0-9]/ || /^[[:space:]]*[0-9][0-9_]*,[[:space:]]*$/ ||
                 /(enter|host_call|enqueue_at|enqueue_leg|wait_at|wait_turn|wait_here|wait_for|immediate|lib_create|lib_destroy)\(([a-z_.]+, )?([a-z_.]+, )?[0-9]/) {
                printf "numeric host cost outside cricket.x: %s:%d: %s\n", FILENAME, FNR, $0; refused++
            }
            FILENAME ~ /oncrpc\/src\/conn\.rs$/ && /Instant|SystemTime|std::net|TcpStream|std::thread|Poller/ {
                printf "clock, socket, thread or poller in the sans-IO engine: %s:%d: %s\n", FILENAME, FNR, $0; refused++
            }
            /^[[:space:]]*(pub(\([a-z]+\))? )?struct [A-Za-z0-9_]*(Stats|Snapshot)([^A-Za-z0-9_]|$)/ &&
                !/struct (ClientStats|BatchStats|ApiStats|TransportStats)([^A-Za-z0-9_]|$)/ {
                printf "a counter set beside Metrics: %s:%d: %s\n", FILENAME, FNR, $0; refused++
            }
            FNR == 1 { in_fn = "" }
            match($0, /fn [a-z_0-9]+/) { in_fn = substr($0, RSTART + 3, RLENGTH - 3) }
            FILENAME ~ /crates\/core\/src\// && FILENAME !~ /stripe\.rs$/ &&
                /stub\.((cuda|cu|cublas|cusolver|cufft|ckpt|srv|cricket)_[a-z0-9_]*|rpc_null)\(/ &&
                in_fn !~ /^(read_dtoh|send_batch|issue|module_load)$/ {
                printf "generated-stub call outside the copy routes (declare api in cricket.x): %s:%d: %s\n", FILENAME, FNR, $0; refused++
            }
            FILENAME ~ /crates\/cricket-server\/src\// && /const [A-Z_]*(MAGIC|VERSION|DISPATCH_NS|BATCH_OP_NS)[A-Z_]*:/ {
                printf "hand-written format tag or dispatch cost (declare it in cricket.x): %s:%d: %s\n", FILENAME, FNR, $0; refused++
            }
            FILENAME ~ /crates\/cricket-server\/src\// &&
                (/set_lander\(/ || /impl.*Lander for / || /fn lands\(/ || /const [A-Z_]*HEAD[A-Z_]*:/ ||
                 /land[a-z_]*\(.*[ (,][0-9]+[,)]/) {
                printf "landing registered or sized by hand (declare lands in cricket.x): %s:%d: %s\n", FILENAME, FNR, $0; refused++
            }
            END {
                raw = "crates/core/src/raw.rs"; svc = "crates/cricket-server/src/service.rs"
                sched = "crates/cricket-server/src/scheduler.rs"
                printf "five-crate non-test lines: %d (%s: %d, %s: %d, %s: %d), pub items: %d\n",
                    total, raw, file[raw], svc, file[svc], sched, file[sched], pubs
                exit refused > 0
            }'
    { find crates shims -path '*/src/*' -name '*.rs'; find crates shims -name build.rs -o -name '*.x'; } |
        grep -v /target/ | sort | xargs awk '
            FNR == 1 { in_tests = 0 }
            /#\[cfg\(test\)\]/ { in_tests = 1 }
            !in_tests { total++ }
            END { printf "workspace non-test lines (crates, shims, build.rs, .x): %d\n", total }'
    find crates shims -path '*/src/*' -name '*.rs' -not -path '*/src/bin/*' -not -path '*/target/*' |
        sort | xargs awk '
            FNR == 1 { in_tests = 0 }
            /#\[cfg\(test\)\]/ { in_tests = 1 }
            !in_tests && /(^|[^A-Za-z0-9_])(FaultyTransport|FaultPlan|SharedFaultPlan|ChaosRng)([^A-Za-z0-9_]|$)/ {
                printf "fault injection in a shipped crate (it belongs in tests/harness/chaos.rs): %s:%d: %s\n", FILENAME, FNR, $0; refused++
            }
            END { exit refused > 0 }'
    awk '/#\[cfg\(test\)\]/ { exit } { n++ }
        END { printf "shims/polling/src/lib.rs non-test lines: %d (limit 227)\n", n; exit n > 227 }' \
        shims/polling/src/lib.rs
    for limit in crates/cricket-server/src/transport.rs:375 crates/unikernel/src/tcp.rs:261 \
        crates/oncrpc/src/reactor.rs:743 crates/oncrpc/src/replay.rs:126 \
        crates/oncrpc/src/conn.rs:462 crates/core/src/raw.rs:493 crates/rpcl/src/codegen.rs:1512 \
        crates/cricket-server/src/service.rs:664 crates/cricket-server/src/server.rs:550 \
        crates/cricket-server/src/state.rs:690 crates/cricket-server/src/prologue.rs:342 \
        crates/cricket-server/src/batch.rs:307 crates/vgpu/src/kernels.rs:556 \
        crates/vgpu/src/device.rs:815 crates/oncrpc/src/record.rs:577 \
        crates/oncrpc/src/client.rs:623 crates/simnet/src/checksum.rs:52 \
        crates/oncrpc/src/server.rs:516; do
        awk -v limit="${limit##*:}" '/#\[cfg\(test\)\]/ { exit } { n++ }
            END { printf "%s non-test lines: %d (limit %d)\n", FILENAME, n, limit; exit n > limit }' \
            "${limit%:*}"
    done
    for limit in xdr:0 oncrpc:3 rpcl:2 cricket-server:2 core:2 cricket-proto:0 vgpu:5 simnet:3 \
        unikernel:2 fleet:0 proxy-apps:4; do
        find . -name '*.rs' -not -path '*/target/*' -not -path './.bench_build/*' | sort |
            xargs awk -v crate="${limit%:*}" -v limit="${limit##*:}" '
            FNR == 1 {
                own = "./crates/" crate "/src/"
                mine = index(FILENAME, own) == 1 && index(FILENAME, own "bin/") != 1
                in_tests = 0
            }
            mine && /#\[cfg\(test\)\]/ { in_tests = 1 }
            in_tests || /^[[:space:]]*\/\// { next }
            !mine { n = split($0, word, /[^A-Za-z0-9_]+/); for (i = 1; i <= n; i++) used[word[i]]; next }
            /^[[:space:]]*pub (unsafe |const |async )*(fn|struct|enum|union|trait|type|const|static|mod|use) / { pubs++ }
            match($0, /^[[:space:]]*pub (unsafe |const |async )*(fn|struct|enum|union|trait|type|const|static|mod) +[A-Za-z0-9_]+/) {
                name = substr($0, RSTART, RLENGTH); sub(/.* /, "", name); names[name]
            }
            END {
                for (name in names) if (!(name in used)) { unused++; list = list " " name }
                printf "%s: pub items %d, pub names with no use outside the crate: %d (limit %d)%s\n",
                    crate, pubs, unused, limit, list
                exit unused > limit
            }' || unused_pub=1
    done
    [ -z "${unused_pub:-}" ]
}
if [ "${1:-}" = size ]; then
    size
    exit
fi

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (warnings are errors: no dangling intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

size

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

# The hostile peer (`tests/adversary.rs`, DESIGN §7) over every seed of
# CI_SEEDS on every driver, in release: there an overflowing size wraps
# instead of panicking, so a wrapped span shows as what it then breaks.
echo "==> adversary: the hostile peer, every seed and driver, in release"
cargo test --release --test adversary

# Every integration suite below runs as part of --workspace (and the
# root-package ones already ran in tier-1); none is re-run by name. What
# each covers, so the map is not lost:
#   tests/harness          the scenario harness, one module the suites below share: CI_SEEDS, the one
#                          hardened client, the seed-naming wrapper and four oracles (exactly-once by
#                          server.bytes_in and fresh pointers; same trace; nothing leaks at quiescence;
#                          monotonic clock), and the fault injector (harness::chaos: FaultyTransport,
#                          FaultPlan, ChaosRng). A row is workload x fault plan x feature set x driver; a
#                          failing row names its seed and oracle, replay by running the row at that seed
#                          (Scenario::run(<seed>))
#   chaos                  rows in process: six mallocs, lossy (fault_matrix_fixed_seeds, same-seed /
#                          different-seed schedules); batch reply dropped / batch request reset, batching;
#                          batch rounds, lossy, batching; shed mallocs, lossy, WFQ quota shed; contended
#                          batch: slices yield under WFQ quota shed, lossy, status vector = the fault-free
#                          run's. Beside them: reset-and-retry, corruption, deadline, TCP cleanup and reset;
#                          and the fault injector's own unit tests (fault_injector: the PRNG stream is fixed,
#                          same seed same decisions, scripted events fire at their index, max_faults caps
#                          injection, a clean plan passes records through, reset / duplicate / truncation)
#   proptest_stack         lossy_fault / any_fault: fault-plan properties over the full stack;
#                          record_flush_interleavings: batches retire in program order;
#                          streaming_deltas: dirty-delta streaming reproduces source memory
#   checkpoint_restart     capture -> restore -> capture fixed point, corrupted snapshots,
#                          connection_reset_mid_checkpoint converging to the fault-free bytes
#   session_state          (cricket-server) checkpoint = Base blobs: every handle kind + device 1 survive,
#                          restored state is owned and reclaimed, a restore colliding with a live block or handle leaves no trace
#   token_gate             (cricket-server) no call is admitted between evict_token returning and readmit_token:
#                          the gate's eviction check and in-flight count share the lock eviction drains under
#   reactor                rows on serial vs reactor TCP: six mallocs, lossy, and batch drop / reset, same
#                          fault schedule and reply bytes; churn soak (pool recycling
#                          read from its own server); two_stacks_in_one_process_count_only_their_own_traffic:
#                          two SimSetups' copies and two reactors' calls, concurrently, exact per instance;
#                          the_whole_statistics_list_crosses_the_wire: SRV_GET_STATS over SimTransport and reactor
#                          TCP carries every name, each value between the owners' reads before and after the call
#   fleet                  portmap shard directory + registration lifecycle + failover matrix on the harness seeds
#   portmap_wire           (cricket-oncrpc) all eleven portmap procedures' call/reply records equal the
#                          pre-portmap.x bytes; a full directory dumps whole, a 1 000 000-entry DUMP list on a
#                          64 KiB stack
#   migration              rows: the migration workload on a two-shard fleet, migrated at the seed's phase
#                          (client trace = the unmigrated run's, source quiescent); striped H2D + D2H across a
#                          cutover (striped_transfers_cross_a_cutover: two TCP lanes and the control connection
#                          act in the token's one session, the readback holds, the source keeps nothing);
#                          crash-abort, 100-hop soak, concurrent load
#   landing                rows on reactor TCP over CI_SEEDS, the orders a plain H2D that lands in device
#                          memory as it arrives keeps: the replay lookup first (a stale duplicate lands
#                          nothing), calls ahead first (a parked D2D reads the old bytes), a lost connection
#                          runs nothing and releases its admission at once, a refused window (not owned, past
#                          the block, shed) takes nothing and replies as ServeMode::Serial does; and a block
#                          freed mid-payload takes no more bytes (ownership re-checked under the device lock)
#   wire2                  rows in process: dense megabyte, lossy lanes, striped; sparse copy, lossy
#                          (exactly-once by bytes_in, byte-identical readback);
#                          retired_stripe_procedures_are_refused_proc_unavail: procs 81/82 answered
#                          PROC_UNAVAIL on SimTransport and reactor TCP, the session then copies normally
#                          (route by route: cricket-client raw unit suite, below)
#   proptest_sparse        (cricket-oncrpc) sparse codec round-trip properties, corrupt blobs
#   no_alloc_strict        (cricket-proto) CricketV1Client over FixedBuf: zero heap allocations, construction included;
#                          bulk_returns_land_in_the_callers_array: a D2H larger than the fixed buffer read into a
#                          caller array with zero allocations (read whole, the same reply is RecordTooLarge)
#   proptest_record        (cricket-oncrpc) record marking: scatter-gather wire = the copying writer's;
#                          strip_matches_read_record_for_any_cut_of_the_wire: RecordMarks::strip fed any cut of
#                          any record stream yields read_record's payloads and lengths, refusing an oversized
#                          record at the same mark; into_read_fills_dst_with_what_the_whole_record_decode_yields:
#                          for any fragmenting and read split, a bulk arm of dst.len() bytes lands in dst as the
#                          whole-record decode's bytes, any other length leaves dst untouched
#   zero_alloc             (cricket-oncrpc) steady-state client calls allocate nothing; so do inline calls over
#                          loopback TCP into the reactor, client and server counted together
#                          (inline_reactor_calls_are_allocation_free), and parked ones, handed to a worker
#                          shard's queue (parked_reactor_calls_are_allocation_free)
#   blob_count_bound       (cricket-server) a session blob's count reserves no more than the bytes behind it
#   sim_path_allocs        (cricket-server) steady-state calls over SimTransport allocate nothing on every guest kind
#                          (software checksum, host TSO split and fixed-receive-buffer branches included),
#                          cudaMalloc, a vectorAdd launch with arguments (a memo hit) and a 1 MiB D2H into a
#                          caller buffer included; a 1 MiB D2H into a fresh Vec allocates its result only
#   proptest_device        (cricket-vgpu) every builtin kernel's output bytes equal a naive loop's over random
#                          finite inputs and ragged geometry (hA / wB off the register tile, bytes off the
#                          block count, one block, more blocks than bytes)
#   adversary              the hostile peer (DESIGN §7) over CI_SEEDS on SimTransport, Conn and reactor TCP, and
#                          its reproducers; hostile_launch_geometry_is_refused_and_the_session_carries_on: a
#                          2^96-block histogram grid and 2^64-byte matrix sizes get a CUDA error over SimTransport,
#                          within the allocation budget, then the session launches and copies normally
#   safety                 a_session_sets_only_its_own_qos; sessions_touch_only_what_they_own_in_process / _over_tcp:
#                          session 2 is refused on every use of session 1's buffer (base or interior, launch
#                          parameters included) and handles, with the unknown code, changing nothing; its
#                          mallocs never land on session 1's memory, and session 1's release leaves its own state;
#                          connections_with_one_token_share_its_session_until_the_last_closes: two connections of
#                          one token act in one session, released with the last, another token closes a bound
#                          connection; the_resident_bytes_quota_counts_what_the_session_holds: a malloc past
#                          max_resident_bytes is shed busy, a free makes room, other sessions' bytes never count,
#                          module images do
#   proptest_model         (cricket-simnet) cost-model monotonicity; the checksum against a
#                          fold-every-word reference up to 300 000 bytes, and
#                          checksum_matches_the_reference_at_every_offset_tail_and_even_split: every start
#                          offset 0..16 and length remainder mod 16, an even split summed back to the
#                          whole; checksum_of_a_mebibyte_of_ones_matches_the_reference: 1 MiB of 0xff at
#                          every tail length, once
# Unit suites that pin this data path: cricket-proto (reply sink bytes = owned union encoding; the admin table;
#                          tagged_types_round_trip_and_refuse_a_wrong_word: ckpt / mig_blob lead with their
#                          cricket.x tags, round-trip, and a flipped word is XdrError::WrongTag naming type and word;
#                          server_stats_is_a_tagged_bounded_list: tag words, get by name, a list past
#                          CRICKET_MAX_STATS refused where it is decoded),
# cricket-rpcl codegen (sink-taking server arm; every attribute in any order, at most once;
#                          optional-data lists as Vecs with loop codecs; derives follow the members;
#                          costs_become_a_host_cost_table; tagged_structs_write_and_check_their_leading_words)
#                          and parser (cost_parses_in_any_attribute_order_and_refuses_a_bad_value: missing,
#                          non-numeric, negative and duplicate values refused; tags_name_a_struct: a tag naming
#                          no struct, an enum, typedef, union or list node, or past 32 bits is an rpcl error),
# cricket-server transport (records sharing a flush; split_writes_carry_the_same_segments: 1-7 byte writes
#                          carry the same segments, clock, counters and reply bytes; staging_is_bounded_by_one_mss_each_way:
#                          after 16 MiB each way both send buffers are one MSS, the server endpoint's own buffer unused,
#                          and the client endpoint holds at most one server MSS at every read of a 16 MiB D2H;
#                          an_oversized_record_mark_poisons_the_transport: refused as it arrives, nothing sized from it;
#                          a_call_the_server_refuses_poisons_the_transport_where_it_lands: a REPLY record fails the
#                          write that completes it, then flush, read and write alike, no round trip charged),
# cricket-oncrpc record (an_announced_length_does_not_size_the_buffer: a 512 MiB header then EOF leaves < 1 MiB;
#                          marks_*: RecordMarks over multi-fragment, byte-at-a-time, split records into a reused buffer,
#                          oversized (refused at the mark) and empty records; fill_from_hands_read_at_most_one_step:
#                          a warm 16 MiB read hands `read` no slice over 64 KiB; incoming_record_reads_a_record_piece_by_piece;
#                          outgoing_record_is_write_record_one_send_buffer_at_a_time: any send-buffer size, and wire_len),
# cricket-oncrpc client (bulk_replies_land_in_the_destination_or_are_read_whole: a data arm one byte short or long,
#                          the error arm and a stale xid read whole with dst untouched, NonZeroPadding, TrailingBytes
#                          and a record ending inside the data typed errors; a_landing_reply_may_exceed_the_fixed_reply_buffer),
# cricket-vgpu (unbacked blocks, bounded launch memo; hostile_launch_geometry_is_refused: a typed error,
#                          no allocation or overflow panic, and the memo still hits afterwards),
# cricket-server scheduler (grant order per policy, forget, config setters, WFQ, should_yield: one ranking key),
# cricket-server service (each batchable op alone = the same op as a one-op batch, statuses and memory;
#                          a sparse sub-op with a lying header moves no counter;
#                          a_blob_cannot_bind_a_default_stream_it_did_not_place, ..._wrap_a_device_handle_cursor,
#                          ..._exhaust_the_library_handle_cursor, ..._move_the_clock_past_the_horizon,
#                          ..._place_a_handle_its_cursor_has_not_passed: restore and mig_apply refuse, no trace;
#                          a_device_reset_removes_only_what_lives_on_that_device: only the caller's share of it;
#                          the_cost_table_is_the_servers_call_costs: cricket.x's cost(ns) per procedure,
#                          and none for the procedures that bypass the prologue, which charge nothing;
#                          a_peer_copy_is_one_call_alone_and_in_a_batch: a cross-device D2D counts once;
#                          migrate: the session blob and checkpoint wire equal the pre-cricket.x bytes, and a
#                          wrong magic or version word is refused naming mig_blob / ckpt and the word;
#                          resetting_stats_does_not_lift_the_session_watermark; stats_accumulate: SRV_RESET_STATS
#                          zeroes server.* and leaves server.sessions), cricket-server stats
#                          (the_statistics_are_exactly_the_named_set: the SRV_GET_STATS names in order, DESIGN §17),
# cricket-oncrpc transport (tcp_transport_writes_a_gather_list_at_once: a TcpTransport takes a 4 + 100 byte
#                          gather list in one write, 104, not the mark alone) and portmap
#                          (a_peer_fills_the_directory_only_to_its_bounds: over TCP, a new shard past MAX_SHARDS,
#                          token past MAX_HOMES or mapping past MAX_MAPPINGS is refused false, held ones still
#                          update, a cleared pin or an unset mapping frees a slot),
# cricket-oncrpc server (busy_reply_is_never_stored_in_the_replay_cache: the shed hint is a return value —
#                          two connections on one worker, one over quota) and reactor (stalls / writer_kills /
#                          queued_replies asserted on the test's own handle; pools_recycle_the_buffers_of_64_kib_calls:
#                          warm 64 KiB echo calls allocate no pool buffer; four_thousand_idle_connections_and_one_busy_one:
#                          1000 calls answered beside 4000 idle connections, at least the 500 echoes parked, none
#                          through a backlog, every on_close once; a_half_closed_peer_still_gets_its_backlog: an
#                          8 MiB echo backlog flushed whole after the peer's shutdown(Write), then EOF;
#                          shutdown_flushes_a_pending_backlog: shutdown waits on an unread backlog, the peer then
#                          reads it whole; shutdown_answers_every_parked_call_queued_on_a_shard: one worker, four
#                          connections of 16 slow parked calls, shutdown while 48 wait on the shard's queue: every
#                          reply read in xid order, four on_close, shutdown returns; the_stall_deadline_alone_kills_a_silent_peer: a 200 ms stall deadline
#                          kills once, never before it has passed since the call was sent;
#                          a_flooding_connection_does_not_hold_the_reactor: beside a 20 MiB flood of one-byte
#                          fragments an inline caller's worst call is < 1/4 of the flood (reads capped per
#                          event); write_through_never_overtakes_a_backlog: calls made between
#                          partial reads of an 8 MiB backlog reply after it, xids in order, bytes intact;
#                          reassembly_is_linear_in_the_bytes_received: 4 Mi one-byte fragments fed 64 KiB at a
#                          time take < 4x the time fed whole (about 1x; the old two-pass walk took 49x);
#                          a_parked_record_moves_to_its_job_and_unparsed_bytes_stay_within_one_read: a 16 MiB
#                          parked record's buffer is the Job's, and read-but-unparsed bytes stay <= one 64 KiB read;
#                          held_bytes_are_parsed_before_the_next_read: 4000 pipelined parked calls of mixed sizes
#                          against a two-call budget, every reply in xid order with its own bytes;
#                          a_budget_of_one_resumes_once_its_call_is_answered: 200 pipelined calls against a one-call
#                          budget stall at most once each, the sweep never resuming a full budget;
#                          a_call_is_one_read_and_one_wakeup: 1000 warm small calls of each class from a TcpTransport
#                          client raise reads by exactly 1000 and wakeups by at most 1000 + 2 %),
# polling shim (epoll: unread_data_is_reported_again, deregister_holds_while_a_dup_keeps_the_socket_open,
#                          one_written_source_among_1024_idle_is_the_only_event, notify_before_wait_is_not_lost,
#                          suspended_hangup_is_reported_at_most_once,
#                          write_interest_reports_a_writable_socket_until_cleared: reported while suspended too),
# cricket-client raw (D2H length check on the plain and the striped route, memcpy_dtoh_into; the TransferPlan
#                          table at every boundary; every route lands the same bytes and counts the same transfer;
#                          a failed copy moves no counter) and stripe (every byte covered once, reassembly by
#                          offset, round-robin lanes, per-pool stripe counts, empty transfers send nothing).
echo "==> cargo test --workspace -q"
cargo test --workspace -q

# The benchmark is a package and workspace of its own, so none of the
# --workspace steps above compile it: build and self-check it explicitly,
# or an API change in xdr/oncrpc breaks it silently.
echo "==> benchmark package: harness unit tests + quick self-check (~11 s)"
cargo test --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -q
cargo run --release --quiet --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- --quick

echo "==> bench smoke: smallop (self-asserts >=4x RPC reduction, <5% single-op regression)"
cargo run --release -p cricket-bench --bin smallop -- --launches 1024 --single-iters 128

# The virtual-time BENCH files are deterministic. The smallop run above, a
# full fleet run and the 512 MiB fig7 run (about 63 s on a 2-vCPU host)
# regenerate them at their committed arguments, and any byte that differs
# fails the step: "byte-identical" is checked, not claimed by hand.
echo "==> virtual-time BENCH files regenerate byte-identical (smallop above, full fleet, fig7 at 512 MiB)"
cargo run --release -p cricket-bench --bin fleet
cargo run --release -p cricket-bench --bin fig7_bandwidth
git diff --exit-code BENCH_smallop.json BENCH_fleet.json BENCH_fig7.json

# With the backlog thread gone the reactor's thread budget buys one more
# worker shard, and six full runs on a 2-core box read 0.92-1.17x Serial
# (median 1.07x). One smoke run still swings 0.59-1.60x, so --smoke
# alternates three pairs and gates the ratio of their medians at 0.5x: a
# tripwire for a reactor that lost half its throughput, not a parity
# claim. Since one write per record sped the serial reference up more than
# the reactor it reads 0.45-0.65x, and fails about 4 runs in 10 (ROADMAP
# item 11 takes the reactor back toward parity).
echo "==> bench smoke: connscale (reactor >=5x sessions vs serial, all progress, ratio of medians >=0.5x)"
cargo run --release -p cricket-bench --bin connscale -- --smoke

echo "==> bench smoke: fleet (sharded aggregate throughput scaling, reduced size)"
cargo run --release -p cricket-bench --bin fleet -- --smoke

echo "==> bench smoke: migrate (streamed resync <50% of naive bytes at <=25% dirty; leaves BENCH_migrate.json untouched)"
cargo run --release -p cricket-bench --bin migrate -- --smoke

echo "==> bench smoke: multitenant QoS (WFQ favoritism >=2x, weight shares within 10%, quota shedding)"
cargo run --release -p cricket-bench --bin multitenant -- --qos --smoke

echo "==> bench smoke: fig7 (Fig. 7b shape, copies/byte H2D <=1 and D2H <=1, striping >=1.5x, sparse >=5x at 90% zeros, dense <=1.05x overhead)"
cargo run --release -p cricket-bench --bin fig7_bandwidth -- --smoke

echo "==> example smoke tests (async stream engine, checkpoint/restart; nonzero exit fails CI)"
cargo run --release --example multi_tenant
cargo run --release --example fft_pipeline
cargo run --release --example checkpoint_restart

echo "CI OK"
