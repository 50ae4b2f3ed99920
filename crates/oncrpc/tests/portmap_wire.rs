//! The portmapper's wire, pinned: every call and reply record of the
//! eleven procedures equals the bytes the hand-written codec produced
//! before `portmap.x` replaced it (captured at commit cba83a4), and an
//! optional-data list too long for any recursive codec encodes, decodes
//! and drops on a small stack.

use oncrpc::portmap::{MappingNode, PmapVersService};
use oncrpc::{LoadReport, Mapping, PmapVersClient, Portmap, RpcServer, Transport};
use std::io::{self, Read, Write};
use std::sync::{Arc, Mutex};

/// (call record, reply record) as hex, in call order — xids 1, 2, ...
const WIRE: &[(&str, &str)] = &[
    ("000000010000000000000002000186a0000000020000000000000000000000000000000000000000", "000000010000000100000000000000000000000000000000"),
    ("000000020000000000000002000186a0000000020000000400000000000000000000000000000000", "00000002000000010000000000000000000000000000000000000000"),
    ("000000030000000000000002000186a0000000020000000100000000000000000000000000000000000186a3000000030000000600000801", "00000003000000010000000000000000000000000000000000000001"),
    ("000000040000000000000002000186a0000000020000000100000000000000000000000000000000000186a3000000030000000600000801", "00000004000000010000000000000000000000000000000000000000"),
    ("000000050000000000000002000186a0000000020000000300000000000000000000000000000000000186a3000000030000000600000000", "00000005000000010000000000000000000000000000000000000801"),
    ("000000060000000000000002000186a0000000020000000400000000000000000000000000000000", "00000006000000010000000000000000000000000000000000000001000186a300000003000000060000080100000000"),
    ("000000070000000000000002000186a0000000020000000100000000000000000000000000000000000186a500000001000000110000027b", "00000007000000010000000000000000000000000000000000000001"),
    ("000000080000000000000002000186a0000000020000000100000000000000000000000000000000000186b5000000040000000600000fcd", "00000008000000010000000000000000000000000000000000000001"),
    ("000000090000000000000002000186a0000000020000000400000000000000000000000000000000", "00000009000000010000000000000000000000000000000000000001000186a300000003000000060000080100000001000186a500000001000000110000027b00000001000186b5000000040000000600000fcd00000000"),
    ("0000000a0000000000000002000186a0000000020000000200000000000000000000000000000000000186a5000000010000000000000000", "0000000a000000010000000000000000000000000000000000000001"),
    ("0000000b0000000000000002000186a00000000200000007000000000000000000000000000000000000004d00000001", "0000000b000000010000000000000000000000000000000000000000"),
    ("0000000c0000000000000002000186a00000000200000005000000000000000000000000000000000000004d00000001000017710000000040000000000000008000000000000000075bcd1500000004000000fa", "0000000c000000010000000000000000000000000000000000000001"),
    ("0000000d0000000000000002000186a00000000200000007000000000000000000000000000000000000004d00000001", "0000000d000000010000000000000000000000000000000000000001000017710000000040000000000000008000000000000000075bcd1500000004000000fa0000000000000000"),
    ("0000000e0000000000000002000186a00000000200000005000000000000000000000000000000000000004d00000001000017720000000000000000000000000000000000000000000000000000000000000000", "0000000e000000010000000000000000000000000000000000000001"),
    ("0000000f0000000000000002000186a00000000200000005000000000000000000000000000000000000004d000000010000177300000000000000070000000000000009000000000000000b00000001000003e8", "0000000f000000010000000000000000000000000000000000000001"),
    ("000000100000000000000002000186a00000000200000008000000000000000000000000000000000000004d0000000100001772", "00000010000000010000000000000000000000000000000000000001"),
    ("000000110000000000000002000186a00000000200000008000000000000000000000000000000000000004d000000010000270f", "00000011000000010000000000000000000000000000000000000000"),
    ("000000120000000000000002000186a00000000200000007000000000000000000000000000000000000004d00000001", "00000012000000010000000000000000000000000000000000000001000017710000000040000000000000008000000000000000075bcd1500000004000000fa000000000000000100001772000000000000000000000000000000000000000000000000000000000000000000000001000000010000177300000000000000070000000000000009000000000000000b00000001000003e80000000000000000"),
    ("000000130000000000000002000186a00000000200000006000000000000000000000000000000000000004d0000000100001773", "00000013000000010000000000000000000000000000000000000001"),
    ("000000140000000000000002000186a00000000200000009000000000000000000000000000000000000004d00000001f00dcafe0000000100001772", "00000014000000010000000000000000000000000000000000000001"),
    ("000000150000000000000002000186a0000000020000000a000000000000000000000000000000000000004d00000001f00dcafe00000001", "00000015000000010000000000000000000000000000000000001772"),
    ("000000160000000000000002000186a0000000020000000a000000000000000000000000000000000000004d00000001000000000000beef", "00000016000000010000000000000000000000000000000000000000"),
];

type Log = Arc<Mutex<Vec<(Vec<u8>, Vec<u8>)>>>;

/// A transport that hands each complete call record to `server` and
/// queues the framed reply, logging both records.
struct Tap {
    server: RpcServer,
    inbound: Vec<u8>,
    record: Vec<u8>,
    outbound: Vec<u8>,
    read: usize,
    log: Log,
}

impl Write for Tap {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        self.inbound.extend_from_slice(bytes);
        while let Some(header) = self.inbound.get(..4) {
            let header = u32::from_be_bytes(header.try_into().unwrap());
            let len = (header & 0x7fff_ffff) as usize;
            let Some(fragment) = self.inbound.get(4..4 + len) else {
                break;
            };
            self.record.extend_from_slice(fragment);
            self.inbound.drain(..4 + len);
            if header >> 31 == 1 {
                let reply = self.server.handle_record(&self.record).unwrap();
                let framed = 0x8000_0000 | reply.len() as u32;
                self.outbound.extend_from_slice(&framed.to_be_bytes());
                self.outbound.extend_from_slice(&reply);
                let call = std::mem::take(&mut self.record);
                self.log.lock().unwrap().push((call, reply));
            }
        }
        Ok(bytes.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Read for Tap {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = (self.outbound.len() - self.read).min(buf.len());
        buf[..n].copy_from_slice(&self.outbound[self.read..self.read + n]);
        self.read += n;
        Ok(n)
    }
}

impl Transport for Tap {}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// All eleven procedures, DUMP and SHARD_DUMP with 0, 1 and 3 entries —
/// the call sequence the constants were captured from.
#[test]
fn every_procedure_keeps_its_call_and_reply_bytes() {
    let mut server = RpcServer::new();
    let pm = Portmap::new();
    let dispatch = oncrpc::portmap::PmapVersDispatch(pm);
    server.register(
        oncrpc::portmap::PMAP_PROG,
        oncrpc::portmap::PMAP_VERS,
        Arc::new(dispatch),
    );
    let log = Log::default();
    let mut c = PmapVersClient::new(Box::new(Tap {
        server,
        inbound: vec![],
        record: vec![],
        outbound: vec![],
        read: 0,
        log: Arc::clone(&log),
    }));
    let m = |prog, vers, prot, port| Mapping {
        prog,
        vers,
        prot,
        port,
    };
    let nfs = m(100003, 3, 6, 2049);
    c.null().unwrap();
    assert!(c.dump().unwrap().0.is_empty());
    assert!(c.set(&nfs).unwrap());
    assert!(!c.set(&nfs).unwrap());
    assert_eq!(c.getport(&m(100003, 3, 6, 0)).unwrap(), 2049);
    assert_eq!(c.dump().unwrap().0, vec![nfs]);
    assert!(c.set(&m(100005, 1, 17, 635)).unwrap());
    assert!(c.set(&m(100021, 4, 6, 4045)).unwrap());
    assert_eq!(c.dump().unwrap().0.len(), 3);
    assert!(c.unset(&m(100005, 1, 0, 0)).unwrap());
    assert!(c.shard_dump(&77, &1).unwrap().0.is_empty());
    let load = LoadReport {
        free_mem: 1 << 30,
        total_mem: 2 << 30,
        served_ns: 123_456_789,
        sessions: 4,
        qos_pressure: 250,
    };
    assert!(c.shard_set(&77, &1, &6001, &load).unwrap());
    assert_eq!(c.shard_dump(&77, &1).unwrap().0.len(), 1);
    assert!(c.shard_set(&77, &1, &6002, &LoadReport::default()).unwrap());
    let saturated = LoadReport {
        free_mem: 7,
        total_mem: 9,
        served_ns: 11,
        sessions: 1,
        qos_pressure: 1000,
    };
    assert!(c.shard_set(&77, &1, &6003, &saturated).unwrap());
    assert!(c.shard_assign(&77, &1, &6002).unwrap());
    assert!(!c.shard_assign(&77, &1, &9999).unwrap());
    assert_eq!(c.shard_dump(&77, &1).unwrap().0.len(), 3);
    assert!(c.shard_unset(&77, &1, &6003).unwrap());
    let token = 0xF00D_CAFE_0000_0001;
    assert!(c.shard_home_set(&77, &1, &token, &6002).unwrap());
    assert_eq!(c.shard_home_get(&77, &1, &token).unwrap(), 6002);
    assert_eq!(c.shard_home_get(&77, &1, &0xBEEF).unwrap(), 0);

    let log = log.lock().unwrap();
    assert_eq!(log.len(), WIRE.len());
    for (i, ((call, reply), &(want_call, want_reply))) in log.iter().zip(WIRE).enumerate() {
        assert_eq!(hex(call), want_call, "call record {}", i + 1);
        assert_eq!(hex(reply), want_reply, "reply record {}", i + 1);
    }
}

/// A million-entry DUMP reply encodes, decodes and drops on a 64 KiB
/// stack: the list codec loops, so no length a peer's directory replies
/// with turns into recursion depth. This directory stops `SET` at its
/// bound, so the million-entry reply is built as another peer's would be.
#[test]
fn a_million_entry_dump_fits_a_small_stack() {
    let run = std::thread::Builder::new().stack_size(64 * 1024).spawn(|| {
        let pm = Portmap::new();
        let mapping = |port: u32| Mapping {
            prog: 300_000 + port,
            vers: 1,
            prot: 6,
            port,
        };
        let mut port = 0;
        while pm.set(mapping(port)).unwrap() {
            port += 1;
        }
        let full = pm.dump().unwrap();
        assert_eq!(full.0, (0..port).map(mapping).collect::<Vec<_>>());
        let dump = MappingNode((0..1_000_000).map(mapping).collect());
        let wire = xdr::encode(&dump);
        assert_eq!(wire.len(), 1_000_000 * 20 + 4);
        let back: MappingNode = xdr::decode(&wire).unwrap();
        assert!(back == dump);
        drop((back, dump));
    });
    run.unwrap().join().unwrap();
}
