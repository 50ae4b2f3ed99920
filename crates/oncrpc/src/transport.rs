//! Byte-stream transports beneath the record-marking layer.
//!
//! A [`Transport`] is any duplex byte stream. Keeping the abstraction at the
//! byte level (rather than whole records) means *every* transport — real TCP,
//! the in-memory pipe used in tests, and the simulated unikernel network
//! paths — exercises the same record-marking and fragmentation code.

use crate::error::RpcResult;
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::mpsc;
use std::time::Duration;

/// A duplex byte stream usable for RPC.
///
/// A socket-backed transport hands a gather list to the kernel as one
/// write: it forwards [`Write::write_vectored`] to its socket. The record
/// layer writes a record as `[mark, body…]` in one `write_vectored`, and
/// std's default writes only the first slice, so without the forward every
/// record would leave as a lone 4-byte write and then its body: under
/// `TCP_NODELAY` two segments, and two wake-ups of the peer, per record.
pub trait Transport: Read + Write + Send {
    /// Human-readable description for diagnostics.
    fn describe(&self) -> String {
        "transport".into()
    }

    /// Bound how long a single `read` may block waiting for the peer.
    ///
    /// When the deadline expires, `read` fails with `WouldBlock`/`TimedOut`,
    /// which the record layer surfaces as [`crate::RpcError::TimedOut`].
    /// Transports without a timing source (e.g. the virtual-time simulated
    /// paths, which can never block) accept and ignore the setting.
    fn set_read_timeout(&mut self, _dur: Option<Duration>) -> RpcResult<()> {
        Ok(())
    }

    /// Bytes this transport has memcpy'd into buffers of its own (send
    /// staging, in-process reassembly) — its share of the stack's copies
    /// per transferred byte; `crate::client::ClientStats::bytes_copied`
    /// is the client's. A real socket stages in the kernel and reports 0.
    fn bytes_copied(&self) -> u64 {
        0
    }
}

/// A boxed transport is a transport: what lets one generic
/// [`RpcClient`](crate::RpcClient) serve both concrete transport types and
/// the type-erased default.
impl<T: Transport + ?Sized> Transport for Box<T> {
    fn describe(&self) -> String {
        (**self).describe()
    }

    fn set_read_timeout(&mut self, dur: Option<Duration>) -> RpcResult<()> {
        (**self).set_read_timeout(dur)
    }

    fn bytes_copied(&self) -> u64 {
        (**self).bytes_copied()
    }
}

/// TCP transport. `TCP_NODELAY` is enabled because RPC is latency-bound:
/// Nagle's algorithm would serialize the many small Cricket calls.
#[derive(Debug)]
pub struct TcpTransport {
    stream: TcpStream,
}

impl TcpTransport {
    /// Connect to a remote RPC server.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> RpcResult<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self { stream })
    }

    /// Wrap an accepted stream (server side).
    pub(crate) fn from_stream(stream: TcpStream) -> RpcResult<Self> {
        stream.set_nodelay(true)?;
        Ok(Self { stream })
    }

    /// Set a read timeout for replies.
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> RpcResult<()> {
        self.stream.set_read_timeout(dur)?;
        Ok(())
    }
}

impl Read for TcpTransport {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.stream.read(buf)
    }
}

impl Write for TcpTransport {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.stream.write(buf)
    }
    fn write_vectored(&mut self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
        self.stream.write_vectored(bufs)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

impl Transport for TcpTransport {
    fn describe(&self) -> String {
        match self.stream.peer_addr() {
            Ok(a) => format!("tcp:{a}"),
            Err(_) => "tcp:?".into(),
        }
    }

    fn set_read_timeout(&mut self, dur: Option<Duration>) -> RpcResult<()> {
        TcpTransport::set_read_timeout(self, dur)
    }
}

/// One end of an in-memory duplex pipe built on unbounded channels, for
/// in-process client↔server tests across crates (the simulated network
/// paths carry their bytes through virtio, not through this). Reads block
/// until data or hang-up.
pub struct MemTransport {
    tx: mpsc::Sender<Vec<u8>>,
    rx: mpsc::Receiver<Vec<u8>>,
    /// Partially consumed incoming chunk.
    pending: Vec<u8>,
    pending_off: usize,
    /// Per-read deadline; `None` blocks indefinitely.
    read_timeout: Option<Duration>,
    /// Bytes copied into channel chunks by `write`.
    copied: u64,
    label: &'static str,
}

/// Create a connected pair of in-memory transports.
pub fn duplex_pair() -> (MemTransport, MemTransport) {
    let (a_tx, a_rx) = mpsc::channel();
    let (b_tx, b_rx) = mpsc::channel();
    (
        MemTransport {
            tx: a_tx,
            rx: b_rx,
            pending: Vec::new(),
            pending_off: 0,
            read_timeout: None,
            copied: 0,
            label: "mem:client",
        },
        MemTransport {
            tx: b_tx,
            rx: a_rx,
            pending: Vec::new(),
            pending_off: 0,
            read_timeout: None,
            copied: 0,
            label: "mem:server",
        },
    )
}

impl Read for MemTransport {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        if self.pending_off >= self.pending.len() {
            let chunk = match self.read_timeout {
                // A recv error means the sender dropped: clean EOF.
                None => self.rx.recv().ok(),
                Some(dur) => match self.rx.recv_timeout(dur) {
                    Ok(chunk) => Some(chunk),
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        return Err(io::Error::new(io::ErrorKind::TimedOut, "read timed out"));
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => None,
                },
            };
            match chunk {
                Some(chunk) => {
                    self.pending = chunk;
                    self.pending_off = 0;
                }
                None => return Ok(0),
            }
        }
        let avail = &self.pending[self.pending_off..];
        let n = avail.len().min(buf.len());
        buf[..n].copy_from_slice(&avail[..n]);
        self.pending_off += n;
        Ok(n)
    }
}

impl Write for MemTransport {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        // The chunk copy into the channel stands in for a real socket's
        // copy-into-kernel-buffer; it is the one buffering copy on the send
        // side.
        self.copied += buf.len() as u64;
        self.tx
            .send(buf.to_vec())
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "peer dropped"))?;
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Transport for MemTransport {
    fn describe(&self) -> String {
        self.label.into()
    }

    fn set_read_timeout(&mut self, dur: Option<Duration>) -> RpcResult<()> {
        self.read_timeout = dur;
        Ok(())
    }

    fn bytes_copied(&self) -> u64 {
        self.copied
    }
}

impl std::fmt::Debug for MemTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemTransport")
            .field("label", &self.label)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{read_record, write_record, MAX_RECORD};

    impl TcpTransport {
        /// Whether `TCP_NODELAY` is set on the socket.
        fn nodelay(&self) -> RpcResult<bool> {
            Ok(self.stream.nodelay()?)
        }
    }

    #[test]
    fn duplex_roundtrip() {
        let (mut a, mut b) = duplex_pair();
        a.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        b.write_all(b"pong").unwrap();
        a.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"pong");
    }

    #[test]
    fn partial_reads_across_chunks() {
        let (mut a, mut b) = duplex_pair();
        a.write_all(b"abc").unwrap();
        a.write_all(b"defgh").unwrap();
        let mut buf = [0u8; 2];
        let mut collected = Vec::new();
        for _ in 0..4 {
            b.read_exact(&mut buf).unwrap();
            collected.extend_from_slice(&buf);
        }
        assert_eq!(collected, b"abcdefgh");
    }

    #[test]
    fn eof_when_peer_dropped() {
        let (a, mut b) = duplex_pair();
        drop(a);
        let mut buf = [0u8; 1];
        assert_eq!(b.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn records_flow_over_mem_transport() {
        let (mut a, mut b) = duplex_pair();
        let payload: Vec<u8> = (0..5000u32).map(|i| i as u8).collect();
        write_record(&mut a, &payload, 512).unwrap();
        let got = read_record(&mut b, MAX_RECORD).unwrap().unwrap();
        assert_eq!(got, payload);
    }

    /// Small RPCs are latency-bound: Nagle must be off on the client
    /// connection and on the accepted server socket.
    #[test]
    fn tcp_nodelay_on_both_ends() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            TcpTransport::from_stream(stream).unwrap()
        });
        let client = TcpTransport::connect(addr).unwrap();
        let accepted = server.join().unwrap();
        assert!(
            client.nodelay().unwrap(),
            "client connection must set TCP_NODELAY"
        );
        assert!(
            accepted.nodelay().unwrap(),
            "accepted socket must set TCP_NODELAY"
        );
    }

    /// The reactor accept path sets TCP_NODELAY on raw accepted sockets
    /// before the transport wrapper is ever involved.
    #[test]
    fn reactor_accept_path_sets_nodelay() {
        let handle = crate::reactor::serve_tcp_reactor(
            "127.0.0.1:0",
            crate::ReactorConfig::default(),
            |_conn| crate::reactor::ConnHandler {
                rpc: std::sync::Arc::new(crate::server::RpcServer::new()),
                on_close: None,
            },
        )
        .unwrap();
        let client = TcpTransport::connect(handle.addr()).unwrap();
        assert!(client.nodelay().unwrap());
        drop(client);
        handle.shutdown();
    }

    /// A gather list leaves as one write: a record's mark and body are one
    /// segment under `TCP_NODELAY`, not two.
    #[test]
    fn tcp_transport_writes_a_gather_list_at_once() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpTransport::connect(listener.local_addr().unwrap()).unwrap();
        let (mut peer, _) = listener.accept().unwrap();
        let (mark, body) = ([0u8; 4], [7u8; 100]);
        let parts = [io::IoSlice::new(&mark), io::IoSlice::new(&body)];
        assert_eq!(client.write_vectored(&parts).unwrap(), 104);
        let mut got = [0u8; 104];
        peer.read_exact(&mut got).unwrap();
        assert_eq!(got[4..], body);
    }

    #[test]
    fn tcp_transport_roundtrip() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut t = TcpTransport::from_stream(stream).unwrap();
            let rec = read_record(&mut t, MAX_RECORD).unwrap().unwrap();
            write_record(&mut t, &rec, 64).unwrap(); // echo
        });
        let mut client = TcpTransport::connect(addr).unwrap();
        let payload = vec![42u8; 1000];
        write_record(&mut client, &payload, 100).unwrap();
        let echoed = read_record(&mut client, MAX_RECORD).unwrap().unwrap();
        assert_eq!(echoed, payload);
        server.join().unwrap();
    }
}
