//! Session-state wire format: the one serializer behind both
//! checkpoint/restart and live migration.
//!
//! A [`MigBlob`] is one session's state, or one increment of it:
//!
//! * [`MigKind::Base`] — the full session snapshot (every block the
//!   session owns, its modules, streams, events, library handles);
//! * [`MigKind::Delta`] — only what changed since the previous blob (dirty
//!   spans, new/freed blocks), taken while the source *keeps serving* the
//!   client;
//! * [`MigKind::Final`] — the post-barrier delta: the source fences every
//!   stream (the CRAC-style snapshot barrier), evicts the client, and
//!   ships the last dirty window plus the client's at-most-once replay
//!   entries so in-flight xids complete exactly once at the new home.
//!
//! A *migration* is one `Base`, any number of `Delta`s and one `Final` in
//! flight for one client token. A *checkpoint* is `Base` blobs at rest: one
//! per session that owns anything, in a counted container
//! (`encode_checkpoint` / `decode_checkpoint`).
//!
//! Every blob carries the full session *metadata* ([`SessionMeta`]) —
//! metadata is tiny next to memory contents, and re-sending it makes each
//! apply idempotent against the previous one (the destination reconciles
//! by diff). Memory rides as a [`MemDelta`] relative to what the previous
//! blob shipped. Encoding is this repository's own XDR; decode errors are
//! typed [`VgpuError`]s, never panics, and no length read off the wire
//! sizes an allocation before the bytes behind it are known to exist.

use vgpu::memory::MemDelta;
use vgpu::{VgpuError, VgpuResult};
use xdr::{XdrDecoder, XdrEncoder, XdrResult};

/// Session blob magic ("MIG1").
const MAGIC: u32 = 0x4d49_4731;
/// Session blob format version.
const VERSION: u32 = 1;
/// Checkpoint container magic ("CKPT").
const CKPT_MAGIC: u32 = 0x434b_5054;
/// Checkpoint container version (1 was the retired whole-device layout).
const CKPT_VERSION: u32 = 2;
/// Wire size of a blob with every list empty: the least one can occupy.
const MIN_BLOB_WIRE: usize = 92;

/// Which leg of a session-state stream a blob is.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum MigKind {
    /// Full snapshot; opens the stream and replaces any prior attempt.
    #[default]
    Base,
    /// Incremental delta while the source still serves the client.
    Delta,
    /// Post-barrier delta: carries the replay entries and marks the
    /// staged session ready for adoption.
    Final,
}

impl MigKind {
    fn to_u32(self) -> u32 {
        match self {
            MigKind::Base => 0,
            MigKind::Delta => 1,
            MigKind::Final => 2,
        }
    }

    fn from_u32(v: u32) -> Option<Self> {
        match v {
            0 => Some(MigKind::Base),
            1 => Some(MigKind::Delta),
            2 => Some(MigKind::Final),
            _ => None,
        }
    }
}

/// Everything about the session that is not device-memory contents. All
/// vectors are sorted by handle so identical states encode identically.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionMeta {
    /// The migrating client's at-most-once token (`AUTH_SHORT` credential);
    /// 0 in a checkpoint, which belongs to whoever restores it.
    pub token: u64,
    /// The session's current device ordinal (`cudaSetDevice`).
    pub current_device: u32,
    /// The least the applying server's virtual clock must read. A
    /// migration stamps the source clock at export, so post-cutover timing
    /// (event elapsed, batch receipts) is byte-identical to an unmigrated
    /// run; a checkpoint stamps the drained completion frontier, so every
    /// restored stream frontier lies in the past.
    pub src_now_ns: u64,
    /// Per-device handle counters `(device ordinal, next_handle)` — merged
    /// with max() on the destination so restored and future handles never
    /// collide.
    pub next_handles: Vec<(u32, u64)>,
    /// Library-handle counter (cuBLAS/cuSolver/cuFFT).
    pub next_lib_handle: u64,
    /// Loaded modules as `(handle, original cubin image)`.
    pub modules: Vec<(u64, Vec<u8>)>,
    /// Resolved functions as `(handle, module handle, kernel name)`.
    pub functions: Vec<(u64, u64, String)>,
    /// Streams as `(handle, completion frontier ns)`.
    pub streams: Vec<(u64, u64)>,
    /// Events as `(handle, recorded-at ns)`; `None` = never recorded.
    pub events: Vec<(u64, Option<u64>)>,
    /// The session's lazily created default streams as
    /// `(device ordinal, stream handle)` — what the client's wire handle
    /// `0` resolves to.
    pub default_streams: Vec<(u32, u64)>,
    /// cuBLAS handles.
    pub blas: Vec<u64>,
    /// cuSolverDn handles.
    pub solvers: Vec<u64>,
    /// cuFFT plans as `(handle, n, kind, batch)`.
    pub ffts: Vec<(u64, i32, i32, i32)>,
}

/// One blob of session state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MigBlob {
    /// Which leg this is.
    pub kind: MigKind,
    /// Full session metadata (applied idempotently).
    pub meta: SessionMeta,
    /// Memory changes since the previous blob of this stream.
    pub mem: MemDelta,
    /// The client's replay-cache entries `(xid, cached reply)`; only
    /// populated on [`MigKind::Final`].
    pub replay: Vec<(u32, Vec<u8>)>,
}

fn bad(m: impl std::fmt::Display) -> VgpuError {
    VgpuError::InvalidValue(format!("session blob: {m}"))
}

/// Write a counted list: `u32` count, then `item` per element.
fn put_list<T>(enc: &mut XdrEncoder, items: &[T], item: impl Fn(&mut XdrEncoder, &T)) {
    enc.put_u32(items.len() as u32);
    for it in items {
        item(enc, it);
    }
}

/// Read an element count — the only place a count off the wire sizes
/// anything. `min_wire` is the least one element occupies on the wire; a
/// count the unread bytes cannot hold is rejected here, *before* the
/// caller reserves for it, so a hostile count costs nothing.
fn count(dec: &mut XdrDecoder<'_>, min_wire: usize) -> VgpuResult<usize> {
    let n = dec.get_u32().map_err(bad)? as usize;
    let left = dec.remaining();
    if n > left / min_wire {
        return Err(bad(format_args!("count {n} cannot fit in {left} bytes")));
    }
    Ok(n)
}

/// Read a counted list: [`count`], then `item` per element.
fn list<'a, T>(
    dec: &mut XdrDecoder<'a>,
    min_wire: usize,
    mut item: impl FnMut(&mut XdrDecoder<'a>) -> XdrResult<T>,
) -> VgpuResult<Vec<T>> {
    let n = count(dec, min_wire)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(item(dec).map_err(bad)?);
    }
    Ok(out)
}

impl MigBlob {
    /// A blob of `kind` for `meta`.
    pub fn new(kind: MigKind, meta: SessionMeta) -> Self {
        Self {
            kind,
            meta,
            ..Self::default()
        }
    }

    /// Payload bytes this blob moves (memory contents + module images +
    /// replay replies; framing is negligible next to these).
    pub fn payload_bytes(&self) -> u64 {
        let modules: u64 = self.meta.modules.iter().map(|(_, i)| i.len() as u64).sum();
        let replay: u64 = self.replay.iter().map(|(_, r)| r.len() as u64).sum();
        self.mem.payload_bytes() + modules + replay
    }

    /// Serialize to the wire form carried by `MIG_APPLY_BASE` /
    /// `MIG_APPLY_DELTA`.
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = XdrEncoder::with_capacity(4096);
        self.encode_into(&mut enc);
        enc.into_inner()
    }

    fn encode_into(&self, enc: &mut XdrEncoder) {
        enc.put_u32(MAGIC);
        enc.put_u32(VERSION);
        enc.put_u32(self.kind.to_u32());

        let m = &self.meta;
        enc.put_u64(m.token);
        enc.put_u32(m.current_device);
        enc.put_u64(m.src_now_ns);
        put_list(enc, &m.next_handles, |e, &(dev, next)| {
            e.put_u32(dev);
            e.put_u64(next);
        });
        enc.put_u64(m.next_lib_handle);
        put_list(enc, &m.modules, |e, (h, image)| {
            e.put_u64(*h);
            e.put_opaque(image);
        });
        put_list(enc, &m.functions, |e, (h, module, name)| {
            e.put_u64(*h);
            e.put_u64(*module);
            e.put_string(name);
        });
        put_list(enc, &m.streams, |e, &(h, frontier)| {
            e.put_u64(h);
            e.put_u64(frontier);
        });
        put_list(enc, &m.events, |e, (h, recorded)| {
            e.put_u64(*h);
            e.put_option(recorded.as_ref());
        });
        put_list(enc, &m.default_streams, |e, &(dev, h)| {
            e.put_u32(dev);
            e.put_u64(h);
        });
        put_list(enc, &m.blas, |e, &h| e.put_u64(h));
        put_list(enc, &m.solvers, |e, &h| e.put_u64(h));
        put_list(enc, &m.ffts, |e, &(h, n, kind, batch)| {
            e.put_u64(h);
            e.put_i32(n);
            e.put_i32(kind);
            e.put_i32(batch);
        });

        put_list(enc, &self.mem.freed, |e, &base| e.put_u64(base));
        put_list(enc, &self.mem.new_blocks, |e, (base, bytes)| {
            e.put_u64(*base);
            e.put_opaque(bytes);
        });
        put_list(enc, &self.mem.dirty, |e, (base, off, bytes)| {
            e.put_u64(*base);
            e.put_u64(*off);
            e.put_opaque(bytes);
        });

        put_list(enc, &self.replay, |e, (xid, reply)| {
            e.put_u32(*xid);
            e.put_opaque(reply);
        });
    }

    /// Parse a wire blob. Garbage and truncation yield typed errors.
    pub fn decode(blob: &[u8]) -> VgpuResult<Self> {
        let mut dec = XdrDecoder::new(blob);
        let out = Self::decode_from(&mut dec)?;
        dec.finish().map_err(bad)?;
        Ok(out)
    }

    fn decode_from(dec: &mut XdrDecoder<'_>) -> VgpuResult<Self> {
        if dec.get_u32().map_err(bad)? != MAGIC {
            return Err(bad("wrong magic"));
        }
        let version = dec.get_u32().map_err(bad)?;
        if version != VERSION {
            return Err(bad(format_args!("unsupported version {version}")));
        }
        let kind = dec.get_u32().map_err(bad)?;
        let kind = MigKind::from_u32(kind).ok_or_else(|| bad(format_args!("kind {kind}")))?;

        let meta = SessionMeta {
            token: dec.get_u64().map_err(bad)?,
            current_device: dec.get_u32().map_err(bad)?,
            src_now_ns: dec.get_u64().map_err(bad)?,
            next_handles: list(dec, 12, |d| Ok((d.get_u32()?, d.get_u64()?)))?,
            next_lib_handle: dec.get_u64().map_err(bad)?,
            modules: list(dec, 12, |d| Ok((d.get_u64()?, d.get_opaque()?.to_vec())))?,
            functions: list(dec, 20, |d| {
                Ok((d.get_u64()?, d.get_u64()?, d.get_string()?))
            })?,
            streams: list(dec, 16, |d| Ok((d.get_u64()?, d.get_u64()?)))?,
            events: list(dec, 12, |d| Ok((d.get_u64()?, d.get_option()?)))?,
            default_streams: list(dec, 12, |d| Ok((d.get_u32()?, d.get_u64()?)))?,
            blas: list(dec, 8, |d| d.get_u64())?,
            solvers: list(dec, 8, |d| d.get_u64())?,
            ffts: list(dec, 20, |d| {
                Ok((d.get_u64()?, d.get_i32()?, d.get_i32()?, d.get_i32()?))
            })?,
        };
        let mem = MemDelta {
            freed: list(dec, 8, |d| d.get_u64())?,
            new_blocks: list(dec, 12, |d| Ok((d.get_u64()?, d.get_opaque()?.to_vec())))?,
            dirty: list(dec, 20, |d| {
                Ok((d.get_u64()?, d.get_u64()?, d.get_opaque()?.to_vec()))
            })?,
        };
        let replay = list(dec, 8, |d| Ok((d.get_u32()?, d.get_opaque()?.to_vec())))?;
        Ok(Self {
            kind,
            meta,
            mem,
            replay,
        })
    }
}

/// Serialize a checkpoint: the counted container around `blobs`.
pub(crate) fn encode_checkpoint(blobs: &[MigBlob]) -> Vec<u8> {
    let mut enc = XdrEncoder::with_capacity(4096);
    enc.put_u32(CKPT_MAGIC);
    enc.put_u32(CKPT_VERSION);
    put_list(&mut enc, blobs, |e, b| b.encode_into(e));
    enc.into_inner()
}

/// Parse a checkpoint into its blobs, every one of which must be a
/// [`MigKind::Base`]. The whole container is decoded and checked before
/// the caller sees any of it, so a rejected checkpoint has touched nothing.
pub(crate) fn decode_checkpoint(bytes: &[u8]) -> VgpuResult<Vec<MigBlob>> {
    let mut dec = XdrDecoder::new(bytes);
    if dec.get_u32().map_err(bad)? != CKPT_MAGIC {
        return Err(bad("not a checkpoint (wrong magic)"));
    }
    let version = dec.get_u32().map_err(bad)?;
    if version != CKPT_VERSION {
        return Err(bad(format_args!(
            "unsupported checkpoint version {version}"
        )));
    }
    let n = count(&mut dec, MIN_BLOB_WIRE)?;
    let mut blobs = Vec::with_capacity(n);
    for _ in 0..n {
        let blob = MigBlob::decode_from(&mut dec)?;
        if blob.kind != MigKind::Base {
            return Err(bad(format_args!("{:?} blob in a checkpoint", blob.kind)));
        }
        blobs.push(blob);
    }
    dec.finish().map_err(bad)?;
    Ok(blobs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn populated() -> MigBlob {
        let meta = SessionMeta {
            token: 0xFEED_0001,
            current_device: 2,
            src_now_ns: 123_456_789,
            next_handles: vec![(0, 0x42), (2, 0x2000_0099)],
            next_lib_handle: 0x8000_0000_0003,
            modules: vec![(0x11, b"cubin image".to_vec())],
            functions: vec![(0x12, 0x11, "saxpy".into())],
            streams: vec![(0x13, 9_000), (0x14, 0)],
            events: vec![(0x15, Some(4_200)), (0x16, None)],
            default_streams: vec![(0, 0x13)],
            blas: vec![0x8000_0000_0000],
            solvers: vec![0x8000_0000_0001],
            ffts: vec![(0x8000_0000_0002, 1024, vgpu::fft::CUFFT_C2C, 4)],
        };
        let mut blob = MigBlob::new(MigKind::Final, meta);
        blob.mem = MemDelta {
            freed: vec![0x1000_0000],
            new_blocks: vec![(0x1000_1000, vec![7u8; 64])],
            dirty: vec![(0x1000_2000, 16, vec![9u8; 8])],
        };
        blob.replay = vec![(77, vec![1, 2, 3]), (78, vec![])];
        blob
    }

    #[test]
    fn roundtrip_preserves_every_field() {
        let blob = populated();
        let decoded = MigBlob::decode(&blob.encode()).unwrap();
        assert_eq!(decoded, blob);
        assert_eq!(decoded.kind, MigKind::Final);
    }

    #[test]
    fn empty_base_roundtrips() {
        let blob = MigBlob::new(
            MigKind::Base,
            SessionMeta {
                token: 1,
                ..SessionMeta::default()
            },
        );
        let decoded = MigBlob::decode(&blob.encode()).unwrap();
        assert_eq!(decoded, blob);
        assert_eq!(decoded.payload_bytes(), 0);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(MigBlob::decode(b"definitely not a migration blob").is_err());
        let mut bad_magic = populated().encode();
        bad_magic[0] ^= 0xff;
        assert!(MigBlob::decode(&bad_magic).is_err());
        // Unknown kind discriminant.
        let mut bad_kind = populated().encode();
        bad_kind[11] = 9;
        assert!(MigBlob::decode(&bad_kind).is_err());
    }

    #[test]
    fn decode_rejects_truncation_at_every_cut() {
        let full = populated().encode();
        for cut in [0, 4, 8, 12, full.len() / 3, full.len() / 2, full.len() - 1] {
            assert!(MigBlob::decode(&full[..cut]).is_err(), "cut {cut}");
        }
        // Trailing junk is rejected too (finish() catches it).
        let mut long = full.clone();
        long.extend_from_slice(&[0, 0, 0, 0]);
        assert!(MigBlob::decode(&long).is_err());
    }

    #[test]
    fn payload_bytes_counts_contents_not_framing() {
        let blob = populated();
        // 64 new + 8 dirty + 11 module image + 3 replay.
        assert_eq!(blob.payload_bytes(), 64 + 8 + 11 + 3);
    }

    #[test]
    fn min_blob_wire_is_the_empty_blob() {
        assert_eq!(MigBlob::default().encode().len(), MIN_BLOB_WIRE);
    }

    /// The reproducer: a valid header, then a `functions` count of
    /// `0xFFFF_FFFF`. The old bound was `min(count, blob.len())` *elements*
    /// — 40 B reserved per byte of blob, 40 GiB for a `MAX_RECORD` apply —
    /// before one element was read. The count is now refused outright.
    #[test]
    fn count_bomb_is_refused_before_anything_is_reserved() {
        let mut bomb = MigBlob::default().encode();
        // magic, version, kind, token, device, now, next_handles count,
        // next_lib_handle, modules count — then the functions count.
        let functions_at = 4 + 4 + 4 + 8 + 4 + 8 + 4 + 8 + 4;
        bomb[functions_at..functions_at + 4].copy_from_slice(&u32::MAX.to_be_bytes());
        bomb.resize(1 << 20, 0);
        let err = MigBlob::decode(&bomb).unwrap_err();
        assert!(
            err.to_string().contains("count 4294967295 cannot fit"),
            "{err}"
        );

        // Straight at the helper: the refusal comes before the reservation,
        // and the largest count that passes reserves no more than the bytes
        // that are actually there.
        let wire = [&u32::MAX.to_be_bytes()[..], &[0u8; 40]].concat();
        let mut dec = XdrDecoder::new(&wire);
        assert!(count(&mut dec, 20).is_err());
        let wire = [&2u32.to_be_bytes()[..], &[0u8; 40]].concat();
        let functions = list(&mut XdrDecoder::new(&wire), 20, |d| {
            Ok((d.get_u64()?, d.get_u64()?, d.get_string()?))
        })
        .unwrap();
        assert_eq!((functions.len(), functions.capacity()), (2, 2));
        let wire = [&3u32.to_be_bytes()[..], &[0u8; 40]].concat();
        assert!(count(&mut XdrDecoder::new(&wire), 20).is_err());

        // The container's blob count goes through the same check.
        let mut ckpt = encode_checkpoint(&[]);
        ckpt[8..12].copy_from_slice(&u32::MAX.to_be_bytes());
        ckpt.resize(1 << 16, 0);
        let err = decode_checkpoint(&ckpt).unwrap_err();
        assert!(err.to_string().contains("cannot fit"), "{err}");
    }

    fn base(token: u64) -> MigBlob {
        let mut blob = populated();
        blob.kind = MigKind::Base;
        blob.meta.token = token;
        blob.replay.clear();
        blob
    }

    #[test]
    fn checkpoint_roundtrips_and_an_empty_server_is_an_empty_container() {
        let blobs = vec![base(0), base(7)];
        assert_eq!(
            decode_checkpoint(&encode_checkpoint(&blobs)).unwrap(),
            blobs
        );
        let empty = encode_checkpoint(&[]);
        assert_eq!(empty.len(), 12);
        assert_eq!(decode_checkpoint(&empty).unwrap(), vec![]);
    }

    #[test]
    fn checkpoint_rejects_garbage_and_non_base_blobs() {
        assert!(decode_checkpoint(b"not a snapshot").is_err());
        let good = encode_checkpoint(&[base(0)]);
        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xff;
        assert!(decode_checkpoint(&bad_magic).is_err());
        let mut bad_version = good.clone();
        bad_version[7] = 1; // the retired whole-device layout
        assert!(decode_checkpoint(&bad_version).is_err());
        // A bare blob is not a checkpoint, and a checkpoint is not a blob.
        assert!(decode_checkpoint(&base(0).encode()).is_err());
        assert!(MigBlob::decode(&good).is_err());
        // Deltas and finals belong to a stream in flight, never at rest —
        // refused while decoding, before any blob reaches the applier.
        for kind in [MigKind::Delta, MigKind::Final] {
            let mut leg = base(0);
            leg.kind = kind;
            let err = decode_checkpoint(&encode_checkpoint(&[base(0), leg])).unwrap_err();
            assert!(err.to_string().contains("in a checkpoint"), "{err}");
        }
    }

    #[test]
    fn checkpoint_rejects_truncation_at_every_cut() {
        let full = encode_checkpoint(&[base(0), base(7)]);
        for cut in 0..full.len() {
            assert!(decode_checkpoint(&full[..cut]).is_err(), "cut {cut}");
        }
        let mut long = full.clone();
        long.extend_from_slice(&[0, 0, 0, 0]);
        assert!(decode_checkpoint(&long).is_err());
    }
}
