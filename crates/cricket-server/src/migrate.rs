//! Session state on the wire: the one serializer behind both
//! checkpoint/restart and live migration.
//!
//! The format is declared in `cricket.x` and generated by rpcl: a
//! [`MigBlob`] is one session's state, or one increment of it —
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
//! flight for one client token; a *checkpoint* ([`Ckpt`]) is `Base` blobs
//! at rest, one per session that owns anything.
//!
//! Every blob carries the full session *metadata* ([`SessionMeta`]) —
//! tiny next to memory contents, and re-sending it makes each apply
//! idempotent against the previous one (the destination reconciles by
//! diff). Memory rides as a [`MigMem`] relative to what the previous blob
//! shipped. Both types are tagged in `cricket.x` (`MAGIC_mig_blob`,
//! `VERSION_ckpt`, ...), so the generated decoder checks the magic and
//! version words and refuses a foreign or retired format with
//! `xdr::XdrError::WrongTag` before anything is applied. This module holds
//! what the generator cannot: the rule that a checkpoint holds only
//! `Base` blobs, and the moves between [`MigMem`] and the device's
//! [`MemDelta`]. Decode errors are typed [`VgpuError`]s, and no count off
//! the wire reserves more than the bytes behind it (`xdr::XdrDecoder`'s
//! array reader).

use cricket_proto::{Ckpt, MemBlock, MemSpan, MigBlob, MigKind, MigMem, SessionMeta};
use vgpu::memory::MemDelta;
use vgpu::{VgpuError, VgpuResult};

fn bad(m: impl std::fmt::Display) -> VgpuError {
    VgpuError::InvalidValue(format!("session blob: {m}"))
}

/// A blob of `kind` carrying `meta` and `mem`, moved in (no block bytes
/// are copied), with no replay entries.
pub(crate) fn blob(kind: MigKind, meta: SessionMeta, mem: MemDelta) -> MigBlob {
    MigBlob {
        kind,
        meta,
        mem: MigMem {
            freed: mem.freed.into(),
            new_blocks: (mem.new_blocks.into_iter())
                .map(|(base, bytes)| MemBlock { base, bytes })
                .collect::<Vec<_>>()
                .into(),
            dirty: (mem.dirty.into_iter())
                .map(|(base, offset, bytes)| MemSpan {
                    base,
                    offset,
                    bytes,
                })
                .collect::<Vec<_>>()
                .into(),
        },
        replay: Default::default(),
    }
}

/// A blob's memory as the device applies it, moved out (no block bytes
/// are copied).
pub(crate) fn mem_delta(mem: MigMem) -> MemDelta {
    MemDelta {
        freed: mem.freed.0,
        new_blocks: (mem.new_blocks.0.into_iter())
            .map(|b| (b.base, b.bytes))
            .collect(),
        dirty: (mem.dirty.0.into_iter())
            .map(|s| (s.base, s.offset, s.bytes))
            .collect(),
    }
}

/// Parse the wire form `MIG_APPLY_BASE` / `MIG_APPLY_DELTA` carry.
/// Garbage, truncation and a foreign magic or version are typed errors.
pub fn decode(bytes: &[u8]) -> VgpuResult<MigBlob> {
    xdr::decode(bytes).map_err(bad)
}

/// Serialize a checkpoint: the container around `blobs`.
pub(crate) fn encode_checkpoint(blobs: Vec<MigBlob>) -> Vec<u8> {
    xdr::encode(&Ckpt {
        blobs: blobs.into(),
    })
}

/// Parse a checkpoint into its blobs, every one of which must be a
/// [`MigKind::Base`]. The whole container is decoded and checked before
/// the caller sees any of it, so a rejected checkpoint has touched nothing.
pub(crate) fn decode_checkpoint(bytes: &[u8]) -> VgpuResult<Vec<MigBlob>> {
    let ckpt: Ckpt = xdr::decode(bytes).map_err(bad)?;
    if let Some(blob) = ckpt.blobs.iter().find(|b| b.kind != MigKind::Base) {
        return Err(bad(format_args!("{:?} blob in a checkpoint", blob.kind)));
    }
    Ok(ckpt.blobs.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cricket_proto::{
        MigCursor, MigDefaultStream, MigEvent, MigFft, MigFunction, MigModule, MigStream,
        ReplayEntry,
    };

    /// A `Final` blob with every list non-empty: one recorded and one
    /// unrecorded event, two replay entries (the second an empty reply).
    fn populated() -> MigBlob {
        let meta = SessionMeta {
            token: 0xFEED_0001,
            current_device: 2,
            src_now_ns: 123_456_789,
            next_handles: vec![
                MigCursor {
                    device: 0,
                    next: 0x42,
                },
                MigCursor {
                    device: 2,
                    next: 0x2000_0099,
                },
            ]
            .into(),
            next_lib_handle: 0x8000_0000_0003,
            modules: vec![MigModule {
                handle: 0x11,
                image: b"cubin image".to_vec(),
            }]
            .into(),
            functions: vec![MigFunction {
                handle: 0x12,
                module: 0x11,
                name: "saxpy".into(),
            }]
            .into(),
            streams: vec![
                MigStream {
                    handle: 0x13,
                    frontier_ns: 9_000,
                },
                MigStream {
                    handle: 0x14,
                    frontier_ns: 0,
                },
            ]
            .into(),
            events: vec![
                MigEvent {
                    handle: 0x15,
                    recorded_ns: Some(4_200),
                },
                MigEvent {
                    handle: 0x16,
                    recorded_ns: None,
                },
            ]
            .into(),
            default_streams: vec![MigDefaultStream {
                device: 0,
                stream: 0x13,
            }]
            .into(),
            blas: vec![0x8000_0000_0000].into(),
            solvers: vec![0x8000_0000_0001].into(),
            ffts: vec![MigFft {
                handle: 0x8000_0000_0002,
                n: 1024,
                kind: vgpu::fft::CUFFT_C2C,
                batch: 4,
            }]
            .into(),
        };
        let mem = MemDelta {
            freed: vec![0x1000_0000],
            new_blocks: vec![(0x1000_1000, vec![7u8; 64])],
            dirty: vec![(0x1000_2000, 16, vec![9u8; 8])],
        };
        let mut blob = blob(MigKind::Final, meta, mem);
        let entry = |xid, reply| ReplayEntry { xid, reply };
        blob.replay = vec![entry(77, vec![1, 2, 3]), entry(78, vec![])].into();
        blob
    }

    fn base(token: u64) -> MigBlob {
        let mut blob = populated();
        blob.kind = MigKind::Base;
        blob.meta.token = token;
        blob.replay.clear();
        blob
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The wire, pinned: `populated()` and a checkpoint of two `Base`
    /// blobs encode to the bytes the hand-written codec produced before
    /// `cricket.x` declared the format (captured at commit cba83a4), and
    /// decode back equal.
    #[test]
    fn the_wire_is_the_hand_written_codecs() {
        const BLOB: &str = concat!(
            "4d494731000000010000000200000000feed00010000000200000000075bcd15000000020000000000000000",
            "0000004200000002000000002000009900008000000000030000000100000000000000110000000b63756269",
            "6e20696d61676500000000010000000000000012000000000000001100000005736178707900000000000002",
            "0000000000000013000000000000232800000000000000140000000000000000000000020000000000000015",
            "0000000100000000000010680000000000000016000000000000000100000000000000000000001300000001",
            "0000800000000000000000010000800000000001000000010000800000000002000004000000002900000004",
            "0000000100000000100000000000000100000000100010000000004007070707070707070707070707070707",
            "0707070707070707070707070707070707070707070707070707070707070707070707070707070707070707",
            "070707070000000100000000100020000000000000000010000000080909090909090909000000020000004d",
            "00000003010203000000004e00000000",
        );
        const CKPT: &str = concat!(
            "434b505400000002000000024d494731000000010000000000000000000000000000000200000000075bcd15",
            "0000000200000000000000000000004200000002000000002000009900008000000000030000000100000000",
            "000000110000000b637562696e20696d61676500000000010000000000000012000000000000001100000005",
            "7361787079000000000000020000000000000013000000000000232800000000000000140000000000000000",
            "0000000200000000000000150000000100000000000010680000000000000016000000000000000100000000",
            "0000000000000013000000010000800000000000000000010000800000000001000000010000800000000002",
            "0000040000000029000000040000000100000000100000000000000100000000100010000000004007070707",
            "0707070707070707070707070707070707070707070707070707070707070707070707070707070707070707",
            "0707070707070707070707070707070700000001000000001000200000000000000000100000000809090909",
            "09090909000000004d494731000000010000000000000000000000070000000200000000075bcd1500000002",
            "0000000000000000000000420000000200000000200000990000800000000003000000010000000000000011",
            "0000000b637562696e20696d6167650000000001000000000000001200000000000000110000000573617870",
            "7900000000000002000000000000001300000000000023280000000000000014000000000000000000000002",
            "0000000000000015000000010000000000001068000000000000001600000000000000010000000000000000",
            "0000001300000001000080000000000000000001000080000000000100000001000080000000000200000400",
            "0000002900000004000000010000000010000000000000010000000010001000000000400707070707070707",
            "0707070707070707070707070707070707070707070707070707070707070707070707070707070707070707",
            "0707070707070707070707070000000100000000100020000000000000000010000000080909090909090909",
            "00000000",
        );
        let blob = populated();
        let wire = xdr::encode(&blob);
        assert_eq!(hex(&wire), BLOB);
        assert_eq!(decode(&wire).unwrap(), blob);

        let blobs = vec![base(0), base(7)];
        let wire = encode_checkpoint(blobs.clone());
        assert_eq!(hex(&wire), CKPT);
        assert_eq!(decode_checkpoint(&wire).unwrap(), blobs);
    }

    #[test]
    fn empty_base_roundtrips() {
        let meta = SessionMeta {
            token: 1,
            ..SessionMeta::default()
        };
        let blob = blob(MigKind::Base, meta, MemDelta::default());
        let wire = xdr::encode(&blob);
        // Every list empty: the least a blob can occupy.
        assert_eq!(wire.len(), 92);
        assert_eq!(decode(&wire).unwrap(), blob);
    }

    /// Memory moves between the blob and the device's `MemDelta` without
    /// a copy: the block bytes stay in their allocation both ways.
    #[test]
    fn memory_moves_in_and_out_without_a_copy() {
        let block = vec![5u8; 4096];
        let span = vec![6u8; 512];
        let (at_block, at_span) = (block.as_ptr(), span.as_ptr());
        let mem = MemDelta {
            freed: vec![],
            new_blocks: vec![(0x1000, block)],
            dirty: vec![(0x2000, 8, span)],
        };
        let blob = blob(MigKind::Delta, SessionMeta::default(), mem);
        assert_eq!(blob.mem.new_blocks[0].bytes.as_ptr(), at_block);
        let back = mem_delta(blob.mem);
        assert_eq!(back.new_blocks[0].1.as_ptr(), at_block);
        assert_eq!(back.dirty[0].2.as_ptr(), at_span);
        assert_eq!(
            (back.new_blocks[0].0, back.dirty[0].0, back.dirty[0].1),
            (0x1000, 0x2000, 8)
        );
    }

    /// `r` is the refusal of a tagged type's `word`, the error naming both.
    fn wrong_tag<T: std::fmt::Debug>(r: VgpuResult<T>, type_name: &str, word: &str) {
        let err = r.unwrap_err().to_string();
        let named = format!("not a {type_name}: wrong {word} word");
        assert!(err.contains(&named), "{err}");
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode(b"definitely not a migration blob").is_err());
        let mut bad_magic = xdr::encode(&populated());
        bad_magic[0] ^= 0xff;
        wrong_tag(decode(&bad_magic), "mig_blob", "magic");
        let mut bad_version = xdr::encode(&populated());
        bad_version[7] = 2;
        wrong_tag(decode(&bad_version), "mig_blob", "version");
        // A version-0 blob, and a checkpoint offered as a blob.
        bad_version[7] = 0;
        wrong_tag(decode(&bad_version), "mig_blob", "version");
        wrong_tag(decode(&encode_checkpoint(vec![])), "mig_blob", "magic");
        // Unknown kind discriminant.
        let mut bad_kind = xdr::encode(&populated());
        bad_kind[11] = 9;
        assert!(decode(&bad_kind).is_err());
    }

    #[test]
    fn decode_rejects_truncation_at_every_cut() {
        let full = xdr::encode(&populated());
        for cut in [0, 4, 8, 12, full.len() / 3, full.len() / 2, full.len() - 1] {
            assert!(decode(&full[..cut]).is_err(), "cut {cut}");
        }
        // Trailing junk is rejected too.
        let mut long = full.clone();
        long.extend_from_slice(&[0, 0, 0, 0]);
        assert!(decode(&long).is_err());
    }

    /// A valid header, then a `functions` count of `0xFFFF_FFFF` in a 1 MiB
    /// blob, and the same count on the container's blob list: typed
    /// errors, before any element is read.
    #[test]
    fn a_count_bomb_is_a_typed_error() {
        let empty = blob(MigKind::Base, SessionMeta::default(), MemDelta::default());
        let mut bomb = xdr::encode(&empty);
        // magic, version, kind, token, device, now, next_handles count,
        // next_lib_handle, modules count — then the functions count.
        let functions_at = 4 + 4 + 4 + 8 + 4 + 8 + 4 + 8 + 4;
        bomb[functions_at..functions_at + 4].copy_from_slice(&u32::MAX.to_be_bytes());
        bomb.resize(1 << 20, 0);
        let err = decode(&bomb).unwrap_err();
        assert!(matches!(err, VgpuError::InvalidValue(_)), "{err}");

        let mut ckpt = encode_checkpoint(vec![]);
        ckpt[8..12].copy_from_slice(&u32::MAX.to_be_bytes());
        ckpt.resize(1 << 16, 0);
        assert!(decode_checkpoint(&ckpt).is_err());
    }

    #[test]
    fn checkpoint_roundtrips_and_an_empty_server_is_an_empty_container() {
        let blobs = vec![base(0), base(7)];
        let wire = encode_checkpoint(blobs.clone());
        assert_eq!(decode_checkpoint(&wire).unwrap(), blobs);
        let empty = encode_checkpoint(vec![]);
        assert_eq!(empty.len(), 12);
        assert_eq!(decode_checkpoint(&empty).unwrap(), vec![]);
    }

    #[test]
    fn checkpoint_rejects_garbage_and_non_base_blobs() {
        assert!(decode_checkpoint(b"not a snapshot").is_err());
        let good = encode_checkpoint(vec![base(0)]);
        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xff;
        wrong_tag(decode_checkpoint(&bad_magic), "ckpt", "magic");
        let mut bad_version = good.clone();
        bad_version[7] = 1; // the retired whole-device layout
        wrong_tag(decode_checkpoint(&bad_version), "ckpt", "version");
        // A blob inside with a foreign magic or version is refused too.
        let mut bad_inner = good.clone();
        bad_inner[12] ^= 0xff;
        wrong_tag(decode_checkpoint(&bad_inner), "mig_blob", "magic");
        let mut bad_inner_version = good.clone();
        bad_inner_version[19] = 7;
        wrong_tag(decode_checkpoint(&bad_inner_version), "mig_blob", "version");
        // A bare blob is not a checkpoint, and a checkpoint is not a blob.
        wrong_tag(decode_checkpoint(&xdr::encode(&base(0))), "ckpt", "magic");
        wrong_tag(decode(&good), "mig_blob", "magic");
        // Deltas and finals belong to a stream in flight, never at rest —
        // refused while decoding, before any blob reaches the applier.
        for kind in [MigKind::Delta, MigKind::Final] {
            let mut leg = base(0);
            leg.kind = kind;
            let err = decode_checkpoint(&encode_checkpoint(vec![base(0), leg])).unwrap_err();
            assert!(err.to_string().contains("in a checkpoint"), "{err}");
        }
    }

    #[test]
    fn checkpoint_rejects_truncation_at_every_cut() {
        let full = encode_checkpoint(vec![base(0), base(7)]);
        for cut in 0..full.len() {
            assert!(decode_checkpoint(&full[..cut]).is_err(), "cut {cut}");
        }
        let mut long = full.clone();
        long.extend_from_slice(&[0, 0, 0, 0]);
        assert!(decode_checkpoint(&long).is_err());
    }
}
