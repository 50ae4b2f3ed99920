//! RPC message structures (RFC 5531 §9).
//!
//! An [`RpcMessage`] is either a call or a reply, tagged by a transaction id
//! (`xid`). The *body* of a call (procedure arguments) and of a successful
//! reply (results) is not part of these structures — it follows them on the
//! wire and is produced/consumed by generated stubs.

use crate::auth::OpaqueAuth;
use crate::RPC_VERSION;
use xdr::{Xdr, XdrDecoder, XdrEncoder, XdrError, XdrResult, XdrSink};

/// Message direction discriminant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub(crate) enum MsgType {
    /// A request from client to server.
    Call = 0,
    /// A response from server to client.
    Reply = 1,
}

/// Why a call was accepted-but-failed (RFC 5531 §9 `accept_stat`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum AcceptStat {
    /// RPC executed successfully; results follow.
    Success = 0,
    /// Remote hasn't exported the program.
    ProgUnavail = 1,
    /// Remote can't support the requested version; range follows.
    ProgMismatch = 2,
    /// Program can't support the requested procedure.
    ProcUnavail = 3,
    /// Procedure can't decode the supplied parameters.
    GarbageArgs = 4,
    /// Internal server error (memory allocation failure etc.).
    SystemErr = 5,
    /// Vendor extension (`CRICKET_BUSY`): the server shed this call under
    /// overload or quota pressure *without executing it*. The reply body
    /// carries a retry-after hint; because the procedure never ran, a
    /// retransmission is safe even for non-idempotent calls, and the
    /// server must NOT store this reply in its replay cache.
    Busy = 6,
}

impl AcceptStat {
    pub(crate) fn from_u32(v: u32) -> XdrResult<Self> {
        Ok(match v {
            0 => AcceptStat::Success,
            1 => AcceptStat::ProgUnavail,
            2 => AcceptStat::ProgMismatch,
            3 => AcceptStat::ProcUnavail,
            4 => AcceptStat::GarbageArgs,
            5 => AcceptStat::SystemErr,
            6 => AcceptStat::Busy,
            other => {
                return Err(XdrError::InvalidEnum {
                    type_name: "AcceptStat",
                    value: other as i32,
                })
            }
        })
    }
}

/// Why a call was rejected outright (RFC 5531 §9 `reject_stat`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectStat {
    /// RPC version number was not 2; the supported range follows.
    RpcMismatch {
        /// Lowest supported RPC version.
        low: u32,
        /// Highest supported RPC version.
        high: u32,
    },
    /// Authentication failed, with the `auth_stat` cause code.
    AuthError(u32),
}

/// Call body: which remote procedure to execute, with what credentials.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallBody {
    /// RPC protocol version; must be 2.
    pub rpcvers: u32,
    /// Remote program number.
    pub prog: u32,
    /// Remote program version number.
    pub vers: u32,
    /// Procedure number within the program.
    pub proc: u32,
    /// Caller credential.
    pub cred: OpaqueAuth,
    /// Caller verifier.
    pub verf: OpaqueAuth,
}

impl CallBody {
    /// Construct a v2 call with `AUTH_NONE`.
    pub fn new(prog: u32, vers: u32, proc: u32) -> Self {
        Self {
            rpcvers: RPC_VERSION,
            prog,
            vers,
            proc,
            cred: OpaqueAuth::none(),
            verf: OpaqueAuth::none(),
        }
    }
}

impl Xdr for CallBody {
    fn encode<S: XdrSink>(&self, enc: &mut XdrEncoder<S>) {
        enc.put_u32(self.rpcvers);
        enc.put_u32(self.prog);
        enc.put_u32(self.vers);
        enc.put_u32(self.proc);
        self.cred.encode(enc);
        self.verf.encode(enc);
    }
    fn decode(dec: &mut XdrDecoder<'_>) -> XdrResult<Self> {
        Ok(Self {
            rpcvers: dec.get_u32()?,
            prog: dec.get_u32()?,
            vers: dec.get_u32()?,
            proc: dec.get_u32()?,
            cred: OpaqueAuth::decode(dec)?,
            verf: OpaqueAuth::decode(dec)?,
        })
    }
}

/// Reply body: accepted (with a status) or denied (with a cause).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplyBody {
    /// The server processed the call. `Success` means results follow the
    /// message on the wire. `ProgMismatch` carries the supported range.
    Accepted {
        /// Server verifier.
        verf: OpaqueAuth,
        /// Outcome status.
        stat: AcceptStat,
        /// Status-dependent payload words. For `ProgMismatch`: the (low,
        /// high) supported versions. For `Busy`: the retry-after hint in
        /// nanoseconds split as (high word, low word) — see
        /// [`ReplyBody::busy`].
        mismatch: Option<(u32, u32)>,
    },
    /// The server refused the call.
    Denied(RejectStat),
}

impl ReplyBody {
    /// A successful accepted reply with a null verifier.
    pub fn success() -> Self {
        ReplyBody::Accepted {
            verf: OpaqueAuth::none(),
            stat: AcceptStat::Success,
            mismatch: None,
        }
    }

    /// An accepted-but-failed reply.
    pub fn failure(stat: AcceptStat) -> Self {
        debug_assert!(
            stat != AcceptStat::Success
                && stat != AcceptStat::ProgMismatch
                && stat != AcceptStat::Busy,
            "Busy replies carry a hint — use ReplyBody::busy"
        );
        ReplyBody::Accepted {
            verf: OpaqueAuth::none(),
            stat,
            mismatch: None,
        }
    }

    /// A `CRICKET_BUSY` shed reply: the call was not executed; the client
    /// should back off at least `retry_after_ns` before retransmitting.
    pub fn busy(retry_after_ns: u64) -> Self {
        ReplyBody::Accepted {
            verf: OpaqueAuth::none(),
            stat: AcceptStat::Busy,
            mismatch: Some(((retry_after_ns >> 32) as u32, retry_after_ns as u32)),
        }
    }

    /// An accepted reply reporting a program version mismatch.
    pub fn prog_mismatch(low: u32, high: u32) -> Self {
        ReplyBody::Accepted {
            verf: OpaqueAuth::none(),
            stat: AcceptStat::ProgMismatch,
            mismatch: Some((low, high)),
        }
    }
}

impl Xdr for ReplyBody {
    fn encode<S: XdrSink>(&self, enc: &mut XdrEncoder<S>) {
        match self {
            ReplyBody::Accepted {
                verf,
                stat,
                mismatch,
            } => {
                enc.put_u32(0); // MSG_ACCEPTED
                verf.encode(enc);
                enc.put_u32(*stat as u32);
                if matches!(*stat, AcceptStat::ProgMismatch | AcceptStat::Busy) {
                    let (low, high) = mismatch.unwrap_or((0, 0));
                    enc.put_u32(low);
                    enc.put_u32(high);
                }
            }
            ReplyBody::Denied(RejectStat::RpcMismatch { low, high }) => {
                enc.put_u32(1); // MSG_DENIED
                enc.put_u32(0); // RPC_MISMATCH
                enc.put_u32(*low);
                enc.put_u32(*high);
            }
            ReplyBody::Denied(RejectStat::AuthError(stat)) => {
                enc.put_u32(1); // MSG_DENIED
                enc.put_u32(1); // AUTH_ERROR
                enc.put_u32(*stat);
            }
        }
    }

    fn decode(dec: &mut XdrDecoder<'_>) -> XdrResult<Self> {
        match dec.get_u32()? {
            0 => {
                let verf = OpaqueAuth::decode(dec)?;
                let stat = AcceptStat::from_u32(dec.get_u32()?)?;
                let mismatch = if matches!(stat, AcceptStat::ProgMismatch | AcceptStat::Busy) {
                    Some((dec.get_u32()?, dec.get_u32()?))
                } else {
                    None
                };
                Ok(ReplyBody::Accepted {
                    verf,
                    stat,
                    mismatch,
                })
            }
            1 => match dec.get_u32()? {
                0 => Ok(ReplyBody::Denied(RejectStat::RpcMismatch {
                    low: dec.get_u32()?,
                    high: dec.get_u32()?,
                })),
                1 => Ok(ReplyBody::Denied(RejectStat::AuthError(dec.get_u32()?))),
                other => Err(XdrError::InvalidUnionArm {
                    type_name: "ReplyBody::Denied",
                    discriminant: other as i32,
                }),
            },
            other => Err(XdrError::InvalidUnionArm {
                type_name: "ReplyBody",
                discriminant: other as i32,
            }),
        }
    }
}

/// A complete RPC message header (call or reply, without the payload).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RpcMessage {
    /// Transaction id, chosen by the client, echoed by the server.
    pub xid: u32,
    /// Call or reply body.
    pub body: MessageBody,
}

/// Body of an [`RpcMessage`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MessageBody {
    /// A call header.
    Call(CallBody),
    /// A reply header.
    Reply(ReplyBody),
}

impl RpcMessage {
    /// Build a call message.
    pub fn call(xid: u32, body: CallBody) -> Self {
        Self {
            xid,
            body: MessageBody::Call(body),
        }
    }

    /// Build a reply message.
    pub fn reply(xid: u32, body: ReplyBody) -> Self {
        Self {
            xid,
            body: MessageBody::Reply(body),
        }
    }
}

impl Xdr for RpcMessage {
    fn encode<S: XdrSink>(&self, enc: &mut XdrEncoder<S>) {
        enc.put_u32(self.xid);
        match &self.body {
            MessageBody::Call(c) => {
                enc.put_u32(MsgType::Call as u32);
                c.encode(enc);
            }
            MessageBody::Reply(r) => {
                enc.put_u32(MsgType::Reply as u32);
                r.encode(enc);
            }
        }
    }

    fn decode(dec: &mut XdrDecoder<'_>) -> XdrResult<Self> {
        let xid = dec.get_u32()?;
        let body = match dec.get_u32()? {
            0 => MessageBody::Call(CallBody::decode(dec)?),
            1 => MessageBody::Reply(ReplyBody::decode(dec)?),
            other => {
                return Err(XdrError::InvalidUnionArm {
                    type_name: "RpcMessage",
                    discriminant: other as i32,
                })
            }
        };
        Ok(Self { xid, body })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_header_roundtrip() {
        let msg = RpcMessage::call(7, CallBody::new(99, 1, 4));
        let buf = xdr::encode(&msg);
        assert_eq!(xdr::decode::<RpcMessage>(&buf).unwrap(), msg);
    }

    #[test]
    fn call_header_wire_layout() {
        let msg = RpcMessage::call(0x11223344, CallBody::new(0x10, 0x2, 0x3));
        let buf = xdr::encode(&msg);
        // xid, msg_type=0, rpcvers=2, prog, vers, proc, cred(2 words), verf(2 words)
        assert_eq!(buf.len(), 10 * 4);
        assert_eq!(&buf[0..4], &[0x11, 0x22, 0x33, 0x44]);
        assert_eq!(&buf[4..8], &[0, 0, 0, 0]);
        assert_eq!(&buf[8..12], &[0, 0, 0, 2]);
    }

    #[test]
    fn success_reply_roundtrip() {
        let msg = RpcMessage::reply(9, ReplyBody::success());
        let buf = xdr::encode(&msg);
        assert_eq!(xdr::decode::<RpcMessage>(&buf).unwrap(), msg);
    }

    #[test]
    fn prog_mismatch_reply_roundtrip() {
        let msg = RpcMessage::reply(9, ReplyBody::prog_mismatch(1, 3));
        let buf = xdr::encode(&msg);
        match xdr::decode::<RpcMessage>(&buf).unwrap().body {
            MessageBody::Reply(ReplyBody::Accepted {
                stat: AcceptStat::ProgMismatch,
                mismatch: Some((1, 3)),
                ..
            }) => {}
            other => panic!("unexpected decode: {other:?}"),
        }
    }

    #[test]
    fn denied_replies_roundtrip() {
        for body in [
            ReplyBody::Denied(RejectStat::RpcMismatch { low: 2, high: 2 }),
            ReplyBody::Denied(RejectStat::AuthError(5)),
        ] {
            let msg = RpcMessage::reply(1, body.clone());
            let buf = xdr::encode(&msg);
            assert_eq!(
                xdr::decode::<RpcMessage>(&buf).unwrap().body,
                MessageBody::Reply(body)
            );
        }
    }

    #[test]
    fn bad_msg_type_rejected() {
        let mut enc = XdrEncoder::new();
        enc.put_u32(1); // xid
        enc.put_u32(9); // invalid msg type
        assert!(xdr::decode::<RpcMessage>(enc.as_slice()).is_err());
    }

    #[test]
    fn busy_reply_roundtrips_its_retry_hint() {
        // Hint wider than 32 bits to exercise the (hi, lo) word split.
        let hint = (7u64 << 32) | 123_456;
        let msg = RpcMessage::reply(4, ReplyBody::busy(hint));
        let wire = xdr::encode(&msg);
        assert_eq!(wire[wire.len() - 8..], hint.to_be_bytes());
        assert_eq!(xdr::decode::<RpcMessage>(&wire).unwrap(), msg);
    }

    #[test]
    fn failure_reply_statuses_roundtrip() {
        for stat in [
            AcceptStat::ProgUnavail,
            AcceptStat::ProcUnavail,
            AcceptStat::GarbageArgs,
            AcceptStat::SystemErr,
        ] {
            let msg = RpcMessage::reply(3, ReplyBody::failure(stat));
            let back = xdr::decode::<RpcMessage>(&xdr::encode(&msg)).unwrap();
            assert_eq!(back, msg);
        }
    }
}
