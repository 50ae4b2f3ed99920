//! Authentication flavors (RFC 5531 §8.2, §9.1).
//!
//! Cricket itself uses `AUTH_NONE`; `AUTH_SYS` (historically `AUTH_UNIX`) is
//! implemented for completeness and exercised by tests.

use xdr::{Xdr, XdrDecoder, XdrEncoder, XdrError, XdrResult, XdrSink, XdrVec};

/// Well-known auth flavor numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u32)]
pub enum AuthFlavor {
    /// No authentication.
    None = 0,
    /// Unix-style credentials (uid/gid/machine name).
    Sys = 1,
    /// Short-hand verifier issued by the server.
    Short = 2,
}

impl AuthFlavor {
    /// Parse a wire flavor number.
    pub fn from_u32(v: u32) -> Option<Self> {
        match v {
            0 => Some(AuthFlavor::None),
            1 => Some(AuthFlavor::Sys),
            2 => Some(AuthFlavor::Short),
            _ => None,
        }
    }
}

/// Maximum opaque auth body size permitted by RFC 5531.
pub(crate) const MAX_AUTH_BODY: usize = 400;

/// An authentication item: flavor + opaque body.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OpaqueAuth {
    /// Flavor number (may be a value we do not recognize; passed through).
    pub flavor: u32,
    /// Flavor-specific payload, at most 400 bytes (RFC 5531's limit).
    pub body: Vec<u8>,
}

impl OpaqueAuth {
    /// `AUTH_NONE` credential/verifier.
    pub fn none() -> Self {
        Self {
            flavor: AuthFlavor::None as u32,
            body: Vec::new(),
        }
    }

    /// Build an `AUTH_SYS` credential.
    pub fn sys(cred: &AuthSysParams) -> Self {
        let mut enc = XdrEncoder::new();
        cred.encode(&mut enc);
        Self {
            flavor: AuthFlavor::Sys as u32,
            body: enc.into_inner(),
        }
    }

    /// Decode the body as `AUTH_SYS` parameters, if the flavor matches.
    pub fn as_sys(&self) -> Option<AuthSysParams> {
        if self.flavor != AuthFlavor::Sys as u32 {
            return None;
        }
        xdr::decode(&self.body).ok()
    }

    /// Build a credential carrying a stable client-instance token, used to
    /// key the server's at-most-once replay cache. `AUTH_SHORT` is the
    /// natural carrier: RFC 5531 defines it as an opaque server-interpreted
    /// handle, and Cricket does not otherwise use it.
    pub fn client_token(token: u64) -> Self {
        Self {
            flavor: AuthFlavor::Short as u32,
            body: token.to_be_bytes().to_vec(),
        }
    }

    /// Extract a client token written by [`OpaqueAuth::client_token`].
    pub fn as_client_token(&self) -> Option<u64> {
        if self.flavor != AuthFlavor::Short as u32 {
            return None;
        }
        Some(u64::from_be_bytes(self.body.as_slice().try_into().ok()?))
    }
}

impl Xdr for OpaqueAuth {
    fn encode<S: XdrSink>(&self, enc: &mut XdrEncoder<S>) {
        enc.put_u32(self.flavor);
        enc.put_opaque(&self.body);
    }
    fn decode(dec: &mut XdrDecoder<'_>) -> XdrResult<Self> {
        let flavor = dec.get_u32()?;
        let body = dec.get_opaque_max(MAX_AUTH_BODY)?.to_vec();
        Ok(Self { flavor, body })
    }
}

/// `AUTH_SYS` credential contents (RFC 5531 Appendix A).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuthSysParams {
    /// Seconds since epoch at credential creation.
    pub stamp: u32,
    /// Caller's machine name.
    pub machinename: String,
    /// Effective user id.
    pub uid: u32,
    /// Effective group id.
    pub gid: u32,
    /// Supplementary group ids (at most 16).
    pub gids: Vec<u32>,
}

impl Xdr for AuthSysParams {
    fn encode<S: XdrSink>(&self, enc: &mut XdrEncoder<S>) {
        enc.put_u32(self.stamp);
        enc.put_string(&self.machinename);
        enc.put_u32(self.uid);
        enc.put_u32(self.gid);
        enc.put_array(&self.gids);
    }
    fn decode(dec: &mut XdrDecoder<'_>) -> XdrResult<Self> {
        let stamp = dec.get_u32()?;
        let machinename = dec.get_string()?;
        if machinename.len() > 255 {
            return Err(XdrError::LengthOutOfBounds {
                len: machinename.len(),
                max: 255,
            });
        }
        let uid = dec.get_u32()?;
        let gid = dec.get_u32()?;
        let gids: XdrVec<u32> = dec.get()?;
        if gids.len() > 16 {
            return Err(XdrError::LengthOutOfBounds {
                len: gids.len(),
                max: 16,
            });
        }
        Ok(Self {
            stamp,
            machinename,
            uid,
            gid,
            gids: gids.0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_auth_is_empty() {
        let a = OpaqueAuth::none();
        let buf = xdr::encode(&a);
        assert_eq!(buf, [0, 0, 0, 0, 0, 0, 0, 0]); // flavor 0, length 0
        assert_eq!(xdr::decode::<OpaqueAuth>(&buf).unwrap(), a);
    }

    #[test]
    fn sys_auth_roundtrip() {
        let params = AuthSysParams {
            stamp: 12345,
            machinename: "gpu-node-0".into(),
            uid: 1000,
            gid: 1000,
            gids: vec![4, 24, 27],
        };
        let auth = OpaqueAuth::sys(&params);
        assert_eq!(auth.flavor, AuthFlavor::Sys as u32);
        let back = xdr::decode::<OpaqueAuth>(&xdr::encode(&auth)).unwrap();
        assert_eq!(back.as_sys().unwrap(), params);
    }

    #[test]
    fn oversized_auth_body_rejected() {
        let a = OpaqueAuth {
            flavor: 0,
            body: vec![0u8; MAX_AUTH_BODY + 1],
        };
        let buf = xdr::encode(&a);
        assert!(xdr::decode::<OpaqueAuth>(&buf).is_err());
    }

    #[test]
    fn as_sys_on_wrong_flavor_is_none() {
        assert!(OpaqueAuth::none().as_sys().is_none());
    }

    #[test]
    fn client_token_roundtrip() {
        let auth = OpaqueAuth::client_token(0xdead_beef_cafe_f00d);
        assert_eq!(auth.flavor, AuthFlavor::Short as u32);
        let back = xdr::decode::<OpaqueAuth>(&xdr::encode(&auth)).unwrap();
        assert_eq!(back.as_client_token(), Some(0xdead_beef_cafe_f00d));
        assert!(OpaqueAuth::none().as_client_token().is_none());
    }

    #[test]
    fn too_many_gids_rejected() {
        let params = AuthSysParams {
            stamp: 0,
            machinename: "m".into(),
            uid: 0,
            gid: 0,
            gids: vec![0; 17],
        };
        let mut enc = XdrEncoder::new();
        params.encode(&mut enc);
        assert!(xdr::decode::<AuthSysParams>(enc.as_slice()).is_err());
    }
}
