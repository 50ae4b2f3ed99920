//! Authentication flavors (RFC 5531 §8.2, §9.1).
//!
//! Cricket uses `AUTH_NONE`, and `AUTH_SHORT` to carry a client token. Any
//! other flavor is passed through as its number and opaque body.

use xdr::{Xdr, XdrDecoder, XdrEncoder, XdrResult, XdrSink};

/// Well-known auth flavor numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u32)]
pub(crate) enum AuthFlavor {
    /// No authentication.
    None = 0,
    /// Short-hand verifier issued by the server.
    Short = 2,
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
    pub(crate) fn none() -> Self {
        Self {
            flavor: AuthFlavor::None as u32,
            body: Vec::new(),
        }
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
    pub(crate) fn as_client_token(&self) -> Option<u64> {
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
    fn oversized_auth_body_rejected() {
        let a = OpaqueAuth {
            flavor: 0,
            body: vec![0u8; MAX_AUTH_BODY + 1],
        };
        let buf = xdr::encode(&a);
        assert!(xdr::decode::<OpaqueAuth>(&buf).is_err());
    }

    #[test]
    fn client_token_roundtrip() {
        let auth = OpaqueAuth::client_token(0xdead_beef_cafe_f00d);
        assert_eq!(auth.flavor, AuthFlavor::Short as u32);
        let back = xdr::decode::<OpaqueAuth>(&xdr::encode(&auth)).unwrap();
        assert_eq!(back.as_client_token(), Some(0xdead_beef_cafe_f00d));
        assert!(OpaqueAuth::none().as_client_token().is_none());
    }
}
