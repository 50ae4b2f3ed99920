//! Error type shared by XDR encoding and decoding.

use std::fmt;

/// Result alias used throughout the XDR crate.
pub type XdrResult<T> = Result<T, XdrError>;

/// Errors that can occur while decoding (and, rarely, encoding) XDR data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XdrError {
    /// The input ended before the requested item could be read.
    Truncated {
        /// Bytes needed to complete the read.
        needed: usize,
        /// Bytes remaining in the input.
        remaining: usize,
    },
    /// A variable-length item declared a length beyond the permitted maximum.
    LengthOutOfBounds {
        /// Declared length.
        len: usize,
        /// Maximum allowed by the schema.
        max: usize,
    },
    /// A boolean field held a value other than 0 or 1.
    InvalidBool(u32),
    /// An enum discriminant did not match any variant of the target type.
    InvalidEnum {
        /// Name of the enum type being decoded.
        type_name: &'static str,
        /// The offending discriminant.
        value: i32,
    },
    /// A union discriminant did not match any arm.
    InvalidUnionArm {
        /// Name of the union type being decoded.
        type_name: &'static str,
        /// The offending discriminant.
        discriminant: i32,
    },
    /// A string field contained invalid UTF-8. XDR strings are ASCII by
    /// specification; we enforce UTF-8, a strict superset.
    InvalidUtf8,
    /// Non-zero padding bytes were found where zero fill was required.
    NonZeroPadding,
    /// `decode` was asked to consume the whole buffer but bytes remained.
    TrailingBytes {
        /// Number of unconsumed bytes.
        remaining: usize,
    },
    /// An `Option` (XDR "pointer") tag held a value other than 0 or 1.
    InvalidOptionTag(u32),
    /// A leading word of a struct the `.x` file tags (`MAGIC_<type>`,
    /// `VERSION_<type>`) held another value: a foreign or unsupported format.
    WrongTag {
        /// RPCL name of the tagged struct.
        type_name: &'static str,
        /// The word that failed: `"magic"` or `"version"`.
        word: &'static str,
        /// The value found on the wire.
        found: u32,
    },
    /// Catch-all for schema-level violations detected by generated code.
    Custom(String),
}

impl fmt::Display for XdrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XdrError::Truncated { needed, remaining } => write!(
                f,
                "truncated XDR input: needed {needed} bytes, {remaining} remaining"
            ),
            XdrError::LengthOutOfBounds { len, max } => {
                write!(f, "declared length {len} exceeds maximum {max}")
            }
            XdrError::InvalidBool(v) => write!(f, "invalid XDR bool value {v}"),
            XdrError::InvalidEnum { type_name, value } => {
                write!(f, "invalid discriminant {value} for enum {type_name}")
            }
            XdrError::InvalidUnionArm {
                type_name,
                discriminant,
            } => write!(f, "invalid arm {discriminant} for union {type_name}"),
            XdrError::InvalidUtf8 => write!(f, "string is not valid UTF-8"),
            XdrError::NonZeroPadding => write!(f, "non-zero XDR padding"),
            XdrError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after decode")
            }
            XdrError::InvalidOptionTag(v) => write!(f, "invalid optional tag {v}"),
            XdrError::WrongTag {
                type_name,
                word,
                found,
            } => write!(f, "not a {type_name}: wrong {word} word {found:#x}"),
            XdrError::Custom(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for XdrError {}
