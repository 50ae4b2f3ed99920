//! Cubin-like module container.
//!
//! The paper extends Cricket to load kernels from `cubin` files via the
//! `cuModule` API: the client reads a compiled kernel image and ships it to
//! the server, which extracts metadata — "kernel names, kernel parameter
//! information and global variables" — decompressing the image when the
//! compiler compressed it (§3.3). This module defines the reproduction's
//! container with exactly those ingredients.
//!
//! Layout (little-endian):
//!
//! ```text
//! "VCUB" | version u32 | flags u32 | body...
//! body (LZSS-compressed when flags&1):
//!   kernel_count u32
//!     { name_len u32, name bytes, param_count u32, param_sizes u32... } ...
//!   global_count u32
//!     { name_len u32, name bytes, size u64 } ...
//!   code_len u32, code bytes
//! ```

use crate::error::{VgpuError, VgpuResult};
use crate::fatbin;

/// Magic prefix of a module image.
pub(crate) const MAGIC: &[u8; 4] = b"VCUB";
/// Container version this code writes and accepts.
pub(crate) const VERSION: u32 = 1;
/// Flag bit: body is LZSS-compressed.
pub(crate) const FLAG_COMPRESSED: u32 = 1;

/// Metadata of one kernel exported by a module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelMeta {
    /// Kernel symbol name (what `cuModuleGetFunction` looks up).
    pub name: String,
    /// Size in bytes of each parameter, in order. Pointers are 8 bytes.
    pub param_sizes: Vec<u32>,
}

/// Metadata of one module-scope global variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalMeta {
    /// Symbol name.
    pub name: String,
    /// Size in bytes.
    pub size: u64,
}

/// A parsed module image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cubin {
    /// Exported kernels.
    pub kernels: Vec<KernelMeta>,
    /// Module globals.
    pub globals: Vec<GlobalMeta>,
    /// Device code blob (opaque to the loader; kernels resolve to builtin
    /// implementations by name).
    pub code: Vec<u8>,
}

impl Cubin {
    /// Parse (and decompress, if flagged) a module image.
    pub fn parse(image: &[u8]) -> VgpuResult<Self> {
        if image.len() < 12 || &image[0..4] != MAGIC {
            return Err(VgpuError::BadModule("missing VCUB magic".into()));
        }
        let version = u32::from_le_bytes(image[4..8].try_into().unwrap());
        if version != VERSION {
            return Err(VgpuError::BadModule(format!(
                "unsupported container version {version}"
            )));
        }
        let flags = u32::from_le_bytes(image[8..12].try_into().unwrap());
        let body_raw = &image[12..];
        let body;
        let body = if flags & FLAG_COMPRESSED != 0 {
            body = fatbin::decompress(body_raw)?;
            &body[..]
        } else {
            body_raw
        };
        let mut r = Reader { buf: body, pos: 0 };

        let kernel_count = r.u32()?;
        if kernel_count > 4096 {
            return Err(VgpuError::BadModule(format!(
                "implausible kernel count {kernel_count}"
            )));
        }
        let mut kernels = Vec::with_capacity(kernel_count as usize);
        for _ in 0..kernel_count {
            let name = r.string()?;
            let param_count = r.u32()?;
            if param_count > 256 {
                return Err(VgpuError::BadModule(format!(
                    "kernel `{name}` has implausible parameter count {param_count}"
                )));
            }
            let mut param_sizes = Vec::with_capacity(param_count as usize);
            for _ in 0..param_count {
                param_sizes.push(r.u32()?);
            }
            kernels.push(KernelMeta { name, param_sizes });
        }

        let global_count = r.u32()?;
        if global_count > 4096 {
            return Err(VgpuError::BadModule("implausible global count".into()));
        }
        let mut globals = Vec::with_capacity(global_count as usize);
        for _ in 0..global_count {
            let name = r.string()?;
            let size = r.u64()?;
            globals.push(GlobalMeta { name, size });
        }

        let code_len = r.u32()? as usize;
        let code = r.bytes(code_len)?.to_vec();
        if r.pos != body.len() {
            return Err(VgpuError::BadModule("trailing bytes in module body".into()));
        }
        Ok(Self {
            kernels,
            globals,
            code,
        })
    }

    /// Find a kernel's metadata by name.
    pub fn kernel(&self, name: &str) -> Option<&KernelMeta> {
        self.kernels.iter().find(|k| k.name == name)
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn bytes(&mut self, n: usize) -> VgpuResult<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(VgpuError::BadModule("truncated module body".into()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u32(&mut self) -> VgpuResult<u32> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> VgpuResult<u64> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }
    fn string(&mut self) -> VgpuResult<String> {
        let len = self.u32()? as usize;
        if len > 4096 {
            return Err(VgpuError::BadModule("implausible name length".into()));
        }
        let bytes = self.bytes(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| VgpuError::BadModule("non-UTF-8 symbol name".into()))
    }
}

/// Builder for module images (what `nvcc` would produce).
#[derive(Debug, Default)]
pub struct CubinBuilder {
    kernels: Vec<KernelMeta>,
    globals: Vec<GlobalMeta>,
    code: Vec<u8>,
}

impl CubinBuilder {
    /// Start an empty module.
    pub fn new() -> Self {
        Self::default()
    }

    /// Export a kernel with the given parameter sizes.
    pub fn kernel(mut self, name: &str, param_sizes: &[u32]) -> Self {
        self.kernels.push(KernelMeta {
            name: name.into(),
            param_sizes: param_sizes.to_vec(),
        });
        self
    }

    /// Attach a device code blob.
    pub fn code(mut self, code: &[u8]) -> Self {
        self.code = code.to_vec();
        self
    }

    /// Serialize, optionally compressing the body.
    pub fn build(self, compressed: bool) -> Vec<u8> {
        let mut body = Vec::new();
        body.extend_from_slice(&(self.kernels.len() as u32).to_le_bytes());
        for k in &self.kernels {
            body.extend_from_slice(&(k.name.len() as u32).to_le_bytes());
            body.extend_from_slice(k.name.as_bytes());
            body.extend_from_slice(&(k.param_sizes.len() as u32).to_le_bytes());
            for &s in &k.param_sizes {
                body.extend_from_slice(&s.to_le_bytes());
            }
        }
        body.extend_from_slice(&(self.globals.len() as u32).to_le_bytes());
        for g in &self.globals {
            body.extend_from_slice(&(g.name.len() as u32).to_le_bytes());
            body.extend_from_slice(g.name.as_bytes());
            body.extend_from_slice(&g.size.to_le_bytes());
        }
        body.extend_from_slice(&(self.code.len() as u32).to_le_bytes());
        body.extend_from_slice(&self.code);

        let mut out = Vec::with_capacity(body.len() + 12);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        if compressed {
            out.extend_from_slice(&FLAG_COMPRESSED.to_le_bytes());
            out.extend_from_slice(&fatbin::compress(&body));
        } else {
            out.extend_from_slice(&0u32.to_le_bytes());
            out.extend_from_slice(&body);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl CubinBuilder {
        /// Declare a module global.
        fn global(mut self, name: &str, size: u64) -> Self {
            self.globals.push(GlobalMeta {
                name: name.into(),
                size,
            });
            self
        }
    }

    fn sample() -> CubinBuilder {
        CubinBuilder::new()
            .kernel("matrixMul", &[8, 8, 8, 4, 4])
            .kernel("histogram64", &[8, 8, 4])
            .global("g_seed", 8)
            .code(b"fake SASS fake SASS fake SASS")
    }

    #[test]
    fn roundtrip_uncompressed() {
        let image = sample().build(false);
        let cubin = Cubin::parse(&image).unwrap();
        assert_eq!(cubin.kernels.len(), 2);
        assert_eq!(
            cubin.kernel("matrixMul").unwrap().param_sizes,
            [8, 8, 8, 4, 4]
        );
        assert_eq!(cubin.globals[0].name, "g_seed");
        assert_eq!(cubin.code, b"fake SASS fake SASS fake SASS");
        assert!(cubin.kernel("nope").is_none());
    }

    #[test]
    fn roundtrip_compressed() {
        let plain = sample().build(false);
        let compressed = sample().build(true);
        assert_ne!(plain, compressed);
        assert_eq!(
            Cubin::parse(&plain).unwrap(),
            Cubin::parse(&compressed).unwrap()
        );
    }

    #[test]
    fn compression_actually_shrinks_large_modules() {
        let code = b"repetitive device code block ".repeat(200);
        let plain = CubinBuilder::new().code(&code).build(false);
        let compressed = CubinBuilder::new().code(&code).build(true);
        assert!(compressed.len() < plain.len() / 2);
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(matches!(
            Cubin::parse(b"ELF\x7f___________"),
            Err(VgpuError::BadModule(_))
        ));
        assert!(Cubin::parse(b"VC").is_err());
    }

    #[test]
    fn bad_version_rejected() {
        let mut image = sample().build(false);
        image[4] = 9;
        assert!(Cubin::parse(&image).is_err());
    }

    #[test]
    fn truncations_rejected_everywhere() {
        let image = sample().build(false);
        for cut in (12..image.len()).step_by(7) {
            assert!(Cubin::parse(&image[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn corrupt_compressed_body_rejected() {
        let mut image = sample().build(true);
        let n = image.len();
        image.truncate(n - 3);
        assert!(Cubin::parse(&image).is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut image = sample().build(false);
        image.extend_from_slice(b"junk");
        assert!(Cubin::parse(&image).is_err());
    }
}
