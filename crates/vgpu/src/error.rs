//! Error codes mirroring the CUDA error space (the subset Cricket forwards).

use std::fmt;

/// Numeric CUDA error codes as they appear on the wire (matches the
/// `cuda_error` enum in `cricket.x`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(i32)]
pub enum CudaCode {
    /// Success.
    Success = 0,
    /// An argument was out of range or otherwise invalid.
    InvalidValue = 1,
    /// Device memory exhausted.
    MemoryAllocation = 2,
    /// Device/runtime not initialized.
    Initialization = 3,
    /// Bad device ordinal.
    InvalidDevice = 101,
    /// Unknown stream/event/module/function handle.
    InvalidHandle = 400,
    /// Named symbol not found in a module.
    NotFound = 500,
    /// A kernel failed during execution.
    LaunchFailure = 719,
}

/// Errors from the simulated device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VgpuError {
    /// Allocation failed: requested bytes and remaining free bytes.
    OutOfMemory {
        /// Bytes requested.
        requested: u64,
        /// Bytes free (total, possibly fragmented).
        free: u64,
    },
    /// The pointer does not fall inside any live allocation.
    InvalidPointer(u64),
    /// `cudaFree` of a pointer that is not an allocation base (or was
    /// already freed) — the class of bug the paper's safe Rust wrapper
    /// ("GPU allocations work like local heap allocations") eliminates.
    InvalidFree(u64),
    /// An access ran past the end of its allocation.
    OutOfBounds {
        /// Offending pointer.
        ptr: u64,
        /// Bytes requested at that pointer.
        len: u64,
        /// Bytes actually available there.
        available: u64,
    },
    /// Unknown module/function/stream/event handle.
    InvalidHandle(u64),
    /// Module image could not be parsed.
    BadModule(String),
    /// Kernel execution failed.
    LaunchFailure(String),
    /// Bad device ordinal.
    InvalidDevice(i32),
    /// Invalid argument (geometry, sizes, enum values...).
    InvalidValue(String),
}

impl VgpuError {
    /// The CUDA error code this error maps to on the wire.
    pub fn code(&self) -> CudaCode {
        match self {
            VgpuError::OutOfMemory { .. } => CudaCode::MemoryAllocation,
            VgpuError::InvalidPointer(_) | VgpuError::InvalidFree(_) => CudaCode::InvalidValue,
            VgpuError::OutOfBounds { .. } => CudaCode::InvalidValue,
            VgpuError::InvalidHandle(_) => CudaCode::InvalidHandle,
            VgpuError::BadModule(_) => CudaCode::NotFound,
            VgpuError::LaunchFailure(_) => CudaCode::LaunchFailure,
            VgpuError::InvalidDevice(_) => CudaCode::InvalidDevice,
            VgpuError::InvalidValue(_) => CudaCode::InvalidValue,
        }
    }
}

impl fmt::Display for VgpuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VgpuError::OutOfMemory { requested, free } => {
                write!(
                    f,
                    "out of device memory: requested {requested}, free {free}"
                )
            }
            VgpuError::InvalidPointer(p) => write!(f, "invalid device pointer {p:#x}"),
            VgpuError::InvalidFree(p) => write!(f, "invalid free of {p:#x}"),
            VgpuError::OutOfBounds {
                ptr,
                len,
                available,
            } => write!(
                f,
                "access of {len} bytes at {ptr:#x} exceeds allocation ({available} available)"
            ),
            VgpuError::InvalidHandle(h) => write!(f, "invalid handle {h:#x}"),
            VgpuError::BadModule(m) => write!(f, "bad module image: {m}"),
            VgpuError::LaunchFailure(m) => write!(f, "kernel launch failure: {m}"),
            VgpuError::InvalidDevice(d) => write!(f, "invalid device ordinal {d}"),
            VgpuError::InvalidValue(m) => write!(f, "invalid value: {m}"),
        }
    }
}

impl std::error::Error for VgpuError {}

/// Result alias for device operations.
pub type VgpuResult<T> = Result<T, VgpuError>;

/// The product of `factors` — a byte span sized from a peer's dimensions,
/// counts and leading dimensions — or `InvalidValue` naming `what` when it
/// overflows: they arrive off the wire, unbounded.
pub(crate) fn span(what: &str, factors: &[u64]) -> VgpuResult<u64> {
    factors
        .iter()
        .try_fold(1u64, |acc, &f| acc.checked_mul(f))
        .ok_or_else(|| VgpuError::InvalidValue(format!("{what} overflows 64 bits")))
}

/// The most multiply-adds one library call may make a host core do: m·n·k
/// for a GEMM, m·n·min(m, n) for an LU, n²·nrhs for its solve. The library
/// runs on the server's host, on a worker shard other connections wait on,
/// so a call past it is refused before any operand is read. The paper's LU
/// (n = 900, 7.3·10⁸) fits under it; a square GEMM or LU past n = 1024 does
/// not.
pub const MAX_HOST_WORK: u64 = 1 << 30;

/// `InvalidValue` if `what`'s host work, the product of `dims`, passes
/// [`MAX_HOST_WORK`].
pub(crate) fn host_work(what: &str, dims: &[u64]) -> VgpuResult<()> {
    match span(what, dims)? {
        work if work > MAX_HOST_WORK => Err(VgpuError::InvalidValue(format!(
            "{what} takes {work} host multiply-adds, past {MAX_HOST_WORK}"
        ))),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_match_wire_numbers() {
        assert_eq!(CudaCode::Success as i32, 0);
        assert_eq!(CudaCode::MemoryAllocation as i32, 2);
        assert_eq!(CudaCode::InvalidHandle as i32, 400);
        assert_eq!(CudaCode::LaunchFailure as i32, 719);
    }

    #[test]
    fn error_to_code_mapping() {
        assert_eq!(
            VgpuError::OutOfMemory {
                requested: 1,
                free: 0
            }
            .code(),
            CudaCode::MemoryAllocation
        );
        assert_eq!(VgpuError::InvalidHandle(9).code(), CudaCode::InvalidHandle);
        assert_eq!(
            VgpuError::LaunchFailure("x".into()).code(),
            CudaCode::LaunchFailure
        );
    }

    #[test]
    fn display_is_informative() {
        let e = VgpuError::OutOfBounds {
            ptr: 0x100,
            len: 64,
            available: 32,
        };
        let s = e.to_string();
        assert!(s.contains("0x100") && s.contains("64") && s.contains("32"));
    }
}
