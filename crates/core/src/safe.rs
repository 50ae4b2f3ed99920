//! Safe, Rust-idiomatic GPU API.
//!
//! The paper (§3.4): *"To additionally support the Rust concept of
//! lifetimes for GPU memory, we wrap the cudaMalloc and cudaFree APIs,
//! making GPU allocations work like local heap allocations. This way, we
//! can guarantee the absence of use-after-free and double-free errors for
//! the CUDA allocation API."*
//!
//! * [`DeviceBuffer<T>`] frees its allocation on drop and borrows the
//!   [`Context`], so it cannot outlive the connection.
//! * [`Module`], [`Stream`] and [`Event`] release their handles on drop.
//! * Element types implement [`DeviceCopy`], which fixes the on-device
//!   byte layout (little-endian, like the real GPU).

use crate::error::ClientResult;
use crate::raw::CricketClient;
use crate::Dim3;
use std::cell::RefCell;
use std::marker::PhantomData;

/// Types that can be copied to/from device memory.
pub trait DeviceCopy: Copy {
    /// Size of one element on the device.
    const SIZE: usize;
    /// Serialize a host slice into device byte layout.
    fn to_device_bytes(host: &[Self]) -> Vec<u8>;
    /// Deserialize device bytes into host values.
    fn from_device_bytes(bytes: &[u8]) -> Vec<Self>;
}

macro_rules! device_copy_impl {
    ($ty:ty, $size:expr) => {
        impl DeviceCopy for $ty {
            const SIZE: usize = $size;
            fn to_device_bytes(host: &[Self]) -> Vec<u8> {
                let mut out = Vec::with_capacity(host.len() * $size);
                for v in host {
                    out.extend_from_slice(&v.to_le_bytes());
                }
                out
            }
            fn from_device_bytes(bytes: &[u8]) -> Vec<Self> {
                bytes
                    .chunks_exact($size)
                    .map(|c| <$ty>::from_le_bytes(c.try_into().unwrap()))
                    .collect()
            }
        }
    };
}

device_copy_impl!(u8, 1);
device_copy_impl!(i32, 4);
device_copy_impl!(u32, 4);
device_copy_impl!(u64, 8);
device_copy_impl!(i64, 8);
device_copy_impl!(f32, 4);
device_copy_impl!(f64, 8);

/// A connection to a (possibly remote) GPU through Cricket.
///
/// Interior mutability lets `&Context`-borrowing resources (buffers,
/// modules) issue RPCs; the client is single-threaded per context, like a
/// CUDA context.
pub struct Context {
    client: RefCell<CricketClient>,
}

impl Context {
    /// Wrap an existing raw client.
    pub fn from_client(client: CricketClient) -> Self {
        Self {
            client: RefCell::new(client),
        }
    }

    /// Connect to a Cricket deployment — a single server
    /// ([`crate::Endpoint::Addr`]) or a fleet directory
    /// ([`crate::Endpoint::Directory`], resolved once with failover).
    pub fn connect(endpoint: &crate::Endpoint) -> ClientResult<Self> {
        Ok(Self::from_client(CricketClient::connect(endpoint)?))
    }

    /// Run `f` with the raw client (escape hatch for APIs without safe
    /// wrappers).
    pub fn with_raw<R>(&self, f: impl FnOnce(&mut CricketClient) -> R) -> R {
        f(&mut self.client.borrow_mut())
    }

    /// Snapshot of the client-side accounting.
    pub fn stats(&self) -> crate::ApiStats {
        self.client.borrow().stats.clone()
    }

    /// Number of visible devices.
    pub fn device_count(&self) -> ClientResult<i32> {
        self.client.borrow_mut().device_count()
    }

    /// Properties of device `ordinal`.
    pub fn device_properties(&self, ordinal: i32) -> ClientResult<cricket_proto::DeviceProp> {
        self.client.borrow_mut().device_properties(ordinal)
    }

    /// Wait for all device work.
    pub fn synchronize(&self) -> ClientResult<()> {
        self.client.borrow_mut().device_synchronize()
    }

    /// Allocate an uninitialized (zeroed) buffer of `len` elements.
    pub fn alloc<T: DeviceCopy>(&self, len: usize) -> ClientResult<DeviceBuffer<'_, T>> {
        let ptr = self.client.borrow_mut().malloc((len * T::SIZE) as u64)?;
        Ok(DeviceBuffer {
            ctx: self,
            ptr,
            len,
            _marker: PhantomData,
        })
    }

    /// Allocate and upload.
    pub fn upload<T: DeviceCopy>(&self, host: &[T]) -> ClientResult<DeviceBuffer<'_, T>> {
        let buf = self.alloc(host.len())?;
        buf.copy_from_slice(host)?;
        Ok(buf)
    }

    /// Load a kernel module from a cubin image.
    pub fn load_module(&self, image: &[u8]) -> ClientResult<Module<'_>> {
        let handle = self.client.borrow_mut().module_load(image)?;
        Ok(Module { ctx: self, handle })
    }

    /// Create a stream.
    pub fn stream(&self) -> ClientResult<Stream<'_>> {
        let handle = self.client.borrow_mut().stream_create()?;
        Ok(Stream { ctx: self, handle })
    }

    /// Create an event.
    pub fn event(&self) -> ClientResult<Event<'_>> {
        let handle = self.client.borrow_mut().event_create()?;
        Ok(Event { ctx: self, handle })
    }

    /// Launch `func` with the given geometry and marshalled parameters.
    pub fn launch(
        &self,
        func: &Function<'_>,
        grid: Dim3,
        block: Dim3,
        shared_mem: u32,
        stream: Option<&Stream<'_>>,
        params: &[u8],
    ) -> ClientResult<()> {
        self.client.borrow_mut().launch_kernel(
            func.handle,
            grid,
            block,
            shared_mem,
            stream.map(|s| s.handle).unwrap_or(0),
            params,
        )
    }
}

/// A device allocation of `len` elements of `T`, freed on drop.
pub struct DeviceBuffer<'ctx, T: DeviceCopy> {
    ctx: &'ctx Context,
    ptr: u64,
    len: usize,
    _marker: PhantomData<T>,
}

impl<'ctx, T: DeviceCopy> DeviceBuffer<'ctx, T> {
    /// Raw device pointer (for kernel parameters).
    pub fn ptr(&self) -> u64 {
        self.ptr
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when zero-length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Byte size on the device.
    pub fn byte_len(&self) -> u64 {
        (self.len * T::SIZE) as u64
    }

    /// Upload `host` (must match the buffer length).
    pub fn copy_from_slice(&self, host: &[T]) -> ClientResult<()> {
        assert_eq!(host.len(), self.len, "host slice length mismatch");
        self.ctx
            .client
            .borrow_mut()
            .memcpy_htod(self.ptr, &T::to_device_bytes(host))
    }

    /// Download the buffer contents: the bytes are read into the client's
    /// pooled scratch buffer and decoded from there, so the returned `Vec`
    /// is the call's one allocation once the scratch is warm.
    pub fn copy_to_vec(&self) -> ClientResult<Vec<T>> {
        let mut client = self.ctx.client.borrow_mut();
        let mut bytes = std::mem::take(&mut client.scratch);
        bytes.resize(self.byte_len() as usize, 0);
        let read = client.dtoh(self.ptr, &mut bytes);
        let decoded = read.map(|()| T::from_device_bytes(&bytes));
        bytes.clear();
        client.scratch = bytes;
        decoded
    }

    /// Fill with a byte value (cudaMemset).
    pub fn memset(&self, value: u8) -> ClientResult<()> {
        self.ctx
            .client
            .borrow_mut()
            .memset(self.ptr, value as i32, self.byte_len())
    }
}

impl<T: DeviceCopy> std::fmt::Debug for DeviceBuffer<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceBuffer")
            .field("ptr", &format_args!("{:#x}", self.ptr))
            .field("len", &self.len)
            .field("elem_size", &T::SIZE)
            .finish()
    }
}

impl<T: DeviceCopy> Drop for DeviceBuffer<'_, T> {
    fn drop(&mut self) {
        // Freeing through Drop is what guarantees no use-after-free and no
        // double-free: the handle cannot be observed after this point.
        let _ = self.ctx.client.borrow_mut().free(self.ptr);
    }
}

/// A loaded kernel module, unloaded on drop.
pub struct Module<'ctx> {
    ctx: &'ctx Context,
    handle: u64,
}

impl<'ctx> Module<'ctx> {
    /// Resolve a kernel by name.
    pub fn function(&self, name: &str) -> ClientResult<Function<'ctx>> {
        let handle = self
            .ctx
            .client
            .borrow_mut()
            .module_get_function(self.handle, name)?;
        Ok(Function {
            handle,
            _marker: PhantomData,
        })
    }

    /// Raw module handle.
    pub fn handle(&self) -> u64 {
        self.handle
    }
}

impl std::fmt::Debug for Module<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Module")
            .field("handle", &self.handle)
            .finish()
    }
}

impl Drop for Module<'_> {
    fn drop(&mut self) {
        let _ = self.ctx.client.borrow_mut().module_unload(self.handle);
    }
}

/// A kernel function handle (borrows the module's context lifetime).
#[derive(Debug, Clone, Copy)]
pub struct Function<'ctx> {
    handle: u64,
    _marker: PhantomData<&'ctx Context>,
}

impl Function<'_> {
    /// Raw function handle.
    pub fn handle(&self) -> u64 {
        self.handle
    }
}

/// A CUDA stream, destroyed on drop.
pub struct Stream<'ctx> {
    ctx: &'ctx Context,
    handle: u64,
}

impl Stream<'_> {
    /// Wait for all work enqueued on this stream.
    pub fn synchronize(&self) -> ClientResult<()> {
        self.ctx.client.borrow_mut().stream_synchronize(self.handle)
    }

    /// Raw stream handle.
    pub fn handle(&self) -> u64 {
        self.handle
    }
}

impl std::fmt::Debug for Stream<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stream")
            .field("handle", &self.handle)
            .finish()
    }
}

impl Drop for Stream<'_> {
    fn drop(&mut self) {
        let _ = self.ctx.client.borrow_mut().stream_destroy(self.handle);
    }
}

/// A CUDA event, destroyed on drop.
pub struct Event<'ctx> {
    ctx: &'ctx Context,
    handle: u64,
}

impl Event<'_> {
    /// Record this event on a stream (None = default stream).
    pub fn record(&self, stream: Option<&Stream<'_>>) -> ClientResult<()> {
        self.ctx
            .client
            .borrow_mut()
            .event_record(self.handle, stream.map(|s| s.handle).unwrap_or(0))
    }

    /// Wait until the event has occurred.
    pub fn synchronize(&self) -> ClientResult<()> {
        self.ctx.client.borrow_mut().event_synchronize(self.handle)
    }

    /// Device milliseconds between `self` and `stop`.
    pub fn elapsed_ms(&self, stop: &Event<'_>) -> ClientResult<f32> {
        self.ctx
            .client
            .borrow_mut()
            .event_elapsed_ms(self.handle, stop.handle)
    }
}

impl std::fmt::Debug for Event<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Event")
            .field("handle", &self.handle)
            .finish()
    }
}

impl Drop for Event<'_> {
    fn drop(&mut self) {
        let _ = self.ctx.client.borrow_mut().event_destroy(self.handle);
    }
}
