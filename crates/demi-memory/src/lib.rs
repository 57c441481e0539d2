//! Zero-copy memory management for the Demikernel reproduction.
//!
//! The paper (§3.1, §4.5) argues a kernel-bypass OS should (a) make all
//! application I/O memory *transparently* available to devices — the libOS,
//! not the application, registers memory regions with each device — and
//! (b) provide *free-protection*: an application may free a buffer while a
//! device still uses it, and the memory is only reclaimed once the device
//! completes. This crate implements both:
//!
//! * [`DemiBuffer`] — a reference-counted, sliceable byte buffer. Device
//!   queues hold clones of in-flight buffers; the application dropping its
//!   handle never frees memory a device can still touch (free-protection is
//!   simply the refcount). In-place mutation is only possible through
//!   [`DemiBuffer::try_mut`], which requires exclusive ownership — matching
//!   the paper's position that *write*-protection for shared I/O buffers is
//!   intentionally not offered and applications should allocate new buffers
//!   instead of updating in place.
//! * [`BufferPool`] / [`MemoryManager`] — size-class pools carved from
//!   device-registered regions. Allocation from a warm pool touches no
//!   registration machinery, which is what makes registration "transparent":
//!   its cost is paid once per region on the control path (experiment E5).
//! * [`Registrar`] — the hook a simulated device implements to observe
//!   region registration (pin accounting, IOMMU-style mapping).
//! * Tenant isolation — every buffer is stamped with the tenant that
//!   allocated it ([`DemiBuffer::tenant`]); cross-tenant views, clones,
//!   prepends, and copies are hard errors (counted denials), so one
//!   tenant can never observe another's payload bytes. Each tenant gets
//!   a private pool partition ([`BufferPool::for_tenant`]) whose byte
//!   budget turns exhaustion into the typed, recoverable
//!   [`PoolExhausted`] error — one tenant leaking buffers to exhaustion
//!   never blocks another tenant's allocations.

pub mod buffer;
pub mod manager;
pub mod pool;
pub mod registration;

pub use buffer::{CrossTenantAccess, DemiBuffer, HeadroomError};
pub use demi_tenant::TenantId;
pub use manager::MemoryManager;
pub use pool::{BufferPool, PoolExhausted, PoolStats, DEFAULT_HEADROOM, SIZE_CLASSES};
pub use registration::{CountingRegistrar, RegionId, RegionStats, Registrar};
