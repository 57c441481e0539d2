//! Device mempools: pinned, registered packet-buffer pools.

use std::rc::Rc;

use demi_memory::{
    BufferPool, DemiBuffer, PoolExhausted, PoolStats, RegionStats, Registrar, TenantId,
};

use crate::mbuf::Mbuf;

/// A packet-buffer pool backed by device-registered memory.
///
/// DPDK mempools must be created from pinned memory the NIC can DMA into;
/// the simulation routes every pool growth through the device's
/// [`Registrar`] so experiments can observe registration and pin costs.
#[derive(Clone)]
pub struct Mempool {
    pool: BufferPool,
    registrar: Rc<demi_memory::CountingRegistrar>,
    mbuf_capacity: usize,
}

impl Mempool {
    /// Standard mbuf data-room size (holds a full MTU frame with headroom).
    pub const DEFAULT_MBUF_CAPACITY: usize = 2048;

    /// Creates a pool of `DEFAULT_MBUF_CAPACITY`-byte buffers.
    pub fn new() -> Self {
        Self::with_mbuf_capacity(Self::DEFAULT_MBUF_CAPACITY)
    }

    /// Creates a pool whose mbufs hold `capacity` bytes each.
    pub fn with_mbuf_capacity(capacity: usize) -> Self {
        let registrar = Rc::new(demi_memory::CountingRegistrar::new());
        let pool = BufferPool::with_registrar(registrar.clone());
        Mempool {
            pool,
            registrar,
            mbuf_capacity: capacity,
        }
    }

    /// Creates `tenant`'s private mempool partition: mbufs are stamped
    /// with the tenant and total pinned storage is capped at
    /// `budget_bytes` (`None` = uncapped). This is the device face of
    /// per-tenant memory isolation — a tenant leaking mbufs exhausts
    /// only its own partition.
    pub fn for_tenant(tenant: TenantId, budget_bytes: Option<u64>) -> Self {
        let registrar = Rc::new(demi_memory::CountingRegistrar::new());
        let pool = BufferPool::for_tenant_with_registrar(tenant, budget_bytes, registrar.clone());
        Mempool {
            pool,
            registrar,
            mbuf_capacity: Self::DEFAULT_MBUF_CAPACITY,
        }
    }

    /// The tenant owning this partition (`HOST` for the shared pool).
    pub fn tenant(&self) -> TenantId {
        self.pool.tenant()
    }

    /// Allocates an mbuf sized for a frame of `len` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds the pool's mbuf capacity, mirroring a real
    /// driver's refusal to transmit a frame larger than the data room.
    pub fn alloc(&self, len: usize) -> Mbuf {
        match self.try_alloc(len) {
            Ok(mbuf) => mbuf,
            Err(e) => panic!("{e} (use try_alloc to degrade gracefully)"),
        }
    }

    /// Allocates an mbuf sized for a frame of `len` bytes, reporting
    /// [`PoolExhausted`] when a budgeted tenant partition is spent
    /// instead of panicking.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds the pool's mbuf capacity (a malformed
    /// request, not a resource condition).
    pub fn try_alloc(&self, len: usize) -> Result<Mbuf, PoolExhausted> {
        assert!(
            len <= self.mbuf_capacity,
            "frame of {len} bytes exceeds mbuf capacity {}",
            self.mbuf_capacity
        );
        Ok(Mbuf::from_data(self.pool.try_alloc(len)?))
    }

    /// Allocates an mbuf holding a copy of `frame` (a counted payload copy
    /// — the zero-copy path wraps an existing `DemiBuffer` in an
    /// [`Mbuf`](crate::mbuf::Mbuf) instead).
    pub fn alloc_from(&self, frame: &[u8]) -> Mbuf {
        let mut mbuf = self.alloc(frame.len());
        demi_telemetry::counters::count_copy(frame.len());
        mbuf.data
            .try_mut()
            .expect("fresh mbuf is exclusively owned")
            .copy_from_slice(frame);
        mbuf
    }

    /// Allocates a bare buffer with `headroom` bytes of prepend room — the
    /// TX-side allocation for control packets whose headers are written in
    /// place.
    ///
    /// # Panics
    ///
    /// Panics if `headroom + len` exceeds the pool's mbuf capacity.
    pub fn alloc_buffer_with_headroom(&self, headroom: usize, len: usize) -> DemiBuffer {
        assert!(
            headroom + len <= self.mbuf_capacity,
            "frame of {} bytes exceeds mbuf capacity {}",
            headroom + len,
            self.mbuf_capacity
        );
        self.pool.alloc_with_headroom(headroom, len)
    }

    /// Maximum frame bytes an mbuf can hold.
    pub fn mbuf_capacity(&self) -> usize {
        self.mbuf_capacity
    }

    /// Pre-grows the pool so the data path never registers memory.
    pub fn warm_up(&self) {
        self.pool.warm_up();
    }

    /// Pool allocation counters.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Registration/pin counters.
    pub fn region_stats(&self) -> RegionStats {
        self.registrar.stats()
    }

    /// The device registrar (shared pin accounting).
    pub fn registrar(&self) -> Rc<dyn Registrar> {
        self.registrar.clone()
    }
}

impl Default for Mempool {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_from_round_trips_frame_bytes() {
        let pool = Mempool::new();
        let mbuf = pool.alloc_from(b"etherframe");
        assert_eq!(mbuf.as_slice(), b"etherframe");
    }

    #[test]
    #[should_panic(expected = "exceeds mbuf capacity")]
    fn oversized_frame_panics() {
        let pool = Mempool::with_mbuf_capacity(64);
        let _ = pool.alloc(65);
    }

    #[test]
    fn tenant_partition_stamps_and_caps() {
        let t = TenantId(3);
        // One 4096-byte size-class buffer (the class serving MTU frames).
        let pool = Mempool::for_tenant(t, Some(4096));
        assert_eq!(pool.tenant(), t);
        let a = pool.try_alloc(1500).unwrap();
        assert_eq!(a.data.tenant(), t);
        // The next alloc must fail typed, not panic, and name the tenant.
        assert_eq!(
            pool.try_alloc(1500).unwrap_err(),
            PoolExhausted { tenant: t }
        );
        drop(a);
        assert!(pool.try_alloc(1500).is_ok(), "frees recover the budget");
    }

    #[test]
    fn pool_growth_is_registered_with_the_device() {
        let pool = Mempool::new();
        let _m = pool.alloc(1500);
        assert_eq!(pool.region_stats().registrations, 1);
        assert!(pool.region_stats().pinned_bytes > 0);
    }

    #[test]
    fn warm_pool_serves_without_registration() {
        let pool = Mempool::new();
        pool.warm_up();
        let regs = pool.region_stats().registrations;
        for _ in 0..32 {
            let _ = pool.alloc(1500);
        }
        assert_eq!(pool.region_stats().registrations, regs);
    }
}
