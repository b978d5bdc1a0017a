//! The passive memory-pool side.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::{Error, Result};

/// A registered memory region, addressed remotely by its `rkey`.
///
/// Handles are plain identifiers (`Copy`), mirroring how real RDMA rkeys
/// travel between machines as integers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegionHandle {
    rkey: u32,
    len: u64,
}

impl RegionHandle {
    /// The remote key naming this region.
    pub fn rkey(&self) -> u32 {
        self.rkey
    }

    /// Registered length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the region is zero-sized.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// A memory-pool instance: registered regions and nothing else.
///
/// Matching the paper's disaggregation model, a `MemoryNode` performs no
/// computation beyond memory registration — all access happens through
/// one-sided verbs issued by [`crate::QueuePair`]s.
///
/// # Example
///
/// ```rust
/// use rdma_sim::MemoryNode;
///
/// # fn main() -> Result<(), rdma_sim::Error> {
/// let node = MemoryNode::new("mem0");
/// let r = node.register(4096)?;
/// assert_eq!(r.len(), 4096);
/// assert_eq!(node.registered_bytes(), 4096);
/// node.deregister(r.rkey())?;
/// assert_eq!(node.registered_bytes(), 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct MemoryNode {
    name: String,
    regions: RwLock<HashMap<u32, Arc<RwLock<Vec<u8>>>>>,
    next_rkey: AtomicU32,
}

impl MemoryNode {
    /// Creates a memory node. The name only matters for diagnostics.
    pub fn new(name: impl Into<String>) -> Arc<Self> {
        Arc::new(MemoryNode {
            name: name.into(),
            regions: RwLock::new(HashMap::new()),
            next_rkey: AtomicU32::new(1),
        })
    }

    /// Registers a zero-initialized region of `len` bytes and returns its
    /// handle.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for a zero-length region.
    pub fn register(&self, len: usize) -> Result<RegionHandle> {
        if len == 0 {
            return Err(Error::InvalidParameter(
                "cannot register a zero-length region".into(),
            ));
        }
        let rkey = self.next_rkey.fetch_add(1, Ordering::Relaxed);
        self.regions
            .write()
            .insert(rkey, Arc::new(RwLock::new(vec![0u8; len])));
        Ok(RegionHandle {
            rkey,
            len: len as u64,
        })
    }

    /// Deregisters a region, releasing its memory.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownRegion`] when `rkey` is not registered.
    pub fn deregister(&self, rkey: u32) -> Result<()> {
        self.regions
            .write()
            .remove(&rkey)
            .map(|_| ())
            .ok_or(Error::UnknownRegion(rkey))
    }

    /// The diagnostic name given at construction.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Length of the region behind `rkey`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownRegion`] when `rkey` is not registered.
    pub fn region_len(&self, rkey: u32) -> Result<u64> {
        Ok(self.region(rkey)?.read().len() as u64)
    }

    /// Total bytes currently registered across all regions.
    pub fn registered_bytes(&self) -> usize {
        self.regions.read().values().map(|r| r.read().len()).sum()
    }

    pub(crate) fn region(&self, rkey: u32) -> Result<Arc<RwLock<Vec<u8>>>> {
        self.regions
            .read()
            .get(&rkey)
            .cloned()
            .ok_or(Error::UnknownRegion(rkey))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_assigns_unique_rkeys() {
        let node = MemoryNode::new("m");
        let a = node.register(10).unwrap();
        let b = node.register(10).unwrap();
        assert_ne!(a.rkey(), b.rkey());
        assert_eq!(node.registered_bytes(), 20);
    }

    #[test]
    fn zero_length_registration_is_rejected() {
        let node = MemoryNode::new("m");
        assert!(node.register(0).is_err());
    }

    #[test]
    fn deregister_twice_fails_cleanly() {
        let node = MemoryNode::new("m");
        let r = node.register(8).unwrap();
        node.deregister(r.rkey()).unwrap();
        assert!(matches!(
            node.deregister(r.rkey()).unwrap_err(),
            Error::UnknownRegion(_)
        ));
    }

    #[test]
    fn region_len_reports_registered_size() {
        let node = MemoryNode::new("m");
        let r = node.register(123).unwrap();
        assert_eq!(node.region_len(r.rkey()).unwrap(), 123);
        assert!(node.region_len(999).is_err());
    }

    #[test]
    fn regions_are_zero_initialized() {
        let node = MemoryNode::new("m");
        let r = node.register(16).unwrap();
        let region = node.region(r.rkey()).unwrap();
        assert!(region.read().iter().all(|&b| b == 0));
    }
}
