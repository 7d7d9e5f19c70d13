//! Heap state and accounting.
//!
//! The simulation does not trace an object graph — the paper's metrics
//! depend only on aggregate quantities (live bytes, occupancy, headroom,
//! allocation volume), so the heap tracks exactly those, in *heap* bytes:
//! application bytes multiplied by the pointer-width inflation factor when
//! compressed pointers are disabled (ZGC "does not support compressed
//! pointers", §2, and the GMU nominal statistic records each workload's
//! uncompressed footprint).

use std::fmt;

/// Error raised by heap accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeapError {
    /// The live set alone cannot fit in the configured capacity; no
    /// collector can make progress.
    LiveExceedsCapacity,
}

impl fmt::Display for HeapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeapError::LiveExceedsCapacity => {
                write!(f, "live data exceeds heap capacity")
            }
        }
    }
}

impl std::error::Error for HeapError {}

/// Aggregate heap state in heap bytes.
///
/// # Examples
///
/// ```
/// use chopin_runtime::heap::HeapState;
///
/// let mut heap = HeapState::new(1_000_000.0, 1.0);
/// heap.allocate(250_000.0);
/// assert_eq!(heap.occupied(), 250_000.0);
/// assert_eq!(heap.free(), 750_000.0);
/// heap.reclaim_to(100_000.0);
/// assert_eq!(heap.occupied(), 100_000.0);
/// assert_eq!(heap.allocated_since_gc(), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HeapState {
    capacity: f64,
    occupied: f64,
    allocated_since_gc: f64,
    total_allocated: f64,
    inflation: f64,
}

impl HeapState {
    /// Create a heap of `capacity` heap-bytes. `inflation` converts
    /// application bytes to heap bytes (1.0 with compressed pointers, the
    /// workload's GMU/GMD ratio without).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not positive/finite or `inflation < 1`.
    pub fn new(capacity: f64, inflation: f64) -> Self {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "heap capacity must be positive"
        );
        assert!(
            inflation.is_finite() && inflation >= 1.0,
            "inflation must be at least 1"
        );
        HeapState {
            capacity,
            occupied: 0.0,
            allocated_since_gc: 0.0,
            total_allocated: 0.0,
            inflation,
        }
    }

    /// Heap capacity in heap bytes.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Currently occupied heap bytes (live + garbage not yet reclaimed).
    pub fn occupied(&self) -> f64 {
        self.occupied
    }

    /// Free heap bytes.
    pub fn free(&self) -> f64 {
        (self.capacity - self.occupied).max(0.0)
    }

    /// Heap bytes allocated since the last reclamation.
    pub fn allocated_since_gc(&self) -> f64 {
        self.allocated_since_gc
    }

    /// Cumulative heap bytes allocated over the whole run.
    pub fn total_allocated(&self) -> f64 {
        self.total_allocated
    }

    /// The pointer-width inflation factor.
    pub fn inflation(&self) -> f64 {
        self.inflation
    }

    /// Convert application bytes to heap bytes.
    pub fn inflate(&self, app_bytes: f64) -> f64 {
        app_bytes * self.inflation
    }

    /// Record an allocation of `app_bytes` application bytes. Occupancy is
    /// clamped at capacity; the engine is responsible for never allocating
    /// past a trigger point (it slices time so triggers are hit exactly).
    pub fn allocate(&mut self, app_bytes: f64) {
        debug_assert!(app_bytes >= 0.0 && app_bytes.is_finite());
        let heap_bytes = self.inflate(app_bytes);
        self.occupied = (self.occupied + heap_bytes).min(self.capacity);
        self.allocated_since_gc += heap_bytes;
        self.total_allocated += heap_bytes;
    }

    /// Complete a collection: occupancy drops to `live_after` heap bytes
    /// and the allocation-since-GC counter resets.
    ///
    /// Returns the number of heap bytes reclaimed (possibly zero — a futile
    /// collection — which the engine uses to detect out-of-memory
    /// livelock).
    pub fn reclaim_to(&mut self, live_after: f64) -> f64 {
        debug_assert!(live_after >= 0.0 && live_after.is_finite());
        let new_occupied = live_after.min(self.capacity);
        let reclaimed = (self.occupied - new_occupied).max(0.0);
        self.occupied = new_occupied;
        self.allocated_since_gc = 0.0;
        reclaimed
    }

    /// Check that a live set of `live_heap_bytes` can fit with at least
    /// `min_headroom_fraction` of capacity spare.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::LiveExceedsCapacity`] when it cannot.
    pub fn check_fits(
        &self,
        live_heap_bytes: f64,
        min_headroom_fraction: f64,
    ) -> Result<(), HeapError> {
        if live_heap_bytes > self.capacity * (1.0 - min_headroom_fraction) {
            Err(HeapError::LiveExceedsCapacity)
        } else {
            Ok(())
        }
    }

    /// Occupancy as a fraction of capacity.
    pub fn occupancy_fraction(&self) -> f64 {
        self.occupied / self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        HeapState::new(0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "inflation must be at least 1")]
    fn deflation_rejected() {
        HeapState::new(1.0, 0.5);
    }

    #[test]
    fn inflation_scales_allocation() {
        let mut h = HeapState::new(1000.0, 1.5);
        h.allocate(100.0);
        assert_eq!(h.occupied(), 150.0);
        assert_eq!(h.total_allocated(), 150.0);
    }

    #[test]
    fn occupancy_clamps_at_capacity() {
        let mut h = HeapState::new(100.0, 1.0);
        h.allocate(500.0);
        assert_eq!(h.occupied(), 100.0);
        assert_eq!(h.free(), 0.0);
        assert_eq!(h.occupancy_fraction(), 1.0);
    }

    #[test]
    fn reclaim_reports_freed_bytes_and_resets_counter() {
        let mut h = HeapState::new(100.0, 1.0);
        h.allocate(80.0);
        let freed = h.reclaim_to(30.0);
        assert_eq!(freed, 50.0);
        assert_eq!(h.occupied(), 30.0);
        assert_eq!(h.allocated_since_gc(), 0.0);
        assert_eq!(h.total_allocated(), 80.0, "total survives reclamation");
    }

    #[test]
    fn futile_reclaim_reports_zero() {
        let mut h = HeapState::new(100.0, 1.0);
        h.allocate(50.0);
        assert_eq!(h.reclaim_to(60.0), 0.0);
    }

    #[test]
    fn check_fits_honours_headroom() {
        let h = HeapState::new(100.0, 1.0);
        assert!(h.check_fits(89.0, 0.1).is_ok());
        assert_eq!(h.check_fits(95.0, 0.1), Err(HeapError::LiveExceedsCapacity));
    }

    proptest! {
        #[test]
        fn prop_accounting_conserves(
            allocs in proptest::collection::vec(0.0f64..1e6, 1..50),
            capacity in 1e6f64..1e9,
        ) {
            let mut h = HeapState::new(capacity, 1.0);
            let mut expected_total = 0.0;
            for a in &allocs {
                h.allocate(*a);
                expected_total += a;
            }
            prop_assert!((h.total_allocated() - expected_total).abs() < 1e-3);
            prop_assert!(h.occupied() <= h.capacity() + 1e-9);
            prop_assert!(h.free() >= 0.0);
        }

        #[test]
        fn prop_reclaim_never_negative(
            alloc in 0.0f64..1e6,
            live_after in 0.0f64..2e6,
        ) {
            let mut h = HeapState::new(1e6, 1.0);
            h.allocate(alloc);
            let freed = h.reclaim_to(live_after);
            prop_assert!(freed >= 0.0);
            prop_assert!(h.occupied() <= h.capacity());
        }
    }
}
