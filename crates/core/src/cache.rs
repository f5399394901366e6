//! The device-side partition cache (§III-A).
//!
//! Partitioning a graph and preparing the runtime costs real time; the
//! paper amortises it with a cache keyed by the partition point (≈1% of
//! inference time when amortised over 100 requests). The cache serves the
//! device, which runs `L_1..L_p`, so an entry is only that side of the
//! partition (Figure 5's extraction of the prefix), and nothing at
//! `p = 0`, where the device runs no layer. The server side is not
//! extracted here: the co-simulated server samples a node-time table and
//! the wire server reads a suffix-time table, and the crossing tensors'
//! bytes are the solver's transmission series.
//!
//! The cache is shared between the offloading main thread and the
//! runtime-profiler thread, so entries and statistics live under **one**
//! mutex: each lookup's hit/miss verdict is decided at the same instant it
//! is counted, and the caller gets that verdict back directly instead of
//! having to diff global counters (which misreports as soon as another
//! thread touches the cache in between).
//!
//! The map and its counters remain internally consistent even if a holder
//! of the lock panics (no multi-step invariant spans an unlock), so every
//! accessor recovers a poisoned guard and keeps serving — one panicking
//! thread must not take partitioning down for the others.

use lp_graph::partition::{extract_segment, Segment, SegmentGraph};
use lp_graph::{ComputationGraph, GraphError};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Statistics of cache effectiveness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to extract the device side.
    pub misses: u64,
}

impl CacheStats {
    /// Hit ratio in `[0, 1]`; 0 when the cache is unused.
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    /// `L_1..L_p` by partition point; `None` at `p = 0`.
    entries: HashMap<usize, Option<Arc<SegmentGraph>>>,
    stats: CacheStats,
}

/// The device side `L_1..L_p` of `graph`'s partition at `p`: what
/// [`partition_at`](lp_graph::partition::partition_at) returns as its
/// `device`, without extracting the server side.
fn device_side(graph: &ComputationGraph, p: usize) -> Result<Option<SegmentGraph>, GraphError> {
    if p == 0 {
        return Ok(None);
    }
    extract_segment(graph, Segment::new(1, p)).map(Some)
}

/// A partition cache for one DNN: partition point -> the device side of
/// the partition there.
#[derive(Debug, Default)]
pub struct PartitionCache {
    inner: Mutex<Inner>,
}

impl PartitionCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self {
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Returns the device side of the partition at `p` plus whether the
    /// lookup was a cache hit, extracting and caching it on a miss.
    ///
    /// Concurrent misses on the same `p` race on the extraction (done
    /// outside the lock) but settle under the lock: exactly one caller
    /// counts the miss and inserts; the losers count hits and get the
    /// winner's entry.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`] when `p` is out of range for the graph.
    pub fn get_or_extract(
        &self,
        graph: &ComputationGraph,
        p: usize,
    ) -> Result<(Option<Arc<SegmentGraph>>, bool), GraphError> {
        {
            let mut guard = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            let Inner { entries, stats } = &mut *guard;
            if let Some(found) = entries.get(&p) {
                stats.hits += 1;
                return Ok((found.clone(), true));
            }
        }
        // Extract outside the lock; losers of an insertion race discard
        // their copy below.
        let side = device_side(graph, p)?.map(Arc::new);
        let mut guard = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let Inner { entries, stats } = &mut *guard;
        match entries.entry(p) {
            Entry::Occupied(e) => {
                stats.hits += 1;
                Ok((e.get().clone(), true))
            }
            Entry::Vacant(v) => {
                stats.misses += 1;
                v.insert(side.clone());
                Ok((side, false))
            }
        }
    }

    /// Current statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).stats
    }

    /// Number of cached partition points (`p = 0`, with no device side,
    /// counts as one once looked up).
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entries
            .len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entries
            .is_empty()
    }

    /// Drops all cached entries (e.g. on a model update).
    pub fn clear(&self) {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entries
            .clear();
    }

    /// Panics while holding the lock — poisons it for the recovery test.
    #[cfg(test)]
    fn lock_and_panic(&self) {
        let _guard = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        panic!("deliberately poisoning the cache lock");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp_graph::{Activation, GraphBuilder, NodeKind};
    use lp_tensor::{Shape, TensorDesc};

    fn tiny() -> ComputationGraph {
        let mut b = GraphBuilder::new("tiny", TensorDesc::f32(Shape::nchw(1, 2, 4, 4)));
        let a = b
            .node("a", NodeKind::Activation(Activation::Relu), [b.input()])
            .unwrap();
        let c = b
            .node("b", NodeKind::Activation(Activation::Tanh), [a])
            .unwrap();
        b.finish(c).unwrap()
    }

    #[test]
    fn first_lookup_misses_then_hits() {
        let g = tiny();
        let cache = PartitionCache::new();
        let (a, hit_a) = cache.get_or_extract(&g, 1).unwrap();
        let (b, hit_b) = cache.get_or_extract(&g, 1).unwrap();
        assert!(Arc::ptr_eq(&a.unwrap(), &b.unwrap()));
        assert!(!hit_a, "first lookup must miss");
        assert!(hit_b, "second lookup must hit");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(s.hit_ratio(), 0.5);
    }

    #[test]
    fn distinct_points_cached_separately() {
        let g = tiny();
        let cache = PartitionCache::new();
        for p in 0..=g.len() {
            cache.get_or_extract(&g, p).unwrap();
        }
        assert_eq!(cache.len(), g.len() + 1);
        assert_eq!(cache.stats().misses, (g.len() + 1) as u64);
    }

    #[test]
    fn amortised_hit_ratio_over_100_requests() {
        // §III-A: overhead amortised over 100 offloading requests.
        let g = tiny();
        let cache = PartitionCache::new();
        for _ in 0..100 {
            cache.get_or_extract(&g, 1).unwrap();
        }
        assert!(cache.stats().hit_ratio() >= 0.99);
    }

    #[test]
    fn out_of_range_propagates_error() {
        let g = tiny();
        let cache = PartitionCache::new();
        assert!(cache.get_or_extract(&g, 99).is_err());
        assert!(cache.is_empty());
    }

    #[test]
    fn clear_resets_entries_not_stats() {
        let g = tiny();
        let cache = PartitionCache::new();
        cache.get_or_extract(&g, 0).unwrap();
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().misses, 1);
    }

    /// Regression (poison propagation): a client thread that panics while
    /// holding the cache lock used to poison it for every other client —
    /// the next lookup panicked on `expect("lock poisoned")` and took the
    /// server's partitioning down with it. The guarded state stays valid
    /// across a panic, so every accessor now recovers the guard and the
    /// cache keeps serving.
    #[test]
    fn poisoned_lock_keeps_serving() {
        let g = tiny();
        let cache = Arc::new(PartitionCache::new());
        let poisoner = Arc::clone(&cache);
        assert!(std::thread::spawn(move || poisoner.lock_and_panic())
            .join()
            .is_err());
        let (_, hit) = cache.get_or_extract(&g, 1).expect("still serving");
        assert!(!hit, "fresh entry after the poisoning panic");
        let (_, hit) = cache.get_or_extract(&g, 1).expect("still serving");
        assert!(hit);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        cache.clear();
        assert!(cache.is_empty());
    }

    /// Regression (shared-cache stats): with entries and stats under one
    /// lock, concurrent lookups racing on the same `p` count exactly one
    /// miss per distinct point and every lookup is classified — under the
    /// old two-lock scheme concurrent misses on the same `p` could each
    /// count a miss, and callers diffing global hit counters misattributed
    /// other threads' hits to themselves.
    #[test]
    fn shared_across_threads_counts_each_point_once() {
        let g = tiny();
        let n_threads = 8u64;
        let cache = Arc::new(PartitionCache::new());
        let mut handles = Vec::new();
        for _ in 0..n_threads {
            let cache = Arc::clone(&cache);
            let g = g.clone();
            handles.push(std::thread::spawn(move || {
                let mut hits = 0u64;
                for p in 0..=g.len() {
                    let (_, hit) = cache.get_or_extract(&g, p).unwrap();
                    hits += u64::from(hit);
                }
                hits
            }));
        }
        let caller_observed_hits: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        let points = (g.len() + 1) as u64;
        assert_eq!(cache.len(), g.len() + 1);
        let s = cache.stats();
        assert_eq!(s.misses, points, "one miss per distinct point, exactly");
        assert_eq!(
            s.hits + s.misses,
            n_threads * points,
            "every lookup counted"
        );
        // The per-caller flags agree with the global counters.
        assert_eq!(caller_observed_hits, s.hits);
    }
}
