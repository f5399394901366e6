//! Pooled zero-filled payload buffers for the wire runtime.
//!
//! This reproduction moves *simulated* tensors: payload sizes matter, the
//! bytes are never read. The historical hot path still paid a fresh
//! multi-hundred-KB `vec![0u8; n]` allocation per upload, probe and
//! response; this pool hands out [`Bytes`] clones of one shared zeroed
//! allocation per distinct size instead, so a request's payload costs a
//! reference-count bump.
//!
//! The pool is process-global because the wire backends
//! ([`WireBackend`](crate::engine::backends::WireBackend) /
//! [`WireTransport`](crate::engine::backends::WireTransport)) are
//! constructed as short-lived struct literals on every request — there is
//! no per-connection object to hang a pool off without breaking their
//! (frozen) shapes. The number of distinct sizes in a process is bounded by
//! the models in play (cut-point tensor sizes, probe sizes, output sizes),
//! and `MAX_POOLED_SIZES` caps the map against pathological callers.
//!
//! Hits and misses are counted twice: process-wide ([`stats`]) and for the
//! calling thread alone ([`thread_stats`]), so a client thread can measure
//! its own pool traffic while server threads in the same process use the
//! pool concurrently.

use bytes::Bytes;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Upper bound on distinct payload sizes the pool retains; requests for
/// further sizes are served with fresh allocations (correct, just uncached).
const MAX_POOLED_SIZES: usize = 64;

static POOL: OnceLock<Mutex<HashMap<usize, Bytes>>> = OnceLock::new();
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's (hits, misses).
    static THREAD_STATS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count(hit: bool) {
    let global = if hit { &HITS } else { &MISSES };
    global.fetch_add(1, Ordering::Relaxed);
    THREAD_STATS.with(|c| {
        let (hits, misses) = c.get();
        c.set(if hit {
            (hits + 1, misses)
        } else {
            (hits, misses + 1)
        });
    });
}

/// A zero-filled payload of exactly `len` bytes, shared with every other
/// caller that asked for the same size (the returned [`Bytes`] aliases one
/// allocation; clones are reference-count bumps).
#[must_use]
pub fn zero_payload(len: usize) -> Bytes {
    if len == 0 {
        return Bytes::new();
    }
    let pool = POOL.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = pool.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(b) = map.get(&len) {
        count(true);
        return b.clone();
    }
    count(false);
    let fresh = Bytes::from(vec![0u8; len]);
    if map.len() < MAX_POOLED_SIZES {
        map.insert(len, fresh.clone());
    }
    fresh
}

/// Process-wide (hits, misses) of the payload pool, for the serving
/// benchmark's allocation accounting.
#[must_use]
pub fn stats() -> (u64, u64) {
    (HITS.load(Ordering::Relaxed), MISSES.load(Ordering::Relaxed))
}

/// The calling thread's (hits, misses) of the payload pool: unlike
/// [`stats`], untouched by lookups on any other thread.
#[must_use]
pub fn thread_stats() -> (u64, u64) {
    THREAD_STATS.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_size_shares_one_allocation() {
        let a = zero_payload(4096);
        let b = zero_payload(4096);
        assert_eq!(a.len(), 4096);
        assert!(a.iter().all(|&x| x == 0));
        assert!(
            std::ptr::eq(a.as_ref(), b.as_ref()),
            "two requests for one size must alias one allocation"
        );
    }

    #[test]
    fn different_sizes_do_not_alias() {
        let a = zero_payload(100);
        let b = zero_payload(200);
        assert_eq!(a.len(), 100);
        assert_eq!(b.len(), 200);
    }

    #[test]
    fn zero_length_is_free() {
        assert!(zero_payload(0).is_empty());
    }

    #[test]
    fn stats_move() {
        let (h0, m0) = stats();
        let _ = zero_payload(12_345);
        let _ = zero_payload(12_345);
        let (h1, m1) = stats();
        assert!(h1 + m1 >= h0 + m0 + 2, "both lookups must be counted");
        assert!(h1 > h0, "the second lookup of a size must be a hit");
    }

    #[test]
    fn thread_stats_count_only_the_calling_thread() {
        let before = thread_stats();
        std::thread::spawn(|| {
            let _ = zero_payload(23_456);
            let _ = zero_payload(23_456);
        })
        .join()
        .expect("helper thread");
        assert_eq!(thread_stats(), before, "another thread's lookups leaked in");
        let _ = zero_payload(23_456);
        let (hits, misses) = thread_stats();
        assert_eq!(hits + misses, before.0 + before.1 + 1);
    }
}
