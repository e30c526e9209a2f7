//! # coterie-parallel
//!
//! Minimal data-parallel substrate built on `std::thread::scope`,
//! shared by the renderer (band-parallel panoramas), the frame crate
//! (separable SSIM on large frames), the simulator (similarity sweeps,
//! pre-render batches) and the serve fleet (room boot, farm batches).
//!
//! Two primitives cover every hot path in the workspace:
//!
//! * [`par_map`] — chunked fan-out for uniform per-item cost,
//! * [`par_for_each`] — explicit task-per-thread execution for callers
//!   that pre-partition mutable state (e.g. disjoint frame bands).
//!
//! Both preserve determinism: results come back in input order and
//! side effects land in caller-partitioned disjoint state, so output is
//! independent of scheduling and thread count.

// `deny` (not `forbid`) so the `simd` module can opt back in for its
// intrinsics with a module-level `allow`; everything else stays safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod simd;

/// Applies `f` to every item, fanning out across up to
/// `available_parallelism` threads, and returns results in input order.
///
/// Items are distributed in contiguous chunks, so `f` should have
/// roughly uniform cost per item.
///
/// # Example
///
/// ```
/// use coterie_parallel::par_map;
/// let squares = par_map(&[1, 2, 3, 4], |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(items.len().max(1));
    if threads <= 1 || items.len() <= 1 {
        return items.iter().map(&f).collect();
    }
    let chunk = items.len().div_ceil(threads);
    let mut results: Vec<Option<R>> = Vec::with_capacity(items.len());
    results.resize_with(items.len(), || None);

    // A worker's panic propagates out of `scope` once every thread joined.
    std::thread::scope(|scope| {
        let mut rest = results.as_mut_slice();
        for chunk_items in items.chunks(chunk) {
            let (head, tail) = rest.split_at_mut(chunk_items.len().min(rest.len()));
            rest = tail;
            let f = &f;
            scope.spawn(move || {
                for (slot, item) in head.iter_mut().zip(chunk_items) {
                    *slot = Some(f(item));
                }
            });
        }
    });

    results
        .into_iter()
        .map(|r| r.expect("every slot filled"))
        .collect()
}

/// Runs `f` once per item, one scoped thread per item (serial when there
/// is at most one item).
///
/// This is the primitive for *pre-partitioned* mutable work: the caller
/// splits its state into disjoint pieces — e.g. a frame buffer split into
/// horizontal bands with `split_at_mut` — wraps each piece in an item,
/// and decides the fan-out by how many items it builds. Because every
/// item owns its slice exclusively, the result is bit-identical to the
/// serial execution no matter how the threads are scheduled.
///
/// # Example
///
/// ```
/// use coterie_parallel::par_for_each;
/// let mut buf = vec![0u64; 8];
/// let (lo, hi) = buf.split_at_mut(4);
/// par_for_each(vec![(0u64, lo), (4u64, hi)], |(base, half)| {
///     for (i, v) in half.iter_mut().enumerate() {
///         *v = base + i as u64;
///     }
/// });
/// assert_eq!(buf, (0..8).collect::<Vec<u64>>());
/// ```
pub fn par_for_each<T, F>(items: Vec<T>, f: F)
where
    T: Send,
    F: Fn(T) + Sync,
{
    if items.len() <= 1 {
        for item in items {
            f(item);
        }
        return;
    }
    std::thread::scope(|scope| {
        for item in items {
            let f = &f;
            scope.spawn(move || f(item));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_order() {
        let input: Vec<u64> = (0..1000).collect();
        let out = par_map(&input, |&x| x * 2);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as u64 * 2);
        }
    }

    #[test]
    fn empty_input() {
        let out: Vec<u32> = par_map(&[] as &[u32], |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item() {
        assert_eq!(par_map(&[7], |&x| x + 1), vec![8]);
    }

    #[test]
    fn matches_serial_map() {
        let input: Vec<f64> = (0..257).map(|i| i as f64 * 0.37).collect();
        let serial: Vec<f64> = input.iter().map(|&x| x.sin()).collect();
        let parallel = par_map(&input, |&x| x.sin());
        assert_eq!(serial, parallel);
    }

    #[test]
    fn heavy_closure_with_captured_state() {
        let factor = 3u64;
        let input: Vec<u64> = (0..64).collect();
        let out = par_map(&input, |&x| x * factor);
        assert_eq!(out[10], 30);
    }

    #[test]
    fn for_each_covers_disjoint_bands() {
        let mut buf = vec![0u32; 64];
        let mut bands = Vec::new();
        let mut rest = buf.as_mut_slice();
        let mut base = 0u32;
        for _ in 0..7 {
            let take = rest.len().min(10);
            let (head, tail) = rest.split_at_mut(take);
            bands.push((base, head));
            base += take as u32;
            rest = tail;
        }
        bands.push((base, rest));
        par_for_each(bands, |(start, slice)| {
            for (i, v) in slice.iter_mut().enumerate() {
                *v = start + i as u32;
            }
        });
        let expect: Vec<u32> = (0..64).collect();
        assert_eq!(buf, expect);
    }

    #[test]
    #[should_panic]
    fn worker_panic_propagates() {
        par_for_each(vec![1u8, 2], |v| assert_ne!(v, 2, "worker failed"));
    }

    #[test]
    fn for_each_empty_and_single() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        par_for_each(Vec::<u8>::new(), |_| panic!("must not run"));
        let hits = AtomicUsize::new(0);
        par_for_each(vec![()], |()| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }
}
