//! Offline stand-in for the `rayon` crate.
//!
//! Implements the one pattern this workspace uses —
//! `slice.par_iter().map(f).collect()` — with `std::thread::scope` fanning
//! contiguous chunks out across the available cores. Results land in
//! pre-assigned slots, so output order always matches input order exactly
//! as with real rayon's indexed parallel iterators.
//!
//! The `DXBAR_JOBS` environment variable caps the worker-thread count;
//! unset or invalid values fall back to `available_parallelism`.

use std::num::NonZeroUsize;

/// Maximum worker threads: `DXBAR_JOBS` if set to a positive integer,
/// otherwise the number of available cores.
pub fn max_threads() -> usize {
    std::env::var("DXBAR_JOBS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        })
}

pub mod prelude {
    pub use crate::IntoParallelRefIterator;
}

/// Entry point mirroring rayon's `par_iter()` on slices (and, via deref,
/// `Vec`s).
pub trait IntoParallelRefIterator {
    type Item;

    fn par_iter(&self) -> ParIter<'_, Self::Item>;
}

impl<T: Sync> IntoParallelRefIterator for [T] {
    type Item = T;

    fn par_iter(&self) -> ParIter<'_, T> {
        ParIter { items: self }
    }
}

/// Borrowed parallel iterator over a slice.
pub struct ParIter<'a, T> {
    items: &'a [T],
}

impl<'a, T: Sync> ParIter<'a, T> {
    pub fn map<R, F>(self, f: F) -> ParMap<'a, T, F>
    where
        R: Send,
        F: Fn(&'a T) -> R + Sync,
    {
        ParMap {
            items: self.items,
            f,
        }
    }
}

/// Mapped parallel iterator; consumed by [`ParMap::collect`].
pub struct ParMap<'a, T, F> {
    items: &'a [T],
    f: F,
}

impl<'a, T, R, F> ParMap<'a, T, F>
where
    T: Sync,
    R: Send,
    F: Fn(&'a T) -> R + Sync,
{
    pub fn collect<C: FromIterator<R>>(self) -> C {
        let n = self.items.len();
        let threads = max_threads().min(n.max(1));
        if threads <= 1 {
            return self.items.iter().map(&self.f).collect();
        }

        let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        let chunk = n.div_ceil(threads);
        let f = &self.f;
        std::thread::scope(|scope| {
            for (in_chunk, out_chunk) in self.items.chunks(chunk).zip(slots.chunks_mut(chunk)) {
                scope.spawn(move || {
                    for (item, slot) in in_chunk.iter().zip(out_chunk.iter_mut()) {
                        *slot = Some(f(item));
                    }
                });
            }
        });
        slots.into_iter().map(|r| r.unwrap()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn preserves_input_order() {
        let xs: Vec<u64> = (0..1000).collect();
        let doubled: Vec<u64> = xs.par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn dxbar_jobs_caps_threads_without_changing_results() {
        // Results are slot-assigned, so any thread cap yields identical
        // output; this checks the cap is parsed and correctness holds.
        std::env::set_var("DXBAR_JOBS", "2");
        assert_eq!(crate::max_threads(), 2);
        let xs: Vec<u64> = (0..97).collect();
        let out: Vec<u64> = xs.par_iter().map(|x| x * 3).collect();
        assert_eq!(out, (0..97).map(|x| x * 3).collect::<Vec<_>>());
        std::env::set_var("DXBAR_JOBS", "not-a-number");
        assert!(crate::max_threads() >= 1);
        std::env::remove_var("DXBAR_JOBS");
        assert!(crate::max_threads() >= 1);
    }

    #[test]
    fn handles_empty_and_tiny_inputs() {
        let empty: Vec<u32> = Vec::new();
        let out: Vec<u32> = empty.par_iter().map(|x| x + 1).collect();
        assert!(out.is_empty());
        let one = [41u32];
        let out: Vec<u32> = one.par_iter().map(|x| x + 1).collect();
        assert_eq!(out, vec![42]);
    }
}
