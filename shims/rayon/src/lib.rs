//! Offline shim for the subset of `rayon` this workspace uses.
//!
//! The build environment has no network access, so the real crate cannot
//! be fetched. This shim reimplements the one parallel-iterator entry
//! point the workspace relies on — `par_iter_mut().for_each()`, with which
//! the rule-partitioned matcher applies a delta to all its workers — as
//! contiguous-chunk fork-join over `std::thread::scope`.
//!
//! Thread count comes from `RAYON_NUM_THREADS` (compat) or
//! `std::thread::available_parallelism`. A panic inside a worker closure
//! unwinds into the forking thread (as with rayon), not the whole process.

use std::panic;

/// The traits user code imports via `use rayon::prelude::*;`.
pub mod prelude {
    pub use crate::IntoParallelRefMutIterator;
}

fn max_threads() -> usize {
    if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `f` on every element of `items` in parallel chunks.
fn chunked_for_each_mut<T: Send, F: Fn(&mut T) + Sync>(items: &mut [T], f: F) {
    let n = items.len();
    let threads = max_threads().min(n);
    if threads <= 1 {
        items.iter_mut().for_each(f);
        return;
    }
    let chunk = n.div_ceil(threads);
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = items
            .chunks_mut(chunk)
            .map(|c| s.spawn(move || c.iter_mut().for_each(f)))
            .collect();
        for h in handles {
            if let Err(payload) = h.join() {
                panic::resume_unwind(payload);
            }
        }
    });
}

/// Mutable-reference parallel iterator (`.par_iter_mut()`).
pub struct ParIterMut<'a, T>(&'a mut [T]);

impl<'a, T: Send> ParIterMut<'a, T> {
    /// Runs `f` over every element in parallel.
    pub fn for_each<F: Fn(&mut T) + Sync>(self, f: F) {
        chunked_for_each_mut(self.0, f);
    }
}

/// `.par_iter_mut()` on slice-backed containers.
pub trait IntoParallelRefMutIterator<'a> {
    /// Element type.
    type Item: 'a;
    /// Mutably borrowing parallel iterator.
    fn par_iter_mut(&'a mut self) -> ParIterMut<'a, Self::Item>;
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for [T] {
    type Item = T;
    fn par_iter_mut(&'a mut self) -> ParIterMut<'a, T> {
        ParIterMut(self)
    }
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for Vec<T> {
    type Item = T;
    fn par_iter_mut(&'a mut self) -> ParIterMut<'a, T> {
        ParIterMut(self)
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn for_each_mut_touches_every_element() {
        let mut v = vec![0u64; 4096];
        v.par_iter_mut().for_each(|x| *x += 1);
        assert!(v.iter().all(|&x| x == 1));
    }

    #[test]
    fn worker_panic_unwinds_not_aborts() {
        let mut v: Vec<i64> = (0..64).collect();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            v.par_iter_mut().for_each(|x| {
                if *x == 63 {
                    panic!("injected");
                }
                *x += 1;
            })
        }));
        assert!(r.is_err());
    }
}
