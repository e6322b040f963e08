//! Offline shim for the subset of `rayon` this workspace uses.
//!
//! The build environment has no network access, so the real crate cannot
//! be fetched. This shim reimplements the few parallel-iterator entry
//! points the engine and matchers rely on (`par_iter().map().collect()`,
//! `par_iter_mut().for_each()`) as contiguous-chunk fork-join over
//! `std::thread::scope`. Chunks are joined in order, so `map` + `collect`
//! preserves input order exactly like rayon's indexed parallel iterators —
//! the property the engine's deterministic delta merge depends on.
//!
//! Thread count comes from `RAYON_NUM_THREADS` (compat) or
//! `std::thread::available_parallelism`. A panic inside a worker closure
//! unwinds into the forking thread (as with rayon), not the whole process.

use std::panic;

/// The traits user code imports via `use rayon::prelude::*;`.
pub mod prelude {
    pub use crate::{IntoParallelRefIterator, IntoParallelRefMutIterator};
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

/// Applies `f` to every element, in parallel chunks, preserving order.
fn chunked_map<'a, T, U, F>(items: &'a [T], f: &F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&'a T) -> U + Sync,
{
    let n = items.len();
    let threads = max_threads().min(n);
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let chunk = n.div_ceil(threads);
    let mut parts: Vec<Vec<U>> = Vec::with_capacity(threads);
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|c| s.spawn(move || c.iter().map(f).collect::<Vec<U>>()))
            .collect();
        for h in handles {
            match h.join() {
                Ok(part) => parts.push(part),
                Err(payload) => panic::resume_unwind(payload),
            }
        }
    });
    parts.into_iter().flatten().collect()
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

/// Shared-reference parallel iterator (`.par_iter()`).
pub struct ParIter<'a, T>(&'a [T]);

/// Mutable-reference parallel iterator (`.par_iter_mut()`).
pub struct ParIterMut<'a, T>(&'a mut [T]);

/// A mapped parallel iterator awaiting `collect`.
pub struct ParMap<'a, T, F> {
    items: &'a [T],
    f: F,
}

impl<'a, T: Sync> ParIter<'a, T> {
    /// Maps every element; evaluation happens at `collect`.
    pub fn map<U, F: Fn(&'a T) -> U>(self, f: F) -> ParMap<'a, T, F> {
        ParMap { items: self.0, f }
    }
}

impl<'a, T: Sync, U: Send, F: Fn(&'a T) -> U + Sync> ParMap<'a, T, F> {
    /// Evaluates the map in parallel and collects in input order.
    pub fn collect<C: FromIterator<U>>(self) -> C {
        chunked_map(self.items, &self.f).into_iter().collect()
    }
}

impl<'a, T: Send> ParIterMut<'a, T> {
    /// Runs `f` over every element in parallel.
    pub fn for_each<F: Fn(&mut T) + Sync>(self, f: F) {
        chunked_for_each_mut(self.0, f);
    }
}

/// `.par_iter()` on slice-backed containers.
pub trait IntoParallelRefIterator<'a> {
    /// Element type.
    type Item: 'a;
    /// Borrowing parallel iterator.
    fn par_iter(&'a self) -> ParIter<'a, Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter(self)
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter(self)
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
    fn map_collect_preserves_order() {
        let v: Vec<i64> = (0..10_000).collect();
        let doubled: Vec<i64> = v.par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, (0..10_000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn collect_into_result_short_circuits_like_fromiterator() {
        let v: Vec<i64> = (0..100).collect();
        let ok: Result<Vec<i64>, String> = v.par_iter().map(|x| Ok(*x)).collect();
        assert_eq!(ok.unwrap().len(), 100);
        let err: Result<Vec<i64>, String> = v
            .par_iter()
            .map(|x| if *x == 50 { Err("boom".to_string()) } else { Ok(*x) })
            .collect();
        assert_eq!(err.unwrap_err(), "boom");
    }

    #[test]
    fn for_each_mut_touches_every_element() {
        let mut v = vec![0u64; 4096];
        v.par_iter_mut().for_each(|x| *x += 1);
        assert!(v.iter().all(|&x| x == 1));
    }

    #[test]
    fn worker_panic_unwinds_not_aborts() {
        let v: Vec<i64> = (0..64).collect();
        let r = std::panic::catch_unwind(|| {
            v.par_iter()
                .map(|x| {
                    if *x == 63 {
                        panic!("injected");
                    }
                    *x
                })
                .collect::<Vec<i64>>()
        });
        assert!(r.is_err());
    }
}
