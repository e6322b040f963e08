//! String interning.
//!
//! Every identifier in a PARULEL program — class names, attribute names,
//! rule names, and symbolic constants in working memory — is interned once
//! into a [`Symbol`] (a `u32` newtype). All equality tests during matching
//! are then integer compares, and WMEs store 8-byte [`Value`]s instead of
//! strings.
//!
//! [`Interner`] is cheaply clonable (an `Arc` around a
//! `std::sync::RwLock`), so the program, the working memory, and every
//! parallel match worker can share one table. Interning is rare at runtime
//! (only `write` actions and trace formatting resolve strings), so the lock
//! is uncontended in the hot path.
//!
//! [`Value`]: crate::value::Value

use crate::hash::FxHashMap;
use std::fmt;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// An interned string handle. Two symbols from the same [`Interner`] are
/// equal iff their source strings are equal.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub u32);

impl Symbol {
    /// The reserved symbol for `nil`, pre-interned at index 0 in every
    /// [`Interner`]. `nil` is OPS5's "no value" placeholder.
    pub const NIL: Symbol = Symbol(0);

    /// Raw index of this symbol in its interner.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sym#{}", self.0)
    }
}

#[derive(Default)]
struct Inner {
    strings: Vec<Arc<str>>,
    ids: FxHashMap<Arc<str>, Symbol>,
}

/// A thread-safe string interner.
///
/// ```
/// use parulel_core::symbol::{Interner, Symbol};
/// let interner = Interner::new();
/// let a = interner.intern("job");
/// let b = interner.intern("job");
/// assert_eq!(a, b);
/// assert_eq!(interner.resolve(a).as_ref(), "job");
/// assert_eq!(interner.intern("nil"), Symbol::NIL);
/// ```
#[derive(Clone)]
pub struct Interner {
    inner: Arc<RwLock<Inner>>,
}

impl Default for Interner {
    fn default() -> Self {
        Self::new()
    }
}

impl Interner {
    /// Creates an interner with `nil` pre-interned as [`Symbol::NIL`].
    pub fn new() -> Self {
        let this = Interner {
            inner: Arc::new(RwLock::new(Inner::default())),
        };
        let nil = this.intern("nil");
        debug_assert_eq!(nil, Symbol::NIL);
        this
    }

    // Poison is recovered, not propagated: only `intern` writes, and its
    // one panic (symbol overflow) fires before it changes anything, so a
    // poisoned table is still consistent and must not wedge every lookup.
    fn read(&self) -> RwLockReadGuard<'_, Inner> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, Inner> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Interns `s`, returning its stable [`Symbol`].
    pub fn intern(&self, s: &str) -> Symbol {
        // Fast path: read lock only.
        if let Some(&sym) = self.read().ids.get(s) {
            return sym;
        }
        let mut inner = self.write();
        if let Some(&sym) = inner.ids.get(s) {
            return sym; // raced with another writer
        }
        let sym =
            Symbol(u32::try_from(inner.strings.len()).expect("interner overflow: > 2^32 symbols"));
        let arc: Arc<str> = Arc::from(s);
        inner.strings.push(arc.clone());
        inner.ids.insert(arc, sym);
        sym
    }

    /// Looks up a symbol without interning. Returns `None` if `s` has never
    /// been interned.
    pub fn get(&self, s: &str) -> Option<Symbol> {
        self.read().ids.get(s).copied()
    }

    /// Resolves a symbol back to its string.
    ///
    /// # Panics
    /// Panics if `sym` did not come from this interner (index out of range).
    pub fn resolve(&self, sym: Symbol) -> Arc<str> {
        self.read().strings[sym.index()].clone()
    }

    /// True when `self` and `other` are clones of one interner (shared
    /// underlying table), so symbol ids are interchangeable between them.
    /// Hot reload uses this to insist the replacement program was compiled
    /// into the running program's symbol space.
    pub fn shares_table_with(&self, other: &Interner) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Number of distinct symbols interned so far (≥ 1 because of `nil`).
    pub fn len(&self) -> usize {
        self.read().strings.len()
    }

    /// Always false: `nil` is pre-interned.
    pub fn is_empty(&self) -> bool {
        false
    }
}

impl fmt::Debug for Interner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Interner({} symbols)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nil_is_symbol_zero() {
        let i = Interner::new();
        assert_eq!(i.intern("nil"), Symbol::NIL);
        assert_eq!(i.resolve(Symbol::NIL).as_ref(), "nil");
    }

    #[test]
    fn intern_is_idempotent() {
        let i = Interner::new();
        let a = i.intern("alpha");
        let b = i.intern("beta");
        assert_ne!(a, b);
        assert_eq!(i.intern("alpha"), a);
        assert_eq!(i.intern("beta"), b);
        assert_eq!(i.len(), 3); // nil + 2
    }

    #[test]
    fn get_does_not_intern() {
        let i = Interner::new();
        assert_eq!(i.get("ghost"), None);
        let s = i.intern("ghost");
        assert_eq!(i.get("ghost"), Some(s));
    }

    #[test]
    fn resolve_roundtrip() {
        let i = Interner::new();
        let words = ["job", "machine", "status", "^weird-chars!?", ""];
        let syms: Vec<_> = words.iter().map(|w| i.intern(w)).collect();
        for (w, s) in words.iter().zip(&syms) {
            assert_eq!(i.resolve(*s).as_ref(), *w);
        }
    }

    #[test]
    fn clones_share_table() {
        let i = Interner::new();
        let j = i.clone();
        let a = i.intern("shared");
        assert_eq!(j.get("shared"), Some(a));
        let b = j.intern("other");
        assert_eq!(i.get("other"), Some(b));
    }

    #[test]
    fn concurrent_intern_same_symbol() {
        let i = Interner::new();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let i = i.clone();
                std::thread::spawn(move || i.intern("contended"))
            })
            .collect();
        let syms: Vec<Symbol> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(syms.windows(2).all(|w| w[0] == w[1]));
    }
}
