//! String interning and a fast, dependency-free hasher.
//!
//! Every label, function name, and atomic value in an AXML tree is an
//! interned symbol ([`Sym`]). Interning makes marking comparison an integer
//! comparison, which the subsumption and reduction algorithms (run millions
//! of times per rewriting) depend on.
//!
//! Interned strings live for the lifetime of the process: the interner
//! leaks each distinct string once so that [`Sym::as_str`] can hand out
//! `&'static str` without locking. The set of distinct markings in an AXML
//! workload is small (labels, service names, atomic values of the system),
//! so this is bounded in practice.
//!
//! The interner is safe to use from any number of threads — the server's
//! connection threads and the p2p peer threads intern and resolve symbols
//! concurrently. Reads take a shared `RwLock` guard; an insert upgrades
//! to the write lock and re-checks under it (double-checked), so two
//! threads racing to intern the same string always agree on one id. The
//! lock is the in-repo `parking_lot` shim, which recovers rather than
//! propagates poison, so a panicking thread can never wedge the interner
//! for the rest of the process.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::OnceLock;

/// An interned string. Cheap to copy, hash, and compare.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(u32);

struct Interner {
    map: HashMap<&'static str, u32>,
    strings: Vec<&'static str>,
}

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        RwLock::new(Interner {
            map: HashMap::new(),
            strings: Vec::new(),
        })
    })
}

impl Sym {
    /// Intern `s`, returning its symbol. Idempotent, and safe to call
    /// from concurrent threads: racing interns of the same string agree
    /// on the same id (the insert re-checks under the write lock).
    pub fn intern(s: &str) -> Sym {
        let int = interner();
        if let Some(&id) = int.read().map.get(s) {
            return Sym(id);
        }
        let mut w = int.write();
        if let Some(&id) = w.map.get(s) {
            return Sym(id);
        }
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let id = w.strings.len() as u32;
        w.strings.push(leaked);
        w.map.insert(leaked, id);
        Sym(id)
    }

    /// The interned string.
    pub fn as_str(self) -> &'static str {
        interner().read().strings[self.0 as usize]
    }

    /// The raw interner index (stable for the process lifetime).
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sym({:?})", self.as_str())
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Sym {
    fn from(s: &str) -> Sym {
        Sym::intern(s)
    }
}

/// A fast multiply-xor hasher in the style of `rustc-hash`'s FxHasher,
/// written in-repo to stay within the sanctioned dependency set.
///
/// Not HashDoS-resistant; AXML workloads hash internal ids and interned
/// symbols, not attacker-controlled keys.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }
}

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<K> = std::collections::HashSet<K, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let a = Sym::intern("directory");
        let b = Sym::intern("directory");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "directory");
    }

    #[test]
    fn distinct_strings_distinct_syms() {
        assert_ne!(Sym::intern("a"), Sym::intern("b"));
    }

    #[test]
    fn display_and_debug() {
        let s = Sym::intern("rating");
        assert_eq!(format!("{s}"), "rating");
        assert_eq!(format!("{s:?}"), "Sym(\"rating\")");
    }

    #[test]
    fn fxhash_differs_on_inputs() {
        let mut h1 = FxHasher::default();
        h1.write_u64(1);
        let mut h2 = FxHasher::default();
        h2.write_u64(2);
        assert_ne!(h1.finish(), h2.finish());
    }

    #[test]
    fn fxhash_handles_byte_remainders() {
        let mut h1 = FxHasher::default();
        h1.write(b"abcdefghi"); // 8 + 1 bytes
        let mut h2 = FxHasher::default();
        h2.write(b"abcdefghj");
        assert_ne!(h1.finish(), h2.finish());
    }

    #[test]
    fn concurrent_intern_stress() {
        // Many threads intern overlapping string sets while others
        // resolve: every thread must observe one consistent id per
        // string and `as_str` must round-trip, with no panic or
        // deadlock. (Server connections and p2p peers do exactly this.)
        const THREADS: usize = 8;
        const STRINGS: usize = 200;
        let ids: Vec<Vec<(String, Sym)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    s.spawn(move || {
                        let mut out = Vec::with_capacity(STRINGS);
                        for i in 0..STRINGS {
                            // Offset start so threads collide on a
                            // shifting frontier of brand-new strings.
                            let i = (i + t * 31) % STRINGS;
                            let key = format!("stress-sym-{i}");
                            let sym = Sym::intern(&key);
                            assert_eq!(sym.as_str(), key);
                            assert_eq!(Sym::intern(&key), sym);
                            out.push((key, sym));
                        }
                        out
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut canon: HashMap<String, Sym> = HashMap::new();
        for thread_ids in ids {
            for (key, sym) in thread_ids {
                assert_eq!(*canon.entry(key).or_insert(sym), sym);
            }
        }
        assert_eq!(canon.len(), STRINGS);
    }

    #[test]
    fn sym_ordering_is_stable() {
        let a = Sym::intern("zzz-order-1");
        let b = Sym::intern("zzz-order-2");
        // Interner order, not lexicographic: first interned sorts first.
        assert!(a < b);
    }
}
