//! String interning for trace labels.
//!
//! Recording a trace event used to heap-allocate a `Box<str>` label —
//! a real probe effect in the spirit of the paper's §III-D concern:
//! the measurement apparatus (here, the simulator's own tracing) must
//! not perturb the system under test. Interning fixes that: labels are
//! deduplicated once at task-submission time into a [`SymbolTable`],
//! and every trace event carries a `Copy` 4-byte [`Symbol`]. Strings
//! are materialized only at report/export time. Interning itself is on
//! the hot path, so the table is an arena that a reused machine clears
//! and refills without allocating.

use std::collections::BTreeMap;
use std::fmt;

/// An interned trace label: a dense index into the [`SymbolTable`]
/// that minted it.
///
/// Symbols are meaningful only together with their table; resolving a
/// symbol against a different table is a logic error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

impl Symbol {
    /// Raw table index (useful for logging).
    pub fn index(self) -> u32 {
        self.0
    }

    /// Rebuilds a symbol from its raw index — the inverse of
    /// [`Symbol::index`], used by the columnar trace store to decode
    /// label columns back into symbols. The index must have come from
    /// the same table the symbol will be resolved against.
    pub(crate) fn from_index(index: u32) -> Symbol {
        Symbol(index)
    }
}

/// A deduplicating string table mapping labels to [`Symbol`]s.
///
/// The strings sit back to back in one `String`, one `(start, end)` span
/// per symbol. The reverse index is open-addressed (`symbol + 1`, 0 for
/// empty), at most half full, probed linearly from a fixed FNV-1a hash.
/// Symbols are numbered in intern order, so the hash never decides a
/// number, and every run with the same seed is byte-identical.
///
/// # Example
///
/// ```
/// use aitax_des::SymbolTable;
///
/// let mut table = SymbolTable::new();
/// let a = table.intern("inference");
/// let b = table.intern("inference");
/// assert_eq!(a, b);
/// assert_eq!(table.resolve(a), "inference");
/// ```
#[derive(Clone, Default)]
pub struct SymbolTable {
    text: String,
    spans: Vec<(usize, usize)>,
    slots: Vec<u32>,
}

impl SymbolTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The index slot holding `s`, or the empty slot where it belongs.
    fn probe(&self, s: &str) -> usize {
        let hash = s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x1_0000_01b3)
        });
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        while self.slots[i] != 0 && self.str_at(self.slots[i] as usize - 1) != s {
            i = (i + 1) & mask;
        }
        i
    }

    fn str_at(&self, i: usize) -> &str {
        &self.text[self.spans[i].0..self.spans[i].1]
    }

    /// Interns `s`, returning the existing symbol if already present.
    ///
    /// A repeat is a hash and usually one string compare; a new string
    /// allocates only when the arena, spans or index outgrow their
    /// capacity.
    pub fn intern(&mut self, s: &str) -> Symbol {
        if 2 * (self.spans.len() + 1) > self.slots.len() {
            // Double the index (64 slots at first) and re-insert.
            self.slots = vec![0; (2 * self.slots.len()).max(64)];
            for i in 0..self.spans.len() {
                let slot = self.probe(self.str_at(i));
                self.slots[slot] = i as u32 + 1;
            }
        }
        let slot = self.probe(s);
        if let Some(i) = self.slots[slot].checked_sub(1) {
            return Symbol(i);
        }
        let entry = u32::try_from(self.spans.len() + 1)
            // aitax-allow(panic-path): 2^32 distinct labels means the workload generator is broken
            .expect("symbol table overflow");
        let start = self.text.len();
        self.text.push_str(s);
        self.spans.push((start, self.text.len()));
        self.slots[slot] = entry;
        Symbol(entry - 1)
    }

    /// The string a symbol stands for.
    ///
    /// # Panics
    ///
    /// Panics if `sym` was minted by a different table.
    pub fn resolve(&self, sym: Symbol) -> &str {
        let i = sym.0 as usize;
        assert!(
            i < self.len(),
            "symbol resolved against a table that did not intern it"
        );
        self.str_at(i)
    }

    /// Forgets every interned string, invalidating previously minted
    /// symbols. The arena, spans and index keep their capacity, so a
    /// reused table re-interns a run's labels without allocating.
    ///
    /// A reused table must start empty rather than carry symbols over:
    /// symbol indices are assigned in intern order, so retained content
    /// would make the numbering (and thus trace bytes) depend on what
    /// earlier runs happened to intern.
    pub fn clear(&mut self) {
        self.text.clear();
        self.spans.clear();
        self.slots.fill(0);
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

/// Prints the derived layout of the `Vec` + `BTreeMap` this table used
/// to be, which report fingerprints hash.
impl fmt::Debug for SymbolTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let strings: Vec<&str> = (0..self.len()).map(|i| self.str_at(i)).collect();
        let index: BTreeMap<&str, u32> = strings.iter().copied().zip(0..).collect();
        f.debug_struct("SymbolTable")
            .field("strings", &strings)
            .field("index", &index)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_dedupes() {
        let mut t = SymbolTable::new();
        let a = t.intern("x");
        let b = t.intern("y");
        let a2 = t.intern("x");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn resolve_roundtrips() {
        let mut t = SymbolTable::new();
        let labels = ["conv2d", "pooling", "fully-connected", ""];
        let syms: Vec<Symbol> = labels.iter().map(|l| t.intern(l)).collect();
        for (l, s) in labels.iter().zip(&syms) {
            assert_eq!(t.resolve(*s), *l);
        }
    }

    #[test]
    fn symbols_are_assigned_in_intern_order() {
        let mut t = SymbolTable::new();
        assert_eq!(t.intern("a").index(), 0);
        assert_eq!(t.intern("b").index(), 1);
        assert_eq!(t.intern("a").index(), 0);
    }

    #[test]
    #[should_panic(expected = "did not intern")]
    fn foreign_symbol_panics() {
        let mut a = SymbolTable::new();
        a.intern("x");
        let mut b = SymbolTable::new();
        let s = b.intern("y");
        let _ = s;
        let empty = SymbolTable::new();
        empty.resolve(Symbol(0));
    }

    #[test]
    fn clear_restarts_numbering_like_a_fresh_table() {
        let mut t = SymbolTable::new();
        t.intern("a");
        t.intern("b");
        t.clear();
        assert!(t.is_empty());
        // Post-clear numbering matches a brand-new table.
        assert_eq!(t.intern("z").index(), 0);
        assert_eq!(t.intern("a").index(), 1);
    }

    #[test]
    fn index_grows_past_its_initial_size() {
        let mut t = SymbolTable::new();
        let labels: Vec<String> = (0..12_000)
            .map(|i| format!("op{}#{}", i / 4, i % 4))
            .collect();
        for (i, l) in labels.iter().enumerate() {
            assert_eq!(t.intern(l).index() as usize, i);
        }
        assert!(t.slots.len() >= 2 * labels.len());
        for (i, l) in labels.iter().enumerate() {
            assert_eq!(t.intern(l).index() as usize, i, "{l} re-interned as new");
            assert_eq!(t.resolve(Symbol(i as u32)), l);
        }
        assert_eq!(t.len(), labels.len());
    }

    #[test]
    fn clear_and_refill_keeps_capacity() {
        let labels: Vec<String> = (0..500).map(|i| format!("conv2d#{i}")).collect();
        let mut t = SymbolTable::new();
        labels.iter().for_each(|l| {
            t.intern(l);
        });
        let caps = |t: &SymbolTable| (t.text.capacity(), t.spans.capacity(), t.slots.capacity());
        let before = caps(&t);
        for _ in 0..3 {
            t.clear();
            for (i, l) in labels.iter().enumerate() {
                assert_eq!(t.intern(l).index() as usize, i);
            }
            assert_eq!(caps(&t), before, "refill reallocated");
        }
    }

    /// The storage the table replaced, with its derived `Debug`.
    mod old {
        use std::collections::BTreeMap;

        #[derive(Debug, Default)]
        pub struct SymbolTable {
            pub strings: Vec<Box<str>>,
            pub index: BTreeMap<Box<str>, u32>,
        }
    }

    #[test]
    fn debug_matches_the_old_derived_layout() {
        let mut t = SymbolTable::new();
        let mut want = old::SymbolTable::default();
        for l in ["preprocess \"frame\"", "b#1", "", "a\n", "b#0", "b#1"] {
            t.intern(l);
            if !want.index.contains_key(l) {
                want.index.insert(l.into(), want.strings.len() as u32);
                want.strings.push(l.into());
            }
        }
        assert_eq!(format!("{t:?}"), format!("{want:?}"));
        assert_eq!(format!("{t:#?}"), format!("{want:#?}"));
        assert_eq!(
            format!("{:?}", SymbolTable::new()),
            "SymbolTable { strings: [], index: {} }"
        );
    }

    #[test]
    fn empty_table_reports_empty() {
        let t = SymbolTable::new();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }
}
