//! The spelling ↔ id table a [`Recording`](crate::Recording) owns: event
//! names and argument keys become `u16` ids in first-appearance order,
//! so identical recordings number their names identically.
//!
//! A live recording spells a few dozen `&'static str` literals a million
//! times over, so a literal resolves by *where it sits* — a `Memo`
//! probe, no hashing of its bytes. Only a literal's first appearance (or
//! the same spelling at a second address, or a name parsed out of JSONL)
//! reaches the content-keyed map.

use std::collections::HashMap;

/// A small memo in front of a slower exact map: open addressing over a
/// fixed table with a bounded probe. It never evicts — two hot keys that
/// hash alike both stay, however a linker or a trace laid them out — and
/// a key that finds no free slot is simply not remembered. Empty (and
/// unallocated) until the first [`Memo::put`].
#[derive(Debug, Clone)]
pub(crate) struct Memo<K> {
    slots: Vec<Option<(K, usize)>>,
}

impl<K> Default for Memo<K> {
    fn default() -> Self {
        Self { slots: Vec::new() }
    }
}

impl<K: Copy + PartialEq> Memo<K> {
    const SLOTS: usize = 256;

    fn probe(hash: usize) -> impl Iterator<Item = usize> {
        (0..8).map(move |step| hash.wrapping_add(step) % Self::SLOTS)
    }

    #[inline(always)]
    pub(crate) fn get(&self, hash: usize, key: K) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        for at in Self::probe(hash) {
            match self.slots[at] {
                Some((k, id)) if k == key => return Some(id),
                Some(_) => {}
                None => return None,
            }
        }
        None
    }

    pub(crate) fn put(&mut self, hash: usize, key: K, id: usize) {
        if self.slots.is_empty() {
            self.slots = vec![None; Self::SLOTS];
        }
        if let Some(at) = Self::probe(hash).find(|&at| self.slots[at].is_none()) {
            self.slots[at] = Some((key, id));
        }
    }
}

/// Interned spellings, ids in first-appearance order.
#[derive(Debug, Clone, Default)]
pub struct Names {
    spellings: Vec<Box<str>>,
    by_spelling: HashMap<Box<str>, u16>,
    /// `(address, length)` of a literal → id.
    by_address: Memo<(usize, usize)>,
}

impl Names {
    /// Id of a literal, by pointer identity first. `None` once 65 536
    /// distinct spellings are taken.
    #[inline(always)]
    pub(crate) fn intern_static(&mut self, s: &'static str) -> Option<u16> {
        // Literals lie back to back, so their addresses spread over the
        // memo's slots by themselves.
        let key = (s.as_ptr() as usize, s.len());
        if let Some(id) = self.by_address.get(key.0, key) {
            return Some(id as u16);
        }
        let id = self.intern(s)?;
        self.by_address.put(key.0, key, usize::from(id));
        Some(id)
    }

    /// Id of a spelling, by content. `None` once 65 536 distinct
    /// spellings are taken.
    pub(crate) fn intern(&mut self, s: &str) -> Option<u16> {
        if let Some(&id) = self.by_spelling.get(s) {
            return Some(id);
        }
        let id = u16::try_from(self.spellings.len()).ok()?;
        self.spellings.push(s.into());
        self.by_spelling.insert(s.into(), id);
        Some(id)
    }

    /// The id `s` was given, if it ever appeared.
    pub fn id_of(&self, s: &str) -> Option<u16> {
        self.by_spelling.get(s).copied()
    }

    /// Every spelling, indexed by id.
    pub fn spellings(&self) -> &[Box<str>] {
        &self.spellings
    }

    /// Bytes the table holds on the heap (an estimate for the
    /// content-keyed map, whose layout is the standard library's).
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let text: usize = self.spellings.iter().map(|s| s.len()).sum();
        2 * text
            + self.spellings.capacity() * size_of::<Box<str>>()
            + self.by_spelling.capacity() * (size_of::<(Box<str>, u16)>() + 1)
            + self.by_address.slots.capacity() * size_of::<Option<((usize, usize), usize)>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_follow_first_appearance_whichever_way_a_spelling_arrives() {
        let mut names = Names::default();
        assert_eq!(names.heap_bytes(), 0, "nothing interned, nothing allocated");
        assert_eq!(names.intern_static("write"), Some(0));
        assert_eq!(names.intern("lpn"), Some(1));
        assert_eq!(names.intern_static("write"), Some(0));
        // The same spelling at another address is the same name.
        let elsewhere: &'static str = String::from("write").leak();
        assert_eq!(names.intern_static(elsewhere), Some(0));
        assert_eq!(names.intern_static("lpn"), Some(1));
        assert_eq!(names.id_of("lpn"), Some(1));
        assert_eq!(names.id_of("ppn"), None);
        assert_eq!(names.spellings(), [Box::from("write"), Box::from("lpn")]);
        assert!(names.heap_bytes() > 0);
    }

    #[test]
    fn a_memo_never_evicts_and_a_full_one_only_forgets() {
        // Nine keys with one hash: eight stay for good, the ninth finds
        // no slot within the probe and is not remembered.
        let mut memo = Memo::default();
        assert_eq!(memo.get(7, 0), None, "no table before the first put");
        for key in 0..9 {
            memo.put(7, key, key + 100);
        }
        for key in 0..8 {
            assert_eq!(memo.get(7, key), Some(key + 100));
        }
        assert_eq!(memo.get(7, 8), None);
        // More literals than the memo has slots still intern exactly.
        let literals: Vec<&'static str> = (0..600).map(|i| &*format!("name{i}").leak()).collect();
        let mut names = Names::default();
        for _ in 0..2 {
            for (i, s) in literals.iter().enumerate() {
                assert_eq!(names.intern_static(s), Some(i as u16));
            }
        }
    }

    #[test]
    fn the_id_space_ends_without_a_panic() {
        let mut names = Names::default();
        for i in 0..=u16::MAX {
            assert_eq!(names.intern(&i.to_string()), Some(i));
        }
        assert_eq!(names.intern("one more"), None);
        assert_eq!(names.intern("7"), Some(7), "spellings already held still resolve");
    }
}
