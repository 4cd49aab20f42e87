//! Property-based tests for the dedup substrate.

use cagc_dedup::{ContentId, Fingerprint, FingerprintIndex, Sha1};
use cagc_harness::prop::*;
use std::collections::HashMap;

harness_proptest! {
    /// SHA-1 streaming with arbitrary chunking equals one-shot hashing.
    #[test]
    fn sha1_chunking_invariance(data in vec(any::<u8>(), 0..2000),
                                cuts in vec(1usize..64, 0..40)) {
        let expect = Sha1::digest(&data);
        let mut s = Sha1::new();
        let mut rest: &[u8] = &data;
        for &c in &cuts {
            if rest.is_empty() { break; }
            let take = c.min(rest.len());
            s.update(&rest[..take]);
            rest = &rest[take..];
        }
        s.update(rest);
        prop_assert_eq!(s.finalize(), expect);
    }

    /// The fingerprint relation is exactly content-id equality.
    #[test]
    fn fingerprints_respect_content_equality(a in any::<u64>(), b in any::<u64>()) {
        let fa = Fingerprint::of_content(ContentId(a));
        let fb = Fingerprint::of_content(ContentId(b));
        prop_assert_eq!(fa == fb, a == b);
    }

    /// Index model check: drive the index with random insert / add_ref /
    /// release / trimmed-release / forget+restore / absorption operations
    /// and mirror it against a naive HashMap model. The index must agree
    /// with the model after every operation, and its internal audit must
    /// always pass. Ops 3–5 cover the paths the open-addressed rewrite had
    /// to keep drop-in compatible: trim-attributed releases, the
    /// recovery-style forget-then-restore move, and the GC-absorption
    /// forget that drops an entry without counting an invalidation.
    ///
    /// After every operation it also checks, for every physical page ever
    /// used, that the by-address lookup GC migration relies on is the
    /// by-fingerprint one: `lookup_ppn(p)` ≡ `lookup(&fp_of_ppn(p))`, in
    /// the entry returned and in the `IndexStats` it leaves behind.
    #[test]
    fn index_agrees_with_naive_model(ops in vec((0u8..6, 0u64..20), 1..300)) {
        agrees_with_naive_model(&ops, |c| Fingerprint::of_content(ContentId(c)))?;
    }

    /// The same model check where probe keys collide: a fingerprint's
    /// first eight bytes (the probe key, so also the cell's 32-bit tag)
    /// come from `content % 3` and its other twelve from `content`, so
    /// up to a dozen distinct fingerprints share each key. Robin-Hood
    /// displacement and backward-shift deletion then run inside runs of
    /// equal tags, and every probe has to tell entries apart at the slab.
    #[test]
    fn index_agrees_with_naive_model_under_colliding_keys(ops in vec((0u8..6, 0u64..36), 1..300)) {
        agrees_with_naive_model(&ops, colliding_fp)?;
    }

    /// total_refs equals the sum of model refcounts.
    #[test]
    fn total_refs_matches_model(refcounts in vec(1u32..9, 0..50)) {
        let mut ix = FingerprintIndex::new();
        let mut sum = 0u64;
        for (i, &r) in refcounts.iter().enumerate() {
            ix.insert(Fingerprint::of_content(ContentId(i as u64)), i as u64, r);
            sum += r as u64;
        }
        prop_assert_eq!(ix.total_refs(), sum);
    }
}

/// A fingerprint whose probe key is that of `content % 3` and whose other
/// twelve bytes are `content`'s own — distinct for distinct contents,
/// because `of_content`'s second word is a bijection of the id too.
fn colliding_fp(content: u64) -> Fingerprint {
    let mut bytes = Fingerprint::of_content(ContentId(content)).0;
    bytes[..8].copy_from_slice(&Fingerprint::of_content(ContentId(content % 3)).0[..8]);
    Fingerprint(bytes)
}

/// Drive an index with `(op, content)` steps — insert / add_ref, release,
/// relocate, trimmed release, forget + restore, absorption — keying each
/// content by `fp_of`, and check it against a naive HashMap model after
/// every step.
fn agrees_with_naive_model(
    ops: &[(u8, u64)],
    fp_of: impl Fn(u64) -> Fingerprint,
) -> Result<(), TestCaseError> {
    let mut ix = FingerprintIndex::new();
    // model: content -> (ppn, refs)
    let mut model: HashMap<u64, (u64, u32)> = HashMap::new();
    let mut next_ppn = 0u64;
    let mut trim_releases = 0u64;

    for &(op, content) in ops {
        let fp = fp_of(content);
        match op {
            0 => {
                // "write": hit -> add ref; miss -> insert at fresh ppn
                if let std::collections::hash_map::Entry::Vacant(e) = model.entry(content) {
                    ix.insert(fp, next_ppn, 1);
                    e.insert((next_ppn, 1));
                    next_ppn += 1;
                } else {
                    ix.add_refs(&fp, 1);
                    model.get_mut(&content).expect("present").1 += 1;
                }
            }
            1 | 3 => {
                // "overwrite/delete" (1) or "host trim" (3): release
                // one ref if present; a trim additionally counts in
                // the trim-release statistic.
                if let Some(&(ppn, refs)) = model.get(&content) {
                    let rem = if op == 3 {
                        trim_releases += 1;
                        ix.release_ppn_trimmed(ppn).expect("tracked")
                    } else {
                        ix.release_ppn(ppn).expect("tracked")
                    };
                    if refs == 1 {
                        prop_assert_eq!(rem, 0);
                        model.remove(&content);
                    } else {
                        prop_assert_eq!(rem, refs - 1);
                        model.get_mut(&content).expect("present").1 -= 1;
                    }
                } else {
                    prop_assert_eq!(ix.lookup(&fp), None);
                }
            }
            2 => {
                // "GC relocate" if present
                if let Some(entry) = model.get_mut(&content) {
                    ix.relocate(entry.0, next_ppn);
                    entry.0 = next_ppn;
                    next_ppn += 1;
                }
            }
            4 => {
                // Recovery-style move: forget the entry, then restore
                // it at a fresh ppn with the same refcount (what the
                // post-crash rebuild does from OOB stamps).
                if let Some(entry) = model.get_mut(&content) {
                    let e = ix.forget_ppn(entry.0).expect("tracked");
                    prop_assert_eq!(e.refs, entry.1);
                    ix.restore(fp, next_ppn, e.refs);
                    entry.0 = next_ppn;
                    next_ppn += 1;
                } else {
                    prop_assert_eq!(ix.peek(&fp), None);
                }
            }
            _ => {
                // GC absorption: the copy's references move wholesale
                // to another stored copy and this entry is forgotten
                // without an invalidation record. The content becomes
                // untracked; a later write re-inserts it fresh.
                if let Some(&(ppn, refs)) = model.get(&content) {
                    let e = ix.forget_ppn(ppn).expect("tracked");
                    prop_assert_eq!(e.refs, refs);
                    model.remove(&content);
                }
            }
        }
        // Full agreement after every step.
        prop_assert_eq!(ix.len(), model.len());
        prop_assert_eq!(ix.ref_stats().trim_releases(), trim_releases);
        for (&c, &(ppn, refs)) in &model {
            let e = ix.peek(&fp_of(c)).expect("entry");
            prop_assert_eq!(e.ppn, ppn);
            prop_assert_eq!(e.refs, refs);
            prop_assert_eq!(ix.refs_of_ppn(ppn), Some(refs));
            prop_assert_eq!(ix.fp_of_ppn(ppn), Some(fp_of(c)));
        }
        ix.audit().map_err(TestCaseError::fail)?;
        let (mut by_ppn, mut by_fp) = (ix.clone(), ix.clone());
        for ppn in 0..next_ppn {
            let expect = by_fp.fp_of_ppn(ppn).map(|fp| {
                (
                    fp,
                    by_fp.lookup(&fp).expect("a stored fingerprint is indexed"),
                )
            });
            prop_assert_eq!(by_ppn.lookup_ppn(ppn), expect);
            prop_assert_eq!(by_ppn.stats(), by_fp.stats());
        }
    }
    Ok(())
}
