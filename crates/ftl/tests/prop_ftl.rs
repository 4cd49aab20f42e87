//! Property-based tests for the FTL substrate.

use cagc_ftl::{Allocator, MappingTable, Region, ReverseMap, VictimCandidate, VictimKind,
               VictimSelector};
use cagc_harness::prop::*;
use std::collections::HashMap;

harness_proptest! {
    /// Mapping table + reverse map stay mutually consistent under random
    /// map/remap/unmap traffic; total_refs equals mapped_count.
    #[test]
    fn forward_and_reverse_maps_agree(ops in vec((0u8..2, 0u64..50, 0u64..200), 1..400)) {
        let mut fwd = MappingTable::new(50);
        let mut rev = ReverseMap::new();
        for &(op, lpn, ppn) in &ops {
            match op {
                0 => {
                    // write lpn -> ppn
                    if let Some(old) = fwd.set(lpn, ppn) {
                        rev.remove(old, lpn);
                    }
                    rev.add(ppn, lpn);
                }
                _ => {
                    // trim lpn
                    if let Some(old) = fwd.clear(lpn) {
                        rev.remove(old, lpn);
                    }
                }
            }
            prop_assert_eq!(rev.total_refs(), fwd.mapped_count());
        }
        // Every forward entry appears exactly once in the reverse map.
        let mut counts: HashMap<u64, usize> = HashMap::new();
        for (_, ppn) in fwd.iter_mapped() {
            *counts.entry(ppn).or_default() += 1;
        }
        for (&ppn, &n) in &counts {
            prop_assert_eq!(rev.count(ppn), n);
        }
    }

    /// The reverse map against a `HashMap<Ppn, Vec<Lpn>>` model under
    /// random add / remove / take_into / relocate. Sharer order is
    /// unspecified, so sets compare sorted; `count`, `len`, `total_refs`
    /// and `iter` are checked after every step. An add of a linked LPN
    /// first removes it, as the FTL releases an LPN before binding it.
    #[test]
    fn reverse_map_matches_a_model(ops in vec((0u8..4, 0u64..24, 0u64..40), 1..400)) {
        let mut rev = ReverseMap::new();
        let mut model: HashMap<u64, Vec<u64>> = HashMap::new();
        let owner_of = |model: &HashMap<u64, Vec<u64>>, lpn: u64| {
            model.iter().find(|(_, s)| s.contains(&lpn)).map(|(&p, _)| p)
        };
        let mut taken = Vec::new();
        for &(op, ppn, lpn) in &ops {
            match op {
                0 | 1 => {
                    // op 0 adds (rebinding a linked LPN), op 1 removes.
                    if let Some(old) = owner_of(&model, lpn) {
                        let set = model.get_mut(&old).unwrap();
                        set.retain(|&l| l != lpn);
                        prop_assert_eq!(rev.remove(old, lpn), !set.is_empty());
                        if set.is_empty() {
                            model.remove(&old);
                        }
                    }
                    if op == 0 {
                        rev.add(ppn, lpn);
                        model.entry(ppn).or_default().push(lpn);
                    }
                }
                2 => {
                    rev.take_into(ppn, &mut taken);
                    taken.sort_unstable();
                    let mut want = model.remove(&ppn).unwrap_or_default();
                    want.sort_unstable();
                    prop_assert_eq!(&taken, &want);
                }
                _ => {
                    // relocate: `lpn` picks the target PPN.
                    let to = lpn % 24;
                    if model.contains_key(&ppn) && !model.contains_key(&to) {
                        rev.relocate(ppn, to);
                        let set = model.remove(&ppn).unwrap();
                        model.insert(to, set);
                    }
                }
            }
            prop_assert_eq!(rev.len(), model.len());
            prop_assert_eq!(rev.is_empty(), model.is_empty());
            prop_assert_eq!(rev.total_refs(), model.values().map(|s| s.len() as u64).sum::<u64>());
            let mut want: Vec<(u64, Vec<u64>)> = model
                .iter()
                .map(|(&p, s)| {
                    let mut s = s.clone();
                    s.sort_unstable();
                    (p, s)
                })
                .collect();
            want.sort_unstable();
            let mut got = Vec::new();
            for (p, lpns) in rev.iter() {
                let mut s: Vec<u64> = lpns.collect();
                s.sort_unstable();
                prop_assert_eq!(rev.count(p), s.len());
                let mut direct: Vec<u64> = rev.lpns(p).collect();
                direct.sort_unstable();
                prop_assert_eq!(&direct, &s);
                got.push((p, s));
            }
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(rev.count(ppn), model.get(&ppn).map_or(0, Vec::len));
        }
    }

    /// The allocator never double-hands-out a block, never exceeds device
    /// page capacity per block, and conserves blocks across release cycles.
    #[test]
    fn allocator_conserves_blocks(
        total in 8u32..64,
        ppb in 1u32..16,
        steps in vec((any::<bool>(), any::<bool>()), 1..300),
    ) {
        let reserve = 2u32.min(total - 4);
        let mut a = Allocator::new(total, ppb, reserve);
        let mut pages_in_block: HashMap<u32, u32> = HashMap::new();
        let mut closed: Vec<u32> = Vec::new();

        for &(cold, for_gc) in &steps {
            let region = if cold { Region::Cold } else { Region::Hot };
            if let Some(b) = a.alloc_page(region, for_gc) {
                let n = pages_in_block.entry(b).or_default();
                *n += 1;
                prop_assert!(*n <= ppb, "block {b} over-programmed");
                prop_assert_eq!(a.region_of(b), Some(region));
                if *n == ppb {
                    closed.push(b);
                }
            } else if !closed.is_empty() {
                // Simulate GC: erase and release the oldest closed block.
                let b = closed.remove(0);
                pages_in_block.remove(&b);
                a.release(b);
            }
            // Conservation: free + open + closed-tracked == total.
            let open_count = (0..total).filter(|&b| a.is_open(b)).count() as u32;
            let accounted = a.free_blocks() + open_count
                + closed.len() as u32
                + pages_in_block.keys().filter(|&&b| !a.is_open(b) && !closed.contains(&b)).count() as u32;
            prop_assert_eq!(accounted, total);
        }
    }

    /// All policies return a member of the candidate set.
    #[test]
    fn victim_selection_is_closed_over_candidates(
        n in 1usize..32, seed in any::<u64>(), now in 0u64..1_000_000_000
    ) {
        let cands: Vec<VictimCandidate> = (0..n as u32)
            .map(|b| VictimCandidate {
                block: b,
                valid: (b * 7) % 64,
                invalid: 64 - (b * 7) % 64,
                trimmed: (b * 3) % (64 - (b * 7) % 64 + 1),
                stranded: 0,
                pages: 64,
                erase_count: b % 5,
                last_modified: (b as u64) * 1000,
            })
            .collect();
        for kind in VictimKind::ALL {
            let mut s = VictimSelector::new(kind, seed);
            let pick = s.select(&cands, now).expect("non-empty candidates");
            prop_assert!(cands.iter().any(|c| c.block == pick), "{kind:?} invented a block");
        }
    }

    /// Greedy is optimal in reclaimed-invalid-pages among the candidates.
    #[test]
    fn greedy_maximizes_invalid(seed in any::<u64>(), n in 1usize..40) {
        let cands: Vec<VictimCandidate> = (0..n as u32)
            .map(|b| VictimCandidate {
                block: b,
                valid: 64 - (b.wrapping_mul(13) % 65),
                invalid: b.wrapping_mul(13) % 65,
                trimmed: b.wrapping_mul(5) % (b.wrapping_mul(13) % 65 + 1),
                stranded: 0,
                pages: 64,
                erase_count: 0,
                last_modified: 0,
            })
            .collect();
        let mut s = VictimSelector::new(VictimKind::Greedy, seed);
        let pick = s.select(&cands, 0).unwrap();
        let picked = cands.iter().find(|c| c.block == pick).unwrap();
        let best = cands.iter().map(|c| c.invalid).max().unwrap();
        prop_assert_eq!(picked.invalid, best);
    }
}
