//! `FlatMap` against the `BTreeMap` it replaced in every actor's keyed
//! tables: any sequence of inserts, removes, retains and
//! get-or-insert-withs returns the same values and leaves the same entries
//! in the same iteration order. That order is what keeps every digest and
//! golden bit-equal across the swap.

use std::collections::BTreeMap;

use proptest::prelude::*;
use vbundle_sim::FlatMap;

/// `(op, key, value)`: keys from a small range so ops hit present keys
/// often.
fn arb_ops() -> impl Strategy<Value = Vec<(u8, u16, u32)>> {
    proptest::collection::vec((0u8..6, 0u16..48, 0u32..1_000), 1..300)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn flat_map_matches_btree_map(ops in arb_ops()) {
        let mut flat: FlatMap<u16, u32> = FlatMap::new();
        let mut tree: BTreeMap<u16, u32> = BTreeMap::new();
        let mut peak = 0;
        for (op, key, value) in ops {
            match op {
                0 | 1 => prop_assert_eq!(flat.insert(key, value), tree.insert(key, value)),
                2 => prop_assert_eq!(flat.remove(&key), tree.remove(&key)),
                3 => {
                    // Drop the entries whose value shares `value`'s parity,
                    // bumping the others, so the closure's visit matters.
                    let mut seen_flat = Vec::new();
                    flat.retain(|&k, v| {
                        seen_flat.push(k);
                        *v += 1;
                        *v % 2 != value % 2
                    });
                    let mut seen_tree = Vec::new();
                    tree.retain(|&k, v| {
                        seen_tree.push(k);
                        *v += 1;
                        *v % 2 != value % 2
                    });
                    prop_assert_eq!(seen_flat, seen_tree);
                }
                4 => {
                    let a = *flat.get_or_insert_with(key, || value);
                    let b = *tree.entry(key).or_insert_with(|| value);
                    prop_assert_eq!(a, b);
                    if let (Some(x), Some(y)) = (flat.get_mut(&key), tree.get_mut(&key)) {
                        *x += 3;
                        *y += 3;
                    }
                }
                _ => {
                    prop_assert_eq!(flat.get(&key), tree.get(&key));
                    prop_assert_eq!(flat.contains_key(&key), tree.contains_key(&key));
                }
            }
            peak = peak.max(flat.len());
            prop_assert_eq!(flat.len(), tree.len());
            prop_assert!(flat.capacity() <= (2 * peak).max(4));
        }
        let flat_entries: Vec<(u16, u32)> = flat.iter().map(|(&k, &v)| (k, v)).collect();
        let tree_entries: Vec<(u16, u32)> = tree.iter().map(|(&k, &v)| (k, v)).collect();
        prop_assert_eq!(flat_entries, tree_entries);
        prop_assert!(flat.keys().eq(tree.keys()));
        prop_assert!(flat.values().eq(tree.values()));
    }
}
