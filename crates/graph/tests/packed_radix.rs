//! Property tests for the packed-key radix sort path: sorting edges by
//! their packed keys — [`CEdge::lex_key`] and [`WEdge::lex_key`] for the
//! lexicographic order, the packed `(w, id)` for the unique-weight order
//! over pair-canonical ids — must be a permutation that matches the
//! comparison sort under the order the key realises.

use kamsta_graph::{CEdge, WEdge};
use kamsta_sort::radix_sort_by_key;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn lex_key_radix_matches_cedge_ord(
        raw in prop::collection::vec((0u64..1 << 16, 0u64..1 << 16, 0u32..256, any::<u64>()), 0..400),
    ) {
        let edges: Vec<CEdge> = raw
            .iter()
            .map(|&(u, v, w, id)| CEdge::new(u, v, w, id))
            .collect();
        let mut by_radix = edges.clone();
        radix_sort_by_key(&mut by_radix, CEdge::lex_key);
        let mut by_cmp = edges;
        by_cmp.sort_unstable();
        prop_assert_eq!(by_radix, by_cmp);
    }

    #[test]
    fn lex_key_radix_matches_wedge_ord(
        raw in prop::collection::vec((0u64..1 << 10, 0u64..1 << 10, 0u32..16), 0..400),
    ) {
        // Narrow ranges: many duplicates, as RMAT's generator emits.
        let edges: Vec<WEdge> = raw.iter().map(|&(u, v, w)| WEdge::new(u, v, w)).collect();
        let mut by_radix = edges.clone();
        radix_sort_by_key(&mut by_radix, WEdge::lex_key);
        let mut by_cmp = edges;
        by_cmp.sort_unstable();
        prop_assert_eq!(by_radix, by_cmp);
    }

    #[test]
    fn weight_id_key_radix_matches_the_tuple_order(
        raw in prop::collection::vec((0u64..1 << 20, 0u64..1 << 20, any::<u32>(), any::<u64>()), 0..400),
    ) {
        let edges: Vec<CEdge> = raw
            .iter()
            .map(|&(u, v, w, id)| CEdge::new(u, v, w, id))
            .collect();
        let mut by_radix = edges.clone();
        radix_sort_by_key(&mut by_radix, |e: &CEdge| ((e.w as u128) << 64) | e.id as u128);
        let mut by_cmp = edges;
        by_cmp.sort_unstable_by_key(|e| (e.w, e.id));
        let weight_ids = |v: &[CEdge]| v.iter().map(|e| (e.w, e.id)).collect::<Vec<_>>();
        prop_assert_eq!(weight_ids(&by_radix), weight_ids(&by_cmp));
        // Permutation: same multiset of edges.
        by_radix.sort_unstable();
        by_cmp.sort_unstable();
        prop_assert_eq!(by_radix, by_cmp);
    }
}
