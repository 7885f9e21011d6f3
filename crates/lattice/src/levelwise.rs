//! Level-wise candidate generation (the paper's Step 8).
//!
//! Given the level-`i` itemsets that survived (NOTSIG in the correlation
//! miner; the frequent sets in Apriori), the candidates at level `i+1` are
//! the sets all of whose size-`i` subsets survived. We generate them the
//! way the paper describes: join pairs of surviving sets whose union has
//! size `i+1`, then verify the remaining `i − 1` subsets by membership
//! probes. The join is restricted to pairs sharing their first `i−1` items
//! (prefix join), which enumerates each candidate exactly once.
//!
//! The caller supplies the membership probe: the correlation miner asks
//! its slice-keyed support store, Apriori binary-searches its own sorted
//! survivors.

use bmb_basket::{ItemId, Itemset};

/// Generates the level-`(i+1)` candidates from the surviving level-`i` sets.
///
/// `survivors` must be strictly sorted and all of the same size `i >= 1`;
/// `contains` answers whether a strictly sorted size-`i` slice is one of
/// them. The result is sorted and duplicate-free. Every returned set has
/// *all* of its `i+1` facets among the survivors.
///
/// # Panics
///
/// Panics in debug builds if the survivors are unsorted or of mixed sizes.
pub fn generate_candidates(
    survivors: &[Itemset],
    contains: impl Fn(&[ItemId]) -> bool,
) -> Vec<Itemset> {
    let Some(level) = survivors.first().map(Itemset::len) else {
        return Vec::new();
    };
    debug_assert!(
        survivors.windows(2).all(|w| w[0] < w[1]),
        "survivors must be strictly sorted"
    );
    debug_assert!(
        survivors.iter().all(|s| s.len() == level),
        "survivors must share one level"
    );
    debug_assert!(level >= 1, "candidate generation starts from level 1");

    let mut candidates = Vec::new();
    // The joined set, and one facet of it, built in place: a candidate is
    // allocated only once all of its facets are found.
    let mut joined: Vec<ItemId> = Vec::with_capacity(level + 1);
    let mut facet: Vec<ItemId> = Vec::with_capacity(level);
    // Sorted order groups sets by shared prefix; join within each group.
    let mut group_start = 0;
    while group_start < survivors.len() {
        let prefix = survivors[group_start].prefix();
        let mut group_end = group_start + 1;
        while group_end < survivors.len() && survivors[group_end].prefix() == prefix {
            group_end += 1;
        }
        for a in group_start..group_end {
            for b in a + 1..group_end {
                // Same prefix, different last items: the union has size
                // i+1, and its two facets that drop one of those last
                // items are `survivors[a]` and `survivors[b]` themselves.
                joined.clear();
                joined.extend_from_slice(survivors[a].items());
                joined.extend(survivors[b].last());
                let prefix_facets_present = (0..level - 1).all(|skip| {
                    facet.clear();
                    facet.extend_from_slice(&joined[..skip]);
                    facet.extend_from_slice(&joined[skip + 1..]);
                    contains(&facet)
                });
                if prefix_facets_present {
                    candidates.push(Itemset::from_sorted_slice(&joined));
                }
            }
        }
        group_start = group_end;
    }
    // Groups come in prefix order and joins in last-item order, so the
    // candidates are already sorted.
    debug_assert!(candidates.windows(2).all(|w| w[0] < w[1]));
    candidates
}

/// Reference implementation: enumerate every size-`i+1` subset of the item
/// universe and keep the ones whose facets all pass `contains`.
/// Exponential — used only to cross-check [`generate_candidates`] in tests
/// and benches.
pub fn generate_candidates_naive(
    survivors: &[Itemset],
    n_items: u32,
    contains: impl Fn(&[ItemId]) -> bool,
) -> Vec<Itemset> {
    let Some(level) = survivors.first().map(Itemset::len) else {
        return Vec::new();
    };
    Itemset::from_ids(0..n_items)
        .subsets_of_size(level + 1)
        .into_iter()
        .filter(|c| c.facets().all(|f| contains(f.items())))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fnv::BuildFnv;
    use std::collections::HashSet;

    /// The binary-search probe Apriori uses over its sorted survivors.
    fn sorted_probe(survivors: &[Itemset]) -> impl Fn(&[ItemId]) -> bool + '_ {
        |items| survivors.binary_search_by(|s| s.items().cmp(items)).is_ok()
    }

    fn sets(ids: &[&[u32]]) -> Vec<Itemset> {
        ids.iter()
            .map(|ids| Itemset::from_ids(ids.iter().copied()))
            .collect()
    }

    fn candidates(survivors: &[Itemset]) -> Vec<Itemset> {
        generate_candidates(survivors, sorted_probe(survivors))
    }

    #[test]
    fn pairs_from_singletons() {
        let cands = candidates(&sets(&[&[0], &[1], &[2]]));
        assert_eq!(cands, sets(&[&[0, 1], &[0, 2], &[1, 2]]));
    }

    #[test]
    fn triples_require_all_three_pairs() {
        // {0,1}, {0,2} alone cannot make {0,1,2}: {1,2} is missing.
        assert!(candidates(&sets(&[&[0, 1], &[0, 2]])).is_empty());
        // Adding {1,2} completes the facets.
        assert_eq!(
            candidates(&sets(&[&[0, 1], &[0, 2], &[1, 2]])),
            sets(&[&[0, 1, 2]])
        );
    }

    #[test]
    fn join_only_on_shared_prefix() {
        // {0,1} and {2,3} share no prefix; their union has size 4 and must
        // not appear among size-3 candidates.
        assert!(candidates(&sets(&[&[0, 1], &[2, 3]])).is_empty());
    }

    #[test]
    fn empty_input_gives_empty_output() {
        assert!(candidates(&[]).is_empty());
    }

    #[test]
    fn matches_naive_on_random_survivor_sets() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        let n_items = 8u32;
        let universe = Itemset::from_ids(0..n_items);
        for level in [2, 3, 4] {
            // Denser at deeper levels, so that some candidates survive.
            let keep = [0.45, 0.8, 0.9][level - 2];
            let mut produced = 0;
            for trial in 0..30 {
                let survivors: Vec<Itemset> = universe
                    .subsets_of_size(level)
                    .into_iter()
                    .filter(|_| rng.gen_bool(keep))
                    .collect();
                // The correlation miner's probe: a slice-keyed FNV map.
                let hashed: HashSet<Itemset, BuildFnv> = survivors.iter().cloned().collect();
                let hash_probe = |items: &[ItemId]| hashed.contains(items);
                let slow = generate_candidates_naive(&survivors, n_items, hash_probe);
                assert_eq!(
                    generate_candidates(&survivors, hash_probe),
                    slow,
                    "level {level} trial {trial}: hashed probe diverged"
                );
                assert_eq!(
                    generate_candidates(&survivors, sorted_probe(&survivors)),
                    slow,
                    "level {level} trial {trial}: binary-search probe diverged"
                );
                assert_eq!(
                    generate_candidates_naive(&survivors, n_items, sorted_probe(&survivors)),
                    slow
                );
                produced += slow.len();
            }
            assert!(produced > 0, "level {level} never produced a candidate");
        }
    }

    #[test]
    fn deep_levels() {
        // All C(5,3) triples survive → all C(5,4) quadruples are candidates.
        let survivors = Itemset::from_ids(0..5).subsets_of_size(3);
        let cands = candidates(&survivors);
        assert_eq!(cands.len(), 5);
        for c in &cands {
            assert_eq!(c.len(), 4);
        }
    }
}
