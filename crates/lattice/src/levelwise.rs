//! Level-wise candidate generation (the paper's Step 8).
//!
//! Given the level-`i` itemsets that survived (NOTSIG in the correlation
//! miner; the frequent sets in Apriori), the candidates at level `i+1` are
//! the sets all of whose size-`i` subsets survived. We generate them the
//! way the paper describes: join pairs of surviving sets whose union has
//! size `i+1`, then verify the remaining `i − 1` subsets by hash lookups.
//! The join is restricted to pairs sharing their first `i−1` items
//! (prefix join), which enumerates each candidate exactly once.

use bmb_basket::{ItemId, Itemset};

use crate::itemset_table::ItemsetTable;

/// Generates the level-`(i+1)` candidates from the surviving level-`i` sets.
///
/// `survivors` must all have the same size `i >= 1`. The result is sorted
/// and duplicate-free. Every returned set has *all* of its `i+1` facets in
/// `survivors`.
///
/// # Panics
///
/// Panics in debug builds if the survivors' sizes are inconsistent.
pub fn generate_candidates(survivors: &ItemsetTable) -> Vec<Itemset> {
    let mut sorted: Vec<&Itemset> = survivors.iter().collect();
    if sorted.is_empty() {
        return Vec::new();
    }
    sorted.sort_unstable();
    let level = sorted[0].len();
    debug_assert!(
        sorted.iter().all(|s| s.len() == level),
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
    while group_start < sorted.len() {
        let prefix = sorted[group_start].prefix();
        let mut group_end = group_start + 1;
        while group_end < sorted.len() && sorted[group_end].prefix() == prefix {
            group_end += 1;
        }
        for a in group_start..group_end {
            for b in a + 1..group_end {
                // Same prefix, different last items: the union has size
                // i+1, and its two facets that drop one of those last
                // items are `sorted[a]` and `sorted[b]` themselves.
                joined.clear();
                joined.extend_from_slice(sorted[a].items());
                joined.extend(sorted[b].last());
                let prefix_facets_present = (0..level - 1).all(|skip| {
                    facet.clear();
                    facet.extend_from_slice(&joined[..skip]);
                    facet.extend_from_slice(&joined[skip + 1..]);
                    survivors.contains_items(&facet)
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

/// Whether every size-`len−1` subset of `candidate` is in `survivors`.
pub fn all_facets_present(candidate: &Itemset, survivors: &ItemsetTable) -> bool {
    candidate.facets().all(|f| survivors.contains(&f))
}

/// Reference implementation: enumerate every size-`i+1` subset of the item
/// universe and keep the ones whose facets all survive. Exponential — used
/// only to cross-check [`generate_candidates`] in tests and benches.
pub fn generate_candidates_naive(survivors: &ItemsetTable, n_items: u32) -> Vec<Itemset> {
    let Some(level) = survivors.iter().next().map(Itemset::len) else {
        return Vec::new();
    };
    let universe = Itemset::from_items((0..n_items).map(bmb_basket::ItemId));
    let mut out: Vec<Itemset> = universe
        .subsets_of_size(level + 1)
        .into_iter()
        .filter(|c| all_facets_present(c, survivors))
        .collect();
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(sets: &[&[u32]]) -> ItemsetTable {
        sets.iter()
            .map(|ids| Itemset::from_ids(ids.iter().copied()))
            .collect()
    }

    #[test]
    fn pairs_from_singletons() {
        let survivors = table(&[&[0], &[1], &[2]]);
        let cands = generate_candidates(&survivors);
        assert_eq!(
            cands,
            vec![
                Itemset::from_ids([0, 1]),
                Itemset::from_ids([0, 2]),
                Itemset::from_ids([1, 2]),
            ]
        );
    }

    #[test]
    fn triples_require_all_three_pairs() {
        // {0,1}, {0,2} alone cannot make {0,1,2}: {1,2} is missing.
        let survivors = table(&[&[0, 1], &[0, 2]]);
        assert!(generate_candidates(&survivors).is_empty());
        // Adding {1,2} completes the facets.
        let survivors = table(&[&[0, 1], &[0, 2], &[1, 2]]);
        assert_eq!(
            generate_candidates(&survivors),
            vec![Itemset::from_ids([0, 1, 2])]
        );
    }

    #[test]
    fn join_only_on_shared_prefix() {
        // {0,1} and {2,3} share no prefix; their union has size 4 and must
        // not appear among size-3 candidates.
        let survivors = table(&[&[0, 1], &[2, 3]]);
        assert!(generate_candidates(&survivors).is_empty());
    }

    #[test]
    fn empty_input_gives_empty_output() {
        assert!(generate_candidates(&ItemsetTable::new()).is_empty());
    }

    #[test]
    fn matches_naive_on_random_survivor_sets() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        let n_items = 8u32;
        let universe = Itemset::from_ids(0..n_items);
        for level in [2, 3] {
            // Dense enough at level 3 that some quadruples survive.
            let keep = if level == 2 { 0.45 } else { 0.8 };
            for trial in 0..30 {
                // Random set of level-`level` survivors.
                let survivors: ItemsetTable = universe
                    .subsets_of_size(level)
                    .into_iter()
                    .filter(|_| rng.gen_bool(keep))
                    .collect();
                let fast = generate_candidates(&survivors);
                let slow = generate_candidates_naive(&survivors, n_items);
                assert_eq!(fast, slow, "level {level} trial {trial} diverged");
            }
        }
    }

    #[test]
    fn deep_levels() {
        // All C(5,3) triples survive → all C(5,4) quadruples are candidates.
        let universe = Itemset::from_ids(0..5);
        let survivors: ItemsetTable = universe.subsets_of_size(3).into_iter().collect();
        let cands = generate_candidates(&survivors);
        assert_eq!(cands.len(), 5);
        for c in &cands {
            assert_eq!(c.len(), 4);
        }
    }
}
