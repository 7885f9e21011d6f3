//! # bmb-lattice — itemset lattice machinery
//!
//! The lattice-algorithm substrate of the *Beyond Market Baskets*
//! reproduction:
//!
//! * [`levelwise`] — candidate generation by prefix join + facet check
//!   over one level's sorted survivors (Figure 1, Step 8);
//! * [`Border`] — antichains of minimal itemsets for upward-closed
//!   properties (Section 2.2);
//! * [`closure`] — exhaustive upward/downward closure checking and ground-
//!   truth borders for small universes;
//! * [`walk`] — the random-walk border sampler the paper sketches as future
//!   work (Sections 2.1 and 6);
//! * [`datacube`] — contingency tables served from a one-scan count cube,
//!   the "natural implementation" the paper mentions for walks.

#![warn(missing_docs)]

/// The border of an upward-closed property (Section 2.2).
pub mod border;
/// Closure properties over the itemset lattice (Section 2.1).
pub mod closure;
/// A count datacube over a small item sub-universe.
pub mod datacube;
/// A minimal FNV-1a `Hasher` for itemset-keyed maps.
pub mod fnv;
/// Level-wise candidate generation (the paper's Step 8).
pub mod levelwise;
/// Random walks on the itemset lattice.
pub mod walk;

pub use border::{is_antichain, Border};
pub use closure::{
    check_downward_closed, check_upward_closed, exhaustive_border, exhaustive_negative_border,
};
pub use datacube::{CountCube, MAX_CUBE_DIMS};
pub use fnv::{BuildFnv, FnvHashMap, FnvHasher};
pub use levelwise::generate_candidates;
pub use walk::{random_walk_border, WalkConfig, WalkOutcome, WalkStats};
