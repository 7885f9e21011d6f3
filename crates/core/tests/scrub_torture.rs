//! Scrub torture: an exhaustive planned at-rest corruption sweep
//! against the directory-mode [`DurableStore`]'s scrub → quarantine →
//! repair path (DESIGN.md §15).
//!
//! A deterministic workload is laid down so the directory holds every
//! artifact kind the scrub pass walks — `GEN`, `MANIFEST`, a
//! checkpoint, both copies of its sealed segment files, and sealed WAL
//! segments. The sweep then corrupts
//! **every single byte** of every walked artifact, one trial per byte:
//! rebuild pristine media (the build is deterministic, so every trial
//! starts from identical bytes), XOR one byte, run ONE scrub pass with
//! a pristine repair peer, and assert
//!
//! * the corruption is detected within that pass (CRC / magic /
//!   structural walk — no flip may slip through);
//! * the damaged artifact is quarantined (evidence preserved, never
//!   deleted) and the repaired file is **byte-identical** to the
//!   pristine image;
//! * every *other* artifact is untouched;
//! * the store stays healthy, a second pass and offline [`fsck_dir`]
//!   are clean;
//! * a crash immediately after the pass loses nothing — the repair
//!   publishes durably (sync-before-rename), so recovery from the
//!   crash view restores the full acked epoch;
//! * chi-squared and border answers are **bit-identical**
//!   (`f64::to_bits`) to a never-corrupted reference store.
//!
//! Well over 200 corruption points run (asserted); the real-process
//! `kill -9`-during-repair counterpart lives in `bmb-cli`'s
//! `scrub_kill` test.

use std::collections::BTreeMap;
use std::sync::Arc;

use bmb_basket::storage::SharedDirState;
use bmb_basket::wal::{DurabilityConfig, DurableStore};
use bmb_basket::{
    fsck_dir, Dir, IncrementalStore, ItemId, Itemset, MemDir, PeerError, RepairPeer, ScrubOptions,
    StoreConfig, GEN_NAME, MANIFEST_NAME, QUARANTINE_PREFIX,
};
use bmb_core::{EngineConfig, MinerConfig, QueryEngine, SupportSpec};

const N_ITEMS: usize = 8;
const GENERATION: u64 = 3;
/// Baskets ingested before the checkpoint is cut.
const PRE_CHECKPOINT: u64 = 10;
/// Total acked baskets (checkpoint at 10, live tail beyond it).
const TOTAL: u64 = 24;

fn config() -> StoreConfig {
    StoreConfig {
        segment_capacity: 4,
    }
}

fn durability() -> DurabilityConfig {
    DurabilityConfig {
        segment_bytes: 64,
        retain_checkpoints: 2,
    }
}

/// The canonical basket for epoch `i` (same shape the scrub unit tests
/// use): two items, fully determined by the index.
fn basket(i: u64) -> [u32; 2] {
    [(i % 3) as u32, 3 + (i % 5) as u32]
}

/// Builds the deterministic store: generation stamp, ingest, one
/// checkpoint, more ingest so sealed segments survive past it. The
/// media image is identical on every call — trials diff against it.
fn build() -> (DurableStore, SharedDirState) {
    let media = MemDir::new();
    let state = media.state();
    let (store, _) =
        DurableStore::open_dir(Box::new(media), N_ITEMS, config(), durability()).expect("open_dir");
    store.set_generation(GENERATION).expect("set generation");
    for i in 0..PRE_CHECKPOINT {
        store.append_ids(basket(i)).expect("append");
    }
    store.checkpoint().expect("checkpoint");
    for i in PRE_CHECKPOINT..TOTAL {
        store.append_ids(basket(i)).expect("append");
    }
    (store, state)
}

/// A never-corrupted in-memory store fed the same baskets.
fn reference() -> Arc<IncrementalStore> {
    let store = Arc::new(IncrementalStore::new(N_ITEMS, config()));
    for i in 0..TOTAL {
        store.append_ids(basket(i)).expect("reference append");
    }
    store
}

fn read_file(state: &SharedDirState, name: &str) -> Vec<u8> {
    let mut dir = MemDir::with_state(Arc::clone(state));
    let mut file = dir.open(name).expect("open file");
    file.read_all().expect("read file")
}

fn flip_byte(state: &SharedDirState, name: &str, offset: usize) {
    let mut dir = MemDir::with_state(Arc::clone(state));
    let mut file = dir.open(name).expect("open file");
    let mut bytes = file.read_all().expect("read file");
    bytes[offset] ^= 0xFF;
    file.truncate(0).expect("truncate");
    file.append(&bytes).expect("append");
    file.sync().expect("sync");
}

fn list(state: &SharedDirState) -> Vec<String> {
    let mut dir = MemDir::with_state(Arc::clone(state));
    dir.list().expect("list")
}

/// A healthy replica serving the pristine basket history over the
/// [`RepairPeer`] contract, fencing requests from stale generations.
struct PristinePeer {
    store: Arc<IncrementalStore>,
    generation: u64,
    calls: u64,
}

impl RepairPeer for PristinePeer {
    fn fetch_range(
        &mut self,
        after_epoch: u64,
        max_baskets: usize,
        generation: u64,
    ) -> Result<Vec<Vec<ItemId>>, PeerError> {
        if generation < self.generation {
            return Err(PeerError::Fenced {
                peer_generation: self.generation,
            });
        }
        self.calls += 1;
        let upto = self
            .store
            .epoch()
            .min(after_epoch.saturating_add(max_baskets as u64));
        Ok(self.store.snapshot().baskets_range(after_epoch, upto))
    }
}

/// The artifacts the scrub pass walks, with their pristine images:
/// `GEN`, `MANIFEST`, every checkpoint, every segment file copy, every
/// *sealed* WAL segment (the active tail is re-verified by recovery,
/// not by scrub).
fn walked_artifacts(state: &SharedDirState) -> BTreeMap<String, Vec<u8>> {
    let names = list(state);
    let segment_index = |name: &str| -> Option<u64> {
        name.strip_prefix("wal.")
            .and_then(|digits| digits.parse::<u64>().ok())
    };
    let active = names
        .iter()
        .filter_map(|n| segment_index(n))
        .max()
        .expect("at least one segment");
    names
        .into_iter()
        .filter(|n| {
            n == GEN_NAME
                || n == MANIFEST_NAME
                || bmb_basket::parse_checkpoint_name(n).is_some()
                || bmb_basket::parse_sealed_name(n).is_some()
                || segment_index(n).is_some_and(|index| index < active)
        })
        .map(|n| {
            let bytes = read_file(state, &n);
            (n, bytes)
        })
        .collect()
}

/// Every artifact on media (including the active segment) — repairing
/// one must never perturb another.
fn all_artifacts(state: &SharedDirState) -> BTreeMap<String, Vec<u8>> {
    list(state)
        .into_iter()
        .filter(|n| !n.starts_with(QUARANTINE_PREFIX))
        .map(|n| {
            let bytes = read_file(state, &n);
            (n, bytes)
        })
        .collect()
}

/// Asserts bit-identical query answers between the repaired store and
/// the never-corrupted reference (the paper's chi²-over-exact-supports
/// contract: repairs must restore *exact* integer supports).
fn assert_bit_identical(recovered: &Arc<IncrementalStore>, reference: &Arc<IncrementalStore>) {
    assert_eq!(recovered.epoch(), reference.epoch(), "epochs diverge");
    let got = QueryEngine::new(Arc::clone(recovered), EngineConfig::default());
    let want = QueryEngine::new(Arc::clone(reference), EngineConfig::default());
    let got_snap = got.snapshot();
    let want_snap = want.snapshot();
    let mut probes: Vec<Itemset> = (0..N_ITEMS as u32)
        .map(|i| Itemset::from_ids([i]))
        .collect();
    for i in 0..N_ITEMS as u32 {
        probes.push(Itemset::from_ids([i, (i + 1) % N_ITEMS as u32]));
    }
    for set in &probes {
        let a = got.chi2(&got_snap, set).expect("recovered chi2");
        let b = want.chi2(&want_snap, set).expect("reference chi2");
        assert_eq!(a.support, b.support, "support diverges for {set:?}");
        assert_eq!(
            a.outcome.statistic.to_bits(),
            b.outcome.statistic.to_bits(),
            "chi2 statistic bits diverge for {set:?}"
        );
        assert_eq!(
            a.outcome.ln_p_value.to_bits(),
            b.outcome.ln_p_value.to_bits(),
            "ln p-value bits diverge for {set:?}"
        );
    }
    let miner = MinerConfig {
        support: SupportSpec::Fraction(0.05),
        support_fraction: 0.3,
        max_level: 3,
        ..MinerConfig::default()
    };
    let a = got.border(&got_snap, &miner).expect("recovered border");
    let b = want.border(&want_snap, &miner).expect("reference border");
    assert_eq!(a.support_count, b.support_count);
    assert_eq!(a.chi2_cutoff.to_bits(), b.chi2_cutoff.to_bits());
    assert_eq!(a.significant.len(), b.significant.len(), "border size");
    for (ra, rb) in a.significant.iter().zip(&b.significant) {
        assert_eq!(ra.itemset, rb.itemset);
        assert_eq!(ra.chi2.statistic.to_bits(), rb.chi2.statistic.to_bits());
        assert_eq!(ra.support_cells, rb.support_cells);
    }
}

/// One planned corruption point: flip `offset` of `name` on pristine
/// media, scrub once, verify the full detect → quarantine → repair →
/// crash-safe contract.
fn trial(name: &str, offset: usize, reference: &Arc<IncrementalStore>) {
    let (store, state) = build();
    let pristine = all_artifacts(&state);
    flip_byte(&state, name, offset);
    let mut peer = PristinePeer {
        store: Arc::clone(reference),
        generation: GENERATION,
        calls: 0,
    };
    let report = store.scrub_pass(Some(&mut peer), &ScrubOptions::default());
    let at = format!("{name}:{offset}");
    assert!(report.complete, "{at}: pass incomplete");
    assert_eq!(
        report.corruptions, 1,
        "{at}: flip not detected in one pass; findings: {:?}",
        report.findings
    );
    assert_eq!(
        report.repairs, 1,
        "{at}: not repaired; findings: {:?}",
        report.findings
    );
    assert_eq!(report.quarantines, 1, "{at}: evidence not quarantined");
    assert!(
        !report.degraded,
        "{at}: degraded; findings: {:?}",
        report.findings
    );
    for (artifact, bytes) in &pristine {
        assert_eq!(
            &read_file(&state, artifact),
            bytes,
            "{at}: artifact {artifact} differs from pristine after repair"
        );
    }
    let names = list(&state);
    assert!(
        names
            .iter()
            .any(|n| n.starts_with(QUARANTINE_PREFIX) && n.ends_with(name)),
        "{at}: evidence file missing: {names:?}"
    );
    assert!(store.is_healthy(), "{at}: store unhealthy after repair");
    let again = store.scrub_pass(None, &ScrubOptions::default());
    assert_eq!(
        again.corruptions, 0,
        "{at}: second pass still dirty: {:?}",
        again.findings
    );
    let mut dir = MemDir::with_state(Arc::clone(&state));
    let fsck = fsck_dir(&mut dir).expect("fsck");
    assert!(fsck.is_clean(), "{at}: fsck findings: {:?}", fsck.findings);
    assert_bit_identical(store.store(), reference);
    // The repair must be *durably* published: crash right now and
    // recover from the survivors — every acked epoch is still there
    // and the answers are still bit-identical.
    drop(store);
    let crashed = MemDir::crashed(&state);
    let (recovered, _) = DurableStore::open_dir(Box::new(crashed), N_ITEMS, config(), durability())
        .expect("recovery after repair must succeed");
    assert_eq!(
        recovered.epoch(),
        TOTAL,
        "{at}: crash after repair lost acked epochs"
    );
    assert_bit_identical(recovered.store(), reference);
}

/// The sweep: every byte of every walked artifact is one planned
/// corruption point. The workload is sized so this is well past the
/// 200-point floor; the count is asserted, not assumed.
#[test]
fn every_byte_of_every_artifact_detected_repaired_and_bit_identical() {
    let (_store, state) = build();
    let targets = walked_artifacts(&state);
    assert!(
        targets.keys().any(|n| n == GEN_NAME)
            && targets.keys().any(|n| n == MANIFEST_NAME)
            && targets
                .keys()
                .any(|n| bmb_basket::parse_checkpoint_name(n).is_some())
            && targets
                .keys()
                .filter(|n| bmb_basket::parse_sealed_name(n).is_some())
                .count()
                == 4
            && targets.keys().any(|n| n.starts_with("wal.")),
        "sweep must cover all five artifact kinds: {:?}",
        targets.keys().collect::<Vec<_>>()
    );
    let reference = reference();
    let mut planned = 0u64;
    for (name, bytes) in &targets {
        for offset in 0..bytes.len() {
            trial(name, offset, &reference);
            planned += 1;
        }
    }
    assert!(
        planned >= 200,
        "only {planned} corruption points planned; grow the workload"
    );
}

/// Damage every walked artifact at once: a single pass must detect,
/// quarantine, and repair all of them without degrading.
#[test]
fn simultaneous_corruption_of_every_artifact_heals_in_one_pass() {
    let (store, state) = build();
    let pristine = all_artifacts(&state);
    let targets = walked_artifacts(&state);
    for (name, bytes) in &targets {
        flip_byte(&state, name, bytes.len() / 2);
    }
    let reference = reference();
    let mut peer = PristinePeer {
        store: Arc::clone(&reference),
        generation: GENERATION,
        calls: 0,
    };
    let report = store.scrub_pass(Some(&mut peer), &ScrubOptions::default());
    assert!(report.complete);
    assert_eq!(
        report.corruptions,
        targets.len() as u64,
        "findings: {:?}",
        report.findings
    );
    assert_eq!(report.repairs, targets.len() as u64);
    assert_eq!(report.quarantines, targets.len() as u64);
    assert!(!report.degraded);
    for (artifact, bytes) in &pristine {
        assert_eq!(
            &read_file(&state, artifact),
            bytes,
            "artifact {artifact} differs from pristine after mass repair"
        );
    }
    assert!(store.is_healthy());
    let mut dir = MemDir::with_state(Arc::clone(&state));
    let fsck = fsck_dir(&mut dir).expect("fsck");
    assert!(fsck.is_clean(), "fsck findings: {:?}", fsck.findings);
    assert_bit_identical(store.store(), &reference);
}

/// A fenced peer (this node's generation is stale) must never be used
/// to "repair" segments; the pass falls back to the local rebuild and
/// still converges byte-identically — fencing keeps a stale replica
/// from poisoning a newer one while local evidence still suffices.
#[test]
fn fenced_peer_falls_back_to_local_rebuild() {
    let (store, state) = build();
    let pristine = all_artifacts(&state);
    let targets = walked_artifacts(&state);
    let segment = targets
        .keys()
        .find(|n| n.starts_with("wal."))
        .expect("a sealed segment")
        .clone();
    flip_byte(&state, &segment, pristine[&segment].len() - 1);
    let reference = reference();
    let mut peer = PristinePeer {
        store: Arc::clone(&reference),
        generation: GENERATION + 1, // peer is ahead: it fences us
        calls: 0,
    };
    let report = store.scrub_pass(Some(&mut peer), &ScrubOptions::default());
    assert_eq!(report.corruptions, 1, "findings: {:?}", report.findings);
    assert_eq!(report.repairs, 1, "findings: {:?}", report.findings);
    assert!(!report.degraded);
    assert_eq!(read_file(&state, &segment), pristine[&segment]);
    assert_bit_identical(store.store(), &reference);
}
