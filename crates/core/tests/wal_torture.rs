//! Crash-recovery torture: randomized fault injection against the WAL.
//!
//! Each trial builds a small random workload, runs it against a
//! [`DurableStore`] over a fault-injecting directory ([`FaultDir`]: torn
//! writes, permanent or transient, with segments small enough that the
//! wall also lands inside and across rotations), "crashes" (keeping
//! only directory entries that were synced), recovers from the
//! survivors, and checks the durability contract:
//!
//! * every **acknowledged** append is present after recovery;
//! * the recovered store equals a never-crashed store fed the same
//!   prefix of batches — same epoch, and chi-squared / border answers
//!   **bit-identical** (`f64::to_bits`), not merely approximately equal;
//! * damage only ever costs the unacknowledged tail (recovery stops at
//!   the last valid record and reports the truncated remainder).
//!
//! Scribbles and bit flips are made from the test side, on the crashed
//! directory's bytes: an offset names a byte of the WAL stream (every
//! segment's bytes, concatenated in rotation order). Well over 200
//! distinct fault points run across the tests; the workloads are tiny
//! so the whole file stays far under CI's time box.

use std::sync::Arc;

use bmb_basket::record::WAL3_HEADER_LEN;
use bmb_basket::storage::SharedDirState;
use bmb_basket::wal::{
    parse_segment_name, DurabilityConfig, DurableStore, RecoveryReport, WalError,
};
use bmb_basket::{
    Dir, DirFaultPlan, FaultDir, IncrementalStore, ItemId, Itemset, MemDir, StoreConfig,
};
use bmb_core::{EngineConfig, MinerConfig, QueryEngine, SupportSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One randomized ingest script: an item space, a seal capacity, a WAL
/// rotation budget, and a sequence of batches (each a list of baskets).
struct Workload {
    n_items: usize,
    capacity: usize,
    segment_bytes: u64,
    batches: Vec<Vec<Vec<u32>>>,
}

impl Workload {
    fn random(rng: &mut StdRng) -> Workload {
        let n_items = rng.gen_range(6..=14);
        let capacity = rng.gen_range(1..=6);
        let n_batches = rng.gen_range(2..=6);
        let batches = (0..n_batches)
            .map(|_| {
                let n_baskets = rng.gen_range(1..=5);
                (0..n_baskets)
                    .map(|_| {
                        let m = rng.gen_range(1..=4);
                        (0..m).map(|_| rng.gen_range(0..n_items as u32)).collect()
                    })
                    .collect()
            })
            .collect();
        // From "rotate after every record" up to a few records each.
        let segment_bytes = rng.gen_range(WAL3_HEADER_LEN as u64..=160);
        Workload {
            n_items,
            capacity,
            segment_bytes,
            batches,
        }
    }

    fn config(&self) -> StoreConfig {
        StoreConfig {
            segment_capacity: self.capacity,
        }
    }

    fn durability(&self) -> DurabilityConfig {
        DurabilityConfig {
            segment_bytes: self.segment_bytes,
            retain_checkpoints: 2,
        }
    }

    fn open(&self, dir: Box<dyn Dir>) -> Result<(DurableStore, RecoveryReport), WalError> {
        DurableStore::open_dir(dir, self.n_items, self.config(), self.durability())
    }

    /// Cumulative basket count after each batch prefix (index 0 = empty).
    fn cumulative_baskets(&self) -> Vec<u64> {
        let mut cum = vec![0u64];
        for batch in &self.batches {
            cum.push(cum[cum.len() - 1] + batch.len() as u64);
        }
        cum
    }

    /// A never-crashed in-memory store fed the first `prefix` batches.
    fn reference_store(&self, prefix: usize) -> Arc<IncrementalStore> {
        let store = Arc::new(IncrementalStore::new(self.n_items, self.config()));
        for batch in &self.batches[..prefix] {
            store
                .append_batch(
                    batch
                        .iter()
                        .map(|b| b.iter().map(|&id| ItemId(id)).collect::<Vec<_>>()),
                )
                .expect("reference ingest is valid");
        }
        store
    }
}

/// The WAL segment names on `dir`, in rotation order.
fn segment_names(dir: &mut MemDir) -> Vec<String> {
    let mut segments: Vec<(u64, String)> = dir
        .list()
        .expect("list")
        .into_iter()
        .filter_map(|name| parse_segment_name(&name).map(|index| (index, name)))
        .collect();
    segments.sort();
    segments.into_iter().map(|(_, name)| name).collect()
}

/// Length of the WAL stream on `state`: every segment's bytes.
fn stream_len(state: &SharedDirState) -> u64 {
    let mut dir = MemDir::with_state(Arc::clone(state));
    segment_names(&mut dir)
        .iter()
        .map(|name| dir.file_len(name).expect("segment length"))
        .sum()
}

/// XORs `mask` into byte `k` of the WAL stream on `state`'s media.
/// Returns whether the byte lies in a segment header, or `None` when
/// `k` is past the end of the stream.
fn flip_stream_byte(state: &SharedDirState, k: u64, mask: u8) -> Option<bool> {
    let mut dir = MemDir::with_state(Arc::clone(state));
    let mut offset = k;
    for name in segment_names(&mut dir) {
        let mut file = dir.open(&name).expect("open segment");
        let mut bytes = file.read_all().expect("read segment");
        let len = bytes.len() as u64;
        if offset < len {
            bytes[offset as usize] ^= mask;
            file.truncate(0).expect("rewrite segment");
            file.append(&bytes).expect("rewrite segment");
            return Some(offset < WAL3_HEADER_LEN as u64);
        }
        offset -= len;
    }
    None
}

/// A separate copy of every file on `state`, all of it durable.
fn copy_dir(state: &SharedDirState) -> SharedDirState {
    let mut from = MemDir::with_state(Arc::clone(state));
    let mut to = MemDir::new();
    for name in from.list().expect("list") {
        let bytes = from.open(&name).expect("open").read_all().expect("read");
        to.create(&name)
            .expect("create")
            .append(&bytes)
            .expect("copy");
    }
    to.sync().expect("sync");
    to.state()
}

/// Drives the workload into `plan`'s wall, then crashes. Returns the
/// crash survivors, how many batches were acknowledged, and where the
/// acknowledged prefix of the WAL stream ends — so a planned scribble
/// can be told apart as damage to durable bytes (media corruption,
/// outside the crash guarantee) or to the torn tail only.
fn run_to_crash(workload: &Workload, plan: DirFaultPlan) -> (SharedDirState, usize, u64) {
    let dir = FaultDir::new(plan);
    let state = dir.dir_state();
    let mut acked = 0usize;
    let mut acked_end = 0u64;
    // An open error means the fault tripped while creating the first
    // segment: nothing was ever acknowledged.
    if let Ok((durable, _)) = workload.open(Box::new(dir)) {
        acked_end = stream_len(&state);
        for batch in &workload.batches {
            let result = durable.append_batch(
                batch
                    .iter()
                    .map(|b| b.iter().map(|&id| ItemId(id)).collect::<Vec<_>>()),
            );
            match result {
                Ok(_) => {
                    acked += 1;
                    acked_end = stream_len(&state);
                }
                Err(_) => break, // the crash point
            }
        }
    }
    (MemDir::crashed(&state).state(), acked, acked_end)
}

/// Asserts that `recovered` and `reference` answer queries identically:
/// equal epochs, bit-identical chi-squared statistics over every
/// singleton and a sample of pairs, and bit-identical border output.
fn assert_bit_identical(
    recovered: &Arc<IncrementalStore>,
    reference: &Arc<IncrementalStore>,
    n_items: usize,
) {
    assert_eq!(recovered.epoch(), reference.epoch(), "epochs diverge");
    if recovered.epoch() == 0 {
        return; // Both empty: queries reject empty snapshots.
    }
    let got = QueryEngine::new(Arc::clone(recovered), EngineConfig::default());
    let want = QueryEngine::new(Arc::clone(reference), EngineConfig::default());
    let got_snap = got.snapshot();
    let want_snap = want.snapshot();

    let mut probes: Vec<Itemset> = (0..n_items as u32)
        .map(|i| Itemset::from_ids([i]))
        .collect();
    for i in 0..n_items as u32 {
        probes.push(Itemset::from_ids([i, (i + 1) % n_items as u32]));
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

/// Checks a recovery against the contract: the recovered state is some
/// batch prefix containing at least the `acked` first batches,
/// bit-identical to a never-crashed reference at that prefix.
fn verify(workload: &Workload, recovered: &DurableStore, report: &RecoveryReport, acked: usize) {
    let cum = workload.cumulative_baskets();
    let prefix = cum
        .iter()
        .position(|&c| c == recovered.epoch())
        .unwrap_or_else(|| {
            panic!(
                "recovered epoch {} is not a batch-prefix boundary {cum:?}",
                recovered.epoch()
            )
        });
    assert!(
        prefix >= acked,
        "lost acknowledged data: recovered {prefix} batches, acked {acked}"
    );
    assert_eq!(report.epoch, recovered.epoch(), "report epoch mismatch");
    assert_eq!(
        report.baskets_recovered, cum[prefix],
        "report basket count mismatch"
    );
    let reference = workload.reference_store(prefix);
    assert_bit_identical(recovered.store(), &reference, workload.n_items);
}

/// Recovers from crash survivors (which must open) and verifies.
fn recover_and_verify(workload: &Workload, survivors: &SharedDirState, acked: usize) {
    let (recovered, report) = workload
        .open(Box::new(MemDir::with_state(Arc::clone(survivors))))
        .expect("recovery must succeed on a torn tail");
    verify(workload, &recovered, &report, acked);
}

/// Recovers from media whose durable bytes were damaged: damage inside
/// a segment header must be refused (explicit rejection, not silent
/// data loss); anything else must recover some batch prefix,
/// bit-identically. Media corruption costs the tail, so no acknowledged
/// prefix is guaranteed.
fn recover_damaged(workload: &Workload, survivors: &SharedDirState, in_header: bool) {
    let opened = workload.open(Box::new(MemDir::with_state(Arc::clone(survivors))));
    match (opened, in_header) {
        (Ok(_), true) => panic!("a damaged segment header must not open"),
        (Ok((recovered, report)), false) => verify(workload, &recovered, &report, 0),
        (Err(_), true) => {}
        (Err(e), false) => panic!("damage past the headers must not fail open: {e}"),
    }
}

/// Torn writes: the directory accepts only the first `budget` bytes
/// across all files, then tears the failing write. Runs 160 fault
/// points across random workloads; half the faults are transient (the
/// writer repairs the torn tail and the run crashes right after),
/// half permanent like dead media.
#[test]
fn torn_write_torture() {
    let mut rng = StdRng::seed_from_u64(0xB0B_CAFE);
    let mut fault_points = 0usize;
    while fault_points < 160 {
        let workload = Workload::random(&mut rng);
        let (_, _, clean_len) = run_to_crash(&workload, DirFaultPlan::default());
        for _ in 0..4 {
            let budget = rng.gen_range(0..=clean_len);
            let plan = DirFaultPlan {
                fail_after_bytes: Some(budget),
                transient: rng.gen_range(0..2) == 0,
                ..DirFaultPlan::default()
            };
            let (survivors, acked, _) = run_to_crash(&workload, plan);
            recover_and_verify(&workload, &survivors, acked);
            fault_points += 1;
        }
    }
}

/// Torn writes with a scribble in the survivors: after the crash, one
/// byte of the WAL stream is corrupted too (a dying disk scribbling).
/// 60 fault points.
#[test]
fn torn_write_with_scribble_torture() {
    let mut rng = StdRng::seed_from_u64(0xD15_C0DE);
    let header = WAL3_HEADER_LEN as u64;
    let mut fault_points = 0usize;
    while fault_points < 60 {
        let workload = Workload::random(&mut rng);
        let (_, _, clean_len) = run_to_crash(&workload, DirFaultPlan::default());
        for _ in 0..3 {
            let budget = rng.gen_range(header..=clean_len.max(header));
            // Scribble somewhere up to the wall (past the first header,
            // so the first segment stays recognizable as a WAL).
            let corrupt_at = rng.gen_range(header..=budget.max(header));
            let plan = DirFaultPlan {
                fail_after_bytes: Some(budget),
                ..DirFaultPlan::default()
            };
            let (survivors, acked, acked_end) = run_to_crash(&workload, plan);
            let in_header = flip_stream_byte(&survivors, corrupt_at, 0xFF);
            fault_points += 1;
            if corrupt_at < acked_end {
                // A scribble inside the acknowledged prefix is media
                // corruption of durable data: recovery must still stop
                // cleanly at the damage, but records past it are
                // forfeit, so only prefix-consistency holds.
                recover_damaged(&workload, &survivors, in_header == Some(true));
            } else {
                // Past the last ack lie only torn record bytes.
                assert_ne!(in_header, Some(true), "no header follows the last ack");
                recover_and_verify(&workload, &survivors, acked);
            }
        }
    }
}

/// Bit flips in the middle of an otherwise complete WAL stream:
/// recovery must stop at the damaged record (never serve data past it,
/// never crash) and stay bit-identical to the intact prefix. 100 fault
/// points. Here nothing after the flip counts as
/// acknowledged-and-guaranteed: media corruption costs the tail, by
/// contract.
#[test]
fn bit_flip_torture() {
    let mut rng = StdRng::seed_from_u64(0x5EED_F11A);
    let mut fault_points = 0usize;
    while fault_points < 100 {
        let workload = Workload::random(&mut rng);
        let (clean, _, clean_len) = run_to_crash(&workload, DirFaultPlan::default());
        for _ in 0..5 {
            let k = rng.gen_range(0..clean_len);
            let bit = rng.gen_range(0..8u32);
            let damaged = copy_dir(&clean);
            let in_header = flip_stream_byte(&damaged, k, 1u8 << bit);
            assert!(in_header.is_some(), "flip offset inside the stream");
            fault_points += 1;
            recover_damaged(&workload, &damaged, in_header == Some(true));
        }
    }
}

/// Media whose reads fail must surface an error from `open_dir`, never
/// a silently empty store.
#[test]
fn read_faults_fail_open_loudly() {
    let media = MemDir::new();
    let state = media.state();
    let config = StoreConfig::default();
    let (durable, _) =
        DurableStore::open_dir(Box::new(media), 8, config, DurabilityConfig::default())
            .expect("clean open");
    durable.append_ids([0, 1]).expect("clean append");
    drop(durable);
    let plan = DirFaultPlan {
        fail_reads: true,
        ..DirFaultPlan::default()
    };
    let dir = FaultDir::with_dir(MemDir::with_state(state), plan);
    let result = DurableStore::open_dir(Box::new(dir), 8, config, DurabilityConfig::default());
    assert!(result.is_err(), "unreadable media must not open");
}
