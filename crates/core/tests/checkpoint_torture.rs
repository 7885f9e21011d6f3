//! Crash-recovery torture with checkpoints enabled: randomized fault
//! injection against the directory-mode [`DurableStore`] (rotating WAL
//! segments + atomic snapshots + manifest).
//!
//! Each trial builds a small random workload, interleaves ingest with
//! checkpoints over fault-injecting directory storage (torn writes,
//! failed entry operations, unsynced directory mutations), "crashes"
//! (reverting every entry mutation not covered by a directory sync),
//! recovers from the survivors, and checks the durability contract:
//!
//! * every **acknowledged** append is present after recovery;
//! * the recovered store equals a never-crashed store fed the same
//!   prefix of batches — chi-squared / border answers **bit-identical**
//!   (`f64::to_bits`), not merely approximately equal;
//! * recovery after a checkpoint replays only post-checkpoint records
//!   (`baskets_recovered == epoch - checkpoint_epoch`, pinned by the
//!   recovery gauges);
//! * a corrupted newest checkpoint falls back to an older one (or full
//!   replay) instead of failing recovery;
//! * a sealed segment file survives the loss of either copy, and the
//!   loss of both never yields a wrong answer; a stale file is never
//!   reused by name; v1 checkpoints still load; a flipped v3 WAL base
//!   epoch is refused.
//!
//! Over 300 distinct planned fault points run across the tests; the
//! real-process SIGKILL counterpart lives in `bmb-serve`'s
//! `crash_kill` test.

use std::sync::Arc;

use bmb_basket::storage::SharedDirState;
use bmb_basket::wal::{DurabilityConfig, DurableStore, RecoveryReport};
use bmb_basket::{
    Dir, DirFaultPlan, FaultDir, IncrementalStore, ItemId, Itemset, MemDir, StoreConfig,
};
use bmb_core::{EngineConfig, MinerConfig, QueryEngine, SupportSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One randomized ingest script: an item space, a seal capacity, a
/// sequence of batches, and the batch indexes after which a checkpoint
/// is attempted.
struct Workload {
    n_items: usize,
    capacity: usize,
    batches: Vec<Vec<Vec<u32>>>,
    checkpoint_after: Vec<bool>,
    segment_bytes: u64,
}

impl Workload {
    fn random(rng: &mut StdRng) -> Workload {
        let n_items = rng.gen_range(6..=14);
        let capacity = rng.gen_range(1..=6);
        let n_batches = rng.gen_range(3..=8);
        let batches: Vec<Vec<Vec<u32>>> = (0..n_batches)
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
        let checkpoint_after = (0..n_batches).map(|_| rng.gen_range(0..3) == 0).collect();
        // Tiny segments so rotation happens constantly under torture.
        let segment_bytes = rng.gen_range(48..=256);
        Workload {
            n_items,
            capacity,
            batches,
            checkpoint_after,
            segment_bytes,
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

    /// Runs the whole workload (appends + checkpoints) against clean
    /// in-memory directory storage; returns total bytes ever written,
    /// an upper bound for torn-write budgets.
    fn clean_run_bytes(&self) -> u64 {
        let dir = MemDir::new();
        let state = dir.state();
        let (durable, _) = DurableStore::open_dir(
            Box::new(dir),
            self.n_items,
            self.config(),
            self.durability(),
        )
        .expect("clean open");
        for (i, batch) in self.batches.iter().enumerate() {
            durable
                .append_batch(
                    batch
                        .iter()
                        .map(|b| b.iter().map(|&id| ItemId(id)).collect::<Vec<_>>()),
                )
                .expect("clean append");
            if self.checkpoint_after[i] {
                durable.checkpoint().expect("clean checkpoint");
            }
        }
        let mut d = MemDir::with_state(state);
        let names = d.list().expect("list");
        names
            .iter()
            .map(|n| d.file_len(n).unwrap_or(0))
            .sum::<u64>()
            .max(64)
    }
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

/// Recovers from a crashed directory view and checks the contract. The
/// recovered state must be some batch-prefix containing at least the
/// `acked` first batches, bit-identical to a never-crashed reference at
/// that prefix, and replay must be bounded by the loaded checkpoint.
fn recover_and_verify(
    workload: &Workload,
    crashed: &SharedDirState,
    acked: usize,
) -> RecoveryReport {
    let dir = MemDir::crashed(crashed);
    let (recovered, report) = DurableStore::open_dir(
        Box::new(dir),
        workload.n_items,
        workload.config(),
        workload.durability(),
    )
    .expect("recovery must succeed on crash survivors");
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
    // Bounded replay: everything at or below the loaded checkpoint is
    // restored from the snapshot, only the remainder replays.
    assert!(
        report.checkpoint_epoch <= recovered.epoch(),
        "checkpoint past the recovered epoch"
    );
    assert_eq!(
        report.baskets_recovered,
        recovered.epoch() - report.checkpoint_epoch,
        "replay was not bounded by the checkpoint: {report:?}"
    );
    // The recovery gauges agree with the report (the serve layer's
    // /metrics reads these).
    let obs = recovered.observability().snapshot();
    assert_eq!(
        obs.gauge_value("bmb_basket_ckpt_recovery_epoch", &[]) as u64,
        report.checkpoint_epoch
    );
    assert_eq!(
        obs.gauge_value("bmb_basket_wal_recovered_baskets", &[]) as u64,
        report.baskets_recovered
    );
    assert_eq!(
        obs.gauge_value("bmb_basket_wal_recovery_skipped_records", &[]) as u64,
        report.records_skipped
    );
    assert_eq!(
        obs.gauge_value("bmb_basket_ckpt_recovery_fallbacks", &[]) as u64,
        report.checkpoint_fallbacks
    );
    let reference = workload.reference_store(prefix);
    assert_bit_identical(recovered.store(), &reference, workload.n_items);
    report
}

/// Drives one workload into a fault plan's wall, crashes, recovers,
/// verifies. Returns how many batches were acknowledged.
fn run_one(workload: &Workload, plan: DirFaultPlan) {
    let dir = FaultDir::new(plan);
    let state = dir.dir_state();
    let opened = DurableStore::open_dir(
        Box::new(dir),
        workload.n_items,
        workload.config(),
        workload.durability(),
    );
    let mut acked = 0usize;
    if let Ok((durable, _)) = opened {
        for (i, batch) in workload.batches.iter().enumerate() {
            let result = durable.append_batch(
                batch
                    .iter()
                    .map(|b| b.iter().map(|&id| ItemId(id)).collect::<Vec<_>>()),
            );
            match result {
                Ok(_) => acked += 1,
                Err(_) => break, // the crash point
            }
            if workload.checkpoint_after[i] {
                // A failing checkpoint must never affect ingest
                // correctness; keep going either way.
                let _ = durable.checkpoint();
            }
        }
    }
    // else: the fault tripped while creating the first segment — nothing
    // was ever acknowledged.
    recover_and_verify(workload, &state, acked);
}

/// Torn writes against the directory store: the shared byte budget
/// spans WAL segments, checkpoint temps, and the manifest alike, so the
/// wall lands mid-rotation, mid-snapshot, or mid-append at random. 160
/// fault points; half also lose every entry mutation after the last
/// directory sync (fail_dir_sync_at).
#[test]
fn torn_write_checkpoint_torture() {
    let mut rng = StdRng::seed_from_u64(0xC4EC_C4EC);
    let mut fault_points = 0usize;
    while fault_points < 160 {
        let workload = Workload::random(&mut rng);
        let clean_bytes = workload.clean_run_bytes();
        for _ in 0..4 {
            let budget = rng.gen_range(0..=clean_bytes);
            let plan = DirFaultPlan {
                fail_after_bytes: Some(budget),
                fail_dir_sync_at: if rng.gen_range(0..2) == 0 {
                    Some(rng.gen_range(0..8u64))
                } else {
                    None
                },
                ..DirFaultPlan::default()
            };
            run_one(&workload, plan);
            fault_points += 1;
        }
    }
}

/// Entry-operation faults: a planned failure on the Nth create, rename,
/// or delete — the atomic-rename checkpoint protocol and rotation must
/// degrade cleanly (old state intact, next attempt succeeds), never
/// acknowledge over a hole. 90 fault points.
#[test]
fn entry_op_fault_torture() {
    let mut rng = StdRng::seed_from_u64(0x0DD0_0505);
    let mut fault_points = 0usize;
    while fault_points < 90 {
        let workload = Workload::random(&mut rng);
        for _ in 0..3 {
            let n = rng.gen_range(0..6u64);
            let mut plan = DirFaultPlan::default();
            match rng.gen_range(0..3) {
                0 => plan.fail_create_at = Some(n),
                1 => plan.fail_rename_at = Some(n),
                _ => plan.fail_delete_at = Some(n),
            }
            run_one(&workload, plan);
            fault_points += 1;
        }
    }
}

/// Checkpoint corruption: run clean (checkpoints included), then flip a
/// random bit inside the newest checkpoint file, reopen, and require
/// the ladder to fall back — to an older checkpoint or full replay —
/// with zero data loss (the WAL still holds everything). 80 fault
/// points.
#[test]
fn corrupted_checkpoint_fallback_torture() {
    let mut rng = StdRng::seed_from_u64(0xFA11_BACC);
    let mut fault_points = 0usize;
    while fault_points < 80 {
        let workload = Workload::random(&mut rng);
        if !workload.checkpoint_after.iter().any(|&c| c) {
            continue; // need at least one checkpoint to corrupt
        }
        // Clean run on plain MemDir.
        let dir = MemDir::new();
        let state = dir.state();
        let (durable, _) = DurableStore::open_dir(
            Box::new(dir),
            workload.n_items,
            workload.config(),
            workload.durability(),
        )
        .expect("clean open");
        for (i, batch) in workload.batches.iter().enumerate() {
            durable
                .append_batch(
                    batch
                        .iter()
                        .map(|b| b.iter().map(|&id| ItemId(id)).collect::<Vec<_>>()),
                )
                .expect("clean append");
            if workload.checkpoint_after[i] {
                durable.checkpoint().expect("clean checkpoint");
            }
        }
        let acked = workload.batches.len();
        drop(durable);

        for _ in 0..4 {
            // Corrupt a fresh copy of the directory each round.
            let crashed = MemDir::crashed(&state);
            let cstate = crashed.state();
            let newest = {
                let mut d = MemDir::with_state(Arc::clone(&cstate));
                let names = d.list().expect("list");
                let Some(newest) = names
                    .iter()
                    .filter(|n| n.starts_with("ckpt."))
                    .max()
                    .cloned()
                else {
                    break; // retention may have replaced files; rare
                };
                let mut f = d.open(&newest).expect("open ckpt");
                let bytes = f.read_all().expect("read ckpt");
                let k = rng.gen_range(0..bytes.len());
                let bit = rng.gen_range(0..8u32);
                let mut damaged = bytes.clone();
                damaged[k] ^= 1u8 << bit;
                f.truncate(0).expect("truncate");
                f.append(&damaged).expect("rewrite");
                newest
            };
            let report = recover_and_verify(&workload, &cstate, acked);
            // The damaged newest snapshot must have been rejected (one
            // fallback), unless the flip landed in a basket id that
            // still decodes — impossible: the CRC covers every byte.
            assert!(
                report.checkpoint_fallbacks >= 1,
                "corrupting {newest} did not register as a fallback: {report:?}"
            );
            fault_points += 1;
        }
    }
}

/// Deterministic bounded-recovery check (the gauges the acceptance
/// criteria name): ingest, checkpoint, ingest a little more, reopen —
/// only the post-checkpoint records replay, and whole covered segments
/// are skipped without decoding.
#[test]
fn recovery_replays_only_post_checkpoint_records() {
    let dir = MemDir::new();
    let state = dir.state();
    let config = StoreConfig {
        segment_capacity: 4,
    };
    let durability = DurabilityConfig {
        segment_bytes: 64,
        retain_checkpoints: 2,
    };
    let (durable, _) = DurableStore::open_dir(Box::new(dir), 8, config, durability).expect("open");
    for i in 0..30u32 {
        durable.append_ids([i % 8, (i + 3) % 8]).expect("append");
    }
    durable.checkpoint().expect("first checkpoint");
    for i in 0..20u32 {
        durable.append_ids([i % 8, (i + 3) % 8]).expect("append");
    }
    // Second checkpoint: retention keeps both (retain_checkpoints = 2),
    // so coverage = 30 — the segments between epoch 30 and 50 survive
    // on disk, wholly covered by the newest snapshot. Recovery must
    // skip them without decoding.
    durable.checkpoint().expect("second checkpoint");
    for i in 0..5u32 {
        durable.append_ids([i % 8]).expect("append");
    }
    drop(durable);

    let (recovered, report) =
        DurableStore::open_dir(Box::new(MemDir::crashed(&state)), 8, config, durability)
            .expect("reopen");
    assert_eq!(report.epoch, 55);
    assert_eq!(report.checkpoint_epoch, 50);
    assert_eq!(
        report.baskets_recovered, 5,
        "only the 5 post-checkpoint appends replay: {report:?}"
    );
    assert!(
        report.segments_skipped > 0,
        "tiny segments under a checkpoint must be skipped whole: {report:?}"
    );
    let obs = recovered.observability().snapshot();
    assert_eq!(obs.gauge_value("bmb_basket_ckpt_recovery_epoch", &[]), 50);
    assert_eq!(obs.gauge_value("bmb_basket_wal_recovered_baskets", &[]), 5);
    assert_eq!(
        obs.gauge_value("bmb_basket_wal_recovery_skipped_segments", &[]) as u64,
        report.segments_skipped
    );
}

/// Opens a clean directory store for `workload`, runs it to the end
/// (every append acknowledged, every planned checkpoint taken) and
/// closes it. Returns the media.
fn clean_run(workload: &Workload) -> SharedDirState {
    let dir = MemDir::new();
    let state = dir.state();
    let (durable, _) = DurableStore::open_dir(
        Box::new(dir),
        workload.n_items,
        workload.config(),
        workload.durability(),
    )
    .expect("clean open");
    for (i, batch) in workload.batches.iter().enumerate() {
        durable
            .append_batch(
                batch
                    .iter()
                    .map(|b| b.iter().map(|&id| ItemId(id)).collect::<Vec<_>>()),
            )
            .expect("clean append");
        if workload.checkpoint_after[i] {
            durable.checkpoint().expect("clean checkpoint");
        }
    }
    state
}

/// A separate copy of every file on `state` (a crashed view would share
/// file contents with it), all of it durable.
fn fresh_copy(state: &SharedDirState) -> SharedDirState {
    let mut from = MemDir::with_state(Arc::clone(state));
    let mut to = MemDir::new();
    for name in from.list().expect("list") {
        let bytes = from.open(&name).expect("open").read_all().expect("read");
        let mut file = to.create(&name).expect("create");
        file.append(&bytes).expect("write");
        file.sync().expect("sync");
    }
    to.sync().expect("dir sync");
    to.state()
}

fn names_on(state: &SharedDirState) -> Vec<String> {
    let mut names = MemDir::with_state(Arc::clone(state)).list().expect("list");
    names.sort();
    names
}

fn read_on(state: &SharedDirState, name: &str) -> Vec<u8> {
    let mut dir = MemDir::with_state(Arc::clone(state));
    let mut file = dir.open(name).expect("open");
    file.read_all().expect("read")
}

fn write_on(state: &SharedDirState, name: &str, bytes: &[u8]) {
    let mut dir = MemDir::with_state(Arc::clone(state));
    let mut file = dir.open(name).expect("open");
    file.truncate(0).expect("truncate");
    file.append(bytes).expect("rewrite");
}

/// Every segment file copy on `state`, with its segment id.
fn segment_files(state: &SharedDirState) -> Vec<(u64, String)> {
    names_on(state)
        .into_iter()
        .filter_map(|n| bmb_basket::parse_sealed_name(&n).map(|(id, _)| (id, n)))
        .collect()
}

/// One copy of a segment file damaged — shared by both retained
/// checkpoints where the run has one — must cost nothing: recovery
/// loads the newest checkpoint from the other copy, answers are
/// bit-identical, the next checkpoint rewrites a damaged copy 0, and a
/// scrub repairs a damaged copy 1 until fsck is clean. 120 fault points.
#[test]
fn one_damaged_segment_file_copy_is_free() {
    let mut rng = StdRng::seed_from_u64(0x5E6_F11E);
    let mut fault_points = 0usize;
    let mut shared = 0usize;
    while fault_points < 120 {
        let workload = Workload::random(&mut rng);
        let state = clean_run(&workload);
        let files = segment_files(&state);
        if files.is_empty() {
            continue;
        }
        let ckpts: Vec<u64> = names_on(&state)
            .iter()
            .filter_map(|n| bmb_basket::parse_checkpoint_name(n))
            .collect();
        let oldest_named = ckpts
            .iter()
            .min()
            .map_or(0, |e| e / workload.capacity as u64);
        for _ in 0..3 {
            let (id, name) = files[rng.gen_range(0..files.len())].clone();
            if ckpts.len() >= 2 && id < oldest_named {
                shared += 1;
            }
            let cstate = fresh_copy(&state);
            let mut bytes = read_on(&cstate, &name);
            let k = rng.gen_range(0..bytes.len());
            bytes[k] ^= 1u8 << rng.gen_range(0..8u32);
            write_on(&cstate, &name, &bytes);
            let report = recover_and_verify(&workload, &cstate, workload.batches.len());
            assert_eq!(
                report.checkpoint_fallbacks, 0,
                "{name}: the other copy must serve the newest checkpoint: {report:?}"
            );
            assert_eq!(
                report.checkpoint_epoch,
                ckpts.iter().copied().max().unwrap_or(0)
            );

            // Restore two good copies: checkpoint (rewrites a bad copy
            // 0), scrub (repairs a bad copy 1), then fsck is clean.
            let (store, _) = DurableStore::open_dir(
                Box::new(MemDir::with_state(Arc::clone(&cstate))),
                workload.n_items,
                workload.config(),
                workload.durability(),
            )
            .expect("reopen");
            store.checkpoint().expect("checkpoint after recovery");
            let scrub = store.scrub_pass(None, &bmb_basket::ScrubOptions::default());
            assert!(!scrub.degraded, "{name}: {:?}", scrub.findings);
            let fsck =
                bmb_basket::fsck_dir(&mut MemDir::with_state(Arc::clone(&cstate))).expect("fsck");
            assert!(fsck.is_clean(), "{name}: {:?}", fsck.findings);
            fault_points += 1;
        }
    }
    assert!(
        shared >= 10,
        "only {shared} flips hit a file two checkpoints share"
    );
}

/// Both copies of one segment file damaged: every checkpoint naming it
/// must fail, and recovery either falls back (an older checkpoint that
/// does not name it, or replay) to the full acknowledged store, or
/// refuses with `MissingHistory` when the WAL under it was reclaimed —
/// never a wrong answer. 80 fault points.
#[test]
fn both_damaged_segment_file_copies_fall_back_or_refuse() {
    let mut rng = StdRng::seed_from_u64(0xB07_4C0B);
    let mut fault_points = 0usize;
    let (mut fell_back, mut refused) = (0usize, 0usize);
    while fault_points < 80 {
        let workload = Workload::random(&mut rng);
        let state = clean_run(&workload);
        let files = segment_files(&state);
        if files.is_empty() {
            continue;
        }
        let (id, _) = files[rng.gen_range(0..files.len())];
        let cstate = fresh_copy(&state);
        for (other, name) in &files {
            if *other == id {
                let mut bytes = read_on(&cstate, name);
                let k = rng.gen_range(0..bytes.len());
                bytes[k] ^= 0x20;
                write_on(&cstate, name, &bytes);
            }
        }
        let fsck =
            bmb_basket::fsck_dir(&mut MemDir::with_state(Arc::clone(&cstate))).expect("fsck");
        assert!(
            fsck.findings.iter().any(|f| f.unrecoverable),
            "fsck must call a checkpoint naming segment {id} unrecoverable: {:?}",
            fsck.findings
        );
        let opened = DurableStore::open_dir(
            Box::new(MemDir::with_state(Arc::clone(&cstate))),
            workload.n_items,
            workload.config(),
            workload.durability(),
        );
        match opened {
            Ok((_, report)) => {
                assert!(report.checkpoint_fallbacks >= 1, "{report:?}");
                assert!(report.checkpoint_epoch < (id + 1) * workload.capacity as u64);
                recover_and_verify(&workload, &cstate, workload.batches.len());
                fell_back += 1;
            }
            Err(e) => {
                assert!(
                    matches!(e, bmb_basket::WalError::MissingHistory { .. }),
                    "segment {id}: only a reclaimed WAL may refuse, got {e}"
                );
                refused += 1;
            }
        }
        fault_points += 1;
    }
    assert!(
        fell_back > 0 && refused > 0,
        "{fell_back} fallbacks, {refused} refusals"
    );
}

/// A stale segment file must never be reused by name: a checkpoint
/// crashes after writing `sealed.2.*` (and its snapshot) but before the
/// manifest, the WAL tail that sealed segment 2 is lost, and a
/// different basket sequence re-seals segment 2. The next checkpoint
/// must write segment 2 afresh, and recovery must load it. 40 seeds.
#[test]
fn stale_orphan_segment_file_is_rewritten_not_reused() {
    let config = StoreConfig {
        segment_capacity: 4,
    };
    let durability = DurabilityConfig {
        segment_bytes: 1 << 20,
        retain_checkpoints: 2,
    };
    for seed in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(0x57A1_E000 + seed);
        let basket = |rng: &mut StdRng| -> Vec<ItemId> {
            (0..rng.gen_range(1..=4))
                .map(|_| ItemId(rng.gen_range(0..8)))
                .collect()
        };
        let base: Vec<Vec<ItemId>> = (0..8).map(|_| basket(&mut rng)).collect();
        let lost: Vec<Vec<ItemId>> = (0..4).map(|_| vec![ItemId(7)]).collect();
        let resealed: Vec<Vec<ItemId>> = (0..5).map(|_| basket(&mut rng)).collect();

        // Renames: four segment-file copies, ckpt.8, MANIFEST (0–5);
        // then sealed.2.0, sealed.2.1, ckpt.12 (6–8) and the failing
        // MANIFEST (9).
        let dir = FaultDir::new(DirFaultPlan {
            fail_rename_at: Some(9),
            ..DirFaultPlan::default()
        });
        let state = dir.dir_state();
        let (durable, _) =
            DurableStore::open_dir(Box::new(dir), 8, config, durability).expect("open");
        durable.append_batch(base.clone()).expect("base");
        durable.checkpoint().expect("checkpoint at 8");
        let wal_at_8 = read_on(&state, "wal.000000").len();
        durable.append_batch(lost.clone()).expect("lost tail");
        assert!(durable.checkpoint().is_err(), "the manifest rename fails");
        drop(durable);
        let crashed = MemDir::crashed(&state);
        let cstate = crashed.state();
        let names = names_on(&cstate);
        assert!(names.contains(&bmb_basket::sealed_name(2, 0)), "{names:?}");
        assert!(
            names.contains(&bmb_basket::checkpoint_name(12)),
            "{names:?}"
        );
        // The WAL tail that sealed segment 2 is lost.
        let wal = read_on(&cstate, "wal.000000");
        write_on(&cstate, "wal.000000", &wal[..wal_at_8]);

        let (durable, report) = DurableStore::open_dir(
            Box::new(MemDir::with_state(Arc::clone(&cstate))),
            8,
            config,
            durability,
        )
        .expect("recover");
        assert_eq!((report.epoch, report.checkpoint_epoch), (8, 8));
        durable.append_batch(resealed.clone()).expect("re-seal");
        let stats = durable.checkpoint().expect("checkpoint at 13");
        assert_eq!(stats.epoch, 13);
        drop(durable);

        let reference = IncrementalStore::new(8, config);
        reference
            .append_batch(base.iter().chain(&resealed).cloned())
            .expect("reference");
        let want = reference.snapshot().baskets_range(8, 12);
        for copy in 0..2 {
            let file = read_on(&cstate, &bmb_basket::sealed_name(2, copy));
            let data = bmb_basket::checkpoint::decode_sealed(&file).expect("segment file");
            assert_eq!(
                data.baskets, want,
                "seed {seed}: copy {copy} still holds the lost baskets"
            );
        }
        let (recovered, report) =
            DurableStore::open_dir(Box::new(MemDir::crashed(&cstate)), 8, config, durability)
                .expect("reopen");
        assert_eq!(
            (report.epoch, report.checkpoint_epoch),
            (13, 13),
            "{report:?}"
        );
        assert_eq!(report.checkpoint_fallbacks, 0, "{report:?}");
        assert_bit_identical(recovered.store(), &Arc::new(reference), 8);
    }
}

/// A directory written before segment files — v1 whole-store snapshots
/// (`BMBCKPT1`) over v2 WAL headers (no header CRC) — recovers from its
/// checkpoint bit-identically, and the first checkpoint after that
/// writes the new format. 30 workloads.
#[test]
fn v1_checkpoint_directory_recovers() {
    let mut rng = StdRng::seed_from_u64(0x0_1D_D1);
    for _ in 0..30 {
        let mut workload = Workload::random(&mut rng);
        workload
            .checkpoint_after
            .iter_mut()
            .for_each(|c| *c = false);
        let state = clean_run(&workload);
        // Rewrite the WAL headers as v2.
        for name in names_on(&state).iter().filter(|n| n.starts_with("wal.")) {
            let bytes = read_on(&state, name);
            let mut v2 = b"BMBWAL2\n".to_vec();
            v2.extend_from_slice(&bytes[8..16]);
            v2.extend_from_slice(&bytes[20..]);
            write_on(&state, name, &v2);
        }
        // A v1 checkpoint after a random batch prefix, and its manifest.
        let cum = workload.cumulative_baskets();
        let prefix = rng.gen_range(1..=workload.batches.len());
        let epoch = cum[prefix];
        let reference = workload.reference_store(prefix);
        let mut ckpt = b"BMBCKPT1".to_vec();
        ckpt.extend_from_slice(&epoch.to_le_bytes());
        ckpt.extend_from_slice(&(workload.n_items as u32).to_le_bytes());
        ckpt.extend_from_slice(&(workload.capacity as u32).to_le_bytes());
        ckpt.extend_from_slice(&epoch.to_le_bytes());
        for basket in reference.snapshot().baskets_range(0, epoch) {
            ckpt.extend_from_slice(&(basket.len() as u32).to_le_bytes());
            for item in basket {
                ckpt.extend_from_slice(&item.0.to_le_bytes());
            }
        }
        let crc = bmb_basket::record::crc32(&ckpt);
        ckpt.extend_from_slice(&crc.to_le_bytes());
        let mut manifest = b"BMBMAN1\n".to_vec();
        manifest.extend_from_slice(&1u32.to_le_bytes());
        manifest.extend_from_slice(&epoch.to_le_bytes());
        let crc = bmb_basket::record::crc32(&manifest);
        manifest.extend_from_slice(&crc.to_le_bytes());
        {
            let mut dir = MemDir::with_state(Arc::clone(&state));
            for (name, bytes) in [
                (bmb_basket::checkpoint_name(epoch), ckpt),
                (bmb_basket::MANIFEST_NAME.to_string(), manifest),
            ] {
                let mut file = dir.create(&name).expect("create");
                file.append(&bytes).expect("write");
                file.sync().expect("sync");
            }
            dir.sync().expect("dir sync");
        }
        let report = recover_and_verify(&workload, &state, workload.batches.len());
        assert_eq!(report.checkpoint_epoch, epoch, "{report:?}");

        // The first checkpoint after it writes segment files and a v2
        // snapshot, which the next recovery loads.
        let (store, _) = DurableStore::open_dir(
            Box::new(MemDir::with_state(Arc::clone(&state))),
            workload.n_items,
            workload.config(),
            workload.durability(),
        )
        .expect("reopen");
        let stats = store.checkpoint().expect("checkpoint");
        drop(store);
        let newest = read_on(&state, &bmb_basket::checkpoint_name(stats.epoch));
        assert!(newest.starts_with(b"BMBCKPT2"));
        let report = recover_and_verify(&workload, &state, workload.batches.len());
        assert_eq!(report.checkpoint_epoch, stats.epoch);
    }
}

/// A base-epoch byte flipped in a v3 WAL header *under checkpoint
/// cover* — where the chain checks alone could not see it — fails the
/// header CRC: recovery refuses the segment (`NotAWal`, nothing
/// deleted) and never reads the flipped value as a base epoch. 60
/// fault points.
#[test]
fn flipped_base_epoch_under_checkpoint_cover_is_refused() {
    let mut rng = StdRng::seed_from_u64(0xBA5E_E0C4);
    let mut fault_points = 0usize;
    while fault_points < 60 {
        let mut workload = Workload::random(&mut rng);
        // One checkpoint at the end: nothing is reclaimed, so every WAL
        // segment but the active one sits under its cover.
        let last = workload.checkpoint_after.len() - 1;
        workload
            .checkpoint_after
            .iter_mut()
            .for_each(|c| *c = false);
        workload.checkpoint_after[last] = true;
        let state = clean_run(&workload);
        let segments: Vec<String> = names_on(&state)
            .into_iter()
            .filter(|n| n.starts_with("wal."))
            .collect();
        if segments.len() < 2 {
            continue;
        }
        let name = &segments[rng.gen_range(0..segments.len() - 1)];
        let cstate = fresh_copy(&state);
        let mut bytes = read_on(&cstate, name);
        bytes[rng.gen_range(8..16usize)] ^= 1u8 << rng.gen_range(0..8u32);
        write_on(&cstate, name, &bytes);
        let before = names_on(&cstate);
        let opened = DurableStore::open_dir(
            Box::new(MemDir::with_state(Arc::clone(&cstate))),
            workload.n_items,
            workload.config(),
            workload.durability(),
        );
        match opened {
            Err(bmb_basket::WalError::NotAWal) => {}
            Err(e) => panic!("{name}: expected a refusal, got {e}"),
            Ok(_) => panic!("{name}: a flipped base epoch was read as one"),
        }
        assert_eq!(names_on(&cstate), before, "nothing deleted");
        assert_eq!(read_on(&cstate, name), bytes, "evidence kept");
        fault_points += 1;
    }
}
