//! The ISSUE 9 acceptance property: `ModelSlot` readers see only
//! fully-published snapshots — bit-identical scoring before/after a
//! swap, never a blend — including while a *live* distributed training
//! loop publishes from another thread.

use proptest::prelude::*;
use proptest::collection::vec;
use scd_core::{ObjectiveKind, RidgeProblem, Solver};
use scd_datasets::{scale_values, webspam_like};
use scd_distributed::{DistributedConfig, DistributedScd};
use scd_serve::{batch_from_pairs, BatchScorer, ModelSlot};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Single-threaded exactness: after any sequence of publishes the
    /// slot returns the *last* snapshot bit-for-bit — metadata and every
    /// weight — and the sequence numbers count the publishes.
    #[test]
    fn read_returns_the_last_publish_exactly(
        features in 0usize..40,
        publishes in vec((0usize..ObjectiveKind::ALL.len(), -1e3f64..1e3, -100f32..100.0), 1..12),
    ) {
        let slot = ModelSlot::new(features);
        prop_assert_eq!(slot.read(), None);
        let mut expected = None;
        for (i, &(obj_idx, lambda, fill)) in publishes.iter().enumerate() {
            let objective = ObjectiveKind::ALL[obj_idx];
            // Distinct per-publish weights so a stale read would differ.
            let beta: Vec<f32> =
                (0..features).map(|j| fill + i as f32 * 1000.0 + j as f32).collect();
            let seq = slot.publish(objective, lambda, &beta);
            prop_assert_eq!(seq, i as u64 + 1);
            expected = Some((seq, objective, lambda, beta));
        }
        let snap = slot.read().unwrap();
        let (seq, objective, lambda, beta) = expected.unwrap();
        prop_assert_eq!(snap.seq, seq);
        prop_assert_eq!(snap.objective, objective);
        prop_assert_eq!(snap.lambda.to_bits(), lambda.to_bits());
        prop_assert_eq!(snap.beta.len(), beta.len());
        for (a, b) in snap.beta.iter().zip(&beta) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

/// Torn-read hammer: a writer publishes self-describing snapshots (every
/// word derivable from the sequence number) as fast as it can while
/// reader threads verify that each snapshot is internally consistent.
/// A single blended word fails the derivation check.
#[test]
fn concurrent_reads_never_observe_a_blend() {
    const FEATURES: usize = 257; // odd, > one cache line of words
    const PUBLISHES: u64 = 3000;
    const READERS: usize = 3;

    fn word(seq: u64, j: usize) -> f32 {
        (seq as f32) * 10_000.0 + j as f32
    }

    let slot = Arc::new(ModelSlot::new(FEATURES));
    let stop = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let slot = Arc::clone(&slot);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut reads = 0u64;
                let mut last_seq = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let Some(snap) = slot.read() else { continue };
                    assert!(snap.seq >= last_seq, "seq went backwards");
                    last_seq = snap.seq;
                    // Every field must derive from snap.seq — a torn
                    // read mixing publishes breaks at least one word.
                    assert_eq!(snap.lambda, snap.seq as f64 * 0.5, "blended lambda");
                    let want_obj =
                        ObjectiveKind::ALL[(snap.seq % ObjectiveKind::ALL.len() as u64) as usize];
                    assert_eq!(snap.objective, want_obj, "blended objective");
                    for (j, &b) in snap.beta.iter().enumerate() {
                        assert_eq!(
                            b.to_bits(),
                            word(snap.seq, j).to_bits(),
                            "blended weight {j} in snapshot {}",
                            snap.seq
                        );
                    }
                    reads += 1;
                }
                reads
            })
        })
        .collect();

    let mut beta = vec![0.0f32; FEATURES];
    for seq in 1..=PUBLISHES {
        for (j, b) in beta.iter_mut().enumerate() {
            *b = word(seq, j);
        }
        let objective = ObjectiveKind::ALL[(seq % ObjectiveKind::ALL.len() as u64) as usize];
        slot.publish(objective, seq as f64 * 0.5, &beta);
    }
    stop.store(true, Ordering::Relaxed);

    let total_reads: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
    assert!(total_reads > 0, "readers never completed a read");
    assert_eq!(slot.seq(), PUBLISHES);
}

/// The live-training acceptance test: a real `DistributedScd` loop
/// publishes its assembled weights at every round boundary while a
/// serving thread scores a fixed batch. Every scored batch must be
/// bit-identical to scoring the *recorded* weights of the snapshot's
/// sequence number — proving reads are consistent before, during, and
/// after hot swaps, never a blend of two rounds.
#[test]
fn scoring_is_bit_identical_across_live_driver_swaps() {
    let data = scale_values(&webspam_like(160, 120, 8, 11), 0.3);
    let problem = RidgeProblem::from_labelled(&data, 1e-2).unwrap();
    let features = problem.m();

    let slot = Arc::new(ModelSlot::new(features));
    let published: Arc<Mutex<Vec<(u64, Vec<f32>)>>> = Arc::new(Mutex::new(Vec::new()));
    let stop = Arc::new(AtomicBool::new(false));

    // The trainer: the synchronous driver running primal ridge (weights
    // are β directly), publishing after every epoch.
    let trainer = {
        let slot = Arc::clone(&slot);
        let published = Arc::clone(&published);
        let problem = RidgeProblem::from_labelled(&data, 1e-2).unwrap();
        thread::spawn(move || {
            let config = DistributedConfig::new(4, scd_core::Form::Primal).with_seed(5);
            let mut driver = DistributedScd::new(&problem, &config).unwrap();
            for _ in 0..30 {
                driver.epoch(&problem);
                let beta = driver.weights();
                // Record first, then publish: when a reader sees seq S,
                // the recorded weights for S are already in the log.
                let mut log = published.lock().unwrap();
                let seq = slot.publish(ObjectiveKind::Ridge, problem.lambda(), &beta);
                log.push((seq, beta));
            }
        })
    };

    // The server: keep scoring one fixed batch against whatever snapshot
    // is current, remembering (seq, decisions) for the post-hoc check.
    let batch = batch_from_pairs(
        &(0..32)
            .map(|r| vec![(r as u32 % features as u32, 1.5), ((r as u32 * 7 + 3) % features as u32, -0.5)])
            .collect::<Vec<_>>(),
        features,
    )
    .unwrap();
    let scorer = BatchScorer::new(scd_sched::global());
    let mut observed: Vec<(u64, Vec<f32>)> = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        if trainer.is_finished() {
            stop.store(true, Ordering::Relaxed);
        }
        if let Some(snap) = slot.read() {
            let decisions = scorer.decisions(&batch, &snap.beta).unwrap();
            observed.push((snap.seq, decisions));
        }
    }
    trainer.join().unwrap();

    // Post-hoc: every observed batch must bit-match a recompute from the
    // recorded weights of that exact publication.
    let log = published.lock().unwrap();
    assert_eq!(log.len(), 30, "one publish per epoch");
    let mut seqs_seen = std::collections::BTreeSet::new();
    for (seq, decisions) in &observed {
        let (_, beta) = log
            .iter()
            .find(|(s, _)| s == seq)
            .unwrap_or_else(|| panic!("snapshot {seq} was never published"));
        let want = scorer.decisions(&batch, beta).unwrap();
        for (d, w) in decisions.iter().zip(&want) {
            assert_eq!(
                d.to_bits(),
                w.to_bits(),
                "blended scoring at snapshot {seq}"
            );
        }
        seqs_seen.insert(*seq);
    }
    assert!(!observed.is_empty(), "the server never scored a batch");
    // The final model must have been observable.
    let final_snap = slot.read().unwrap();
    assert_eq!(final_snap.seq, 30);
    // Training actually changed the weights across rounds (the swaps
    // were real, not republications of the same vector).
    assert_ne!(log[0].1, log[29].1);
}
