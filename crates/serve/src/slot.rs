//! [`ModelSlot`] — the snapshot-publication primitive that connects a
//! live training loop (the producer) to the inference engine (the
//! consumers).
//!
//! ## Consistency contract
//!
//! * **Readers never block writers.** A publish never waits for any
//!   reader: the writer bumps the version counter to odd, stores every
//!   word, and bumps it back to even. Readers that raced the write
//!   detect the version change and retry; the writer never even learns
//!   they exist.
//! * **Torn reads are impossible.** A successful [`ModelSlot::read`]
//!   returns a snapshot whose every word was published by one single
//!   `publish` call — never a blend of two publications. This is the
//!   classic seqlock protocol: a reader that observed version `v1`
//!   (even) before copying and the same `v1` after copying is guaranteed
//!   no writer touched the words in between.
//! * **Single producer, many consumers.** Concurrent writers are
//!   serialized by an internal mutex (writers may block each other,
//!   never readers). The expected topology is one training driver
//!   publishing at round boundaries while any number of serving threads
//!   read.
//!
//! Every word of the payload is an atomic (`AtomicU32` bit patterns of
//! `f32`, `AtomicU64` for the metadata), so the racing accesses the
//! protocol allows are plain relaxed atomic loads/stores — no undefined
//! behaviour, with the ordering supplied by the acquire/release fences
//! exactly as in the crossbeam seqlock recipe.
//!
//! The capacity (feature count) is fixed at construction: a model swap
//! replaces the weights, it never resizes the model. `seq` starts at 0
//! (nothing published; [`ModelSlot::read`] returns `None`) and
//! increments once per publish, so consumers can tell swaps apart.

use scd_core::ObjectiveKind;
use std::sync::atomic::{fence, AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;

/// One fully-published model: what a reader gets back from the slot.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSnapshot {
    /// Publication sequence number (1 = first publish).
    pub seq: u64,
    /// The objective the weights were trained for (decides how decision
    /// values map to predictions).
    pub objective: ObjectiveKind,
    /// The regularizer the model was trained with.
    pub lambda: f64,
    /// Primal weights β, one per feature.
    pub beta: Vec<f32>,
}

/// The seqlock-protected publication slot. See the module docs for the
/// consistency contract.
pub struct ModelSlot {
    /// Seqlock version: even = stable, odd = publish in progress.
    version: AtomicU64,
    /// Serializes writers (never touched by readers).
    writer: Mutex<()>,
    /// Publication counter (0 = empty). Written inside the odd window.
    seq: AtomicU64,
    /// `f64::to_bits` of λ. Written inside the odd window.
    lambda_bits: AtomicU64,
    /// Index into [`ObjectiveKind::ALL`]. Written inside the odd window.
    objective_tag: AtomicU64,
    /// `f64::to_bits` of the elastic-net mix ρ (0 for every other
    /// objective). Written inside the odd window.
    l1_ratio_bits: AtomicU64,
    /// `f32::to_bits` of β. Written inside the odd window.
    words: Box<[AtomicU32]>,
    /// Reader retries observed (diagnostic; relaxed counter).
    retries: AtomicU64,
}

/// The slot's two-word encoding of an objective: its position in
/// [`ObjectiveKind::ALL`] and the bits of its elastic-net mix.
fn objective_words(objective: ObjectiveKind) -> (u64, u64) {
    let tag = ObjectiveKind::ALL
        .iter()
        .position(|k| k.label() == objective.label())
        .expect("every ObjectiveKind is in ALL") as u64;
    match objective {
        ObjectiveKind::ElasticNet { l1_ratio } => (tag, l1_ratio.to_bits()),
        _ => (tag, 0),
    }
}

impl ModelSlot {
    /// An empty slot for models with `features` weights.
    pub fn new(features: usize) -> ModelSlot {
        ModelSlot {
            version: AtomicU64::new(0),
            writer: Mutex::new(()),
            seq: AtomicU64::new(0),
            lambda_bits: AtomicU64::new(0),
            objective_tag: AtomicU64::new(0),
            l1_ratio_bits: AtomicU64::new(0),
            words: (0..features).map(|_| AtomicU32::new(0)).collect(),
            retries: AtomicU64::new(0),
        }
    }

    /// The fixed feature count this slot publishes.
    pub fn features(&self) -> usize {
        self.words.len()
    }

    /// Sequence number of the latest publication (0 = none yet). A bare
    /// monotone probe — cheaper than [`ModelSlot::read`] when only the
    /// swap count is wanted.
    pub fn seq(&self) -> u64 {
        // An in-progress publish has already committed to producing this
        // seq, so reading it mid-window is still monotone and truthful.
        self.seq.load(Ordering::Acquire)
    }

    /// How many reads had to retry because they raced a publish.
    pub fn reader_retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Publish a new snapshot, returning its sequence number. Never
    /// blocks on readers.
    ///
    /// # Panics
    /// Panics if `beta` does not match the slot's feature count.
    pub fn publish(&self, objective: ObjectiveKind, lambda: f64, beta: &[f32]) -> u64 {
        assert_eq!(
            beta.len(),
            self.words.len(),
            "model swap cannot resize: slot holds {} features, got {}",
            self.words.len(),
            beta.len()
        );
        let _writers = self.writer.lock().unwrap();
        let v = self.version.load(Ordering::Relaxed);
        debug_assert!(v.is_multiple_of(2), "stable slot has an even version");
        // Enter the odd window; the release fence orders the version
        // bump before every payload store below.
        self.version.store(v + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        let seq = self.seq.load(Ordering::Relaxed) + 1;
        self.seq.store(seq, Ordering::Relaxed);
        self.lambda_bits.store(lambda.to_bits(), Ordering::Relaxed);
        let (tag, l1_ratio_bits) = objective_words(objective);
        self.objective_tag.store(tag, Ordering::Relaxed);
        self.l1_ratio_bits.store(l1_ratio_bits, Ordering::Relaxed);
        for (word, &b) in self.words.iter().zip(beta) {
            word.store(b.to_bits(), Ordering::Relaxed);
        }
        // Leave the window; the release store publishes the payload.
        self.version.store(v + 2, Ordering::Release);
        seq
    }

    /// Read the latest fully-published snapshot, or `None` if nothing
    /// has been published yet. Lock-free: retries (never blocks) while a
    /// publish is in flight.
    pub fn read(&self) -> Option<ModelSnapshot> {
        let mut beta = vec![0.0f32; self.words.len()];
        loop {
            let v1 = self.version.load(Ordering::Acquire);
            if v1 % 2 == 1 {
                // A publish is mid-window; spin until it lands.
                self.retries.fetch_add(1, Ordering::Relaxed);
                std::hint::spin_loop();
                continue;
            }
            let seq = self.seq.load(Ordering::Relaxed);
            let lambda = f64::from_bits(self.lambda_bits.load(Ordering::Relaxed));
            let tag = self.objective_tag.load(Ordering::Relaxed) as usize;
            let l1_ratio = f64::from_bits(self.l1_ratio_bits.load(Ordering::Relaxed));
            for (out, word) in beta.iter_mut().zip(self.words.iter()) {
                *out = f32::from_bits(word.load(Ordering::Relaxed));
            }
            // The acquire fence orders the payload loads above before the
            // version re-check: an unchanged even version proves no
            // publish overlapped the copy.
            fence(Ordering::Acquire);
            if self.version.load(Ordering::Relaxed) == v1 {
                if seq == 0 {
                    return None;
                }
                let objective = match ObjectiveKind::ALL[tag] {
                    ObjectiveKind::ElasticNet { .. } => ObjectiveKind::ElasticNet { l1_ratio },
                    other => other,
                };
                return Some(ModelSnapshot {
                    seq,
                    objective,
                    lambda,
                    beta,
                });
            }
            self.retries.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl std::fmt::Debug for ModelSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelSlot")
            .field("features", &self.words.len())
            .field("seq", &self.seq())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_slot_reads_none() {
        let slot = ModelSlot::new(4);
        assert_eq!(slot.read(), None);
        assert_eq!(slot.seq(), 0);
        assert_eq!(slot.features(), 4);
    }

    #[test]
    fn publish_read_roundtrip() {
        let slot = ModelSlot::new(3);
        let seq = slot.publish(ObjectiveKind::Svm, 0.25, &[1.0, -2.5, 0.0]);
        assert_eq!(seq, 1);
        let snap = slot.read().unwrap();
        assert_eq!(snap.seq, 1);
        assert_eq!(snap.objective, ObjectiveKind::Svm);
        assert_eq!(snap.lambda, 0.25);
        assert_eq!(snap.beta, vec![1.0, -2.5, 0.0]);

        let seq = slot.publish(ObjectiveKind::Lasso, 0.5, &[0.0, 0.0, 7.0]);
        assert_eq!(seq, 2);
        let snap = slot.read().unwrap();
        assert_eq!(snap.seq, 2);
        assert_eq!(snap.objective, ObjectiveKind::Lasso);
        assert_eq!(snap.beta[2], 7.0);

        let mixed = ObjectiveKind::ElasticNet { l1_ratio: 0.125 };
        slot.publish(mixed, 0.5, &[0.0, 0.0, 7.0]);
        assert_eq!(slot.read().unwrap().objective, mixed);
        assert!(format!("{slot:?}").contains("seq"));
    }

    #[test]
    #[should_panic(expected = "cannot resize")]
    fn publish_rejects_wrong_width() {
        ModelSlot::new(3).publish(ObjectiveKind::Ridge, 0.1, &[1.0]);
    }

    #[test]
    fn zero_feature_models_are_fine() {
        // Degenerate but legal: the protocol carries only metadata.
        let slot = ModelSlot::new(0);
        slot.publish(ObjectiveKind::Ridge, 1e-3, &[]);
        let snap = slot.read().unwrap();
        assert!(snap.beta.is_empty());
        assert_eq!(snap.seq, 1);
    }
}
