//! The batched inference engine: score CSR rows against a model snapshot
//! through the shared `scd-sparse` kernels, batching the rows across the
//! `scd-sched` work-stealing scheduler.
//!
//! Decision values are the raw linear scores ⟨āₙ, β⟩ (the same
//! `dot_dense` kernel every training engine uses); predictions are the
//! objective's decision rule on top — identity for the regressors,
//! sign for the SVM, sigmoid probability for logistic.

use crate::ServeError;
use scd_core::ObjectiveKind;
use scd_sched::Scheduler;
use scd_sparse::CsrMatrix;
use std::sync::Arc;

/// Rows per parallel task: big enough to amortize scheduling, small
/// enough that a 256-row batch still fans out.
const DEFAULT_CHUNK: usize = 16;

/// Decision values plus objective-mapped predictions for one batch.
/// Reusable: [`BatchScorer::score_into`] refills one in place, so a
/// serving loop can hold a single `Scored` across requests.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scored {
    /// Raw linear scores ⟨āₙ, β⟩.
    pub decisions: Vec<f32>,
    /// The objective's decision rule applied to each score.
    pub predictions: Vec<f32>,
}

/// Map a decision value to a prediction under an objective's decision
/// rule: the regressors (ridge, lasso, elastic net) predict the score
/// itself, the SVM predicts the ±1 sign, logistic predicts
/// P(y = +1) = σ(score).
pub fn prediction(objective: ObjectiveKind, decision: f32) -> f32 {
    match objective {
        ObjectiveKind::Ridge | ObjectiveKind::Lasso | ObjectiveKind::ElasticNet { .. } => decision,
        ObjectiveKind::Svm => {
            if decision >= 0.0 {
                1.0
            } else {
                -1.0
            }
        }
        ObjectiveKind::Logistic => (1.0 / (1.0 + (-(decision as f64)).exp())) as f32,
    }
}

/// Scores batches of CSR rows against a weight vector on a shared
/// scheduler.
pub struct BatchScorer {
    sched: Arc<Scheduler>,
    chunk: usize,
}

/// Raw output pointer handed to the scoring tasks. The chunked scheduler
/// guarantees disjoint ranges, so each task writes its own window; the
/// accessor method (rather than a bare field read) keeps closures
/// capturing the `Sync` wrapper instead of the raw pointer.
struct OutPtr(*mut f32);

impl OutPtr {
    /// # Safety
    /// `start..start + len` must lie inside the allocation and not
    /// overlap any other task's window — that disjointness is what makes
    /// the `&self → &mut` lifetime laundering sound.
    #[allow(clippy::mut_from_ref)]
    unsafe fn chunk(&self, start: usize, len: usize) -> &mut [f32] {
        std::slice::from_raw_parts_mut(self.0.add(start), len)
    }
}

unsafe impl Sync for OutPtr {}

impl BatchScorer {
    /// A scorer on the given scheduler with the default row chunking.
    pub fn new(sched: Arc<Scheduler>) -> BatchScorer {
        BatchScorer {
            sched,
            chunk: DEFAULT_CHUNK,
        }
    }

    /// Override the rows-per-task chunk (testing / tuning).
    pub fn with_chunk(mut self, chunk: usize) -> BatchScorer {
        assert!(chunk >= 1, "chunk must be >= 1");
        self.chunk = chunk;
        self
    }

    /// Decision values ⟨āₙ, β⟩ for every row of the batch.
    pub fn decisions(&self, rows: &CsrMatrix, beta: &[f32]) -> Result<Vec<f32>, ServeError> {
        let mut out = Vec::new();
        self.decisions_into(rows, beta, &mut out)?;
        Ok(out)
    }

    /// [`Self::decisions`] into a caller-owned buffer: once `out` has
    /// grown to the batch size, repeated scoring allocates nothing.
    pub fn decisions_into(
        &self,
        rows: &CsrMatrix,
        beta: &[f32],
        out: &mut Vec<f32>,
    ) -> Result<(), ServeError> {
        if rows.cols() > beta.len() {
            return Err(ServeError::FeatureMismatch {
                model: beta.len(),
                data: rows.cols(),
            });
        }
        let n = rows.rows();
        out.clear();
        out.resize(n, 0.0);
        // Disjoint per-chunk output windows through a raw pointer (the
        // same pattern as the SySCD merge): chunked ranges never overlap,
        // so each task owns its slice of `out`.
        let ptr = OutPtr(out.as_mut_ptr());
        self.sched
            .parallel_for_chunked(n, self.chunk, usize::MAX, &|range| {
                let slot = unsafe { ptr.chunk(range.start, range.len()) };
                for (i, row_idx) in range.enumerate() {
                    slot[i] = rows.row(row_idx).dot_dense(beta) as f32;
                }
            });
        Ok(())
    }

    /// Decisions plus predictions under the objective's decision rule.
    pub fn score(
        &self,
        rows: &CsrMatrix,
        objective: ObjectiveKind,
        beta: &[f32],
    ) -> Result<Scored, ServeError> {
        let mut scored = Scored::default();
        self.score_into(rows, objective, beta, &mut scored)?;
        Ok(scored)
    }

    /// [`Self::score`] into a caller-owned [`Scored`], reusing both of
    /// its vectors.
    pub fn score_into(
        &self,
        rows: &CsrMatrix,
        objective: ObjectiveKind,
        beta: &[f32],
        scored: &mut Scored,
    ) -> Result<(), ServeError> {
        self.decisions_into(rows, beta, &mut scored.decisions)?;
        scored.predictions.clear();
        scored
            .predictions
            .extend(scored.decisions.iter().map(|&d| prediction(objective, d)));
        Ok(())
    }
}

/// Assemble a CSR batch from sparse `(index, value)` rows, validating
/// indices against the model's feature space. Rows may be empty (they
/// score 0) and pairs may arrive in any order; duplicate indices within
/// a row are summed (CSR wants strictly increasing columns), indices
/// beyond `features` and non-finite values are rejected.
pub fn batch_from_pairs(
    rows: &[Vec<(u32, f32)>],
    features: usize,
) -> Result<CsrMatrix, ServeError> {
    let mut offsets = Vec::with_capacity(rows.len() + 1);
    let mut indices = Vec::new();
    let mut values = Vec::new();
    offsets.push(0usize);
    for (r, row) in rows.iter().enumerate() {
        let mut pairs = Vec::with_capacity(row.len());
        for &(idx, val) in row {
            if idx as usize >= features {
                return Err(ServeError::BadRequest(format!(
                    "row {r}: feature index {idx} out of range (model has {features})"
                )));
            }
            if !val.is_finite() {
                return Err(ServeError::BadRequest(format!(
                    "row {r}: non-finite value at feature {idx}"
                )));
            }
            pairs.push((idx, val));
        }
        pairs.sort_by_key(|&(idx, _)| idx);
        for (idx, val) in pairs {
            if indices.last() == Some(&idx) && *offsets.last().unwrap() < indices.len() {
                *values.last_mut().unwrap() += val;
            } else {
                indices.push(idx);
                values.push(val);
            }
        }
        offsets.push(indices.len());
    }
    CsrMatrix::from_raw(rows.len(), features, offsets, indices, values)
        .map_err(|e| ServeError::BadRequest(format!("bad batch: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use scd_sched::global;

    fn batch() -> CsrMatrix {
        batch_from_pairs(
            &[
                vec![(0, 1.0), (2, 2.0)],
                vec![],
                vec![(1, -1.0)],
                vec![(0, 0.5), (1, 0.5), (2, 0.5)],
            ],
            3,
        )
        .unwrap()
    }

    #[test]
    fn decisions_match_serial_dot() {
        let beta = [1.0f32, 2.0, -0.5];
        let rows = batch();
        let scorer = BatchScorer::new(global()).with_chunk(2);
        let got = scorer.decisions(&rows, &beta).unwrap();
        for (i, &d) in got.iter().enumerate() {
            let want = rows.row(i).dot_dense(&beta) as f32;
            assert_eq!(d.to_bits(), want.to_bits(), "row {i}");
        }
        assert_eq!(got[1], 0.0, "empty row scores zero");
    }

    #[test]
    fn predictions_follow_the_objective_rule() {
        let beta = [1.0f32, 2.0, -0.5];
        let rows = batch();
        let scorer = BatchScorer::new(global());
        let ridge = scorer.score(&rows, ObjectiveKind::Ridge, &beta).unwrap();
        assert_eq!(ridge.predictions, ridge.decisions);
        let svm = scorer.score(&rows, ObjectiveKind::Svm, &beta).unwrap();
        for (&p, &d) in svm.predictions.iter().zip(&svm.decisions) {
            assert_eq!(p, if d >= 0.0 { 1.0 } else { -1.0 });
        }
        let logistic = scorer.score(&rows, ObjectiveKind::Logistic, &beta).unwrap();
        for (&p, &d) in logistic.predictions.iter().zip(&logistic.decisions) {
            assert!(p > 0.0 && p < 1.0);
            assert_eq!(p >= 0.5, d >= 0.0, "sigmoid preserves the sign rule");
        }
        // σ(0) = 0.5 exactly.
        assert_eq!(prediction(ObjectiveKind::Logistic, 0.0), 0.5);
    }

    #[test]
    fn feature_mismatch_is_an_error_not_a_panic() {
        let rows = batch();
        let scorer = BatchScorer::new(global());
        let err = scorer.decisions(&rows, &[1.0, 2.0]).unwrap_err();
        assert!(err.to_string().contains("model has 2 features"), "{err}");
    }

    #[test]
    fn bad_rows_are_rejected_with_row_numbers() {
        let err = batch_from_pairs(&[vec![(5, 1.0)]], 3).unwrap_err();
        assert!(err.to_string().contains("row 0"), "{err}");
        assert!(err.to_string().contains("out of range"), "{err}");
        let err = batch_from_pairs(&[vec![], vec![(0, f32::NAN)]], 3).unwrap_err();
        assert!(err.to_string().contains("row 1"), "{err}");
        assert!(err.to_string().contains("non-finite"), "{err}");
    }

    #[test]
    fn unsorted_and_duplicate_pairs_are_normalized() {
        // [ (2,1), (0,3), (2,2) ] ≡ column 0 → 3, column 2 → 3.
        let rows = batch_from_pairs(&[vec![(2, 1.0), (0, 3.0), (2, 2.0)]], 3).unwrap();
        let beta = [1.0f32, 100.0, 10.0];
        let scorer = BatchScorer::new(global());
        assert_eq!(scorer.decisions(&rows, &beta).unwrap(), vec![33.0]);
        // A duplicate in row 1 must not merge into row 0's last entry.
        let rows = batch_from_pairs(&[vec![(2, 1.0)], vec![(2, 5.0)]], 3).unwrap();
        assert_eq!(scorer.decisions(&rows, &beta).unwrap(), vec![10.0, 50.0]);
    }

    #[test]
    fn wide_model_accepts_narrow_batch() {
        // The model may have more features than the request mentions.
        let rows = batch_from_pairs(&[vec![(0, 2.0)]], 1).unwrap();
        let scorer = BatchScorer::new(global());
        let got = scorer.decisions(&rows, &[3.0, 9.9, 9.9]).unwrap();
        assert_eq!(got, vec![6.0]);
    }
}
