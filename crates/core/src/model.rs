//! Trained-model persistence and prediction.
//!
//! The solvers produce weight vectors; this module packages them with their
//! provenance (objective, formulation, λ, dimensions) so a model trained by
//! any engine can be saved, reloaded, and used for inference. The on-disk
//! format is a self-describing text file — one header line, one weight per
//! line, a trailing FNV-1a checksum — trivially diffable and versioned by a
//! magic string.
//!
//! Format history:
//! * `v1` — `form`/`lambda`/`features` header, no objective (implicitly
//!   ridge), no checksum. Still loadable.
//! * `v2` — adds `objective=<label>` to the header and a final
//!   `checksum=fnv1a64:<16 hex>` line over every preceding byte (the same
//!   FNV-1a the dataset store uses), so truncation and bit rot fail loudly
//!   instead of scoring garbage. An elastic-net model also records its
//!   mix as `l1_ratio=<ρ>`.

use crate::objective::ObjectiveKind;
use crate::problem::{Form, RidgeProblem};
use scd_sparse::CsrMatrix;
use scd_store::fnv1a64;
use std::io::{Read, Write};

/// Current format magic + version.
const MAGIC_V2: &str = "tpa-scd-model v2";
/// Legacy (pre-objective, pre-checksum) magic, accepted on load.
const MAGIC_V1: &str = "tpa-scd-model v1";

/// A trained linear model with its provenance.
///
/// ```
/// use scd_core::{RidgeProblem, SequentialScd, Solver, TrainedModel};
/// use scd_datasets::{scale_values, webspam_like};
/// let data = scale_values(&webspam_like(60, 40, 6, 1), 0.3);
/// let problem = RidgeProblem::from_labelled(&data, 1e-2).unwrap();
/// let mut solver = SequentialScd::primal(&problem, 1);
/// for _ in 0..30 { solver.epoch(&problem); }
///
/// let model = TrainedModel::from_primal(&problem, solver.weights());
/// let mut bytes = Vec::new();
/// model.save(&mut bytes).unwrap();
/// let back = TrainedModel::load(bytes.as_slice()).unwrap();
/// assert_eq!(back, model);
/// assert!(back.accuracy(problem.csr(), problem.labels()) > 0.9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TrainedModel {
    /// The objective the model was trained for (decides the prediction
    /// rule a consumer should apply to the scores).
    pub objective: ObjectiveKind,
    /// Which formulation produced the weights.
    pub form: Form,
    /// The regularizer the model was trained with.
    pub lambda: f64,
    /// Primal weights β (length = features). Dual solutions are converted
    /// through the objective's optimality mapping at construction, so
    /// inference is always ⟨ā, β⟩.
    pub beta: Vec<f32>,
}

/// Errors raised while loading a model file.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// The file does not start with a known magic/version line.
    BadMagic(String),
    /// The header line is malformed.
    BadHeader(String),
    /// The header names an objective this build does not know.
    UnknownObjective(String),
    /// A weight line failed to parse.
    BadWeight {
        /// 1-based line number.
        line: usize,
        /// The offending token.
        token: String,
    },
    /// Fewer/more weights than the header declared.
    WrongCount {
        /// Declared in the header.
        declared: usize,
        /// Actually present.
        found: usize,
    },
    /// The trailing checksum line is malformed or absent (v2 files).
    MissingChecksum,
    /// The stored checksum does not match the file contents.
    BadChecksum {
        /// Hash recorded in the file.
        stored: u64,
        /// Hash of the bytes actually read.
        computed: u64,
    },
    /// Underlying I/O failure.
    Io(String),
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::BadMagic(got) => {
                write!(f, "not a tpa-scd model file (first line {got:?})")
            }
            ModelError::BadHeader(line) => write!(f, "malformed model header {line:?}"),
            ModelError::UnknownObjective(name) => {
                write!(f, "model trained for unknown objective {name:?}")
            }
            ModelError::BadWeight { line, token } => {
                write!(f, "bad weight {token:?} on line {line}")
            }
            ModelError::WrongCount { declared, found } => {
                write!(f, "header declares {declared} weights, file has {found}")
            }
            ModelError::MissingChecksum => {
                write!(f, "v2 model file is missing its trailing checksum line")
            }
            ModelError::BadChecksum { stored, computed } => write!(
                f,
                "model file corrupt: checksum {stored:016x} recorded, contents hash to {computed:016x}"
            ),
            ModelError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for ModelError {}

impl TrainedModel {
    /// Package the weights a solver produced for any objective/form pair,
    /// converting dual iterates through the objective's optimality
    /// mapping (β = w̄/λ for ridge, β = w̄/λN for the SDCA duals).
    pub fn from_weights(
        problem: &RidgeProblem,
        objective: ObjectiveKind,
        form: Form,
        weights: Vec<f32>,
    ) -> Self {
        let beta = match form {
            Form::Primal => {
                assert_eq!(weights.len(), problem.m(), "beta length must be M");
                weights
            }
            Form::Dual => {
                assert_eq!(weights.len(), problem.n(), "alpha length must be N");
                objective.induced_primal(problem, &weights)
            }
        };
        TrainedModel {
            objective,
            form,
            lambda: problem.lambda(),
            beta,
        }
    }

    /// Package ridge primal weights.
    pub fn from_primal(problem: &RidgeProblem, beta: Vec<f32>) -> Self {
        Self::from_weights(problem, ObjectiveKind::Ridge, Form::Primal, beta)
    }

    /// Package a ridge dual solution, converting α → β through Eq. 5
    /// (β = Aᵀα / λ).
    pub fn from_dual(problem: &RidgeProblem, alpha: &[f32]) -> Self {
        Self::from_weights(problem, ObjectiveKind::Ridge, Form::Dual, alpha.to_vec())
    }

    /// Number of features the model scores.
    pub fn features(&self) -> usize {
        self.beta.len()
    }

    /// Raw scores ⟨āₙ, β⟩ for every row of a design matrix.
    ///
    /// # Panics
    /// Panics if the matrix width differs from the model's feature count.
    pub fn scores(&self, data: &CsrMatrix) -> Vec<f32> {
        assert_eq!(
            data.cols(),
            self.features(),
            "feature-space mismatch: model {} vs data {}",
            self.features(),
            data.cols()
        );
        data.matvec(&self.beta).expect("checked width")
    }

    /// ±1 classification by the sign of the score.
    pub fn classify(&self, data: &CsrMatrix) -> Vec<f32> {
        self.scores(data)
            .into_iter()
            .map(|s| if s >= 0.0 { 1.0 } else { -1.0 })
            .collect()
    }

    /// Classification accuracy against ±1 labels.
    pub fn accuracy(&self, data: &CsrMatrix, labels: &[f32]) -> f64 {
        let preds = self.classify(data);
        let correct = preds
            .iter()
            .zip(labels)
            .filter(|(&p, &y)| p == y)
            .count();
        correct as f64 / labels.len().max(1) as f64
    }

    /// Mean squared error of the raw scores against real-valued labels.
    pub fn mse(&self, data: &CsrMatrix, labels: &[f32]) -> f64 {
        let scores = self.scores(data);
        let sse: f64 = scores
            .iter()
            .zip(labels)
            .map(|(&s, &y)| {
                let d = s as f64 - y as f64;
                d * d
            })
            .sum();
        sse / labels.len().max(1) as f64
    }

    /// Serialize to the current (v2, checksummed) text format.
    pub fn save<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        let mut body = String::new();
        body.push_str(MAGIC_V2);
        body.push('\n');
        body.push_str(&format!("objective={}", self.objective.label()));
        if let ObjectiveKind::ElasticNet { l1_ratio } = self.objective {
            body.push_str(&format!(" l1_ratio={l1_ratio}"));
        }
        body.push_str(&format!(
            " form={} lambda={} features={}\n",
            self.form.label(),
            self.lambda,
            self.features()
        ));
        for &b in &self.beta {
            body.push_str(&format!("{b}\n"));
        }
        let checksum = fnv1a64(body.as_bytes());
        w.write_all(body.as_bytes())?;
        writeln!(w, "checksum=fnv1a64:{checksum:016x}")
    }

    /// Parse either format version; v2 files must checksum-verify.
    pub fn load<R: Read>(mut r: R) -> Result<Self, ModelError> {
        let mut text = String::new();
        r.read_to_string(&mut text)
            .map_err(|e| ModelError::Io(e.to_string()))?;
        let mut lines = text.lines();
        let magic = lines.next().unwrap_or("<empty file>");
        let v2 = match magic {
            MAGIC_V2 => true,
            MAGIC_V1 => false,
            other => return Err(ModelError::BadMagic(other.to_string())),
        };
        let header = lines.next().ok_or(ModelError::BadHeader("<missing>".into()))?;

        let mut rest: Vec<&str> = lines.collect();
        if v2 {
            // Pop and verify the trailing checksum line before trusting
            // anything else in the file.
            let tail = loop {
                match rest.pop() {
                    Some(line) if line.trim().is_empty() => continue,
                    Some(line) => break line,
                    None => return Err(ModelError::MissingChecksum),
                }
            };
            let stored = tail
                .strip_prefix("checksum=fnv1a64:")
                .and_then(|hex| u64::from_str_radix(hex.trim(), 16).ok())
                .ok_or(ModelError::MissingChecksum)?;
            let body_len = text
                .rfind(tail)
                .expect("tail line came from text");
            let computed = fnv1a64(&text.as_bytes()[..body_len]);
            if stored != computed {
                return Err(ModelError::BadChecksum { stored, computed });
            }
        }

        let mut objective = None;
        let mut form = None;
        let mut lambda = None;
        let mut features = None;
        let mut l1_ratio = None;
        for token in header.split_ascii_whitespace() {
            match token.split_once('=') {
                Some(("objective", name)) => {
                    objective = Some(
                        ObjectiveKind::parse(name)
                            .map_err(|_| ModelError::UnknownObjective(name.to_string()))?,
                    )
                }
                Some(("form", "primal")) => form = Some(Form::Primal),
                Some(("form", "dual")) => form = Some(Form::Dual),
                Some(("lambda", v)) => lambda = v.parse::<f64>().ok(),
                Some(("features", v)) => features = v.parse::<usize>().ok(),
                Some(("l1_ratio", v)) => {
                    l1_ratio = v.parse::<f64>().ok().filter(|r| (0.0..=1.0).contains(r));
                    if l1_ratio.is_none() {
                        return Err(ModelError::BadHeader(header.to_string()));
                    }
                }
                _ => return Err(ModelError::BadHeader(header.to_string())),
            }
        }
        // v1 files predate the objective layer: everything was ridge.
        let objective = match (objective, v2) {
            (Some(o), _) => o,
            (None, false) => ObjectiveKind::Ridge,
            (None, true) => return Err(ModelError::BadHeader(header.to_string())),
        };
        // The mix belongs to the elastic net and to nothing else.
        let objective = match (objective, l1_ratio) {
            (ObjectiveKind::ElasticNet { .. }, Some(l1_ratio)) => {
                ObjectiveKind::ElasticNet { l1_ratio }
            }
            (ObjectiveKind::ElasticNet { .. }, None) | (_, Some(_)) => {
                return Err(ModelError::BadHeader(header.to_string()))
            }
            (other, None) => other,
        };
        let (form, lambda, features) = match (form, lambda, features) {
            (Some(f), Some(l), Some(m)) => (f, l, m),
            _ => return Err(ModelError::BadHeader(header.to_string())),
        };
        let mut beta = Vec::with_capacity(features);
        for (i, line) in rest.into_iter().enumerate() {
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            let v: f32 = trimmed.parse().map_err(|_| ModelError::BadWeight {
                line: i + 3,
                token: trimmed.to_string(),
            })?;
            beta.push(v);
        }
        if beta.len() != features {
            return Err(ModelError::WrongCount {
                declared: features,
                found: beta.len(),
            });
        }
        Ok(TrainedModel {
            objective,
            form,
            lambda,
            beta,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::SequentialScd;
    use crate::solver::Solver;
    use scd_datasets::{scale_values, webspam_like};

    fn trained() -> (RidgeProblem, TrainedModel) {
        let data = scale_values(&webspam_like(120, 90, 10, 17), 0.3);
        let p = RidgeProblem::from_labelled(&data, 1e-2).unwrap();
        let mut s = SequentialScd::primal(&p, 1);
        for _ in 0..40 {
            s.epoch(&p);
        }
        let model = TrainedModel::from_primal(&p, s.weights());
        (p, model)
    }

    #[test]
    fn save_load_roundtrip_is_exact() {
        let (_, model) = trained();
        let mut buf = Vec::new();
        model.save(&mut buf).unwrap();
        let back = TrainedModel::load(buf.as_slice()).unwrap();
        assert_eq!(back, model);
        assert_eq!(back.objective, ObjectiveKind::Ridge);
    }

    #[test]
    fn every_objective_roundtrips_with_its_label() {
        let data = scale_values(&webspam_like(50, 30, 6, 9), 0.3);
        let p = RidgeProblem::from_labelled(&data, 1e-2).unwrap();
        let off_default_mix = ObjectiveKind::ElasticNet { l1_ratio: 0.125 };
        for kind in ObjectiveKind::ALL.into_iter().chain([off_default_mix]) {
            let form = kind.default_form();
            let mut solver = match form {
                Form::Primal => SequentialScd::primal(&p, 3),
                Form::Dual => SequentialScd::dual(&p, 3),
            }
            .with_objective(kind);
            for _ in 0..5 {
                solver.epoch(&p);
            }
            let model = TrainedModel::from_weights(&p, kind, form, solver.weights());
            assert_eq!(model.features(), p.m(), "{kind}: always primal width");
            let mut buf = Vec::new();
            model.save(&mut buf).unwrap();
            let text = String::from_utf8(buf.clone()).unwrap();
            assert!(text.contains(&format!("objective={kind}")), "{text}");
            let back = TrainedModel::load(buf.as_slice()).unwrap();
            assert_eq!(back, model, "{kind}");
        }
    }

    #[test]
    fn v1_files_still_load_as_ridge() {
        let (_, model) = trained();
        let mut v1 = format!(
            "tpa-scd-model v1\nform={} lambda={} features={}\n",
            model.form.label(),
            model.lambda,
            model.features()
        );
        for &b in &model.beta {
            v1.push_str(&format!("{b}\n"));
        }
        let back = TrainedModel::load(v1.as_bytes()).unwrap();
        assert_eq!(back, model);
    }

    #[test]
    fn predictions_fit_training_data() {
        let (p, model) = trained();
        let acc = model.accuracy(p.csr(), p.labels());
        assert!(acc > 0.95, "training accuracy {acc}");
        let mse = model.mse(p.csr(), p.labels());
        assert!(mse < 0.5, "training MSE {mse}");
    }

    #[test]
    fn dual_solutions_convert_through_eq5() {
        let data = scale_values(&webspam_like(100, 80, 10, 23), 0.3);
        let p = RidgeProblem::from_labelled(&data, 1e-2).unwrap();
        let mut primal = SequentialScd::primal(&p, 2);
        let mut dual = SequentialScd::dual(&p, 2);
        for _ in 0..80 {
            primal.epoch(&p);
            dual.epoch(&p);
        }
        let mp = TrainedModel::from_primal(&p, primal.weights());
        let md = TrainedModel::from_dual(&p, &dual.weights());
        for (a, b) in mp.beta.iter().zip(&md.beta) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
        assert_eq!(md.form, Form::Dual);
    }

    #[test]
    fn load_rejects_corruption() {
        let (_, model) = trained();
        let mut buf = Vec::new();
        model.save(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();

        // Wrong magic.
        let bad = text.replacen("tpa-scd-model v2", "something else", 1);
        assert!(matches!(
            TrainedModel::load(bad.as_bytes()),
            Err(ModelError::BadMagic(_))
        ));
        // Any flipped byte in the payload trips the checksum first.
        let bad = text.replacen(&model.beta[0].to_string(), "not-a-number", 1);
        assert!(matches!(
            TrainedModel::load(bad.as_bytes()),
            Err(ModelError::BadChecksum { .. })
        ));
        // Truncation loses the checksum line entirely.
        let truncated: String = text.lines().take(10).collect::<Vec<_>>().join("\n");
        assert!(matches!(
            TrainedModel::load(truncated.as_bytes()),
            Err(ModelError::MissingChecksum)
        ));
        // Broken header (checksum recomputed so it parses past verify).
        let bad = body_with(&text, |body| body.replacen("form=primal", "shape=weird", 1));
        assert!(matches!(
            TrainedModel::load(bad.as_bytes()),
            Err(ModelError::BadHeader(_))
        ));
        // Unknown objective name.
        let bad = body_with(&text, |body| {
            body.replacen("objective=ridge", "objective=huber", 1)
        });
        assert!(matches!(
            TrainedModel::load(bad.as_bytes()),
            Err(ModelError::UnknownObjective(_))
        ));
        // The elastic-net mix on a model that has none, and out of range.
        let bad = body_with(&text, |body| {
            body.replacen("objective=ridge", "objective=ridge l1_ratio=0.5", 1)
        });
        assert!(matches!(
            TrainedModel::load(bad.as_bytes()),
            Err(ModelError::BadHeader(_))
        ));
        for mix in ["", " l1_ratio=1.5", " l1_ratio=nan"] {
            let bad = body_with(&text, |body| {
                body.replacen("objective=ridge", &format!("objective=elastic-net{mix}"), 1)
            });
            assert!(
                matches!(TrainedModel::load(bad.as_bytes()), Err(ModelError::BadHeader(_))),
                "{mix:?}"
            );
        }
        // Wrong weight count.
        let bad = body_with(&text, |body| body.replacen("features=90", "features=91", 1));
        assert!(matches!(
            TrainedModel::load(bad.as_bytes()),
            Err(ModelError::WrongCount { declared: 91, .. })
        ));
    }

    /// Apply `edit` to the body of a saved file and re-checksum, so the
    /// edited file exercises the post-checksum validation paths.
    fn body_with(text: &str, edit: impl Fn(&str) -> String) -> String {
        let body_end = text.rfind("checksum=").unwrap();
        let body = edit(&text[..body_end]);
        format!("{body}checksum=fnv1a64:{:016x}\n", fnv1a64(body.as_bytes()))
    }

    #[test]
    #[should_panic(expected = "feature-space mismatch")]
    fn width_mismatch_panics() {
        let (_, model) = trained();
        let other = scale_values(&webspam_like(10, 20, 3, 1), 0.3);
        let _ = model.scores(&other.matrix.to_csr());
    }

    #[test]
    fn error_messages_name_the_problem() {
        assert!(ModelError::BadMagic("x".into()).to_string().contains("not a tpa-scd"));
        assert!(ModelError::WrongCount {
            declared: 5,
            found: 3
        }
        .to_string()
        .contains("declares 5"));
        let msg = ModelError::BadChecksum {
            stored: 0xdead,
            computed: 0xbeef,
        }
        .to_string();
        assert!(msg.contains("000000000000dead") && msg.contains("000000000000beef"), "{msg}");
        assert!(ModelError::UnknownObjective("huber".into())
            .to_string()
            .contains("huber"));
        for e in [
            ModelError::MissingChecksum,
            ModelError::BadHeader("h".into()),
            ModelError::Io("boom".into()),
            ModelError::BadWeight { line: 4, token: "z".into() },
        ] {
            assert!(!e.to_string().contains('\n'));
        }
    }
}
