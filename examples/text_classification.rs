//! Web-spam filtering, the paper's motivating workload: train on a
//! webspam-shaped corpus with a 75/25 train/test split (the paper's own
//! protocol for the webspam sample) and compare ridge regression against
//! the hinge-loss SVM objective, both trained by the same engine.
//!
//! ```sh
//! cargo run --release --example text_classification
//! ```

use tpa_scd::core::{Form, ObjectiveKind, RidgeProblem, SequentialScd, Solver, TrainedModel};
use tpa_scd::datasets::{train_test_split, webspam_like, DatasetStats};
use tpa_scd::sparse::io::LabelledData;

/// Classification accuracy of sign(⟨a, β⟩) on a labelled set.
fn accuracy(beta: &[f32], data: &LabelledData) -> f64 {
    let csr = data.matrix.to_csr();
    let mut correct = 0usize;
    for (i, row) in csr.iter_rows().enumerate() {
        let score = row.dot_dense(beta);
        let pred = if score >= 0.0 { 1.0 } else { -1.0 };
        if pred == data.labels[i] as f64 {
            correct += 1;
        }
    }
    correct as f64 / data.labels.len() as f64
}

fn main() {
    // The corpus: documents over a skewed vocabulary, spam labels from a
    // sparse ground truth with 10% label noise.
    let corpus = webspam_like(1_200, 2_000, 40, 2024);
    let (train, test) = train_test_split(&corpus, 0.75, 11);
    println!("train: {}", DatasetStats::of(&train));
    println!("test:  {}", DatasetStats::of(&test));

    // Ridge regression on ±1 labels (the paper's setup for webspam).
    let ridge_problem = RidgeProblem::from_labelled(&train, 1e-3).expect("valid problem");
    let mut ridge = SequentialScd::primal(&ridge_problem, 1);
    for _ in 0..40 {
        ridge.epoch(&ridge_problem);
    }
    let ridge_beta = ridge.weights();
    println!(
        "\nridge (primal SCD, 40 epochs): duality gap {:.1e}",
        ridge.duality_gap(&ridge_problem)
    );
    println!(
        "  train accuracy {:.1}%, test accuracy {:.1}%",
        100.0 * accuracy(&ridge_beta, &train),
        100.0 * accuracy(&ridge_beta, &test)
    );

    // Hinge-loss SVM by stochastic dual coordinate ascent — one of the
    // "other problems" the paper says these methods solve (§I).
    let svm_problem = RidgeProblem::from_labelled(&train, 1e-2).expect("valid problem");
    let mut svm = SequentialScd::dual(&svm_problem, 1).with_objective(ObjectiveKind::Svm);
    for _ in 0..40 {
        svm.epoch(&svm_problem);
    }
    println!(
        "\nSVM (SDCA, 40 epochs): duality gap {:.1e}",
        svm.duality_gap(&svm_problem)
    );
    // The dual iterate maps to primal weights through the objective's
    // optimality condition β = Aᵀα/λN.
    let svm_beta =
        TrainedModel::from_weights(&svm_problem, ObjectiveKind::Svm, Form::Dual, svm.weights())
            .beta;
    println!(
        "  train accuracy {:.1}%, test accuracy {:.1}%",
        100.0 * accuracy(&svm_beta, &train),
        100.0 * accuracy(&svm_beta, &test)
    );

    let test_acc = accuracy(&ridge_beta, &test);
    assert!(test_acc > 0.7, "spam filter should generalize, got {test_acc}");
}
