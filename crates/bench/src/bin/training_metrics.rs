//! Regenerates **§IV-D's train-time evaluation** (E5): accuracy,
//! precision, recall and F1 of all three models on a held-out slice of
//! the training capture. The paper reports that "all models have
//! attained values across these evaluation metrics, with a small amount
//! of false positives and false negatives" — i.e. uniformly high
//! train-time metrics (the contrast with Table I is the point).

use bench::{banner, render_table, scale_from_env, seed_from_env};
use ddoshield::experiments::{paper_models, run_training_capture, train_ids};

fn main() {
    let scale = scale_from_env();
    let seed = seed_from_env();
    banner("§IV-D — train-time metrics (accuracy / precision / recall / F1)", &scale, seed);

    let capture = run_training_capture(seed, &scale);
    println!(
        "training capture: {} packets over {:.0}s\n",
        capture.len(),
        capture.duration_secs()
    );

    let mut rows = Vec::new();
    for kind in paper_models(&scale) {
        let outcome = train_ids(&capture, &kind, seed, &scale);
        let m = outcome.holdout_metrics;
        rows.push(vec![
            kind.name().to_string(),
            format!("{:.4}", m.accuracy),
            format!("{:.4}", m.precision),
            format!("{:.4}", m.recall),
            format!("{:.4}", m.f1),
            outcome.train_samples.to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(&["Model", "Accuracy", "Precision", "Recall", "F1", "Train samples"], &rows)
    );
    println!("expected shape: all three models score high on in-distribution holdout data.");
}
