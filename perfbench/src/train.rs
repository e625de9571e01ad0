//! The traced form of `StandardEvaluator::train_for_apps`: the same
//! per-app `Trainer::train` jobs on `parallel_map`, one timer each.

use std::collections::BTreeMap;

use qlearn::DenseQTable;
use simkit::sweep::{parallel_map, StandardEvaluator};
use simkit::{PlatformPreset, TrainSpec, Trainer};

use crate::stats::{median, timed};
use crate::Outcome;

/// Trains one Next table per app exactly as `train_for_apps` does and
/// records `simkit.trainer.*` and `core.agent.updates`.
pub fn train_apps(
    apps: &[String],
    base_budget_s: f64,
    preset: &PlatformPreset,
    workers: usize,
    out: &mut Outcome,
) -> BTreeMap<String, DenseQTable> {
    let trained = parallel_map(apps, workers, |app| {
        let spec = TrainSpec::new(
            app,
            preset.next.clone(),
            StandardEvaluator::TRAIN_SEED,
            StandardEvaluator::train_budget_for(base_budget_s, app),
        )
        .with_soc(preset.soc.clone());
        timed(|| Trainer::new().train(spec))
    });
    let times: Vec<f64> = trained.iter().map(|(_, s)| *s).collect();
    if !times.is_empty() {
        out.set("simkit.trainer.train_s", median(&times));
    }
    let converged = trained.iter().filter(|(o, _)| o.converged).count();
    let updates: u64 = trained.iter().map(|(o, _)| o.agent.stats().updates).sum();
    *out.metrics.entry("simkit.trainer.converged").or_insert(0.0) += converged as f64;
    *out.metrics.entry("core.agent.updates").or_insert(0.0) += updates as f64;
    apps.iter()
        .cloned()
        .zip(trained.into_iter().map(|(o, _)| o.agent.into_table()))
        .collect()
}
