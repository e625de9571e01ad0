//! Shared protocol for the figure-reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper (see `DESIGN.md` §4 for the index). They share the evaluation
//! protocol of §V: Next is trained once per application on a dedicated
//! training device, switched to greedy inference, and then measured on
//! sessions seeded identically across governors at 21 °C ambient.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod day;
pub mod fleet;
pub mod json;
pub mod perf;
pub mod report;
pub mod stopwatch;

use next_core::{NextAgent, NextConfig};
use simkit::experiment::{train_next_for_app, TrainOutcome};
use simkit::sweep::{self, StandardEvaluator, SweepCell, SweepRow};
use simkit::Summary;
use workload::apps;
use workload::SessionPlan;

/// Seed used for every measured session, so all governors see the same
/// user behaviour.
pub const EVAL_SEED: u64 = 1000;

/// Seed used for training sessions (the sweep engine's protocol seed).
pub const TRAIN_SEED: u64 = StandardEvaluator::TRAIN_SEED;

/// The six applications of Figs. 7 and 8, in the paper's order.
pub const PAPER_APPS: [&str; 6] = [
    "facebook",
    "lineage",
    "pubg",
    "spotify",
    "web-browser",
    "youtube",
];

/// Training budget per application, simulated seconds — the sweep
/// engine's §V protocol (games get twice the base budget).
#[must_use]
pub fn train_budget_s(app: &str) -> f64 {
    StandardEvaluator::train_budget_for(StandardEvaluator::BASE_TRAIN_BUDGET_S, app)
}

/// Trains a fresh Next agent on `app` with the standard protocol and
/// returns it in greedy-inference mode together with the training
/// telemetry.
#[must_use]
pub fn trained_next(app: &str) -> TrainOutcome {
    train_next_for_app(app, NextConfig::paper(), TRAIN_SEED, train_budget_s(app))
}

/// Trains a fresh Next agent on an arbitrary session plan (used for the
/// mixed home→Facebook→Spotify session of Figs. 1 and 3).
#[must_use]
pub fn trained_next_on_plan(plan: &SessionPlan, budget_s: f64) -> NextAgent {
    use simkit::{Engine, RunOutcome, Trace};
    let engine = Engine::new();
    let mut agent = NextAgent::new(NextConfig::paper());
    let mut soc = mpsoc::Soc::new(mpsoc::SocConfig::exynos9810());
    let mut spent = 0.0;
    let mut round = 0u64;
    let mut outcome = RunOutcome {
        trace: Trace::new(),
        presented_frames: 0,
        repeated_vsyncs: 0,
    };
    while spent < budget_s && !agent.is_converged() {
        let mut session = workload::SessionSim::new(plan.clone(), TRAIN_SEED.wrapping_add(round));
        agent.start_session();
        let chunk = plan.total_duration_s();
        engine.run_into(&mut soc, &mut agent, &mut session, chunk, &mut outcome);
        spent += chunk;
        round += 1;
    }
    agent.set_training(false);
    agent
}

/// The per-app session plan of §V (games 5 min, other apps 2.5 min).
#[must_use]
pub fn paper_plan(app: &str) -> SessionPlan {
    SessionPlan::single(app, SessionPlan::paper_session_length_s(app))
}

/// Default worker count for the parallel figure grids: every core.
#[must_use]
pub fn default_workers() -> usize {
    sweep::default_workers()
}

/// A finished §V measurement grid plus the evaluator that ran it (which
/// keeps the per-app training telemetry for the figure footers).
#[derive(Debug)]
pub struct EvalGrid {
    /// One row per measured (app, governor) cell, in cell order.
    pub rows: Vec<SweepRow>,
    /// The evaluator, holding trained tables and training telemetry.
    pub evaluator: StandardEvaluator,
}

impl EvalGrid {
    /// The summary measured for `(app, governor)`, if that cell ran.
    #[must_use]
    pub fn summary(&self, app: &str, governor: &str) -> Option<&Summary> {
        self.rows
            .iter()
            .find(|r| r.cell.app == app && r.cell.governor == governor)
            .map(|r| &r.summary)
    }
}

/// Runs the §V measurement grid for the figure binaries in parallel:
/// every paper app under each of `governors` at [`EVAL_SEED`] and the
/// paper's session lengths, with Next trained once per app at exactly
/// [`train_budget_s`]. `intqos` cells are restricted to the two games,
/// as in the paper.
#[must_use]
pub fn eval_grid(governors: &[&str]) -> EvalGrid {
    let mut cells = Vec::new();
    for app in PAPER_APPS {
        for &governor in governors {
            if governor == "intqos" && !apps::is_game(app) {
                continue;
            }
            cells.push(SweepCell {
                app: app.to_owned(),
                governor: governor.to_owned(),
                seed: EVAL_SEED,
                duration_s: SessionPlan::paper_session_length_s(app),
            });
        }
    }
    let workers = default_workers();
    let evaluator =
        StandardEvaluator::prepare(&cells, StandardEvaluator::BASE_TRAIN_BUDGET_S, workers);
    let rows = sweep::run_cells(&cells, workers, |cell| evaluator.eval(cell));
    EvalGrid { rows, evaluator }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_follow_app_class() {
        assert!(train_budget_s("pubg") > train_budget_s("facebook"));
    }

    #[test]
    fn paper_apps_all_resolve() {
        for app in PAPER_APPS {
            assert!(apps::by_name(app).is_some(), "unknown app {app}");
            assert!(paper_plan(app).total_duration_s() > 0.0);
        }
    }
}
