//! `sweep`: the §V session grid — the six paper apps × {schedutil,
//! intqos, next} × session seeds on the Exynos 9810 at paper session
//! lengths, through `StandardEvaluator` (train once per app, then
//! `eval` per cell).
//!
//! The only heavy user of the scalar `Soc` + `Engine::run` path, the
//! per-tick `Sample` recorder and greedy Q-table reads. No federated
//! work, no trace sinks, no checkpoints.

use std::collections::BTreeMap;

use governors::Governor;
use mpsoc::soc::Soc;
use next_core::NextAgent;
use qlearn::DenseQTable;
use simkit::sweep::{self, parallel_map, StandardEvaluator, SweepCell, SweepRow};
use simkit::{Battery, Engine, PlatformPreset, Sample, Summary, Trace};
use workload::scenario::splitmix64;
use workload::{SessionPlan, SessionSim};

use crate::stats::{self, catch, median, percentile, secs, timed, Digest, Ledger, Tally};
use crate::{finish_trace, measure_passes, repeat_setup, train, Outcome, Pass, Run};

/// Session seeds per (app, governor): 6 × 3 × 12 = 216 cells a pass,
/// about 0.6 s on two workers, so a run holds dozens of passes and
/// their median is not carried by a few seconds of host load. 216 is
/// also the smallest grid of whole seeds whose p95 cell latency keeps
/// ten cells beyond it.
const SESSION_SEEDS: u64 = 12;

const GOVERNORS: [&str; 3] = ["schedutil", "intqos", "next"];

/// The grid for a workload seed: session seeds split from it.
fn cells(seed: u64) -> Vec<SweepCell> {
    let seeds: Vec<u64> = (0..SESSION_SEEDS)
        .map(|i| splitmix64(seed ^ (i + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)))
        .collect();
    let apps: Vec<String> = bench::PAPER_APPS.iter().map(|&a| a.to_owned()).collect();
    let governors: Vec<String> = GOVERNORS.iter().map(|&g| g.to_owned()).collect();
    sweep::grid(&apps, &governors, &seeds, None)
}

/// Simulated seconds a cell advances: whole 25 ms engine ticks.
fn cell_sim_s(cell: &SweepCell) -> f64 {
    let engine = Engine::new();
    engine.ticks_for(cell.duration_s) as f64 * engine.tick_s()
}

/// Physical invariants a cell's summary must satisfy.
fn check_summary(tally: &mut Tally, cell: &SweepCell, s: &Summary, preset: &PlatformPreset) {
    let refresh = preset.soc.refresh_hz;
    let ambient = preset.soc.thermal.ambient_c;
    let drain_pct = Battery::note9().charges_used(s.energy_j) * 100.0;
    let temps = [s.avg_temp_hot_c, s.peak_temp_hot_c, s.peak_temp_device_c];
    let ok = s.avg_fps >= 0.0
        && s.avg_fps <= refresh
        && s.energy_j >= 0.0
        && s.avg_power_w >= 0.0
        && s.peak_power_w >= s.avg_power_w
        && temps.iter().all(|t| t.is_finite() && *t >= ambient)
        && (0.0..=100.0).contains(&drain_pct);
    tally.check(ok, || {
        format!(
            "sweep invariants broken on {}/{}/{}: {s:?}",
            cell.app, cell.governor, cell.seed
        )
    });
}

fn digest_rows(rows: &[SweepRow]) -> String {
    let mut d = Digest::default();
    for row in rows {
        let s = &row.summary;
        for v in [
            s.duration_s,
            s.avg_power_w,
            s.peak_power_w,
            s.avg_fps,
            s.fps_std,
            s.avg_temp_hot_c,
            s.peak_temp_hot_c,
            s.peak_temp_device_c,
            s.energy_j,
        ] {
            d.f64(v);
        }
    }
    d.hex()
}

/// Per-governor mean power and FPS, in plain form.
fn print_stats(rows: &[SweepRow]) {
    let mut by_gov: BTreeMap<&str, (f64, f64, usize)> = BTreeMap::new();
    for row in rows {
        let e = by_gov.entry(row.cell.governor.as_str()).or_default();
        e.0 += row.summary.avg_power_w;
        e.1 += row.summary.avg_fps;
        e.2 += 1;
    }
    for (gov, (power, fps, n)) in by_gov {
        println!(
            "stat sweep {gov}: mean power {:.6} W, mean fps {:.4} over {n} cells",
            power / n as f64,
            fps / n as f64
        );
    }
}

/// End-to-end run: set-up (Next training through
/// `StandardEvaluator::prepare`) then grid passes until the time is up.
pub fn measure(run: &Run) -> Result<Outcome, String> {
    let cells = cells(run.seed);
    let preset = PlatformPreset::exynos9810();
    let (evaluator, setup) = repeat_setup(|| {
        StandardEvaluator::prepare(&cells, StandardEvaluator::BASE_TRAIN_BUDGET_S, run.workers)
    });
    println!(
        "info sweep: {} cells a pass ({} apps x {} governors x {SESSION_SEEDS} seeds), {} set-ups, median {:.6} s",
        cells.len(),
        bench::PAPER_APPS.len(),
        GOVERNORS.len(),
        setup.len(),
        median(&setup)
    );
    let sim_s: f64 = cells.iter().map(cell_sim_s).sum();
    measure_passes(run, "sweep", &setup, |tally, first| {
        let pass = catch(|| {
            timed(|| {
                let rows = sweep::run_cells(&cells, run.workers, |cell| evaluator.eval(cell));
                let text = sweep::report(&rows);
                std::fs::write(run.tmp.join("sweep.txt"), &text).map(|()| rows)
            })
        });
        match pass {
            Ok((Ok(rows), wall)) => {
                tally.ok(cells.len() as u64);
                for row in &rows {
                    check_summary(tally, &row.cell, &row.summary, &preset);
                }
                if first {
                    print_stats(&rows);
                }
                Some(Pass {
                    sim_s,
                    wall,
                    digest: digest_rows(&rows),
                })
            }
            Ok((Err(e), _)) => {
                tally.fail(format!("writing the sweep report: {e}"));
                None
            }
            Err(e) => {
                tally.fail_ops(cells.len() as u64, format!("sweep pass panicked: {e}"));
                None
            }
        }
    })
}

/// Host time of the calls into each layer over one cell of the rebuilt
/// tick loop, in seconds of thread time, plus exact counts.
#[derive(Debug, Default, Clone)]
struct CellLayers {
    build_s: f64,
    advance_s: f64,
    tick_s: f64,
    observe_s: f64,
    control_s: f64,
    record_s: f64,
    ticks: u64,
    control_steps: u64,
}

/// The governor `StandardEvaluator::eval` would build for `cell`: a
/// greedy Next agent over the app's trained table, or a baseline.
fn governor_for(
    cell: &SweepCell,
    preset: &PlatformPreset,
    tables: &BTreeMap<String, DenseQTable>,
) -> Box<dyn Governor> {
    match tables.get(&cell.app) {
        Some(table) if cell.governor == "next" => Box::new(NextAgent::with_table(
            preset.next.clone(),
            table.clone(),
            false,
        )),
        _ => governors::by_name(&cell.governor)
            // qlint::allow(PN01, reason = "cells come from GOVERNORS, and every app of a next cell has a trained table")
            .expect("grid governors are baselines or next"),
    }
}

/// Rebuilds `Engine::run`'s tick from its public calls with a timer
/// around each, checking the physical invariants on every tick.
/// Returns the summary, the layer times and whether every tick held
/// the invariants.
fn traced_cell(
    cell: &SweepCell,
    preset: &PlatformPreset,
    tables: &BTreeMap<String, DenseQTable>,
    timer_s: f64,
) -> (Summary, CellLayers, bool) {
    let mut l = CellLayers::default();
    let engine = Engine::new();
    let t0 = stats::now();
    let plan = SessionPlan::single(&cell.app, cell.duration_s);
    let mut soc = Soc::new(preset.soc.clone());
    let mut governor = governor_for(cell, preset, tables);
    let mut session = SessionSim::new(plan.clone(), cell.seed);
    governor.reset();
    governor.bind(soc.platform());
    let ticks = engine.ticks_for(plan.total_duration_s());
    let control_every = engine.control_every_ticks(governor.period_s());
    let mut trace = Trace::new();
    trace.reserve(ticks as usize);
    let dt = engine.tick_s();
    let refresh = preset.soc.refresh_hz;
    let ambient = preset.soc.thermal.ambient_c;
    let mut invariants = true;
    let mut until_control = control_every;
    let mut t = stats::now();
    l.build_s += secs(t - t0);
    for _ in 0..ticks {
        let demand = session.advance(dt);
        let t1 = stats::now();
        let out = soc.tick(dt, &demand);
        let state = soc.state();
        let t2 = stats::now();
        governor.observe(&state);
        let mut t3 = stats::now();
        l.advance_s += secs(t1 - t);
        l.tick_s += secs(t2 - t1);
        l.observe_s += secs(t3 - t2);
        until_control -= 1;
        if until_control == 0 {
            governor.control(&state, soc.dvfs_mut());
            until_control = control_every;
            let t4 = stats::now();
            l.control_s += secs(t4 - t3);
            l.control_steps += 1;
            t3 = t4;
        }
        // The per-tick Sample FPS is presented frames ÷ 25 ms and reads
        // 80 whenever two 60 Hz vsyncs fall in one tick, so the refresh
        // bound is checked where it is physical: the windowed FPS the
        // governors observe, and presented frames against the vsyncs
        // that fired.
        let ok = state.fps >= 0.0
            && state.fps <= refresh
            && out.vsync.presented <= out.vsync.vsyncs
            && f64::from(out.vsync.vsyncs) <= (dt * refresh).ceil()
            && out.power_w >= 0.0
            && [state.temp_hot_c, state.temp_device_c, state.temp_battery_c]
                .iter()
                .chain(state.temp_domain_c.iter())
                .all(|c| c.is_finite() && *c >= ambient);
        invariants &= ok;
        trace.push(Sample {
            time_s: state.time_s,
            fps: out.fps,
            power_w: out.power_w,
            temp_hot_c: state.temp_hot_c,
            temp_device_c: state.temp_device_c,
            freq_khz: state.freq_khz,
        });
        t = stats::now();
        l.record_s += secs(t - t3);
    }
    let summary = trace.summary();
    l.record_s += secs(t.elapsed());
    l.ticks = ticks;
    // Every interval above contains exactly one timer read.
    let reads = |n: u64| n as f64 * timer_s;
    l.advance_s -= reads(ticks);
    l.tick_s -= reads(ticks);
    l.observe_s -= reads(ticks);
    l.control_s -= reads(l.control_steps);
    l.record_s -= reads(ticks);
    (summary, l, invariants)
}

/// Traced run: per-app training timed call by call, an untraced pass
/// (cell latency, `Engine::run` ns/tick), then the rebuilt tick loop
/// with a timer around every layer call. Its summaries must equal
/// `StandardEvaluator::eval`'s.
pub fn trace(run: &Run) -> Result<Outcome, String> {
    let cells = cells(run.seed);
    let preset = PlatformPreset::exynos9810();
    let workers = run.workers;
    let mut out = Outcome::default();
    let timer_s = stats::timer_cost_ns() * 1e-9;
    println!("info timer: {:.1} ns per Instant::now read", timer_s * 1e9);

    let mut apps: Vec<String> = cells
        .iter()
        .filter(|c| c.governor == "next")
        .map(|c| c.app.clone())
        .collect();
    apps.sort();
    apps.dedup();
    let tables = train::train_apps(
        &apps,
        StandardEvaluator::BASE_TRAIN_BUDGET_S,
        &preset,
        workers,
        &mut out,
    );
    let evaluator =
        StandardEvaluator::prepare(&cells, StandardEvaluator::BASE_TRAIN_BUDGET_S, workers);

    // Untraced pass: `StandardEvaluator::eval` per cell, timed around
    // the closure handed to `parallel_map`.
    let (timed_rows, untraced_wall) =
        timed(|| parallel_map(&cells, workers, |cell| timed(|| evaluator.eval(cell))));
    let cell_s: Vec<f64> = timed_rows.iter().map(|(_, s)| *s).collect();
    let busy: f64 = cell_s.iter().sum();
    out.set(
        "simkit.sweep.idle_frac",
        stats::idle_frac(busy, untraced_wall, workers),
    );
    out.set("simkit.sweep.cells", cells.len() as f64);
    let cell_ms: Vec<f64> = cell_s.iter().map(|s| s * 1e3).collect();
    for (name, p) in [
        ("simkit.sweep.cell_p50_ms", 50.0),
        ("simkit.sweep.cell_p95_ms", 95.0),
    ] {
        match percentile(&cell_ms, p) {
            Some(pc) => {
                println!(
                    "info {name}: {:.4} ms over n = {} cells, {} beyond",
                    pc.value, pc.n, pc.beyond
                );
                out.set(name, pc.value);
            }
            None => out.tally.fail(format!(
                "{} cells leave fewer than 10 beyond p{p}",
                cells.len()
            )),
        }
    }

    // `Engine::run` alone, untraced, for the engine's ns per tick.
    let engine = Engine::new();
    let engine_runs = parallel_map(&cells, workers, |cell| {
        let plan = SessionPlan::single(&cell.app, cell.duration_s);
        let mut soc = Soc::new(preset.soc.clone());
        let mut governor = governor_for(cell, &preset, &tables);
        let mut session = SessionSim::new(plan.clone(), cell.seed);
        governor.reset();
        let (outcome, s) = timed(|| {
            engine.run(
                &mut soc,
                governor.as_mut(),
                &mut session,
                plan.total_duration_s(),
            )
        });
        (outcome.trace.summary(), s)
    });
    let engine_s: f64 = engine_runs.iter().map(|(_, s)| *s).sum();

    // Traced pass: the rebuilt loop.
    let (traced, traced_wall) = timed(|| {
        let rows = parallel_map(&cells, workers, |cell| {
            let (r, s) = timed(|| traced_cell(cell, &preset, &tables, timer_s));
            (r, s)
        });
        let report_rows: Vec<SweepRow> = cells
            .iter()
            .zip(&rows)
            .map(|(cell, ((summary, _, _), _))| SweepRow {
                cell: cell.clone(),
                summary: *summary,
            })
            .collect();
        let (text, report_s) = timed(|| sweep::report(&report_rows));
        std::hint::black_box(text);
        (rows, report_s)
    });
    let (rows, report_s) = traced;

    let mut total = CellLayers::default();
    let mut control: BTreeMap<&str, (f64, u64)> = BTreeMap::new();
    let mut traced_busy = 0.0;
    for (i, (cell, ((summary, layers, invariants), cell_wall))) in
        cells.iter().zip(&rows).enumerate()
    {
        let (evaluated, _) = &timed_rows[i];
        out.tally.check(summary == evaluated, || {
            format!(
                "rebuilt tick loop disagrees with StandardEvaluator::eval on {}/{}/{}",
                cell.app, cell.governor, cell.seed
            )
        });
        out.tally.check(&engine_runs[i].0 == evaluated, || {
            format!(
                "Engine::run disagrees with StandardEvaluator::eval on {}/{}/{}",
                cell.app, cell.governor, cell.seed
            )
        });
        out.tally.check(*invariants, || {
            format!(
                "per-tick invariants broken on {}/{}/{}",
                cell.app, cell.governor, cell.seed
            )
        });
        check_summary(&mut out.tally, cell, evaluated, &preset);
        traced_busy += cell_wall;
        total.build_s += layers.build_s;
        total.advance_s += layers.advance_s;
        total.tick_s += layers.tick_s;
        total.observe_s += layers.observe_s;
        total.control_s += layers.control_s;
        total.record_s += layers.record_s;
        total.ticks += layers.ticks;
        total.control_steps += layers.control_steps;
        let e = control.entry(cell.governor.as_str()).or_default();
        e.0 += layers.control_s;
        e.1 += layers.control_steps;
    }
    out.tally.ok(3 * cells.len() as u64);

    let ticks = total.ticks as f64;
    let ns = |s: f64, n: f64| if n > 0.0 { s * 1e9 / n } else { 0.0 };
    out.set("workload.advance_ns", ns(total.advance_s, ticks));
    out.set("mpsoc.tick_ns", ns(total.tick_s, ticks));
    out.set("mpsoc.ticks", ticks);
    out.set("governors.observe_ns", ns(total.observe_s, ticks));
    for gov in GOVERNORS {
        let (s, n) = control.get(gov).copied().unwrap_or_default();
        let steps_name = match gov {
            "schedutil" => "governors.control_steps.schedutil",
            "intqos" => "governors.control_steps.intqos",
            _ => "governors.control_steps.next",
        };
        out.set(steps_name, n as f64);
        let ns_name = match gov {
            "schedutil" => "governors.control_ns.schedutil",
            "intqos" => "governors.control_ns.intqos",
            _ => "core.agent.control_ns",
        };
        out.set(ns_name, ns(s, n as f64));
    }
    let layer_s = total.advance_s + total.tick_s + total.observe_s + total.control_s;
    out.set(
        "simkit.engine.self_ns",
        ns(engine_s, ticks) - ns(layer_s, ticks),
    );

    let mut ledger = Ledger::default();
    ledger.add_thread("workload", total.advance_s, workers);
    ledger.add_thread("mpsoc", total.tick_s, workers);
    ledger.add_thread("governors+core", total.observe_s + total.control_s, workers);
    ledger.add_thread("simkit.engine", total.record_s + total.build_s, workers);
    ledger.add_thread(
        "simkit.sweep.idle",
        traced_wall * workers as f64 - traced_busy - report_s * workers as f64,
        workers,
    );
    ledger.add_wall("simkit.sweep.report", report_s);
    let reads = (4 * total.ticks + total.control_steps) as f64;
    ledger.add_thread("perfbench.timers", reads * timer_s, workers);
    finish_trace(&mut out, &ledger, traced_wall, untraced_wall, "sweep");
    Ok(out)
}
