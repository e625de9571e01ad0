//! `day-trace`: the record/replay loop. Four personas × {next,
//! schedutil} on paper days (52 pickups, 16 h, 1 s gap ticks), run on
//! `SocBatch` lanes with trace recording. Each day's JSON and HTML
//! report are rendered and written, every trace is encoded and decoded,
//! and one recorded trace is re-executed with `replay_day`.
//!
//! The only user of the `simkit::trace` sinks and codec and of
//! `bench::report::day_html`. Trace writes (record, encode) sit beside
//! trace reads (decode, replay).

use std::collections::BTreeMap;

use bench::json::Json;
use next_core::QTableStore;
use qlearn::DenseQTable;
use simkit::day::{replay_day, run_day_lanes_traced, DayReport, DaySpec};
use simkit::sweep::{parallel_map, StandardEvaluator};
use simkit::trace::{SegmentKind, TickTrace, TickView, TraceMeta, TraceRecorder, TraceSink};
use simkit::PlatformPreset;
use workload::scenario::splitmix64;
use workload::{DayPlan, DayPlanConfig, Persona};

use crate::stats::{self, catch, median, secs, timed, Digest, Ledger, Tally};
use crate::{finish_trace, measure_passes, repeat_setup, train, Outcome, Pass, Run};

const GOVERNORS: [&str; 2] = ["next", "schedutil"];

/// Paper days per persona in one pass. Screen-on time, and with it the
/// trace length, varies by about ±14 % between single days of the four
/// personas; three days per pass average that down while only one
/// day's traces are resident at a time.
const DAYS: u64 = 3;

/// `DAYS` paper days of the gamer, socialite, commuter and reader, each
/// from its own seed split from the workload seed, with the host
/// seconds the `DayPlan::generate` calls took.
fn plans(seed: u64) -> (Vec<Vec<DayPlan>>, f64) {
    let personas = [
        Persona::gamer(),
        Persona::socialite(),
        Persona::commuter(),
        Persona::reader(),
    ];
    let mut generate_s = 0.0;
    let plans = (0..DAYS)
        .map(|day| {
            personas
                .iter()
                .zip(1u64..)
                .map(|(persona, i)| {
                    let key = (day * personas.len() as u64 + i).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                    let (plan, s) = timed(|| {
                        DayPlan::generate(persona, &DayPlanConfig::paper(), splitmix64(seed ^ key))
                    });
                    generate_s += s;
                    plan
                })
                .collect()
        })
        .collect();
    (plans, generate_s)
}

fn distinct_apps(plans: &[Vec<DayPlan>]) -> Vec<String> {
    let mut apps: Vec<String> = plans
        .iter()
        .flatten()
        .flat_map(DayPlan::distinct_apps)
        .collect();
    apps.sort();
    apps.dedup();
    apps
}

/// A trace sink the pass records through: the plain recorder for the
/// untraced pass, a timing wrapper for the traced one.
trait Recording: TraceSink {
    fn start(meta: TraceMeta) -> Self;
    /// The finished trace and the host seconds spent inside `record`.
    fn finish(self) -> (TickTrace, f64);
}

impl Recording for TraceRecorder {
    fn start(meta: TraceMeta) -> Self {
        TraceRecorder::new(meta)
    }

    fn finish(self) -> (TickTrace, f64) {
        (TraceRecorder::finish(self), 0.0)
    }
}

/// Times every `record` call of the wrapped recorder.
struct TimedRecorder {
    inner: TraceRecorder,
    record_s: f64,
}

impl TraceSink for TimedRecorder {
    fn begin_segment(&mut self, kind: SegmentKind, index: usize) {
        self.inner.begin_segment(kind, index);
    }

    fn record(&mut self, view: &TickView<'_>) {
        let t = stats::now();
        self.inner.record(view);
        self.record_s += secs(t.elapsed());
    }
}

impl Recording for TimedRecorder {
    fn start(meta: TraceMeta) -> Self {
        TimedRecorder {
            inner: TraceRecorder::new(meta),
            record_s: 0.0,
        }
    }

    fn finish(self) -> (TickTrace, f64) {
        (self.inner.finish(), self.record_s)
    }
}

/// Host time per stage and exact counts of one pass, summed over its
/// days.
#[derive(Debug, Default)]
struct DayPass {
    /// Simulated device-seconds: every lane-day plus the replayed day.
    sim_s: f64,
    /// Busy seconds of the plan cells inside `parallel_map`.
    cell_s: f64,
    /// Seconds spent inside the sinks' `record` calls.
    record_s: f64,
    lanes_wall: f64,
    render_s: f64,
    html_s: f64,
    encode_s: f64,
    decode_s: f64,
    write_s: f64,
    drop_s: f64,
    replay_s: f64,
    records: usize,
    gap_ticks: usize,
    session_ticks: usize,
    encoded_bytes: usize,
    /// Largest resident trace footprint of one day's lanes.
    resident_bytes: usize,
    digest: String,
    /// Host seconds of the measured phase; checks and digests excluded.
    wall: f64,
}

/// Approximate heap bytes a trace holds resident: the record array
/// plus each record's two per-domain vectors.
fn resident_bytes(trace: &TickTrace) -> usize {
    trace.records.capacity() * std::mem::size_of::<simkit::TickRecord>()
        + trace
            .records
            .iter()
            .map(|r| r.freq_level.capacity() + 4 * r.temp_domain_c.capacity())
            .sum::<usize>()
}

/// Runs one day of every persona on (next, schedutil) lanes with
/// recording; returns each lane's report and trace, the sinks' record
/// time and each plan cell's busy time.
fn run_lanes<R: Recording>(
    plans: &[DayPlan],
    tables: &BTreeMap<String, DenseQTable>,
    preset: &PlatformPreset,
    workers: usize,
) -> (Vec<(DayReport, TickTrace)>, f64, Vec<f64>) {
    let cells = parallel_map(plans, workers, |plan| {
        let t = stats::now();
        let specs: Vec<DaySpec> = GOVERNORS
            .iter()
            .map(|g| DaySpec::new(plan.clone(), g).with_preset(preset.clone()))
            .collect();
        let mut stores: Vec<QTableStore> = GOVERNORS
            .iter()
            .map(|&g| {
                let mut store = QTableStore::in_memory();
                if g == "next" {
                    for app in plan.distinct_apps() {
                        store
                            .save(&app, &tables[&app])
                            // qlint::allow(PN01, reason = "an in-memory QTableStore performs no I/O")
                            .expect("in-memory save cannot fail");
                    }
                }
                store
            })
            .collect();
        let mut refs: Vec<&mut QTableStore> = stores.iter_mut().collect();
        let mut sinks: Vec<R> = specs.iter().map(|s| R::start(s.trace_meta())).collect();
        let reports = run_day_lanes_traced(&specs, &mut refs, &mut sinks);
        let lanes: Vec<(DayReport, TickTrace, f64)> = reports
            .into_iter()
            .zip(sinks)
            .map(|(report, sink)| {
                let (trace, record_s) = sink.finish();
                (report, trace, record_s)
            })
            .collect();
        (lanes, secs(t.elapsed()))
    });
    let mut lanes = Vec::new();
    let mut record_s = 0.0;
    let mut cell_s = Vec::new();
    for (cell, s) in cells {
        cell_s.push(s);
        for (report, trace, r) in cell {
            record_s += r;
            lanes.push((report, trace));
        }
    }
    (lanes, record_s, cell_s)
}

/// Physical invariants on every recorded tick and on each day report.
fn check_lanes(tally: &mut Tally, lanes: &[(DayReport, TickTrace)], preset: &PlatformPreset) {
    let refresh = preset.soc.refresh_hz as f32;
    let ambient = preset.soc.thermal.ambient_c as f32;
    for (report, trace) in lanes {
        let mut last_pct = 0.0f32;
        let mut bad = None;
        for (i, r) in trace.records.iter().enumerate() {
            let temps_ok = [r.temp_device_c, r.temp_battery_c]
                .iter()
                .chain(&r.temp_domain_c)
                .all(|t| t.is_finite() && *t >= ambient);
            let ok = r.fps >= 0.0
                && r.fps <= refresh
                && r.power_w >= 0.0
                && r.battery_pct >= last_pct
                && (0.0..=100.0).contains(&r.battery_pct)
                && temps_ok;
            if !ok && bad.is_none() {
                bad = Some((i, r.clone()));
            }
            last_pct = r.battery_pct;
        }
        tally.check(bad.is_none(), || {
            format!(
                "invariants broken on the {} {} day (seed {}) at {:?}",
                report.plan.persona, report.governor, report.plan.seed, bad
            )
        });
        tally.check(
            (0.0..=100.0).contains(&report.battery_drain_pct)
                && report.energy_total_j() >= 0.0
                && report.peak_temp_hot_c >= f64::from(ambient),
            || {
                format!(
                    "day report invariants broken on {} {} (seed {})",
                    report.plan.persona, report.governor, report.plan.seed
                )
            },
        );
    }
}

fn day_sim_s(r: &DayReport) -> f64 {
    r.screen_on_s + r.screen_off_s
}

/// One pass: for each day, every lane with recording, the day JSON and
/// HTML report rendered and written, every trace encoded and decoded;
/// then the first day's gamer/next trace replayed. Only one day's
/// traces are resident at a time. Checks run between the timed stages
/// and are excluded from the pass's wall time.
fn pass<R: Recording>(
    plans: &[Vec<DayPlan>],
    tables: &BTreeMap<String, DenseQTable>,
    preset: &PlatformPreset,
    run: &Run,
    tally: &mut Tally,
    print_stats: bool,
) -> Result<DayPass, String> {
    let started = stats::now();
    let mut p = DayPass::default();
    let mut digest = Digest::default();
    let mut replay_target: Option<(TraceMeta, Vec<u8>)> = None;
    let mut check_s = 0.0;
    for (day, day_plans) in plans.iter().enumerate() {
        let ((lanes, record_s, cell_s), lanes_wall) =
            timed(|| run_lanes::<R>(day_plans, tables, preset, run.workers));
        p.lanes_wall += lanes_wall;
        p.record_s += record_s;
        p.cell_s += cell_s.iter().sum::<f64>();

        let (json, render_s) = timed(|| {
            let reports: Vec<DayReport> = lanes.iter().map(|(r, _)| r.clone()).collect();
            bench::day::days_to_json(&reports, "full").render()
        });
        let (html, html_s) = timed(|| bench::report::day_html(&lanes));
        let (encoded, encode_s) = timed(|| {
            lanes
                .iter()
                .map(|(_, trace)| trace.encode())
                .collect::<Vec<_>>()
        });
        let (written, write_s) = timed(|| -> std::io::Result<()> {
            std::fs::write(run.tmp.join(format!("day{day}.json")), &json)?;
            std::fs::write(run.tmp.join(format!("day{day}.html")), &html)?;
            std::fs::write(run.tmp.join(format!("day{day}.trace")), &encoded[0])
        });
        written.map_err(|e| format!("writing day artifacts: {e}"))?;
        p.render_s += render_s;
        p.html_s += html_s;
        p.encode_s += encode_s;
        p.write_s += write_s;
        for (bytes, (_, trace)) in encoded.iter().zip(&lanes) {
            let (decoded, s) = timed(|| TickTrace::decode(bytes));
            p.decode_s += s;
            let (_, c) = timed(|| {
                tally.check(decoded.as_ref().is_ok_and(|d| d == trace), || {
                    format!(
                        "the {} {} trace does not decode to its recording",
                        trace.meta.persona, trace.meta.governor
                    )
                });
            });
            check_s += c;
            let ((), s) = timed(|| drop(decoded));
            p.decode_s += s;
        }

        let (_, c) = timed(|| {
            tally.ok(lanes.len() as u64);
            check_lanes(tally, &lanes, preset);
            let runs = Json::parse(&json)
                .ok()
                .and_then(|doc| doc.get("day").and_then(|d| d.get("runs")).cloned())
                .and_then(|runs| runs.as_array().map(<[Json]>::len));
            tally.check(runs == Some(lanes.len()), || {
                format!("day JSON does not parse back to {} runs", lanes.len())
            });
            tally.check(!html.is_empty(), || "empty HTML report".to_owned());
            for (report, trace) in &lanes {
                p.sim_s += day_sim_s(report);
                p.records += trace.records.len();
                for r in &trace.records {
                    match r.kind {
                        SegmentKind::Gap => p.gap_ticks += 1,
                        SegmentKind::Session => p.session_ticks += 1,
                    }
                }
                if print_stats {
                    println!(
                        "stat day-trace day {day} {} {}: energy {:.6} J, peak hot-spot {:.4} C, {} pickups, {} ticks",
                        report.plan.persona,
                        report.governor,
                        report.energy_total_j(),
                        report.peak_temp_hot_c,
                        report.pickup_count(),
                        trace.records.len()
                    );
                }
            }
            for bytes in &encoded {
                digest.bytes(bytes);
                p.encoded_bytes += bytes.len();
            }
            digest.bytes(json.as_bytes());
            p.resident_bytes = p
                .resident_bytes
                .max(lanes.iter().map(|(_, t)| resident_bytes(t)).sum());
            if replay_target.is_none() {
                replay_target = Some((lanes[0].1.meta.clone(), encoded[0].clone()));
            }
        });
        check_s += c;
        // Freeing a day's traces is part of what recording them costs.
        let ((), drop_s) = timed(|| drop((lanes, encoded, html, json)));
        p.drop_s += drop_s;
    }

    let (meta, recorded) = replay_target.ok_or("a pass needs at least one day")?;
    let (replay, replay_s) =
        timed(|| replay_day(&meta, run.workers).map(|(report, trace)| (report, trace.encode())));
    p.replay_s = replay_s;
    match replay {
        Ok((report, bytes)) => {
            p.sim_s += day_sim_s(&report);
            tally.check(bytes == recorded, || {
                "replay_day is not byte-identical to the recording".to_owned()
            });
        }
        Err(e) => tally.fail(format!("replay_day failed: {e}")),
    }
    p.digest = digest.hex();
    p.wall = secs(started.elapsed()) - check_s;
    Ok(p)
}

/// One pass with panics counted as failed lane-days; `None` when it
/// could not finish.
fn checked_pass<R: Recording>(
    tally: &mut Tally,
    plans: &[Vec<DayPlan>],
    tables: &BTreeMap<String, DenseQTable>,
    preset: &PlatformPreset,
    run: &Run,
    print_stats: bool,
) -> Option<DayPass> {
    match catch(|| pass::<R>(plans, tables, preset, run, tally, print_stats)) {
        Ok(Ok(p)) => Some(p),
        Ok(Err(e)) => {
            tally.fail(e);
            None
        }
        Err(e) => {
            let lanes = (plans.iter().map(Vec::len).sum::<usize>() * GOVERNORS.len()) as u64;
            tally.fail_ops(lanes, format!("day-trace pass panicked: {e}"));
            None
        }
    }
}

/// Trains the plans' apps once per distinct app (the set-up phase).
fn setup(
    plans: &[Vec<DayPlan>],
    preset: &PlatformPreset,
    run: &Run,
) -> (BTreeMap<String, DenseQTable>, Vec<f64>) {
    let apps = distinct_apps(plans);
    repeat_setup(|| {
        let outs = StandardEvaluator::train_for_apps(
            &apps,
            StandardEvaluator::BASE_TRAIN_BUDGET_S,
            run.workers,
            preset,
        );
        apps.iter()
            .cloned()
            .zip(outs.into_iter().map(|o| o.agent.into_table()))
            .collect()
    })
}

pub fn measure(run: &Run) -> Result<Outcome, String> {
    let preset = PlatformPreset::exynos9810();
    let (plans, _) = plans(run.seed);
    let (tables, setup) = setup(&plans, &preset, run);
    println!(
        "info day-trace: {DAYS} days x {} personas x {} governors a pass, paper days, {} set-ups, median {:.6} s",
        plans[0].len(),
        GOVERNORS.len(),
        setup.len(),
        median(&setup)
    );
    measure_passes(run, "day-trace", &setup, |tally, first| {
        checked_pass::<TraceRecorder>(tally, &plans, &tables, &preset, run, first).map(|p| Pass {
            sim_s: p.sim_s,
            wall: p.wall,
            digest: p.digest,
        })
    })
}

pub fn trace(run: &Run) -> Result<Outcome, String> {
    let preset = PlatformPreset::exynos9810();
    let mut out = Outcome::default();
    let timer_s = stats::timer_cost_ns() * 1e-9;
    println!("info timer: {:.1} ns per Instant::now read", timer_s * 1e9);

    let (plans, plan_s) = plans(run.seed);
    let n_plans = plans.iter().map(Vec::len).sum::<usize>() as f64;
    out.set("workload.plan_us", plan_s * 1e6 / n_plans);
    let tables = train::train_apps(
        &distinct_apps(&plans),
        StandardEvaluator::BASE_TRAIN_BUDGET_S,
        &preset,
        run.workers,
        &mut out,
    );

    let untraced =
        checked_pass::<TraceRecorder>(&mut out.tally, &plans, &tables, &preset, run, false)
            .ok_or("the untraced day-trace pass failed")?;
    let p = checked_pass::<TimedRecorder>(&mut out.tally, &plans, &tables, &preset, run, false)
        .ok_or("the traced day-trace pass failed")?;
    out.tally.check(untraced.digest == p.digest, || {
        "timing the trace sinks changed the simulated results".to_owned()
    });

    let records = p.records as f64;
    let reads = records * timer_s;
    let record_s = p.record_s - reads;
    // Each record took two timer reads: one inside the sink interval,
    // one outside it; neither belongs to the lane.
    let lane_s = p.cell_s - record_s - 2.0 * reads;
    out.set("simkit.day.lane_tick_ns", lane_s * 1e9 / records);
    out.set("simkit.day.gap_ticks", p.gap_ticks as f64);
    out.set("simkit.day.session_ticks", p.session_ticks as f64);
    out.set("simkit.trace.record_ns", record_s * 1e9 / records);
    out.set("simkit.trace.resident_mb", p.resident_bytes as f64 / 1e6);
    out.set("simkit.trace.encode_ns", p.encode_s * 1e9 / records);
    out.set("simkit.trace.decode_ns", p.decode_s * 1e9 / records);
    out.set("simkit.trace.bytes", p.encoded_bytes as f64);
    out.set("simkit.trace.replay_s", p.replay_s);
    out.set(
        "simkit.sweep.idle_frac",
        stats::idle_frac(p.cell_s, p.lanes_wall, run.workers),
    );
    out.set("bench.render_ms", p.render_s * 1e3 / DAYS as f64);
    out.set("bench.report.html_ms", p.html_s * 1e3 / DAYS as f64);

    let mut ledger = Ledger::default();
    ledger.add_thread("simkit.day", lane_s, run.workers);
    ledger.add_thread("simkit.trace.record", record_s, run.workers);
    ledger.add_thread(
        "simkit.sweep.idle",
        p.lanes_wall * run.workers as f64 - p.cell_s,
        run.workers,
    );
    ledger.add_thread("perfbench.timers", 2.0 * reads, run.workers);
    ledger.add_wall("bench.render", p.render_s);
    ledger.add_wall("bench.report.html", p.html_s);
    ledger.add_wall("simkit.trace.encode", p.encode_s);
    ledger.add_wall("simkit.trace.decode", p.decode_s);
    ledger.add_wall("simkit.trace.replay", p.replay_s);
    ledger.add_wall("io.write", p.write_s);
    ledger.add_wall("simkit.trace.free", p.drop_s);
    finish_trace(&mut out, &ledger, p.wall, untraced.wall, "day-trace");
    Ok(out)
}
