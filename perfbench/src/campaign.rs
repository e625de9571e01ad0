//! `campaign`: many devices on compressed days. Devices × rounds of
//! quick 4-pickup days on mixed Exynos 9810/9820, an NXCP checkpoint
//! written every round, `campaign.json` rendered, written and parsed
//! back.
//!
//! Per-device-day fixed costs dominate: plan generation, overlay warm
//! start and copy-on-write, NXQT delta encode, merge fold/finish, the
//! downlink table encode and the checkpoint. Every tick trains online,
//! so the Q-tables see writes here where `sweep` only reads; the
//! per-platform merge runs only here.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use bench::json::Json;
use next_core::QTableStore;
use qlearn::{
    decode_table, encode_table, DenseQTable, DenseStore, MergeAccumulator, OverlayStore, QTable,
};
use simkit::campaign::CHECKPOINT_FILE;
use simkit::day::{run_day, DaySpec};
use simkit::fleet::{device_profiles, soc_config_for, DeviceProfile, SOC_BINS};
use simkit::sweep::parallel_map;
use simkit::{
    run_campaign_with, warm_seed, CampaignConfig, CampaignOptions, CampaignOutcome, CampaignReport,
    PlatformPreset,
};
use workload::scenario::splitmix64;
use workload::{DayPlan, Persona};

use crate::stats::{self, catch, median, secs, timed, Digest, Ledger, Tally};
use crate::{
    finish_trace, measure_passes, print_reconciliation, repeat_setup, train, Outcome, Pass, Run,
};

const DEVICES: usize = 192;
const ROUNDS: usize = 4;

/// Device-days the traced run replays from public calls.
const REPLAY_DEVICES: usize = 32;

/// The campaign runner's per-round seed salt (private to
/// `simkit::campaign`; mirrored so the replay regenerates the plans a
/// round would).
const ROUND_SALT: u64 = 0xff51_afd7_ed55_8ccd;

/// The mixed fleet's platforms, in campaign platform-index order.
fn presets() -> [PlatformPreset; 2] {
    [PlatformPreset::exynos9810(), PlatformPreset::exynos9820()]
}

fn config(seed: u64) -> CampaignConfig {
    let presets = presets();
    let names: Vec<&str> = presets.iter().map(|p| p.name.as_str()).collect();
    CampaignConfig::quick(DEVICES, ROUNDS, seed).with_platforms(&names)
}

/// What one pass produced, with the host time of each stage.
struct CampaignPass {
    report: CampaignReport,
    json: String,
    /// Host seconds of each `run_campaign_with` call (one for the
    /// whole campaign untraced, one per round traced).
    rounds_s: Vec<f64>,
    /// Size of the checkpoint after each call.
    checkpoint_bytes: Vec<u64>,
    render_s: f64,
    write_s: f64,
    parse_s: f64,
    parsed: Result<Json, String>,
    wall: f64,
}

fn checkpoint_size(dir: &Path) -> u64 {
    std::fs::metadata(dir.join(CHECKPOINT_FILE)).map_or(0, |m| m.len())
}

/// Runs the campaign with a checkpoint every round — in one call, or
/// one call per round (`by_round`), each resuming from the previous
/// call's checkpoint — then renders, writes and parses `campaign.json`.
fn pass(config: &CampaignConfig, run: &Run, by_round: bool) -> Result<CampaignPass, String> {
    let dir = run.tmp.join("checkpoint");
    let _ = std::fs::remove_dir_all(&dir);
    let started = stats::now();
    let mut rounds_s = Vec::new();
    let mut checkpoint_bytes = Vec::new();
    let calls: Vec<Option<usize>> = if by_round {
        (1..=config.rounds).map(Some).collect()
    } else {
        vec![None]
    };
    let mut report = None;
    for (i, stop_after) in calls.into_iter().enumerate() {
        let options = CampaignOptions {
            checkpoint_dir: Some(dir.clone()),
            resume: i > 0,
            stop_after,
        };
        let (outcome, s) = timed(|| run_campaign_with(config, run.workers, &options));
        rounds_s.push(s);
        checkpoint_bytes.push(checkpoint_size(&dir));
        if let CampaignOutcome::Complete(r) = outcome? {
            report = Some(r);
        }
    }
    let report = report.ok_or("the campaign never completed")?;
    let (json, render_s) = timed(|| bench::campaign::campaign_to_json(&report, "quick").render());
    let path = run.tmp.join("campaign.json");
    let (written, write_s) = timed(|| std::fs::write(&path, format!("{json}\n")));
    written.map_err(|e| format!("writing {}: {e}", path.display()))?;
    let (parsed, parse_s) = timed(|| {
        std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| Json::parse(&text).map_err(|e| format!("{e:?}")))
    });
    Ok(CampaignPass {
        report,
        json,
        rounds_s,
        checkpoint_bytes,
        render_s,
        write_s,
        parse_s,
        parsed,
        wall: secs(started.elapsed()),
    })
}

fn sim_s(config: &CampaignConfig) -> f64 {
    (config.devices * config.rounds) as f64 * config.plan.day_length_s
}

/// Correctness checks: `campaign.json` parses back with devices ×
/// rounds device-days, the ledger is complete, a checkpoint was
/// written, and every cohort's metrics are physically possible.
fn check(tally: &mut Tally, p: &CampaignPass, config: &CampaignConfig) {
    let device_days = (config.devices * config.rounds) as u64;
    tally.ok(device_days);
    let campaign = p.parsed.as_ref().ok().and_then(|doc| doc.get("campaign"));
    let totals = campaign
        .and_then(|c| c.get("totals"))
        .and_then(|t| t.get("device_days"))
        .and_then(Json::as_u64);
    tally.check(totals == Some(device_days), || {
        format!(
            "campaign.json does not parse back with {device_days} device-days: {:?}",
            p.parsed.as_ref().err()
        )
    });
    let cohorts = campaign
        .and_then(|c| c.get("cohorts"))
        .and_then(Json::as_array)
        .unwrap_or_default();
    let counted: u64 = cohorts
        .iter()
        .filter_map(|c| c.get("count").and_then(Json::as_u64))
        .sum();
    tally.check(counted == device_days, || {
        format!("cohorts count {counted} device-days, expected {device_days}")
    });
    tally.check(
        p.report.rounds.len() == config.rounds
            && p.report.rounds.iter().all(|r| r.uplink_bytes > 0),
        || "the round ledger is incomplete".to_owned(),
    );
    tally.check(p.checkpoint_bytes.iter().all(|&b| b > 0), || {
        "a round wrote no checkpoint".to_owned()
    });
    let refresh = presets()
        .iter()
        .map(|p| p.soc.refresh_hz)
        .fold(0.0, f64::max);
    for cohort in p.report.cohorts.iter().filter(|c| c.count > 0) {
        let ok = cohort.metrics.iter().all(|m| {
            let finite = m.min.is_finite() && m.max.is_finite() && m.min >= 0.0;
            finite
                && match m.name {
                    "avg_fps" => m.max <= refresh,
                    "battery_drain_pct" => m.max <= 100.0,
                    _ => true,
                }
        });
        tally.check(ok, || {
            format!(
                "cohort {}/{}/{} metrics out of range: {:?}",
                cohort.persona, cohort.platform, cohort.bin, cohort.metrics
            )
        });
    }
}

fn digest(p: &CampaignPass) -> String {
    let mut d = Digest::default();
    d.bytes(p.json.as_bytes());
    for t in &p.report.tables {
        d.bytes(&t.encoded);
    }
    d.hex()
}

fn uplink_kb_per_device_day(report: &CampaignReport) -> f64 {
    report.total_uplink_bytes() as f64 / report.device_days() as f64 / 1e3
}

fn print_stats(p: &CampaignPass) {
    let r = &p.report;
    println!(
        "stat campaign: uplink {:.6} KB per device-day, downlink {} B total, {} merged tables",
        uplink_kb_per_device_day(r),
        r.total_downlink_bytes(),
        r.tables.len()
    );
    for round in &r.rounds {
        println!(
            "stat campaign round {}: {} states, {} visits, {} B up, {} B resident",
            round.round, round.states, round.visits, round.uplink_bytes, round.table_bytes
        );
    }
}

fn checked_pass(
    tally: &mut Tally,
    config: &CampaignConfig,
    run: &Run,
    by_round: bool,
) -> Option<CampaignPass> {
    match catch(|| pass(config, run, by_round)) {
        Ok(Ok(p)) => {
            check(tally, &p, config);
            Some(p)
        }
        Ok(Err(e)) => {
            tally.fail(e);
            None
        }
        Err(e) => {
            let days = (config.devices * config.rounds) as u64;
            tally.fail_ops(days, format!("campaign pass panicked: {e}"));
            None
        }
    }
}

pub fn measure(run: &Run) -> Result<Outcome, String> {
    let config = config(run.seed);
    let (seed, setup) = repeat_setup(|| warm_seed(&config, run.workers));
    seed?;
    println!(
        "info campaign: {DEVICES} devices x {ROUNDS} rounds of quick days on {}, {} set-ups, median {:.6} s",
        config.platforms.join("+"),
        setup.len(),
        median(&setup)
    );
    measure_passes(run, "campaign", &setup, |tally, first| {
        let p = checked_pass(tally, &config, run, false)?;
        if first {
            print_stats(&p);
        }
        Some(Pass {
            sim_s: sim_s(&config),
            wall: p.wall,
            digest: digest(&p),
        })
    })
}

/// One replayed device-day: its overlays and the host time of each
/// public call.
struct DeviceDay {
    platform: usize,
    tables: Vec<(String, QTable<OverlayStore>)>,
    plan_s: f64,
    day_s: f64,
    delta_s: f64,
    deltas: usize,
    touched_rows: usize,
    resident_bytes: usize,
    uplink_bytes: usize,
    busy_s: f64,
}

/// Replays one device's day of `round` from public calls, the way the
/// campaign runner's private `run_device_day` does.
fn replay_device_day(
    config: &CampaignConfig,
    presets: &[PlatformPreset],
    globals: &BTreeMap<(usize, String), Arc<DenseQTable>>,
    dev: &DeviceProfile,
    round: usize,
) -> Result<DeviceDay, String> {
    let started = stats::now();
    let round_seed = splitmix64(dev.user_seed ^ (round as u64).wrapping_mul(ROUND_SALT));
    let persona = Persona::sample(dev.user_seed);
    let (plan, plan_s) = timed(|| DayPlan::generate(&persona, &config.plan, round_seed));
    let apps = plan.distinct_apps();
    let base = &presets[dev.platform];
    let mut preset = base.clone();
    preset.soc = soc_config_for(&base.soc, &SOC_BINS[dev.bin]);
    preset.next = base.next.clone().with_seed(round_seed);
    let mut store: QTableStore<OverlayStore> = QTableStore::in_memory();
    for app in &apps {
        let global = globals
            .get(&(dev.platform, app.clone()))
            .ok_or_else(|| format!("no merged table for {app} on platform {}", dev.platform))?;
        store
            .save(app, &QTable::overlay(Arc::clone(global)))
            .map_err(|e| format!("in-memory store: {e}"))?;
    }
    let mut spec = DaySpec::new(plan, "next")
        .with_preset(preset)
        .with_train_budget_s(config.train_budget_s)
        .with_train_online(true);
    spec.gap_tick_s = config.gap_tick_s;
    spec.battery = config.battery;
    let (_, day_s) = timed(|| run_day(&spec, &mut store));
    let mut d = DeviceDay {
        platform: dev.platform,
        tables: Vec::with_capacity(apps.len()),
        plan_s,
        day_s,
        delta_s: 0.0,
        deltas: 0,
        touched_rows: 0,
        resident_bytes: 0,
        uplink_bytes: 0,
        busy_s: 0.0,
    };
    for app in apps {
        let table = store
            .take(&app)
            .ok_or_else(|| format!("the day store lost {app}"))?;
        d.touched_rows += table.touched_rows();
        d.resident_bytes += table.resident_bytes();
        let (delta, s) = timed(|| table.delta_bytes());
        d.delta_s += s;
        d.deltas += 1;
        d.uplink_bytes += delta.len();
        d.tables.push((app, table));
    }
    d.busy_s = secs(started.elapsed());
    Ok(d)
}

/// Replays `REPLAY_DEVICES` device-days of the round after the last,
/// warm-started from the campaign's final merged tables, and folds
/// them the way a round does. Records the `qlearn` and
/// `workload.plan_us` metrics.
fn replay_round(
    out: &mut Outcome,
    config: &CampaignConfig,
    report: &CampaignReport,
    workers: usize,
) {
    let presets = presets();
    let mut globals = BTreeMap::new();
    for t in &report.tables {
        let Some(p) = presets.iter().position(|p| p.name == t.platform) else {
            out.tally.fail(format!(
                "merged table names unknown platform {}",
                t.platform
            ));
            continue;
        };
        match decode_table::<DenseStore>(&t.encoded) {
            Ok(table) => {
                out.tally.ok(1);
                globals.insert((p, t.app.clone()), Arc::new(table));
            }
            Err(e) => out.tally.fail(format!(
                "merged table {}/{} does not decode: {e:?}",
                t.platform, t.app
            )),
        }
    }
    let profiles = device_profiles(config.devices, config.seed, config.platforms.len());
    let devices = &profiles[..REPLAY_DEVICES.min(profiles.len())];
    let (replayed, wall) = timed(|| {
        parallel_map(devices, workers, |dev| {
            replay_device_day(config, &presets, &globals, dev, config.rounds)
        })
    });
    let mut days = Vec::with_capacity(replayed.len());
    for day in replayed {
        match day {
            Ok(d) => {
                out.tally.ok(1);
                days.push(d);
            }
            Err(e) => out.tally.fail(format!("replayed device-day failed: {e}")),
        }
    }
    if days.is_empty() {
        return;
    }

    let n = days.len() as f64;
    let busy: f64 = days.iter().map(|d| d.busy_s).sum();
    let plan_s: f64 = days.iter().map(|d| d.plan_s).sum();
    let day_s: f64 = days.iter().map(|d| d.day_s).sum();
    let delta_s: f64 = days.iter().map(|d| d.delta_s).sum();
    let deltas: usize = days.iter().map(|d| d.deltas).sum();
    let uplink: usize = days.iter().map(|d| d.uplink_bytes).sum();
    let resident: usize = days.iter().map(|d| d.resident_bytes).sum();
    out.set("workload.plan_us", plan_s * 1e6 / n);
    out.set(
        "qlearn.overlay.touched_rows",
        days.iter().map(|d| d.touched_rows).sum::<usize>() as f64,
    );
    out.set("qlearn.overlay.resident_bytes", resident as f64);
    out.set(
        "qlearn.codec.delta_encode_us",
        delta_s * 1e6 / deltas as f64,
    );
    out.set(
        "qlearn.codec.replay_uplink_kb_per_device_day",
        uplink as f64 / n / 1e3,
    );
    out.set(
        "simkit.sweep.idle_frac",
        stats::idle_frac(busy, wall, workers),
    );

    // Fold in device order, then finish and encode each merged table.
    let (merged, fold_block_s) = timed(|| {
        let mut accs: BTreeMap<(usize, String), MergeAccumulator<DenseStore>> = BTreeMap::new();
        let mut fold_s = 0.0;
        let mut folds = 0usize;
        for d in &days {
            for (app, table) in &d.tables {
                let acc = accs
                    .entry((d.platform, app.clone()))
                    .or_insert_with(|| MergeAccumulator::new(table.n_actions(), table.default_q()));
                let (folded, s) = timed(|| acc.fold_overlay(table));
                fold_s += s;
                folds += 1;
                if let Err(e) = folded {
                    out.tally.fail(format!("fold_overlay failed: {e:?}"));
                }
            }
        }
        (accs, fold_s, folds)
    });
    let (accs, fold_only_s, folds) = merged;
    let keys = accs.len() as f64;
    let mut finish_s = 0.0;
    let mut encode_s = 0.0;
    for acc in accs.into_values() {
        let (finished, s) = timed(|| acc.finish_normalized());
        finish_s += s;
        match finished {
            Ok(table) => {
                let (bytes, s) = timed(|| encode_table(&table));
                encode_s += s;
                out.tally.check(!bytes.is_empty(), || {
                    "empty merged table encoding".to_owned()
                });
            }
            Err(e) => out.tally.fail(format!("finish_normalized failed: {e:?}")),
        }
    }
    out.set("qlearn.federated.fold_us", fold_only_s * 1e6 / folds as f64);
    out.set("qlearn.federated.finish_ms", finish_s * 1e3 / keys);
    out.set("qlearn.codec.table_encode_ms", encode_s * 1e3 / keys);

    if let Some(last) = report.rounds.last() {
        println!(
            "info campaign replay: {} device-days of round {} from public calls; uplink {:.6} KB per device-day (ledger, round {}: {:.6}), resident overlay {:.1} KB per device-day (ledger table_bytes incl. merged tables: {:.1} KB per device)",
            days.len(),
            config.rounds,
            uplink as f64 / n / 1e3,
            last.round,
            last.uplink_bytes as f64 / config.devices as f64 / 1e3,
            resident as f64 / n / 1e3,
            last.table_bytes as f64 / config.devices as f64 / 1e3,
        );
    }
    let mut ledger = Ledger::default();
    ledger.add_thread("workload.plan", plan_s, workers);
    ledger.add_thread("simkit.day.run_day", day_s, workers);
    ledger.add_thread("qlearn.codec.delta", delta_s, workers);
    ledger.add_thread("simkit.sweep.idle", wall * workers as f64 - busy, workers);
    ledger.add_wall("qlearn.federated.fold", fold_only_s);
    ledger.add_wall("qlearn.federated.finish", finish_s);
    ledger.add_wall("qlearn.codec.table_encode", encode_s);
    print_reconciliation(
        &ledger,
        wall + fold_block_s + finish_s + encode_s,
        "campaign-replay",
    );
}

pub fn trace(run: &Run) -> Result<Outcome, String> {
    let config = config(run.seed);
    let mut out = Outcome::default();

    // simkit.trainer: the warm seed's per-(platform, app) jobs.
    let mut apps: Vec<String> = [
        Persona::gamer(),
        Persona::socialite(),
        Persona::commuter(),
        Persona::reader(),
    ]
    .iter()
    .flat_map(|p| p.apps().to_vec())
    .collect();
    apps.sort();
    apps.dedup();
    for preset in presets() {
        let _ = train::train_apps(&apps, config.train_budget_s, &preset, run.workers, &mut out);
    }

    let untraced = checked_pass(&mut out.tally, &config, run, false)
        .ok_or("the untraced campaign pass failed")?;
    let p = checked_pass(&mut out.tally, &config, run, true)
        .ok_or("the traced campaign pass failed")?;
    out.tally.check(p.report == untraced.report, || {
        "resuming round by round changed the campaign report".to_owned()
    });

    out.set("simkit.campaign.round_s", median(&p.rounds_s));
    out.set(
        "simkit.campaign.checkpoint_bytes",
        p.checkpoint_bytes.last().copied().unwrap_or(0) as f64,
    );
    out.set(
        "simkit.campaign.uplink_kb_per_device_day",
        uplink_kb_per_device_day(&p.report),
    );
    out.set("bench.render_ms", p.render_s * 1e3);

    let mut ledger = Ledger::default();
    ledger.add_wall("simkit.campaign.rounds", p.rounds_s.iter().sum());
    ledger.add_wall("bench.render", p.render_s);
    ledger.add_wall("io.write", p.write_s);
    ledger.add_wall("bench.json.parse", p.parse_s);
    finish_trace(&mut out, &ledger, p.wall, untraced.wall, "campaign");

    replay_round(&mut out, &config, &p.report, run.workers);
    Ok(out)
}
