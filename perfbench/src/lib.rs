//! Outside-in benchmark of the next-mpsoc simulator.
//!
//! The benchmark process submits, in a closed loop, a workload's whole
//! input set to the library's public API on
//! `workers = available_parallelism()` threads, waits for it, checks the
//! outputs and repeats until `--seconds` of measurement have passed. `--trace 0` prints the end-to-end metrics;
//! `--trace 1` runs the same inputs with timers around the calls into
//! each layer and prints the per-layer metrics. The last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. See `perfbench/README.md`.

mod campaign;
mod day;
mod reference;
mod stats;
mod sweep;
mod train;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use bench::json::Json;

use crate::stats::{Ledger, Tally};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["sweep", "day-trace", "campaign"];

/// End-to-end metrics `(name, unit)`, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("sim_s_per_s", "sim-s/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, printed by every traced run. A
/// layer the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("workload.advance_ns", "ns"),
    ("workload.plan_us", "us"),
    ("mpsoc.tick_ns", "ns"),
    ("mpsoc.ticks", "count"),
    ("governors.observe_ns", "ns"),
    ("governors.control_ns.schedutil", "ns"),
    ("governors.control_ns.intqos", "ns"),
    ("governors.control_steps.schedutil", "count"),
    ("governors.control_steps.intqos", "count"),
    ("governors.control_steps.next", "count"),
    ("core.agent.control_ns", "ns"),
    ("core.agent.updates", "count"),
    ("simkit.engine.self_ns", "ns"),
    ("simkit.sweep.idle_frac", "fraction"),
    ("simkit.sweep.cell_p50_ms", "ms"),
    ("simkit.sweep.cell_p95_ms", "ms"),
    ("simkit.sweep.cells", "count"),
    ("simkit.trainer.train_s", "s"),
    ("simkit.trainer.converged", "count"),
    ("simkit.day.lane_tick_ns", "ns"),
    ("simkit.day.gap_ticks", "count"),
    ("simkit.day.session_ticks", "count"),
    ("simkit.trace.record_ns", "ns"),
    ("simkit.trace.resident_mb", "MB"),
    ("simkit.trace.encode_ns", "ns"),
    ("simkit.trace.decode_ns", "ns"),
    ("simkit.trace.bytes", "bytes"),
    ("simkit.trace.replay_s", "s"),
    ("simkit.campaign.round_s", "s"),
    ("simkit.campaign.checkpoint_bytes", "bytes"),
    ("simkit.campaign.uplink_kb_per_device_day", "KB"),
    ("qlearn.overlay.touched_rows", "count"),
    ("qlearn.overlay.resident_bytes", "bytes"),
    ("qlearn.codec.delta_encode_us", "us"),
    ("qlearn.codec.table_encode_ms", "ms"),
    ("qlearn.codec.replay_uplink_kb_per_device_day", "KB"),
    ("qlearn.federated.fold_us", "us"),
    ("qlearn.federated.finish_ms", "ms"),
    ("bench.render_ms", "ms"),
    ("bench.report.html_ms", "ms"),
    ("trace.layer_sum_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.reconcile_residual", "fraction"),
    ("trace.overhead", "fraction"),
];

/// Host time the reference kernel runs after each pass, as a share of
/// the pass's own.
const REFERENCE_SHARE: f64 = 0.1;

/// Set-up repeats until both floors are met; `setup_s` is the median
/// repetition. Training takes tens of milliseconds, so a single
/// repetition would be mostly scheduler noise.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MIN_S: f64 = 1.0;
const SETUP_MAX_REPS: usize = 200;

/// Runs a workload's set-up repeatedly and returns the last result with
/// the host seconds of every repetition.
pub(crate) fn repeat_setup<R>(mut setup: impl FnMut() -> R) -> (R, Vec<f64>) {
    let mut times = Vec::new();
    loop {
        let (r, s) = stats::timed(&mut setup);
        times.push(s);
        let enough = times.len() >= SETUP_MIN_REPS && times.iter().sum::<f64>() >= SETUP_MIN_S;
        if enough || times.len() >= SETUP_MAX_REPS {
            return (r, times);
        }
    }
}

/// What one measured pass hands back to the closed loop.
#[derive(Debug)]
pub(crate) struct Pass {
    /// Simulated device-seconds the pass advanced.
    pub sim_s: f64,
    /// Host seconds of the measured phase, checks excluded.
    pub wall: f64,
    /// Digest of every simulated statistic the pass produced.
    pub digest: String,
}

/// The closed loop of an untraced run: submits the whole input set
/// (`pass`, told whether it is the first) again and again until
/// `run.seconds` have passed, at least once. Every pass's digest must
/// equal the first's. After each pass the reference kernel runs for a
/// tenth of the pass's time; the host-time metrics are stated at the
/// nominal host speed (see `reference`). Records the end-to-end
/// metrics; peak memory is read after the first pass, the footprint of
/// one submission, because later passes only add the allocator
/// fragmentation that looping in one process leaves behind.
///
/// # Errors
///
/// Fails when the first pass fails, since there is then nothing to
/// report, or when peak memory cannot be read.
pub(crate) fn measure_passes(
    run: &Run,
    workload: &str,
    setup_s: &[f64],
    mut pass: impl FnMut(&mut Tally, bool) -> Option<Pass>,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut rates = Vec::new();
    let mut speeds = Vec::new();
    let mut first: Option<String> = None;
    let mut peak_rss_mb = 0.0;
    let started = stats::now();
    while rates.is_empty() || stats::secs(started.elapsed()) < run.seconds {
        let Some(p) = pass(&mut out.tally, first.is_none()) else {
            if rates.is_empty() {
                return Err(format!(
                    "the first {workload} pass failed: {:?}",
                    out.tally.messages
                ));
            }
            continue;
        };
        rates.push(p.sim_s / p.wall);
        match &first {
            None => {
                println!("sim_digest {workload} {}", p.digest);
                first = Some(p.digest);
                // Before the reference kernel allocates its table.
                peak_rss_mb = stats::peak_rss_mb()?;
            }
            Some(f) => out.tally.check(*f == p.digest, || {
                format!(
                    "{workload} digest {} differs from the first pass's {f}",
                    p.digest
                )
            }),
        }
        speeds.extend(
            reference::window_rates(run.workers, REFERENCE_SHARE * p.wall)
                .into_iter()
                .map(reference::host_speed),
        );
    }
    let speed = stats::median(&speeds);
    println!(
        "info {workload}: {} passes, sim-s/s per pass {rates:?}",
        rates.len()
    );
    println!(
        "info {workload}: host time, unscaled: set-up median {:.6} s, sim-s/s median {:.2}; host speed median {speed:.4} over {} reference windows",
        stats::median(setup_s),
        stats::median(&rates),
        speeds.len()
    );
    out.set("setup_s", stats::median(setup_s) * speed);
    out.set("sim_s_per_s", stats::median(&rates) / speed);
    out.set("peak_rss_mb", peak_rss_mb);
    Ok(out)
}

/// Prints each layer's share of `wall` and whether their sum
/// reconciles with it.
pub(crate) fn print_reconciliation(
    ledger: &Ledger,
    wall: f64,
    label: &str,
) -> stats::Reconciliation {
    for (layer, s) in ledger.layers() {
        println!(
            "layer {label} {layer}: {s:.6} s ({:.1} % of the traced wall)",
            100.0 * s / wall
        );
    }
    let r = stats::reconcile(ledger.sum(), wall);
    println!(
        "reconcile {label}: layer sum {:.6} s vs wall {:.6} s, residual {:+.2} % -> {}",
        r.layer_sum_s,
        r.wall_s,
        100.0 * r.residual,
        if r.ok {
            "reconciles"
        } else {
            "DOES NOT RECONCILE (beyond 10 %)"
        }
    );
    r
}

/// Prints the layer breakdown, the reconciliation and the tracing
/// overhead, and records them as metrics.
pub(crate) fn finish_trace(
    out: &mut Outcome,
    ledger: &Ledger,
    traced_wall: f64,
    untraced_wall: f64,
    workload: &str,
) {
    let r = print_reconciliation(ledger, traced_wall, workload);
    let overhead = traced_wall / untraced_wall - 1.0;
    println!(
        "overhead {workload}: traced {traced_wall:.6} s vs untraced {untraced_wall:.6} s, {:+.2} %",
        100.0 * overhead
    );
    out.set("trace.layer_sum_s", r.layer_sum_s);
    out.set("trace.wall_s", r.wall_s);
    out.set("trace.reconcile_residual", r.residual);
    out.set("trace.overhead", overhead);
}

/// What a workload needs to know about the run it is part of.
#[derive(Debug, Clone)]
pub(crate) struct Run {
    /// Workload seed: every input is derived from it.
    pub seed: u64,
    /// Measurement time, host seconds.
    pub seconds: f64,
    /// Worker threads handed to the library.
    pub workers: usize,
    /// Directory for the artifacts a pass writes, inside the checkout.
    pub tmp: PathBuf,
}

/// What a workload run reports back.
#[derive(Debug, Default)]
pub(crate) struct Outcome {
    pub tally: Tally,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub(crate) fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got '{value}'")),
                });
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (available: {})",
            WORKLOADS.join(", ")
        ));
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Renders the result line. Every expected metric must be present and
/// no other; a traced run fills layers its workload never reached with
/// 0.
pub(crate) fn result_line(outcome: &Outcome, trace: bool) -> Result<String, String> {
    let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    for name in outcome.metrics.keys() {
        if !list.iter().any(|(n, _)| n == name) {
            return Err(format!("workload produced unlisted metric '{name}'"));
        }
    }
    let mut metrics = Vec::with_capacity(list.len());
    for &(name, unit) in list {
        let value = match outcome.metrics.get(name) {
            Some(&v) => v,
            None if trace => 0.0,
            None => return Err(format!("end-to-end metric '{name}' was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric '{name}' is not finite: {value}"));
        }
        println!("metric {name} = {value} {unit}");
        metrics.push((
            name.to_owned(),
            Json::Obj(vec![
                ("value".to_owned(), Json::num(value)),
                ("unit".to_owned(), Json::str(unit)),
            ]),
        ));
    }
    let tally = &outcome.tally;
    println!(
        "error_rate = {} ({} failed / {} attempted)",
        tally.error_rate(),
        tally.failed,
        tally.attempted
    );
    for message in &tally.messages {
        println!("failure: {message}");
    }
    Ok(Json::Obj(vec![
        ("correct".to_owned(), Json::Bool(tally.failed == 0)),
        ("attempted".to_owned(), Json::num_u64(tally.attempted)),
        ("failed".to_owned(), Json::num_u64(tally.failed)),
        ("metrics".to_owned(), Json::Obj(metrics)),
    ])
    .render())
}

/// Parses the command line, runs the workload and prints the result
/// line; see the crate documentation.
pub fn run_cli() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let tmp =
        PathBuf::from(".perfbench_tmp").join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: cannot create {}: {e}", tmp.display());
        return ExitCode::from(1);
    }
    let run = Run {
        seed: args.seed,
        seconds: args.seconds as f64,
        workers,
        tmp: tmp.clone(),
    };
    println!(
        "perfbench: workload {} seed {} for {} s, {} mode, {workers} workers (available_parallelism)",
        args.workload,
        args.seed,
        args.seconds,
        if args.trace { "traced" } else { "untraced" }
    );
    let outcome = match (args.workload.as_str(), args.trace) {
        ("sweep", false) => sweep::measure(&run),
        ("sweep", true) => sweep::trace(&run),
        ("day-trace", false) => day::measure(&run),
        ("day-trace", true) => day::trace(&run),
        ("campaign", false) => campaign::measure(&run),
        ("campaign", true) => campaign::trace(&run),
        _ => unreachable!("workload names are validated in parse_args"),
    };
    // The artifacts are only written to be timed; leave nothing behind.
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = std::fs::remove_dir(".perfbench_tmp");
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    match result_line(&outcome, args.trace) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn metric_names_match_the_allowed_pattern_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "bad metric name '{name}'");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit '{unit}' of '{name}'"
            );
            assert!(seen.insert(*name), "metric '{name}' listed twice");
        }
        for w in WORKLOADS {
            assert!(valid_name(w), "bad workload name '{w}'");
        }
    }

    #[test]
    fn result_line_prints_exactly_the_listed_metrics() {
        let mut outcome = Outcome::default();
        outcome.tally.ok(4);
        for (name, _) in END_TO_END {
            outcome.set(name, 1.5);
        }
        let line = result_line(&outcome, false).expect("complete metric set");
        let doc = Json::parse(&line).expect("result line is JSON");
        let metrics = doc.get("metrics").expect("metrics");
        for (name, unit) in END_TO_END {
            let m = metrics.get(name).expect("listed metric printed");
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit));
        }
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(4));

        // An unlisted metric or a missing end-to-end one is an error.
        outcome.set("mpsoc.tick_ns", 1.0);
        assert!(result_line(&outcome, false).is_err());
        let mut partial = Outcome::default();
        partial.set("setup_s", 1.0);
        assert!(result_line(&partial, false).is_err());
        // A traced run fills unexercised layers with 0.
        let traced = result_line(&Outcome::default(), true).expect("zero-filled");
        let doc = Json::parse(&traced).expect("JSON");
        let metrics = doc.get("metrics").expect("metrics");
        for (name, _) in PER_LAYER {
            assert!(metrics.get(name).is_some(), "{name} missing");
        }
    }
}
