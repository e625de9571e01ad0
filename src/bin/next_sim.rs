//! `next-sim` — command-line front end for the simulated platform.
//!
//! ```text
//! next-sim run     --app <name> --governor <schedutil|intqos|next|performance|powersave|ondemand>
//!                  [--duration <s>] [--seed <n>] [--train-budget <s>] [--table <file>]
//! next-sim train   --app <name> [--budget <s>] [--seed <n>] [--out <file>]
//! next-sim compare --app <name> [--duration <s>] [--seed <n>] [--train-budget <s>]
//!                  [--table <file>]
//! next-sim sweep   [--apps <a,b,..|all>] [--governors <g,h,..>] [--seeds <n,m,..>]
//!                  [--duration <s>] [--train-budget <s>] [--workers <n>]
//! next-sim perf    [--quick] [--out <BENCH.json>] [--baseline <file>]
//!                  [--min-ratio <f>] [--workers <n>]
//! next-sim fleet   --devices <D> --rounds <R> --seed <S> [--app <name>]
//!                  [--round-budget <s>] [--quick] [--workers <n>] [--out <fleet.json>]
//! next-sim campaign --devices <D> --rounds <R> --seed <S> [--checkpoint <dir> [--resume]]
//!                  [--stop-after <n>] [--shard-size <n>] [--platform <name>[,<name>..]]
//!                  [--quick] [--workers <n>] [--out <campaign.json>]
//! next-sim day     [--persona <p,q,..>] [--governors <g,h,..>] [--seed <n>|--seeds <n,m,..>]
//!                  [--pickups <n>] [--day-length <s>] [--train-budget <s>]
//!                  [--platform <name>] [--quick] [--workers <n>] [--out <day.json>]
//!                  [--trace <day.trace>] [--report <day.html>]
//! next-sim replay  --trace <day.trace> [--workers <n>]
//! next-sim bisect  --a <one.trace> --b <other.trace>
//! next-sim lint    [--format text|json] [--out <lint.json>] [--root <dir>]
//! next-sim apps
//! ```

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

use next_mpsoc::bench::{
    campaign as bench_campaign, day as bench_day, fleet as bench_fleet, json::Json, perf, report,
    stopwatch::Stopwatch,
};
use next_mpsoc::governors::{self, IntQosPm, Schedutil};
use next_mpsoc::next_core::{NextAgent, NextConfig};
use next_mpsoc::qlearn::DenseQTable;
use next_mpsoc::simkit::campaign::{
    run_campaign_with, CampaignConfig, CampaignOptions, CampaignOutcome,
};
use next_mpsoc::simkit::experiment::{evaluate_governor, train_next_for_app};
use next_mpsoc::simkit::fleet::{self, FleetConfig};
use next_mpsoc::simkit::trace::{bisect, TickTrace};
use next_mpsoc::simkit::{day, sweep, Battery, PlatformPreset, StandardEvaluator, Summary};
use next_mpsoc::workload::{apps, DayPlan, DayPlanConfig, Persona, SessionPlan};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let flags = match parse_flags(command, &args[1..]) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command.as_str() {
        "run" => cmd_run(&flags),
        "train" => cmd_train(&flags),
        "compare" => cmd_compare(&flags),
        "sweep" => cmd_sweep(&flags),
        "perf" => cmd_perf(&flags),
        "fleet" => cmd_fleet(&flags),
        "campaign" => cmd_campaign(&flags),
        "day" => cmd_day(&flags),
        "replay" => cmd_replay(&flags),
        "bisect" => cmd_bisect(&flags),
        "lint" => cmd_lint(&flags),
        "personas" => {
            for &name in Persona::names() {
                let persona = Persona::by_name(name).expect("shipped persona");
                println!("{name}: apps=[{}]", persona.apps().join(", "));
            }
            Ok(())
        }
        "apps" => {
            println!("home");
            for app in apps::all() {
                println!("{}", app.name());
            }
            Ok(())
        }
        "platforms" => {
            for &name in PlatformPreset::names() {
                let preset = PlatformPreset::by_name(name).expect("shipped preset");
                let platform = &preset.soc.platform;
                let domains: Vec<String> = platform
                    .domains()
                    .iter()
                    .map(|d| format!("{}({})", d.name, d.table.len()))
                    .collect();
                println!(
                    "{name}: m={} actions={} domains=[{}]",
                    platform.n_domains(),
                    platform.action_count(),
                    domains.join(", ")
                );
            }
            Ok(())
        }
        // `parse_flags` admits no other command.
        _ => {
            println!("{USAGE}");
            Ok(())
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        // Runtime failures (a lint finding, a tripped perf gate, a replay
        // divergence) are not usage errors: keep the log readable.
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "next-sim: simulate DVFS governors on the Exynos 9810 platform

USAGE:
  next-sim run     --app <name> --governor <gov> [--duration <s>] [--seed <n>]
                   [--train-budget <s>] [--table <file.qtable>]
  next-sim train   --app <name> [--budget <s>] [--seed <n>] [--out <file.qtable>]
  next-sim compare --app <name> [--duration <s>] [--seed <n>] [--train-budget <s>]
                   [--table <file.qtable>]
  next-sim sweep   [--apps <a,b,..|all>] [--governors <g,h,..>] [--seeds <n,m,..>]
                   [--duration <s>] [--train-budget <s>] [--workers <n>]
                   [--platform <name>]
  next-sim perf    [--quick] [--out <BENCH.json>] [--baseline <file>]
                   [--min-ratio <f>] [--workers <n>] [--platform <name>]
  next-sim fleet   [--devices <D>] [--rounds <R>] [--seed <S>] [--app <name>]
                   [--round-budget <s>] [--quick] [--workers <n>] [--out <fleet.json>]
                   [--platform <name>[,<name>..]]
  next-sim campaign [--devices <D>] [--rounds <R>] [--seed <S>]
                   [--checkpoint <dir> [--resume]] [--stop-after <n>]
                   [--shard-size <n>] [--platform <name>[,<name>..]]
                   [--quick] [--workers <n>] [--out <campaign.json>]
  next-sim day     [--persona <p,q,..>] [--governors <g,h,..>] [--seed <n>|--seeds <n,m,..>]
                   [--pickups <n>] [--day-length <s>] [--train-budget <s>]
                   [--platform <name>] [--quick] [--workers <n>] [--out <day.json>]
                   [--trace <day.trace>] [--report <day.html>]
  next-sim replay  --trace <day.trace> [--workers <n>]
  next-sim bisect  --a <one.trace> --b <other.trace>
  next-sim lint    [--format text|json] [--out <lint.json>] [--root <dir>]
  next-sim apps
  next-sim platforms
  next-sim personas

governors: schedutil | intqos | next | performance | powersave | ondemand
platforms: exynos9810 (default, m=3, 9 actions) | exynos9820 (m=4, 12 actions)
personas: gamer | socialite | commuter | reader

sweep runs the full governor x app x seed grid in parallel (defaults:
the six paper apps, schedutil+intqos+next, seed 1000, paper session
lengths, all CPU cores) and prints a deterministic report — identical
bytes for any --workers value.

perf runs a fixed measurement grid plus the batched-kernel, campaign,
Q-table backend, merge, overlay and per-call hot-path probes (every
timing a median over sampled rounds, with its IQR) and writes a
machine-readable BENCH.json (--out, default stdout). With --baseline
it exits non-zero when aggregate throughput falls below --min-ratio
(default 0.5) of the baseline's ticks_per_sec — the CI perf gate.
--quick selects the small smoke grid.

fleet simulates federated training (§IV-C at scale): D heterogeneous
devices (per-device SoC power/thermal bins and users) train the app
locally for R rounds, the cloud streaming-merges their Q-tables each
round, and the merged table is scored on a held-out session grid.
--platform takes a comma list: devices are assigned platforms
round-robin and the cloud keeps one federated table per platform. The
JSON artifact (--out, default stdout) is byte-identical for a fixed
--seed across any --workers value (schema v2 for the default
homogeneous exynos9810 fleet, v3 otherwise). --quick shortens the
local rounds for CI smoke runs.

campaign scales the federated loop to whole days: every round each
device lives its persona's full day (pickups, session plans,
screen-off cooling) on its own SoC bin while training online, uploads
its binary Q-table delta (the NXQT codec — uplink cost is the actual
encoded bytes), and the cloud merges per (platform, app). Devices run
in shards so memory stays bounded at any fleet size. With --checkpoint
a versioned NXCP checkpoint is written after every round; --resume
continues a killed campaign from it, and the final campaign.json
(schema v6: rounds ledger, persona x platform x thermal-bin cohort
quantiles, merged-table artifacts) is byte-identical to an
uninterrupted run for any --workers value. --stop-after N exits
gracefully at a round boundary (the kill half of kill-and-resume);
--quick shrinks days for CI smoke runs. See docs/CAMPAIGN.md.

day simulates a whole waking day (default: 52 pickups, the paper's
Deloitte statistic) as one continuous device: persona-driven app
choices, Deloitte session lengths, screen-off gaps that keep the
thermal model ticking, and per-app Q-tables trained once and reused
(SS IV-B). Every governor replays the identical day, so the JSON
artifact's deltas section is a true battery-day comparison (defaults:
persona gamer, governors next+schedutil, seed 42). Byte-identical
across --workers values. --quick compresses sessions 6x over a 2 h
day for CI smoke runs.

day can also record per-tick traces: --trace writes the first
(plan, governor) cell's binary trace (docs/TRACE_FORMAT.md) and
--report renders every cell into one self-contained HTML viewer
(timeline, thermal traces, per-session PPDW, action heatmap).

replay re-executes a recorded day from the trace's metadata alone and
exits non-zero unless the regenerated trace is byte-identical to the
file — the repository's determinism gate. bisect compares two traces
and reports the first divergent tick with a field-level diff.

lint statically checks every non-vendored .rs file of the workspace
against the determinism rule catalog (docs/LINT.md): ambient time and
entropy, unordered iteration in artifact-producing crates,
completion-order harvesting, panics in library code, unsafe blocks.
Exemptions need an inline `// qlint::allow(RULE, reason = \"...\")`
marker. Exits non-zero on any unsuppressed finding; --format json
writes the versioned lint.json CI archives. Deterministic: identical
bytes for identical trees.

sweep/perf/fleet/campaign/day accept --platform to run on a different
SoC preset; run/train/compare always use the paper's exynos9810.";

type Flags = HashMap<String, String>;

/// Flags that take no value; every other flag still requires one, so a
/// forgotten value stays a hard usage error.
const BOOLEAN_FLAGS: [&str; 2] = ["quick", "resume"];

/// The flags `command` takes, as USAGE lists them, or `None` for an
/// unknown command.
fn accepted_flags(command: &str) -> Option<&'static [&'static str]> {
    Some(match command {
        "run" => &[
            "app",
            "governor",
            "duration",
            "seed",
            "train-budget",
            "table",
        ],
        "train" => &["app", "budget", "seed", "out"],
        "compare" => &["app", "duration", "seed", "train-budget", "table"],
        "sweep" => &[
            "apps",
            "governors",
            "seeds",
            "duration",
            "train-budget",
            "workers",
            "platform",
        ],
        "perf" => &[
            "quick",
            "out",
            "baseline",
            "min-ratio",
            "workers",
            "platform",
        ],
        "fleet" => &[
            "devices",
            "rounds",
            "seed",
            "app",
            "round-budget",
            "quick",
            "workers",
            "out",
            "platform",
        ],
        "campaign" => &[
            "devices",
            "rounds",
            "seed",
            "checkpoint",
            "resume",
            "stop-after",
            "shard-size",
            "platform",
            "quick",
            "workers",
            "out",
        ],
        "day" => &[
            "persona",
            "governors",
            "seed",
            "seeds",
            "pickups",
            "day-length",
            "train-budget",
            "platform",
            "quick",
            "workers",
            "out",
            "trace",
            "report",
        ],
        "replay" => &["trace", "workers"],
        "bisect" => &["a", "b"],
        "lint" => &["format", "out", "root"],
        "apps" | "platforms" | "personas" | "help" | "--help" | "-h" => &[],
        _ => return None,
    })
}

/// Parses `command`'s `--flag value` pairs, rejecting an unknown
/// command and any flag the command does not take: a misspelt or
/// misplaced flag is a usage error, never silently ignored.
fn parse_flags(command: &str, args: &[String]) -> Result<Flags, String> {
    let accepted = accepted_flags(command).ok_or_else(|| format!("unknown command '{command}'"))?;
    let mut flags = Flags::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return Err(format!("expected a --flag, got '{flag}'"));
        };
        if !accepted.contains(&name) {
            return Err(format!("{command} takes no --{name}"));
        }
        let value = if BOOLEAN_FLAGS.contains(&name) {
            "true".to_owned()
        } else {
            it.next()
                .ok_or_else(|| format!("--{name} needs a value"))?
                .clone()
        };
        flags.insert(name.to_owned(), value);
    }
    Ok(flags)
}

fn get_f64(flags: &Flags, name: &str, default: f64) -> Result<f64, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{name}: '{v}' is not a number")),
    }
}

fn get_u64(flags: &Flags, name: &str, default: u64) -> Result<u64, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{name}: '{v}' is not an integer")),
    }
}

/// `--workers <n>` (at least 1), or `default` when absent.
fn get_workers(flags: &Flags, default: usize) -> Result<usize, String> {
    let workers = usize::try_from(get_u64(flags, "workers", default as u64)?)
        .map_err(|_| "--workers out of range".to_owned())?;
    if workers == 0 {
        return Err("--workers must be at least 1".to_owned());
    }
    Ok(workers)
}

fn require_platform(flags: &Flags) -> Result<PlatformPreset, String> {
    match flags.get("platform") {
        None => Ok(PlatformPreset::default()),
        Some(name) => PlatformPreset::by_name(name).ok_or_else(|| {
            format!(
                "unknown platform '{name}' (available: {})",
                PlatformPreset::names().join(", ")
            )
        }),
    }
}

/// The comma-separated `--platform` list: distinct shipped preset
/// names, or `None` when the flag is absent.
fn parse_platforms(flags: &Flags) -> Result<Option<Vec<String>>, String> {
    let Some(list) = flags.get("platform") else {
        return Ok(None);
    };
    let platforms: Vec<String> = list
        .split(',')
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .collect();
    if platforms.is_empty() {
        return Err("--platform needs at least one name".to_owned());
    }
    for (i, name) in platforms.iter().enumerate() {
        if PlatformPreset::by_name(name).is_none() {
            return Err(format!(
                "unknown platform '{name}' (available: {})",
                PlatformPreset::names().join(", ")
            ));
        }
        if platforms[..i].contains(name) {
            return Err(format!("--platform lists '{name}' twice"));
        }
    }
    Ok(Some(platforms))
}

/// Writes `text` to `--out` (noting the path on stderr under
/// `command`), or prints it to stdout when there is no `--out`.
fn write_out(flags: &Flags, command: &str, text: &str) -> Result<(), String> {
    match flags.get("out") {
        Some(path) => {
            std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("{command}: wrote {path}");
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn require_app(flags: &Flags) -> Result<String, String> {
    let app = flags.get("app").ok_or("--app is required")?;
    if apps::by_name(app).is_none() {
        return Err(format!("unknown app '{app}' (see `next-sim apps`)"));
    }
    Ok(app.clone())
}

fn print_summary(label: &str, s: &Summary) {
    let battery = Battery::note9();
    println!(
        "{label:12} {:6.2} W avg | {:5.1} fps | peak big {:5.1} C, device {:5.1} C | \
         {:6.0} J ({:.2} % battery)",
        s.avg_power_w,
        s.avg_fps,
        s.peak_temp_hot_c,
        s.peak_temp_device_c,
        s.energy_j,
        battery.drain_percent(s.energy_j)
    );
}

fn make_next_agent(app: &str, flags: &Flags) -> Result<NextAgent, String> {
    if let Some(path) = flags.get("table") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let table = DenseQTable::decode(&text).map_err(|e| format!("parsing {path}: {e}"))?;
        return Ok(NextAgent::with_table(NextConfig::paper(), table, false));
    }
    let budget = get_f64(flags, "train-budget", 600.0)?;
    let seed = get_u64(flags, "seed", 7)?;
    eprintln!("training next on {app} (budget {budget} simulated s) ...");
    let out = train_next_for_app(app, NextConfig::paper(), seed, budget);
    eprintln!(
        "trained {:.0} s (converged: {}), {} states",
        out.training_time_s,
        out.converged,
        out.agent.table().len()
    );
    Ok(out.agent)
}

fn cmd_run(flags: &Flags) -> Result<(), String> {
    let app = require_app(flags)?;
    let duration = get_f64(flags, "duration", SessionPlan::paper_session_length_s(&app))?;
    let seed = get_u64(flags, "seed", 1000)?;
    let plan = SessionPlan::single(&app, duration);
    let gov_name = flags.get("governor").map_or("schedutil", String::as_str);

    let summary = if gov_name == "next" {
        let mut agent = make_next_agent(&app, flags)?;
        evaluate_governor(&mut agent, &plan, seed).summary
    } else {
        let mut governor =
            governors::by_name(gov_name).ok_or_else(|| format!("unknown governor '{gov_name}'"))?;
        evaluate_governor(governor.as_mut(), &plan, seed).summary
    };
    println!("app {app}, {duration:.0} s session, seed {seed}");
    print_summary(gov_name, &summary);
    Ok(())
}

fn cmd_train(flags: &Flags) -> Result<(), String> {
    let app = require_app(flags)?;
    let budget = get_f64(flags, "budget", 600.0)?;
    let seed = get_u64(flags, "seed", 7)?;
    let out = train_next_for_app(&app, NextConfig::paper(), seed, budget);
    println!(
        "trained {app}: {:.0} simulated s, converged: {}, {} states, {} visits",
        out.training_time_s,
        out.converged,
        out.agent.table().len(),
        out.agent.table().total_visits()
    );
    if let Some(path) = flags.get("out") {
        std::fs::write(path, out.agent.table().encode())
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("table written to {path}");
    }
    Ok(())
}

/// Parses the comma-separated `--seeds` list, falling back to
/// `default` when the flag is absent.
fn parse_seeds(flags: &Flags, default: Vec<u64>) -> Result<Vec<u64>, String> {
    match flags.get("seeds") {
        None => Ok(default),
        Some(v) => v
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .map_err(|_| format!("--seeds: '{s}' is not an integer"))
            })
            .collect(),
    }
}

fn parse_list(flags: &Flags, name: &str, default: Vec<String>) -> Vec<String> {
    match flags.get(name) {
        None => default,
        Some(v) => v
            .split(',')
            .map(|s| s.trim().to_owned())
            .filter(|s| !s.is_empty())
            .collect(),
    }
}

fn cmd_sweep(flags: &Flags) -> Result<(), String> {
    // `apps::all()` is exactly the paper's Fig. 7 grid; `all` also
    // includes the home screen.
    let paper_apps: Vec<String> = apps::all().iter().map(|a| a.name().to_owned()).collect();
    let apps_list: Vec<String> = match flags.get("apps").map(String::as_str) {
        Some("all") => std::iter::once("home".to_owned())
            .chain(paper_apps)
            .collect(),
        _ => parse_list(flags, "apps", paper_apps),
    };
    for app in &apps_list {
        if apps::by_name(app).is_none() {
            return Err(format!("unknown app '{app}' (see `next-sim apps`)"));
        }
    }
    let default_governors = ["schedutil", "intqos", "next"].map(str::to_owned).to_vec();
    let governors = parse_list(flags, "governors", default_governors);
    for gov in &governors {
        if !StandardEvaluator::GOVERNORS.contains(&gov.as_str()) {
            return Err(format!("unknown governor '{gov}'"));
        }
    }
    let seeds = parse_seeds(flags, vec![1000])?;
    let mut duration = None;
    if flags.contains_key("duration") {
        let d = get_f64(flags, "duration", 0.0)?;
        // Shorter than one 25 ms tick would produce an empty trace,
        // which cannot be summarised.
        if !d.is_finite() || d < 0.025 {
            return Err(format!("--duration must be at least 0.025 s, got {d}"));
        }
        duration = Some(d);
    }
    let train_budget = get_f64(
        flags,
        "train-budget",
        StandardEvaluator::BASE_TRAIN_BUDGET_S,
    )?;
    let workers = get_workers(flags, sweep::default_workers())?;

    let preset = require_platform(flags)?;
    let cells = sweep::grid(&apps_list, &governors, &seeds, duration);
    eprintln!(
        "sweeping {} cells ({} apps x {} governors x {} seeds) on {workers} workers, \
         platform {} ...",
        cells.len(),
        apps_list.len(),
        governors.len(),
        seeds.len(),
        preset.name
    );
    let started = Stopwatch::start();
    let evaluator = StandardEvaluator::prepare_on(&cells, train_budget, workers, preset);
    let rows = sweep::run_cells(&cells, workers, |cell| evaluator.eval(cell));
    eprintln!("sweep finished in {:.1} s wall clock", started.elapsed_s());
    print!("{}", sweep::report(&rows));
    Ok(())
}

fn cmd_perf(flags: &Flags) -> Result<(), String> {
    let mut config = if flags.contains_key("quick") {
        perf::PerfConfig::quick()
    } else {
        perf::PerfConfig::full()
    };
    config.platform = require_platform(flags)?.name;
    config.workers = get_workers(flags, config.workers)?;
    let min_ratio = get_f64(flags, "min-ratio", 0.5)?;
    if !(min_ratio > 0.0 && min_ratio.is_finite()) {
        return Err(format!("--min-ratio must be positive, got {min_ratio}"));
    }

    eprintln!(
        "perf: {} grid on {}, {} apps x {} governors x {} seeds, {} workers ...",
        config.mode,
        config.platform,
        config.apps.len(),
        config.governors.len(),
        config.seeds.len(),
        config.workers
    );
    let report = perf::run(&config);
    eprintln!(
        "perf: {} cells in {:.2} s (train {:.2} s), {:.0} ticks/s aggregate",
        report.cells.len(),
        report.grid_wall_s,
        report.train_wall_s,
        perf::throughput_ticks_per_sec(&report)
    );
    if let Some(speedup) = report.dense_speedup() {
        eprintln!("perf: dense backend {speedup:.2}x faster than hash on argmax+update");
    }

    let text = report.to_json().render();
    debug_assert!(Json::parse(&text).is_ok(), "BENCH.json must be valid JSON");
    write_out(flags, "perf", &format!("{text}\n"))?;

    if let Some(baseline_path) = flags.get("baseline") {
        let baseline = std::fs::read_to_string(baseline_path)
            .map_err(|e| format!("reading {baseline_path}: {e}"))?;
        let verdict = perf::check_floor(&report, &baseline, min_ratio)
            .map_err(|e| format!("perf gate: {e}"))?;
        eprintln!("perf gate: {verdict}");
    }
    Ok(())
}

fn cmd_fleet(flags: &Flags) -> Result<(), String> {
    let app = match flags.get("app") {
        None => "facebook".to_owned(),
        Some(app) => {
            if apps::by_name(app).is_none() {
                return Err(format!("unknown app '{app}' (see `next-sim apps`)"));
            }
            app.clone()
        }
    };
    let devices = usize::try_from(get_u64(flags, "devices", 16)?)
        .map_err(|_| "--devices out of range".to_owned())?;
    let rounds = usize::try_from(get_u64(flags, "rounds", 5)?)
        .map_err(|_| "--rounds out of range".to_owned())?;
    if devices == 0 || rounds == 0 {
        return Err("--devices and --rounds must be at least 1".to_owned());
    }
    let seed = get_u64(flags, "seed", 42)?;
    let quick = flags.contains_key("quick");
    let mut config = if quick {
        FleetConfig::quick(&app, devices, rounds, seed)
    } else {
        FleetConfig::new(&app, devices, rounds, seed)
    };
    if let Some(platforms) = parse_platforms(flags)? {
        config = config.with_platforms(platforms);
    }
    if flags.contains_key("round-budget") {
        let budget = get_f64(flags, "round-budget", config.round_budget_s)?;
        if !(budget > 0.0 && budget.is_finite()) {
            return Err(format!("--round-budget must be positive, got {budget}"));
        }
        config.round_budget_s = budget;
    }
    let workers = get_workers(flags, sweep::default_workers())?;

    eprintln!(
        "fleet: {devices} devices x {rounds} rounds on {app} ({}), \
         {:.0} s local budget per round, {workers} workers ...",
        config.platforms.join("+"),
        config.round_budget_s
    );
    let started = Stopwatch::start();
    let report = fleet::run_fleet(&config, workers);
    eprintln!(
        "fleet: finished in {:.1} s wall clock; final tables {} states / {} visits",
        started.elapsed_s(),
        report.total_states(),
        report.total_visits()
    );
    for round in &report.rounds {
        eprintln!(
            "fleet: round {}: {} states, {:.1} fps / {:.2} W / ppdw {:.3} on held-out grid, \
             modeled round time {:.0} s ({:.0} s comm)",
            round.round,
            round.states,
            round.eval.avg_fps,
            round.eval.avg_power_w,
            round.eval.ppdw,
            round.round_time_s,
            round.comm_s
        );
    }

    let mode = if quick { "quick" } else { "full" };
    let text = bench_fleet::fleet_to_json(&report, mode).render();
    debug_assert!(
        bench_fleet::parse_document(&text).is_ok(),
        "fleet.json must round-trip its own schema"
    );
    write_out(flags, "fleet", &format!("{text}\n"))
}

#[allow(clippy::too_many_lines)]
fn cmd_campaign(flags: &Flags) -> Result<(), String> {
    let devices = usize::try_from(get_u64(flags, "devices", 64)?)
        .map_err(|_| "--devices out of range".to_owned())?;
    let rounds = usize::try_from(get_u64(flags, "rounds", 2)?)
        .map_err(|_| "--rounds out of range".to_owned())?;
    if devices == 0 || rounds == 0 {
        return Err("--devices and --rounds must be at least 1".to_owned());
    }
    let seed = get_u64(flags, "seed", 42)?;
    let quick = flags.contains_key("quick");
    let mut config = if quick {
        CampaignConfig::quick(devices, rounds, seed)
    } else {
        CampaignConfig::new(devices, rounds, seed)
    };
    if let Some(platforms) = parse_platforms(flags)? {
        let refs: Vec<&str> = platforms.iter().map(String::as_str).collect();
        config = config.with_platforms(&refs);
    }
    if flags.contains_key("shard-size") {
        let shard = usize::try_from(get_u64(flags, "shard-size", config.shard_size as u64)?)
            .map_err(|_| "--shard-size out of range".to_owned())?;
        if shard == 0 {
            return Err("--shard-size must be at least 1".to_owned());
        }
        config.shard_size = shard;
    }
    let workers = get_workers(flags, sweep::default_workers())?;
    let options = CampaignOptions {
        checkpoint_dir: flags.get("checkpoint").map(PathBuf::from),
        resume: flags.contains_key("resume"),
        stop_after: if flags.contains_key("stop-after") {
            let n = usize::try_from(get_u64(flags, "stop-after", 0)?)
                .map_err(|_| "--stop-after out of range".to_owned())?;
            if n == 0 {
                return Err("--stop-after must be at least 1".to_owned());
            }
            Some(n)
        } else {
            None
        },
    };
    if options.resume && options.checkpoint_dir.is_none() {
        return Err("--resume needs --checkpoint <dir>".to_owned());
    }
    if options.stop_after.is_some() && options.checkpoint_dir.is_none() {
        return Err(
            "--stop-after needs --checkpoint <dir> (there is nothing to resume from \
                    otherwise)"
                .to_owned(),
        );
    }

    eprintln!(
        "campaign: {devices} devices x {rounds} rounds on {} ({} cohorts, shard {}), \
         {workers} workers{} ...",
        config.platforms.join("+"),
        config.cohort_count(),
        config.shard_size,
        if options.resume { ", resuming" } else { "" }
    );
    let started = Stopwatch::start();
    let report = match run_campaign_with(&config, workers, &options)? {
        CampaignOutcome::Paused { rounds_done } => {
            eprintln!(
                "campaign: paused after {rounds_done}/{rounds} round(s), checkpoint on disk; \
                 rerun with --resume to continue"
            );
            return Ok(());
        }
        CampaignOutcome::Complete(report) => report,
    };
    eprintln!(
        "campaign: finished in {:.1} s wall clock; {} device-days, {} merged tables",
        started.elapsed_s(),
        report.device_days(),
        report.tables.len()
    );
    for round in &report.rounds {
        eprintln!(
            "campaign: round {}: {} states / {} visits merged, {} B up / {} B down \
             ({:.1} s comm)",
            round.round,
            round.states,
            round.visits,
            round.uplink_bytes,
            round.downlink_bytes,
            round.comm_s
        );
    }

    let mode = if quick { "quick" } else { "full" };
    let text = bench_campaign::campaign_to_json(&report, mode).render();
    debug_assert!(
        bench_fleet::parse_document(&text).is_ok(),
        "campaign.json must round-trip its own schema"
    );
    write_out(flags, "campaign", &format!("{text}\n"))
}

#[allow(clippy::too_many_lines)]
fn cmd_day(flags: &Flags) -> Result<(), String> {
    let personas = parse_list(flags, "persona", vec!["gamer".to_owned()]);
    for persona in &personas {
        if Persona::by_name(persona).is_none() {
            return Err(format!(
                "unknown persona '{persona}' (available: {})",
                Persona::names().join(", ")
            ));
        }
    }
    let default_governors = ["next", "schedutil"].map(str::to_owned).to_vec();
    let governors = parse_list(flags, "governors", default_governors);
    for gov in &governors {
        if !StandardEvaluator::GOVERNORS.contains(&gov.as_str()) {
            return Err(format!("unknown governor '{gov}'"));
        }
    }
    let seeds = parse_seeds(flags, vec![get_u64(flags, "seed", 42)?])?;
    let quick = flags.contains_key("quick");
    let mut plan_cfg = if quick {
        DayPlanConfig::quick()
    } else {
        DayPlanConfig::paper()
    };
    if flags.contains_key("pickups") {
        let pickups = get_u64(flags, "pickups", u64::from(plan_cfg.pickups))?;
        plan_cfg.pickups = u32::try_from(pickups).map_err(|_| "--pickups out of range")?;
        if plan_cfg.pickups == 0 {
            return Err("--pickups must be at least 1".to_owned());
        }
    }
    if flags.contains_key("day-length") {
        let len = get_f64(flags, "day-length", plan_cfg.day_length_s)?;
        if !(len > 0.0 && len.is_finite()) {
            return Err(format!("--day-length must be positive, got {len}"));
        }
        plan_cfg.day_length_s = len;
    }
    // Same feasibility rule DayPlan::generate enforces, surfaced as a
    // usage error instead of a panic.
    plan_cfg.validate()?;
    let train_budget = get_f64(
        flags,
        "train-budget",
        if quick {
            120.0
        } else {
            StandardEvaluator::BASE_TRAIN_BUDGET_S
        },
    )?;
    if !(train_budget > 0.0 && train_budget.is_finite()) {
        return Err(format!(
            "--train-budget must be positive, got {train_budget}"
        ));
    }
    let preset = require_platform(flags)?;
    let workers = get_workers(flags, sweep::default_workers())?;

    let plans: Vec<DayPlan> = personas
        .iter()
        .flat_map(|persona| {
            let persona = Persona::by_name(persona).expect("validated above");
            seeds
                .iter()
                .map(move |&seed| DayPlan::generate(&persona, &plan_cfg, seed))
                .collect::<Vec<_>>()
        })
        .collect();
    eprintln!(
        "day: {} plan(s) x {} governor(s) on {}: {} pickups over {:.1} h, {workers} workers ...",
        plans.len(),
        governors.len(),
        preset.name,
        plan_cfg.pickups,
        plan_cfg.day_length_s / 3_600.0
    );
    let started = Stopwatch::start();
    // Tracing is opt-in: without --trace/--report the untraced path
    // runs and the recording hook compiles down to nothing.
    let tracing = flags.contains_key("trace") || flags.contains_key("report");
    let (reports, traces) = if tracing {
        let cells = day::run_days_traced(&plans, &governors, &preset, 1.0, train_budget, workers);
        let (reports, traces): (Vec<_>, Vec<_>) = cells.into_iter().unzip();
        (reports, Some(traces))
    } else {
        let reports = day::run_days(&plans, &governors, &preset, 1.0, train_budget, workers);
        (reports, None)
    };
    eprintln!("day: finished in {:.1} s wall clock", started.elapsed_s());
    if let Some(traces) = &traces {
        if let Some(path) = flags.get("trace") {
            // One file, one scenario: the first (plan, governor) cell.
            let trace = traces.first().expect("at least one cell");
            std::fs::write(path, trace.encode()).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!(
                "day: wrote {path} ({} ticks, cell {} seed {} under {})",
                trace.records.len(),
                trace.meta.persona,
                trace.meta.seed,
                trace.meta.governor
            );
        }
        if let Some(path) = flags.get("report") {
            let cells: Vec<(day::DayReport, TickTrace)> = reports
                .iter()
                .cloned()
                .zip(traces.iter().cloned())
                .collect();
            let html = report::day_html(&cells);
            std::fs::write(path, html).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("day: wrote {path} ({} cells)", cells.len());
        }
    }
    for report in &reports {
        eprintln!(
            "day: {} seed {} {:<10} | {:5.1} min screen-on over {} pickups | \
             {:6.0} J ({:5.2} % battery) | {:4.1} fps | peak {:4.1} C",
            report.plan.persona,
            report.plan.seed,
            report.governor,
            report.screen_on_s / 60.0,
            report.pickup_count(),
            report.energy_total_j(),
            report.battery_drain_pct,
            report.avg_fps,
            report.peak_temp_hot_c
        );
    }

    let mode = if quick { "quick" } else { "full" };
    let text = bench_day::days_to_json(&reports, mode).render();
    debug_assert!(
        bench_fleet::parse_document(&text).is_ok(),
        "day.json must round-trip its own schema"
    );
    write_out(flags, "day", &format!("{text}\n"))
}

/// Reads and decodes a binary trace file.
fn read_trace(path: &str) -> Result<(Vec<u8>, TickTrace), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
    let trace = TickTrace::decode(&bytes).map_err(|e| format!("parsing {path}: {e}"))?;
    Ok((bytes, trace))
}

fn cmd_replay(flags: &Flags) -> Result<(), String> {
    let path = flags.get("trace").ok_or("--trace is required")?;
    let (bytes, recorded) = read_trace(path)?;
    let workers = get_workers(flags, sweep::default_workers())?;
    eprintln!(
        "replay: {} ticks — {} day, seed {}, {} on {} ...",
        recorded.records.len(),
        recorded.meta.persona,
        recorded.meta.seed,
        recorded.meta.governor,
        recorded.meta.platform
    );
    let started = Stopwatch::start();
    let (_report, replayed) = day::replay_day(&recorded.meta, workers)?;
    eprintln!(
        "replay: re-executed in {:.1} s wall clock",
        started.elapsed_s()
    );
    let replayed_bytes = replayed.encode();
    if replayed_bytes == bytes {
        println!(
            "replay: OK — {} ticks byte-identical to {path}",
            replayed.records.len()
        );
        return Ok(());
    }
    // Show where it went wrong before failing.
    let report = bisect(&recorded, &replayed);
    eprintln!("{}", report.render());
    Err(format!("replay diverged from {path}"))
}

fn cmd_bisect(flags: &Flags) -> Result<(), String> {
    let path_a = flags.get("a").ok_or("--a is required")?;
    let path_b = flags.get("b").ok_or("--b is required")?;
    let (_, trace_a) = read_trace(path_a)?;
    let (_, trace_b) = read_trace(path_b)?;
    let report = bisect(&trace_a, &trace_b);
    println!("{}", report.render());
    if report.is_identical() {
        Ok(())
    } else {
        Err(format!("{path_a} and {path_b} diverge"))
    }
}

fn cmd_lint(flags: &Flags) -> Result<(), String> {
    let root = flags.get("root").map_or(".", String::as_str);
    let format = flags.get("format").map_or("text", String::as_str);
    if !matches!(format, "text" | "json") {
        return Err(format!("--format must be 'text' or 'json', got '{format}'"));
    }
    let report = next_mpsoc::qlint::lint_workspace(std::path::Path::new(root))
        .map_err(|e| format!("walking {root}: {e}"))?;
    let text = match format {
        "json" => {
            let json = report.to_json().render();
            debug_assert!(Json::parse(&json).is_ok(), "lint.json must be valid JSON");
            format!("{json}\n")
        }
        _ => report.render_text(),
    };
    // The artifact (or text report) is written even when the gate
    // fails, so CI can archive the findings it is failing on.
    write_out(flags, "lint", &text)?;
    if report.is_clean() {
        eprintln!(
            "lint: clean — {} file(s), {} suppression(s)",
            report.files_scanned, report.suppressed
        );
        Ok(())
    } else {
        // On JSON-to-file runs the findings are only in the artifact;
        // repeat them on stderr so the CI log names the lines.
        if flags.get("out").is_some() || format == "json" {
            eprint!("{}", report.render_text());
        }
        Err(format!("lint: {} finding(s)", report.findings.len()))
    }
}

fn cmd_compare(flags: &Flags) -> Result<(), String> {
    let app = require_app(flags)?;
    let duration = get_f64(flags, "duration", SessionPlan::paper_session_length_s(&app))?;
    let seed = get_u64(flags, "seed", 1000)?;
    let plan = SessionPlan::single(&app, duration);

    println!("app {app}, {duration:.0} s session, seed {seed}\n");
    let sched = evaluate_governor(&mut Schedutil::new(), &plan, seed).summary;
    print_summary("schedutil", &sched);
    if apps::is_game(&app) {
        let qos = evaluate_governor(&mut IntQosPm::new(), &plan, seed).summary;
        print_summary("int-qos-pm", &qos);
    }
    let mut agent = make_next_agent(&app, flags)?;
    let next = evaluate_governor(&mut agent, &plan, seed).summary;
    print_summary("next", &next);
    println!(
        "\nnext saves {:.1} % vs schedutil",
        next.power_saving_vs(&sched)
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn flags_a_command_does_not_take_are_usage_errors() {
        let err = parse_flags("compare", &args("--app facebook --duration 1 --seeds 5"))
            .expect_err("compare reads --seed, not --seeds");
        assert!(err.contains("--seeds"), "{err}");
        let err = parse_flags("apps", &args("--bogus 1")).expect_err("apps takes no flags");
        assert!(err.contains("--bogus"), "{err}");
        assert!(parse_flags("bogus", &[]).is_err());
        let flags = parse_flags("compare", &args("--app facebook --seed 5")).unwrap();
        assert_eq!(flags.get("seed").map(String::as_str), Some("5"));
    }

    #[test]
    fn accepted_flags_match_usage() {
        // USAGE's synopsis: a `next-sim <command>` line, then indented
        // continuation lines, up to the first blank line.
        let mut listed: Vec<(String, Vec<String>)> = Vec::new();
        for line in USAGE.lines().skip(3).take_while(|l| !l.is_empty()) {
            let line = line.trim_start();
            if let Some(rest) = line.strip_prefix("next-sim ") {
                let command = rest.split_whitespace().next().unwrap();
                listed.push((command.to_owned(), Vec::new()));
            }
            let flags = &mut listed.last_mut().unwrap().1;
            for word in line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')) {
                if let Some(flag) = word.strip_prefix("--") {
                    flags.push(flag.to_owned());
                }
            }
        }
        assert_eq!(listed.len(), 14, "every command but help has a synopsis");
        for (command, mut flags) in listed {
            flags.sort();
            flags.dedup();
            let mut accepted = accepted_flags(&command).expect("listed command").to_vec();
            accepted.sort_unstable();
            assert_eq!(flags, accepted, "{command}");
        }
    }

    #[test]
    fn every_ci_invocation_parses() {
        let ci = include_str!("../../.github/workflows/ci.yml");
        let mut seen = 0;
        for line in ci.lines() {
            let Some((_, call)) = line.split_once("target/release/next-sim ") else {
                continue;
            };
            let words = args(call);
            let (command, rest) = words.split_first().expect("a command");
            if let Err(e) = parse_flags(command, rest) {
                panic!("{line}: {e}");
            }
            seen += 1;
        }
        assert!(seen >= 10, "found only {seen} next-sim lines in ci.yml");
    }
}
