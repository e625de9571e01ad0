//! `BENCHMARK.json` and the command agree: every listed metric is
//! printed, no unlisted one is, and the result line has the required
//! shape, on every workload in both modes.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use bench::json::Json;

fn benchmark_json() -> Result<Json, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e:?}"))
}

/// `(name, unit)` of every entry of a metric list in `BENCHMARK.json`.
fn listed(doc: &Json, key: &str) -> Result<BTreeSet<(String, String)>, String> {
    let list = doc
        .get(key)
        .and_then(Json::as_array)
        .ok_or(format!("no '{key}' list"))?;
    list.iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .map(str::to_owned)
                    .ok_or(format!("a '{key}' entry has no {f}"))
            };
            Ok((field("name")?, field("unit")?))
        })
        .collect()
}

fn owned(list: &[(&str, &str)]) -> BTreeSet<(String, String)> {
    list.iter()
        .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_metrics_the_code_defines() -> Result<(), String> {
    let doc = benchmark_json()?;
    assert_eq!(listed(&doc, "end_to_end")?, owned(&perfbench::END_TO_END));
    assert_eq!(listed(&doc, "per_layer")?, owned(&perfbench::PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .ok_or("no workloads")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(workloads, perfbench::WORKLOADS);
    let setup = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .and_then(|l| {
            l.iter()
                .find(|m| m.get("name").and_then(Json::as_str) == Some("setup_s"))
        })
        .ok_or("setup_s is not listed")?;
    assert_eq!(setup.get("better").and_then(Json::as_str), Some("lower"));
    Ok(())
}

#[test]
fn every_workload_prints_exactly_the_listed_metrics() -> Result<(), String> {
    let doc = benchmark_json()?;
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR")).join("contract");
    std::fs::create_dir_all(&tmp).map_err(|e| e.to_string())?;
    for workload in perfbench::WORKLOADS {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
                .args(["--trace", trace])
                .current_dir(&tmp)
                .output()
                .map_err(|e| e.to_string())?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} --trace {trace} failed:\n{stdout}"
            );
            let last = stdout.lines().last().ok_or("no output")?;
            let result = Json::parse(last).map_err(|e| format!("{e:?}: {last}"))?;
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{stdout}");
            assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
            assert!(result.get("attempted").and_then(Json::as_u64) >= Some(1));
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                panic!("metrics object missing: {last}");
            };
            let mut printed = BTreeSet::new();
            for (name, value) in metrics {
                let unit = value
                    .get("unit")
                    .and_then(Json::as_str)
                    .ok_or(format!("{name} has no unit"))?;
                // Each metric is also printed on a line of its own.
                assert!(
                    stdout
                        .lines()
                        .any(|l| l.starts_with(&format!("metric {name} = "))
                            && l.ends_with(&format!(" {unit}"))),
                    "{name} has no metric line"
                );
                printed.insert((name.clone(), unit.to_owned()));
            }
            assert_eq!(printed, listed(&doc, key)?, "{workload} --trace {trace}");
        }
    }
    std::fs::remove_dir_all(&tmp).map_err(|e| e.to_string())
}
