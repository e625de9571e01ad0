//! `next-sim` rejects flags a command does not take instead of
//! ignoring them, so a misspelt flag cannot silently run with a default.

use std::process::Command;

fn next_sim(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_next-sim"))
        .args(args)
        .output()
        .expect("next-sim runs")
}

#[test]
fn misspelt_flag_fails_before_any_work() {
    // `compare` reads `--seed`; `--seeds` used to run seed 1000.
    let out = next_sim(&[
        "compare",
        "--app",
        "facebook",
        "--duration",
        "1",
        "--seeds",
        "5",
    ]);
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no run happened");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("compare takes no --seeds"), "{stderr}");
}

#[test]
fn flagless_command_rejects_any_flag() {
    let out = next_sim(&["apps", "--bogus", "1"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("apps takes no --bogus"), "{stderr}");
    assert!(next_sim(&["apps"]).status.success());
}
