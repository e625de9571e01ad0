//! Command-line entry point of the benchmark:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep|day-trace|campaign> --seed <n> --seconds <n> --trace <0|1>
//! ```

fn main() -> std::process::ExitCode {
    perfbench::run_cli()
}
