//! A fixed reference kernel that measures the host's speed of the
//! moment, so host-time metrics can be reported at a fixed host speed.
//!
//! On a shared host the same pass runs up to 1.7× faster or slower from
//! one minute to the next (co-tenant load; steal time stays near zero,
//! so the guest cannot see it). The untraced runs time this kernel
//! between passes and scale each pass by it. The kernel is a toy device
//! model written here: per tick it draws a demand, evaluates dynamic and
//! leakage power, steps a small RC thermal network, reads a row of its
//! own copy of a Q-table, lets a table governor pick a frequency and
//! records a sample; each job then summarises, renders, parses, indexes
//! and sorts its samples with the standard library. Table copy and
//! samples take about 1.4 MB, between a short sweep cell's working set
//! (trace and table clone) and a game cell's 2 MB, so the kernel sits
//! as close to the edge of the 2 MB per-core L2 as the simulator and
//! feels cache contention the way it does. It
//! shares no code with the simulator, so a change to the simulator moves
//! the workload's rate and leaves the kernel's alone.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::hint::black_box;
use std::sync::OnceLock;

use crate::stats;

/// Reference jobs a second, all workers together, on the host the
/// benchmark was tuned on (a 2-vCPU KVM guest on an Intel Xeon with
/// 2 MB L2 per core), with two workers. Scaled metrics read in that
/// host's units; the constant cancels in every comparison.
pub const NOMINAL_JOBS_PER_S: f64 = 500.0;

/// Ticks of one job: 360 kB of samples.
const TICKS: usize = 9000;
/// Thermal nodes of the toy RC network.
const NODES: usize = 6;
/// Frequency ladder of the toy governor, MHz.
const FREQS: [f64; 8] = [455.0, 715.0, 1053.0, 1352.0, 1690.0, 1924.0, 2314.0, 2704.0];
/// Rows × actions of the toy Q-table: 1 MB.
const ROWS: usize = 1 << 14;
const ACTIONS: usize = 8;
/// Host seconds of one timed window of the kernel.
const WINDOW_S: f64 = 0.05;

#[derive(Clone, Copy)]
struct Sample {
    time_s: f64,
    power_w: f64,
    temp_c: f64,
    freq_mhz: f64,
    util: f64,
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn unit(r: u64) -> f64 {
    (r >> 11) as f64 / (1_u64 << 53) as f64
}

fn table() -> &'static [f64] {
    static TABLE: OnceLock<Vec<f64>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut rng = 7;
        (0..ROWS * ACTIONS)
            .map(|_| unit(splitmix(&mut rng)))
            .collect()
    })
}

/// `TICKS` ticks of the toy model from `seed`.
fn simulate(seed: u64, q: &[f64]) -> Vec<Sample> {
    let dt = 0.025;
    let f_max = FREQS[FREQS.len() - 1];
    let coupling = 0.72 / (NODES - 1) as f64;
    let mut rng = seed;
    let mut temps = [25.0_f64; NODES];
    let mut level = 3_usize;
    let mut samples = Vec::with_capacity(TICKS);
    for t in 0..TICKS {
        let r = splitmix(&mut rng);
        let f = FREQS[level];
        let util = (unit(r) * f_max / f).min(1.0);
        let v = 0.55 + 0.45 * f / f_max;
        let power = 1.1e-3 * v * v * f * util + 0.08 * v * (0.035 * (temps[0] - 25.0)).exp();
        let mut next = temps;
        for (i, n) in next.iter_mut().enumerate() {
            let flow: f64 = temps
                .iter()
                .enumerate()
                .map(|(j, tj)| if i == j { -0.9 } else { coupling } * (tj - 25.0))
                .sum();
            let heat = if i == 0 { power } else { 0.1 * power };
            *n += dt * (4.0 * heat + flow);
        }
        temps = next;
        let row = (r as usize ^ (level << 13) ^ ((temps[0] as usize) << 7)) % ROWS;
        let qs = &q[row * ACTIONS..(row + 1) * ACTIONS];
        let best = (1..ACTIONS).fold(0, |b, a| if qs[a] > qs[b] { a } else { b });
        if t % 4 == 3 {
            level = if (util > 0.85 || best == ACTIONS - 1) && level + 1 < FREQS.len() {
                level + 1
            } else if (util < 0.45 || best == 0) && level > 0 {
                level - 1
            } else {
                level
            };
            if temps[0] > 70.0 && level > 0 {
                level -= 1;
            }
        }
        samples.push(Sample {
            time_s: t as f64 * dt,
            power_w: power,
            temp_c: temps[0],
            freq_mhz: f,
            util,
        });
    }
    samples
}

/// One job: simulate, then summarise, render, parse, index and sort the
/// samples. Returns a checksum so none of it is optimised away.
fn job(seed: u64) -> f64 {
    // Each job reads its own copy of the table, as each sweep cell's
    // agent does.
    let mut q = table().to_vec();
    q[seed as usize % (ROWS * ACTIONS)] = 0.5;
    let samples = simulate(seed, &q);
    let n = samples.len() as f64;
    let mean = samples.iter().map(|s| s.power_w).sum::<f64>() / n;
    let var = samples
        .iter()
        .map(|s| (s.power_w - mean) * (s.power_w - mean))
        .sum::<f64>()
        / n;
    let peak = samples.iter().map(|s| s.temp_c).fold(f64::MIN, f64::max);
    let mut text = String::new();
    for s in samples.iter().step_by(4) {
        let _ = write!(
            text,
            "{},{:.6},{:e},{};",
            s.time_s, s.power_w, s.temp_c, s.freq_mhz
        );
    }
    let parsed: f64 = text
        .split([',', ';'])
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    let mut index = BTreeMap::new();
    for (i, s) in samples.iter().enumerate().step_by(2) {
        index.insert(format!("{:016x}", s.util.to_bits() ^ i as u64), i);
    }
    let mut powers: Vec<f64> = samples.iter().map(|s| s.power_w).collect();
    powers.sort_by(f64::total_cmp);
    mean + var.sqrt() + peak + parsed + index.len() as f64 + powers[powers.len() / 2]
}

/// Runs reference jobs on `workers` threads in windows of `WINDOW_S`
/// until at least `min_s` host seconds have passed, and returns each
/// window's rate in jobs a second: the sum over the threads of the jobs
/// each finished ÷ its own time, so a thread that the host slows does
/// not hold the others up, as in the simulator's work-stealing map.
pub fn window_rates(workers: usize, min_s: f64) -> Vec<f64> {
    let workers = workers.max(1);
    table();
    let mut rates = Vec::new();
    let mut spent = 0.0;
    while rates.is_empty() || spent < min_s {
        let seed = (rates.len() * workers) as u64;
        let (rate, s) = stats::timed(|| {
            std::thread::scope(|scope| {
                let threads: Vec<_> = (0..workers as u64)
                    .map(|w| {
                        scope.spawn(move || {
                            let started = stats::now();
                            let mut jobs = 0_u64;
                            let mut checksum = 0.0;
                            while jobs == 0 || stats::secs(started.elapsed()) < WINDOW_S {
                                checksum += job(black_box(seed + w + jobs * 7919));
                                jobs += 1;
                            }
                            black_box(checksum);
                            jobs as f64 / stats::secs(started.elapsed())
                        })
                    })
                    .collect();
                threads
                    .into_iter()
                    .map(|t| t.join().unwrap_or(0.0))
                    .sum::<f64>()
            })
        });
        rates.push(rate);
        spent += s;
    }
    rates
}

/// The host's speed at a kernel rate of `jobs_per_s`, relative to the
/// nominal host. Divide a host-time rate by it, or multiply a host time
/// by it, to express either at the nominal host's speed.
pub fn host_speed(jobs_per_s: f64) -> f64 {
    jobs_per_s / NOMINAL_JOBS_PER_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_are_deterministic_and_seed_dependent() {
        assert_eq!(job(3).to_bits(), job(3).to_bits());
        assert_ne!(job(3).to_bits(), job(4).to_bits());
    }

    #[test]
    fn runs_at_least_one_window() {
        let rates = window_rates(2, 0.0);
        assert_eq!(rates.len(), 1);
        assert!(rates[0].is_finite() && rates[0] > 0.0);
        assert!((host_speed(NOMINAL_JOBS_PER_S) - 1.0).abs() < 1e-12);
    }
}
