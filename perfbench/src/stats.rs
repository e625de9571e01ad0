//! Measurement helpers shared by the workloads: timing, percentiles,
//! the reconciliation ledger, the simulated-statistics digest, the
//! correctness tally and peak resident memory.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Seconds of a duration, as `f64`.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// The benchmark's one read of the host clock; every timing goes
/// through it.
pub fn now() -> Instant {
    // qlint::allow(ND01, reason = "the benchmark measures host time; no reading reaches simulated state or an artifact")
    Instant::now()
}

/// Runs `f` and returns its result with the host seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = now();
    let r = f();
    (r, secs(t.elapsed()))
}

/// Median of `values` (mean of the two middle values for an even
/// count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Samples that must lie strictly above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A nearest-rank percentile together with the sample count it came
/// from and how many samples lie above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile value.
    pub value: f64,
    /// Number of samples.
    pub n: usize,
    /// Samples ranked above the reported one.
    pub beyond: usize,
}

/// The nearest-rank `p`-th percentile (0 < p < 100) of `values`, or
/// `None` when fewer than [`MIN_BEYOND`] samples would lie beyond it —
/// a tail figure with fewer samples behind it is noise, not a
/// percentile.
pub fn percentile(values: &[f64], p: f64) -> Option<Percentile> {
    assert!(p > 0.0 && p < 100.0, "percentile must lie in (0, 100)");
    let n = values.len();
    if n == 0 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let k = rank.clamp(1, n) - 1;
    let beyond = n - 1 - k;
    (beyond >= MIN_BEYOND).then_some(Percentile {
        value: v[k],
        n,
        beyond,
    })
}

/// Host-time cost of one [`now`] read, in nanoseconds. Every
/// chained interval the traced loops take contains exactly one read, so
/// this is subtracted once per timed call.
pub fn timer_cost_ns() -> f64 {
    const READS: u32 = 200_000;
    let mut samples = Vec::with_capacity(5);
    for _ in 0..5 {
        let start = now();
        let mut last = start;
        for _ in 0..READS {
            last = std::hint::black_box(now());
        }
        samples.push(secs(last - start) * 1e9 / f64::from(READS));
    }
    median(&samples)
}

/// Wall-equivalent seconds per layer of one traced phase.
///
/// A call made from the main thread counts its wall time. Work done
/// inside a `parallel_map` closure is thread time; it counts as thread
/// time divided by the worker count, which is its share of that
/// stage's wall time. Idle worker time is a layer of its own, so the
/// layer sum of a fully covered phase equals the phase's wall time.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    layers: BTreeMap<&'static str, f64>,
}

impl Ledger {
    /// Adds wall seconds spent on the main thread in `layer`.
    pub fn add_wall(&mut self, layer: &'static str, wall_s: f64) {
        *self.layers.entry(layer).or_insert(0.0) += wall_s;
    }

    /// Adds thread seconds spent in `layer` inside a stage run on
    /// `workers` threads.
    pub fn add_thread(&mut self, layer: &'static str, thread_s: f64, workers: usize) {
        self.add_wall(layer, thread_s / workers.max(1) as f64);
    }

    /// Sum over all layers, wall-equivalent seconds.
    pub fn sum(&self) -> f64 {
        self.layers.values().sum()
    }

    /// The layers in name order.
    pub fn layers(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.layers.iter().map(|(&k, &v)| (k, v))
    }
}

/// Share of a traced phase that the layer sum leaves unexplained
/// before the phase is flagged.
pub const RECONCILE_TOLERANCE: f64 = 0.10;

/// How the layer self-times of a traced phase compare with its wall
/// time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reconciliation {
    /// Sum of layer self-times, wall-equivalent seconds.
    pub layer_sum_s: f64,
    /// Wall time of the traced phase, seconds.
    pub wall_s: f64,
    /// `1 − layer_sum / wall`: positive when time went unattributed,
    /// negative when layers overlap or were over-counted.
    pub residual: f64,
    /// Whether `|residual|` is within [`RECONCILE_TOLERANCE`].
    pub ok: bool,
}

/// Reconciles a layer sum against the wall time it should explain.
pub fn reconcile(layer_sum_s: f64, wall_s: f64) -> Reconciliation {
    let residual = if wall_s > 0.0 {
        1.0 - layer_sum_s / wall_s
    } else {
        f64::INFINITY
    };
    Reconciliation {
        layer_sum_s,
        wall_s,
        residual,
        ok: residual.abs() <= RECONCILE_TOLERANCE,
    }
}

/// Fraction of worker capacity a parallel stage left idle:
/// `1 − Σ busy ÷ (wall × workers)`.
pub fn idle_frac(busy_thread_s: f64, wall_s: f64, workers: usize) -> f64 {
    let capacity = wall_s * workers.max(1) as f64;
    if capacity > 0.0 {
        1.0 - busy_thread_s / capacity
    } else {
        0.0
    }
}

/// FNV-1a digest over every simulated statistic a workload produced.
/// Floats are hashed by their bit patterns, so two runs agree only
/// when they simulated bit-identical results.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, v: f64) {
        self.bytes(&v.to_bits().to_le_bytes());
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Attempted and failed operations of a run, with the first few
/// failure messages for the log.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Tally {
    /// Records one attempted operation that succeeded or failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.attempted += 1;
        } else {
            self.fail(what());
        }
    }

    /// Records `ops` attempted operations that all succeeded.
    pub fn ok(&mut self, ops: u64) {
        self.attempted += ops;
    }

    /// Records one attempted operation that failed.
    pub fn fail(&mut self, message: String) {
        self.fail_ops(1, message);
    }

    /// Records `ops` attempted operations that all failed for one
    /// reason, such as a panic that took down a whole pass.
    pub fn fail_ops(&mut self, ops: u64, message: String) {
        self.attempted += ops;
        self.failed += ops;
        if self.messages.len() < 20 {
            self.messages.push(message);
        }
    }

    /// `failed ÷ attempted`.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Peak resident memory of this process (`VmHWM`), in megabytes
/// (10⁶ bytes).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM line '{line}': {e}"))?;
    Ok(kib * 1024.0 / 1e6)
}

/// Runs `f`, turning a panic into an error message so that the caller
/// can count it as a failed operation instead of losing the run.
pub fn catch<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_else(|| "panic with a non-string payload".to_owned())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_keeps_ten_samples_beyond_and_states_n() {
        let values: Vec<f64> = (1..=200).map(f64::from).collect();
        let p95 = percentile(&values, 95.0).expect("200 samples leave 10 beyond p95");
        assert_eq!(p95.value, 190.0);
        assert_eq!(p95.n, 200);
        assert_eq!(p95.beyond, 10);
        // One sample fewer leaves only 9 beyond the 95th: refused.
        assert!(percentile(&values[..199], 95.0).is_none());
        // The median needs 20 samples for 10 beyond it.
        assert!(percentile(&values[..19], 50.0).is_none());
        let p50 = percentile(&values[..20], 50.0).expect("20 samples");
        assert_eq!((p50.value, p50.n, p50.beyond), (10.0, 20, 10));
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut values: Vec<f64> = (0..100).map(|i| f64::from((i * 37) % 100)).collect();
        let a = percentile(&values, 50.0);
        values.reverse();
        assert_eq!(a, percentile(&values, 50.0));
    }

    #[test]
    fn ledger_converts_thread_time_to_wall_share() {
        let mut ledger = Ledger::default();
        ledger.add_wall("render", 1.0);
        ledger.add_thread("tick", 6.0, 2);
        ledger.add_thread("tick", 2.0, 2);
        ledger.add_thread("idle", 1.0, 2);
        assert_eq!(ledger.sum(), 1.0 + 4.0 + 0.5);
        let layers: Vec<_> = ledger.layers().collect();
        assert_eq!(layers, vec![("idle", 0.5), ("render", 1.0), ("tick", 4.0)]);
    }

    #[test]
    fn reconciliation_flags_beyond_ten_percent() {
        let r = reconcile(9.5, 10.0);
        assert!((r.residual - 0.05).abs() < 1e-12);
        assert!(r.ok);
        assert!(reconcile(9.0, 10.0).ok, "exactly 10 % still reconciles");
        assert!(!reconcile(8.9, 10.0).ok);
        assert!(!reconcile(11.5, 10.0).ok, "over-counting is flagged too");
        assert!(!reconcile(1.0, 0.0).ok);
    }

    #[test]
    fn idle_fraction_of_a_parallel_stage() {
        // Two workers for 2 s, 3 busy thread-seconds: a quarter idle.
        assert!((idle_frac(3.0, 2.0, 2) - 0.25).abs() < 1e-12);
        assert_eq!(idle_frac(0.0, 0.0, 2), 0.0);
    }

    #[test]
    fn digest_depends_on_every_bit() {
        let mut a = Digest::default();
        a.f64(1.0);
        let mut b = Digest::default();
        b.f64(1.0 + f64::EPSILON);
        assert_ne!(a.hex(), b.hex());
        let mut c = Digest::default();
        c.f64(1.0);
        assert_eq!(a.hex(), c.hex());
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        t.ok(3);
        t.check(true, String::new);
        t.check(false, || "broken".to_owned());
        assert_eq!((t.attempted, t.failed), (5, 1));
        assert!((t.error_rate() - 0.2).abs() < 1e-12);
        assert_eq!(t.messages, vec!["broken".to_owned()]);
    }

    #[test]
    fn catch_turns_a_panic_into_an_error() {
        assert_eq!(catch(|| 7), Ok(7));
        let err = catch(|| -> u32 { panic!("boom {}", 1) }).unwrap_err();
        assert_eq!(err, "boom 1");
    }
}
