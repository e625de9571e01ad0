//! The workspace's one host clock and its one sampling policy.
//!
//! Every wall-clock figure the repository reports goes through this
//! module: a [`Stopwatch`] for one-off reads (progress lines, one-time
//! setup walls) and [`sample`] for every repeatable measurement. The
//! readings only ever land on stderr or in `BENCH.json`; no simulated
//! state and no deterministic artifact depends on them.
//!
//! The policy has constant settings, not knobs: one untimed warm-up
//! call per arm, then rounds that time every arm once in turn (so host
//! drift — turbo decay, a noisy neighbour — hits all arms alike) until
//! there are at least [`MIN_ROUNDS`] rounds and [`MIN_ARM_S`] of timed
//! calls per arm. Each arm reports its median and quartiles.

use std::time::Instant;

/// Timed rounds every arm gets, at least.
pub const MIN_ROUNDS: usize = 5;

/// Timed seconds every arm accumulates, at least.
pub const MIN_ARM_S: f64 = 0.020;

/// A running wall-clock read.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts a read now.
    #[must_use]
    pub fn start() -> Self {
        // qlint::allow(ND01, reason = "the one host clock: readings go to stderr and BENCH.json, never into simulated state")
        Stopwatch(Instant::now())
    }

    /// Seconds since [`Stopwatch::start`].
    #[must_use]
    pub fn elapsed_s(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// Median and quartiles of a set of samples, with the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Samples behind the figures.
    pub n: usize,
}

impl Spread {
    /// The quartiles of `samples`, linearly interpolated between order
    /// statistics (so an even count's median is the mean of the middle
    /// two, and a single sample is all three quartiles).
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    #[must_use]
    pub fn of(samples: &[f64]) -> Spread {
        assert!(!samples.is_empty(), "quartiles of no samples");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let at = |p: f64| {
            let pos = p * (sorted.len() - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        };
        Spread {
            q1: at(0.25),
            median: at(0.5),
            q3: at(0.75),
            n: sorted.len(),
        }
    }

    /// Interquartile range, `q3 - q1`.
    #[must_use]
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }

    /// Every quartile multiplied by `k` (seconds per batch to
    /// nanoseconds per call, say).
    #[must_use]
    pub fn scaled(self, k: f64) -> Spread {
        Spread {
            q1: self.q1 * k,
            median: self.median * k,
            q3: self.q3 * k,
            n: self.n,
        }
    }

    /// A spread of seconds turned into `work` per second: the rate at
    /// each quartile, which swaps the quartiles because the rate falls
    /// as the time rises. A non-positive time gives a rate of 0.
    #[must_use]
    pub fn rate(self, work: f64) -> Spread {
        let per = |t: f64| if t > 0.0 { work / t } else { 0.0 };
        Spread {
            q1: per(self.q3),
            median: per(self.median),
            q3: per(self.q1),
            n: self.n,
        }
    }
}

/// Times `arms` under the workspace's one sampling policy and returns
/// each arm's spread of seconds per call, in arm order.
///
/// Each arm is called once untimed, then the arms are timed once each
/// in turn, round after round, until every arm has at least
/// [`MIN_ROUNDS`] timed calls and [`MIN_ARM_S`] of timed seconds. An arm
/// whose single call is far below a microsecond should loop over a
/// batch of calls and scale its spread down with [`Spread::scaled`].
pub fn sample<const N: usize>(mut arms: [&mut dyn FnMut(); N]) -> [Spread; N] {
    for arm in &mut arms {
        arm();
    }
    let mut samples: [Vec<f64>; N] = std::array::from_fn(|_| Vec::new());
    let mut totals = [0.0f64; N];
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || totals.iter().any(|&t| t < MIN_ARM_S) {
        for (i, arm) in arms.iter_mut().enumerate() {
            let watch = Stopwatch::start();
            arm();
            let s = watch.elapsed_s();
            samples[i].push(s);
            totals[i] += s;
        }
        rounds += 1;
    }
    std::array::from_fn(|i| Spread::of(&samples[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn quartiles_of_odd_even_and_single_counts() {
        let odd = Spread::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((odd.q1, odd.median, odd.q3, odd.n), (2.0, 3.0, 4.0, 5));
        assert_eq!(odd.iqr(), 2.0);
        let even = Spread::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((even.q1, even.median, even.q3), (1.75, 2.5, 3.25));
        assert_eq!(even.iqr(), 1.5);
        let single = Spread::of(&[7.0]);
        assert_eq!(
            (single.q1, single.median, single.q3, single.n),
            (7.0, 7.0, 7.0, 1)
        );
        assert_eq!(single.iqr(), 0.0);
    }

    #[test]
    fn rate_swaps_quartiles_and_scaling_keeps_order() {
        let s = Spread::of(&[1.0, 2.0, 4.0]);
        let r = s.rate(8.0);
        assert_eq!((r.q1, r.median, r.q3), (8.0 / 3.0, 4.0, 16.0 / 3.0));
        assert!(r.iqr() > 0.0);
        let ns = s.scaled(1e9);
        assert_eq!((ns.q1, ns.median, ns.q3), (1.5e9, 2e9, 3e9));
        assert_eq!(Spread::of(&[0.0]).rate(8.0).median, 0.0);
    }

    #[test]
    fn arms_interleave_after_an_untimed_warm_up() {
        let log = RefCell::new(Vec::new());
        let mut a = || log.borrow_mut().push(b'a');
        let mut b = || log.borrow_mut().push(b'b');
        let [sa, sb] = sample([&mut a, &mut b]);
        let log = log.into_inner();
        assert!(sa.n >= MIN_ROUNDS && sb.n >= MIN_ROUNDS);
        assert_eq!(sa.n, sb.n, "every round times every arm");
        // One call more than timed samples: the warm-up.
        assert_eq!(log.len(), sa.n + sb.n + 2);
        // Warm-ups first, then strict alternation a, b, a, b, ...
        for pair in log.chunks(2) {
            assert_eq!(pair, b"ab");
        }
    }

    #[test]
    fn each_arm_accumulates_the_minimum_time() {
        let mut spin = || {
            let watch = Stopwatch::start();
            while watch.elapsed_s() < 0.002 {}
        };
        let [s] = sample([&mut spin]);
        assert!(s.n as f64 * s.median >= MIN_ARM_S * 0.9, "{s:?}");
        assert!(s.n >= MIN_ROUNDS);
    }
}
