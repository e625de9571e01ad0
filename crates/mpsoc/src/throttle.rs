//! Hardware thermal throttling (the IPA/thermal-governor layer).
//!
//! Real Exynos devices clamp domain frequencies when die sensors cross
//! trip points, independently of (and *below*) any software policy. The
//! throttler steps a per-domain thermal clamp down one OPP per control
//! interval while the sensor is above the trip temperature and relaxes
//! it one OPP per interval once the sensor falls below
//! `trip − hysteresis`.
//!
//! The clamp composes with the DVFS policy caps: the effective level is
//! `min(policy level, thermal clamp)`. Software governors (including
//! Next) never see or control the clamp — exactly like on the phone,
//! where the kernel thermal framework overrides userspace. The clamp
//! state lives in the [`crate::SocBatch`] arenas; this module holds the
//! configuration and the transition rule.

use crate::platform::Platform;

/// Configuration of the thermal throttler.
#[derive(Debug, Clone, PartialEq)]
pub struct ThrottleConfig {
    /// Whether throttling is active.
    pub enabled: bool,
    /// Trip temperature per domain sensor, °C, in platform order.
    /// Domains beyond the list never trip.
    pub trip_c: Vec<f64>,
    /// Hysteresis below the trip before the clamp relaxes, °C.
    pub hysteresis_c: f64,
}

impl ThrottleConfig {
    /// Trip points declared by a platform descriptor (5 °C hysteresis,
    /// the Exynos thermal-framework default).
    #[must_use]
    pub fn for_platform(platform: &Platform) -> Self {
        ThrottleConfig {
            enabled: true,
            trip_c: platform.domains().iter().map(|d| d.trip_c).collect(),
            hysteresis_c: 5.0,
        }
    }

    /// The Exynos 9810 defaults: 75 °C trips on the CPU clusters and
    /// 71 °C on the GPU, 5 °C hysteresis.
    #[must_use]
    pub fn exynos9810() -> Self {
        ThrottleConfig {
            enabled: true,
            trip_c: vec![75.0, 75.0, 71.0],
            hysteresis_c: 5.0,
        }
    }

    /// Throttling disabled (useful for controlled experiments).
    #[must_use]
    pub fn disabled() -> Self {
        ThrottleConfig {
            enabled: false,
            trip_c: Vec::new(),
            hysteresis_c: 0.0,
        }
    }
}

impl Default for ThrottleConfig {
    fn default() -> Self {
        ThrottleConfig::exynos9810()
    }
}

/// One control-interval clamp transition for a single domain: step down
/// one OPP above `trip_c`, relax one OPP below `trip_c − hysteresis_c`
/// (never past `top`), hold inside the hysteresis band.
///
/// The single transition rule behind the batched kernel's per-lane
/// throttle loop.
pub(crate) fn clamp_transition(
    clamp: usize,
    top: usize,
    trip_c: f64,
    hysteresis_c: f64,
    temp_c: f64,
) -> usize {
    if temp_c > trip_c {
        clamp.saturating_sub(1)
    } else if temp_c < trip_c - hysteresis_c {
        (clamp + 1).min(top)
    } else {
        clamp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::FrameDemand;
    use crate::{DomainId, Soc, SocConfig};

    const TOP: [usize; 3] = [17, 9, 5];

    /// One interval of domain `d` of the Exynos 9810 trips at `temp_c`.
    fn step(clamp: usize, d: usize, temp_c: f64) -> usize {
        let cfg = ThrottleConfig::exynos9810();
        clamp_transition(clamp, TOP[d], cfg.trip_c[d], cfg.hysteresis_c, temp_c)
    }

    /// A heavy game on every domain's top OPP for `seconds`.
    fn pinned_heavy(throttle: ThrottleConfig, seconds: f64) -> Soc {
        let mut cfg = SocConfig::exynos9810();
        cfg.throttle = throttle;
        let mut soc = Soc::new(cfg);
        for d in 0..3 {
            let id = DomainId::new(d);
            let top = soc.dvfs().domain(id).table().max().freq_khz;
            soc.dvfs_mut().pin_freq(id, top).unwrap();
        }
        let game = FrameDemand::new(22.0e6, 6.0e6, 30.0e6).with_background(0.3e9, 0.1e9, 0.0);
        for _ in 0..(seconds / 0.025) as usize {
            soc.tick(0.025, &game);
        }
        soc
    }

    fn low_trips() -> ThrottleConfig {
        ThrottleConfig {
            enabled: true,
            trip_c: vec![40.0, 40.0, 40.0],
            hysteresis_c: 3.0,
        }
    }

    #[test]
    fn starts_unclamped() {
        let soc = Soc::new(SocConfig::exynos9810());
        assert!(!soc.is_throttling());
        assert_eq!(step(TOP[0], 0, 30.0), 17, "cool die holds the top level");
    }

    #[test]
    fn hot_sensor_steps_clamp_down() {
        assert_eq!(step(17, 0, 80.0), 16);
        assert_eq!(step(9, 1, 30.0), 9, "cool domains untouched");
        let mut clamp = 17;
        for _ in 0..41 {
            clamp = step(clamp, 0, 80.0);
        }
        assert_eq!(clamp, 0, "clamp saturates at the floor");
    }

    #[test]
    fn hysteresis_gates_recovery() {
        let mut clamp = 17;
        for _ in 0..3 {
            clamp = step(clamp, 0, 80.0);
        }
        assert_eq!(clamp, 14);
        // Inside the hysteresis band: hold.
        clamp = step(clamp, 0, 72.0);
        assert_eq!(clamp, 14);
        // Below trip − hysteresis: relax one per interval.
        clamp = step(clamp, 0, 69.0);
        assert_eq!(clamp, 15);
        for _ in 0..10 {
            clamp = step(clamp, 0, 60.0);
        }
        assert_eq!(clamp, 17, "relaxation stops at the top level");
    }

    #[test]
    fn disabled_config_never_clamps() {
        // Ten minutes at the top OPPs take the die well past the 40 °C
        // trips that clamp `reset_unclamps`' device.
        let soc = pinned_heavy(ThrottleConfig::disabled(), 600.0);
        assert!(soc.state().temp_hot_c > 45.0, "the die must run hot");
        assert!(!soc.is_throttling());
        assert_eq!(soc.state().freq_level[0], 17);
    }

    #[test]
    fn gpu_trips_earlier_than_cpu() {
        assert_eq!(step(17, 0, 73.0), 17, "73 C below CPU trip");
        assert_eq!(step(5, 2, 73.0), 4, "73 C above GPU trip");
    }

    #[test]
    fn four_domain_platform_throttles_every_domain() {
        let platform = Platform::exynos9820();
        let cfg = ThrottleConfig::for_platform(&platform);
        assert_eq!(cfg.trip_c.len(), 4);
        for (i, &len) in platform.freq_levels().iter().enumerate() {
            let top = len - 1;
            let clamp = clamp_transition(top, top, cfg.trip_c[i], cfg.hysteresis_c, 90.0);
            assert_eq!(clamp, len - 2, "domain {i}");
        }
    }

    #[test]
    fn reset_unclamps() {
        let mut soc = pinned_heavy(low_trips(), 120.0);
        assert!(soc.is_throttling());
        soc.reset();
        assert!(!soc.is_throttling());
    }
}
