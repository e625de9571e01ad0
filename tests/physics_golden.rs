//! Byte-level pins on the physics. The fixtures were captured from the
//! scalar reference implementation before it was deleted, so they hold
//! the one remaining kernel to its bytes.
//!
//! 1. The sweep report for a game (`pubg`) under every sweep governor
//!    on both platform presets — a grid the facebook/spotify fixture of
//!    `tests/platform_fixtures.rs` does not reach: heavy GPU load,
//!    Int. QoS PM's direct frequency pinning and the 4-domain preset.
//! 2. The final `SocState` of a throttling device, bit for bit: a 40 °C
//!    trip with every domain pinned to its top OPP drives the hardware
//!    clamp through its step-down / hold / relax transitions for ten
//!    simulated minutes.

use next_mpsoc::mpsoc::perf::FrameDemand;
use next_mpsoc::mpsoc::soc::{Soc, SocConfig, SocState};
use next_mpsoc::mpsoc::ThrottleConfig;
use next_mpsoc::simkit::{sweep, PlatformPreset, StandardEvaluator};

/// `sweep::report` for `pubg` × {schedutil, intqos, next} × seeds
/// 1000–1001, 30 s sessions, 60 s training budget, once per preset.
fn pubg_sweep_reports() -> String {
    let apps = vec!["pubg".to_owned()];
    let governors: Vec<String> = ["schedutil", "intqos", "next"]
        .iter()
        .map(|g| (*g).to_owned())
        .collect();
    let cells = sweep::grid(&apps, &governors, &[1000, 1001], Some(30.0));
    let mut out = String::new();
    for name in ["exynos9810", "exynos9820"] {
        let preset = PlatformPreset::by_name(name).expect("shipped preset");
        let evaluator = StandardEvaluator::prepare_on(&cells, 60.0, 2, preset);
        let rows = sweep::run_cells(&cells, 2, |cell| evaluator.eval(cell));
        out.push_str("## ");
        out.push_str(name);
        out.push('\n');
        out.push_str(&sweep::report(&rows));
    }
    out
}

/// Every `SocState` field as exact bits, one per line.
fn state_bits(s: &SocState) -> String {
    let bits = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{:016x}", x.to_bits()))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let ints = |v: &[usize]| v.iter().map(usize::to_string).collect::<Vec<_>>().join(" ");
    let khz: Vec<String> = s.freq_khz.iter().map(u32::to_string).collect();
    format!(
        "time_s {}\nfreq_khz {}\nfreq_level {}\nmax_cap_level {}\nfps {}\npower_w {}\n\
         temp_domain_c {}\ntemp_hot_c {}\ntemp_device_c {}\ntemp_battery_c {}\nutil {}\n",
        bits(&[s.time_s]),
        khz.join(" "),
        ints(&s.freq_level),
        ints(&s.max_cap_level),
        bits(&[s.fps]),
        bits(&[s.power_w]),
        bits(&s.temp_domain_c),
        bits(&[s.temp_hot_c]),
        bits(&[s.temp_device_c]),
        bits(&[s.temp_battery_c]),
        bits(&s.util),
    )
}

/// Ten minutes of a heavy game on an Exynos 9810 with 40 °C trips and
/// every domain pinned to its top OPP.
fn throttled_final_state() -> (SocState, bool) {
    let mut cfg = SocConfig::exynos9810();
    cfg.throttle = ThrottleConfig {
        enabled: true,
        trip_c: vec![40.0, 40.0, 40.0],
        hysteresis_c: 3.0,
    };
    let mut soc = Soc::new(cfg);
    let ids: Vec<_> = soc.platform().ids().collect();
    for id in ids {
        let top = soc.dvfs_mut().domain(id).table().max().freq_khz;
        soc.dvfs_mut()
            .pin_freq(id, top)
            .expect("top OPP is on the ladder");
    }
    let demand = FrameDemand::new(22.0e6, 6.0e6, 30.0e6).with_background(0.3e9, 0.1e9, 0.0);
    let mut throttled_ticks = 0usize;
    for _ in 0..24_000 {
        soc.tick(0.025, &demand);
        let s = soc.state();
        if s.freq_level
            .iter()
            .zip(s.max_cap_level.iter())
            .any(|(l, c)| l < c)
        {
            throttled_ticks += 1;
        }
    }
    (soc.state(), throttled_ticks > 0)
}

#[test]
fn pubg_sweep_on_both_presets_is_byte_identical_to_the_fixture() {
    assert_eq!(
        pubg_sweep_reports(),
        include_str!("fixtures/sweep_pubg_presets.txt"),
        "pubg sweep output drifted from the pre-refactor fixture"
    );
}

#[test]
fn throttled_soc_final_state_is_bit_identical_to_the_fixture() {
    let (state, throttled) = throttled_final_state();
    assert!(throttled, "the 40 C trip must clamp below the pinned caps");
    assert_eq!(
        state_bits(&state),
        include_str!("fixtures/soc_throttled_state.txt"),
        "throttled SocState drifted from the pre-refactor fixture"
    );
}
