//! Property-based lane independence of the batched structure-of-arrays
//! tick kernel: for any cohort of 1–32 device lanes mixing both
//! platform presets, ambient and base-power bins, random baseline
//! governors and random sessions, lane `l` of the lockstep cohort must
//! be bit-identical to the same device run alone as a width-1
//! [`SocBatch`].
//!
//! There is one physics kernel, so a single device is a width-1 batch
//! by construction; what this pins is that a lane never observes its
//! neighbours. That is the contract that makes batching safe to wire
//! underneath the fleet trainer and the day runner: it is an
//! *optimization*, never an approximation.

use proptest::prelude::*;

use next_mpsoc::governors::by_name;
use next_mpsoc::mpsoc::soc::{Soc, SocConfig};
use next_mpsoc::mpsoc::SocBatch;
use next_mpsoc::simkit::{BatchLane, Engine, PlatformPreset, RunOutcome, Trace};
use next_mpsoc::workload::{SessionPlan, SessionSim};

const PLATFORMS: [&str; 2] = ["exynos9810", "exynos9820"];
const GOVERNORS: [&str; 5] = [
    "schedutil",
    "intqos",
    "performance",
    "powersave",
    "ondemand",
];
const APPS: [&str; 3] = ["facebook", "youtube", "spotify"];

/// Per-lane device bins (ambient °C, base-power scale): lanes of one
/// batch may differ in these.
const BINS: [(f64, f64); 3] = [(21.0, 1.0), (30.0, 1.15), (15.0, 0.9)];

/// One generated lane: platform, governor, app, session seed, bin.
type LaneSpec = (usize, usize, usize, u64, usize);

fn lane_config(platform: &str, bin: usize) -> SocConfig {
    let (ambient, scale) = BINS[bin];
    let mut cfg = PlatformPreset::by_name(platform)
        .unwrap()
        .soc
        .with_ambient(ambient);
    cfg.platform.scale_base_power(scale);
    cfg
}

fn empty_outcomes(n: usize) -> Vec<RunOutcome> {
    (0..n)
        .map(|_| RunOutcome {
            trace: Trace::new(),
            presented_frames: 0,
            repeated_vsyncs: 0,
        })
        .collect()
}

proptest! {
    /// Mixed-platform cohorts: lanes are grouped per platform (a batch
    /// shares one physics structure), each group runs as one
    /// heterogeneous batch, and every lane must match its device run
    /// alone as a width-1 batch in trace, summary and final state.
    #[test]
    fn batched_cohort_matches_scalar_per_lane(
        lanes in proptest::collection::vec(
            (0usize..2, 0usize..5, 0usize..3, 0u64..10_000, 0usize..3),
            1..33,
        )
    ) {
        let engine = Engine::new();
        let duration_s = 3.0;
        for (pi, platform) in PLATFORMS.iter().enumerate() {
            let group: Vec<&LaneSpec> =
                lanes.iter().filter(|l| l.0 == pi).collect();
            if group.is_empty() {
                continue;
            }
            let configs: Vec<SocConfig> = group
                .iter()
                .map(|&&(_, _, _, _, bin)| lane_config(platform, bin))
                .collect();

            // Reference: each device alone, as a width-1 batch.
            let mut alone_states = Vec::with_capacity(group.len());
            let alone: Vec<RunOutcome> = group
                .iter()
                .zip(&configs)
                .map(|(&&(_, gi, ai, seed, _), config)| {
                    let mut solo = SocBatch::replicate(config, 1).unwrap();
                    let mut gov = by_name(GOVERNORS[gi]).unwrap();
                    let mut session = SessionSim::new(
                        SessionPlan::single(APPS[ai], duration_s),
                        seed,
                    );
                    let mut lane = [BatchLane {
                        governor: gov.as_mut(),
                        session: &mut session,
                    }];
                    let mut out = empty_outcomes(1);
                    engine.run_lanes_into(&mut solo, &mut lane, duration_s, &mut out);
                    alone_states.push(solo.state(0));
                    out.remove(0)
                })
                .collect();

            // The same devices as one heterogeneous lockstep cohort.
            let mut batch = SocBatch::try_from_configs(&configs).unwrap();
            let mut governors: Vec<_> = group
                .iter()
                .map(|&&(_, gi, _, _, _)| by_name(GOVERNORS[gi]).unwrap())
                .collect();
            let mut sessions: Vec<_> = group
                .iter()
                .map(|&&(_, _, ai, seed, _)| {
                    SessionSim::new(SessionPlan::single(APPS[ai], duration_s), seed)
                })
                .collect();
            let mut batch_lanes: Vec<BatchLane<'_>> = governors
                .iter_mut()
                .zip(sessions.iter_mut())
                .map(|(g, s)| BatchLane {
                    governor: g.as_mut(),
                    session: s,
                })
                .collect();
            let mut outcomes = empty_outcomes(group.len());
            engine.run_lanes_into(&mut batch, &mut batch_lanes, duration_s, &mut outcomes);

            for (l, spec) in group.iter().enumerate() {
                prop_assert_eq!(
                    &outcomes[l],
                    &alone[l],
                    "lane {} ({:?}) trace diverged on {}",
                    l,
                    spec,
                    platform
                );
                prop_assert_eq!(
                    outcomes[l].trace.summary(),
                    alone[l].trace.summary(),
                    "lane {} summary diverged on {}",
                    l,
                    platform
                );
                prop_assert!(
                    batch.state(l) == alone_states[l],
                    "lane {} final SocState diverged on {}",
                    l,
                    platform
                );
            }
        }
    }

    /// `Soc` and `Engine::run` are the width-1 case of the batch and its
    /// lane loop: the façade never observably differs from driving a
    /// width-1 `SocBatch` through `run_lanes_into`.
    #[test]
    fn width_one_batch_is_the_scalar_device(
        pi in 0usize..2,
        gi in 0usize..5,
        ai in 0usize..3,
        seed in 0u64..10_000,
    ) {
        let engine = Engine::new();
        let duration_s = 5.0;
        let config = PlatformPreset::by_name(PLATFORMS[pi]).unwrap().soc;

        let mut soc = Soc::new(config.clone());
        let mut gov = by_name(GOVERNORS[gi]).unwrap();
        let mut session =
            SessionSim::new(SessionPlan::single(APPS[ai], duration_s), seed);
        let single = engine.run(&mut soc, gov.as_mut(), &mut session, duration_s);

        let mut batch = SocBatch::replicate(&config, 1).unwrap();
        let mut gov = by_name(GOVERNORS[gi]).unwrap();
        let mut session =
            SessionSim::new(SessionPlan::single(APPS[ai], duration_s), seed);
        let mut lanes = [BatchLane {
            governor: gov.as_mut(),
            session: &mut session,
        }];
        let mut outcomes = empty_outcomes(1);
        engine.run_lanes_into(&mut batch, &mut lanes, duration_s, &mut outcomes);

        prop_assert_eq!(&outcomes[0], &single);
        prop_assert!(batch.state(0) == soc.state(), "final state diverged");
    }
}
