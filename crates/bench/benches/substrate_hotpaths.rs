//! Microbenchmarks of the simulation substrates: one SoC tick, one
//! thermal step, one VSync tick, the execution-plan evaluation and one
//! Q-table update. These bound the cost of the whole-system simulation
//! (a 5-minute session is 12 000 ticks).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use mpsoc::perf::{self, FrameDemand};
use mpsoc::thermal::{self, ThermalConfig};
use mpsoc::vsync::VsyncPipeline;
use mpsoc::{Soc, SocConfig};
use qlearn::{QLearning, QTable};

fn bench_substrates(c: &mut Criterion) {
    let demand = FrameDemand::new(10.0e6, 3.0e6, 8.0e6).with_background(0.4e9, 0.2e9, 0.0);

    let mut soc = Soc::new(SocConfig::exynos9810());
    c.bench_function("soc_tick_25ms", |b| {
        b.iter(|| black_box(soc.tick(0.025, black_box(&demand))));
    });

    let net = ThermalConfig::exynos9810(21.0);
    let max_dt = thermal::max_stable_dt(&net);
    let mut temps = vec![21.0; net.nodes.len()];
    let mut flux = vec![0.0; net.nodes.len()];
    let powers = [3.0, 0.4, 2.5, 0.9, 0.0];
    c.bench_function("thermal_step_25ms", |b| {
        b.iter(|| {
            thermal::step_lanes(
                &net,
                max_dt,
                1,
                &mut temps,
                black_box(&powers),
                &[21.0],
                &mut flux,
                0.025,
            );
        });
    });

    let mut pipe = VsyncPipeline::new(60.0);
    c.bench_function("vsync_tick_25ms", |b| {
        b.iter(|| black_box(pipe.tick(0.025, Some(0.02))));
    });

    let platform = mpsoc::Platform::exynos9810();
    let opps = [
        mpsoc::freq::OppTable::exynos9810_big().max(),
        mpsoc::freq::OppTable::exynos9810_little().max(),
        mpsoc::freq::OppTable::exynos9810_gpu().max(),
    ];
    c.bench_function("perf_plan", |b| {
        b.iter(|| black_box(perf::plan(black_box(&demand), &opps, &platform)));
    });

    let mut table = QTable::new(9);
    for s in 0..1_000u64 {
        table.set(s, (s % 9) as usize, s as f64 * 0.01);
    }
    let learner = QLearning::new(0.25, 0.5);
    let mut s = 0u64;
    c.bench_function("qtable_update", |b| {
        b.iter(|| {
            s = (s + 1) % 1_000;
            black_box(learner.update(&mut table, s, (s % 9) as usize, 1.5, (s + 1) % 1_000));
        });
    });

    let mut session = workload::SessionSim::new(workload::SessionPlan::paper_fig1(), 42);
    c.bench_function("workload_advance_25ms", |b| {
        b.iter(|| black_box(session.advance(0.025)));
    });
}

criterion_group!(benches, bench_substrates);
criterion_main!(benches);
