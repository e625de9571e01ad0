//! Structure-of-arrays batch of SoCs stepped in lockstep.
//!
//! [`SocBatch`] simulates `width` devices that share one platform
//! *structure* (domains, OPP ladders, thermal network topology, power
//! models, throttle trips) while every per-device *state* — node
//! temperatures, frequencies, throttle clamps, utilisations, energy —
//! lives in contiguous arrays keyed `domain × lane` or `node × lane`.
//! The physics hot loops (thermal RC update, power model, throttle
//! transitions) run as tight lane-inner loops over those arrays with no
//! per-lane heap allocation and no `dyn` dispatch, so the compiler can
//! vectorise across devices.
//!
//! # Arena layout
//!
//! ```text
//! temps_c      [node0: l0 l1 … lW | node1: l0 l1 … lW | …]   (f64)
//! node_power   [node0: l0 l1 … lW | node1: l0 l1 … lW | …]   (f64)
//! domain_w     [dom0:  l0 l1 … lW | dom1:  l0 l1 … lW | …]   (f64)
//! clamp_level  [dom0:  l0 l1 … lW | dom1:  l0 l1 … lW | …]   (usize)
//! lvl_cur      [dom0:  l0 l1 … lW | dom1:  l0 l1 … lW | …]   (usize)
//! ambient_c    [l0 l1 … lW]                                   (f64)
//! base_w       [l0 l1 … lW]                                   (f64)
//! ```
//!
//! Each lane owns a disjoint column, so the inner loops are free of
//! cross-lane dependencies; structure-level constants (trip points,
//! capacitances, conductances, Hz ladders) are hoisted out of the lane
//! loops and shared by every device.
//!
//! # One kernel, any width
//!
//! This is the only physics implementation in the crate: a single
//! device ([`crate::Soc`]) is a width-1 batch. Batching is a pure
//! interleaving — lane `l` of a batch performs exactly the
//! floating-point operation sequence it would perform run alone, in the
//! same order — so a lane of a heterogeneous width-N cohort is
//! bit-identical to the same device stepped as a width-1 batch. The
//! lane-independence suite in this module and the cross-crate proptests
//! pin that contract.
//!
//! Lanes may differ in ambient temperature and platform base power (the
//! fleet's device bins); everything structural must match across lanes
//! or [`SocBatch::try_from_configs`] rejects the cohort.
//!
//! # Example
//!
//! Two devices tick in lockstep; the idle lane matches the same device
//! stepped alone as a [`crate::Soc`] (a width-1 batch) bit for bit,
//! whatever its neighbour runs:
//!
//! ```
//! use mpsoc::perf::FrameDemand;
//! use mpsoc::soc::{Soc, SocConfig};
//! use mpsoc::SocBatch;
//!
//! let config = SocConfig::exynos9810();
//! let mut batch = SocBatch::replicate(&config, 2).unwrap();
//! let mut alone = Soc::new(config);
//! let idle = FrameDemand::default();
//! let game = FrameDemand::new(22.0e6, 6.0e6, 30.0e6);
//! for _ in 0..40 {
//!     batch.tick(0.025, &[idle, game]);
//!     alone.tick(0.025, &idle);
//! }
//! assert_ne!(batch.state(0), batch.state(1), "the lanes ran different loads");
//! assert_eq!(batch.state(0), alone.state(), "a lane never sees its neighbour");
//! ```

use std::collections::VecDeque;

use crate::dvfs::DvfsController;
use crate::freq::{KiloHertz, Opp};
use crate::perf::{self, FrameDemand};
use crate::platform::{DomainId, PerDomain, Platform};
use crate::power::{DomainPowerModel, PowerBreakdown};
use crate::soc::{SocConfig, SocState, TickOutput};
use crate::thermal::{self, NodeId, ThermalConfig};
use crate::vsync::{VsyncOutput, VsyncPipeline};
use crate::{Error, Result};

/// Length of the rolling window behind [`SocState::fps`], seconds.
/// Instantaneous per-tick rates quantise to multiples of the tick/VSync
/// ratio (e.g. 40/80 FPS at 25 ms ticks); half a second of history is
/// what Android's frame-rate instrumentation effectively reports.
const FPS_WINDOW_S: f64 = 0.5;

/// A batch of `width` devices stepped in lockstep through the crate's
/// one physics kernel ([`Soc`](crate::Soc) is its width-1 case).
#[derive(Debug, Clone)]
pub struct SocBatch {
    platform: Platform,
    width: usize,
    refresh_hz: f64,
    /// DVFS controller per lane: the governor actuation surface (policy
    /// caps and current levels are per-device state).
    dvfs: Vec<DvfsController>,
    /// VSync/triple-buffer pipeline per lane (render phase is
    /// per-device state).
    vsync: Vec<VsyncPipeline>,
    /// Frequency of every OPP in Hz, per domain — the shared ladder the
    /// lane-wise utilisation-tracking selection scans (precomputed once
    /// instead of converting kHz per probe, per lane, per tick).
    hz_ladder: Vec<Vec<f64>>,
    /// Frequency of every OPP in kHz, per domain (state materialisation).
    khz_ladder: Vec<Vec<KiloHertz>>,
    /// Full OPP descriptor of every level, per domain — shared across
    /// lanes (construction enforces structural equality with each
    /// lane's controller table).
    opp_ladder: Vec<Vec<Opp>>,
    // --- DVFS level mirror (SoA) ---
    /// Current frequency level per `domain × lane`: a write-through
    /// mirror of the per-lane controllers, so the per-tick selection,
    /// clamp enforcement and OPP materialisation read contiguous
    /// arrays and only touch a controller when a level actually
    /// changes.
    lvl_cur: Vec<usize>,
    /// Lower policy cap level per `domain × lane` (mirror).
    lvl_min: Vec<usize>,
    /// Upper policy cap level per `domain × lane` (mirror).
    lvl_max: Vec<usize>,
    /// Per-lane mirror of the controller's util-margin and boost
    /// threshold (refreshed together with the level mirror), so
    /// steady-state selection reads contiguous arrays instead of
    /// chasing into each lane's controller.
    margin_mirror: Vec<f64>,
    boost_mirror: Vec<f64>,
    /// Lanes whose controller was handed out via
    /// [`SocBatch::dvfs_mut`] since the last tick; their mirror
    /// columns are re-read from the controller when the next tick
    /// starts.
    dvfs_dirty: Vec<bool>,
    /// Lanes whose *controller* lags the mirror: the tick kernel
    /// writes levels to the mirror only (write-behind), and the
    /// controller is brought up to date when it is next handed out.
    /// Mutually exclusive with `dvfs_dirty` — a handout flushes before
    /// marking dirty.
    ctl_stale: Vec<bool>,
    // --- throttle (SoA) ---
    throttle_enabled: bool,
    hysteresis_c: f64,
    /// Trip temperature per domain (∞ where the config lists none).
    trip_c: PerDomain<f64>,
    top_level: PerDomain<usize>,
    /// Thermal clamp per `domain × lane`.
    clamp_level: Vec<usize>,
    // --- thermal (SoA) ---
    /// Shared network structure (its `ambient_c` field is unused; the
    /// per-lane `ambient_c` array below is authoritative).
    thermal_config: ThermalConfig,
    max_stable_dt_s: f64,
    /// Ambient temperature per lane, °C.
    ambient_c: Vec<f64>,
    /// Node temperature per `node × lane`, °C.
    temps_c: Vec<f64>,
    /// Forward-Euler scratch per `node × lane` (persistent, never
    /// reallocated in the tick path).
    flux: Vec<f64>,
    /// Injected power per `node × lane`, watts.
    node_power: Vec<f64>,
    // --- power ---
    /// Per-domain power models, shared across lanes.
    domain_models: PerDomain<DomainPowerModel>,
    /// Platform floor power per lane, watts (fleet bins scale it).
    base_w: Vec<f64>,
    /// Domain power per `domain × lane`, watts (scratch).
    domain_w: Vec<f64>,
    die_nodes: PerDomain<NodeId>,
    // --- per-lane rolling state ---
    /// Previous-tick utilisation per `domain × lane` (what the next
    /// tick's in-kernel selection tracks).
    last_utils: Vec<f64>,
    time_s: Vec<f64>,
    /// Lifetime energy per lane, joules (battery accounting).
    energy_j: Vec<f64>,
    /// Full per-lane output of the most recent tick.
    last_tick: Vec<TickOutput>,
    /// Frequency level per `domain × lane` as of the end of the last
    /// tick (a snapshot, so [`SocBatch::state`] reports the frequencies
    /// the tick ran at, not control actuated since).
    level_snap: Vec<usize>,
    /// `maxfreq` cap level per `domain × lane` at the end of the last
    /// tick.
    cap_snap: Vec<usize>,
    // --- shared FPS window ---
    /// Tick lengths of the rolling window — one entry per tick, shared
    /// by every lane (lockstep means identical dt history).
    window_dt: VecDeque<f64>,
    /// Presented frames per window slot × lane, slot-major.
    window_frames: VecDeque<u32>,
    /// Window length: the dt sum minus popped fronts, in that order.
    window_total_dt_s: f64,
}

impl SocBatch {
    /// A batch of `width` identical devices.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when `config` is invalid (see
    /// [`SocBatch::try_from_configs`]).
    pub fn replicate(config: &SocConfig, width: usize) -> Result<Self> {
        let configs = vec![config.clone(); width];
        SocBatch::try_from_configs(&configs)
    }

    /// A batch over per-lane configurations.
    ///
    /// Lanes may differ in thermal ambient temperature and platform
    /// base power; every structural parameter (platform domains, OPP
    /// ladders, thermal topology, refresh rate, throttle, util
    /// selection) must match across lanes.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] on an empty cohort, a
    /// non-positive refresh rate, a domain mapped to a thermal node
    /// outside the network, an invalid thermal network, or lanes that
    /// diverge structurally.
    #[allow(clippy::too_many_lines)]
    pub fn try_from_configs(configs: &[SocConfig]) -> Result<Self> {
        let first = configs
            .first()
            .ok_or_else(|| Error::InvalidConfig("batch needs at least one lane".to_owned()))?;
        for (lane, cfg) in configs.iter().enumerate() {
            if !(cfg.refresh_hz > 0.0 && cfg.refresh_hz.is_finite()) {
                return Err(Error::InvalidConfig(
                    "refresh rate must be positive".to_owned(),
                ));
            }
            for d in cfg.platform.domains() {
                if d.thermal_node >= cfg.thermal.nodes.len() {
                    return Err(Error::InvalidConfig(format!(
                        "domain '{}' references thermal node {} outside the network",
                        d.name, d.thermal_node
                    )));
                }
            }
            let mismatch = |what: &str| {
                Err(Error::InvalidConfig(format!(
                    "lane {lane} diverges from lane 0 in {what}; batch lanes must share \
                     the platform structure"
                )))
            };
            if cfg.platform.name() != first.platform.name()
                || cfg.platform.domains() != first.platform.domains()
            {
                return mismatch("platform domains");
            }
            if cfg.thermal.nodes != first.thermal.nodes
                || cfg.thermal.edges != first.thermal.edges
                || cfg.thermal.board_node != first.thermal.board_node
                || cfg.thermal.skin_node != first.thermal.skin_node
            {
                return mismatch("thermal network structure");
            }
            if cfg.refresh_hz != first.refresh_hz {
                return mismatch("refresh rate");
            }
            if cfg.throttle != first.throttle {
                return mismatch("throttle configuration");
            }
        }
        first.thermal.validate()?;

        let width = configs.len();
        let platform = first.platform.clone();
        let n = platform.n_domains();
        let n_nodes = first.thermal.nodes.len();
        let sizes = platform.freq_levels();
        let hz_ladder: Vec<Vec<f64>> = platform
            .domains()
            .iter()
            .map(|d| d.table.iter().map(crate::freq::Opp::freq_hz).collect())
            .collect();
        let khz_ladder: Vec<Vec<KiloHertz>> = platform
            .domains()
            .iter()
            .map(|d| d.table.iter().map(|o| o.freq_khz).collect())
            .collect();
        let opp_ladder: Vec<Vec<Opp>> = platform
            .domains()
            .iter()
            .map(|d| d.table.iter().copied().collect())
            .collect();
        let top_level = PerDomain::from_fn(n, |i| sizes[i].saturating_sub(1));
        let trip_c = PerDomain::from_fn(n, |i| {
            first
                .throttle
                .trip_c
                .get(i)
                .copied()
                .unwrap_or(f64::INFINITY)
        });
        let die_nodes = PerDomain::from_fn(n, |i| platform.domains()[i].thermal_node);
        let domain_models = PerDomain::from_fn(n, |i| platform.domains()[i].power);
        let dvfs: Vec<DvfsController> = configs
            .iter()
            .map(|c| DvfsController::for_platform(&c.platform))
            .collect();
        let ambient_c: Vec<f64> = configs.iter().map(|c| c.thermal.ambient_c).collect();
        let base_w: Vec<f64> = configs.iter().map(|c| c.platform.base_power_w()).collect();
        let mut temps_c = vec![0.0; n_nodes * width];
        for node in 0..n_nodes {
            temps_c[node * width..(node + 1) * width].copy_from_slice(&ambient_c);
        }
        let mut batch = SocBatch {
            width,
            refresh_hz: first.refresh_hz,
            dvfs,
            vsync: vec![VsyncPipeline::new(first.refresh_hz); width],
            hz_ladder,
            khz_ladder,
            opp_ladder,
            lvl_cur: vec![0; n * width],
            lvl_min: vec![0; n * width],
            lvl_max: vec![0; n * width],
            margin_mirror: vec![0.0; width],
            boost_mirror: vec![0.0; width],
            dvfs_dirty: vec![false; width],
            ctl_stale: vec![false; width],
            throttle_enabled: first.throttle.enabled,
            hysteresis_c: first.throttle.hysteresis_c,
            trip_c,
            top_level,
            clamp_level: vec![0; n * width],
            max_stable_dt_s: thermal::max_stable_dt(&first.thermal),
            thermal_config: first.thermal.clone(),
            ambient_c,
            temps_c,
            flux: vec![0.0; n_nodes * width],
            node_power: vec![0.0; n_nodes * width],
            domain_models,
            base_w,
            domain_w: vec![0.0; n * width],
            die_nodes,
            last_utils: vec![0.0; n * width],
            time_s: vec![0.0; width],
            energy_j: vec![0.0; width],
            last_tick: vec![zero_tick(n); width],
            level_snap: vec![0; n * width],
            cap_snap: vec![0; n * width],
            window_dt: VecDeque::new(),
            window_frames: VecDeque::new(),
            window_total_dt_s: 0.0,
            platform,
        };
        for d in 0..n {
            for l in 0..width {
                batch.clamp_level[d * width + l] = batch.top_level[d];
            }
        }
        for l in 0..width {
            batch.resync_lane_dvfs(l);
        }
        batch.snapshot_dvfs();
        Ok(batch)
    }

    /// Number of device lanes.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// The shared platform descriptor.
    #[must_use]
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// DVFS controller of one lane (read access). Takes `&mut self`
    /// because the tick kernel runs the controller write-behind (the
    /// handed-out controller is brought up to date with the level
    /// mirror first).
    pub fn dvfs(&mut self, lane: usize) -> &DvfsController {
        self.flush_lane_ctl(lane);
        &self.dvfs[lane]
    }

    /// DVFS controller of one lane — the governor's actuator, applied
    /// between ticks. The controller is brought up to date with the
    /// level mirror before it is handed out, and the lane is marked for
    /// a mirror re-read when the next tick starts.
    pub fn dvfs_mut(&mut self, lane: usize) -> &mut DvfsController {
        self.flush_lane_ctl(lane);
        self.dvfs_dirty[lane] = true;
        &mut self.dvfs[lane]
    }

    /// Write-behind flush: pushes the lane's mirror levels into its
    /// controller if the tick kernel advanced them since the last
    /// handout. Mirror levels are post-clamp values, so `force_level`
    /// reproduces the controller state the eager path would have.
    fn flush_lane_ctl(&mut self, lane: usize) {
        if !self.ctl_stale[lane] {
            return;
        }
        self.ctl_stale[lane] = false;
        let w = self.width;
        for d in 0..self.platform.n_domains() {
            let level = self.lvl_cur[d * w + lane];
            self.dvfs[lane]
                .domain_mut(DomainId::new(d))
                .force_level(level)
                // qlint::allow(PN01, reason = "the SoA mirror only holds levels previously accepted by this controller")
                .expect("mirror level within table");
        }
    }

    /// Re-reads one lane's controller into the SoA level/cap mirror
    /// (at construction, and whenever the lane's controller was
    /// actuated directly between ticks).
    fn resync_lane_dvfs(&mut self, lane: usize) {
        let w = self.width;
        for d in 0..self.platform.n_domains() {
            let dom = self.dvfs[lane].domain(DomainId::new(d));
            let (cur, min, max) = (
                dom.current_level(),
                dom.min_cap_level(),
                dom.max_cap_level(),
            );
            self.lvl_cur[d * w + lane] = cur;
            self.lvl_min[d * w + lane] = min;
            self.lvl_max[d * w + lane] = max;
        }
        self.margin_mirror[lane] = self.dvfs[lane].util_margin();
        self.boost_mirror[lane] = self.dvfs[lane].boost_threshold();
    }

    /// Simulated time of one lane, seconds.
    #[must_use]
    pub fn time_s(&self, lane: usize) -> f64 {
        self.time_s[lane]
    }

    /// Lifetime energy drawn by one lane, joules.
    #[must_use]
    pub fn energy_j(&self, lane: usize) -> f64 {
        self.energy_j[lane]
    }

    /// Full output of the most recent tick for one lane.
    #[must_use]
    pub fn tick_output(&self, lane: usize) -> &TickOutput {
        &self.last_tick[lane]
    }

    /// Whether the hardware thermal clamp holds any domain of one lane
    /// below its top level.
    #[must_use]
    pub fn is_throttling(&self, lane: usize) -> bool {
        let w = self.width;
        self.throttle_enabled
            && (0..self.platform.n_domains())
                .any(|d| self.clamp_level[d * w + lane] != self.top_level[d])
    }

    /// Returns every lane to a cold start: nodes at the lane's ambient,
    /// throttle clamps released, VSync phase, utilisation history, FPS
    /// window, time and energy cleared. DVFS levels and policy caps are
    /// kept, including actuation since the last tick.
    pub fn reset(&mut self) {
        let w = self.width;
        let n = self.platform.n_domains();
        for row in self.temps_c.chunks_exact_mut(w) {
            row.copy_from_slice(&self.ambient_c);
        }
        for d in 0..n {
            self.clamp_level[d * w..(d + 1) * w].fill(self.top_level[d]);
        }
        self.vsync = vec![VsyncPipeline::new(self.refresh_hz); w];
        self.last_utils.fill(0.0);
        self.time_s.fill(0.0);
        self.energy_j.fill(0.0);
        self.last_tick.fill(zero_tick(n));
        self.window_dt.clear();
        self.window_frames.clear();
        self.window_total_dt_s = 0.0;
        for l in 0..w {
            if self.dvfs_dirty[l] {
                self.dvfs_dirty[l] = false;
                self.resync_lane_dvfs(l);
            }
        }
        self.snapshot_dvfs();
    }

    /// The governor-visible state of one lane after the most recent
    /// tick. Materialised on demand from the arenas (DVFS-derived
    /// fields come from the end-of-tick snapshot, so control actuation
    /// between ticks does not leak into the observation).
    #[must_use]
    pub fn state(&self, lane: usize) -> SocState {
        let n = self.platform.n_domains();
        let w = self.width;
        let freq_level = PerDomain::from_fn(n, |d| self.level_snap[d * w + lane]);
        let max_cap_level = PerDomain::from_fn(n, |d| self.cap_snap[d * w + lane]);
        let freq_khz = PerDomain::from_fn(n, |d| self.khz_ladder[d][freq_level[d]]);
        let temp_domain_c = PerDomain::from_fn(n, |d| self.temps_c[self.die_nodes[d] * w + lane]);
        let skin = self.temps_c[self.thermal_config.skin_node * w + lane];
        let board = self.temps_c[self.thermal_config.board_node * w + lane];
        let die_max = self
            .die_nodes
            .iter()
            .map(|&node| self.temps_c[node * w + lane])
            .fold(f64::MIN, f64::max);
        SocState {
            time_s: self.time_s[lane],
            freq_khz,
            freq_level,
            max_cap_level,
            fps: self.windowed_fps(lane),
            power_w: self.last_tick[lane].power_w,
            temp_domain_c,
            temp_hot_c: temp_domain_c[self.platform.hot_domain().index()],
            temp_device_c: thermal::device_sensor_c(skin, board, die_max),
            temp_battery_c: board,
            util: PerDomain::from_fn(n, |d| self.last_utils[d * w + lane]),
        }
    }

    /// Rolling-window FPS of one lane: its presented frames over the
    /// shared window length, capped at the refresh rate (VSync
    /// boundaries need not align with the window edge, so the raw
    /// quotient can exceed it by a fraction of a frame).
    fn windowed_fps(&self, lane: usize) -> f64 {
        if self.window_total_dt_s <= 0.0 {
            return 0.0;
        }
        let frames: u32 = self
            .window_frames
            .iter()
            .skip(lane)
            .step_by(self.width)
            .sum();
        (f64::from(frames) / self.window_total_dt_s).min(self.refresh_hz)
    }

    /// Advances every lane by `dt_s` seconds; `demands[lane]` is the
    /// frame demand lane `lane` executes. Performs, per lane: the
    /// kernel's utilisation-tracking frequency selection on the previous
    /// tick's utilisation, the hardware throttle transition (its clamp
    /// outranks every software policy), frame execution + VSync, power
    /// integration at the pre-step die temperatures, thermal update.
    ///
    /// # Panics
    ///
    /// Panics unless `demands.len()` equals the batch width.
    #[allow(clippy::too_many_lines)]
    pub fn tick(&mut self, dt_s: f64, demands: &[FrameDemand]) {
        let w = self.width;
        let n = self.platform.n_domains();
        assert_eq!(demands.len(), w, "one FrameDemand per lane");

        // 0. Refresh the level mirror of any lane whose controller was
        //    actuated directly since the last tick.
        for l in 0..w {
            if self.dvfs_dirty[l] {
                self.dvfs_dirty[l] = false;
                self.resync_lane_dvfs(l);
            }
        }

        // 1. In-kernel utilisation-tracking selection, domain-outer over
        //    the SoA mirrors (each `domain × lane` choice is
        //    independent). Writes land in the mirror only; stale
        //    controllers are caught up on handout (`flush_lane_ctl`).
        for (d, ladder) in self.hz_ladder.iter().enumerate() {
            let base = d * w;
            select_domain_lanes(
                ladder,
                &self.last_utils[base..base + w],
                &self.margin_mirror,
                &self.boost_mirror,
                &mut self.lvl_cur[base..base + w],
                &self.lvl_min[base..base + w],
                &self.lvl_max[base..base + w],
                &mut self.ctl_stale,
            );
        }

        // 2. Throttle transitions on the pre-step die temperatures —
        //    the SoA loop over `domain × lane`.
        if self.throttle_enabled {
            for d in 0..n {
                let trip = self.trip_c[d];
                let top = self.top_level[d];
                let tbase = self.die_nodes[d] * w;
                let cbase = d * w;
                for l in 0..w {
                    self.clamp_level[cbase + l] = crate::throttle::clamp_transition(
                        self.clamp_level[cbase + l],
                        top,
                        trip,
                        self.hysteresis_c,
                        self.temps_c[tbase + l],
                    );
                }
            }
        }

        // 3.–4. Per-lane control surface: clamp enforcement against the
        //    level mirror (write-behind, like selection), execution
        //    planning from the shared OPP ladder, VSync.
        for (l, demand) in demands.iter().enumerate() {
            for d in 0..n {
                let clamp = if self.throttle_enabled {
                    self.clamp_level[d * w + l]
                } else {
                    self.top_level[d]
                };
                if self.lvl_cur[d * w + l] > clamp {
                    self.lvl_cur[d * w + l] = clamp;
                    self.ctl_stale[l] = true;
                }
            }
            let opps = PerDomain::from_fn(n, |d| self.opp_ladder[d][self.lvl_cur[d * w + l]]);
            let plan = perf::plan(demand, &opps, &self.platform);
            let vout = self.vsync[l].tick(dt_s, plan.frame_period_s);
            let fps = vout.fps(dt_s);
            // The renderer runs at its natural rate until the display
            // caps it at the refresh rate; that achieved production
            // rate — not the presented FPS — is what loads the domains.
            let produced_rate = plan.render_rate_hz().min(self.refresh_hz);
            let util = PerDomain::from_fn(n, |i| plan.utilization(DomainId::new(i), produced_rate));
            for d in 0..n {
                self.last_utils[d * w + l] = util[d];
            }
            let out = &mut self.last_tick[l];
            out.dt_s = dt_s;
            out.fps = fps;
            out.vsync = vout;
            out.util = util;
            out.opps = opps;
        }

        // 5. Power at the pre-step die temperatures — SoA over
        //    `domain × lane`, shared models, no dispatch. Operating
        //    points and utilisations come straight from the arenas
        //    (`lvl_cur` is final for this tick after the clamp stage,
        //    and `last_utils` was just refreshed), so the loop reads
        //    contiguous lanes instead of striding through the per-lane
        //    tick outputs.
        for d in 0..n {
            let model = self.domain_models[d];
            let ladder = &self.opp_ladder[d];
            let tbase = self.die_nodes[d] * w;
            let dbase = d * w;
            for l in 0..w {
                self.domain_w[dbase + l] = model.total_w(
                    ladder[self.lvl_cur[dbase + l]],
                    self.last_utils[dbase + l],
                    self.temps_c[tbase + l],
                );
            }
        }

        // 6. Node power injection (domain heat onto die nodes, floor
        //    power onto the board), then the shared thermal kernel.
        self.node_power.fill(0.0);
        for d in 0..n {
            let npbase = self.die_nodes[d] * w;
            let dbase = d * w;
            for l in 0..w {
                self.node_power[npbase + l] += self.domain_w[dbase + l];
            }
        }
        let bbase = self.thermal_config.board_node * w;
        for l in 0..w {
            self.node_power[bbase + l] += self.base_w[l];
        }
        thermal::step_lanes(
            &self.thermal_config,
            self.max_stable_dt_s,
            w,
            &mut self.temps_c,
            &self.node_power,
            &self.ambient_c,
            &mut self.flux,
            dt_s,
        );

        // 7. Per-lane accounting: totals summed domain by domain, then
        //    the floor.
        for l in 0..w {
            let mut total_w = 0.0;
            for d in 0..n {
                total_w += self.domain_w[d * w + l];
            }
            total_w += self.base_w[l];
            let out = &mut self.last_tick[l];
            out.power = PowerBreakdown {
                domain_w: PerDomain::from_fn(n, |d| self.domain_w[d * w + l]),
                base_w: self.base_w[l],
            };
            out.power_w = total_w;
            self.time_s[l] += dt_s.max(0.0);
            if dt_s > 0.0 {
                self.energy_j[l] += total_w * dt_s;
            }
        }
        self.snapshot_dvfs();

        // 8. Shared FPS window: one dt history for the whole batch
        //    (lockstep), per-lane presented counts per slot.
        if dt_s > 0.0 {
            self.window_dt.push_back(dt_s);
            for l in 0..w {
                self.window_frames
                    .push_back(self.last_tick[l].vsync.presented);
            }
        }
        let mut total_dt: f64 = self.window_dt.iter().sum();
        while let Some(&front_dt) = self.window_dt.front() {
            if total_dt - front_dt >= FPS_WINDOW_S {
                self.window_dt.pop_front();
                for _ in 0..w {
                    self.window_frames.pop_front();
                }
                total_dt -= front_dt;
            } else {
                break;
            }
        }
        self.window_total_dt_s = total_dt;
    }

    /// Records the end-of-tick frequency levels and caps (what
    /// [`SocBatch::state`] reports until the next tick). The mirror is
    /// in sync with every controller here — dirty lanes are re-read at
    /// tick start and in-tick writes go through both — so this is a
    /// pair of straight copies.
    fn snapshot_dvfs(&mut self) {
        self.level_snap.copy_from_slice(&self.lvl_cur);
        self.cap_snap.copy_from_slice(&self.lvl_max);
    }

    /// Compacts the batch to the lanes with `keep[lane] == true`,
    /// preserving every kept lane's state (training fleets drop lanes
    /// as their agents converge).
    ///
    /// # Panics
    ///
    /// Panics unless `keep.len()` equals the batch width.
    pub fn retain_lanes(&mut self, keep: &[bool]) {
        fn retain_vec<T>(v: &mut Vec<T>, keep: &[bool]) {
            let mut it = keep.iter();
            // qlint::allow(PN01, reason = "the assert below guarantees one keep flag per lane")
            v.retain(|_| *it.next().expect("keep flag per element"));
        }

        assert_eq!(keep.len(), self.width, "one keep flag per lane");
        let kept: Vec<usize> = (0..self.width).filter(|&l| keep[l]).collect();
        if kept.len() == self.width {
            return;
        }
        let old_w = self.width;
        let new_w = kept.len();
        let n = self.platform.n_domains();
        let n_nodes = self.thermal_config.nodes.len();

        retain_vec(&mut self.dvfs, keep);
        retain_vec(&mut self.vsync, keep);
        retain_vec(&mut self.ambient_c, keep);
        retain_vec(&mut self.base_w, keep);
        retain_vec(&mut self.time_s, keep);
        retain_vec(&mut self.energy_j, keep);
        retain_vec(&mut self.last_tick, keep);
        retain_vec(&mut self.dvfs_dirty, keep);
        retain_vec(&mut self.ctl_stale, keep);
        retain_vec(&mut self.margin_mirror, keep);
        retain_vec(&mut self.boost_mirror, keep);

        let compact = |arr: &mut Vec<f64>, rows: usize| {
            for row in 0..rows {
                for (new_l, &old_l) in kept.iter().enumerate() {
                    arr[row * new_w + new_l] = arr[row * old_w + old_l];
                }
            }
            arr.truncate(rows * new_w);
        };
        compact(&mut self.temps_c, n_nodes);
        let compact_usize = |arr: &mut Vec<usize>, rows: usize| {
            for row in 0..rows {
                for (new_l, &old_l) in kept.iter().enumerate() {
                    arr[row * new_w + new_l] = arr[row * old_w + old_l];
                }
            }
            arr.truncate(rows * new_w);
        };
        compact_usize(&mut self.clamp_level, n);
        compact_usize(&mut self.level_snap, n);
        compact_usize(&mut self.cap_snap, n);
        compact_usize(&mut self.lvl_cur, n);
        compact_usize(&mut self.lvl_min, n);
        compact_usize(&mut self.lvl_max, n);
        compact(&mut self.last_utils, n);
        self.flux.truncate(n_nodes * new_w);
        self.node_power.truncate(n_nodes * new_w);
        self.domain_w.truncate(n * new_w);

        let slots = self.window_dt.len();
        let old_frames: Vec<u32> = self.window_frames.iter().copied().collect();
        self.window_frames.clear();
        for slot in 0..slots {
            for &old_l in &kept {
                self.window_frames
                    .push_back(old_frames[slot * old_w + old_l]);
            }
        }
        self.width = new_w;
    }
}

/// The output every lane reports before its first tick.
fn zero_tick(n_domains: usize) -> TickOutput {
    TickOutput {
        dt_s: 0.0,
        fps: 0.0,
        vsync: VsyncOutput::default(),
        power: PowerBreakdown {
            domain_w: PerDomain::new(n_domains),
            base_w: 0.0,
        },
        power_w: 0.0,
        util: PerDomain::new(n_domains),
        opps: PerDomain::new(n_domains),
    }
}

/// One domain's round of utilisation-tracking frequency selection
/// across all lanes — the in-kernel policy that operates *within* the
/// governor's caps:
///
/// * a lane whose utilisation (clamped to `[0, 1]`) reaches its boost
///   threshold is slammed to the top of the ladder (Android
///   touch/iowait boosting — the over-provisioning the paper exploits),
/// * otherwise the target is `margin · util · f_cur`; ramp-up picks the
///   slowest OPP at or above the target, while ramp-down is rate
///   limited to one OPP per invocation (the stock policy holds
///   frequency after bursts),
/// * the result is clamped to the lane's policy caps.
///
/// `ladder` is the domain's OPP ladder in Hz; current levels and caps
/// are the batch's SoA mirror rows. Level changes land in the mirror
/// only — the lane is flagged stale and its controller caught up lazily
/// on handout ([`SocBatch::flush_lane_ctl`]).
#[allow(clippy::too_many_arguments)]
pub(crate) fn select_domain_lanes(
    ladder: &[f64],
    last_utils: &[f64],
    margin: &[f64],
    boost_threshold: &[f64],
    lvl_cur: &mut [usize],
    lvl_min: &[usize],
    lvl_max: &[usize],
    ctl_stale: &mut [bool],
) {
    let top = ladder.len() - 1;
    // Zipped iteration over the six lane rows: one length check per
    // row up front instead of a bounds check per lane access.
    let lanes = lvl_cur
        .iter_mut()
        .zip(last_utils)
        .zip(margin)
        .zip(boost_threshold)
        .zip(lvl_min)
        .zip(lvl_max)
        .zip(ctl_stale);
    for ((((((cur, &raw_util), &margin), &boost), &lo), &hi), stale) in lanes {
        let util = raw_util.clamp(0.0, 1.0);
        let cur_level = *cur;
        let level = if util >= boost {
            top
        } else {
            let target_hz = margin * util * ladder[cur_level];
            // First ladder index at or above the target. The ladder is
            // strictly ascending, so that index equals the number of
            // entries below the target — counted branchlessly, which
            // vectorises, instead of an early-exit scan (when no entry
            // qualifies the count is the length, and the `min` falls
            // back to the last level).
            let below = ladder.iter().map(|&h| usize::from(h < target_hz)).sum();
            let want = usize::min(below, top);
            if want < cur_level {
                cur_level - 1
            } else {
                want
            }
        };
        let chosen = level.clamp(lo, hi);
        if chosen != cur_level {
            *cur = chosen;
            *stale = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soc::Soc;
    use crate::throttle::ThrottleConfig;

    /// Deterministic demand schedule mixing idle, UI and game phases;
    /// neighbouring lanes are in different phases at every tick.
    fn demand_at(tick: usize, lane: usize) -> FrameDemand {
        let phase = (tick / 40 + lane) % 4;
        match phase {
            0 => FrameDemand::default(),
            1 => FrameDemand::new(3.0e6, 1.5e6, 4.0e6).with_background(0.05e9, 0.05e9, 0.0),
            2 => FrameDemand::new(22.0e6, 6.0e6, 30.0e6).with_background(0.3e9, 0.1e9, 0.0),
            _ => FrameDemand::new(0.0, 0.0, 0.0).with_background(1.2e9, 0.6e9, 0.0),
        }
    }

    /// Every device run alone, as a width-1 batch.
    fn alone(configs: &[SocConfig]) -> Vec<SocBatch> {
        configs
            .iter()
            .map(|c| SocBatch::replicate(c, 1).expect("valid device"))
            .collect()
    }

    /// Asserts lane `lane` of `cohort` is bit-identical to `solo`.
    fn assert_lane_is(cohort: &SocBatch, lane: usize, solo: &SocBatch, what: &str) {
        let (a, b) = (cohort.tick_output(lane), solo.tick_output(0));
        assert_eq!(a, b, "{what}: lane {lane} tick output");
        assert_eq!(
            a.power_w.to_bits(),
            b.power_w.to_bits(),
            "{what}: lane {lane} power"
        );
        assert_eq!(a.fps.to_bits(), b.fps.to_bits(), "{what}: lane {lane} fps");
        assert!(
            cohort.state(lane) == solo.state(0),
            "{what}: lane {lane} state drifted:\n cohort {:?}\n alone  {:?}",
            cohort.state(lane),
            solo.state(0)
        );
        assert_eq!(
            cohort.energy_j(lane).to_bits(),
            solo.energy_j(0).to_bits(),
            "{what}: lane {lane} energy"
        );
    }

    /// Steps `configs` as one cohort, each lane on its own demand
    /// schedule, next to every device run alone, and asserts lane
    /// independence after every tick.
    fn assert_lanes_independent(configs: &[SocConfig], ticks: usize) {
        let mut cohort = SocBatch::try_from_configs(configs).expect("valid batch");
        let mut solos = alone(configs);
        assert_eq!(cohort.width(), configs.len());
        let mut demands = vec![FrameDemand::default(); configs.len()];
        for t in 0..ticks {
            for (l, d) in demands.iter_mut().enumerate() {
                *d = demand_at(t, l);
            }
            cohort.tick(0.025, &demands);
            for (l, solo) in solos.iter_mut().enumerate() {
                solo.tick(0.025, &demands[l..=l]);
                assert_lane_is(&cohort, l, solo, &format!("tick {t}"));
            }
        }
    }

    /// The `Soc` façade adds nothing to the width-1 kernel: its tick
    /// outputs, states and controller handouts are the batch's.
    #[test]
    fn width_one_matches_soc_bit_for_bit() {
        let cfg = SocConfig::exynos9810();
        let mut soc = Soc::new(cfg.clone());
        let mut batch = SocBatch::replicate(&cfg, 1).unwrap();
        for t in 0..600 {
            let demand = demand_at(t, 0);
            let out = soc.tick(0.025, &demand);
            batch.tick(0.025, &[demand]);
            assert_eq!(&out, batch.tick_output(0), "tick {t} output");
            assert!(soc.state() == batch.state(0), "tick {t} state");
            assert_eq!(soc.time_s().to_bits(), batch.time_s(0).to_bits());
            assert_eq!(soc.dvfs(), batch.dvfs(0), "tick {t} controller");
        }
    }

    #[test]
    fn width_four_9820_matches_soc_bit_for_bit() {
        assert_lanes_independent(&vec![SocConfig::exynos9820(); 4], 400);
    }

    #[test]
    fn heterogeneous_ambient_and_base_power_lanes_match_scalars() {
        // The fleet's device bins: per-lane ambient and base power.
        let bins = [(21.0, 1.0), (27.0, 1.0), (21.0, 1.15), (15.0, 0.9)];
        let configs: Vec<SocConfig> = bins
            .iter()
            .map(|&(ambient, scale)| {
                let mut cfg = SocConfig::exynos9810().with_ambient(ambient);
                cfg.platform.scale_base_power(scale);
                cfg
            })
            .collect();
        assert_lanes_independent(&configs, 400);
    }

    #[test]
    fn initial_state_matches_scalar() {
        let configs: Vec<SocConfig> = [21.0, 35.0, 10.0]
            .iter()
            .map(|&a| SocConfig::exynos9810().with_ambient(a))
            .collect();
        let cohort = SocBatch::try_from_configs(&configs).unwrap();
        for (l, solo) in alone(&configs).iter().enumerate() {
            assert_lane_is(&cohort, l, solo, "before the first tick");
        }
        assert_ne!(cohort.state(0), cohort.state(1), "ambients differ");
    }

    #[test]
    fn throttling_lanes_match_scalar() {
        // Lane 0 is pinned to its top OPPs under a heavy game with a
        // 40 °C trip, so its clamp engages; lane 1 idles beside it.
        let mut cfg = SocConfig::exynos9810();
        cfg.throttle = ThrottleConfig {
            enabled: true,
            trip_c: vec![40.0, 40.0, 40.0],
            hysteresis_c: 3.0,
        };
        let configs = [cfg.clone(), cfg];
        let mut cohort = SocBatch::try_from_configs(&configs).unwrap();
        let mut solos = alone(&configs);
        let ids: Vec<DomainId> = cohort.platform().ids().collect();
        for &id in &ids {
            let top = cohort.dvfs(0).domain(id).table().max().freq_khz;
            cohort.dvfs_mut(0).pin_freq(id, top).unwrap();
            solos[0].dvfs_mut(0).pin_freq(id, top).unwrap();
        }
        let game = FrameDemand::new(22.0e6, 6.0e6, 30.0e6).with_background(0.3e9, 0.1e9, 0.0);
        let demands = [game, FrameDemand::default()];
        for _ in 0..8_000 {
            cohort.tick(0.025, &demands);
            for (l, solo) in solos.iter_mut().enumerate() {
                solo.tick(0.025, &demands[l..=l]);
            }
        }
        assert!(cohort.is_throttling(0), "the pinned lane must throttle");
        assert!(!cohort.is_throttling(1), "the idle lane must not");
        for (l, solo) in solos.iter().enumerate() {
            assert_eq!(cohort.is_throttling(l), solo.is_throttling(0));
            assert_lane_is(&cohort, l, solo, "after 200 s");
        }
    }

    #[test]
    fn governor_style_cap_actuation_stays_identical() {
        // Emulate a cap-twiddling governor on lane 0 only: every 4
        // ticks, move the big cluster's maxfreq cap in a deterministic
        // pattern. Lane 1 runs the stock policy beside it.
        let configs = vec![SocConfig::exynos9810(); 2];
        let mut cohort = SocBatch::try_from_configs(&configs).unwrap();
        let mut solos = alone(&configs);
        let big = DomainId::new(0);
        let table = cohort.dvfs(0).domain(big).table().clone();
        for t in 0..800usize {
            let demands = [demand_at(t, 0), demand_at(t, 1)];
            cohort.tick(0.025, &demands);
            for (l, solo) in solos.iter_mut().enumerate() {
                solo.tick(0.025, &demands[l..=l]);
            }
            if t % 4 == 3 {
                let khz = table.opp((t / 4) % table.len()).unwrap().freq_khz;
                cohort.dvfs_mut(0).set_max_freq(big, khz).unwrap();
                solos[0].dvfs_mut(0).set_max_freq(big, khz).unwrap();
            }
            for (l, solo) in solos.iter().enumerate() {
                assert_lane_is(&cohort, l, solo, &format!("tick {t}"));
            }
        }
    }

    #[test]
    fn retain_lanes_preserves_kept_state() {
        let configs = vec![SocConfig::exynos9810(); 4];
        let mut cohort = SocBatch::try_from_configs(&configs).unwrap();
        let mut solos = alone(&configs);
        let mut demands = vec![FrameDemand::default(); 4];
        for t in 0..200 {
            for (l, d) in demands.iter_mut().enumerate() {
                *d = demand_at(t, l);
            }
            cohort.tick(0.025, &demands);
            for (l, solo) in solos.iter_mut().enumerate() {
                solo.tick(0.025, &demands[l..=l]);
            }
        }
        cohort.retain_lanes(&[true, false, false, true]);
        assert_eq!(cohort.width(), 2);
        let kept = [0usize, 3];
        let mut demands = vec![FrameDemand::default(); 2];
        for t in 200..400 {
            for (slot, &lane) in kept.iter().enumerate() {
                demands[slot] = demand_at(t, lane);
            }
            cohort.tick(0.025, &demands);
            for (slot, &lane) in kept.iter().enumerate() {
                solos[lane].tick(0.025, &demands[slot..=slot]);
                assert_lane_is(
                    &cohort,
                    slot,
                    &solos[lane],
                    &format!("tick {t} kept lane {lane}"),
                );
            }
        }
    }

    #[test]
    fn energy_accumulates_power_over_time() {
        let mut batch = SocBatch::replicate(&SocConfig::exynos9810(), 1).unwrap();
        let demand = FrameDemand::new(8.0e6, 3.0e6, 10.0e6);
        let mut manual = 0.0;
        for _ in 0..400 {
            batch.tick(0.025, &[demand]);
            manual += batch.tick_output(0).power_w * 0.025;
        }
        assert!((batch.energy_j(0) - manual).abs() < 1e-9);
        assert!(batch.energy_j(0) > 0.0);
        assert!((batch.time_s(0) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn structural_mismatch_rejected() {
        let base = SocConfig::exynos9810();
        let other_platform = SocConfig::exynos9820();
        assert!(SocBatch::try_from_configs(&[base.clone(), other_platform]).is_err());

        let mut other_refresh = SocConfig::exynos9810();
        other_refresh.refresh_hz = 90.0;
        assert!(SocBatch::try_from_configs(&[base.clone(), other_refresh]).is_err());

        let mut other_throttle = SocConfig::exynos9810();
        other_throttle.throttle = ThrottleConfig::disabled();
        assert!(SocBatch::try_from_configs(&[base.clone(), other_throttle]).is_err());

        // Ambient and base-power divergence is allowed.
        let mut binned = SocConfig::exynos9810().with_ambient(27.0);
        binned.platform.scale_base_power(1.15);
        assert!(SocBatch::try_from_configs(&[base, binned]).is_ok());

        assert!(SocBatch::try_from_configs(&[]).is_err());
    }

    #[test]
    #[should_panic(expected = "one FrameDemand per lane")]
    fn wrong_demand_width_panics() {
        let mut batch = SocBatch::replicate(&SocConfig::exynos9810(), 2).unwrap();
        batch.tick(0.025, &[FrameDemand::default()]);
    }
}
