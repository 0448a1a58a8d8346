//! Mission simulation: the payload flying through the LEO upset
//! environment with continuous scrubbing (paper §I–II).
//!
//! Upsets arrive as a Poisson process (1.2/h quiet, 9.6/h flare for the
//! nine-FPGA system), strike random targets, and are hunted by the
//! per-board fault managers on their ≈180 ms scan cadence. The simulator
//! tracks detection latency, repair counts, the upsets scrubbing *cannot*
//! see (masked frames, half-latches, user state), and availability —
//! the fraction of device-time free of outstanding behaviour-changing
//! faults, judged against per-design sensitivity maps from the SEU
//! simulator.
//!
//! One driver flies every mission. [`MissionKernel`] owns the
//! environment and the accounting — upset and SEFI landing, the
//! outstanding-fault ledger, availability integration, mission-end
//! roll-up — and a [`MitigationStrategy`] owns the per-board repair
//! policy. The private `drive` loop advances the kernel on one of two
//! schedules:
//!
//! * event-driven: it advances directly between the rounds where
//!   observable state can change (upset arrivals, SEFI arrivals, a board
//!   with outstanding work that the strategy schedules for service,
//!   periodic full-reconfig deadlines, retune-window boundaries), charging
//!   the skipped rounds' `scrub_cycles` and scrub bandwidth in bulk;
//! * every round: it ticks every scan round. This schedule is the test
//!   oracle and nothing else — [`run_mission_reference`] and
//!   [`run_strategy_mission_reference`] exist so the differential suites
//!   can check the event-driven schedule against it.
//!
//! A skipped round is provably a charged-time-only no-op on every device
//! (the kernel's skip predicate, `device_needs_scrub`), so both schedules
//! produce bit-identical stats for any seed, float for float.
//!
//! [`run_mission`] flies [`LadderStrategy`] — the paper's §II fault
//! manager — on the event-driven schedule. [`run_strategy_mission`] flies
//! any strategy and opens the telemetry stream with a
//! `strategy.mission_begin` record naming it.

use std::collections::{HashMap, HashSet};

use cibola_arch::{ReadFault, SimDuration, SimTime, WriteFault};
use cibola_radiation::sefi::SefiRates;
use cibola_radiation::target::{apply_upset, UpsetTarget};
use cibola_radiation::{
    OrbitCondition, OrbitEnvironment, OrbitRates, SefiConfig, SefiKind, SefiProcess, TargetMix,
};
use cibola_telemetry::{
    plan_downlink, LadderStats, Severity, SohDownlinkPolicy, Subsystem, TelemetryEvent,
    LATENCY_MS_BUCKETS,
};
use rand::Rng;

use crate::correlate::FaultOrigin;
use crate::payload::{soh_event_meta, Payload};
use crate::strategy::{
    LadderStrategy, MitigationStrategy, StrategyMissionStats, WindowObservation,
};

/// Mission parameters.
///
/// Every stochastic stream in a mission — upset arrivals, strike targets,
/// SEFI arrivals, codebook-upset placement — derives deterministically
/// from `seed`, so any run (including a failing chaos run) can be replayed
/// bit-for-bit from the seed alone.
#[derive(Debug, Clone)]
pub struct MissionConfig {
    pub duration: SimDuration,
    pub rates: OrbitRates,
    pub mix: TargetMix,
    /// Optional solar-flare window.
    pub flare: Option<(SimTime, SimTime)>,
    /// Periodically reload every device from FLASH (full reconfiguration
    /// with the start-up sequence) — the only mechanism that heals
    /// half-latch upsets (paper §III-C). `None` disables refresh.
    pub periodic_full_reconfig: Option<SimDuration>,
    /// Optional SEFI process striking the fault-management path itself:
    /// the configuration port, the configuration FSM, and the Actel's
    /// SRAM-resident CRC codebook. `None` (the default) disables it and
    /// leaves the mission bit-identical to the SEFI-free simulator.
    pub sefi: Option<SefiConfig>,
    /// Optional SOH downlink budget. When set, mission end plans the SOH
    /// record stream into ground passes under this policy and surfaces the
    /// shed count in [`MissionStats::soh_shed_events`]. Planning is
    /// post-hoc over the SOH log, so it never perturbs mission dynamics.
    pub soh_downlink: Option<SohDownlinkPolicy>,
    pub seed: u64,
}

impl Default for MissionConfig {
    fn default() -> Self {
        MissionConfig {
            duration: SimDuration::from_secs(24 * 3600),
            rates: OrbitRates::default(),
            mix: TargetMix::default(),
            flare: None,
            periodic_full_reconfig: None,
            sefi: None,
            soh_downlink: None,
            seed: 0xC1B01A,
        }
    }
}

/// Aggregate mission statistics. `PartialEq` so replay-from-seed runs can
/// be asserted bit-identical.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MissionStats {
    pub upsets_total: usize,
    pub upsets_config: usize,
    pub upsets_config_masked: usize,
    pub upsets_half_latch: usize,
    pub upsets_user_ff: usize,
    pub upsets_fsm: usize,
    /// Bitstream upsets found by CRC scanning.
    pub detected: usize,
    pub frames_repaired: usize,
    pub full_reconfigs: usize,
    /// Upsets that struck sensitive configuration bits (per the provided
    /// sensitivity maps).
    pub sensitive_upsets: usize,
    pub detect_latency_mean_ms: f64,
    pub detect_latency_max_ms: f64,
    pub scrub_cycles: usize,
    /// Mean scan-cycle duration across boards (the paper's ≈180 ms).
    pub scan_cycle_ms: f64,
    /// Device-time with an outstanding behaviour-changing fault.
    pub unavailable_ms: f64,
    /// 1 − unavailable/(duration × devices).
    pub availability: f64,
    /// Half-latch upsets still outstanding at mission end (scrubbing
    /// cannot repair them).
    pub outstanding_half_latches: usize,
    pub soh_records: usize,
    pub elapsed_s: f64,

    // ---- fault-management-path (SEFI) accounting ----
    /// SEFIs injected by the environment, total and per class.
    pub sefis_injected: usize,
    pub sefi_readback_corrupt: usize,
    pub sefi_readback_abort: usize,
    pub sefi_write_silent: usize,
    pub sefi_port_wedge: usize,
    pub sefi_unprogram: usize,
    pub codebook_upsets: usize,
    /// Everything the escalation ladder did, mission-wide — the shared
    /// counter block also used by `ScrubOutcome` and `EnsembleStats`.
    pub ladder: LadderStats,

    // ---- SOH downlink accounting ----
    /// SOH events shed by the budgeted downlink encoder (0 when
    /// `MissionConfig::soh_downlink` is `None`). Loss is never silent.
    pub soh_shed_events: usize,
    /// Ground passes the SOH stream was planned into.
    pub soh_downlink_passes: usize,
}

impl MissionStats {
    /// Every field as a named scalar, in declaration order. Floats are
    /// passed through unrounded so the list is a faithful projection of
    /// the struct — the conformance corpus digests it, and report writers
    /// can serialise it without keeping a second field list in sync.
    pub fn summary_fields(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("upsets_total", self.upsets_total as f64),
            ("upsets_config", self.upsets_config as f64),
            ("upsets_config_masked", self.upsets_config_masked as f64),
            ("upsets_half_latch", self.upsets_half_latch as f64),
            ("upsets_user_ff", self.upsets_user_ff as f64),
            ("upsets_fsm", self.upsets_fsm as f64),
            ("detected", self.detected as f64),
            ("frames_repaired", self.frames_repaired as f64),
            ("full_reconfigs", self.full_reconfigs as f64),
            ("sensitive_upsets", self.sensitive_upsets as f64),
            ("detect_latency_mean_ms", self.detect_latency_mean_ms),
            ("detect_latency_max_ms", self.detect_latency_max_ms),
            ("scrub_cycles", self.scrub_cycles as f64),
            ("scan_cycle_ms", self.scan_cycle_ms),
            ("unavailable_ms", self.unavailable_ms),
            ("availability", self.availability),
            (
                "outstanding_half_latches",
                self.outstanding_half_latches as f64,
            ),
            ("soh_records", self.soh_records as f64),
            ("elapsed_s", self.elapsed_s),
            ("sefis_injected", self.sefis_injected as f64),
            ("sefi_readback_corrupt", self.sefi_readback_corrupt as f64),
            ("sefi_readback_abort", self.sefi_readback_abort as f64),
            ("sefi_write_silent", self.sefi_write_silent as f64),
            ("sefi_port_wedge", self.sefi_port_wedge as f64),
            ("sefi_unprogram", self.sefi_unprogram as f64),
            ("codebook_upsets", self.codebook_upsets as f64),
            ("ladder_sefis_observed", self.ladder.sefis_observed as f64),
            ("ladder_repair_retries", self.ladder.repair_retries as f64),
            ("ladder_verify_failures", self.ladder.verify_failures as f64),
            (
                "ladder_codebook_rebuilds",
                self.ladder.codebook_rebuilds as f64,
            ),
            ("ladder_port_resets", self.ladder.port_resets as f64),
            (
                "ladder_frames_escalated",
                self.ladder.frames_escalated as f64,
            ),
            (
                "ladder_golden_uncorrectable",
                self.ladder.golden_uncorrectable as f64,
            ),
            (
                "ladder_devices_degraded",
                self.ladder.devices_degraded as f64,
            ),
            ("soh_shed_events", self.soh_shed_events as f64),
            ("soh_downlink_passes", self.soh_downlink_passes as f64),
        ]
    }
}

/// An outstanding fault on one device.
#[derive(Debug, Clone, Copy)]
struct Outstanding {
    at: SimTime,
    sensitive: bool,
    /// Scrubbing can repair it (unmasked bitstream upset or FSM upset).
    repairable: bool,
    /// Correlation id assigned at the fault's origin event.
    origin: FaultOrigin,
    /// Stable cause-class string carried through every lifecycle event.
    cause: &'static str,
    /// The configuration frame an unmasked config upset sits in, for
    /// releasing the correlation ledger's frame entry on resolution.
    frame: Option<usize>,
}

/// All mission state the driver mutates, with one scan round split into
/// phase methods (`land_upsets`, `land_sefis`, `apply_board_outcome`,
/// `settle_dirty`, `periodic_refresh`). The two schedules differ *only*
/// in which rounds they visit.
///
/// Public (fields private) so a profiler can replay [`run_mission`] phase
/// by phase with a timer around each phase, as the perfbench harness
/// does; inside the workspace the module's own driver is the only loop
/// over it.
pub struct MissionKernel<'a> {
    payload: &'a mut Payload,
    cfg: &'a MissionConfig,
    sensitivity: &'a HashMap<(usize, usize), HashSet<usize>>,
    positions: Vec<(usize, usize)>,
    /// Device index without an O(ndev) scan: `positions` is board-major,
    /// fpga-minor, so `(b, f)` lives at `board_base[b] + f`.
    board_base: Vec<usize>,
    ndev: usize,
    env: OrbitEnvironment,
    sefi: Option<SefiProcess>,
    stats: MissionStats,
    end: SimTime,
    round: SimDuration,
    live_boards: Vec<usize>,
    next_upset: SimTime,
    next_sefi: Option<SimTime>,
    outstanding: Vec<Vec<Outstanding>>,
    dirty: Vec<bool>,
    latencies: Vec<SimDuration>,
    /// Reused buffer of faults one board pass resolved, so lifecycle
    /// events can be emitted after the `retain` borrow ends without a
    /// per-round allocation.
    resolved_buf: Vec<Outstanding>,
    unavailable: SimDuration,
    last_refresh: Vec<SimTime>,
    /// Whether the device's codebook *might* fail its self-check: set by
    /// a codebook-upset SEFI, cleared once a scrub pass (whose rung 0
    /// rebuilds a failing book) has run. Lets the skip predicate avoid
    /// re-hashing every codebook between events.
    codebook_suspect: Vec<bool>,
    /// True (the default) while the driving strategy runs the codebook
    /// self-check each pass. Strategies that never consult the codebook
    /// (blind scrubbing) clear it so a suspect book neither forces rounds
    /// active nor trips the skip-safety assertion.
    codebook_in_loop: bool,
    /// True (the default) while the driving strategy performs readback.
    /// Write-only strategies clear it: latched read faults can then never
    /// be consumed, so only *write* faults keep a device scrub-active.
    readback_in_loop: bool,
}

impl<'a> MissionKernel<'a> {
    pub fn new(
        payload: &'a mut Payload,
        cfg: &'a MissionConfig,
        sensitivity: &'a HashMap<(usize, usize), HashSet<usize>>,
    ) -> Self {
        let positions = payload.positions();
        let ndev = positions.len();
        assert!(ndev > 0, "payload has no loaded designs");
        let mut board_base = Vec::with_capacity(payload.boards.len());
        let mut acc = 0usize;
        for bd in &payload.boards {
            board_base.push(acc);
            acc += bd.fpgas.len();
        }
        debug_assert!(positions
            .iter()
            .enumerate()
            .all(|(di, &(b, f))| board_base[b] + f == di));

        let rates = OrbitRates {
            devices: ndev,
            ..cfg.rates
        };
        let mut env = OrbitEnvironment::new(rates, cfg.seed);

        // The SEFI process gets its own RNG stream, derived from the
        // mission seed, so enabling it never perturbs the SEU stream (and
        // a run with `sefi: None` is bit-identical to the pre-SEFI
        // simulator).
        let mut sefi = cfg.sefi.map(|c| {
            let rates = SefiRates {
                devices: ndev,
                ..c.rates
            };
            SefiProcess::new(
                SefiConfig { rates, mix: c.mix },
                cfg.seed ^ 0x5EF1_5EF1_5EF1_5EF1,
            )
        });

        let mut stats = MissionStats::default();
        let end = SimTime::ZERO + cfg.duration;
        let next_upset = SimTime::ZERO + env.next_upset_in();
        let next_sefi = sefi.as_mut().map(|p| SimTime::ZERO + p.next_event_in());

        // Pre-compute board cycle durations for reporting.
        let cycles: Vec<SimDuration> = (0..payload.boards.len())
            .map(|b| payload.board_scan_cycle(b))
            .collect();
        let live_boards: Vec<usize> = (0..payload.boards.len())
            .filter(|&b| !payload.boards[b].fpgas.is_empty())
            .collect();
        stats.scan_cycle_ms = live_boards
            .iter()
            .map(|&b| cycles[b].as_millis_f64())
            .sum::<f64>()
            / live_boards.len().max(1) as f64;

        let round = live_boards
            .iter()
            .map(|&b| cycles[b])
            .max()
            .unwrap_or(SimDuration::from_millis(180));
        assert!(round.as_nanos() > 0, "scan round must be non-zero");

        // Callers may hand over a payload whose codebooks are already
        // corrupted; seed the suspect flags from one real self-check.
        let codebook_suspect: Vec<bool> = positions
            .iter()
            .map(|&(b, f)| !payload.fpga(b, f).manager.codebook.self_check())
            .collect();

        MissionKernel {
            positions,
            board_base,
            ndev,
            env,
            sefi,
            stats,
            end,
            round,
            live_boards,
            next_upset,
            next_sefi,
            outstanding: vec![Vec::new(); ndev],
            dirty: vec![false; ndev],
            latencies: Vec::new(),
            resolved_buf: Vec::new(),
            unavailable: SimDuration::ZERO,
            last_refresh: vec![SimTime::ZERO; ndev],
            codebook_suspect,
            codebook_in_loop: true,
            readback_in_loop: true,
            payload,
            cfg,
            sensitivity,
        }
    }

    // ---- accessors for the driver and the phase replay ----

    /// The scan-round duration (the longest live board's scan cycle).
    pub fn round(&self) -> SimDuration {
        self.round
    }

    /// Mission end time.
    pub fn end(&self) -> SimTime {
        self.end
    }

    /// Board indices with at least one loaded FPGA, in board order — the
    /// strategy's "slot" space is an index into this slice.
    pub fn live_boards(&self) -> &[usize] {
        &self.live_boards
    }

    pub fn payload_mut(&mut self) -> &mut Payload {
        self.payload
    }

    /// Land upsets arriving strictly before `round_end`. RNG draws happen
    /// once per *event*, never per round, so the stream is identical no
    /// matter how the timeline between events is traversed.
    pub fn land_upsets(&mut self, round_end: SimTime) {
        while self.next_upset < round_end {
            // Flare window switches the arrival-rate regime.
            let in_flare = self
                .cfg
                .flare
                .map(|(a, b)| self.next_upset >= a && self.next_upset < b)
                .unwrap_or(false);
            self.env.set_condition(if in_flare {
                OrbitCondition::SolarFlare
            } else {
                OrbitCondition::Quiet
            });

            let di = self.env.pick_device();
            let (b, f) = self.positions[di];
            self.stats.upsets_total += 1;
            // Correlation id: 1-based landing order. Both kernels land
            // the same upsets in the same order, so the id is stable
            // across drivers and replays of the same seed.
            let upset_id = self.stats.upsets_total as u64;
            let target = {
                let dev = &mut self.payload.fpga_mut(b, f).device;
                self.cfg.mix.sample(dev, self.env.rng())
            };
            let (sensitive, repairable, cause, frame) = match target {
                UpsetTarget::ConfigBit(bit) => {
                    self.stats.upsets_config += 1;
                    let (addr, _) = self.payload.fpga(b, f).golden.locate(bit);
                    let fidx = self.payload.fpga(b, f).golden.frame_index(addr);
                    let masked = self.payload.fpga(b, f).manager.codebook.is_masked(fidx);
                    if masked {
                        self.stats.upsets_config_masked += 1;
                    }
                    let sens = self
                        .sensitivity
                        .get(&(b, f))
                        .map(|m| m.contains(&bit))
                        .unwrap_or(true);
                    if sens {
                        self.stats.sensitive_upsets += 1;
                    }
                    let cause = if masked { "config-masked" } else { "config" };
                    (sens, !masked, cause, Some(fidx))
                }
                UpsetTarget::HalfLatch(_) => {
                    self.stats.upsets_half_latch += 1;
                    (true, false, "half-latch", None)
                }
                UpsetTarget::UserFf { .. } => {
                    self.stats.upsets_user_ff += 1;
                    // Transient user-state flip: flushed by the next reset;
                    // not a bitstream fault.
                    (false, false, "user-ff", None)
                }
                UpsetTarget::ConfigFsm => {
                    self.stats.upsets_fsm += 1;
                    (true, true, "fsm", None)
                }
            };
            {
                let dev = &mut self.payload.fpga_mut(b, f).device;
                apply_upset(dev, target);
            }
            if self.payload.telemetry.is_enabled() {
                match (cause, frame) {
                    ("config", Some(fidx)) => {
                        self.payload
                            .correlation
                            .note_frame_upset(b, f, fidx, upset_id);
                    }
                    ("fsm", _) => {
                        self.payload.correlation.note_device_fault(
                            b,
                            f,
                            FaultOrigin::Upset(upset_id),
                        );
                    }
                    _ => {}
                }
                let t_ns = self.next_upset.as_nanos();
                self.payload.telemetry.emit_with(|| {
                    TelemetryEvent::point(Subsystem::Mission, Severity::Info, "mission.upset", t_ns)
                        .with_device(b, f)
                        .with_u64("upset_id", upset_id)
                        .with_str("cause", cause)
                        .with_bool("sensitive", sensitive)
                        .with_bool("repairable", repairable)
                });
            }
            self.outstanding[di].push(Outstanding {
                at: self.next_upset,
                sensitive,
                repairable,
                origin: FaultOrigin::Upset(upset_id),
                cause,
                frame,
            });
            self.dirty[di] = true;
            self.next_upset += self.env.next_upset_in();
        }
    }

    /// Land SEFIs striking the fault-management machinery itself.
    pub fn land_sefis(&mut self, round_end: SimTime) {
        let Some(p) = self.sefi.as_mut() else { return };
        let mut t = self.next_sefi.unwrap();
        while t < round_end {
            let in_flare = self
                .cfg
                .flare
                .map(|(a, b)| t >= a && t < b)
                .unwrap_or(false);
            p.set_condition(if in_flare {
                OrbitCondition::SolarFlare
            } else {
                OrbitCondition::Quiet
            });

            let di = p.pick_device();
            let (b, f) = self.positions[di];
            self.stats.sefis_injected += 1;
            // Correlation id: 1-based landing order in the SEFI id space
            // (disjoint from upset ids). Sampling the kind before the
            // match keeps the RNG draw order identical to the historical
            // inline-match form.
            let sefi_id = self.stats.sefis_injected as u64;
            let kind = p.sample_kind();
            let kind_name = match kind {
                SefiKind::ReadbackCorrupt => "readback-corrupt",
                SefiKind::ReadbackAbort => "readback-abort",
                SefiKind::WriteSilentDrop => "write-silent-drop",
                SefiKind::PortWedge => "port-wedge",
                SefiKind::Unprogram => "unprogram",
                SefiKind::CodebookUpset => "codebook-upset",
            };
            match kind {
                SefiKind::ReadbackCorrupt => {
                    self.stats.sefi_readback_corrupt += 1;
                    let bit_flips = p.rng().gen_range(1..=3);
                    self.payload
                        .fpga_mut(b, f)
                        .device
                        .inject_read_fault(ReadFault::Corrupt { bit_flips });
                }
                SefiKind::ReadbackAbort => {
                    self.stats.sefi_readback_abort += 1;
                    self.payload
                        .fpga_mut(b, f)
                        .device
                        .inject_read_fault(ReadFault::Abort);
                }
                SefiKind::WriteSilentDrop => {
                    self.stats.sefi_write_silent += 1;
                    self.payload
                        .fpga_mut(b, f)
                        .device
                        .inject_write_fault(WriteFault::SilentDrop);
                }
                SefiKind::PortWedge => {
                    self.stats.sefi_port_wedge += 1;
                    self.payload.fpga_mut(b, f).device.wedge_port();
                }
                SefiKind::Unprogram => {
                    self.stats.sefi_unprogram += 1;
                    self.payload.fpga_mut(b, f).device.upset_config_fsm();
                    self.outstanding[di].push(Outstanding {
                        at: t,
                        sensitive: true,
                        repairable: true,
                        origin: FaultOrigin::Sefi(sefi_id),
                        cause: kind_name,
                        frame: None,
                    });
                    self.dirty[di] = true;
                }
                SefiKind::CodebookUpset => {
                    self.stats.codebook_upsets += 1;
                    let book = &mut self.payload.fpga_mut(b, f).manager.codebook;
                    let entry = p.rng().gen_range(0..book.frame_count());
                    let bit = p.rng().gen_range(0..32);
                    book.upset(entry, bit);
                    self.codebook_suspect[di] = true;
                }
            }
            if self.payload.telemetry.is_enabled() {
                match kind {
                    SefiKind::ReadbackCorrupt
                    | SefiKind::ReadbackAbort
                    | SefiKind::WriteSilentDrop
                    | SefiKind::PortWedge => {
                        self.payload.correlation.note_port_sefi(b, f, sefi_id);
                    }
                    SefiKind::Unprogram => {
                        self.payload.correlation.note_device_fault(
                            b,
                            f,
                            FaultOrigin::Sefi(sefi_id),
                        );
                    }
                    SefiKind::CodebookUpset => {
                        self.payload.correlation.note_codebook_sefi(b, f, sefi_id);
                    }
                }
                let t_ns = t.as_nanos();
                self.payload.telemetry.emit_with(|| {
                    TelemetryEvent::point(Subsystem::Mission, Severity::Info, "mission.sefi", t_ns)
                        .with_device(b, f)
                        .with_u64("sefi_id", sefi_id)
                        .with_str("kind", kind_name)
                });
            }
            t += p.next_event_in();
        }
        self.next_sefi = Some(t);
    }

    /// Copy board `b`'s per-device dirty hints into `buf` (cleared
    /// first) — the hint slice strategies pass to their repair action.
    pub fn fill_board_dirty(&self, b: usize, buf: &mut Vec<bool>) {
        let base = self.board_base[b];
        let nf = self.payload.boards[b].fpgas.len();
        buf.clear();
        for f in 0..nf {
            buf.push(self.dirty[base + f]);
        }
    }

    /// Fold one board's pass outcome into the mission ledger: counter
    /// roll-up, pass-latency histogram, closing the unavailability
    /// windows of every repaired fault, and codebook-suspect clearing.
    /// Every strategy's repair action goes through this one ledger, so
    /// every strategy inherits identical accounting.
    pub fn apply_board_outcome(
        &mut self,
        b: usize,
        out: &crate::payload::ScrubOutcome,
        round_end: SimTime,
    ) {
        let base = self.board_base[b];
        self.stats.frames_repaired += out.frames_repaired;
        self.stats.detected += out.frames_repaired;
        self.stats.full_reconfigs += out.full_reconfigs;
        self.stats.ladder.merge(&out.ladder);
        if self.payload.telemetry.is_enabled() && !out.ladder.is_quiet() {
            self.payload.telemetry.observe(
                "scrub.board_pass_ms",
                LATENCY_MS_BUCKETS,
                out.duration.as_millis_f64(),
            );
        }
        let tele_on = self.payload.telemetry.is_enabled();
        for &f in &out.devices_cleaned {
            let di = base + f;
            // Repairable outstanding faults are resolved; their
            // unavailability window closes at round_end. `retain`
            // visits in order, preserving the latency-push order of
            // the historical drain-into-`rest` loop without its
            // per-round allocation. Resolution events are emitted in
            // the same order, so the forensics MTTR replay sums the
            // stream in exactly the kernel's float-operation order.
            let mut resolved = std::mem::take(&mut self.resolved_buf);
            let latencies = &mut self.latencies;
            let unavailable = &mut self.unavailable;
            self.outstanding[di].retain(|o| {
                if o.repairable {
                    latencies.push(round_end.since(o.at));
                    if o.sensitive {
                        *unavailable += round_end.since(o.at);
                    }
                    if tele_on {
                        resolved.push(*o);
                    }
                    false
                } else {
                    true
                }
            });
            for o in resolved.drain(..) {
                self.payload.correlation.resolve(b, f, o.frame, o.origin);
                self.emit_lifecycle_resolved(b, f, &o, round_end, "scrub");
            }
            self.resolved_buf = resolved;
            // User-state upsets were flushed by the reset too.
            self.dirty[di] = self.outstanding[di].iter().any(|o| o.repairable);
        }
        // A pass that ended with the failure counter clear got past
        // rung 0, i.e. the codebook passed self-check or was rebuilt.
        // Failed passes (counter > 0) may have left it corrupt, but
        // they also force every subsequent round to execute, so the
        // stale suspect flag is never consulted for a skip. Strategies
        // that never run rung 0 must not clear the flag.
        if self.codebook_in_loop {
            let nf = self.payload.boards[b].fpgas.len();
            for f in 0..nf {
                let health = &self.payload.fpga(b, f).health;
                if !health.degraded && health.consecutive_failures == 0 {
                    self.codebook_suspect[base + f] = false;
                }
            }
        }
    }

    /// Emit the lifecycle-close event for one resolved fault: which
    /// injected fault (by correlation id), its cause class, how long it
    /// sat outstanding, and which mechanism cleared it.
    fn emit_lifecycle_resolved(
        &self,
        b: usize,
        f: usize,
        o: &Outstanding,
        t: SimTime,
        via: &'static str,
    ) {
        self.payload.telemetry.emit_with(|| {
            TelemetryEvent::point(
                Subsystem::Mission,
                Severity::Info,
                o.origin.resolved_event(),
                t.as_nanos(),
            )
            .with_device(b, f)
            .with_u64(o.origin.field_key(), o.origin.id())
            .with_str("cause", o.cause)
            .with_u64("latency_ns", t.since(o.at).as_nanos())
            .with_bool("sensitive", o.sensitive)
            .with_str("via", via)
        });
    }

    /// Emit the end-of-mission leak event for a fault still outstanding
    /// when the mission ends: its lifecycle never closed.
    fn emit_lifecycle_leaked(&self, b: usize, f: usize, o: &Outstanding) {
        self.payload.telemetry.emit_with(|| {
            TelemetryEvent::point(
                Subsystem::Mission,
                if o.sensitive {
                    Severity::Warning
                } else {
                    Severity::Info
                },
                o.origin.leaked_event(),
                self.end.as_nanos(),
            )
            .with_device(b, f)
            .with_u64(o.origin.field_key(), o.origin.id())
            .with_str("cause", o.cause)
            .with_u64("age_ns", self.end.since(o.at).as_nanos())
            .with_bool("sensitive", o.sensitive)
        });
    }

    /// Devices that were dirty only with unrepairable faults stay
    /// flagged clean for scanning purposes (scan finds nothing). Run
    /// once per round after every board's outcome has been applied.
    pub fn settle_dirty(&mut self) {
        for di in 0..self.ndev {
            if self.dirty[di] && !self.outstanding[di].iter().any(|o| o.repairable) {
                self.dirty[di] = false;
            }
        }
    }

    /// Periodic full reconfiguration: heals everything, including
    /// half-latches and other hidden state.
    pub fn periodic_refresh(&mut self, round_end: SimTime) {
        let Some(period) = self.cfg.periodic_full_reconfig else {
            return;
        };
        for di in 0..self.ndev {
            let (b, f) = self.positions[di];
            // Degraded devices are out of the rotation entirely.
            if self.payload.fpga(b, f).health.degraded {
                continue;
            }
            if round_end.since(self.last_refresh[di]) >= period {
                self.payload.full_reconfig(b, f, round_end);
                self.stats.full_reconfigs += 1;
                self.last_refresh[di] = round_end;
                let tele_on = self.payload.telemetry.is_enabled();
                let mut drained = std::mem::take(&mut self.outstanding[di]);
                for o in drained.drain(..) {
                    if o.sensitive {
                        self.unavailable += round_end.since(o.at);
                    }
                    if tele_on {
                        self.payload.correlation.resolve(b, f, o.frame, o.origin);
                        self.emit_lifecycle_resolved(b, f, &o, round_end, "periodic-reconfig");
                    }
                }
                self.outstanding[di] = drained;
                self.dirty[di] = false;
            }
        }
    }

    /// Charge the scrub-cycle accounting (and telemetry) for rounds
    /// `[r, nr)` that the event-driven schedule proved to be
    /// observable-state no-ops and is jumping over.
    pub fn note_rounds_skipped(&mut self, r: u64, nr: u64, round_ns: u64) {
        self.stats.scrub_cycles += (nr - r) as usize;
        self.payload.telemetry.inc("mission.rounds_skipped", nr - r);
        self.payload.telemetry.emit_with(|| {
            TelemetryEvent::span(
                Subsystem::Mission,
                "mission.rounds_skipped",
                r * round_ns,
                (nr - r) * round_ns,
            )
            .with_u64("rounds", nr - r)
        });
    }

    /// Count scan rounds the driver executed.
    pub fn add_scrub_cycles(&mut self, n: usize) {
        self.stats.scrub_cycles += n;
    }

    /// Would scrubbing this device in the next round change *any*
    /// observable state? When every sub-check is false, `scrub_fpga` is
    /// guaranteed to take its charged-time-only fast path: the codebook
    /// self-check passes (rung 0 is a no-op), the port is healthy with no
    /// latched SEFI faults to consume, the device is programmed and its
    /// bitstream matches the codebook (`dirty` tracks every config upset
    /// and FSM strike), and the `consecutive_failures = 0` reset the fast
    /// path performs is idempotent. Degraded devices are skipped by
    /// `scrub_board` unconditionally.
    fn device_needs_scrub(&self, di: usize) -> bool {
        let (b, f) = self.positions[di];
        let fpga = self.payload.fpga(b, f);
        if fpga.health.degraded {
            return false;
        }
        // Latched injected faults only matter if the strategy's repair
        // action can consume them: a readback strategy drains both fault
        // queues, a write-only strategy drains only write faults (reads
        // never happen, so read faults sit latched forever, harmlessly).
        let pending_faults = if self.readback_in_loop {
            fpga.device.pending_port_faults() > 0
        } else {
            fpga.device.pending_write_faults() > 0
        };
        // `codebook_suspect` stands in for hashing the codebook: clear
        // means the last clean scrub pass (or construction) proved
        // self_check passes and no codebook SEFI has landed since.
        // Strategies without a codebook in the loop ignore it entirely.
        if self.dirty[di]
            || fpga.health.consecutive_failures > 0
            || !fpga.device.is_programmed()
            || fpga.device.is_port_wedged()
            || pending_faults
            || (self.codebook_in_loop && self.codebook_suspect[di])
        {
            return true;
        }
        // Skip-safety invariant: never skip a device whose codebook
        // would fail rung 0.
        debug_assert!(!self.codebook_in_loop || fpga.manager.codebook.self_check());
        false
    }

    /// Does any device on board `b` have scrub work?
    fn board_needs_scrub(&self, b: usize) -> bool {
        let base = self.board_base[b];
        let nf = self.payload.boards[b].fpgas.len();
        (base..base + nf).any(|di| self.device_needs_scrub(di))
    }

    /// The round index ≥ `r` containing the next *environment* event —
    /// upset arrival, SEFI arrival, or a periodic full-reconfig deadline —
    /// ignoring scrub work. The event-driven schedule combines this with
    /// the strategy's own scheduling to bound how far it may jump.
    fn next_event_round(&self, r: u64, round_ns: u64) -> u64 {
        let mut next = self.next_upset.as_nanos() / round_ns;
        if let Some(t) = self.next_sefi {
            next = next.min(t.as_nanos() / round_ns);
        }
        if let Some(period) = self.cfg.periodic_full_reconfig {
            for di in 0..self.ndev {
                let (b, f) = self.positions[di];
                if self.payload.fpga(b, f).health.degraded {
                    continue;
                }
                let deadline = (self.last_refresh[di] + period).as_nanos();
                // First round whose end `(rd + 1) * round` reaches the
                // deadline.
                let rd = deadline.div_ceil(round_ns).saturating_sub(1);
                next = next.min(rd);
            }
        }
        next.max(r)
    }

    /// The next round index ≥ `r` at which anything observable can happen:
    /// `r` itself while any device has scrub work, else the round
    /// containing the next upset/SEFI arrival or the round whose *end*
    /// crosses a periodic full-reconfig deadline. This is the jump the
    /// event-driven schedule takes for [`LadderStrategy`], which services
    /// every board every round, exposed for phase-by-phase replays of
    /// [`run_mission`].
    pub fn next_active_round(&self, r: u64, round_ns: u64) -> u64 {
        if (0..self.ndev).any(|di| self.device_needs_scrub(di)) {
            return r;
        }
        self.next_event_round(r, round_ns)
    }

    /// Close out mission-end exposure and produce the final stats.
    pub fn finish(mut self) -> MissionStats {
        for di in 0..self.ndev {
            let (b, f) = self.positions[di];
            for o in &self.outstanding[di] {
                if o.sensitive {
                    self.unavailable += self.end.since(o.at);
                }
                self.emit_lifecycle_leaked(b, f, o);
            }
        }
        self.stats.outstanding_half_latches = self
            .positions
            .iter()
            .map(|&(b, f)| self.payload.fpga(b, f).device.upset_half_latch_count())
            .sum();

        if !self.latencies.is_empty() {
            self.stats.detect_latency_mean_ms = self
                .latencies
                .iter()
                .map(|d| d.as_millis_f64())
                .sum::<f64>()
                / self.latencies.len() as f64;
            self.stats.detect_latency_max_ms = self
                .latencies
                .iter()
                .map(|d| d.as_millis_f64())
                .fold(0.0, f64::max);
        }
        self.stats.unavailable_ms = self.unavailable.as_millis_f64();
        self.stats.availability = 1.0
            - self.unavailable.as_secs_f64() / (self.cfg.duration.as_secs_f64() * self.ndev as f64);
        self.stats.elapsed_s = self.cfg.duration.as_secs_f64();
        self.stats.soh_records = self.payload.soh.len();

        // Plan the SOH stream into ground passes under the configured
        // budget. Post-hoc over the log: the plan reads mission history
        // and writes only downlink accounting, never mission dynamics.
        if let Some(policy) = self.cfg.soh_downlink {
            let events: Vec<(u64, cibola_telemetry::Severity)> = self
                .payload
                .soh
                .iter()
                .map(|r| (r.time_ns, soh_event_meta(&r.event).1))
                .collect();
            let plan = plan_downlink(&events, &policy);
            self.stats.soh_shed_events = plan.shed_events as usize;
            self.stats.soh_downlink_passes = plan.passes.len();
            let tele = &self.payload.telemetry;
            tele.inc("downlink.sent_events", plan.sent_events);
            tele.inc("downlink.shed_events", plan.shed_events);
            tele.emit_with(|| {
                TelemetryEvent::point(
                    Subsystem::Downlink,
                    if plan.shed_events > 0 {
                        Severity::Warning
                    } else {
                        Severity::Info
                    },
                    "downlink.plan",
                    self.end.as_nanos(),
                )
                .with_u64("passes", plan.passes.len() as u64)
                .with_u64("sent", plan.sent_events)
                .with_u64("shed", plan.shed_events)
                .with_u64("shed_critical", plan.shed_by_severity[3])
                .with_u64("sent_bytes", plan.sent_bytes)
            });
        }

        if self.payload.telemetry.is_enabled() {
            let tele = self.payload.telemetry.clone();
            for d in &self.latencies {
                tele.observe(
                    "mission.detect_latency_ms",
                    LATENCY_MS_BUCKETS,
                    d.as_millis_f64(),
                );
            }
            // Mission-wide ladder counters and MTTR, exported next to the
            // per-rung repair-latency histograms the payload records.
            for (name, v) in self.stats.ladder.metric_entries() {
                tele.inc(name, v as u64);
            }
            tele.gauge("mission.mttr_ms", self.stats.detect_latency_mean_ms);
            let mut port = cibola_telemetry::PortFaultStats::default();
            for &(b, f) in &self.positions {
                port.merge(&self.payload.fpga(b, f).device.port_fault_stats());
            }
            tele.inc("port.read_corruptions", port.read_corruptions);
            tele.inc("port.read_aborts", port.read_aborts);
            tele.inc("port.write_drops", port.write_drops);
            tele.inc("port.wedges", port.wedges);
            tele.inc("port.wedged_rejections", port.wedged_rejections);
            tele.inc("port.resets", port.resets);
            // The mission-end roll-up doubles as the reconciliation
            // anchor: forensics re-derives every integer field below from
            // the lifecycle event stream and checks exact equality.
            let unavailable_ns = self.unavailable.as_nanos();
            let stats = &self.stats;
            let mut end_ev =
                TelemetryEvent::span(Subsystem::Mission, "mission.end", 0, self.end.as_nanos())
                    .with_severity(if stats.ladder.devices_degraded > 0 {
                        Severity::Warning
                    } else {
                        Severity::Info
                    })
                    .with_u64("devices", self.ndev as u64)
                    .with_u64("upsets_total", stats.upsets_total as u64)
                    .with_u64("upsets_config", stats.upsets_config as u64)
                    .with_u64("upsets_config_masked", stats.upsets_config_masked as u64)
                    .with_u64("upsets_half_latch", stats.upsets_half_latch as u64)
                    .with_u64("upsets_user_ff", stats.upsets_user_ff as u64)
                    .with_u64("upsets_fsm", stats.upsets_fsm as u64)
                    .with_u64("sensitive_upsets", stats.sensitive_upsets as u64)
                    .with_u64("detected", stats.detected as u64)
                    .with_u64("frames_repaired", stats.frames_repaired as u64)
                    .with_u64("full_reconfigs", stats.full_reconfigs as u64)
                    .with_u64("devices_degraded", stats.ladder.devices_degraded as u64)
                    .with_u64("scrub_cycles", stats.scrub_cycles as u64)
                    .with_u64("sefis_injected", stats.sefis_injected as u64)
                    .with_u64("codebook_upsets", stats.codebook_upsets as u64)
                    .with_u64(
                        "outstanding_half_latches",
                        stats.outstanding_half_latches as u64,
                    )
                    .with_u64("unavailable_ns", unavailable_ns)
                    .with_u64("soh_records", stats.soh_records as u64)
                    .with_u64("soh_shed_events", stats.soh_shed_events as u64)
                    .with_u64("soh_downlink_passes", stats.soh_downlink_passes as u64)
                    .with_f64("detect_latency_mean_ms", stats.detect_latency_mean_ms)
                    .with_f64("availability", stats.availability);
            for (name, v) in stats.ladder.metric_entries() {
                end_ev = end_ev.with_u64(name, v as u64);
            }
            tele.emit(end_ev);
        }
        self.stats
    }
}

/// Which rounds [`drive`] visits.
enum Schedule {
    /// Jump between the rounds where observable state can change.
    EventDriven,
    /// Tick every scan round. The test oracle only: the differential
    /// suites check [`Schedule::EventDriven`] against it, float for float.
    EveryRound,
}

/// The mission loop: fly `strategy` over the kernel on `schedule`.
///
/// Retune-window boundaries at exactly round `r` fire before any
/// scheduling decision, so a retune takes effect from round `r` on — on
/// both schedules, at identical kernel state. Event-driven jumps are
/// clamped to the next boundary, so boundaries are always reached exactly
/// and observed deltas cannot straddle a retune.
fn drive<S: MitigationStrategy + ?Sized>(
    payload: &mut Payload,
    cfg: &MissionConfig,
    sensitivity: &HashMap<(usize, usize), HashSet<usize>>,
    strategy: &mut S,
    schedule: Schedule,
) -> StrategyMissionStats {
    let mut k = MissionKernel::new(payload, cfg, sensitivity);
    k.codebook_in_loop = strategy.uses_codebook();
    k.readback_in_loop = strategy.uses_readback();
    strategy.prepare(k.payload);

    let round_ns = k.round.as_nanos();
    let total_rounds = k.end.as_nanos().div_ceil(round_ns);
    let live = k.live_boards.clone();
    let window = strategy.window_rounds();

    let mut windows_done: u64 = 0;
    let mut last_upsets = 0usize;
    let mut last_soh = k.payload.soh.len();
    let mut busy_ns = 0u64;
    let mut board_dirty: Vec<bool> = Vec::new();

    let mut r: u64 = 0;
    while r < total_rounds {
        if let Some(w) = window {
            while (windows_done + 1) * w <= r {
                windows_done += 1;
                let upsets = k.stats.upsets_total;
                let soh = k.payload.soh.len();
                let obs = WindowObservation {
                    index: windows_done - 1,
                    rounds: w,
                    upsets: upsets - last_upsets,
                    soh_events: soh - last_soh,
                    round_ns,
                };
                last_upsets = upsets;
                last_soh = soh;
                strategy.on_window(&obs, &k.payload.telemetry);
            }
        }

        if let Schedule::EventDriven = schedule {
            // Next round where anything observable can happen: a needing
            // board's scheduled service, an environment event, or a
            // window boundary. Each probe runs only while the round can
            // still be skipped: an active round stops at the first board
            // due for service.
            let mut nr = total_rounds;
            for (slot, &b) in live.iter().enumerate() {
                if nr > r && k.board_needs_scrub(b) {
                    nr = nr.min(strategy.next_scrub_round(slot, r));
                }
            }
            if nr > r {
                nr = nr.min(k.next_event_round(r, round_ns));
                if let Some(w) = window {
                    nr = nr.min((windows_done + 1) * w);
                }
            }
            let nr = nr.max(r);
            if nr > r {
                busy_ns += strategy.charge_idle_rounds(k.payload, r, nr - r);
                k.note_rounds_skipped(r, nr, round_ns);
                r = nr;
                continue;
            }
        }

        let now = SimTime(r * round_ns);
        let round_end = SimTime((r + 1) * round_ns);
        k.land_upsets(round_end);
        k.land_sefis(round_end);
        for (slot, &b) in live.iter().enumerate() {
            if strategy.next_scrub_round(slot, r) != r {
                continue;
            }
            k.fill_board_dirty(b, &mut board_dirty);
            let out = strategy.scrub_board(k.payload, b, slot, now, &board_dirty);
            busy_ns += out.duration.as_nanos();
            k.apply_board_outcome(b, &out, round_end);
        }
        k.settle_dirty();
        k.periodic_refresh(round_end);
        k.add_scrub_cycles(1);
        r += 1;
    }

    StrategyMissionStats {
        mission: k.finish(),
        strategy: strategy.stats(),
        scrub_busy_ns: busy_ns,
    }
}

/// Emit the header record naming the strategy, so a forensics pass over
/// the dump knows which zoo member produced it. It carries nothing
/// schedule-specific: both schedules emit the identical line.
fn announce(payload: &Payload, name: &'static str) {
    payload.telemetry.emit_with(|| {
        TelemetryEvent::point(
            Subsystem::Mission,
            Severity::Info,
            "strategy.mission_begin",
            0,
        )
        .with_str("strategy", name)
    });
}

/// Run a mission with the paper's fault manager ([`LadderStrategy`]) on
/// the event-driven schedule. `sensitivity` maps (board, fpga) to that
/// design's sensitive-bit set from an SEU-simulator campaign; positions
/// without a map treat every unmasked configuration upset as potentially
/// sensitive (conservative).
///
/// Produces [`MissionStats`] bit-identical to [`run_mission_reference`]
/// for any seed and configuration, in time proportional to the number of
/// *events* rather than the number of scan rounds — a quiet multi-month
/// mission costs thousands of loop steps instead of hundreds of millions.
pub fn run_mission(
    payload: &mut Payload,
    cfg: &MissionConfig,
    sensitivity: &HashMap<(usize, usize), HashSet<usize>>,
) -> MissionStats {
    drive(
        payload,
        cfg,
        sensitivity,
        &mut LadderStrategy,
        Schedule::EventDriven,
    )
    .mission
}

/// [`run_mission`] ticking every scan round: the test oracle the
/// event-driven schedule is differentially checked against.
pub fn run_mission_reference(
    payload: &mut Payload,
    cfg: &MissionConfig,
    sensitivity: &HashMap<(usize, usize), HashSet<usize>>,
) -> MissionStats {
    drive(
        payload,
        cfg,
        sensitivity,
        &mut LadderStrategy,
        Schedule::EveryRound,
    )
    .mission
}

/// Fly any mitigation strategy on the event-driven schedule.
pub fn run_strategy_mission(
    payload: &mut Payload,
    cfg: &MissionConfig,
    sensitivity: &HashMap<(usize, usize), HashSet<usize>>,
    strategy: &mut dyn MitigationStrategy,
) -> StrategyMissionStats {
    announce(payload, strategy.name());
    drive(payload, cfg, sensitivity, strategy, Schedule::EventDriven)
}

/// [`run_strategy_mission`] ticking every scan round: the test oracle.
pub fn run_strategy_mission_reference(
    payload: &mut Payload,
    cfg: &MissionConfig,
    sensitivity: &HashMap<(usize, usize), HashSet<usize>>,
    strategy: &mut dyn MitigationStrategy,
) -> StrategyMissionStats {
    announce(payload, strategy.name());
    drive(payload, cfg, sensitivity, strategy, Schedule::EveryRound)
}
