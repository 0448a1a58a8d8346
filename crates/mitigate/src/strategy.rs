//! The mitigation-strategy zoo (paper §II plus the configuration-scrub
//! variants surveyed in the related flight literature).
//!
//! The [`MitigationStrategy`] seam, the mission driver that flies it and
//! the paper's [`LadderStrategy`] live in `cibola-scrub` (re-exported
//! here). This module adds three alternative scrubbers, each measured by
//! the same kernel accounting:
//!
//! * [`VotedRedundancy`] — frame-level majority vote over three
//!   configuration copies (device readback plus two shadow copies held by
//!   the supervisor). A corrupt frame is repaired from the 2-of-3
//!   majority without touching FLASH; a 3-way disagreement falls back to
//!   the ECC-protected golden.
//! * [`IntermodularScrub`] — one shared scrub controller round-robins its
//!   scan/repair bandwidth across the boards, so each board is serviced
//!   every `n` rounds and repairs queue behind the rotation.
//! * [`BlindScrub`] — periodic rewrite of every unmasked frame from the
//!   golden image with no readback at all: no detection latency from
//!   scanning, but every round costs write bandwidth and wear, and masked
//!   frames can never be touched (the read-modify-write hazard).
//!
//! The adaptive scrub-rate controller wrapping any of these lives in
//! [`crate::adaptive`].

use cibola_arch::{Bitstream, PortError, ReadbackOptions, SimTime};
use cibola_scrub::crc32;
use cibola_scrub::flash::{EccStats, FlashError};
use cibola_scrub::payload::{LoadedFpga, Payload, ScrubOutcome, SohEvent};
pub use cibola_scrub::strategy::{
    LadderStrategy, MitigationStrategy, StrategyStats, WindowObservation,
};
use cibola_telemetry::{Severity, Subsystem, TelemetryEvent};
use std::collections::HashMap;

// ---------------------------------------------------------------------
// 2. Frame-level majority-vote configuration redundancy
// ---------------------------------------------------------------------

/// Frame-level majority vote over three configuration copies: the device
/// readback plus two shadow copies the supervisor holds in memory
/// (Giordano et al. style configuration redundancy). A frame flagged
/// corrupt by the CRC scan is re-read and voted bitwise 2-of-3 against
/// the shadows; when the majority matches the codebook CRC the repair is
/// written from the majority — no FLASH fetch, no golden wear. Only a
/// 3-way disagreement (all copies differ from the golden CRC) falls back
/// to the ECC-protected FLASH golden. Shadows that lose a vote are
/// healed from the winner.
#[derive(Debug, Default)]
pub struct VotedRedundancy {
    shadows: HashMap<(usize, usize), [Bitstream; 2]>,
    /// Chaos hook: corrupt a shadow copy before every n-th vote, so the
    /// disagreement/fallback paths are exercised deterministically.
    pub shadow_upset_every: Option<u64>,
    votes_cast: u64,
    stats: StrategyStats,
}

impl VotedRedundancy {
    /// A voter with the shadow-chaos hook armed: corrupt a shadow copy
    /// before every `every`-th vote.
    pub fn with_shadow_chaos(every: u64) -> Self {
        VotedRedundancy {
            shadow_upset_every: Some(every),
            ..Default::default()
        }
    }

    /// Bitwise 2-of-3 majority of three equal-length frames.
    fn majority(a: &[u8], b: &[u8], c: &[u8]) -> Vec<u8> {
        a.iter()
            .zip(b)
            .zip(c)
            .map(|((&x, &y), &z)| (x & y) | (x & z) | (y & z))
            .collect()
    }

    /// One device's pass: the ladder's structure with the repair source
    /// swapped from FLASH-first to majority-first.
    #[allow(clippy::too_many_arguments)]
    fn scrub_device(
        &mut self,
        p: &mut Payload,
        b: usize,
        fi: usize,
        now: SimTime,
        dirty: bool,
        out: &mut ScrubOutcome,
    ) {
        // Rung 0 — the codebook must prove itself before any vote: the
        // voted CRC check is only as trustworthy as the codebook.
        if !p.fpga(b, fi).manager.codebook.self_check() {
            p.push_soh(b, fi, now + out.duration, SohEvent::CodebookCorrupt);
            if !p.rebuild_codebook(b, fi, now, out) {
                p.note_failed_pass(b, fi, now, out);
                return;
            }
        }
        if p.fpga(b, fi).device.is_port_wedged() {
            p.reset_port(b, fi, now, out);
        }

        // Fast path — identical to the ladder's, so the event-driven
        // driver's skip predicate covers this strategy unchanged.
        let skip = !dirty
            && p.fpga(b, fi).device.is_programmed()
            && p.fpga(b, fi).device.pending_port_faults() == 0;
        if skip {
            let f = p.fpga(b, fi);
            out.duration += f.manager.scan_cost(&f.device);
            p.fpga_mut(b, fi).health.consecutive_failures = 0;
            return;
        }

        // Scan, with the ladder's wedge handling.
        let mut report = {
            let f = p.fpga_mut(b, fi);
            f.manager.scan(&mut f.device)
        };
        out.duration += report.duration;
        if report.aborted_frames > 0 {
            out.ladder.sefis_observed += report.aborted_frames;
            p.push_soh(
                b,
                fi,
                now + out.duration,
                SohEvent::PortSefi { wedged: false },
            );
        }
        if report.wedged {
            out.ladder.sefis_observed += 1;
            p.push_soh(
                b,
                fi,
                now + out.duration,
                SohEvent::PortSefi { wedged: true },
            );
            p.reset_port(b, fi, now, out);
            report = {
                let f = p.fpga_mut(b, fi);
                f.manager.scan(&mut f.device)
            };
            out.duration += report.duration;
            if report.wedged {
                out.ladder.sefis_observed += 1;
                p.push_soh(
                    b,
                    fi,
                    now + out.duration,
                    SohEvent::PortSefi { wedged: true },
                );
                p.note_failed_pass(b, fi, now, out);
                return;
            }
        }

        if report.looks_unprogrammed() {
            if p.try_full_reconfig(b, fi, now, out) {
                out.devices_cleaned.push(fi);
                p.fpga_mut(b, fi).health.consecutive_failures = 0;
            } else {
                p.note_failed_pass(b, fi, now, out);
            }
            return;
        }
        if report.corrupt.is_empty() {
            p.fpga_mut(b, fi).health.consecutive_failures = 0;
            return;
        }

        let frame_overhead = p.fpga(b, fi).manager.frame_overhead;
        let mut failed_frames = 0usize;
        for cf in &report.corrupt {
            p.push_soh(
                b,
                fi,
                now + out.duration,
                SohEvent::FrameCorrupt {
                    frame_index: cf.frame_index,
                },
            );

            // Chaos hook: shadows take SEUs too.
            self.votes_cast += 1;
            if let Some(n) = self.shadow_upset_every {
                if n > 0 && self.votes_cast % n == 0 {
                    let sh = &mut self.shadows.get_mut(&(b, fi)).expect("shadow")[0];
                    let mut frame = sh.read_frame(cf.addr);
                    if !frame.is_empty() {
                        let bit = (self.votes_cast as usize).wrapping_mul(7919) % (frame.len() * 8);
                        frame[bit / 8] ^= 1 << (bit % 8);
                        sh.write_frame(cf.addr, &frame);
                        self.stats.shadow_upsets += 1;
                    }
                }
            }

            // Re-read the device copy for the vote.
            let (rres, rd) = p
                .fpga_mut(b, fi)
                .device
                .try_readback_frame(cf.addr, ReadbackOptions::default());
            out.duration += rd;
            let voted = match rres {
                Ok(device_copy) => {
                    // Shadow fetches are supervisor memory reads; charge
                    // the fault manager's per-frame processing overhead.
                    let sh = &self.shadows[&(b, fi)];
                    let s0 = sh[0].read_frame(cf.addr);
                    let s1 = sh[1].read_frame(cf.addr);
                    out.duration += frame_overhead + frame_overhead;
                    let maj = Self::majority(&device_copy, &s0, &s1);
                    if crc32(&maj) == p.fpga(b, fi).manager.codebook.crc(cf.frame_index) {
                        Some(maj)
                    } else {
                        None
                    }
                }
                Err(PortError::Aborted) => {
                    out.ladder.sefis_observed += 1;
                    p.push_soh(
                        b,
                        fi,
                        now + out.duration,
                        SohEvent::PortSefi { wedged: false },
                    );
                    None
                }
                Err(PortError::Wedged) => {
                    out.ladder.sefis_observed += 1;
                    p.push_soh(
                        b,
                        fi,
                        now + out.duration,
                        SohEvent::PortSefi { wedged: true },
                    );
                    p.reset_port(b, fi, now, out);
                    None
                }
            };

            match voted {
                Some(maj) => {
                    if p.repair_frame_verified(b, fi, cf.frame_index, cf.addr, &maj, now, out) {
                        out.frames_repaired += 1;
                        self.stats.voted_repairs += 1;
                        p.push_soh(
                            b,
                            fi,
                            now + out.duration,
                            SohEvent::VotedRepair {
                                frame_index: cf.frame_index,
                            },
                        );
                        // Heal any shadow that lost the vote.
                        let sh = self.shadows.get_mut(&(b, fi)).expect("shadow");
                        for copy in sh.iter_mut() {
                            if copy.read_frame(cf.addr) != maj {
                                copy.write_frame(cf.addr, &maj);
                                out.duration += frame_overhead;
                                self.stats.shadow_refreshes += 1;
                            }
                        }
                    } else {
                        failed_frames += 1;
                        out.ladder.frames_escalated += 1;
                    }
                }
                None => {
                    // 3-way disagreement (or the vote could not even be
                    // taken): fall back to the ECC-protected golden.
                    self.stats.voter_disagreements += 1;
                    p.push_soh(
                        b,
                        fi,
                        now + out.duration,
                        SohEvent::VoterDisagreement {
                            frame_index: cf.frame_index,
                        },
                    );
                    let slot = p.fpga(b, fi).flash_slot;
                    let mut stats = EccStats::default();
                    let golden = match p.flash.read_frame(slot, cf.frame_index, &mut stats) {
                        Ok((bytes, fetch)) => {
                            p.merge_ecc(b, fi, now, &stats);
                            out.duration += fetch;
                            bytes
                        }
                        Err(FlashError::Uncorrectable { .. }) => {
                            p.merge_ecc(b, fi, now, &stats);
                            out.ladder.golden_uncorrectable += 1;
                            p.push_soh(
                                b,
                                fi,
                                now + out.duration,
                                SohEvent::GoldenFrameUncorrectable {
                                    frame_index: cf.frame_index,
                                },
                            );
                            failed_frames += 1;
                            continue;
                        }
                        Err(e) => panic!("golden frame fetch: {e}"),
                    };
                    if p.repair_frame_verified(b, fi, cf.frame_index, cf.addr, &golden, now, out) {
                        out.frames_repaired += 1;
                        self.stats.voter_fallbacks += 1;
                        p.push_soh(
                            b,
                            fi,
                            now + out.duration,
                            SohEvent::FrameRepaired {
                                frame_index: cf.frame_index,
                            },
                        );
                        // Both shadows were outvoted by the golden: heal
                        // them so the next vote is 3-for-3.
                        let sh = self.shadows.get_mut(&(b, fi)).expect("shadow");
                        for copy in sh.iter_mut() {
                            if copy.read_frame(cf.addr) != golden {
                                copy.write_frame(cf.addr, &golden);
                                out.duration += frame_overhead;
                                self.stats.shadow_refreshes += 1;
                            }
                        }
                    } else {
                        failed_frames += 1;
                        out.ladder.frames_escalated += 1;
                    }
                }
            }
        }
        // One design reset after repairs, as the ladder does.
        p.fpga_mut(b, fi).device.reset();

        if failed_frames == 0 {
            out.devices_cleaned.push(fi);
            p.fpga_mut(b, fi).health.consecutive_failures = 0;
            return;
        }

        // Rungs 2–4 — identical to the ladder: rescan-verify, full
        // reconfiguration, port power-cycle + reconfiguration, degrade.
        let recheck = {
            let f = p.fpga_mut(b, fi);
            f.manager.scan(&mut f.device)
        };
        out.duration += recheck.duration;
        if !recheck.wedged
            && recheck.aborted_frames == 0
            && !recheck.looks_unprogrammed()
            && recheck.corrupt.is_empty()
        {
            out.devices_cleaned.push(fi);
            p.fpga_mut(b, fi).health.consecutive_failures = 0;
            return;
        }
        if p.try_full_reconfig(b, fi, now, out) {
            out.devices_cleaned.push(fi);
            p.fpga_mut(b, fi).health.consecutive_failures = 0;
            return;
        }
        p.reset_port(b, fi, now, out);
        if p.try_full_reconfig(b, fi, now, out) {
            out.devices_cleaned.push(fi);
            p.fpga_mut(b, fi).health.consecutive_failures = 0;
            return;
        }
        p.note_failed_pass(b, fi, now, out);
    }
}

impl MitigationStrategy for VotedRedundancy {
    fn name(&self) -> &'static str {
        "voted"
    }

    fn prepare(&mut self, payload: &mut Payload) {
        for (b, f) in payload.positions() {
            let golden = payload.fpga(b, f).golden.clone();
            self.shadows.insert((b, f), [golden.clone(), golden]);
        }
    }

    fn scrub_board(
        &mut self,
        payload: &mut Payload,
        board: usize,
        _slot: usize,
        now: SimTime,
        dirty: &[bool],
    ) -> ScrubOutcome {
        let mut out = ScrubOutcome::default();
        for fi in 0..payload.boards[board].fpgas.len() {
            if payload.boards[board].fpgas[fi].health.degraded {
                continue;
            }
            let dirty_hint = dirty.get(fi).copied().unwrap_or(true);
            self.scrub_device(payload, board, fi, now, dirty_hint, &mut out);
        }
        out
    }

    fn charge_idle_rounds(&mut self, payload: &Payload, _start_round: u64, rounds: u64) -> u64 {
        let per_round: u64 = (0..payload.boards.len())
            .map(|b| payload.idle_scan_ns(b))
            .sum();
        rounds * per_round
    }

    fn stats(&self) -> StrategyStats {
        self.stats
    }
}

// ---------------------------------------------------------------------
// 3. Intermodular scrubbing (one shared controller, round-robin)
// ---------------------------------------------------------------------

/// One scrub controller shared by every board (Belle II ARICH style):
/// in round `r` only the board at rotation slot `r mod n` is scanned and
/// repaired, so each board is serviced every `n` rounds and a fault on a
/// board that just missed its turn queues for up to `n − 1` rounds. The
/// contention shows up as queueing delay in the detection-latency (MTTR)
/// figures, with `n − 1` extra rounds of wait charged per dirty service.
#[derive(Debug, Default)]
pub struct IntermodularScrub {
    nlive: usize,
    stats: StrategyStats,
}

impl MitigationStrategy for IntermodularScrub {
    fn name(&self) -> &'static str {
        "intermodular"
    }

    fn prepare(&mut self, payload: &mut Payload) {
        self.nlive = payload
            .boards
            .iter()
            .filter(|b| !b.fpgas.is_empty())
            .count();
    }

    fn next_scrub_round(&self, slot: usize, r: u64) -> u64 {
        let n = self.nlive.max(1) as u64;
        let s = slot as u64 % n;
        // Next round ≥ r with round ≡ slot (mod n).
        r + (n + s - r % n) % n
    }

    fn scrub_board(
        &mut self,
        payload: &mut Payload,
        board: usize,
        _slot: usize,
        now: SimTime,
        dirty: &[bool],
    ) -> ScrubOutcome {
        // The board waited out the rest of the rotation since its last
        // service; a dirty board spent that window with a latent fault.
        if self.nlive > 1 && dirty.iter().any(|&d| d) {
            let wait = (self.nlive - 1) as u64;
            self.stats.queue_wait_rounds += wait;
            payload.telemetry.emit_with(|| {
                TelemetryEvent::point(
                    Subsystem::Mission,
                    Severity::Debug,
                    "strategy.queue_wait",
                    now.as_nanos(),
                )
                .with_u64("rounds", wait)
            });
        }
        payload.scrub_board(board, now, dirty)
    }

    fn charge_idle_rounds(&mut self, payload: &Payload, start_round: u64, rounds: u64) -> u64 {
        // Exactly one board is serviced per round: full rotations charge
        // every live board once, the partial tail walks the rotation from
        // the start phase.
        let live: Vec<usize> = (0..payload.boards.len())
            .filter(|&b| !payload.boards[b].fpgas.is_empty())
            .collect();
        let n = live.len().max(1) as u64;
        let costs: Vec<u64> = live.iter().map(|&b| payload.idle_scan_ns(b)).collect();
        let total: u64 = costs.iter().sum();
        let full = rounds / n;
        let mut busy = full * total;
        for i in 0..(rounds % n) {
            busy += costs[((start_round + i) % n) as usize];
        }
        busy
    }

    fn stats(&self) -> StrategyStats {
        self.stats
    }
}

// ---------------------------------------------------------------------
// 4. Blind scrubbing (periodic rewrite, no readback)
// ---------------------------------------------------------------------

/// Blind scrubbing: periodically rewrite every unmasked frame from the
/// golden image without ever reading the device back. There is no
/// detection step to be lied to (readback SEFIs are irrelevant), but
/// every round costs full write bandwidth and configuration-memory write
/// wear, and masked frames — LUT-RAM and BRAM whose contents the design
/// legitimately changes — can never be written (the read-modify-write
/// hazard), so upsets there are invisible *and* unrepairable until a
/// periodic refresh. An unprogrammed device is still detected via the
/// externally visible DONE pin and recovered by full reconfiguration.
///
/// The frame mask is design-time knowledge (which frames hold dynamic
/// state), not the SRAM CRC table, so consulting it does not put the
/// codebook in the loop.
#[derive(Debug, Default)]
pub struct BlindScrub {
    stats: StrategyStats,
}

impl BlindScrub {
    /// Analytic cost and frame count of one blind rewrite of a device:
    /// one frame-write port operation per unmasked frame.
    fn device_write_cost(f: &LoadedFpga) -> (u64, u64) {
        let mut ns = 0u64;
        let mut frames = 0u64;
        for (fi, addr) in f.device.config().frame_addrs().enumerate() {
            if f.manager.codebook.is_masked(fi) {
                continue;
            }
            let bytes = f.device.config().frame_bytes(addr.block) as u64;
            ns += f.device.port_timing.op_overhead_ns + bytes * f.device.port_timing.ns_per_byte;
            frames += 1;
        }
        (ns, frames)
    }

    fn scrub_device(
        &mut self,
        p: &mut Payload,
        b: usize,
        fi: usize,
        now: SimTime,
        dirty: bool,
        out: &mut ScrubOutcome,
    ) {
        if p.fpga(b, fi).device.is_port_wedged() {
            p.reset_port(b, fi, now, out);
        }

        // DONE pin low: the configuration FSM was upset. Blind writes
        // cannot reprogram a device; full reconfiguration can.
        if !p.fpga(b, fi).device.is_programmed() {
            if p.try_full_reconfig(b, fi, now, out) {
                out.devices_cleaned.push(fi);
                p.fpga_mut(b, fi).health.consecutive_failures = 0;
            } else {
                p.note_failed_pass(b, fi, now, out);
            }
            return;
        }

        // Fast path: nothing latched, nothing dirty — the rewrite would
        // provably write back identical bytes, so charge its time and
        // wear analytically. This must mirror the kernel's write-only
        // skip predicate exactly.
        if !dirty && p.fpga(b, fi).device.pending_write_faults() == 0 {
            let (ns, frames) = Self::device_write_cost(p.fpga(b, fi));
            out.duration += cibola_arch::SimDuration::from_nanos(ns);
            self.stats.blind_writes += frames;
            p.fpga_mut(b, fi).health.consecutive_failures = 0;
            return;
        }

        // Real rewrite: fetch the golden image once, write every
        // unmasked frame through the fault-aware port.
        let slot = p.fpga(b, fi).flash_slot;
        let golden = p.fpga(b, fi).golden.clone();
        let mut stats = EccStats::default();
        let image = match p.flash.read_bitstream(slot, &golden, &mut stats) {
            Ok((image, fetch)) => {
                p.merge_ecc(b, fi, now, &stats);
                out.duration += fetch;
                image
            }
            Err(FlashError::Uncorrectable { .. }) => {
                p.merge_ecc(b, fi, now, &stats);
                out.ladder.golden_uncorrectable += 1;
                p.push_soh(
                    b,
                    fi,
                    now + out.duration,
                    SohEvent::GoldenImageUncorrectable,
                );
                p.note_failed_pass(b, fi, now, out);
                return;
            }
            Err(e) => panic!("golden image fetch: {e}"),
        };

        let addrs: Vec<_> = image.frame_addrs().collect();
        for (fidx, addr) in addrs.iter().enumerate() {
            if p.fpga(b, fi).manager.codebook.is_masked(fidx) {
                continue;
            }
            let data = image.read_frame(*addr);
            let (wres, wd) = p
                .fpga_mut(b, fi)
                .device
                .try_partial_configure_frame(*addr, &data);
            out.duration += wd;
            self.stats.blind_writes += 1;
            if matches!(wres, Err(PortError::Wedged)) {
                out.ladder.sefis_observed += 1;
                p.push_soh(
                    b,
                    fi,
                    now + out.duration,
                    SohEvent::PortSefi { wedged: true },
                );
                p.reset_port(b, fi, now, out);
                // The frame was not written; the next pass retries.
            }
        }

        // Oracle: did the rewrite actually land everywhere? Stands in for
        // "a blind scrubber's rewrite closes the corruption window when
        // the writes really happen" — a silently dropped write leaves the
        // frame corrupt and the window open until a later pass lands.
        let clean = {
            let f = p.fpga(b, fi);
            f.device.is_programmed()
                && f.device
                    .config()
                    .frame_addrs()
                    .enumerate()
                    .filter(|(i, _)| !f.manager.codebook.is_masked(*i))
                    .all(|(_, addr)| f.device.config().read_frame(addr) == image.read_frame(addr))
        };
        if clean {
            out.devices_cleaned.push(fi);
            p.fpga_mut(b, fi).health.consecutive_failures = 0;
        }
        // Not clean is *not* a failed pass: blind scrubbing has no
        // verification, so it cannot know — it just rewrites again next
        // round (the injected-fault queues guarantee convergence).
    }
}

impl MitigationStrategy for BlindScrub {
    fn name(&self) -> &'static str {
        "blind"
    }

    fn uses_codebook(&self) -> bool {
        false
    }

    fn uses_readback(&self) -> bool {
        false
    }

    fn scrub_board(
        &mut self,
        payload: &mut Payload,
        board: usize,
        _slot: usize,
        now: SimTime,
        dirty: &[bool],
    ) -> ScrubOutcome {
        let mut out = ScrubOutcome::default();
        for fi in 0..payload.boards[board].fpgas.len() {
            if payload.boards[board].fpgas[fi].health.degraded {
                continue;
            }
            let dirty_hint = dirty.get(fi).copied().unwrap_or(true);
            self.scrub_device(payload, board, fi, now, dirty_hint, &mut out);
        }
        out
    }

    fn charge_idle_rounds(&mut self, payload: &Payload, _start_round: u64, rounds: u64) -> u64 {
        let mut ns = 0u64;
        let mut frames = 0u64;
        for board in &payload.boards {
            for f in board.fpgas.iter().filter(|f| !f.health.degraded) {
                let (n, fr) = Self::device_write_cost(f);
                ns += n;
                frames += fr;
            }
        }
        self.stats.blind_writes += rounds * frames;
        rounds * ns
    }

    fn stats(&self) -> StrategyStats {
        self.stats
    }
}

// ---------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------

/// Names of every strategy in the zoo, reference first. The adaptive
/// controller wraps the ladder at its default tuning.
pub const STRATEGY_NAMES: [&str; 5] = ["ladder", "voted", "intermodular", "blind", "adaptive"];

/// Construct a strategy by its stable name (corpus case IDs, experiment
/// configs). Panics on an unknown name — callers pass constants.
pub fn make_strategy(name: &str) -> Box<dyn MitigationStrategy> {
    match name {
        "ladder" => Box::new(LadderStrategy),
        "voted" => Box::new(VotedRedundancy::default()),
        "intermodular" => Box::new(IntermodularScrub::default()),
        "blind" => Box::new(BlindScrub::default()),
        "adaptive" => Box::new(crate::adaptive::AdaptiveScrub::new(
            LadderStrategy,
            crate::adaptive::AdaptiveConfig::default(),
        )),
        other => panic!("unknown mitigation strategy {other:?}"),
    }
}
