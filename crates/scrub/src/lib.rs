//! # cibola-scrub — on-orbit fault detection and correction (paper §II)
//!
//! The flight side of the paper: an Actel-class fault manager per board
//! continuously reads back the configuration of three Virtex FPGAs,
//! CRC-checks every frame against a codebook, interrupts the RAD6000 on
//! mismatch, fetches the golden frame from ECC-protected FLASH, partially
//! reconfigures the device *while the design keeps running*, and resets.
//! The cadence reproduces the paper's numbers: a full scan of three
//! XQVR1000-class devices every ≈180 ms.
//!
//! * [`crc`] — the frame CRC (CRC-32).
//! * [`ecc`] — Hamming SECDED (72,64) protecting FLASH.
//! * [`flash`] — the 16 MB configuration store + 1 MB EEPROM.
//! * [`manager`] — codebook, scan, repair; masked frames for LUT-RAM/BRAM.
//! * [`payload`] — the 3-board × 3-FPGA SEM-E assembly with SOH logging.
//! * [`mission`] — the payload in the LEO upset environment: one mission
//!   driver over the shared `MissionKernel`, event-driven, with an
//!   every-round schedule kept as the test oracle.
//! * [`strategy`] — the [`MitigationStrategy`] seam the driver flies, and
//!   [`LadderStrategy`], the paper's readback scrub + escalation ladder
//!   that [`run_mission`] flies.
//! * [`ensemble`] — parallel Monte-Carlo mission sweeps over seeds.

pub mod correlate;
pub mod crc;
pub mod ecc;
pub mod ensemble;
pub mod flash;
pub mod manager;
pub mod mission;
pub mod payload;
pub mod strategy;
pub mod uplink;

pub use cibola_telemetry::{
    EscalationRung, LadderStats, PortFaultStats, Severity, SohDownlinkPolicy, Telemetry,
    TelemetryEvent,
};
pub use correlate::{CorrelationLedger, FaultOrigin};
pub use crc::{crc32, Crc32};
pub use ecc::{decode as ecc_decode, encode as ecc_encode, CodeWord, EccOutcome};
pub use ensemble::{run_ensemble, EnsembleConfig, EnsembleResult, EnsembleStats};
pub use flash::{EccStats, Eeprom, Flash, FlashError};
pub use manager::{
    dynamic_bits_for, masked_frames_for, CorruptFrame, CrcCodebook, DynamicBitMask, FaultManager,
    ScanReport,
};
pub use mission::{
    run_mission, run_mission_reference, run_strategy_mission, run_strategy_mission_reference,
    MissionConfig, MissionKernel, MissionStats,
};
pub use payload::{
    soh_event_meta, FpgaHealth, Payload, ScrubOutcome, ScrubPolicy, SohEvent, SohRecord, BOARDS,
    FPGAS_PER_BOARD,
};
pub use strategy::{
    LadderStrategy, MitigationStrategy, StrategyMissionStats, StrategyStats, WindowObservation,
};
pub use uplink::{GroundLink, SOH_RECORD_BYTES};
