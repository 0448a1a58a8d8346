//! Lint a telemetry JSONL dump.
//!
//! Every line must parse as a flat JSON object through the telemetry
//! crate's own reader ([`cibola_forensics::RawEvent`] over
//! `parse_flat_object`), and the stream must satisfy the emitter
//! contract end to end:
//!
//! - writer shape: fixed key order, `t_ns` leading
//!   (`validate_telemetry_line`);
//! - schema: any event in the known-schema table carries every required
//!   field (`known_event_required_fields`);
//! - horizon: no timestamp exceeds `--max-t-ns` when one is given;
//! - ordering: per `(device, subsystem)` stream, *point* events carry
//!   monotonically non-decreasing timestamps (spans like `mission.end`
//!   cover the whole mission and are exempt);
//! - severity: SOH events carry exactly the severity the shared
//!   [`SOH_EVENT_META`](cibola_telemetry::SOH_EVENT_META) table assigns
//!   them, so the downlink planner, the lint and forensics can never
//!   disagree about what is critical;
//! - causality: the whole stream must go through the forensics
//!   reconstructor ([`cibola_forensics::reconstruct`]), which rejects
//!   duplicate origins, `upset_id`/`sefi_id` references without a
//!   `mission.upset`/`mission.sefi` origin on an **earlier** line, and
//!   faults left open past `mission.end`.
//!
//! CI runs this over the dump `orbit_mission --telemetry` produces, so a
//! regression in any instrumented crate fails the build rather than
//! silently shipping an unreadable flight record.
//!
//! Usage: `telemetry_lint <dump.jsonl> [--max-t-ns N]`
//!
//! Exits non-zero on the first malformed line, reporting its number, and
//! with status 1 on a usage error.

use std::collections::HashMap;
use std::process::ExitCode;

use cibola_forensics::{reconstruct, RawEvent};
use cibola_telemetry::{known_event_required_fields, soh_meta_for, validate_telemetry_line};

const USAGE: &str = "usage: telemetry_lint <dump.jsonl> [--max-t-ns N]";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(path) = args.next() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let mut max_t_ns: Option<u64> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--max-t-ns" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => max_t_ns = Some(v),
                None => {
                    eprintln!("--max-t-ns needs an integer\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    let dump = match std::fs::read_to_string(&path) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Per-(device, subsystem) last point timestamp; None device groups
    // the global (mission-wide) stream of that subsystem.
    let mut last_point: HashMap<(Option<(u16, u16)>, String), u64> = HashMap::new();
    // Decoded events and the file line each came from, for the causality
    // pass.
    let mut events = Vec::new();
    let mut event_lines = Vec::new();

    for (lineno, line) in dump.lines().enumerate() {
        let lineno = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Err(e) = validate_telemetry_line(line) {
            eprintln!("{path}:{lineno}: {} (at byte {})", e.message, e.at);
            return ExitCode::FAILURE;
        }
        let ev = match RawEvent::parse(line) {
            Ok(ev) => ev,
            Err(e) => {
                eprintln!("{path}:{lineno}: {e}");
                return ExitCode::FAILURE;
            }
        };

        if let Some(required) = known_event_required_fields(&ev.name) {
            for field in required {
                if !ev.fields.iter().any(|(k, _)| k == field) {
                    eprintln!(
                        "{path}:{lineno}: event {:?} is missing required field {field:?}",
                        ev.name
                    );
                    return ExitCode::FAILURE;
                }
            }
        }

        if let Some(horizon) = max_t_ns {
            if ev.t_ns > horizon {
                eprintln!(
                    "{path}:{lineno}: t_ns {} exceeds horizon {horizon}",
                    ev.t_ns
                );
                return ExitCode::FAILURE;
            }
        }

        // Ordering: each device's per-subsystem point stream must be
        // chronological. Spans (dur_ns present) describe intervals —
        // `mission.end` spans the whole mission from t=0 — and are
        // exempt by design.
        if ev.dur_ns.is_none() {
            let key = (ev.device, ev.subsystem.clone());
            let last = last_point.entry(key).or_insert(0);
            if ev.t_ns < *last {
                eprintln!(
                    "{path}:{lineno}: {} t_ns {} goes backwards (stream was at {})",
                    ev.name, ev.t_ns, *last
                );
                return ExitCode::FAILURE;
            }
            *last = ev.t_ns;
        }

        // Severity must come from the shared SOH table.
        if let Some(meta) = soh_meta_for(&ev.name) {
            if ev.severity != meta.severity.name() {
                eprintln!(
                    "{path}:{lineno}: {} severity {:?} != SOH table {:?}",
                    ev.name,
                    ev.severity,
                    meta.severity.name()
                );
                return ExitCode::FAILURE;
            }
        }

        events.push(ev);
        event_lines.push(lineno);
    }

    if events.is_empty() {
        eprintln!("{path}: no telemetry lines — instrumentation produced nothing");
        return ExitCode::FAILURE;
    }
    // Forensics numbers its errors by event (1-based; 0 for the stream as
    // a whole); map them back to the dump's file line.
    if let Err(e) = reconstruct(&events) {
        match e.line.checked_sub(1).map(|i| event_lines[i]) {
            Some(lineno) => eprintln!("{path}:{lineno}: {}", e.message),
            None => eprintln!("{path}: {}", e.message),
        }
        return ExitCode::FAILURE;
    }
    println!("{path}: {} line(s) OK", events.len());
    ExitCode::SUCCESS
}
