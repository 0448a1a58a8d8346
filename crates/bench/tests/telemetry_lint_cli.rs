//! The `telemetry_lint` binary end to end: a recorded mission dump
//! passes, causality violations found by the forensics reconstructor are
//! reported against the dump's own file line (blank lines included), and
//! a malformed argument is a usage error with exit status 1, never a
//! panic.

use std::path::PathBuf;
use std::process::{Command, Output};

use cibola::prelude::*;
use cibola_bench::conformance::{corpus_payload, mission_config, sparse_sensitivity};
use cibola_scrub::Telemetry;

/// A recorded flare mission's JSONL dump: upsets with their origin,
/// symptom and close events.
fn dump() -> String {
    let telemetry = Telemetry::recording();
    let mut payload = corpus_payload(&Geometry::tiny()).with_telemetry(telemetry.clone());
    run_mission(&mut payload, &mission_config(1, 3).0, &sparse_sensitivity());
    telemetry.dump_jsonl()
}

fn lint(name: &str, text: &str, extra: &[&str]) -> Output {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("lint_{name}.jsonl"));
    std::fs::write(&path, text).expect("write dump");
    Command::new(env!("CARGO_BIN_EXE_telemetry_lint"))
        .arg(&path)
        .args(extra)
        .output()
        .expect("telemetry_lint runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Index of the first `mission.upset` origin line and its `upset_id`.
fn first_upset(lines: &[&str]) -> (usize, String) {
    let i = lines
        .iter()
        .position(|l| l.contains("\"name\":\"mission.upset\""))
        .expect("the flare mission lands upsets");
    let id = lines[i]
        .split("\"upset_id\":")
        .nth(1)
        .and_then(|rest| rest.split([',', '}']).next())
        .expect("origin carries upset_id")
        .to_string();
    (i, id)
}

#[test]
fn recorded_dump_passes() {
    let out = lint("clean", &dump(), &[]);
    assert!(out.status.success(), "{}", stderr(&out));
}

#[test]
fn malformed_horizon_is_a_usage_error() {
    for extra in [&["--max-t-ns", "abc"][..], &["--max-t-ns"][..]] {
        let out = lint("usage", &dump(), extra);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{extra:?}: {err}");
        assert!(err.contains("usage:"), "{extra:?}: {err}");
        assert!(!err.contains("panicked"), "{extra:?}: {err}");
    }
}

#[test]
fn duplicate_origin_names_its_file_line() {
    let text = dump();
    let lines: Vec<&str> = text.lines().collect();
    let (i, id) = first_upset(&lines);
    // Origin, a blank line, then the same origin again: the duplicate
    // sits on file line i + 3 but is event i + 2.
    let mut edited: Vec<&str> = lines[..=i].to_vec();
    edited.push("");
    edited.extend_from_slice(&lines[i..]);
    let out = lint("duplicate", &edited.join("\n"), &[]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(
        err.contains(&format!(":{}: duplicate upset id {id}", i + 3)),
        "{err}"
    );
}

#[test]
fn dangling_reference_names_its_file_line() {
    let text = dump();
    let mut lines: Vec<&str> = text.lines().collect();
    let (i, id) = first_upset(&lines);
    lines.remove(i);
    let key = format!("\"upset_id\":{id}");
    let j = lines
        .iter()
        .position(|l| {
            l.split(&key)
                .nth(1)
                .is_some_and(|rest| rest.starts_with([',', '}']))
        })
        .expect("the upset's lifecycle closes in the dump");
    let out = lint("dangling", &lines.join("\n"), &[]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(
        err.contains(&format!(":{}: ", j + 1)) && err.contains(&format!("unknown upset id {id}")),
        "{err}"
    );
}
