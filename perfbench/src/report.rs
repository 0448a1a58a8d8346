//! Correctness tally, metric collection and the result line.
//!
//! Human-readable lines go to stdout as the run proceeds; the last line of
//! stdout is the single JSON result object
//! `{"correct", "attempted", "failed", "metrics"}`.

/// The per-layer metric map: for each metric its unit, the end-to-end
/// metric it should move and the workloads that measure it. Embedded so
/// a traced run emits exactly the metrics the map explains.
const METRIC_MAP: &str = include_str!("../metric_map.json");

pub struct MapEntry {
    pub name: String,
    pub unit: String,
    pub workloads: Vec<String>,
}

/// Value of `"key": "..."` on one line of the map.
fn string_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = &line[line.find(&format!("\"{key}\": \""))? + key.len() + 5..];
    Some(&rest[..rest.find('"')?])
}

/// Per-layer entries of the map, in file order. Each entry sits on one
/// line: `"name": {"unit": ..., "moves": ..., "workloads": [...], ...}`.
pub fn metric_map() -> Vec<MapEntry> {
    METRIC_MAP
        .lines()
        .map(str::trim)
        .filter(|l| l.contains("\"moves\": "))
        .map(|l| {
            let name = l[1..].split('"').next().unwrap_or_default().to_string();
            let unit = string_field(l, "unit").unwrap_or_default().to_string();
            let list = l
                .split_once("\"workloads\": [")
                .and_then(|(_, r)| r.split_once(']'))
                .map_or("", |(w, _)| w);
            let workloads = list
                .split(',')
                .map(|w| w.trim().trim_matches('"').to_string())
                .filter(|w| !w.is_empty())
                .collect();
            MapEntry {
                name,
                unit,
                workloads,
            }
        })
        .collect()
}

pub struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
}

impl Report {
    pub fn new() -> Self {
        Report {
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        }
    }

    /// Record one correctness check; a failure is one failed operation.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            println!("CHECK FAILED: {what}");
        }
    }

    /// Record `total` checks of one kind, `passed` of which held.
    pub fn checks(&mut self, what: &str, passed: u64, total: u64) {
        self.attempted += total;
        if passed < total {
            self.failed += total - passed;
            println!("CHECK FAILED: {what}: {} of {total} failed", total - passed);
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    /// Finish an untraced run, whose metrics must be exactly `expected`.
    pub fn finish(mut self, expected: &[&str]) -> bool {
        let names: Vec<&str> = self.metrics.iter().map(|m| m.0.as_str()).collect();
        let same = names.len() == expected.len() && expected.iter().all(|e| names.contains(e));
        self.check(&format!("metrics {names:?} are the end-to-end set"), same);
        self.print()
    }

    /// Finish a traced run: order the metrics as the map does, report a
    /// layer the workload leaves idle as 0, and check that every metric
    /// the map lists for this workload was measured with the map's unit.
    pub fn finish_trace(mut self, workload: &str) -> bool {
        let mut ordered = Vec::new();
        for e in metric_map() {
            let listed = e.workloads.iter().any(|w| w == workload);
            match self.metrics.iter().position(|m| m.0 == e.name) {
                Some(i) => {
                    let m = self.metrics.remove(i);
                    self.check(&format!("{} is mapped to {workload}", e.name), listed);
                    self.check(&format!("{} has unit {}", e.name, e.unit), m.2 == e.unit);
                    ordered.push(m);
                }
                None => {
                    self.check(&format!("{} measured on {workload}", e.name), !listed);
                    ordered.push((e.name, 0.0, e.unit));
                }
            }
        }
        let unmapped: Vec<String> = self.metrics.iter().map(|m| m.0.clone()).collect();
        self.check(
            &format!("no unmapped metrics ({unmapped:?})"),
            unmapped.is_empty(),
        );
        self.metrics = ordered;
        self.print()
    }

    /// Print the metric table and the JSON result line; returns whether
    /// every check passed.
    fn print(mut self) -> bool {
        for (name, v, _) in self.metrics.clone() {
            self.check(&format!("{name} is finite"), v.is_finite());
        }
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "error_rate = {} / {} = {error_rate}",
            self.failed, self.attempted
        );
        let mut body = Vec::new();
        for (name, v, unit) in &self.metrics {
            println!("{name:<34} {v:>18.6} {unit}");
            let v = if v.is_finite() { *v } else { 0.0 };
            body.push(format!(
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            body.join(", ")
        );
        self.failed == 0
    }
}
