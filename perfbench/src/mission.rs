//! The mission workloads and the traced mission replay.
//!
//! * `storm-ensemble` — `run_ensemble` (parallel, telemetry disabled) over
//!   12 h accelerated-storm missions on the nine-FPGA payload. The
//!   event-driven kernel executes about one round per upset and jumps over
//!   the rest, so `Payload::scrub_board` dominates; any cost added to the
//!   disabled-telemetry path shows here.
//! * `chaos-forensics` — the E13 chaos anchor flown by `run_mission` with a
//!   recording sink. Latched SEFI port faults keep rounds active and drive
//!   the escalation ladder; the dump then goes through the forensics chain.
//!
//! The traced run drives the public `MissionKernel` phases in
//! `run_mission`'s order, timing each, and is rejected unless its
//! `MissionStats` equal the untraced `run_mission` bit for bit.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use cibola::designs::PaperDesign;
use cibola::prelude::*;
use cibola::radiation::sefi::{SefiMix, SefiRates};
use cibola::radiation::SefiConfig;
use cibola_forensics::{detect_anomalies, parse_jsonl, reconstruct, MissionForensics};
use cibola_scrub::ensemble::member_seed;
use cibola_scrub::{EnsembleResult, EnsembleStats, MissionKernel, MissionStats};
use rayon::prelude::*;

use crate::report::Report;
use crate::{
    counter, derive_seed, fnv64, median, peak_rss_mb, pool_threads, process_cpu_s, repeat_for,
    reset_peak_rss, secs, thread_cpu_s, Args, DEFAULT_SEED, SETUP_BURST_S,
};

type SensitivityMap = HashMap<(usize, usize), HashSet<usize>>;

const STORM_HOURS: u64 = 12;
/// Members per ensemble: few enough that a run holds several ensembles to
/// take the median over. The rate is per CPU second, so how evenly the
/// members fall on the pool threads does not move it.
const STORM_MEMBERS: usize = 6;
const MIN_ENSEMBLES: usize = 3;
/// Simulated length of one chaos flight: a third of the E13 smoke-tier
/// anchor, with its flare and reconfiguration schedule scaled alike. A
/// latched SEFI can keep every round of a flight active, so flight cost is
/// heavy-tailed; at this length a run flies about fifty flights and no few
/// of them decide its figure.
const CHAOS_SECS: u64 = 150;
/// Chaos flights per repetition. The pool hands each flight to whichever
/// thread is free, so one long flight does not leave the others idle.
const CHAOS_BATCH: usize = 4;
/// Executed scan rounds from which a flight's CPU time is mostly rounds
/// rather than its fixed set-up and reconfiguration work.
const LONG_FLIGHT_ROUNDS: f64 = 1000.0;
/// Long flights a run needs before it may stop.
const MIN_LONG_FLIGHTS: usize = 5;
/// Host seconds the traced chaos run spends repeating the forensics chain.
const FORENSICS_BUDGET_S: f64 = 3.0;

/// Per-member `MissionStats` digests of the first storm ensemble at
/// `DEFAULT_SEED`.
const PINNED_STORM_DIGESTS: [u64; STORM_MEMBERS] = [
    0xf173_3b09_bddd_6178,
    0xcd6c_1dc8_922a_c6f8,
    0x9aa3_544b_8687_bf8a,
    0x71e2_26c3_f498_a1ae,
    0xa7b1_3cab_7aa5_0806,
    0x6e5e_f633_6b8f_a184,
];
/// `MissionStats` digest of the first chaos flight at `DEFAULT_SEED`.
const PINNED_CHAOS_DIGEST: u64 = 0x7353_4833_0ba1_44af;

fn stats_digest(s: &MissionStats) -> u64 {
    fnv64(format!("{s:?}").as_bytes())
}

/// One implement plus payload construction, timed: the implementation
/// and the two stage times in CPU seconds.
fn build(geom: &Geometry, netlist: &Netlist) -> (Implementation, [f64; 2]) {
    let t0 = thread_cpu_s();
    let imp = implement(netlist, geom).expect("counter/adder fits the tiny geometry");
    let t1 = thread_cpu_s();
    std::hint::black_box(payload(geom, &imp, Telemetry::disabled()));
    (imp, [t1 - t0, thread_cpu_s() - t1])
}

/// The 4-bit counter/adder implementation every payload carries, and the
/// set-up timings taken so far.
struct Setup {
    geom: Geometry,
    netlist: Netlist,
    imp: Implementation,
    implement_s: Vec<f64>,
    payload_s: Vec<f64>,
}

impl Setup {
    fn new() -> Self {
        let geom = Geometry::tiny();
        let netlist = PaperDesign::CounterAdder { width: 4 }.netlist();
        let (imp, t) = build(&geom, &netlist);
        let mut s = Setup {
            geom,
            netlist,
            imp,
            implement_s: vec![t[0]],
            payload_s: vec![t[1]],
        };
        s.resample();
        s
    }

    /// Time further set-ups for `SETUP_BURST_S`.
    fn resample(&mut self) {
        repeat_for(SETUP_BURST_S, 1, |_| {
            let (_, t) = build(&self.geom, &self.netlist);
            self.implement_s.push(t[0]);
            self.payload_s.push(t[1]);
        });
    }

    fn total_s(&self) -> Vec<f64> {
        self.implement_s
            .iter()
            .zip(&self.payload_s)
            .map(|(a, b)| a + b)
            .collect()
    }

    fn payload(&self, telemetry: Telemetry) -> Payload {
        payload(&self.geom, &self.imp, telemetry)
    }
}

/// The nine-FPGA payload: three boards of three devices, one design.
fn payload(geom: &Geometry, imp: &Implementation, telemetry: Telemetry) -> Payload {
    let mut p = Payload::new().with_telemetry(telemetry);
    for board in 0..3 {
        for _ in 0..3 {
            p.load_design(board, "ctr", geom, &imp.bitstream);
        }
    }
    p
}

fn storm_config() -> MissionConfig {
    MissionConfig {
        duration: SimDuration::from_secs(STORM_HOURS * 3600),
        rates: OrbitRates {
            quiet_per_hour: 120.0,
            flare_per_hour: 960.0,
            devices: 9,
        },
        flare: Some((SimTime::from_secs(3 * 3600), SimTime::from_secs(4 * 3600))),
        periodic_full_reconfig: Some(SimDuration::from_secs(3600)),
        sefi: None,
        ..Default::default()
    }
}

/// The E13 chaos anchor: hot upset and SEFI rates, a flare over the
/// second quarter, a full reconfiguration at half time.
fn chaos_config(seed: u64) -> MissionConfig {
    MissionConfig {
        duration: SimDuration::from_secs(CHAOS_SECS),
        rates: OrbitRates {
            quiet_per_hour: 400.0,
            flare_per_hour: 3200.0,
            devices: 9,
        },
        flare: Some((
            SimTime::from_secs(CHAOS_SECS / 4),
            SimTime::from_secs(CHAOS_SECS / 2),
        )),
        periodic_full_reconfig: Some(SimDuration::from_secs(CHAOS_SECS / 2)),
        sefi: Some(SefiConfig {
            rates: SefiRates {
                quiet_per_hour: 40.0,
                flare_per_hour: 320.0,
                devices: 9,
            },
            mix: SefiMix::default(),
        }),
        seed,
        ..Default::default()
    }
}

/// The E13 sensitivity map: one fully sensitive position, one with an
/// empty map, the rest conservative.
fn chaos_sensitivity() -> SensitivityMap {
    let mut sens = HashMap::new();
    sens.insert((0, 0), (0..64usize).collect::<HashSet<_>>());
    sens.insert((1, 2), HashSet::new());
    sens
}

/// Host time per `MissionKernel` phase, summed over replayed missions.
#[derive(Default)]
struct Phases {
    kernel_new_s: f64,
    skip_s: f64,
    land_upsets_s: f64,
    land_sefis_s: f64,
    scrub_board_s: f64,
    ledger_s: f64,
    refresh_s: f64,
    finish_s: f64,
    scrub_board_calls: u64,
    rounds_executed: u64,
    rounds_skipped: u64,
    jumps: u64,
    wall_s: f64,
}

impl Phases {
    fn sum(&self) -> f64 {
        self.kernel_new_s
            + self.skip_s
            + self.land_upsets_s
            + self.land_sefis_s
            + self.scrub_board_s
            + self.ledger_s
            + self.refresh_s
            + self.finish_s
    }
}

/// `run_mission`, phase by phase through the public kernel seam, with a
/// timer around each phase.
fn replay_mission(
    payload: &mut Payload,
    cfg: &MissionConfig,
    sens: &SensitivityMap,
    ph: &mut Phases,
) -> MissionStats {
    let wall = Instant::now();
    let mut t = Instant::now();
    let mut k = MissionKernel::new(payload, cfg, sens);
    ph.kernel_new_s += secs(t);
    let round_ns = k.round().as_nanos();
    let total_rounds = k.end().as_nanos().div_ceil(round_ns);
    let mut dirty = Vec::new();
    let mut r: u64 = 0;
    while r < total_rounds {
        t = Instant::now();
        let nr = k.next_active_round(r, round_ns).min(total_rounds);
        if nr > r {
            k.note_rounds_skipped(r, nr, round_ns);
            ph.skip_s += secs(t);
            ph.rounds_skipped += nr - r;
            ph.jumps += 1;
            r = nr;
            continue;
        }
        ph.skip_s += secs(t);
        let now = SimTime(r * round_ns);
        let round_end = SimTime((r + 1) * round_ns);
        t = Instant::now();
        k.land_upsets(round_end);
        ph.land_upsets_s += secs(t);
        t = Instant::now();
        k.land_sefis(round_end);
        ph.land_sefis_s += secs(t);
        for bi in 0..k.live_boards().len() {
            let b = k.live_boards()[bi];
            t = Instant::now();
            k.fill_board_dirty(b, &mut dirty);
            let out = k.payload_mut().scrub_board(b, now, &dirty);
            ph.scrub_board_s += secs(t);
            ph.scrub_board_calls += 1;
            t = Instant::now();
            k.apply_board_outcome(b, &out, round_end);
            ph.ledger_s += secs(t);
        }
        t = Instant::now();
        k.settle_dirty();
        ph.ledger_s += secs(t);
        t = Instant::now();
        k.periodic_refresh(round_end);
        ph.refresh_s += secs(t);
        t = Instant::now();
        k.add_scrub_cycles(1);
        ph.ledger_s += secs(t);
        ph.rounds_executed += 1;
        r += 1;
    }
    t = Instant::now();
    let stats = k.finish();
    ph.finish_s += secs(t);
    ph.wall_s += secs(wall);
    stats
}

/// Nearest-rank percentile of an ascending slice, as the ensemble uses.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The ensemble aggregate, re-derived from the member runs.
fn aggregate(runs: &[MissionStats]) -> EnsembleStats {
    let mut s = EnsembleStats {
        missions: runs.len(),
        ..Default::default()
    };
    if runs.is_empty() {
        return s;
    }
    let mut avail: Vec<f64> = runs.iter().map(|r| r.availability).collect();
    avail.sort_by(f64::total_cmp);
    s.availability_mean = avail.iter().sum::<f64>() / avail.len() as f64;
    s.availability_min = avail[0];
    s.availability_p05 = percentile(&avail, 5.0);
    s.availability_p50 = percentile(&avail, 50.0);
    s.availability_p95 = percentile(&avail, 95.0);
    let mut lat: Vec<f64> = runs
        .iter()
        .filter(|r| r.detect_latency_max_ms > 0.0)
        .map(|r| r.detect_latency_mean_ms)
        .collect();
    lat.sort_by(f64::total_cmp);
    if !lat.is_empty() {
        s.detect_latency_mean_ms = lat.iter().sum::<f64>() / lat.len() as f64;
        s.detect_latency_p95_ms = percentile(&lat, 95.0);
    }
    s.detect_latency_max_ms = runs
        .iter()
        .map(|r| r.detect_latency_max_ms)
        .fold(0.0, f64::max);
    for r in runs {
        s.upsets_total += r.upsets_total;
        s.frames_repaired += r.frames_repaired;
        s.full_reconfigs += r.full_reconfigs;
        s.sefis_injected += r.sefis_injected;
        s.ladder.merge(&r.ladder);
    }
    s
}

fn storm_ensemble(base_seed: u64) -> EnsembleConfig {
    EnsembleConfig {
        mission: storm_config(),
        base_seed,
        missions: STORM_MEMBERS,
        parallel: true,
        telemetry: Telemetry::disabled(),
    }
}

/// Seed-independent ensemble checks: member seeds and the aggregate.
fn check_ensemble(cfg: &EnsembleConfig, res: &EnsembleResult, rep: &mut Report) {
    let seeds: Vec<u64> = (0..cfg.missions)
        .map(|i| member_seed(cfg.base_seed, i))
        .collect();
    rep.check("members fly member_seed(base, i)", res.seeds == seeds);
    rep.check(
        "aggregate recomputed from the member runs equals EnsembleResult.stats",
        res.runs.len() == cfg.missions && aggregate(&res.runs) == res.stats,
    );
}

pub fn run_storm(args: &Args, rep: &mut Report) {
    let mut s = Setup::new();
    let sens = SensitivityMap::new();
    let base = derive_seed(args.seed, 2);
    println!(
        "storm-ensemble: {STORM_MEMBERS} x {STORM_HOURS} h storm missions, nine-FPGA payload, {} pool threads, base seed {base:#x}",
        pool_threads()
    );
    if args.trace {
        storm_trace(args, &s, &sens, base, rep);
        return;
    }

    // Each repetition flies a fresh ensemble seed, so a run samples many
    // members and ensembles rather than replaying one; the median over
    // repetitions discounts the ones a busy host slowed.
    let (mut wall, mut cpu, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    repeat_for(args.seconds, MIN_ENSEMBLES, |i| {
        let cfg = storm_ensemble(derive_seed(base, i as u64));
        reset_peak_rss();
        let (t, c) = (Instant::now(), process_cpu_s());
        let res = run_ensemble(&cfg, &sens, |_| s.payload(Telemetry::disabled()));
        cpu.push(process_cpu_s() - c);
        wall.push(secs(t));
        rss.push(peak_rss_mb());
        s.resample();
        check_ensemble(&cfg, &res, rep);
        if i == 0 {
            check_storm_digests(args, &res, rep);
        }
    });
    let hours = (STORM_MEMBERS as u64 * STORM_HOURS) as f64;
    let per = |times: &[f64]| median(&times.iter().map(|dt| hours / dt).collect::<Vec<_>>());
    let rate = per(&cpu);
    println!("ensemble wall seconds {wall:.3?}");
    println!("ensemble CPU seconds {cpu:.3?}");
    println!(
        "mission_sim_hours_per_s = {:.3} sim-h per wall second, {rate:.3} per CPU second (medians of {} ensembles of {STORM_MEMBERS} x {STORM_HOURS} h)",
        per(&wall),
        wall.len()
    );
    rep.metric("throughput_per_cpu_s", rate, "1/cpu_s");
    rep.metric("setup_s", median(&s.total_s()), "s");
    rep.metric("peak_rss_mb", median(&rss), "MB");
}

fn check_storm_digests(args: &Args, res: &EnsembleResult, rep: &mut Report) {
    let digests: Vec<u64> = res.runs.iter().map(stats_digest).collect();
    println!("member digests {digests:#018x?}");
    if args.seed == DEFAULT_SEED {
        for (i, (d, p)) in digests.iter().zip(PINNED_STORM_DIGESTS).enumerate() {
            rep.check(
                &format!("member {i} stats digest {d:#018x} == pinned {p:#018x}"),
                *d == p,
            );
        }
    }
}

fn storm_trace(args: &Args, s: &Setup, sens: &SensitivityMap, base: u64, rep: &mut Report) {
    let cfg = storm_ensemble(derive_seed(base, 0));
    let t = Instant::now();
    let res = run_ensemble(&cfg, sens, |_| s.payload(Telemetry::disabled()));
    let ensemble_wall = secs(t);
    check_ensemble(&cfg, &res, rep);
    check_storm_digests(args, &res, rep);

    // Each member flown alone, untraced then traced.
    let mut member_s = Vec::new();
    let mut ph = Phases::default();
    let mut stats = Vec::new();
    for (i, &seed) in res.seeds.iter().enumerate() {
        let mission = MissionConfig {
            seed,
            ..cfg.mission.clone()
        };
        let mut p = s.payload(Telemetry::disabled());
        let t = Instant::now();
        let plain = run_mission(&mut p, &mission, sens);
        member_s.push(secs(t));
        let mut p = s.payload(Telemetry::disabled());
        let traced = replay_mission(&mut p, &mission, sens, &mut ph);
        rep.check(
            &format!("member {i}: run_mission alone equals the ensemble run"),
            plain == res.runs[i],
        );
        rep.check(
            &format!("member {i}: traced replay equals run_mission"),
            traced == plain,
        );
        stats.push(plain);
    }
    let untraced: f64 = member_s.iter().sum();
    println!(
        "ensemble wall {ensemble_wall:.3} s; members alone {untraced:.3} s; replay {:.3} s",
        ph.wall_s
    );

    setup_metrics(s, rep);
    phase_metrics(&ph, rep);
    rep.metric("scrub.member_s_p50", median(&member_s), "s");
    rep.metric(
        "scrub.member_s_max",
        member_s.iter().copied().fold(0.0, f64::max),
        "s",
    );
    rep.metric(
        "scrub.ensemble_efficiency",
        untraced / (ensemble_wall * pool_threads() as f64),
        "ratio",
    );
    ladder_metrics(&stats, rep);
    rep.metric("trace.coverage", ph.sum() / ph.wall_s, "ratio");
    rep.metric("trace.overhead_s", ph.wall_s - untraced, "s");
}

fn setup_metrics(s: &Setup, rep: &mut Report) {
    rep.metric("netlist.implement_s", median(&s.implement_s), "s");
    rep.metric("scrub.payload_build_s", median(&s.payload_s), "s");
}

/// Phase metrics common to both mission workloads.
fn phase_metrics(ph: &Phases, rep: &mut Report) {
    rep.metric("scrub.kernel_new_s", ph.kernel_new_s, "s");
    rep.metric("scrub.scrub_board_s", ph.scrub_board_s, "s");
    rep.metric(
        "scrub.scrub_board_calls",
        ph.scrub_board_calls as f64,
        "count",
    );
    rep.metric(
        "scrub.scrub_board_us",
        ph.scrub_board_s * 1e6 / ph.scrub_board_calls.max(1) as f64,
        "us",
    );
    rep.metric("scrub.ledger_s", ph.ledger_s, "s");
    rep.metric("scrub.refresh_s", ph.refresh_s, "s");
    rep.metric("scrub.skip_s", ph.skip_s, "s");
    rep.metric("radiation.land_upsets_s", ph.land_upsets_s, "s");
    rep.metric("radiation.land_sefis_s", ph.land_sefis_s, "s");
    rep.metric("scrub.finish_s", ph.finish_s, "s");
    rep.metric("scrub.rounds_executed", ph.rounds_executed as f64, "count");
    rep.metric("scrub.rounds_skipped", ph.rounds_skipped as f64, "count");
    rep.metric("scrub.round_jumps", ph.jumps as f64, "count");
    rep.metric(
        "scrub.active_round_ratio",
        ph.rounds_executed as f64 / (ph.rounds_executed + ph.rounds_skipped).max(1) as f64,
        "ratio",
    );
}

/// Repair and escalation-ladder counters, summed over missions.
fn ladder_metrics(stats: &[MissionStats], rep: &mut Report) {
    let sum = |f: fn(&MissionStats) -> usize| stats.iter().map(f).sum::<usize>() as f64;
    let repaired = sum(|s| s.frames_repaired);
    let retries = sum(|s| s.ladder.repair_retries);
    rep.metric("scrub.frames_repaired", repaired, "count");
    rep.metric("scrub.repair_retries", retries, "count");
    rep.metric(
        "scrub.verify_failures",
        sum(|s| s.ladder.verify_failures),
        "count",
    );
    rep.metric("scrub.port_resets", sum(|s| s.ladder.port_resets), "count");
    rep.metric("scrub.full_reconfigs", sum(|s| s.full_reconfigs), "count");
    rep.metric("scrub.retry_ratio", retries / repaired.max(1.0), "ratio");
}

/// One chaos flight: stats, wall seconds and the flying thread's CPU
/// seconds.
fn chaos_flight(
    s: &Setup,
    cfg: &MissionConfig,
    sens: &SensitivityMap,
    tele: Telemetry,
) -> (MissionStats, f64, f64) {
    let mut p = s.payload(tele);
    let (t, c) = (Instant::now(), thread_cpu_s());
    let stats = run_mission(&mut p, cfg, sens);
    (stats, secs(t), thread_cpu_s() - c)
}

/// The forensics chain over one dump must reconstruct and reconcile.
fn check_forensics(dump: &str, what: &str, rep: &mut Report) -> Option<MissionForensics> {
    match MissionForensics::from_jsonl(dump) {
        Ok(report) => {
            let mismatches = report.reconcile();
            rep.check(
                &format!("{what}: reconcile() finds no mismatches ({mismatches:?})"),
                mismatches.is_empty(),
            );
            Some(report)
        }
        Err(e) => {
            rep.check(&format!("{what}: dump reconstructs ({e:?})"), false);
            None
        }
    }
}

pub fn run_chaos(args: &Args, rep: &mut Report) {
    let mut s = Setup::new();
    let sens = chaos_sensitivity();
    let mission_seed = |i: usize| derive_seed(derive_seed(args.seed, 3), i as u64);
    println!(
        "chaos-forensics: E13 chaos anchor, {CHAOS_SECS} s simulated per flight, nine-FPGA payload"
    );
    if args.trace {
        let seed = long_flight_seed(args, &s, &sens, mission_seed, rep);
        chaos_trace(&s, &sens, seed, rep);
        return;
    }

    // Each repetition flies the next `CHAOS_BATCH` mission seeds on the
    // rayon pool, so the figure samples every CPU rather than whichever
    // one the main thread sits on; every dump must reconcile. Flight cost
    // is dominated by how long latched SEFIs keep rounds active, which
    // varies by two orders of magnitude between seeds, so the rate is
    // taken per executed scan round: the median over the run's long
    // flights of each one's executed rounds per CPU second. A few flights
    // run ten times longer than the rest, so neither summing nor weighting
    // by rounds would let the other flights count.
    let (mut wall, mut cpu, mut executed, mut rss) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut first = None;
    let long_flights = |executed: &[f64]| {
        executed
            .iter()
            .filter(|&&r| r >= LONG_FLIGHT_ROUNDS)
            .count()
    };
    let start = Instant::now();
    let mut i = 0;
    while secs(start) < args.seconds || long_flights(&executed) < MIN_LONG_FLIGHTS {
        let seeds: Vec<u64> = (i * CHAOS_BATCH..(i + 1) * CHAOS_BATCH)
            .map(mission_seed)
            .collect();
        reset_peak_rss();
        let flights: Vec<(MissionStats, f64, f64, Telemetry)> = seeds
            .par_iter()
            .map(|&seed| {
                let tele = Telemetry::recording();
                let (stats, dt, dc) = chaos_flight(&s, &chaos_config(seed), &sens, tele.clone());
                (stats, dt, dc, tele)
            })
            .collect();
        for (j, (stats, dt, dc, tele)) in flights.into_iter().enumerate() {
            wall.push(dt);
            cpu.push(dc);
            executed.push(executed_rounds(&stats, &tele));
            check_forensics(
                &tele.dump_jsonl(),
                &format!("flight {}", i * CHAOS_BATCH + j),
                rep,
            );
            first.get_or_insert(stats);
        }
        rss.push(peak_rss_mb());
        s.resample();
        i += 1;
    }
    let first = first.expect("at least one flight");
    let (disabled, ..) = chaos_flight(
        &s,
        &chaos_config(mission_seed(0)),
        &sens,
        Telemetry::disabled(),
    );
    rep.check(
        "recording flight's stats equal the disabled flight's",
        first == disabled,
    );
    check_chaos_digest(args, &first, rep);

    let host: f64 = wall.iter().sum();
    let rounds: f64 = executed.iter().sum();
    let rates: Vec<f64> = executed
        .iter()
        .zip(&cpu)
        .filter(|(&r, _)| r >= LONG_FLIGHT_ROUNDS)
        .map(|(r, c)| r / c)
        .collect();
    let rate = median(&rates);
    println!("flight wall seconds {wall:.3?}");
    println!("flight CPU seconds {cpu:.3?}");
    println!("flight executed rounds {executed:?}");
    println!(
        "mission_sim_hours_per_s = {:.4} sim-h/s; executed rounds per wall second = {:.1}; median executed rounds per CPU second of the {} flights with at least {LONG_FLIGHT_ROUNDS} = {rate:.1} ({} recording flights of {CHAOS_SECS} s)",
        wall.len() as f64 * CHAOS_SECS as f64 / 3600.0 / host,
        rounds / host,
        rates.len(),
        wall.len()
    );
    rep.metric("throughput_per_cpu_s", rate, "1/cpu_s");
    rep.metric("setup_s", median(&s.total_s()), "s");
    rep.metric("peak_rss_mb", median(&rss), "MB");
}

fn check_chaos_digest(args: &Args, stats: &MissionStats, rep: &mut Report) {
    let d = stats_digest(stats);
    println!("flight 0 stats digest {d:#018x}");
    if args.seed == DEFAULT_SEED {
        rep.check(
            &format!("flight 0 stats digest {d:#018x} == pinned {PINNED_CHAOS_DIGEST:#018x}"),
            d == PINNED_CHAOS_DIGEST,
        );
    }
}

/// Scan rounds a recorded flight executed rather than jumped over.
fn executed_rounds(stats: &MissionStats, tele: &Telemetry) -> f64 {
    stats.scrub_cycles as f64 - counter(tele, "mission.rounds_skipped").unwrap_or(0.0)
}

/// The mission seed of the run's first long flight, which the traced
/// chaos run replays: most flights end without a latched SEFI, and those
/// leave the escalation ladder idle. Flight 0 is checked against its
/// pinned digest on the way.
fn long_flight_seed(
    args: &Args,
    s: &Setup,
    sens: &SensitivityMap,
    mission_seed: impl Fn(usize) -> u64,
    rep: &mut Report,
) -> u64 {
    let mut longest = (0.0, mission_seed(0));
    for i in 0..64 {
        let tele = Telemetry::recording();
        let (stats, ..) = chaos_flight(s, &chaos_config(mission_seed(i)), sens, tele.clone());
        if i == 0 {
            check_chaos_digest(args, &stats, rep);
        }
        let rounds = executed_rounds(&stats, &tele);
        if rounds >= LONG_FLIGHT_ROUNDS {
            println!("traced flight: flight {i}, {rounds} executed rounds");
            return mission_seed(i);
        }
        if rounds > longest.0 {
            longest = (rounds, mission_seed(i));
        }
    }
    longest.1
}

fn chaos_trace(s: &Setup, sens: &SensitivityMap, seed: u64, rep: &mut Report) {
    let cfg = chaos_config(seed);
    // Disabled and recording flights, alternated, for the recording cost.
    let (mut off_s, mut on_s) = (Vec::new(), Vec::new());
    let mut recorded = None;
    for _ in 0..2 {
        let (off, dt, _) = chaos_flight(s, &cfg, sens, Telemetry::disabled());
        off_s.push(dt);
        let tele = Telemetry::recording();
        let (on, dt, _) = chaos_flight(s, &cfg, sens, tele.clone());
        on_s.push(dt);
        rep.check(
            "recording flight's stats equal the disabled flight's",
            on == off,
        );
        recorded = Some((on, tele));
    }
    let (stats, tele) = recorded.expect("two flights flown");

    let mut ph = Phases::default();
    let replay_tele = Telemetry::recording();
    let mut p = s.payload(replay_tele.clone());
    let traced = replay_mission(&mut p, &cfg, sens, &mut ph);
    rep.check("traced replay equals run_mission", traced == stats);

    let mut dump_s = Vec::new();
    let mut dump = String::new();
    for _ in 0..5 {
        let t = Instant::now();
        dump = tele.dump_jsonl();
        dump_s.push(secs(t));
    }
    rep.check(
        "traced replay's event stream equals run_mission's",
        replay_tele.dump_jsonl() == dump,
    );
    let events = tele.events().len();

    // The forensics chain, stage by stage, repeated for stable medians.
    let report = check_forensics(&dump, "recording flight", rep);
    let lifecycles = report.as_ref().map_or(0, |r| r.lifecycles.len());
    let mut st: [Vec<f64>; 8] = Default::default();
    let chain = Instant::now();
    let mut passes = 0;
    while passes < 5 || secs(chain) < FORENSICS_BUDGET_S {
        let t = Instant::now();
        let Ok(raw) = parse_jsonl(&dump) else { break };
        st[0].push(secs(t));
        let t = Instant::now();
        let ok = reconstruct(&raw).is_ok();
        st[1].push(secs(t));
        let t = Instant::now();
        let Ok(report) = MissionForensics::from_raw(&raw) else {
            break;
        };
        st[2].push(secs(t));
        let t = Instant::now();
        let clean = report.reconcile().is_empty();
        st[3].push(secs(t));
        let t = Instant::now();
        std::hint::black_box(detect_anomalies(&raw, &report));
        st[4].push(secs(t));
        let t = Instant::now();
        std::hint::black_box((report.render_text(), report.to_json()));
        st[5].push(secs(t));
        let t = Instant::now();
        let direct = MissionForensics::from_jsonl(&dump).map(|r| r.reconcile().is_empty());
        st[6].push(secs(t));
        if !(ok && clean && direct == Ok(true)) {
            break;
        }
        passes += 1;
    }
    rep.check(
        "every forensics pass reconstructs and reconciles",
        passes >= 5,
    );
    let m = |i: usize| median(&st[i]);
    let chain_s = m(0) + m(2) + m(3) + m(4) + m(5);
    println!(
        "{events} events, {} dump bytes, {lifecycles} lifecycles; {passes} forensics passes of {:.2} ms",
        dump.len(),
        chain_s * 1e3
    );

    setup_metrics(s, rep);
    phase_metrics(&ph, rep);
    ladder_metrics(std::slice::from_ref(&stats), rep);
    rep.metric(
        "telemetry.record_overhead_s",
        median(&on_s) - median(&off_s),
        "s",
    );
    rep.metric("telemetry.events", events as f64, "count");
    rep.metric("telemetry.dump_bytes", dump.len() as f64, "bytes");
    rep.metric("telemetry.dump_s", median(&dump_s), "s");
    rep.metric("forensics.parse_s", m(0), "s");
    rep.metric("forensics.reconstruct_s", m(1), "s");
    rep.metric("forensics.report_s", m(2), "s");
    rep.metric("forensics.reconcile_s", m(3), "s");
    rep.metric("forensics.anomaly_s", m(4), "s");
    rep.metric("forensics.render_s", m(5), "s");
    rep.metric("forensics.lifecycles", lifecycles as f64, "count");
    rep.metric("forensics.events_per_s", events as f64 / m(6), "1/s");
    rep.metric("trace.coverage", ph.sum() / ph.wall_s, "ratio");
    rep.metric("trace.overhead_s", ph.wall_s - median(&on_s), "s");
}
