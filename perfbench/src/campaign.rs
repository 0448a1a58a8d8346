//! `campaign-mult8`: the paper's Table I use case — an exhaustive
//! active-closure SEU campaign on `MULT 8` over the quarter geometry, in
//! its deployed (parallel) configuration. The inject and arch layers do
//! all the work; the mission layers are idle.
//!
//! The traced run replays `run_campaign_wide`'s serial pipeline through
//! the public arch/inject API — closure, `WideEngine::new`,
//! `DeltaMap::build`, `DeltaMap::classify` per bit, the structural pass
//! (`same_topology`, then the scalar observe window where the topology
//! changed) and the 64-lane batches on `WideEngine::step` — and is
//! accepted only if it reproduces the campaign's sensitive set and
//! partition counters exactly.

use std::collections::HashMap;
use std::time::Instant;

use cibola::designs::PaperDesign;
use cibola::prelude::*;
use cibola_arch::{same_topology, DeltaClass, DeltaMap, LaneUpset, WideEngine, LANES};
use cibola_inject::{inject_one, SensitiveBit};

use crate::report::Report;
use crate::{
    counter, derive_seed, fnv64, median, peak_rss_mb, process_cpu_s, repeat_for, reset_peak_rss,
    secs, thread_cpu_s, Args, DEFAULT_SEED, SETUP_BURST_S,
};

/// Testbed trace length; with the default 64-cycle observe window the
/// persistence window is cycles 64..96.
const TRACE_CYCLES: usize = 96;
const MIN_CAMPAIGNS: usize = 3;
/// Alternated serial-campaign / traced-replay pairs in a traced run.
const TRACE_REPS: usize = 3;
/// Every `STRIDE`-th closure bit is re-run through scalar `inject_one`.
const STRIDE: usize = 97;
/// Active-closure size of `MULT 8` on the quarter geometry. It depends on
/// the bitstream only, not on the stimulus seed.
const CLOSURE_BITS: usize = 77_229;
/// `equivalence_key` digest of the campaign at `DEFAULT_SEED`.
const PINNED_KEY_DIGEST: u64 = 0x090b_a0c9_27cc_327b;

type Key = (Vec<(usize, u32, u128, bool)>, [usize; 5], bool, u64);

fn key_digest(key: &Key) -> u64 {
    fnv64(format!("{key:?}").as_bytes())
}

/// One implement plus `Testbed::new`, timed: the testbed and the two
/// stage times in CPU seconds.
fn build(geom: &Geometry, netlist: &Netlist, stim_seed: u64) -> (Testbed, [f64; 2]) {
    let t0 = thread_cpu_s();
    let imp = implement(netlist, geom).expect("MULT 8 fits the quarter geometry");
    let t1 = thread_cpu_s();
    let tb = Testbed::new(&imp, stim_seed, TRACE_CYCLES);
    (tb, [t1 - t0, thread_cpu_s() - t1])
}

/// The measured testbed and the set-up timings taken so far.
struct Setup {
    geom: Geometry,
    netlist: Netlist,
    stim_seed: u64,
    tb: Testbed,
    implement_s: Vec<f64>,
    testbed_s: Vec<f64>,
}

impl Setup {
    fn new(stim_seed: u64) -> Self {
        let geom = Geometry::quarter();
        let netlist = PaperDesign::Mult { width: 8 }.netlist();
        let (tb, t) = build(&geom, &netlist, stim_seed);
        let mut s = Setup {
            geom,
            netlist,
            stim_seed,
            tb,
            implement_s: vec![t[0]],
            testbed_s: vec![t[1]],
        };
        s.resample();
        s
    }

    /// Time further set-ups for `SETUP_BURST_S`, dropping their testbeds.
    fn resample(&mut self) {
        repeat_for(SETUP_BURST_S, 1, |_| {
            let (_, t) = build(&self.geom, &self.netlist, self.stim_seed);
            self.implement_s.push(t[0]);
            self.testbed_s.push(t[1]);
        });
    }

    fn total_s(&self) -> Vec<f64> {
        self.implement_s
            .iter()
            .zip(&self.testbed_s)
            .map(|(a, b)| a + b)
            .collect()
    }
}

fn config(parallel: bool, telemetry: Telemetry) -> CampaignConfig {
    CampaignConfig {
        selection: BitSelection::ActiveClosure,
        parallel,
        telemetry,
        ..Default::default()
    }
}

fn same_bit(a: Option<&SensitiveBit>, b: Option<&SensitiveBit>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(a), Some(b)) => {
            (a.bit, a.first_error_cycle, a.output_mask, a.persistent)
                == (b.bit, b.first_error_cycle, b.output_mask, b.persistent)
        }
        _ => false,
    }
}

/// The correctness gate: closure size, pinned digest at the default seed,
/// and a stride of closure bits re-run through the scalar engine.
fn gate(args: &Args, tb: &Testbed, result: &CampaignResult, rep: &mut Report) {
    rep.check(
        &format!(
            "closure holds {CLOSURE_BITS} bits (got {})",
            result.injections
        ),
        result.injections == CLOSURE_BITS && result.exhaustive,
    );
    let digest = key_digest(&result.equivalence_key());
    println!("equivalence_key digest {digest:#018x}");
    if args.seed == DEFAULT_SEED {
        rep.check(
            &format!("equivalence_key digest {digest:#018x} == pinned {PINNED_KEY_DIGEST:#018x}"),
            digest == PINNED_KEY_DIGEST,
        );
    }
    let closure = tb.base.clone().active_config_bits();
    let by_bit: HashMap<usize, &SensitiveBit> =
        result.sensitive.iter().map(|s| (s.bit, s)).collect();
    let scalar_cfg = config(false, Telemetry::disabled());
    let mut passed = 0;
    let mut total = 0;
    for &bit in closure.iter().step_by(STRIDE) {
        let scalar = inject_one(tb, &scalar_cfg, bit);
        total += 1;
        if same_bit(scalar.as_ref(), by_bit.get(&bit).copied()) {
            passed += 1;
        } else {
            println!(
                "bit {bit}: scalar {scalar:?} vs campaign {:?}",
                by_bit.get(&bit)
            );
        }
    }
    rep.checks("stride bits agree with scalar inject_one", passed, total);
}

pub fn run(args: &Args, rep: &mut Report) {
    let stim_seed = derive_seed(args.seed, 1);
    let mut s = Setup::new(stim_seed);
    println!(
        "campaign-mult8: MULT 8 on quarter geometry, {} config bits, {TRACE_CYCLES}-cycle trace, stimulus seed {stim_seed:#x}",
        s.tb.total_bits()
    );
    if args.trace {
        trace(args, &s, rep);
        return;
    }

    // Identical campaigns: the first result is kept for the gate, later
    // ones are only compared with it and dropped, so memory stays flat.
    let cfg = config(true, Telemetry::disabled());
    let mut first: Option<(CampaignResult, Key)> = None;
    let mut deterministic = true;
    let (mut wall, mut rss) = (Vec::new(), Vec::new());
    let cpu = repeat_for(args.seconds, MIN_CAMPAIGNS, |_| {
        reset_peak_rss();
        let (t, c) = (Instant::now(), process_cpu_s());
        let r = run_campaign_wide(&s.tb, &cfg);
        let dt = process_cpu_s() - c;
        wall.push(secs(t));
        rss.push(peak_rss_mb());
        let key = r.equivalence_key();
        match &first {
            None => first = Some((r, key)),
            Some((_, first_key)) => deterministic &= key == *first_key,
        }
        s.resample();
        dt
    });
    let (first, _) = first.expect("at least one campaign");
    rep.check(
        "every repetition reproduces the first campaign's equivalence_key",
        deterministic,
    );
    gate(args, &s.tb, &first, rep);

    let per = |times: &[f64]| {
        let rates: Vec<f64> = times
            .iter()
            .map(|dt| first.injections as f64 / dt)
            .collect();
        median(&rates)
    };
    println!("campaign wall seconds {wall:.3?}");
    println!("campaign CPU seconds {cpu:.3?}");
    let rate = per(&cpu);
    println!(
        "campaign_injections_per_s = {:.1} injections per wall second, {rate:.1} per CPU second (medians of {} campaigns of {} injections, {} sensitive)",
        per(&wall),
        cpu.len(),
        first.injections,
        first.sensitive.len()
    );
    rep.metric("throughput_per_cpu_s", rate, "1/cpu_s");
    rep.metric("setup_s", median(&s.total_s()), "s");
    rep.metric("peak_rss_mb", median(&rss), "MB");
}

/// Stage timings of one replay of the serial campaign.
#[derive(Default)]
struct Stages {
    closure_s: f64,
    wide_new_s: f64,
    delta_build_s: f64,
    classify_s: f64,
    same_topology_s: f64,
    structural_s: f64,
    lane_s: f64,
    step_s: f64,
    steps: u64,
    lane: usize,
    structural: usize,
    benign: usize,
    closure: usize,
}

#[inline]
fn splat64(b: bool) -> u64 {
    if b {
        !0
    } else {
        0
    }
}

/// One 63-experiment batch on the wide engine, classified exactly as the
/// campaign's lane pass does (observe window, repair, persistence tail).
fn lane_batch(
    w: &mut WideEngine,
    out: &mut Vec<u64>,
    tb: &Testbed,
    cfg: &CampaignConfig,
    chunk: &[(usize, LaneUpset)],
    st: &mut Stages,
) -> Vec<SensitiveBit> {
    let observe = cfg.observe_cycles.min(tb.trace_len());
    let persist_end = (cfg.observe_cycles + cfg.persist_cycles).min(tb.trace_len());
    let upsets: Vec<LaneUpset> = chunk.iter().map(|(_, u)| u.clone()).collect();
    w.load_batch_upsets(&upsets);
    let len_diff = w.len_diff_mask();
    let valid: Vec<u64> = w.out_valid_masks().to_vec();

    let mut step = |w: &mut WideEngine, c: usize, out: &mut Vec<u64>| {
        let t = Instant::now();
        w.step(&tb.stimulus[c], out);
        st.step_s += secs(t);
        st.steps += 1;
    };
    let mut seen = 0u64;
    let mut first = [0u32; LANES];
    let mut mask = [0u128; LANES];
    for c in 0..observe {
        step(w, c, out);
        let mut diff = len_diff;
        for (o, &word) in out.iter().enumerate() {
            let d = (word ^ splat64(tb.golden[c][o])) & valid[o];
            diff |= d;
            if o < 128 {
                let mut rem = d;
                while rem != 0 {
                    let lane = rem.trailing_zeros() as usize;
                    rem &= rem - 1;
                    mask[lane] |= 1 << o;
                }
            }
        }
        let mut fresh = diff & !seen;
        while fresh != 0 {
            let lane = fresh.trailing_zeros() as usize;
            fresh &= fresh - 1;
            first[lane] = c as u32;
        }
        seen |= diff;
    }
    w.repair();
    let mut last = [usize::MAX; LANES];
    if cfg.classify_persistence && persist_end > observe && seen != 0 {
        for c in observe..persist_end {
            step(w, c, out);
            let mut diff = 0u64;
            for (o, &word) in out.iter().enumerate() {
                diff |= word ^ splat64(tb.golden[c][o]);
            }
            let mut rem = diff & seen;
            while rem != 0 {
                let lane = rem.trailing_zeros() as usize;
                rem &= rem - 1;
                last[lane] = c;
            }
        }
    }
    let mut results = Vec::new();
    let mut rem = seen & !1;
    while rem != 0 {
        let lane = rem.trailing_zeros() as usize;
        rem &= rem - 1;
        results.push(SensitiveBit {
            bit: chunk[lane - 1].0,
            first_error_cycle: first[lane],
            output_mask: mask[lane],
            persistent: last[lane] != usize::MAX && last[lane] + cfg.persist_tail >= persist_end,
        });
    }
    results
}

/// The scalar experiment on a DUT whose bit `bit` is already flipped (and
/// compiled by `same_topology`), as the campaign's structural pass runs
/// it: observe window, repair, persistence tail, restore.
fn observe(
    dut: &mut Device,
    tb: &Testbed,
    cfg: &CampaignConfig,
    bit: usize,
) -> Option<SensitiveBit> {
    let observe = cfg.observe_cycles.min(tb.trace_len());
    let persist_end = (cfg.observe_cycles + cfg.persist_cycles).min(tb.trace_len());
    let mut out = Vec::with_capacity(dut.num_outputs());
    let mut first_error = None;
    let mut mask = 0u128;
    for c in 0..observe {
        dut.step_into(&tb.stimulus[c], &mut out);
        let gold = &tb.golden[c];
        if out[..] != gold[..] {
            first_error.get_or_insert(c as u32);
            for (i, (a, b)) in out.iter().zip(gold.iter()).enumerate() {
                if a != b && i < 128 {
                    mask |= 1 << i;
                }
            }
        }
    }
    dut.flip_config_bit(bit);
    let result = first_error.map(|first_error_cycle| {
        let mut last = None;
        if cfg.classify_persistence && persist_end > observe {
            for c in observe..persist_end {
                dut.step_into(&tb.stimulus[c], &mut out);
                if out[..] != tb.golden[c][..] {
                    last = Some(c);
                }
            }
        }
        SensitiveBit {
            bit,
            first_error_cycle,
            output_mask: mask,
            persistent: last.is_some_and(|l| l + cfg.persist_tail >= persist_end),
        }
    });
    if tb.has_dynamic_state || dut.design_wrote_config() {
        *dut = tb.base.clone();
    } else {
        dut.reset();
    }
    result
}

/// Replay the serial wide campaign stage by stage; returns the sorted
/// sensitive set it found.
fn replay(tb: &Testbed, cfg: &CampaignConfig, st: &mut Stages) -> Vec<SensitiveBit> {
    let t = Instant::now();
    let bits = tb.base.clone().active_config_bits();
    st.closure_s = secs(t);
    st.closure = bits.len();

    let mut probe = tb.base.clone();
    let t = Instant::now();
    let wide = WideEngine::new(&mut probe).expect("MULT 8 is inside the wide engine's domain");
    st.wide_new_s = secs(t);
    let t = Instant::now();
    let delta = DeltaMap::build(&mut probe);
    st.delta_build_s = secs(t);

    let t = Instant::now();
    let classes: Vec<DeltaClass> = bits
        .iter()
        .map(|&b| delta.classify(&mut probe, b))
        .collect();
    st.classify_s = secs(t);
    let mut lane_bits: Vec<(usize, LaneUpset)> = Vec::new();
    let mut structural: Vec<usize> = Vec::new();
    for (&b, class) in bits.iter().zip(classes) {
        match class {
            DeltaClass::Lane(u) => lane_bits.push((b, u)),
            DeltaClass::Benign => st.benign += 1,
            DeltaClass::Structural => structural.push(b),
        }
    }
    st.lane = lane_bits.len();
    st.structural = structural.len();

    let t = Instant::now();
    let (mut golden, mut dut) = (tb.base.clone(), tb.base.clone());
    let mut sensitive = Vec::new();
    for &b in &structural {
        dut.flip_config_bit(b);
        let t_topo = Instant::now();
        let same = same_topology(&mut golden, &mut dut);
        st.same_topology_s += secs(t_topo);
        if same {
            dut.flip_config_bit(b);
        } else {
            sensitive.extend(observe(&mut dut, tb, cfg, b));
        }
    }
    st.structural_s = secs(t);

    let t = Instant::now();
    let mut w = wide.clone();
    let mut out = Vec::new();
    for chunk in lane_bits.chunks(wide.batch_capacity()) {
        sensitive.extend(lane_batch(&mut w, &mut out, tb, cfg, chunk, st));
    }
    st.lane_s = secs(t);
    sensitive.sort_by_key(|s| s.bit);
    sensitive
}

fn trace(args: &Args, s: &Setup, rep: &mut Report) {
    let tb = &s.tb;
    // The untraced serial campaign and its traced replay, alternated so
    // host-speed drift hits both alike; stage figures are medians.
    let serial_cfg = config(false, Telemetry::disabled());
    let mut serial = None;
    let (mut serial_wall, mut host_s, mut traced_wall) = (Vec::new(), Vec::new(), Vec::new());
    let mut stages = Vec::new();
    for _ in 0..TRACE_REPS {
        let t = Instant::now();
        let r = run_campaign_wide(tb, &serial_cfg);
        serial_wall.push(secs(t));
        host_s.push(r.host_seconds);
        let mut st = Stages::default();
        let t = Instant::now();
        let replayed = replay(tb, &serial_cfg, &mut st);
        traced_wall.push(secs(t));
        let key = r.equivalence_key();
        let replay_key: Vec<_> = replayed
            .iter()
            .map(|s| (s.bit, s.first_error_cycle, s.output_mask, s.persistent))
            .collect();
        rep.check(
            "traced replay reproduces the campaign's sensitive set",
            replay_key == key.0,
        );
        stages.push(st);
        serial = Some((r, key));
    }
    let (serial, key) = serial.expect("TRACE_REPS > 0");
    let med = |f: fn(&Stages) -> f64| median(&stages.iter().map(f).collect::<Vec<_>>());
    let st = &stages[0];

    // The parallel campaign, for the pool's speed-up, and the program's
    // own partition counters from a recording sink.
    let t = Instant::now();
    let parallel = run_campaign_wide(tb, &config(true, Telemetry::disabled()));
    let parallel_wall = secs(t);
    rep.check(
        "serial and parallel campaigns agree",
        parallel.equivalence_key() == key,
    );
    let tele = Telemetry::recording();
    let recorded = run_campaign_wide(tb, &config(false, tele.clone()));
    rep.check(
        "recording campaign matches the untraced campaign",
        recorded.equivalence_key() == key,
    );
    let lane_utilization = tele
        .snapshot()
        .gauges
        .iter()
        .find(|(n, _)| n == "inject.lane_utilization")
        .map_or(f64::NAN, |(_, v)| *v);
    for (name, got) in [
        ("inject.lane_bits", st.lane),
        ("inject.structural_bits", st.structural),
        ("inject.benign_bits", st.benign),
    ] {
        rep.check(
            &format!("replay {name} == program counter"),
            counter(&tele, name) == Some(got as f64),
        );
    }
    gate(args, tb, &serial, rep);

    let stage_sum = med(|s| {
        s.closure_s + s.wide_new_s + s.delta_build_s + s.classify_s + s.structural_s + s.lane_s
    });
    let (serial_wall, traced_wall) = (median(&serial_wall), median(&traced_wall));
    println!(
        "replay: closure {} bits = {} lane + {} structural + {} benign; medians of {TRACE_REPS}: serial campaign {serial_wall:.3} s, replay {traced_wall:.3} s; parallel campaign {parallel_wall:.3} s",
        st.closure, st.lane, st.structural, st.benign
    );

    rep.metric("netlist.implement_s", median(&s.implement_s), "s");
    rep.metric("inject.testbed_s", median(&s.testbed_s), "s");
    rep.metric("arch.closure_s", med(|s| s.closure_s), "s");
    rep.metric("arch.wide_engine_new_s", med(|s| s.wide_new_s), "s");
    rep.metric("arch.delta_build_s", med(|s| s.delta_build_s), "s");
    let classify_s = med(|s| s.classify_s);
    rep.metric("arch.delta_classify_s", classify_s, "s");
    rep.metric(
        "arch.delta_classify_ns_per_bit",
        classify_s * 1e9 / st.closure as f64,
        "ns",
    );
    rep.metric("arch.same_topology_s", med(|s| s.same_topology_s), "s");
    let structural_s = med(|s| s.structural_s);
    rep.metric("arch.structural_s", structural_s, "s");
    rep.metric(
        "arch.structural_ms_per_bit",
        structural_s * 1e3 / st.structural as f64,
        "ms",
    );
    rep.metric(
        "arch.wide_step_ns",
        med(|s| s.step_s * 1e9 / s.steps as f64),
        "ns",
    );
    rep.metric("inject.lane_replay_s", med(|s| s.lane_s), "s");
    rep.metric(
        "inject.lane_pass_s",
        median(&host_s) - classify_s - structural_s,
        "s",
    );
    for name in [
        "inject.lane_bits",
        "inject.structural_bits",
        "inject.benign_bits",
    ] {
        rep.metric(name, counter(&tele, name).unwrap_or(f64::NAN), "count");
    }
    rep.metric("inject.lane_utilization", lane_utilization, "ratio");
    rep.metric("inject.parallel_speedup", serial_wall / parallel_wall, "x");
    rep.metric("trace.coverage", stage_sum / traced_wall, "ratio");
    rep.metric("trace.overhead_s", traced_wall - serial_wall, "s");
}
