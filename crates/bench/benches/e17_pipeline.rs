//! E17 — pipelined epoch executor: overlap across the staged dataflow.
//!
//! Claim under test: spreading the staged epoch schedule over three
//! long-lived stage workers (drain → ingest + control → render,
//! `craqr_core::EpochDriver::run_pipelined`) overlaps consecutive epochs
//! while leaving every checksummed byte identical to serial execution
//! (the `tests/pipeline.rs` determinism contract).
//!
//! Workload: an 8×8 grid fed by a few-thousand-sensor crowd, three
//! standing whole-region queries, a control hook that walks the full
//! observation every epoch, and a render tap that serializes each
//! epoch's drained responses into a checksum — so every stage carries
//! real weight.
//!
//! Two metrics:
//!
//! - **overlap speedup** (the acceptance metric): every stage worker
//!   records its per-slot thread-CPU spans
//!   ([`PhaseTimer::observe_stage`]). The *barrier* makespan is the sum
//!   of all spans — what a serial schedule costs, since it runs the
//!   stages back-to-back. The *pipeline* makespan replays the same spans
//!   through the dataflow's dependency recurrence (stage s of epoch t
//!   starts when both its upstream message and its own previous slot are
//!   done; the ingest stage hands slot t+1's orders upstream mid-slot,
//!   so its span splits there; the drain stage opens slot t only once
//!   slot t-2's render is done — the executor's two-open-epochs window,
//!   so the model cannot claim overlap the executor does not allow).
//!   `barrier / pipeline` is the overlap the stage decomposition
//!   achieves, from CPU-time spans only — host-independent, like E13's
//!   critical-path metric. Must exceed **1.2×** and is regression-gated
//!   against the committed `BENCH_pipeline.json` in CI.
//! - **wall speedup**: end-to-end wall clock, serial vs pipelined, on
//!   *this* host. Materializes only with ≥ 3 idle cores.
//!
//! The two runs' reports and tap checksums are asserted identical
//! (timing fields excluded) before anything is written. Run with
//! `--test` for a short smoke pass.

use craqr_bench::{f3, preamble, Table};
use craqr_core::{
    ControlAction, ControlHook, CraqrServer, EpochInputsRecord, EpochObservation, EpochPhase,
    EpochTap, PhaseTimer, PipelineStage, ServerConfig,
};
use craqr_geom::Rect;
use craqr_sensing::{
    fields::ConstantField, AttrValue, Crowd, CrowdConfig, Mobility, Placement, PopulationConfig,
    RainFront,
};
use std::time::Instant;

const REGION_KM: f64 = 8.0;
const POPULATION: usize = 4000;

fn server() -> CraqrServer {
    let crowd = Crowd::new(CrowdConfig {
        region: Rect::with_size(REGION_KM, REGION_KM),
        population: PopulationConfig {
            size: POPULATION,
            placement: Placement::Uniform,
            mobility: Mobility::RandomWalk { sigma: 0.2 },
            human_fraction: 0.0,
        },
        seed: 17,
    });
    let mut config = ServerConfig::default();
    config.planner.grid_side = 8;
    let mut s = CraqrServer::new(crowd, config);
    s.register_attribute("rain", true, Box::new(RainFront::new(2.0, 0.0, 2.0)));
    s.register_attribute("temp", false, Box::new(ConstantField(AttrValue::Float(21.0))));
    for (attr, rate) in [("rain", 2.0), ("rain", 1.0), ("temp", 0.5)] {
        s.submit(&format!("ACQUIRE {attr} FROM RECT(0,0,{REGION_KM},{REGION_KM}) RATE {rate}"))
            .unwrap();
    }
    s
}

/// Walks the whole observation every epoch (plan, budgets, report) so
/// the control phase carries real weight; never actuates, so the run
/// stays identical to a hook-free one byte-wise.
#[derive(Default)]
struct SurveyHook {
    folded: f64,
}

impl ControlHook for SurveyHook {
    fn on_epoch(&mut self, obs: &EpochObservation) -> Vec<ControlAction> {
        for q in &obs.plan.queries {
            self.folded += q.rate * q.area;
            for (cell, w) in &q.cells {
                self.folded += w + obs.budgets.of(*cell, q.attr).unwrap_or(0.0);
            }
        }
        self.folded += obs.report.responses as f64;
        Vec::new()
    }
}

/// Serializes each epoch's drained responses and folds the bytes into a
/// checksum — a stand-in for the run-log append the render stage owns in
/// production, and a cross-run identity fingerprint.
#[derive(Default)]
struct RenderTap {
    checksum: u64,
}

impl EpochTap for RenderTap {
    fn on_epoch(&mut self, record: &EpochInputsRecord<'_>) {
        use std::fmt::Write;
        let mut buf = String::with_capacity(64 * record.responses.len());
        for r in record.responses {
            let _ = write!(buf, "{r:?};");
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in buf.as_bytes() {
            h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.checksum = self.checksum.rotate_left(7) ^ h ^ record.report.epoch;
    }
}

/// Collects every stage worker's `(stage, slot, phase, ns)` spans; the
/// phase-only serial path is deliberately ignored so installing it on a
/// serial run costs nothing.
#[derive(Default)]
struct SpanTimer {
    spans: Vec<(PipelineStage, u64, EpochPhase, u64)>,
}

impl PhaseTimer for SpanTimer {
    fn observe(&mut self, _phase: EpochPhase, _nanos: u64) {}

    fn observe_stage(&mut self, stage: PipelineStage, slot: u64, phase: EpochPhase, nanos: u64) {
        self.spans.push((stage, slot, phase, nanos));
    }
}

struct RunResult {
    reports: Vec<craqr_core::EpochReport>,
    tap_checksum: u64,
    wall_s: f64,
}

fn run(epochs: u64, pipelined: bool, timer: Option<&mut SpanTimer>) -> RunResult {
    let mut server = server();
    let mut hook = SurveyHook::default();
    let mut tap = RenderTap::default();
    let started = Instant::now();
    let outcome = {
        let mut d = server.driver().hook(&mut hook).tap(&mut tap);
        if let Some(t) = timer {
            d = d.timer(t);
        }
        if pipelined {
            d.run_pipelined(epochs)
        } else {
            d.run(epochs)
        }
    };
    let wall_s = started.elapsed().as_secs_f64();
    let mut reports = outcome.reports;
    for r in &mut reports {
        for s in &mut r.exec.shards {
            s.busy_ns = 0; // thread-CPU measurements, legitimately host-varying
        }
    }
    RunResult { reports, tap_checksum: tap.checksum, wall_s }
}

/// Per-slot busy nanoseconds, decomposed the way the dataflow needs:
/// the ingest stage splits at the point it hands the next slot's orders
/// upstream (everything before feeds slot t+1's drain; everything after
/// — the rest of the ingestion and the hook — only feeds slot t's own
/// downstream).
struct SlotSpans {
    drain: Vec<f64>,
    ingest_pre: Vec<f64>,
    ingest_post: Vec<f64>,
    render: Vec<f64>,
}

fn decompose(spans: &[(PipelineStage, u64, EpochPhase, u64)], n: usize) -> SlotSpans {
    let mut s = SlotSpans {
        drain: vec![0.0; n],
        ingest_pre: vec![0.0; n],
        ingest_post: vec![0.0; n],
        render: vec![0.0; n],
    };
    // The ingest stage's hand-off in slot t is the `Dispatch` lap that
    // follows an `Ingest` lap (slot 0 also opens with the `Dispatch` lap
    // of the very first issue, which is not it); the last slot issues
    // nothing, so its first `Ingest` lap stands in.
    let mut ingested = vec![false; n];
    let mut handed_off = vec![false; n];
    for &(stage, slot, phase, ns) in spans {
        let t = slot as usize;
        let ns = ns as f64;
        match stage {
            PipelineStage::Drain => s.drain[t] += ns,
            PipelineStage::Ingest if handed_off[t] => s.ingest_post[t] += ns,
            PipelineStage::Ingest => {
                s.ingest_pre[t] += ns;
                ingested[t] |= phase == EpochPhase::Ingest;
                handed_off[t] = ingested[t] && (phase == EpochPhase::Dispatch || t + 1 == n);
            }
            PipelineStage::Render => s.render[t] += ns,
        }
    }
    s
}

/// The dataflow's completion-time recurrence over measured spans: each
/// stage of slot t starts when its upstream message and its own slot
/// t-1 are both done; drain also waits for the orders ingest hands up
/// mid-slot, and for slot t-2's render (the two-open-epochs window).
fn pipeline_makespan(s: &SlotSpans) -> f64 {
    let n = s.drain.len();
    let (mut c1, mut c2a, mut c2b, mut c4) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let mut c4_before = 0.0f64; // render completion of slot t-2
    for t in 0..n {
        let c1_new = c1.max(c2a).max(c4_before) + s.drain[t];
        let c2a_new = c1_new.max(c2b) + s.ingest_pre[t];
        let c2b_new = c2a_new + s.ingest_post[t];
        let c4_new = c2b_new.max(c4) + s.render[t];
        c4_before = c4;
        (c1, c2a, c2b, c4) = (c1_new, c2a_new, c2b_new, c4_new);
    }
    c4
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let epochs: u64 = if test_mode { 4 } else { 24 };
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());

    preamble(
        "E17 (pipelined epoch executor)",
        "the staged dataflow overlaps consecutive epochs while every checksummed byte stays serial-identical",
        "8×8 grid, 4000-sensor crowd, 3 standing queries, observation-walking hook, response-serializing tap",
    );

    let serial = run(epochs, false, None);
    let mut timer = SpanTimer::default();
    let piped = run(epochs, true, Some(&mut timer));

    // Identity first: a performance number for a wrong answer is noise.
    assert_eq!(
        serial.reports, piped.reports,
        "pipelined reports diverge from serial — determinism broken"
    );
    assert_eq!(
        serial.tap_checksum, piped.tap_checksum,
        "pipelined tap stream diverges from serial — determinism broken"
    );

    let slots = decompose(&timer.spans, epochs as usize);
    let stage_totals: [(&str, f64); 3] = [
        ("drain", slots.drain.iter().sum()),
        ("ingest", slots.ingest_pre.iter().sum::<f64>() + slots.ingest_post.iter().sum::<f64>()),
        ("render", slots.render.iter().sum()),
    ];
    let barrier_ns: f64 = stage_totals.iter().map(|(_, ns)| ns).sum();
    let pipeline_ns = pipeline_makespan(&slots);
    let overlap = barrier_ns / pipeline_ns.max(1.0);
    let wall_speedup = serial.wall_s / piped.wall_s.max(1e-12);

    let mut table = Table::new(["stage", "busy s", "share"]);
    for (name, ns) in &stage_totals {
        table.row([(*name).to_string(), f3(ns / 1e9), format!("{:.0}%", 100.0 * ns / barrier_ns)]);
    }
    table.print("E17: per-stage thread-CPU busy time (pipelined run)");

    let mut summary = Table::new(["metric", "value"]);
    summary.row(["barrier makespan s (Σ spans)".to_string(), f3(barrier_ns / 1e9)]);
    summary.row(["pipeline makespan s (dataflow recurrence)".to_string(), f3(pipeline_ns / 1e9)]);
    summary.row(["overlap speedup × (host-independent)".to_string(), f3(overlap)]);
    summary.row(["wall serial s".to_string(), f3(serial.wall_s)]);
    summary.row(["wall pipelined s".to_string(), f3(piped.wall_s)]);
    summary.row([format!("wall speedup × (this host, {host_cpus} cpus)"), f3(wall_speedup)]);
    summary.print("E17: overlap (identical outputs verified)");

    if !test_mode {
        assert!(
            overlap > 1.2,
            "overlap speedup {overlap:.3}x at 3 stages is below the 1.2x acceptance floor"
        );
    }

    let stage_json: Vec<String> =
        stage_totals.iter().map(|(name, ns)| format!("\"{name}\": {:.6}", ns / 1e9)).collect();
    let json = format!(
        "{{\n  \"bench\": \"e17_pipeline\",\n  \"host_cpus\": {host_cpus},\n  \
         \"epochs\": {epochs},\n  \"stages\": 3,\n  \
         \"stage_busy_s\": {{{}}},\n  \
         \"barrier_s\": {:.6},\n  \"pipeline_s\": {:.6},\n  \
         \"overlap_speedup\": {:.3},\n  \
         \"wall_serial_s\": {:.6},\n  \"wall_pipelined_s\": {:.6},\n  \
         \"wall_speedup\": {:.3},\n  \
         \"note\": \"overlap_speedup is host-independent (thread-CPU spans through the dataflow recurrence); wall metrics need >= 3 idle cores\"\n}}\n",
        stage_json.join(", "),
        barrier_ns / 1e9,
        pipeline_ns / 1e9,
        overlap,
        serial.wall_s,
        piped.wall_s,
        wall_speedup,
    );
    if test_mode {
        println!("\n--test: skipping BENCH_pipeline.json rewrite and the 1.2x floor");
        return;
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pipeline.json");
    std::fs::write(path, &json).expect("write BENCH_pipeline.json");
    println!("\nwrote {path}");
}
