//! The traced run: per-layer metrics for one workload.
//!
//! Spans come from the benchmark's own wrappers around each call into a
//! layer (see `adapter`); nothing inside the program is instrumented. What
//! the seams cannot separate is separated by difference: a replay of the
//! same inputs has no crowd, so `sensing.share_of_epoch` is what the live
//! slot costs beyond the replayed one, and the engine's share is the work
//! the program itself reports per epoch over the slot measured outside.
//!
//! Ratios carry their bases in the notes. A speed-up that depends on
//! threads is reported as zero when the host has fewer cores than the
//! comparison needs, so it can never be mistaken for a measurement.

use crate::adapter::{self, EpochStamps, Record, Recording, RunPlan, RunResult};
use crate::alloc;
use crate::measure::{self, rep, Inputs, Tally, TempDir};
use crate::metrics::{Values, PER_LAYER};
use crate::spans::{self, Span};
use crate::stats::{median, slope, tail};
use crate::verify::Verified;
use crate::workloads::Mode;
use std::time::Instant;

pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub struct Traced {
    pub values: Values,
    pub notes: Vec<String>,
    /// The spans of the last traced repetition, for `--trace-out`.
    pub spans: Vec<Span>,
}

/// Span self times of a set of traced runs, pooled per span name (ns).
struct SelfTimes {
    glue: Vec<f64>,
    slot: Vec<f64>,
    hook: Vec<f64>,
    append: Vec<f64>,
    /// Whole `epoch` span durations.
    total: Vec<f64>,
    /// First slot open → last epoch sealed, summed over the runs.
    wall: f64,
}

fn self_times(runs: &[RunResult]) -> SelfTimes {
    let mut out = SelfTimes {
        glue: vec![],
        slot: vec![],
        hook: vec![],
        append: vec![],
        total: vec![],
        wall: 0.0,
    };
    for run in runs {
        let spans = spans::from_stamps(&run.stamps);
        let self_ns = spans::self_times_ns(&spans);
        // The driver's own time between the seams: what is left inside an
        // epoch, plus the gap from its seal to the next slot's open (zero
        // when the pipelined executor has already opened it).
        let gaps = run.stamps.windows(2).map(|w| w[1].open.saturating_sub(w[0].sealed) as f64);
        let inside = spans::self_times_of(&spans, &self_ns, "epoch");
        out.glue.extend(inside.iter().zip(gaps.chain([0.0])).map(|(a, b)| a + b));
        out.slot.extend(spans::self_times_of(&spans, &self_ns, "core.slot"));
        out.hook.extend(spans::self_times_of(&spans, &self_ns, "adaptive.hook"));
        out.append.extend(spans::self_times_of(&spans, &self_ns, "runlog.append"));
        let epochs = || spans.iter().filter(|s| s.name == "epoch");
        out.total.extend(epochs().map(|s| s.duration_ns() as f64));
        let first_open = epochs().map(|s| s.start_ns).min().unwrap_or(0);
        let last_sealed = epochs().map(|s| s.end_ns).max().unwrap_or(0);
        out.wall += last_sealed.saturating_sub(first_open) as f64;
    }
    out
}

/// Per-epoch differences of a cumulative counter over the steady state
/// (the last two thirds of the horizon).
fn steady_deltas(stamps: &[EpochStamps], counter: impl Fn(&EpochStamps) -> u64) -> Vec<f64> {
    let from = stamps.len() / 3;
    stamps[from..]
        .windows(2)
        .map(|w| counter(&w[1]).saturating_sub(counter(&w[0])) as f64)
        .collect()
}

fn sum(v: &[f64]) -> f64 {
    v.iter().fold(0.0, |a, b| a + b)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// By how many percent `other` exceeds `base`.
fn pct_over(base: f64, other: f64) -> f64 {
    (ratio(other, base) - 1.0) * 100.0
}

/// What the seams saw: slot, hook and append self times, their shares of
/// the epoch, the driver's glue, the pooled latency tail.
fn seam_metrics(v: &mut Values, notes: &mut Vec<String>, st: &SelfTimes) {
    let epoch_total = sum(&st.total);
    v.insert("core.slot_ms_p50", median(&st.slot) / 1e6);
    v.insert("core.glue_us_p50", median(&st.glue) / 1e3);
    v.insert("adaptive.hook_us_p50", if st.hook.is_empty() { 0.0 } else { median(&st.hook) / 1e3 });
    v.insert("adaptive.share_of_epoch", ratio(sum(&st.hook), epoch_total));
    v.insert("runlog.append_ms_p50", median(&st.append) / 1e6);
    v.insert("runlog.share_of_epoch", ratio(sum(&st.append), epoch_total));
    // Layer self times over the wall time they were recorded in: ~1 when
    // the seams cover a serial loop, above 1 by the overlap when pipelined.
    v.insert("tracing.coverage", ratio(sum(&st.slot) + sum(&st.hook) + sum(&st.append), st.wall));
    let pooled: Vec<f64> = st.total.iter().map(|ns| ns / 1e6).collect();
    if let Some((p, value)) = tail(&pooled) {
        v.insert("core.epoch_ms_p95", value);
        if p != 95.0 {
            notes.push(format!(
                "core.epoch_ms_p95 holds p{p}: {} pooled epochs support no higher percentile",
                pooled.len()
            ));
        }
    }
}

/// Work counts (deterministic per seed, so one run speaks for all) and the
/// engine's share of the slot.
fn count_metrics(v: &mut Values, run: &RunResult) {
    let n = run.reports.len().max(1) as f64;
    let c = adapter::totals(&run.reports);
    let (mut work_ns, mut slot_ns) = (0u64, 0u64);
    for (report, s) in run.reports.iter().zip(&run.stamps) {
        work_ns += adapter::exec_ns(report).0;
        let slot_end = if s.hook_start != 0 { s.hook_start } else { s.tap_start };
        slot_ns += slot_end.saturating_sub(s.open);
    }
    v.insert("core.requests_per_epoch", c.requested as f64 / n);
    v.insert("core.responses_per_epoch", c.responses as f64 / n);
    v.insert("core.delivered_per_epoch", c.delivered as f64 / n);
    v.insert("core.delivered_ratio", ratio(c.delivered as f64, c.responses as f64));
    v.insert("core.throttled", c.throttled as f64);
    v.insert("core.retries", run.retries as f64);
    v.insert("core.stale_actions", c.stale_actions as f64);
    v.insert("core.pool_fresh_allocations", run.pool_fresh_allocations as f64);
    v.insert("adaptive.replans", run.replans as f64);
    v.insert("adaptive.actions", run.actions as f64);
    v.insert("engine.work_share", ratio(work_ns as f64, slot_ns as f64));
}

/// Allocation and RSS per steady-state epoch, CPU per epoch: the median
/// over the traced runs of each run's own figure.
fn process_metrics(v: &mut Values, runs: &[RunResult]) {
    let per_run = |f: &dyn Fn(&RunResult) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    v.insert(
        "process.allocs_per_epoch",
        per_run(&|r| median(&steady_deltas(&r.stamps, |s| s.allocs))),
    );
    v.insert(
        "process.alloc_kb_per_epoch",
        per_run(&|r| median(&steady_deltas(&r.stamps, |s| s.alloc_bytes)) / 1024.0),
    );
    v.insert(
        "process.rss_growth_kb_per_epoch",
        per_run(&|r| {
            let steady = &r.stamps[r.stamps.len() / 3..];
            slope(&steady.iter().map(|s| s.rss_kb as f64).collect::<Vec<_>>())
        }),
    );
    v.insert("process.cpu_ms_per_epoch", per_run(&|r| r.cpu_ms / r.reports.len().max(1) as f64));
    v.insert("runlog.seal_ms", per_run(&|r| r.seal_ms));
}

/// One executor against the serial one on the same inputs: three
/// alternating pairs, medians. Withheld (0, with a note) when the host has
/// fewer cores than the comparison keeps busy.
fn executor_speedup(
    label: &str,
    inputs: &Inputs,
    serial: RunPlan<'_>,
    (other_shards, other): (usize, RunPlan<'_>),
    (workers, busy): (usize, usize),
    notes: &mut Vec<String>,
    tally: &mut Tally,
) -> Result<f64, String> {
    let cpus = host_cpus();
    if cpus < busy {
        notes.push(format!(
            "{label} withheld (0): host_cpus {cpus}, workers {workers} ({busy} busy), oversubscribed true"
        ));
        return Ok(0.0);
    }
    let (mut base, mut alt) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        base.push(rep(inputs, 1, serial, tally)?.epochs_per_s);
        alt.push(rep(inputs, other_shards, other, tally)?.epochs_per_s);
    }
    let (base, alt) = (median(&base), median(&alt));
    notes.push(format!(
        "{label}: {alt:.2} epochs/s over serial {base:.2} epochs/s on the same inputs; \
         host_cpus {cpus}, workers {workers} ({busy} busy), oversubscribed false"
    ));
    Ok(ratio(alt, base))
}

/// The release CLI as a user types it, on the workload's spec.
fn cli_metrics(
    v: &mut Values,
    notes: &mut Vec<String>,
    inputs: &Inputs,
    horizon: u64,
    tmp: &TempDir,
    tally: &mut Tally,
) -> Result<(), String> {
    let Some(bin) = adapter::cli_path() else {
        notes.push(
            "scenario.cli_* reported as 0: no craqr-scenario binary next to this one \
             (build the root package first, as benchmark/run.sh does)"
                .into(),
        );
        return Ok(());
    };
    let spec_path = tmp.path().join("cli.spec.toml");
    std::fs::write(&spec_path, &inputs.spec_toml)
        .map_err(|e| format!("{}: {e}", spec_path.display()))?;
    // The CLI's own cross-executor check is part of the output check: a
    // disagreement fails the horizon.
    tally.attempted += horizon;
    match adapter::cli_probe(&bin, &spec_path, &tmp.path().join("cli-runs")) {
        Ok((record_s, replay_s)) => {
            v.insert("scenario.cli_record_s", record_s);
            v.insert("scenario.cli_replay_s", replay_s);
        }
        Err(e) => tally.fail(horizon, e),
    }
    Ok(())
}

/// Runs the traced measurement for one workload. `verified` is the output
/// check's runs (made before this is called), reused for the recording,
/// the codec probe and the shard skew.
pub fn traced(
    inputs: &Inputs,
    verified: &Verified,
    seconds: f64,
    tmp: &TempDir,
    tally: &mut Tally,
) -> Result<Traced, String> {
    let w = inputs.workload;
    let live = w.mode != Mode::Replay;
    let mut notes = Vec::new();
    let mut v: Values = PER_LAYER.iter().map(|m| (m.name, 0.0)).collect();
    let stream_to = tmp.path().join("traced.runlog.txt");

    // Set-up, by layer (median of three).
    let setups: Vec<_> = (0..3).map(|_| measure::set_up(inputs, 1)).collect::<Result<_, _>>()?;
    let of = |f: fn(&measure::SetUp) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    v.insert("scenario.parse_us", of(|s| s.prepared.times.parse_us));
    v.insert("sensing.build_ms", of(|s| s.prepared.times.crowd_build_ms));
    v.insert("core.build_ms", of(|s| s.prepared.times.core_build_ms));
    v.insert("core.submit_ms_per_query", of(|s| s.prepared.times.submit_ms_per_query));
    v.insert("engine.chains", setups[0].prepared.chains() as f64);
    v.insert("host.cpus", host_cpus() as f64);
    let input_recording = setups.into_iter().next().and_then(|s| s.recording);

    // The workload's own horizon, untraced and traced in alternation: the
    // traced repetitions give the spans, the pair gives tracing's overhead.
    let plan = inputs.plan(input_recording.as_ref(), &stream_to);
    let (mut plain_eps, mut traced_eps, mut runs) = (Vec::new(), Vec::new(), Vec::new());
    let mut calibrations = vec![measure::calibrate()];
    let started = Instant::now();
    while runs.len() < 2 || started.elapsed().as_secs_f64() < seconds * 0.5 {
        plain_eps.push(rep(inputs, 1, plan, tally)?.epochs_per_s);
        calibrations.push(measure::calibrate());
        alloc::set_enabled(true);
        let r = rep(inputs, 1, RunPlan { traced: true, ..plan }, tally);
        alloc::set_enabled(false);
        let r = r?;
        traced_eps.push(r.epochs_per_s);
        runs.push(r.result);
    }
    v.insert("tracing.overhead_pct", pct_over(median(&traced_eps), median(&plain_eps)));
    // Per-layer timings are as measured; this is what the host ran at while
    // they were taken (1 = the nominal host the end-to-end numbers read at).
    v.insert("host.speed", measure::NOMINAL_CALIBRATION_S / median(&calibrations));

    let st = self_times(&runs);
    let last = runs.last().expect("at least two traced repetitions ran");
    seam_metrics(&mut v, &mut notes, &st);
    count_metrics(&mut v, last);
    process_metrics(&mut v, &runs);
    if w.durable {
        let bytes = std::fs::metadata(&stream_to).map_or(0, |m| m.len());
        v.insert("runlog.bytes_per_epoch", bytes as f64 / last.reports.len().max(1) as f64);
    }
    let log = verified.reference.log.as_ref().ok_or("the output check recorded no log")?;
    let (encode, parse) = adapter::codec_probe(log)?;
    v.insert("runlog.encode_mb_per_s", encode);
    v.insert("runlog.parse_mb_per_s", parse);

    // The server alone: the same inputs replayed through a detached server
    // (for a replay workload that is the workload itself); the crowd alone,
    // driven the way the drain stage drives it.
    let recording: &Recording = &verified.recording;
    if live {
        let replay = RunPlan {
            pipelined: false,
            replay: Some(recording),
            record: Record::Off,
            timer: false,
            traced: true,
        };
        let mut scratch = Tally::default();
        let replays: Vec<RunResult> = (0..3)
            .map(|_| rep(inputs, 1, replay, &mut scratch).map(|r| r.result))
            .collect::<Result<_, _>>()?;
        let server_slot = median(&self_times(&replays).slot);
        v.insert("core.server_slot_ms_p50", server_slot / 1e6);
        v.insert("sensing.share_of_epoch", (1.0 - ratio(server_slot, median(&st.slot))).max(0.0));

        let per_order =
            (v["core.requests_per_epoch"] / v["engine.chains"].max(1.0)).round().max(1.0) as usize;
        let probe =
            adapter::sensing_probe(&inputs.spec_toml, per_order, last.reports.len().min(12))?;
        v.insert("sensing.dispatch_us_per_order", probe.dispatch_us_per_order);
        v.insert("sensing.step_ns_per_sensor_step", probe.step_ns_per_sensor_step);
        v.insert("sensing.drain_ns_per_response", probe.drain_ns_per_response);
        v.insert("sensing.response_ratio", probe.response_ratio);
        notes.push(format!(
            "sensing probe: {} orders/epoch of {per_order} requests each",
            probe.orders_per_epoch
        ));
    } else {
        v.insert("core.server_slot_ms_p50", v["core.slot_ms_p50"]);
    }

    // The engine alone, and how evenly two shards split it.
    v.insert("engine.ingest_ns_per_tuple", adapter::engine_probe(&inputs.spec_toml, recording, 1)?);
    v.insert(
        "engine.ingest_ns_per_tuple_sharded2",
        adapter::engine_probe(&inputs.spec_toml, recording, 2)?,
    );
    let skews: Vec<f64> = verified
        .sharded
        .reports
        .iter()
        .map(adapter::exec_ns)
        .filter(|(work, _, _)| *work > 0)
        .map(|(work, critical, shards)| critical as f64 * shards as f64 / work as f64)
        .collect();
    v.insert("engine.shard_skew", if skews.is_empty() { 0.0 } else { median(&skews) });

    // Executor ratios, each on the workload that exists for it. Of the
    // pipelined executor's four stage workers control idles and render
    // blocks in fsync, so two cores are what that comparison needs.
    let serial = RunPlan { pipelined: false, ..plan };
    if w.mode == Mode::Replay {
        let speedup = executor_speedup(
            "core.sharded2_speedup",
            inputs,
            serial,
            (2, serial),
            (2, 2),
            &mut notes,
            tally,
        )?;
        v.insert("core.sharded2_speedup", speedup);
    }
    if w.mode == Mode::LivePipelined {
        let speedup = executor_speedup(
            "core.pipeline_speedup",
            inputs,
            serial,
            (1, plan),
            (4, 2),
            &mut notes,
            tally,
        )?;
        v.insert("core.pipeline_speedup", speedup);
    }

    // The timing seam's cost, where every layer is switched on and serial.
    if w.durable && w.mode == Mode::Live {
        let mut scratch = Tally::default();
        let (mut off, mut on) = (Vec::new(), Vec::new());
        for _ in 0..3 {
            let plain = RunPlan { traced: true, ..plan };
            off.push(rep(inputs, 1, plain, &mut scratch)?.result);
            on.push(rep(inputs, 1, RunPlan { timer: true, ..plain }, &mut scratch)?.result);
        }
        v.insert(
            "telemetry.timer_overhead_pct",
            pct_over(median(&self_times(&off).slot), median(&self_times(&on).slot)),
        );
    }
    if w.durable {
        cli_metrics(&mut v, &mut notes, inputs, last.reports.len() as u64, tmp, tally)?;
    }

    let spans = spans::from_stamps(&last.stamps);
    Ok(Traced { values: v, notes, spans })
}
