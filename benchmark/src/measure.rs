//! Inputs, host calibration, and the end-to-end measurement.
//!
//! The load is a closed loop: epochs run back to back on one driver thread
//! (the real server is paced by five-minute epochs, so the question is
//! headroom, not queueing). A repetition is one timed set-up and the server
//! it built driven over the workload's horizon; repetitions repeat until
//! the run's seconds are spent and the medians over them are reported.

use crate::adapter::{self, Prepared, Record, Recording, RunPlan, RunResult};
use crate::stats::median;
use crate::workloads::{Mode, Workload};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The per-run temp directory (streamed logs, generated specs, CLI output);
/// removed on drop. It lives under the build's target directory, so the
/// benchmark writes nothing outside its checkout.
pub struct TempDir(PathBuf);

/// The build's target directory: two levels above this executable. Every
/// checkout already ignores it, so temp files and default results go there.
pub fn target_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    Ok(exe.parent().and_then(Path::parent).unwrap_or(Path::new(".")).to_path_buf())
}

impl TempDir {
    pub fn create() -> Result<Self, String> {
        let target = target_dir()?;
        // Unique per process and per call, so parallel tests never share one.
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = target.join("bench-tmp").join(format!("run-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Self(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What the program under test receives for one (workload, seed).
pub struct Inputs {
    pub workload: &'static Workload,
    pub spec_toml: String,
    /// The canonical run-log text a replay workload re-drives.
    pub log_text: Option<String>,
}

/// Records the workload's spec live (serial, in-memory recorder) and
/// returns the canonical log text — workload generation for replay
/// workloads; never timed.
pub fn record_live(spec_toml: &str) -> Result<String, String> {
    let plan = RunPlan {
        pipelined: false,
        replay: None,
        record: Record::Memory,
        timer: false,
        traced: false,
    };
    let result = adapter::run(adapter::prepare(spec_toml, false, 1)?, plan)?;
    Ok(adapter::log_text(result.log.as_ref().expect("memory recorder returns a log")))
}

/// Generates the inputs. A replay workload's recording is made by a child
/// process, so the memory the live crowd needed never shows in this
/// process's peak RSS.
pub fn generate(
    workload: &'static Workload,
    seed: u64,
    smoke: bool,
    tmp: &TempDir,
) -> Result<Inputs, String> {
    let spec_toml = workload.spec_toml(seed, smoke);
    let log_text = if workload.mode == Mode::Replay {
        let spec_path = tmp.path().join("recording.spec.toml");
        let log_path = tmp.path().join("recording.runlog.txt");
        std::fs::write(&spec_path, &spec_toml)
            .map_err(|e| format!("{}: {e}", spec_path.display()))?;
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let status = std::process::Command::new(exe)
            .arg("record-inputs")
            .arg(&spec_path)
            .arg(&log_path)
            .status()
            .map_err(|e| format!("record-inputs: {e}"))?;
        if !status.success() {
            return Err(format!("record-inputs exited with {status}"));
        }
        Some(
            std::fs::read_to_string(&log_path)
                .map_err(|e| format!("{}: {e}", log_path.display()))?,
        )
    } else {
        None
    };
    Ok(Inputs { workload, spec_toml, log_text })
}

impl Inputs {
    /// The plan the workload's own horizon runs under.
    pub fn plan<'a>(&self, recording: Option<&'a Recording>, stream_to: &'a Path) -> RunPlan<'a> {
        RunPlan {
            pipelined: self.workload.mode == Mode::LivePipelined,
            replay: recording,
            record: if self.workload.durable { Record::Stream(stream_to) } else { Record::Off },
            timer: false,
            traced: false,
        }
    }

    pub fn detached(&self) -> bool {
        self.workload.mode == Mode::Replay
    }
}

/// One full set-up, timed: everything between holding the input texts and
/// holding a server ready to run.
pub struct SetUp {
    pub prepared: Prepared,
    pub recording: Option<Recording>,
    pub seconds: f64,
}

pub fn set_up(inputs: &Inputs, shards: usize) -> Result<SetUp, String> {
    let started = Instant::now();
    let prepared = adapter::prepare(&inputs.spec_toml, inputs.detached(), shards)?;
    // A replay's set-up carries the run-log read path: parse + decode.
    let recording = match &inputs.log_text {
        Some(text) => Some(Recording::from_log(&adapter::parse_log(text)?)),
        None => None,
    };
    Ok(SetUp { prepared, recording, seconds: started.elapsed().as_secs_f64() })
}

/// Epoch latencies (ms, slot open → sealed) of one run.
pub fn epoch_ms(result: &RunResult) -> Vec<f64> {
    result
        .stamps
        .iter()
        .filter(|s| s.open != 0 && s.sealed != 0)
        .map(|s| s.sealed.saturating_sub(s.open) as f64 / 1e6)
        .collect()
}

/// `VmHWM` of this process (MB).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Mean over queries of min(1, achieved rate ÷ requested rate).
pub fn rate_fidelity(rates: &[(f64, f64)]) -> f64 {
    let n = rates.len().max(1) as f64;
    rates.iter().map(|(requested, achieved)| (achieved / requested).min(1.0)).sum::<f64>() / n
}

/// What [`calibrate`] takes on the host the benchmark was sized on, at that
/// host's median speed; `host speed = NOMINAL_CALIBRATION_S / measured`.
pub const NOMINAL_CALIBRATION_S: f64 = 0.020;

/// A fixed piece of work, timed: the host's speed right now.
///
/// The sandbox this runs in is a shared virtual machine whose speed wanders
/// by a quarter either way over tens of seconds (same CPU time, no steal:
/// the cores themselves run slower). Raw wall-clock medians of ten 20 s runs
/// spread 10-35 % there, which no bound of 25 % survives. So a sample of
/// this kernel is taken between repetitions and every end-to-end timing is
/// scaled by the host speed around it: the numbers read as "at the nominal
/// host's speed", and what is left of the spread is a third of the raw one.
/// The program under test is untouched: the kernel runs between horizons,
/// never inside one. It sweeps a 20 000-element table the way the program's
/// hot loops do (a branchy range test per element, a little arithmetic, an
/// occasional write), so contention that slows the program slows it alike.
pub fn calibrate() -> f64 {
    const ELEMENTS: usize = 20_000;
    const SWEEPS: usize = 400;
    let mut table: Vec<(f64, f64, u64, [u64; 8])> = (0..ELEMENTS)
        .map(|i| ((i % 97) as f64 * 0.08, (i % 89) as f64 * 0.09, i as u64, [0; 8]))
        .collect();
    let started = Instant::now();
    let (mut x, mut hits) = (88172645463325252u64, 0u64);
    for k in 0..SWEEPS {
        let (x0, y0) = ((k % 16) as f64 * 0.5, (k / 16 % 16) as f64 * 0.5);
        for p in table.iter_mut() {
            if p.0 >= x0 && p.0 < x0 + 0.5 && p.1 >= y0 && p.1 < y0 + 0.5 {
                hits += 1;
                p.2 ^= x;
            }
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
    }
    std::hint::black_box((hits, x, &table));
    started.elapsed().as_secs_f64()
}

/// The host's speed over an interval with a calibration sample at each end
/// (1 = the nominal host, above 1 = faster).
pub fn speed_between(before_s: f64, after_s: f64) -> f64 {
    NOMINAL_CALIBRATION_S / ((before_s + after_s) / 2.0)
}

/// Epochs attempted and failed so far, with the reasons.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, epochs: u64, why: String) {
        if epochs > 0 {
            self.failed += epochs;
            self.notes.push(why);
        }
    }
}

/// One repetition: a fresh server driven over the horizon.
pub struct Rep {
    pub result: RunResult,
    pub epochs_per_s: f64,
    pub epoch_ms: Vec<f64>,
}

/// Drives `prepared` over the horizon under `plan` and counts its epochs
/// into `tally`: every epoch of the horizon is attempted, and one that did
/// not complete (or whose durable append failed) is failed.
pub fn run_prepared(
    prepared: Prepared,
    plan: RunPlan<'_>,
    tally: &mut Tally,
) -> Result<Rep, String> {
    let horizon = plan.replay.map_or(prepared.epochs(), Recording::epochs) as u64;
    let result = adapter::run(prepared, plan)?;
    let done = result.reports.len() as u64;
    tally.attempted += horizon;
    tally.fail(horizon - done.min(horizon), format!("{} of {horizon} epochs completed", done));
    if let Some(e) = &result.stream_error {
        tally.fail(done, format!("durable log: {e}"));
    }
    let epoch_ms = epoch_ms(&result);
    Ok(Rep { epochs_per_s: done as f64 / result.wall_s, epoch_ms, result })
}

/// One repetition on a server built for it (detached when `plan` replays).
pub fn rep(
    inputs: &Inputs,
    shards: usize,
    plan: RunPlan<'_>,
    tally: &mut Tally,
) -> Result<Rep, String> {
    let prepared = adapter::prepare(&inputs.spec_toml, plan.replay.is_some(), shards)?;
    run_prepared(prepared, plan, tally)
}

/// The end-to-end numbers of one run, with the per-repetition samples the
/// medians were taken over.
pub struct EndToEnd {
    /// Median host speed over the run (1 = the nominal host); the timings
    /// below are already scaled by the speed around each of them.
    pub host_speed: f64,
    pub setup_s: Vec<f64>,
    pub epochs_per_s: Vec<f64>,
    pub epoch_ms_p50: Vec<f64>,
    /// Epochs whose latency was timed, over all repetitions.
    pub epochs_timed: usize,
    pub peak_rss_mb: f64,
    pub rate_fidelity: f64,
    /// The last repetition, for its reports and counts.
    pub last: RunResult,
}

/// Repeats set-up + horizon until `seconds` are spent (at least five
/// repetitions), tracing off. Every repetition pays one full, timed set-up
/// and then drives the server that set-up built, so set-up samples spread
/// over the whole run instead of clustering at its start. A calibration
/// sample sits on either side of each timed piece.
pub fn end_to_end(
    inputs: &Inputs,
    seconds: f64,
    tmp: &TempDir,
    tally: &mut Tally,
) -> Result<EndToEnd, String> {
    let stream_to = tmp.path().join("measured.runlog.txt");
    let (mut setup_s, mut host_speed) = (Vec::new(), Vec::new());
    let (mut epochs_per_s, mut epoch_ms_p50, mut epochs_timed) = (Vec::new(), Vec::new(), 0);
    let mut last = None;
    let started = Instant::now();
    let mut before = calibrate();
    while epochs_per_s.len() < 5 || started.elapsed().as_secs_f64() < seconds {
        let s = set_up(inputs, 1)?;
        let between = calibrate();
        setup_s.push(s.seconds * speed_between(before, between));

        let r = run_prepared(s.prepared, inputs.plan(s.recording.as_ref(), &stream_to), tally)?;
        let after = calibrate();
        let speed = speed_between(between, after);
        epochs_per_s.push(r.epochs_per_s / speed);
        epoch_ms_p50.push(median(&r.epoch_ms) * speed);
        epochs_timed += r.epoch_ms.len();
        host_speed.push(speed);
        last = Some(r.result);
        before = after;
    }
    let last = last.expect("at least five repetitions ran");
    Ok(EndToEnd {
        host_speed: median(&host_speed),
        setup_s,
        epochs_per_s,
        epoch_ms_p50,
        epochs_timed,
        peak_rss_mb: peak_rss_mb(),
        rate_fidelity: rate_fidelity(&last.rates),
        last,
    })
}
