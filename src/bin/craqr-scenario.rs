//! `craqr-scenario` — run declarative scenario specs, manage goldens, and
//! work with event-sourced run logs.
//!
//! ```text
//! # Run every committed scenario and diff against the committed goldens:
//! cargo run --release --bin craqr-scenario -- --all scenarios --check
//!
//! # Regenerate the goldens after an intentional behaviour change
//! # (adaptive scenarios also re-bless their .trace.txt goldens, [runlog]
//! # scenarios their .runlog.txt goldens; stale/orphaned goldens of every
//! # kind are swept away):
//! cargo run --release --bin craqr-scenario -- --all scenarios --bless
//!
//! # Event-source a run, then replay/audit it offline:
//! cargo run --release --bin craqr-scenario -- record --all scenarios --out runs
//! cargo run --release --bin craqr-scenario -- replay runs/*.runlog.txt
//! cargo run --release --bin craqr-scenario -- replay runs/*.runlog.txt --shards 4
//! cargo run --release --bin craqr-scenario -- resume runs/drift_rate_jump.runlog.txt --at 9
//! cargo run --release --bin craqr-scenario -- diff runs/a.runlog.txt runs/b.runlog.txt
//! ```
//!
//! # Subcommands
//!
//! | subcommand | meaning |
//! |---|---|
//! | `record <specs…> [--all DIR] [--shards N] [--seed S] [--out DIR]` | run each spec live with run-log recording forced on; write `<out>/<name>.runlog.txt` (default `runs/`) |
//! | `replay <logs…> [--shards N]` | re-drive each log with the crowd detached; verify the regenerated inputs, decisions, and sealed report/trace checksums byte-for-byte |
//! | `resume <log> --at K [--shards N]` | rebuild epochs `0..K` (verified against the log record-by-record), continue live to the horizon, verify the run re-converges on the sealed checksums |
//! | `diff <a> <b>` | structural epoch-by-epoch comparison of two logs with first-divergence reporting; exit 1 when they differ |
//! | `salvage <log> [--out FILE] [--resume] [--shards N]` | verify a possibly-torn log: keep the longest valid checksummed prefix, report the tear, optionally rewrite the salvaged prefix (`--out`) and/or resume it live to the horizon (`--resume`) |
//! | `chaos <specs…> [--all DIR] [--shards N] [--out DIR]` | kill-matrix drill: for every crash point × epoch (or just the spec's `[[faults.crash]]` list when present), stream the run to the crash, salvage the torn file, resume it, and assert the recovery re-converges byte-for-byte on an uninterrupted reference run |
//! | `metrics <logs…> [--shards N] [--out FILE]` | replay each committed log with the crowd detached and full instrumentation, merge the registries, and render the Prometheus exposition (to `--out`, linted, or stdout) |
//!
//! # Metrics (`--metrics FILE`)
//!
//! The golden mode plus the `record` and `chaos` subcommands accept
//! `--metrics FILE`: the run is instrumented (clock-derived tier
//! included), every scenario's registry is merged, and the merged
//! Prometheus exposition is linted and written to `FILE`. Instrumentation
//! is byte-inert — reports, traces, and run logs are bit-identical with
//! and without `--metrics` (the built-in cross-mode check compares an
//! instrumented run against an uninstrumented one on every `--metrics`
//! invocation, so the inertness contract is verified each time).
//!
//! # Exit codes
//!
//! | code | meaning |
//! |---|---|
//! | 0 | success (`salvage`: the log was fully intact) |
//! | 1 | generic failure: bad flags, run error, replay divergence, golden mismatch, chaos failure |
//! | 2 | **corrupt** log: not even a checksummed prefix could be salvaged (header damage) |
//! | 3 | **torn** log: a valid checksummed prefix was salvaged, but the tail was lost |
//!
//! Every log-loading subcommand distinguishes 2 from 3, so CI and
//! operators can tell "restore from backup" apart from "salvage and
//! resume" without reading the log.
//!
//! # Golden-corpus flags (no subcommand)
//!
//! | flag | default | meaning |
//! |---|---|---|
//! | `<files…>`       | —              | scenario spec files (`.toml` or `.json`) |
//! | `--all DIR`      | —              | append every spec in `DIR` (sorted) to the file list |
//! | `--shards N`     | one worker per 256 chains, up to the host's cores | run under `Sharded(N)`: at most `N >= 1` shards, one per chain |
//! | `--seed S`       | spec seed      | override every spec's seed |
//! | `--goldens DIR`  | `tests/goldens`| where golden reports live |
//! | `--bless`        | off            | write/overwrite golden files, sweeping stale and orphaned ones |
//! | `--check`        | off            | diff reports against goldens, exit 1 on mismatch or orphaned golden |
//! | `--checksum`     | off            | print only `name checksum` lines |
//! | `--print`        | off            | print each canonical report to stdout |
//! | `--trace`        | off            | print each adaptive trace to stdout |
//! | `--metrics FILE` | off            | instrument every run, write the merged Prometheus exposition to `FILE` |
//! | `--pipeline`     | off            | run on the staged three-thread executor; goldens are still checked (and only ever blessed) from serial bytes |
//!
//! Without `--bless`/`--check`/`--checksum`/`--print`, a one-line summary
//! per scenario is printed. Every run additionally executes the spec under
//! the *other* execution mode and asserts the two canonical reports (and
//! traces, and run logs) are byte-identical — the determinism contract is
//! checked on every invocation, not just in CI. Exceptions: `--checksum`
//! skips the built-in cross-run (that mode exists for *external*
//! serial-vs-sharded diffs, as CI does), and `--bless --seed` is rejected
//! (it would write goldens no `--check` could ever match).
//!
//! With `--bless`/`--check` plus `--all`, goldens are also swept for
//! *orphans*: a `<stem>.golden.txt`/`.trace.txt`/`.runlog.txt` whose
//! scenario no longer exists in the corpus is deleted by `--bless` and
//! fails `--check` — renaming or deleting a spec can no longer leave a
//! silently-unchecked golden behind.

use craqr::core::{CrashPoint, ExecMode};
use craqr::runlog::{diff_logs, parse_salvage, write_atomic, RunLog, Salvage, TornTail};
use craqr::scenario::{
    kill_salvage_resume, replay, resume, scenario_files, Execution, Record, RunPlan, RunTelemetry,
    ScenarioRunner,
};
use craqr::telemetry::lint_exposition;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Exit code for a log whose header is damaged beyond salvage.
const EXIT_CORRUPT: u8 = 2;
/// Exit code for a log with a valid salvageable prefix and a lost tail.
const EXIT_TORN: u8 = 3;

/// A command failure carrying its exit code: 1 generic, 2 corrupt log,
/// 3 torn log.
struct Failure {
    code: u8,
    message: String,
}

impl From<String> for Failure {
    fn from(message: String) -> Self {
        Failure { code: 1, message }
    }
}

impl From<&str> for Failure {
    fn from(message: &str) -> Self {
        Failure { code: 1, message: message.into() }
    }
}

/// Every flag any (sub)command takes, parsed once by [`Flags::parse`].
#[derive(Default)]
struct Flags {
    /// Positional arguments: spec files (after `--all` expansion) or logs.
    files: Vec<PathBuf>,
    /// `--shards N`: run under `Sharded(N)`; without it, the default
    /// executor picks its own width from the chain count.
    mode: ExecMode,
    seed: Option<u64>,
    out: Option<PathBuf>,
    /// `--metrics FILE`: instrument every run and write the merged
    /// Prometheus exposition here.
    metrics: Option<PathBuf>,
    at: Option<usize>,
    resume: bool,
    /// `--pipeline`: drive each primary run on the pipelined executor.
    /// The built-in cross-run stays on the serial executor, so every
    /// invocation re-proves the pipelined bytes against serial ones.
    pipeline: bool,
    goldens: Option<PathBuf>,
    bless: bool,
    check: bool,
    checksum: bool,
    print: bool,
    trace: bool,
    /// `--all` was used, so the file list is a complete corpus and the
    /// golden directory can be swept for orphans.
    swept: bool,
}

impl Flags {
    /// Parses `argv` for `cmd` (empty: golden mode), which accepts only
    /// the space-separated flags in `allowed` and, with `one_log`, a
    /// single positional.
    fn parse(cmd: &str, allowed: &str, one_log: bool, argv: &[String]) -> Result<Self, String> {
        let golden = cmd.is_empty();
        let mut f = Flags::default();
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            let flag = arg.as_str();
            let mut value = || it.next().ok_or_else(|| format!("flag {flag} needs a value"));
            match flag {
                _ if flag.starts_with("--") && !allowed.split(' ').any(|known| known == flag) => {
                    let hint = if golden { " (try --help)" } else { "" };
                    return Err(format!("unknown flag '{flag}'{hint}"));
                }
                "--shards" => {
                    f.mode =
                        ExecMode::Sharded(value()?.parse().map_err(|e| format!("--shards: {e}"))?);
                    f.mode.validate().map_err(|(field, message)| format!("{field}: {message}"))?;
                }
                "--seed" => f.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
                "--at" => f.at = Some(value()?.parse().map_err(|e| format!("--at: {e}"))?),
                "--out" => f.out = Some(PathBuf::from(value()?)),
                "--metrics" => f.metrics = Some(PathBuf::from(value()?)),
                "--goldens" => f.goldens = Some(PathBuf::from(value()?)),
                "--all" => {
                    let dir = PathBuf::from(value()?);
                    let found = scenario_files(&dir).map_err(|e| e.to_string())?;
                    if golden && found.is_empty() {
                        return Err(format!("--all {}: no .toml/.json specs found", dir.display()));
                    }
                    f.files.extend(found);
                    f.swept = true;
                }
                "--resume" => f.resume = true,
                "--pipeline" => f.pipeline = true,
                "--bless" => f.bless = true,
                "--check" => f.check = true,
                "--checksum" => f.checksum = true,
                "--print" => f.print = true,
                "--trace" => f.trace = true,
                extra if one_log && !f.files.is_empty() => {
                    return Err(format!("{cmd} takes exactly one log file, got also '{extra}'"))
                }
                file => f.files.push(PathBuf::from(file)),
            }
        }
        Ok(f)
    }

    /// The execution the flags ask for: `--shards`, `--pipeline`, and the
    /// timing tier iff `--metrics` wants an exposition.
    fn execution(&self) -> Execution {
        Execution { mode: self.mode, pipelined: self.pipeline, timing: self.metrics.is_some() }
    }

    /// The flags as a plan: their execution, `--seed`, recording as `record`.
    fn plan(&self, record: Record) -> RunPlan {
        RunPlan { execution: self.execution(), seed: self.seed, record }
    }
}

/// Reads and salvages a log. A log is plain text, so a byte that is not
/// UTF-8 is damage like any other: the text ends before the first such
/// byte, and every byte from it on joins the torn tail.
fn salvage_log(path: &Path) -> Result<Salvage, Failure> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let valid = std::str::from_utf8(&bytes).map_or_else(|e| e.valid_up_to(), str::len);
    let src = String::from_utf8_lossy(&bytes[..valid]);
    let mut salvage = parse_salvage(&src).map_err(|e| Failure {
        code: EXIT_CORRUPT,
        message: format!("{}: corrupt log, nothing salvageable: {e}", path.display()),
    })?;
    if valid < bytes.len() {
        let torn = salvage.torn.get_or_insert_with(|| TornTail {
            valid_bytes: src.len(),
            discarded_bytes: 0,
            line: src.matches('\n').count() + 1,
            reason: format!("byte {} is not UTF-8", src.len()),
        });
        torn.discarded_bytes += bytes.len() - valid;
    }
    Ok(salvage)
}

/// Loads a log, classifying parse failures: a file whose tail is torn but
/// whose prefix salvages exits 3 (recoverable — run `salvage`), a file
/// that cannot even be salvaged exits 2 (corrupt — restore from backup).
fn load_log(path: &Path) -> Result<RunLog, Failure> {
    let salvage = salvage_log(path)?;
    match salvage.torn {
        None => Ok(salvage.log),
        Some(torn) => Err(Failure {
            code: EXIT_TORN,
            message: format!(
                "{0}: {torn}; {1} epoch(s) salvage cleanly — run `craqr-scenario salvage {0}` \
                 to recover",
                path.display(),
                salvage.log.epochs.len(),
            ),
        }),
    }
}

// ---------------------------------------------------------------------------
// Metrics export
// ---------------------------------------------------------------------------

/// Folds one run's registry into the cross-scenario accumulator
/// (registry merge is commutative, so aggregation order is irrelevant).
fn absorb_metrics(acc: &mut Option<RunTelemetry>, run: Option<&RunTelemetry>) {
    if let Some(run) = run {
        match acc {
            Some(a) => a.absorb(run),
            None => *acc = Some(run.clone()),
        }
    }
}

/// Lints and atomically writes one Prometheus exposition to `path` —
/// `--metrics` output is held to the same format bar CI enforces, at the
/// moment it is produced.
fn write_metrics(path: &Path, telemetry: Option<&RunTelemetry>) -> Result<(), String> {
    let text = telemetry.map(RunTelemetry::render_prometheus).unwrap_or_default();
    if let Err(errors) = lint_exposition(&text) {
        let mut msg = format!("{}: exposition failed lint:", path.display());
        for e in &errors {
            msg.push_str(&format!("\n  {e}"));
        }
        return Err(msg);
    }
    write_atomic(path, &text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote metrics to {} ({} bytes, lint clean)", path.display(), text.len());
    Ok(())
}

// ---------------------------------------------------------------------------
// record / replay / resume / diff subcommands
// ---------------------------------------------------------------------------

fn cmd_record(argv: &[String]) -> Result<(), Failure> {
    let flags = Flags::parse("record", "--shards --seed --out --metrics --all", false, argv)?;
    if flags.files.is_empty() {
        return Err("record: at least one spec file (or --all DIR) is required".into());
    }
    let out = flags.out.clone().unwrap_or_else(|| PathBuf::from("runs"));
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let mut registry: Option<RunTelemetry> = None;
    for file in &flags.files {
        let runner = ScenarioRunner::from_file(file).map_err(|e| e.to_string())?;
        // Crash-safe recording: every sealed epoch block is appended and
        // fsynced as it closes, and the seal is one more fsynced append —
        // a kill at any moment leaves a salvageable prefix, and a kill
        // inside the seal a torn trailer that salvage tears off whole.
        let path = out.join(format!("{}.runlog.txt", runner.spec().name));
        let output = runner
            .run(&flags.plan(Record::Stream(path.clone())))
            .map_err(|e| format!("{}: {e}", file.display()))?;
        absorb_metrics(&mut registry, output.telemetry.as_ref());
        // craqr-lint: allow(W1): internal invariant — a streamed run always yields a log
        let log = output.log.expect("a streamed run always returns a log");
        // The sealed file is the canonical text: its size and last line
        // are the byte count and checksum, with no second render.
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let checksum = text
            .lines()
            .last()
            .and_then(|l| l.strip_prefix("checksum: "))
            // craqr-lint: allow(W1): internal invariant — a sealed log always ends with a checksum line
            .expect("sealed logs end in a checksum line");
        println!(
            "recorded {} ({} epochs, {} responses, {} bytes, checksum {checksum})",
            path.display(),
            log.epochs.len(),
            log.epochs.iter().map(|e| e.responses.len()).sum::<usize>(),
            text.len(),
        );
    }
    if let Some(path) = &flags.metrics {
        write_metrics(path, registry.as_ref())?;
    }
    Ok(())
}

/// `metrics <logs…> [--shards N] [--out FILE]` — detached-replay each
/// committed log with full instrumentation, merge the registries, render
/// the Prometheus exposition.
fn cmd_metrics(argv: &[String]) -> Result<(), Failure> {
    let flags = Flags::parse("metrics", "--shards --out", false, argv)?;
    if flags.files.is_empty() {
        return Err("metrics: at least one .runlog.txt file is required".into());
    }
    let how = flags.execution().timing(true);
    let exec = how.mode;
    let mut registry: Option<RunTelemetry> = None;
    for file in &flags.files {
        let log = load_log(file)?;
        let output = replay(&log, how).map_err(|e| format!("{}: {e}", file.display()))?;
        eprintln!(
            "replayed {} [{exec:?}] events-checksum {:#018x}",
            output.report.name,
            output.telemetry.as_ref().map_or(0, |t| t.section().events_checksum),
        );
        absorb_metrics(&mut registry, output.telemetry.as_ref());
    }
    match &flags.out {
        Some(path) => write_metrics(path, registry.as_ref())?,
        None => {
            print!("{}", registry.as_ref().map(RunTelemetry::render_prometheus).unwrap_or_default())
        }
    }
    Ok(())
}

fn cmd_replay(argv: &[String]) -> Result<(), Failure> {
    let flags = Flags::parse("replay", "--shards", false, argv)?;
    if flags.files.is_empty() {
        return Err("replay: at least one .runlog.txt file is required".into());
    }
    let exec = flags.execution().mode;
    let mut failures = 0usize;
    let mut worst_code = 1u8;
    for file in &flags.files {
        let result = load_log(file).and_then(|log| {
            replay(&log, exec).map_err(|e| Failure::from(format!("{}: {e}", file.display())))
        });
        match result {
            Ok(output) => println!(
                "ok {} [{exec:?}] report {:#018x} trace {}",
                output.report.name,
                output.report.checksum(),
                output.trace.map_or("-".to_string(), |t| format!("{:#018x}", t.checksum())),
            ),
            Err(f) => {
                eprintln!("REPLAY FAILED: {}", f.message);
                // A torn or corrupt input is more actionable than a
                // generic failure: surface the most specific code seen.
                worst_code = worst_code.max(f.code);
                failures += 1;
            }
        }
    }
    if failures > 0 {
        return Err(Failure { code: worst_code, message: format!("{failures} replay(s) failed") });
    }
    Ok(())
}

fn cmd_resume(argv: &[String]) -> Result<(), Failure> {
    let flags = Flags::parse("resume", "--shards --at", true, argv)?;
    let file = flags.files.first().ok_or("resume: a .runlog.txt file is required")?;
    let at = flags.at.ok_or("resume: --at K (epoch boundary to resume from) is required")?;
    let log = load_log(file)?;
    let output =
        resume(&log, flags.execution(), at).map_err(|e| format!("{}: {e}", file.display()))?;
    println!(
        "resumed {} at epoch {at}: re-converged on report {:#018x} trace {}",
        output.report.name,
        output.report.checksum(),
        output.trace.map_or("-".to_string(), |t| format!("{:#018x}", t.checksum())),
    );
    Ok(())
}

fn cmd_diff(argv: &[String]) -> Result<bool, Failure> {
    let files: Vec<&String> = argv.iter().filter(|a| !a.starts_with("--")).collect();
    if files.len() != 2 || argv.len() != 2 {
        return Err("diff: exactly two .runlog.txt files are required".into());
    }
    let a = load_log(Path::new(files[0]))?;
    let b = load_log(Path::new(files[1]))?;
    let diff = diff_logs(&a, &b);
    if diff.identical() {
        println!("identical: {} == {}", files[0], files[1]);
        Ok(true)
    } else {
        print!("{}", diff.render());
        Ok(false)
    }
}

/// `salvage <log> [--out FILE] [--resume] [--shards N]` — verify a
/// possibly-torn log and keep the longest valid checksummed prefix.
///
/// Returns the exit code: 0 when the log was fully intact, [`EXIT_TORN`]
/// when a prefix salvaged but the tail was lost, or `Err` with
/// [`EXIT_CORRUPT`] when not even the header survived.
fn cmd_salvage(argv: &[String]) -> Result<u8, Failure> {
    let flags = Flags::parse("salvage", "--out --resume --shards", true, argv)?;
    let file = flags.files.first().ok_or("salvage: a .runlog.txt file is required")?;
    let salvage = salvage_log(file)?;
    let exit = match &salvage.torn {
        None => {
            println!(
                "intact {}: {} epoch(s), sealed {}",
                file.display(),
                salvage.log.epochs.len(),
                salvage
                    .log
                    .report_checksum
                    .map_or("(no report checksum)".to_string(), |c| format!("{c:#018x}")),
            );
            0
        }
        Some(torn) => {
            println!(
                "torn {}: kept {} epoch(s) / {} valid byte(s), discarded {} byte(s) \
                 from line {} ({})",
                file.display(),
                salvage.log.epochs.len(),
                torn.valid_bytes,
                torn.discarded_bytes,
                torn.line,
                torn.reason,
            );
            EXIT_TORN
        }
    };
    if let Some(out) = &flags.out {
        // The salvaged prefix re-renders as a sealed document (header +
        // verified epochs + trailer), so the repaired file parses
        // cleanly — no salvage pass needed the next time it is read.
        write_atomic(out, &salvage.log.canonical())
            .map_err(|e| format!("{}: {e}", out.display()))?;
        println!("wrote salvaged log to {}", out.display());
    }
    if flags.resume {
        let at = salvage.log.epochs.len();
        let output = resume(&salvage.log, flags.execution(), at)
            .map_err(|e| format!("{}: {e}", file.display()))?;
        println!(
            "resumed {} at epoch {at}: report {:#018x} trace {}",
            output.report.name,
            output.report.checksum(),
            output.trace.map_or("-".to_string(), |t| format!("{:#018x}", t.checksum())),
        );
    }
    Ok(exit)
}

/// One spec's kill matrix: crash at every point of every epoch (or just
/// the spec's `[[faults.crash]]` list), salvage, resume, and require the
/// recovery to re-converge on the uninterrupted reference run.
fn chaos_one(
    file: &Path,
    flags: &Flags,
    out_dir: &Path,
    registry: &mut Option<RunTelemetry>,
) -> Result<(usize, usize), Failure> {
    let runner = ScenarioRunner::from_file(file).map_err(|e| e.to_string())?;
    let spec = runner.spec();
    let mode = flags.execution().mode;
    let name = spec.name.clone();
    let epochs = spec.epochs;

    // The uninterrupted reference: every recovery below must land on
    // exactly these checksums. Under --metrics it is instrumented — the
    // drill's exported registry describes the reference runs (recoveries
    // must converge on them anyway).
    let reference =
        runner.run(&flags.plan(Record::Memory)).map_err(|e| format!("{}: {e}", file.display()))?;
    absorb_metrics(registry, reference.telemetry.as_ref());
    let want_report = reference.report.checksum();
    let want_trace = reference.trace.as_ref().map(|t| t.checksum());

    let matrix: Vec<(CrashPoint, u32)> = match spec.faults.as_ref().filter(|f| !f.crash.is_empty())
    {
        Some(f) => f
            .crash
            .iter()
            .map(|c| {
                let point = CrashPoint::from_name(&c.point)
                    // craqr-lint: allow(W1): internal invariant — spec validation already rejected unknown crash points
                    .expect("validated spec has only known crash points");
                (point, c.epoch)
            })
            .collect(),
        None => {
            (0..epochs).flat_map(|e| CrashPoint::ALL.into_iter().map(move |p| (p, e))).collect()
        }
    };

    let mut kills = 0usize;
    let mut failures = 0usize;
    for &(point, at_epoch) in &matrix {
        kills += 1;
        let crash_path = out_dir.join(format!("{name}.{}.e{at_epoch}.runlog.txt", point.name()));
        let mut fail = |why: String| {
            eprintln!(
                "CHAOS FAILED {name} @ {point} epoch {at_epoch}: {why} \
                 (salvage artifact kept at {})",
                crash_path.display()
            );
            failures += 1;
        };
        let plan = RunPlan::new(mode).record(Record::Stream(crash_path.clone()));
        let recovered = match kill_salvage_resume(&runner, &plan, at_epoch, point) {
            Ok(o) => o,
            Err(why) => {
                fail(why);
                continue;
            }
        };
        let got_trace = recovered.trace.as_ref().map(|t| t.checksum());
        if recovered.report.checksum() != want_report || got_trace != want_trace {
            fail(format!(
                "recovery diverged: report {:#018x} (want {want_report:#018x}), trace {:?} \
                 (want {want_trace:?})",
                recovered.report.checksum(),
                got_trace,
            ));
            continue;
        }
        // Conservation after recovery: the budget laws must hold for the
        // resumed run exactly as for an uninterrupted one.
        if let Some(tenants) = &recovered.report.tenants {
            for row in &tenants.rows {
                let eps = 1e-9;
                if row.peak_epoch_charge > row.capacity + eps
                    || row.committed > row.capacity + eps
                    || row.charged > row.capacity * f64::from(epochs) + eps
                {
                    fail(format!(
                        "tenant '{}' violates conservation after recovery: \
                         peak {} / committed {} / charged {} vs capacity {}",
                        row.name, row.peak_epoch_charge, row.committed, row.charged, row.capacity,
                    ));
                }
            }
        }
        // The drill passed: the torn artifact has served its purpose.
        let _ = std::fs::remove_file(&crash_path);
    }
    Ok((kills, failures))
}

/// `chaos <specs…> [--all DIR] [--shards N] [--out DIR]` — run the
/// kill-salvage-resume drill over each spec, in process.
fn cmd_chaos(argv: &[String]) -> Result<(), Failure> {
    let flags = Flags::parse("chaos", "--shards --out --metrics --all", false, argv)?;
    if flags.files.is_empty() {
        return Err("chaos: at least one spec file (or --all DIR) is required".into());
    }
    let out = flags.out.clone().unwrap_or_else(|| PathBuf::from("runs/chaos"));
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let mut registry: Option<RunTelemetry> = None;
    let mut total_failures = 0usize;
    for file in &flags.files {
        let (kills, failures) = chaos_one(file, &flags, &out, &mut registry)?;
        if failures == 0 {
            println!(
                "chaos ok {}: {kills} kill(s), every salvage+resume re-converged on the \
                 uninterrupted run",
                file.display()
            );
        }
        total_failures += failures;
    }
    if let Some(path) = &flags.metrics {
        write_metrics(path, registry.as_ref())?;
    }
    if total_failures > 0 {
        return Err(format!(
            "{total_failures} chaos kill(s) failed to recover (salvage artifacts kept under {})",
            out.display()
        )
        .into());
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Golden-corpus mode (no subcommand)
// ---------------------------------------------------------------------------

/// Golden mode's flags, with the combinations no run could honour refused.
fn parse_golden(argv: &[String]) -> Result<Flags, String> {
    const ALLOWED: &str = "--shards --seed --goldens --metrics --all --bless --check --checksum \
                           --print --trace --pipeline";
    let args = Flags::parse("", ALLOWED, false, argv)?;
    if args.files.is_empty() {
        return Err("at least one scenario spec file is required (try --help)".into());
    }
    if args.bless && args.check {
        return Err("--bless and --check are mutually exclusive".into());
    }
    if args.bless && args.pipeline {
        return Err("--bless --pipeline is refused: goldens are always blessed from serial runs \
             (pipelining must never be bless-relevant)"
            .into());
    }
    if args.metrics.is_some() && args.pipeline {
        return Err("--metrics and --pipeline are mutually exclusive".into());
    }
    if args.bless && args.seed.is_some() {
        return Err(
            "--bless with --seed would write goldens no --check or test run can ever match \
             (goldens are defined by each spec's own seed)"
                .into(),
        );
    }
    Ok(args)
}

/// One golden artifact kind a scenario may pin.
struct GoldenKind {
    suffix: &'static str,
    what: &'static str,
}

const GOLDEN_KINDS: [GoldenKind; 3] = [
    GoldenKind { suffix: ".golden.txt", what: "report" },
    GoldenKind { suffix: ".trace.txt", what: "adaptive trace" },
    GoldenKind { suffix: ".runlog.txt", what: "run log" },
];

/// Blesses or checks one golden artifact. `fresh` is `None` when the
/// scenario does not produce this kind (an existing file is then stale).
/// Returns `false` on a check failure.
fn golden_artifact(
    bless: bool,
    scenario: &str,
    what: &str,
    path: &Path,
    fresh: Option<&str>,
) -> Result<bool, String> {
    if bless {
        match fresh {
            Some(text) => {
                if let Some(parent) = path.parent() {
                    let _ = std::fs::create_dir_all(parent);
                }
                // Atomic: a kill mid-bless can never leave a truncated
                // golden that every later --check would chase.
                write_atomic(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
                println!("blessed {}", path.display());
            }
            // The scenario stopped producing this artifact: a leftover
            // golden would rot unchecked, so blessing deletes it.
            None => {
                if path.exists() {
                    std::fs::remove_file(path).map_err(|e| format!("{}: {e}", path.display()))?;
                    println!("removed stale {}", path.display());
                }
            }
        }
        return Ok(true);
    }
    // --check
    match fresh {
        None if path.exists() => {
            eprintln!(
                "STALE {scenario}: {} exists but the scenario produces no {what} \
                 (re-bless to remove it)",
                path.display()
            );
            Ok(false)
        }
        None => Ok(true),
        Some(text) => match std::fs::read_to_string(path) {
            Ok(golden) if golden == text => Ok(true),
            Ok(golden) => {
                eprintln!(
                    "MISMATCH {scenario}: {what} differs from {} \
                     (run with --bless after verifying the change is intentional)",
                    path.display()
                );
                let (g_lines, r_lines): (Vec<&str>, Vec<&str>) =
                    (golden.lines().collect(), text.lines().collect());
                let diff_at = g_lines
                    .iter()
                    .zip(&r_lines)
                    .position(|(g, r)| g != r)
                    // One is a line-prefix of the other: the first diff is
                    // the first unmatched line.
                    .unwrap_or_else(|| g_lines.len().min(r_lines.len()));
                fn line<'a>(v: &[&'a str], at: usize) -> &'a str {
                    v.get(at).copied().unwrap_or("<end of file>")
                }
                eprintln!(
                    "  first diff at line {}:\n  - {}\n  + {}",
                    diff_at + 1,
                    line(&g_lines, diff_at),
                    line(&r_lines, diff_at)
                );
                Ok(false)
            }
            Err(e) => {
                eprintln!("MISSING {scenario}: {}: {e}", path.display());
                Ok(false)
            }
        },
    }
}

/// Sweeps the golden directory for artifacts whose scenario no longer
/// exists in the corpus. Returns the number of check failures.
fn sweep_orphans(goldens: &Path, bless: bool, known: &BTreeSet<String>) -> Result<usize, String> {
    let entries = match std::fs::read_dir(goldens) {
        Ok(entries) => entries,
        // No goldens directory at all: nothing to sweep.
        Err(_) => return Ok(0),
    };
    let mut failures = 0usize;
    let mut names: Vec<String> =
        entries.filter_map(|e| e.ok().and_then(|e| e.file_name().into_string().ok())).collect();
    names.sort();
    for name in names {
        let Some(stem) = GOLDEN_KINDS.iter().find_map(|k| name.strip_suffix(k.suffix)) else {
            continue; // not a golden artifact
        };
        if known.contains(stem) {
            continue;
        }
        let path = goldens.join(&name);
        if bless {
            std::fs::remove_file(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            println!("removed orphaned {} (no scenario '{stem}' in the corpus)", path.display());
        } else {
            eprintln!(
                "ORPHAN {}: no scenario '{stem}' in the corpus — a renamed or deleted spec \
                 left its golden behind (re-bless to sweep it)",
                path.display()
            );
            failures += 1;
        }
    }
    Ok(failures)
}

fn golden_mode(argv: &[String]) -> ExitCode {
    let args = match parse_golden(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let goldens = args.goldens.clone().unwrap_or_else(|| PathBuf::from("tests/goldens"));
    // Under --metrics the primary run is instrumented while the cross-mode
    // run below stays uninstrumented — so the byte-inertness contract
    // (telemetry never perturbs a checksummed artifact) is re-verified by
    // the existing equality check on every invocation.
    let plan = args.plan(Record::AsSpec);
    let exec = plan.execution.mode;
    // The cross-check mode: whatever the primary isn't.
    let cross = if args.mode != ExecMode::Serial { ExecMode::Serial } else { ExecMode::Sharded(4) };
    let cross_plan = RunPlan { seed: args.seed, ..RunPlan::new(cross) };

    let mut failures = 0usize;
    let mut known: BTreeSet<String> = BTreeSet::new();
    let mut registry: Option<RunTelemetry> = None;
    for file in &args.files {
        let name = file.display();
        let runner = match ScenarioRunner::from_file(file) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {e}");
                failures += 1;
                continue;
            }
        };
        let output = match runner.run(&plan) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("error: {name}: {e}");
                failures += 1;
                continue;
            }
        };
        absorb_metrics(&mut registry, output.telemetry.as_ref());
        // Verify the determinism contract against the other mode — except
        // under --checksum, whose whole purpose is an *external* comparison
        // (CI diffs a serial and a sharded invocation), so the built-in
        // cross-run would only double the work. Adaptive traces and run
        // logs are held to the same byte-identity bar as reports.
        if !args.checksum {
            match runner.run(&cross_plan) {
                Ok(other)
                    if other.report.canonical() == output.report.canonical()
                        && other.trace.as_ref().map(|t| t.canonical())
                            == output.trace.as_ref().map(|t| t.canonical())
                        && other.log.as_ref().map(|l| l.canonical())
                            == output.log.as_ref().map(|l| l.canonical()) => {}
                Ok(_) => {
                    eprintln!(
                        "error: {name}: {exec:?} and {cross:?} runs diverge — determinism broken"
                    );
                    failures += 1;
                    continue;
                }
                Err(e) => {
                    eprintln!("error: {name}: cross-mode run failed: {e}");
                    failures += 1;
                    continue;
                }
            }
        }

        let report = &output.report;
        let scenario = report.name.clone();
        known.insert(scenario.clone());
        if args.checksum {
            match &output.trace {
                Some(t) => {
                    println!("{scenario} {:#018x} trace {:#018x}", report.checksum(), t.checksum())
                }
                None => println!("{scenario} {:#018x}", report.checksum()),
            }
        } else if args.print {
            print!("{}", report.canonical());
        }
        if args.trace {
            match &output.trace {
                Some(t) => print!("{}", t.canonical()),
                None => println!("{scenario}: no [adaptive] block, no trace"),
            }
        }

        if args.bless || args.check {
            let artifacts: [(&GoldenKind, Option<String>); 3] = [
                (&GOLDEN_KINDS[0], Some(report.canonical())),
                (&GOLDEN_KINDS[1], output.trace.as_ref().map(|t| t.canonical())),
                (&GOLDEN_KINDS[2], output.log.as_ref().map(|l| l.canonical())),
            ];
            let mut ok = true;
            for (kind, fresh) in &artifacts {
                let path = goldens.join(format!("{scenario}{}", kind.suffix));
                match golden_artifact(args.bless, &scenario, kind.what, &path, fresh.as_deref()) {
                    Ok(artifact_ok) => ok &= artifact_ok,
                    Err(e) => {
                        eprintln!("error: {e}");
                        ok = false;
                    }
                }
            }
            if args.check {
                if ok {
                    println!("ok {scenario} ({:#018x})", report.checksum());
                } else {
                    failures += 1;
                }
            } else if !ok {
                failures += 1;
            }
        } else if !args.checksum && !args.print {
            let delivered: usize = report.queries.iter().map(|q| q.delivered).sum();
            let tenancy = report.tenants.as_ref().map_or(String::new(), |t| {
                let admitted: u32 = t.rows.iter().map(|r| r.admitted).sum();
                let rejected: u32 = t.rows.iter().map(|r| r.rejected).sum();
                format!(", {} tenant(s) ({admitted} admitted / {rejected} rejected)", t.rows.len())
            });
            println!(
                "{scenario}: {} epochs, {} sent, {} delivered{tenancy}, checksum {:#018x}",
                report.epochs.len(),
                report.totals.sent,
                delivered,
                report.checksum()
            );
        }
    }

    // Orphan sweep: only when the file list is a complete corpus (--all)
    // and every spec processed cleanly. A spec that failed to parse or
    // run never landed in `known`, so sweeping would misreport its
    // perfectly valid goldens as orphans (and bless would delete them —
    // destroying evidence); the run is already failing loudly anyway.
    if args.swept && (args.check || args.bless) && failures == 0 {
        match sweep_orphans(&goldens, args.bless, &known) {
            Ok(orphans) => failures += orphans,
            Err(e) => {
                eprintln!("error: {e}");
                failures += 1;
            }
        }
    }

    if let Some(path) = &args.metrics {
        if let Err(e) = write_metrics(path, registry.as_ref()) {
            eprintln!("error: {e}");
            failures += 1;
        }
    }

    if failures > 0 {
        eprintln!("{failures} scenario(s)/golden(s) failed");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|arg| arg == "--help" || arg == "-h") {
        println!("see the doc comment at the top of src/bin/craqr-scenario.rs for usage");
        return ExitCode::SUCCESS;
    }
    let result: Result<u8, Failure> = match argv.first().map(String::as_str) {
        Some("record") => cmd_record(&argv[1..]).map(|()| 0),
        Some("replay") => cmd_replay(&argv[1..]).map(|()| 0),
        Some("resume") => cmd_resume(&argv[1..]).map(|()| 0),
        Some("diff") => cmd_diff(&argv[1..]).map(|same| u8::from(!same)),
        Some("salvage") => cmd_salvage(&argv[1..]),
        Some("chaos") => cmd_chaos(&argv[1..]).map(|()| 0),
        Some("metrics") => cmd_metrics(&argv[1..]).map(|()| 0),
        _ => return golden_mode(&argv),
    };
    match result {
        Ok(code) => ExitCode::from(code),
        Err(f) => {
            eprintln!("error: {}", f.message);
            ExitCode::from(f.code)
        }
    }
}
