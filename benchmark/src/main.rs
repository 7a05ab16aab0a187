//! The repository's benchmark. See `benchmark/README.md` for the glossary.
//!
//! ```text
//! craqr-benchmark --workload W --seed S --seconds N --trace 0|1   one run, result line last
//! craqr-benchmark run   --workload W --seed S [--seconds N]       = --trace 0
//! craqr-benchmark trace --workload W --seed S [--trace-out FILE]  = --trace 1
//! craqr-benchmark all --seed S [--seconds N] [--out FILE]         every workload, both runs,
//!                                                                  each in its own process
//! craqr-benchmark compare A.json B.json                           bounds applied, row per metric
//! craqr-benchmark --smoke                                         tiny horizons, every check
//! ```

mod adapter;
mod alloc;
mod compare;
mod measure;
mod metrics;
mod report;
mod spans;
mod stats;
mod trace;
mod verify;
mod workloads;

use measure::{Tally, TempDir};
use report::Outcome;
use stats::median;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

#[derive(Default)]
struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    smoke: bool,
    out: Option<PathBuf>,
    detail: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    positional: Vec<String>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts { seed: 1, ..Default::default() };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => o.workload = Some(value()?),
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => o.traced = value()? != "0",
            "--smoke" => o.smoke = true,
            "--out" => o.out = Some(PathBuf::from(value()?)),
            "--detail" => o.detail = Some(PathBuf::from(value()?)),
            "--trace-out" => o.trace_out = Some(PathBuf::from(value()?)),
            other if other.starts_with("--") => return Err(format!("unknown flag '{other}'")),
            other => o.positional.push(other.to_string()),
        }
    }
    Ok(o)
}

/// The run's measuring time: as asked, else the manifest's, else a sliver
/// under `--smoke`.
fn seconds_of(o: &Opts) -> Result<f64, String> {
    Ok(match o.seconds {
        Some(s) => s,
        None if o.smoke => 0.3,
        None => metrics::manifest()?.run_seconds,
    })
}

/// One workload, one seed, one run (end-to-end or traced): generate the
/// inputs, measure, check the outputs.
fn one(o: &Opts) -> Result<Outcome, String> {
    let name = o.workload.as_deref().ok_or("--workload is required")?;
    let workload = workloads::find(name).ok_or_else(|| {
        let known: Vec<_> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload '{name}' (known: {})", known.join(", "))
    })?;
    let seconds = seconds_of(o)?;
    let tmp = TempDir::create()?;
    let inputs = measure::generate(workload, o.seed, o.smoke, &tmp)?;
    let mut tally = Tally::default();
    let mut samples = BTreeMap::new();

    let (defs, values) = if o.traced {
        let verified = verify::verify(&inputs, &tmp, &mut tally)?;
        let traced = trace::traced(&inputs, &verified, seconds, &tmp, &mut tally)?;
        if let Some(path) = &o.trace_out {
            std::fs::write(path, spans::to_json(&traced.spans))
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        tally.notes.extend(traced.notes);
        (&metrics::PER_LAYER[..], traced.values)
    } else {
        // Measure first, check afterwards: the check's runs must not show
        // in the measured process's peak RSS.
        let e = measure::end_to_end(&inputs, seconds, &tmp, &mut tally)?;
        verify::verify(&inputs, &tmp, &mut tally)?;
        let values = metrics::Values::from([
            ("epochs_per_s", median(&e.epochs_per_s)),
            ("epoch_ms_p50", median(&e.epoch_ms_p50)),
            ("setup_s", median(&e.setup_s)),
            ("peak_rss_mb", e.peak_rss_mb),
            ("rate_fidelity", e.rate_fidelity),
        ]);
        tally.notes.push(format!(
            "medians over {} repetitions of {} epochs ({} epochs timed), {} set-ups; timings are \
             scaled to the nominal host, this host ran at {:.3} of its speed (raw epochs/s {:.3})",
            e.epochs_per_s.len(),
            e.last.reports.len(),
            e.epochs_timed,
            e.setup_s.len(),
            e.host_speed,
            median(&e.epochs_per_s) * e.host_speed
        ));
        samples.insert("epochs_per_s", e.epochs_per_s);
        samples.insert("epoch_ms_p50", e.epoch_ms_p50);
        samples.insert("setup_s", e.setup_s);
        (&metrics::END_TO_END[..], values)
    };
    Ok(Outcome {
        workload: workload.name,
        seed: o.seed,
        traced: o.traced,
        defs,
        values,
        samples,
        attempted: tally.attempted,
        failed: tally.failed,
        notes: tally.notes,
    })
}

/// Runs `one`, prints the table and then the result line, writes the
/// detail fragment when asked.
fn run_one(o: &Opts) -> Result<ExitCode, String> {
    let outcome = one(o)?;
    print!("{}", outcome.table());
    if let Some(path) = &o.detail {
        std::fs::write(path, outcome.detail()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", outcome.contract_line());
    Ok(if outcome.correct() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn governor() -> String {
    std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
        .map_or_else(|_| "unreadable".into(), |g| g.trim().to_string())
}

/// Every workload, end-to-end then traced, each run in a child process of
/// its own; the fragments are assembled into one result file.
fn all(o: &Opts) -> Result<ExitCode, String> {
    let seconds = seconds_of(o)?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let tmp = TempDir::create()?;
    let (mut fragments, mut ok) = (Vec::new(), true);
    for w in &workloads::WORKLOADS {
        for traced in [false, true] {
            let detail = tmp.path().join(format!("{}.{}.json", w.name, traced as u8));
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", w.name, "--seed", &o.seed.to_string()])
                .args([
                    "--seconds",
                    &seconds.to_string(),
                    "--trace",
                    if traced { "1" } else { "0" },
                ])
                .arg("--detail")
                .arg(&detail);
            if o.smoke {
                cmd.arg("--smoke");
            }
            let status = cmd.status().map_err(|e| format!("{}: {e}", exe.display()))?;
            ok &= status.success();
            match std::fs::read_to_string(&detail) {
                Ok(fragment) => fragments.push(fragment),
                Err(e) => {
                    ok = false;
                    eprintln!("{} (traced: {traced}) left no result: {e}", w.name);
                }
            }
        }
    }
    if o.smoke {
        // The check must be able to fail: show it a different seed and a
        // replay with a response dropped.
        let w = workloads::find("durable_serial").expect("a workload of this name exists");
        let a = measure::generate(w, o.seed, true, &tmp)?;
        let b = measure::generate(w, o.seed + 1, true, &tmp)?;
        verify::self_test(&a, &b)?;
        println!(
            "self-test: a different seed and a dropped response are both counted as failed epochs"
        );
    }
    let result = format!(
        "{{\"schema\":1,\"seed\":{},\"seconds\":{seconds:?},\"smoke\":{},\"host\":{{\"nproc\":{},\"governor\":\"{}\"}},\"runs\":[\n{}\n]}}\n",
        o.seed,
        o.smoke,
        trace::host_cpus(),
        governor(),
        fragments.join(",\n")
    );
    let out = match &o.out {
        Some(path) => path.clone(),
        None => {
            let dir = measure::target_dir()?.join("bench-out");
            std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            dir.join(format!("result-seed{}.json", o.seed))
        }
    };
    std::fs::write(&out, result).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("result: {}", out.display());
    Ok(if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c) if !c.starts_with("--") => (c, &args[1..]),
        _ => ("", args),
    };
    let mut o = parse_opts(rest)?;
    match command {
        // The contract's form: flags only.
        "" if o.workload.is_some() => run_one(&o),
        "" if o.smoke => all(&o),
        "run" => run_one(&o),
        "trace" => {
            o.traced = true;
            run_one(&o)
        }
        "all" => all(&o),
        "compare" => match o.positional.as_slice() {
            [a, b] => compare::compare(a, b).map(ExitCode::from),
            _ => Err("compare takes two result files".into()),
        },
        // Workload generation for replay workloads, in a process of its own.
        "record-inputs" => match o.positional.as_slice() {
            [spec, out] => {
                let toml = std::fs::read_to_string(spec).map_err(|e| format!("{spec}: {e}"))?;
                std::fs::write(out, measure::record_live(&toml)?)
                    .map_err(|e| format!("{out}: {e}"))?;
                Ok(ExitCode::SUCCESS)
            }
            _ => Err("record-inputs takes a spec file and an output file".into()),
        },
        _ => Err("usage: craqr-benchmark [run|trace|all|compare] [--workload W] [--seed S] \
                  [--seconds N] [--trace 0|1] [--smoke] [--out FILE] [--trace-out FILE]"
            .into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    dispatch(&args).unwrap_or_else(|e| {
        eprintln!("craqr-benchmark: {e}");
        ExitCode::from(2)
    })
}
