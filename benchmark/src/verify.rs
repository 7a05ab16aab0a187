//! The output check: one pass per (workload, seed) feeding `epochs_failed`.
//!
//! No absolute checksum is pinned anywhere — re-blessing goldens elsewhere
//! never requires touching the benchmark. What is checked is agreement:
//! the same seed must produce the same epoch reports (shard `busy_ns`
//! zeroed) and the same recorded epoch inputs under serial, `Sharded(2)`,
//! pipelined and replayed execution; a durable log must re-parse, be
//! sealed, and equal what was recorded; and no tenant's charge may exceed
//! its pool in any epoch.

use crate::adapter::{self, Record, Recording, RunPlan, RunResult};
use crate::measure::{rep, Inputs, Tally, TempDir};

/// The runs the check made, kept for the per-layer metrics that can reuse
/// them (the recorded log, the sharded reports).
pub struct Verified {
    pub reference: RunResult,
    pub sharded: RunResult,
    /// The reference run's recorded inputs, decoded for replay.
    pub recording: Recording,
}

/// Epochs on which `other` differs from `reference`: a differing report, a
/// differing recorded epoch, or an epoch only one of the two has.
pub fn mismatched_epochs(reference: &RunResult, other: &RunResult) -> u64 {
    let (a, b) = (&reference.reports, &other.reports);
    let empty = Vec::new();
    let (la, lb) = (
        reference.log.as_ref().map_or(&empty, |l| &l.epochs),
        other.log.as_ref().map_or(&empty, |l| &l.epochs),
    );
    let n = a.len().max(b.len()).max(la.len()).max(lb.len());
    (0..n)
        .filter(|&i| {
            let reports_agree = match (a.get(i), b.get(i)) {
                (Some(x), Some(y)) => adapter::normalized(x) == adapter::normalized(y),
                _ => false,
            };
            !reports_agree || la.get(i) != lb.get(i)
        })
        .count() as u64
}

fn recorded(
    inputs: &Inputs,
    shards: usize,
    plan: RunPlan<'_>,
    tally: &mut Tally,
) -> Result<RunResult, String> {
    Ok(rep(inputs, shards, plan, tally)?.result)
}

/// Runs the check. Each variant's epochs are attempted epochs; each epoch
/// on which a variant disagrees with the serial reference is a failed one.
pub fn verify(inputs: &Inputs, tmp: &TempDir, tally: &mut Tally) -> Result<Verified, String> {
    let durable_path = tmp.path().join("verify.runlog.txt");
    let input_log = inputs.log_text.as_deref().map(adapter::parse_log).transpose()?;
    let input_recording = input_log.as_ref().map(Recording::from_log);
    let record =
        if inputs.workload.durable { Record::Stream(&durable_path) } else { Record::Memory };
    let base = RunPlan {
        pipelined: false,
        replay: input_recording.as_ref(),
        record,
        timer: false,
        traced: false,
    };

    let reference = recorded(inputs, 1, base, tally)?;
    let horizon = reference.reports.len() as u64;
    let over_pool = reference
        .reports
        .iter()
        .filter(|r| adapter::worst_pool_share(r, &reference.pools) > 1.0 + 1e-9)
        .count() as u64;
    tally.fail(over_pool, format!("{over_pool} epochs charged a tenant beyond its pool"));

    let Some(log) = reference.log.as_ref() else {
        return Err("the reference run recorded no log".into());
    };
    if inputs.workload.durable {
        // The durable artefact itself: what is on disk must parse, carry
        // the seal, and be the log the recorder held in memory.
        let on_disk = std::fs::read_to_string(&durable_path)
            .map_err(|e| format!("{}: {e}", durable_path.display()))
            .and_then(|text| adapter::parse_log(&text));
        match on_disk {
            Ok(parsed) if parsed == *log && parsed.report_checksum.is_some() => {}
            Ok(_) => tally
                .fail(horizon, "the durable log re-parses to a different or unsealed log".into()),
            Err(e) => tally.fail(horizon, format!("the durable log does not re-parse: {e}")),
        }
    }

    let compare = |name: &str, other: &RunResult, tally: &mut Tally| {
        let bad = mismatched_epochs(&reference, other);
        tally.fail(bad, format!("{name}: {bad} epochs differ from the serial run"));
    };
    let sharded = recorded(inputs, 2, base, tally)?;
    compare("Sharded(2)", &sharded, tally);
    let pipelined = recorded(inputs, 1, RunPlan { pipelined: true, ..base }, tally)?;
    compare("pipelined", &pipelined, tally);

    // Replayed: a live workload's reference recording is re-driven through
    // a detached server; a replay workload's re-recorded epochs must equal
    // the epochs of the log it was given.
    let recording = Recording::from_log(log);
    match &input_log {
        None => {
            let plan = RunPlan { replay: Some(&recording), record: Record::Memory, ..base };
            let replayed = recorded(inputs, 1, plan, tally)?;
            compare("replayed", &replayed, tally);
        }
        Some(input) => {
            tally.attempted += horizon;
            let bad = (0..input.epochs.len().max(log.epochs.len()))
                .filter(|&i| input.epochs.get(i) != log.epochs.get(i))
                .count() as u64;
            tally.fail(bad, format!("replay: {bad} re-recorded epochs differ from the input log"));
        }
    }
    Ok(Verified { reference, sharded, recording })
}

/// The negative self-test: the check must count failed epochs when it is
/// shown a run under a different seed, and when one response is dropped
/// from the replay inputs. Returns an error when it does not.
pub fn self_test(inputs: &Inputs, other_seed: &Inputs) -> Result<(), String> {
    let plan = RunPlan {
        pipelined: false,
        replay: None,
        record: Record::Memory,
        timer: false,
        traced: false,
    };
    let mut scratch = Tally::default();
    let reference = recorded(inputs, 1, plan, &mut scratch)?;
    let other = recorded(other_seed, 1, plan, &mut scratch)?;
    if mismatched_epochs(&reference, &other) == 0 {
        return Err("self-test: a run under a different seed was not counted as failed".into());
    }
    let log = reference.log.as_ref().ok_or("self-test: no log recorded")?;
    let mut tampered = Recording::from_log(log);
    let victim = (0..tampered.epochs())
        .rev()
        .find(|&e| !log.epochs[e].responses.is_empty())
        .ok_or("self-test: the recording holds no response to drop")?;
    tampered.drop_one_response(victim);
    let replayed = recorded(inputs, 1, RunPlan { replay: Some(&tampered), ..plan }, &mut scratch)?;
    if mismatched_epochs(&reference, &replayed) == 0 {
        return Err(
            "self-test: a replay with one response dropped was not counted as failed".into()
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    fn smoke_inputs(name: &str, seed: u64) -> Inputs {
        let workload = workloads::find(name).unwrap();
        Inputs { workload, spec_toml: workload.spec_toml(seed, true), log_text: None }
    }

    #[test]
    fn a_correct_program_passes_and_fails_nothing() {
        let tmp = TempDir::create().unwrap();
        let mut tally = Tally::default();
        verify(&smoke_inputs("durable_serial", 5), &tmp, &mut tally).unwrap();
        assert_eq!(tally.failed, 0, "{:?}", tally.notes);
        // The serial reference plus three variants, twelve epochs each.
        assert_eq!(tally.attempted, 4 * 12);
    }

    #[test]
    fn the_check_can_fail() {
        self_test(&smoke_inputs("durable_serial", 5), &smoke_inputs("durable_serial", 6)).unwrap();
        // A run agrees with itself, so the failures above are not vacuous.
        let plan = RunPlan {
            pipelined: false,
            replay: None,
            record: Record::Memory,
            timer: false,
            traced: false,
        };
        let mut scratch = Tally::default();
        let inputs = smoke_inputs("durable_serial", 5);
        let (a, b) = (
            recorded(&inputs, 1, plan, &mut scratch).unwrap(),
            recorded(&inputs, 1, plan, &mut scratch).unwrap(),
        );
        assert_eq!(mismatched_epochs(&a, &b), 0);
    }
}
