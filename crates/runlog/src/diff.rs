//! Structural comparison of two run logs with first-divergence reporting.
//!
//! A byte diff of two logs tells you *that* they differ; this module
//! tells you **where the runs diverged**: the first epoch whose inputs
//! disagree, and which record inside it (shift, dispatch outcome, the
//! n-th response, the n-th control action). That is the primary forensic
//! tool for "the replay no longer matches the recording" and "these two
//! builds made different decisions from the same world".

use crate::codec::{write_action, write_admission, write_charge, write_response, write_shift};
use crate::log::{EpochRecord, RunLog};
use std::fmt;

/// Field-level differences inside one epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochDiff {
    /// The epoch index.
    pub epoch: u64,
    /// Human-readable difference lines, in record order (`a` is the left
    /// log, `b` the right).
    pub details: Vec<String>,
}

/// The structural difference between two logs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LogDiff {
    /// Header-level differences (scenario, seed, spec, epoch counts,
    /// recorded final checksums).
    pub header: Vec<String>,
    /// Differing epochs over the common prefix, ascending.
    pub epochs: Vec<EpochDiff>,
}

impl LogDiff {
    /// `true` when the two logs are structurally identical.
    pub fn identical(&self) -> bool {
        self.header.is_empty() && self.epochs.is_empty()
    }

    /// The first epoch whose inputs diverge, if any.
    pub fn first_divergence(&self) -> Option<&EpochDiff> {
        self.epochs.first()
    }

    /// A human-readable summary, one difference per line; empty string
    /// when identical.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        for h in &self.header {
            let _ = writeln!(s, "{h}");
        }
        if let Some(first) = self.first_divergence() {
            let _ = writeln!(s, "first divergence at epoch {}:", first.epoch);
            for d in &first.details {
                let _ = writeln!(s, "  {d}");
            }
            let later = self.epochs.len() - 1;
            if later > 0 {
                let _ = writeln!(s, "({later} later epoch(s) also differ)");
            }
        }
        s
    }
}

impl fmt::Display for LogDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.identical() {
            write!(f, "logs are identical")
        } else {
            write!(f, "{}", self.render().trim_end())
        }
    }
}

/// Compares two same-length record vectors, reporting count mismatch or
/// the first differing element rendered in on-disk syntax by the codec's
/// line writer `write`.
fn diff_records<T: PartialEq>(
    what: &str,
    a: &[T],
    b: &[T],
    write: fn(&mut String, &T),
    out: &mut Vec<String>,
) {
    if a.len() != b.len() {
        out.push(format!("{what} count: {} vs {}", a.len(), b.len()));
    }
    if let Some(i) = a.iter().zip(b).position(|(x, y)| x != y) {
        let line = |r: &T| {
            let mut s = String::new();
            write(&mut s, r);
            s
        };
        out.push(format!("{what}[{i}]: '{}' vs '{}'", line(&a[i]), line(&b[i])));
    }
}

/// Structural differences between two epoch records (empty when equal).
pub fn diff_epoch(a: &EpochRecord, b: &EpochRecord) -> Vec<String> {
    let mut details = Vec::new();
    if a.epoch != b.epoch {
        details.push(format!("epoch index: {} vs {}", a.epoch, b.epoch));
    }
    diff_records("shift", &a.shifts, &b.shifts, write_shift, &mut details);
    if a.requested != b.requested {
        details.push(format!("dispatch requested: {} vs {}", a.requested, b.requested));
    }
    if a.sent != b.sent {
        details.push(format!("dispatch sent: {} vs {}", a.sent, b.sent));
    }
    if (a.dropped, a.delayed, a.duplicated) != (b.dropped, b.delayed, b.duplicated) {
        details.push(format!(
            "faults: dropped={} delayed={} duplicated={} vs dropped={} delayed={} duplicated={}",
            a.dropped, a.delayed, a.duplicated, b.dropped, b.delayed, b.duplicated
        ));
    }
    diff_records("response", &a.responses, &b.responses, write_response, &mut details);
    diff_records("action", &a.actions, &b.actions, write_action, &mut details);
    diff_records("charge", &a.charges, &b.charges, write_charge, &mut details);
    details
}

fn fmt_opt_crc(c: Option<u64>) -> String {
    c.map_or("-".to_string(), |c| format!("{c:#018x}"))
}

/// Compares two logs structurally. Epoch differences are reported over
/// the common prefix; a length mismatch lands in the header section.
pub fn diff_logs(a: &RunLog, b: &RunLog) -> LogDiff {
    let mut diff = LogDiff::default();
    if a.scenario != b.scenario {
        diff.header.push(format!("scenario: '{}' vs '{}'", a.scenario, b.scenario));
    }
    if a.seed != b.seed {
        diff.header.push(format!("seed: {} vs {}", a.seed, b.seed));
    }
    if a.spec_toml != b.spec_toml {
        let first =
            a.spec_toml.lines().zip(b.spec_toml.lines()).position(|(x, y)| x != y).map_or_else(
                || "one spec is a prefix of the other".to_string(),
                |i| {
                    format!(
                        "first differing spec line {}: '{}' vs '{}'",
                        i + 1,
                        a.spec_toml.lines().nth(i).unwrap_or(""),
                        b.spec_toml.lines().nth(i).unwrap_or("")
                    )
                },
            );
        diff.header.push(format!("embedded spec differs ({first})"));
    }
    diff_records("admission", &a.admissions, &b.admissions, write_admission, &mut diff.header);
    if a.epochs.len() != b.epochs.len() {
        diff.header.push(format!("epoch count: {} vs {}", a.epochs.len(), b.epochs.len()));
    }
    if a.report_checksum != b.report_checksum {
        diff.header.push(format!(
            "report-checksum: {} vs {}",
            fmt_opt_crc(a.report_checksum),
            fmt_opt_crc(b.report_checksum)
        ));
    }
    if a.trace_checksum != b.trace_checksum {
        diff.header.push(format!(
            "trace-checksum: {} vs {}",
            fmt_opt_crc(a.trace_checksum),
            fmt_opt_crc(b.trace_checksum)
        ));
    }
    for (ea, eb) in a.epochs.iter().zip(&b.epochs) {
        let details = diff_epoch(ea, eb);
        if !details.is_empty() {
            diff.epochs.push(EpochDiff { epoch: ea.epoch, details });
        }
    }
    diff
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{ActionRecord, ResponseRecord, ShiftEvent, ValueRecord};

    fn log() -> RunLog {
        RunLog {
            scenario: "d".into(),
            seed: 3,
            spec_toml: "name = \"d\"\n".into(),
            admissions: vec![crate::log::AdmissionRecord {
                tenant: 0,
                submission: 0,
                demand: 5.0,
                committed: 0.0,
                capacity: 10.0,
                admitted: true,
            }],
            epochs: (0..3)
                .map(|epoch| EpochRecord {
                    epoch,
                    shifts: if epoch == 1 {
                        vec![ShiftEvent::Participation { factor: 2.0 }]
                    } else {
                        vec![]
                    },
                    requested: 10 + epoch,
                    sent: 10 + epoch,
                    dropped: 0,
                    delayed: 0,
                    duplicated: 0,
                    responses: vec![ResponseRecord {
                        sensor: epoch,
                        attr: 0,
                        t: epoch as f64,
                        x: 0.5,
                        y: 0.5,
                        value: ValueRecord::Float(1.5),
                        issued_at: 0.0,
                    }],
                    actions: vec![],
                    charges: vec![crate::log::ChargeRecord { tenant: 0, spent: 2.5 }],
                })
                .collect(),
            report_checksum: Some(1),
            trace_checksum: None,
        }
    }

    #[test]
    fn identical_logs_diff_empty() {
        let d = diff_logs(&log(), &log());
        assert!(d.identical(), "{d}");
        assert_eq!(d.render(), "");
    }

    #[test]
    fn first_divergence_names_the_epoch_and_record() {
        let a = log();
        let mut b = log();
        b.epochs[1].responses[0].value = ValueRecord::Float(2.5);
        b.epochs[2].sent = 99;
        let d = diff_logs(&a, &b);
        assert!(!d.identical());
        let first = d.first_divergence().unwrap();
        assert_eq!(first.epoch, 1);
        assert!(first.details[0].contains("response[0]"), "{:?}", first.details);
        assert!(first.details[0].contains("v=f1.5"), "{:?}", first.details);
        assert_eq!(d.epochs.len(), 2);
        assert!(d.render().contains("first divergence at epoch 1"), "{}", d.render());
        assert!(d.render().contains("1 later epoch(s)"), "{}", d.render());
    }

    #[test]
    fn header_level_differences_are_reported() {
        let a = log();
        let mut b = log();
        b.seed = 4;
        b.spec_toml = "name = \"e\"\n".into();
        b.epochs.truncate(2);
        b.report_checksum = None;
        let d = diff_logs(&a, &b);
        assert_eq!(d.header.len(), 4, "{:?}", d.header);
        assert!(d.header.iter().any(|h| h.contains("seed")));
        assert!(d.header.iter().any(|h| h.contains("epoch count: 3 vs 2")));
        assert!(d.header.iter().any(|h| h.contains("spec")));
        assert!(d.header.iter().any(|h| h.contains("report-checksum")));
    }

    #[test]
    fn shift_differences_surface() {
        let a = log();
        let mut b = log();
        b.epochs[1].shifts[0] = ShiftEvent::Participation { factor: 3.0 };
        let d = diff_logs(&a, &b);
        let first = d.first_divergence().unwrap();
        assert!(first.details[0].contains("factor=2.0"), "{:?}", first.details);

        let mut c = log();
        c.epochs[0].actions.push(ActionRecord::RebuildChain { cell: (0, 0), attr: 0 });
        let d = diff_logs(&a, &c);
        assert_eq!(d.first_divergence().unwrap().epoch, 0);
        assert!(d.first_divergence().unwrap().details[0].contains("action count"));
    }
}
