//! Recording a live run: an [`craqr_core::EpochTap`] implementation that
//! appends one [`EpochRecord`] per epoch.

use crate::log::{
    ActionRecord, AdmissionRecord, ChargeRecord, EpochRecord, ResponseRecord, RunLog, ShiftEvent,
};
use craqr_core::{AdmissionDecision, EpochInputsRecord, EpochTap};

/// Builds a [`RunLog`] from a live run, epoch by epoch.
///
/// Wire it into the loop as the tap of
/// [`craqr_core::EpochDriver::tap`]; call
/// [`RunLogRecorder::record_shift`] just before an epoch whose world was
/// scripted (the pending shifts attach to the next recorded epoch); call
/// [`RunLogRecorder::finish`] once the run's canonical report (and trace,
/// if any) checksums are known.
///
/// The recorder is append-only by construction: it never revisits an
/// earlier epoch, and the rendered log's chained checksums pin the order
/// it observed.
pub struct RunLogRecorder {
    log: RunLog,
    pending_shifts: Vec<ShiftEvent>,
}

impl RunLogRecorder {
    /// Creates a recorder for one run. `spec_toml` is the canonical spec
    /// the run executes (embedded verbatim so the log is self-contained);
    /// a missing trailing newline is normalized away.
    pub fn new(scenario: &str, seed: u64, spec_toml: &str) -> Self {
        let spec_toml = if spec_toml.is_empty() || spec_toml.ends_with('\n') {
            spec_toml.to_string()
        } else {
            format!("{spec_toml}\n")
        };
        Self {
            log: RunLog {
                scenario: scenario.to_string(),
                seed,
                spec_toml,
                admissions: Vec::new(),
                epochs: Vec::new(),
                report_checksum: None,
                trace_checksum: None,
            },
            pending_shifts: Vec::new(),
        }
    }

    /// Notes a scripted world event; it attaches to the next epoch the
    /// recorder observes.
    pub fn record_shift(&mut self, shift: ShiftEvent) {
        self.pending_shifts.push(shift);
    }

    /// Records the run's pre-epoch admission decisions (multi-tenant
    /// servers; see [`craqr_core::CraqrServer::admissions`]). Call once,
    /// before the first epoch is tapped — the records land in the log's
    /// checksummed header.
    pub fn record_admissions(&mut self, decisions: &[AdmissionDecision]) {
        self.log.admissions = decisions.iter().map(AdmissionRecord::from).collect();
    }

    /// Seals the log with the finished run's report checksum (and trace
    /// checksum, when the run closed the loop).
    pub fn finish(mut self, report_checksum: u64, trace_checksum: Option<u64>) -> RunLog {
        self.log.report_checksum = Some(report_checksum);
        self.log.trace_checksum = trace_checksum;
        self.log
    }

    /// The in-progress log (the streaming writer renders its header and
    /// epoch blocks from the same structure it will seal).
    pub(crate) fn log_ref(&self) -> &RunLog {
        &self.log
    }
}

impl EpochTap for RunLogRecorder {
    fn on_epoch(&mut self, record: &EpochInputsRecord<'_>) {
        let shifts = std::mem::take(&mut self.pending_shifts);
        self.log.epochs.push(EpochRecord::from_tap(record, shifts));
    }
}

impl EpochRecord {
    /// The record of one tapped epoch, preceded by the scripted `shifts` —
    /// what a recorder appends and what a replay compares with the log.
    pub fn from_tap(record: &EpochInputsRecord<'_>, shifts: Vec<ShiftEvent>) -> Self {
        EpochRecord {
            epoch: record.report.epoch,
            shifts,
            requested: record.report.dispatch.requested,
            sent: record.report.dispatch.sent,
            dropped: record.report.faults.dropped,
            delayed: record.report.faults.delayed,
            duplicated: record.report.faults.duplicated,
            responses: record.responses.iter().map(ResponseRecord::from).collect(),
            actions: record.actions.iter().map(ActionRecord::from).collect(),
            charges: record.report.tenant_charges.iter().map(ChargeRecord::from_charge).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use craqr_core::{CraqrServer, ServerConfig};
    use craqr_geom::Rect;
    use craqr_sensing::{
        fields::ConstantField, AttrValue, Crowd, CrowdConfig, Mobility, Placement, PopulationConfig,
    };

    fn server(size: usize, seed: u64) -> CraqrServer {
        let crowd = Crowd::new(CrowdConfig {
            region: Rect::with_size(4.0, 4.0),
            population: PopulationConfig {
                size,
                placement: Placement::Uniform,
                mobility: Mobility::RandomWalk { sigma: 0.1 },
                human_fraction: 0.0,
            },
            seed,
        });
        let mut s = CraqrServer::new(crowd, ServerConfig::default());
        s.register_attribute("temp", false, Box::new(ConstantField(AttrValue::Float(20.0))));
        s
    }

    #[test]
    fn recorded_log_replays_bit_for_bit_through_a_detached_server() {
        // Record a live run.
        let mut live = server(400, 7);
        let qid = live.submit("ACQUIRE temp FROM RECT(0,0,2,2) RATE 0.8").unwrap();
        let mut recorder = RunLogRecorder::new("unit", 7, "name = \"unit\"\n");
        recorder.record_shift(ShiftEvent::Participation { factor: 1.0 });
        for _ in 0..6 {
            live.driver().tap(&mut recorder).step();
        }
        let live_ids: Vec<u64> = live.take_output(qid).iter().map(|t| t.id).collect();
        let log = recorder.finish(0xABCD, None);
        assert_eq!(log.epochs.len(), 6);
        assert_eq!(log.epochs[0].shifts, vec![ShiftEvent::Participation { factor: 1.0 }]);
        assert!(log.epochs[1].shifts.is_empty(), "pending shifts attach once");

        // The canonical text survives a disk round trip.
        let reparsed = RunLog::parse(&log.canonical()).unwrap();
        assert_eq!(reparsed, log);

        // Replay it into a detached (zero-sensor) server, re-recording.
        let mut replayed = server(0, 7);
        let rqid = replayed.submit("ACQUIRE temp FROM RECT(0,0,2,2) RATE 0.8").unwrap();
        assert_eq!(qid, rqid);
        let mut rerecorder = RunLogRecorder::new("unit", 7, "name = \"unit\"\n");
        rerecorder.record_shift(ShiftEvent::Participation { factor: 1.0 });
        for e in &reparsed.epochs {
            let responses: Vec<_> = e.responses.iter().map(|r| r.to_response()).collect();
            replayed.driver().tap(&mut rerecorder).step_replayed(craqr_core::ReplayInputs {
                sent: e.sent,
                responses: &responses,
                faults: e.faults(),
            });
        }
        let replay_ids: Vec<u64> = replayed.take_output(qid).iter().map(|t| t.id).collect();
        assert_eq!(live_ids, replay_ids, "replayed delivery stream diverged");

        // The re-recorded log is structurally identical to the original.
        let fresh = rerecorder.finish(0xABCD, None);
        let diff = crate::diff::diff_logs(&log, &fresh);
        assert!(diff.identical(), "replay re-recording diverged:\n{diff}");
    }
}
