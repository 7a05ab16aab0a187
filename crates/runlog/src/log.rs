//! The run-log data model: one record per epoch, holding exactly what the
//! epoch consumed from outside the server.

use craqr_core::{AdmissionDecision, ControlAction, FaultDeltas, ReplaySource, TenantId};
use craqr_geom::SpaceTimePoint;
use craqr_sensing::{AttrValue, AttributeId, Measurement, SensorId, SensorResponse};

/// The codec version this crate reads and writes.
pub const RUNLOG_VERSION: u32 = 1;

/// One recorded observation value (mirror of [`craqr_sensing::AttrValue`]
/// with a stable text encoding).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueRecord {
    /// A human-sensed boolean.
    Bool(bool),
    /// A sensor-sensed real.
    Float(f64),
}

/// One crowd response exactly as drained from the crowd —
/// pre-error-injection, pre-mitigation, pre-id-assignment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResponseRecord {
    /// The answering sensor.
    pub sensor: u64,
    /// The observed attribute.
    pub attr: u16,
    /// Measurement time (minutes).
    pub t: f64,
    /// Easting (km).
    pub x: f64,
    /// Northing (km).
    pub y: f64,
    /// The observed value.
    pub value: ValueRecord,
    /// When the eliciting request was issued (minutes).
    pub issued_at: f64,
}

impl From<&SensorResponse> for ResponseRecord {
    fn from(r: &SensorResponse) -> Self {
        Self {
            sensor: r.sensor.0,
            attr: r.measurement.attr.0,
            t: r.measurement.point.t,
            x: r.measurement.point.x,
            y: r.measurement.point.y,
            value: match r.measurement.value {
                AttrValue::Bool(b) => ValueRecord::Bool(b),
                AttrValue::Float(f) => ValueRecord::Float(f),
            },
            issued_at: r.issued_at,
        }
    }
}

impl ResponseRecord {
    /// The [`SensorResponse`] this record describes.
    pub fn to_response(&self) -> SensorResponse {
        SensorResponse {
            sensor: SensorId(self.sensor),
            measurement: Measurement {
                attr: AttributeId(self.attr),
                point: SpaceTimePoint::new(self.t, self.x, self.y),
                value: match self.value {
                    ValueRecord::Bool(b) => AttrValue::Bool(b),
                    ValueRecord::Float(f) => AttrValue::Float(f),
                },
            },
            issued_at: self.issued_at,
        }
    }
}

/// One control action the epoch's hook injected (mirror of
/// [`craqr_core::ControlAction`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ActionRecord {
    /// Overwrite one chain's acquisition budget.
    SetBudget {
        /// Cell `(q, r)`.
        cell: (u32, u32),
        /// Attribute id.
        attr: u16,
        /// Requests per epoch.
        budget: f64,
    },
    /// Tear a chain down and rebuild it.
    RebuildChain {
        /// Cell `(q, r)`.
        cell: (u32, u32),
        /// Attribute id.
        attr: u16,
    },
}

impl From<&ControlAction> for ActionRecord {
    fn from(a: &ControlAction) -> Self {
        match *a {
            ControlAction::SetBudget { cell, attr, requests_per_epoch } => {
                ActionRecord::SetBudget {
                    cell: (cell.q, cell.r),
                    attr: attr.0,
                    budget: requests_per_epoch,
                }
            }
            ControlAction::RebuildChain { cell, attr } => {
                ActionRecord::RebuildChain { cell: (cell.q, cell.r), attr: attr.0 }
            }
        }
    }
}

/// One admission-control decision taken before the run's first epoch
/// (mirror of [`craqr_core::AdmissionDecision`]) — recorded so tenant
/// disputes ("why was my query rejected?") are auditable from the log
/// alone, and so replay can verify it reproduces the same verdicts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionRecord {
    /// The tenant that submitted the query.
    pub tenant: u32,
    /// Submission order across the server (counts rejections too).
    pub submission: u32,
    /// Estimated demand (requests/epoch).
    pub demand: f64,
    /// Demand already committed when the check ran.
    pub committed: f64,
    /// The tenant's pool capacity.
    pub capacity: f64,
    /// The verdict.
    pub admitted: bool,
}

impl From<&AdmissionDecision> for AdmissionRecord {
    fn from(d: &AdmissionDecision) -> Self {
        Self {
            tenant: d.tenant.0,
            submission: d.submission,
            demand: d.estimated_demand,
            committed: d.committed_before,
            capacity: d.capacity,
            admitted: d.admitted,
        }
    }
}

/// One tenant's requests charged in one epoch (mirror of
/// [`craqr_core::EpochReport::tenant_charges`]): the per-epoch audit
/// trail that pool conservation can be checked against offline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChargeRecord {
    /// The tenant.
    pub tenant: u32,
    /// Requests charged this epoch (≤ the tenant's pool capacity).
    pub spent: f64,
}

impl ChargeRecord {
    /// Builds the record from a core `(tenant, charge)` pair.
    pub fn from_charge(pair: &(TenantId, f64)) -> Self {
        Self { tenant: pair.0 .0, spent: pair.1 }
    }
}

/// A scripted world event applied just before an epoch ran (mirror of the
/// scenario layer's `[[shifts]]`; recorded so a log is auditable and
/// diffable without the spec in hand).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ShiftEvent {
    /// Participation scale (surge/collapse).
    Participation {
        /// The response-probability scale factor.
        factor: f64,
    },
    /// Correlated regional dropout.
    Dropout {
        /// Per-sensor dropout probability.
        probability: f64,
        /// Affected region `(x0, y0, x1, y1)`.
        rect: (f64, f64, f64, f64),
    },
    /// Hotspot migration.
    Migrate {
        /// Per-sensor migration probability.
        probability: f64,
        /// Destination region `(x0, y0, x1, y1)`.
        rect: (f64, f64, f64, f64),
    },
}

/// Everything one epoch consumed from outside the deterministic server
/// core, plus the control actions injected back.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EpochRecord {
    /// Epoch index (0-based, ascending, gap-free).
    pub epoch: u64,
    /// Scripted world events applied before this epoch.
    pub shifts: Vec<ShiftEvent>,
    /// Requests the handler attempted (recorded for cross-checking: a
    /// faithful replay recomputes the same number from budget state).
    pub requested: u64,
    /// Requests the crowd actually received — the crowd-side outcome a
    /// detached replay cannot recompute.
    pub sent: u64,
    /// Responses the crowd's fault layer dropped while this epoch's
    /// steps ran — crowd-side activity a detached replay cannot
    /// recompute, so it is recorded and echoed like `sent`. All three
    /// fault counters render as one optional `faults` line; a fault-free
    /// epoch writes nothing, keeping such logs byte-identical to the
    /// pre-fault-counter format.
    pub dropped: u64,
    /// Responses the fault layer re-queued to mature later.
    pub delayed: u64,
    /// Responses the fault layer delivered twice.
    pub duplicated: u64,
    /// Responses drained this epoch, pre-error-injection, in drain order.
    pub responses: Vec<ResponseRecord>,
    /// Control actions injected after the epoch, in application order.
    pub actions: Vec<ActionRecord>,
    /// Per-tenant requests charged this epoch, ascending by tenant
    /// (empty on single-owner servers — those logs are byte-identical to
    /// the pre-tenant format).
    pub charges: Vec<ChargeRecord>,
}

impl EpochRecord {
    /// The epoch's recorded fault activity — what a replayed epoch's
    /// report echoes.
    pub fn faults(&self) -> FaultDeltas {
        FaultDeltas { dropped: self.dropped, delayed: self.delayed, duplicated: self.duplicated }
    }
}

/// An event-sourced record of one complete run: the spec that defined it,
/// the seed, and every epoch's inputs. See the crate docs for the
/// format and integrity guarantees.
#[derive(Debug, Clone, PartialEq)]
pub struct RunLog {
    /// Scenario name (golden-file stem).
    pub scenario: String,
    /// The seed the run used.
    pub seed: u64,
    /// The full scenario spec as canonical TOML (always `\n`-terminated)
    /// — embedded so a log is self-contained: replay needs nothing but
    /// this file. Opaque to this crate; the scenario layer parses it.
    pub spec_toml: String,
    /// Admission decisions taken before the first epoch, in submission
    /// order (empty on single-owner servers). Part of the checksummed
    /// header, so every epoch checksum also pins the admission outcomes
    /// the run started from.
    pub admissions: Vec<AdmissionRecord>,
    /// One record per epoch, ascending and gap-free from 0.
    pub epochs: Vec<EpochRecord>,
    /// Checksum of the live run's canonical [`ScenarioReport`], when the
    /// recording run captured one — replay verifies against it.
    ///
    /// [`ScenarioReport`]: https://docs.rs/craqr-scenario
    pub report_checksum: Option<u64>,
    /// Checksum of the live run's canonical `AdaptiveTrace`, when the
    /// run closed the loop.
    pub trace_checksum: Option<u64>,
}

impl RunLog {
    /// Renders the canonical text form (see [`crate::codec::render`]).
    pub fn canonical(&self) -> String {
        crate::codec::render(self)
    }

    /// Parses (and integrity-checks) a canonical text log.
    pub fn parse(src: &str) -> Result<Self, crate::codec::CodecError> {
        crate::codec::parse(src)
    }

    /// The whole-document content checksum (the value on the canonical
    /// text's final line).
    pub fn checksum(&self) -> u64 {
        let canon = self.canonical();
        // The recorded checksum hashes every byte before its own line,
        // the newline ending the line above included.
        let body = canon.rfind("\nchecksum:").expect("canonical ends in checksum") + 1;
        craqr_stats::fnv1a64(&canon.as_bytes()[..body])
    }

    /// A copy truncated to the first `k` epochs — the resume point. The
    /// final report/trace checksums are dropped: a truncated log no
    /// longer attests to a finished run.
    ///
    /// Returns `None` when `k` exceeds the epoch count: asking to cut a
    /// log at a boundary it never reached is a caller error (a `resume
    /// --at N` typo), not a request for the whole log.
    pub fn truncated(&self, k: usize) -> Option<Self> {
        if k > self.epochs.len() {
            return None;
        }
        let mut log = self.clone();
        log.epochs.truncate(k);
        log.report_checksum = None;
        log.trace_checksum = None;
        Some(log)
    }

    /// This log's recorded epochs as the input of a detached replay
    /// ([`craqr_core::EpochDriver::replay`]).
    pub fn source(&self) -> LogSource<'_> {
        LogSource(self.epochs.iter())
    }
}

/// A parsed log's epochs as a [`ReplaySource`] ([`RunLog::source`]): each
/// epoch's responses are converted into the drain stage's buffer when it
/// asks, never the whole log at once.
pub struct LogSource<'a>(std::slice::Iter<'a, EpochRecord>);

impl ReplaySource for LogSource<'_> {
    fn next_epoch(&mut self, responses: &mut Vec<SensorResponse>) -> (u64, FaultDeltas) {
        let epoch = self.0.next().expect("a recorded epoch for every slot");
        responses.extend(epoch.responses.iter().map(ResponseRecord::to_response));
        (epoch.sent, epoch.faults())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use craqr_geom::CellId;

    #[test]
    fn response_record_round_trips_through_sensing_types() {
        let response = SensorResponse {
            sensor: SensorId(42),
            measurement: Measurement {
                attr: AttributeId(3),
                point: SpaceTimePoint::new(12.5, 1.25, 3.75),
                value: AttrValue::Float(-7.125),
            },
            issued_at: 10.0,
        };
        let record = ResponseRecord::from(&response);
        assert_eq!(record.to_response(), response);

        let boolean = SensorResponse {
            measurement: Measurement { value: AttrValue::Bool(true), ..response.measurement },
            ..response
        };
        assert_eq!(ResponseRecord::from(&boolean).to_response(), boolean);
    }

    #[test]
    fn action_record_mirrors_core_actions() {
        let set = ControlAction::SetBudget {
            cell: CellId::new(2, 5),
            attr: AttributeId(1),
            requests_per_epoch: 12.75,
        };
        assert_eq!(
            ActionRecord::from(&set),
            ActionRecord::SetBudget { cell: (2, 5), attr: 1, budget: 12.75 }
        );
        let rebuild = ControlAction::RebuildChain { cell: CellId::new(0, 3), attr: AttributeId(0) };
        assert_eq!(
            ActionRecord::from(&rebuild),
            ActionRecord::RebuildChain { cell: (0, 3), attr: 0 }
        );
    }

    #[test]
    fn truncation_drops_final_checksums() {
        let log = RunLog {
            scenario: "t".into(),
            seed: 1,
            spec_toml: "name = \"t\"\n".into(),
            admissions: vec![],
            epochs: vec![EpochRecord::default(), EpochRecord { epoch: 1, ..Default::default() }],
            report_checksum: Some(7),
            trace_checksum: Some(9),
        };
        let cut = log.truncated(1).unwrap();
        assert_eq!(cut.epochs.len(), 1);
        assert_eq!(cut.report_checksum, None);
        assert_eq!(cut.trace_checksum, None);
        assert_eq!(log.truncated(2).unwrap().epochs.len(), 2, "cut at the end keeps every epoch");
        assert_eq!(log.truncated(5), None, "over-truncation is a signalled error");
    }
}
