//! # craqr-runlog — the event-sourced epoch log.
//!
//! A crowdsensing acquisition loop is only trustworthy at scale if a run
//! can be reconstructed and audited after the fact. This crate supplies
//! the missing subsystem: an **append-only, versioned, checksummed log of
//! every epoch's inputs** — the crowd responses as drained, the scripted
//! regime shifts, the dispatch outcome, and the control actions the
//! adaptive seam injected — recorded through the
//! [`craqr_core::EpochTap`] seam on the epoch loop.
//!
//! Everything *downstream* of those inputs (error injection, mitigation,
//! ingestion, per-cell processing, budget tuning, the controller's
//! estimates and replans) is a deterministic function of
//! `(spec, seed, inputs)`, so the log is a complete event source:
//!
//! - **replay** — re-drive a server from the log with the crowd detached
//!   ([`craqr_core::EpochDriver::replay`] of [`RunLog::source`]) and
//!   reproduce the live run's reports, traces, and decisions bit-for-bit,
//!   serial or sharded (the scenario harness wires this up end to end);
//! - **resume** — truncate at epoch *k* ([`RunLog::truncated`]), rebuild
//!   state, and continue live;
//! - **diff** — structurally compare two logs epoch by epoch with
//!   first-divergence reporting ([`diff_logs`]);
//! - **crash safety** — append and fsync each epoch block the moment it
//!   closes and seal the file by appending a fsynced trailer
//!   ([`StreamingRecorder`]; nothing on disk is ever rewritten), and
//!   salvage the longest valid checksummed prefix of a torn file — a
//!   torn trailer included ([`parse_salvage`]) — so a crashed run
//!   resumes from its last durable epoch boundary instead of losing the
//!   log.
//!
//! # Format
//!
//! The codec is a deterministic, line-oriented text format in the style
//! of `craqr_scenario::value` (the workspace builds offline without a
//! serialisation crate, so encoding is in-crate). Three integrity layers:
//!
//! 1. a version stamp on line one (`# craqr runlog v1`) — unknown
//!    versions are rejected, not guessed at;
//! 2. a **chained** FNV-1a checksum per epoch block (each `end … crc=`
//!    line hashes its block *and* the previous block's checksum, seeded
//!    from the header), so truncating, reordering, or editing any epoch
//!    invalidates every subsequent line — the append-only discipline is
//!    mechanically checkable;
//! 3. a whole-document `checksum:` trailer, same contract as scenario
//!    reports and adaptive traces.
//!
//! The reader checks layers 2 and 3 in one pass: every line is hashed
//! once, feeding both the chain (block lines only) and the document hash
//! (every line before `checksum:`). Both hashes cover each line as its
//! text plus `\n`. Lines split where [`str::lines`] splits them, so a
//! file whose lines end in `\r\n` verifies and parses to the same log as
//! its LF original (pinned on every committed golden log in
//! `tests/differential.rs`), while a lone `\r` is ordinary content. The
//! writer always emits `\n`.
//!
//! Floats render in shortest-roundtrip form, so `parse(render(log)) ==
//! log` exactly (proptested in `tests/properties.rs`).
//!
//! **v1 compatibility note:** multi-tenant runs added two record kinds
//! to v1 *without* a version bump — `adm …` lines in the checksummed
//! header (admission decisions) and `charge …` lines at the end of an
//! epoch block (per-tenant spend). The extension is strictly additive:
//! single-owner logs contain neither line and render byte-identically
//! to the pre-tenant format, and this reader accepts both shapes. A
//! *pre-tenant* reader handed a tenanted log fails at the first `adm`/
//! `charge` line with a structural ("expected …, got 'adm …'") error
//! rather than a version mismatch — acceptable because such logs are
//! new artifacts, while every previously written v1 log still parses
//! everywhere.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod codec;
pub mod diff;
pub mod log;
pub mod record;
pub mod stream;

pub use codec::{parse_salvage, CodecError, Salvage, TornTail};
pub use diff::{diff_logs, EpochDiff, LogDiff};
pub use log::{
    ActionRecord, AdmissionRecord, ChargeRecord, EpochRecord, LogSource, ResponseRecord, RunLog,
    ShiftEvent, ValueRecord,
};
pub use record::RunLogRecorder;
pub use stream::{write_atomic, StreamingRecorder};
