//! Crash-safe streaming persistence for run logs.
//!
//! [`RunLogRecorder`] builds the whole log in memory and writes nothing
//! until the run finishes — a crash loses every epoch. The
//! [`StreamingRecorder`] here closes that gap with an explicit fsync
//! discipline:
//!
//! 1. the checksummed header is written (and synced) as soon as the run
//!    begins, and the new file's directory entry is synced with it, so
//!    even an epoch-zero crash leaves a salvageable file;
//! 2. each epoch block plus its chained-CRC `end` line is appended and
//!    `fsync`ed the moment the epoch closes — after a crash, every epoch
//!    whose `end` line reached the disk is durable;
//! 3. `finish` seals the file by appending the `[final]` trailer and
//!    `fsync`ing it — nothing already on disk is rewritten. A crash
//!    inside that append leaves a torn trailer, which
//!    [`parse_salvage`](crate::codec::parse_salvage) tears off whole: the
//!    same all-epochs-durable, resumable state as a crash just before
//!    `finish`.
//!
//! Because the streamed bytes come from the same
//! [`codec`](crate::codec) writers as [`RunLog::canonical`], an
//! interrupted file is a byte-prefix of the canonical render, a sealed
//! one *is* the canonical render, and
//! [`parse_salvage`](crate::codec::parse_salvage) recovers exactly the
//! epochs whose `end` lines were synced. Each epoch is rendered once,
//! into one buffer the recorder reuses, and hashed in place; the
//! whole-document checksum the seal needs is kept running as the
//! epochs go by.

use crate::codec::{epoch_block, write_epoch, write_header, write_trailer};
use crate::log::{RunLog, ShiftEvent};
use crate::record::RunLogRecorder;
use craqr_core::{AdmissionDecision, EpochInputsRecord, EpochTap};
use craqr_stats::fnv1a64;
use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Syncs the directory entry of `path` — what makes a newly created or
/// renamed file durable. Not every platform lets a directory be opened
/// for sync, so this is best-effort.
fn sync_parent_dir(path: &Path) {
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// Writes `contents` to `path` atomically: a temp file in the same
/// directory is written, `fsync`ed, then renamed over the target, and the
/// directory entry is synced best-effort. A reader (or a crash) never
/// observes a half-written file — only the old bytes or the new.
pub fn write_atomic(path: &Path, contents: &str) -> io::Result<()> {
    let file_name = path.file_name().ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, format!("{}: not a file path", path.display()))
    })?;
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(contents.as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    sync_parent_dir(path);
    Ok(())
}

/// A [`RunLogRecorder`] that also appends each sealed epoch block to disk
/// as it closes (see the [module docs](self) for the durability
/// contract).
///
/// I/O failures during an append are deferred: the tap cannot return
/// errors, so the first failure is stored, further streaming stops, and
/// [`StreamingRecorder::finish`] (or [`StreamingRecorder::last_error`],
/// for drivers that poll between epochs) surfaces it.
pub struct StreamingRecorder {
    inner: RunLogRecorder,
    path: PathBuf,
    file: Option<File>,
    /// The text of the append in progress, reused across epochs.
    buf: String,
    /// The epoch checksum chain's last link.
    chain: u64,
    /// FNV-1a of every byte streamed so far (the seal's `checksum:`).
    doc: u64,
    streamed: usize,
    tear_next: bool,
    torn: bool,
    error: Option<io::Error>,
}

impl StreamingRecorder {
    /// Creates a streaming recorder that persists to `path`. Nothing is
    /// written until [`StreamingRecorder::begin`] or the first epoch.
    pub fn new(path: &Path, scenario: &str, seed: u64, spec_toml: &str) -> Self {
        Self {
            inner: RunLogRecorder::new(scenario, seed, spec_toml),
            path: path.to_path_buf(),
            file: None,
            buf: String::new(),
            chain: 0,
            doc: 0,
            streamed: 0,
            tear_next: false,
            torn: false,
            error: None,
        }
    }

    /// Notes a scripted world event (see [`RunLogRecorder::record_shift`]).
    pub fn record_shift(&mut self, shift: ShiftEvent) {
        self.inner.record_shift(shift);
    }

    /// Records pre-epoch admission decisions (see
    /// [`RunLogRecorder::record_admissions`]). Must precede
    /// [`StreamingRecorder::begin`]: the admissions land in the
    /// checksummed header, which freezes when it hits the disk.
    pub fn record_admissions(&mut self, decisions: &[AdmissionDecision]) {
        assert!(self.file.is_none(), "record_admissions must precede the streamed header");
        self.inner.record_admissions(decisions);
    }

    /// Creates the file, writes and syncs the header, and syncs the
    /// directory entry, so a crash before the first epoch still leaves a
    /// salvageable (zero-epoch) file. Called implicitly by the first
    /// epoch append, or by the seal, if skipped.
    pub fn begin(&mut self) -> io::Result<()> {
        if self.file.is_some() {
            return Ok(());
        }
        self.buf.clear();
        write_header(&mut self.buf, self.inner.log_ref());
        let mut f = File::create(&self.path)?;
        f.write_all(self.buf.as_bytes())?;
        f.sync_all()?;
        sync_parent_dir(&self.path);
        self.chain = fnv1a64(self.buf.as_bytes());
        self.doc = self.chain;
        self.file = Some(f);
        Ok(())
    }

    /// Epochs whose `end` line has been written and synced — the durable
    /// resume point after a crash.
    pub fn epochs_streamed(&self) -> usize {
        self.streamed
    }

    /// The first I/O error hit while streaming, if any. The in-memory
    /// record stays complete regardless.
    pub fn last_error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }

    /// Arms the `mid-log-append` crash seam: the *next* epoch append
    /// writes only half its block — no `end` line, no chain seal — then
    /// stops streaming for good, leaving exactly the torn tail a process
    /// killed inside `write(2)` would. The in-memory recorder keeps
    /// recording, so the driver can still compare against the truth.
    pub fn tear_next_append(&mut self) {
        self.tear_next = true;
    }

    fn stream_last_epoch(&mut self) -> io::Result<()> {
        self.begin()?;
        let e = self.inner.log_ref().epochs.last().expect("stream_last_epoch follows an epoch");
        self.buf.clear();
        let file = self.file.as_mut().expect("begin() opened the file");
        if self.tear_next {
            epoch_block(&mut self.buf, e);
            file.write_all(&self.buf.as_bytes()[..self.buf.len() / 2])?;
            file.sync_all()?;
            self.torn = true;
            return Ok(());
        }
        (self.chain, self.doc) = write_epoch(&mut self.buf, e, self.chain, self.doc);
        file.write_all(self.buf.as_bytes())?;
        file.sync_all()?;
        self.streamed += 1;
        Ok(())
    }

    /// Seals the log: appends the `[final]` trailer (report and trace
    /// checksums, then the whole-document checksum, kept running since
    /// the header) and `fsync`s it, after which the file is the complete
    /// canonical document. Nothing is re-rendered or rewritten, and no
    /// directory sync is needed (the entry was synced at
    /// [`StreamingRecorder::begin`]); a crash inside the append leaves a
    /// torn trailer that salvage tears off whole, with every epoch still
    /// durable. Opens the file first if no epoch or `begin` did. Surfaces
    /// any I/O error deferred from an earlier append; refuses to seal a
    /// deliberately torn file.
    pub fn finish(
        mut self,
        report_checksum: u64,
        trace_checksum: Option<u64>,
    ) -> io::Result<RunLog> {
        if let Some(e) = self.error {
            return Err(e);
        }
        if self.torn {
            return Err(io::Error::other("refusing to seal a torn stream"));
        }
        self.begin()?;
        self.buf.clear();
        write_trailer(&mut self.buf, self.doc, Some(report_checksum), trace_checksum);
        let file = self.file.as_mut().expect("begin() opened the file");
        file.write_all(self.buf.as_bytes())?;
        file.sync_all()?;
        Ok(self.inner.finish(report_checksum, trace_checksum))
    }
}

impl EpochTap for StreamingRecorder {
    fn on_epoch(&mut self, record: &EpochInputsRecord<'_>) {
        self.inner.on_epoch(record);
        if self.torn || self.error.is_some() {
            return;
        }
        if let Err(e) = self.stream_last_epoch() {
            self.error = Some(e);
        }
        self.tear_next = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::parse_salvage;
    use craqr_core::{CraqrServer, ServerConfig};
    use craqr_geom::Rect;
    use craqr_sensing::{
        fields::ConstantField, AttrValue, Crowd, CrowdConfig, Mobility, Placement, PopulationConfig,
    };

    fn server(seed: u64) -> CraqrServer {
        let crowd = Crowd::new(CrowdConfig {
            region: Rect::with_size(4.0, 4.0),
            population: PopulationConfig {
                size: 300,
                placement: Placement::Uniform,
                mobility: Mobility::RandomWalk { sigma: 0.1 },
                human_fraction: 0.0,
            },
            seed,
        });
        let mut s = CraqrServer::new(crowd, ServerConfig::default());
        s.register_attribute("temp", false, Box::new(ConstantField(AttrValue::Float(20.0))));
        s.submit("ACQUIRE temp FROM RECT(0,0,2,2) RATE 0.8").unwrap();
        s
    }

    fn run(dir: &Path, epochs: usize, tear_at: Option<usize>) -> (PathBuf, Option<RunLog>) {
        let path = dir.join("stream.runlog.txt");
        let mut live = server(11);
        let mut rec = StreamingRecorder::new(&path, "unit", 11, "name = \"unit\"\n");
        rec.begin().unwrap();
        for e in 0..epochs {
            if tear_at == Some(e) {
                rec.tear_next_append();
            }
            live.driver().tap(&mut rec).step();
            assert!(rec.last_error().is_none());
        }
        if tear_at.is_some() {
            (path, None)
        } else {
            let log = rec.finish(0xFEED, None).unwrap();
            (path, Some(log))
        }
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("craqr-stream-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn sealed_stream_equals_canonical_render() {
        let dir = tempdir("sealed");
        let (path, log) = run(&dir, 5, None);
        let on_disk = std::fs::read_to_string(&path).unwrap();
        assert_eq!(on_disk, log.unwrap().canonical());
        assert!(RunLog::parse(&on_disk).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_unbegun_empty_stream_seals_to_the_canonical_render() {
        let dir = tempdir("unbegun");
        let path = dir.join("stream.runlog.txt");
        let rec = StreamingRecorder::new(&path, "unit", 11, "name = \"unit\"\n");
        let log = rec.finish(0xFEED, Some(0xBEEF)).unwrap();
        assert!(log.epochs.is_empty());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), log.canonical());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn streamed_prefix_is_a_byte_prefix_of_the_canonical_render() {
        let dir = tempdir("prefix");
        let path = dir.join("stream.runlog.txt");
        let mut live = server(11);
        let mut rec = StreamingRecorder::new(&path, "unit", 11, "name = \"unit\"\n");
        rec.begin().unwrap();
        for _ in 0..4 {
            live.driver().tap(&mut rec).step();
        }
        // Read the streamed bytes *before* sealing: they must be a strict
        // prefix of the final canonical document.
        let streamed = std::fs::read_to_string(&path).unwrap();
        let log = rec.finish(0x1234, None).unwrap();
        assert!(log.canonical().starts_with(&streamed), "streamed bytes diverge from canonical");
        // And the streamed prefix salvages to all four epochs.
        let salvage = parse_salvage(&streamed).unwrap();
        assert_eq!(salvage.log.epochs.len(), 4);
        let torn = salvage.torn.expect("an unsealed stream reports a (zero-byte) tear");
        assert_eq!(torn.discarded_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_append_salvages_to_the_last_durable_epoch() {
        let dir = tempdir("torn");
        let (path, _) = run(&dir, 5, Some(3));
        let bytes = std::fs::read_to_string(&path).unwrap();
        let salvage = parse_salvage(&bytes).unwrap();
        assert_eq!(salvage.log.epochs.len(), 3, "epochs past the tear are gone");
        let torn = salvage.torn.expect("half an epoch block is a torn tail");
        assert!(torn.discarded_bytes > 0);
        assert_eq!(salvage.log.report_checksum, None);
        // The salvaged prefix re-renders to a log that parses clean.
        assert!(RunLog::parse(&salvage.log.canonical()).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn header_only_file_salvages_to_zero_epochs() {
        let dir = tempdir("header");
        let path = dir.join("stream.runlog.txt");
        let mut rec = StreamingRecorder::new(&path, "unit", 11, "name = \"unit\"\n");
        rec.begin().unwrap();
        drop(rec); // crash before epoch 0
        let bytes = std::fs::read_to_string(&path).unwrap();
        let salvage = parse_salvage(&bytes).unwrap();
        assert_eq!(salvage.log.epochs.len(), 0);
        assert_eq!(salvage.log.scenario, "unit");
        assert_eq!(salvage.torn.unwrap().discarded_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_atomic_replaces_and_never_leaves_temp_files() {
        let dir = tempdir("atomic");
        let path = dir.join("out.txt");
        write_atomic(&path, "first\n").unwrap();
        write_atomic(&path, "second\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second\n");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "stray temp files: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
