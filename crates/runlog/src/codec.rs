//! The deterministic text codec for [`RunLog`]s.
//!
//! Line-oriented, dense (no blank lines), and canonical: rendering the
//! same log twice yields identical bytes, and `parse(render(log)) == log`
//! for every well-formed log (floats print in shortest-roundtrip form).
//! The parser is *strict* — record kinds must appear in their canonical
//! order inside a block, epoch indices must be gap-free from zero, and
//! every checksum (per-epoch chain + whole-document trailer) is verified
//! — so a truncated, reordered, or hand-edited log is rejected with a
//! line-precise error instead of silently replaying garbage.
//!
//! The parser reads a document in one pass. Each line is parsed where it
//! lies in the input and hashed once, in a two-lane FNV-1a walk
//! (`[chain, doc]`) that the writer's `write_epoch` also uses:
//!
//! - the header's lines seed both lanes;
//! - the `chain` lane restarts at each epoch from the previous link and
//!   covers the block from `[epoch N]` up to, not including, its `end`
//!   line, whose `crc=` it must equal;
//! - the `doc` lane covers every line before `checksum:` — header, every
//!   block with its `end` line, `[final]` and the seal lines — and must
//!   equal that line.
//!
//! A line is hashed as its text plus `\n`, whatever ending it had in the
//! input: lines split as [`str::lines`] splits them, so a copy of a log
//! with CRLF line ends verifies and reads as the same log. A lone `\r` is
//! not a line end. Record fields are read into fixed arrays, so nothing
//! is allocated per line, and an ASCII line is split on bytes rather than
//! decoded chars.

use crate::log::{
    ActionRecord, AdmissionRecord, ChargeRecord, EpochRecord, ResponseRecord, RunLog, ShiftEvent,
    ValueRecord, RUNLOG_VERSION,
};
use craqr_stats::{fnv1a64, fnv1a64_extend, fnv1a64_extend2, write_float};
use std::fmt::{self, Write as _};
use std::iter::Peekable;
use std::str::Lines;

/// A parse/integrity error with its 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// 1-based line of the offending input (0 for end-of-input errors).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for CodecError {}

fn err(line: usize, message: impl Into<String>) -> CodecError {
    CodecError { line, message: message.into() }
}

fn parse_f64(s: &str, line: usize, what: &str) -> Result<f64, CodecError> {
    s.parse::<f64>().map_err(|_| err(line, format!("{what}: not a float: '{s}'")))
}

fn parse_u64(s: &str, line: usize, what: &str) -> Result<u64, CodecError> {
    s.parse::<u64>().map_err(|_| err(line, format!("{what}: not an unsigned integer: '{s}'")))
}

pub(crate) fn fmt_crc(crc: u64) -> String {
    format!("{crc:#018x}")
}

fn parse_crc(s: &str, line: usize, what: &str) -> Result<u64, CodecError> {
    let hex = s
        .strip_prefix("0x")
        .ok_or_else(|| err(line, format!("{what}: expected 0x-prefixed hex, got '{s}'")))?;
    u64::from_str_radix(hex, 16).map_err(|_| err(line, format!("{what}: bad hex '{s}'")))
}

/// Strips `key=` from a token.
fn kv<'a>(token: &'a str, key: &str, line: usize) -> Result<&'a str, CodecError> {
    token
        .strip_prefix(key)
        .and_then(|rest| rest.strip_prefix('='))
        .ok_or_else(|| err(line, format!("expected '{key}=…', got '{token}'")))
}

/// The tokens of `tokens` when there are exactly `N` of them, read into an
/// array: a record line's fields cost no allocation.
fn exactly<'a, const N: usize>(mut tokens: impl Iterator<Item = &'a str>) -> Option<[&'a str; N]> {
    let mut out = [""; N];
    for slot in &mut out {
        *slot = tokens.next()?;
    }
    tokens.next().is_none().then_some(out)
}

/// A record line's whitespace-separated fields when there are exactly `N`,
/// split as [`str::split_whitespace`] splits them. An ASCII line without
/// `\x0B` splits the same way byte by byte: among ASCII characters,
/// `char::is_whitespace` and `u8::is_ascii_whitespace` differ only on VT.
fn fields<const N: usize>(rest: &str) -> Option<[&str; N]> {
    if rest.is_ascii() && !rest.as_bytes().contains(&0x0B) {
        exactly(rest.split_ascii_whitespace())
    } else {
        exactly(rest.split_whitespace())
    }
}

fn parse_rect(s: &str, line: usize) -> Result<(f64, f64, f64, f64), CodecError> {
    let Some([x0, y0, x1, y1]) = exactly(s.split(',')) else {
        return Err(err(line, format!("rect needs 4 comma-separated floats, got '{s}'")));
    };
    Ok((
        parse_f64(x0, line, "rect.x0")?,
        parse_f64(y0, line, "rect.y0")?,
        parse_f64(x1, line, "rect.x1")?,
        parse_f64(y1, line, "rect.y1")?,
    ))
}

fn parse_cell(s: &str, line: usize) -> Result<(u32, u32), CodecError> {
    let (q, r) =
        s.split_once(',').ok_or_else(|| err(line, format!("cell needs 'q,r', got '{s}'")))?;
    let q = q.parse::<u32>().map_err(|_| err(line, format!("cell.q: bad integer '{q}'")))?;
    let r = r.parse::<u32>().map_err(|_| err(line, format!("cell.r: bad integer '{r}'")))?;
    Ok((q, r))
}

// ---------------------------------------------------------------------------
// Line writers: each appends one record line, without its newline, to a
// caller's buffer (shared with the diff module so divergences print in
// the exact on-disk syntax)
// ---------------------------------------------------------------------------

fn write_rect(out: &mut String, r: &(f64, f64, f64, f64)) {
    for (i, v) in [r.0, r.1, r.2, r.3].into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_float(out, v);
    }
}

pub(crate) fn write_shift(out: &mut String, s: &ShiftEvent) {
    let (kind, probability, rect) = match s {
        ShiftEvent::Participation { factor } => {
            out.push_str("shift participation factor=");
            return write_float(out, *factor);
        }
        ShiftEvent::Dropout { probability, rect } => ("dropout", probability, rect),
        ShiftEvent::Migrate { probability, rect } => ("migrate", probability, rect),
    };
    let _ = write!(out, "shift {kind} probability=");
    write_float(out, *probability);
    out.push_str(" rect=");
    write_rect(out, rect);
}

pub(crate) fn write_response(out: &mut String, r: &ResponseRecord) {
    let _ = write!(out, "r s={} a={} t=", r.sensor, r.attr);
    write_float(out, r.t);
    out.push_str(" x=");
    write_float(out, r.x);
    out.push_str(" y=");
    write_float(out, r.y);
    match r.value {
        ValueRecord::Bool(b) => out.push_str(if b { " v=btrue" } else { " v=bfalse" }),
        ValueRecord::Float(f) => {
            out.push_str(" v=f");
            write_float(out, f);
        }
    }
    out.push_str(" issued=");
    write_float(out, r.issued_at);
}

pub(crate) fn write_admission(out: &mut String, a: &AdmissionRecord) {
    let _ = write!(out, "adm tenant={} sub={} demand=", a.tenant, a.submission);
    write_float(out, a.demand);
    out.push_str(" committed=");
    write_float(out, a.committed);
    out.push_str(" capacity=");
    write_float(out, a.capacity);
    out.push_str(if a.admitted { " verdict=admitted" } else { " verdict=rejected" });
}

pub(crate) fn write_charge(out: &mut String, c: &ChargeRecord) {
    let _ = write!(out, "charge tenant={} spent=", c.tenant);
    write_float(out, c.spent);
}

pub(crate) fn write_action(out: &mut String, a: &ActionRecord) {
    match a {
        ActionRecord::SetBudget { cell, attr, budget } => {
            let _ = write!(out, "act set cell={},{} attr={attr} budget=", cell.0, cell.1);
            write_float(out, *budget);
        }
        ActionRecord::RebuildChain { cell, attr } => {
            let _ = write!(out, "act rebuild cell={},{} attr={attr}", cell.0, cell.1);
        }
    }
}

/// Appends one line per record.
fn write_lines<T>(out: &mut String, records: &[T], write: fn(&mut String, &T)) {
    for r in records {
        write(out, r);
        out.push('\n');
    }
}

fn parse_shift_line(line_no: usize, rest: &str) -> Result<ShiftEvent, CodecError> {
    if let Some(["participation", factor]) = fields(rest) {
        return Ok(ShiftEvent::Participation {
            factor: parse_f64(kv(factor, "factor", line_no)?, line_no, "factor")?,
        });
    }
    if let Some([kind @ ("dropout" | "migrate"), probability, rect]) = fields(rest) {
        let probability =
            parse_f64(kv(probability, "probability", line_no)?, line_no, "probability")?;
        let rect = parse_rect(kv(rect, "rect", line_no)?, line_no)?;
        return Ok(if kind == "dropout" {
            ShiftEvent::Dropout { probability, rect }
        } else {
            ShiftEvent::Migrate { probability, rect }
        });
    }
    Err(err(line_no, format!("malformed shift record: 'shift {rest}'")))
}

fn parse_response_line(line_no: usize, rest: &str) -> Result<ResponseRecord, CodecError> {
    let Some(tokens) = fields::<7>(rest) else {
        return Err(err(line_no, format!("response record needs 7 fields, got 'r {rest}'")));
    };
    let value_token = kv(tokens[5], "v", line_no)?;
    let value = if let Some(b) = value_token.strip_prefix('b') {
        ValueRecord::Bool(
            b.parse::<bool>()
                .map_err(|_| err(line_no, format!("v: bad boolean '{value_token}'")))?,
        )
    } else if let Some(f) = value_token.strip_prefix('f') {
        ValueRecord::Float(parse_f64(f, line_no, "v")?)
    } else {
        return Err(err(line_no, format!("v: expected b<bool> or f<float>, got '{value_token}'")));
    };
    Ok(ResponseRecord {
        sensor: parse_u64(kv(tokens[0], "s", line_no)?, line_no, "s")?,
        attr: parse_u64(kv(tokens[1], "a", line_no)?, line_no, "a")?
            .try_into()
            .map_err(|_| err(line_no, "a: attribute id does not fit in u16".to_string()))?,
        t: parse_f64(kv(tokens[2], "t", line_no)?, line_no, "t")?,
        x: parse_f64(kv(tokens[3], "x", line_no)?, line_no, "x")?,
        y: parse_f64(kv(tokens[4], "y", line_no)?, line_no, "y")?,
        value,
        issued_at: parse_f64(kv(tokens[6], "issued", line_no)?, line_no, "issued")?,
    })
}

fn parse_admission_line(line_no: usize, rest: &str) -> Result<AdmissionRecord, CodecError> {
    let Some(tokens) = fields::<6>(rest) else {
        return Err(err(line_no, format!("admission record needs 6 fields, got 'adm {rest}'")));
    };
    let u32_of = |token: &str, key: &str| -> Result<u32, CodecError> {
        parse_u64(kv(token, key, line_no)?, line_no, key)?
            .try_into()
            .map_err(|_| err(line_no, format!("{key}: does not fit in u32")))
    };
    let admitted = match kv(tokens[5], "verdict", line_no)? {
        "admitted" => true,
        "rejected" => false,
        other => {
            return Err(err(
                line_no,
                format!("verdict: expected 'admitted' or 'rejected', got '{other}'"),
            ))
        }
    };
    Ok(AdmissionRecord {
        tenant: u32_of(tokens[0], "tenant")?,
        submission: u32_of(tokens[1], "sub")?,
        demand: parse_f64(kv(tokens[2], "demand", line_no)?, line_no, "demand")?,
        committed: parse_f64(kv(tokens[3], "committed", line_no)?, line_no, "committed")?,
        capacity: parse_f64(kv(tokens[4], "capacity", line_no)?, line_no, "capacity")?,
        admitted,
    })
}

fn parse_charge_line(line_no: usize, rest: &str) -> Result<ChargeRecord, CodecError> {
    let Some([tenant, spent]) = fields(rest) else {
        return Err(err(line_no, format!("charge record needs 2 fields, got 'charge {rest}'")));
    };
    Ok(ChargeRecord {
        tenant: parse_u64(kv(tenant, "tenant", line_no)?, line_no, "tenant")?
            .try_into()
            .map_err(|_| err(line_no, "tenant: does not fit in u32".to_string()))?,
        spent: parse_f64(kv(spent, "spent", line_no)?, line_no, "spent")?,
    })
}

fn parse_action_line(line_no: usize, rest: &str) -> Result<ActionRecord, CodecError> {
    let attr_of = |token: &str| -> Result<u16, CodecError> {
        parse_u64(kv(token, "attr", line_no)?, line_no, "attr")?
            .try_into()
            .map_err(|_| err(line_no, "attr: attribute id does not fit in u16".to_string()))
    };
    if let Some(["set", cell, attr, budget]) = fields(rest) {
        return Ok(ActionRecord::SetBudget {
            cell: parse_cell(kv(cell, "cell", line_no)?, line_no)?,
            attr: attr_of(attr)?,
            budget: parse_f64(kv(budget, "budget", line_no)?, line_no, "budget")?,
        });
    }
    if let Some(["rebuild", cell, attr]) = fields(rest) {
        return Ok(ActionRecord::RebuildChain {
            cell: parse_cell(kv(cell, "cell", line_no)?, line_no)?,
            attr: attr_of(attr)?,
        });
    }
    Err(err(line_no, format!("malformed action record: 'act {rest}'")))
}

// ---------------------------------------------------------------------------
// Render
// ---------------------------------------------------------------------------

/// Appends the checksummed header: version stamp, scenario, seed,
/// embedded spec, and admission decisions. The streaming writer emits
/// exactly these bytes before the first epoch block, so an interrupted
/// streamed file is always a byte-prefix of the canonical render.
pub(crate) fn write_header(out: &mut String, log: &RunLog) {
    let spec = &log.spec_toml;
    let unterminated = !spec.is_empty() && !spec.ends_with('\n');
    let _ = writeln!(out, "# craqr runlog v{RUNLOG_VERSION}");
    let _ = writeln!(out, "scenario: {}", log.scenario);
    let _ = writeln!(out, "seed: {}", log.seed);
    let _ = writeln!(out, "spec-lines: {}", spec.matches('\n').count() + usize::from(unterminated));
    out.push_str(spec);
    if unterminated {
        out.push('\n');
    }
    // Admission decisions precede the first epoch (they are taken at
    // submit time) and live inside the checksummed header, so every
    // epoch checksum also pins the admission outcomes. Single-owner logs
    // have none and render byte-identically to the pre-tenant format.
    write_lines(out, &log.admissions, write_admission);
}

/// Appends one epoch's record lines (`[epoch N]` through the last charge
/// line), *without* the `end` line — the bytes the chained checksum
/// covers.
pub(crate) fn epoch_block(out: &mut String, e: &EpochRecord) {
    let _ = writeln!(out, "[epoch {}]", e.epoch);
    write_lines(out, &e.shifts, write_shift);
    let _ = writeln!(out, "dispatch requested={} sent={}", e.requested, e.sent);
    // Fault-free epochs skip the line entirely, keeping their blocks
    // byte-identical to logs recorded before fault counters existed.
    if e.dropped != 0 || e.delayed != 0 || e.duplicated != 0 {
        let _ = writeln!(
            out,
            "faults dropped={} delayed={} duplicated={}",
            e.dropped, e.delayed, e.duplicated
        );
    }
    write_lines(out, &e.responses, write_response);
    write_lines(out, &e.actions, write_action);
    write_lines(out, &e.charges, write_charge);
}

/// The hash a chain link starts from: the previous link's `"<crc>\n"`.
/// Each link hashes its block *and* the previous link, so order and
/// completeness are pinned.
fn link_seed(chain: u64) -> u64 {
    fnv1a64(format!("{chain:#018x}\n").as_bytes())
}

/// Appends one epoch as it lands in the log — its block, then the
/// `end epoch=N crc=…` line sealing it — and advances the two running
/// hashes over what it appended: `chain`, the epoch checksum chain, and
/// `doc`, the whole-document checksum (FNV-1a of every byte before the
/// block). One pass over the block feeds both.
pub(crate) fn write_epoch(out: &mut String, e: &EpochRecord, chain: u64, doc: u64) -> (u64, u64) {
    let start = out.len();
    epoch_block(out, e);
    let [chain, doc] = fnv1a64_extend2([link_seed(chain), doc], &out.as_bytes()[start..]);
    let end = out.len();
    let _ = writeln!(out, "end epoch={} crc={chain:#018x}", e.epoch);
    (chain, fnv1a64_extend(doc, &out.as_bytes()[end..]))
}

/// Appends the `[final]` seal: the optional report and trace checksums,
/// then the whole-document `checksum:` line. `doc` is the running hash of
/// every byte before the seal.
pub(crate) fn write_trailer(out: &mut String, doc: u64, report: Option<u64>, trace: Option<u64>) {
    let start = out.len();
    out.push_str("[final]\n");
    if let Some(c) = report {
        let _ = writeln!(out, "report-checksum: {c:#018x}");
    }
    if let Some(c) = trace {
        let _ = writeln!(out, "trace-checksum: {c:#018x}");
    }
    let doc = fnv1a64_extend(doc, &out.as_bytes()[start..]);
    let _ = writeln!(out, "checksum: {doc:#018x}");
}

/// Renders the canonical text form of a log. Deterministic: the same log
/// always yields identical bytes.
pub fn render(log: &RunLog) -> String {
    let mut s = String::new();
    write_header(&mut s, log);
    // The chain seed covers the header: an epoch checksum therefore also
    // pins the spec, seed, and admissions it was recorded under. It is
    // also the document hash so far — both are FNV-1a of the header.
    let mut chain = fnv1a64(s.as_bytes());
    let mut doc = chain;
    for e in &log.epochs {
        (chain, doc) = write_epoch(&mut s, e, chain, doc);
    }
    write_trailer(&mut s, doc, log.report_checksum, log.trace_checksum);
    s
}

// ---------------------------------------------------------------------------
// Parse
// ---------------------------------------------------------------------------

/// Walks the lines of a document as [`str::lines`] splits them. Cheap to
/// clone, so a caller rewinds by keeping a copy.
#[derive(Clone)]
struct Cursor<'a> {
    src: &'a str,
    lines: Peekable<Lines<'a>>,
    /// Lines consumed so far: the 0-based index of the next line, and the
    /// 1-based number of the one [`Cursor::next`] returned last.
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(src: &'a str) -> Self {
        Cursor { src, lines: src.lines().peekable(), pos: 0 }
    }

    fn next(&mut self) -> Option<&'a str> {
        let line = self.lines.next();
        self.pos += usize::from(line.is_some());
        line
    }

    fn peek(&mut self) -> Option<&'a str> {
        self.lines.peek().copied()
    }

    /// Where the next line starts in the document — read off the line's
    /// own position in it — or the document's length past the last line.
    fn offset(&mut self) -> usize {
        let src = self.src.as_ptr() as usize;
        self.peek().map_or(self.src.len(), |line| line.as_ptr() as usize - src)
    }

    /// The next line, which must start with `prefix`: the whole line and
    /// what follows the prefix.
    fn expect_prefix(&mut self, prefix: &str) -> Result<(&'a str, &'a str), CodecError> {
        match self.next() {
            Some(line) => line
                .strip_prefix(prefix)
                .map(|rest| (line, rest))
                .ok_or_else(|| err(self.pos, format!("expected '{prefix}…', got '{line}'"))),
            None => Err(err(0, format!("unexpected end of log, expected '{prefix}…'"))),
        }
    }
}

/// Continues `hash` over one line as the render wrote it: its bytes, then
/// `\n` — whatever line ending the input used.
fn feed(hash: u64, line: &str) -> u64 {
    fnv1a64_extend(fnv1a64_extend(hash, line.as_bytes()), b"\n")
}

/// [`feed`] for both lanes of `[chain, doc]` at once.
fn feed2(lanes: [u64; 2], line: &str) -> [u64; 2] {
    fnv1a64_extend2(fnv1a64_extend2(lanes, line.as_bytes()), b"\n")
}

/// The parsed checksummed header plus the hash of its lines, which seeds
/// both the epoch chain and the document checksum.
struct Header {
    scenario: String,
    seed: u64,
    spec_toml: String,
    admissions: Vec<AdmissionRecord>,
    hash: u64,
}

fn parse_header(cur: &mut Cursor<'_>) -> Result<Header, CodecError> {
    let (line, version) = cur.expect_prefix("# craqr runlog v")?;
    if version.trim() != RUNLOG_VERSION.to_string() {
        return Err(err(
            1,
            format!("unsupported runlog version 'v{version}' (this build reads v{RUNLOG_VERSION})"),
        ));
    }
    let mut hash = feed(fnv1a64(b""), line);
    let (line, scenario) = cur.expect_prefix("scenario: ")?;
    hash = feed(hash, line);
    let (line, seed_str) = cur.expect_prefix("seed: ")?;
    hash = feed(hash, line);
    let seed = parse_u64(seed_str, cur.pos, "seed")?;
    let (line, n_str) = cur.expect_prefix("spec-lines: ")?;
    hash = feed(hash, line);
    let spec_lines = parse_u64(n_str, cur.pos, "spec-lines")? as usize;
    let mut spec_toml = String::new();
    for _ in 0..spec_lines {
        match cur.next() {
            Some(line) => {
                hash = feed(hash, line);
                spec_toml.push_str(line);
                spec_toml.push('\n');
            }
            None => return Err(err(0, "unexpected end of log inside the embedded spec")),
        }
    }
    let mut admissions: Vec<AdmissionRecord> = Vec::new();
    while let Some(line) = cur.peek() {
        let Some(rest) = line.strip_prefix("adm ") else { break };
        cur.next();
        hash = feed(hash, line);
        admissions.push(parse_admission_line(cur.pos, rest)?);
    }
    Ok(Header { scenario: scenario.to_string(), seed, spec_toml, admissions, hash })
}

/// Parses one epoch block (through its verified `end` line), or consumes
/// the `[final]` marker and returns `Ok(None)`.
///
/// `[chain, doc]` are the running hashes: the last chain link and the
/// document hash of every line before this one. Each block line feeds
/// both lanes once; the `end` line feeds only `doc`. The lanes are taken
/// by value and the advanced pair is returned alongside the record, so a
/// failed call leaves the caller's lanes untouched — the property the
/// salvage parser relies on to re-anchor at the last good epoch boundary.
fn parse_epoch(
    cur: &mut Cursor<'_>,
    parsed: usize,
    [chain, doc]: [u64; 2],
) -> Result<Option<(EpochRecord, [u64; 2])>, CodecError> {
    let line_no = cur.pos + 1;
    let Some(line) = cur.next() else {
        return Err(err(0, "unexpected end of log, expected '[epoch N]' or '[final]'"));
    };
    if line == "[final]" {
        return Ok(None);
    }
    let index_str = line
        .strip_prefix("[epoch ")
        .and_then(|rest| rest.strip_suffix(']'))
        .ok_or_else(|| err(line_no, format!("expected '[epoch N]' or '[final]', got '{line}'")))?;
    let epoch = parse_u64(index_str, line_no, "epoch index")?;
    if epoch != parsed as u64 {
        return Err(err(
            line_no,
            format!("epoch indices must be gap-free from 0: expected {parsed}, got {epoch}"),
        ));
    }

    let mut lanes = feed2([link_seed(chain), doc], line);
    let mut record = EpochRecord { epoch, ..Default::default() };
    let mut saw_dispatch = false;
    // Strict record order inside a block: shifts, dispatch, responses,
    // actions, end.
    loop {
        let line_no = cur.pos + 1;
        let Some(line) = cur.next() else {
            return Err(err(0, format!("unexpected end of log inside epoch {epoch}")));
        };
        if let Some(rest) = line.strip_prefix("end ") {
            if !saw_dispatch {
                return Err(err(line_no, format!("epoch {epoch} has no dispatch line")));
            }
            let Some([end_epoch, crc]) = fields(rest) else {
                return Err(err(line_no, format!("malformed end line: '{line}'")));
            };
            let end_epoch = parse_u64(kv(end_epoch, "epoch", line_no)?, line_no, "epoch")?;
            if end_epoch != epoch {
                return Err(err(
                    line_no,
                    format!("end line closes epoch {end_epoch} inside epoch {epoch}"),
                ));
            }
            let recorded = parse_crc(kv(crc, "crc", line_no)?, line_no, "crc")?;
            let [chain, doc] = lanes;
            if recorded != chain {
                return Err(err(
                    line_no,
                    format!(
                        "epoch {epoch} checksum mismatch: log says {}, content hashes to {} \
                         (the log was truncated, reordered, or edited)",
                        fmt_crc(recorded),
                        fmt_crc(chain)
                    ),
                ));
            }
            return Ok(Some((record, [chain, feed(doc, line)])));
        }
        lanes = feed2(lanes, line);
        if let Some(rest) = line.strip_prefix("shift ") {
            if saw_dispatch {
                return Err(err(line_no, "shift records must precede the dispatch line"));
            }
            record.shifts.push(parse_shift_line(line_no, rest)?);
        } else if let Some(rest) = line.strip_prefix("dispatch ") {
            if saw_dispatch {
                return Err(err(line_no, "duplicate dispatch line in one epoch"));
            }
            saw_dispatch = true;
            let Some([requested, sent]) = fields(rest) else {
                return Err(err(line_no, format!("malformed dispatch line: '{line}'")));
            };
            record.requested =
                parse_u64(kv(requested, "requested", line_no)?, line_no, "requested")?;
            record.sent = parse_u64(kv(sent, "sent", line_no)?, line_no, "sent")?;
        } else if let Some(rest) = line.strip_prefix("faults ") {
            if !saw_dispatch {
                return Err(err(line_no, "the faults line must follow the dispatch line"));
            }
            if !record.responses.is_empty()
                || !record.actions.is_empty()
                || !record.charges.is_empty()
            {
                return Err(err(line_no, "the faults line must precede response records"));
            }
            if record.dropped != 0 || record.delayed != 0 || record.duplicated != 0 {
                return Err(err(line_no, "duplicate faults line in one epoch"));
            }
            let Some([dropped, delayed, duplicated]) = fields(rest) else {
                return Err(err(line_no, format!("malformed faults line: '{line}'")));
            };
            record.dropped = parse_u64(kv(dropped, "dropped", line_no)?, line_no, "dropped")?;
            record.delayed = parse_u64(kv(delayed, "delayed", line_no)?, line_no, "delayed")?;
            record.duplicated =
                parse_u64(kv(duplicated, "duplicated", line_no)?, line_no, "duplicated")?;
            if record.dropped == 0 && record.delayed == 0 && record.duplicated == 0 {
                // The renderer never writes an all-zero line; accepting
                // one would break render∘parse = identity.
                return Err(err(line_no, "all-zero faults line (fault-free epochs omit it)"));
            }
        } else if let Some(rest) = line.strip_prefix("r ") {
            if !saw_dispatch {
                return Err(err(line_no, "response records must follow the dispatch line"));
            }
            if !record.actions.is_empty() || !record.charges.is_empty() {
                return Err(err(line_no, "response records must precede action/charge records"));
            }
            record.responses.push(parse_response_line(line_no, rest)?);
        } else if let Some(rest) = line.strip_prefix("act ") {
            if !saw_dispatch {
                return Err(err(line_no, "action records must follow the dispatch line"));
            }
            if !record.charges.is_empty() {
                return Err(err(line_no, "action records must precede charge records"));
            }
            record.actions.push(parse_action_line(line_no, rest)?);
        } else if let Some(rest) = line.strip_prefix("charge ") {
            if !saw_dispatch {
                return Err(err(line_no, "charge records must follow the dispatch line"));
            }
            record.charges.push(parse_charge_line(line_no, rest)?);
        } else {
            return Err(err(line_no, format!("unrecognized record line: '{line}'")));
        }
    }
}

/// Parses the `[final]` block's seal lines and verifies the whole-document
/// checksum: `doc` is the hash of every line before `[final]`, and the
/// marker and seal lines extend it here. The `[final]` marker itself must
/// already have been consumed.
fn parse_trailer(cur: &mut Cursor<'_>, doc: u64) -> Result<(Option<u64>, Option<u64>), CodecError> {
    let mut doc = feed(doc, "[final]");
    let mut report_checksum = None;
    let mut trace_checksum = None;
    if let Some(line) = cur.peek() {
        if let Some(rest) = line.strip_prefix("report-checksum: ") {
            report_checksum = Some(parse_crc(rest, cur.pos + 1, "report-checksum")?);
            cur.next();
            doc = feed(doc, line);
        }
    }
    if let Some(line) = cur.peek() {
        if let Some(rest) = line.strip_prefix("trace-checksum: ") {
            trace_checksum = Some(parse_crc(rest, cur.pos + 1, "trace-checksum")?);
            cur.next();
            doc = feed(doc, line);
        }
    }
    let checksum_line_no = cur.pos + 1;
    let (_, recorded) = cur.expect_prefix("checksum: ")?;
    let recorded = parse_crc(recorded, checksum_line_no, "checksum")?;
    if recorded != doc {
        return Err(err(
            checksum_line_no,
            format!(
                "document checksum mismatch: log says {}, content hashes to {}",
                fmt_crc(recorded),
                fmt_crc(doc)
            ),
        ));
    }
    Ok((report_checksum, trace_checksum))
}

/// Nothing may follow the trailer (whitespace-only lines — a stray final
/// newline from an editor — are tolerated): skips those, and returns the
/// first line of anything else — unchecksummed content masquerading as
/// part of the log — with the cursor left in front of it.
fn trailing_content<'a>(cur: &mut Cursor<'a>) -> Option<&'a str> {
    while cur.peek()?.trim().is_empty() {
        cur.next();
    }
    cur.peek()
}

/// Parses (and integrity-checks) a canonical text log: the version stamp,
/// every per-epoch chained checksum, and the whole-document trailer must
/// all verify, and epoch indices must be gap-free from zero.
pub fn parse(src: &str) -> Result<RunLog, CodecError> {
    let mut cur = Cursor::new(src);
    let header = parse_header(&mut cur)?;
    let mut lanes = [header.hash; 2];
    let mut epochs: Vec<EpochRecord> = Vec::new();
    while let Some((record, advanced)) = parse_epoch(&mut cur, epochs.len(), lanes)? {
        lanes = advanced;
        epochs.push(record);
    }
    let (report_checksum, trace_checksum) = parse_trailer(&mut cur, lanes[1])?;
    if let Some(extra) = trailing_content(&mut cur) {
        return Err(err(cur.pos + 1, format!("trailing content after checksum: '{extra}'")));
    }
    let Header { scenario, seed, spec_toml, admissions, .. } = header;
    Ok(RunLog { scenario, seed, spec_toml, admissions, epochs, report_checksum, trace_checksum })
}

// ---------------------------------------------------------------------------
// Salvage
// ---------------------------------------------------------------------------

/// Describes the bytes a salvage discarded after the last durable epoch
/// boundary (see [`parse_salvage`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornTail {
    /// Bytes of the longest valid checksummed prefix that was kept.
    pub valid_bytes: usize,
    /// Bytes discarded past the tear (0 when the log simply stopped at an
    /// epoch boundary with no trailer — a clean crash).
    pub discarded_bytes: usize,
    /// 1-based line of the first discarded line (one past the last line
    /// when the log ended early and nothing was discarded).
    pub line: usize,
    /// Why the remainder failed verification, in the strict parser's words.
    pub reason: String,
}

impl fmt::Display for TornTail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "torn tail at line {}: {} byte(s) kept, {} discarded ({})",
            self.line, self.valid_bytes, self.discarded_bytes, self.reason
        )
    }
}

/// The outcome of a salvage parse: the longest valid checksummed prefix,
/// plus what (if anything) was torn off.
#[derive(Debug, Clone, PartialEq)]
pub struct Salvage {
    /// The salvaged log. Unsealed (no report/trace checksums) when the
    /// tear took the trailer with it — exactly the shape
    /// `craqr_scenario::resume` accepts as a crash prefix.
    pub log: RunLog,
    /// `None` when the whole document verified (equivalent to a clean
    /// [`parse`]); otherwise the tear description.
    pub torn: Option<TornTail>,
}

/// Parses as much of a (possibly torn) log as verifies, instead of
/// rejecting it outright.
///
/// The salvage keeps the longest prefix whose checksums all hold —
/// header, then whole epochs up to the first block whose chained CRC
/// fails or that is cut mid-record — and reports everything after that
/// boundary as a structured [`TornTail`]. A log whose *header* does not
/// parse is beyond salvage (the scenario, seed, and spec are gone) and
/// still fails hard with the strict parser's error.
///
/// Guarantees, proptested against truncation at every byte offset:
/// the salvaged log's canonical render always re-parses clean, and it
/// never contains more epochs than the input's last durable (`end`-sealed)
/// epoch boundary.
pub fn parse_salvage(src: &str) -> Result<Salvage, CodecError> {
    let mut cur = Cursor::new(src);
    let header = parse_header(&mut cur)?;
    let mut lanes = [header.hash; 2];
    let mut epochs: Vec<EpochRecord> = Vec::new();
    let mut report_checksum = None;
    let mut trace_checksum = None;
    // The cursor at the first discarded line, and why it was discarded.
    let mut tear: Option<(Cursor<'_>, String)> = None;
    loop {
        let mark = cur.clone();
        match parse_epoch(&mut cur, epochs.len(), lanes) {
            Ok(Some((record, advanced))) => {
                lanes = advanced;
                epochs.push(record);
            }
            Ok(None) => {
                // `[final]` was consumed at `mark`. A trailer that fails
                // to verify is torn off whole — its seal lines attest to
                // a run this prefix does not represent.
                match parse_trailer(&mut cur, lanes[1]) {
                    Ok((report, trace)) => {
                        // Sealed trailer verified but unchecksummed
                        // content may ride behind it: keep the seals,
                        // tear at the first non-blank trailing line.
                        if trailing_content(&mut cur).is_some() {
                            tear = Some((cur, "trailing content after checksum".to_string()));
                        }
                        report_checksum = report;
                        trace_checksum = trace;
                    }
                    Err(reason) => tear = Some((mark, reason.message)),
                }
                break;
            }
            Err(reason) => {
                tear = Some((mark, reason.message));
                break;
            }
        }
    }
    let Header { scenario, seed, spec_toml, admissions, .. } = header;
    let log =
        RunLog { scenario, seed, spec_toml, admissions, epochs, report_checksum, trace_checksum };
    let torn = tear.map(|(mut at, reason)| {
        let valid_bytes = at.offset();
        TornTail { valid_bytes, discarded_bytes: src.len() - valid_bytes, line: at.pos + 1, reason }
    });
    Ok(Salvage { log, torn })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunLog {
        RunLog {
            scenario: "unit".into(),
            seed: 4101,
            spec_toml: "name = \"unit\"\nseed = 4101\n".into(),
            admissions: vec![
                AdmissionRecord {
                    tenant: 0,
                    submission: 0,
                    demand: 12.5,
                    committed: 0.0,
                    capacity: 40.0,
                    admitted: true,
                },
                AdmissionRecord {
                    tenant: 1,
                    submission: 1,
                    demand: 99.0,
                    committed: 0.0,
                    capacity: 10.0,
                    admitted: false,
                },
            ],
            epochs: vec![
                EpochRecord {
                    epoch: 0,
                    shifts: vec![ShiftEvent::Participation { factor: 0.2 }],
                    requested: 64,
                    sent: 64,
                    dropped: 2,
                    delayed: 1,
                    duplicated: 0,
                    responses: vec![
                        ResponseRecord {
                            sensor: 12,
                            attr: 0,
                            t: 3.25,
                            x: 1.2,
                            y: 0.5,
                            value: ValueRecord::Float(18.25),
                            issued_at: 0.0,
                        },
                        ResponseRecord {
                            sensor: 7,
                            attr: 1,
                            t: 4.0,
                            x: 0.1,
                            y: 3.9,
                            value: ValueRecord::Bool(true),
                            issued_at: 0.0,
                        },
                    ],
                    actions: vec![],
                    charges: vec![ChargeRecord { tenant: 0, spent: 11.25 }],
                },
                EpochRecord {
                    epoch: 1,
                    shifts: vec![ShiftEvent::Dropout {
                        probability: 0.5,
                        rect: (0.0, 0.0, 2.0, 2.0),
                    }],
                    requested: 96,
                    sent: 90,
                    dropped: 0,
                    delayed: 0,
                    duplicated: 0,
                    responses: vec![],
                    actions: vec![
                        ActionRecord::SetBudget { cell: (1, 0), attr: 0, budget: 3.5 },
                        ActionRecord::RebuildChain { cell: (1, 0), attr: 0 },
                    ],
                    charges: vec![],
                },
            ],
            report_checksum: Some(0xDEAD),
            trace_checksum: None,
        }
    }

    #[test]
    fn render_is_deterministic_and_parses_back() {
        let log = sample();
        let text = render(&log);
        assert_eq!(text, render(&log));
        let parsed = parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(parsed, log);
    }

    #[test]
    fn tampering_with_any_epoch_is_detected() {
        let text = render(&sample());
        // Flip one response value deep inside epoch 0.
        let tampered = text.replace("v=f18.25", "v=f19.25");
        assert_ne!(text, tampered);
        let e = parse(&tampered).unwrap_err();
        assert!(e.message.contains("checksum mismatch"), "{e}");

        // Drop epoch 1's block entirely (splice epoch 0's end straight to
        // [final]): the chain breaks at the document trailer.
        let start = text.find("[epoch 1]").unwrap();
        let end = text.find("[final]").unwrap();
        let truncated = format!("{}{}", &text[..start], &text[end..]);
        assert!(parse(&truncated).is_err());
    }

    #[test]
    fn version_and_structure_are_enforced() {
        let text = render(&sample());
        let future = text.replace("# craqr runlog v1", "# craqr runlog v2");
        let e = parse(&future).unwrap_err();
        assert!(e.message.contains("unsupported runlog version"), "{e}");
        assert_eq!(e.line, 1);

        let reordered = text.replace("[epoch 1]", "[epoch 7]");
        let e = parse(&reordered).unwrap_err();
        assert!(e.message.contains("gap-free"), "{e}");

        assert!(parse("").is_err());
        assert!(parse("# craqr runlog v1\n").is_err());

        // Trailing garbage is rejected even when a blank line precedes it
        // — nothing unchecksummed may ride along after the trailer.
        let annotated = format!("{text}\nTAMPERED ANNOTATION\n");
        let e = parse(&annotated).unwrap_err();
        assert!(e.message.contains("trailing content"), "{e}");
        // A stray final newline alone stays tolerated.
        assert!(parse(&format!("{text}\n")).is_ok());
    }

    #[test]
    fn empty_log_round_trips() {
        let log = RunLog {
            scenario: "empty".into(),
            seed: 0,
            spec_toml: String::new(),
            admissions: vec![],
            epochs: vec![],
            report_checksum: None,
            trace_checksum: None,
        };
        let text = render(&log);
        assert_eq!(parse(&text).unwrap(), log);
    }

    #[test]
    fn floats_round_trip_in_shortest_form() {
        use craqr_stats::format_float as fmt_f64;
        for f in [0.1, -0.0, 1.0, 1e-300, f64::MAX, 123_456_789.123_456_79, 2.5e-17] {
            let s = fmt_f64(f);
            let back: f64 = s.parse().unwrap();
            assert_eq!(back.to_bits(), f.to_bits(), "{f} → '{s}' → {back}");
        }
        assert_eq!(fmt_f64(1.0), "1.0");
        assert_eq!(fmt_f64(-0.0), "-0.0");
    }

    #[test]
    fn checksum_matches_trailer_line() {
        let log = sample();
        let text = render(&log);
        assert!(text.ends_with(&format!("checksum: {}\n", fmt_crc(log.checksum()))));
    }
}
