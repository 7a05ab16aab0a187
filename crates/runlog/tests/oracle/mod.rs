//! The run-log parser as it stood before the single-pass read path: it
//! collects the lines into a `Vec`, joins each epoch block, the header
//! and the whole body into `String`s to hash them, and splits every
//! record line into a token `Vec`. Kept verbatim as the reference the
//! differential tests hold `craqr_runlog::codec::{parse, parse_salvage}`
//! to — same `Ok` value, same `CodecError`, same `TornTail` — on every
//! input they generate.

use craqr_runlog::log::RUNLOG_VERSION;
use craqr_runlog::{
    ActionRecord, AdmissionRecord, ChargeRecord, CodecError, EpochRecord, ResponseRecord, RunLog,
    Salvage, ShiftEvent, TornTail, ValueRecord,
};
use craqr_stats::{fnv1a64, fnv1a64_extend};

fn err(line: usize, message: impl Into<String>) -> CodecError {
    CodecError { line, message: message.into() }
}

fn parse_f64(s: &str, line: usize, what: &str) -> Result<f64, CodecError> {
    s.parse::<f64>().map_err(|_| err(line, format!("{what}: not a float: '{s}'")))
}

fn parse_u64(s: &str, line: usize, what: &str) -> Result<u64, CodecError> {
    s.parse::<u64>().map_err(|_| err(line, format!("{what}: not an unsigned integer: '{s}'")))
}

fn fmt_crc(crc: u64) -> String {
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

fn parse_rect(s: &str, line: usize) -> Result<(f64, f64, f64, f64), CodecError> {
    let parts: Vec<&str> = s.split(',').collect();
    if parts.len() != 4 {
        return Err(err(line, format!("rect needs 4 comma-separated floats, got '{s}'")));
    }
    Ok((
        parse_f64(parts[0], line, "rect.x0")?,
        parse_f64(parts[1], line, "rect.y0")?,
        parse_f64(parts[2], line, "rect.x1")?,
        parse_f64(parts[3], line, "rect.y1")?,
    ))
}

fn parse_cell(s: &str, line: usize) -> Result<(u32, u32), CodecError> {
    let (q, r) =
        s.split_once(',').ok_or_else(|| err(line, format!("cell needs 'q,r', got '{s}'")))?;
    let q = q.parse::<u32>().map_err(|_| err(line, format!("cell.q: bad integer '{q}'")))?;
    let r = r.parse::<u32>().map_err(|_| err(line, format!("cell.r: bad integer '{r}'")))?;
    Ok((q, r))
}

fn parse_shift_line(line_no: usize, rest: &str) -> Result<ShiftEvent, CodecError> {
    let tokens: Vec<&str> = rest.split_whitespace().collect();
    match tokens.first().copied() {
        Some("participation") if tokens.len() == 2 => Ok(ShiftEvent::Participation {
            factor: parse_f64(kv(tokens[1], "factor", line_no)?, line_no, "factor")?,
        }),
        Some("dropout") if tokens.len() == 3 => Ok(ShiftEvent::Dropout {
            probability: parse_f64(kv(tokens[1], "probability", line_no)?, line_no, "probability")?,
            rect: parse_rect(kv(tokens[2], "rect", line_no)?, line_no)?,
        }),
        Some("migrate") if tokens.len() == 3 => Ok(ShiftEvent::Migrate {
            probability: parse_f64(kv(tokens[1], "probability", line_no)?, line_no, "probability")?,
            rect: parse_rect(kv(tokens[2], "rect", line_no)?, line_no)?,
        }),
        _ => Err(err(line_no, format!("malformed shift record: 'shift {rest}'"))),
    }
}

fn parse_response_line(line_no: usize, rest: &str) -> Result<ResponseRecord, CodecError> {
    let tokens: Vec<&str> = rest.split_whitespace().collect();
    if tokens.len() != 7 {
        return Err(err(line_no, format!("response record needs 7 fields, got 'r {rest}'")));
    }
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
    let tokens: Vec<&str> = rest.split_whitespace().collect();
    if tokens.len() != 6 {
        return Err(err(line_no, format!("admission record needs 6 fields, got 'adm {rest}'")));
    }
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
    let tokens: Vec<&str> = rest.split_whitespace().collect();
    if tokens.len() != 2 {
        return Err(err(line_no, format!("charge record needs 2 fields, got 'charge {rest}'")));
    }
    Ok(ChargeRecord {
        tenant: parse_u64(kv(tokens[0], "tenant", line_no)?, line_no, "tenant")?
            .try_into()
            .map_err(|_| err(line_no, "tenant: does not fit in u32".to_string()))?,
        spent: parse_f64(kv(tokens[1], "spent", line_no)?, line_no, "spent")?,
    })
}

fn parse_action_line(line_no: usize, rest: &str) -> Result<ActionRecord, CodecError> {
    let tokens: Vec<&str> = rest.split_whitespace().collect();
    let attr_of = |token: &str| -> Result<u16, CodecError> {
        parse_u64(kv(token, "attr", line_no)?, line_no, "attr")?
            .try_into()
            .map_err(|_| err(line_no, "attr: attribute id does not fit in u16".to_string()))
    };
    match tokens.first().copied() {
        Some("set") if tokens.len() == 4 => Ok(ActionRecord::SetBudget {
            cell: parse_cell(kv(tokens[1], "cell", line_no)?, line_no)?,
            attr: attr_of(tokens[2])?,
            budget: parse_f64(kv(tokens[3], "budget", line_no)?, line_no, "budget")?,
        }),
        Some("rebuild") if tokens.len() == 3 => Ok(ActionRecord::RebuildChain {
            cell: parse_cell(kv(tokens[1], "cell", line_no)?, line_no)?,
            attr: attr_of(tokens[2])?,
        }),
        _ => Err(err(line_no, format!("malformed action record: 'act {rest}'"))),
    }
}

/// The hash a chain link starts from: the previous link's `"<crc>\n"`.
fn link_seed(chain: u64) -> u64 {
    fnv1a64(format!("{chain:#018x}\n").as_bytes())
}

/// Advances the chained checksum over one epoch block: each link hashes
/// its block *and* the previous link, so order and completeness are
/// pinned.
fn advance_chain(chain: u64, block: &str) -> u64 {
    fnv1a64_extend(link_seed(chain), block.as_bytes())
}

struct Cursor<'a> {
    lines: Vec<&'a str>,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn line_no(&self) -> usize {
        self.pos // pos is the index of the *next* line; after next() it is 1-based current
    }

    fn next(&mut self) -> Option<&'a str> {
        let line = self.lines.get(self.pos).copied();
        if line.is_some() {
            self.pos += 1;
        }
        line
    }

    fn peek(&self) -> Option<&'a str> {
        self.lines.get(self.pos).copied()
    }

    fn expect_prefix(&mut self, prefix: &str) -> Result<&'a str, CodecError> {
        match self.next() {
            Some(line) => line
                .strip_prefix(prefix)
                .ok_or_else(|| err(self.line_no(), format!("expected '{prefix}…', got '{line}'"))),
            None => Err(err(0, format!("unexpected end of log, expected '{prefix}…'"))),
        }
    }
}

/// The parsed checksummed header plus the chain seed it hashes to.
struct Header {
    scenario: String,
    seed: u64,
    spec_toml: String,
    admissions: Vec<AdmissionRecord>,
    chain: u64,
}

fn parse_header(cur: &mut Cursor<'_>) -> Result<Header, CodecError> {
    let version = cur.expect_prefix("# craqr runlog v")?;
    if version.trim() != RUNLOG_VERSION.to_string() {
        return Err(err(
            1,
            format!("unsupported runlog version 'v{version}' (this build reads v{RUNLOG_VERSION})"),
        ));
    }
    let scenario = cur.expect_prefix("scenario: ")?.to_string();
    let seed_str = cur.expect_prefix("seed: ")?;
    let seed = parse_u64(seed_str, cur.line_no(), "seed")?;
    let n_str = cur.expect_prefix("spec-lines: ")?;
    let spec_lines = parse_u64(n_str, cur.line_no(), "spec-lines")? as usize;
    let mut spec_toml = String::new();
    for _ in 0..spec_lines {
        match cur.next() {
            Some(line) => {
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
        admissions.push(parse_admission_line(cur.line_no(), rest)?);
    }
    let header: String = cur.lines[..cur.pos].iter().flat_map(|l| [l, "\n"]).collect::<String>();
    let chain = fnv1a64(header.as_bytes());
    Ok(Header { scenario, seed, spec_toml, admissions, chain })
}

/// Parses one epoch block (through its verified `end` line), or consumes
/// the `[final]` marker and returns `Ok(None)`.
///
/// `chain` is taken by value and the advanced link is returned alongside
/// the record, so a failed call leaves the caller's chain untouched — the
/// property the salvage parser relies on to re-anchor at the last good
/// epoch boundary.
fn parse_epoch(
    cur: &mut Cursor<'_>,
    parsed: usize,
    chain: u64,
) -> Result<Option<(EpochRecord, u64)>, CodecError> {
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

    let mut block = format!("{line}\n");
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
            let tokens: Vec<&str> = rest.split_whitespace().collect();
            if tokens.len() != 2 {
                return Err(err(line_no, format!("malformed end line: '{line}'")));
            }
            let end_epoch = parse_u64(kv(tokens[0], "epoch", line_no)?, line_no, "epoch")?;
            if end_epoch != epoch {
                return Err(err(
                    line_no,
                    format!("end line closes epoch {end_epoch} inside epoch {epoch}"),
                ));
            }
            let recorded = parse_crc(kv(tokens[1], "crc", line_no)?, line_no, "crc")?;
            let advanced = advance_chain(chain, &block);
            if recorded != advanced {
                return Err(err(
                    line_no,
                    format!(
                        "epoch {epoch} checksum mismatch: log says {}, content hashes to {} \
                         (the log was truncated, reordered, or edited)",
                        fmt_crc(recorded),
                        fmt_crc(advanced)
                    ),
                ));
            }
            return Ok(Some((record, advanced)));
        }
        block.push_str(line);
        block.push('\n');
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
            let tokens: Vec<&str> = rest.split_whitespace().collect();
            if tokens.len() != 2 {
                return Err(err(line_no, format!("malformed dispatch line: '{line}'")));
            }
            record.requested =
                parse_u64(kv(tokens[0], "requested", line_no)?, line_no, "requested")?;
            record.sent = parse_u64(kv(tokens[1], "sent", line_no)?, line_no, "sent")?;
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
            let tokens: Vec<&str> = rest.split_whitespace().collect();
            if tokens.len() != 3 {
                return Err(err(line_no, format!("malformed faults line: '{line}'")));
            }
            record.dropped = parse_u64(kv(tokens[0], "dropped", line_no)?, line_no, "dropped")?;
            record.delayed = parse_u64(kv(tokens[1], "delayed", line_no)?, line_no, "delayed")?;
            record.duplicated =
                parse_u64(kv(tokens[2], "duplicated", line_no)?, line_no, "duplicated")?;
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
/// checksum over everything consumed so far. The `[final]` marker itself
/// must already have been consumed.
fn parse_trailer(cur: &mut Cursor<'_>) -> Result<(Option<u64>, Option<u64>), CodecError> {
    let mut report_checksum = None;
    let mut trace_checksum = None;
    if let Some(line) = cur.peek() {
        if let Some(rest) = line.strip_prefix("report-checksum: ") {
            report_checksum = Some(parse_crc(rest, cur.pos + 1, "report-checksum")?);
            cur.next();
        }
    }
    if let Some(line) = cur.peek() {
        if let Some(rest) = line.strip_prefix("trace-checksum: ") {
            trace_checksum = Some(parse_crc(rest, cur.pos + 1, "trace-checksum")?);
            cur.next();
        }
    }
    let checksum_line_no = cur.pos + 1;
    let recorded = parse_crc(cur.expect_prefix("checksum: ")?, checksum_line_no, "checksum")?;
    let body: String = cur.lines[..cur.pos - 1].iter().flat_map(|l| [l, "\n"]).collect::<String>();
    let actual = fnv1a64(body.as_bytes());
    if recorded != actual {
        return Err(err(
            checksum_line_no,
            format!(
                "document checksum mismatch: log says {}, content hashes to {}",
                fmt_crc(recorded),
                fmt_crc(actual)
            ),
        ));
    }
    Ok((report_checksum, trace_checksum))
}

/// Nothing may follow the trailer (whitespace-only lines — a stray final
/// newline from an editor — are tolerated): anything else is unchecksummed
/// content masquerading as part of the log.
fn check_no_trailing(cur: &mut Cursor<'_>) -> Result<(), CodecError> {
    while let Some(extra) = cur.next() {
        if !extra.trim().is_empty() {
            return Err(err(cur.line_no(), format!("trailing content after checksum: '{extra}'")));
        }
    }
    Ok(())
}

/// Parses (and integrity-checks) a canonical text log: the version stamp,
/// every per-epoch chained checksum, and the whole-document trailer must
/// all verify, and epoch indices must be gap-free from zero.
pub fn parse(src: &str) -> Result<RunLog, CodecError> {
    let mut cur = Cursor { lines: src.lines().collect(), pos: 0 };
    let header = parse_header(&mut cur)?;
    let mut chain = header.chain;
    let mut epochs: Vec<EpochRecord> = Vec::new();
    while let Some((record, advanced)) = parse_epoch(&mut cur, epochs.len(), chain)? {
        chain = advanced;
        epochs.push(record);
    }
    let (report_checksum, trace_checksum) = parse_trailer(&mut cur)?;
    check_no_trailing(&mut cur)?;
    let Header { scenario, seed, spec_toml, admissions, .. } = header;
    Ok(RunLog { scenario, seed, spec_toml, admissions, epochs, report_checksum, trace_checksum })
}

/// Byte offset where 0-based line `idx` starts in `src` (i.e. the length
/// of the first `idx` lines including their newlines); `src.len()` when
/// `idx` is past the last line.
fn byte_offset_of_line(src: &str, idx: usize) -> usize {
    let mut offset = 0;
    for (i, seg) in src.split_inclusive('\n').enumerate() {
        if i == idx {
            return offset;
        }
        offset += seg.len();
    }
    src.len()
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
    let mut cur = Cursor { lines: src.lines().collect(), pos: 0 };
    let header = parse_header(&mut cur)?;
    let mut chain = header.chain;
    let mut epochs: Vec<EpochRecord> = Vec::new();
    let mut report_checksum = None;
    let mut trace_checksum = None;
    let mut tear: Option<(usize, CodecError)> = None;
    loop {
        let mark = cur.pos;
        match parse_epoch(&mut cur, epochs.len(), chain) {
            Ok(Some((record, advanced))) => {
                chain = advanced;
                epochs.push(record);
            }
            Ok(None) => {
                // `[final]` was consumed at line index `mark`. A trailer
                // that fails to verify is torn off whole — its seal lines
                // attest to a run this prefix does not represent.
                match parse_trailer(&mut cur) {
                    Ok((report, trace)) => {
                        let after = cur.pos;
                        if check_no_trailing(&mut cur).is_err() {
                            // Sealed trailer verified but unchecksummed
                            // content rides behind it: keep the seals,
                            // tear at the first non-blank trailing line.
                            let mut idx = after;
                            while cur.lines[idx].trim().is_empty() {
                                idx += 1;
                            }
                            let reason =
                                err(idx + 1, "trailing content after checksum".to_string());
                            tear = Some((idx, reason));
                        }
                        report_checksum = report;
                        trace_checksum = trace;
                    }
                    Err(reason) => {
                        cur.pos = mark;
                        tear = Some((mark, reason));
                    }
                }
                break;
            }
            Err(reason) => {
                cur.pos = mark;
                tear = Some((mark, reason));
                break;
            }
        }
    }
    let Header { scenario, seed, spec_toml, admissions, .. } = header;
    let log =
        RunLog { scenario, seed, spec_toml, admissions, epochs, report_checksum, trace_checksum };
    let torn = tear.map(|(idx, reason)| {
        let valid_bytes = byte_offset_of_line(src, idx);
        TornTail {
            valid_bytes,
            discarded_bytes: src.len() - valid_bytes,
            line: idx + 1,
            reason: reason.message,
        }
    });
    Ok(Salvage { log, torn })
}
