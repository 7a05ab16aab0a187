//! The single-pass parser against the parser it replaced (`oracle`, kept
//! verbatim): on rendered logs and on every kind of damage a file can
//! take — a bumped digit, a swapped character, whitespace edits inside
//! record lines, dropped, doubled or blank lines, cuts at any byte, CRLF
//! and lone-CR line ends — both must return the same `Ok` value or the
//! same `CodecError` (line and message), and salvage must keep the same
//! prefix with the same `TornTail`. Edits that would fail at the first
//! hash are also tried resealed, with every checksum recomputed, so they
//! reach the structural checks behind it.
//!
//! Also pins CRLF tolerance on the committed recordings: a golden run
//! log rewritten with `\r\n` line ends reads as the same log.

mod common;
mod oracle;

use common::{arb_log, bump_digit, digit_positions};
use craqr_runlog::{parse_salvage, RunLog};
use craqr_stats::{fnv1a64, fnv1a64_extend};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;

/// Runs both parsers and both salvages on `src` and requires identical
/// results. Compared through `Debug`, so floats must agree to the bit.
fn agree(src: &str) {
    let (new, old) = (RunLog::parse(src), oracle::parse(src));
    assert_eq!(format!("{new:?}"), format!("{old:?}"), "parse disagrees on:\n{src:?}");
    let (new, old) = (parse_salvage(src), oracle::parse_salvage(src));
    assert_eq!(format!("{new:?}"), format!("{old:?}"), "parse_salvage disagrees on:\n{src:?}");
}

/// `arb_log` with fault counters on some epochs, so `faults` lines are
/// rendered too.
fn arb_faulty_log(rng: &mut StdRng) -> RunLog {
    let mut log = arb_log(rng);
    for e in &mut log.epochs {
        if rng.gen_bool(1.0 / 3.0) {
            e.dropped = rng.gen_range(0..4);
            e.delayed = rng.gen_range(0..4);
            e.duplicated = rng.gen_range(1..4);
        }
    }
    log
}

fn hash_lines(hash: u64, lines: &[String]) -> u64 {
    lines.iter().fold(hash, |h, l| fnv1a64_extend(fnv1a64_extend(h, l.as_bytes()), b"\n"))
}

/// Recomputes every `end … crc=` value and the `checksum:` line of an
/// edited LF render the way the writer would have: the header (as its
/// `spec-lines:` count and `adm` lines delimit it) seeds the chain, each
/// block up to its `end` line is one link, and the document hash covers
/// every line before `checksum:`.
fn reseal(text: &str) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let spec = lines
        .get(3)
        .and_then(|l| l.strip_prefix("spec-lines: "))
        .and_then(|n| n.parse::<usize>().ok())
        .unwrap_or(0);
    let mut i = lines.len().min(4 + spec);
    while lines.get(i).is_some_and(|l| l.starts_with("adm ")) {
        i += 1;
    }
    let mut chain = hash_lines(fnv1a64(b""), &lines[..i]);
    let mut start = i;
    while i < lines.len() && lines[i] != "[final]" {
        if lines[i].starts_with("end ") {
            let seed = fnv1a64(format!("{chain:#018x}\n").as_bytes());
            chain = hash_lines(seed, &lines[start..i]);
            if let Some(p) = lines[i].find("crc=") {
                let tail = &lines[i][p + 4..];
                let q = tail.find(char::is_whitespace).map_or(lines[i].len(), |k| p + 4 + k);
                lines[i] = format!("{}{chain:#018x}{}", &lines[i][..p + 4], &lines[i][q..]);
            }
            start = i + 1;
        }
        i += 1;
    }
    if let Some(at) = lines[i..].iter().position(|l| l.starts_with("checksum: ")) {
        let doc = hash_lines(fnv1a64(b""), &lines[..i + at]);
        lines[i + at] = format!("checksum: {doc:#018x}");
    }
    let mut out = lines.join("\n");
    if text.ends_with('\n') {
        out.push('\n');
    }
    out
}

const RECORD_PREFIXES: [&str; 8] =
    ["adm ", "shift ", "dispatch ", "faults ", "r ", "act ", "charge ", "end "];

/// `text` with one whitespace edit on a record line: a separating space
/// widened or swapped for other whitespace, whitespace added at the start
/// or the end of the line, or a token split in two.
fn respace(text: &str, rng: &mut StdRng) -> String {
    let mut spaces = Vec::new();
    let mut line_bounds = Vec::new();
    let mut offset = 0;
    for line in text.split_inclusive('\n') {
        if RECORD_PREFIXES.iter().any(|p| line.starts_with(p)) {
            let end = offset + line.trim_end_matches('\n').len();
            line_bounds.push((offset, end));
            spaces.extend(line.match_indices(' ').map(|(i, _)| offset + i));
        }
        offset += line.len();
    }
    if line_bounds.is_empty() {
        return text.to_string();
    }
    let runs = ["\t", "  ", " \t", "\t ", "\u{0b}", "\u{0c}", "\u{a0}", "\u{3000}"];
    let run = runs[rng.gen_range(0..runs.len())];
    let (start, end) = line_bounds[rng.gen_range(0..line_bounds.len())];
    match rng.gen_range(0u8..5) {
        0 => format!("{}{run}{}", &text[..start], &text[start..]),
        1 => format!("{}{run}{}", &text[..end], &text[end..]),
        2 => {
            let at = rng.gen_range(start..end);
            let at = (start..=at).rev().find(|&i| text.is_char_boundary(i)).unwrap_or(start);
            format!("{}{run}{}", &text[..at], &text[at..])
        }
        _ => {
            let at = spaces[rng.gen_range(0..spaces.len())];
            format!("{}{run}{}", &text[..at], &text[at + 1..])
        }
    }
}

/// `text` with one whole line dropped or doubled, or a blank line put in.
fn relines(text: &str, rng: &mut StdRng) -> String {
    let mut lines: Vec<&str> = text.split_inclusive('\n').collect();
    let at = rng.gen_range(0..lines.len());
    match rng.gen_range(0u8..3) {
        0 => drop(lines.remove(at)),
        1 => lines.insert(at, lines[at]),
        _ => lines.insert(at, ["\n", " \n", "\t\n"][rng.gen_range(0..3)]),
    }
    lines.concat()
}

/// `text` with one ASCII character swapped for one that breaks a number,
/// a hex checksum, a key or a keyword. The line is drawn first, so the
/// short seal lines are hit as often as the long response lines.
fn scramble(text: &str, rng: &mut StdRng) -> String {
    let lines: Vec<&str> = text.split_inclusive('\n').collect();
    let line = rng.gen_range(0..lines.len());
    let start: usize = lines[..line].iter().map(|l| l.len()).sum();
    let ascii: Vec<usize> = lines[line]
        .char_indices()
        .filter(|&(_, c)| c.is_ascii_graphic())
        .map(|(i, _)| start + i)
        .collect();
    if ascii.is_empty() {
        return text.to_string();
    }
    let at = ascii[rng.gen_range(0..ascii.len())];
    let with = ["g", "z", ".", "-", "+", "e", "x", "_", ",", "=", "0x", "]"][rng.gen_range(0..12)];
    format!("{}{with}{}", &text[..at], &text[at + 1..])
}

/// `text` cut at a random character boundary.
fn cut(text: &str, rng: &mut StdRng) -> String {
    let mut at = rng.gen_range(0..text.len() + 1);
    while !text.is_char_boundary(at) {
        at -= 1;
    }
    text[..at].to_string()
}

/// `text` with one `\n` replaced by a lone `\r`, or a `\r` put in front of
/// one `\n`, or a `\r` dropped into the middle of a line.
fn stray_cr(text: &str, rng: &mut StdRng) -> String {
    let newlines: Vec<usize> = text.match_indices('\n').map(|(i, _)| i).collect();
    if newlines.is_empty() {
        return format!("{text}\r");
    }
    let at = newlines[rng.gen_range(0..newlines.len())];
    match rng.gen_range(0u8..3) {
        0 => format!("{}\r{}", &text[..at], &text[at + 1..]),
        1 => format!("{}\r{}", &text[..at], &text[at..]),
        _ => {
            let mid = at.saturating_sub(rng.gen_range(1..8));
            let mid = (0..=mid).rev().find(|&i| text.is_char_boundary(i)).unwrap_or(0);
            format!("{}\r{}", &text[..mid], &text[mid..])
        }
    }
}

fn crlf(text: &str) -> String {
    text.replace('\n', "\r\n")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn the_single_pass_parser_matches_the_old_one_on_every_kind_of_damage(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let log = arb_faulty_log(&mut rng);
        let text = log.canonical();
        agree(&text);
        agree(&crlf(&text));
        agree(&text.replace('\n', "\r"));
        agree(&format!("{text}\n \t\n"));

        let digits = digit_positions(&text);
        for _ in 0..8 {
            let bumped = bump_digit(&text, digits[rng.gen_range(0..digits.len())]);
            agree(&bumped);
            let resealed = reseal(&bumped);
            agree(&resealed);
            agree(&crlf(&resealed));
        }
        for _ in 0..8 {
            let resealed = reseal(&respace(&text, &mut rng));
            agree(&resealed);
            agree(&crlf(&resealed));
        }
        for _ in 0..4 {
            let edited = relines(&text, &mut rng);
            agree(&edited);
            agree(&reseal(&edited));
        }
        for _ in 0..8 {
            agree(&reseal(&scramble(&text, &mut rng)));
        }
        for _ in 0..8 {
            let prefix = cut(&text, &mut rng);
            agree(&prefix);
            agree(&crlf(&prefix));
        }
        for _ in 0..4 {
            agree(&stray_cr(&text, &mut rng));
        }
    }
}

#[test]
fn reseal_leaves_a_canonical_render_unchanged() {
    let mut rng = StdRng::seed_from_u64(27);
    for _ in 0..16 {
        let text = arb_faulty_log(&mut rng).canonical();
        assert_eq!(reseal(&text), text);
    }
}

#[test]
fn crlf_copies_of_the_committed_goldens_read_as_the_same_log() {
    let goldens = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/goldens");
    let mut read = 0;
    for entry in std::fs::read_dir(&goldens).expect("the golden directory is committed") {
        let path = entry.expect("a readable directory entry").path();
        if !path.to_string_lossy().ends_with(".runlog.txt") {
            continue;
        }
        let lf = std::fs::read_to_string(&path).expect("a committed golden is UTF-8 text");
        let want = RunLog::parse(&lf).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let crlf = crlf(&lf);
        let got =
            RunLog::parse(&crlf).unwrap_or_else(|e| panic!("{} as CRLF: {e}", path.display()));
        assert_eq!(got, want, "{} reads differently with CRLF line ends", path.display());
        let salvage = parse_salvage(&crlf).expect("a complete log salvages");
        assert_eq!(
            salvage.torn,
            None,
            "{} with CRLF line ends salvages with a tear",
            path.display()
        );
        assert_eq!(salvage.log, want);
        agree(&crlf);
        read += 1;
    }
    assert!(read >= 5, "found only {read} committed run logs under {}", goldens.display());
}
