//! `craqr-scenario`'s command-line contracts: `--help` anywhere prints the
//! usage pointer and exits 0; a knob outside its range is told as one
//! `error: <key>: <message>` line with exit 1, never a panic; and a log
//! damaged by bytes that are not UTF-8 is judged like any other damage —
//! exit 3 when a prefix salvages, 2 when the header is gone.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const POINTER: &str = "see the doc comment at the top of src/bin/craqr-scenario.rs for usage";

fn craqr_scenario(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_craqr-scenario"))
        .args(args)
        .output()
        .expect("craqr-scenario starts")
}

fn repo(path: &str) -> String {
    format!("{}/{path}", env!("CARGO_MANIFEST_DIR"))
}

/// A fresh directory under cargo's scratch space for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the scratch directory");
    dir
}

/// Writes `bytes` to `dir/name` and returns the path as an argument.
fn write(dir: &Path, name: &str, bytes: &[u8]) -> String {
    let path = dir.join(name);
    std::fs::write(&path, bytes).expect("write a scratch file");
    path.to_str().expect("a UTF-8 scratch path").to_string()
}

#[test]
fn help_flag_prints_the_usage_pointer_and_exits_0_everywhere() {
    let mut cases = vec![vec!["--help"]];
    for cmd in ["record", "replay", "resume", "diff", "salvage", "chaos"] {
        cases.push(vec![cmd, "--help"]);
        cases.push(vec![cmd, "-h"]);
    }
    for args in cases {
        let out = craqr_scenario(&args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert_eq!(stdout.trim_end(), POINTER, "{args:?}");
        assert!(stderr.is_empty(), "{args:?} wrote to stderr: {stderr}");
    }
}

#[test]
fn out_of_range_knobs_exit_1_with_one_error_line_naming_the_key() {
    let dir = scratch("out_of_range_knobs");
    let baseline = repo("scenarios/baseline_temp.toml");
    let spec = std::fs::read_to_string(&baseline).expect("read the baseline spec");
    assert!(spec.contains("\nside = 4\n"), "the baseline spec sets grid.side = 4");
    let zero_side =
        write(&dir, "zero_side.toml", spec.replace("\nside = 4\n", "\nside = 0\n").as_bytes());

    let no_workers = "error: exec.shards: Sharded(0) has no workers to run on";
    let cases = [
        (vec!["--shards", "0", &baseline], no_workers),
        (vec!["replay", "--shards", "0"], no_workers),
        (vec![&zero_side], "field 'grid.side': must be >= 1"),
    ];
    for (args, want) in cases {
        let out = craqr_scenario(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
        let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error:")).collect();
        assert_eq!(errors.len(), 1, "{args:?}: {stderr}");
        assert!(errors[0].contains(want), "{args:?}: want '{want}', got: {stderr}");
    }
}

/// The epochs a `salvage` run kept, from its `torn …: kept N epoch(s)` line.
fn kept_epochs(out: &Output) -> usize {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let kept = stdout.split("kept ").nth(1).unwrap_or_else(|| panic!("no 'kept': {stdout}"));
    kept.split(' ').next().and_then(|n| n.parse().ok()).expect("an epoch count")
}

#[test]
fn non_utf8_bytes_tear_a_log_like_any_other_damage() {
    let dir = scratch("non_utf8");
    let out_dir = dir.to_str().expect("a UTF-8 scratch path");
    let spec = repo("scenarios/fault_flaky_crowd.toml");
    let out = craqr_scenario(&["record", &spec, "--out", out_dir]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let log = std::fs::read(dir.join("fault_flaky_crowd.runlog.txt")).unwrap();
    assert!(log.len() > 9_000 && log.is_ascii());

    let ascii_cut = write(&dir, "ascii_cut.runlog.txt", &log[..9_000]);
    let non_utf8_tail =
        write(&dir, "non_utf8_tail.runlog.txt", &[&log[..9_000], b"\xff\xfe"].concat());
    let non_utf8_header =
        write(&dir, "non_utf8_header.runlog.txt", &[&log[..10], b"\xff", &log[10..]].concat());

    let ascii = craqr_scenario(&["salvage", &ascii_cut]);
    assert_eq!(ascii.status.code(), Some(3));
    let torn = craqr_scenario(&["salvage", &non_utf8_tail]);
    assert_eq!(torn.status.code(), Some(3), "{}", String::from_utf8_lossy(&torn.stderr));
    assert_eq!(kept_epochs(&torn), kept_epochs(&ascii));
    assert!(kept_epochs(&torn) > 0);
    let replayed = craqr_scenario(&["replay", &non_utf8_tail]);
    assert_eq!(replayed.status.code(), Some(3), "{}", String::from_utf8_lossy(&replayed.stderr));

    for cmd in ["salvage", "replay"] {
        let out = craqr_scenario(&[cmd, &non_utf8_header]);
        assert_eq!(out.status.code(), Some(2), "{cmd}: {}", String::from_utf8_lossy(&out.stderr));
    }
}
