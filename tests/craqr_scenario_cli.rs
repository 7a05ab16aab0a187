//! `craqr-scenario`'s help contract: `--help` or `-h`, bare or after any
//! subcommand, prints the usage pointer on stdout and exits 0 without
//! reading a spec or a log.

use std::process::Command;

const POINTER: &str = "see the doc comment at the top of src/bin/craqr-scenario.rs for usage";

#[test]
fn help_flag_prints_the_usage_pointer_and_exits_0_everywhere() {
    let mut cases = vec![vec!["--help"]];
    for cmd in ["record", "replay", "resume", "diff", "salvage", "chaos", "metrics"] {
        cases.push(vec![cmd, "--help"]);
        cases.push(vec![cmd, "-h"]);
    }
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_craqr-scenario"))
            .args(&args)
            .output()
            .expect("craqr-scenario starts");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert_eq!(stdout.trim_end(), POINTER, "{args:?}");
        assert!(stderr.is_empty(), "{args:?} wrote to stderr: {stderr}");
    }
}
