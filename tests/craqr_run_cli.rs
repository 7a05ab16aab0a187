//! `craqr-run`'s error contract: a flag outside its range is told
//! `error: <field>: <message>` on stderr, once, with exit status 1 — never
//! a panic.

use std::process::Command;

#[test]
fn out_of_range_flags_exit_1_with_one_error_line_naming_the_field() {
    let cases = [
        ("--grid", "0", "grid.side"),
        ("--budget", "-1", "budget.initial"),
        ("--size", "0", "--size"),
        ("--size", "nan", "--size"),
        ("--human", "1.5", "population.human_fraction"),
        ("--pool", "0", "--pool"),
        ("--shards", "0", "exec.shards"),
    ];
    for (flag, value, field) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_craqr-run"))
            .args([flag, value, "--epochs", "1", "--query"])
            .arg("ACQUIRE temp FROM RECT(0,0,4,4) RATE 0.2")
            .output()
            .expect("craqr-run starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag} {value}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag} {value} panicked: {stderr}");
        let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error:")).collect();
        assert_eq!(errors.len(), 1, "{flag} {value}: {stderr}");
        assert!(errors[0].starts_with(&format!("error: {field}: ")), "{flag} {value}: {stderr}");
    }
}
