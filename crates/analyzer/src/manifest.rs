//! The tier manifest: `lint.toml` at the repository root.
//!
//! Parsed with a hand-rolled TOML subset (tables, `key = "string"`,
//! `key = ["array", "of", "strings"]` possibly spanning lines, `#`
//! comments) — the same in-crate discipline as the scenario config
//! parser. Unknown tables and keys are hard errors: a typoed tier entry
//! must not silently lint nothing.
//!
//! Schema:
//!
//! ```toml
//! [crates]          # lib crate name -> root source file (repo-relative)
//! craqr-core = "crates/core/src/lib.rs"
//!
//! [bins]            # binary target name -> root source file
//! craqr-scenario-cli = "src/bin/craqr-scenario.rs"
//!
//! [tiers]           # module-path prefixes; everything else is event tier
//! timing  = ["craqr-core::exec"]
//! neutral = ["craqr-analyzer"]
//!
//! [checksum]        # modules whose output feeds checksummed artifacts
//! contributors = ["craqr-runlog::codec"]
//!
//! [rng]             # the only modules allowed to construct RNGs
//! helpers = ["craqr-stats::rng"]
//!
//! [warn]            # file-path prefixes where W1 counts unwraps
//! unwrap = ["src/bin"]
//! ```

/// Parsed `lint.toml`.
#[derive(Debug, Default, Clone)]
pub struct Manifest {
    /// Library crates: (crate name, repo-relative root file).
    pub crates: Vec<(String, String)>,
    /// Binary targets: (target name, repo-relative root file).
    pub bins: Vec<(String, String)>,
    /// Module-path prefixes classified as timing tier.
    pub timing: Vec<String>,
    /// Module-path prefixes classified as neutral tier.
    pub neutral: Vec<String>,
    /// Module-path prefixes that feed checksummed artifacts (R5/R6).
    pub contributors: Vec<String>,
    /// Module-path prefixes allowed to construct RNGs (R3).
    pub rng_helpers: Vec<String>,
    /// File-path prefixes where W1 counts `.unwrap()`/`.expect()`.
    pub warn_unwrap: Vec<String>,
}

/// Parses manifest text; errors carry the 1-based line.
pub fn parse(text: &str) -> Result<Manifest, String> {
    let mut m = Manifest::default();
    let mut section = String::new();
    let mut lines = text.lines().enumerate().peekable();

    while let Some((idx, raw)) = lines.next() {
        let line_no = idx + 1;
        let line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            section = name.trim().to_string();
            if !matches!(
                section.as_str(),
                "crates" | "bins" | "tiers" | "checksum" | "rng" | "warn"
            ) {
                return Err(format!("line {line_no}: unknown table [{section}]"));
            }
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!("line {line_no}: expected `key = value`, got '{line}'"));
        };
        let key = key.trim().to_string();
        let mut value = value.trim().to_string();
        // Multi-line arrays: accumulate until brackets balance.
        while value.starts_with('[') && !array_closed(&value) {
            let Some((_, next)) = lines.next() else {
                return Err(format!("line {line_no}: unterminated array for '{key}'"));
            };
            value.push(' ');
            value.push_str(strip_comment(next).trim());
        }
        match section.as_str() {
            "crates" => m.crates.push((key, parse_string(&value, line_no)?)),
            "bins" => m.bins.push((key, parse_string(&value, line_no)?)),
            "tiers" => match key.as_str() {
                "timing" => m.timing = parse_array(&value, line_no)?,
                "neutral" => m.neutral = parse_array(&value, line_no)?,
                _ => return Err(format!("line {line_no}: unknown key '{key}' in [tiers]")),
            },
            "checksum" => match key.as_str() {
                "contributors" => m.contributors = parse_array(&value, line_no)?,
                _ => return Err(format!("line {line_no}: unknown key '{key}' in [checksum]")),
            },
            "rng" => match key.as_str() {
                "helpers" => m.rng_helpers = parse_array(&value, line_no)?,
                _ => return Err(format!("line {line_no}: unknown key '{key}' in [rng]")),
            },
            "warn" => match key.as_str() {
                "unwrap" => m.warn_unwrap = parse_array(&value, line_no)?,
                _ => return Err(format!("line {line_no}: unknown key '{key}' in [warn]")),
            },
            _ => return Err(format!("line {line_no}: key '{key}' outside any table")),
        }
    }
    if m.crates.is_empty() {
        return Err("manifest declares no [crates]".into());
    }
    Ok(m)
}

/// Strips a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// True when the bracket/quote structure of a partial array is complete.
fn array_closed(value: &str) -> bool {
    let mut depth = 0i32;
    let mut in_str = false;
    for c in value.chars() {
        match c {
            '"' => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            _ => {}
        }
    }
    depth == 0 && !in_str
}

fn parse_string(value: &str, line_no: usize) -> Result<String, String> {
    let v = value.trim();
    v.strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .map(str::to_string)
        .ok_or_else(|| format!("line {line_no}: expected a quoted string, got '{value}'"))
}

fn parse_array(value: &str, line_no: usize) -> Result<Vec<String>, String> {
    let v = value.trim();
    let Some(inner) = v.strip_prefix('[').and_then(|v| v.strip_suffix(']')) else {
        return Err(format!("line {line_no}: expected an array, got '{value}'"));
    };
    let mut out = Vec::new();
    for part in split_top_level(inner) {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        out.push(parse_string(part, line_no)?);
    }
    Ok(out)
}

/// Splits on commas outside strings (arrays never nest in this schema).
fn split_top_level(s: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut start = 0;
    let mut in_str = false;
    for (i, c) in s.char_indices() {
        match c {
            '"' => in_str = !in_str,
            ',' if !in_str => {
                parts.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&s[start..]);
    parts
}

/// True when module path `module` falls under `prefix`: equal, or extends
/// it at a `::` boundary (`craqr-core::exec` matches `craqr-core::exec`
/// and `craqr-core::exec::inner`, not `craqr-core::executor`).
pub fn module_matches(module: &str, prefix: &str) -> bool {
    module == prefix || (module.starts_with(prefix) && module[prefix.len()..].starts_with("::"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# tier manifest
[crates]
craqr-core = "crates/core/src/lib.rs"

[bins]
craqr-run = "src/bin/craqr-run.rs"

[tiers]
timing = [
    "craqr-core::exec",   # vDSO clock readers
]
neutral = ["craqr-analyzer"]

[checksum]
contributors = ["craqr-runlog::codec", "craqr-scenario::report"]

[rng]
helpers = ["craqr-stats::rng"]

[warn]
unwrap = ["src/bin"]
"#;

    #[test]
    fn parses_sample() {
        let m = parse(SAMPLE).expect("sample parses");
        assert_eq!(m.crates, vec![("craqr-core".into(), "crates/core/src/lib.rs".into())]);
        assert_eq!(m.timing, vec!["craqr-core::exec"]);
        assert_eq!(m.contributors.len(), 2);
        assert_eq!(m.warn_unwrap, vec!["src/bin"]);
    }

    #[test]
    fn unknown_table_rejected() {
        let err = parse("[nope]\nx = \"y\"\n").unwrap_err();
        assert!(err.contains("unknown table"), "{err}");
    }

    #[test]
    fn unknown_tier_key_rejected() {
        let err = parse("[crates]\nc = \"x\"\n[tiers]\ntimming = []\n").unwrap_err();
        assert!(err.contains("unknown key"), "{err}");
    }

    #[test]
    fn hash_inside_string_is_not_comment() {
        let m = parse("[crates]\nc = \"a#b\"\n").expect("parses");
        assert_eq!(m.crates[0].1, "a#b");
    }

    #[test]
    fn module_prefix_boundaries() {
        assert!(module_matches("craqr-core::exec", "craqr-core::exec"));
        assert!(module_matches("craqr-core::exec::inner", "craqr-core::exec"));
        assert!(module_matches("craqr-core::exec", "craqr-core"));
        assert!(!module_matches("craqr-core::executor", "craqr-core::exec"));
    }
}
