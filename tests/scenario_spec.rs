//! Spec-parsing coverage: precise rejection of malformed scenarios (a few
//! by hand, every single-line mutation of a whole-schema spec through the
//! committed table `tests/spec_rejections.txt`), what reading and writing
//! must agree on, the `scenarios/README.md` schema listing against the
//! write walk, and a property test that every valid spec survives
//! serialize → parse unchanged, through both syntaxes.

use craqr::scenario::value::{ConfigValue, Table};
use craqr::scenario::{
    AdaptiveSpec, AttributeSpec, BudgetSpec, ChurnSpec, CrashSpec, CrowdFaultSpec, ErrorSpec,
    FaultsSpec, FieldSpec, GridSpec, MobilitySpec, PlacementSpec, PlannerSpec, PopulationSpec,
    QuerySpec, RetrySpec, RunlogSpec, ScenarioSpec, ShiftSpec, SpecError, TelemetrySpec,
    TenantSpec,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

const MINIMAL: &str = r#"
name = "minimal"
seed = 7
epochs = 3

[grid]
size_km = 4.0
side = 4

[population]
size = 200
human_fraction = 0.25
placement = { kind = "uniform" }
mobility = { kind = "walk", sigma = 0.2 }

[[attributes]]
name = "temp"
field = { kind = "constant", value = 21.0 }

[[queries]]
text = "ACQUIRE temp FROM RECT(0,0,2,2) RATE 0.5"
"#;

fn mutate(from: &str, to: &str) -> Result<ScenarioSpec, SpecError> {
    let src = MINIMAL.replace(from, to);
    assert_ne!(src, MINIMAL, "mutation '{from}' did not apply");
    ScenarioSpec::from_toml(&src)
}

#[test]
fn unknown_fields_are_named_with_their_full_path() {
    for (from, to, path) in [
        ("size_km = 4.0", "size_km = 4.0\nsdie = 4", "grid.sdie"),
        ("human_fraction = 0.25", "human_fractoin = 0.25", "population.human_fractoin"),
        (
            "placement = { kind = \"uniform\" }",
            "placement = { kind = \"uniform\", denisty = 1.0 }",
            "population.placement.denisty",
        ),
        (
            "field = { kind = \"constant\", value = 21.0 }",
            "field = { kind = \"constant\", value = 21.0, unit = \"C\" }",
            "attributes[0].field.unit",
        ),
    ] {
        match mutate(from, to) {
            Err(SpecError::UnknownField { path: p }) => assert_eq!(p, path),
            other => panic!("expected UnknownField({path}), got {other:?}"),
        }
    }
}

#[test]
fn zero_cell_grids_are_rejected() {
    match mutate("side = 4", "side = 0") {
        Err(SpecError::OutOfRange { path, message }) => {
            assert_eq!(path, "grid.side");
            assert!(message.contains("zero-cell"), "{message}");
        }
        other => panic!("expected OutOfRange(grid.side), got {other:?}"),
    }
    // A zero-sized region is just as unplannable.
    assert!(matches!(
        mutate("size_km = 4.0", "size_km = 0.0"),
        Err(SpecError::OutOfRange { path, .. }) if path == "grid.size_km"
    ));
}

#[test]
fn out_of_range_budgets_are_rejected() {
    let bad = format!("{MINIMAL}\n[budget]\ninitial = -1.0\n");
    assert!(matches!(
        ScenarioSpec::from_toml(&bad),
        Err(SpecError::OutOfRange { path, .. }) if path == "budget.initial"
    ));
    let inverted = format!("{MINIMAL}\n[budget]\nmin = 50.0\nmax = 10.0\n");
    assert!(matches!(
        ScenarioSpec::from_toml(&inverted),
        Err(SpecError::OutOfRange { path, .. }) if path == "budget.max"
    ));
    let nv = format!("{MINIMAL}\n[budget]\nnv_threshold = 250.0\n");
    assert!(matches!(
        ScenarioSpec::from_toml(&nv),
        Err(SpecError::OutOfRange { path, .. }) if path == "budget.nv_threshold"
    ));
}

#[test]
fn type_and_structure_errors_are_precise() {
    assert!(matches!(
        mutate("seed = 7", "seed = \"seven\""),
        Err(SpecError::TypeMismatch { path, expected: "integer", .. }) if path == "seed"
    ));
    assert!(matches!(
        mutate("seed = 7", "seed = -7"),
        Err(SpecError::OutOfRange { path, .. }) if path == "seed"
    ));
    assert!(matches!(
        mutate("epochs = 3", "epochs = 0"),
        Err(SpecError::OutOfRange { path, .. }) if path == "epochs"
    ));
    // Missing required section.
    let no_grid = MINIMAL.replace("[grid]\nsize_km = 4.0\nside = 4\n", "");
    assert!(matches!(
        ScenarioSpec::from_toml(&no_grid),
        Err(SpecError::MissingField { path }) if path == "grid"
    ));
    // Unknown enum tags.
    assert!(matches!(
        mutate("kind = \"walk\", sigma = 0.2", "kind = \"teleport\", sigma = 0.2"),
        Err(SpecError::OutOfRange { path, .. }) if path == "population.mobility.kind"
    ));
    // Broken syntax reports a line.
    match ScenarioSpec::from_toml("name = \"x\"\nseed = = 3\n") {
        Err(SpecError::Syntax(e)) => assert_eq!(e.line, 2),
        other => panic!("expected Syntax error, got {other:?}"),
    }
}

#[test]
fn semantic_duplicates_and_empties_are_rejected() {
    let dup = MINIMAL.replace(
        "[[queries]]",
        "[[attributes]]\nname = \"temp\"\nfield = { kind = \"constant\", value = 1.0 }\n\n[[queries]]",
    );
    assert!(matches!(
        ScenarioSpec::from_toml(&dup),
        Err(SpecError::OutOfRange { path, .. }) if path == "attributes[1].name"
    ));
    assert!(matches!(
        mutate("text = \"ACQUIRE temp FROM RECT(0,0,2,2) RATE 0.5\"", "text = \"  \""),
        Err(SpecError::OutOfRange { path, .. }) if path == "queries[0].text"
    ));
}

#[test]
fn tenants_block_is_strictly_parsed() {
    const TENANTED: &str = r#"
[[tenants]]
name = "alice"
pool = 40.0
"#;
    // Declaring tenants makes the per-query tenant key mandatory…
    let missing = format!("{MINIMAL}\n{TENANTED}");
    assert!(matches!(
        ScenarioSpec::from_toml(&missing),
        Err(SpecError::OutOfRange { path, .. }) if path == "queries[0].tenant"
    ));
    // …and naming a declared tenant makes the spec valid.
    let ok = format!(
        "{}\n{TENANTED}",
        MINIMAL.replace("[[queries]]", "[[queries]]\ntenant = \"alice\"")
    );
    let spec = ScenarioSpec::from_toml(&ok).unwrap();
    assert_eq!(spec.tenants.len(), 1);
    assert_eq!(spec.queries[0].tenant.as_deref(), Some("alice"));

    // Undeclared references, duplicate names, bad pools, tenant keys
    // without a block — all rejected with precise paths.
    let unknown = ok.replace("tenant = \"alice\"", "tenant = \"mallory\"");
    assert!(matches!(
        ScenarioSpec::from_toml(&unknown),
        Err(SpecError::OutOfRange { path, .. }) if path == "queries[0].tenant"
    ));
    let dup = format!("{ok}\n[[tenants]]\nname = \"alice\"\npool = 9.0\n");
    assert!(matches!(
        ScenarioSpec::from_toml(&dup),
        Err(SpecError::OutOfRange { path, .. }) if path == "tenants[1].name"
    ));
    let bad_pool = ok.replace("pool = 40.0", "pool = 0.0");
    assert!(matches!(
        ScenarioSpec::from_toml(&bad_pool),
        Err(SpecError::OutOfRange { path, .. }) if path == "tenants[0].pool"
    ));
    let orphan_key = MINIMAL.replace("[[queries]]", "[[queries]]\ntenant = \"alice\"");
    assert!(matches!(
        ScenarioSpec::from_toml(&orphan_key),
        Err(SpecError::OutOfRange { path, .. }) if path == "queries[0].tenant"
    ));
    let typo = format!("{ok}\n[[tenants]]\nname = \"bob\"\npool = 5.0\npol = 1.0\n");
    assert!(matches!(
        ScenarioSpec::from_toml(&typo),
        Err(SpecError::UnknownField { path }) if path == "tenants[1].pol"
    ));
    // A flat adaptive budget_pool contradicts per-tenant pools.
    let contradiction = format!("{ok}\n[adaptive]\nbudget_pool = 30.0\n");
    assert!(matches!(
        ScenarioSpec::from_toml(&contradiction),
        Err(SpecError::OutOfRange { path, .. }) if path == "adaptive.budget_pool"
    ));
}

#[test]
fn adaptive_block_is_strictly_parsed() {
    let ok = format!("{MINIMAL}\n[adaptive]\ndetector = \"page_hinkley\"\nthreshold = 6.0\n");
    let spec = ScenarioSpec::from_toml(&ok).unwrap();
    let a = spec.adaptive.as_ref().expect("adaptive block parsed");
    assert!(a.enabled, "enabled defaults to true");
    assert_eq!(a.detector, "page_hinkley");
    assert_eq!(a.threshold, 6.0);

    let typo = format!("{MINIMAL}\n[adaptive]\nthresold = 6.0\n");
    assert!(matches!(
        ScenarioSpec::from_toml(&typo),
        Err(SpecError::UnknownField { path }) if path == "adaptive.thresold"
    ));
    let bad_kind = format!("{MINIMAL}\n[adaptive]\ndetector = \"ewma\"\n");
    assert!(matches!(
        ScenarioSpec::from_toml(&bad_kind),
        Err(SpecError::OutOfRange { path, .. }) if path == "adaptive.detector"
    ));
    let bad_threshold = format!("{MINIMAL}\n[adaptive]\nthreshold = 0.0\n");
    assert!(matches!(
        ScenarioSpec::from_toml(&bad_threshold),
        Err(SpecError::OutOfRange { path, .. }) if path == "adaptive.threshold"
    ));
}

#[test]
fn shifts_are_strictly_parsed() {
    let ok = format!(
        "{MINIMAL}\n[[shifts]]\nkind = \"dropout\"\nepoch = 1\nprobability = 0.5\n\
         rect = [0.0, 0.0, 2.0, 2.0]\n"
    );
    let spec = ScenarioSpec::from_toml(&ok).unwrap();
    assert_eq!(spec.shifts.len(), 1);
    assert_eq!(spec.shifts[0].epoch(), 1);

    let late =
        format!("{MINIMAL}\n[[shifts]]\nkind = \"participation\"\nepoch = 99\nfactor = 2.0\n");
    assert!(matches!(
        ScenarioSpec::from_toml(&late),
        Err(SpecError::OutOfRange { path, .. }) if path == "shifts[0].epoch"
    ));
    let inverted_rect = format!(
        "{MINIMAL}\n[[shifts]]\nkind = \"migrate\"\nepoch = 0\nprobability = 0.5\n\
         rect = [2.0, 0.0, 1.0, 2.0]\n"
    );
    assert!(matches!(
        ScenarioSpec::from_toml(&inverted_rect),
        Err(SpecError::OutOfRange { path, .. }) if path == "shifts[0].rect"
    ));
    let unknown_kind = format!("{MINIMAL}\n[[shifts]]\nkind = \"earthquake\"\nepoch = 0\n");
    assert!(matches!(
        ScenarioSpec::from_toml(&unknown_kind),
        Err(SpecError::OutOfRange { path, .. }) if path == "shifts[0].kind"
    ));
    // A migrate target outside the world would strand the crowd where no
    // request can reach; a dropout region outside it is a silent no-op.
    let stranded = format!(
        "{MINIMAL}\n[[shifts]]\nkind = \"migrate\"\nepoch = 0\nprobability = 0.5\n\
         rect = [100.0, 100.0, 110.0, 110.0]\n"
    );
    assert!(matches!(
        ScenarioSpec::from_toml(&stranded),
        Err(SpecError::OutOfRange { path, .. }) if path == "shifts[0].rect"
    ));
    let noop = format!(
        "{MINIMAL}\n[[shifts]]\nkind = \"dropout\"\nepoch = 0\nprobability = 0.5\n\
         rect = [10.0, 10.0, 12.0, 12.0]\n"
    );
    assert!(matches!(
        ScenarioSpec::from_toml(&noop),
        Err(SpecError::OutOfRange { path, .. }) if path == "shifts[0].rect"
    ));
}

// ---------------------------------------------------------------------------
// What reading and writing must agree on
// ---------------------------------------------------------------------------

#[test]
fn every_committed_scenario_round_trips_and_is_written_in_read_order() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios");
    let files = craqr::scenario::scenario_files(&dir).expect("scenarios dir");
    assert!(files.len() >= 16, "the corpus shrank to {}", files.len());
    for path in files {
        let src = std::fs::read_to_string(&path).unwrap();
        let spec = ScenarioSpec::from_source(&path.to_string_lossy(), &src)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let toml = spec.to_toml();
        let via_toml = ScenarioSpec::from_toml(&toml).unwrap();
        assert_eq!(via_toml, spec, "{}: TOML round trip", path.display());
        assert_eq!(via_toml.to_toml(), toml, "{}: write order", path.display());
        let via_json = ScenarioSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(via_json, spec, "{}: JSON round trip", path.display());
    }
}

#[test]
fn minutes_is_written_for_delay_windows_only() {
    let drop =
        format!("{MINIMAL}\n[faults]\n\n[[faults.crowd]]\nkind = \"drop\"\nprobability = 0.5\n");
    let spec = ScenarioSpec::from_toml(&drop).unwrap();
    assert!(!spec.to_toml().contains("\nminutes"), "{}", spec.to_toml());
    assert!(!spec.to_json().contains("\"minutes\""), "{}", spec.to_json());

    let delay = drop.replace("kind = \"drop\"", "kind = \"delay\"\nminutes = 2.0");
    let spec = ScenarioSpec::from_toml(&delay).unwrap();
    assert!(spec.to_toml().contains("\nminutes = 2.0\n"), "{}", spec.to_toml());
    assert_eq!(ScenarioSpec::from_json(&spec.to_json()).unwrap(), spec);
}

#[test]
fn a_constant_field_takes_its_variant_from_the_value() {
    let field = |value: &str| {
        mutate("kind = \"constant\", value = 21.0", &format!("kind = \"constant\"{value}"))
            .map(|spec| spec.attributes[0].field.clone())
    };
    assert_eq!(field(", value = true"), Ok(FieldSpec::ConstantBool { value: true }));
    assert_eq!(field(", value = 2.5"), Ok(FieldSpec::ConstantFloat { value: 2.5 }));
    assert_eq!(
        field(", value = \"x\""),
        Err(SpecError::TypeMismatch {
            path: "attributes[0].field.value".into(),
            expected: "number",
            found: "string"
        })
    );
    assert_eq!(
        field(""),
        Err(SpecError::MissingField { path: "attributes[0].field.value".into() })
    );
}

#[test]
fn a_bare_faults_block_is_an_empty_one_in_both_syntaxes() {
    let spec = ScenarioSpec::from_toml(&format!("{MINIMAL}\n[faults]\n")).unwrap();
    assert_eq!(spec.faults, Some(FaultsSpec::default()));
    assert!(spec.to_toml().contains("\n[faults]\n"), "{}", spec.to_toml());
    assert_eq!(ScenarioSpec::from_toml(&spec.to_toml()).unwrap(), spec);
    assert_eq!(ScenarioSpec::from_json(&spec.to_json()).unwrap(), spec);
    assert!(ScenarioSpec::from_toml(MINIMAL).unwrap().faults.is_none());
}

// ---------------------------------------------------------------------------
// The rejection table: every single-line mutation of a spec that uses the
// whole schema, pinned row by row in `tests/spec_rejections.txt`
// ---------------------------------------------------------------------------

/// Every block, every key and every repeatable `kind` (five fields, three
/// shifts, three crowd faults), one key per line so each can be mutated
/// alone. The single-valued kinds the base cannot hold as well — the other
/// placements and mobilities, and `adaptive.budget_pool`, which a spec with
/// `[[tenants]]` may not carry — are the [`VARIANTS`].
const FULL: &str = r#"name = "full"
description = "every block, every key"
seed = 11
epochs = 6

[grid]
size_km = 4.0
side = 4

[population]
size = 120
human_fraction = 0.25

[population.placement]
kind = "hotspots"
floor = 1.0
spots = [[1.0, 1.0, 2.0, 0.5]]

[population.mobility]
kind = "gauss_markov"
alpha = 0.5
mean_speed = 0.1
sigma = 0.05

[planner]
batch_minutes = 5.0
f_headroom = 2.0
mobility_substeps = 2
enforce_min_area = false
shape = "star"

[budget]
initial = 10.0
nv_threshold = 20.0
delta = 2.0
min = 1.0
max = 50.0

[errors]
gps_sigma = 0.05
bool_flip_prob = 0.1
value_sigma = 0.5
mitigation = "off"

[churn]
probability = 0.1

[[attributes]]
name = "temp"
human = false

[attributes.field]
kind = "temperature"
base = 20.0
y_gradient = 0.5
islands = [[2.0, 2.0, 3.0, 1.0]]
diurnal_amplitude = 2.0
diurnal_period = 720.0

[[attributes]]
name = "rain"
human = true

[attributes.field]
kind = "rain"
x_start = 0.5
speed = 0.05
width = 2.0

[[attributes]]
name = "level"

[attributes.field]
kind = "constant"
value = 21.0

[[attributes]]
name = "open"

[attributes.field]
kind = "constant"
value = false

[[attributes]]
name = "load"

[attributes.field]
kind = "burst"
mu = 0.2
alpha = 3.0
beta = 0.25
sigma = 0.4
horizon = 50.0
immigrants = 6
branching_ratio = 0.6
scale = 2.0

[[tenants]]
name = "alice"
pool = 200.0

[[queries]]
text = "ACQUIRE temp FROM RECT(0,0,2,2) RATE 0.5"
tenant = "alice"

[[shifts]]
kind = "participation"
epoch = 2
factor = 3.0

[[shifts]]
kind = "dropout"
epoch = 3
probability = 0.5
rect = [0.0, 0.0, 2.0, 2.0]

[[shifts]]
kind = "migrate"
epoch = 4
probability = 0.75
rect = [2.0, 2.0, 4.0, 4.0]

[adaptive]
enabled = false
detector = "page_hinkley"
slack = 0.25
threshold = 6.0
warmup_epochs = 2
cooldown_epochs = 3
gamma0 = 0.75
decay_batches = 40.0
initial_rate = 2.0
# budget_pool: the flat-pool variant
rebuild_chains = false
demand_headroom = 2.0

[runlog]
record = false

[telemetry]
report = false

[faults]

[[faults.crowd]]
kind = "drop"
from_epoch = 0
to_epoch = 1
probability = 0.25

[[faults.crowd]]
kind = "delay"
from_epoch = 2
to_epoch = 3
probability = 0.5
minutes = 3.0

[[faults.crowd]]
kind = "duplicate"
probability = 0.125

[faults.retry]
threshold = 0.75
backoff = 0.5
max_attempts = 3

[[faults.crash]]
point = "post-drain"
epoch = 5
"#;

const PLACEMENT: &str = "kind = \"hotspots\"\nfloor = 1.0\nspots = [[1.0, 1.0, 2.0, 0.5]]\n";
const MOBILITY: &str = "kind = \"gauss_markov\"\nalpha = 0.5\nmean_speed = 0.1\nsigma = 0.05\n";

/// `(label, edits)`: each edit replaces its first string (which [`FULL`]
/// must contain) with its second, and only the lines an edit puts in are
/// mutated — everything else is the base's and already has its rows.
const VARIANTS: [(&str, &[(&str, &str)]); 6] = [
    ("uniform", &[(PLACEMENT, "kind = \"uniform\"\n")]),
    ("city", &[(PLACEMENT, "kind = \"city\"\n")]),
    ("stationary", &[(MOBILITY, "kind = \"stationary\"\n")]),
    ("walk", &[(MOBILITY, "kind = \"walk\"\nsigma = 0.25\n")]),
    ("waypoint", &[(MOBILITY, "kind = \"waypoint\"\nspeed = 0.125\npause = 4.0\n")]),
    (
        "flat-pool",
        &[
            ("[[tenants]]\nname = \"alice\"\npool = 200.0\n", ""),
            ("tenant = \"alice\"\n", ""),
            ("# budget_pool: the flat-pool variant\n", "budget_pool = 100.0\n"),
        ],
    ),
];

/// [`FULL`] with one variant's edits applied.
fn variant(label: &str, edits: &[(&str, &str)]) -> String {
    let mut doc = FULL.to_string();
    for (from, to) in edits {
        assert!(doc.contains(from), "variant {label}: '{from}' is not in the document");
        doc = doc.replace(from, to);
    }
    doc
}

/// One row per mutation of line `at`: a `key = value` line is deleted,
/// given an unknown sibling, and given five wrong values; a section header
/// is deleted and replaced by a scalar of the same name.
fn mutation_rows(label: &str, doc: &str, at: usize, rows: &mut Vec<String>) {
    let lines: Vec<&str> = doc.lines().collect();
    let line = lines[at];
    let mutations: Vec<(String, Option<String>)> = if let Some(header) = line.strip_prefix('[') {
        let name = header.trim_matches(|c| c == '[' || c == ']').rsplit('.').next().unwrap();
        vec![("deleted".into(), None), (format!("{name} = 3"), Some(format!("{name} = 3")))]
    } else if let Some((key, _)) = line.split_once(" = ") {
        let mut m = vec![
            ("deleted".into(), None),
            (format!("+ {key}x = 1"), Some(format!("{line}\n{key}x = 1"))),
        ];
        for value in ["\"zzz\"", "-1", "1.5", "true", "4294967296"] {
            m.push((format!("= {value}"), Some(format!("{key} = {value}"))));
        }
        m
    } else {
        return;
    };
    for (what, replacement) in mutations {
        let mut mutated = String::new();
        for (i, l) in lines.iter().enumerate() {
            match (i == at, &replacement) {
                (false, _) => mutated.push_str(l),
                (true, Some(r)) => mutated.push_str(r),
                (true, None) => continue,
            }
            mutated.push('\n');
        }
        let verdict = match ScenarioSpec::from_toml(&mutated) {
            Ok(_) => "ok".to_string(),
            Err(e) => e.to_string().replace('\n', "\\n"),
        };
        rows.push(format!("{label}:{:03} {line} => {what} :: {verdict}", at + 1));
    }
}

#[test]
fn every_single_line_mutation_is_judged_as_the_committed_table_says() {
    let mut rows = Vec::new();
    ScenarioSpec::from_toml(FULL).expect("the base spec is valid");
    for at in 0..FULL.lines().count() {
        mutation_rows("base", FULL, at, &mut rows);
    }
    for (label, edits) in VARIANTS {
        let doc = variant(label, edits);
        ScenarioSpec::from_toml(&doc).unwrap_or_else(|e| panic!("variant {label}: {e}"));
        for (_, to) in edits.iter().filter(|(_, to)| !to.is_empty()) {
            let first = doc[..doc.find(to).unwrap()].lines().count();
            for at in first..first + to.lines().count() {
                mutation_rows(label, &doc, at, &mut rows);
            }
        }
    }
    let fresh = rows.join("\n") + "\n";

    let committed =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/spec_rejections.txt");
    if std::fs::read_to_string(&committed).ok().as_deref() != Some(fresh.as_str()) {
        let actual = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("spec_rejections.txt");
        std::fs::write(&actual, &fresh).expect("write the fresh table");
        panic!(
            "the spec rejection surface moved: {} holds what the parser says now, {} what is \
             committed — diff them, and copy the first over the second only if every changed \
             row is intended",
            actual.display(),
            committed.display()
        );
    }
}

// ---------------------------------------------------------------------------
// The `## Spec schema` listing in scenarios/README.md names every key the
// write walk emits, and no key the read walk rejects
// ---------------------------------------------------------------------------

/// Every dotted key path in `table` under `prefix`. A table or an array of
/// tables adds its key to the path; array positions do not.
fn written_keys(prefix: &str, table: &Table, keys: &mut BTreeSet<String>) {
    for (key, value) in table.entries() {
        let path = if prefix.is_empty() { key.clone() } else { format!("{prefix}.{key}") };
        match value {
            ConfigValue::Table(inner) => written_keys(&path, inner, keys),
            ConfigValue::Array(items) => {
                for item in items {
                    if let ConfigValue::Table(inner) = item {
                        written_keys(&path, inner, keys);
                    }
                }
            }
            _ => {}
        }
        keys.insert(path);
    }
}

/// Every dotted key path the listing names: section headers, `key = …`
/// lines, and the keys inside inline tables. A comment line is listing too
/// when it is a commented-out key (`# minutes = 2.0`) or a variant
/// (`# or: { kind = … }`), whose keys belong to the inline table above it
/// or, when there is none, to the `[section]` entry itself. Text after a
/// line's own `#` is prose.
fn listed_keys(listing: &str) -> BTreeSet<String> {
    fn is_ident(b: u8) -> bool {
        b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_'
    }
    let join = |prefix: &str, key: &str| {
        if prefix.is_empty() {
            key.to_string()
        } else {
            format!("{prefix}.{key}")
        }
    };
    let mut keys = BTreeSet::new();
    let (mut section, mut owner, mut depth) = (String::new(), String::new(), 0usize);
    for line in listing.lines().map(str::trim_start) {
        if line.starts_with('[') {
            section = line.trim_start_matches('[').split(']').next().unwrap().to_string();
            owner = section.clone();
            keys.insert(section.clone());
            continue;
        }
        let text = match line.strip_prefix('#') {
            None => line,
            Some(comment) => {
                let comment = comment.trim_start();
                let variant = comment.strip_prefix("or:");
                let key_first = comment
                    .split_once(" = ")
                    .is_some_and(|(k, _)| !k.is_empty() && k.bytes().all(is_ident));
                match variant {
                    Some(rest) => rest,
                    None if key_first => comment,
                    None => continue,
                }
            }
        };
        let bytes = text.as_bytes();
        // A key at depth 0 whose value has not started yet: a `{` next
        // makes it the owner of the keys inside.
        let mut pending: Option<String> = None;
        let mut i = 0;
        while i < bytes.len() {
            match bytes[i] {
                b'#' => break,
                b'"' => {
                    i += 1 + text[i + 1..].find('"').map_or(text.len(), |end| end + 1);
                    pending = None;
                    continue;
                }
                b'{' => {
                    depth += 1;
                    if let Some(key) = pending.take() {
                        owner = key;
                    }
                }
                b'}' => depth = depth.saturating_sub(1),
                b if is_ident(b) && (i == 0 || !is_ident(bytes[i - 1])) => {
                    let end = i + bytes[i..].iter().take_while(|&&b| is_ident(b)).count();
                    let rest = text[end..].trim_start();
                    if rest.starts_with('=') && !rest.starts_with("==") {
                        let key = &text[i..end];
                        let path = join(if depth == 0 { &section } else { &owner }, key);
                        keys.insert(path.clone());
                        pending = (depth == 0).then_some(path);
                    } else {
                        pending = None;
                    }
                    i = end;
                    continue;
                }
                b' ' | b'=' => {}
                _ => pending = None,
            }
            i += 1;
        }
    }
    keys
}

#[test]
fn the_readme_schema_listing_names_exactly_the_keys_of_the_spec_walks() {
    let readme = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios/README.md"),
    )
    .expect("read scenarios/README.md");
    let listing = readme
        .split("\n## Spec schema\n")
        .nth(1)
        .and_then(|section| section.split("```toml\n").nth(1))
        .and_then(|block| block.split("\n```").next())
        .expect("scenarios/README.md has a ```toml block under ## Spec schema");
    let listed = listed_keys(listing);

    // The whole-schema spec and its variants between them set every key of
    // every block and every `kind`; each reads back from what is written,
    // so the read walk accepts exactly the keys the write walk emits.
    let mut written = BTreeSet::new();
    let docs = std::iter::once(FULL.to_string())
        .chain(VARIANTS.iter().map(|(label, edits)| variant(label, edits)));
    for doc in docs {
        let spec = ScenarioSpec::from_toml(&doc).unwrap();
        let table = spec.to_table();
        assert_eq!(ScenarioSpec::from_table(&table).unwrap(), spec);
        written_keys("", &table, &mut written);
    }

    let unlisted: Vec<&String> = written.difference(&listed).collect();
    assert!(
        unlisted.is_empty(),
        "the write walk emits keys the `## Spec schema` listing lacks: {unlisted:?}"
    );
    let unknown: Vec<&String> = listed.difference(&written).collect();
    assert!(
        unknown.is_empty(),
        "the `## Spec schema` listing names keys the read walk rejects: {unknown:?}"
    );
}

// ---------------------------------------------------------------------------
// Property: serialize → parse is the identity on valid specs
// ---------------------------------------------------------------------------

fn arb_field(rng: &mut StdRng) -> FieldSpec {
    match rng.gen_range(0u8..5) {
        0 => FieldSpec::Temperature {
            base: rng.gen_range(-10.0..35.0),
            y_gradient: rng.gen_range(-1.0..1.0),
            islands: (0..rng.gen_range(0usize..3))
                .map(|_| {
                    (
                        rng.gen_range(0.0..4.0),
                        rng.gen_range(0.0..4.0),
                        rng.gen_range(0.0..6.0),
                        rng.gen_range(0.1..2.0),
                    )
                })
                .collect(),
            diurnal_amplitude: rng.gen_range(0.0..8.0),
            diurnal_period: rng.gen_range(60.0..2000.0),
        },
        1 => FieldSpec::Rain {
            x_start: rng.gen_range(-2.0..6.0),
            speed: rng.gen_range(-0.2..0.2),
            width: rng.gen_range(0.2..3.0),
        },
        2 => FieldSpec::ConstantFloat { value: rng.gen_range(-100.0..100.0) },
        3 => FieldSpec::ConstantBool { value: rng.gen() },
        _ => FieldSpec::Burst {
            mu: rng.gen_range(0.0..1.0),
            alpha: rng.gen_range(0.0..5.0),
            beta: rng.gen_range(0.05..1.0),
            sigma: rng.gen_range(0.1..1.0),
            horizon: rng.gen_range(10.0..120.0),
            immigrants: rng.gen_range(0u32..10),
            branching_ratio: rng.gen_range(0.0..0.95),
            scale: rng.gen_range(-2.0..2.0),
        },
    }
}

/// A rect strictly inside the `[0, size)²` world — shift rects must
/// intersect it (dropout) or lie inside it (migrate).
fn arb_rect(rng: &mut StdRng, size: f64) -> (f64, f64, f64, f64) {
    let x0 = rng.gen_range(0.0..size * 0.5);
    let y0 = rng.gen_range(0.0..size * 0.5);
    let x1 = rng.gen_range((x0 + size * 0.1)..size);
    let y1 = rng.gen_range((y0 + size * 0.1)..size);
    (x0, y0, x1, y1)
}

fn arb_shift(rng: &mut StdRng, epochs: u32, size: f64) -> ShiftSpec {
    let epoch = rng.gen_range(0..epochs);
    match rng.gen_range(0u8..3) {
        0 => ShiftSpec::Participation { epoch, factor: rng.gen_range(0.0..5.0) },
        1 => ShiftSpec::Dropout {
            epoch,
            probability: rng.gen_range(0.0..1.0),
            rect: arb_rect(rng, size),
        },
        _ => ShiftSpec::Migrate {
            epoch,
            probability: rng.gen_range(0.0..1.0),
            rect: arb_rect(rng, size),
        },
    }
}

fn arb_adaptive(rng: &mut StdRng) -> AdaptiveSpec {
    AdaptiveSpec {
        enabled: rng.gen(),
        detector: if rng.gen() { "cusum".into() } else { "page_hinkley".into() },
        slack: rng.gen_range(0.0..2.0),
        threshold: rng.gen_range(0.5..50.0),
        warmup_epochs: rng.gen_range(0u32..10),
        cooldown_epochs: rng.gen_range(0u32..10),
        gamma0: rng.gen_range(0.01..1.0),
        decay_batches: rng.gen_range(1.0..200.0),
        initial_rate: rng.gen_range(0.01..10.0),
        budget_pool: if rng.gen() { Some(rng.gen_range(1.0..500.0)) } else { None },
        rebuild_chains: rng.gen(),
        demand_headroom: rng.gen_range(1.0..3.0),
    }
}

/// At most one window per fault kind (so same-kind windows can never
/// overlap), each inside `[0, epochs)`. Every knob may come up empty: a
/// bare `[faults]` block is a spec of its own and has to round-trip too.
fn arb_faults(rng: &mut StdRng, epochs: u32) -> FaultsSpec {
    let mut crowd = Vec::new();
    for kind in ["drop", "delay", "duplicate"] {
        if rng.gen() {
            let from_epoch = rng.gen_range(0..epochs);
            crowd.push(CrowdFaultSpec {
                kind: kind.into(),
                from_epoch,
                to_epoch: rng.gen_range(from_epoch..epochs),
                probability: rng.gen_range(0.0..1.0),
                minutes: if kind == "delay" { rng.gen_range(0.1..10.0) } else { 0.0 },
            });
        }
    }
    let retry = if rng.gen() {
        Some(RetrySpec {
            threshold: rng.gen_range(0.0..1.0),
            // (0, 1]: 0 is rejected, 1 (no backoff) is valid.
            backoff: 1.0 - rng.gen_range(0.0..0.95),
            max_attempts: rng.gen_range(1u32..5),
        })
    } else {
        None
    };
    let crash = ["post-dispatch", "post-drain", "post-control", "mid-log-append"]
        .iter()
        .take(rng.gen_range(0usize..3))
        .map(|p| CrashSpec { point: (*p).into(), epoch: rng.gen_range(0..epochs) })
        .collect::<Vec<_>>();
    FaultsSpec { crowd, retry, crash }
}

/// Draws a random *valid* spec: every constructor input stays inside the
/// documented ranges, names come from a fixed pool with unique suffixes.
fn arb_spec(rng: &mut StdRng) -> ScenarioSpec {
    let placement = match rng.gen_range(0u8..3) {
        0 => PlacementSpec::Uniform,
        1 => PlacementSpec::City,
        _ => PlacementSpec::Hotspots {
            floor: rng.gen_range(0.1..3.0),
            spots: (0..rng.gen_range(0usize..4))
                .map(|_| {
                    (
                        rng.gen_range(-5.0..10.0),
                        rng.gen_range(-5.0..10.0),
                        rng.gen_range(0.0..5.0),
                        rng.gen_range(0.1..2.0),
                    )
                })
                .collect(),
        },
    };
    let mobility = match rng.gen_range(0u8..4) {
        0 => MobilitySpec::Stationary,
        1 => MobilitySpec::Walk { sigma: rng.gen_range(0.0..1.0) },
        2 => MobilitySpec::Waypoint {
            speed: rng.gen_range(0.01..0.5),
            pause: rng.gen_range(0.0..10.0),
        },
        _ => MobilitySpec::GaussMarkov {
            alpha: rng.gen_range(0.0..0.99),
            mean_speed: rng.gen_range(0.0..0.5),
            sigma: rng.gen_range(0.0..0.2),
        },
    };
    let names = ["temp", "rain", "load", "noise_db", "pm2-5"];
    let attr_count = rng.gen_range(1usize..4);
    let attributes: Vec<AttributeSpec> = (0..attr_count)
        .map(|i| AttributeSpec { name: names[i].into(), human: rng.gen(), field: arb_field(rng) })
        .collect();
    let tenant_names = ["alice", "bob-2", "city_ops"];
    let tenants: Vec<TenantSpec> = tenant_names
        .iter()
        .take(rng.gen_range(0usize..4))
        .map(|n| TenantSpec { name: (*n).into(), pool: rng.gen_range(1.0..500.0) })
        .collect();
    let queries: Vec<QuerySpec> = (0..rng.gen_range(1usize..4))
        .map(|i| QuerySpec {
            // Exercise string escaping: quotes, backslashes, unicode.
            text: format!(
                "ACQUIRE {} FROM RECT(0,0,2,2) RATE 0.{} -- \"q{i}\" \\ λ✓",
                attributes[i % attributes.len()].name,
                rng.gen_range(1u32..10),
            ),
            tenant: if tenants.is_empty() {
                None
            } else {
                Some(tenants[rng.gen_range(0..tenants.len())].name.clone())
            },
        })
        .collect();
    let min = rng.gen_range(0.0..5.0);
    let epochs = rng.gen_range(1u32..100);
    let size_km = rng.gen_range(1.0..20.0);
    let adaptive = if rng.gen() {
        let mut a = arb_adaptive(rng);
        if !tenants.is_empty() {
            // Multi-tenant replans allocate from the declared pools; a
            // flat budget_pool alongside [[tenants]] is a spec error.
            a.budget_pool = None;
        }
        Some(a)
    } else {
        None
    };
    ScenarioSpec {
        name: format!("prop-{}", rng.gen_range(0u32..1000)).replace('-', "_"),
        description: String::from_iter((0..rng.gen_range(0usize..20)).map(|_| {
            *['a', ' ', 'π', '"', '\\', '\n', 'z'].get(rng.gen_range(0usize..7)).unwrap()
        })),
        seed: rng.gen_range(0u64..i64::MAX as u64),
        epochs,
        grid: GridSpec { size_km, side: rng.gen_range(1u32..12) },
        population: PopulationSpec {
            size: rng.gen_range(1u32..5000),
            human_fraction: rng.gen_range(0.0..1.0),
            placement,
            mobility,
        },
        planner: PlannerSpec {
            batch_minutes: rng.gen_range(0.5..30.0),
            f_headroom: rng.gen_range(1.0..3.0),
            mobility_substeps: rng.gen_range(1u32..10),
            enforce_min_area: rng.gen(),
            shape: if rng.gen() { "chain".into() } else { "star".into() },
        },
        budget: BudgetSpec {
            initial: rng.gen_range(0.0..100.0),
            nv_threshold: rng.gen_range(0.0..100.0),
            delta: rng.gen_range(0.0..10.0),
            min,
            max: min + rng.gen_range(0.0..200.0),
        },
        errors: if rng.gen() {
            Some(ErrorSpec {
                gps_sigma: rng.gen_range(0.0..0.5),
                bool_flip_prob: rng.gen_range(0.0..1.0),
                value_sigma: rng.gen_range(0.0..2.0),
                mitigation: if rng.gen() { "standard".into() } else { "off".into() },
            })
        } else {
            None
        },
        churn: if rng.gen() {
            Some(ChurnSpec { probability: rng.gen_range(0.0..1.0) })
        } else {
            None
        },
        attributes,
        tenants,
        queries,
        shifts: (0..rng.gen_range(0usize..4)).map(|_| arb_shift(rng, epochs, size_km)).collect(),
        adaptive,
        runlog: if rng.gen() { Some(RunlogSpec { record: rng.gen() }) } else { None },
        faults: if rng.gen() { Some(arb_faults(rng, epochs)) } else { None },
        telemetry: if rng.gen() { Some(TelemetrySpec { report: rng.gen() }) } else { None },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn valid_specs_round_trip_through_both_syntaxes(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let spec = arb_spec(&mut rng);
        prop_assert!(spec.validate().is_ok(), "generator produced an invalid spec: {spec:?}");

        let toml = spec.to_toml();
        let via_toml = ScenarioSpec::from_toml(&toml);
        prop_assert!(via_toml.is_ok(), "TOML re-parse failed: {:?}\n{toml}", via_toml.err());
        prop_assert_eq!(&spec, &via_toml.unwrap(), "TOML round trip changed the spec:\n{}", toml);

        let json = spec.to_json();
        let via_json = ScenarioSpec::from_json(&json);
        prop_assert!(via_json.is_ok(), "JSON re-parse failed: {:?}\n{json}", via_json.err());
        prop_assert_eq!(&spec, &via_json.unwrap(), "JSON round trip changed the spec:\n{}", json);
    }
}
