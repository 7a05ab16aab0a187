//! The four workloads: seeded generators that emit one `ScenarioSpec` TOML
//! text each. The seed sets the crowd/planner seed and jitters the query
//! rectangles; the program under test receives only the text.
//!
//! Why these four (the one-line versions live in `BENCHMARK.json`):
//!
//! - `city_live` is simulator-bound: one `Crowd::dispatch_requests` scan
//!   per chain over 20 000 sensors dwarfs the server's own work, so a
//!   simulator optimisation shows here and an ingest optimisation must not.
//! - `grid_replay` is the server alone: a recorded 48x48-grid run re-driven
//!   with a zero-sensor crowd, so `sensing` costs nothing and `core` +
//!   `engine` cost everything; its set-up carries the run-log read path.
//! - `durable_serial` switches everything on (tenants that throttle,
//!   participation shifts the controller replans on, duplicate faults with
//!   retry, an fsync per epoch), so the run-log write path and control
//!   carry weight here and nowhere else.
//! - `durable_pipelined` is byte-for-byte the same input on the pipelined
//!   executor, so a gain for one executor that costs the other shows.
//!
//! The rectangle jitter stays inside the outermost ring of cells, so every
//! seed materialises the same chains and the per-seed work differs only by
//! the crowd's randomness — run-to-run spread across seeds stays a
//! measurement property, not a workload property.

/// How a workload's horizon is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Live crowd, serial staged schedule.
    Live,
    /// Live crowd, pipelined executor.
    LivePipelined,
    /// Recorded inputs re-driven through a detached server, serial.
    Replay,
}

/// One workload: a name, how it runs, and its generator.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub mode: Mode,
    /// Streams and fsyncs a run log every epoch.
    pub durable: bool,
    generate: fn(u64, u32) -> String,
    /// Epochs per repetition at full size.
    pub horizon: u32,
    /// Epochs per repetition under `--smoke`.
    pub smoke_horizon: u32,
}

impl Workload {
    /// The spec text for `seed`; `smoke` shrinks the horizon only.
    pub fn spec_toml(&self, seed: u64, smoke: bool) -> String {
        (self.generate)(seed, if smoke { self.smoke_horizon } else { self.horizon })
    }
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "city_live",
        mode: Mode::Live,
        durable: false,
        generate: city_live,
        horizon: 24,
        smoke_horizon: 4,
    },
    Workload {
        name: "grid_replay",
        mode: Mode::Replay,
        durable: false,
        generate: grid_replay,
        horizon: 48,
        smoke_horizon: 4,
    },
    Workload {
        name: "durable_serial",
        mode: Mode::Live,
        durable: true,
        generate: durable,
        horizon: 64,
        smoke_horizon: 12,
    },
    Workload {
        name: "durable_pipelined",
        mode: Mode::LivePipelined,
        durable: true,
        generate: durable,
        horizon: 64,
        smoke_horizon: 12,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// SplitMix64: the generators need a handful of reproducible draws and
/// nothing else, so the benchmark owns its stream instead of borrowing the
/// program's RNG.
struct SplitMix(u64);

impl SplitMix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `RECT(x0,y0,x1,y1)` with every edge pulled inward by a seeded amount of
/// at most 0.4 of a cell, rounded to metres so the text stays short. Edges
/// never cross a cell boundary, so the covered cell set is seed-independent.
fn jittered_rect(rng: &mut SplitMix, rect: (f64, f64, f64, f64), cell_km: f64) -> String {
    let mut pull = || (rng.unit() * 0.4 * cell_km * 1000.0).round() / 1000.0;
    let (x0, y0, x1, y1) = (rect.0 + pull(), rect.1 + pull(), rect.2 - pull(), rect.3 - pull());
    format!("RECT({x0},{y0},{x1},{y1})")
}

const TEMPERATURE: &str = "\
[[attributes]]
name = \"temp\"
human = false
field = { kind = \"temperature\", base = 18.0, y_gradient = -0.2, islands = [[3.0, 3.0, 4.0, 1.5]], \
diurnal_amplitude = 3.0, diurnal_period = 1440.0 }
";

fn city_live(seed: u64, epochs: u32) -> String {
    let mut rng = SplitMix(seed ^ 0xC17F);
    let cell = 8.0 / 16.0;
    let whole = jittered_rect(&mut rng, (0.0, 0.0, 8.0, 8.0), cell);
    let west = jittered_rect(&mut rng, (0.0, 0.0, 4.0, 8.0), cell);
    let south = jittered_rect(&mut rng, (0.0, 0.0, 8.0, 4.0), cell);
    format!(
        "name = \"city_live\"
description = \"20 000 random-walk sensors on a 16x16 grid; simulator-bound\"
seed = {seed}
epochs = {epochs}

[grid]
size_km = 8.0
side = 16

[population]
size = 20000
human_fraction = 0.0
placement = {{ kind = \"uniform\" }}
mobility = {{ kind = \"walk\", sigma = 0.05 }}

{TEMPERATURE}
[[queries]]
text = \"ACQUIRE temp FROM {whole} RATE 0.6\"

[[queries]]
text = \"ACQUIRE temp FROM {west} RATE 0.9\"

[[queries]]
text = \"ACQUIRE temp FROM {south} RATE 0.3\"
"
    )
}

fn grid_replay(seed: u64, epochs: u32) -> String {
    let mut rng = SplitMix(seed ^ 0x6121D);
    let cell = 24.0 / 48.0;
    // Six overlapping footprints: every cell is tapped by two to four
    // queries, so the per-cell chains carry several thin operators each.
    let rects = [
        (0.0, 0.0, 24.0, 24.0),
        (0.0, 0.0, 24.0, 12.0),
        (0.0, 12.0, 24.0, 24.0),
        (0.0, 0.0, 12.0, 24.0),
        (12.0, 0.0, 24.0, 24.0),
        (6.0, 6.0, 18.0, 18.0),
    ];
    let rates = [0.9, 0.5, 0.7, 0.3, 0.6, 0.8];
    let queries: String = rects
        .iter()
        .zip(rates)
        .map(|(r, rate)| {
            let rect = jittered_rect(&mut rng, *r, cell);
            format!("[[queries]]\ntext = \"ACQUIRE temp FROM {rect} RATE {rate}\"\n\n")
        })
        .collect();
    format!(
        "name = \"grid_replay\"
description = \"48x48 grid, 2 304 chains, six overlapping queries; recorded once, replayed detached\"
seed = {seed}
epochs = {epochs}

[grid]
size_km = 24.0
side = 48

[population]
size = 7000
human_fraction = 0.0
placement = {{ kind = \"uniform\" }}
mobility = {{ kind = \"stationary\" }}

[budget]
initial = 5.0
min = 2.0
max = 8.0

{TEMPERATURE}
{queries}"
    )
}

fn durable(seed: u64, epochs: u32) -> String {
    let mut rng = SplitMix(seed ^ 0xD0_7AB1E);
    let cell = 8.0 / 16.0;
    let whole = jittered_rect(&mut rng, (0.0, 0.0, 8.0, 8.0), cell);
    let quarter = jittered_rect(&mut rng, (0.0, 0.0, 4.0, 4.0), cell);
    let east = jittered_rect(&mut rng, (4.0, 0.0, 8.0, 8.0), cell);
    // Three participation shifts at fixed fractions of the horizon: a
    // throttled start, a surge, a partial collapse. The controller has to
    // confirm each drift and replan inside the tenants' pools.
    let (surge, collapse) = (epochs / 3, 2 * epochs / 3);
    format!(
        "name = \"durable\"
description = \"tenants that throttle, participation shifts, adaptive replans, duplicate faults + retry, fsync per epoch\"
seed = {seed}
epochs = {epochs}

[grid]
size_km = 8.0
side = 16

[population]
size = 4000
human_fraction = 0.0
placement = {{ kind = \"uniform\" }}
mobility = {{ kind = \"walk\", sigma = 0.1 }}

[budget]
initial = 3.0
min = 1.0
max = 6.0

{TEMPERATURE}
[[tenants]]
name = \"metro\"
pool = 700.0

[[tenants]]
name = \"startup\"
pool = 120.0

[[queries]]
text = \"ACQUIRE temp FROM {whole} RATE 0.8\"
tenant = \"metro\"

[[queries]]
text = \"ACQUIRE temp FROM {east} RATE 0.5\"
tenant = \"metro\"

[[queries]]
text = \"ACQUIRE temp FROM {quarter} RATE 1.0\"
tenant = \"startup\"

[[shifts]]
kind = \"participation\"
epoch = 0
factor = 0.4

[[shifts]]
kind = \"participation\"
epoch = {surge}
factor = 2.2

[[shifts]]
kind = \"participation\"
epoch = {collapse}
factor = 0.6

[adaptive]
enabled = true
detector = \"cusum\"
slack = 0.5
threshold = 8.0
warmup_epochs = 3
cooldown_epochs = 4

[faults]

[[faults.crowd]]
kind = \"duplicate\"
probability = 0.05

[faults.retry]
threshold = 0.85
backoff = 0.5
max_attempts = 3

[runlog]
record = true
"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::parse_spec;

    fn query_lines(toml: &str) -> Vec<&str> {
        toml.lines().filter(|l| l.starts_with("text = ")).collect()
    }

    #[test]
    fn the_same_seed_gives_the_same_bytes() {
        for w in &WORKLOADS {
            assert_eq!(w.spec_toml(7, false), w.spec_toml(7, false), "{}", w.name);
            assert_eq!(w.spec_toml(7, true), w.spec_toml(7, true), "{}", w.name);
        }
    }

    #[test]
    fn another_seed_moves_every_query_rectangle() {
        for w in &WORKLOADS {
            let (a, b) = (w.spec_toml(7, false), w.spec_toml(8, false));
            let (qa, qb) = (query_lines(&a), query_lines(&b));
            assert!(!qa.is_empty() && qa.len() == qb.len(), "{}", w.name);
            assert!(
                qa.iter().zip(&qb).all(|(x, y)| x != y),
                "{}: a rectangle did not move",
                w.name
            );
            assert!(a.contains("seed = 7\n") && b.contains("seed = 8\n"), "{}", w.name);
        }
    }

    #[test]
    fn every_generated_spec_validates() {
        for w in &WORKLOADS {
            for seed in [0, 1, 42, u32::MAX as u64] {
                for smoke in [false, true] {
                    parse_spec(&w.spec_toml(seed, smoke))
                        .unwrap_or_else(|e| panic!("{} seed {seed} smoke {smoke}: {e}", w.name));
                }
            }
        }
    }

    #[test]
    fn the_durable_pair_shares_its_inputs_byte_for_byte() {
        let (serial, pipelined) =
            (find("durable_serial").unwrap(), find("durable_pipelined").unwrap());
        assert_eq!(serial.spec_toml(3, false), pipelined.spec_toml(3, false));
        assert!(find("no_such_workload").is_none());
    }
}
