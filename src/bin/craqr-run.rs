//! `craqr-run` — a scenario runner for CrAQR from the command line.
//!
//! ```text
//! cargo run --release --bin craqr-run -- \
//!     --sensors 1500 --human 0.5 --epochs 24 --seed 7 \
//!     --query "ACQUIRE rain FROM RECT(0,0,4,4) RATE 0.2" \
//!     --query "ACQUIRE temp FROM RECT(1,1,3,3) RATE 0.5"
//! ```
//!
//! Two attributes are pre-registered against simulated ground truth:
//! `rain` (a moving rain front; human-sensed) and `temp` (a heat-island
//! temperature field; sensor-sensed). Flags:
//!
//! | flag | default | meaning |
//! |---|---|---|
//! | `--size KM`        | 4      | region side length (square region) |
//! | `--sensors N`      | 1000   | crowd size |
//! | `--human F`        | 0.4    | human fraction (reluctant, slow) |
//! | `--seed S`         | 7      | master seed |
//! | `--epochs N`       | 12     | epochs to run (5 simulated min each) |
//! | `--grid SIDE`      | 4      | cells per grid side (√h) |
//! | `--budget B`       | 20     | initial requests/epoch per (attr, cell) |
//! | `--shards N`       | serial | worker shards for the process phase (`N >= 1`; omit for serial — `0` is rejected, it has no workers); any N is bit-identical to serial under the same seed |
//! | `--pool CAP`       | off    | run multi-tenant: register a tenant with a budget pool of `CAP` requests/epoch; queries run admission control against it (rejections are reported, the run continues with what was admitted) and dispatch charges the pool, throttling at exhaustion |
//! | `--query "TEXT"`   | —      | declarative query (repeatable, ≥1 required) |
//! | `--dot`            | off    | print Graphviz topologies instead of tables |
//!
//! A flag outside its range (`--grid 0`, `--budget -1`, `--size nan`, …)
//! prints one `error: <field>: <message>` line on stderr — the message of
//! the type that owns the knob — and exits 1 before anything runs.

use craqr::core::plan::PlannerConfig;
use craqr::core::BudgetPool;
use craqr::prelude::*;
use craqr::stats::Interval;
use std::process::ExitCode;

struct Args {
    size: f64,
    sensors: usize,
    human: f64,
    seed: u64,
    epochs: u64,
    grid: u32,
    budget: f64,
    shards: Option<usize>,
    pool: Option<f64>,
    queries: Vec<String>,
    dot: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        size: 4.0,
        sensors: 1000,
        human: 0.4,
        seed: 7,
        epochs: 12,
        grid: 4,
        budget: 20.0,
        shards: None,
        pool: None,
        queries: Vec::new(),
        dot: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("flag {name} needs a value"));
        match flag.as_str() {
            "--size" => args.size = value("--size")?.parse().map_err(|e| format!("--size: {e}"))?,
            "--sensors" => {
                args.sensors = value("--sensors")?.parse().map_err(|e| format!("--sensors: {e}"))?
            }
            "--human" => {
                args.human = value("--human")?.parse().map_err(|e| format!("--human: {e}"))?
            }
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--epochs" => {
                args.epochs = value("--epochs")?.parse().map_err(|e| format!("--epochs: {e}"))?
            }
            "--grid" => args.grid = value("--grid")?.parse().map_err(|e| format!("--grid: {e}"))?,
            "--budget" => {
                args.budget = value("--budget")?.parse().map_err(|e| format!("--budget: {e}"))?
            }
            "--shards" => {
                args.shards =
                    Some(value("--shards")?.parse().map_err(|e| format!("--shards: {e}"))?)
            }
            "--pool" => {
                args.pool = Some(value("--pool")?.parse().map_err(|e| format!("--pool: {e}"))?)
            }
            "--query" => args.queries.push(value("--query")?),
            "--dot" => args.dot = true,
            "--help" | "-h" => {
                println!("see the doc comment at the top of src/bin/craqr-run.rs for usage");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag '{other}' (try --help)")),
        }
    }
    if args.queries.is_empty() {
        return Err("at least one --query is required (try --help)".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut server = match build_server(&args) {
        Ok(server) => server,
        Err((field, message)) => {
            eprintln!("error: {field}: {message}");
            return ExitCode::FAILURE;
        }
    };
    let tenant = args.pool.map(|cap| server.register_tenant("cli", cap));

    let mut queries = Vec::new();
    for text in &args.queries {
        let result = match tenant {
            Some(t) => server.submit_for(t, text),
            None => server.submit(text),
        };
        match result {
            Ok(qid) => {
                println!("{qid}: {text}");
                queries.push(qid);
            }
            Err(craqr::core::server::SubmitError::Rejected(decision)) => {
                // An over-committing query is an expected multi-tenant
                // outcome, not a fatal error: report it and run what fits.
                println!("rejected: {text}\n  {decision}");
            }
            Err(e) => {
                eprintln!("error: query '{text}': {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if queries.is_empty() {
        eprintln!("error: admission rejected every query; raise --pool or lower the rates");
        return ExitCode::FAILURE;
    }

    if args.dot {
        println!("{}", server.fabricator().explain_dot());
        return ExitCode::SUCCESS;
    }

    println!(
        "\n{:>5} {:>9} {:>10} {:>9} {:>10}",
        "epoch", "requests", "responses", "ingested", "delivered"
    );
    for _ in 0..args.epochs {
        let r = server.run_epoch();
        let delivered: usize = r.delivered.iter().map(|(_, n)| n).sum();
        println!(
            "{:>5} {:>9} {:>10} {:>9} {:>10}",
            r.epoch, r.dispatch.sent, r.responses, r.ingested, delivered
        );
    }

    println!("\nper-query summary after {:.0} simulated minutes:", server.now());
    let minutes = server.now();
    for qid in queries {
        // craqr-lint: allow(W1): internal invariant — qid came from this run's own submit loop
        let plan = server.fabricator().query_plan(qid).expect("standing query");
        let requested = plan.query.rate;
        let area = plan.footprint.area();
        let n = server.take_output(qid).len();
        let achieved = n as f64 / (area * minutes);
        println!("  {qid}: {n} tuples, requested λ = {requested}, achieved λ = {achieved:.3}");
    }
    if let Some(registry) = server.tenants() {
        let s = &registry.summaries()[0];
        println!(
            "\ntenant '{}': pool {} req/epoch, committed {:.1}, charged {:.1} total, \
             peak epoch charge {:.1}, {} admitted / {} rejected",
            s.name,
            s.capacity,
            s.committed,
            s.charged_total,
            s.peak_epoch_charge,
            s.admitted,
            s.rejected
        );
    }
    println!("\ntopologies:\n{}", server.fabricator().explain());
    ExitCode::SUCCESS
}

/// The server the flags describe, or the first flag out of its range as
/// `(field, message)`. The owning types' validators judge every knob before
/// a constructor that would panic on it runs.
fn build_server(args: &Args) -> Result<CraqrServer, (&'static str, String)> {
    Interval::Positive.check("--size", args.size)?;
    if let Some(cap) = args.pool {
        BudgetPool::CAPACITY.check("--pool", cap)?;
    }
    let region = Rect::with_size(args.size, args.size);
    let population = PopulationConfig {
        size: args.sensors,
        placement: Placement::city(&region),
        mobility: Mobility::random_waypoint(0.08, 5.0),
        human_fraction: args.human,
    };
    population.validate()?;
    let config = ServerConfig {
        initial_budget: args.budget,
        planner: PlannerConfig { grid_side: args.grid, seed: args.seed, ..Default::default() },
        exec: args.shards.map_or(ExecMode::Serial, ExecMode::Sharded),
        ..Default::default()
    };
    config.validate()?;
    let mut server =
        CraqrServer::new(Crowd::new(CrowdConfig { region, population, seed: args.seed }), config);
    server.register_attribute(
        "rain",
        true,
        Box::new(RainFront::new(0.0, args.size / 200.0, args.size / 3.0)),
    );
    server.register_attribute("temp", false, Box::new(TemperatureField::city_default()));
    Ok(server)
}
