//! The sharded executor's determinism contract, tested at the server
//! level: `ExecMode::Serial` and `ExecMode::Sharded(n)` must be
//! indistinguishable — bit-identical fabricated streams, dispatch
//! statistics, and budget decisions — for the same root seed, at every
//! width the default executor picks.

use craqr::core::exec::CHAINS_PER_WORKER;
use craqr::core::{ExecMode, ShardIngest};
use craqr::prelude::*;
use proptest::prelude::*;

fn crowd(size: usize, seed: u64) -> Crowd {
    let region = Rect::with_size(4.0, 4.0);
    Crowd::new(CrowdConfig {
        region,
        population: PopulationConfig {
            size,
            placement: Placement::Uniform,
            mobility: Mobility::RandomWalk { sigma: 0.15 },
            human_fraction: 0.3,
        },
        seed,
    })
}

fn server(size: usize, seed: u64, exec: ExecMode) -> (CraqrServer, Vec<QueryId>) {
    let mut config = ServerConfig { exec, ..ServerConfig::default() };
    config.planner.seed = seed;
    let mut s = CraqrServer::new(crowd(size, seed), config);
    s.register_attribute("rain", true, Box::new(RainFront::new(2.0, 0.02, 2.0)));
    s.register_attribute("temp", false, Box::new(TemperatureField::city_default()));
    let queries = vec![
        s.submit("ACQUIRE rain FROM RECT(0,0,4,4) RATE 0.4").unwrap(),
        s.submit("ACQUIRE temp FROM RECT(0,0,2,2) RATE 1").unwrap(),
        s.submit("ACQUIRE temp FROM RECT(1,1,4,3) RATE 0.6").unwrap(),
    ];
    (s, queries)
}

/// Everything two executors report for an epoch must match exactly,
/// except the shard breakdown; the merged ingest outcome matches too.
fn assert_same_epoch(a: &EpochReport, b: &EpochReport, epoch: usize) {
    assert_eq!(a.epoch, b.epoch);
    assert_eq!(a.now, b.now);
    assert_eq!(a.dispatch, b.dispatch, "epoch {epoch}: dispatch diverged");
    assert_eq!(a.responses, b.responses, "epoch {epoch}: responses diverged");
    assert_eq!(a.mitigation_rejected, b.mitigation_rejected);
    assert_eq!(a.ingested, b.ingested);
    assert_eq!(a.delivered, b.delivered, "epoch {epoch}: deliveries diverged");
    assert_eq!(a.tuning, b.tuning, "epoch {epoch}: budget tuning diverged");
    assert_eq!(a.exec.routed, b.exec.routed);
    assert_eq!(a.exec.dropped, b.exec.dropped);
    assert_eq!(a.exec.chains(), b.exec.chains());
}

/// The headline determinism test: ten epochs, three overlapping queries,
/// sixteen cells — serial and 4-way-sharded runs must deliver identical
/// sink contents tuple for tuple, and identical budget behaviour.
#[test]
fn serial_and_sharded_4_are_bit_identical_across_10_epochs() {
    let (mut serial, qs) = server(700, 42, ExecMode::Serial);
    let (mut sharded, qp) = server(700, 42, ExecMode::Sharded(4));
    assert_eq!(qs, qp);

    for epoch in 0..10 {
        let a = serial.run_epoch();
        let b = sharded.run_epoch();
        assert_same_epoch(&a, &b, epoch);
        assert_eq!(a.exec.shards.len(), 1);
        assert_eq!(b.exec.shards.len(), 4);
    }

    // Sink contents: bit-identical fabricated streams per query.
    for q in qs {
        let out_s = serial.take_output(q);
        let out_p = sharded.take_output(q);
        assert_eq!(out_s.len(), out_p.len(), "query {q}: stream length diverged");
        assert_eq!(out_s, out_p, "query {q}: stream contents diverged");
        assert!(!out_s.is_empty(), "query {q} must deliver something in 10 epochs");
    }

    // Budget state converged identically.
    let cat = serial.catalog();
    let attrs: Vec<AttributeId> = ["rain", "temp"].iter().map(|n| cat.lookup(n).unwrap()).collect();
    for q in 0..4u32 {
        for r in 0..4u32 {
            for attr in &attrs {
                let cell = CellId::new(q, r);
                assert_eq!(
                    serial.fabricator().budget_of(cell, *attr),
                    sharded.fabricator().budget_of(cell, *attr),
                    "budget diverged at {cell:?} {attr:?}"
                );
            }
        }
    }
    assert_eq!(serial.handler().totals(), sharded.handler().totals());
}

/// A 48×48 grid under one attribute: 2 304 chains, enough for the
/// default executor to fan out on any host with two cores or more.
#[test]
fn the_default_width_on_2304_chains_is_bit_identical_to_pinned_widths() {
    let grid_server = |exec: ExecMode| {
        let mut config = ServerConfig { exec, ..ServerConfig::default() };
        config.planner.seed = 9;
        config.planner.grid_side = 48;
        let mut s = CraqrServer::new(crowd(3_000, 9), config);
        s.register_attribute("temp", false, Box::new(TemperatureField::city_default()));
        let queries: Vec<QueryId> = ["RECT(0,0,4,4) RATE 0.5", "RECT(1,1,3.5,2.5) RATE 2"]
            .iter()
            .map(|q| s.submit(&format!("ACQUIRE temp FROM {q}")).unwrap())
            .collect();
        (s, queries)
    };
    let modes = [ExecMode::Serial, ExecMode::Sharded(1), ExecMode::Sharded(3)];
    let (mut servers, queries): (Vec<CraqrServer>, Vec<_>) =
        modes.into_iter().map(grid_server).unzip();
    assert!(queries.iter().all(|q| *q == queries[0]));
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    for epoch in 0..4 {
        let reports: Vec<EpochReport> = servers.iter_mut().map(CraqrServer::run_epoch).collect();
        assert_eq!(reports[0].exec.chains(), 2_304);
        let widths: Vec<usize> = reports.iter().map(|r| r.exec.shards.len()).collect();
        let rule = craqr::stats::width(2_304, CHAINS_PER_WORKER, cores);
        assert_eq!(widths, [rule, 1, 3], "epoch {epoch}");
        for other in &reports[1..] {
            assert_same_epoch(&reports[0], other, epoch);
        }
    }
    for &q in &queries[0] {
        let outs: Vec<_> = servers.iter_mut().map(|s| s.take_output(q)).collect();
        assert!(!outs[0].is_empty(), "query {q} must deliver something in 4 epochs");
        assert!(outs.iter().all(|o| *o == outs[0]), "query {q}: stream contents diverged");
    }
    assert!(servers.iter().all(|s| s.handler().totals() == servers[0].handler().totals()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Shard merge preserves totals: for any seed and shard count, the
    /// per-shard tuple counts sum to the serial run's routed count, chains
    /// partition without loss, and budget spend (requests drawn) matches.
    #[test]
    fn shard_merge_preserves_tuple_count_and_budget_spend(
        seed in any::<u64>(),
        shards in 1usize..6,
        size in 150usize..400,
    ) {
        let (mut serial, _) = server(size, seed, ExecMode::Serial);
        let (mut sharded, _) = server(size, seed, ExecMode::Sharded(shards));
        for _ in 0..3 {
            let a = serial.run_epoch();
            let b = sharded.run_epoch();

            // Merge preserves the total tuple count...
            let shard_sum: usize = b.exec.shards.iter().map(|s: &ShardIngest| s.tuples).sum();
            prop_assert_eq!(shard_sum, b.exec.routed);
            prop_assert_eq!(a.exec.routed, b.exec.routed);
            prop_assert_eq!(a.exec.dropped, b.exec.dropped);
            prop_assert_eq!(a.exec.chains(), b.exec.chains());
            // ...and shard indices arrive merged in ascending order.
            prop_assert!(b.exec.shards.windows(2).all(|w| w[0].shard < w[1].shard));

            // Budget spend is identical: same requests drawn, same sends.
            prop_assert_eq!(a.dispatch, b.dispatch);
            prop_assert_eq!(a.tuning, b.tuning);
        }
        prop_assert_eq!(serial.handler().totals(), sharded.handler().totals());
    }
}
