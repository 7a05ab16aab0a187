//! Failure injection across the stack: corrupted responses and sensor
//! churn — the Section VI error-handling surface.

use craqr::core::{ErrorModel, Mitigation};
use craqr::prelude::*;
use craqr::sensing::fields::ConstantField;
use craqr::sensing::AttributeId;

fn crowd(seed: u64) -> Crowd {
    let region = Rect::with_size(4.0, 4.0);
    Crowd::new(CrowdConfig {
        region,
        population: PopulationConfig {
            size: 1_000,
            placement: Placement::Uniform,
            mobility: Mobility::RandomWalk { sigma: 0.1 },
            human_fraction: 0.0,
        },
        seed,
    })
}

#[test]
fn gps_noise_with_mitigation_keeps_stream_inside_region() {
    let mut server = CraqrServer::new(
        crowd(1),
        ServerConfig {
            error_model: ErrorModel::new(0.3, 0.0, 0.0),
            mitigation: Mitigation::standard(),
            ..Default::default()
        },
    );
    server.register_attribute("temp", false, Box::new(ConstantField(AttrValue::Float(1.0))));
    let qid = server.submit("ACQUIRE temp FROM RECT(0, 0, 4, 4) RATE 0.3").unwrap();
    let mut rejected = 0;
    for _ in 0..8 {
        let r = server.run_epoch();
        rejected += r.mitigation_rejected;
    }
    let out = server.take_output(qid);
    assert!(!out.is_empty());
    for t in &out {
        assert!(
            t.point.x >= 0.0 && t.point.x < 4.0 && t.point.y >= 0.0 && t.point.y < 4.0,
            "tuple escaped the region: ({}, {})",
            t.point.x,
            t.point.y
        );
    }
    assert!(rejected > 0, "σ=0.3 km GPS noise must push some fixes far outside");
}

#[test]
fn value_outliers_are_filtered_but_signal_survives() {
    // Heavy sensor glitches: 2% of the time mitigation's 5σ robust filter
    // must catch the 1000°C readings while keeping the 20°C signal.
    let mut server = CraqrServer::new(
        crowd(2),
        ServerConfig {
            error_model: ErrorModel::new(0.0, 0.0, 0.5),
            mitigation: Mitigation::standard(),
            ..Default::default()
        },
    );
    server.register_attribute("temp", false, Box::new(ConstantField(AttrValue::Float(20.0))));
    let qid = server.submit("ACQUIRE temp FROM RECT(0, 0, 4, 4) RATE 0.3").unwrap();
    for _ in 0..8 {
        server.run_epoch();
    }
    let out = server.take_output(qid);
    assert!(!out.is_empty());
    for t in &out {
        let v = t.value.as_float().unwrap();
        assert!((v - 20.0).abs() < 5.0, "unfiltered outlier {v}");
    }
}

#[test]
fn bool_flips_degrade_but_do_not_invert_rain_signal() {
    let mut server = CraqrServer::new(
        crowd(3),
        ServerConfig { error_model: ErrorModel::new(0.0, 0.15, 0.0), ..Default::default() },
    );
    // It always rains everywhere.
    server.register_attribute("rain", true, Box::new(ConstantField(AttrValue::Bool(true))));
    let qid = server.submit("ACQUIRE rain FROM RECT(0, 0, 4, 4) RATE 0.3").unwrap();
    for _ in 0..8 {
        server.run_epoch();
    }
    let out = server.take_output(qid);
    assert!(out.len() > 50);
    let wet = out.iter().filter(|t| t.value == AttrValue::Bool(true)).count();
    let frac = wet as f64 / out.len() as f64;
    assert!((frac - 0.85).abs() < 0.08, "15% flips → ~85% true, got {frac:.2}");
}

#[test]
fn sensor_churn_does_not_stall_acquisition() {
    let mut server = CraqrServer::new(crowd(4), ServerConfig::default());
    server.register_attribute("temp", false, Box::new(ConstantField(AttrValue::Float(5.0))));
    let qid = server.submit("ACQUIRE temp FROM RECT(0, 0, 2, 2) RATE 0.3").unwrap();
    // 20% of the crowd is replaced every epoch, mid-run, through the
    // server's world handle; delivery must continue regardless.
    let mut delivered = 0;
    let mut late_delivered = 0;
    for epoch in 0..10 {
        server.crowd_mut().churn(0.2);
        let r = server.run_epoch();
        let n: usize = r.delivered.iter().map(|(_, n)| *n).sum();
        delivered += n;
        if epoch >= 5 {
            late_delivered += n;
        }
    }
    assert!(delivered > 0);
    assert!(late_delivered > 0, "churn must not progressively stall the stream");
    assert_eq!(server.buffered_len(qid), delivered);
}

#[test]
fn churned_crowd_still_answers() {
    let mut c = crowd(5);
    c.register_field(AttributeId(0), Box::new(ConstantField(AttrValue::Float(1.0))));
    let region = c.region();
    c.dispatch_requests(AttributeId(0), &region, 200, 0.0);
    c.step(1.0);
    let before = c.drain_responses().len();
    assert!(before > 100);
    // Replace 50% of sensors mid-flight, then ask again.
    c.churn(0.5);
    c.dispatch_requests(AttributeId(0), &region, 200, 0.0);
    c.step(1.0);
    let after = c.drain_responses().len();
    assert!(after > 100, "churn must not break request handling, got {after}");
}
