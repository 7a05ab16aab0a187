//! The simulated world: sensors, phenomena, and in-flight responses.

use crate::fields::Field;
use crate::mobility::Mobility;
use crate::population::PopulationConfig;
use crate::sensor::MobileSensor;
use crate::types::{AttrValue, AttributeId, Measurement, SensorId, SensorResponse};
use craqr_geom::{Rect, SpaceTimePoint};
use craqr_stats::{fan_out, host_cores, sub_rng};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

/// Configuration of a [`Crowd`].
#[derive(Debug, Clone)]
pub struct CrowdConfig {
    /// The geographical region `R`.
    pub region: Rect,
    /// Sensor population.
    pub population: PopulationConfig,
    /// Master seed; mobility, participation, and placement derive
    /// independent sub-streams from it.
    pub seed: u64,
}

/// Crowd-side delivery faults, applied independently to every maturing
/// response: message **drop** (the answer never arrives), **delay** (the
/// answer is held back a fixed number of minutes — the sensor re-measures
/// at the *new* delivery time, so a delayed answer carries a genuinely
/// staler position), and **duplication** (the crowd delivers the same
/// answer twice). All probabilities default to zero; a default-faults
/// crowd draws nothing from the fault RNG stream and behaves
/// byte-identically to a fault-free one.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CrowdFaults {
    /// Probability that a maturing response is silently dropped.
    pub drop_probability: f64,
    /// Probability that a maturing response is deferred by
    /// [`delay_minutes`](Self::delay_minutes).
    pub delay_probability: f64,
    /// Deferral applied to delayed responses, in minutes. Must be `> 0`
    /// whenever `delay_probability > 0` (a zero delay would re-mature the
    /// response in the same instant, forever).
    pub delay_minutes: f64,
    /// Probability that a delivered response is delivered twice.
    pub duplicate_probability: f64,
}

/// An in-flight (accepted but not yet delivered) response, ordered for
/// the pending max-heap by `(Reverse(due), seq)` alone: the earliest due
/// time pops first, and equal due times pop the larger `seq` first. Fault
/// draws happen in pop order, so this comparison is part of the byte
/// contract.
#[derive(Debug, Clone, Copy)]
struct Pending {
    due: f64,
    /// The request's rank among accepted requests; unique within the
    /// heap (a delayed response is re-queued under the `seq` it had).
    seq: u64,
    sensor: SensorId,
    attr: AttributeId,
    issued_at: f64,
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Pending {}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> Ordering {
        other.due.total_cmp(&self.due).then_with(|| self.seq.cmp(&other.seq))
    }
}

/// Mean sensors per bucket the index aims for; the side follows from the
/// population, so nothing is configured.
const SENSORS_PER_BUCKET: usize = 16;

/// Upper bound on the bucket grid's side (65 536 buckets, 256 KiB of
/// offsets) however large the population.
const MAX_BUCKET_SIDE: usize = 256;

/// A uniform `side × side` bucket grid over the crowd's region, in CSR
/// layout: bucket `b` (row-major) lists the sensor-array positions
/// `ids[starts[b]..starts[b + 1]]`, ascending. It only *narrows* a
/// rectangle query — membership is still decided by [`Rect::contains`].
#[derive(Debug, Default)]
struct BucketIndex {
    /// `false` once any sensor position changed since the last rebuild.
    valid: bool,
    side: usize,
    origin: (f64, f64),
    /// Buckets per kilometre along x and y.
    scale: (f64, f64),
    starts: Vec<u32>,
    ids: Vec<u32>,
    /// Rebuild scratch: each sensor's bucket, between the counting and
    /// the filling pass.
    bucket_of: Vec<u32>,
}

impl BucketIndex {
    /// Bucket coordinate of `v` on an axis starting at `lo`: monotone
    /// non-decreasing in `v` and clamped to `0..side` (the float → int
    /// cast saturates, NaN lands on 0). Sensors and query edges both go
    /// through this one expression, so a sensor with `x0 <= x < x1` always
    /// sits in a bucket between `x0`'s and `x1`'s — for any rectangle, on
    /// or off the bucket grid, inside or outside the region.
    #[inline]
    fn axis(&self, v: f64, lo: f64, scale: f64) -> usize {
        (((v - lo) * scale) as usize).min(self.side - 1)
    }

    #[inline]
    fn col(&self, x: f64) -> usize {
        self.axis(x, self.origin.0, self.scale.0)
    }

    #[inline]
    fn row(&self, y: f64) -> usize {
        self.axis(y, self.origin.1, self.scale.1)
    }

    /// Counting sort of the sensors into buckets, in sensor-array order —
    /// which is what leaves every bucket's list ascending.
    fn rebuild(&mut self, region: &Rect, sensors: &[MobileSensor]) {
        assert!(u32::try_from(sensors.len()).is_ok(), "the bucket index addresses sensors by u32");
        let side = ((sensors.len() as f64 / SENSORS_PER_BUCKET as f64).sqrt().ceil() as usize)
            .clamp(1, MAX_BUCKET_SIDE);
        self.side = side;
        self.origin = (region.x0, region.y0);
        self.scale = (side as f64 / region.width(), side as f64 / region.height());
        let buckets = side * side;
        self.starts.clear();
        self.starts.resize(buckets + 1, 0);
        self.bucket_of.clear();
        for s in sensors {
            let (x, y) = s.position();
            let b = self.row(y) * side + self.col(x);
            self.bucket_of.push(b as u32);
            self.starts[b + 1] += 1;
        }
        for b in 0..buckets {
            self.starts[b + 1] += self.starts[b];
        }
        // Fill with `starts[b]` as bucket b's write cursor; afterwards each
        // cursor rests on its bucket's end, i.e. the next bucket's start,
        // so shifting the array up by one restores the offsets.
        self.ids.clear();
        self.ids.resize(sensors.len(), 0);
        for (i, &b) in self.bucket_of.iter().enumerate() {
            let cursor = &mut self.starts[b as usize];
            self.ids[*cursor as usize] = i as u32;
            *cursor += 1;
        }
        self.starts.copy_within(0..buckets, 1);
        self.starts[0] = 0;
        self.valid = true;
    }

    /// Fills `out` with the ids of the sensors inside `rect`, in
    /// sensor-array order — element for element what
    /// [`Crowd::sensors_in`] returns.
    fn candidates(&self, rect: &Rect, sensors: &[MobileSensor], out: &mut Vec<SensorId>) {
        out.clear();
        let (bx0, bx1) = (self.col(rect.x0), self.col(rect.x1));
        let (by0, by1) = (self.row(rect.y0), self.row(rect.y1));
        if bx0 > bx1 {
            return; // inverted extents contain nothing
        }
        for by in by0..=by1 {
            // One row's buckets bx0..=bx1 are contiguous in `ids`.
            let first = by * self.side;
            let span = self.starts[first + bx0] as usize..self.starts[first + bx1 + 1] as usize;
            for &i in &self.ids[span] {
                let s = &sensors[i as usize];
                let (x, y) = s.position();
                if rect.contains(x, y) {
                    out.push(s.id());
                }
            }
        }
        // Each bucket is ascending (a sensor's id is its array position);
        // several buckets interleave.
        if bx0 != bx1 || by0 != by1 {
            out.sort_unstable();
        }
    }
}

/// A response a [`Crowd::advance`] delivered before moving the sensors:
/// its [`Pass`] measures it where `sensor` stands after the sub-step it
/// matured in, and the measurement then goes to slot `ready` of the ready
/// queue.
#[derive(Debug, Clone, Copy)]
struct Visit {
    sensor: u32,
    ready: u32,
    /// The attribute and the time; the place and the value come from the
    /// pass.
    measurement: Measurement,
}

/// One contiguous range of sensors a [`Pass`] moves on one thread, with
/// the visits to them.
struct Range<'s> {
    /// Array position of the range's first sensor.
    first: usize,
    sensors: &'s mut [MobileSensor],
    visits: &'s mut [Visit],
}

/// The mobility pass of a [`Crowd::advance`]: the one place the sensors
/// move, in one or more ranges.
struct Pass<'a> {
    /// Simulation time as the pass starts.
    start: f64,
    dt: f64,
    substeps: usize,
    /// RNG words one sensor-step draws; a single range skips none, so it
    /// reads 0 when the mobility's draws are not fixed.
    draws: usize,
    /// Sensors in the whole crowd.
    population: usize,
    region: Rect,
    /// The mobility stream as the pass starts.
    rng: &'a StdRng,
    fields: &'a HashMap<AttributeId, Box<dyn Field>>,
}

impl Pass<'_> {
    /// Splits `sensors` into `width` contiguous ranges, moves them through
    /// [`fan_out`] and returns every range's copy of the mobility stream,
    /// in range order. With more than one range, `visits` must be sorted
    /// by sensor.
    fn run(&self, sensors: &mut [MobileSensor], visits: &mut [Visit], width: usize) -> Vec<StdRng> {
        let n = sensors.len();
        let (mut sensors, mut visits) = (sensors, visits);
        let mut ranges = Vec::with_capacity(width);
        for r in 0..width {
            let (first, end) = (r * n / width, (r + 1) * n / width);
            let (own, rest) = std::mem::take(&mut sensors).split_at_mut(end - first);
            sensors = rest;
            let inside = visits.partition_point(|v| (v.sensor as usize) < end);
            let (own_visits, rest) = std::mem::take(&mut visits).split_at_mut(inside);
            visits = rest;
            ranges.push(Range { first, sensors: own, visits: own_visits });
        }
        fan_out(ranges, |range| self.walk(range))
    }

    /// Moves one range through every sub-step on its own copy of the
    /// mobility stream: it skips the words of the sensors before the
    /// range, and between sub-steps those of every other range, so each
    /// sensor draws what it draws in a single range and the copy ends
    /// where a single range's stream does. A visit is measured after the
    /// sub-step its response matured in: the first whose end reaches its
    /// time.
    fn walk(&self, range: Range<'_>) -> StdRng {
        let Range { first, sensors, visits } = range;
        let mut rng = self.rng.clone();
        let skip = |rng: &mut StdRng, sensors: usize| {
            for _ in 0..sensors * self.draws {
                rng.next_u64();
            }
        };
        skip(&mut rng, first);
        // Each sub-step's end, accumulated as maturation accumulated it.
        let mut end = self.start;
        for k in 0..self.substeps {
            if k > 0 {
                skip(&mut rng, self.population - sensors.len());
            }
            for s in sensors.iter_mut() {
                s.advance(self.dt, &self.region, &mut rng);
            }
            let begin = end;
            end += self.dt;
            let due = |v: &&mut Visit| {
                let t = v.measurement.point.t;
                (k == 0 || t > begin) && t <= end
            };
            for v in visits.iter_mut().filter(due) {
                let Measurement { attr, point, .. } = v.measurement;
                let sensor = &sensors[v.sensor as usize - first];
                v.measurement = sensor.observe(attr, self.fields[&attr].as_ref(), point.t);
            }
        }
        skip(&mut rng, self.population - first - sensors.len());
        rng
    }
}

/// Sensor-steps each worker of [`Crowd::advance`] gets at least: a call
/// moving `sensors` sensors through `substeps` sub-steps runs on
/// `(sensors × substeps / SENSOR_STEPS_PER_WORKER).clamp(1, cores)`
/// threads.
///
/// Measured on a 2-core host, 6 alternating pairs a case, at ≈ 72 ns and
/// two RNG words a sensor-step on one thread: with 20 000 random walkers,
/// two ranges win at four sub-steps (40 against 73 ns a sensor-step) and at
/// one (43 against 73), where they lost at ≈ 100 ns and four words a step;
/// with 8 192 walkers and one sub-step they still win (42–51 against
/// 53–76 ns), and with 4 096 it is a coin toss (4 of 6). The constant is
/// the smallest share that wins every pair, so a single [`Crowd::step`] of
/// 20 000 walkers fans out, and 4 000 walkers through four sub-steps
/// (16 000 sensor-steps) do not.
pub const SENSOR_STEPS_PER_WORKER: usize = 8_192;

/// The simulated mobile crowd.
///
/// Time is explicit and advances only through [`Crowd::advance`] (or
/// [`Crowd::step`], one sub-step of it). The request/response contract
/// mirrors Section IV-A exactly:
///
/// 1. The server calls [`Crowd::dispatch_requests`] for an attribute, a
///    target rectangle (a grid cell), a request count (the budget share for
///    this batch) and an incentive. Requests go to *randomly selected*
///    sensors currently inside the rectangle — sampled without replacement
///    when enough sensors are available, with replacement otherwise (the
///    paper's rule).
/// 2. Each targeted sensor independently decides *whether* and *when* to
///    answer (its [`crate::response::ResponseModel`]).
/// 3. As simulation time passes the due answers materialize: the sensor
///    measures the registered ground-truth field at its position *at answer
///    time* — so a slow human reports a location the query may no longer
///    care about, reproducing the paper's motivating failure mode.
/// 4. [`Crowd::drain_responses`] hands the matured responses to the server.
///
/// # The bucket index
///
/// The handler addresses the crowd per grid cell, many cells an epoch, so
/// [`Crowd::dispatch_requests`] does not scan the population per order: a
/// private uniform bucket grid over the region (side derived from the
/// population, about 16 sensors a bucket) is rebuilt by one counting sort
/// at the first dispatch after any position change ([`Crowd::step`],
/// [`Crowd::migrate`], [`Crowd::churn`]) and each order visits only the
/// buckets its rectangle spans. **Order guarantee:** the index narrows,
/// it never decides — candidates are exactly the sensors passing
/// [`Rect::contains`], in sensor-array (ascending id) order, i.e. the
/// sequence [`Crowd::sensors_in`] returns, so the participation stream
/// draws the same values as a full scan would. Debug builds assert that
/// equality on every order.
///
/// # Determinism
///
/// The crowd is a pure function of its seed and the calls made on it. How
/// many threads [`Crowd::advance`] moves the sensors on depends on the
/// host's cores, and never shows: every sensor draws the same mobility
/// words, every response matures at the same position with the same fault
/// draws, and the three RNG streams end where a single range leaves them.
pub struct Crowd {
    region: Rect,
    sensors: Vec<MobileSensor>,
    /// The population's mobility template, cloned into every sensor
    /// [`Crowd::churn`] brings in.
    mobility: Mobility,
    index: BucketIndex,
    /// Candidate buffer reused across orders.
    candidates: Vec<SensorId>,
    /// Targets of an order sampled with replacement, reused across orders.
    targets: Vec<SensorId>,
    /// The host's cores, read when the crowd is built.
    cores: usize,
    fields: HashMap<AttributeId, Box<dyn Field>>,
    pending: BinaryHeap<Pending>,
    /// Responses the current [`Crowd::advance`] matured, for its [`Pass`]
    /// to measure.
    visits: Vec<Visit>,
    /// Requests accepted so far — the next [`Pending::seq`].
    accepted: u64,
    ready: Vec<SensorResponse>,
    now: f64,
    mobility_rng: StdRng,
    participation_rng: StdRng,
    fault_rng: StdRng,
    faults: CrowdFaults,
    requests_sent: u64,
    responses_delivered: u64,
    responses_dropped: u64,
    responses_delayed: u64,
    responses_duplicated: u64,
}

impl Crowd {
    /// Builds the crowd from a config.
    pub fn new(config: CrowdConfig) -> Self {
        let mut placement_rng = sub_rng(config.seed, 0);
        let sensors = config.population.build(&config.region, &mut placement_rng);
        Self {
            region: config.region,
            sensors,
            mobility: config.population.mobility,
            index: BucketIndex::default(),
            candidates: Vec::new(),
            targets: Vec::new(),
            cores: host_cores(),
            fields: HashMap::new(),
            pending: BinaryHeap::new(),
            visits: Vec::new(),
            accepted: 0,
            ready: Vec::new(),
            now: 0.0,
            mobility_rng: sub_rng(config.seed, 1),
            participation_rng: sub_rng(config.seed, 2),
            // Stream 3 is reserved for faults. The stream is always built
            // (construction draws nothing) but only touched when a fault
            // probability is non-zero, so fault-free runs are unchanged.
            fault_rng: sub_rng(config.seed, 3),
            faults: CrowdFaults::default(),
            requests_sent: 0,
            responses_delivered: 0,
            responses_dropped: 0,
            responses_delayed: 0,
            responses_duplicated: 0,
        }
    }

    /// Registers the ground-truth field behind an attribute. Requests for
    /// unregistered attributes panic — a configuration bug.
    pub fn register_field(&mut self, attr: AttributeId, field: Box<dyn Field>) {
        self.fields.insert(attr, field);
    }

    /// Current simulation time (minutes).
    #[inline]
    pub fn now(&self) -> f64 {
        self.now
    }

    /// The region `R`.
    #[inline]
    pub fn region(&self) -> Rect {
        self.region
    }

    /// Number of sensors `m`.
    #[inline]
    pub fn sensor_count(&self) -> usize {
        self.sensors.len()
    }

    /// Read access to the sensors (for diagnostics and tests).
    pub fn sensors(&self) -> &[MobileSensor] {
        &self.sensors
    }

    /// Ids of sensors currently inside `rect`, by a linear scan of the
    /// population: the public diagnostic, and the executable specification
    /// the dispatch path's bucket index is tested against.
    pub fn sensors_in(&self, rect: &Rect) -> Vec<SensorId> {
        self.sensors
            .iter()
            .filter(|s| {
                let (x, y) = s.position();
                rect.contains(x, y)
            })
            .map(|s| s.id())
            .collect()
    }

    /// Replaces the crowd-side delivery faults. The faults apply to every
    /// response maturing from the next [`Crowd::advance`] onward; already
    /// delivered responses are unaffected. Call with
    /// `CrowdFaults::default()` to clear.
    ///
    /// # Panics
    /// Panics when any probability is outside `[0, 1]`, or when
    /// `delay_probability > 0` with a non-positive or non-finite
    /// `delay_minutes`.
    #[track_caller]
    pub fn set_faults(&mut self, faults: CrowdFaults) {
        for (name, p) in [
            ("drop_probability", faults.drop_probability),
            ("delay_probability", faults.delay_probability),
            ("duplicate_probability", faults.duplicate_probability),
        ] {
            assert!((0.0..=1.0).contains(&p), "{name} must be in [0,1], got {p}");
        }
        if faults.delay_probability > 0.0 {
            assert!(
                faults.delay_minutes.is_finite() && faults.delay_minutes > 0.0,
                "delay_minutes must be finite and > 0 when delays are active, got {}",
                faults.delay_minutes
            );
        }
        self.faults = faults;
    }

    /// The currently active crowd-side delivery faults.
    #[inline]
    pub fn faults(&self) -> CrowdFaults {
        self.faults
    }

    /// Advances the world by `dt` minutes: moves every sensor, then matures
    /// every pending response due by the new time, applying the active
    /// [`CrowdFaults`] to each maturing response. The same as
    /// [`Crowd::advance`]`(dt, 1)`, and so bound by the same contract.
    ///
    /// # Panics
    /// Panics unless `dt` is finite and `> 0`.
    #[track_caller]
    pub fn step(&mut self, dt: f64) {
        self.advance(dt, 1);
    }

    /// Runs `substeps` sub-steps of `dt` minutes each. Every sub-step moves
    /// every sensor and then matures the responses due by its end, at the
    /// positions the sensors have then — as many [`Crowd::step`] calls
    /// would.
    ///
    /// Every call matures, then runs one pass. Maturation reads no position
    /// until it measures, so it runs first, on the calling thread, sub-step
    /// by sub-step with the fault draws in pop order, and leaves the
    /// delivered responses unmeasured. Then one pass moves the sensors
    /// through every sub-step and measures each response after the
    /// sub-step it matured in; the measurements fill in after the pass.
    ///
    /// **Determinism contract.** The result is bit-identical to
    /// `substeps` calls of [`Crowd::step`], on any host. When the
    /// population's mobility draws a fixed number of RNG words a
    /// sensor-step ([`Mobility::draws_per_step`]: two for a walk or
    /// Gauss–Markov step, whose x and y come from one Box–Muller pair, and
    /// none for a station or zero noise), the pass splits the
    /// sensors into one contiguous range per [`SENSOR_STEPS_PER_WORKER`]
    /// sensor-steps, capped at the host's cores, and runs them in one
    /// [`fan_out`]; each range moves on its own copy of the mobility
    /// stream, skipping the words the other ranges draw, so every sensor
    /// gets the words it would get in one range. Otherwise (the random
    /// waypoint) the pass is one range on the calling thread.
    ///
    /// # Panics
    /// Panics unless `dt` is finite and `> 0`; re-raises a worker's panic.
    #[track_caller]
    pub fn advance(&mut self, dt: f64, substeps: u32) {
        assert!(dt.is_finite() && dt > 0.0, "dt must be finite and > 0, got {dt}");
        let sensor_steps = self.sensors.len().saturating_mul(substeps as usize);
        let width = craqr_stats::width(sensor_steps, SENSOR_STEPS_PER_WORKER, self.cores);
        self.advance_at(dt, substeps, width);
    }

    /// [`Crowd::advance`] in `width` ranges — or one, when the mobility's
    /// draws are not fixed or there are no sub-steps, and never more than
    /// there are sensors.
    fn advance_at(&mut self, dt: f64, substeps: u32, width: usize) {
        self.index.valid = false;
        let draws = self.mobility.draws_per_step(dt);
        let width = if draws.is_some() && substeps > 0 { width } else { 1 };
        let width = width.clamp(1, self.sensors.len().max(1));
        let start = self.now;
        self.visits.clear();
        for _ in 0..substeps {
            self.now += dt;
            self.mature();
        }
        if width > 1 {
            self.visits.sort_unstable_by_key(|v| v.sensor);
        }
        let pass = Pass {
            start,
            dt,
            substeps: substeps as usize,
            draws: draws.unwrap_or(0),
            population: self.sensors.len(),
            region: self.region,
            rng: &self.mobility_rng,
            fields: &self.fields,
        };
        let ends = pass.run(&mut self.sensors, &mut self.visits, width);
        assert!(
            ends.iter().all(|end| *end == ends[0]),
            "mobility workers ended on different streams"
        );
        self.mobility_rng = ends[0].clone();
        for v in &self.visits {
            self.ready[v.ready as usize].measurement = v.measurement;
        }
    }

    /// Matures every pending response due by `now` and queues a [`Visit`]
    /// for each delivered copy: the calling [`Crowd::advance`]'s pass
    /// measures it where its sensor stands at answer time.
    fn mature(&mut self) {
        // Fault draws are strictly conditional on a non-zero probability so
        // inactive fault kinds consume nothing from the fault stream.
        while let Some(&info) = self.pending.peek() {
            let due = info.due;
            if due > self.now {
                break;
            }
            self.pending.pop();
            if self.faults.drop_probability > 0.0
                && self.fault_rng.gen::<f64>() < self.faults.drop_probability
            {
                self.responses_dropped += 1;
                continue;
            }
            if self.faults.delay_probability > 0.0
                && self.fault_rng.gen::<f64>() < self.faults.delay_probability
            {
                // Re-queue at a strictly later due time; the sensor will
                // re-measure there, so the delay is observable staleness.
                // Terminates: each deferral moves `due` forward by a fixed
                // positive amount, so it eventually passes `now`.
                self.responses_delayed += 1;
                self.pending.push(Pending { due: due + self.faults.delay_minutes, ..info });
                continue;
            }
            // No place and no value until the pass measures it.
            let point = SpaceTimePoint::new(due, f64::NAN, f64::NAN);
            let measurement = Measurement { attr: info.attr, point, value: AttrValue::Bool(false) };
            let response =
                SensorResponse { sensor: info.sensor, measurement, issued_at: info.issued_at };
            let copies = if self.faults.duplicate_probability > 0.0
                && self.fault_rng.gen::<f64>() < self.faults.duplicate_probability
            {
                self.responses_duplicated += 1;
                2
            } else {
                1
            };
            for _ in 0..copies {
                let (sensor, ready) = (info.sensor.0 as u32, self.ready.len() as u32);
                self.visits.push(Visit { sensor, ready, measurement });
                self.ready.push(response);
                self.responses_delivered += 1;
            }
        }
    }

    /// Leaves in `self.candidates` the sensors inside `target`, found
    /// through the bucket index — rebuilt here, once, if a position
    /// changed since it was built.
    fn find_candidates(&mut self, target: &Rect) {
        if !self.index.valid {
            self.index.rebuild(&self.region, &self.sensors);
        }
        self.index.candidates(target, &self.sensors, &mut self.candidates);
        debug_assert_eq!(
            self.candidates,
            self.sensors_in(target),
            "the bucket index diverged from the scan"
        );
    }

    /// Sends `count` acquisition requests for `attr` to randomly selected
    /// sensors inside `target`, offering `incentive` each. Returns the
    /// number of requests actually sent (0 when the cell is empty).
    ///
    /// Sensors are sampled **without replacement** when at least `count`
    /// sensors are present, **with replacement** otherwise (Section IV-A).
    ///
    /// # Panics
    /// Panics when no field is registered for `attr`.
    pub fn dispatch_requests(
        &mut self,
        attr: AttributeId,
        target: &Rect,
        count: usize,
        incentive: f64,
    ) -> usize {
        assert!(self.fields.contains_key(&attr), "no field registered for {attr}");
        if count == 0 {
            return 0;
        }
        self.find_candidates(target);
        let len = self.candidates.len();
        if len == 0 {
            return 0;
        }
        let targets: &[SensorId] =
            if len >= count {
                // Partial Fisher–Yates in place: the first `count` candidates
                // become the sample, in selection order.
                for i in 0..count {
                    let j = i + (self.participation_rng.next_u64() % (len - i) as u64) as usize;
                    self.candidates.swap(i, j);
                }
                &self.candidates[..count]
            } else {
                self.targets.clear();
                self.targets.extend((0..count).map(|_| {
                    *self.candidates.choose(&mut self.participation_rng).expect("non-empty")
                }));
                &self.targets
            };
        let sent = targets.len();
        for &sid in targets {
            self.requests_sent += 1;
            let sensor = &self.sensors[sid.0 as usize];
            if let Some(latency) = sensor.decide_response(incentive, &mut self.participation_rng) {
                self.pending.push(Pending {
                    due: self.now + latency,
                    seq: self.accepted,
                    sensor: sid,
                    attr,
                    issued_at: self.now,
                });
                self.accepted += 1;
            }
        }
        sent
    }

    /// Drains all matured responses (ordered by delivery time).
    ///
    /// Ties (identical delivery times — possible with zero-latency
    /// response models) break on `(sensor, attribute, issue time)`, a
    /// total order over distinguishable responses, so the drained
    /// sequence is a pure function of the set of matured responses.
    pub fn drain_responses(&mut self) -> Vec<SensorResponse> {
        self.drain_responses_reusing(Vec::new())
    }

    /// [`Crowd::drain_responses`] into a recycled buffer: `recycled` is
    /// cleared, swapped with the internal ready queue (which inherits the
    /// recycled allocation), and returned sorted. Steady-state epoch
    /// loops recycle their drained batch back through this to keep the
    /// drain allocation-free; the returned sequence is bit-identical to
    /// the plain drain.
    pub fn drain_responses_reusing(
        &mut self,
        mut recycled: Vec<SensorResponse>,
    ) -> Vec<SensorResponse> {
        recycled.clear();
        std::mem::swap(&mut recycled, &mut self.ready);
        recycled.sort_by(response_order);
        recycled
    }

    /// Total requests sent so far.
    #[inline]
    pub fn requests_sent(&self) -> u64 {
        self.requests_sent
    }

    /// Total responses delivered so far (duplicates count individually).
    #[inline]
    pub fn responses_delivered(&self) -> u64 {
        self.responses_delivered
    }

    /// Responses swallowed by the drop fault.
    #[inline]
    pub fn responses_dropped(&self) -> u64 {
        self.responses_dropped
    }

    /// Deferral events applied by the delay fault (one response deferred
    /// twice counts twice).
    #[inline]
    pub fn responses_delayed(&self) -> u64 {
        self.responses_delayed
    }

    /// Extra copies injected by the duplication fault.
    #[inline]
    pub fn responses_duplicated(&self) -> u64 {
        self.responses_duplicated
    }

    /// Overall response rate (delivered / sent), 0 before any request.
    pub fn response_rate(&self) -> f64 {
        if self.requests_sent == 0 {
            0.0
        } else {
            self.responses_delivered as f64 / self.requests_sent as f64
        }
    }

    /// Replaces every sensor's participation model — the "participation
    /// collapse / recovery" lever used by the budget-tuning experiments.
    pub fn set_all_response_models(&mut self, model: crate::response::ResponseModel) {
        for s in &mut self.sensors {
            s.set_response_model(model);
        }
    }

    /// Scales every sensor's base response probability by `factor`
    /// (clamped to `[0, 1]`) — the "participation surge / fatigue" lever
    /// behind mid-run rate-jump scenarios. Deterministic: no RNG draw.
    ///
    /// # Panics
    /// Panics on a negative or non-finite factor.
    #[track_caller]
    pub fn scale_participation(&mut self, factor: f64) {
        assert!(factor.is_finite() && factor >= 0.0, "factor must be >= 0, got {factor}");
        for s in &mut self.sensors {
            let m = *s.response_model();
            s.set_response_model(crate::response::ResponseModel {
                base_probability: (m.base_probability * factor).clamp(0.0, 1.0),
                ..m
            });
        }
    }

    /// Correlated dropout: every sensor currently inside `rect`
    /// independently goes silent with probability `p` (its response
    /// probability becomes 0; the body keeps moving, so the population
    /// count — and the request fan-out — is unchanged). This is the
    /// failure mode of a regional outage: an app update bricking one
    /// city's fleet, a carrier losing a cell.
    ///
    /// # Panics
    /// Panics when `p` is outside `[0, 1]`.
    #[track_caller]
    pub fn drop_region(&mut self, rect: &Rect, p: f64) {
        assert!((0.0..=1.0).contains(&p), "dropout probability must be in [0,1], got {p}");
        for s in &mut self.sensors {
            let (x, y) = s.position();
            if rect.contains(x, y) && self.participation_rng.gen::<f64>() < p {
                let m = *s.response_model();
                s.set_response_model(crate::response::ResponseModel {
                    base_probability: 0.0,
                    incentive_sensitivity: 0.0,
                    ..m
                });
            }
        }
    }

    /// Hotspot migration: every sensor independently relocates into
    /// `target` with probability `p` (uniform position inside the target,
    /// mobility and participation models kept). Models the crowd following
    /// an event — a stadium emptying, a festival starting.
    ///
    /// # Panics
    /// Panics when `p` is outside `[0, 1]`, or when `target` is degenerate
    /// (zero width or height — there is nowhere to place a migrant).
    #[track_caller]
    pub fn migrate(&mut self, p: f64, target: &Rect) {
        assert!((0.0..=1.0).contains(&p), "migration probability must be in [0,1], got {p}");
        assert!(
            target.x0 < target.x1 && target.y0 < target.y1,
            "migration target must have positive area, got {target}"
        );
        self.index.valid = false;
        for s in &mut self.sensors {
            if self.participation_rng.gen::<f64>() < p {
                let pos = (
                    self.participation_rng.gen_range(target.x0..target.x1),
                    self.participation_rng.gen_range(target.y0..target.y1),
                );
                s.set_position(pos);
            }
        }
    }

    /// Injects sensor churn: every sensor independently drops out with
    /// probability `p` (replaced by a fresh sensor at a random position, so
    /// the population size is stable but continuity is broken). Failure
    /// injection for the Section VI error experiments. A newcomer moves by
    /// the population's mobility model and keeps the response model of the
    /// sensor it replaces.
    ///
    /// # Panics
    /// Panics when `p` is outside `[0, 1]`.
    #[track_caller]
    pub fn churn(&mut self, p: f64) {
        assert!((0.0..=1.0).contains(&p), "churn probability must be in [0,1], got {p}");
        let region = self.region;
        self.index.valid = false;
        for s in &mut self.sensors {
            if self.participation_rng.gen::<f64>() < p {
                let pos = (
                    self.participation_rng.gen_range(region.x0..region.x1),
                    self.participation_rng.gen_range(region.y0..region.y1),
                );
                *s = MobileSensor::new(s.id(), pos, self.mobility.clone(), *s.response_model());
            }
        }
    }
}

/// The total order [`Crowd::drain_responses`] sorts by: delivery time,
/// then sensor, attribute, and issue time as tie-breaks. Responses equal
/// under this key are fully interchangeable (same sensor observing the
/// same field at the same instant), so any stream sorted by it is
/// uniquely determined by its response *set*.
fn response_order(a: &SensorResponse, b: &SensorResponse) -> std::cmp::Ordering {
    a.measurement
        .point
        .t
        .total_cmp(&b.measurement.point.t)
        .then_with(|| a.sensor.0.cmp(&b.sensor.0))
        .then_with(|| a.measurement.attr.0.cmp(&b.measurement.attr.0))
        .then_with(|| a.issued_at.total_cmp(&b.issued_at))
}

impl std::fmt::Debug for Crowd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Crowd")
            .field("now", &self.now)
            .field("sensors", &self.sensors.len())
            .field("pending", &self.pending.len())
            .field("requests_sent", &self.requests_sent)
            .field("responses_delivered", &self.responses_delivered)
            .field("responses_dropped", &self.responses_dropped)
            .field("responses_delayed", &self.responses_delayed)
            .field("responses_duplicated", &self.responses_duplicated)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fields::{ConstantField, RainFront};
    use crate::population::{Placement, PopulationConfig};
    use crate::response::ResponseModel;
    use proptest::prelude::*;

    fn crowd(size: usize, seed: u64) -> Crowd {
        let region = Rect::with_size(10.0, 10.0);
        let mut c = Crowd::new(CrowdConfig {
            region,
            population: PopulationConfig {
                size,
                placement: Placement::Uniform,
                mobility: Mobility::RandomWalk { sigma: 0.1 },
                human_fraction: 0.0,
            },
            seed,
        });
        c.register_field(AttributeId(0), Box::new(ConstantField(AttrValue::Float(1.0))));
        c
    }

    #[test]
    fn step_advances_time_and_sensors() {
        let mut c = crowd(10, 1);
        let before: Vec<_> = c.sensors().iter().map(|s| s.position()).collect();
        c.step(1.0);
        assert_eq!(c.now(), 1.0);
        let after: Vec<_> = c.sensors().iter().map(|s| s.position()).collect();
        assert_ne!(before, after);
    }

    #[test]
    fn automatic_sensors_answer_quickly() {
        let mut c = crowd(200, 2);
        let sent = c.dispatch_requests(AttributeId(0), &c.region(), 100, 0.0);
        assert_eq!(sent, 100);
        // Automatic sensors: p=0.95, latency mean 0.05 min. One minute is
        // plenty of time for all accepted answers.
        c.step(1.0);
        let responses = c.drain_responses();
        assert!(responses.len() >= 85, "got {}", responses.len());
        assert!(c.response_rate() > 0.85);
        for r in &responses {
            assert!(r.measurement.point.t <= 1.0);
            assert_eq!(r.issued_at, 0.0);
        }
    }

    #[test]
    fn requests_to_empty_cell_send_nothing() {
        let mut c = crowd(5, 3);
        // A rect certainly holding no sensor (outside the region corner).
        let empty = Rect::new(9.99, 9.99, 9.999, 9.999);
        let sent = c.dispatch_requests(AttributeId(0), &empty, 10, 0.0);
        assert_eq!(sent, 0);
    }

    #[test]
    fn oversampling_uses_replacement() {
        let mut c = crowd(3, 4);
        // Ask for many more requests than sensors: all 20 go out (with
        // replacement), targeting the 3 sensors repeatedly.
        let sent = c.dispatch_requests(AttributeId(0), &c.region(), 20, 0.0);
        assert_eq!(sent, 20);
        c.step(1.0);
        let responses = c.drain_responses();
        assert!(responses.len() > 10, "got {}", responses.len());
        // Only three distinct sensors can have answered.
        let mut ids: Vec<u64> = responses.iter().map(|r| r.sensor.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert!(ids.len() <= 3);
    }

    #[test]
    fn responses_carry_answer_time_position_value() {
        let region = Rect::with_size(10.0, 10.0);
        let mut c = Crowd::new(CrowdConfig {
            region,
            population: PopulationConfig {
                size: 50,
                placement: Placement::Uniform,
                mobility: Mobility::Stationary,
                human_fraction: 0.0,
            },
            seed: 5,
        });
        // Rain front across half the region at all times.
        c.register_field(AttributeId(1), Box::new(RainFront::new(5.0, 0.0, 5.0)));
        c.dispatch_requests(AttributeId(1), &region, 50, 0.0);
        c.step(0.5);
        for r in c.drain_responses() {
            let expect = r.measurement.point.x < 5.0;
            assert_eq!(r.measurement.value, AttrValue::Bool(expect));
        }
    }

    #[test]
    fn slow_responses_arrive_in_later_steps() {
        let region = Rect::with_size(10.0, 10.0);
        let mut c = Crowd::new(CrowdConfig {
            region,
            population: PopulationConfig {
                size: 300,
                placement: Placement::Uniform,
                mobility: Mobility::Stationary,
                human_fraction: 1.0, // humans: mean latency 2 min
            },
            seed: 6,
        });
        c.register_field(AttributeId(0), Box::new(ConstantField(AttrValue::Bool(true))));
        c.dispatch_requests(AttributeId(0), &region, 300, 5.0);
        c.step(0.25);
        let early = c.drain_responses().len();
        for _ in 0..40 {
            c.step(0.5);
        }
        let late = c.drain_responses().len();
        assert!(late > early, "early {early}, late {late}");
    }

    #[test]
    #[should_panic(expected = "no field registered")]
    fn unregistered_attribute_panics() {
        let mut c = crowd(5, 7);
        let region = c.region();
        let _ = c.dispatch_requests(AttributeId(9), &region, 1, 0.0);
    }

    #[test]
    fn same_seed_reproduces_world() {
        let run = |seed| {
            let mut c = crowd(100, seed);
            c.dispatch_requests(AttributeId(0), &c.region(), 50, 0.0);
            c.step(1.0);
            c.drain_responses().len()
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn scale_participation_changes_response_volume() {
        let run = |factor: Option<f64>| {
            let mut c = crowd(300, 21);
            if let Some(f) = factor {
                c.scale_participation(f);
            }
            c.dispatch_requests(AttributeId(0), &c.region(), 200, 0.0);
            c.step(1.0);
            c.drain_responses().len()
        };
        let base = run(None);
        assert!(run(Some(0.1)) < base / 2, "fatigue must cut responses");
        // Automatic sensors already answer at 0.95; scaling up saturates.
        assert!(run(Some(2.0)) >= base);
    }

    #[test]
    fn drop_region_silences_only_the_region() {
        let mut c = crowd(400, 22);
        let west = Rect::new(0.0, 0.0, 5.0, 10.0);
        c.drop_region(&west, 1.0);
        c.dispatch_requests(AttributeId(0), &c.region(), 400, 0.0);
        c.step(1.0);
        let responses = c.drain_responses();
        assert!(!responses.is_empty());
        // Stationary-ish walkers: responders overwhelmingly sit east.
        let west_hits = responses.iter().filter(|r| r.measurement.point.x < 5.0).count();
        assert!(
            (west_hits as f64) < responses.len() as f64 * 0.1,
            "west responses {west_hits}/{} after total west dropout",
            responses.len()
        );
    }

    #[test]
    fn migrate_concentrates_the_crowd() {
        let mut c = crowd(500, 23);
        let corner = Rect::new(0.0, 0.0, 2.0, 2.0);
        c.migrate(0.8, &corner);
        let inside = c.sensors_in(&corner).len();
        assert!(inside > 350, "migration left only {inside} sensors in the target");
    }

    #[test]
    fn default_faults_leave_the_world_byte_identical() {
        let run = |set_defaults: bool| {
            let mut c = crowd(200, 31);
            if set_defaults {
                c.set_faults(CrowdFaults::default());
            }
            c.dispatch_requests(AttributeId(0), &c.region(), 150, 0.0);
            c.step(1.0);
            c.drain_responses()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn drop_fault_swallows_everything_at_p1() {
        let mut c = crowd(200, 32);
        c.set_faults(CrowdFaults { drop_probability: 1.0, ..Default::default() });
        c.dispatch_requests(AttributeId(0), &c.region(), 150, 0.0);
        c.step(5.0);
        assert!(c.drain_responses().is_empty());
        assert!(c.responses_dropped() > 100, "dropped {}", c.responses_dropped());
        assert_eq!(c.responses_delivered(), 0);
    }

    #[test]
    fn delay_fault_defers_but_never_loses() {
        let baseline = {
            let mut c = crowd(200, 33);
            c.dispatch_requests(AttributeId(0), &c.region(), 150, 0.0);
            c.step(0.5);
            c.drain_responses().len()
        };
        let mut c = crowd(200, 33);
        c.set_faults(CrowdFaults {
            delay_probability: 0.8,
            delay_minutes: 1.0,
            ..Default::default()
        });
        c.dispatch_requests(AttributeId(0), &c.region(), 150, 0.0);
        c.step(0.5);
        let early = c.drain_responses();
        assert!(early.len() < baseline / 2, "early {} vs baseline {baseline}", early.len());
        assert!(c.responses_delayed() > 0);
        // Delays are finite deferrals: everything eventually arrives. The
        // deferral count per response is geometric (p = 0.8 re-drawn at
        // each re-maturation), so give the tail generous room.
        for _ in 0..150 {
            c.step(1.0);
        }
        let late = c.drain_responses();
        assert_eq!(early.len() + late.len(), baseline, "delay must not lose responses");
        // Delayed answers carry their (later) answer-time measurements.
        assert!(late.iter().all(|r| r.measurement.point.t > 0.5));
    }

    #[test]
    fn duplicate_fault_doubles_delivery_at_p1() {
        let mut c = crowd(200, 34);
        c.set_faults(CrowdFaults { duplicate_probability: 1.0, ..Default::default() });
        c.dispatch_requests(AttributeId(0), &c.region(), 100, 0.0);
        c.step(2.0);
        let responses = c.drain_responses();
        assert!(!responses.is_empty());
        assert_eq!(responses.len() as u64, c.responses_delivered());
        assert_eq!(c.responses_duplicated() * 2, c.responses_delivered());
        // Every response appears exactly twice, adjacent under the order.
        for pair in responses.chunks(2) {
            assert_eq!(pair[0], pair[1]);
        }
    }

    const ALL_FAULTS: CrowdFaults = CrowdFaults {
        drop_probability: 0.3,
        delay_probability: 0.3,
        delay_minutes: 1.5,
        duplicate_probability: 0.3,
    };

    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

    /// Folds one drained response — who, when, where, issued when — into
    /// an FNV-1a hash of the drained sequence.
    fn fingerprint(h: u64, r: &SensorResponse) -> u64 {
        let p = r.measurement.point;
        [r.sensor.0, p.t.to_bits(), p.x.to_bits(), p.y.to_bits(), r.issued_at.to_bits()]
            .iter()
            .fold(h, |h, w| (h ^ w).wrapping_mul(0x0000_0100_0000_01b3))
    }

    #[test]
    fn faults_are_deterministic_per_seed() {
        let run = || {
            let mut c = crowd(300, 35);
            c.set_faults(ALL_FAULTS);
            c.dispatch_requests(AttributeId(0), &c.region(), 200, 0.0);
            for _ in 0..10 {
                c.step(1.0);
            }
            (c.drain_responses(), c.responses_dropped(), c.responses_duplicated())
        };
        assert_eq!(run(), run());
        // The counts are pinned at the commit before the heap entry carried
        // its payload: fault draws happen in pop order, so the same counts
        // mean the heap still compares `(Reverse(due), seq)`. The hash
        // covers where each response was measured, so it moved once, when a
        // walk step began drawing both axes from one Box–Muller pair; the
        // fault and participation streams, and so the counts, did not.
        let (drained, dropped, duplicated) = run();
        assert_eq!((drained.len(), dropped, duplicated), (130, 75, 16));
        assert_eq!(drained.iter().fold(FNV_OFFSET, fingerprint), 0x9549_46f9_b5f0_1680);
    }

    #[test]
    fn pending_heap_holds_only_in_flight_responses() {
        let mut c = crowd(300, 35);
        c.set_faults(ALL_FAULTS);
        let (mut drained, mut hash) = (0usize, FNV_OFFSET);
        for _ in 0..64 {
            c.dispatch_requests(AttributeId(0), &c.region(), 40, 0.0);
            c.step(1.0);
            for r in c.drain_responses() {
                drained += 1;
                hash = fingerprint(hash, &r);
            }
        }
        // 2 434 requests were accepted; what is left is what is still due.
        assert_eq!(c.accepted, 2434);
        assert_eq!(c.pending.len(), 11);
        assert!(c.pending.iter().all(|p| p.due > c.now()));
        // The same 64 rounds at the commit before (side table, growing).
        // The hash moved once since, with the positions, when a walk step
        // began drawing both axes from one Box–Muller pair; the counts come
        // from the fault and participation streams and did not.
        let faults = (c.responses_dropped(), c.responses_delayed(), c.responses_duplicated());
        assert_eq!((drained, faults), (1916, (933, 591, 426)));
        assert_eq!(hash, 0x15e4_c646_a7a7_3cc4);
    }

    #[test]
    #[should_panic(expected = "delay_minutes must be finite and > 0")]
    fn zero_delay_with_active_probability_is_rejected() {
        let mut c = crowd(5, 36);
        c.set_faults(CrowdFaults { delay_probability: 0.5, ..Default::default() });
    }

    #[test]
    #[should_panic(expected = "drop_probability must be in [0,1]")]
    fn out_of_range_probability_is_rejected() {
        let mut c = crowd(5, 37);
        c.set_faults(CrowdFaults { drop_probability: 1.5, ..Default::default() });
    }

    #[test]
    fn churn_replaces_sensors() {
        let mut c = crowd(100, 8);
        let before: Vec<_> = c.sensors().iter().map(|s| s.position()).collect();
        c.churn(1.0);
        let after: Vec<_> = c.sensors().iter().map(|s| s.position()).collect();
        let moved = before.iter().zip(&after).filter(|(a, b)| a != b).count();
        assert!(moved > 90, "churn(1.0) must replace nearly all, moved {moved}");
    }

    #[test]
    fn churned_sensors_keep_the_population_mobility() {
        let mut c = Crowd::new(CrowdConfig {
            region: Rect::with_size(10.0, 10.0),
            population: PopulationConfig {
                size: 50,
                placement: Placement::Uniform,
                mobility: Mobility::Stationary,
                human_fraction: 0.0,
            },
            seed: 9,
        });
        c.churn(1.0);
        let churned: Vec<_> = c.sensors().iter().map(|s| s.position()).collect();
        for _ in 0..5 {
            c.step(1.0);
        }
        let after: Vec<_> = c.sensors().iter().map(|s| s.position()).collect();
        assert_eq!(churned, after, "a churned-in sensor of a stationary crowd must not move");
    }

    fn crowd_of(mobility: Mobility, size: usize, seed: u64) -> Crowd {
        let mut c = Crowd::new(CrowdConfig {
            region: Rect::with_size(8.0, 8.0),
            population: PopulationConfig {
                size,
                placement: Placement::Uniform,
                mobility,
                human_fraction: 0.5,
            },
            seed,
        });
        c.register_field(AttributeId(0), Box::new(ConstantField(AttrValue::Float(1.0))));
        c
    }

    #[test]
    #[should_panic(expected = "dt must be finite and > 0, got inf")]
    fn a_walk_rejects_an_infinite_step() {
        crowd_of(Mobility::RandomWalk { sigma: 0.1 }, 10, 51).step(f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "dt must be finite and > 0, got inf")]
    fn a_station_rejects_an_infinite_step() {
        let mut c = crowd_of(Mobility::Stationary, 10, 52);
        c.dispatch_requests(AttributeId(0), &c.region(), 10, 0.0);
        c.step(f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "dt must be finite and > 0, got inf")]
    fn a_waypoint_rejects_an_infinite_step() {
        crowd_of(Mobility::random_waypoint(0.08, 5.0), 10, 53).step(f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "dt must be finite and > 0, got inf")]
    fn a_gauss_markov_crowd_rejects_an_infinite_step() {
        crowd_of(Mobility::gauss_markov(0.8, 0.12, 0.03), 10, 54).advance(f64::INFINITY, 4);
    }

    /// Everything a run of the crowd leaves behind, bit for bit.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        positions: Vec<(u64, u64)>,
        rngs: [StdRng; 3],
        now: u64,
        counters: [u64; 6],
        pending: usize,
        drained: Vec<SensorResponse>,
    }

    /// Three epochs of a faulty crowd, each one `advance` of four
    /// sub-steps of half a minute, with churn and a migration between
    /// them. A response the delay fault defers by 0.6 min re-matures one
    /// or two sub-steps later, inside the epoch. From the second epoch on
    /// every sensor answers at once, so responses fall due at the very
    /// instant the epoch starts.
    fn epochs(mobility: &Mobility, size: usize, advance: &dyn Fn(&mut Crowd)) -> Outcome {
        let mut c = crowd_of(mobility.clone(), size, 55);
        c.set_faults(CrowdFaults {
            drop_probability: 0.2,
            delay_probability: 0.3,
            delay_minutes: 0.6,
            duplicate_probability: 0.2,
        });
        let grid = craqr_geom::Grid::new(c.region(), 4);
        let mut drained = Vec::new();
        for epoch in 0..3 {
            match epoch {
                1 => {
                    c.churn(0.1);
                    c.set_all_response_models(ResponseModel::new(0.9, 0.0, 0.0));
                }
                2 => c.migrate(0.2, &Rect::new(1.0, 1.0, 3.0, 3.0)),
                _ => {}
            }
            for cell in grid.all_cells() {
                c.dispatch_requests(AttributeId(0), &grid.cell_rect(cell), 40, 1.0);
            }
            advance(&mut c);
            drained.extend(c.drain_responses());
        }
        Outcome {
            positions: c
                .sensors
                .iter()
                .map(|s| s.position())
                .map(|(x, y)| (x.to_bits(), y.to_bits()))
                .collect(),
            rngs: [c.mobility_rng.clone(), c.participation_rng.clone(), c.fault_rng.clone()],
            now: c.now.to_bits(),
            counters: [
                c.requests_sent,
                c.accepted,
                c.responses_delivered,
                c.responses_dropped,
                c.responses_delayed,
                c.responses_duplicated,
            ],
            pending: c.pending.len(),
            drained,
        }
    }

    /// A field that may be read only on the thread that made it.
    struct HomeField(std::thread::ThreadId);

    impl Field for HomeField {
        fn value_at(&self, _: &SpaceTimePoint) -> AttrValue {
            if std::thread::current().id() != self.0 {
                panic!("a field read off its home thread");
            }
            AttrValue::Float(1.0)
        }
    }

    #[test]
    fn a_crowd_worker_panic_keeps_its_message() {
        let mut c = crowd_of(Mobility::Stationary, 64, 56);
        c.register_field(AttributeId(0), Box::new(HomeField(std::thread::current().id())));
        c.set_all_response_models(ResponseModel::new(1.0, 0.0, 0.0));
        assert_eq!(c.dispatch_requests(AttributeId(0), &c.region(), 64, 1.0), 64);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.advance_at(0.5, 4, 2);
        }));
        let payload = caught.expect_err("the second range's worker reads the field");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"a field read off its home thread"));
    }

    #[test]
    fn advance_is_bit_identical_at_every_width() {
        let models = [
            Mobility::RandomWalk { sigma: 0.1 },
            Mobility::gauss_markov(0.8, 0.12, 0.03),
            Mobility::Stationary,
            Mobility::RandomWalk { sigma: 0.0 },
            Mobility::random_waypoint(0.08, 0.5),
        ];
        for mobility in &models {
            for size in [8_191, 20_003] {
                let one = epochs(mobility, size, &|c| c.advance_at(0.5, 4, 1));
                assert!(
                    one.drained.len() > 500,
                    "{mobility:?}: only {} drained",
                    one.drained.len()
                );
                assert!(one.counters[4] > 50, "{mobility:?}: only {} delays", one.counters[4]);
                for width in [2, 3, 7] {
                    let wide = epochs(mobility, size, &|c| c.advance_at(0.5, 4, width));
                    assert!(wide == one, "{mobility:?}, {size} sensors: width {width} diverged");
                }
                let host = epochs(mobility, size, &|c| c.advance(0.5, 4));
                assert!(host == one, "{mobility:?}, {size} sensors: the host's width diverged");
                let stepped = epochs(mobility, size, &|c| (0..4).for_each(|_| c.step(0.5)));
                assert!(stepped == one, "{mobility:?}, {size} sensors: four steps diverged");
            }
        }
    }

    #[test]
    fn zero_substeps_change_nothing_at_any_width() {
        for mobility in [Mobility::RandomWalk { sigma: 0.1 }, Mobility::random_waypoint(0.08, 0.5)]
        {
            let plain = epochs(&mobility, 256, &|c| c.advance_at(0.5, 4, 2));
            assert!(!plain.drained.is_empty(), "{mobility:?}: nothing drained");
            for width in [1, 4] {
                let padded = epochs(&mobility, 256, &|c| {
                    c.advance_at(0.5, 0, width);
                    c.advance_at(0.5, 4, 2);
                    c.advance_at(0.5, 0, width);
                });
                assert!(padded == plain, "{mobility:?}: zero sub-steps at width {width} moved");
            }
        }
    }

    #[test]
    fn an_empty_crowd_only_moves_the_clock() {
        let mut c = crowd_of(Mobility::RandomWalk { sigma: 0.1 }, 0, 57);
        let stream = c.mobility_rng.clone();
        c.advance_at(0.5, 4, 3);
        assert_eq!(c.now.to_bits(), (0.5f64 + 0.5 + 0.5 + 0.5).to_bits());
        assert_eq!(c.mobility_rng, stream, "an empty crowd drew mobility words");
    }

    /// Rectangles that probe the index from every side: handler-style grid
    /// cells (sides 1/4/16/48: corners plus the drawn ones), rectangles
    /// with every edge exactly on a bucket boundary, the whole region,
    /// zero-area, partly outside, wholly outside, and all-covering.
    fn probe_rects(c: &mut Crowd, picks: &[(u32, u32)]) -> Vec<Rect> {
        let region = c.region();
        let (w, h) = (region.width(), region.height());
        let mut rects = vec![
            region,
            Rect { x0: region.x0 + w / 2.0, x1: region.x0 + w / 2.0, ..region },
            Rect::new(region.x0 - w / 2.0, region.y0 - h / 2.0, region.x0 + w / 3.0, region.y1),
            Rect::new(region.x1 + 0.05 * w, region.y1 + 0.05 * h, region.x1 + w, region.y1 + h),
            Rect::new(region.x0 - 2.0 * w, region.y0 - 2.0 * h, region.x0 - w, region.y0 - h),
            Rect::new(-1e12, -1e12, 1e12, 1e12),
        ];
        for side in [1u32, 4, 16, 48] {
            let grid = craqr_geom::Grid::new(region, side);
            let corners = [(0, 0), (side - 1, side - 1), (0, side - 1)];
            for &(q, r) in corners.iter().chain(picks) {
                rects.push(grid.cell_rect(craqr_geom::CellId::new(q % side, r % side)));
            }
        }
        c.find_candidates(&region); // builds the index, fixing its side
        let buckets = c.index.side as u32;
        let edge = |lo: f64, extent: f64, k: u32| lo + extent * f64::from(k) / f64::from(buckets);
        for &(q, r) in picks {
            let (k0, k1) = (q % buckets, r % buckets);
            let (k0, k1) = (k0.min(k1), k0.max(k1) + 1);
            rects.push(Rect::new(
                edge(region.x0, w, k0),
                edge(region.y0, h, k0),
                edge(region.x0, w, k1),
                edge(region.y0, h, k1),
            ));
        }
        rects
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        #[test]
        fn index_candidates_equal_the_scan(
            size in prop_oneof![Just(0usize), Just(1), Just(3), Just(500), Just(5000)],
            hotspots in any::<bool>(),
            origin in (-5.0f64..5.0, -5.0f64..5.0),
            extent in (2.0f64..40.0, 2.0f64..40.0),
            picks in prop::collection::vec((0u32..48, 0u32..48), 3..6),
            seed in any::<u64>(),
        ) {
            let region =
                Rect::new(origin.0, origin.1, origin.0 + extent.0, origin.1 + extent.1);
            let (cx, cy) = region.center();
            let placement = if hotspots {
                Placement::hotspots(vec![(cx, cy, 3.0, extent.0 / 10.0)], 0.5).unwrap()
            } else {
                Placement::Uniform
            };
            let mut c = Crowd::new(CrowdConfig {
                region,
                population: PopulationConfig {
                    size,
                    placement,
                    mobility: Mobility::RandomWalk { sigma: 0.3 },
                    human_fraction: 0.0,
                },
                seed,
            });
            // A migration target reaching past the region parks sensors
            // outside it, where only the clamp keeps them indexed.
            let beyond = Rect::new(cx, cy, region.x1 + extent.0 / 2.0, region.y1 + extent.1 / 2.0);
            let moves: [&dyn Fn(&mut Crowd); 4] = [
                &|_| {},
                &|c| c.step(1.0),
                &|c| c.migrate(0.4, &beyond),
                &|c| c.churn(0.3),
            ];
            for (stage, mutate) in moves.iter().enumerate() {
                mutate(&mut c);
                prop_assert!(stage == 0 || !c.index.valid, "move {stage} kept a stale index");
                for rect in probe_rects(&mut c, &picks) {
                    c.find_candidates(&rect);
                    prop_assert!(
                        c.candidates == c.sensors_in(&rect),
                        "after move {stage}, {rect}: index {:?}, scan {:?}",
                        c.candidates,
                        c.sensors_in(&rect)
                    );
                }
            }
        }
    }
}
