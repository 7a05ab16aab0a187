//! Sensor mobility models.
//!
//! "In crowdsensing, sensors are mobile and not stationary … the number of
//! mobile sensors in a particular region and time is unpredictable and is
//! spatio-temporally skewed" (Section I). The four classic models below
//! cover the spectrum used in the mobile-sensing literature, from fixed
//! stations to smooth vehicular motion. All models keep sensors inside the
//! region by reflecting at the boundary.

use craqr_geom::Rect;
use craqr_stats::dist::Normal;
use craqr_stats::Interval;
use rand::Rng;

/// Per-sensor mobility state machine. Units: km, minutes.
#[derive(Debug, Clone, PartialEq)]
pub enum Mobility {
    /// A fixed installation (e.g. a wall-mounted station participating in
    /// the crowd); the degenerate case matching classic WSN assumptions.
    Stationary,
    /// Isotropic Gaussian random walk: each step perturbs the position by
    /// `N(0, (sigma·√dt)²)` per axis.
    RandomWalk {
        /// Per-√minute standard deviation of the step (km).
        sigma: f64,
    },
    /// Random waypoint: pick a uniform target in the region, travel towards
    /// it at `speed`, pause `pause` minutes, repeat. The classic
    /// human-with-a-smartphone model.
    RandomWaypoint {
        /// Travel speed (km/min).
        speed: f64,
        /// Pause duration at each waypoint (minutes).
        pause: f64,
        /// Current target, if travelling.
        target: Option<(f64, f64)>,
        /// Remaining pause time (minutes).
        pause_left: f64,
    },
    /// Gauss–Markov: velocity is an AR(1) process with memory `alpha`,
    /// producing smooth vehicle-like trajectories.
    GaussMarkov {
        /// Memory parameter in `[0, 1)` (0 = white noise, →1 = straight line).
        alpha: f64,
        /// Mean speed (km/min).
        mean_speed: f64,
        /// Velocity noise standard deviation (km/min).
        sigma: f64,
        /// Current velocity (km/min).
        velocity: (f64, f64),
    },
}

impl Mobility {
    /// Range of the [`Mobility::RandomWalk`] step σ.
    pub const WALK_SIGMA: Interval = Interval::NonNeg;
    /// Range of the [`Mobility::RandomWaypoint`] speed.
    pub const WAYPOINT_SPEED: Interval = Interval::Positive;
    /// Range of the [`Mobility::RandomWaypoint`] pause.
    pub const WAYPOINT_PAUSE: Interval = Interval::NonNeg;
    /// Range of the [`Mobility::GaussMarkov`] memory α.
    pub const GM_ALPHA: Interval = Interval::HalfUnit;
    /// Range of the [`Mobility::GaussMarkov`] mean speed.
    pub const GM_MEAN_SPEED: Interval = Interval::NonNeg;
    /// Range of the [`Mobility::GaussMarkov`] velocity noise σ.
    pub const GM_SIGMA: Interval = Interval::NonNeg;

    /// Creates a random-waypoint model.
    ///
    /// # Panics
    /// Panics when `speed` or `pause` is outside its declared range.
    #[track_caller]
    pub fn random_waypoint(speed: f64, pause: f64) -> Self {
        Self::WAYPOINT_SPEED.assert("speed", speed);
        Self::WAYPOINT_PAUSE.assert("pause", pause);
        Mobility::RandomWaypoint { speed, pause, target: None, pause_left: 0.0 }
    }

    /// Creates a Gauss–Markov model.
    ///
    /// # Panics
    /// Panics when a knob is outside its declared range.
    #[track_caller]
    pub fn gauss_markov(alpha: f64, mean_speed: f64, sigma: f64) -> Self {
        Self::GM_ALPHA.assert("alpha", alpha);
        Self::GM_MEAN_SPEED.assert("mean_speed", mean_speed);
        Self::GM_SIGMA.assert("sigma", sigma);
        Mobility::GaussMarkov { alpha, mean_speed, sigma, velocity: (0.0, 0.0) }
    }

    /// The RNG words one [`Mobility::step`] of `dt` minutes draws, when
    /// that number is fixed: a random walk and Gauss–Markov draw one
    /// Box–Muller pair (two words) for both axes, or nothing when their
    /// noise is zero; a station draws nothing. `None` for the random
    /// waypoint, which draws a new target only when it arrives.
    ///
    /// [`crate::Crowd::advance`] splits its sensors over workers only when
    /// this is `Some`: then each worker can skip exactly the words the
    /// sensors outside its range draw.
    pub fn draws_per_step(&self, dt: f64) -> Option<usize> {
        let normals = |noise: Normal| if noise.sd() == 0.0 { 0 } else { PAIR_DRAWS };
        match self {
            Mobility::Stationary => Some(0),
            Mobility::RandomWalk { sigma } => Some(normals(walk_noise(*sigma, dt))),
            Mobility::RandomWaypoint { .. } => None,
            Mobility::GaussMarkov { alpha, sigma, .. } => {
                Some(normals(gauss_markov_noise(*alpha, *sigma)))
            }
        }
    }

    /// Advances a position by `dt` minutes, returning the new position
    /// (reflected into `region`).
    ///
    /// # Panics
    /// Panics unless `dt` is finite and `> 0`.
    #[track_caller]
    pub fn step<R: Rng + ?Sized>(
        &mut self,
        pos: (f64, f64),
        dt: f64,
        region: &Rect,
        rng: &mut R,
    ) -> (f64, f64) {
        assert!(dt.is_finite() && dt > 0.0, "dt must be finite and > 0, got {dt}");
        let raw = match self {
            Mobility::Stationary => pos,
            Mobility::RandomWalk { sigma } => {
                let (dx, dy) = walk_noise(*sigma, dt).sample_pair(rng);
                (pos.0 + dx, pos.1 + dy)
            }
            Mobility::RandomWaypoint { speed, pause, target, pause_left } => {
                let mut remaining = dt;
                let mut p = pos;
                while remaining > 1e-12 {
                    if *pause_left > 0.0 {
                        let wait = pause_left.min(remaining);
                        *pause_left -= wait;
                        remaining -= wait;
                        continue;
                    }
                    let tgt = *target.get_or_insert_with(|| {
                        (rng.gen_range(region.x0..region.x1), rng.gen_range(region.y0..region.y1))
                    });
                    let dx = tgt.0 - p.0;
                    let dy = tgt.1 - p.1;
                    let dist = (dx * dx + dy * dy).sqrt();
                    let reach = *speed * remaining;
                    if reach >= dist {
                        // Arrive, start pausing, pick a new target next leg.
                        p = tgt;
                        remaining -= if *speed > 0.0 { dist / *speed } else { remaining };
                        *target = None;
                        *pause_left = *pause;
                    } else {
                        p = (p.0 + dx / dist * reach, p.1 + dy / dist * reach);
                        remaining = 0.0;
                    }
                }
                p
            }
            Mobility::GaussMarkov { alpha, mean_speed, sigma, velocity } => {
                let (nx, ny) = gauss_markov_noise(*alpha, *sigma).sample_pair(rng);
                // Mean velocity direction drifts isotropically around the
                // current heading; classic formulation uses a mean speed on
                // each axis of mean_speed/√2.
                let mean_axis = *mean_speed / std::f64::consts::SQRT_2;
                let sign = |v: f64| if v >= 0.0 { 1.0 } else { -1.0 };
                velocity.0 =
                    *alpha * velocity.0 + (1.0 - *alpha) * mean_axis * sign(velocity.0) + nx;
                velocity.1 =
                    *alpha * velocity.1 + (1.0 - *alpha) * mean_axis * sign(velocity.1) + ny;
                (pos.0 + velocity.0 * dt, pos.1 + velocity.1 * dt)
            }
        };
        reflect(raw, region)
    }
}

/// RNG words one [`Normal::sample_pair`] with a non-zero deviation draws:
/// a step's x and y come from one Box–Muller draw.
const PAIR_DRAWS: usize = 2;

/// The per-axis step of a random walk over `dt` minutes.
fn walk_noise(sigma: f64, dt: f64) -> Normal {
    Normal::new(0.0, sigma * dt.sqrt())
}

/// The per-axis velocity noise of a Gauss–Markov model.
fn gauss_markov_noise(alpha: f64, sigma: f64) -> Normal {
    Normal::new(0.0, sigma * (1.0 - alpha * alpha).sqrt())
}

/// Reflects a position into the region (billiard reflection, repeated until
/// inside; a single reflection suffices for realistic steps but large
/// Gauss–Markov excursions can need more).
fn reflect(mut p: (f64, f64), region: &Rect) -> (f64, f64) {
    let w = region.width();
    let h = region.height();
    for _ in 0..64 {
        let mut moved = false;
        if p.0 < region.x0 {
            p.0 = region.x0 + (region.x0 - p.0).min(w);
            moved = true;
        } else if p.0 >= region.x1 {
            p.0 = region.x1 - (p.0 - region.x1).min(w) - f64::EPSILON * region.x1.abs().max(1.0);
            moved = true;
        }
        if p.1 < region.y0 {
            p.1 = region.y0 + (region.y0 - p.1).min(h);
            moved = true;
        } else if p.1 >= region.y1 {
            p.1 = region.y1 - (p.1 - region.y1).min(h) - f64::EPSILON * region.y1.abs().max(1.0);
            moved = true;
        }
        if !moved {
            break;
        }
    }
    // Clamp as a last resort (pathological steps many times the region size).
    p.0 = p.0.clamp(region.x0, region.x1 - f64::EPSILON * region.x1.abs().max(1.0));
    p.1 = p.1.clamp(region.y0, region.y1 - f64::EPSILON * region.y1.abs().max(1.0));
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use craqr_stats::seeded_rng;

    fn region() -> Rect {
        Rect::with_size(10.0, 10.0)
    }

    #[test]
    fn stationary_never_moves() {
        let mut m = Mobility::Stationary;
        let mut rng = seeded_rng(1);
        let p = m.step((3.0, 4.0), 5.0, &region(), &mut rng);
        assert_eq!(p, (3.0, 4.0));
    }

    #[test]
    fn random_walk_stays_in_region() {
        let mut m = Mobility::RandomWalk { sigma: 2.0 };
        let mut rng = seeded_rng(2);
        let mut p = (5.0, 5.0);
        for _ in 0..2_000 {
            p = m.step(p, 1.0, &region(), &mut rng);
            assert!(region().contains(p.0, p.1), "escaped to {p:?}");
        }
    }

    #[test]
    fn random_walk_actually_moves() {
        let mut m = Mobility::RandomWalk { sigma: 0.5 };
        let mut rng = seeded_rng(3);
        let p0 = (5.0, 5.0);
        let p1 = m.step(p0, 1.0, &region(), &mut rng);
        assert_ne!(p0, p1);
    }

    #[test]
    fn waypoint_reaches_target_and_pauses() {
        let mut m = Mobility::random_waypoint(1.0, 2.0);
        let mut rng = seeded_rng(4);
        let mut p = (5.0, 5.0);
        // Advance far enough to complete several legs.
        for _ in 0..200 {
            p = m.step(p, 1.0, &region(), &mut rng);
            assert!(region().contains(p.0, p.1));
        }
        // The model must have consumed at least one waypoint by now.
        if let Mobility::RandomWaypoint { target, .. } = &m {
            // Either travelling to a target or pausing — both are valid; the
            // real assertion is that stepping never panicked and stayed inside.
            let _ = target;
        } else {
            unreachable!()
        }
    }

    #[test]
    fn waypoint_speed_bounds_displacement() {
        let speed = 0.5;
        let mut m = Mobility::random_waypoint(speed, 0.0);
        let mut rng = seeded_rng(5);
        let mut p = (5.0, 5.0);
        for _ in 0..500 {
            let q = m.step(p, 1.0, &region(), &mut rng);
            let d = ((q.0 - p.0).powi(2) + (q.1 - p.1).powi(2)).sqrt();
            // One minute at speed 0.5 km/min moves at most 0.5 km… plus the
            // possibility of consecutive legs bending the path (distance can
            // only shrink relative to straight-line travel).
            assert!(d <= speed + 1e-9, "moved {d}");
            p = q;
        }
    }

    #[test]
    fn gauss_markov_is_smooth_and_bounded() {
        let mut m = Mobility::gauss_markov(0.85, 0.6, 0.1);
        let mut rng = seeded_rng(6);
        let mut p = (5.0, 5.0);
        let mut total = 0.0;
        for _ in 0..1_000 {
            let q = m.step(p, 1.0, &region(), &mut rng);
            assert!(region().contains(q.0, q.1));
            total += ((q.0 - p.0).powi(2) + (q.1 - p.1).powi(2)).sqrt();
            p = q;
        }
        assert!(total > 10.0, "vehicle should cover ground, moved {total}");
    }

    #[test]
    fn reflect_handles_far_excursions() {
        let r = region();
        let p = reflect((25.0, -13.0), &r);
        assert!(r.contains(p.0, p.1), "{p:?}");
        let p = reflect((-100.0, 100.0), &r);
        assert!(r.contains(p.0, p.1), "{p:?}");
    }

    #[test]
    #[should_panic(expected = "speed must be > 0")]
    fn waypoint_rejects_zero_speed() {
        let _ = Mobility::random_waypoint(0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "dt must be finite and > 0, got inf")]
    fn waypoint_rejects_an_infinite_step() {
        // Without the check the leg loop never ends: `remaining` stays ∞.
        let mut m = Mobility::random_waypoint(1.0, 2.0);
        let _ = m.step((5.0, 5.0), f64::INFINITY, &region(), &mut seeded_rng(7));
    }

    /// An RNG that counts the words it hands out.
    struct Counting<R> {
        inner: R,
        words: usize,
    }

    impl<R: rand::RngCore> rand::RngCore for Counting<R> {
        fn next_u64(&mut self) -> u64 {
            self.words += 1;
            self.inner.next_u64()
        }
    }

    /// The words each of `steps` steps of `dt` minutes draws.
    fn words_per_step(mut m: Mobility, dt: f64, steps: usize) -> Vec<usize> {
        let mut rng = Counting { inner: seeded_rng(8), words: 0 };
        let mut p = (5.0, 5.0);
        (0..steps)
            .map(|_| {
                let before = rng.words;
                p = m.step(p, dt, &region(), &mut rng);
                rng.words - before
            })
            .collect()
    }

    #[test]
    fn draws_per_step_is_what_a_step_draws() {
        let models = [
            Mobility::Stationary,
            Mobility::RandomWalk { sigma: 0.3 },
            Mobility::RandomWalk { sigma: 0.0 },
            Mobility::gauss_markov(0.8, 0.12, 0.03),
            Mobility::gauss_markov(0.8, 0.12, 0.0),
            Mobility::gauss_markov(0.0, 0.0, 0.5),
        ];
        // One Box–Muller pair a step (two words) covers both axes; before
        // the pair, each axis drew its own normal and a step took four.
        let expected = [0, 2, 0, 2, 0, 2];
        for (m, want) in models.into_iter().zip(expected) {
            for dt in [0.25, 1.0, 7.5] {
                assert_eq!(m.draws_per_step(dt), Some(want), "{m:?} at dt {dt}");
                let words = words_per_step(m.clone(), dt, 50);
                assert!(words.iter().all(|&w| w == want), "{m:?} at dt {dt} drew {words:?}");
            }
        }
    }

    #[test]
    fn a_waypoint_draws_only_when_it_picks_a_target() {
        let m = Mobility::random_waypoint(0.5, 1.0);
        assert_eq!(m.draws_per_step(1.0), None);
        let words = words_per_step(m, 1.0, 200);
        assert!(words.contains(&0) && words.contains(&2), "waypoint drew {words:?}");
    }
}
