//! Open-loop multi-tenant load generation: seeded zipfian tenant
//! popularity over ~10⁶ tenant ids, diurnal and burst rate schedules in
//! simulated time, and per-tenant QoS classes mapped onto the 8 fabric
//! traffic classes.
//!
//! The closed-loop driver (`RunConfig::outstanding`) measures the
//! middle tier at its own pace; a production middle tier instead faces an
//! *open-loop* tenant population whose offered load does not slow down
//! when the server queues. This generator is a pure function of its seed:
//! every draw comes from one private [`simkit::Rng`] stream, never from
//! wall clock, thread count, or engine interleaving — so the golden and
//! thread-invariance gates extend to rack-scale runs unchanged.

use hwmodel::consts::BLOCK_SIZE;
use simkit::{Rng, Time};

/// Number of fabric traffic classes (fixed by the fluid scheduler).
pub const CLASSES: usize = 8;

/// One generated request arrival.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Arrival {
    /// Absolute simulated arrival time.
    pub at: Time,
    /// Tenant id == popularity rank (0 is the hottest tenant).
    pub tenant: u64,
    /// QoS / fabric traffic class derived from the tenant's rank.
    pub class: u8,
}

/// Shape of the offered load: tenant population, skew, rate schedule,
/// and the rank → class mapping.
#[derive(Clone, Debug)]
pub struct LoadSpec {
    /// Tenant population size (ids are popularity ranks `0..tenants`).
    pub tenants: u64,
    /// Zipf exponent of tenant popularity (0 = uniform, < 1).
    pub theta: f64,
    /// Baseline offered load, Gbps of write payload.
    pub base_gbps: f64,
    /// Diurnal modulation amplitude in `[0, 1)`: the rate swings between
    /// `base × (1 − amp)` and `base × (1 + amp)`.
    pub diurnal_amp: f64,
    /// Period of the diurnal sine (simulated time, compressed from a day
    /// to a run-sized window).
    pub diurnal_period: Time,
    /// Number of burst windows drawn uniformly over the horizon.
    pub bursts: u32,
    /// Rate multiplier inside a burst window (≥ 1).
    pub burst_mult: f64,
    /// Length of each burst window.
    pub burst_len: Time,
    /// Horizon bursts are drawn over (typically warm-up + measurement).
    pub horizon: Time,
    /// Fraction of the tenant population assigned to each class, hottest
    /// ranks first: `class_share[0]` is the premium sliver, the tail
    /// lands in best-effort classes. Must sum to ~1.
    pub class_share: [f64; CLASSES],
}

impl LoadSpec {
    /// A rack-scale default: a million tenants at YCSB-like skew, ±30 %
    /// diurnal swing, and three 3× bursts over the horizon. The hottest
    /// 0.1 % of tenants ride the premium class; half the population is
    /// best-effort.
    pub fn rack_default(base_gbps: f64, horizon: Time) -> Self {
        let s = LoadSpec {
            tenants: 1_000_000,
            theta: 0.99,
            base_gbps,
            diurnal_amp: 0.3,
            diurnal_period: Time::from_ms(20.0),
            bursts: 3,
            burst_mult: 3.0,
            burst_len: Time::from_ms(1.0),
            horizon,
            class_share: [0.001, 0.004, 0.015, 0.03, 0.05, 0.1, 0.3, 0.5],
        };
        s.validate();
        s
    }

    /// Plain Poisson arrivals at `gbps` of write payload: one tenant in
    /// class 0, no diurnal swing, no bursts. The generator's gaps are then
    /// exponential with the constant mean `BLOCK_SIZE / rate` — the
    /// open-loop driver of the latency–throughput curves.
    pub fn poisson(gbps: f64, horizon: Time) -> Self {
        let mut class_share = [0.0; CLASSES];
        class_share[0] = 1.0;
        let s = LoadSpec {
            tenants: 1,
            theta: 0.0,
            base_gbps: gbps,
            diurnal_amp: 0.0,
            // Unused at zero amplitude; `validate` wants it positive.
            diurnal_period: horizon,
            bursts: 0,
            burst_mult: 1.0,
            burst_len: Time::ZERO,
            horizon,
            class_share,
        };
        s.validate();
        s
    }

    /// Checks the spec invariants.
    ///
    /// # Panics
    ///
    /// Panics on an empty population, a Zipf exponent outside `[0, 1)`,
    /// non-positive load, an amplitude outside `[0, 1)`, a zero diurnal
    /// period or horizon, a burst multiplier below 1, or class shares
    /// that are negative or do not sum to ~1.
    pub fn validate(&self) {
        assert!(self.tenants > 0, "need at least one tenant");
        assert!(
            (0.0..1.0).contains(&self.theta) && self.theta.is_finite(),
            "zipf theta must be in [0, 1), got {}",
            self.theta
        );
        assert!(self.base_gbps > 0.0, "offered load must be positive");
        assert!(
            (0.0..1.0).contains(&self.diurnal_amp),
            "diurnal amplitude must be in [0, 1)"
        );
        assert!(self.diurnal_period > Time::ZERO, "diurnal period must be positive");
        assert!(self.horizon > Time::ZERO, "horizon must be positive");
        assert!(self.burst_mult >= 1.0, "burst multiplier below 1");
        let sum: f64 = self.class_share.iter().sum();
        assert!(
            self.class_share.iter().all(|&s| s >= 0.0) && (sum - 1.0).abs() < 1e-6,
            "class shares must be non-negative and sum to 1, got {sum}"
        );
    }
}

/// Zipf(θ) sampler over ranks `0..n` by rejection inversion (the YCSB
/// construction): O(n) setup once, O(1) per draw — which is what makes a
/// 10⁶-tenant population practical, where a CDF table per draw would not
/// be.
#[derive(Clone, Debug)]
pub struct Zipf {
    n: u64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    zeta2: f64,
}

impl Zipf {
    /// A sampler over `n` ranks with exponent `theta ∈ [0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics for `n = 0` or `theta` outside `[0, 1)`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "need at least one rank");
        assert!((0.0..1.0).contains(&theta), "theta must be in [0, 1)");
        let mut zetan = 0.0;
        for i in 1..=n {
            zetan += 1.0 / (i as f64).powf(theta);
        }
        let zeta2 = 1.0 + 0.5f64.powf(theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipf {
            n,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta,
            zeta2,
        }
    }

    /// Draws a rank in `0..n`; rank 0 is the most popular.
    fn draw(&self, rng: &mut Rng) -> u64 {
        let u = rng.gen_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if self.n > 1 && uz < self.zeta2 {
            return 1;
        }
        let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.n - 1)
    }
}

/// The open-loop generator: an infinite, strictly time-ordered arrival
/// stream that is a pure function of `(spec, seed)`.
#[derive(Debug)]
pub struct LoadGen {
    spec: LoadSpec,
    zipf: Zipf,
    rng: Rng,
    now: Time,
    /// Sorted, seed-drawn burst windows `(start, end)`.
    windows: Vec<(Time, Time)>,
    /// Exclusive rank upper bound per class (cumulative shares).
    bounds: [u64; CLASSES],
}

impl LoadGen {
    /// Builds the generator; the burst schedule is drawn immediately from
    /// a forked stream so arrival draws stay aligned regardless of burst
    /// count.
    pub fn new(spec: LoadSpec, seed: u64) -> Self {
        spec.validate();
        let mut rng = Rng::new(seed ^ 0x10AD_6E2A_7E4A_0515);
        let mut brng = rng.fork();
        let mut starts: Vec<Time> = (0..spec.bursts)
            .map(|_| Time::from_ps(brng.gen_range(spec.horizon.as_ps().max(1))))
            .collect();
        starts.sort_unstable();
        let windows = starts.iter().map(|&s| (s, s + spec.burst_len)).collect();
        let mut bounds = [0u64; CLASSES];
        let mut acc = 0.0;
        for (c, share) in spec.class_share.iter().enumerate() {
            acc += share;
            bounds[c] = ((spec.tenants as f64) * acc).round() as u64;
        }
        bounds[CLASSES - 1] = spec.tenants; // absorb rounding
        let zipf = Zipf::new(spec.tenants, spec.theta);
        LoadGen {
            spec,
            zipf,
            rng,
            now: Time::ZERO,
            windows,
            bounds,
        }
    }

    /// The burst windows drawn for this seed (sorted by start).
    pub fn burst_windows(&self) -> &[(Time, Time)] {
        &self.windows
    }

    /// Instantaneous offered load at `t`, bytes/s: baseline × diurnal
    /// sine × burst multiplier.
    fn rate_bps(&self, t: Time) -> f64 {
        let phase = 2.0 * std::f64::consts::PI * t.as_secs() / self.spec.diurnal_period.as_secs();
        let mut rate = simkit::gbps(self.spec.base_gbps) * (1.0 + self.spec.diurnal_amp * phase.sin());
        if self.windows.iter().any(|&(s, e)| t >= s && t < e) {
            rate *= self.spec.burst_mult;
        }
        rate.max(1.0)
    }

    /// QoS class of a tenant rank (hottest ranks → premium classes).
    fn class_of(&self, rank: u64) -> u8 {
        self.bounds.iter().position(|&b| rank < b).unwrap_or(CLASSES - 1) as u8
    }

    /// Draws the next arrival. Times are strictly increasing: gaps are
    /// exponential with mean `BLOCK_SIZE / rate(now)` and floored at 1 ps.
    pub fn next_arrival(&mut self) -> Arrival {
        let rate = self.rate_bps(self.now);
        let mean_us = BLOCK_SIZE as f64 / rate * 1e6;
        let gap_ps = ((self.rng.gen_exp(mean_us) * 1e6) as u64).max(1);
        self.now += Time::from_ps(gap_ps);
        let tenant = self.zipf.draw(&mut self.rng);
        Arrival {
            at: self.now,
            tenant,
            class: self.class_of(tenant),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use testkit::gen;

    fn small_spec() -> LoadSpec {
        LoadSpec {
            tenants: 4096,
            ..LoadSpec::rack_default(40.0, Time::from_ms(8.0))
        }
    }

    #[test]
    fn stream_is_pure_function_of_seed() {
        let mut a = LoadGen::new(small_spec(), 7);
        let mut b = LoadGen::new(small_spec(), 7);
        let mut c = LoadGen::new(small_spec(), 8);
        let mut diverged = false;
        for _ in 0..2000 {
            let (xa, xb, xc) = (a.next_arrival(), b.next_arrival(), c.next_arrival());
            assert_eq!(xa, xb);
            diverged |= xa != xc;
        }
        assert!(diverged, "different seeds produced identical streams");
    }

    #[test]
    fn arrivals_are_strictly_time_ordered() {
        let mut g = LoadGen::new(small_spec(), 3);
        let mut prev = Time::ZERO;
        for _ in 0..5000 {
            let a = g.next_arrival();
            assert!(a.at > prev, "{} !> {prev}", a.at);
            prev = a.at;
        }
    }

    #[test]
    fn burst_windows_raise_the_rate() {
        let g = LoadGen::new(small_spec(), 11);
        let (s, e) = g.burst_windows()[0];
        let mid = Time::from_ps((s.as_ps() + e.as_ps()) / 2);
        // Compare against the same instant's diurnal baseline by checking
        // the ratio to a rebuilt generator with no bursts.
        let mut no_burst = small_spec();
        no_burst.bursts = 0;
        let base = LoadGen::new(no_burst, 11);
        let ratio = g.rate_bps(mid) / base.rate_bps(mid);
        assert!((ratio - 3.0).abs() < 1e-9, "burst ratio {ratio}");
    }

    #[test]
    fn poisson_spec_is_one_tenant_at_a_constant_rate() {
        let mut g = LoadGen::new(LoadSpec::poisson(30.0, Time::from_ms(8.0)), 4);
        assert!(g.burst_windows().is_empty());
        let rate = simkit::gbps(30.0);
        for ms in [0.0, 1.3, 5.0, 7.9] {
            assert_eq!(g.rate_bps(Time::from_ms(ms)), rate);
        }
        const N: u32 = 20_000;
        let mut last = Time::ZERO;
        for _ in 0..N {
            let a = g.next_arrival();
            assert_eq!((a.tenant, a.class), (0, 0));
            last = a.at;
        }
        // Mean gap BLOCK_SIZE / rate ≈ 1.09 µs; 20k draws land within 3 %.
        let mean_us = last.as_us() / N as f64;
        let want = BLOCK_SIZE as f64 / rate * 1e6;
        assert!((mean_us / want - 1.0).abs() < 0.03, "mean gap {mean_us} vs {want}");
    }

    #[test]
    fn class_of_maps_hot_ranks_to_premium() {
        let g = LoadGen::new(small_spec(), 1);
        assert_eq!(g.class_of(0), 0);
        assert_eq!(g.class_of(4095), 7);
        // Classes are monotone in rank.
        let mut prev = 0u8;
        for rank in 0..4096u64 {
            let c = g.class_of(rank);
            assert!(c >= prev, "class regressed at rank {rank}");
            prev = c;
        }
    }

    #[test]
    fn zipf_million_tenant_setup_is_practical_and_skewed() {
        let z = Zipf::new(1_000_000, 0.99);
        let mut rng = Rng::new(5);
        let mut top100 = 0u32;
        const DRAWS: u32 = 20_000;
        for _ in 0..DRAWS {
            if z.draw(&mut rng) < 100 {
                top100 += 1;
            }
        }
        // Under Zipf(0.99) the top-100 ranks carry roughly a third of the
        // mass over 10⁶ ids; uniform would give 100/10⁶ ≈ 0.01 %.
        assert!(top100 > DRAWS / 6, "top-100 mass too small: {top100}");
    }

    // Satellite property: zipf sample frequencies are monotone in rank.
    testkit::prop! {
        cases = 24;
        fn zipf_frequencies_monotone_in_rank(seed in gen::u64s(..), theta_mil in gen::u64s(200..=950)) {
            let theta = theta_mil as f64 / 1000.0;
            let z = Zipf::new(8, theta);
            let mut rng = Rng::new(seed);
            let mut counts = [0u64; 8];
            for _ in 0..60_000 {
                counts[z.draw(&mut rng) as usize] += 1;
            }
            // With 60k draws over 8 ranks, expected counts are strictly
            // decreasing in rank; allow sampling noise via a small slack.
            for r in 0..7 {
                assert!(
                    counts[r] + 220 >= counts[r + 1],
                    "rank {r} ({}) < rank {} ({}) at theta {theta}: {counts:?}",
                    counts[r], r + 1, counts[r + 1]
                );
            }
            // And the head strictly dominates the tail.
            assert!(counts[0] > counts[7], "{counts:?}");
        }
    }

    // Satellite property: burst schedules never emit events out of order.
    testkit::prop! {
        cases = 32;
        fn burst_schedule_and_arrivals_stay_ordered(seed in gen::u64s(..), bursts in gen::u64s(0..=6)) {
            let mut spec = small_spec();
            spec.bursts = bursts as u32;
            let mut g = LoadGen::new(spec, seed);
            let mut prev_start = Time::ZERO;
            for &(s, e) in g.burst_windows() {
                assert!(s >= prev_start, "burst starts unsorted");
                assert!(e > s, "empty burst window");
                prev_start = s;
            }
            let mut prev = Time::ZERO;
            for _ in 0..500 {
                let a = g.next_arrival();
                assert!(a.at > prev, "arrival out of time order");
                assert!((a.class as usize) < CLASSES);
                assert!(a.tenant < 4096);
                prev = a.at;
            }
        }
    }
}
