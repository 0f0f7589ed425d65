//! Time-windowed throughput meters.
//!
//! Experiments report steady-state bandwidth over a measurement window that
//! excludes warm-up. A [`Meter`] accumulates byte (or request) counts with
//! an explicit window start, so callers can `reset` it at the end of warm-up
//! and read `rate` at the end of the run.
//!
//! # Examples
//!
//! ```
//! use simkit::{Meter, Time};
//!
//! let mut m = Meter::new();
//! m.reset(Time::from_ms(10.0));            // warm-up done
//! m.add(Time::from_ms(20.0), 12_500_000.0); // 12.5 MB in 10 ms
//! assert_eq!(m.rate_bytes_per_sec(Time::from_ms(20.0)), 1.25e9);
//! ```

use crate::time::{to_gbps, Time};

/// Accumulates a byte/op count over a measurement window.
#[derive(Clone, Debug, Default)]
pub struct Meter {
    window_start: Time,
    accumulated: f64,
    events: u64,
}

impl Meter {
    /// Creates a meter whose window starts at time zero.
    pub fn new() -> Self {
        Meter::default()
    }

    /// Restarts the measurement window at `now`, discarding prior counts.
    pub fn reset(&mut self, now: Time) {
        self.window_start = now;
        self.accumulated = 0.0;
        self.events = 0;
    }

    /// Adds `amount` (bytes, requests…) observed at `now`.
    ///
    /// Amounts stamped before the window start are ignored, so resetting at
    /// the warm-up boundary cleanly excludes in-flight warm-up work.
    #[inline]
    pub fn add(&mut self, at: Time, amount: f64) {
        if at < self.window_start {
            return;
        }
        self.accumulated += amount;
        self.events += 1;
    }

    /// Total amount accumulated in the window.
    pub fn total(&self) -> f64 {
        self.accumulated
    }

    /// Number of `add` events in the window.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Start of the current window.
    pub fn window_start(&self) -> Time {
        self.window_start
    }

    /// Average rate in units/sec over `[window_start, now]`.
    /// Returns 0 for an empty or zero-length window.
    pub fn rate_bytes_per_sec(&self, now: Time) -> f64 {
        if now <= self.window_start {
            return 0.0;
        }
        self.accumulated / (now - self.window_start).as_secs()
    }

    /// Average rate expressed in Gbps (convenience for byte meters).
    pub fn rate_gbps(&self, now: Time) -> f64 {
        to_gbps(self.rate_bytes_per_sec(now))
    }

    /// Average events/sec over the window (IOPS for request meters).
    pub fn rate_per_sec(&self, now: Time) -> f64 {
        if now <= self.window_start {
            return 0.0;
        }
        self.events as f64 / (now - self.window_start).as_secs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_over_window() {
        let mut m = Meter::new();
        m.add(Time::from_secs(0.5), 5e8);
        m.add(Time::from_secs(1.0), 5e8);
        assert_eq!(m.rate_bytes_per_sec(Time::from_secs(1.0)), 1e9);
        assert_eq!(m.rate_gbps(Time::from_secs(1.0)), 8.0);
        assert_eq!(m.rate_per_sec(Time::from_secs(1.0)), 2.0);
    }

    #[test]
    fn reset_discards_warmup() {
        let mut m = Meter::new();
        m.add(Time::from_secs(0.5), 1e9);
        m.reset(Time::from_secs(1.0));
        assert_eq!(m.total(), 0.0);
        m.add(Time::from_secs(2.0), 1e9);
        assert_eq!(m.rate_bytes_per_sec(Time::from_secs(2.0)), 1e9);
    }

    #[test]
    fn pre_window_samples_ignored() {
        let mut m = Meter::new();
        m.reset(Time::from_secs(1.0));
        m.add(Time::from_ms(500.0), 77.0);
        assert_eq!(m.total(), 0.0);
        assert_eq!(m.events(), 0);
    }

    #[test]
    fn zero_window_is_zero_rate() {
        let m = Meter::new();
        assert_eq!(m.rate_bytes_per_sec(Time::ZERO), 0.0);
        assert_eq!(m.rate_per_sec(Time::ZERO), 0.0);
    }
}
