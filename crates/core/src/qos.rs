//! Multi-tenant quality of service: token-bucket rate limits.
//!
//! A middle-tier server serves "millions of VMs" (§1) with different
//! service types (§2.2.1's header carries the type; §4.3's example branches
//! on latency sensitivity). Because SmartDS keeps all control logic in host
//! software, per-tenant policies like rate limiting stay one code change
//! away — this module provides [`TokenBucket`], rate + burst admission
//! over simulated time, which the cluster simulation wires in front of
//! request issue.

use simkit::{transfer_time, Time};

/// A token bucket over simulated time.
#[derive(Clone, Debug)]
pub struct TokenBucket {
    rate: f64,
    burst: f64,
    tokens: f64,
    last: Time,
}

impl TokenBucket {
    /// A bucket refilling at `rate` bytes/s with `burst` bytes of depth,
    /// initially full.
    ///
    /// # Panics
    ///
    /// Panics unless both are positive.
    pub fn new(rate: f64, burst: f64) -> Self {
        assert!(rate > 0.0 && burst > 0.0, "rate and burst must be positive");
        TokenBucket {
            rate,
            burst,
            tokens: burst,
            last: Time::ZERO,
        }
    }

    fn refill(&mut self, now: Time) {
        if now > self.last {
            let dt = (now - self.last).as_secs();
            self.tokens = (self.tokens + dt * self.rate).min(self.burst);
            self.last = now;
        }
    }

    /// Current token level at `now`.
    pub fn available(&mut self, now: Time) -> f64 {
        self.refill(now);
        self.tokens
    }

    /// Tries to admit `bytes` at `now`. On refusal returns the earliest
    /// time the bytes will be admissible.
    ///
    /// Requests larger than the burst are admitted once the bucket is full
    /// and leave it in *debt* (negative tokens), pacing later admissions —
    /// the standard way token buckets handle oversize items without
    /// starving them.
    ///
    /// # Errors
    ///
    /// Returns `Err(ready_at)` when the bucket lacks tokens.
    pub fn admit(&mut self, now: Time, bytes: u64) -> Result<(), Time> {
        self.refill(now);
        let need = bytes as f64;
        let gate = need.min(self.burst);
        // Sub-byte epsilon absorbs picosecond rounding in the refill clock.
        if self.tokens + 1e-6 >= gate {
            self.tokens -= need; // may go negative for oversize requests
            Ok(())
        } else {
            let deficit = gate - self.tokens;
            // +1 ps guards the round-to-nearest in `transfer_time` so the
            // returned instant is always sufficient.
            Err(now + transfer_time(deficit.ceil() as u64, self.rate) + Time::from_ps(1))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_admits_burst_then_paces() {
        let mut b = TokenBucket::new(1e9, 8192.0); // 1 GB/s, 2 blocks burst
        assert!(b.admit(Time::ZERO, 4096).is_ok());
        assert!(b.admit(Time::ZERO, 4096).is_ok());
        // Bucket empty: the next 4 KiB needs ~4.1 µs of refill.
        let ready = b.admit(Time::ZERO, 4096).unwrap_err();
        assert!((4.0..4.2).contains(&ready.as_us()), "{ready}");
        // At that time it is admissible.
        assert!(b.admit(ready, 4096).is_ok());
    }

    #[test]
    fn bucket_never_exceeds_burst() {
        let mut b = TokenBucket::new(1e9, 1000.0);
        assert!((b.available(Time::from_secs(100.0)) - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn bucket_sustains_configured_rate() {
        let mut b = TokenBucket::new(1e6, 4096.0); // 1 MB/s
        let mut now = Time::ZERO;
        let mut admitted = 0u64;
        // Greedy arrivals for one second.
        while now < Time::from_secs(1.0) {
            match b.admit(now, 1000) {
                Ok(()) => admitted += 1000,
                Err(at) => now = at,
            }
        }
        let rate = admitted as f64; // bytes in ~1 s
        assert!((0.95e6..1.1e6).contains(&rate), "sustained {rate}");
    }
}
