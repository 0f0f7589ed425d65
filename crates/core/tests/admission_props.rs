//! Property tests for the admission rate policer's token bucket.

use simkit::Time;
use smartds::admission::TokenBucket;
use testkit::gen;

testkit::prop! {
    cases = 128;

    /// A token bucket never admits more than burst + rate × elapsed over
    /// any arbitrary admit/advance sequence.
    fn bucket_never_over_admits(
        ops in gen::vecs((gen::u64s(1..20_000), gen::u64s(0..2_000_000)), 1..100),
        rate_mbps in gen::u64s(1..10_000),
        burst_kib in gen::u64s(1..512),
    ) {
        let rate = rate_mbps as f64 * 1e6;
        let burst = (burst_kib * 1024) as f64;
        let mut bucket = TokenBucket::new(rate, burst);
        let mut now = Time::ZERO;
        let mut admitted = 0u64;
        for (bytes, advance_ns) in ops {
            now += Time::from_ps(advance_ns * 1000);
            if bucket.admit(now, bytes).is_ok() {
                admitted += bytes;
            }
            // Oversize requests may leave the bucket in debt by up to one
            // request beyond the burst, hence the max-request slack.
            let budget = burst + rate * now.as_secs() + 20_000.0;
            assert!(
                (admitted as f64) <= budget,
                "admitted {admitted} > budget {budget} at {now}"
            );
        }
    }

    /// The `Err(ready_at)` returned on refusal is tight: admission succeeds
    /// at that instant (for the same request).
    fn refusal_ready_time_is_sufficient(
        bytes in gen::u64s(1..100_000),
        rate_mbps in gen::u64s(1..1_000),
    ) {
        let rate = rate_mbps as f64 * 1e6;
        let mut bucket = TokenBucket::new(rate, 1024.0);
        // Drain the burst.
        let _ = bucket.admit(Time::ZERO, 1024);
        match bucket.admit(Time::ZERO, bytes) {
            Ok(()) => assert!(bytes <= 1024),
            Err(ready) => assert!(bucket.admit(ready, bytes).is_ok()),
        }
    }

    /// `available` is consistent with `admit`: a request no larger than the
    /// reported balance is admitted, one strictly larger is refused.
    fn available_predicts_admit(
        ops in gen::vecs((gen::u64s(1..10_000), gen::u64s(0..1_000_000)), 1..40),
        rate_mbps in gen::u64s(1..5_000),
    ) {
        let mut bucket = TokenBucket::new(rate_mbps as f64 * 1e6, 64.0 * 1024.0);
        let mut now = Time::ZERO;
        for (bytes, advance_ns) in ops {
            now += Time::from_ps(advance_ns * 1000);
            let avail = bucket.available(now);
            let fits = (bytes as f64) <= avail;
            assert_eq!(
                bucket.admit(now, bytes).is_ok(),
                fits,
                "available={avail} bytes={bytes}"
            );
        }
    }
}
