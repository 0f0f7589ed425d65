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
            if bucket.admit(now, bytes) {
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
}
