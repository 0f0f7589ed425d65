//! Simulation time.
//!
//! Simulated time is measured in integer **picoseconds** since the start of
//! the simulation. A picosecond granularity keeps every event-ordering
//! decision exact (no floating-point time comparisons) while still leaving
//! room for multi-minute simulations: `u64::MAX` picoseconds is about 213
//! days.
//!
//! [`Time`] is used both for absolute instants (picoseconds since simulation
//! start) and for durations, mirroring how `std::time::Duration` is used for
//! both in many simulators. Arithmetic is saturating at the upper end so a
//! "never" sentinel ([`Time::MAX`]) survives addition.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Picoseconds per nanosecond.
pub const PS_PER_NS: u64 = 1_000;
/// Picoseconds per microsecond.
pub const PS_PER_US: u64 = 1_000_000;
/// Picoseconds per millisecond.
pub const PS_PER_MS: u64 = 1_000_000_000;
/// Picoseconds per second.
pub const PS_PER_SEC: u64 = 1_000_000_000_000;

/// `PS_PER_NS` as `f64` (exact; see `scale_constants_agree` test).
const PS_PER_NS_F64: f64 = 1e3;
/// `PS_PER_US` as `f64` (exact).
const PS_PER_US_F64: f64 = 1e6;
/// `PS_PER_MS` as `f64` (exact).
const PS_PER_MS_F64: f64 = 1e9;
/// `PS_PER_SEC` as `f64` (exact).
const PS_PER_SEC_F64: f64 = 1e12;

/// The single audited `f64 → u64` picosecond conversion point. Rust's
/// float-to-int `as` saturates: NaN maps to 0, negatives clamp to 0, and
/// anything at or above `u64::MAX` clamps to `u64::MAX` — which is exactly
/// the "never" sentinel, so overflowing times become [`Time::MAX`].
#[inline]
pub(crate) fn ps_from_f64_saturating(ps: f64) -> u64 {
    // simlint: allow(lossy-time-cast, reason = "the one audited saturating f64->ps cast; everything else funnels through here")
    ps as u64
}

/// The single audited `u64 → f64` conversion point. Above 2^53 ps (~2.5
/// hours) the conversion rounds to the nearest representable double; all
/// ordering/accumulation decisions stay on the integer side.
#[inline]
pub(crate) fn ps_to_f64(ps: u64) -> f64 {
    // simlint: allow(lossy-time-cast, reason = "the one audited ps->f64 cast; readers only, never fed back into event ordering")
    ps as f64
}

/// An instant or duration in simulated time, in integer picoseconds.
///
/// # Examples
///
/// ```
/// use simkit::Time;
///
/// let t = Time::from_us(1.5) + Time::from_ns(500.0);
/// assert_eq!(t.as_ns(), 2_000.0);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

impl Time {
    /// Zero time: the start of the simulation or an empty duration.
    pub const ZERO: Time = Time(0);
    /// A sentinel representing "never" / "unreachable future".
    pub const MAX: Time = Time(u64::MAX);

    /// Creates a time from raw picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        Time(ps)
    }

    /// Creates a time from nanoseconds (rounded to the nearest picosecond).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `ns` is negative or not finite.
    #[inline]
    pub fn from_ns(ns: f64) -> Self {
        debug_assert!(ns.is_finite() && ns >= 0.0, "invalid time: {ns} ns");
        Time(ps_from_f64_saturating((ns * PS_PER_NS_F64).round()))
    }

    /// Creates a time from microseconds.
    #[inline]
    pub fn from_us(us: f64) -> Self {
        debug_assert!(us.is_finite() && us >= 0.0, "invalid time: {us} us");
        Time(ps_from_f64_saturating((us * PS_PER_US_F64).round()))
    }

    /// Creates a time from milliseconds.
    #[inline]
    pub fn from_ms(ms: f64) -> Self {
        debug_assert!(ms.is_finite() && ms >= 0.0, "invalid time: {ms} ms");
        Time(ps_from_f64_saturating((ms * PS_PER_MS_F64).round()))
    }

    /// Creates a time from seconds.
    #[inline]
    pub fn from_secs(s: f64) -> Self {
        debug_assert!(s.is_finite() && s >= 0.0, "invalid time: {s} s");
        Time(ps_from_f64_saturating((s * PS_PER_SEC_F64).round()))
    }

    /// Creates a time from seconds, rounding *up* to the next picosecond
    /// and saturating to [`Time::MAX`]. This is the wakeup-scheduling
    /// direction: a completion instant must never be scheduled before the
    /// fluid state actually reaches it.
    #[inline]
    pub fn from_secs_ceil(s: f64) -> Self {
        debug_assert!(!s.is_nan(), "invalid time: NaN s");
        Time(ps_from_f64_saturating((s * PS_PER_SEC_F64).ceil()))
    }

    /// Raw picosecond count.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// This time expressed in nanoseconds.
    #[inline]
    pub fn as_ns(self) -> f64 {
        ps_to_f64(self.0) / PS_PER_NS_F64
    }

    /// This time expressed in microseconds.
    #[inline]
    pub fn as_us(self) -> f64 {
        ps_to_f64(self.0) / PS_PER_US_F64
    }

    /// This time expressed in milliseconds.
    #[inline]
    pub fn as_ms(self) -> f64 {
        ps_to_f64(self.0) / PS_PER_MS_F64
    }

    /// This time expressed in seconds.
    #[inline]
    pub fn as_secs(self) -> f64 {
        ps_to_f64(self.0) / PS_PER_SEC_F64
    }

    /// Saturating addition; `Time::MAX` is absorbing.
    #[inline]
    pub const fn saturating_add(self, rhs: Time) -> Time {
        Time(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction, clamping at zero.
    #[inline]
    pub const fn saturating_sub(self, rhs: Time) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }

    /// Returns the earlier of two times.
    #[inline]
    pub fn min(self, other: Time) -> Time {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Returns the later of two times.
    #[inline]
    pub fn max(self, other: Time) -> Time {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// True if this is the [`Time::MAX`] "never" sentinel.
    #[inline]
    const fn is_never(self) -> bool {
        self.0 == u64::MAX
    }
}

impl Add for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Time) -> Time {
        self.saturating_add(rhs)
    }
}

impl AddAssign for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Time) {
        *self = *self + rhs;
    }
}

impl Sub for Time {
    type Output = Time;
    /// # Panics
    ///
    /// Panics in debug builds on underflow (subtracting a later time from an
    /// earlier one). Use [`Time::saturating_sub`] when clamping is intended.
    #[inline]
    fn sub(self, rhs: Time) -> Time {
        debug_assert!(self.0 >= rhs.0, "time underflow: {self:?} - {rhs:?}");
        Time(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Time {
    #[inline]
    fn sub_assign(&mut self, rhs: Time) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Time {
    type Output = Time;
    #[inline]
    fn mul(self, rhs: u64) -> Time {
        Time(self.0.saturating_mul(rhs))
    }
}

impl Mul<f64> for Time {
    type Output = Time;
    /// Saturating: products at or beyond the representable range clamp to
    /// [`Time::MAX`].
    #[inline]
    fn mul(self, rhs: f64) -> Time {
        debug_assert!(rhs.is_finite() && rhs >= 0.0);
        Time(ps_from_f64_saturating((ps_to_f64(self.0) * rhs).round()))
    }
}

impl Div<u64> for Time {
    type Output = Time;
    #[inline]
    fn div(self, rhs: u64) -> Time {
        Time(self.0 / rhs)
    }
}

impl Sum for Time {
    fn sum<I: Iterator<Item = Time>>(iter: I) -> Time {
        iter.fold(Time::ZERO, Add::add)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_never() {
            return write!(f, "Time::MAX");
        }
        write!(f, "{}", self)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps == u64::MAX {
            write!(f, "never")
        } else if ps >= PS_PER_SEC {
            write!(f, "{:.3}s", self.as_secs())
        } else if ps >= PS_PER_MS {
            write!(f, "{:.3}ms", self.as_ms())
        } else if ps >= PS_PER_US {
            write!(f, "{:.3}us", self.as_us())
        } else if ps >= PS_PER_NS {
            write!(f, "{:.3}ns", self.as_ns())
        } else {
            write!(f, "{}ps", ps)
        }
    }
}

/// Computes the time needed to move `bytes` at `rate_bytes_per_sec`.
///
/// Returns [`Time::MAX`] when the rate is zero or non-positive (a stalled
/// resource never finishes).
///
/// # Examples
///
/// ```
/// use simkit::{transfer_time, Time};
///
/// // 4 KiB at 12.5 GB/s (100 Gbps) takes ~327.68 ns.
/// let t = transfer_time(4096, 12.5e9);
/// assert!((t.as_ns() - 327.68).abs() < 0.01);
/// ```
#[inline]
pub fn transfer_time(bytes: u64, rate_bytes_per_sec: f64) -> Time {
    if rate_bytes_per_sec <= 0.0 {
        return Time::MAX;
    }
    let secs = ps_to_f64(bytes) / rate_bytes_per_sec;
    Time(ps_from_f64_saturating((secs * PS_PER_SEC_F64).round()))
}

/// Converts a rate expressed in gigabits per second to bytes per second.
///
/// ```
/// use simkit::gbps;
/// assert_eq!(gbps(100.0), 12.5e9);
/// ```
#[inline]
pub const fn gbps(g: f64) -> f64 {
    g * 1e9 / 8.0
}

/// Converts a rate in bytes per second into gigabits per second.
///
/// ```
/// use simkit::to_gbps;
/// assert_eq!(to_gbps(12.5e9), 100.0);
/// ```
#[inline]
pub const fn to_gbps(bytes_per_sec: f64) -> f64 {
    bytes_per_sec * 8.0 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_roundtrip() {
        assert_eq!(Time::from_ns(1.0).as_ps(), 1_000);
        assert_eq!(Time::from_us(1.0).as_ps(), 1_000_000);
        assert_eq!(Time::from_ms(1.0).as_ps(), 1_000_000_000);
        assert_eq!(Time::from_secs(1.0).as_ps(), 1_000_000_000_000);
        assert_eq!(Time::from_secs(2.5).as_ms(), 2_500.0);
    }

    #[test]
    fn scale_constants_agree() {
        // The f64 mirrors must be the exact float value of the integer
        // scale constants, or conversions would silently drift.
        assert_eq!(PS_PER_NS_F64, ps_to_f64(PS_PER_NS));
        assert_eq!(PS_PER_US_F64, ps_to_f64(PS_PER_US));
        assert_eq!(PS_PER_MS_F64, ps_to_f64(PS_PER_MS));
        assert_eq!(PS_PER_SEC_F64, ps_to_f64(PS_PER_SEC));
    }

    #[test]
    fn from_secs_ceil_never_schedules_early() {
        // A fractional picosecond rounds up, never down.
        let t = Time::from_secs_ceil(1.25e-12);
        assert_eq!(t.as_ps(), 2);
        assert_eq!(Time::from_secs_ceil(0.0), Time::ZERO);
        // Saturates at the sentinel instead of wrapping.
        assert_eq!(Time::from_secs_ceil(1e30), Time::MAX);
    }

    #[test]
    fn saturating_f64_cast_clamps() {
        assert_eq!(ps_from_f64_saturating(-5.0), 0);
        assert_eq!(ps_from_f64_saturating(f64::NAN), 0);
        assert_eq!(ps_from_f64_saturating(1e30), u64::MAX);
        assert_eq!(ps_from_f64_saturating(42.0), 42);
    }

    #[test]
    fn arithmetic() {
        let a = Time::from_ns(10.0);
        let b = Time::from_ns(4.0);
        assert_eq!((a + b).as_ns(), 14.0);
        assert_eq!((a - b).as_ns(), 6.0);
        assert_eq!((a * 3).as_ns(), 30.0);
        assert_eq!((a / 2).as_ns(), 5.0);
        assert_eq!(a.saturating_sub(Time::from_ns(20.0)), Time::ZERO);
        assert_eq!(Time::MAX + a, Time::MAX);
    }

    #[test]
    fn ordering_and_minmax() {
        let a = Time::from_ns(1.0);
        let b = Time::from_ns(2.0);
        assert!(a < b);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert!(Time::MAX.is_never());
        assert!(!Time::ZERO.is_never());
    }

    #[test]
    fn transfer_time_matches_rate() {
        // 1 GB at 1 GB/s = 1 s.
        assert_eq!(transfer_time(1_000_000_000, 1e9), Time::from_secs(1.0));
        // Zero rate never completes.
        assert_eq!(transfer_time(1, 0.0), Time::MAX);
        // Zero bytes completes instantly.
        assert_eq!(transfer_time(0, 1e9), Time::ZERO);
    }

    #[test]
    fn gbps_conversions_invert() {
        for g in [1.0, 25.0, 100.0, 400.0] {
            assert!((to_gbps(gbps(g)) - g).abs() < 1e-9);
        }
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", Time::from_ps(5)), "5ps");
        assert_eq!(format!("{}", Time::from_ns(5.0)), "5.000ns");
        assert_eq!(format!("{}", Time::from_us(5.0)), "5.000us");
        assert_eq!(format!("{}", Time::from_ms(5.0)), "5.000ms");
        assert_eq!(format!("{}", Time::from_secs(5.0)), "5.000s");
        assert_eq!(format!("{}", Time::MAX), "never");
    }

    #[test]
    fn sum_of_times() {
        let total: Time = [1.0, 2.0, 3.0].iter().map(|&n| Time::from_ns(n)).sum();
        assert_eq!(total.as_ns(), 6.0);
    }
}
