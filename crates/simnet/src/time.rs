//! Virtual time.
//!
//! All simulation time is tracked as integer nanoseconds in a [`SimTime`]
//! newtype so it can never be confused with durations expressed in other
//! units. Arithmetic is saturating on the lower end and panics on overflow
//! (an overflow at u64 nanoseconds is ~584 years of simulated time, which
//! always indicates a bug).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, in nanoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Largest representable instant; useful as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw nanoseconds since the epoch.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Nanoseconds since the simulation epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the simulation epoch, as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Microseconds since the simulation epoch, as a float (for reporting).
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// The duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`; that always indicates a
    /// causality bug in the caller.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("SimTime::since called with a later `earlier` instant"),
        )
    }

    /// Saturating duration since `earlier`; zero if `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Creates a duration from a float second count, rounding to nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, NaN, or too large to represent.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "duration seconds must be finite and non-negative, got {secs}"
        );
        let ns = secs * 1e9;
        assert!(ns < u64::MAX as f64, "duration overflows u64 nanoseconds");
        SimDuration(round_ns(ns))
    }

    /// Raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The duration as float seconds (for reporting and rate math).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The duration as float microseconds (for reporting).
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }
}

/// `ns.round() as u64` for `0 <= ns < 2^64` without libm: below 2^53 the
/// truncation and `ns` minus it are exact, and from 2^53 up `ns` is whole.
fn round_ns(ns: f64) -> u64 {
    let whole = ns as u64;
    whole + u64::from(ns - whole as f64 >= 0.5)
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_add(rhs.0)
                .expect("SimTime overflow: simulated more than ~584 years"),
        )
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;

    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}ns", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn time_arithmetic_round_trips() {
        let t = SimTime::from_nanos(1_000);
        let t2 = t + SimDuration::from_micros(3);
        assert_eq!(t2.as_nanos(), 4_000);
        assert_eq!(t2.since(t), SimDuration::from_nanos(3_000));
    }

    #[test]
    #[should_panic(expected = "later")]
    fn since_panics_on_causality_violation() {
        let _ = SimTime::ZERO.since(SimTime::from_nanos(1));
    }

    #[test]
    fn saturating_since_clamps() {
        assert_eq!(
            SimTime::ZERO.saturating_since(SimTime::from_nanos(5)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn duration_conversions() {
        assert_eq!(SimDuration::from_millis(2).as_nanos(), 2_000_000);
        assert_eq!(SimDuration::from_secs(1).as_secs_f64(), 1.0);
        assert_eq!(SimDuration::from_secs_f64(0.5).as_nanos(), 500_000_000);
        assert_eq!(SimDuration::from_micros(7).as_micros_f64(), 7.0);
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn two_to_the_64_nanoseconds_overflow() {
        // 18_446_744_073.709_553 s is 2^64 ns once multiplied out: one
        // past `u64::MAX`, which the cast would saturate to.
        let _ = SimDuration::from_secs_f64(18_446_744_073.709_553);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        /// Non-negative floats below 2^64 round as `f64::round` does:
        /// drawn by bit pattern (tiny to huge), as quarters (every
        /// half-way tie up to 2^54), as thousandths, and at the edges of
        /// the exact-truncation argument.
        #[test]
        fn rounding_matches_f64_round(ns in prop_oneof![
            (0u64..2f64.powi(64).to_bits()).prop_map(f64::from_bits),
            (0u64..1 << 56).prop_map(|q| q as f64 / 4.0),
            (0u64..1 << 40).prop_map(|m| m as f64 / 1e3),
            prop::sample::select(vec![
                0.49999999999999994,
                0.5,
                2.5,
                2f64.powi(52) - 0.5,
                2f64.powi(52) + 0.5,
                2f64.powi(53) - 1.0,
                2f64.powi(53) + 1.0,
                2f64.powi(53) + 2.0,
                2f64.powi(64) - 2048.0,
            ]),
        ]) {
            prop_assert_eq!(round_ns(ns), ns.round() as u64);
        }
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(format!("{}", SimDuration::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", SimDuration::from_micros(12)), "12.000us");
        assert_eq!(format!("{}", SimDuration::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(12)), "12.000s");
    }
}
