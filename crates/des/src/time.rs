//! Simulated time.
//!
//! Time is a `u64` count of microseconds since simulation start. Integer
//! time keeps event ordering exact and reproducible — equal timestamps are
//! broken by schedule order, never by floating-point noise. Microsecond
//! resolution spans ~584,000 years of simulated time, far beyond any
//! experiment.
//!
//! All tick arithmetic saturates instead of wrapping: a silent wrap would
//! corrupt every downstream figure while staying bitwise deterministic,
//! invisible to the determinism gates. Saturation cannot occur in a valid
//! run (584k simulated years), so goldens are unaffected;
//! `clippy::arithmetic_side_effects`, denied below outside tests, keeps a
//! bare integer `+`/`-`/`*` from sneaking back in.

#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant of simulated time (microseconds since start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time (microseconds).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from seconds.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0 && s.is_finite());
        SimTime((s * 1e6).round() as u64)
    }

    /// The instant as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Duration elapsed since `earlier`; saturates at zero.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from seconds.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0 && s.is_finite());
        SimDuration((s * 1e6).round() as u64)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s.saturating_mul(1_000_000))
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms.saturating_mul(1_000))
    }

    /// The duration as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The duration as fractional milliseconds (the latency unit of the
    /// paper's figures).
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, d: SimDuration) {
        self.0 = self.0.saturating_add(d.0);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, other: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, d: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(d.0))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, d: SimDuration) {
        self.0 = self.0.saturating_add(d.0);
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimTime::from_secs_f64(1.5).0, 1_500_000);
        assert_eq!(SimDuration::from_secs(2).0, 2_000_000);
        assert_eq!(SimDuration::from_millis(3).0, 3_000);
        assert!((SimTime(1_500_000).as_secs_f64() - 1.5).abs() < 1e-12);
        assert!((SimDuration(2_500).as_millis_f64() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime(100) + SimDuration(50);
        assert_eq!(t, SimTime(150));
        assert_eq!(t - SimTime(100), SimDuration(50));
        assert_eq!(SimDuration(10) + SimDuration(5), SimDuration(15));
        let mut t2 = SimTime(0);
        t2 += SimDuration(7);
        assert_eq!(t2, SimTime(7));
        let mut d = SimDuration(1);
        d += SimDuration(2);
        assert_eq!(d, SimDuration(3));
    }

    #[test]
    fn since_saturates() {
        assert_eq!(SimTime(5).since(SimTime(10)), SimDuration::ZERO);
        assert_eq!(SimTime(10).since(SimTime(4)), SimDuration(6));
    }

    #[test]
    fn display() {
        assert_eq!(SimTime(1_500_000).to_string(), "1.500s");
        assert_eq!(SimDuration(2_500).to_string(), "2.500ms");
    }
}
