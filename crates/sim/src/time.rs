//! Virtual time primitives.
//!
//! All durations and instants in the simulation are expressed in integer
//! nanoseconds of *virtual* time. Virtual time only advances when the
//! [`Kernel`](crate::kernel::Kernel) charges work to its clock, which makes
//! every experiment deterministic and independent of host speed.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A span of virtual time with nanosecond resolution.
///
/// `SimDuration` is a thin newtype over `u64` nanoseconds. It deliberately
/// mirrors the subset of `std::time::Duration` the simulator needs, plus
/// float accessors used by the statistics pipeline.
///
/// # Examples
///
/// ```
/// use prebake_sim::time::SimDuration;
///
/// let d = SimDuration::from_millis(70);
/// assert_eq!(d.as_nanos(), 70_000_000);
/// assert_eq!(d + SimDuration::from_millis(30), SimDuration::from_millis(100));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from whole nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a duration from whole microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * 1_000)
    }

    /// Creates a duration from whole milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000_000)
    }

    /// Creates a duration from fractional milliseconds.
    ///
    /// Negative or non-finite inputs saturate to zero.
    pub fn from_millis_f64(millis: f64) -> Self {
        if !millis.is_finite() || millis <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((millis * 1_000_000.0).round() as u64)
    }

    /// Creates a duration from fractional nanoseconds.
    ///
    /// Negative or non-finite inputs saturate to zero.
    pub fn from_nanos_f64(nanos: f64) -> Self {
        if !nanos.is_finite() || nanos <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration(nanos.round() as u64)
    }

    /// Returns the duration as whole nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the duration as whole milliseconds (truncated).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Returns the duration as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Returns the duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Returns `true` if this duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction: returns zero instead of underflowing.
    pub(crate) const fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Saturating addition.
    pub(crate) const fn saturating_add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }

    /// Multiplies the duration by a non-negative float factor, rounding to
    /// the nearest nanosecond. Non-finite or negative factors yield zero.
    pub(crate) fn mul_f64(self, factor: f64) -> SimDuration {
        SimDuration::from_nanos_f64(self.0 as f64 * factor)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1_000.0)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

/// A point in virtual time, measured from simulation start.
///
/// # Examples
///
/// ```
/// use prebake_sim::time::{SimDuration, SimInstant};
///
/// let t0 = SimInstant::EPOCH;
/// let t1 = t0 + SimDuration::from_millis(5);
/// assert_eq!(t1 - t0, SimDuration::from_millis(5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimInstant(u64);

impl SimInstant {
    /// The origin of virtual time (simulation start).
    pub const EPOCH: SimInstant = SimInstant(0);

    /// Creates an instant at `nanos` nanoseconds after the epoch.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimInstant(nanos)
    }

    /// Nanoseconds elapsed since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional milliseconds since the epoch.
    pub(crate) fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Elapsed time since an earlier instant.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is later than `self`.
    pub(crate) fn duration_since(self, earlier: SimInstant) -> SimDuration {
        debug_assert!(earlier.0 <= self.0, "duration_since: earlier is later");
        SimDuration(self.0 - earlier.0)
    }

    /// Elapsed time since an earlier instant, or zero if `earlier` is later.
    pub fn saturating_duration_since(self, earlier: SimInstant) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl Add<SimDuration> for SimInstant {
    type Output = SimInstant;
    fn add(self, rhs: SimDuration) -> SimInstant {
        SimInstant(self.0 + rhs.as_nanos())
    }
}

impl AddAssign<SimDuration> for SimInstant {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.as_nanos();
    }
}

impl Sub<SimDuration> for SimInstant {
    type Output = SimInstant;
    fn sub(self, rhs: SimDuration) -> SimInstant {
        SimInstant(self.0 - rhs.as_nanos())
    }
}

impl Sub<SimInstant> for SimInstant {
    type Output = SimDuration;
    fn sub(self, rhs: SimInstant) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl fmt::Display for SimInstant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.3}ms", self.as_millis_f64())
    }
}

/// A monotonically advancing virtual clock.
///
/// The clock is owned by a [`Kernel`](crate::kernel::Kernel); one clock
/// models one machine.
#[derive(Debug, Clone, Default)]
pub(crate) struct Clock {
    now: SimInstant,
}

impl Clock {
    /// Creates a clock at the epoch.
    pub(crate) fn new() -> Self {
        Clock {
            now: SimInstant::EPOCH,
        }
    }

    /// Current virtual time.
    pub(crate) fn now(&self) -> SimInstant {
        self.now
    }

    /// Advances the clock by `d`.
    pub(crate) fn advance(&mut self, d: SimDuration) {
        self.now += d;
    }

    /// Moves the clock forward to `t` if `t` is in the future; otherwise
    /// leaves it unchanged. Returns the (possibly unchanged) current time.
    pub(crate) fn advance_to(&mut self, t: SimInstant) -> SimInstant {
        if t > self.now {
            self.now = t;
        }
        self.now
    }

    /// Forces the clock to `t`, even backwards. Reserved for the kernel's
    /// uncharged-section support; not part of the public simulation
    /// surface.
    pub(crate) fn set(&mut self, t: SimInstant) {
        self.now = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1000));
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1000));
        assert_eq!(SimDuration::from_micros(1), SimDuration::from_nanos(1000));
    }

    #[test]
    fn duration_float_roundtrip() {
        let d = SimDuration::from_millis_f64(12.345);
        assert!((d.as_millis_f64() - 12.345).abs() < 1e-6);
    }

    #[test]
    fn duration_from_f64_saturates_bad_inputs() {
        assert_eq!(SimDuration::from_millis_f64(-3.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_millis_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_nanos_f64(f64::NEG_INFINITY),
            SimDuration::ZERO
        );
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_millis(10);
        let b = SimDuration::from_millis(4);
        assert_eq!(a + b, SimDuration::from_millis(14));
        assert_eq!(a - b, SimDuration::from_millis(6));
        assert_eq!(a * 3, SimDuration::from_millis(30));
        assert_eq!(a / 2, SimDuration::from_millis(5));
        assert_eq!(b.saturating_sub(a), SimDuration::ZERO);
    }

    #[test]
    fn duration_mul_f64_rounds() {
        let d = SimDuration::from_nanos(100);
        assert_eq!(d.mul_f64(1.5), SimDuration::from_nanos(150));
        assert_eq!(d.mul_f64(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn duration_sum() {
        let total: SimDuration = (1..=4).map(SimDuration::from_millis).sum();
        assert_eq!(total, SimDuration::from_millis(10));
    }

    #[test]
    fn duration_display_picks_unit() {
        assert_eq!(SimDuration::from_nanos(5).to_string(), "5ns");
        assert_eq!(SimDuration::from_micros(5).to_string(), "5.000us");
        assert_eq!(SimDuration::from_millis(5).to_string(), "5.000ms");
        assert_eq!(SimDuration::from_secs(5).to_string(), "5.000s");
    }

    #[test]
    fn instant_arithmetic() {
        let t = SimInstant::EPOCH + SimDuration::from_millis(100);
        assert_eq!(t.as_nanos(), 100_000_000);
        assert_eq!(t - SimInstant::EPOCH, SimDuration::from_millis(100));
        assert_eq!((t - SimDuration::from_millis(40)).as_nanos(), 60_000_000);
    }

    #[test]
    fn instant_saturating_duration_since() {
        let early = SimInstant::from_nanos(10);
        let late = SimInstant::from_nanos(50);
        assert_eq!(early.saturating_duration_since(late), SimDuration::ZERO);
        assert_eq!(
            late.saturating_duration_since(early),
            SimDuration::from_nanos(40)
        );
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut c = Clock::new();
        c.advance(SimDuration::from_millis(3));
        assert_eq!(c.now().as_millis_f64(), 3.0);
        // advance_to into the past is a no-op
        let now = c.advance_to(SimInstant::EPOCH);
        assert_eq!(now, c.now());
        assert_eq!(c.now().as_millis_f64(), 3.0);
        c.advance_to(SimInstant::from_nanos(9_000_000));
        assert_eq!(c.now().as_millis_f64(), 9.0);
    }
}
