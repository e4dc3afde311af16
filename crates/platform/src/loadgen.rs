//! Load generation.
//!
//! The paper's generator "starts the function replica and holds the
//! first request until the replica becomes ready; after that, the load
//! is sent sequentially and at a constant rate". The ablation studies
//! additionally use Poisson (open-loop) arrivals, instantaneous bursts,
//! and heavy-tailed (Pareto) inter-arrivals — the multi-tenant
//! workloads the fleet scheduler (`prebake-fleet`) faces.
//!
//! Every arrival process is a lazy stream ([`ArrivalGen`],
//! [`MergedArrivals`]). [`Schedule`] is the materialized form: an
//! ordered list of `(instant, function)` arrivals collected from a
//! stream, which can be merged and replayed — either into a
//! [`Platform`] or into any other consumer. The free functions
//! ([`poisson`], [`burst`]) are validated wrappers that generate and
//! submit in one call.
//!
//! All generators are deterministic per seed, produce strictly
//! monotonically increasing arrival times (bursts excepted, which are
//! simultaneous by design), and validate their arguments with a typed
//! [`LoadError`] instead of panicking on degenerate rates or overflowing
//! tick arithmetic.

use std::error::Error;
use std::fmt;

use prebake_runtime::http::Request;
use prebake_sim::error::Errno;
use prebake_sim::noise::Noise;
use prebake_sim::time::{SimDuration, SimInstant};

use crate::platform::Platform;

/// Why a load schedule could not be generated or replayed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LoadError {
    /// A rate/interval argument was zero (or saturated to zero from a
    /// negative or non-finite input) where progress is required.
    InvalidRate,
    /// A Pareto `alpha`/`scale` was non-positive or non-finite.
    InvalidShape,
    /// Tick arithmetic overflowed the virtual-time range.
    Overflow,
    /// A function id is empty or contains a comma or a newline.
    InvalidFunction(String),
    /// Submission into the platform failed.
    Submit(Errno),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::InvalidRate => write!(f, "rate/interval must be positive"),
            LoadError::InvalidShape => write!(f, "invalid distribution shape parameter"),
            LoadError::Overflow => write!(f, "arrival time overflows virtual time"),
            LoadError::InvalidFunction(name) => {
                write!(
                    f,
                    "function id {name:?} is empty or contains ',' or a newline"
                )
            }
            LoadError::Submit(e) => write!(f, "submission failed: {e}"),
        }
    }
}

impl Error for LoadError {}

impl From<Errno> for LoadError {
    fn from(e: Errno) -> LoadError {
        LoadError::Submit(e)
    }
}

/// Result alias for load generation.
pub type LoadResult<T> = Result<T, LoadError>;

/// One scheduled invocation: which function is hit, and when.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Arrival {
    /// Arrival instant at the gateway.
    pub at: SimInstant,
    /// Target function id.
    pub function: String,
}

/// An ordered multi-tenant arrival schedule.
///
/// Generators build per-function schedules; [`Schedule::merge`] folds
/// them into one fleet-wide trace ordered by time (ties keep the
/// left-hand side first, so merging is deterministic).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Schedule {
    arrivals: Vec<Arrival>,
}

/// Rejects empty function ids and ids with a comma or a newline.
fn validate_function(function: &str) -> LoadResult<()> {
    if function.is_empty() || function.contains(',') || function.contains('\n') {
        return Err(LoadError::InvalidFunction(function.to_owned()));
    }
    Ok(())
}

/// Overflow-checked `t + gap`.
fn advance(t: SimInstant, gap: SimDuration) -> LoadResult<SimInstant> {
    t.as_nanos()
        .checked_add(gap.as_nanos())
        .map(SimInstant::from_nanos)
        .ok_or(LoadError::Overflow)
}

/// A sampled gap of `ms` milliseconds, floored at 1 ns so stochastic
/// arrival times are strictly increasing.
fn sampled_gap(ms: f64) -> SimDuration {
    SimDuration::from_millis_f64(ms).max(SimDuration::from_nanos(1))
}

impl Schedule {
    /// `ArrivalGen::constant`, materialized.
    ///
    /// # Errors
    ///
    /// As `ArrivalGen::constant`; [`LoadError::Overflow`] fails the
    /// whole schedule.
    pub fn constant(
        function: &str,
        n: usize,
        start: SimInstant,
        interval: SimDuration,
    ) -> LoadResult<Schedule> {
        Schedule::from_stream(ArrivalGen::constant(function, n, start, interval)?)
    }

    /// [`ArrivalGen::poisson`], materialized.
    ///
    /// # Errors
    ///
    /// As [`ArrivalGen::poisson`]; [`LoadError::Overflow`] fails the
    /// whole schedule.
    pub fn poisson(
        function: &str,
        n: usize,
        start: SimInstant,
        mean_interval: SimDuration,
        seed: u64,
    ) -> LoadResult<Schedule> {
        Schedule::from_stream(ArrivalGen::poisson(
            function,
            n,
            start,
            mean_interval,
            seed,
        )?)
    }

    /// [`ArrivalGen::burst`], materialized.
    ///
    /// # Errors
    ///
    /// As [`ArrivalGen::burst`].
    pub fn burst(function: &str, n: usize, at: SimInstant) -> LoadResult<Schedule> {
        Schedule::from_stream(ArrivalGen::burst(function, n, at)?)
    }

    /// [`ArrivalGen::pareto`], materialized.
    ///
    /// # Errors
    ///
    /// As [`ArrivalGen::pareto`]; [`LoadError::Overflow`] fails the
    /// whole schedule.
    pub fn pareto(
        function: &str,
        n: usize,
        start: SimInstant,
        scale_ms: f64,
        alpha: f64,
        seed: u64,
    ) -> LoadResult<Schedule> {
        Schedule::from_stream(ArrivalGen::pareto(
            function, n, start, scale_ms, alpha, seed,
        )?)
    }

    /// Merges two schedules into one time-ordered trace. Equal-time
    /// arrivals keep `self` before `other` (stable), so merging is
    /// deterministic.
    #[must_use]
    pub fn merge(self, other: Schedule) -> Schedule {
        let mut arrivals = self.arrivals;
        arrivals.extend(other.arrivals);
        // Stable sort: FIFO order within equal instants is preserved.
        arrivals.sort_by_key(|a| a.at);
        Schedule { arrivals }
    }

    /// The ordered arrivals.
    pub fn arrivals(&self) -> &[Arrival] {
        &self.arrivals
    }

    /// Number of scheduled arrivals.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// Returns `true` if nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// Materializes a fallible arrival stream into a schedule, sorting
    /// by time (stable for equal instants — stream order is kept).
    ///
    /// # Errors
    ///
    /// The first error the stream yields.
    pub(crate) fn from_stream(
        stream: impl IntoIterator<Item = LoadResult<Arrival>>,
    ) -> LoadResult<Schedule> {
        let mut arrivals = stream.into_iter().collect::<LoadResult<Vec<Arrival>>>()?;
        arrivals.sort_by_key(|a| a.at);
        Ok(Schedule { arrivals })
    }

    /// Replays the schedule into a platform, building each request with
    /// `make_request(index)` (index is the position in the schedule).
    ///
    /// # Errors
    ///
    /// [`LoadError::Submit`] on submission failure (unknown function).
    pub(crate) fn submit(
        &self,
        platform: &mut Platform,
        make_request: impl Fn(usize) -> Request,
    ) -> LoadResult<()> {
        for (i, a) in self.arrivals.iter().enumerate() {
            platform.submit(a.at, &a.function, make_request(i))?;
        }
        Ok(())
    }
}

/// How one [`ArrivalGen`] spaces its arrivals.
#[derive(Debug, Clone)]
enum GenKind {
    Constant {
        interval: SimDuration,
    },
    Burst,
    Poisson {
        mean_ms: f64,
        noise: Noise,
    },
    Pareto {
        scale_ms: f64,
        alpha: f64,
        noise: Noise,
    },
}

/// A lazy arrival generator: yields its arrivals one at a time, so a
/// million-invocation trace never lives in memory. Deterministic per
/// seed; arrival times are non-decreasing by construction (strictly
/// increasing for the stochastic processes, whose gaps floor at 1 ns).
///
/// Virtual-time overflow is reported in-stream: the arrivals before the
/// overflow are yielded, then one `Err(LoadError::Overflow)`, then the
/// stream ends. Every constructor validates the function id first, then
/// its rate or shape.
#[derive(Debug, Clone)]
pub struct ArrivalGen {
    function: String,
    remaining: usize,
    t: SimInstant,
    pending_err: Option<LoadError>,
    kind: GenKind,
}

impl ArrivalGen {
    fn new(function: &str, n: usize, start: SimInstant, kind: GenKind) -> ArrivalGen {
        ArrivalGen {
            function: function.to_owned(),
            remaining: n,
            t: start,
            pending_err: None,
            kind,
        }
    }

    /// `n` arrivals at a constant inter-arrival interval starting at
    /// `start`.
    ///
    /// # Errors
    ///
    /// [`LoadError::InvalidFunction`] on a malformed function id;
    /// [`LoadError::InvalidRate`] if `interval` is zero and `n > 1`
    /// (distinct arrivals could not advance).
    pub(crate) fn constant(
        function: &str,
        n: usize,
        start: SimInstant,
        interval: SimDuration,
    ) -> LoadResult<ArrivalGen> {
        validate_function(function)?;
        if interval.is_zero() && n > 1 {
            return Err(LoadError::InvalidRate);
        }
        Ok(ArrivalGen::new(
            function,
            n,
            start,
            GenKind::Constant { interval },
        ))
    }

    /// `n` simultaneous arrivals at `at` (a burst — the demand surge that
    /// makes cold-start latency visible).
    ///
    /// # Errors
    ///
    /// [`LoadError::InvalidFunction`] on a malformed function id.
    pub fn burst(function: &str, n: usize, at: SimInstant) -> LoadResult<ArrivalGen> {
        validate_function(function)?;
        Ok(ArrivalGen::new(function, n, at, GenKind::Burst))
    }

    /// `n` arrivals with exponentially distributed inter-arrival times of
    /// the given mean (an open-loop Poisson process), deterministic in
    /// `seed`.
    ///
    /// # Errors
    ///
    /// [`LoadError::InvalidFunction`] on a malformed function id;
    /// [`LoadError::InvalidRate`] if `mean_interval` is zero.
    pub fn poisson(
        function: &str,
        n: usize,
        start: SimInstant,
        mean_interval: SimDuration,
        seed: u64,
    ) -> LoadResult<ArrivalGen> {
        validate_function(function)?;
        if mean_interval.is_zero() {
            return Err(LoadError::InvalidRate);
        }
        Ok(ArrivalGen::new(
            function,
            n,
            start,
            GenKind::Poisson {
                mean_ms: mean_interval.as_millis_f64(),
                noise: Noise::new(seed, 0.0),
            },
        ))
    }

    /// `n` arrivals with Pareto (heavy-tailed) inter-arrival gaps:
    /// `gap = scale_ms * u^(-1/alpha)` for uniform `u`, deterministic in
    /// `seed`. Small `alpha` (e.g. 1.1–1.5) produces the bursty,
    /// long-gapped arrival processes production FaaS traces show; the
    /// minimum gap is `scale_ms`.
    ///
    /// # Errors
    ///
    /// [`LoadError::InvalidFunction`] on a malformed function id;
    /// [`LoadError::InvalidShape`] unless `scale_ms > 0` and `alpha > 0`
    /// (both finite).
    pub fn pareto(
        function: &str,
        n: usize,
        start: SimInstant,
        scale_ms: f64,
        alpha: f64,
        seed: u64,
    ) -> LoadResult<ArrivalGen> {
        validate_function(function)?;
        if !(scale_ms.is_finite() && scale_ms > 0.0 && alpha.is_finite() && alpha > 0.0) {
            return Err(LoadError::InvalidShape);
        }
        Ok(ArrivalGen::new(
            function,
            n,
            start,
            GenKind::Pareto {
                scale_ms,
                alpha,
                noise: Noise::new(seed, 0.0),
            },
        ))
    }
}

impl Iterator for ArrivalGen {
    type Item = LoadResult<Arrival>;

    fn next(&mut self) -> Option<LoadResult<Arrival>> {
        if let Some(e) = self.pending_err.take() {
            self.remaining = 0;
            return Some(Err(e));
        }
        if self.remaining == 0 {
            return None;
        }
        let out = Arrival {
            at: self.t,
            function: self.function.clone(),
        };
        self.remaining -= 1;
        if self.remaining > 0 {
            // Stochastic gaps floor at 1 ns (strict monotonicity),
            // constant intervals are used as-is (zero already rejected
            // for n > 1), bursts never advance.
            let gap = match &mut self.kind {
                GenKind::Constant { interval } => Some(*interval),
                GenKind::Burst => None,
                GenKind::Poisson { mean_ms, noise } => {
                    Some(sampled_gap(noise.exponential(*mean_ms)))
                }
                GenKind::Pareto {
                    scale_ms,
                    alpha,
                    noise,
                } => {
                    // uniform() is in [0, 1); mirror to (0, 1] so
                    // u^(-1/alpha) stays finite.
                    let u = 1.0 - noise.uniform();
                    Some(sampled_gap(*scale_ms * u.powf(-1.0 / *alpha)))
                }
            };
            if let Some(gap) = gap {
                match advance(self.t, gap) {
                    Ok(t) => self.t = t,
                    Err(e) => self.pending_err = Some(e),
                }
            }
        }
        Some(Ok(out))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

/// An open-loop Poisson arrival process: rate-and-horizon bounded
/// instead of count bounded. This is the load shape a streaming gateway
/// is judged under — arrivals keep coming at the offered rate whether
/// or not earlier invocations completed, so admission queues and sheds
/// are properties of the *offered* load, not of the completion loop.
///
/// The first arrival lands exactly at `start` (mirroring
/// [`Schedule::poisson`]); subsequent gaps are exponentially
/// distributed with mean `1000 / rate_per_sec` ms, floored at 1 ns for
/// strict monotonicity. Arrivals stop at `start + horizon` (exclusive).
/// Same seed ⇒ byte-identical sequence. Unlike [`ArrivalGen`] there is
/// no in-band overflow: the constructor proves `start + horizon` fits
/// in virtual time, so a gap that overflows necessarily lands past the
/// horizon and simply ends the stream.
#[derive(Debug, Clone)]
pub struct PoissonProcess {
    function: String,
    t: SimInstant,
    end: SimInstant,
    mean_ms: f64,
    noise: Noise,
}

impl PoissonProcess {
    /// Creates a process emitting `rate_per_sec` arrivals per virtual
    /// second over `[start, start + horizon)`.
    ///
    /// # Errors
    ///
    /// [`LoadError::InvalidRate`] if the rate is non-positive or
    /// non-finite; [`LoadError::InvalidFunction`] on a bad function id;
    /// [`LoadError::Overflow`] if the horizon end overflows virtual
    /// time.
    pub fn new(
        function: &str,
        rate_per_sec: f64,
        start: SimInstant,
        horizon: SimDuration,
        seed: u64,
    ) -> LoadResult<PoissonProcess> {
        validate_function(function)?;
        if !(rate_per_sec.is_finite() && rate_per_sec > 0.0) {
            return Err(LoadError::InvalidRate);
        }
        let end = advance(start, horizon)?;
        Ok(PoissonProcess {
            function: function.to_owned(),
            t: start,
            end,
            mean_ms: 1_000.0 / rate_per_sec,
            noise: Noise::new(seed, 0.0),
        })
    }
}

impl Iterator for PoissonProcess {
    type Item = LoadResult<Arrival>;

    fn next(&mut self) -> Option<LoadResult<Arrival>> {
        if self.t >= self.end {
            return None;
        }
        let out = Arrival {
            at: self.t,
            function: self.function.clone(),
        };
        let gap = sampled_gap(self.noise.exponential(self.mean_ms));
        self.t = advance(self.t, gap).unwrap_or(self.end);
        Some(Ok(out))
    }
}

/// Head slot of one merge source.
#[derive(Debug)]
enum Head {
    Unprimed,
    Ready(Arrival),
    Done,
}

/// Deterministic k-way merge of sorted arrival streams. Equal-time
/// arrivals drain in source order — exactly the order nested
/// [`Schedule::merge`] calls produce when the sources are given in the
/// same order — so a streamed multi-tenant trace is byte-identical to
/// its materialized twin. The merge is O(k) per arrival (k = tenant
/// streams), which is flat in trace length.
#[derive(Debug)]
pub struct MergedArrivals<I> {
    sources: Vec<I>,
    heads: Vec<Head>,
    failed: bool,
}

impl<I: Iterator<Item = LoadResult<Arrival>>> MergedArrivals<I> {
    /// Merges `sources` (each individually time-sorted).
    pub fn new(sources: Vec<I>) -> MergedArrivals<I> {
        let heads = sources.iter().map(|_| Head::Unprimed).collect();
        MergedArrivals {
            sources,
            heads,
            failed: false,
        }
    }
}

impl<I: Iterator<Item = LoadResult<Arrival>>> Iterator for MergedArrivals<I> {
    type Item = LoadResult<Arrival>;

    fn next(&mut self) -> Option<LoadResult<Arrival>> {
        if self.failed {
            return None;
        }
        for (head, source) in self.heads.iter_mut().zip(&mut self.sources) {
            if matches!(head, Head::Unprimed) {
                match source.next() {
                    Some(Ok(a)) => *head = Head::Ready(a),
                    Some(Err(e)) => {
                        self.failed = true;
                        return Some(Err(e));
                    }
                    None => *head = Head::Done,
                }
            }
        }
        // Earliest time wins; the first source wins ties, matching the
        // left-biased stable [`Schedule::merge`].
        let mut best: Option<(usize, SimInstant)> = None;
        for (i, head) in self.heads.iter().enumerate() {
            if let Head::Ready(a) = head {
                if best.is_none_or(|(_, at)| a.at < at) {
                    best = Some((i, a.at));
                }
            }
        }
        let (i, _) = best?;
        match std::mem::replace(&mut self.heads[i], Head::Unprimed) {
            Head::Ready(a) => Some(Ok(a)),
            _ => unreachable!("best index always holds a ready head"),
        }
    }
}

/// Submits `n` requests with exponentially distributed inter-arrival
/// times of the given mean (an open-loop Poisson process), deterministic
/// in `seed`.
///
/// # Errors
///
/// As [`Schedule::poisson`], plus submission errors.
pub fn poisson(
    platform: &mut Platform,
    function: &str,
    n: usize,
    start: SimInstant,
    mean_interval: SimDuration,
    seed: u64,
    make_request: impl Fn(usize) -> Request,
) -> LoadResult<()> {
    Schedule::poisson(function, n, start, mean_interval, seed)?.submit(platform, make_request)
}

/// Submits `n` simultaneous requests at `at` (a burst — the demand surge
/// that makes cold-start latency visible).
///
/// # Errors
///
/// As [`Schedule::burst`], plus submission errors.
pub fn burst(
    platform: &mut Platform,
    function: &str,
    n: usize,
    at: SimInstant,
    make_request: impl Fn(usize) -> Request,
) -> LoadResult<()> {
    Schedule::burst(function, n, at)?.submit(platform, make_request)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{FunctionBuilder, Template};
    use crate::platform::PlatformConfig;
    use crate::registry::Registry;
    use prebake_functions::FunctionSpec;

    fn platform() -> Platform {
        let registry = Registry::new();
        registry.push(
            FunctionBuilder
                .build(FunctionSpec::noop(), &Template::java11())
                .unwrap(),
        );
        let mut p = Platform::new(PlatformConfig::default(), registry);
        p.deploy_function("noop").unwrap();
        p
    }

    #[test]
    fn constant_rate_submits_all() {
        let mut p = platform();
        Schedule::constant("noop", 20, SimInstant::EPOCH, SimDuration::from_millis(50))
            .unwrap()
            .submit(&mut p, |_| Request::empty())
            .unwrap();
        p.run().unwrap();
        assert_eq!(p.completed().len(), 20);
        // Sequential constant-rate load after warm-up is all warm.
        let warm = p.completed().iter().filter(|r| !r.cold).count();
        assert!(warm >= 18, "most requests warm, got {warm}");
    }

    #[test]
    fn poisson_is_deterministic_per_seed() {
        let mut p1 = platform();
        poisson(
            &mut p1,
            "noop",
            30,
            SimInstant::EPOCH,
            SimDuration::from_millis(20),
            7,
            |_| Request::empty(),
        )
        .unwrap();
        p1.run().unwrap();

        let mut p2 = platform();
        poisson(
            &mut p2,
            "noop",
            30,
            SimInstant::EPOCH,
            SimDuration::from_millis(20),
            7,
            |_| Request::empty(),
        )
        .unwrap();
        p2.run().unwrap();

        let l1: Vec<u64> = p1
            .completed()
            .iter()
            .map(|r| r.completed.as_nanos())
            .collect();
        let l2: Vec<u64> = p2
            .completed()
            .iter()
            .map(|r| r.completed.as_nanos())
            .collect();
        assert_eq!(l1, l2);
    }

    #[test]
    fn burst_fans_out_replicas() {
        let mut p = platform();
        burst(&mut p, "noop", 6, SimInstant::EPOCH, |_| Request::empty()).unwrap();
        p.run().unwrap();
        assert_eq!(p.completed().len(), 6);
        let started = p.metrics().get("noop").unwrap().replicas_started.get();
        assert!(started >= 3, "burst should fan out, started {started}");
    }

    #[test]
    fn zero_rates_are_typed_errors() {
        assert_eq!(
            Schedule::constant("f", 2, SimInstant::EPOCH, SimDuration::ZERO).unwrap_err(),
            LoadError::InvalidRate
        );
        // A single arrival needs no progress, so a zero interval is fine.
        assert_eq!(
            Schedule::constant("f", 1, SimInstant::EPOCH, SimDuration::ZERO)
                .unwrap()
                .len(),
            1
        );
        assert_eq!(
            Schedule::poisson("f", 5, SimInstant::EPOCH, SimDuration::ZERO, 1).unwrap_err(),
            LoadError::InvalidRate
        );
        // Negative float intervals saturate to zero and are rejected too.
        assert_eq!(
            Schedule::poisson(
                "f",
                5,
                SimInstant::EPOCH,
                SimDuration::from_millis_f64(-3.0),
                1
            )
            .unwrap_err(),
            LoadError::InvalidRate
        );
    }

    #[test]
    fn shape_parameters_are_validated() {
        for (scale, alpha) in [(0.0, 1.5), (-1.0, 1.5), (10.0, 0.0), (10.0, -2.0)] {
            assert_eq!(
                Schedule::pareto("f", 3, SimInstant::EPOCH, scale, alpha, 1).unwrap_err(),
                LoadError::InvalidShape
            );
        }
        assert_eq!(
            Schedule::pareto("f", 3, SimInstant::EPOCH, f64::NAN, 1.5, 1).unwrap_err(),
            LoadError::InvalidShape
        );
    }

    #[test]
    fn tick_overflow_is_a_typed_error() {
        let near_end = SimInstant::from_nanos(u64::MAX - 10);
        assert_eq!(
            Schedule::constant("f", 3, near_end, SimDuration::from_secs(1)).unwrap_err(),
            LoadError::Overflow
        );
        assert_eq!(
            Schedule::poisson("f", 50, near_end, SimDuration::from_secs(1), 1).unwrap_err(),
            LoadError::Overflow
        );
        assert_eq!(
            Schedule::pareto("f", 50, near_end, 1000.0, 1.1, 1).unwrap_err(),
            LoadError::Overflow
        );
    }

    #[test]
    fn function_ids_are_validated() {
        for bad in ["", "a,b", "a\nb"] {
            assert!(matches!(
                Schedule::burst(bad, 1, SimInstant::EPOCH).unwrap_err(),
                LoadError::InvalidFunction(_)
            ));
        }
    }

    #[test]
    fn error_display_and_source() {
        let e = LoadError::Submit(Errno::Enoent);
        assert!(e.to_string().contains("no such file"));
        let from: LoadError = Errno::Einval.into();
        assert_eq!(from, LoadError::Submit(Errno::Einval));
    }

    #[test]
    fn pareto_gaps_are_heavy_tailed() {
        let s = Schedule::pareto("f", 2000, SimInstant::EPOCH, 10.0, 1.2, 9).unwrap();
        let gaps: Vec<f64> = s
            .arrivals()
            .windows(2)
            .map(|w| (w[1].at - w[0].at).as_millis_f64())
            .collect();
        let min = gaps.iter().cloned().fold(f64::MAX, f64::min);
        let max = gaps.iter().cloned().fold(0.0f64, f64::max);
        assert!(min >= 10.0, "Pareto minimum gap is the scale, got {min}");
        assert!(
            max > 200.0,
            "alpha 1.2 should produce occasional huge gaps, max {max}"
        );
    }

    #[test]
    fn merge_orders_by_time_stably() {
        let a =
            Schedule::constant("a", 3, SimInstant::EPOCH, SimDuration::from_millis(10)).unwrap();
        let b =
            Schedule::constant("b", 3, SimInstant::EPOCH, SimDuration::from_millis(10)).unwrap();
        let merged = a.merge(b);
        assert_eq!(merged.len(), 6);
        let order: Vec<&str> = merged
            .arrivals()
            .iter()
            .map(|x| x.function.as_str())
            .collect();
        assert_eq!(order, ["a", "b", "a", "b", "a", "b"]);
        assert!(merged.arrivals().windows(2).all(|w| w[0].at <= w[1].at));
        assert_eq!(
            merged.arrivals().last().map(|a| a.at),
            Some(SimInstant::EPOCH + SimDuration::from_millis(20))
        );
    }

    #[test]
    fn trace_replay_drives_the_platform() {
        let schedule =
            Schedule::constant("noop", 3, SimInstant::EPOCH, SimDuration::from_secs(1)).unwrap();
        let mut p = platform();
        schedule.submit(&mut p, |_| Request::empty()).unwrap();
        p.run().unwrap();
        assert_eq!(p.completed().len(), 3);
        // One-second spacing keeps everything on one warm replica.
        assert_eq!(p.completed().iter().filter(|r| r.cold).count(), 1);
    }

    #[test]
    fn submit_unknown_function_is_typed() {
        let schedule = Schedule::burst("ghost", 1, SimInstant::EPOCH).unwrap();
        let mut p = platform();
        assert_eq!(
            schedule.submit(&mut p, |_| Request::empty()).unwrap_err(),
            LoadError::Submit(Errno::Enoent)
        );
    }

    /// Arrival instants pinned at the commit that collapsed the eager
    /// constructors onto the generators: count, first eight and last
    /// instant (ns) per generator at a fixed seed.
    #[test]
    fn generators_reproduce_the_pinned_arrival_instants() {
        let start = SimInstant::EPOCH + SimDuration::from_millis(5);
        let cases: [(ArrivalGen, usize, &[u64], u64); 4] = [
            (
                ArrivalGen::constant("f", 100, start, SimDuration::from_micros(250)).unwrap(),
                100,
                &[
                    5_000_000, 5_250_000, 5_500_000, 5_750_000, 6_000_000, 6_250_000, 6_500_000,
                    6_750_000,
                ],
                29_750_000,
            ),
            (
                ArrivalGen::burst("f", 7, start).unwrap(),
                7,
                &[5_000_000; 7],
                5_000_000,
            ),
            (
                ArrivalGen::poisson("f", 100, start, SimDuration::from_millis(3), 42).unwrap(),
                100,
                &[
                    5_000_000, 5_896_978, 11_396_403, 15_230_325, 18_430_003, 28_238_130,
                    28_662_033, 33_226_243,
                ],
                303_028_402,
            ),
            (
                ArrivalGen::pareto("f", 100, start, 2.0, 1.5, 9).unwrap(),
                100,
                &[
                    5_000_000, 9_296_113, 14_345_158, 16_801_556, 22_371_108, 24_821_354,
                    26_990_421, 30_985_617,
                ],
                550_875_625,
            ),
        ];
        for (gen, count, head, last) in cases {
            assert_eq!(gen.remaining, count);
            assert_eq!(gen.size_hint(), (count, Some(count)));
            let ns: Vec<u64> = gen.map(|a| a.unwrap().at.as_nanos()).collect();
            assert_eq!(ns.len(), count);
            assert_eq!(&ns[..head.len()], head);
            assert_eq!(ns[count - 1], last);
        }
    }

    #[test]
    fn arrival_gen_validates_the_id_then_the_parameters() {
        assert_eq!(
            ArrivalGen::constant("f", 2, SimInstant::EPOCH, SimDuration::ZERO).unwrap_err(),
            LoadError::InvalidRate
        );
        assert!(ArrivalGen::constant("f", 1, SimInstant::EPOCH, SimDuration::ZERO).is_ok());
        assert_eq!(
            ArrivalGen::poisson("f", 2, SimInstant::EPOCH, SimDuration::ZERO, 1).unwrap_err(),
            LoadError::InvalidRate
        );
        assert_eq!(
            ArrivalGen::pareto("f", 2, SimInstant::EPOCH, 0.0, 1.0, 1).unwrap_err(),
            LoadError::InvalidShape
        );
        assert_eq!(
            ArrivalGen::burst("a,b", 1, SimInstant::EPOCH).unwrap_err(),
            LoadError::InvalidFunction("a,b".to_owned())
        );
        // Invalid both ways: the id is reported, from either entry point.
        let bad_id = LoadError::InvalidFunction("a,b".to_owned());
        assert_eq!(
            ArrivalGen::poisson("a,b", 2, SimInstant::EPOCH, SimDuration::ZERO, 1).unwrap_err(),
            bad_id
        );
        assert_eq!(
            ArrivalGen::pareto("a,b", 2, SimInstant::EPOCH, 0.0, 1.0, 1).unwrap_err(),
            bad_id
        );
        assert_eq!(
            Schedule::constant("a,b", 2, SimInstant::EPOCH, SimDuration::ZERO).unwrap_err(),
            bad_id
        );
    }

    #[test]
    fn arrival_gen_streams_overflow_after_valid_prefix() {
        let near_end = SimInstant::from_nanos(u64::MAX - 5);
        let mut gen = ArrivalGen::constant("f", 3, near_end, SimDuration::from_nanos(10)).unwrap();
        assert_eq!(gen.next().unwrap().unwrap().at, near_end);
        assert_eq!(gen.next().unwrap().unwrap_err(), LoadError::Overflow);
        assert!(gen.next().is_none(), "stream ends after the error");
        // Materializing rejects the whole schedule instead.
        assert_eq!(
            Schedule::constant("f", 3, near_end, SimDuration::from_nanos(10)).unwrap_err(),
            LoadError::Overflow
        );
    }

    #[test]
    fn merged_arrivals_match_nested_schedule_merge() {
        let start = SimInstant::EPOCH;
        let eager = Schedule::poisson("t0", 50, start, SimDuration::from_millis(2), 1)
            .unwrap()
            .merge(Schedule::constant("t1", 50, start, SimDuration::from_millis(2)).unwrap())
            .merge(Schedule::burst("t2", 5, start + SimDuration::from_millis(10)).unwrap());
        let lazy = MergedArrivals::new(vec![
            ArrivalGen::poisson("t0", 50, start, SimDuration::from_millis(2), 1).unwrap(),
            ArrivalGen::constant("t1", 50, start, SimDuration::from_millis(2)).unwrap(),
            ArrivalGen::burst("t2", 5, start + SimDuration::from_millis(10)).unwrap(),
        ]);
        let streamed: Vec<Arrival> = lazy.map(|a| a.unwrap()).collect();
        assert_eq!(streamed, eager.arrivals());
    }

    #[test]
    fn merged_arrivals_stop_at_first_error() {
        let near_end = SimInstant::from_nanos(u64::MAX - 5);
        let merged = MergedArrivals::new(vec![
            ArrivalGen::constant("bad", 3, near_end, SimDuration::from_nanos(10)).unwrap(),
            ArrivalGen::constant("ok", 3, SimInstant::EPOCH, SimDuration::from_nanos(1)).unwrap(),
        ]);
        let items: Vec<LoadResult<Arrival>> = merged.collect();
        assert!(items.iter().filter(|i| i.is_err()).count() == 1);
        assert!(items.last().unwrap().is_err(), "error terminates the merge");
    }
}
