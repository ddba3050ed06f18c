//! Order statistics for repeated timings.
//!
//! The value a run reports for a metric is its **best** repetition, not
//! its median. The reference host is a shared microVM that moves between
//! a quiet state and several slower ones (+10 % to +60 %, seconds to
//! minutes long) as its neighbours come and go: over ten runs of one
//! binary the run medians of `wall_s` spread by 22–29 % of their median,
//! the run minima by 3–5 %. Interference only ever adds time, so the best
//! repetition estimates what the program itself costs; the quartiles are
//! kept to say how well the rest of the run supports it.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), because that is the rule the acceptance
//! driver applies to this benchmark's outputs: a spread computed here is
//! the spread the driver will compute.

use dv_core::json::Json;

use crate::report::Better;

/// Five-number summary of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
}

/// `(q1, q2, q3)` by the exclusive method; a single sample is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld == 1 {
        return (v[0], v[0], v[0]);
    }
    let cut = |i: usize| {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        // May be negative or exceed 4 at the clamped ends: the method
        // extrapolates there, exactly as Python does.
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

impl Summary {
    /// Summarize `values`.
    pub fn of(values: &[f64]) -> Self {
        let (q1, median, q3) = quartiles(values);
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Self {
            n: values.len(),
            min,
            q1,
            median,
            q3,
            max,
        }
    }

    /// The value reported and compared: the best sample.
    pub fn best(&self, better: Better) -> f64 {
        match better {
            Better::Lower => self.min,
            Better::Higher => self.max,
        }
    }

    /// Distance from the best sample to the quartile next to it, as a
    /// share of the best: how far the best quarter of the run is from its
    /// best repetition. Small means a quarter of the run saw the quiet
    /// host and agrees with the best; large means the best is a lone
    /// sample, and every bound is judged against this.
    pub fn spread(&self, better: Better) -> f64 {
        let (best, quartile) = match better {
            Better::Lower => (self.min, self.q1),
            Better::Higher => (self.max, self.q3),
        };
        if best == 0.0 {
            return 0.0;
        }
        ((quartile - best) / best).abs()
    }

    /// The summary as a JSON object.
    pub fn to_json(self) -> Json {
        Json::Obj(vec![
            ("n".into(), Json::U64(self.n as u64)),
            ("min".into(), Json::F64(self.min)),
            ("q1".into(), Json::F64(self.q1)),
            ("median".into(), Json::F64(self.median)),
            ("q3".into(), Json::F64(self.q3)),
            ("max".into(), Json::F64(self.max)),
        ])
    }

    /// Inverse of [`Summary::to_json`].
    pub fn from_json(j: &Json) -> Option<Self> {
        let f = |k: &str| j.get(k)?.as_f64();
        Some(Self {
            n: j.get("n")?.as_u64()? as usize,
            min: f("min")?,
            q1: f("q1")?,
            median: f("median")?,
            q3: f("q3")?,
            max: f("max")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 3.0, 1.0, 4.0, 2.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[10.0, 20.0, 40.0]), (10.0, 20.0, 40.0));
    }

    #[test]
    fn best_and_spread_follow_the_direction() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.n, s.min, s.max), (10, 1.0, 10.0));
        assert_eq!(s.best(Better::Lower), 1.0);
        assert_eq!(s.best(Better::Higher), 10.0);
        // q1 = 2.75, q3 = 8.25
        assert!((s.spread(Better::Lower) - 1.75).abs() < 1e-12);
        assert!((s.spread(Better::Higher) - 0.175).abs() < 1e-12);
        assert_eq!(Summary::of(&[2.0]).spread(Better::Lower), 0.0);
        assert_eq!(Summary::of(&[0.0]).spread(Better::Lower), 0.0);
    }

    #[test]
    fn summary_round_trips_through_json() {
        let s = Summary::of(&[0.91, 1.07, 1.0, 1.13, 0.98]);
        let text = s.to_json().render();
        let back = Summary::from_json(&Json::parse(&text).expect("renders valid JSON"));
        assert_eq!(back, Some(s));
    }
}
