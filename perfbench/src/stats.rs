//! The benchmark's own derivations: nearest-rank percentiles, run
//! summaries, the highest-rate-at-SLO search and the failure share.

use serve::nearest_rank;

/// The latency limit every serving metric is held to: the 500 µs p99
/// SLO the repository's serve harnesses assess (`SLO_TARGET_P99_S`).
pub const SLO_P99_S: f64 = 500e-6;

/// A latency tail taken by exact nearest rank over every response.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Median latency in seconds.
    pub p50: f64,
    /// 99th-percentile latency in seconds.
    pub p99: f64,
    /// Number of latencies the percentiles were taken over.
    pub samples: usize,
}

/// Nearest-rank p50 and p99 over `latencies` (any order). Uses
/// [`serve::nearest_rank`], never a histogram, so the result cannot
/// depend on how the build folds bucket edges.
pub fn tail(latencies: &[f64]) -> Tail {
    let mut sorted = latencies.to_vec();
    sorted.sort_by(f64::total_cmp);
    Tail {
        p50: serve::percentile_sorted(&sorted, 50.0),
        p99: serve::percentile_sorted(&sorted, 99.0),
        samples: sorted.len(),
    }
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`
/// samples. A reported tail percentile must leave at least
/// [`MIN_BEYOND_TAIL`] of them.
pub fn samples_beyond(p: f64, n: usize) -> usize {
    n - nearest_rank(p, n)
}

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND_TAIL: usize = 10;

/// Median of a non-empty slice (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// (refused + errored) / attempted; 0 when nothing was attempted.
pub fn failed_frac(refused: u64, errored: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        (refused + errored) as f64 / attempted as f64
    }
}

/// Outcome of [`max_rate_at_slo`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateSearch {
    /// Highest grid rate found to meet the SLO.
    pub rate: f64,
    /// The next grid rate up, which was tried and missed the SLO.
    pub next_missed: f64,
    /// Rates tried (each one replay).
    pub tried: usize,
}

/// Finds the highest rate on the geometric grid `nominal · step^i`,
/// `i ∈ [-span, span]`, that meets the SLO, such that the next grid
/// rate up does not. `meets(rate)` replays the workload at `rate`.
///
/// The search assumes nothing about monotonicity: it bisects between
/// a grid point known to meet and one known to miss, so whatever it
/// returns meets the SLO and its upper neighbour misses. `nominal` is
/// tried first; `None` means even `nominal · step^-span` misses or
/// `nominal · step^span` still meets, i.e. the knee is off the grid.
pub fn max_rate_at_slo<E>(
    nominal: f64,
    step: f64,
    span: i32,
    mut meets: impl FnMut(f64) -> Result<bool, E>,
) -> Result<Option<RateSearch>, E> {
    assert!(step > 1.0 && span >= 1, "grid needs step > 1 and span >= 1");
    let rate = |i: i32| nominal * step.powi(i);
    let mut tried = 0usize;
    let mut probe = |i: i32, tried: &mut usize| {
        *tried += 1;
        meets(rate(i))
    };
    let (mut lo, mut hi) = if probe(0, &mut tried)? {
        if probe(span, &mut tried)? {
            return Ok(None);
        }
        (0, span)
    } else {
        if !probe(-span, &mut tried)? {
            return Ok(None);
        }
        (-span, 0)
    };
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if probe(mid, &mut tried)? {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(Some(RateSearch {
        rate: rate(lo),
        next_missed: rate(hi),
        tried,
    }))
}

/// Whether one replay meets the serving SLO: nothing refused or
/// errored, p99 within [`SLO_P99_S`], and no growing backlog — the
/// queue wait fitted over the stream rises by no more than one
/// batching deadline (`backlog_growth_s <= max_wait_s`). A stable
/// queue's wait has no trend; past the knee it climbs for as long as
/// arrivals last, and a longer stream would miss the SLO outright.
pub fn meets_slo(failed: u64, p99_s: f64, backlog_growth_s: f64, max_wait_s: f64) -> bool {
    failed == 0 && p99_s <= SLO_P99_S && backlog_growth_s <= max_wait_s
}

/// Least-squares rise of `y` over the span of `x`: the fitted slope
/// times `max(x) - min(x)`; 0 for fewer than two distinct `x`.
pub fn trend_rise(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    if points.len() < 2 {
        return 0.0;
    }
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = points.iter().map(|p| (p.0 - mx).powi(2)).sum();
    if sxx == 0.0 {
        return 0.0;
    }
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let (lo, hi) = points
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), p| {
            (lo.min(p.0), hi.max(p.0))
        });
    sxy / sxx * (hi - lo)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search_returns_a_meeting_rate_whose_upper_neighbour_misses() {
        for knee in [1.0e6, 2.5e6, 3.9e6, 7.0e6] {
            let meets = |r: f64| Ok::<_, ()>(r <= knee);
            let s = max_rate_at_slo(2.0e6, 1.02, 64, meets).unwrap().unwrap();
            assert!(s.rate <= knee, "{s:?} vs knee {knee}");
            assert!(s.next_missed > knee, "{s:?} vs knee {knee}");
            assert!((s.next_missed / s.rate - 1.02).abs() < 1e-9);
        }
    }

    #[test]
    fn search_holds_its_contract_on_a_non_monotone_oracle() {
        // Meets below 3 M except in a dip around 2.4–2.6 M.
        let meets = |r: f64| Ok::<_, ()>(r < 3.0e6 && !(2.4e6..2.6e6).contains(&r));
        let s = max_rate_at_slo(1.0e6, 1.03, 48, meets).unwrap().unwrap();
        assert!(meets(s.rate).unwrap());
        assert!(!meets(s.next_missed).unwrap());
    }

    #[test]
    fn search_reports_a_knee_off_the_grid() {
        let always = |_: f64| Ok::<_, ()>(true);
        assert_eq!(max_rate_at_slo(1.0, 1.1, 4, always).unwrap(), None);
        let never = |_: f64| Ok::<_, ()>(false);
        assert_eq!(max_rate_at_slo(1.0, 1.1, 4, never).unwrap(), None);
    }

    #[test]
    fn failed_frac_counts_refusals_against_attempts() {
        assert_eq!(failed_frac(0, 0, 0), 0.0);
        assert_eq!(failed_frac(25, 0, 100), 0.25);
        assert_eq!(failed_frac(3, 1, 8), 0.5);
    }

    #[test]
    fn tail_percentiles_leave_ten_samples_beyond_p99_from_1000_on() {
        assert!(samples_beyond(99.0, 999) < MIN_BEYOND_TAIL);
        for n in [1000, 1001, 1700, 2048, 4133] {
            assert!(samples_beyond(99.0, n) >= MIN_BEYOND_TAIL, "n = {n}");
        }
        let lat: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&lat);
        assert_eq!((t.p50, t.p99, t.samples), (500.0, 990.0, 1000));
    }

    #[test]
    fn trend_rise_is_the_fitted_growth_over_the_span() {
        let flat: Vec<(f64, f64)> = (0..100).map(|i| (f64::from(i), f64::from(i % 2))).collect();
        assert!(trend_rise(&flat).abs() < 0.05);
        let climbing: Vec<(f64, f64)> = (0..=100)
            .map(|i| (f64::from(i), 3.0 * f64::from(i)))
            .collect();
        assert!((trend_rise(&climbing) - 300.0).abs() < 1e-9);
        assert_eq!(trend_rise(&[(1.0, 2.0)]), 0.0);
        assert!(meets_slo(0, SLO_P99_S, 1e-6, 20e-6));
        assert!(!meets_slo(0, SLO_P99_S, 21e-6, 20e-6));
        assert!(!meets_slo(1, 0.0, 0.0, 20e-6));
        assert!(!meets_slo(0, 2.0 * SLO_P99_S, 0.0, 20e-6));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
