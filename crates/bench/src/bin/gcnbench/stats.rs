//! Order statistics over timing samples.

/// Samples a percentile needs beyond it before it is worth reporting.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// sample with at least `p` percent of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice or `p` outside `(0, 100]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of range");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Whether `n` samples leave at least [`MIN_BEYOND`] beyond percentile `p`.
pub fn supports(n: usize, p: f64) -> bool {
    let at_or_below = (p / 100.0 * n as f64).ceil() as usize;
    n.saturating_sub(at_or_below) >= MIN_BEYOND
}

/// `samples` sorted ascending (NaN-free by construction: all are timings).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Median of unsorted samples; 0 for none.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let s = sorted(samples.to_vec());
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Median of the faster half of a run's repeated set-ups (with five, the
/// second fastest): the slower ones met the host's interference.
pub fn quiet_half_median(samples: &[f64]) -> f64 {
    let s = sorted(samples.to_vec());
    median(&s[..s.len().div_ceil(2)])
}

/// Seconds of the measured loop one window covers.
pub const WINDOW_S: f64 = 0.5;
/// Share of a run's windows its timings are taken over: the quietest.
pub const QUIET_SHARE: f64 = 0.25;

/// Consecutive operations of the measured loop: their times, and how long
/// the loop took to complete them.
#[derive(Debug, Clone, PartialEq)]
pub struct Window {
    pub ms: Vec<f64>,
    pub seconds: f64,
}

/// Cuts `(at, ms)` events, `at` ascending seconds since the loop started,
/// into windows that each close at the first event [`WINDOW_S`] or more
/// after the previous one closed. The unfinished last window is dropped
/// unless it is the only one.
pub fn windows(events: impl IntoIterator<Item = (f64, f64)>) -> Vec<Window> {
    let mut out = Vec::new();
    let (mut ms, mut cut, mut last) = (Vec::new(), 0.0, 0.0);
    for (at, sample) in events {
        ms.push(sample);
        last = at;
        if at - cut >= WINDOW_S {
            out.push(Window {
                ms: std::mem::take(&mut ms),
                seconds: at - cut,
            });
            cut = at;
        }
    }
    if out.is_empty() && !ms.is_empty() {
        out.push(Window {
            ms,
            seconds: last - cut,
        });
    }
    out
}

/// The quiet part of a run: the [`QUIET_SHARE`] of its windows with the
/// lowest median, plus the next quietest until they hold [`MIN_BEYOND`]
/// samples beyond their p90. Returns their samples, sorted, and the seconds
/// they covered.
///
/// The sizing host's speed moves by a factor of 1.4 for seconds at a time
/// (README, "Quiet windows"); a run's slower windows measure the host's
/// other tenants, and a change to this program moves every window alike.
pub fn quiet(windows: Vec<Window>) -> (Vec<f64>, f64) {
    let mut ranked: Vec<(f64, Window)> = windows.into_iter().map(|w| (median(&w.ms), w)).collect();
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
    let share = (ranked.len() as f64 * QUIET_SHARE).ceil() as usize;
    let (mut ms, mut seconds) = (Vec::new(), 0.0);
    for (i, (_, w)) in ranked.into_iter().enumerate() {
        if i >= share.max(1) && supports(ms.len(), 90.0) {
            break;
        }
        ms.extend(w.ms);
        seconds += w.seconds;
    }
    (sorted(ms), seconds)
}

/// `(q1, median, q3)` by the exclusive method Python's
/// `statistics.quantiles(values, n=4)` uses, so spreads printed here match
/// the ones an outside checker computes. Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64, f64)> {
    if samples.len() < 2 {
        return None;
    }
    let s = sorted(samples.to_vec());
    let n = s.len();
    let at = |i: usize| {
        // Position i*(n+1)/4 in 1-based ranks, linearly interpolated and
        // clamped to the sample range.
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    Some((at(1), at(2), at(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 90.0), 90.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.5), 1.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 50.0), 2.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert!(supports(100, 90.0));
        assert!(!supports(99, 90.0));
        assert!(supports(1000, 99.0));
        assert!(!supports(999, 99.0));
        assert!(supports(20, 50.0));
        assert!(!supports(19, 50.0));
    }

    #[test]
    fn windows_close_at_the_first_event_past_their_length() {
        // One event every 0.2 s: windows close at 0.6, 1.2, 1.8; the two
        // events after that are an unfinished window and are dropped.
        let events = (1..=11).map(|i| (f64::from(i) * 0.2, f64::from(i)));
        let w = windows(events);
        assert_eq!(w.len(), 3);
        assert_eq!(w[0].ms, vec![1.0, 2.0, 3.0]);
        assert_eq!(w[2].ms, vec![7.0, 8.0, 9.0]);
        assert!(w.iter().all(|w| (w.seconds - 0.6).abs() < 1e-9));
        // A run shorter than one window is one window.
        let short = windows([(0.1, 5.0), (0.2, 6.0)]);
        assert_eq!(short.len(), 1);
        assert_eq!(short[0].ms, vec![5.0, 6.0]);
        assert!((short[0].seconds - 0.2).abs() < 1e-9);
        assert!(windows([]).is_empty());
    }

    #[test]
    fn quiet_keeps_the_fastest_quarter_and_enough_for_p90() {
        let window = |ms: f64, n: usize| Window {
            ms: vec![ms; n],
            seconds: 1.0,
        };
        // Eight windows of 60: the quarter is the two fastest, 120 samples.
        let eight: Vec<Window> = [8.0, 3.0, 5.0, 1.0, 7.0, 2.0, 6.0, 4.0]
            .iter()
            .map(|&ms| window(ms, 60))
            .collect();
        let (ms, seconds) = quiet(eight.clone());
        assert_eq!(ms.len(), 120);
        assert_eq!((ms[0], ms[119], seconds), (1.0, 2.0, 2.0));
        // Eight windows of 30: two would leave 6 beyond p90, so it takes
        // four (120 samples, 12 beyond).
        let small: Vec<Window> = eight.iter().map(|w| window(w.ms[0], 30)).collect();
        let (ms, seconds) = quiet(small);
        assert_eq!((ms.len(), ms[119], seconds), (120, 4.0, 4.0));
        // Too few samples altogether: everything.
        let (ms, _) = quiet(vec![window(2.0, 3), window(1.0, 3)]);
        assert_eq!(ms, vec![1.0, 1.0, 1.0, 2.0, 2.0, 2.0]);
        assert_eq!(quiet(Vec::new()), (Vec::new(), 0.0));
    }

    #[test]
    fn set_up_time_is_the_median_of_the_faster_half() {
        assert_eq!(quiet_half_median(&[5.0, 1.0, 4.0, 2.0, 3.0]), 2.0);
        assert_eq!(quiet_half_median(&[4.0, 1.0, 2.0, 3.0]), 1.5);
        assert_eq!(quiet_half_median(&[7.0]), 7.0);
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
