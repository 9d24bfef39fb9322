//! Visibility lag of an embedded system, measured from outside.
//!
//! While a producer inserts, an observer thread reads the system's
//! visible-tuple count (`Waterwheel::total_visible`) about once a
//! millisecond. Every [`MARK_EVERY`] tuples the producer marks the time
//! its `n`-th insert returned; that mark's lag is the time until the
//! observer first read at least `n` visible tuples. The count is the
//! system's own, so tuples queued in a dispatcher batch, in the ingest
//! queue or in a chunk being sealed all count as not yet visible.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use waterwheel_server::Waterwheel;

/// Tuples between two marks of the producer.
pub const MARK_EVERY: usize = 128;
/// Pause between two readings of the observer.
const POLL: Duration = Duration::from_millis(1);

/// Reads the visible count until `stop` is set, then once more; returns
/// each reading with the time it was complete.
pub fn observe(ww: &Waterwheel, stop: &AtomicBool) -> Vec<(Instant, usize)> {
    let mut seen = Vec::new();
    loop {
        let done = stop.load(Ordering::Acquire);
        let n = ww.total_visible();
        seen.push((Instant::now(), n));
        if done {
            return seen;
        }
        std::thread::sleep(POLL);
    }
}

/// Runs `produce` beside an observer and returns its result with one lag
/// sample, in milliseconds, per mark it returned.
pub fn observed<R>(
    ww: &Waterwheel,
    produce: impl FnOnce() -> (R, Vec<(Instant, usize)>),
) -> (R, Vec<f64>) {
    let stop = AtomicBool::new(false);
    let (out, marks, seen) = std::thread::scope(|s| {
        let observer = s.spawn(|| observe(ww, &stop));
        let (out, marks) = produce();
        stop.store(true, Ordering::Release);
        (out, marks, observer.join().expect("observer panicked"))
    });
    (out, lags_ms(&marks, &seen))
}

/// The lag of each mark `(t, n)`: from `t` to the first reading at or
/// after `t` that counts at least `n` tuples. A mark no reading reached
/// counts until the last reading, a lower bound, so lost visibility raises
/// the lag instead of dropping out.
pub fn lags_ms(marks: &[(Instant, usize)], seen: &[(Instant, usize)]) -> Vec<f64> {
    let Some(&(last, _)) = seen.last() else {
        return Vec::new();
    };
    marks
        .iter()
        .map(|&(t, n)| {
            let from = seen.partition_point(|&(s, _)| s < t);
            let at = seen[from..]
                .iter()
                .find(|&&(_, c)| c >= n)
                .map_or(last, |&(s, _)| s);
            at.saturating_duration_since(t).as_secs_f64() * 1e3
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lag_runs_to_the_first_reading_that_counts_the_mark() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let seen = [(at(1), 0), (at(3), 256), (at(5), 256), (at(9), 512)];
        let marks = [(at(0), 256), (at(2), 512), (at(4), 256)];
        let lags = lags_ms(&marks, &seen);
        assert_eq!(lags.len(), 3);
        assert!((lags[0] - 3.0).abs() < 1e-6);
        assert!((lags[1] - 7.0).abs() < 1e-6);
        assert!((lags[2] - 1.0).abs() < 1e-6);
        // A mark never reached counts until the last reading.
        let lags = lags_ms(&[(at(2), 1_000)], &seen);
        assert!((lags[0] - 7.0).abs() < 1e-6);
    }
}
