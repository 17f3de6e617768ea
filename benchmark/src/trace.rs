//! Spans the benchmark records around the layer calls it makes, and
//! around the anonymizer and fusion calls the program makes through the
//! trait objects the benchmark hands in.
//!
//! The recorder is process-global because those trait calls can run on
//! pool workers (generate_scenario anonymizes its sources in parallel),
//! where a span guard of `fred_obs` — orchestration-thread only — cannot
//! be opened. While a window is open, `fred_obs` collection is on too, so
//! the program's own counters (`harvest.*`, `mdav.*`, `release.*`) are
//! drained with the spans.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use fred_anon::{Anonymizer, Partition};
use fred_attack::FusionSystem;
use fred_data::Table;
use fred_web::AuxRecord;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call name, e.g. `"anon.mdav"`.
    pub name: &'static str,
    /// When the call started.
    pub start: Instant,
    /// When the call returned.
    pub end: Instant,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        ms(self.start, self.end)
    }
}

/// Milliseconds from `a` to `b` (0 when `b` is earlier).
pub fn ms(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e3
}

static RECORDING: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

fn spans() -> std::sync::MutexGuard<'static, Vec<Span>> {
    SPANS.lock().expect("a span recorder user panicked")
}

/// Runs `f`, recording it as span `name` while a window is open.
pub fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !RECORDING.load(Ordering::Relaxed) {
        return f();
    }
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    spans().push(Span { name, start, end });
    out
}

/// Opens a traced window: span recording and `fred_obs` collection on.
pub fn begin() {
    spans().clear();
    fred_obs::enable(false);
    RECORDING.store(true, Ordering::Relaxed);
}

/// Closes the window and returns what it recorded.
pub fn end() -> Window {
    RECORDING.store(false, Ordering::Relaxed);
    let mut spans = std::mem::take(&mut *spans());
    spans.sort_by_key(|s| s.start);
    Window {
        spans,
        obs: fred_obs::drain(),
    }
}

/// The spans and `fred_obs` trace of one window.
pub struct Window {
    /// Recorded spans, ascending by start.
    pub spans: Vec<Span>,
    /// The program's counters and histograms.
    pub obs: fred_obs::Trace,
}

impl Window {
    /// Every span called `name`, ascending by start.
    pub fn all(&self, name: &str) -> Vec<Span> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .copied()
            .collect()
    }

    /// The first span called `name`.
    pub fn first(&self, name: &str) -> Option<Span> {
        self.spans.iter().find(|s| s.name == name).copied()
    }

    /// Summed duration of every span called `name` (calls that ran
    /// concurrently on workers add up).
    pub fn total_ms(&self, name: &str) -> f64 {
        self.all(name).iter().map(Span::ms).fold(0.0, |a, b| a + b)
    }

    /// A counter of the program, as a float.
    pub fn counter(&self, name: &str) -> f64 {
        self.obs.counter_total(name) as f64
    }
}

/// The spans of `spans` that lie wholly inside `outer`.
pub fn within(outer: Span, spans: &[Span]) -> Vec<Span> {
    spans
        .iter()
        .filter(|s| s.start >= outer.start && s.end <= outer.end)
        .copied()
        .collect()
}

/// Wall time inside `outer` covered by at least one of `inner` (the
/// union of the intervals, clipped to `outer`): what `outer`'s child
/// calls account for, however many ran at once.
pub fn covered_ms(outer: Span, inner: &[Span]) -> f64 {
    let mut parts: Vec<(Instant, Instant)> = inner
        .iter()
        .map(|s| (s.start.max(outer.start), s.end.min(outer.end)))
        .filter(|(a, b)| a < b)
        .collect();
    parts.sort();
    let mut total = 0.0;
    let mut current: Option<(Instant, Instant)> = None;
    for (a, b) in parts {
        match current {
            Some((ca, cb)) if a <= cb => current = Some((ca, cb.max(b))),
            _ => {
                if let Some((ca, cb)) = current {
                    total += ms(ca, cb);
                }
                current = Some((a, b));
            }
        }
    }
    if let Some((ca, cb)) = current {
        total += ms(ca, cb);
    }
    total
}

/// An anonymizer or fusion system whose calls are recorded as
/// `anon.mdav` / `attack.fuse` spans. Untraced operations go through
/// the same wrapper, so traced and untraced operations run the same
/// code.
pub struct Traced<T>(pub T);

impl<A: Anonymizer> Anonymizer for Traced<A> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn partition(&self, table: &Table, k: usize) -> fred_anon::Result<Partition> {
        timed("anon.mdav", || self.0.partition(table, k))
    }
}

impl<F: FusionSystem> FusionSystem for Traced<F> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn estimate(
        &self,
        release: &Table,
        aux: &[Option<AuxRecord>],
    ) -> fred_attack::Result<Vec<f64>> {
        timed("attack.fuse", || self.0.estimate(release, aux))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn span(base: Instant, from_ms: u64, to_ms: u64) -> Span {
        Span {
            name: "x",
            start: base + Duration::from_millis(from_ms),
            end: base + Duration::from_millis(to_ms),
        }
    }

    #[test]
    fn covered_time_is_the_clipped_union() {
        let t = Instant::now();
        let outer = span(t, 10, 100);
        // Two overlapping children, one disjoint, one sticking out.
        let inner = [
            span(t, 20, 40),
            span(t, 30, 50),
            span(t, 60, 70),
            span(t, 90, 120),
        ];
        let covered = covered_ms(outer, &inner);
        assert!((covered - 50.0).abs() < 1e-6, "covered {covered}");
        assert_eq!(covered_ms(outer, &[span(t, 0, 5)]), 0.0);
    }
}
