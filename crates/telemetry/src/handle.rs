//! The [`Telemetry`] handle: one cheaply clonable object tying the
//! registry, histograms, link stats, and event trace together.

use crate::histogram::Histogram;
use crate::links::LinkStats;
use crate::profile::Profile;
use crate::registry::{Counter, Gauge, Registry};
use crate::sink::{HistogramSummary, Snapshot};
use crate::span::{SpanId, SpanRecord, SpanStore};
use crate::timeseries::{detect_congestion, CongestionEvent, DetectorConfig, Series, TsConfig};
use crate::trace::{Event, EventTrace};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};

/// Counter name the simulator stores its cycle count under; sinks use
/// it to derive per-link utilization.
pub const CYCLES_COUNTER: &str = "sim.cycles";

/// How much the handle records.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum TelemetryLevel {
    /// Counters, histograms, and link stats — no per-event trace.
    Summary,
    /// Everything, including the bounded event trace.
    Trace,
}

struct Inner {
    level: TelemetryLevel,
    registry: Registry,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    links: Mutex<LinkStats>,
    trace: Mutex<EventTrace>,
    spans: Mutex<SpanStore>,
    timeseries: Mutex<TsState>,
    profile: Mutex<Profile>,
}

/// Windowed-series state: off until [`Telemetry::enable_timeseries`]
/// sets a config. Runners record into local series and merge here once
/// at the end, like histograms and link stats.
#[derive(Default)]
struct TsState {
    config: Option<TsConfig>,
    detector: DetectorConfig,
    series: BTreeMap<String, Series>,
    congestion: Vec<CongestionEvent>,
}

/// A shared telemetry sink. Cloning is cheap (reference-counted); all
/// clones feed the same instruments.
///
/// Instrumented subsystems accept an `Option<Telemetry>`; `None` means
/// observability is off and must cost nothing on the hot path.
#[derive(Clone)]
pub struct Telemetry {
    inner: Arc<Inner>,
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Telemetry")
            .field("level", &self.inner.level)
            .finish_non_exhaustive()
    }
}

impl Telemetry {
    /// A summary-level handle: counters, histograms, link stats.
    pub fn summary() -> Self {
        Self::with_level(TelemetryLevel::Summary, 0)
    }

    /// A trace-level handle retaining at most `trace_capacity` events.
    pub fn with_trace(trace_capacity: usize) -> Self {
        Self::with_level(TelemetryLevel::Trace, trace_capacity)
    }

    fn with_level(level: TelemetryLevel, trace_capacity: usize) -> Self {
        Self {
            inner: Arc::new(Inner {
                level,
                registry: Registry::new(),
                histograms: Mutex::new(BTreeMap::new()),
                links: Mutex::new(LinkStats::new()),
                trace: Mutex::new(EventTrace::new(trace_capacity)),
                // Spans share the trace budget: the same capacity bounds
                // both, so a `with_trace(N)` handle holds O(N) memory.
                spans: Mutex::new(SpanStore::new(trace_capacity)),
                timeseries: Mutex::new(TsState::default()),
                profile: Mutex::new(Profile::new()),
            }),
        }
    }

    /// The recording level.
    pub fn level(&self) -> TelemetryLevel {
        self.inner.level
    }

    /// Whether per-event tracing is on. Producers should gate event
    /// construction on this — it is a single branch when off.
    #[inline]
    pub fn trace_enabled(&self) -> bool {
        self.inner.level == TelemetryLevel::Trace
    }

    /// The most events the trace retains (0 below trace level).
    pub fn trace_capacity(&self) -> usize {
        self.inner
            .trace
            .lock()
            .expect("invariant: trace mutex unpoisoned (holders never panic)")
            .capacity()
    }

    /// Counts `n` events discarded before they reached the trace, so a
    /// producer that buffers in bounded rings (the sharded simulator)
    /// keeps `events_dropped` exact.
    pub fn count_dropped_events(&self, n: u64) {
        self.inner
            .trace
            .lock()
            .expect("invariant: trace mutex unpoisoned (holders never panic)")
            .count_dropped(n);
    }

    /// The counter/gauge registry.
    pub fn registry(&self) -> &Registry {
        &self.inner.registry
    }

    /// The counter named `name` (created at zero if absent).
    pub fn counter(&self, name: &str) -> Counter {
        self.inner.registry.counter(name)
    }

    /// The gauge named `name` (created at zero if absent).
    pub fn gauge(&self, name: &str) -> Gauge {
        self.inner.registry.gauge(name)
    }

    /// Records `v` into the histogram named `name`.
    pub fn record(&self, name: &str, v: u64) {
        let mut hs = self
            .inner
            .histograms
            .lock()
            .expect("invariant: histogram mutex unpoisoned (holders never panic)");
        hs.entry(name.to_string()).or_default().record(v);
    }

    /// Merges a locally accumulated histogram into the one named `name`
    /// (hot loops accumulate privately, then merge once).
    pub fn merge_histogram(&self, name: &str, h: &Histogram) {
        let mut hs = self
            .inner
            .histograms
            .lock()
            .expect("invariant: histogram mutex unpoisoned (holders never panic)");
        hs.entry(name.to_string()).or_default().merge(h);
    }

    /// A clone of the histogram named `name`, if it exists.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.inner
            .histograms
            .lock()
            .expect("invariant: histogram mutex unpoisoned (holders never panic)")
            .get(name)
            .cloned()
    }

    /// Merges locally accumulated link stats into the shared map.
    pub fn merge_links(&self, ls: &LinkStats) {
        self.inner
            .links
            .lock()
            .expect("invariant: links mutex unpoisoned (holders never panic)")
            .merge(ls);
    }

    /// A clone of the accumulated link stats.
    pub fn links(&self) -> LinkStats {
        self.inner
            .links
            .lock()
            .expect("invariant: links mutex unpoisoned (holders never panic)")
            .clone()
    }

    /// Pushes an event if tracing is on; `make` is not even called
    /// otherwise.
    #[inline]
    pub fn event(&self, make: impl FnOnce() -> Event) {
        if self.trace_enabled() {
            self.inner
                .trace
                .lock()
                .expect("invariant: trace mutex unpoisoned (holders never panic)")
                .push(make());
        }
    }

    /// Retained trace events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.inner
            .trace
            .lock()
            .expect("invariant: trace mutex unpoisoned (holders never panic)")
            .to_vec()
    }

    /// Starts a causal span at logical time `start`. Returns `None` when
    /// tracing is off or the bounded span store is full (the drop is
    /// counted); all other span operations accept `None` gracefully via
    /// `Option` chaining at the call site.
    #[inline]
    pub fn span_start(&self, name: &str, parent: Option<SpanId>, start: u64) -> Option<SpanId> {
        if !self.trace_enabled() {
            return None;
        }
        self.inner
            .spans
            .lock()
            .expect("invariant: span mutex unpoisoned (holders never panic)")
            .start(name, parent, start)
    }

    /// Closes a span at logical time `end` (no-op for `None`).
    #[inline]
    pub fn span_end(&self, id: Option<SpanId>, end: u64) {
        if let Some(id) = id {
            self.inner
                .spans
                .lock()
                .expect("invariant: span mutex unpoisoned (holders never panic)")
                .end(id, end);
        }
    }

    /// Attaches a `key=value` attribute to a span (no-op for `None`).
    /// `value` is only materialised when the span exists.
    #[inline]
    pub fn span_attr(&self, id: Option<SpanId>, key: &str, value: impl Into<String>) {
        if let Some(id) = id {
            self.inner
                .spans
                .lock()
                .expect("invariant: span mutex unpoisoned (holders never panic)")
                .attr(id, key, value);
        }
    }

    /// All recorded spans, in id order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.inner
            .spans
            .lock()
            .expect("invariant: span mutex unpoisoned (holders never panic)")
            .spans()
            .to_vec()
    }

    /// Spans refused because the bounded store was full.
    pub fn spans_dropped(&self) -> u64 {
        self.inner
            .spans
            .lock()
            .expect("invariant: span mutex unpoisoned (holders never panic)")
            .dropped()
    }

    /// Turns windowed time-series sampling on. Runners that see
    /// `Some(config)` from [`Self::timeseries_config`] record per-cycle
    /// series and merge them back via [`Self::merge_series`].
    pub fn enable_timeseries(&self, config: TsConfig) {
        self.ts_state().config = Some(config);
    }

    /// Overrides the congestion-detector thresholds.
    pub fn set_detector(&self, detector: DetectorConfig) {
        self.ts_state().detector = detector;
    }

    /// The active time-series config, if sampling is on.
    pub fn timeseries_config(&self) -> Option<TsConfig> {
        self.ts_state().config
    }

    /// Merges a locally recorded series under `name`. Series names are
    /// unique per run (one producer each), so this inserts; merging the
    /// same name twice keeps the later series.
    pub fn merge_series(&self, name: &str, series: Series) {
        self.ts_state().series.insert(name.to_string(), series);
    }

    /// Runs congestion detection over every merged series, storing the
    /// events for [`Self::snapshot`] and appending them (severity-tagged)
    /// to the event trace. Call once, after all series are merged; the
    /// name-ordered walk makes the emitted order deterministic.
    pub fn detect_congestion(&self, total_cycles: u64) {
        let events = {
            let st = self.ts_state();
            if st.config.is_none() {
                return;
            }
            detect_congestion(&st.series, &st.detector, total_cycles)
        };
        for e in &events {
            self.event(|| Event::Congestion {
                kind: e.kind,
                severity: e.severity,
                subject: e.subject.clone(),
                window_start: e.window_start,
                window_end: e.window_end,
                peak: e.peak,
            });
        }
        self.ts_state().congestion = events;
    }

    /// Clones of every merged series, name-ordered.
    pub fn series(&self) -> BTreeMap<String, Series> {
        self.ts_state().series.clone()
    }

    /// Congestion events found by the last [`Self::detect_congestion`].
    pub fn congestion(&self) -> Vec<CongestionEvent> {
        self.ts_state().congestion.clone()
    }

    /// Merges a locally accumulated work-attribution profile into the
    /// shared one (runners count work units in plain locals, build a
    /// [`Profile`] once at the end, and merge it here — the hot path
    /// never touches this lock).
    pub fn merge_profile(&self, p: &Profile) {
        self.inner
            .profile
            .lock()
            .expect("invariant: profile mutex unpoisoned (holders never panic)")
            .merge(p);
    }

    /// A clone of the accumulated work-attribution profile.
    pub fn profile(&self) -> Profile {
        self.inner
            .profile
            .lock()
            .expect("invariant: profile mutex unpoisoned (holders never panic)")
            .clone()
    }

    fn ts_state(&self) -> std::sync::MutexGuard<'_, TsState> {
        self.inner
            .timeseries
            .lock()
            .expect("invariant: timeseries mutex unpoisoned (holders never panic)")
    }

    /// A point-in-time snapshot of every instrument, ready for a
    /// [`crate::Sink`].
    pub fn snapshot(&self) -> Snapshot {
        let counters = self.inner.registry.counters();
        let cycles = counters
            .iter()
            .find(|(n, _)| n == CYCLES_COUNTER)
            .map(|&(_, v)| v);
        let histograms = {
            let hs = self
                .inner
                .histograms
                .lock()
                .expect("invariant: histogram mutex unpoisoned (holders never panic)");
            hs.iter()
                .filter_map(|(n, h)| {
                    h.quantiles().map(|q| {
                        (
                            n.clone(),
                            HistogramSummary {
                                count: h.count(),
                                mean: h.mean(),
                                min: h.min().unwrap_or(0),
                                p50: q.p50,
                                p95: q.p95,
                                p99: q.p99,
                                max: q.max,
                            },
                        )
                    })
                })
                .collect()
        };
        let links = {
            let ls = self
                .inner
                .links
                .lock()
                .expect("invariant: links mutex unpoisoned (holders never panic)");
            ls.utilization_rows(cycles.unwrap_or(0))
        };
        let trace = self
            .inner
            .trace
            .lock()
            .expect("invariant: trace mutex unpoisoned (holders never panic)");
        let spans = self
            .inner
            .spans
            .lock()
            .expect("invariant: span mutex unpoisoned (holders never panic)");
        let ts = self.ts_state();
        Snapshot {
            counters,
            gauges: self.inner.registry.gauges(),
            histograms,
            links,
            cycles,
            events: trace.to_vec(),
            events_dropped: trace.dropped(),
            spans: spans.spans().to_vec(),
            spans_dropped: spans.dropped(),
            timeseries: ts.series.clone(),
            congestion: ts.congestion.clone(),
            profile: self.profile(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_instruments() {
        let t = Telemetry::summary();
        let t2 = t.clone();
        t.counter("x").inc();
        t2.counter("x").add(2);
        assert_eq!(t.counter("x").get(), 3);
        t.record("lat", 5);
        t2.record("lat", 9);
        assert_eq!(t.histogram("lat").unwrap().count(), 2);
    }

    #[test]
    fn events_are_gated_by_level() {
        let s = Telemetry::summary();
        let mut called = false;
        s.event(|| {
            called = true;
            Event::RoundStarted {
                protocol: "x".into(),
                round: 1,
            }
        });
        assert!(!called, "summary level must not build events");
        assert!(s.events().is_empty());

        let t = Telemetry::with_trace(8);
        t.event(|| Event::RoundStarted {
            protocol: "x".into(),
            round: 1,
        });
        assert_eq!(t.events().len(), 1);
    }

    #[test]
    fn spans_are_gated_by_level() {
        let s = Telemetry::summary();
        assert!(s.span_start("packet", None, 0).is_none());
        assert_eq!(s.spans_dropped(), 0, "disabled, not dropped");

        let t = Telemetry::with_trace(8);
        let root = t.span_start("packet #0", None, 0);
        assert!(root.is_some());
        let hop = t.span_start("hop", root, 1);
        t.span_attr(hop, "queue", "2");
        t.span_end(hop, 3);
        t.span_end(root, 5);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, root);
        assert_eq!(spans[1].attr("queue"), Some("2"));
        assert_eq!(spans[0].end, Some(5));
        // `None` ids (dropped/disabled) are silently ignored.
        t.span_end(None, 9);
        t.span_attr(None, "k", "v");
    }

    #[test]
    fn snapshot_collects_everything() {
        let t = Telemetry::with_trace(4);
        t.counter(CYCLES_COUNTER).add(100);
        t.counter("sim.delivered").add(7);
        t.gauge("in_flight").set(3);
        t.record("sim.latency", 12);
        let mut ls = LinkStats::new();
        ls.record_forward(0, 1, 50);
        t.merge_links(&ls);
        t.event(|| Event::PacketHop {
            id: 0,
            from: 0,
            to: 1,
            cycle: 3,
        });
        let sp = t.span_start("packet #0", None, 0);
        t.span_end(sp, 4);
        let s = t.snapshot();
        assert_eq!(s.cycles, Some(100));
        assert_eq!(s.counters.len(), 2);
        assert_eq!(s.gauges, vec![("in_flight".to_string(), 3)]);
        assert_eq!(s.histograms.len(), 1);
        assert_eq!(s.links.len(), 1);
        assert!((s.links[0].utilization - 0.5).abs() < 1e-12);
        assert_eq!(s.events.len(), 1);
        assert_eq!(s.spans.len(), 1);
        assert_eq!(s.spans_dropped, 0);
    }
}
