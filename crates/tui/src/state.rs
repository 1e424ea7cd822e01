//! The dashboard model: a fold over bus events. `DashboardState` carries
//! everything the renderer needs and nothing else — no wall clock, no
//! handles — so `render(state) -> Frame` stays a pure function and the
//! same event log always produces byte-identical frames.

use re2x_obs::{BusEvent, LatencyHistogram, SpanAgg, TraceEvent};
use std::collections::BTreeMap;
use std::time::Duration;

/// Per-tenant panel data, assembled from `serve.*{tenant="…"}` metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantPanel {
    /// Tenant id.
    pub tenant: String,
    /// Currently active sessions (`serve.sessions_active` gauge).
    pub active: f64,
    /// Sessions admitted so far.
    pub admitted: u64,
    /// Sessions completed successfully.
    pub completed: u64,
    /// Sessions that failed (excluding budget exhaustion and panics).
    pub failed: u64,
    /// Sessions rejected at admission (all reasons folded).
    pub rejected: u64,
    /// Sessions cut off by their query budget.
    pub budget_exhausted: u64,
    /// Worker panics attributed to this tenant.
    pub worker_panics: u64,
    /// ReOLAP rounds observed across phases.
    pub rounds: u64,
    /// Queue-wait distribution (`serve.queue_wait` histogram).
    pub queue_wait: LatencyHistogram,
    /// Per-round latency distribution (`serve.round_latency` histogram).
    pub round_latency: LatencyHistogram,
}

/// Shard-layer panel data, present when the workload runs sharded.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardPanel {
    /// Fact-triple skew across shards (`shard_skew` gauge).
    pub skew: f64,
    /// Queries answered by scatter-gather.
    pub scatter: u64,
    /// Queries that fell back to a single replica.
    pub fallback: u64,
}

/// Everything the renderer draws, folded incrementally from bus events.
#[derive(Debug, Clone, Default)]
pub struct DashboardState {
    /// Largest event offset seen — the dashboard's notion of "now".
    pub clock: Duration,
    /// Total events applied.
    pub events_seen: u64,
    /// Events the subscription dropped (producer outran the consumer).
    pub dropped: u64,
    /// Spans currently open (enters minus exits, saturating).
    pub open_spans: u64,
    /// `SELECT` queries seen.
    pub selects: u64,
    /// `ASK` queries seen.
    pub asks: u64,
    /// Keyword lookups seen.
    pub keywords: u64,
    /// Summed endpoint time of all queries.
    pub endpoint_busy: Duration,
    /// Endpoint latency distribution.
    pub endpoint_latency: LatencyHistogram,
    /// Cache hits seen.
    pub cache_hits: u64,
    /// Cache misses seen.
    pub cache_misses: u64,
    spans: BTreeMap<String, SpanAgg>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    observations: BTreeMap<String, LatencyHistogram>,
}

impl DashboardState {
    /// An empty dashboard.
    pub fn new() -> DashboardState {
        DashboardState::default()
    }

    /// Folds one event in.
    pub fn apply(&mut self, event: &BusEvent) {
        self.events_seen += 1;
        self.clock = self.clock.max(event.at());
        match event {
            BusEvent::Trace(trace) => match trace {
                TraceEvent::Enter { .. } => self.open_spans += 1,
                TraceEvent::Exit {
                    path,
                    wall,
                    self_time,
                    ..
                } => {
                    self.open_spans = self.open_spans.saturating_sub(1);
                    let agg = self.spans.entry(path.clone()).or_insert_with(|| SpanAgg {
                        path: path.clone(),
                        ..SpanAgg::default()
                    });
                    agg.count += 1;
                    agg.wall += *wall;
                    agg.self_time += *self_time;
                }
                TraceEvent::Query { kind, latency, .. } => {
                    match kind {
                        re2x_obs::QueryKind::Select => self.selects += 1,
                        re2x_obs::QueryKind::Ask => self.asks += 1,
                        re2x_obs::QueryKind::Keyword => self.keywords += 1,
                    }
                    self.endpoint_busy += *latency;
                    self.endpoint_latency.record(*latency);
                }
                TraceEvent::Cache { hit, .. } => {
                    if *hit {
                        self.cache_hits += 1;
                    } else {
                        self.cache_misses += 1;
                    }
                }
            },
            BusEvent::Counter { name, delta, .. } => {
                *self.counters.entry(name.clone()).or_insert(0) += delta;
            }
            BusEvent::Gauge { name, value, .. } => {
                self.gauges.insert(name.clone(), *value);
            }
            BusEvent::Observe { name, latency, .. } => {
                self.observations
                    .entry(name.clone())
                    .or_default()
                    .record(*latency);
            }
        }
    }

    /// Folds a batch of events in.
    pub fn apply_all(&mut self, events: &[BusEvent]) {
        for event in events {
            self.apply(event);
        }
    }

    /// Records the subscription's drop counter (an absolute value read
    /// from [`re2x_obs::EventStream::dropped_events`], not a delta).
    pub fn note_dropped(&mut self, total: u64) {
        self.dropped = self.dropped.max(total);
    }

    /// Total queries of all kinds.
    pub fn queries(&self) -> u64 {
        self.selects + self.asks + self.keywords
    }

    /// Cache-eviction count, when the workload publishes
    /// `cache.evictions` (the caching endpoint does).
    pub fn cache_evictions(&self) -> u64 {
        self.counter("cache.evictions")
    }

    /// Current value of a folded counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of a folded gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Folded histogram for an observed metric name.
    pub fn observation(&self, name: &str) -> Option<&LatencyHistogram> {
        self.observations.get(name)
    }

    /// Span aggregates sorted by path (tree order).
    pub fn span_aggs(&self) -> Vec<SpanAgg> {
        self.spans.values().cloned().collect()
    }

    /// Assembles per-tenant panels from every `serve.*{tenant="…"}`
    /// metric seen so far, sorted by tenant id.
    pub fn tenants(&self) -> Vec<TenantPanel> {
        let mut panels: BTreeMap<String, TenantPanel> = BTreeMap::new();
        for (name, value) in &self.counters {
            let Some((base, labels)) = parse_labeled(name) else {
                continue;
            };
            let Some(tenant) = label_value(&labels, "tenant") else {
                continue;
            };
            let entry = panels.entry(tenant.clone()).or_insert_with(|| TenantPanel {
                tenant,
                ..TenantPanel::default()
            });
            match base {
                "serve.sessions_admitted" => entry.admitted += value,
                "serve.sessions_completed" => entry.completed += value,
                "serve.sessions_failed" => entry.failed += value,
                "serve.sessions_rejected" => entry.rejected += value,
                "serve.sessions_budget_exhausted" => entry.budget_exhausted += value,
                "serve.worker_panics" => entry.worker_panics += value,
                "serve.rounds" => entry.rounds += value,
                _ => {}
            }
        }
        for (name, value) in &self.gauges {
            let Some((base, labels)) = parse_labeled(name) else {
                continue;
            };
            if base != "serve.sessions_active" {
                continue;
            }
            let Some(tenant) = label_value(&labels, "tenant") else {
                continue;
            };
            let entry = panels.entry(tenant.clone()).or_insert_with(|| TenantPanel {
                tenant,
                ..TenantPanel::default()
            });
            entry.active = *value;
        }
        for (name, hist) in &self.observations {
            let Some((base, labels)) = parse_labeled(name) else {
                continue;
            };
            let Some(tenant) = label_value(&labels, "tenant") else {
                continue;
            };
            let entry = panels.entry(tenant.clone()).or_insert_with(|| TenantPanel {
                tenant,
                ..TenantPanel::default()
            });
            match base {
                "serve.queue_wait" => entry.queue_wait.merge(hist),
                "serve.round_latency" => entry.round_latency.merge(hist),
                _ => {}
            }
        }
        panels.into_values().collect()
    }

    /// The shard panel, when any shard metric was seen.
    pub fn shards(&self) -> Option<ShardPanel> {
        let skew = self.gauge("shard_skew");
        let scatter = self.counter("sharded_scatter_queries");
        let fallback = self.counter("sharded_fallback_queries");
        if skew.is_none() && scatter == 0 && fallback == 0 {
            return None;
        }
        Some(ShardPanel {
            skew: skew.unwrap_or(0.0),
            scatter,
            fallback,
        })
    }
}

/// Splits a labeled metric name (`serve.rounds{tenant="t0",phase="x"}`)
/// into its base and label pairs. Returns `None` for unlabeled names.
/// Understands the `\"` and `\\` escapes [`re2x_obs::label`] emits.
pub fn parse_labeled(name: &str) -> Option<(&str, Vec<(String, String)>)> {
    let open = name.find('{')?;
    let inner = name.get(open + 1..)?.strip_suffix('}')?;
    let base = name.get(..open)?;
    let mut labels = Vec::new();
    let mut chars = inner.chars().peekable();
    loop {
        let mut key = String::new();
        while let Some(&c) = chars.peek() {
            if c == '=' {
                break;
            }
            key.push(c);
            chars.next();
        }
        chars.next()?; // '='
        if chars.next()? != '"' {
            return None;
        }
        let mut value = String::new();
        loop {
            match chars.next()? {
                '"' => break,
                '\\' => value.push(chars.next()?),
                c => value.push(c),
            }
        }
        labels.push((key, value));
        match chars.next() {
            Some(',') => continue,
            Some(_) => return None,
            None => break,
        }
    }
    Some((base, labels))
}

fn label_value(labels: &[(String, String)], key: &str) -> Option<String> {
    labels
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_labeled_handles_escapes_and_multiple_labels() {
        let (base, labels) =
            parse_labeled("serve.rounds{tenant=\"t\\\"0\",phase=\"synthesize\"}").expect("parses");
        assert_eq!(base, "serve.rounds");
        assert_eq!(
            labels,
            vec![
                ("tenant".to_owned(), "t\"0".to_owned()),
                ("phase".to_owned(), "synthesize".to_owned()),
            ]
        );
        assert_eq!(parse_labeled("plain"), None);
        assert_eq!(parse_labeled("broken{tenant=t0}"), None);
    }

    #[test]
    fn state_folds_spans_queries_and_cache() {
        let mut state = DashboardState::new();
        state.apply(&BusEvent::Trace(TraceEvent::Enter {
            span: 1,
            parent: None,
            path: "root".to_owned(),
            name: "root".to_owned(),
            thread: 0,
            at: Duration::from_micros(1),
            fields: Vec::new(),
        }));
        assert_eq!(state.open_spans, 1);
        state.apply(&BusEvent::Trace(TraceEvent::Query {
            path: "root".to_owned(),
            kind: re2x_obs::QueryKind::Select,
            thread: 0,
            at: Duration::from_micros(5),
            latency: Duration::from_micros(4),
        }));
        state.apply(&BusEvent::Trace(TraceEvent::Cache {
            path: "root".to_owned(),
            hit: true,
            thread: 0,
            at: Duration::from_micros(6),
        }));
        state.apply(&BusEvent::Trace(TraceEvent::Exit {
            span: 1,
            path: "root".to_owned(),
            thread: 0,
            at: Duration::from_micros(9),
            wall: Duration::from_micros(8),
            self_time: Duration::from_micros(8),
            fields: Vec::new(),
        }));
        assert_eq!(state.open_spans, 0);
        assert_eq!(state.queries(), 1);
        assert_eq!(state.cache_hits, 1);
        assert_eq!(state.clock, Duration::from_micros(9));
        assert_eq!(state.events_seen, 4);
        let aggs = state.span_aggs();
        assert_eq!(aggs.len(), 1);
        assert_eq!(aggs[0].wall, Duration::from_micros(8));
    }

    #[test]
    fn tenant_panels_assemble_from_labeled_metrics() {
        let mut state = DashboardState::new();
        let at = Duration::from_micros(1);
        state.apply(&BusEvent::Counter {
            name: "serve.sessions_admitted{tenant=\"adhoc\"}".to_owned(),
            delta: 3,
            at,
        });
        state.apply(&BusEvent::Counter {
            name: "serve.sessions_rejected{tenant=\"adhoc\",reason=\"queue_full\"}".to_owned(),
            delta: 1,
            at,
        });
        state.apply(&BusEvent::Counter {
            name: "serve.rounds{tenant=\"adhoc\",phase=\"execute\"}".to_owned(),
            delta: 2,
            at,
        });
        state.apply(&BusEvent::Gauge {
            name: "serve.sessions_active{tenant=\"adhoc\"}".to_owned(),
            value: 2.0,
            at,
        });
        state.apply(&BusEvent::Observe {
            name: "serve.queue_wait{tenant=\"adhoc\"}".to_owned(),
            latency: Duration::from_micros(30),
            at,
        });
        state.apply(&BusEvent::Counter {
            name: "serve.sessions_admitted{tenant=\"analytics\"}".to_owned(),
            delta: 1,
            at,
        });
        let tenants = state.tenants();
        assert_eq!(tenants.len(), 2);
        assert_eq!(tenants[0].tenant, "adhoc");
        assert_eq!(tenants[0].admitted, 3);
        assert_eq!(tenants[0].rejected, 1);
        assert_eq!(tenants[0].rounds, 2);
        assert_eq!(tenants[0].active, 2.0);
        assert_eq!(tenants[0].queue_wait.count(), 1);
        assert_eq!(tenants[1].tenant, "analytics");
    }

    #[test]
    fn shard_panel_appears_only_when_sharded() {
        let mut state = DashboardState::new();
        assert_eq!(state.shards(), None);
        state.apply(&BusEvent::Gauge {
            name: "shard_skew".to_owned(),
            value: 1.25,
            at: Duration::ZERO,
        });
        state.apply(&BusEvent::Counter {
            name: "sharded_scatter_queries".to_owned(),
            delta: 7,
            at: Duration::ZERO,
        });
        let shards = state.shards().expect("present");
        assert_eq!(shards.skew, 1.25);
        assert_eq!(shards.scatter, 7);
    }
}
