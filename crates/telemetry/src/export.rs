//! Immutable snapshots of a capture and the three exporters: JSON snapshot
//! (`voltsense-metrics-v1` schema), Chrome trace-event file, and a
//! plain-text summary table.

/// Percentile summary of one histogram.
#[derive(Debug, Clone)]
pub struct HistogramSummary {
    pub name: String,
    pub unit: String,
    pub count: u64,
    pub min: f64,
    pub max: f64,
    pub mean: f64,
    pub p50: f64,
    pub p95: f64,
    pub p99: f64,
}

/// One span interval. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct SpanSummary {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index into the snapshot's span list of the enclosing span.
    pub parent: Option<usize>,
    pub thread: usize,
}

impl SpanSummary {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One timestamped event with its numeric fields.
#[derive(Debug, Clone)]
pub struct EventSummary {
    pub name: String,
    pub at_ns: u64,
    pub thread: usize,
    pub fields: Vec<(String, f64)>,
}

impl EventSummary {
    /// Value of a named field, if present.
    pub fn field(&self, name: &str) -> Option<f64> {
        self.fields.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
    }
}

/// One call path's exact aggregate over its closed spans ([`crate::profile`]).
#[derive(Debug, Clone)]
pub struct StackSummary {
    /// Span names from the outermost enclosing span down to this one.
    pub stack: Vec<String>,
    pub calls: u64,
    pub total_ns: u64,
    /// `total_ns` minus the direct children's `total_ns`, floored at 0.
    pub self_ns: u64,
    /// Bytes and calls the allocation accountant counted on the span's
    /// thread while it was open (zero outside a counting window).
    pub alloc_bytes: u64,
    pub alloc_calls: u64,
}

/// Immutable copy of everything a recorder captured.
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub suite: String,
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, f64)>,
    pub histograms: Vec<HistogramSummary>,
    pub spans: Vec<SpanSummary>,
    pub events: Vec<EventSummary>,
    /// The exact per-call-path span fold, by descending `self_ns`, then path.
    pub stacks: Vec<StackSummary>,
}

impl Snapshot {
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
    }

    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
    }

    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// All events with the given name, in record order.
    pub fn events_named<'a>(&'a self, name: &str) -> Vec<&'a EventSummary> {
        self.events.iter().filter(|e| e.name == name).collect()
    }

    /// The given field of every event with the given name, in record order.
    pub fn event_series(&self, name: &str, field: &str) -> Vec<f64> {
        self.events
            .iter()
            .filter(|e| e.name == name)
            .filter_map(|e| e.field(field))
            .collect()
    }

    /// Serialize to the `voltsense-metrics-v1` JSON schema (see DESIGN.md §7).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n  \"schema\": \"voltsense-metrics-v1\",\n  \"suite\": ");
        push_json_string(&mut out, &self.suite);
        out.push_str(",\n  \"metrics\": [\n");
        let mut first = true;
        for (name, value) in &self.counters {
            push_metric_sep(&mut out, &mut first);
            out.push_str("    {\"kind\": \"counter\", \"name\": ");
            push_json_string(&mut out, name);
            out.push_str(", \"value\": ");
            out.push_str(&fmt_f64(*value as f64));
            out.push_str(", \"unit\": \"count\"}");
        }
        for (name, value) in &self.gauges {
            push_metric_sep(&mut out, &mut first);
            out.push_str("    {\"kind\": \"gauge\", \"name\": ");
            push_json_string(&mut out, name);
            out.push_str(", \"value\": ");
            out.push_str(&fmt_f64(*value));
            out.push_str(", \"unit\": \"value\"}");
        }
        for h in &self.histograms {
            push_metric_sep(&mut out, &mut first);
            out.push_str("    {\"kind\": \"histogram\", \"name\": ");
            push_json_string(&mut out, &h.name);
            out.push_str(", \"value\": ");
            out.push_str(&fmt_f64(h.p50));
            out.push_str(", \"unit\": ");
            push_json_string(&mut out, &h.unit);
            out.push_str(&format!(
                ", \"count\": {}, \"min\": {}, \"max\": {}, \"mean\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
                h.count,
                fmt_f64(h.min),
                fmt_f64(h.max),
                fmt_f64(h.mean),
                fmt_f64(h.p50),
                fmt_f64(h.p95),
                fmt_f64(h.p99)
            ));
        }
        out.push_str("\n  ],\n  \"spans\": [\n");
        let mut first = true;
        for s in &self.spans {
            push_metric_sep(&mut out, &mut first);
            out.push_str("    {\"name\": ");
            push_json_string(&mut out, &s.name);
            out.push_str(&format!(
                ", \"start_ns\": {}, \"dur_ns\": {}, \"thread\": {}, \"parent\": ",
                s.start_ns,
                s.duration_ns(),
                s.thread
            ));
            match s.parent {
                Some(p) => out.push_str(&p.to_string()),
                None => out.push_str("null"),
            }
            out.push('}');
        }
        out.push_str("\n  ],\n  \"events\": [\n");
        let mut first = true;
        for e in &self.events {
            push_metric_sep(&mut out, &mut first);
            out.push_str("    {\"name\": ");
            push_json_string(&mut out, &e.name);
            out.push_str(&format!(", \"at_ns\": {}, \"thread\": {}, \"fields\": {{", e.at_ns, e.thread));
            for (i, (k, v)) in e.fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                push_json_string(&mut out, k);
                out.push_str(": ");
                out.push_str(&fmt_f64(*v));
            }
            out.push_str("}}");
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Serialize to the Chrome trace-event format understood by
    /// `chrome://tracing` and <https://ui.perfetto.dev>. Spans become
    /// complete (`"ph": "X"`) events; telemetry events become instant
    /// (`"ph": "i"`) events carrying their fields as args.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        let mut first = true;
        for s in &self.spans {
            push_metric_sep(&mut out, &mut first);
            out.push_str("  {\"name\": ");
            push_json_string(&mut out, &s.name);
            out.push_str(&format!(
                ", \"cat\": \"voltsense\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \"pid\": 1, \"tid\": {}}}",
                fmt_f64(s.start_ns as f64 / 1e3),
                fmt_f64(s.duration_ns() as f64 / 1e3),
                s.thread + 1
            ));
        }
        for e in &self.events {
            push_metric_sep(&mut out, &mut first);
            out.push_str("  {\"name\": ");
            push_json_string(&mut out, &e.name);
            out.push_str(&format!(
                ", \"cat\": \"voltsense\", \"ph\": \"i\", \"s\": \"t\", \"ts\": {}, \"pid\": 1, \"tid\": {}, \"args\": {{",
                fmt_f64(e.at_ns as f64 / 1e3),
                e.thread + 1
            ));
            for (i, (k, v)) in e.fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                push_json_string(&mut out, k);
                out.push_str(": ");
                out.push_str(&fmt_f64(*v));
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }

    /// Render a fixed-width human-readable summary.
    pub fn to_summary_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("telemetry summary · suite {}\n", self.suite));
        if !self.counters.is_empty() {
            out.push_str(&format!("  {:<36} {:>14}\n", "counter", "total"));
            for (name, value) in &self.counters {
                out.push_str(&format!("  {name:<36} {value:>14}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str(&format!("  {:<36} {:>14}\n", "gauge", "value"));
            for (name, value) in &self.gauges {
                out.push_str(&format!("  {name:<36} {value:>14.6}\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str(&format!(
                "  {:<36} {:>5} {:>10} {:>10} {:>10} {:>10} {:>6}\n",
                "histogram", "count", "p50", "p95", "p99", "max", "unit"
            ));
            for h in &self.histograms {
                out.push_str(&format!(
                    "  {:<36} {:>5} {:>10.3e} {:>10.3e} {:>10.3e} {:>10.3e} {:>6}\n",
                    h.name, h.count, h.p50, h.p95, h.p99, h.max, h.unit
                ));
            }
        }
        out.push_str(&format!(
            "  {} spans, {} events captured\n",
            self.spans.len(),
            self.events.len()
        ));
        out
    }
}

fn push_metric_sep(out: &mut String, first: &mut bool) {
    if *first {
        *first = false;
    } else {
        out.push_str(",\n");
    }
}

pub(crate) fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Format a float as a JSON number. JSON has no NaN/Infinity; map them to
/// `null` so exports always parse.
pub(crate) fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}
