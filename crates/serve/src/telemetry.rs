//! Production observability for the serving stack: metrics, traces,
//! and energy attribution — all in simulated time.
//!
//! Real serving stacks (TGI, vLLM, Triton) expose three things the
//! batch-report simulator historically folded away: a *metrics
//! endpoint* (Prometheus text exposition), *per-request traces* (what
//! happened to request 17, token by token), and *per-request cost*
//! (energy, the axis DFX's Table 2 argues on). This module supplies
//! all three without any external dependency, and — because every
//! timestamp is simulator time — every export is bit-identical across
//! runs and passes `dfx-lint`'s ambient-time rule by construction.
//!
//! - [`MetricsRegistry`] — counters, gauges and log-bucketed histograms
//!   (fixed deterministic bounds, exact integer counts) keyed by metric
//!   name and a sorted [`Labels`] set, rendered with [`render`] in
//!   Prometheus text exposition format and checked line-by-line with
//!   [`validate_prometheus`].
//! - [`RunTrace`] / [`RequestTrace`] — the per-request lifecycle
//!   (queued → prefill → per-token decode → a terminal
//!   [`SpanOutcome`]) assembled by
//!   [`ServingEngine::run_traced`](crate::ServingEngine::run_traced)
//!   from engine events and
//!   [`StepEvent`](crate::StepEvent)s, exported as Chrome trace-event
//!   JSON ([`RunTrace::to_chrome_json`]) so any run opens in
//!   `chrome://tracing` / Perfetto.
//! - [`Json`] — a minimal JSON tree with a parser that keeps number
//!   lexemes verbatim, so the round trip `render(parse(t)) == t` holds
//!   exactly for any text this module emits (the CI smoke check).
//! - [`record_service_report`] / [`record_cluster_report`] — the
//!   canonical metric catalog over a [`ServiceReport`] or
//!   [`ClusterReport`], with per-replica labels at the cluster tier.
//!
//! [`render`]: MetricsRegistry::render

use crate::cluster::ClusterReport;
use crate::engine::{Response, ServiceReport};
use std::collections::BTreeMap;

// ---------------------------------------------------------------------
// Labels
// ---------------------------------------------------------------------

/// A sorted label set (`key="value"` pairs) identifying one series of
/// a metric. Keys are kept in a [`BTreeMap`], so two label sets with
/// the same pairs render identically regardless of insertion order.
///
/// # Examples
///
/// ```
/// use dfx_serve::telemetry::Labels;
/// let l = Labels::new().with("backend", "dfx").with("tier", "engine");
/// assert_eq!(l.render(), r#"backend="dfx",tier="engine""#);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Labels {
    pairs: BTreeMap<String, String>,
}

impl Labels {
    /// An empty label set.
    pub fn new() -> Self {
        Labels::default()
    }

    /// Returns the set with `key` set to `value` (replacing any
    /// previous value for `key`).
    #[must_use]
    pub fn with(mut self, key: &str, value: &str) -> Self {
        self.pairs.insert(key.to_string(), value.to_string());
        self
    }

    /// The canonical `key="value",...` rendering, sorted by key, with
    /// `\`, `"` and newlines escaped as Prometheus requires.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, (k, v)) in self.pairs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(&escape_label(v));
            out.push('"');
        }
        out
    }

    /// Whether the set holds no pairs.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------

/// Fixed log-spaced histogram bucket bounds, ms: `0.25 · 2^k` for
/// `k = 0..21` (0.25 ms … ~4.4 min). Fixed bounds make histogram
/// bucket counts exact integers and renders bit-identical across runs
/// — no adaptive resizing, no float accumulation in the bucketing.
pub const BUCKET_BOUNDS_MS: [f64; 21] = [
    0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0,
    8192.0, 16384.0, 32768.0, 65536.0, 131072.0, 262144.0,
];

/// What a metric family is, fixed at its first registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetricKind {
    Counter,
    Gauge,
    Histogram,
}

impl MetricKind {
    fn exposition(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One series' value.
#[derive(Debug, Clone)]
enum Value {
    Counter(u64),
    Gauge(f64),
    Histogram(Hist),
}

/// Exact-count histogram over [`BUCKET_BOUNDS_MS`] plus a `+Inf`
/// overflow bucket.
#[derive(Debug, Clone)]
struct Hist {
    /// Non-cumulative per-bucket counts; the last slot is `+Inf`.
    counts: Vec<u64>,
    sum: f64,
    count: u64,
}

impl Hist {
    fn new() -> Self {
        Hist {
            counts: vec![0u64; BUCKET_BOUNDS_MS.len() + 1],
            sum: 0.0,
            count: 0,
        }
    }

    fn observe(&mut self, v: f64) {
        let idx = BUCKET_BOUNDS_MS
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(BUCKET_BOUNDS_MS.len());
        self.counts[idx] += 1;
        // lint: order-sensitive — observations arrive in event order
        self.sum += v;
        self.count += 1;
    }
}

/// One metric family: its kind, help text, and every labelled series.
#[derive(Debug, Clone)]
struct Family {
    kind: MetricKind,
    help: String,
    /// Keyed by the canonical [`Labels::render`] string, so iteration
    /// (and therefore rendering) is sorted and deterministic.
    series: BTreeMap<String, Value>,
}

/// A deterministic, dependency-free metrics registry rendered in
/// Prometheus text exposition format.
///
/// A metric family's kind and help text are fixed by its first
/// recording; later calls against the same name with a *different*
/// kind are ignored (the registry never panics — `crates/serve` is
/// panic-free library code under `dfx-lint`).
///
/// # Examples
///
/// ```
/// use dfx_serve::telemetry::{Labels, MetricsRegistry};
///
/// let mut reg = MetricsRegistry::new();
/// let labels = Labels::new().with("backend", "dfx");
/// reg.counter("dfx_requests_total", "Requests served.", &labels, 3);
/// reg.gauge("dfx_utilization_ratio", "Busy fraction.", &labels, 0.5);
/// reg.observe("dfx_request_ttft_ms", "Time to first token.", &labels, &[7.5, 30.0]);
///
/// let text = reg.render();
/// assert!(text.contains(r#"dfx_requests_total{backend="dfx"} 3"#));
/// assert!(text.contains(r#"dfx_request_ttft_ms_bucket{backend="dfx",le="8"} 1"#));
/// assert_eq!(dfx_serve::telemetry::validate_prometheus(&text).is_ok(), true);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    families: BTreeMap<String, Family>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// The family `name`, registered with `kind` and `help` on first
    /// use (the only call that allocates its name), or `None` when it
    /// was registered with another kind.
    fn family(&mut self, name: &str, kind: MetricKind, help: &str) -> Option<&mut Family> {
        if !self.families.contains_key(name) {
            self.families.insert(
                name.to_string(),
                Family {
                    kind,
                    help: help.to_string(),
                    series: BTreeMap::new(),
                },
            );
        }
        self.families.get_mut(name).filter(|fam| fam.kind == kind)
    }

    /// Adds `delta` to the counter `name{labels}` (created at 0).
    pub fn counter(&mut self, name: &str, help: &str, labels: &Labels, delta: u64) {
        if let Some(fam) = self.family(name, MetricKind::Counter, help) {
            let v = fam
                .series
                .entry(labels.render())
                .or_insert(Value::Counter(0));
            if let Value::Counter(c) = v {
                *c += delta;
            }
        }
    }

    /// Sets the gauge `name{labels}` to `value`.
    pub fn gauge(&mut self, name: &str, help: &str, labels: &Labels, value: f64) {
        if let Some(fam) = self.family(name, MetricKind::Gauge, help) {
            fam.series.insert(labels.render(), Value::Gauge(value));
        }
    }

    /// Records `values`, in slice order, into the histogram
    /// `name{labels}` (fixed [`BUCKET_BOUNDS_MS`] buckets). The family
    /// and series are looked up once per call; an empty slice records
    /// nothing and registers neither.
    pub fn observe(&mut self, name: &str, help: &str, labels: &Labels, values: &[f64]) {
        if values.is_empty() {
            return;
        }
        if let Some(fam) = self.family(name, MetricKind::Histogram, help) {
            let v = fam
                .series
                .entry(labels.render())
                .or_insert_with(|| Value::Histogram(Hist::new()));
            if let Value::Histogram(h) = v {
                for &value in values {
                    h.observe(value);
                }
            }
        }
    }

    /// Renders every family in Prometheus text exposition format:
    /// `# HELP` / `# TYPE` headers followed by one sample line per
    /// series (histograms expand to `_bucket{le=...}` / `_sum` /
    /// `_count`). Families sort by name and series by label set, so
    /// the text is bit-identical for equal recorded contents.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, fam) in &self.families {
            out.push_str("# HELP ");
            out.push_str(name);
            out.push(' ');
            out.push_str(&fam.help);
            out.push('\n');
            out.push_str("# TYPE ");
            out.push_str(name);
            out.push(' ');
            out.push_str(fam.kind.exposition());
            out.push('\n');
            for (labels, value) in &fam.series {
                match value {
                    Value::Counter(c) => {
                        push_sample(&mut out, name, "", labels, &c.to_string());
                    }
                    Value::Gauge(g) => {
                        push_sample(&mut out, name, "", labels, &fmt_f64(*g));
                    }
                    Value::Histogram(h) => {
                        let mut cumulative = 0u64;
                        for (i, &bound) in BUCKET_BOUNDS_MS.iter().enumerate() {
                            cumulative += h.counts[i];
                            let le = merge_le(labels, &fmt_f64(bound));
                            push_sample(&mut out, name, "_bucket", &le, &cumulative.to_string());
                        }
                        cumulative += h.counts[BUCKET_BOUNDS_MS.len()];
                        let le = merge_le(labels, "+Inf");
                        push_sample(&mut out, name, "_bucket", &le, &cumulative.to_string());
                        push_sample(&mut out, name, "_sum", labels, &fmt_f64(h.sum));
                        push_sample(&mut out, name, "_count", labels, &h.count.to_string());
                    }
                }
            }
        }
        out
    }
}

/// `name_suffix{labels} value\n`, omitting the braces for an empty set.
fn push_sample(out: &mut String, name: &str, suffix: &str, labels: &str, value: &str) {
    out.push_str(name);
    out.push_str(suffix);
    if !labels.is_empty() {
        out.push('{');
        out.push_str(labels);
        out.push('}');
    }
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

/// Appends `le="bound"` to a rendered label string. `le` sorts after
/// every label key this module emits, so appending keeps the canonical
/// sorted order.
fn merge_le(labels: &str, bound: &str) -> String {
    if labels.is_empty() {
        format!("le=\"{bound}\"")
    } else {
        format!("{labels},le=\"{bound}\"")
    }
}

/// Deterministic float rendering: Rust's shortest-roundtrip `Display`,
/// which never uses exponent notation and is platform-independent.
fn fmt_f64(v: f64) -> String {
    format!("{v}")
}

// ---------------------------------------------------------------------
// Prometheus text validation
// ---------------------------------------------------------------------

/// Validates Prometheus text exposition line by line, returning the
/// number of sample lines.
///
/// Checked per line: `# HELP <name> <text>` and
/// `# TYPE <name> <counter|gauge|histogram|summary|untyped>` headers,
/// and `<name>[{labels}] <value>` samples with a well-formed metric
/// name, a balanced quoted-and-escaped label block, and a value that
/// parses as a float (`+Inf`/`-Inf`/`NaN` allowed).
///
/// # Errors
///
/// Returns `Err(message)` naming the first offending line.
pub fn validate_prometheus(text: &str) -> Result<usize, String> {
    let mut samples = 0usize;
    for (i, line) in text.lines().enumerate() {
        let n = i + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let (keyword, rest) = rest.split_once(' ').unwrap_or((rest, ""));
            match keyword {
                "HELP" => {
                    let name = rest.split(' ').next().unwrap_or("");
                    validate_metric_name(name).map_err(|e| format!("line {n}: {e}"))?;
                }
                "TYPE" => {
                    let mut parts = rest.split(' ');
                    let name = parts.next().unwrap_or("");
                    validate_metric_name(name).map_err(|e| format!("line {n}: {e}"))?;
                    let kind = parts.next().unwrap_or("");
                    if !matches!(
                        kind,
                        "counter" | "gauge" | "histogram" | "summary" | "untyped"
                    ) {
                        return Err(format!("line {n}: unknown metric type `{kind}`"));
                    }
                }
                _ => return Err(format!("line {n}: unknown comment keyword `{keyword}`")),
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // bare comment
        }
        validate_sample_line(line).map_err(|e| format!("line {n}: {e}"))?;
        samples += 1;
    }
    Ok(samples)
}

fn validate_metric_name(name: &str) -> Result<(), String> {
    let mut chars = name.chars();
    let ok_first = chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':');
    if !ok_first || !chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':') {
        return Err(format!("invalid metric name `{name}`"));
    }
    Ok(())
}

fn validate_sample_line(line: &str) -> Result<(), String> {
    let (head, value) = match line.rfind(' ') {
        Some(pos) => (&line[..pos], &line[pos + 1..]),
        None => return Err(format!("sample `{line}` has no value")),
    };
    let name = match head.find('{') {
        Some(open) => {
            if !head.ends_with('}') {
                return Err(format!("unterminated label block in `{head}`"));
            }
            validate_label_block(&head[open + 1..head.len() - 1])?;
            &head[..open]
        }
        None => head,
    };
    validate_metric_name(name)?;
    let numeric = value.parse::<f64>().is_ok();
    if !numeric && !matches!(value, "+Inf" | "-Inf" | "NaN") {
        return Err(format!("invalid sample value `{value}`"));
    }
    Ok(())
}

fn validate_label_block(block: &str) -> Result<(), String> {
    let mut rest = block;
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label pair without `=` in `{rest}`"))?;
        let key = &rest[..eq];
        validate_metric_name(key).map_err(|_| format!("invalid label name `{key}`"))?;
        rest = rest[eq + 1..]
            .strip_prefix('"')
            .ok_or_else(|| format!("label value for `{key}` is not quoted"))?;
        // Scan to the closing quote, honouring escapes.
        let mut close = None;
        let mut escaped = false;
        for (i, c) in rest.char_indices() {
            if escaped {
                if !matches!(c, '\\' | '"' | 'n') {
                    return Err(format!("bad escape `\\{c}` in label value"));
                }
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                close = Some(i);
                break;
            }
        }
        let close = close.ok_or_else(|| format!("unterminated label value for `{key}`"))?;
        rest = &rest[close + 1..];
        if let Some(r) = rest.strip_prefix(',') {
            rest = r;
            if rest.is_empty() {
                return Err("trailing comma in label block".to_string());
            }
        } else if !rest.is_empty() {
            return Err(format!("junk after label value: `{rest}`"));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------

/// A minimal JSON tree. Object members keep insertion order and
/// numbers keep their source *lexeme* verbatim, so rendering a parsed
/// document reproduces the input byte for byte for any text this
/// module emits — the property the CI trace round-trip check pins.
/// (The vendored `serde` is a no-op marker crate, so both directions
/// are hand-written here.)
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, stored as its exact lexeme (e.g. `"1.5"`, `"-3e2"`).
    Num(String),
    /// A string (decoded; rendering re-escapes canonically).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; members render in this order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A number node from an `f64`, via the canonical [`Display`]
    /// lexeme (shortest roundtrip, no exponent notation).
    ///
    /// [`Display`]: std::fmt::Display
    pub fn num(v: f64) -> Json {
        Json::Num(fmt_f64(v))
    }

    /// Compact rendering: no whitespace, members in stored order,
    /// strings minimally escaped. Deterministic for equal trees.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(lexeme) => out.push_str(lexeme),
            Json::Str(s) => render_json_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_json_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns `Err(message)` with a byte offset for malformed input
    /// or trailing junk.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing junk at byte {pos}"));
        }
        Ok(value)
    }
}

fn render_json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while bytes
        .get(*pos)
        .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
    {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected `:` at byte {pos}"));
                }
                *pos += 1;
                let value = parse_value(bytes, pos)?;
                members.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
                }
            }
        }
        Some(b'-' | b'0'..=b'9') => parse_number(bytes, pos),
        Some(&b) => Err(format!("unexpected byte `{}` at byte {pos}", b as char)),
    }
}

fn parse_keyword(bytes: &[u8], pos: &mut usize, kw: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(kw.as_bytes()) {
        *pos += kw.len();
        Ok(value)
    } else {
        Err(format!("invalid keyword at byte {pos}"))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| format!("truncated \\u escape at byte {pos}"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape at byte {pos}"))?;
                        let c = char::from_u32(code)
                            .ok_or_else(|| format!("non-scalar \\u escape at byte {pos}"))?;
                        out.push(c);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x20 => {
                return Err(format!("raw control byte in string at byte {pos}"));
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so the
                // boundaries are valid).
                let s = &bytes[*pos..];
                let step = match std::str::from_utf8(s).ok().and_then(|t| t.chars().next()) {
                    Some(c) => {
                        out.push(c);
                        c.len_utf8()
                    }
                    None => return Err(format!("invalid UTF-8 at byte {pos}")),
                };
                *pos += step;
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let int_start = *pos;
    let int_digits = eat_digits(bytes, pos);
    if int_digits == 0 {
        return Err(format!("invalid number at byte {start}"));
    }
    if int_digits > 1 && bytes[int_start] == b'0' {
        return Err(format!("leading zero in number at byte {start}"));
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        if eat_digits(bytes, pos) == 0 {
            return Err(format!("invalid number at byte {start}"));
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if eat_digits(bytes, pos) == 0 {
            return Err(format!("invalid number at byte {start}"));
        }
    }
    let lexeme = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| format!("invalid number at byte {start}"))?;
    Ok(Json::Num(lexeme.to_string()))
}

fn eat_digits(bytes: &[u8], pos: &mut usize) -> usize {
    let start = *pos;
    while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
        *pos += 1;
    }
    *pos - start
}

// ---------------------------------------------------------------------
// Request traces
// ---------------------------------------------------------------------

/// How a request's lifecycle ended.
///
/// The engine retires every admitted request. Paged-K/V preemptions
/// inside a stepper do not end the lifecycle — the request still
/// retires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanOutcome {
    /// Served to completion.
    Retired,
}

impl SpanOutcome {
    /// Lower-case label used in exports.
    pub fn label(self) -> &'static str {
        match self {
            SpanOutcome::Retired => "retired",
        }
    }
}

/// One request's lifecycle in simulated time: queued → admitted →
/// prefill → per-token decode → a terminal [`SpanOutcome`].
#[derive(Debug, Clone, PartialEq)]
pub struct RequestTrace {
    /// Request id (submission index).
    pub id: u64,
    /// Pool server (engine tier) or replica (cluster tier) that served
    /// it.
    pub server: usize,
    /// Prompt length, tokens.
    pub input_tokens: usize,
    /// Requested output length, tokens.
    pub output_tokens: usize,
    /// Arrival (enqueue) instant, ms.
    pub arrival_ms: f64,
    /// Admission instant — when its prefill began, ms.
    pub start_ms: f64,
    /// First token emission, ms. `None` on the static path, which
    /// models no intra-batch token timing.
    pub first_token_ms: Option<f64>,
    /// Retirement instant, ms.
    pub finish_ms: f64,
    /// Every token emission boundary the engine charged this request,
    /// ascending, ms. The first entry is the prefill's token (equals
    /// [`first_token_ms`](RequestTrace::first_token_ms)); empty on the
    /// static path.
    pub token_ms: Vec<f64>,
    /// Energy attributed to this request by token share of its
    /// server's busy energy, J. `None` when the backend models no
    /// power.
    pub energy_j: Option<f64>,
    /// How the lifecycle ended.
    pub outcome: SpanOutcome,
}

/// Every request's [`RequestTrace`] from one run, plus the run's
/// identity — the unit [`to_chrome_json`](RunTrace::to_chrome_json)
/// exports.
#[derive(Debug, Clone, PartialEq)]
pub struct RunTrace {
    /// Backend pool description.
    pub backend: String,
    /// Queue discipline.
    pub scheduler: String,
    /// Per-request lifecycles, ascending by request id.
    pub requests: Vec<RequestTrace>,
}

impl RunTrace {
    /// A coarse trace from bare [`Response`]s (queued + service spans
    /// only, no token timing) — what tiers without per-token events
    /// (the static path, the cluster router's global view) export.
    pub fn from_responses(backend: &str, scheduler: &str, responses: &[Response]) -> RunTrace {
        let mut requests: Vec<RequestTrace> = responses
            .iter()
            .map(|r| RequestTrace {
                id: r.request.id,
                server: r.server,
                input_tokens: r.request.workload.input_len,
                output_tokens: r.request.workload.output_len,
                arrival_ms: r.request.arrival_ms,
                start_ms: r.start_ms,
                first_token_ms: None,
                finish_ms: r.finish_ms,
                token_ms: Vec::new(),
                energy_j: None,
                outcome: SpanOutcome::Retired,
            })
            .collect();
        requests.sort_by_key(|t| t.id);
        RunTrace {
            backend: backend.to_string(),
            scheduler: scheduler.to_string(),
            requests,
        }
    }

    /// Checks span conservation and causality: every request has
    /// exactly one terminal span with
    /// `arrival ≤ start ≤ finish`, its token boundaries ascending
    /// within `[start, finish]`, and its first token (when present)
    /// matching the first boundary.
    ///
    /// # Errors
    ///
    /// Returns `Err(message)` naming the first violating request.
    pub fn validate(&self) -> Result<(), String> {
        for t in &self.requests {
            let id = t.id;
            if !(t.arrival_ms <= t.start_ms && t.start_ms <= t.finish_ms) {
                return Err(format!(
                    "request {id}: spans not causal (arrival {} start {} finish {})",
                    t.arrival_ms, t.start_ms, t.finish_ms
                ));
            }
            if let Some(first) = t.first_token_ms {
                if !(t.start_ms <= first && first <= t.finish_ms) {
                    return Err(format!(
                        "request {id}: first token {first} outside its spans"
                    ));
                }
                if t.token_ms.first().is_some_and(|&t0| t0 != first) {
                    return Err(format!(
                        "request {id}: first boundary disagrees with first_token_ms"
                    ));
                }
            } else if !t.token_ms.is_empty() {
                return Err(format!(
                    "request {id}: token boundaries without a first token"
                ));
            }
            let monotone = t.token_ms.windows(2).all(|w| w[0] <= w[1]);
            let in_range = t
                .token_ms
                .iter()
                .all(|&m| t.start_ms <= m && m <= t.finish_ms);
            if !monotone || !in_range {
                return Err(format!(
                    "request {id}: token boundaries not monotone in-span"
                ));
            }
        }
        Ok(())
    }

    /// Renders the trace as Chrome trace-event JSON (`traceEvents`
    /// array: `ph:"X"` complete spans per lifecycle phase, `ph:"i"`
    /// instants per token boundary, timestamps in µs). Open the file
    /// at `chrome://tracing` or <https://ui.perfetto.dev>; each
    /// request is a thread (`tid` = request id) on its server's
    /// process (`pid` = server index).
    pub fn to_chrome_json(&self) -> String {
        let mut events: Vec<Json> = Vec::new();
        // Process-name metadata per distinct server, sorted.
        let mut servers: Vec<usize> = self.requests.iter().map(|t| t.server).collect();
        servers.sort_unstable();
        servers.dedup();
        for s in servers {
            events.push(Json::Obj(vec![
                ("name".to_string(), Json::Str("process_name".to_string())),
                ("ph".to_string(), Json::Str("M".to_string())),
                ("pid".to_string(), Json::Num(s.to_string())),
                ("tid".to_string(), Json::Num("0".to_string())),
                (
                    "args".to_string(),
                    Json::Obj(vec![(
                        "name".to_string(),
                        Json::Str(format!("{} server {s}", self.backend)),
                    )]),
                ),
            ]));
        }
        for t in &self.requests {
            events.push(span(t, "queued", t.arrival_ms, t.start_ms, None));
            match t.first_token_ms {
                Some(first) => {
                    events.push(span(t, "prefill", t.start_ms, first, None));
                    events.push(span(t, "decode", first, t.finish_ms, Some(self)));
                    for &m in &t.token_ms {
                        events.push(Json::Obj(vec![
                            ("name".to_string(), Json::Str("token".to_string())),
                            ("cat".to_string(), Json::Str("serve".to_string())),
                            ("ph".to_string(), Json::Str("i".to_string())),
                            ("s".to_string(), Json::Str("t".to_string())),
                            ("ts".to_string(), Json::num(m * 1000.0)),
                            ("pid".to_string(), Json::Num(t.server.to_string())),
                            ("tid".to_string(), Json::Num(t.id.to_string())),
                        ]));
                    }
                }
                None => {
                    events.push(span(t, "service", t.start_ms, t.finish_ms, Some(self)));
                }
            }
        }
        Json::Obj(vec![
            ("traceEvents".to_string(), Json::Arr(events)),
            ("displayTimeUnit".to_string(), Json::Str("ms".to_string())),
        ])
        .render()
    }
}

/// One `ph:"X"` complete span for a request phase. The terminal phase
/// (passed `Some(run)`) carries the request's outcome, token counts
/// and attributed energy in `args`.
fn span(
    t: &RequestTrace,
    name: &str,
    from_ms: f64,
    to_ms: f64,
    terminal: Option<&RunTrace>,
) -> Json {
    let mut members = vec![
        ("name".to_string(), Json::Str(name.to_string())),
        ("cat".to_string(), Json::Str("serve".to_string())),
        ("ph".to_string(), Json::Str("X".to_string())),
        ("ts".to_string(), Json::num(from_ms * 1000.0)),
        ("dur".to_string(), Json::num((to_ms - from_ms) * 1000.0)),
        ("pid".to_string(), Json::Num(t.server.to_string())),
        ("tid".to_string(), Json::Num(t.id.to_string())),
    ];
    if let Some(run) = terminal {
        let mut args = vec![
            (
                "outcome".to_string(),
                Json::Str(t.outcome.label().to_string()),
            ),
            ("scheduler".to_string(), Json::Str(run.scheduler.clone())),
            (
                "input_tokens".to_string(),
                Json::Num(t.input_tokens.to_string()),
            ),
            (
                "output_tokens".to_string(),
                Json::Num(t.output_tokens.to_string()),
            ),
        ];
        if let Some(e) = t.energy_j {
            args.push(("energy_j".to_string(), Json::num(e)));
        }
        members.push(("args".to_string(), Json::Obj(args)));
    }
    Json::Obj(members)
}

// ---------------------------------------------------------------------
// The canonical metric catalog
// ---------------------------------------------------------------------

/// Records the canonical metric catalog over one [`ServiceReport`]
/// into `reg`. `extra` labels (e.g. `tier`, `replica`) are merged with
/// the report's own `backend` and `discipline` labels.
///
/// Catalog: `dfx_requests_total`, `dfx_output_tokens_total`,
/// `dfx_dispatches_total` (counters); `dfx_makespan_ms`,
/// `dfx_utilization_ratio`, `dfx_goodput_tps`, `dfx_mean_queue_depth`,
/// `dfx_peak_live_batch`, `dfx_energy_joules` (gauges);
/// `dfx_ttft_ms` / `dfx_itl_ms` / `dfx_sojourn_ms` quantile gauges
/// (`quantile` ∈ `p50|p95|p99`); `dfx_request_ttft_ms` /
/// `dfx_request_itl_ms` / `dfx_request_sojourn_ms` histograms over the
/// per-request samples.
pub fn record_service_report(reg: &mut MetricsRegistry, report: &ServiceReport, extra: &Labels) {
    let mut labels = extra.clone();
    labels = labels
        .with("backend", &report.backend)
        .with("discipline", &report.scheduler);
    let l = &labels;

    let output_tokens: usize = report
        .responses
        .iter()
        .map(|r| r.request.workload.output_len)
        .sum();
    reg.counter(
        "dfx_requests_total",
        "Requests served to completion.",
        l,
        report.responses.len() as u64,
    );
    reg.counter(
        "dfx_output_tokens_total",
        "Output tokens delivered.",
        l,
        output_tokens as u64,
    );
    reg.counter(
        "dfx_dispatches_total",
        "Backend invocations (batches on the static path, prefills and token steps on the continuous path).",
        l,
        report.dispatches as u64,
    );
    reg.gauge(
        "dfx_makespan_ms",
        "Time to the last completion, ms.",
        l,
        report.makespan_ms,
    );
    reg.gauge(
        "dfx_utilization_ratio",
        "Fraction of pool time spent serving.",
        l,
        report.utilization,
    );
    reg.gauge(
        "dfx_goodput_tps",
        "Output tokens per second of makespan.",
        l,
        report.goodput_tps,
    );
    reg.gauge(
        "dfx_mean_queue_depth",
        "Time-weighted mean waiting-queue depth.",
        l,
        report.mean_queue_depth,
    );
    reg.gauge(
        "dfx_peak_live_batch",
        "Peak requests concurrently resident on one server.",
        l,
        report.peak_live_batch as f64,
    );
    if let Some(e) = report.energy_j {
        reg.gauge(
            "dfx_energy_joules",
            "Backend energy over the run (power x busy time), J.",
            l,
            e,
        );
    }

    for (q, ttft, itl, sojourn) in [
        (
            "p50",
            report.p50_ttft_ms,
            report.p50_itl_ms,
            report.p50_sojourn_ms,
        ),
        (
            "p95",
            report.p95_ttft_ms,
            report.p95_itl_ms,
            report.p95_sojourn_ms,
        ),
        (
            "p99",
            report.p99_ttft_ms,
            report.p99_itl_ms,
            report.p99_sojourn_ms,
        ),
    ] {
        let ql = labels.clone().with("quantile", q);
        reg.gauge("dfx_ttft_ms", "Time to first token, ms.", &ql, ttft);
        reg.gauge("dfx_itl_ms", "Inter-token latency, ms.", &ql, itl);
        reg.gauge(
            "dfx_sojourn_ms",
            "Request sojourn (queue + service), ms.",
            &ql,
            sojourn,
        );
    }

    reg.observe(
        "dfx_request_ttft_ms",
        "Per-request time to first token, ms.",
        l,
        report.sorted_ttfts(),
    );
    reg.observe(
        "dfx_request_itl_ms",
        "Per-token inter-token gaps, ms.",
        l,
        report.sorted_token_gaps(),
    );
    reg.observe(
        "dfx_request_sojourn_ms",
        "Per-request sojourn, ms.",
        l,
        report.sorted_sojourns(),
    );
}

/// Records a [`ClusterReport`] into `reg`: each replica's engine
/// report under `tier="replica"` with a `replica="rN"` label, plus the
/// pooled cluster view (pooled percentiles via `merge_sorted`, never
/// averaged) under `tier="cluster"`.
pub fn record_cluster_report(reg: &mut MetricsRegistry, report: &ClusterReport, extra: &Labels) {
    for (i, replica) in report.replicas.iter().enumerate() {
        if let Some(r) = &replica.report {
            let labels = extra
                .clone()
                .with("tier", "replica")
                .with("replica", &format!("r{i}"));
            record_service_report(reg, r, &labels);
        }
    }

    let l = extra
        .clone()
        .with("tier", "cluster")
        .with("backend", &report.placement)
        .with("discipline", &report.scheduler);
    reg.counter(
        "dfx_requests_total",
        "Requests served to completion.",
        &l,
        report.total_requests as u64,
    );
    reg.gauge(
        "dfx_makespan_ms",
        "Time to the last completion, ms.",
        &l,
        report.makespan_ms,
    );
    reg.gauge(
        "dfx_goodput_tps",
        "Output tokens per second of makespan.",
        &l,
        report.goodput_tps,
    );
    reg.gauge(
        "dfx_balance_index",
        "Jain fairness of per-replica dispatch counts.",
        &l,
        report.balance_index,
    );
    if let Some(e) = report.energy_j {
        reg.gauge(
            "dfx_energy_joules",
            "Backend energy over the run (power x busy time), J.",
            &l,
            e,
        );
    }
    for (q, ttft, itl, sojourn) in [
        (
            "p50",
            report.p50_ttft_ms,
            report.p50_itl_ms,
            report.p50_sojourn_ms,
        ),
        (
            "p95",
            report.p95_ttft_ms,
            report.p95_itl_ms,
            report.p95_sojourn_ms,
        ),
        (
            "p99",
            report.p99_ttft_ms,
            report.p99_itl_ms,
            report.p99_sojourn_ms,
        ),
    ] {
        let ql = l.clone().with("quantile", q);
        reg.gauge("dfx_ttft_ms", "Time to first token, ms.", &ql, ttft);
        reg.gauge("dfx_itl_ms", "Inter-token latency, ms.", &ql, itl);
        reg.gauge(
            "dfx_sojourn_ms",
            "Request sojourn (queue + service), ms.",
            &ql,
            sojourn,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_render_sorted_and_escaped() {
        let l = Labels::new().with("z", "a\"b\\c\nd").with("a", "x");
        assert_eq!(l.render(), "a=\"x\",z=\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn registry_renders_valid_prometheus() {
        let mut reg = MetricsRegistry::new();
        let l = Labels::new().with("backend", "dfx");
        reg.counter("dfx_requests_total", "Requests.", &l, 5);
        reg.gauge("dfx_utilization_ratio", "Busy fraction.", &l, 0.25);
        reg.observe("dfx_request_ttft_ms", "TTFT.", &l, &[0.3, 1.0, 7.0, 1e6]);
        let text = reg.render();
        let samples = validate_prometheus(&text).expect("valid exposition");
        // 1 counter + 1 gauge + 22 buckets + sum + count.
        assert_eq!(samples, 26);
        assert!(text.contains("dfx_requests_total{backend=\"dfx\"} 5"));
        assert!(text.contains("dfx_request_ttft_ms_bucket{backend=\"dfx\",le=\"+Inf\"} 4"));
        assert!(text.contains("dfx_request_ttft_ms_count{backend=\"dfx\"} 4"));
        // Cumulative bucket counts: 0.3 <= 0.5, 1.0 <= 1, 7.0 <= 8.
        assert!(text.contains("le=\"0.5\"} 1"));
        assert!(text.contains("le=\"1\"} 2"));
        assert!(text.contains("le=\"8\"} 3"));
    }

    #[test]
    fn registry_kind_conflicts_are_ignored() {
        let mut reg = MetricsRegistry::new();
        let l = Labels::new();
        reg.counter("dfx_x", "X.", &l, 1);
        reg.gauge("dfx_x", "X again.", &l, 9.0); // ignored: kind differs
        assert!(reg.render().contains("dfx_x 1"));
        assert!(!reg.render().contains('9'));
    }

    #[test]
    fn a_slice_observes_like_its_values_one_by_one() {
        // Every bucket bound and the value just above it, zeros,
        // negatives and inexact sums (so `_sum` shows its addition order).
        let mut finite = vec![0.0, -0.0, -1.0, -1e9, 0.1, 1.0 / 3.0];
        for &b in &BUCKET_BOUNDS_MS {
            finite.extend([b, b.next_up()]);
        }
        let mut special = finite.clone();
        special.extend([f64::INFINITY, f64::NEG_INFINITY, f64::NAN]);
        let mut orders = Vec::new();
        for mut values in [finite, special] {
            values.sort_by(f64::total_cmp);
            let mut unsorted = values.clone();
            unsorted.reverse();
            unsorted.rotate_left(values.len() / 3);
            orders.extend([values, unsorted]);
        }
        let l = Labels::new().with("backend", "dfx");
        for order in orders {
            let mut whole = MetricsRegistry::new();
            whole.observe("dfx_request_ttft_ms", "TTFT.", &l, &order);
            let mut one_by_one = MetricsRegistry::new();
            for v in &order {
                one_by_one.observe("dfx_request_ttft_ms", "TTFT.", &l, std::slice::from_ref(v));
            }
            assert_eq!(whole.render(), one_by_one.render());
            validate_prometheus(&whole.render()).expect("valid exposition");
        }

        // An empty slice registers no family, so no empty histogram block.
        let mut reg = MetricsRegistry::new();
        reg.observe("dfx_request_itl_ms", "ITL.", &l, &[]);
        assert_eq!(reg.render(), "");
        // A kind conflict is still ignored.
        reg.gauge("dfx_x", "X.", &l, 2.0);
        reg.observe("dfx_x", "X again.", &l, &[1.0, 3.0]);
        assert_eq!(
            reg.render(),
            "# HELP dfx_x X.\n# TYPE dfx_x gauge\ndfx_x{backend=\"dfx\"} 2\n"
        );
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        assert!(validate_prometheus("9bad_name 1").is_err());
        assert!(validate_prometheus("name{unterminated=\"x} 1").is_err());
        assert!(validate_prometheus("name 1.5e").is_err());
        assert!(validate_prometheus("# TYPE m flavour").is_err());
        assert!(validate_prometheus("m{a=\"b\"} +Inf").is_ok());
    }

    #[test]
    fn json_round_trips_byte_identically() {
        let doc = Json::Obj(vec![
            ("s".to_string(), Json::Str("a\"b\\c\nd".to_string())),
            (
                "xs".to_string(),
                Json::Arr(vec![Json::num(1.5), Json::num(-0.25), Json::Null]),
            ),
            ("ok".to_string(), Json::Bool(true)),
        ]);
        let text = doc.render();
        let parsed = Json::parse(&text).expect("parses");
        assert_eq!(parsed, doc);
        assert_eq!(parsed.render(), text);
    }

    #[test]
    fn json_parser_rejects_junk() {
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("01").is_err());
        assert!(Json::parse("{} junk").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    fn toy_trace() -> RunTrace {
        RunTrace {
            backend: "toy".to_string(),
            scheduler: "fifo".to_string(),
            requests: vec![RequestTrace {
                id: 0,
                server: 0,
                input_tokens: 4,
                output_tokens: 2,
                arrival_ms: 0.0,
                start_ms: 1.0,
                first_token_ms: Some(5.0),
                finish_ms: 6.0,
                token_ms: vec![5.0, 6.0],
                energy_j: Some(0.5),
                outcome: SpanOutcome::Retired,
            }],
        }
    }

    #[test]
    fn chrome_export_round_trips_and_validates() {
        let trace = toy_trace();
        trace.validate().expect("conserved");
        let text = trace.to_chrome_json();
        let parsed = Json::parse(&text).expect("valid JSON");
        assert_eq!(parsed.render(), text);
        assert!(text.starts_with("{\"traceEvents\":["));
        assert!(text.contains("\"name\":\"prefill\""));
        assert!(text.contains("\"outcome\":\"retired\""));
        assert!(text.contains("\"energy_j\":0.5"));
    }

    #[test]
    fn trace_validation_catches_acausal_spans() {
        let mut t = toy_trace();
        t.requests[0].start_ms = -1.0;
        assert!(t.validate().is_err());
        let mut t = toy_trace();
        t.requests[0].token_ms = vec![6.0, 5.0];
        assert!(t.validate().is_err());
        let mut t = toy_trace();
        t.requests[0].first_token_ms = None;
        assert!(t.validate().is_err()); // boundaries without a first token
    }
}
