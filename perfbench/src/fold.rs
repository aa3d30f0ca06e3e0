//! Folding a Chrome-trace export into per-layer self times.
//!
//! The export is the one `blazes_obs::chrome::render` writes (one event
//! object per line) with the benchmark's own spans appended. A span's
//! *self time* is its duration minus the part of it that child spans on
//! the same lane (`pid`, `tid`) cover; spans on one thread nest, so the
//! children of a span are the spans that start inside it.

use std::collections::BTreeMap;

/// One complete (`"ph": "X"`) span read from the export.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Event name (`activation`, `stratum`, `bench.run`, ...).
    pub name: String,
    /// Process lane.
    pub pid: u32,
    /// Thread lane within the process.
    pub tid: u32,
    /// Start, nanoseconds since the recording process's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Total and self time of every span name, summed over all lanes.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Fold {
    /// Name → summed span duration (ns).
    pub total_ns: BTreeMap<String, u64>,
    /// Name → summed self time (ns).
    pub self_ns: BTreeMap<String, u64>,
    /// Name → number of spans.
    pub count: BTreeMap<String, u64>,
}

impl Fold {
    /// Summed self time of `name` in seconds (0 when absent).
    pub fn self_s(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64 / 1e9
    }

    /// Summed duration of `name` in seconds (0 when absent).
    pub fn total_s(&self, name: &str) -> f64 {
        self.total_ns.get(name).copied().unwrap_or(0) as f64 / 1e9
    }
}

/// The raw text of `"key": value` in one rendered event line.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": ");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    if let Some(quoted) = rest.strip_prefix('"') {
        return quoted.split('"').next();
    }
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// Microseconds with a nanosecond fraction, as the exporter prints them.
fn us_to_ns(text: &str) -> Option<u64> {
    let us: f64 = text.parse().ok()?;
    Some((us * 1e3).round() as u64)
}

/// Every complete span in a Chrome-trace export; instants and metadata
/// lines are skipped.
pub fn parse_spans(json: &str) -> Vec<Span> {
    json.lines()
        .filter(|l| field(l, "ph") == Some("X"))
        .filter_map(|l| {
            Some(Span {
                name: field(l, "name")?.to_string(),
                pid: field(l, "pid")?.parse().ok()?,
                tid: field(l, "tid")?.parse().ok()?,
                start_ns: us_to_ns(field(l, "ts")?)?,
                dur_ns: us_to_ns(field(l, "dur")?)?,
            })
        })
        .collect()
}

/// Events per lane (`(pid, tid)` → count), spans and instants alike.
pub fn lane_sizes(json: &str) -> BTreeMap<(u32, u32), usize> {
    let mut sizes = BTreeMap::new();
    for l in json.lines() {
        if matches!(field(l, "ph"), Some("X" | "i")) {
            if let (Some(pid), Some(tid)) = (field(l, "pid"), field(l, "tid")) {
                if let (Ok(pid), Ok(tid)) = (pid.parse(), tid.parse()) {
                    *sizes.entry((pid, tid)).or_default() += 1;
                }
            }
        }
    }
    sizes
}

/// Fold spans into per-name total and self times.
pub fn fold(spans: &[Span]) -> Fold {
    let mut lanes: BTreeMap<(u32, u32), Vec<&Span>> = BTreeMap::new();
    for s in spans {
        lanes.entry((s.pid, s.tid)).or_default().push(s);
    }
    let mut out = Fold::default();
    for mut lane in lanes.into_values() {
        // Parents sort before the children they contain.
        lane.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.dur_ns)));
        let mut self_ns: Vec<u64> = lane.iter().map(|s| s.dur_ns).collect();
        // Indices of the spans enclosing the current one, innermost last.
        let mut open: Vec<usize> = Vec::new();
        for (i, s) in lane.iter().enumerate() {
            while let Some(&p) = open.last() {
                if lane[p].start_ns + lane[p].dur_ns <= s.start_ns {
                    open.pop();
                } else {
                    break;
                }
            }
            if let Some(&p) = open.last() {
                let parent_end = lane[p].start_ns + lane[p].dur_ns;
                let covered = (s.start_ns + s.dur_ns).min(parent_end) - s.start_ns;
                self_ns[p] = self_ns[p].saturating_sub(covered);
            }
            open.push(i);
        }
        for (s, own) in lane.iter().zip(self_ns) {
            *out.total_ns.entry(s.name.clone()).or_default() += s.dur_ns;
            *out.self_ns.entry(s.name.clone()).or_default() += own;
            *out.count.entry(s.name.clone()).or_default() += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, tid: u32, start_ns: u64, dur_ns: u64) -> Span {
        Span {
            name: name.to_string(),
            pid: 0,
            tid,
            start_ns,
            dur_ns,
        }
    }

    #[test]
    fn nested_and_disjoint_spans_fold_to_self_times() {
        // Lane 1: activation [0,100) holds two disjoint strata, one of
        // which holds a nested child; a second activation [150,200) is
        // disjoint from the first and has no children.
        // Lane 2: a stratum overlapping lane 1's activation in time must
        // not be subtracted from it.
        let spans = vec![
            span("activation", 1, 0, 100),
            span("stratum", 1, 10, 30),
            span("inner", 1, 15, 10),
            span("stratum", 1, 50, 20),
            span("activation", 1, 150, 50),
            span("stratum", 2, 0, 500),
        ];
        let f = fold(&spans);
        assert_eq!(f.total_ns["activation"], 150);
        assert_eq!(f.self_ns["activation"], 100 - 30 - 20 + 50);
        assert_eq!(f.total_ns["stratum"], 30 + 20 + 500);
        assert_eq!(f.self_ns["stratum"], (30 - 10) + 20 + 500);
        assert_eq!(f.self_ns["inner"], 10);
        assert_eq!(f.count["stratum"], 3);
    }

    #[test]
    fn a_child_that_outlives_its_parent_only_subtracts_the_overlap() {
        let f = fold(&[span("a", 0, 0, 10), span("b", 0, 5, 10)]);
        assert_eq!(f.self_ns["a"], 5);
        assert_eq!(f.self_ns["b"], 10);
    }

    #[test]
    fn parses_the_exporter_format() {
        let locals = vec![(
            3u32,
            vec![
                blazes_obs::Event {
                    ts_ns: 1_000,
                    dur_ns: 2_500,
                    kind: blazes_obs::EventKind::Activation,
                    a: 1,
                    b: 2,
                },
                blazes_obs::Event {
                    ts_ns: 1_500,
                    dur_ns: 0,
                    kind: blazes_obs::EventKind::Steal,
                    a: 0,
                    b: 0,
                },
            ],
            0u64,
        )];
        let json = blazes_obs::chrome::render(0, &locals, &[]);
        assert_eq!(
            parse_spans(&json),
            vec![Span {
                name: "activation".into(),
                pid: 0,
                tid: 3,
                start_ns: 1_000,
                dur_ns: 2_500
            }]
        );
        assert_eq!(lane_sizes(&json)[&(0, 3)], 2);
    }
}
