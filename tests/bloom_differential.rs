//! Differential tests for the Bloom evaluation engine: every optimized
//! mode — semi-naive and worker-sharded at several widths — must produce
//! **bit-identical** tick outputs and table state to the naive oracle, on
//! every example module shipped with the repo. This is the Bloom-engine
//! analogue of `par_differential`: the optimizations exploit monotonicity
//! (CALM) inside a stratum, and the ordered merge at stratum boundaries
//! restores determinism, so digests must never depend on the engine.

use blazes::bloom::interp::{EvalMode, ModuleInstance, TickOutput};
use blazes::bloom::parse_module;
use blazes::dataflow::value::{Tuple, Value};
use std::collections::BTreeMap;

/// Every engine variant a module must agree under.
fn engine_variants() -> Vec<(&'static str, EvalMode)> {
    vec![
        ("naive", EvalMode::Naive),
        ("semi-naive", EvalMode::SemiNaive),
        ("sharded-1", EvalMode::Sharded { workers: 1 }),
        ("sharded-2", EvalMode::Sharded { workers: 2 }),
        ("sharded-4", EvalMode::Sharded { workers: 4 }),
    ]
}

/// Load one of the checked-in example modules.
fn example(name: &str) -> String {
    let path = format!("{}/examples/blz/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

fn pairs(values: &[(i64, i64)]) -> Vec<Tuple> {
    values
        .iter()
        .map(|&(a, b)| Tuple(vec![Value::Int(a), Value::Int(b)]))
        .collect()
}

fn singles(values: &[i64]) -> Vec<Tuple> {
    values.iter().map(|&a| Tuple(vec![Value::Int(a)])).collect()
}

/// Every tick's full output map plus the contents of every persistent
/// table right after that tick.
type Digest = Vec<(TickOutput, BTreeMap<String, Vec<Tuple>>)>;

/// Run a module under one mode over a scripted sequence of ticks and
/// return its digest.
fn digest(text: &str, mode: EvalMode, ticks: &[BTreeMap<String, Vec<Tuple>>]) -> Digest {
    let m = parse_module(text).expect("example must parse");
    let tables: Vec<String> = m
        .collections
        .iter()
        .filter(|c| c.kind.is_persistent())
        .map(|c| c.name.clone())
        .collect();
    let mut inst = ModuleInstance::with_mode(m, mode).expect("example must stratify");
    ticks
        .iter()
        .map(|inp| {
            let out = inst.tick(inp.clone()).expect("tick must succeed");
            let rows = tables.iter().map(|t| (t.clone(), inst.table(t))).collect();
            (out, rows)
        })
        .collect()
}

/// Assert all engine variants agree with the naive oracle on every tick's
/// outputs and tables.
fn assert_all_modes_agree(label: &str, text: &str, ticks: &[BTreeMap<String, Vec<Tuple>>]) {
    let reference = digest(text, EvalMode::Naive, ticks);
    for (name, mode) in engine_variants() {
        let got = digest(text, mode, ticks);
        for (i, (want, have)) in reference.iter().zip(&got).enumerate() {
            assert_eq!(
                want, have,
                "{label}: engine {name} diverged from the naive oracle on tick {i}"
            );
        }
        assert_eq!(reference.len(), got.len());
    }
}

#[test]
fn transitive_closure_digests_are_engine_independent() {
    // Chain + extra chords, split across two ticks so the table-backed
    // edge relation accumulates.
    let text = example("transitive_closure.blz");
    let tick1: Vec<(i64, i64)> = (0..30).map(|i| (i, i + 1)).collect();
    let tick2: Vec<(i64, i64)> = (0..10).map(|i| (i * 3, i * 2 + 5)).collect();
    let ticks = vec![
        BTreeMap::from([("edge".to_string(), pairs(&tick1))]),
        BTreeMap::from([("edge".to_string(), pairs(&tick2))]),
    ];
    assert_all_modes_agree("transitive_closure", &text, &ticks);
}

#[test]
fn triangle_digests_are_engine_independent() {
    let text = example("triangle.blz");
    // A clustered random-ish graph with actual triangles.
    let edges: Vec<(i64, i64)> = (0..120)
        .map(|i| (i % 20, (i * 7 + 3) % 20))
        .chain([(0, 1), (1, 2), (2, 0), (5, 6), (6, 7), (7, 5)])
        .collect();
    let ticks = vec![BTreeMap::from([("edge".to_string(), pairs(&edges))])];
    assert_all_modes_agree("triangle", &text, &ticks);
}

#[test]
fn ad_report_digests_are_engine_independent() {
    let text = example("ad_report.blz");
    let clicks: Vec<(i64, i64)> = (0..60).map(|i| (i % 12, i % 5)).collect();
    let ticks = vec![
        BTreeMap::from([
            ("click".to_string(), pairs(&clicks)),
            ("request".to_string(), singles(&[1, 3, 5])),
        ]),
        BTreeMap::from([("request".to_string(), singles(&[2, 4, 11]))]),
    ];
    assert_all_modes_agree("ad_report", &text, &ticks);
}

/// The ad-report module as a stream: 25-click ticks, with a request tick
/// every `every` ticks — the Report replica's real load shape.
fn ad_report_stream(ticks: usize, every: usize) -> Vec<BTreeMap<String, Vec<Tuple>>> {
    (0..ticks as i64)
        .map(|i| {
            if (i as usize + 1).is_multiple_of(every) {
                BTreeMap::from([("request".to_string(), singles(&[i % 12, (i + 5) % 12]))])
            } else {
                let clicks: Vec<(i64, i64)> = (0..25).map(|j| (j % 12, i * 25 + j)).collect();
                BTreeMap::from([("click".to_string(), pairs(&clicks))])
            }
        })
        .collect()
}

#[test]
fn ad_report_stream_digests_are_engine_independent() {
    let text = example("ad_report.blz");
    for every in [2, 5, 9] {
        let ticks = ad_report_stream(40, every);
        assert_all_modes_agree(&format!("ad_report stream every {every}"), &text, &ticks);
    }
}

#[test]
fn ad_report_stream_skips_the_view_on_click_only_ticks() {
    let text = example("ad_report.blz");
    let ticks = ad_report_stream(60, 10);
    for (name, mode) in engine_variants().into_iter().skip(1) {
        let mut inst = ModuleInstance::with_mode(parse_module(&text).unwrap(), mode).unwrap();
        let mut click_probes = Vec::new();
        for inp in &ticks {
            inst.tick(inp.clone()).unwrap();
            let s = inst.last_tick_stats();
            if inp.contains_key("click") {
                assert_eq!(s.rules_skipped, 2, "{name}: view and join skipped");
                click_probes.push(s.join_probes);
            } else {
                assert_eq!(s.rules_skipped, 1, "{name}: only the click rule skipped");
            }
        }
        // The log grows 25 rows a tick; a click-only tick's cost does not.
        assert!(
            click_probes.iter().all(|&p| p == 25),
            "{name}: {click_probes:?}"
        );
    }
}

#[test]
fn skipped_scratch_feeding_deferred_and_antijoin_rules() {
    // `s` is read only by a deferred join and an antijoin. It is skipped
    // on ticks where neither can fire, and must be complete on the ticks
    // where either does.
    let text = r#"
module Feed {
  input a(x)
  input req(x)
  input probe(x)
  output miss(x)
  table t(x)
  table hist(x)
  scratch s(x)
  t <= a
  s <= t where t.x > 2
  hist <+ (s * req) on (s.x = req.x) -> (s.x)
  miss <= probe not in s on (probe.x = s.x)
}
"#;
    let tick = |iface: &str, xs: &[i64]| BTreeMap::from([(iface.to_string(), singles(xs))]);
    let ticks = vec![
        tick("a", &[1, 2, 3, 4]),
        tick("a", &[5, 6]),
        tick("req", &[3, 4, 9]),
        tick("a", &[7]),
        tick("probe", &[1, 3, 7, 8]),
        BTreeMap::new(),
        BTreeMap::from([
            ("a".to_string(), singles(&[8])),
            ("req".to_string(), singles(&[8])),
            ("probe".to_string(), singles(&[2, 8])),
        ]),
        tick("req", &[6]),
        BTreeMap::new(),
    ];
    assert_all_modes_agree("feed", text, &ticks);
    let mut semi = ModuleInstance::new(parse_module(text).unwrap()).unwrap();
    semi.tick(ticks[0].clone()).unwrap();
    assert_eq!(semi.last_tick_stats().rules_skipped, 3, "s, hist, miss");
    semi.tick(ticks[1].clone()).unwrap();
    semi.tick(ticks[2].clone()).unwrap();
    assert_eq!(semi.last_tick_stats().rules_skipped, 2, "t <= a, miss");
}

#[test]
fn stratified_negation_digests_are_engine_independent() {
    // Negation + aggregation above a recursive stratum — the hardest mix:
    // the optimized engines must still evaluate nonmonotonic rules exactly
    // once per stratum over complete lower strata.
    let text = r#"
module Strat {
  input edge(src, dst)
  input probe(src, dst)
  output unreached(src, dst)
  output fanout(src, n)
  table e(src, dst)
  scratch p(src, dst)
  e <= edge
  p <= e
  p <= (p * e) on (p.dst = e.src) -> (p.src, e.dst)
  unreached <= probe not in p on (probe.src = p.src, probe.dst = p.dst)
  fanout <= p group by (p.src) agg count(*) as n having n < 50
}
"#;
    let edges: Vec<(i64, i64)> = (0..25).map(|i| (i, i + 1)).collect();
    let probes: Vec<(i64, i64)> = vec![(0, 10), (10, 0), (3, 26), (24, 25)];
    let ticks = vec![BTreeMap::from([
        ("edge".to_string(), pairs(&edges)),
        ("probe".to_string(), pairs(&probes)),
    ])];
    assert_all_modes_agree("stratified_negation", text, &ticks);
}

#[test]
fn sharded_crosses_the_inline_threshold() {
    // Enough delta tuples that sharded evaluation actually fans out to
    // worker threads (the engine runs probes inline below 256 tuples) —
    // the digest must still match the oracle exactly.
    let text = example("transitive_closure.blz");
    let edges: Vec<(i64, i64)> = (0..500).map(|i| (i % 250, (i * 11 + 1) % 250)).collect();
    let ticks = vec![BTreeMap::from([("edge".to_string(), pairs(&edges))])];
    let reference = digest(&text, EvalMode::SemiNaive, &ticks);
    for workers in [2usize, 4, 8] {
        let got = digest(&text, EvalMode::Sharded { workers }, &ticks);
        assert_eq!(reference, got, "sharded x{workers} diverged");
    }
}

#[test]
fn semi_naive_counters_beat_naive_on_recursion() {
    let text = example("transitive_closure.blz");
    let edges: Vec<(i64, i64)> = (0..60).map(|i| (i, i + 1)).collect();
    let inputs = BTreeMap::from([("edge".to_string(), pairs(&edges))]);

    let mut naive =
        ModuleInstance::with_mode(parse_module(&text).unwrap(), EvalMode::Naive).unwrap();
    naive.tick(inputs.clone()).unwrap();
    let mut semi =
        ModuleInstance::with_mode(parse_module(&text).unwrap(), EvalMode::SemiNaive).unwrap();
    semi.tick(inputs).unwrap();

    let (n, s) = (naive.last_tick_stats(), semi.last_tick_stats());
    assert!(
        s.derivations * 10 < n.derivations,
        "semi-naive should derive >10x fewer tuples: naive {} vs semi {}",
        n.derivations,
        s.derivations
    );
    assert!(
        s.join_probes * 100 < n.join_probes,
        "hash joins should probe >100x fewer pairs: naive {} vs semi {}",
        n.join_probes,
        s.join_probes
    );
}
