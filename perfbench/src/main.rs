//! The repository benchmark: the paper's seal-vs-order ad-report pair
//! and the sealed Storm wordcount, run on the real `par` backend, every
//! output checked against the simulator. The wordcount's per-layer run
//! also runs the same job on the `dist` backend.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload adreport-seal --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Each run repeats the batch job (set up, run, check) for `--seconds`
//! and prints, as its last line, one JSON object with the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). The
//! per-layer run also makes one traced run, writes its Chrome trace to
//! `perfbench/out/trace-<workload>.json` and folds it into self times.
//! The exit code is non-zero when any run fails or any output check
//! rejects a result.
//!
//! The binary is also its own `dist` worker: a copy spawned by
//! `run_dist` takes the `worker_main` exit.

mod fold;
mod jobs;
mod procfs;

use jobs::{Job, Kind, Sample, Spans};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// End-to-end metrics, reported with tracing off: `(name, unit)`.
const END_TO_END: [(&str, &str); 4] = [
    ("throughput_rps", "1/s"),
    ("cpu_ms_per_krec", "ms/krec"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, reported by the `--trace 1` run: `(name, unit)`.
/// Layers a workload does not load report 0.
const PER_LAYER: [(&str, &str); 44] = [
    ("core.derive_us", "us"),
    ("autocoord.assemble_us", "us"),
    ("autocoord.injected_ops", "count"),
    ("seal.votes", "count"),
    ("seal.releases", "count"),
    ("seal.revotes", "count"),
    ("seq.events_share", "ratio"),
    ("storm.build_us", "us"),
    ("bloom.stratum_s", "s"),
    ("bloom.stratum_share", "ratio"),
    ("bloom.ticks", "count"),
    ("bloom.us_per_tick", "us"),
    ("bloom.derivations", "count"),
    ("bloom.join_probes", "count"),
    ("bloom.fixpoint_iters", "count"),
    ("par.events", "count"),
    ("par.activations", "count"),
    ("par.events_per_activation", "ratio"),
    ("par.steals", "count"),
    ("par.parks", "count"),
    ("par.wakeups", "count"),
    ("par.push_retries", "count"),
    ("par.backpressure_parks", "count"),
    ("par.idle_park_ms", "ms"),
    ("par.backpressure_park_ms", "ms"),
    ("par.slow_path_locks", "count"),
    ("par.max_mailbox_depth", "count"),
    ("par.balance", "ratio"),
    ("par.activation_self_s", "s"),
    ("dist.frames_per_krec", "frames/krec"),
    ("dist.probe_rounds", "count"),
    ("dist.heartbeats", "count"),
    ("dist.events", "count"),
    ("dist.run_s", "s"),
    ("dist.cpu_ms_per_krec", "ms/krec"),
    ("dist.peak_rss_mb", "MB"),
    ("dist.setup_s", "s"),
    ("wire.encode_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("wire.bytes_per_frame", "B"),
    ("sim.run_s", "s"),
    ("obs.trace_overhead", "ratio"),
    ("obs.events", "count"),
    ("obs.overwritten", "count"),
];

/// Fewest timed repetitions a run makes, however short `--seconds` is.
const MIN_REPS: usize = 5;
/// Timed repetitions of the `dist` leg.
const DIST_REPS: usize = 5;
/// `dist` set-up samples of the `dist` leg, each one a full `run_dist`
/// of the smallest input.
const DIST_SETUP_REPS: usize = 5;
/// Untraced repetitions at the traced input size, the baseline of
/// `obs.trace_overhead`.
const TRACE_BASELINE_REPS: usize = 5;
/// Encode/decode passes over the wire-codec corpus.
const CODEC_ROUNDS: usize = 5;
/// The benchmark's own lane in the Chrome trace (pid 0 is this process).
const BENCH_TID: u32 = 9_999;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or(format!("unknown workload `{value}`"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// First quartile, median and third quartile of `xs`, for the log.
fn quartiles(xs: &mut [f64]) -> [f64; 3] {
    let med = median(xs);
    let at = |q: f64| xs.get(((xs.len().max(1) - 1) as f64 * q).round() as usize);
    [
        at(0.25).copied().unwrap_or(0.0),
        med,
        at(0.75).copied().unwrap_or(0.0),
    ]
}

/// Median of `xs` (mean of the middle pair for even lengths); 0 if empty.
pub fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let m = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[m]
    } else {
        (xs[m - 1] + xs[m]) / 2.0
    }
}

/// Attempted and failed runs.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record<T>(&mut self, what: &str, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("perfbench: {what} failed: {e}");
                None
            }
        }
    }
}

/// The timed repetitions of one workload: a warm-up, then repetitions
/// until `seconds` have passed (at least [`MIN_REPS`]).
fn timed_reps(job: &Job, seconds: f64, tally: &mut Tally) -> Vec<Sample> {
    // Warm-up: fills allocator pools and lazily initialised state.
    let _ = tally.record("warm-up run", job.rep(&mut Spans::new(false)));
    let mut samples = Vec::new();
    let (steal0, total0) = procfs::machine_ticks();
    let t0 = Instant::now();
    while samples.len() < MIN_REPS || t0.elapsed().as_secs_f64() < seconds {
        match tally.record("timed run", job.rep(&mut Spans::new(false))) {
            Some(s) => samples.push(s),
            None if tally.failed > 3 => break,
            None => {}
        }
    }
    // Wall-clock figures slow down by about the share of CPU time the
    // host gave to other guests; logged so a slow run can be told apart
    // from a slow program.
    let (steal1, total1) = procfs::machine_ticks();
    eprintln!(
        "perfbench: CPU steal during the timed runs {:.1} %",
        steal1.saturating_sub(steal0) as f64 * 100.0 / total1.saturating_sub(total0).max(1) as f64
    );
    samples
}

/// Median run seconds, CPU milliseconds per 1000 records over all runs,
/// and median peak RSS in MB, logging the quartiles.
fn run_figures(job: &Job, samples: &[Sample]) -> [f64; 3] {
    let mut run_s: Vec<f64> = samples.iter().map(|s| s.run_s).collect();
    let mut rss: Vec<f64> = samples
        .iter()
        .map(|s| s.peak_rss_kib as f64 / 1024.0)
        .collect();
    eprintln!(
        "perfbench: {} {} reps; run s quartiles {:?}, peak RSS MB quartiles {:?}",
        run_s.len(),
        job.kind.name(),
        quartiles(&mut run_s),
        quartiles(&mut rss)
    );
    let ticks: u64 = samples.iter().map(|s| s.cpu_ticks).sum();
    let cpu_ms = ticks as f64 * 1e3 / procfs::clock_ticks_per_sec() as f64;
    let krecs = (job.records * samples.len() as u64) as f64 / 1e3;
    [median(&mut run_s), cpu_ms / krecs, median(&mut rss)]
}

fn end_to_end(job: &Job, samples: &[Sample]) -> BTreeMap<&'static str, f64> {
    let [run_s, cpu_ms_per_krec, peak_rss_mb] = run_figures(job, samples);
    let mut setup_s: Vec<f64> = samples.iter().filter_map(|s| s.setup_s).collect();
    eprintln!(
        "perfbench: set-up s quartiles {:?}",
        quartiles(&mut setup_s)
    );
    BTreeMap::from([
        ("throughput_rps", job.records as f64 / run_s),
        ("cpu_ms_per_krec", cpu_ms_per_krec),
        ("peak_rss_mb", peak_rss_mb),
        ("setup_s", median(&mut setup_s)),
    ])
}

/// Medians of the per-repetition layer counters.
fn layer_medians(samples: &[Sample]) -> BTreeMap<&'static str, f64> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in samples {
        for (&k, &v) in &s.layers {
            by_name.entry(k).or_default().push(v);
        }
    }
    by_name
        .into_iter()
        .map(|(k, mut v)| (k, median(&mut v)))
        .collect()
}

/// The Chrome export of everything recorded, with the benchmark's own
/// spans appended on their own lane.
fn chrome_with_bench_spans(spans: &Spans) -> String {
    let mut json = blazes_obs::global().chrome_json();
    let body_end = json.trim_end().strip_suffix(']').map_or(0, str::len);
    json.truncate(body_end);
    let mut json = json.trim_end().to_string();
    for &(name, start, end) in &spans.recorded {
        let _ = write!(
            json,
            ",\n{{\"name\": \"{name}\", \"cat\": \"perfbench\", \"ph\": \"X\", \
             \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": 0, \"tid\": {BENCH_TID}, \
             \"args\": {{\"a\": 0, \"b\": 0}}}}",
            start as f64 / 1e3,
            end.saturating_sub(start) as f64 / 1e3
        );
    }
    json.push_str("\n]\n");
    json
}

/// The traced run: one repetition at the traced input size with
/// `blazes-obs` on, its Chrome trace written out and folded.
fn traced_run(
    seed: u64,
    full: &Job,
    timed: &[Sample],
    tally: &mut Tally,
) -> Result<BTreeMap<&'static str, f64>, String> {
    // The untraced baseline of `obs.trace_overhead` is the timed
    // repetitions when the traced input is the timed one.
    let div = full.kind.trace_divisor();
    let reduced;
    let (small, mut base) = if div == 1 {
        (full, timed.iter().map(|s| s.run_s).collect::<Vec<_>>())
    } else {
        reduced = Job::new(full.kind, seed, div)?;
        let base = (0..TRACE_BASELINE_REPS)
            .filter_map(|_| {
                tally.record("untraced baseline run", reduced.rep(&mut Spans::new(false)))
            })
            .map(|s| s.run_s)
            .collect();
        (&reduced, base)
    };

    let obs = blazes_obs::global();
    obs.clear();
    let overwritten_before: u64 = obs.lanes().iter().map(|l| l.2).sum();
    let events_before = obs.events_recorded();
    obs.set_enabled(true);
    let mut spans = Spans::new(true);
    let sample = small.rep(&mut spans);
    let codec = full
        .wordcount()
        .filter(|_| full.kind == Kind::WcDist)
        .map(|sc| {
            spans
                .time("bench.codec", || jobs::codec_corpus(sc, CODEC_ROUNDS))
                .0
        });
    obs.set_enabled(false);
    let sample = sample?;
    let mut out = BTreeMap::new();
    if let Some(codec) = codec {
        let (enc, dec, bytes) = codec?;
        out.insert("wire.encode_ns", enc);
        out.insert("wire.decode_ns", dec);
        out.insert("wire.bytes_per_frame", bytes);
    }

    let json = chrome_with_bench_spans(&spans);
    let path = format!("out/trace-{}.json", full.kind.name());
    std::fs::write(&path, &json).map_err(|e| format!("write {path}: {e}"))?;

    // Worker rings do not ship their overwrite count; a remote lane that
    // arrived full may have lapped, so it counts as one lost event.
    let saturated_remote = fold::lane_sizes(&json)
        .iter()
        .filter(|(&(pid, _), &n)| pid != 0 && n >= blazes_obs::DEFAULT_RING_CAPACITY)
        .count() as u64;
    let local: u64 = obs.lanes().iter().map(|l| l.2).sum();
    let overwritten = local - overwritten_before + saturated_remote;
    if overwritten > 0 {
        return Err(format!(
            "{overwritten} trace events overwritten: the fold would under-report"
        ));
    }

    let f = fold::fold(&fold::parse_spans(&json));
    let reg = obs.registry();
    let counter = |name: &str| reg.counter(name).get() as f64;
    let stratum_s = f.self_s("stratum");
    let ticks = counter("bloom.ticks");
    out.extend([
        ("seal.votes", counter("seal.votes")),
        ("seal.releases", counter("seal.releases")),
        ("seal.revotes", counter("seal.revotes")),
        ("bloom.stratum_s", stratum_s),
        (
            "bloom.stratum_share",
            stratum_s / f.total_s("activation").max(1e-12),
        ),
        ("bloom.ticks", ticks),
        ("bloom.us_per_tick", stratum_s * 1e6 / ticks.max(1.0)),
        ("bloom.derivations", counter("bloom.derivations")),
        ("bloom.join_probes", counter("bloom.join_probes")),
        ("bloom.fixpoint_iters", counter("bloom.fixpoint_iters")),
        ("par.activation_self_s", f.self_s("activation")),
        ("obs.trace_overhead", sample.run_s / median(&mut base) - 1.0),
        ("obs.events", (obs.events_recorded() - events_before) as f64),
        ("obs.overwritten", overwritten as f64),
    ]);
    eprintln!(
        "perfbench: traced run at 1/{div} input, {} spans folded, trace in perfbench/{path}",
        f.count.values().sum::<u64>()
    );
    Ok(out)
}

/// The `dist` leg of the wordcount's per-layer run: the same job on
/// worker processes, a fixed number of timed repetitions, set-up samples
/// on the smallest input, and a traced run at reduced size that also
/// times the wire codec.
fn dist_leg(seed: u64, tally: &mut Tally) -> BTreeMap<&'static str, f64> {
    let Some(job) = tally.record("dist simulator oracle", Job::new(Kind::WcDist, seed, 1)) else {
        return BTreeMap::new();
    };
    let _ = tally.record("dist warm-up run", job.rep(&mut Spans::new(false)));
    let samples: Vec<Sample> = (0..DIST_REPS)
        .filter_map(|_| tally.record("dist run", job.rep(&mut Spans::new(false))))
        .collect();
    let mut m = layer_medians(&samples);
    if !samples.is_empty() {
        let [run_s, cpu_ms_per_krec, peak_rss_mb] = run_figures(&job, &samples);
        m.extend([
            ("dist.run_s", run_s),
            ("dist.cpu_ms_per_krec", cpu_ms_per_krec),
            ("dist.peak_rss_mb", peak_rss_mb),
        ]);
    }
    // Set-up is a run of the smallest input: spawn + plan + probe +
    // teardown. The first spawn also pages the binary in; it is not
    // sampled.
    if let Some(probe) = tally.record("dist set-up input", Job::dist_setup_probe(seed)) {
        let mut setup_s: Vec<f64> = (0..=DIST_SETUP_REPS)
            .filter_map(|_| tally.record("dist set-up run", probe.rep(&mut Spans::new(false))))
            .skip(1)
            .map(|s| s.run_s)
            .collect();
        m.insert("dist.setup_s", median(&mut setup_s));
    }
    // Of the traced run, the wire codec and the trace tallies; the
    // wordcount's own traced run gives the other traced layers.
    let traced = traced_run(seed, &job, &samples, tally);
    if let Some(traced) = tally.record("dist traced run", traced) {
        m.extend(traced.into_iter().filter(|(k, _)| {
            k.starts_with("wire.") || matches!(*k, "obs.events" | "obs.overwritten")
        }));
    }
    m
}

fn per_layer(
    seed: u64,
    job: &Job,
    timed: &[Sample],
    tally: &mut Tally,
) -> BTreeMap<&'static str, f64> {
    let mut m = layer_medians(timed);
    m.insert("sim.run_s", job.sim_run_s);
    // The `dist` leg runs before the workload's traced run, so that the
    // trace rings that run fills do not count in `dist.peak_rss_mb`.
    let dist = if job.kind == Kind::WcPar {
        dist_leg(seed, tally)
    } else {
        BTreeMap::new()
    };
    let traced = traced_run(seed, job, timed, tally);
    if let Some(traced) = tally.record("traced run", traced) {
        m.extend(traced);
    }
    for (k, v) in dist {
        // Both traced runs count toward the trace tallies.
        if matches!(k, "obs.events" | "obs.overwritten") {
            *m.entry(k).or_default() += v;
        } else {
            m.insert(k, v);
        }
    }
    m
}

fn result_json(
    correct: bool,
    tally: &Tally,
    table: &[(&str, &str)],
    values: &BTreeMap<&str, f64>,
) -> String {
    let mut metrics = String::new();
    for (i, &(name, unit)) in table.iter().enumerate() {
        let v = values
            .get(name)
            .copied()
            .filter(|v| v.is_finite())
            .unwrap_or(0.0);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        tally.attempted, tally.failed
    )
}

fn main() -> ExitCode {
    if blazes_dataflow::dist::worker_main(&blazes_apps::dist::dist_registry()) {
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> \
                 --trace <0|1>",
                Kind::ALL.map(Kind::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    // Outputs and the `dist` sockets stay inside the benchmark directory;
    // the relative socket directory keeps socket paths short.
    let setup = std::env::set_current_dir(env!("CARGO_MANIFEST_DIR"))
        .and_then(|()| std::fs::create_dir_all("out/tmp"));
    if let Err(e) = setup {
        eprintln!("perfbench: cannot prepare the output directory: {e}");
        return ExitCode::FAILURE;
    }
    std::env::set_var("TMPDIR", "out/tmp");

    let mut tally = Tally::default();
    let Some(job) = tally.record("simulator oracle", Job::new(args.kind, args.seed, 1)) else {
        return ExitCode::FAILURE;
    };
    let timed = timed_reps(&job, args.seconds, &mut tally);
    let (table, values): (&[(&str, &str)], _) = if args.trace {
        (&PER_LAYER, per_layer(args.seed, &job, &timed, &mut tally))
    } else {
        (&END_TO_END, end_to_end(&job, &timed))
    };
    let correct = tally.failed == 0 && !timed.is_empty();
    println!(
        "{} seed={} reps={} records/rep={} cores={} threads={} error_rate={}",
        args.kind.name(),
        args.seed,
        timed.len(),
        job.records,
        std::thread::available_parallelism().map_or(0, usize::from),
        jobs::THREADS,
        tally.failed as f64 / tally.attempted.max(1) as f64
    );
    for &(name, unit) in table {
        println!(
            "  {name} = {} {unit}",
            values.get(name).copied().unwrap_or(0.0)
        );
    }
    println!("{}", result_json(correct, &tally, table, &values));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_tables_match_the_benchmark_definition() {
        let def = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                def.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
        assert_eq!(
            def.matches("\"unit\"").count(),
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json defines metrics the benchmark does not report"
        );
        for kind in Kind::ALL {
            assert!(def.contains(&format!("\"name\": \"{}\"", kind.name())));
        }
        assert_eq!(
            def.matches("\"why\"").count(),
            Kind::ALL.len(),
            "BENCHMARK.json defines workloads the benchmark does not run"
        );
    }

    #[test]
    fn median_and_quartiles() {
        assert_eq!(median(&mut []), 0.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quartiles(&mut [5.0, 1.0, 4.0, 2.0, 3.0]), [2.0, 3.0, 4.0]);
    }

    #[test]
    fn result_line_lists_every_metric_in_table_order() {
        let tally = Tally {
            attempted: 3,
            failed: 0,
        };
        let values = BTreeMap::from([("setup_s", 0.5), ("throughput_rps", f64::NAN)]);
        let line = result_json(true, &tally, &END_TO_END, &values);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, "));
        assert!(line.contains("\"throughput_rps\": {\"value\": 0, \"unit\": \"1/s\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
    }
}
