//! The benchmark workloads and the `dist` leg of the wordcount's
//! per-layer run: input generation from the workload seed, the simulator
//! oracle, and one measured repetition (set-up, the timed run call, the
//! output check) on the `par` or `dist` backend.

use crate::procfs;
use blazes_apps::adreport::AdScenario;
use blazes_apps::autocoord::{
    ad_network_spec, assemble_ad_auto, response_digests, run_ad_auto, run_wordcount_auto,
    wordcount_ordering_config, wordcount_spec, AdAutoRun, WordcountAutoRun,
};
use blazes_apps::dist::{dist_registry, encode_wordcount_params, WORDCOUNT_TOPOLOGY};
use blazes_apps::queries::ReportQuery;
use blazes_apps::wordcount::{wordcount_topology, WordcountScenario};
use blazes_apps::workload::{CampaignPlacement, ClickWorkload, TweetWorkload};
use blazes_dataflow::backend::{BackendRunStats, BackendSpec};
use blazes_dataflow::dist::{run_dist, DistSpec, DistStats};
use blazes_dataflow::message::Message;
use blazes_dataflow::par::{ParBuilder, ParStats, ParTuning};
use blazes_dataflow::sinks::CollectorSink;
use blazes_storm::topology::StormExecution;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Worker threads of every `par` run, and worker processes of every
/// `dist` run. Fixed rather than taken from the machine, so that runs on
/// different machines run the same job; the baseline machine has two
/// cores.
pub const THREADS: usize = 2;

/// Ad servers feeding the ad-report workloads.
const AD_SERVERS: usize = 5;
/// Clicks per ad server in a timed run.
const CLICKS_PER_SERVER: usize = 2_000;
/// Tweet batches per spout in a timed run (2 spouts × 40 × 250 = 20k
/// tweets).
const TWEET_BATCHES: usize = 40;
/// Tweets per batch per spout.
const TWEETS_PER_BATCH: usize = 250;
/// The traced `dist` run divides its input by this. Its coordinator
/// records two events per routed frame on one thread, and at full size
/// that lane would outgrow its 2^16-event trace ring; at 1/5 it fills
/// about half. The other workloads trace their full input.
const DIST_TRACE_DIVISOR: usize = 5;

/// A job the benchmark runs: one of the workloads, or the `dist` leg.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Ad report, CAMPAIGN query: the analysis injects seal gates.
    AdSeal,
    /// Ad report, POOR query: the analysis injects a sequencer.
    AdOrder,
    /// Sealed Storm wordcount on the threaded backend.
    WcPar,
    /// The same wordcount on worker processes over Unix sockets. Not a
    /// workload of its own: the coordinator and two worker processes run
    /// about ten threads on the two-core baseline machine, so its
    /// wall-clock figures swing with the host's load. It runs as the
    /// `dist` leg of the wordcount's per-layer run.
    WcDist,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 3] = [Kind::AdSeal, Kind::AdOrder, Kind::WcPar];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::AdSeal => "adreport-seal",
            Kind::AdOrder => "adreport-order",
            Kind::WcPar => "wordcount-par",
            Kind::WcDist => "wordcount-dist",
        }
    }

    /// The traced run's input is the timed input divided by this.
    pub fn trace_divisor(self) -> usize {
        if self == Kind::WcDist {
            DIST_TRACE_DIVISOR
        } else {
            1
        }
    }

    /// Coordination operators the analysis must inject: one seal gate
    /// per Report replica, one shared sequencer, and none for the
    /// wordcount, whose seals map onto Storm's native punctuations.
    fn injected_ops(self) -> usize {
        match self {
            Kind::AdSeal => 3,
            Kind::AdOrder => 1,
            Kind::WcPar | Kind::WcDist => 0,
        }
    }

    /// Parse a command-line workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// The generated inputs of one workload.
#[derive(Debug, Clone)]
enum Input {
    Ad(AdScenario),
    Wc(WordcountScenario),
}

/// What a run's output must equal, computed once on the simulator.
enum Oracle {
    /// Per-replica response digests (seal-coordinated runs are
    /// deterministic, so they must match the simulator exactly).
    Digests(Vec<Vec<Message>>),
    /// Replicas must agree with each other; the order a sequencer picks
    /// is not deterministic, so digests are not compared with the
    /// simulator.
    Agreement,
    /// The committed `(word, batch) -> count` table.
    Counts(BTreeMap<(String, i64), i64>),
}

/// One workload at one input size, with its oracle.
pub struct Job {
    /// Which workload.
    pub kind: Kind,
    input: Input,
    oracle: Oracle,
    /// Input records (clicks or tweets) one run processes.
    pub records: u64,
    /// Wall seconds of the simulator oracle run on the same input.
    pub sim_run_s: f64,
}

/// Timings of named calls, mirrored as spans on the benchmark's own
/// trace lane while tracing is on.
pub struct Spans {
    on: bool,
    /// `(name, start_ns, end_ns)` on the obs clock.
    pub recorded: Vec<(&'static str, u64, u64)>,
}

impl Spans {
    /// A recorder; `on` records spans, otherwise only times calls.
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            recorded: Vec::new(),
        }
    }

    /// Run `f`, returning its value and its wall seconds.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let obs = blazes_obs::global();
        let start_ns = if self.on { obs.now_ns() } else { 0 };
        let t0 = Instant::now();
        let out = f();
        let secs = t0.elapsed().as_secs_f64();
        if self.on {
            self.recorded.push((name, start_ns, obs.now_ns()));
        }
        (out, secs)
    }
}

/// One measured repetition.
pub struct Sample {
    /// Set-up seconds (analysis + assembly + build) on `par`; `None` on
    /// `dist`, whose set-up is sampled separately.
    pub setup_s: Option<f64>,
    /// Wall seconds of the run call.
    pub run_s: f64,
    /// CPU ticks (self + reaped children) spent in the run call.
    pub cpu_ticks: u64,
    /// Peak RSS over the run call, KiB.
    pub peak_rss_kib: u64,
    /// Per-layer counters of this repetition.
    pub layers: BTreeMap<&'static str, f64>,
}

/// A wordcount topology built on `par`, not yet run.
struct WcBuild {
    exec: StormExecution,
    committed: CollectorSink,
    setup_s: f64,
    layers: BTreeMap<&'static str, f64>,
}

/// A failed repetition: a panic, a `DistError` or a failed output check.
pub type Failure = String;

fn ad_scenario(query: ReportQuery, seed: u64, clicks_per_server: usize) -> AdScenario {
    AdScenario {
        workload: ClickWorkload {
            ad_servers: AD_SERVERS,
            entries_per_server: clicks_per_server,
            placement: CampaignPlacement::Spread,
            seed,
            ..ClickWorkload::default()
        },
        query,
        click_duplicates: 0.2,
        requests_via_analyst: true,
        seed,
        ..AdScenario::default()
    }
}

fn wc_scenario(seed: u64, batches: usize, tweets_per_batch: usize) -> WordcountScenario {
    WordcountScenario {
        workload: TweetWorkload {
            batches,
            tweets_per_batch,
            seed,
            ..TweetWorkload::default()
        },
        seed,
        ..WordcountScenario::default()
    }
}

fn dist_spec(sc: &WordcountScenario) -> DistSpec {
    let exe = std::env::current_exe()
        .expect("current_exe for dist worker spawn")
        .to_string_lossy()
        .into_owned();
    let mut spec = DistSpec::new(
        WORDCOUNT_TOPOLOGY,
        encode_wordcount_params(sc, true),
        vec![exe],
    );
    spec.seed = sc.seed;
    spec.processes = THREADS;
    spec.workers_per_process = 1;
    spec
}

/// Catch a panic in `f` as a failure.
fn guarded<T>(f: impl FnOnce() -> Result<T, Failure>) -> Result<T, Failure> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_else(|| "non-string panic".into());
        Err(format!("panic: {msg}"))
    })
}

/// Run `f` as the timed run call: wall time, CPU ticks and peak RSS.
fn measured<T>(spans: &mut Spans, f: impl FnOnce() -> T) -> (T, f64, u64, u64) {
    procfs::reset_peak_rss();
    let cpu0 = procfs::cpu_ticks();
    let (out, secs) = spans.time("bench.run", f);
    let cpu = procfs::cpu_ticks() - cpu0;
    (out, secs, cpu, procfs::peak_rss_kib())
}

fn par_layers(stats: &ParStats, layers: &mut BTreeMap<&'static str, f64>) {
    let activations: u64 = stats.per_worker.iter().map(|w| w.activations).sum();
    let sum = |f: fn(&blazes_dataflow::metrics::WorkerStats) -> u64| -> f64 {
        stats.per_worker.iter().map(f).sum::<u64>() as f64
    };
    let ms = |f: fn(&blazes_dataflow::metrics::WorkerStats) -> std::time::Duration| -> f64 {
        stats
            .per_worker
            .iter()
            .map(|w| f(w).as_secs_f64() * 1e3)
            .sum()
    };
    let events = stats.events_processed as f64;
    layers.insert("par.events", events);
    layers.insert("par.activations", activations as f64);
    layers.insert(
        "par.events_per_activation",
        events / activations.max(1) as f64,
    );
    layers.insert("par.steals", stats.total_steals() as f64);
    layers.insert("par.parks", stats.total_parks() as f64);
    layers.insert("par.wakeups", stats.total_wakeups() as f64);
    layers.insert("par.push_retries", stats.total_push_retries() as f64);
    layers.insert("par.backpressure_parks", sum(|w| w.backpressure_parks));
    layers.insert("par.idle_park_ms", ms(|w| w.idle_park_time));
    layers.insert("par.backpressure_park_ms", ms(|w| w.backpressure_park_time));
    layers.insert("par.slow_path_locks", stats.slow_path_locks as f64);
    layers.insert("par.max_mailbox_depth", stats.max_mailbox_depth as f64);
    layers.insert("par.balance", stats.balance());
    let sequenced: u64 = stats
        .per_instance
        .iter()
        .filter(|i| i.name == "sequencer")
        .map(|i| i.processed)
        .sum();
    layers.insert("seq.events_share", sequenced as f64 / events.max(1.0));
}

fn dist_layers(stats: &DistStats, records: u64) -> BTreeMap<&'static str, f64> {
    BTreeMap::from([
        (
            "dist.frames_per_krec",
            stats.frames_routed as f64 * 1e3 / records as f64,
        ),
        ("dist.probe_rounds", stats.probe_rounds as f64),
        ("dist.heartbeats", stats.heartbeats as f64),
        ("dist.events", stats.events_processed as f64),
    ])
}

impl Job {
    /// Generate `kind`'s inputs from `seed`, at its timed size divided by
    /// `div`, and compute the simulator oracle.
    ///
    /// # Errors
    /// When the simulator itself produces an output the checks reject.
    pub fn new(kind: Kind, seed: u64, div: usize) -> Result<Job, Failure> {
        let input = match kind {
            Kind::AdSeal => Input::Ad(ad_scenario(
                ReportQuery::Campaign,
                seed,
                CLICKS_PER_SERVER / div,
            )),
            Kind::AdOrder => Input::Ad(ad_scenario(
                ReportQuery::Poor,
                seed,
                CLICKS_PER_SERVER / div,
            )),
            Kind::WcPar | Kind::WcDist => {
                Input::Wc(wc_scenario(seed, TWEET_BATCHES / div, TWEETS_PER_BATCH))
            }
        };
        Job::with_input(kind, input)
    }

    /// The smallest valid input of the `dist` wordcount topology: one
    /// tweet per spout. A run of it is spawn + plan + probe + teardown.
    pub fn dist_setup_probe(seed: u64) -> Result<Job, Failure> {
        Job::with_input(Kind::WcDist, Input::Wc(wc_scenario(seed, 1, 1)))
    }

    fn with_input(kind: Kind, input: Input) -> Result<Job, Failure> {
        let mut spans = Spans::new(false);
        let (oracle, records, sim_run_s) = match &input {
            Input::Ad(sc) => {
                let ((run, _), sim_run_s) =
                    spans.time("bench.oracle", || run_ad_auto(sc, &BackendSpec::Sim));
                check_series(&run)?;
                let oracle = if kind == Kind::AdSeal {
                    let digests = response_digests(&run.responses);
                    if digests.iter().all(Vec::is_empty) {
                        return Err("simulator oracle answered no requests".into());
                    }
                    Oracle::Digests(digests)
                } else {
                    Oracle::Agreement
                };
                (oracle, sc.workload.total_entries() as u64, sim_run_s)
            }
            Input::Wc(sc) => {
                let ((run, _), sim_run_s) = spans.time("bench.oracle", || {
                    run_wordcount_auto(sc, true, &BackendSpec::Sim)
                });
                let counts = run.counts();
                if counts.is_empty() {
                    return Err("simulator oracle committed no counts".into());
                }
                (Oracle::Counts(counts), run.tweets, sim_run_s)
            }
        };
        Ok(Job {
            kind,
            input,
            oracle,
            records,
            sim_run_s,
        })
    }

    /// The wordcount scenario, for workloads that have one.
    pub fn wordcount(&self) -> Option<&WordcountScenario> {
        match &self.input {
            Input::Wc(sc) => Some(sc),
            Input::Ad(_) => None,
        }
    }

    /// One repetition: set up, run, check. Panics and failed checks come
    /// back as `Err`.
    pub fn rep(&self, spans: &mut Spans) -> Result<Sample, Failure> {
        guarded(|| match (&self.input, self.kind) {
            (Input::Ad(sc), _) => self.ad_rep(sc, spans),
            (Input::Wc(sc), Kind::WcDist) => self.wc_dist_rep(sc, spans),
            (Input::Wc(sc), _) => self.wc_par_rep(sc, spans),
        })
    }

    fn ad_rep(&self, sc: &AdScenario, spans: &mut Spans) -> Result<Sample, Failure> {
        let (spec, derive_s) = spans.time("bench.derive", || ad_network_spec(sc.query));
        black_box(spec);
        let ((asm, b), assemble_s) = spans.time("bench.assemble", || {
            let mut b = ParBuilder::new(sc.seed)
                .with_workers(THREADS)
                .with_tuning(ParTuning::default())
                .expect("default tuning is valid");
            (assemble_ad_auto(sc, false, &mut b), b)
        });
        let (exec, build_s) = spans.time("bench.build", || b.build());
        let (stats, run_s, cpu_ticks, peak_rss_kib) = measured(spans, || exec.run());
        let run = AdAutoRun {
            series: asm.series,
            responses: asm.responses.into_iter().map(|(_, s)| s).collect(),
            stats: BackendRunStats::Par(stats),
            expected_records: sc.workload.total_entries() as u64,
        };
        let (checked, _) = spans.time("bench.check", || self.check_ad(&run));
        checked?;
        let injected = asm.report.stats.injected_operators;
        self.check_injected(injected)?;
        let mut layers = BTreeMap::new();
        layers.insert("core.derive_us", derive_s * 1e6);
        layers.insert("autocoord.assemble_us", assemble_s * 1e6);
        layers.insert("autocoord.injected_ops", injected as f64);
        par_layers(run.stats.as_par().expect("par run"), &mut layers);
        Ok(Sample {
            setup_s: Some(derive_s + assemble_s + build_s),
            run_s,
            cpu_ticks,
            peak_rss_kib,
            layers,
        })
    }

    fn check_ad(&self, run: &AdAutoRun) -> Result<(), Failure> {
        check_series(run)?;
        match &self.oracle {
            Oracle::Digests(want) if &response_digests(&run.responses) != want => {
                Err("response digests differ from the simulator's".into())
            }
            Oracle::Agreement if !run.responses_consistent() => {
                Err("replicas disagree on their responses".into())
            }
            _ => Ok(()),
        }
    }

    /// Derive the wordcount spec and build the coordinated topology on
    /// `par`.
    fn wc_build(&self, sc: &WordcountScenario, spans: &mut Spans) -> Result<WcBuild, Failure> {
        let (spec, derive_s) = spans.time("bench.derive", || wordcount_spec(true));
        let ((exec, committed, outcome), build_s) = spans.time("bench.build", || {
            let (t, committed) = wordcount_topology(sc);
            let (exec, outcome) = t
                .build_coordinated_on(
                    &spec,
                    &wordcount_ordering_config(sc),
                    &BackendSpec::par(THREADS),
                )
                .expect("spec fits the wordcount topology");
            (exec, committed, outcome)
        });
        let injected = outcome.rewrite.injected_operators;
        self.check_injected(injected)?;
        if !outcome.ordered.is_empty() {
            return Err(format!(
                "the sealed wordcount ordered {:?}",
                outcome.ordered
            ));
        }
        let mut layers = BTreeMap::new();
        layers.insert("core.derive_us", derive_s * 1e6);
        layers.insert("storm.build_us", build_s * 1e6);
        layers.insert("autocoord.injected_ops", injected as f64);
        Ok(WcBuild {
            exec,
            committed,
            setup_s: derive_s + build_s,
            layers,
        })
    }

    fn wc_par_rep(&self, sc: &WordcountScenario, spans: &mut Spans) -> Result<Sample, Failure> {
        let WcBuild {
            mut exec,
            committed,
            setup_s,
            mut layers,
        } = self.wc_build(sc, spans)?;
        let (stats, run_s, cpu_ticks, peak_rss_kib) = measured(spans, || exec.run());
        let run = WordcountAutoRun {
            committed,
            stats,
            tweets: self.records,
        };
        let (checked, _) = spans.time("bench.check", || self.check_counts(&run.counts()));
        checked?;
        par_layers(run.stats.as_par().expect("par run"), &mut layers);
        Ok(Sample {
            setup_s: Some(setup_s),
            run_s,
            cpu_ticks,
            peak_rss_kib,
            layers,
        })
    }

    fn wc_dist_rep(&self, sc: &WordcountScenario, spans: &mut Spans) -> Result<Sample, Failure> {
        let spec = dist_spec(sc);
        let registry = dist_registry();
        let (run, run_s, cpu_ticks, peak_rss_kib) = measured(spans, || run_dist(&spec, &registry));
        let mut run = run.map_err(|e| format!("dist run failed: {e}"))?;
        let committed = run
            .sinks
            .pop()
            .map(|(_, sink)| sink)
            .ok_or("dist run returned no sink")?;
        let layers = dist_layers(&run.stats, self.records);
        let out = WordcountAutoRun {
            committed,
            stats: BackendRunStats::Dist(run.stats),
            tweets: self.records,
        };
        let (checked, _) = spans.time("bench.check", || self.check_counts(&out.counts()));
        checked?;
        Ok(Sample {
            setup_s: None,
            run_s,
            cpu_ticks,
            peak_rss_kib,
            layers,
        })
    }

    fn check_injected(&self, injected: usize) -> Result<(), Failure> {
        let want = self.kind.injected_ops();
        if injected == want {
            Ok(())
        } else {
            Err(format!(
                "the rewrite injected {injected} coordination operators, not {want}"
            ))
        }
    }

    fn check_counts(&self, got: &BTreeMap<(String, i64), i64>) -> Result<(), Failure> {
        match &self.oracle {
            Oracle::Counts(want) if want == got => Ok(()),
            Oracle::Counts(want) => Err(format!(
                "word counts differ from the simulator's ({} vs {} entries)",
                got.len(),
                want.len()
            )),
            _ => unreachable!("wordcount jobs carry a counts oracle"),
        }
    }
}

/// Every replica processed at least every click. Duplicated clicks may
/// be counted twice, so the check is `>=`, not `==`.
fn check_series(run: &AdAutoRun) -> Result<(), Failure> {
    if run.series.is_empty() {
        return Err("no per-replica series".into());
    }
    match run
        .series
        .iter()
        .map(blazes_dataflow::metrics::TimeSeries::total)
        .find(|&t| t < run.expected_records)
    {
        Some(short) => Err(format!(
            "a replica processed {short} of {} records",
            run.expected_records
        )),
        None => Ok(()),
    }
}

/// The wire-codec corpus: every tuple the wordcount job sends between
/// bolts (tweets, split words, batch seals) as a `Frame::Data`, encoded
/// and then decoded in socket-read-sized chunks, as the `dist` transport
/// does. Returns `(encode ns/frame, decode ns/frame, bytes/frame)`
/// medians over `rounds` passes.
pub fn codec_corpus(sc: &WordcountScenario, rounds: usize) -> Result<(f64, f64, f64), Failure> {
    use blazes_dataflow::dist::wire::{encode, Frame, FrameDecoder};
    use blazes_dataflow::value::{Tuple, Value};

    let mut frames = Vec::new();
    let mut push = |msg: Message| {
        let seq = frames.len() as u64;
        frames.push(Frame::Data {
            wire: seq % 16,
            seq,
            msg,
        });
    };
    for spout in 0..sc.spouts {
        let mut last_batch = None;
        for (_, tweet) in sc.workload.generate(spout) {
            let batch = tweet.get(1).and_then(Value::as_int).ok_or("tweet batch")?;
            if last_batch.is_some_and(|b| b != batch) {
                push(blazes_storm::runtime::batch_seal(batch - 1));
            }
            last_batch = Some(batch);
            let text = tweet.get(0).and_then(Value::as_str).ok_or("tweet text")?;
            for word in text.split_whitespace() {
                push(Message::Data(Tuple(vec![
                    Value::str(word),
                    Value::Int(batch),
                ])));
            }
            push(Message::Data(tweet));
        }
    }
    const READ_CHUNK: usize = 64 * 1024;
    let n = frames.len() as f64;
    let mut enc = Vec::with_capacity(rounds);
    let mut dec = Vec::with_capacity(rounds);
    let mut bytes = 0usize;
    for _ in 0..rounds {
        let t0 = Instant::now();
        let encoded: Vec<Vec<u8>> = frames.iter().map(|f| encode(black_box(f))).collect();
        enc.push(t0.elapsed().as_secs_f64() * 1e9 / n);
        let stream = encoded.concat();
        bytes = stream.len();

        let t0 = Instant::now();
        let mut decoder = FrameDecoder::new();
        let mut decoded = Vec::with_capacity(frames.len());
        for chunk in stream.chunks(READ_CHUNK) {
            decoder.push(chunk);
            while let Some(frame) = decoder.next_frame().map_err(|e| e.to_string())? {
                decoded.push(frame);
            }
        }
        dec.push(t0.elapsed().as_secs_f64() * 1e9 / n);
        if decoded != frames {
            return Err("wire codec round trip changed the corpus".into());
        }
    }
    Ok((
        crate::median(&mut enc),
        crate::median(&mut dec),
        bytes as f64 / n,
    ))
}
