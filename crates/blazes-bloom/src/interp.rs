//! The timestep interpreter for mini-Bloom modules.
//!
//! Bloom evaluates in discrete timesteps. Within a timestep:
//!
//! 1. pending deferred merges (`<+`) and deletions (`<-`) from the previous
//!    timestep are applied to persistent tables;
//! 2. the timestep's external inputs populate the input interfaces;
//! 3. the **instantaneous** rules (`<=`) run to fixpoint, stratum by
//!    stratum (nonmonotonic operators — aggregation, negation — only read
//!    collections from strictly lower strata, so each evaluates over a
//!    complete extension);
//! 4. deferred, deletion and asynchronous (`<~`) rules evaluate once
//!    against the final state; deferred/deleted tuples take effect next
//!    timestep, async tuples are handed to the network.
//!
//! Collections hold *sets* of tuples (Bloom's set semantics).
//!
//! ## Evaluation engine
//!
//! The fixpoint of step 3 runs in one of three [`EvalMode`]s:
//!
//! * [`EvalMode::Naive`] — the reference stratified fixpoint: every rule
//!   re-derives from scratch every iteration with nested-loop joins. Kept
//!   as the oracle the optimized modes are differentially tested against.
//! * [`EvalMode::SemiNaive`] (default) — per-collection **delta
//!   relations**: after a first full pass, each iteration only feeds the
//!   tuples that were new in the previous iteration back through the
//!   rules, joining them against **hash indexes** over the accumulated
//!   full sets. Rules whose read-set (from [`catalog::Schedule`]) gained
//!   no tuples are skipped outright. Nonmonotonic bodies (aggregation,
//!   negation) read only strictly-lower strata, so they evaluate exactly
//!   once per stratum.
//! * [`EvalMode::Sharded`] — semi-naive, plus the probe work of monotonic
//!   joins is partitioned by join key across scoped worker threads
//!   ([`blazes_dataflow::pool`]). Per-shard derivations are unioned into
//!   ordered sets at every merge, so results are bit-identical to
//!   single-threaded evaluation — the CALM argument made concrete: no
//!   coordination is needed inside a monotonic stratum, only the ordered
//!   merge at its boundary.
//!
//! Both optimized modes also run a **demand pass** before each tick, so a
//! tick costs what changed and what is asked rather than what is stored.
//! Starting from the collections that are non-empty, a rule is *possible*
//! when its body can derive anything (a join needs both sides, every other
//! body its scanned source), and *demanded* when it is possible and its
//! effect is observed — it writes a table or an output, it is a deferred,
//! deletion or async rule — or another demanded rule reads its head. Rules
//! that are not demanded are skipped: a standing `group by` view over a
//! large table costs nothing on a tick where no request can read it. Every
//! column reference is resolved when the instance is built, so a skipped
//! rule can never hide an error the naive oracle would raise.
//!
//! Persistent tables are written **in place**. Each tick logs the tuples it
//! adds to or removes from a table, and a rejected tick (unknown interface,
//! arity mismatch, evaluation error) replays that log backwards: the tables
//! and the pending deferred work are exactly as they were before it.
//!
//! Every tick records [`TickStats`] (derivations, join probes, fixpoint
//! iterations, skipped rules, wall time) per stratum, so the cost of
//! re-derivation is a measured number rather than a claim.

use crate::ast::*;
use crate::catalog::{self, Schedule};
use crate::error::{BloomError, Result};
use blazes_dataflow::pool;
use blazes_dataflow::value::{Tuple, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::Instant;

type Rel = BTreeSet<Tuple>;

/// The contents of every collection, by name.
type State = BTreeMap<String, Rel>;

/// The changes a tick made to persistent tables, oldest first:
/// `(collection index, tuple, inserted)`. Replayed backwards to reject a
/// tick.
type Undo = Vec<(usize, Tuple, bool)>;

/// A hash index over one collection: join-key values → matching tuples.
type Index = HashMap<Vec<Value>, Vec<Tuple>>;

/// Below this many probe tuples a sharded join runs inline: scoped-thread
/// fan-out costs more than it saves on tiny deltas.
const SHARD_MIN_TUPLES: usize = 256;

/// How the instantaneous-rule fixpoint evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvalMode {
    /// Reference evaluation: full re-derivation of every rule every
    /// iteration, nested-loop joins. The oracle for differential tests.
    Naive,
    /// Semi-naive deltas + hash-join indexes + demand-driven rule
    /// skipping.
    #[default]
    SemiNaive,
    /// [`EvalMode::SemiNaive`] with monotonic join probes sharded across
    /// scoped worker threads by join key.
    Sharded {
        /// Worker threads to shard across (0 is treated as 1).
        workers: usize,
    },
}

impl EvalMode {
    /// Sharded evaluation sized like the parallel backend's default
    /// worker count ([`pool::default_workers`]).
    #[must_use]
    pub fn sharded_auto() -> Self {
        EvalMode::Sharded {
            workers: pool::default_workers(),
        }
    }

    fn workers(self) -> usize {
        match self {
            EvalMode::Sharded { workers } => workers.max(1),
            _ => 1,
        }
    }
}

/// Work counters for one timestep (or one stratum of one timestep).
///
/// `derivations` counts every tuple *produced* by a rule body before set
/// deduplication — the quantity naive evaluation inflates by re-deriving
/// the same tuples every iteration and semi-naive evaluation keeps near
/// the number of genuinely new facts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickStats {
    /// Tuples produced by rule-body evaluations (pre-dedup).
    pub derivations: u64,
    /// Rows scanned plus candidate join pairs examined.
    pub join_probes: u64,
    /// Fixpoint iterations executed.
    pub fixpoint_iters: u64,
    /// Rules the demand pass skipped: their body could derive nothing, or
    /// nothing reads what it would derive. Always 0 under
    /// [`EvalMode::Naive`].
    pub rules_skipped: u64,
    /// Wall-clock nanoseconds spent in the fixpoint.
    pub wall_ns: u64,
}

impl TickStats {
    /// Accumulate another stats record into this one.
    pub fn absorb(&mut self, other: TickStats) {
        self.derivations += other.derivations;
        self.join_probes += other.join_probes;
        self.fixpoint_iters += other.fixpoint_iters;
        self.rules_skipped += other.rules_skipped;
        self.wall_ns += other.wall_ns;
    }
}

/// The output of one timestep.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TickOutput {
    /// Tuples visible on each output interface this timestep (instant
    /// derivations and async emissions, deduplicated, in sorted order).
    pub outputs: BTreeMap<String, Vec<Tuple>>,
}

impl TickOutput {
    /// Tuples emitted on one interface (empty slice if none).
    #[must_use]
    pub fn on(&self, iface: &str) -> &[Tuple] {
        self.outputs.get(iface).map_or(&[], Vec::as_slice)
    }
}

/// A running instance of a module: persistent tables plus pending deferred
/// work.
#[derive(Debug, Clone)]
pub struct ModuleInstance {
    module: Module,
    schedule: Schedule,
    plans: Vec<JoinPlan>,
    mode: EvalMode,
    /// Every collection. Tables persist across ticks; every other
    /// collection is emptied when its tick ends.
    state: State,
    /// Deferred work for the next tick, keyed by collection index.
    pending_insert: BTreeMap<usize, Rel>,
    pending_delete: BTreeMap<usize, Rel>,
    ticks: u64,
    last_stats: TickStats,
    last_stratum_stats: Vec<TickStats>,
    total_stats: TickStats,
}

impl ModuleInstance {
    /// Instantiate a module (validates stratifiability and resolves every
    /// column reference) with the default semi-naive engine.
    pub fn new(module: Module) -> Result<Self> {
        Self::with_mode(module, EvalMode::default())
    }

    /// Instantiate with an explicit evaluation mode.
    pub fn with_mode(module: Module, mode: EvalMode) -> Result<Self> {
        let schedule = catalog::schedule(&module)?;
        let plans = plan_rules(&module)?;
        let state = module
            .collections
            .iter()
            .map(|c| (c.name.clone(), Rel::new()))
            .collect();
        Ok(ModuleInstance {
            module,
            schedule,
            plans,
            mode,
            state,
            pending_insert: BTreeMap::new(),
            pending_delete: BTreeMap::new(),
            ticks: 0,
            last_stats: TickStats::default(),
            last_stratum_stats: Vec::new(),
            total_stats: TickStats::default(),
        })
    }

    /// The module definition.
    #[must_use]
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// The active evaluation mode.
    #[must_use]
    pub fn mode(&self) -> EvalMode {
        self.mode
    }

    /// Switch evaluation modes between ticks. All modes produce
    /// bit-identical [`TickOutput`]s, so this is always safe.
    pub fn set_mode(&mut self, mode: EvalMode) {
        self.mode = mode;
    }

    /// Number of timesteps executed (rejected ticks do not count).
    #[must_use]
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Work counters of the most recent tick.
    #[must_use]
    pub fn last_tick_stats(&self) -> TickStats {
        self.last_stats
    }

    /// Per-stratum work counters of the most recent tick (index =
    /// stratum).
    #[must_use]
    pub fn last_stratum_stats(&self) -> &[TickStats] {
        &self.last_stratum_stats
    }

    /// Work counters accumulated over every tick of this instance.
    #[must_use]
    pub fn cumulative_stats(&self) -> TickStats {
        self.total_stats
    }

    /// Contents of a persistent table (empty for unknown names).
    #[must_use]
    pub fn table(&self, name: &str) -> Vec<Tuple> {
        match self.module.collection(name) {
            Some(c) if c.kind.is_persistent() => self.state[name].iter().cloned().collect(),
            _ => Vec::new(),
        }
    }

    /// Execute one timestep with the given input-interface tuples.
    ///
    /// A tick that returns an error changes nothing: tables and pending
    /// deferred work are left as they were before it.
    pub fn tick(&mut self, inputs: BTreeMap<String, Vec<Tuple>>) -> Result<TickOutput> {
        let mut undo = Undo::new();
        let res = self.run_tick(&mut undo, inputs);
        for c in &self.module.collections {
            if !c.kind.is_persistent() {
                self.state.get_mut(&c.name).expect("declared").clear();
            }
        }
        let done = match res {
            Ok(done) => done,
            Err(e) => {
                for (ci, t, inserted) in undo.into_iter().rev() {
                    let rel = self
                        .state
                        .get_mut(&self.module.collections[ci].name)
                        .expect("declared");
                    if inserted {
                        rel.remove(&t);
                    } else {
                        rel.insert(t);
                    }
                }
                return Err(e);
            }
        };
        self.ticks += 1;
        self.pending_insert = done.pending_insert;
        self.pending_delete = done.pending_delete;
        let mut total = done.post_stats;
        for s in &done.stratum_stats {
            total.absorb(*s);
        }
        self.last_stats = total;
        self.last_stratum_stats = done.stratum_stats;
        self.total_stats.absorb(total);
        if blazes_obs::enabled() {
            let reg = blazes_obs::global().registry();
            reg.counter("bloom.ticks").inc();
            reg.counter("bloom.fixpoint_iters")
                .add(total.fixpoint_iters);
            reg.counter("bloom.derivations").add(total.derivations);
            reg.counter("bloom.join_probes").add(total.join_probes);
            reg.counter("bloom.rules_skipped").add(total.rules_skipped);
        }
        Ok(done.output)
    }

    /// Steps 1–4 of a timestep. Every change to a persistent table is
    /// logged in `undo`; the pending maps are only read, so a caller that
    /// rolls back `undo` restores the instance exactly.
    fn run_tick(
        &mut self,
        undo: &mut Undo,
        inputs: BTreeMap<String, Vec<Tuple>>,
    ) -> Result<TickDone> {
        let m = &self.module;
        let sched = &self.schedule;
        let plans = &self.plans;
        let mode = self.mode;
        let state = &mut self.state;

        // 1. Deferred deletions, then deferred merges, from the previous
        // timestep. Transient collections are empty here, so deletions
        // only ever touch tables.
        for (&ci, rel) in &self.pending_delete {
            let slot = state.get_mut(&m.collections[ci].name).expect("declared");
            for t in rel {
                if slot.remove(t) {
                    undo.push((ci, t.clone(), false));
                }
            }
        }
        for (&ci, rel) in &self.pending_insert {
            merge(m, state, undo, ci, rel.iter().cloned());
        }

        // 2. External inputs.
        for (iface, tuples) in inputs {
            let decl = m
                .collection(&iface)
                .ok_or_else(|| BloomError::Eval(format!("unknown input interface {iface:?}")))?;
            if decl.kind != CollectionKind::Input {
                return Err(BloomError::Eval(format!(
                    "{iface:?} is not an input interface"
                )));
            }
            if let Some(t) = tuples.iter().find(|t| t.arity() != decl.arity()) {
                return Err(BloomError::Eval(format!(
                    "arity mismatch on {iface:?}: got {}, expected {}",
                    t.arity(),
                    decl.arity()
                )));
            }
            state.get_mut(&iface).expect("declared").extend(tuples);
        }

        // 3. Stratified fixpoint of the instantaneous rules that matter.
        let demanded = match mode {
            EvalMode::Naive => vec![true; m.rules.len()],
            _ => demanded_rules(m, sched, state),
        };
        let mut stratum_stats = vec![TickStats::default(); sched.max_stratum + 1];
        let mut cache = IndexCache::default();
        match mode {
            EvalMode::Naive => naive_fixpoint(m, sched, state, undo, &mut stratum_stats)?,
            _ => semi_naive_fixpoint(
                m,
                sched,
                plans,
                mode.workers(),
                &demanded,
                state,
                undo,
                &mut cache,
                &mut stratum_stats,
            )?,
        }

        // 4. Deferred / deletion / async rules against the final state.
        let mut out_sets: BTreeMap<String, Rel> = BTreeMap::new();
        let mut pending_insert: BTreeMap<usize, Rel> = BTreeMap::new();
        let mut pending_delete: BTreeMap<usize, Rel> = BTreeMap::new();
        let mut post_stats = TickStats::default();
        let post_started = Instant::now();
        for (ri, rule) in m.rules.iter().enumerate() {
            if rule.op == MergeOp::Instant {
                continue;
            }
            let head = sched.heads[ri];
            let to_output =
                rule.op == MergeOp::Async && m.collections[head].kind == CollectionKind::Output;
            if to_output {
                // An async rule names its output interface in every tick's
                // output, even when it emits nothing (or is skipped).
                out_sets.entry(rule.head.clone()).or_default();
            }
            if !demanded[ri] {
                post_stats.rules_skipped += 1;
                continue;
            }
            let derived = if mode == EvalMode::Naive {
                eval_body(m, state, &rule.body, &mut post_stats.join_probes)?
            } else {
                eval_rule_once(
                    m,
                    plans,
                    ri,
                    state,
                    &mut cache,
                    mode.workers(),
                    &mut post_stats.join_probes,
                )?
            };
            post_stats.derivations += derived.len() as u64;
            if to_output {
                out_sets
                    .entry(rule.head.clone())
                    .or_default()
                    .extend(derived);
                continue;
            }
            let target = match rule.op {
                MergeOp::Delete => &mut pending_delete,
                // Async into internal state lands next timestep.
                _ => &mut pending_insert,
            };
            target.entry(head).or_default().extend(derived);
        }
        post_stats.wall_ns = post_started.elapsed().as_nanos() as u64;

        // Instantly derived output contents are also visible externally.
        for c in &m.collections {
            if c.kind == CollectionKind::Output {
                let rel = std::mem::take(state.get_mut(&c.name).expect("declared"));
                if !rel.is_empty() {
                    out_sets.entry(c.name.clone()).or_default().extend(rel);
                }
            }
        }
        let output = TickOutput {
            outputs: out_sets
                .into_iter()
                .map(|(k, s)| (k, s.into_iter().collect()))
                .collect(),
        };
        Ok(TickDone {
            output,
            pending_insert,
            pending_delete,
            stratum_stats,
            post_stats,
        })
    }
}

// ---------------------------------------------------------------------
// Tick evaluation
// ---------------------------------------------------------------------

struct TickDone {
    output: TickOutput,
    pending_insert: BTreeMap<usize, Rel>,
    pending_delete: BTreeMap<usize, Rel>,
    stratum_stats: Vec<TickStats>,
    post_stats: TickStats,
}

/// The demand pass: which rules can change an output, a table or the next
/// tick's pending work on this tick (see the module docs).
fn demanded_rules(m: &Module, sched: &Schedule, state: &State) -> Vec<bool> {
    let mut live: Vec<bool> = m
        .collections
        .iter()
        .map(|c| !state[&c.name].is_empty())
        .collect();
    // A join needs both sides; every other body its scanned source (an
    // antijoin with an empty negated side still emits its source).
    let possible = |ri: usize, live: &[bool]| {
        let sources = &sched.sources[ri];
        let needed = match m.rules[ri].body {
            RuleBody::Join { .. } => sources.len(),
            _ => 1,
        };
        sources[..needed].iter().all(|&c| live[c])
    };
    // Only instantaneous rules can fill a collection within the tick.
    loop {
        let mut grew = false;
        for (ri, r) in m.rules.iter().enumerate() {
            let head = sched.heads[ri];
            if r.op == MergeOp::Instant && !live[head] && possible(ri, &live) {
                live[head] = true;
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }
    let mut demanded = vec![false; m.rules.len()];
    let mut read = vec![false; m.collections.len()];
    loop {
        let mut grew = false;
        for ri in 0..m.rules.len() {
            if demanded[ri]
                || !(sched.observed[ri] || read[sched.heads[ri]])
                || !possible(ri, &live)
            {
                continue;
            }
            demanded[ri] = true;
            for &c in &sched.sources[ri] {
                read[c] = true;
            }
            grew = true;
        }
        if !grew {
            return demanded;
        }
    }
}

/// Merge tuples into collection `ci` in place and return the genuinely
/// new ones; each tuple new to a persistent table is logged in `undo`.
fn merge(
    m: &Module,
    state: &mut State,
    undo: &mut Undo,
    ci: usize,
    tuples: impl IntoIterator<Item = Tuple>,
) -> Vec<Tuple> {
    let persistent = m.collections[ci].kind.is_persistent();
    let slot = state.get_mut(&m.collections[ci].name).expect("declared");
    let mut fresh = Vec::new();
    for t in tuples {
        if slot.contains(&t) {
            continue;
        }
        slot.insert(t.clone());
        if persistent {
            undo.push((ci, t.clone(), true));
        }
        fresh.push(t);
    }
    fresh
}

/// The original reference fixpoint: every rule re-derives from scratch
/// every iteration.
fn naive_fixpoint(
    m: &Module,
    sched: &Schedule,
    state: &mut State,
    undo: &mut Undo,
    stats: &mut [TickStats],
) -> Result<()> {
    for (stratum, st) in stats.iter_mut().enumerate().take(sched.max_stratum + 1) {
        let started = Instant::now();
        let span = blazes_obs::start();
        loop {
            st.fixpoint_iters += 1;
            let mut changed = false;
            for &ri in &sched.instant_by_stratum[stratum] {
                let derived = eval_body(m, state, &m.rules[ri].body, &mut st.join_probes)?;
                st.derivations += derived.len() as u64;
                changed |= !merge(m, state, undo, sched.heads[ri], derived).is_empty();
            }
            if !changed {
                break;
            }
        }
        st.wall_ns += started.elapsed().as_nanos() as u64;
        // `a` = stratum, `b` = fixpoint iterations this tick so far.
        blazes_obs::span(
            span,
            blazes_obs::EventKind::Stratum,
            stratum as u64,
            st.fixpoint_iters,
        );
    }
    Ok(())
}

/// Semi-naive fixpoint over the demanded rules: one full pass seeds
/// per-collection deltas, then each iteration only joins the previous
/// iteration's new tuples against hash indexes over the accumulated sets.
/// Rules whose read-set gained nothing are skipped. Nonmonotonic bodies
/// run exactly once per stratum (their sources live strictly below and
/// are complete). A stratum with no demanded rule does not run at all.
#[allow(clippy::too_many_arguments)] // internal fixpoint plumbing
fn semi_naive_fixpoint(
    m: &Module,
    sched: &Schedule,
    plans: &[JoinPlan],
    workers: usize,
    demanded: &[bool],
    state: &mut State,
    undo: &mut Undo,
    cache: &mut IndexCache,
    stats: &mut [TickStats],
) -> Result<()> {
    for (stratum, st) in stats.iter_mut().enumerate().take(sched.max_stratum + 1) {
        let all = &sched.instant_by_stratum[stratum];
        let rules: Vec<usize> = all.iter().copied().filter(|&ri| demanded[ri]).collect();
        st.rules_skipped += (all.len() - rules.len()) as u64;
        if rules.is_empty() {
            continue;
        }
        let started = Instant::now();
        let span = blazes_obs::start();
        st.fixpoint_iters += 1;
        let mut delta: BTreeMap<usize, Rel> = BTreeMap::new();
        for &ri in &rules {
            let derived = eval_rule_once(m, plans, ri, state, cache, workers, &mut st.join_probes)?;
            st.derivations += derived.len() as u64;
            insert_new(m, sched.heads[ri], derived, state, undo, cache, &mut delta);
        }
        loop {
            delta.retain(|_, r| !r.is_empty());
            if delta.is_empty() {
                break;
            }
            st.fixpoint_iters += 1;
            let cur = std::mem::take(&mut delta);
            for &ri in &rules {
                // Aggregations and antijoins saw their (complete, lower-
                // stratum) sources in the first pass.
                if matches!(
                    m.rules[ri].body,
                    RuleBody::GroupBy { .. } | RuleBody::AntiJoin { .. }
                ) {
                    continue;
                }
                // Read-set skip: nothing new to feed this rule.
                let fed: Vec<Option<&Rel>> = sched.sources[ri].iter().map(|c| cur.get(c)).collect();
                if fed.iter().all(Option::is_none) {
                    continue;
                }
                let derived = eval_rule_delta(
                    m,
                    plans,
                    ri,
                    state,
                    cache,
                    &fed,
                    workers,
                    &mut st.join_probes,
                )?;
                st.derivations += derived.len() as u64;
                insert_new(m, sched.heads[ri], derived, state, undo, cache, &mut delta);
            }
        }
        st.wall_ns += started.elapsed().as_nanos() as u64;
        // `a` = stratum, `b` = fixpoint iterations this tick so far.
        blazes_obs::span(
            span,
            blazes_obs::EventKind::Stratum,
            stratum as u64,
            st.fixpoint_iters,
        );
    }
    Ok(())
}

/// Merge freshly derived tuples into the head collection, recording the
/// genuinely new ones in the delta map and keeping live indexes fresh.
fn insert_new(
    m: &Module,
    head: usize,
    derived: Rel,
    state: &mut State,
    undo: &mut Undo,
    cache: &mut IndexCache,
    delta: &mut BTreeMap<usize, Rel>,
) {
    let fresh = merge(m, state, undo, head, derived);
    if fresh.is_empty() {
        return;
    }
    for t in &fresh {
        cache.note_insert(&m.collections[head].name, t);
    }
    delta.entry(head).or_default().extend(fresh);
}

// ---------------------------------------------------------------------
// Rule plans and hash indexes
// ---------------------------------------------------------------------

/// The cross- and same-side structure of a join/antijoin `on` clause,
/// resolved to column positions at instantiation time (empty for other
/// bodies).
#[derive(Debug, Clone, Default)]
struct JoinPlan {
    /// Key columns on the left/positive side (cross-side equalities).
    lkey: Vec<usize>,
    /// Key columns on the right/negated side, aligned with `lkey`.
    rkey: Vec<usize>,
    /// Same-side equalities on the left tuple.
    lfilter: Vec<(usize, usize)>,
    /// Same-side equalities on the right tuple.
    rfilter: Vec<(usize, usize)>,
}

/// Resolve every column reference of every rule exactly as evaluation
/// would (so an unresolvable one fails here, in every mode, rather than on
/// whichever tick first evaluates the rule), and plan each join/antijoin
/// `on` clause as hash-join keys.
fn plan_rules(m: &Module) -> Result<Vec<JoinPlan>> {
    m.rules
        .iter()
        .map(|r| match &r.body {
            RuleBody::Select {
                source,
                projection,
                predicates,
            } => {
                let scope = [(source.as_str(), decl(m, source)?)];
                let proj = projection.as_deref().unwrap_or_default();
                check_cols(pred_cols(predicates).chain(proj_cols(proj)), &scope, None)?;
                Ok(JoinPlan::default())
            }
            RuleBody::Join {
                left,
                right,
                on,
                projection,
                predicates,
            } => {
                let scope = [
                    (left.as_str(), decl(m, left)?),
                    (right.as_str(), decl(m, right)?),
                ];
                check_cols(
                    pred_cols(predicates).chain(proj_cols(projection)),
                    &scope,
                    None,
                )?;
                plan_pairs(on, &scope)
            }
            RuleBody::AntiJoin {
                source,
                neg,
                on,
                projection,
                predicates,
            } => {
                let scope = [
                    (source.as_str(), decl(m, source)?),
                    (neg.as_str(), decl(m, neg)?),
                ];
                let proj = projection.as_deref().unwrap_or_default();
                check_cols(
                    pred_cols(predicates).chain(proj_cols(proj)),
                    &scope[..1],
                    None,
                )?;
                plan_pairs(on, &scope)
            }
            RuleBody::GroupBy {
                source,
                group_by,
                agg,
                agg_col,
                alias,
                having,
                projection,
            } => {
                let d = decl(m, source)?;
                let scope = [(source.as_str(), d)];
                check_cols(group_by, &scope, None)?;
                agg_column(source, d, *agg, agg_col.as_ref())?;
                let proj = projection.as_deref().unwrap_or_default();
                let cols = pred_cols(having.as_slice()).chain(proj_cols(proj));
                check_cols(cols, &scope, Some(alias))?;
                Ok(JoinPlan::default())
            }
        })
        .collect()
}

fn check_cols<'c>(
    cols: impl IntoIterator<Item = &'c ColRef>,
    scope: &[(&str, &CollectionDecl)],
    alias: Option<&str>,
) -> Result<()> {
    for c in cols {
        resolve(c, scope.iter().copied(), alias)?;
    }
    Ok(())
}

fn pred_cols(preds: &[Predicate]) -> impl Iterator<Item = &ColRef> {
    preds
        .iter()
        .flat_map(|p| [&p.lhs, &p.rhs])
        .filter_map(|o| match o {
            Operand::Col(c) => Some(c),
            Operand::Lit(_) => None,
        })
}

fn proj_cols(items: &[ProjItem]) -> impl Iterator<Item = &ColRef> {
    items.iter().filter_map(|i| match i {
        ProjItem::Col(c) => Some(c),
        ProjItem::Lit(_) => None,
    })
}

fn plan_pairs(on: &[(ColRef, ColRef)], sides: &[(&str, &CollectionDecl); 2]) -> Result<JoinPlan> {
    let mut plan = JoinPlan::default();
    for (a, b) in on {
        let side = |c| resolve(c, sides.iter().copied(), None).map(|s| s.expect("no alias"));
        match (side(a)?, side(b)?) {
            ((0, i), (0, j)) => plan.lfilter.push((i, j)),
            ((0, i), (_, j)) => {
                plan.lkey.push(i);
                plan.rkey.push(j);
            }
            ((_, i), (0, j)) => {
                plan.lkey.push(j);
                plan.rkey.push(i);
            }
            ((_, i), (_, j)) => plan.rfilter.push((i, j)),
        }
    }
    Ok(plan)
}

/// Resolve a column reference the one way every evaluation path does: a
/// bare name matching the aggregate alias is the alias (`Ok(None)`);
/// otherwise the first binding whose name matches (any binding, for a bare
/// name) and whose schema has the column gives `Ok(Some((binding,
/// column)))`. A qualified reference whose collection lacks the column is
/// an error, as is a reference nothing resolves.
fn resolve<'a>(
    col: &ColRef,
    bindings: impl Iterator<Item = (&'a str, &'a CollectionDecl)>,
    alias: Option<&str>,
) -> Result<Option<(usize, usize)>> {
    if col.collection.is_empty() && alias == Some(col.column.as_str()) {
        return Ok(None);
    }
    for (bi, (name, decl)) in bindings.enumerate() {
        if !col.collection.is_empty() && col.collection != name {
            continue;
        }
        if let Some(i) = decl.col_index(&col.column) {
            return Ok(Some((bi, i)));
        }
        if !col.collection.is_empty() {
            return Err(BloomError::Eval(format!(
                "collection {:?} has no column {:?}",
                name, col.column
            )));
        }
    }
    Err(BloomError::Eval(format!(
        "unresolved column reference {col}"
    )))
}

fn key_of(t: &Tuple, cols: &[usize]) -> Vec<Value> {
    cols.iter()
        .map(|&i| t.get(i).expect("schema arity").clone())
        .collect()
}

fn passes_filter(t: &Tuple, eqs: &[(usize, usize)]) -> bool {
    eqs.iter()
        .all(|&(i, j)| t.get(i).expect("schema arity") == t.get(j).expect("schema arity"))
}

/// Shard assignment by join-key hash: tuples with equal keys land on the
/// same shard, so per-shard probe work is disjoint.
fn shard_of(t: &Tuple, cols: &[usize], workers: usize) -> usize {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for &i in cols {
        t.get(i).expect("schema arity").hash(&mut h);
    }
    (h.finish() as usize) % workers
}

/// Hash indexes built once per tick and kept fresh incrementally as the
/// fixpoint inserts new tuples.
#[derive(Default)]
struct IndexCache {
    map: HashMap<(String, Vec<usize>), Index>,
}

impl IndexCache {
    /// Build the `(collection, key-columns)` index from the current state
    /// if it does not exist yet.
    fn ensure(&mut self, state: &State, coll: &str, cols: &[usize]) {
        let key = (coll.to_string(), cols.to_vec());
        if self.map.contains_key(&key) {
            return;
        }
        let mut idx = Index::default();
        if let Some(rel) = state.get(coll) {
            for t in rel.iter() {
                idx.entry(key_of(t, cols)).or_default().push(t.clone());
            }
        }
        self.map.insert(key, idx);
    }

    fn get(&self, coll: &str, cols: &[usize]) -> &Index {
        self.map
            .get(&(coll.to_string(), cols.to_vec()))
            .expect("index ensured before use")
    }

    /// Keep live indexes over `coll` consistent with a fixpoint insert.
    fn note_insert(&mut self, coll: &str, t: &Tuple) {
        for ((c, cols), idx) in &mut self.map {
            if c == coll {
                idx.entry(key_of(t, cols)).or_default().push(t.clone());
            }
        }
    }
}

// ---------------------------------------------------------------------
// Planned (semi-naive) rule evaluation
// ---------------------------------------------------------------------

/// Evaluate a rule body over the full current state (the first pass of a
/// stratum, and the post-fixpoint deferred/async pass).
fn eval_rule_once(
    m: &Module,
    plans: &[JoinPlan],
    ri: usize,
    state: &State,
    cache: &mut IndexCache,
    workers: usize,
    probes: &mut u64,
) -> Result<Rel> {
    let rule = &m.rules[ri];
    let plan = &plans[ri];
    match &rule.body {
        RuleBody::Select {
            source,
            projection,
            predicates,
        } => {
            let d = decl(m, source)?;
            let tuples: Vec<&Tuple> = state[source].iter().collect();
            eval_select(source, d, projection.as_ref(), predicates, &tuples, probes)
        }
        RuleBody::Join {
            left,
            right,
            projection,
            predicates,
            ..
        } => {
            let args = JoinArgs {
                left,
                ldecl: decl(m, left)?,
                right,
                rdecl: decl(m, right)?,
                projection,
                predicates,
                plan,
            };
            cache.ensure(state, right, &plan.rkey);
            let probe: Vec<&Tuple> = state[left].iter().collect();
            probe_join(
                &args,
                &probe,
                true,
                cache.get(right, &plan.rkey),
                workers,
                probes,
            )
        }
        RuleBody::AntiJoin {
            source,
            neg,
            projection,
            predicates,
            ..
        } => {
            let args = AntiArgs {
                source,
                sdecl: decl(m, source)?,
                projection: projection.as_ref(),
                predicates,
                plan,
            };
            cache.ensure(state, neg, &plan.rkey);
            let probe: Vec<&Tuple> = state[source].iter().collect();
            probe_anti(&args, &probe, cache.get(neg, &plan.rkey), workers, probes)
        }
        RuleBody::GroupBy { .. } => eval_body(m, state, &rule.body, probes),
    }
}

/// Evaluate a monotonic rule against the previous iteration's deltas of
/// its sources (`fed`, aligned with the body's sources): delta ⋈ full on
/// each side, probing the incrementally maintained indexes.
#[allow(clippy::too_many_arguments)] // internal fixpoint plumbing
fn eval_rule_delta(
    m: &Module,
    plans: &[JoinPlan],
    ri: usize,
    state: &State,
    cache: &mut IndexCache,
    fed: &[Option<&Rel>],
    workers: usize,
    probes: &mut u64,
) -> Result<Rel> {
    let rule = &m.rules[ri];
    let plan = &plans[ri];
    match &rule.body {
        RuleBody::Select {
            source,
            projection,
            predicates,
        } => match fed[0] {
            Some(d) => {
                let tuples: Vec<&Tuple> = d.iter().collect();
                eval_select(
                    source,
                    decl(m, source)?,
                    projection.as_ref(),
                    predicates,
                    &tuples,
                    probes,
                )
            }
            _ => Ok(Rel::new()),
        },
        RuleBody::Join {
            left,
            right,
            projection,
            predicates,
            ..
        } => {
            let args = JoinArgs {
                left,
                ldecl: decl(m, left)?,
                right,
                rdecl: decl(m, right)?,
                projection,
                predicates,
                plan,
            };
            let mut out = Rel::new();
            if let Some(dl) = fed[0] {
                cache.ensure(state, right, &plan.rkey);
                let probe: Vec<&Tuple> = dl.iter().collect();
                out.extend(probe_join(
                    &args,
                    &probe,
                    true,
                    cache.get(right, &plan.rkey),
                    workers,
                    probes,
                )?);
            }
            if let Some(dr) = fed[1] {
                cache.ensure(state, left, &plan.lkey);
                let probe: Vec<&Tuple> = dr.iter().collect();
                out.extend(probe_join(
                    &args,
                    &probe,
                    false,
                    cache.get(left, &plan.lkey),
                    workers,
                    probes,
                )?);
            }
            Ok(out)
        }
        // Nonmonotonic bodies never run in delta iterations.
        RuleBody::AntiJoin { .. } | RuleBody::GroupBy { .. } => {
            debug_assert!(false, "nonmonotonic body in delta iteration");
            Ok(Rel::new())
        }
    }
}

fn eval_select(
    source: &str,
    d: &CollectionDecl,
    projection: Option<&Vec<ProjItem>>,
    predicates: &[Predicate],
    tuples: &[&Tuple],
    probes: &mut u64,
) -> Result<Rel> {
    let mut out = Rel::new();
    for &t in tuples {
        *probes += 1;
        let env = Env {
            bindings: vec![(source, d, t)],
            alias: None,
        };
        if !env.check_all(predicates)? {
            continue;
        }
        out.insert(match projection {
            Some(items) => env.project(items)?,
            None => t.clone(),
        });
    }
    Ok(out)
}

struct JoinArgs<'a> {
    left: &'a str,
    ldecl: &'a CollectionDecl,
    right: &'a str,
    rdecl: &'a CollectionDecl,
    projection: &'a [ProjItem],
    predicates: &'a [Predicate],
    plan: &'a JoinPlan,
}

/// Probe one side's tuples against a hash index over the other side,
/// sharding across scoped workers when the probe set is large enough.
fn probe_join(
    args: &JoinArgs<'_>,
    probe: &[&Tuple],
    probe_is_left: bool,
    index: &Index,
    workers: usize,
    probes: &mut u64,
) -> Result<Rel> {
    let (pkey, pfilter, ofilter) = if probe_is_left {
        (&args.plan.lkey, &args.plan.lfilter, &args.plan.rfilter)
    } else {
        (&args.plan.rkey, &args.plan.rfilter, &args.plan.lfilter)
    };
    let run = |chunk: &[&Tuple]| -> Result<(Rel, u64)> {
        let mut out = Rel::new();
        let mut p = 0u64;
        for &t in chunk {
            p += 1;
            if !passes_filter(t, pfilter) {
                continue;
            }
            let Some(bucket) = index.get(&key_of(t, pkey)) else {
                continue;
            };
            for o in bucket {
                p += 1;
                if !passes_filter(o, ofilter) {
                    continue;
                }
                let (lt, rt) = if probe_is_left { (t, o) } else { (o, t) };
                let env = Env {
                    bindings: vec![(args.left, args.ldecl, lt), (args.right, args.rdecl, rt)],
                    alias: None,
                };
                if !env.check_all(args.predicates)? {
                    continue;
                }
                out.insert(env.project(args.projection)?);
            }
        }
        Ok((out, p))
    };
    run_maybe_sharded(probe, pkey, workers, &run, probes)
}

struct AntiArgs<'a> {
    source: &'a str,
    sdecl: &'a CollectionDecl,
    projection: Option<&'a Vec<ProjItem>>,
    predicates: &'a [Predicate],
    plan: &'a JoinPlan,
}

/// Antijoin via existence probes against an index over the negated side.
fn probe_anti(
    args: &AntiArgs<'_>,
    probe: &[&Tuple],
    index: &Index,
    workers: usize,
    probes: &mut u64,
) -> Result<Rel> {
    let plan = args.plan;
    let run = |chunk: &[&Tuple]| -> Result<(Rel, u64)> {
        let mut out = Rel::new();
        let mut p = 0u64;
        for &t in chunk {
            p += 1;
            let matched = passes_filter(t, &plan.lfilter)
                && match index.get(&key_of(t, &plan.lkey)) {
                    Some(bucket) if plan.rfilter.is_empty() => !bucket.is_empty(),
                    Some(bucket) => bucket.iter().any(|nt| {
                        p += 1;
                        passes_filter(nt, &plan.rfilter)
                    }),
                    None => false,
                };
            if matched {
                continue;
            }
            let env = Env {
                bindings: vec![(args.source, args.sdecl, t)],
                alias: None,
            };
            if !env.check_all(args.predicates)? {
                continue;
            }
            out.insert(match args.projection {
                Some(items) => env.project(items)?,
                None => t.clone(),
            });
        }
        Ok((out, p))
    };
    run_maybe_sharded(probe, &plan.lkey, workers, &run, probes)
}

/// Run a probe closure inline, or partitioned by join-key hash across
/// scoped worker threads when the probe set is large enough to amortize
/// the fan-out. Per-shard results are unioned into one ordered set, so
/// the merge is deterministic regardless of worker count.
fn run_maybe_sharded<F>(
    probe: &[&Tuple],
    key_cols: &[usize],
    workers: usize,
    run: &F,
    probes: &mut u64,
) -> Result<Rel>
where
    F: Fn(&[&Tuple]) -> Result<(Rel, u64)> + Sync,
{
    if workers <= 1 || probe.len() < SHARD_MIN_TUPLES {
        let (out, p) = run(probe)?;
        *probes += p;
        return Ok(out);
    }
    let mut shards: Vec<Vec<&Tuple>> = vec![Vec::new(); workers];
    for &t in probe {
        shards[shard_of(t, key_cols, workers)].push(t);
    }
    let jobs: Vec<_> = shards
        .iter()
        .map(|shard| move || run(shard.as_slice()))
        .collect();
    let mut out = Rel::new();
    for res in pool::fork_join(jobs) {
        let (part, p) = res?;
        *probes += p;
        out.extend(part);
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Body evaluation (reference nested-loop path)
// ---------------------------------------------------------------------

fn lit_value(l: &Literal) -> Value {
    match l {
        Literal::Int(i) => Value::Int(*i),
        Literal::Str(s) => Value::Str(s.clone()),
        Literal::Bool(b) => Value::Bool(*b),
    }
}

/// A row environment: qualified column lookup across one or two bound
/// collections plus an optional aggregate alias.
struct Env<'a> {
    bindings: Vec<(&'a str, &'a CollectionDecl, &'a Tuple)>,
    alias: Option<(&'a str, Value)>,
}

impl<'a> Env<'a> {
    fn lookup(&self, col: &ColRef) -> Result<Value> {
        let bindings = self.bindings.iter().map(|&(name, decl, _)| (name, decl));
        Ok(
            match resolve(col, bindings, self.alias.as_ref().map(|a| a.0))? {
                Some((b, i)) => self.bindings[b].2.get(i).expect("schema arity").clone(),
                None => self.alias.as_ref().expect("alias resolved").1.clone(),
            },
        )
    }

    fn operand(&self, op: &Operand) -> Result<Value> {
        match op {
            Operand::Col(c) => self.lookup(c),
            Operand::Lit(l) => Ok(lit_value(l)),
        }
    }

    fn check(&self, pred: &Predicate) -> Result<bool> {
        let l = self.operand(&pred.lhs)?;
        let r = self.operand(&pred.rhs)?;
        Ok(pred.op.eval(l.cmp(&r)))
    }

    fn check_all(&self, preds: &[Predicate]) -> Result<bool> {
        for p in preds {
            if !self.check(p)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    fn project(&self, items: &[ProjItem]) -> Result<Tuple> {
        let mut values = Vec::with_capacity(items.len());
        for item in items {
            values.push(match item {
                ProjItem::Col(c) => self.lookup(c)?,
                ProjItem::Lit(l) => lit_value(l),
            });
        }
        Ok(Tuple(values))
    }
}

fn decl<'m>(m: &'m Module, name: &str) -> Result<&'m CollectionDecl> {
    m.collection(name)
        .ok_or_else(|| BloomError::Eval(format!("unknown collection {name:?}")))
}

fn eval_body(m: &Module, state: &State, body: &RuleBody, probes: &mut u64) -> Result<Rel> {
    match body {
        RuleBody::Select {
            source,
            projection,
            predicates,
        } => {
            let d = decl(m, source)?;
            let tuples: Vec<&Tuple> = state[source].iter().collect();
            eval_select(source, d, projection.as_ref(), predicates, &tuples, probes)
        }
        RuleBody::Join {
            left,
            right,
            on,
            projection,
            predicates,
        } => {
            let dl = decl(m, left)?;
            let dr = decl(m, right)?;
            let mut out = Rel::new();
            for lt in state[left].iter() {
                for rt in state[right].iter() {
                    *probes += 1;
                    let env = Env {
                        bindings: vec![(left, dl, lt), (right, dr, rt)],
                        alias: None,
                    };
                    let mut matched = true;
                    for (lc, rc) in on {
                        if env.lookup(lc)? != env.lookup(rc)? {
                            matched = false;
                            break;
                        }
                    }
                    if matched && env.check_all(predicates)? {
                        out.insert(env.project(projection)?);
                    }
                }
            }
            Ok(out)
        }
        RuleBody::AntiJoin {
            source,
            neg,
            on,
            projection,
            predicates,
        } => {
            let ds = decl(m, source)?;
            let dn = decl(m, neg)?;
            let mut out = Rel::new();
            for t in state[source].iter() {
                let mut matched = false;
                for nt in state[neg].iter() {
                    *probes += 1;
                    let env = Env {
                        bindings: vec![(source, ds, t), (neg, dn, nt)],
                        alias: None,
                    };
                    let mut all_eq = true;
                    for (lc, rc) in on {
                        if env.lookup(lc)? != env.lookup(rc)? {
                            all_eq = false;
                            break;
                        }
                    }
                    if all_eq {
                        matched = true;
                        break;
                    }
                }
                if matched {
                    continue;
                }
                let env = Env {
                    bindings: vec![(source, ds, t)],
                    alias: None,
                };
                if !env.check_all(predicates)? {
                    continue;
                }
                out.insert(match projection {
                    Some(items) => env.project(items)?,
                    None => t.clone(),
                });
            }
            Ok(out)
        }
        RuleBody::GroupBy {
            source,
            group_by,
            agg,
            agg_col,
            alias,
            having,
            projection,
        } => {
            let d = decl(m, source)?;
            // Group rows by the grouping key.
            let mut groups: BTreeMap<Vec<Value>, Vec<&Tuple>> = BTreeMap::new();
            for t in state[source].iter() {
                *probes += 1;
                let env = Env {
                    bindings: vec![(source, d, t)],
                    alias: None,
                };
                let mut key = Vec::with_capacity(group_by.len());
                for c in group_by {
                    key.push(env.lookup(c)?);
                }
                groups.entry(key).or_default().push(t);
            }
            let mut out = Rel::new();
            for (key, rows) in groups {
                let value = aggregate(source, d, *agg, agg_col.as_ref(), &rows)?;
                // Representative row for column resolution.
                let rep = rows[0];
                let env = Env {
                    bindings: vec![(source, d, rep)],
                    alias: Some((alias.as_str(), value.clone())),
                };
                if let Some(h) = having {
                    if !env.check(h)? {
                        continue;
                    }
                }
                let tuple = match projection {
                    Some(items) => env.project(items)?,
                    None => {
                        let mut values = key.clone();
                        values.push(value.clone());
                        Tuple(values)
                    }
                };
                out.insert(tuple);
            }
            Ok(out)
        }
    }
}

/// The column an aggregate reads (`None` for `count`).
fn agg_column(
    source: &str,
    d: &CollectionDecl,
    agg: AggFun,
    agg_col: Option<&ColRef>,
) -> Result<Option<usize>> {
    if agg == AggFun::Count {
        return Ok(None);
    }
    let c = agg_col.ok_or_else(|| BloomError::Eval("sum/min/max require a column".to_string()))?;
    if !c.collection.is_empty() && c.collection != source {
        return Err(BloomError::Eval(format!(
            "aggregate column {c} does not belong to {source:?}"
        )));
    }
    d.col_index(&c.column)
        .map(Some)
        .ok_or_else(|| BloomError::Eval(format!("unknown aggregate column {c}")))
}

fn aggregate(
    source: &str,
    d: &CollectionDecl,
    agg: AggFun,
    agg_col: Option<&ColRef>,
    rows: &[&Tuple],
) -> Result<Value> {
    let Some(i) = agg_column(source, d, agg, agg_col)? else {
        return Ok(Value::Int(rows.len() as i64));
    };
    Ok(match agg {
        AggFun::Sum => {
            let mut sum = 0i64;
            for r in rows {
                sum += r
                    .get(i)
                    .and_then(Value::as_int)
                    .ok_or_else(|| BloomError::Eval("sum over non-integer".to_string()))?;
            }
            Value::Int(sum)
        }
        _ => {
            let vals = rows.iter().filter_map(|r| r.get(i));
            let v = if agg == AggFun::Min {
                vals.min()
            } else {
                vals.max()
            };
            v.ok_or_else(|| BloomError::Eval("aggregate over empty group".to_string()))?
                .clone()
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_module;

    fn inputs(pairs: &[(&str, Vec<Tuple>)]) -> BTreeMap<String, Vec<Tuple>> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    }

    fn t2(a: impl Into<Value>, b: impl Into<Value>) -> Tuple {
        Tuple(vec![a.into(), b.into()])
    }

    fn t1(a: impl Into<Value>) -> Tuple {
        Tuple(vec![a.into()])
    }

    /// Every mode a behavior test should hold under.
    fn all_modes() -> Vec<EvalMode> {
        vec![
            EvalMode::Naive,
            EvalMode::SemiNaive,
            EvalMode::Sharded { workers: 2 },
        ]
    }

    #[test]
    fn select_relay() {
        for mode in all_modes() {
            let m = parse_module("module M { input a(x) output o(x) o <= a }").unwrap();
            let mut inst = ModuleInstance::with_mode(m, mode).unwrap();
            let out = inst
                .tick(inputs(&[("a", vec![t1(1i64), t1(2i64)])]))
                .unwrap();
            assert_eq!(out.on("o"), &[t1(1i64), t1(2i64)]);
        }
    }

    #[test]
    fn tables_persist_across_ticks() {
        for mode in all_modes() {
            let m = parse_module("module M { input a(x) output o(x) table t(x) t <= a o <= t }")
                .unwrap();
            let mut inst = ModuleInstance::with_mode(m, mode).unwrap();
            inst.tick(inputs(&[("a", vec![t1(1i64)])])).unwrap();
            let out = inst.tick(inputs(&[("a", vec![t1(2i64)])])).unwrap();
            // Both the old and the new tuple are in the table.
            assert_eq!(out.on("o"), &[t1(1i64), t1(2i64)]);
            assert_eq!(inst.table("t").len(), 2);
        }
    }

    #[test]
    fn scratches_do_not_persist() {
        for mode in all_modes() {
            let m = parse_module("module M { input a(x) output o(x) scratch s(x) s <= a o <= s }")
                .unwrap();
            let mut inst = ModuleInstance::with_mode(m, mode).unwrap();
            inst.tick(inputs(&[("a", vec![t1(1i64)])])).unwrap();
            let out = inst.tick(inputs(&[])).unwrap();
            assert!(out.on("o").is_empty());
        }
    }

    #[test]
    fn deferred_merge_lands_next_tick() {
        for mode in all_modes() {
            let m = parse_module("module M { input a(x) output o(x) table t(x) t <+ a o <= t }")
                .unwrap();
            let mut inst = ModuleInstance::with_mode(m, mode).unwrap();
            let out = inst.tick(inputs(&[("a", vec![t1(1i64)])])).unwrap();
            assert!(out.on("o").is_empty(), "deferred: not visible this tick");
            let out = inst.tick(inputs(&[])).unwrap();
            assert_eq!(out.on("o"), &[t1(1i64)]);
        }
    }

    #[test]
    fn deletion_removes_next_tick() {
        for mode in all_modes() {
            let m = parse_module(
                r#"
module M {
  input a(x)
  input del(x)
  output o(x)
  table t(x)
  t <= a
  t <- (t * del) on (t.x = del.x) -> (t.x)
  o <= t
}
"#,
            )
            .unwrap();
            let mut inst = ModuleInstance::with_mode(m, mode).unwrap();
            inst.tick(inputs(&[("a", vec![t1(1i64), t1(2i64)])]))
                .unwrap();
            let out = inst.tick(inputs(&[("del", vec![t1(1i64)])])).unwrap();
            // Deletion is deferred: tuple 1 still visible this tick.
            assert_eq!(out.on("o"), &[t1(1i64), t1(2i64)]);
            let out = inst.tick(inputs(&[])).unwrap();
            assert_eq!(out.on("o"), &[t1(2i64)]);
        }
    }

    const TC: &str = r#"
module TC {
  input edge(src, dst)
  output path(src, dst)
  table e(src, dst)
  scratch p(src, dst)
  e <= edge
  p <= e
  p <= (p * e) on (p.dst = e.src) -> (p.src, e.dst)
  path <= p
}
"#;

    #[test]
    fn transitive_closure_fixpoint() {
        for mode in all_modes() {
            let m = parse_module(TC).unwrap();
            let mut inst = ModuleInstance::with_mode(m, mode).unwrap();
            let out = inst
                .tick(inputs(&[(
                    "edge",
                    vec![t2(1i64, 2i64), t2(2i64, 3i64), t2(3i64, 4i64)],
                )]))
                .unwrap();
            // 3 direct + 2 two-hop + 1 three-hop = 6 paths.
            assert_eq!(out.on("path").len(), 6);
            assert!(out.on("path").contains(&t2(1i64, 4i64)));
        }
    }

    #[test]
    fn semi_naive_agrees_with_naive_and_cuts_rederivation() {
        let chain: Vec<Tuple> = (0..40).map(|i| t2(i as i64, i as i64 + 1)).collect();

        let mut naive =
            ModuleInstance::with_mode(parse_module(TC).unwrap(), EvalMode::Naive).unwrap();
        let out_naive = naive.tick(inputs(&[("edge", chain.clone())])).unwrap();

        let mut semi =
            ModuleInstance::with_mode(parse_module(TC).unwrap(), EvalMode::SemiNaive).unwrap();
        let out_semi = semi.tick(inputs(&[("edge", chain.clone())])).unwrap();

        assert_eq!(out_naive, out_semi, "digests must be bit-identical");
        let n = naive.last_tick_stats();
        let s = semi.last_tick_stats();
        assert!(
            s.derivations < n.derivations / 4,
            "semi-naive must not re-derive: naive {} vs semi {}",
            n.derivations,
            s.derivations
        );
        assert!(
            s.join_probes < n.join_probes / 4,
            "hash probes must beat nested loops: naive {} vs semi {}",
            n.join_probes,
            s.join_probes
        );
        // Both need the same number of iterations to reach the fixpoint on
        // a chain (diameter-bound), give or take the final empty check.
        assert!(s.fixpoint_iters > 1);
    }

    #[test]
    fn sharded_matches_semi_naive_tables_and_outputs() {
        // Large enough to cross the sharding threshold.
        let edges: Vec<Tuple> = (0..600)
            .map(|i| t2(i as i64 % 300, (i as i64 * 7 + 1) % 300))
            .collect();
        let mut reference =
            ModuleInstance::with_mode(parse_module(TC).unwrap(), EvalMode::SemiNaive).unwrap();
        let out_ref = reference.tick(inputs(&[("edge", edges.clone())])).unwrap();
        for workers in [1usize, 2, 4] {
            let mut sharded =
                ModuleInstance::with_mode(parse_module(TC).unwrap(), EvalMode::Sharded { workers })
                    .unwrap();
            let out = sharded.tick(inputs(&[("edge", edges.clone())])).unwrap();
            assert_eq!(out_ref, out, "sharded x{workers} diverged");
            assert_eq!(reference.table("e"), sharded.table("e"));
        }
    }

    #[test]
    fn stats_exposed_per_stratum() {
        let m = parse_module(
            r#"
module G {
  input click(id)
  output poor(id, n)
  table log(id)
  log <= click
  poor <= log group by (log.id) agg count(*) as n having n < 3
}
"#,
        )
        .unwrap();
        let mut inst = ModuleInstance::new(m).unwrap();
        inst.tick(inputs(&[("click", vec![t1("a"), t1("b")])]))
            .unwrap();
        let strata = inst.last_stratum_stats();
        assert_eq!(strata.len(), 2, "log in stratum 0, poor in stratum 1");
        assert!(strata.iter().all(|s| s.fixpoint_iters >= 1));
        let total = inst.last_tick_stats();
        assert!(total.derivations >= 2);
        assert_eq!(inst.cumulative_stats().derivations, total.derivations);
        inst.tick(inputs(&[])).unwrap();
        assert!(inst.cumulative_stats().fixpoint_iters > total.fixpoint_iters);
    }

    #[test]
    fn groupby_count_and_having() {
        for mode in all_modes() {
            let m = parse_module(
                r#"
module G {
  input click(id)
  output poor(id, n)
  table log(id)
  log <= click
  poor <= log group by (log.id) agg count(*) as n having n < 3
}
"#,
            )
            .unwrap();
            let mut inst = ModuleInstance::with_mode(m, mode).unwrap();
            // Note set semantics: duplicates collapse, so use distinct tuples.
            let m_inputs = inputs(&[("click", vec![t1("a"), t1("b")])]);
            let out = inst.tick(m_inputs).unwrap();
            assert_eq!(out.on("poor").len(), 2);
            assert!(out.on("poor").contains(&t2("a", 1i64)));
        }
    }

    #[test]
    fn groupby_sum_min_max() {
        let m = parse_module(
            r#"
module G {
  input obs(k, v)
  output s(k, total)
  output lo(k, v)
  output hi(k, v)
  s <= obs group by (obs.k) agg sum(obs.v) as total
  lo <= obs group by (obs.k) agg min(obs.v) as v
  hi <= obs group by (obs.k) agg max(obs.v) as v
}
"#,
        )
        .unwrap();
        let mut inst = ModuleInstance::new(m).unwrap();
        let out = inst
            .tick(inputs(&[(
                "obs",
                vec![t2("a", 1i64), t2("a", 5i64), t2("b", 3i64)],
            )]))
            .unwrap();
        assert_eq!(out.on("s"), &[t2("a", 6i64), t2("b", 3i64)]);
        assert_eq!(out.on("lo"), &[t2("a", 1i64), t2("b", 3i64)]);
        assert_eq!(out.on("hi"), &[t2("a", 5i64), t2("b", 3i64)]);
    }

    #[test]
    fn antijoin_evaluation() {
        for mode in all_modes() {
            let m = parse_module(
                r#"
module A {
  input orders(id)
  input cancels(id)
  output live(id)
  live <= orders not in cancels on (orders.id = cancels.id)
}
"#,
            )
            .unwrap();
            let mut inst = ModuleInstance::with_mode(m, mode).unwrap();
            let out = inst
                .tick(inputs(&[
                    ("orders", vec![t1(1i64), t1(2i64), t1(3i64)]),
                    ("cancels", vec![t1(2i64)]),
                ]))
                .unwrap();
            assert_eq!(out.on("live"), &[t1(1i64), t1(3i64)]);
        }
    }

    #[test]
    fn antijoin_with_empty_on_clause_is_existence() {
        for mode in all_modes() {
            let m = parse_module(
                r#"
module A {
  input a(x)
  input b(x)
  output o(x)
  o <= a not in b
}
"#,
            );
            // The dialect may or may not accept an empty on-clause; if it
            // parses, semantics must agree across modes.
            let Ok(m) = m else { return };
            let mut inst = ModuleInstance::with_mode(m, mode).unwrap();
            let out = inst
                .tick(inputs(&[
                    ("a", vec![t1(1i64), t1(2i64)]),
                    ("b", vec![t1(9i64)]),
                ]))
                .unwrap();
            assert!(out.on("o").is_empty(), "any b tuple suppresses all of a");
        }
    }

    #[test]
    fn stratified_negation_sees_complete_lower_stratum() {
        for mode in all_modes() {
            // p is derived transitively; the antijoin over p must observe the
            // full fixpoint of p, not a partial extension.
            let m = parse_module(
                r#"
module S {
  input seed(x)
  output missing(x)
  input all_vals(x)
  scratch p(x)
  p <= seed
  p <= p where p.x > 100
  missing <= all_vals not in p on (all_vals.x = p.x)
}
"#,
            )
            .unwrap();
            let mut inst = ModuleInstance::with_mode(m, mode).unwrap();
            let out = inst
                .tick(inputs(&[
                    ("seed", vec![t1(1i64)]),
                    ("all_vals", vec![t1(1i64), t1(2i64)]),
                ]))
                .unwrap();
            assert_eq!(out.on("missing"), &[t1(2i64)]);
        }
    }

    #[test]
    fn async_output_emitted() {
        for mode in all_modes() {
            let m = parse_module("module M { input a(x) output o(x) o <~ a }").unwrap();
            let mut inst = ModuleInstance::with_mode(m, mode).unwrap();
            let out = inst.tick(inputs(&[("a", vec![t1(9i64)])])).unwrap();
            assert_eq!(out.on("o"), &[t1(9i64)]);
        }
    }

    #[test]
    fn where_predicates_filter() {
        let m = parse_module(
            "module M { input a(x, y) output o(x, y) o <= a where a.x > 1 and a.y == 'keep' }",
        )
        .unwrap();
        let mut inst = ModuleInstance::new(m).unwrap();
        let out = inst
            .tick(inputs(&[(
                "a",
                vec![
                    Tuple(vec![Value::Int(2), Value::str("keep")]),
                    Tuple(vec![Value::Int(2), Value::str("drop")]),
                    Tuple(vec![Value::Int(0), Value::str("keep")]),
                ],
            )]))
            .unwrap();
        assert_eq!(out.on("o").len(), 1);
    }

    #[test]
    fn arity_mismatch_on_input_rejected() {
        let m = parse_module("module M { input a(x, y) output o(x, y) o <= a }").unwrap();
        let mut inst = ModuleInstance::new(m).unwrap();
        let err = inst.tick(inputs(&[("a", vec![t1(1i64)])])).unwrap_err();
        assert!(matches!(err, BloomError::Eval(_)));
    }

    #[test]
    fn unknown_input_rejected() {
        let m = parse_module("module M { input a(x) output o(x) o <= a }").unwrap();
        let mut inst = ModuleInstance::new(m).unwrap();
        let err = inst.tick(inputs(&[("ghost", vec![t1(1i64)])])).unwrap_err();
        assert!(matches!(err, BloomError::Eval(_)));
    }

    #[test]
    fn rejected_tick_is_atomic() {
        for mode in all_modes() {
            let m = parse_module(
                "module M { input a(x) input d(x) output o(x) table t(x) t <+ a t <- d o <= t }",
            )
            .unwrap();
            let mut inst = ModuleInstance::with_mode(m, mode).unwrap();
            inst.tick(inputs(&[("a", vec![t1(2i64)])])).unwrap();
            inst.tick(inputs(&[])).unwrap();
            assert_eq!(inst.table("t"), vec![t1(2i64)]);
            // Schedule insert 1 and delete 2 for the next tick ...
            inst.tick(inputs(&[("a", vec![t1(1i64)]), ("d", vec![t1(2i64)])]))
                .unwrap();
            // ... which is rejected: nothing it touched may change.
            let err = inst.tick(inputs(&[("a", vec![t2(1i64, 1i64)])]));
            assert!(matches!(err, Err(BloomError::Eval(_))), "{mode:?}");
            assert_eq!(inst.table("t"), vec![t1(2i64)], "{mode:?}");
            assert_eq!(inst.ticks(), 3, "a rejected tick does not count");
            // The next good tick applies the still-pending work.
            let out = inst.tick(inputs(&[])).unwrap();
            assert_eq!(inst.table("t"), vec![t1(1i64)], "{mode:?}");
            assert_eq!(out.on("o"), &[t1(1i64)]);
        }
    }

    #[test]
    fn rejected_tick_undoes_in_place_table_writes() {
        // Stratum 0 writes `t` in place; the `sum` in stratum 1 then fails
        // on a string, so those writes must be rolled back.
        for mode in all_modes() {
            let m = parse_module(
                "module M { input a(k, v) output s(k, total) table t(k, v) \
                 t <= a s <= t group by (t.k) agg sum(t.v) as total }",
            )
            .unwrap();
            let mut inst = ModuleInstance::with_mode(m, mode).unwrap();
            inst.tick(inputs(&[("a", vec![t2("x", 1i64)])])).unwrap();
            let err = inst.tick(inputs(&[("a", vec![t2("y", "oops")])]));
            assert!(matches!(err, Err(BloomError::Eval(_))), "{mode:?}");
            assert_eq!(inst.table("t"), vec![t2("x", 1i64)], "{mode:?}");
            let out = inst.tick(inputs(&[("a", vec![t2("x", 2i64)])])).unwrap();
            assert_eq!(out.on("s"), &[t2("x", 3i64)], "{mode:?}");
        }
    }

    #[test]
    fn unresolved_columns_fail_at_instantiation_in_every_mode() {
        // `q` is an unread scratch, so the demand pass would skip both
        // rules on every tick; the bad references must still be reported,
        // exactly as the naive oracle would on the first click.
        let bad_having = "module M { input a(x) output o(x) table log(x) scratch q(x, n) \
             log <= a q <= log group by (log.x) agg count(*) as n having m < 3 o <= a }";
        let bad_projection = "module M { input a(x) output o(x) table log(x) scratch q(x) \
             log <= a q <= log -> (log.y) o <= a }";
        for (text, want) in [
            (bad_having, "unresolved column reference m"),
            (bad_projection, "has no column \"y\""),
        ] {
            for mode in all_modes() {
                let err = ModuleInstance::with_mode(parse_module(text).unwrap(), mode).unwrap_err();
                assert!(err.to_string().contains(want), "{mode:?}: {err}");
            }
        }
    }

    #[test]
    fn skipping_never_hides_a_runtime_error() {
        // Nothing reads `s`, but a `sum` over a string fails in the oracle,
        // so every mode must evaluate it and fail the same way.
        let text = "module M { input a(k, v) output o(k) scratch s(k, total) \
             s <= a group by (a.k) agg sum(a.v) as total o <= a -> (a.k) }";
        for mode in all_modes() {
            let mut inst = ModuleInstance::with_mode(parse_module(text).unwrap(), mode).unwrap();
            let err = inst.tick(inputs(&[("a", vec![t2("x", "oops")])]));
            assert!(matches!(err, Err(BloomError::Eval(_))), "{mode:?}");
        }
    }

    #[test]
    fn projection_with_literals() {
        let m = parse_module("module M { input a(x) output o(x, tag) o <= a -> (a.x, 'hit') }")
            .unwrap();
        let mut inst = ModuleInstance::new(m).unwrap();
        let out = inst.tick(inputs(&[("a", vec![t1(7i64)])])).unwrap();
        assert_eq!(out.on("o"), &[t2(7i64, "hit")]);
    }
}
