//! The engine core: the single recognize-act cycle driver.
//!
//! [`Engine`] owns everything both execution models share — working
//! memory, the incremental matcher, refraction, budgets/timeouts, panic
//! isolation, checkpoint/resume, fault injection, [`inject`](Engine::inject),
//! metrics, trace events, and run statistics. The one phase where OPS5
//! and PARULEL differ — *which eligible instantiations fire* — is
//! delegated to a [`FiringPolicy`]. There is exactly one cycle loop in
//! this crate, and one engine type over it.
//!
//! Every cycle: take the eligible (unrefracted) conflict set, ask the
//! policy which instantiations fire (PARULEL: meta-rule redaction plus
//! interference guard; OPS5: one LEX/MEA winner), fire the chosen set
//! into one delta in instantiation-key order, and commit the batch to
//! working memory and the incremental matcher.
//!
//! Termination: the run ends when the eligible set is empty (quiescence),
//! when everything eligible is redacted (a meta-level deadlock — firing
//! nothing would loop forever, so it counts as quiescence), when a `halt`
//! fires, or at the cycle limit.

use crate::fire::{self, EngineError};
use crate::metrics::{EngineMetrics, Phase, RuleMetrics, TraceBuffer, TraceEvent};
use crate::policy::{counts_by_rule, FiringPolicy};
use crate::refraction::Refraction;
use crate::snapshot::{SnapKey, SnapValue, SnapWme, Snapshot, SnapshotError};
use crate::stats::{CycleStats, CycleTrace, Outcome, RunStats};
use crate::EngineOptions;
use parulel_core::{InstKey, Program, RuleId, Value, Wme, WmeId, WorkingMemory};
use parulel_match::{Matcher, MatcherMetrics};
use parulel_vm::{compile_program, ProgramCode};
use std::sync::Arc;
use std::time::Instant;

/// The unified cycle driver; see the [module docs](self).
pub struct Engine {
    program: Arc<Program>,
    /// `program`'s per-rule content hashes: what `reload` diffs by and
    /// checkpoints record.
    code: Arc<ProgramCode>,
    wm: WorkingMemory,
    matcher: Box<dyn Matcher>,
    refraction: Refraction,
    policy: FiringPolicy,
    opts: EngineOptions,
    stats: RunStats,
    log: Vec<String>,
    traces: Vec<CycleTrace>,
    halted: bool,
    latest_checkpoint: Option<Snapshot>,
    metrics: EngineMetrics,
    trace_buf: Option<TraceBuffer>,
    /// The run in progress, if a slice left one.
    run: Option<RunProgress>,
}

impl Engine {
    /// Builds an engine with the default PARULEL policy
    /// ([`FiringPolicy::fire_all`]) over `program`, with `wm` as the
    /// initial working memory; the matcher is seeded immediately.
    pub fn new(program: &Program, wm: WorkingMemory, opts: EngineOptions) -> Self {
        Engine::with_policy(program, wm, FiringPolicy::fire_all(), opts)
    }

    /// Builds an engine running `policy`.
    ///
    /// If the policy drops machinery the program carries (a `SelectOne`
    /// policy never consults meta-rules), a one-line warning is pushed
    /// onto the run [`log`](Self::log).
    pub fn with_policy(
        program: &Program,
        wm: WorkingMemory,
        policy: FiringPolicy,
        opts: EngineOptions,
    ) -> Self {
        let program = Arc::new(program.clone());
        let code = Arc::new(compile_program(&program));
        let mut matcher = opts.matcher.build(program.clone());
        matcher.seed(&wm);
        let metrics = EngineMetrics::new(opts.metrics, program.rules().len());
        let trace_buf = opts.trace_events.map(TraceBuffer::new);
        let mut log = Vec::new();
        if let Some(warning) = policy.dropped_machinery_warning(&program) {
            log.push(warning);
        }
        Engine {
            program,
            code,
            wm,
            matcher,
            refraction: Refraction::new(),
            policy,
            opts,
            stats: RunStats::default(),
            log,
            traces: Vec::new(),
            halted: false,
            latest_checkpoint: None,
            metrics,
            trace_buf,
            run: None,
        }
    }

    /// [`resume_with_policy`](Self::resume_with_policy) under the
    /// default PARULEL policy.
    pub fn resume(
        program: &Program,
        snapshot: &Snapshot,
        opts: EngineOptions,
    ) -> Result<Self, SnapshotError> {
        Engine::resume_with_policy(program, snapshot, FiringPolicy::fire_all(), opts)
    }

    /// Rebuilds an engine from a [`Snapshot`], continuing the captured
    /// run exactly: working memory keeps its WME ids and id counter, the
    /// refraction table is restored, and statistics/log/traces continue
    /// from the captured values. The matcher is *reseeded* from the
    /// restored working memory (a snapshot never stores matcher state —
    /// the conflict set is a pure function of working memory), so any
    /// [`MatcherKind`](crate::MatcherKind) may be chosen for the
    /// continuation. The snapshot's [`policy`](Snapshot::policy) tag
    /// records what produced it, but the continuation runs whatever
    /// `policy` the caller picks — the captured state is policy-agnostic.
    ///
    /// Class and rule names in the snapshot are bound against `program`
    /// as given. Fails with a structured error if the snapshot references
    /// classes or rules `program` does not define, or if its working
    /// memory does not validate.
    pub fn resume_with_policy(
        program: &Program,
        snapshot: &Snapshot,
        policy: FiringPolicy,
        opts: EngineOptions,
    ) -> Result<Self, SnapshotError> {
        let program = Arc::new(program.clone());
        let code = Arc::new(compile_program(&program));
        Engine::from_snapshot(program, code, snapshot, policy, opts)
    }

    /// The body of [`resume_with_policy`](Self::resume_with_policy) and
    /// [`restore`](Self::restore): `code` must be
    /// `compile_program(&program)`.
    fn from_snapshot(
        program: Arc<Program>,
        code: Arc<ProgramCode>,
        snapshot: &Snapshot,
        policy: FiringPolicy,
        opts: EngineOptions,
    ) -> Result<Self, SnapshotError> {
        let interner = &program.interner;
        let mut wmes = Vec::with_capacity(snapshot.wmes.len());
        for sw in &snapshot.wmes {
            let class = program
                .classes
                .id_of(interner.intern(&sw.class))
                .ok_or_else(|| SnapshotError::UnknownClass(sw.class.clone()))?;
            if program.classes.decl(class).arity() != sw.fields.len() {
                return Err(SnapshotError::Malformed("wme arity mismatch"));
            }
            let fields: Vec<Value> = sw
                .fields
                .iter()
                .map(|v| match v {
                    SnapValue::Sym(s) => Value::Sym(interner.intern(s)),
                    SnapValue::Int(i) => Value::Int(*i),
                    SnapValue::Float(x) => Value::Float(*x),
                })
                .collect();
            wmes.push(Wme::new(WmeId(sw.id), class, fields));
        }
        let wm = WorkingMemory::from_parts(&program.classes, wmes, snapshot.next_wme_id)
            .map_err(|e| SnapshotError::BadWm(e.to_string()))?;
        let mut keys = Vec::with_capacity(snapshot.refraction.len());
        for sk in &snapshot.refraction {
            let rule = program
                .rule_by_name(interner.intern(&sk.rule))
                .ok_or_else(|| SnapshotError::UnknownRule(sk.rule.clone()))?;
            keys.push(InstKey {
                rule,
                wmes: sk.wmes.iter().map(|&id| WmeId(id)).collect(),
            });
        }
        let mut matcher = opts.matcher.build(program.clone());
        matcher.seed(&wm);
        // Observability state is not part of the snapshot wire format:
        // a resumed engine starts fresh counters.
        let metrics = EngineMetrics::new(opts.metrics, program.rules().len());
        let trace_buf = opts.trace_events.map(TraceBuffer::new);
        Ok(Engine {
            program,
            code,
            wm,
            matcher,
            refraction: Refraction::from_keys(keys),
            policy,
            opts,
            stats: snapshot.stats.clone(),
            log: snapshot.log.clone(),
            traces: snapshot.traces.clone(),
            halted: snapshot.halted,
            latest_checkpoint: None,
            metrics,
            trace_buf,
            run: None,
        })
    }

    /// Restores a [`Snapshot`] *in place*, keeping this engine's program,
    /// policy, and options (including the matcher kind, which is rebuilt
    /// and reseeded from the restored working memory). The session-serving
    /// entry point: a long-lived engine can be rewound to any checkpoint
    /// without reconstructing it. The program and its content hashes are
    /// shared, not recompiled. A run in progress is discarded: the next
    /// [`run_slice`](Self::run_slice) starts a new run from the restored
    /// state. On error the engine is left untouched.
    pub fn restore(&mut self, snapshot: &Snapshot) -> Result<(), SnapshotError> {
        *self = Engine::from_snapshot(
            self.program.clone(),
            self.code.clone(),
            snapshot,
            self.policy,
            self.opts.clone(),
        )?;
        Ok(())
    }

    /// Hot-swaps the running program for `replacement` *without*
    /// disturbing working memory or the run in progress.
    ///
    /// Rules are diffed by **content hash** ([`parulel_vm`]): a rule
    /// whose canonical bytes are identical keeps its hash and — on the
    /// incremental path — its live match state (beta tokens, alpha
    /// subscriptions, negative counts). Changed and added rules are
    /// (re)built against the current working memory; removed rules are
    /// torn down. Refraction keys are re-keyed by rule *name*, so
    /// surviving rules do not re-fire on instantiations they already
    /// fired.
    ///
    /// The incremental path ([`Matcher::replace_rules`]) requires every
    /// unchanged rule to keep its [`RuleId`] and the class table to keep
    /// its length; otherwise the matcher is rebuilt and reseeded (same
    /// result, more work). On error the engine is untouched.
    ///
    /// `replacement` must be compiled into the running program's symbol
    /// space (`parulel_lang::compile_into`-style) and may only *extend*
    /// the class table — live WMEs are typed by the old declarations.
    pub fn reload(&mut self, replacement: &Program) -> Result<ReloadReport, ReloadError> {
        if !self.program.interner.shares_table_with(&replacement.interner) {
            return Err(ReloadError::ForeignInterner);
        }
        let interner = self.program.interner.clone();
        for (cid, old_decl) in self.program.classes.iter() {
            let mismatch = || ReloadError::ClassMismatch(interner.resolve(old_decl.name).to_string());
            if cid.index() >= replacement.classes.len() {
                return Err(mismatch());
            }
            let new_decl = replacement.classes.decl(cid);
            if new_decl.name != old_decl.name || new_decl.attrs != old_decl.attrs {
                return Err(mismatch());
            }
        }

        let new_program = Arc::new(replacement.clone());
        let old_code = self.code.clone();
        let new_code = Arc::new(compile_program(&new_program));

        // Diff by (name, content hash).
        let index = |code: &ProgramCode| -> parulel_core::FxHashMap<String, (u32, u64)> {
            code.rules()
                .iter()
                .enumerate()
                .map(|(i, (name, hash))| (name.clone(), (i as u32, *hash)))
                .collect()
        };
        let old_rules = index(&old_code);
        let new_rules = index(&new_code);
        let mut report = ReloadReport::default();
        let mut ids_stable = true;
        let mut remove_ids: Vec<RuleId> = Vec::new();
        let mut add_ids: Vec<RuleId> = Vec::new();
        for (name, &(old_id, old_hash)) in &old_rules {
            match new_rules.get(name) {
                None => {
                    report.removed.push(name.clone());
                    remove_ids.push(RuleId(old_id));
                }
                Some(&(new_id, new_hash)) if new_hash != old_hash => {
                    report.changed.push(name.clone());
                    remove_ids.push(RuleId(old_id));
                    add_ids.push(RuleId(new_id));
                }
                Some(&(new_id, _)) => {
                    report.unchanged += 1;
                    ids_stable &= new_id == old_id;
                }
            }
        }
        for (name, &(new_id, _)) in &new_rules {
            if !old_rules.contains_key(name) {
                report.added.push(name.clone());
                add_ids.push(RuleId(new_id));
            }
        }
        report.added.sort();
        report.removed.sort();
        report.changed.sort();
        remove_ids.sort();
        add_ids.sort();

        // Class-table growth: the WM's per-class storage must cover the
        // appended classes before any new rule makes instances of them.
        if replacement.classes.len() != self.program.classes.len() {
            let wmes: Vec<Wme> = self.wm.iter().cloned().collect();
            let next = self.wm.next_id();
            self.wm = WorkingMemory::from_parts(&new_program.classes, wmes, next)
                .expect("prefix-validated class table rejected live WMEs");
        }

        let touched = !(remove_ids.is_empty() && add_ids.is_empty());
        // The alpha network is sized by the class table, so growth forces
        // a rebuild; so does any unchanged rule changing id (live match
        // state is keyed by RuleId).
        report.incremental = !touched
            || (ids_stable
                && replacement.classes.len() == self.program.classes.len()
                && self
                    .matcher
                    .replace_rules(&new_program, &remove_ids, &add_ids));
        if !report.incremental {
            let mut m = self.opts.matcher.build(new_program.clone());
            m.seed(&self.wm);
            self.matcher = m;
        }

        // Refraction keys survive by name (a renamed rule is a remove +
        // add and starts fresh); pruning then drops keys the new conflict
        // set no longer produces.
        let keys: Vec<InstKey> = self
            .refraction
            .keys()
            .filter_map(|k| {
                new_rules.get(old_code.name(k.rule)).map(|&(new_id, _)| InstKey {
                    rule: RuleId(new_id),
                    wmes: k.wmes.clone(),
                })
            })
            .collect();
        self.refraction = Refraction::from_keys(keys);
        self.refraction.prune(self.matcher.conflict_set());

        self.program = new_program;
        self.code = new_code;
        if self.opts.metrics.per_rule() {
            self.metrics
                .per_rule
                .resize(self.program.rules().len(), RuleMetrics::default());
        }
        self.log.push(format!(
            "reload: +{} -{} ~{} ={} ({})",
            report.added.len(),
            report.removed.len(),
            report.changed.len(),
            report.unchanged,
            if report.incremental { "incremental" } else { "rebuilt" },
        ));
        Ok(report)
    }

    /// Captures the engine's state as a portable [`Snapshot`]. Valid at
    /// any cycle boundary (between [`step`](Self::step) calls); symbols
    /// and rule names are stored resolved so the snapshot survives
    /// program recompilation.
    pub fn checkpoint(&self) -> Snapshot {
        let interner = &self.program.interner;
        let mut wmes: Vec<SnapWme> = self
            .wm
            .iter()
            .map(|w| SnapWme {
                id: w.id.0,
                class: interner
                    .resolve(self.program.classes.decl(w.class).name)
                    .to_string(),
                fields: w
                    .fields
                    .iter()
                    .map(|v| match v {
                        Value::Sym(s) => SnapValue::Sym(interner.resolve(*s).to_string()),
                        Value::Int(i) => SnapValue::Int(*i),
                        Value::Float(x) => SnapValue::Float(*x),
                    })
                    .collect(),
            })
            .collect();
        wmes.sort_by_key(|w| w.id);
        let mut refraction: Vec<SnapKey> = self
            .refraction
            .keys()
            .map(|k| SnapKey {
                rule: self.program.rule_name(k.rule),
                wmes: k.wmes.iter().map(|id| id.0).collect(),
            })
            .collect();
        refraction.sort();
        Snapshot {
            policy: self.policy.tag().to_string(),
            cycle: self.stats.cycles,
            halted: self.halted,
            next_wme_id: self.wm.next_id(),
            wmes,
            refraction,
            stats: self.stats.clone(),
            log: self.log.clone(),
            traces: self.traces.clone(),
            rule_hashes: self.code.name_map(),
        }
    }

    /// The most recent automatic checkpoint: captured every
    /// `checkpoint_every` cycles during [`run`](Self::run), and
    /// unconditionally when a budget (or injected-fault audit) aborts the
    /// run — the last consistent state before/at the failure.
    pub fn latest_checkpoint(&self) -> Option<&Snapshot> {
        self.latest_checkpoint.as_ref()
    }

    /// Records a checkpoint at the failure boundary and passes the error
    /// through (engine state is always boundary-consistent when a check
    /// trips, so the capture is safe).
    fn trip(&mut self, err: EngineError) -> EngineError {
        self.latest_checkpoint = Some(self.checkpoint());
        if let Some(buf) = &mut self.trace_buf {
            let cycle = err.cycle().unwrap_or(self.stats.cycles + 1);
            buf.push(TraceEvent::BudgetTrip { cycle, kind: err.kind() });
            buf.push(TraceEvent::Checkpoint { cycle: self.stats.cycles });
        }
        err
    }

    /// The policy this engine runs.
    pub fn policy(&self) -> FiringPolicy {
        self.policy
    }

    /// The running program's per-rule content hashes — what
    /// [`reload`](Self::reload) diffs by.
    pub fn code(&self) -> &ProgramCode {
        &self.code
    }

    /// The current working memory.
    pub fn wm(&self) -> &WorkingMemory {
        &self.wm
    }

    /// Consumes the engine, yielding the final working memory.
    pub fn into_wm(self) -> WorkingMemory {
        self.wm
    }

    /// Aggregated statistics so far.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Collected `write` output.
    pub fn log(&self) -> &[String] {
        &self.log
    }

    /// Per-cycle traces (empty unless `EngineOptions::trace` was set).
    pub fn traces(&self) -> &[CycleTrace] {
        &self.traces
    }

    /// Observability counters collected so far (all-zero when
    /// `EngineOptions::metrics` is [`crate::MetricsLevel::Off`]).
    pub fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }

    /// A live sample of the matcher's internal population — including the
    /// shard count actually in effect for partitioned matchers.
    pub fn matcher_metrics(&self) -> MatcherMetrics {
        self.matcher.metrics()
    }

    /// The structured event ring (populated only when
    /// `EngineOptions::trace_events` is set).
    pub fn trace_events(&self) -> Option<&TraceBuffer> {
        self.trace_buf.as_ref()
    }

    /// The compiled program this engine runs.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// True once a `halt` action has fired.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Injects external working-memory changes between cycles (a live
    /// feed, an embedding application's transaction). The delta is applied
    /// to working memory and pushed through the incremental matcher; the
    /// next [`step`](Self::step) sees the updated conflict set. Returns
    /// the concrete WMEs removed and added.
    pub fn inject(
        &mut self,
        delta: &parulel_core::Delta,
    ) -> (Vec<parulel_core::Wme>, Vec<parulel_core::Wme>) {
        let (removed, added) = self.wm.apply(delta);
        self.matcher.apply(&removed, &added);
        self.refraction.prune(self.matcher.conflict_set());
        if let Some(buf) = &mut self.trace_buf {
            buf.push(TraceEvent::Inject {
                adds: added.len(),
                removes: removed.len(),
            });
        }
        (removed, added)
    }

    /// Executes one cycle. Returns `Ok(true)` if at least one
    /// instantiation fired, `Ok(false)` on quiescence.
    ///
    /// Budget checks ([`crate::guard::Budgets`]) run at points where
    /// engine state is consistent: conflict-set width before anything
    /// fires, delta size after RHS evaluation but before the delta is
    /// recorded or applied, and working-memory size after the cycle
    /// commits. A trip therefore never leaves working memory, the
    /// matcher, and the refraction table out of sync — and every trip
    /// stores a [`Snapshot`] in
    /// [`latest_checkpoint`](Self::latest_checkpoint).
    pub fn step(&mut self) -> Result<bool, EngineError> {
        let cycle_no = self.stats.cycles + 1;
        #[cfg(feature = "fault-inject")]
        self.opts
            .faults
            .maybe_corrupt_matcher(cycle_no, &self.wm, self.matcher.as_mut());
        let mut cycle = CycleStats::default();

        let t = Instant::now();
        let cs = self.matcher.conflict_set();
        cycle.conflict_set = cs.len();
        #[cfg(feature = "fault-inject")]
        let audit = self.opts.faults.audit(cycle_no, &self.program, &self.wm, cs);
        let cs_budget = self
            .opts
            .budgets
            .check_conflict_set(cycle_no, cs, &self.program);
        let eligible = self.refraction.eligible(cs);
        #[cfg(feature = "fault-inject")]
        audit.map_err(|e| self.trip(e))?;
        cs_budget.map_err(|e| self.trip(e))?;
        cycle.eligible = eligible.len();
        cycle.match_time = t.elapsed();
        let collect = self.opts.metrics.per_rule();
        if collect {
            self.metrics.peak_conflict_set =
                self.metrics.peak_conflict_set.max(cycle.conflict_set);
            for inst in &eligible {
                self.metrics.per_rule[inst.rule.0 as usize].matched += 1;
            }
        }
        if eligible.is_empty() {
            return Ok(false);
        }

        // Resolve: the policy decides what fires (PARULEL: meta-rule
        // redaction + interference guard; OPS5: one LEX/MEA winner).
        let t = Instant::now();
        let num_rules = self.metrics.per_rule.len();
        let pre_policy = collect.then(|| counts_by_rule(&eligible, num_rules));
        let selection = self
            .policy
            .select(&self.program, eligible, collect.then_some(num_rules));
        cycle.redacted_meta = selection.redacted_meta;
        cycle.meta_rounds = selection.meta_rounds;
        cycle.redacted_guard = selection.redacted_guard;
        let surviving = selection.to_fire;
        cycle.redact_time = t.elapsed();
        if let (Some(pre), Some(post)) = (pre_policy, selection.post_meta_counts) {
            // Per-rule redaction attribution: eligible minus post-meta is
            // what the meta-rules took; post-meta minus surviving is what
            // the interference guard took.
            let fin = counts_by_rule(&surviving, num_rules);
            for r in 0..num_rules {
                self.metrics.per_rule[r].redacted_meta += pre[r] - post[r];
                self.metrics.per_rule[r].redacted_guard += post[r] - fin[r];
            }
        }
        if surviving.is_empty() {
            // Everything eligible was redacted: firing nothing would
            // repeat forever, so treat as quiescence.
            self.stats.absorb(&cycle);
            return Ok(false);
        }

        // The surviving set fires as one set on this thread; a failing
        // or panicking RHS aborts the run with the lowest-keyed error.
        let t = Instant::now();
        let fired = fire::fire_set(&self.program, &surviving, cycle_no, &self.opts)
            .map_err(|e| self.trip(e))?;
        self.opts
            .budgets
            .check_delta(cycle_no, &fired.changes, &surviving, &self.program)
            .map_err(|e| self.trip(e))?;
        cycle.fired = surviving.len();
        cycle.adds = fired.delta.adds.len();
        cycle.removes = fired.delta.removes.len();
        self.refraction.record(surviving.iter());
        cycle.fire_time = t.elapsed();
        if collect {
            for (inst, dur) in surviving.iter().zip(&fired.rhs_times) {
                let rm = &mut self.metrics.per_rule[inst.rule.0 as usize];
                rm.fired += 1;
                rm.rhs_time += *dur;
            }
        }

        // Attribute the incremental network update to match time (it
        // *is* matching); apply time covers WM mutation and refraction
        // upkeep only.
        let t = Instant::now();
        let (removed, added) = self.wm.apply(&fired.delta);
        cycle.apply_time = t.elapsed();
        let t = Instant::now();
        self.matcher.apply(&removed, &added);
        cycle.match_time += t.elapsed();
        let t = Instant::now();
        self.refraction.prune(self.matcher.conflict_set());
        cycle.apply_time += t.elapsed();
        if collect {
            self.metrics.peak_wm = self.metrics.peak_wm.max(self.wm.len());
        }
        if self.opts.metrics.matcher() {
            let sample = self.matcher.metrics();
            self.metrics.sample_matcher(&sample);
        }

        self.log.extend(fired.log);
        self.halted |= fired.halt;
        if self.opts.trace {
            let mut by_rule: parulel_core::FxHashMap<parulel_core::RuleId, usize> =
                parulel_core::FxHashMap::default();
            for inst in &surviving {
                *by_rule.entry(inst.rule).or_default() += 1;
            }
            let mut fired_rules: Vec<(String, usize)> = by_rule
                .into_iter()
                .map(|(r, n)| (self.program.rule_name(r), n))
                .collect();
            fired_rules.sort();
            self.traces.push(CycleTrace {
                cycle: self.stats.cycles + 1,
                eligible: cycle.eligible,
                redacted_meta: cycle.redacted_meta,
                redacted_guard: cycle.redacted_guard,
                fired_rules,
                adds: cycle.adds,
                removes: cycle.removes,
            });
        }
        self.stats.absorb(&cycle);
        if let Some(buf) = &mut self.trace_buf {
            let c = self.stats.cycles;
            buf.push(TraceEvent::Span {
                cycle: c,
                phase: Phase::Match,
                dur: cycle.match_time,
                items: cycle.eligible,
            });
            buf.push(TraceEvent::Span {
                cycle: c,
                phase: Phase::Redact,
                dur: cycle.redact_time,
                items: cycle.redacted_meta + cycle.redacted_guard,
            });
            buf.push(TraceEvent::Span {
                cycle: c,
                phase: Phase::Fire,
                dur: cycle.fire_time,
                items: cycle.fired,
            });
            buf.push(TraceEvent::Span {
                cycle: c,
                phase: Phase::Apply,
                dur: cycle.apply_time,
                items: cycle.adds + cycle.removes,
            });
        }
        self.opts
            .budgets
            .check_wm(cycle_no, self.wm.len())
            .map_err(|e| self.trip(e))?;
        Ok(true)
    }

    /// Runs to quiescence, halt, or the cycle limit: one
    /// [`run_slice`](Self::run_slice) at quantum `0`, so it also finishes
    /// a run that earlier slices left in progress.
    ///
    /// The wall-clock budget is checked before each cycle; periodic
    /// checkpoints (`EngineOptions::checkpoint_every`) are captured after
    /// each completed cycle.
    pub fn run(&mut self) -> Result<Outcome, EngineError> {
        Ok(self.run_slice(0)?.expect("a run at quantum 0 always ends"))
    }

    /// Advances the run in progress by at most `quantum` cycles (`0`: to
    /// its end), starting a run if none is in progress. Returns `None`
    /// while the run goes on, and the whole run's [`Outcome`] once it
    /// ends at quiescence, halt or the cycle limit.
    ///
    /// A run sliced across many calls behaves as one uninterrupted run:
    /// `EngineOptions::max_cycles` caps the run, not the slice; the
    /// wall-clock budget counts from the run's start, including time
    /// between slices; the outcome counts only the run's own cycles and
    /// firings, not a [`step`](Self::step) taken between slices; and one
    /// `RunEnd` trace event is recorded when the run ends. An engine
    /// error ends the run.
    pub fn run_slice(&mut self, quantum: u64) -> Result<Option<Outcome>, EngineError> {
        let mut run = self.run.take().unwrap_or_else(|| RunProgress {
            started: Instant::now(),
            cycles: 0,
            firings: 0,
        });
        let left = self.opts.max_cycles - run.cycles;
        let limit = if quantum == 0 {
            left
        } else {
            quantum.min(left)
        };
        let mut quiescent = false;
        let mut hit_cycle_limit = false;
        let first_cycle = self.stats.cycles;
        let first_firings = self.stats.firings;
        loop {
            if self.halted {
                break;
            }
            if self.stats.cycles - first_cycle >= limit {
                hit_cycle_limit = true;
                break;
            }
            if let Err(e) = self
                .opts
                .budgets
                .check_deadline(self.stats.cycles + 1, run.started)
            {
                return Err(self.trip(e));
            }
            if !self.step()? {
                quiescent = true;
                break;
            }
            if let Some(every) = self.opts.checkpoint_every {
                if every > 0 && self.stats.cycles.is_multiple_of(every) {
                    self.latest_checkpoint = Some(self.checkpoint());
                    if let Some(buf) = &mut self.trace_buf {
                        buf.push(TraceEvent::Checkpoint { cycle: self.stats.cycles });
                    }
                }
            }
        }
        run.cycles += self.stats.cycles - first_cycle;
        run.firings += self.stats.firings - first_firings;
        if !(self.halted || quiescent || run.cycles >= self.opts.max_cycles) {
            self.run = Some(run);
            return Ok(None);
        }
        // Per-run numbers: a caller that injects facts and runs again
        // gets this continuation's cycles, not the lifetime total (which
        // lives in `stats`).
        let outcome = Outcome {
            cycles: run.cycles,
            firings: run.firings,
            halted: self.halted,
            quiescent,
            hit_cycle_limit,
            wall: run.started.elapsed(),
        };
        if let Some(buf) = &mut self.trace_buf {
            buf.push(TraceEvent::RunEnd {
                cycles: outcome.cycles,
                firings: outcome.firings,
                status: outcome.status(),
            });
        }
        Ok(Some(outcome))
    }
}

/// A run between [`Engine::run_slice`] calls.
struct RunProgress {
    /// When the run started: the wall-clock budget's origin.
    started: Instant,
    /// Cycles executed by completed slices.
    cycles: u64,
    /// Firings by completed slices.
    firings: u64,
}

/// What one [`Engine::reload`] did, keyed by rule *name*. Rules are
/// compared by the content hash of their canonical encoding, so renames
/// show up as remove + add and formatting-only edits as unchanged.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReloadReport {
    /// Names present only in the replacement program (sorted).
    pub added: Vec<String>,
    /// Names present only in the old program (sorted).
    pub removed: Vec<String>,
    /// Names whose content hash moved (sorted).
    pub changed: Vec<String>,
    /// Rules whose compiled code survived byte-identically.
    pub unchanged: usize,
    /// Unchanged rules kept their live match state; `false` means the
    /// matcher was rebuilt and reseeded (same end state, more work).
    pub incremental: bool,
}

/// Why [`Engine::reload`] refused. The engine is untouched on error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReloadError {
    /// The replacement was compiled in its own symbol space. Reload
    /// requires compiling into the running program's interner
    /// (`parulel_lang::compile_into`), so live WMEs keep meaning.
    ForeignInterner,
    /// The named class was removed or redeclared. Live WMEs are typed by
    /// the running class table; a reload may only extend it.
    ClassMismatch(String),
}

impl std::fmt::Display for ReloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReloadError::ForeignInterner => write!(
                f,
                "replacement program was not compiled into the running program's symbol space"
            ),
            ReloadError::ClassMismatch(name) => write!(
                f,
                "class '{name}' was removed or redeclared; a reload may only extend the class table"
            ),
        }
    }
}

impl std::error::Error for ReloadError {}

#[cfg(test)]
mod tests;
