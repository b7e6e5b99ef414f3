//! The traced run: spans kept in memory, and a round-by-round runner that
//! reaches every layer through its public function.
//!
//! [`traced_verify`] is `gemcutter::verify::verify` taken apart: per
//! specification it calls `PersistentSets::new`, then per round
//! `check::check_proof` and `interpolate::analyze_trace_with_mode`, and
//! on a proven round `check::record_reduction` + `SpecCert::from_recorded`,
//! each inside a span. It must reproduce `verify` exactly; [`RunKey`] is
//! what the identity check compares. The only difference is the governor:
//! a counting one with no budgets, so the solver step counters can be
//! read. Hoare batteries and commutativity run inside `check_proof`, so
//! their time stays in the `check.round` span and only their counts are
//! split out.

use gemcutter::certify::{CertSpec, Certificate, SpecCert};
use gemcutter::check::{
    check_proof, record_reduction, CheckConfig, CheckResult, CheckStats, UselessCache,
};
use gemcutter::engine::TraceHistory;
use gemcutter::interpolate::{analyze_trace_with_mode, TraceResult};
use gemcutter::proof::ProofAutomaton;
use gemcutter::verify::{specs_of, Outcome, RunStats, Verdict, VerifierConfig};
use gemcutter::{program_fingerprint, Category, GiveUp, ResourceGovernor};
use program::commutativity::CommutativityOracle;
use program::{Program, Spec};
use reduction::persistent::PersistentSets;
use smt::TermPool;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One span: a call into a layer.
pub struct Span {
    pub name: &'static str,
    /// The op (or request) the span belongs to.
    pub op: usize,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

/// In-memory span recorder; written out once, when the run ends.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: usize,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    pub fn set_op(&mut self, op: usize) {
        self.op = op;
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let now = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start: now,
            end: now,
        });
        self.open.push(id);
        id
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end = self.epoch.elapsed();
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
    }

    /// Records a finished span measured elsewhere (the `serve` client's
    /// requests, timed on their own threads).
    pub fn record(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Per span name: summed self time (length minus the time its child
    /// spans cover) in seconds, and the number of spans.
    pub fn self_times(&self) -> BTreeMap<&'static str, (f64, usize)> {
        let mut covered = vec![Duration::ZERO; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                covered[p] += span.end - span.start;
            }
        }
        let mut out: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
        for (span, child) in self.spans.iter().zip(&covered) {
            let own = (span.end - span.start).saturating_sub(*child);
            let slot = out.entry(span.name).or_default();
            slot.0 += own.as_secs_f64();
            slot.1 += 1;
        }
        out
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \"start_us\": {}, \"end_us\": {}}}",
                s.name,
                s.op,
                s.start.as_micros(),
                s.end.as_micros()
            )?;
        }
        out.flush()
    }
}

/// Layer counters summed over a traced run's ops.
#[derive(Default)]
pub struct Layers {
    pub compile_calls: usize,
    pub letters: usize,
    pub persistent_calls: usize,
    pub rounds: usize,
    pub visited: usize,
    pub max_round_visited: usize,
    pub useless_probes: usize,
    pub useless_hits: usize,
    /// Useless-cache entries at the end of each spec, summed.
    pub useless_len: usize,
    /// Hoare checks summed over every spec's proof automaton.
    pub hoare_checks: usize,
    pub memo_hits: usize,
    pub proof_size: usize,
    pub commute_semantic: usize,
    pub commute_syntactic: usize,
    pub commute_cache_hits: usize,
    pub interp_calls: usize,
    pub feasibility_checks: usize,
    pub sliced_statements: usize,
    pub qcache_hits: u64,
    pub qcache_misses: u64,
    pub qcache_evictions: u64,
    pub simplex_pivots: u64,
    pub cdcl_conflicts: u64,
    pub branch_nodes: u64,
    pub record_calls: usize,
    pub dropped: usize,
    pub obligations: usize,
    pub rechecked: usize,
    /// Traced `verify` time (compile and audit excluded).
    pub verify_s: f64,
}

/// What the identity check compares between `verify` and
/// [`traced_verify`] for one op.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct RunKey {
    pub verdict: String,
    pub rounds: usize,
    pub proof_size: usize,
    pub visited: usize,
    pub hoare_checks: usize,
    pub qcache_hits: u64,
    pub qcache_misses: u64,
    /// Hash of the certificate's text form.
    pub certificate: Option<u64>,
}

impl RunKey {
    pub fn of(outcome: &Outcome) -> RunKey {
        let verdict = match &outcome.verdict {
            Verdict::Correct => "correct".to_owned(),
            Verdict::Incorrect { trace } => format!(
                "incorrect [{}]",
                trace
                    .iter()
                    .map(|l| l.0.to_string())
                    .collect::<Vec<_>>()
                    .join(" ")
            ),
            Verdict::GaveUp(g) => format!("gave-up [{}]", g.category),
        };
        let s = &outcome.stats;
        RunKey {
            verdict,
            rounds: s.rounds,
            proof_size: s.proof_size,
            visited: s.visited_states,
            hoare_checks: s.hoare_checks,
            qcache_hits: s.qcache_hits,
            qcache_misses: s.qcache_misses,
            certificate: outcome.certificate.as_ref().map(|c| {
                let mut h = DefaultHasher::new();
                c.to_text().hash(&mut h);
                h.finish()
            }),
        }
    }
}

/// `verify(pool, program, config)`, one layer call at a time. Supports
/// the sequential proof check only (`config.dfs_threads == 1`).
pub fn traced_verify(
    tr: &mut Tracer,
    pool: &mut TermPool,
    program: &Program,
    config: &VerifierConfig,
    layers: &mut Layers,
) -> Outcome {
    assert_eq!(config.dfs_threads, 1, "the traced runner is sequential");
    let start = Instant::now();
    let governor = ResourceGovernor::builder().build();
    let previous = pool.governor().clone();
    pool.set_governor(governor.clone());
    let saved_solver = pool.solver_kind();
    pool.set_solver_kind(config.solver);
    let cache_before = pool.query_cache().map(|c| c.stats());
    let mut stats = RunStats::default();
    let mut verdict = Verdict::Correct;
    let mut spec_certs: Vec<Option<SpecCert>> = Vec::new();
    let mut failed_spec = None;
    for spec in specs_of(program) {
        let (v, cert) = traced_spec(tr, pool, program, spec, config, &mut stats, layers);
        match v {
            Verdict::Correct => spec_certs.push(cert),
            other => {
                verdict = other;
                failed_spec = Some(spec);
                break;
            }
        }
    }
    pool.set_governor(previous);
    pool.set_solver_kind(saved_solver);
    if let (Some(cache), Some(before)) = (pool.query_cache(), cache_before) {
        let delta = cache.stats().since(&before);
        stats.qcache_hits = delta.hits;
        stats.qcache_misses = delta.misses;
        layers.qcache_evictions += delta.evictions;
    }
    layers.qcache_hits += stats.qcache_hits;
    layers.qcache_misses += stats.qcache_misses;
    layers.simplex_pivots += governor.count(Category::SimplexPivots);
    layers.cdcl_conflicts += governor.count(Category::CdclConflicts);
    layers.branch_nodes += governor.count(Category::BranchNodes);
    layers.rounds += stats.rounds;
    layers.visited += stats.visited_states;
    layers.max_round_visited = layers.max_round_visited.max(stats.max_round_visited);
    layers.useless_probes += stats.useless_probes;
    layers.useless_hits += stats.cache_skips;
    layers.proof_size += stats.proof_size;
    layers.feasibility_checks += stats.interpolation.feasibility_checks;
    layers.sliced_statements += stats.interpolation.sliced_statements;
    stats.time = start.elapsed();
    let certificate = if config.certify {
        assemble_certificate(pool, program, &verdict, spec_certs, failed_spec)
    } else {
        None
    };
    Outcome {
        verdict,
        stats,
        certificate,
    }
}

/// The certificate `verify` assembles from its per-spec pieces.
fn assemble_certificate(
    pool: &TermPool,
    program: &Program,
    verdict: &Verdict,
    spec_certs: Vec<Option<SpecCert>>,
    failed_spec: Option<Spec>,
) -> Option<Certificate> {
    match verdict {
        Verdict::Correct => {
            let specs: Vec<SpecCert> = spec_certs.into_iter().collect::<Option<Vec<_>>>()?;
            (specs.len() == specs_of(program).len()).then(|| Certificate::Correct {
                fingerprint: program_fingerprint(pool, program),
                specs,
            })
        }
        Verdict::Incorrect { trace } => Some(Certificate::Bug {
            fingerprint: program_fingerprint(pool, program),
            spec: CertSpec::of(failed_spec?),
            trace: trace.iter().map(|l| l.0).collect(),
        }),
        Verdict::GaveUp(_) => None,
    }
}

fn traced_spec(
    tr: &mut Tracer,
    pool: &mut TermPool,
    program: &Program,
    spec: Spec,
    config: &VerifierConfig,
    stats: &mut RunStats,
    layers: &mut Layers,
) -> (Verdict, Option<SpecCert>) {
    let mut oracle = CommutativityOracle::new(config.commutativity);
    let persistent = config.use_persistent.then(|| {
        let s = tr.begin("reduction.persistent");
        let sets = PersistentSets::new(pool, program, &mut oracle);
        tr.end(s);
        layers.persistent_calls += 1;
        sets
    });
    let mut proof = ProofAutomaton::new();
    let mut useless = UselessCache::new();
    let result = refine(
        tr,
        pool,
        program,
        spec,
        config,
        &mut oracle,
        persistent.as_ref(),
        &mut proof,
        &mut useless,
        stats,
        layers,
    );
    let commute = oracle.stats();
    layers.commute_semantic += commute.semantic_checks;
    layers.commute_syntactic += commute.syntactic_hits;
    layers.commute_cache_hits += commute.cache_hits;
    let proof_stats = proof.stats();
    layers.hoare_checks += proof_stats.hoare_checks;
    layers.memo_hits += proof_stats.cache_hits;
    layers.useless_len += useless.len();
    result
}

/// The refinement loop of one specification (`verify_spec`).
#[allow(clippy::too_many_arguments)]
fn refine(
    tr: &mut Tracer,
    pool: &mut TermPool,
    program: &Program,
    spec: Spec,
    config: &VerifierConfig,
    oracle: &mut CommutativityOracle,
    persistent: Option<&PersistentSets>,
    proof: &mut ProofAutomaton,
    useless: &mut UselessCache,
    stats: &mut RunStats,
    layers: &mut Layers,
) -> (Verdict, Option<SpecCert>) {
    let order = config.order.build();
    let check_config = CheckConfig {
        use_sleep: config.use_sleep,
        use_persistent: config.use_persistent,
        proof_sensitive: config.proof_sensitive,
        max_visited: config.max_visited_per_round,
        dfs_threads: config.dfs_threads,
        freeze_useless: false,
    };
    let mut history = TraceHistory::new();
    let governor = pool.governor().clone();
    for _round in 0..config.max_rounds {
        if let Err(g) = governor.charge(Category::Rounds) {
            return (Verdict::GaveUp(g), None);
        }
        stats.rounds += 1;
        let mut round_stats = CheckStats::default();
        let s = tr.begin("check.round");
        let result = check_proof(
            pool,
            program,
            spec,
            order.as_ref(),
            oracle,
            persistent,
            proof,
            useless,
            &check_config,
            &mut round_stats,
        );
        tr.end(s);
        round_stats.useless_len = useless.len();
        stats.visited_states += round_stats.visited;
        stats.max_round_visited = stats.max_round_visited.max(round_stats.visited);
        stats.cache_skips += round_stats.cache_skips;
        stats.useless_probes += round_stats.useless_probes;
        stats.useless_len = round_stats.useless_len;
        stats.hoare_checks = proof.stats().hoare_checks;
        stats.proof_size = stats.proof_size.max(proof.proof_size());
        match result {
            CheckResult::Proven => {
                let cert = config.certify.then(|| {
                    let s = tr.begin("certify.record");
                    let cert = record_reduction(
                        pool,
                        program,
                        spec,
                        order.as_ref(),
                        oracle,
                        persistent,
                        proof,
                        &check_config,
                    )
                    .map(|rec| {
                        SpecCert::from_recorded(
                            pool,
                            proof,
                            &rec,
                            spec,
                            &config.order,
                            &check_config,
                        )
                    });
                    tr.end(s);
                    layers.record_calls += 1;
                    if cert.is_none() {
                        stats.certs_dropped += 1;
                        layers.dropped += 1;
                    }
                    cert
                });
                return (Verdict::Correct, cert.flatten());
            }
            CheckResult::LimitReached => {
                return (
                    Verdict::gave_up(
                        Category::DfsStates,
                        format!(
                            "state budget exhausted ({} states)",
                            config.max_visited_per_round
                        ),
                    ),
                    None,
                )
            }
            CheckResult::Interrupted(g) => return (Verdict::GaveUp(g), None),
            CheckResult::Counterexample(trace) => {
                if history.record(&trace) {
                    return (
                        Verdict::gave_up(Category::NonProgress, "refinement made no progress"),
                        None,
                    );
                }
                let s = tr.begin("interpolate");
                let analysis = analyze_trace_with_mode(
                    pool,
                    program,
                    &trace,
                    spec,
                    config.interpolation,
                    &mut stats.interpolation,
                );
                tr.end(s);
                layers.interp_calls += 1;
                match analysis {
                    TraceResult::Feasible => return (Verdict::Incorrect { trace }, None),
                    TraceResult::Unknown => {
                        return (
                            Verdict::GaveUp(governor.give_up().unwrap_or_else(|| {
                                GiveUp::new(Category::UnknownTheory, "trace feasibility undecided")
                            })),
                            None,
                        )
                    }
                    TraceResult::Infeasible { chain } => {
                        for a in chain {
                            proof.add_assertion(a);
                        }
                        stats.proof_size = stats.proof_size.max(proof.proof_size());
                    }
                }
            }
        }
    }
    (
        Verdict::gave_up(
            Category::Rounds,
            format!("no proof within {} refinement rounds", config.max_rounds),
        ),
        None,
    )
}
