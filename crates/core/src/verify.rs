//! The refinement loop: configuration, verdicts and statistics.
//!
//! Each round checks the current proof candidate against the on-the-fly
//! reduction (Algorithm 2); an uncovered trace is analyzed exactly and
//! either reported as a bug or turned into new assertions. The *baseline*
//! configuration ([`VerifierConfig::automizer`]) disables every reduction
//! mechanism and thus explores the full interleaving product — the paper's
//! comparison against Ultimate Automizer.

use crate::certify::{CertSpec, Certificate};
use crate::engine::{run_spec, EngineStats, SpecEnd};
use crate::govern::{Category, GiveUp, GovernorConfig, ResourceGovernor};
use crate::interpolate::{InterpolationMode, InterpolationStats};
use crate::snapshot::program_fingerprint;
use program::commutativity::CommutativityLevel;
use program::concurrent::{LetterId, Program, Spec};
use reduction::order::{LockstepOrder, PreferenceOrder, PriorityOrder, RandomOrder, SeqOrder};
use smt::term::TermPool;
use smt::{QueryCache, SolverKind};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Which preference order to instantiate (§8 evaluates these three
/// families).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OrderSpec {
    /// Thread-uniform order approximating sequential composition.
    Seq,
    /// Positional order approximating lockstep scheduling.
    Lockstep,
    /// Seeded pseudo-random permutation of the alphabet.
    Random(u64),
    /// Thread-uniform order with an explicit thread priority permutation.
    Priority(Vec<u32>),
}

impl OrderSpec {
    /// Instantiates the order.
    pub fn build(&self) -> Box<dyn PreferenceOrder> {
        match self {
            OrderSpec::Seq => Box::new(SeqOrder::new()),
            OrderSpec::Lockstep => Box::new(LockstepOrder::new()),
            OrderSpec::Random(seed) => Box::new(RandomOrder::new(*seed)),
            OrderSpec::Priority(p) => Box::new(PriorityOrder::new(p.clone())),
        }
    }

    /// The order's display name.
    pub fn name(&self) -> String {
        match self {
            OrderSpec::Seq => "seq".to_owned(),
            OrderSpec::Lockstep => "lockstep".to_owned(),
            OrderSpec::Random(s) => format!("rand({s})"),
            OrderSpec::Priority(p) => format!(
                "priority({})",
                p.iter().map(u32::to_string).collect::<Vec<_>>().join(",")
            ),
        }
    }
}

/// Full verifier configuration.
#[derive(Clone, Debug)]
pub struct VerifierConfig {
    /// Display name (e.g. `"gemcutter-seq"`, `"automizer"`).
    pub name: String,
    /// The preference order.
    pub order: OrderSpec,
    /// Sleep sets (language-minimal reduction).
    pub use_sleep: bool,
    /// Weakly persistent membranes (state pruning).
    pub use_persistent: bool,
    /// Proof-sensitive commutativity in sleep sets (§7.2).
    pub proof_sensitive: bool,
    /// Commutativity oracle level.
    pub commutativity: CommutativityLevel,
    /// Which interpolation engine generates assertion chains.
    pub interpolation: InterpolationMode,
    /// Maximum refinement rounds before giving up.
    pub max_rounds: usize,
    /// Maximum visited states per proof-check round. The certificate
    /// recording re-walk gets [`crate::check::RECORD_VISITED_HEADROOM`]×
    /// as many; both walks also charge `Category::DfsStates` per state,
    /// so [`GovernorConfig`] owns the run-wide limit.
    pub max_visited_per_round: usize,
    /// Ignored, and always 1. It set the worker count of the parallel
    /// proof check, which was removed; the field stays because the
    /// benchmark's traced runner in `perfbench/` asserts that it is 1.
    pub dfs_threads: usize,
    /// Resource governance: deadline, run-wide step budgets and fault
    /// injection. Unlimited by default.
    pub govern: GovernorConfig,
    /// Solver-level query memoization ([`smt::qcache`]). When disabled,
    /// the pool's cache is removed for the duration of the run and every
    /// query (and Hoare scope) solves cold — the measurement baseline.
    pub use_qcache: bool,
    /// Which boolean search engine answers SMT queries
    /// ([`SolverKind::Cdcl`] by default; [`SolverKind::Dpll`] is the
    /// legacy ablation baseline). Installed on the pool for the
    /// duration of the run, like the governor and the query cache.
    pub solver: SolverKind,
    /// Emit a checkable [`Certificate`] with every conclusive verdict
    /// (one recording pass over the final reduction per proven spec).
    /// When recording cannot complete — e.g. the governor trips mid-pass —
    /// the verdict is reported without a certificate rather than delayed.
    pub certify: bool,
}

impl VerifierConfig {
    /// GemCutter with the `seq` preference order (full machinery).
    pub fn gemcutter_seq() -> VerifierConfig {
        VerifierConfig {
            name: "gemcutter-seq".to_owned(),
            order: OrderSpec::Seq,
            use_sleep: true,
            use_persistent: true,
            proof_sensitive: true,
            commutativity: CommutativityLevel::Semantic,
            interpolation: InterpolationMode::SpChain,
            max_rounds: 60,
            max_visited_per_round: 400_000,
            dfs_threads: 1,
            govern: GovernorConfig::default(),
            use_qcache: true,
            solver: SolverKind::default(),
            certify: true,
        }
    }

    /// GemCutter with the lockstep preference order.
    pub fn gemcutter_lockstep() -> VerifierConfig {
        VerifierConfig {
            name: "gemcutter-lockstep".to_owned(),
            order: OrderSpec::Lockstep,
            ..VerifierConfig::gemcutter_seq()
        }
    }

    /// GemCutter with a seeded random preference order.
    pub fn gemcutter_random(seed: u64) -> VerifierConfig {
        VerifierConfig {
            name: format!("gemcutter-rand({seed})"),
            order: OrderSpec::Random(seed),
            ..VerifierConfig::gemcutter_seq()
        }
    }

    /// The Automizer baseline: trace abstraction over the *full*
    /// interleaving product (no reduction machinery at all).
    pub fn automizer() -> VerifierConfig {
        VerifierConfig {
            name: "automizer".to_owned(),
            order: OrderSpec::Seq,
            use_sleep: false,
            use_persistent: false,
            proof_sensitive: false,
            commutativity: CommutativityLevel::Syntactic,
            ..VerifierConfig::gemcutter_seq()
        }
    }

    /// Sleep sets only (Table 2's "sleep" column).
    pub fn sleep_only() -> VerifierConfig {
        VerifierConfig {
            name: "sleep".to_owned(),
            use_persistent: false,
            ..VerifierConfig::gemcutter_seq()
        }
    }

    /// Persistent sets only (Table 2's "persistent" column).
    pub fn persistent_only() -> VerifierConfig {
        VerifierConfig {
            name: "persistent".to_owned(),
            use_sleep: false,
            proof_sensitive: false,
            ..VerifierConfig::gemcutter_seq()
        }
    }

    /// Disables proof-sensitive commutativity (the §8 ablation).
    pub fn without_proof_sensitivity(mut self) -> VerifierConfig {
        self.proof_sensitive = false;
        self.name = format!("{}-nops", self.name);
        self
    }

    /// Switches to Farkas-certificate interpolation (single-inequality
    /// assertions; falls back to sp-chains on non-conjunctive traces).
    pub fn with_farkas_interpolation(mut self) -> VerifierConfig {
        self.interpolation = InterpolationMode::Farkas;
        self.name = format!("{}-farkas", self.name);
        self
    }

    /// Disables solver-level query memoization (the `--no-qcache`
    /// escape hatch and the perf baseline).
    pub fn without_qcache(mut self) -> VerifierConfig {
        self.use_qcache = false;
        self
    }

    /// Selects the SMT boolean search engine (`--solver=dpll|cdcl`).
    pub fn with_solver(mut self, solver: SolverKind) -> VerifierConfig {
        self.solver = solver;
        self
    }

    /// Disables certificate recording (ablations and perf baselines).
    pub fn without_certificates(mut self) -> VerifierConfig {
        self.certify = false;
        self
    }
}

/// Verification verdict.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The program satisfies its specification.
    Correct,
    /// A feasible violating trace was found.
    Incorrect {
        /// The violating trace (letters of the program alphabet).
        trace: Vec<LetterId>,
    },
    /// The verifier gave up: resource exhaustion, solver incompleteness,
    /// cancellation or an injected fault — categorized in the record.
    GaveUp(GiveUp),
}

impl Verdict {
    /// A give-up verdict from a category and reason.
    pub fn gave_up(category: Category, reason: impl Into<String>) -> Verdict {
        Verdict::GaveUp(GiveUp::new(category, reason))
    }

    /// `true` for [`Verdict::Correct`].
    pub fn is_correct(&self) -> bool {
        matches!(self, Verdict::Correct)
    }

    /// `true` for [`Verdict::Incorrect`].
    pub fn is_incorrect(&self) -> bool {
        matches!(self, Verdict::Incorrect { .. })
    }

    /// The give-up record, for [`Verdict::GaveUp`].
    pub fn give_up(&self) -> Option<&GiveUp> {
        match self {
            Verdict::GaveUp(g) => Some(g),
            _ => None,
        }
    }
}

/// Aggregated run statistics (the quantities reported in Tables 1–2).
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Refinement rounds across all analyses.
    pub rounds: usize,
    /// Final proof size (number of assertions).
    pub proof_size: usize,
    /// Total visited proof-check states (memory proxy).
    pub visited_states: usize,
    /// Largest single-round visited count.
    pub max_round_visited: usize,
    /// Hoare-triple queries of the last spec that ran a round: its proof's
    /// final count (summed over the proofs when parallel workers each
    /// refined their own).
    pub hoare_checks: usize,
    /// Useless-cache skips (§7.2 optimization effectiveness).
    pub cache_skips: usize,
    /// Useless-cache probes (skips are the hits; misses are the rest).
    pub useless_probes: usize,
    /// Useless-cache entries at the end of the run: each engine's final
    /// count, summed over engines (one engine per spec in [`verify`]).
    pub useless_len: usize,
    /// Wall-clock time of the whole run.
    pub time: Duration,
    /// Interpolation statistics.
    pub interpolation: InterpolationStats,
    /// Solver queries answered from the query cache during this run (the
    /// pool's cache delta over the run, in every driver).
    pub qcache_hits: u64,
    /// Solver queries that fell through to a real solve (same delta).
    pub qcache_misses: u64,
    /// Proven results whose certificate was dropped because the recording
    /// re-walk tripped its state budget or the resource governor.
    pub certs_dropped: usize,
    /// Certificates re-checked before being served or accepted.
    pub certs_checked: usize,
    /// Certificates that passed the independent check.
    pub certs_passed: usize,
    /// Certificates rejected and quarantined.
    pub certs_quarantined: usize,
}

impl RunStats {
    /// Average time per refinement round (Table 2's metric).
    pub fn time_per_round(&self) -> Duration {
        if self.rounds == 0 {
            self.time
        } else {
            self.time / self.rounds as u32
        }
    }

    /// Query-cache hit rate of this run (0 when the cache was off or
    /// never consulted).
    pub fn qcache_hit_rate(&self) -> f64 {
        let total = self.qcache_hits + self.qcache_misses;
        if total == 0 {
            0.0
        } else {
            self.qcache_hits as f64 / total as f64
        }
    }

    /// Useless-cache hit rate (`cache_skips / useless_probes`; 0 when
    /// the cache was never probed).
    pub fn useless_hit_rate(&self) -> f64 {
        if self.useless_probes == 0 {
            0.0
        } else {
            self.cache_skips as f64 / self.useless_probes as f64
        }
    }

    /// Adds the engines that refined one proof to the run totals; every
    /// driver folds its engines through here. Engines sharing a proof
    /// (the adaptive portfolio) are passed together, so the proof's
    /// Hoare-check gauge counts once; `proof_size` is that proof's size.
    pub(crate) fn add_engines<'a>(
        &mut self,
        engines: impl IntoIterator<Item = &'a EngineStats>,
        proof_size: usize,
    ) {
        let mut hoare_checks = 0;
        for e in engines {
            self.rounds += e.rounds;
            self.visited_states += e.visited;
            self.max_round_visited = self.max_round_visited.max(e.max_round_visited);
            self.cache_skips += e.cache_skips;
            self.useless_probes += e.useless_probes;
            self.useless_len += e.useless_len;
            self.certs_dropped += e.certs_dropped;
            self.interpolation.add(&e.interpolation);
            hoare_checks = hoare_checks.max(e.hoare_checks);
        }
        self.hoare_checks += hoare_checks;
        self.proof_size = self.proof_size.max(proof_size);
    }
}

/// A verdict together with its statistics.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The verdict.
    pub verdict: Verdict,
    /// Statistics of the run.
    pub stats: RunStats,
    /// The verdict's checkable certificate, when one was recorded.
    /// `None` for give-ups, for runs with certification disabled, and
    /// for the rare conclusive run whose recording pass was interrupted.
    pub certificate: Option<Certificate>,
}

/// The specification list for `program`: one [`Spec::ErrorOf`] per
/// asserting thread (footnote 4 of the paper), or the single
/// pre/postcondition pair when no thread asserts.
pub fn specs_of(program: &Program) -> Vec<Spec> {
    let asserting = program.asserting_threads();
    if asserting.is_empty() {
        vec![Spec::PrePost]
    } else {
        asserting.into_iter().map(Spec::ErrorOf).collect()
    }
}

/// Verifies `program` under `config`.
///
/// Programs with asserts are analyzed once per asserting thread
/// (footnote 4 of the paper); programs without asserts are verified
/// against their pre/postcondition pair.
pub fn verify(pool: &mut TermPool, program: &Program, config: &VerifierConfig) -> Outcome {
    let members = std::slice::from_ref(config);
    run_session(
        pool,
        program,
        config,
        RunStats::default(),
        |pool, _, spec, stats| {
            run_spec(pool, program, spec, members, config.max_rounds, &mut ()).fold(stats)
        },
    )
    .0
}

/// The pool settings a run replaces: governor, solver and query cache.
pub(crate) struct RunSettings {
    governor: ResourceGovernor,
    solver: SolverKind,
    cache: Option<QueryCache>,
}

impl RunSettings {
    /// Installs `governor` and `config`'s solver on `pool`, and removes the
    /// pool's query cache when `config` runs without it (the cache is
    /// Arc-shared, so other holders keep theirs). Returns what it replaced.
    pub(crate) fn install(
        pool: &mut TermPool,
        config: &VerifierConfig,
        governor: ResourceGovernor,
    ) -> RunSettings {
        let saved = RunSettings {
            governor: pool.governor().clone(),
            solver: pool.solver_kind(),
            cache: if config.use_qcache {
                None
            } else {
                pool.take_query_cache()
            },
        };
        pool.set_governor(governor);
        pool.set_solver_kind(config.solver);
        saved
    }

    /// Puts the replaced settings back.
    pub(crate) fn restore(self, pool: &mut TermPool) {
        pool.set_governor(self.governor);
        pool.set_solver_kind(self.solver);
        if let Some(cache) = self.cache {
            pool.set_query_cache(cache);
        }
    }
}

/// One run on one pool, shared by every driver. Installs `config`'s
/// governor, solver and query-cache setting on `pool` (the previous ones
/// are restored on return and on panic), runs the specs of `program` in
/// order through `spec_run` until one is not proven, and assembles the
/// certificate. Returns the outcome, with `stats` grown by this run, and
/// the concluding member of the deciding spec.
///
/// `spec_run(pool, index, spec, stats)` folds the engines it ran into
/// `stats`. The session keeps `hoare_checks` as the last spec's count and
/// adds the pool's query-cache delta over the run.
pub(crate) fn run_session(
    pool: &mut TermPool,
    program: &Program,
    config: &VerifierConfig,
    mut stats: RunStats,
    mut spec_run: impl FnMut(&mut TermPool, usize, Spec, &mut RunStats) -> SpecEnd,
) -> (Outcome, Option<usize>) {
    let start = Instant::now();
    let saved = RunSettings::install(pool, config, config.govern.build());
    let cache_before = pool.query_cache().map(|c| c.stats());
    let run = catch_unwind(AssertUnwindSafe(|| {
        let mut certs = Vec::new();
        let mut winner = None;
        for (i, spec) in specs_of(program).into_iter().enumerate() {
            let (hoare_checks, rounds) = (stats.hoare_checks, stats.rounds);
            stats.hoare_checks = 0;
            let end = spec_run(pool, i, spec, &mut stats);
            if stats.rounds == rounds {
                stats.hoare_checks = hoare_checks;
            }
            winner = end.winner;
            let certificate = match &end.verdict {
                Verdict::Correct => {
                    certs.push(end.cert);
                    continue;
                }
                Verdict::Incorrect { trace } if config.certify => Some(Certificate::Bug {
                    fingerprint: program_fingerprint(pool, program),
                    spec: CertSpec::of(spec),
                    trace: trace.iter().map(|l| l.0).collect(),
                }),
                _ => None,
            };
            return (end.verdict, winner, certificate);
        }
        let specs = certs.into_iter().collect::<Option<Vec<_>>>();
        let certificate = specs.map(|specs| Certificate::Correct {
            fingerprint: program_fingerprint(pool, program),
            specs,
        });
        (Verdict::Correct, winner, certificate)
    }));
    if let (Some(cache), Some(before)) = (pool.query_cache(), cache_before) {
        let delta = cache.stats().since(&before);
        stats.qcache_hits += delta.hits;
        stats.qcache_misses += delta.misses;
    }
    saved.restore(pool);
    let (verdict, winner, certificate) = run.unwrap_or_else(|payload| resume_unwind(payload));
    stats.time += start.elapsed();
    (
        Outcome {
            verdict,
            stats,
            certificate,
        },
        winner,
    )
}
