//! The preference-order portfolio of §8 — sequential, adaptive, and
//! multi-threaded shared-proof variants.
//!
//! The paper's headline GemCutter numbers aggregate, per benchmark, the
//! best result among five preference orders: `seq`, `lockstep`, and three
//! seeded random orders. The portfolio conceptually runs them in parallel
//! and terminates as soon as any order terminates; sequential execution
//! here ([`portfolio_verify`]) records every order's outcome and reports
//! the *winner* (earliest conclusive verdict), with the parallel-model CPU
//! time being the winner's own time.
//!
//! [`adaptive_verify`] interleaves the orders single-threaded over one
//! shared proof. [`parallel_verify`] is the true multi-threaded variant:
//! each engine runs refinement rounds on its own OS thread with its own
//! [`TermPool`], and a coordinator relays newly discovered assertions
//! between them as pool-independent [`ExportedTerm`]s (see
//! [`smt::transfer`]), so every engine still benefits from every other
//! engine's refinements.

use crate::certify::SpecCert;
use crate::engine::{Engine, EngineStats, RoundOutcome};
use crate::govern::{Category, GiveUp};
use crate::proof::ProofAutomaton;
use crate::verify::{
    assemble_certificate, specs_of, verify, Outcome, RunStats, Verdict, VerifierConfig,
};
use program::concurrent::{LetterId, Program, Spec};
use smt::term::TermPool;
use smt::transfer::ExportedTerm;
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The five orders evaluated in §8.
pub fn default_portfolio() -> Vec<VerifierConfig> {
    vec![
        VerifierConfig::gemcutter_seq(),
        VerifierConfig::gemcutter_lockstep(),
        VerifierConfig::gemcutter_random(1),
        VerifierConfig::gemcutter_random(2),
        VerifierConfig::gemcutter_random(3),
    ]
}

/// Result of a portfolio run.
#[derive(Clone, Debug)]
pub struct PortfolioOutcome {
    /// The winning configuration's name, if any verdict was conclusive.
    pub winner: Option<String>,
    /// The winner's outcome (or the last inconclusive one).
    pub outcome: Outcome,
    /// Every member's `(name, outcome)`, in portfolio order.
    pub members: Vec<(String, Outcome)>,
}

/// Runs the portfolio on `program`, stopping at the first conclusive
/// verdict when `stop_at_first` is set (the parallel model); otherwise
/// every member runs (needed to identify per-benchmark best orders for
/// Figure 8).
pub fn portfolio_verify(
    pool: &mut TermPool,
    program: &Program,
    configs: &[VerifierConfig],
    stop_at_first: bool,
) -> PortfolioOutcome {
    assert!(!configs.is_empty(), "portfolio needs at least one member");
    let mut members: Vec<(String, Outcome)> = Vec::new();
    let mut winner: Option<usize> = None;
    for config in configs {
        let outcome = verify(pool, program, config);
        let conclusive = !matches!(outcome.verdict, Verdict::GaveUp(_));
        members.push((config.name.clone(), outcome));
        if conclusive {
            // Parallel model: the fastest conclusive member wins. When all
            // members run, pick the conclusive one with minimal time.
            winner = match winner {
                None => Some(members.len() - 1),
                Some(w)
                    if members.last().expect("just pushed").1.stats.time
                        < members[w].1.stats.time =>
                {
                    Some(members.len() - 1)
                }
                other => other,
            };
            if stop_at_first {
                break;
            }
        }
    }
    let outcome = match winner {
        Some(w) => members[w].1.clone(),
        None => members.last().expect("nonempty").1.clone(),
    };
    PortfolioOutcome {
        winner: winner.map(|w| members[w].0.clone()),
        outcome,
        members,
    }
}

/// The **shared-proof adaptive portfolio** — the direction sketched in the
/// paper's §8 Limitations: instead of racing independent verifier copies,
/// the preference orders take turns (one refinement round each, cheapest
/// engine first) over a *single shared proof*. Assertions discovered while
/// chasing one order's counterexamples are program facts and immediately
/// cover traces of every other order's reduction; the first engine whose
/// reduction is fully covered concludes.
///
/// Returns the outcome plus the name of the engine that concluded.
pub fn adaptive_verify(
    pool: &mut TermPool,
    program: &Program,
    configs: &[VerifierConfig],
    max_total_rounds: usize,
) -> (Outcome, Option<String>) {
    assert!(!configs.is_empty(), "portfolio needs at least one member");
    let start = Instant::now();
    let mut stats = RunStats::default();
    let specs = specs_of(program);
    let mut winner: Option<String> = None;
    let mut spec_certs: Vec<Option<SpecCert>> = Vec::new();
    'specs: for spec in specs {
        let mut engines: Vec<Engine> = configs
            .iter()
            .map(|c| Engine::new(pool, program, spec, c))
            .collect();
        let mut shared = ProofAutomaton::new();
        let mut alive: Vec<usize> = (0..engines.len()).collect();
        let mut total_rounds = 0usize;
        let mut first_give_up: Option<GiveUp> = None;
        loop {
            if alive.is_empty() {
                let verdict = Verdict::GaveUp(match &first_give_up {
                    Some(g) => GiveUp::new(
                        g.category,
                        format!("every portfolio engine gave up (e.g. {})", g.reason),
                    ),
                    None => GiveUp::new(Category::Cancelled, "every portfolio engine gave up"),
                });
                let outcome = Outcome {
                    verdict,
                    stats: finish(stats, &engines, &shared, start),
                    certificate: None,
                };
                return (outcome, None);
            }
            if total_rounds >= max_total_rounds {
                let outcome = Outcome {
                    verdict: Verdict::gave_up(
                        Category::Rounds,
                        format!("no proof within {max_total_rounds} shared rounds"),
                    ),
                    stats: finish(stats, &engines, &shared, start),
                    certificate: None,
                };
                return (outcome, None);
            }
            // Adaptive scheduling: the engine whose proof checks have been
            // cheapest so far goes first.
            let &idx = alive
                .iter()
                .min_by_key(|&&i| engines[i].stats.visited)
                .expect("alive is nonempty");
            total_rounds += 1;
            match engines[idx].round(pool, program, &mut shared) {
                RoundOutcome::Proven => {
                    winner = Some(engines[idx].name.clone());
                    spec_certs.push(engines[idx].record_spec_cert(pool, program, &mut shared));
                    stats = finish(stats, &engines, &shared, start);
                    continue 'specs;
                }
                RoundOutcome::Bug(trace) => {
                    let name = engines[idx].name.clone();
                    let verdict = Verdict::Incorrect { trace };
                    let certificate = if configs[idx].certify {
                        assemble_certificate(pool, program, &verdict, Vec::new(), Some(spec))
                    } else {
                        None
                    };
                    let outcome = Outcome {
                        verdict,
                        stats: finish(stats, &engines, &shared, start),
                        certificate,
                    };
                    return (outcome, Some(name));
                }
                RoundOutcome::Refined => {}
                RoundOutcome::GaveUp(g) => {
                    first_give_up.get_or_insert(g);
                    alive.retain(|&i| i != idx);
                }
                RoundOutcome::Cancelled(_) => alive.retain(|&i| i != idx),
            }
        }
    }
    let certificate = assemble_certificate(pool, program, &Verdict::Correct, spec_certs, None);
    let outcome = Outcome {
        verdict: Verdict::Correct,
        stats: RunStats {
            time: start.elapsed(),
            ..stats
        },
        certificate,
    };
    (outcome, winner)
}

/// Folds one spec's engines and their shared proof into the running
/// stats. Rounds are single-threaded, so the engines' query-cache deltas
/// are disjoint and their sum is exact.
fn finish(
    mut stats: RunStats,
    engines: &[Engine],
    shared: &ProofAutomaton,
    start: Instant,
) -> RunStats {
    stats.add_engines(engines.iter().map(|e| &e.stats), shared.proof_size());
    stats.time = start.elapsed();
    stats
}

// ---------------------------------------------------------------------------
// Multi-threaded shared-proof portfolio
// ---------------------------------------------------------------------------

/// Configuration of [`parallel_verify`].
#[derive(Clone, Debug)]
pub struct ParallelConfig {
    /// Exchange assertions at round barriers, applied in engine-index
    /// order, so that repeated runs are bit-for-bit reproducible (verdict,
    /// per-engine round counts and proof sizes). The default free-running
    /// mode exchanges assertions as soon as they are discovered and lets
    /// the fastest engine win the race.
    pub deterministic: bool,
    /// Per-engine refinement-round budget (per spec).
    pub max_rounds_per_engine: usize,
    /// Per-engine wall-clock budget, enforced *inside* queries through
    /// each worker's resource-governor deadline (and re-checked between
    /// rounds as a backstop); an engine over budget gives up without
    /// poisoning the run. In deterministic mode a budget makes round
    /// counts machine-dependent, so leave it `None` there when
    /// reproducibility matters.
    pub wall_clock_budget: Option<Duration>,
    /// Recycled proof assertions seeded into every worker's proof
    /// automaton before its first round — how the restart supervisor
    /// replays a failed attempt's partial proof. Seeds are candidate
    /// assertions only (every use is re-validated by a Hoare query), so
    /// stale seeds cost completeness, never soundness.
    pub seed: Vec<ExportedTerm>,
}

impl Default for ParallelConfig {
    fn default() -> ParallelConfig {
        ParallelConfig {
            deterministic: false,
            max_rounds_per_engine: 60,
            wall_clock_budget: None,
            seed: Vec::new(),
        }
    }
}

/// How one engine of a [`parallel_verify`] run ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineStatus {
    /// This engine produced the winning verdict.
    Won,
    /// Another engine concluded first; this one was stopped.
    Lost,
    /// The engine gave up (budget, solver incompleteness, non-progress).
    GaveUp(GiveUp),
    /// The engine thread panicked; the run continued without it.
    Panicked(String),
}

/// Per-engine summary of a [`parallel_verify`] run, one per `(spec,
/// engine)` pair in spec-major order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EngineReport {
    /// The engine's configuration name.
    pub name: String,
    /// Index of the analyzed spec (one per asserting thread).
    pub spec: usize,
    /// Refinement rounds this engine executed.
    pub rounds: usize,
    /// Final size of this engine's proof automaton.
    pub proof_size: usize,
    /// How the engine ended.
    pub status: EngineStatus,
}

/// Result of [`parallel_verify`].
#[derive(Clone, Debug)]
pub struct ParallelOutcome {
    /// Verdict plus counters aggregated over all engines and specs.
    pub outcome: Outcome,
    /// Name of the engine that produced the verdict, if conclusive.
    pub winner: Option<String>,
    /// Per-engine reports in spec-major, engine-index order.
    pub engines: Vec<EngineReport>,
    /// Union of every worker's proof assertions at exit (deduped, in
    /// spec-major, engine-index order) — what the restart supervisor
    /// recycles into the next attempt's [`ParallelConfig::seed`].
    pub harvest: Vec<ExportedTerm>,
}

/// Worker → coordinator messages.
enum WorkerMsg {
    /// Free-running: a refinement produced new assertions to share.
    Refined {
        engine: usize,
        batch: Vec<ExportedTerm>,
    },
    /// Deterministic: the engine finished its round and waits at the
    /// barrier (`batch` is empty when the round added nothing).
    RoundDone {
        engine: usize,
        batch: Vec<ExportedTerm>,
    },
    /// The engine is done (conclusive, gave up, stopped, or panicked).
    Exit(Box<WorkerExit>),
}

/// Coordinator → worker messages.
enum CoordMsg {
    /// Assertions discovered by other engines; in deterministic mode also
    /// the barrier release starting the next round.
    Assertions(Vec<Vec<ExportedTerm>>),
    /// Stop and report (deterministic mode; free-running uses the flag).
    Stop,
}

/// Terminal state of one worker.
struct WorkerExit {
    engine: usize,
    verdict: WorkerVerdict,
    stats: EngineStats,
    proof_size: usize,
    /// The worker's full proof at exit, exported pool-independently — the
    /// harvest the restart supervisor recycles into the next attempt.
    assertions: Vec<ExportedTerm>,
    /// The recorded per-spec certificate when the worker proved the spec
    /// (and certificate emission is enabled on its configuration).
    certificate: Option<SpecCert>,
}

enum WorkerVerdict {
    Proven,
    Bug(Vec<LetterId>),
    GaveUp(GiveUp),
    Cancelled,
    Panicked(String),
}

/// The **multi-threaded shared-proof portfolio**: one OS thread per
/// configuration, each with a private [`TermPool`] clone and proof
/// automaton, exchanging newly discovered assertions through the
/// coordinator as pool-independent [`ExportedTerm`]s.
///
/// The first engine to reach a conclusive verdict wins; the others are
/// cancelled through a shared stop flag checked inside the proof-check
/// DFS. A panicking or over-budget engine is dropped gracefully — its
/// report records the failure and the remaining engines keep running.
///
/// With [`ParallelConfig::deterministic`] the engines run in lockstep:
/// the coordinator collects each round's assertion batches, orders them by
/// engine index, and broadcasts them at the next round barrier, making
/// verdict, per-engine round counts and proof sizes reproducible across
/// runs regardless of thread scheduling.
pub fn parallel_verify(
    pool: &TermPool,
    program: &Program,
    configs: &[VerifierConfig],
    pcfg: &ParallelConfig,
) -> ParallelOutcome {
    assert!(!configs.is_empty(), "portfolio needs at least one member");
    let start = Instant::now();
    let specs = specs_of(program);
    // Workers clone this pool, sharing its Arc-backed query cache; the
    // pool-level snapshot delta is therefore the exact run total (summing
    // the workers' own per-round deltas would double-count concurrent
    // activity).
    let cache_before = pool.query_cache().map(|c| c.stats());
    let mut stats = RunStats::default();
    let mut reports: Vec<EngineReport> = Vec::new();
    let mut winner: Option<String> = None;
    let mut harvest: Vec<ExportedTerm> = Vec::new();
    let mut harvested: HashSet<ExportedTerm> = HashSet::new();
    let mut spec_certs: Vec<Option<SpecCert>> = Vec::new();
    for (spec_idx, &spec) in specs.iter().enumerate() {
        let phase = run_spec_parallel(pool, program, spec, configs, pcfg);
        for exit in &phase.exits {
            for t in &exit.assertions {
                if harvested.insert(t.clone()) {
                    harvest.push(t.clone());
                }
            }
        }
        // Each worker refined its own proof. The summed query-cache deltas
        // are replaced by the pool-level delta at exit.
        for exit in &phase.exits {
            stats.add_engines([&exit.stats], exit.proof_size);
        }
        let winner_idx = phase.winner;
        for exit in &phase.exits {
            let status = match &exit.verdict {
                WorkerVerdict::Proven | WorkerVerdict::Bug(_)
                    if winner_idx == Some(exit.engine) =>
                {
                    EngineStatus::Won
                }
                // A conclusive verdict that lost the race (free-running
                // mode can have several finishers) still "lost".
                WorkerVerdict::Proven | WorkerVerdict::Bug(_) => EngineStatus::Lost,
                WorkerVerdict::GaveUp(g) => EngineStatus::GaveUp(g.clone()),
                WorkerVerdict::Cancelled => EngineStatus::Lost,
                WorkerVerdict::Panicked(m) => EngineStatus::Panicked(m.clone()),
            };
            reports.push(EngineReport {
                name: configs[exit.engine].name.clone(),
                spec: spec_idx,
                rounds: exit.stats.rounds,
                proof_size: exit.proof_size,
                status,
            });
        }
        match phase.verdict {
            Verdict::Correct => {
                winner = winner_idx.map(|i| configs[i].name.clone());
                spec_certs.push(
                    winner_idx
                        .and_then(|w| phase.exits.iter().find(|e| e.engine == w))
                        .and_then(|e| e.certificate.clone()),
                );
            }
            other => {
                stats.time = start.elapsed();
                apply_cache_delta(&mut stats, pool, cache_before);
                let certificate = if winner_idx.is_some_and(|i| configs[i].certify) {
                    assemble_certificate(pool, program, &other, Vec::new(), Some(spec))
                } else {
                    None
                };
                return ParallelOutcome {
                    outcome: Outcome {
                        verdict: other,
                        stats,
                        certificate,
                    },
                    winner: winner_idx.map(|i| configs[i].name.clone()),
                    engines: reports,
                    harvest,
                };
            }
        }
    }
    stats.time = start.elapsed();
    apply_cache_delta(&mut stats, pool, cache_before);
    let certificate = assemble_certificate(pool, program, &Verdict::Correct, spec_certs, None);
    ParallelOutcome {
        outcome: Outcome {
            verdict: Verdict::Correct,
            stats,
            certificate,
        },
        winner,
        engines: reports,
        harvest,
    }
}

/// Attributes the shared query cache's activity since `before` to `stats`.
fn apply_cache_delta(stats: &mut RunStats, pool: &TermPool, before: Option<smt::CacheStats>) {
    if let (Some(cache), Some(before)) = (pool.query_cache(), before) {
        let delta = cache.stats().since(&before);
        stats.qcache_hits = delta.hits;
        stats.qcache_misses = delta.misses;
    }
}

/// Result of one spec phase of [`parallel_verify`].
struct PhaseResult {
    verdict: Verdict,
    winner: Option<usize>,
    /// One exit per engine, sorted by engine index.
    exits: Vec<WorkerExit>,
}

fn run_spec_parallel(
    pool: &TermPool,
    program: &Program,
    spec: Spec,
    configs: &[VerifierConfig],
    pcfg: &ParallelConfig,
) -> PhaseResult {
    let n = configs.len();
    let stop = Arc::new(AtomicBool::new(false));
    let (to_coord, from_workers) = channel::<WorkerMsg>();
    let mut to_workers: Vec<Sender<CoordMsg>> = Vec::with_capacity(n);
    let mut worker_rx: Vec<Option<Receiver<CoordMsg>>> = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = channel::<CoordMsg>();
        to_workers.push(tx);
        worker_rx.push(Some(rx));
    }

    std::thread::scope(|scope| {
        for (idx, config) in configs.iter().enumerate() {
            let rx = worker_rx[idx].take().expect("receiver unclaimed");
            let tx = to_coord.clone();
            let stop = Arc::clone(&stop);
            let mut worker_pool = pool.clone();
            scope.spawn(move || {
                let exit = catch_unwind(AssertUnwindSafe(|| {
                    worker_loop(
                        &mut worker_pool,
                        program,
                        spec,
                        config,
                        pcfg,
                        idx,
                        &rx,
                        &tx,
                        &stop,
                    )
                }))
                .unwrap_or_else(|payload| {
                    Box::new(WorkerExit {
                        engine: idx,
                        verdict: WorkerVerdict::Panicked(panic_message(payload)),
                        stats: EngineStats::default(),
                        proof_size: 0,
                        assertions: Vec::new(),
                        certificate: None,
                    })
                });
                // The coordinator may already be gone when the run was
                // decided; a failed send is fine then.
                let _ = tx.send(WorkerMsg::Exit(exit));
            });
        }
        drop(to_coord);

        if pcfg.deterministic {
            coordinate_lockstep(n, pcfg, &from_workers, &to_workers)
        } else {
            coordinate_free_running(n, pcfg, &from_workers, &to_workers, &stop)
        }
    })
}

/// One engine's thread body: round loop with assertion import/export.
#[allow(clippy::too_many_arguments)]
fn worker_loop(
    pool: &mut TermPool,
    program: &Program,
    spec: Spec,
    config: &VerifierConfig,
    pcfg: &ParallelConfig,
    idx: usize,
    rx: &Receiver<CoordMsg>,
    tx: &Sender<WorkerMsg>,
    stop: &Arc<AtomicBool>,
) -> Box<WorkerExit> {
    let start = Instant::now();
    // Each worker gets its own governor: the run's budgets and fault plan,
    // the portfolio wall-clock budget as an in-query deadline, and (in
    // free-running mode) the shared stop flag as the cancellation token so
    // a losing engine aborts mid-query instead of finishing its round.
    let mut gcfg = config.govern.clone();
    if gcfg.deadline.is_none() {
        gcfg.deadline = pcfg.wall_clock_budget;
    }
    let governor = if pcfg.deterministic {
        gcfg.build()
    } else {
        gcfg.build_with_cancel(Arc::clone(stop))
    };
    pool.set_governor(governor);
    if !config.use_qcache {
        // Drop only this worker's handle; other workers sharing the cache
        // keep theirs.
        pool.take_query_cache();
    }
    let mut engine = Engine::new(pool, program, spec, config);
    let mut proof = ProofAutomaton::new();
    // Replay the supervisor's recycled assertions (if any) before the
    // first round; they are candidates like any broadcast batch.
    import_batch(pool, &mut proof, &pcfg.seed);
    let exit = |pool: &TermPool,
                engine: &Engine,
                proof: &ProofAutomaton,
                verdict: WorkerVerdict,
                certificate: Option<SpecCert>| {
        Box::new(WorkerExit {
            engine: idx,
            verdict,
            stats: engine.stats,
            proof_size: proof.proof_size(),
            assertions: proof.assertions().iter().map(|&t| pool.export(t)).collect(),
            certificate,
        })
    };
    loop {
        // Absorb assertions from the other engines. Free-running: drain
        // whatever has arrived. Deterministic: block at the barrier.
        if pcfg.deterministic {
            match rx.recv() {
                Ok(CoordMsg::Assertions(batches)) => {
                    for batch in &batches {
                        import_batch(pool, &mut proof, batch);
                    }
                }
                Ok(CoordMsg::Stop) | Err(_) => {
                    return exit(pool, &engine, &proof, WorkerVerdict::Cancelled, None);
                }
            }
        } else {
            while let Ok(msg) = rx.try_recv() {
                match msg {
                    CoordMsg::Assertions(batches) => {
                        for batch in &batches {
                            import_batch(pool, &mut proof, batch);
                        }
                    }
                    CoordMsg::Stop => {
                        return exit(pool, &engine, &proof, WorkerVerdict::Cancelled, None);
                    }
                }
            }
            if stop.load(Ordering::Relaxed) {
                return exit(pool, &engine, &proof, WorkerVerdict::Cancelled, None);
            }
        }
        // Per-engine budgets (graceful: the engine just gives up).
        if engine.stats.rounds >= pcfg.max_rounds_per_engine {
            return exit(
                pool,
                &engine,
                &proof,
                WorkerVerdict::GaveUp(GiveUp::new(
                    Category::Rounds,
                    format!("no proof within {} rounds", pcfg.max_rounds_per_engine),
                )),
                None,
            );
        }
        if let Some(budget) = pcfg.wall_clock_budget {
            if start.elapsed() >= budget {
                return exit(
                    pool,
                    &engine,
                    &proof,
                    WorkerVerdict::GaveUp(GiveUp::new(
                        Category::Deadline,
                        "wall-clock budget exhausted",
                    )),
                    None,
                );
            }
        }
        match engine.round(pool, program, &mut proof) {
            RoundOutcome::Refined => {
                let batch: Vec<ExportedTerm> = engine
                    .take_new_assertions()
                    .into_iter()
                    .map(|t| pool.export(t))
                    .collect();
                let msg = if pcfg.deterministic {
                    WorkerMsg::RoundDone { engine: idx, batch }
                } else {
                    WorkerMsg::Refined { engine: idx, batch }
                };
                if tx.send(msg).is_err() {
                    return exit(pool, &engine, &proof, WorkerVerdict::Cancelled, None);
                }
            }
            RoundOutcome::Proven => {
                let cert = engine.record_spec_cert(pool, program, &mut proof);
                return exit(pool, &engine, &proof, WorkerVerdict::Proven, cert);
            }
            RoundOutcome::Bug(trace) => {
                return exit(pool, &engine, &proof, WorkerVerdict::Bug(trace), None)
            }
            RoundOutcome::GaveUp(give_up) => {
                return exit(pool, &engine, &proof, WorkerVerdict::GaveUp(give_up), None)
            }
            RoundOutcome::Cancelled(_) => {
                return exit(pool, &engine, &proof, WorkerVerdict::Cancelled, None)
            }
        }
    }
}

fn import_batch(pool: &mut TermPool, proof: &mut ProofAutomaton, batch: &[ExportedTerm]) {
    for t in batch {
        let id = pool.import(t);
        proof.add_assertion(id);
    }
}

/// Deterministic coordinator: full round barriers, assertion batches
/// merged and broadcast in engine-index order, lowest conclusive engine
/// index wins.
fn coordinate_lockstep(
    n: usize,
    pcfg: &ParallelConfig,
    from_workers: &Receiver<WorkerMsg>,
    to_workers: &[Sender<CoordMsg>],
) -> PhaseResult {
    let mut alive: Vec<bool> = vec![true; n];
    let mut exits: Vec<Option<WorkerExit>> = (0..n).map(|_| None).collect();
    // Batches discovered in the previous round, indexed by engine.
    let mut pending: Vec<Vec<ExportedTerm>> = vec![Vec::new(); n];
    loop {
        let living: Vec<usize> = (0..n).filter(|&i| alive[i]).collect();
        if living.is_empty() {
            break;
        }
        // Release the barrier: everyone gets the same ordered batch list.
        let broadcast: Vec<Vec<ExportedTerm>> =
            pending.iter().filter(|b| !b.is_empty()).cloned().collect();
        pending.iter_mut().for_each(Vec::clear);
        for &i in &living {
            // A failed send means the worker already exited; its Exit
            // message is collected below.
            let _ = to_workers[i].send(CoordMsg::Assertions(broadcast.clone()));
        }
        // Collect one reply per living worker.
        let mut replies = 0;
        let mut concluded: Vec<usize> = Vec::new();
        while replies < living.len() {
            match from_workers.recv() {
                Ok(WorkerMsg::RoundDone { engine, batch }) => {
                    replies += 1;
                    pending[engine] = batch;
                }
                Ok(WorkerMsg::Refined { engine, batch }) => {
                    // Not expected in lockstep mode, but harmless.
                    replies += 1;
                    pending[engine] = batch;
                }
                Ok(WorkerMsg::Exit(exit)) => {
                    replies += 1;
                    let i = exit.engine;
                    alive[i] = false;
                    if matches!(exit.verdict, WorkerVerdict::Proven | WorkerVerdict::Bug(_)) {
                        concluded.push(i);
                    }
                    exits[i] = Some(*exit);
                }
                Err(_) => break, // all senders dropped: every worker exited
            }
        }
        if let Some(&winner) = concluded.iter().min() {
            // Stop the survivors and collect their exits.
            for &i in &living {
                if alive[i] {
                    let _ = to_workers[i].send(CoordMsg::Stop);
                }
            }
            drain_exits(from_workers, &mut exits, &mut alive);
            // The winner index came from a received Exit message, so its
            // record is normally present; degrade to a give-up rather
            // than panicking the pool if it somehow is not.
            let verdict = match exits[winner].as_ref().map(|e| &e.verdict) {
                Some(WorkerVerdict::Proven) => Verdict::Correct,
                Some(WorkerVerdict::Bug(trace)) => Verdict::Incorrect {
                    trace: trace.clone(),
                },
                _ => Verdict::GaveUp(GiveUp::new(
                    Category::Cancelled,
                    format!("worker lost: winning engine {winner} has no exit report"),
                )),
            };
            let winner = match verdict {
                Verdict::GaveUp(_) => None,
                _ => Some(winner),
            };
            return PhaseResult {
                verdict,
                winner,
                exits: seal_exits(exits),
            };
        }
    }
    PhaseResult {
        verdict: Verdict::GaveUp(give_up_record(&exits, pcfg, false)),
        winner: None,
        exits: seal_exits(exits),
    }
}

/// Free-running coordinator: relays assertion batches as they arrive; the
/// first conclusive exit wins and flips the stop flag.
fn coordinate_free_running(
    n: usize,
    pcfg: &ParallelConfig,
    from_workers: &Receiver<WorkerMsg>,
    to_workers: &[Sender<CoordMsg>],
    stop: &Arc<AtomicBool>,
) -> PhaseResult {
    let deadline = pcfg.wall_clock_budget.map(|b| Instant::now() + b);
    let mut exits: Vec<Option<WorkerExit>> = (0..n).map(|_| None).collect();
    let mut alive: Vec<bool> = vec![true; n];
    let mut winner: Option<usize> = None;
    let mut budget_stop = false;
    // Kick the workers off: the first message releases nothing in
    // free-running mode (workers don't block), so nothing to send here.
    while alive.iter().any(|&a| a) {
        let msg = match deadline {
            Some(d) => {
                let remaining = d
                    .checked_duration_since(Instant::now())
                    .unwrap_or(Duration::ZERO);
                match from_workers.recv_timeout(remaining.max(Duration::from_millis(1))) {
                    Ok(m) => m,
                    Err(RecvTimeoutError::Timeout) => {
                        // Global budget: stop everyone, then keep draining.
                        budget_stop = true;
                        stop.store(true, Ordering::Relaxed);
                        continue;
                    }
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
            None => match from_workers.recv() {
                Ok(m) => m,
                Err(_) => break,
            },
        };
        match msg {
            WorkerMsg::Refined { engine, batch } | WorkerMsg::RoundDone { engine, batch } => {
                if batch.is_empty() {
                    continue;
                }
                for (i, sender) in to_workers.iter().enumerate() {
                    if i != engine && alive[i] {
                        let _ = sender.send(CoordMsg::Assertions(vec![batch.clone()]));
                    }
                }
            }
            WorkerMsg::Exit(exit) => {
                let i = exit.engine;
                alive[i] = false;
                if winner.is_none()
                    && matches!(exit.verdict, WorkerVerdict::Proven | WorkerVerdict::Bug(_))
                {
                    winner = Some(i);
                    stop.store(true, Ordering::Relaxed);
                }
                exits[i] = Some(*exit);
            }
        }
    }
    drain_exits(from_workers, &mut exits, &mut alive);
    match winner {
        Some(w) => {
            // As in lockstep mode: a missing winner record degrades to a
            // give-up instead of panicking the pool.
            let verdict = match exits[w].as_ref().map(|e| &e.verdict) {
                Some(WorkerVerdict::Proven) => Verdict::Correct,
                Some(WorkerVerdict::Bug(trace)) => Verdict::Incorrect {
                    trace: trace.clone(),
                },
                _ => Verdict::GaveUp(GiveUp::new(
                    Category::Cancelled,
                    format!("worker lost: winning engine {w} has no exit report"),
                )),
            };
            let winner = match verdict {
                Verdict::GaveUp(_) => None,
                _ => Some(w),
            };
            PhaseResult {
                verdict,
                winner,
                exits: seal_exits(exits),
            }
        }
        None => PhaseResult {
            verdict: Verdict::GaveUp(give_up_record(&exits, pcfg, budget_stop)),
            winner: None,
            exits: seal_exits(exits),
        },
    }
}

/// Receives the remaining `Exit` messages after a stop was requested.
fn drain_exits(
    from_workers: &Receiver<WorkerMsg>,
    exits: &mut [Option<WorkerExit>],
    alive: &mut [bool],
) {
    while alive.iter().any(|&a| a) {
        match from_workers.recv() {
            Ok(WorkerMsg::Exit(exit)) => {
                let i = exit.engine;
                alive[i] = false;
                exits[i] = Some(*exit);
            }
            Ok(_) => {} // late refinement chatter
            // Disconnection with workers still marked alive: their exits
            // are lost; seal_exits quarantines them as give-ups.
            Err(_) => break,
        }
    }
}

/// The give-up recorded for a worker whose exit report never arrived
/// (channel disconnected before the `Exit` message): the pool degrades
/// gracefully — the lost worker is quarantined as a give-up instead of
/// poisoning the run with a panic.
fn worker_lost(engine: usize) -> WorkerExit {
    WorkerExit {
        engine,
        verdict: WorkerVerdict::GaveUp(GiveUp::new(
            Category::Cancelled,
            format!("worker lost: engine {engine} exited without a report"),
        )),
        stats: EngineStats::default(),
        proof_size: 0,
        assertions: Vec::new(),
        certificate: None,
    }
}

/// Replaces any missing exit with a quarantine record and sorts by engine
/// index.
fn seal_exits(exits: Vec<Option<WorkerExit>>) -> Vec<WorkerExit> {
    exits
        .into_iter()
        .enumerate()
        .map(|(i, e)| e.unwrap_or_else(|| worker_lost(i)))
        .collect()
}

/// Structured give-up when no engine concluded. If every engine simply
/// ran out of refinement rounds that is the aggregate cause; otherwise the
/// first give-up in engine-index order (deterministic) names the category.
/// `budget_stop` records that the coordinator stopped the pool because the
/// global wall-clock budget expired — the root cause when every engine
/// only reports `cancelled`.
fn give_up_record(
    exits: &[Option<WorkerExit>],
    pcfg: &ParallelConfig,
    budget_stop: bool,
) -> GiveUp {
    let all_budget = exits
        .iter()
        .flatten()
        .all(|e| matches!(&e.verdict, WorkerVerdict::GaveUp(g) if g.category == Category::Rounds));
    if all_budget {
        return GiveUp::new(
            Category::Rounds,
            format!(
                "no proof within {} rounds on any engine",
                pcfg.max_rounds_per_engine
            ),
        );
    }
    // Prefer a root-cause category: an engine cancelled by the shared stop
    // flag only echoes whichever engine tripped first, so a `cancelled`
    // exit must not mask a deadline/budget exit elsewhere in the pool.
    let give_ups = || {
        exits.iter().flatten().filter_map(|e| match &e.verdict {
            WorkerVerdict::GaveUp(g) => Some(g),
            _ => None,
        })
    };
    let root_cause = give_ups().find(|g| g.category != Category::Cancelled);
    if root_cause.is_none() && budget_stop {
        return GiveUp::new(
            Category::Deadline,
            "global wall-clock budget exhausted before any engine concluded",
        );
    }
    match root_cause.or_else(|| give_ups().next()) {
        Some(g) => GiveUp::new(
            g.category,
            format!("every portfolio engine gave up (e.g. {})", g.reason),
        ),
        None => GiveUp::new(Category::Cancelled, "every portfolio engine gave up"),
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    crate::govern::panic_reason(payload.as_ref())
}
