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
use crate::engine::{every_engine_gave_up, run_spec, Engine, EngineStats, RoundHooks, SpecEnd};
use crate::govern::{Category, GiveUp};
use crate::proof::ProofAutomaton;
use crate::verify::{run_session, verify, Outcome, RunSettings, RunStats, Verdict, VerifierConfig};
use program::concurrent::{Program, Spec};
use smt::term::TermPool;
use smt::transfer::ExportedTerm;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

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
        let conclusive = outcome.verdict.give_up().is_none();
        // Parallel model: the fastest conclusive member wins.
        if conclusive && winner.is_none_or(|w| outcome.stats.time < members[w].1.stats.time) {
            winner = Some(members.len());
        }
        members.push((config.name.clone(), outcome));
        if conclusive && stop_at_first {
            break;
        }
    }
    let shown = winner.unwrap_or(members.len() - 1);
    PortfolioOutcome {
        winner: winner.map(|w| members[w].0.clone()),
        outcome: members[shown].1.clone(),
        members,
    }
}

/// The **shared-proof adaptive portfolio** — the direction sketched in the
/// paper's §8 Limitations: instead of racing independent verifier copies,
/// the preference orders take turns (one refinement round each, cheapest
/// engine first) over a *single shared proof*. Assertions discovered while
/// chasing one order's counterexamples are program facts and immediately
/// cover traces of every other order's reduction; the first engine whose
/// reduction is fully covered concludes. `max_total_rounds` caps the
/// shared rounds per spec; the run settings (governor, solver, query
/// cache) are the first member's.
///
/// Returns the outcome plus the name of the engine that concluded.
pub fn adaptive_verify(
    pool: &mut TermPool,
    program: &Program,
    configs: &[VerifierConfig],
    max_total_rounds: usize,
) -> (Outcome, Option<String>) {
    assert!(!configs.is_empty(), "portfolio needs at least one member");
    let (outcome, winner) = run_session(
        pool,
        program,
        &configs[0],
        RunStats::default(),
        |pool, _, spec, stats| {
            run_spec(pool, program, spec, configs, max_total_rounds, &mut ()).fold(stats)
        },
    );
    (outcome, winner.map(|w| configs[w].name.clone()))
}

// ---------------------------------------------------------------------------
// Multi-threaded shared-proof portfolio
// ---------------------------------------------------------------------------

/// Configuration of [`parallel_verify`]. Each member's own `max_rounds`
/// and `govern` (deadline, budgets, faults) bound its worker.
#[derive(Clone, Debug, Default)]
pub struct ParallelConfig {
    /// Exchange assertions at round barriers, applied in engine-index
    /// order, so that repeated runs are bit-for-bit reproducible (verdict,
    /// per-engine round counts and proof sizes). The default free-running
    /// mode exchanges assertions as soon as they are discovered and lets
    /// the fastest engine win the race. A member deadline makes round
    /// counts machine-dependent, so leave it unset when reproducibility
    /// matters.
    pub deterministic: bool,
    /// Recycled proof assertions seeded into every worker's proof
    /// automaton before its first round — how the restart supervisor
    /// replays a failed attempt's partial proof. Seeds are candidate
    /// assertions only (every use is re-validated by a Hoare query), so
    /// stale seeds cost completeness, never soundness.
    pub seed: Vec<ExportedTerm>,
}

/// How one engine of a [`parallel_verify`] run ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineStatus {
    /// This engine produced the winning verdict.
    Won,
    /// Another engine concluded first; this one was stopped.
    Lost,
    /// The engine gave up (budget, solver incompleteness, non-progress, a
    /// contained panic).
    GaveUp(GiveUp),
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
    /// A refinement produced new assertions to share (possibly none).
    Refined {
        engine: usize,
        batch: Vec<ExportedTerm>,
    },
    /// The engine is done.
    Exit(Box<WorkerExit>),
}

/// Terminal state of one worker.
struct WorkerExit {
    engine: usize,
    verdict: Verdict,
    stats: EngineStats,
    proof_size: usize,
    /// The worker's full proof at exit, exported pool-independently — the
    /// harvest the restart supervisor recycles into the next attempt.
    assertions: Vec<ExportedTerm>,
    /// The recorded per-spec certificate when the worker proved the spec
    /// (and certificate emission is enabled on its configuration).
    certificate: Option<SpecCert>,
}

/// The **multi-threaded shared-proof portfolio**: per spec, one OS thread
/// per configuration, each with a private [`TermPool`] clone and proof
/// automaton, exchanging newly discovered assertions through the
/// coordinator as pool-independent [`ExportedTerm`]s.
///
/// The first engine to reach a conclusive verdict wins; the others are
/// cancelled through a shared stop flag checked inside the proof-check
/// DFS. An engine that gives up (its own deadline, budget or round limit,
/// or a contained panic) is dropped gracefully — its report records the
/// cause and the remaining engines keep running.
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
    let mut engines: Vec<EngineReport> = Vec::new();
    let mut harvest: Vec<ExportedTerm> = Vec::new();
    let mut harvested: HashSet<ExportedTerm> = HashSet::new();
    // The session runs on a clone that every worker clones in turn, so
    // they share its query cache and the session's delta is the run total.
    let (outcome, winner) = run_session(
        &mut pool.clone(),
        program,
        &configs[0],
        RunStats::default(),
        |pool, spec_idx, spec, stats| {
            let (exits, winner) = run_phase(pool, program, spec, configs, pcfg);
            let give_ups = exits.iter().filter_map(|e| e.verdict.give_up());
            let mut end = SpecEnd {
                verdict: Verdict::GaveUp(every_engine_gave_up(give_ups)),
                winner,
                cert: None,
            };
            for exit in exits {
                stats.add_engines([&exit.stats], exit.proof_size);
                for t in exit.assertions {
                    if harvested.insert(t.clone()) {
                        harvest.push(t);
                    }
                }
                let status = match exit.verdict.give_up() {
                    _ if winner == Some(exit.engine) => EngineStatus::Won,
                    Some(g) if g.category != Category::Cancelled => EngineStatus::GaveUp(g.clone()),
                    _ => EngineStatus::Lost,
                };
                engines.push(EngineReport {
                    name: configs[exit.engine].name.clone(),
                    spec: spec_idx,
                    rounds: exit.stats.rounds,
                    proof_size: exit.proof_size,
                    status,
                });
                if winner == Some(exit.engine) {
                    end.verdict = exit.verdict;
                    end.cert = exit.certificate;
                }
            }
            end
        },
    );
    ParallelOutcome {
        outcome,
        winner: winner.map(|w| configs[w].name.clone()),
        engines,
        harvest,
    }
}

/// Runs `spec` on one worker thread per member, each on its own clone of
/// `pool` with its member's run settings, and returns the workers' exits
/// in member order plus the winner.
fn run_phase(
    pool: &TermPool,
    program: &Program,
    spec: Spec,
    configs: &[VerifierConfig],
    pcfg: &ParallelConfig,
) -> (Vec<WorkerExit>, Option<usize>) {
    let stop = Arc::new(AtomicBool::new(false));
    let (to_coord, from_workers) = channel::<WorkerMsg>();
    std::thread::scope(|scope| {
        let mut to_workers = Vec::with_capacity(configs.len());
        for (idx, config) in configs.iter().enumerate() {
            let (tx, rx) = channel();
            to_workers.push(tx);
            let mut link = Exchange {
                idx,
                deterministic: pcfg.deterministic,
                seed: &pcfg.seed,
                rx,
                tx: to_coord.clone(),
                stop: Arc::clone(&stop),
            };
            let mut pool = pool.clone();
            scope.spawn(move || {
                // The worker's governor shares the stop flag as its
                // cancellation token, so a losing engine aborts mid-query.
                let governor = config.govern.build_with_cancel(Arc::clone(&link.stop));
                RunSettings::install(&mut pool, config, governor);
                let members = std::slice::from_ref(config);
                let run = run_spec(
                    &mut pool,
                    program,
                    spec,
                    members,
                    config.max_rounds,
                    &mut link,
                );
                let exit = WorkerExit {
                    engine: idx,
                    verdict: run.end.verdict,
                    stats: run.engines.first().copied().unwrap_or_default(),
                    proof_size: run.proof.proof_size(),
                    assertions: run
                        .proof
                        .assertions()
                        .iter()
                        .map(|&t| pool.export(t))
                        .collect(),
                    certificate: run.end.cert,
                };
                // The coordinator waits for every exit, so this send
                // reaches it.
                let _ = link.tx.send(WorkerMsg::Exit(Box::new(exit)));
            });
        }
        drop(to_coord);
        coordinate(pcfg.deterministic, &from_workers, &to_workers, &stop)
    })
}

/// A worker's link to the coordinator, run around its rounds: before each
/// round it imports the other engines' assertions (and, before the first,
/// the seed) and stops once the stop flag is raised; after a refinement
/// it sends its new assertions.
struct Exchange<'a> {
    idx: usize,
    deterministic: bool,
    seed: &'a [ExportedTerm],
    rx: Receiver<Vec<Vec<ExportedTerm>>>,
    tx: Sender<WorkerMsg>,
    stop: Arc<AtomicBool>,
}

impl RoundHooks for Exchange<'_> {
    fn before_round(
        &mut self,
        pool: &mut TermPool,
        proof: &mut ProofAutomaton,
        rounds: usize,
    ) -> Result<(), GiveUp> {
        let seed = if rounds == 0 { self.seed } else { &[] };
        // Deterministic: wait at the round barrier. Free-running: take
        // whatever has arrived.
        let batches: Vec<Vec<ExportedTerm>> = if self.deterministic {
            self.rx.recv().unwrap_or_default()
        } else {
            self.rx.try_iter().flatten().collect()
        };
        if self.stop.load(Ordering::Relaxed) {
            return Err(GiveUp::new(Category::Cancelled, "another engine concluded"));
        }
        for t in seed.iter().chain(batches.iter().flatten()) {
            let id = pool.import(t);
            proof.add_assertion(id);
        }
        Ok(())
    }

    fn after_refine(
        &mut self,
        pool: &mut TermPool,
        engine: &mut Engine,
        _proof: &ProofAutomaton,
    ) -> Result<(), GiveUp> {
        let batch = engine
            .take_new_assertions()
            .into_iter()
            .map(|t| pool.export(t))
            .collect();
        self.tx
            .send(WorkerMsg::Refined {
                engine: self.idx,
                batch,
            })
            .map_err(|_| GiveUp::new(Category::Cancelled, "the coordinator is gone"))
    }
}

/// Relays assertion batches between the workers until every one has
/// exited; returns the exits in member order and the winner.
///
/// Free-running, a batch is forwarded as it arrives, and the first
/// conclusive exit wins and raises the stop flag. Deterministic, batches
/// wait for the round barrier (every live worker has reported) and are
/// released together in member order; the lowest conclusive member of the
/// first round with one wins, and the stop flag is raised at the next
/// barrier, while every live worker waits there.
fn coordinate(
    deterministic: bool,
    from_workers: &Receiver<WorkerMsg>,
    to_workers: &[Sender<Vec<Vec<ExportedTerm>>>],
    stop: &AtomicBool,
) -> (Vec<WorkerExit>, Option<usize>) {
    let n = to_workers.len();
    let mut exits: Vec<Option<WorkerExit>> = (0..n).map(|_| None).collect();
    let mut pending: Vec<Vec<ExportedTerm>> = vec![Vec::new(); n];
    let mut winner: Option<usize> = None;
    let mut outstanding = 0usize;
    while exits.iter().any(Option::is_none) {
        if deterministic && outstanding == 0 {
            if winner.is_some() {
                stop.store(true, Ordering::Relaxed);
            }
            let release: Vec<Vec<ExportedTerm>> = pending
                .iter_mut()
                .filter(|b| !b.is_empty())
                .map(std::mem::take)
                .collect();
            for (tx, _) in to_workers.iter().zip(&exits).filter(|(_, e)| e.is_none()) {
                // A worker that exited before reading this still reports
                // its exit, which counts as its reply.
                let _ = tx.send(release.clone());
                outstanding += 1;
            }
        }
        let Ok(msg) = from_workers.recv() else {
            break;
        };
        outstanding = outstanding.saturating_sub(1);
        match msg {
            WorkerMsg::Refined { engine, batch } if deterministic => pending[engine] = batch,
            WorkerMsg::Refined { engine, batch } => {
                for (i, tx) in to_workers.iter().enumerate() {
                    if i != engine && exits[i].is_none() && !batch.is_empty() {
                        let _ = tx.send(vec![batch.clone()]);
                    }
                }
            }
            WorkerMsg::Exit(exit) => {
                let i = exit.engine;
                let conclusive = exit.verdict.give_up().is_none();
                if conclusive && winner.is_none_or(|w| deterministic && i < w) {
                    winner = Some(i);
                    if !deterministic {
                        stop.store(true, Ordering::Relaxed);
                    }
                }
                exits[i] = Some(*exit);
            }
        }
    }
    (exits.into_iter().flatten().collect(), winner)
}
