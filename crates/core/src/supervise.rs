//! Restart supervision: proof-recycling escalation ladders and crash-safe
//! checkpoint/resume around the refinement engine.
//!
//! The refinement loop accumulates its Floyd/Hoare proof *monotonically*:
//! every assertion learned while refuting a counterexample is a program
//! fact that remains a valid proof candidate forever (the same monotone
//! proof-growth property the paper's shared-proof portfolio exploits).
//! That makes restarts cheap — as long as the proof survives the restart.
//!
//! This module makes it survive, twice over:
//!
//! * **Escalation ladder** ([`supervised_verify`],
//!   [`supervised_parallel_verify`]): when an attempt ends in
//!   [`Verdict::GaveUp`], the supervisor harvests every proof assertion
//!   accumulated so far as pool-independent [`ExportedTerm`]s and restarts
//!   with exponentially escalated resources ([`RetryPolicy`]: the deadline
//!   stretches by `deadline_factor` and per-category step budgets by
//!   `step_factor` per attempt). The fresh engine's proof automaton is
//!   seeded with the recycled assertions, so refinement rounds that
//!   already succeeded are not repeated.
//! * **Crash-safe checkpointing** ([`SuperviseConfig::checkpoint`]): at
//!   round boundaries the supervisor writes a [`Snapshot`] via atomic
//!   temp-file+rename. A killed process (or a SIGINT routed through
//!   [`SuperviseConfig::interrupt`]) resumes from the snapshot
//!   ([`SuperviseConfig::resume`]) and — because the proof-check round is
//!   a deterministic function of (program, order, proof) — reaches the
//!   same verdict in the same cumulative round count as an uninterrupted
//!   run.
//!
//! **Soundness.** Recycled assertions are only ever *candidate* proof
//! components: the proof automaton re-validates every transition with a
//! Hoare-triple query, and a bug verdict replays the trace exactly. A
//! stale, foreign or even adversarial seed can therefore cost completeness
//! (wasted candidate checks), never soundness.
//!
//! **Query-cache sharing across attempts.** The supervisor threads one
//! `TermPool` through every attempt, so the pool's [`smt::qcache`] result
//! cache survives restarts automatically: a Hoare or feasibility query a
//! failed attempt already solved is a cache hit in every escalated retry
//! (and, through [`parallel_verify`]'s pool clones, in every worker). This
//! composes with proof recycling — recycled assertions skip refinement
//! rounds, cached verdicts make the re-validation of whatever remains
//! nearly free. Sharing is sound because the cache stores only definitive
//! sat/unsat verdicts of canonical (pool-independent) formulas, never the
//! `Unknown`/`GaveUp` outcomes a tripped governor produces.

use crate::certify::SpecCert;
use crate::engine::{Engine, RoundOutcome};
use crate::govern::{
    panic_reason, push_give_up_deduped, AttributedGiveUp, Category, GiveUp, ResourceGovernor,
};
use crate::portfolio::{parallel_verify, EngineStatus, ParallelConfig, ParallelOutcome};
use crate::proof::ProofAutomaton;
use crate::snapshot::Snapshot;
use crate::verify::{assemble_certificate, specs_of, Outcome, RunStats, Verdict, VerifierConfig};
use program::concurrent::{LetterId, Program, Spec};
use smt::term::TermPool;
use smt::transfer::ExportedTerm;
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The escalation ladder: how many restarts a run gets and how fast its
/// resource limits grow between them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum number of restarts after the initial attempt.
    pub max_retries: u32,
    /// Per-retry multiplier on the wall-clock deadline.
    pub deadline_factor: u32,
    /// Per-retry multiplier on per-category step budgets (and the
    /// per-round visited-state cap).
    pub step_factor: u32,
}

impl Default for RetryPolicy {
    /// No retries; ×2 ladders once retries are enabled.
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 0,
            deadline_factor: 2,
            step_factor: 2,
        }
    }
}

impl RetryPolicy {
    /// A policy with `n` retries at the default ×2 escalation.
    pub fn with_retries(n: u32) -> RetryPolicy {
        RetryPolicy {
            max_retries: n,
            ..RetryPolicy::default()
        }
    }

    /// Sets both escalation factors; builder style.
    pub fn escalating_by(mut self, factor: u32) -> RetryPolicy {
        self.deadline_factor = factor;
        self.step_factor = factor;
        self
    }

    /// Parses an `--escalate` factor spec: `4x` or a bare `4`. The factor
    /// applies to both the deadline and the step budgets.
    pub fn parse_factor(spec: &str) -> Result<u32, String> {
        let digits = spec.strip_suffix('x').unwrap_or(spec);
        let f: u32 = digits
            .parse()
            .map_err(|_| format!("invalid escalation factor `{spec}` (expected e.g. 4x)"))?;
        if f == 0 {
            return Err("escalation factor must be at least 1".to_owned());
        }
        Ok(f)
    }
}

/// Full supervision configuration.
#[derive(Clone, Debug, Default)]
pub struct SuperviseConfig {
    /// The escalation ladder.
    pub policy: RetryPolicy,
    /// Where to write round-boundary checkpoints (`None`: no
    /// checkpointing).
    pub checkpoint: Option<PathBuf>,
    /// Resume state loaded from a snapshot file.
    pub resume: Option<Snapshot>,
    /// Cooperative interrupt flag (the CLI's SIGINT hook): when raised,
    /// the supervisor writes a final checkpoint at the next round boundary
    /// and returns with [`SupervisedOutcome::interrupted`] set.
    pub interrupt: Option<Arc<AtomicBool>>,
}

impl SuperviseConfig {
    /// A config that only retries (no checkpointing, no resume).
    pub fn retrying(policy: RetryPolicy) -> SuperviseConfig {
        SuperviseConfig {
            policy,
            ..SuperviseConfig::default()
        }
    }
}

/// One rung of the ladder, as reported back to the caller.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AttemptReport {
    /// Absolute attempt number (0 = the initial run; resumed runs
    /// continue their snapshot's counter).
    pub attempt: u32,
    /// Refinement rounds this attempt executed.
    pub rounds: usize,
    /// Recycled assertions seeded into this attempt's proof automata.
    pub seeded: usize,
    /// `None` when the attempt concluded (or was interrupted).
    pub give_up: Option<GiveUp>,
}

/// Result of a supervised run.
#[derive(Clone, Debug)]
pub struct SupervisedOutcome {
    /// Final verdict and aggregated statistics. `stats.rounds` includes
    /// the rounds carried in from a resumed snapshot, so a kill/resume
    /// pair reports the same cumulative round count as an uninterrupted
    /// run.
    pub outcome: Outcome,
    /// One report per attempt this process executed.
    pub attempts: Vec<AttemptReport>,
    /// Give-up history across attempts, deduped by `(engine, category)`.
    pub give_up_history: Vec<AttributedGiveUp>,
    /// Assertions seeded into the final attempt.
    pub recycled_assertions: usize,
    /// Rounds whose refinement work was *not* repeated by the final
    /// attempt: rounds carried in from the snapshot plus rounds executed
    /// by earlier (failed) attempts whose assertions were recycled.
    pub rounds_skipped: usize,
    /// The run stopped at a round boundary because the interrupt flag was
    /// raised; a final checkpoint was written if a path was configured.
    pub interrupted: bool,
    /// The last checkpoint-write failure, if any (checkpointing is
    /// best-effort: an unwritable path degrades the run to unsupervised,
    /// it does not abort verification).
    pub checkpoint_error: Option<String>,
    /// Every proof assertion the run accumulated, across all specs and
    /// attempts, exported pool-independently in discovery order — what a
    /// proof store persists so a re-submitted program warm-starts instead
    /// of re-deriving its proof. Assertions are only ever *candidates* on
    /// re-use (re-validated by Hoare queries), so recycling them is sound.
    pub harvest: Vec<ExportedTerm>,
}

impl SupervisedOutcome {
    /// Restarts used beyond the first attempt of this process.
    pub fn retries_used(&self) -> usize {
        self.attempts.len().saturating_sub(1)
    }

    /// The recycling effectiveness metric reported by the benches:
    /// `rounds skipped / rounds total`, where *skipped* rounds are those
    /// whose assertions were recycled instead of re-derived by the final
    /// attempt. `0.0` when nothing was recycled.
    pub fn recycle_hit_rate(&self) -> f64 {
        recycle_hit_rate(self.rounds_skipped, &self.attempts)
    }
}

fn recycle_hit_rate(rounds_skipped: usize, attempts: &[AttemptReport]) -> f64 {
    if rounds_skipped == 0 {
        return 0.0;
    }
    let executed = attempts.last().map_or(0, |a| a.rounds);
    rounds_skipped as f64 / (rounds_skipped + executed) as f64
}

/// How one spec phase of one attempt ended.
enum SpecEnd {
    Proven,
    Bug(Vec<LetterId>),
    GaveUp(GiveUp),
    Interrupted,
}

/// Mutable supervisor state threaded through attempts and spec phases.
struct SupervisorState {
    program_hash: u64,
    config_name: String,
    checkpoint: Option<PathBuf>,
    checkpoint_error: Option<String>,
    interrupt: Option<Arc<AtomicBool>>,
    attempt: u32,
    specs_done: usize,
    /// Rounds carried in from the resumed snapshot.
    base_rounds: usize,
    /// Work counters for this process (all attempts).
    stats: RunStats,
    /// Recycled assertions for the in-progress spec, discovery order.
    recycled: Vec<ExportedTerm>,
    recycled_set: HashSet<ExportedTerm>,
    give_ups: Vec<AttributedGiveUp>,
    /// Everything harvested across all specs and attempts (deduped,
    /// discovery order) — survives `clear_recycled` and is returned as
    /// [`SupervisedOutcome::harvest`].
    all_harvest: Vec<ExportedTerm>,
    all_harvest_set: HashSet<ExportedTerm>,
    /// One recorded certificate per proven spec, in spec order. Specs
    /// proven by a pre-crash process (resumed from a snapshot) have no
    /// recording, so the run's overall certificate degrades to `None`.
    spec_certs: Vec<Option<SpecCert>>,
}

impl SupervisorState {
    fn interrupted(&self) -> bool {
        self.interrupt
            .as_ref()
            .is_some_and(|f| f.load(Ordering::Relaxed))
    }

    /// Total completed rounds (snapshot + this process's finished spec
    /// phases); the phase in progress adds its own.
    fn rounds_completed(&self) -> usize {
        self.base_rounds + self.stats.rounds
    }

    /// Merges a proof's assertions into the recycled pool (deduped,
    /// discovery order preserved) and the run-wide harvest.
    fn harvest(&mut self, pool: &TermPool, proof: &ProofAutomaton) {
        for &id in proof.assertions() {
            let exported = pool.export(id);
            if self.recycled_set.insert(exported.clone()) {
                self.recycled.push(exported.clone());
            }
            if self.all_harvest_set.insert(exported.clone()) {
                self.all_harvest.push(exported);
            }
        }
    }

    /// Records a finished spec phase's proof in the run-wide harvest only
    /// (the recycled pool stays untouched — a *successful* phase's
    /// assertions must not leak into the next spec's seeds, exactly like
    /// an unsupervised run).
    fn harvest_all_only(&mut self, pool: &TermPool, proof: &ProofAutomaton) {
        for &id in proof.assertions() {
            let exported = pool.export(id);
            if self.all_harvest_set.insert(exported.clone()) {
                self.all_harvest.push(exported);
            }
        }
    }

    /// Forgets the recycled pool (on spec completion: the next spec
    /// starts from an empty proof, exactly like an unsupervised run).
    fn clear_recycled(&mut self) {
        self.recycled.clear();
        self.recycled_set.clear();
    }

    /// Writes a round-boundary checkpoint if a path is configured.
    /// `in_flight` is the spec phase in progress: its proof and the rounds
    /// it ran. Best-effort: failures are recorded, not fatal.
    fn write_checkpoint(&mut self, pool: &TermPool, in_flight: Option<(&ProofAutomaton, usize)>) {
        let Some(path) = self.checkpoint.clone() else {
            return;
        };
        let (assertions, rounds) = match in_flight {
            Some((proof, rounds)) => (
                proof
                    .assertions()
                    .iter()
                    .map(|&id| pool.export(id))
                    .collect(),
                rounds,
            ),
            None => (self.recycled.clone(), 0),
        };
        let snapshot = Snapshot {
            program_hash: self.program_hash,
            config_name: self.config_name.clone(),
            attempt: self.attempt,
            specs_done: self.specs_done,
            rounds_completed: self.rounds_completed() + rounds,
            give_ups: self.give_ups.clone(),
            assertions,
        };
        if let Err(e) = snapshot.save_atomic(&path) {
            self.checkpoint_error = Some(e);
        }
    }
}

/// Verifies `program` under `config` with restart supervision: escalated
/// retries recycle the partial proof of every failed attempt, and (when
/// configured) round-boundary checkpoints make the run crash-safe.
///
/// A resumed run (via [`SuperviseConfig::resume`]) whose snapshot does
/// not match `program` refuses to start and reports a give-up — it never
/// silently verifies the wrong program against recycled state.
pub fn supervised_verify(
    pool: &mut TermPool,
    program: &Program,
    config: &VerifierConfig,
    scfg: &SuperviseConfig,
) -> SupervisedOutcome {
    let start = Instant::now();
    let mut state = SupervisorState {
        program_hash: crate::snapshot::program_fingerprint(pool, program),
        config_name: config.name.clone(),
        checkpoint: scfg.checkpoint.clone(),
        checkpoint_error: None,
        interrupt: scfg.interrupt.clone(),
        attempt: 0,
        specs_done: 0,
        base_rounds: 0,
        stats: RunStats::default(),
        recycled: Vec::new(),
        recycled_set: HashSet::new(),
        give_ups: Vec::new(),
        all_harvest: Vec::new(),
        all_harvest_set: HashSet::new(),
        spec_certs: Vec::new(),
    };
    let mut attempts: Vec<AttemptReport> = Vec::new();

    if let Some(snap) = &scfg.resume {
        if snap.program_hash != state.program_hash {
            return SupervisedOutcome {
                outcome: Outcome {
                    verdict: Verdict::gave_up(
                        Category::Cancelled,
                        format!(
                            "snapshot program hash {:016x} does not match this program \
                             ({:016x}); refusing to resume",
                            snap.program_hash, state.program_hash
                        ),
                    ),
                    stats: RunStats::default(),
                    certificate: None,
                },
                attempts,
                give_up_history: Vec::new(),
                recycled_assertions: 0,
                rounds_skipped: 0,
                interrupted: false,
                checkpoint_error: None,
                harvest: Vec::new(),
            };
        }
        state.attempt = snap.attempt;
        state.specs_done = snap.specs_done;
        // Specs proven before the crash have no recorded certificate.
        state.spec_certs = vec![None; snap.specs_done];
        state.base_rounds = snap.rounds_completed;
        for g in &snap.give_ups {
            push_give_up_deduped(&mut state.give_ups, g.clone());
        }
        for t in &snap.assertions {
            if state.recycled_set.insert(t.clone()) {
                state.recycled.push(t.clone());
            }
        }
    }

    let specs = specs_of(program);
    let previous_governor = pool.governor().clone();
    let last_attempt = scfg.policy.max_retries.max(state.attempt);
    let mut interrupted = false;

    let verdict = loop {
        let attempt = state.attempt;
        let mut attempt_config = config.clone();
        attempt_config.govern = config.govern.escalated(
            attempt,
            scfg.policy.deadline_factor,
            scfg.policy.step_factor,
        );
        attempt_config.max_visited_per_round = config
            .max_visited_per_round
            .saturating_mul(scfg.policy.step_factor.saturating_pow(attempt).max(1) as usize);
        let governor = attempt_config.govern.build();
        pool.set_governor(governor.clone());

        let seeded = state.recycled.len();
        let mut attempt_rounds = 0usize;
        let mut attempt_end: Option<SpecEnd> = None;
        while state.specs_done < specs.len() {
            let spec = specs[state.specs_done];
            let (end, rounds) =
                run_spec(pool, program, spec, &attempt_config, &governor, &mut state);
            attempt_rounds += rounds;
            if let SpecEnd::Proven = end {
                state.specs_done += 1;
                state.clear_recycled();
                // Record the spec transition so a crash right here resumes
                // into the next spec, not back into this one.
                state.write_checkpoint(pool, None);
            } else {
                attempt_end = Some(end);
                break;
            }
        }

        let give_up = match &attempt_end {
            Some(SpecEnd::GaveUp(g)) => Some(g.clone()),
            _ => None,
        };
        if let Some(g) = &give_up {
            push_give_up_deduped(
                &mut state.give_ups,
                AttributedGiveUp::new(&config.name, g.clone()),
            );
        }
        attempts.push(AttemptReport {
            attempt,
            rounds: attempt_rounds,
            seeded,
            give_up: give_up.clone(),
        });

        match attempt_end {
            None => break Verdict::Correct,
            Some(SpecEnd::Proven) => unreachable!("proven specs advance the loop"),
            Some(SpecEnd::Bug(trace)) => break Verdict::Incorrect { trace },
            Some(SpecEnd::Interrupted) => {
                interrupted = true;
                break Verdict::gave_up(
                    Category::Cancelled,
                    "interrupted at a round boundary; checkpoint written",
                );
            }
            Some(SpecEnd::GaveUp(g)) => {
                if attempt < last_attempt && !state.interrupted() {
                    // Escalate and restart; the recycled pool already
                    // holds this attempt's harvest.
                    state.attempt += 1;
                } else {
                    break Verdict::GaveUp(GiveUp::new(
                        g.category,
                        format!(
                            "gave up after {} attempt(s) (last cause: {})",
                            attempts.len(),
                            g.reason
                        ),
                    ));
                }
            }
        }
    };

    pool.set_governor(previous_governor);
    let certificate = if config.certify {
        // A bug ends the run inside the spec `specs_done` points at.
        let failed_spec = specs.get(state.specs_done).copied();
        let spec_certs = std::mem::take(&mut state.spec_certs);
        assemble_certificate(pool, program, &verdict, spec_certs, failed_spec)
    } else {
        None
    };
    let final_rounds = attempts.last().map_or(0, |a| a.rounds);
    let rounds_skipped = state.rounds_completed().saturating_sub(final_rounds);
    let recycled_assertions = attempts.last().map_or(0, |a| a.seeded);
    let base_rounds = state.base_rounds;
    let mut stats = state.stats;
    stats.rounds += base_rounds;
    stats.time = start.elapsed();
    SupervisedOutcome {
        outcome: Outcome {
            verdict,
            stats,
            certificate,
        },
        attempts,
        give_up_history: state.give_ups,
        recycled_assertions,
        rounds_skipped,
        interrupted,
        checkpoint_error: state.checkpoint_error,
        harvest: state.all_harvest,
    }
}

/// Runs one spec phase of one attempt: seeds the proof with the recycled
/// assertions, drives rounds with round-boundary checkpoints and
/// interrupt checks, and harvests the proof whenever the phase cannot
/// conclude.
fn run_spec(
    pool: &mut TermPool,
    program: &Program,
    spec: Spec,
    config: &VerifierConfig,
    governor: &ResourceGovernor,
    state: &mut SupervisorState,
) -> (SpecEnd, usize) {
    let mut engine = Engine::new(pool, program, spec, config);
    let mut proof = ProofAutomaton::new();
    for t in &state.recycled {
        let id = pool.import(t);
        proof.add_assertion(id);
    }
    let end = loop {
        let rounds = engine.stats.rounds;
        if state.interrupted() {
            state.harvest(pool, &proof);
            state.write_checkpoint(pool, Some((&proof, rounds)));
            break SpecEnd::Interrupted;
        }
        if rounds >= config.max_rounds {
            state.harvest(pool, &proof);
            break SpecEnd::GaveUp(GiveUp::new(
                Category::Rounds,
                format!("no proof within {} refinement rounds", config.max_rounds),
            ));
        }
        if let Err(g) = governor.charge(Category::Rounds) {
            state.harvest(pool, &proof);
            break SpecEnd::GaveUp(g);
        }
        // Contain injected panics at round granularity so the proof built
        // so far stays harvestable.
        let outcome = catch_unwind(AssertUnwindSafe(|| engine.round(pool, program, &mut proof)))
            .unwrap_or_else(|payload| {
                RoundOutcome::GaveUp(
                    governor
                        .give_up()
                        .filter(|g| g.category == Category::InjectedFault)
                        .unwrap_or_else(|| {
                            GiveUp::new(
                                Category::InjectedFault,
                                format!("panic contained: {}", panic_reason(payload.as_ref())),
                            )
                        }),
                )
            });
        match outcome {
            RoundOutcome::Refined => {
                state.write_checkpoint(pool, Some((&proof, engine.stats.rounds)));
            }
            RoundOutcome::Proven => {
                let cert = engine.record_spec_cert(pool, program, &mut proof);
                state.spec_certs.push(cert);
                break SpecEnd::Proven;
            }
            RoundOutcome::Bug(trace) => break SpecEnd::Bug(trace),
            RoundOutcome::GaveUp(g) => {
                state.harvest(pool, &proof);
                break SpecEnd::GaveUp(g);
            }
            RoundOutcome::Cancelled(_) => {
                state.harvest(pool, &proof);
                break SpecEnd::GaveUp(GiveUp::new(Category::Cancelled, "round cancelled"));
            }
        }
    };
    // Every spec end contributes to the run-wide harvest (give-up paths
    // already did through `harvest`; this also covers Proven/Bug ends).
    state.harvest_all_only(pool, &proof);
    state.stats.add_engines([&engine.stats], proof.proof_size());
    (end, engine.stats.rounds)
}

// ---------------------------------------------------------------------------
// Supervised parallel portfolio
// ---------------------------------------------------------------------------

/// Result of [`supervised_parallel_verify`].
#[derive(Clone, Debug)]
pub struct SupervisedParallelOutcome {
    /// The final attempt's portfolio result.
    pub result: ParallelOutcome,
    /// One report per attempt.
    pub attempts: Vec<AttemptReport>,
    /// Give-up history across attempts and engines, deduped by
    /// `(engine, category)`.
    pub give_up_history: Vec<AttributedGiveUp>,
    /// Assertions seeded into the final attempt.
    pub recycled_assertions: usize,
    /// Rounds executed by failed attempts whose assertions were recycled.
    pub rounds_skipped: usize,
}

impl SupervisedParallelOutcome {
    /// Restarts used beyond the first attempt.
    pub fn retries_used(&self) -> usize {
        self.attempts.len().saturating_sub(1)
    }

    /// As [`SupervisedOutcome::recycle_hit_rate`].
    pub fn recycle_hit_rate(&self) -> f64 {
        recycle_hit_rate(self.rounds_skipped, &self.attempts)
    }
}

/// The escalation ladder around [`parallel_verify`]: a pool-wide
/// `GaveUp` harvests every worker's proof (exported by the portfolio's
/// exit path), escalates each member's governor plus the shared
/// wall-clock budget, and reruns with the union of all harvested
/// assertions seeded into every worker.
pub fn supervised_parallel_verify(
    pool: &TermPool,
    program: &Program,
    configs: &[VerifierConfig],
    pcfg: &ParallelConfig,
    policy: &RetryPolicy,
) -> SupervisedParallelOutcome {
    let mut attempts: Vec<AttemptReport> = Vec::new();
    let mut give_ups: Vec<AttributedGiveUp> = Vec::new();
    let mut recycled: Vec<ExportedTerm> = Vec::new();
    let mut recycled_set: HashSet<ExportedTerm> = HashSet::new();
    let mut rounds_skipped = 0usize;

    for attempt in 0..=policy.max_retries {
        let attempt_configs: Vec<VerifierConfig> = configs
            .iter()
            .map(|c| {
                let mut escalated = c.clone();
                escalated.govern =
                    c.govern
                        .escalated(attempt, policy.deadline_factor, policy.step_factor);
                escalated.max_visited_per_round = c
                    .max_visited_per_round
                    .saturating_mul(policy.step_factor.saturating_pow(attempt).max(1) as usize);
                escalated
            })
            .collect();
        let mut attempt_pcfg = pcfg.clone();
        attempt_pcfg.seed = recycled.clone();
        attempt_pcfg.wall_clock_budget = pcfg
            .wall_clock_budget
            .map(|b| b.saturating_mul(policy.deadline_factor.saturating_pow(attempt).max(1)));

        let seeded = recycled.len();
        let result = parallel_verify(pool, program, &attempt_configs, &attempt_pcfg);
        let attempt_rounds = result.outcome.stats.rounds;
        let gave_up = result.outcome.verdict.give_up().cloned();
        // Per-engine causes, deduped by (engine, category) across the
        // whole ladder — an escalated retry tripping over the same root
        // cause is not double-reported.
        for report in &result.engines {
            if let EngineStatus::GaveUp(g) = &report.status {
                push_give_up_deduped(
                    &mut give_ups,
                    AttributedGiveUp::new(&report.name, g.clone()),
                );
            }
        }
        attempts.push(AttemptReport {
            attempt,
            rounds: attempt_rounds,
            seeded,
            give_up: gave_up.clone(),
        });

        if gave_up.is_none() || attempt == policy.max_retries {
            return SupervisedParallelOutcome {
                result,
                attempts,
                give_up_history: give_ups,
                recycled_assertions: seeded,
                rounds_skipped,
            };
        }
        // Recycle the harvest and climb the ladder.
        for t in &result.harvest {
            if recycled_set.insert(t.clone()) {
                recycled.push(t.clone());
            }
        }
        rounds_skipped += attempt_rounds;
    }
    unreachable!("the ladder loop returns on its last attempt");
}
