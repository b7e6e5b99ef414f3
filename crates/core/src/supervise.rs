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
use crate::engine::{run_spec, Engine, RoundHooks, SpecEnd};
use crate::govern::{push_give_up_deduped, AttributedGiveUp, Category, GiveUp};
use crate::portfolio::{parallel_verify, EngineStatus, ParallelConfig, ParallelOutcome};
use crate::proof::ProofAutomaton;
use crate::snapshot::{program_fingerprint, Snapshot};
use crate::verify::{run_session, Outcome, RunStats, Verdict, VerifierConfig};
use program::concurrent::{Program, Spec};
use smt::term::TermPool;
use smt::transfer::ExportedTerm;
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

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

/// The escalation ladder both supervisors climb: the attempt in progress,
/// the assertions recycled into it, and the reports of the attempts so far.
struct Ladder {
    policy: RetryPolicy,
    /// The attempt in progress (resumed runs continue their snapshot's).
    attempt: u32,
    /// The last attempt the ladder may run.
    last: u32,
    attempts: Vec<AttemptReport>,
    give_ups: Vec<AttributedGiveUp>,
    /// Assertions to seed the next proof with, deduped, in discovery order.
    recycled: Vec<ExportedTerm>,
    recycled_set: HashSet<ExportedTerm>,
    /// Rounds carried in from a resumed snapshot.
    base_rounds: usize,
}

impl Ladder {
    fn new(policy: RetryPolicy, first: u32) -> Ladder {
        Ladder {
            policy,
            attempt: first,
            last: policy.max_retries.max(first),
            attempts: Vec::new(),
            give_ups: Vec::new(),
            recycled: Vec::new(),
            recycled_set: HashSet::new(),
            base_rounds: 0,
        }
    }

    /// `config` with its resources stretched for the attempt in progress:
    /// the deadline by `deadline_factor` per rung, step budgets and the
    /// per-round state cap by `step_factor`.
    fn escalate(&self, config: &VerifierConfig) -> VerifierConfig {
        let (policy, attempt) = (&self.policy, self.attempt);
        VerifierConfig {
            govern: config
                .govern
                .escalated(attempt, policy.deadline_factor, policy.step_factor),
            max_visited_per_round: config
                .max_visited_per_round
                .saturating_mul(policy.step_factor.saturating_pow(attempt).max(1) as usize),
            ..config.clone()
        }
    }

    fn recycle<'a>(&mut self, terms: impl IntoIterator<Item = &'a ExportedTerm>) {
        for t in terms {
            if self.recycled_set.insert(t.clone()) {
                self.recycled.push(t.clone());
            }
        }
    }

    /// Records the attempt that just ran, seeded with `seeded` assertions;
    /// returns `true` when the ladder climbs to the next one: the attempt
    /// gave up, `retry` allows another and a rung is left.
    fn climb(
        &mut self,
        rounds: usize,
        seeded: usize,
        give_up: Option<GiveUp>,
        retry: bool,
    ) -> bool {
        let climb = give_up.is_some() && retry && self.attempt < self.last;
        self.attempts.push(AttemptReport {
            attempt: self.attempt,
            rounds,
            seeded,
            give_up,
        });
        self.attempt += u32::from(climb);
        climb
    }

    /// Rounds whose work the final attempt did not repeat: the resumed
    /// snapshot's and every earlier attempt's.
    fn rounds_skipped(&self) -> usize {
        let earlier = self.attempts.iter().rev().skip(1).map(|a| a.rounds);
        self.base_rounds + earlier.sum::<usize>()
    }

    /// Assertions seeded into the final attempt.
    fn recycled_assertions(&self) -> usize {
        self.attempts.last().map_or(0, |a| a.seeded)
    }
}

/// Supervisor state threaded through attempts and specs; also the round
/// hooks of a supervised spec (seeding, checkpoints, interrupts).
struct Supervisor {
    ladder: Ladder,
    program_hash: u64,
    config_name: String,
    checkpoint: Option<PathBuf>,
    checkpoint_error: Option<String>,
    interrupt: Option<Arc<AtomicBool>>,
    /// The run stopped at a round boundary on the interrupt flag.
    stopped: bool,
    specs_done: usize,
    /// Completed rounds: the snapshot's plus this process's finished specs.
    rounds_done: usize,
    /// One recorded certificate per proven spec, in spec order. Specs
    /// proven by a pre-crash process (resumed from a snapshot) have no
    /// recording, so the run's overall certificate degrades to `None`.
    spec_certs: Vec<Option<SpecCert>>,
    /// Everything harvested across all specs and attempts (deduped,
    /// discovery order), returned as [`SupervisedOutcome::harvest`].
    harvest: Vec<ExportedTerm>,
    harvested: HashSet<ExportedTerm>,
}

impl Supervisor {
    fn interrupted(&self) -> bool {
        self.interrupt
            .as_ref()
            .is_some_and(|f| f.load(Ordering::Relaxed))
    }

    /// Writes a round-boundary checkpoint if a path is configured.
    /// `in_flight` is the spec in progress: its proof and the rounds it
    /// ran. Best-effort: failures are recorded, not fatal.
    fn write_checkpoint(&mut self, pool: &TermPool, in_flight: Option<(&ProofAutomaton, usize)>) {
        let Some(path) = &self.checkpoint else {
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
            None => (self.ladder.recycled.clone(), 0),
        };
        let snapshot = Snapshot {
            program_hash: self.program_hash,
            config_name: self.config_name.clone(),
            attempt: self.ladder.attempt,
            specs_done: self.specs_done,
            rounds_completed: self.rounds_done + rounds,
            give_ups: self.ladder.give_ups.clone(),
            assertions,
        };
        if let Err(e) = snapshot.save_atomic(path) {
            self.checkpoint_error = Some(e);
        }
    }

    /// Runs spec `index` of one attempt under `config`; a spec proven
    /// earlier (by a previous attempt or before a resumed crash) is not
    /// re-run. A spec that gives up recycles its proof into the ladder.
    fn attempt_spec(
        &mut self,
        pool: &mut TermPool,
        program: &Program,
        index: usize,
        spec: Spec,
        config: &VerifierConfig,
        stats: &mut RunStats,
    ) -> SpecEnd {
        if index < self.specs_done {
            return SpecEnd {
                verdict: Verdict::Correct,
                winner: None,
                cert: self.spec_certs[index].clone(),
            };
        }
        let members = std::slice::from_ref(config);
        let run = run_spec(pool, program, spec, members, config.max_rounds, self);
        self.rounds_done += run.engines.iter().map(|e| e.rounds).sum::<usize>();
        let exported: Vec<ExportedTerm> = run
            .proof
            .assertions()
            .iter()
            .map(|&id| pool.export(id))
            .collect();
        for t in &exported {
            if self.harvested.insert(t.clone()) {
                self.harvest.push(t.clone());
            }
        }
        match &run.end.verdict {
            Verdict::Correct => {
                self.specs_done += 1;
                self.spec_certs.push(run.end.cert.clone());
                // The next spec starts from an empty proof, exactly like
                // an unsupervised run.
                self.ladder.recycled.clear();
                self.ladder.recycled_set.clear();
                // Record the spec transition so a crash right here resumes
                // into the next spec, not back into this one.
                self.write_checkpoint(pool, None);
            }
            Verdict::GaveUp(_) => self.ladder.recycle(&exported),
            Verdict::Incorrect { .. } => {}
        }
        run.fold(stats)
    }
}

impl RoundHooks for Supervisor {
    fn before_round(
        &mut self,
        pool: &mut TermPool,
        proof: &mut ProofAutomaton,
        rounds: usize,
    ) -> Result<(), GiveUp> {
        if rounds == 0 {
            for t in &self.ladder.recycled {
                let id = pool.import(t);
                proof.add_assertion(id);
            }
        }
        if self.interrupted() {
            self.write_checkpoint(pool, Some((proof, rounds)));
            self.stopped = true;
            return Err(GiveUp::new(
                Category::Cancelled,
                "interrupted at a round boundary; checkpoint written",
            ));
        }
        Ok(())
    }

    fn after_refine(
        &mut self,
        pool: &mut TermPool,
        engine: &mut Engine,
        proof: &ProofAutomaton,
    ) -> Result<(), GiveUp> {
        self.write_checkpoint(pool, Some((proof, engine.stats.rounds)));
        Ok(())
    }
}

/// Verifies `program` under `config` with restart supervision: escalated
/// retries recycle the partial proof of every failed attempt, and (when
/// configured) round-boundary checkpoints make the run crash-safe. Each
/// attempt is one run session; it resumes at the first unproven spec.
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
    let mut sup = Supervisor {
        ladder: Ladder::new(scfg.policy, 0),
        program_hash: program_fingerprint(pool, program),
        config_name: config.name.clone(),
        checkpoint: scfg.checkpoint.clone(),
        checkpoint_error: None,
        interrupt: scfg.interrupt.clone(),
        stopped: false,
        specs_done: 0,
        rounds_done: 0,
        spec_certs: Vec::new(),
        harvest: Vec::new(),
        harvested: HashSet::new(),
    };
    let mut outcome = Outcome {
        verdict: Verdict::Correct,
        stats: RunStats::default(),
        certificate: None,
    };
    if let Some(snap) = &scfg.resume {
        if snap.program_hash != sup.program_hash {
            outcome.verdict = Verdict::gave_up(
                Category::Cancelled,
                format!(
                    "snapshot program hash {:016x} does not match this program \
                     ({:016x}); refusing to resume",
                    snap.program_hash, sup.program_hash
                ),
            );
            return SupervisedOutcome {
                outcome,
                attempts: Vec::new(),
                give_up_history: Vec::new(),
                recycled_assertions: 0,
                rounds_skipped: 0,
                interrupted: false,
                checkpoint_error: None,
                harvest: Vec::new(),
            };
        }
        sup.ladder = Ladder::new(scfg.policy, snap.attempt);
        sup.ladder.base_rounds = snap.rounds_completed;
        sup.ladder.recycle(&snap.assertions);
        for g in &snap.give_ups {
            push_give_up_deduped(&mut sup.ladder.give_ups, g.clone());
        }
        sup.specs_done = snap.specs_done;
        sup.spec_certs = vec![None; snap.specs_done];
        sup.rounds_done = snap.rounds_completed;
    }

    loop {
        let attempt_config = sup.ladder.escalate(config);
        let seeded = sup.ladder.recycled.len();
        let rounds = outcome.stats.rounds;
        outcome = run_session(
            pool,
            program,
            &attempt_config,
            outcome.stats,
            |pool, index, spec, stats| {
                sup.attempt_spec(pool, program, index, spec, &attempt_config, stats)
            },
        )
        .0;
        let give_up = outcome.verdict.give_up().filter(|_| !sup.stopped).cloned();
        if let Some(g) = &give_up {
            let attributed = AttributedGiveUp::new(&config.name, g.clone());
            push_give_up_deduped(&mut sup.ladder.give_ups, attributed);
        }
        let retry = !sup.interrupted();
        if !sup
            .ladder
            .climb(outcome.stats.rounds - rounds, seeded, give_up, retry)
        {
            break;
        }
    }
    if let (Verdict::GaveUp(g), false) = (&outcome.verdict, sup.stopped) {
        outcome.verdict = Verdict::gave_up(
            g.category,
            format!(
                "gave up after {} attempt(s) (last cause: {})",
                sup.ladder.attempts.len(),
                g.reason
            ),
        );
    }
    outcome.stats.rounds += sup.ladder.base_rounds;
    SupervisedOutcome {
        outcome,
        recycled_assertions: sup.ladder.recycled_assertions(),
        rounds_skipped: sup.ladder.rounds_skipped(),
        attempts: sup.ladder.attempts,
        give_up_history: sup.ladder.give_ups,
        interrupted: sup.stopped,
        checkpoint_error: sup.checkpoint_error,
        harvest: sup.harvest,
    }
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
/// exit path), escalates each member's governor, and reruns with the
/// union of all harvested assertions seeded into every worker.
pub fn supervised_parallel_verify(
    pool: &TermPool,
    program: &Program,
    configs: &[VerifierConfig],
    pcfg: &ParallelConfig,
    policy: &RetryPolicy,
) -> SupervisedParallelOutcome {
    let mut ladder = Ladder::new(*policy, 0);
    loop {
        let members: Vec<VerifierConfig> = configs.iter().map(|c| ladder.escalate(c)).collect();
        let seeded = ladder.recycled.len();
        let attempt_pcfg = ParallelConfig {
            seed: ladder.recycled.clone(),
            ..pcfg.clone()
        };
        let result = parallel_verify(pool, program, &members, &attempt_pcfg);
        // Per-engine causes, deduped by (engine, category) across the
        // whole ladder — an escalated retry tripping over the same root
        // cause is not double-reported.
        for report in &result.engines {
            if let EngineStatus::GaveUp(g) = &report.status {
                let attributed = AttributedGiveUp::new(&report.name, g.clone());
                push_give_up_deduped(&mut ladder.give_ups, attributed);
            }
        }
        ladder.recycle(&result.harvest);
        let give_up = result.outcome.verdict.give_up().cloned();
        if !ladder.climb(result.outcome.stats.rounds, seeded, give_up, true) {
            return SupervisedParallelOutcome {
                result,
                recycled_assertions: ladder.recycled_assertions(),
                rounds_skipped: ladder.rounds_skipped(),
                attempts: ladder.attempts,
                give_up_history: ladder.give_ups,
            };
        }
    }
}
