//! **GemCutter-style verifier**: concurrent program verification by sound
//! sequentialization (Farzan, Klumpp, Podelski — PLDI 2022).
//!
//! The verifier runs trace abstraction refinement (§7): each round checks
//! whether the current Floyd/Hoare proof candidate covers a *sound
//! reduction* of the program, computed **on the fly** with sleep sets,
//! weakly persistent membranes and (optionally) proof-sensitive
//! commutativity — Algorithm 2 of the paper. An uncovered trace is either
//! a real bug (feasible) or yields new assertions via unsat-core-sliced
//! strongest-postcondition interpolation.
//!
//! * [`proof`] — Floyd/Hoare proof automata over a growing assertion pool;
//! * [`interpolate`] — trace feasibility + sequence interpolation;
//! * [`check`] — the on-the-fly proof check (Algorithm 2), with the §7.2
//!   cross-round useless-state cache;
//! * [`mod@verify`] — the refinement loop, configuration and statistics;
//! * [`govern`] — resource governance (deadlines, step budgets,
//!   cancellation, deterministic fault injection);
//! * [`portfolio`] — the multi-preference-order portfolio of §8;
//! * [`supervise`] — restart supervision: proof-recycling escalation
//!   ladders and crash-safe checkpoint/resume;
//! * [`snapshot`] — the versioned on-disk checkpoint format.
//!
//! # Example
//!
//! ```no_run
//! use gemcutter::verify::{verify, Verdict, VerifierConfig};
//! # fn demo(pool: &mut smt::TermPool, program: &program::Program) {
//! let config = VerifierConfig::gemcutter_seq();
//! let outcome = verify(pool, program, &config);
//! match outcome.verdict {
//!     Verdict::Correct => println!("proved in {} rounds", outcome.stats.rounds),
//!     Verdict::Incorrect { .. } => println!("bug found"),
//!     Verdict::GaveUp(g) => println!("gave up: {g}"),
//! }
//! # }
//! ```

pub mod certify;
pub mod check;
pub mod engine;
pub mod govern;
pub mod interpolate;
pub mod portfolio;
pub mod proof;
pub mod snapshot;
pub mod supervise;
pub mod trace;
pub mod verify;

pub use certify::{
    check_certificate, CertMutation, CertSpec, Certificate, CertifyMode, CertifyReport, SpecCert,
};
pub use govern::{
    push_give_up_deduped, AttributedGiveUp, Category, FaultKind, FaultPlan, GiveUp, GovernorConfig,
    ResourceGovernor,
};
pub use portfolio::{
    adaptive_verify, default_portfolio, parallel_verify, portfolio_verify, EngineReport,
    EngineStatus, ParallelConfig, ParallelOutcome, PortfolioOutcome,
};
pub use snapshot::{program_fingerprint, Snapshot};
pub use supervise::{
    supervised_parallel_verify, supervised_verify, AttemptReport, RetryPolicy, SuperviseConfig,
    SupervisedOutcome, SupervisedParallelOutcome,
};
pub use verify::{specs_of, verify, OrderSpec, Outcome, RunStats, Verdict, VerifierConfig};
