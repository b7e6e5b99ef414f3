//! Determinism of the parallel portfolio's lockstep mode: with
//! `deterministic: true`, [`parallel_verify`] must be a pure function of
//! the program and the engine list — verdict, winner, per-engine round
//! counts and proof sizes identical across repeated runs, regardless of
//! thread scheduling. The determinism contract extends to certificates:
//! the winning certificate must clear the independent checker and its
//! serialized text must be byte-identical across runs.

use seqver::bench_suite;
use seqver::gemcutter::certify::{check_certificate, CertifyMode};
use seqver::gemcutter::portfolio::{parallel_verify, ParallelConfig};
use seqver::gemcutter::verify::{verify, Verdict, VerifierConfig};
use seqver::smt::TermPool;

/// The four-engine portfolio the determinism contract is tested with:
/// three fixed orders plus two seeded random orders.
fn engines() -> Vec<VerifierConfig> {
    vec![
        VerifierConfig::gemcutter_seq(),
        VerifierConfig::gemcutter_lockstep(),
        VerifierConfig::gemcutter_random(1),
        VerifierConfig::gemcutter_random(2),
    ]
}

/// Runs the deterministic parallel portfolio 5 times on `name` and
/// asserts every run reproduces the first one exactly.
fn assert_reproducible(name: &str) {
    let bench = bench_suite::all()
        .into_iter()
        .find(|b| b.name == name)
        .unwrap_or_else(|| panic!("benchmark {name} not in the suite"));
    let configs = engines();
    let pcfg = ParallelConfig {
        deterministic: true,
        ..ParallelConfig::default()
    };

    let mut reference = None;
    for run in 0..5 {
        let mut pool = TermPool::new();
        let p = bench.compile(&mut pool);
        let result = parallel_verify(&pool, &p, &configs, &pcfg);
        let fingerprint = (
            result.outcome.verdict.clone(),
            result.winner.clone(),
            result.engines.clone(),
        );
        match &reference {
            None => reference = Some(fingerprint),
            Some(first) => assert_eq!(*first, fingerprint, "{name}: run {run} diverged from run 0"),
        }
    }
}

#[test]
fn deterministic_parallel_is_reproducible_on_peterson() {
    assert_reproducible("peterson");
}

#[test]
fn deterministic_parallel_is_reproducible_on_dekker() {
    assert_reproducible("dekker");
}

/// In deterministic mode, the winning certificate is part of the
/// reproducibility contract: it must exist, clear the independent
/// checker, and serialize byte-identically across 5 runs.
#[test]
fn deterministic_parallel_certificates_check_and_are_stable() {
    let bench = bench_suite::all()
        .into_iter()
        .find(|b| b.name == "peterson")
        .expect("peterson in the suite");
    let configs = vec![
        VerifierConfig::gemcutter_seq(),
        VerifierConfig::gemcutter_lockstep(),
    ];
    let pcfg = ParallelConfig {
        deterministic: true,
        ..ParallelConfig::default()
    };
    let mut reference: Option<String> = None;
    for run in 0..5 {
        let mut pool = TermPool::new();
        let p = bench.compile(&mut pool);
        let result = parallel_verify(&pool, &p, &configs, &pcfg);
        assert_eq!(result.outcome.verdict, Verdict::Correct, "run {run}");
        let cert = result
            .outcome
            .certificate
            .unwrap_or_else(|| panic!("run {run}: no certificate"));
        let report = check_certificate(&mut pool, &p, &cert, CertifyMode::Full);
        assert!(report.ok, "run {run}: certificate rejected: {report}");
        let text = cert.to_text();
        match &reference {
            None => reference = Some(text),
            Some(first) => assert_eq!(*first, text, "run {run}: certificate text diverged"),
        }
    }
}

/// The seq and lockstep engines each certify their own single-engine
/// runs: different reductions, different proofs — both independently
/// checkable on the same program.
#[test]
fn seq_and_lockstep_certificates_both_check() {
    let bench = bench_suite::all()
        .into_iter()
        .find(|b| b.name == "peterson")
        .expect("peterson in the suite");
    for config in [
        VerifierConfig::gemcutter_seq(),
        VerifierConfig::gemcutter_lockstep(),
    ] {
        let mut pool = TermPool::new();
        let p = bench.compile(&mut pool);
        let outcome = verify(&mut pool, &p, &config);
        assert_eq!(outcome.verdict, Verdict::Correct, "{}", config.name);
        let cert = outcome
            .certificate
            .unwrap_or_else(|| panic!("{}: no certificate", config.name));
        let report = check_certificate(&mut pool, &p, &cert, CertifyMode::Full);
        assert!(report.ok, "{}: certificate rejected: {report}", config.name);
    }
}
