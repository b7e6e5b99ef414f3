//! Cross-crate integration: the full pipeline (CPL → program → reduction →
//! verifier) on corpus benchmarks, across configurations, checked against
//! ground truth. Every conclusive verdict's certificate must also pass the
//! independent checker.

use seqver::bench_suite::{self, Expected};
use seqver::gemcutter::certify::{check_certificate, CertifyMode};
use seqver::gemcutter::verify::{verify, Verdict, VerifierConfig};
use seqver::smt::TermPool;

/// The fast subset used by integration tests (full corpus runs in the
/// bench harness binaries).
fn fast_corpus() -> Vec<bench_suite::Benchmark> {
    bench_suite::all()
        .into_iter()
        .filter(|b| !b.name.ends_with("-3") && !b.name.ends_with("-4"))
        .collect()
}

/// Verifies the fast corpus under `config` and audits each certificate
/// at `audit`. The `full` tier re-discharges every solver obligation and
/// costs far more than verification, so only `gemcutter_seq` uses it; the
/// `structural` tier still replays every recorded reduction.
fn check_against_ground_truth(config: &VerifierConfig, audit: CertifyMode) {
    for b in fast_corpus() {
        let mut pool = TermPool::new();
        let p = b.compile(&mut pool);
        let outcome = verify(&mut pool, &p, config);
        if !matches!(outcome.verdict, Verdict::GaveUp(_)) {
            let cert = outcome.certificate.as_ref().unwrap_or_else(|| {
                panic!(
                    "{} [{}]: conclusive verdict without a certificate",
                    b.name, config.name
                )
            });
            let report = check_certificate(&mut pool, &p, cert, audit);
            assert!(
                report.ok,
                "{} [{}]: certificate rejected: {}",
                b.name, config.name, report.reason
            );
        }
        match (&outcome.verdict, b.expected) {
            (Verdict::Correct, Expected::Safe) => {}
            (Verdict::Incorrect { .. }, Expected::Unsafe) => {}
            (Verdict::GaveUp(give_up), _) => {
                panic!("{} [{}]: gave up ({give_up})", b.name, config.name)
            }
            (v, e) => panic!(
                "{} [{}]: verdict {v:?} vs expected {e:?}",
                b.name, config.name
            ),
        }
    }
}

#[test]
fn gemcutter_seq_matches_ground_truth() {
    check_against_ground_truth(&VerifierConfig::gemcutter_seq(), CertifyMode::Full);
}

#[test]
fn gemcutter_lockstep_matches_ground_truth() {
    check_against_ground_truth(
        &VerifierConfig::gemcutter_lockstep(),
        CertifyMode::Structural,
    );
}

#[test]
fn gemcutter_random_matches_ground_truth() {
    check_against_ground_truth(
        &VerifierConfig::gemcutter_random(1),
        CertifyMode::Structural,
    );
}

#[test]
fn sleep_only_matches_ground_truth() {
    check_against_ground_truth(&VerifierConfig::sleep_only(), CertifyMode::Structural);
}

#[test]
fn persistent_only_matches_ground_truth() {
    check_against_ground_truth(&VerifierConfig::persistent_only(), CertifyMode::Structural);
}

#[test]
fn automizer_baseline_matches_ground_truth() {
    check_against_ground_truth(&VerifierConfig::automizer(), CertifyMode::Structural);
}

#[test]
fn proof_sensitivity_off_matches_ground_truth() {
    check_against_ground_truth(
        &VerifierConfig::gemcutter_seq().without_proof_sensitivity(),
        CertifyMode::Structural,
    );
}

#[test]
fn buggy_witnesses_replay_concretely() {
    use seqver::program::interp::Interpreter;
    for b in fast_corpus() {
        if b.expected != Expected::Unsafe {
            continue;
        }
        let mut pool = TermPool::new();
        let p = b.compile(&mut pool);
        let outcome = verify(&mut pool, &p, &VerifierConfig::gemcutter_seq());
        let Verdict::Incorrect { trace } = &outcome.verdict else {
            panic!("{}: bug not found", b.name);
        };
        let interp = Interpreter::new(&p).with_havoc_domain(vec![0, 1, 2, 3, 10]);
        assert!(
            interp.replay(&pool, trace),
            "{}: SMT witness does not replay concretely",
            b.name
        );
    }
}
