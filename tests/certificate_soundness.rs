//! Certificate soundness battery: an unmutated certificate always passes
//! the independent checker, and every single-point mutation of a valid
//! certificate — flipped bound, dropped obligation, weakened or permuted
//! annotation, re-homed assertion, truncated trace, foreign fingerprint —
//! is rejected in `Full` mode.
//!
//! Verification runs once per fixture program (the expensive part); each
//! property case then re-compiles the program into a fresh pool, parses
//! the certificate text, mutates it, and re-checks — exactly the
//! store→serve path a mutated store record would take.
//!
//! The last three tests pin the steps the checker takes before DPLL on a
//! Hoare obligation: the frame rule, the fallback from a sliced to the
//! full precondition, and the call-local memo.

use proptest::prelude::*;
use seqver::bench_suite::{self, Expected};
use seqver::gemcutter::certify::{
    check_certificate, CertMutation, Certificate, CertifyMode, SpecCert,
};
use seqver::gemcutter::proof::ProofAutomaton;
use seqver::gemcutter::verify::{verify, Verdict, VerifierConfig};
use seqver::program::concurrent::{LetterId, Program};
use seqver::smt::linear::Rel;
use seqver::smt::transfer::ExportedTerm;
use seqver::smt::TermPool;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::OnceLock;

/// One verified fixture: CPL source plus its certificate, serialized.
struct Fixture {
    source: String,
    cert_text: String,
}

fn compile(source: &str, pool: &mut TermPool) -> Program {
    seqver::cpl::compile(source, pool).expect("fixture source compiles")
}

/// Verifies the first few small corpus programs of `expected` ground
/// truth under the default (certifying) sequential configuration and
/// returns their serialized certificates.
fn fixtures(expected: Expected, want: usize) -> Vec<Fixture> {
    let mut out = Vec::new();
    for b in bench_suite::all() {
        if b.expected != expected || b.name.ends_with("-3") || b.name.ends_with("-4") {
            continue;
        }
        let mut pool = TermPool::new();
        let program = compile(&b.source, &mut pool);
        let outcome = verify(&mut pool, &program, &VerifierConfig::gemcutter_seq());
        match (&outcome.verdict, expected) {
            (Verdict::Correct, Expected::Safe) | (Verdict::Incorrect { .. }, Expected::Unsafe) => {}
            other => panic!("{}: unexpected verdict {other:?}", b.name),
        }
        let cert = outcome
            .certificate
            .unwrap_or_else(|| panic!("{}: conclusive verdict without a certificate", b.name));
        let report = check_certificate(&mut pool, &program, &cert, CertifyMode::Full);
        assert!(
            report.ok,
            "{}: fresh certificate rejected: {report}",
            b.name
        );
        out.push(Fixture {
            source: b.source.clone(),
            cert_text: cert.to_text(),
        });
        if out.len() == want {
            break;
        }
    }
    assert_eq!(out.len(), want, "not enough {expected:?} corpus fixtures");
    out
}

fn safe_fixtures() -> &'static [Fixture] {
    static FIX: OnceLock<Vec<Fixture>> = OnceLock::new();
    FIX.get_or_init(|| fixtures(Expected::Safe, 2))
}

fn unsafe_fixtures() -> &'static [Fixture] {
    static FIX: OnceLock<Vec<Fixture>> = OnceLock::new();
    FIX.get_or_init(|| fixtures(Expected::Unsafe, 2))
}

/// Parses a fixture back and re-checks it in a fresh pool, optionally
/// after mutating. Returns `None` when the mutation had no applicable
/// site (the certificate is untouched then).
fn check_mutated(
    fixture: &Fixture,
    mutation: Option<CertMutation>,
    salt: u64,
    mode: CertifyMode,
) -> Option<bool> {
    let mut pool = TermPool::new();
    let program = compile(&fixture.source, &mut pool);
    let mut cert = Certificate::parse(&fixture.cert_text).expect("fixture certificate parses");
    if let Some(m) = mutation {
        if !m.apply(&mut cert, salt) {
            return None;
        }
    }
    Some(check_certificate(&mut pool, &program, &cert, mode).ok)
}

#[test]
fn unmutated_certificates_pass_in_every_mode() {
    for fixture in safe_fixtures().iter().chain(unsafe_fixtures()) {
        for mode in [
            CertifyMode::Structural,
            CertifyMode::Sample,
            CertifyMode::Full,
        ] {
            assert_eq!(
                check_mutated(fixture, None, 0, mode),
                Some(true),
                "clean certificate rejected in {} mode",
                mode.name()
            );
        }
    }
}

#[test]
fn certificate_text_roundtrips_bit_identically() {
    for fixture in safe_fixtures().iter().chain(unsafe_fixtures()) {
        let cert = Certificate::parse(&fixture.cert_text).expect("parses");
        assert_eq!(cert.to_text(), fixture.cert_text);
    }
}

/// The mutations applicable to a CORRECT (proof) certificate.
const PROOF_MUTATIONS: [CertMutation; 6] = [
    CertMutation::WeakenAnnotation,
    CertMutation::DropObligation,
    CertMutation::RehomeAssertion,
    CertMutation::FlipBound,
    CertMutation::PermuteAnnotation,
    CertMutation::ForeignFingerprint,
];

/// The mutations applicable to a BUG (trace) certificate.
const TRACE_MUTATIONS: [CertMutation; 2] = [
    CertMutation::TruncateTrace,
    CertMutation::ForeignFingerprint,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_proof_mutation_is_rejected(
        which in 0usize..2,
        mutation in proptest::sample::select(PROOF_MUTATIONS.to_vec()),
        salt in any::<u64>(),
    ) {
        let fixture = &safe_fixtures()[which];
        if let Some(ok) = check_mutated(fixture, Some(mutation), salt, CertifyMode::Full) {
            prop_assert!(!ok, "mutation {} (salt {salt}) survived the checker", mutation.name());
        }
    }

    #[test]
    fn every_trace_mutation_is_rejected(
        which in 0usize..2,
        mutation in proptest::sample::select(TRACE_MUTATIONS.to_vec()),
        salt in any::<u64>(),
    ) {
        let fixture = &unsafe_fixtures()[which];
        if let Some(ok) = check_mutated(fixture, Some(mutation), salt, CertifyMode::Full) {
            prop_assert!(!ok, "mutation {} (salt {salt}) survived the checker", mutation.name());
        }
    }
}

/// Beyond sampling: every injector-supported mutation must also be caught
/// deterministically with salt 0 — the exact configuration the serve-side
/// fault injector uses.
#[test]
fn injector_kinds_are_caught_at_salt_zero() {
    for kind in CertMutation::injector_kinds() {
        let mut caught_somewhere = false;
        for fixture in safe_fixtures().iter().chain(unsafe_fixtures()) {
            // `None` means the kind has no applicable site on this
            // certificate shape.
            if let Some(ok) = check_mutated(fixture, Some(kind), 0, CertifyMode::Full) {
                assert!(!ok, "injector mutation {} survived", kind.name());
                caught_somewhere = true;
            }
        }
        assert!(
            caught_somewhere,
            "injector mutation {} applied nowhere",
            kind.name()
        );
    }
}

/// The variable names an exported assertion mentions.
fn names(t: &ExportedTerm, out: &mut BTreeSet<String>) {
    match t {
        ExportedTerm::True | ExportedTerm::False => {}
        ExportedTerm::Atom { coeffs, .. } => out.extend(coeffs.iter().map(|(n, _)| n.clone())),
        ExportedTerm::And(cs) | ExportedTerm::Or(cs) => cs.iter().for_each(|c| names(c, out)),
    }
}

fn vars_of(t: &ExportedTerm) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    names(t, &mut out);
    out
}

/// Names of the variables letter `l` writes (`accesses = false`) or
/// reads and writes (`accesses = true`).
fn letter_vars(pool: &TermPool, program: &Program, l: u32, accesses: bool) -> BTreeSet<String> {
    let stmt = program.statement(LetterId(l));
    let vars = if accesses {
        stmt.accesses()
    } else {
        stmt.writes().clone()
    };
    vars.iter().map(|&v| pool.var_name(v).to_owned()).collect()
}

/// The Hoare obligations `(f, l, i)`, i.e. `{⋀ann(f)} l {ψᵢ}`, of `sc`.
fn hoare_obligations(sc: &SpecCert) -> Vec<(u32, u32, u32)> {
    sc.edges
        .iter()
        .flat_map(|&(f, l, t)| sc.annotations[t as usize].iter().map(move |&i| (f, l, i)))
        .collect()
}

/// Frame obligations: ψᵢ is a conjunct of the precondition and the letter
/// writes none of its variables.
fn is_frame(pool: &TermPool, program: &Program, sc: &SpecCert, (f, l, i): (u32, u32, u32)) -> bool {
    let writes = letter_vars(pool, program, l, false);
    sc.annotations[f as usize].contains(&i)
        && vars_of(&sc.assertions[i as usize]).is_disjoint(&writes)
}

/// The conjuncts of `ann(f)` connected, through shared variables, to the
/// letter's accesses and ψᵢ's variables: the precondition the checker
/// weakens the obligation to.
fn slice(
    pool: &TermPool,
    program: &Program,
    sc: &SpecCert,
    (f, l, i): (u32, u32, u32),
) -> Vec<u32> {
    let mut reach = letter_vars(pool, program, l, true);
    reach.extend(vars_of(&sc.assertions[i as usize]));
    let ann = &sc.annotations[f as usize];
    let mut kept = vec![false; ann.len()];
    let mut grew = true;
    while grew {
        grew = false;
        for (k, &j) in ann.iter().enumerate() {
            let vars = vars_of(&sc.assertions[j as usize]);
            if !kept[k] && !vars.is_disjoint(&reach) {
                kept[k] = true;
                reach.extend(vars);
                grew = true;
            }
        }
    }
    ann.iter()
        .zip(kept)
        .filter_map(|(&j, k)| k.then_some(j))
        .collect()
}

fn correct_specs(cert: &Certificate) -> &[SpecCert] {
    match cert {
        Certificate::Correct { specs, .. } => specs,
        Certificate::Bug { .. } => panic!("expected a CORRECT certificate"),
    }
}

/// The atom `coeff·name + constant ≤ 0`.
fn atom(name: &str, coeff: i128, constant: i128) -> ExportedTerm {
    ExportedTerm::Atom {
        coeffs: vec![(name.to_owned(), coeff)],
        constant,
        rel: Rel::Le0,
    }
}

/// Verifies `source`, a CORRECT program with one specification, and
/// returns its certificate with the proof emptied, for a test to fill in
/// by hand (see [`proof`]). Sleep sets and persistent sets are off, so the
/// replayed reduction is the whole program.
fn hand_built(source: &str) -> (TermPool, Program, Certificate) {
    let mut pool = TermPool::new();
    let program = compile(source, &mut pool);
    let outcome = verify(&mut pool, &program, &VerifierConfig::gemcutter_seq());
    assert_eq!(outcome.verdict, Verdict::Correct);
    let mut cert = outcome.certificate.expect("certificate");
    let sc = proof(&mut cert);
    sc.use_sleep = false;
    sc.use_persistent = false;
    sc.proof_sensitive = false;
    sc.initial = 0;
    sc.bottoms.clear();
    sc.safes.clear();
    sc.claims.clear();
    sc.ucommute.clear();
    (pool, program, cert)
}

/// The one specification certificate of a CORRECT certificate.
fn proof(cert: &mut Certificate) -> &mut SpecCert {
    match cert {
        Certificate::Correct { specs, .. } if specs.len() == 1 => &mut specs[0],
        _ => panic!("expected a CORRECT certificate with one specification"),
    }
}

/// One thread writes `x`; the postcondition is about `z`, which no letter
/// writes.
const FRAME_SOURCE: &str =
    "var x: int = 0; var z: int = 0; ensures z >= 0; thread t { x := x + 1; } spawn t;";

/// The frame rule settles an obligation without the solver: `{z ≥ 0} l
/// {z ≥ 0}` for a letter that writes no `z` never reaches DPLL.
#[test]
fn frame_obligations_reach_no_solver() {
    let (mut pool, program, mut cert) = hand_built(FRAME_SOURCE);
    let n = program.num_letters() as u32;
    let sc = proof(&mut cert);
    // One node, {z ≥ 0}, kept by every letter and claimed safe.
    sc.assertions = vec![atom("z", -1, 0)];
    sc.annotations = vec![vec![0]];
    sc.edges = (0..n).map(|l| (0, l, 0)).collect();
    sc.safes = vec![0];
    let report = check_certificate(&mut pool, &program, &cert, CertifyMode::Full);
    assert!(report.ok, "certificate rejected: {report}");
    assert_eq!(report.obligations, n as usize + 2, "initial, Hoare, safe");
    assert_eq!(report.solved, 2, "only the initial and safe obligations");
}

/// The frame rule needs ψ in the precondition: `{true} l {z ≥ 5}` mentions
/// no written variable, yet it is invalid and the certificate is rejected.
#[test]
fn a_post_outside_the_precondition_is_no_frame_obligation() {
    let (mut pool, program, mut cert) = hand_built(FRAME_SOURCE);
    let n = program.num_letters() as u32;
    let sc = proof(&mut cert);
    // Node 0 = {} (initial), node 1 = {z ≥ 5}, claimed safe.
    sc.assertions = vec![atom("z", -1, 5)];
    sc.annotations = vec![vec![], vec![0]];
    sc.edges = (0..n).flat_map(|l| [(0, l, 1), (1, l, 1)]).collect();
    sc.safes = vec![1];
    let report = check_certificate(&mut pool, &program, &cert, CertifyMode::Full);
    assert!(!report.ok, "invalid certificate accepted: {report}");
    assert!(
        report.reason.contains("Hoare obligation failed"),
        "{report}"
    );
}

/// Slicing weakens the precondition, so a triple that holds only because
/// `⋀ann(f)` is unsatisfiable through a conjunct that shares no variable
/// with the letter or ψ fails once sliced. The checker then re-checks it
/// from the full precondition and accepts the certificate.
#[test]
fn unsatisfiable_disconnected_precondition_passes_through_the_fallback() {
    // `z = 0 ∧ z ≥ 1` is unsatisfiable, so every initial assertion holds.
    let (mut pool, program, mut cert) = hand_built(
        "var x: int = 0; var z: int = 0; requires z >= 1; ensures x >= 100; \
         thread t { x := x + 1; } spawn t;",
    );
    let x = pool.var("x");
    let l = (0..program.num_letters() as u32)
        .find(|&l| program.statement(LetterId(l)).writes().contains(&x))
        .expect("the letter writing x");
    let sc = proof(&mut cert);
    // Node 0 = {z ≥ 1, z ≤ 0} (initial, claimed ⊥); node 1 = {x ≥ 100}.
    sc.assertions = vec![atom("z", -1, 1), atom("z", 1, 0), atom("x", -1, 100)];
    sc.annotations = vec![vec![0, 1], vec![2]];
    sc.edges = vec![(0, l, 1)];
    sc.bottoms = vec![0];
    // Sliced to `true`, the obligation `{true} x := x + 1 {x ≥ 100}` fails:
    // the accepted certificate needed the full precondition.
    assert_eq!(slice(&pool, &program, sc, (0, l, 2)), Vec::<u32>::new());
    let report = check_certificate(&mut pool, &program, &cert, CertifyMode::Full);
    assert!(report.ok, "certificate rejected: {report}");
    assert_eq!(report.obligations, 4, "two initial, one Hoare, one bottom");
    assert_eq!(report.solved, 4);
}

/// Whether some obligation `{⋀ann(f)} l {ψᵢ}` of `sc` is invalid, decided
/// directly from the full precondition, without frame rule, slicing or
/// memo.
fn breaks_an_obligation(source: &str, sc: &SpecCert, i: u32) -> bool {
    let mut pool = TermPool::new();
    let program = compile(source, &mut pool);
    let mut automaton = ProofAutomaton::new();
    let post = pool.import(&sc.assertions[i as usize]);
    hoare_obligations(sc)
        .into_iter()
        .filter(|&(_, _, j)| j == i)
        .any(|(f, l, _)| {
            let parts: Vec<_> = sc.annotations[f as usize]
                .iter()
                .map(|&j| pool.import(&sc.assertions[j as usize]))
                .collect();
            let pre = pool.and(parts);
            !automaton.hoare_triple_valid(&mut pool, &program, pre, LetterId(l), post)
        })
}

/// The memo proves a repeated obligation once, keyed by the exact terms:
/// a flipped bound on a ψ whose obligation recurs under the same slice is
/// a different ψ, so a mutated certificate that breaks one of its
/// obligations is still rejected. (Some flips land inside the proof's
/// slack and leave every obligation valid; those are skipped.)
#[test]
fn flip_bound_on_a_recurring_obligation_is_rejected() {
    let b = bench_suite::all()
        .into_iter()
        .find(|b| b.name == "counter-safe-2")
        .expect("corpus program");
    let mut pool = TermPool::new();
    let program = compile(&b.source, &mut pool);
    let outcome = verify(&mut pool, &program, &VerifierConfig::gemcutter_seq());
    let cert = outcome.certificate.expect("certificate");
    // (spec, ψ index) pairs with a non-frame obligation that recurs under
    // the same letter and slice.
    let mut recurring: HashSet<(usize, usize)> = HashSet::new();
    for (k, sc) in correct_specs(&cert).iter().enumerate() {
        let mut seen: HashMap<(u32, u32, Vec<u32>), usize> = HashMap::new();
        for o in hoare_obligations(sc) {
            if !is_frame(&pool, &program, sc, o) {
                *seen
                    .entry((o.1, o.2, slice(&pool, &program, sc, o)))
                    .or_default() += 1;
            }
        }
        recurring.extend(
            seen.into_iter()
                .filter(|&(_, n)| n > 1)
                .map(|((_, i, _), _)| (k, i as usize)),
        );
    }
    assert!(
        !recurring.is_empty(),
        "no obligation recurs under one slice"
    );
    let text = cert.to_text();
    let mut exercised = 0;
    for salt in 0..64u64 {
        let mut mutated = cert.clone();
        if !CertMutation::FlipBound.apply(&mut mutated, salt) {
            continue;
        }
        let k = salt as usize % correct_specs(&cert).len();
        let (before, after) = (&correct_specs(&cert)[k], &correct_specs(&mutated)[k]);
        let flipped = (0..before.assertions.len())
            .find(|&i| before.assertions[i] != after.assertions[i])
            .expect("flip-bound changed an assertion");
        if !recurring.contains(&(k, flipped))
            || !breaks_an_obligation(&b.source, after, flipped as u32)
        {
            continue;
        }
        let mut fresh = TermPool::new();
        let program = compile(&b.source, &mut fresh);
        let report = check_certificate(&mut fresh, &program, &mutated, CertifyMode::Full);
        assert!(
            !report.ok,
            "flip-bound (salt {salt}) on a recurring ψ survived"
        );
        exercised += 1;
    }
    assert!(exercised > 0, "no flip-bound landed on a recurring ψ");
    // The clean certificate, with the same recurrences, passes.
    let mut fresh = TermPool::new();
    let program = compile(&b.source, &mut fresh);
    let clean = Certificate::parse(&text).expect("parses");
    assert!(check_certificate(&mut fresh, &program, &clean, CertifyMode::Full).ok);
}
