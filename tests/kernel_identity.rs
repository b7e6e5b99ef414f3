//! Traversal identity of the proof-check kernel.
//!
//! The proof-check DFS may be made faster, but never different: it must
//! visit the same states in the same order and issue the same solver
//! queries. This test pins, per program and configuration, every counter
//! that would move if it did not — verdict, trace, rounds, proof size,
//! visited states, Hoare checks, useless-cache skips and probes,
//! query-cache hits and misses — plus an FNV-1a hash of the certificate
//! text, against `tests/golden/kernel_identity.txt`.
//!
//! `sleep_only` runs without membranes, so its sleep sets take
//! commutativity from the oracle alone; `persistent_only` runs without
//! sleep sets and without proof-sensitivity.

use seqver::bench_suite;
use seqver::gemcutter::verify::{verify, Verdict, VerifierConfig};
use seqver::smt::TermPool;
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("golden/kernel_identity.txt");

/// `n` workers each add 1 to `c` `k` times; a checker asserts
/// `c <= bound` once all are done. Safe iff `bound >= n * k`.
fn chain(n: usize, k: usize, bound: usize) -> String {
    format!(
        "var c: int = 0;
var done: int = 0;

thread inc {{
    local i: int = 0;
    while (i < {k}) {{
        c := c + 1;
        i := i + 1;
    }}
    done := done + 1;
}}

thread checker {{
    assume done >= {n};
    assert c <= {bound};
}}

spawn inc * {n};
spawn checker;
"
    )
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One golden line: the program, the configuration and every counter.
fn line(name: &str, source: &str, config: &VerifierConfig) -> String {
    let mut pool = TermPool::new();
    let program = seqver::cpl::compile(source, &mut pool).expect("program compiles");
    let outcome = verify(&mut pool, &program, config);
    let verdict = match &outcome.verdict {
        Verdict::Correct => "correct".to_owned(),
        Verdict::Incorrect { trace } => {
            let letters: Vec<String> = trace.iter().map(|l| l.0.to_string()).collect();
            format!("incorrect[{}]", letters.join(","))
        }
        Verdict::GaveUp(g) => format!("gave-up[{}]", g.category),
    };
    let s = &outcome.stats;
    let cert = outcome
        .certificate
        .as_ref()
        .map_or(0, |c| fnv1a(&c.to_text()));
    format!(
        "{name} {} {verdict} rounds={} proof_size={} visited={} hoare_checks={} \
         cache_skips={} useless_probes={} qcache_hits={} qcache_misses={} cert={cert:016x}",
        config.name,
        s.rounds,
        s.proof_size,
        s.visited_states,
        s.hoare_checks,
        s.cache_skips,
        s.useless_probes,
        s.qcache_hits,
        s.qcache_misses,
    )
}

/// Runs the corpus (and `extra`) under `config` and compares with the
/// golden lines of that configuration.
fn check(config: VerifierConfig, extra: &[(&str, String)]) {
    let mut actual = String::new();
    for b in bench_suite::all() {
        writeln!(actual, "{}", line(&b.name, &b.source, &config)).unwrap();
    }
    for (name, source) in extra {
        writeln!(actual, "{}", line(name, source, &config)).unwrap();
    }
    let golden: Vec<&str> = GOLDEN
        .lines()
        .filter(|l| l.split(' ').nth(1) == Some(config.name.as_str()))
        .collect();
    let mismatches: Vec<String> = golden
        .iter()
        .zip(actual.lines())
        .filter(|(g, a)| *g != a)
        .map(|(g, a)| format!("  golden: {g}\n  actual: {a}"))
        .collect();
    assert!(
        mismatches.is_empty() && golden.len() == actual.lines().count(),
        "kernel counters of {} differ from the golden file:\n{}\nfull output:\n{actual}",
        config.name,
        mismatches.join("\n")
    );
}

#[test]
fn gemcutter_seq_counters_match_golden() {
    check(
        VerifierConfig::gemcutter_seq(),
        &[
            ("chain-3x4", chain(3, 4, 12)),
            ("chain-4x3-bug", chain(4, 3, 11)),
        ],
    );
}

#[test]
fn sleep_only_counters_match_golden() {
    check(VerifierConfig::sleep_only(), &[]);
}

#[test]
fn persistent_only_counters_match_golden() {
    check(VerifierConfig::persistent_only(), &[]);
}
