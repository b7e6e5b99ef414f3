//! The closed-loop workloads `corpus` and `chain`: one client, the next op
//! starts when the previous one returns.
//!
//! An op is a fresh `TermPool`, `cpl::compile`, `verify` with
//! `VerifierConfig::gemcutter_seq()` and, on `corpus`, the `full`
//! certificate audit — the library calls behind `seqver verify
//! [--certify full]`. The run is made of whole passes over the inputs,
//! each in a fresh seeded order, and stops before a pass that would end
//! past `--seconds`; whole passes keep the mix, and with it every
//! figure, independent of the seed.

use crate::inputs::Input;
use crate::report::Report;
use crate::rng::Rng;
use crate::stats::{fastest, median, peak_rss_mb, percentile, ratio, sorted, tail};
use crate::traced::{traced_verify, Layers, RunKey, Tracer};
use gemcutter::certify::{check_certificate, CertifyMode, CertifyReport};
use gemcutter::program_fingerprint;
use gemcutter::verify::{verify, Outcome, Verdict, VerifierConfig};
use smt::TermPool;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::time::Instant;

/// A set-up batch runs before the first op and then between ops, once
/// this much time has passed since the last batch, so that the batches
/// sample the whole run and not one moment of the host's load. `setup_s`
/// is the fastest batch: set-up takes milliseconds, so, as for the ops
/// of [`Closed::fastest_repeat`], the fastest sample is the steadiest.
const SETUP_EVERY_S: f64 = 1.0;
/// A batch repeats set-up until it has lasted this long, and counts as
/// one sample: its time over its set-ups. A single set-up takes about a
/// millisecond, too short to time steadily on a shared host.
const SETUP_BATCH_S: f64 = 0.1;

/// A closed-loop workload.
pub struct Closed {
    pub name: &'static str,
    pub make_inputs: fn() -> Vec<Input>,
    /// Run the `full` certificate audit after each verification.
    pub audit: bool,
    /// Time a program by its fastest op over the passes, not its median.
    /// Right for ops of milliseconds: the host's slow phases last seconds
    /// to minutes, so some repeat of a short op runs in a quiet moment,
    /// while the median follows the share of the run that was slow. An
    /// op of seconds spans several phases itself, and the fastest of a
    /// few such ops is noisier than their median.
    pub fastest_repeat: bool,
}

/// The deterministic counters of one op, compared across repeats of the
/// same program and digested for cross-run comparison.
type Counts = (usize, usize, usize, usize, u64, u64);

fn counts_of(outcome: &Outcome) -> Counts {
    let s = &outcome.stats;
    (
        s.rounds,
        s.visited_states,
        s.hoare_checks,
        s.proof_size,
        s.qcache_hits,
        s.qcache_misses,
    )
}

fn digest(value: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// Checks a verdict (and its audit) against the ground truth. `Err` is a
/// wrong verdict, which aborts the run; `Ok(Some(why))` is a failed op.
fn judge(
    input: &Input,
    outcome: &Outcome,
    audit: Option<Option<CertifyReport>>,
) -> Result<Option<String>, String> {
    match &outcome.verdict {
        Verdict::Correct if !input.safe => {
            return Err(format!(
                "wrong verdict: `{}` is unsafe but was proved",
                input.name
            ))
        }
        Verdict::Incorrect { .. } if input.safe => {
            return Err(format!(
                "wrong verdict: `{}` is safe but got a bug",
                input.name
            ))
        }
        Verdict::GaveUp(g) => return Ok(Some(format!("`{}` gave up: {g}", input.name))),
        _ => {}
    }
    Ok(match audit {
        None => None,
        Some(None) => Some(format!(
            "`{}`: conclusive verdict without certificate",
            input.name
        )),
        Some(Some(report)) if !report.ok => {
            Some(format!("`{}`: certificate rejected: {report}", input.name))
        }
        Some(Some(_)) => None,
    })
}

/// One op as a user runs it; returns the outcome, audit and seconds.
fn plain_op(
    input: &Input,
    audit: bool,
) -> Result<(Outcome, Option<Option<CertifyReport>>, f64), String> {
    let start = Instant::now();
    let mut pool = TermPool::new();
    let program = cpl::compile(&input.source, &mut pool)
        .map_err(|e| format!("`{}` does not compile: {e}", input.name))?;
    let outcome = verify(&mut pool, &program, &VerifierConfig::gemcutter_seq());
    let report = audit.then(|| {
        outcome
            .certificate
            .as_ref()
            .map(|c| check_certificate(&mut pool, &program, c, CertifyMode::Full))
    });
    let seconds = start.elapsed().as_secs_f64();
    Ok((outcome, report, seconds))
}

/// The same op through the round-by-round runner, inside spans.
fn traced_op(
    tr: &mut Tracer,
    layers: &mut Layers,
    input: &Input,
    audit: bool,
) -> Result<(Outcome, Option<Option<CertifyReport>>, f64), String> {
    let start = Instant::now();
    let root = tr.begin("op");
    let mut pool = TermPool::new();
    let s = tr.begin("cpl.compile");
    let program = cpl::compile(&input.source, &mut pool)
        .map_err(|e| format!("`{}` does not compile: {e}", input.name))?;
    tr.end(s);
    layers.compile_calls += 1;
    layers.letters += program.num_letters();
    let verify_start = Instant::now();
    let outcome = traced_verify(
        tr,
        &mut pool,
        &program,
        &VerifierConfig::gemcutter_seq(),
        layers,
    );
    layers.verify_s += verify_start.elapsed().as_secs_f64();
    let report = audit.then(|| {
        outcome.certificate.as_ref().map(|c| {
            let s = tr.begin("certify.audit");
            let report = check_certificate(&mut pool, &program, c, CertifyMode::Full);
            tr.end(s);
            layers.obligations += report.obligations;
            layers.rechecked += report.checked;
            report
        })
    });
    tr.end(root);
    Ok((outcome, report, start.elapsed().as_secs_f64()))
}

/// Builds the inputs and fingerprints every program: the set-up whose
/// time is `setup_s`.
fn set_up(workload: &Closed) -> Result<(Vec<Input>, Vec<u64>), String> {
    let inputs = (workload.make_inputs)();
    let mut fingerprints = Vec::with_capacity(inputs.len());
    for input in &inputs {
        let mut pool = TermPool::new();
        let program = cpl::compile(&input.source, &mut pool)
            .map_err(|e| format!("`{}` does not compile: {e}", input.name))?;
        fingerprints.push(program_fingerprint(&pool, &program));
    }
    Ok((inputs, fingerprints))
}

pub fn run(
    workload: &Closed,
    seed: u64,
    seconds: f64,
    traced: bool,
    out_dir: &Path,
) -> Result<Report, String> {
    let (inputs, fingerprints) = set_up(workload)?;
    let mut setup_times = Vec::new();
    let mut setups = 0;
    let mut setup_batch = |times: &mut Vec<f64>| -> Result<Instant, String> {
        let start = Instant::now();
        let mut count = 0;
        while count == 0 || start.elapsed().as_secs_f64() < SETUP_BATCH_S {
            set_up(workload)?;
            count += 1;
        }
        times.push(start.elapsed().as_secs_f64() / count as f64);
        setups += count;
        Ok(Instant::now())
    };
    let mut last_setup = setup_batch(&mut setup_times)?;

    let mut report = if traced {
        Report::with_layers()
    } else {
        Report::new()
    };
    let mut rng = Rng::new(seed);
    let mut tracer = Tracer::new();
    let mut layers = Layers::default();
    let mut per_program_ms: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut traced_s = 0.0;
    let mut plain_s = 0.0;
    let mut counts: BTreeMap<&str, Counts> = BTreeMap::new();
    let mut failures: Vec<String> = Vec::new();
    let mut gaps_ms = Vec::new();
    let mut pass_secs: Vec<f64> = Vec::new();
    let start = Instant::now();
    let mut returned = start;
    loop {
        let pass_start = Instant::now();
        let mut order: Vec<usize> = (0..inputs.len()).collect();
        rng.shuffle(&mut order);
        if pass_secs.is_empty() {
            report.line(format!(
                "inputs: {} programs, first-pass order (name fingerprint):",
                inputs.len()
            ));
            for &i in &order {
                report.line(format!("  {} {:016x}", inputs[i].name, fingerprints[i]));
            }
            let named: Vec<(&str, u64)> = order
                .iter()
                .map(|&i| (inputs[i].name.as_str(), fingerprints[i]))
                .collect();
            report.line(format!("inputs digest: {:016x}", digest(&named)));
        }
        for &i in &order {
            let input = &inputs[i];
            if !traced && last_setup.elapsed().as_secs_f64() >= SETUP_EVERY_S {
                last_setup = setup_batch(&mut setup_times)?;
                returned = last_setup;
            }
            gaps_ms.push(returned.elapsed().as_secs_f64() * 1e3);
            let (outcome, audit, secs) = plain_op(input, workload.audit)?;
            returned = Instant::now();
            report.attempted += 1;
            let failure = judge(input, &outcome, audit)?;
            let failed = failure.is_some();
            if let Some(why) = failure {
                report.failed += 1;
                failures.push(why);
            } else {
                per_program_ms
                    .entry(&input.name)
                    .or_default()
                    .push(secs * 1e3);
            }
            plain_s += secs;
            let c = counts_of(&outcome);
            if *counts.entry(&input.name).or_insert(c) != c {
                return Err(format!(
                    "count determinism violated: `{}` gave {c:?} after {:?}",
                    input.name,
                    counts[input.name.as_str()]
                ));
            }
            if traced {
                tracer.set_op(report.attempted as usize);
                let (t_outcome, t_audit, t_secs) =
                    traced_op(&mut tracer, &mut layers, input, workload.audit)?;
                let t_failure = judge(input, &t_outcome, t_audit)?;
                if t_failure.is_some() != failed {
                    return Err(format!(
                        "traced-run identity violated on `{}`: verify {}, traced runner {}",
                        input.name,
                        if failed { "failed" } else { "succeeded" },
                        t_failure
                            .map_or_else(|| "succeeded".to_owned(), |why| format!("failed: {why}"))
                    ));
                }
                traced_s += t_secs;
                returned = Instant::now();
                let (want, got) = (RunKey::of(&outcome), RunKey::of(&t_outcome));
                if want != got {
                    return Err(format!(
                        "traced-run identity violated on `{}`:\n  verify: {want:?}\n  traced: {got:?}",
                        input.name
                    ));
                }
            }
        }
        pass_secs.push(pass_start.elapsed().as_secs_f64());
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + elapsed / pass_secs.len() as f64 > seconds {
            break;
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    report.line(format!(
        "workload {}: {} passes, {} ops, {elapsed:.3} s",
        workload.name,
        pass_secs.len(),
        report.attempted
    ));
    let pass_list: Vec<String> = pass_secs.iter().map(|s| format!("{s:.3}")).collect();
    report.line(format!("pass seconds: {}", pass_list.join(" ")));
    report.line(format!("counts digest: {:016x}", digest(&counts)));
    for why in &failures {
        report.line(format!("failed: {why}"));
    }
    if traced {
        report.line(format!(
            "traced-run identity: {} ops reproduced verdict, trace, rounds, proof size, visited states, Hoare checks, qcache counts and certificate",
            report.attempted
        ));
    }

    let latencies_ms: Vec<f64> = per_program_ms.values().flatten().copied().collect();
    let ops = latencies_ms.len();
    if traced {
        let path = out_dir.join(format!("spans-{}-seed{seed}.jsonl", workload.name));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        report.line(format!("spans: {}", path.display()));
        layer_metrics(&mut report, &tracer, &layers, ops);
        report.set(
            "trace.overhead_ratio",
            ratio(traced_s, plain_s),
            ops,
            "traced op time / untraced op time",
        );
        report.set(
            "loadgen.offered_rps",
            ratio(report.attempted as f64 * 2.0, elapsed),
            ops,
            "closed loop: ops started per second (untraced + traced)",
        );
        let gaps = sorted(&gaps_ms);
        let what = "closed loop: client time between one op's return and the next call";
        report.set(
            "loadgen.lag_p50_ms",
            percentile(&gaps, 0.5),
            gaps.len(),
            what,
        );
        report.set(
            "loadgen.lag_max_ms",
            gaps.last().copied().unwrap_or(0.0),
            gaps.len(),
            what,
        );
    } else {
        let lat = sorted(&latencies_ms);
        report.set(
            "setup_s",
            fastest(&setup_times),
            setups,
            format!(
                "fastest of {} batches of >= {SETUP_BATCH_S} s, per set-up",
                setup_times.len()
            ),
        );
        // One time per program, so that a pass slowed by other load on
        // the machine does not move the figures.
        let (typical, how): (Vec<f64>, &str) = if workload.fastest_repeat {
            (
                per_program_ms.values().map(|v| fastest(v)).collect(),
                "fastest",
            )
        } else {
            (
                per_program_ms.values().map(|v| median(v)).collect(),
                "median",
            )
        };
        report.set(
            "ops_per_s",
            ratio(typical.len() as f64 * 1e3, typical.iter().sum()),
            ops,
            format!("verdicts per second, at each program's {how} op time"),
        );
        let p50 = median(&typical);
        let what = format!("median over programs of each program's {how} op latency");
        report.set("latency_p50_ms", p50, ops, what.clone());
        report.set("verify_p50_ms", p50, ops, what);
        match tail(&lat) {
            Some((label, value, beyond)) => report.set(
                "latency_tail_ms",
                value,
                ops,
                format!("{label}, {beyond} samples beyond"),
            ),
            None => report.line(format!(
                "latency_tail_ms: omitted, no percentile has 10 samples beyond it ({ops} samples)"
            )),
        }
        report.set(
            "failed_share",
            ratio(report.failed as f64, report.attempted as f64),
            report.attempted as usize,
            "GAVE-UP, error or rejected audit",
        );
        report.set("peak_rss_mb", peak_rss_mb(), 1, "VmHWM of this process");
    }
    Ok(report)
}

/// Per-layer metrics of a traced closed-loop run.
fn layer_metrics(report: &mut Report, tracer: &Tracer, l: &Layers, ops: usize) {
    let times = tracer.self_times();
    let time = |name: &str| times.get(name).map_or(0.0, |t| t.0);
    let visited = l.visited as f64;
    let note = "";
    report.set("cpl.compile_s", time("cpl.compile"), l.compile_calls, note);
    report.set("cpl.calls", l.compile_calls as f64, ops, note);
    report.set("cpl.letters", l.letters as f64, ops, note);
    report.set(
        "reduction.persistent_s",
        time("reduction.persistent"),
        l.persistent_calls,
        note,
    );
    report.set("reduction.calls", l.persistent_calls as f64, ops, note);
    report.set(
        "check.time_s",
        time("check.round"),
        l.rounds,
        "includes Hoare and commutativity",
    );
    report.set("check.rounds", l.rounds as f64, ops, note);
    report.set("check.visited", visited, l.rounds, note);
    report.set(
        "check.us_per_state",
        ratio(time("check.round") * 1e6, visited),
        l.rounds,
        note,
    );
    report.set(
        "check.max_round_visited",
        l.max_round_visited as f64,
        l.rounds,
        note,
    );
    report.set(
        "check.useless_probes",
        l.useless_probes as f64,
        l.rounds,
        note,
    );
    report.set(
        "check.useless_hit_ratio",
        ratio(l.useless_hits as f64, l.useless_probes as f64),
        l.useless_probes,
        "skips / probes",
    );
    report.set(
        "check.useless_len",
        l.useless_len as f64,
        ops,
        "end-of-spec entries, summed",
    );
    report.set("proof.hoare_checks", l.hoare_checks as f64, l.rounds, note);
    report.set(
        "proof.hoare_per_state",
        ratio(l.hoare_checks as f64, visited),
        l.rounds,
        note,
    );
    report.set("proof.memo_hits", l.memo_hits as f64, l.rounds, note);
    report.set(
        "proof.size",
        l.proof_size as f64,
        ops,
        "final proof sizes, summed",
    );
    let commute_total = (l.commute_semantic + l.commute_syntactic + l.commute_cache_hits) as f64;
    report.set(
        "commute.semantic_checks",
        l.commute_semantic as f64,
        ops,
        note,
    );
    report.set(
        "commute.syntactic_hits",
        l.commute_syntactic as f64,
        ops,
        note,
    );
    report.set("commute.cache_hits", l.commute_cache_hits as f64, ops, note);
    report.set(
        "commute.cache_hit_ratio",
        ratio(l.commute_cache_hits as f64, commute_total),
        ops,
        "cache hits / (cache + syntactic + semantic)",
    );
    report.set(
        "interpolate.time_s",
        time("interpolate"),
        l.interp_calls,
        note,
    );
    report.set("interpolate.calls", l.interp_calls as f64, ops, note);
    report.set(
        "interpolate.feasibility_checks",
        l.feasibility_checks as f64,
        ops,
        note,
    );
    report.set(
        "interpolate.sliced_statements",
        l.sliced_statements as f64,
        ops,
        note,
    );
    let lookups = (l.qcache_hits + l.qcache_misses) as f64;
    report.set(
        "qcache.hits",
        l.qcache_hits as f64,
        ops,
        "verification only",
    );
    report.set(
        "qcache.misses",
        l.qcache_misses as f64,
        ops,
        "verification only",
    );
    report.set(
        "qcache.hit_ratio",
        ratio(l.qcache_hits as f64, lookups),
        ops,
        note,
    );
    report.set("qcache.evictions", l.qcache_evictions as f64, ops, note);
    report.set(
        "smt.simplex_pivots",
        l.simplex_pivots as f64,
        ops,
        "verification only",
    );
    report.set(
        "smt.cdcl_conflicts",
        l.cdcl_conflicts as f64,
        ops,
        "verification only",
    );
    report.set(
        "smt.branch_nodes",
        l.branch_nodes as f64,
        ops,
        "verification only",
    );
    report.set(
        "certify.record_s",
        time("certify.record"),
        l.record_calls,
        note,
    );
    report.set("certify.record_calls", l.record_calls as f64, ops, note);
    report.set("certify.dropped", l.dropped as f64, ops, note);
    let audits = times.get("certify.audit").map_or(0, |t| t.1);
    if audits > 0 {
        report.set("certify.audit_s", time("certify.audit"), audits, note);
        report.set("certify.obligations", l.obligations as f64, audits, note);
        report.set("certify.rechecked", l.rechecked as f64, audits, note);
        report.set(
            "certify.audit_per_verify",
            ratio(time("certify.audit"), l.verify_s),
            audits,
            "audit time / traced verify time",
        );
    }
}
