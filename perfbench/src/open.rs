//! The open-loop workload `serve`: seeded Poisson arrivals against an
//! in-process `serve::server::Server` with the default `ServeConfig` and
//! a journaled store.
//!
//! Exactly 80% of requests, at seeded positions, repeat a program
//! pre-stored during set-up (warm hits: compile, fingerprint lookup,
//! sample-tier audit); the rest are fresh `shared_counter` variants whose
//! fingerprint the store has never seen (cold path: verify, journal
//! append, group-commit fsync, durable ack). At most [`CONNECTIONS`] requests are in flight. Each request is
//! timed from when it was due, so a stall also delays the requests behind
//! it, and the generator's own lateness is recorded; a run whose lateness
//! keeps growing is invalid and reports nothing.

use crate::inputs::{serve_fresh, serve_warm_set, Input};
use crate::report::Report;
use crate::rng::Rng;
use crate::stats::{fastest, median, peak_rss_mb, percentile, ratio, sorted, tail};
use crate::traced::{Span, Tracer};
use gemcutter::program_fingerprint;
use gemcutter::verify::{verify, Verdict, VerifierConfig};
use serve::client::Client;
use serve::proto::{Response, Status, VerifyOpts, WireVerdict};
use serve::server::{ServeConfig, Server};
use smt::TermPool;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Offered load in requests per second: about half the rate at which the
/// daemon's backlog starts to grow in a 30 s run on a 2-core machine
/// (see README.md).
const RATE: f64 = 60.0;
/// Share of requests that repeat a pre-stored program.
const WARM_SHARE: f64 = 0.8;
/// Client connections, at most `nproc` (2).
const CONNECTIONS: usize = 2;
/// A request acknowledged later than this after its due time is late.
const LATE_LIMIT_MS: f64 = 50.0;
/// `setup_s` is the fastest of this many set-ups, half of them before the
/// measured window and half after it, so that they sample two moments of
/// the host's load rather than one. A set-up lasts about 0.1 s, shorter
/// than the host's slow phases, so the fastest is the steadiest figure.
const SETUP_REPEATS: usize = 16;
/// The run is invalid when the median lateness of its last quarter is
/// above this and above twice that of its first quarter.
const LAG_GROWTH_MS: f64 = 50.0;

/// One scheduled request.
struct Planned {
    /// Seconds after the start of the measured window.
    due: f64,
    input: Input,
    warm: bool,
}

/// The seeded arrival schedule: a Poisson process at [`RATE`] conditioned
/// on exactly `RATE * seconds` arrivals in the window (sorted uniform
/// arrival times), so every seed offers the same load. Exactly
/// [`WARM_SHARE`] of them, at seeded positions, repeat a seeded pick from
/// the warm set; the rest are the fresh programs in order.
fn schedule(seed: u64, seconds: f64) -> Vec<Planned> {
    let mut rng = Rng::new(seed);
    let warm = serve_warm_set();
    let count = (RATE * seconds).round() as usize;
    let mut dues: Vec<f64> = (0..count).map(|_| rng.unit() * seconds).collect();
    dues.sort_by(f64::total_cmp);
    let warm_count = (WARM_SHARE * count as f64).round() as usize;
    let mut is_warm: Vec<bool> = (0..count).map(|i| i < warm_count).collect();
    rng.shuffle(&mut is_warm);
    let mut salt = 0;
    dues.into_iter()
        .zip(is_warm)
        .map(|(due, is_warm)| {
            if is_warm {
                Planned {
                    due,
                    input: warm[rng.below(warm.len())].clone(),
                    warm: true,
                }
            } else {
                salt += 1;
                Planned {
                    due,
                    input: serve_fresh(salt),
                    warm: false,
                }
            }
        })
        .collect()
}

/// A daemon running on its own thread with a store in `dir`.
struct Daemon {
    addr: String,
    shutdown: Arc<AtomicBool>,
    thread: JoinHandle<Result<(), String>>,
    dir: PathBuf,
}

impl Daemon {
    fn start(dir: PathBuf) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let server = Server::bind(ServeConfig {
            store_path: Some(dir.join("proofs.store")),
            ..ServeConfig::default()
        })?;
        let addr = server.local_addr()?.to_string();
        let shutdown = server.shutdown_flag();
        let thread = std::thread::spawn(move || server.run());
        Ok(Daemon {
            addr,
            shutdown,
            thread,
            dir,
        })
    }

    /// Drains the daemon, waits for its thread and removes the store.
    fn stop(self) -> Result<(), String> {
        self.shutdown.store(true, Ordering::SeqCst);
        let result = self
            .thread
            .join()
            .map_err(|_| "daemon thread panicked".to_owned())?;
        let _ = std::fs::remove_dir_all(&self.dir);
        result
    }
}

fn truth_matches(input: &Input, verdict: &WireVerdict) -> Result<(), String> {
    match verdict {
        WireVerdict::Correct if !input.safe => Err(format!(
            "wrong verdict: `{}` is unsafe but was proved",
            input.name
        )),
        WireVerdict::Incorrect(_) if input.safe => Err(format!(
            "wrong verdict: `{}` is safe but got a bug",
            input.name
        )),
        _ => Ok(()),
    }
}

/// Starts a daemon and stores every warm program through it: the set-up
/// whose time is `setup_s`.
fn set_up(dir: PathBuf, warm: &[Input]) -> Result<Daemon, String> {
    let daemon = Daemon::start(dir)?;
    let mut client = Client::connect(&daemon.addr)?;
    for (i, input) in warm.iter().enumerate() {
        let r =
            client.verify_source(&format!("setup-{i}"), &input.source, VerifyOpts::default())?;
        match &r.verdict {
            Some(v @ (WireVerdict::Correct | WireVerdict::Incorrect(_)))
                if r.status == Some(Status::Ok) && r.durable =>
            {
                truth_matches(input, v)?
            }
            _ => {
                return Err(format!(
                    "set-up could not store `{}`: {}",
                    input.name,
                    r.verdict_line()
                ))
            }
        }
    }
    Ok(daemon)
}

/// The `stats` RPC as a lookup table.
struct Stats(Vec<(String, String)>);

impl Stats {
    /// Asks the daemon over a connection of its own. A connection held
    /// open through the window would sit idle for as long as the window
    /// lasts, and the daemon closes connections idle for `idle_timeout`
    /// (30 s by default).
    fn fetch(addr: &str) -> Result<Stats, String> {
        Ok(Stats(Client::connect(addr)?.stats()?))
    }

    fn get(&self, key: &str) -> f64 {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or(0.0)
    }

    fn delta(&self, before: &Stats, key: &str) -> f64 {
        self.get(key) - before.get(key)
    }
}

/// One finished request, in seconds from the window's start.
struct Done {
    index: usize,
    sent: f64,
    acked: f64,
    response: Result<Response, String>,
}

/// Sends the schedule open-loop over [`CONNECTIONS`] connections.
fn generate(addr: &str, plan: &[Planned], start: Instant) -> Result<Vec<Done>, String> {
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::with_capacity(plan.len()));
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                scope.spawn(|| -> Result<(), String> {
                    let mut client = Client::connect(addr)?;
                    loop {
                        let index = next.fetch_add(1, Ordering::SeqCst);
                        let Some(p) = plan.get(index) else {
                            return Ok(());
                        };
                        let due = start + Duration::from_secs_f64(p.due);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let sent = start.elapsed().as_secs_f64();
                        let response = client.verify_source(
                            &format!("r{index}"),
                            &p.input.source,
                            VerifyOpts::default(),
                        );
                        let acked = start.elapsed().as_secs_f64();
                        if response.is_err() {
                            client = Client::connect(addr)?;
                        }
                        done.lock().expect("results lock").push(Done {
                            index,
                            sent,
                            acked,
                            response,
                        });
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .try_for_each(|w| w.join().map_err(|_| "load generator panicked".to_owned())?)
    })?;
    let mut done = done.into_inner().expect("results lock");
    done.sort_by_key(|d| d.index);
    Ok(done)
}

fn digest(value: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

pub fn run(seed: u64, seconds: f64, traced: bool, out_dir: &Path) -> Result<Report, String> {
    let warm = serve_warm_set();
    let mut setup_times = Vec::new();
    let mut timed_set_up = |i: usize| -> Result<Daemon, String> {
        let start = Instant::now();
        let daemon = set_up(out_dir.join(format!("serve-store-{i}")), &warm)?;
        setup_times.push(start.elapsed().as_secs_f64());
        Ok(daemon)
    };
    for i in 1..SETUP_REPEATS / 2 {
        timed_set_up(i)?.stop()?;
    }
    let daemon = timed_set_up(0)?;
    let plan = schedule(seed, seconds);

    let before = Stats::fetch(&daemon.addr)?;
    let start = Instant::now();
    let done = generate(&daemon.addr, &plan, start)?;
    let window = start.elapsed().as_secs_f64();
    let rpc_start = Instant::now();
    let after = Stats::fetch(&daemon.addr)?;
    let rpc_s = rpc_start.elapsed().as_secs_f64();
    daemon.stop()?;
    for i in SETUP_REPEATS / 2..SETUP_REPEATS {
        timed_set_up(i)?.stop()?;
    }

    let mut report = if traced {
        Report::with_layers()
    } else {
        Report::new()
    };
    report.line(format!(
        "schedule: {} requests at {RATE} req/s over {seconds} s, {CONNECTIONS} connections, warm set:",
        plan.len()
    ));
    let mut named = Vec::new();
    let mut failures = Vec::new();
    let (mut latency_ms, mut fresh_ms, mut lag_ms, mut rtt_ms, mut handler_ms, mut wait_ms) = (
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
    );
    let mut late = 0usize;
    let mut acks = 0usize;
    let mut fresh = 0usize;
    for input in &warm {
        let mut pool = TermPool::new();
        let program = cpl::compile(&input.source, &mut pool).map_err(|e| e.to_string())?;
        report.line(format!(
            "  {} {:016x}",
            input.name,
            program_fingerprint(&pool, &program)
        ));
    }
    for d in &done {
        let p = &plan[d.index];
        report.attempted += 1;
        lag_ms.push((d.sent - p.due) * 1e3);
        let latency = (d.acked - p.due) * 1e3;
        let failure = match &d.response {
            Err(e) => Some(e.clone()),
            Ok(r) => match &r.verdict {
                Some(v @ (WireVerdict::Correct | WireVerdict::Incorrect(_)))
                    if r.status == Some(Status::Ok) =>
                {
                    truth_matches(&p.input, v)?;
                    (!r.durable).then(|| "non-durable ack".to_owned())
                }
                _ => Some(r.verdict_line()),
            },
        };
        if let Ok(r) = &d.response {
            let rtt = (d.acked - d.sent) * 1e3;
            rtt_ms.push(rtt);
            handler_ms.push(r.time_ms as f64);
            wait_ms.push(rtt - r.time_ms as f64);
        }
        match failure {
            Some(why) => {
                report.failed += 1;
                late += 1;
                failures.push(format!("request {}: {why}", d.index));
            }
            None => {
                acks += 1;
                latency_ms.push(latency);
                if !p.warm {
                    fresh_ms.push(latency);
                }
                if latency > LATE_LIMIT_MS {
                    late += 1;
                }
            }
        }
    }

    // The in-process reference: every fresh verdict must match what
    // `verify` gives for the same source (untimed, after the window).
    for d in &done {
        let p = &plan[d.index];
        let mut pool = TermPool::new();
        let program = cpl::compile(&p.input.source, &mut pool).map_err(|e| e.to_string())?;
        named.push((p.input.name.clone(), program_fingerprint(&pool, &program)));
        if p.warm {
            continue;
        }
        fresh += 1;
        let Ok(Response {
            verdict: Some(got @ (WireVerdict::Correct | WireVerdict::Incorrect(_))),
            ..
        }) = &d.response
        else {
            continue;
        };
        let reference = verify(&mut pool, &program, &VerifierConfig::gemcutter_seq()).verdict;
        let agree = matches!(
            (got, &reference),
            (WireVerdict::Correct, Verdict::Correct)
                | (WireVerdict::Incorrect(_), Verdict::Incorrect { .. })
        );
        if !agree {
            return Err(format!(
                "daemon verdict {got:?} for `{}` differs from in-process verify ({reference:?})",
                p.input.name
            ));
        }
    }
    report.line(format!("inputs digest: {:016x}", digest(&named)));
    let store_hits = after.delta(&before, "store-hits");
    let appends = after.delta(&before, "journal-appends");
    report.line(format!(
        "counts: {} warm, {fresh} fresh, {store_hits} store hits, {appends} journal appends",
        done.len() - fresh
    ));
    report.line(format!(
        "counts digest: {:016x}",
        digest(&(done.len(), fresh, store_hits as u64, appends as u64))
    ));
    for why in &failures {
        report.line(format!("failed: {why}"));
    }

    // Validity: the generator must not fall further and further behind.
    let quarter = (lag_ms.len() / 4).max(1);
    let first = median(&lag_ms[..quarter.min(lag_ms.len())]);
    let last = median(&lag_ms[lag_ms.len().saturating_sub(quarter)..]);
    report.line(format!(
        "generator lateness: median {first:.3} ms in the first quarter, {last:.3} ms in the last"
    ));
    if last > LAG_GROWTH_MS && last > 2.0 * first {
        return Err(format!(
            "run invalid: the backlog grew (median lateness {first:.1} ms -> {last:.1} ms)"
        ));
    }

    let n = done.len();
    if traced {
        let mut tracer = Tracer::new();
        let base = start.duration_since(tracer.epoch()).as_secs_f64();
        let at = |s: f64| Duration::from_secs_f64(base + s);
        for d in &done {
            let p = &plan[d.index];
            let name = if p.warm {
                "serve.request.warm"
            } else {
                "serve.request.fresh"
            };
            let parent = tracer.record(Span {
                name,
                op: d.index,
                parent: None,
                start: at(p.due),
                end: at(d.acked),
            });
            tracer.record(Span {
                name: "loadgen.lag",
                op: d.index,
                parent: Some(parent),
                start: at(p.due),
                end: at(d.sent),
            });
        }
        let path = out_dir.join(format!("spans-serve-seed{seed}.jsonl"));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        report.line(format!("spans: {}", path.display()));
        for (prefix, values, what) in [
            ("serve.rtt", &rtt_ms, "send to ack"),
            (
                "serve.handler",
                &handler_ms,
                "response time_ms; warm hits read 0",
            ),
            ("serve.wait", &wait_ms, "round trip minus handler time"),
        ] {
            let s = sorted(values);
            report.set(
                &format!("{prefix}_p50_ms"),
                percentile(&s, 0.5),
                s.len(),
                what,
            );
            let (label, value, beyond) =
                tail(&s).unwrap_or(("max", s.last().copied().unwrap_or(0.0), 0));
            report.set(
                &format!("{prefix}_tail_ms"),
                value,
                s.len(),
                format!("{label}, {beyond} samples beyond"),
            );
        }
        let d = |key: &str| after.delta(&before, key);
        report.set(
            "serve.store_hit_ratio",
            ratio(store_hits, n as f64),
            n,
            "store hits / requests",
        );
        report.set("serve.warm_starts", d("warm-starts"), n, "");
        report.set("serve.busy", d("busy"), n, "");
        report.set("serve.errors", d("errors"), n, "");
        report.set("serve.journal_appends", appends, n, "");
        report.set("serve.journal_fsyncs", d("journal-fsyncs"), n, "");
        report.set(
            "serve.appends_per_fsync",
            ratio(appends, d("journal-fsyncs")),
            n,
            "",
        );
        report.set("serve.compactions", d("compactions"), n, "");
        report.set(
            "serve.journal_bytes",
            after.get("journal-bytes"),
            n,
            "journal size at the end",
        );
        report.set("serve.certs_checked", d("certs-checked"), n, "");
        report.set("serve.certs_quarantined", d("certs-quarantined"), n, "");
        let (hits, misses) = (d("qcache-hits"), d("qcache-misses"));
        report.set("serve.qcache_hit_ratio", ratio(hits, hits + misses), n, "");
        report.set(
            "loadgen.offered_rps",
            ratio(n as f64, seconds),
            n,
            "scheduled requests / window",
        );
        let lag = sorted(&lag_ms);
        report.set(
            "loadgen.lag_p50_ms",
            percentile(&lag, 0.5),
            n,
            "send time minus due time",
        );
        report.set(
            "loadgen.lag_max_ms",
            lag.last().copied().unwrap_or(0.0),
            n,
            "",
        );
        report.set(
            "trace.overhead_ratio",
            (window + rpc_s) / window,
            n,
            "(window + stats RPC) / window",
        );
    } else {
        let lat = sorted(&latency_ms);
        report.set(
            "setup_s",
            fastest(&setup_times),
            SETUP_REPEATS,
            "fastest of the set-ups",
        );
        report.set(
            "ops_per_s",
            ratio(acks as f64, window),
            acks,
            "durable acks per second",
        );
        report.set(
            "latency_p50_ms",
            median(&lat),
            lat.len(),
            "due time to durable ack",
        );
        report.set(
            "verify_p50_ms",
            median(&fresh_ms),
            fresh_ms.len(),
            "fresh requests (the cold path), due time to durable ack",
        );
        if let Some((label, value, beyond)) = tail(&lat) {
            report.set(
                "latency_tail_ms",
                value,
                lat.len(),
                format!("{label}, {beyond} samples beyond"),
            );
        }
        report.set(
            "failed_share",
            ratio(report.failed as f64, n as f64),
            n,
            "error, busy, timeout, GAVE-UP or non-durable ack",
        );
        report.set(
            "late_share",
            ratio(late as f64, n as f64),
            n,
            format!("over {LATE_LIMIT_MS} ms after due, failures included"),
        );
        report.set("peak_rss_mb", peak_rss_mb(), 1, "VmHWM of this process");
    }
    Ok(report)
}
