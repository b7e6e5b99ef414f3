//! **Portfolio scaling**: wall-clock of the multi-threaded shared-proof
//! portfolio ([`gemcutter::portfolio::parallel_verify`]) at 1, 2 and 4
//! engines vs. the single-threaded adaptive portfolio on the multi-round
//! corpus benchmarks (those where refinement needs several rounds, so
//! there are assertions worth sharing).
//!
//! Run: `cargo run --release -p bench --bin portfolio_scaling`
//! (`SEQVER_QUICK=1` restricts to the small instances.)

use gemcutter::govern::Category;
use gemcutter::portfolio::{adaptive_verify, default_portfolio, parallel_verify, ParallelConfig};
use gemcutter::verify::Verdict;
use smt::term::TermPool;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Engine counts to scale over (prefixes of the §8 portfolio).
const ENGINE_COUNTS: [usize; 3] = [1, 2, 4];

/// A benchmark is "multi-round" when the adaptive baseline needs at least
/// this many refinement rounds — otherwise there is nothing to parallelize.
const MIN_ROUNDS: usize = 4;

fn main() {
    let corpus = bench::corpus();
    let configs = default_portfolio();
    println!("Portfolio scaling: adaptive (1 thread) vs parallel (n threads)\n");
    print!("  {:24} {:>9} {:>7}", "benchmark", "adaptive", "rounds");
    for n in ENGINE_COUNTS {
        print!(" {:>11}", format!("par({n})"));
    }
    println!(" {:>9} {:>8} {:>16}", "speedup", "qc-hit", "give-up");

    let mut parallel4_wins = 0usize;
    let mut measured = 0usize;
    let mut give_ups: BTreeMap<Category, usize> = BTreeMap::new();
    for b in &corpus {
        // Baseline: single-threaded adaptive portfolio over a shared proof.
        let mut pool = TermPool::new();
        let p = b.compile(&mut pool);
        let t0 = Instant::now();
        let (adaptive, _) = adaptive_verify(&mut pool, &p, &configs, 600);
        let adaptive_time = t0.elapsed();
        if let Verdict::GaveUp(g) = &adaptive.verdict {
            // Inconclusive: record the resource category instead of timings.
            *give_ups.entry(g.category).or_insert(0) += 1;
            let dashes = ENGINE_COUNTS.map(|_| format!(" {:>11}", "-")).concat();
            println!(
                "  {:24} {:>9} {:>7}{dashes} {:>9} {:>8} {:>16}",
                b.name,
                "-",
                adaptive.stats.rounds,
                "-",
                "-",
                g.category.name()
            );
            continue;
        }
        if adaptive.stats.rounds < MIN_ROUNDS {
            continue; // trivial: no sharing to measure
        }
        measured += 1;

        let mut times: Vec<Duration> = Vec::new();
        // Hit rate of the widest parallel run: workers share one cache, so
        // this shows the cross-engine reuse the scaling column buys.
        let mut widest_hit_rate = f64::NAN;
        for &n in &ENGINE_COUNTS {
            let mut pool = TermPool::new();
            let p = b.compile(&mut pool);
            let t0 = Instant::now();
            let result = parallel_verify(&pool, &p, &configs[..n], &ParallelConfig::default());
            times.push(t0.elapsed());
            widest_hit_rate = result.outcome.stats.qcache_hit_rate();
            assert_eq!(
                result.outcome.verdict.is_correct(),
                adaptive.verdict.is_correct(),
                "parallel({n}) disagrees with adaptive on {}",
                b.name
            );
        }
        let par4 = *times.last().expect("nonempty");
        if par4 < adaptive_time {
            parallel4_wins += 1;
        }
        print!(
            "  {:24} {:>8.1}ms {:>7}",
            b.name,
            adaptive_time.as_secs_f64() * 1e3,
            adaptive.stats.rounds
        );
        for t in &times {
            print!(" {:>9.1}ms", t.as_secs_f64() * 1e3);
        }
        println!(
            " {:>8.2}x {:>7.0}% {:>16}",
            adaptive_time.as_secs_f64() / par4.as_secs_f64().max(1e-9),
            widest_hit_rate * 100.0,
            "-"
        );
    }
    println!();
    if give_ups.is_empty() {
        println!("give-ups by category: none");
    } else {
        let tally: Vec<String> = give_ups
            .iter()
            .map(|(cat, n)| format!("{}={n}", cat.name()))
            .collect();
        println!("give-ups by category: {}", tally.join(" "));
    }
    println!(
        "parallel(4) beat the single-threaded adaptive portfolio on {parallel4_wins}/{measured} multi-round benchmarks"
    );
    assert!(
        measured == 0 || parallel4_wins > 0,
        "expected parallel(4) to win at least one multi-round benchmark"
    );
}
