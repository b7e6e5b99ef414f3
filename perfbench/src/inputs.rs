//! Workload inputs: CPL sources with their ground truth.
//!
//! The program under test only ever sees these sources; the seed picks
//! their order (and, for `serve`, the arrival schedule and which requests
//! repeat which warm program), never their sizes.

use bench_suite::generators::shared_counter;
use bench_suite::Expected;

/// One program to verify and the verdict it must get.
#[derive(Clone, Debug)]
pub struct Input {
    pub name: String,
    pub source: String,
    pub safe: bool,
}

/// The 49 programs of `bench_suite::all()`, truth from
/// `bench_suite::Expected`.
pub fn corpus() -> Vec<Input> {
    bench_suite::all()
        .into_iter()
        .map(|b| Input {
            name: b.name,
            source: b.source,
            safe: b.expected == Expected::Safe,
        })
        .collect()
}

/// The fixed `chain` sizes `(n workers, k iterations)`.
pub const CHAIN_SIZES: [(usize, usize); 4] = [(3, 4), (4, 3), (4, 4), (5, 2)];

/// The `chain-*.cpl` family: `n` workers each run `c := c + 1` `k` times,
/// and a checker asserts `c <= bound` once all are done. Safe iff
/// `bound >= n * k`.
pub fn chain_source(n: usize, k: usize, bound: usize) -> String {
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

/// Safe (`bound = n·k`) and buggy (`bound = n·k − 1`) instances at every
/// size of [`CHAIN_SIZES`].
pub fn chain() -> Vec<Input> {
    let mut out = Vec::new();
    for (n, k) in CHAIN_SIZES {
        for safe in [true, false] {
            let bound = if safe { n * k } else { n * k - 1 };
            out.push(Input {
                name: format!("chain-{n}x{k}{}", if safe { "" } else { "-bug" }),
                source: chain_source(n, k, bound),
                safe,
            });
        }
    }
    out
}

/// Programs pre-stored in the daemon during set-up; 80% of `serve`
/// requests repeat one of them (warm hits).
pub fn serve_warm_set() -> Vec<Input> {
    const NAMES: [&str; 12] = [
        "bluetooth-1",
        "bluetooth-bug-1",
        "counter-safe-2",
        "counter-bug-2",
        "spinlock-2",
        "race-2",
        "peterson",
        "peterson-bug",
        "prodcons-2",
        "flag-handshake",
        "dekker",
        "readers-writers-1",
    ];
    let all = corpus();
    NAMES
        .iter()
        .map(|name| {
            all.iter()
                .find(|b| b.name == *name)
                .unwrap_or_else(|| panic!("corpus has no `{name}`"))
                .clone()
        })
        .collect()
}

/// The `(workers, increments)` shapes of fresh `serve` programs.
const FRESH_SHAPES: [(usize, usize); 3] = [(2, 1), (2, 2), (3, 1)];

/// The `salt`-th program the store has never seen (`salt >= 1`):
/// `shared_counter(n, k, bound)` with the salt folded into the bound, so
/// every fresh request has its own fingerprint. Safe iff `bound >= n·k`.
/// Shapes and truth rotate with the salt rather than the seed, so the
/// store grows through the same programs under every seed and the cold
/// path does comparable work; the seed decides when they arrive.
pub fn serve_fresh(salt: usize) -> Input {
    let (n, k) = FRESH_SHAPES[salt % FRESH_SHAPES.len()];
    let safe = (salt / FRESH_SHAPES.len()).is_multiple_of(2);
    let nk = (n * k) as i128;
    let bound = if safe {
        nk + salt as i128
    } else {
        nk - 1 - salt as i128
    };
    Input {
        name: format!("counter-{n}x{k}-b{bound}"),
        source: shared_counter(n, k, bound),
        safe,
    }
}
