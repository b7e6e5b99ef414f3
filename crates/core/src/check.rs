//! The on-the-fly proof check — Algorithm 2 (§7.2).
//!
//! A DFS over states `(q, Φ, S, ctx)` — product location, Floyd/Hoare
//! assertion set, sleep set, preference-order context — that
//! simultaneously constructs the reduction `(S⋖(P))↓πS` and checks that
//! the proof candidate covers it:
//!
//! * exploration is restricted to a weakly persistent membrane (π);
//! * sleeping letters are skipped, and successor sleep sets use
//!   **proof-sensitive commutativity** `a ↷↷_φ b` with `φ = ⋀Φ`;
//! * states whose assertion conjunction is unsatisfiable are *covered* —
//!   every extension is infeasible — and pruned;
//! * a state from which no counterexample is reachable is recorded in a
//!   cross-round **useless-state cache**; later rounds skip any state with
//!   the same `(q, S, ctx)` and a superset of assertions (sound by
//!   monotonicity of proof-sensitive commutativity, §7.2).
//!
//! The walk runs on dense ids of product states and sleep sets, so a state
//! is a 24-byte `Copy` key; per-state tables are computed once per spec.

use crate::govern::{Category, GiveUp};
use crate::proof::{ProofAutomaton, ProofStateId};
use automata::bitset::BitSet;
use automata::fxhash::{FxHashMap, FxHashSet};
use program::commutativity::CommutativityOracle;
use program::concurrent::{LetterId, ProductState, Program, Spec};
use reduction::order::{OrderContext, PreferenceOrder};
use reduction::persistent::{MembraneMode, PersistentSets};
use smt::term::{TermId, TermPool};
use std::hash::Hash;

/// Result of one proof-check round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckResult {
    /// The proof covers the entire reduction: the program is correct.
    Proven,
    /// A trace of the reduction not covered by the proof.
    Counterexample(Vec<LetterId>),
    /// The state budget was exhausted.
    LimitReached,
    /// The round was aborted by the pool's resource governor: deadline,
    /// step budget, cooperative cancellation (another portfolio member
    /// concluded) or an injected fault. The give-up carries the cause.
    Interrupted(GiveUp),
}

/// Per-round exploration counters (the paper's memory proxy).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// Distinct `(q, Φ, S, ctx)` states visited this round.
    pub visited: usize,
    /// States skipped thanks to the cross-round useless-state cache.
    pub cache_skips: usize,
    /// Useless-cache probes issued (hits are `cache_skips`).
    pub useless_probes: usize,
    /// Useless-cache entries after the round (a gauge, not a delta).
    pub useless_len: usize,
}

/// Switches for the proof check.
#[derive(Clone, Debug)]
pub struct CheckConfig {
    /// Apply sleep sets.
    pub use_sleep: bool,
    /// Apply weakly persistent membranes.
    pub use_persistent: bool,
    /// Use `⋀Φ` as the commutativity condition in sleep-set computation.
    pub proof_sensitive: bool,
    /// The per-round state budget: the proof-check DFS aborts after
    /// visiting this many states, and the certificate recording re-walk
    /// aborts after [`RECORD_VISITED_HEADROOM`]× as many (it takes no
    /// useless-cache skips, so it can legitimately need more states than
    /// the check did). Both walks also charge `Category::DfsStates` per
    /// state, so the governor's run-wide budget is the ultimate
    /// authority; this field is the per-round cap.
    pub max_visited: usize,
    /// Ignored. It set the worker count of the parallel proof check,
    /// which was removed; the field stays so that code building a
    /// `CheckConfig` field by field (the benchmark's traced runner in
    /// `perfbench/`) still compiles.
    pub dfs_threads: usize,
    /// Ignored. It froze useless-cache marking so that parallel and
    /// sequential rounds visited the same states; it stays because the
    /// benchmark's traced runner in `perfbench/` also sets it by name.
    pub freeze_useless: bool,
}

impl Default for CheckConfig {
    fn default() -> CheckConfig {
        CheckConfig {
            use_sleep: true,
            use_persistent: true,
            proof_sensitive: true,
            max_visited: usize::MAX,
            dfs_threads: 1,
            freeze_useless: false,
        }
    }
}

/// Cross-round cache of useless states (§7.2).
///
/// A state is *useless* when no counterexample is reachable from it under
/// the current (hence any stronger) proof. Entries are bucketed by
/// `(q, S, ctx)`, so the per-visit probe is one lookup of a `Copy` key.
/// Within a bucket, a new state is skipped when some recorded entry's
/// (sorted) proof-assertion indices are a subset of its own.
///
/// The cache also owns the walk's memo tables, so ids (and the entries
/// keyed by them) stay valid across the rounds of one specification.
#[derive(Clone, Debug, Default)]
pub struct UselessCache {
    tables: Tables,
    map: FxHashMap<(QId, SleepId, OrderContext), Vec<Vec<u32>>>,
}

impl UselessCache {
    /// An empty cache.
    pub fn new() -> UselessCache {
        UselessCache::default()
    }

    /// Total recorded entries.
    pub fn len(&self) -> usize {
        self.map.values().map(Vec::len).sum()
    }

    /// `true` if no entries are recorded.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    fn is_useless(&self, q: QId, sleep: SleepId, ctx: OrderContext, assertions: &[u32]) -> bool {
        self.map
            .get(&(q, sleep, ctx))
            .is_some_and(|sets| sets.iter().any(|set| is_subset(set, assertions)))
    }

    fn mark(&mut self, q: QId, sleep: SleepId, ctx: OrderContext, assertions: &[u32]) {
        let sets = self.map.entry((q, sleep, ctx)).or_default();
        // Keep only minimal sets.
        if sets.iter().any(|set| is_subset(set, assertions)) {
            return;
        }
        sets.retain(|set| !is_subset(assertions, set));
        sets.push(assertions.to_vec());
    }
}

/// Sorted-slice subset test.
fn is_subset(small: &[u32], big: &[u32]) -> bool {
    let mut it = big.iter();
    'outer: for &x in small {
        for &y in it.by_ref() {
            match y.cmp(&x) {
                std::cmp::Ordering::Less => continue,
                std::cmp::Ordering::Equal => continue 'outer,
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum VisitStatus {
    OnStack,
    /// Fully explored, no counterexample reachable, no edge into the stack.
    DoneClean,
    /// Fully explored without counterexample, but the verdict depends on a
    /// state that was still on the stack (possible cycle) — not cacheable.
    DoneTainted,
}

/// Dense id of an interned product state.
type QId = u32;
/// Dense id of an interned sleep set.
type SleepId = u32;

/// A DFS state `(q, Φ, S, ctx)`, with `q` and `S` interned.
type Key = (QId, ProofStateId, SleepId, OrderContext);
const _: () = assert!(std::mem::size_of::<Key>() <= 24);
const _: fn(Key) -> (Key, Key) = |key| (key, key); // `Key` is `Copy`

/// The dense id of `item` in `ids`, and whether it is new.
fn intern<T: Clone + Eq + Hash>(ids: &mut FxHashMap<T, u32>, item: &T) -> (u32, bool) {
    if let Some(&id) = ids.get(item) {
        return (id, false);
    }
    let id = ids.len() as u32;
    ids.insert(item.clone(), id);
    (id, true)
}

/// What the walk knows of an interned product state.
#[derive(Clone, Debug)]
struct StateInfo {
    state: ProductState,
    /// Enabled letters, in increasing order.
    enabled: Box<[LetterId]>,
    /// The successor under each enabled letter; `QId::MAX` until taken.
    succ: Box<[QId]>,
    /// The rank-sorted membrane of each order context met so far.
    membranes: Vec<(OrderContext, Box<[LetterId]>)>,
}

/// What the commutation table knows of an ordered letter pair: `Always`
/// commute (unconditionally), `Never` commute (same thread), `Ask` the
/// oracle under each condition, or `Unknown` until the oracle first answers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Pair {
    Unknown,
    Always,
    Never,
    Ask,
}

/// The walk's memo tables: interned product states and sleep sets, what
/// is known of each product state, and the commutation table.
#[derive(Clone, Debug, Default)]
struct Tables {
    state_ids: FxHashMap<ProductState, QId>,
    states: Vec<StateInfo>,
    sleep_ids: FxHashMap<BitSet, SleepId>,
    sleeps: Vec<BitSet>,
    /// `commute[a · |Σ| + b]`, sized by the first walk.
    commute: Vec<Pair>,
}

impl Tables {
    fn state(&mut self, program: &Program, q: &ProductState) -> QId {
        let (id, fresh) = intern(&mut self.state_ids, q);
        if fresh {
            let enabled: Box<[LetterId]> = program.enabled(q).into();
            self.states.push(StateInfo {
                state: q.clone(),
                succ: vec![QId::MAX; enabled.len()].into(),
                enabled,
                membranes: Vec::new(),
            });
        }
        id
    }

    fn sleep(&mut self, sleep: &BitSet) -> SleepId {
        let (id, fresh) = intern(&mut self.sleep_ids, sleep);
        if fresh {
            self.sleeps.push(sleep.clone());
        }
        id
    }

    /// `δ(q, a)` of the interleaving product, memoized.
    fn step(&mut self, program: &Program, q: QId, a: LetterId) -> QId {
        let info = &self.states[q as usize];
        let i = info
            .enabled
            .binary_search(&a)
            .expect("explored letter is enabled");
        if info.succ[i] == QId::MAX {
            let next = program
                .step(&info.state, a)
                .expect("explored letter is enabled");
            self.states[q as usize].succ[i] = self.state(program, &next);
        }
        self.states[q as usize].succ[i]
    }
}

struct Frame {
    key: Key,
    /// Letter taken from the parent to reach this frame.
    via: Option<LetterId>,
    /// Index of the state's membrane in its [`StateInfo`].
    membrane: u32,
    next: usize,
    tainted: bool,
}

/// Facts the DFS reports as it goes. The proof check passes `()`, whose
/// hooks do nothing and compile away; certificate recording passes a
/// [`Recording`].
trait Recorder {
    /// An explored edge used the annotation transition `Φ' = δ(Φ, a)`.
    fn edge(&mut self, _from: ProofStateId, _a: LetterId, _to: ProofStateId) {}
    /// A state with annotation `Φ` was pruned because `⋀Φ` is unsatisfiable.
    fn bottom(&mut self, _phi: ProofStateId) {}
    /// An accepting state's annotation `Φ` entails the postcondition.
    fn safe(&mut self, _phi: ProofStateId) {}
    /// `b` fell asleep after `a` at a state annotated `Φ`, because the two
    /// commute under `⋀Φ` (under `true` without proof-sensitivity).
    fn commutes(&mut self, _a: LetterId, _b: LetterId, _phi: ProofStateId) {}
}

impl Recorder for () {}

/// One walk of Algorithm 2: everything the DFS reads or queries.
struct Dfs<'a, R> {
    pool: &'a mut TermPool,
    program: &'a Program,
    spec: Spec,
    order: &'a dyn PreferenceOrder,
    oracle: &'a mut CommutativityOracle,
    persistent: Option<&'a PersistentSets>,
    proof: &'a mut ProofAutomaton,
    config: &'a CheckConfig,
    recorder: &'a mut R,
    /// The memo tables, and the useless-state marks if the walk uses them.
    cache: &'a mut UselessCache,
    /// Scratch space for the next sleep set.
    sleep: BitSet,
}

impl<R: Recorder> Dfs<'_, R> {
    /// The one proof-check DFS. It walks from `(q0, phi0, ∅, 0)` and stops
    /// at the first uncovered accepting state, after `max_visited` states,
    /// or when the governor trips. With `useless` on it skips states the
    /// cache subsumes and marks cleanly explored ones.
    fn run(
        &mut self,
        phi0: ProofStateId,
        useless: bool,
        max_visited: usize,
        stats: &mut CheckStats,
    ) -> CheckResult {
        let governor = self.pool.governor().clone();
        let n = self.program.num_letters();
        if self.cache.tables.commute.len() != n * n {
            self.cache.tables.commute = vec![Pair::Unknown; n * n];
        }
        let mut visited: FxHashMap<Key, VisitStatus> = FxHashMap::default();
        let mut stack: Vec<Frame> = Vec::new();
        let initial = self.program.initial_state();
        let q0 = self.cache.tables.state(self.program, &initial);
        let empty = self.cache.tables.sleep(&BitSet::new(n));
        let root: Key = (q0, phi0, empty, 0);
        if useless && self.skips(root, stats) {
            return CheckResult::Proven;
        }
        if let Some(trace) = self.discover(root, None, &mut visited, &mut stack, stats) {
            return CheckResult::Counterexample(trace);
        }

        while let Some(frame) = stack.last_mut() {
            if stats.visited > max_visited {
                return CheckResult::LimitReached;
            }
            // One DFS state per iteration; the charge also observes the
            // deadline, cancellation flag and any injected fault, so a round
            // aborts mid-DFS rather than between rounds.
            if let Err(give_up) = governor.charge(Category::DfsStates) {
                return CheckResult::Interrupted(give_up);
            }
            let Some(a) = self.next_letter(frame) else {
                // Subtree done: pop, record, propagate taint.
                let frame = stack.pop().expect("frame exists");
                let status = if frame.tainted {
                    if let Some(parent) = stack.last_mut() {
                        parent.tainted = true;
                    }
                    VisitStatus::DoneTainted
                } else {
                    if useless {
                        let (q, phi, sleep, ctx) = frame.key;
                        let set = self.proof.assertion_set(phi);
                        self.cache.mark(q, sleep, ctx, set);
                    }
                    VisitStatus::DoneClean
                };
                visited.insert(frame.key, status);
                continue;
            };
            let next = self.successor(frame.key, a);
            match visited.get(&next) {
                Some(VisitStatus::OnStack | VisitStatus::DoneTainted) => {
                    frame.tainted = true;
                    continue;
                }
                Some(VisitStatus::DoneClean) => continue,
                None => {}
            }
            if useless && self.skips(next, stats) {
                visited.insert(next, VisitStatus::DoneClean);
                continue;
            }
            if let Some(trace) = self.discover(next, Some(a), &mut visited, &mut stack, stats) {
                return CheckResult::Counterexample(trace);
            }
        }
        CheckResult::Proven
    }

    /// Probes the cross-round useless-state cache.
    fn skips(&self, key: Key, stats: &mut CheckStats) -> bool {
        let (q, phi, sleep, ctx) = key;
        stats.useless_probes += 1;
        let skip = self
            .cache
            .is_useless(q, sleep, ctx, self.proof.assertion_set(phi));
        stats.cache_skips += usize::from(skip);
        skip
    }

    /// Visits a newly discovered state: prunes it when covered, pushes a
    /// frame when it must be expanded, and returns the trace to it when it
    /// is an uncovered accepting state.
    fn discover(
        &mut self,
        key: Key,
        via: Option<LetterId>,
        visited: &mut FxHashMap<Key, VisitStatus>,
        stack: &mut Vec<Frame>,
        stats: &mut CheckStats,
    ) -> Option<Vec<LetterId>> {
        stats.visited += 1;
        let (q, phi, _, ctx) = key;
        // Covered: the prefix is already proven infeasible.
        if self.proof.is_bottom(self.pool, phi) {
            self.recorder.bottom(phi);
            visited.insert(key, VisitStatus::DoneClean);
            return None;
        }
        if self
            .program
            .is_accepting(&self.cache.tables.states[q as usize].state, self.spec)
        {
            let safe = match self.spec {
                Spec::ErrorOf(_) => false, // reachable error, not refuted
                Spec::PrePost => self.proof.implies_post(self.pool, phi, self.program.post()),
            };
            if !safe {
                return Some(stack.iter().filter_map(|f| f.via).chain(via).collect());
            }
            self.recorder.safe(phi);
            visited.insert(key, VisitStatus::DoneClean);
            return None;
        }
        let membrane = self.membrane(q, ctx);
        visited.insert(key, VisitStatus::OnStack);
        stack.push(Frame {
            key,
            via,
            membrane,
            next: 0,
            tainted: false,
        });
        None
    }

    /// The index of `q`'s membrane in context `ctx`, computed on first use:
    /// the letters to explore, most preferred first.
    fn membrane(&mut self, q: QId, ctx: OrderContext) -> u32 {
        let info = &self.cache.tables.states[q as usize];
        if let Some(i) = info.membranes.iter().position(|&(c, _)| c == ctx) {
            return i as u32;
        }
        let mut letters = match self.persistent {
            Some(ps) => {
                let mode = match self.spec {
                    Spec::PrePost => MembraneMode::Terminal,
                    Spec::ErrorOf(t) => MembraneMode::ErrorThread(t),
                };
                ps.compute(self.program, &info.state, self.order, ctx, mode)
            }
            None => info.enabled.to_vec(),
        };
        letters.sort_by_key(|&l| self.order.rank(ctx, l, self.program));
        let membranes = &mut self.cache.tables.states[q as usize].membranes;
        membranes.push((ctx, letters.into()));
        membranes.len() as u32 - 1
    }

    /// The frame's next membrane letter that is not asleep.
    fn next_letter(&self, frame: &mut Frame) -> Option<LetterId> {
        let (q, _, sleep, _) = frame.key;
        let membrane = &self.cache.tables.states[q as usize].membranes[frame.membrane as usize].1;
        let sleep = &self.cache.tables.sleeps[sleep as usize];
        while let Some(&a) = membrane.get(frame.next) {
            frame.next += 1;
            if !sleep.contains(a.index()) {
                return Some(a);
            }
        }
        None
    }

    /// The successor of state `key` under `a`. Its sleep set holds the
    /// enabled letters that were asleep or preferred over `a` and commute
    /// with `a` (under `⋀Φ` when proof-sensitive).
    fn successor(&mut self, key: Key, a: LetterId) -> Key {
        let (q, phi, sleep, ctx) = key;
        let next_q = self.cache.tables.step(self.program, q, a);
        let next_phi = self.proof.step(self.pool, self.program, phi, a);
        let next_ctx = self.order.step(ctx, a, self.program);
        self.recorder.edge(phi, a, next_phi);
        self.sleep.clear();
        if self.config.use_sleep {
            let condition: TermId = if self.config.proof_sensitive {
                self.proof.conjunction(phi)
            } else {
                TermPool::TRUE
            };
            for i in 0..self.cache.tables.states[q as usize].enabled.len() {
                let b = self.cache.tables.states[q as usize].enabled[i];
                let earlier = self.cache.tables.sleeps[sleep as usize].contains(b.index())
                    || self.order.less(ctx, b, a, self.program);
                if earlier && self.commutes(condition, a, b) {
                    self.sleep.insert(b.index());
                    self.recorder.commutes(a, b, phi);
                }
            }
        }
        let next_sleep = self.cache.tables.sleep(&self.sleep);
        (next_q, next_phi, next_sleep, next_ctx)
    }

    /// `a ↷↷_φ b` for `φ = condition`. The commutation table answers
    /// same-thread and unconditionally commuting pairs, filled from the
    /// oracle's cached answers; only the other pairs reach the oracle.
    fn commutes(&mut self, condition: TermId, a: LetterId, b: LetterId) -> bool {
        let slot = a.index() * self.program.num_letters() + b.index();
        match self.cache.tables.commute[slot] {
            Pair::Always => true,
            Pair::Never => false,
            Pair::Ask => self
                .oracle
                .commute_under(self.pool, self.program, condition, a, b),
            Pair::Unknown => {
                let result = self
                    .oracle
                    .commute_under(self.pool, self.program, condition, a, b);
                self.cache.tables.commute[slot] = match self.oracle.cached(a, b) {
                    _ if self.program.thread_of(a) == self.program.thread_of(b) => Pair::Never,
                    Some(true) => Pair::Always,
                    Some(false) => Pair::Ask,
                    None => Pair::Unknown,
                };
                result
            }
        }
    }
}

/// The proof state of the initial product state: the assertions implied by
/// the initial values and the precondition.
fn initial_proof_state(
    pool: &mut TermPool,
    program: &Program,
    proof: &mut ProofAutomaton,
) -> ProofStateId {
    let init_formula = pool.and([program.init_formula(), program.pre()]);
    proof.initial_state(pool, init_formula)
}

/// Runs one proof-check round (Algorithm 2).
#[allow(clippy::too_many_arguments)]
pub fn check_proof(
    pool: &mut TermPool,
    program: &Program,
    spec: Spec,
    order: &dyn PreferenceOrder,
    oracle: &mut CommutativityOracle,
    persistent: Option<&PersistentSets>,
    proof: &mut ProofAutomaton,
    useless: &mut UselessCache,
    config: &CheckConfig,
    stats: &mut CheckStats,
) -> CheckResult {
    let phi0 = initial_proof_state(pool, program, proof);
    let result = Dfs {
        pool,
        program,
        spec,
        order,
        oracle,
        persistent,
        proof,
        config,
        recorder: &mut (),
        cache: useless,
        sleep: BitSet::new(program.num_letters()),
    }
    .run(phi0, true, config.max_visited, stats);
    stats.useless_len = useless.len();
    result
}

/// The annotation-level image of one fully covered reduction, captured by
/// [`record_reduction`]: everything an independent checker needs to replay
/// the DFS of Algorithm 2 *without* re-deriving any solver fact it does
/// not choose to re-verify.
///
/// Proof states are referenced by their `ProofStateId`; the caller
/// translates them to interned assertion sets when exporting a
/// certificate.
#[derive(Clone, Debug)]
pub struct RecordedReduction {
    /// Proof state covering the initial product state.
    pub initial: ProofStateId,
    /// Annotation transitions used: `(Φ, a, Φ')` with `Φ' = δ(Φ, a)`.
    pub edges: Vec<(ProofStateId, LetterId, ProofStateId)>,
    /// Proof states pruned as covered (`⋀Φ` unsatisfiable).
    pub bottoms: Vec<ProofStateId>,
    /// Proof states at accepting product states shown to entail the post.
    pub safes: Vec<ProofStateId>,
    /// Proof-sensitive commutativity facts used by sleep sets:
    /// `(a, b, Φ)` means `a ↷↷_φ b` with `φ = ⋀Φ`.
    pub claims: Vec<(LetterId, LetterId, ProofStateId)>,
    /// Unconditional commutativity facts (`a < b`, distinct threads) used
    /// by persistent-set membranes and by condition-free sleep sets.
    pub ucommute: Vec<(LetterId, LetterId)>,
}

/// The certificate recorder: the facts of one walk, deduplicated, and
/// sorted once the walk ends.
#[derive(Default)]
struct Recording {
    proof_sensitive: bool,
    edges: FxHashSet<(ProofStateId, LetterId, ProofStateId)>,
    bottoms: FxHashSet<ProofStateId>,
    safes: FxHashSet<ProofStateId>,
    claims: FxHashSet<(LetterId, LetterId, ProofStateId)>,
    ucommute: FxHashSet<(LetterId, LetterId)>,
}

fn sorted<T: Ord>(set: FxHashSet<T>) -> Vec<T> {
    let mut items: Vec<T> = set.into_iter().collect();
    items.sort_unstable();
    items
}

impl Recorder for Recording {
    fn edge(&mut self, from: ProofStateId, a: LetterId, to: ProofStateId) {
        self.edges.insert((from, a, to));
    }

    fn bottom(&mut self, phi: ProofStateId) {
        self.bottoms.insert(phi);
    }

    fn safe(&mut self, phi: ProofStateId) {
        self.safes.insert(phi);
    }

    fn commutes(&mut self, a: LetterId, b: LetterId, phi: ProofStateId) {
        if self.proof_sensitive {
            self.claims.insert((a, b, phi));
        } else {
            self.ucommute.insert((a.min(b), a.max(b)));
        }
    }
}

/// State-budget headroom for the certificate recording re-walk, as a
/// multiple of [`CheckConfig::max_visited`]. The re-walk takes no
/// useless-cache skips, so it re-expands subtrees the check skipped; a
/// proven round whose check fit `max_visited` only thanks to those skips
/// still deserves a certificate. The governor's run-wide
/// `Category::DfsStates` budget — charged per recorded state too — is
/// the ultimate authority, so this cap only bounds a single re-walk.
pub const RECORD_VISITED_HEADROOM: usize = 4;

/// Re-walks the reduction after a round returned [`CheckResult::Proven`]
/// and records its annotation-level structure.
///
/// This is the [`check_proof`] DFS without the useless cache, so the
/// recorded table covers subtrees earlier rounds had already discharged —
/// the certificate must stand on its own. Every solver query hits the
/// proof automaton's and oracle's memo tables, so the pass is roughly one
/// cold round of pure graph traversal.
///
/// Returns `None` when the walk cannot be completed faithfully: the state
/// budget or resource governor trips mid-walk, or (defensively) an
/// uncovered accepting state is found. The verdict is then reported
/// without a certificate rather than with a broken one.
#[allow(clippy::too_many_arguments)]
pub fn record_reduction(
    pool: &mut TermPool,
    program: &Program,
    spec: Spec,
    order: &dyn PreferenceOrder,
    oracle: &mut CommutativityOracle,
    persistent: Option<&PersistentSets>,
    proof: &mut ProofAutomaton,
    config: &CheckConfig,
) -> Option<RecordedReduction> {
    let initial = initial_proof_state(pool, program, proof);
    let mut rec = Recording {
        proof_sensitive: config.proof_sensitive,
        ..Recording::default()
    };
    // Membranes consume the whole unconditional commutativity relation, so
    // the certificate must carry it whenever membranes (or condition-free
    // sleep sets) are in play. The oracle has every pair cached from
    // `PersistentSets::new`, so this is a table scan, not a solver sweep.
    if persistent.is_some() || (config.use_sleep && !config.proof_sensitive) {
        for a in program.letters() {
            for b in program.letters() {
                if a < b
                    && program.thread_of(a) != program.thread_of(b)
                    && oracle.commute(pool, program, a, b)
                {
                    rec.ucommute.insert((a, b));
                }
            }
        }
    }
    let result = Dfs {
        pool,
        program,
        spec,
        order,
        oracle,
        persistent,
        proof,
        config,
        recorder: &mut rec,
        cache: &mut UselessCache::new(),
        sleep: BitSet::new(program.num_letters()),
    }
    .run(
        initial,
        false,
        config.max_visited.saturating_mul(RECORD_VISITED_HEADROOM),
        &mut CheckStats::default(),
    );
    (result == CheckResult::Proven).then(|| RecordedReduction {
        initial,
        edges: sorted(rec.edges),
        bottoms: sorted(rec.bottoms),
        safes: sorted(rec.safes),
        claims: sorted(rec.claims),
        ucommute: sorted(rec.ucommute),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use program::commutativity::CommutativityLevel;

    #[test]
    fn subset_test() {
        assert!(is_subset(&[], &[]));
        assert!(is_subset(&[], &[1]));
        assert!(is_subset(&[1, 3], &[0, 1, 2, 3]));
        assert!(!is_subset(&[1, 4], &[0, 1, 2, 3]));
        assert!(!is_subset(&[1], &[]));
        assert!(is_subset(&[2], &[2]));
    }

    #[test]
    fn useless_cache_subsumption() {
        let mut c = UselessCache::new();
        c.mark(0, 0, 0, &[1, 2]);
        assert!(c.is_useless(0, 0, 0, &[1, 2, 3]), "superset is skipped");
        assert!(c.is_useless(0, 0, 0, &[1, 2]));
        assert!(!c.is_useless(0, 0, 0, &[1]), "subset is not skipped");
        assert!(!c.is_useless(0, 0, 1, &[1, 2]), "different context");
        assert!(!c.is_useless(0, 1, 0, &[1, 2]), "different sleep set");
        assert!(!c.is_useless(1, 0, 0, &[1, 2]), "different product state");
        // Marking a superset is a no-op; marking a subset replaces.
        c.mark(0, 0, 0, &[1, 2, 3]);
        assert_eq!(c.len(), 1);
        c.mark(0, 0, 0, &[1]);
        assert_eq!(c.len(), 1);
        assert!(c.is_useless(0, 0, 0, &[1]));
    }

    #[test]
    fn ids_are_dense_and_stable_across_rounds() {
        use crate::interpolate::{analyze_trace_with_mode, InterpolationMode, TraceResult};
        let mut pool = TermPool::new();
        let source = include_str!("../../../examples/cpl/counter.cpl");
        let program = cpl::compile(source, &mut pool).expect("compiles");
        let spec = Spec::ErrorOf(program.asserting_threads()[0]);
        let mut oracle = CommutativityOracle::new(CommutativityLevel::Semantic);
        let (mut proof, mut useless) = (ProofAutomaton::new(), UselessCache::new());
        let mut rounds: Vec<(Vec<ProductState>, Vec<BitSet>)> = Vec::new();
        loop {
            let (order, config) = (reduction::order::SeqOrder, CheckConfig::default());
            let result = check_proof(
                &mut pool,
                &program,
                spec,
                &order,
                &mut oracle,
                None,
                &mut proof,
                &mut useless,
                &config,
                &mut CheckStats::default(),
            );
            let t = &useless.tables;
            let states: Vec<ProductState> = t.states.iter().map(|i| i.state.clone()).collect();
            let dense = |q: &ProductState, id| t.state_ids[q] == id as u32;
            assert!(states.iter().enumerate().all(|(id, q)| dense(q, id)));
            assert!((t.sleeps.iter().enumerate()).all(|(id, s)| t.sleep_ids[s] == id as u32));
            assert_eq!(
                (t.state_ids.len(), t.sleep_ids.len()),
                (states.len(), t.sleeps.len())
            );
            if let Some((old_states, old_sleeps)) = rounds.last() {
                assert!(states.starts_with(old_states) && t.sleeps.starts_with(old_sleeps));
            }
            rounds.push((states, t.sleeps.clone()));
            let CheckResult::Counterexample(trace) = result else {
                break;
            };
            let (mode, stats) = (InterpolationMode::SpChain, &mut Default::default());
            match analyze_trace_with_mode(&mut pool, &program, &trace, spec, mode, stats) {
                TraceResult::Infeasible { chain } => chain.into_iter().for_each(|a| {
                    proof.add_assertion(a);
                }),
                other => panic!("counter.cpl is safe: {other:?}"),
            }
        }
        let (first, last) = (&rounds[0], &rounds[rounds.len() - 1]);
        assert!(rounds.len() >= 2 && last.0.len() > first.0.len() && last.1.len() > 1);
    }
}
