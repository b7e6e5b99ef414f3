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

use crate::govern::{Category, GiveUp};
use crate::proof::{ProofAutomaton, ProofStateId};
use automata::bitset::BitSet;
use program::commutativity::CommutativityOracle;
use program::concurrent::{LetterId, ProductState, Program, Spec};
use reduction::order::{OrderContext, PreferenceOrder};
use reduction::persistent::{MembraneMode, PersistentSets};
use smt::term::{TermId, TermPool};
use std::collections::{BTreeSet, HashMap};

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
/// the current (hence any stronger) proof. Entries are bucketed by `q`
/// and then `ctx`, so the per-visit probe on the DFS hot path borrows its
/// way to one small bucket — no keys are cloned and no unrelated marked
/// state is scanned. Within a bucket, a new state is skipped when some
/// recorded entry has the same sleep set and an assertion subset.
#[derive(Clone, Debug, Default)]
pub struct UselessCache {
    map: HashMap<ProductState, HashMap<OrderContext, Vec<UselessEntry>>>,
}

/// One recorded useless state within a `(q, ctx)` bucket: its sleep set
/// and the (sorted) proof-assertion indices it was useless under.
type UselessEntry = (BitSet, Vec<u32>);

impl UselessCache {
    /// An empty cache.
    pub fn new() -> UselessCache {
        UselessCache::default()
    }

    /// Total recorded entries.
    pub fn len(&self) -> usize {
        self.map
            .values()
            .flat_map(|by_ctx| by_ctx.values())
            .map(Vec::len)
            .sum()
    }

    /// `true` if no entries are recorded.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub(crate) fn is_useless(
        &self,
        q: &ProductState,
        sleep: &BitSet,
        ctx: OrderContext,
        assertions: &[u32],
    ) -> bool {
        self.map
            .get(q)
            .and_then(|by_ctx| by_ctx.get(&ctx))
            .is_some_and(|entries| {
                entries
                    .iter()
                    .any(|(s, set)| s == sleep && is_subset(set, assertions))
            })
    }

    pub(crate) fn mark(
        &mut self,
        q: ProductState,
        sleep: BitSet,
        ctx: OrderContext,
        assertions: Vec<u32>,
    ) {
        let entry = self.map.entry(q).or_default().entry(ctx).or_default();
        // Keep only minimal sets per sleep set.
        if entry
            .iter()
            .any(|(s, set)| *s == sleep && is_subset(set, &assertions))
        {
            return;
        }
        entry.retain(|(s, set)| !(*s == sleep && is_subset(&assertions, set)));
        entry.push((sleep, assertions));
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

/// A DFS state `(q, Φ, S, ctx)`.
type Key = (ProductState, ProofStateId, BitSet, OrderContext);

struct Frame {
    key: Key,
    /// Letter taken from the parent to reach this frame.
    via: Option<LetterId>,
    explore: Vec<LetterId>,
    enabled: Vec<LetterId>,
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
}

impl<R: Recorder> Dfs<'_, R> {
    /// The one proof-check DFS. It walks from `(q0, phi0, ∅, 0)` and stops
    /// at the first uncovered accepting state, after `max_visited` states,
    /// or when the governor trips. With a `useless` cache it skips states
    /// the cache subsumes and marks cleanly explored ones.
    fn run(
        &mut self,
        phi0: ProofStateId,
        mut useless: Option<&mut UselessCache>,
        max_visited: usize,
        stats: &mut CheckStats,
    ) -> CheckResult {
        let governor = self.pool.governor().clone();
        let mut visited: HashMap<Key, VisitStatus> = HashMap::new();
        let mut stack: Vec<Frame> = Vec::new();
        let root: Key = (
            self.program.initial_state(),
            phi0,
            BitSet::new(self.program.num_letters()),
            0,
        );
        if self.skips(useless.as_deref(), &root, stats) {
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
            if frame.next >= frame.explore.len() {
                // Subtree done: pop, record, propagate taint.
                let frame = stack.pop().expect("frame exists");
                let status = if frame.tainted {
                    if let Some(parent) = stack.last_mut() {
                        parent.tainted = true;
                    }
                    VisitStatus::DoneTainted
                } else {
                    if let Some(useless) = useless.as_deref_mut() {
                        let (q, phi, sleep, ctx) = &frame.key;
                        useless.mark(
                            q.clone(),
                            sleep.clone(),
                            *ctx,
                            self.proof.assertion_set(*phi).to_vec(),
                        );
                    }
                    VisitStatus::DoneClean
                };
                visited.insert(frame.key, status);
                continue;
            }
            let a = frame.explore[frame.next];
            frame.next += 1;
            let next = self.successor(frame, a);
            match visited.get(&next) {
                Some(VisitStatus::OnStack | VisitStatus::DoneTainted) => {
                    frame.tainted = true;
                    continue;
                }
                Some(VisitStatus::DoneClean) => continue,
                None => {}
            }
            if self.skips(useless.as_deref(), &next, stats) {
                visited.insert(next, VisitStatus::DoneClean);
                continue;
            }
            if let Some(trace) = self.discover(next, Some(a), &mut visited, &mut stack, stats) {
                return CheckResult::Counterexample(trace);
            }
        }
        CheckResult::Proven
    }

    /// Probes the cross-round useless-state cache, if there is one.
    fn skips(&self, useless: Option<&UselessCache>, key: &Key, stats: &mut CheckStats) -> bool {
        let Some(useless) = useless else {
            return false;
        };
        let (q, phi, sleep, ctx) = key;
        stats.useless_probes += 1;
        let skip = useless.is_useless(q, sleep, *ctx, self.proof.assertion_set(*phi));
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
        visited: &mut HashMap<Key, VisitStatus>,
        stack: &mut Vec<Frame>,
        stats: &mut CheckStats,
    ) -> Option<Vec<LetterId>> {
        stats.visited += 1;
        let (q, phi, sleep, ctx) = &key;
        // Covered: the prefix is already proven infeasible.
        if self.proof.is_bottom(self.pool, *phi) {
            self.recorder.bottom(*phi);
            visited.insert(key, VisitStatus::DoneClean);
            return None;
        }
        if self.program.is_accepting(q, self.spec) {
            let safe = match self.spec {
                Spec::ErrorOf(_) => false, // reachable error, not refuted
                Spec::PrePost => self
                    .proof
                    .implies_post(self.pool, *phi, self.program.post()),
            };
            if !safe {
                return Some(stack.iter().filter_map(|f| f.via).chain(via).collect());
            }
            self.recorder.safe(*phi);
            visited.insert(key, VisitStatus::DoneClean);
            return None;
        }
        let enabled = self.program.enabled(q);
        let mut explore: Vec<LetterId> = match self.persistent {
            Some(ps) => {
                let mode = match self.spec {
                    Spec::PrePost => MembraneMode::Terminal,
                    Spec::ErrorOf(t) => MembraneMode::ErrorThread(t),
                };
                ps.compute(self.program, q, self.order, *ctx, mode)
            }
            None => enabled.clone(),
        };
        if self.config.use_sleep {
            explore.retain(|l| !sleep.contains(l.index()));
        }
        // Deterministic DFS order: most preferred letter first.
        explore.sort_by_key(|&l| self.order.rank(*ctx, l, self.program));
        visited.insert(key.clone(), VisitStatus::OnStack);
        stack.push(Frame {
            key,
            via,
            explore,
            enabled,
            next: 0,
            tainted: false,
        });
        None
    }

    /// The successor of `frame`'s state under `a`. Its sleep set holds the
    /// enabled letters that were asleep or preferred over `a` and commute
    /// with `a` (under `⋀Φ` when proof-sensitive).
    fn successor(&mut self, frame: &Frame, a: LetterId) -> Key {
        let (q, phi, sleep, ctx) = &frame.key;
        let (phi, ctx) = (*phi, *ctx);
        let next_q = self.program.step(q, a).expect("explored letter is enabled");
        let next_phi = self.proof.step(self.pool, self.program, phi, a);
        let next_ctx = self.order.step(ctx, a, self.program);
        self.recorder.edge(phi, a, next_phi);
        let mut next_sleep = BitSet::new(self.program.num_letters());
        if self.config.use_sleep {
            let condition: TermId = if self.config.proof_sensitive {
                self.proof.conjunction(phi)
            } else {
                TermPool::TRUE
            };
            for &b in &frame.enabled {
                let earlier = sleep.contains(b.index()) || self.order.less(ctx, b, a, self.program);
                if earlier
                    && self
                        .oracle
                        .commute_under(self.pool, self.program, condition, a, b)
                {
                    next_sleep.insert(b.index());
                    self.recorder.commutes(a, b, phi);
                }
            }
        }
        (next_q, next_phi, next_sleep, next_ctx)
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
    }
    .run(phi0, Some(useless), config.max_visited, stats);
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

/// The certificate recorder: the facts of one walk, sorted and deduplicated.
#[derive(Default)]
struct Recording {
    proof_sensitive: bool,
    edges: BTreeSet<(ProofStateId, LetterId, ProofStateId)>,
    bottoms: BTreeSet<ProofStateId>,
    safes: BTreeSet<ProofStateId>,
    claims: BTreeSet<(LetterId, LetterId, ProofStateId)>,
    ucommute: BTreeSet<(LetterId, LetterId)>,
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
    }
    .run(
        initial,
        None,
        config.max_visited.saturating_mul(RECORD_VISITED_HEADROOM),
        &mut CheckStats::default(),
    );
    (result == CheckResult::Proven).then(|| RecordedReduction {
        initial,
        edges: rec.edges.into_iter().collect(),
        bottoms: rec.bottoms.into_iter().collect(),
        safes: rec.safes.into_iter().collect(),
        claims: rec.claims.into_iter().collect(),
        ucommute: rec.ucommute.into_iter().collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let q = ProductState(vec![automata::dfa::StateId(0)]);
        let s = BitSet::new(4);
        c.mark(q.clone(), s.clone(), 0, vec![1, 2]);
        assert!(c.is_useless(&q, &s, 0, &[1, 2, 3]), "superset is skipped");
        assert!(c.is_useless(&q, &s, 0, &[1, 2]));
        assert!(!c.is_useless(&q, &s, 0, &[1]), "subset is not skipped");
        assert!(!c.is_useless(&q, &s, 1, &[1, 2]), "different context");
        // Marking a superset is a no-op; marking a subset replaces.
        c.mark(q.clone(), s.clone(), 0, vec![1, 2, 3]);
        assert_eq!(c.len(), 1);
        c.mark(q.clone(), s.clone(), 0, vec![1]);
        assert_eq!(c.len(), 1);
        assert!(c.is_useless(&q, &s, 0, &[1]));
    }
}
