//! The three-level commutativity oracle.
//!
//! The paper's tool (§8) determines commutativity of two statements by
//! combining a cheap syntactic check — neither statement writes a variable
//! accessed by the other — with a more precise SMT-based check, optionally
//! *proof-sensitive* (Def. 7.3: `a ↷↷_φ b` iff `a;b` and `b;a` have the
//! same semantics from states satisfying φ). Whenever the SMT solver cannot
//! settle a query, statements are conservatively declared non-commutative
//! — always sound.
//!
//! Results are cached per (letter, letter) and per (letter, letter, φ);
//! conditional commutativity is monotone in φ, so the unconditional cache
//! doubles as a fast path for every condition.

use crate::concurrent::{LetterId, Program};
use crate::stmt::compose_relation;
use automata::fxhash::FxHashMap;
use smt::cube::Dnf;
use smt::linear::VarId;
use smt::solver::check;
use smt::term::{TermId, TermPool};
use std::collections::HashMap;

/// How much work the oracle may do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommutativityLevel {
    /// Disjoint write/access sets only.
    Syntactic,
    /// Syntactic, then SMT equivalence of `a;b` and `b;a`.
    Semantic,
}

/// Counters exposed for the evaluation harness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CommutativityStats {
    /// Queries answered by the syntactic check.
    pub syntactic_hits: usize,
    /// SMT equivalence checks performed.
    pub semantic_checks: usize,
    /// Queries answered from a cache.
    pub cache_hits: usize,
}

/// Caching commutativity oracle for a fixed program.
///
/// # Example
///
/// ```no_run
/// use program::commutativity::{CommutativityLevel, CommutativityOracle};
/// # fn demo(pool: &mut smt::TermPool, program: &program::Program,
/// #         a: program::LetterId, b: program::LetterId) {
/// let mut oracle = CommutativityOracle::new(CommutativityLevel::Semantic);
/// let commute = oracle.commute(pool, program, a, b);
/// # let _ = commute;
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct CommutativityOracle {
    level: CommutativityLevel,
    unconditional: FxHashMap<(LetterId, LetterId), bool>,
    conditional: FxHashMap<(LetterId, LetterId, TermId), bool>,
    primed: HashMap<VarId, VarId>,
    stats: CommutativityStats,
}

impl CommutativityOracle {
    /// Creates an oracle at the given level.
    pub fn new(level: CommutativityLevel) -> CommutativityOracle {
        CommutativityOracle {
            level,
            unconditional: FxHashMap::default(),
            conditional: FxHashMap::default(),
            primed: HashMap::new(),
            stats: CommutativityStats::default(),
        }
    }

    /// The configured level.
    pub fn level(&self) -> CommutativityLevel {
        self.level
    }

    /// Query counters.
    pub fn stats(&self) -> CommutativityStats {
        self.stats
    }

    /// Unconditional commutativity `a ↷↷ b`.
    ///
    /// Statements of the same thread never commute (§4's standing
    /// assumption, needed for closedness of `L(P)`).
    pub fn commute(
        &mut self,
        pool: &mut TermPool,
        program: &Program,
        a: LetterId,
        b: LetterId,
    ) -> bool {
        self.commute_under(pool, program, TermPool::TRUE, a, b)
    }

    /// The cached answer of the unconditional query `a ↷↷ b`, if any
    /// query has settled it. Answers no query and counts nothing.
    pub fn cached(&self, a: LetterId, b: LetterId) -> Option<bool> {
        self.unconditional.get(&(a.min(b), a.max(b))).copied()
    }

    /// Conditional commutativity `a ↷↷_φ b` (Def. 7.3). Monotone: anything
    /// commuting under `true` commutes under every φ.
    pub fn commute_under(
        &mut self,
        pool: &mut TermPool,
        program: &Program,
        phi: TermId,
        a: LetterId,
        b: LetterId,
    ) -> bool {
        if program.thread_of(a) == program.thread_of(b) {
            return false;
        }
        let key = if a <= b { (a, b) } else { (b, a) };
        if let Some(&r) = self.unconditional.get(&key) {
            self.stats.cache_hits += 1;
            if r {
                return true; // monotone in φ
            }
            if phi == TermPool::TRUE || self.level == CommutativityLevel::Syntactic {
                return false;
            }
            // Cached as non-commuting, so the syntactic check already
            // failed: go straight to the conditional check.
        } else {
            // Syntactic check (condition-independent), once per pair.
            let sa = program.statement(a);
            let sb = program.statement(b);
            let disjoint = sa.writes().iter().all(|w| !sb.accesses().contains(w))
                && sb.writes().iter().all(|w| !sa.accesses().contains(w));
            if disjoint {
                self.stats.syntactic_hits += 1;
                self.unconditional.insert(key, true);
                return true;
            }
            if self.level == CommutativityLevel::Syntactic {
                self.unconditional.insert(key, false);
                return false;
            }
        }
        // Semantic check, possibly conditional.
        let ckey = (key.0, key.1, phi);
        if let Some(&r) = self.conditional.get(&ckey) {
            self.stats.cache_hits += 1;
            return r;
        }
        let result = self.semantic_check(pool, program, phi, key.0, key.1);
        if phi == TermPool::TRUE {
            self.unconditional.insert(key, result);
        }
        self.conditional.insert(ckey, result);
        result
    }

    fn primed_var(&mut self, pool: &mut TermPool, v: VarId) -> VarId {
        if let Some(&p) = self.primed.get(&v) {
            return p;
        }
        let base = pool.var_name(v).to_owned();
        let p = pool.fresh_var(&format!("{base}!post"));
        self.primed.insert(v, p);
        p
    }

    fn semantic_check(
        &mut self,
        pool: &mut TermPool,
        program: &Program,
        phi: TermId,
        a: LetterId,
        b: LetterId,
    ) -> bool {
        self.stats.semantic_checks += 1;
        let sa = program.statement(a).clone();
        let sb = program.statement(b).clone();
        let mut writes: Vec<VarId> = sa.writes().union(sb.writes()).copied().collect();
        writes.dedup();
        let primed: HashMap<VarId, VarId> = writes
            .iter()
            .map(|&w| (w, self.primed_var(pool, w)))
            .collect();
        let (rel_ab, aux_ab) = compose_relation(pool, &sa, &sb, &primed);
        let (rel_ba, aux_ba) = compose_relation(pool, &sb, &sa, &primed);
        // Eliminate auxiliary havoc values (existential); give up on
        // inexact projection.
        let Some(rel_ab) = eliminate_aux(pool, rel_ab, &aux_ab) else {
            return false;
        };
        let Some(rel_ba) = eliminate_aux(pool, rel_ba, &aux_ba) else {
            return false;
        };
        // φ → (rel_ab ↔ rel_ba): two unsat checks, conservative on Unknown.
        let not_ba = pool.not(rel_ba);
        if !check(pool, &[phi, rel_ab, not_ba]).is_unsat() {
            return false;
        }
        let not_ab = pool.not(rel_ab);
        check(pool, &[phi, rel_ba, not_ab]).is_unsat()
    }
}

/// Existentially eliminates `aux` from `t`; `None` if any projection step
/// is inexact over ℤ.
fn eliminate_aux(pool: &mut TermPool, t: TermId, aux: &[VarId]) -> Option<TermId> {
    if aux.is_empty() {
        return Some(t);
    }
    let mut dnf = Dnf::from_term(pool, t);
    for &v in aux {
        dnf = dnf.eliminate(v);
    }
    dnf.is_exact().then(|| dnf.to_term(pool))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stmt::{SimpleStmt, Statement};
    use crate::thread::{Thread, ThreadId};
    use automata::bitset::BitSet;
    use automata::dfa::DfaBuilder;
    use smt::linear::LinExpr;

    /// Builds a two-thread program from one statement per thread.
    fn two_stmt_program(
        pool: &mut TermPool,
        mk: impl Fn(&mut TermPool, ThreadId) -> Statement,
    ) -> Program {
        let mut b = Program::builder("test");
        let p = pool.var("pendingIo");
        b.add_global(p, 1);
        let s0 = mk(pool, ThreadId(0));
        let s1 = mk(pool, ThreadId(1));
        let l0 = b.add_statement(s0);
        let l1 = b.add_statement(s1);
        for l in [l0, l1] {
            let mut cfg = DfaBuilder::new();
            let entry = cfg.add_state(false);
            let exit = cfg.add_state(true);
            cfg.add_transition(entry, l, exit);
            b.add_thread(Thread::new("t", cfg.build(entry), BitSet::new(2)));
        }
        b.build(pool)
    }

    #[test]
    fn same_thread_never_commutes() {
        let mut pool = TermPool::new();
        let x = pool.var("x");
        let program = {
            let mut b = Program::builder("p");
            b.add_global(x, 0);
            let s1 = b.add_statement(Statement::simple(
                ThreadId(0),
                "a",
                SimpleStmt::Havoc(x),
                &pool,
            ));
            let s2 = b.add_statement(Statement::simple(
                ThreadId(0),
                "b",
                SimpleStmt::Havoc(pool.var("y")),
                &pool,
            ));
            let mut cfg = DfaBuilder::new();
            let q0 = cfg.add_state(false);
            let q1 = cfg.add_state(false);
            let q2 = cfg.add_state(true);
            cfg.add_transition(q0, s1, q1);
            cfg.add_transition(q1, s2, q2);
            b.add_thread(Thread::new("t", cfg.build(q0), BitSet::new(3)));
            b.build(&mut pool)
        };
        let mut oracle = CommutativityOracle::new(CommutativityLevel::Semantic);
        assert!(!oracle.commute(&mut pool, &program, LetterId(0), LetterId(1)));
    }

    #[test]
    fn disjoint_variables_commute_syntactically() {
        let mut pool = TermPool::new();
        let program = {
            let mut b = Program::builder("p");
            let x = pool.var("x");
            let y = pool.var("y");
            b.add_global(x, 0);
            b.add_global(y, 0);
            let lx = b.add_statement(Statement::simple(
                ThreadId(0),
                "x := 1",
                SimpleStmt::Assign(x, LinExpr::constant(1)),
                &pool,
            ));
            let ly = b.add_statement(Statement::simple(
                ThreadId(1),
                "y := 1",
                SimpleStmt::Assign(y, LinExpr::constant(1)),
                &pool,
            ));
            for l in [lx, ly] {
                let mut cfg = DfaBuilder::new();
                let entry = cfg.add_state(false);
                let exit = cfg.add_state(true);
                cfg.add_transition(entry, l, exit);
                b.add_thread(Thread::new("t", cfg.build(entry), BitSet::new(2)));
            }
            b.build(&mut pool)
        };
        let mut oracle = CommutativityOracle::new(CommutativityLevel::Syntactic);
        assert!(oracle.commute(&mut pool, &program, LetterId(0), LetterId(1)));
        assert_eq!(oracle.stats().syntactic_hits, 1);
        // Cached on repeat.
        assert!(oracle.commute(&mut pool, &program, LetterId(1), LetterId(0)));
        assert_eq!(oracle.stats().cache_hits, 1);
    }

    #[test]
    fn increments_commute_semantically_but_not_syntactically() {
        // pendingIo := pendingIo + 1 in two threads: same variable, but the
        // compositions agree.
        let mut pool = TermPool::new();
        let program = two_stmt_program(&mut pool, |pool, t| {
            let p = pool.var("pendingIo");
            Statement::simple(
                t,
                "enter",
                SimpleStmt::Assign(p, LinExpr::var(p).add(&LinExpr::constant(1))),
                pool,
            )
        });
        let mut syn = CommutativityOracle::new(CommutativityLevel::Syntactic);
        assert!(!syn.commute(&mut pool, &program, LetterId(0), LetterId(1)));
        let mut sem = CommutativityOracle::new(CommutativityLevel::Semantic);
        assert!(sem.commute(&mut pool, &program, LetterId(0), LetterId(1)));
        assert_eq!(sem.stats().semantic_checks, 1);
    }

    #[test]
    fn write_write_conflict_does_not_commute() {
        let mut pool = TermPool::new();
        let program = {
            let mut b = Program::builder("p");
            let x = pool.var("x");
            b.add_global(x, 0);
            let l0 = b.add_statement(Statement::simple(
                ThreadId(0),
                "x := 1",
                SimpleStmt::Assign(x, LinExpr::constant(1)),
                &pool,
            ));
            let l1 = b.add_statement(Statement::simple(
                ThreadId(1),
                "x := 2",
                SimpleStmt::Assign(x, LinExpr::constant(2)),
                &pool,
            ));
            for l in [l0, l1] {
                let mut cfg = DfaBuilder::new();
                let entry = cfg.add_state(false);
                let exit = cfg.add_state(true);
                cfg.add_transition(entry, l, exit);
                b.add_thread(Thread::new("t", cfg.build(entry), BitSet::new(2)));
            }
            b.build(&mut pool)
        };
        let mut sem = CommutativityOracle::new(CommutativityLevel::Semantic);
        assert!(!sem.commute(&mut pool, &program, LetterId(0), LetterId(1)));
    }

    /// The §2 example: enter (pendingIo += 1) vs the exit block
    /// (pendingIo -= 1; if pendingIo == 0 then stoppingEvent := true).
    /// They do NOT commute unconditionally (the exit may or may not set
    /// the event depending on order), but they DO commute under
    /// pendingIo > 1.
    fn enter_exit_program(pool: &mut TermPool) -> Program {
        let p = pool.var("pendingIo");
        let ev = pool.var("stoppingEvent");
        let mut b = Program::builder("bt");
        b.add_global(p, 1);
        b.add_global(ev, 0);
        let enter = b.add_statement(Statement::simple(
            ThreadId(0),
            "enter",
            SimpleStmt::Assign(p, LinExpr::var(p).add(&LinExpr::constant(1))),
            pool,
        ));
        let p_zero = pool.eq_const(p, 0);
        let p_nonzero = pool.not(p_zero);
        let dec = LinExpr::var(p).sub(&LinExpr::constant(1));
        let exit = b.add_statement(Statement::atomic(
            ThreadId(1),
            "exit",
            vec![
                vec![
                    SimpleStmt::Assign(p, dec.clone()),
                    SimpleStmt::Assume(p_zero),
                    SimpleStmt::Assign(ev, LinExpr::constant(1)),
                ],
                vec![SimpleStmt::Assign(p, dec), SimpleStmt::Assume(p_nonzero)],
            ],
            pool,
        ));
        for l in [enter, exit] {
            let mut cfg = DfaBuilder::new();
            let e0 = cfg.add_state(false);
            let e1 = cfg.add_state(true);
            cfg.add_transition(e0, l, e1);
            b.add_thread(Thread::new("t", cfg.build(e0), BitSet::new(2)));
        }
        b.build(pool)
    }

    #[test]
    fn conditional_commutativity_enter_vs_exit() {
        let mut pool = TermPool::new();
        let program = enter_exit_program(&mut pool);
        let p = pool.var("pendingIo");
        let mut oracle = CommutativityOracle::new(CommutativityLevel::Semantic);
        assert!(
            !oracle.commute(&mut pool, &program, LetterId(0), LetterId(1)),
            "enter and exit must not commute unconditionally"
        );
        let gt1 = pool.ge_const(p, 2);
        assert!(
            oracle.commute_under(&mut pool, &program, gt1, LetterId(0), LetterId(1)),
            "enter and exit commute under pendingIo > 1"
        );
        // Monotonicity fast path: commuting pairs stay commuting under φ.
        let stats_before = oracle.stats();
        assert!(oracle.commute_under(&mut pool, &program, gt1, LetterId(0), LetterId(1)));
        assert!(oracle.stats().cache_hits > stats_before.cache_hits);
    }

    #[test]
    fn repeated_queries_keep_results_and_counters() {
        // Each level sees the same query sequence three times. The answers
        // must repeat, and the counters must match those of the oracle
        // that re-ran the syntactic check on every query of a pair cached
        // as non-commuting: skipping that check changes no counter.
        for (level, expected) in [
            (CommutativityLevel::Semantic, EXPECTED_SEMANTIC),
            (CommutativityLevel::Syntactic, EXPECTED_SYNTACTIC),
        ] {
            let mut pool = TermPool::new();
            let program = enter_exit_program(&mut pool);
            let p = pool.var("pendingIo");
            let conditions = [TermPool::TRUE, pool.ge_const(p, 2), pool.ge_const(p, 5)];
            let mut oracle = CommutativityOracle::new(level);
            let mut passes = Vec::new();
            for _ in 0..3 {
                let mut answers = Vec::new();
                for &phi in conditions.iter().rev().chain(&conditions) {
                    for (a, b) in [(0, 1), (1, 0), (0, 0)] {
                        answers.push(oracle.commute_under(
                            &mut pool,
                            &program,
                            phi,
                            LetterId(a),
                            LetterId(b),
                        ));
                    }
                }
                let s = oracle.stats();
                passes.push((answers, [s.syntactic_hits, s.semantic_checks, s.cache_hits]));
            }
            assert!(passes.iter().all(|(answers, _)| *answers == passes[0].0));
            let counters: Vec<[usize; 3]> = passes.iter().map(|(_, c)| *c).collect();
            assert_eq!(counters, expected, "{level:?}");
        }
    }

    const EXPECTED_SEMANTIC: [[usize; 3]; 3] = [[0, 3, 13], [0, 3, 33], [0, 3, 53]];
    const EXPECTED_SYNTACTIC: [[usize; 3]; 3] = [[0, 0, 11], [0, 0, 23], [0, 0, 35]];
}
