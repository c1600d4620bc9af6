//! A small forward-dataflow framework over the SPMD IR.
//!
//! An [`Analysis`] supplies a per-variable fact type (a join
//! semilattice) and a transfer function; the runner walks a block in
//! execution order, joining environments at `if` merges and iterating
//! loop bodies to a fixpoint. Because every lattice here has finite
//! height and environments only grow upward under `join`, the
//! fixpoint terminates; [`MAX_FIXPOINT_ITERS`] is a belt-and-braces
//! bound, not a load-bearing one.
//!
//! Loop *headers* re-run on every fixpoint iteration (a `for` var is
//! redefined each trip; a `while` pre-block re-executes), so kill
//! effects inside transfer functions see the same order real
//! execution does. Transfer functions may be invoked several times
//! for one instruction — any findings they record must therefore be
//! deduplicated by the caller.

use otter_ir::*;
use std::collections::{BTreeMap, BTreeSet};

/// Upper bound on loop fixpoint iterations (the lattices in this
/// crate stabilise in 2–3).
const MAX_FIXPOINT_ITERS: usize = 16;

/// A join-semilattice fact.
pub trait Lattice: Clone + PartialEq {
    /// The "no information" element (absent environment entries).
    fn bottom() -> Self;
    /// Least upper bound.
    fn join(&self, other: &Self) -> Self;
}

/// A fact environment, keyed by variable unless an analysis tracks
/// something else (see [`Analysis::Key`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Env<F, K = Slot> {
    map: BTreeMap<K, F>,
}

impl<F: Lattice, K: Ord + Clone> Default for Env<F, K> {
    fn default() -> Self {
        Env {
            map: BTreeMap::new(),
        }
    }
}

impl<F: Lattice, K: Ord + Clone> Env<F, K> {
    /// Fact for a key (bottom when never set).
    pub fn get(&self, key: &K) -> F {
        self.map.get(key).cloned().unwrap_or_else(F::bottom)
    }

    pub fn set(&mut self, key: K, fact: F) {
        self.map.insert(key, fact);
    }

    /// Point-wise join with another environment (the `if` merge).
    pub fn join_with(&mut self, other: &Env<F, K>) {
        for (k, v) in &other.map {
            let joined = self.get(k).join(v);
            self.map.insert(k.clone(), joined);
        }
    }

    /// The keys currently carrying a fact.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.map.keys()
    }
}

/// Where the walk currently is: loop nesting and rank-divergent
/// control-flow nesting.
#[derive(Debug, Default)]
pub struct FlowCtx {
    /// Variables defined (at any depth) by each enclosing loop body,
    /// innermost last. Length doubles as the loop depth.
    pub loop_defs: Vec<BTreeSet<Slot>>,
    /// How many enclosing branches/loops have a rank-divergent
    /// condition (per [`Analysis::cond_divergent`]).
    pub divergent_depth: usize,
}

impl FlowCtx {
    pub fn in_loop(&self) -> bool {
        !self.loop_defs.is_empty()
    }

    pub fn divergent(&self) -> bool {
        self.divergent_depth > 0
    }

    /// Is `v` (re)defined by any enclosing loop's body — i.e. does it
    /// vary across iterations?
    pub fn defined_in_enclosing_loop(&self, v: Slot) -> bool {
        self.loop_defs.iter().any(|defs| defs.contains(&v))
    }
}

/// One forward analysis: a fact lattice plus a transfer function.
pub trait Analysis {
    type Fact: Lattice;
    /// What the environment maps to facts: a variable's [`Slot`], or
    /// some other value the analysis tracks.
    type Key: Ord + Clone;

    /// Apply one instruction's effect to the environment. Never
    /// recurses into nested bodies — the runner drives those.
    fn transfer(&mut self, instr: &Instr, env: &mut Env<Self::Fact, Self::Key>, ctx: &FlowCtx);

    /// Whether a (nominally replicated) scalar condition is actually
    /// rank-divergent under the current facts. Default: never.
    fn cond_divergent(&self, _cond: &SExpr, _env: &Env<Self::Fact, Self::Key>) -> bool {
        false
    }
}

/// All variables defined anywhere inside a block, nested bodies
/// included.
pub fn block_defs(body: &[Instr]) -> BTreeSet<Slot> {
    let mut defs = Vec::new();
    for (instr, _) in preorder(body) {
        instr.defs(&mut defs);
    }
    defs.into_iter().collect()
}

/// Run an analysis over a block in execution order.
pub fn run_block<A: Analysis>(
    a: &mut A,
    body: &[Instr],
    env: &mut Env<A::Fact, A::Key>,
    ctx: &mut FlowCtx,
) {
    for instr in body {
        match instr {
            Instr::If {
                cond,
                then_body,
                else_body,
            } => {
                a.transfer(instr, env, ctx);
                let div = a.cond_divergent(cond, env);
                if div {
                    ctx.divergent_depth += 1;
                }
                let mut else_env = env.clone();
                run_block(a, then_body, env, ctx);
                run_block(a, else_body, &mut else_env, ctx);
                env.join_with(&else_env);
                if div {
                    ctx.divergent_depth -= 1;
                }
            }
            Instr::While { pre, cond, body } => {
                let mut defs = block_defs(pre);
                defs.extend(block_defs(body));
                ctx.loop_defs.push(defs);
                for _ in 0..MAX_FIXPOINT_ITERS {
                    let before = env.clone();
                    a.transfer(instr, env, ctx);
                    run_block(a, pre, env, ctx);
                    let div = a.cond_divergent(cond, env);
                    if div {
                        ctx.divergent_depth += 1;
                    }
                    run_block(a, body, env, ctx);
                    if div {
                        ctx.divergent_depth -= 1;
                    }
                    env.join_with(&before);
                    if *env == before {
                        break;
                    }
                }
                ctx.loop_defs.pop();
            }
            Instr::For { body, .. } => {
                let mut defs = block_defs(body);
                let mut own = Vec::new();
                instr.defs(&mut own);
                defs.extend(own);
                ctx.loop_defs.push(defs);
                let div = for_bounds_divergent(a, instr, env);
                if div {
                    ctx.divergent_depth += 1;
                }
                for _ in 0..MAX_FIXPOINT_ITERS {
                    let before = env.clone();
                    // The header re-runs per iteration: the induction
                    // variable is redefined on every trip.
                    a.transfer(instr, env, ctx);
                    run_block(a, body, env, ctx);
                    env.join_with(&before);
                    if *env == before {
                        break;
                    }
                }
                if div {
                    ctx.divergent_depth -= 1;
                }
                ctx.loop_defs.pop();
            }
            _ => a.transfer(instr, env, ctx),
        }
    }
}

fn for_bounds_divergent<A: Analysis>(a: &A, instr: &Instr, env: &Env<A::Fact, A::Key>) -> bool {
    let Instr::For {
        start, step, stop, ..
    } = instr
    else {
        return false;
    };
    [start, step, stop]
        .into_iter()
        .any(|e| a.cond_divergent(e, env))
}

#[cfg(test)]
mod tests {
    use super::*;
    use otter_ir::by_name::*;

    /// A toy constant-ness analysis to exercise the runner: a var is
    /// Const if every reaching def assigned a literal.
    #[derive(Clone, PartialEq, Debug)]
    enum K {
        Bot,
        Const,
        Var,
    }

    impl Lattice for K {
        fn bottom() -> Self {
            K::Bot
        }
        fn join(&self, other: &Self) -> Self {
            match (self, other) {
                (K::Bot, x) | (x, K::Bot) => x.clone(),
                (a, b) if a == b => a.clone(),
                _ => K::Var,
            }
        }
    }

    struct ConstA;

    impl Analysis for ConstA {
        type Fact = K;
        type Key = Slot;
        fn transfer(&mut self, instr: &Instr, env: &mut Env<K>, _ctx: &FlowCtx) {
            if let Instr::AssignScalar { dst, src } = instr {
                let f = match src {
                    SExpr::Const(_) => K::Const,
                    _ => K::Var,
                };
                env.set(*dst, f);
            }
        }
    }

    fn assign(dst: &str, e: SExpr) -> Instr {
        Instr::AssignScalar {
            dst: v(dst),
            src: e,
        }
    }

    #[test]
    fn if_merge_joins_branches() {
        let body = vec![Instr::If {
            cond: var("c"),
            then_body: vec![assign("x", SExpr::c(1.0))],
            else_body: vec![assign("x", var("y"))],
        }];
        let mut env = Env::default();
        run_block(&mut ConstA, &body, &mut env, &mut FlowCtx::default());
        assert_eq!(env.get(&v("x")), K::Var, "const joined with non-const");
    }

    #[test]
    fn loop_reaches_fixpoint() {
        // x starts Const, the loop assigns it from y → joins to Var.
        let body = vec![
            assign("x", SExpr::c(0.0)),
            Instr::For {
                var: v("i"),
                start: SExpr::c(1.0),
                step: SExpr::c(1.0),
                stop: SExpr::c(3.0),
                body: vec![assign("x", var("y"))],
            },
        ];
        let mut env = Env::default();
        run_block(&mut ConstA, &body, &mut env, &mut FlowCtx::default());
        assert_eq!(env.get(&v("x")), K::Var);
    }

    #[test]
    fn loop_defs_tracked() {
        let body = vec![assign("x", var("q"))];
        let defs = block_defs(&body);
        assert!(defs.contains(&v("x")));
        assert!(!defs.contains(&v("q")));
    }
}
