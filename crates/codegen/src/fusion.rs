//! Loop fusion over IR loop nests.
//!
//! The peephole pass (pass 6) collapses *calls*; this pass collapses
//! *loops*: a producer whose only consumer is the next instruction in
//! the same block (past any `Free`s) fuses into it, eliminating the
//! full-matrix temporary between them (and the `Free` the frees pass
//! inserted for it). The result is always the paper's one per-element
//! loop, an [`Instr::ElemWise`] or an [`Instr::Fused`] with a head
//! and/or a tail, built by two moves:
//!
//! 1. **Absorb a producer** into an `ElemWise` consumer. An `ElemWise`
//!    producer's expression substitutes into the consumer's `Mat(tmp)`
//!    leaves, so two loops become one. A `MatMul`/`MatVec` producer
//!    becomes the loop's [`Product`] head: the loop overwrites the
//!    product buffer in place.
//! 2. **Attach a tail**: a `Reduce` or `ColReduce` of the loop's
//!    destination folds each element as it is computed ([`Tail`]), so
//!    the destination is never stored. Every fold but the boolean
//!    `any`/`all` attaches, and so does `norm`; `trapz` needs neighbour
//!    halos over the stored vector.
//!
//! Before both, an `outer(u, v)` or `eye(n)` producer becomes a
//! generator leaf ([`EwExpr::Gen`]) of the one later `ElemWise` that
//! reads it: the loop computes `u[i] * v[j]` or `(i == j)` for each
//! element it writes, so the full-size product or identity never
//! exists. The producer need not be adjacent (see [`try_generator`]).
//!
//! Legality is deliberately strict: the temporary must be
//! compiler-generated (an `ML_tmp*` or an SSA rename `x__N`), every
//! read of it in its frame must sit inside the consumer, and it must
//! not escape as a function output or as a web the script's workspace
//! reports (an exit web). In both moves only `Free`s of other names
//! lie between producer and consumer, so fusing never reorders reads
//! or writes — results are bit-identical with fusion on or off. A loop
//! holding a generator leaf substitutes into one read only, so that it
//! gathers once. The pass runs after `frees` (so the temporary's `Free`
//! exists to consume) and iterates to a fixed point so chains fuse
//! end-to-end.

use otter_ir::*;

/// What one fusion run rewrote (exposed for the ablation bench).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FusionStats {
    /// ElemWise → ElemWise substitutions (two loops → one).
    pub elemwise_chains: usize,
    /// MatMul products absorbed as a loop's head.
    pub matmul_epilogues: usize,
    /// MatVec products absorbed as a loop's head.
    pub matvec_epilogues: usize,
    /// Reduce tails: whole-object folds on the fly.
    pub reduce_epilogues: usize,
    /// ColReduce tails: column folds on the fly.
    pub col_reduce_epilogues: usize,
    /// Outer products and identities generated inside their consumer.
    pub generator_leaves: usize,
    /// Full-matrix temporaries no longer materialized.
    pub temps_eliminated: usize,
    /// `Free` instructions consumed along with their temporaries.
    pub frees_consumed: usize,
}

impl FusionStats {
    pub fn fused(&self) -> usize {
        self.elemwise_chains
            + self.matmul_epilogues
            + self.matvec_epilogues
            + self.reduce_epilogues
            + self.col_reduce_epilogues
            + self.generator_leaves
    }
}

/// Fuse a program in place; returns what was rewritten.
pub fn fuse(p: &mut IrProgram) -> FusionStats {
    let mut stats = FusionStats::default();
    for (frame, live_out) in p.frames_mut() {
        let mut scope = Scope {
            counts: read_counts(&frame.body, frame.vars.len()),
            eligible: frame.vars.iter().map(|(_, v)| eligible(&v.name)).collect(),
            live_out,
        };
        // F5 first, in one walk. A generator leaf changes no other
        // variable's read count, so the first count serves it and the
        // two moves' first round alike.
        visit_blocks_mut(&mut frame.body, &[], &mut |block, _| {
            let mut i = 0;
            while i < block.len() {
                if !try_generator(block, i, &scope, &mut stats) {
                    i += 1;
                }
            }
        });
        // One site per iteration: every other rewrite invalidates the
        // read counts, so recount the frame (programs are small).
        while fuse_one(&mut frame.body, &scope, &mut stats) {
            scope.counts = read_counts(&frame.body, frame.vars.len());
        }
    }
    stats
}

/// What legality reads of one frame: its read counts, which of its
/// variables are compiler-made, and what is live when it ends.
struct Scope {
    counts: Vec<usize>,
    eligible: Vec<bool>,
    live_out: Vec<Slot>,
}

/// A temporary the compiler made up (never a user variable): an
/// `ML_tmp*` or an SSA rename `x__N`.
fn eligible(name: &str) -> bool {
    is_temp(name) || split_web(name).is_some()
}

/// Read occurrences of each of a frame's `n` slots across its body
/// (`Instr::reads` recurses into nested blocks; `Free` is not a read).
fn read_counts(body: &[Instr], n: usize) -> Vec<usize> {
    let mut reads = Vec::new();
    for i in body {
        i.reads(&mut reads);
    }
    let mut counts = vec![0; n];
    for r in reads {
        counts[r.index()] += 1;
    }
    counts
}

/// Occurrences of `Mat(t)` in an element-wise expression.
fn mat_uses(expr: &EwExpr, t: Slot) -> usize {
    let mut mats = Vec::new();
    expr.mat_operands(&mut mats);
    mats.iter().filter(|&&m| m == t).count()
}

/// Replace every `Mat(t)` leaf with a copy of `sub`.
fn substitute(expr: &EwExpr, t: Slot, sub: &EwExpr) -> EwExpr {
    match expr {
        EwExpr::Mat(m) if *m == t => sub.clone(),
        EwExpr::Mat(_) | EwExpr::Scalar(_) | EwExpr::Gen { .. } => expr.clone(),
        EwExpr::Neg(x) => EwExpr::Neg(Box::new(substitute(x, t, sub))),
        EwExpr::Not(x) => EwExpr::Not(Box::new(substitute(x, t, sub))),
        EwExpr::Bin(op, a, b) => EwExpr::Bin(
            *op,
            Box::new(substitute(a, t, sub)),
            Box::new(substitute(b, t, sub)),
        ),
        EwExpr::Call(f, args) => {
            EwExpr::Call(*f, args.iter().map(|a| substitute(a, t, sub)).collect())
        }
    }
}

/// Every read of `t` in its frame sits inside the adjacent consumer,
/// and `t` never escapes the frame (function output, exit web).
fn dead_after(t: Slot, uses_in_consumer: usize, scope: &Scope) -> bool {
    scope.eligible[t.index()]
        && uses_in_consumer > 0
        && !scope.live_out.contains(&t)
        && scope.counts[t.index()] == uses_in_consumer
}

/// Folds that fuse with their producer: every MATLAB fold but the
/// boolean `any`/`all`. F3 also takes `norm`'s x·x fold; `trapz` needs
/// neighbour halos and never fuses.
fn fusible(op: ColRedOp) -> bool {
    !matches!(op, ColRedOp::Any | ColRedOp::All)
}

/// Find one fusion site (left to right, outer before nested) and apply
/// it. Returns whether anything changed.
fn fuse_one(block: &mut Vec<Instr>, scope: &Scope, stats: &mut FusionStats) -> bool {
    let mut i = 0;
    while i < block.len() {
        // The consumer is the next instruction that is not a `Free`: a
        // free of another name touches nothing the pair reads or writes.
        let next = (i + 1..block.len()).find(|&j| !matches!(block[j], Instr::Free { .. }));
        if let Some(j) = next {
            let (producer, consumer) = (&block[i], &block[j]);
            let fused = absorb(producer, consumer, scope, stats)
                .or_else(|| attach(producer, consumer, scope, stats));
            if let Some((fused, tmp)) = fused {
                block[i] = fused;
                block.remove(j);
                consume_free(block, i + 1, tmp, stats);
                stats.temps_eliminated += 1;
                return true;
            }
        }
        // Recurse into nested blocks.
        let nested = match &mut block[i] {
            Instr::If {
                then_body,
                else_body,
                ..
            } => fuse_one(then_body, scope, stats) || fuse_one(else_body, scope, stats),
            Instr::While { pre, body, .. } => {
                // The frame's read counts already include the
                // condition's reads, so no extra liveness threading is
                // needed.
                fuse_one(pre, scope, stats) || fuse_one(body, scope, stats)
            }
            Instr::For { body, .. } => fuse_one(body, scope, stats),
            _ => false,
        };
        if nested {
            return true;
        }
        i += 1;
    }
    false
}

/// Remove the `Free` of an eliminated temporary `t` from the run of
/// `Free`s at `block[from..]` (present for `ML_tmp*`; SSA renames never
/// got one).
fn consume_free(block: &mut Vec<Instr>, from: usize, t: Slot, stats: &mut FusionStats) {
    let mut run = block[from..]
        .iter()
        .take_while(|i| matches!(i, Instr::Free { .. }));
    if let Some(k) = run.position(|i| matches!(i, Instr::Free { name } if *name == t)) {
        block.remove(from + k);
        stats.frees_consumed += 1;
    }
}

/// F5: `t = outer(u, v)` or `t = eye(n)` at `block[i]` becomes a
/// generator leaf of the one later `ElemWise` that reads `t`. Legal
/// when `t` dies in that loop, nothing in between reads or writes `t`
/// or writes `u`, `v` or `n`'s inputs, and no control flow lies in
/// between. A `Free` of an input in between moves to just after the
/// loop, and the `Free` of `t` among the ones following it goes.
fn try_generator(block: &mut Vec<Instr>, i: usize, scope: &Scope, stats: &mut FusionStats) -> bool {
    let (Some(gen), Some(t)) = (Generator::of(&block[i]), block[i].dst()) else {
        return false;
    };
    if !dead_after(t, 1, scope) {
        return false;
    }
    let mut inputs = Vec::new();
    block[i].reads(&mut inputs);
    let mut moved = Vec::new();
    let mut consumer = None;
    for (j, instr) in block.iter().enumerate().skip(i + 1) {
        match instr {
            Instr::ElemWise { expr, .. } if mat_uses(expr, t) == 1 => {
                consumer = Some(j);
                break;
            }
            Instr::Free { name } if inputs.contains(name) => moved.push(j),
            Instr::Free { name } if *name == t => return false,
            Instr::If { .. }
            | Instr::While { .. }
            | Instr::For { .. }
            | Instr::Break
            | Instr::Continue => return false,
            _ => {
                let (mut reads, mut defs) = (Vec::new(), Vec::new());
                instr.reads(&mut reads);
                instr.defs(&mut defs);
                if reads.contains(&t) || defs.iter().any(|d| *d == t || inputs.contains(d)) {
                    return false;
                }
            }
        }
    }
    let Some(j) = consumer else {
        return false;
    };
    // Remove the producer and the moved Frees, from the back.
    let frees: Vec<Instr> = moved.iter().rev().map(|&k| block.remove(k)).collect();
    block.remove(i);
    let j = j - 1 - frees.len();
    if let Instr::ElemWise { expr, .. } = &mut block[j] {
        let leaf = EwExpr::Gen {
            tmp: t,
            gen: Box::new(gen),
        };
        *expr = substitute(expr, t, &leaf);
    }
    consume_free(block, j + 1, t, stats);
    for f in frees {
        block.insert(j + 1, f);
    }
    stats.generator_leaves += 1;
    stats.temps_eliminated += 1;
    true
}

/// Move 1: absorb a producer into the adjacent `ElemWise` that reads
/// it. Returns the fused instruction and the eliminated temporary.
fn absorb(
    producer: &Instr,
    consumer: &Instr,
    scope: &Scope,
    stats: &mut FusionStats,
) -> Option<(Instr, Slot)> {
    let Instr::ElemWise { dst, expr } = consumer else {
        return None;
    };
    let (Instr::ElemWise { dst: t, .. }
    | Instr::MatMul { dst: t, .. }
    | Instr::MatVec { dst: t, .. }) = producer
    else {
        return None;
    };
    let t = *t;
    let uses = mat_uses(expr, t);
    if !dead_after(t, uses, scope) {
        return None;
    }
    let fused = match producer {
        Instr::ElemWise { expr: e1, .. } if uses == 1 || e1.generators().is_empty() => {
            stats.elemwise_chains += 1;
            Instr::ElemWise {
                dst: *dst,
                expr: substitute(expr, t, e1),
            }
        }
        Instr::MatMul { .. } | Instr::MatVec { .. } => {
            let head = Product::of(producer)?;
            match head {
                Product::MatMul { .. } => stats.matmul_epilogues += 1,
                Product::MatVec { .. } => stats.matvec_epilogues += 1,
            }
            let tail = Tail::Store { dst: *dst };
            Instr::fused(Some(head), expr.clone(), tail)
        }
        _ => return None,
    };
    Some((fused, t))
}

/// Move 2: attach the adjacent fold of a loop's stored destination as
/// the loop's tail. Returns the fused instruction and the eliminated
/// temporary.
fn attach(
    producer: &Instr,
    consumer: &Instr,
    scope: &Scope,
    stats: &mut FusionStats,
) -> Option<(Instr, Slot)> {
    let (head, expr, t) = match producer {
        Instr::ElemWise { dst, expr } => (None, expr, *dst),
        Instr::Fused(f) => match f.tail() {
            Tail::Store { dst } => (f.head(), f.expr(), *dst),
            _ => return None,
        },
        _ => return None,
    };
    let tail = match consumer {
        Instr::Reduce { dst, op, m }
            if *m == t && (matches!(op, RedOp::Fold(f) if fusible(*f)) || *op == RedOp::Norm2) =>
        {
            Tail::Reduce {
                dst: *dst,
                op: *op,
                tmp: t,
            }
        }
        Instr::ColReduce { dst, op, m } if *m == t && fusible(*op) => Tail::ColReduce {
            dst: *dst,
            op: *op,
            tmp: t,
        },
        _ => return None,
    };
    if !dead_after(t, 1, scope) {
        return None;
    }
    match tail {
        Tail::ColReduce { .. } => stats.col_reduce_epilogues += 1,
        _ => stats.reduce_epilogues += 1,
    }
    Some((Instr::fused(head.cloned(), expr.clone(), tail), t))
}

#[cfg(test)]
mod tests {
    use super::*;
    use otter_ir::by_name::*;

    fn prog(main: Vec<Instr>) -> IrProgram {
        program(main)
    }

    #[test]
    fn matmul_epilogue_fuses_and_consumes_free() {
        // tc kernel shape: c__1 = c*c; c = c__1 > 0 (SSA rename, no Free).
        let mut p = prog(vec![
            Instr::MatMul {
                dst: v("ML_tmp1"),
                a: v("c"),
                b: v("c"),
            },
            Instr::ElemWise {
                dst: v("c"),
                expr: EwExpr::bin(EwOp::Gt, mat("ML_tmp1"), EwExpr::Scalar(SExpr::c(0.0))),
            },
            Instr::Free { name: v("ML_tmp1") },
        ]);
        let stats = fuse(&mut p);
        assert_eq!(stats.matmul_epilogues, 1);
        assert_eq!(stats.frees_consumed, 1);
        assert_eq!(p.main.body.len(), 1);
        assert_eq!(p.main.body[0].opcode(), "matmul-ew");
        assert_eq!(p.main.body[0].dst(), Some(v("c")));
        assert!(matches!(&p.main.body[0], Instr::Fused(f)
                if f.head().map(Product::tmp) == Some(v("ML_tmp1"))));
    }

    #[test]
    fn matvec_epilogue_fuses() {
        // cg residual: ML_tmp1 = A*x; r = b - ML_tmp1.
        let mut p = prog(vec![
            Instr::MatVec {
                dst: v("ML_tmp1"),
                a: v("A"),
                x: v("x"),
            },
            Instr::ElemWise {
                dst: v("r"),
                expr: EwExpr::bin(EwOp::Sub, mat("b"), mat("ML_tmp1")),
            },
            Instr::Free { name: v("ML_tmp1") },
        ]);
        let stats = fuse(&mut p);
        assert_eq!(stats.matvec_epilogues, 1);
        assert_eq!(p.main.body.len(), 1);
    }

    #[test]
    fn reduce_epilogue_fuses_norm2() {
        let mut p = prog(vec![
            Instr::ElemWise {
                dst: v("ML_tmp2"),
                expr: EwExpr::bin(EwOp::Sub, mat("x"), mat("y")),
            },
            Instr::Reduce {
                dst: v("d"),
                op: RedOp::Norm2,
                m: v("ML_tmp2"),
            },
            Instr::Free { name: v("ML_tmp2") },
        ]);
        let stats = fuse(&mut p);
        assert_eq!(stats.reduce_epilogues, 1);
        assert_eq!(p.main.body.len(), 1);
        assert!(matches!(&p.main.body[0], Instr::Fused(f)
                if matches!(f.tail(), Tail::Reduce { op: RedOp::Norm2, .. })));
    }

    #[test]
    fn col_reduce_epilogue_fuses_and_consumes_free() {
        // ocean's energy: ML_tmp14 = field .* field; colsum(ML_tmp14).
        let mut p = prog(vec![
            Instr::ElemWise {
                dst: v("ML_tmp14"),
                expr: EwExpr::bin(EwOp::Mul, mat("field"), mat("field")),
            },
            Instr::ColReduce {
                dst: v("ML_tmp15"),
                op: ColRedOp::Sum,
                m: v("ML_tmp14"),
            },
            Instr::Free {
                name: v("ML_tmp14"),
            },
        ]);
        let stats = fuse(&mut p);
        assert_eq!(stats.col_reduce_epilogues, 1);
        assert_eq!(stats.frees_consumed, 1);
        assert_eq!(p.main.body.len(), 1);
        let tail = Tail::ColReduce {
            dst: v("ML_tmp15"),
            op: ColRedOp::Sum,
            tmp: v("ML_tmp14"),
        };
        assert!(matches!(&p.main.body[0], Instr::Fused(f) if *f.tail() == tail));
    }

    /// cg's system matrix after `frees`: two outer products and an
    /// identity, with a transpose and operand frees in between.
    fn cg_build() -> Vec<Instr> {
        let outer = |dst: &str, u: &str, w: &str| Instr::Outer {
            dst: v(dst),
            u: v(u),
            v: v(w),
        };
        let free = |name: &str| Instr::Free { name: v(name) };
        vec![
            Instr::Transpose {
                dst: v("ML_tmp2"),
                a: v("u"),
            },
            outer("ML_tmp3", "ML_tmp2", "u"),
            free("ML_tmp2"),
            Instr::Transpose {
                dst: v("ML_tmp4"),
                a: v("w"),
            },
            outer("ML_tmp5", "ML_tmp4", "w"),
            free("ML_tmp4"),
            Instr::InitMatrix {
                dst: v("ML_tmp6"),
                init: MatInit::Eye { n: var("n") },
            },
            Instr::ElemWise {
                dst: v("A"),
                expr: EwExpr::bin(
                    EwOp::Add,
                    EwExpr::bin(EwOp::Add, mat("ML_tmp3"), mat("ML_tmp5")),
                    EwExpr::bin(EwOp::Mul, EwExpr::Scalar(var("n")), mat("ML_tmp6")),
                ),
            },
            free("ML_tmp6"),
            free("ML_tmp5"),
            free("ML_tmp3"),
        ]
    }

    #[test]
    fn generators_fuse_past_operand_frees() {
        let mut p = prog(cg_build());
        let stats = fuse(&mut p);
        assert_eq!(stats.generator_leaves, 3);
        assert_eq!(stats.frees_consumed, 3);
        let ops: Vec<&str> = p.main.body.iter().map(Instr::opcode).collect();
        assert_eq!(ops, ["transpose", "transpose", "elemwise", "free", "free"]);
        // The operands' frees moved to just after the loop, in order.
        assert_eq!(p.main.body[3], Instr::Free { name: v("ML_tmp4") });
        assert_eq!(p.main.body[4], Instr::Free { name: v("ML_tmp2") });
        let Instr::ElemWise { expr, .. } = &p.main.body[2] else {
            panic!("{:?}", p.main.body)
        };
        let gens: Vec<Slot> = expr.generators().iter().map(|&(t, _)| t).collect();
        assert_eq!(gens, [v("ML_tmp3"), v("ML_tmp5"), v("ML_tmp6")]);
        let mut mats = Vec::new();
        expr.mat_operands(&mut mats);
        assert!(mats.is_empty(), "{mats:?}");
    }

    #[test]
    fn generators_do_not_fuse_past_a_write_of_their_inputs() {
        // `n` changes between `eye(n)` and its reader, or `u` is stored
        // into between `outer(ML_tmp2, u)` and its reader.
        for write in [
            Instr::AssignScalar {
                dst: v("n"),
                src: SExpr::c(3.0),
            },
            Instr::StoreElem {
                m: v("u"),
                i: SExpr::c(1.0),
                j: None,
                val: SExpr::c(0.0),
            },
        ] {
            let mut body = cg_build();
            body.insert(7, write.clone());
            let mut p = prog(body);
            let fused = fuse(&mut p).generator_leaves;
            let held = match write {
                Instr::AssignScalar { .. } => "ML_tmp6",
                _ => "ML_tmp3",
            };
            assert_eq!(fused, 2, "{write:?}");
            assert!(
                p.main.body.iter().any(|i| i.dst() == Some(v(held))),
                "{write:?}"
            );
        }
    }

    #[test]
    fn generated_loops_fuse_into_their_fold() {
        // s = sum(outer(u, v) .* 2): the generator loop takes the fold
        // as its tail, past the outer product's own (moved) free.
        let mut p = prog(vec![
            Instr::Outer {
                dst: v("ML_tmp1"),
                u: v("u"),
                v: v("v"),
            },
            Instr::ElemWise {
                dst: v("ML_tmp2"),
                expr: EwExpr::bin(EwOp::Mul, mat("ML_tmp1"), EwExpr::Scalar(SExpr::c(2.0))),
            },
            Instr::Free { name: v("ML_tmp1") },
            Instr::Reduce {
                dst: v("s"),
                op: RedOp::Fold(ColRedOp::Sum),
                m: v("ML_tmp2"),
            },
            Instr::Free { name: v("ML_tmp2") },
        ]);
        let stats = fuse(&mut p);
        assert_eq!((stats.generator_leaves, stats.reduce_epilogues), (1, 1));
        assert_eq!((stats.temps_eliminated, stats.frees_consumed), (2, 2));
        let ops: Vec<&str> = p.main.body.iter().map(Instr::opcode).collect();
        assert_eq!(ops, ["reduce-ew"]);
    }

    #[test]
    fn a_generator_substitutes_into_one_read_only() {
        // t = outer(u, v) .* 2; c = t .* t: substituting would generate
        // (and gather) the outer product twice.
        let mut p = prog(vec![
            Instr::Outer {
                dst: v("ML_tmp1"),
                u: v("u"),
                v: v("v"),
            },
            Instr::ElemWise {
                dst: v("ML_tmp2"),
                expr: EwExpr::bin(EwOp::Mul, mat("ML_tmp1"), EwExpr::Scalar(SExpr::c(2.0))),
            },
            Instr::ElemWise {
                dst: v("c"),
                expr: EwExpr::bin(EwOp::Mul, mat("ML_tmp2"), mat("ML_tmp2")),
            },
        ]);
        let stats = fuse(&mut p);
        assert_eq!((stats.generator_leaves, stats.elemwise_chains), (1, 0));
        assert_eq!(p.main.body.len(), 2);
    }

    #[test]
    fn a_product_loop_takes_a_fold_as_its_tail() {
        // s = sum(A*x .* y): the matvec head, the loop and the fold
        // become one instruction, and both temporaries go.
        let mut p = prog(vec![
            Instr::MatVec {
                dst: v("ML_tmp1"),
                a: v("A"),
                x: v("x"),
            },
            Instr::ElemWise {
                dst: v("ML_tmp2"),
                expr: EwExpr::bin(EwOp::Mul, mat("ML_tmp1"), mat("y")),
            },
            Instr::Free { name: v("ML_tmp1") },
            Instr::Reduce {
                dst: v("s"),
                op: RedOp::Fold(ColRedOp::Sum),
                m: v("ML_tmp2"),
            },
            Instr::Free { name: v("ML_tmp2") },
        ]);
        let stats = fuse(&mut p);
        assert_eq!((stats.matvec_epilogues, stats.reduce_epilogues), (1, 1));
        assert_eq!(p.main.body.len(), 1);
        let Instr::Fused(f) = &p.main.body[0] else {
            panic!("{:?}", p.main.body)
        };
        let ops: Vec<&str> = f.unfused(&p.main.vars).iter().map(Instr::opcode).collect();
        assert_eq!(ops, ["matvec", "elemwise", "reduce", "free", "free"]);
        let mut reads = Vec::new();
        p.main.body[0].reads(&mut reads);
        assert_eq!(reads, [v("A"), v("x"), v("y")]);
    }

    #[test]
    fn boolean_col_reductions_do_not_fuse() {
        for op in [ColRedOp::Any, ColRedOp::All] {
            let mut p = prog(vec![
                Instr::ElemWise {
                    dst: v("ML_tmp1"),
                    expr: EwExpr::bin(EwOp::Mul, mat("x"), mat("x")),
                },
                Instr::ColReduce {
                    dst: v("s"),
                    op,
                    m: v("ML_tmp1"),
                },
            ]);
            assert_eq!(fuse(&mut p).fused(), 0, "{op:?}");
        }
    }

    #[test]
    fn elemwise_chain_substitutes() {
        let mut p = prog(vec![
            Instr::ElemWise {
                dst: v("ML_tmp1"),
                expr: EwExpr::bin(EwOp::Add, mat("a"), mat("b")),
            },
            Instr::ElemWise {
                dst: v("c"),
                expr: EwExpr::bin(EwOp::Mul, mat("ML_tmp1"), mat("d")),
            },
            Instr::Free { name: v("ML_tmp1") },
        ]);
        let stats = fuse(&mut p);
        assert_eq!(stats.elemwise_chains, 1);
        assert_eq!(p.main.body.len(), 1);
        let Instr::ElemWise { expr, .. } = &p.main.body[0] else {
            panic!("expected one fused elemwise: {:?}", p.main.body)
        };
        assert_eq!(mat_uses(expr, v("a")), 1);
        assert_eq!(mat_uses(expr, v("ML_tmp1")), 0);
    }

    #[test]
    fn chains_fuse_to_a_fixed_point() {
        // t1 = a + b; t2 = t1 * t1; s = sum(t2) → one reduce-ew loop.
        let mut p = prog(vec![
            Instr::ElemWise {
                dst: v("ML_tmp1"),
                expr: EwExpr::bin(EwOp::Add, mat("a"), mat("b")),
            },
            Instr::ElemWise {
                dst: v("ML_tmp2"),
                expr: EwExpr::bin(EwOp::Mul, mat("ML_tmp1"), mat("ML_tmp1")),
            },
            Instr::Reduce {
                dst: v("s"),
                op: RedOp::Fold(ColRedOp::Sum),
                m: v("ML_tmp2"),
            },
            Instr::Free { name: v("ML_tmp2") },
        ]);
        let stats = fuse(&mut p);
        assert_eq!(stats.elemwise_chains, 1);
        assert_eq!(stats.reduce_epilogues, 1);
        assert_eq!(p.main.body.len(), 1);
        assert_eq!(p.main.body[0].opcode(), "reduce-ew");
    }

    #[test]
    fn user_variables_never_fuse() {
        let mut p = prog(vec![
            Instr::MatMul {
                dst: v("u"),
                a: v("a"),
                b: v("b"),
            },
            Instr::ElemWise {
                dst: v("v"),
                expr: EwExpr::bin(EwOp::Gt, mat("u"), EwExpr::Scalar(SExpr::c(0.0))),
            },
        ]);
        assert_eq!(fuse(&mut p).fused(), 0);
    }

    #[test]
    fn temp_with_later_reader_stays() {
        let mut p = prog(vec![
            Instr::MatMul {
                dst: v("ML_tmp1"),
                a: v("a"),
                b: v("b"),
            },
            Instr::ElemWise {
                dst: v("c"),
                expr: EwExpr::bin(EwOp::Gt, mat("ML_tmp1"), EwExpr::Scalar(SExpr::c(0.0))),
            },
            Instr::Reduce {
                dst: v("s"),
                op: RedOp::Fold(ColRedOp::Sum),
                m: v("ML_tmp1"),
            },
        ]);
        assert_eq!(fuse(&mut p).fused(), 0);
    }

    #[test]
    fn halo_reductions_do_not_fuse() {
        let mut p = prog(vec![
            Instr::ElemWise {
                dst: v("ML_tmp1"),
                expr: EwExpr::bin(EwOp::Mul, mat("x"), mat("x")),
            },
            Instr::Reduce {
                dst: v("s"),
                op: RedOp::Trapz,
                m: v("ML_tmp1"),
            },
        ]);
        assert_eq!(fuse(&mut p).fused(), 0);
    }

    #[test]
    fn fuses_inside_loops() {
        let mut p = prog(vec![Instr::While {
            pre: vec![],
            cond: SExpr::bin(SBinOp::Gt, var("d"), SExpr::c(0.5)),
            body: vec![
                Instr::MatVec {
                    dst: v("ML_tmp1"),
                    a: v("A"),
                    x: v("x"),
                },
                Instr::ElemWise {
                    dst: v("r"),
                    expr: EwExpr::bin(EwOp::Sub, mat("b"), mat("ML_tmp1")),
                },
                Instr::Free { name: v("ML_tmp1") },
            ],
        }]);
        let stats = fuse(&mut p);
        assert_eq!(stats.matvec_epilogues, 1);
        let Instr::While { body, .. } = &p.main.body[0] else {
            panic!()
        };
        assert_eq!(body.len(), 1);
    }

    #[test]
    fn multiple_consumer_occurrences_fuse() {
        // d = t .* t where t is the product: both leaves read the
        // product buffer before each element is overwritten.
        let mut p = prog(vec![
            Instr::MatMul {
                dst: v("ML_tmp1"),
                a: v("a"),
                b: v("b"),
            },
            Instr::ElemWise {
                dst: v("d"),
                expr: EwExpr::bin(EwOp::Mul, mat("ML_tmp1"), mat("ML_tmp1")),
            },
            Instr::Free { name: v("ML_tmp1") },
        ]);
        let stats = fuse(&mut p);
        assert_eq!(stats.matmul_epilogues, 1);
        assert_eq!(p.main.body.len(), 1);
    }
}
