//! Pass 6 — peephole optimization (paper §3): "looking for ways in
//! which a sequence of run-time library calls can be replaced by a
//! single call."
//!
//! Three rewrites, each applied to every block recursively:
//!
//! 1. **Copy collapse** — a run-time or user-function call into
//!    `ML_tmpK` immediately followed by a plain copy `x = ML_tmpK` (and
//!    no later use of the temp) retargets the call at `x` and drops the
//!    copy.
//! 2. **Scalar collapse** — likewise for scalar temporaries
//!    (`ML_tmpK = dot(...); x = ML_tmpK;` → `x = dot(...)`).
//! 3. **Dot fusion** — an element-wise multiply whose only consumer is
//!    a full-sum reduction becomes one fused `ML_dot` call, halving
//!    both the memory traffic and the loop count of the classic
//!    `sum(a .* b)` idiom.

use otter_ir::*;

/// Statistics from one peephole run (exposed for the ablation bench).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeepholeStats {
    pub copies_collapsed: usize,
    pub scalars_collapsed: usize,
    pub dots_fused: usize,
    pub dead_removed: usize,
}

/// Optimize a program in place; returns what was rewritten.
pub fn peephole(p: &mut IrProgram) -> PeepholeStats {
    let mut stats = PeepholeStats::default();
    p.visit_blocks_mut(&mut |block, live_out, vars| {
        optimize_block(block, live_out, vars, &mut stats)
    });
    stats
}

/// Rewrite one block whose nested blocks are already optimized.
/// `live_out` — slots read *after* this block (see
/// [`visit_blocks_mut`]): everything a rewrite wants to treat as dead
/// must also be absent from this set. Only compiler temporaries of
/// `vars`, the block's frame, are ever rewritten away.
fn optimize_block(
    block: &mut Vec<Instr>,
    live_out: &[Slot],
    vars: &Vars,
    stats: &mut PeepholeStats,
) {
    // A temporary the rest of the block never reads and that is not
    // live after it.
    let dead_after =
        |t: Slot, rest: &[Instr]| vars.is_temp(t) && !used_later(t, rest) && !live_out.contains(&t);
    // Iterate local rewrites until a fixed point.
    loop {
        let before = *stats;
        collapse_pairs(block, &dead_after, stats);
        fuse_dots(block, &dead_after, stats);
        eliminate_dead(block, &dead_after, stats);
        if *stats == before {
            break;
        }
    }
}

/// Can an instruction be dropped if its destination is never read?
/// Communication-bearing instructions are safe to drop *uniformly*
/// (every rank executes the same IR, so all ranks drop together);
/// `Rand` initializers are kept because deleting one would shift the
/// seeded stream of later `rand` calls.
fn is_pure(instr: &Instr) -> bool {
    match instr {
        Instr::AssignScalar { .. }
        | Instr::CopyMatrix { .. }
        | Instr::ElemWise { .. }
        | Instr::MatMul { .. }
        | Instr::MatVec { .. }
        | Instr::Outer { .. }
        | Instr::Transpose { .. }
        | Instr::BroadcastElem { .. }
        | Instr::Reduce { .. }
        | Instr::Dot { .. }
        | Instr::TrapzXY { .. }
        | Instr::ColReduce { .. }
        | Instr::Shift { .. }
        | Instr::ExtractRow { .. }
        | Instr::ExtractCol { .. }
        | Instr::ExtractRange { .. }
        | Instr::ExtractStrided { .. } => true,
        Instr::InitMatrix { init, .. } => !matches!(init, MatInit::Rand { .. }),
        _ => false,
    }
}

/// Drop pure instructions whose temp destination is never read.
fn eliminate_dead(block: &mut Vec<Instr>, dead_after: &DeadAfter, stats: &mut PeepholeStats) {
    let mut i = 0;
    while i < block.len() {
        let removable = is_pure(&block[i])
            && block[i]
                .dst()
                .is_some_and(|d| dead_after(d, &block[i + 1..]));
        if removable {
            block.remove(i);
            stats.dead_removed += 1;
        } else {
            i += 1;
        }
    }
}

/// Is a temp read anywhere in `rest`? (Temps are single-assignment by
/// construction, so reads are the only conflict.)
fn used_later(t: Slot, rest: &[Instr]) -> bool {
    let mut reads = Vec::new();
    for i in rest {
        i.reads(&mut reads);
    }
    reads.contains(&t)
}

/// Whether a temporary is dead once `rest` of the block has run; see
/// [`optimize_block`].
type DeadAfter<'a> = dyn Fn(Slot, &[Instr]) -> bool + 'a;

/// Rewrites 1 and 2: call-into-temp + copy-out-of-temp.
fn collapse_pairs(block: &mut Vec<Instr>, dead_after: &DeadAfter, stats: &mut PeepholeStats) {
    let mut i = 0;
    while i + 1 < block.len() {
        let (copy, scalar) = match &block[i + 1] {
            Instr::CopyMatrix { dst, src }
            | Instr::ElemWise {
                dst,
                expr: EwExpr::Mat(src),
            } => (Some((*dst, *src)), false),
            Instr::AssignScalar {
                dst,
                src: SExpr::Var(src),
            } => (Some((*dst, *src)), true),
            _ => (None, false),
        };
        // A user-function call writes its outputs in order, after it
        // has read its arguments: an output can take the copy's
        // destination unless a later output writes it too.
        let writer = |dst: Slot, src: Slot| match &block[i] {
            Instr::Call { outs, .. } => {
                let k = outs.iter().position(|&o| o == src)?;
                (!outs[k + 1..].contains(&dst)).then_some(k)
            }
            producer => (producer.dst() == Some(src)).then_some(0),
        };
        let collapse = copy.and_then(|(dst, src)| {
            let k = writer(dst, src)?;
            (dead_after(src, &block[i + 2..]) && dst != src).then_some((dst, k))
        });
        if let Some((new_dst, k)) = collapse {
            match &mut block[i] {
                Instr::Call { outs, .. } => outs[k] = new_dst,
                producer => *producer.dst_mut().expect("checked above") = new_dst,
            }
            block.remove(i + 1);
            if scalar {
                stats.scalars_collapsed += 1;
            } else {
                stats.copies_collapsed += 1;
            }
            // Re-examine the same position.
            continue;
        }
        i += 1;
    }
}

/// Rewrite 3: `t = a .* b; s = sum(t)` → `s = dot(a, b)`.
fn fuse_dots(block: &mut Vec<Instr>, dead_after: &DeadAfter, stats: &mut PeepholeStats) {
    let mut i = 0;
    while i + 1 < block.len() {
        let fused = match (&block[i], &block[i + 1]) {
            (
                Instr::ElemWise { dst: t, expr },
                Instr::Reduce {
                    dst,
                    op: RedOp::Fold(ColRedOp::Sum),
                    m,
                },
            ) if t == m && dead_after(*t, &block[i + 2..]) => {
                if let EwExpr::Bin(EwOp::Mul, a, b) = expr {
                    if let (EwExpr::Mat(a), EwExpr::Mat(b)) = (a.as_ref(), b.as_ref()) {
                        Some(Instr::Dot {
                            dst: *dst,
                            a: *a,
                            b: *b,
                        })
                    } else {
                        None
                    }
                } else {
                    None
                }
            }
            _ => None,
        };
        if let Some(instr) = fused {
            block[i] = instr;
            block.remove(i + 1);
            stats.dots_fused += 1;
            continue;
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otter_ir::by_name::*;

    fn prog(main: Vec<Instr>) -> IrProgram {
        program(main)
    }

    #[test]
    fn collapses_matmul_copy() {
        let mut p = prog(vec![
            Instr::MatMul {
                dst: v("ML_tmp1"),
                a: v("b"),
                b: v("c"),
            },
            Instr::CopyMatrix {
                dst: v("a"),
                src: v("ML_tmp1"),
            },
        ]);
        let stats = peephole(&mut p);
        assert_eq!(stats.copies_collapsed, 1);
        assert_eq!(
            p.main.body,
            vec![Instr::MatMul {
                dst: v("a"),
                a: v("b"),
                b: v("c")
            }]
        );
    }

    fn call(outs: [&str; 2]) -> Instr {
        Instr::Call {
            fun: "f".to_string(),
            args: vec![Arg::Matrix(v("v")), Arg::Scalar(SExpr::Const(2.0))],
            outs: outs.map(v).to_vec(),
        }
    }

    #[test]
    fn collapses_copies_out_of_a_call() {
        // `[a, b] = f(v, 2)`, `[x, x] = f(v, 2)` and `[v, w] = f(v, 2)`:
        // the call writes each destination itself.
        for [a, b] in [["a", "b"], ["x", "x"], ["v", "w"]] {
            let mut p = prog(vec![
                call(["ML_tmp1", "ML_tmp2"]),
                Instr::AssignScalar {
                    dst: v(a),
                    src: var("ML_tmp1"),
                },
                Instr::CopyMatrix {
                    dst: v(b),
                    src: v("ML_tmp2"),
                },
            ]);
            let stats = peephole(&mut p);
            assert_eq!((stats.scalars_collapsed, stats.copies_collapsed), (1, 1));
            assert_eq!(p.main.body, vec![call([a, b])]);
        }
    }

    #[test]
    fn keeps_a_copy_a_later_call_output_would_overwrite() {
        // `y = ML_tmp2; y = ML_tmp1` leaves the first output in `y`;
        // retargeting both would leave the second.
        let mut p = prog(vec![
            call(["ML_tmp1", "ML_tmp2"]),
            Instr::CopyMatrix {
                dst: v("y"),
                src: v("ML_tmp2"),
            },
            Instr::CopyMatrix {
                dst: v("y"),
                src: v("ML_tmp1"),
            },
        ]);
        peephole(&mut p);
        assert_eq!(
            p.main.body,
            vec![
                call(["ML_tmp1", "y"]),
                Instr::CopyMatrix {
                    dst: v("y"),
                    src: v("ML_tmp1"),
                },
            ]
        );
    }

    #[test]
    fn keeps_copy_when_temp_reused() {
        let mut p = prog(vec![
            Instr::MatMul {
                dst: v("ML_tmp1"),
                a: v("b"),
                b: v("c"),
            },
            Instr::CopyMatrix {
                dst: v("a"),
                src: v("ML_tmp1"),
            },
            Instr::Reduce {
                dst: v("s"),
                op: RedOp::Fold(ColRedOp::Sum),
                m: v("ML_tmp1"),
            },
        ]);
        let stats = peephole(&mut p);
        assert_eq!(stats.copies_collapsed, 0);
        assert_eq!(p.main.body.len(), 3);
    }

    #[test]
    fn collapses_scalar_temp() {
        let mut p = prog(vec![
            Instr::Dot {
                dst: v("ML_tmp2"),
                a: v("r"),
                b: v("r"),
            },
            Instr::AssignScalar {
                dst: v("rho"),
                src: var("ML_tmp2"),
            },
        ]);
        let stats = peephole(&mut p);
        assert_eq!(stats.scalars_collapsed, 1);
        assert_eq!(
            p.main.body,
            vec![Instr::Dot {
                dst: v("rho"),
                a: v("r"),
                b: v("r")
            }]
        );
    }

    #[test]
    fn fuses_multiply_sum_into_dot() {
        let mut p = prog(vec![
            Instr::ElemWise {
                dst: v("ML_tmp1"),
                expr: EwExpr::bin(EwOp::Mul, mat("x"), mat("y")),
            },
            Instr::Reduce {
                dst: v("ML_tmp2"),
                op: RedOp::Fold(ColRedOp::Sum),
                m: v("ML_tmp1"),
            },
            Instr::AssignScalar {
                dst: v("d"),
                src: var("ML_tmp2"),
            },
        ]);
        let stats = peephole(&mut p);
        assert_eq!(stats.dots_fused, 1);
        assert_eq!(stats.scalars_collapsed, 1);
        assert_eq!(
            p.main.body,
            vec![Instr::Dot {
                dst: v("d"),
                a: v("x"),
                b: v("y")
            }]
        );
    }

    #[test]
    fn does_not_fuse_when_product_is_reused() {
        let mut p = prog(vec![
            Instr::ElemWise {
                dst: v("ML_tmp1"),
                expr: EwExpr::bin(EwOp::Mul, mat("x"), mat("y")),
            },
            Instr::Reduce {
                dst: v("s"),
                op: RedOp::Fold(ColRedOp::Sum),
                m: v("ML_tmp1"),
            },
            Instr::Reduce {
                dst: v("t"),
                op: RedOp::Fold(ColRedOp::Max),
                m: v("ML_tmp1"),
            },
        ]);
        let stats = peephole(&mut p);
        assert_eq!(stats.dots_fused, 0);
        assert_eq!(p.main.body.len(), 3);
    }

    #[test]
    fn optimizes_inside_loops() {
        let mut p = prog(vec![Instr::For {
            var: v("i"),
            start: SExpr::c(1.0),
            step: SExpr::c(1.0),
            stop: SExpr::c(10.0),
            body: vec![
                Instr::MatVec {
                    dst: v("ML_tmp1"),
                    a: v("A"),
                    x: v("p"),
                },
                Instr::CopyMatrix {
                    dst: v("q"),
                    src: v("ML_tmp1"),
                },
            ],
        }]);
        let stats = peephole(&mut p);
        assert_eq!(stats.copies_collapsed, 1);
        let Instr::For { body, .. } = &p.main.body[0] else {
            panic!()
        };
        assert_eq!(body.len(), 1);
    }

    #[test]
    fn dead_temps_are_removed() {
        let mut p = prog(vec![
            Instr::Transpose {
                dst: v("ML_tmp3"),
                a: v("v"),
            },
            Instr::Dot {
                dst: v("d"),
                a: v("v"),
                b: v("w"),
            },
        ]);
        let stats = peephole(&mut p);
        assert_eq!(stats.dead_removed, 1);
        assert_eq!(
            p.main.body,
            vec![Instr::Dot {
                dst: v("d"),
                a: v("v"),
                b: v("w")
            }]
        );
    }

    #[test]
    fn rand_init_never_removed() {
        let mut p = prog(vec![
            Instr::InitMatrix {
                dst: v("ML_tmp1"),
                init: MatInit::Rand {
                    rows: SExpr::c(4.0),
                    cols: SExpr::c(4.0),
                },
            },
            Instr::InitMatrix {
                dst: v("a"),
                init: MatInit::Rand {
                    rows: SExpr::c(4.0),
                    cols: SExpr::c(4.0),
                },
            },
        ]);
        let stats = peephole(&mut p);
        assert_eq!(
            stats.dead_removed, 0,
            "removing rand would shift later streams"
        );
        assert_eq!(p.main.body.len(), 2);
    }

    #[test]
    fn live_temps_are_kept() {
        let mut p = prog(vec![
            Instr::Transpose {
                dst: v("ML_tmp3"),
                a: v("v"),
            },
            Instr::Dot {
                dst: v("d"),
                a: v("ML_tmp3"),
                b: v("w"),
            },
        ]);
        let stats = peephole(&mut p);
        assert_eq!(stats.dead_removed, 0);
        assert_eq!(p.main.body.len(), 2);
    }

    #[test]
    fn non_temp_sources_untouched() {
        let mut p = prog(vec![
            Instr::MatMul {
                dst: v("x"),
                a: v("b"),
                b: v("c"),
            },
            Instr::CopyMatrix {
                dst: v("a"),
                src: v("x"),
            },
        ]);
        let stats = peephole(&mut p);
        assert_eq!(stats.copies_collapsed, 0);
        assert_eq!(p.main.body.len(), 2);
    }
}
