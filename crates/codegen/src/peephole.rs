//! Pass 6 — peephole optimization (paper §3): "looking for ways in
//! which a sequence of run-time library calls can be replaced by a
//! single call."
//!
//! Three rewrites, each applied to every block recursively:
//!
//! 1. **Copy collapse** — a run-time call into `ML_tmpK` immediately
//!    followed by a plain copy `x = ML_tmpK` (and no later use of the
//!    temp) retargets the call at `x` and drops the copy.
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
    p.visit_blocks_mut(&mut |block, live_out| optimize_block(block, live_out, &mut stats));
    stats
}

/// Rewrite one block whose nested blocks are already optimized.
/// `live_out` — names read *after* this block (see
/// [`visit_blocks_mut`]): everything a rewrite wants to treat as dead
/// must also be absent from this set.
fn optimize_block(block: &mut Vec<Instr>, live_out: &[String], stats: &mut PeepholeStats) {
    // Iterate local rewrites until a fixed point.
    loop {
        let before = *stats;
        collapse_pairs(block, live_out, stats);
        fuse_dots(block, live_out, stats);
        eliminate_dead(block, live_out, stats);
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
fn eliminate_dead(block: &mut Vec<Instr>, live_out: &[String], stats: &mut PeepholeStats) {
    let mut i = 0;
    while i < block.len() {
        let removable = is_pure(&block[i])
            && block[i].dst().is_some_and(|d| {
                is_temp(d) && !used_later(d, &block[i + 1..]) && !live_out.iter().any(|l| l == d)
            });
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
fn used_later(name: &str, rest: &[Instr]) -> bool {
    let mut reads = Vec::new();
    for i in rest {
        i.reads(&mut reads);
    }
    reads.iter().any(|r| r == name)
}

/// Rewrites 1 and 2: call-into-temp + copy-out-of-temp.
fn collapse_pairs(block: &mut Vec<Instr>, live_out: &[String], stats: &mut PeepholeStats) {
    let mut i = 0;
    while i + 1 < block.len() {
        let collapse = match (&block[i], &block[i + 1]) {
            (first, Instr::CopyMatrix { dst, src })
                if is_temp(src)
                    && first.dst() == Some(src.as_str())
                    && !used_later(src, &block[i + 2..])
                    && !live_out.contains(src)
                    && dst != src =>
            {
                Some((dst.clone(), false))
            }
            (
                first,
                Instr::ElemWise {
                    dst,
                    expr: EwExpr::Mat(src),
                },
            ) if is_temp(src)
                && first.dst() == Some(src.as_str())
                && !used_later(src, &block[i + 2..])
                && !live_out.contains(src)
                && dst != src =>
            {
                Some((dst.clone(), false))
            }
            (
                first,
                Instr::AssignScalar {
                    dst,
                    src: SExpr::Var(src),
                },
            ) if is_temp(src)
                && first.dst() == Some(src.as_str())
                && !used_later(src, &block[i + 2..])
                && !live_out.contains(src)
                && dst != src =>
            {
                Some((dst.clone(), true))
            }
            _ => None,
        };
        if let Some((new_dst, scalar)) = collapse {
            if let Some(d) = block[i].dst_mut() {
                *d = new_dst;
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
fn fuse_dots(block: &mut Vec<Instr>, live_out: &[String], stats: &mut PeepholeStats) {
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
            ) if t == m
                && is_temp(t)
                && !used_later(t, &block[i + 2..])
                && !live_out.contains(t) =>
            {
                if let EwExpr::Bin(EwOp::Mul, a, b) = expr {
                    if let (EwExpr::Mat(a), EwExpr::Mat(b)) = (a.as_ref(), b.as_ref()) {
                        Some(Instr::Dot {
                            dst: dst.clone(),
                            a: a.clone(),
                            b: b.clone(),
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

    fn prog(main: Vec<Instr>) -> IrProgram {
        IrProgram {
            main,
            ..Default::default()
        }
    }

    #[test]
    fn collapses_matmul_copy() {
        let mut p = prog(vec![
            Instr::MatMul {
                dst: "ML_tmp1".into(),
                a: "b".into(),
                b: "c".into(),
            },
            Instr::CopyMatrix {
                dst: "a".into(),
                src: "ML_tmp1".into(),
            },
        ]);
        let stats = peephole(&mut p);
        assert_eq!(stats.copies_collapsed, 1);
        assert_eq!(
            p.main,
            vec![Instr::MatMul {
                dst: "a".into(),
                a: "b".into(),
                b: "c".into()
            }]
        );
    }

    #[test]
    fn keeps_copy_when_temp_reused() {
        let mut p = prog(vec![
            Instr::MatMul {
                dst: "ML_tmp1".into(),
                a: "b".into(),
                b: "c".into(),
            },
            Instr::CopyMatrix {
                dst: "a".into(),
                src: "ML_tmp1".into(),
            },
            Instr::Reduce {
                dst: "s".into(),
                op: RedOp::Fold(ColRedOp::Sum),
                m: "ML_tmp1".into(),
            },
        ]);
        let stats = peephole(&mut p);
        assert_eq!(stats.copies_collapsed, 0);
        assert_eq!(p.main.len(), 3);
    }

    #[test]
    fn collapses_scalar_temp() {
        let mut p = prog(vec![
            Instr::Dot {
                dst: "ML_tmp2".into(),
                a: "r".into(),
                b: "r".into(),
            },
            Instr::AssignScalar {
                dst: "rho".into(),
                src: SExpr::var("ML_tmp2"),
            },
        ]);
        let stats = peephole(&mut p);
        assert_eq!(stats.scalars_collapsed, 1);
        assert_eq!(
            p.main,
            vec![Instr::Dot {
                dst: "rho".into(),
                a: "r".into(),
                b: "r".into()
            }]
        );
    }

    #[test]
    fn fuses_multiply_sum_into_dot() {
        let mut p = prog(vec![
            Instr::ElemWise {
                dst: "ML_tmp1".into(),
                expr: EwExpr::bin(EwOp::Mul, EwExpr::mat("x"), EwExpr::mat("y")),
            },
            Instr::Reduce {
                dst: "ML_tmp2".into(),
                op: RedOp::Fold(ColRedOp::Sum),
                m: "ML_tmp1".into(),
            },
            Instr::AssignScalar {
                dst: "d".into(),
                src: SExpr::var("ML_tmp2"),
            },
        ]);
        let stats = peephole(&mut p);
        assert_eq!(stats.dots_fused, 1);
        assert_eq!(stats.scalars_collapsed, 1);
        assert_eq!(
            p.main,
            vec![Instr::Dot {
                dst: "d".into(),
                a: "x".into(),
                b: "y".into()
            }]
        );
    }

    #[test]
    fn does_not_fuse_when_product_is_reused() {
        let mut p = prog(vec![
            Instr::ElemWise {
                dst: "ML_tmp1".into(),
                expr: EwExpr::bin(EwOp::Mul, EwExpr::mat("x"), EwExpr::mat("y")),
            },
            Instr::Reduce {
                dst: "s".into(),
                op: RedOp::Fold(ColRedOp::Sum),
                m: "ML_tmp1".into(),
            },
            Instr::Reduce {
                dst: "t".into(),
                op: RedOp::Fold(ColRedOp::Max),
                m: "ML_tmp1".into(),
            },
        ]);
        let stats = peephole(&mut p);
        assert_eq!(stats.dots_fused, 0);
        assert_eq!(p.main.len(), 3);
    }

    #[test]
    fn optimizes_inside_loops() {
        let mut p = prog(vec![Instr::For {
            var: "i".into(),
            start: SExpr::c(1.0),
            step: SExpr::c(1.0),
            stop: SExpr::c(10.0),
            body: vec![
                Instr::MatVec {
                    dst: "ML_tmp1".into(),
                    a: "A".into(),
                    x: "p".into(),
                },
                Instr::CopyMatrix {
                    dst: "q".into(),
                    src: "ML_tmp1".into(),
                },
            ],
        }]);
        let stats = peephole(&mut p);
        assert_eq!(stats.copies_collapsed, 1);
        let Instr::For { body, .. } = &p.main[0] else {
            panic!()
        };
        assert_eq!(body.len(), 1);
    }

    #[test]
    fn dead_temps_are_removed() {
        let mut p = prog(vec![
            Instr::Transpose {
                dst: "ML_tmp3".into(),
                a: "v".into(),
            },
            Instr::Dot {
                dst: "d".into(),
                a: "v".into(),
                b: "w".into(),
            },
        ]);
        let stats = peephole(&mut p);
        assert_eq!(stats.dead_removed, 1);
        assert_eq!(
            p.main,
            vec![Instr::Dot {
                dst: "d".into(),
                a: "v".into(),
                b: "w".into()
            }]
        );
    }

    #[test]
    fn rand_init_never_removed() {
        let mut p = prog(vec![
            Instr::InitMatrix {
                dst: "ML_tmp1".into(),
                init: MatInit::Rand {
                    rows: SExpr::c(4.0),
                    cols: SExpr::c(4.0),
                },
            },
            Instr::InitMatrix {
                dst: "a".into(),
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
        assert_eq!(p.main.len(), 2);
    }

    #[test]
    fn live_temps_are_kept() {
        let mut p = prog(vec![
            Instr::Transpose {
                dst: "ML_tmp3".into(),
                a: "v".into(),
            },
            Instr::Dot {
                dst: "d".into(),
                a: "ML_tmp3".into(),
                b: "w".into(),
            },
        ]);
        let stats = peephole(&mut p);
        assert_eq!(stats.dead_removed, 0);
        assert_eq!(p.main.len(), 2);
    }

    #[test]
    fn non_temp_sources_untouched() {
        let mut p = prog(vec![
            Instr::MatMul {
                dst: "x".into(),
                a: "b".into(),
                b: "c".into(),
            },
            Instr::CopyMatrix {
                dst: "a".into(),
                src: "x".into(),
            },
        ]);
        let stats = peephole(&mut p);
        assert_eq!(stats.copies_collapsed, 0);
        assert_eq!(p.main.len(), 2);
    }
}
