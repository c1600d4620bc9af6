//! Temporary de-allocation (paper §4: "The run-time library is
//! responsible for the allocation and de-allocation of vectors and
//! matrices").
//!
//! The compiler's `ML_tmp*` temporaries are single-assignment; this
//! pass inserts an explicit [`Instr::Free`] after each temporary's
//! last use in its defining block, so a rank's live memory tracks the
//! program's actual working set instead of accumulating every
//! intermediate — which is what makes the paper's §7 "larger problems"
//! memory argument hold for long scripts.

use otter_ir::*;

/// Insert `Free` instructions for dead temporaries. `live_out` slots
/// must never be freed (a `while` condition's inputs, function
/// outputs).
pub fn insert_frees(p: &mut IrProgram) -> usize {
    let mut count = 0;
    p.visit_blocks_mut(&mut |block, live_out, vars| free_block(block, live_out, vars, &mut count));
    count
}

/// Free each temporary of `vars` defined in `block` after its last use
/// there.
fn free_block(block: &mut Vec<Instr>, live_out: &[Slot], vars: &Vars, count: &mut usize) {
    let mut i = 0;
    while i < block.len() {
        let Some(dst) = block[i].dst() else {
            i += 1;
            continue;
        };
        if !vars.is_temp(dst) || matches!(block[i], Instr::Free { .. }) || live_out.contains(&dst) {
            i += 1;
            continue;
        }
        // Last index in the rest of the block that reads `dst`.
        let mut last_use: Option<usize> = None;
        for (off, instr) in block[i + 1..].iter().enumerate() {
            let mut reads = Vec::new();
            instr.reads(&mut reads);
            if reads.contains(&dst) {
                last_use = Some(i + 1 + off);
            }
            // A later redefinition of the same temp cannot happen
            // (single-assignment), so no def check needed.
        }
        match last_use {
            Some(u) => {
                // Freeing is only sound if the last use is a direct
                // instruction, not a nested block that may re-execute
                // (loops): freeing after a loop body's last iteration
                // is fine since the use is within the loop instr,
                // which completes before the Free runs.
                block.insert(u + 1, Instr::Free { name: dst });
                *count += 1;
                // Skip past the insertion point.
                i += 1;
            }
            None => {
                // Dead temp (possible when the peephole pass was
                // disabled): free immediately after definition.
                block.insert(i + 1, Instr::Free { name: dst });
                *count += 1;
                i += 2;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otter_ir::by_name::*;

    #[test]
    fn frees_after_last_use() {
        let mut p = program(vec![
            Instr::MatMul {
                dst: v("ML_tmp1"),
                a: v("b"),
                b: v("c"),
            },
            Instr::Reduce {
                dst: v("s"),
                op: RedOp::Fold(ColRedOp::Sum),
                m: v("ML_tmp1"),
            },
            Instr::AssignScalar {
                dst: v("t"),
                src: var("s"),
            },
        ]);
        let n = insert_frees(&mut p);
        assert_eq!(n, 1);
        assert_eq!(p.main.body[2], Instr::Free { name: v("ML_tmp1") });
        assert_eq!(p.main.body.len(), 4);
    }

    #[test]
    fn temp_used_inside_loop_freed_after_loop() {
        let mut p = program(vec![
            Instr::InitMatrix {
                dst: v("ML_tmp1"),
                init: MatInit::Ones {
                    rows: SExpr::c(4.0),
                    cols: SExpr::c(1.0),
                },
            },
            Instr::For {
                var: v("i"),
                start: SExpr::c(1.0),
                step: SExpr::c(1.0),
                stop: SExpr::c(3.0),
                body: vec![Instr::Reduce {
                    dst: v("s"),
                    op: RedOp::Fold(ColRedOp::Sum),
                    m: v("ML_tmp1"),
                }],
            },
        ]);
        insert_frees(&mut p);
        // Free comes after the whole For.
        assert!(
            matches!(p.main.body[2], Instr::Free { .. }),
            "{:?}",
            p.main.body
        );
    }

    #[test]
    fn while_condition_inputs_not_freed() {
        let mut p = program(vec![Instr::While {
            pre: vec![Instr::Reduce {
                dst: v("ML_tmp9"),
                op: RedOp::Norm2,
                m: v("r"),
            }],
            cond: SExpr::bin(SBinOp::Gt, var("ML_tmp9"), SExpr::c(0.5)),
            body: vec![],
        }]);
        insert_frees(&mut p);
        let Instr::While { pre, .. } = &p.main.body[0] else {
            panic!()
        };
        assert!(
            !pre.iter().any(|i| matches!(i, Instr::Free { .. })),
            "condition input must stay live: {pre:?}"
        );
    }

    #[test]
    fn user_variables_never_freed() {
        let mut p = program(vec![Instr::MatMul {
            dst: v("c"),
            a: v("a"),
            b: v("b"),
        }]);
        let n = insert_frees(&mut p);
        assert_eq!(n, 0);
    }
}
