//! Collective-divergence detection: a rank-dependence taint analysis.
//!
//! The paper's SPMD model (§3) assumes every rank executes the same
//! control flow, so a collective (`ML_reduce`, `ML_broadcast`,
//! `ML_matrix_multiply`, …) is entered by *all* ranks or none. A
//! communication call reachable only under a rank-divergent condition
//! breaks that: ranks whose condition is false skip the call, and the
//! ranks inside it block forever (a collective deadlock) or leave
//! their point-to-point sends/receives unpaired.
//!
//! Taint starts at values the analysis cannot prove replicated —
//! variables read before any definition in their scope (an external,
//! potentially per-rank input; compiled programs have none after
//! resolution, but hand-built IR and future rank intrinsics do) — and
//! flows forward through every instruction. Completed collectives
//! *synchronize*: their replicated result is uniform again even when
//! the contributed data differed per rank.

use crate::dataflow::{run_block, Analysis, Env, FlowCtx, Lattice};
use crate::Finding;
use otter_ir::*;
use std::collections::BTreeSet;

/// Rank-dependence of a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Taint {
    /// Provably identical on every rank.
    Uniform,
    /// May differ between ranks.
    Divergent,
}

impl Lattice for Taint {
    fn bottom() -> Self {
        Taint::Uniform
    }

    fn join(&self, other: &Self) -> Self {
        if *self == Taint::Divergent || *other == Taint::Divergent {
            Taint::Divergent
        } else {
            Taint::Uniform
        }
    }
}

/// Variables read before any definition reaches them, walking the
/// block in execution order. `predefined` variables (function
/// parameters) are considered defined at entry.
pub fn read_before_def(body: &[Instr], predefined: &[Slot]) -> BTreeSet<Slot> {
    let mut defined: BTreeSet<Slot> = predefined.iter().copied().collect();
    let mut seeds = BTreeSet::new();
    scan(body, &mut defined, &mut seeds);
    seeds
}

fn scan(body: &[Instr], defined: &mut BTreeSet<Slot>, seeds: &mut BTreeSet<Slot>) {
    let check_expr = |e: &SExpr, defined: &BTreeSet<Slot>, seeds: &mut BTreeSet<Slot>| {
        let mut vars = Vec::new();
        sexpr_reads(e, &mut vars);
        for v in vars {
            if !defined.contains(&v) {
                seeds.insert(v);
            }
        }
    };
    for instr in body {
        match instr {
            Instr::If {
                cond,
                then_body,
                else_body,
            } => {
                check_expr(cond, defined, seeds);
                let mut then_defs = defined.clone();
                scan(then_body, &mut then_defs, seeds);
                let mut else_defs = defined.clone();
                scan(else_body, &mut else_defs, seeds);
                // Only names defined on *both* paths are definitely
                // defined afterwards.
                defined.extend(then_defs.intersection(&else_defs));
            }
            Instr::While { pre, cond, body } => {
                scan(pre, defined, seeds);
                check_expr(cond, defined, seeds);
                scan(body, defined, seeds);
            }
            Instr::For {
                var,
                start,
                step,
                stop,
                body,
            } => {
                check_expr(start, defined, seeds);
                check_expr(step, defined, seeds);
                check_expr(stop, defined, seeds);
                defined.insert(*var);
                scan(body, defined, seeds);
            }
            _ => {
                let mut reads = Vec::new();
                instr.reads(&mut reads);
                for r in reads {
                    if !defined.contains(&r) {
                        seeds.insert(r);
                    }
                }
                let mut defs = Vec::new();
                instr.defs(&mut defs);
                defined.extend(defs);
            }
        }
    }
}

/// The taint analysis plus the divergent-communication lint, over the
/// frame whose table is `vars`.
pub struct DivergenceAnalysis<'a> {
    vars: &'a Vars,
    pub findings: Vec<Finding>,
    /// Whether any communication site was reached under divergent
    /// control flow (`false` ⇒ the scope is divergence-free).
    pub divergent_comm: bool,
}

impl<'a> DivergenceAnalysis<'a> {
    pub fn new(vars: &'a Vars) -> Self {
        DivergenceAnalysis {
            vars,
            findings: Vec::new(),
            divergent_comm: false,
        }
    }
}

fn expr_taint(e: &SExpr, env: &Env<Taint>) -> Taint {
    let mut vars = Vec::new();
    sexpr_reads(e, &mut vars);
    vars.iter()
        .fold(Taint::Uniform, |acc, v| acc.join(&env.get(v)))
}

impl Analysis for DivergenceAnalysis<'_> {
    type Fact = Taint;
    type Key = Slot;

    fn transfer(&mut self, instr: &Instr, env: &mut Env<Taint>, ctx: &FlowCtx) {
        match instr {
            // Headers: the runner drives the bodies; nothing is
            // defined by `if`/`while` themselves.
            Instr::If { .. } | Instr::While { .. } => return,
            Instr::For {
                var,
                start,
                step,
                stop,
                ..
            } => {
                let mut t = [start, step, stop]
                    .into_iter()
                    .fold(Taint::Uniform, |acc, e| acc.join(&expr_taint(e, env)));
                if ctx.divergent() {
                    t = Taint::Divergent;
                }
                env.set(*var, t);
                return;
            }
            _ => {}
        }

        let profile = instr.comm_profile();
        if ctx.divergent() && profile.communicates() {
            self.divergent_comm = true;
            let anchor = instr
                .dst()
                .or_else(|| {
                    let mut defs = Vec::new();
                    instr.defs(&mut defs);
                    defs.into_iter().next()
                })
                .map_or(instr.opcode(), |s| self.vars.name(s))
                .to_string();
            let message = if profile.collective {
                format!(
                    "collective divergence: `{}` (`{}`) executes under rank-divergent \
                     control flow; ranks that skip the branch never enter the collective \
                     and the others deadlock",
                    anchor,
                    instr.opcode(),
                )
            } else {
                format!(
                    "send/recv mismatch: point-to-point `{}` (`{}`) executes under \
                     rank-divergent control flow; its sends and receives cannot pair \
                     across ranks",
                    anchor,
                    instr.opcode(),
                )
            };
            self.findings.push(Finding {
                anchor: anchor.clone(),
                message,
            });
        }

        let mut reads = Vec::new();
        instr.reads(&mut reads);
        let read_taint = reads
            .iter()
            .fold(Taint::Uniform, |acc, r| acc.join(&env.get(r)));
        let base = if ctx.divergent() {
            // A def under divergent control flow happens on some ranks
            // only — the merged value differs per rank.
            Taint::Divergent
        } else if profile.collective {
            // A completed collective's replicated result is identical
            // everywhere, whatever each rank contributed.
            Taint::Uniform
        } else {
            read_taint
        };
        let dst = instr.dst();
        if let Some(d) = dst {
            env.set(d, base);
        }
        let mut defs = Vec::new();
        instr.defs(&mut defs);
        for d in defs {
            if dst != Some(d) {
                // In-place updates merge with the existing contents.
                let joined = env.get(&d).join(&base);
                env.set(d, joined);
            }
        }
    }

    fn cond_divergent(&self, cond: &SExpr, env: &Env<Taint>) -> bool {
        expr_taint(cond, env) == Taint::Divergent
    }
}

/// Run the divergence lint over one scope. Returns the findings plus
/// whether the scope is provably divergence-free.
pub fn lint_scope(frame: &Frame) -> (Vec<Finding>, bool) {
    let seeds = read_before_def(&frame.body, &frame.params);
    let mut env = Env::default();
    for s in seeds {
        env.set(s, Taint::Divergent);
    }
    let mut a = DivergenceAnalysis::new(&frame.vars);
    run_block(&mut a, &frame.body, &mut env, &mut FlowCtx::default());
    let free = !a.divergent_comm;
    (a.findings, free)
}

#[cfg(test)]
mod tests {
    use super::*;
    use otter_ir::by_name::*;

    fn reduce(dst: &str, m: &str) -> Instr {
        Instr::Reduce {
            dst: v(dst),
            op: RedOp::Fold(ColRedOp::Sum),
            m: v(m),
        }
    }

    #[test]
    fn uniform_program_is_divergence_free() {
        let body = vec![
            Instr::InitMatrix {
                dst: v("a"),
                init: MatInit::Rand {
                    rows: SExpr::c(4.0),
                    cols: SExpr::c(4.0),
                },
            },
            Instr::If {
                cond: SExpr::bin(SBinOp::Gt, var("n"), SExpr::c(2.0)),
                then_body: vec![reduce("s", "a")],
                else_body: vec![],
            },
        ];
        // `n` is read before def → divergent seed... so make it defined:
        let body = [
            vec![Instr::AssignScalar {
                dst: v("n"),
                src: SExpr::c(4.0),
            }],
            body,
        ]
        .concat();
        let (findings, free) = lint_scope(&frame(body));
        assert!(free, "{findings:?}");
        assert!(findings.is_empty());
    }

    #[test]
    fn collective_under_divergent_branch_flagged() {
        // `r` is read before any def: a stand-in for a per-rank value.
        let body = vec![
            Instr::InitMatrix {
                dst: v("a"),
                init: MatInit::Rand {
                    rows: SExpr::c(4.0),
                    cols: SExpr::c(4.0),
                },
            },
            Instr::If {
                cond: SExpr::bin(SBinOp::Gt, var("r"), SExpr::c(0.0)),
                then_body: vec![reduce("s", "a")],
                else_body: vec![],
            },
        ];
        let (findings, free) = lint_scope(&frame(body));
        assert!(!free);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("collective divergence"));
        assert!(findings[0].message.contains("`s`"));
    }

    #[test]
    fn point_to_point_under_divergence_reports_mismatch() {
        let body = vec![
            Instr::InitMatrix {
                dst: v("a"),
                init: MatInit::Rand {
                    rows: SExpr::c(4.0),
                    cols: SExpr::c(4.0),
                },
            },
            Instr::While {
                pre: vec![],
                cond: SExpr::bin(SBinOp::Gt, var("r"), SExpr::c(0.0)),
                body: vec![Instr::Transpose {
                    dst: v("b"),
                    a: v("a"),
                }],
            },
        ];
        let (findings, free) = lint_scope(&frame(body));
        assert!(!free);
        assert!(
            findings
                .iter()
                .any(|f| f.message.contains("send/recv mismatch")),
            "{findings:?}"
        );
    }

    #[test]
    fn taint_propagates_through_defs_and_collectives_synchronize() {
        // x <- r (divergent); s <- reduce(a) (uniform result);
        // y <- x + 1 (divergent).
        let body = vec![
            Instr::InitMatrix {
                dst: v("a"),
                init: MatInit::Rand {
                    rows: SExpr::c(4.0),
                    cols: SExpr::c(4.0),
                },
            },
            Instr::AssignScalar {
                dst: v("x"),
                src: var("r"),
            },
            reduce("s", "a"),
            Instr::AssignScalar {
                dst: v("y"),
                src: SExpr::bin(SBinOp::Add, var("x"), SExpr::c(1.0)),
            },
        ];
        let seeds = read_before_def(&body, &[]);
        assert!(seeds.contains(&v("r")));
        let mut env = Env::default();
        for &s in &seeds {
            env.set(s, Taint::Divergent);
        }
        let vars = frame(vec![]).vars;
        let mut a = DivergenceAnalysis::new(&vars);
        run_block(&mut a, &body, &mut env, &mut FlowCtx::default());
        assert_eq!(env.get(&v("x")), Taint::Divergent);
        assert_eq!(env.get(&v("s")), Taint::Uniform);
        assert_eq!(env.get(&v("y")), Taint::Divergent);
    }

    #[test]
    fn function_params_are_not_seeds() {
        let body = vec![reduce("s", "m")];
        let seeds = read_before_def(&body, &[v("m")]);
        assert!(seeds.is_empty());
    }
}
