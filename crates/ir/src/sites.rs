//! Stable enumeration of *communication sites* — the leaf
//! instructions of a program, in deterministic pre-order.
//!
//! Both consumers must agree on this order exactly:
//!
//! * the **static oracle** (`otter-lint::oracle`) predicts a
//!   `messages(p)` / `bytes(p)` formula per site;
//! * the **executor** (`otter-core::exec`) measures the realized
//!   communication per site when analysis is enabled.
//!
//! The cross-validation property (`tests/shape_oracle_prop.rs`)
//! asserts the two agree site-by-site, which is only meaningful if
//! site *k* means the same instruction to both. The order is: every
//! leaf of `main`, then every leaf of each function in `BTreeMap`
//! (name) order; control flow (`if`/`while`/`for`) is descended —
//! condition-feeding `pre` blocks before bodies — and is itself not a
//! site, and neither are `call`/`break`/`continue` (they never
//! communicate; the callee's body instructions are enumerated under
//! the callee).

use crate::instr::{Instr, IrProgram};
use crate::walk::preorder;

/// Where a site lives, for display.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteRef<'p> {
    /// Site index in the global enumeration.
    pub id: u32,
    /// Enclosing function name, or `None` for the script body.
    pub func: Option<&'p str>,
    /// The leaf instruction itself.
    pub instr: &'p Instr,
    /// Number of enclosing loops (`for`/`while`), a quick static hint
    /// that the site executes more than once.
    pub loop_depth: u32,
}

/// True for instructions that are enumerated as sites.
pub fn is_leaf<V>(i: &Instr<V>) -> bool {
    !matches!(
        i,
        Instr::If { .. }
            | Instr::While { .. }
            | Instr::For { .. }
            | Instr::Call { .. }
            | Instr::Break
            | Instr::Continue
    )
}

/// Enumerate every leaf site of `prog` in the canonical order: the
/// leaves of [`preorder`] over each of [`IrProgram::bodies`].
pub fn leaf_sites(prog: &IrProgram) -> Vec<SiteRef<'_>> {
    prog.bodies()
        .flat_map(|(func, body)| {
            preorder(body)
                .filter(|(i, _)| is_leaf(i))
                .map(move |(instr, loop_depth)| (func, instr, loop_depth))
        })
        .zip(0..)
        .map(|((func, instr, loop_depth), id)| SiteRef {
            id,
            func,
            instr,
            loop_depth,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::*;

    fn assign(dst: &str) -> Instr {
        Instr::AssignScalar {
            dst: dst.into(),
            src: SExpr::c(0.0),
        }
    }

    #[test]
    fn preorder_descends_control_flow_and_skips_non_leaves() {
        let prog = IrProgram {
            main: vec![
                assign("a"),
                Instr::For {
                    var: "i".into(),
                    start: SExpr::c(1.0),
                    step: SExpr::c(1.0),
                    stop: SExpr::c(4.0),
                    body: vec![
                        assign("b"),
                        Instr::If {
                            cond: SExpr::var("a"),
                            then_body: vec![assign("c")],
                            else_body: vec![Instr::Break],
                        },
                    ],
                },
                Instr::While {
                    pre: vec![assign("w")],
                    cond: SExpr::var("w"),
                    body: vec![assign("d")],
                },
            ],
            ..Default::default()
        };
        let sites = leaf_sites(&prog);
        let names: Vec<_> = sites
            .iter()
            .map(|s| match s.instr {
                Instr::AssignScalar { dst, .. } => dst.as_str(),
                _ => "?",
            })
            .collect();
        assert_eq!(names, vec!["a", "b", "c", "w", "d"]);
        assert_eq!(
            sites.iter().map(|s| s.loop_depth).collect::<Vec<_>>(),
            vec![0, 1, 1, 1, 1]
        );
        assert_eq!(
            sites.iter().map(|s| s.id).collect::<Vec<_>>(),
            [0, 1, 2, 3, 4]
        );
    }

    #[test]
    fn function_bodies_follow_main_in_name_order() {
        let mut prog = IrProgram {
            main: vec![assign("m")],
            ..Default::default()
        };
        for name in ["zeta", "alpha"] {
            prog.functions.insert(
                name.into(),
                IrFunction {
                    name: name.into(),
                    body: vec![assign(name)],
                    ..Default::default()
                },
            );
        }
        let sites = leaf_sites(&prog);
        let where_: Vec<_> = sites.iter().map(|s| s.func).collect();
        assert_eq!(where_, vec![None, Some("alpha"), Some("zeta")]);
    }
}
