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

use crate::frame::{Frame, IrProgram};
use crate::instr::Instr;
use crate::walk::preorder;

/// Where a site lives, for display.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteRef<'p> {
    /// Site index in the global enumeration.
    pub id: u32,
    /// Enclosing function name, or `None` for the script body.
    pub func: Option<&'p str>,
    /// The enclosing frame, whose table names the site's variables.
    pub frame: &'p Frame,
    /// The leaf instruction itself.
    pub instr: &'p Instr,
    /// Number of enclosing loops (`for`/`while`), a quick static hint
    /// that the site executes more than once.
    pub loop_depth: u32,
}

/// True for instructions that are enumerated as sites.
pub fn is_leaf(i: &Instr) -> bool {
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
/// leaves of [`preorder`] over each of [`IrProgram::frames`].
pub fn leaf_sites(prog: &IrProgram) -> Vec<SiteRef<'_>> {
    prog.frames()
        .flat_map(|frame| {
            preorder(&frame.body)
                .filter(|(i, _)| is_leaf(i))
                .map(move |(instr, loop_depth)| (frame, instr, loop_depth))
        })
        .zip(0..)
        .map(|((frame, instr, loop_depth), id)| SiteRef {
            id,
            func: frame.func(),
            frame,
            instr,
            loop_depth,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::by_name::*;
    use crate::instr::*;

    fn assign(dst: &str) -> Instr {
        Instr::AssignScalar {
            dst: v(dst),
            src: SExpr::c(0.0),
        }
    }

    #[test]
    fn preorder_descends_control_flow_and_skips_non_leaves() {
        let prog = program(vec![
            assign("a"),
            Instr::For {
                var: v("i"),
                start: SExpr::c(1.0),
                step: SExpr::c(1.0),
                stop: SExpr::c(4.0),
                body: vec![
                    assign("b"),
                    Instr::If {
                        cond: var("a"),
                        then_body: vec![assign("c")],
                        else_body: vec![Instr::Break],
                    },
                ],
            },
            Instr::While {
                pre: vec![assign("w")],
                cond: var("w"),
                body: vec![assign("d")],
            },
        ]);
        let sites = leaf_sites(&prog);
        let names: Vec<_> = sites
            .iter()
            .map(|s| match s.instr {
                Instr::AssignScalar { dst, .. } => s.frame.vars.name(*dst),
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
        let mut prog = program(vec![assign("m")]);
        for name in ["zeta", "alpha"] {
            let body = vec![assign(name)];
            let f = Frame {
                name: name.into(),
                ..frame(body)
            };
            prog.functions.insert(name.into(), f);
        }
        let sites = leaf_sites(&prog);
        let where_: Vec<_> = sites.iter().map(|s| s.func).collect();
        assert_eq!(where_, vec![None, Some("alpha"), Some("zeta")]);
    }
}
