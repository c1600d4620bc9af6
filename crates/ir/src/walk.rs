//! The two traversals every IR pass and analysis shares. A new walk
//! over `if`/`while`/`for` bodies is built on one of these, not on a
//! hand-written recursion:
//!
//! * [`preorder`] — every instruction of a block, nested bodies
//!   included, with its loop depth. Control-flow headers come before
//!   their bodies, `then` before `else`, a `while`'s `pre` before its
//!   `body`: the order [`crate::leaf_sites`] numbers sites in. An
//!   explicit stack, so nesting depth costs no native stack.
//! * [`visit_blocks_mut`] — every block, innermost first, each with
//!   the variables read after it ends (`live_out`), for the rewrites that
//!   must not drop or free a value something later still reads.

use crate::flow::sexpr_reads;
use crate::frame::{IrProgram, Slot, Vars};
use crate::instr::Instr;
use std::slice;

/// Pre-order iterator over a block; see [`preorder`].
pub struct Preorder<'p> {
    /// The innermost unfinished block and its loop depth.
    block: slice::Iter<'p, Instr>,
    depth: u32,
    /// The unfinished blocks around it, innermost last. A walk of
    /// straight-line code never allocates.
    outer: Vec<(slice::Iter<'p, Instr>, u32)>,
}

/// Every instruction of `body` and of its nested bodies, as
/// `(instr, loop_depth)` in pre-order. `loop_depth` counts the
/// enclosing `for`/`while` bodies (a `while`'s `pre` is one of them);
/// an `if` does not add to it.
#[inline]
pub fn preorder(body: &[Instr]) -> Preorder<'_> {
    Preorder {
        block: body.iter(),
        depth: 0,
        outer: Vec::new(),
    }
}

impl<'p> Preorder<'p> {
    /// Walk `body` next, then resume the current block.
    #[inline]
    fn enter(&mut self, body: &'p [Instr], depth: u32) {
        if !body.is_empty() {
            let resume = std::mem::replace(&mut self.block, body.iter());
            self.outer.push((resume, self.depth));
            self.depth = depth;
        }
    }
}

impl<'p> Iterator for Preorder<'p> {
    type Item = (&'p Instr, u32);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let instr = loop {
            match self.block.next() {
                Some(instr) => break instr,
                None => (self.block, self.depth) = self.outer.pop()?,
            }
        };
        let depth = self.depth;
        // Enter nested bodies last-visited first.
        match instr {
            Instr::If {
                then_body,
                else_body,
                ..
            } => {
                self.enter(else_body, depth);
                self.enter(then_body, depth);
            }
            Instr::While { pre, body, .. } => {
                self.enter(body, depth + 1);
                self.enter(pre, depth + 1);
            }
            Instr::For { body, .. } => self.enter(body, depth + 1),
            _ => {}
        }
        Some((instr, depth))
    }
}

/// Call `f(block, live_out)` on every nested block of `block`, then on
/// `block` itself: post-order, so a block's rewrites see its nested
/// blocks already rewritten. `live_out` holds the slots read after a
/// block ends. A nested `if` arm or `for` body inherits its parent's;
/// a `while`'s `pre` adds the condition's reads (the condition runs
/// after it), and its `body` adds the condition's and `pre`'s reads
/// too (`pre` re-runs after every iteration).
pub fn visit_blocks_mut<F>(block: &mut Vec<Instr>, live_out: &[Slot], f: &mut F)
where
    F: FnMut(&mut Vec<Instr>, &[Slot]),
{
    for instr in block.iter_mut() {
        match instr {
            Instr::If {
                then_body,
                else_body,
                ..
            } => {
                visit_blocks_mut(then_body, live_out, f);
                visit_blocks_mut(else_body, live_out, f);
            }
            Instr::While { pre, cond, body } => {
                let mut pre_live = live_out.to_vec();
                sexpr_reads(cond, &mut pre_live);
                let mut body_live = pre_live.clone();
                for i in pre.iter() {
                    i.reads(&mut body_live);
                }
                visit_blocks_mut(pre, &pre_live, f);
                visit_blocks_mut(body, &body_live, f);
            }
            Instr::For { body, .. } => visit_blocks_mut(body, live_out, f),
            _ => {}
        }
    }
    f(block, live_out);
}

impl IrProgram {
    /// [`visit_blocks_mut`] over every scope, each starting from the
    /// scope's own live-out slots, with the scope's slot table.
    pub fn visit_blocks_mut<F>(&mut self, f: &mut F)
    where
        F: FnMut(&mut Vec<Instr>, &[Slot], &Vars),
    {
        for (frame, live_out) in self.frames_mut() {
            let vars = &frame.vars;
            visit_blocks_mut(&mut frame.body, &live_out, &mut |block, live| {
                f(block, live, vars)
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::by_name::*;
    use crate::instr::SExpr;

    fn assign(dst: &str, src: SExpr) -> Instr {
        Instr::AssignScalar { dst: v(dst), src }
    }

    fn nest() -> Vec<Instr> {
        vec![
            assign("a", SExpr::c(0.0)),
            Instr::While {
                pre: vec![assign("w", var("a"))],
                cond: var("w"),
                body: vec![Instr::If {
                    cond: var("a"),
                    then_body: vec![assign("t", SExpr::c(1.0))],
                    else_body: vec![Instr::For {
                        var: v("i"),
                        start: SExpr::c(1.0),
                        step: SExpr::c(1.0),
                        stop: SExpr::c(2.0),
                        body: vec![assign("e", var("i"))],
                    }],
                }],
            },
            assign("z", SExpr::c(2.0)),
        ]
    }

    #[test]
    fn preorder_visits_headers_then_bodies_with_loop_depth() {
        let f = frame(nest());
        let seen: Vec<(String, u32)> = preorder(&f.body)
            .map(|(i, d)| {
                let mut defs = Vec::new();
                i.defs(&mut defs);
                let def = defs.pop().map(|s| f.vars.name(s).to_string());
                (def.unwrap_or_else(|| i.opcode().into()), d)
            })
            .collect();
        let want = [
            ("a", 0),
            ("while", 0),
            ("w", 1),
            ("if", 1),
            ("t", 1),
            ("i", 1),
            ("e", 2),
            ("z", 0),
        ];
        let want: Vec<(String, u32)> = want.iter().map(|&(n, d)| (n.into(), d)).collect();
        assert_eq!(seen, want);
    }

    #[test]
    fn preorder_survives_nesting_far_past_the_parser_cap() {
        let mut body = vec![assign("x", SExpr::c(0.0))];
        for _ in 0..1000 {
            body = vec![Instr::For {
                var: v("i"),
                start: SExpr::c(1.0),
                step: SExpr::c(1.0),
                stop: SExpr::c(2.0),
                body,
            }];
        }
        assert_eq!(preorder(&body).count(), 1001);
        assert_eq!(preorder(&body).last().map(|(_, d)| d), Some(1000));
    }

    #[test]
    fn blocks_are_visited_innermost_first_with_while_liveness() {
        let out = v("out");
        let mut f = frame(nest());
        let mut visits: Vec<(usize, Vec<String>)> = Vec::new();
        visit_blocks_mut(&mut f.body, &[out], &mut |block, live| {
            let mut live: Vec<String> = live.iter().map(|&s| f.vars.name(s).into()).collect();
            live.sort();
            visits.push((block.len(), live));
        });
        let names = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            visits,
            vec![
                // `pre`: the condition reads `w`.
                (1, names(&["out", "w"])),
                // then-arm, for body, else-arm: `pre` also reads `a`.
                (1, names(&["a", "out", "w"])),
                (1, names(&["a", "out", "w"])),
                (1, names(&["a", "out", "w"])),
                // the while body, then the root.
                (1, names(&["a", "out", "w"])),
                (3, names(&["out"])),
            ]
        );
    }
}
