//! Shape-safety lints and the SSA-web in-place legality analysis.
//!
//! The lints are *errors* (not warnings): each one identifies a
//! construct the deterministic run-time library would abort on —
//! mismatched elementwise operand shapes, disagreeing matmul/matvec
//! inner dimensions, dot/trapz length mismatches, and constant indices
//! provably outside their matrix's inferred bounds. They fire only
//! when every involved quantity is statically concrete (a known
//! constant or a sample-evaluated symbolic dimension), so a program
//! that compiles clean at the sample shapes stays clean.
//!
//! The in-place analysis groups a scope's matrix variables into SSA
//! webs (shared base name before the `__N` rename suffix) and marks a
//! web *in-place updatable* when its members' live ranges never
//! overlap — each member's storage is dead by the time the next is
//! defined, so one buffer could serve the whole web. The result is
//! recorded on the IR (each [`otter_ir::Var`]'s `in_place`) as a legality fact for
//! later fusion/copy-elision work and reported by `--analyze`.

use crate::oracle::Scope;
use otter_frontend::Diagnostic;
use otter_ir::{
    preorder, sexpr_reads, split_web, Frame, Instr, IrProgram, SExpr, Slot, VarRank, Vars,
};
use std::collections::BTreeMap;

/// A shape-safety finding: message + anchor variable (resolved to a
/// span by the caller, like every other lint).
struct ShapeFinding {
    anchor: String,
    message: String,
}

/// Lint one scope; returns error-severity diagnostics with spans.
pub(crate) fn lint_scope(frame: &Frame) -> Vec<Diagnostic> {
    check_scope(&frame.body, &Scope::new(frame))
        .into_iter()
        .map(|f| {
            let span = crate::def_span(frame, &f.anchor);
            let message = match frame.func() {
                Some(name) => format!("{} (in function `{}`)", f.message, name),
                None => f.message,
            };
            Diagnostic::new("shape", message).with_span(span)
        })
        .collect()
}

/// Every shape finding of one scope, in pre-order.
fn check_scope(body: &[Instr], cx: &Scope) -> Vec<ShapeFinding> {
    let mut findings = Vec::new();
    for (i, _) in preorder(body) {
        check_instr(i, cx, &mut findings);
    }
    findings
}

/// Concrete `(rows, cols)` when both dims resolve.
fn dims(cx: &Scope, v: &Slot) -> Option<(usize, usize)> {
    cx.shape(*v).concrete()
}

fn numel(cx: &Scope, v: &Slot) -> Option<usize> {
    dims(cx, v).map(|(r, c)| r * c)
}

fn shape_str(cx: &Scope, v: &Slot) -> String {
    cx.shape(*v).to_string()
}

#[allow(clippy::too_many_lines)]
fn check_instr(i: &Instr, cx: &Scope, out: &mut Vec<ShapeFinding>) {
    if let Instr::Fused(f) = i {
        for i in f.unfused(cx.vars) {
            check_instr(&i, cx, out);
        }
        return;
    }
    let nm = |s: &Slot| cx.vars.name(*s);
    let mut err = |anchor: &str, message: String| {
        out.push(ShapeFinding {
            anchor: anchor.to_string(),
            message,
        });
    };

    // 1-based index against an inclusive bound, when both are known.
    let index_oob = |idx: &SExpr, bound: Option<usize>| -> Option<(i64, usize)> {
        let v = cx.eval(idx)?;
        let bound = bound?;
        if v.fract() != 0.0 {
            return None;
        }
        let v = v as i64;
        (v < 1 || v > bound as i64).then_some((v, bound))
    };

    match i {
        Instr::ElemWise { dst, expr } => {
            let mut ops = Vec::new();
            expr.mat_operands(&mut ops);
            ops.dedup();
            // All matrix operands of one fused loop must be aligned:
            // identical shapes, element for element.
            for pair in ops.windows(2) {
                let (a, b) = (&pair[0], &pair[1]);
                if let (Some(da), Some(db)) = (dims(cx, a), dims(cx, b)) {
                    if da != db {
                        err(
                            nm(dst),
                            format!(
                                "elementwise shape mismatch: `{a}` is {} but `{b}` is {}",
                                shape_str(cx, a),
                                shape_str(cx, b),
                                a = nm(a),
                                b = nm(b)
                            ),
                        );
                    }
                }
            }
        }
        Instr::MatMul { dst, a, b } => {
            if let (Some((_, ka)), Some((kb, _))) = (dims(cx, a), dims(cx, b)) {
                if ka != kb {
                    err(
                        nm(dst),
                        format!(
                            "matmul inner dimensions disagree: `{a}` is {} but `{b}` is {}",
                            shape_str(cx, a),
                            shape_str(cx, b),
                            a = nm(a),
                            b = nm(b)
                        ),
                    );
                }
            }
        }
        Instr::MatVec { dst, a, x } => {
            if let (Some((_, ka)), Some(nx)) = (dims(cx, a), numel(cx, x)) {
                if ka != nx {
                    err(
                        nm(dst),
                        format!(
                            "matvec dimensions disagree: `{a}` is {} but `{x}` has {nx} elements",
                            shape_str(cx, a),
                            a = nm(a),
                            x = nm(x)
                        ),
                    );
                }
            }
            if let Some((r, c)) = dims(cx, x) {
                if r != 1 && c != 1 {
                    err(
                        nm(dst),
                        format!(
                            "matvec needs a vector: `{x}` is {}",
                            shape_str(cx, x),
                            x = nm(x)
                        ),
                    );
                }
            }
        }
        Instr::Outer { dst, u, v } => {
            for op in [u, v] {
                if let Some((r, c)) = dims(cx, op) {
                    if r != 1 && c != 1 {
                        err(
                            nm(dst),
                            format!(
                                "outer needs vectors: `{op}` is {}",
                                shape_str(cx, op),
                                op = nm(op)
                            ),
                        );
                    }
                }
            }
        }
        Instr::Dot { dst, a, b } => {
            if let (Some(na), Some(nb)) = (numel(cx, a), numel(cx, b)) {
                if na != nb {
                    err(
                        nm(dst),
                        format!(
                            "dot length mismatch: `{a}` has {na} elements but `{b}` has {nb}",
                            a = nm(a),
                            b = nm(b)
                        ),
                    );
                }
            }
        }
        Instr::TrapzXY { dst, x, y } => {
            if let (Some(nx), Some(ny)) = (numel(cx, x), numel(cx, y)) {
                if nx != ny {
                    err(
                        nm(dst),
                        format!(
                            "trapz length mismatch: `{x}` has {nx} elements but `{y}` has {ny}",
                            x = nm(x),
                            y = nm(y)
                        ),
                    );
                }
            }
        }
        Instr::Shift { dst, v, .. } => {
            if let Some((r, c)) = dims(cx, v) {
                if r != 1 && c != 1 {
                    err(
                        nm(dst),
                        format!(
                            "circshift needs a vector: `{v}` is {}",
                            shape_str(cx, v),
                            v = nm(v)
                        ),
                    );
                }
            }
        }
        Instr::BroadcastElem { dst, m, i, j } => {
            check_elem_index(cx, nm(dst), m, i, j.as_ref(), &mut err);
        }
        Instr::StoreElem { m, i, j, .. } => {
            check_elem_index(cx, nm(m), m, i, j.as_ref(), &mut err);
        }
        Instr::ExtractRow { dst, m, i } => {
            if let Some((idx, rows)) = index_oob(i, dims(cx, m).map(|(r, _)| r)) {
                err(
                    nm(dst),
                    format!(
                        "row index {idx} out of bounds: `{m}` has {rows} rows",
                        m = nm(m)
                    ),
                );
            }
        }
        Instr::AssignRow { m, i, v } => {
            if let Some((idx, rows)) = index_oob(i, dims(cx, m).map(|(r, _)| r)) {
                err(
                    nm(m),
                    format!(
                        "row index {idx} out of bounds: `{m}` has {rows} rows",
                        m = nm(m)
                    ),
                );
            }
            if let (Some((_, cols)), Some(nv)) = (dims(cx, m), numel(cx, v)) {
                if cols != nv {
                    err(
                        nm(m),
                        format!(
                            "row assignment length mismatch: `{m}` has {cols} columns but `{v}` has {nv} elements", m = nm(m), v = nm(v)),
                    );
                }
            }
        }
        Instr::ExtractCol { dst, m, j } => {
            if let Some((idx, cols)) = index_oob(j, dims(cx, m).map(|(_, c)| c)) {
                err(
                    nm(dst),
                    format!(
                        "column index {idx} out of bounds: `{m}` has {cols} columns",
                        m = nm(m)
                    ),
                );
            }
        }
        Instr::AssignCol { m, j, v } => {
            if let Some((idx, cols)) = index_oob(j, dims(cx, m).map(|(_, c)| c)) {
                err(
                    nm(m),
                    format!(
                        "column index {idx} out of bounds: `{m}` has {cols} columns",
                        m = nm(m)
                    ),
                );
            }
            if let (Some((rows, _)), Some(nv)) = (dims(cx, m), numel(cx, v)) {
                if rows != nv {
                    err(
                        nm(m),
                        format!(
                            "column assignment length mismatch: `{m}` has {rows} rows but `{v}` has {nv} elements", m = nm(m), v = nm(v)),
                    );
                }
            }
        }
        Instr::FillRow { m, i, .. } => {
            if let Some((idx, rows)) = index_oob(i, dims(cx, m).map(|(r, _)| r)) {
                err(
                    nm(m),
                    format!(
                        "row index {idx} out of bounds: `{m}` has {rows} rows",
                        m = nm(m)
                    ),
                );
            }
        }
        Instr::FillCol { m, j, .. } => {
            if let Some((idx, cols)) = index_oob(j, dims(cx, m).map(|(_, c)| c)) {
                err(
                    nm(m),
                    format!(
                        "column index {idx} out of bounds: `{m}` has {cols} columns",
                        m = nm(m)
                    ),
                );
            }
        }
        Instr::ExtractRange { dst, v, lo, hi } => {
            check_range(cx, nm(dst), v, lo, hi, &mut err);
        }
        Instr::FillRange { m, lo, hi, .. } => {
            check_range(cx, nm(m), m, lo, hi, &mut err);
        }
        Instr::AssignRange { m, lo, hi, v } => {
            check_range(cx, nm(m), m, lo, hi, &mut err);
            if let (Some(l), Some(h), Some(nv)) = (cx.eval(lo), cx.eval(hi), numel(cx, v)) {
                if l.fract() == 0.0 && h.fract() == 0.0 && h >= l {
                    let want = (h - l) as usize + 1;
                    if want != nv {
                        err(
                            nm(m),
                            format!(
                                "range assignment length mismatch: `{m}({l}:{h})` has {want} elements but `{v}` has {nv}", m = nm(m), v = nm(v)),
                        );
                    }
                }
            }
        }
        Instr::ExtractStrided {
            dst,
            v,
            lo,
            step,
            hi,
        } => {
            if let (Some(l), Some(s), Some(h), Some(n)) =
                (cx.eval(lo), cx.eval(step), cx.eval(hi), numel(cx, v))
            {
                // A non-empty strided range touches exactly its two
                // end points' extremes.
                let non_empty = (s > 0.0 && l <= h) || (s < 0.0 && l >= h);
                if non_empty && (l.min(h) < 1.0 || l.max(h) > n as f64) {
                    err(
                        nm(dst),
                        format!(
                            "strided range {l}:{s}:{h} out of bounds: `{v}` has {n} elements",
                            v = nm(v)
                        ),
                    );
                }
            }
        }
        _ => {}
    }
}

/// Element access `m(i)` / `m(i, j)` against inferred bounds.
fn check_elem_index(
    cx: &Scope,
    anchor: &str,
    m: &Slot,
    i: &SExpr,
    j: Option<&SExpr>,
    err: &mut impl FnMut(&str, String),
) {
    let Some((rows, cols)) = dims(cx, m) else {
        return;
    };
    let (name, shape) = (cx.vars.name(*m), cx.shape(*m));
    let as_int = |e: &SExpr| cx.eval(e).filter(|v| v.fract() == 0.0).map(|v| v as i64);
    match j {
        Some(j) => {
            if let Some(iv) = as_int(i) {
                if iv < 1 || iv > rows as i64 {
                    err(
                        anchor,
                        format!("row index {iv} out of bounds: `{name}` is {shape}"),
                    );
                }
            }
            if let Some(jv) = as_int(j) {
                if jv < 1 || jv > cols as i64 {
                    err(
                        anchor,
                        format!("column index {jv} out of bounds: `{name}` is {shape}"),
                    );
                }
            }
        }
        None => {
            // Linear (vector) indexing bounds by element count.
            if let Some(iv) = as_int(i) {
                if iv < 1 || iv > (rows * cols) as i64 {
                    err(
                        anchor,
                        format!(
                            "index {iv} out of bounds: `{name}` has {} elements",
                            rows * cols
                        ),
                    );
                }
            }
        }
    }
}

/// `v(lo:hi)` bounds; empty ranges (`lo > hi`) are legal MATLAB.
fn check_range(
    cx: &Scope,
    anchor: &str,
    v: &Slot,
    lo: &SExpr,
    hi: &SExpr,
    err: &mut impl FnMut(&str, String),
) {
    let (Some(l), Some(h), Some(n)) = (cx.eval(lo), cx.eval(hi), numel(cx, v)) else {
        return;
    };
    if l.fract() != 0.0 || h.fract() != 0.0 || h < l {
        return;
    }
    if l < 1.0 || h > n as f64 {
        err(
            anchor,
            format!(
                "range {l}:{h} out of bounds: `{}` has {n} elements",
                cx.vars.name(*v)
            ),
        );
    }
}

// ---- SSA-web in-place legality ---------------------------------------------

/// Variables one instruction mentions, defined or read, from the IR's
/// own dataflow facts (scalars are recorded too; the web grouping
/// filters by rank later). Control flow contributes only its header
/// expressions here: the pre-order walk reaches the bodies.
fn mentions(i: &Instr, out: &mut Vec<Slot>) {
    i.defs(out);
    match i {
        Instr::If { cond, .. } | Instr::While { cond, .. } => sexpr_reads(cond, out),
        Instr::For {
            start, step, stop, ..
        } => {
            for e in [start, step, stop] {
                sexpr_reads(e, out);
            }
        }
        _ => i.reads(out),
    }
}

/// Live interval `[first mention, last mention]` per variable, in
/// positions of one linear pre-order pass, plus the number of
/// positions used. Each loop body is walked once. When control leaves
/// a loop, every variable mentioned inside it is extended to one
/// virtual back-edge position past the body: the next iteration may
/// mention it again, so a value defined in one iteration and read in
/// the next overlaps whatever is born in between.
fn live_intervals(body: &[Instr]) -> (BTreeMap<Slot, (usize, usize)>, usize) {
    let mut interval: BTreeMap<Slot, (usize, usize)> = BTreeMap::new();
    // First body position of each enclosing loop, outermost first.
    let mut loops: Vec<usize> = Vec::new();
    let mut pos = 0;
    let mut vars = Vec::new();
    for (i, depth) in preorder(body) {
        leave_loops(&mut loops, depth as usize, &mut interval, &mut pos);
        mentions(i, &mut vars);
        for v in vars.drain(..) {
            interval
                .entry(v)
                .and_modify(|(_, end)| *end = pos)
                .or_insert((pos, pos));
        }
        pos += 1;
        if matches!(i, Instr::While { .. } | Instr::For { .. }) {
            loops.push(pos);
        }
    }
    leave_loops(&mut loops, 0, &mut interval, &mut pos);
    (interval, pos)
}

/// Leave every loop nested deeper than `depth`: the variables
/// mentioned since the outermost of them began its body reach one
/// fresh back-edge position.
fn leave_loops(
    loops: &mut Vec<usize>,
    depth: usize,
    interval: &mut BTreeMap<Slot, (usize, usize)>,
    pos: &mut usize,
) {
    let Some(&body_start) = loops.get(depth) else {
        return;
    };
    loops.truncate(depth);
    for (_, end) in interval.values_mut() {
        if *end >= body_start {
            *end = *pos;
        }
    }
    *pos += 1;
}

/// Matrix variables of one scope proven safe to update in place:
/// members of a multi-member SSA web whose live intervals never
/// overlap and whose concrete shapes agree, so the whole web could
/// share one distributed buffer.
pub(crate) fn in_place_scope(frame: &Frame, live_out: &[Slot]) -> Vec<Slot> {
    let (interval, end) = live_intervals(&frame.body);
    let shapes = crate::oracle::refined_shapes(frame);
    in_place_webs(interval, end, &frame.vars, &shapes, live_out)
}

fn in_place_webs(
    mut interval: BTreeMap<Slot, (usize, usize)>,
    end: usize,
    vars: &Vars,
    shapes: &[Option<otter_analysis::Shape>],
    live_out: &[Slot],
) -> Vec<Slot> {
    // Scope outputs stay live past the last instruction.
    for v in live_out {
        if let Some((_, last)) = interval.get_mut(v) {
            *last = end;
        }
    }

    // Group by web in name order, so that members sharing a first
    // mention keep the order they sort in by name.
    let mut mentioned: Vec<Slot> = interval.keys().copied().collect();
    mentioned.sort_by_key(|&s| vars.name(s));
    let mut webs: BTreeMap<&str, Vec<Slot>> = BTreeMap::new();
    for s in mentioned {
        let var = &vars[s];
        if var.rank == VarRank::Matrix {
            let base = split_web(&var.name).map_or(var.name.as_str(), |(base, _)| base);
            webs.entry(base).or_default().push(s);
        }
    }

    let mut ok = Vec::new();
    for (_, mut members) in webs {
        if members.len() < 2 {
            continue;
        }
        members.sort_by_key(|m| interval[m].0);
        let shapes_agree =
            members
                .windows(2)
                .all(|w| match (shapes[w[0].index()], shapes[w[1].index()]) {
                    (Some(a), Some(b)) => a.concrete().is_some() && a.concrete() == b.concrete(),
                    _ => false,
                });
        // Consecutive intervals may touch at the defining instruction
        // (the in-place update point: `x__1 = f(x)` reads x exactly
        // where x__1 is born) but never extend past it.
        let disjoint = members
            .windows(2)
            .all(|w| interval[&w[0]].1 <= interval[&w[1]].0);
        if shapes_agree && disjoint {
            ok.extend(members);
        }
    }
    ok
}

/// Mark every variable of the program that is legal to update in place.
pub fn annotate_in_place(prog: &mut IrProgram) {
    for (frame, live_out) in prog.frames_mut() {
        for s in in_place_scope(frame, &live_out) {
            frame.vars[s].in_place = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otter_analysis::Shape;
    use otter_ir::by_name::*;
    use otter_ir::{ColRedOp, MatInit, RedOp};

    /// The scratch table so far as a frame of `body`, with `pairs`'
    /// shapes (and ranks: each is a matrix).
    fn shaped(body: Vec<Instr>, pairs: &[(&str, usize, usize)]) -> Frame {
        for &(n, _, _) in pairs {
            matrices(&[n]);
        }
        let mut f = frame(body);
        for &(n, r, c) in pairs {
            f.vars[v(n)].shape = Some(Shape::known(r, c));
        }
        f
    }

    /// `frame`'s findings against its recorded shapes alone.
    fn check(f: &Frame) -> Vec<ShapeFinding> {
        let shapes = f.vars.iter().map(|(_, v)| v.shape).collect();
        check_scope(
            &f.body,
            &Scope {
                vars: &f.vars,
                shapes,
            },
        )
    }

    #[test]
    fn mismatched_dot_and_oob_index_are_errors() {
        let pairs = &[("a", 1, 16), ("b", 1, 9), ("m", 4, 4)];
        let body = vec![
            Instr::Dot {
                dst: v("s"),
                a: v("a"),
                b: v("b"),
            },
            Instr::BroadcastElem {
                dst: v("t"),
                m: v("m"),
                i: SExpr::c(5.0),
                j: Some(SExpr::c(1.0)),
            },
        ];
        let findings = check(&shaped(body, pairs));
        assert_eq!(
            findings.len(),
            2,
            "{:?}",
            findings.iter().map(|f| &f.message).collect::<Vec<_>>()
        );
        assert!(findings[0].message.contains("dot length mismatch"));
        assert!(findings[1].message.contains("row index 5 out of bounds"));
    }

    #[test]
    fn clean_and_unknown_shapes_stay_silent() {
        // Unknown shapes must never fire an error-severity lint.
        let pairs = &[("a", 1, 16)];
        let body = vec![
            Instr::Dot {
                dst: v("s"),
                a: v("a"),
                b: v("unknown_b"),
            },
            Instr::Dot {
                dst: v("t"),
                a: v("a"),
                b: v("a"),
            },
        ];
        let findings = check(&shaped(body, pairs));
        assert!(
            findings.is_empty(),
            "{:?}",
            findings.first().map(|f| &f.message)
        );
    }

    #[test]
    fn legal_empty_range_is_not_flagged() {
        let pairs = &[("v", 1, 8)];
        let body = vec![
            // v(5:4) is empty — legal.
            Instr::ExtractRange {
                dst: v("w"),
                v: v("v"),
                lo: SExpr::c(5.0),
                hi: SExpr::c(4.0),
            },
            // v(3:9) overruns — error.
            Instr::ExtractRange {
                dst: v("u"),
                v: v("v"),
                lo: SExpr::c(3.0),
                hi: SExpr::c(9.0),
            },
        ];
        let findings = check(&shaped(body, pairs));
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("range 3:9 out of bounds"));
    }

    #[test]
    fn in_place_web_requires_disjoint_intervals() {
        let pairs = [("c", 4, 4), ("c__1", 4, 4)];

        // c's last use is exactly c__1's def → in place.
        let sequential = vec![
            Instr::InitMatrix {
                dst: v("c"),
                init: MatInit::Eye { n: SExpr::c(4.0) },
            },
            Instr::MatMul {
                dst: v("c__1"),
                a: v("c"),
                b: v("c"),
            },
            Instr::Reduce {
                dst: v("s"),
                op: RedOp::Fold(ColRedOp::Sum),
                m: v("c__1"),
            },
        ];
        let ok = in_place_scope(&shaped(sequential.clone(), &pairs), &[]);
        assert!(ok.contains(&v("c")) && ok.contains(&v("c__1")), "{ok:?}");

        // c is read again after c__1 exists → interference.
        let mut overlapping = sequential.clone();
        overlapping.push(Instr::Reduce {
            dst: v("s"),
            op: RedOp::Fold(ColRedOp::Sum),
            m: v("c"),
        });
        let bad = in_place_scope(&shaped(overlapping, &pairs), &[]);
        assert!(bad.is_empty(), "{bad:?}");
    }

    #[test]
    fn loop_back_edges_count_as_overlap() {
        // Inside a loop, a__1 = f(a) then a = g(a__1): the next
        // iteration reads a again, so a's interval reaches the loop's
        // back-edge slot, past a__1's birth.
        let body = vec![Instr::For {
            var: v("i"),
            start: SExpr::c(1.0),
            step: SExpr::c(1.0),
            stop: SExpr::c(3.0),
            body: vec![
                Instr::Transpose {
                    dst: v("a__1"),
                    a: v("a"),
                },
                Instr::Transpose {
                    dst: v("a"),
                    a: v("a__1"),
                },
            ],
        }];
        let ok = in_place_scope(&shaped(body, &[("a", 4, 4), ("a__1", 4, 4)]), &[]);
        assert!(ok.is_empty(), "{ok:?}");
    }

    /// The reference: emit every loop body twice (the classic
    /// conservative unrolling for interval liveness), 2^depth events.
    fn doubled_intervals(body: &[Instr]) -> (BTreeMap<Slot, (usize, usize)>, usize) {
        fn flatten(body: &[Instr], out: &mut Vec<Vec<Slot>>) {
            for i in body {
                let mut names = Vec::new();
                mentions(i, &mut names);
                out.push(names);
                match i {
                    Instr::If {
                        then_body,
                        else_body,
                        ..
                    } => {
                        flatten(then_body, out);
                        flatten(else_body, out);
                    }
                    Instr::While { pre, body, .. } => {
                        for _ in 0..2 {
                            flatten(pre, out);
                            flatten(body, out);
                        }
                    }
                    Instr::For { body, .. } => {
                        for _ in 0..2 {
                            flatten(body, out);
                        }
                    }
                    _ => {}
                }
            }
        }
        let mut events = Vec::new();
        flatten(body, &mut events);
        let mut interval: BTreeMap<Slot, (usize, usize)> = BTreeMap::new();
        for (idx, names) in events.iter().enumerate() {
            for &name in names {
                interval
                    .entry(name)
                    .and_modify(|(_, end)| *end = idx)
                    .or_insert((idx, idx));
            }
        }
        (interval, events.len())
    }

    /// xorshift64: deterministic and dependency-free.
    fn next(rng: &mut u64, n: u64) -> usize {
        *rng ^= *rng << 13;
        *rng ^= *rng >> 7;
        *rng ^= *rng << 17;
        (*rng % n) as usize
    }

    /// A random nest of `if`/`while`/`for` over two small SSA webs.
    fn random_block(rng: &mut u64, depth: u32) -> Vec<Instr> {
        const NAMES: [&str; 7] = ["a", "a__1", "a__2", "b", "b__1", "b__2", "s"];
        let mut block = Vec::new();
        for _ in 0..next(rng, 4) {
            let (dst, src) = (NAMES[next(rng, 6)], NAMES[next(rng, 7)]);
            let kind = if depth < 4 { next(rng, 6) } else { 0 };
            let cond = var(NAMES[next(rng, 7)]);
            block.push(match kind {
                0..=2 => Instr::Transpose {
                    dst: v(dst),
                    a: v(src),
                },
                3 => Instr::If {
                    cond,
                    then_body: random_block(rng, depth + 1),
                    else_body: random_block(rng, depth + 1),
                },
                4 => Instr::While {
                    pre: random_block(rng, depth + 1),
                    cond,
                    body: random_block(rng, depth + 1),
                },
                _ => Instr::For {
                    var: v("i"),
                    start: SExpr::c(1.0),
                    step: SExpr::c(1.0),
                    stop: cond,
                    body: random_block(rng, depth + 1),
                },
            });
        }
        block
    }

    #[test]
    fn linear_intervals_give_the_doubled_walks_in_place_sets() {
        let names = ["a", "a__1", "a__2", "b", "b__1", "b__2", "s"];
        // Every name `random_block` writes has its slot before the table
        // is copied.
        let (_, _) = (v("s"), v("i"));
        let pairs: Vec<_> = names[..6].iter().map(|&n| (n, 4, 4)).collect();
        let f = shaped(vec![], &pairs);
        let shapes: Vec<_> = f.vars.iter().map(|(_, v)| v.shape).collect();
        let (mut rng, mut nonempty) = (0x9e37_79b9_7f4a_7c15u64, 0);
        for case in 0..2000 {
            let body = random_block(&mut rng, 0);
            let live_out: Vec<Slot> = if case % 3 == 0 {
                vec![v("a__2")]
            } else {
                Vec::new()
            };
            let (lin, lin_slots) = live_intervals(&body);
            let (dbl, dbl_slots) = doubled_intervals(&body);
            let got = in_place_webs(lin, lin_slots, &f.vars, &shapes, &live_out);
            let want = in_place_webs(dbl, dbl_slots, &f.vars, &shapes, &live_out);
            assert_eq!(got, want, "case {case}: {body:?}");
            nonempty += usize::from(!want.is_empty());
        }
        assert!(nonempty > 100, "only {nonempty} cases had an in-place web");
    }

    #[test]
    fn in_place_analysis_is_linear_in_loop_depth() {
        // 38 nested loops: the doubled walk would emit 2^38 events.
        let mut body = vec![Instr::Transpose {
            dst: v("a__1"),
            a: v("a"),
        }];
        for _ in 0..38 {
            body = vec![Instr::For {
                var: v("i"),
                start: SExpr::c(1.0),
                step: SExpr::c(1.0),
                stop: SExpr::c(2.0),
                body,
            }];
        }
        let mut prog = IrProgram {
            main: shaped(body, &[("a", 4, 4), ("a__1", 4, 4)]),
            ..IrProgram::default()
        };
        let t = std::time::Instant::now();
        annotate_in_place(&mut prog);
        assert!(t.elapsed().as_secs_f64() < 1.0, "{:?}", t.elapsed());
        let in_place = prog.main.vars.iter().any(|(_, v)| v.in_place);
        assert!(!in_place, "a is re-read every iteration");
    }
}
