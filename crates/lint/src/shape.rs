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
//! recorded on the IR (`IrProgram::in_place`) as a legality fact for
//! later fusion/copy-elision work and reported by `--analyze`.

use crate::oracle::Scope;
use otter_frontend::{Diagnostic, Span};
use otter_ir::{preorder, sexpr_reads, split_web, Instr, IrProgram, SExpr, VarRank};
use std::collections::{BTreeMap, BTreeSet};

/// A shape-safety finding: message + anchor variable (resolved to a
/// span by the caller, like every other lint).
struct ShapeFinding {
    anchor: String,
    message: String,
}

/// Lint one scope; returns error-severity diagnostics with spans.
pub(crate) fn lint_scope(
    body: &[Instr],
    shapes: &BTreeMap<String, otter_analysis::Shape>,
    consts: &BTreeMap<String, f64>,
    def_spans: &BTreeMap<String, Span>,
    func: Option<&str>,
) -> Vec<Diagnostic> {
    check_scope(body, &Scope { shapes, consts })
        .into_iter()
        .map(|f| {
            let span = def_spans.get(&f.anchor).copied().unwrap_or(Span::DUMMY);
            let message = match func {
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
fn dims(cx: &Scope, v: &str) -> Option<(usize, usize)> {
    cx.shape(v).concrete()
}

fn numel(cx: &Scope, v: &str) -> Option<usize> {
    dims(cx, v).map(|(r, c)| r * c)
}

fn shape_str(cx: &Scope, v: &str) -> String {
    cx.shape(v).to_string()
}

#[allow(clippy::too_many_lines)]
fn check_instr(i: &Instr, cx: &Scope, out: &mut Vec<ShapeFinding>) {
    if let Instr::Fused(f) = i {
        for i in f.unfused() {
            check_instr(&i, cx, out);
        }
        return;
    }
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
                            dst,
                            format!(
                                "elementwise shape mismatch: `{a}` is {} but `{b}` is {}",
                                shape_str(cx, a),
                                shape_str(cx, b)
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
                        dst,
                        format!(
                            "matmul inner dimensions disagree: `{a}` is {} but `{b}` is {}",
                            shape_str(cx, a),
                            shape_str(cx, b)
                        ),
                    );
                }
            }
        }
        Instr::MatVec { dst, a, x } => {
            if let (Some((_, ka)), Some(nx)) = (dims(cx, a), numel(cx, x)) {
                if ka != nx {
                    err(
                        dst,
                        format!(
                            "matvec dimensions disagree: `{a}` is {} but `{x}` has {nx} elements",
                            shape_str(cx, a)
                        ),
                    );
                }
            }
            if let Some((r, c)) = dims(cx, x) {
                if r != 1 && c != 1 {
                    err(
                        dst,
                        format!("matvec needs a vector: `{x}` is {}", shape_str(cx, x)),
                    );
                }
            }
        }
        Instr::Outer { dst, u, v } => {
            for op in [u, v] {
                if let Some((r, c)) = dims(cx, op) {
                    if r != 1 && c != 1 {
                        err(
                            dst,
                            format!("outer needs vectors: `{op}` is {}", shape_str(cx, op)),
                        );
                    }
                }
            }
        }
        Instr::Dot { dst, a, b } => {
            if let (Some(na), Some(nb)) = (numel(cx, a), numel(cx, b)) {
                if na != nb {
                    err(
                        dst,
                        format!("dot length mismatch: `{a}` has {na} elements but `{b}` has {nb}"),
                    );
                }
            }
        }
        Instr::TrapzXY { dst, x, y } => {
            if let (Some(nx), Some(ny)) = (numel(cx, x), numel(cx, y)) {
                if nx != ny {
                    err(
                        dst,
                        format!(
                            "trapz length mismatch: `{x}` has {nx} elements but `{y}` has {ny}"
                        ),
                    );
                }
            }
        }
        Instr::Shift { dst, v, .. } => {
            if let Some((r, c)) = dims(cx, v) {
                if r != 1 && c != 1 {
                    err(
                        dst,
                        format!("circshift needs a vector: `{v}` is {}", shape_str(cx, v)),
                    );
                }
            }
        }
        Instr::BroadcastElem { dst, m, i, j } => {
            check_elem_index(cx, dst, m, i, j.as_ref(), &mut err);
        }
        Instr::StoreElem { m, i, j, .. } => {
            let m2 = m.clone();
            check_elem_index(cx, &m2, m, i, j.as_ref(), &mut err);
        }
        Instr::ExtractRow { dst, m, i } => {
            if let Some((idx, rows)) = index_oob(i, dims(cx, m).map(|(r, _)| r)) {
                err(
                    dst,
                    format!("row index {idx} out of bounds: `{m}` has {rows} rows"),
                );
            }
        }
        Instr::AssignRow { m, i, v } => {
            if let Some((idx, rows)) = index_oob(i, dims(cx, m).map(|(r, _)| r)) {
                err(
                    m,
                    format!("row index {idx} out of bounds: `{m}` has {rows} rows"),
                );
            }
            if let (Some((_, cols)), Some(nv)) = (dims(cx, m), numel(cx, v)) {
                if cols != nv {
                    err(
                        m,
                        format!(
                            "row assignment length mismatch: `{m}` has {cols} columns but `{v}` has {nv} elements"
                        ),
                    );
                }
            }
        }
        Instr::ExtractCol { dst, m, j } => {
            if let Some((idx, cols)) = index_oob(j, dims(cx, m).map(|(_, c)| c)) {
                err(
                    dst,
                    format!("column index {idx} out of bounds: `{m}` has {cols} columns"),
                );
            }
        }
        Instr::AssignCol { m, j, v } => {
            if let Some((idx, cols)) = index_oob(j, dims(cx, m).map(|(_, c)| c)) {
                err(
                    m,
                    format!("column index {idx} out of bounds: `{m}` has {cols} columns"),
                );
            }
            if let (Some((rows, _)), Some(nv)) = (dims(cx, m), numel(cx, v)) {
                if rows != nv {
                    err(
                        m,
                        format!(
                            "column assignment length mismatch: `{m}` has {rows} rows but `{v}` has {nv} elements"
                        ),
                    );
                }
            }
        }
        Instr::FillRow { m, i, .. } => {
            if let Some((idx, rows)) = index_oob(i, dims(cx, m).map(|(r, _)| r)) {
                err(
                    m,
                    format!("row index {idx} out of bounds: `{m}` has {rows} rows"),
                );
            }
        }
        Instr::FillCol { m, j, .. } => {
            if let Some((idx, cols)) = index_oob(j, dims(cx, m).map(|(_, c)| c)) {
                err(
                    m,
                    format!("column index {idx} out of bounds: `{m}` has {cols} columns"),
                );
            }
        }
        Instr::ExtractRange { dst, v, lo, hi } => {
            check_range(cx, dst, v, lo, hi, &mut err);
        }
        Instr::FillRange { m, lo, hi, .. } => {
            let m2 = m.clone();
            check_range(cx, &m2, m, lo, hi, &mut err);
        }
        Instr::AssignRange { m, lo, hi, v } => {
            let m2 = m.clone();
            check_range(cx, &m2, m, lo, hi, &mut err);
            if let (Some(l), Some(h), Some(nv)) = (cx.eval(lo), cx.eval(hi), numel(cx, v)) {
                if l.fract() == 0.0 && h.fract() == 0.0 && h >= l {
                    let want = (h - l) as usize + 1;
                    if want != nv {
                        err(
                            m,
                            format!(
                                "range assignment length mismatch: `{m}({l}:{h})` has {want} elements but `{v}` has {nv}"
                            ),
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
                        dst,
                        format!("strided range {l}:{s}:{h} out of bounds: `{v}` has {n} elements"),
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
    m: &str,
    i: &SExpr,
    j: Option<&SExpr>,
    err: &mut impl FnMut(&str, String),
) {
    let Some((rows, cols)) = dims(cx, m) else {
        return;
    };
    let as_int = |e: &SExpr| cx.eval(e).filter(|v| v.fract() == 0.0).map(|v| v as i64);
    match j {
        Some(j) => {
            if let Some(iv) = as_int(i) {
                if iv < 1 || iv > rows as i64 {
                    err(
                        anchor,
                        format!("row index {iv} out of bounds: `{m}` is {}", cx.shape(m)),
                    );
                }
            }
            if let Some(jv) = as_int(j) {
                if jv < 1 || jv > cols as i64 {
                    err(
                        anchor,
                        format!("column index {jv} out of bounds: `{m}` is {}", cx.shape(m)),
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
                            "index {iv} out of bounds: `{m}` has {} elements",
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
    v: &str,
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
            format!("range {l}:{h} out of bounds: `{v}` has {n} elements"),
        );
    }
}

// ---- SSA-web in-place legality ---------------------------------------------

/// Names one instruction mentions, defined or read, from the IR's own
/// dataflow facts (scalar names are recorded too; the web grouping
/// filters by rank later). Control flow contributes only its header
/// expressions here: the pre-order walk reaches the bodies.
fn mentions(i: &Instr, out: &mut Vec<String>) {
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

/// Live interval `[first mention, last mention]` per name, in slots of
/// one linear pre-order pass, plus the number of slots used. Each
/// loop body is walked once. When control leaves a loop, every name
/// mentioned inside it is extended to one virtual back-edge slot past
/// the body: the next iteration may mention it again, so a value
/// defined in one iteration and read in the next overlaps whatever is
/// born in between.
fn live_intervals(body: &[Instr]) -> (BTreeMap<String, (usize, usize)>, usize) {
    let mut interval: BTreeMap<String, (usize, usize)> = BTreeMap::new();
    // First body slot of each enclosing loop, outermost first.
    let mut loops: Vec<usize> = Vec::new();
    let mut slot = 0;
    let mut names = Vec::new();
    for (i, depth) in preorder(body) {
        leave_loops(&mut loops, depth as usize, &mut interval, &mut slot);
        mentions(i, &mut names);
        for name in names.drain(..) {
            interval
                .entry(name)
                .and_modify(|(_, end)| *end = slot)
                .or_insert((slot, slot));
        }
        slot += 1;
        if matches!(i, Instr::While { .. } | Instr::For { .. }) {
            loops.push(slot);
        }
    }
    leave_loops(&mut loops, 0, &mut interval, &mut slot);
    (interval, slot)
}

/// Leave every loop nested deeper than `depth`: the names mentioned
/// since the outermost of them began its body reach one fresh
/// back-edge slot.
fn leave_loops(
    loops: &mut Vec<usize>,
    depth: usize,
    interval: &mut BTreeMap<String, (usize, usize)>,
    slot: &mut usize,
) {
    let Some(&body_start) = loops.get(depth) else {
        return;
    };
    loops.truncate(depth);
    for (_, end) in interval.values_mut() {
        if *end >= body_start {
            *end = *slot;
        }
    }
    *slot += 1;
}

/// Matrix variables of one scope proven safe to update in place:
/// members of a multi-member SSA web whose live intervals never
/// overlap and whose concrete shapes agree, so the whole web could
/// share one distributed buffer.
pub(crate) fn in_place_scope(
    body: &[Instr],
    ranks: &BTreeMap<String, VarRank>,
    shapes: &BTreeMap<String, otter_analysis::Shape>,
    live_out: &[String],
) -> BTreeSet<String> {
    let (interval, slots) = live_intervals(body);
    in_place_webs(interval, slots, ranks, shapes, live_out)
}

fn in_place_webs(
    mut interval: BTreeMap<String, (usize, usize)>,
    slots: usize,
    ranks: &BTreeMap<String, VarRank>,
    shapes: &BTreeMap<String, otter_analysis::Shape>,
    live_out: &[String],
) -> BTreeSet<String> {
    // Scope outputs stay live past the last instruction.
    for name in live_out {
        if let Some((_, end)) = interval.get_mut(name) {
            *end = slots;
        }
    }

    let mut webs: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for name in interval.keys() {
        if ranks.get(name) == Some(&VarRank::Matrix) {
            let base = split_web(name).map_or(name.as_str(), |(base, _)| base);
            webs.entry(base).or_default().push(name);
        }
    }

    let mut ok = BTreeSet::new();
    for (_, mut members) in webs {
        if members.len() < 2 {
            continue;
        }
        members.sort_by_key(|m| interval[*m].0);
        let shapes_agree = members
            .windows(2)
            .all(|w| match (shapes.get(w[0]), shapes.get(w[1])) {
                (Some(a), Some(b)) => a.concrete().is_some() && a.concrete() == b.concrete(),
                _ => false,
            });
        // Consecutive intervals may touch at the defining instruction
        // (the in-place update point: `x__1 = f(x)` reads x exactly
        // where x__1 is born) but never extend past it.
        let disjoint = members
            .windows(2)
            .all(|w| interval[w[0]].1 <= interval[w[1]].0);
        if shapes_agree && disjoint {
            ok.extend(members.iter().map(|m| m.to_string()));
        }
    }
    ok
}

/// Annotate a whole program's `in_place` legality sets.
pub fn annotate_in_place(prog: &mut IrProgram) {
    let main_shapes = crate::oracle::refined_shapes(&prog.main, &prog.var_shapes, &prog.var_consts);
    prog.in_place = in_place_scope(&prog.main, &prog.var_ranks, &main_shapes, &prog.live_out());
    for f in prog.functions.values_mut() {
        let f_shapes = crate::oracle::refined_shapes(&f.body, &f.var_shapes, &f.var_consts);
        f.in_place = in_place_scope(&f.body, &f.var_ranks, &f_shapes, &f.live_out());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otter_analysis::Shape;
    use otter_ir::{ColRedOp, MatInit, RedOp};

    fn scope<'a>(
        shapes: &'a BTreeMap<String, Shape>,
        consts: &'a BTreeMap<String, f64>,
    ) -> Scope<'a> {
        Scope { shapes, consts }
    }

    fn shapes(pairs: &[(&str, usize, usize)]) -> BTreeMap<String, Shape> {
        pairs
            .iter()
            .map(|&(n, r, c)| (n.to_string(), Shape::known(r, c)))
            .collect()
    }

    #[test]
    fn mismatched_dot_and_oob_index_are_errors() {
        let shapes = shapes(&[("a", 1, 16), ("b", 1, 9), ("m", 4, 4)]);
        let consts = BTreeMap::new();
        let cx = scope(&shapes, &consts);
        let body = vec![
            Instr::Dot {
                dst: "s".into(),
                a: "a".into(),
                b: "b".into(),
            },
            Instr::BroadcastElem {
                dst: "t".into(),
                m: "m".into(),
                i: SExpr::c(5.0),
                j: Some(SExpr::c(1.0)),
            },
        ];
        let findings = check_scope(&body, &cx);
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
        let shapes = shapes(&[("a", 1, 16)]);
        let consts = BTreeMap::new();
        let cx = scope(&shapes, &consts);
        let body = vec![
            Instr::Dot {
                dst: "s".into(),
                a: "a".into(),
                b: "unknown_b".into(),
            },
            Instr::Dot {
                dst: "t".into(),
                a: "a".into(),
                b: "a".into(),
            },
        ];
        let findings = check_scope(&body, &cx);
        assert!(
            findings.is_empty(),
            "{:?}",
            findings.first().map(|f| &f.message)
        );
    }

    #[test]
    fn legal_empty_range_is_not_flagged() {
        let shapes = shapes(&[("v", 1, 8)]);
        let consts = BTreeMap::new();
        let cx = scope(&shapes, &consts);
        let body = vec![
            // v(5:4) is empty — legal.
            Instr::ExtractRange {
                dst: "w".into(),
                v: "v".into(),
                lo: SExpr::c(5.0),
                hi: SExpr::c(4.0),
            },
            // v(3:9) overruns — error.
            Instr::ExtractRange {
                dst: "u".into(),
                v: "v".into(),
                lo: SExpr::c(3.0),
                hi: SExpr::c(9.0),
            },
        ];
        let findings = check_scope(&body, &cx);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("range 3:9 out of bounds"));
    }

    #[test]
    fn in_place_web_requires_disjoint_intervals() {
        let ranks: BTreeMap<String, VarRank> = [
            ("c".to_string(), VarRank::Matrix),
            ("c__1".to_string(), VarRank::Matrix),
            ("s".to_string(), VarRank::Scalar),
        ]
        .into();
        let shapes = shapes(&[("c", 4, 4), ("c__1", 4, 4)]);

        // c's last use is exactly c__1's def → in place.
        let sequential = vec![
            Instr::InitMatrix {
                dst: "c".into(),
                init: MatInit::Eye { n: SExpr::c(4.0) },
            },
            Instr::MatMul {
                dst: "c__1".into(),
                a: "c".into(),
                b: "c".into(),
            },
            Instr::Reduce {
                dst: "s".into(),
                op: RedOp::Fold(ColRedOp::Sum),
                m: "c__1".into(),
            },
        ];
        let ok = in_place_scope(&sequential, &ranks, &shapes, &[]);
        assert!(ok.contains("c") && ok.contains("c__1"), "{ok:?}");

        // c is read again after c__1 exists → interference.
        let mut overlapping = sequential.clone();
        overlapping.push(Instr::Reduce {
            dst: "s".into(),
            op: RedOp::Fold(ColRedOp::Sum),
            m: "c".into(),
        });
        let bad = in_place_scope(&overlapping, &ranks, &shapes, &[]);
        assert!(bad.is_empty(), "{bad:?}");
    }

    #[test]
    fn loop_back_edges_count_as_overlap() {
        let ranks: BTreeMap<String, VarRank> = [
            ("a".to_string(), VarRank::Matrix),
            ("a__1".to_string(), VarRank::Matrix),
        ]
        .into();
        let shapes = shapes(&[("a", 4, 4), ("a__1", 4, 4)]);
        // Inside a loop, a__1 = f(a) then a = g(a__1): the next
        // iteration reads a again, so a's interval reaches the loop's
        // back-edge slot, past a__1's birth.
        let body = vec![Instr::For {
            var: "i".into(),
            start: SExpr::c(1.0),
            step: SExpr::c(1.0),
            stop: SExpr::c(3.0),
            body: vec![
                Instr::Transpose {
                    dst: "a__1".into(),
                    a: "a".into(),
                },
                Instr::Transpose {
                    dst: "a".into(),
                    a: "a__1".into(),
                },
            ],
        }];
        let ok = in_place_scope(&body, &ranks, &shapes, &[]);
        assert!(ok.is_empty(), "{ok:?}");
    }

    /// The reference: emit every loop body twice (the classic
    /// conservative unrolling for interval liveness), 2^depth events.
    fn doubled_intervals(body: &[Instr]) -> (BTreeMap<String, (usize, usize)>, usize) {
        fn flatten(body: &[Instr], out: &mut Vec<Vec<String>>) {
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
        let mut interval: BTreeMap<String, (usize, usize)> = BTreeMap::new();
        for (idx, names) in events.iter().enumerate() {
            for name in names {
                interval
                    .entry(name.clone())
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
            let cond = SExpr::var(NAMES[next(rng, 7)]);
            block.push(match kind {
                0..=2 => Instr::Transpose {
                    dst: dst.into(),
                    a: src.into(),
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
                    var: "i".into(),
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
        let names = ["a", "a__1", "a__2", "b", "b__1", "b__2"];
        let mut ranks: BTreeMap<String, VarRank> = names
            .iter()
            .map(|n| (n.to_string(), VarRank::Matrix))
            .collect();
        ranks.insert("s".into(), VarRank::Scalar);
        let shapes = shapes(&names.map(|n| (n, 4, 4)));
        let (mut rng, mut nonempty) = (0x9e37_79b9_7f4a_7c15u64, 0);
        for case in 0..2000 {
            let body = random_block(&mut rng, 0);
            let live_out: Vec<String> = if case % 3 == 0 {
                vec!["a__2".into()]
            } else {
                Vec::new()
            };
            let (lin, lin_slots) = live_intervals(&body);
            let (dbl, dbl_slots) = doubled_intervals(&body);
            let got = in_place_webs(lin, lin_slots, &ranks, &shapes, &live_out);
            let want = in_place_webs(dbl, dbl_slots, &ranks, &shapes, &live_out);
            assert_eq!(got, want, "case {case}: {body:?}");
            nonempty += usize::from(!want.is_empty());
        }
        assert!(nonempty > 100, "only {nonempty} cases had an in-place web");
    }

    #[test]
    fn in_place_analysis_is_linear_in_loop_depth() {
        // 38 nested loops: the doubled walk would emit 2^38 events.
        let mut body = vec![Instr::Transpose {
            dst: "a__1".into(),
            a: "a".into(),
        }];
        for _ in 0..38 {
            body = vec![Instr::For {
                var: "i".into(),
                start: SExpr::c(1.0),
                step: SExpr::c(1.0),
                stop: SExpr::c(2.0),
                body,
            }];
        }
        let mut prog = IrProgram {
            main: body,
            ..Default::default()
        };
        prog.var_ranks = [("a", VarRank::Matrix), ("a__1", VarRank::Matrix)]
            .map(|(n, r)| (n.to_string(), r))
            .into();
        prog.var_shapes = shapes(&[("a", 4, 4), ("a__1", 4, 4)]);
        let t = std::time::Instant::now();
        annotate_in_place(&mut prog);
        assert!(t.elapsed().as_secs_f64() < 1.0, "{:?}", t.elapsed());
        assert!(prog.in_place.is_empty(), "a is re-read every iteration");
    }
}
