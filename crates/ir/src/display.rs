//! Human-readable IR dump, used by `--emit ir` style debugging and by
//! compiler tests that assert on program structure. Every variable
//! prints under its name in its frame's table.

use crate::frame::{Frame, IrProgram, Slot, Vars};
use crate::instr::*;
use std::fmt::Write;

/// Render a whole program.
pub fn program_to_string(p: &IrProgram) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "program {{");
    write_body(&mut out, &p.main);
    let _ = writeln!(out, "}}");
    for f in p.functions.values() {
        let decl = |slots: &[Slot]| -> Vec<String> {
            let var = |&s: &Slot| format!("{}: {}", f.vars.name(s), rank_str(f.vars[s].rank));
            slots.iter().map(var).collect()
        };
        let _ = writeln!(
            out,
            "fn {}({}) -> ({}) {{",
            f.name,
            decl(&f.params).join(", "),
            decl(&f.outs).join(", ")
        );
        write_body(&mut out, f);
        let _ = writeln!(out, "}}");
    }
    out
}

fn write_body(out: &mut String, f: &Frame) {
    for i in &f.body {
        write_instr(out, i, 1, &f.vars);
    }
}

/// The IR listing's name for a column reduction.
fn colred_name(op: ColRedOp) -> &'static str {
    match op {
        ColRedOp::Sum => "colsum",
        ColRedOp::Mean => "colmean",
        ColRedOp::Prod => "colprod",
        ColRedOp::Max => "colmax",
        ColRedOp::Min => "colmin",
        ColRedOp::Any => "colany",
        ColRedOp::All => "colall",
    }
}

fn rank_str(r: VarRank) -> &'static str {
    match r {
        VarRank::Scalar => "scalar",
        VarRank::Matrix => "matrix",
    }
}

/// Render one scalar expression.
pub fn sexpr_to_string(e: &SExpr, vars: &Vars) -> String {
    let s = |e| sexpr_to_string(e, vars);
    match e {
        SExpr::Const(v) => format!("{v}"),
        SExpr::Var(n) => vars.name(*n).to_string(),
        SExpr::DimOf { var, sel } => {
            let f = match sel {
                DimSel::Rows => "rows",
                DimSel::Cols => "cols",
                DimSel::Length => "length",
                DimSel::Numel => "numel",
            };
            format!("{f}({})", vars.name(*var))
        }
        SExpr::OwnElem => "ownelem".to_string(),
        SExpr::Neg(x) => format!("(-{})", s(x)),
        SExpr::Not(x) => format!("(!{})", s(x)),
        SExpr::Bin(op, a, b) => format!("({} {} {})", s(a), op.c_symbol(), s(b)),
        SExpr::Call(f, args) => {
            let parts: Vec<String> = args.iter().map(s).collect();
            format!("{}({})", f.c_name(), parts.join(", "))
        }
    }
}

/// Render one element-wise expression.
pub fn ewexpr_to_string(e: &EwExpr, vars: &Vars) -> String {
    let s = |e| ewexpr_to_string(e, vars);
    match e {
        EwExpr::Mat(m) => format!("{}[k]", vars.name(*m)),
        EwExpr::Scalar(x) => sexpr_to_string(x, vars),
        EwExpr::Neg(x) => format!("(-{})", s(x)),
        EwExpr::Not(x) => format!("(!{})", s(x)),
        EwExpr::Bin(EwOp::Pow, a, b) => format!("pow({}, {})", s(a), s(b)),
        EwExpr::Bin(op, a, b) => format!("({} {} {})", s(a), op.c_symbol(), s(b)),
        EwExpr::Call(f, args) => {
            let parts: Vec<String> = args.iter().map(s).collect();
            format!("{}({})", f.c_name(), parts.join(", "))
        }
        EwExpr::Gen { gen, .. } => match &**gen {
            Generator::Outer { u, v } => {
                format!("outer({}, {})[k]", vars.name(*u), vars.name(*v))
            }
            Generator::Eye { n } => format!("eye({})[k]", sexpr_to_string(n, vars)),
        },
    }
}

/// The text of one instruction without indentation or nested bodies,
/// or `None` for control flow.
fn line(i: &Instr, vars: &Vars) -> Option<String> {
    let n = |s: &Slot| vars.name(*s);
    let s = |e: &SExpr| sexpr_to_string(e, vars);
    Some(match i {
        Instr::AssignScalar { dst, src } => format!("{} = {};", n(dst), s(src)),
        Instr::InitMatrix { dst, init } => {
            let desc = match init {
                MatInit::Zeros { rows, cols } => format!("zeros({}, {})", s(rows), s(cols)),
                MatInit::Ones { rows, cols } => format!("ones({}, {})", s(rows), s(cols)),
                MatInit::Eye { n } => format!("eye({})", s(n)),
                MatInit::Rand { rows, cols } => format!("rand({}, {})", s(rows), s(cols)),
                MatInit::Range { start, step, stop } => {
                    format!("range({}, {}, {})", s(start), s(step), s(stop))
                }
                MatInit::Literal { rows } => {
                    let rs: Vec<String> = rows
                        .iter()
                        .map(|r| r.iter().map(s).collect::<Vec<_>>().join(", "))
                        .collect();
                    format!("[{}]", rs.join("; "))
                }
                MatInit::Linspace { a, b, n } => {
                    format!("linspace({}, {}, {})", s(a), s(b), s(n))
                }
            };
            format!("{} = {desc};", n(dst))
        }
        Instr::CopyMatrix { dst, src } => format!("{} = copy({});", n(dst), n(src)),
        Instr::LoadFile { dst, path } => format!("{} = load('{path}');", n(dst)),
        Instr::ElemWise { dst, expr } => {
            let fused = if expr.generators().is_empty() {
                ""
            } else {
                "fused: "
            };
            let expr = ewexpr_to_string(expr, vars);
            format!("{fused}forall k: {}[k] = {expr};", n(dst))
        }
        Instr::MatMul { dst, a, b } => format!("{} = matmul({}, {});", n(dst), n(a), n(b)),
        Instr::MatVec { dst, a, x } => format!("{} = matvec({}, {});", n(dst), n(a), n(x)),
        Instr::Outer { dst, u, v } => format!("{} = outer({}, {});", n(dst), n(u), n(v)),
        Instr::Transpose { dst, a } => format!("{} = transpose({});", n(dst), n(a)),
        Instr::BroadcastElem { dst, m, i, j } => match j {
            Some(j) => format!("{} = bcast({}[{}, {}]);", n(dst), n(m), s(i), s(j)),
            None => format!("{} = bcast({}[{}]);", n(dst), n(m), s(i)),
        },
        Instr::StoreElem { m, i, j, val } => match j {
            Some(j) => format!("if owner: {}[{}, {}] = {};", n(m), s(i), s(j), s(val)),
            None => format!("if owner: {}[{}] = {};", n(m), s(i), s(val)),
        },
        Instr::Reduce { dst, op, m } => format!("{} = {}({});", n(dst), op.c_name(), n(m)),
        Instr::Dot { dst, a, b } => format!("{} = dot({}, {});", n(dst), n(a), n(b)),
        Instr::TrapzXY { dst, x, y } => format!("{} = trapz({}, {});", n(dst), n(x), n(y)),
        // One line: the unfused sequence without its frees.
        Instr::Fused(f) => {
            let parts: Vec<String> = f
                .unfused(vars)
                .iter()
                .filter(|i| !matches!(i, Instr::Free { .. }))
                .filter_map(|i| line(i, vars))
                .map(|l| l.trim_start_matches("fused: ").to_string())
                .collect();
            format!("fused: {}", parts.join(" "))
        }
        Instr::ColReduce { dst, op, m } => {
            format!("{} = {}({});", n(dst), colred_name(*op), n(m))
        }
        Instr::Shift { dst, v, k } => format!("{} = shift({}, {});", n(dst), n(v), s(k)),
        Instr::ExtractRow { dst, m, i } => format!("{} = {}[{}, :];", n(dst), n(m), s(i)),
        Instr::ExtractCol { dst, m, j } => format!("{} = {}[:, {}];", n(dst), n(m), s(j)),
        Instr::AssignRow { m, i, v } => format!("{}[{}, :] = {};", n(m), s(i), n(v)),
        Instr::AssignCol { m, j, v } => format!("{}[:, {}] = {};", n(m), s(j), n(v)),
        Instr::ExtractRange { dst, v, lo, hi } => {
            format!("{} = {}[{}..{}];", n(dst), n(v), s(lo), s(hi))
        }
        Instr::ExtractStrided {
            dst,
            v,
            lo,
            step,
            hi,
        } => format!("{} = {}[{}..{}..{}];", n(dst), n(v), s(lo), s(step), s(hi)),
        Instr::FillRow { m, i, val } => format!("{}[{}, :] = fill {};", n(m), s(i), s(val)),
        Instr::FillCol { m, j, val } => format!("{}[:, {}] = fill {};", n(m), s(j), s(val)),
        Instr::FillRange { m, lo, hi, val } => {
            format!("{}[{}..{}] = fill {};", n(m), s(lo), s(hi), s(val))
        }
        Instr::AssignRange { m, lo, hi, v } => {
            format!("{}[{}..{}] = {};", n(m), s(lo), s(hi), n(v))
        }
        Instr::Free { name } => format!("free {};", n(name)),
        Instr::Break => "break;".to_string(),
        Instr::Continue => "continue;".to_string(),
        Instr::Call { fun, args, outs } => {
            let a: Vec<String> = args
                .iter()
                .map(|x| match x {
                    Arg::Scalar(e) => s(e),
                    Arg::Matrix(m) => n(m).to_string(),
                })
                .collect();
            let outs: Vec<&str> = outs.iter().map(n).collect();
            format!("[{}] = {fun}({});", outs.join(", "), a.join(", "))
        }
        Instr::Print { name, target } => match target {
            PrintTarget::Scalar(e) => format!("print {name} = {};", s(e)),
            PrintTarget::Matrix(m) => format!("print {name} = {};", n(m)),
        },
        Instr::If { .. } | Instr::While { .. } | Instr::For { .. } => return None,
    })
}

/// Render one instruction of the frame whose table is `vars` at an
/// indent level.
pub fn write_instr(out: &mut String, i: &Instr, indent: usize, vars: &Vars) {
    let pad = "  ".repeat(indent);
    let s = |e: &SExpr| sexpr_to_string(e, vars);
    let block = |out: &mut String, body: &[Instr]| {
        for i in body {
            write_instr(out, i, indent + 1, vars);
        }
    };
    match i {
        Instr::If {
            cond,
            then_body,
            else_body,
        } => {
            let _ = writeln!(out, "{pad}if {} {{", s(cond));
            block(out, then_body);
            if !else_body.is_empty() {
                let _ = writeln!(out, "{pad}}} else {{");
                block(out, else_body);
            }
            let _ = writeln!(out, "{pad}}}");
        }
        Instr::While { pre, cond, body } => {
            let _ = writeln!(out, "{pad}while {{");
            block(out, pre);
            let _ = writeln!(out, "{pad}}} {} {{", s(cond));
            block(out, body);
            let _ = writeln!(out, "{pad}}}");
        }
        Instr::For {
            var,
            start,
            step,
            stop,
            body,
        } => {
            let _ = writeln!(
                out,
                "{pad}for {} = {} : {} : {} {{",
                vars.name(*var),
                s(start),
                s(step),
                s(stop)
            );
            block(out, body);
            let _ = writeln!(out, "{pad}}}");
        }
        _ => {
            let _ = writeln!(out, "{pad}{}", line(i, vars).unwrap_or_default());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::by_name::*;

    #[test]
    fn renders_paper_example_shape() {
        // a = b * c + d(i, j) after rewriting: three statements.
        let prog = program(vec![
            Instr::MatMul {
                dst: v("ML_tmp1"),
                a: v("b"),
                b: v("c"),
            },
            Instr::BroadcastElem {
                dst: v("ML_tmp2"),
                m: v("d"),
                i: var("i"),
                j: Some(var("j")),
            },
            Instr::ElemWise {
                dst: v("a"),
                expr: EwExpr::bin(EwOp::Add, mat("ML_tmp1"), EwExpr::Scalar(var("ML_tmp2"))),
            },
        ]);
        let s = program_to_string(&prog);
        assert!(s.contains("ML_tmp1 = matmul(b, c);"), "{s}");
        assert!(s.contains("ML_tmp2 = bcast(d[i, j]);"), "{s}");
        assert!(
            s.contains("forall k: a[k] = (ML_tmp1[k] + ML_tmp2);"),
            "{s}"
        );
    }

    #[test]
    fn renders_control_flow() {
        let prog = program(vec![Instr::While {
            pre: vec![Instr::Reduce {
                dst: v("t"),
                op: RedOp::Norm2,
                m: v("r"),
            }],
            cond: SExpr::bin(SBinOp::Gt, var("t"), SExpr::c(1e-6)),
            body: vec![Instr::Break],
        }]);
        let s = program_to_string(&prog);
        assert!(s.contains("t = ML_norm2(r);"), "{s}");
        assert!(s.contains("break;"), "{s}");
    }

    #[test]
    fn renders_functions_with_ranks() {
        let mut prog = IrProgram::default();
        matrices(&["x", "y"]);
        let body = vec![Instr::ElemWise {
            dst: v("y"),
            expr: EwExpr::bin(EwOp::Mul, mat("x"), mat("x")),
        }];
        let sq = Frame {
            name: "sq".into(),
            params: vec![v("x")],
            outs: vec![v("y")],
            ..frame(body)
        };
        prog.functions.insert("sq".into(), sq);
        let s = program_to_string(&prog);
        assert!(s.contains("fn sq(x: matrix) -> (y: matrix)"), "{s}");
    }
}
