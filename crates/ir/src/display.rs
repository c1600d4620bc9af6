//! Human-readable IR dump, used by `--emit ir` style debugging and by
//! compiler tests that assert on program structure.

use crate::instr::*;
use std::fmt::Write;

/// Render a whole program.
pub fn program_to_string(p: &IrProgram) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "program {{");
    for i in &p.main {
        write_instr(&mut out, i, 1);
    }
    let _ = writeln!(out, "}}");
    for f in p.functions.values() {
        let params: Vec<String> = f
            .params
            .iter()
            .map(|(n, r)| format!("{n}: {}", rank_str(*r)))
            .collect();
        let outs: Vec<String> = f
            .outs
            .iter()
            .map(|(n, r)| format!("{n}: {}", rank_str(*r)))
            .collect();
        let _ = writeln!(
            out,
            "fn {}({}) -> ({}) {{",
            f.name,
            params.join(", "),
            outs.join(", ")
        );
        for i in &f.body {
            write_instr(&mut out, i, 1);
        }
        let _ = writeln!(out, "}}");
    }
    out
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
pub fn sexpr_to_string(e: &SExpr) -> String {
    match e {
        SExpr::Const(v) => format!("{v}"),
        SExpr::Var(n) => n.clone(),
        SExpr::DimOf { var, sel } => {
            let f = match sel {
                DimSel::Rows => "rows",
                DimSel::Cols => "cols",
                DimSel::Length => "length",
                DimSel::Numel => "numel",
            };
            format!("{f}({var})")
        }
        SExpr::OwnElem => "ownelem".to_string(),
        SExpr::Neg(x) => format!("(-{})", sexpr_to_string(x)),
        SExpr::Not(x) => format!("(!{})", sexpr_to_string(x)),
        SExpr::Bin(op, a, b) => {
            format!(
                "({} {} {})",
                sexpr_to_string(a),
                op.c_symbol(),
                sexpr_to_string(b)
            )
        }
        SExpr::Call(f, args) => {
            let parts: Vec<String> = args.iter().map(sexpr_to_string).collect();
            format!("{}({})", f.c_name(), parts.join(", "))
        }
    }
}

/// Render one element-wise expression.
pub fn ewexpr_to_string(e: &EwExpr) -> String {
    match e {
        EwExpr::Mat(m) => format!("{m}[k]"),
        EwExpr::Scalar(s) => sexpr_to_string(s),
        EwExpr::Neg(x) => format!("(-{})", ewexpr_to_string(x)),
        EwExpr::Not(x) => format!("(!{})", ewexpr_to_string(x)),
        EwExpr::Bin(op, a, b) => match op {
            EwOp::Pow => format!("pow({}, {})", ewexpr_to_string(a), ewexpr_to_string(b)),
            _ => format!(
                "({} {} {})",
                ewexpr_to_string(a),
                op.c_symbol(),
                ewexpr_to_string(b)
            ),
        },
        EwExpr::Call(f, args) => {
            let parts: Vec<String> = args.iter().map(ewexpr_to_string).collect();
            format!("{}({})", f.c_name(), parts.join(", "))
        }
        EwExpr::Gen { gen, .. } => match &**gen {
            Generator::Outer { u, v } => format!("outer({u}, {v})[k]"),
            Generator::Eye { n } => format!("eye({})[k]", sexpr_to_string(n)),
        },
    }
}

/// Render one instruction at an indent level.
pub fn write_instr(out: &mut String, i: &Instr, indent: usize) {
    let pad = "  ".repeat(indent);
    match i {
        Instr::AssignScalar { dst, src } => {
            let _ = writeln!(out, "{pad}{dst} = {};", sexpr_to_string(src));
        }
        Instr::InitMatrix { dst, init } => {
            let desc = match init {
                MatInit::Zeros { rows, cols } => {
                    format!(
                        "zeros({}, {})",
                        sexpr_to_string(rows),
                        sexpr_to_string(cols)
                    )
                }
                MatInit::Ones { rows, cols } => {
                    format!("ones({}, {})", sexpr_to_string(rows), sexpr_to_string(cols))
                }
                MatInit::Eye { n } => format!("eye({})", sexpr_to_string(n)),
                MatInit::Rand { rows, cols } => {
                    format!("rand({}, {})", sexpr_to_string(rows), sexpr_to_string(cols))
                }
                MatInit::Range { start, step, stop } => format!(
                    "range({}, {}, {})",
                    sexpr_to_string(start),
                    sexpr_to_string(step),
                    sexpr_to_string(stop)
                ),
                MatInit::Literal { rows } => {
                    let rs: Vec<String> = rows
                        .iter()
                        .map(|r| {
                            let cells: Vec<String> = r.iter().map(sexpr_to_string).collect();
                            cells.join(", ")
                        })
                        .collect();
                    format!("[{}]", rs.join("; "))
                }
                MatInit::Linspace { a, b, n } => format!(
                    "linspace({}, {}, {})",
                    sexpr_to_string(a),
                    sexpr_to_string(b),
                    sexpr_to_string(n)
                ),
            };
            let _ = writeln!(out, "{pad}{dst} = {desc};");
        }
        Instr::CopyMatrix { dst, src } => {
            let _ = writeln!(out, "{pad}{dst} = copy({src});");
        }
        Instr::LoadFile { dst, path } => {
            let _ = writeln!(out, "{pad}{dst} = load('{path}');");
        }
        Instr::ElemWise { dst, expr } => {
            let fused = if expr.generators().is_empty() {
                ""
            } else {
                "fused: "
            };
            let _ = writeln!(
                out,
                "{pad}{fused}forall k: {dst}[k] = {};",
                ewexpr_to_string(expr)
            );
        }
        Instr::MatMul { dst, a, b } => {
            let _ = writeln!(out, "{pad}{dst} = matmul({a}, {b});");
        }
        Instr::MatVec { dst, a, x } => {
            let _ = writeln!(out, "{pad}{dst} = matvec({a}, {x});");
        }
        Instr::Outer { dst, u, v } => {
            let _ = writeln!(out, "{pad}{dst} = outer({u}, {v});");
        }
        Instr::Transpose { dst, a } => {
            let _ = writeln!(out, "{pad}{dst} = transpose({a});");
        }
        Instr::BroadcastElem { dst, m, i, j } => match j {
            Some(j) => {
                let _ = writeln!(
                    out,
                    "{pad}{dst} = bcast({m}[{}, {}]);",
                    sexpr_to_string(i),
                    sexpr_to_string(j)
                );
            }
            None => {
                let _ = writeln!(out, "{pad}{dst} = bcast({m}[{}]);", sexpr_to_string(i));
            }
        },
        Instr::StoreElem { m, i, j, val } => match j {
            Some(j) => {
                let _ = writeln!(
                    out,
                    "{pad}if owner: {m}[{}, {}] = {};",
                    sexpr_to_string(i),
                    sexpr_to_string(j),
                    sexpr_to_string(val)
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "{pad}if owner: {m}[{}] = {};",
                    sexpr_to_string(i),
                    sexpr_to_string(val)
                );
            }
        },
        Instr::Reduce { dst, op, m } => {
            let _ = writeln!(out, "{pad}{dst} = {}({m});", op.c_name());
        }
        Instr::Dot { dst, a, b } => {
            let _ = writeln!(out, "{pad}{dst} = dot({a}, {b});");
        }
        Instr::TrapzXY { dst, x, y } => {
            let _ = writeln!(out, "{pad}{dst} = trapz({x}, {y});");
        }
        // One line: the unfused sequence without its frees.
        Instr::Fused(f) => {
            let mut parts = Vec::new();
            for i in f
                .unfused()
                .iter()
                .filter(|i| !matches!(i, Instr::Free { .. }))
            {
                let mut line = String::new();
                write_instr(&mut line, i, 0);
                parts.push(line.trim_start_matches("fused: ").trim_end().to_string());
            }
            let _ = writeln!(out, "{pad}fused: {}", parts.join(" "));
        }
        Instr::ColReduce { dst, op, m } => {
            let _ = writeln!(out, "{pad}{dst} = {}({m});", colred_name(*op));
        }
        Instr::Shift { dst, v, k } => {
            let _ = writeln!(out, "{pad}{dst} = shift({v}, {});", sexpr_to_string(k));
        }
        Instr::ExtractRow { dst, m, i } => {
            let _ = writeln!(out, "{pad}{dst} = {m}[{}, :];", sexpr_to_string(i));
        }
        Instr::ExtractCol { dst, m, j } => {
            let _ = writeln!(out, "{pad}{dst} = {m}[:, {}];", sexpr_to_string(j));
        }
        Instr::AssignRow { m, i, v } => {
            let _ = writeln!(out, "{pad}{m}[{}, :] = {v};", sexpr_to_string(i));
        }
        Instr::AssignCol { m, j, v } => {
            let _ = writeln!(out, "{pad}{m}[:, {}] = {v};", sexpr_to_string(j));
        }
        Instr::ExtractRange { dst, v, lo, hi } => {
            let _ = writeln!(
                out,
                "{pad}{dst} = {v}[{}..{}];",
                sexpr_to_string(lo),
                sexpr_to_string(hi)
            );
        }
        Instr::ExtractStrided {
            dst,
            v,
            lo,
            step,
            hi,
        } => {
            let _ = writeln!(
                out,
                "{pad}{dst} = {v}[{}..{}..{}];",
                sexpr_to_string(lo),
                sexpr_to_string(step),
                sexpr_to_string(hi)
            );
        }
        Instr::FillRow { m, i, val } => {
            let _ = writeln!(
                out,
                "{pad}{m}[{}, :] = fill {};",
                sexpr_to_string(i),
                sexpr_to_string(val)
            );
        }
        Instr::FillCol { m, j, val } => {
            let _ = writeln!(
                out,
                "{pad}{m}[:, {}] = fill {};",
                sexpr_to_string(j),
                sexpr_to_string(val)
            );
        }
        Instr::FillRange { m, lo, hi, val } => {
            let _ = writeln!(
                out,
                "{pad}{m}[{}..{}] = fill {};",
                sexpr_to_string(lo),
                sexpr_to_string(hi),
                sexpr_to_string(val)
            );
        }
        Instr::AssignRange { m, lo, hi, v } => {
            let _ = writeln!(
                out,
                "{pad}{m}[{}..{}] = {v};",
                sexpr_to_string(lo),
                sexpr_to_string(hi)
            );
        }
        Instr::Free { name } => {
            let _ = writeln!(out, "{pad}free {name};");
        }
        Instr::If {
            cond,
            then_body,
            else_body,
        } => {
            let _ = writeln!(out, "{pad}if {} {{", sexpr_to_string(cond));
            for s in then_body {
                write_instr(out, s, indent + 1);
            }
            if !else_body.is_empty() {
                let _ = writeln!(out, "{pad}}} else {{");
                for s in else_body {
                    write_instr(out, s, indent + 1);
                }
            }
            let _ = writeln!(out, "{pad}}}");
        }
        Instr::While { pre, cond, body } => {
            let _ = writeln!(out, "{pad}while {{");
            for s in pre {
                write_instr(out, s, indent + 1);
            }
            let _ = writeln!(out, "{pad}}} {} {{", sexpr_to_string(cond));
            for s in body {
                write_instr(out, s, indent + 1);
            }
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
                "{pad}for {var} = {} : {} : {} {{",
                sexpr_to_string(start),
                sexpr_to_string(step),
                sexpr_to_string(stop)
            );
            for s in body {
                write_instr(out, s, indent + 1);
            }
            let _ = writeln!(out, "{pad}}}");
        }
        Instr::Break => {
            let _ = writeln!(out, "{pad}break;");
        }
        Instr::Continue => {
            let _ = writeln!(out, "{pad}continue;");
        }
        Instr::Call { fun, args, outs } => {
            let a: Vec<String> = args
                .iter()
                .map(|x| match x {
                    Arg::Scalar(s) => sexpr_to_string(s),
                    Arg::Matrix(m) => m.clone(),
                })
                .collect();
            let _ = writeln!(out, "{pad}[{}] = {fun}({});", outs.join(", "), a.join(", "));
        }
        Instr::Print { name, target } => match target {
            PrintTarget::Scalar(s) => {
                let _ = writeln!(out, "{pad}print {name} = {};", sexpr_to_string(s));
            }
            PrintTarget::Matrix(m) => {
                let _ = writeln!(out, "{pad}print {name} = {m};");
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_paper_example_shape() {
        // a = b * c + d(i, j) after rewriting: three statements.
        let prog = IrProgram {
            main: vec![
                Instr::MatMul {
                    dst: "ML_tmp1".into(),
                    a: "b".into(),
                    b: "c".into(),
                },
                Instr::BroadcastElem {
                    dst: "ML_tmp2".into(),
                    m: "d".into(),
                    i: SExpr::var("i"),
                    j: Some(SExpr::var("j")),
                },
                Instr::ElemWise {
                    dst: "a".into(),
                    expr: EwExpr::bin(
                        EwOp::Add,
                        EwExpr::mat("ML_tmp1"),
                        EwExpr::Scalar(SExpr::var("ML_tmp2")),
                    ),
                },
            ],
            ..Default::default()
        };
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
        let prog = IrProgram {
            main: vec![Instr::While {
                pre: vec![Instr::Reduce {
                    dst: "t".into(),
                    op: RedOp::Norm2,
                    m: "r".into(),
                }],
                cond: SExpr::bin(SBinOp::Gt, SExpr::var("t"), SExpr::c(1e-6)),
                body: vec![Instr::Break],
            }],
            ..Default::default()
        };
        let s = program_to_string(&prog);
        assert!(s.contains("t = ML_norm2(r);"), "{s}");
        assert!(s.contains("break;"), "{s}");
    }

    #[test]
    fn renders_functions_with_ranks() {
        let mut funcs = std::collections::BTreeMap::new();
        funcs.insert(
            "sq".to_string(),
            IrFunction {
                name: "sq".into(),
                params: vec![("x".into(), VarRank::Matrix)],
                outs: vec![("y".into(), VarRank::Matrix)],
                body: vec![Instr::ElemWise {
                    dst: "y".into(),
                    expr: EwExpr::bin(EwOp::Mul, EwExpr::mat("x"), EwExpr::mat("x")),
                }],
                ..Default::default()
            },
        );
        let prog = IrProgram {
            functions: funcs,
            ..Default::default()
        };
        let s = program_to_string(&prog);
        assert!(s.contains("fn sq(x: matrix) -> (y: matrix)"), "{s}");
    }
}
