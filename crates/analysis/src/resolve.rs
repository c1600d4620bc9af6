//! Pass 2 — identifier resolution (paper §3).
//!
//! "Beginning with the original script, it determines which
//! identifiers correspond to variables and which correspond to
//! functions. User M-file functions identified during this pass are
//! scanned, parsed, and eventually subjected to the same identifier
//! resolution algorithm. At the end of this pass every M-file in the
//! user's program has been added to the AST."
//!
//! Classification rule (MATLAB's): a name assigned anywhere in a
//! scope is a variable throughout that scope; otherwise it is a
//! function (built-in or M-file) or a built-in constant. The parser
//! emits every `name(args)` as [`ExprKind::Call`]; this pass rewrites
//! the variable cases to [`ExprKind::Index`].

use crate::builtins::{is_builtin_constant, is_builtin_function};
use crate::error::{AnalysisError, Result};
use otter_frontend::ast::*;
use otter_frontend::{parse, SourceProvider};
use std::collections::BTreeSet;

/// The resolved program: every reachable M-file loaded, every
/// `Call`/`Index` ambiguity settled.
#[derive(Debug, Clone, PartialEq)]
pub struct Resolved {
    pub program: Program,
}

/// Resolve a script against an M-file provider (parse + resolve in
/// one call — the historical entry point).
pub fn resolve(src: &str, provider: &dyn SourceProvider) -> Result<Resolved> {
    let file = parse(src).map_err(|e| AnalysisError::new(e.to_string(), e.span))?;
    resolve_program(
        Program {
            script: file.script,
            functions: file.functions,
        },
        provider,
    )
}

/// Resolve an already-parsed program against an M-file provider.
/// This is pass 2 proper; the compile driver runs it after a separate
/// parse pass so the two stages are timed and dumped independently.
pub fn resolve_program(mut program: Program, provider: &dyn SourceProvider) -> Result<Resolved> {
    // Work-list of function names still to load.
    let mut pending: Vec<String> = Vec::new();

    // Resolve the script scope.
    let assigned = assigned_names(&program.script, &[]);
    let script = std::mem::take(&mut program.script);
    program.script = resolve_block(script, &assigned, &program, &mut pending)?;

    // Resolve functions already present in the original file.
    let mut resolved_fns: Vec<Function> = Vec::new();
    let mut fns = std::mem::take(&mut program.functions);
    for f in &mut fns {
        resolve_function(f, &program, &mut pending)?;
    }
    resolved_fns.extend(fns);
    program.functions = resolved_fns;

    // Chase pending M-files to fixpoint.
    while let Some(name) = pending.pop() {
        if program.function(&name).is_some() {
            continue;
        }
        let Some(src) = provider.m_file(&name) else {
            // Name was enqueued speculatively; a genuine unknown is
            // reported at the use site during the walk below.
            continue;
        };
        let file = parse(&src).map_err(|e| AnalysisError::new(format!("{name}.m: {e}"), e.span))?;
        if file.functions.is_empty() {
            return Err(AnalysisError::new(
                format!("{name}.m does not define a function"),
                otter_frontend::Span::DUMMY,
            ));
        }
        for mut f in file.functions {
            resolve_function(&mut f, &program, &mut pending)?;
            program.functions.push(f);
        }
    }

    // Final verification walk: every Call must now be a builtin or a
    // loaded function.
    verify_calls(&program)?;
    Ok(Resolved { program })
}

fn resolve_function(f: &mut Function, program: &Program, pending: &mut Vec<String>) -> Result<()> {
    let assigned = assigned_names(&f.body, &f.params);
    let body = std::mem::take(&mut f.body);
    f.body = resolve_block(body, &assigned, program, pending)?;
    Ok(())
}

/// Names assigned anywhere in a block (entire-scope rule), plus
/// explicitly seeded names (function parameters and outputs).
pub fn assigned_names(block: &Block, seed: &[String]) -> BTreeSet<String> {
    let mut out: BTreeSet<String> = seed.iter().cloned().collect();
    fn walk(block: &Block, out: &mut BTreeSet<String>) {
        for stmt in block {
            match &stmt.kind {
                StmtKind::Assign { lhs, .. } => {
                    out.insert(lhs.name.clone());
                }
                StmtKind::MultiAssign { lhs, .. } => {
                    for lv in lhs {
                        out.insert(lv.name.clone());
                    }
                }
                StmtKind::For { var, body, .. } => {
                    out.insert(var.clone());
                    walk(body, out);
                }
                StmtKind::If { arms, else_body } => {
                    for (_, b) in arms {
                        walk(b, out);
                    }
                    if let Some(b) = else_body {
                        walk(b, out);
                    }
                }
                StmtKind::While { body, .. } => walk(body, out),
                StmtKind::Global(names) => {
                    for n in names {
                        out.insert(n.clone());
                    }
                }
                _ => {}
            }
        }
    }
    walk(block, &mut out);
    out
}

fn resolve_block(
    block: Block,
    assigned: &BTreeSet<String>,
    program: &Program,
    pending: &mut Vec<String>,
) -> Result<Block> {
    block
        .into_iter()
        .map(|stmt| resolve_stmt(stmt, assigned, program, pending))
        .collect()
}

fn resolve_stmt(
    stmt: Stmt,
    assigned: &BTreeSet<String>,
    program: &Program,
    pending: &mut Vec<String>,
) -> Result<Stmt> {
    let kind = match stmt.kind {
        StmtKind::Expr(e) => StmtKind::Expr(resolve_expr(e, assigned, program, pending)?),
        StmtKind::Assign { lhs, rhs } => StmtKind::Assign {
            lhs: resolve_lvalue(lhs, assigned, program, pending)?,
            rhs: resolve_expr(rhs, assigned, program, pending)?,
        },
        StmtKind::MultiAssign { lhs, rhs } => StmtKind::MultiAssign {
            lhs: lhs
                .into_iter()
                .map(|lv| resolve_lvalue(lv, assigned, program, pending))
                .collect::<Result<Vec<_>>>()?,
            rhs: resolve_expr(rhs, assigned, program, pending)?,
        },
        StmtKind::If { arms, else_body } => StmtKind::If {
            arms: arms
                .into_iter()
                .map(|(c, b)| {
                    Ok((
                        resolve_expr(c, assigned, program, pending)?,
                        resolve_block(b, assigned, program, pending)?,
                    ))
                })
                .collect::<Result<Vec<_>>>()?,
            else_body: match else_body {
                Some(b) => Some(resolve_block(b, assigned, program, pending)?),
                None => None,
            },
        },
        StmtKind::While { cond, body } => StmtKind::While {
            cond: resolve_expr(cond, assigned, program, pending)?,
            body: resolve_block(body, assigned, program, pending)?,
        },
        StmtKind::For { var, iter, body } => StmtKind::For {
            var,
            iter: resolve_expr(iter, assigned, program, pending)?,
            body: resolve_block(body, assigned, program, pending)?,
        },
        other => other,
    };
    Ok(Stmt {
        kind,
        span: stmt.span,
        display: stmt.display,
    })
}

fn resolve_lvalue(
    lv: LValue,
    assigned: &BTreeSet<String>,
    program: &Program,
    pending: &mut Vec<String>,
) -> Result<LValue> {
    let indices = match lv.indices {
        None => None,
        Some(idx) => Some(
            idx.into_iter()
                .map(|e| resolve_expr(e, assigned, program, pending))
                .collect::<Result<Vec<_>>>()?,
        ),
    };
    Ok(LValue {
        name: lv.name,
        indices,
        span: lv.span,
    })
}

fn resolve_expr(
    e: Expr,
    assigned: &BTreeSet<String>,
    program: &Program,
    pending: &mut Vec<String>,
) -> Result<Expr> {
    let span = e.span;
    let kind = match e.kind {
        ExprKind::Ident(name) => {
            if assigned.contains(&name) || is_builtin_constant(&name) {
                ExprKind::Ident(name)
            } else if is_builtin_function(&name) {
                // Bare builtin-function reference: zero-argument call.
                ExprKind::Call {
                    callee: name,
                    args: vec![],
                }
            } else {
                // Possibly a zero-argument M-file function.
                pending.push(name.clone());
                ExprKind::Call {
                    callee: name,
                    args: vec![],
                }
            }
        }
        ExprKind::Call { callee, args } => {
            let args = args
                .into_iter()
                .map(|a| resolve_expr(a, assigned, program, pending))
                .collect::<Result<Vec<_>>>()?;
            if assigned.contains(&callee) {
                ExprKind::Index { base: callee, args }
            } else {
                if !is_builtin_function(&callee) && program.function(&callee).is_none() {
                    pending.push(callee.clone());
                }
                ExprKind::Call { callee, args }
            }
        }
        ExprKind::Index { base, args } => {
            // Already classified (re-resolution is idempotent).
            let args = args
                .into_iter()
                .map(|a| resolve_expr(a, assigned, program, pending))
                .collect::<Result<Vec<_>>>()?;
            ExprKind::Index { base, args }
        }
        ExprKind::Unary { op, operand } => ExprKind::Unary {
            op,
            operand: Box::new(resolve_expr(*operand, assigned, program, pending)?),
        },
        ExprKind::Binary { op, lhs, rhs } => ExprKind::Binary {
            op,
            lhs: Box::new(resolve_expr(*lhs, assigned, program, pending)?),
            rhs: Box::new(resolve_expr(*rhs, assigned, program, pending)?),
        },
        ExprKind::Transpose { op, operand } => ExprKind::Transpose {
            op,
            operand: Box::new(resolve_expr(*operand, assigned, program, pending)?),
        },
        ExprKind::Range { start, step, stop } => ExprKind::Range {
            start: Box::new(resolve_expr(*start, assigned, program, pending)?),
            step: match step {
                Some(s) => Some(Box::new(resolve_expr(*s, assigned, program, pending)?)),
                None => None,
            },
            stop: Box::new(resolve_expr(*stop, assigned, program, pending)?),
        },
        ExprKind::Matrix(rows) => ExprKind::Matrix(
            rows.into_iter()
                .map(|r| {
                    r.into_iter()
                        .map(|c| resolve_expr(c, assigned, program, pending))
                        .collect::<Result<Vec<_>>>()
                })
                .collect::<Result<Vec<_>>>()?,
        ),
        k @ (ExprKind::Number { .. }
        | ExprKind::Str(_)
        | ExprKind::Colon
        | ExprKind::EndKeyword) => k,
    };
    Ok(Expr::new(kind, span))
}

/// After loading, every `Call` must target a builtin or a program
/// function; anything else is an unknown identifier.
fn verify_calls(program: &Program) -> Result<()> {
    fn check_expr(e: &Expr, program: &Program) -> Result<()> {
        let mut err = None;
        e.walk(&mut |x| {
            if err.is_some() {
                return;
            }
            if let ExprKind::Call { callee, .. } = &x.kind {
                if !is_builtin_function(callee) && program.function(callee).is_none() {
                    err = Some(AnalysisError::new(
                        format!("unknown function or variable `{callee}`"),
                        x.span,
                    ));
                }
            }
        });
        match err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
    fn check_block(b: &Block, program: &Program) -> Result<()> {
        for stmt in b {
            match &stmt.kind {
                StmtKind::Expr(e) => check_expr(e, program)?,
                StmtKind::Assign { lhs, rhs } => {
                    check_expr(rhs, program)?;
                    if let Some(idx) = &lhs.indices {
                        for e in idx {
                            check_expr(e, program)?;
                        }
                    }
                }
                StmtKind::MultiAssign { rhs, .. } => check_expr(rhs, program)?,
                StmtKind::If { arms, else_body } => {
                    for (c, b) in arms {
                        check_expr(c, program)?;
                        check_block(b, program)?;
                    }
                    if let Some(b) = else_body {
                        check_block(b, program)?;
                    }
                }
                StmtKind::While { cond, body } => {
                    check_expr(cond, program)?;
                    check_block(body, program)?;
                }
                StmtKind::For { iter, body, .. } => {
                    check_expr(iter, program)?;
                    check_block(body, program)?;
                }
                _ => {}
            }
        }
        Ok(())
    }
    check_block(&program.script, program)?;
    for f in &program.functions {
        check_block(&f.body, program)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use otter_frontend::{EmptyProvider, MapProvider};

    fn resolve_ok(src: &str) -> Program {
        resolve(src, &EmptyProvider).unwrap().program
    }

    #[test]
    fn assigned_variable_indexing_becomes_index() {
        let p = resolve_ok("a = zeros(3, 3);\nx = a(1, 2);");
        let StmtKind::Assign { rhs, .. } = &p.script[1].kind else {
            panic!()
        };
        assert!(matches!(rhs.kind, ExprKind::Index { .. }), "{rhs:?}");
    }

    #[test]
    fn builtin_call_stays_call() {
        let p = resolve_ok("a = zeros(3, 3);");
        let StmtKind::Assign { rhs, .. } = &p.script[0].kind else {
            panic!()
        };
        assert!(matches!(rhs.kind, ExprKind::Call { .. }));
    }

    #[test]
    fn forward_assignment_still_makes_variable() {
        // `x` is used before the assignment textually, but MATLAB's
        // whole-scope rule classifies it as a variable. (Use-before-
        // def is then an inference-time error, not a resolution one.)
        let p = resolve_ok("for i = 1:3\ny = x(i);\nx = [1, 2, 3];\nend");
        let StmtKind::For { body, .. } = &p.script[0].kind else {
            panic!()
        };
        let StmtKind::Assign { rhs, .. } = &body[0].kind else {
            panic!()
        };
        assert!(matches!(rhs.kind, ExprKind::Index { .. }));
    }

    #[test]
    fn m_file_functions_are_loaded_transitively() {
        let provider = MapProvider::new()
            .with(
                "outer_fn",
                "function y = outer_fn(x)\ny = inner_fn(x) + 1;\n",
            )
            .with("inner_fn", "function y = inner_fn(x)\ny = x * 2;\n");
        let p = resolve("z = outer_fn(3);", &provider).unwrap().program;
        assert!(p.function("outer_fn").is_some());
        assert!(
            p.function("inner_fn").is_some(),
            "transitive M-file must load"
        );
    }

    #[test]
    fn unknown_function_is_an_error() {
        let err = resolve("z = mystery(3);", &EmptyProvider).unwrap_err();
        assert!(err.to_string().contains("mystery"), "{err}");
    }

    #[test]
    fn builtin_constants_stay_idents() {
        let p = resolve_ok("x = pi * 2;");
        let StmtKind::Assign { rhs, .. } = &p.script[0].kind else {
            panic!()
        };
        let ExprKind::Binary { lhs, .. } = &rhs.kind else {
            panic!()
        };
        assert!(matches!(lhs.kind, ExprKind::Ident(_)));
    }

    #[test]
    fn bare_builtin_function_becomes_zero_arg_call() {
        let p = resolve_ok("x = rand;");
        let StmtKind::Assign { rhs, .. } = &p.script[0].kind else {
            panic!()
        };
        assert!(
            matches!(&rhs.kind, ExprKind::Call { callee, args } if callee == "rand" && args.is_empty())
        );
    }

    #[test]
    fn function_scope_params_are_variables() {
        let provider = MapProvider::new().with("f", "function y = f(a)\ny = a(1) + 1;\n");
        let p = resolve("z = f([1, 2]);", &provider).unwrap().program;
        let f = p.function("f").unwrap();
        let StmtKind::Assign { rhs, .. } = &f.body[0].kind else {
            panic!()
        };
        let ExprKind::Binary { lhs, .. } = &rhs.kind else {
            panic!()
        };
        assert!(
            matches!(lhs.kind, ExprKind::Index { .. }),
            "param indexing is Index"
        );
    }

    #[test]
    fn loop_variable_is_a_variable() {
        let p = resolve_ok("for i = 1:3\nx = i + 1;\nend");
        let StmtKind::For { body, .. } = &p.script[0].kind else {
            panic!()
        };
        let StmtKind::Assign { rhs, .. } = &body[0].kind else {
            panic!()
        };
        let ExprKind::Binary { lhs, .. } = &rhs.kind else {
            panic!()
        };
        assert!(matches!(lhs.kind, ExprKind::Ident(_)));
    }

    #[test]
    fn resolution_is_idempotent() {
        let p1 = resolve_ok("a = zeros(2, 2);\nb = a(1, 1) + sum(a(:, 1));");
        // Feed the resolved program's pretty-print back through.
        let printed = otter_frontend::pretty::program_to_string(&p1);
        let p2 = resolve_ok(&printed);
        assert_eq!(otter_frontend::pretty::program_to_string(&p2), printed);
    }
}
