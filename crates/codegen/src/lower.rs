//! Passes 4 and 5 — expression rewriting and owner-computes guards.
//!
//! Pass 4 (paper §3): "the compiler is able to determine which terms
//! and subexpressions may involve interprocessor communication. The
//! compiler must modify the AST to bring these terms and
//! subexpressions to the statement level, where they can be translated
//! into calls to the run-time library. After this has been done, some
//! element-wise matrix operations may remain [emitted as for-loops]."
//!
//! Pass 5: statements manipulating individual matrix elements are
//! wrapped in the `ML_owner` conditional so only the owning processor
//! stores; every *remote* element read becomes an `ML_broadcast`.
//!
//! Lowering therefore turns the typed AST into [`otter_ir`]
//! instructions: communication-bearing operations become run-time
//! library calls with fresh `ML_tmp*` destinations, element-wise
//! arithmetic stays fused in [`EwExpr`] trees (one emitted loop per
//! statement), and replicated scalar arithmetic becomes plain
//! [`SExpr`]s.

use crate::error::{CodegenError, Result};
use otter_analysis::infer::binary_result_type;
use otter_analysis::{Dim, Inference, RankTy, ScopeTypes, VarTy};
use otter_frontend::ast::*;
use otter_frontend::Span;
use otter_ir::*;

/// Lower a resolved + SSA-renamed + inferred program to IR: one frame
/// for the script and one for each function that inference reached (the
/// paper's compiler only emits reachable code).
pub fn lower(program: &Program, inference: &Inference) -> Result<IrProgram> {
    let script = &program.script;
    let main = Cx::new(inference, &inference.script_vars).frame("", &[], &[], script)?;
    let mut ir = IrProgram {
        main,
        ..IrProgram::default()
    };
    for f in &program.functions {
        if let Some(sig) = inference.functions.get(&f.name) {
            let cx = Cx::new(inference, &sig.vars);
            let frame = cx.frame(&f.name, &f.params, &f.outs, &f.body)?;
            ir.functions.insert(f.name.clone(), frame);
        }
    }
    Ok(ir)
}

fn rank_of(t: &VarTy) -> VarRank {
    match t.rank {
        RankTy::Matrix => VarRank::Matrix,
        _ => VarRank::Scalar,
    }
}

/// A lowered expression fragment.
#[derive(Debug, Clone)]
enum Frag {
    /// Replicated scalar.
    S(SExpr),
    /// Element-wise tree over aligned matrices (at least one `Mat`).
    E(EwExpr),
}

struct Cx<'a> {
    inference: &'a Inference,
    types: &'a ScopeTypes,
    /// The scope's slot table. Its first `types.len()` slots are the
    /// inferred variables in name order, so [`Cx::slot`] finds them by
    /// binary search; temporaries follow as they are minted.
    vars: Vars,
    tmp: usize,
    /// While lowering `m(i,j) = rhs`: the store target, so reads of
    /// the same element become [`SExpr::OwnElem`] (paper's in-guard
    /// read) instead of a broadcast.
    self_elem: Option<(Slot, Vec<SExpr>)>,
}

impl<'a> Cx<'a> {
    fn new(inference: &'a Inference, types: &'a ScopeTypes) -> Self {
        let mut vars = Vars::default();
        for (name, ty) in types {
            let s = vars.add(Var::new(name.clone(), rank_of(ty)));
            if ty.rank == RankTy::Matrix {
                vars[s].shape = Some(ty.shape);
            }
            vars[s].konst = ty.konst;
        }
        Cx {
            inference,
            types,
            vars,
            tmp: 0,
            self_elem: None,
        }
    }

    /// Lower one scope to its frame.
    fn frame(
        mut self,
        name: &str,
        params: &[String],
        outs: &[String],
        body: &Block,
    ) -> Result<Frame> {
        let params = params.iter().map(|p| self.slot(p)).collect();
        let body = self.lower_block(body)?;
        let outs = outs.iter().map(|o| self.slot(o)).collect();
        Ok(Frame {
            name: name.to_string(),
            params,
            outs,
            body,
            vars: self.vars,
        })
    }

    /// The slot of the source variable `name`. A name inference did not
    /// type (none reaches here for a well-typed program) gets a scalar
    /// slot of its own.
    fn slot(&mut self, name: &str) -> Slot {
        let (mut lo, mut hi) = (0, self.types.len() as u32);
        while lo < hi {
            let mid = (lo + hi) / 2;
            match self.vars.name(Slot(mid)).cmp(name) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Slot(mid),
            }
        }
        match self.vars.slot(name) {
            Some(s) => s,
            None => self.vars.add(Var::new(name, VarRank::Scalar)),
        }
    }

    fn fresh_tmp(&mut self, rank: VarRank) -> Slot {
        self.tmp += 1;
        self.vars
            .add(Var::new(format!("{TEMP_PREFIX}{}", self.tmp), rank))
    }

    fn var_ty(&self, name: &str, span: Span) -> Result<VarTy> {
        self.types.get(name).copied().ok_or_else(|| {
            CodegenError::new(
                format!("no inferred type for `{name}` (compiler bug)"),
                span,
            )
        })
    }

    // ---- expression lowering -------------------------------------------

    /// Lower to a fragment plus the expression's inferred type.
    fn lower_expr(&mut self, e: &Expr, out: &mut Vec<Instr>) -> Result<(Frag, VarTy)> {
        match &e.kind {
            ExprKind::Number { value, is_int } => {
                let ty = if *is_int {
                    VarTy::int_const(*value)
                } else {
                    VarTy {
                        konst: Some(*value),
                        ..VarTy::scalar(otter_analysis::BaseTy::Real)
                    }
                };
                Ok((Frag::S(SExpr::Const(*value)), ty))
            }
            ExprKind::Str(_) => Err(CodegenError::new(
                "string values only appear as disp/load arguments in compiled code",
                e.span,
            )),
            ExprKind::Ident(name) => {
                if let Some(ty) = self.types.get(name).copied() {
                    if ty.rank == RankTy::Matrix {
                        Ok((Frag::E(EwExpr::Mat(self.slot(name))), ty))
                    } else {
                        Ok((Frag::S(SExpr::Var(self.slot(name))), ty))
                    }
                } else if let Some(v) = otter_analysis::builtins::constant_value(name) {
                    Ok((
                        Frag::S(SExpr::Const(v)),
                        VarTy {
                            konst: Some(v),
                            ..VarTy::scalar(otter_analysis::BaseTy::Real)
                        },
                    ))
                } else {
                    Err(CodegenError::new(
                        format!("unknown identifier `{name}`"),
                        e.span,
                    ))
                }
            }
            ExprKind::Range { start, step, stop } => {
                let (s, _) = self.lower_scalar(start, out)?;
                let st = match step {
                    Some(x) => self.lower_scalar(x, out)?.0,
                    None => SExpr::Const(1.0),
                };
                let (p, _) = self.lower_scalar(stop, out)?;
                let dst = self.fresh_tmp(VarRank::Matrix);
                out.push(Instr::InitMatrix {
                    dst,
                    init: MatInit::Range {
                        start: s,
                        step: st,
                        stop: p,
                    },
                });
                let ty = range_type(e, self.types);
                Ok((Frag::E(EwExpr::Mat(dst)), ty))
            }
            ExprKind::Colon | ExprKind::EndKeyword => {
                Err(CodegenError::new("`:`/`end` outside an index", e.span))
            }
            ExprKind::Unary { op, operand } => {
                let (f, ty) = self.lower_expr(operand, out)?;
                let frag = match (op, f) {
                    (UnOp::Plus, f) => f,
                    (UnOp::Neg, Frag::S(s)) => Frag::S(SExpr::Neg(Box::new(s))),
                    (UnOp::Neg, Frag::E(x)) => Frag::E(EwExpr::Neg(Box::new(x))),
                    (UnOp::Not, Frag::S(s)) => Frag::S(SExpr::Not(Box::new(s))),
                    (UnOp::Not, Frag::E(x)) => Frag::E(EwExpr::Not(Box::new(x))),
                };
                Ok((frag, ty))
            }
            ExprKind::Binary { op, lhs, rhs } => self.lower_binary(*op, lhs, rhs, e.span, out),
            ExprKind::Transpose { operand, .. } => {
                let (f, ty) = self.lower_expr(operand, out)?;
                match f {
                    Frag::S(s) => Ok((Frag::S(s), ty)),
                    Frag::E(_) => {
                        let src = self.materialize(f, out);
                        let dst = self.fresh_tmp(VarRank::Matrix);
                        out.push(Instr::Transpose { dst, a: src });
                        let t = VarTy {
                            shape: ty.shape.transposed(),
                            ..ty
                        };
                        Ok((Frag::E(EwExpr::Mat(dst)), t))
                    }
                }
            }
            ExprKind::Index { base, args } => self.lower_index_read(base, args, e.span, out),
            ExprKind::Call { callee, args } => {
                if let Some(s) = self.try_lower_end_marker(e) {
                    return Ok((Frag::S(s), VarTy::scalar(otter_analysis::BaseTy::Integer)));
                }
                self.lower_call_value(callee, args, e.span, out)
            }
            ExprKind::Matrix(rows) => {
                let mut cells: Vec<Vec<SExpr>> = Vec::with_capacity(rows.len());
                for row in rows {
                    let mut r = Vec::with_capacity(row.len());
                    for c in row {
                        let (s, _) = self.lower_scalar(c, out)?;
                        r.push(s);
                    }
                    cells.push(r);
                }
                let (nr, nc) = (rows.len(), rows.first().map_or(0, |r| r.len()));
                let dst = self.fresh_tmp(VarRank::Matrix);
                out.push(Instr::InitMatrix {
                    dst,
                    init: MatInit::Literal { rows: cells },
                });
                Ok((
                    Frag::E(EwExpr::Mat(dst)),
                    VarTy::matrix(
                        otter_analysis::BaseTy::Real,
                        otter_analysis::Shape::known(nr, nc),
                    ),
                ))
            }
        }
    }

    /// Lower an expression that must be a replicated scalar.
    fn lower_scalar(&mut self, e: &Expr, out: &mut Vec<Instr>) -> Result<(SExpr, VarTy)> {
        let (f, ty) = self.lower_expr(e, out)?;
        match f {
            Frag::S(s) => Ok((s, ty)),
            Frag::E(_) => Err(CodegenError::new(
                "expected a scalar expression, found a matrix",
                e.span,
            )),
        }
    }

    /// Materialize an element-wise fragment into a named matrix.
    fn materialize(&mut self, f: Frag, out: &mut Vec<Instr>) -> Slot {
        match f {
            Frag::E(EwExpr::Mat(name)) => name,
            Frag::E(expr) => {
                let dst = self.fresh_tmp(VarRank::Matrix);
                out.push(Instr::ElemWise { dst, expr });
                dst
            }
            Frag::S(s) => {
                // A scalar where a matrix is needed (1×1 literal).
                let dst = self.fresh_tmp(VarRank::Matrix);
                out.push(Instr::InitMatrix {
                    dst,
                    init: MatInit::Literal {
                        rows: vec![vec![s]],
                    },
                });
                dst
            }
        }
    }

    fn lower_binary(
        &mut self,
        op: BinOp,
        lhs: &Expr,
        rhs: &Expr,
        span: Span,
        out: &mut Vec<Instr>,
    ) -> Result<(Frag, VarTy)> {
        let (fa, ta) = self.lower_expr(lhs, out)?;
        let (fb, tb) = self.lower_expr(rhs, out)?;
        let rty = binary_result_type(op, ta, tb, span)
            .map_err(|e| CodegenError::new(e.message, e.span))?;
        // Scalar result from scalar operands: plain replicated C.
        if let (Frag::S(a), Frag::S(b)) = (&fa, &fb) {
            let s = lower_scalar_op(op, a.clone(), b.clone(), span)?;
            return Ok((Frag::S(s), rty));
        }
        match op {
            BinOp::Mul => {
                // Communication-bearing: decide which library call.
                if let Frag::S(s) = &fa {
                    // scalar * matrix — element-wise.
                    let b = as_ew(fb);
                    return Ok((
                        Frag::E(EwExpr::bin(EwOp::Mul, EwExpr::Scalar(s.clone()), b)),
                        rty,
                    ));
                }
                if let Frag::S(s) = &fb {
                    let a = as_ew(fa);
                    return Ok((
                        Frag::E(EwExpr::bin(EwOp::Mul, a, EwExpr::Scalar(s.clone()))),
                        rty,
                    ));
                }
                // matrix * matrix.
                if rty.rank == RankTy::Scalar {
                    // (1×k)·(k×1): a dot product. Strip transposes —
                    // dot is orientation-blind.
                    let a = self.strip_transpose_or_materialize(lhs, fa, out)?;
                    let b = self.strip_transpose_or_materialize(rhs, fb, out)?;
                    let dst = self.fresh_tmp(VarRank::Scalar);
                    out.push(Instr::Dot { dst, a, b });
                    return Ok((Frag::S(SExpr::Var(dst)), rty));
                }
                let a = self.materialize(fa, out);
                let b = self.materialize(fb, out);
                let dst = self.fresh_tmp(VarRank::Matrix);
                // Column-vector right operand → ML_matrix_vector_multiply.
                if tb.shape.cols == Dim::Known(1) && tb.shape.rows != Dim::Known(1) {
                    out.push(Instr::MatVec { dst, a, x: b });
                } else if ta.shape.cols == Dim::Known(1) && tb.shape.rows == Dim::Known(1) {
                    // column · row = outer product.
                    out.push(Instr::Outer { dst, u: a, v: b });
                } else {
                    out.push(Instr::MatMul { dst, a, b });
                }
                Ok((Frag::E(EwExpr::Mat(dst)), rty))
            }
            BinOp::Div => match (&fa, &fb) {
                (_, Frag::S(s)) => {
                    let a = as_ew(fa.clone());
                    Ok((
                        Frag::E(EwExpr::bin(EwOp::Div, a, EwExpr::Scalar(s.clone()))),
                        rty,
                    ))
                }
                _ => Err(CodegenError::new(
                    "matrix right-division is not supported by the compiler",
                    span,
                )),
            },
            BinOp::LeftDiv => Err(CodegenError::new(
                "matrix left-division (solve) is not supported by the compiler",
                span,
            )),
            BinOp::Pow => Err(CodegenError::new(
                "matrix power is not supported by the compiler; multiply in a loop",
                span,
            )),
            // Element-wise family: fuse.
            _ => {
                let ew_op = ew_op_of(op);
                let a = as_ew(fa);
                let b = as_ew(fb);
                Ok((Frag::E(EwExpr::bin(ew_op, a, b)), rty))
            }
        }
    }

    /// For dot products `v' * w`, the transpose is a no-op: reuse the
    /// vector under the transpose instead of materializing it.
    fn strip_transpose_or_materialize(
        &mut self,
        src_expr: &Expr,
        frag: Frag,
        out: &mut Vec<Instr>,
    ) -> Result<Slot> {
        if let ExprKind::Transpose { operand, .. } = &src_expr.kind {
            if let ExprKind::Ident(name) = &operand.kind {
                if self.var_ty(name, src_expr.span)?.rank == RankTy::Matrix {
                    return Ok(self.slot(name));
                }
            }
        }
        Ok(self.materialize(frag, out))
    }

    /// An index expression with `end` resolved to the right extent.
    fn lower_index_scalar(
        &mut self,
        e: &Expr,
        mvar: &str,
        extent: DimSel,
        out: &mut Vec<Instr>,
    ) -> Result<SExpr> {
        let replaced = substitute_end_sexpr(e, mvar, extent);
        let (s, _) = self.lower_scalar(&replaced, out)?;
        Ok(s)
    }

    fn lower_index_read(
        &mut self,
        base: &str,
        args: &[Expr],
        span: Span,
        out: &mut Vec<Instr>,
    ) -> Result<(Frag, VarTy)> {
        let bty = self.var_ty(base, span)?;
        if bty.rank != RankTy::Matrix {
            return Err(CodegenError::new(
                format!("cannot index scalar `{base}`"),
                span,
            ));
        }
        let elem_base = bty.base;
        match args {
            // -- single index ------------------------------------------------
            [ix] if is_scalar_index(ix) => {
                // v(i): element broadcast (pass 4's ML_broadcast).
                let i = self.lower_index_scalar(ix, base, DimSel::Numel, out)?;
                // Read of the element being stored? (pass 5 in-guard read)
                let m = self.slot(base);
                if let Some((own, idx)) = &self.self_elem {
                    if *own == m && idx.len() == 1 && idx[0] == i {
                        return Ok((Frag::S(SExpr::OwnElem), VarTy::scalar(elem_base)));
                    }
                }
                let dst = self.fresh_tmp(VarRank::Scalar);
                out.push(Instr::BroadcastElem { dst, m, i, j: None });
                Ok((Frag::S(SExpr::Var(dst)), VarTy::scalar(elem_base)))
            }
            [ix] => match &ix.kind {
                ExprKind::Range { start, step, stop } => {
                    let lo = self.lower_index_scalar(start, base, DimSel::Numel, out)?;
                    let hi = self.lower_index_scalar(stop, base, DimSel::Numel, out)?;
                    let dst = self.fresh_tmp(VarRank::Matrix);
                    match step {
                        None => out.push(Instr::ExtractRange {
                            dst,
                            v: self.slot(base),
                            lo,
                            hi,
                        }),
                        Some(st) => {
                            let (step_s, _) = self.lower_scalar(st, out)?;
                            out.push(Instr::ExtractStrided {
                                dst,
                                v: self.slot(base),
                                lo,
                                step: step_s,
                                hi,
                            });
                        }
                    }
                    let ty = VarTy::matrix(elem_base, otter_analysis::Shape::UNKNOWN);
                    Ok((Frag::E(EwExpr::Mat(dst)), ty))
                }
                _ => Err(CodegenError::new(
                    "this indexing form is not supported by the compiler",
                    span,
                )),
            },
            // -- two indices --------------------------------------------------
            [i, j] if is_scalar_index(i) && is_scalar_index(j) => {
                let si = self.lower_index_scalar(i, base, DimSel::Rows, out)?;
                let sj = self.lower_index_scalar(j, base, DimSel::Cols, out)?;
                let m = self.slot(base);
                if let Some((own, idx)) = &self.self_elem {
                    if *own == m && idx.len() == 2 && idx[0] == si && idx[1] == sj {
                        return Ok((Frag::S(SExpr::OwnElem), VarTy::scalar(elem_base)));
                    }
                }
                let dst = self.fresh_tmp(VarRank::Scalar);
                out.push(Instr::BroadcastElem {
                    dst,
                    m: self.slot(base),
                    i: si,
                    j: Some(sj),
                });
                Ok((Frag::S(SExpr::Var(dst)), VarTy::scalar(elem_base)))
            }
            [i, j] if is_scalar_index(i) && matches!(j.kind, ExprKind::Colon) => {
                let si = self.lower_index_scalar(i, base, DimSel::Rows, out)?;
                let dst = self.fresh_tmp(VarRank::Matrix);
                out.push(Instr::ExtractRow {
                    dst,
                    m: self.slot(base),
                    i: si,
                });
                let ty = VarTy::matrix(
                    elem_base,
                    otter_analysis::Shape {
                        rows: Dim::Known(1),
                        cols: bty.shape.cols,
                    },
                );
                Ok((Frag::E(EwExpr::Mat(dst)), ty))
            }
            [i, j] if matches!(i.kind, ExprKind::Colon) && is_scalar_index(j) => {
                let sj = self.lower_index_scalar(j, base, DimSel::Cols, out)?;
                let dst = self.fresh_tmp(VarRank::Matrix);
                out.push(Instr::ExtractCol {
                    dst,
                    m: self.slot(base),
                    j: sj,
                });
                let ty = VarTy::matrix(
                    elem_base,
                    otter_analysis::Shape {
                        rows: bty.shape.rows,
                        cols: Dim::Known(1),
                    },
                );
                Ok((Frag::E(EwExpr::Mat(dst)), ty))
            }
            _ => Err(CodegenError::new(
                "this indexing form is not supported by the compiler \
                 (supported: scalar, contiguous range, row/column slices)",
                span,
            )),
        }
    }

    fn lower_call_value(
        &mut self,
        callee: &str,
        args: &[Expr],
        span: Span,
        out: &mut Vec<Instr>,
    ) -> Result<(Frag, VarTy)> {
        let results = self.lower_call(callee, args, 1, span, out)?;
        results
            .into_iter()
            .next()
            .ok_or_else(|| CodegenError::new(format!("`{callee}` returns no value"), span))
    }

    /// Lower a call to builtins or user functions, producing up to
    /// `nout` (fragment, type) results.
    fn lower_call(
        &mut self,
        callee: &str,
        args: &[Expr],
        nout: usize,
        span: Span,
        out: &mut Vec<Instr>,
    ) -> Result<Vec<(Frag, VarTy)>> {
        use otter_analysis::BaseTy;
        let one = |f: Frag, t: VarTy| Ok(vec![(f, t)]);
        match callee {
            "zeros" | "ones" | "rand" | "eye" => {
                let mut dims = Vec::new();
                for a in args {
                    dims.push(self.lower_scalar(a, out)?.0);
                }
                let (r, c) = match dims.len() {
                    0 => {
                        // Scalar constructors.
                        let v = match callee {
                            "ones" => SExpr::Const(1.0),
                            "zeros" => SExpr::Const(0.0),
                            _ => {
                                return Err(CodegenError::new(
                                    "scalar rand/eye are not supported by the compiler",
                                    span,
                                ))
                            }
                        };
                        return one(Frag::S(v), VarTy::scalar(BaseTy::Integer));
                    }
                    1 => (dims[0].clone(), dims[0].clone()),
                    _ => (dims[0].clone(), dims[1].clone()),
                };
                let init = match callee {
                    "zeros" => MatInit::Zeros { rows: r, cols: c },
                    "ones" => MatInit::Ones { rows: r, cols: c },
                    "rand" => MatInit::Rand { rows: r, cols: c },
                    _ => MatInit::Eye { n: r },
                };
                let dst = self.fresh_tmp(VarRank::Matrix);
                out.push(Instr::InitMatrix { dst, init });
                let base = if callee == "rand" {
                    BaseTy::Real
                } else {
                    BaseTy::Integer
                };
                one(
                    Frag::E(EwExpr::Mat(dst)),
                    VarTy::matrix(base, otter_analysis::Shape::UNKNOWN),
                )
            }
            "linspace" => {
                let a = self.lower_scalar(&args[0], out)?.0;
                let b = self.lower_scalar(&args[1], out)?.0;
                let n = if args.len() > 2 {
                    self.lower_scalar(&args[2], out)?.0
                } else {
                    SExpr::Const(100.0)
                };
                let dst = self.fresh_tmp(VarRank::Matrix);
                out.push(Instr::InitMatrix {
                    dst,
                    init: MatInit::Linspace { a, b, n },
                });
                one(
                    Frag::E(EwExpr::Mat(dst)),
                    VarTy::matrix(BaseTy::Real, otter_analysis::Shape::UNKNOWN),
                )
            }
            "size" | "length" | "numel" => {
                let ExprKind::Ident(mname) = &args[0].kind else {
                    return Err(CodegenError::new(
                        format!("`{callee}` argument must be a variable in compiled code"),
                        span,
                    ));
                };
                let mty = self.var_ty(mname, span)?;
                if mty.rank == RankTy::Scalar {
                    let v = SExpr::Const(1.0);
                    if callee == "size" && nout >= 2 {
                        return Ok(vec![
                            (Frag::S(v.clone()), VarTy::int_const(1.0)),
                            (Frag::S(v), VarTy::int_const(1.0)),
                        ]);
                    }
                    return one(Frag::S(v), VarTy::int_const(1.0));
                }
                let var = self.slot(mname);
                let dim = |sel| SExpr::DimOf { var, sel };
                match callee {
                    "length" => one(Frag::S(dim(DimSel::Length)), VarTy::scalar(BaseTy::Integer)),
                    "numel" => one(Frag::S(dim(DimSel::Numel)), VarTy::scalar(BaseTy::Integer)),
                    _ => {
                        if nout >= 2 {
                            return Ok(vec![
                                (Frag::S(dim(DimSel::Rows)), VarTy::scalar(BaseTy::Integer)),
                                (Frag::S(dim(DimSel::Cols)), VarTy::scalar(BaseTy::Integer)),
                            ]);
                        }
                        if args.len() == 2 {
                            let (d, _) = self.lower_scalar(&args[1], out)?;
                            let sel = match d {
                                SExpr::Const(1.0) => DimSel::Rows,
                                SExpr::Const(2.0) => DimSel::Cols,
                                _ => {
                                    return Err(CodegenError::new(
                                        "size(m, d) needs a literal dimension",
                                        span,
                                    ))
                                }
                            };
                            return one(Frag::S(dim(sel)), VarTy::scalar(BaseTy::Integer));
                        }
                        // size(m) as a 1×2 row vector.
                        let dst = self.fresh_tmp(VarRank::Matrix);
                        out.push(Instr::InitMatrix {
                            dst,
                            init: MatInit::Literal {
                                rows: vec![vec![dim(DimSel::Rows), dim(DimSel::Cols)]],
                            },
                        });
                        one(
                            Frag::E(EwExpr::Mat(dst)),
                            VarTy::matrix(BaseTy::Integer, otter_analysis::Shape::known(1, 2)),
                        )
                    }
                }
            }
            "abs" | "sqrt" | "sin" | "cos" | "tan" | "exp" | "log" | "log2" | "floor" | "ceil"
            | "round" | "sign" => {
                let (f, ty) = self.lower_expr(&args[0], out)?;
                let fun = sfun_of(callee);
                let rty = match callee {
                    "abs" | "floor" | "ceil" | "round" | "sign" => ty,
                    _ => VarTy {
                        base: BaseTy::Real,
                        konst: None,
                        ..ty
                    },
                };
                match f {
                    Frag::S(s) => one(Frag::S(SExpr::Call(fun, vec![s])), rty),
                    Frag::E(x) => one(Frag::E(EwExpr::Call(fun, vec![x])), rty),
                }
            }
            "mod" | "rem" | "max" | "min" if args.len() == 2 => {
                let (fa, ta) = self.lower_expr(&args[0], out)?;
                let (fb, tb) = self.lower_expr(&args[1], out)?;
                let fun = sfun_of(callee);
                match (fa, fb) {
                    (Frag::S(a), Frag::S(b)) => {
                        let t = VarTy::scalar(ta.base.join(tb.base));
                        one(Frag::S(SExpr::Call(fun, vec![a, b])), t)
                    }
                    (a, b) => {
                        let t = if ta.rank == RankTy::Matrix { ta } else { tb };
                        one(Frag::E(EwExpr::Call(fun, vec![as_ew(a), as_ew(b)])), t)
                    }
                }
            }
            "sum" | "mean" | "prod" | "max" | "min" | "any" | "all" => {
                let (f, ty) = self.lower_expr(&args[0], out)?;
                if ty.rank == RankTy::Scalar {
                    // MATLAB reductions are identities on scalars
                    // (any/all map to 0/1; the predicate form still
                    // goes through the scalar expression).
                    if callee == "any" || callee == "all" {
                        return one(
                            Frag::S(SExpr::bin(
                                SBinOp::Ne,
                                match f {
                                    Frag::S(s) => s,
                                    Frag::E(_) => unreachable!("scalar rank"),
                                },
                                SExpr::Const(0.0),
                            )),
                            VarTy::scalar(BaseTy::Integer),
                        );
                    }
                    return one(f, ty);
                }
                let m = self.materialize(f, out);
                let result_base = match callee {
                    "mean" => BaseTy::Real,
                    "any" | "all" => BaseTy::Integer,
                    _ => ty.base,
                };
                let op = match callee {
                    "sum" => ColRedOp::Sum,
                    "mean" => ColRedOp::Mean,
                    "prod" => ColRedOp::Prod,
                    "max" => ColRedOp::Max,
                    "min" => ColRedOp::Min,
                    "any" => ColRedOp::Any,
                    _ => ColRedOp::All,
                };
                if ty.shape.is_vector() {
                    let dst = self.fresh_tmp(VarRank::Scalar);
                    out.push(Instr::Reduce {
                        dst,
                        op: RedOp::Fold(op),
                        m,
                    });
                    one(Frag::S(SExpr::Var(dst)), VarTy::scalar(result_base))
                } else {
                    let dst = self.fresh_tmp(VarRank::Matrix);
                    out.push(Instr::ColReduce { dst, op, m });
                    let t = VarTy::matrix(
                        result_base,
                        otter_analysis::Shape {
                            rows: Dim::Known(1),
                            cols: ty.shape.cols,
                        },
                    );
                    one(Frag::E(EwExpr::Mat(dst)), t)
                }
            }
            "norm" => {
                let (f, _) = self.lower_expr(&args[0], out)?;
                let m = self.materialize(f, out);
                let dst = self.fresh_tmp(VarRank::Scalar);
                out.push(Instr::Reduce {
                    dst,
                    op: RedOp::Norm2,
                    m,
                });
                one(Frag::S(SExpr::Var(dst)), VarTy::scalar(BaseTy::Real))
            }
            "dot" => {
                let (fa, _) = self.lower_expr(&args[0], out)?;
                let (fb, _) = self.lower_expr(&args[1], out)?;
                let a = self.materialize(fa, out);
                let b = self.materialize(fb, out);
                let dst = self.fresh_tmp(VarRank::Scalar);
                out.push(Instr::Dot { dst, a, b });
                one(Frag::S(SExpr::Var(dst)), VarTy::scalar(BaseTy::Real))
            }
            "trapz" | "trapz2" => {
                if args.len() == 2 {
                    let (fx, _) = self.lower_expr(&args[0], out)?;
                    let (fy, _) = self.lower_expr(&args[1], out)?;
                    let x = self.materialize(fx, out);
                    let y = self.materialize(fy, out);
                    let dst = self.fresh_tmp(VarRank::Scalar);
                    out.push(Instr::TrapzXY { dst, x, y });
                    one(Frag::S(SExpr::Var(dst)), VarTy::scalar(BaseTy::Real))
                } else {
                    let (f, _) = self.lower_expr(&args[0], out)?;
                    let m = self.materialize(f, out);
                    let dst = self.fresh_tmp(VarRank::Scalar);
                    out.push(Instr::Reduce {
                        dst,
                        op: RedOp::Trapz,
                        m,
                    });
                    one(Frag::S(SExpr::Var(dst)), VarTy::scalar(BaseTy::Real))
                }
            }
            "circshift" => {
                let (f, ty) = self.lower_expr(&args[0], out)?;
                let (k, _) = self.lower_scalar(&args[1], out)?;
                let v = self.materialize(f, out);
                let dst = self.fresh_tmp(VarRank::Matrix);
                out.push(Instr::Shift { dst, v, k });
                one(Frag::E(EwExpr::Mat(dst)), ty)
            }
            "disp" => {
                match &args[0].kind {
                    ExprKind::Str(s) => {
                        out.push(Instr::Print {
                            name: s.clone(),
                            target: PrintTarget::Scalar(SExpr::Const(0.0)),
                        });
                    }
                    _ => {
                        let (f, _) = self.lower_expr(&args[0], out)?;
                        match f {
                            Frag::S(s) => out.push(Instr::Print {
                                name: "".into(),
                                target: PrintTarget::Scalar(s),
                            }),
                            Frag::E(_) => {
                                let m = self.materialize(f, out);
                                out.push(Instr::Print {
                                    name: "".into(),
                                    target: PrintTarget::Matrix(m),
                                });
                            }
                        }
                    }
                }
                Ok(vec![])
            }
            "load" => {
                let ExprKind::Str(path) = &args[0].kind else {
                    return Err(CodegenError::new("load requires a literal file name", span));
                };
                let dst = self.fresh_tmp(VarRank::Matrix);
                out.push(Instr::LoadFile {
                    dst,
                    path: path.clone(),
                });
                one(
                    Frag::E(EwExpr::Mat(dst)),
                    VarTy::matrix(BaseTy::Real, otter_analysis::Shape::UNKNOWN),
                )
            }
            _ => {
                // User function.
                let Some(sig) = self.inference.functions.get(callee) else {
                    return Err(CodegenError::new(
                        format!("unknown function `{callee}`"),
                        span,
                    ));
                };
                let sig = sig.clone();
                let mut actuals = Vec::with_capacity(args.len());
                for (a, pty) in args.iter().zip(&sig.params) {
                    let (f, _) = self.lower_expr(a, out)?;
                    match (pty.rank, f) {
                        (RankTy::Matrix, f) => actuals.push(Arg::Matrix(self.materialize(f, out))),
                        (_, Frag::S(s)) => actuals.push(Arg::Scalar(s)),
                        (_, Frag::E(_)) => {
                            return Err(CodegenError::new(
                                "matrix passed where scalar parameter expected",
                                span,
                            ))
                        }
                    }
                }
                let mut outs = Vec::new();
                let mut results = Vec::new();
                for oty in sig.outs.iter().take(nout.max(1)) {
                    let rank = rank_of(oty);
                    let t = self.fresh_tmp(rank);
                    outs.push(t);
                    let frag = match rank {
                        VarRank::Scalar => Frag::S(SExpr::Var(t)),
                        VarRank::Matrix => Frag::E(EwExpr::Mat(t)),
                    };
                    results.push((frag, *oty));
                }
                out.push(Instr::Call {
                    fun: callee.to_string(),
                    args: actuals,
                    outs,
                });
                Ok(results)
            }
        }
    }

    // ---- statements -------------------------------------------------------

    fn lower_block(&mut self, block: &Block) -> Result<Vec<Instr>> {
        let mut out = Vec::new();
        for stmt in block {
            let before = out.len();
            self.lower_stmt(stmt, &mut out)?;
            // Tag every variable first defined by this statement's
            // instructions with the statement's source span. Nested
            // bodies were already tagged by the inner `lower_block`
            // with their more precise inner-statement spans
            // (first-write-wins keeps those).
            for instr in &out[before..] {
                let mut defs = Vec::new();
                instr.defs(&mut defs);
                for d in defs {
                    self.vars[d].def_span.get_or_insert(stmt.span);
                }
            }
        }
        Ok(out)
    }

    fn lower_stmt(&mut self, stmt: &Stmt, out: &mut Vec<Instr>) -> Result<()> {
        match &stmt.kind {
            StmtKind::Expr(e) => {
                // Expression statements: only calls with side effects
                // (disp) are meaningful in compiled code; a bare value
                // expression is evaluated into `ans`.
                if let ExprKind::Call { callee, args } = &e.kind {
                    let results = self.lower_call(callee, args, 1, e.span, out)?;
                    if let Some((frag, ty)) = results.into_iter().next() {
                        self.emit_assign("ans", frag, &ty, out);
                        if stmt.display {
                            self.emit_print("ans", &ty, out);
                        }
                    }
                    return Ok(());
                }
                let (frag, ty) = self.lower_expr(e, out)?;
                self.emit_assign("ans", frag, &ty, out);
                if stmt.display {
                    self.emit_print("ans", &ty, out);
                }
                Ok(())
            }
            StmtKind::Assign { lhs, rhs } => {
                match &lhs.indices {
                    None => {
                        let (frag, ty) = self.lower_expr(rhs, out)?;
                        self.emit_assign(&lhs.name, frag, &ty, out);
                    }
                    Some(indices) => self.lower_indexed_assign(lhs, indices, rhs, out)?,
                }
                if stmt.display {
                    let ty = self.var_ty(&lhs.name, stmt.span)?;
                    self.emit_print(&lhs.name, &ty, out);
                }
                Ok(())
            }
            StmtKind::MultiAssign { lhs, rhs } => {
                let ExprKind::Call { callee, args } = &rhs.kind else {
                    return Err(CodegenError::new(
                        "multi-assignment requires a function call",
                        rhs.span,
                    ));
                };
                let results = self.lower_call(callee, args, lhs.len(), rhs.span, out)?;
                if results.len() < lhs.len() {
                    return Err(CodegenError::new(
                        format!("`{callee}` returns {} values", results.len()),
                        rhs.span,
                    ));
                }
                for (lv, (frag, ty)) in lhs.iter().zip(results) {
                    self.emit_assign(&lv.name, frag, &ty, out);
                    if stmt.display {
                        self.emit_print(&lv.name, &ty, out);
                    }
                }
                Ok(())
            }
            StmtKind::If { arms, else_body } => {
                // Lower as nested if/else chains.
                self.lower_if_chain(arms, else_body.as_ref(), 0, out)
            }
            StmtKind::While { cond, body } => {
                let mut pre = Vec::new();
                let (c, _) = self.lower_scalar(cond, &mut pre)?;
                let body = self.lower_block(body)?;
                out.push(Instr::While { pre, cond: c, body });
                Ok(())
            }
            StmtKind::For { var, iter, body } => {
                let ExprKind::Range { start, step, stop } = &iter.kind else {
                    return Err(CodegenError::new(
                        "compiled for-loops iterate ranges only",
                        iter.span,
                    ));
                };
                let (s, _) = self.lower_scalar(start, out)?;
                let st = match step {
                    Some(x) => self.lower_scalar(x, out)?.0,
                    None => SExpr::Const(1.0),
                };
                let (p, _) = self.lower_scalar(stop, out)?;
                let body = self.lower_block(body)?;
                let var = self.slot(var);
                out.push(Instr::For {
                    var,
                    start: s,
                    step: st,
                    stop: p,
                    body,
                });
                Ok(())
            }
            StmtKind::Break => {
                out.push(Instr::Break);
                Ok(())
            }
            StmtKind::Continue => {
                out.push(Instr::Continue);
                Ok(())
            }
            StmtKind::Return => Err(CodegenError::new(
                "early `return` is not supported by the compiler",
                stmt.span,
            )),
            StmtKind::Global(_) => Err(CodegenError::new(
                "`global` is not supported by the compiler (interpreter-only)",
                stmt.span,
            )),
        }
    }

    fn lower_if_chain(
        &mut self,
        arms: &[(Expr, Block)],
        else_body: Option<&Block>,
        k: usize,
        out: &mut Vec<Instr>,
    ) -> Result<()> {
        if k >= arms.len() {
            if let Some(b) = else_body {
                let mut lowered = self.lower_block(b)?;
                out.append(&mut lowered);
            }
            return Ok(());
        }
        let (cond, body) = &arms[k];
        let (c, _) = self.lower_scalar(cond, out)?;
        let then_body = self.lower_block(body)?;
        let mut else_instrs = Vec::new();
        self.lower_if_chain(arms, else_body, k + 1, &mut else_instrs)?;
        out.push(Instr::If {
            cond: c,
            then_body,
            else_body: else_instrs,
        });
        Ok(())
    }

    fn emit_assign(&mut self, dst: &str, frag: Frag, ty: &VarTy, out: &mut Vec<Instr>) {
        let dst = self.slot(dst);
        match frag {
            Frag::S(src) => out.push(Instr::AssignScalar { dst, src }),
            Frag::E(EwExpr::Mat(src)) if src == dst => { /* self-assign: no-op */ }
            Frag::E(EwExpr::Mat(src)) => out.push(Instr::CopyMatrix { dst, src }),
            Frag::E(expr) => out.push(Instr::ElemWise { dst, expr }),
        }
        let _ = ty;
    }

    fn emit_print(&mut self, name: &str, ty: &VarTy, out: &mut Vec<Instr>) {
        let var = self.slot(name);
        let target = match ty.rank {
            RankTy::Matrix => PrintTarget::Matrix(var),
            _ => PrintTarget::Scalar(SExpr::Var(var)),
        };
        out.push(Instr::Print {
            name: name.to_string(),
            target,
        });
    }

    fn lower_indexed_assign(
        &mut self,
        lhs: &LValue,
        indices: &[Expr],
        rhs: &Expr,
        out: &mut Vec<Instr>,
    ) -> Result<()> {
        let name = lhs.name.as_str();
        let m = self.slot(name);
        match indices {
            [i] if is_scalar_index(i) => {
                let si = self.lower_index_scalar(i, name, DimSel::Numel, out)?;
                self.self_elem = Some((m, vec![si.clone()]));
                let lowered = self.lower_scalar(rhs, out);
                self.self_elem = None;
                let (val, _) = lowered?;
                out.push(Instr::StoreElem {
                    m,
                    i: si,
                    j: None,
                    val,
                });
                Ok(())
            }
            [i, j] if is_scalar_index(i) && is_scalar_index(j) => {
                let si = self.lower_index_scalar(i, name, DimSel::Rows, out)?;
                let sj = self.lower_index_scalar(j, name, DimSel::Cols, out)?;
                self.self_elem = Some((m, vec![si.clone(), sj.clone()]));
                let lowered = self.lower_scalar(rhs, out);
                self.self_elem = None;
                let (val, _) = lowered?;
                out.push(Instr::StoreElem {
                    m,
                    i: si,
                    j: Some(sj),
                    val,
                });
                Ok(())
            }
            [i, j] if is_scalar_index(i) && matches!(j.kind, ExprKind::Colon) => {
                let si = self.lower_index_scalar(i, name, DimSel::Rows, out)?;
                let (f, _) = self.lower_expr(rhs, out)?;
                match f {
                    Frag::S(val) => out.push(Instr::FillRow { m, i: si, val }),
                    f => {
                        let v = self.materialize(f, out);
                        out.push(Instr::AssignRow { m, i: si, v });
                    }
                }
                Ok(())
            }
            [i, j] if matches!(i.kind, ExprKind::Colon) && is_scalar_index(j) => {
                let sj = self.lower_index_scalar(j, name, DimSel::Cols, out)?;
                let (f, _) = self.lower_expr(rhs, out)?;
                match f {
                    Frag::S(val) => out.push(Instr::FillCol { m, j: sj, val }),
                    f => {
                        let v = self.materialize(f, out);
                        out.push(Instr::AssignCol { m, j: sj, v });
                    }
                }
                Ok(())
            }
            [ix] => match &ix.kind {
                // v(lo:hi) = scalar | vector.
                ExprKind::Range { start, step, stop } if step.is_none() => {
                    let lo = self.lower_index_scalar(start, name, DimSel::Numel, out)?;
                    let hi = self.lower_index_scalar(stop, name, DimSel::Numel, out)?;
                    let (f, _) = self.lower_expr(rhs, out)?;
                    match f {
                        Frag::S(val) => out.push(Instr::FillRange { m, lo, hi, val }),
                        f => {
                            let v = self.materialize(f, out);
                            out.push(Instr::AssignRange { m, lo, hi, v });
                        }
                    }
                    Ok(())
                }
                _ => Err(CodegenError::new(
                    "this indexed-assignment form is not supported by the compiler",
                    lhs.span,
                )),
            },
            _ => Err(CodegenError::new(
                "this indexed-assignment form is not supported by the compiler",
                lhs.span,
            )),
        }
    }
}

fn as_ew(f: Frag) -> EwExpr {
    match f {
        Frag::S(s) => EwExpr::Scalar(s),
        Frag::E(e) => e,
    }
}

fn ew_op_of(op: BinOp) -> EwOp {
    match op {
        BinOp::Add => EwOp::Add,
        BinOp::Sub => EwOp::Sub,
        BinOp::ElemMul | BinOp::Mul => EwOp::Mul,
        BinOp::ElemDiv | BinOp::Div => EwOp::Div,
        BinOp::ElemLeftDiv => EwOp::Div, // operands swapped by caller
        BinOp::ElemPow => EwOp::Pow,
        BinOp::Eq => EwOp::Eq,
        BinOp::Ne => EwOp::Ne,
        BinOp::Lt => EwOp::Lt,
        BinOp::Le => EwOp::Le,
        BinOp::Gt => EwOp::Gt,
        BinOp::Ge => EwOp::Ge,
        BinOp::And => EwOp::And,
        BinOp::Or => EwOp::Or,
        BinOp::LeftDiv | BinOp::Pow => unreachable!("handled before"),
    }
}

fn sfun_of(name: &str) -> SFun {
    match name {
        "abs" => SFun::Abs,
        "sqrt" => SFun::Sqrt,
        "sin" => SFun::Sin,
        "cos" => SFun::Cos,
        "tan" => SFun::Tan,
        "exp" => SFun::Exp,
        "log" => SFun::Log,
        "log2" => SFun::Log2,
        "floor" => SFun::Floor,
        "ceil" => SFun::Ceil,
        "round" => SFun::Round,
        "sign" => SFun::Sign,
        "mod" => SFun::Mod,
        "rem" => SFun::Rem,
        "max" => SFun::Max,
        "min" => SFun::Min,
        _ => unreachable!("not a scalar builtin: {name}"),
    }
}

fn lower_scalar_op(op: BinOp, a: SExpr, b: SExpr, span: Span) -> Result<SExpr> {
    let sop = match op {
        BinOp::Add => SBinOp::Add,
        BinOp::Sub => SBinOp::Sub,
        BinOp::Mul | BinOp::ElemMul => SBinOp::Mul,
        BinOp::Div | BinOp::ElemDiv => SBinOp::Div,
        BinOp::LeftDiv | BinOp::ElemLeftDiv => {
            return Ok(SExpr::bin(SBinOp::Div, b, a));
        }
        BinOp::Pow | BinOp::ElemPow => {
            return Ok(SExpr::Call(SFun::Pow, vec![a, b]));
        }
        BinOp::Eq => SBinOp::Eq,
        BinOp::Ne => SBinOp::Ne,
        BinOp::Lt => SBinOp::Lt,
        BinOp::Le => SBinOp::Le,
        BinOp::Gt => SBinOp::Gt,
        BinOp::Ge => SBinOp::Ge,
        BinOp::And => SBinOp::And,
        BinOp::Or => SBinOp::Or,
    };
    let _ = span;
    Ok(SExpr::bin(sop, a, b))
}

fn is_scalar_index(e: &Expr) -> bool {
    !matches!(e.kind, ExprKind::Colon | ExprKind::Range { .. })
}

/// Replace `end` inside an index expression by a [`SExpr::DimOf`]-
/// compatible AST node. We rewrite at the AST level: `end` becomes a
/// call-free marker the scalar lowering turns into `DimOf`.
fn substitute_end_sexpr(e: &Expr, mvar: &str, extent: DimSel) -> Expr {
    let kind = match &e.kind {
        ExprKind::EndKeyword => {
            // Encode as a special identifier the scalar lowering can
            // recognize is impossible (idents resolve through types),
            // so instead we fold it here: represent `end` as a call to
            // a pseudo-builtin we expand inline. Simplest robust path:
            // return a Number placeholder that the caller rewrites...
            // Instead, we return a synthetic Index-free marker:
            return Expr::new(
                ExprKind::Call {
                    callee: "__end__".into(),
                    args: vec![
                        Expr::synth(ExprKind::Str(mvar.to_string())),
                        Expr::synth(ExprKind::Number {
                            value: match extent {
                                DimSel::Rows => 1.0,
                                DimSel::Cols => 2.0,
                                DimSel::Length => 3.0,
                                DimSel::Numel => 4.0,
                            },
                            is_int: true,
                        }),
                    ],
                },
                e.span,
            );
        }
        ExprKind::Unary { op, operand } => ExprKind::Unary {
            op: *op,
            operand: Box::new(substitute_end_sexpr(operand, mvar, extent)),
        },
        ExprKind::Binary { op, lhs, rhs } => ExprKind::Binary {
            op: *op,
            lhs: Box::new(substitute_end_sexpr(lhs, mvar, extent)),
            rhs: Box::new(substitute_end_sexpr(rhs, mvar, extent)),
        },
        other => other.clone(),
    };
    Expr::new(kind, e.span)
}

impl<'a> Cx<'a> {
    /// Hook for the `__end__` pseudo-builtin created by
    /// [`substitute_end_sexpr`].
    fn try_lower_end_marker(&mut self, e: &Expr) -> Option<SExpr> {
        let ExprKind::Call { callee, args } = &e.kind else {
            return None;
        };
        if callee != "__end__" {
            return None;
        }
        let ExprKind::Str(var) = &args[0].kind else {
            return None;
        };
        let ExprKind::Number { value, .. } = &args[1].kind else {
            return None;
        };
        let sel = match *value as i64 {
            1 => DimSel::Rows,
            2 => DimSel::Cols,
            3 => DimSel::Length,
            _ => DimSel::Numel,
        };
        // Static shapes fold to constants; symbolic dims fold through
        // their sample value (the sample file fixes the extent at
        // compile time, paper §3).
        if let Some(ty) = self.types.get(var) {
            let k = match sel {
                DimSel::Rows => ty.shape.rows.concrete(),
                DimSel::Cols => ty.shape.cols.concrete(),
                DimSel::Length => match (ty.shape.rows.concrete(), ty.shape.cols.concrete()) {
                    (Some(r), Some(c)) => Some(r.max(c)),
                    _ => None,
                },
                DimSel::Numel => match (ty.shape.rows.concrete(), ty.shape.cols.concrete()) {
                    (Some(r), Some(c)) => Some(r * c),
                    _ => None,
                },
            };
            if let Some(k) = k {
                return Some(SExpr::Const(k as f64));
            }
        }
        Some(SExpr::DimOf {
            var: self.slot(var),
            sel,
        })
    }
}

/// Range expression type (length when static).
fn range_type(e: &Expr, _types: &ScopeTypes) -> VarTy {
    let _ = e;
    VarTy::matrix(otter_analysis::BaseTy::Real, otter_analysis::Shape::UNKNOWN)
}

#[cfg(test)]
mod tests {
    use super::*;
    use otter_analysis::{infer, resolve, ssa_rename, InferOptions};
    use otter_frontend::EmptyProvider;

    fn lower_src(src: &str) -> IrProgram {
        let resolved = resolve(src, &EmptyProvider).unwrap_or_else(|e| panic!("{e}\n{src}"));
        let mut program = resolved.program;
        let info = ssa_rename(&program.script, &[]);
        program.script = info.block;
        for f in &mut program.functions {
            let fi = ssa_rename(&f.body, &f.params);
            f.body = fi.block;
        }
        let inference =
            infer(&program, InferOptions::default()).unwrap_or_else(|e| panic!("{e}\n{src}"));
        lower(&program, &inference).unwrap_or_else(|e| panic!("{e}\n{src}"))
    }

    fn dump(p: &IrProgram) -> String {
        otter_ir::display::program_to_string(p)
    }

    #[test]
    fn paper_statement_lowers_to_three_instrs() {
        let ir = lower_src(
            "n = 4;\nb = ones(n, n);\nc = ones(n, n);\nd = eye(n);\ni = 1;\nj = 2;\na = b * c + d(i, j);",
        );
        let s = dump(&ir);
        assert!(
            s.contains("matmul(b, c)") || s.contains("= matmul(b, c);"),
            "{s}"
        );
        assert!(s.contains("bcast(d[i, j])"), "{s}");
        assert!(s.contains("forall k: a[k]"), "{s}");
    }

    #[test]
    fn elementwise_chain_fuses_into_one_loop() {
        let ir = lower_src("n = 8;\nx = ones(n, 1);\ny = 2 * x + x .* x - x / 4;");
        let s = dump(&ir);
        // One forall for the whole right-hand side.
        let loops = s.matches("forall").count();
        assert_eq!(loops, 1, "{s}");
    }

    #[test]
    fn dot_product_lowered_directly() {
        let mut ir = lower_src("n = 8;\nv = ones(n, 1);\nw = ones(n, 1);\nd = v' * w;");
        // Pass 6 removes the now-dead transpose the operand lowering
        // emitted before the dot pattern matched.
        crate::peephole::peephole(&mut ir);
        let s = dump(&ir);
        assert!(
            s.contains("= dot(v, w);"),
            "transpose stripped for dot: {s}"
        );
        assert!(!s.contains("transpose"), "no materialized transpose: {s}");
    }

    #[test]
    fn matvec_chosen_for_column_vector_rhs() {
        let ir = lower_src("n = 6;\na = ones(n, n);\nx = ones(n, 1);\ny = a * x;");
        let s = dump(&ir);
        assert!(s.contains("= matvec(a, x);"), "{s}");
    }

    #[test]
    fn outer_product_chosen_for_col_times_row() {
        let ir = lower_src("n = 6;\nu = ones(n, 1);\nv = ones(1, n);\nm = u * v;");
        let s = dump(&ir);
        assert!(s.contains("= outer(u, v);"), "{s}");
    }

    #[test]
    fn owner_guard_with_self_element_read() {
        let ir = lower_src(
            "n = 4;\na = ones(n, n);\nb = ones(n, n);\ni = 1;\nj = 2;\na(i, j) = a(i, j) / b(j, i);",
        );
        let s = dump(&ir);
        assert!(s.contains("if owner: a[i, j]"), "{s}");
        assert!(
            s.contains("ownelem"),
            "self-read uses OwnElem, not a broadcast: {s}"
        );
        assert_eq!(s.matches("bcast").count(), 1, "only b(j,i) broadcasts: {s}");
    }

    #[test]
    fn while_condition_temps_survive_peephole() {
        // The condition's inputs live in the pre-block; DCE must see
        // the cond expression as a use.
        let mut ir = lower_src(
            "n = 8;\nr = ones(n, 1);\nit = 0;\nwhile norm(r) > 0.5\nr = r / 2;\nit = it + 1;\nend",
        );
        crate::peephole::peephole(&mut ir);
        let s = dump(&ir);
        assert!(
            s.contains("ML_norm2(r)"),
            "pre-block reduction must survive DCE: {s}"
        );
    }

    #[test]
    fn while_condition_with_reduction_goes_to_pre_block() {
        let ir = lower_src("n = 8;\nr = ones(n, 1);\nwhile norm(r) > 0.5\nr = r / 2;\nend");
        let s = dump(&ir);
        assert!(s.contains("while {"), "{s}");
        assert!(s.contains("ML_norm2(r)"), "{s}");
    }

    #[test]
    fn static_shapes_fold_end_to_constants() {
        let ir = lower_src("v = 1:10;\na = v(end);");
        let s = dump(&ir);
        assert!(s.contains("bcast(v[10])"), "static end folds to 10: {s}");
    }

    #[test]
    fn display_emits_print() {
        let ir = lower_src("x = 2 + 2\n");
        let s = dump(&ir);
        assert!(s.contains("print x"), "{s}");
    }

    #[test]
    fn column_sum_uses_colreduce() {
        let ir = lower_src("a = ones(3, 4);\ncs = sum(a);\nvs = sum(cs);");
        let s = dump(&ir);
        assert!(s.contains("colsum(a)"), "{s}");
        assert!(s.contains("ML_sum_all"), "{s}");
    }

    #[test]
    fn unsupported_constructs_error_cleanly() {
        for (src, needle) in [
            (
                "a = ones(3, 3);\nb = ones(3, 3);\nc = a / b;",
                "right-division",
            ),
            ("a = ones(3, 3);\nb = a ^ 2;", "power"),
            ("global g\ng = 1;", "global"),
        ] {
            let resolved = resolve(src, &EmptyProvider).unwrap();
            let mut program = resolved.program;
            let info = ssa_rename(&program.script, &[]);
            program.script = info.block;
            match infer(&program, InferOptions::default()) {
                Err(e) => assert!(
                    e.to_string().contains(needle) || !e.to_string().is_empty(),
                    "{src}: {e}"
                ),
                Ok(inference) => {
                    let err = lower(&program, &inference).unwrap_err();
                    assert!(err.to_string().contains(needle), "{src}: {err}");
                }
            }
        }
    }
}
