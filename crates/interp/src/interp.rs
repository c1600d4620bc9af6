//! The tree-walking interpreter — the repo's stand-in for The
//! MathWorks' MATLAB interpreter (the baseline all of the paper's
//! figures normalize against).
//!
//! Characteristic costs are modeled, not merely incidental: each
//! statement pays a dispatch charge, each vector operation pays a
//! dynamic-dispatch + temporary-allocation charge, and element work is
//! multiplied by the interpreter overhead factor
//! ([`otter_machine::ExecutionStyle::Interpreter`]). The real
//! computation is also performed, so interpreter results serve as the
//! correctness oracle for the compiled SPMD pipeline.

use crate::error::{InterpError, Result};
use crate::meter::CostMeter;
use crate::value::Value;
use otter_det::DetRng;
use otter_frontend::ast::*;
use otter_frontend::Span;
use otter_machine::{ExecutionStyle, OpClass};
use otter_rt::Dense;
use std::collections::HashMap;
use std::path::PathBuf;

/// Why a block stopped executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    Normal,
    Break,
    Continue,
    Return,
}

/// One lexical scope of variables.
type Env = HashMap<String, Value>;

/// Interpreter state for one program run.
pub struct Interp {
    /// The program being run (script + reachable functions).
    program: Program,
    /// Call stack of scopes; `scopes[0]` is the script workspace.
    scopes: Vec<Env>,
    /// Names declared `global` in the current scope chain, per scope.
    global_decls: Vec<Vec<String>>,
    /// The global workspace.
    globals: Env,
    /// Cost accounting.
    pub meter: CostMeter,
    /// Captured display output (what MATLAB would echo).
    pub output: String,
    /// RNG for the `rand` builtin; seeded for reproducibility.
    pub(crate) rng: DetRng,
    /// Directory `load` resolves data files against.
    pub data_dir: Option<PathBuf>,
    /// Guard against runaway recursion.
    depth: usize,
    /// High-water mark of named workspace bytes (excludes transient
    /// expression temporaries, like MATLAB's own workspace view).
    pub peak_workspace_bytes: usize,
    /// Optional per-statement trace sink and the scale from meter
    /// units to modeled seconds (the machine's per-flop time).
    trace: Option<(std::sync::Arc<dyn otter_trace::TraceSink>, f64)>,
}

const MAX_DEPTH: usize = 256;

/// Stable lowercase statement label for trace events.
fn stmt_kind_name(kind: &StmtKind) -> &'static str {
    match kind {
        StmtKind::Expr(_) => "expr",
        StmtKind::Assign { .. } => "assign",
        StmtKind::MultiAssign { .. } => "multi-assign",
        StmtKind::If { .. } => "if",
        StmtKind::While { .. } => "while",
        StmtKind::For { .. } => "for",
        StmtKind::Break => "break",
        StmtKind::Continue => "continue",
        StmtKind::Return => "return",
        StmtKind::Global(_) => "global",
    }
}

impl Interp {
    /// Interpreter for `program`, metered with interpreter-style costs.
    pub fn new(program: Program) -> Self {
        Self::with_style(program, ExecutionStyle::Interpreter)
    }

    /// Interpreter with explicit cost style (the MATCOM baseline runs
    /// the same evaluator with compiled-code coefficients).
    pub fn with_style(program: Program, style: ExecutionStyle) -> Self {
        Interp {
            program,
            scopes: vec![Env::new()],
            global_decls: vec![Vec::new()],
            globals: Env::new(),
            meter: CostMeter::new(style),
            output: String::new(),
            rng: DetRng::seed_from_u64(0x07732),
            data_dir: None,
            depth: 0,
            peak_workspace_bytes: 0,
            trace: None,
        }
    }

    /// Record one `Statement` trace event per executed statement into
    /// `sink`, timed in modeled seconds: meter units scaled by
    /// `seconds_per_unit` (the target machine's per-flop time). The
    /// interpreter is sequential, so events carry rank 0.
    pub fn set_trace(
        &mut self,
        sink: std::sync::Arc<dyn otter_trace::TraceSink>,
        seconds_per_unit: f64,
    ) {
        self.trace = Some((sink, seconds_per_unit));
    }

    /// Run the script to completion; returns the final workspace.
    pub fn run(&mut self) -> Result<()> {
        let script = std::mem::take(&mut self.program.script);
        let flow = self.exec_block(&script)?;
        self.program.script = script;
        debug_assert!(matches!(flow, Flow::Normal | Flow::Return));
        Ok(())
    }

    /// Snapshot of the script-level workspace (scope 0).
    pub fn workspace(&self) -> std::collections::HashMap<String, Value> {
        self.scopes[0].clone()
    }

    /// Look up a variable in the current scope (or globals if
    /// declared).
    pub fn get_var(&self, name: &str) -> Option<&Value> {
        if self.global_decls.last().unwrap().iter().any(|g| g == name) {
            return self.globals.get(name);
        }
        self.scopes.last().unwrap().get(name)
    }

    fn set_var(&mut self, name: &str, v: Value) {
        if self.global_decls.last().unwrap().iter().any(|g| g == name) {
            self.globals.insert(name.to_string(), v);
        } else {
            self.scopes.last_mut().unwrap().insert(name.to_string(), v);
        }
    }

    // ---- statements -----------------------------------------------------

    /// Execute a block, returning how it finished.
    pub fn exec_block(&mut self, block: &Block) -> Result<Flow> {
        for stmt in block {
            match self.exec_stmt(stmt)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, stmt: &Stmt) -> Result<Flow> {
        let Some((sink, scale)) = self.trace.clone() else {
            return self.exec_stmt_inner(stmt);
        };
        let before = self.meter.units();
        let flow = self.exec_stmt_inner(stmt)?;
        sink.record(otter_trace::TraceEvent {
            rank: 0,
            t_start: before * scale,
            t_end: self.meter.units() * scale,
            kind: otter_trace::EventKind::Statement {
                name: stmt_kind_name(&stmt.kind),
            },
        });
        Ok(flow)
    }

    fn exec_stmt_inner(&mut self, stmt: &Stmt) -> Result<Flow> {
        self.meter.statement();
        let live: usize = self
            .scopes
            .iter()
            .flat_map(|env| env.values())
            .chain(self.globals.values())
            .map(|v| v.numel() * std::mem::size_of::<f64>())
            .sum();
        self.peak_workspace_bytes = self.peak_workspace_bytes.max(live);
        match &stmt.kind {
            StmtKind::Expr(e) => {
                // Void function calls (`disp(x);`) produce no value and
                // must not touch `ans`.
                if let ExprKind::Call { callee, args } = &e.kind {
                    if self.get_var(callee).is_none() {
                        let mut vals = self.call_multi(callee, args, 1, e.span)?;
                        if !vals.is_empty() {
                            let v = vals.remove(0);
                            if stmt.display {
                                self.display("ans", &v);
                            }
                            self.set_var("ans", v);
                        }
                        return Ok(Flow::Normal);
                    }
                }
                let v = self.eval(e)?;
                if stmt.display {
                    self.display("ans", &v);
                }
                self.set_var("ans", v);
                Ok(Flow::Normal)
            }
            StmtKind::Assign { lhs, rhs } => {
                let v = self.eval(rhs)?;
                self.assign(lhs, v, stmt.display)?;
                Ok(Flow::Normal)
            }
            StmtKind::MultiAssign { lhs, rhs } => {
                let ExprKind::Call { callee, args } = &rhs.kind else {
                    return Err(InterpError::new(
                        "multi-assignment right-hand side must be a function call",
                        rhs.span,
                    ));
                };
                let vals = self.call_multi(callee, args, lhs.len(), rhs.span)?;
                if vals.len() < lhs.len() {
                    return Err(InterpError::new(
                        format!(
                            "function `{callee}` returned {} values, {} requested",
                            vals.len(),
                            lhs.len()
                        ),
                        rhs.span,
                    ));
                }
                for (lv, v) in lhs.iter().zip(vals) {
                    self.assign(lv, v, stmt.display)?;
                }
                Ok(Flow::Normal)
            }
            StmtKind::If { arms, else_body } => {
                for (cond, body) in arms {
                    let c = self.eval(cond)?;
                    self.meter.op(OpClass::Add, 1); // condition test
                    if c.is_true() {
                        return self.exec_block(body);
                    }
                }
                if let Some(body) = else_body {
                    return self.exec_block(body);
                }
                Ok(Flow::Normal)
            }
            StmtKind::While { cond, body } => {
                loop {
                    let c = self.eval(cond)?;
                    self.meter.op(OpClass::Add, 1);
                    if !c.is_true() {
                        break;
                    }
                    match self.exec_block(body)? {
                        Flow::Break => break,
                        Flow::Return => return Ok(Flow::Return),
                        Flow::Normal | Flow::Continue => {}
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::For { var, iter, body } => {
                let iter_v = self.eval(iter)?;
                let values: Vec<f64> = match &iter_v {
                    Value::Scalar(v) => vec![*v],
                    Value::Matrix(m) if m.is_vector() => m.data().to_vec(),
                    Value::Matrix(_) => {
                        return Err(InterpError::new(
                            "for-loop over matrix columns is not supported; iterate a vector",
                            iter.span,
                        ))
                    }
                    Value::Str(_) => {
                        return Err(InterpError::new("cannot iterate a string", iter.span))
                    }
                };
                for v in values {
                    self.set_var(var, Value::Scalar(v));
                    match self.exec_block(body)? {
                        Flow::Break => break,
                        Flow::Return => return Ok(Flow::Return),
                        Flow::Normal | Flow::Continue => {}
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::Break => Ok(Flow::Break),
            StmtKind::Continue => Ok(Flow::Continue),
            StmtKind::Return => Ok(Flow::Return),
            StmtKind::Global(names) => {
                for n in names {
                    self.global_decls.last_mut().unwrap().push(n.clone());
                    self.globals.entry(n.clone()).or_insert(Value::Scalar(0.0));
                }
                Ok(Flow::Normal)
            }
        }
    }

    fn display(&mut self, name: &str, v: &Value) {
        use std::fmt::Write;
        let _ = writeln!(self.output, "{name} =");
        let _ = writeln!(self.output, "{v}");
    }

    // ---- assignment --------------------------------------------------------

    fn assign(&mut self, lv: &LValue, v: Value, display: bool) -> Result<()> {
        match &lv.indices {
            None => {
                if display {
                    self.display(&lv.name, &v);
                }
                self.set_var(&lv.name, v.normalized());
            }
            Some(indices) => {
                self.indexed_assign(lv, indices, v)?;
                if display {
                    let shown = self.get_var(&lv.name).cloned().unwrap();
                    self.display(&lv.name, &shown);
                }
            }
        }
        Ok(())
    }

    fn indexed_assign(&mut self, lv: &LValue, indices: &[Expr], v: Value) -> Result<()> {
        let existing = self.get_var(&lv.name).cloned();
        let mut target = match existing {
            Some(val) => val
                .to_matrix()
                .ok_or_else(|| InterpError::new("cannot index into a string", lv.span))?,
            None => Dense::zeros(0, 0),
        };
        let (rows, cols) = (target.rows(), target.cols());
        let idx = self.eval_indices(indices, rows, cols, target.len(), lv.span)?;
        self.meter.op(OpClass::Add, v.numel());
        match (&idx[..], indices.len()) {
            ([rowsel], 1) => {
                // Linear indexing / vector indexing.
                let sel = rowsel.clone();
                let vv = value_elements(&v);
                if vv.len() != sel.len() && vv.len() != 1 {
                    return Err(InterpError::new(
                        format!("size mismatch: {} indices, {} values", sel.len(), vv.len()),
                        lv.span,
                    ));
                }
                // Grow a vector if needed.
                let need = sel.iter().copied().max().map(|m| m + 1).unwrap_or(0);
                target = grow_linear(target, need);
                for (n, &k) in sel.iter().enumerate() {
                    let val = if vv.len() == 1 { vv[0] } else { vv[n] };
                    target.set_linear(k, val);
                }
            }
            ([rsel, csel], 2) => {
                let (rsel, csel) = (rsel.clone(), csel.clone());
                let need_r = rsel.iter().copied().max().map(|m| m + 1).unwrap_or(0);
                let need_c = csel.iter().copied().max().map(|m| m + 1).unwrap_or(0);
                target = grow_2d(target, need_r, need_c);
                let vm = v
                    .to_matrix()
                    .ok_or_else(|| InterpError::new("cannot store a string element", lv.span))?;
                let scalar_fill = vm.is_scalar();
                if !scalar_fill && (vm.rows() != rsel.len() || vm.cols() != csel.len()) {
                    return Err(InterpError::new(
                        format!(
                            "size mismatch: target {}x{}, value {}x{}",
                            rsel.len(),
                            csel.len(),
                            vm.rows(),
                            vm.cols()
                        ),
                        lv.span,
                    ));
                }
                for (oi, &i) in rsel.iter().enumerate() {
                    for (oj, &j) in csel.iter().enumerate() {
                        let val = if scalar_fill {
                            vm.get(0, 0)
                        } else {
                            vm.get(oi, oj)
                        };
                        target.set(i, j, val);
                    }
                }
            }
            _ => {
                return Err(InterpError::new(
                    format!("{}-dimensional indexing is not supported", indices.len()),
                    lv.span,
                ))
            }
        }
        self.set_var(&lv.name, Value::Matrix(target).normalized());
        Ok(())
    }

    // ---- expressions ---------------------------------------------------------

    /// Evaluate one expression.
    pub fn eval(&mut self, e: &Expr) -> Result<Value> {
        match &e.kind {
            ExprKind::Number { value, .. } => Ok(Value::Scalar(*value)),
            ExprKind::Str(s) => Ok(Value::Str(s.clone())),
            ExprKind::Ident(name) => self.eval_ident(name, e.span),
            ExprKind::Range { start, step, stop } => {
                let s = self.scalar_of(start)?;
                let st = match step {
                    Some(x) => self.scalar_of(x)?,
                    None => 1.0,
                };
                let e_ = self.scalar_of(stop)?;
                if st == 0.0 {
                    return Err(InterpError::new("range step must be nonzero", e.span));
                }
                let r = Dense::range(s, st, e_);
                self.meter.op(OpClass::Add, r.len());
                Ok(Value::Matrix(r).normalized())
            }
            ExprKind::Colon => Err(InterpError::new("`:` outside an index", e.span)),
            ExprKind::EndKeyword => Err(InterpError::new("`end` outside an index", e.span)),
            ExprKind::Unary { op, operand } => {
                let v = self.eval(operand)?;
                self.apply_unary(*op, v, e.span)
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let a = self.eval(lhs)?;
                let b = self.eval(rhs)?;
                self.apply_binary(*op, a, b, e.span)
            }
            ExprKind::Transpose { operand, .. } => {
                // Real data: conjugate and plain transpose coincide.
                let v = self.eval(operand)?;
                match v {
                    Value::Scalar(s) => Ok(Value::Scalar(s)),
                    Value::Matrix(m) => {
                        self.meter.op(OpClass::Add, m.len());
                        Ok(Value::Matrix(m.transpose()))
                    }
                    Value::Str(_) => Err(InterpError::new("cannot transpose a string", e.span)),
                }
            }
            ExprKind::Index { base, args } => {
                let v = self.get_var(base).cloned().ok_or_else(|| {
                    InterpError::new(format!("undefined variable `{base}`"), e.span)
                })?;
                self.index_value(&v, args, e.span)
            }
            ExprKind::Call { callee, args } => {
                // Variables shadow functions, as in MATLAB.
                if let Some(v) = self.get_var(callee).cloned() {
                    return self.index_value(&v, args, e.span);
                }
                let mut vals = self.call_multi(callee, args, 1, e.span)?;
                if vals.is_empty() {
                    return Err(InterpError::new(
                        format!("`{callee}` returned nothing"),
                        e.span,
                    ));
                }
                Ok(vals.remove(0))
            }
            ExprKind::Matrix(rows) => self.eval_matrix_literal(rows, e.span),
        }
    }

    fn eval_ident(&mut self, name: &str, span: Span) -> Result<Value> {
        if let Some(v) = self.get_var(name) {
            return Ok(v.clone());
        }
        // Built-in constants and zero-argument calls.
        match name {
            "pi" => return Ok(Value::Scalar(std::f64::consts::PI)),
            "eps" => return Ok(Value::Scalar(f64::EPSILON)),
            "Inf" | "inf" => return Ok(Value::Scalar(f64::INFINITY)),
            "NaN" | "nan" => return Ok(Value::Scalar(f64::NAN)),
            _ => {}
        }
        let mut vals = self.call_multi(name, &[], 1, span)?;
        if vals.is_empty() {
            return Err(InterpError::new(format!("`{name}` returned nothing"), span));
        }
        Ok(vals.remove(0))
    }

    fn scalar_of(&mut self, e: &Expr) -> Result<f64> {
        let v = self.eval(e)?;
        v.as_scalar().ok_or_else(|| {
            InterpError::new(format!("expected a scalar, got {}", v.type_name()), e.span)
        })
    }

    fn apply_unary(&mut self, op: UnOp, v: Value, span: Span) -> Result<Value> {
        let f: fn(f64) -> f64 = match op {
            UnOp::Neg => |x| -x,
            UnOp::Plus => |x| x,
            UnOp::Not => |x| if x == 0.0 { 1.0 } else { 0.0 },
        };
        match v {
            Value::Scalar(s) => {
                self.meter.op(OpClass::Add, 1);
                Ok(Value::Scalar(f(s)))
            }
            Value::Matrix(m) => {
                self.meter.op(OpClass::Add, m.len());
                Ok(Value::Matrix(m.map(f)))
            }
            Value::Str(_) => Err(InterpError::new("cannot negate a string", span)),
        }
    }

    /// Apply a binary operator with MATLAB's scalar-broadcast rules.
    pub fn apply_binary(&mut self, op: BinOp, a: Value, b: Value, span: Span) -> Result<Value> {
        use BinOp::*;
        // Matrix multiply / divide / power need special handling; all
        // the rest are element-wise with broadcast.
        match op {
            Mul => return self.matrix_mul(a, b, span),
            Div => return self.matrix_div(a, b, span),
            LeftDiv => return self.matrix_leftdiv(a, b, span),
            Pow => return self.matrix_pow(a, b, span),
            _ => {}
        }
        let class = op_class(op);
        let f = op_fn(op);
        match (a, b) {
            (Value::Scalar(x), Value::Scalar(y)) => {
                self.meter.op(class, 1);
                Ok(Value::Scalar(f(x, y)))
            }
            (Value::Scalar(x), Value::Matrix(m)) => {
                self.meter.op(class, m.len());
                Ok(Value::Matrix(m.map(|y| f(x, y))))
            }
            (Value::Matrix(m), Value::Scalar(y)) => {
                self.meter.op(class, m.len());
                Ok(Value::Matrix(m.map(|x| f(x, y))))
            }
            (Value::Matrix(ma), Value::Matrix(mb)) => {
                if ma.rows() != mb.rows() || ma.cols() != mb.cols() {
                    return Err(InterpError::new(
                        format!(
                            "shape mismatch: {}x{} {} {}x{}",
                            ma.rows(),
                            ma.cols(),
                            op.symbol(),
                            mb.rows(),
                            mb.cols()
                        ),
                        span,
                    ));
                }
                self.meter.op(class, ma.len());
                Ok(Value::Matrix(ma.zip(&mb, f)))
            }
            (a, b) => Err(InterpError::new(
                format!(
                    "cannot apply `{}` to {} and {}",
                    op.symbol(),
                    a.type_name(),
                    b.type_name()
                ),
                span,
            )),
        }
    }

    fn matrix_mul(&mut self, a: Value, b: Value, span: Span) -> Result<Value> {
        match (a, b) {
            (Value::Scalar(x), Value::Scalar(y)) => {
                self.meter.op(OpClass::Mul, 1);
                Ok(Value::Scalar(x * y))
            }
            (Value::Scalar(x), Value::Matrix(m)) | (Value::Matrix(m), Value::Scalar(x)) => {
                self.meter.op(OpClass::Mul, m.len());
                Ok(Value::Matrix(m.map(|v| v * x)))
            }
            (Value::Matrix(ma), Value::Matrix(mb)) => {
                if ma.cols() != mb.rows() {
                    return Err(InterpError::new(
                        format!(
                            "inner dimensions disagree: {}x{} * {}x{}",
                            ma.rows(),
                            ma.cols(),
                            mb.rows(),
                            mb.cols()
                        ),
                        span,
                    ));
                }
                // O(n²) products (a vector operand) stream memory
                // once; true matmuls are the O(n³) cache-hostile case.
                let units = 2.0 * ma.rows() as f64 * ma.cols() as f64 * mb.cols() as f64;
                if ma.is_vector() || mb.is_vector() {
                    self.meter.raw_matvec(units);
                } else {
                    self.meter.raw(units);
                }
                Ok(Value::Matrix(ma.matmul(&mb)).normalized())
            }
            (a, b) => Err(InterpError::new(
                format!("cannot multiply {} by {}", a.type_name(), b.type_name()),
                span,
            )),
        }
    }

    fn matrix_div(&mut self, a: Value, b: Value, span: Span) -> Result<Value> {
        match (&a, &b) {
            (_, Value::Scalar(y)) => {
                let class = OpClass::Div;
                match a {
                    Value::Scalar(x) => {
                        self.meter.op(class, 1);
                        Ok(Value::Scalar(x / y))
                    }
                    Value::Matrix(m) => {
                        self.meter.op(class, m.len());
                        let y = *y;
                        Ok(Value::Matrix(m.map(|x| x / y)))
                    }
                    Value::Str(_) => Err(InterpError::new("cannot divide a string", span)),
                }
            }
            _ => Err(InterpError::new(
                "matrix right-division `/` is only supported with a scalar divisor",
                span,
            )),
        }
    }

    fn matrix_leftdiv(&mut self, a: Value, b: Value, span: Span) -> Result<Value> {
        match (a, b) {
            (Value::Scalar(x), Value::Scalar(y)) => {
                self.meter.op(OpClass::Div, 1);
                Ok(Value::Scalar(y / x))
            }
            (Value::Scalar(x), Value::Matrix(m)) => {
                self.meter.op(OpClass::Div, m.len());
                Ok(Value::Matrix(m.map(|v| v / x)))
            }
            (Value::Matrix(a), Value::Matrix(b)) => {
                // Dense Gaussian elimination with partial pivoting:
                // x = a \ b.
                if a.rows() != a.cols() {
                    return Err(InterpError::new("`\\` needs a square matrix", span));
                }
                if a.rows() != b.rows() {
                    return Err(InterpError::new("`\\` dimension mismatch", span));
                }
                let n = a.rows() as f64;
                self.meter
                    .raw(2.0 / 3.0 * n * n * n + 2.0 * n * n * b.cols() as f64);
                solve_dense(&a, &b)
                    .map(|x| Value::Matrix(x).normalized())
                    .map_err(|m| InterpError::new(m, span))
            }
            (a, b) => Err(InterpError::new(
                format!("cannot solve {} \\ {}", a.type_name(), b.type_name()),
                span,
            )),
        }
    }

    fn matrix_pow(&mut self, a: Value, b: Value, span: Span) -> Result<Value> {
        match (a, b) {
            (Value::Scalar(x), Value::Scalar(y)) => {
                self.meter.op(OpClass::Transcendental, 1);
                Ok(Value::Scalar(x.powf(y)))
            }
            (Value::Matrix(m), Value::Scalar(y)) => {
                if m.rows() != m.cols() {
                    return Err(InterpError::new("matrix power needs a square matrix", span));
                }
                if y.fract() != 0.0 || y < 0.0 {
                    return Err(InterpError::new(
                        "matrix power supports nonnegative integer exponents only",
                        span,
                    ));
                }
                let mut acc = Dense::eye(m.rows());
                let k = y as u64;
                self.meter.raw(2.0 * (m.rows() as f64).powi(3) * k as f64);
                for _ in 0..k {
                    acc = acc.matmul(&m);
                }
                Ok(Value::Matrix(acc))
            }
            (a, b) => Err(InterpError::new(
                format!("cannot raise {} to {}", a.type_name(), b.type_name()),
                span,
            )),
        }
    }

    // ---- indexing ------------------------------------------------------------

    /// Resolve index argument expressions to 0-based selections.
    /// `indices.len()` decides linear (1) vs 2-D (2) indexing.
    fn eval_indices(
        &mut self,
        indices: &[Expr],
        rows: usize,
        cols: usize,
        numel: usize,
        span: Span,
    ) -> Result<Vec<Vec<usize>>> {
        let mut out = Vec::with_capacity(indices.len());
        for (pos, arg) in indices.iter().enumerate() {
            let extent = if indices.len() == 1 {
                numel
            } else if pos == 0 {
                rows
            } else {
                cols
            };
            out.push(self.eval_one_index(arg, extent, span)?);
        }
        Ok(out)
    }

    fn eval_one_index(&mut self, arg: &Expr, extent: usize, span: Span) -> Result<Vec<usize>> {
        match &arg.kind {
            ExprKind::Colon => Ok((0..extent).collect()),
            _ => {
                let v = self.eval_with_end(arg, extent)?;
                let raw: Vec<f64> = value_elements(&v);
                let mut out = Vec::with_capacity(raw.len());
                for x in raw {
                    if x < 1.0 || x.fract() != 0.0 {
                        return Err(InterpError::new(
                            format!("index {x} is not a positive integer"),
                            span,
                        ));
                    }
                    out.push(x as usize - 1);
                }
                Ok(out)
            }
        }
    }

    /// Evaluate an index expression with `end` bound to `extent`.
    fn eval_with_end(&mut self, e: &Expr, extent: usize) -> Result<Value> {
        // Substitute `end` nodes by the extent, then evaluate. Cheap
        // clone: index expressions are tiny.
        let replaced = substitute_end(e, extent as f64);
        self.eval(&replaced)
    }

    fn index_value(&mut self, v: &Value, args: &[Expr], span: Span) -> Result<Value> {
        let m = v
            .to_matrix()
            .ok_or_else(|| InterpError::new("cannot index into a string", span))?;
        let idx = self.eval_indices(args, m.rows(), m.cols(), m.len(), span)?;
        self.meter
            .op(OpClass::Add, idx.iter().map(|s| s.len().max(1)).product());
        match (&idx[..], args.len()) {
            ([sel], 1) => {
                for &k in sel {
                    if k >= m.len() {
                        return Err(InterpError::new(
                            format!("index {} out of bounds ({} elements)", k + 1, m.len()),
                            span,
                        ));
                    }
                }
                let vals: Vec<f64> = sel.iter().map(|&k| m.get_linear(k)).collect();
                if vals.len() == 1 {
                    Ok(Value::Scalar(vals[0]))
                } else if m.rows() > 1 && m.cols() == 1 {
                    Ok(Value::Matrix(Dense::col_vector(&vals)))
                } else {
                    Ok(Value::Matrix(Dense::row_vector(&vals)))
                }
            }
            ([rsel, csel], 2) => {
                for &i in rsel {
                    if i >= m.rows() {
                        return Err(InterpError::new(
                            format!("row index {} out of bounds ({} rows)", i + 1, m.rows()),
                            span,
                        ));
                    }
                }
                for &j in csel {
                    if j >= m.cols() {
                        return Err(InterpError::new(
                            format!(
                                "column index {} out of bounds ({} columns)",
                                j + 1,
                                m.cols()
                            ),
                            span,
                        ));
                    }
                }
                Ok(Value::Matrix(m.submatrix(rsel, csel)).normalized())
            }
            _ => Err(InterpError::new(
                format!("{}-dimensional indexing is not supported", args.len()),
                span,
            )),
        }
    }

    // ---- calls ----------------------------------------------------------------

    /// Call a function (builtin or user M-file) expecting up to
    /// `nout` results.
    pub fn call_multi(
        &mut self,
        name: &str,
        args: &[Expr],
        nout: usize,
        span: Span,
    ) -> Result<Vec<Value>> {
        // Argument values are evaluated in the caller's scope.
        let mut argv = Vec::with_capacity(args.len());
        for a in args {
            argv.push(self.eval(a)?);
        }
        if let Some(result) = self.call_builtin(name, &argv, nout, span)? {
            return Ok(result);
        }
        let Some(func) = self.program.function(name).cloned() else {
            return Err(InterpError::new(
                format!("undefined function `{name}`"),
                span,
            ));
        };
        if argv.len() > func.params.len() {
            return Err(InterpError::new(
                format!(
                    "`{name}` takes {} arguments, {} given",
                    func.params.len(),
                    argv.len()
                ),
                span,
            ));
        }
        if self.depth >= MAX_DEPTH {
            return Err(InterpError::new("recursion limit exceeded", span));
        }
        self.depth += 1;
        let mut env = Env::new();
        for (p, v) in func.params.iter().zip(argv) {
            env.insert(p.clone(), v);
        }
        self.scopes.push(env);
        self.global_decls.push(Vec::new());
        let flow = self.exec_block(&func.body);
        let env = self.scopes.pop().unwrap();
        self.global_decls.pop();
        self.depth -= 1;
        flow?;
        let mut out = Vec::new();
        for o in func.outs.iter().take(nout.max(1)) {
            let v = env.get(o).cloned().ok_or_else(|| {
                InterpError::new(format!("output `{o}` of `{name}` was never assigned"), span)
            })?;
            out.push(v);
        }
        Ok(out)
    }

    fn eval_matrix_literal(&mut self, rows: &[Vec<Expr>], span: Span) -> Result<Value> {
        if rows.is_empty() {
            return Ok(Value::Matrix(Dense::from_vec(0, 0, vec![])));
        }
        let mut row_mats: Vec<Dense> = Vec::with_capacity(rows.len());
        for row in rows {
            let mut acc: Option<Dense> = None;
            for cell in row {
                let v = self.eval(cell)?;
                let m = v
                    .to_matrix()
                    .ok_or_else(|| InterpError::new("strings in matrix literals", span))?;
                acc = Some(match acc {
                    None => m,
                    Some(a) => {
                        if a.rows() != m.rows() {
                            return Err(InterpError::new(
                                "matrix literal rows have inconsistent heights",
                                span,
                            ));
                        }
                        a.hcat(&m)
                    }
                });
            }
            row_mats.push(acc.unwrap());
        }
        let mut acc = row_mats.remove(0);
        for m in row_mats {
            if acc.cols() != m.cols() {
                return Err(InterpError::new(
                    "matrix literal rows have inconsistent widths",
                    span,
                ));
            }
            acc = acc.vcat(&m);
        }
        self.meter.op(OpClass::Add, acc.len());
        Ok(Value::Matrix(acc).normalized())
    }
}

// ---- helpers ------------------------------------------------------------------

/// Elements of a value as a flat vector (column-major for matrices).
fn value_elements(v: &Value) -> Vec<f64> {
    match v {
        Value::Scalar(s) => vec![*s],
        Value::Matrix(m) => (0..m.len()).map(|k| m.get_linear(k)).collect(),
        Value::Str(_) => vec![],
    }
}

/// Replace `end` nodes with a literal extent.
fn substitute_end(e: &Expr, extent: f64) -> Expr {
    let kind = match &e.kind {
        ExprKind::EndKeyword => ExprKind::Number {
            value: extent,
            is_int: true,
        },
        ExprKind::Unary { op, operand } => ExprKind::Unary {
            op: *op,
            operand: Box::new(substitute_end(operand, extent)),
        },
        ExprKind::Binary { op, lhs, rhs } => ExprKind::Binary {
            op: *op,
            lhs: Box::new(substitute_end(lhs, extent)),
            rhs: Box::new(substitute_end(rhs, extent)),
        },
        ExprKind::Range { start, step, stop } => ExprKind::Range {
            start: Box::new(substitute_end(start, extent)),
            step: step.as_ref().map(|s| Box::new(substitute_end(s, extent))),
            stop: Box::new(substitute_end(stop, extent)),
        },
        other => other.clone(),
    };
    Expr::new(kind, e.span)
}

/// Grow a matrix treated as a vector to at least `need` elements.
fn grow_linear(m: Dense, need: usize) -> Dense {
    if need <= m.len() && !m.is_empty() {
        return m;
    }
    if m.is_empty() {
        return Dense::row_vector(&vec![0.0; need]);
    }
    if m.rows() == 1 {
        let mut d = m.into_data();
        d.resize(need.max(d.len()), 0.0);
        let n = d.len();
        Dense::from_vec(1, n, d)
    } else if m.cols() == 1 {
        let mut d = m.into_data();
        d.resize(need.max(d.len()), 0.0);
        let n = d.len();
        Dense::from_vec(n, 1, d)
    } else {
        // Linear store into a full matrix must stay in bounds.
        assert!(need <= m.len(), "cannot grow a matrix by linear indexing");
        m
    }
}

/// Grow a matrix to at least `need_r × need_c`.
fn grow_2d(m: Dense, need_r: usize, need_c: usize) -> Dense {
    let (r, c) = (m.rows().max(need_r), m.cols().max(need_c));
    if r == m.rows() && c == m.cols() {
        return m;
    }
    let mut out = Dense::zeros(r, c);
    for i in 0..m.rows() {
        for j in 0..m.cols() {
            out.set(i, j, m.get(i, j));
        }
    }
    out
}

/// Dense `a \ b` by Gaussian elimination with partial pivoting.
fn solve_dense(a: &Dense, b: &Dense) -> std::result::Result<Dense, String> {
    let n = a.rows();
    let mut aug = a.clone();
    let mut x = b.clone();
    for col in 0..n {
        // Pivot.
        let (piv, maxv) =
            (col..n)
                .map(|i| (i, aug.get(i, col).abs()))
                .fold(
                    (col, -1.0),
                    |best, cur| if cur.1 > best.1 { cur } else { best },
                );
        if maxv < 1e-300 {
            return Err("matrix is singular to working precision".into());
        }
        if piv != col {
            for j in 0..n {
                let t = aug.get(col, j);
                aug.set(col, j, aug.get(piv, j));
                aug.set(piv, j, t);
            }
            for j in 0..x.cols() {
                let t = x.get(col, j);
                x.set(col, j, x.get(piv, j));
                x.set(piv, j, t);
            }
        }
        let d = aug.get(col, col);
        for i in col + 1..n {
            let f = aug.get(i, col) / d;
            if f == 0.0 {
                continue;
            }
            for j in col..n {
                let v = aug.get(i, j) - f * aug.get(col, j);
                aug.set(i, j, v);
            }
            for j in 0..x.cols() {
                let v = x.get(i, j) - f * x.get(col, j);
                x.set(i, j, v);
            }
        }
    }
    // Back substitution.
    for col in (0..n).rev() {
        let d = aug.get(col, col);
        for j in 0..x.cols() {
            let mut s = x.get(col, j);
            for k in col + 1..n {
                s -= aug.get(col, k) * x.get(k, j);
            }
            x.set(col, j, s / d);
        }
    }
    Ok(x)
}

/// Operator → cost class.
fn op_class(op: BinOp) -> OpClass {
    match op {
        BinOp::ElemDiv | BinOp::ElemLeftDiv => OpClass::Div,
        BinOp::ElemPow => OpClass::Transcendental,
        BinOp::ElemMul => OpClass::Mul,
        _ => OpClass::Add,
    }
}

/// Operator → scalar function (element-wise semantics).
fn op_fn(op: BinOp) -> fn(f64, f64) -> f64 {
    match op {
        BinOp::Add => |a, b| a + b,
        BinOp::Sub => |a, b| a - b,
        BinOp::ElemMul => |a, b| a * b,
        BinOp::ElemDiv => |a, b| a / b,
        BinOp::ElemLeftDiv => |a, b| b / a,
        BinOp::ElemPow => |a, b| a.powf(b),
        BinOp::Eq => |a, b| f64::from(a == b),
        BinOp::Ne => |a, b| f64::from(a != b),
        BinOp::Lt => |a, b| f64::from(a < b),
        BinOp::Le => |a, b| f64::from(a <= b),
        BinOp::Gt => |a, b| f64::from(a > b),
        BinOp::Ge => |a, b| f64::from(a >= b),
        BinOp::And => |a, b| f64::from(a != 0.0 && b != 0.0),
        BinOp::Or => |a, b| f64::from(a != 0.0 || b != 0.0),
        BinOp::Mul | BinOp::Div | BinOp::LeftDiv | BinOp::Pow => {
            unreachable!("matrix operators handled separately")
        }
    }
}
