//! IR node definitions.

use crate::names::is_temp;
use otter_analysis::Shape;
use otter_frontend::Span;
use std::collections::{BTreeMap, BTreeSet};

/// Scalar builtin functions usable inside replicated scalar
/// expressions (pure C library calls in the emitted code).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SFun {
    Sqrt,
    Abs,
    Sin,
    Cos,
    Tan,
    Exp,
    Log,
    Log2,
    Floor,
    Ceil,
    Round,
    Sign,
    Pow,
    Mod,
    Rem,
    Max,
    Min,
}

impl SFun {
    /// Number of arguments.
    pub fn arity(self) -> usize {
        match self {
            SFun::Pow | SFun::Mod | SFun::Rem | SFun::Max | SFun::Min => 2,
            _ => 1,
        }
    }

    /// The C expression spelling, as the emitter prints it.
    pub fn c_name(self) -> &'static str {
        match self {
            SFun::Sqrt => "sqrt",
            SFun::Abs => "fabs",
            SFun::Sin => "sin",
            SFun::Cos => "cos",
            SFun::Tan => "tan",
            SFun::Exp => "exp",
            SFun::Log => "log",
            SFun::Log2 => "log2",
            SFun::Floor => "floor",
            SFun::Ceil => "ceil",
            SFun::Round => "round",
            SFun::Sign => "ML_sign",
            SFun::Pow => "pow",
            SFun::Mod => "ML_mod",
            SFun::Rem => "fmod",
            SFun::Max => "ML_max",
            SFun::Min => "ML_min",
        }
    }

    /// Evaluate on doubles (the executor's semantics; `ML_mod` is
    /// MATLAB's sign-following `mod`).
    #[inline]
    pub fn eval(self, args: &[f64]) -> f64 {
        match self {
            SFun::Sqrt => args[0].sqrt(),
            SFun::Abs => args[0].abs(),
            SFun::Sin => args[0].sin(),
            SFun::Cos => args[0].cos(),
            SFun::Tan => args[0].tan(),
            SFun::Exp => args[0].exp(),
            SFun::Log => args[0].ln(),
            SFun::Log2 => args[0].log2(),
            SFun::Floor => args[0].floor(),
            SFun::Ceil => args[0].ceil(),
            SFun::Round => args[0].round(),
            SFun::Sign => args[0].signum(),
            SFun::Pow => args[0].powf(args[1]),
            SFun::Mod => args[0].rem_euclid(args[1]),
            SFun::Rem => args[0] % args[1],
            SFun::Max => args[0].max(args[1]),
            SFun::Min => args[0].min(args[1]),
        }
    }
}

/// Scalar binary operators (replicated arithmetic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SBinOp {
    Add,
    Sub,
    Mul,
    Div,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

impl SBinOp {
    pub fn c_symbol(self) -> &'static str {
        match self {
            SBinOp::Add => "+",
            SBinOp::Sub => "-",
            SBinOp::Mul => "*",
            SBinOp::Div => "/",
            SBinOp::Eq => "==",
            SBinOp::Ne => "!=",
            SBinOp::Lt => "<",
            SBinOp::Le => "<=",
            SBinOp::Gt => ">",
            SBinOp::Ge => ">=",
            SBinOp::And => "&&",
            SBinOp::Or => "||",
        }
    }

    pub fn eval(self, a: f64, b: f64) -> f64 {
        match self {
            SBinOp::Add => a + b,
            SBinOp::Sub => a - b,
            SBinOp::Mul => a * b,
            SBinOp::Div => a / b,
            SBinOp::Eq => f64::from(a == b),
            SBinOp::Ne => f64::from(a != b),
            SBinOp::Lt => f64::from(a < b),
            SBinOp::Le => f64::from(a <= b),
            SBinOp::Gt => f64::from(a > b),
            SBinOp::Ge => f64::from(a >= b),
            SBinOp::And => f64::from(a != 0.0 && b != 0.0),
            SBinOp::Or => f64::from(a != 0.0 || b != 0.0),
        }
    }
}

/// Replicated scalar expression — every rank computes the same value
/// redundantly (paper §3 assumption 1: "scalar variables are
/// replicated across the set of processors").
///
/// `V` names a variable: a source-level name in the compiler's IR, a
/// frame slot in the executor's plan (see [`SExpr::map_vars`]).
#[derive(Debug, Clone, PartialEq)]
pub enum SExpr<V = String> {
    Const(f64),
    /// Scalar variable reference.
    Var(V),
    /// Run-time dimension of a matrix variable (`m->rows` /
    /// `m->cols` / local-free `numel` in the emitted C). Lowered from
    /// `size`/`length`/`numel`/`end` when the shape is not static.
    DimOf {
        var: V,
        sel: DimSel,
    },
    /// The element being stored by the enclosing
    /// [`Instr::StoreElem`] — the paper's
    /// `*ML_realaddr2(a, i-1, j-1)` read inside the owner guard.
    /// Valid only inside `StoreElem::val`.
    OwnElem,
    Neg(Box<SExpr<V>>),
    Not(Box<SExpr<V>>),
    Bin(SBinOp, Box<SExpr<V>>, Box<SExpr<V>>),
    Call(SFun, Vec<SExpr<V>>),
}

/// Which dimension [`SExpr::DimOf`] reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DimSel {
    Rows,
    Cols,
    /// `max(rows, cols)` — MATLAB `length`.
    Length,
    /// `rows * cols` — MATLAB `numel` and linear `end`.
    Numel,
}

impl SExpr {
    pub fn var(name: impl Into<String>) -> SExpr {
        SExpr::Var(name.into())
    }

    pub fn c(v: f64) -> SExpr {
        SExpr::Const(v)
    }

    pub fn bin(op: SBinOp, a: SExpr, b: SExpr) -> SExpr {
        SExpr::Bin(op, Box::new(a), Box::new(b))
    }

    /// Free scalar-variable names referenced.
    pub fn vars(&self, out: &mut Vec<String>) {
        match self {
            SExpr::Const(_) => {}
            SExpr::DimOf { .. } | SExpr::OwnElem => {}
            SExpr::Var(v) => out.push(v.clone()),
            SExpr::Neg(e) | SExpr::Not(e) => e.vars(out),
            SExpr::Bin(_, a, b) => {
                a.vars(out);
                b.vars(out);
            }
            SExpr::Call(_, args) => {
                for a in args {
                    a.vars(out);
                }
            }
        }
    }
}

impl<V> SExpr<V> {
    /// This expression with every variable `v` renamed to `f(v)`.
    pub fn map_vars<W>(&self, f: &mut impl FnMut(&V) -> W) -> SExpr<W> {
        match self {
            SExpr::Const(c) => SExpr::Const(*c),
            SExpr::Var(v) => SExpr::Var(f(v)),
            SExpr::DimOf { var, sel } => SExpr::DimOf {
                var: f(var),
                sel: *sel,
            },
            SExpr::OwnElem => SExpr::OwnElem,
            SExpr::Neg(e) => SExpr::Neg(Box::new(e.map_vars(f))),
            SExpr::Not(e) => SExpr::Not(Box::new(e.map_vars(f))),
            SExpr::Bin(op, a, b) => {
                SExpr::Bin(*op, Box::new(a.map_vars(f)), Box::new(b.map_vars(f)))
            }
            SExpr::Call(g, args) => SExpr::Call(*g, args.iter().map(|a| a.map_vars(f)).collect()),
        }
    }
}

/// Element-wise operators within a fused loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EwOp {
    Add,
    Sub,
    Mul,
    Div,
    Pow,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

impl EwOp {
    #[inline]
    pub fn eval(self, a: f64, b: f64) -> f64 {
        match self {
            EwOp::Add => a + b,
            EwOp::Sub => a - b,
            EwOp::Mul => a * b,
            EwOp::Div => a / b,
            EwOp::Pow => a.powf(b),
            EwOp::Eq => f64::from(a == b),
            EwOp::Ne => f64::from(a != b),
            EwOp::Lt => f64::from(a < b),
            EwOp::Le => f64::from(a <= b),
            EwOp::Gt => f64::from(a > b),
            EwOp::Ge => f64::from(a >= b),
            EwOp::And => f64::from(a != 0.0 && b != 0.0),
            EwOp::Or => f64::from(a != 0.0 || b != 0.0),
        }
    }

    /// C spelling for the emitted per-element loop body (`Pow` prints
    /// as a `pow()` call instead).
    pub fn c_symbol(self) -> &'static str {
        match self {
            EwOp::Add => "+",
            EwOp::Sub => "-",
            EwOp::Mul => "*",
            EwOp::Div => "/",
            EwOp::Pow => "pow",
            EwOp::Eq => "==",
            EwOp::Ne => "!=",
            EwOp::Lt => "<",
            EwOp::Le => "<=",
            EwOp::Gt => ">",
            EwOp::Ge => ">=",
            EwOp::And => "&&",
            EwOp::Or => "||",
        }
    }
}

/// Element-wise expression tree over *aligned* distributed operands
/// and replicated scalars. Compiles to one fused per-element loop —
/// the `for (ML_tmp3 = ...)` loop of the paper's §3 example.
#[derive(Debug, Clone, PartialEq)]
pub enum EwExpr<V = String> {
    /// A distributed matrix operand (must be aligned with the
    /// destination).
    Mat(V),
    /// A replicated scalar value.
    Scalar(SExpr<V>),
    Neg(Box<EwExpr<V>>),
    Not(Box<EwExpr<V>>),
    Bin(EwOp, Box<EwExpr<V>>, Box<EwExpr<V>>),
    /// Element-wise scalar function application.
    Call(SFun, Vec<EwExpr<V>>),
    /// Fusion rule F5: the element of a matrix the loop generates
    /// instead of reading. `tmp` names the temporary the producer used
    /// to write, so the C emitter can re-expand it. The generator is
    /// boxed so that this leaf does not double the size of every node.
    Gen {
        tmp: V,
        gen: Box<Generator<V>>,
    },
}

/// A matrix defined element by element, which a fused loop generates
/// lane by lane (see [`EwExpr::Gen`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Generator<V = String> {
    /// `u * v'` of two vectors, as [`Instr::Outer`] computes it.
    Outer { u: V, v: V },
    /// `eye(n)`, as [`MatInit::Eye`] builds it.
    Eye { n: SExpr<V> },
}

impl<V> Generator<V> {
    pub fn map_vars<W>(&self, f: &mut impl FnMut(&V) -> W) -> Generator<W> {
        match self {
            Generator::Outer { u, v } => Generator::Outer { u: f(u), v: f(v) },
            Generator::Eye { n } => Generator::Eye { n: n.map_vars(f) },
        }
    }
}

impl Generator {
    /// The producer of `tmp` this generator was fused from: the
    /// instruction the C emitter re-expands and the lint models read.
    pub fn producer(&self, tmp: &str) -> Instr {
        let dst = tmp.to_string();
        match self {
            Generator::Outer { u, v } => Instr::Outer {
                dst,
                u: u.clone(),
                v: v.clone(),
            },
            Generator::Eye { n } => Instr::InitMatrix {
                dst,
                init: MatInit::Eye { n: n.clone() },
            },
        }
    }

    /// The generator of a producer `tmp = outer(u, v)` or
    /// `tmp = eye(n)`, if `i` is one.
    pub fn of(i: &Instr) -> Option<Generator> {
        match i {
            Instr::Outer { u, v, .. } => Some(Generator::Outer {
                u: u.clone(),
                v: v.clone(),
            }),
            Instr::InitMatrix {
                init: MatInit::Eye { n },
                ..
            } => Some(Generator::Eye { n: n.clone() }),
            _ => None,
        }
    }
}

impl EwExpr {
    pub fn mat(name: impl Into<String>) -> EwExpr {
        EwExpr::Mat(name.into())
    }
}

impl<V> EwExpr<V> {
    pub fn bin(op: EwOp, a: EwExpr<V>, b: EwExpr<V>) -> EwExpr<V> {
        EwExpr::Bin(op, Box::new(a), Box::new(b))
    }

    pub fn map_vars<W>(&self, f: &mut impl FnMut(&V) -> W) -> EwExpr<W> {
        match self {
            EwExpr::Mat(m) => EwExpr::Mat(f(m)),
            EwExpr::Scalar(s) => EwExpr::Scalar(s.map_vars(f)),
            EwExpr::Neg(e) => EwExpr::Neg(Box::new(e.map_vars(f))),
            EwExpr::Not(e) => EwExpr::Not(Box::new(e.map_vars(f))),
            EwExpr::Bin(op, a, b) => EwExpr::bin(*op, a.map_vars(f), b.map_vars(f)),
            EwExpr::Call(g, args) => EwExpr::Call(*g, args.iter().map(|a| a.map_vars(f)).collect()),
            EwExpr::Gen { tmp, gen } => EwExpr::Gen {
                tmp: f(tmp),
                gen: Box::new(gen.map_vars(f)),
            },
        }
    }

    /// Matrix operands referenced by this tree (the aligned operands a
    /// loop reads; generator leaves are not among them).
    pub fn mat_operands(&self, out: &mut Vec<V>)
    where
        V: Clone,
    {
        self.leaves(&mut |e| {
            if let EwExpr::Mat(m) = e {
                out.push(m.clone());
            }
        });
    }

    /// The generator leaves of this tree, `(tmp, generator)` in
    /// reading order.
    pub fn generators(&self) -> Vec<(&V, &Generator<V>)> {
        let mut out = Vec::new();
        self.leaves(&mut |e| {
            if let EwExpr::Gen { tmp, gen } = e {
                out.push((tmp, &**gen));
            }
        });
        out
    }

    /// Visit every leaf (`Mat`, `Scalar`, `Gen`) in reading order.
    pub(crate) fn leaves<'a>(&'a self, f: &mut impl FnMut(&'a EwExpr<V>)) {
        match self {
            EwExpr::Mat(_) | EwExpr::Scalar(_) | EwExpr::Gen { .. } => f(self),
            EwExpr::Neg(e) | EwExpr::Not(e) => e.leaves(f),
            EwExpr::Bin(_, a, b) => {
                a.leaves(f);
                b.leaves(f);
            }
            EwExpr::Call(_, args) => {
                for a in args {
                    a.leaves(f);
                }
            }
        }
    }

    /// Approximate per-element flop weight of evaluating this tree —
    /// used for modeled-time charging.
    pub fn flop_weight(&self) -> f64 {
        match self {
            EwExpr::Mat(_) | EwExpr::Scalar(_) | EwExpr::Gen { .. } => 0.0,
            EwExpr::Neg(e) | EwExpr::Not(e) => 1.0 + e.flop_weight(),
            EwExpr::Bin(op, a, b) => {
                let w = match op {
                    EwOp::Div => 4.0,
                    EwOp::Pow => 16.0,
                    _ => 1.0,
                };
                w + a.flop_weight() + b.flop_weight()
            }
            EwExpr::Call(f, args) => {
                let w = match f {
                    SFun::Sqrt
                    | SFun::Abs
                    | SFun::Floor
                    | SFun::Ceil
                    | SFun::Round
                    | SFun::Sign
                    | SFun::Max
                    | SFun::Min => 4.0,
                    _ => 16.0,
                };
                w + args.iter().map(|a| a.flop_weight()).sum::<f64>()
            }
        }
    }
}

/// Whole-object reductions producing a replicated scalar: one of the
/// seven MATLAB folds over every element, or a kernel of its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RedOp {
    Fold(ColRedOp),
    Norm2,
    Trapz,
}

impl RedOp {
    pub fn c_name(self) -> &'static str {
        match self {
            RedOp::Fold(ColRedOp::Sum) => "ML_sum_all",
            RedOp::Fold(ColRedOp::Mean) => "ML_mean_all",
            RedOp::Fold(ColRedOp::Max) => "ML_max_all",
            RedOp::Fold(ColRedOp::Min) => "ML_min_all",
            RedOp::Fold(ColRedOp::Prod) => "ML_prod_all",
            RedOp::Fold(ColRedOp::Any) => "ML_any_all",
            RedOp::Fold(ColRedOp::All) => "ML_all_all",
            RedOp::Norm2 => "ML_norm2",
            RedOp::Trapz => "ML_trapz",
        }
    }
}

/// Matrix constructors computed without communication.
#[derive(Debug, Clone, PartialEq)]
pub enum MatInit<V = String> {
    Zeros {
        rows: SExpr<V>,
        cols: SExpr<V>,
    },
    Ones {
        rows: SExpr<V>,
        cols: SExpr<V>,
    },
    Eye {
        n: SExpr<V>,
    },
    /// Seeded uniform random matrix; the seed keeps interpreter and
    /// compiled runs comparable.
    Rand {
        rows: SExpr<V>,
        cols: SExpr<V>,
    },
    Range {
        start: SExpr<V>,
        step: SExpr<V>,
        stop: SExpr<V>,
    },
    /// Literal `[a, b; c, d]` of replicated scalar expressions.
    Literal {
        rows: Vec<Vec<SExpr<V>>>,
    },
    /// Row vector of `n` points from `a` to `b` inclusive.
    Linspace {
        a: SExpr<V>,
        b: SExpr<V>,
        n: SExpr<V>,
    },
}

impl<V> MatInit<V> {
    pub fn map_vars<W>(&self, f: &mut impl FnMut(&V) -> W) -> MatInit<W> {
        match self {
            MatInit::Zeros { rows, cols } => MatInit::Zeros {
                rows: rows.map_vars(f),
                cols: cols.map_vars(f),
            },
            MatInit::Ones { rows, cols } => MatInit::Ones {
                rows: rows.map_vars(f),
                cols: cols.map_vars(f),
            },
            MatInit::Eye { n } => MatInit::Eye { n: n.map_vars(f) },
            MatInit::Rand { rows, cols } => MatInit::Rand {
                rows: rows.map_vars(f),
                cols: cols.map_vars(f),
            },
            MatInit::Range { start, step, stop } => MatInit::Range {
                start: start.map_vars(f),
                step: step.map_vars(f),
                stop: stop.map_vars(f),
            },
            MatInit::Literal { rows } => MatInit::Literal {
                rows: rows
                    .iter()
                    .map(|row| row.iter().map(|e| e.map_vars(f)).collect())
                    .collect(),
            },
            MatInit::Linspace { a, b, n } => MatInit::Linspace {
                a: a.map_vars(f),
                b: b.map_vars(f),
                n: n.map_vars(f),
            },
        }
    }
}

/// One SPMD instruction. Matrix operands are variable names; scalar
/// operands are replicated [`SExpr`]s. `V` names a variable, as in
/// [`SExpr`]; the strings that name no variable (a callee, a printed
/// label, a file path) stay `String`.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr<V = String> {
    // ---- replicated scalar computation ----
    /// `dst = expr;` on every rank.
    AssignScalar {
        dst: V,
        src: SExpr<V>,
    },

    // ---- constructors ----
    /// `dst = <constructor>` (no communication).
    InitMatrix {
        dst: V,
        init: MatInit<V>,
    },
    /// Copy a whole matrix variable: `dst = src`.
    CopyMatrix {
        dst: V,
        src: V,
    },
    /// Load from a data file via rank-0 + scatter.
    LoadFile {
        dst: V,
        path: String,
    },

    // ---- element-wise loop (no communication) ----
    /// `dst(k) = expr(k)` for every locally owned element.
    ElemWise {
        dst: V,
        expr: EwExpr<V>,
    },

    // ---- run-time library calls (communication-bearing) ----
    /// `ML_matrix_multiply(a, b, dst)`.
    MatMul {
        dst: V,
        a: V,
        b: V,
    },
    /// `ML_matrix_vector_multiply(a, x, dst)`.
    MatVec {
        dst: V,
        a: V,
        x: V,
    },
    /// Outer product `dst = u * v'` of two vectors.
    Outer {
        dst: V,
        u: V,
        v: V,
    },
    /// `dst = aᵀ` (all-to-all redistribution).
    Transpose {
        dst: V,
        a: V,
    },
    /// `ML_broadcast(&dst, m, i, j)` — fetch one element to a
    /// replicated scalar. Indices are 1-based MATLAB expressions; the
    /// `- 1` adjustment happens at execution/emission, exactly like
    /// the generated C in the paper.
    BroadcastElem {
        dst: V,
        m: V,
        i: SExpr<V>,
        j: Option<SExpr<V>>,
    },
    /// Owner-computes guarded element store:
    /// `if (ML_owner(m, i-1, j-1)) *ML_realaddr2(m, i-1, j-1) = val;`
    StoreElem {
        m: V,
        i: SExpr<V>,
        j: Option<SExpr<V>>,
        val: SExpr<V>,
    },
    /// Whole-object reduction to a replicated scalar.
    Reduce {
        dst: V,
        op: RedOp,
        m: V,
    },
    /// `dst = dot(a, b)` (fused multiply + sum; pass-6 peephole
    /// output).
    Dot {
        dst: V,
        a: V,
        b: V,
    },
    /// `dst = trapz(x, y)`.
    TrapzXY {
        dst: V,
        x: V,
        y: V,
    },
    /// MATLAB `sum`/`mean` of a true matrix → row vector of column
    /// aggregates.
    ColReduce {
        dst: V,
        op: ColRedOp,
        m: V,
    },
    /// A fused element-wise loop (loop-fusion pass output): the
    /// paper's per-element loop with a product it overwrites in place
    /// and/or a fold that consumes its elements as they are computed.
    /// Its meaning is [`Fused::unfused`]. Boxed, so that it does not
    /// widen every instruction.
    Fused(Box<Fused<V>>),
    /// Circular shift of a vector.
    Shift {
        dst: V,
        v: V,
        k: SExpr<V>,
    },
    /// `dst = m(i, :)` (owner broadcast).
    ExtractRow {
        dst: V,
        m: V,
        i: SExpr<V>,
    },
    /// `dst = m(:, j)` (no communication).
    ExtractCol {
        dst: V,
        m: V,
        j: SExpr<V>,
    },
    /// `m(i, :) = v` (gather to owner).
    AssignRow {
        m: V,
        i: SExpr<V>,
        v: V,
    },
    /// `m(:, j) = v` (no communication).
    AssignCol {
        m: V,
        j: SExpr<V>,
        v: V,
    },
    /// `dst = v(lo:hi)` (1-based inclusive bounds, redistribution).
    ExtractRange {
        dst: V,
        v: V,
        lo: SExpr<V>,
        hi: SExpr<V>,
    },
    /// `dst = v(lo:step:hi)` — strided gather (1-based inclusive).
    ExtractStrided {
        dst: V,
        v: V,
        lo: SExpr<V>,
        step: SExpr<V>,
        hi: SExpr<V>,
    },
    /// `m(i, :) = val` — scalar fill of a row (no communication).
    FillRow {
        m: V,
        i: SExpr<V>,
        val: SExpr<V>,
    },
    /// `m(:, j) = val` — scalar fill of a column (no communication).
    FillCol {
        m: V,
        j: SExpr<V>,
        val: SExpr<V>,
    },
    /// `v(lo:hi) = val` — scalar fill of an element range.
    FillRange {
        m: V,
        lo: SExpr<V>,
        hi: SExpr<V>,
        val: SExpr<V>,
    },
    /// `v(lo:hi) = w` — store a vector into an element range.
    AssignRange {
        m: V,
        lo: SExpr<V>,
        hi: SExpr<V>,
        v: V,
    },
    /// De-allocate a temporary's distributed storage (paper §4: "the
    /// run-time library is responsible for the allocation and
    /// de-allocation of vectors and matrices"). Inserted after the
    /// last use of each compiler temporary.
    Free {
        name: V,
    },

    // ---- control flow (replicated conditions) ----
    If {
        cond: SExpr<V>,
        then_body: Vec<Instr<V>>,
        else_body: Vec<Instr<V>>,
    },
    /// `while`: re-evaluate `pre` (instructions computing the
    /// condition's inputs, e.g. a norm reduction) then test `cond`.
    While {
        pre: Vec<Instr<V>>,
        cond: SExpr<V>,
        body: Vec<Instr<V>>,
    },
    /// Counted loop over a replicated scalar induction variable.
    For {
        var: V,
        start: SExpr<V>,
        step: SExpr<V>,
        stop: SExpr<V>,
        body: Vec<Instr<V>>,
    },
    Break,
    Continue,

    // ---- calls and I/O ----
    /// Call an IR function. `args`/`outs` pair positionally with the
    /// callee's parameters/returns.
    Call {
        fun: String,
        args: Vec<Arg<V>>,
        outs: Vec<V>,
    },
    /// Display a value (rank 0 prints).
    Print {
        name: String,
        target: PrintTarget<V>,
    },
}

/// Every opcode mnemonic, once each, in [`Instr::opcode_index`] order.
pub const OPCODES: [&str; 38] = [
    "assign-scalar",
    "init-matrix",
    "copy-matrix",
    "load-file",
    "elemwise",
    "matmul",
    "matvec",
    "outer",
    "transpose",
    "broadcast-elem",
    "store-elem",
    "reduce",
    "dot",
    "trapz",
    "matmul-ew",
    "matvec-ew",
    "reduce-ew",
    "col-reduce-ew",
    "col-reduce",
    "shift",
    "extract-row",
    "extract-col",
    "assign-row",
    "assign-col",
    "extract-range",
    "extract-strided",
    "fill-row",
    "fill-col",
    "fill-range",
    "assign-range",
    "free",
    "if",
    "while",
    "for",
    "break",
    "continue",
    "call",
    "print",
];

impl<V> Instr<V> {
    /// Stable lowercase mnemonic for this instruction — the key used
    /// by per-opcode execution counters and `EngineReport` schemas.
    pub fn opcode(&self) -> &'static str {
        OPCODES[self.opcode_index()]
    }

    /// This instruction's opcode as an index into [`OPCODES`], so a
    /// per-opcode counter can be an array slot rather than a map entry.
    pub fn opcode_index(&self) -> usize {
        match self {
            Instr::AssignScalar { .. } => 0,
            Instr::InitMatrix { .. } => 1,
            Instr::CopyMatrix { .. } => 2,
            Instr::LoadFile { .. } => 3,
            Instr::ElemWise { .. } => 4,
            Instr::MatMul { .. } => 5,
            Instr::MatVec { .. } => 6,
            Instr::Outer { .. } => 7,
            Instr::Transpose { .. } => 8,
            Instr::BroadcastElem { .. } => 9,
            Instr::StoreElem { .. } => 10,
            Instr::Reduce { .. } => 11,
            Instr::Dot { .. } => 12,
            Instr::TrapzXY { .. } => 13,
            Instr::Fused(f) => match (&f.head, &f.tail) {
                (Some(Product::MatMul { .. }), _) => 14,
                (Some(Product::MatVec { .. }), _) => 15,
                (None, Tail::Reduce { .. }) => 16,
                (None, Tail::ColReduce { .. }) => 17,
                (None, Tail::Store { .. }) => 4, // counted as `elemwise`
            },
            Instr::ColReduce { .. } => 18,
            Instr::Shift { .. } => 19,
            Instr::ExtractRow { .. } => 20,
            Instr::ExtractCol { .. } => 21,
            Instr::AssignRow { .. } => 22,
            Instr::AssignCol { .. } => 23,
            Instr::ExtractRange { .. } => 24,
            Instr::ExtractStrided { .. } => 25,
            Instr::FillRow { .. } => 26,
            Instr::FillCol { .. } => 27,
            Instr::FillRange { .. } => 28,
            Instr::AssignRange { .. } => 29,
            Instr::Free { .. } => 30,
            Instr::If { .. } => 31,
            Instr::While { .. } => 32,
            Instr::For { .. } => 33,
            Instr::Break => 34,
            Instr::Continue => 35,
            Instr::Call { .. } => 36,
            Instr::Print { .. } => 37,
        }
    }

    /// Whether this instruction lowers to a call into the `ML_*`
    /// run-time library (versus inline scalar code / control flow).
    /// Matches the C emitter: every matrix-bearing operation goes
    /// through the library; scalar assignments, control flow, function
    /// calls, and printing do not.
    pub fn is_runtime_call(&self) -> bool {
        !matches!(
            self,
            Instr::AssignScalar { .. }
                | Instr::If { .. }
                | Instr::While { .. }
                | Instr::For { .. }
                | Instr::Break
                | Instr::Continue
                | Instr::Call { .. }
                | Instr::Print { .. }
        )
    }

    /// This instruction with every variable `v` renamed to `f(v)`,
    /// nested bodies included.
    pub fn map_vars<W>(&self, f: &mut impl FnMut(&V) -> W) -> Instr<W> {
        let body = |b: &[Instr<V>], f: &mut _| b.iter().map(|i| i.map_vars(f)).collect();
        let opt = |e: &Option<SExpr<V>>, f: &mut _| e.as_ref().map(|e| e.map_vars(f));
        match self {
            Instr::AssignScalar { dst, src } => Instr::AssignScalar {
                dst: f(dst),
                src: src.map_vars(f),
            },
            Instr::InitMatrix { dst, init } => Instr::InitMatrix {
                dst: f(dst),
                init: init.map_vars(f),
            },
            Instr::CopyMatrix { dst, src } => Instr::CopyMatrix {
                dst: f(dst),
                src: f(src),
            },
            Instr::LoadFile { dst, path } => Instr::LoadFile {
                dst: f(dst),
                path: path.clone(),
            },
            Instr::ElemWise { dst, expr } => Instr::ElemWise {
                dst: f(dst),
                expr: expr.map_vars(f),
            },
            Instr::MatMul { dst, a, b } => Instr::MatMul {
                dst: f(dst),
                a: f(a),
                b: f(b),
            },
            Instr::MatVec { dst, a, x } => Instr::MatVec {
                dst: f(dst),
                a: f(a),
                x: f(x),
            },
            Instr::Outer { dst, u, v } => Instr::Outer {
                dst: f(dst),
                u: f(u),
                v: f(v),
            },
            Instr::Transpose { dst, a } => Instr::Transpose {
                dst: f(dst),
                a: f(a),
            },
            Instr::BroadcastElem { dst, m, i, j } => Instr::BroadcastElem {
                dst: f(dst),
                m: f(m),
                i: i.map_vars(f),
                j: opt(j, f),
            },
            Instr::StoreElem { m, i, j, val } => Instr::StoreElem {
                m: f(m),
                i: i.map_vars(f),
                j: opt(j, f),
                val: val.map_vars(f),
            },
            Instr::Reduce { dst, op, m } => Instr::Reduce {
                dst: f(dst),
                op: *op,
                m: f(m),
            },
            Instr::Dot { dst, a, b } => Instr::Dot {
                dst: f(dst),
                a: f(a),
                b: f(b),
            },
            Instr::TrapzXY { dst, x, y } => Instr::TrapzXY {
                dst: f(dst),
                x: f(x),
                y: f(y),
            },
            Instr::ColReduce { dst, op, m } => Instr::ColReduce {
                dst: f(dst),
                op: *op,
                m: f(m),
            },
            Instr::Fused(fused) => Instr::Fused(Box::new(fused.map_vars(f))),
            Instr::Shift { dst, v, k } => Instr::Shift {
                dst: f(dst),
                v: f(v),
                k: k.map_vars(f),
            },
            Instr::ExtractRow { dst, m, i } => Instr::ExtractRow {
                dst: f(dst),
                m: f(m),
                i: i.map_vars(f),
            },
            Instr::ExtractCol { dst, m, j } => Instr::ExtractCol {
                dst: f(dst),
                m: f(m),
                j: j.map_vars(f),
            },
            Instr::AssignRow { m, i, v } => Instr::AssignRow {
                m: f(m),
                i: i.map_vars(f),
                v: f(v),
            },
            Instr::AssignCol { m, j, v } => Instr::AssignCol {
                m: f(m),
                j: j.map_vars(f),
                v: f(v),
            },
            Instr::ExtractRange { dst, v, lo, hi } => Instr::ExtractRange {
                dst: f(dst),
                v: f(v),
                lo: lo.map_vars(f),
                hi: hi.map_vars(f),
            },
            Instr::ExtractStrided {
                dst,
                v,
                lo,
                step,
                hi,
            } => Instr::ExtractStrided {
                dst: f(dst),
                v: f(v),
                lo: lo.map_vars(f),
                step: step.map_vars(f),
                hi: hi.map_vars(f),
            },
            Instr::FillRow { m, i, val } => Instr::FillRow {
                m: f(m),
                i: i.map_vars(f),
                val: val.map_vars(f),
            },
            Instr::FillCol { m, j, val } => Instr::FillCol {
                m: f(m),
                j: j.map_vars(f),
                val: val.map_vars(f),
            },
            Instr::FillRange { m, lo, hi, val } => Instr::FillRange {
                m: f(m),
                lo: lo.map_vars(f),
                hi: hi.map_vars(f),
                val: val.map_vars(f),
            },
            Instr::AssignRange { m, lo, hi, v } => Instr::AssignRange {
                m: f(m),
                lo: lo.map_vars(f),
                hi: hi.map_vars(f),
                v: f(v),
            },
            Instr::Free { name } => Instr::Free { name: f(name) },
            Instr::If {
                cond,
                then_body,
                else_body,
            } => Instr::If {
                cond: cond.map_vars(f),
                then_body: body(then_body, f),
                else_body: body(else_body, f),
            },
            Instr::While { pre, cond, body: b } => Instr::While {
                pre: body(pre, f),
                cond: cond.map_vars(f),
                body: body(b, f),
            },
            Instr::For {
                var,
                start,
                step,
                stop,
                body: b,
            } => Instr::For {
                var: f(var),
                start: start.map_vars(f),
                step: step.map_vars(f),
                stop: stop.map_vars(f),
                body: body(b, f),
            },
            Instr::Break => Instr::Break,
            Instr::Continue => Instr::Continue,
            Instr::Call { fun, args, outs } => Instr::Call {
                fun: fun.clone(),
                args: args.iter().map(|a| a.map_vars(f)).collect(),
                outs: outs.iter().map(&mut *f).collect(),
            },
            Instr::Print { name, target } => Instr::Print {
                name: name.clone(),
                target: target.map_vars(f),
            },
        }
    }
}

/// The product at the head of a [`Fused`] loop: the buffer the loop
/// overwrites in place, so `tmp` is never stored on its own.
#[derive(Debug, Clone, PartialEq)]
pub enum Product<V = String> {
    /// `tmp = matmul(a, b)`.
    MatMul { tmp: V, a: V, b: V },
    /// `tmp = matvec(a, x)`.
    MatVec { tmp: V, a: V, x: V },
}

impl<V> Product<V> {
    /// The temporary the product used to be stored in.
    pub fn tmp(&self) -> &V {
        match self {
            Product::MatMul { tmp, .. } | Product::MatVec { tmp, .. } => tmp,
        }
    }

    pub fn map_vars<W>(&self, f: &mut impl FnMut(&V) -> W) -> Product<W> {
        match self {
            Product::MatMul { tmp, a, b } => Product::MatMul {
                tmp: f(tmp),
                a: f(a),
                b: f(b),
            },
            Product::MatVec { tmp, a, x } => Product::MatVec {
                tmp: f(tmp),
                a: f(a),
                x: f(x),
            },
        }
    }
}

impl Product {
    /// The product `i` computes, if it is a matmul or a matvec.
    pub fn of(i: &Instr) -> Option<Product> {
        match i.clone() {
            Instr::MatMul { dst: tmp, a, b } => Some(Product::MatMul { tmp, a, b }),
            Instr::MatVec { dst: tmp, a, x } => Some(Product::MatVec { tmp, a, x }),
            _ => None,
        }
    }

    /// The stand-alone instruction this head was fused from.
    pub fn producer(&self) -> Instr {
        match self.clone() {
            Product::MatMul { tmp, a, b } => Instr::MatMul { dst: tmp, a, b },
            Product::MatVec { tmp, a, x } => Instr::MatVec { dst: tmp, a, x },
        }
    }
}

/// What a [`Fused`] loop does with the element it computes.
#[derive(Debug, Clone, PartialEq)]
pub enum Tail<V = String> {
    /// Store it: `dst(k) = expr(k)`.
    Store { dst: V },
    /// Fold it into a replicated scalar, `dst = op(tmp)`.
    Reduce { dst: V, op: RedOp, tmp: V },
    /// Fold it into per-column partials, `dst = op(tmp)`.
    ColReduce { dst: V, op: ColRedOp, tmp: V },
}

impl<V> Tail<V> {
    /// The temporary a fold used to read, which the loop no longer
    /// stores.
    pub fn tmp(&self) -> Option<&V> {
        match self {
            Tail::Store { .. } => None,
            Tail::Reduce { tmp, .. } | Tail::ColReduce { tmp, .. } => Some(tmp),
        }
    }

    pub fn map_vars<W>(&self, f: &mut impl FnMut(&V) -> W) -> Tail<W> {
        match self {
            Tail::Store { dst } => Tail::Store { dst: f(dst) },
            Tail::Reduce { dst, op, tmp } => Tail::Reduce {
                dst: f(dst),
                op: *op,
                tmp: f(tmp),
            },
            Tail::ColReduce { dst, op, tmp } => Tail::ColReduce {
                dst: f(dst),
                op: *op,
                tmp: f(tmp),
            },
        }
    }
}

/// One fused element-wise loop: an optional [`Product`] head, the
/// per-element expression (`Mat(tmp)` leaves read the head's buffer),
/// and a [`Tail`]. The fields are private outside this crate, so the
/// one way to build it is [`Instr::fused`], which never builds a loop
/// with neither head nor fold: that loop is an [`Instr::ElemWise`].
///
/// Every pass except fusion and the executor reads a fused loop as
/// [`Fused::unfused`], the instruction sequence it replaced; the names
/// of the eliminated temporaries are kept for that purpose.
#[derive(Debug, Clone, PartialEq)]
pub struct Fused<V = String> {
    pub(crate) head: Option<Product<V>>,
    pub(crate) expr: EwExpr<V>,
    pub(crate) tail: Tail<V>,
}

impl<V> Fused<V> {
    pub fn head(&self) -> Option<&Product<V>> {
        self.head.as_ref()
    }

    pub fn expr(&self) -> &EwExpr<V> {
        &self.expr
    }

    pub fn tail(&self) -> &Tail<V> {
        &self.tail
    }

    pub fn map_vars<W>(&self, f: &mut impl FnMut(&V) -> W) -> Fused<W> {
        Fused {
            head: self.head.as_ref().map(|h| h.map_vars(f)),
            expr: self.expr.map_vars(f),
            tail: self.tail.map_vars(f),
        }
    }
}

impl Fused {
    /// The temporaries the loop no longer stores: the head's, then the
    /// fold's.
    pub fn temps(&self) -> impl Iterator<Item = &str> {
        let head = self.head.iter().map(|h| h.tmp().as_str());
        head.chain(self.tail.tmp().map(String::as_str))
    }

    /// The sequence this loop stands for: the head's product, the
    /// element-wise loop, the fold, and a `Free` of each eliminated
    /// compiler temporary.
    pub fn unfused(&self) -> Vec<Instr> {
        let mut seq: Vec<Instr> = self.head.iter().map(Product::producer).collect();
        let (dst, fold) = match self.tail.clone() {
            Tail::Store { dst } => (dst, None),
            Tail::Reduce { dst, op, tmp } => (tmp.clone(), Some(Instr::Reduce { dst, op, m: tmp })),
            Tail::ColReduce { dst, op, tmp } => {
                (tmp.clone(), Some(Instr::ColReduce { dst, op, m: tmp }))
            }
        };
        let expr = self.expr.clone();
        seq.push(Instr::ElemWise { dst, expr });
        seq.extend(fold);
        seq.extend(self.temps().filter(|t| is_temp(t)).map(|t| Instr::Free {
            name: t.to_string(),
        }));
        seq
    }
}

impl Instr {
    /// The loop `head; forall k: expr; tail`: an [`Instr::ElemWise`]
    /// when it has neither head nor fold, else an [`Instr::Fused`].
    pub fn fused(head: Option<Product>, expr: EwExpr, tail: Tail) -> Instr {
        match (head, tail) {
            (None, Tail::Store { dst }) => Instr::ElemWise { dst, expr },
            (head, tail) => Instr::Fused(Box::new(Fused { head, expr, tail })),
        }
    }
}

/// The seven MATLAB folds: `sum`, `mean`, `prod`, `max`, `min`, `any`
/// and `all`. A [`Instr::ColReduce`] applies one per column of a
/// matrix; a [`RedOp::Fold`] applies one to every element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColRedOp {
    Sum,
    Mean,
    Prod,
    Max,
    Min,
    Any,
    All,
}

/// An actual argument to an IR function call.
#[derive(Debug, Clone, PartialEq)]
pub enum Arg<V = String> {
    Scalar(SExpr<V>),
    Matrix(V),
}

impl<V> Arg<V> {
    pub fn map_vars<W>(&self, f: &mut impl FnMut(&V) -> W) -> Arg<W> {
        match self {
            Arg::Scalar(s) => Arg::Scalar(s.map_vars(f)),
            Arg::Matrix(m) => Arg::Matrix(f(m)),
        }
    }
}

/// What a `Print` displays.
#[derive(Debug, Clone, PartialEq)]
pub enum PrintTarget<V = String> {
    Scalar(SExpr<V>),
    Matrix(V),
}

impl<V> PrintTarget<V> {
    pub fn map_vars<W>(&self, f: &mut impl FnMut(&V) -> W) -> PrintTarget<W> {
        match self {
            PrintTarget::Scalar(s) => PrintTarget::Scalar(s.map_vars(f)),
            PrintTarget::Matrix(m) => PrintTarget::Matrix(f(m)),
        }
    }
}

/// Whether an IR variable is a replicated scalar or a distributed
/// matrix — the paper's *rank* attribute, fixed at compile time by
/// type inference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VarRank {
    Scalar,
    Matrix,
}

/// A compiled function: parameters, returns, body.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IrFunction {
    pub name: String,
    pub params: Vec<(String, VarRank)>,
    pub outs: Vec<(String, VarRank)>,
    pub body: Vec<Instr>,
    /// Rank of every local variable (for emitter declarations).
    pub var_ranks: BTreeMap<String, VarRank>,
    /// Source span of each local's first definition — carried for
    /// diagnostics (the lint pass anchors its warnings here). Absent
    /// entries mean "no usable location".
    pub def_spans: BTreeMap<String, Span>,
    /// Static (possibly symbolic) shape of each named local, from
    /// pass-3 inference. Metadata for the static analyses; execution
    /// and C emission never read it.
    pub var_shapes: BTreeMap<String, Shape>,
    /// Known constant value of each scalar local (pass-3 constant
    /// propagation). Metadata only.
    pub var_consts: BTreeMap<String, f64>,
    /// Locals proven safe to update in place (no live SSA sibling
    /// overlaps a write) — the legality fact fusion/copy-elision
    /// passes will consume. Filled by the analyze pass; metadata only.
    pub in_place: BTreeSet<String>,
}

/// A whole compiled program.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IrProgram {
    /// Script body.
    pub main: Vec<Instr>,
    /// Compiled M-file functions, by name (deterministic order).
    pub functions: BTreeMap<String, IrFunction>,
    /// Rank of every script-level variable (for the emitter's
    /// declarations and the executor's environment).
    pub var_ranks: BTreeMap<String, VarRank>,
    /// Source span of each script variable's first definition, for
    /// diagnostics. Purely metadata: execution and C emission never
    /// read it.
    pub def_spans: BTreeMap<String, Span>,
    /// Static (possibly symbolic) shape of each named script variable,
    /// from pass-3 inference. Metadata for the static analyses;
    /// execution and C emission never read it.
    pub var_shapes: BTreeMap<String, Shape>,
    /// Known constant value of each scalar script variable (pass-3
    /// constant propagation). Metadata only.
    pub var_consts: BTreeMap<String, f64>,
    /// Script variables proven safe to update in place. Filled by the
    /// analyze pass; metadata only.
    pub in_place: BTreeSet<String>,
    /// The SSA web each script variable holds when the script ends,
    /// keyed by source name. The workspace report reads these webs
    /// under their source names, so they are live on exit.
    pub exit_webs: BTreeMap<String, String>,
}

impl IrProgram {
    /// Every instruction of every scope, nested bodies included (used
    /// by compiler statistics and the peephole pass's tests).
    pub fn instr_count(&self) -> usize {
        self.instrs().count()
    }

    /// Instructions that call into the `ML_*` run-time library — the
    /// "runtime-call count" pass statistic.
    pub fn runtime_call_count(&self) -> usize {
        self.instrs().filter(|i| i.is_runtime_call()).count()
    }

    fn instrs(&self) -> impl Iterator<Item = &Instr> {
        self.bodies()
            .flat_map(|(_, body)| crate::walk::preorder(body).map(|(i, _)| i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sexpr_eval_via_ops() {
        let e = SExpr::bin(
            SBinOp::Add,
            SExpr::c(2.0),
            SExpr::bin(SBinOp::Mul, SExpr::c(3.0), SExpr::c(4.0)),
        );
        // Structural check only here; evaluation lives in the executor.
        let mut vars = Vec::new();
        e.vars(&mut vars);
        assert!(vars.is_empty());
    }

    #[test]
    fn sexpr_collects_vars() {
        let e = SExpr::bin(SBinOp::Div, SExpr::var("num"), SExpr::var("den"));
        let mut vars = Vec::new();
        e.vars(&mut vars);
        assert_eq!(vars, vec!["num", "den"]);
    }

    #[test]
    fn sfun_arity_and_eval() {
        assert_eq!(SFun::Sqrt.arity(), 1);
        assert_eq!(SFun::Pow.arity(), 2);
        assert_eq!(SFun::Pow.eval(&[2.0, 10.0]), 1024.0);
        assert_eq!(
            SFun::Mod.eval(&[-1.0, 3.0]),
            2.0,
            "MATLAB mod follows divisor sign"
        );
        assert_eq!(SFun::Rem.eval(&[-1.0, 3.0]), -1.0);
    }

    #[test]
    fn ewexpr_operands_and_weight() {
        // b .* c + s
        let e = EwExpr::bin(
            EwOp::Add,
            EwExpr::bin(EwOp::Mul, EwExpr::mat("b"), EwExpr::mat("c")),
            EwExpr::Scalar(SExpr::var("s")),
        );
        let mut ops = Vec::new();
        e.mat_operands(&mut ops);
        assert_eq!(ops, vec!["b", "c"]);
        assert_eq!(e.flop_weight(), 2.0);
        let div = EwExpr::bin(EwOp::Div, EwExpr::mat("a"), EwExpr::mat("b"));
        assert_eq!(div.flop_weight(), 4.0);
    }

    #[test]
    fn sbinop_eval_table() {
        assert_eq!(SBinOp::Le.eval(2.0, 2.0), 1.0);
        assert_eq!(SBinOp::And.eval(1.0, 0.0), 0.0);
        assert_eq!(SBinOp::Sub.eval(5.0, 3.0), 2.0);
    }

    #[test]
    fn ewop_eval_table() {
        assert_eq!(EwOp::Pow.eval(3.0, 2.0), 9.0);
        assert_eq!(EwOp::Ne.eval(1.0, 1.0), 0.0);
    }

    #[test]
    fn instr_count_recurses() {
        let p = IrProgram {
            main: vec![
                Instr::AssignScalar {
                    dst: "x".into(),
                    src: SExpr::c(1.0),
                },
                Instr::For {
                    var: "i".into(),
                    start: SExpr::c(1.0),
                    step: SExpr::c(1.0),
                    stop: SExpr::c(10.0),
                    body: vec![Instr::Break, Instr::Continue],
                },
            ],
            ..Default::default()
        };
        assert_eq!(p.instr_count(), 4);
    }
}
