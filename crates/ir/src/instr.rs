//! IR node definitions.

use crate::frame::{Slot, Vars};

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
/// A variable is a [`Slot`] of the enclosing [`crate::Frame`].
#[derive(Debug, Clone, PartialEq)]
pub enum SExpr {
    Const(f64),
    /// Scalar variable reference.
    Var(Slot),
    /// Run-time dimension of a matrix variable (`m->rows` /
    /// `m->cols` / local-free `numel` in the emitted C). Lowered from
    /// `size`/`length`/`numel`/`end` when the shape is not static.
    DimOf {
        var: Slot,
        sel: DimSel,
    },
    /// The element being stored by the enclosing
    /// [`Instr::StoreElem`] — the paper's
    /// `*ML_realaddr2(a, i-1, j-1)` read inside the owner guard.
    /// Valid only inside `StoreElem::val`.
    OwnElem,
    Neg(Box<SExpr>),
    Not(Box<SExpr>),
    Bin(SBinOp, Box<SExpr>, Box<SExpr>),
    Call(SFun, Vec<SExpr>),
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
    pub fn c(v: f64) -> SExpr {
        SExpr::Const(v)
    }

    pub fn bin(op: SBinOp, a: SExpr, b: SExpr) -> SExpr {
        SExpr::Bin(op, Box::new(a), Box::new(b))
    }

    /// Free scalar variables referenced.
    pub fn vars(&self, out: &mut Vec<Slot>) {
        match self {
            SExpr::Const(_) => {}
            SExpr::DimOf { .. } | SExpr::OwnElem => {}
            SExpr::Var(v) => out.push(*v),
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
pub enum EwExpr {
    /// A distributed matrix operand (must be aligned with the
    /// destination).
    Mat(Slot),
    /// A replicated scalar value.
    Scalar(SExpr),
    Neg(Box<EwExpr>),
    Not(Box<EwExpr>),
    Bin(EwOp, Box<EwExpr>, Box<EwExpr>),
    /// Element-wise scalar function application.
    Call(SFun, Vec<EwExpr>),
    /// Fusion rule F5: the element of a matrix the loop generates
    /// instead of reading. `tmp` names the temporary the producer used
    /// to write, so the C emitter can re-expand it. The generator is
    /// boxed so that this leaf does not double the size of every node.
    Gen {
        tmp: Slot,
        gen: Box<Generator>,
    },
}

/// A matrix defined element by element, which a fused loop generates
/// lane by lane (see [`EwExpr::Gen`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Generator {
    /// `u * v'` of two vectors, as [`Instr::Outer`] computes it.
    Outer { u: Slot, v: Slot },
    /// `eye(n)`, as [`MatInit::Eye`] builds it.
    Eye { n: SExpr },
}

impl Generator {
    /// The producer of `tmp` this generator was fused from: the
    /// instruction the C emitter re-expands and the lint models read.
    pub fn producer(&self, dst: Slot) -> Instr {
        match self {
            Generator::Outer { u, v } => Instr::Outer { dst, u: *u, v: *v },
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
            Instr::Outer { u, v, .. } => Some(Generator::Outer { u: *u, v: *v }),
            Instr::InitMatrix {
                init: MatInit::Eye { n },
                ..
            } => Some(Generator::Eye { n: n.clone() }),
            _ => None,
        }
    }
}

impl EwExpr {
    pub fn bin(op: EwOp, a: EwExpr, b: EwExpr) -> EwExpr {
        EwExpr::Bin(op, Box::new(a), Box::new(b))
    }

    /// Matrix operands referenced by this tree (the aligned operands a
    /// loop reads; generator leaves are not among them).
    pub fn mat_operands(&self, out: &mut Vec<Slot>) {
        self.leaves(&mut |e| {
            if let EwExpr::Mat(m) = e {
                out.push(*m);
            }
        });
    }

    /// The generator leaves of this tree, `(tmp, generator)` in
    /// reading order.
    pub fn generators(&self) -> Vec<(Slot, &Generator)> {
        let mut out = Vec::new();
        self.leaves(&mut |e| {
            if let EwExpr::Gen { tmp, gen } = e {
                out.push((*tmp, &**gen));
            }
        });
        out
    }

    /// Visit every leaf (`Mat`, `Scalar`, `Gen`) in reading order.
    pub(crate) fn leaves<'a>(&'a self, f: &mut impl FnMut(&'a EwExpr)) {
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
pub enum MatInit {
    Zeros {
        rows: SExpr,
        cols: SExpr,
    },
    Ones {
        rows: SExpr,
        cols: SExpr,
    },
    Eye {
        n: SExpr,
    },
    /// Seeded uniform random matrix; the seed keeps interpreter and
    /// compiled runs comparable.
    Rand {
        rows: SExpr,
        cols: SExpr,
    },
    Range {
        start: SExpr,
        step: SExpr,
        stop: SExpr,
    },
    /// Literal `[a, b; c, d]` of replicated scalar expressions.
    Literal {
        rows: Vec<Vec<SExpr>>,
    },
    /// Row vector of `n` points from `a` to `b` inclusive.
    Linspace {
        a: SExpr,
        b: SExpr,
        n: SExpr,
    },
}

/// One SPMD instruction. Matrix operands are variable slots; scalar
/// operands are replicated [`SExpr`]s. The strings that name no
/// variable (a callee, a printed label, a file path) are `String`s.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    // ---- replicated scalar computation ----
    /// `dst = expr;` on every rank.
    AssignScalar {
        dst: Slot,
        src: SExpr,
    },

    // ---- constructors ----
    /// `dst = <constructor>` (no communication).
    InitMatrix {
        dst: Slot,
        init: MatInit,
    },
    /// Copy a whole matrix variable: `dst = src`.
    CopyMatrix {
        dst: Slot,
        src: Slot,
    },
    /// Load from a data file via rank-0 + scatter.
    LoadFile {
        dst: Slot,
        path: String,
    },

    // ---- element-wise loop (no communication) ----
    /// `dst(k) = expr(k)` for every locally owned element.
    ElemWise {
        dst: Slot,
        expr: EwExpr,
    },

    // ---- run-time library calls (communication-bearing) ----
    /// `ML_matrix_multiply(a, b, dst)`.
    MatMul {
        dst: Slot,
        a: Slot,
        b: Slot,
    },
    /// `ML_matrix_vector_multiply(a, x, dst)`.
    MatVec {
        dst: Slot,
        a: Slot,
        x: Slot,
    },
    /// Outer product `dst = u * v'` of two vectors.
    Outer {
        dst: Slot,
        u: Slot,
        v: Slot,
    },
    /// `dst = aᵀ` (all-to-all redistribution).
    Transpose {
        dst: Slot,
        a: Slot,
    },
    /// `ML_broadcast(&dst, m, i, j)` — fetch one element to a
    /// replicated scalar. Indices are 1-based MATLAB expressions; the
    /// `- 1` adjustment happens at execution/emission, exactly like
    /// the generated C in the paper.
    BroadcastElem {
        dst: Slot,
        m: Slot,
        i: SExpr,
        j: Option<SExpr>,
    },
    /// Owner-computes guarded element store:
    /// `if (ML_owner(m, i-1, j-1)) *ML_realaddr2(m, i-1, j-1) = val;`
    StoreElem {
        m: Slot,
        i: SExpr,
        j: Option<SExpr>,
        val: SExpr,
    },
    /// Whole-object reduction to a replicated scalar.
    Reduce {
        dst: Slot,
        op: RedOp,
        m: Slot,
    },
    /// `dst = dot(a, b)` (fused multiply + sum; pass-6 peephole
    /// output).
    Dot {
        dst: Slot,
        a: Slot,
        b: Slot,
    },
    /// `dst = trapz(x, y)`.
    TrapzXY {
        dst: Slot,
        x: Slot,
        y: Slot,
    },
    /// MATLAB `sum`/`mean` of a true matrix → row vector of column
    /// aggregates.
    ColReduce {
        dst: Slot,
        op: ColRedOp,
        m: Slot,
    },
    /// A fused element-wise loop (loop-fusion pass output): the
    /// paper's per-element loop with a product it overwrites in place
    /// and/or a fold that consumes its elements as they are computed.
    /// Its meaning is [`Fused::unfused`]. Boxed, so that it does not
    /// widen every instruction.
    Fused(Box<Fused>),
    /// Circular shift of a vector.
    Shift {
        dst: Slot,
        v: Slot,
        k: SExpr,
    },
    /// `dst = m(i, :)` (owner broadcast).
    ExtractRow {
        dst: Slot,
        m: Slot,
        i: SExpr,
    },
    /// `dst = m(:, j)` (no communication).
    ExtractCol {
        dst: Slot,
        m: Slot,
        j: SExpr,
    },
    /// `m(i, :) = v` (gather to owner).
    AssignRow {
        m: Slot,
        i: SExpr,
        v: Slot,
    },
    /// `m(:, j) = v` (no communication).
    AssignCol {
        m: Slot,
        j: SExpr,
        v: Slot,
    },
    /// `dst = v(lo:hi)` (1-based inclusive bounds, redistribution).
    ExtractRange {
        dst: Slot,
        v: Slot,
        lo: SExpr,
        hi: SExpr,
    },
    /// `dst = v(lo:step:hi)` — strided gather (1-based inclusive).
    ExtractStrided {
        dst: Slot,
        v: Slot,
        lo: SExpr,
        step: SExpr,
        hi: SExpr,
    },
    /// `m(i, :) = val` — scalar fill of a row (no communication).
    FillRow {
        m: Slot,
        i: SExpr,
        val: SExpr,
    },
    /// `m(:, j) = val` — scalar fill of a column (no communication).
    FillCol {
        m: Slot,
        j: SExpr,
        val: SExpr,
    },
    /// `v(lo:hi) = val` — scalar fill of an element range.
    FillRange {
        m: Slot,
        lo: SExpr,
        hi: SExpr,
        val: SExpr,
    },
    /// `v(lo:hi) = w` — store a vector into an element range.
    AssignRange {
        m: Slot,
        lo: SExpr,
        hi: SExpr,
        v: Slot,
    },
    /// De-allocate a temporary's distributed storage (paper §4: "the
    /// run-time library is responsible for the allocation and
    /// de-allocation of vectors and matrices"). Inserted after the
    /// last use of each compiler temporary.
    Free {
        name: Slot,
    },

    // ---- control flow (replicated conditions) ----
    If {
        cond: SExpr,
        then_body: Vec<Instr>,
        else_body: Vec<Instr>,
    },
    /// `while`: re-evaluate `pre` (instructions computing the
    /// condition's inputs, e.g. a norm reduction) then test `cond`.
    While {
        pre: Vec<Instr>,
        cond: SExpr,
        body: Vec<Instr>,
    },
    /// Counted loop over a replicated scalar induction variable.
    For {
        var: Slot,
        start: SExpr,
        step: SExpr,
        stop: SExpr,
        body: Vec<Instr>,
    },
    Break,
    Continue,

    // ---- calls and I/O ----
    /// Call an IR function. `args`/`outs` pair positionally with the
    /// callee's parameters/returns.
    Call {
        fun: String,
        args: Vec<Arg>,
        outs: Vec<Slot>,
    },
    /// Display a value (rank 0 prints).
    Print {
        name: String,
        target: PrintTarget,
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

impl Instr {
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
}

/// The product at the head of a [`Fused`] loop: the buffer the loop
/// overwrites in place, so `tmp` is never stored on its own.
#[derive(Debug, Clone, PartialEq)]
pub enum Product {
    /// `tmp = matmul(a, b)`.
    MatMul { tmp: Slot, a: Slot, b: Slot },
    /// `tmp = matvec(a, x)`.
    MatVec { tmp: Slot, a: Slot, x: Slot },
}

impl Product {
    /// The temporary the product used to be stored in.
    pub fn tmp(&self) -> Slot {
        match self {
            Product::MatMul { tmp, .. } | Product::MatVec { tmp, .. } => *tmp,
        }
    }

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
pub enum Tail {
    /// Store it: `dst(k) = expr(k)`.
    Store { dst: Slot },
    /// Fold it into a replicated scalar, `dst = op(tmp)`.
    Reduce { dst: Slot, op: RedOp, tmp: Slot },
    /// Fold it into per-column partials, `dst = op(tmp)`.
    ColReduce { dst: Slot, op: ColRedOp, tmp: Slot },
}

impl Tail {
    /// The temporary a fold used to read, which the loop no longer
    /// stores.
    pub fn tmp(&self) -> Option<Slot> {
        match self {
            Tail::Store { .. } => None,
            Tail::Reduce { tmp, .. } | Tail::ColReduce { tmp, .. } => Some(*tmp),
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
pub struct Fused {
    pub(crate) head: Option<Product>,
    pub(crate) expr: EwExpr,
    pub(crate) tail: Tail,
}

impl Fused {
    pub fn head(&self) -> Option<&Product> {
        self.head.as_ref()
    }

    pub fn expr(&self) -> &EwExpr {
        &self.expr
    }

    pub fn tail(&self) -> &Tail {
        &self.tail
    }

    /// The temporaries the loop no longer stores: the head's, then the
    /// fold's.
    pub fn temps(&self) -> impl Iterator<Item = Slot> + '_ {
        self.head.iter().map(Product::tmp).chain(self.tail.tmp())
    }

    /// The sequence this loop stands for: the head's product, the
    /// element-wise loop, the fold, and a `Free` of each eliminated
    /// compiler temporary of `vars`, the loop's frame.
    pub fn unfused(&self, vars: &Vars) -> Vec<Instr> {
        let mut seq: Vec<Instr> = self.head.iter().map(Product::producer).collect();
        let (dst, fold) = match self.tail.clone() {
            Tail::Store { dst } => (dst, None),
            Tail::Reduce { dst, op, tmp } => (tmp, Some(Instr::Reduce { dst, op, m: tmp })),
            Tail::ColReduce { dst, op, tmp } => (tmp, Some(Instr::ColReduce { dst, op, m: tmp })),
        };
        let expr = self.expr.clone();
        seq.push(Instr::ElemWise { dst, expr });
        seq.extend(fold);
        seq.extend(
            self.temps()
                .filter(|&t| vars.is_temp(t))
                .map(|name| Instr::Free { name }),
        );
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
pub enum Arg {
    Scalar(SExpr),
    Matrix(Slot),
}

impl Arg {}

/// What a `Print` displays.
#[derive(Debug, Clone, PartialEq)]
pub enum PrintTarget {
    Scalar(SExpr),
    Matrix(Slot),
}

impl PrintTarget {}

/// Whether an IR variable is a replicated scalar or a distributed
/// matrix — the paper's *rank* attribute, fixed at compile time by
/// type inference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VarRank {
    Scalar,
    Matrix,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::by_name::*;

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
        let e = SExpr::bin(SBinOp::Div, var("num"), var("den"));
        let mut vars = Vec::new();
        e.vars(&mut vars);
        assert_eq!(vars, vec![v("num"), v("den")]);
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
            EwExpr::bin(EwOp::Mul, mat("b"), mat("c")),
            EwExpr::Scalar(var("s")),
        );
        let mut ops = Vec::new();
        e.mat_operands(&mut ops);
        assert_eq!(ops, vec![v("b"), v("c")]);
        assert_eq!(e.flop_weight(), 2.0);
        let div = EwExpr::bin(EwOp::Div, mat("a"), mat("b"));
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
        let p = program(vec![
            Instr::AssignScalar {
                dst: v("x"),
                src: SExpr::c(1.0),
            },
            Instr::For {
                var: v("i"),
                start: SExpr::c(1.0),
                step: SExpr::c(1.0),
                stop: SExpr::c(10.0),
                body: vec![Instr::Break, Instr::Continue],
            },
        ]);
        assert_eq!(p.instr_count(), 4);
    }
}
