//! The type/rank/shape lattice of the paper's third pass.
//!
//! "Variables may have one of four types: literal, integer, real, and
//! complex. ... A variable may have either scalar or matrix rank. Each
//! matrix variable has an associated shape, i.e., the number of rows
//! and columns. As much as possible, type and rank information is
//! determined at compile time."
//!
//! Inference additionally tracks *known constant values* of integer
//! scalars, which is how shapes like `zeros(n, n)` become static when
//! `n = 2048` appears earlier in the script — the paper's
//! "static inference mechanism extracts information about variables
//! from ... constants".

use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, OnceLock};

/// Base (element) type lattice: `Bottom < Integer < Real < Complex`,
/// with `Literal` (strings) incomparable to the numeric chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BaseTy {
    /// No information yet (unreached code).
    Bottom,
    Integer,
    Real,
    /// Supported by the lattice for completeness; no construct in the
    /// accepted subset produces complex values, so inferring it is a
    /// compile error downstream.
    Complex,
    /// Character string.
    Literal,
}

impl BaseTy {
    /// Least upper bound.
    pub fn join(self, other: BaseTy) -> BaseTy {
        use BaseTy::*;
        match (self, other) {
            (Bottom, x) | (x, Bottom) => x,
            (Literal, Literal) => Literal,
            (Literal, _) | (_, Literal) => {
                // Mixing strings and numbers: treat as string-ish
                // error-carrier; callers reject it.
                Literal
            }
            (a, b) => a.max(b),
        }
    }
}

/// Rank lattice: scalar vs matrix (vectors are matrices with a
/// unit dimension, as in the paper's run-time representation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RankTy {
    Bottom,
    Scalar,
    Matrix,
}

impl RankTy {
    /// Least upper bound; `Scalar ⊔ Matrix` is a *conflict* the caller
    /// must handle (the paper handles it via SSA renaming).
    pub fn join(self, other: RankTy) -> Result<RankTy, RankConflict> {
        use RankTy::*;
        match (self, other) {
            (Bottom, x) | (x, Bottom) => Ok(x),
            (Scalar, Scalar) => Ok(Scalar),
            (Matrix, Matrix) => Ok(Matrix),
            (Scalar, Matrix) | (Matrix, Scalar) => Err(RankConflict),
        }
    }
}

/// Marker for a scalar/matrix merge, resolved by SSA-based renaming.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankConflict;

/// A symbolic dimension expression: the affine vocabulary the paper's
/// sample-file mechanism needs. Symbols are minted from sample-file
/// dimensions (`"cg.dat:rows"`) and M-file parameters; sums and
/// products arise from concatenation and flattening (`v(:)`).
///
/// Expressions are hash-consed into a process-global interner, so a
/// [`Dim`] stays `Copy`/`Eq`/`Hash` and id-equality *is* structural
/// equality — the inference fixpoint loops compare whole environments
/// by `==` and must stay cheap.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum DimExpr {
    /// A named symbol, with the concrete value observed in the sample
    /// environment (`None` for parameters with no sample binding).
    Sym { name: String, sample: Option<usize> },
    /// `a + b`, operands canonically ordered.
    Add(Dim, Dim),
    /// `a * b`, operands canonically ordered.
    Mul(Dim, Dim),
}

/// Handle of an interned [`DimExpr`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DimExprId(u32);

#[derive(Default)]
struct DimInterner {
    exprs: Vec<DimExpr>,
    ids: HashMap<DimExpr, u32>,
}

fn interner() -> &'static Mutex<DimInterner> {
    static INTERNER: OnceLock<Mutex<DimInterner>> = OnceLock::new();
    INTERNER.get_or_init(|| Mutex::new(DimInterner::default()))
}

fn intern(e: DimExpr) -> DimExprId {
    let mut t = interner().lock().unwrap_or_else(|p| p.into_inner());
    if let Some(&id) = t.ids.get(&e) {
        return DimExprId(id);
    }
    let id = t.exprs.len() as u32;
    t.exprs.push(e.clone());
    t.ids.insert(e, id);
    DimExprId(id)
}

/// One dimension of a shape: a known constant, a symbolic expression
/// over minted dimension symbols, or nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dim {
    Known(usize),
    Sym(DimExprId),
    Unknown,
}

impl Dim {
    /// Mint (or re-intern) a named dimension symbol.
    pub fn sym(name: &str, sample: Option<usize>) -> Dim {
        Dim::Sym(intern(DimExpr::Sym {
            name: name.to_string(),
            sample,
        }))
    }

    /// Symbolic sum, constant-folded. `Unknown` absorbs.
    #[allow(clippy::should_implement_trait)] // associated fn over the lattice, not `self + rhs`
    pub fn add(a: Dim, b: Dim) -> Dim {
        match (a, b) {
            (Dim::Unknown, _) | (_, Dim::Unknown) => Dim::Unknown,
            (Dim::Known(x), Dim::Known(y)) => Dim::Known(x + y),
            (Dim::Known(0), d) | (d, Dim::Known(0)) => d,
            (a, b) => {
                let (a, b) = canonical_pair(a, b);
                Dim::Sym(intern(DimExpr::Add(a, b)))
            }
        }
    }

    /// Symbolic product, constant-folded. Zero annihilates even
    /// `Unknown`; one is the identity.
    #[allow(clippy::should_implement_trait)] // associated fn over the lattice, not `self * rhs`
    pub fn mul(a: Dim, b: Dim) -> Dim {
        match (a, b) {
            (Dim::Known(0), _) | (_, Dim::Known(0)) => Dim::Known(0),
            (Dim::Unknown, _) | (_, Dim::Unknown) => Dim::Unknown,
            (Dim::Known(x), Dim::Known(y)) => Dim::Known(x * y),
            (Dim::Known(1), d) | (d, Dim::Known(1)) => d,
            (a, b) => {
                let (a, b) = canonical_pair(a, b);
                Dim::Sym(intern(DimExpr::Mul(a, b)))
            }
        }
    }

    pub fn join(self, other: Dim) -> Dim {
        if self == other {
            self
        } else {
            Dim::Unknown
        }
    }

    /// Statically known constant value (symbolic dims return `None`;
    /// see [`Dim::concrete`] for the sample-evaluated variant).
    pub fn as_known(self) -> Option<usize> {
        match self {
            Dim::Known(n) => Some(n),
            _ => None,
        }
    }

    /// Is this dimension a symbolic expression?
    pub fn is_symbolic(self) -> bool {
        matches!(self, Dim::Sym(_))
    }

    /// The interned expression behind a symbolic dim.
    pub fn expr(self) -> Option<DimExpr> {
        match self {
            Dim::Sym(id) => {
                let t = interner().lock().unwrap_or_else(|p| p.into_inner());
                Some(t.exprs[id.0 as usize].clone())
            }
            _ => None,
        }
    }

    /// Evaluate the dimension against the sample environment every
    /// symbol was minted with: the value the compile actually saw.
    pub fn eval_sample(self) -> Option<usize> {
        match self {
            Dim::Known(n) => Some(n),
            Dim::Unknown => None,
            Dim::Sym(_) => match self.expr()? {
                DimExpr::Sym { sample, .. } => sample,
                DimExpr::Add(a, b) => Some(a.eval_sample()? + b.eval_sample()?),
                DimExpr::Mul(a, b) => Some(a.eval_sample()? * b.eval_sample()?),
            },
        }
    }

    /// Known constant or sample-evaluated symbolic value. Within one
    /// compile this is exact: symbols were minted from the same files
    /// the run will load.
    pub fn concrete(self) -> Option<usize> {
        self.as_known().or_else(|| self.eval_sample())
    }
}

/// Canonical operand order for commutative nodes so `a+b` and `b+a`
/// intern to the same expression. The order compares the rendered
/// text — deterministic across runs, unlike interner ids.
fn canonical_pair(a: Dim, b: Dim) -> (Dim, Dim) {
    if b.to_string() < a.to_string() {
        (b, a)
    } else {
        (a, b)
    }
}

/// Whether a dim renders as a sum (needs parens inside a product).
fn is_sum(d: Dim) -> bool {
    matches!(d.expr(), Some(DimExpr::Add(..)))
}

impl fmt::Display for Dim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dim::Known(n) => write!(f, "{n}"),
            Dim::Unknown => write!(f, "?"),
            Dim::Sym(_) => match self.expr().expect("interned") {
                DimExpr::Sym { name, .. } => write!(f, "{name}"),
                DimExpr::Add(a, b) => write!(f, "{a}+{b}"),
                DimExpr::Mul(a, b) => {
                    if is_sum(a) {
                        write!(f, "({a})")?;
                    } else {
                        write!(f, "{a}")?;
                    }
                    write!(f, "*")?;
                    if is_sum(b) {
                        write!(f, "({b})")
                    } else {
                        write!(f, "{b}")
                    }
                }
            },
        }
    }
}

/// Matrix shape (rows × cols); scalars carry `(1, 1)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape {
    pub rows: Dim,
    pub cols: Dim,
}

impl Shape {
    pub const SCALAR: Shape = Shape {
        rows: Dim::Known(1),
        cols: Dim::Known(1),
    };
    pub const UNKNOWN: Shape = Shape {
        rows: Dim::Unknown,
        cols: Dim::Unknown,
    };

    pub fn known(rows: usize, cols: usize) -> Shape {
        Shape {
            rows: Dim::Known(rows),
            cols: Dim::Known(cols),
        }
    }

    pub fn join(self, other: Shape) -> Shape {
        Shape {
            rows: self.rows.join(other.rows),
            cols: self.cols.join(other.cols),
        }
    }

    pub fn transposed(self) -> Shape {
        Shape {
            rows: self.cols,
            cols: self.rows,
        }
    }

    /// Definitely a vector (one known-unit dimension)?
    pub fn is_vector(self) -> bool {
        self.rows == Dim::Known(1) || self.cols == Dim::Known(1)
    }

    /// Both dimensions resolved to concrete values (constants or
    /// sample-evaluated symbols).
    pub fn concrete(self) -> Option<(usize, usize)> {
        Some((self.rows.concrete()?, self.cols.concrete()?))
    }

    /// Total element count, symbolically.
    pub fn numel(self) -> Dim {
        Dim::mul(self.rows, self.cols)
    }

    /// Does either dimension carry a symbolic expression?
    pub fn is_symbolic(self) -> bool {
        self.rows.is_symbolic() || self.cols.is_symbolic()
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.rows, self.cols)
    }
}

/// The full inferred attribute bundle for one variable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VarTy {
    pub base: BaseTy,
    pub rank: RankTy,
    pub shape: Shape,
    /// Statically known numeric value, when the variable is a
    /// compile-time constant scalar (drives static shapes).
    pub konst: Option<f64>,
    /// When this scalar provably equals a (possibly symbolic)
    /// dimension — `n = size(a, 1)` — the expression it equals, so
    /// shapes like `zeros(n, 1)` stay symbolic instead of collapsing
    /// to `Unknown`.
    pub dim_of: Option<Dim>,
}

impl VarTy {
    pub const BOTTOM: VarTy = VarTy {
        base: BaseTy::Bottom,
        rank: RankTy::Bottom,
        shape: Shape::UNKNOWN,
        konst: None,
        dim_of: None,
    };

    /// An integer-valued scalar constant.
    pub fn int_const(v: f64) -> VarTy {
        VarTy {
            base: if v.fract() == 0.0 {
                BaseTy::Integer
            } else {
                BaseTy::Real
            },
            rank: RankTy::Scalar,
            shape: Shape::SCALAR,
            konst: Some(v),
            dim_of: None,
        }
    }

    /// A scalar of the given base type, value unknown.
    pub fn scalar(base: BaseTy) -> VarTy {
        VarTy {
            base,
            rank: RankTy::Scalar,
            shape: Shape::SCALAR,
            konst: None,
            dim_of: None,
        }
    }

    /// An integer scalar known to equal a dimension expression.
    /// `Dim::Unknown` normalizes to no fact at all, so fixpoint
    /// comparisons never distinguish "unknown dim" from "no dim".
    pub fn dim_scalar(dim: Dim) -> VarTy {
        VarTy {
            base: BaseTy::Integer,
            rank: RankTy::Scalar,
            shape: Shape::SCALAR,
            konst: dim.as_known().map(|n| n as f64),
            dim_of: if dim == Dim::Unknown { None } else { Some(dim) },
        }
    }

    /// A matrix of the given base type and shape.
    pub fn matrix(base: BaseTy, shape: Shape) -> VarTy {
        VarTy {
            base,
            rank: RankTy::Matrix,
            shape,
            konst: None,
            dim_of: None,
        }
    }

    /// A string literal.
    pub fn string() -> VarTy {
        VarTy {
            base: BaseTy::Literal,
            rank: RankTy::Scalar,
            shape: Shape::SCALAR,
            konst: None,
            dim_of: None,
        }
    }

    /// The dimension expression this scalar denotes, when known: an
    /// explicit `dim_of` fact, or a non-negative integral constant.
    pub fn as_dim(&self) -> Option<Dim> {
        if let Some(d) = self.dim_of {
            return Some(d);
        }
        match self.konst {
            Some(v) if v >= 0.0 && v.fract() == 0.0 => Some(Dim::Known(v as usize)),
            _ => None,
        }
    }

    /// Least upper bound; rank conflicts bubble up.
    pub fn join(self, other: VarTy) -> Result<VarTy, RankConflict> {
        if self == VarTy::BOTTOM {
            return Ok(other);
        }
        if other == VarTy::BOTTOM {
            return Ok(self);
        }
        Ok(VarTy {
            base: self.base.join(other.base),
            rank: self.rank.join(other.rank)?,
            shape: self.shape.join(other.shape),
            konst: match (self.konst, other.konst) {
                (Some(a), Some(b)) if a == b => Some(a),
                _ => None,
            },
            dim_of: match (self.dim_of, other.dim_of) {
                (Some(a), Some(b)) if a == b => Some(a),
                _ => None,
            },
        })
    }

    pub fn is_scalar(&self) -> bool {
        self.rank == RankTy::Scalar
    }

    pub fn is_matrix(&self) -> bool {
        self.rank == RankTy::Matrix
    }
}

impl fmt::Display for VarTy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let base = match self.base {
            BaseTy::Bottom => "⊥",
            BaseTy::Integer => "integer",
            BaseTy::Real => "real",
            BaseTy::Complex => "complex",
            BaseTy::Literal => "literal",
        };
        match self.rank {
            RankTy::Scalar => write!(f, "{base} scalar"),
            RankTy::Matrix => write!(f, "{base} matrix {}", self.shape),
            RankTy::Bottom => write!(f, "⊥"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_lattice_order() {
        assert_eq!(BaseTy::Integer.join(BaseTy::Real), BaseTy::Real);
        assert_eq!(BaseTy::Real.join(BaseTy::Integer), BaseTy::Real);
        assert_eq!(BaseTy::Bottom.join(BaseTy::Integer), BaseTy::Integer);
        assert_eq!(BaseTy::Integer.join(BaseTy::Integer), BaseTy::Integer);
        assert_eq!(BaseTy::Real.join(BaseTy::Complex), BaseTy::Complex);
    }

    #[test]
    fn rank_conflict_detected() {
        assert_eq!(RankTy::Scalar.join(RankTy::Scalar), Ok(RankTy::Scalar));
        assert_eq!(RankTy::Bottom.join(RankTy::Matrix), Ok(RankTy::Matrix));
        assert!(RankTy::Scalar.join(RankTy::Matrix).is_err());
    }

    #[test]
    fn shape_join_degrades_gracefully() {
        let a = Shape::known(3, 4);
        assert_eq!(a.join(a), a);
        let b = Shape::known(3, 5);
        let j = a.join(b);
        assert_eq!(j.rows, Dim::Known(3));
        assert_eq!(j.cols, Dim::Unknown);
    }

    #[test]
    fn transpose_swaps_dims() {
        let s = Shape::known(2, 7).transposed();
        assert_eq!(s, Shape::known(7, 2));
    }

    #[test]
    fn const_tracking_through_join() {
        let a = VarTy::int_const(5.0);
        let same = a.join(a).unwrap();
        assert_eq!(same.konst, Some(5.0));
        let b = VarTy::int_const(6.0);
        let merged = a.join(b).unwrap();
        assert_eq!(merged.konst, None);
        assert_eq!(merged.base, BaseTy::Integer);
    }

    #[test]
    fn int_const_classifies_fraction() {
        assert_eq!(VarTy::int_const(2.0).base, BaseTy::Integer);
        assert_eq!(VarTy::int_const(2.5).base, BaseTy::Real);
    }

    #[test]
    fn bottom_is_identity() {
        let m = VarTy::matrix(BaseTy::Real, Shape::known(2, 2));
        assert_eq!(VarTy::BOTTOM.join(m).unwrap(), m);
        assert_eq!(m.join(VarTy::BOTTOM).unwrap(), m);
    }

    #[test]
    fn display_matches_paper_vocabulary() {
        let v = VarTy::matrix(BaseTy::Real, Shape::known(2048, 1));
        assert_eq!(v.to_string(), "real matrix 2048x1");
        assert_eq!(VarTy::scalar(BaseTy::Integer).to_string(), "integer scalar");
    }

    #[test]
    fn symbolic_dims_hash_cons_to_structural_equality() {
        let n = Dim::sym("cg.dat:rows", Some(96));
        let n2 = Dim::sym("cg.dat:rows", Some(96));
        assert_eq!(n, n2);
        // Different sample value ⇒ a different symbol.
        assert_ne!(n, Dim::sym("cg.dat:rows", Some(48)));
        // Commutative nodes canonicalize: a+b == b+a, a*b == b*a.
        let m = Dim::sym("cg.dat:cols", Some(96));
        assert_eq!(Dim::add(n, m), Dim::add(m, n));
        assert_eq!(Dim::mul(n, m), Dim::mul(m, n));
        assert_ne!(Dim::add(n, m), Dim::mul(n, m));
    }

    #[test]
    fn symbolic_constructors_fold_constants() {
        let n = Dim::sym("n", Some(10));
        assert_eq!(Dim::add(Dim::Known(2), Dim::Known(3)), Dim::Known(5));
        assert_eq!(Dim::add(n, Dim::Known(0)), n);
        assert_eq!(Dim::mul(n, Dim::Known(1)), n);
        assert_eq!(Dim::mul(n, Dim::Known(0)), Dim::Known(0));
        assert_eq!(Dim::mul(Dim::Unknown, Dim::Known(0)), Dim::Known(0));
        assert_eq!(Dim::add(n, Dim::Unknown), Dim::Unknown);
    }

    #[test]
    fn symbolic_eval_against_sample() {
        let r = Dim::sym("f.dat:rows", Some(12));
        let c = Dim::sym("f.dat:cols", Some(5));
        assert_eq!(r.eval_sample(), Some(12));
        assert_eq!(Dim::mul(r, c).eval_sample(), Some(60));
        assert_eq!(Dim::add(r, Dim::Known(1)).eval_sample(), Some(13));
        // A parameter symbol with no sample cannot evaluate.
        let p = Dim::sym("f.param:x", None);
        assert_eq!(p.eval_sample(), None);
        assert_eq!(Dim::add(r, p).eval_sample(), None);
        // `concrete` unifies the two paths.
        assert_eq!(Dim::Known(7).concrete(), Some(7));
        assert_eq!(r.concrete(), Some(12));
    }

    #[test]
    fn symbolic_display_renders_expressions() {
        let r = Dim::sym("a:rows", Some(4));
        let c = Dim::sym("a:cols", Some(2));
        assert_eq!(r.to_string(), "a:rows");
        assert_eq!(Dim::mul(r, c).to_string(), "a:cols*a:rows");
        assert_eq!(Dim::add(r, Dim::Known(3)).to_string(), "3+a:rows");
        assert_eq!(
            Dim::mul(Dim::add(r, Dim::Known(1)), c).to_string(),
            "(1+a:rows)*a:cols"
        );
    }

    #[test]
    fn symbolic_join_keeps_equal_dims() {
        let n = Dim::sym("n", Some(8));
        assert_eq!(n.join(n), n);
        assert_eq!(n.join(Dim::Known(8)), Dim::Unknown);
        assert_eq!(n.join(Dim::sym("m", Some(8))), Dim::Unknown);
        assert!(n.as_known().is_none());
        assert!(n.is_symbolic());
    }

    #[test]
    fn dim_scalar_carries_the_fact_through_join() {
        let n = Dim::sym("n", Some(8));
        let a = VarTy::dim_scalar(n);
        assert_eq!(a.as_dim(), Some(n));
        assert_eq!(a.konst, None);
        let same = a.join(a).unwrap();
        assert_eq!(same.dim_of, Some(n));
        let other = VarTy::dim_scalar(Dim::sym("m", Some(9)));
        assert_eq!(a.join(other).unwrap().dim_of, None);
        // Plain integral constants also denote dims.
        assert_eq!(VarTy::int_const(5.0).as_dim(), Some(Dim::Known(5)));
        assert_eq!(VarTy::int_const(5.5).as_dim(), None);
        // A known-constant dim scalar still folds.
        assert_eq!(VarTy::dim_scalar(Dim::Known(4)).konst, Some(4.0));
    }
}
