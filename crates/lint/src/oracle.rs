//! Static communication-volume oracle.
//!
//! For every leaf site of a lowered program (the enumeration of
//! [`otter_ir::leaf_sites`]) this module predicts, *at compile time*,
//! the exact number of messages and payload bytes the deterministic
//! run-time will move at that site per execution, as a function of the
//! machine size `p`. The prediction mirrors the run-time library's
//! communication structure op by op:
//!
//! * collectives (`otter-mpi`): tree broadcast/reduce move `p-1`
//!   messages; gather/scatter are linear; allgather is a gather to
//!   rank 0 followed by a broadcast of the flattened
//!   `[nparts, len_0.., data]` array;
//! * block distribution (`otter-runtime::dist`): the first `n mod p`
//!   ranks own `⌈n/p⌉` items, the rest `⌊n/p⌋`;
//! * kernels (`matmul` ring rotation, transpose all-to-all, halo
//!   exchanges, shift/range segment walks) are re-derived here from
//!   the same `Block` arithmetic.
//!
//! Dimensions come from pass-3 symbolic shape inference
//! ([`otter_analysis::Shape`] on each [`otter_ir::Var`]), so a
//! prediction carries a *symbolic* formula (rendered in terms of the
//! sample-file dimension symbols and `p`) plus an exact evaluation at
//! the concrete sample dimensions. `tests/shape_oracle_prop.rs`
//! asserts the evaluation equals the instrumented executor's per-site
//! measurement *exactly* — no tolerance — for every application at
//! p ∈ {1, 2, 4, 8}.

use otter_analysis::{Dim, Shape};
use otter_ir::{
    leaf_sites, preorder, DimSel, Frame, Instr, IrProgram, MatInit, PrintTarget, RedOp, SExpr,
    Slot, VarRank, Vars,
};

/// Exact message/byte totals (summed over all ranks) for one
/// execution of a site at machine size `p`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SiteCost {
    pub messages: u64,
    pub bytes: u64,
}

/// How many times a site executes in one program run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Execs {
    /// Statically known trip product of the enclosing loop nest.
    Static(u64),
    /// Data-dependent (`while` loops, `break`-carrying loops,
    /// non-constant bounds, conditional bodies, function bodies).
    Dynamic,
}

/// Which rank a gather converges on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Root {
    /// Rank 0 (I/O coordination, allgather's internal gather).
    Zero,
    /// The block owner of 0-based item `index` in a distribution of
    /// `extent` items (`AssignRow`'s gather-to-owner).
    Owner { extent: Dim, index: Option<u64> },
}

/// One primitive communication step; a site's model is a sequence of
/// these. Each mirrors one loop of the run-time library.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Atom {
    /// Tree broadcast of `len` doubles: `p-1` messages.
    Bcast { len: Dim },
    /// Tree reduction of `len` doubles: `p-1` messages.
    Reduce { len: Dim },
    /// Linear gather of a block-distributed `extent × width` object:
    /// every non-root rank sends its part once.
    Gather { extent: Dim, width: Dim, root: Root },
    /// Linear scatter from rank 0: one message per non-root rank.
    Scatter { extent: Dim, width: Dim },
    /// Broadcast of allgather's flattened `[nparts, len_r.., data]`
    /// array (`1 + p + extent·width` doubles).
    BcastFlat { extent: Dim, width: Dim },
    /// Matmul ring rotation: `p-1` rotations, each rank passing its
    /// current `kk`-row B panel (of an inner-dim `kk`, result-width
    /// `n` product) to its left neighbour.
    Ring { kk: Dim, n: Dim },
    /// Transpose all-to-all of an `m × n` row-distributed matrix:
    /// rank `r` ships the intersection of its row panel with every
    /// destination's column panel.
    Transpose { m: Dim, n: Dim },
    /// Right-neighbour halo of a length-`len` vector: every non-empty
    /// rank except the first sends one scalar left.
    HaloRight { len: Dim },
    /// Circular shift of a length-`len` vector by constant `k`:
    /// cross-owner destination segments, one message each.
    ShiftSeg { len: Dim, k: Option<i64> },
    /// `v(lo:hi)` redistribution (0-based half-open constants):
    /// cross-owner source→destination segments.
    RangeSeg {
        len: Dim,
        lo: Option<u64>,
        hi: Option<u64>,
    },
}

fn bcount(n: usize, p: usize, r: usize) -> usize {
    n / p + usize::from(r < n % p)
}

fn bstart(n: usize, p: usize, r: usize) -> usize {
    r * (n / p) + r.min(n % p)
}

fn bend(n: usize, p: usize, r: usize) -> usize {
    bstart(n, p, r) + bcount(n, p, r)
}

fn bowner(n: usize, p: usize, i: usize) -> usize {
    let base = n / p;
    let rem = n % p;
    let cutoff = rem * (base + 1);
    if i < cutoff {
        i / (base + 1)
    } else {
        rem + (i - cutoff) / base.max(1)
    }
}

impl Atom {
    /// Exact (messages, bytes) for one execution at machine size `p`,
    /// or `None` when a needed dimension/constant is not statically
    /// concrete.
    pub fn eval(&self, p: usize) -> Option<SiteCost> {
        let cost = |messages: u64, doubles: u64| SiteCost {
            messages,
            bytes: 8 * doubles,
        };
        let pm1 = (p - 1) as u64;
        Some(match *self {
            Atom::Bcast { len } | Atom::Reduce { len } => cost(pm1, len.concrete()? as u64 * pm1),
            Atom::Gather {
                extent,
                width,
                root,
            } => {
                let n = extent.concrete()?;
                let w = width.concrete()? as u64;
                let root = match root {
                    Root::Zero => 0,
                    Root::Owner { extent, index } => {
                        let m = extent.concrete()?;
                        let i = index? as usize;
                        if i >= m {
                            return None;
                        }
                        bowner(m, p, i)
                    }
                };
                cost(pm1, (n - bcount(n, p, root)) as u64 * w)
            }
            Atom::Scatter { extent, width } => {
                let n = extent.concrete()?;
                let w = width.concrete()? as u64;
                cost(pm1, (n - bcount(n, p, 0)) as u64 * w)
            }
            Atom::BcastFlat { extent, width } => {
                let n = extent.concrete()? as u64;
                let w = width.concrete()? as u64;
                cost(pm1, (1 + p as u64 + n * w) * pm1)
            }
            Atom::Ring { kk, n } => {
                let kk = kk.concrete()? as u64;
                let n = n.concrete()? as u64;
                // Each of p-1 rotations: every rank sends its current
                // panel; the panels partition kk rows of width n.
                cost(p as u64 * pm1, pm1 * kk * n)
            }
            Atom::Transpose { m, n } => {
                let m = m.concrete()?;
                let n = n.concrete()?;
                let mut doubles = 0u64;
                for r in 0..p {
                    doubles += (bcount(m, p, r) * (n - bcount(n, p, r))) as u64;
                }
                cost(p as u64 * pm1, doubles)
            }
            Atom::HaloRight { len } => {
                let n = len.concrete()?;
                // Senders: ranks with a non-empty block and a non-zero
                // start — all non-empty ranks except rank 0.
                let msgs = n.min(p).saturating_sub(1) as u64;
                cost(msgs, msgs)
            }
            Atom::ShiftSeg { len, k } => {
                let n = len.concrete()?;
                let k = k?;
                if n == 0 {
                    return Some(SiteCost::default());
                }
                let ni = n as i64;
                let k = (((k % ni) + ni) % ni) as usize;
                let (mut msgs, mut doubles) = (0u64, 0u64);
                // Mirror `DistMatrix::circshift`'s send phase on every
                // rank: walk the block, split by destination owner.
                for r in 0..p {
                    let mut lo = bstart(n, p, r);
                    let my_end = bend(n, p, r);
                    while lo < my_end {
                        let dest_g = (lo + k) % n;
                        let owner = bowner(n, p, dest_g);
                        let owner_room = bend(n, p, owner) - dest_g;
                        let wrap_room = n - dest_g;
                        let run = owner_room.min(wrap_room).min(my_end - lo);
                        if owner != r {
                            msgs += 1;
                            doubles += run as u64;
                        }
                        lo += run;
                    }
                }
                cost(msgs, doubles)
            }
            Atom::RangeSeg { len, lo, hi } => {
                let n = len.concrete()?;
                let (lo, hi) = (lo? as usize, hi? as usize);
                if lo > hi || hi > n {
                    return None; // the run-time would abort
                }
                let n_new = hi - lo;
                let (mut msgs, mut doubles) = (0u64, 0u64);
                // Mirror `DistMatrix::extract_range`'s send phase.
                for r in 0..p {
                    let send_lo = bstart(n, p, r).max(lo);
                    let send_hi = bend(n, p, r).min(hi);
                    let mut g = send_lo;
                    while g < send_hi {
                        let owner = if n_new == 0 {
                            r
                        } else {
                            bowner(n_new, p, g - lo)
                        };
                        let run = (bend(n_new, p, owner) - (g - lo)).min(send_hi - g);
                        if owner != r {
                            msgs += 1;
                            doubles += run as u64;
                        }
                        g += run;
                    }
                }
                cost(msgs, doubles)
            }
        })
    }

    fn messages_formula(&self) -> String {
        match self {
            Atom::Bcast { .. }
            | Atom::Reduce { .. }
            | Atom::Gather { .. }
            | Atom::Scatter { .. }
            | Atom::BcastFlat { .. } => "(p-1)".to_string(),
            Atom::Ring { .. } | Atom::Transpose { .. } => "p*(p-1)".to_string(),
            Atom::HaloRight { len } => format!("min({len},p)-1"),
            Atom::ShiftSeg { len, k } => {
                format!("segs(shift {} by {})", len, fmt_opt_i64(*k))
            }
            Atom::RangeSeg { len, lo, hi } => {
                format!("segs({}[{}:{}])", len, fmt_opt_u64(*lo), fmt_opt_u64(*hi))
            }
        }
    }

    fn bytes_formula(&self) -> String {
        match self {
            Atom::Bcast { len } | Atom::Reduce { len } => format!("8*{len}*(p-1)"),
            Atom::Gather {
                extent,
                width,
                root,
            } => {
                let who = match root {
                    Root::Zero => "0".to_string(),
                    Root::Owner { index, .. } => format!("owner({})", fmt_opt_u64(*index)),
                };
                format!("8*{width}*({extent}-blk_{who}({extent}))")
            }
            Atom::Scatter { extent, width } => {
                format!("8*{width}*({extent}-blk_0({extent}))")
            }
            Atom::BcastFlat { extent, width } => {
                format!("8*(1+p+{extent}*{width})*(p-1)")
            }
            Atom::Ring { kk, n } => format!("8*{kk}*{n}*(p-1)"),
            Atom::Transpose { m, n } => {
                format!("8*sum_r blk_r({m})*({n}-blk_r({n}))")
            }
            Atom::HaloRight { len } => format!("8*(min({len},p)-1)"),
            Atom::ShiftSeg { len, k } => {
                format!("8*cross(shift {} by {})", len, fmt_opt_i64(*k))
            }
            Atom::RangeSeg { len, lo, hi } => format!(
                "8*cross({}[{}:{}])",
                len,
                fmt_opt_u64(*lo),
                fmt_opt_u64(*hi)
            ),
        }
    }
}

fn fmt_opt_i64(v: Option<i64>) -> String {
    v.map_or_else(|| "?".to_string(), |v| v.to_string())
}

fn fmt_opt_u64(v: Option<u64>) -> String {
    v.map_or_else(|| "?".to_string(), |v| v.to_string())
}

/// The communication model of one site.
#[derive(Debug, Clone, PartialEq)]
pub enum Model {
    /// A (possibly empty) sequence of primitive steps. Empty means
    /// *proven communication-free*.
    Atoms(Vec<Atom>),
    /// The operation's run-time path could not be resolved statically
    /// (e.g. a matmul whose operand shapes are unknown).
    Unknown,
}

impl Model {
    /// Exact per-execution cost at machine size `p`; `None` when any
    /// step needs a dimension that is not statically concrete.
    pub fn per_exec(&self, p: usize) -> Option<SiteCost> {
        let Model::Atoms(atoms) = self else {
            return None;
        };
        let mut total = SiteCost::default();
        for a in atoms {
            let c = a.eval(p)?;
            total.messages += c.messages;
            total.bytes += c.bytes;
        }
        Some(total)
    }

    /// Is this site proven communication-free?
    pub fn is_free(&self) -> bool {
        matches!(self, Model::Atoms(a) if a.is_empty())
    }

    /// Human-readable `messages(p)` formula.
    pub fn messages_formula(&self) -> String {
        self.join_formula(Atom::messages_formula)
    }

    /// Human-readable `bytes(p)` formula.
    pub fn bytes_formula(&self) -> String {
        self.join_formula(Atom::bytes_formula)
    }

    fn join_formula(&self, f: impl Fn(&Atom) -> String) -> String {
        match self {
            Model::Unknown => "?".to_string(),
            Model::Atoms(atoms) if atoms.is_empty() => "0".to_string(),
            Model::Atoms(atoms) => {
                // Collapse repeated identical terms: `2*(p-1)` instead
                // of `(p-1) + (p-1)`.
                let mut terms: Vec<(String, usize)> = Vec::new();
                for a in atoms {
                    let t = f(a);
                    match terms.last_mut() {
                        Some((prev, n)) if *prev == t => *n += 1,
                        _ => terms.push((t, 1)),
                    }
                }
                terms
                    .into_iter()
                    .map(|(t, n)| if n == 1 { t } else { format!("{n}*{t}") })
                    .collect::<Vec<_>>()
                    .join(" + ")
            }
        }
    }
}

/// The oracle's verdict for one leaf site.
#[derive(Debug, Clone, PartialEq)]
pub struct SitePrediction {
    /// Site index in the [`leaf_sites`] enumeration.
    pub site: u32,
    /// Enclosing function, or `None` for the script body.
    pub func: Option<String>,
    pub opcode: &'static str,
    pub loop_depth: u32,
    /// Static trip product of the enclosing loop nest, when provable.
    pub execs: Execs,
    pub model: Model,
}

/// Per-scope static facts the model builder reads (shared with the
/// shape-safety lints): the frame's table, and each slot's shape as
/// [`refined_shapes`] derives it.
pub(crate) struct Scope<'a> {
    pub(crate) vars: &'a Vars,
    pub(crate) shapes: Vec<Option<Shape>>,
}

impl<'a> Scope<'a> {
    pub(crate) fn new(frame: &'a Frame) -> Self {
        Scope {
            vars: &frame.vars,
            shapes: refined_shapes(frame),
        }
    }

    pub(crate) fn shape(&self, v: Slot) -> Shape {
        self.shapes[v.index()].unwrap_or(Shape::UNKNOWN)
    }

    /// Constant-fold a replicated scalar expression against the
    /// scope's known constants and concrete shape dimensions.
    pub(crate) fn eval(&self, e: &SExpr) -> Option<f64> {
        match e {
            SExpr::Const(c) => Some(*c),
            SExpr::Var(v) => self.vars[*v].konst,
            SExpr::DimOf { var, sel } => {
                let s = self.shape(*var);
                let (r, c) = (s.rows.concrete()?, s.cols.concrete()?);
                Some(match sel {
                    DimSel::Rows => r as f64,
                    DimSel::Cols => c as f64,
                    DimSel::Length => r.max(c) as f64,
                    DimSel::Numel => (r * c) as f64,
                })
            }
            SExpr::OwnElem => None,
            SExpr::Neg(e) => Some(-self.eval(e)?),
            SExpr::Not(e) => Some(f64::from(self.eval(e)? == 0.0)),
            SExpr::Bin(op, a, b) => Some(op.eval(self.eval(a)?, self.eval(b)?)),
            SExpr::Call(f, args) => {
                let vals: Option<Vec<f64>> = args.iter().map(|a| self.eval(a)).collect();
                Some(f.eval(&vals?))
            }
        }
    }

    pub(crate) fn eval_index0(&self, e: &SExpr) -> Option<u64> {
        let v = self.eval(e)?;
        (v >= 1.0 && v.fract() == 0.0).then(|| v as u64 - 1)
    }

    /// The run-time's `(dist_extent, item_width)` for a variable:
    /// vectors distribute over their elements, matrices over rows.
    /// Vector-ness is decided at the concrete sample dimensions —
    /// exactly what the run will see. `None` when undecidable.
    fn extent_width(&self, v: Slot) -> Option<(Dim, Dim)> {
        let s = self.shape(v);
        let (r, c) = (s.rows.concrete()?, s.cols.concrete()?);
        if r == 1 || c == 1 {
            Some((s.numel(), Dim::Known(1)))
        } else {
            Some((s.rows, s.cols))
        }
    }

    /// Concrete vector-ness (`rows == 1 || cols == 1` at sample dims).
    pub(crate) fn is_vector(&self, v: Slot) -> Option<bool> {
        let s = self.shape(v);
        Some(s.rows.concrete()? == 1 || s.cols.concrete()? == 1)
    }

    pub(crate) fn numel(&self, v: Slot) -> Dim {
        self.shape(v).numel()
    }
}

/// Allgather of a block-distributed `extent × width` object: the
/// run-time's `gather_all` (gather to 0, then broadcast the flattened
/// parts array).
fn allgather(extent: Dim, width: Dim) -> Vec<Atom> {
    vec![
        Atom::Gather {
            extent,
            width,
            root: Root::Zero,
        },
        Atom::BcastFlat { extent, width },
    ]
}

/// Allreduce of `len` doubles: tree reduce to 0 + tree broadcast.
fn allreduce(len: Dim) -> Vec<Atom> {
    vec![Atom::Reduce { len }, Atom::Bcast { len }]
}

/// Communication of `matmul(a, b)`, mirroring `matmul_impl`'s
/// shape-based dispatch in the run-time library.
fn matmul_model(cx: &Scope, a: Slot, b: Slot) -> Model {
    let atoms = |v: Vec<Atom>| Model::Atoms(v);
    let (sa, sb) = (cx.shape(a), cx.shape(b));
    let Some((m, kk)) = sa.concrete() else {
        return Model::Unknown;
    };
    let Some((kb, n)) = sb.concrete() else {
        return Model::Unknown;
    };
    if kk != kb {
        return Model::Unknown; // the run-time would abort
    }
    // Mirror `matmul_impl`'s dispatch.
    if kk == 1 && (m == 1 || n == 1) {
        // Scalar scaling via one owner broadcast.
        atoms(vec![Atom::Bcast { len: Dim::Known(1) }])
    } else if kk == 1 && m > 1 && n > 1 {
        // Outer product: allgather the row-vector operand.
        atoms(allgather(cx.numel(b), Dim::Known(1)))
    } else if m == 1 {
        // (1×k)·(k×n): allgather x, local partials, allreduce.
        let mut v = allgather(cx.numel(a), Dim::Known(1));
        v.extend(allreduce(sb.cols));
        atoms(v)
    } else if n == 1 {
        // (m×k)·(k×1) is a matvec: allgather x.
        atoms(allgather(cx.numel(b), Dim::Known(1)))
    } else {
        atoms(vec![Atom::Ring {
            kk: sa.cols,
            n: sb.cols,
        }])
    }
}

/// Communication of a column reduction of `m`: one allreduce of the
/// per-column partials (a single scalar for a vector).
fn col_reduce_model(cx: &Scope, m: Slot) -> Model {
    match cx.is_vector(m) {
        Some(true) => Model::Atoms(allreduce(Dim::Known(1))),
        Some(false) => Model::Atoms(allreduce(cx.shape(m).cols)),
        None => Model::Unknown,
    }
}

/// Build the communication model of one leaf instruction, mirroring
/// the run-time library's dispatch.
fn model_of(i: &Instr, cx: &Scope) -> Model {
    let atoms = |v: Vec<Atom>| Model::Atoms(v);
    let free = Model::Atoms(Vec::new());
    match i {
        // Pure local / replicated work.
        Instr::AssignScalar { .. }
        | Instr::InitMatrix { .. }
        | Instr::CopyMatrix { .. }
        | Instr::StoreElem { .. }
        | Instr::ExtractCol { .. }
        | Instr::AssignCol { .. }
        | Instr::FillRow { .. }
        | Instr::FillCol { .. }
        | Instr::FillRange { .. }
        | Instr::Free { .. } => free,

        // A loop communicates only through its generator leaves, each
        // exactly as the producer it was fused from.
        Instr::ElemWise { expr, .. } => {
            let producers = expr.generators().into_iter().map(|(t, g)| g.producer(t));
            sequence_model(producers, cx)
        }

        Instr::LoadFile { dst, .. } => match cx.extent_width(*dst) {
            Some((extent, width)) => atoms(vec![
                Atom::Bcast { len: Dim::Known(2) },
                Atom::Scatter { extent, width },
            ]),
            None => Model::Unknown,
        },

        // A fused loop communicates exactly as its unfused sequence.
        Instr::Fused(f) => sequence_model(f.unfused(cx.vars), cx),

        Instr::MatMul { a, b, .. } => matmul_model(cx, *a, *b),

        Instr::MatVec { x, .. } => atoms(allgather(cx.numel(*x), Dim::Known(1))),

        Instr::Outer { v, .. } => atoms(allgather(cx.numel(*v), Dim::Known(1))),

        Instr::Transpose { a, .. } => match cx.is_vector(*a) {
            Some(true) => free, // orientation flip, same element blocks
            Some(false) => {
                let s = cx.shape(*a);
                atoms(vec![Atom::Transpose {
                    m: s.rows,
                    n: s.cols,
                }])
            }
            None => Model::Unknown,
        },

        Instr::BroadcastElem { .. } => atoms(vec![Atom::Bcast { len: Dim::Known(1) }]),

        Instr::Reduce { op, m, .. } => match op {
            RedOp::Trapz => {
                let mut v = vec![Atom::HaloRight { len: cx.numel(*m) }];
                v.extend(allreduce(Dim::Known(1)));
                atoms(v)
            }
            _ => atoms(allreduce(Dim::Known(1))),
        },

        Instr::Dot { .. } => atoms(allreduce(Dim::Known(1))),

        Instr::TrapzXY { x, .. } => {
            let len = cx.numel(*x);
            let mut v = vec![Atom::HaloRight { len }, Atom::HaloRight { len }];
            v.extend(allreduce(Dim::Known(1)));
            atoms(v)
        }

        Instr::ColReduce { m, .. } => col_reduce_model(cx, *m),

        Instr::Shift { v, k, .. } => atoms(vec![Atom::ShiftSeg {
            len: cx.numel(*v),
            k: cx
                .eval(k)
                .and_then(|v| (v.fract() == 0.0).then_some(v as i64)),
        }]),

        Instr::ExtractRow { m, .. } => atoms(vec![Atom::Bcast {
            len: cx.shape(*m).cols,
        }]),

        Instr::AssignRow { m, i, v } => atoms(vec![Atom::Gather {
            extent: cx.numel(*v),
            width: Dim::Known(1),
            root: Root::Owner {
                extent: cx.shape(*m).rows,
                index: cx.eval_index0(i),
            },
        }]),

        Instr::ExtractRange { v, lo, hi, .. } => atoms(vec![Atom::RangeSeg {
            len: cx.numel(*v),
            lo: cx.eval_index0(lo),
            // 1-based inclusive `hi` is the 0-based half-open bound.
            hi: cx
                .eval(hi)
                .and_then(|h| (h >= 0.0 && h.fract() == 0.0).then_some(h as u64)),
        }]),

        Instr::ExtractStrided { v, .. } => atoms(allgather(cx.numel(*v), Dim::Known(1))),
        Instr::AssignRange { v, .. } => atoms(allgather(cx.numel(*v), Dim::Known(1))),

        Instr::Print { target, .. } => match target {
            PrintTarget::Scalar(_) => free,
            PrintTarget::Matrix(m) => {
                // Scalars display without a gather; matrices gather to
                // rank 0 for rendering.
                if cx.vars[*m].rank == VarRank::Scalar {
                    return free;
                }
                match cx.extent_width(*m) {
                    Some((extent, width)) => atoms(vec![Atom::Gather {
                        extent,
                        width,
                        root: Root::Zero,
                    }]),
                    None => Model::Unknown,
                }
            }
        },

        // Control flow / calls are not leaf sites.
        Instr::If { .. }
        | Instr::While { .. }
        | Instr::For { .. }
        | Instr::Break
        | Instr::Continue
        | Instr::Call { .. } => free,
    }
}

/// The communication of a straight-line sequence: its steps in order.
fn sequence_model(seq: impl IntoIterator<Item = Instr>, cx: &Scope) -> Model {
    let mut all = Vec::new();
    for i in seq {
        match model_of(&i, cx) {
            Model::Atoms(v) => all.extend(v),
            Model::Unknown => return Model::Unknown,
        }
    }
    Model::Atoms(all)
}

/// Does this body contain a `break`/`continue` governed by the
/// *current* loop (i.e. not nested inside an inner loop)?
fn has_loop_escape(body: &[Instr]) -> bool {
    body.iter().any(|i| match i {
        Instr::Break | Instr::Continue => true,
        Instr::If {
            then_body,
            else_body,
            ..
        } => has_loop_escape(then_body) || has_loop_escape(else_body),
        // An inner loop swallows its own breaks.
        Instr::While { .. } | Instr::For { .. } => false,
        _ => false,
    })
}

/// Static trip count of a counted loop, mirroring the executor's
/// `for` semantics.
fn trip_count(cx: &Scope, start: &SExpr, step: &SExpr, stop: &SExpr) -> Option<u64> {
    let (start, step, stop) = (cx.eval(start)?, cx.eval(step)?, cx.eval(stop)?);
    if step == 0.0 {
        return None;
    }
    let n = ((stop - start) / step).floor() + 1.0;
    Some(if n < 0.0 { 0 } else { n as u64 })
}

fn walk_scope(body: &[Instr], mult: Option<u64>, cx: &Scope, out: &mut Vec<(Option<u64>, Model)>) {
    for i in body {
        match i {
            Instr::If {
                cond,
                then_body,
                else_body,
            } => {
                // A constant condition keeps the taken branch static
                // and proves the other never runs.
                let (then_mult, else_mult) = match cx.eval(cond) {
                    Some(c) if c != 0.0 => (mult, Some(0)),
                    Some(_) => (Some(0), mult),
                    None => (None, None),
                };
                walk_scope(then_body, then_mult, cx, out);
                walk_scope(else_body, else_mult, cx, out);
            }
            Instr::While { pre, body, .. } => {
                // Trips are data-dependent; `pre` runs once more than
                // the body. Both are dynamic.
                walk_scope(pre, None, cx, out);
                walk_scope(body, None, cx, out);
            }
            Instr::For {
                start,
                step,
                stop,
                body,
                ..
            } => {
                let trips = if has_loop_escape(body) {
                    None
                } else {
                    trip_count(cx, start, step, stop)
                };
                let inner = match (mult, trips) {
                    (Some(m), Some(t)) => Some(m * t),
                    _ => None,
                };
                walk_scope(body, inner, cx, out);
            }
            Instr::Call { .. } | Instr::Break | Instr::Continue => {}
            leaf => out.push((mult, model_of(leaf, cx))),
        }
    }
}

/// Inference records shapes for *named* variables; lowering temps
/// (`ML_tmp*`) have a rank but no shape. This forward pass derives the
/// missing ones structurally — constructors evaluate their dimension
/// expressions, shape-preserving and shape-combining ops propagate —
/// so the oracle and shape lints see through temp chains like
/// `transpose(range(1, 1, n))`. Conservative: a shape is recorded only
/// when every input resolves; nothing already known is overwritten.
/// The result is indexed by slot.
pub fn refined_shapes(frame: &Frame) -> Vec<Option<Shape>> {
    let mut cx = Scope {
        vars: &frame.vars,
        shapes: frame.vars.iter().map(|(_, v)| v.shape).collect(),
    };
    let refine = |i: &Instr, cx: &mut Scope| {
        if let (Some(dst), Some((r, c))) = (i.dst(), derived_shape(i, cx)) {
            cx.shapes[dst.index()].get_or_insert(Shape::known(r, c));
        }
    };
    for (i, _) in preorder(&frame.body) {
        match i {
            Instr::Fused(f) => f.unfused(cx.vars).iter().for_each(|i| refine(i, &mut cx)),
            _ => refine(i, &mut cx),
        }
    }
    cx.shapes
}

/// The concrete shape `i` gives its destination, when its inputs'
/// shapes resolve.
fn derived_shape(i: &Instr, cx: &Scope) -> Option<(usize, usize)> {
    let ev = |e: &SExpr| cx.eval(e).filter(|v| *v >= 0.0).map(|v| v as usize);
    let dims = |v: &Slot| cx.shape(*v).concrete();
    match i {
        Instr::InitMatrix { init, .. } => match init {
            MatInit::Zeros { rows, cols }
            | MatInit::Ones { rows, cols }
            | MatInit::Rand { rows, cols } => ev(rows).zip(ev(cols)),
            MatInit::Eye { n } => ev(n).map(|n| (n, n)),
            MatInit::Range { start, step, stop } => {
                trip_count(cx, start, step, stop).map(|t| (1, t as usize))
            }
            MatInit::Literal { rows } => Some((rows.len(), rows.first().map_or(0, Vec::len))),
            MatInit::Linspace { n, .. } => ev(n).map(|n| (1, n)),
        },
        Instr::CopyMatrix { src, .. } => dims(src),
        Instr::Transpose { a, .. } => dims(a).map(|(r, c)| (c, r)),
        Instr::Shift { v, .. } => dims(v),
        // The loop's first operand, or else its first generator's
        // producer, gives the shape.
        Instr::ElemWise { expr, .. } => {
            let mut ops = Vec::new();
            expr.mat_operands(&mut ops);
            match (ops.first(), expr.generators().first()) {
                (Some(m), _) => dims(m),
                (None, Some((tmp, gen))) => derived_shape(&gen.producer(*tmp), cx),
                (None, None) => None,
            }
        }
        Instr::MatMul { a, b, .. } => dims(a).zip(dims(b)).map(|((m, _), (_, n))| (m, n)),
        Instr::MatVec { a, .. } => dims(a).map(|(m, _)| (m, 1)),
        Instr::Outer { u, v, .. } => dims(u)
            .zip(dims(v))
            .map(|((ur, uc), (vr, vc))| (ur * uc, vr * vc)),
        Instr::ExtractRow { m, .. } => dims(m).map(|(_, c)| (1, c)),
        Instr::ExtractCol { m, .. } => dims(m).map(|(r, _)| (r, 1)),
        _ => None,
    }
}

/// Predict every leaf site of a program, in [`leaf_sites`] order.
pub fn predict(prog: &IrProgram) -> Vec<SitePrediction> {
    let mut raw: Vec<(Option<u64>, Model)> = Vec::new();
    for f in prog.frames() {
        // Function bodies execute once per call; call counts are not
        // modeled statically.
        let mult = f.func().is_none().then_some(1);
        walk_scope(&f.body, mult, &Scope::new(f), &mut raw);
    }

    let sites = leaf_sites(prog);
    assert_eq!(
        sites.len(),
        raw.len(),
        "oracle walk and site enumeration disagree"
    );
    sites
        .iter()
        .zip(raw)
        .map(|(s, (mult, model))| SitePrediction {
            site: s.id,
            func: s.func.map(str::to_string),
            opcode: s.instr.opcode(),
            loop_depth: s.loop_depth,
            execs: match mult {
                Some(n) => Execs::Static(n),
                None => Execs::Dynamic,
            },
            model,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use otter_ir::by_name::*;
    use otter_ir::MatInit;

    /// Give `pairs` their shapes in `frame`.
    fn shape(frame: &mut Frame, pairs: &[(&str, usize, usize)]) {
        for &(n, r, c) in pairs {
            frame.vars[v(n)].shape = Some(Shape::known(r, c));
        }
    }

    #[test]
    fn allreduce_model_matches_tree_collectives() {
        let m = Model::Atoms(allreduce(Dim::Known(1)));
        for p in [1usize, 2, 4, 8] {
            let c = m.per_exec(p).unwrap();
            assert_eq!(c.messages, 2 * (p as u64 - 1));
            assert_eq!(c.bytes, 16 * (p as u64 - 1));
        }
    }

    #[test]
    fn allgather_counts_uneven_blocks() {
        // 96 elements over 8 ranks: rank 0 owns 12; gather moves
        // 96-12, the flat broadcast moves (1+8+96) to 7 ranks.
        let m = Model::Atoms(allgather(Dim::Known(96), Dim::Known(1)));
        let c = m.per_exec(8).unwrap();
        assert_eq!(c.messages, 14);
        assert_eq!(c.bytes, 8 * ((96 - 12) + 7 * (1 + 8 + 96)));
    }

    #[test]
    fn ring_and_shift_are_exact_at_small_p() {
        let ring = Atom::Ring {
            kk: Dim::Known(48),
            n: Dim::Known(48),
        };
        assert_eq!(
            ring.eval(4).unwrap(),
            SiteCost {
                messages: 12,
                bytes: 8 * 3 * 48 * 48
            }
        );
        // circshift by ±1 of a long vector: every rank sends exactly
        // one boundary element.
        for k in [-1i64, 1] {
            let shift = Atom::ShiftSeg {
                len: Dim::Known(256),
                k: Some(k),
            };
            for p in [2usize, 4, 8] {
                assert_eq!(
                    shift.eval(p).unwrap(),
                    SiteCost {
                        messages: p as u64,
                        bytes: 8 * p as u64
                    },
                    "k={k} p={p}"
                );
            }
        }
        // Shift by a multiple of n is a no-op.
        let noop = Atom::ShiftSeg {
            len: Dim::Known(16),
            k: Some(16),
        };
        assert_eq!(noop.eval(4).unwrap(), SiteCost::default());
    }

    #[test]
    fn everything_is_free_at_p1() {
        let atoms = [
            Atom::Bcast { len: Dim::Known(9) },
            Atom::Gather {
                extent: Dim::Known(9),
                width: Dim::Known(3),
                root: Root::Zero,
            },
            Atom::Ring {
                kk: Dim::Known(9),
                n: Dim::Known(9),
            },
            Atom::Transpose {
                m: Dim::Known(9),
                n: Dim::Known(9),
            },
            Atom::HaloRight { len: Dim::Known(9) },
            Atom::ShiftSeg {
                len: Dim::Known(9),
                k: Some(2),
            },
            Atom::RangeSeg {
                len: Dim::Known(9),
                lo: Some(2),
                hi: Some(7),
            },
        ];
        for a in atoms {
            assert_eq!(a.eval(1).unwrap(), SiteCost::default(), "{a:?}");
        }
    }

    #[test]
    fn static_trip_counts_multiply_through_nests() {
        let mut prog = program(vec![Instr::For {
            var: v("i"),
            start: SExpr::c(1.0),
            step: SExpr::c(1.0),
            stop: SExpr::c(4.0),
            body: vec![Instr::For {
                var: v("j"),
                start: SExpr::c(1.0),
                step: SExpr::c(2.0),
                stop: SExpr::c(10.0),
                body: vec![Instr::Dot {
                    dst: v("s"),
                    a: v("a"),
                    b: v("b"),
                }],
            }],
        }]);
        shape(&mut prog.main, &[("a", 1, 8), ("b", 1, 8)]);
        let preds = predict(&prog);
        assert_eq!(preds.len(), 1);
        assert_eq!(preds[0].execs, Execs::Static(20));
        assert_eq!(
            preds[0].model.per_exec(4).unwrap(),
            SiteCost {
                messages: 6,
                bytes: 48
            }
        );
    }

    #[test]
    fn breaks_and_whiles_force_dynamic() {
        let prog = program(vec![
            Instr::For {
                var: v("i"),
                start: SExpr::c(1.0),
                step: SExpr::c(1.0),
                stop: SExpr::c(4.0),
                body: vec![
                    Instr::Dot {
                        dst: v("s"),
                        a: v("a"),
                        b: v("b"),
                    },
                    Instr::Break,
                ],
            },
            Instr::While {
                pre: vec![Instr::Reduce {
                    dst: v("n"),
                    op: RedOp::Norm2,
                    m: v("a"),
                }],
                cond: var("n"),
                body: vec![],
            },
        ]);
        let preds = predict(&prog);
        assert_eq!(preds.len(), 2);
        assert!(preds.iter().all(|s| s.execs == Execs::Dynamic));
    }

    #[test]
    fn constant_conditions_keep_static_counts() {
        let prog = program(vec![Instr::If {
            cond: SExpr::c(0.0),
            then_body: vec![Instr::Dot {
                dst: v("s"),
                a: v("a"),
                b: v("b"),
            }],
            else_body: vec![Instr::Dot {
                dst: v("t"),
                a: v("a"),
                b: v("b"),
            }],
        }]);
        let preds = predict(&prog);
        assert_eq!(preds[0].execs, Execs::Static(0));
        assert_eq!(preds[1].execs, Execs::Static(1));
    }

    #[test]
    fn function_sites_are_dynamic_and_enumerated_after_main() {
        let body = vec![Instr::Dot {
            dst: v("s"),
            a: v("a"),
            b: v("b"),
        }];
        let mut f = Frame {
            name: "helper".into(),
            ..frame(body)
        };
        shape(&mut f, &[("a", 1, 4), ("b", 1, 4)]);
        let mut prog = program(vec![Instr::InitMatrix {
            dst: v("z"),
            init: MatInit::Eye { n: SExpr::c(4.0) },
        }]);
        prog.functions.insert("helper".into(), f);
        let preds = predict(&prog);
        assert_eq!(preds.len(), 2);
        assert_eq!(preds[0].func, None);
        assert!(preds[0].model.is_free());
        assert_eq!(preds[1].func.as_deref(), Some("helper"));
        assert_eq!(preds[1].execs, Execs::Dynamic);
    }

    #[test]
    fn matmul_dispatch_mirrors_runtime_paths() {
        let cases: [(&str, usize, usize, usize, usize); 3] = [
            // general ring
            ("ring", 48, 48, 48, 48),
            // matvec path (k×1 rhs)
            ("matvec", 8, 8, 8, 1),
            // outer path (m×1 · 1×n)
            ("outer", 8, 1, 1, 8),
        ];
        for (what, m, k, k2, n) in cases {
            let mut prog = program(vec![Instr::MatMul {
                dst: v("c"),
                a: v("a"),
                b: v("b"),
            }]);
            shape(&mut prog.main, &[("a", m, k), ("b", k2, n)]);
            let pred = &predict(&prog)[0];
            let c = pred.model.per_exec(4).unwrap();
            match what {
                "ring" => assert_eq!(c.messages, 12, "{what}"),
                // allgather = gather + flat broadcast
                _ => assert_eq!(c.messages, 6, "{what}"),
            }
        }
    }

    #[test]
    fn formulas_render_symbolically() {
        let n = Dim::sym("f.dat:cols", Some(256));
        let m = Model::Atoms(allreduce(n));
        assert_eq!(m.messages_formula(), "2*(p-1)");
        assert_eq!(m.bytes_formula(), "2*8*f.dat:cols*(p-1)");
        assert_eq!(Model::Unknown.messages_formula(), "?");
        assert_eq!(Model::Atoms(vec![]).bytes_formula(), "0");
    }
}
