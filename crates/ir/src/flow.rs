//! Dataflow facts about IR instructions: what each instruction reads,
//! what it writes, and what communication it performs.
//!
//! These used to live inside the peephole pass; they are shared here
//! because three consumers need identical answers — the peephole
//! rewrites (pass 6), the temporary de-allocation pass, and the lint
//! analyses — and a disagreement between them would be a miscompile
//! or a false diagnostic.

use crate::frame::Slot;
use crate::instr::*;

/// Collect every variable a scalar expression reads, including the
/// matrices whose dimensions it queries via [`SExpr::DimOf`].
pub fn sexpr_reads(e: &SExpr, out: &mut Vec<Slot>) {
    e.vars(out);
    collect_dimof(e, out);
}

fn collect_dimof(e: &SExpr, out: &mut Vec<Slot>) {
    match e {
        SExpr::DimOf { var, .. } => out.push(*var),
        SExpr::Neg(x) | SExpr::Not(x) => collect_dimof(x, out),
        SExpr::Bin(_, a, b) => {
            collect_dimof(a, out);
            collect_dimof(b, out);
        }
        SExpr::Call(_, args) => {
            for a in args {
                collect_dimof(a, out);
            }
        }
        SExpr::Const(_) | SExpr::Var(_) | SExpr::OwnElem => {}
    }
}

/// Reads of an element-wise tree besides its aligned matrix operands:
/// its scalar leaves' inputs, and the vectors and sizes its generator
/// leaves read.
fn collect_ew_scalars(e: &EwExpr, out: &mut Vec<Slot>) {
    e.leaves(&mut |leaf| match leaf {
        EwExpr::Scalar(s) => sexpr_reads(s, out),
        EwExpr::Gen { gen, .. } => match &**gen {
            Generator::Outer { u, v } => out.extend([*u, *v]),
            Generator::Eye { n } => sexpr_reads(n, out),
        },
        EwExpr::Mat(_) | EwExpr::Neg(_) | EwExpr::Not(_) | EwExpr::Bin(..) | EwExpr::Call(..) => {}
    });
}

/// Whether a loop generates an outer product, which gathers a factor.
fn gathers(expr: &EwExpr) -> bool {
    expr.generators()
        .iter()
        .any(|(_, g)| matches!(g, Generator::Outer { .. }))
}

/// What communication an instruction performs when executed, matching
/// the run-time library's implementation of each `ML_*` call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommProfile {
    /// All ranks enter a collective (broadcast, gather, allreduce,
    /// scatter). Every rank must reach the call or the rest hang.
    pub collective: bool,
    /// The op emits matched point-to-point sends/receives between
    /// rank pairs (transpose, circular shift, range redistribution,
    /// the matmul ring).
    pub point_to_point: bool,
}

impl CommProfile {
    pub const LOCAL: CommProfile = CommProfile {
        collective: false,
        point_to_point: false,
    };
    pub const COLLECTIVE: CommProfile = CommProfile {
        collective: true,
        point_to_point: false,
    };
    pub const POINT_TO_POINT: CommProfile = CommProfile {
        collective: false,
        point_to_point: true,
    };

    /// Does the op communicate at all?
    pub fn communicates(&self) -> bool {
        self.collective || self.point_to_point
    }
}

/// `Some(dst)` for the instructions with one sole destination, by
/// shared or mutable reference alike (`$borrow` is `&` or `&mut`): the
/// one variant list behind [`Instr::dst`] and [`Instr::dst_mut`].
macro_rules! sole_dst {
    ($instr:expr, $($borrow:tt)+) => {
        match $instr {
            Instr::InitMatrix { dst, .. }
            | Instr::CopyMatrix { dst, .. }
            | Instr::LoadFile { dst, .. }
            | Instr::ElemWise { dst, .. }
            | Instr::MatMul { dst, .. }
            | Instr::MatVec { dst, .. }
            | Instr::Outer { dst, .. }
            | Instr::Transpose { dst, .. }
            | Instr::BroadcastElem { dst, .. }
            | Instr::Reduce { dst, .. }
            | Instr::Dot { dst, .. }
            | Instr::TrapzXY { dst, .. }
            | Instr::ColReduce { dst, .. }
            | Instr::Shift { dst, .. }
            | Instr::ExtractRow { dst, .. }
            | Instr::ExtractCol { dst, .. }
            | Instr::ExtractRange { dst, .. }
            | Instr::ExtractStrided { dst, .. }
            | Instr::AssignScalar { dst, .. } => Some(dst),
            Instr::Fused(f) => match $($borrow)+ f.tail {
                Tail::Store { dst } | Tail::Reduce { dst, .. } | Tail::ColReduce { dst, .. } => {
                    Some(dst)
                }
            },
            _ => None,
        }
    };
}

impl Instr {
    /// The variable a simple instruction writes (its sole
    /// destination), if any. In-place mutations (`StoreElem`,
    /// `AssignRow`, fills) are *not* destinations — see
    /// [`Instr::defs`].
    pub fn dst(&self) -> Option<Slot> {
        sole_dst!(self, &).copied()
    }

    /// Mutable access to the destination, for retargeting rewrites.
    pub fn dst_mut(&mut self) -> Option<&mut Slot> {
        sole_dst!(self, &mut)
    }

    /// Every variable this instruction (re)defines or mutates at this
    /// level: the plain destination, in-place targets (`m(i,j) = v`
    /// writes into `m`), loop induction variables, and call outputs.
    /// Does *not* recurse into nested bodies.
    pub fn defs(&self, out: &mut Vec<Slot>) {
        out.extend(self.dst());
        match self {
            Instr::StoreElem { m, .. }
            | Instr::AssignRow { m, .. }
            | Instr::AssignCol { m, .. }
            | Instr::FillRow { m, .. }
            | Instr::FillCol { m, .. }
            | Instr::FillRange { m, .. }
            | Instr::AssignRange { m, .. } => out.push(*m),
            Instr::For { var, .. } => out.push(*var),
            Instr::Call { outs, .. } => out.extend(outs),
            _ => {}
        }
    }

    /// All variables this instruction *reads* (conservatively
    /// includes nested blocks).
    pub fn reads(&self, out: &mut Vec<Slot>) {
        let sexpr = sexpr_reads;
        match self {
            Instr::AssignScalar { src, .. } => sexpr(src, out),
            Instr::InitMatrix { init, .. } => match init {
                MatInit::Zeros { rows, cols }
                | MatInit::Ones { rows, cols }
                | MatInit::Rand { rows, cols } => {
                    sexpr(rows, out);
                    sexpr(cols, out);
                }
                MatInit::Eye { n } => sexpr(n, out),
                MatInit::Range { start, step, stop } => {
                    sexpr(start, out);
                    sexpr(step, out);
                    sexpr(stop, out);
                }
                MatInit::Literal { rows } => {
                    for r in rows {
                        for c in r {
                            sexpr(c, out);
                        }
                    }
                }
                MatInit::Linspace { a, b, n } => {
                    sexpr(a, out);
                    sexpr(b, out);
                    sexpr(n, out);
                }
            },
            Instr::CopyMatrix { src, .. } => out.push(*src),
            Instr::LoadFile { .. } => {}
            Instr::ElemWise { expr, .. } => {
                expr.mat_operands(out);
                collect_ew_scalars(expr, out);
            }
            Instr::MatMul { a, b, .. } | Instr::Dot { a, b, .. } => {
                out.push(*a);
                out.push(*b);
            }
            Instr::MatVec { a, x, .. } => {
                out.push(*a);
                out.push(*x);
            }
            // The head's operands and the loop's, less the temporaries
            // that exist only inside the fused loop.
            Instr::Fused(f) => {
                match &f.head {
                    Some(Product::MatMul { a, b, .. }) => out.extend([*a, *b]),
                    Some(Product::MatVec { a, x, .. }) => out.extend([*a, *x]),
                    None => {}
                }
                let mut mats = Vec::new();
                f.expr.mat_operands(&mut mats);
                out.extend(mats.into_iter().filter(|&m| !f.temps().any(|t| t == m)));
                collect_ew_scalars(&f.expr, out);
            }
            Instr::Outer { u, v, .. } => {
                out.push(*u);
                out.push(*v);
            }
            Instr::Transpose { a, .. } => out.push(*a),
            Instr::BroadcastElem { m, i, j, .. } => {
                out.push(*m);
                sexpr(i, out);
                if let Some(j) = j {
                    sexpr(j, out);
                }
            }
            Instr::StoreElem { m, i, j, val } => {
                out.push(*m);
                sexpr(i, out);
                if let Some(j) = j {
                    sexpr(j, out);
                }
                sexpr(val, out);
            }
            Instr::Reduce { m, .. } | Instr::ColReduce { m, .. } => out.push(*m),
            Instr::TrapzXY { x, y, .. } => {
                out.push(*x);
                out.push(*y);
            }
            Instr::Shift { v, k, .. } => {
                out.push(*v);
                sexpr(k, out);
            }
            Instr::ExtractRow { m, i, .. } => {
                out.push(*m);
                sexpr(i, out);
            }
            Instr::ExtractCol { m, j, .. } => {
                out.push(*m);
                sexpr(j, out);
            }
            Instr::AssignRow { m, i, v } => {
                out.push(*m);
                sexpr(i, out);
                out.push(*v);
            }
            Instr::AssignCol { m, j, v } => {
                out.push(*m);
                sexpr(j, out);
                out.push(*v);
            }
            Instr::ExtractRange { v, lo, hi, .. } => {
                out.push(*v);
                sexpr(lo, out);
                sexpr(hi, out);
            }
            Instr::ExtractStrided {
                v, lo, step, hi, ..
            } => {
                out.push(*v);
                sexpr(lo, out);
                sexpr(step, out);
                sexpr(hi, out);
            }
            Instr::FillRow { m, i, val } => {
                out.push(*m);
                sexpr(i, out);
                sexpr(val, out);
            }
            Instr::FillCol { m, j, val } => {
                out.push(*m);
                sexpr(j, out);
                sexpr(val, out);
            }
            Instr::FillRange { m, lo, hi, val } => {
                out.push(*m);
                sexpr(lo, out);
                sexpr(hi, out);
                sexpr(val, out);
            }
            Instr::AssignRange { m, lo, hi, v } => {
                out.push(*m);
                sexpr(lo, out);
                sexpr(hi, out);
                out.push(*v);
            }
            Instr::If {
                cond,
                then_body,
                else_body,
            } => {
                sexpr(cond, out);
                for i in then_body.iter().chain(else_body) {
                    i.reads(out);
                }
            }
            Instr::While { pre, cond, body } => {
                sexpr(cond, out);
                for i in pre.iter().chain(body) {
                    i.reads(out);
                }
            }
            Instr::For {
                start,
                step,
                stop,
                body,
                ..
            } => {
                sexpr(start, out);
                sexpr(step, out);
                sexpr(stop, out);
                for i in body {
                    i.reads(out);
                }
            }
            Instr::Free { .. } | Instr::Break | Instr::Continue => {}
            Instr::Call { args, .. } => {
                for a in args {
                    match a {
                        Arg::Scalar(s) => sexpr(s, out),
                        Arg::Matrix(m) => out.push(*m),
                    }
                }
            }
            Instr::Print { target, .. } => match target {
                PrintTarget::Scalar(s) => sexpr(s, out),
                PrintTarget::Matrix(m) => out.push(*m),
            },
        }
    }

    /// Communication class of this single instruction (ignores nested
    /// bodies — control flow itself is replicated and communication
    /// free). The table mirrors `otter-rt`: which `ML_*` entry points
    /// call `broadcast`/`gather`/`allreduce`/`scatter` (collective)
    /// versus raw rank-pair `send`/`recv` (point-to-point).
    pub fn comm_profile(&self) -> CommProfile {
        match self {
            // Collectives: owner broadcast of an element or row,
            // allreduce-backed reductions, gather-backed vector ops,
            // scatter-backed file loads, gather-to-rank-0 printing.
            Instr::BroadcastElem { .. }
            | Instr::Reduce { .. }
            | Instr::Dot { .. }
            | Instr::TrapzXY { .. }
            | Instr::ColReduce { .. }
            | Instr::MatVec { .. }
            | Instr::Outer { .. }
            | Instr::ExtractRow { .. }
            | Instr::ExtractStrided { .. }
            | Instr::AssignRow { .. }
            | Instr::LoadFile { .. } => CommProfile::COLLECTIVE,
            Instr::Print {
                target: PrintTarget::Matrix(_),
                ..
            } => CommProfile::COLLECTIVE,
            // A generated outer product gathers its right factor.
            Instr::ElemWise { expr, .. } if gathers(expr) => CommProfile::COLLECTIVE,
            // A fused loop communicates as its head, its generators and
            // its fold do.
            Instr::Fused(f) => {
                let head = f.head.as_ref().map(|h| h.producer().comm_profile());
                let mut profile = head.unwrap_or(CommProfile::LOCAL);
                profile.collective |= gathers(&f.expr) || f.tail.tmp().is_some();
                profile
            }
            // Point-to-point redistribution between rank pairs.
            Instr::Transpose { .. } | Instr::Shift { .. } | Instr::ExtractRange { .. } => {
                CommProfile::POINT_TO_POINT
            }
            // Matmul allreduces partial tiles on one path and runs a
            // send/recv ring on the other.
            Instr::MatMul { .. } => CommProfile {
                collective: true,
                point_to_point: true,
            },
            _ => CommProfile::LOCAL,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::by_name::*;

    #[test]
    fn dst_and_defs_cover_inplace_targets() {
        let store = Instr::StoreElem {
            m: v("a"),
            i: SExpr::c(1.0),
            j: Some(SExpr::c(2.0)),
            val: SExpr::c(7.0),
        };
        assert_eq!(store.dst(), None);
        let mut defs = Vec::new();
        store.defs(&mut defs);
        assert_eq!(defs, vec![v("a")]);

        let mm = Instr::MatMul {
            dst: v("c"),
            a: v("a"),
            b: v("b"),
        };
        assert_eq!(mm.dst(), Some(v("c")));
    }

    #[test]
    fn reads_include_dimof_and_ew_scalars() {
        let i = Instr::ElemWise {
            dst: v("d"),
            expr: EwExpr::bin(
                EwOp::Mul,
                mat("x"),
                EwExpr::Scalar(SExpr::bin(
                    SBinOp::Add,
                    var("s"),
                    SExpr::DimOf {
                        var: v("m"),
                        sel: DimSel::Rows,
                    },
                )),
            ),
        };
        let mut reads = Vec::new();
        i.reads(&mut reads);
        assert_eq!(reads, vec![v("x"), v("s"), v("m")]);
    }

    #[test]
    fn comm_profile_classification() {
        let reduce = Instr::Reduce {
            dst: v("s"),
            op: RedOp::Fold(ColRedOp::Sum),
            m: v("a"),
        };
        assert!(reduce.comm_profile().collective);
        let shift = Instr::Shift {
            dst: v("d"),
            v: v("v"),
            k: SExpr::c(1.0),
        };
        assert!(shift.comm_profile().point_to_point);
        assert!(!shift.comm_profile().collective);
        let ew = Instr::ElemWise {
            dst: v("d"),
            expr: mat("a"),
        };
        assert!(!ew.comm_profile().communicates());
        let mm = Instr::MatMul {
            dst: v("c"),
            a: v("a"),
            b: v("b"),
        };
        assert!(mm.comm_profile().collective && mm.comm_profile().point_to_point);
    }
}
