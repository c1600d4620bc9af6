//! SPMD execution of compiled IR.
//!
//! One [`Executor`] runs per rank, exactly like the generated C
//! program would run per MPI process. It runs the artifact's
//! [`IrProgram`], in which every variable is a slot of its frame, as every
//! variable of the C is a declared local: replicated scalars and
//! `otter-rt` [`DistMatrix`] objects live in those slots, and every
//! communication-bearing instruction calls the run-time library, which
//! talks MPI (here: `otter-mpi`).
//!
//! The executor charges compiled-code ("Otter") cost coefficients to
//! the rank's virtual clock: a tiny dispatch charge per instruction
//! plus a run-time-library call overhead, with element work charged
//! inside the run-time library itself.
//!
//! Element-wise loops, `ElemWise` and `Fused` alike, run through one
//! entry, `exec_loop`, and are strip-mined: `compile_ew` flattens the
//! expression tree into a postfix `EwProgram` at the loop's first
//! execution, and every execution runs it over 256-lane strips, one
//! tight loop per node, on the executor's stack of strip registers.
//! Every lane performs the same IEEE operations, in the same order, as
//! the per-element tree walk it replaced, so the bits are unchanged
//! (DESIGN.md §17).

use crate::error::{OtterError, Result};
use otter_det::DetRng;
use otter_ir::*;
use otter_machine::{ExecutionStyle, StyleCosts};
use otter_mpi::{Comm, CommError, Event, Note, ReduceOp};
use otter_rt::{io as rtio, ColOp, Dense, DistMatrix, Generated, LayoutError, LoadError};
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::rc::Rc;

/// Why one rank's execution stopped early: an application-level error
/// (undefined variable, bad index — the same on every rank, SPMD) or a
/// communication failure that must abort the whole job and reach the
/// launcher as typed data, not a formatted string.
#[derive(Debug, Clone)]
pub enum ExecError {
    /// Program-level failure; every rank raises the identical one.
    App(OtterError),
    /// Communication failure (deadlock, dead peer, injected fault).
    Comm(CommError),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::App(e) => e.fmt(f),
            ExecError::Comm(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<OtterError> for ExecError {
    fn from(e: OtterError) -> Self {
        ExecError::App(e)
    }
}

impl From<CommError> for ExecError {
    fn from(e: CommError) -> Self {
        ExecError::Comm(e)
    }
}

impl From<LoadError> for ExecError {
    fn from(e: LoadError) -> Self {
        match e {
            LoadError::App(msg) => ExecError::App(OtterError::execution(msg)),
            LoadError::Comm(c) => ExecError::Comm(c),
        }
    }
}

impl From<LayoutError> for ExecError {
    fn from(e: LayoutError) -> Self {
        ExecError::App(OtterError::execution(e.to_string()))
    }
}

impl From<ExecError> for OtterError {
    fn from(e: ExecError) -> Self {
        match e {
            ExecError::App(e) => e,
            ExecError::Comm(c) => c.into(),
        }
    }
}

/// Result of the fallible executor paths (instructions that may hit a
/// communication failure in addition to application errors).
pub type ExecResult<T> = std::result::Result<T, ExecError>;

/// A run-time value: replicated scalar or distributed matrix.
#[derive(Debug, Clone)]
pub enum XVal {
    S(f64),
    M(DistMatrix),
}

impl XVal {
    pub fn as_scalar(&self) -> Option<f64> {
        match self {
            XVal::S(v) => Some(*v),
            XVal::M(_) => None,
        }
    }

    pub fn as_matrix(&self) -> Option<&DistMatrix> {
        match self {
            XVal::M(m) => Some(m),
            XVal::S(_) => None,
        }
    }

    /// The bytes this rank holds of the value, as the workspace peak
    /// counts them.
    fn bytes(&self) -> usize {
        match self {
            XVal::M(m) => m.local_els() * std::mem::size_of::<f64>(),
            XVal::S(_) => std::mem::size_of::<f64>(),
        }
    }
}

/// Why a block stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flow {
    Normal,
    Break,
    Continue,
}

/// Seed for `rand` matrix initializers (replicated across ranks so
/// every rank agrees on the data).
const RAND_SEED: u64 = 0x07732;

/// Options controlling one SPMD execution.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    pub data_dir: Option<PathBuf>,
    /// Record per-site communication (messages/bytes/executions per
    /// leaf instruction in [`otter_ir::leaf_sites`] order) so the
    /// static oracle's predictions can be cross-validated against the
    /// realized traffic.
    pub analyze: bool,
    /// Intra-rank kernel threads (the hybrid ranks × threads level).
    /// Never changes results — threads split disjoint output rows.
    pub threads: usize,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            data_dir: None,
            analyze: false,
            threads: 1,
        }
    }
}

/// Realized communication at one leaf site, accumulated over every
/// execution of that instruction on one rank.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SiteComm {
    /// Messages this rank sent from this site.
    pub messages: u64,
    /// Bytes this rank sent from this site.
    pub bytes: u64,
    /// Times this rank executed the site.
    pub execs: u64,
}

/// One running frame: its values by [`Slot`], and the frame's slot
/// table, which names them in error messages. Everything that only
/// reads the frame lives here, so a handler can hold these borrows
/// while it passes the rank's `Comm` on mutably.
struct Locals<'p> {
    vars: &'p Vars,
    vals: Vec<Option<XVal>>,
}

impl<'p> Locals<'p> {
    fn new(frame: &'p Frame) -> Self {
        Locals {
            vars: &frame.vars,
            vals: vec![None; frame.vars.len()],
        }
    }

    fn name(&self, s: Slot) -> &'p str {
        self.vars.name(s)
    }

    fn get(&self, s: Slot) -> Result<&XVal> {
        self.vals[s.index()].as_ref().ok_or_else(|| {
            OtterError::execution(format!("undefined IR variable `{}`", self.name(s)))
        })
    }

    fn mat(&self, s: Slot) -> Result<&DistMatrix> {
        self.get(s)?.as_matrix().ok_or_else(|| {
            OtterError::execution(format!("IR variable `{}` is not a matrix", self.name(s)))
        })
    }

    /// The bytes every value of the frame holds.
    fn bytes(&self) -> usize {
        self.vals.iter().flatten().map(XVal::bytes).sum()
    }

    fn eval(&self, e: &SExpr) -> Result<f64> {
        self.eval_own(e, None)
    }

    /// Evaluate a replicated scalar expression; `own` is the element an
    /// owner-guarded store overwrites.
    fn eval_own(&self, e: &SExpr, own: Option<f64>) -> Result<f64> {
        Ok(match e {
            SExpr::Const(v) => *v,
            SExpr::Var(s) => self.get(*s)?.as_scalar().ok_or_else(|| {
                OtterError::execution(format!("IR variable `{}` is not a scalar", self.name(*s)))
            })?,
            SExpr::DimOf { var, sel } => {
                let m = self.mat(*var)?;
                match sel {
                    DimSel::Rows => m.rows() as f64,
                    DimSel::Cols => m.cols() as f64,
                    DimSel::Length => m.rows().max(m.cols()) as f64,
                    DimSel::Numel => m.len() as f64,
                }
            }
            SExpr::OwnElem => {
                own.ok_or_else(|| OtterError::execution("OwnElem outside an owner guard"))?
            }
            SExpr::Neg(x) => -self.eval_own(x, own)?,
            SExpr::Not(x) => f64::from(self.eval_own(x, own)? == 0.0),
            SExpr::Bin(op, a, b) => op.eval(self.eval_own(a, own)?, self.eval_own(b, own)?),
            SExpr::Call(f, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval_own(a, own)?);
                }
                f.eval(&vals)
            }
        })
    }

    /// A 1-based MATLAB index to 0-based usize.
    fn index(&self, e: &SExpr) -> Result<usize> {
        let v = self.eval(e)?;
        if v < 1.0 || v.fract() != 0.0 {
            return Err(OtterError::execution(format!(
                "index {v} is not a positive integer"
            )));
        }
        Ok(v as usize - 1)
    }

    /// The 0-based `(row, col)` of element `(i, j)` of matrix `m`, or of
    /// its linear index `i` when there is no `j`.
    fn elem(&self, m: Slot, i: &SExpr, j: &Option<SExpr>) -> Result<(usize, usize)> {
        let mi = self.index(i)?;
        match j {
            Some(j) => Ok((mi, self.index(j)?)),
            None => linear_to_rc(self.mat(m)?, mi),
        }
    }

    fn check_aligned(&self, first: Slot, model: &DistMatrix, others: &[Slot]) -> Result<()> {
        for &n in others {
            let m = self.mat(n)?;
            if !m.aligned_with(model) {
                return Err(OtterError::execution(format!(
                    "element-wise operands `{}` and `{}` are not aligned \
                     ({}x{} vs {}x{})",
                    self.name(first),
                    self.name(n),
                    model.rows(),
                    model.cols(),
                    m.rows(),
                    m.cols()
                )));
            }
        }
        Ok(())
    }

    /// Make a loop's generator leaves (fusion rule F5) ready, in reading
    /// order: an outer product gathers its right factor and charges
    /// what `ML_outer` charges; an identity charges nothing, as `eye`
    /// does.
    fn generate(&self, comm: &mut Comm, gens: &[&Generator]) -> ExecResult<Vec<Generated>> {
        let mut out = Vec::new();
        for gen in gens {
            out.push(match gen {
                Generator::Outer { u, v } => Generated::outer(comm, self.mat(*u)?, self.mat(*v)?)?,
                Generator::Eye { n } => Generated::eye(comm, self.eval(n)? as usize),
            });
        }
        Ok(out)
    }
}

/// Per-rank executor state.
pub struct Executor<'a> {
    program: &'a IrProgram,
    comm: &'a mut Comm,
    costs: StyleCosts,
    opts: ExecOptions,
    /// The running frame (the script's, or the called function's). A
    /// caller's frame waits on the native stack of its `Call`.
    locals: Locals<'a>,
    /// Bytes held by every live value, waiting callers' included. Every
    /// write that can change a value's size goes through [`Self::set`]
    /// or [`Self::take`], which keep it.
    live: usize,
    /// Output the root rank accumulates (None elsewhere).
    pub output: String,
    /// Monotone counter making successive `rand` calls draw different
    /// (but rank-replicated) streams.
    rand_calls: u64,
    /// High-water mark of live distributed-matrix bytes on this rank
    /// (the paper's §7 memory argument: each rank holds only its
    /// blocks, so the aggregate machine admits problems a single
    /// workstation cannot hold).
    peak_local_bytes: usize,
    /// Executed-instruction counts by [`Instr::opcode_index`]
    /// (`EngineReport`'s per-opcode counters).
    op_counts: [u64; OPCODES.len()],
    /// Leaf-instruction address → site id (only when `opts.analyze`).
    /// The program's bodies run by reference, so an instruction's address
    /// is a stable identity for the whole run.
    site_of: Option<HashMap<usize, u32>>,
    /// Per-site realized communication, indexed by site id.
    site_comm: Vec<SiteComm>,
    /// Each element-wise loop's operands and program, keyed like
    /// `site_of`: built at its first execution, reused by the rest.
    loops: HashMap<usize, Rc<EwLoop<'a>>>,
    /// The strip registers every loop program runs on.
    regs: Vec<[f64; STRIP]>,
    /// The running loop's scalar leaves, read at each execution.
    scalars: Vec<f64>,
}

impl<'a> Executor<'a> {
    pub fn new(program: &'a IrProgram, comm: &'a mut Comm, opts: ExecOptions) -> Self {
        let site_of = opts.analyze.then(|| {
            let sites = leaf_sites(program).into_iter();
            sites
                .map(|s| (s.instr as *const Instr as usize, s.id))
                .collect::<HashMap<_, _>>()
        });
        let site_comm = vec![SiteComm::default(); site_of.as_ref().map_or(0, |m| m.len())];
        Executor {
            program,
            comm,
            costs: ExecutionStyle::Otter.costs(),
            opts,
            locals: Locals::new(&program.main),
            live: 0,
            output: String::new(),
            rand_calls: 0,
            peak_local_bytes: 0,
            op_counts: [0; OPCODES.len()],
            site_of,
            site_comm,
            loops: HashMap::new(),
            regs: Vec::new(),
            scalars: Vec::new(),
        }
    }

    /// Run the whole program; returns the final script frame.
    pub fn run(mut self) -> ExecResult<ExecOutcome> {
        otter_rt::alloc::reset();
        // Each rank is an OS thread; give it its kernel budget.
        otter_rt::kernels::configure(otter_rt::kernels::DEFAULT_TILE, self.opts.threads);
        let program = self.program;
        let main = &program.main.body;
        self.comm
            .record(Event::Note(Note::ExecStart { instrs: main.len() }));
        if let Err(e) = self.exec_block(main) {
            // Comm failures logged their own terminal event inside
            // `Comm`; application errors get theirs here so a rank's
            // flight tail always ends with *why* it stopped.
            if matches!(e, ExecError::App(_)) {
                self.comm.record(Event::Note(Note::ExecAppError));
            }
            return Err(e);
        }
        self.peak_local_bytes = self.peak_local_bytes.max(self.live);
        let op_counts: BTreeMap<&'static str, u64> = OPCODES
            .into_iter()
            .zip(self.op_counts)
            .filter(|&(_, n)| n > 0)
            .collect();
        // Opcode tallies and high-water marks reach the metrics in one
        // event at end of run, not one increment per instruction.
        self.comm.record(Event::RunSummary {
            ops: &op_counts,
            alloc_peak_bytes: otter_rt::alloc::peak_bytes(),
            workspace_peak_bytes: self.peak_local_bytes,
        });
        Ok(ExecOutcome {
            workspace: self.locals.vals,
            output: self.output,
            peak_local_bytes: self.peak_local_bytes,
            peak_temp_bytes: otter_rt::alloc::peak_bytes(),
            op_counts,
            site_comm: self.site_comm,
        })
    }

    /// Write slot `s` of the running frame.
    fn set(&mut self, s: Slot, v: XVal) {
        self.live += v.bytes();
        if let Some(old) = self.locals.vals[s.index()].replace(v) {
            self.live -= old.bytes();
        }
    }

    /// Move slot `s`'s value out of the running frame.
    fn take(&mut self, s: Slot) -> Option<XVal> {
        let v = self.locals.vals[s.index()].take();
        if let Some(v) = &v {
            self.live -= v.bytes();
        }
        v
    }

    /// Move a matrix out of the running frame (for mutate-in-place
    /// handlers that `set` it back when done — no copy of the payload).
    fn take_mat(&mut self, s: Slot) -> Result<DistMatrix> {
        self.locals.mat(s)?;
        let Some(XVal::M(m)) = self.take(s) else {
            unreachable!("checked matrix above")
        };
        Ok(m)
    }

    /// Run one element-wise loop: an `ElemWise`, or a `Fused` loop's
    /// head product, loop and tail. The loop overwrites the head's
    /// buffer (or an aligned destination) in place, or folds its
    /// elements as they are computed, so no eliminated temporary is
    /// stored. Charges what the unfused sequence charges, in its order,
    /// less the eliminated instructions' dispatch and call overheads.
    fn exec_loop(
        &mut self,
        head: Option<&Product>,
        expr: &'a EwExpr,
        tail: &Tail,
    ) -> ExecResult<()> {
        let (Tail::Store { dst } | Tail::Reduce { dst, .. } | Tail::ColReduce { dst, .. }) = *tail;
        let ew = self.loops.entry(expr as *const EwExpr as usize);
        let ew = Rc::clone(ew.or_insert_with(|| Rc::new(EwLoop::new(head, expr, tail))));
        let (vars, comm) = (&self.locals, &mut *self.comm);
        let mut buf = match head {
            Some(Product::MatMul { a, b, .. }) => Some(vars.mat(*a)?.matmul(comm, vars.mat(*b)?)?),
            Some(Product::MatVec { a, x, .. }) => Some(vars.mat(*a)?.matvec(comm, vars.mat(*x)?)?),
            None => None,
        };
        let gens = vars.generate(comm, &ew.gens)?;
        // The loop's shape and distribution: the product's, else its
        // first matrix operand's, else its first generator's.
        let ops = &ew.operands;
        let (rows, cols, len) = match (&buf, head, ops.first()) {
            (Some(model), Some(head), _) => {
                vars.check_aligned(head.tmp(), model, ops)?;
                (model.rows(), model.cols(), model.local_els())
            }
            (_, _, Some(&first)) => {
                let model = vars.mat(first)?;
                vars.check_aligned(first, model, &ops[1..])?;
                (model.rows(), model.cols(), model.local_els())
            }
            _ => gens
                .first()
                .map(|g| (g.rows(), g.cols(), g.local_els()))
                .ok_or_else(|| {
                    OtterError::execution("element-wise loop without matrix operands")
                })?,
        };
        if let Some(g) = gens
            .iter()
            .find(|g| (g.rows(), g.cols(), g.local_els()) != (rows, cols, len))
        {
            return Err(OtterError::execution(format!(
                "generated element-wise operand is not aligned ({}x{} vs {rows}x{cols})",
                g.rows(),
                g.cols()
            ))
            .into());
        }
        // A stored loop without a head reuses its destination's buffer
        // when that is already an aligned matrix: no allocation, and
        // reads of the old value (`Dst` leaves) happen before the write
        // of each element.
        let shape = (rows, cols);
        let in_place = buf.is_none()
            && matches!(tail, Tail::Store { .. })
            && matches!(&vars.vals[dst.index()],
                        Some(XVal::M(d)) if (d.rows(), d.cols()) == shape);
        let program = ew.program.as_ref().map_err(Clone::clone)?;
        self.scalars.clear();
        for s in &program.scalars {
            self.scalars.push(vars.eval(s)?);
        }
        if in_place {
            buf = Some(self.take_mat(dst)?);
        }
        let (vars, comm, regs) = (&self.locals, &mut *self.comm, &mut self.regs);
        let slices = ew
            .slices
            .iter()
            .map(|&s| vars.mat(s).map(DistMatrix::local))
            .collect::<Result<Vec<_>>>()?;
        regs.resize(regs.len().max(program.depth), [0.0; STRIP]);
        let src = Operands {
            slices: &slices,
            scalars: &self.scalars,
            gens: &gens,
            dst: &[],
        };
        // What a fold reads as `Dst`: the product it folds.
        let folded = Operands {
            dst: buf.as_ref().map_or(&[][..], DistMatrix::local),
            ..src
        };
        let weight = len as f64 * ew.weight;
        let value = match *tail {
            Tail::Store { .. } => {
                let m = match buf {
                    Some(mut m) => {
                        program.run_in_place(regs, src, m.local_mut());
                        m
                    }
                    None => {
                        let lanes = program.run_fresh(regs, src, len);
                        DistMatrix::from_local(comm, rows, cols, lanes)?
                    }
                };
                comm.compute(weight);
                XVal::M(m)
            }
            Tail::Reduce {
                op: RedOp::Fold(f), ..
            } => {
                let op = nonempty(col_op(f), rows * cols)?;
                let local = program.col_partials(regs, op, folded, len, None)[0];
                comm.compute(weight);
                XVal::S(DistMatrix::reduce_all_partial(comm, op, local, shape, len)?)
            }
            Tail::Reduce {
                op: RedOp::Norm2, ..
            } => {
                let local = program.sum_squares(regs, folded, len);
                comm.compute(weight);
                comm.compute(2.0 * len as f64 + 8.0);
                XVal::S(comm.allreduce_scalar(local, ReduceOp::Sum)?.sqrt())
            }
            Tail::Reduce {
                op: RedOp::Trapz, ..
            } => return Err(OtterError::execution("reduction `ML_trapz` cannot be fused").into()),
            Tail::ColReduce { op, .. } => {
                let op = nonempty(col_op(op), rows * cols)?;
                let width = (rows != 1 && cols != 1).then_some(cols);
                let partial = program.col_partials(regs, op, folded, len, width);
                comm.compute(weight);
                XVal::M(DistMatrix::col_reduce_partials(
                    comm, op, &partial, shape, len,
                )?)
            }
        };
        self.set(dst, value);
        Ok(())
    }

    // ---- instructions ---------------------------------------------------------

    fn exec_block(&mut self, block: &'a [Instr]) -> ExecResult<Flow> {
        for i in block {
            // Per-site traffic attribution: every communication this
            // rank performs happens inside the leaf instruction's own
            // handler (control flow only *selects* leaves), so the
            // stats delta across one `exec_instr` is exactly this
            // site's contribution.
            let site = self
                .site_of
                .as_ref()
                .and_then(|m| m.get(&(i as *const Instr as usize)).copied());
            let before = site.map(|_| self.comm.stats());
            // One Statement event per IR instruction; control-flow
            // instructions span their whole body, nesting the inner
            // instructions' events.
            let t0 = self.comm.clock();
            let flow = self.exec_instr(i)?;
            let opcode = i.opcode();
            self.comm.record(Event::Statement { opcode, t0 });
            if let (Some(id), Some(before)) = (site, before) {
                let after = self.comm.stats();
                let slot = &mut self.site_comm[id as usize];
                slot.messages += after.messages_sent - before.messages_sent;
                slot.bytes += after.bytes_sent - before.bytes_sent;
                slot.execs += 1;
            }
            match flow {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    /// Charge and count one instruction, then run it. Only control flow
    /// recurses from here; leaves run in [`Self::exec_leaf`] and calls
    /// in [`Self::exec_call`], whose locals stay out of this frame, so a
    /// level of nesting costs little native stack.
    fn exec_instr(&mut self, i: &'a Instr) -> ExecResult<Flow> {
        // Compiled-code dispatch charge.
        self.comm.compute(self.costs.statement_dispatch);
        self.peak_local_bytes = self.peak_local_bytes.max(self.live);
        self.op_counts[i.opcode_index()] += 1;
        // Every run-time library call, function call and print pays
        // one call overhead before it runs.
        if !matches!(
            i,
            Instr::AssignScalar { .. }
                | Instr::CopyMatrix { .. }
                | Instr::StoreElem { .. }
                | Instr::Free { .. }
                | Instr::If { .. }
                | Instr::While { .. }
                | Instr::For { .. }
                | Instr::Break
                | Instr::Continue
        ) {
            self.comm.compute(self.costs.op_overhead);
        }
        match i {
            Instr::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = self.locals.eval(cond)?;
                let body = if c != 0.0 { then_body } else { else_body };
                return self.exec_block(body);
            }
            Instr::While { pre, cond, body } => loop {
                if let f @ (Flow::Break | Flow::Continue) = self.exec_block(pre)? {
                    return Err(OtterError::execution(format!(
                        "control flow {f:?} escaping a while condition"
                    ))
                    .into());
                }
                if self.locals.eval(cond)? == 0.0 {
                    return Ok(Flow::Normal);
                }
                match self.exec_block(body)? {
                    Flow::Break => return Ok(Flow::Normal),
                    Flow::Normal | Flow::Continue => {}
                }
            },
            Instr::For {
                var,
                start,
                step,
                stop,
                body,
            } => {
                let vars = &self.locals;
                let (s, st, p) = (vars.eval(start)?, vars.eval(step)?, vars.eval(stop)?);
                if st == 0.0 {
                    return Err(OtterError::execution("for-loop step is zero").into());
                }
                let mut x = s;
                while (st > 0.0 && x <= p) || (st < 0.0 && x >= p) {
                    self.set(*var, XVal::S(x));
                    match self.exec_block(body)? {
                        Flow::Break => break,
                        Flow::Normal | Flow::Continue => {}
                    }
                    x += st;
                }
            }
            Instr::Break => return Ok(Flow::Break),
            Instr::Continue => return Ok(Flow::Continue),
            Instr::Call { fun, args, outs } => self.exec_call(fun, args, outs)?,
            leaf => self.exec_leaf(leaf)?,
        }
        Ok(Flow::Normal)
    }

    /// Call an IR function: its arguments, evaluated in the caller's
    /// frame, become the parameters of a fresh frame, and its outputs
    /// are copied back.
    #[inline(never)]
    fn exec_call(&mut self, fun: &str, args: &[Arg], outs: &[Slot]) -> ExecResult<()> {
        let program = self.program;
        let f = program
            .functions
            .get(fun)
            .ok_or_else(|| OtterError::execution(format!("unknown IR function `{fun}`")))?;
        let mut vals = Vec::with_capacity(args.len());
        for (&p, arg) in f.params.iter().zip(args) {
            vals.push(match (f.vars[p].rank, arg) {
                (VarRank::Scalar, Arg::Scalar(s)) => XVal::S(self.locals.eval(s)?),
                (VarRank::Matrix, Arg::Matrix(m)) => XVal::M(self.locals.mat(*m)?.clone()),
                _ => {
                    return Err(OtterError::execution(format!(
                        "argument rank mismatch calling `{fun}`"
                    ))
                    .into())
                }
            });
        }
        let caller = std::mem::replace(&mut self.locals, Locals::new(f));
        for (&p, v) in f.params.iter().zip(vals) {
            self.set(p, v);
        }
        let body_result = self.exec_block(&f.body);
        let callee = std::mem::replace(&mut self.locals, caller);
        self.live -= callee.bytes();
        body_result?;
        for (&o, &dst) in f.outs.iter().zip(outs) {
            let v = callee.vals[o.index()].clone().ok_or_else(|| {
                OtterError::execution(format!(
                    "output `{}` of `{fun}` never assigned",
                    callee.name(o)
                ))
            })?;
            self.set(dst, v);
        }
        Ok(())
    }

    /// Run one leaf instruction (neither control flow nor a call): most
    /// compute one value from the frame and the run-time library, which
    /// is then written to its destination.
    #[inline(never)]
    fn exec_leaf(&mut self, i: &'a Instr) -> ExecResult<()> {
        let (vars, comm) = (&self.locals, &mut *self.comm);
        let (dst, value) = match i {
            Instr::AssignScalar { dst, src } => (dst, XVal::S(vars.eval(src)?)),
            Instr::InitMatrix { dst, init } => (dst, XVal::M(self.exec_init(init)?)),
            Instr::CopyMatrix { dst, src } => {
                let m = vars.mat(*src)?.clone();
                comm.compute(m.local_els() as f64);
                (dst, XVal::M(m))
            }
            Instr::LoadFile { dst, path } => {
                let full = match &self.opts.data_dir {
                    Some(d) => d.join(path),
                    None => PathBuf::from(path),
                };
                (dst, XVal::M(rtio::load_distributed(comm, &full)?))
            }
            Instr::ElemWise { dst, expr } => {
                return self.exec_loop(None, expr, &Tail::Store { dst: *dst })
            }
            Instr::Fused(f) => return self.exec_loop(f.head(), f.expr(), f.tail()),
            Instr::MatMul { dst, a, b } => {
                (dst, XVal::M(vars.mat(*a)?.matmul(comm, vars.mat(*b)?)?))
            }
            Instr::MatVec { dst, a, x } => {
                (dst, XVal::M(vars.mat(*a)?.matvec(comm, vars.mat(*x)?)?))
            }
            Instr::Outer { dst, u, v } => (
                dst,
                XVal::M(DistMatrix::outer(comm, vars.mat(*u)?, vars.mat(*v)?)?),
            ),
            Instr::Transpose { dst, a } => (dst, XVal::M(vars.mat(*a)?.transpose(comm)?)),
            Instr::BroadcastElem { dst, m, i, j } => {
                let (r, c) = vars.elem(*m, i, j)?;
                (dst, XVal::S(vars.mat(*m)?.get_bcast(comm, r, c)?))
            }
            Instr::StoreElem { m, i, j, val } => {
                let (r, c) = vars.elem(*m, i, j)?;
                // Owner-computes: only the owner evaluates and stores.
                // An element store keeps the matrix's size.
                let mat = vars.mat(*m)?;
                if mat.is_owner(r, c) {
                    let v = vars.eval_own(val, Some(mat.get_local(r, c)))?;
                    let Some(XVal::M(stored)) = &mut self.locals.vals[m.index()] else {
                        unreachable!("checked matrix above")
                    };
                    stored.set_if_owner(r, c, v);
                }
                self.comm.compute(1.0);
                return Ok(());
            }
            Instr::Reduce { dst, op, m } => {
                let mat = vars.mat(*m)?;
                let v = match op {
                    RedOp::Fold(f) => mat.reduce_all(comm, nonempty(col_op(*f), mat.len())?)?,
                    RedOp::Norm2 => mat.norm2(comm)?,
                    RedOp::Trapz => mat.trapz(comm)?,
                };
                (dst, XVal::S(v))
            }
            Instr::Dot { dst, a, b } => (dst, XVal::S(vars.mat(*a)?.dot(comm, vars.mat(*b)?)?)),
            Instr::TrapzXY { dst, x, y } => (
                dst,
                XVal::S(DistMatrix::trapz_xy(comm, vars.mat(*x)?, vars.mat(*y)?)?),
            ),
            Instr::ColReduce { dst, op, m } => {
                let mat = vars.mat(*m)?;
                (
                    dst,
                    XVal::M(mat.col_reduce(comm, nonempty(col_op(*op), mat.len())?)?),
                )
            }
            Instr::Shift { dst, v, k } => {
                let k = vars.eval(k)? as i64;
                (dst, XVal::M(vars.mat(*v)?.circshift(comm, k)?))
            }
            Instr::ExtractRow { dst, m, i } => {
                let i = vars.index(i)?;
                (dst, XVal::M(vars.mat(*m)?.extract_row(comm, i)?))
            }
            Instr::ExtractCol { dst, m, j } => {
                let j = vars.index(j)?;
                (dst, XVal::M(vars.mat(*m)?.extract_col(comm, j)))
            }
            Instr::ExtractRange { dst, v, lo, hi } => {
                let l = vars.index(lo)?;
                let h = vars.eval(hi)? as usize; // inclusive 1-based == exclusive 0-based
                (dst, XVal::M(vars.mat(*v)?.extract_range(comm, l, h)?))
            }
            Instr::ExtractStrided {
                dst,
                v,
                lo,
                step,
                hi,
            } => {
                let (l, st, h) = (vars.index(lo)?, vars.eval(step)? as i64, vars.index(hi)?);
                if st == 0 {
                    return Err(OtterError::execution("stride must be nonzero").into());
                }
                let count = if (st > 0 && h >= l) || (st < 0 && h <= l) {
                    ((h as i64 - l as i64) / st) as usize + 1
                } else {
                    0
                };
                (
                    dst,
                    XVal::M(vars.mat(*v)?.extract_strided(comm, l, st, count)?),
                )
            }
            // Updates of part of a matrix take it out of the frame,
            // mutate it without copying, and put it back.
            Instr::AssignRow { m, i, v } => {
                let i = vars.index(i)?;
                let mut mat = self.take_mat(*m)?;
                let (vars, comm) = (&self.locals, &mut *self.comm);
                let src = if v == m { &mat.clone() } else { vars.mat(*v)? };
                mat.assign_row(comm, i, src)?;
                (m, XVal::M(mat))
            }
            Instr::AssignCol { m, j, v } => {
                let j = vars.index(j)?;
                let mut mat = self.take_mat(*m)?;
                let (vars, comm) = (&self.locals, &mut *self.comm);
                let src = if v == m { &mat.clone() } else { vars.mat(*v)? };
                mat.assign_col(comm, j, src);
                (m, XVal::M(mat))
            }
            Instr::AssignRange { m, lo, hi, v } => {
                let (l, h) = (vars.index(lo)?, vars.eval(hi)? as usize);
                let mut mat = self.take_mat(*m)?;
                let (vars, comm) = (&self.locals, &mut *self.comm);
                let src = if v == m { &mat.clone() } else { vars.mat(*v)? };
                mat.assign_range(comm, l, h, src)?;
                (m, XVal::M(mat))
            }
            Instr::FillRow { m, i, val } => {
                let (i, v) = (vars.index(i)?, vars.eval(val)?);
                let mut mat = self.take_mat(*m)?;
                mat.fill_row(self.comm, i, v);
                (m, XVal::M(mat))
            }
            Instr::FillCol { m, j, val } => {
                let (j, v) = (vars.index(j)?, vars.eval(val)?);
                let mut mat = self.take_mat(*m)?;
                mat.fill_col(self.comm, j, v);
                (m, XVal::M(mat))
            }
            Instr::FillRange { m, lo, hi, val } => {
                let (l, h) = (vars.index(lo)?, vars.eval(hi)? as usize);
                let v = vars.eval(val)?;
                let mut mat = self.take_mat(*m)?;
                mat.fill_range(self.comm, l, h, v);
                (m, XVal::M(mat))
            }
            Instr::Free { name } => {
                self.take(*name);
                return Ok(());
            }
            Instr::Print { name, target } => {
                let text = match target {
                    PrintTarget::Scalar(s) => {
                        let v = vars.eval(s)?;
                        (comm.rank() == 0).then(|| rtio::print_scalar(name, v))
                    }
                    PrintTarget::Matrix(m) => rtio::print_distributed(comm, name, vars.mat(*m)?)?,
                };
                self.output.extend(text);
                return Ok(());
            }
            Instr::If { .. }
            | Instr::While { .. }
            | Instr::For { .. }
            | Instr::Break
            | Instr::Continue
            | Instr::Call { .. } => unreachable!("control flow and calls run in exec_instr"),
        };
        self.set(*dst, value);
        Ok(())
    }

    fn exec_init(&mut self, init: &MatInit) -> Result<DistMatrix> {
        let (vars, comm) = (&self.locals, &mut *self.comm);
        let dim = |e: &SExpr| vars.eval(e).map(|v| v as usize);
        Ok(match init {
            MatInit::Zeros { rows, cols } => DistMatrix::zeros(comm, dim(rows)?, dim(cols)?),
            MatInit::Ones { rows, cols } => DistMatrix::ones(comm, dim(rows)?, dim(cols)?),
            MatInit::Eye { n } => DistMatrix::eye(comm, dim(n)?),
            MatInit::Rand { rows, cols } => {
                let (r, c) = (dim(rows)?, dim(cols)?);
                // Replicated stream: every rank generates the full
                // matrix from the same seed and keeps its block, so
                // the data is identical no matter how many CPUs run.
                self.rand_calls += 1;
                let mut rng = DetRng::seed_from_u64(RAND_SEED.wrapping_add(self.rand_calls));
                let data: Vec<f64> = (0..r * c).map(|_| rng.gen_range(0.0..1.0)).collect();
                let dense = Dense::from_vec(r, c, data);
                comm.compute((r * c) as f64 * 4.0);
                DistMatrix::from_replicated(comm, &dense)
            }
            MatInit::Range { start, step, stop } => {
                let (s, st, p) = (vars.eval(start)?, vars.eval(step)?, vars.eval(stop)?);
                DistMatrix::range(comm, s, st, p)
            }
            MatInit::Literal { rows } => {
                let mut data = Vec::new();
                let (nr, nc) = (rows.len(), rows.first().map_or(0, |r| r.len()));
                for row in rows {
                    for cell in row {
                        data.push(vars.eval(cell)?);
                    }
                }
                let dense = Dense::from_vec(nr, nc, data);
                DistMatrix::from_replicated(comm, &dense)
            }
            MatInit::Linspace { a, b, n } => {
                let (a, b, n) = (vars.eval(a)?, vars.eval(b)?, dim(n)?);
                let dense = if n < 2 {
                    Dense::row_vector(&[b])
                } else {
                    let step = (b - a) / (n - 1) as f64;
                    Dense::row_vector(&(0..n).map(|i| a + step * i as f64).collect::<Vec<_>>())
                };
                DistMatrix::from_replicated(comm, &dense)
            }
        })
    }
}

// ---- strip-mined element-wise programs ------------------------------------

/// Lanes per strip: 256 doubles are 2 KiB a register, so the few
/// registers a program holds at once stay in L1 while each node's loop
/// streams over them.
const STRIP: usize = 256;

/// Where an operand's lanes come from.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Leaf {
    /// Operand slice `i` (an aligned matrix's local block).
    Slice(usize),
    /// The destination buffer's previous contents (in-place loops).
    Dst,
    /// Replicated scalar `i`, read at each execution.
    Scalar(usize),
}

/// A one-operand lane operation.
#[derive(Debug, Clone, Copy)]
enum Op1 {
    Neg,
    Not,
    Fun(SFun),
}

/// A two-operand lane operation.
#[derive(Debug, Clone, Copy)]
enum Op2 {
    Ew(EwOp),
    Fun(SFun),
}

/// One node of an [`EwProgram`]; each runs as one loop over a strip.
/// "Top" is the most recently pushed register.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Push a register holding the leaf's lanes.
    Load(Leaf),
    /// Push a register holding `op(a, b)`.
    Leaves { op: Op2, a: Leaf, b: Leaf },
    /// `top ← op(top)`.
    Unary(Op1),
    /// `top ← op(top, leaf)`, or `op(leaf, top)` when `swap`.
    WithLeaf { op: Op2, leaf: Leaf, swap: bool },
    /// Pop `top` into the register below it: `below ← op(below, top)`,
    /// or `op(top, below)` when `swap`.
    Pop { op: Op2, swap: bool },
    /// Push a register holding generator `i`'s lanes.
    Gen(usize),
}

/// A flat postfix element-wise program (see [`compile_ew`]). Running it
/// walks `steps` once per strip — no recursion, no per-lane dispatch.
#[derive(Debug)]
struct EwProgram<'e> {
    steps: Vec<Step>,
    /// Registers live at once: the tree's Sethi–Ullman number, because
    /// of two non-leaf operands the one needing more registers is
    /// evaluated first.
    depth: usize,
    /// What the [`Leaf::Scalar`] leaves read, in reading order.
    scalars: Vec<&'e SExpr>,
}

/// What every execution of one element-wise loop shares.
struct EwLoop<'e> {
    /// The aligned matrix operands, each once, in reading order (a
    /// fused product's temporary is the loop's buffer, not one).
    operands: Vec<Slot>,
    /// The operands the program reads as slices: all but the buffer.
    slices: Vec<Slot>,
    gens: Vec<&'e Generator>,
    /// Modeled flops per element.
    weight: f64,
    program: Result<EwProgram<'e>>,
}

impl<'e> EwLoop<'e> {
    fn new(head: Option<&Product>, expr: &'e EwExpr, tail: &Tail) -> Self {
        let product = head.map(Product::tmp);
        let mut leaves = Vec::new();
        expr.mat_operands(&mut leaves);
        let mut operands = Vec::new();
        for s in leaves {
            if Some(s) != product && !operands.contains(&s) {
                operands.push(s);
            }
        }
        // The product, else the stored destination: a loop reading that
        // runs in place (checked aligned); one not reading it has no `Dst`.
        let buffer = product.or(match *tail {
            Tail::Store { dst } => Some(dst),
            _ => None,
        });
        let mut slices = operands.clone();
        slices.retain(|&s| Some(s) != buffer);
        EwLoop {
            program: compile_ew(expr, &slices, buffer),
            operands,
            slices,
            gens: expr.generators().into_iter().map(|(_, g)| g).collect(),
            weight: expr.flop_weight().max(1.0),
        }
    }
}

/// What an expression node computes, once its leaves are resolved.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Leaf(Leaf),
    /// A generator leaf: it fills a register of its own.
    Gen(usize),
    Unary(Op1),
    Binary(Op2),
}

/// One expression node, flattened in pre-order by [`compile_ew`].
struct Node {
    kind: Kind,
    /// Nodes in the subtree: a binary node's second operand is node
    /// `i + 1 + nodes[i + 1].size`.
    size: usize,
    /// Registers the subtree needs.
    need: usize,
}

/// A pending action of [`compile_ew`]'s post-order emission.
enum Task {
    Visit(usize),
    Emit(Step),
}

/// Compile an element-wise expression against an operand list into a
/// flat postfix [`EwProgram`]. Runs at a loop's first execution, and
/// the program serves every later one: matrix leaves resolve to slice
/// indices and scalar leaves to indices into the values the executor
/// reads for each execution, so the strip loops do no frame lookups.
/// `dst_alias` maps one matrix slot to [`Leaf::Dst`] — the buffer the
/// loop writes (in-place destination or fused product).
///
/// Leaves fold into the node that consumes them, and of two non-leaf
/// operands the one needing more registers is evaluated first, so a
/// fused chain of any length runs in one or two registers. All three
/// passes use explicit work lists: fusion builds trees thousands of
/// nodes deep, and ranks run on 1 MiB stacks.
fn compile_ew<'e>(
    e: &'e EwExpr,
    slices: &[Slot],
    dst_alias: Option<Slot>,
) -> Result<EwProgram<'e>> {
    // Pre-order, left to right: scalar leaves number in reading order.
    let mut nodes: Vec<Node> = Vec::new();
    let mut scalars = Vec::new();
    let mut gens = 0;
    let mut todo = vec![e];
    while let Some(e) = todo.pop() {
        let kind = match e {
            EwExpr::Mat(m) if Some(*m) == dst_alias => Kind::Leaf(Leaf::Dst),
            EwExpr::Mat(m) => Kind::Leaf(Leaf::Slice(
                slices
                    .iter()
                    .position(|n| n == m)
                    .expect("every matrix operand is in the slice list"),
            )),
            EwExpr::Scalar(s) => {
                scalars.push(s);
                Kind::Leaf(Leaf::Scalar(scalars.len() - 1))
            }
            EwExpr::Gen { .. } => {
                gens += 1;
                Kind::Gen(gens - 1)
            }
            EwExpr::Neg(x) => {
                todo.push(x);
                Kind::Unary(Op1::Neg)
            }
            EwExpr::Not(x) => {
                todo.push(x);
                Kind::Unary(Op1::Not)
            }
            EwExpr::Bin(op, a, b) => {
                todo.extend([&**b, &**a]);
                Kind::Binary(Op2::Ew(*op))
            }
            EwExpr::Call(f, args) if args.len() == f.arity() => {
                todo.extend(args.iter().rev());
                if args.len() == 1 {
                    Kind::Unary(Op1::Fun(*f))
                } else {
                    Kind::Binary(Op2::Fun(*f))
                }
            }
            EwExpr::Call(f, args) => {
                return Err(OtterError::execution(format!(
                    "`{}` takes {} argument(s), got {}",
                    f.c_name(),
                    f.arity(),
                    args.len()
                )))
            }
        };
        nodes.push(Node {
            kind,
            size: 1,
            need: 1,
        });
    }
    // Reverse pre-order visits children before parents: sizes and
    // register needs, bottom-up.
    for i in (0..nodes.len()).rev() {
        let (size, need) = match nodes[i].kind {
            Kind::Leaf(_) | Kind::Gen(_) => (1, 1),
            Kind::Unary(_) => (1 + nodes[i + 1].size, nodes[i + 1].need),
            Kind::Binary(_) => {
                let (a, b) = (&nodes[i + 1], &nodes[i + 1 + nodes[i + 1].size]);
                let need = match (a.kind, b.kind) {
                    (_, Kind::Leaf(_)) => a.need,
                    (Kind::Leaf(_), _) => b.need,
                    _ if a.need == b.need => a.need + 1,
                    _ => a.need.max(b.need),
                };
                (1 + a.size + b.size, need)
            }
        };
        nodes[i].size = size;
        nodes[i].need = need;
    }
    // Post-order emission.
    let mut steps = Vec::with_capacity(nodes.len());
    let mut tasks = vec![Task::Visit(0)];
    while let Some(task) = tasks.pop() {
        let i = match task {
            Task::Emit(step) => {
                steps.push(step);
                continue;
            }
            Task::Visit(i) => i,
        };
        match nodes[i].kind {
            Kind::Leaf(leaf) => steps.push(Step::Load(leaf)),
            Kind::Gen(g) => steps.push(Step::Gen(g)),
            Kind::Unary(op) => tasks.extend([Task::Emit(Step::Unary(op)), Task::Visit(i + 1)]),
            Kind::Binary(op) => {
                let (ia, ib) = (i + 1, i + 1 + nodes[i + 1].size);
                match (nodes[ia].kind, nodes[ib].kind) {
                    (Kind::Leaf(a), Kind::Leaf(b)) => steps.push(Step::Leaves { op, a, b }),
                    (_, Kind::Leaf(leaf)) => tasks.extend([
                        Task::Emit(Step::WithLeaf {
                            op,
                            leaf,
                            swap: false,
                        }),
                        Task::Visit(ia),
                    ]),
                    (Kind::Leaf(leaf), _) => tasks.extend([
                        Task::Emit(Step::WithLeaf {
                            op,
                            leaf,
                            swap: true,
                        }),
                        Task::Visit(ib),
                    ]),
                    _ => {
                        let swap = nodes[ia].need < nodes[ib].need;
                        let (first, second) = if swap { (ib, ia) } else { (ia, ib) };
                        tasks.extend([
                            Task::Emit(Step::Pop { op, swap }),
                            Task::Visit(second),
                            Task::Visit(first),
                        ]);
                    }
                }
            }
        }
    }
    Ok(EwProgram {
        steps,
        depth: nodes[0].need,
        scalars,
    })
}

/// One operand's lanes over the current strip.
#[derive(Clone, Copy)]
enum Lanes<'a> {
    Strip(&'a [f64]),
    Splat(f64),
}

/// The buffers a program's leaves read.
#[derive(Clone, Copy)]
struct Operands<'a> {
    slices: &'a [&'a [f64]],
    scalars: &'a [f64],
    gens: &'a [Generated],
    dst: &'a [f64],
}

impl<'a> Operands<'a> {
    fn lanes(self, leaf: Leaf, base: usize, n: usize) -> Lanes<'a> {
        match leaf {
            Leaf::Slice(i) => Lanes::Strip(&self.slices[i][base..base + n]),
            Leaf::Dst => Lanes::Strip(&self.dst[base..base + n]),
            Leaf::Scalar(i) => Lanes::Splat(self.scalars[i]),
        }
    }
}

/// `(base, lanes)` of every strip covering `0..len`, ascending.
fn strips(len: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..len)
        .step_by(STRIP)
        .map(move |base| (base, STRIP.min(len - base)))
}

/// A register stack of at least [`EwProgram::depth`] strips, each written before it is read.
type Regs = [[f64; STRIP]];

impl EwProgram<'_> {
    /// Run `steps` over lanes `base..base + n`; returns the number of
    /// registers they leave pushed.
    fn eval(&self, steps: &[Step], regs: &mut Regs, src: Operands, base: usize, n: usize) -> usize {
        let mut top = 0;
        for step in steps {
            match *step {
                Step::Load(leaf) => {
                    let r = &mut regs[top][..n];
                    match src.lanes(leaf, base, n) {
                        Lanes::Strip(s) => r.copy_from_slice(s),
                        Lanes::Splat(v) => r.fill(v),
                    }
                    top += 1;
                }
                Step::Leaves { op, a, b } => {
                    let (a, b) = (src.lanes(a, base, n), src.lanes(b, base, n));
                    binary_to(op, &mut regs[top][..n], a, b);
                    top += 1;
                }
                Step::Gen(g) => {
                    src.gens[g].fill(base, &mut regs[top][..n]);
                    top += 1;
                }
                Step::Unary(op) => unary(op, &mut regs[top - 1][..n]),
                Step::WithLeaf { op, leaf, swap } => {
                    binary(op, &mut regs[top - 1][..n], src.lanes(leaf, base, n), swap)
                }
                Step::Pop { op, swap } => {
                    top -= 1;
                    let (below, above) = regs.split_at_mut(top);
                    binary(
                        op,
                        &mut below[top - 1][..n],
                        Lanes::Strip(&above[0][..n]),
                        swap,
                    );
                }
            }
        }
        top
    }

    /// Evaluate lanes `base..base + n` and return them (register 0).
    fn strip<'r>(&self, regs: &'r mut Regs, src: Operands<'_>, base: usize, n: usize) -> &'r [f64] {
        self.eval(&self.steps, regs, src, base, n);
        &regs[0][..n]
    }

    /// `buf[k] ← program(k)` for lanes `base..base + n`. `Dst` leaves
    /// read `buf`'s old lanes. A last two-operand step writes `buf`
    /// itself, with the same operation on the same operands as in a
    /// register; if it reads `Dst`, that is the lane it overwrites.
    fn store(&self, regs: &mut Regs, src: Operands<'_>, base: usize, n: usize, buf: &mut [f64]) {
        use Leaf::Dst;
        let (last, init) = self.steps.split_last().expect("a program has a step");
        let direct = match *last {
            Step::Leaves { a, b, .. } => a != Dst || b != Dst,
            Step::WithLeaf { .. } | Step::Pop { .. } => true,
            _ => false,
        };
        let steps = if direct { init } else { &self.steps };
        let top = self.eval(steps, regs, Operands { dst: buf, ..src }, base, n);
        let out = &mut buf[base..base + n];
        let lanes = |leaf| src.lanes(leaf, base, n);
        let reg = |i: usize| Lanes::Strip(&regs[i][..n]);
        let ordered = |x, y, swap| if swap { (y, x) } else { (x, y) };
        match *last {
            _ if !direct => out.copy_from_slice(&regs[0][..n]),
            Step::Leaves { op, a: Dst, b } => binary(op, out, lanes(b), false),
            Step::Leaves { op, a, b: Dst } => binary(op, out, lanes(a), true),
            Step::Leaves { op, a, b } => binary_to(op, out, lanes(a), lanes(b)),
            Step::WithLeaf {
                op,
                leaf: Dst,
                swap,
            } => binary(op, out, reg(top - 1), !swap),
            Step::WithLeaf { op, leaf, swap } => {
                let (x, y) = ordered(reg(top - 1), lanes(leaf), swap);
                binary_to(op, out, x, y)
            }
            Step::Pop { op, swap } => {
                let (x, y) = ordered(reg(top - 2), reg(top - 1), swap);
                binary_to(op, out, x, y)
            }
            _ => unreachable!("only two-operand steps store directly"),
        }
    }

    /// `buf[k] ← program(k)` for every lane (see [`Self::store`]).
    fn run_in_place(&self, regs: &mut Regs, src: Operands<'_>, buf: &mut [f64]) {
        for (base, n) in strips(buf.len()) {
            self.store(regs, src, base, n, buf);
        }
    }

    /// The program's `len` lanes as a fresh buffer, which has no `Dst`
    /// leaves to read: each strip extends it and is then written.
    fn run_fresh(&self, regs: &mut Regs, src: Operands<'_>, len: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(len);
        for (base, n) in strips(len) {
            out.resize(base + n, 0.0);
            self.store(regs, src, base, n, &mut out);
        }
        out
    }

    /// `norm`'s partial: the squares of the program's `len` lanes summed
    /// in ascending index order from `sum`'s identity.
    fn sum_squares(&self, regs: &mut Regs, src: Operands, len: usize) -> f64 {
        let mut acc = ColOp::Sum.identity();
        for (base, n) in strips(len) {
            for &x in self.strip(regs, src, base, n) {
                acc += x * x;
            }
        }
        acc
    }

    /// This rank's partials of fold `op` over the program's `len` lanes,
    /// for [`DistMatrix::reduce_all_partial`] or
    /// [`DistMatrix::col_reduce_partials`]. A whole object or a vector
    /// (`width` is `None`) folds every lane into one accumulator in
    /// index order; a matrix folds its rows of `width` lanes into
    /// per-column accumulators in ascending row order, with the strips
    /// inside each row. Both start where [`ColOp`] says, exactly as
    /// `reduce_all` and `col_reduce` fold the stored elements.
    fn col_partials(
        &self,
        regs: &mut Regs,
        op: ColOp,
        src: Operands<'_>,
        len: usize,
        width: Option<usize>,
    ) -> Vec<f64> {
        let Some(w) = width else {
            let mut acc = op.identity();
            for (base, n) in strips(len) {
                acc = op.fold(acc, self.strip(regs, src, base, n));
            }
            return vec![acc];
        };
        let mut acc = vec![op.column_start(); w];
        for row in (0..len).step_by(w.max(1)) {
            for (base, n) in strips(w) {
                op.fold_row(
                    &mut acc[base..base + n],
                    self.strip(regs, src, row + base, n),
                );
            }
        }
        acc
    }
}

/// `op`, unless it is `max`/`min` of an empty operand: that is an error,
/// as in the interpreter. The global element count `numel` decides, so
/// every rank raises it before any communication.
fn nonempty(op: ColOp, numel: usize) -> Result<ColOp> {
    match op {
        ColOp::Max | ColOp::Min if numel == 0 => Err(OtterError::execution(format!(
            "{} of empty matrix",
            if op == ColOp::Max { "max" } else { "min" }
        ))),
        _ => Ok(op),
    }
}

/// The run-time column reduction an IR `ColRedOp` names.
fn col_op(op: ColRedOp) -> ColOp {
    match op {
        ColRedOp::Sum => ColOp::Sum,
        ColRedOp::Mean => ColOp::Mean,
        ColRedOp::Prod => ColOp::Prod,
        ColRedOp::Max => ColOp::Max,
        ColRedOp::Min => ColOp::Min,
        ColRedOp::Any => ColOp::Any,
        ColRedOp::All => ColOp::All,
    }
}

/// `r[l] ← f(r[l])` over one strip.
#[inline(always)]
fn map1(r: &mut [f64], f: impl Fn(f64) -> f64) {
    for x in r {
        *x = f(*x);
    }
}

/// `r[l] ← f(r[l], b[l])`, or `f(b[l], r[l])` when `swap`, over one
/// strip.
#[inline(always)]
fn map2(r: &mut [f64], b: Lanes<'_>, swap: bool, f: impl Fn(f64, f64) -> f64) {
    match (b, swap) {
        (Lanes::Strip(s), false) => r.iter_mut().zip(s).for_each(|(x, &y)| *x = f(*x, y)),
        (Lanes::Strip(s), true) => r.iter_mut().zip(s).for_each(|(x, &y)| *x = f(y, *x)),
        (Lanes::Splat(c), false) => r.iter_mut().for_each(|x| *x = f(*x, c)),
        (Lanes::Splat(c), true) => r.iter_mut().for_each(|x| *x = f(c, *x)),
    }
}

/// `out[l] ← f(a[l], b[l])` over one strip.
#[inline(always)]
fn map3(out: &mut [f64], a: Lanes<'_>, b: Lanes<'_>, f: impl Fn(f64, f64) -> f64) {
    use Lanes::{Splat, Strip};
    match (a, b) {
        (Strip(a), Strip(b)) => out
            .iter_mut()
            .zip(a)
            .zip(b)
            .for_each(|((o, &x), &y)| *o = f(x, y)),
        (Strip(a), Splat(c)) => out.iter_mut().zip(a).for_each(|(o, &x)| *o = f(x, c)),
        (Splat(c), Strip(b)) => out.iter_mut().zip(b).for_each(|(o, &y)| *o = f(c, y)),
        (Splat(c), Splat(d)) => out.fill(f(c, d)),
    }
}

/// One strip of a one-operand node. Each arm names its operation as a
/// constant, so its loop is monomorphized with the operation inlined;
/// a function missing from the list still runs, through the generic
/// last arm.
fn unary(op: Op1, r: &mut [f64]) {
    macro_rules! funs {
        ($($f:ident)*) => {
            match op {
                Op1::Neg => map1(r, |x| -x),
                Op1::Not => map1(r, |x| f64::from(x == 0.0)),
                $(Op1::Fun(SFun::$f) => map1(r, |x| SFun::$f.eval(&[x])),)*
                Op1::Fun(f) => map1(r, |x| f.eval(&[x])),
            }
        };
    }
    funs!(Sqrt Abs Sin Cos Tan Exp Log Log2 Floor Ceil Round Sign)
}

/// `$body` with `$f` bound to `op`'s lane function, monomorphized per
/// operation as [`unary`] is.
macro_rules! with_op2 {
    ($op:expr, $f:ident => $body:expr) => {
        with_op2!(@ $op, $f, $body; Add Sub Mul Div Pow Eq Ne Lt Le Gt Ge And Or; Pow Mod Rem Max Min)
    };
    (@ $op:expr, $f:ident, $body:expr; $($e:ident)*; $($g:ident)*) => {
        match $op {
            $(Op2::Ew(EwOp::$e) => { let $f = |x, y| EwOp::$e.eval(x, y); $body })*
            $(Op2::Fun(SFun::$g) => { let $f = |x, y| SFun::$g.eval(&[x, y]); $body })*
            Op2::Fun(g) => { let $f = |x, y| g.eval(&[x, y]); $body }
        }
    };
}

/// One strip of a two-operand node into its first operand's register.
fn binary(op: Op2, r: &mut [f64], b: Lanes<'_>, swap: bool) {
    with_op2!(op, f => map2(r, b, swap, f))
}

/// One strip of a two-operand node into `out`.
fn binary_to(op: Op2, out: &mut [f64], a: Lanes<'_>, b: Lanes<'_>) {
    with_op2!(op, f => map3(out, a, b, f))
}

/// Convert a linear (column-major) 0-based index into (row, col).
fn linear_to_rc(m: &DistMatrix, k: usize) -> Result<(usize, usize)> {
    if k >= m.len() {
        return Err(OtterError::execution(format!(
            "linear index {} out of bounds ({} elements)",
            k + 1,
            m.len()
        )));
    }
    if m.is_vector() {
        // Vectors index along their length.
        if m.rows() == 1 {
            Ok((0, k))
        } else {
            Ok((k, 0))
        }
    } else {
        // Column-major like MATLAB.
        Ok((k % m.rows(), k / m.rows()))
    }
}

/// Result of one rank's execution.
pub struct ExecOutcome {
    /// The script frame's final values, by slot.
    pub workspace: Vec<Option<XVal>>,
    pub output: String,
    /// High-water mark of this rank's live *named* distributed-matrix
    /// bytes (workspace view).
    pub peak_local_bytes: usize,
    /// High-water mark of *all* distributed-matrix allocations on this
    /// rank, temporaries included (run-time allocator view).
    pub peak_temp_bytes: usize,
    /// Executed-instruction counts by opcode.
    pub op_counts: BTreeMap<&'static str, u64>,
    /// Realized communication per leaf site in [`otter_ir::leaf_sites`]
    /// order; empty unless [`ExecOptions::analyze`] was set.
    pub site_comm: Vec<SiteComm>,
}

#[cfg(test)]
mod tests {
    //! The strip evaluator against the per-element tree walk it
    //! replaced, which lives on here as the reference implementation.

    use super::*;
    use otter_det::DetRng;

    /// The pre-strip compiled tree: one boxed node per expression node.
    enum CEw {
        /// Element `k` of operand slice `i`.
        Slice(usize),
        /// Element `k` of the destination buffer's previous contents.
        Dst,
        Const(f64),
        Neg(Box<CEw>),
        Not(Box<CEw>),
        Bin(EwOp, Box<CEw>, Box<CEw>),
        Call(SFun, Vec<CEw>),
    }

    /// The pre-strip per-element evaluator.
    fn ceval(e: &CEw, slices: &[&[f64]], dst: &[f64], k: usize) -> f64 {
        match e {
            CEw::Slice(i) => slices[*i][k],
            CEw::Dst => dst[k],
            CEw::Const(v) => *v,
            CEw::Neg(x) => -ceval(x, slices, dst, k),
            CEw::Not(x) => f64::from(ceval(x, slices, dst, k) == 0.0),
            CEw::Bin(op, a, b) => op.eval(ceval(a, slices, dst, k), ceval(b, slices, dst, k)),
            CEw::Call(f, args) => {
                let vals: Vec<f64> = args.iter().map(|a| ceval(a, slices, dst, k)).collect();
                f.eval(&vals)
            }
        }
    }

    /// The pre-strip `compile_ew` (scalar leaves are constants here).
    fn reference_compile(e: &EwExpr, slices: &[Slot], dst_alias: Option<Slot>) -> CEw {
        let sub = |x: &EwExpr| Box::new(reference_compile(x, slices, dst_alias));
        match e {
            EwExpr::Mat(m) if Some(*m) == dst_alias => CEw::Dst,
            EwExpr::Mat(m) => CEw::Slice(slices.iter().position(|n| n == m).unwrap()),
            EwExpr::Scalar(s) => CEw::Const(constant(s).unwrap()),
            EwExpr::Neg(x) => CEw::Neg(sub(x)),
            EwExpr::Not(x) => CEw::Not(sub(x)),
            EwExpr::Bin(op, a, b) => CEw::Bin(*op, sub(a), sub(b)),
            EwExpr::Call(f, args) => CEw::Call(
                *f,
                args.iter()
                    .map(|a| reference_compile(a, slices, dst_alias))
                    .collect(),
            ),
            EwExpr::Gen { .. } => unreachable!("the random trees hold no generators"),
        }
    }

    /// The pre-strip fused-reduction fold, with `any`/`all` as
    /// short-circuiting scans.
    fn reference_reduce(op: RedOp, e: &CEw, slices: &[&[f64]], len: usize) -> f64 {
        let each = |k: usize| ceval(e, slices, &[], k);
        match op {
            RedOp::Fold(ColRedOp::Sum | ColRedOp::Mean) => (0..len).map(each).sum::<f64>(),
            RedOp::Fold(ColRedOp::Max) => (0..len).map(each).fold(f64::NEG_INFINITY, f64::max),
            RedOp::Fold(ColRedOp::Min) => (0..len).map(each).fold(f64::INFINITY, f64::min),
            RedOp::Fold(ColRedOp::Prod) => (0..len).map(each).product::<f64>(),
            RedOp::Fold(ColRedOp::Any) => f64::from((0..len).map(each).any(|x| x != 0.0)),
            RedOp::Fold(ColRedOp::All) => f64::from((0..len).map(each).all(|x| x != 0.0)),
            RedOp::Norm2 => (0..len).map(each).map(|x| x * x).sum::<f64>(),
            RedOp::Trapz => unreachable!("never fused"),
        }
    }

    /// The executor's fused partial of `op`.
    fn fused(program: &EwProgram, op: RedOp, slices: &[&[f64]], len: usize) -> f64 {
        let (mut regs, values) = (registers(program), scalars(program));
        let src = operands(slices, &values);
        match op {
            RedOp::Fold(f) => program.col_partials(&mut regs, col_op(f), src, len, None)[0],
            _ => program.sum_squares(&mut regs, src, len),
        }
    }

    fn constant(s: &SExpr) -> Result<f64> {
        match s {
            SExpr::Const(v) => Ok(*v),
            other => Err(OtterError::execution(format!("not a constant: {other:?}"))),
        }
    }

    /// The values of a program's scalar leaves, as the executor reads
    /// them.
    fn scalars(program: &EwProgram) -> Vec<f64> {
        program
            .scalars
            .iter()
            .map(|s| constant(s).unwrap())
            .collect()
    }

    /// A register bank holding NaN, so a step that reads a register it
    /// has not written shows.
    fn registers(program: &EwProgram) -> Vec<[f64; STRIP]> {
        vec![[f64::NAN; STRIP]; program.depth]
    }

    fn operands<'a>(slices: &'a [&'a [f64]], scalars: &'a [f64]) -> Operands<'a> {
        Operands {
            slices,
            scalars,
            gens: &[],
            dst: &[],
        }
    }

    const FOLDS: [RedOp; 8] = [
        RedOp::Fold(ColRedOp::Sum),
        RedOp::Fold(ColRedOp::Mean),
        RedOp::Fold(ColRedOp::Max),
        RedOp::Fold(ColRedOp::Min),
        RedOp::Fold(ColRedOp::Prod),
        RedOp::Fold(ColRedOp::Any),
        RedOp::Fold(ColRedOp::All),
        RedOp::Norm2,
    ];
    const EW_OPS: [EwOp; 13] = [
        EwOp::Add,
        EwOp::Sub,
        EwOp::Mul,
        EwOp::Div,
        EwOp::Pow,
        EwOp::Eq,
        EwOp::Ne,
        EwOp::Lt,
        EwOp::Le,
        EwOp::Gt,
        EwOp::Ge,
        EwOp::And,
        EwOp::Or,
    ];
    const SFUNS: [SFun; 17] = [
        SFun::Sqrt,
        SFun::Abs,
        SFun::Sin,
        SFun::Cos,
        SFun::Tan,
        SFun::Exp,
        SFun::Log,
        SFun::Log2,
        SFun::Floor,
        SFun::Ceil,
        SFun::Round,
        SFun::Sign,
        SFun::Pow,
        SFun::Mod,
        SFun::Rem,
        SFun::Max,
        SFun::Min,
    ];
    /// Operand values IEEE edge cases live at.
    const SPECIAL: [f64; 16] = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        0.0,
        5e-324,
        -5e-324,
        f64::MIN_POSITIVE / 4.0,
        1.0,
        -1.0,
        0.5,
        2.0,
        -2.5,
        3.75,
        1e308,
        -7.0,
    ];
    const LENS: [usize; 7] = [0, 1, 255, 256, 257, 513, 5000];
    /// Matrix operand slots; the first doubles as the in-place
    /// destination.
    const MATS: [Slot; 3] = [Slot(0), Slot(1), Slot(2)];

    fn value(rng: &mut DetRng) -> f64 {
        if rng.gen_index(4) == 0 {
            rng.gen_range(-10.0..10.0)
        } else {
            SPECIAL[rng.gen_index(SPECIAL.len())]
        }
    }

    fn leaf(rng: &mut DetRng) -> EwExpr {
        if rng.gen_index(3) == 0 {
            EwExpr::Scalar(SExpr::Const(value(rng)))
        } else {
            EwExpr::Mat(MATS[rng.gen_index(MATS.len())])
        }
    }

    fn call(f: SFun, rng: &mut DetRng, depth: usize) -> EwExpr {
        EwExpr::Call(f, (0..f.arity()).map(|_| tree(rng, depth)).collect())
    }

    fn tree(rng: &mut DetRng, depth: usize) -> EwExpr {
        if depth == 0 || rng.gen_index(4) == 0 {
            return leaf(rng);
        }
        match rng.gen_index(4) {
            0 => EwExpr::Neg(Box::new(tree(rng, depth - 1))),
            1 => EwExpr::Not(Box::new(tree(rng, depth - 1))),
            2 => EwExpr::bin(
                EW_OPS[rng.gen_index(EW_OPS.len())],
                tree(rng, depth - 1),
                tree(rng, depth - 1),
            ),
            _ => call(SFUNS[rng.gen_index(SFUNS.len())], rng, depth - 1),
        }
    }

    /// Equal bits, except that any NaN matches any NaN: Rust leaves
    /// the sign and payload of a NaN that arithmetic produces
    /// unspecified, so a compiler may change them without changing the
    /// program's meaning. Every other lane, −0.0 included, must match
    /// exactly.
    fn same_bits(got: f64, want: f64) -> bool {
        got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan())
    }

    /// How the in-place program's last step writes the destination:
    /// the step, and whether it reads the lane it overwrites.
    type Store = (&'static str, bool);

    /// Every way the executor runs `e` — out of place, in place over
    /// `m0`, and each fused fold — against the reference, bit for bit.
    fn check(e: &EwExpr, data: &[Vec<f64>]) -> Store {
        let len = data[0].len();
        let names = MATS;
        let slices: Vec<&[f64]> = data.iter().map(Vec::as_slice).collect();

        let program = compile_ew(e, &names, None).unwrap();
        let cew = reference_compile(e, &names, None);
        let (mut regs, values) = (registers(&program), scalars(&program));
        let got = program.run_fresh(&mut regs, operands(&slices, &values), len);
        for (k, &g) in got.iter().enumerate() {
            let want = ceval(&cew, &slices, &[], k);
            assert!(
                same_bits(g, want),
                "len {len} lane {k}: {g} vs {want}\n{e:?}"
            );
        }
        assert_eq!(got.len(), len);
        for op in FOLDS {
            let (g, want) = (
                fused(&program, op, &slices, len),
                reference_reduce(op, &cew, &slices, len),
            );
            assert!(same_bits(g, want), "len {len} {op:?}: {g} vs {want}\n{e:?}");
        }

        let (dst, rest) = (Some(MATS[0]), &names[1..]);
        let program = compile_ew(e, rest, dst).unwrap();
        let cew = reference_compile(e, rest, dst);
        let (mut regs, values) = (registers(&program), scalars(&program));
        let mut got = data[0].clone();
        program.run_in_place(&mut regs, operands(&slices[1..], &values), &mut got);
        let mut want = data[0].clone();
        for k in 0..len {
            let v = ceval(&cew, &slices[1..], &want, k);
            want[k] = v;
        }
        for k in 0..len {
            assert!(
                same_bits(got[k], want[k]),
                "in place, len {len} lane {k}: {} vs {}\n{e:?}",
                got[k],
                want[k]
            );
        }
        match *program.steps.last().unwrap() {
            Step::Leaves { a, b, .. } => ("leaves", a == Leaf::Dst || b == Leaf::Dst),
            Step::WithLeaf { leaf, .. } => ("with-leaf", leaf == Leaf::Dst),
            Step::Pop { .. } => ("pop", false),
            _ => ("through a register", false),
        }
    }

    #[test]
    fn strip_programs_match_the_per_element_walk_bit_for_bit() {
        let mut rng = DetRng::seed_from_u64(0x5712_1998);
        // Every operator and function at the root of a random tree,
        // then free-form trees.
        let mut trees: Vec<EwExpr> = EW_OPS
            .iter()
            .map(|&op| EwExpr::bin(op, tree(&mut rng, 2), tree(&mut rng, 2)))
            .collect();
        for f in SFUNS {
            trees.push(call(f, &mut rng, 2));
        }
        for _ in 0..24 {
            trees.push(tree(&mut rng, 5));
        }
        // Every operand pair of a last two-operand step: two leaves
        // (the destination `m0` on either side, on both, or on
        // neither), and a register with `m0` or a scalar, or with
        // another register.
        let [m0, m1, m2] = MATS.map(EwExpr::Mat);
        let c = || EwExpr::Scalar(SExpr::Const(-2.5));
        let reg = |m: &EwExpr| EwExpr::Neg(Box::new(m.clone()));
        for op in EW_OPS {
            for (a, b) in [
                (m0.clone(), m1.clone()),
                (m1.clone(), m0.clone()),
                (m0.clone(), m0.clone()),
                (m1.clone(), c()),
                (c(), m2.clone()),
                (c(), c()),
                (reg(&m1), m0.clone()),
                (m0.clone(), reg(&m2)),
                (reg(&m1), c()),
                (c(), reg(&m0)),
                (reg(&m1), reg(&m0)),
            ] {
                trees.push(EwExpr::bin(op, a, b));
            }
        }
        let mut stores = std::collections::BTreeSet::new();
        for len in LENS {
            let data: Vec<Vec<f64>> = MATS
                .iter()
                .map(|_| (0..len).map(|_| value(&mut rng)).collect())
                .collect();
            for e in &trees {
                stores.insert(check(e, &data));
            }
        }
        let want = [
            ("leaves", false),
            ("leaves", true),
            ("pop", false),
            ("through a register", false),
            ("with-leaf", false),
            ("with-leaf", true),
        ];
        assert_eq!(stores.into_iter().collect::<Vec<_>>(), want);
    }

    #[test]
    fn fused_folds_keep_their_edge_cases() {
        let m0 = EwExpr::Mat(MATS[0]);
        let run = |op: RedOp, lanes: Vec<f64>| {
            let len = lanes.len();
            let data = vec![lanes, vec![1.0; len], vec![1.0; len]];
            check(&m0, &data);
            let slices: Vec<&[f64]> = data.iter().map(Vec::as_slice).collect();
            let program = compile_ew(&m0, &MATS, None).unwrap();
            fused(&program, op, &slices, len)
        };
        // A sum of −0.0 lanes stays −0.0, across strip boundaries too.
        for len in LENS {
            let s = run(RedOp::Fold(ColRedOp::Sum), vec![-0.0; len]);
            assert!(same_bits(s, -0.0), "len {len}: {s:?}");
        }
        // max/min skip NaN operands; an all-NaN fold keeps its initial ±∞.
        let mut lanes = vec![f64::NAN; 600];
        lanes[300] = 2.0;
        lanes[5] = -3.0;
        assert_eq!(run(RedOp::Fold(ColRedOp::Max), lanes.clone()), 2.0);
        assert_eq!(run(RedOp::Fold(ColRedOp::Min), lanes), -3.0);
        assert_eq!(
            run(RedOp::Fold(ColRedOp::Max), vec![f64::NAN; 257]),
            f64::NEG_INFINITY
        );
        // prod with 0·∞ is NaN.
        let mut lanes = vec![1.0; 513];
        lanes[3] = 0.0;
        lanes[400] = f64::INFINITY;
        assert!(run(RedOp::Fold(ColRedOp::Prod), lanes).is_nan());
    }

    #[test]
    fn deep_fused_chains_run_in_two_registers() {
        // `x = x .* 0.5 + 1;` folded 1 000 times is a 2 000-deep tree;
        // with leaves folded into their consumers and the deeper child
        // first, every shape of chain needs at most two registers.
        let links: [fn(EwExpr) -> EwExpr; 4] = [
            |x| {
                EwExpr::bin(
                    EwOp::Add,
                    EwExpr::bin(EwOp::Mul, x, EwExpr::Scalar(SExpr::Const(0.5))),
                    EwExpr::Scalar(SExpr::Const(1.0)),
                )
            },
            |x| {
                EwExpr::bin(
                    EwOp::Add,
                    EwExpr::Scalar(SExpr::Const(1.0)),
                    EwExpr::bin(EwOp::Mul, EwExpr::Scalar(SExpr::Const(0.5)), x),
                )
            },
            |x| {
                EwExpr::bin(
                    EwOp::Sub,
                    x,
                    EwExpr::bin(EwOp::Mul, EwExpr::Mat(MATS[1]), EwExpr::Mat(MATS[2])),
                )
            },
            |x| {
                EwExpr::bin(
                    EwOp::Div,
                    EwExpr::Call(SFun::Max, vec![EwExpr::Mat(MATS[1]), EwExpr::Mat(MATS[2])]),
                    x,
                )
            },
        ];
        let mut rng = DetRng::seed_from_u64(7);
        let data: Vec<Vec<f64>> = MATS
            .iter()
            .map(|_| (0..300).map(|_| rng.gen_range(0.5..2.0)).collect())
            .collect();
        for link in links {
            let mut e = EwExpr::Mat(MATS[0]);
            for _ in 0..1000 {
                e = link(e);
            }
            let program = compile_ew(&e, &MATS, None).unwrap();
            assert!(program.depth <= 2, "depth {}", program.depth);
            check(&e, &data);
        }
    }

    /// `src`'s results `names` from the compiled engine at p = 1, 3 and
    /// 4 against the interpreter's, bit for bit. The scripts keep every
    /// value dyadic, so a sum is exact in any order.
    fn matches_the_interpreter(src: &str, names: &[&str]) {
        let opts = crate::EngineOptions::default();
        let machine = otter_machine::workstation();
        let want = crate::run_engine(crate::Engine::Interpreter, src, &opts, &machine, 1)
            .unwrap_or_else(|e| panic!("interpreter: {e}\n{src}"));
        let compiled = crate::compile(src, &opts).unwrap_or_else(|e| panic!("{e}\n{src}"));
        for p in [1, 3, 4] {
            let got = crate::run(&compiled, &crate::RunRequest::on(machine.clone(), p))
                .unwrap_or_else(|e| panic!("p={p}: {e}\n{src}"));
            for name in names {
                let (w, g) = (want.matrix(name).unwrap(), got.matrix(name).unwrap());
                assert_eq!((w.rows(), w.cols()), (g.rows(), g.cols()), "{name}, p={p}");
                for (x, y) in w.data().iter().zip(g.data()) {
                    assert!(same_bits(*y, *x), "{name}, p={p}: {y} vs {x}\n{src}");
                }
            }
        }
    }

    #[test]
    fn a_loop_reads_its_scalars_at_every_execution() {
        // `cm` changes on every trip, as in nbody, and `s` is
        // reassigned inside the loop: a program built at the first trip
        // must not keep their first values.
        let src = "n = 512;\nx = (1:n)' / 512;\nv = zeros(n, 1);\ns = 0.5;\ng = 4;\n\
                   for step = 1:5\n  cm = mean(x);\n  acc = g * (cm - x);\n\
                   v = v + s * acc;\n  s = s + 0.25;\n  x = x + 0.125 * v;\nend\n";
        matches_the_interpreter(src, &["x", "v", "acc", "s"]);
    }

    #[test]
    fn a_destination_alternates_between_in_place_and_fresh() {
        // `y` is undefined on the first trip, then overwritten in place,
        // then reallocated when `a` grows on the fourth trip; `w` reads
        // its own old value in place, at both lengths.
        let src = "for k = 1:6\n  m = 256 + (k > 3) * 5;\n  a = (1:m)' / 4;\n\
                   y = a * 0.5 + k;\n  w = a;\n  w = w .* 0.25 - k;\nend\n";
        matches_the_interpreter(src, &["y", "w"]);
    }

    /// Element-wise throughput, printed and never checked:
    /// `cargo test --release -p otter-core --lib exec::tests::throughput_probe -- --ignored --nocapture`.
    /// Each figure is the time per trip of a compiled loop whose body
    /// is the one instruction measured, less an empty loop's, as the
    /// best of five p = 1 runs.
    #[test]
    #[ignore]
    fn throughput_probe() {
        let per_trip = |setup: &str, body: &str, trips: usize| {
            let time = |body: &str| {
                let src = format!("{setup}for i = 1:{trips}\n{body}end\n");
                let compiled = crate::compile(&src, &crate::EngineOptions::default()).unwrap();
                let req = crate::RunRequest::on(otter_machine::workstation(), 1);
                let best = (0..5)
                    .map(|_| {
                        let t0 = std::time::Instant::now();
                        crate::run(&compiled, &req).unwrap();
                        t0.elapsed().as_secs_f64()
                    })
                    .fold(f64::INFINITY, f64::min);
                best / trips as f64
            };
            time(body) - time("")
        };
        let fixed = per_trip("x = ones(16, 1);\n", "y = x + 1;\n", 100_000);
        println!("element-wise instruction at n = 16: {:.0} ns", fixed * 1e9);
        for n in [256, 5000, 100_000] {
            let setup = format!("x = ones({n}, 1);\nv = zeros({n}, 1);\n");
            let t = per_trip(&setup, "v = v + 0.002 * x;\n", 20_000_000 / n);
            println!(
                "v = v + 0.002 * x at n = {n}: {:.3} ns/element",
                t * 1e9 / n as f64
            );
        }
        let setup = "u = (1:64)' / 64;\nw = linspace(0, 1, 16384);\n";
        let bytes = (64 * 16384 * 8) as f64;
        let t = per_trip(setup, "field = u * w;\n", 50);
        println!(
            "8 MiB outer: {:.2} ms, {:.1} GB/s",
            t * 1e3,
            bytes / t / 1e9
        );
        let setup = format!("{setup}field = u * w;\n");
        let t = per_trip(&setup, "e = sum(sum(field .* field));\n", 50);
        println!(
            "8 MiB col-reduce-ew: {:.2} ms, {:.1} GB/s",
            t * 1e3,
            bytes / t / 1e9
        );
    }

    #[test]
    fn wrong_arity_is_an_error_not_a_panic() {
        let e = EwExpr::Call(SFun::Max, vec![EwExpr::Mat(MATS[0])]);
        let err = compile_ew(&e, &MATS[..1], None).unwrap_err();
        assert!(
            err.to_string().contains("takes 2 argument(s), got 1"),
            "{err}"
        );
    }
}
