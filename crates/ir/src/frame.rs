//! The program the passes share: one [`Frame`] per scope, each with
//! its variables numbered.
//!
//! In the paper's C every MATLAB variable is a declared local of its
//! function. Here lowering gives each variable of each scope a
//! [`Slot`], an index into the scope's [`Vars`] table, and every later
//! pass, the C emitter and the executor read that one program. The
//! table keeps each variable's name (for printers and diagnostics, and
//! the [`crate::names`] rules), its rank, and the facts inference and
//! the analyses attach to it.

use crate::instr::{Instr, VarRank};
use crate::names;
use otter_analysis::Shape;
use otter_frontend::Span;
use std::collections::BTreeMap;
use std::ops::{Index, IndexMut};

/// A variable's index in its frame's [`Vars`] table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Slot(pub u32);

impl Slot {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What a frame knows about one of its variables.
#[derive(Debug, Clone, PartialEq)]
pub struct Var {
    pub name: String,
    /// Replicated scalar or distributed matrix (the C declaration).
    pub rank: VarRank,
    /// Source span of the first definition, for diagnostics.
    pub def_span: Option<Span>,
    /// Static (possibly symbolic) shape of a matrix, from pass-3
    /// inference. Metadata for the static analyses; execution and C
    /// emission never read it.
    pub shape: Option<Shape>,
    /// Known constant value of a scalar (pass-3 constant propagation).
    pub konst: Option<f64>,
    /// Proven safe to update in place (no live SSA sibling overlaps a
    /// write). Set by `otter_lint::shape::annotate_in_place`; metadata
    /// only.
    pub in_place: bool,
}

impl Var {
    pub fn new(name: impl Into<String>, rank: VarRank) -> Var {
        Var {
            name: name.into(),
            rank,
            def_span: None,
            shape: None,
            konst: None,
            in_place: false,
        }
    }
}

/// A frame's slot table: slot `s` is the variable `vars[s]`. Names are
/// unique within a frame.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Vars(Vec<Var>);

impl Vars {
    /// Add a variable under a fresh slot.
    pub fn add(&mut self, var: Var) -> Slot {
        self.0.push(var);
        Slot(self.0.len() as u32 - 1)
    }

    pub fn name(&self, s: Slot) -> &str {
        &self[s].name
    }

    /// Is `s` a compiler temporary ([`names::is_temp`])?
    pub fn is_temp(&self, s: Slot) -> bool {
        names::is_temp(self.name(s))
    }

    /// The slot named `name`, by a scan: for diagnostics and tests, not
    /// for passes.
    pub fn slot(&self, name: &str) -> Option<Slot> {
        self.iter().find(|(_, v)| v.name == name).map(|(s, _)| s)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = (Slot, &Var)> {
        self.0.iter().enumerate().map(|(i, v)| (Slot(i as u32), v))
    }

    /// Every variable, in name order. Slot order is first-definition
    /// order; anything printed as a list (C declarations, the in-place
    /// sets) goes through here so that the text does not depend on it.
    pub fn by_name(&self) -> Vec<(Slot, &Var)> {
        let mut vars: Vec<_> = self.iter().collect();
        vars.sort_by(|a, b| a.1.name.cmp(&b.1.name));
        vars
    }
}

impl Index<Slot> for Vars {
    type Output = Var;

    fn index(&self, s: Slot) -> &Var {
        &self.0[s.index()]
    }
}

impl IndexMut<Slot> for Vars {
    fn index_mut(&mut self, s: Slot) -> &mut Var {
        &mut self.0[s.index()]
    }
}

/// One scope: the script (whose name is empty) or a function.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Frame {
    pub name: String,
    pub params: Vec<Slot>,
    pub outs: Vec<Slot>,
    pub body: Vec<Instr>,
    pub vars: Vars,
}

impl Frame {
    /// The function's name; `None` for the script.
    pub fn func(&self) -> Option<&str> {
        Some(self.name.as_str()).filter(|n| !n.is_empty())
    }
}

/// A whole compiled program.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IrProgram {
    /// The script.
    pub main: Frame,
    /// Compiled M-file functions, by name.
    pub functions: BTreeMap<String, Frame>,
    /// The SSA web each script variable holds when the script ends, as
    /// (source name, slot of `main`) in name order. The workspace
    /// report reads these webs under their source names, so they are
    /// live on exit.
    pub exit_webs: Vec<(String, Slot)>,
}

impl IrProgram {
    /// The script's frame, then every function's in name order: the
    /// scope order of [`crate::leaf_sites`].
    pub fn frames(&self) -> impl Iterator<Item = &Frame> {
        std::iter::once(&self.main).chain(self.functions.values())
    }

    /// Every frame, each with the slots live when it ends: the
    /// script's exit webs, a function's outputs.
    pub fn frames_mut(&mut self) -> impl Iterator<Item = (&mut Frame, Vec<Slot>)> {
        let exit = self.live_out(&self.main);
        std::iter::once((&mut self.main, exit)).chain(self.functions.values_mut().map(|f| {
            let outs = f.outs.clone();
            (f, outs)
        }))
    }

    /// The slots live when `frame` ends (see [`IrProgram::frames_mut`]).
    pub fn live_out(&self, frame: &Frame) -> Vec<Slot> {
        match frame.func() {
            None => self.exit_webs.iter().map(|&(_, s)| s).collect(),
            Some(_) => frame.outs.clone(),
        }
    }

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
        self.frames()
            .flat_map(|f| crate::walk::preorder(&f.body).map(|(i, _)| i))
    }
}

/// Hand-written IR by name, for tests: [`v`] resolves a name to a slot
/// of one scratch table per thread, and [`frame`] copies that table, so
/// a body written with `v("x")` becomes a frame in which `x` names the
/// same slot. Each test runs on its own thread, so tables never mix.
pub mod by_name {
    use super::*;
    use crate::instr::{EwExpr, SExpr};
    use std::cell::RefCell;

    thread_local! {
        static TABLE: RefCell<Vars> = RefCell::default();
    }

    /// The slot of `name` in this thread's scratch table, added as a
    /// scalar the first time it is seen.
    pub fn v(name: &str) -> Slot {
        TABLE.with(|t| {
            let mut t = t.borrow_mut();
            t.slot(name)
                .unwrap_or_else(|| t.add(Var::new(name, VarRank::Scalar)))
        })
    }

    /// `name` as a scalar expression.
    pub fn var(name: &str) -> SExpr {
        SExpr::Var(v(name))
    }

    /// `name` as an element-wise operand.
    pub fn mat(name: &str) -> EwExpr {
        EwExpr::Mat(v(name))
    }

    /// Mark `names` as matrices in this thread's scratch table.
    pub fn matrices(names: &[&str]) {
        for n in names {
            let s = v(n);
            TABLE.with(|t| t.borrow_mut()[s].rank = VarRank::Matrix);
        }
    }

    /// The script frame of `body`, with every name seen so far.
    pub fn frame(body: Vec<Instr>) -> Frame {
        Frame {
            body,
            vars: TABLE.with(|t| t.borrow().clone()),
            ..Frame::default()
        }
    }

    /// A program whose script is `main`.
    pub fn program(main: Vec<Instr>) -> IrProgram {
        IrProgram {
            main: frame(main),
            ..IrProgram::default()
        }
    }
}
