//! Distribution-state inference and the lints built on it.
//!
//! Forward abstract interpretation with the lattice
//! `⊥ < {Replicated, RowDist, BlockVec} < ⊤` per SSA value:
//! replicated scalars, row-block-distributed matrices, and
//! block-distributed vectors — the three storage classes the run-time
//! library actually implements. Seeds come from constructors
//! (`zeros`, `rand`, `linspace`, `load`) and states transfer through
//! every `ML_*` op.
//!
//! Three lints ride on the walk:
//!
//! 1. **Redundant broadcast** — an owner-broadcast element fetch
//!    (`ML_broadcast(m, i, j)`) whose value is already replicated:
//!    the same element was fetched earlier and neither the matrix nor
//!    the index inputs changed since. A must-analysis (join =
//!    "available on *all* paths") keyed by the canonical `m[i,j]`
//!    text.
//! 2. **Redistribution churn** — a redistribution op (`transpose`,
//!    `circshift`, range/strided extraction) inside a loop whose
//!    inputs are all loop-invariant: the same redistribution runs
//!    every iteration and could be hoisted.
//! 3. **Dead distributed value** — a distributed (matrix-rank) value
//!    that is never consumed: a compiler temporary nobody reads, or a
//!    superseded SSA web (`x` overwritten by the `x__1` web without a
//!    single read in between).

use crate::dataflow::{run_block, Analysis, Env, FlowCtx, Lattice};
use crate::Finding;
use otter_ir::display::sexpr_to_string;
use otter_ir::*;
use std::collections::{BTreeMap, BTreeSet};

/// The per-value distribution-state lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistState {
    /// No information yet.
    Bot,
    /// Identical on every rank (scalars; paper §3 assumption 1).
    Replicated,
    /// Matrix distributed by contiguous row blocks.
    RowDist,
    /// Vector distributed by contiguous element blocks.
    BlockVec,
    /// Conflicting states on different paths.
    Top,
}

impl DistState {
    pub fn name(self) -> &'static str {
        match self {
            DistState::Bot => "⊥",
            DistState::Replicated => "replicated",
            DistState::RowDist => "row-dist",
            DistState::BlockVec => "block-vec",
            DistState::Top => "⊤",
        }
    }
}

impl Lattice for DistState {
    fn bottom() -> Self {
        DistState::Bot
    }

    fn join(&self, other: &Self) -> Self {
        match (self, other) {
            (DistState::Bot, x) | (x, DistState::Bot) => *x,
            (a, b) if a == b => *a,
            _ => DistState::Top,
        }
    }
}

/// Is a constructor shape a vector (one row or one column)?
fn vector_init(init: &MatInit) -> bool {
    let is_one = |e: &SExpr| matches!(e, SExpr::Const(v) if *v == 1.0);
    match init {
        MatInit::Range { .. } | MatInit::Linspace { .. } => true,
        MatInit::Zeros { rows, cols }
        | MatInit::Ones { rows, cols }
        | MatInit::Rand { rows, cols } => is_one(rows) || is_one(cols),
        MatInit::Eye { .. } => false,
        MatInit::Literal { rows } => rows.len() == 1 || rows.iter().all(|r| r.len() == 1),
    }
}

/// The distribution-state abstract interpreter, carrying the
/// redistribution-churn lint, over the frame whose table is `vars`.
pub struct DistAnalysis<'a> {
    vars: &'a Vars,
    pub findings: Vec<Finding>,
}

impl<'a> DistAnalysis<'a> {
    pub fn new(vars: &'a Vars) -> Self {
        DistAnalysis {
            vars,
            findings: Vec::new(),
        }
    }

    /// Lint 2: a redistribution executing inside a loop with all of
    /// its inputs defined outside every enclosing loop.
    fn check_churn(&mut self, instr: &Instr, env: &Env<DistState>, ctx: &FlowCtx) {
        if !ctx.in_loop() || !instr.comm_profile().point_to_point {
            return;
        }
        let redistribution = matches!(
            instr,
            Instr::Transpose { .. }
                | Instr::Shift { .. }
                | Instr::ExtractRange { .. }
                | Instr::ExtractStrided { .. }
        );
        if !redistribution {
            return;
        }
        let mut reads = Vec::new();
        instr.reads(&mut reads);
        if reads.iter().any(|&r| ctx.defined_in_enclosing_loop(r)) {
            return; // inputs vary across iterations — a real recompute
        }
        let (Some(dst), Some(src)) = (instr.dst(), reads.first()) else {
            return;
        };
        let state = env.get(src);
        let dst = self.vars.name(dst);
        self.findings.push(Finding {
            anchor: dst.to_string(),
            message: format!(
                "redistribution churn: `{}` repeats the same `{}` of loop-invariant \
                 `{}` ({}) on every iteration; hoist it out of the loop",
                dst,
                instr.opcode(),
                self.vars.name(*src),
                state.name(),
            ),
        });
    }
}

impl Analysis for DistAnalysis<'_> {
    type Fact = DistState;
    type Key = Slot;

    fn transfer(&mut self, instr: &Instr, env: &mut Env<DistState>, ctx: &FlowCtx) {
        if let Instr::Fused(f) = instr {
            for i in f.unfused(self.vars) {
                self.transfer(&i, env, ctx);
            }
            return;
        }
        self.check_churn(instr, env, ctx);
        let state = match instr {
            Instr::AssignScalar { .. }
            | Instr::BroadcastElem { .. }
            | Instr::Reduce { .. }
            | Instr::Dot { .. }
            | Instr::TrapzXY { .. } => Some(DistState::Replicated),
            Instr::InitMatrix { init, .. } => Some(if vector_init(init) {
                DistState::BlockVec
            } else {
                DistState::RowDist
            }),
            Instr::LoadFile { .. } | Instr::MatMul { .. } | Instr::Outer { .. } => {
                Some(DistState::RowDist)
            }
            Instr::MatVec { .. } | Instr::ColReduce { .. } => Some(DistState::BlockVec),
            Instr::ExtractRow { .. }
            | Instr::ExtractCol { .. }
            | Instr::ExtractRange { .. }
            | Instr::ExtractStrided { .. } => Some(DistState::BlockVec),
            Instr::CopyMatrix { src, .. } => Some(env.get(src)),
            Instr::Transpose { a, .. } => Some(match env.get(a) {
                // Transposing a vector keeps it a vector (row↔column);
                // transposing a matrix keeps it row-distributed (the
                // op redistributes *data*, not the storage class).
                DistState::BlockVec => DistState::BlockVec,
                DistState::Bot => DistState::Top,
                s => s,
            }),
            Instr::Shift { v, .. } => Some(env.get(v)),
            Instr::ElemWise { expr, .. } => {
                let mut mats = Vec::new();
                expr.mat_operands(&mut mats);
                let joined = mats
                    .iter()
                    .fold(DistState::Bot, |acc, m| acc.join(&env.get(m)));
                Some(if joined == DistState::Bot {
                    DistState::Top
                } else {
                    joined
                })
            }
            Instr::For { var, .. } => {
                env.set(*var, DistState::Replicated);
                None
            }
            Instr::Call { outs, .. } => {
                for &o in outs {
                    let s = if self.vars[o].rank == VarRank::Matrix {
                        DistState::Top // callee-determined; unknown here
                    } else {
                        DistState::Replicated
                    };
                    env.set(o, s);
                }
                None
            }
            _ => None,
        };
        if let (Some(s), Some(dst)) = (state, instr.dst()) {
            env.set(dst, s);
        }
    }
}

/// Must-availability of a broadcast element: `Yes` only when every
/// path since the last kill re-established it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Avail {
    /// Path never saw this broadcast (vacuously available — join
    /// identity).
    Unknown,
    Yes,
    No,
}

impl Lattice for Avail {
    fn bottom() -> Self {
        Avail::Unknown
    }

    fn join(&self, other: &Self) -> Self {
        match (self, other) {
            (Avail::Unknown, x) | (x, Avail::Unknown) => *x,
            (Avail::Yes, Avail::Yes) => Avail::Yes,
            _ => Avail::No,
        }
    }
}

/// Lint 1: available-broadcast analysis, over the frame whose table
/// is `vars`. Facts are keyed by the element's canonical `m[i, j]`
/// text.
pub struct AvailBcast<'a> {
    vars: &'a Vars,
    /// Which variables each availability key depends on (the matrix
    /// and every index-expression input); a def of any dependency
    /// kills the key.
    deps: BTreeMap<String, BTreeSet<Slot>>,
    pub findings: Vec<Finding>,
}

impl<'a> AvailBcast<'a> {
    pub fn new(vars: &'a Vars) -> Self {
        AvailBcast {
            vars,
            deps: BTreeMap::new(),
            findings: Vec::new(),
        }
    }

    fn key(&self, m: Slot, i: &SExpr, j: &Option<SExpr>) -> String {
        let (m, s) = (self.vars.name(m), |e| sexpr_to_string(e, self.vars));
        match j {
            Some(j) => format!("{m}[{}, {}]", s(i), s(j)),
            None => format!("{m}[{}]", s(i)),
        }
    }
}

impl Analysis for AvailBcast<'_> {
    type Fact = Avail;
    type Key = String;

    fn transfer(&mut self, instr: &Instr, env: &mut Env<Avail, String>, _ctx: &FlowCtx) {
        // Kills first: a def of the matrix or of any index input
        // invalidates the fetched value.
        let mut defs = Vec::new();
        instr.defs(&mut defs);
        if !defs.is_empty() {
            let killed: Vec<String> = self
                .deps
                .iter()
                .filter(|(_, d)| defs.iter().any(|v| d.contains(v)))
                .map(|(k, _)| k.clone())
                .collect();
            for k in killed {
                env.set(k, Avail::No);
            }
        }
        if let Instr::BroadcastElem { dst, m, i, j } = instr {
            let key = self.key(*m, i, j);
            if env.get(&key) == Avail::Yes {
                self.findings.push(Finding {
                    anchor: self.vars.name(*dst).to_string(),
                    message: format!(
                        "redundant broadcast: element `{key}` is already replicated by an \
                         earlier `ML_broadcast` and none of its inputs changed; reuse that value"
                    ),
                });
            }
            let mut d = BTreeSet::from([*m]);
            let mut vars = Vec::new();
            sexpr_reads(i, &mut vars);
            if let Some(j) = j {
                sexpr_reads(j, &mut vars);
            }
            d.extend(vars);
            self.deps.insert(key.clone(), d);
            env.set(key, Avail::Yes);
        }
    }
}

/// Lint 3: distributed values never consumed. `live_out` variables
/// (the script's exit webs, a function's outputs) and the highest web
/// of each user variable are never flagged.
pub fn dead_distributed(frame: &Frame, live_out: &[Slot], findings: &mut Vec<Finding>) {
    let vars = &frame.vars;
    // Every variable read anywhere in the scope.
    let mut reads = Vec::new();
    for i in &frame.body {
        i.reads(&mut reads);
    }
    let read_set: BTreeSet<Slot> = reads.into_iter().collect();

    // Highest web per base name (`x` is web 0, `x__N` is web N): an
    // unread web below it was overwritten by a later one.
    fn web_of(name: &str) -> (&str, usize) {
        split_web(name).unwrap_or((name, 0))
    }
    let mut final_web: BTreeMap<&str, usize> = BTreeMap::new();
    for (_, var) in vars.iter() {
        let (base, web) = web_of(&var.name);
        let e = final_web.entry(base).or_insert(web);
        *e = (*e).max(web);
    }

    // First definition of each candidate, in program order.
    let mut seen: BTreeSet<Slot> = BTreeSet::new();
    for (instr, _) in preorder(&frame.body) {
        let Some(s) = instr.dst() else { continue };
        if !seen.insert(s) {
            continue;
        }
        if vars[s].rank != VarRank::Matrix {
            continue; // only *distributed* values
        }
        if read_set.contains(&s) || live_out.contains(&s) {
            continue;
        }
        let dst = vars.name(s);
        let (base, web) = web_of(dst);
        let superseded = if is_temp(dst) {
            String::new() // compiler temp nobody consumes
        } else {
            // A superseded SSA web: a later web of the same base
            // exists, so this def was overwritten without a read.
            match final_web.get(base) {
                Some(&f) if f > web => format!(" before `{}` overwrites it", web_name(base, f)),
                _ => continue,
            }
        };
        findings.push(Finding {
            anchor: dst.to_string(),
            message: format!(
                "dead distributed value: `{dst}` is allocated and computed on every \
                 rank but never read{superseded}"
            ),
        });
    }
}

/// Run the distribution-state walk plus its dependent lints over one
/// scope and return the findings.
pub fn lint_scope(frame: &Frame, live_out: &[Slot]) -> Vec<Finding> {
    let body = &frame.body;
    let mut dist = DistAnalysis::new(&frame.vars);
    run_block(
        &mut dist,
        body,
        &mut Env::default(),
        &mut FlowCtx::default(),
    );
    let mut avail = AvailBcast::new(&frame.vars);
    run_block(
        &mut avail,
        body,
        &mut Env::default(),
        &mut FlowCtx::default(),
    );
    let mut findings = dist.findings;
    findings.extend(avail.findings);
    dead_distributed(frame, live_out, &mut findings);
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use otter_ir::by_name::*;

    /// The scratch table so far, with `pairs`' ranks.
    fn ranks(pairs: &[(&str, VarRank)]) -> Vars {
        for &(n, r) in pairs {
            if r == VarRank::Matrix {
                matrices(&[n]);
            }
        }
        frame(vec![]).vars
    }

    fn scope(body: &[Instr], vars: &Vars) -> Frame {
        Frame {
            body: body.to_vec(),
            vars: vars.clone(),
            ..Frame::default()
        }
    }

    #[test]
    fn lattice_joins() {
        assert_eq!(DistState::Bot.join(&DistState::RowDist), DistState::RowDist);
        assert_eq!(
            DistState::RowDist.join(&DistState::BlockVec),
            DistState::Top
        );
        assert_eq!(
            DistState::Replicated.join(&DistState::Replicated),
            DistState::Replicated
        );
    }

    #[test]
    fn states_seed_and_flow() {
        let body = vec![
            Instr::InitMatrix {
                dst: v("a"),
                init: MatInit::Rand {
                    rows: SExpr::c(4.0),
                    cols: SExpr::c(4.0),
                },
            },
            Instr::InitMatrix {
                dst: v("v"),
                init: MatInit::Linspace {
                    a: SExpr::c(0.0),
                    b: SExpr::c(1.0),
                    n: SExpr::c(8.0),
                },
            },
            Instr::CopyMatrix {
                dst: v("b"),
                src: v("a"),
            },
            Instr::Reduce {
                dst: v("s"),
                op: RedOp::Fold(ColRedOp::Sum),
                m: v("v"),
            },
        ];
        let r = ranks(&[
            ("a", VarRank::Matrix),
            ("v", VarRank::Matrix),
            ("b", VarRank::Matrix),
            ("s", VarRank::Scalar),
        ]);
        let mut a = DistAnalysis::new(&r);
        let mut env = Env::default();
        run_block(&mut a, &body, &mut env, &mut FlowCtx::default());
        assert_eq!(env.get(&v("a")), DistState::RowDist);
        assert_eq!(env.get(&v("v")), DistState::BlockVec);
        assert_eq!(env.get(&v("b")), DistState::RowDist);
        assert_eq!(env.get(&v("s")), DistState::Replicated);
    }

    #[test]
    fn redundant_broadcast_flagged_only_when_inputs_unchanged() {
        let bcast = |dst: &str| Instr::BroadcastElem {
            dst: v(dst),
            m: v("a"),
            i: SExpr::c(1.0),
            j: Some(SExpr::c(2.0)),
        };
        // Back-to-back identical fetches: second is redundant.
        let body = [bcast("x"), bcast("y")];
        let store = Instr::StoreElem {
            m: v("a"),
            i: SExpr::c(1.0),
            j: Some(SExpr::c(2.0)),
            val: SExpr::c(9.0),
        };
        let vars = frame(vec![]).vars;
        let mut avail = AvailBcast::new(&vars);
        run_block(
            &mut avail,
            &body,
            &mut Env::default(),
            &mut FlowCtx::default(),
        );
        assert_eq!(avail.findings.len(), 1, "{:?}", avail.findings);
        assert!(avail.findings[0].message.contains("redundant broadcast"));

        // An intervening store into `a` kills availability.
        let mut avail = AvailBcast::new(&vars);
        run_block(
            &mut avail,
            &[bcast("x"), store, bcast("y")],
            &mut Env::default(),
            &mut FlowCtx::default(),
        );
        assert!(avail.findings.is_empty(), "{:?}", avail.findings);
    }

    #[test]
    fn loop_varying_broadcast_not_flagged() {
        // a(i, 1) inside `for i`: the index is killed every trip.
        let body = vec![Instr::For {
            var: v("i"),
            start: SExpr::c(1.0),
            step: SExpr::c(1.0),
            stop: SExpr::c(4.0),
            body: vec![Instr::BroadcastElem {
                dst: v("x"),
                m: v("a"),
                i: var("i"),
                j: Some(SExpr::c(1.0)),
            }],
        }];
        let vars = frame(vec![]).vars;
        let mut avail = AvailBcast::new(&vars);
        run_block(
            &mut avail,
            &body,
            &mut Env::default(),
            &mut FlowCtx::default(),
        );
        assert!(avail.findings.is_empty(), "{:?}", avail.findings);
    }

    #[test]
    fn churn_flags_loop_invariant_redistribution() {
        let body = vec![Instr::For {
            var: v("k"),
            start: SExpr::c(1.0),
            step: SExpr::c(1.0),
            stop: SExpr::c(10.0),
            body: vec![Instr::ExtractRange {
                dst: v("t"),
                v: v("v"),
                lo: SExpr::c(1.0),
                hi: SExpr::c(4.0),
            }],
        }];
        let r = ranks(&[("v", VarRank::Matrix), ("t", VarRank::Matrix)]);
        let findings = lint_scope(&scope(&body, &r), &[]);
        assert!(
            findings.iter().any(|f| f.message.contains("churn")),
            "{findings:?}"
        );

        // Same loop but the source varies per iteration: clean.
        let body = vec![Instr::For {
            var: v("k"),
            start: SExpr::c(1.0),
            step: SExpr::c(1.0),
            stop: SExpr::c(10.0),
            body: vec![Instr::Shift {
                dst: v("v"),
                v: v("v"),
                k: SExpr::c(1.0),
            }],
        }];
        let findings = lint_scope(&scope(&body, &r), &[]);
        assert!(
            !findings.iter().any(|f| f.message.contains("churn")),
            "{findings:?}"
        );
    }

    #[test]
    fn dead_superseded_web_flagged_but_final_web_kept() {
        let body = vec![
            Instr::InitMatrix {
                dst: v("a"),
                init: MatInit::Rand {
                    rows: SExpr::c(4.0),
                    cols: SExpr::c(4.0),
                },
            },
            Instr::InitMatrix {
                dst: v("a__1"),
                init: MatInit::Ones {
                    rows: SExpr::c(4.0),
                    cols: SExpr::c(4.0),
                },
            },
            Instr::Reduce {
                dst: v("s"),
                op: RedOp::Fold(ColRedOp::Sum),
                m: v("a__1"),
            },
        ];
        let r = ranks(&[
            ("a", VarRank::Matrix),
            ("a__1", VarRank::Matrix),
            ("s", VarRank::Scalar),
        ]);
        let mut findings = Vec::new();
        dead_distributed(&scope(&body, &r), &[], &mut findings);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("`a`"));
        assert!(findings[0].message.contains("a__1"));
    }

    #[test]
    fn function_outputs_never_dead() {
        let body = vec![Instr::InitMatrix {
            dst: v("y"),
            init: MatInit::Zeros {
                rows: SExpr::c(4.0),
                cols: SExpr::c(4.0),
            },
        }];
        let r = ranks(&[("y", VarRank::Matrix)]);
        let mut findings = Vec::new();
        dead_distributed(&scope(&body, &r), &[v("y")], &mut findings);
        assert!(findings.is_empty(), "{findings:?}");
    }
}
