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
/// redistribution-churn lint.
pub struct DistAnalysis<'a> {
    /// Matrix/scalar rank of every scope variable.
    ranks: &'a BTreeMap<String, VarRank>,
    pub findings: Vec<Finding>,
}

impl<'a> DistAnalysis<'a> {
    pub fn new(ranks: &'a BTreeMap<String, VarRank>) -> Self {
        DistAnalysis {
            ranks,
            findings: Vec::new(),
        }
    }

    fn is_matrix(&self, name: &str) -> bool {
        matches!(self.ranks.get(name), Some(VarRank::Matrix))
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
        if reads.iter().any(|r| ctx.defined_in_enclosing_loop(r)) {
            return; // inputs vary across iterations — a real recompute
        }
        let (Some(dst), Some(src)) = (instr.dst(), reads.first()) else {
            return;
        };
        let state = env.get(src);
        self.findings.push(Finding {
            anchor: dst.to_string(),
            message: format!(
                "redistribution churn: `{}` repeats the same `{}` of loop-invariant \
                 `{}` ({}) on every iteration; hoist it out of the loop",
                dst,
                instr.opcode(),
                src,
                state.name(),
            ),
        });
    }
}

impl Analysis for DistAnalysis<'_> {
    type Fact = DistState;

    fn transfer(&mut self, instr: &Instr, env: &mut Env<DistState>, ctx: &FlowCtx) {
        if let Instr::Fused(f) = instr {
            for i in f.unfused() {
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
                env.set(var.clone(), DistState::Replicated);
                None
            }
            Instr::Call { outs, .. } => {
                for o in outs {
                    let s = if self.is_matrix(o) {
                        DistState::Top // callee-determined; unknown here
                    } else {
                        DistState::Replicated
                    };
                    env.set(o.clone(), s);
                }
                None
            }
            _ => None,
        };
        if let (Some(s), Some(dst)) = (state, instr.dst()) {
            env.set(dst.to_string(), s);
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

/// Lint 1: available-broadcast analysis.
pub struct AvailBcast {
    /// Which variables each availability key depends on (the matrix
    /// and every index-expression input); a def of any dependency
    /// kills the key.
    deps: BTreeMap<String, BTreeSet<String>>,
    pub findings: Vec<Finding>,
}

impl AvailBcast {
    pub fn new() -> Self {
        AvailBcast {
            deps: BTreeMap::new(),
            findings: Vec::new(),
        }
    }

    fn key(m: &str, i: &SExpr, j: &Option<SExpr>) -> String {
        match j {
            Some(j) => format!("{m}[{}, {}]", sexpr_to_string(i), sexpr_to_string(j)),
            None => format!("{m}[{}]", sexpr_to_string(i)),
        }
    }
}

impl Default for AvailBcast {
    fn default() -> Self {
        AvailBcast::new()
    }
}

impl Analysis for AvailBcast {
    type Fact = Avail;

    fn transfer(&mut self, instr: &Instr, env: &mut Env<Avail>, _ctx: &FlowCtx) {
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
            let key = AvailBcast::key(m, i, j);
            if env.get(&key) == Avail::Yes {
                self.findings.push(Finding {
                    anchor: dst.clone(),
                    message: format!(
                        "redundant broadcast: element `{key}` is already replicated by an \
                         earlier `ML_broadcast` and none of its inputs changed; reuse that value"
                    ),
                });
            }
            let mut d = BTreeSet::from([m.clone()]);
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

/// Lint 3: distributed values never consumed. `live_out` names (the
/// script's exit webs, a function's outputs) and the highest web of
/// each user variable are never flagged.
pub fn dead_distributed(
    body: &[Instr],
    ranks: &BTreeMap<String, VarRank>,
    live_out: &[String],
    findings: &mut Vec<Finding>,
) {
    // Every name read anywhere in the scope.
    let mut reads = Vec::new();
    for i in body {
        i.reads(&mut reads);
    }
    let read_set: BTreeSet<&String> = reads.iter().collect();

    // Highest web per base name (`x` is web 0, `x__N` is web N): an
    // unread web below it was overwritten by a later one.
    fn web_of(name: &str) -> (&str, usize) {
        split_web(name).unwrap_or((name, 0))
    }
    let mut final_web: BTreeMap<&str, usize> = BTreeMap::new();
    for name in ranks.keys() {
        let (base, web) = web_of(name);
        let e = final_web.entry(base).or_insert(web);
        *e = (*e).max(web);
    }

    // First definition of each candidate, in program order.
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    for (instr, _) in preorder(body) {
        let Some(dst) = instr.dst() else { continue };
        if !seen.insert(dst) {
            continue;
        }
        if !matches!(ranks.get(dst), Some(VarRank::Matrix)) {
            continue; // only *distributed* values
        }
        if read_set.contains(&dst.to_string()) || live_out.iter().any(|o| o == dst) {
            continue;
        }
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
pub fn lint_scope(
    body: &[Instr],
    ranks: &BTreeMap<String, VarRank>,
    live_out: &[String],
) -> Vec<Finding> {
    let mut dist = DistAnalysis::new(ranks);
    run_block(
        &mut dist,
        body,
        &mut Env::default(),
        &mut FlowCtx::default(),
    );
    let mut avail = AvailBcast::new();
    run_block(
        &mut avail,
        body,
        &mut Env::default(),
        &mut FlowCtx::default(),
    );
    let mut findings = dist.findings;
    findings.extend(avail.findings);
    dead_distributed(body, ranks, live_out, &mut findings);
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ranks(pairs: &[(&str, VarRank)]) -> BTreeMap<String, VarRank> {
        pairs.iter().map(|(n, r)| (n.to_string(), *r)).collect()
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
                dst: "a".into(),
                init: MatInit::Rand {
                    rows: SExpr::c(4.0),
                    cols: SExpr::c(4.0),
                },
            },
            Instr::InitMatrix {
                dst: "v".into(),
                init: MatInit::Linspace {
                    a: SExpr::c(0.0),
                    b: SExpr::c(1.0),
                    n: SExpr::c(8.0),
                },
            },
            Instr::CopyMatrix {
                dst: "b".into(),
                src: "a".into(),
            },
            Instr::Reduce {
                dst: "s".into(),
                op: RedOp::Fold(ColRedOp::Sum),
                m: "v".into(),
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
        assert_eq!(env.get("a"), DistState::RowDist);
        assert_eq!(env.get("v"), DistState::BlockVec);
        assert_eq!(env.get("b"), DistState::RowDist);
        assert_eq!(env.get("s"), DistState::Replicated);
    }

    #[test]
    fn redundant_broadcast_flagged_only_when_inputs_unchanged() {
        let bcast = |dst: &str| Instr::BroadcastElem {
            dst: dst.into(),
            m: "a".into(),
            i: SExpr::c(1.0),
            j: Some(SExpr::c(2.0)),
        };
        // Back-to-back identical fetches: second is redundant.
        let mut avail = AvailBcast::new();
        run_block(
            &mut avail,
            &[bcast("x"), bcast("y")],
            &mut Env::default(),
            &mut FlowCtx::default(),
        );
        assert_eq!(avail.findings.len(), 1, "{:?}", avail.findings);
        assert!(avail.findings[0].message.contains("redundant broadcast"));

        // An intervening store into `a` kills availability.
        let mut avail = AvailBcast::new();
        run_block(
            &mut avail,
            &[
                bcast("x"),
                Instr::StoreElem {
                    m: "a".into(),
                    i: SExpr::c(1.0),
                    j: Some(SExpr::c(2.0)),
                    val: SExpr::c(9.0),
                },
                bcast("y"),
            ],
            &mut Env::default(),
            &mut FlowCtx::default(),
        );
        assert!(avail.findings.is_empty(), "{:?}", avail.findings);
    }

    #[test]
    fn loop_varying_broadcast_not_flagged() {
        // a(i, 1) inside `for i`: the index is killed every trip.
        let body = vec![Instr::For {
            var: "i".into(),
            start: SExpr::c(1.0),
            step: SExpr::c(1.0),
            stop: SExpr::c(4.0),
            body: vec![Instr::BroadcastElem {
                dst: "x".into(),
                m: "a".into(),
                i: SExpr::var("i"),
                j: Some(SExpr::c(1.0)),
            }],
        }];
        let mut avail = AvailBcast::new();
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
            var: "k".into(),
            start: SExpr::c(1.0),
            step: SExpr::c(1.0),
            stop: SExpr::c(10.0),
            body: vec![Instr::ExtractRange {
                dst: "t".into(),
                v: "v".into(),
                lo: SExpr::c(1.0),
                hi: SExpr::c(4.0),
            }],
        }];
        let r = ranks(&[("v", VarRank::Matrix), ("t", VarRank::Matrix)]);
        let findings = lint_scope(&body, &r, &[]);
        assert!(
            findings.iter().any(|f| f.message.contains("churn")),
            "{findings:?}"
        );

        // Same loop but the source varies per iteration: clean.
        let body = vec![Instr::For {
            var: "k".into(),
            start: SExpr::c(1.0),
            step: SExpr::c(1.0),
            stop: SExpr::c(10.0),
            body: vec![Instr::Shift {
                dst: "v".into(),
                v: "v".into(),
                k: SExpr::c(1.0),
            }],
        }];
        let findings = lint_scope(&body, &r, &[]);
        assert!(
            !findings.iter().any(|f| f.message.contains("churn")),
            "{findings:?}"
        );
    }

    #[test]
    fn dead_superseded_web_flagged_but_final_web_kept() {
        let body = vec![
            Instr::InitMatrix {
                dst: "a".into(),
                init: MatInit::Rand {
                    rows: SExpr::c(4.0),
                    cols: SExpr::c(4.0),
                },
            },
            Instr::InitMatrix {
                dst: "a__1".into(),
                init: MatInit::Ones {
                    rows: SExpr::c(4.0),
                    cols: SExpr::c(4.0),
                },
            },
            Instr::Reduce {
                dst: "s".into(),
                op: RedOp::Fold(ColRedOp::Sum),
                m: "a__1".into(),
            },
        ];
        let r = ranks(&[
            ("a", VarRank::Matrix),
            ("a__1", VarRank::Matrix),
            ("s", VarRank::Scalar),
        ]);
        let mut findings = Vec::new();
        dead_distributed(&body, &r, &[], &mut findings);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("`a`"));
        assert!(findings[0].message.contains("a__1"));
    }

    #[test]
    fn function_outputs_never_dead() {
        let body = vec![Instr::InitMatrix {
            dst: "y".into(),
            init: MatInit::Zeros {
                rows: SExpr::c(4.0),
                cols: SExpr::c(4.0),
            },
        }];
        let r = ranks(&[("y", VarRank::Matrix)]);
        let mut findings = Vec::new();
        dead_distributed(&body, &r, &["y".to_string()], &mut findings);
        assert!(findings.is_empty(), "{findings:?}");
    }
}
