//! Pass 3a — static single assignment (paper §3).
//!
//! "MATLAB, designed as an interpreted language, allows the attributes
//! of a variable to change during a program's execution. We solve this
//! problem by transforming the program into static single assignment
//! form."
//!
//! A compiler that ultimately emits one C variable per MATLAB variable
//! cannot keep the program *in* SSA; it needs SSA followed by web
//! coalescing: SSA versions connected by φ-nodes (control-flow joins,
//! loop back-edges) or by partial updates (indexed assignment is a
//! use+def) must share a C variable, while *straight-line whole-value
//! redefinitions* may get fresh variables — which is exactly what lets
//! `x = 2; ...; x = zeros(n, n);` compile even though `x`'s rank
//! changes. This module builds the versions, the φ/def-use edges, and
//! the union-find coalescing, then renames the AST so that each web is
//! a distinct variable.

use otter_frontend::ast::*;
use std::collections::{BTreeMap, HashMap};

/// Union-find over SSA version ids.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new() -> Self {
        UnionFind { parent: Vec::new() }
    }

    fn make(&mut self) -> usize {
        self.parent.push(self.parent.len());
        self.parent.len() - 1
    }

    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Deterministic: smaller id wins, so web representatives
            // are stable across runs.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi] = lo;
        }
    }
}

/// Result of SSA construction over one scope.
pub struct SsaInfo {
    /// Renamed block.
    pub block: Block,
    /// Total SSA versions created per base variable (the property
    /// tests assert on this).
    pub versions_per_var: BTreeMap<String, usize>,
    /// Final variable names after web coalescing, per base variable,
    /// in creation order.
    pub webs_per_var: BTreeMap<String, Vec<String>>,
    /// Map from final (web) names back to their base variable.
    pub base_of: BTreeMap<String, String>,
    /// The web each base variable holds when the block ends — the web
    /// of its current version after the last statement. A function's
    /// outputs and the script's reported workspace read these webs.
    pub exit_webs: BTreeMap<String, String>,
}

impl SsaInfo {
    /// The web `name` holds when the block ends; `name` itself when it
    /// has none (never referenced in the block).
    pub fn exit_web<'a>(&'a self, name: &'a str) -> &'a str {
        self.exit_webs.get(name).map_or(name, String::as_str)
    }
}

/// Per-variable version state during the walk.
#[derive(Default)]
struct Versions {
    /// version id list per base name; index in the vec = version number.
    ids: HashMap<String, Vec<usize>>,
    /// current version number per base name.
    current: HashMap<String, usize>,
}

struct Builder {
    uf: UnionFind,
    vers: Versions,
}

impl Builder {
    /// Current version id of `name`, creating version 0 (the
    /// "undefined on entry" version) on first sight.
    fn use_of(&mut self, name: &str) -> usize {
        if !self.vers.ids.contains_key(name) {
            let id = self.uf.make();
            self.vers.ids.insert(name.to_string(), vec![id]);
            self.vers.current.insert(name.to_string(), 0);
        }
        let cur = self.vers.current[name];
        self.vers.ids[name][cur]
    }

    /// New version of `name` (a whole-value definition).
    fn def_of(&mut self, name: &str) -> usize {
        self.use_of(name); // ensure the variable exists
        let id = self.uf.make();
        let list = self.vers.ids.get_mut(name).unwrap();
        list.push(id);
        *self.vers.current.get_mut(name).unwrap() = list.len() - 1;
        id
    }

    /// Partial (indexed) definition: new version unified with the old
    /// one — the object is updated, not replaced.
    fn partial_def_of(&mut self, name: &str) -> usize {
        let old = self.use_of(name);
        let new = self.def_of(name);
        self.uf.union(old, new);
        new
    }

    fn snapshot(&self) -> HashMap<String, usize> {
        self.vers.current.clone()
    }

    fn restore(&mut self, snap: &HashMap<String, usize>) {
        for (k, v) in snap {
            self.vers.current.insert(k.clone(), *v);
        }
        // Variables first defined after the snapshot revert to their
        // entry version (version 0 = undefined) when leaving the
        // region.
        let known: Vec<String> = self.vers.current.keys().cloned().collect();
        for k in known {
            if !snap.contains_key(&k) {
                self.vers.current.insert(k, 0);
            }
        }
    }

    /// φ at a two-way join: for every variable whose version differs
    /// between the two paths, union the two incoming versions (web
    /// coalescing of the φ). The merged current version is whichever
    /// path's version; they are in one web so the choice is cosmetic —
    /// pick the max version number for determinism.
    fn join(&mut self, a: &HashMap<String, usize>, b: &HashMap<String, usize>) {
        let names: Vec<String> = self.vers.current.keys().cloned().collect();
        for name in names {
            let va = a.get(&name).copied().unwrap_or(0);
            let vb = b.get(&name).copied().unwrap_or(0);
            if va != vb {
                let ia = self.vers.ids[&name][va];
                let ib = self.vers.ids[&name][vb];
                self.uf.union(ia, ib);
            }
            self.vers.current.insert(name.clone(), va.max(vb));
        }
    }
}

/// Build SSA webs for a block and rename variables accordingly.
/// `params` seeds definitions (function parameters are defined on
/// entry).
pub fn ssa_rename(block: &Block, params: &[String]) -> SsaInfo {
    let mut b = Builder {
        uf: UnionFind::new(),
        vers: Versions::default(),
    };
    for p in params {
        b.use_of(p); // version 0 is the parameter's value
    }
    // First walk: create versions and union edges, recording for each
    // textual location which version id it refers to. We re-walk to
    // rename, so record a per-event version stream instead of
    // rebuilding positions: the second walk repeats the exact same
    // traversal and pops from the stream.
    let mut events: Vec<usize> = Vec::new();
    walk_block(block, &mut b, &mut events);

    // Assign web names. The entry version (version 0, "undefined on
    // scope entry") only matters when it is actually referenced — a
    // genuine use-before-def, a parameter, or a φ with the entry value.
    // Webs nobody references get no name and no slot, so `x = 1` keeps
    // the name `x` rather than ceding it to the phantom entry version.
    let referenced: std::collections::HashSet<usize> =
        events.iter().map(|&id| b.uf.find(id)).collect();
    let mut web_name: HashMap<usize, String> = HashMap::new();
    let mut webs_per_var: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut base_of: BTreeMap<String, String> = BTreeMap::new();
    let mut versions_per_var: BTreeMap<String, usize> = BTreeMap::new();
    // Exit webs: where each variable's current version ended up. The
    // entry version of a name never referenced has no web.
    let mut exit_webs: BTreeMap<String, String> = BTreeMap::new();
    let names: Vec<String> = b.vers.ids.keys().cloned().collect();
    for name in names {
        let ids = b.vers.ids[&name].clone();
        let exit_id = ids[b.vers.current[&name]];
        versions_per_var.insert(name.clone(), ids.len());
        let mut seen_roots: Vec<usize> = Vec::new();
        for id in ids {
            let root = b.uf.find(id);
            if !referenced.contains(&root) {
                continue;
            }
            if !seen_roots.contains(&root) {
                seen_roots.push(root);
                let web_idx = seen_roots.len() - 1;
                let final_name = if web_idx == 0 {
                    name.clone()
                } else {
                    format!("{name}__{web_idx}")
                };
                webs_per_var
                    .entry(name.clone())
                    .or_default()
                    .push(final_name.clone());
                base_of.insert(final_name.clone(), name.clone());
                web_name.insert(root, final_name);
            }
        }
        if let Some(web) = web_name.get(&b.uf.find(exit_id)) {
            exit_webs.insert(name, web.clone());
        }
    }

    // Second walk: rename using the recorded version stream.
    let mut cursor = 0usize;
    let renamed = rename_block(block, &mut b, &events, &mut cursor, &web_name);
    debug_assert_eq!(
        cursor,
        events.len(),
        "rename walk must mirror the version walk"
    );

    SsaInfo {
        block: renamed,
        versions_per_var,
        webs_per_var,
        base_of,
        exit_webs,
    }
}

// The two walks must visit identifiers in the same order. Keep them
// textually adjacent and structurally parallel.

fn walk_block(block: &Block, b: &mut Builder, ev: &mut Vec<usize>) {
    for stmt in block {
        walk_stmt(stmt, b, ev);
    }
}

fn walk_stmt(stmt: &Stmt, b: &mut Builder, ev: &mut Vec<usize>) {
    match &stmt.kind {
        StmtKind::Expr(e) => walk_expr(e, b, ev),
        StmtKind::Assign { lhs, rhs } => {
            walk_expr(rhs, b, ev);
            match &lhs.indices {
                None => ev.push(b.def_of(&lhs.name)),
                Some(idx) => {
                    for e in idx {
                        walk_expr(e, b, ev);
                    }
                    ev.push(b.partial_def_of(&lhs.name));
                }
            }
        }
        StmtKind::MultiAssign { lhs, rhs } => {
            walk_expr(rhs, b, ev);
            for lv in lhs {
                match &lv.indices {
                    None => ev.push(b.def_of(&lv.name)),
                    Some(idx) => {
                        for e in idx {
                            walk_expr(e, b, ev);
                        }
                        ev.push(b.partial_def_of(&lv.name));
                    }
                }
            }
        }
        StmtKind::If { arms, else_body } => {
            // Evaluate arms sequentially with φ-joins pairwise against
            // the fall-through path.
            let entry = b.snapshot();
            let mut path_ends: Vec<HashMap<String, usize>> = Vec::new();
            for (cond, body) in arms {
                walk_expr(cond, b, ev);
                let before_branch = b.snapshot();
                walk_block(body, b, ev);
                path_ends.push(b.snapshot());
                b.restore(&before_branch);
            }
            match else_body {
                Some(body) => {
                    walk_block(body, b, ev);
                    path_ends.push(b.snapshot());
                }
                None => path_ends.push(entry),
            }
            // Fold all path ends into the current state.
            let first = path_ends[0].clone();
            b.restore(&first);
            for p in &path_ends[1..] {
                let cur = b.snapshot();
                b.join(&cur, p);
            }
        }
        StmtKind::While { cond, body } => {
            // Loop-carried variables: anything assigned in the body
            // joins with its entry version.
            let entry = b.snapshot();
            walk_expr(cond, b, ev);
            walk_block(body, b, ev);
            let end = b.snapshot();
            b.join(&end, &entry);
        }
        StmtKind::For { var, iter, body } => {
            walk_expr(iter, b, ev);
            ev.push(b.def_of(var));
            let entry = b.snapshot();
            walk_block(body, b, ev);
            let end = b.snapshot();
            b.join(&end, &entry);
        }
        StmtKind::Global(names) => {
            // Globals are one web by definition.
            for n in names {
                b.use_of(n);
            }
        }
        StmtKind::Break | StmtKind::Continue | StmtKind::Return => {}
    }
}

fn walk_expr(e: &Expr, b: &mut Builder, ev: &mut Vec<usize>) {
    match &e.kind {
        ExprKind::Ident(name) => ev.push(b.use_of(name)),
        ExprKind::Index { base, args } => {
            ev.push(b.use_of(base));
            for a in args {
                walk_expr(a, b, ev);
            }
        }
        ExprKind::Call { args, .. } => {
            for a in args {
                walk_expr(a, b, ev);
            }
        }
        ExprKind::Unary { operand, .. } => walk_expr(operand, b, ev),
        ExprKind::Binary { lhs, rhs, .. } => {
            walk_expr(lhs, b, ev);
            walk_expr(rhs, b, ev);
        }
        ExprKind::Transpose { operand, .. } => walk_expr(operand, b, ev),
        ExprKind::Range { start, step, stop } => {
            walk_expr(start, b, ev);
            if let Some(s) = step {
                walk_expr(s, b, ev);
            }
            walk_expr(stop, b, ev);
        }
        ExprKind::Matrix(rows) => {
            for r in rows {
                for c in r {
                    walk_expr(c, b, ev);
                }
            }
        }
        ExprKind::Number { .. } | ExprKind::Str(_) | ExprKind::Colon | ExprKind::EndKeyword => {}
    }
}

fn take_name(
    b: &mut Builder,
    ev: &[usize],
    cursor: &mut usize,
    web: &HashMap<usize, String>,
) -> String {
    let id = ev[*cursor];
    *cursor += 1;
    let root = b.uf.find(id);
    web[&root].clone()
}

fn rename_block(
    block: &Block,
    b: &mut Builder,
    ev: &[usize],
    cursor: &mut usize,
    web: &HashMap<usize, String>,
) -> Block {
    block
        .iter()
        .map(|s| rename_stmt(s, b, ev, cursor, web))
        .collect()
}

fn rename_stmt(
    stmt: &Stmt,
    b: &mut Builder,
    ev: &[usize],
    cursor: &mut usize,
    web: &HashMap<usize, String>,
) -> Stmt {
    let kind = match &stmt.kind {
        StmtKind::Expr(e) => StmtKind::Expr(rename_expr(e, b, ev, cursor, web)),
        StmtKind::Assign { lhs, rhs } => {
            let rhs = rename_expr(rhs, b, ev, cursor, web);
            let lhs = rename_lvalue(lhs, b, ev, cursor, web);
            StmtKind::Assign { lhs, rhs }
        }
        StmtKind::MultiAssign { lhs, rhs } => {
            let rhs = rename_expr(rhs, b, ev, cursor, web);
            let lhs = lhs
                .iter()
                .map(|lv| rename_lvalue(lv, b, ev, cursor, web))
                .collect();
            StmtKind::MultiAssign { lhs, rhs }
        }
        StmtKind::If { arms, else_body } => StmtKind::If {
            arms: arms
                .iter()
                .map(|(c, body)| {
                    (
                        rename_expr(c, b, ev, cursor, web),
                        rename_block(body, b, ev, cursor, web),
                    )
                })
                .collect(),
            else_body: else_body
                .as_ref()
                .map(|body| rename_block(body, b, ev, cursor, web)),
        },
        StmtKind::While { cond, body } => StmtKind::While {
            cond: rename_expr(cond, b, ev, cursor, web),
            body: rename_block(body, b, ev, cursor, web),
        },
        StmtKind::For { var: _, iter, body } => {
            let iter = rename_expr(iter, b, ev, cursor, web);
            let var = take_name(b, ev, cursor, web);
            StmtKind::For {
                var,
                iter,
                body: rename_block(body, b, ev, cursor, web),
            }
        }
        other => other.clone(),
    };
    Stmt {
        kind,
        span: stmt.span,
        display: stmt.display,
    }
}

fn rename_lvalue(
    lv: &LValue,
    b: &mut Builder,
    ev: &[usize],
    cursor: &mut usize,
    web: &HashMap<usize, String>,
) -> LValue {
    match &lv.indices {
        None => {
            let name = take_name(b, ev, cursor, web);
            LValue {
                name,
                indices: None,
                span: lv.span,
            }
        }
        Some(idx) => {
            let indices: Vec<Expr> = idx
                .iter()
                .map(|e| rename_expr(e, b, ev, cursor, web))
                .collect();
            let name = take_name(b, ev, cursor, web);
            LValue {
                name,
                indices: Some(indices),
                span: lv.span,
            }
        }
    }
}

fn rename_expr(
    e: &Expr,
    b: &mut Builder,
    ev: &[usize],
    cursor: &mut usize,
    web: &HashMap<usize, String>,
) -> Expr {
    let kind = match &e.kind {
        ExprKind::Ident(_) => ExprKind::Ident(take_name(b, ev, cursor, web)),
        ExprKind::Index { base: _, args } => {
            let base = take_name(b, ev, cursor, web);
            let args = args
                .iter()
                .map(|a| rename_expr(a, b, ev, cursor, web))
                .collect();
            ExprKind::Index { base, args }
        }
        ExprKind::Call { callee, args } => ExprKind::Call {
            callee: callee.clone(),
            args: args
                .iter()
                .map(|a| rename_expr(a, b, ev, cursor, web))
                .collect(),
        },
        ExprKind::Unary { op, operand } => ExprKind::Unary {
            op: *op,
            operand: Box::new(rename_expr(operand, b, ev, cursor, web)),
        },
        ExprKind::Binary { op, lhs, rhs } => ExprKind::Binary {
            op: *op,
            lhs: Box::new(rename_expr(lhs, b, ev, cursor, web)),
            rhs: Box::new(rename_expr(rhs, b, ev, cursor, web)),
        },
        ExprKind::Transpose { op, operand } => ExprKind::Transpose {
            op: *op,
            operand: Box::new(rename_expr(operand, b, ev, cursor, web)),
        },
        ExprKind::Range { start, step, stop } => ExprKind::Range {
            start: Box::new(rename_expr(start, b, ev, cursor, web)),
            step: step
                .as_ref()
                .map(|s| Box::new(rename_expr(s, b, ev, cursor, web))),
            stop: Box::new(rename_expr(stop, b, ev, cursor, web)),
        },
        ExprKind::Matrix(rows) => ExprKind::Matrix(
            rows.iter()
                .map(|r| {
                    r.iter()
                        .map(|c| rename_expr(c, b, ev, cursor, web))
                        .collect()
                })
                .collect(),
        ),
        k => k.clone(),
    };
    Expr::new(kind, e.span)
}

#[cfg(test)]
mod tests {
    use super::*;
    use otter_frontend::parse;
    use otter_frontend::pretty::program_to_string;

    fn rename_src(src: &str) -> (SsaInfo, String) {
        // SSA runs on resolved ASTs in the pipeline (so `x(2)` is
        // `Index`, not `Call`); mirror that here.
        let resolved = crate::resolve::resolve(src, &otter_frontend::EmptyProvider)
            .map(|r| r.program)
            .unwrap_or_else(|_| {
                // Sources with undefined condition variables (used by
                // the control-flow tests) still parse; fall back to
                // the raw AST for those.
                let f = parse(src).unwrap();
                Program {
                    script: f.script,
                    functions: f.functions,
                }
            });
        let info = ssa_rename(&resolved.script, &[]);
        let printed = program_to_string(&Program {
            script: info.block.clone(),
            functions: vec![],
        });
        (info, printed)
    }

    #[test]
    fn straight_line_redefinition_splits() {
        // x: scalar then matrix — the paper's motivating case.
        let (info, printed) = rename_src("x = 2;\ny = x + 1;\nx = [1, 2, 3];\nz = x(2);");
        assert_eq!(info.webs_per_var["x"].len(), 2, "{printed}");
        assert!(printed.contains("x__1 = [1, 2, 3]"), "{printed}");
        assert!(printed.contains("z = x__1(2)"), "{printed}");
        assert!(
            printed.contains("y = x + 1"),
            "first web keeps the base name: {printed}"
        );
    }

    #[test]
    fn loop_carried_variable_stays_one_web() {
        let (info, printed) = rename_src("s = 0;\nfor i = 1:10\ns = s + i;\nend\nt = s;");
        assert_eq!(info.webs_per_var["s"].len(), 1, "{printed}");
        assert!(printed.contains("s = s + i"), "{printed}");
        assert!(printed.contains("t = s"), "{printed}");
    }

    #[test]
    fn while_loop_joins_back_edge() {
        let (info, _) = rename_src("x = 1;\nwhile x < 10\nx = x * 2;\nend\ny = x;");
        assert_eq!(info.webs_per_var["x"].len(), 1);
    }

    #[test]
    fn if_join_unifies_branches() {
        let (info, printed) = rename_src("c = 1;\nif c > 0\nx = 1;\nelse\nx = 2;\nend\ny = x;");
        assert_eq!(info.webs_per_var["x"].len(), 1, "{printed}");
        assert!(printed.contains("y = x"), "{printed}");
    }

    #[test]
    fn if_without_else_joins_entry_version() {
        let (info, _) = rename_src("c = 1;\nx = 1;\nif c > 0\nx = 2;\nend\ny = x;");
        // The conditional redefinition merges with the entry value.
        assert_eq!(info.webs_per_var["x"].len(), 1);
    }

    #[test]
    fn indexed_assignment_is_partial_def() {
        let (info, printed) = rename_src("a = zeros(3, 3);\na(1, 2) = 5;\nb = a(1, 2);");
        assert_eq!(info.webs_per_var["a"].len(), 1, "{printed}");
    }

    #[test]
    fn redefinition_after_loop_splits() {
        let (info, printed) =
            rename_src("x = 0;\nfor i = 1:3\nx = x + i;\nend\nx = [1, 2];\ny = x(1);");
        assert_eq!(info.webs_per_var["x"].len(), 2, "{printed}");
        assert!(printed.contains("y = x__1(1)"), "{printed}");
    }

    #[test]
    fn exit_webs_name_the_last_definition() {
        let (info, _) = rename_src("s = 1;\ns = s * 2;\nt = s;");
        assert_eq!(info.exit_web("s"), "s__1");
        assert_eq!(info.exit_web("t"), "t");
        // The intermediate web of a loop body is not the exit web: the
        // loop-carried one is.
        let (info, printed) =
            rename_src("c = 1;\nfor i = 1:3\nc = c * c;\nc = c + 1;\nend\nd = c;");
        assert!(printed.contains("c__1 = c * c"), "{printed}");
        assert_eq!(info.exit_web("c"), "c");
        // Both arms of an `if` join into one web.
        let (info, _) = rename_src("c = 1;\nx = 1;\nx = 2;\nif c > 0\nx = 3;\nend");
        assert_eq!(info.exit_web("x"), "x__1");
    }

    #[test]
    fn versions_counted() {
        let (info, _) = rename_src("x = 1;\nx = 2;\nx = 3;");
        // Entry version + three defs.
        assert_eq!(info.versions_per_var["x"], 4);
        assert_eq!(info.webs_per_var["x"].len(), 3);
    }

    #[test]
    fn base_mapping_round_trips() {
        let (info, _) = rename_src("x = 1;\nx = [1, 2];");
        for (web, base) in &info.base_of {
            assert!(web == base || web.starts_with(&format!("{base}__")));
        }
    }

    #[test]
    fn independent_variables_untouched() {
        let (_, printed) = rename_src("alpha = 1;\nbeta = alpha + 2;\ngamma = beta * 3;");
        assert!(printed.contains("alpha = 1"));
        assert!(printed.contains("beta = alpha + 2"));
        assert!(printed.contains("gamma = beta * 3"));
        assert!(!printed.contains("__"), "{printed}");
    }

    #[test]
    fn conditional_then_redefinition_shape() {
        // Regression-style structural test: definition inside both
        // if arms, then an unconditional redefinition afterwards.
        let (info, printed) = rename_src(
            "c = 1;\nif c > 0\nx = 1;\nelse\nx = 2;\nend\ny = x;\nx = zeros(2, 2);\nz = x(1, 1);",
        );
        assert_eq!(info.webs_per_var["x"].len(), 2, "{printed}");
        assert!(printed.contains("y = x"), "{printed}");
        assert!(printed.contains("z = x__1(1, 1)"), "{printed}");
    }

    #[test]
    fn multi_assign_defs() {
        let file = parse("[q, r] = decomp(a);\nq = q + 1;").unwrap();
        let info = ssa_rename(&file.script, &[]);
        // q: entry + 2 defs; the second def uses the first — loop-free
        // so two webs.
        assert_eq!(info.webs_per_var["q"].len(), 2);
    }

    #[test]
    fn params_seed_entry_versions() {
        let file = parse("y = x + 1;").unwrap();
        let info = ssa_rename(&file.script, &["x".to_string()]);
        assert_eq!(info.webs_per_var["x"].len(), 1);
        let printed = program_to_string(&Program {
            script: info.block,
            functions: vec![],
        });
        assert!(printed.contains("y = x + 1"));
    }
}
