//! The executor's plan: an artifact's IR with every variable resolved,
//! once at compile time, to a slot of its frame.
//!
//! In the paper's C every MATLAB variable is a declared local, so the
//! compiled program never looks a name up while it runs. The plan
//! gives the executor the same footing: each scope (the script and
//! each function) becomes a [`Frame`] whose body is the scope's IR
//! with each name replaced by its [`Slot`], and whose slot table keeps
//! the names for error messages. Built by [`crate::compile()`] after
//! the last pass and cached with the artifact; it is not a pass.

use otter_ir::{Instr, IrProgram, VarRank};
use std::collections::{BTreeMap, HashMap};

/// A variable's index in its frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Slot(pub(crate) u32);

impl Slot {
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// One scope of the program, its variables numbered.
#[derive(Debug, Clone)]
pub(crate) struct Frame {
    /// The slot table: slot `s` holds the variable `names[s]`.
    pub(crate) names: Vec<String>,
    pub(crate) params: Vec<(Slot, VarRank)>,
    pub(crate) outs: Vec<(Slot, VarRank)>,
    pub(crate) body: Vec<Instr<Slot>>,
}

/// Numbers the variables of one scope in the order they are first
/// seen.
#[derive(Default)]
struct Slots {
    names: Vec<String>,
    index: HashMap<String, Slot>,
}

impl Slots {
    fn of(&mut self, name: &String) -> Slot {
        if let Some(&s) = self.index.get(name) {
            return s;
        }
        let s = Slot(self.names.len() as u32);
        self.index.insert(name.clone(), s);
        self.names.push(name.clone());
        s
    }

    /// The scope's frame, numbering its parameters first, then its body
    /// in order, then its outputs.
    fn frame(
        mut self,
        params: &[(String, VarRank)],
        body: &[Instr],
        outs: &[(String, VarRank)],
    ) -> Frame {
        let params = params.iter().map(|(n, r)| (self.of(n), *r)).collect();
        let body = body
            .iter()
            .map(|i| i.map_vars(&mut |n| self.of(n)))
            .collect();
        let outs = outs.iter().map(|(n, r)| (self.of(n), *r)).collect();
        Frame {
            names: self.names,
            params,
            outs,
            body,
        }
    }
}

/// Every frame of a program, and where the script's results live.
#[derive(Debug, Clone)]
pub struct Plan {
    pub(crate) main: Frame,
    pub(crate) functions: BTreeMap<String, Frame>,
    /// Each script variable's exit web (see [`IrProgram::exit_webs`])
    /// as a slot of `main`, in name order.
    pub(crate) exit_webs: Vec<(String, Slot)>,
}

impl Plan {
    pub fn new(ir: &IrProgram) -> Plan {
        let mut slots = Slots::default();
        let exit_webs = ir
            .exit_webs
            .iter()
            .map(|(name, web)| (name.clone(), slots.of(web)))
            .collect();
        let main = slots.frame(&[], &ir.main, &[]);
        let functions = ir
            .functions
            .iter()
            .map(|(name, f)| {
                let frame = Slots::default().frame(&f.params, &f.body, &f.outs);
                (name.clone(), frame)
            })
            .collect();
        Plan {
            main,
            functions,
            exit_webs,
        }
    }

    /// Every frame, the script's first, then the functions' in name
    /// order: the scope order of [`otter_ir::leaf_sites`].
    pub(crate) fn frames(&self) -> impl Iterator<Item = &Frame> {
        std::iter::once(&self.main).chain(self.functions.values())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, EngineOptions};
    use otter_frontend::MapProvider;

    /// Naming every slot back through its frame's table gives the IR
    /// the plan was built from, so the renaming lost and swapped no
    /// variable.
    #[test]
    fn slots_name_back_to_the_ir() {
        let opts = EngineOptions {
            m_files: Some(MapProvider::new().with(
                "f",
                "function [s, t] = f(v, k)\ns = sum(v) * k;\nt = v(2:3);\n",
            )),
            ..Default::default()
        };
        let mut scripts: Vec<String> = otter_apps::test_apps()
            .into_iter()
            .map(|a| a.script)
            .collect();
        scripts.push("v = (1:5)';\nw = v(1:2:5);\nv(2:3) = 0;\nm = v * v';\nm(2, :) = 1;\n[a, b] = f(v, 2);\nc = m(:, 2) + b(1)\n".into());
        let mut functions = 0;
        for src in scripts {
            let ir = compile(&src, &opts).unwrap().compiled().ir.clone();
            let plan = Plan::new(&ir);
            let named = |f: &Frame| -> Vec<Instr> {
                let name = |s: &Slot| f.names[s.index()].clone();
                f.body.iter().map(|i| i.map_vars(&mut &name)).collect()
            };
            assert_eq!(named(&plan.main), ir.main, "{src}");
            for (name, web) in &plan.exit_webs {
                assert_eq!(plan.main.names[web.index()], ir.exit_webs[name]);
            }
            for (name, f) in &ir.functions {
                let frame = &plan.functions[name];
                functions += 1;
                assert_eq!(named(frame), f.body);
                let names = |v: &[(Slot, VarRank)]| -> Vec<(String, VarRank)> {
                    v.iter()
                        .map(|&(s, r)| (frame.names[s.index()].clone(), r))
                        .collect()
                };
                assert_eq!(
                    (names(&frame.params), names(&frame.outs)),
                    (f.params.clone(), f.outs.clone())
                );
            }
        }
        assert_eq!(functions, 1);
    }
}
