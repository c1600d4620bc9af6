//! Show the complete SPMD C translation of a MATLAB script — the
//! artifact the real Otter compiler hands to `mpicc`.
//!
//! ```text
//! cargo run --example compile_to_c            # the paper's §3 examples
//! cargo run --example compile_to_c -- cg      # a whole benchmark app
//! cargo run --example compile_to_c -- <file.m>
//! ```

use otter_core::compile_str;

fn main() {
    let arg = std::env::args().nth(1);
    let (label, source) = match arg.as_deref() {
        None => (
            "paper §3 examples".to_string(),
            "\
n = 8;
b = ones(n, n);
c = ones(n, n);
d = eye(n);
i = 2;
j = 3;
a = b * c + d(i, j);
a(i, j) = a(i, j) / b(j, i);
s = sum(sum(a));
"
            .to_string(),
        ),
        Some(id @ ("cg" | "ocean" | "nbody" | "tc")) => {
            let app = otter_apps::test_apps()
                .into_iter()
                .find(|a| a.id == id)
                .expect("known app id");
            (app.name.to_string(), app.script)
        }
        Some(path) => {
            let src =
                std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
            (path.to_string(), src)
        }
    };

    eprintln!("Compiling: {label}\n");
    match compile_str(&source) {
        Ok(artifact) => {
            let compiled = artifact.compiled();
            println!("/* ===== IR ===== ");
            print!("{}", compiled.ir_text());
            println!("*/");
            println!();
            print!("{}", compiled.c_source);
        }
        Err(e) => {
            eprintln!("compile error: {e}");
            std::process::exit(1);
        }
    }
}
