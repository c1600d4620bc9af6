//! # otter-bench
//!
//! Reproduction of every table and figure in the paper's evaluation:
//!
//! * **Table 1** — the survey of parallel-MATLAB systems (static).
//! * **Figure 2** — single-CPU relative performance of the MathWorks
//!   interpreter, the MATCOM compiler, and Otter on the four
//!   benchmark applications.
//! * **Figures 3–6** — speedup of compiled scripts over the
//!   interpreter on the three modeled architectures (Meiko CS-2,
//!   SPARC-20 Ethernet cluster, Enterprise SMP) across CPU counts.
//!
//! Plus ablations for the design decisions DESIGN.md calls out
//! (peephole pass, problem-size/grain-size sweeps) and the §3 C-code
//! excerpts. The `harness` binary renders everything as text tables
//! (`harness fig2 --csv` emits the machine-readable rows with the
//! uniform `EngineReport` counters). Every number here is modeled
//! virtual time or a count; wall-clock measurement of the same
//! workloads is the separate `benchmark/` package.

pub mod ablation;
pub mod bench;
pub mod figures;
pub mod load;
pub mod render;
pub mod table1;

pub use ablation::{
    collectives_ablation, grain_sweep, peephole_ablation, typeinfer_ablation, CollectiveAblation,
    GrainPoint, PeepholeAblation, TypeInferAblation,
};
pub use bench::{check, run_bench, BenchReport, BenchResult, BenchSpec, Regression, BENCH_SCHEMA};
pub use figures::{
    fig2, fig2_with, speedup_figure, Fig2Cell, Fig2Row, FigureData, Scale, SpeedupSeries,
};
pub use load::{run_load, LoadReport, LoadSpec, LOAD_SCHEMA};
pub use table1::TABLE1;
