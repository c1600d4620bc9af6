//! Coordinated I/O (paper §3 assumption 5: "one processor coordinates
//! all I/O operations").
//!
//! The data-file format is the simplest thing a 1998 run-time would
//! use: an ASCII header `rows cols` followed by `rows · cols`
//! whitespace-separated doubles in row-major order. The same files
//! double as the *sample data files* the compiler's type/shape
//! inference reads at compile time (paper §3: "a sample data file must
//! be present, so that the compiler can determine the type of the
//! variable as well as its rank").

use crate::dense::Dense;
use crate::matrix::{DistMatrix, Gathered};
use otter_mpi::{Comm, CommError, Event};
use std::fmt::Write as _;
use std::path::Path;

/// Failure of a distributed load: either an application-level file or
/// parse problem (reported by rank 0, which coordinates I/O) or a
/// communication failure of the scatter.
#[derive(Debug, Clone, PartialEq)]
pub enum LoadError {
    /// File missing, unreadable, or malformed.
    App(String),
    /// The scatter itself failed.
    Comm(CommError),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::App(msg) => write!(f, "{msg}"),
            LoadError::Comm(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<CommError> for LoadError {
    fn from(e: CommError) -> Self {
        LoadError::Comm(e)
    }
}

impl From<String> for LoadError {
    fn from(msg: String) -> Self {
        LoadError::App(msg)
    }
}

/// Parse a matrix from the ASCII on-disk format.
pub fn parse_matrix(text: &str) -> Result<Dense, String> {
    let mut nums = text.split_whitespace().map(|t| {
        t.parse::<f64>()
            .map_err(|e| format!("bad number `{t}`: {e}"))
    });
    let rows = nums.next().ok_or("missing row count")?? as usize;
    let cols = nums.next().ok_or("missing column count")?? as usize;
    let mut data = Vec::with_capacity(rows * cols);
    for _ in 0..rows * cols {
        data.push(
            nums.next()
                .ok_or_else(|| format!("expected {} elements, file ends early", rows * cols))??,
        );
    }
    Ok(Dense::from_vec(rows, cols, data))
}

/// Render a matrix in the on-disk format.
pub fn format_matrix(m: &Dense) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{} {}", m.rows(), m.cols());
    for i in 0..m.rows() {
        let cells: Vec<String> = m.row(i).iter().map(|v| format!("{v:.17e}")).collect();
        let _ = writeln!(out, "{}", cells.join(" "));
    }
    out
}

/// Read a matrix file (any rank may call; used at compile time for
/// sample-data inference and by rank 0 at run time).
pub fn read_matrix_file(path: &Path) -> Result<Dense, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_matrix(&text)
}

/// Write a matrix file.
pub fn write_matrix_file(path: &Path, m: &Dense) -> Result<(), String> {
    std::fs::write(path, format_matrix(m)).map_err(|e| format!("{}: {e}", path.display()))
}

/// Distributed load: rank 0 reads the file and scatters
/// (`ML_load`). Every rank must call.
pub fn load_distributed(comm: &mut Comm, path: &Path) -> Result<DistMatrix, LoadError> {
    let (name, t0) = ("ML_load", comm.clock());
    let dense = if comm.rank() == 0 {
        Some(read_matrix_file(path)?)
    } else {
        None
    };
    let m = DistMatrix::scatter_from(comm, 0, dense.as_ref())?;
    comm.record(Event::Phase { name, t0 });
    Ok(m)
}

/// Distributed print (`ML_print_matrix`): gather onto rank 0, which
/// renders; other ranks get `None`. The caller (the generated
/// program's I/O shim) writes the string to stdout on rank 0 only.
pub fn print_distributed(
    comm: &mut Comm,
    name: &str,
    m: &DistMatrix,
) -> Result<Option<String>, CommError> {
    let Some(full) = m
        .gather_block(comm, 0, m.local().to_vec())?
        .map(Gathered::into_dense)
    else {
        return Ok(None);
    };
    let mut out = String::new();
    let _ = writeln!(out, "{name} =");
    let _ = write!(out, "{full}");
    Ok(Some(out))
}

/// Render a replicated scalar the way MATLAB echoes it.
pub fn print_scalar(name: &str, v: f64) -> String {
    format!("{name} =\n{v:>12.6}\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use otter_machine::meiko_cs2;
    use otter_mpi::run_spmd;

    #[test]
    fn parse_format_round_trip() {
        let m = Dense::from_vec(2, 3, vec![1.0, -2.5, 3.0, 0.0, 1e-8, 7.125]);
        let text = format_matrix(&m);
        let back = parse_matrix(&text).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn parse_rejects_truncated() {
        assert!(parse_matrix("2 2\n1 2 3").is_err());
        assert!(parse_matrix("").is_err());
        assert!(parse_matrix("2 2\n1 2 3 x").is_err());
    }

    #[test]
    fn file_round_trip_and_distributed_load() {
        let dir = std::env::temp_dir().join(format!("otter_io_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.dat");
        let m = Dense::from_vec(5, 2, (0..10).map(f64::from).collect());
        write_matrix_file(&path, &m).unwrap();
        assert_eq!(read_matrix_file(&path).unwrap(), m);

        let p2 = path.clone();
        let res = run_spmd(&meiko_cs2(), 3, move |c| {
            let d = load_distributed(c, &p2).unwrap();
            d.gather_all(c)
        });
        for r in &res {
            assert_eq!(r.value, m);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn print_only_on_root() {
        let res = run_spmd(&meiko_cs2(), 4, |c| {
            let m = DistMatrix::eye(c, 3);
            print_distributed(c, "a", &m)
        });
        assert!(res[0].value.is_some());
        let text = res[0].value.as_ref().unwrap();
        assert!(text.starts_with("a ="));
        assert_eq!(text.lines().count(), 4);
        for r in &res[1..] {
            assert!(r.value.is_none());
        }
    }

    #[test]
    fn scalar_rendering() {
        let s = print_scalar("x", 2.5);
        assert!(s.contains("x ="));
        assert!(s.contains("2.500000"));
    }
}
