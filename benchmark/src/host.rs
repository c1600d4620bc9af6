//! What the benchmark needs to know about the machine it runs on.

use otter_metrics::Json;
use std::path::PathBuf;
use std::process::Command;

/// Where everything the benchmark writes goes (inside the checkout).
/// Relative on purpose: a Unix socket address holds ~100 bytes and the
/// checkout may sit anywhere.
pub fn out_dir() -> PathBuf {
    PathBuf::from("benchmark/out")
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The engine/daemon worker budget of every workload: `min(nproc, 4)`.
pub fn workers() -> usize {
    nproc().min(4)
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let field = proc_field("/proc/self/status", "VmHWM").ok_or("no VmHWM in /proc/self/status")?;
    let kb: f64 = field
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("VmHWM `{field}`: {e}"))?;
    Ok(kb / 1024.0)
}

/// Whether AVX2 code generation was compiled in. Without the repo's
/// `.cargo/config.toml` (`target-cpu=native`) — i.e. when cargo was
/// not run from the repo root — the kernels lose about half their
/// throughput; the results file and a stderr warning say so.
pub fn avx2_compiled() -> bool {
    cfg!(target_feature = "avx2")
}

pub fn warn_if_not_native() {
    #[cfg(target_arch = "x86_64")]
    if !avx2_compiled() && std::arch::is_x86_feature_detected!("avx2") {
        eprintln!(
            "warning: built without AVX2 on a host that has it: run cargo from the repo root so .cargo/config.toml (target-cpu=native) applies"
        );
    }
}

/// Last-level cache size in bytes, if the kernel exposes it.
pub fn llc_bytes() -> Option<u64> {
    (0..8)
        .rev()
        .find_map(|i| {
            std::fs::read_to_string(format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size"))
                .ok()
        })
        .and_then(|s| {
            let s = s.trim();
            let (digits, mult) = match s.as_bytes().last()? {
                b'K' => (&s[..s.len() - 1], 1u64 << 10),
                b'M' => (&s[..s.len() - 1], 1 << 20),
                b'G' => (&s[..s.len() - 1], 1 << 30),
                _ => (s, 1),
            };
            digits.parse::<u64>().ok().map(|n| n * mult)
        })
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The environment echo of the results file.
pub fn describe() -> Json {
    let s = |v: String| Json::Str(v);
    Json::Obj(vec![
        ("nproc".to_string(), Json::Num(nproc() as f64)),
        ("workers".to_string(), Json::Num(workers() as f64)),
        (
            "cpu_model".to_string(),
            s(proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".to_string())),
        ),
        (
            "llc_bytes".to_string(),
            llc_bytes().map_or(Json::Null, |b| Json::Num(b as f64)),
        ),
        ("rustc".to_string(), s(command_line("rustc", &["-V"]))),
        (
            "commit".to_string(),
            s(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("avx2_compiled".to_string(), Json::Bool(avx2_compiled())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_facts_are_sane() {
        assert!(workers() >= 1 && workers() <= 4 && workers() <= nproc());
        assert!(peak_rss_mb().unwrap() > 1.0);
        assert!(describe().get("rustc").is_some());
    }
}
