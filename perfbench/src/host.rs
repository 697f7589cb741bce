//! Host and working-set descriptor printed with every run.

use std::fmt::Write as _;

use mf_sparse::{Csr, TiledMatrix};

pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Size in bytes of the unified/data cache at `level` for cpu0.
pub fn cache_bytes(level: u32) -> Option<usize> {
    let dir = std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()?;
    for e in dir.flatten() {
        let p = e.path();
        let read = |f: &str| std::fs::read_to_string(p.join(f)).ok();
        if read("level").and_then(|l| l.trim().parse::<u32>().ok()) != Some(level) {
            continue;
        }
        if read("type").is_some_and(|t| t.trim() == "Instruction") {
            continue;
        }
        let size = read("size")?;
        let s = size.trim();
        let (num, mult) = match s.chars().last()? {
            'K' => (&s[..s.len() - 1], 1 << 10),
            'M' => (&s[..s.len() - 1], 1 << 20),
            _ => (s, 1),
        };
        return num.parse::<usize>().ok().map(|v| v * mult);
    }
    None
}

/// Peak resident set (`VmHWM`) of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// JSON object describing the host and the working set of `matrices`:
/// CSR bytes and tiled `memory_bytes()`, each against L2 and L3.
pub fn descriptor(matrices: &[(String, &Csr)]) -> String {
    let l2 = cache_bytes(2).unwrap_or(0);
    let l3 = cache_bytes(3).unwrap_or(0);
    let mut ws = String::new();
    for (i, (name, a)) in matrices.iter().enumerate() {
        let csr = a.memory_bytes();
        let tiled = TiledMatrix::from_csr(a).memory_bytes().total();
        let vs = |b: usize, c: usize| if c > 0 { b as f64 / c as f64 } else { 0.0 };
        let _ = write!(
            ws,
            r#"{}{{"matrix":"{name}","n":{},"nnz":{},"csr_bytes":{csr},"tiled_bytes":{tiled},"csr_over_l2":{:.4},"csr_over_l3":{:.6},"tiled_over_l3":{:.6}}}"#,
            if i > 0 { "," } else { "" },
            a.nrows,
            a.nnz(),
            vs(csr, l2),
            vs(csr, l3),
            vs(tiled, l3),
        );
    }
    format!(
        r#"{{"available_parallelism":{},"cpu_model":"{}","l2_bytes":{l2},"l3_bytes":{l3},"working_set":[{ws}]}}"#,
        threads(),
        cpu_model().replace('"', "'"),
    )
}
