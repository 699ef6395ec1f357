//! Host facts every result carries, so numbers from different machines
//! keep their difference with them.

use std::fmt::Write;

/// The machine and build a result came from.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    pub nproc: usize,
    pub pool_width: usize,
    pub cpu_model: String,
    pub rustc: &'static str,
    pub profile: &'static str,
}

impl Fingerprint {
    pub fn probe(pool_width: usize) -> Fingerprint {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Fingerprint {
            nproc: nproc(),
            pool_width,
            cpu_model,
            rustc: env!("PERFBENCH_RUSTC"),
            profile: env!("PERFBENCH_PROFILE"),
        }
    }

    pub fn to_json(&self) -> String {
        let mut o = String::new();
        let _ = write!(
            o,
            "{{\"nproc\": {}, \"pool_width\": {}, \"cpu_model\": \"{}\", \"rustc\": \"{}\", \"profile\": \"{}\"}}",
            self.nproc,
            self.pool_width,
            esc(&self.cpu_model),
            esc(self.rustc),
            esc(self.profile)
        );
        o
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Start a new peak-RSS window: lower `VmHWM` to the current RSS. Where
/// the kernel refuses, the peak stays the process-wide one.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size (MiB) since the last [`reset_peak_rss`], from
/// `VmHWM`.
pub fn peak_rss_mib() -> f64 {
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

fn esc(s: &str) -> String {
    let mut o = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(o, "\\u{:04x}", c as u32);
            }
            c => o.push(c),
        }
    }
    o
}
