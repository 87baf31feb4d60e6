//! What the harness reads from its surroundings: the environment it
//! refuses, the machine fingerprint, peak memory, the output directory.

use crate::json::Json;
use crate::surface;
use std::path::PathBuf;
use std::process::Command;

/// Any `LS_*` variable changes what the library does (threads, SIMD,
/// precision, transport, fault injection); numbers taken under one are
/// not this benchmark's numbers.
pub fn refuse_ls_variables() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("LS_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: the benchmark measures the library's defaults; unset it",
            set.join(", ")
        ))
    }
}

/// `benchmark/out/` (`out/smoke/` in smoke mode, so a test run never
/// overwrites a result), created on demand. Git-ignored; everything a
/// run writes goes here.
pub fn out_dir(smoke: bool) -> PathBuf {
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    if smoke {
        dir.push("smoke");
    }
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
    dir
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split(':').nth(1))
        .map(|v| v.trim().to_string())
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let kib = proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.split_whitespace().next().and_then(|n| n.parse::<f64>().ok()))
        .expect("/proc/self/status reports VmHWM");
    kib / 1024.0
}

/// Seconds so far in which a vCPU of this guest had work and the host ran
/// something else instead, summed over the vCPUs: the `steal` column of
/// `/proc/stat`, in ticks of 10 ms (`USER_HZ` is 100 on every Linux
/// port). 0 where the kernel does not report it.
pub fn stolen_seconds() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|text| {
            let cpu = text.lines().next()?.strip_prefix("cpu ")?;
            cpu.split_whitespace().nth(7)?.parse::<f64>().ok()
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Size in bytes of the largest cache level of cpu0, if sysfs tells.
pub fn llc_bytes() -> Option<u64> {
    let parse = |s: String| {
        let s = s.trim();
        let (digits, mult) = match s.chars().last()? {
            'K' => (&s[..s.len() - 1], 1 << 10),
            'M' => (&s[..s.len() - 1], 1 << 20),
            'G' => (&s[..s.len() - 1], 1 << 30),
            _ => (s, 1),
        };
        digits.parse::<u64>().ok().map(|n| n * mult)
    };
    (0..8)
        .filter_map(|i| {
            std::fs::read_to_string(format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size"))
                .ok()
        })
        .filter_map(parse)
        .max()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Where and how a result was taken.
pub fn fingerprint(threads: usize) -> Json {
    Json::obj([
        ("nproc", Json::from(nproc())),
        ("threads", Json::from(threads)),
        ("dist_locales_x_cores", Json::str("2x1")),
        (
            "cpu_model",
            Json::str(
                proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into()),
            ),
        ),
        ("llc_bytes", llc_bytes().map_or(Json::Null, |b| Json::Num(b as f64))),
        ("simd", Json::str(surface::simd_level())),
        ("rustc", Json::str(command_line("rustc", &["-V"]))),
        ("git_commit", Json::str(command_line("git", &["rev-parse", "HEAD"]))),
    ])
}
