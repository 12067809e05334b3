//! Host fingerprint: host times compare only between runs on one host.

use std::path::Path;

/// What identifies the machine and toolchain a run measured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Host {
    /// CPU model name from `/proc/cpuinfo`.
    pub cpu: String,
    /// Available parallelism.
    pub nproc: usize,
    /// AES-NI present.
    pub aes: bool,
    /// VAES present.
    pub vaes: bool,
    /// Compiler that built the benchmark.
    pub rustc: &'static str,
    /// Source revision (`git rev-parse HEAD`), or `none` outside a git
    /// checkout.
    pub commit: String,
}

impl Host {
    /// Probes the running machine.
    pub fn probe() -> Host {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let field = |key: &str| {
            cpuinfo
                .lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        };
        let flags = field("flags").unwrap_or_default();
        let has = |flag: &str| flags.split_whitespace().any(|f| f == flag);
        let commit = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "none".into());
        Host {
            cpu: field("model name").unwrap_or_else(|| "unknown".into()),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            aes: has("aes"),
            vaes: has("vaes"),
            rustc: env!("PERFBENCH_RUSTC_VERSION"),
            commit,
        }
    }

    /// The machine part of the fingerprint (what must match for two
    /// runs' host times to be comparable; the commit may differ).
    pub fn machine(&self) -> String {
        format!(
            "cpu={}; nproc={}; aes={}; vaes={}; {}",
            self.cpu, self.nproc, self.aes, self.vaes, self.rustc
        )
    }

    /// One line naming machine and commit.
    pub fn line(&self) -> String {
        format!("{}; commit={}", self.machine(), self.commit)
    }

    /// Compares with the machine recorded by the previous run in `dir`,
    /// then records this one. Returns a warning when they differ.
    pub fn check_same_host(&self, dir: &Path) -> Option<String> {
        let file = dir.join("host.txt");
        let previous = std::fs::read_to_string(&file).ok();
        let _ = std::fs::write(&file, self.machine());
        match previous {
            Some(p) if p != self.machine() => Some(format!(
                "WARNING: host differs from the previous run in this checkout \
                 (was `{p}`); host times from different hosts are not comparable"
            )),
            _ => None,
        }
    }
}
