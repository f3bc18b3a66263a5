//! Run hygiene and the pieces every workload shares: environment
//! clearing, thread counts, the run-private directory, seeded op
//! sequences, op tallies and peak memory.

use std::path::{Path, PathBuf};
use std::time::Instant;

/// Variables cleared before anything reads them. Their values on entry
/// are printed so a run can be reproduced.
pub const CLEARED_ENV: &[&str] = &[
    "QCE_CACHE",
    "QCE_CACHE_MAX_BYTES",
    "QCE_TRACE",
    "QCE_ALLOC",
    "QCE_LOG",
    "QCE_SIMD",
    "QCE_THREADS",
    "QCE_SERVE_ADDR",
    "QCE_SERVE_WORKERS",
    "QCE_SERVE_QUOTA",
];

/// Clears [`CLEARED_ENV`], then sets `QCE_THREADS` to `compute_threads`.
/// Must run before the first call into the workspace crates, which read
/// these variables once. Returns `name=value` records of what was found.
pub fn reset_env(compute_threads: usize) -> Vec<String> {
    let mut found = Vec::new();
    for name in CLEARED_ENV {
        let value = std::env::var(name).unwrap_or_else(|_| "<unset>".to_string());
        found.push(format!("{name}={value}"));
        std::env::remove_var(name);
    }
    std::env::set_var("QCE_THREADS", compute_threads.to_string());
    found
}

/// Processor count the benchmark sizes its thread use by.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The run's private working directory under the checkout, created
/// empty and removed by [`RunDir::finish`].
#[derive(Debug)]
pub struct RunDir {
    root: PathBuf,
    next: std::sync::atomic::AtomicUsize,
}

/// Directory (relative to the working directory) holding run dirs and
/// traced-run JSONL files.
pub const RUNS_DIR: &str = ".qcebench-runs";

impl RunDir {
    /// Creates `.qcebench-runs/<workload>-s<seed>-p<pid>`, empty.
    pub fn create(workload: &str, seed: u64) -> std::io::Result<RunDir> {
        let root = Path::new(RUNS_DIR).join(format!("{workload}-s{seed}-p{}", std::process::id()));
        if root.exists() {
            std::fs::remove_dir_all(&root)?;
        }
        std::fs::create_dir_all(&root)?;
        Ok(RunDir {
            root,
            next: std::sync::atomic::AtomicUsize::new(0),
        })
    }

    /// A new, empty subdirectory for one stage cache.
    pub fn fresh_cache(&self) -> std::io::Result<PathBuf> {
        let n = self.next.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        let dir = self.root.join(format!("cache-{n}"));
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }

    /// Removes the run directory and everything in it.
    pub fn finish(self) -> std::io::Result<()> {
        std::fs::remove_dir_all(&self.root)
    }
}

/// SplitMix64: the benchmark's seeded generator for op sequences.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and `stream` (independent sequences for
    /// different purposes under one workload seed).
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// The op sequence of a roster workload: the roster indices `0..len` in
/// a fresh seeded shuffle per pass, concatenated — every pass visits
/// each entry exactly once.
pub fn roster_sequence(seed: u64, len: usize, passes: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed, 0x5e9);
    let mut out = Vec::with_capacity(len * passes);
    for _ in 0..passes {
        let mut pass: Vec<usize> = (0..len).collect();
        rng.shuffle(&mut pass);
        out.extend(pass);
    }
    out
}

/// Outcome counts and latencies of one timed phase.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Latency of every completed op, milliseconds; these ops count in
    /// `ops_per_s`.
    pub latencies_ms: Vec<f64>,
    /// Ops attempted (including any timed apart from the latencies).
    pub attempted: u64,
    /// Ops that failed or produced a wrong output.
    pub failed: u64,
    /// Wall time of the phase, seconds.
    pub wall_s: f64,
    /// Descriptions of the first few failures.
    pub failures: Vec<String>,
}

impl Phase {
    /// Records one op: its latency when it produced a right output,
    /// otherwise a failure with `why`.
    pub fn record(&mut self, latency_ms: f64, outcome: Result<(), String>) {
        self.attempted += 1;
        self.latencies_ms.push(latency_ms);
        if let Err(why) = outcome {
            self.fail(why);
        }
    }

    /// Records a failure without a latency (an op that errored).
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    /// Failed ops over ops attempted.
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Completed ops per second of phase wall time.
    pub fn ops_per_s(&self) -> f64 {
        self.latencies_ms.len() as f64 / self.wall_s.max(1e-9)
    }
}

/// Set-up-only child processes an untraced run starts after its own
/// set-up, for more cold set-up samples.
pub const COLD_SETUPS: usize = 2;

/// The flag that makes a process stop after set-up.
pub const SETUP_ONLY_FLAG: &str = "--setup-only";

/// The line a set-up-only process prints: `<prefix> <setup_s>
/// <attempted> <failed>`.
pub const SETUP_LINE: &str = "qcebench-setup";

/// What one set-up-only child reported.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChildSetup {
    /// Process start to the end of set-up, seconds.
    pub setup_s: f64,
    /// Set-up checks attempted.
    pub attempted: u64,
    /// Set-up checks failed.
    pub failed: u64,
}

/// Parses a set-up-only child's [`SETUP_LINE`].
pub fn parse_setup_line(line: &str) -> Option<ChildSetup> {
    let mut parts = line.strip_prefix(SETUP_LINE)?.split_whitespace();
    let child = ChildSetup {
        setup_s: parts.next()?.parse().ok()?,
        attempted: parts.next()?.parse().ok()?,
        failed: parts.next()?.parse().ok()?,
    };
    parts.next().is_none().then_some(child)
}

/// Runs [`COLD_SETUPS`] set-up-only copies of this process, one after
/// another, each with this process's arguments plus
/// [`SETUP_ONLY_FLAG`], and waits for each to exit.
pub fn cold_setups() -> Result<Vec<ChildSetup>, String> {
    use std::io::Read;
    use std::process::{Command, Stdio};
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let mut out = Vec::with_capacity(COLD_SETUPS);
    for _ in 0..COLD_SETUPS {
        let mut child = Command::new(&exe)
            .args(std::env::args().skip(1))
            .args([SETUP_ONLY_FLAG, "1"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting a set-up child: {e}"))?;
        let mut stdout = String::new();
        let read = child
            .stdout
            .take()
            .expect("piped stdout")
            .read_to_string(&mut stdout);
        let status = child
            .wait()
            .map_err(|e| format!("waiting for a set-up child: {e}"))?;
        read.map_err(|e| format!("reading a set-up child: {e}"))?;
        if !status.success() {
            return Err(format!("set-up child exited with {status}"));
        }
        let sample = stdout
            .lines()
            .find_map(parse_setup_line)
            .ok_or("set-up child printed no set-up line")?;
        out.push(sample);
    }
    Ok(out)
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// CPU time the host took from this machine's processors so far
/// (`steal` in `/proc/stat`), in seconds; `None` where unavailable.
pub fn host_steal_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: u64 = stat
        .lines()
        .next()?
        .split_whitespace()
        .nth(8)?
        .parse()
        .ok()?;
    // USER_HZ is 100 on every Linux platform the workspace builds on.
    Some(ticks as f64 / 100.0)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_sequences_reproduce_exactly() {
        assert_eq!(roster_sequence(7, 13, 5), roster_sequence(7, 13, 5));
        assert_ne!(roster_sequence(7, 13, 5), roster_sequence(8, 13, 5));
        let mut a = Rng::new(3, 1);
        let mut b = Rng::new(3, 1);
        let xs: Vec<u64> = (0..100).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..100).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(Rng::new(3, 1).next_u64(), Rng::new(3, 2).next_u64());
    }

    #[test]
    fn every_pass_visits_the_whole_roster() {
        let seq = roster_sequence(11, 8, 4);
        for pass in seq.chunks(8) {
            let mut p = pass.to_vec();
            p.sort_unstable();
            assert_eq!(p, (0..8).collect::<Vec<_>>());
        }
    }

    #[test]
    fn setup_lines_parse_exactly() {
        let line = format!("{SETUP_LINE} 0.25 3 1");
        assert_eq!(
            parse_setup_line(&line),
            Some(ChildSetup {
                setup_s: 0.25,
                attempted: 3,
                failed: 1
            })
        );
        assert_eq!(parse_setup_line("setup_s = 0.25 s"), None);
        assert_eq!(parse_setup_line(&format!("{SETUP_LINE} 0.25 3")), None);
        assert_eq!(parse_setup_line(&format!("{SETUP_LINE} 0.25 3 1 9")), None);
    }

    #[test]
    fn a_wrong_output_raises_the_fail_ratio() {
        let mut phase = Phase::default();
        phase.record(1.0, Ok(()));
        phase.record(1.0, Ok(()));
        assert_eq!(phase.fail_ratio(), 0.0);
        phase.record(1.0, Err("doctored".to_string()));
        assert!((phase.fail_ratio() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(phase.failures, vec!["doctored".to_string()]);
    }
}
