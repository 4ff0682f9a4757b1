//! What one run reports: operation tallies per kind, latency samples,
//! named metrics with units, the host it ran on, and the final JSON line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// Attempted and failed operations of one kind.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Count {
    pub attempted: u64,
    pub failed: u64,
}

/// Everything a run prints. Metrics keep insertion order.
#[derive(Debug, Default)]
pub struct Report {
    pub kinds: BTreeMap<&'static str, Count>,
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Every failed check, in the order seen; empty means correct.
    pub errors: Vec<String>,
    /// Simulated reference figures (not metrics: their right value is
    /// the paper's, not the lower one), printed in the context line.
    pub reference: Vec<(&'static str, f64)>,
}

impl Report {
    /// Count one operation of `kind`; `outcome` is its check.
    pub fn op(&mut self, kind: &'static str, outcome: Result<(), String>) {
        let c = self.kinds.entry(kind).or_default();
        c.attempted += 1;
        if let Err(e) = outcome {
            c.failed += 1;
            self.fail(format!("{kind}: {e}"));
        }
    }

    /// Fold another report's tallies and failures into this one.
    pub fn absorb(&mut self, other: Report) {
        for (kind, c) in other.kinds {
            let mine = self.kinds.entry(kind).or_default();
            mine.attempted += c.attempted;
            mine.failed += c.failed;
        }
        self.errors.extend(other.errors);
        self.metrics.extend(other.metrics);
        self.reference.extend(other.reference);
    }

    /// Record a failed check that belongs to no single operation.
    pub fn fail(&mut self, msg: String) {
        if self.errors.len() < 32 {
            eprintln!("perfbench: check failed: {msg}");
        }
        self.errors.push(msg);
    }

    /// Record a run-level check.
    pub fn check(&mut self, outcome: Result<(), String>) {
        if let Err(e) = outcome {
            self.fail(e);
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn attempted(&self) -> u64 {
        self.kinds.values().map(|c| c.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.kinds.values().map(|c| c.failed).sum()
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// The run description printed before the result: workload, host and
    /// the per-kind tallies.
    pub fn context_line(&self, workload: &str, seed: u64, trace: bool, host: &Host) -> String {
        let mut kinds = String::from("{");
        for (i, (k, c)) in self.kinds.iter().enumerate() {
            if i > 0 {
                kinds.push(',');
            }
            let _ =
                write!(kinds, "\"{k}\":{{\"attempted\":{},\"failed\":{}}}", c.attempted, c.failed);
        }
        kinds.push('}');
        let reference: Vec<String> =
            self.reference.iter().map(|(k, v)| format!("\"{k}\":{}", num(*v))).collect();
        format!(
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"trace\":{},\"host\":{},\"kinds\":{kinds},\"reference\":{{{}}}}}",
            u8::from(trace),
            host.to_json(),
            reference.join(",")
        )
    }

    /// The final line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let mut m = String::from("{");
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                m.push(',');
            }
            let _ = write!(m, "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", num(*value));
        }
        m.push('}');
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{m}}}",
            self.correct(),
            self.attempted(),
            self.failed()
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// Latency samples of one operation kind, in seconds.
#[derive(Debug, Default, Clone)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64());
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// Nearest-rank quantile; `q` in `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile(&self.0, q)
    }

    pub fn ms(&self, q: f64) -> f64 {
        self.quantile(q) * 1e3
    }
}

/// Nearest-rank quantile of unsorted values; NaN when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Python's `statistics.quantiles(values, n=4)` (exclusive method):
/// the first quartile, the median and the third quartile.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return [f64::NAN; 3];
    }
    if n == 1 {
        return [v[0]; 3];
    }
    let m = (n + 1) as f64;
    let at = |i: usize| {
        let pos = i as f64 * m / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    [at(1), at(2), at(3)]
}

/// The host a report was measured on.
#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub available_parallelism: usize,
    pub cpu_model: String,
    pub kernel: String,
}

impl Host {
    pub fn probe() -> Host {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let nproc = cpuinfo.lines().filter(|l| l.starts_with("processor")).count().max(1);
        let cpu_model = cpuinfo
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into());
        let available_parallelism =
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Host { nproc, available_parallelism, cpu_model, kernel }
    }

    fn to_json(&self) -> String {
        let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
        format!(
            "{{\"nproc\":{},\"available_parallelism\":{},\"cpu_model\":\"{}\",\"kernel\":\"{}\"}}",
            self.nproc,
            self.available_parallelism,
            esc(&self.cpu_model),
            esc(&self.kernel)
        )
    }
}

/// Resource usage of this process (`getrusage(RUSAGE_SELF)`).
#[derive(Debug, Default, Clone, Copy)]
pub struct Usage {
    pub user_s: f64,
    pub sys_s: f64,
    pub max_rss_kib: i64,
    pub vol_ctx: i64,
    pub invol_ctx: i64,
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` as Linux lays it out on 64-bit targets.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

impl Usage {
    pub fn now() -> Usage {
        let mut r = Rusage::default();
        // SAFETY: `r` is a live, writable `struct rusage` with the C
        // layout of 64-bit Linux, and RUSAGE_SELF (0) is a valid `who`;
        // getrusage writes only within the struct.
        let rc = unsafe { getrusage(0, &mut r) };
        if rc != 0 {
            return Usage::default();
        }
        let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
        Usage {
            user_s: secs(&r.utime),
            sys_s: secs(&r.stime),
            max_rss_kib: r.maxrss,
            vol_ctx: r.nvcsw,
            invol_ctx: r.nivcsw,
        }
    }

    /// Usage accrued since `earlier`; `max_rss_kib` stays the peak.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            max_rss_kib: self.max_rss_kib,
            vol_ctx: self.vol_ctx - earlier.vol_ctx,
            invol_ctx: self.invol_ctx - earlier.invol_ctx,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn nearest_rank_quantile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
    }

    #[test]
    fn failed_checks_count_against_their_kind() {
        let mut r = Report::default();
        r.op("hit", Ok(()));
        r.op("hit", Err("body differs".into()));
        assert_eq!((r.attempted(), r.failed()), (2, 1));
        assert!(!r.correct());
    }

    #[test]
    fn rusage_reads_this_process() {
        let u = Usage::now();
        assert!(u.max_rss_kib > 0, "{u:?}");
    }
}
