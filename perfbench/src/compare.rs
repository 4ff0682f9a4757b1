//! `perfbench compare <setA> <setB>`: two sets of saved run outputs
//! (one file per run, the benchmark's standard output) compared per
//! workload and metric: each side's quartiles and spread, the change of
//! the median, and a flag wherever the change or a spread exceeds the
//! metric's bound from `BENCHMARK.json`.

use crate::report::quartiles;
use hmm_telemetry::jsonin::{self, Json};
use std::collections::BTreeMap;
use std::path::Path;

/// One metric's declaration in `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Bound {
    pub lower_is_better: bool,
    /// `None` for per-layer metrics, which have no bound.
    pub bound: Option<f64>,
}

/// Values of one set: (workload, metric) → values; workload → (attempted, failed).
#[derive(Debug, Default)]
pub struct Set {
    pub values: BTreeMap<(String, String), Vec<f64>>,
    pub ops: BTreeMap<String, (u64, u64)>,
}

/// Parse one run's output: its context line names the workload, its
/// last line is the result.
pub fn absorb_run(set: &mut Set, text: &str) -> Result<(), String> {
    let mut workload = None;
    let mut result = None;
    for line in text.lines().filter(|l| l.starts_with('{')) {
        let doc = jsonin::parse(line).map_err(|e| format!("bad JSON line: {e}"))?;
        if let Some(w) = doc.get("workload").and_then(Json::as_str) {
            workload = Some(w.to_string());
        }
        result = Some(doc);
    }
    let workload = workload.ok_or("no context line naming the workload")?;
    let result = result.ok_or("no result line")?;
    let num = |k: &str| result.get(k).and_then(Json::as_f64).map(|v| v as u64);
    let (attempted, failed) = (
        num("attempted").ok_or("result lacks 'attempted'")?,
        num("failed").ok_or("result lacks 'failed'")?,
    );
    let ops = set.ops.entry(workload.clone()).or_default();
    ops.0 += attempted;
    ops.1 += failed;
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        return Err("result lacks 'metrics'".into());
    };
    for (name, m) in metrics {
        let v = m.get("value").and_then(Json::as_f64).ok_or("metric without a value")?;
        set.values.entry((workload.clone(), name.clone())).or_default().push(v);
    }
    Ok(())
}

pub fn load_set(dir: &Path) -> Result<Set, String> {
    let mut set = Set::default();
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_file())
        .collect();
    files.sort();
    for f in files {
        let text = std::fs::read_to_string(&f).map_err(|e| format!("{}: {e}", f.display()))?;
        absorb_run(&mut set, &text).map_err(|e| format!("{}: {e}", f.display()))?;
    }
    Ok(set)
}

pub fn load_bounds(path: &Path) -> Result<BTreeMap<String, Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = jsonin::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = BTreeMap::new();
    for section in ["end_to_end", "per_layer"] {
        for m in doc.get(section).and_then(Json::as_arr).unwrap_or_default() {
            let name = m.get("name").and_then(Json::as_str).ok_or("metric without a name")?;
            let better = m.get("better").and_then(Json::as_str).unwrap_or("lower");
            out.insert(
                name.to_string(),
                Bound {
                    lower_is_better: better == "lower",
                    bound: m.get("bound").and_then(Json::as_f64),
                },
            );
        }
    }
    Ok(out)
}

/// The comparison as text, and whether nothing was flagged.
pub fn render(a: &Set, b: &Set, bounds: &BTreeMap<String, Bound>) -> (String, bool) {
    let mut out = String::new();
    let mut clean = true;
    out.push_str(&format!(
        "{:<13} {:<28} {:>4} {:>12} {:>12} {:>12} {:>7} {:>12} {:>12} {:>12} {:>7} {:>8} {:>6}  flags\n",
        "workload", "metric", "n", "A q1", "A median", "A q3", "A iqr%", "B q1", "B median",
        "B q3", "B iqr%", "change%", "bound%"
    ));
    for ((w, m), av) in &a.values {
        let Some(bv) = b.values.get(&(w.clone(), m.clone())) else {
            out.push_str(&format!("{w:<13} {m:<28} missing from set B\n"));
            clean = false;
            continue;
        };
        let (qa, qb) = (quartiles(av), quartiles(bv));
        let spread = |q: [f64; 3]| (q[2] - q[0]) / q[1].abs() * 100.0;
        let change = (qb[1] - qa[1]) / qa[1].abs() * 100.0;
        let decl = bounds.get(m);
        let mut flags = Vec::new();
        if let Some(Bound { lower_is_better, bound: Some(bound) }) = decl {
            let worse = if *lower_is_better { change } else { -change };
            if worse > bound * 100.0 {
                flags.push("WORSE");
            } else if -worse > bound * 100.0 {
                flags.push("better");
            }
            if spread(qa) > bound * 100.0 || spread(qb) > bound * 100.0 {
                flags.push("SPREAD");
            }
        }
        clean &= !flags.contains(&"WORSE") && !flags.contains(&"SPREAD");
        let bound =
            decl.and_then(|d| d.bound).map_or("-".to_string(), |b| format!("{:.1}", b * 100.0));
        out.push_str(&format!(
            "{w:<13} {m:<28} {:>4} {:>12.6} {:>12.6} {:>12.6} {:>7.2} {:>12.6} {:>12.6} {:>12.6} {:>7.2} {:>8.2} {:>6}  {}\n",
            av.len().min(bv.len()),
            qa[0], qa[1], qa[2], spread(qa), qb[0], qb[1], qb[2], spread(qb), change, bound,
            flags.join(",")
        ));
    }
    for (w, (att_a, fail_a)) in &a.ops {
        let (att_b, fail_b) = b.ops.get(w).copied().unwrap_or_default();
        let share = |f: u64, n: u64| f as f64 / n.max(1) as f64;
        let same = share(*fail_a, *att_a) == share(fail_b, att_b);
        clean &= same;
        out.push_str(&format!(
            "{w:<13} failed/attempted A {fail_a}/{att_a}  B {fail_b}/{att_b}{}\n",
            if same { "" } else { "  FAILED-SHARE-DIFFERS" }
        ));
    }
    (out, clean)
}

/// `compare <setA> <setB> [--bench BENCHMARK.json]`; returns whether the
/// comparison was clean.
pub fn main(args: &[String]) -> Result<bool, String> {
    let mut dirs = Vec::new();
    let mut bench = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--bench" {
            bench = it.next().ok_or("--bench needs a path")?.clone();
        } else {
            dirs.push(a.clone());
        }
    }
    let [da, db] = dirs.as_slice() else {
        return Err("want exactly two set directories".into());
    };
    let (a, b) = (load_set(Path::new(da))?, load_set(Path::new(db))?);
    let (text, clean) = render(&a, &b, &load_bounds(Path::new(&bench))?);
    print!("{text}");
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_text(workload: &str, v: f64) -> String {
        format!(
            "{{\"workload\":\"{workload}\",\"seed\":1}}\n\
             {{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{{\"latency_ms\":{{\"value\":{v},\"unit\":\"ms\"}}}}}}\n"
        )
    }

    fn set(workload: &str, values: &[f64]) -> Set {
        let mut s = Set::default();
        for v in values {
            absorb_run(&mut s, &run_text(workload, *v)).unwrap();
        }
        s
    }

    fn bounds() -> BTreeMap<String, Bound> {
        [("latency_ms".to_string(), Bound { lower_is_better: true, bound: Some(0.1) })].into()
    }

    #[test]
    fn flags_a_regression_beyond_the_bound() {
        let a = set("w", &[1.0, 1.0, 1.01, 0.99, 1.0]);
        let b = set("w", &[1.2, 1.2, 1.21, 1.19, 1.2]);
        let (text, clean) = render(&a, &b, &bounds());
        assert!(!clean && text.contains("WORSE"), "{text}");
        let (text, clean) = render(&a, &a, &bounds());
        assert!(clean, "{text}");
    }

    #[test]
    fn flags_a_spread_beyond_the_bound() {
        let a = set("w", &[0.5, 1.0, 1.5, 0.7, 1.3]);
        let (text, clean) = render(&a, &a, &bounds());
        assert!(!clean && text.contains("SPREAD"), "{text}");
    }
}
