//! Output: the human-readable table, the one-line JSON result the
//! driver reads, the flat results file, and the comparison of several
//! results files that `run.sh --repeat` ends with.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::estimator::{median, quartile_spread};
use crate::metrics::{self, MetricDef};
use crate::passes::WorkloadReport;

fn unit_of(defs: &[&MetricDef], name: &str) -> &'static str {
    defs.iter().find(|m| m.name == name).map_or("", |m| m.unit)
}

/// Print every metric by name with its unit, then the notes, one
/// workload after another.
pub fn print_table(title: &str, reports: &[WorkloadReport], defs: &[&MetricDef]) {
    println!("# {title}");
    for r in reports {
        for (name, value) in &r.metrics {
            // `crypto.modeled_share` is computed from probe costs and
            // record counts; keep it visibly apart from measured rows.
            let tag = if *name == "crypto.modeled_share" {
                "  [modeled]"
            } else {
                ""
            };
            println!(
                "{:<18} {:<42} {:>16.4} {}{tag}",
                r.name,
                name,
                value,
                unit_of(defs, name)
            );
        }
        for (name, value) in &r.notes {
            println!("{:<18} ~{:<41} {:>16}", r.name, name, value);
        }
        for e in &r.errors {
            println!("{:<18} !error: {e}", r.name);
        }
    }
}

/// The result object: `correct`, `attempted`, `failed`, `metrics`.
/// With one workload the metric keys are the bare names; with several
/// they are `<workload>.<name>`.
pub fn json_line(reports: &[WorkloadReport], defs: &[&MetricDef]) -> String {
    let attempted: u64 = reports.iter().map(|r| r.attempted).sum();
    let failed: u64 = reports.iter().map(|r| r.failed).sum();
    let single = reports
        .iter()
        .map(|r| r.name)
        .collect::<std::collections::BTreeSet<_>>()
        .len()
        <= 1;
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        failed == 0,
        attempted.max(1),
        failed
    );
    let mut first = true;
    for r in reports {
        for (name, value) in &r.metrics {
            if !first {
                out.push_str(", ");
            }
            first = false;
            let key = if single {
                (*name).to_string()
            } else {
                format!("{}.{name}", r.name)
            };
            // Display prints the shortest decimal that reads back as
            // the same f64: every digit measured, none invented.
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "\"{key}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                unit_of(defs, name)
            );
        }
    }
    out.push_str("}}");
    out
}

/// The flat results file: `workload<TAB>metric<TAB>value` lines, the
/// round digest as the pseudo-metric `#digest` (once per workload: the
/// two passes of one run share it, or the run has already failed).
pub fn results_tsv(reports: &[WorkloadReport]) -> String {
    let mut out = String::new();
    let mut digests = std::collections::BTreeSet::new();
    for r in reports {
        for (name, value) in &r.metrics {
            let _ = writeln!(out, "{}\t{name}\t{value}", r.name);
        }
        if digests.insert((r.name, r.digest)) {
            let _ = writeln!(out, "{}\t#digest\t{:016x}", r.name, r.digest);
        }
    }
    out
}

/// Compare results files of the same commit and seed. Every
/// end-to-end metric must agree within its bound (largest minus
/// smallest, over the median) and the digests must be equal. Prints
/// one line per metric; returns whether everything agreed.
pub fn compare(files: &[(String, String)]) -> bool {
    // (workload, metric) → one value per file, as text.
    let mut table: BTreeMap<(String, String), Vec<String>> = BTreeMap::new();
    for (_, text) in files {
        for line in text.lines() {
            let mut fields = line.split('\t');
            if let (Some(w), Some(m), Some(v)) = (fields.next(), fields.next(), fields.next()) {
                table
                    .entry((w.to_string(), m.to_string()))
                    .or_default()
                    .push(v.to_string());
            }
        }
    }
    let mut ok = true;
    println!(
        "# spread over {} runs: (max - min) / median, and quartile distance / median",
        files.len()
    );
    for ((workload, metric), values) in &table {
        if values.len() != files.len() {
            println!("{workload:<18} {metric:<42} MISSING from a run");
            ok = false;
            continue;
        }
        if metric == "#digest" {
            let same = values.iter().all(|v| v == &values[0]);
            println!(
                "{workload:<18} {metric:<42} {}",
                if same { "equal" } else { "DIFFERENT" }
            );
            ok &= same;
            continue;
        }
        let Some(def) = metrics::end_to_end(metric) else {
            continue;
        };
        let nums: Vec<f64> = values.iter().filter_map(|v| v.parse().ok()).collect();
        if nums.len() != values.len() {
            println!("{workload:<18} {metric:<42} UNREADABLE");
            ok = false;
            continue;
        }
        let (lo, hi) = nums
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        let med = median(&nums);
        let range = if med > 0.0 { (hi - lo) / med } else { 0.0 };
        let within = range <= def.bound;
        println!(
            "{workload:<18} {metric:<42} range {:>7.3}%  iqr {:>7.3}%  bound {:>5.1}%  {}",
            range * 100.0,
            quartile_spread(&nums) * 100.0,
            def.bound * 100.0,
            if within { "ok" } else { "EXCEEDED" }
        );
        ok &= within;
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::END_TO_END;

    fn report(name: &'static str, ops: f64) -> WorkloadReport {
        WorkloadReport {
            name,
            metrics: vec![("ops_per_s", ops), ("setup_s", 0.0125)],
            digest: 0xABCD,
            attempted: 10,
            ..WorkloadReport::default()
        }
    }

    #[test]
    fn json_line_has_the_four_keys_and_full_precision() {
        let defs: Vec<&MetricDef> = END_TO_END.iter().collect();
        let line = json_line(&[report("w", 1234.567891234)], &defs);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"ops_per_s\": {\"value\": 1234.567891234, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 0.0125, \"unit\": \"s\"}}}"
        );
        let two = json_line(&[report("a", 1.0), report("b", 2.0)], &defs);
        assert!(two.contains("\"a.ops_per_s\"") && two.contains("\"b.setup_s\""));
    }

    #[test]
    fn compare_applies_bounds_and_digests() {
        let a = results_tsv(&[report("w", 100.0)]);
        let b = results_tsv(&[report("w", 104.0)]);
        let c = results_tsv(&[report("w", 150.0)]);
        let file = |t: &str| (String::new(), t.to_string());
        assert!(
            compare(&[file(&a), file(&b)]),
            "4 % apart is inside the 20 % bound"
        );
        assert!(!compare(&[file(&a), file(&c)]), "40 % apart is not");
        // Both passes of one run report the workload; one digest line.
        let both = results_tsv(&[report("w", 100.0), report("w", 100.0)]);
        assert_eq!(both.matches("#digest").count(), 1);
        let mut other = report("w", 100.0);
        other.digest = 1;
        assert!(
            !compare(&[file(&a), file(&results_tsv(&[other]))]),
            "digests differ"
        );
    }
}
