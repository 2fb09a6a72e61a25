//! `gluon-perf compare A.json B.json`: one row per (workload, end-to-end
//! metric) with both values, the ratio B ÷ A, the bound `BENCHMARK.json`
//! fixes, and a verdict.
//!
//! * `ok` — B is not worse than A by more than the bound.
//! * `worse` — it is, and the two sets' interquartile boxes are disjoint:
//!   the shift is larger than the trial-to-trial spread of either set.
//! * `unresolved` — it is, but the boxes overlap (the spread between the
//!   sets' quartiles is wider than the shift), so the two sets cannot tell
//!   a regression from a burst of interference. Run both again.
//!
//! A metric without quartiles (a count, a high-water mark) is `ok` or
//! `worse`.

use crate::json::Json;

/// An end-to-end metric's direction and bound, from `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// Reads the `end_to_end` table of `BENCHMARK.json`.
pub fn bounds_of(benchmark: &Json) -> Result<Vec<Bound>, String> {
    let table = benchmark
        .get("end_to_end")
        .ok_or("BENCHMARK.json has no end_to_end table")?;
    table
        .items()
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("end_to_end entry without {k:?}"));
            Ok(Bound {
                name: field("name")?
                    .as_str()
                    .ok_or("name is not a string")?
                    .into(),
                lower_is_better: match field("better")?.as_str() {
                    Some("lower") => true,
                    Some("higher") => false,
                    other => return Err(format!("better is {other:?}")),
                },
                bound: field("bound")?.num().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn word(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// A value with the quartiles of the sample behind it, if it has one.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Side {
    pub value: f64,
    pub quartiles: Option<(f64, f64)>,
}

/// Judges B against A under `bound`.
pub fn judge(a: Side, b: Side, bound: &Bound) -> Verdict {
    if a.value <= 0.0 {
        // No base to take a ratio of; equal is the only thing that is fine.
        return if b.value == a.value {
            Verdict::Ok
        } else {
            Verdict::Worse
        };
    }
    let ratio = b.value / a.value;
    let worse_by = if bound.lower_is_better {
        ratio - 1.0
    } else {
        1.0 - ratio
    };
    if worse_by <= bound.bound {
        return Verdict::Ok;
    }
    match (a.quartiles, b.quartiles) {
        (Some((a25, a75)), Some((b25, b75))) => {
            let overlap = if bound.lower_is_better {
                b25 <= a75
            } else {
                b75 >= a25
            };
            if overlap {
                Verdict::Unresolved
            } else {
                Verdict::Worse
            }
        }
        _ => Verdict::Worse,
    }
}

/// One line of the comparison.
#[derive(Clone, Debug)]
pub struct Row {
    pub workload: String,
    /// Whether the workload is one `BENCHMARK.json` gates on; an ungated
    /// row is shown but decides nothing.
    pub gated: bool,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

fn side(workload: &Json, metric: &str) -> Option<Side> {
    let m = workload.get("metrics")?.get(metric)?;
    let quartiles = m
        .get("summary")
        .and_then(|s| Some((s.get("p25")?.num()?, s.get("p75")?.num()?)));
    Some(Side {
        value: m.get("value")?.num()?,
        quartiles,
    })
}

fn workload_named<'a>(record: &'a Json, name: &str) -> Option<&'a Json> {
    record
        .get("workloads")?
        .items()
        .iter()
        .find(|w| w.get("workload").and_then(Json::as_str) == Some(name))
}

/// Compares two suite records, A the base.
///
/// # Errors
///
/// A message naming the first (workload, metric) pair one record has and
/// the other lacks: comparing different suites proves nothing.
pub fn compare(a: &Json, b: &Json, bounds: &[Bound]) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    let workloads = a.get("workloads").ok_or("A has no workloads")?.items();
    for wa in workloads {
        let name = wa
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("a workload without a name")?;
        let wb = workload_named(b, name).ok_or(format!("B has no workload {name}"))?;
        for bound in bounds {
            let missing = |which: &str| format!("{which} has no {} for {name}", bound.name);
            let sa = side(wa, &bound.name).ok_or_else(|| missing("A"))?;
            let sb = side(wb, &bound.name).ok_or_else(|| missing("B"))?;
            rows.push(Row {
                workload: name.to_string(),
                // Absent means gated.
                gated: wa.get("gated") != Some(&Json::Bool(false)),
                metric: bound.name.clone(),
                a: sa.value,
                b: sb.value,
                bound: bound.bound,
                verdict: judge(sa, sb, bound),
            });
        }
    }
    Ok(rows)
}

/// Prints the rows; returns whether any gated one is `worse` /
/// `unresolved`.
pub fn print_rows(rows: &[Row]) -> (bool, bool) {
    println!(
        "{:<18} {:<14} {:>14} {:>14} {:>12} {:>6}  verdict",
        "workload", "metric", "A", "B", "B/A", "bound"
    );
    for r in rows {
        let ratio = if r.a > 0.0 { r.b / r.a } else { f64::NAN };
        println!(
            "{:<18} {:<14} {:>14.6} {:>14.6} {:>12.4} {:>6.2}  {}{}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            ratio,
            r.bound,
            r.verdict.word(),
            if r.gated { "" } else { " (not gated)" }
        );
    }
    let any = |v: Verdict| rows.iter().any(|r| r.gated && r.verdict == v);
    (any(Verdict::Worse), any(Verdict::Unresolved))
}

/// Per-source exact counters (`wire_bytes`, `rounds`, `work_units`) that
/// differ between two records of the same seed. They are counts the
/// program makes; any difference is a determinism bug, not noise.
pub fn exact_mismatches<'a>(a: &'a Json, b: &'a Json) -> Vec<String> {
    let mut out = Vec::new();
    let Some(workloads) = a.get("workloads") else {
        return out;
    };
    for wa in workloads.items() {
        let Some(name) = wa.get("workload").and_then(Json::as_str) else {
            continue;
        };
        let Some(wb) = workload_named(b, name) else {
            continue;
        };
        let entries = |w: &'a Json| w.get("exact").map_or(&[][..], Json::items);
        for ea in entries(wa) {
            let source = ea.get("source").and_then(Json::num);
            let Some(eb) = entries(wb)
                .iter()
                .find(|e| e.get("source").and_then(Json::num) == source)
            else {
                continue;
            };
            if ea != eb {
                out.push(format!("{name}: {} vs {}", ea.render(), eb.render()));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound {
            name: "trial_s".into(),
            lower_is_better: true,
            bound,
        }
    }

    fn timed(value: f64, p25: f64, p75: f64) -> Side {
        Side {
            value,
            quartiles: Some((p25, p75)),
        }
    }

    #[test]
    fn within_the_bound_or_better_is_ok() {
        let b = lower(0.1);
        assert_eq!(
            judge(timed(1.0, 1.0, 1.1), timed(1.09, 1.09, 1.2), &b),
            Verdict::Ok
        );
        assert_eq!(
            judge(timed(1.0, 1.0, 1.1), timed(0.5, 0.5, 0.6), &b),
            Verdict::Ok
        );
    }

    #[test]
    fn beyond_the_bound_is_worse_only_when_the_boxes_are_disjoint() {
        let b = lower(0.1);
        assert_eq!(
            judge(timed(1.0, 1.0, 1.05), timed(1.3, 1.3, 1.4), &b),
            Verdict::Worse
        );
        assert_eq!(
            judge(timed(1.0, 1.0, 1.5), timed(1.3, 1.3, 1.9), &b),
            Verdict::Unresolved
        );
    }

    #[test]
    fn higher_is_better_flips_the_direction() {
        let b = Bound {
            name: "medges_per_s".into(),
            lower_is_better: false,
            bound: 0.1,
        };
        assert_eq!(
            judge(timed(100.0, 90.0, 100.0), timed(95.0, 85.0, 95.0), &b),
            Verdict::Ok
        );
        assert_eq!(
            judge(timed(100.0, 95.0, 100.0), timed(70.0, 65.0, 70.0), &b),
            Verdict::Worse
        );
        assert_eq!(
            judge(timed(100.0, 60.0, 100.0), timed(70.0, 40.0, 70.0), &b),
            Verdict::Unresolved
        );
    }

    #[test]
    fn counts_have_no_unresolved() {
        let exact = Bound {
            name: "wire_bytes".into(),
            lower_is_better: true,
            bound: 0.0,
        };
        let count = |value| Side {
            value,
            quartiles: None,
        };
        assert_eq!(judge(count(100.0), count(100.0), &exact), Verdict::Ok);
        assert_eq!(judge(count(100.0), count(101.0), &exact), Verdict::Worse);
        assert_eq!(judge(count(0.0), count(1.0), &exact), Verdict::Worse);
    }

    fn record(trial_s: f64, wire_bytes: f64) -> Json {
        Json::parse(&format!(
            r#"{{"workloads":[{{"workload":"w","metrics":{{
                "trial_s":{{"value":{trial_s},"unit":"s","summary":{{"p25":{trial_s},"p75":{}}}}}}},
                "exact":[{{"source":3,"wire_bytes":{wire_bytes},"rounds":5,"work_units":9}}]}}]}}"#,
            trial_s * 1.01
        ))
        .expect("test record parses")
    }

    #[test]
    fn compares_records_and_finds_exact_mismatches() {
        let bounds = [lower(0.1)];
        let rows = compare(&record(1.0, 10.0), &record(1.5, 10.0), &bounds).expect("same shape");
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].verdict, Verdict::Worse);
        assert!(exact_mismatches(&record(1.0, 10.0), &record(1.5, 10.0)).is_empty());
        assert_eq!(
            exact_mismatches(&record(1.0, 10.0), &record(1.0, 11.0)).len(),
            1
        );
        let other = [Bound {
            name: "setup_s".into(),
            ..lower(0.1)
        }];
        assert!(compare(&record(1.0, 10.0), &record(1.0, 10.0), &other).is_err());
    }

    #[test]
    fn reads_bounds_from_the_benchmark_file() {
        let doc = Json::parse(
            r#"{"end_to_end":[{"name":"trial_s","unit":"s","better":"lower","bound":0.1},
                              {"name":"medges_per_s","unit":"Medges/s","better":"higher","bound":0.1}]}"#,
        )
        .expect("parses");
        let b = bounds_of(&doc).expect("well formed");
        assert_eq!(b[0], lower(0.1));
        assert!(!b[1].lower_is_better);
        assert!(bounds_of(&Json::parse("{}").unwrap()).is_err());
    }
}
