//! The end-to-end metric table, the result-file format, and the rules
//! that compare two result files.

use dv_core::json::Json;

use crate::stats::Summary;

/// Result-file schema tag.
pub const SCHEMA: &str = "dv-ledger-v1";

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (rates).
    Higher,
}

/// One end-to-end metric: defined on every workload.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the base value by which the metric may worsen before the
    /// change counts as a regression.
    pub bound: f64,
    /// Listed under `end_to_end` in `BENCHMARK.json`. The acceptance
    /// driver judges every listed metric by its spread across *seeds*,
    /// refuses metrics that can read zero, and refuses a time that reads
    /// the same on every run. So three are kept out of that list:
    /// `virt_time_ms` repeats exactly for a seed but differs between
    /// seeds, `fail_frac` is zero by design (the driver gets it as
    /// `failed`/`attempted`), and `cpu_s` says nothing `wall_s` does not
    /// once the run is pinned to one CPU (`cpu_s ≤ wall_s` there) while
    /// its 10 ms clock tick makes the best of fifty 0.15–0.4 s repetitions
    /// read the same two or three values on every run.
    pub in_contract: bool,
}

/// Every end-to-end metric, in reporting order. `tests::contract_file_*`
/// hold `BENCHMARK.json` to this table.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        in_contract: true,
    },
    EndToEnd {
        name: "app_ops_per_s",
        unit: "ops/s",
        better: Better::Higher,
        bound: 0.25,
        in_contract: true,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        in_contract: false,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
        in_contract: true,
    },
    EndToEnd {
        name: "virt_time_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.005,
        in_contract: false,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        in_contract: true,
    },
    EndToEnd {
        name: "fail_frac",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.0,
        in_contract: false,
    },
];

/// Outcome of comparing one metric between a base and a new result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the bound, or every new run beats every base run.
    Improved,
    /// Within the bound either way, and the spread is narrower than the bound.
    Unchanged,
    /// Worse by more than the bound.
    Regressed,
    /// A side's spread is wider than the bound: no claim either way.
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Share of the base value by which `new` is worse (negative: better).
/// A zero base turns any worsening into infinity.
fn worse_by(metric: &EndToEnd, base: f64, new: f64) -> f64 {
    let delta = match metric.better {
        Better::Lower => new - base,
        Better::Higher => base - new,
    };
    if delta == 0.0 {
        0.0
    } else if base == 0.0 {
        delta.signum() * f64::INFINITY
    } else {
        delta / base.abs()
    }
}

/// Judge one metric by each side's best repetition. A spread
/// ([`Summary::spread`], either side) wider than the bound makes the pair
/// `Unresolved` — never `Unchanged` — unless every repetition of one side
/// reads better than every repetition of the other.
pub fn verdict(metric: &EndToEnd, base: &Summary, new: &Summary) -> Verdict {
    let (new_wins, base_wins) = match metric.better {
        Better::Lower => (new.max < base.min, base.max < new.min),
        Better::Higher => (new.min > base.max, base.min > new.max),
    };
    let better = metric.better;
    let worse = worse_by(metric, base.best(better), new.best(better));
    let wide = base.spread(better) > metric.bound || new.spread(better) > metric.bound;
    if wide {
        return match (new_wins, base_wins) {
            (true, _) => Verdict::Improved,
            (_, true) if worse > metric.bound => Verdict::Regressed,
            _ => Verdict::Unresolved,
        };
    }
    if worse > metric.bound {
        Verdict::Regressed
    } else if -worse > metric.bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// One row of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric (or count) name.
    pub metric: String,
    /// Base value, as text (best repetition, count or digest).
    pub base: String,
    /// New value.
    pub new: String,
    /// `new ÷ base`, where that is a number.
    pub ratio: Option<f64>,
    /// Verdict label, or `equal` / `DIFFERS` for exact rows.
    pub verdict: String,
    /// The row makes `--selfcheck` (and a no-regression claim) fail.
    pub bad: bool,
}

fn workloads_of(result: &Json) -> Result<&[Json], String> {
    result
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or_else(|| "result has no \"workloads\" array".to_string())
}

/// Compare two result files: one row per workload × end-to-end metric,
/// then exact-equality rows for `sim_digest` and every count.
pub fn compare(base: &Json, new: &Json) -> Result<Vec<Row>, String> {
    for (side, j) in [("base", base), ("new", new)] {
        if j.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(format!("{side} result is not a {SCHEMA} file"));
        }
    }
    let mut rows = Vec::new();
    for b in workloads_of(base)? {
        let name = b
            .get("name")
            .and_then(Json::as_str)
            .ok_or("workload without a name")?;
        let n = workloads_of(new)?
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
            .ok_or_else(|| format!("new result lacks workload {name}"))?;
        for metric in &END_TO_END {
            let summary = |side: &Json| {
                side.get("end_to_end")
                    .and_then(|e| e.get(metric.name))
                    .and_then(Summary::from_json)
                    .ok_or_else(|| format!("{name}: no end-to-end metric {}", metric.name))
            };
            let (bs, ns) = (summary(b)?, summary(n)?);
            let v = verdict(metric, &bs, &ns);
            let (bv, nv) = (bs.best(metric.better), ns.best(metric.better));
            rows.push(Row {
                workload: name.into(),
                metric: metric.name.into(),
                base: format!("{bv:.6}"),
                new: format!("{nv:.6}"),
                ratio: (bv != 0.0).then(|| nv / bv),
                verdict: v.label().into(),
                bad: matches!(v, Verdict::Regressed | Verdict::Unresolved),
            });
        }
        let mut exact = |metric: &str, bv: String, nv: String| {
            let same = bv == nv;
            rows.push(Row {
                workload: name.into(),
                metric: metric.into(),
                base: bv,
                new: nv,
                ratio: None,
                verdict: if same { "equal" } else { "DIFFERS" }.into(),
                bad: !same,
            });
        };
        let text =
            |side: &Json, key: &str| side.get(key).map_or_else(|| "missing".into(), Json::render);
        exact("sim_digest", text(b, "sim_digest"), text(n, "sim_digest"));
        let layer = |side: &Json| -> Vec<(String, String, String)> {
            side.get("per_layer")
                .and_then(Json::as_obj)
                .map(|members| {
                    members
                        .iter()
                        .map(|(k, v)| {
                            let unit = v
                                .get("unit")
                                .and_then(Json::as_str)
                                .unwrap_or("")
                                .to_string();
                            (
                                k.clone(),
                                unit,
                                v.get("value")
                                    .map_or_else(|| "missing".into(), Json::render),
                            )
                        })
                        .collect()
                })
                .unwrap_or_default()
        };
        let new_layer = layer(n);
        for (key, unit, bv) in layer(b) {
            if unit != "count" {
                continue;
            }
            let nv = new_layer
                .iter()
                .find(|(k, _, _)| *k == key)
                .map_or_else(|| "missing".to_string(), |(_, _, v)| v.clone());
            exact(&key, bv, nv);
        }
    }
    Ok(rows)
}

/// Render comparison rows as an aligned table; equal exact rows are
/// folded into one line per workload.
pub fn render_rows(rows: &[Row]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:<36} {:>16} {:>16} {:>18} verdict",
        "workload", "metric", "base", "new", "ratio (new/base)"
    );
    let mut equal_counts: Vec<(String, usize)> = Vec::new();
    for r in rows {
        if r.verdict == "equal" {
            match equal_counts.iter_mut().find(|(w, _)| *w == r.workload) {
                Some((_, n)) => *n += 1,
                None => equal_counts.push((r.workload.clone(), 1)),
            }
            continue;
        }
        let ratio = r
            .ratio
            .map_or_else(|| "-".to_string(), |x| format!("{x:.4} of {}", r.base));
        let _ = writeln!(
            out,
            "{:<14} {:<36} {:>16} {:>16} {:>18} {}",
            r.workload, r.metric, r.base, r.new, ratio, r.verdict
        );
    }
    for (w, n) in equal_counts {
        let _ = writeln!(out, "{w:<14} {n} exact rows (sim_digest and counts) equal");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END
            .iter()
            .find(|m| m.name == name)
            .expect("known metric")
    }

    fn tight(center: f64) -> Summary {
        Summary::of(&[
            center * 0.99,
            center,
            center * 1.01,
            center * 0.995,
            center * 1.005,
        ])
    }

    #[test]
    fn verdicts_follow_the_bound() {
        let wall = metric("wall_s"); // lower is better, 25 %
        assert_eq!(verdict(wall, &tight(1.0), &tight(1.1)), Verdict::Unchanged);
        assert_eq!(verdict(wall, &tight(1.0), &tight(0.9)), Verdict::Unchanged);
        assert_eq!(verdict(wall, &tight(1.0), &tight(1.3)), Verdict::Regressed);
        assert_eq!(verdict(wall, &tight(1.0), &tight(0.7)), Verdict::Improved);
        let rate = metric("app_ops_per_s"); // higher is better
        assert_eq!(
            verdict(rate, &tight(100.0), &tight(70.0)),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(rate, &tight(100.0), &tight(90.0)),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(rate, &tight(100.0), &tight(130.0)),
            Verdict::Improved
        );
    }

    #[test]
    fn a_wide_spread_is_unresolved_never_unchanged() {
        let wall = metric("wall_s");
        // One fast repetition that the rest of the run does not support.
        let noisy = Summary::of(&[1.0, 1.6, 1.65, 1.7, 1.8]);
        assert!(noisy.spread(wall.better) > wall.bound);
        assert!(tight(1.0).spread(wall.better) < wall.bound);
        // Same best, but one side's best stands alone.
        assert_eq!(verdict(wall, &noisy, &tight(1.01)), Verdict::Unresolved);
        assert_eq!(verdict(wall, &tight(1.01), &noisy), Verdict::Unresolved);
        // ... unless every new repetition beats every base repetition.
        assert_eq!(verdict(wall, &noisy, &tight(0.5)), Verdict::Improved);
        // ... or every base repetition beats every new one by more than the bound.
        assert_eq!(verdict(wall, &noisy, &tight(2.0)), Verdict::Regressed);
    }

    #[test]
    fn exact_metrics_tolerate_no_worsening() {
        let fail = metric("fail_frac");
        let zero = Summary::of(&[0.0]);
        assert_eq!(verdict(fail, &zero, &zero), Verdict::Unchanged);
        assert_eq!(
            verdict(fail, &zero, &Summary::of(&[0.01])),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(fail, &Summary::of(&[0.01]), &zero),
            Verdict::Improved
        );
    }

    fn result(wall: f64, digest: &str, resumes: u64) -> Json {
        let e2e = END_TO_END
            .iter()
            .map(|m| {
                let s = if m.name == "wall_s" {
                    tight(wall)
                } else {
                    Summary::of(&[1.0])
                };
                (m.name.to_string(), s.to_json())
            })
            .collect();
        let per_layer = vec![
            (
                "dv-sim.resumes".to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::U64(resumes)),
                    ("unit".into(), Json::str("count")),
                ]),
            ),
            (
                "dv-sim.handoff_ns".to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::F64(wall * 1e3)),
                    ("unit".into(), Json::str("ns")),
                ]),
            ),
        ];
        Json::Obj(vec![
            ("schema".into(), Json::str(SCHEMA)),
            (
                "workloads".into(),
                Json::Arr(vec![Json::Obj(vec![
                    ("name".into(), Json::str("mpi_irregular")),
                    ("sim_digest".into(), Json::str(digest)),
                    ("end_to_end".into(), Json::Obj(e2e)),
                    ("per_layer".into(), Json::Obj(per_layer)),
                ])]),
            ),
        ])
    }

    #[test]
    fn result_files_round_trip_and_compare() {
        let base = result(1.0, "00ff", 125_000);
        let reparsed = Json::parse(&base.render_pretty()).expect("result renders valid JSON");
        assert_eq!(
            reparsed,
            Json::parse(&base.render()).expect("compact form parses too")
        );

        let same = compare(&base, &reparsed).expect("comparable");
        assert!(same.iter().all(|r| !r.bad), "{same:?}");
        // 7 end-to-end rows + digest + one count (the ns probe is skipped).
        assert_eq!(same.len(), 9);

        let slower = compare(&base, &result(1.3, "00ff", 125_000)).expect("comparable");
        let wall = slower
            .iter()
            .find(|r| r.metric == "wall_s")
            .expect("wall row");
        assert_eq!((wall.verdict.as_str(), wall.bad), ("regressed", true));
        assert!((wall.ratio.expect("ratio") - 1.3).abs() < 1e-9);

        let changed = compare(&base, &result(1.0, "0100", 125_001)).expect("comparable");
        let differing: Vec<&str> = changed
            .iter()
            .filter(|r| r.verdict == "DIFFERS")
            .map(|r| r.metric.as_str())
            .collect();
        assert_eq!(differing, ["sim_digest", "dv-sim.resumes"]);
        assert!(render_rows(&changed).contains("DIFFERS"));

        assert!(compare(&base, &Json::Obj(vec![])).is_err());
    }
}
