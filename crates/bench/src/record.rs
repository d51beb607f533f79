//! The perf record file `perf_smoke` writes: a minimal JSON value and
//! printer, carry-forward of on-request sections from an earlier record,
//! and the `--check` wall-clock regression gate. `crates/bench/README.md`
//! documents the schema.

use std::fmt::Write as _;

/// Wall-clock regression factor of the `--check` gate.
const TOLERANCE: f64 = 2.5;

/// Baselines below this many seconds are gated as if they took this
/// long, so micro-targets cannot flake the gate on scheduler noise.
const FLOOR_S: f64 = 0.1;

/// A JSON value with the record's number formats.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// A non-negative integer (step counts past `u64::MAX` included).
    Int(u128),
    /// A float printed with this many decimals.
    Fixed(f64, usize),
    /// A float printed in Rust's shortest `{:e}` form.
    Sci(f64),
    /// A string (written verbatim between quotes; the record's strings
    /// hold no quotes or backslashes).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, members in print order.
    Obj(Vec<(&'static str, Json)>),
    /// Pre-rendered JSON carried over from an earlier record.
    Raw(String),
}

/// Builds a [`Json::Obj`](crate::record::Json::Obj) from `"key": value`
/// members, each value converted with `Json::from`.
#[macro_export]
macro_rules! obj {
    ($($k:literal: $v:expr),* $(,)?) => {
        $crate::record::Json::Obj(vec![$(($k, $crate::record::Json::from($v))),*])
    };
}

impl Json {
    /// This object with `members` appended.
    ///
    /// # Panics
    ///
    /// If `self` is not an object.
    #[must_use]
    pub fn with(self, members: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        let Json::Obj(mut m) = self else {
            panic!("Json::with on a non-object")
        };
        m.extend(members);
        Json::Obj(m)
    }

    /// Renders `self` with its closing brace at `indent` spaces: objects
    /// and arrays one member per line, except scalar-only objects inside
    /// arrays, which print on one line (one table row per line).
    #[must_use]
    pub fn render(&self, indent: usize) -> String {
        let mut out = String::new();
        let _ = self.write(&mut out, indent, false);
        out
    }

    fn write(&self, out: &mut String, indent: usize, in_array: bool) -> std::fmt::Result {
        let pad = " ".repeat(indent + 2);
        let sep = |i| if i > 0 { ",\n" } else { "" };
        match self {
            Json::Null => out.write_str("null"),
            Json::Int(v) => write!(out, "{v}"),
            Json::Fixed(v, d) => write!(out, "{v:.d$}"),
            Json::Sci(v) => write!(out, "{v:e}"),
            Json::Str(s) => write!(out, "\"{s}\""),
            Json::Raw(s) => out.write_str(s),
            Json::Obj(m) if in_array && m.iter().all(|(_, v)| !v.is_container()) => {
                out.write_str("{ ")?;
                for (i, (k, v)) in m.iter().enumerate() {
                    write!(out, "{}\"{k}\": ", if i > 0 { ", " } else { "" })?;
                    v.write(out, 0, false)?;
                }
                out.write_str(" }")
            }
            Json::Obj(m) => {
                out.write_str("{\n")?;
                for (i, (k, v)) in m.iter().enumerate() {
                    write!(out, "{}{pad}\"{k}\": ", sep(i))?;
                    v.write(out, indent + 2, false)?;
                }
                write!(out, "\n{}}}", " ".repeat(indent))
            }
            Json::Arr(items) => {
                out.write_str("[\n")?;
                for (i, v) in items.iter().enumerate() {
                    write!(out, "{}{pad}", sep(i))?;
                    v.write(out, indent + 2, true)?;
                }
                write!(out, "\n{}]", " ".repeat(indent))
            }
        }
    }

    fn is_container(&self) -> bool {
        matches!(self, Json::Arr(_) | Json::Obj(_))
    }
}

macro_rules! int_from {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::Int(v as u128)
            }
        }
    )*};
}
int_from!(u32, u64, u128, usize);

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

/// Extracts the value of top-level section `key` (its `{ … }` object,
/// from the opening brace through the matching one) from an earlier
/// record's text, so cheap re-runs preserve expensive sections.
///
/// The needle is anchored to the section's own line (`\n  "key": {`):
/// a bench *target* of the same name appears earlier in the file as
/// `{ "name": "key", … }` inside the `benches` array.
#[must_use]
pub fn carry_forward(old: &str, key: &str) -> Option<String> {
    let needle = format!("\n  \"{key}\": {{");
    let brace = old.find(&needle)? + needle.len() - 1;
    let mut depth = 0usize;
    for (i, ch) in old[brace..].char_indices() {
        match ch {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(old[brace..=brace + i].to_owned());
                }
            }
            _ => {}
        }
    }
    None
}

/// Parses the `benches` array of a perf record (one
/// `{ "name": …, "wall_s": … }` object per line) plus its
/// `bench_scale_pct`.
fn parse_baseline(text: &str) -> (Option<String>, Vec<(String, f64)>) {
    let scale_pct = text
        .find("\"bench_scale_pct\"")
        .and_then(|i| text[i..].split('"').nth(3).map(str::to_owned));
    let mut rows = Vec::new();
    for line in text.lines() {
        let Some(ni) = line.find("\"name\": \"") else {
            continue;
        };
        let rest = &line[ni + 9..];
        let Some(name) = rest.split('"').next() else {
            continue;
        };
        let Some(wi) = line.find("\"wall_s\": ") else {
            continue;
        };
        let wall: f64 = line[wi + 10..]
            .trim_end_matches(|c: char| c == '}' || c == ',' || c.is_whitespace())
            .parse()
            .unwrap_or(f64::NAN);
        if wall.is_finite() {
            rows.push((name.to_owned(), wall));
        }
    }
    (scale_pct, rows)
}

/// The regression gate: every target present in both `rows` and the
/// `baseline` record text must stay within 2.5× its baseline wall,
/// floored at 0.1 s. Skipped, with a message, when the baseline ran at
/// another `bench_scale_pct`.
///
/// # Errors
///
/// Names every regressed target with both wall times, the ratio, and
/// the tolerance.
pub fn check_against_baseline(
    baseline: &str,
    current_scale: &str,
    rows: &[(String, f64)],
) -> Result<(), String> {
    let (base_scale, base_rows) = parse_baseline(baseline);
    let base_scale = base_scale.unwrap_or_default();
    if base_scale != current_scale {
        println!(
            "--check: baseline scale {base_scale}% != current {current_scale}%; \
             gate skipped (regenerate the baseline at the matching scale)"
        );
        return Ok(());
    }
    let mut failures = Vec::new();
    println!("\n--check (tolerance {TOLERANCE}x, floor {FLOOR_S}s):");
    for (name, wall) in rows {
        let Some((_, base)) = base_rows.iter().find(|(b, _)| b == name) else {
            println!("  {name:<24} {wall:>8.3}s (new target, no baseline)");
            continue;
        };
        let ratio = wall / base.max(FLOOR_S);
        let regressed = ratio > TOLERANCE;
        let verdict = if regressed { "REGRESSED" } else { "ok" };
        println!("  {name:<24} {wall:>8.3}s vs {base:>8.3}s ({ratio:>5.2}x) {verdict}");
        if regressed {
            failures.push(format!(
                "{name}: current {wall:.3}s vs baseline {base:.3}s \
                 ({ratio:.2}x, tolerance {TOLERANCE}x over max(baseline, {FLOOR_S}s))"
            ));
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{} target(s) regressed beyond {TOLERANCE}x:\n  {}",
            failures.len(),
            failures.join("\n  ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINE: &str = r#"{
  "pr": 10,
  "bench_scale_pct": "1",
  "benches": [
    { "name": "round_frontier", "wall_s": 1.000 },
    { "name": "fig4_partition", "wall_s": 0.020 }
  ],
  "round_frontier": {
    "note": "x",
    "rows": [
      { "n": 256, "wall_s": 0.01 }
    ]
  }
}
"#;

    fn gate(name: &str, wall: f64) -> Result<(), String> {
        check_against_baseline(BASELINE, "1", &[(name.to_owned(), wall)])
    }

    #[test]
    fn gate_fails_past_tolerance_and_passes_within() {
        let e = gate("round_frontier", 2.6).unwrap_err();
        assert!(e.contains("round_frontier") && e.contains("2.60x"), "{e}");
        assert!(gate("round_frontier", 2.4).is_ok());
    }

    #[test]
    fn gate_floors_sub_floor_baselines() {
        // 0.02 s baseline gates as 0.1 s: 0.24 s passes (not 12x), 0.26 s fails.
        assert!(gate("fig4_partition", 0.24).is_ok());
        assert!(gate("fig4_partition", 0.26).is_err());
    }

    #[test]
    fn gate_skips_across_scales_and_ignores_new_targets() {
        let rows = [("round_frontier".to_owned(), 100.0)];
        assert!(check_against_baseline(BASELINE, "100", &rows).is_ok());
        assert!(gate("brand_new", 100.0).is_ok());
    }

    #[test]
    fn baseline_parses_bench_rows_only() {
        let (scale, rows) = parse_baseline(BASELINE);
        assert_eq!(scale.as_deref(), Some("1"));
        assert_eq!(
            rows,
            [
                ("round_frontier".to_owned(), 1.0),
                ("fig4_partition".to_owned(), 0.02)
            ]
        );
    }

    #[test]
    fn carry_forward_takes_the_section_not_the_bench_row() {
        let s = carry_forward(BASELINE, "round_frontier").expect("present");
        assert!(
            s.starts_with("{\n    \"note\"") && s.ends_with("\n  }"),
            "{s}"
        );
        assert_eq!(carry_forward(BASELINE, "mega_frontier"), None);
    }

    #[test]
    fn render_round_trips_through_carry_forward() {
        let row = crate::obj! { "n": 256u64, "wall_s": Json::Fixed(0.01, 2) };
        let section = crate::obj! { "note": "x", "rows": Json::Arr(vec![row]) };
        let record = crate::obj! { "round_frontier": section.clone() }.render(0);
        assert_eq!(
            carry_forward(&record, "round_frontier").as_deref(),
            Some(section.render(2).as_str())
        );
        assert!(
            record.contains("{ \"n\": 256, \"wall_s\": 0.01 }"),
            "{record}"
        );
    }
}
