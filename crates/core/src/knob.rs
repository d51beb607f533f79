//! `NETCON_*` environment knobs: one reader that refuses values it
//! cannot parse.
//!
//! A knob that silently fell back to its default on a typo would run a
//! different experiment than the one asked for (`NETCON_BENCH_SCALE=1%`
//! quietly running at full scale), so a set-but-unparsable value is an
//! error naming the knob and the value. The workspace README lists every
//! knob.

use std::fmt::Display;
use std::str::FromStr;

/// Parses `value` as knob `name`'s type; the error names both.
///
/// # Errors
///
/// Returns `invalid <name>=<value>: <reason>` when `value` does not parse.
pub fn parse<T>(name: &str, value: &str) -> Result<T, String>
where
    T: FromStr,
    T::Err: Display,
{
    value
        .parse()
        .map_err(|e| format!("invalid {name}={value:?}: {e}"))
}

/// Reads knob `name`: `None` when it is unset, its parsed value when set.
///
/// # Panics
///
/// Panics with [`parse`]'s message when the knob is set to a value that
/// does not parse (or is not Unicode).
#[must_use]
pub fn read<T>(name: &str) -> Option<T>
where
    T: FromStr,
    T::Err: Display,
{
    let value = std::env::var_os(name)?;
    let value = value.to_string_lossy();
    Some(parse(name, &value).unwrap_or_else(|e| panic!("{e}")))
}

#[cfg(test)]
mod tests {
    use super::parse;

    #[test]
    fn parses_well_formed_values() {
        assert_eq!(parse::<usize>("NETCON_BENCH_SCALE", "1"), Ok(1));
        assert_eq!(
            parse::<u64>("NETCON_ENGINE_MEM_BUDGET", "1000000"),
            Ok(1_000_000)
        );
    }

    #[test]
    fn rejects_malformed_values_naming_knob_and_value() {
        for bad in ["1%", "", " 5", "-3", "1e3"] {
            let e = parse::<usize>("NETCON_BENCH_SCALE", bad).unwrap_err();
            assert!(
                e.contains("NETCON_BENCH_SCALE") && e.contains(&format!("{bad:?}")),
                "{bad:?}: {e}"
            );
        }
        let e = parse::<u64>("NETCON_TEST_STEP_BUDGET", "lots").unwrap_err();
        assert_eq!(
            e,
            "invalid NETCON_TEST_STEP_BUDGET=\"lots\": invalid digit found in string"
        );
    }
}
