//! The two naming rules every pass shares: which names are compiler
//! temporaries, and which are SSA webs of a source variable.
//!
//! * Lowering mints a temporary `ML_tmpK` for every hoisted
//!   communication-bearing subexpression. Temporaries are
//!   single-assignment and never workspace-visible.
//! * The SSA pass keeps a variable's first web under its source name
//!   `x` and names later webs `x__1`, `x__2`, … (`otter-analysis::ssa`
//!   spells the suffix; everything downstream parses it here).

/// Prefix of every compiler temporary.
pub const TEMP_PREFIX: &str = "ML_tmp";

/// Is `name` a compiler temporary (`ML_tmpK`)?
#[inline]
pub fn is_temp(name: &str) -> bool {
    name.starts_with(TEMP_PREFIX)
}

/// Split an SSA web name `x__N` into its source name and web number.
/// Strict: the base is non-empty and the suffix is all digits, so
/// `a__b` and `__1` are plain names. `None` for every name that is not
/// a renamed web — including web 0, which keeps the source name.
pub fn split_web(name: &str) -> Option<(&str, usize)> {
    let pos = name.rfind("__")?;
    let (base, suffix) = (&name[..pos], &name[pos + 2..]);
    if base.is_empty() || suffix.is_empty() || !suffix.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    Some((base, suffix.parse().ok()?))
}

/// The name of web `web` of source variable `base` (the inverse of
/// [`split_web`]; web 0 is the base name itself).
pub fn web_name(base: &str, web: usize) -> String {
    if web == 0 {
        base.to_string()
    } else {
        format!("{base}__{web}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn temps_are_the_lowering_prefix() {
        assert!(is_temp("ML_tmp3"));
        assert!(!is_temp("x"));
        assert!(!is_temp("x__1"));
    }

    #[test]
    fn split_web_is_strict() {
        assert_eq!(split_web("c__1"), Some(("c", 1)));
        assert_eq!(split_web("c__12"), Some(("c", 12)));
        assert_eq!(split_web("a___2"), Some(("a_", 2)));
        for plain in ["c", "ML_tmp3", "a__b", "__1", "x__", "x__1a"] {
            assert_eq!(split_web(plain), None, "{plain}");
        }
        for (base, web) in [("c", 0), ("c", 3)] {
            let name = web_name(base, web);
            assert_eq!(
                split_web(&name).map_or((name.as_str(), 0), |s| s),
                (base, web)
            );
        }
    }
}
