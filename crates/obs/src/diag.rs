//! Level-gated stderr diagnostics: the [`diag!`](crate::diag!) macro.
//!
//! Every human-facing warning or error in the stack goes through one
//! macro instead of raw `eprintln!`, so verbosity is controlled in one
//! place: the `PREDICT_LOG` environment variable (`off`, `error`, `warn`
//! (default), `info`, `debug`). Messages at or below the configured level
//! print to **stderr only** — stdout belongs to scenario output and must
//! stay byte-identical for the goldens.
//!
//! Parsing follows the `bsp::knobs` convention — a pure function
//! ([`parse_level`]) testable without touching the environment, and a
//! cached process-wide reader ([`max_level`]). The knob lives here rather
//! than in `bsp::knobs` because `predict_obs` sits *below* `predict_bsp`
//! in the dependency graph and diagnostics must work during `bsp`'s own
//! initialization.

use std::sync::OnceLock;

/// Environment variable selecting the diagnostic level.
pub const LOG_VAR: &str = "PREDICT_LOG";

/// Diagnostic severity, ordered so that `level <= max_level()` means
/// "print it".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Suppress everything.
    Off,
    /// Unrecoverable failures.
    Error,
    /// Suspicious but recoverable conditions (the default).
    Warn,
    /// Progress notes.
    Info,
    /// Detailed internals.
    Debug,
}

impl Level {
    /// Lower-case tag printed in the message prefix.
    pub fn name(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }
}

/// Parses a `PREDICT_LOG` value. Unset or unrecognized values fall back to
/// [`Level::Warn`] — a bad knob must never make the stack noisier or
/// quieter than the default.
pub fn parse_level(value: Option<&str>) -> Level {
    match value.map(|v| v.trim().to_ascii_lowercase()).as_deref() {
        Some("off" | "none" | "silent") => Level::Off,
        Some("error" | "err") => Level::Error,
        Some("warn" | "warning") => Level::Warn,
        Some("info") => Level::Info,
        Some("debug" | "trace") => Level::Debug,
        _ => Level::Warn,
    }
}

/// The process-wide maximum level, read from `PREDICT_LOG` once and
/// cached.
pub fn max_level() -> Level {
    static LEVEL: OnceLock<Level> = OnceLock::new();
    *LEVEL.get_or_init(|| parse_level(std::env::var(LOG_VAR).ok().as_deref()))
}

/// True when a message at `level` should print.
pub fn enabled(level: Level) -> bool {
    level != Level::Off && level <= max_level()
}

/// Prints a level-gated diagnostic to stderr.
///
/// ```
/// predict_obs::diag!(Warn, "ignoring invalid knob {}", "PREDICT_TRANSPORT");
/// ```
///
/// The first argument is a [`Level`] variant name; the rest is a
/// `format!` argument list. Output is `[level] message` on stderr, and
/// nothing at all when the level is gated off.
#[macro_export]
macro_rules! diag {
    ($level:ident, $($arg:tt)*) => {{
        if $crate::diag::enabled($crate::diag::Level::$level) {
            eprintln!(
                "[{}] {}",
                $crate::diag::Level::$level.name(),
                format_args!($($arg)*)
            );
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_level_accepts_aliases_case_and_whitespace() {
        assert_eq!(parse_level(Some("off")), Level::Off);
        assert_eq!(parse_level(Some("none")), Level::Off);
        assert_eq!(parse_level(Some("silent")), Level::Off);
        assert_eq!(parse_level(Some("error")), Level::Error);
        assert_eq!(parse_level(Some("err")), Level::Error);
        assert_eq!(parse_level(Some("warn")), Level::Warn);
        assert_eq!(parse_level(Some("warning")), Level::Warn);
        assert_eq!(parse_level(Some("info")), Level::Info);
        assert_eq!(parse_level(Some("debug")), Level::Debug);
        assert_eq!(parse_level(Some("trace")), Level::Debug);
        assert_eq!(parse_level(Some(" INFO ")), Level::Info);
        assert_eq!(parse_level(Some("DeBuG")), Level::Debug);
    }

    #[test]
    fn parse_level_defaults_to_warn() {
        assert_eq!(parse_level(None), Level::Warn);
        assert_eq!(parse_level(Some("")), Level::Warn);
        assert_eq!(parse_level(Some("verbose")), Level::Warn);
        assert_eq!(parse_level(Some("3")), Level::Warn);
    }

    #[test]
    fn level_ordering_gates_correctly() {
        assert!(Level::Error <= Level::Warn);
        assert!(Level::Warn <= Level::Warn);
        assert!(Level::Info > Level::Warn);
        assert!(Level::Debug > Level::Info);
    }

    #[test]
    fn off_level_messages_never_print() {
        // `enabled(Off)` is false even at max verbosity: Off is a gate
        // setting, not a message severity.
        assert!(!enabled(Level::Off));
    }

    #[test]
    fn diag_macro_compiles_with_format_args() {
        // Smoke test: the macro must accept plain strings and format args.
        crate::diag!(Debug, "plain");
        crate::diag!(Debug, "formatted {} {n}", 1, n = 2);
    }
}
