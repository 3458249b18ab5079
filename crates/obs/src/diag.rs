//! Stderr diagnostics: the [`diag!`](crate::diag!) macro.
//!
//! Every human-facing warning or error in the stack goes through one
//! macro instead of raw `eprintln!`, so every diagnostic carries the same
//! `[warn]` / `[error]` prefix. Diagnostics print to **stderr only** —
//! stdout belongs to scenario output and must stay byte-identical for the
//! goldens. No environment variable gates them.

/// Diagnostic severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Unrecoverable failures.
    Error,
    /// Suspicious but recoverable conditions.
    Warn,
}

impl Level {
    /// Lower-case tag printed in the message prefix.
    pub fn name(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
        }
    }
}

/// Prints a diagnostic to stderr.
///
/// ```
/// predict_obs::diag!(Warn, "ignoring invalid knob {}", "PREDICT_TRANSPORT");
/// ```
///
/// The first argument is a [`Level`] variant name; the rest is a
/// `format!` argument list. Output is `[level] message` on stderr.
#[macro_export]
macro_rules! diag {
    ($level:ident, $($arg:tt)*) => {{
        eprintln!(
            "[{}] {}",
            $crate::diag::Level::$level.name(),
            format_args!($($arg)*)
        );
    }};
}

#[cfg(test)]
mod tests {
    #[test]
    fn diag_macro_compiles_with_format_args() {
        // Smoke test: the macro must accept plain strings and format args.
        crate::diag!(Warn, "plain");
        crate::diag!(Error, "formatted {} {n}", 1, n = 2);
    }
}
