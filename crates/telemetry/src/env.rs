//! One shared parser for every `VOLTSENSE_*` / `TESTKIT_*` environment knob.
//!
//! Every bool-ish knob accepts the same spellings: `1`/`true`/`on`/`yes`
//! enable, `0`/`false`/`off`/`no` disable, matched case-insensitively.

use std::path::PathBuf;

/// The trimmed value of an environment variable, if set and non-empty.
pub fn value(name: &str) -> Option<String> {
    let v = std::env::var(name).ok()?;
    let trimmed = v.trim();
    if trimmed.is_empty() {
        None
    } else {
        Some(trimmed.to_string())
    }
}

/// Is this string one of the recognised "enabled" spellings?
pub fn is_truthy(v: &str) -> bool {
    matches!(
        v.trim().to_ascii_lowercase().as_str(),
        "1" | "true" | "on" | "yes"
    )
}

/// Is this string one of the recognised "disabled" spellings?
pub fn is_falsy(v: &str) -> bool {
    matches!(
        v.trim().to_ascii_lowercase().as_str(),
        "" | "0" | "false" | "off" | "no"
    )
}

/// Parse a typed knob (e.g. a sample count); `None` if unset or unparsable.
pub fn parse<T: std::str::FromStr>(name: &str) -> Option<T> {
    value(name)?.parse().ok()
}

/// Directory for generated artifacts (experiment reports, telemetry
/// exports).
///
/// `TESTKIT_RESULTS_DIR` wins if set; otherwise walk up from the running
/// crate's manifest (or the current directory) looking for an existing
/// `results/` or a workspace root (a `Cargo.toml` next to a `crates/`
/// directory); fall back to `./results`. The directory is created if
/// missing so callers can write into it directly.
pub fn results_dir() -> PathBuf {
    let dir = if let Some(dir) = value("TESTKIT_RESULTS_DIR") {
        PathBuf::from(dir)
    } else {
        let start = value("CARGO_MANIFEST_DIR")
            .map(PathBuf::from)
            .or_else(|| std::env::current_dir().ok())
            .unwrap_or_else(|| PathBuf::from("."));
        let mut cursor = start.clone();
        loop {
            if cursor.join("results").is_dir()
                || (cursor.join("Cargo.toml").is_file() && cursor.join("crates").is_dir())
            {
                break cursor.join("results");
            }
            if !cursor.pop() {
                break start.join("results");
            }
        }
    };
    let _ = std::fs::create_dir_all(&dir);
    dir
}
