//! Tiny command-line helpers shared by the study binaries.
//!
//! The fig/study binaries take no positional arguments; the one knob they
//! share rides on a `--wire value` (or `--wire=value`) pair scanned straight
//! from `std::env::args`, keeping the binaries free of an argument-parsing
//! dependency.

use scd_distributed::WireFormat;

/// The value of `--<name> <value>` (or `--<name>=<value>`) if present.
fn flag_value(name: &str) -> Option<String> {
    let long = format!("--{name}");
    let prefixed = format!("--{name}=");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == long {
            return args.next();
        }
        if let Some(v) = arg.strip_prefix(&prefixed) {
            return Some(v.to_string());
        }
    }
    None
}

/// The `--wire {raw,fp16,topk:<k>,topk-ef:<k>}` selection, defaulting to
/// [`WireFormat::Raw`]. Exits with the parse error on a malformed value —
/// a study binary has no later chance to report it.
pub fn wire_flag() -> WireFormat {
    match flag_value("wire") {
        None => WireFormat::Raw,
        Some(v) => WireFormat::parse(&v).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_flag_defaults_to_raw() {
        // The test harness's argv has no --wire flag.
        assert_eq!(wire_flag(), WireFormat::Raw);
        assert_eq!(flag_value("wire"), None);
    }
}
