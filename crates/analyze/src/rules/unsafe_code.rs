//! `unsafe-code`: library crates are `#![forbid(unsafe_code)]` with one
//! audited exception — the SIMD intrinsics module in `tir-invidx`. This
//! rule makes that exception checkable: any `unsafe` token outside the
//! configured audited files is a **non-suppressible** diagnostic (an
//! inline allow cannot widen the audit surface), and even inside an
//! audited file every site needs a per-site
//! `// analyze:allow(unsafe-code): why this is sound` justification.

use crate::diag::Diagnostic;
use crate::source::SourceFile;

/// Rule name, as used by `analyze:allow(...)`.
pub const NAME: &str = "unsafe-code";

/// Runs the rule over one file. `audited_paths` are path suffixes of
/// the files allowed to contain justified `unsafe` (the SIMD intrinsics
/// module).
pub fn check(file: &SourceFile, audited_paths: &[String]) -> Vec<Diagnostic> {
    let audited = audited_paths
        .iter()
        .any(|p| file.path.ends_with(p.as_str()));
    let mut out = Vec::new();
    for tok in &file.tokens {
        if !tok.is_ident("unsafe") {
            continue;
        }
        let d = if audited {
            Diagnostic::new(
                NAME,
                &file.path,
                tok.line,
                tok.col,
                "unsafe in an audited file still needs a per-site justification",
            )
        } else {
            Diagnostic::new(
                NAME,
                &file.path,
                tok.line,
                tok.col,
                "unsafe outside the audited exception list; library crates \
                 are forbid(unsafe_code)",
            )
            .unsuppressible()
        };
        out.push(d);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn audited() -> Vec<String> {
        vec!["invidx/src/simd.rs".to_string()]
    }

    #[test]
    fn unsafe_outside_audit_is_unsuppressible() {
        let f = SourceFile::parse(
            "crates/core/src/tif.rs",
            "// analyze:allow(unsafe-code): nice try\nfn f() { unsafe { work() } }\n",
        );
        let d = check(&f, &audited());
        assert_eq!(d.len(), 1);
        assert!(!d[0].suppressible);
    }

    #[test]
    fn unsafe_in_audited_file_is_suppressible() {
        let f = SourceFile::parse(
            "crates/invidx/src/simd.rs",
            "fn f() { unsafe { work() } }\n",
        );
        let d = check(&f, &audited());
        assert_eq!(d.len(), 1);
        assert!(d[0].suppressible, "audited files suppress per-site");
    }

    #[test]
    fn test_code_is_exempt() {
        let f = SourceFile::parse(
            "crates/core/src/tif.rs",
            "#[cfg(test)]\nmod tests {\n    fn t() { unsafe { work() } }\n}\n",
        );
        assert!(check(&f, &audited()).is_empty());
    }
}
