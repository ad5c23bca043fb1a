//! Hand-rolled source lint for the hot-path crates, plus four structural
//! guards.
//!
//! Three rules, enforced over `crates/{atomics,core,reclaim,unbounded}/src`
//! (the crates whose code runs inside enqueue/dequeue) and the umbrella's
//! `src` (the channel layer on top of them):
//!
//! 1. **`relaxed-needs-justification`** — every `Ordering::Relaxed` (or bare
//!    imported `Relaxed`) use must carry a `// relaxed:` comment on the same
//!    line or within the three preceding lines explaining why the weak
//!    ordering is sound at that site.
//! 2. **`unsafe-needs-safety-comment`** — every `unsafe {` block and
//!    `unsafe impl` must carry a `// SAFETY:` comment in the same window.
//!    (`unsafe fn` *declarations* are exempt: with
//!    `deny(unsafe_op_in_unsafe_fn)` their bodies need explicit inner
//!    `unsafe {}` blocks, and those are where the obligations live.)
//! 3. **`no-blocking-in-hot-path`** — `Mutex` and `static mut` are banned
//!    outright: a lock in a wait-free queue silently voids the progress
//!    guarantee the paper proves, and `static mut` is UB-prone shared
//!    mutability the atomics already replace.  Exactly two files are exempt
//!    from this rule (rules 1–2 still apply to them):
//!    * `src/wait.rs`, the one module whose job is to block — an endpoint
//!      only reaches its lock after it has already left the wait-free path
//!      to park (see the comment on `WakeSide` there for the benchmark
//!      evidence);
//!    * `crates/reclaim/src/hazard.rs`, whose orphan list is a `Mutex` taken
//!      only in a handle's `Drop` and by a `try_lock` in `scan`, which never
//!      waits.  ROADMAP item 5(c) lists it among what is not wait-free.
//!
//! The scan is a line-oriented token scan, not a parser: `use` statements
//! (including multi-line ones) and comment lines are skipped, trailing
//! comments are stripped before token matching, and everything at or after a
//! `#[cfg(test)]` marker is ignored (test modules sit at the end of files by
//! repo convention and may lock freely).  A justification is accepted on the
//! flagged line, in the `WINDOW` preceding lines, or anywhere in the
//! contiguous comment/attribute block immediately above; consecutive lines
//! carrying the same token (an `unsafe impl Send`/`Sync` pair, a multi-line
//! tuple of `Relaxed` loads) share the first line's justification.  That is
//! crude but dependency-free, fast, and — because it runs in CI over a tree
//! that must stay clean — false positives surface immediately as a red build
//! with a file:line to either justify or fix.
//!
//! Four structural guards keep one construct in the files that own it, so a
//! second hand-kept copy cannot grow back.  A guard matches raw lines,
//! comments included, up to a `#[cfg(test)]` that starts a line (`GUARDS`
//! holds each one's pattern, trees and owners):
//!
//! 4. **`one-fast-path`** — `.cas_value(` / `.or_value(` only in
//!    `crates/core/src/ring.rs` (Figure 3 lives once);
//! 5. **`one-ring-constructor`** — `F::Entry::new(` / `F::Ctr::new(` only
//!    there too;
//! 6. **`one-registry`** — a claim-flag `compare_exchange` only in
//!    `crates/atomics/src/registry.rs`, over every `crates/*/src` and `src`;
//! 7. **`no-per-thread-registration`** — `thread_local!` in the hot-path
//!    trees only in `crates/atomics/src/llsc.rs` and `src/wait.rs`.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// How many preceding lines a justification comment may sit above its use.
const WINDOW: usize = 3;

/// The files (labels relative to the repository root) rule 3 does not apply
/// to.  Keep it short: every entry is a lock the wait-free claim has to
/// argue around.
pub const BLOCKING_EXEMPT: [&str; 2] = ["src/wait.rs", "crates/reclaim/src/hazard.rs"];

/// One lint rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// File the finding is in (label passed to [`lint_source`]).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Stable rule identifier.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// True if `haystack` contains `needle` as a whole identifier token.
fn has_token(haystack: &str, needle: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut start = 0;
    while let Some(pos) = haystack[start..].find(needle) {
        let at = start + pos;
        let before_ok = at == 0 || !haystack[..at].chars().next_back().is_some_and(ident);
        let after = at + needle.len();
        let after_ok =
            after >= haystack.len() || !haystack[after..].chars().next().is_some_and(ident);
        if before_ok && after_ok {
            return true;
        }
        start = at + needle.len();
    }
    false
}

/// The code portion of a line: everything before a trailing `//` comment.
/// (Good enough for this tree — string literals containing `//` would fool
/// it, but the linted crates have none on token-bearing lines, and a false
/// *negative* there only means a marker comment is honored early.)
fn code_part(line: &str) -> &str {
    match line.find("//") {
        Some(pos) => &line[..pos],
        None => line,
    }
}

/// True if line `i` carries a `marker` justification: on the line itself, in
/// the `WINDOW` preceding lines, or anywhere in the contiguous
/// comment/attribute/blank block immediately above (long `// SAFETY:`
/// arguments legitimately run past any fixed window).
fn justified(lines: &[&str], i: usize, marker: &str) -> bool {
    if lines[i.saturating_sub(WINDOW)..=i]
        .iter()
        .any(|l| l.contains(marker))
    {
        return true;
    }
    let mut j = i;
    while j > 0 {
        j -= 1;
        let t = lines[j].trim_start();
        if t.starts_with("//") {
            if t.contains(marker) {
                return true;
            }
        } else if !(t.is_empty() || t.starts_with("#[")) {
            break;
        }
    }
    false
}

/// Lints one source file's text.  `file` labels the findings and is matched
/// against [`BLOCKING_EXEMPT`].
pub fn lint_source(file: &str, source: &str) -> Vec<Finding> {
    let may_block = BLOCKING_EXEMPT.contains(&file);
    let lines: Vec<&str> = source.lines().collect();
    let mut findings = Vec::new();
    let mut in_use = false;
    // Grouping state: whether the *previous* line carried the token and was
    // accepted, so `unsafe impl Send`/`Sync` pairs and multi-line tuples of
    // `Relaxed` loads share one justification.
    let mut prev_relaxed_ok = false;
    let mut prev_unsafe_ok = false;
    for (i, &raw) in lines.iter().enumerate() {
        let trimmed = raw.trim_start();
        // Test modules sit at the end of files by convention; everything at
        // or after the marker is out of scope for hot-path rules.
        if trimmed.starts_with("#[cfg(test)]") {
            break;
        }
        if trimmed.starts_with("//") {
            continue;
        }
        let code = code_part(raw);
        if trimmed.starts_with("use ") || trimmed.starts_with("pub use ") {
            in_use = true;
        }
        let is_use = in_use;
        if in_use && code.contains(';') {
            in_use = false;
        }

        let this_relaxed = !is_use && has_token(code, "Relaxed");
        if this_relaxed && !justified(&lines, i, "relaxed:") && !prev_relaxed_ok {
            findings.push(Finding {
                file: file.into(),
                line: i + 1,
                rule: "relaxed-needs-justification",
                message: "Ordering::Relaxed without a nearby `// relaxed:` \
                          justification"
                    .into(),
            });
            prev_relaxed_ok = false;
        } else {
            prev_relaxed_ok = this_relaxed;
        }

        let mut this_unsafe_ok = false;
        if has_token(code, "unsafe") {
            let after = code
                .split("unsafe")
                .nth(1)
                .map(str::trim_start)
                .unwrap_or("");
            let is_fn_decl = after.starts_with("fn") || after.starts_with("extern");
            if is_fn_decl {
                this_unsafe_ok = prev_unsafe_ok;
            } else if justified(&lines, i, "SAFETY:") || prev_unsafe_ok {
                this_unsafe_ok = true;
            } else {
                findings.push(Finding {
                    file: file.into(),
                    line: i + 1,
                    rule: "unsafe-needs-safety-comment",
                    message: "unsafe block/impl without a nearby `// SAFETY:` \
                              comment"
                        .into(),
                });
            }
        }
        prev_unsafe_ok = this_unsafe_ok;

        if !may_block && !is_use && has_token(code, "Mutex") {
            findings.push(Finding {
                file: file.into(),
                line: i + 1,
                rule: "no-blocking-in-hot-path",
                message: "Mutex is forbidden in hot-path crates (voids the \
                          wait-freedom guarantee)"
                    .into(),
            });
        }
        if !may_block && code.contains("static mut ") {
            findings.push(Finding {
                file: file.into(),
                line: i + 1,
                rule: "no-blocking-in-hot-path",
                message: "static mut is forbidden in hot-path crates".into(),
            });
        }
    }
    findings
}

/// The `src/` trees the lint covers: the hot-path crates and the umbrella's
/// channel layer.
pub const HOT_PATH_CRATES: [&str; 5] = [
    "crates/atomics/src",
    "crates/core/src",
    "crates/reclaim/src",
    "crates/unbounded/src",
    "src",
];

/// A structural guard: a line holding one of the `patterns` may appear in
/// the `trees` (a `*` component matches any one directory) only in the
/// `allowed` files.
struct Guard {
    rule: &'static str,
    trees: &'static [&'static str],
    allowed: &'static [&'static str],
    patterns: &'static [&'static str],
}

const CORE_TREES: &[&str] = &["crates/core/src", "crates/unbounded/src", "src"];

/// Rules 4–7 of the module docs.
const GUARDS: [Guard; 4] = [
    Guard {
        rule: "one-fast-path",
        trees: CORE_TREES,
        allowed: &["crates/core/src/ring.rs"],
        patterns: &[".cas_value(", ".or_value("],
    },
    Guard {
        rule: "one-ring-constructor",
        trees: CORE_TREES,
        allowed: &["crates/core/src/ring.rs"],
        patterns: &["F::Entry::new(", "F::Ctr::new("],
    },
    Guard {
        rule: "one-registry",
        trees: &["crates/*/src", "src"],
        allowed: &["crates/atomics/src/registry.rs"],
        // Split so that this file does not match its own guard.
        patterns: &[
            concat!("compare_exchange(", "false, true,"),
            concat!("compare_exchange(", "0, 1,"),
        ],
    },
    Guard {
        rule: "no-per-thread-registration",
        trees: &HOT_PATH_CRATES,
        allowed: &["crates/atomics/src/llsc.rs", "src/wait.rs"],
        patterns: &["thread_local!"],
    },
];

/// True if the file labelled `file` lies under `tree`.
fn under(file: &str, tree: &str) -> bool {
    let mut parts = file.split('/');
    (tree.split('/')).all(|dir| parts.next().is_some_and(|part| dir == "*" || dir == part))
}

/// Applies every guard whose trees hold `file` to one source file's text.
fn guard_source(file: &str, source: &str) -> Vec<Finding> {
    let guards: Vec<&Guard> = (GUARDS.iter())
        .filter(|g| g.trees.iter().any(|tree| under(file, tree)) && !g.allowed.contains(&file))
        .collect();
    let lines = source
        .lines()
        .take_while(|line| !line.starts_with("#[cfg(test)]"));
    let mut findings = Vec::new();
    for (i, line) in lines.enumerate() {
        for guard in guards
            .iter()
            .filter(|g| g.patterns.iter().any(|p| line.contains(p)))
        {
            findings.push(Finding {
                file: file.into(),
                line: i + 1,
                rule: guard.rule,
                message: format!("allowed only in {}", guard.allowed.join(" and ")),
            });
        }
    }
    findings
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.path());
    for entry in entries {
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints every `.rs` file under the hot-path crates of the repo at `root`
/// with rules 1–3, and every one under `src` and `crates/*/src` with the
/// guards whose trees hold it.  Returns an error string if a hot-path
/// directory is missing (wrong root) rather than silently passing an empty
/// scan.
pub fn lint_tree(root: &Path) -> Result<Vec<Finding>, String> {
    if let Some(rel) = HOT_PATH_CRATES.iter().find(|rel| !root.join(rel).is_dir()) {
        return Err(format!(
            "lint root {root:?} has no {rel}/ — not the repository root?"
        ));
    }
    let mut files = Vec::new();
    for rel in ["crates", "src"] {
        collect_rs_files(&root.join(rel), &mut files).map_err(|e| format!("walking {rel}: {e}"))?;
    }
    let mut findings = Vec::new();
    for file in files {
        let source = fs::read_to_string(&file).map_err(|e| format!("reading {file:?}: {e}"))?;
        let label = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .display()
            .to_string();
        if HOT_PATH_CRATES.iter().any(|rel| under(&label, rel)) {
            findings.extend(lint_source(&label, &source));
        }
        findings.extend(guard_source(&label, &source));
    }
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(src: &str) -> Vec<&'static str> {
        lint_source("fixture.rs", src)
            .into_iter()
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn clean_source_passes() {
        let src = r#"
// relaxed: counter is monotonic and only read for statistics.
let x = c.load(Ordering::Relaxed);
// SAFETY: pointer was produced by Box::into_raw above.
let y = unsafe { &*p };
"#;
        assert!(rules(src).is_empty());
    }

    #[test]
    fn unjustified_relaxed_is_flagged() {
        assert_eq!(
            rules("let x = c.load(Ordering::Relaxed);"),
            vec!["relaxed-needs-justification"]
        );
        // Bare imported token counts too.
        assert_eq!(
            rules("let x = c.load(Relaxed);"),
            vec!["relaxed-needs-justification"]
        );
        // Same-line trailing justification is accepted.
        assert!(rules("let x = c.load(Relaxed); // relaxed: stats only").is_empty());
    }

    #[test]
    fn relaxed_in_identifier_is_not_flagged() {
        assert!(rules("let RelaxedFoo = 1; let un_Relaxed_x = 2;").is_empty());
    }

    #[test]
    fn unsafe_without_safety_is_flagged() {
        assert_eq!(
            rules("let y = unsafe { &*p };"),
            vec!["unsafe-needs-safety-comment"]
        );
        assert_eq!(
            rules("unsafe impl Send for Foo {}"),
            vec!["unsafe-needs-safety-comment"]
        );
    }

    #[test]
    fn unsafe_fn_declaration_is_exempt() {
        assert!(rules("pub unsafe fn reopen(&self) {").is_empty());
        assert!(rules("unsafe extern \"C\" fn hook() {").is_empty());
    }

    #[test]
    fn safety_comment_must_be_adjacent() {
        let near = "// SAFETY: fine.\n\n\nunsafe { work() };";
        assert!(rules(near).is_empty());
        // A long comment block immediately above counts, even past the
        // fixed window...
        let block = "// SAFETY: a slot index is owned by exactly one thread\n\
                     // at a time; the rings hand it over with SeqCst ops\n\
                     // on either side, ordering the data accesses.\n\
                     // (More prose pushing the marker out of the window.)\n\
                     // (And more.)\n\
                     unsafe impl Send for Foo {}";
        assert!(rules(block).is_empty());
        // ...but an intervening code line breaks the association.
        let broken = "// SAFETY: talks about something else.\nlet x = 1;\n\n\nunsafe { work() };";
        assert_eq!(rules(broken), vec!["unsafe-needs-safety-comment"]);
    }

    #[test]
    fn consecutive_token_lines_share_one_justification() {
        let pair = "// SAFETY: raw pointers only cross with their owner.\n\
                    unsafe impl Send for Foo {}\n\
                    unsafe impl Sync for Foo {}";
        assert!(rules(pair).is_empty());
        let tuple = "// relaxed: serialized under the stripe lock.\n\
                     (\n\
                     a.load(Relaxed),\n\
                     b.load(Relaxed),\n\
                     )";
        assert!(rules(tuple).is_empty());
        // An unjustified first line does not launder the second.
        let bad = "unsafe impl Send for Foo {}\nunsafe impl Sync for Foo {}";
        assert_eq!(
            rules(bad),
            vec!["unsafe-needs-safety-comment", "unsafe-needs-safety-comment"]
        );
    }

    #[test]
    fn multi_line_use_statements_are_skipped() {
        let src =
            "use std::sync::atomic::{\n    AtomicUsize,\n    Ordering::{Relaxed, SeqCst},\n};";
        assert!(rules(src).is_empty());
    }

    #[test]
    fn mutex_and_static_mut_are_banned() {
        assert_eq!(
            rules("let m = Mutex::new(0);"),
            vec!["no-blocking-in-hot-path"]
        );
        assert_eq!(
            rules("static mut COUNTER: u64 = 0;"),
            vec!["no-blocking-in-hot-path"]
        );
    }

    #[test]
    fn only_the_listed_file_may_block_and_only_that() {
        let src = "let m = Mutex::new(0);\nlet x = c.load(Relaxed);\nlet y = unsafe { &*p };";
        // The exempt file skips rule 3 — and nothing else.
        let exempt: Vec<_> = lint_source("src/wait.rs", src)
            .into_iter()
            .map(|f| f.rule)
            .collect();
        assert_eq!(
            exempt,
            vec!["relaxed-needs-justification", "unsafe-needs-safety-comment"]
        );
        // Its neighbours, and a same-named file elsewhere, get all three.
        for file in ["src/channel.rs", "crates/core/src/wait.rs"] {
            let rules: Vec<_> = lint_source(file, src).into_iter().map(|f| f.rule).collect();
            assert!(rules.contains(&"no-blocking-in-hot-path"), "{file}");
        }
        assert_eq!(
            BLOCKING_EXEMPT,
            ["src/wait.rs", "crates/reclaim/src/hazard.rs"],
            "exactly two exempt files"
        );
    }

    #[test]
    fn use_lines_comments_and_test_modules_are_skipped() {
        assert!(rules("use std::sync::Mutex;").is_empty());
        assert!(rules("// a Mutex would be wrong here").is_empty());
        let test_mod = "#[cfg(test)]\nmod tests {\n    use super::*;\n    fn f() { let m = Mutex::new(0); let _ = unsafe { x() }; }\n}";
        assert!(rules(test_mod).is_empty());
    }

    /// Each guard flags its construct in a file of its trees, and not in
    /// the files that own it, outside its trees, or in a test module.
    #[test]
    fn each_guard_flags_its_construct_outside_its_owner() {
        let cases = [
            (
                "one-fast-path",
                "let _ = entry.cas_value(old, new);\nlet _ = entry.or_value(bit);",
                "crates/unbounded/src/segment.rs",
                "crates/atomics/src/cell.rs",
            ),
            (
                "one-ring-constructor",
                "let e = F::Entry::new(0);\nlet c = F::Ctr::new(0);",
                "crates/core/src/wcq/queue.rs",
                "crates/baselines/src/lcrq.rs",
            ),
            (
                "one-registry",
                "flag.compare_exchange(false, true, SeqCst, SeqCst)\n\
                 word.compare_exchange(0, 1, SeqCst, Relaxed)",
                "crates/baselines/src/ymc.rs",
                "tests/registry.rs",
            ),
            (
                "no-per-thread-registration",
                "thread_local! { static ID: usize = 0; }\nthread_local!(static N: u8 = 0);",
                "crates/reclaim/src/hazard.rs",
                "crates/harness/src/exec.rs",
            ),
        ];
        for (rule, src, in_tree, out_of_tree) in cases {
            let guard = GUARDS.iter().find(|g| g.rule == rule).expect(rule);
            let found: Vec<_> = guard_source(in_tree, src)
                .into_iter()
                .map(|f| (f.rule, f.line))
                .collect();
            assert_eq!(found, [(rule, 1), (rule, 2)], "{rule} in {in_tree}");
            for owner in guard.allowed {
                assert!(guard_source(owner, src).is_empty(), "{rule} in {owner}");
            }
            assert!(
                guard_source(out_of_tree, src).is_empty(),
                "{rule} in {out_of_tree}"
            );
            // A test module at the end of the file is skipped, and only one
            // that starts a line ends the scan.
            let tail = format!("#[cfg(test)]\nmod tests {{\n{src}\n}}");
            assert!(guard_source(in_tree, &tail).is_empty(), "{rule}");
            let nested = format!("    #[cfg(test)]\n{src}");
            assert_eq!(guard_source(in_tree, &nested).len(), 2, "{rule}");
        }
        // A near miss is no claim: the claim CAS goes from false to true.
        assert!(guard_source(
            "crates/core/src/ring.rs",
            "x.compare_exchange(true, false, SeqCst, SeqCst)"
        )
        .is_empty());
    }

    #[test]
    fn a_wildcard_tree_matches_any_one_directory() {
        assert!(under("crates/baselines/src/ymc.rs", "crates/*/src"));
        assert!(under("src/wait.rs", "src"));
        assert!(!under("crates/core/src/ring.rs", "src"));
        assert!(!under("crates/core/tests/ring.rs", "crates/*/src"));
        assert!(!under("crates", "crates/*/src"));
    }

    #[test]
    fn real_tree_is_clean() {
        // The repo-level guarantee the CI step enforces, kept here too so
        // `cargo test -p wcq-check` alone catches a regression.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let findings = lint_tree(&root).expect("workspace root resolves");
        assert!(
            findings.is_empty(),
            "hot-path lint found {} violation(s):\n{}",
            findings.len(),
            findings
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
