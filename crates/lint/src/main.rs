//! `rsched-lint` — source-level atomics-hygiene lint, run as a deny step in
//! CI (`cargo run -p rsched-lint`). Text-based on purpose: no syn, no
//! regex crate, no network — it must work in the offline container and
//! stay trivially auditable.
//!
//! Rules:
//!
//! * `unsafe-comment` — every `unsafe` keyword in code must carry a
//!   `// SAFETY:` comment (or a `# Safety` doc section) immediately above
//!   it (attributes and further comment lines may intervene) or trailing on
//!   the same line.
//! * `seqcst-fence` — every `fence(…SeqCst…)` call must carry a
//!   justification comment: a trailing comment or a comment block
//!   immediately above. SeqCst fences are the load-bearing agreements of
//!   the epoch and backpressure protocols; an unexplained one is either
//!   wrong or about to be "optimized" by someone who can't see why it's
//!   right.
//! * `facade-atomics` — crates ported onto the `rsched_sync` façade
//!   (`crates/queues/src` — including the `reclaim` backends, whose
//!   version counters are exactly what the model checker must see —
//!   `crates/core/src/service`, `shims/crossbeam/src`, and
//!   `crates/obs/src`, whose probes sit on those same hot paths) must not
//!   name `std::sync::atomic` / `core::sync::atomic` directly, otherwise
//!   the model checker silently loses sight of those accesses.
//! * `obs-cache-padded` — in `crates/obs/src`, a boxed slice of atomics
//!   (`Box<[…Atomic…]>`) must be `CachePadded`: those slices are the
//!   per-worker counter cells, and an unpadded cell array puts every
//!   worker's hot increments on the same cache line — the false sharing
//!   the striped design exists to avoid.
//! * `hot-counter-padded` — in `crates/core/src/algorithms` and
//!   `crates/core/src/service`, a struct field whose type is a scalar
//!   atomic integer (`AtomicUsize`, `AtomicU64`, …) must be
//!   `CachePadded<…>`: such a field is a counter written per task, and
//!   beside the struct's read-mostly fields every write invalidates the
//!   line each task reads them from. Counters written together go in one
//!   padded group struct, which carries the escape hatch (below) in the
//!   comment block above its `struct` line, with the reason. Test modules
//!   (`#[cfg(test)] mod`, last in a file) are out of scope.
//!
//! Escape hatch: a `lint:allow(<rule>)` comment anywhere on the flagged
//! line suppresses that rule for the line; for `hot-counter-padded`, one in
//! the comment block above a `struct` line suppresses it for the struct.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Directories whose `.rs` files are scanned, relative to the root.
const SCAN_DIRS: &[&str] = &["crates", "shims", "src", "tests", "examples", "benches"];

/// File sets that must import atomics via `rsched_sync` only. The façade
/// crate itself (`shims/model`) is the one place allowed to touch std
/// atomics. `crates/queues/src` covers the whole crate including
/// `reclaim/` — the VBR version counters live there and model-checked
/// suites (`model_vbr.rs`) depend on every one of those accesses going
/// through the façade; tests below pin that the nested paths stay scoped.
const FACADE_PORTED: &[&str] =
    &["crates/queues/src", "crates/core/src/service", "shims/crossbeam/src", "crates/obs/src"];

/// File set where boxed atomic slices must be cache-padded (the metrics
/// registry's per-worker counter cells).
const OBS_PADDED_SCOPE: &str = "crates/obs/src";

/// File sets whose struct fields may not be bare scalar atomic integers.
const HOT_COUNTER_SCOPE: &[&str] = &["crates/core/src/algorithms", "crates/core/src/service"];

/// The scalar atomic integer types `hot-counter-padded` looks for.
const ATOMIC_INTS: &[&str] = &[
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicIsize",
];

const RULE_UNSAFE: &str = "unsafe-comment";
const RULE_FENCE: &str = "seqcst-fence";
const RULE_FACADE: &str = "facade-atomics";
const RULE_OBS_PADDED: &str = "obs-cache-padded";
const RULE_HOT_COUNTER: &str = "hot-counter-padded";

#[derive(Debug)]
struct Violation {
    file: String,
    line: usize,
    rule: &'static str,
    message: String,
}

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => {
                root = PathBuf::from(args.next().unwrap_or_else(|| {
                    eprintln!("--root needs a path argument");
                    std::process::exit(2);
                }));
            }
            "--help" | "-h" => {
                eprintln!("usage: rsched-lint [--root <workspace-root>]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::from(2);
            }
        }
    }

    let mut files = Vec::new();
    for dir in SCAN_DIRS {
        collect_rs_files(&root.join(dir), &mut files);
    }
    files.sort();

    let mut violations = Vec::new();
    let mut scanned = 0usize;
    for f in &files {
        let Ok(text) = fs::read_to_string(f) else { continue };
        scanned += 1;
        let rel = f.strip_prefix(&root).unwrap_or(f).to_string_lossy().replace('\\', "/");
        lint_file(&rel, &text, &mut violations);
    }

    if violations.is_empty() {
        println!("rsched-lint: {scanned} files clean");
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            println!("{}:{}: [{}] {}", v.file, v.line, v.rule, v.message);
        }
        println!("rsched-lint: {} violation(s) in {scanned} files", violations.len());
        ExitCode::FAILURE
    }
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    let mut entries: Vec<_> = entries.flatten().collect();
    entries.sort_by_key(|e| e.path());
    for e in entries {
        let p = e.path();
        let name = e.file_name();
        let name = name.to_string_lossy();
        if p.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&p, out);
        } else if name.ends_with(".rs") {
            out.push(p);
        }
    }
}

/// Split a source line into (code, comment) with string contents blanked
/// out of the code part, tracking `/* */` block comments across lines.
/// Single-line approximation: string state does not persist across lines.
fn split_code_comment(line: &str, in_block: &mut bool) -> (String, String) {
    let mut code = String::with_capacity(line.len());
    let mut comment = String::new();
    let mut chars = line.chars().peekable();
    let mut in_str = false;
    while let Some(c) = chars.next() {
        if *in_block {
            if c == '*' && chars.peek() == Some(&'/') {
                chars.next();
                *in_block = false;
            }
            continue;
        }
        if in_str {
            if c == '\\' {
                chars.next();
            } else if c == '"' {
                in_str = false;
            }
            code.push(' ');
            continue;
        }
        match c {
            '"' => {
                in_str = true;
                code.push(' ');
            }
            '/' if chars.peek() == Some(&'/') => {
                comment.push('/');
                comment.extend(chars);
                break;
            }
            '/' if chars.peek() == Some(&'*') => {
                chars.next();
                *in_block = true;
            }
            _ => code.push(c),
        }
    }
    (code, comment)
}

fn is_word_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// True if `needle` occurs in `hay` delimited by non-word characters.
fn has_word(hay: &str, needle: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = hay[start..].find(needle) {
        let at = start + pos;
        let before_ok = hay[..at].chars().next_back().map(|c| !is_word_char(c)).unwrap_or(true);
        let after_ok =
            hay[at + needle.len()..].chars().next().map(|c| !is_word_char(c)).unwrap_or(true);
        if before_ok && after_ok {
            return true;
        }
        start = at + needle.len();
    }
    false
}

/// Does the contiguous block of comment/attribute lines directly above
/// line `i` (0-based) satisfy `pred`? Attributes are skipped; blank lines
/// break adjacency.
fn comment_block_above(lines: &[&str], i: usize, pred: impl Fn(&str) -> bool) -> bool {
    let mut j = i;
    while j > 0 {
        j -= 1;
        let t = lines[j].trim_start();
        if t.starts_with("//") {
            if pred(t) {
                return true;
            }
        } else if t.starts_with("#[")
            || t.starts_with("#!")
            || t.ends_with(']') && t.starts_with(')')
        {
            // attribute (possibly the tail of a multi-line one): keep going
        } else {
            return false;
        }
    }
    false
}

fn allowed(line: &str, rule: &str) -> bool {
    line.contains(&format!("lint:allow({rule})"))
}

/// Whether `code` declares a struct field of a bare scalar atomic integer
/// type: `[pub[(…)]] name: [path::]AtomicXxx[,]`.
fn is_atomic_int_field(code: &str) -> bool {
    let Some((head, ty)) = code.trim().trim_end_matches(',').split_once(':') else {
        return false;
    };
    // The field name is the last word before the colon (after any `pub(…)`).
    let name = head.split_whitespace().last().unwrap_or("");
    !ty.starts_with(':')
        && !name.is_empty()
        && name.chars().all(is_word_char)
        && ty.trim().rsplit("::").next().is_some_and(|t| ATOMIC_INTS.contains(&t))
}

fn lint_file(rel: &str, text: &str, out: &mut Vec<Violation>) {
    let lines: Vec<&str> = text.lines().collect();
    let facade_scoped = FACADE_PORTED.iter().any(|p| rel.starts_with(p));
    let obs_padded_scoped = rel.starts_with(OBS_PADDED_SCOPE);
    let hot_counter_scoped = HOT_COUNTER_SCOPE.iter().any(|p| rel.starts_with(p));
    // `hot-counter-padded` state: inside a braced struct body, whether that
    // struct opted out, and whether the test module has begun.
    let (mut in_struct, mut struct_allowed, mut in_tests) = (false, false, false);

    let mut in_block = false;
    let mut split: Vec<(String, String)> = Vec::with_capacity(lines.len());
    for l in &lines {
        split.push(split_code_comment(l, &mut in_block));
    }

    for (i, (code, trailing)) in split.iter().enumerate() {
        let lineno = i + 1;
        let raw = lines[i];

        // Rule: unsafe-comment. `unsafe fn(` / `unsafe extern` with no
        // name is a function-pointer *type*, not an unsafe operation.
        let code_sans_fn_ptr_types = code.replace("unsafe fn(", "").replace("unsafe extern", "");
        if has_word(&code_sans_fn_ptr_types, "unsafe") && !allowed(raw, RULE_UNSAFE) {
            let safety = |s: &str| s.contains("SAFETY") || s.contains("# Safety");
            let ok = safety(trailing) || comment_block_above(&lines, i, safety);
            if !ok {
                out.push(Violation {
                    file: rel.to_string(),
                    line: lineno,
                    rule: RULE_UNSAFE,
                    message: "`unsafe` without a `// SAFETY:` comment (or `# Safety` doc section) above or trailing".into(),
                });
            }
        }

        // Rule: seqcst-fence
        if has_word(code, "fence") && code.contains("fence(") && !allowed(raw, RULE_FENCE) {
            let next_code = split.get(i + 1).map(|(c, _)| c.as_str()).unwrap_or("");
            let seqcst_here =
                code.contains("SeqCst") || (!code.contains(')') && next_code.contains("SeqCst"));
            if seqcst_here {
                let ok = !trailing.trim_start_matches('/').trim().is_empty()
                    || comment_block_above(&lines, i, |s| {
                        !s.trim_start_matches('/').trim().is_empty()
                    });
                if !ok {
                    out.push(Violation {
                        file: rel.to_string(),
                        line: lineno,
                        rule: RULE_FENCE,
                        message: "SeqCst fence without a justification comment".into(),
                    });
                }
            }
        }

        // Rule: facade-atomics
        if facade_scoped
            && (code.contains("std::sync::atomic") || code.contains("core::sync::atomic"))
            && !allowed(raw, RULE_FACADE)
        {
            out.push(Violation {
                file: rel.to_string(),
                line: lineno,
                rule: RULE_FACADE,
                message: "façade-ported file must import atomics via `rsched_sync::atomic`".into(),
            });
        }

        // Rule: obs-cache-padded
        if obs_padded_scoped
            && code.contains("Box<[")
            && code.contains("Atomic")
            && !code.contains("CachePadded")
            && !allowed(raw, RULE_OBS_PADDED)
        {
            out.push(Violation {
                file: rel.to_string(),
                line: lineno,
                rule: RULE_OBS_PADDED,
                message: "boxed atomic slice in the obs crate must be `CachePadded` (counter cells share cache lines otherwise)".into(),
            });
        }

        // Rule: hot-counter-padded
        let trimmed = code.trim();
        if trimmed == "#[cfg(test)]"
            && split.get(i + 1).is_some_and(|(next, _)| next.trim_start().starts_with("mod "))
        {
            in_tests = true;
        }
        if has_word(code, "struct") && trimmed.ends_with('{') {
            in_struct = true;
            struct_allowed = allowed(raw, RULE_HOT_COUNTER)
                || comment_block_above(&lines, i, |s| allowed(s, RULE_HOT_COUNTER));
        } else if in_struct && trimmed.starts_with('}') {
            in_struct = false;
        } else if hot_counter_scoped
            && in_struct
            && !struct_allowed
            && !in_tests
            && is_atomic_int_field(code)
            && !allowed(raw, RULE_HOT_COUNTER)
        {
            out.push(Violation {
                file: rel.to_string(),
                line: lineno,
                rule: RULE_HOT_COUNTER,
                message: "scalar atomic counter field must be `CachePadded` (or in a padded group struct) so its writes stay off the struct's read-mostly line".into(),
            });
        }
    }
}

// Keep the Violation Display-ish formatting in one place for tests.
#[allow(dead_code)]
fn render(v: &Violation) -> String {
    let mut s = String::new();
    let _ = write!(s, "{}:{}: [{}] {}", v.file, v.line, v.rule, v.message);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(rel: &str, src: &str) -> Vec<Violation> {
        let mut out = Vec::new();
        lint_file(rel, src, &mut out);
        out
    }

    #[test]
    fn unsafe_without_comment_flagged() {
        let v = run("crates/x/src/a.rs", "fn f() {\n    let p = unsafe { *q };\n}\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, RULE_UNSAFE);
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn unsafe_with_safety_above_ok() {
        let src = "fn f() {\n    // SAFETY: q is valid for reads.\n    let p = unsafe { *q };\n}\n";
        assert!(run("a.rs", src).is_empty());
    }

    #[test]
    fn unsafe_with_trailing_safety_ok() {
        let src = "unsafe impl Send for X {} // SAFETY: X owns its pointer.\n";
        assert!(run("a.rs", src).is_empty());
    }

    #[test]
    fn unsafe_fn_with_safety_doc_section_ok() {
        let src = "/// Does things.\n///\n/// # Safety\n/// Caller must hold the lock.\n#[inline]\npub unsafe fn g() {}\n";
        assert!(run("a.rs", src).is_empty());
    }

    #[test]
    fn unsafe_in_comment_or_string_ignored() {
        let src = "// this mentions unsafe code\nfn f() { let s = \"unsafe\"; }\n";
        assert!(run("a.rs", src).is_empty());
    }

    #[test]
    fn unsafe_fn_pointer_type_ignored() {
        let src = "struct D {\n    ptr: usize,\n    drop_fn: unsafe fn(usize),\n}\n";
        assert!(run("a.rs", src).is_empty());
    }

    #[test]
    fn seqcst_fence_without_comment_flagged() {
        let src = "fn f() {\n    fence(Ordering::SeqCst);\n}\n";
        let v = run("a.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, RULE_FENCE);
    }

    #[test]
    fn seqcst_fence_with_comment_ok() {
        let src = "fn f() {\n    // Pairs with the fence in try_advance (SB pattern).\n    fence(Ordering::SeqCst);\n}\n";
        assert!(run("a.rs", src).is_empty());
    }

    #[test]
    fn seqcst_fence_multiline_flagged() {
        let src = "fn f() {\n    atomic::fence(\n        Ordering::SeqCst,\n    );\n}\n";
        let v = run("a.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, RULE_FENCE);
    }

    #[test]
    fn non_seqcst_fence_ignored() {
        assert!(run("a.rs", "fn f() { fence(Ordering::Acquire); }\n").is_empty());
    }

    #[test]
    fn helper_named_like_fence_ignored() {
        assert!(run("a.rs", "fn f() { capacity_fence(); }\n").is_empty());
    }

    #[test]
    fn facade_rule_scoped_to_ported_sets() {
        let src = "use std::sync::atomic::AtomicUsize;\n";
        assert_eq!(run("crates/queues/src/lock.rs", src).len(), 1);
        assert_eq!(run("crates/core/src/service/mod.rs", src).len(), 1);
        assert_eq!(run("shims/crossbeam/src/epoch.rs", src).len(), 1);
        assert!(run("crates/bench/src/lib.rs", src).is_empty());
        assert!(run("shims/model/src/atomics.rs", src).is_empty());
    }

    #[test]
    fn facade_rule_covers_reclamation_module() {
        // The reclamation backends must stay façade-ported: a bypassed
        // atomic here is a version counter the model checker cannot see.
        let src = "use core::sync::atomic::AtomicU64;\n";
        for file in [
            "crates/queues/src/reclaim/mod.rs",
            "crates/queues/src/reclaim/ebr.rs",
            "crates/queues/src/reclaim/vbr.rs",
        ] {
            let v = run(file, src);
            assert_eq!(v.len(), 1, "{file} must be façade-scoped");
            assert_eq!(v[0].rule, RULE_FACADE);
        }
    }

    #[test]
    fn unsafe_in_reclamation_module_needs_safety_comment() {
        let src = "fn f() {\n    let x = unsafe { ptr.read() };\n}\n";
        let v = run("crates/queues/src/reclaim/vbr.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, RULE_UNSAFE);
    }

    #[test]
    fn facade_mention_in_comment_ok() {
        let src = "// swap back to std::sync::atomic once vendored\nuse rsched_sync::atomic::AtomicUsize;\n";
        assert!(run("crates/queues/src/lock.rs", src).is_empty());
    }

    #[test]
    fn facade_rule_covers_obs_crate() {
        // Probe increments sit on the queue/engine hot paths; an atomic
        // bypassing the façade there is invisible to the model checker.
        let src = "use std::sync::atomic::AtomicU64;\n";
        let v = run("crates/obs/src/metrics.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, RULE_FACADE);
    }

    #[test]
    fn unpadded_atomic_cell_slice_flagged() {
        let src = "struct Cells {\n    cells: Box<[AtomicU64]>,\n}\n";
        let v = run("crates/obs/src/metrics.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, RULE_OBS_PADDED);
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn cache_padded_cell_slice_ok() {
        let src = "struct Cells {\n    cells: Box<[CachePadded<AtomicU64>]>,\n}\n";
        assert!(run("crates/obs/src/metrics.rs", src).is_empty());
    }

    #[test]
    fn unpadded_cell_slice_outside_obs_ignored() {
        let src = "struct Cells {\n    cells: Box<[AtomicU64]>,\n}\n";
        assert!(run("crates/queues/src/lock.rs", src).is_empty());
    }

    #[test]
    fn obs_cache_padded_allow_escape_hatch() {
        // The log-histogram bucket array opts out deliberately: 720
        // buckets at one cache line each would cost ~90 KiB per histogram.
        let src = "struct H {\n    buckets: Box<[AtomicU64]>, // lint:allow(obs-cache-padded) bucket array\n}\n";
        assert!(run("crates/obs/src/hist.rs", src).is_empty());
    }

    #[test]
    fn unpadded_hot_counter_flagged() {
        let src = "pub struct Mis<'a> {\n    labels: &'a [u32],\n    state: Vec<AtomicU8>,\n    remaining: AtomicUsize,\n    pub(crate) done: std::sync::atomic::AtomicU64,\n}\n";
        let v = run("crates/core/src/algorithms/mis.rs", src);
        assert_eq!(
            v.iter().map(|v| (v.rule, v.line)).collect::<Vec<_>>(),
            [(RULE_HOT_COUNTER, 4), (RULE_HOT_COUNTER, 5)]
        );
        let v =
            run("crates/core/src/service/ingest.rs", "struct L {\n    accepted: AtomicU64,\n}\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, RULE_HOT_COUNTER);
    }

    #[test]
    fn padded_hot_counter_ok() {
        // Padded scalars, atomic slices and arrays, flags, and atomics that
        // are not struct fields all pass.
        let src = "struct Mis {\n    remaining: CachePadded<AtomicUsize>,\n    state: Vec<AtomicU8>,\n    v: [AtomicU32; 3],\n    alive: AtomicBool,\n}\nfn f(c: &AtomicUsize) {\n    let x: AtomicU64 = AtomicU64::new(0);\n}\n";
        assert!(run("crates/core/src/algorithms/mis.rs", src).is_empty());
    }

    #[test]
    fn hot_counter_escape_hatch() {
        // On the field's line, or above a group struct kept in one
        // `CachePadded`.
        let src = "struct Core {\n    open: AtomicUsize, // lint:allow(hot-counter-padded) written at drop\n}\n/// The group.\n// lint:allow(hot-counter-padded) held only as `CachePadded<Counters>`\n#[derive(Debug)]\nstruct Counters {\n    remaining: AtomicUsize,\n    created: AtomicU64,\n}\nstruct After {\n    hot: AtomicU64,\n}\n";
        let v = run("crates/core/src/algorithms/incremental/delaunay.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].rule, v[0].line), (RULE_HOT_COUNTER, 12));
    }

    #[test]
    fn hot_counter_rule_out_of_scope() {
        let src = "struct Chain {\n    remaining: AtomicUsize,\n}\n";
        assert!(run("crates/core/src/framework/testing.rs", src).is_empty());
        assert!(run("crates/queues/src/concurrent/multiqueue.rs", src).is_empty());
        // A test module, last in the file, holds probes, not hot counters.
        let src = "fn f() {}\n\n#[cfg(test)]\nmod tests {\n    struct Probe {\n        hits: AtomicU32,\n    }\n}\n";
        assert!(run("crates/core/src/service/mod.rs", src).is_empty());
    }

    #[test]
    fn allow_escape_hatch() {
        let src = "fn f() { let p = unsafe { *q }; } // lint:allow(unsafe-comment)\n";
        assert!(run("a.rs", src).is_empty());
    }

    #[test]
    fn block_comments_stripped() {
        let src = "/* unsafe in a block comment\n   fence(SeqCst) too */\nfn f() {}\n";
        assert!(run("a.rs", src).is_empty());
    }
}
