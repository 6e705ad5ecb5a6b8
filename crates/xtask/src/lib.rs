//! Determinism lint pass for the HDPAT workspace
//! (`cargo run -p xtask -- lint`).
//!
//! Eight rules, documented in DESIGN.md §13 ("Static analysis"). Codes d5
//! and d8 are retired (their rules policed observation-handle wiring that
//! no longer exists) and are not reused:
//!
//! * `map-iter` (d1) — no iteration over `HashMap`/`HashSet` in library code.
//!   Hash iteration order depends on `RandomState`, so any model behaviour or
//!   output derived from it varies run to run.
//! * `wallclock` (d2) — no wall-clock reads, ambient entropy
//!   (`Instant::now`, `SystemTime`, `thread_rng`, `rand::random`,
//!   `from_entropy`), or ambient concurrency (`thread::spawn`,
//!   `thread::scope`, `available_parallelism`) in model code. The two
//!   sanctioned boundaries are `SimRng` (`crates/sim/src/rng.rs`) for
//!   randomness and the sweep worker pool (`crates/sim/src/pool.rs`) for
//!   threads; see DESIGN.md §9 for why the pool cannot leak scheduling
//!   order into results.
//! * `float-cycle` (d3) — no floating-point expression cast into `Cycle`.
//!   Float rounding makes cycle accounting platform- and optimisation-level
//!   sensitive; cycle math must stay in integers.
//! * `unwrap` (d4) — no `.unwrap()` / `.expect(...)` in non-test library code
//!   of the five model crates (sim, noc, xlat, mem, gpu). Panics there abort
//!   mid-simulation with no indication of which seed/config was running.
//! * `default-hash` (d6) — no `std::collections::HashMap`/`HashSet` at all in
//!   simulator-crate library code. Even without iteration (which d1 catches),
//!   the default `RandomState` hasher seeds from process entropy, so capacity
//!   growth, probe order, and any future refactor that starts iterating are
//!   all nondeterminism hazards. The sanctioned replacement is the seeded
//!   `wsg_sim::HashIndex` (`crates/sim/src/index.rs`, the one exempt file) or
//!   a BTree collection; see DESIGN.md §11.
//! * `shared-mut` (d7) — no shared interior mutability (`Rc<RefCell<..>>`,
//!   `Cell<..>`, `static mut`, `thread_local!`) in simulator-crate library
//!   code. Every such site is a handle that lets one engine structure mutate
//!   state another one owns, which hides ownership from the reader and from
//!   the borrow checker; engine structures hold plain indices or owned state
//!   instead, and a simulation owns its one observer by value.
//! * `stale-allow` (d9) — every `lint:allow` must still suppress at least
//!   one hit of its rule and carry a `: justification` suffix; a stale or
//!   bare allow is itself an error, so the allowlist can never rot. d9
//!   diagnostics cannot themselves be allowed.
//! * `det-string` (d10) — code inside `Metrics::to_deterministic_string`
//!   must not read host-side fields (`host_wall_nanos`, `sim_events`, or
//!   anything wall/host-named): the deterministic contract string feeds
//!   run-parity gates, so a wall-clock value there would break byte-identical
//!   reruns by construction.
//!
//! Any site can opt out with `// lint:allow(<rule>): <justification>` on the
//! same line or in the comment block immediately above, or for a whole scope
//! with `// lint:allow-module(<rule>): <justification>` (covering to the end
//! of the enclosing braces; the whole file at top level). Rules are named by
//! slug (`map-iter`) or code (`d1`). The linter strips comments and string
//! literals, tracks brace/item scope (see [`scope`]), and skips
//! `#[cfg(test)]` regions, but it is a scanner, not a parser — it trades
//! completeness for having zero dependencies.

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

pub mod scope;

use scope::PreSource;

/// The eight determinism lint rules.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// d1: iteration over a hash-ordered collection.
    MapIter,
    /// d2: wall-clock or ambient-entropy source outside SimRng.
    Wallclock,
    /// d3: floating-point expression cast into `Cycle`.
    FloatCycle,
    /// d4: `.unwrap()` / `.expect(...)` in model-crate library code.
    Unwrap,
    /// d6: an entropy-seeded `HashMap`/`HashSet` in simulator-crate code.
    DefaultHash,
    /// d7: shared interior mutability.
    SharedMut,
    /// d9: a `lint:allow` that no longer fires, or lacks a justification.
    StaleAllow,
    /// d10: a host-side field read inside `to_deterministic_string`.
    DetString,
}

impl Rule {
    /// Every rule, in code order.
    pub const ALL: [Rule; 8] = [
        Rule::MapIter,
        Rule::Wallclock,
        Rule::FloatCycle,
        Rule::Unwrap,
        Rule::DefaultHash,
        Rule::SharedMut,
        Rule::StaleAllow,
        Rule::DetString,
    ];

    /// Human-readable slug used in diagnostics and `lint:allow(...)`.
    pub fn name(self) -> &'static str {
        match self {
            Rule::MapIter => "map-iter",
            Rule::Wallclock => "wallclock",
            Rule::FloatCycle => "float-cycle",
            Rule::Unwrap => "unwrap",
            Rule::DefaultHash => "default-hash",
            Rule::SharedMut => "shared-mut",
            Rule::StaleAllow => "stale-allow",
            Rule::DetString => "det-string",
        }
    }

    /// Short code (d1..d10; d5 and d8 retired), also accepted inside
    /// `lint:allow(...)`.
    pub fn code(self) -> &'static str {
        match self {
            Rule::MapIter => "d1",
            Rule::Wallclock => "d2",
            Rule::FloatCycle => "d3",
            Rule::Unwrap => "d4",
            Rule::DefaultHash => "d6",
            Rule::SharedMut => "d7",
            Rule::StaleAllow => "d9",
            Rule::DetString => "d10",
        }
    }

    /// Parses either the slug or the code; unknown tokens yield `None`.
    pub fn parse(token: &str) -> Option<Rule> {
        Rule::ALL
            .into_iter()
            .find(|r| r.name() == token || r.code() == token)
    }
}

/// One lint finding, formatted as `path:line: [rule] message (in item)`.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    pub path: String,
    pub line: usize,
    pub rule: Rule,
    pub message: String,
    /// `::`-joined enclosing item path (`Simulation::run`), empty at
    /// top level or when unknown.
    pub item: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path,
            self.line,
            self.rule.name(),
            self.message
        )?;
        if !self.item.is_empty() {
            write!(f, " (in {})", self.item)?;
        }
        Ok(())
    }
}

/// Which rules apply to a given file; decided by [`classify`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RuleSet {
    pub map_iter: bool,
    pub wallclock: bool,
    pub float_cycle: bool,
    pub unwrap: bool,
    pub default_hash: bool,
    pub shared_mut: bool,
    pub stale_allow: bool,
    pub det_string: bool,
}

impl RuleSet {
    pub fn all() -> Self {
        RuleSet {
            map_iter: true,
            wallclock: true,
            float_cycle: true,
            unwrap: true,
            default_hash: true,
            shared_mut: true,
            stale_allow: true,
            det_string: true,
        }
    }

    pub fn none() -> Self {
        RuleSet::default()
    }

    pub fn is_empty(&self) -> bool {
        *self == RuleSet::none()
    }

    pub fn contains(&self, rule: Rule) -> bool {
        match rule {
            Rule::MapIter => self.map_iter,
            Rule::Wallclock => self.wallclock,
            Rule::FloatCycle => self.float_cycle,
            Rule::Unwrap => self.unwrap,
            Rule::DefaultHash => self.default_hash,
            Rule::SharedMut => self.shared_mut,
            Rule::StaleAllow => self.stale_allow,
            Rule::DetString => self.det_string,
        }
    }
}

/// Result of linting a tree: how many files were actually scanned (after
/// classification) and every diagnostic found.
#[derive(Debug, Default)]
pub struct Report {
    pub files_scanned: usize,
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Machine-readable form consumed by ci.sh (`xtask lint --json`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str(&format!("  \"violations\": {},\n", self.diagnostics.len()));
        out.push_str("  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"path\": {}, \"line\": {}, \"rule\": {}, \"code\": {}, \
                 \"item\": {}, \"message\": {}}}",
                json_string(&d.path),
                d.line,
                json_string(d.rule.name()),
                json_string(d.rule.code()),
                json_string(&d.item),
                json_string(&d.message),
            ));
        }
        if !self.diagnostics.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

/// Minimal JSON string escaping (the report contains no exotic text).
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// ---------------------------------------------------------------------------
// Rule checks.
// ---------------------------------------------------------------------------

use scope::{ident_ending_at, ident_occurrences, is_ident_byte};

/// Collects identifiers declared with a `HashMap`/`HashSet` type or
/// initialised from one (`x: HashMap<..>`, `let x = HashMap::new()`).
fn collect_map_idents(code: &str, idents: &mut BTreeSet<String>) {
    let bytes = code.as_bytes();
    for ty in ["HashMap", "HashSet"] {
        for occ in ident_occurrences(code, ty) {
            // Walk backwards over whitespace, `&`, and `mut` to the sigil
            // that binds the type to a name.
            let mut i = occ;
            loop {
                while i > 0 && bytes[i - 1].is_ascii_whitespace() {
                    i -= 1;
                }
                if i > 0 && bytes[i - 1] == b'&' {
                    i -= 1;
                    continue;
                }
                if i >= 3 && &code[i - 3..i] == "mut" && (i == 3 || !is_ident_byte(bytes[i - 4])) {
                    i -= 3;
                    continue;
                }
                break;
            }
            if i == 0 {
                continue;
            }
            let sigil = bytes[i - 1];
            if sigil == b':' {
                // `name: HashMap<..>` — reject the `::` path case.
                if i >= 2 && bytes[i - 2] == b':' {
                    continue;
                }
                let mut j = i - 1;
                while j > 0 && bytes[j - 1].is_ascii_whitespace() {
                    j -= 1;
                }
                if let Some(name) = ident_ending_at(code, j) {
                    idents.insert(name.to_string());
                }
            } else if sigil == b'=' {
                // `name = HashMap::new()` — reject `==`, `=>`, `+=` etc.
                if i >= 2
                    && matches!(
                        bytes[i - 2],
                        b'=' | b'<' | b'>' | b'+' | b'-' | b'*' | b'/' | b'!' | b'&' | b'|' | b'^'
                    )
                {
                    continue;
                }
                let mut j = i - 1;
                while j > 0 && bytes[j - 1].is_ascii_whitespace() {
                    j -= 1;
                }
                if let Some(name) = ident_ending_at(code, j) {
                    if !matches!(name, "if" | "in" | "while" | "match" | "return" | "else") {
                        idents.insert(name.to_string());
                    }
                }
            }
        }
    }
}

const ITER_SUFFIXES: [&str; 10] = [
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".into_iter()",
    ".into_keys()",
    ".into_values()",
    ".drain(",
    ".retain(",
];

fn check_map_iter(
    path: &str,
    lineno: usize,
    code: &str,
    idents: &BTreeSet<String>,
    diags: &mut Vec<Diagnostic>,
) {
    let bytes = code.as_bytes();
    for ident in idents {
        for occ in ident_occurrences(code, ident) {
            let after = &code[occ + ident.len()..];
            let flagged_suffix = ITER_SUFFIXES.iter().find(|s| after.starts_with(*s));
            let mut flagged = flagged_suffix.is_some();
            if !flagged {
                // `for x in ident` / `in &ident` / `in &mut ident`.
                let mut i = occ;
                loop {
                    while i > 0 && bytes[i - 1].is_ascii_whitespace() {
                        i -= 1;
                    }
                    if i > 0 && bytes[i - 1] == b'&' {
                        i -= 1;
                        continue;
                    }
                    if i >= 3
                        && &code[i - 3..i] == "mut"
                        && (i == 3 || !is_ident_byte(bytes[i - 4]))
                    {
                        i -= 3;
                        continue;
                    }
                    break;
                }
                if i >= 2 && &code[i - 2..i] == "in" && (i == 2 || !is_ident_byte(bytes[i - 3])) {
                    // Only treat it as a loop when nothing chains a
                    // deterministic accessor after the ident.
                    flagged = after.is_empty() || after.starts_with(' ') || after.starts_with('{');
                }
            }
            if flagged {
                diags.push(diag(
                    path,
                    lineno,
                    Rule::MapIter,
                    format!(
                        "iteration over hash-ordered collection `{ident}`; use BTreeMap/BTreeSet, \
                         sort the keys first, or annotate lint:allow(map-iter)"
                    ),
                ));
                break;
            }
        }
    }
}

const WALLCLOCK_PATTERNS: [(&str, &str); 8] = [
    ("Instant::now", "wall-clock read"),
    ("SystemTime", "wall-clock read"),
    ("thread_rng", "ambient entropy"),
    ("rand::random", "ambient entropy"),
    ("from_entropy", "ambient entropy"),
    ("thread::spawn", "ambient concurrency"),
    ("thread::scope", "ambient concurrency"),
    ("available_parallelism", "ambient concurrency"),
];

fn check_wallclock(path: &str, lineno: usize, code: &str, diags: &mut Vec<Diagnostic>) {
    for (pat, what) in WALLCLOCK_PATTERNS {
        if code.contains(pat) {
            diags.push(diag(
                path,
                lineno,
                Rule::Wallclock,
                format!(
                    "{what} `{pat}` in model code; route randomness through the seeded \
                     SimRng, threads through wsg_sim::pool, or annotate \
                     lint:allow(wallclock)"
                ),
            ));
        }
    }
}

fn has_float_literal(code: &str) -> bool {
    let bytes = code.as_bytes();
    for i in 1..bytes.len().saturating_sub(1) {
        if bytes[i] == b'.' && bytes[i - 1].is_ascii_digit() && bytes[i + 1].is_ascii_digit() {
            return true;
        }
    }
    false
}

fn check_float_cycle(path: &str, lineno: usize, code: &str, diags: &mut Vec<Diagnostic>) {
    if ident_occurrences(code, "Cycle")
        .iter()
        .any(|&occ| occ >= 3 && code[..occ].trim_end().ends_with("as"))
    {
        let floaty = code.contains("f64")
            || code.contains("f32")
            || code.contains(".ceil()")
            || code.contains(".floor()")
            || code.contains(".round()")
            || code.contains(".powf(")
            || has_float_literal(code);
        if floaty {
            diags.push(diag(
                path,
                lineno,
                Rule::FloatCycle,
                "floating-point expression cast into Cycle; keep cycle math in \
                 integers (div_ceil etc.) or annotate lint:allow(float-cycle)"
                    .to_string(),
            ));
        }
    }
}

fn check_unwrap(path: &str, lineno: usize, code: &str, diags: &mut Vec<Diagnostic>) {
    for pat in [".unwrap()", ".expect("] {
        if code.contains(pat) {
            diags.push(diag(
                path,
                lineno,
                Rule::Unwrap,
                format!(
                    "`{pat}..` in model-crate library code; return an error, handle the None \
                     case, or annotate lint:allow(unwrap)"
                ),
            ));
        }
    }
}

/// The entropy-seeded std hash collections that d6 bans from simulator code.
const DEFAULT_HASH_TYPES: [&str; 2] = ["HashMap", "HashSet"];

fn check_default_hash(path: &str, lineno: usize, code: &str, diags: &mut Vec<Diagnostic>) {
    for ty in DEFAULT_HASH_TYPES {
        if !ident_occurrences(code, ty).is_empty() {
            diags.push(diag(
                path,
                lineno,
                Rule::DefaultHash,
                format!(
                    "`{ty}` seeds its hasher from process entropy (RandomState); use the \
                     deterministic wsg_sim::HashIndex or a BTree collection, or annotate \
                     lint:allow(default-hash)"
                ),
            ));
        }
    }
}

/// d7: shared interior mutability between engine structures.
fn check_shared_mut(path: &str, lineno: usize, code: &str, diags: &mut Vec<Diagnostic>) {
    let refcell = !ident_occurrences(code, "RefCell").is_empty();
    let rc = !ident_occurrences(code, "Rc").is_empty();
    if refcell {
        let what = if rc { "Rc<RefCell<..>>" } else { "RefCell" };
        diags.push(diag(
            path,
            lineno,
            Rule::SharedMut,
            format!(
                "`{what}` shared interior mutability in simulator code; engine structures \
                 must not share mutable handles — use plain indices or owned state, or \
                 annotate lint:allow(shared-mut)"
            ),
        ));
    } else if rc {
        diags.push(diag(
            path,
            lineno,
            Rule::SharedMut,
            "`Rc` shared ownership in simulator code; engine structures must not share \
             handles — use plain indices or owned state, or annotate \
             lint:allow(shared-mut)"
                .to_string(),
        ));
    }
    // `Cell<..>` (but not RefCell/UnsafeCell/OnceCell, matched as whole
    // idents above or ignored here).
    if !ident_occurrences(code, "Cell").is_empty() {
        diags.push(diag(
            path,
            lineno,
            Rule::SharedMut,
            "`Cell` interior mutability in simulator code; it mutates through a shared \
             reference, hiding which engine structure owns the state — use owned \
             state, or annotate lint:allow(shared-mut)"
                .to_string(),
        ));
    }
    if code.contains("static mut") {
        diags.push(diag(
            path,
            lineno,
            Rule::SharedMut,
            "`static mut` global state in simulator code; globals are state no engine \
             structure owns and break determinism — thread state through the engine, \
             or annotate lint:allow(shared-mut)"
                .to_string(),
        ));
    }
    if !ident_occurrences(code, "thread_local").is_empty() {
        diags.push(diag(
            path,
            lineno,
            Rule::SharedMut,
            "`thread_local!` state in simulator code; per-thread state makes results \
             depend on the worker thread a run lands on — thread state through the \
             engine, or annotate lint:allow(shared-mut)"
                .to_string(),
        ));
    }
}

/// Field names banned from the deterministic contract string (d10): anything
/// host-side or wall-clock derived. Besides the engine's own host-side
/// fields, this covers the `hdpat::ops` serving-observability vocabulary —
/// request-lifecycle latencies (`*_us`), self-profiler phase buckets
/// (`*_nanos`, `selfprof*`), queue-wait accumulators, and traced stage
/// latencies — none of which may ever leak into the deterministic
/// serialization. Deliberately *not* banned: substrings like `latency` or an
/// `ops_` prefix, which legitimate simulated-time fields (`iommu_latency`,
/// `ops_completed`) already use.
fn det_string_banned(field: &str) -> bool {
    field == "sim_events"
        || field.starts_with("host_")
        || field.contains("wall")
        || field.ends_with("_nanos")
        || field.ends_with("_us")
        || field == "stage_latency"
        || field.contains("queue_wait")
        || field.contains("selfprof")
}

/// d10: inside `to_deterministic_string`, no `self.<host-side field>` reads.
fn check_det_string(
    path: &str,
    lineno: usize,
    code: &str,
    item: &str,
    diags: &mut Vec<Diagnostic>,
) {
    if !(item == "to_deterministic_string" || item.ends_with("::to_deterministic_string")) {
        return;
    }
    let mut start = 0;
    while let Some(pos) = code[start..].find("self.") {
        let at = start + pos + "self.".len();
        let bytes = code.as_bytes();
        let mut end = at;
        while end < bytes.len() && is_ident_byte(bytes[end]) {
            end += 1;
        }
        let field = &code[at..end];
        if det_string_banned(field) {
            diags.push(diag(
                path,
                lineno,
                Rule::DetString,
                format!(
                    "`self.{field}` read inside to_deterministic_string; host-side and \
                     wall-clock fields stay outside the deterministic contract \
                     (run-parity gates compare this string byte-for-byte)"
                ),
            ));
        }
        start = end.max(at);
    }
}

fn diag(path: &str, line: usize, rule: Rule, message: String) -> Diagnostic {
    Diagnostic {
        path: path.to_string(),
        line,
        rule,
        message,
        item: String::new(),
    }
}

// ---------------------------------------------------------------------------
// Per-file analysis and cross-file finalization.
// ---------------------------------------------------------------------------

/// One analysed file: preprocessed source, raw (pre-suppression) hits, and
/// per-allow usage tracking. Produced by [`analyze_file`], consumed by
/// [`finalize`].
pub struct FileAnalysis {
    pub path: String,
    pub pre: PreSource,
    pub rules: RuleSet,
    /// Rule hits before allow suppression.
    pub raw_diags: Vec<Diagnostic>,
}

/// Runs every per-line check on one source text. d9 (needs suppression
/// results) runs later in [`finalize`].
pub fn analyze_file(path: &str, source: &str, rules: RuleSet) -> FileAnalysis {
    let pre = scope::preprocess(source);
    let mut map_idents = BTreeSet::new();
    if rules.map_iter {
        for line in &pre.lines {
            if !line.test_code {
                collect_map_idents(&line.code, &mut map_idents);
            }
        }
    }
    let mut raw = Vec::new();
    for (idx, line) in pre.lines.iter().enumerate() {
        if line.test_code || line.code.trim().is_empty() {
            continue;
        }
        let lineno = idx + 1;
        let before = raw.len();
        if rules.map_iter {
            check_map_iter(path, lineno, &line.code, &map_idents, &mut raw);
        }
        if rules.wallclock {
            check_wallclock(path, lineno, &line.code, &mut raw);
        }
        if rules.float_cycle {
            check_float_cycle(path, lineno, &line.code, &mut raw);
        }
        if rules.unwrap {
            check_unwrap(path, lineno, &line.code, &mut raw);
        }
        if rules.default_hash {
            check_default_hash(path, lineno, &line.code, &mut raw);
        }
        if rules.shared_mut {
            check_shared_mut(path, lineno, &line.code, &mut raw);
        }
        if rules.det_string {
            check_det_string(path, lineno, &line.code, pre.item_at(lineno), &mut raw);
        }
        let item = pre.item_at(lineno);
        if !item.is_empty() {
            let item = item.to_string();
            for d in &mut raw[before..] {
                d.item = item.clone();
            }
        }
    }
    FileAnalysis {
        path: path.to_string(),
        pre,
        rules,
        raw_diags: raw,
    }
}

impl FileAnalysis {
    /// Index of the allow covering `(rule, line)`, if any: same line, the
    /// comment block immediately above, or an enclosing module-scoped allow.
    fn covering_allow(&self, rule: Rule, line: usize) -> Option<usize> {
        let idx = line - 1;
        let lines = &self.pre.lines;
        // Same line.
        for &ai in &lines[idx].allow_ids {
            if self.pre.allows[ai].rule == rule && !self.pre.allows[ai].module_scoped {
                return Some(ai);
            }
        }
        // Comment block (code-empty lines) directly above.
        let mut j = idx;
        while j > 0 {
            j -= 1;
            for &ai in &lines[j].allow_ids {
                if self.pre.allows[ai].rule == rule && !self.pre.allows[ai].module_scoped {
                    return Some(ai);
                }
            }
            if !lines[j].code.trim().is_empty() {
                break;
            }
        }
        // Module-scoped allows covering this line.
        self.pre
            .allows
            .iter()
            .position(|a| a.module_scoped && a.rule == rule && a.line <= line && line <= a.end_line)
    }
}

/// Applies allow suppression and the d9 stale-allow audit across a set of
/// analysed files. Returns the surviving diagnostics sorted by
/// (path, line, rule).
pub fn finalize(files: Vec<FileAnalysis>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for file in files {
        let mut used = vec![false; file.pre.allows.len()];
        let mut diags: Vec<Diagnostic> = file.raw_diags.clone();
        diags.retain(|d| match file.covering_allow(d.rule, d.line) {
            Some(ai) => {
                used[ai] = true;
                false
            }
            None => true,
        });
        if file.rules.stale_allow {
            for (ai, allow) in file.pre.allows.iter().enumerate() {
                let scope_word = if allow.module_scoped {
                    "lint:allow-module"
                } else {
                    "lint:allow"
                };
                let item = file.pre.item_at(allow.line).to_string();
                if !file.rules.contains(allow.rule) {
                    diags.push(Diagnostic {
                        path: file.path.clone(),
                        line: allow.line,
                        rule: Rule::StaleAllow,
                        message: format!(
                            "stale {scope_word}({}): rule {} is not active for this file; \
                             remove the allow",
                            allow.rule.name(),
                            allow.rule.code(),
                        ),
                        item,
                    });
                } else if !used[ai] {
                    diags.push(Diagnostic {
                        path: file.path.clone(),
                        line: allow.line,
                        rule: Rule::StaleAllow,
                        message: format!(
                            "stale {scope_word}({}): the rule no longer fires on the lines \
                             it covers; remove the allow",
                            allow.rule.name(),
                        ),
                        item,
                    });
                } else if !allow.justified {
                    diags.push(Diagnostic {
                        path: file.path.clone(),
                        line: allow.line,
                        rule: Rule::StaleAllow,
                        message: format!(
                            "{scope_word}({}) without a justification; append \
                             `: <why this site is sound>`",
                            allow.rule.name(),
                        ),
                        item,
                    });
                }
            }
        }
        out.extend(diags);
    }
    out.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.rule, a.message.as_str()).cmp(&(
            b.path.as_str(),
            b.line,
            b.rule,
            b.message.as_str(),
        ))
    });
    out
}

// ---------------------------------------------------------------------------
// Entry points.
// ---------------------------------------------------------------------------

/// Lints one source text under the given rule set. `path` is used verbatim in
/// diagnostics.
pub fn lint_source(path: &str, source: &str, rules: RuleSet) -> Vec<Diagnostic> {
    finalize(vec![analyze_file(path, source, rules)])
}

/// Decides which rules apply to a workspace-relative path.
///
/// * Library code (`src/`) of every crate: `map-iter`, `wallclock`,
///   `float-cycle`; plus `unwrap` for the five model crates
///   (sim, noc, xlat, mem, gpu), and `default-hash`, `shared-mut` and
///   `det-string` for the simulator crates (the five
///   model crates, `core`, `workloads`, and the facade) — the `bench`
///   CLI/report code runs host-side and may hash/share freely.
/// * `crates/sim/src/rng.rs` (the sanctioned entropy boundary) and
///   `crates/sim/src/pool.rs` (the sanctioned thread-spawning site for
///   deterministic sweeps) are exempt from `wallclock`;
///   `crates/sim/src/index.rs` (the seeded deterministic hash index that
///   replaces the std types) is exempt from `default-hash`.
/// * Examples: `wallclock` + `float-cycle` (they drive the model but may
///   legitimately format host output).
/// * `stale-allow` is active wherever any other rule is.
/// * Tests and benches: no rules — assertions may iterate maps freely.
/// * Vendored tooling (`crates/xtask`, `crates/proptest`, `crates/criterion`)
///   is not model code and is skipped entirely.
pub fn classify(rel: &Path) -> RuleSet {
    let comps: Vec<&str> = rel
        .components()
        .filter_map(|c| c.as_os_str().to_str())
        .collect();
    match comps.as_slice() {
        ["crates", krate, section, rest @ ..] => {
            if matches!(*krate, "xtask" | "proptest" | "criterion") {
                return RuleSet::none();
            }
            match *section {
                "src" => {
                    let simulator = matches!(
                        *krate,
                        "sim" | "noc" | "xlat" | "mem" | "gpu" | "core" | "workloads"
                    );
                    let mut rules = RuleSet {
                        map_iter: true,
                        wallclock: true,
                        float_cycle: true,
                        unwrap: matches!(*krate, "sim" | "noc" | "xlat" | "mem" | "gpu"),
                        default_hash: simulator,
                        shared_mut: simulator,
                        stale_allow: true,
                        det_string: simulator,
                    };
                    if *krate == "sim" && (rest == ["rng.rs"] || rest == ["pool.rs"]) {
                        rules.wallclock = false;
                    }
                    if *krate == "sim" && rest == ["index.rs"] {
                        // The seeded replacement itself: its docs discuss the
                        // std types, and it is the one sanctioned home for
                        // open-addressing hash code.
                        rules.default_hash = false;
                    }
                    rules
                }
                "examples" => RuleSet {
                    wallclock: true,
                    float_cycle: true,
                    stale_allow: true,
                    ..RuleSet::none()
                },
                _ => RuleSet::none(),
            }
        }
        ["src", ..] => RuleSet {
            map_iter: true,
            wallclock: true,
            float_cycle: true,
            default_hash: true,
            shared_mut: true,
            stale_allow: true,
            det_string: true,
            ..RuleSet::none()
        },
        ["examples", ..] => RuleSet {
            wallclock: true,
            float_cycle: true,
            stale_allow: true,
            ..RuleSet::none()
        },
        _ => RuleSet::none(),
    }
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(rd) = fs::read_dir(dir) else { return };
    let mut entries: Vec<PathBuf> = rd.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path
                .file_name()
                .and_then(|s| s.to_str())
                .unwrap_or_default();
            if matches!(name, "target" | ".git") {
                continue;
            }
            collect_rs_files(&path, out);
        } else if path.extension().and_then(|s| s.to_str()) == Some("rs") {
            out.push(path);
        }
    }
}

/// Lints the whole workspace rooted at `root`, classifying each file by its
/// relative path. File order (and thus diagnostic order) is deterministic.
pub fn lint_workspace(root: &Path) -> Report {
    let mut paths = Vec::new();
    collect_rs_files(root, &mut paths);
    let mut files = Vec::new();
    let mut report = Report::default();
    for file in paths {
        let rel = file.strip_prefix(root).unwrap_or(&file);
        let rules = classify(rel);
        if rules.is_empty() {
            continue;
        }
        let Ok(source) = fs::read_to_string(&file) else {
            continue;
        };
        report.files_scanned += 1;
        files.push(analyze_file(&rel.display().to_string(), &source, rules));
    }
    report.diagnostics = finalize(files);
    report
}

/// Lints an explicit file or directory with every rule enabled — used for
/// fixtures and ad-hoc checks (`cargo run -p xtask -- lint path/to/file.rs`).
pub fn lint_path(path: &Path) -> Report {
    let mut paths = Vec::new();
    if path.is_dir() {
        collect_rs_files(path, &mut paths);
    } else {
        paths.push(path.to_path_buf());
    }
    let mut report = Report::default();
    let mut files = Vec::new();
    for file in paths {
        let Ok(source) = fs::read_to_string(&file) else {
            continue;
        };
        report.files_scanned += 1;
        files.push(analyze_file(
            &file.display().to_string(),
            &source,
            RuleSet::all(),
        ));
    }
    report.diagnostics = finalize(files);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_region_is_skipped() {
        let src = "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { x.unwrap(); }\n}\npub fn h() { y.unwrap(); }\n";
        let diags = lint_source("t.rs", src, RuleSet::all());
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].line, 6);
        assert_eq!(diags[0].rule, Rule::Unwrap);
        assert_eq!(diags[0].item, "h");
    }

    #[test]
    fn map_idents_are_collected() {
        let mut set = BTreeSet::new();
        collect_map_idents("pub links: HashMap<(Coord, Coord), LinkState>,", &mut set);
        collect_map_idents("let mut seen = HashSet::new();", &mut set);
        collect_map_idents("fn f(m: &HashMap<u32, u32>) {}", &mut set);
        collect_map_idents("use std::collections::HashMap;", &mut set);
        let names: Vec<&str> = set.iter().map(|s| s.as_str()).collect();
        assert_eq!(names, vec!["links", "m", "seen"]);
    }

    #[test]
    fn map_iteration_is_flagged() {
        let src = "struct S { links: HashMap<u32, u32> }\nfn f(s: &S) { for (k, v) in s.links.iter() {} }\nfn g(s: &S) -> Option<&u32> { s.links.get(&1) }\n";
        let diags = lint_source("t.rs", src, RuleSet::all());
        let map_iter: Vec<&Diagnostic> = diags.iter().filter(|d| d.rule == Rule::MapIter).collect();
        assert_eq!(map_iter.len(), 1);
        assert_eq!(map_iter[0].line, 2);
        assert_eq!(map_iter[0].item, "f");
        // The declaration line itself is a d6 hit, not a d1 hit.
        assert!(diags
            .iter()
            .any(|d| d.rule == Rule::DefaultHash && d.line == 1));
    }

    #[test]
    fn for_loop_over_map_is_flagged() {
        let src =
            "fn f() { let mut m = HashMap::new(); m.insert(1, 2); for x in &m { let _ = x; } }\n";
        let diags = lint_source("t.rs", src, RuleSet::all());
        assert!(diags.iter().any(|d| d.rule == Rule::MapIter));
    }

    #[test]
    fn allow_on_same_or_previous_line() {
        let src = "fn f() { t.unwrap() } // lint:allow(unwrap): fixture.\n// lint:allow(d4): fixture.\nfn g() { t.unwrap() }\nfn h() { t.unwrap() }\n";
        let diags = lint_source("t.rs", src, RuleSet::all());
        assert_eq!(diags.len(), 1, "diags: {diags:#?}");
        assert_eq!(diags[0].line, 4);
    }

    #[test]
    fn allow_carries_across_a_comment_block() {
        let src = "// lint:allow(d4): justified at length,\n// over several comment lines.\nfn g() { t.unwrap() }\nfn h() { t.unwrap() }\n";
        let diags = lint_source("t.rs", src, RuleSet::all());
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].line, 4);
    }

    #[test]
    fn module_allow_covers_whole_scope() {
        let src = "mod hot {\n    // lint:allow-module(unwrap): audited panic-free inputs.\n    fn f() { t.unwrap() }\n    fn g() { t.unwrap() }\n}\nfn h() { t.unwrap() }\n";
        let diags = lint_source("t.rs", src, RuleSet::all());
        assert_eq!(diags.len(), 1, "diags: {diags:#?}");
        assert_eq!(diags[0].line, 6);
    }

    #[test]
    fn stale_allow_is_flagged() {
        let src = "// lint:allow(unwrap): nothing below unwraps anymore.\nfn f() -> u32 { 1 }\n";
        let diags = lint_source("t.rs", src, RuleSet::all());
        assert_eq!(diags.len(), 1, "diags: {diags:#?}");
        assert_eq!(diags[0].rule, Rule::StaleAllow);
        assert_eq!(diags[0].line, 1);
    }

    #[test]
    fn unjustified_allow_is_flagged() {
        let src = "fn f() { t.unwrap() } // lint:allow(unwrap)\n";
        let diags = lint_source("t.rs", src, RuleSet::all());
        assert_eq!(diags.len(), 1, "diags: {diags:#?}");
        assert_eq!(diags[0].rule, Rule::StaleAllow);
        assert!(diags[0].message.contains("justification"));
    }

    #[test]
    fn stale_allow_cannot_be_allowed() {
        // An allow for d9 itself never suppresses a d9 diagnostic (and is
        // reported stale in turn).
        let src = "// lint:allow(stale-allow): try to silence the auditor.\n// lint:allow(unwrap): stale.\nfn f() -> u32 { 1 }\n";
        let diags = lint_source("t.rs", src, RuleSet::all());
        assert!(
            diags.iter().all(|d| d.rule == Rule::StaleAllow),
            "diags: {diags:#?}"
        );
        assert_eq!(diags.len(), 2, "diags: {diags:#?}");
    }

    #[test]
    fn float_cycle_flagged_only_in_float_context() {
        let all = RuleSet::all();
        let bad = lint_source("t.rs", "let c = (b as f64 / r).ceil() as Cycle;\n", all);
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].rule, Rule::FloatCycle);
        let ok = lint_source("t.rs", "let c = (b / r) as Cycle;\n", all);
        assert!(ok.is_empty());
    }

    #[test]
    fn unwrap_or_is_not_flagged() {
        let diags = lint_source(
            "t.rs",
            "let x = m.get(&1).copied().unwrap_or(0);\n",
            RuleSet::all(),
        );
        assert!(diags.is_empty());
    }

    #[test]
    fn shared_mut_flags_each_pattern() {
        let all = RuleSet::all();
        for (src, frag) in [
            (
                "pub struct H(std::rc::Rc<std::cell::RefCell<Sink>>);\n",
                "Rc<RefCell<..>>",
            ),
            ("    inner: RefCell<State>,\n", "RefCell"),
            ("    count: Cell<u64>,\n", "Cell"),
            ("static mut COUNTER: u64 = 0;\n", "static mut"),
            ("thread_local! { static TLS: u32 = 0; }\n", "thread_local"),
        ] {
            let diags = lint_source("t.rs", src, all);
            assert!(
                diags
                    .iter()
                    .any(|d| d.rule == Rule::SharedMut && d.message.contains(frag)),
                "missing {frag} hit in: {diags:#?}"
            );
        }
        for ok in [
            "    slot: OnceCell<u32>,\n",
            "let rc = compute_rc(x);\n",
            "// Rc<RefCell<..>> discussed in a comment\n",
            "    arc: Arc<u64>,\n",
        ] {
            assert!(
                lint_source("t.rs", ok, all)
                    .iter()
                    .all(|d| d.rule != Rule::SharedMut),
                "flagged: {ok}"
            );
        }
    }

    #[test]
    fn det_string_flags_host_fields_only_inside_the_contract_fn() {
        let all = RuleSet::all();
        let bad = "impl Metrics {\n    pub fn to_deterministic_string(&self) -> String {\n        format!(\"{} {}\", self.total_cycles, self.host_wall_nanos)\n    }\n}\n";
        let diags = lint_source("t.rs", bad, all);
        assert_eq!(diags.len(), 1, "diags: {diags:#?}");
        assert_eq!(diags[0].rule, Rule::DetString);
        assert_eq!(diags[0].line, 3);
        assert_eq!(diags[0].item, "Metrics::to_deterministic_string");
        let sim_events = bad.replace("host_wall_nanos", "sim_events");
        assert_eq!(lint_source("t.rs", &sim_events, all).len(), 1);
        // The same read outside the contract fn is fine.
        let ok = "impl Metrics {\n    pub fn host_summary(&self) -> u64 {\n        self.host_wall_nanos\n    }\n}\n";
        assert!(lint_source("t.rs", ok, all).is_empty());
    }

    #[test]
    fn det_string_bans_the_ops_observability_vocabulary() {
        let all = RuleSet::all();
        // Every member of the `hdpat::ops` wall-clock vocabulary is caught
        // inside the contract fn...
        for field in [
            "queue_wait_us",
            "service_us",
            "total_us",
            "dispatch_nanos",
            "merge_nanos",
            "selfprof",
            "stage_latency",
        ] {
            let src = format!(
                "impl Metrics {{\n    pub fn to_deterministic_string(&self) -> String {{\n        format!(\"{{}}\", self.{field})\n    }}\n}}\n"
            );
            let diags = lint_source("t.rs", &src, all);
            assert_eq!(diags.len(), 1, "field {field} not flagged: {diags:#?}");
            assert_eq!(diags[0].rule, Rule::DetString);
        }
        // ...while legitimate simulated-time fields that merely *sound*
        // latency-ish stay usable.
        for field in ["iommu_latency", "ops_completed", "total_cycles"] {
            let src = format!(
                "impl Metrics {{\n    pub fn to_deterministic_string(&self) -> String {{\n        format!(\"{{}}\", self.{field})\n    }}\n}}\n"
            );
            assert!(
                lint_source("t.rs", &src, all).is_empty(),
                "false positive on {field}"
            );
        }
    }

    #[test]
    fn classify_scopes_rules_by_path() {
        let lib = classify(Path::new("crates/sim/src/event.rs"));
        assert!(lib.map_iter && lib.wallclock && lib.float_cycle && lib.unwrap);
        assert!(lib.default_hash && lib.shared_mut && lib.det_string);
        assert!(lib.stale_allow);
        let rng = classify(Path::new("crates/sim/src/rng.rs"));
        assert!(!rng.wallclock && rng.map_iter && rng.shared_mut);
        let pool = classify(Path::new("crates/sim/src/pool.rs"));
        assert!(!pool.wallclock && pool.map_iter && pool.unwrap);
        let core = classify(Path::new("crates/core/src/sim/mod.rs"));
        assert!(core.map_iter && !core.unwrap && core.default_hash && core.shared_mut);
        assert!(classify(Path::new("crates/xtask/src/lib.rs")).is_empty());
        assert!(classify(Path::new("crates/sim/tests/t.rs")).is_empty());
        assert!(classify(Path::new("tests/invariants.rs")).is_empty());
        let ex = classify(Path::new("examples/ablation_sweep.rs"));
        assert!(ex.wallclock && !ex.unwrap && ex.stale_allow && !ex.shared_mut);
        let facade = classify(Path::new("src/lib.rs"));
        assert!(facade.map_iter && !facade.unwrap && facade.default_hash && facade.shared_mut);
    }

    #[test]
    fn default_hash_scope_and_exemption() {
        // The seeded index is the one sanctioned hash file.
        let index = classify(Path::new("crates/sim/src/index.rs"));
        assert!(!index.default_hash && index.map_iter && index.unwrap);
        // Host-side bench/report code may hash and share freely.
        let bench = classify(Path::new("crates/bench/src/bin/hdpat-sim.rs"));
        assert!(!bench.default_hash && bench.map_iter && !bench.shared_mut);
        // The telemetry flight recorder earns no exemption.
        let telemetry = classify(Path::new("crates/sim/src/telemetry.rs"));
        assert_eq!(telemetry, RuleSet::all());
    }

    #[test]
    fn default_hash_flags_types_without_iteration() {
        let all = RuleSet::all();
        let bad = lint_source("t.rs", "use std::collections::HashMap;\n", all);
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].rule, Rule::DefaultHash);
        let set = lint_source("t.rs", "let s = std::collections::HashSet::new();\n", all);
        assert!(set.iter().any(|d| d.rule == Rule::DefaultHash));
        for ok in [
            "let m = BTreeMap::new();\n",
            "let ix = wsg_sim::HashIndex::new();\n",
            "// HashMap discussed in a comment only\n",
            "let s = \"HashMap\";\n",
            "let x = my_hash_map();\n",
            "let m = std::collections::HashMap::new(); // lint:allow(d6): fixture.\n",
        ] {
            assert!(
                lint_source("t.rs", ok, all)
                    .iter()
                    .all(|d| d.rule != Rule::DefaultHash),
                "flagged: {ok}"
            );
        }
    }

    #[test]
    fn rule_parse_round_trips() {
        for rule in Rule::ALL {
            assert_eq!(Rule::parse(rule.name()), Some(rule));
            assert_eq!(Rule::parse(rule.code()), Some(rule));
        }
        assert_eq!(Rule::parse("d11"), None);
        // Retired codes stay retired.
        assert_eq!(Rule::parse("d5"), None);
        assert_eq!(Rule::parse("d8"), None);
    }

    #[test]
    fn diagnostic_display_format() {
        let d = Diagnostic {
            path: "crates/sim/src/event.rs".into(),
            line: 42,
            rule: Rule::MapIter,
            message: "msg".into(),
            item: String::new(),
        };
        assert_eq!(d.to_string(), "crates/sim/src/event.rs:42: [map-iter] msg");
        let with_item = Diagnostic {
            item: "EventQueue::push".into(),
            ..d
        };
        assert_eq!(
            with_item.to_string(),
            "crates/sim/src/event.rs:42: [map-iter] msg (in EventQueue::push)"
        );
    }

    #[test]
    fn report_json_is_well_formed() {
        let report = Report {
            files_scanned: 2,
            diagnostics: vec![Diagnostic {
                path: "a.rs".into(),
                line: 7,
                rule: Rule::SharedMut,
                message: "a \"quoted\" message".into(),
                item: "S::f".into(),
            }],
        };
        let json = report.to_json();
        assert!(json.contains("\"files_scanned\": 2"));
        assert!(json.contains("\"violations\": 1"));
        assert!(json.contains("\"rule\": \"shared-mut\""));
        assert!(json.contains("\"code\": \"d7\""));
        assert!(json.contains("\\\"quoted\\\""));
        let empty = Report::default().to_json();
        assert!(empty.contains("\"diagnostics\": []"));
    }
}
