//! Source preprocessing and the scope tracker.
//!
//! The lint pass works on *stripped* source: comments and string/char
//! literal contents are blanked (each skipped byte becomes a space, so token
//! boundaries and byte offsets survive but no literal text can trip a rule).
//! On top of the stripped text this module tracks, per line:
//!
//! * **brace depth** and **paren/bracket depth** at the start of the line,
//! * the **item path** (`mod`/`impl`/`fn`/`struct`/... nesting, rendered as
//!   `Simulation::run`), so diagnostics can name the enclosing item
//!   and rules can be allowed per scope instead of per line,
//! * whether the line belongs to a `#[cfg(test)]` region (no rules apply).
//!
//! It also parses the two allow pragmas:
//!
//! * `// lint:allow(<rule>[, <rule>...]): <justification>` — covers the same
//!   line, or (from a comment block) the next code line below it.
//! * `// lint:allow-module(<rule>): <justification>` — covers every line
//!   from the pragma to the end of the enclosing brace scope (the whole
//!   file when written at the top level).
//!
//! Rule d9 (`stale-allow`) audits both forms: an allow that never
//! suppresses a hit, or that lacks the `:` justification suffix, is itself
//! a violation — so the allowlist can never rot.
//!
//! The tracker is still a scanner, not a parser: it trades completeness for
//! zero dependencies. Its brace accounting is pinned against a brute-force
//! model on generated token soup in `tests/scope_proptest.rs`.

use crate::Rule;

// ---------------------------------------------------------------------------
// Byte-level helpers shared with the rule checks.
// ---------------------------------------------------------------------------

pub(crate) fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Every occurrence of `needle` in `hay` that stands alone as an identifier.
pub(crate) fn ident_occurrences(hay: &str, needle: &str) -> Vec<usize> {
    let bytes = hay.as_bytes();
    let mut out = Vec::new();
    let mut start = 0;
    while let Some(pos) = hay[start..].find(needle) {
        let i = start + pos;
        let before_ok = i == 0 || !is_ident_byte(bytes[i - 1]);
        let end = i + needle.len();
        let after_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if before_ok && after_ok {
            out.push(i);
        }
        start = i + needle.len();
    }
    out
}

/// Reads the identifier that ends at byte `end` (exclusive), if any.
pub(crate) fn ident_ending_at(code: &str, end: usize) -> Option<&str> {
    let bytes = code.as_bytes();
    let mut start = end;
    while start > 0 && is_ident_byte(bytes[start - 1]) {
        start -= 1;
    }
    if start == end {
        None
    } else {
        Some(&code[start..end])
    }
}

// ---------------------------------------------------------------------------
// Literal/comment stripping.
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
enum ScanState {
    Normal,
    /// Nested block comment depth.
    Block(u32),
    Str,
    /// Raw string, closing delimiter is `"` followed by this many `#`.
    RawStr(u8),
}

/// Strips one line according to the carried scanner state, returning the
/// blanked code text and the state at end of line.
fn strip_line(raw: &str, mut state: ScanState) -> (String, ScanState) {
    let bytes = raw.as_bytes();
    let len = bytes.len();
    let mut code = Vec::with_capacity(len);
    let mut i = 0;
    while i < len {
        match state {
            ScanState::Block(depth) => {
                if bytes[i] == b'/' && i + 1 < len && bytes[i + 1] == b'*' {
                    state = ScanState::Block(depth + 1);
                    i += 2;
                } else if bytes[i] == b'*' && i + 1 < len && bytes[i + 1] == b'/' {
                    state = if depth == 1 {
                        ScanState::Normal
                    } else {
                        ScanState::Block(depth - 1)
                    };
                    i += 2;
                } else {
                    i += 1;
                }
                code.push(b' ');
            }
            ScanState::Str => {
                if bytes[i] == b'\\' {
                    i += 2;
                    code.push(b' ');
                } else if bytes[i] == b'"' {
                    state = ScanState::Normal;
                    i += 1;
                    code.push(b' ');
                } else {
                    i += 1;
                    code.push(b' ');
                }
            }
            ScanState::RawStr(hashes) => {
                if bytes[i] == b'"' {
                    let h = hashes as usize;
                    if i + h < len
                        && bytes[i + 1..].len() >= h
                        && bytes[i + 1..i + 1 + h].iter().all(|&b| b == b'#')
                    {
                        state = ScanState::Normal;
                        i += 1 + h;
                        code.push(b' ');
                        continue;
                    }
                }
                i += 1;
                code.push(b' ');
            }
            ScanState::Normal => {
                let b = bytes[i];
                let prev_is_ident = i > 0 && is_ident_byte(bytes[i - 1]);
                if b == b'/' && i + 1 < len && bytes[i + 1] == b'/' {
                    // Line comment: rest of the line is gone.
                    break;
                } else if b == b'/' && i + 1 < len && bytes[i + 1] == b'*' {
                    state = ScanState::Block(1);
                    i += 2;
                    code.push(b' ');
                } else if b == b'"' {
                    state = ScanState::Str;
                    i += 1;
                    code.push(b' ');
                } else if (b == b'r' || b == b'b') && !prev_is_ident {
                    // Possible raw/byte string prefix: r", r#", br", br#".
                    let mut j = i + 1;
                    if b == b'b' && j < len && bytes[j] == b'r' {
                        j += 1;
                    } else if b == b'b' {
                        // b"..." or b'.' fall through to plain handling below.
                        j = i + 1;
                        if j < len && bytes[j] == b'"' {
                            state = ScanState::Str;
                            i = j + 1;
                            code.push(b' ');
                            code.push(b' ');
                            continue;
                        }
                        code.push(b);
                        i += 1;
                        continue;
                    }
                    let mut hashes = 0u8;
                    while j < len && bytes[j] == b'#' {
                        hashes += 1;
                        j += 1;
                    }
                    if b == b'r' && hashes == 0 && j == i + 1 && (j >= len || bytes[j] != b'"') {
                        // Just the identifier letter `r`.
                        code.push(b);
                        i += 1;
                        continue;
                    }
                    if j < len && bytes[j] == b'"' {
                        state = ScanState::RawStr(hashes);
                        code.extend(std::iter::repeat_n(b' ', j - i + 1));
                        i = j + 1;
                    } else {
                        code.push(b);
                        i += 1;
                    }
                } else if b == b'\'' {
                    // Char literal vs lifetime.
                    if i + 1 < len && bytes[i + 1] == b'\\' {
                        let mut j = i + 3; // skip the escaped byte
                        while j < len && bytes[j] != b'\'' {
                            j += 1;
                        }
                        code.extend(std::iter::repeat_n(b' ', j.min(len - 1) - i + 1));
                        i = j + 1;
                    } else if i + 2 < len && bytes[i + 2] == b'\'' && bytes[i + 1] != b'\'' {
                        code.push(b' ');
                        code.push(b' ');
                        code.push(b' ');
                        i += 3;
                    } else {
                        // Lifetime tick: drop the tick, keep the name.
                        code.push(b' ');
                        i += 1;
                    }
                } else {
                    code.push(b);
                    i += 1;
                }
            }
        }
    }
    (String::from_utf8_lossy(&code).into_owned(), state)
}

// ---------------------------------------------------------------------------
// Allow pragmas.
// ---------------------------------------------------------------------------

/// One parsed `lint:allow(...)` / `lint:allow-module(...)` pragma.
#[derive(Clone, Debug)]
pub struct Allow {
    pub rule: Rule,
    /// 1-based line the pragma appears on.
    pub line: usize,
    /// `lint:allow-module`: covers to the end of the enclosing brace scope.
    pub module_scoped: bool,
    /// The pragma carries a `: <justification>` suffix (d9 requires one).
    pub justified: bool,
    /// Last covered line (1-based, inclusive) for module-scoped allows;
    /// equal to `line` for line-scoped allows (which additionally cover the
    /// next code line below a comment block — resolved at lookup time).
    pub end_line: usize,
}

/// Parses every allow pragma on one raw line. `module` pragmas are tagged;
/// their `end_line` is fixed up once depths are known.
fn parse_allows(raw: &str, lineno: usize) -> Vec<Allow> {
    let mut out = Vec::new();
    let mut cursor = 0usize;
    while let Some(i) = raw[cursor..].find("lint:allow") {
        let at = cursor + i + "lint:allow".len();
        let after = &raw[at..];
        let (module_scoped, body_start) = if after.starts_with('(') {
            (false, at + 1)
        } else if after.starts_with("-module(") {
            (true, at + "-module(".len())
        } else {
            cursor = at;
            continue;
        };
        let Some(end) = raw[body_start..].find(')') else {
            break;
        };
        let justified = raw[body_start + end + 1..].trim_start().starts_with(':');
        for token in raw[body_start..body_start + end].split(',') {
            if let Some(rule) = Rule::parse(token.trim()) {
                out.push(Allow {
                    rule,
                    line: lineno,
                    module_scoped,
                    justified,
                    end_line: lineno,
                });
            }
        }
        cursor = body_start + end + 1;
    }
    out
}

// ---------------------------------------------------------------------------
// Scope tracking.
// ---------------------------------------------------------------------------

/// The kinds of named scopes the tracker distinguishes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ItemKind {
    Mod,
    Fn,
    Struct,
    Enum,
    Union,
    Trait,
    Impl,
}

/// One named item and the line span of its body (braces inclusive).
#[derive(Clone, Debug)]
pub struct ItemSpan {
    pub kind: ItemKind,
    /// Full `::`-joined path (`Simulation::run`).
    pub path: String,
    /// 1-based line of the opening `{`.
    pub start_line: usize,
    /// 1-based line of the matching `}` (or EOF for unbalanced input).
    pub end_line: usize,
    /// Brace depth *inside* the item body.
    pub body_depth: i64,
}

/// One preprocessed line.
#[derive(Debug)]
pub struct PreLine {
    /// Stripped code text (see module docs).
    pub code: String,
    /// True inside a `#[cfg(test)]` item: no rules apply.
    pub test_code: bool,
    /// Brace depth at the start of the line.
    pub depth: i64,
    /// Paren + bracket depth at the start of the line (used to tell struct
    /// fields from multi-line fn-signature parameters).
    pub paren: i64,
    /// Item path at the start of the line (`""` at top level).
    pub item: String,
    /// Indices into [`PreSource::allows`] of pragmas written on this line.
    pub allow_ids: Vec<usize>,
}

/// A whole preprocessed source file.
#[derive(Debug, Default)]
pub struct PreSource {
    pub lines: Vec<PreLine>,
    pub allows: Vec<Allow>,
    pub items: Vec<ItemSpan>,
}

impl PreSource {
    /// Path of the innermost named item whose span contains 1-based `line`
    /// (`""` at top level). Unlike [`PreLine::item`] — the path at the
    /// *start* of the line — this also covers items opened and closed on
    /// the line itself (`fn h() { .. }`).
    pub fn item_at(&self, line: usize) -> &str {
        self.items
            .iter()
            .filter(|s| s.start_line <= line && line <= s.end_line)
            .max_by_key(|s| (s.body_depth, s.start_line))
            .map(|s| s.path.as_str())
            .unwrap_or("")
    }
}

#[derive(Debug)]
struct Frame {
    name: Option<String>,
    /// Index into `items` when this frame is a named item.
    item_idx: Option<usize>,
}

/// Derives the impl'd type name from the accumulated `impl ...` header text:
/// the last path segment of the type after `for` (trait impls) or after
/// `impl` itself, with generics stripped.
fn impl_target_name(header: &str) -> Option<String> {
    // Drop the leading generics of `impl<T, U>`.
    let mut rest = header.trim_start();
    if let Some(stripped) = rest.strip_prefix('<') {
        let mut depth = 1i32;
        let mut idx = 0;
        for (i, b) in stripped.bytes().enumerate() {
            match b {
                b'<' => depth += 1,
                b'>' => {
                    depth -= 1;
                    if depth == 0 {
                        idx = i + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        rest = &stripped[idx.min(stripped.len())..];
    }
    // Trait impls: keep the type after the last standalone `for`.
    let target = match ident_occurrences(rest, "for").last() {
        Some(&pos) => &rest[pos + 3..],
        None => rest,
    };
    // Last ident before generics/where/EOL.
    let mut last = None;
    let bytes = target.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if is_ident_byte(bytes[i]) {
            let start = i;
            while i < bytes.len() && is_ident_byte(bytes[i]) {
                i += 1;
            }
            let word = &target[start..i];
            if word != "where" && word != "dyn" && word != "mut" {
                last = Some(word.to_string());
            } else if word == "where" {
                break;
            }
        } else if bytes[i] == b'<' {
            break;
        } else {
            i += 1;
        }
    }
    last
}

/// Marks every line belonging to a `#[cfg(test)]` item (attribute line
/// through the matching close brace) as test code.
fn mark_test_regions(lines: &mut [PreLine]) {
    let mut pending_attr = false;
    let mut depth: i64 = 0;
    let mut in_region = false;
    for line in lines.iter_mut() {
        if in_region {
            line.test_code = true;
            depth += brace_delta(&line.code);
            if depth <= 0 {
                in_region = false;
            }
            continue;
        }
        if line.code.contains("#[cfg(test)]") || line.code.contains("#[cfg(all(test") {
            pending_attr = true;
            line.test_code = true;
            continue;
        }
        if pending_attr {
            line.test_code = true;
            if line.code.contains('{') {
                pending_attr = false;
                depth = brace_delta(&line.code);
                in_region = depth > 0;
            }
        }
    }
}

pub(crate) fn brace_delta(code: &str) -> i64 {
    let mut d = 0i64;
    for b in code.bytes() {
        match b {
            b'{' => d += 1,
            b'}' => d -= 1,
            _ => {}
        }
    }
    d
}

const ITEM_KEYWORDS: [(&str, ItemKind); 6] = [
    ("mod", ItemKind::Mod),
    ("fn", ItemKind::Fn),
    ("struct", ItemKind::Struct),
    ("enum", ItemKind::Enum),
    ("union", ItemKind::Union),
    ("trait", ItemKind::Trait),
];

/// Preprocesses a whole source file: stripping, scope tracking, allows and
/// `#[cfg(test)]` regions.
pub fn preprocess(source: &str) -> PreSource {
    // Pass 1: strip literals/comments line by line.
    let mut lines: Vec<PreLine> = Vec::new();
    let mut raw_lines: Vec<&str> = Vec::new();
    let mut state = ScanState::Normal;
    for raw in source.lines() {
        let (code, next) = strip_line(raw, state);
        state = next;
        raw_lines.push(raw);
        lines.push(PreLine {
            code,
            test_code: false,
            depth: 0,
            paren: 0,
            item: String::new(),
            allow_ids: Vec::new(),
        });
    }
    mark_test_regions(&mut lines);

    // Pass 2: scope tracking over the stripped text.
    let mut items: Vec<ItemSpan> = Vec::new();
    let mut stack: Vec<Frame> = Vec::new();
    let mut depth: i64 = 0;
    let mut paren: i64 = 0;
    // A named item waiting for its opening brace.
    let mut pending: Option<(ItemKind, String)> = None;
    // Set after an item keyword; the next ident names the item.
    let mut pending_kw: Option<ItemKind> = None;
    // Accumulated `impl ...` header text, while between `impl` and `{`/`;`.
    let mut impl_header: Option<String> = None;

    for (idx, line) in lines.iter_mut().enumerate() {
        line.depth = depth;
        line.paren = paren;
        line.item = {
            let parts: Vec<&str> = stack.iter().filter_map(|f| f.name.as_deref()).collect();
            parts.join("::")
        };

        let code = line.code.clone();
        let bytes = code.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            let b = bytes[i];
            if is_ident_byte(b) {
                let start = i;
                while i < bytes.len() && is_ident_byte(bytes[i]) {
                    i += 1;
                }
                let word = &code[start..i];
                if let Some(h) = impl_header.as_mut() {
                    h.push(' ');
                    h.push_str(word);
                    continue;
                }
                if word == "impl" {
                    impl_header = Some(String::new());
                    pending_kw = None;
                    continue;
                }
                if let Some(kind) = pending_kw.take() {
                    if word.bytes().next().is_some_and(|c| !c.is_ascii_digit()) {
                        pending = Some((kind, word.to_string()));
                    }
                    continue;
                }
                if let Some(&(_, kind)) = ITEM_KEYWORDS.iter().find(|(kw, _)| *kw == word) {
                    pending_kw = Some(kind);
                }
                continue;
            }
            match b {
                b'{' => {
                    depth += 1;
                    let named = pending.take().or_else(|| {
                        impl_header
                            .take()
                            .and_then(|h| impl_target_name(&h).map(|n| (ItemKind::Impl, n)))
                    });
                    let item_idx = named.as_ref().map(|(kind, name)| {
                        let mut path: Vec<&str> =
                            stack.iter().filter_map(|f| f.name.as_deref()).collect();
                        path.push(name);
                        items.push(ItemSpan {
                            kind: *kind,
                            path: path.join("::"),
                            start_line: idx + 1,
                            end_line: usize::MAX,
                            body_depth: depth,
                        });
                        items.len() - 1
                    });
                    stack.push(Frame {
                        name: named.map(|(_, n)| n),
                        item_idx,
                    });
                    pending_kw = None;
                }
                b'}' => {
                    depth -= 1;
                    if let Some(frame) = stack.pop() {
                        if let Some(ii) = frame.item_idx {
                            items[ii].end_line = idx + 1;
                        }
                    }
                }
                b'(' | b'[' => {
                    paren += 1;
                    if let Some(h) = impl_header.as_mut() {
                        h.push(code.as_bytes()[i] as char);
                    }
                    // A keyword not followed by a name (`fn(u32)` type) is
                    // not an item declaration.
                    pending_kw = None;
                }
                b')' | b']' => {
                    paren -= 1;
                    if let Some(h) = impl_header.as_mut() {
                        h.push(b as char);
                    }
                }
                b';' => {
                    // `mod x;`, `struct X(..);`, trait fn declarations.
                    pending = None;
                    pending_kw = None;
                    impl_header = None;
                }
                b'=' => {
                    // `let f = ...` etc. never declares an item body.
                    pending_kw = None;
                }
                _ => {
                    if let Some(h) = impl_header.as_mut() {
                        if !b.is_ascii_whitespace() {
                            h.push(b as char);
                        } else if !h.ends_with(' ') {
                            h.push(' ');
                        }
                    }
                }
            }
            i += 1;
        }
    }
    for item in &mut items {
        if item.end_line == usize::MAX {
            item.end_line = lines.len();
        }
    }

    // Pass 3: allows (skipped inside test regions so unreachable pragmas
    // cannot trigger stale-allow noise — rules never fire there anyway).
    let mut allows: Vec<Allow> = Vec::new();
    for (idx, raw) in raw_lines.iter().enumerate() {
        if lines[idx].test_code {
            continue;
        }
        for mut allow in parse_allows(raw, idx + 1) {
            if allow.module_scoped {
                // Covers from the pragma to the end of the enclosing scope:
                // the last following line whose start depth stays >= the
                // pragma line's start depth.
                let base = lines[idx].depth;
                let mut end = idx;
                while end + 1 < lines.len() && lines[end + 1].depth >= base {
                    end += 1;
                }
                allow.end_line = end + 1;
            }
            lines[idx].allow_ids.push(allows.len());
            allows.push(allow);
        }
    }

    PreSource {
        lines,
        allows,
        items,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_stripped() {
        let pre = preprocess(
            "let x = \"Instant::now\"; // Instant::now in comment\nlet y = 1; /* thread_rng */ let z = 2;\n",
        );
        assert!(!pre.lines[0].code.contains("Instant"));
        assert!(!pre.lines[1].code.contains("thread_rng"));
        assert!(pre.lines[1].code.contains("let z"));
    }

    #[test]
    fn block_comments_span_lines() {
        let pre = preprocess("a/*\nthread_rng\n*/b\n");
        assert!(pre.lines[0].code.contains('a'));
        assert!(!pre.lines[1].code.contains("thread_rng"));
        assert!(pre.lines[2].code.contains('b'));
    }

    #[test]
    fn raw_strings_are_stripped() {
        let pre = preprocess("let x = r#\"rand::random\"#; let ok = 1;\n");
        assert!(!pre.lines[0].code.contains("rand::random"));
        assert!(pre.lines[0].code.contains("let ok"));
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let pre = preprocess("fn f<'a>(c: char) -> bool { c == '\"' }\n");
        // The double-quote char literal must not open a string.
        assert!(pre.lines[0].code.contains("bool"));
    }

    #[test]
    fn allows_are_parsed_with_justification() {
        let pre = preprocess("fn f() {} // lint:allow(map-iter, d4): reason\n");
        let rules: Vec<Rule> = pre.allows.iter().map(|a| a.rule).collect();
        assert_eq!(rules, vec![Rule::MapIter, Rule::Unwrap]);
        assert!(pre.allows.iter().all(|a| a.justified && !a.module_scoped));
        let bare = preprocess("fn f() {} // lint:allow(d4)\n");
        assert!(!bare.allows[0].justified);
        assert!(preprocess("no allow here\n").allows.is_empty());
    }

    #[test]
    fn module_allow_covers_enclosing_scope() {
        let src = "mod a {\n    // lint:allow-module(d4): scoped.\n    fn f() {}\n}\nfn g() {}\n";
        let pre = preprocess(src);
        let a = &pre.allows[0];
        assert!(a.module_scoped && a.justified);
        assert_eq!(a.line, 2);
        // Covers through the closing brace of `mod a` but not `fn g`.
        assert_eq!(a.end_line, 4);
        // A top-level pragma covers the whole file.
        let top = preprocess("// lint:allow-module(d2): whole file.\nfn f() {}\nfn g() {}\n");
        assert_eq!(top.allows[0].end_line, 3);
    }

    #[test]
    fn depth_and_paren_are_tracked() {
        let src = "fn f(\n    a: u32,\n) {\n    let x = [1, 2];\n}\n";
        let pre = preprocess(src);
        let depths: Vec<i64> = pre.lines.iter().map(|l| l.depth).collect();
        assert_eq!(depths, vec![0, 0, 0, 1, 1]);
        let parens: Vec<i64> = pre.lines.iter().map(|l| l.paren).collect();
        assert_eq!(parens, vec![0, 1, 1, 0, 0]);
    }

    #[test]
    fn item_paths_nest() {
        let src = "mod outer {\n    pub struct S {\n        field: u32,\n    }\n    impl S {\n        pub fn get(&self) -> u32 {\n            self.field\n        }\n    }\n}\n";
        let pre = preprocess(src);
        assert_eq!(pre.lines[2].item, "outer::S");
        assert_eq!(pre.lines[6].item, "outer::S::get");
        let spans: Vec<(&str, usize, usize)> = pre
            .items
            .iter()
            .map(|s| (s.path.as_str(), s.start_line, s.end_line))
            .collect();
        assert!(spans.contains(&("outer", 1, 10)));
        assert!(spans.contains(&("outer::S", 2, 4)));
        assert!(spans.contains(&("outer::S::get", 6, 8)));
        let s = pre.items.iter().find(|s| s.path == "outer::S").unwrap();
        assert_eq!(s.kind, ItemKind::Struct);
        assert_eq!(s.body_depth, 2);
    }

    #[test]
    fn trait_impls_use_the_target_type() {
        let src = "impl<T: Clone> fmt::Display for Wrapper<T> {\n    fn fmt(&self) {}\n}\n";
        let pre = preprocess(src);
        assert_eq!(pre.lines[1].item, "Wrapper");
        let multi = preprocess("impl Foo\n    for Bar\n{\n    fn f() { let x = 1; }\n}\n");
        assert_eq!(multi.lines[3].item, "Bar");
    }

    #[test]
    fn struct_literals_do_not_pollute_paths() {
        let src = "fn build() -> S {\n    S {\n        field: 1,\n    }\n}\n";
        let pre = preprocess(src);
        assert_eq!(pre.lines[2].item, "build");
    }

    #[test]
    fn cfg_test_region_is_marked() {
        let src = "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() {}\n}\npub fn h() {}\n";
        let pre = preprocess(src);
        let flags: Vec<bool> = pre.lines.iter().map(|l| l.test_code).collect();
        assert_eq!(flags, vec![false, true, true, true, true, false]);
    }
}
