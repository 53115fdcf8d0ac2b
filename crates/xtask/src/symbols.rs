//! Symbol table and intra-workspace call graph for the concurrency lints.
//!
//! The L001–L008 lints are per-file: they pattern-match one scrubbed source
//! file at a time. The concurrency lints added in PR 8 (L009–L012) reason
//! about *relationships* — "is this function reachable from a hot entry
//! point?", "does a fault point dominate this buffer write?" — so this
//! module builds a workspace-wide model on top of the same lexer:
//!
//! 1. **Function definitions.** Every `fn name(...)` item in scrubbed code,
//!    with its brace-matched body span, whether it takes `self`, the type
//!    its enclosing `impl` block targets, and whether it lives in test
//!    code. Raw identifiers (`fn r#try`) are normalized to their bare name.
//! 2. **Call sites.** Bare calls (`helper(...)`), path calls
//!    (`exec::gather_rows(...)`, `Type::new(...)`), and method calls
//!    (`.row_mut(...)`), including turbofish forms (`f::<T>(...)`,
//!    `.collect::<Vec<_>>(...)`).
//! 3. **Resolution.** Deliberately conservative *over*-approximation:
//!    method calls resolve to every workspace function with the matching
//!    name that takes `self` (dynamic dispatch and trait impls cannot be
//!    resolved lexically, so all candidates are assumed reachable);
//!    type-qualified calls (`Type::new`) resolve only within `impl Type`
//!    blocks (otherwise `::new` would edge into every constructor in the
//!    workspace); module-qualified calls prefer functions defined in a
//!    file matching the module segment (`exec::gather_rows` → `…/exec.rs`)
//!    before falling back to name-wide; bare calls resolve within the same
//!    file, then the same crate. Calls that resolve to nothing are assumed
//!    to target `std` or vendored dependencies and drop out.
//!
//! When a crate-dependency map is installed ([`Workspace::set_crate_deps`],
//! loaded from the workspace `Cargo.toml`s by [`load_crate_deps`]), every
//! cross-crate candidate is additionally required to live in a declared
//! (transitive) dependency of the caller's crate — a name collision cannot
//! edge `crates/pool` into a crate pool does not even link against.
//!
//! The over-approximation direction matters: for reachability lints a
//! spurious edge can only produce a *stricter* check (a diagnostic a human
//! reviews and possibly waives), never a silently missed one.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

use crate::lexer::SourceFile;

/// Stable index of a function definition in a [`Workspace`].
pub type FnId = usize;

/// How a call site referred to its callee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `name(...)` with no qualifier.
    Bare,
    /// `path::name(...)`.
    Path,
    /// `.name(...)`.
    Method,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    /// Callee name (raw-identifier prefix stripped).
    pub name: String,
    /// Qualifier form the call used.
    pub kind: CallKind,
    /// For [`CallKind::Path`], the last path segment before the name
    /// (`exec` in `exec::gather_rows(...)`, `Plan` in `Plan::new(...)`).
    pub qualifier: Option<String>,
    /// 0-based line of the call site.
    pub line: usize,
}

/// One `fn` item: identity, span, and the calls inside its body.
#[derive(Debug)]
pub struct FnDef {
    /// Function name (raw-identifier prefix stripped).
    pub name: String,
    /// Workspace-relative file path.
    pub file: String,
    /// 0-based line of the `fn` keyword.
    pub start_line: usize,
    /// 0-based line of the closing brace (== `start_line` for bodyless
    /// trait-method declarations).
    pub end_line: usize,
    /// Whether the first parameter is (a form of) `self`.
    pub has_self: bool,
    /// The target type of the enclosing `impl` block, if any.
    pub owner: Option<String>,
    /// Whether the definition sits in test code (path or `cfg(test)`).
    pub is_test: bool,
    /// Whether the body contains a `fault_point!`/`fault_point_err!` site.
    pub has_fault_point: bool,
    /// Call sites in the body, in source order.
    pub calls: Vec<Call>,
}

/// The workspace model: all function definitions plus resolution indices.
#[derive(Debug, Default)]
pub struct Workspace {
    fns: Vec<FnDef>,
    by_name: HashMap<String, Vec<FnId>>,
    by_file: BTreeMap<String, Vec<FnId>>,
    /// `reaches_fault[f]`: `f` contains, or transitively calls a function
    /// containing, a fault-point macro.
    reaches_fault: Vec<bool>,
    /// Transitive crate dependencies (`"crates/shard"` →
    /// {`"crates/pool"`, …}); empty = no filtering.
    crate_deps: BTreeMap<String, HashSet<String>>,
}

/// Rust keywords and call-like constructs that are never workspace
/// function names; skipping them keeps the bare-call index small.
const NON_CALL_WORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "fn", "as", "in", "move", "else", "unsafe",
    "let", "mut", "ref", "await", "yield", "dyn", "impl", "where", "pub", "use", "mod", "struct",
    "enum", "union", "trait", "type", "const", "static", "crate", "super", "break", "continue",
    "Self", "self",
];

impl Workspace {
    /// Builds the model from scanned files (`(workspace-relative path,
    /// scanned source)` pairs).
    pub fn build(files: &[(String, SourceFile)]) -> Workspace {
        let mut ws = Workspace::default();
        for (path, sf) in files {
            collect_fns(path, sf, &mut ws.fns);
        }
        for (id, f) in ws.fns.iter().enumerate() {
            ws.by_name.entry(f.name.clone()).or_default().push(id);
            ws.by_file.entry(f.file.clone()).or_default().push(id);
        }
        ws.reaches_fault = ws.propagate_fault_points();
        ws
    }

    /// All function definitions, indexable by [`FnId`].
    pub fn fns(&self) -> &[FnDef] {
        &self.fns
    }

    /// Function ids defined in `file`, in source order.
    pub fn fns_in_file(&self, file: &str) -> &[FnId] {
        self.by_file.get(file).map_or(&[], Vec::as_slice)
    }

    /// The function whose body span contains 0-based `line` of `file`.
    /// Nested items resolve to the innermost (latest-starting) span.
    pub fn fn_at(&self, file: &str, line: usize) -> Option<FnId> {
        self.fns_in_file(file)
            .iter()
            .copied()
            .filter(|&id| self.fns[id].start_line <= line && line <= self.fns[id].end_line)
            .max_by_key(|&id| self.fns[id].start_line)
    }

    /// Installs the crate-dependency closure used to prune cross-crate
    /// resolution (see [`load_crate_deps`]). An empty map disables the
    /// filter (the in-memory fixture case).
    pub fn set_crate_deps(&mut self, deps: BTreeMap<String, HashSet<String>>) {
        self.crate_deps = deps;
    }

    /// May code in crate `from` call into crate `to`? Unknown crates (root
    /// `src/`, `tests/`, pseudo-paths) stay permissive.
    fn crate_allowed(&self, from: &str, to: &str) -> bool {
        if from == to || self.crate_deps.is_empty() || !self.crate_deps.contains_key(to) {
            return true;
        }
        self.crate_deps
            .get(from)
            .is_none_or(|deps| deps.contains(to))
    }

    /// Resolves one call site from within `caller` to candidate targets.
    pub fn resolve(&self, caller: FnId, call: &Call) -> Vec<FnId> {
        let Some(candidates) = self.by_name.get(&call.name) else {
            return Vec::new();
        };
        let from = crate_of(&self.fns[caller].file);
        let linkable = |id: &FnId| self.crate_allowed(&from, &crate_of(&self.fns[*id].file));
        match call.kind {
            CallKind::Method => candidates
                .iter()
                .copied()
                .filter(|&id| self.fns[id].has_self)
                .filter(linkable)
                .collect(),
            CallKind::Path => match call.qualifier.as_deref() {
                // `Self::helper(...)`: same impl target, same crate.
                Some("Self") => {
                    let me = &self.fns[caller];
                    candidates
                        .iter()
                        .copied()
                        .filter(|&id| {
                            self.fns[id].owner == me.owner
                                && crate_of(&self.fns[id].file) == crate_of(&me.file)
                        })
                        .collect()
                }
                // `crate::helper(...)`: same crate by definition.
                Some("crate") => candidates
                    .iter()
                    .copied()
                    .filter(|&id| crate_of(&self.fns[id].file) == from)
                    .collect(),
                // `Type::assoc(...)`: only fns inside `impl Type`. An empty
                // result means the type is foreign (std/vendored) — no edge.
                Some(q) if q.starts_with(|c: char| c.is_ascii_uppercase()) => candidates
                    .iter()
                    .copied()
                    .filter(|&id| self.fns[id].owner.as_deref() == Some(q))
                    .filter(linkable)
                    .collect(),
                // Module-qualified (`exec::gather_rows`): prefer fns whose
                // file matches the module segment (`…/exec.rs` or
                // `…/exec/…`), falling back to name-wide only when no file
                // matches — `retry::run` must not edge into every `run`.
                Some(q) => {
                    let file_rs = format!("/{q}.rs");
                    let dir = format!("/{q}/");
                    let module_match: Vec<FnId> = candidates
                        .iter()
                        .copied()
                        .filter(|&id| {
                            let f = &self.fns[id].file;
                            f.ends_with(&file_rs) || f.contains(&dir)
                        })
                        .filter(linkable)
                        .collect();
                    if !module_match.is_empty() {
                        return module_match;
                    }
                    candidates.iter().copied().filter(linkable).collect()
                }
                None => candidates.iter().copied().filter(linkable).collect(),
            },
            CallKind::Bare => {
                let file = &self.fns[caller].file;
                let same_file: Vec<FnId> = candidates
                    .iter()
                    .copied()
                    .filter(|&id| &self.fns[id].file == file)
                    .collect();
                if !same_file.is_empty() {
                    return same_file;
                }
                candidates
                    .iter()
                    .copied()
                    .filter(|&id| crate_of(&self.fns[id].file) == from)
                    .collect()
            }
        }
    }

    /// Every function reachable from `seeds` through resolved calls,
    /// including the seeds themselves. Test-code definitions are neither
    /// traversed nor returned: reachability models the production call
    /// graph.
    pub fn reachable(&self, seeds: impl IntoIterator<Item = FnId>) -> HashSet<FnId> {
        self.reach_with_preds(seeds).0
    }

    /// Reachability plus a BFS predecessor map, for witness chains.
    pub fn reach_with_preds(
        &self,
        seeds: impl IntoIterator<Item = FnId>,
    ) -> (HashSet<FnId>, HashMap<FnId, FnId>) {
        let mut seen: HashSet<FnId> = HashSet::new();
        let mut prev: HashMap<FnId, FnId> = HashMap::new();
        let mut queue: VecDeque<FnId> = VecDeque::new();
        for s in seeds {
            if !self.fns[s].is_test && seen.insert(s) {
                queue.push_back(s);
            }
        }
        while let Some(f) = queue.pop_front() {
            for call in &self.fns[f].calls {
                for target in self.resolve(f, call) {
                    if !self.fns[target].is_test && seen.insert(target) {
                        prev.insert(target, f);
                        queue.push_back(target);
                    }
                }
            }
        }
        (seen, prev)
    }

    /// Does `f` contain — or transitively call a function containing — a
    /// fault-point macro invocation?
    pub fn reaches_fault_point(&self, f: FnId) -> bool {
        self.reaches_fault.get(f).copied().unwrap_or(false)
    }

    /// Renders the BFS chain leading to `target` (from
    /// [`Workspace::reach_with_preds`]) as `seed -> … -> target`.
    pub fn chain_label(&self, prev: &HashMap<FnId, FnId>, target: FnId) -> String {
        let mut names = vec![self.fns[target].name.clone()];
        let mut cur = target;
        while let Some(&p) = prev.get(&cur) {
            names.push(self.fns[p].name.clone());
            cur = p;
        }
        names.reverse();
        names.join(" -> ")
    }

    /// Fixpoint: a function reaches a fault point if it contains one or
    /// any resolved callee reaches one.
    fn propagate_fault_points(&self) -> Vec<bool> {
        let n = self.fns.len();
        let mut reaches: Vec<bool> = self.fns.iter().map(|f| f.has_fault_point).collect();
        // Reverse edges: callee -> callers.
        let mut callers: Vec<Vec<FnId>> = vec![Vec::new(); n];
        for (caller, f) in self.fns.iter().enumerate() {
            for call in &f.calls {
                for target in self.resolve(caller, call) {
                    callers[target].push(caller);
                }
            }
        }
        let mut queue: VecDeque<FnId> = (0..n).filter(|&f| reaches[f]).collect();
        while let Some(f) = queue.pop_front() {
            for &c in &callers[f] {
                if !reaches[c] {
                    reaches[c] = true;
                    queue.push_back(c);
                }
            }
        }
        reaches
    }
}

/// The crate key of a workspace-relative path (`crates/pool` for
/// `crates/pool/src/lib.rs`; the first component for root `src`/`tests`).
pub fn crate_of(path: &str) -> String {
    let mut parts = path.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(name)) => format!("crates/{name}"),
        (Some(first), _) => first.to_string(),
        (None, _) => String::new(),
    }
}

/// Reads each `crates/*/Cargo.toml` under `root` and returns the
/// *transitive* `[dependencies]` closure, keyed and valued by crate key
/// (`"crates/<dir>"`). Only workspace-internal dependencies are recorded;
/// `[dev-dependencies]` are ignored (test-only linkage is not part of the
/// production call graph). Parsing is line-oriented on the same TOML
/// subset `lint.toml` uses.
pub fn load_crate_deps(root: &std::path::Path) -> BTreeMap<String, HashSet<String>> {
    let mut direct: BTreeMap<String, HashSet<String>> = BTreeMap::new();
    let Ok(entries) = std::fs::read_dir(root.join("crates")) else {
        return direct;
    };
    let mut dirs: Vec<String> = entries
        .flatten()
        .filter(|e| e.path().is_dir())
        .filter_map(|e| e.file_name().to_str().map(str::to_string))
        .collect();
    dirs.sort();
    for dir in &dirs {
        let key = format!("crates/{dir}");
        let deps = direct.entry(key).or_default();
        let Ok(text) = std::fs::read_to_string(root.join("crates").join(dir).join("Cargo.toml"))
        else {
            continue;
        };
        let mut in_deps = false;
        for line in text.lines() {
            let line = line.trim();
            if let Some(section) = line.strip_prefix('[') {
                in_deps = section.trim_end_matches(']') == "dependencies";
                continue;
            }
            if !in_deps {
                continue;
            }
            let name: String = line
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_' || *c == '-')
                .collect();
            if !name.is_empty() && dirs.iter().any(|d| d == &name) {
                deps.insert(format!("crates/{name}"));
            }
        }
    }
    // Transitive closure (the graphs are tiny; a fixpoint sweep is fine).
    loop {
        let mut grew = false;
        for key in direct.keys().cloned().collect::<Vec<_>>() {
            let indirect: Vec<String> = direct[&key]
                .iter()
                .filter_map(|d| direct.get(d))
                .flatten()
                .cloned()
                .collect();
            let deps = direct.get_mut(&key).expect("key enumerated from map");
            for d in indirect {
                grew |= deps.insert(d);
            }
        }
        if !grew {
            break;
        }
    }
    direct
}

// --- definition + call extraction ------------------------------------------

/// An `impl` block's byte span and target type name.
struct ImplSpan {
    open: usize,
    close: usize,
    target: String,
}

fn collect_fns(path: &str, sf: &SourceFile, out: &mut Vec<FnDef>) {
    let code: String = sf
        .code_lines
        .iter()
        .flat_map(|l| [l.as_str(), "\n"])
        .collect();
    let impls = collect_impls(&code);
    let bytes = code.as_bytes();
    let mut at = 0usize;
    while let Some(rel) = code[at..].find("fn ") {
        let abs = at + rel;
        at = abs + 3;
        // Word boundary before: `pub fn` ok, identifier tails (`gen_fn `)
        // and raw identifiers (`r#fn`) must not match.
        if abs > 0 {
            let prev = bytes[abs - 1];
            if prev.is_ascii_alphanumeric() || prev == b'_' || prev == b'#' {
                continue;
            }
        }
        let name = read_ident(code[abs + 3..].trim_start());
        if name.is_empty() {
            continue;
        }
        let start_line = code[..abs].matches('\n').count();
        let sig_end = match signature_end(&code, abs) {
            Some(e) => e,
            None => continue,
        };
        let (end_abs, body): (usize, &str) = match sig_end {
            SigEnd::Body(open) => match matched_brace(&code, open) {
                Some(close) => (close, &code[open..=close]),
                None => continue,
            },
            SigEnd::Declaration(semi) => (semi, ""),
        };
        let end_line = code[..=end_abs.min(code.len() - 1)].matches('\n').count();
        let params = param_list(&code, abs).unwrap_or("");
        let has_self = crate::lexer::find_boundary(params, "self", true).is_some();
        let owner = impls
            .iter()
            .filter(|i| i.open < abs && abs < i.close)
            .max_by_key(|i| i.open)
            .map(|i| i.target.clone());
        let calls = extract_calls(body, start_line_of(&code, abs, body));
        let has_fault_point = body.contains("fault_point");
        out.push(FnDef {
            name,
            file: path.to_string(),
            start_line,
            end_line,
            has_self,
            owner,
            is_test: sf.test_lines.get(start_line).copied().unwrap_or(false)
                || crate::lints::is_test_path(path),
            has_fault_point,
            calls,
        });
    }
}

/// Finds `impl` block spans and their target type (`Bar` for both
/// `impl<T> Bar<T>` and `impl Foo for Bar`).
fn collect_impls(code: &str) -> Vec<ImplSpan> {
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(at) = crate::lexer::find_boundary(&code[from..], "impl", true) {
        let abs = from + at;
        from = abs + 4;
        let Some(SigEnd::Body(open)) = signature_end(code, abs) else {
            continue;
        };
        let Some(close) = matched_brace(code, open) else {
            continue;
        };
        let header = &code[abs + 4..open];
        // `impl Trait for Type {` — the receiver type follows `for`.
        let target_src = match crate::lexer::find_boundary(header, "for", true) {
            Some(p) => &header[p + 3..],
            None => skip_generics(header),
        };
        let target = read_ident(
            target_src
                .trim_start()
                .trim_start_matches('&')
                .trim_start()
                .trim_start_matches("mut ")
                .trim_start(),
        );
        if !target.is_empty() {
            out.push(ImplSpan {
                open: abs,
                close,
                target,
            });
        }
    }
    out
}

/// Skips a leading `<...>` generic parameter list.
fn skip_generics(s: &str) -> &str {
    let t = s.trim_start();
    if !t.starts_with('<') {
        return t;
    }
    let mut depth = 0i32;
    for (i, c) in t.char_indices() {
        match c {
            '<' => depth += 1,
            '>' => {
                depth -= 1;
                if depth == 0 {
                    return &t[i + 1..];
                }
            }
            _ => {}
        }
    }
    t
}

/// 0-based line on which a fn's body text starts (the line of its opening
/// brace). `body` is a subslice of `code`; empty bodies fall back to the
/// signature line.
fn start_line_of(code: &str, sig_at: usize, body: &str) -> usize {
    if body.is_empty() {
        return code[..sig_at].matches('\n').count();
    }
    let offset = subslice_offset(code, body);
    code[..offset].matches('\n').count()
}

/// Byte offset of subslice `sub` within `all` (both views of the same
/// allocation; pointer arithmetic on addresses is safe code).
fn subslice_offset(all: &str, sub: &str) -> usize {
    (sub.as_ptr() as usize).saturating_sub(all.as_ptr() as usize)
}

enum SigEnd {
    /// Byte offset of the opening body brace.
    Body(usize),
    /// Byte offset of the terminating `;` (no body).
    Declaration(usize),
}

/// Finds where the signature starting at `at` ends, skipping generic
/// parameter lists (`fn f<T: Trait<U>>(...)`) and where-clauses.
fn signature_end(code: &str, at: usize) -> Option<SigEnd> {
    let bytes = code.as_bytes();
    let mut i = at;
    let mut angle = 0i32;
    let mut paren = 0i32;
    while i < bytes.len() {
        match bytes[i] {
            b'<' => angle += 1,
            // `->` is not a generic close.
            b'>' if i == 0 || bytes[i - 1] != b'-' => angle = (angle - 1).max(0),
            b'(' => paren += 1,
            b')' => paren -= 1,
            b'{' if angle == 0 && paren == 0 => return Some(SigEnd::Body(i)),
            b';' if angle == 0 && paren == 0 => return Some(SigEnd::Declaration(i)),
            _ => {}
        }
        i += 1;
    }
    None
}

/// The parameter list text `(...)` of the fn starting at `fn_at`.
fn param_list(code: &str, fn_at: usize) -> Option<&str> {
    let bytes = code.as_bytes();
    let mut i = fn_at;
    let mut angle = 0i32;
    loop {
        if i >= bytes.len() {
            return None;
        }
        match bytes[i] {
            b'<' => angle += 1,
            b'>' if i > 0 && bytes[i - 1] != b'-' => angle = (angle - 1).max(0),
            b'(' if angle == 0 => break,
            b'{' | b';' if angle == 0 => return None,
            _ => {}
        }
        i += 1;
    }
    let open = i;
    let mut depth = 0i32;
    for (j, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&code[open..=j]);
                }
            }
            _ => {}
        }
    }
    None
}

/// Byte offset of the `}` matching the `{` at `open`.
fn matched_brace(code: &str, open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (i, b) in code.bytes().enumerate().skip(open) {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// Reads an identifier from the start of `s`, stripping an `r#` raw prefix.
fn read_ident(s: &str) -> String {
    let s = s.strip_prefix("r#").unwrap_or(s);
    s.chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect()
}

/// Extracts call sites from a fn body (scrubbed text). `first_line` is the
/// 0-based line of the body's first character, used to absolutize lines.
fn extract_calls(body: &str, first_line: usize) -> Vec<Call> {
    let mut out = Vec::new();
    let bytes = body.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        let b = bytes[i];
        if !(b.is_ascii_alphabetic() || b == b'_') {
            i += 1;
            continue;
        }
        // Identifier start must not be an identifier tail.
        if i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_') {
            i += 1;
            continue;
        }
        let start = i;
        while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
            i += 1;
        }
        let raw_word = &body[start..i];
        // Raw identifier call: `r#try(...)` — the lexer leaves `r#` in
        // scrubbed code (no `"` follows, so it is not a raw string).
        let (word, ident_start) = if raw_word == "r"
            && bytes.get(i) == Some(&b'#')
            && bytes
                .get(i + 1)
                .is_some_and(|c| c.is_ascii_alphabetic() || *c == b'_')
        {
            let s2 = i + 1;
            let mut j = s2;
            while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
                j += 1;
            }
            let w = &body[s2..j];
            i = j;
            (w, start)
        } else {
            (raw_word, start)
        };
        if word.is_empty() || NON_CALL_WORDS.contains(&word) {
            continue;
        }
        // Skip whitespace, then an optional turbofish, to find `(`.
        let mut j = i;
        while j < bytes.len() && (bytes[j] == b' ' || bytes[j] == b'\t') {
            j += 1;
        }
        if bytes.get(j) == Some(&b':') && bytes.get(j + 1) == Some(&b':') {
            if bytes.get(j + 2) == Some(&b'<') {
                // Turbofish: skip the nested generic argument list. Inside
                // `::<…>` every `<`/`>` is a bracket, so depth counting
                // cannot be derailed by comparison operators.
                let mut depth = 0i32;
                let mut k = j + 2;
                while k < bytes.len() {
                    match bytes[k] {
                        b'<' => depth += 1,
                        b'>' => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                j = k + 1;
                while j < bytes.len() && (bytes[j] == b' ' || bytes[j] == b'\t') {
                    j += 1;
                }
            } else {
                // `word::more`: not a call of `word`; the path tail will be
                // revisited as its own identifier.
                continue;
            }
        }
        if bytes.get(j) != Some(&b'(') {
            continue;
        }
        // Macro invocations (`name!(`) are not function calls.
        if bytes.get(i) == Some(&b'!') {
            continue;
        }
        // Classify by what precedes the identifier.
        let mut p = ident_start;
        while p > 0 && (bytes[p - 1] == b' ' || bytes[p - 1] == b'\t') {
            p -= 1;
        }
        let (kind, qualifier) = if p > 0 && bytes[p - 1] == b'.' {
            (CallKind::Method, None)
        } else if p > 1 && bytes[p - 1] == b':' && bytes[p - 2] == b':' {
            (CallKind::Path, path_qualifier(body, p - 2))
        } else {
            (CallKind::Bare, None)
        };
        let line = first_line + body[..start].matches('\n').count();
        out.push(Call {
            name: word.to_string(),
            kind,
            qualifier,
            line,
        });
    }
    out
}

/// The path segment ending at the `::` that starts at byte `colons`
/// (`Plan` for `Plan::new`, `exec` for `shard::exec::run`). `None` when the
/// segment is not a plain identifier (e.g. closes a generic list).
fn path_qualifier(body: &str, colons: usize) -> Option<String> {
    let bytes = body.as_bytes();
    let mut end = colons;
    while end > 0 && (bytes[end - 1] == b' ' || bytes[end - 1] == b'\t') {
        end -= 1;
    }
    let mut start = end;
    while start > 0 && (bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_') {
        start -= 1;
    }
    if start == end {
        return None;
    }
    Some(body[start..end].to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::SourceFile;

    fn build(src: &str) -> Workspace {
        Workspace::build(&[("crates/k/src/a.rs".to_string(), SourceFile::scan(src))])
    }

    fn find<'w>(ws: &'w Workspace, name: &str) -> &'w FnDef {
        ws.fns()
            .iter()
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("no fn `{name}` found"))
    }

    fn id_of(ws: &Workspace, name: &str) -> FnId {
        ws.fns().iter().position(|f| f.name == name).unwrap()
    }

    #[test]
    fn defs_and_spans_are_extracted() {
        let ws = build("fn a() {\n    b();\n}\n\npub fn b() -> u32 {\n    1\n}\n");
        assert_eq!(ws.fns().len(), 2);
        let a = find(&ws, "a");
        assert_eq!((a.start_line, a.end_line), (0, 2));
        assert_eq!(a.calls.len(), 1);
        assert_eq!(a.calls[0].name, "b");
        assert_eq!(a.calls[0].kind, CallKind::Bare);
        assert_eq!(a.calls[0].line, 1);
    }

    #[test]
    fn method_and_path_calls_are_classified() {
        let ws = build("fn f(x: &X) {\n    x.update(1);\n    exec::gather(x);\n    plain();\n}\n");
        let f = find(&ws, "f");
        let kinds: Vec<(String, CallKind)> =
            f.calls.iter().map(|c| (c.name.clone(), c.kind)).collect();
        assert!(kinds.contains(&("update".into(), CallKind::Method)));
        assert!(kinds.contains(&("gather".into(), CallKind::Path)));
        assert!(kinds.contains(&("plain".into(), CallKind::Bare)));
    }

    #[test]
    fn turbofish_calls_resolve_to_the_base_name() {
        let ws = build(
            "fn f() {\n    g::<Vec<Vec<u32>>>(1);\n    h.collect::<Vec<_>>();\n    if a < b { c(); }\n}\nfn g(_x: u32) {}\nfn c() {}\n",
        );
        let f = find(&ws, "f");
        assert!(f
            .calls
            .iter()
            .any(|c| c.name == "g" && c.kind == CallKind::Bare));
        assert!(f
            .calls
            .iter()
            .any(|c| c.name == "collect" && c.kind == CallKind::Method));
        // `a < b` is a comparison, not a turbofish; `c()` inside the block
        // is still seen, and `b` is not a call.
        assert!(f.calls.iter().any(|c| c.name == "c"));
        assert!(!f.calls.iter().any(|c| c.name == "b"));
    }

    #[test]
    fn raw_identifiers_normalize() {
        let ws = build("fn r#try() {}\nfn f() {\n    r#try();\n}\n");
        assert!(ws.fns().iter().any(|f| f.name == "try"));
        let f = find(&ws, "f");
        assert!(f.calls.iter().any(|c| c.name == "try"));
        let reach = ws.reachable([id_of(&ws, "f")]);
        assert!(reach.iter().any(|&id| ws.fns()[id].name == "try"));
    }

    #[test]
    fn macros_are_not_calls() {
        let ws =
            build("fn f() {\n    panic!(\"x\");\n    vec![1];\n    real();\n}\nfn real() {}\n");
        let f = find(&ws, "f");
        assert_eq!(f.calls.len(), 1);
        assert_eq!(f.calls[0].name, "real");
    }

    #[test]
    fn impl_owner_is_tracked_through_trait_impls() {
        let src = "struct Plan;\nimpl Plan {\n    fn new() -> Plan { Plan }\n}\nimpl Drop for Plan {\n    fn drop(&mut self) {}\n}\nfn free() {}\n";
        let ws = build(src);
        assert_eq!(find(&ws, "new").owner.as_deref(), Some("Plan"));
        assert_eq!(find(&ws, "drop").owner.as_deref(), Some("Plan"));
        assert_eq!(find(&ws, "free").owner, None);
        assert!(find(&ws, "drop").has_self);
        assert!(!find(&ws, "new").has_self);
    }

    #[test]
    fn type_qualified_calls_resolve_only_to_that_impl() {
        let files = [
            (
                "crates/k/src/a.rs".to_string(),
                SourceFile::scan("fn f() { Plan::new(); Foreign::new(); }\n"),
            ),
            (
                "crates/k/src/b.rs".to_string(),
                SourceFile::scan(
                    "impl Plan {\n    fn new() {}\n}\nimpl Other {\n    fn new() {}\n}\n",
                ),
            ),
        ];
        let ws = Workspace::build(&files);
        let f = id_of(&ws, "f");
        let plan_call = &ws.fns()[f].calls[0];
        let targets = ws.resolve(f, plan_call);
        assert_eq!(targets.len(), 1);
        assert_eq!(ws.fns()[targets[0]].owner.as_deref(), Some("Plan"));
        // `Foreign::new` matches no workspace impl: no edge, not "every new".
        let foreign_call = &ws.fns()[f].calls[1];
        assert!(ws.resolve(f, foreign_call).is_empty());
    }

    #[test]
    fn bare_calls_resolve_same_file_then_same_crate() {
        let files = [
            (
                "crates/k/src/a.rs".to_string(),
                SourceFile::scan("fn f() { helper(); }\n"),
            ),
            (
                "crates/k/src/b.rs".to_string(),
                SourceFile::scan("fn helper() { inner(); }\nfn inner() {}\n"),
            ),
            (
                "crates/other/src/lib.rs".to_string(),
                SourceFile::scan("fn helper() {}\n"),
            ),
        ];
        let ws = Workspace::build(&files);
        let f = ws.fns().iter().position(|d| d.name == "f").unwrap();
        let targets = ws.resolve(f, &ws.fns()[f].calls[0]);
        // Same crate only: crates/k/src/b.rs, not crates/other.
        assert_eq!(targets.len(), 1);
        assert_eq!(ws.fns()[targets[0]].file, "crates/k/src/b.rs");
        // Two-hop reachability.
        let reach = ws.reachable([f]);
        assert!(reach.iter().any(|&id| ws.fns()[id].name == "inner"));
    }

    #[test]
    fn reachability_skips_test_code() {
        let src = "fn f() { helper(); }\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\n";
        let ws = build(src);
        let reach = ws.reachable([id_of(&ws, "f")]);
        assert_eq!(reach.len(), 1, "test-only helper must not be traversed");
    }

    #[test]
    fn fault_point_reachability_propagates_to_callers() {
        let src = "fn outer() { mid(); }\nfn mid() { leaf(); }\nfn leaf() { resilience::fault_point!(\"x\"); }\nfn clean() {}\n";
        let ws = build(src);
        assert!(ws.reaches_fault_point(id_of(&ws, "leaf")));
        assert!(ws.reaches_fault_point(id_of(&ws, "mid")));
        assert!(ws.reaches_fault_point(id_of(&ws, "outer")));
        assert!(!ws.reaches_fault_point(id_of(&ws, "clean")));
    }

    #[test]
    fn witness_chains_name_the_hops() {
        let src = "fn hot() { a(); }\nfn a() { b(); }\nfn b() {}\n";
        let ws = build(src);
        let (reach, prev) = ws.reach_with_preds([id_of(&ws, "hot")]);
        assert!(reach.contains(&id_of(&ws, "b")));
        assert_eq!(ws.chain_label(&prev, id_of(&ws, "b")), "hot -> a -> b");
    }

    #[test]
    fn fn_at_finds_the_innermost_span() {
        let src = "fn outer() {\n    fn inner() {\n        x();\n    }\n    inner();\n}\n";
        let ws = build(src);
        let at = ws.fn_at("crates/k/src/a.rs", 2).unwrap();
        assert_eq!(ws.fns()[at].name, "inner");
        let at = ws.fn_at("crates/k/src/a.rs", 4).unwrap();
        assert_eq!(ws.fns()[at].name, "outer");
    }
}
