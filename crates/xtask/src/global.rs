//! Workspace-level concurrency lints (L009–L012).
//!
//! Unlike the per-file lints in [`crate::lints`], these four reason over
//! the whole file set at once, using the call graph from
//! [`crate::symbols`]:
//!
//! * **L009** — transitive hot-path closure: every function reachable from
//!   a `[hot] paths` module inherits the panic-freedom (L003) and
//!   zero-alloc (L005) rules, closing the one-file loophole where a hot
//!   kernel calls an allocating helper defined elsewhere.
//! * **L010** — atomics happens-before audit: every `Acquire`/`Release`/
//!   `AcqRel` site must name its pairing site in a `// PAIRS: <label>`
//!   comment; labels are matched bidirectionally across the workspace
//!   (each group needs both an acquire side and a release side).
//!   `SeqCst` always requires a waiver stating why neither pairing
//!   discipline nor a weaker order suffices.
//! * **L011** — lock-order and poisoning discipline: per-crate, the
//!   lexical lock-acquisition order inside each function induces a
//!   directed graph over lock names; cycles are flagged. Bare
//!   `.unwrap()`/`.expect()` on lock results (and ad-hoc
//!   `unwrap_or_else(|e| e.into_inner())` poisoning recovery) outside the
//!   `[locks] helpers` files must go through `resilience::audit`.
//! * **L012** — exchange-mutation coverage: in `[exchange] paths` files,
//!   every write to a named exchange buffer must be dominated by a
//!   `fault_point!` site — directly earlier in the function, or via an
//!   earlier call whose callee transitively contains one — so chaos
//!   testing provably covers all cross-shard traffic.
//!
//! All four skip test code outright (test paths and `cfg(test)` regions):
//! they guard the production concurrency story, and e.g. a PAIRS group
//! must not be satisfiable by a test-only site.
//!
//! Diagnostics are returned per file and merged into the per-file pass in
//! [`crate::lints::lint_file_with`], so the ordinary waiver machinery
//! applies to them unchanged.

use std::collections::{BTreeMap, HashMap, HashSet};

use crate::config::Config;
use crate::lexer::{find_boundary, SourceFile};
use crate::lints::{self, Diagnostic};
use crate::symbols::{FnId, Workspace};

/// Buffer-mutating methods L012 treats as exchange writes.
const EXCHANGE_MUTATORS: &[&str] = &["row_mut", "resize_for_overwrite", "copy_from", "fill"];

/// Runs every workspace-level lint, returning raw (pre-waiver)
/// diagnostics grouped by file path.
pub fn lint_globals(
    files: &[(String, SourceFile)],
    ws: &Workspace,
    cfg: &Config,
) -> HashMap<String, Vec<Diagnostic>> {
    let mut out: HashMap<String, Vec<Diagnostic>> = HashMap::new();
    let by_path: HashMap<&str, &SourceFile> =
        files.iter().map(|(p, sf)| (p.as_str(), sf)).collect();
    let mut push = |d: Diagnostic| out.entry(d.file.clone()).or_default().push(d);

    if !cfg.disabled.iter().any(|d| d == "L009") {
        l009_hot_closure(&by_path, ws, cfg, &mut push);
    }
    if !cfg.disabled.iter().any(|d| d == "L010") {
        l010_pairing(files, &mut push);
    }
    if !cfg.disabled.iter().any(|d| d == "L011") {
        l011_locks(files, ws, cfg, &mut push);
    }
    if !cfg.disabled.iter().any(|d| d == "L012") {
        l012_exchange(&by_path, ws, cfg, &mut push);
    }
    out
}

/// Is this line production code (not a test path, not a `cfg(test)` line)?
fn prod_line(path: &str, sf: &SourceFile, line: usize) -> bool {
    !lints::is_test_path(path) && !sf.test_lines.get(line).copied().unwrap_or(false)
}

// --- L009 ------------------------------------------------------------------

fn l009_hot_closure(
    by_path: &HashMap<&str, &SourceFile>,
    ws: &Workspace,
    cfg: &Config,
    push: &mut dyn FnMut(Diagnostic),
) {
    let seeds: Vec<FnId> = (0..ws.fns().len())
        .filter(|&id| {
            let f = &ws.fns()[id];
            !f.is_test && Config::path_in(&f.file, &cfg.hot_paths)
        })
        .collect();
    if seeds.is_empty() {
        return;
    }
    let (reach, prev) = ws.reach_with_preds(seeds);
    // Overlapping spans (nested fns) would double-report; dedup by site.
    let mut seen: HashSet<(String, usize, &'static str)> = HashSet::new();
    let mut flagged: Vec<FnId> = reach.into_iter().collect();
    flagged.sort_unstable();
    for id in flagged {
        let f = &ws.fns()[id];
        // Hot files themselves are already under per-file L003/L005.
        if Config::path_in(&f.file, &cfg.hot_paths) {
            continue;
        }
        let Some(sf) = by_path.get(f.file.as_str()) else {
            continue;
        };
        let chain = ws.chain_label(&prev, id);
        for line in f.start_line..=f.end_line.min(sf.nlines().saturating_sub(1)) {
            if !prod_line(&f.file, sf, line) {
                continue;
            }
            let code = sf.code(line);
            let mut hit = |what: &'static str, detail: String| {
                if seen.insert((f.file.clone(), line, what)) {
                    push(Diagnostic::new(
                        "L009",
                        &f.file,
                        line,
                        format!(
                            "{detail} in `{}`, which is reachable from a hot path \
                             (call chain: {chain}) — hot-path closure inherits the \
                             panic-freedom/zero-alloc rules",
                            f.name
                        ),
                    ));
                }
            };
            if code.contains(".unwrap()") {
                hit("unwrap", "`.unwrap()`".to_string());
            }
            if let Some(at) = code.find(".expect(") {
                if !lints::expect_states_invariant(&sf.raw_lines[line], at) {
                    hit(
                        "expect",
                        "`.expect()` without a multi-word invariant message".to_string(),
                    );
                }
            }
            for pat in lints::PANIC_MACROS {
                if find_boundary(code, pat, false).is_some() {
                    hit("panic", format!("`{pat}(…)`"));
                }
            }
            for pat in lints::ALLOC_PATTERNS {
                if find_boundary(code, pat, false).is_some() {
                    hit("alloc", format!("allocating call `{pat}`"));
                }
            }
        }
    }
}

// --- L010 ------------------------------------------------------------------

/// One `PAIRS:`-labeled atomic site.
struct PairSite {
    file: String,
    line: usize,
    acquires: bool,
    releases: bool,
}

fn l010_pairing(files: &[(String, SourceFile)], push: &mut dyn FnMut(Diagnostic)) {
    let mut groups: BTreeMap<String, Vec<PairSite>> = BTreeMap::new();
    for (path, sf) in files {
        for (line, code) in sf.code_lines.iter().enumerate() {
            if !prod_line(path, sf, line) {
                continue;
            }
            if find_boundary(code, "Ordering::SeqCst", true).is_some() {
                push(Diagnostic::new(
                    "L010",
                    path,
                    line,
                    "`Ordering::SeqCst` — sequential consistency is almost never the \
                     actual requirement; waive with the argument for why no \
                     acquire/release pairing (with a `// PAIRS:` label) suffices"
                        .into(),
                ));
            }
            let acquires = find_boundary(code, "Ordering::Acquire", true).is_some()
                || find_boundary(code, "Ordering::AcqRel", true).is_some();
            let releases = find_boundary(code, "Ordering::Release", true).is_some()
                || find_boundary(code, "Ordering::AcqRel", true).is_some();
            if !(acquires || releases) {
                continue;
            }
            match pairs_label(sf, line) {
                Some(label) => groups.entry(label).or_default().push(PairSite {
                    file: path.clone(),
                    line,
                    acquires,
                    releases,
                }),
                None => push(Diagnostic::new(
                    "L010",
                    path,
                    line,
                    "acquire/release site without a `// PAIRS: <label>` comment naming \
                     its pairing site — the happens-before edge must be auditable"
                        .into(),
                )),
            }
        }
    }
    for (label, sites) in &groups {
        let acquire_side = sites.iter().any(|s| s.acquires);
        let release_side = sites.iter().any(|s| s.releases);
        let problem = if sites.len() < 2 {
            Some("names no other site (a happens-before edge needs two ends)")
        } else if !acquire_side {
            Some("has no acquire-side site (Acquire or AcqRel)")
        } else if !release_side {
            Some("has no release-side site (Release or AcqRel)")
        } else {
            None
        };
        if let Some(why) = problem {
            for s in sites {
                push(Diagnostic::new(
                    "L010",
                    &s.file,
                    s.line,
                    format!("`PAIRS: {label}` group {why}"),
                ));
            }
        }
    }
}

/// The `PAIRS: <label>` tag on `line`'s comment, or in the contiguous
/// comment/attribute block directly above (mirroring how `SAFETY:` is
/// attached in L001).
fn pairs_label(sf: &SourceFile, line: usize) -> Option<String> {
    if let Some(l) = extract_tag(&sf.line_comments[line]) {
        return Some(l);
    }
    let mut l = line;
    while l > 0 {
        l -= 1;
        let code = sf.code(l).trim();
        let is_attr = code.starts_with("#[") || code.starts_with("#![");
        if !(code.is_empty() || is_attr) {
            return None;
        }
        if let Some(label) = extract_tag(&sf.line_comments[l]) {
            return Some(label);
        }
        if sf.raw_lines[l].trim().is_empty() {
            return None;
        }
    }
    None
}

/// First whitespace-delimited token after `PAIRS:` in a comment.
fn extract_tag(comment: &str) -> Option<String> {
    let at = comment.find("PAIRS:")?;
    let label: String = comment[at + "PAIRS:".len()..]
        .trim_start()
        .chars()
        .take_while(|c| !c.is_whitespace())
        .collect();
    (!label.is_empty()).then_some(label)
}

// --- L011 ------------------------------------------------------------------

/// One crate's lock-acquisition graph: `(first, second)` lock names →
/// `(file, line)` of the second acquisition that created the edge.
type LockEdges = BTreeMap<(String, String), (String, usize)>;

fn l011_locks(
    files: &[(String, SourceFile)],
    ws: &Workspace,
    cfg: &Config,
    push: &mut dyn FnMut(Diagnostic),
) {
    // Poisoning discipline: raw lock-result handling outside audit helpers.
    const POISON_PATTERNS: &[&str] = &[
        ".lock().unwrap",
        ".lock().expect(",
        ".read().unwrap",
        ".write().unwrap",
        ".get_mut().unwrap",
    ];
    for (path, sf) in files {
        if Config::path_in(path, &cfg.lock_helpers) {
            continue;
        }
        for (line, code) in sf.code_lines.iter().enumerate() {
            if !prod_line(path, sf, line) {
                continue;
            }
            let adhoc_recovery = code.contains("unwrap_or_else") && code.contains("into_inner");
            if adhoc_recovery || POISON_PATTERNS.iter().any(|p| code.contains(p)) {
                push(Diagnostic::new(
                    "L011",
                    path,
                    line,
                    "raw poisoned-lock handling — route lock acquisition through \
                     `resilience::audit` (recover/recover_wait/recover_into) \
                     so recoveries are counted, or waive with the soundness argument"
                        .into(),
                ));
            }
        }
    }

    // Lock-order discipline: per-crate acquisition graph over lock names.
    let mut edges: BTreeMap<String, LockEdges> = BTreeMap::new();
    for f in ws.fns() {
        if f.is_test {
            continue;
        }
        let Some(sf) = files.iter().find(|(p, _)| p == &f.file).map(|(_, sf)| sf) else {
            continue;
        };
        let mut seq: Vec<(String, usize)> = Vec::new();
        for line in f.start_line..=f.end_line.min(sf.nlines().saturating_sub(1)) {
            if !prod_line(&f.file, sf, line) {
                continue;
            }
            for name in lock_receivers(sf.code(line)) {
                seq.push((name, line));
            }
        }
        let krate = crate::symbols::crate_of(&f.file);
        for i in 0..seq.len() {
            for j in (i + 1)..seq.len() {
                if seq[i].0 != seq[j].0 {
                    edges
                        .entry(krate.clone())
                        .or_default()
                        .entry((seq[i].0.clone(), seq[j].0.clone()))
                        .or_insert((f.file.clone(), seq[j].1));
                }
            }
        }
    }
    for (krate, graph) in &edges {
        for cycle in find_cycles(graph) {
            let (witness_file, witness_line) = &graph[&(cycle[0].clone(), cycle[1].clone())];
            push(Diagnostic::new(
                "L011",
                witness_file,
                *witness_line,
                format!(
                    "lock-order cycle in {krate}: {} — two functions acquire these \
                     locks in conflicting orders, which can deadlock",
                    cycle.join(" -> ")
                ),
            ));
        }
    }
}

/// Lock names acquired on one scrubbed code line: `.lock()` receivers,
/// bare `lock(&x)` helper calls, and `audit::recover("site", &x)` calls.
fn lock_receivers(code: &str) -> Vec<String> {
    let mut out = Vec::new();
    let bytes = code.as_bytes();
    let mut from = 0usize;
    while let Some(rel) = code[from..].find(".lock(") {
        let at = from + rel;
        from = at + 6;
        if let Some(name) = receiver_before(code, at) {
            out.push(name);
        }
    }
    // Bare `lock(...)` helper (not `.lock(`, not `xlock(`).
    let mut pos = 0usize;
    while let Some(rel) = find_boundary(&code[pos..], "lock", true) {
        let at = pos + rel;
        pos = at + 4;
        if at > 0 && bytes[at - 1] == b'.' {
            continue;
        }
        if !code[at + 4..].starts_with('(') {
            continue;
        }
        if let Some(name) = normalize_lock_expr(first_arg(&code[at + 5..])) {
            out.push(name);
        }
    }
    // `recover("site", &x)` — the audit helper's lock argument is second.
    let mut pos = 0usize;
    while let Some(rel) = find_boundary(&code[pos..], "recover", true) {
        let at = pos + rel;
        pos = at + 7;
        let Some(tail) = code[at + 7..].strip_prefix('(') else {
            continue;
        };
        let Some(comma) = tail.find(',') else {
            continue;
        };
        if let Some(name) = normalize_lock_expr(first_arg(&tail[comma + 1..])) {
            out.push(name);
        }
    }
    out
}

/// The receiver expression ending just before the `.` at byte `dot_at`,
/// normalized to a lock name.
fn receiver_before(code: &str, dot_at: usize) -> Option<String> {
    let bytes = code.as_bytes();
    let mut i = dot_at;
    while i > 0 {
        let b = bytes[i - 1];
        if b.is_ascii_alphanumeric() || b == b'_' || b == b'.' {
            i -= 1;
        } else if b == b']' {
            // Skip the index expression to its opening bracket.
            let mut depth = 0i32;
            while i > 0 {
                match bytes[i - 1] {
                    b']' => depth += 1,
                    b'[' => {
                        depth -= 1;
                        if depth == 0 {
                            i -= 1;
                            break;
                        }
                    }
                    _ => {}
                }
                i -= 1;
            }
        } else {
            break;
        }
    }
    normalize_lock_expr(&code[i..dot_at])
}

/// Text of the first argument (up to a top-level `,` or `)`).
fn first_arg(s: &str) -> &str {
    let mut depth = 0i32;
    for (i, c) in s.char_indices() {
        match c {
            '(' | '[' => depth += 1,
            ')' | ']' if depth > 0 => depth -= 1,
            ')' | ',' => return &s[..i],
            _ => {}
        }
    }
    s
}

/// Normalizes a lock/buffer expression to its identifying name: strips
/// borrows and index brackets and takes the *last* path segment, so
/// `&self.stages[b]` → `stages` and a guard-deref write like `rb.hblk`
/// → `hblk` (the buffer, not the guard binding).
fn normalize_lock_expr(expr: &str) -> Option<String> {
    let mut e = expr.trim();
    loop {
        let next = e
            .trim_start_matches(['&', '*', ' '])
            .trim_start_matches("mut ")
            .trim_start();
        if next == e {
            break;
        }
        e = next;
    }
    let ident_prefix = |s: &str| -> String {
        s.chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect()
    };
    let name = e.rsplit('.').map(ident_prefix).find(|n| !n.is_empty())?;
    (!name.is_empty() && !name.chars().next().is_some_and(|c| c.is_ascii_digit())).then_some(name)
}

/// Enumerates one representative cycle per strongly-connected component
/// with more than one node, as a lock-name path `a -> b -> … -> a`.
fn find_cycles(graph: &LockEdges) -> Vec<Vec<String>> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (a, b) in graph.keys() {
        adj.entry(a.as_str()).or_default().push(b.as_str());
    }
    let mut cycles = Vec::new();
    let mut reported: HashSet<&str> = HashSet::new();
    for start in adj.keys().copied().collect::<Vec<_>>() {
        if reported.contains(start) {
            continue;
        }
        // DFS from `start` looking for a path back to `start`.
        let mut stack: Vec<(&str, Vec<&str>)> = vec![(start, vec![start])];
        let mut visited: HashSet<&str> = HashSet::new();
        while let Some((node, path)) = stack.pop() {
            for &next in adj.get(node).map_or(&Vec::new(), |v| v) {
                if next == start {
                    let mut cycle: Vec<String> = path.iter().map(|s| s.to_string()).collect();
                    cycle.push(start.to_string());
                    for n in &path {
                        reported.insert(adj.keys().find(|k| **k == *n).copied().unwrap_or(start));
                    }
                    cycles.push(cycle);
                    stack.clear();
                    break;
                }
                if visited.insert(next) {
                    let mut p = path.clone();
                    p.push(next);
                    stack.push((next, p));
                }
            }
        }
    }
    cycles
}

// --- L012 ------------------------------------------------------------------

fn l012_exchange(
    by_path: &HashMap<&str, &SourceFile>,
    ws: &Workspace,
    cfg: &Config,
    push: &mut dyn FnMut(Diagnostic),
) {
    for path in &cfg.exchange_paths {
        let Some(sf) = by_path.get(path.as_str()) else {
            continue;
        };
        for &id in ws.fns_in_file(path) {
            let f = &ws.fns()[id];
            if f.is_test {
                continue;
            }
            // Lines inside this fn that establish fault coverage: a direct
            // fault-point site, or a call into a fn that transitively
            // contains one.
            let mut covered_from: Option<usize> = None;
            for line in f.start_line..=f.end_line.min(sf.nlines().saturating_sub(1)) {
                if sf.code(line).contains("fault_point") {
                    covered_from = Some(covered_from.map_or(line, |c| c.min(line)));
                }
            }
            for call in &f.calls {
                if ws
                    .resolve(id, call)
                    .into_iter()
                    .any(|t| ws.reaches_fault_point(t))
                {
                    covered_from = Some(covered_from.map_or(call.line, |c| c.min(call.line)));
                }
            }
            for line in f.start_line..=f.end_line.min(sf.nlines().saturating_sub(1)) {
                if !prod_line(path, sf, line) {
                    continue;
                }
                let code = sf.code(line);
                for mutator in EXCHANGE_MUTATORS {
                    let pat = format!(".{mutator}(");
                    let mut from = 0usize;
                    while let Some(rel) = code[from..].find(&pat) {
                        let at = from + rel;
                        from = at + pat.len();
                        let Some(buf) = receiver_before(code, at) else {
                            continue;
                        };
                        if !cfg.exchange_buffers.iter().any(|b| b == &buf) {
                            continue;
                        }
                        if covered_from.is_none_or(|c| c > line) {
                            push(Diagnostic::new(
                                "L012",
                                path,
                                line,
                                format!(
                                    "write `{buf}.{mutator}(…)` in `{}` is not dominated by a \
                                     `fault_point!` site — every exchange-buffer mutation must \
                                     be reachable by chaos injection (add a fault point before \
                                     it, or route the copy through a fault-pointed helper)",
                                    f.name
                                ),
                            ));
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::SourceFile;

    fn run_globals(files: &[(&str, &str)], cfg: &Config) -> HashMap<String, Vec<Diagnostic>> {
        let scanned: Vec<(String, SourceFile)> = files
            .iter()
            .map(|(p, src)| (p.to_string(), SourceFile::scan(src)))
            .collect();
        let ws = Workspace::build(&scanned);
        lint_globals(&scanned, &ws, cfg)
    }

    fn all(d: &HashMap<String, Vec<Diagnostic>>) -> Vec<&Diagnostic> {
        let mut v: Vec<&Diagnostic> = d.values().flatten().collect();
        v.sort_by_key(|d| (d.file.clone(), d.line));
        v
    }

    #[test]
    fn l009_flags_allocating_helper_two_hops_from_hot() {
        let cfg = Config {
            hot_paths: vec!["crates/k/src/hot.rs".into()],
            ..Config::default()
        };
        let d = run_globals(
            &[
                ("crates/k/src/hot.rs", "pub fn kernel() { step(); }\n"),
                (
                    "crates/k/src/helpers.rs",
                    "pub fn step() { deep(); }\npub fn deep() -> Vec<u32> {\n    let v = Vec::new();\n    x.unwrap();\n    v\n}\nfn unrelated() { let v = Vec::new(); }\n",
                ),
            ],
            &cfg,
        );
        let hits = all(&d);
        assert!(hits
            .iter()
            .any(|d| d.lint == "L009" && d.message.contains("Vec::new") && d.line == 3));
        assert!(hits.iter().any(|d| d.lint == "L009"
            && d.message.contains(".unwrap()")
            && d.message.contains("kernel -> step -> deep")));
        // `unrelated` is not reachable from the hot seed.
        assert!(!hits.iter().any(|d| d.line == 7));
    }

    #[test]
    fn l010_requires_pairs_labels_matched_across_files() {
        let cfg = Config::default();
        // Properly paired across two files.
        let good = run_globals(
            &[
                (
                    "crates/a/src/x.rs",
                    "fn f() {\n    // PAIRS: done.flag\n    flag.store(true, Ordering::Release);\n}\n",
                ),
                (
                    "crates/a/src/y.rs",
                    "fn g() {\n    flag.load(Ordering::Acquire); // PAIRS: done.flag\n}\n",
                ),
            ],
            &cfg,
        );
        assert!(all(&good).is_empty(), "{good:?}");
        // Release side downgraded: the acquire's group loses its partner.
        let bad = run_globals(
            &[
                (
                    "crates/a/src/x.rs",
                    "fn f() {\n    flag.store(true, Ordering::Relaxed);\n}\n",
                ),
                (
                    "crates/a/src/y.rs",
                    "fn g() {\n    flag.load(Ordering::Acquire); // PAIRS: done.flag\n}\n",
                ),
            ],
            &cfg,
        );
        assert!(all(&bad)
            .iter()
            .any(|d| d.lint == "L010" && d.message.contains("names no other site")));
    }

    #[test]
    fn l010_unlabeled_and_seqcst_sites_are_flagged() {
        let cfg = Config::default();
        let d = run_globals(
            &[(
                "crates/a/src/x.rs",
                "fn f() {\n    n.load(Ordering::Acquire);\n    m.store(1, Ordering::SeqCst);\n}\n",
            )],
            &cfg,
        );
        let hits = all(&d);
        assert!(hits
            .iter()
            .any(|d| d.lint == "L010" && d.message.contains("PAIRS") && d.line == 2));
        assert!(hits
            .iter()
            .any(|d| d.lint == "L010" && d.message.contains("SeqCst") && d.line == 3));
    }

    #[test]
    fn l010_group_missing_one_side_is_flagged() {
        let cfg = Config::default();
        let d = run_globals(
            &[(
                "crates/a/src/x.rs",
                "fn f() {\n    a.load(Ordering::Acquire); // PAIRS: only.acquires\n    b.load(Ordering::Acquire); // PAIRS: only.acquires\n}\n",
            )],
            &cfg,
        );
        assert!(all(&d)
            .iter()
            .any(|d| d.lint == "L010" && d.message.contains("no release-side")));
    }

    #[test]
    fn l011_poisoning_outside_audit_helpers_is_flagged() {
        let cfg = Config {
            lock_helpers: vec!["crates/resilience/src/audit.rs".into()],
            ..Config::default()
        };
        let d = run_globals(
            &[
                (
                    "crates/a/src/x.rs",
                    "fn f() {\n    let g = m.lock().unwrap();\n    let h = n.lock().unwrap_or_else(|e| e.into_inner());\n}\n",
                ),
                (
                    "crates/resilience/src/audit.rs",
                    "pub fn recover() {\n    let g = m.lock().unwrap_or_else(|e| e.into_inner());\n}\n",
                ),
            ],
            &cfg,
        );
        let hits = all(&d);
        assert_eq!(
            hits.iter().filter(|d| d.lint == "L011").count(),
            2,
            "{hits:?}"
        );
        assert!(hits.iter().all(|d| d.file == "crates/a/src/x.rs"));
    }

    #[test]
    fn l011_lock_order_cycle_is_flagged_and_consistent_order_is_clean() {
        let cfg = Config::default();
        let bad = run_globals(
            &[(
                "crates/a/src/x.rs",
                "fn f(a: &M, b: &M) {\n    let ga = a.lock();\n    let gb = b.lock();\n}\nfn g(a: &M, b: &M) {\n    let gb = b.lock();\n    let ga = a.lock();\n}\n",
            )],
            &cfg,
        );
        assert!(all(&bad)
            .iter()
            .any(|d| d.lint == "L011" && d.message.contains("lock-order cycle")));
        let good = run_globals(
            &[(
                "crates/a/src/x.rs",
                "fn f(a: &M, b: &M) {\n    let ga = a.lock();\n    let gb = b.lock();\n}\nfn g(a: &M, b: &M) {\n    let ga = a.lock();\n    let gb = b.lock();\n}\n",
            )],
            &cfg,
        );
        assert!(all(&good).is_empty(), "{good:?}");
    }

    #[test]
    fn l011_normalizes_receivers_through_self_and_indexing() {
        assert_eq!(
            lock_receivers("let g = self.stages[b].lock();"),
            vec!["stages".to_string()]
        );
        assert_eq!(
            lock_receivers("let g = lock(&self.rows[i]);"),
            vec!["rows".to_string()]
        );
        assert_eq!(
            lock_receivers("let g = audit::recover(\"site\", &REGISTRY);"),
            // The scrubbed string literal leaves spaces; second arg is the lock.
            vec!["REGISTRY".to_string()]
        );
    }

    #[test]
    fn l012_flags_uncovered_exchange_writes_and_accepts_dominating_fault_points() {
        let cfg = Config {
            exchange_paths: vec!["crates/s/src/exec.rs".into()],
            exchange_buffers: vec!["stage".into()],
            ..Config::default()
        };
        let bad = run_globals(
            &[(
                "crates/s/src/exec.rs",
                "pub fn gather(stage: &mut M) {\n    stage.row_mut(0).copy_from_slice(&[1.0]);\n}\n",
            )],
            &cfg,
        );
        assert!(all(&bad)
            .iter()
            .any(|d| d.lint == "L012" && d.message.contains("stage.row_mut")));
        let good = run_globals(
            &[(
                "crates/s/src/exec.rs",
                "pub fn gather(stage: &mut M) {\n    resilience::fault_point!(\"s.x\");\n    stage.row_mut(0).copy_from_slice(&[1.0]);\n}\n",
            )],
            &cfg,
        );
        assert!(all(&good).is_empty(), "{good:?}");
    }

    #[test]
    fn l012_coverage_propagates_through_callees() {
        let cfg = Config {
            exchange_paths: vec!["crates/s/src/runner.rs".into()],
            exchange_buffers: vec!["mid".into()],
            ..Config::default()
        };
        let d = run_globals(
            &[
                (
                    "crates/s/src/runner.rs",
                    "fn layer(mid: &mut M) {\n    faulty_copy();\n    mid.row_mut(0).copy_from_slice(&[1.0]);\n}\n",
                ),
                (
                    "crates/s/src/exec.rs",
                    "pub fn faulty_copy() {\n    resilience::fault_point!(\"s.copy\");\n}\n",
                ),
            ],
            &cfg,
        );
        assert!(all(&d).is_empty(), "{d:?}");
    }

    #[test]
    fn globals_skip_test_code() {
        let cfg = Config {
            hot_paths: vec!["crates/k/src/hot.rs".into()],
            ..Config::default()
        };
        let d = run_globals(
            &[
                ("crates/k/src/hot.rs", "pub fn kernel() { helper(); }\n"),
                (
                    "crates/k/src/helpers.rs",
                    "pub fn helper() {}\n#[cfg(test)]\nmod tests {\n    fn t() {\n        x.load(Ordering::SeqCst);\n        y.lock().unwrap();\n    }\n}\n",
                ),
            ],
            &cfg,
        );
        assert!(all(&d).is_empty(), "{d:?}");
    }
}
