//! Doc-reference gate. DESIGN.md is the architecture map, so two kinds of
//! reference into it and out of it must stay true:
//!
//! * every `DESIGN §N[.M]` / `DESIGN.md §N[.M]` citation in a tracked
//!   `*.rs` or `*.md` file (a line break, comment markers included, may
//!   sit between the two) names a heading DESIGN.md has. CHANGES.md is
//!   history and is exempt;
//! * every `<crate>::<module>` path in DESIGN.md (`rpav-<crate>::` and
//!   `rpav_<crate>::` alike, where `<crate>` is a directory under
//!   `crates/`) names a module that exists: a `src/<module>.rs` file or an
//!   inline `mod` (such as `rpav_core::prelude`); an item the crate root
//!   declares or re-exports also resolves. A third segment must be
//!   declared in that module's file;
//! * every backticked `<stem>::…` path in DESIGN.md (`exec::tests::x`,
//!   `cache::write_atomic`, `matrix_engine::some_test`), where `<stem>`
//!   names a file under `crates/*/src/` or `tests/tests/`, has its last
//!   segment declared in a file of that name. A trailing `*` matches any
//!   name with that prefix.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the integration-test crate sits one level below the root")
        .to_path_buf()
}

/// Tracked `*.rs` / `*.md` files (`git ls-files`), or — without git — a
/// walk of the tree that skips build output.
fn doc_files(root: &Path) -> Vec<PathBuf> {
    let is_doc = |p: &Path| p.extension().is_some_and(|x| x == "rs" || x == "md");
    let git = std::process::Command::new("git")
        .args(["ls-files", "-z", "--", "*.rs", "*.md"])
        .current_dir(root)
        .output();
    if let Some(out) = git
        .ok()
        .filter(|o| o.status.success() && !o.stdout.is_empty())
    {
        return out
            .stdout
            .split(|&b| b == 0)
            .filter(|name| !name.is_empty())
            .map(|name| root.join(String::from_utf8_lossy(name).as_ref()))
            .filter(|p| is_doc(p) && p.is_file())
            .collect();
    }
    let mut files = Vec::new();
    let mut dirs = vec![root.to_path_buf()];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).unwrap().filter_map(Result::ok) {
            let path = entry.path();
            let name = entry.file_name();
            if path.is_dir() {
                if name != "target" && name != ".git" && name != "out" {
                    dirs.push(path);
                }
            } else if is_doc(&path) {
                files.push(path);
            }
        }
    }
    files
}

/// The section numbers DESIGN.md has headings for: `## 9. Engine` gives
/// "9", `### 9.2 Cache` gives "9.2".
fn headings(design: &str) -> BTreeSet<String> {
    design
        .lines()
        .filter_map(|line| {
            let rest = line.trim_start_matches('#');
            if rest.len() == line.len() {
                return None;
            }
            let number: String = rest
                .trim_start()
                .chars()
                .take_while(|c| c.is_ascii_digit() || *c == '.')
                .collect();
            let number = number.trim_end_matches('.');
            (!number.is_empty()).then(|| number.to_string())
        })
        .collect()
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Every `DESIGN[.md] §N[.M]` citation in `text`, as (line, "N[.M]").
fn citations(text: &str) -> Vec<(usize, String)> {
    let mut found = Vec::new();
    for (at, _) in text.match_indices("DESIGN") {
        if text[..at].chars().next_back().is_some_and(is_ident) {
            continue;
        }
        let mut rest = &text[at + "DESIGN".len()..];
        rest = rest.strip_prefix(".md").unwrap_or(rest);
        if !rest.starts_with(char::is_whitespace) {
            continue;
        }
        let trimmed = rest.trim_start();
        // A citation wrapped onto the next comment line.
        let rest = if rest[..rest.len() - trimmed.len()].contains('\n') {
            trimmed.trim_start_matches(['/', '!']).trim_start()
        } else {
            trimmed
        };
        let Some(number) = rest.strip_prefix('§') else {
            continue;
        };
        let major: String = number.chars().take_while(char::is_ascii_digit).collect();
        if major.is_empty() {
            continue;
        }
        let after = &number[major.len()..];
        let minor: String = after
            .strip_prefix('.')
            .map(|m| m.chars().take_while(char::is_ascii_digit).collect())
            .unwrap_or_default();
        let section = if minor.is_empty() {
            major
        } else {
            format!("{major}.{minor}")
        };
        found.push((text[..at].matches('\n').count() + 1, section));
    }
    found
}

/// Every `[rpav-|rpav_]<crate>::<seg>[::<seg>]` path in `text`, as (line,
/// crate, segments after the crate); a `{a, b}` group becomes one path
/// per member.
fn crate_paths(text: &str, crates: &BTreeSet<String>) -> Vec<(usize, String, Vec<String>)> {
    let mut found = Vec::new();
    for (at, _) in text.match_indices("::") {
        let head = &text[..at];
        let start = head
            .char_indices()
            .rev()
            .find(|&(_, c)| !(is_ident(c) || c == '-'))
            .map_or(0, |(i, c)| i + c.len_utf8());
        if head[..start].ends_with(':') {
            continue; // not the first segment of its path
        }
        let word = &head[start..];
        let krate = word
            .strip_prefix("rpav-")
            .or_else(|| word.strip_prefix("rpav_"))
            .unwrap_or(word);
        if !crates.contains(krate) {
            continue;
        }
        let mut paths: Vec<Vec<String>> = vec![Vec::new()];
        let mut rest = &text[at..];
        while let Some(next) = rest.strip_prefix("::") {
            if let Some(group) = next.strip_prefix('{') {
                let Some(end) = group.find('}') else { break };
                let members: Vec<&str> = group[..end].split(',').map(str::trim).collect();
                paths = paths
                    .iter()
                    .flat_map(|p| {
                        members.iter().map(move |m| {
                            let mut p = p.clone();
                            p.push(m.to_string());
                            p
                        })
                    })
                    .collect();
                break;
            }
            let seg: String = next.chars().take_while(|&c| is_ident(c)).collect();
            if seg.is_empty() {
                break;
            }
            rest = &next[seg.len()..];
            for p in &mut paths {
                p.push(seg.clone());
            }
        }
        let line = head.matches('\n').count() + 1;
        for p in paths.into_iter().filter(|p| !p.is_empty()) {
            found.push((line, krate.to_string(), p));
        }
    }
    found
}

/// Keywords that declare the name after them.
const ITEM_KINDS: [&str; 8] = [
    "mod", "fn", "struct", "enum", "trait", "type", "const", "static",
];

/// Whether `source` declares `name` as an item (or re-exports it); a
/// `name` ending in `*` matches any name with that prefix.
fn declares(source: &str, name: &str) -> bool {
    let named = |word: &&str| match name.strip_suffix('*') {
        Some(prefix) => word.starts_with(prefix),
        None => *word == name,
    };
    source.lines().any(|line| {
        let words: Vec<&str> = line
            .split(|c| !is_ident(c))
            .filter(|w| !w.is_empty())
            .collect();
        words
            .windows(2)
            .any(|w| ITEM_KINDS.contains(&w[0]) && named(&w[1]))
            || (line.trim_start().starts_with("pub use") && words.iter().any(named))
    })
}

/// Every `*.rs` file under `crates/*/src/` (any depth) and `tests/tests/`,
/// by file stem.
fn file_stems(root: &Path) -> BTreeMap<String, Vec<PathBuf>> {
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.path().join("src"))
        .chain([root.join("tests").join("tests")])
        .collect();
    let mut stems: BTreeMap<String, Vec<PathBuf>> = BTreeMap::new();
    while let Some(dir) = dirs.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for path in entries.filter_map(Result::ok).map(|e| e.path()) {
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|x| x == "rs") {
                let stem = path.file_stem().unwrap().to_string_lossy().into_owned();
                stems.entry(stem).or_default().push(path);
            }
        }
    }
    stems
}

/// Every path of two or more segments inside a backticked span of `text`
/// (fenced code blocks skipped) whose first segment is a key of `stems`,
/// as (line, segments); a trailing `*` stays on the last segment.
fn stem_paths(text: &str, stems: &BTreeMap<String, Vec<PathBuf>>) -> Vec<(usize, Vec<String>)> {
    let mut found = Vec::new();
    let mut in_fence = false;
    let mut in_code = false;
    for (n, line) in text.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        for (i, part) in line.split('`').enumerate() {
            if i > 0 {
                in_code = !in_code;
            }
            if !in_code {
                continue;
            }
            let mut rest = part;
            while let Some(start) = rest.find(|c: char| is_ident(c)) {
                let preceded = rest[..start].ends_with(':');
                let mut segs: Vec<String> = Vec::new();
                let mut at = &rest[start..];
                loop {
                    let seg: String = at.chars().take_while(|&c| is_ident(c)).collect();
                    at = &at[seg.len()..];
                    let glob = at.starts_with('*');
                    if glob {
                        at = &at[1..];
                    }
                    segs.push(if glob { format!("{seg}*") } else { seg });
                    match at.strip_prefix("::") {
                        Some(next) if !glob && next.starts_with(is_ident) => at = next,
                        _ => break,
                    }
                }
                rest = at;
                if !preceded && segs.len() >= 2 && stems.contains_key(&segs[0]) {
                    found.push((n + 1, segs));
                }
            }
        }
    }
    found
}

/// Whether a file named `segs[0]` declares the last segment.
fn stem_path_resolves(stems: &BTreeMap<String, Vec<PathBuf>>, segs: &[String]) -> bool {
    let last = segs.last().expect("two or more segments");
    stems[&segs[0]]
        .iter()
        .any(|file| declares(&std::fs::read_to_string(file).unwrap_or_default(), last))
}

/// Whether `<crate>::<segs…>` resolves in the tree (first two segments
/// checked, as described in the module docs).
fn path_exists(root: &Path, krate: &str, segs: &[String]) -> bool {
    let src = root.join("crates").join(krate).join("src");
    let read = |p: PathBuf| std::fs::read_to_string(p).unwrap_or_default();
    let lib = read(src.join("lib.rs")) + &read(src.join("main.rs"));
    let module = &segs[0];
    let file = [
        src.join(format!("{module}.rs")),
        src.join(module).join("mod.rs"),
    ]
    .into_iter()
    .find(|p| p.is_file());
    match (file, segs.get(1)) {
        (Some(_), None) => true,
        (Some(file), Some(item)) => declares(&read(file), item),
        (None, _) => declares(&lib, module),
    }
}

/// Every problem the gate finds, as printable lines.
fn problems(root: &Path) -> Vec<String> {
    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md");
    let sections = headings(&design);
    let crates: BTreeSet<String> = std::fs::read_dir(root.join("crates"))
        .unwrap()
        .filter_map(Result::ok)
        .filter(|e| e.path().is_dir())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    let mut out = Vec::new();
    for file in doc_files(root) {
        if file.file_name().is_some_and(|n| n == "CHANGES.md") {
            continue;
        }
        let text = std::fs::read_to_string(&file).unwrap_or_default();
        for (line, section) in citations(&text) {
            if !sections.contains(&section) {
                let shown = file.strip_prefix(root).unwrap_or(&file).display();
                out.push(format!(
                    "{shown}:{line}: DESIGN.md §{section} has no heading"
                ));
            }
        }
    }
    for (line, krate, segs) in crate_paths(&design, &crates) {
        if !path_exists(root, &krate, &segs) {
            out.push(format!(
                "DESIGN.md:{line}: `{krate}::{}` names no module or item",
                segs.join("::")
            ));
        }
    }
    let stems = file_stems(root);
    for (line, segs) in stem_paths(&design, &stems) {
        if !stem_path_resolves(&stems, &segs) {
            out.push(format!(
                "DESIGN.md:{line}: `{}` is declared in no `{}.rs`",
                segs.join("::"),
                segs[0]
            ));
        }
    }
    out
}

#[test]
fn design_references_resolve() {
    let problems = problems(&repo_root());
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}

#[test]
fn the_gate_catches_planted_bad_references() {
    let crates: BTreeSet<String> = ["core", "uav", "video"].map(String::from).into();
    // Spelled with a placeholder so this file cites nothing itself.
    let text = "see @.md §4 and @ §9.2, and @.md\n//! §13.3.\n\
                Not a citation: RE@ §5, @.md has §4."
        .replace('@', "DESIGN");
    let cited: Vec<String> = citations(&text).into_iter().map(|(_, s)| s).collect();
    assert_eq!(cited, ["4", "9.2", "13.3"]);
    let sections = headings("# t\n## 4. Targets\n### 9.2 Cache\n");
    assert_eq!(sections, BTreeSet::from(["4".into(), "9.2".into()]));
    assert!(!sections.contains("13.3"), "a planted §13.3 must fail");

    let root = repo_root();
    let paths = crate_paths(
        "`rpav-uav::trajectory`, `core::metrics::{latency, fps}`, \
         `rpav_core::prelude`, `rpav_video::quality`, `rpav_core::cache::write_atomic`",
        &crates,
    );
    let verdicts: Vec<(String, bool)> = paths
        .iter()
        .map(|(_, k, s)| (format!("{k}::{}", s.join("::")), path_exists(&root, k, s)))
        .collect();
    assert_eq!(
        verdicts,
        [
            ("uav::trajectory".to_string(), false),
            ("core::metrics::latency".to_string(), false),
            ("core::metrics::fps".to_string(), false),
            ("core::prelude".to_string(), true),
            ("video::quality".to_string(), true),
            ("core::cache::write_atomic".to_string(), true),
        ]
    );

    // Backticked `<file stem>::…` paths: only code spans count, a
    // crate-prefixed path is the check above's, and a trailing `*` is a
    // prefix.
    let stems = file_stems(&root);
    let text =
        "`exec::tests::no_such_test` and `exec::tests::stuck_watchdog_flags_but_never_kills`, \
                `matrix_engine::no_such_test` (`rpav_core::exec::nothing`), \
                `profiles::tests::paper_flight_*`, outside code exec::tests::nope\n\
                ```\nexec::tests::fenced\n```\n`cache::write_atomic(path, |file| …)`";
    let verdicts: Vec<(usize, String, bool)> = stem_paths(text, &stems)
        .iter()
        .map(|(line, s)| (*line, s.join("::"), stem_path_resolves(&stems, s)))
        .collect();
    assert_eq!(
        verdicts,
        [
            (1, "exec::tests::no_such_test".to_string(), false),
            (
                1,
                "exec::tests::stuck_watchdog_flags_but_never_kills".to_string(),
                true
            ),
            (1, "matrix_engine::no_such_test".to_string(), false),
            (1, "profiles::tests::paper_flight_*".to_string(), true),
            (5, "cache::write_atomic".to_string(), true),
        ]
    );
}
