//! The results tables in EXPERIMENTS.md and README.md are the committed
//! CSVs. Each table sits directly under a marker line naming its file,
//! `<!-- results/paper/<file>.csv -->` (paper scale) or
//! `<!-- tests/golden/quick/<file>.csv -->` (quick scale), and equals that
//! file cell for cell, header included.

use std::path::Path;

const MARKED_DIRS: [&str; 2] = ["results/paper/", "tests/golden/quick/"];

/// The cells of a markdown table line `| a | b |`.
fn md_cells(line: &str) -> Vec<&str> {
    let inner = line.trim().trim_start_matches('|').trim_end_matches('|');
    inner.split('|').map(str::trim).collect()
}

/// Check every marked table of `doc` against its file under `root`.
/// Returns the marked paths and one message per mismatch.
fn check_doc(root: &Path, name: &str, doc: &str) -> (Vec<String>, Vec<String>) {
    let lines: Vec<&str> = doc.lines().collect();
    let (mut marked, mut errors) = (Vec::new(), Vec::new());
    for (idx, line) in lines.iter().enumerate() {
        let Some(path) = line
            .trim()
            .strip_prefix("<!-- ")
            .and_then(|rest| rest.strip_suffix(" -->"))
            .filter(|path| MARKED_DIRS.iter().any(|dir| path.starts_with(dir)))
        else {
            continue;
        };
        let at = format!("{name}:{}", idx + 1);
        marked.push(path.to_string());
        let mut table: Vec<Vec<&str>> = lines[idx + 1..]
            .iter()
            .take_while(|l| l.trim_start().starts_with('|'))
            .map(|l| md_cells(l))
            .collect();
        let rule = |c: &&str| c.contains('-') && c.chars().all(|ch| ch == '-' || ch == ':');
        if table.len() < 2 || !table[1].iter().all(rule) {
            errors.push(format!(
                "{at}: marker `{path}` has no table directly under it"
            ));
            continue;
        }
        table.remove(1);
        let csv = match std::fs::read_to_string(root.join(path)) {
            Ok(csv) => csv,
            Err(e) => {
                errors.push(format!("{at}: reading `{path}`: {e}"));
                continue;
            }
        };
        let csv: Vec<Vec<&str>> = csv.lines().map(|l| l.split(',').collect()).collect();
        if table.len() != csv.len() {
            let (t, c) = (table.len(), csv.len());
            errors.push(format!(
                "{at}: the table has {t} rows, `{path}` has {c} (with headers)"
            ));
            continue;
        }
        for (row, (md_row, csv_row)) in table.iter().zip(&csv).enumerate() {
            if md_row != csv_row {
                errors.push(format!(
                    "{at}: row {row} is {md_row:?}, `{path}` has {csv_row:?}"
                ));
            }
        }
    }
    (marked, errors)
}

#[test]
fn marked_tables_equal_their_committed_csvs() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let (mut marked, mut errors) = (Vec::new(), Vec::new());
    for name in ["EXPERIMENTS.md", "README.md"] {
        let doc = std::fs::read_to_string(root.join(name)).expect("read the doc");
        let (m, e) = check_doc(&root, name, &doc);
        marked.extend(m);
        errors.extend(e);
    }
    // Every committed paper-scale table is in the docs; the CDF series
    // (`latency_ms,cdf`) are plot data, not tables.
    for entry in std::fs::read_dir(root.join("results/paper")).expect("read results/paper") {
        let path = entry.expect("list results/paper").path();
        let name = format!(
            "results/paper/{}",
            path.file_name().unwrap().to_string_lossy()
        );
        let body = std::fs::read_to_string(&path).unwrap_or_default();
        if name.ends_with(".csv")
            && !body.starts_with("latency_ms,cdf\n")
            && !marked.contains(&name)
        {
            errors.push(format!("`{name}` is committed but no doc table marks it"));
        }
    }
    assert!(errors.is_empty(), "\n{}", errors.join("\n"));
}

#[test]
fn the_check_catches_drift() {
    let dir = std::env::temp_dir().join("cdn-results-docs-test");
    std::fs::create_dir_all(dir.join("results/paper")).unwrap();
    std::fs::write(dir.join("results/paper/t.csv"), "a,b\n1,x\n2,y\n").unwrap();
    let check = |table: &str| {
        let doc = format!("text\n<!-- results/paper/t.csv -->\n{table}\nmore\n");
        check_doc(&dir, "T.md", &doc).1
    };
    assert!(check("| a | b |\n|---|--:|\n| 1 | x |\n| 2 | y |").is_empty());
    let changed = check("| a | b |\n|---|---|\n| 1 | x |\n| 2 | z |");
    assert!(changed[0].contains("row 2"), "{changed:?}");
    let short = check("| a | b |\n|---|---|\n| 1 | x |");
    assert!(short[0].contains("has 2 rows"), "{short:?}");
    assert!(check("")[0].contains("no table"));
    std::fs::remove_file(dir.join("results/paper/t.csv")).unwrap();
    let missing = check("| a | b |\n|---|---|\n| 1 | x |\n| 2 | y |");
    assert!(missing[0].contains("reading"), "{missing:?}");
}
