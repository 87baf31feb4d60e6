//! Nobody can run `.github/workflows/ci.yml` before it is pushed, so
//! tier-1 checks the part of it that rots silently: every cargo target
//! and every `.github/scripts/*.sh` the workflow names exists (the
//! scripts also pass `bash -n`), and its checks are shell and cargo — an
//! inline script in another language is a second test suite nothing here
//! compiles or runs.

use std::path::{Path, PathBuf};

#[test]
fn ci_workflow_names_targets_that_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let yml = std::fs::read_to_string(root.join(".github/workflows/ci.yml")).unwrap();
    assert!(!yml.contains("python3"), "ci.yml runs an inline Python script");
    assert!(!yml.contains("<<"), "ci.yml carries a heredoc");

    // Workspace packages — the root package and the members — named by
    // each manifest's first `name = "..."`.
    let mut dirs = vec![root.to_path_buf()];
    for dir in ["crates", "compat"] {
        dirs.extend(
            std::fs::read_dir(root.join(dir)).unwrap().map(|entry| entry.unwrap().path()),
        );
    }
    let mut packages: Vec<(String, PathBuf)> = Vec::new();
    for dir in dirs {
        let Ok(manifest) = std::fs::read_to_string(dir.join("Cargo.toml")) else {
            continue;
        };
        let name = manifest.lines().find_map(|l| l.strip_prefix("name = ")).unwrap();
        packages.push((name.trim_matches('"').to_string(), dir));
    }

    let words: Vec<&str> = yml.split_whitespace().collect();
    let mut checked = 0;
    for w in words.windows(2) {
        let exists = match w[0] {
            "-p" => packages.iter().any(|(name, _)| name == w[1]),
            "--bin" => packages
                .iter()
                .any(|(_, dir)| dir.join("src/bin").join(w[1]).with_extension("rs").is_file()),
            "--example" => root.join("examples").join(w[1]).with_extension("rs").is_file(),
            "--test" => packages
                .iter()
                .any(|(_, dir)| dir.join("tests").join(w[1]).with_extension("rs").is_file()),
            _ => continue,
        };
        assert!(exists, "ci.yml names `{} {}`, which does not exist", w[0], w[1]);
        checked += 1;
    }
    assert!(checked > 10, "found only {checked} targets: did ci.yml move?");
}

#[test]
fn ci_workflow_scripts_exist_and_parse() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let yml = std::fs::read_to_string(root.join(".github/workflows/ci.yml")).unwrap();
    let scripts: Vec<&str> = yml
        .split_whitespace()
        .filter(|w| w.starts_with(".github/scripts/") && w.ends_with(".sh"))
        .collect();
    assert!(!scripts.is_empty(), "ci.yml names no script: did kill_and_resume.sh move?");
    for script in scripts {
        let path = root.join(script);
        assert!(path.is_file(), "ci.yml names `{script}`, which does not exist");
        let syntax = std::process::Command::new("bash").arg("-n").arg(&path).output().unwrap();
        assert!(
            syntax.status.success(),
            "`bash -n {script}`: {}",
            String::from_utf8_lossy(&syntax.stderr)
        );
    }
}
