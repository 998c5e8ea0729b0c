//! Embeds the provenance of the code under test: the git commit when the
//! checkout is a git repository, and always a digest of the workspace
//! sources, so results from a checkout without history still name the
//! exact code they measured.

use std::path::{Path, PathBuf};

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            if p.file_name().is_some_and(|n| n != "target") {
                collect(&p, out);
            }
        } else if p
            .extension()
            .is_some_and(|x| x == "rs" || x == "toml" || x == "asm")
        {
            out.push(p);
        }
    }
}

fn main() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    for dir in ["crates", "vendor", "examples"] {
        collect(&root.join(dir), &mut files);
        if root.join(dir).exists() {
            println!("cargo:rerun-if-changed=../{dir}");
        }
    }
    println!("cargo:rerun-if-changed=../Cargo.toml");
    println!("cargo:rerun-if-changed=../Cargo.lock");
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let rel = f.strip_prefix(&root).unwrap_or(f);
        for b in rel
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(f).unwrap_or_default())
        {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    let commit = std::process::Command::new("git")
        .args([
            "-C",
            &root.to_string_lossy(),
            "describe",
            "--always",
            "--dirty",
        ])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned());
    println!("cargo:rustc-env=PERFBENCH_COMMIT={commit}");
    println!("cargo:rustc-env=PERFBENCH_SOURCE_DIGEST={h:016x}");
}
