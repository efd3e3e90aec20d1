//! Captures build provenance: the codegen flags actually in effect
//! (`CARGO_ENCODED_RUSTFLAGS` reflects `RUSTFLAGS` *or*
//! `.cargo/config.toml`, whichever cargo applied), the profile, the
//! compiler version, the git revision when the sources sit in a git
//! checkout, and a digest of the library sources so builds from
//! exported trees stay distinguishable.

use std::fs;
use std::path::Path;
use std::process::Command;

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

fn digest_dir(dir: &Path, hash: &mut u64) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            digest_dir(&path, hash);
        } else if path
            .extension()
            .is_some_and(|ext| ext == "rs" || ext == "toml")
        {
            fnv(hash, path.to_string_lossy().as_bytes());
            if let Ok(bytes) = fs::read(&path) {
                fnv(hash, &bytes);
            }
        }
    }
}

fn command_output(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout).trim().to_string();
    (!text.is_empty()).then_some(text)
}

fn main() {
    let manifest = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let root = Path::new(&manifest).join("..");
    let crates = root.join("crates");
    println!("cargo:rerun-if-changed={}", crates.display());
    println!("cargo:rerun-if-env-changed=RUSTFLAGS");

    let rustflags = std::env::var("CARGO_ENCODED_RUSTFLAGS")
        .unwrap_or_default()
        .replace('\x1f', " ");
    let profile = std::env::var("PROFILE").unwrap_or_default();
    let opt_level = std::env::var("OPT_LEVEL").unwrap_or_default();
    let target = std::env::var("TARGET").unwrap_or_default();
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let rustc_version = command_output(&rustc, &["-V"], &root).unwrap_or_else(|| "unknown".into());
    let git_rev =
        command_output("git", &["rev-parse", "HEAD"], &root).unwrap_or_else(|| "none".into());
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    digest_dir(&crates, &mut hash);

    println!("cargo:rustc-env=PERFBENCH_RUSTFLAGS={rustflags}");
    println!("cargo:rustc-env=PERFBENCH_PROFILE={profile}");
    println!("cargo:rustc-env=PERFBENCH_OPT_LEVEL={opt_level}");
    println!("cargo:rustc-env=PERFBENCH_TARGET={target}");
    println!("cargo:rustc-env=PERFBENCH_RUSTC={rustc_version}");
    println!("cargo:rustc-env=PERFBENCH_GIT_REV={git_rev}");
    println!("cargo:rustc-env=PERFBENCH_SOURCE_DIGEST={hash:016x}");
}
