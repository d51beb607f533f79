//! Guarantees the `examples/` directory stays in sync with the library
//! API: `cargo build --examples` must succeed for every example.
//!
//! CI also runs `cargo build --examples` directly; this test gives the
//! same guarantee to anyone running plain `cargo test` locally. It
//! re-enters cargo, so it is skipped when the `CARGO` environment
//! variable is absent (e.g. under a non-cargo test runner) and can be
//! disabled explicitly with `NETCON_SKIP_EXAMPLES_SMOKE=1`.

use std::process::Command;

/// Runs `examples/huge_line.rs` at smoke scale (n = 1500 instead of the
/// headline 100 000): the sparse-engine path, the engine selector, and
/// the example's own spanning-line verification all execute in a few
/// seconds even unoptimized. The example asserts its output shape, so a
/// zero exit status is the whole contract.
#[test]
fn huge_line_runs_at_smoke_scale() {
    if std::env::var_os("NETCON_SKIP_EXAMPLES_SMOKE").is_some() {
        eprintln!("skipping: NETCON_SKIP_EXAMPLES_SMOKE set");
        return;
    }
    let Some(cargo) = std::env::var_os("CARGO") else {
        eprintln!("skipping: CARGO not set");
        return;
    };
    let Ok(manifest_dir) = std::env::var("CARGO_MANIFEST_DIR") else {
        eprintln!("skipping: CARGO_MANIFEST_DIR not set");
        return;
    };
    let manifest = format!("{manifest_dir}/Cargo.toml");
    let output = Command::new(cargo)
        .args([
            "run",
            "--example",
            "huge_line",
            "--manifest-path",
            &manifest,
        ])
        // Force the sparse engine even at smoke scale: that is the code
        // path the example exists to demonstrate.
        .env("NETCON_HUGE_LINE_N", "1500")
        .env("NETCON_ENGINE_MEM_BUDGET", "1000000")
        .output()
        .expect("failed to spawn cargo");
    assert!(
        output.status.success(),
        "`cargo run --example huge_line` failed:\nstdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("bucket-sparse"),
        "expected the sparse engine under a 1 MB budget:\n{stdout}"
    );
}

#[test]
fn all_examples_compile() {
    if std::env::var_os("NETCON_SKIP_EXAMPLES_SMOKE").is_some() {
        eprintln!("skipping: NETCON_SKIP_EXAMPLES_SMOKE set");
        return;
    }
    let Some(cargo) = std::env::var_os("CARGO") else {
        eprintln!("skipping: CARGO not set");
        return;
    };
    // Runtime lookup: the compile-time value would go stale if the built
    // test binary runs from a relocated checkout.
    let Ok(manifest_dir) = std::env::var("CARGO_MANIFEST_DIR") else {
        eprintln!("skipping: CARGO_MANIFEST_DIR not set");
        return;
    };
    let manifest = format!("{manifest_dir}/Cargo.toml");
    let output = Command::new(cargo)
        .args(["build", "--examples", "--manifest-path", &manifest])
        .output()
        .expect("failed to spawn cargo");
    assert!(
        output.status.success(),
        "`cargo build --examples` failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
}
