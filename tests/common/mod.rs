//! Helpers shared by the integration tests that pin golden fixtures.

use std::path::Path;

/// Compares `produced` with the committed fixture `tests/golden/<name>`.
/// With `UPDATE_IDENTITY_FIXTURES` set, writes `produced` there instead.
pub fn check_fixture(name: &str, produced: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name);
    if std::env::var_os("UPDATE_IDENTITY_FIXTURES").is_some() {
        std::fs::write(&path, produced).expect("write fixture");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing fixture {}: {e} (run with UPDATE_IDENTITY_FIXTURES=1)", path.display())
    });
    assert_eq!(
        produced, &golden,
        "{name} diverged; if the change is intentional, regenerate with \
         UPDATE_IDENTITY_FIXTURES=1"
    );
}
