//! Integration tests of the `figures` binary's command line.

use std::process::Command;

#[test]
fn unknown_figure_keys_are_refused_with_the_known_keys() {
    for key in ["fig02", "nothing", "--out"] {
        let out = Command::new(env!("CARGO_BIN_EXE_figures"))
            .arg(key)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{key}: {stderr}");
        assert!(out.stdout.is_empty(), "{key}: nothing runs");
        assert!(
            stderr.contains(&format!("unknown figure key `{key}`")),
            "{key}: {stderr}"
        );
        for known in ["fig2,", "fig11search,", "fig13,", "ablations, all"] {
            assert!(stderr.contains(known), "{key}: {stderr} lacks {known}");
        }
    }
}
