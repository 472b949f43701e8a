//! `repro` must stop quietly when its reader goes away (`repro | head`),
//! not panic on the failed write.

use std::process::{Command, Stdio};

#[test]
fn closed_stdout_ends_repro_quietly() {
    // Close the read end before the child starts, so its first write
    // already meets a broken pipe.
    let (reader, writer) = std::io::pipe().expect("create pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("table1_latency")
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("run repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "repro panicked:\n{stderr}");
    assert!(
        out.status.success(),
        "status {:?}, stderr:\n{stderr}",
        out.status
    );
}
