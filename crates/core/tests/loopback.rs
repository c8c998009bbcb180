//! Localhost loopback contract of the release binary: a once-mode server
//! fed the trace by `send --rate max` prints on stdout exactly the record
//! stream `rfdump -r` prints for the same trace, sequentially and on the
//! analysis pool, under the auto kernels and under the scalar reference.
//! The sample path crosses both ends of the RFDN framing on the way: the
//! payload CRC and the server's widening of the wire body.

mod common;

use common::{command, mixed_trace, rfdump};
use std::io::{BufRead, BufReader, Read};
use std::process::Stdio;

/// `serve --once` on an ephemeral port plus one `send --rate max` of the
/// trace, every child under `kernel`; returns the server's stdout.
fn loopback(kernel: Option<&str>, workers: &str) -> Vec<u8> {
    let trace = mixed_trace().to_str().unwrap();
    let mut serve = command(kernel)
        .args(["serve", "--listen", "127.0.0.1:0", "--once"])
        .args(["--workers", workers])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn rfdump serve");
    // The server announces its bound address on stderr before it accepts.
    let mut log = BufReader::new(serve.stderr.take().unwrap());
    let mut seen = String::new();
    let addr = loop {
        let mut line = String::new();
        if log.read_line(&mut line).unwrap() == 0 {
            let _ = serve.kill();
            panic!("server exited without announcing its address:\n{seen}");
        }
        if let Some(at) = line.trim().strip_prefix("rfdump: serving on ") {
            break at.to_string();
        }
        seen.push_str(&line);
    };
    // Keep draining stderr so a chatty server never blocks on the pipe.
    let drain = std::thread::spawn(move || {
        let mut rest = String::new();
        let _ = log.read_to_string(&mut rest);
        seen + &rest
    });
    rfdump(
        kernel,
        &["send", "--connect", &addr, "--rate", "max", trace],
    );
    // --once: the server exits on its own after the producer session.
    let out = serve.wait_with_output().expect("wait for rfdump serve");
    let log = drain.join().unwrap();
    assert!(
        out.status.success(),
        "serve under RFD_KERNEL={kernel:?} --workers {workers} failed:\n{log}"
    );
    out.stdout
}

#[test]
fn served_record_stream_equals_the_offline_run() {
    let trace = mixed_trace().to_str().unwrap();
    let offline = rfdump(None, &["-r", trace, "--workers", "0"]).stdout;
    let text = String::from_utf8_lossy(&offline);
    assert!(
        text.contains(" 802.11 ") && text.contains(" bluetooth "),
        "the trace must yield Wi-Fi and Bluetooth records:\n{text}"
    );
    for kernel in [None, Some("scalar")] {
        for workers in ["0", "4"] {
            let served = loopback(kernel, workers);
            assert!(
                served == offline,
                "live loopback record stream differs from the offline run \
                 (RFD_KERNEL={kernel:?}, --workers {workers}):\n--- offline\n{text}\n--- served\n{}",
                String::from_utf8_lossy(&served)
            );
        }
    }
}
