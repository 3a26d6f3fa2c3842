//! The HTTP client the `pasm-server` integration tests share: one request
//! per connection, like the server, plus the polling helpers built on it.

// Each test binary compiles this module and uses a different subset of it.
#![allow(dead_code)]

use pasm_util::{json, Json};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Send one request; returns the status, the response head and the raw
/// body (`/metrics` is not JSON).
pub fn request_raw(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let body = body.unwrap_or("");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed status line: {raw:?}"));
    let (head, payload) = raw.split_once("\r\n\r\n").unwrap_or((raw.as_str(), ""));
    (status, head.to_string(), payload.to_string())
}

/// JSON-body variant of [`request_raw`] (every endpoint except `/metrics`).
pub fn request(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> (u16, Json) {
    let (status, _, payload) = request_raw(addr, method, path, body);
    let parsed = json::parse(&payload).unwrap_or_else(|e| panic!("bad JSON body {payload:?}: {e}"));
    (status, parsed)
}

pub fn get(addr: SocketAddr, path: &str) -> (u16, Json) {
    request(addr, "GET", path, None)
}

pub fn submit(addr: SocketAddr, body: &str) -> (u16, Json) {
    request(addr, "POST", "/submit", Some(body))
}

pub fn job_id(resp: &Json) -> u64 {
    resp.get("job_id")
        .and_then(Json::as_u64)
        .expect("job_id in response")
}

pub fn status_str(resp: &Json) -> String {
    resp.get("status")
        .and_then(Json::as_str)
        .expect("status in response")
        .to_string()
}

/// Poll `/status/<id>` until the job is terminal.
pub fn await_terminal(addr: SocketAddr, id: u64) -> Json {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (code, body) = get(addr, &format!("/status/{id}"));
        assert_eq!(code, 200, "status of known job: {body:?}");
        match status_str(&body).as_str() {
            "queued" | "running" => {
                assert!(Instant::now() < deadline, "job {id} did not finish in time");
                std::thread::sleep(Duration::from_millis(5));
            }
            _ => return body,
        }
    }
}

/// Poll `/healthz` until the recovery phase is over (200) — readiness.
pub fn await_ready(addr: SocketAddr) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (code, _) = get(addr, "/healthz");
        if code == 200 {
            return;
        }
        assert!(Instant::now() < deadline, "server never became ready");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A fresh, empty directory `pasm-<suite>-<tag>-<pid>` under the temp dir.
pub fn tmpdir(suite: &str, tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pasm-{suite}-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}
