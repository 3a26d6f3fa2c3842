//! The HTTP client the service benches (`durabench`, `querybench`) share:
//! one request per connection, like the server.

use pasm_util::{json, Json};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Send one request; returns the status and the raw body.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let (_, payload) = raw.split_once("\r\n\r\n").unwrap_or((raw.as_str(), ""));
    (status, payload.to_string())
}

/// `GET path`, asserting 200 and a JSON body.
pub fn get_json(addr: SocketAddr, path: &str) -> Json {
    let (code, payload) = request(addr, "GET", path, "");
    assert_eq!(code, 200, "GET {path}: {payload}");
    json::parse(&payload).expect("JSON payload")
}

/// Poll `/healthz` until the server is ready (its recovery phase is over).
pub fn await_ready(addr: SocketAddr) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (code, _) = request(addr, "GET", "/healthz", "");
        if code == 200 {
            return;
        }
        assert!(Instant::now() < deadline, "server never became ready");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Poll `/status/<id>` until the job is `done`; panics on any other end.
pub fn await_done(addr: SocketAddr, id: u64) {
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let body = get_json(addr, &format!("/status/{id}"));
        match body.get("status").and_then(Json::as_str).unwrap_or("") {
            "queued" | "running" => {
                assert!(Instant::now() < deadline, "job {id} never finished");
                std::thread::sleep(Duration::from_millis(2));
            }
            "done" => return,
            other => panic!("job {id} ended {other}"),
        }
    }
}
