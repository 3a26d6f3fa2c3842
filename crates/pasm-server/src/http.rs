//! Minimal HTTP/1.1 plumbing: just enough to parse one request from a stream
//! and write one JSON response back. Connections are `Connection: close`
//! (one request per connection), which keeps the server loop trivially
//! correct; at simulation-service request rates the extra handshake is noise
//! compared to a single simulated multiply.

use pasm_util::Json;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};

/// Maximum accepted request-body size (1 MiB — job specs are tiny).
const MAX_BODY: usize = 1 << 20;

/// Maximum accepted request-head size: the request line plus every header
/// line (16 KiB). A head the cap cuts off is an error, never a request.
const MAX_HEAD: u64 = 16 << 10;

/// A parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    /// Path without query string.
    pub path: String,
    /// Raw query string (without the `?`; empty when absent).
    pub query: String,
    pub body: String,
}

impl Request {
    /// The value of query parameter `name` (`?a=1&b=2` form). Parameters the
    /// query tier accepts are plain tokens — names, integers — so no
    /// percent-decoding is applied; a flag given without `=` yields `""`.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (k == name).then_some(v)
        })
    }
}

/// Read and parse one request from the stream. Reads at most 16 KiB of
/// request head before the body; a longer head is an `InvalidData` error.
pub fn read_request(stream: impl Read) -> io::Result<Request> {
    let mut head = BufReader::new(stream).take(MAX_HEAD);
    let line = head_line(&mut head)?;
    let mut parts = line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(m), Some(t)) => (m.to_string(), t.to_string()),
        _ => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "malformed request line",
            ))
        }
    };
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target, String::new()),
    };

    let mut content_length = 0usize;
    loop {
        let header = head_line(&mut head)?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "bad content-length")
                })?;
            }
        }
    }
    if content_length > MAX_BODY {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "body too large"));
    }

    let mut body = vec![0u8; content_length];
    head.into_inner().read_exact(&mut body)?;
    let body = String::from_utf8(body)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "body is not UTF-8"))?;
    Ok(Request {
        method,
        path,
        query,
        body,
    })
}

/// One line of the request head (empty at end of stream). Fails when the
/// head cap cuts the line off.
fn head_line(head: &mut io::Take<impl BufRead>) -> io::Result<String> {
    let mut line = String::new();
    head.read_line(&mut line)?;
    if head.limit() == 0 && !line.ends_with('\n') {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("request head exceeds {MAX_HEAD} bytes"),
        ));
    }
    Ok(line)
}

/// Write a JSON response with the given status code and close the connection.
pub fn write_json(stream: &mut TcpStream, status: u16, body: &Json) -> io::Result<()> {
    write_text(stream, status, "application/json", &body.dump())
}

/// Write a response with an arbitrary Content-Type (the `/metrics` endpoint
/// serves Prometheus exposition text) and close the connection.
pub fn write_text(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    payload: &str,
) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    };
    write!(
        stream,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{payload}",
        payload.len()
    )?;
    stream.flush()?;
    // FIN before close: a client whose request was not read to the end (a
    // head past the cap) still gets the response before the reset.
    stream.shutdown(Shutdown::Write)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A request line, then one header line with no terminator: 1 MiB + 1
    /// bytes before end of stream. Counts the bytes the parser pulls.
    struct EndlessHeader {
        sent: usize,
    }

    const PREFIX: &[u8] = b"POST /submit HTTP/1.1\r\nX-Long: ";
    const TOTAL: usize = PREFIX.len() + (1 << 20) + 1;

    impl Read for EndlessHeader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(TOTAL - self.sent);
            for (i, b) in buf[..n].iter_mut().enumerate() {
                *b = PREFIX.get(self.sent + i).copied().unwrap_or(b'a');
            }
            self.sent += n;
            Ok(n)
        }
    }

    #[test]
    fn head_past_the_cap_is_rejected_unread() {
        let mut src = EndlessHeader { sent: 0 };
        let err = read_request(&mut src).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        // The buffered reader pulls at most one 8 KiB buffer past the cap.
        assert!(
            src.sent <= MAX_HEAD as usize + 8192,
            "read {} bytes",
            src.sent
        );
    }

    #[test]
    fn head_under_the_cap_parses() {
        let pad = "p".repeat(15 << 10);
        let raw =
            format!("POST /submit?x=1 HTTP/1.1\r\nX-Pad: {pad}\r\nContent-Length: 2\r\n\r\n{{}}");
        let req = read_request(raw.as_bytes()).unwrap();
        assert_eq!(
            (req.method.as_str(), req.path.as_str(), req.query.as_str()),
            ("POST", "/submit", "x=1")
        );
        assert_eq!(req.body, "{}");
    }
}
