//! A deliberately small HTTP/1.1 implementation — exactly the subset the
//! scheduling service needs, over `std` only.
//!
//! `Content-Length` bodies only (no chunked transfer; a `Transfer-Encoding`
//! header is rejected outright as smuggling hygiene), bounded header and
//! body sizes so a hostile peer cannot balloon memory. Anything outside
//! that subset is a clean 4xx, never a panic.
//!
//! The parser is **incremental**: [`parse_request`] consumes a byte buffer
//! and either yields a complete request (plus how many bytes it spanned,
//! enabling keep-alive pipelining) or reports which stage is still
//! [`Partial`](Parse::Partial); the event loop turns a partial buffer at
//! end of stream into the stage's [`truncation_message`](Stage::truncation_message).
//! [`render_response`] is the matching writer.

/// Maximum bytes in the request line or any single header line.
const MAX_LINE: usize = 8 * 1024;
/// Maximum number of headers.
const MAX_HEADERS: usize = 64;
/// Maximum request body size (scenario files are a few hundred bytes; 4 MiB
/// leaves ample room for large batches).
pub const MAX_BODY: usize = 4 * 1024 * 1024;

/// A parsed request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Upper-cased method, e.g. `POST`.
    pub method: String,
    /// The request target, e.g. `/v1/schedule` (query strings are kept
    /// verbatim; the service's routes do not use them).
    pub target: String,
    /// Header name/value pairs in arrival order (names lower-cased).
    pub headers: Vec<(String, String)>,
    /// The body, already read to `Content-Length`.
    pub body: Vec<u8>,
}

impl Request {
    /// Case-insensitive header lookup (names are stored lower-cased).
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        let needle = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find_map(|(k, v)| (*k == needle).then_some(v.as_str()))
    }
}

/// A pure-parse failure (no transport involved).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParseError {
    /// The bytes are malformed; the message is safe to echo to the peer.
    BadRequest(&'static str),
    /// The request exceeds the line/header/body bounds.
    TooLarge,
}

/// Which part of a request the buffer ends inside.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Still inside the request line.
    Line,
    /// Request line done, headers incomplete.
    Head,
    /// Headers done, body shorter than `Content-Length` so far.
    Body,
}

impl Stage {
    /// The 400 message for a connection that ends (EOF) at this stage —
    /// pinned by the fault battery and the parser's own tests.
    #[must_use]
    pub fn truncation_message(self) -> &'static str {
        match self {
            Stage::Line => "truncated line",
            Stage::Head => "truncated headers",
            Stage::Body => "truncated request body",
        }
    }
}

/// A complete request plus the framing facts the event loop needs.
#[derive(Debug)]
pub struct ParseOutcome {
    /// The parsed request.
    pub request: Request,
    /// Bytes of the buffer this request spanned; the caller drains them
    /// and may find the next pipelined request right behind.
    pub consumed: usize,
    /// Whether the client asked to keep the connection open: HTTP/1.1
    /// defaults to keep-alive, HTTP/1.0 to close, and any `close` token in
    /// a `Connection` header wins over everything else.
    pub keep_alive: bool,
}

/// The result of an incremental parse over a (possibly incomplete) buffer.
#[derive(Debug)]
pub enum Parse {
    /// One full request was framed.
    Complete(ParseOutcome),
    /// More bytes are needed; `Stage` says how far the buffer got.
    Partial(Stage),
}

/// Extracts one `\n`-terminated line starting at `start`, stripping the
/// trailing `\r\n` / `\n`. `Ok(None)` means the line is still incomplete.
fn take_line(buf: &[u8], start: usize) -> Result<Option<(String, usize)>, ParseError> {
    let Some(rel) = buf[start..].iter().position(|&b| b == b'\n') else {
        if buf.len() - start > MAX_LINE {
            return Err(ParseError::TooLarge);
        }
        return Ok(None);
    };
    let mut line = &buf[start..start + rel];
    if line.last() == Some(&b'\r') {
        line = &line[..line.len() - 1];
    }
    if line.len() > MAX_LINE {
        return Err(ParseError::TooLarge);
    }
    let text = std::str::from_utf8(line)
        .map_err(|_| ParseError::BadRequest("non-UTF-8 header"))?
        .to_string();
    Ok(Some((text, start + rel + 1)))
}

/// Resolves the `Content-Length` headers to one body size.
///
/// Duplicate headers that *agree* are tolerated (they are one length);
/// duplicates that conflict are the classic request-smuggling vector and
/// are rejected outright.
fn content_length_of(headers: &[(String, String)]) -> Result<usize, ParseError> {
    let mut length: Option<usize> = None;
    for (name, value) in headers {
        if name != "content-length" {
            continue;
        }
        let parsed: usize = value
            .trim()
            .parse()
            .map_err(|_| ParseError::BadRequest("invalid Content-Length"))?;
        match length {
            None => length = Some(parsed),
            Some(prev) if prev == parsed => {}
            Some(_) => {
                return Err(ParseError::BadRequest(
                    "conflicting duplicate Content-Length headers",
                ))
            }
        }
    }
    Ok(length.unwrap_or(0))
}

/// Whether the client asked for the connection to stay open.
fn wants_keep_alive(version: &str, headers: &[(String, String)]) -> bool {
    let mut saw_close = false;
    let mut saw_keep_alive = false;
    for (name, value) in headers {
        if name != "connection" {
            continue;
        }
        for token in value.split(',') {
            if token.trim().eq_ignore_ascii_case("close") {
                saw_close = true;
            } else if token.trim().eq_ignore_ascii_case("keep-alive") {
                saw_keep_alive = true;
            }
        }
    }
    if saw_close {
        return false;
    }
    if saw_keep_alive {
        return true;
    }
    version != "HTTP/1.0"
}

/// Incrementally parses one HTTP/1.1 request from the front of `buf`.
///
/// Returns [`Parse::Partial`] when the buffer holds a well-formed prefix
/// that simply needs more bytes; the caller re-invokes after reading more.
///
/// # Errors
///
/// [`ParseError::BadRequest`] for protocol violations (including the
/// request-smuggling vectors: conflicting duplicate `Content-Length`,
/// any `Transfer-Encoding`), [`ParseError::TooLarge`] past the bounds.
pub fn parse_request(buf: &[u8]) -> Result<Parse, ParseError> {
    let Some((request_line, mut pos)) = take_line(buf, 0)? else {
        return Ok(Parse::Partial(Stage::Line));
    };
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(ParseError::BadRequest("malformed request line"));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(ParseError::BadRequest("unsupported HTTP version"));
    }

    let mut headers = Vec::new();
    loop {
        let Some((line, next)) = take_line(buf, pos)? else {
            return Ok(Parse::Partial(Stage::Head));
        };
        pos = next;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(ParseError::TooLarge);
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ParseError::BadRequest("malformed header"));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    if headers.iter().any(|(k, _)| k == "transfer-encoding") {
        return Err(ParseError::BadRequest(
            "Transfer-Encoding is not supported; use Content-Length",
        ));
    }
    let content_length = content_length_of(&headers)?;
    if content_length > MAX_BODY {
        return Err(ParseError::TooLarge);
    }
    if buf.len() < pos + content_length {
        return Ok(Parse::Partial(Stage::Body));
    }
    let keep_alive = wants_keep_alive(version, &headers);
    let request = Request {
        method: method.to_ascii_uppercase(),
        target: target.to_string(),
        headers,
        body: buf[pos..pos + content_length].to_vec(),
    };
    Ok(Parse::Complete(ParseOutcome {
        request,
        consumed: pos + content_length,
        keep_alive,
    }))
}

/// The reason phrase for the status codes the service emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// Renders one response to wire bytes, advertising the connection
/// disposition the server will actually honour.
#[must_use]
pub fn render_response(
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
    keep_alive: bool,
) -> Vec<u8> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: {connection}\r\n",
        reason(status),
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let mut out = head.into_bytes();
    out.extend_from_slice(body);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses `raw` as one whole request; panics unless it frames exactly.
    fn parse(raw: &str) -> Request {
        match parse_request(raw.as_bytes()) {
            Ok(Parse::Complete(outcome)) => {
                assert_eq!(outcome.consumed, raw.len(), "{raw:?}");
                outcome.request
            }
            other => panic!("{raw:?} did not parse: {other:?}"),
        }
    }

    /// The stage a buffer that ends at end of stream is stuck in.
    fn truncated_at(raw: &str) -> Stage {
        match parse_request(raw.as_bytes()) {
            Ok(Parse::Partial(stage)) => stage,
            other => panic!("{raw:?} is not a truncated prefix: {other:?}"),
        }
    }

    fn bad_request(raw: &str) -> bool {
        matches!(
            parse_request(raw.as_bytes()),
            Err(ParseError::BadRequest(_))
        )
    }

    #[test]
    fn parses_post_with_body() {
        let req = parse("POST /v1/schedule HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd");
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/v1/schedule");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("HOST"), Some("x"));
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn parses_get_without_body() {
        let req = parse("GET /metrics HTTP/1.1\r\n\r\n");
        assert_eq!(req.method, "GET");
        assert!(req.body.is_empty());
    }

    #[test]
    fn bare_lf_lines_are_accepted() {
        let req = parse("GET /healthz HTTP/1.1\nhost: y\n\n");
        assert_eq!(req.target, "/healthz");
        assert_eq!(req.header("host"), Some("y"));
    }

    #[test]
    fn rejects_protocol_garbage() {
        // An empty buffer is no request yet: at end of stream the event
        // loop closes it silently instead of answering 400.
        assert_eq!(truncated_at(""), Stage::Line);
        assert!(bad_request("GARBAGE\r\n\r\n"));
        assert!(bad_request("GET / SMTP/1.0\r\n\r\n"));
        assert!(bad_request("GET / HTTP/1.1\r\nbroken header\r\n\r\n"));
        assert!(bad_request(
            "GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n"
        ));
    }

    #[test]
    fn truncated_body_is_bad_request_not_io() {
        let stage = truncated_at("POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\nshort");
        assert_eq!(stage, Stage::Body);
        assert_eq!(stage.truncation_message(), "truncated request body");
    }

    #[test]
    fn truncated_line_and_headers_keep_their_messages() {
        let stage = truncated_at("POST /v1/sched");
        assert_eq!(stage, Stage::Line);
        assert_eq!(stage.truncation_message(), "truncated line");
        let stage = truncated_at("POST / HTTP/1.1\r\nhost: x\r\n");
        assert_eq!(stage, Stage::Head);
        assert_eq!(stage.truncation_message(), "truncated headers");
    }

    #[test]
    fn rejects_oversized_input() {
        let long = "GET /".to_string() + &"a".repeat(MAX_LINE + 1) + " HTTP/1.1\r\n\r\n";
        assert!(matches!(
            parse_request(long.as_bytes()),
            Err(ParseError::TooLarge)
        ));
        let big_body = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(matches!(
            parse_request(big_body.as_bytes()),
            Err(ParseError::TooLarge)
        ));
    }

    #[test]
    fn conflicting_duplicate_content_length_is_rejected() {
        // The smuggling vector: two different lengths for one body.
        assert!(matches!(
            parse_request(
                b"POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 7\r\n\r\nhello!!"
            ),
            Err(ParseError::BadRequest(
                "conflicting duplicate Content-Length headers"
            ))
        ));
        // Agreeing duplicates are one length, not an attack.
        let req = parse("POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nabcd");
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn transfer_encoding_is_rejected() {
        assert!(bad_request(
            "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
        ));
    }

    #[test]
    fn incremental_parse_reports_stages_then_completes() {
        let wire = b"POST /v1/schedule HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd";
        assert!(matches!(
            parse_request(&wire[..10]),
            Ok(Parse::Partial(Stage::Line))
        ));
        assert!(matches!(
            parse_request(&wire[..30]),
            Ok(Parse::Partial(Stage::Head))
        ));
        assert!(matches!(
            parse_request(&wire[..wire.len() - 2]),
            Ok(Parse::Partial(Stage::Body))
        ));
        match parse_request(wire).unwrap() {
            Parse::Complete(outcome) => {
                assert_eq!(outcome.consumed, wire.len());
                assert!(outcome.keep_alive, "HTTP/1.1 defaults to keep-alive");
                assert_eq!(outcome.request.body, b"abcd");
            }
            Parse::Partial(stage) => panic!("incomplete at {stage:?}"),
        }
    }

    #[test]
    fn pipelined_requests_frame_one_at_a_time() {
        let wire =
            b"GET /healthz HTTP/1.1\r\n\r\nGET /metrics HTTP/1.1\r\nconnection: close\r\n\r\n";
        let first = match parse_request(wire).unwrap() {
            Parse::Complete(outcome) => outcome,
            Parse::Partial(stage) => panic!("incomplete at {stage:?}"),
        };
        assert_eq!(first.request.target, "/healthz");
        assert!(first.keep_alive);
        let second = match parse_request(&wire[first.consumed..]).unwrap() {
            Parse::Complete(outcome) => outcome,
            Parse::Partial(stage) => panic!("incomplete at {stage:?}"),
        };
        assert_eq!(second.request.target, "/metrics");
        assert!(!second.keep_alive, "explicit close token wins");
    }

    #[test]
    fn connection_tokens_steer_keep_alive() {
        let keep = |raw: &str| match parse_request(raw.as_bytes()).unwrap() {
            Parse::Complete(outcome) => outcome.keep_alive,
            Parse::Partial(stage) => panic!("incomplete at {stage:?}"),
        };
        assert!(keep("GET / HTTP/1.1\r\n\r\n"));
        assert!(!keep("GET / HTTP/1.0\r\n\r\n"));
        assert!(keep("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"));
        assert!(!keep("GET / HTTP/1.1\r\nConnection: close\r\n\r\n"));
        assert!(!keep(
            "GET / HTTP/1.1\r\nConnection: keep-alive, close\r\n\r\n"
        ));
        assert!(keep("GET / HTTP/1.1\r\nConnection: Keep-Alive\r\n\r\n"));
    }

    #[test]
    fn response_wire_format() {
        let out = render_response(
            200,
            "application/json",
            &[("x-cool-cache", "hit")],
            b"{}",
            false,
        );
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 2\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.contains("x-cool-cache: hit\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn keep_alive_responses_advertise_it() {
        let bytes = render_response(200, "application/json", &[], b"{}", true);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.contains("connection: keep-alive\r\n"));
    }

    #[test]
    fn all_emitted_statuses_have_reasons() {
        for status in [200, 400, 404, 405, 408, 413, 422, 429, 500] {
            assert_ne!(reason(status), "Unknown", "{status}");
        }
    }
}
