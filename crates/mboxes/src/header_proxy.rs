//! The paper's prototype workload: an HTTP proxy that inserts a
//! header into every request (§5, "The middlebox in the following
//! experiments is a simple HTTP proxy that performs HTTP header
//! insertion").

use mbtls_core::dataplane::FlowDirection;
use mbtls_core::middlebox::DataProcessor;

use crate::rewrite::{HttpStream, REQUESTS, RESPONSES};

/// Inserts a configurable header into every client→server request
/// and (optionally) a marker header into every response.
pub struct HeaderInsertionProxy {
    header_name: String,
    header_value: String,
    tag_responses: bool,
    requests: HttpStream,
    responses: HttpStream,
    /// Requests processed.
    pub requests_seen: u64,
    /// Responses processed.
    pub responses_seen: u64,
}

impl HeaderInsertionProxy {
    /// New proxy inserting `name: value` into requests.
    pub fn new(name: &str, value: &str) -> Self {
        HeaderInsertionProxy {
            header_name: name.to_string(),
            header_value: value.to_string(),
            tag_responses: false,
            requests: HttpStream::default(),
            responses: HttpStream::default(),
            requests_seen: 0,
            responses_seen: 0,
        }
    }

    /// Also tag responses with an `X-Proxied: 1` header.
    pub fn tagging_responses(mut self) -> Self {
        self.tag_responses = true;
        self
    }
}

impl DataProcessor for HeaderInsertionProxy {
    fn process(&mut self, dir: FlowDirection, data: Vec<u8>) -> Vec<u8> {
        match dir {
            FlowDirection::ClientToServer => self.requests.rewrite(&REQUESTS, data, |req| {
                req.set_header(&self.header_name, &self.header_value);
                self.requests_seen += 1;
            }),
            FlowDirection::ServerToClient if self.tag_responses => {
                self.responses.rewrite(&RESPONSES, data, |resp| {
                    resp.set_header("X-Proxied", "1");
                    self.responses_seen += 1;
                })
            }
            FlowDirection::ServerToClient => data,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbtls_http::message::{Request, RequestParser, Response};

    #[test]
    fn inserts_header_into_request() {
        let mut proxy = HeaderInsertionProxy::new("Via", "mbtls-proxy/1.0");
        let wire = Request::get("/page", "example.com").encode();
        let out = proxy.process(FlowDirection::ClientToServer, wire);
        let mut parser = RequestParser::new();
        parser.feed(&out);
        let req = parser.next_request().unwrap().unwrap();
        assert_eq!(req.header("Via"), Some("mbtls-proxy/1.0"));
        assert_eq!(req.header("Host"), Some("example.com"));
        assert_eq!(proxy.requests_seen, 1);
    }

    #[test]
    fn buffers_partial_requests() {
        let mut proxy = HeaderInsertionProxy::new("Via", "p");
        let wire = Request::get("/x", "h").encode();
        let (a, b) = wire.split_at(10);
        let out1 = proxy.process(FlowDirection::ClientToServer, a.to_vec());
        assert!(out1.is_empty(), "no complete request yet");
        let out2 = proxy.process(FlowDirection::ClientToServer, b.to_vec());
        assert!(!out2.is_empty());
        assert_eq!(proxy.requests_seen, 1);
    }

    #[test]
    fn responses_pass_through_untouched_by_default() {
        let mut proxy = HeaderInsertionProxy::new("Via", "p");
        let wire = Response::ok(b"body").encode();
        let out = proxy.process(FlowDirection::ServerToClient, wire.clone());
        assert_eq!(out, wire);
    }

    #[test]
    fn response_tagging() {
        let mut proxy = HeaderInsertionProxy::new("Via", "p").tagging_responses();
        let wire = Response::ok(b"body").encode();
        let out = proxy.process(FlowDirection::ServerToClient, wire);
        let text = String::from_utf8_lossy(&out);
        assert!(text.contains("X-Proxied: 1"));
        assert_eq!(proxy.responses_seen, 1);
    }

    #[test]
    fn non_http_traffic_forwarded_raw() {
        let mut proxy = HeaderInsertionProxy::new("Via", "p");
        let raw = b"\x00\x01\x02 not http at all \xff".to_vec();
        let out = proxy.process(FlowDirection::ClientToServer, raw.clone());
        assert_eq!(out, raw);
    }

    #[test]
    fn pipelined_requests_all_tagged() {
        let mut proxy = HeaderInsertionProxy::new("Via", "p");
        let mut wire = Request::get("/a", "h").encode();
        wire.extend(Request::get("/b", "h").encode());
        let out = proxy.process(FlowDirection::ClientToServer, wire);
        let mut parser = RequestParser::new();
        parser.feed(&out);
        assert_eq!(
            parser.next_request().unwrap().unwrap().header("Via"),
            Some("p")
        );
        assert_eq!(
            parser.next_request().unwrap().unwrap().header("Via"),
            Some("p")
        );
        assert_eq!(proxy.requests_seen, 2);
    }
}
