//! A parental-filter middlebox: blocks requests to disallowed
//! targets. The filter class is central to the paper's §4.2
//! "Bypassing 'Filter' Middleboxes" discussion — the corresponding
//! security scenario lives in the mbTLS test-suite.

use mbtls_core::dataplane::FlowDirection;
use mbtls_core::middlebox::DataProcessor;
use mbtls_http::message::Request;

use crate::rewrite::{HttpStream, REQUESTS};

/// The filter middlebox.
pub struct ParentalFilter {
    blocked_substrings: Vec<String>,
    requests: HttpStream,
    /// Requests blocked.
    pub blocked_count: u64,
    /// Requests allowed.
    pub allowed_count: u64,
    /// Targets that were blocked (audit log).
    pub audit_log: Vec<String>,
}

impl ParentalFilter {
    /// Block any request whose target contains one of the substrings.
    pub fn new(blocked: &[&str]) -> Self {
        ParentalFilter {
            blocked_substrings: blocked.iter().map(|s| s.to_string()).collect(),
            requests: HttpStream::default(),
            blocked_count: 0,
            allowed_count: 0,
            audit_log: Vec::new(),
        }
    }
}

impl DataProcessor for ParentalFilter {
    fn process(&mut self, dir: FlowDirection, data: Vec<u8>) -> Vec<u8> {
        if dir == FlowDirection::ServerToClient {
            return data;
        }
        self.requests.rewrite(&REQUESTS, data, |req| {
            let target = req.target();
            let blocked = self
                .blocked_substrings
                .iter()
                .any(|s| target.contains(s.as_str()));
            if blocked {
                self.blocked_count += 1;
                self.audit_log.push(target.to_string());
                // Rewrite the request into a harmless probe of the
                // block page; the origin never sees the original
                // target.
                let mut page = Request::get("/blocked", "filter.local");
                page.set_header("X-Filtered-By", "parental-filter");
                req.replace(page);
            } else {
                self.allowed_count += 1;
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbtls_http::message::Response;

    #[test]
    fn blocks_matching_targets() {
        let mut filter = ParentalFilter::new(&["gambling", "malware"]);
        let out = filter.process(
            FlowDirection::ClientToServer,
            Request::get("/gambling/poker", "x").encode(),
        );
        let text = String::from_utf8_lossy(&out);
        assert!(text.contains("GET /blocked"));
        assert!(text.contains("X-Filtered-By"));
        assert_eq!(filter.blocked_count, 1);
        assert_eq!(filter.audit_log, vec!["/gambling/poker"]);
    }

    #[test]
    fn allows_clean_targets() {
        let mut filter = ParentalFilter::new(&["gambling"]);
        let wire = Request::get("/homework/math", "x").encode();
        let out = filter.process(FlowDirection::ClientToServer, wire.clone());
        assert_eq!(out, wire);
        assert_eq!(filter.allowed_count, 1);
        assert_eq!(filter.blocked_count, 0);
    }

    #[test]
    fn responses_untouched() {
        let mut filter = ParentalFilter::new(&["x"]);
        let wire = Response::ok(b"body").encode();
        assert_eq!(filter.process(FlowDirection::ServerToClient, wire.clone()), wire);
    }

    #[test]
    fn mixed_pipeline() {
        let mut filter = ParentalFilter::new(&["bad"]);
        let mut wire = Request::get("/good", "h").encode();
        wire.extend(Request::get("/bad", "h").encode());
        wire.extend(Request::get("/also-good", "h").encode());
        filter.process(FlowDirection::ClientToServer, wire);
        assert_eq!(filter.allowed_count, 2);
        assert_eq!(filter.blocked_count, 1);
    }
}
