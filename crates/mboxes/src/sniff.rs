//! First-bytes protocol sniffing for the HTTP rewrite loop: a
//! middlebox facing a non-HTTP stream falls back to raw forwarding
//! instead of buffering bytes it will never be able to parse.

/// Remembers the verdict from the first non-empty chunk.
#[derive(Default)]
pub struct Sniffer {
    decided: Option<bool>,
}

impl Sniffer {
    /// New, undecided sniffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns true if the stream is (still believed to be) HTTP.
    /// The verdict is fixed by the first non-empty chunk.
    pub fn is_http(&mut self, data: &[u8], probe: impl Fn(&[u8]) -> bool) -> bool {
        if let Some(v) = self.decided {
            return v;
        }
        if data.is_empty() {
            return true; // no evidence yet
        }
        let verdict = probe(data);
        self.decided = Some(verdict);
        verdict
    }

    /// Fix the verdict at "not HTTP": what looked like HTTP stopped
    /// parsing as it.
    pub fn give_up(&mut self) {
        self.decided = Some(false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbtls_http::message::{looks_like_http_request, looks_like_http_response};

    #[test]
    fn decides_once() {
        let mut s = Sniffer::new();
        assert!(!s.is_http(b"\x00garbage", looks_like_http_request));
        // Later HTTP-looking bytes do not flip the verdict.
        assert!(!s.is_http(b"GET / HTTP/1.1", looks_like_http_request));
    }

    #[test]
    fn http_request_detected() {
        let mut s = Sniffer::new();
        assert!(s.is_http(b"GET /x HTTP/1.1\r\n", looks_like_http_request));
        assert!(s.is_http(b"anything after", looks_like_http_request));
    }

    #[test]
    fn response_probe() {
        let mut s = Sniffer::new();
        assert!(s.is_http(b"HTTP/1.1 200 OK\r\n", looks_like_http_response));
        let mut s = Sniffer::new();
        assert!(!s.is_http(b"SSH-2.0-OpenSSH", looks_like_http_response));
    }

    #[test]
    fn empty_chunks_leave_undecided() {
        let mut s = Sniffer::new();
        assert!(s.is_http(b"", looks_like_http_request));
        assert!(!s.is_http(b"\xffbinary", looks_like_http_request));
    }
}
