//! Minimal HTTP request/response model.
//!
//! The paper's functions sit behind an embedded HTTP server "as usually
//! employed in commercial FaaS providers"; the platform's watchdog speaks
//! this shape to the replica.

use bytes::Bytes;

/// An inbound function invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request path (`/` for plain invocations).
    pub path: String,
    /// Request body (e.g. the markdown document to render).
    pub body: Bytes,
}

impl Request {
    /// A bodyless GET-style request to `/`.
    pub fn empty() -> Request {
        Request {
            path: "/".to_owned(),
            body: Bytes::new(),
        }
    }

    /// A request to `/` carrying `body`.
    pub fn with_body(body: impl Into<Bytes>) -> Request {
        Request {
            path: "/".to_owned(),
            body: body.into(),
        }
    }
}

/// A function response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP-style status code.
    pub status: u16,
    /// Response body.
    pub body: Bytes,
}

impl Response {
    /// A `200 OK` response with `body`.
    pub fn ok(body: impl Into<Bytes>) -> Response {
        Response {
            status: 200,
            body: body.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let r = Request::empty();
        assert_eq!(r.path, "/");
        assert!(r.body.is_empty());
        let r = Request::with_body("hello".as_bytes().to_vec());
        assert_eq!(&r.body[..], b"hello");
    }
}
