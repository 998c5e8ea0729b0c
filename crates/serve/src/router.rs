//! A typed route table: method + path pattern + handler.
//!
//! Patterns are literal segments with `:name` captures
//! (`/v1/jobs/:id`). Dispatch centralizes the 404/405 distinction — a
//! path that matches some route under a different method is a 405, an
//! unmatched path a 404 — and every route carries its own metrics label,
//! so adding an endpoint is one table entry, not a new match arm plus
//! bookkeeping. A handler fails with `?`: its `Err` is the error
//! envelope, which dispatch answers like any other response.

use crate::api::{self, ErrorCode};
use crate::http::{Request, Response};

/// Path captures from a matched `:name` pattern segment.
#[derive(Debug, Default)]
pub struct Params(Vec<(&'static str, String)>);

impl Params {
    /// The capture named `name`, if the pattern had one.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// What a handler answers: the response, or the error-envelope response
/// that stopped it. Helpers that a handler calls with `?` answer
/// `Answer<T>`.
pub type Answer<T = Response> = Result<T, Response>;

/// One routing table entry.
pub struct Route<C> {
    /// Uppercase method this route answers.
    pub method: &'static str,
    /// Path pattern; `:name` segments capture into [`Params`].
    pub pattern: &'static str,
    /// Metrics label recorded for requests served by this route.
    pub label: &'static str,
    /// The handler.
    pub handler: fn(&C, &Request, &Params) -> Answer,
}

/// An interned metrics label: an index into the router's deduplicated
/// label table, assigned once at router-build time so the per-request
/// hot path records latency by direct array index instead of a linear
/// string search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LabelId(pub usize);

/// The route table for a context type `C` (the server's shared state).
pub struct Router<C> {
    routes: Vec<(Route<C>, LabelId)>,
    labels: Vec<&'static str>,
    not_found: LabelId,
    method_not_allowed: LabelId,
}

impl<C> Router<C> {
    /// Builds a router from its table, interning every route's metrics
    /// label (plus the reserved `404`/`405` labels) into a deduplicated
    /// table.
    pub fn new(routes: Vec<Route<C>>) -> Router<C> {
        let mut labels: Vec<&'static str> = Vec::new();
        let mut intern = |label: &'static str| -> LabelId {
            if let Some(i) = labels.iter().position(|l| *l == label) {
                LabelId(i)
            } else {
                labels.push(label);
                LabelId(labels.len() - 1)
            }
        };
        let routes = routes
            .into_iter()
            .map(|r| {
                let id = intern(r.label);
                (r, id)
            })
            .collect();
        let not_found = intern("404");
        let method_not_allowed = intern("405");
        Router {
            routes,
            labels,
            not_found,
            method_not_allowed,
        }
    }

    /// The deduplicated label table; `LabelId(i)` names `labels()[i]`.
    pub fn labels(&self) -> &[&'static str] {
        &self.labels
    }

    /// Resolves an interned label back to its string.
    pub fn label_name(&self, id: LabelId) -> &'static str {
        self.labels[id.0]
    }

    /// Dispatches one request: runs the matching handler and answers its
    /// response or its error envelope, or builds the centralized 404/405
    /// envelope. Returns the interned metrics label alongside the
    /// response.
    pub fn dispatch(&self, ctx: &C, req: &Request) -> (LabelId, Response) {
        let mut path_matched = false;
        for (route, id) in &self.routes {
            let Some(params) = match_pattern(route.pattern, &req.path) else {
                continue;
            };
            if route.method == req.method {
                let answer = (route.handler)(ctx, req, &params);
                return (*id, answer.unwrap_or_else(|err| err));
            }
            path_matched = true;
        }
        if path_matched {
            (
                self.method_not_allowed,
                api::error_response(ErrorCode::MethodNotAllowed, "method not allowed", None),
            )
        } else {
            (
                self.not_found,
                api::error_response(ErrorCode::NotFound, "not found", None),
            )
        }
    }
}

/// Matches `path` against `pattern`, returning captures on success.
/// Capture segments must be non-empty (`/v1/jobs/` does not match
/// `/v1/jobs/:id`).
fn match_pattern(pattern: &'static str, path: &str) -> Option<Params> {
    let mut caps = Vec::new();
    let mut pat = pattern.split('/');
    let mut got = path.split('/');
    loop {
        match (pat.next(), got.next()) {
            (None, None) => return Some(Params(caps)),
            (Some(p), Some(g)) => {
                if let Some(name) = p.strip_prefix(':') {
                    if g.is_empty() {
                        return None;
                    }
                    caps.push((name, g.to_owned()));
                } else if p != g {
                    return None;
                }
            }
            _ => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(method: &str, path: &str) -> Request {
        Request {
            method: method.to_owned(),
            path: path.to_owned(),
            query: None,
            headers: Vec::new(),
            body: Vec::new(),
            request_id: String::new(),
        }
    }

    fn test_router() -> Router<u32> {
        Router::new(vec![
            Route {
                method: "GET",
                pattern: "/v1/things/:id",
                label: "GET /v1/things",
                handler: |ctx, _req, params| {
                    Ok(Response::json(
                        200,
                        format!("{{\"ctx\":{ctx},\"id\":\"{}\"}}", params.get("id").unwrap())
                            .into_bytes(),
                    ))
                },
            },
            Route {
                method: "POST",
                pattern: "/v1/things",
                label: "POST /v1/things",
                // An `Err` answer goes out as it is.
                handler: |_, _, _| Err(Response::json(202, b"{}".to_vec())),
            },
        ])
    }

    #[test]
    fn literal_and_capture_segments_dispatch() {
        let r = test_router();
        let (label, resp) = r.dispatch(&7, &req("GET", "/v1/things/42"));
        assert_eq!(r.label_name(label), "GET /v1/things");
        assert_eq!(resp.status, 200);
        assert_eq!(
            String::from_utf8(resp.body).unwrap(),
            "{\"ctx\":7,\"id\":\"42\"}"
        );
        let (label, resp) = r.dispatch(&7, &req("POST", "/v1/things"));
        assert_eq!((r.label_name(label), resp.status), ("POST /v1/things", 202));
    }

    #[test]
    fn unknown_path_is_404_wrong_method_is_405() {
        let r = test_router();
        let (label, resp) = r.dispatch(&0, &req("GET", "/nope"));
        assert_eq!((r.label_name(label), resp.status), ("404", 404));
        assert!(String::from_utf8(resp.body).unwrap().contains("not_found"));

        let (label, resp) = r.dispatch(&0, &req("DELETE", "/v1/things"));
        assert_eq!((r.label_name(label), resp.status), ("405", 405));
        assert!(String::from_utf8(resp.body)
            .unwrap()
            .contains("method_not_allowed"));
    }

    #[test]
    fn empty_capture_does_not_match() {
        let r = test_router();
        let (label, _) = r.dispatch(&0, &req("GET", "/v1/things/"));
        assert_eq!(r.label_name(label), "404");
        assert!(match_pattern("/v1/things/:id", "/v1/things/a/b").is_none());
    }

    #[test]
    fn labels_are_interned_and_deduplicated() {
        let r = Router::<u32>::new(vec![
            Route {
                method: "GET",
                pattern: "/a",
                label: "shared",
                handler: |_, _, _| Ok(Response::json(200, b"{}".to_vec())),
            },
            Route {
                method: "POST",
                pattern: "/b",
                label: "shared",
                handler: |_, _, _| Ok(Response::json(200, b"{}".to_vec())),
            },
        ]);
        // One "shared" entry plus the reserved 404/405 labels.
        assert_eq!(r.labels(), &["shared", "404", "405"]);
        let (a, _) = r.dispatch(&0, &req("GET", "/a"));
        let (b, _) = r.dispatch(&0, &req("POST", "/b"));
        assert_eq!(a, b);
    }
}
