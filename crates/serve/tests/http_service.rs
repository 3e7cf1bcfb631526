//! End-to-end integration tests: a real server on an ephemeral port,
//! driven over real TCP connections through the crate's own client.

use std::time::{Duration, Instant};

use rbp_serve::http::{self, ClientResponse};
use rbp_serve::{ServeConfig, Server};
use rbp_util::json::Json;

const TIMEOUT: Duration = Duration::from_secs(10);

fn small_server() -> Server {
    Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_cap: 16,
        cache_cap: 64,
        default_deadline_ms: 10_000,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port")
}

fn post(server: &Server, path: &str, body: &str) -> ClientResponse {
    http::request(server.addr(), "POST", path, Some(body), TIMEOUT).expect("http roundtrip")
}

fn get(server: &Server, path: &str) -> ClientResponse {
    http::request(server.addr(), "GET", path, None, TIMEOUT).expect("http roundtrip")
}

const SOLVE_BODY: &str = r#"{"generator":{"family":"grid","params":[2,3]},"k":2,"r":3,"g":2}"#;

#[test]
fn healthz_and_unknown_routes() {
    let server = small_server();
    let ok = get(&server, "/v1/healthz");
    assert_eq!(ok.status, 200);
    assert!(ok.body.contains("\"status\":\"ok\""), "{}", ok.body);

    assert_eq!(get(&server, "/v1/nope").status, 404);
    assert_eq!(post(&server, "/v1/nope", "{}").status, 404);
    server.shutdown();
}

#[test]
fn solve_twice_hits_cache_with_identical_cost() {
    let server = small_server();

    let cold = post(&server, "/v1/solve", SOLVE_BODY);
    assert_eq!(cold.status, 200, "{}", cold.body);
    let cold_json = Json::parse(&cold.body).unwrap();
    assert_eq!(cold_json.get("cache").and_then(Json::as_str), Some("miss"));
    let cold_total = cold_json
        .get("result")
        .and_then(|r| r.get("total"))
        .and_then(Json::as_u64)
        .expect("solve result has a total");

    let warm = post(&server, "/v1/solve", SOLVE_BODY);
    assert_eq!(warm.status, 200, "{}", warm.body);
    let warm_json = Json::parse(&warm.body).unwrap();
    assert_eq!(warm_json.get("cache").and_then(Json::as_str), Some("hit"));
    let warm_total = warm_json
        .get("result")
        .and_then(|r| r.get("total"))
        .and_then(Json::as_u64)
        .unwrap();
    assert_eq!(cold_total, warm_total, "cached result must be identical");

    // Stats reflect one hit and one miss.
    let stats = Json::parse(&get(&server, "/v1/stats").body).unwrap();
    let cache = stats.get("cache").unwrap();
    assert_eq!(cache.get("hits").and_then(Json::as_u64), Some(1));
    assert!(cache.get("misses").and_then(Json::as_u64).unwrap() >= 1);
    server.shutdown();
}

#[test]
fn validation_errors_map_to_http_statuses() {
    let server = small_server();
    assert_eq!(post(&server, "/v1/solve", "not json").status, 400);
    assert_eq!(post(&server, "/v1/solve", r#"{"k":2}"#).status, 400);
    // Infeasible r: grid(2,3) needs r >= 3.
    let infeasible = r#"{"generator":{"family":"grid","params":[2,3]},"k":2,"r":1,"g":2}"#;
    assert_eq!(post(&server, "/v1/solve", infeasible).status, 422);
    // Unknown generator family.
    let unknown = r#"{"generator":{"family":"nope"},"k":2,"r":3,"g":2}"#;
    assert_eq!(post(&server, "/v1/solve", unknown).status, 400);
    server.shutdown();
}

/// A cost whose sums would overflow the search's `u64` arithmetic is
/// refused with a 422 before any search runs, and the server keeps
/// answering.
#[test]
fn hostile_cost_is_refused_and_the_server_keeps_answering() {
    let server = small_server();
    let body = format!(
        r#"{{"generator":{{"family":"grid","params":[3,3]}},"k":2,"r":3,"g":{}}}"#,
        i64::MAX
    );
    let started = Instant::now();
    let refused = post(&server, "/v1/solve", &body);
    assert_eq!(refused.status, 422, "{}", refused.body);
    assert!(refused.body.contains("unsupported"), "{}", refused.body);
    assert!(started.elapsed() < TIMEOUT, "refused promptly");
    let ok = get(&server, "/v1/healthz");
    assert_eq!(ok.status, 200);
    assert!(ok.body.contains("\"status\":\"ok\""), "{}", ok.body);
    server.shutdown();
}

#[test]
fn schedule_bounds_generate_endpoints_respond() {
    let server = small_server();

    let sched = Json::parse(&post(&server, "/v1/schedule", SOLVE_BODY).body).unwrap();
    let rows = sched
        .get("result")
        .and_then(|r| r.get("schedulers"))
        .and_then(Json::as_arr)
        .expect("schedulers array");
    assert!(rows.len() >= 4);

    let bounds = Json::parse(&post(&server, "/v1/bounds", SOLVE_BODY).body).unwrap();
    let result = bounds.get("result").unwrap();
    let lower = result.get("lower").and_then(Json::as_u64).unwrap();
    let upper = result.get("upper").and_then(Json::as_u64).unwrap();
    assert!(lower <= upper);

    let gen_body = r#"{"generator":{"family":"tree","params":[4]}}"#;
    let gen = Json::parse(&post(&server, "/v1/generate", gen_body).body).unwrap();
    let text = gen
        .get("result")
        .and_then(|r| r.get("dag_text"))
        .and_then(Json::as_str)
        .expect("dag text");
    assert!(text.starts_with("dag "));
    server.shutdown();
}

#[test]
fn async_submit_poll_result_flow() {
    let server = small_server();
    let body = r#"{"generator":{"family":"grid","params":[2,4]},"k":2,"r":3,"g":2,"mode":"async","budget_ms":100}"#;
    let submitted = post(&server, "/v1/portfolio", body);
    assert_eq!(submitted.status, 202, "{}", submitted.body);
    let sub = Json::parse(&submitted.body).unwrap();
    let job = sub.get("job").and_then(Json::as_u64).expect("job id");

    // Poll until terminal (worker needs ~100 ms for the race).
    let deadline = Instant::now() + Duration::from_secs(10);
    let result = loop {
        let polled = get(&server, &format!("/v1/jobs/{job}/result"));
        if polled.status == 200 {
            break Json::parse(&polled.body).unwrap();
        }
        assert_eq!(polled.status, 202, "{}", polled.body);
        assert!(Instant::now() < deadline, "job never finished");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(result.get("cache").and_then(Json::as_str), Some("job"));
    let total = result
        .get("result")
        .and_then(|r| r.get("total"))
        .and_then(Json::as_u64)
        .unwrap();
    assert!(total > 0);

    // Status endpoint agrees.
    let status = Json::parse(&get(&server, &format!("/v1/jobs/{job}")).body).unwrap();
    assert_eq!(status.get("status").and_then(Json::as_str), Some("done"));
    // Unknown job → 404.
    assert_eq!(get(&server, "/v1/jobs/999999").status, 404);
    server.shutdown();
}

#[test]
fn sync_deadline_answers_504_with_poll_handle() {
    let server = small_server();
    // A 400 ms portfolio race with a 30 ms deadline must time out. The
    // 81-node grid is beyond the exact lane (n ≤ 64), so no proven
    // optimum can end the race early: refinement runs the full budget.
    let body = r#"{"generator":{"family":"grid","params":[9,9]},"k":2,"r":3,"g":2,"budget_ms":400,"deadline_ms":30}"#;
    let resp = post(&server, "/v1/portfolio", body);
    assert_eq!(resp.status, 504, "{}", resp.body);
    let json = Json::parse(&resp.body).unwrap();
    let job = json.get("job").and_then(Json::as_u64).expect("poll handle");

    // The job still completes and becomes retrievable.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let polled = get(&server, &format!("/v1/jobs/{job}/result"));
        if polled.status == 200 {
            break;
        }
        assert!(Instant::now() < deadline, "timed-out job never completed");
        std::thread::sleep(Duration::from_millis(20));
    }
    server.shutdown();
}

#[test]
fn overload_returns_503_and_never_drops_requests() {
    // One worker, one queue slot: concurrent slow submissions must see
    // explicit 503 backpressure with Retry-After, never a hang or drop.
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_cap: 1,
        cache_cap: 0, // distinct seeds would miss anyway; keep it simple
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    let n = 6;
    let results: Vec<ClientResponse> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|i| {
                scope.spawn(move || {
                    // Distinct seeds defeat the cache so every request
                    // carries real work.
                    let body = format!(
                        r#"{{"generator":{{"family":"grid","params":[2,4]}},"k":2,"r":3,"g":2,"budget_ms":200,"seed":{i}}}"#
                    );
                    http::request(addr, "POST", "/v1/portfolio", Some(&body), TIMEOUT)
                        .expect("every request gets an answer")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let ok = results.iter().filter(|r| r.status == 200).count();
    let rejected: Vec<&ClientResponse> = results.iter().filter(|r| r.status == 503).collect();
    assert_eq!(
        ok + rejected.len(),
        n,
        "every request answered with 200 or 503"
    );
    assert!(ok >= 1, "at least the first job executes");
    assert!(!rejected.is_empty(), "backpressure must trigger");
    for r in &rejected {
        assert_eq!(r.header("retry-after"), Some("1"), "{}", r.body);
    }

    // Stats agree: rejected count matches observed 503s.
    let stats = Json::parse(&get(&server, "/v1/stats").body).unwrap();
    assert_eq!(
        stats.get("rejected").and_then(Json::as_u64),
        Some(rejected.len() as u64)
    );
    server.shutdown();
}

#[test]
fn graceful_shutdown_via_endpoint_drains() {
    let server = small_server();
    let addr = server.addr();
    let resp = post(&server, "/v1/shutdown", "");
    assert_eq!(resp.status, 200);
    assert!(resp.body.contains("draining"), "{}", resp.body);
    server.wait(); // returns once drained

    // The listener is gone afterwards.
    let after = http::request(addr, "GET", "/v1/healthz", None, Duration::from_millis(500));
    assert!(after.is_err() || after.unwrap().status != 200);
}

/// Hostile-size input over real TCP. A legal body one byte under
/// `max_body_bytes` — one ~1 MiB `dag_text` string, a tiny DAG behind
/// a megabyte of comment lines, so the JSON string parser and the DAG
/// parser each scan all of it — is answered within a fixed bound. A
/// request declaring a body one byte over the cap is refused with 413
/// from its head alone. The server still answers `/v1/healthz` after
/// both.
#[test]
fn body_under_the_size_cap_is_answered_and_one_byte_over_is_refused() {
    use std::io::{Read as _, Write as _};

    let server = small_server();
    let cap = ServeConfig::default().max_body_bytes;

    let head = r#"{"k":2,"r":3,"g":2,"dag_text":""#;
    let tail = r#"dag hostile\nnodes 2\nedge 0 1\nend\n"}"#;
    let pad = r"# padding line\n";
    let mut body = String::with_capacity(cap);
    body.push_str(head);
    while body.len() + pad.len() + tail.len() < cap {
        body.push_str(pad);
    }
    while body.len() + tail.len() < cap - 1 {
        body.push('#');
    }
    body.push_str(tail);
    assert_eq!(body.len(), cap - 1);

    let started = Instant::now();
    let big = post(&server, "/v1/solve", &body);
    let took = started.elapsed();
    assert!(
        big.status < 500,
        "a legal body is answered, not failed: {} {}",
        big.status,
        big.body
    );
    // Release parses this in milliseconds; the bound leaves room for a
    // debug build on a loaded host and still catches a parser that is
    // quadratic in the string length (~30 s for this body).
    assert!(
        took < Duration::from_secs(5),
        "a {cap}-byte-cap body took {took:?}"
    );

    // Over the cap: the server refuses on the declared length and never
    // reads the body, so none is sent (writing into a connection the
    // server has closed would race its reply).
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    stream.set_read_timeout(Some(TIMEOUT)).unwrap();
    write!(
        stream,
        "POST /v1/solve HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        cap + 1
    )
    .unwrap();
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).expect("read the refusal");
    let reply = String::from_utf8_lossy(&reply);
    assert!(reply.starts_with("HTTP/1.1 413"), "{reply}");

    assert_eq!(get(&server, "/v1/healthz").status, 200);
    server.shutdown();
}
