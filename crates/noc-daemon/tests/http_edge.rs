//! HTTP-layer edge cases: malformed input of every kind must map to the
//! right status code — and must never kill the daemon (the final health
//! check proves the accept loop survived everything).

mod common;

use common::{request, request_auth, send_raw, status_of, wait_for_job};
use dxbar_noc::noc_traffic::splash::SplashApp;
use dxbar_noc::{Design, SimConfig};
use noc_campaign::{CampaignSpec, PointGroup, WorkloadAxis};
use noc_daemon::{Daemon, DaemonConfig};
use std::time::Duration;

#[test]
fn protocol_edges_return_clean_statuses_and_never_kill_the_daemon() {
    let state_dir = common::scratch("http");
    let handle = Daemon::start(DaemonConfig {
        addr: "127.0.0.1:0".into(),
        state_dir: state_dir.clone(),
        cache_dir: state_dir.join("cache"),
        workers: 1,
        max_body: 4096,
        code_salt: "daemon-http-test-v1".into(),
        ..DaemonConfig::default()
    })
    .expect("daemon starts");
    let addr = handle.addr;

    // Unknown route.
    let (status, body) = request(addr, "GET", "/no/such/route", None);
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("error"));

    // Wrong method on known routes.
    assert_eq!(request(addr, "DELETE", "/jobs", None).0, 405);
    assert_eq!(request(addr, "GET", "/shutdown", None).0, 405);
    assert_eq!(request(addr, "POST", "/healthz", None).0, 405);

    // Bad JSON spec / bad job requests.
    assert_eq!(request(addr, "POST", "/jobs", Some("{not json")).0, 400);
    assert_eq!(request(addr, "POST", "/jobs", Some("")).0, 400);
    assert_eq!(
        request(addr, "POST", "/jobs", Some("{\"preset\": \"no_such_fig\"}")).0,
        400
    );
    assert_eq!(
        request(addr, "POST", "/jobs", Some("{\"spec\": {\"name\": \"x\"}}")).0,
        400
    );
    assert_eq!(
        request(
            addr,
            "POST",
            "/jobs",
            Some("{\"preset\": \"smoke\", \"priority\": \"urgent\"}")
        )
        .0,
        400
    );

    // Oversized body (max_body = 4096).
    let big = format!("{{\"pad\": \"{}\"}}", "x".repeat(5000));
    assert_eq!(request(addr, "POST", "/jobs", Some(&big)).0, 413);

    // Chunked transfer encoding is refused, not misparsed.
    let chunked = b"POST /jobs HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n0\r\n\r\n";
    assert_eq!(status_of(&send_raw(addr, chunked)), 501);

    // Malformed request line and unsupported version.
    assert_eq!(status_of(&send_raw(addr, b"GARBAGE\r\n\r\n")), 400);
    assert_eq!(
        status_of(&send_raw(
            addr,
            b"GET / HTTP/0.9\r\nConnection: close\r\n\r\n"
        )),
        400
    );

    // Truncated body: Content-Length promises more than is sent.
    assert_eq!(
        status_of(&send_raw(
            addr,
            b"POST /jobs HTTP/1.1\r\nHost: t\r\nContent-Length: 50\r\nConnection: close\r\n\r\n{}"
        )),
        400
    );

    // Header section larger than the 16 KiB head budget.
    let huge_head = format!(
        "GET /healthz HTTP/1.1\r\nHost: t\r\nX-Pad: {}\r\nConnection: close\r\n\r\n",
        "y".repeat(20_000)
    );
    assert_eq!(status_of(&send_raw(addr, huge_head.as_bytes())), 413);

    // Pipelined requests on one connection: both answered, in order.
    let pipelined = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\nGET /presets HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n";
    let stream = send_raw(addr, pipelined);
    assert_eq!(stream.matches("HTTP/1.1 200 OK").count(), 2, "{stream}");
    assert!(stream.contains("\"status\""), "first response is /healthz");
    assert!(
        stream.contains("verify_smoke"),
        "second response is /presets"
    );

    // After all that abuse the daemon still works end to end: submit a
    // real job over the same control plane and watch it finish.
    let (status, body) = request(
        addr,
        "POST",
        "/jobs",
        Some(&format!("{{\"spec\": {}}}", common::tiny_spec().to_json())),
    );
    assert_eq!(status, 202, "{body}");
    let id = serde_json::parse(&body)
        .unwrap()
        .field("job")
        .as_u64()
        .unwrap();
    let v = wait_for_job(addr, id, Duration::from_secs(120));
    assert_eq!(v.field("state").as_str(), Some("done"));

    let (status, body) = request(addr, "GET", "/healthz", None);
    assert_eq!(status, 200);
    let health = serde_json::parse(&body).unwrap();
    assert_eq!(health.field("status").as_str(), Some("ok"));

    // Graceful shutdown over HTTP.
    let (status, _) = request(addr, "POST", "/shutdown", None);
    assert_eq!(status, 202);
    handle.wait();
    let _ = std::fs::remove_dir_all(&state_dir);
}

/// Slowloris and friends: clients that dribble or stall a request must be
/// cut off by the per-request wall-clock deadline with a 408 — dribbling a
/// byte per read resets the socket timeout but never the deadline — and a
/// slow client must not wedge the worker for anyone else.
#[test]
fn slow_clients_hit_the_request_deadline_not_the_worker() {
    use std::io::{Read, Write};
    use std::net::TcpStream;

    let state_dir = common::scratch("slowloris");
    let handle = Daemon::start(DaemonConfig {
        addr: "127.0.0.1:0".into(),
        state_dir: state_dir.clone(),
        cache_dir: state_dir.join("cache"),
        workers: 1,
        request_timeout_ms: 300,
        code_salt: "daemon-slowloris-test-v1".into(),
        ..DaemonConfig::default()
    })
    .expect("daemon starts");
    let addr = handle.addr;

    let read_all = |mut s: TcpStream| -> String {
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut out = Vec::new();
        let _ = s.read_to_end(&mut out);
        String::from_utf8_lossy(&out).into_owned()
    };

    // Classic slowloris: dribble header bytes, never finishing the head.
    // Every byte lands before the 300 ms deadline expires; the dribbling
    // stops just short of it so the 408 is read intact.
    let t0 = std::time::Instant::now();
    let mut s = TcpStream::connect(addr).unwrap();
    for b in b"GET /healthz" {
        if s.write_all(&[*b]).is_err() {
            break; // server already gave up on us — that is the point
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let resp = read_all(s);
    assert_eq!(status_of(&resp), 408, "{resp}");
    assert!(
        t0.elapsed() < Duration::from_secs(8),
        "deadline did not bound the dribbled request"
    );

    // A fully stalled header: the first byte arms the deadline, then
    // nothing more ever comes (and the connection stays open).
    let t0 = std::time::Instant::now();
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"GET /healthz HT").unwrap();
    let resp = read_all(s);
    assert_eq!(status_of(&resp), 408, "{resp}");
    assert!(t0.elapsed() < Duration::from_secs(8));

    // A stalled body: complete head whose Content-Length promises bytes
    // that never arrive, without a half-close — so no EOF, just silence.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"POST /jobs HTTP/1.1\r\nHost: t\r\nContent-Length: 50\r\n\r\n{}")
        .unwrap();
    let resp = read_all(s);
    assert_eq!(status_of(&resp), 408, "{resp}");

    // All that dawdling never wedged the daemon: a healthy request on a
    // fresh connection still answers.
    let (status, body) = request(addr, "GET", "/healthz", None);
    assert_eq!(status, 200, "{body}");

    handle.begin_drain();
    handle.wait();
    let _ = std::fs::remove_dir_all(&state_dir);
}

#[test]
fn bearer_token_guards_mutating_endpoints() {
    let state_dir = common::scratch("auth");
    let handle = Daemon::start(DaemonConfig {
        addr: "127.0.0.1:0".into(),
        state_dir: state_dir.clone(),
        cache_dir: state_dir.join("cache"),
        workers: 1,
        max_body: 4096,
        code_salt: "daemon-auth-test-v1".into(),
        auth_token: Some("sesame".into()),
        ..DaemonConfig::default()
    })
    .expect("daemon starts");
    let addr = handle.addr;

    // Reads stay open without a token.
    assert_eq!(request(addr, "GET", "/healthz", None).0, 200);
    assert_eq!(request(addr, "GET", "/jobs", None).0, 200);
    assert_eq!(request(addr, "GET", "/presets", None).0, 200);

    // Every mutating endpoint rejects a missing or wrong token with 401
    // before any request parsing happens.
    let submit = format!("{{\"spec\": {}}}", common::tiny_spec().to_json());
    let (status, body) = request(addr, "POST", "/jobs", Some(&submit));
    assert_eq!(status, 401, "{body}");
    assert!(body.contains("bearer"), "{body}");
    assert_eq!(
        request_auth(addr, "POST", "/jobs", "Bearer wrong", Some(&submit)).0,
        401
    );
    assert_eq!(
        request_auth(addr, "POST", "/jobs", "Basic sesame", Some(&submit)).0,
        401
    );
    assert_eq!(request(addr, "POST", "/jobs/1/cancel", None).0, 401);
    assert_eq!(request(addr, "POST", "/shutdown", None).0, 401);

    // The right token reaches the real handlers: submit runs a job...
    let (status, body) = request_auth(addr, "POST", "/jobs", "Bearer sesame", Some(&submit));
    assert_eq!(status, 202, "{body}");
    let id = serde_json::parse(&body)
        .unwrap()
        .field("job")
        .as_u64()
        .unwrap();
    let v = wait_for_job(addr, id, Duration::from_secs(120));
    assert_eq!(v.field("state").as_str(), Some("done"));

    // ...cancel of an unknown id gets past auth to its 404...
    assert_eq!(
        request_auth(addr, "POST", "/jobs/999/cancel", "Bearer sesame", None).0,
        404
    );

    // ...and shutdown drains gracefully.
    assert_eq!(
        request_auth(addr, "POST", "/shutdown", "Bearer sesame", None).0,
        202
    );
    handle.wait();
    let _ = std::fs::remove_dir_all(&state_dir);
}

#[test]
fn responses_carry_json_errors_not_panics() {
    let state_dir = common::scratch("http2");
    let handle = Daemon::start(DaemonConfig {
        addr: "127.0.0.1:0".into(),
        state_dir: state_dir.clone(),
        cache_dir: state_dir.join("cache"),
        workers: 1,
        code_salt: "daemon-http-test-v2".into(),
        ..DaemonConfig::default()
    })
    .expect("daemon starts");
    let addr = handle.addr;

    // Unknown job id, unfinished-results conflict, bad id formats.
    assert_eq!(request(addr, "GET", "/jobs/999", None).0, 404);
    assert_eq!(request(addr, "GET", "/jobs/999/results", None).0, 404);
    assert_eq!(request(addr, "GET", "/jobs/notanumber", None).0, 404);
    assert_eq!(request(addr, "POST", "/jobs/999/cancel", None).0, 404);
    assert_eq!(request(addr, "GET", "/figures/no_such_fig", None).0, 404);

    // A SPLASH group with crossbar faults would run fault-free under a
    // faulty cache key: the spec is refused and no job is queued.
    let spec = CampaignSpec::new("splash_faults").with_group(PointGroup {
        label: "splash".into(),
        config: SimConfig::default(),
        designs: vec![Design::DXbarDor],
        workload: WorkloadAxis::Splash {
            apps: vec![SplashApp::Fft],
            max_cycles: 10_000,
        },
        fault_fractions: vec![0.0, 0.5],
        transient_rates: vec![],
        link_faults: vec![],
        seeds: vec![],
        tag: None,
    });
    let submit = format!("{{\"spec\": {}}}", spec.to_json());
    let (status, body) = request(addr, "POST", "/jobs", Some(&submit));
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("fault_fractions"), "{body}");
    let (_, jobs) = request(addr, "GET", "/jobs", None);
    assert!(serde_json::parse(&jobs)
        .unwrap()
        .as_array()
        .unwrap()
        .is_empty());

    // 100 KB of `[`, far under the 1 MiB body cap: an unbounded recursive
    // JSON parser overflows the connection thread's stack and aborts the
    // daemon.
    let (status, body) = request(addr, "POST", "/jobs", Some(&"[".repeat(100_000)));
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("nested deeper"), "{body}");
    assert_eq!(request(addr, "GET", "/healthz", None).0, 200);

    // Every error body is the standard JSON shape.
    let (_, body) = request(addr, "GET", "/jobs/999", None);
    let v = serde_json::parse(&body).expect("error body is JSON");
    assert!(v.field("error").as_str().is_some());

    let (_, figures) = request(addr, "GET", "/figures", None);
    let rows = serde_json::parse(&figures).unwrap();
    assert_eq!(
        rows.as_array().unwrap().len(),
        noc_daemon::figures::FIGURES.len()
    );

    handle.begin_drain();
    handle.wait();
    let _ = std::fs::remove_dir_all(&state_dir);
}
